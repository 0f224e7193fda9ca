//! Shortest-path routing for sessions.
//!
//! The paper routes every session along a shortest path (in hops) from its
//! source host to its destination host. The [`Router`] here answers that
//! query with one search: a breadth-first tree over the router-only
//! subgraph per source router, built once and cached, so generating
//! hundreds of thousands of session paths stays cheap.

use crate::graph::{LinkId, Network, NodeId};
use crate::path::Path;
use std::collections::VecDeque;

/// Shortest-path (minimum hop) router over a [`Network`].
///
/// # Example
///
/// ```
/// use bneck_net::prelude::*;
///
/// let net = synthetic::line(3, Capacity::from_mbps(100.0), Capacity::from_mbps(200.0),
///                           Delay::from_micros(1));
/// let hosts: Vec<_> = net.hosts().map(|h| h.id()).collect();
/// let mut router = Router::new(&net);
/// let path = router.shortest_path(hosts[0], hosts[1]).unwrap();
/// assert!(path.hop_count() >= 2);
/// ```
#[derive(Debug)]
pub struct Router<'a> {
    network: &'a Network,
    /// Reverse tree walk, reused across queries.
    link_buf: Vec<LinkId>,
    /// The router-only subgraph and its tree cache; built on the first query.
    routers: Option<RouterGraph>,
}

/// Sentinel parent for unreachable routers in a cached router tree.
const NO_LINK: LinkId = LinkId(u32::MAX);

/// The router-only subgraph in compressed sparse row form, plus one BFS
/// parent tree per source router served from it.
///
/// Hosts never forward, so a host-to-host shortest path is its access links
/// around a router-level shortest path. Router graphs stay small (the paper's
/// Big network has 11,000 routers) even when hundreds of thousands of hosts
/// attach, and the adjacency leaves every host link out, so a tree costs
/// routers plus router-to-router links whatever the host count.
#[derive(Debug)]
struct RouterGraph {
    /// Dense index of each node among the routers (`u32::MAX` for hosts).
    index: Vec<u32>,
    /// Router `r`'s out-links to other routers are
    /// `edges[start[r]..start[r + 1]]`, in `out_links` order.
    start: Vec<u32>,
    /// `(neighbour router index, link)` pairs.
    edges: Vec<(u32, LinkId)>,
    /// Per-source-router parent trees indexed by dense router index: the
    /// link leading back toward the source, or [`NO_LINK`] when unreachable.
    /// Built on first use.
    trees: Vec<Option<Box<[LinkId]>>>,
    /// BFS frontier of router indices, reused across trees.
    queue: VecDeque<u32>,
}

impl RouterGraph {
    fn new(network: &Network) -> Self {
        let mut index = vec![u32::MAX; network.node_count()];
        for (i, node) in network.routers().enumerate() {
            index[node.id().index()] = i as u32;
        }
        let mut start = Vec::with_capacity(network.router_count() + 1);
        let mut edges = Vec::new();
        start.push(0);
        for node in network.routers() {
            for &link in network.out_links(node.id()) {
                let next = index[network.link(link).dst().index()];
                if next != u32::MAX {
                    edges.push((next, link));
                }
            }
            start.push(edges.len() as u32);
        }
        RouterGraph {
            index,
            start,
            edges,
            trees: vec![None; network.router_count()],
            queue: VecDeque::new(),
        }
    }

    /// Pushes the router-level path from router `from` to router `to` onto
    /// `buf` in upstream order (the link into `to` first). Returns `false`
    /// when `to` is unreachable.
    fn route(&mut self, network: &Network, from: u32, to: u32, buf: &mut Vec<LinkId>) -> bool {
        let RouterGraph {
            index,
            start,
            edges,
            trees,
            queue,
        } = self;
        let tree = trees[from as usize].get_or_insert_with(|| bfs_tree(start, edges, queue, from));
        let mut node = to;
        while node != from {
            let parent = tree[node as usize];
            if parent == NO_LINK {
                return false;
            }
            buf.push(parent);
            node = index[network.link(parent).src().index()];
        }
        true
    }
}

/// BFS from router `root` over the CSR adjacency, recording for every router
/// the link leading back toward `root`.
fn bfs_tree(
    start: &[u32],
    edges: &[(u32, LinkId)],
    queue: &mut VecDeque<u32>,
    root: u32,
) -> Box<[LinkId]> {
    let mut tree = vec![NO_LINK; start.len() - 1].into_boxed_slice();
    queue.clear();
    queue.push_back(root);
    while let Some(router) = queue.pop_front() {
        let r = router as usize;
        for &(next, link) in &edges[start[r] as usize..start[r + 1] as usize] {
            if next == root || tree[next as usize] != NO_LINK {
                continue;
            }
            tree[next as usize] = link;
            queue.push_back(next);
        }
    }
    tree
}

impl<'a> Router<'a> {
    /// Creates a router for the given network.
    pub fn new(network: &'a Network) -> Self {
        Router {
            network,
            link_buf: Vec::new(),
            routers: None,
        }
    }

    /// The network this router operates on.
    pub fn network(&self) -> &Network {
        self.network
    }

    /// Computes a minimum-hop path from host `src` to host `dst`: the
    /// source's access link, a shortest path over the router-only subgraph,
    /// and the destination's access link. Hosts only ever end a path, so
    /// no path traverses one, matching the paper's model where hosts hang off
    /// a single router.
    ///
    /// One BFS tree over the (small) router graph is kept per source router,
    /// built the first time that router sources a path, so planning hundreds
    /// of thousands of sessions costs at most one router-graph BFS per stub
    /// router. Returns `None` when `src == dst`, when either endpoint is not
    /// a host, or when the hosts are not connected.
    pub fn shortest_path(&mut self, src: NodeId, dst: NodeId) -> Option<Path> {
        let network = self.network;
        let is_host = |node: NodeId| network.node(node).kind().is_host();
        if src == dst || !is_host(src) || !is_host(dst) {
            return None;
        }
        // A host's single outgoing link leads to its attachment router.
        let src_access = network.out_links(src)[0];
        let src_router = network.link(src_access).dst();
        let dst_up = network.out_links(dst)[0];
        let dst_router = network.link(dst_up).dst();
        let graph = self
            .routers
            .get_or_insert_with(|| RouterGraph::new(network));
        let from = graph.index[src_router.index()];
        let to = graph.index[dst_router.index()];
        // Walk the tree from the destination's router back to the source's.
        let buf = &mut self.link_buf;
        buf.clear();
        buf.push(dst_up.reverse());
        let reached = graph.route(network, from, to, buf);
        buf.push(src_access);
        reached.then(|| Path::from_links(network, buf.iter().rev().copied().collect()))
    }

    /// The same as [`Router::shortest_path`], for callers that use this name.
    pub fn host_path_cached(&mut self, src: NodeId, dst: NodeId) -> Option<Path> {
        self.shortest_path(src, dst)
    }

    /// Computes minimum hop distances (in links) from `src` to every node,
    /// by a BFS over the whole network in which hosts other than `src` do not
    /// forward.
    ///
    /// Unreachable nodes get `usize::MAX`. Useful for topology diagnostics and
    /// as the tests' oracle for [`Router::shortest_path`].
    pub fn hop_distances(&self, src: NodeId) -> Vec<usize> {
        let network = self.network;
        let mut dist = vec![usize::MAX; network.node_count()];
        dist[src.index()] = 0;
        let mut queue = VecDeque::from([src]);
        while let Some(node) = queue.pop_front() {
            // Hosts do not forward.
            if node != src && network.node(node).kind().is_host() {
                continue;
            }
            for &link_id in network.out_links(node) {
                let next = network.link(link_id).dst();
                if dist[next.index()] == usize::MAX {
                    dist[next.index()] = dist[node.index()] + 1;
                    queue.push_back(next);
                }
            }
        }
        dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capacity::Capacity;
    use crate::delay::Delay;
    use crate::graph::NetworkBuilder;
    use std::collections::{BTreeMap, BTreeSet};

    fn caps() -> (Capacity, Delay) {
        (Capacity::from_mbps(100.0), Delay::from_micros(1))
    }

    /// h0 - r0 - r1 - r2 - h2, with a shortcut r0 - r2.
    fn diamond() -> (Network, NodeId, NodeId) {
        let (c, d) = caps();
        let mut b = NetworkBuilder::new();
        let r0 = b.add_router("r0");
        let r1 = b.add_router("r1");
        let r2 = b.add_router("r2");
        b.connect(r0, r1, c, d);
        b.connect(r1, r2, c, d);
        b.connect(r0, r2, c, d);
        let h0 = b.add_host("h0", r0, c, d);
        let h2 = b.add_host("h2", r2, c, d);
        (b.build(), h0, h2)
    }

    #[test]
    fn takes_the_shortcut() {
        let (net, h0, h2) = diamond();
        let mut router = Router::new(&net);
        let p = router.shortest_path(h0, h2).unwrap();
        // h0 -> r0 -> r2 -> h2 (3 links), not via r1 (4 links).
        assert_eq!(p.hop_count(), 3);
        assert_eq!(p.source(), h0);
        assert_eq!(p.destination(), h2);
    }

    #[test]
    fn no_path_to_self() {
        let (net, h0, _) = diamond();
        let mut router = Router::new(&net);
        assert!(router.shortest_path(h0, h0).is_none());
    }

    #[test]
    fn unreachable_returns_none() {
        let (c, d) = caps();
        let mut b = NetworkBuilder::new();
        let r0 = b.add_router("r0");
        let r1 = b.add_router("r1"); // never connected to r0
        let h0 = b.add_host("h0", r0, c, d);
        let h1 = b.add_host("h1", r1, c, d);
        let net = b.build();
        let mut router = Router::new(&net);
        assert!(router.shortest_path(h0, h1).is_none());
    }

    #[test]
    fn hosts_do_not_forward() {
        // h0 and h1 both attach to r0; h2 attaches to r1. A path from h0 to h2
        // must never route "through" h1.
        let (c, d) = caps();
        let mut b = NetworkBuilder::new();
        let r0 = b.add_router("r0");
        let r1 = b.add_router("r1");
        b.connect(r0, r1, c, d);
        let h0 = b.add_host("h0", r0, c, d);
        let _h1 = b.add_host("h1", r0, c, d);
        let h2 = b.add_host("h2", r1, c, d);
        let net = b.build();
        let mut router = Router::new(&net);
        let p = router.shortest_path(h0, h2).unwrap();
        for link in &p.links()[..p.hop_count() - 1] {
            assert!(net.node(net.link(*link).dst()).kind().is_router());
        }
    }

    #[test]
    fn router_endpoints_have_no_path() {
        let (net, h0, h2) = diamond();
        let r0 = net.link(net.out_links(h0)[0]).dst();
        let r2 = net.link(net.out_links(h2)[0]).dst();
        let mut router = Router::new(&net);
        assert!(router.shortest_path(r0, h2).is_none());
        assert!(router.shortest_path(h0, r2).is_none());
        assert!(router.shortest_path(r0, r2).is_none());
    }

    #[test]
    fn hop_distances_match_paths() {
        let (net, h0, h2) = diamond();
        let mut router = Router::new(&net);
        let dist = router.hop_distances(h0);
        let p = router.shortest_path(h0, h2).unwrap();
        assert_eq!(dist[h2.index()], p.hop_count());
    }

    /// The per-source-router tree BFS as it stood before the router-only
    /// adjacency: it walks every out-link of every router and skips hosts by
    /// node kind. Returns the node-indexed parent links of `root`'s tree.
    fn reference_tree(net: &Network, root: NodeId) -> Vec<LinkId> {
        let mut tree = vec![NO_LINK; net.node_count()];
        let mut mark = vec![false; net.node_count()];
        let mut queue = VecDeque::new();
        mark[root.index()] = true;
        queue.push_back(root);
        while let Some(node) = queue.pop_front() {
            for &link_id in net.out_links(node) {
                let next = net.link(link_id).dst();
                if mark[next.index()] || net.node(next).kind().is_host() {
                    continue;
                }
                mark[next.index()] = true;
                tree[next.index()] = link_id;
                queue.push_back(next);
            }
        }
        tree
    }

    /// The host-to-host path the reference trees give: access link, tree
    /// walk, access link.
    fn reference_path(
        net: &Network,
        trees: &mut BTreeMap<NodeId, Vec<LinkId>>,
        src: NodeId,
        dst: NodeId,
    ) -> Option<Path> {
        if src == dst {
            return None;
        }
        let src_access = net.out_links(src)[0];
        let src_router = net.link(src_access).dst();
        let dst_up = net.out_links(dst)[0];
        let dst_router = net.link(dst_up).dst();
        let dst_access = dst_up.reverse();
        let tree = trees
            .entry(src_router)
            .or_insert_with(|| reference_tree(net, src_router));
        let mut links = vec![dst_access];
        let mut node = dst_router;
        while node != src_router {
            let parent = tree[node.index()];
            if parent == NO_LINK {
                return None;
            }
            links.push(parent);
            node = net.link(parent).src();
        }
        links.push(src_access);
        links.reverse();
        Some(Path::from_links(net, links))
    }

    /// Every path equals the reference tree's path link for link and is as
    /// long as the whole-network BFS distance, or is `None` exactly where that
    /// BFS does not reach. Each host is paired with a host seven places on
    /// and with the next host on its own router. Returns how many same-router
    /// and unreachable pairs were checked.
    fn assert_paths_match_reference(net: &Network) -> (usize, usize) {
        let hosts: Vec<_> = net.hosts().map(|h| h.id()).collect();
        let router_of = |h: NodeId| net.link(net.out_links(h)[0]).dst();
        let mut router = Router::new(net);
        let mut trees = BTreeMap::new();
        let (mut same_router, mut unreachable) = (0, 0);
        for (i, &a) in hosts.iter().enumerate() {
            let distances = router.hop_distances(a);
            let neighbour = hosts[i + 1..]
                .iter()
                .copied()
                .find(|&h| router_of(h) == router_of(a));
            let far = hosts[(i * 7 + 3) % hosts.len()];
            for b in [Some(far), neighbour].into_iter().flatten() {
                let path = router.shortest_path(a, b);
                assert_eq!(path, reference_path(net, &mut trees, a, b), "{a} -> {b}");
                match &path {
                    Some(p) => {
                        assert_eq!(p.hop_count(), distances[b.index()], "{a} -> {b}");
                        assert_eq!((p.source(), p.destination()), (a, b));
                    }
                    None if a == b => {}
                    None => {
                        assert_eq!(distances[b.index()], usize::MAX, "{a} -> {b}");
                        unreachable += 1;
                    }
                }
                same_router += usize::from(a != b && router_of(a) == router_of(b));
            }
        }
        (same_router, unreachable)
    }

    #[test]
    fn shortest_paths_match_the_reference_trees_and_bfs() {
        use crate::topology::transit_stub::{paper_network, NetworkSize};
        use crate::topology::DelayModel;
        let small = paper_network(NetworkSize::Small, 40, DelayModel::Lan, 23);
        let (same_router, unreachable) = assert_paths_match_reference(&small);
        assert!(same_router > 0);
        assert_eq!(unreachable, 0);
        let medium = paper_network(NetworkSize::Medium, 1_500, DelayModel::Lan, 7);
        let (same_router, unreachable) = assert_paths_match_reference(&medium);
        assert!(same_router > 0);
        assert_eq!(unreachable, 0);
        // Two islands: pairs across them are unreachable.
        let (c, d) = caps();
        let mut b = NetworkBuilder::new();
        let routers: Vec<NodeId> = (0..5).map(|i| b.add_router(format!("r{i}"))).collect();
        b.connect(routers[0], routers[1], c, d);
        b.connect(routers[1], routers[2], c, d);
        b.connect(routers[3], routers[4], c, d);
        for (i, &r) in routers.iter().cycle().take(12).enumerate() {
            b.add_host(format!("h{i}"), r, c, d);
        }
        let (same_router, unreachable) = assert_paths_match_reference(&b.build());
        assert!(same_router > 0);
        assert!(unreachable > 0);
    }

    #[test]
    fn adjacency_holds_exactly_the_router_to_router_links() {
        use crate::topology::transit_stub::{paper_network, NetworkSize};
        use crate::topology::DelayModel;
        // The Medium LAN of the 20k-session join burst.
        let net = paper_network(NetworkSize::Medium, 25_008, DelayModel::Lan, 1);
        let graph = RouterGraph::new(&net);
        let adjacency: BTreeSet<LinkId> = graph.edges.iter().map(|&(_, link)| link).collect();
        let router_links: BTreeSet<LinkId> = net
            .links()
            .filter(|l| {
                net.node(l.src()).kind().is_router() && net.node(l.dst()).kind().is_router()
            })
            .map(|l| l.id())
            .collect();
        assert_eq!(net.link_count(), 53_778);
        assert_eq!(graph.edges.len(), 3_762);
        assert_eq!(adjacency, router_links);
        // Each entry sits in its source router's row and names its far end.
        for (r, node) in net.routers().enumerate() {
            let row = &graph.edges[graph.start[r] as usize..graph.start[r + 1] as usize];
            for &(next, link) in row {
                assert_eq!(net.link(link).src(), node.id());
                assert_eq!(graph.index[net.link(link).dst().index()], next);
            }
        }
    }

    #[test]
    fn host_path_cached_same_router_and_self() {
        let (c, d) = caps();
        let mut b = NetworkBuilder::new();
        let r0 = b.add_router("r0");
        let h0 = b.add_host("h0", r0, c, d);
        let h1 = b.add_host("h1", r0, c, d);
        let net = b.build();
        let mut router = Router::new(&net);
        assert!(router.host_path_cached(h0, h0).is_none());
        let p = router.host_path_cached(h0, h1).unwrap();
        assert_eq!(p.hop_count(), 2);
        assert_eq!(p.source(), h0);
        assert_eq!(p.destination(), h1);
    }

    #[test]
    fn host_path_cached_unreachable_returns_none() {
        let (c, d) = caps();
        let mut b = NetworkBuilder::new();
        let r0 = b.add_router("r0");
        let r1 = b.add_router("r1"); // never connected to r0
        let h0 = b.add_host("h0", r0, c, d);
        let h1 = b.add_host("h1", r1, c, d);
        let net = b.build();
        let mut router = Router::new(&net);
        assert!(router.host_path_cached(h0, h1).is_none());
    }

    #[test]
    fn router_is_reusable_across_queries() {
        let (net, h0, h2) = diamond();
        let mut router = Router::new(&net);
        let a = router.shortest_path(h0, h2).unwrap();
        let b = router.shortest_path(h2, h0).unwrap();
        let c = router.shortest_path(h0, h2).unwrap();
        assert_eq!(a, c);
        assert_eq!(a.hop_count(), b.hop_count());
    }
}
