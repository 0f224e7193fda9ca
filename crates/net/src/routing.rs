//! Shortest-path routing for sessions.
//!
//! The paper routes every session along a shortest path (in hops) from its
//! source host to its destination host. The [`Router`] here implements
//! breadth-first search with reusable scratch buffers so that generating
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
    /// `visited_mark[n] == generation` means node `n` was reached in the
    /// current BFS; avoids clearing the whole vector between queries.
    visited_mark: Vec<u64>,
    parent_link: Vec<LinkId>,
    generation: u64,
    /// BFS frontier, reused across queries.
    queue: VecDeque<NodeId>,
    /// Reverse parent walk, reused across queries.
    link_buf: Vec<LinkId>,
    /// The router-only subgraph and its tree cache; built on first use of
    /// [`Router::host_path_cached`].
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
            visited_mark: vec![0; network.node_count()],
            parent_link: vec![LinkId(0); network.node_count()],
            generation: 0,
            queue: VecDeque::new(),
            link_buf: Vec::new(),
            routers: None,
        }
    }

    /// The network this router operates on.
    pub fn network(&self) -> &Network {
        self.network
    }

    /// Computes a minimum-hop path from `src` to `dst`, or `None` when `dst`
    /// is unreachable from `src` (or `src == dst`).
    ///
    /// Hosts are only usable as path endpoints: a path never traverses a host
    /// as an intermediate node, matching the paper's model where hosts hang
    /// off a single router.
    pub fn shortest_path(&mut self, src: NodeId, dst: NodeId) -> Option<Path> {
        if src == dst {
            return None;
        }
        self.generation += 1;
        let generation = self.generation;
        self.queue.clear();
        self.visited_mark[src.index()] = generation;
        self.queue.push_back(src);
        'bfs: while let Some(node) = self.queue.pop_front() {
            for &link_id in self.network.out_links(node) {
                let link = self.network.link(link_id);
                let next = link.dst();
                if self.visited_mark[next.index()] == generation {
                    continue;
                }
                // Intermediate hosts never forward traffic.
                if next != dst && self.network.node(next).kind().is_host() {
                    continue;
                }
                self.visited_mark[next.index()] = generation;
                self.parent_link[next.index()] = link_id;
                if next == dst {
                    break 'bfs;
                }
                self.queue.push_back(next);
            }
        }
        if self.visited_mark[dst.index()] != generation {
            return None;
        }
        let parents = std::mem::take(&mut self.parent_link);
        let path = self.walk_parents(&parents, src, dst);
        self.parent_link = parents;
        Some(path)
    }

    /// [`Router::shortest_path`] between two *hosts*, through a per-router
    /// tree cache: the path is the source's access link, a shortest path over
    /// the router-only subgraph, and the destination's access link. One BFS
    /// over the (small) router graph is kept per source router, built the
    /// first time that router sources a path, so planning hundreds of
    /// thousands of host-to-host sessions costs at most one router-graph BFS
    /// per stub router instead of one whole-network BFS per session.
    ///
    /// Paths have the same (minimum) hop count as [`Router::shortest_path`];
    /// among equal-length paths the tie-break may differ. Returns `None` when
    /// the hosts are equal or not connected.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is not a host.
    pub fn host_path_cached(&mut self, src: NodeId, dst: NodeId) -> Option<Path> {
        let network = self.network;
        assert!(
            network.node(src).kind().is_host() && network.node(dst).kind().is_host(),
            "host_path_cached requires host endpoints"
        );
        if src == dst {
            return None;
        }
        // A host's single outgoing link leads to its attachment router.
        let src_access = network.out_links(src)[0];
        let src_router = network.link(src_access).dst();
        let dst_up = network.out_links(dst)[0];
        let dst_router = network.link(dst_up).dst();
        let dst_access = network.reverse_link(dst_up)?;
        let graph = self
            .routers
            .get_or_insert_with(|| RouterGraph::new(network));
        let from = graph.index[src_router.index()];
        let to = graph.index[dst_router.index()];
        // Walk the tree from the destination's router back to the source's.
        let buf = &mut self.link_buf;
        buf.clear();
        buf.push(dst_access);
        let reached = graph.route(network, from, to, buf);
        buf.push(src_access);
        reached.then(|| Path::from_links(network, buf.iter().rev().copied().collect()))
    }

    /// Builds the path from `src` to `dst` out of a parent-link tree.
    fn walk_parents(&mut self, parents: &[LinkId], src: NodeId, dst: NodeId) -> Path {
        self.link_buf.clear();
        let mut node = dst;
        while node != src {
            let link_id = parents[node.index()];
            self.link_buf.push(link_id);
            node = self.network.link(link_id).src();
        }
        let links: Vec<LinkId> = self.link_buf.iter().rev().copied().collect();
        Path::from_links(self.network, links)
    }

    /// Computes minimum hop distances (in links) from `src` to every node.
    ///
    /// Unreachable nodes get `usize::MAX`. Useful for topology diagnostics and
    /// tests.
    pub fn hop_distances(&mut self, src: NodeId) -> Vec<usize> {
        let mut dist = vec![usize::MAX; self.network.node_count()];
        dist[src.index()] = 0;
        self.queue.clear();
        self.queue.push_back(src);
        while let Some(node) = self.queue.pop_front() {
            for &link_id in self.network.out_links(node) {
                let next = self.network.link(link_id).dst();
                if dist[next.index()] != usize::MAX {
                    continue;
                }
                // Hosts do not forward.
                if self.network.node(node).kind().is_host() && node != src {
                    continue;
                }
                dist[next.index()] = dist[node.index()] + 1;
                self.queue.push_back(next);
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
        for n in &p.nodes()[1..p.nodes().len() - 1] {
            assert!(net.node(*n).kind().is_router());
        }
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
        let dst_access = net.reverse_link(dst_up)?;
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

    /// Every cached path equals the reference tree's path link for link, and
    /// has the hop count of a whole-network BFS.
    fn assert_cached_paths_match_reference(net: &Network) {
        let hosts: Vec<_> = net.hosts().map(|h| h.id()).collect();
        let mut router = Router::new(net);
        let mut trees = BTreeMap::new();
        for i in 0..hosts.len() {
            let a = hosts[i];
            let b = hosts[(i * 7 + 3) % hosts.len()];
            let cached = router.host_path_cached(a, b);
            assert_eq!(cached, reference_path(net, &mut trees, a, b), "{a} -> {b}");
            match (router.shortest_path(a, b), cached) {
                (None, None) => {}
                (Some(p), Some(q)) => {
                    assert_eq!(p.hop_count(), q.hop_count(), "{a} -> {b}");
                    assert_eq!(q.source(), a);
                    assert_eq!(q.destination(), b);
                }
                (p, q) => panic!("reachability disagrees for {a} -> {b}: {p:?} vs {q:?}"),
            }
        }
    }

    #[test]
    fn host_path_cached_matches_bfs_hop_counts() {
        use crate::topology::transit_stub::{paper_network, NetworkSize};
        use crate::topology::DelayModel;
        assert_cached_paths_match_reference(&paper_network(
            NetworkSize::Small,
            40,
            DelayModel::Lan,
            23,
        ));
        assert_cached_paths_match_reference(&paper_network(
            NetworkSize::Medium,
            1_500,
            DelayModel::Lan,
            7,
        ));
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
