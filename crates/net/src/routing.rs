//! Shortest-path routing for sessions.
//!
//! The paper routes every session along a shortest path (in hops) from its
//! source host to its destination host. The [`Router`] here implements
//! breadth-first search with reusable scratch buffers so that generating
//! hundreds of thousands of session paths stays cheap.

use crate::graph::{LinkId, Network, NodeId};
use crate::path::Path;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

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
    /// Dense index of each router among the routers (`u32::MAX` for hosts);
    /// built on first use of [`Router::host_path_cached`].
    router_index: Vec<u32>,
    /// Router nodes in dense-index order.
    router_nodes: Vec<NodeId>,
    /// Per-source-router BFS parent trees over the router-only subgraph,
    /// keyed by source router and indexed by dense router index
    /// (`LinkId(u32::MAX)` marks unreachable). Hosts never forward, so a
    /// host-to-host shortest path is its access links around a router-level
    /// shortest path; router graphs stay small (the paper's Big network has
    /// 11,000 routers) even when hundreds of thousands of hosts attach, so
    /// these trees make planning huge session populations cheap.
    router_trees: BTreeMap<NodeId, Box<[LinkId]>>,
}

/// Sentinel parent for unreachable routers in a cached router tree.
const NO_LINK: LinkId = LinkId(u32::MAX);

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
            router_index: Vec::new(),
            router_nodes: Vec::new(),
            router_trees: BTreeMap::new(),
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
    /// over the (small) router graph is kept per source router, so planning
    /// hundreds of thousands of host-to-host sessions costs at most one
    /// router-graph BFS per stub router instead of one whole-network BFS per
    /// session.
    ///
    /// Paths have the same (minimum) hop count as [`Router::shortest_path`];
    /// among equal-length paths the tie-break may differ. Returns `None` when
    /// the hosts are equal or not connected.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is not a host.
    pub fn host_path_cached(&mut self, src: NodeId, dst: NodeId) -> Option<Path> {
        assert!(
            self.network.node(src).kind().is_host() && self.network.node(dst).kind().is_host(),
            "host_path_cached requires host endpoints"
        );
        if src == dst {
            return None;
        }
        // A host's single outgoing link leads to its attachment router.
        let src_access = self.network.out_links(src)[0];
        let src_router = self.network.link(src_access).dst();
        let dst_up = self.network.out_links(dst)[0];
        let dst_router = self.network.link(dst_up).dst();
        let dst_access = self.network.reverse_link(dst_up)?;
        if src_router == dst_router {
            return Some(Path::from_links(self.network, vec![src_access, dst_access]));
        }
        self.ensure_router_index();
        if !self.router_trees.contains_key(&src_router) {
            let tree = self.build_router_tree(src_router);
            self.router_trees.insert(src_router, tree);
        }
        let tree = &self.router_trees[&src_router];
        // Walk the tree from the destination's router back to the source's.
        let mut buf = std::mem::take(&mut self.link_buf);
        buf.clear();
        buf.push(dst_access);
        let mut node = dst_router;
        while node != src_router {
            let parent = tree[self.router_index[node.index()] as usize];
            if parent == NO_LINK {
                self.link_buf = buf;
                return None;
            }
            buf.push(parent);
            node = self.network.link(parent).src();
        }
        buf.push(src_access);
        let links: Vec<LinkId> = buf.iter().rev().copied().collect();
        self.link_buf = buf;
        Some(Path::from_links(self.network, links))
    }

    /// Builds the dense router index on first use.
    fn ensure_router_index(&mut self) {
        if !self.router_index.is_empty() {
            return;
        }
        self.router_index = vec![u32::MAX; self.network.node_count()];
        for node in self.network.routers() {
            self.router_index[node.id().index()] = self.router_nodes.len() as u32;
            self.router_nodes.push(node.id());
        }
    }

    /// Runs a BFS from `root` over the router-only subgraph, recording for
    /// every router the link leading back toward `root`.
    fn build_router_tree(&mut self, root: NodeId) -> Box<[LinkId]> {
        build_router_tree_with_scratch(
            self.network,
            &self.router_index,
            self.router_nodes.len(),
            root,
            &mut self.visited_mark,
            &mut self.generation,
            &mut self.queue,
        )
    }

    /// Pre-builds the router-tree cache entries serving the access routers of
    /// `hosts`, splitting construction across up to `threads` scoped worker
    /// threads. Roots already cached are skipped; non-host nodes and hosts
    /// without an access link are ignored. Returns the number of trees built.
    ///
    /// Each tree is a pure function of the network (see
    /// [`Router::host_path_cached`]), so the cache contents — and every path
    /// later served from them — are bit-identical at any thread count; only
    /// wall-clock time changes.
    pub fn warm_router_trees(&mut self, hosts: &[NodeId], threads: usize) -> usize {
        self.ensure_router_index();
        let mut seen = BTreeSet::new();
        let mut roots: Vec<NodeId> = Vec::new();
        for &host in hosts {
            if !self.network.node(host).kind().is_host() {
                continue;
            }
            let Some(&access) = self.network.out_links(host).first() else {
                continue;
            };
            let root = self.network.link(access).dst();
            if !self.router_trees.contains_key(&root) && seen.insert(root) {
                roots.push(root);
            }
        }
        let built = roots.len();
        if roots.is_empty() {
            return 0;
        }
        let threads = threads.clamp(1, roots.len());
        if threads == 1 {
            for root in roots {
                let tree = self.build_router_tree(root);
                self.router_trees.insert(root, tree);
            }
            return built;
        }
        let network = self.network;
        let router_index: &[u32] = &self.router_index;
        let tree_len = self.router_nodes.len();
        let shards: Vec<Vec<(NodeId, Box<[LinkId]>)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let shard: Vec<NodeId> =
                        roots.iter().copied().skip(t).step_by(threads).collect();
                    scope.spawn(move || {
                        let mut mark = vec![0u64; network.node_count()];
                        let mut generation = 0u64;
                        let mut queue = VecDeque::new();
                        shard
                            .into_iter()
                            .map(|root| {
                                let tree = build_router_tree_with_scratch(
                                    network,
                                    router_index,
                                    tree_len,
                                    root,
                                    &mut mark,
                                    &mut generation,
                                    &mut queue,
                                );
                                (root, tree)
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("router-tree worker panicked"))
                .collect()
        });
        for shard in shards {
            for (root, tree) in shard {
                self.router_trees.insert(root, tree);
            }
        }
        built
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

/// BFS from `root` over the router-only subgraph using caller-provided
/// scratch, recording for every router the link leading back toward `root`.
/// A free function (rather than a method) so parallel tree warming can run it
/// on worker threads against a shared `&Network`; the single-threaded path
/// goes through the same code, which makes "identical trees at any thread
/// count" true by construction.
fn build_router_tree_with_scratch(
    network: &Network,
    router_index: &[u32],
    tree_len: usize,
    root: NodeId,
    mark: &mut [u64],
    generation: &mut u64,
    queue: &mut VecDeque<NodeId>,
) -> Box<[LinkId]> {
    let mut tree = vec![NO_LINK; tree_len].into_boxed_slice();
    *generation += 1;
    let generation = *generation;
    mark[root.index()] = generation;
    queue.clear();
    queue.push_back(root);
    while let Some(node) = queue.pop_front() {
        for &link_id in network.out_links(node) {
            let next = network.link(link_id).dst();
            if mark[next.index()] == generation || network.node(next).kind().is_host() {
                continue;
            }
            mark[next.index()] = generation;
            tree[router_index[next.index()] as usize] = link_id;
            queue.push_back(next);
        }
    }
    tree
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capacity::Capacity;
    use crate::delay::Delay;
    use crate::graph::NetworkBuilder;

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

    #[test]
    fn host_path_cached_matches_bfs_hop_counts() {
        let net = crate::topology::transit_stub::paper_network(
            crate::topology::transit_stub::NetworkSize::Small,
            40,
            crate::topology::DelayModel::Lan,
            23,
        );
        let hosts: Vec<_> = net.hosts().map(|h| h.id()).collect();
        let mut router = Router::new(&net);
        for i in 0..hosts.len() {
            let a = hosts[i];
            let b = hosts[(i * 7 + 3) % hosts.len()];
            let bfs = router.shortest_path(a, b);
            let cached = router.host_path_cached(a, b);
            match (bfs, cached) {
                (None, None) => {}
                (Some(p), Some(q)) => {
                    assert_eq!(p.hop_count(), q.hop_count(), "{a} -> {b}");
                    assert_eq!(q.source(), a);
                    assert_eq!(q.destination(), b);
                    // The cached path is a valid chain of existing links.
                    for pair in q.links().windows(2) {
                        assert_eq!(net.link(pair[0]).dst(), net.link(pair[1]).src());
                    }
                }
                (p, q) => panic!("reachability disagrees for {a} -> {b}: {p:?} vs {q:?}"),
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
    fn warmed_trees_serve_identical_paths_at_any_thread_count() {
        let net = crate::topology::transit_stub::paper_network(
            crate::topology::transit_stub::NetworkSize::Small,
            40,
            crate::topology::DelayModel::Lan,
            23,
        );
        let hosts: Vec<_> = net.hosts().map(|h| h.id()).collect();
        let mut lazy = Router::new(&net);
        let mut warmed: Vec<(usize, Router<'_>)> = [1usize, 2, 4]
            .into_iter()
            .map(|threads| {
                let mut r = Router::new(&net);
                let built = r.warm_router_trees(&hosts, threads);
                assert!(built > 0, "warming must build at least one tree");
                // A second warm finds everything cached.
                assert_eq!(r.warm_router_trees(&hosts, threads), 0);
                (threads, r)
            })
            .collect();
        for i in 0..hosts.len() {
            let a = hosts[i];
            let b = hosts[(i * 7 + 3) % hosts.len()];
            let want = lazy.host_path_cached(a, b);
            for (threads, r) in warmed.iter_mut() {
                assert_eq!(
                    r.host_path_cached(a, b),
                    want,
                    "warmed path ({threads} threads) diverges for {a} -> {b}"
                );
            }
        }
    }

    #[test]
    fn warming_skips_non_hosts_and_empty_input() {
        let (net, h0, _) = diamond();
        let mut router = Router::new(&net);
        assert_eq!(router.warm_router_trees(&[], 4), 0);
        let r0 = net.routers().next().unwrap().id();
        assert_eq!(router.warm_router_trees(&[r0], 4), 0);
        assert_eq!(router.warm_router_trees(&[h0, h0], 4), 1);
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
