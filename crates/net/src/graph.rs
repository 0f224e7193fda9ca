//! The directed network graph: nodes (routers and hosts) and capacitated
//! links with propagation delays.

use crate::capacity::Capacity;
use crate::delay::Delay;
use std::collections::BTreeSet;
use std::fmt;

/// Identifier of a node (router or host) in a [`Network`].
///
/// Node identifiers are dense indices assigned by the [`NetworkBuilder`] in
/// insertion order, so they can be used to index per-node vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the identifier as an index usable with per-node vectors.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a directed link in a [`Network`].
///
/// Link identifiers are dense indices assigned in insertion order, so they can
/// be used to index per-link vectors (the B-Neck `RouterLink` tasks are stored
/// that way).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LinkId(pub u32);

impl LinkId {
    /// Returns the identifier as an index usable with per-link vectors.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The link between the same two nodes in the opposite direction.
    /// [`NetworkBuilder::connect`] adds every link as one of the pair
    /// `2k`, `2k + 1`, so the reverse of `e` is `e ^ 1`.
    pub fn reverse(self) -> LinkId {
        LinkId(self.0 ^ 1)
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Hierarchy level of a router in a transit–stub topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RouterLevel {
    /// Backbone (transit domain) router.
    Transit,
    /// Edge (stub domain) router; hosts attach to stub routers.
    Stub,
}

/// The role of a node in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// An interior router; sessions only traverse routers.
    Router(RouterLevel),
    /// A host; sessions start and end at hosts, and each host connects to
    /// exactly one router through a dedicated link.
    Host,
}

impl NodeKind {
    /// Returns `true` if the node is a host.
    pub(crate) fn is_host(self) -> bool {
        matches!(self, NodeKind::Host)
    }

    /// Returns `true` if the node is a router.
    pub fn is_router(self) -> bool {
        matches!(self, NodeKind::Router(_))
    }
}

/// A node of the network graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    id: NodeId,
    kind: NodeKind,
    name: String,
}

impl Node {
    /// The node's identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The node's role.
    pub fn kind(&self) -> NodeKind {
        self.kind
    }

    /// The node's human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// A directed, capacitated link of the network graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Link {
    id: LinkId,
    src: NodeId,
    dst: NodeId,
    capacity: Capacity,
    delay: Delay,
}

impl Link {
    /// The link's identifier.
    pub fn id(&self) -> LinkId {
        self.id
    }

    /// The node the link leaves from.
    pub fn src(&self) -> NodeId {
        self.src
    }

    /// The node the link arrives at.
    pub fn dst(&self) -> NodeId {
        self.dst
    }

    /// The link's bandwidth available for data traffic (`Ce` in the paper).
    pub fn capacity(&self) -> Capacity {
        self.capacity
    }

    /// The link's propagation delay.
    pub fn delay(&self) -> Delay {
        self.delay
    }
}

/// An immutable network graph of routers, hosts and directed links.
///
/// Built with a [`NetworkBuilder`]; once built, the topology does not change
/// (the paper keeps the physical network fixed and only varies the session
/// population).
#[derive(Debug, Clone, Default)]
pub struct Network {
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// Adjacency in compressed sparse row form: the outgoing links of node
    /// `n` are `out_link_ids[out_offsets[n] .. out_offsets[n + 1]]`. One flat
    /// allocation keeps BFS traversals on a contiguous cache-friendly array.
    out_offsets: Vec<u32>,
    out_link_ids: Vec<LinkId>,
}

impl Network {
    /// Number of nodes (routers plus hosts).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of directed links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Number of router nodes.
    pub fn router_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.kind().is_router()).count()
    }

    /// Number of host nodes.
    pub fn host_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.kind().is_host()).count()
    }

    /// Returns the node with the given identifier.
    ///
    /// # Panics
    ///
    /// Panics if the identifier does not belong to this network.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Returns the link with the given identifier.
    ///
    /// # Panics
    ///
    /// Panics if the identifier does not belong to this network.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Iterates over all nodes in identifier order.
    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter()
    }

    /// Iterates over all links in identifier order.
    pub fn links(&self) -> impl Iterator<Item = &Link> {
        self.links.iter()
    }

    /// Iterates over all host nodes.
    pub fn hosts(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter().filter(|n| n.kind().is_host())
    }

    /// Iterates over all router nodes.
    pub fn routers(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter().filter(|n| n.kind().is_router())
    }

    /// Outgoing links of a node.
    pub fn out_links(&self, node: NodeId) -> &[LinkId] {
        let start = self.out_offsets[node.index()] as usize;
        let end = self.out_offsets[node.index() + 1] as usize;
        &self.out_link_ids[start..end]
    }

    /// Returns the link from `src` to `dst`, if one exists (a scan of
    /// `src`'s out-links).
    pub fn link_between(&self, src: NodeId, dst: NodeId) -> Option<LinkId> {
        self.out_links(src)
            .iter()
            .copied()
            .find(|&link| self.link(link).dst() == dst)
    }

    /// Computes the shortest path (in hops) from `src` to `dst`.
    ///
    /// Convenience wrapper over [`crate::routing::Router::shortest_path`] for
    /// one-off queries; repeated queries should use a [`crate::routing::Router`]
    /// which caches its search trees.
    pub fn shortest_path(&self, src: NodeId, dst: NodeId) -> Option<crate::path::Path> {
        crate::routing::Router::new(self).shortest_path(src, dst)
    }
}

/// Incremental builder for a [`Network`].
///
/// # Example
///
/// ```
/// use bneck_net::prelude::*;
///
/// let mut b = NetworkBuilder::new();
/// let r0 = b.add_router("r0");
/// let r1 = b.add_router("r1");
/// b.connect(r0, r1, Capacity::from_mbps(200.0), Delay::from_micros(1));
/// let h0 = b.add_host("h0", r0, Capacity::from_mbps(100.0), Delay::from_micros(1));
/// let h1 = b.add_host("h1", r1, Capacity::from_mbps(100.0), Delay::from_micros(1));
/// let net = b.build();
/// assert_eq!(net.router_count(), 2);
/// assert_eq!(net.host_count(), 2);
/// assert_eq!(net.shortest_path(h0, h1).unwrap().hop_count(), 3);
/// ```
#[derive(Debug, Default, Clone)]
pub struct NetworkBuilder {
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// The `(src, dst)` pair of every link added so far.
    endpoints: BTreeSet<(NodeId, NodeId)>,
}

impl NetworkBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a stub-level router with the given name and returns its identifier.
    pub fn add_router(&mut self, name: impl Into<String>) -> NodeId {
        self.add_router_at(name, RouterLevel::Stub)
    }

    /// Adds a router at a specific hierarchy level.
    pub(crate) fn add_router_at(&mut self, name: impl Into<String>, level: RouterLevel) -> NodeId {
        self.push_node(NodeKind::Router(level), name.into())
    }

    /// Adds a host attached to `router` with a dedicated bidirectional link of
    /// the given capacity and delay, returning the host's identifier.
    ///
    /// # Panics
    ///
    /// Panics if `router` is not a router node.
    pub fn add_host(
        &mut self,
        name: impl Into<String>,
        router: NodeId,
        capacity: Capacity,
        delay: Delay,
    ) -> NodeId {
        assert!(
            self.nodes[router.index()].kind().is_router(),
            "hosts must attach to routers"
        );
        let host = self.push_node(NodeKind::Host, name.into());
        self.connect(host, router, capacity, delay);
        host
    }

    /// Adds a pair of directed links (one in each direction) between `a` and
    /// `b`, both with the given capacity and delay. The pair takes the next
    /// two link identifiers, `2k` and `2k + 1`, so each is the other's
    /// [`LinkId::reverse`].
    ///
    /// Returns the identifiers of the `a → b` and `b → a` links.
    ///
    /// # Panics
    ///
    /// Panics if a link between the two nodes already exists, or `a == b`.
    pub fn connect(
        &mut self,
        a: NodeId,
        b: NodeId,
        capacity: Capacity,
        delay: Delay,
    ) -> (LinkId, LinkId) {
        assert_ne!(a, b, "self-loops are not allowed");
        let ab = LinkId(self.links.len() as u32);
        for (id, src, dst) in [(ab, a, b), (ab.reverse(), b, a)] {
            let added = self.endpoints.insert((src, dst));
            assert!(added, "link {src} -> {dst} already exists");
            self.links.push(Link {
                id,
                src,
                dst,
                capacity,
                delay,
            });
        }
        (ab, ab.reverse())
    }

    /// Returns `true` if a link from `src` to `dst` has been added.
    pub fn has_link(&self, src: NodeId, dst: NodeId) -> bool {
        self.endpoints.contains(&(src, dst))
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Finalizes the builder into an immutable [`Network`].
    pub fn build(self) -> Network {
        // Counting sort of the links by source node into CSR form, preserving
        // insertion order within each node (links are appended id-ascending).
        let mut out_offsets = vec![0u32; self.nodes.len() + 1];
        for link in &self.links {
            out_offsets[link.src().index() + 1] += 1;
        }
        for i in 1..out_offsets.len() {
            out_offsets[i] += out_offsets[i - 1];
        }
        let mut cursor: Vec<u32> = out_offsets[..self.nodes.len()].to_vec();
        let mut out_link_ids = vec![LinkId(0); self.links.len()];
        for link in &self.links {
            let c = &mut cursor[link.src().index()];
            out_link_ids[*c as usize] = link.id();
            *c += 1;
        }
        Network {
            nodes: self.nodes,
            links: self.links,
            out_offsets,
            out_link_ids,
        }
    }

    fn push_node(&mut self, kind: NodeKind, name: String) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node { id, kind, name });
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn caps() -> (Capacity, Delay) {
        (Capacity::from_mbps(100.0), Delay::from_micros(1))
    }

    #[test]
    fn builder_assigns_dense_ids() {
        let (c, d) = caps();
        let mut b = NetworkBuilder::new();
        let r0 = b.add_router("r0");
        let r1 = b.add_router("r1");
        b.connect(r0, r1, c, d);
        let h = b.add_host("h", r0, c, d);
        assert_eq!(r0, NodeId(0));
        assert_eq!(r1, NodeId(1));
        assert_eq!(h, NodeId(2));
        let net = b.build();
        assert_eq!(net.node_count(), 3);
        // two links between routers, two between host and router
        assert_eq!(net.link_count(), 4);
        assert_eq!(net.router_count(), 2);
        assert_eq!(net.host_count(), 1);
    }

    #[test]
    fn link_lookup_and_reverse() {
        let (c, d) = caps();
        let mut b = NetworkBuilder::new();
        let r0 = b.add_router("r0");
        let r1 = b.add_router("r1");
        let (ab, ba) = b.connect(r0, r1, c, d);
        let net = b.build();
        assert_eq!(net.link_between(r0, r1), Some(ab));
        assert_eq!(net.link_between(r1, r0), Some(ba));
        assert_eq!(ab.reverse(), ba);
        assert_eq!(ba.reverse(), ab);
        assert_eq!(net.link_between(r0, r0), None);
        assert_eq!(net.link(ab).src(), r0);
        assert_eq!(net.link(ab).dst(), r1);
    }

    #[test]
    fn out_links_are_indexed_per_node() {
        let (c, d) = caps();
        let mut b = NetworkBuilder::new();
        let r0 = b.add_router("r0");
        let r1 = b.add_router("r1");
        let r2 = b.add_router("r2");
        b.connect(r0, r1, c, d);
        b.connect(r0, r2, c, d);
        let net = b.build();
        assert_eq!(net.out_links(r0).len(), 2);
        assert_eq!(net.out_links(r1).len(), 1);
        assert_eq!(net.out_links(r2).len(), 1);
    }

    #[test]
    #[should_panic(expected = "already exists")]
    fn duplicate_links_rejected() {
        let (c, d) = caps();
        let mut b = NetworkBuilder::new();
        let r0 = b.add_router("r0");
        let r1 = b.add_router("r1");
        b.connect(r0, r1, c, d);
        b.connect(r0, r1, c, d);
    }

    #[test]
    #[should_panic(expected = "hosts must attach to routers")]
    fn host_must_attach_to_router() {
        let (c, d) = caps();
        let mut b = NetworkBuilder::new();
        let r0 = b.add_router("r0");
        let h0 = b.add_host("h0", r0, c, d);
        b.add_host("h1", h0, c, d);
    }

    #[test]
    fn node_kind_predicates() {
        assert!(NodeKind::Host.is_host());
        assert!(!NodeKind::Host.is_router());
        assert!(NodeKind::Router(RouterLevel::Transit).is_router());
        assert!(!NodeKind::Router(RouterLevel::Stub).is_host());
    }

    #[test]
    fn display_formats() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(LinkId(7).to_string(), "e7");
    }
}
