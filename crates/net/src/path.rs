//! Session paths: ordered lists of directed links from a source host to a
//! destination host.

use crate::graph::{LinkId, Network, NodeId};
use std::sync::Arc;

/// The static path `π(s)` of a session: the ordered list of directed links
/// from the source host to the destination host.
///
/// Packets sent along the path are *downstream* packets; packets sent along
/// the reverse sequence of nodes are *upstream* packets (Section II of the
/// paper).
///
/// The link sequence is stored in a shared `Arc` slice beside the two end
/// hosts, so cloning a path (the workload planner, the harness and the
/// oracle's session-set snapshots all keep one) is one reference-count bump,
/// not a deep copy. The nodes in between are the links' far ends.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Path {
    links: Arc<[LinkId]>,
    source: NodeId,
    destination: NodeId,
}

impl Path {
    /// Builds a path from the ordered list of links it traverses.
    ///
    /// # Panics
    ///
    /// Panics if `links` is empty or the links do not form a connected chain
    /// in `network`.
    pub fn from_links(network: &Network, links: Vec<LinkId>) -> Self {
        assert!(!links.is_empty(), "a path must contain at least one link");
        for pair in links.windows(2) {
            assert_eq!(
                network.link(pair[0]).dst(),
                network.link(pair[1]).src(),
                "links do not form a chain"
            );
        }
        Path {
            source: network.link(links[0]).src(),
            destination: network.link(links[links.len() - 1]).dst(),
            links: links.into(),
        }
    }

    /// The links of the path, in downstream order.
    pub fn links(&self) -> &[LinkId] {
        &self.links
    }

    /// The source host of the path.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// The destination host of the path.
    pub fn destination(&self) -> NodeId {
        self.destination
    }

    /// The first link of the path (the link owned by the `SourceNode` task).
    pub fn first_link(&self) -> LinkId {
        self.links[0]
    }

    /// Number of links in the path.
    pub fn hop_count(&self) -> usize {
        self.links.len()
    }

    /// Returns the index of `link` within the path, if present.
    pub fn position(&self, link: LinkId) -> Option<usize> {
        self.links.iter().position(|l| *l == link)
    }

    /// Returns `true` if the path traverses `link`.
    pub fn contains(&self, link: LinkId) -> bool {
        self.position(link).is_some()
    }

    /// The smallest link capacity along the path (an upper bound on any rate
    /// assignable to a session following the path).
    pub fn min_capacity(&self, network: &Network) -> crate::capacity::Capacity {
        self.links
            .iter()
            .map(|l| network.link(*l).capacity())
            .fold(crate::capacity::Capacity::INFINITE, |acc, c| acc.min(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capacity::Capacity;
    use crate::delay::Delay;
    use crate::graph::NetworkBuilder;

    fn line3() -> (Network, Vec<NodeId>) {
        // h0 - r0 - r1 - h1
        let c = Capacity::from_mbps(100.0);
        let d = Delay::from_micros(1);
        let mut b = NetworkBuilder::new();
        let r0 = b.add_router();
        let r1 = b.add_router();
        b.connect(r0, r1, Capacity::from_mbps(200.0), Delay::from_micros(2));
        let h0 = b.add_host(r0, c, d);
        let h1 = b.add_host(r1, c, d);
        (b.build(), vec![h0, r0, r1, h1])
    }

    fn path_between(net: &Network, nodes: &[NodeId]) -> Path {
        let links: Vec<LinkId> = nodes
            .windows(2)
            .map(|w| net.link_between(w[0], w[1]).unwrap())
            .collect();
        Path::from_links(net, links)
    }

    #[test]
    fn path_endpoints_and_hops() {
        let (net, nodes) = line3();
        let p = path_between(&net, &nodes);
        assert_eq!(p.source(), nodes[0]);
        assert_eq!(p.destination(), nodes[3]);
        assert_eq!(p.hop_count(), 3);
        let far_ends: Vec<NodeId> = p.links().iter().map(|l| net.link(*l).dst()).collect();
        assert_eq!(far_ends, &nodes[1..]);
    }

    #[test]
    fn downstream_and_upstream_navigation() {
        let (net, nodes) = line3();
        let p = path_between(&net, &nodes);
        let links = p.links().to_vec();
        assert_eq!(p.position(links[2]), Some(2));
        assert!(p.contains(links[1]));
        assert_eq!(p.first_link(), links[0]);
    }

    #[test]
    fn delay_and_capacity_aggregation() {
        let (net, nodes) = line3();
        let p = path_between(&net, &nodes);
        assert_eq!(p.min_capacity(&net), Capacity::from_mbps(100.0));
    }

    #[test]
    #[should_panic(expected = "links do not form a chain")]
    fn disconnected_links_rejected() {
        let (net, nodes) = line3();
        // h0->r0 followed by h1->r1 is not a chain.
        let l0 = net.link_between(nodes[0], nodes[1]).unwrap();
        let l1 = net.link_between(nodes[3], nodes[2]).unwrap();
        let _ = Path::from_links(&net, vec![l0, l1]);
    }

    #[test]
    #[should_panic(expected = "at least one link")]
    fn empty_path_rejected() {
        let (net, _) = line3();
        let _ = Path::from_links(&net, vec![]);
    }
}
