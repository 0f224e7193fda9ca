//! Topology-aware task placement: which node of the cluster hosts which task.
//!
//! - **Routers** are split into contiguous blocks by identifier rank, so
//!   shard boundaries follow the generators' locality (transit–stub
//!   topologies allocate stub domains contiguously).
//! - **Hosts** inherit the shard of the router they attach to, which makes
//!   every host access link shard-internal: only router–router links ever
//!   cross shards.
//! - **Tasks** follow their node: the `RouterLink` task of link `e` runs on
//!   the shard of `src(e)`, and a session's source and destination tasks run
//!   on the shards of their hosts.

use bneck_core::Target;
use bneck_net::{Network, Path};

/// A router-rank partition of a network into one shard per cluster node, plus
/// the per-session-slot task placement.
///
/// Built once per [`crate::ClusterPlan`]; [`WorldPartition::place_session`]
/// is called for every session in slot order.
#[derive(Debug, Clone)]
pub(crate) struct WorldPartition {
    /// Shard of every network node (router or host), indexed by `NodeId`.
    node_shard: Vec<u32>,
    /// Shard of every link's `RouterLink` task (= shard of the link's source
    /// node), indexed by `LinkId`.
    link_shard: Vec<u32>,
    /// Shard of each session slot's source task (the slot's source host).
    source_shard: Vec<u32>,
    /// Shard of each session slot's destination task.
    dest_shard: Vec<u32>,
}

impl WorldPartition {
    /// Partitions `network` into `shards` router blocks.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or the network has no routers.
    pub(crate) fn new(network: &Network, shards: usize) -> Self {
        assert!(shards >= 1, "at least one shard");
        let routers = network.router_count();
        assert!(routers > 0, "cannot partition a network without routers");
        let mut node_shard = vec![0u32; network.node_count()];
        let mut rank = 0usize;
        for node in network.nodes() {
            if node.kind().is_router() {
                // Contiguous rank blocks: router `rank` of `routers` goes to
                // shard `rank * shards / routers` (never >= shards).
                node_shard[node.id().index()] = (rank * shards / routers) as u32;
                rank += 1;
            } else {
                // Hosts attach to exactly one router, added before the host,
                // so its shard is already assigned in this identifier-order
                // pass.
                let access = network.out_links(node.id())[0];
                let router = network.link(access).dst();
                node_shard[node.id().index()] = node_shard[router.index()];
            }
        }
        let link_shard = network
            .links()
            .map(|l| node_shard[l.src().index()])
            .collect();
        WorldPartition {
            node_shard,
            link_shard,
            source_shard: Vec::new(),
            dest_shard: Vec::new(),
        }
    }

    /// Records the task placement of the next session slot (slots are dense:
    /// the `i`-th call places slot `i`).
    pub(crate) fn place_session(&mut self, path: &Path) {
        self.source_shard
            .push(self.node_shard[path.source().index()]);
        self.dest_shard
            .push(self.node_shard[path.destination().index()]);
    }

    /// The shard owning session slot `slot`'s source task.
    pub(crate) fn source_shard(&self, slot: u32) -> usize {
        self.source_shard[slot as usize] as usize
    }

    /// The shard owning the task `target` names.
    ///
    /// # Panics
    ///
    /// Panics if the target's slot or link is out of range.
    pub(crate) fn owner(&self, target: Target) -> usize {
        let shard = match target {
            Target::Source(slot) => self.source_shard[slot as usize],
            Target::Destination(slot) => self.dest_shard[slot as usize],
            Target::Link { link, .. } => self.link_shard[link.index()],
        };
        shard as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bneck_net::synthetic;
    use bneck_net::{Capacity, Delay, NodeId};

    fn parking_lot() -> Network {
        synthetic::parking_lot(
            4,
            Capacity::from_mbps(100.0),
            Capacity::from_mbps(100.0),
            Delay::from_micros(10),
        )
    }

    fn shard_of(part: &WorldPartition, node: NodeId) -> u32 {
        part.node_shard[node.index()]
    }

    #[test]
    fn hosts_follow_their_router() {
        let net = parking_lot();
        let part = WorldPartition::new(&net, 2);
        for host in net.hosts() {
            let access = net.out_links(host.id())[0];
            let router = net.link(access).dst();
            assert_eq!(shard_of(&part, host.id()), shard_of(&part, router));
        }
    }

    #[test]
    fn router_blocks_are_contiguous_and_cover_all_shards() {
        let net = parking_lot();
        for shards in [1u32, 2, 3] {
            let part = WorldPartition::new(&net, shards as usize);
            let blocks: Vec<u32> = net.routers().map(|r| shard_of(&part, r.id())).collect();
            assert!(blocks.windows(2).all(|w| w[0] <= w[1]), "monotone blocks");
            assert_eq!(blocks.last().copied(), Some(shards - 1));
        }
    }

    #[test]
    fn only_router_links_cross() {
        let net = parking_lot();
        let part = WorldPartition::new(&net, 3);
        for link in net.links() {
            if shard_of(&part, link.src()) != shard_of(&part, link.dst()) {
                assert!(net.node(link.src()).kind().is_router());
                assert!(net.node(link.dst()).kind().is_router());
            }
        }
    }
}
