//! Topology-aware world partitioning for the conservative parallel engine.
//!
//! The sharded engine ([`bneck_sim::ShardedEngine`]) needs two things from
//! the protocol layer: a map from every deliverable message to the shard
//! owning its receiving task, and a lookahead bound — the minimum delay any
//! message needs to cross from one shard to another. [`WorldPartition`]
//! derives both from the network topology:
//!
//! - **Routers** are split into contiguous blocks by identifier rank, so
//!   shard boundaries follow the generators' locality (transit–stub
//!   topologies allocate stub domains contiguously).
//! - **Hosts** inherit the shard of the router they attach to, which makes
//!   every host access link shard-internal: only router–router links ever
//!   cross shards.
//! - **Tasks** follow their node: the `RouterLink` task of link `e` runs on
//!   the shard of `src(e)` (every sender into `e`'s channel lives there, so
//!   channel FIFO state has a single owner), and a session's source and
//!   destination tasks run on the shards of their hosts.
//!
//! The lookahead between two shards is the minimum packet flight time
//! (transmission plus propagation) over the links crossing them — exactly
//! the paper topology's real propagation delays, which is what makes a
//! conservative scheme profitable here.

use crate::harness::Envelope;
use crate::host::Target;
use bneck_net::{Network, NodeId, Path};
use bneck_sim::{Address, ChannelSpec, Partition};

/// A router-rank partition of a network plus the per-session-slot task
/// placement, implementing [`Partition`] for the B-Neck harness envelopes.
///
/// Built once per run; [`WorldPartition::note_join`] must be called for every
/// session registration (in the same order on which slots are assigned) so
/// API injections and stray in-flight packets route to the right shard.
#[derive(Debug, Clone)]
pub struct WorldPartition {
    shards: usize,
    /// Shard of every node (router or host), indexed by `NodeId`.
    node_shard: Vec<u32>,
    /// Shard of every link's `RouterLink` task (= shard of the link's source
    /// node), indexed by `LinkId`.
    link_shard: Vec<u32>,
    /// Shard of each session slot's source task (the slot's source host).
    source_shard: Vec<u32>,
    /// Shard of each session slot's destination task.
    dest_shard: Vec<u32>,
    /// Minimum cross-shard flight time in nanoseconds, row-major
    /// `[from * shards + to]`; `None` when no link crosses that pair.
    lookahead: Vec<Option<u64>>,
}

impl WorldPartition {
    /// Partitions `network` into `shards` router blocks.
    ///
    /// `packet_bits` must match the simulation's
    /// [`crate::config::BneckConfig::packet_bits`], since per-link
    /// transmission time is part of the lookahead.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or the network has no routers.
    pub fn new(network: &Network, packet_bits: u64, shards: usize) -> Self {
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
        let link_shard: Vec<u32> = network
            .links()
            .map(|l| node_shard[l.src().index()])
            .collect();
        let mut lookahead = vec![None; shards * shards];
        for link in network.links() {
            let from = node_shard[link.src().index()] as usize;
            let to = node_shard[link.dst().index()] as usize;
            if from == to {
                continue;
            }
            let spec = ChannelSpec::new(link.capacity().as_bps(), link.delay(), packet_bits);
            let flight = spec.transmission_delay().as_nanos() + link.delay().as_nanos();
            let cell = &mut lookahead[from * shards + to];
            *cell = Some(cell.map_or(flight, |prev: u64| prev.min(flight)));
        }
        WorldPartition {
            shards,
            node_shard,
            link_shard,
            source_shard: Vec::new(),
            dest_shard: Vec::new(),
            lookahead,
        }
    }

    /// Records the task placement of a freshly registered session slot.
    ///
    /// Must be called with the slot returned by the world's registration, in
    /// registration order (slots are assigned densely and reused).
    ///
    /// # Panics
    ///
    /// Panics if a reused slot's source or destination host moves to a
    /// different shard: packets of the previous incarnation may still be in
    /// flight, and they must keep routing to the shard that owns the slot's
    /// tasks.
    pub fn note_join(&mut self, slot: u32, path: &Path) {
        let src = self.node_shard[path.source().index()];
        let dst = self.node_shard[path.destination().index()];
        let i = slot as usize;
        if i < self.source_shard.len() {
            assert!(
                self.source_shard[i] == src && self.dest_shard[i] == dst,
                "sharded runs require a rejoining slot to keep its source and \
                 destination hosts on the same shards"
            );
        } else {
            debug_assert_eq!(i, self.source_shard.len(), "slots are assigned densely");
            self.source_shard.push(src);
            self.dest_shard.push(dst);
        }
    }

    /// The shard owning a node's tasks.
    pub fn node_shard(&self, node: NodeId) -> usize {
        self.node_shard[node.index()] as usize
    }

    /// The shard owning session slot `slot`'s source task.
    pub fn source_shard(&self, slot: u32) -> usize {
        self.source_shard[slot as usize] as usize
    }

    /// The shard owning the task `target` names.
    ///
    /// # Panics
    ///
    /// Panics if the target's slot or link is out of range.
    pub fn owner(&self, target: Target) -> usize {
        let shard = match target {
            Target::Source(slot) => self.source_shard[slot as usize],
            Target::Destination(slot) => self.dest_shard[slot as usize],
            Target::Link { link, .. } => self.link_shard[link.index()],
        };
        shard as usize
    }

    /// Number of shards of this partition.
    pub fn shard_count(&self) -> usize {
        self.shards
    }
}

impl Partition<Envelope> for WorldPartition {
    fn shards(&self) -> usize {
        self.shards
    }

    fn shard_of(&self, _to: Address, msg: &Envelope) -> usize {
        self.owner(msg.target)
    }

    fn lookahead_ns(&self, from: usize, to: usize) -> Option<u64> {
        self.lookahead[from * self.shards + to]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bneck_net::synthetic;
    use bneck_net::{Capacity, Delay};

    fn parking_lot() -> Network {
        synthetic::parking_lot(
            4,
            Capacity::from_mbps(100.0),
            Capacity::from_mbps(100.0),
            Delay::from_micros(10),
        )
    }

    #[test]
    fn hosts_follow_their_router() {
        let net = parking_lot();
        let part = WorldPartition::new(&net, 256, 2);
        for host in net.hosts() {
            let access = net.out_links(host.id())[0];
            let router = net.link(access).dst();
            assert_eq!(part.node_shard(host.id()), part.node_shard(router));
        }
    }

    #[test]
    fn router_blocks_are_contiguous_and_cover_all_shards() {
        let net = parking_lot();
        for shards in [1usize, 2, 3] {
            let part = WorldPartition::new(&net, 256, shards);
            let blocks: Vec<usize> = net.routers().map(|r| part.node_shard(r.id())).collect();
            assert!(blocks.windows(2).all(|w| w[0] <= w[1]), "monotone blocks");
            assert_eq!(blocks.last().copied(), Some(shards - 1));
        }
    }

    #[test]
    fn only_router_links_cross_and_lookahead_is_positive() {
        let net = parking_lot();
        let part = WorldPartition::new(&net, 256, 3);
        for link in net.links() {
            let from = part.node_shard(link.src());
            let to = part.node_shard(link.dst());
            if from != to {
                assert!(net.node(link.src()).kind().is_router());
                assert!(net.node(link.dst()).kind().is_router());
                let look = part.lookahead_ns(from, to).expect("crossing pair");
                assert!(look >= link.delay().as_nanos());
            }
        }
    }

    #[test]
    #[should_panic(expected = "same shards")]
    fn rejoin_must_keep_its_shards() {
        let net = parking_lot();
        let hosts: Vec<_> = net.hosts().map(|h| h.id()).collect();
        let mut part = WorldPartition::new(&net, 256, 3);
        let forward = net.shortest_path(hosts[0], hosts[1]).unwrap();
        let other = net.shortest_path(*hosts.last().unwrap(), hosts[0]).unwrap();
        part.note_join(0, &forward);
        assert_eq!(part.source_shard(0), part.node_shard(hosts[0]));
        part.note_join(0, &other);
    }
}
