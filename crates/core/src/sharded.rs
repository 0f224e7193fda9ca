//! The sharded B-Neck simulation: the serial harness fanned out over the
//! conservative parallel engine.
//!
//! [`ShardedBneckSimulation`] runs the exact same protocol tasks as
//! [`BneckSimulation`](crate::harness::BneckSimulation), split across the
//! shards of a [`WorldPartition`]: each shard owns a block of routers plus
//! their attached hosts and runs the tasks living there on its own engine
//! thread, while [`bneck_sim::ShardedEngine`] merges cross-shard deliveries
//! back into the canonical `(time, key)` order. Reports — allocations,
//! quiescence times, event and packet counts — are bit-identical to the
//! serial harness at any shard count.
//!
//! # How replication works
//!
//! Every shard holds a full `BneckWorld` (channel table plus the task host:
//! task vectors, the session arena). Session registrations are applied to
//! *all* worlds in the same order — slot assignment is deterministic, so the replicas agree on
//! slots, paths and limits. Protocol messages, however, are only ever
//! delivered on the shard owning the receiving task, so task state evolves
//! on exactly one replica: reading a result (a notified rate, a packet
//! counter) means asking the owning shard, which is what the accessors here
//! do.
//!
//! # Restrictions
//!
//! - The recovery layer keeps central retransmission state and is rejected
//!   (`config.recovery` must be `None`).
//! - Recorders (packet logs, rate histories) would require a cross-shard
//!   merge of notification order and are rejected too; rate events are only
//!   available as one stream per shard
//!   ([`ShardedBneckSimulation::rate_events`]).
//! - A session identifier that rejoins must keep its source and destination
//!   hosts on the same shards (see [`WorldPartition::note_join`]).

use crate::config::BneckConfig;
use crate::events::RateEvents;
use crate::harness::{
    BneckWorld, Envelope, JoinError, Payload, QuiescenceReport, SessionHandle, UnknownSession,
};
use crate::host::{ApiCall, Target};
use crate::partition::WorldPartition;
use crate::stats::PacketStats;
use bneck_maxmin::{Allocation, RateLimit, SessionId, SessionSet};
use bneck_net::{Network, NodeId, Path, Router};
use bneck_sim::{Address, FaultPlan, ShardedEngine, SimTime};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A B-Neck simulation running on the conservative parallel engine.
///
/// Mirrors the [`crate::harness::BneckSimulation`] API (join/leave/change,
/// run to quiescence, allocation queries) and produces bit-identical results
/// at any shard count, including under an active [`FaultPlan`].
pub struct ShardedBneckSimulation<'a> {
    engine: ShardedEngine<Envelope>,
    worlds: Vec<BneckWorld>,
    partition: WorldPartition,
    network: &'a Network,
    router: Router<'a>,
    source_hosts: BTreeMap<NodeId, SessionId>,
}

impl fmt::Debug for ShardedBneckSimulation<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedBneckSimulation")
            .field("shards", &self.engine.shards())
            .field("now", &self.engine.now())
            .field("pending_events", &self.engine.pending_events())
            .finish()
    }
}

impl<'a> ShardedBneckSimulation<'a> {
    /// Creates a sharded simulation over `network` with `shards` shards.
    ///
    /// Every directed link is registered as a channel on every shard (in
    /// link order, so the channel tables — and therefore event keys — are
    /// identical across shards); only the owning shard ever transmits on a
    /// channel.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero, the network has no routers, or the
    /// configuration enables the recovery layer or a recorder (neither is
    /// supported in sharded mode).
    pub fn new(network: &'a Network, config: BneckConfig, shards: usize) -> Self {
        assert!(
            config.recovery.is_none(),
            "the recovery layer keeps central retransmission state and is not \
             supported by the sharded engine"
        );
        assert!(
            !config.record_packet_log && !config.record_rate_history,
            "recorders are not supported by the sharded engine"
        );
        let mut engine = ShardedEngine::new(shards);
        let worlds = (0..shards)
            .map(|k| BneckWorld::new(network, engine.shard_mut(k), config))
            .collect();
        ShardedBneckSimulation {
            engine,
            worlds,
            partition: WorldPartition::new(network, config.packet_bits, shards),
            network,
            router: Router::new(network),
            source_hosts: BTreeMap::new(),
        }
    }

    /// The number of shards.
    pub fn shards(&self) -> usize {
        self.engine.shards()
    }

    /// The network the simulation runs over.
    pub fn network(&self) -> &'a Network {
        self.network
    }

    /// `API.Join(s, r)` at time `at` along a shortest path (see
    /// [`crate::harness::BneckSimulation::join`]).
    ///
    /// # Errors
    ///
    /// Returns [`JoinError::NoPath`] if the hosts are not connected, plus the
    /// errors of [`ShardedBneckSimulation::join_with_path`].
    pub fn join(
        &mut self,
        at: SimTime,
        session: SessionId,
        source: NodeId,
        destination: NodeId,
        limit: RateLimit,
    ) -> Result<SessionHandle, JoinError> {
        let path = self
            .router
            .shortest_path(source, destination)
            .ok_or(JoinError::NoPath {
                source,
                destination,
            })?;
        self.join_with_path(at, session, path, limit)
    }

    /// `API.Join(s, r)` at time `at` along an explicit path. The session is
    /// registered on every shard; the API event is injected on the shard
    /// owning the source host.
    ///
    /// # Errors
    ///
    /// Returns [`JoinError::DuplicateSession`] if the identifier is already
    /// active or [`JoinError::SourceHostBusy`] if another active session
    /// starts at the path's source host.
    pub fn join_with_path(
        &mut self,
        at: SimTime,
        session: SessionId,
        path: Path,
        limit: RateLimit,
    ) -> Result<SessionHandle, JoinError> {
        if self.worlds[0].host.arena().is_active(session) {
            return Err(JoinError::DuplicateSession(session));
        }
        if let Some(existing) = self.source_hosts.get(&path.source()) {
            return Err(JoinError::SourceHostBusy {
                host: path.source(),
                existing: *existing,
            });
        }
        self.source_hosts.insert(path.source(), session);
        let mut slot = 0;
        for (k, world) in self.worlds.iter_mut().enumerate() {
            let assigned = world.host.register_session(session, path.clone(), limit);
            debug_assert!(
                k == 0 || assigned == slot,
                "replicated worlds must assign the same slot"
            );
            slot = assigned;
        }
        self.partition.note_join(slot, &path);
        self.engine.inject(
            self.partition.source_shard(slot),
            at,
            Address(0),
            Envelope {
                target: Target::Source(slot),
                payload: Payload::Api(ApiCall::Join { limit }),
            },
        );
        Ok(SessionHandle::new(session, slot))
    }

    /// `API.Leave(s)` at time `at`.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownSession`] if the session is not active.
    pub fn leave(&mut self, at: SimTime, session: SessionId) -> Result<(), UnknownSession> {
        let mut slot = None;
        for world in &mut self.worlds {
            slot = world.host.deregister_session(session);
        }
        let Some(slot) = slot else {
            return Err(UnknownSession(session));
        };
        self.source_hosts.retain(|_, s| *s != session);
        self.engine.inject(
            self.partition.source_shard(slot),
            at,
            Address(0),
            Envelope {
                target: Target::Source(slot),
                payload: Payload::Api(ApiCall::Leave),
            },
        );
        Ok(())
    }

    /// `API.Change(s, r)` at time `at`.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownSession`] if the session is not active.
    pub fn change(
        &mut self,
        at: SimTime,
        session: SessionId,
        limit: RateLimit,
    ) -> Result<(), UnknownSession> {
        let mut slot = None;
        for world in &mut self.worlds {
            slot = world.host.change_session(session, limit);
        }
        let Some(slot) = slot else {
            return Err(UnknownSession(session));
        };
        self.engine.inject(
            self.partition.source_shard(slot),
            at,
            Address(0),
            Envelope {
                target: Target::Source(slot),
                payload: Payload::Api(ApiCall::Change { limit }),
            },
        );
        Ok(())
    }

    /// Runs until every shard's queue is empty (quiescence).
    pub fn run_to_quiescence(&mut self) -> QuiescenceReport {
        self.run_until(SimTime::MAX)
    }

    /// Runs until `horizon` (inclusive) or quiescence, whichever comes first.
    pub fn run_until(&mut self, horizon: SimTime) -> QuiescenceReport {
        let report = self.engine.run(&mut self.worlds, &self.partition, horizon);
        report.into()
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// `true` when no protocol packet is pending or in flight on any shard.
    pub fn is_quiescent(&self) -> bool {
        self.engine.is_quiescent()
    }

    /// The identifiers of the currently active sessions.
    pub fn active_sessions(&self) -> impl Iterator<Item = SessionId> + '_ {
        self.worlds[0].host.arena().active_sessions()
    }

    /// The rates last notified through `API.Rate`, for active sessions.
    ///
    /// A slot's notified rate lives on the shard owning its source task, so
    /// the merge reads each slot from its owning world.
    pub fn allocation(&self) -> Allocation {
        self.worlds[0].host.arena().collect_rates(|slot| {
            let owner = self.partition.source_shard(slot);
            let rate = self.worlds[owner].host.notified_rate(slot);
            (!rate.is_nan()).then_some(rate)
        })
    }

    /// The active sessions as a [`SessionSet`], for the centralized oracle.
    pub fn session_set(&self) -> Arc<SessionSet> {
        self.worlds[0].host.arena().session_set()
    }

    /// Cumulative packet counts by kind, summed over all shards (each packet
    /// transmission is recorded by exactly one world).
    pub fn packet_stats(&self) -> PacketStats {
        let mut total = PacketStats::new();
        for world in &self.worlds {
            total += *world.host.stats();
        }
        total
    }

    /// Opens one drainable stream of [`crate::RateEvent`]s per shard. A
    /// session's events all come from the shard owning its source task, so
    /// each session's own order is the serial harness's; how sessions
    /// interleave within a shard's stream depends on the shard count.
    pub fn rate_events(&mut self) -> Vec<RateEvents> {
        let open = |world: &mut BneckWorld| {
            let (events, writer) = RateEvents::channel();
            world.host.subscribe(writer);
            events
        };
        self.worlds.iter_mut().map(open).collect()
    }

    /// Events processed per shard since construction (the load-balance
    /// diagnostic recorded in scale reports).
    pub fn shard_events(&self) -> Vec<u64> {
        self.engine.shard_events()
    }

    /// Installs the same fault plan on every shard. Fault decisions are
    /// keyed per channel and channels are owned by exactly one shard, so
    /// injected faults are identical at any shard count.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.engine.set_fault_plan(plan);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::BneckSimulation;
    use bneck_net::synthetic;
    use bneck_net::{Capacity, Delay};

    fn parking_lot() -> Network {
        synthetic::parking_lot(
            7,
            Capacity::from_mbps(100.0),
            Capacity::from_mbps(80.0),
            Delay::from_micros(25),
        )
    }

    /// Joins every adjacent host pair (plus one long session over the whole
    /// backbone), changes one limit mid-flight and removes one session.
    fn drive<J, L, C, R>(mut join: J, mut leave: L, mut change: C, run: R) -> QuiescenceReport
    where
        J: FnMut(SimTime, SessionId, NodeId, NodeId, RateLimit) -> bool,
        L: FnMut(SimTime, SessionId) -> bool,
        C: FnMut(SimTime, SessionId, RateLimit) -> bool,
        R: FnOnce() -> QuiescenceReport,
    {
        let net = parking_lot();
        let hosts: Vec<NodeId> = net.hosts().map(|h| h.id()).collect();
        let n = hosts.len();
        assert!(join(
            SimTime::ZERO,
            SessionId(0),
            hosts[0],
            hosts[n - 1],
            RateLimit::unlimited()
        ));
        for i in 1..n - 1 {
            let at = SimTime::from_micros(40 * i as u64);
            assert!(join(
                at,
                SessionId(i as u64),
                hosts[i],
                hosts[i + 1],
                RateLimit::unlimited()
            ));
        }
        assert!(change(
            SimTime::from_micros(700),
            SessionId(1),
            RateLimit::finite(9e6)
        ));
        assert!(leave(SimTime::from_micros(900), SessionId(2)));
        run()
    }

    fn serial_outcome(
        fault: Option<FaultPlan>,
    ) -> (QuiescenceReport, Allocation, PacketStats, u64) {
        let net = parking_lot();
        let mut sim = BneckSimulation::new(&net, BneckConfig::default());
        if let Some(plan) = fault {
            sim.set_fault_plan(plan);
        }
        let sim = std::cell::RefCell::new(sim);
        let report = drive(
            |at, s, src, dst, r| sim.borrow_mut().join(at, s, src, dst, r).is_ok(),
            |at, s| sim.borrow_mut().leave(at, s).is_ok(),
            |at, s, r| sim.borrow_mut().change(at, s, r).is_ok(),
            || sim.borrow_mut().run_to_quiescence(),
        );
        let sim = sim.into_inner();
        let stats = *sim.packet_stats();
        (report, sim.allocation(), stats, sim.now().as_nanos())
    }

    fn sharded_outcome(
        shards: usize,
        fault: Option<FaultPlan>,
    ) -> (QuiescenceReport, Allocation, PacketStats, u64) {
        let net = parking_lot();
        let mut sim = ShardedBneckSimulation::new(&net, BneckConfig::default(), shards);
        if let Some(plan) = fault {
            sim.set_fault_plan(plan);
        }
        let sim = std::cell::RefCell::new(sim);
        let report = drive(
            |at, s, src, dst, r| sim.borrow_mut().join(at, s, src, dst, r).is_ok(),
            |at, s| sim.borrow_mut().leave(at, s).is_ok(),
            |at, s, r| sim.borrow_mut().change(at, s, r).is_ok(),
            || sim.borrow_mut().run_to_quiescence(),
        );
        let sim = sim.into_inner();
        let stats = sim.packet_stats();
        (report, sim.allocation(), stats, sim.now().as_nanos())
    }

    #[test]
    fn sharded_matches_serial_at_every_shard_count() {
        let serial = serial_outcome(None);
        for shards in [1usize, 2, 3, 4, 8] {
            let sharded = sharded_outcome(shards, None);
            assert_eq!(serial.0, sharded.0, "report at {shards} shards");
            assert_eq!(serial.1, sharded.1, "allocation at {shards} shards");
            assert_eq!(serial.2, sharded.2, "packet stats at {shards} shards");
            assert_eq!(serial.3, sharded.3, "clock at {shards} shards");
        }
    }

    #[test]
    fn sharded_matches_serial_under_faults() {
        let plan = FaultPlan::new(1234, 0.05, 0.03, 0.1, 2);
        let serial = serial_outcome(Some(plan));
        assert!(serial.0.quiescent);
        for shards in [2usize, 4] {
            let sharded = sharded_outcome(shards, Some(plan));
            assert_eq!(serial.0, sharded.0, "report at {shards} shards");
            assert_eq!(serial.1, sharded.1, "allocation at {shards} shards");
            assert_eq!(serial.2, sharded.2, "packet stats at {shards} shards");
        }
    }

    #[test]
    fn more_shards_than_routers_still_matches() {
        let net = synthetic::dumbbell(
            3,
            Capacity::from_mbps(100.0),
            Capacity::from_mbps(60.0),
            Delay::from_micros(10),
        );
        let hosts: Vec<NodeId> = net.hosts().map(|h| h.id()).collect();
        let mut serial = BneckSimulation::new(&net, BneckConfig::default());
        // Four shards over two routers leaves two shards empty; they idle
        // without stalling the horizon exchange.
        let mut sharded = ShardedBneckSimulation::new(&net, BneckConfig::default(), 4);
        for i in 0..3 {
            let (src, dst) = (hosts[2 * i], hosts[2 * i + 1]);
            let s = SessionId(i as u64);
            serial
                .join(SimTime::ZERO, s, src, dst, RateLimit::unlimited())
                .unwrap();
            sharded
                .join(SimTime::ZERO, s, src, dst, RateLimit::unlimited())
                .unwrap();
        }
        let a = serial.run_to_quiescence();
        let b = sharded.run_to_quiescence();
        assert_eq!(a, b);
        assert_eq!(serial.allocation(), sharded.allocation());
        assert_eq!(
            sharded.shard_events().iter().sum::<u64>(),
            b.events_processed
        );
    }

    #[test]
    fn sharded_rejects_unsupported_configs() {
        let net = parking_lot();
        let recovery = BneckConfig::default().with_recovery(Delay::from_micros(500));
        assert!(std::panic::catch_unwind(|| {
            ShardedBneckSimulation::new(&net, recovery, 2);
        })
        .is_err());
        let recording = BneckConfig::default().with_packet_log();
        assert!(std::panic::catch_unwind(|| {
            ShardedBneckSimulation::new(&net, recording, 2);
        })
        .is_err());
    }

    #[test]
    fn duplicate_and_unknown_sessions_are_rejected() {
        let net = parking_lot();
        let hosts: Vec<NodeId> = net.hosts().map(|h| h.id()).collect();
        let mut sim = ShardedBneckSimulation::new(&net, BneckConfig::default(), 2);
        sim.join(
            SimTime::ZERO,
            SessionId(7),
            hosts[0],
            hosts[1],
            RateLimit::unlimited(),
        )
        .unwrap();
        assert_eq!(
            sim.join(
                SimTime::ZERO,
                SessionId(7),
                hosts[2],
                hosts[3],
                RateLimit::unlimited()
            ),
            Err(JoinError::DuplicateSession(SessionId(7)))
        );
        assert_eq!(
            sim.join(
                SimTime::ZERO,
                SessionId(8),
                hosts[0],
                hosts[2],
                RateLimit::unlimited()
            ),
            Err(JoinError::SourceHostBusy {
                host: hosts[0],
                existing: SessionId(7),
            })
        );
        assert_eq!(
            sim.leave(SimTime::ZERO, SessionId(9)),
            Err(UnknownSession(SessionId(9)))
        );
        assert_eq!(
            sim.change(SimTime::ZERO, SessionId(9), RateLimit::finite(1e6)),
            Err(UnknownSession(SessionId(9)))
        );
        let report = sim.run_to_quiescence();
        assert!(report.quiescent);
        assert_eq!(sim.active_sessions().collect::<Vec<_>>(), [SessionId(7)]);
    }
}
