//! The simulation harness: runs the B-Neck tasks over a network on the
//! discrete-event engine.
//!
//! The tasks themselves — one [`RouterLink`] per directed link, one
//! [`SourceNode`] and one `DestinationNode` per session — the session slots
//! and all routing between tasks live in the host-independent [`TaskHost`].
//! The harness is its simulator adapter: a [`Sink`] that forwards every
//! packet the handlers emit over the network's links, each modelled as a
//! simulator channel with the link's bandwidth and propagation delay (with
//! recovery on, inside a sequenced frame, with one engine wake-up armed for
//! the earliest retransmission deadline), plus the workload-facing
//! `API.Join` / `API.Leave` / `API.Change`.
//!
//! Quiescence detection is inherited from the simulator: the network is
//! quiescent exactly when no protocol packet is in flight or pending, which is
//! when [`BneckSimulation::run_to_quiescence`] returns. A fully-built
//! [`BneckSimulation`] is `Send`, so the experiment drivers can fan it out
//! across worker threads.

#![cfg_attr(not(test), warn(clippy::wildcard_enum_match_arm))]

use crate::config::BneckConfig;
use crate::events::{RateEvents, Subscriber};
use crate::host::{ApiCall, Sink, Target, TaskHost};
use crate::packet::Packet;
use crate::recovery::{RecoveryState, RecoveryStats};
use crate::router_link::RouterLink;
use crate::source::SourceNode;
use crate::stats::PacketStats;
use crate::world::add_link_channels;
use bneck_maxmin::{Allocation, Rate, RateLimit, SessionId, SessionSet, Tolerance};
use bneck_net::{LinkId, Network, NodeId, Path, Router};
use bneck_sim::{
    Address, ChannelId, Context, Engine, FaultCounters, FaultPlan, RunReport, ScheduleCursor,
    SimTime, World,
};
use std::collections::BTreeMap;
use std::fmt;

/// A simulated message: an API call or a protocol packet, with its target.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Envelope {
    target: Target,
    payload: Payload,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Payload {
    Api(ApiCall),
    Protocol(Packet),
    /// A protocol packet framed by the recovery layer: sequenced per
    /// `(session, link)` lane, acknowledged and retransmitted (see
    /// [`crate::recovery`]). Only constructed when
    /// [`BneckConfig::recovery`] is set.
    Data {
        /// The directed link the frame travels over (the lane's link half).
        link: LinkId,
        /// Per-lane sequence number.
        seq: u32,
        packet: Packet,
    },
    /// Receiver → sender acknowledgement of a [`Payload::Data`] frame.
    /// Travels over the lane's reverse channel and is itself subject to
    /// channel faults.
    Ack {
        session: SessionId,
        link: LinkId,
        seq: u32,
    },
    /// The recovery layer's one timer, scheduled outside the channels
    /// (timers are never dropped or reordered) for the earliest deadline of
    /// an unacked frame: resends what is due, then re-arms or lapses.
    WakeUp,
}

/// Error returned when `API.Join` cannot create a session.
///
/// This enum is join-specific: `API.Leave` and `API.Change` can only fail
/// with [`UnknownSession`], which is its own type — callers match exactly the
/// failures an operation can produce instead of a shared catch-all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JoinError {
    /// No path exists between the requested source and destination: they
    /// are the same host, not connected, or one of them is not a host.
    NoPath {
        /// The requested source host.
        source: NodeId,
        /// The requested destination host.
        destination: NodeId,
    },
    /// A session with the same identifier is already active.
    DuplicateSession(SessionId),
    /// Another active session already starts at the requested source host.
    ///
    /// The paper's system model assumes every host is the source of at most
    /// one session (Section II: "this limitation is just for the sake of
    /// simplicity"); the `SourceNode` task owns the host's access link, so two
    /// sessions sharing a source host would silently over-commit that link.
    SourceHostBusy {
        /// The contended source host.
        host: NodeId,
        /// The session already using it.
        existing: SessionId,
    },
}

impl fmt::Display for JoinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JoinError::NoPath {
                source,
                destination,
            } => write!(f, "no path from {source} to {destination}"),
            JoinError::DuplicateSession(s) => write!(f, "session {s} is already active"),
            JoinError::SourceHostBusy { host, existing } => write!(
                f,
                "host {host} is already the source of active session {existing}"
            ),
        }
    }
}

impl std::error::Error for JoinError {}

/// Error returned by `API.Leave` and `API.Change`: the session is not active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnknownSession(pub SessionId);

impl fmt::Display for UnknownSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "session {} is not active", self.0)
    }
}

impl std::error::Error for UnknownSession {}

/// Summary of a run to quiescence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuiescenceReport {
    /// Whether the run actually reached quiescence (always `true` for
    /// [`BneckSimulation::run_to_quiescence`], may be `false` for horizon
    /// limited runs).
    pub quiescent: bool,
    /// Time of the last processed protocol event.
    pub quiescent_at: SimTime,
    /// Events processed during the run.
    pub events_processed: u64,
    /// Packets transmitted over links during the run.
    pub packets_sent: u64,
}

impl From<RunReport> for QuiescenceReport {
    fn from(report: RunReport) -> Self {
        QuiescenceReport {
            quiescent: report.quiescent,
            quiescent_at: report.quiescent_at,
            events_processed: report.events_processed,
            packets_sent: report.messages_sent,
        }
    }
}

/// The simulation world: the task host plus the simulator-side delivery
/// state (the recovery lanes).
struct BneckWorld {
    host: TaskHost,
    /// The recovery layer's sequencing/retransmission state, present only
    /// when [`BneckConfig::recovery`] is set. Boxed so paper-mode worlds pay
    /// one pointer, and the hot paths pay one null check.
    recovery: Option<Box<RecoveryState>>,
    /// Whether the engine holds the recovery layer's wake-up.
    armed: bool,
}

/// The simulator's delivery: every transmission goes out on the channel of
/// the link it travels over.
struct ChannelSink<'a, 'c> {
    ctx: &'a mut Context<'c, Envelope>,
    recovery: Option<&'a mut RecoveryState>,
    armed: &'a mut bool,
}

impl Sink for ChannelSink<'_, '_> {
    fn now(&self) -> SimTime {
        self.ctx.now()
    }

    fn transmit(&mut self, over: LinkId, to: Target, packet: Packet) {
        if let Some(recovery) = self.recovery.as_deref_mut() {
            let seq = recovery.frame(self.ctx.now(), over, to, packet);
            self.send_frame(over, to, seq, packet);
            return self.arm_wake_up();
        }
        self.ctx.send(
            ChannelId(over.0),
            Address(0),
            Envelope {
                target: to,
                payload: Payload::Protocol(packet),
            },
        );
    }
}

impl ChannelSink<'_, '_> {
    /// Sends (or resends) recovery frame `seq` of lane `(packet.session(), link)`.
    #[cold]
    #[inline(never)]
    fn send_frame(&mut self, link: LinkId, target: Target, seq: u32, packet: Packet) {
        let payload = Payload::Data { link, seq, packet };
        let envelope = Envelope { target, payload };
        self.ctx.send(ChannelId(link.0), Address(0), envelope);
    }

    /// Keeps one wake-up in the engine while a frame awaits its ack, at the
    /// earliest such deadline: an empty event queue still means nothing is
    /// unacked, for one timer event per RTO or loss instead of one per frame.
    fn arm_wake_up(&mut self) {
        let lanes = self.recovery.as_deref_mut().filter(|_| !*self.armed);
        if let Some(due) = lanes.and_then(RecoveryState::next_deadline) {
            *self.armed = true;
            let (target, payload) = (Target::Source(u32::MAX), Payload::WakeUp);
            let (delay, wake_up) = (due - self.ctx.now(), Envelope { target, payload });
            self.ctx.schedule_after(delay, Address(0), wake_up);
        }
    }

    /// Handles the recovery layer's own messages: data frames (ack, then
    /// deliver in order / buffer / drop duplicates), acknowledgements, and
    /// the retransmission wake-up.
    #[cold]
    #[inline(never)]
    fn handle_recovery(&mut self, host: &mut TaskHost, envelope: Envelope) {
        let recovery = self
            .recovery
            .as_deref_mut()
            .expect("recovery messages only exist when recovery is configured");
        match envelope.payload {
            Payload::Data { link, seq, packet } => {
                let session = packet.session();
                // The ack rides the same faulty substrate as data, over the
                // lane's reverse channel; a lost ack is repaired by the
                // sender's retransmission (which is then re-acked as a
                // duplicate). Acks are consumed here, never routed to a
                // task, so their target is a placeholder.
                self.ctx.send(
                    ChannelId(link.reverse().0),
                    Address(0),
                    Envelope {
                        target: Target::Source(u32::MAX),
                        payload: Payload::Ack { session, link, seq },
                    },
                );
                let mut next = recovery.receive(link, seq, envelope.target, packet);
                while let Some((lane, to, packet)) = next {
                    host.deliver(to, packet, self);
                    let recovery = self.recovery.as_deref_mut().expect("checked above");
                    next = recovery.release(lane);
                }
            }
            Payload::Ack { session, link, seq } => {
                recovery.acked(session, link, seq);
            }
            Payload::WakeUp => {
                // Frames acked in the meantime are not due; a wake-up that
                // finds none at all is the RTO tail that delays quiescence.
                *self.armed = false;
                let now = self.ctx.now();
                let due = |sink: &mut Self| sink.recovery.as_deref_mut()?.due(now);
                while let Some((seq, frame)) = due(self) {
                    self.send_frame(frame.over, frame.target, seq, frame.packet);
                }
                self.arm_wake_up();
            }
            Payload::Api(_) | Payload::Protocol(_) => unreachable!("routed by handle"),
        }
    }
}

impl BneckWorld {
    /// Builds a world over `network`, registering every directed link as a
    /// channel on `engine`. Channels are registered in link order, so channel
    /// identifiers equal link identifiers.
    fn new(network: &Network, engine: &mut Engine<Envelope>, config: BneckConfig) -> Self {
        add_link_channels(network, engine);
        let recovery = |rto| Box::new(RecoveryState::new(rto, network.link_count()));
        BneckWorld {
            host: TaskHost::new(TaskHost::link_capacities(network), Tolerance::default()),
            recovery: config.recovery.map(recovery),
            armed: false,
        }
    }
}

impl World for BneckWorld {
    type Message = Envelope;

    fn handle(&mut self, ctx: &mut Context<'_, Envelope>, _to: Address, msg: Envelope) {
        let mut sink = ChannelSink {
            ctx,
            recovery: self.recovery.as_deref_mut(),
            armed: &mut self.armed,
        };
        match msg.payload {
            Payload::Protocol(packet) => self.host.deliver(msg.target, packet, &mut sink),
            Payload::Api(call) => {
                // API calls are only ever addressed to sources.
                if let Target::Source(slot) = msg.target {
                    self.host.api(slot, call, &mut sink)
                }
            }
            // Recovery frames, acks and the wake-up are handled by the
            // adapter itself, off the protocol hot path.
            Payload::Data { .. } | Payload::Ack { .. } | Payload::WakeUp => {
                sink.handle_recovery(&mut self.host, msg)
            }
        }
    }
}

/// A complete B-Neck simulation over a network.
///
/// See the crate-level documentation for an end-to-end example.
pub struct BneckSimulation<'a> {
    engine: Engine<Envelope>,
    world: BneckWorld,
    network: &'a Network,
    router: Router<'a>,
    source_hosts: BTreeMap<NodeId, SessionId>,
}

impl<'a> fmt::Debug for BneckSimulation<'a> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BneckSimulation")
            .field("now", &self.engine.now())
            .field("active_sessions", &self.world.host.arena().active_count())
            .field("pending_events", &self.engine.pending_events())
            .finish()
    }
}

impl<'a> BneckSimulation<'a> {
    /// Creates a simulation over `network` with the given configuration.
    ///
    /// Every directed link of the network is registered as a simulator channel
    /// with the link's bandwidth and propagation delay.
    pub fn new(network: &'a Network, config: BneckConfig) -> Self {
        let mut engine = Engine::new();
        let world = BneckWorld::new(network, &mut engine, config);
        BneckSimulation {
            engine,
            world,
            network,
            router: Router::new(network),
            source_hosts: BTreeMap::new(),
        }
    }

    /// Registers an observer of this simulation: it sees every `API.Rate`
    /// notification (as a [`RateEvent`](crate::RateEvent)) and — when it opts
    /// in — every transmitted packet. Closures `FnMut(&RateEvent)` are
    /// subscribers.
    pub fn subscribe<S: Subscriber + 'static>(&mut self, subscriber: S) {
        self.world.host.subscribe(Box::new(subscriber));
    }

    /// Opens a drainable stream of this simulation's
    /// [`RateEvent`](crate::RateEvent)s.
    ///
    /// Each call opens an independent stream (events from registration
    /// onward). Once the network is quiescent the stream goes silent: a drain
    /// returns the convergence's events, and running further adds nothing.
    pub fn rate_events(&mut self) -> RateEvents {
        let (events, writer) = RateEvents::channel();
        self.world.host.subscribe(writer);
        events
    }

    /// `true` if `host` is currently the source of an active session (and thus
    /// cannot start another one, per the paper's one-session-per-source-host
    /// model).
    pub fn is_source_host_busy(&self, host: NodeId) -> bool {
        self.source_hosts.contains_key(&host)
    }

    /// The network the simulation runs over.
    pub fn network(&self) -> &'a Network {
        self.network
    }

    /// `API.Join(s, r)` at time `at`, routing the session along a shortest
    /// path from `source` to `destination`.
    ///
    /// # Errors
    ///
    /// Returns [`JoinError::NoPath`] if the endpoints are not two connected
    /// hosts and
    /// [`JoinError::DuplicateSession`] if the identifier is already in use.
    pub fn join(
        &mut self,
        at: SimTime,
        session: SessionId,
        source: NodeId,
        destination: NodeId,
        limit: RateLimit,
    ) -> Result<(), JoinError> {
        let path = self
            .router
            .shortest_path(source, destination)
            .ok_or(JoinError::NoPath {
                source,
                destination,
            })?;
        self.join_with_path(at, session, path, limit)
    }

    /// `API.Join(s, r)` at time `at` along an explicit path.
    ///
    /// # Errors
    ///
    /// Returns [`JoinError::DuplicateSession`] if the identifier is already in
    /// use by an active session, or [`JoinError::SourceHostBusy`] if another
    /// active session already starts at the path's source host.
    pub fn join_with_path(
        &mut self,
        at: SimTime,
        session: SessionId,
        path: Path,
        limit: RateLimit,
    ) -> Result<(), JoinError> {
        if self.world.host.arena().is_active(session) {
            return Err(JoinError::DuplicateSession(session));
        }
        if let Some(existing) = self.source_hosts.get(&path.source()) {
            return Err(JoinError::SourceHostBusy {
                host: path.source(),
                existing: *existing,
            });
        }
        self.source_hosts.insert(path.source(), session);
        let slot = self.world.host.register_session(session, path, limit);
        self.engine.inject(
            at,
            Address(0),
            Envelope {
                target: Target::Source(slot),
                payload: Payload::Api(ApiCall::Join { limit }),
            },
        );
        Ok(())
    }

    /// `API.Leave(s)` at time `at`. Subscribers receive a
    /// [`RateCause::Left`](crate::RateCause::Left) event when the departure
    /// is processed.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownSession`] if the session is not active.
    pub fn leave(&mut self, at: SimTime, session: SessionId) -> Result<(), UnknownSession> {
        let Some(slot) = self.world.host.deregister_session(session) else {
            return Err(UnknownSession(session));
        };
        let host = self.world.host.arena().path(slot).source();
        self.source_hosts.remove(&host);
        self.engine.inject(
            at,
            Address(0),
            Envelope {
                target: Target::Source(slot),
                payload: Payload::Api(ApiCall::Leave),
            },
        );
        Ok(())
    }

    /// `API.Change(s, r)` at time `at`. The next `API.Rate` delivered to the
    /// session carries [`RateCause::Changed`](crate::RateCause::Changed).
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
        let Some(slot) = self.world.host.change_session(session, limit) else {
            return Err(UnknownSession(session));
        };
        self.engine.inject(
            at,
            Address(0),
            Envelope {
                target: Target::Source(slot),
                payload: Payload::Api(ApiCall::Change { limit }),
            },
        );
        Ok(())
    }

    /// Runs the simulation until no protocol event remains (quiescence).
    pub fn run_to_quiescence(&mut self) -> QuiescenceReport {
        self.engine.run(&mut self.world).into()
    }

    /// Runs the simulation until `horizon` (inclusive) or quiescence,
    /// whichever comes first.
    pub fn run_until(&mut self, horizon: SimTime) -> QuiescenceReport {
        self.engine.run_until(&mut self.world, horizon).into()
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// `true` when no protocol packet is pending or in flight.
    pub fn is_quiescent(&self) -> bool {
        self.engine.is_quiescent()
    }

    /// The identifiers of the currently active sessions.
    pub fn active_sessions(&self) -> impl Iterator<Item = SessionId> + '_ {
        self.world.host.arena().active_sessions()
    }

    /// The rates last notified through `API.Rate`, for active sessions.
    ///
    /// After [`BneckSimulation::run_to_quiescence`] in a steady state, this is
    /// the max-min fair allocation (Theorem 1 of the paper).
    pub fn allocation(&self) -> Allocation {
        self.world.host.arena().collect_rates(|slot| {
            let rate = self.world.host.notified_rate(slot);
            (!rate.is_nan()).then_some(rate)
        })
    }

    /// The rate currently assigned to a session at its source (B-Neck's
    /// transient rate before convergence), or `None` for unknown sessions.
    pub fn current_rate(&self, session: SessionId) -> Option<Rate> {
        Some(self.source_task(session)?.current_rate())
    }

    /// The transient rates of all active sessions.
    pub fn current_rates(&self) -> Allocation {
        let host = &self.world.host;
        host.arena()
            .collect_rates(|slot| Some(host.source(slot)?.current_rate()))
    }

    /// The active sessions as a [`SessionSet`] (paths plus requested limits),
    /// suitable for feeding the centralized oracle.
    pub fn session_set(&self) -> SessionSet {
        self.world.host.arena().session_set()
    }

    /// Cumulative packet counts by kind.
    pub fn packet_stats(&self) -> &PacketStats {
        self.world.host.stats()
    }

    /// `true` when every router-link task satisfies the per-link stability
    /// conditions of Definition 2. Together with [`Self::is_quiescent`], this
    /// is the paper's notion of a stable network.
    pub fn links_stable(&self) -> bool {
        self.world.host.link_tasks().all(|rl| rl.is_stable())
    }

    /// The `RouterLink` task of a link, if any session ever crossed it.
    ///
    /// Mainly useful for tests and debugging tools that want to inspect the
    /// per-link protocol state (`R_e`, `F_e`, `μ`, `λ`, `B_e`).
    pub fn link_task(&self, link: LinkId) -> Option<&RouterLink> {
        self.world.host.link_task(link)
    }

    /// The `SourceNode` task of a session, if the session ever joined.
    pub(crate) fn source_task(&self, session: SessionId) -> Option<&SourceNode> {
        let host = &self.world.host;
        host.source(host.arena().slot_of(session)?)
    }

    /// The path a session was routed along, if the session ever joined.
    pub fn session_path(&self, session: SessionId) -> Option<&Path> {
        self.world.host.arena().path_of(session)
    }

    /// Injects channel faults (drops, duplicates, reorder jitter) into every
    /// link of this simulation, per `plan`. Deterministic: the same
    /// `(plan, workload)` always produces the same run. Protocol timers and
    /// API calls are never perturbed — only link traffic is.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.engine.set_fault_plan(plan);
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.engine.fault_plan()
    }

    /// Total faults injected so far, summed over all channels.
    pub fn fault_totals(&self) -> FaultCounters {
        self.engine.fault_totals()
    }

    /// Per-channel injected-fault counters (channels with at least one fault).
    pub fn fault_breakdown(&self) -> Vec<(ChannelId, FaultCounters)> {
        self.engine.fault_breakdown()
    }

    /// The recovery layer's work counters, or `None` in paper mode
    /// ([`BneckConfig::recovery`] unset).
    pub fn recovery_stats(&self) -> Option<RecoveryStats> {
        self.world.recovery.as_ref().map(|r| r.stats)
    }

    /// Sent recovery frames not yet acknowledged (0 in paper mode, and 0
    /// again once a recovered run reaches quiescence).
    pub fn unacked_frames(&self) -> usize {
        self.world
            .recovery
            .as_ref()
            .map_or(0, |r| r.unacked_frames())
    }

    /// Processes the next event group, but lets `cursor` choose which
    /// same-instant event is delivered first (see
    /// [`bneck_sim::explore_schedules`]). Returns `false` once the queue is
    /// empty.
    pub fn step_explored(&mut self, cursor: &mut ScheduleCursor) -> bool {
        self.engine.step_explored(&mut self.world, cursor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::testing::PacketLog;
    use crate::events::{RateCause, RateEvent};
    use bneck_maxmin::prelude::*;
    use bneck_net::prelude::*;

    fn mbps(x: f64) -> Capacity {
        Capacity::from_mbps(x)
    }
    fn us(x: u64) -> Delay {
        Delay::from_micros(x)
    }

    fn oracle(sim: &BneckSimulation<'_>) -> Allocation {
        let sessions = sim.session_set();
        CentralizedBneck::new(sim.network(), &sessions).solve()
    }

    fn assert_matches_oracle(sim: &BneckSimulation<'_>) {
        let sessions = sim.session_set();
        let expected = CentralizedBneck::new(sim.network(), &sessions).solve();
        let got = sim.allocation();
        let tol = Tolerance::new(1e-6, 1.0);
        if let Err(violations) = compare_allocations(&sessions, &got, &expected, tol) {
            panic!(
                "distributed allocation disagrees with the centralized oracle: {:?}\n got: {:?}\n expected: {:?}",
                violations, got, expected
            );
        }
    }

    #[test]
    fn single_session_gets_the_path_minimum() {
        let net = synthetic::line(3, mbps(100.0), mbps(40.0), us(1));
        let hosts: Vec<_> = net.hosts().map(|h| h.id()).collect();
        let mut sim = BneckSimulation::new(&net, BneckConfig::default());
        sim.join(
            SimTime::ZERO,
            SessionId(0),
            hosts[0],
            hosts[2],
            RateLimit::unlimited(),
        )
        .unwrap();
        let report = sim.run_to_quiescence();
        assert!(report.quiescent);
        assert!(report.packets_sent > 0);
        let rate = sim.allocation().rate(SessionId(0)).unwrap();
        assert!((rate - 40e6).abs() < 1.0);
        assert_matches_oracle(&sim);
        assert!(sim.links_stable());
    }

    #[test]
    fn two_sessions_share_a_bottleneck() {
        let net = synthetic::dumbbell(2, mbps(100.0), mbps(60.0), us(1));
        let hosts: Vec<_> = net.hosts().map(|h| h.id()).collect();
        let mut sim = BneckSimulation::new(&net, BneckConfig::default());
        for i in 0..2u64 {
            sim.join(
                SimTime::ZERO,
                SessionId(i),
                hosts[2 * i as usize],
                hosts[2 * i as usize + 1],
                RateLimit::unlimited(),
            )
            .unwrap();
        }
        sim.run_to_quiescence();
        assert_matches_oracle(&sim);
        let alloc = sim.allocation();
        assert!((alloc.rate(SessionId(0)).unwrap() - 30e6).abs() < 1.0);
        assert!((alloc.rate(SessionId(1)).unwrap() - 30e6).abs() < 1.0);
    }

    #[test]
    fn rate_limited_session_releases_bandwidth() {
        let net = synthetic::dumbbell(3, mbps(100.0), mbps(90.0), us(1));
        let hosts: Vec<_> = net.hosts().map(|h| h.id()).collect();
        let mut sim = BneckSimulation::new(&net, BneckConfig::default());
        sim.join(
            SimTime::ZERO,
            SessionId(0),
            hosts[0],
            hosts[1],
            RateLimit::finite(10e6),
        )
        .unwrap();
        for i in 1..3u64 {
            sim.join(
                SimTime::ZERO,
                SessionId(i),
                hosts[2 * i as usize],
                hosts[2 * i as usize + 1],
                RateLimit::unlimited(),
            )
            .unwrap();
        }
        sim.run_to_quiescence();
        assert_matches_oracle(&sim);
        let alloc = sim.allocation();
        assert!((alloc.rate(SessionId(0)).unwrap() - 10e6).abs() < 1.0);
        assert!((alloc.rate(SessionId(1)).unwrap() - 40e6).abs() < 1.0);
    }

    #[test]
    fn staggered_joins_reconverge() {
        let net = synthetic::dumbbell(4, mbps(100.0), mbps(80.0), us(1));
        let hosts: Vec<_> = net.hosts().map(|h| h.id()).collect();
        let mut sim = BneckSimulation::new(&net, BneckConfig::default());
        for i in 0..4u64 {
            sim.join(
                SimTime::from_millis(i),
                SessionId(i),
                hosts[2 * i as usize],
                hosts[2 * i as usize + 1],
                RateLimit::unlimited(),
            )
            .unwrap();
        }
        sim.run_to_quiescence();
        assert_matches_oracle(&sim);
        let alloc = sim.allocation();
        for i in 0..4u64 {
            assert!((alloc.rate(SessionId(i)).unwrap() - 20e6).abs() < 1.0);
        }
    }

    #[test]
    fn leave_reactivates_and_grows_the_survivors() {
        let net = synthetic::dumbbell(3, mbps(100.0), mbps(60.0), us(1));
        let hosts: Vec<_> = net.hosts().map(|h| h.id()).collect();
        let mut sim = BneckSimulation::new(&net, BneckConfig::default());
        for i in 0..3u64 {
            sim.join(
                SimTime::ZERO,
                SessionId(i),
                hosts[2 * i as usize],
                hosts[2 * i as usize + 1],
                RateLimit::unlimited(),
            )
            .unwrap();
        }
        sim.run_to_quiescence();
        assert!((sim.allocation().rate(SessionId(0)).unwrap() - 20e6).abs() < 1.0);
        // One session leaves; the other two should re-converge to 30 Mbps.
        let t = sim.now() + bneck_net::Delay::from_millis(1);
        sim.leave(t, SessionId(0)).unwrap();
        let report = sim.run_to_quiescence();
        assert!(report.quiescent);
        assert_matches_oracle(&sim);
        let alloc = sim.allocation();
        assert!(alloc.rate(SessionId(0)).is_none());
        assert!((alloc.rate(SessionId(1)).unwrap() - 30e6).abs() < 1.0);
        assert!((alloc.rate(SessionId(2)).unwrap() - 30e6).abs() < 1.0);
    }

    #[test]
    fn change_reduces_and_then_restores_a_rate() {
        let net = synthetic::dumbbell(2, mbps(100.0), mbps(80.0), us(1));
        let hosts: Vec<_> = net.hosts().map(|h| h.id()).collect();
        let mut sim = BneckSimulation::new(&net, BneckConfig::default());
        for i in 0..2u64 {
            sim.join(
                SimTime::ZERO,
                SessionId(i),
                hosts[2 * i as usize],
                hosts[2 * i as usize + 1],
                RateLimit::unlimited(),
            )
            .unwrap();
        }
        sim.run_to_quiescence();
        // Session 0 caps itself at 10 Mbps: session 1 should grow to 70 Mbps.
        let t1 = sim.now() + bneck_net::Delay::from_millis(1);
        sim.change(t1, SessionId(0), RateLimit::finite(10e6))
            .unwrap();
        sim.run_to_quiescence();
        assert_matches_oracle(&sim);
        let alloc = sim.allocation();
        assert!((alloc.rate(SessionId(0)).unwrap() - 10e6).abs() < 1.0);
        assert!((alloc.rate(SessionId(1)).unwrap() - 70e6).abs() < 1.0);
        // Session 0 lifts its cap again: back to a 40/40 split.
        let t2 = sim.now() + bneck_net::Delay::from_millis(1);
        sim.change(t2, SessionId(0), RateLimit::unlimited())
            .unwrap();
        sim.run_to_quiescence();
        assert_matches_oracle(&sim);
        let alloc = sim.allocation();
        assert!((alloc.rate(SessionId(0)).unwrap() - 40e6).abs() < 1.0);
        assert!((alloc.rate(SessionId(1)).unwrap() - 40e6).abs() < 1.0);
        let _ = oracle(&sim);
    }

    #[test]
    fn dependent_bottlenecks_parking_lot() {
        // One long session across every segment plus shorter sessions of
        // decreasing length, all from distinct source hosts (the paper's
        // one-session-per-source-host model): the classic dependent-bottleneck
        // chain.
        let net = synthetic::parking_lot(3, mbps(100.0), mbps(60.0), us(1));
        let hosts: Vec<_> = net.hosts().map(|h| h.id()).collect();
        let mut sim = BneckSimulation::new(&net, BneckConfig::default());
        for i in 0..3u64 {
            sim.join(
                SimTime::ZERO,
                SessionId(i),
                hosts[i as usize],
                hosts[3],
                RateLimit::unlimited(),
            )
            .unwrap();
        }
        sim.run_to_quiescence();
        assert_matches_oracle(&sim);
        // The last segment is shared by all three sessions.
        let alloc = sim.allocation();
        for i in 0..3u64 {
            assert!((alloc.rate(SessionId(i)).unwrap() - 20e6).abs() < 1.0);
        }
    }

    #[test]
    fn join_errors_are_reported() {
        let net = synthetic::dumbbell(2, mbps(100.0), mbps(60.0), us(1));
        let hosts: Vec<_> = net.hosts().map(|h| h.id()).collect();
        let mut sim = BneckSimulation::new(&net, BneckConfig::default());
        sim.join(
            SimTime::ZERO,
            SessionId(0),
            hosts[0],
            hosts[1],
            RateLimit::unlimited(),
        )
        .unwrap();
        assert_eq!(
            sim.join(
                SimTime::ZERO,
                SessionId(0),
                hosts[2],
                hosts[3],
                RateLimit::unlimited()
            ),
            Err(JoinError::DuplicateSession(SessionId(0)))
        );
        assert_eq!(
            sim.join(
                SimTime::ZERO,
                SessionId(1),
                hosts[0],
                hosts[0],
                RateLimit::unlimited()
            ),
            Err(JoinError::NoPath {
                source: hosts[0],
                destination: hosts[0]
            })
        );
        // A router is not a session endpoint.
        let router = net.routers().next().unwrap().id();
        for (source, destination) in [(router, hosts[3]), (hosts[2], router)] {
            assert_eq!(
                sim.join(
                    SimTime::ZERO,
                    SessionId(1),
                    source,
                    destination,
                    RateLimit::unlimited()
                ),
                Err(JoinError::NoPath {
                    source,
                    destination
                })
            );
        }
        assert_eq!(
            sim.leave(SimTime::ZERO, SessionId(9)),
            Err(UnknownSession(SessionId(9)))
        );
        assert_eq!(
            sim.change(SimTime::ZERO, SessionId(9), RateLimit::unlimited()),
            Err(UnknownSession(SessionId(9)))
        );
    }

    #[test]
    fn leave_and_change_on_a_departing_session_return_unknown_session() {
        // `leave` deactivates the session immediately; its `Left` marker is
        // queued but unprocessed. In that window a second leave or a change
        // must return the typed `UnknownSession` — the same contract the
        // baseline harness keeps — and the queued departure must still be
        // delivered (the stale-incarnation `resolve_hop` path drops whatever
        // in-flight packets the dead incarnation still owns).
        let net = synthetic::dumbbell(2, mbps(100.0), mbps(60.0), us(1));
        let hosts: Vec<_> = net.hosts().map(|h| h.id()).collect();
        let mut sim = BneckSimulation::new(&net, BneckConfig::default());
        for i in 0..2u64 {
            sim.join(
                SimTime::ZERO,
                SessionId(i),
                hosts[2 * i as usize],
                hosts[2 * i as usize + 1],
                RateLimit::unlimited(),
            )
            .unwrap();
        }
        sim.run_to_quiescence();
        let t = sim.now();
        sim.leave(t, SessionId(0)).unwrap();
        assert_eq!(
            sim.leave(t, SessionId(0)),
            Err(UnknownSession(SessionId(0)))
        );
        assert_eq!(
            sim.change(t, SessionId(0), RateLimit::finite(1e6)),
            Err(UnknownSession(SessionId(0)))
        );
        let report = sim.run_to_quiescence();
        assert!(report.quiescent);
        assert_eq!(sim.active_sessions().count(), 1);
        assert_matches_oracle(&sim);
    }

    #[test]
    fn packet_log_and_rate_history_are_recorded_when_enabled() {
        let net = synthetic::dumbbell(2, mbps(100.0), mbps(60.0), us(1));
        let hosts: Vec<_> = net.hosts().map(|h| h.id()).collect();
        let mut sim = BneckSimulation::new(&net, BneckConfig::default());
        let log = PacketLog::default();
        sim.subscribe(log.clone());
        let rates = sim.rate_events();
        for i in 0..2u64 {
            sim.join(
                SimTime::ZERO,
                SessionId(i),
                hosts[2 * i as usize],
                hosts[2 * i as usize + 1],
                RateLimit::unlimited(),
            )
            .unwrap();
        }
        sim.run_to_quiescence();
        assert_eq!(log.entries().len() as u64, sim.packet_stats().total());
        let rates = rates.drain();
        assert!(!rates.is_empty());
        assert!(rates.iter().any(|e| e.session == SessionId(1)));
        // Every packet kind count in the log matches the aggregate stats.
        let mut recount = PacketStats::new();
        for (_, kind) in log.entries() {
            recount.record(kind);
        }
        assert_eq!(&recount, sim.packet_stats());
    }

    #[test]
    fn rate_events_stream_tags_causes_and_goes_silent_at_quiescence() {
        let net = synthetic::dumbbell(2, mbps(100.0), mbps(60.0), us(1));
        let hosts: Vec<_> = net.hosts().map(|h| h.id()).collect();
        let mut sim = BneckSimulation::new(&net, BneckConfig::default());
        let events = sim.rate_events();
        sim.join(
            SimTime::ZERO,
            SessionId(0),
            hosts[0],
            hosts[1],
            RateLimit::unlimited(),
        )
        .unwrap();
        sim.join(
            SimTime::ZERO,
            SessionId(1),
            hosts[2],
            hosts[3],
            RateLimit::unlimited(),
        )
        .unwrap();
        sim.run_to_quiescence();

        let converged = events.drain();
        assert!(!converged.is_empty());
        // The first event of each session is its post-join notification.
        let first_of_0 = converged
            .iter()
            .find(|e| e.session == SessionId(0))
            .unwrap();
        assert_eq!(first_of_0.cause, RateCause::Joined);
        // Final rates appear in the stream.
        assert!(converged
            .iter()
            .any(|e| e.session == SessionId(0) && (e.rate - 30e6).abs() < 1.0));
        // Quiescent network: the stream is silent.
        sim.run_to_quiescence();
        assert!(events.is_empty(), "no events after quiescence");

        // A change re-notifies with the Changed cause...
        let t = sim.now() + bneck_net::Delay::from_millis(1);
        sim.change(t, SessionId(0), RateLimit::finite(10e6))
            .unwrap();
        sim.run_to_quiescence();
        let after_change = events.drain();
        let own = after_change
            .iter()
            .find(|e| e.session == SessionId(0))
            .unwrap();
        assert_eq!(own.cause, RateCause::Changed);
        assert!((own.rate - 10e6).abs() < 1.0);
        // ...and the neighbour re-converges.
        assert!(after_change
            .iter()
            .any(|e| e.session == SessionId(1) && e.cause == RateCause::Converged));

        // A leave emits a final Left marker carrying the last used rate.
        let t = sim.now() + bneck_net::Delay::from_millis(1);
        sim.leave(t, SessionId(0)).unwrap();
        sim.run_to_quiescence();
        let after_leave = events.drain();
        let left = after_leave
            .iter()
            .find(|e| e.cause == RateCause::Left)
            .unwrap();
        assert_eq!(left.session, SessionId(0));
        assert!((left.rate - 10e6).abs() < 1.0);
    }

    #[test]
    fn change_cause_is_tagged_when_the_change_is_processed_not_scheduled() {
        // Two sessions converge; then a third join (at t+1ms) and a change of
        // session 0 (at t+10ms) are both scheduled *before* running — the
        // order Schedule::apply produces for churn workloads. The
        // join-triggered re-notification of session 0 fires long before the
        // change takes effect and must be tagged Converged; only the
        // notification after the change processes is Changed.
        let net = synthetic::dumbbell(3, mbps(100.0), mbps(90.0), us(1));
        let hosts: Vec<_> = net.hosts().map(|h| h.id()).collect();
        let mut sim = BneckSimulation::new(&net, BneckConfig::default());
        for i in 0..2u64 {
            sim.join(
                SimTime::ZERO,
                SessionId(i),
                hosts[2 * i as usize],
                hosts[2 * i as usize + 1],
                RateLimit::unlimited(),
            )
            .unwrap();
        }
        sim.run_to_quiescence();
        let events = sim.rate_events();
        let t0 = sim.now();
        sim.join(
            t0 + bneck_net::Delay::from_millis(1),
            SessionId(2),
            hosts[4],
            hosts[5],
            RateLimit::unlimited(),
        )
        .unwrap();
        sim.change(
            t0 + bneck_net::Delay::from_millis(10),
            SessionId(0),
            RateLimit::finite(10e6),
        )
        .unwrap();
        sim.run_to_quiescence();
        let causes: Vec<RateCause> = events
            .drain()
            .into_iter()
            .filter(|e| e.session == SessionId(0))
            .map(|e| e.cause)
            .collect();
        assert_eq!(
            causes.first(),
            Some(&RateCause::Converged),
            "the join-triggered re-notification precedes the change"
        );
        assert!(
            causes.contains(&RateCause::Changed),
            "the post-change notification carries Changed"
        );
        assert_eq!(
            causes.last(),
            Some(&RateCause::Changed),
            "nothing re-notifies session 0 after its own change settles"
        );
    }

    #[test]
    fn closure_subscribers_fire() {
        use std::sync::{Arc, Mutex};
        let net = synthetic::dumbbell(2, mbps(100.0), mbps(60.0), us(1));
        let hosts: Vec<_> = net.hosts().map(|h| h.id()).collect();
        let mut sim = BneckSimulation::new(&net, BneckConfig::default());
        let seen: Arc<Mutex<Vec<(SessionId, RateCause)>>> = Arc::default();
        let sink = Arc::clone(&seen);
        sim.subscribe(move |e: &RateEvent| {
            sink.lock().unwrap().push((e.session, e.cause));
        });

        for i in 0..2u64 {
            sim.join(
                SimTime::ZERO,
                SessionId(i),
                hosts[2 * i as usize],
                hosts[2 * i as usize + 1],
                RateLimit::unlimited(),
            )
            .unwrap();
        }
        sim.run_to_quiescence();
        assert!(seen
            .lock()
            .unwrap()
            .iter()
            .any(|(s, c)| *s == SessionId(1) && *c == RateCause::Joined));
    }

    #[test]
    fn quiescence_means_no_further_traffic() {
        let net = synthetic::dumbbell(3, mbps(100.0), mbps(60.0), us(1));
        let hosts: Vec<_> = net.hosts().map(|h| h.id()).collect();
        let mut sim = BneckSimulation::new(&net, BneckConfig::default());
        for i in 0..3u64 {
            sim.join(
                SimTime::ZERO,
                SessionId(i),
                hosts[2 * i as usize],
                hosts[2 * i as usize + 1],
                RateLimit::unlimited(),
            )
            .unwrap();
        }
        sim.run_to_quiescence();
        let packets_after_convergence = sim.packet_stats().total();
        // Running further without changes generates no traffic at all.
        let report = sim.run_to_quiescence();
        assert_eq!(report.events_processed, 0);
        assert_eq!(sim.packet_stats().total(), packets_after_convergence);
        assert!(sim.is_quiescent());
    }

    #[test]
    fn session_set_follows_membership_changes() {
        let net = synthetic::dumbbell(2, mbps(100.0), mbps(60.0), us(1));
        let hosts: Vec<_> = net.hosts().map(|h| h.id()).collect();
        let mut sim = BneckSimulation::new(&net, BneckConfig::default());
        for i in 0..2u64 {
            sim.join(
                SimTime::ZERO,
                SessionId(i),
                hosts[2 * i as usize],
                hosts[2 * i as usize + 1],
                RateLimit::unlimited(),
            )
            .unwrap();
        }
        sim.run_to_quiescence();
        assert_eq!(sim.session_set().len(), 2);
        // A leave shows at the call, before the engine processes it.
        let t = sim.now() + bneck_net::Delay::from_millis(1);
        sim.leave(t, SessionId(0)).unwrap();
        let set = sim.session_set();
        assert_eq!(set.len(), 1);
        assert!(set.get(SessionId(1)).is_some());
    }

    #[test]
    fn stray_packets_from_a_previous_incarnation_are_dropped() {
        // Session 0 joins along a 5-link path; mid-convergence (packets in
        // flight deep in the path) it leaves and immediately rejoins with the
        // same identifier along a 2-link path. The stale envelopes still
        // carry hop indices of the old path; they must be dropped (or
        // re-resolved), not indexed into the new, shorter path.
        let mut b = NetworkBuilder::new();
        let r0 = b.add_router();
        let r1 = b.add_router();
        let r2 = b.add_router();
        let r3 = b.add_router();
        b.connect(r0, r1, mbps(100.0), us(1));
        b.connect(r1, r2, mbps(100.0), us(1));
        b.connect(r2, r3, mbps(100.0), us(1));
        let h0 = b.add_host(r0, mbps(100.0), us(1));
        let h1 = b.add_host(r3, mbps(50.0), us(1));
        let h2 = b.add_host(r0, mbps(80.0), us(1));
        let net = b.build();
        let mut sim = BneckSimulation::new(&net, BneckConfig::default());
        // Try a range of interruption points so packets are caught in flight
        // at various hops of the long path.
        for horizon_us in 1..12u64 {
            let start = sim.now() + bneck_net::Delay::from_millis(1);
            sim.join(start, SessionId(0), h0, h1, RateLimit::unlimited())
                .unwrap();
            let report = sim.run_until(start + bneck_net::Delay::from_micros(horizon_us));
            let t = sim.now() + bneck_net::Delay::from_nanos(1);
            sim.leave(t, SessionId(0)).unwrap();
            if !report.quiescent {
                // Rejoin immediately along the short path while the old
                // incarnation's packets are still in flight.
                sim.join(t, SessionId(0), h0, h2, RateLimit::unlimited())
                    .unwrap();
            }
            sim.run_to_quiescence();
            assert_matches_oracle(&sim);
            if sim.active_sessions().next().is_some() {
                let t = sim.now() + bneck_net::Delay::from_millis(1);
                sim.leave(t, SessionId(0)).unwrap();
                sim.run_to_quiescence();
            }
        }
    }

    #[test]
    fn session_slot_is_reused_when_an_identifier_rejoins() {
        let net = synthetic::dumbbell(2, mbps(100.0), mbps(60.0), us(1));
        let hosts: Vec<_> = net.hosts().map(|h| h.id()).collect();
        let mut sim = BneckSimulation::new(&net, BneckConfig::default());
        sim.join(
            SimTime::ZERO,
            SessionId(0),
            hosts[0],
            hosts[1],
            RateLimit::unlimited(),
        )
        .unwrap();
        sim.run_to_quiescence();
        let t = sim.now() + bneck_net::Delay::from_millis(1);
        sim.leave(t, SessionId(0)).unwrap();
        sim.run_to_quiescence();
        // Rejoin with the same identifier along a different path.
        let t = sim.now() + bneck_net::Delay::from_millis(1);
        sim.join(t, SessionId(0), hosts[2], hosts[3], RateLimit::unlimited())
            .unwrap();
        sim.run_to_quiescence();
        assert_matches_oracle(&sim);
        assert_eq!(sim.session_path(SessionId(0)).unwrap().source(), hosts[2]);
        assert!((sim.allocation().rate(SessionId(0)).unwrap() - 60e6).abs() < 1.0);
    }
}

#[cfg(test)]
mod recovery_tests {
    use super::*;
    use crate::events::testing::PacketLog;
    use bneck_maxmin::prelude::*;
    use bneck_net::prelude::*;

    fn assert_matches_oracle(sim: &BneckSimulation<'_>) {
        let sessions = sim.session_set();
        let expected = CentralizedBneck::new(sim.network(), &sessions).solve();
        let got = sim.allocation();
        let tol = Tolerance::new(1e-6, 1.0);
        if let Err(violations) = compare_allocations(&sessions, &got, &expected, tol) {
            panic!(
                "distributed allocation disagrees with the centralized oracle: {:?}\n got: {:?}\n expected: {:?}",
                violations, got, expected
            );
        }
    }

    fn hostile_plan(seed: u64) -> FaultPlan {
        FaultPlan::new(seed, 0.05, 0.02, 0.25, 4)
    }

    fn dumbbell_sim(net: &Network, config: BneckConfig, sessions: u64) -> BneckSimulation<'_> {
        let hosts: Vec<_> = net.hosts().map(|h| h.id()).collect();
        let mut sim = BneckSimulation::new(net, config);
        for i in 0..sessions {
            sim.join(
                SimTime::ZERO,
                SessionId(i),
                hosts[2 * i as usize],
                hosts[2 * i as usize + 1],
                RateLimit::unlimited(),
            )
            .unwrap();
        }
        sim
    }

    #[test]
    fn recovery_survives_drops_duplicates_and_reorders() {
        let net = synthetic::dumbbell(
            4,
            Capacity::from_mbps(100.0),
            Capacity::from_mbps(60.0),
            Delay::from_micros(1),
        );
        let config = BneckConfig::default().with_recovery(Delay::from_micros(200));
        let mut sim = dumbbell_sim(&net, config, 4);
        sim.set_fault_plan(hostile_plan(7));
        let report = sim.run_to_quiescence();
        assert!(report.quiescent);
        let totals = sim.fault_totals();
        assert!(
            totals.total() > 0,
            "the plan injected no faults: {totals:?}"
        );
        let stats = sim.recovery_stats().unwrap();
        assert!(stats.frames_sent > 0);
        assert!(stats.retransmits > 0, "drops must trigger retransmission");
        assert_eq!(
            sim.unacked_frames(),
            0,
            "quiescence implies every frame acked"
        );
        assert_matches_oracle(&sim);
        assert!(sim.links_stable());
    }

    #[test]
    fn recovery_under_churn_stays_oracle_exact() {
        let net = synthetic::dumbbell(
            3,
            Capacity::from_mbps(100.0),
            Capacity::from_mbps(60.0),
            Delay::from_micros(1),
        );
        let config = BneckConfig::default().with_recovery(Delay::from_micros(200));
        let mut sim = dumbbell_sim(&net, config, 3);
        sim.set_fault_plan(hostile_plan(11));
        sim.run_to_quiescence();
        assert_matches_oracle(&sim);
        sim.leave(sim.now(), SessionId(1)).unwrap();
        sim.run_to_quiescence();
        assert_matches_oracle(&sim);
        sim.change(sim.now(), SessionId(2), RateLimit::finite(5e6))
            .unwrap();
        let report = sim.run_to_quiescence();
        assert!(report.quiescent);
        assert_eq!(sim.unacked_frames(), 0);
        assert_matches_oracle(&sim);
    }

    #[test]
    fn pristine_channels_with_recovery_pay_only_the_framing() {
        let net = synthetic::dumbbell(
            2,
            Capacity::from_mbps(100.0),
            Capacity::from_mbps(60.0),
            Delay::from_micros(1),
        );
        let config = BneckConfig::default().with_recovery(Delay::from_micros(500));
        let mut sim = dumbbell_sim(&net, config, 2);
        let report = sim.run_to_quiescence();
        assert!(report.quiescent);
        let stats = sim.recovery_stats().unwrap();
        assert_eq!(stats.retransmits, 0, "reliable channels never time out");
        assert_eq!(stats.duplicates_dropped, 0);
        assert_eq!(stats.reordered_buffered, 0);
        assert_eq!(stats.acks_sent, stats.frames_sent);
        assert_eq!(sim.unacked_frames(), 0);
        assert_matches_oracle(&sim);
    }

    #[test]
    fn a_clean_recovered_run_pays_one_wake_up_not_one_timer_per_frame() {
        let net = synthetic::dumbbell(
            2,
            Capacity::from_mbps(100.0),
            Capacity::from_mbps(60.0),
            Delay::from_micros(1),
        );
        let rto = Delay::from_micros(500);
        let config = BneckConfig::default().with_recovery(rto);
        let mut sim = dumbbell_sim(&net, config, 2);
        let log = PacketLog::default();
        sim.subscribe(log.clone());
        let report = sim.run_to_quiescence();
        assert!(report.quiescent);
        let stats = sim.recovery_stats().unwrap();
        // Clean channels deliver every message sent, and the two joins are
        // the only API calls: whatever else the engine processed is a timer.
        let timers = report.events_processed - report.packets_sent - 2;
        assert!(stats.frames_sent > 20, "{stats:?}");
        assert_eq!(timers, 1, "one wake-up for {} frames", stats.frames_sent);
        // R4: the run ends on that wake-up, no later than the last frame's
        // own timer would have fired.
        let last_send = log.entries().last().expect("packets were sent").0;
        assert!(report.quiescent_at <= last_send + rto, "{report:?}");
        assert!(
            report.quiescent_at > last_send,
            "the RTO tail is still paid"
        );
    }

    #[test]
    fn a_lossy_recovered_run_cut_at_any_horizon_resumes_to_the_same_end() {
        let net = synthetic::dumbbell(
            4,
            Capacity::from_mbps(100.0),
            Capacity::from_mbps(60.0),
            Delay::from_micros(1),
        );
        let config = BneckConfig::default().with_recovery(Delay::from_micros(200));
        let run = |horizons_us: &[u64]| {
            let mut sim = dumbbell_sim(&net, config, 4);
            sim.set_fault_plan(hostile_plan(7));
            let (mut packets, mut events) = (0, 0);
            for &us in horizons_us {
                // R3: a cut run keeps its wake-up in the queue, so frames
                // unacked at the horizon are still retransmitted after it.
                let cut = sim.run_until(SimTime::from_micros(us));
                assert!(!cut.quiescent, "the horizon {us} us falls inside the run");
                packets += cut.packets_sent;
                events += cut.events_processed;
            }
            let end = sim.run_to_quiescence();
            assert!(end.quiescent);
            assert_eq!(sim.unacked_frames(), 0);
            assert_matches_oracle(&sim);
            let totals = (
                packets + end.packets_sent,
                events + end.events_processed,
                end.quiescent_at,
            );
            let stats = sim.recovery_stats().unwrap();
            (totals, stats, sim.fault_totals(), sim.allocation())
        };
        let uncut = run(&[]);
        assert!(uncut.1.retransmits > 0, "{:?}", uncut.1);
        assert_eq!(run(&[37, 211, 463]), uncut);
        assert_eq!(run(&[1, 2, 199]), uncut);
    }

    #[test]
    fn faults_without_recovery_corrupt_the_run_detectably() {
        // Recovery off: heavy loss must not go unnoticed — the run either
        // fails the oracle comparison or visibly under-notifies. This is the
        // honesty property the fault-sweep reports build on.
        let net = synthetic::dumbbell(
            4,
            Capacity::from_mbps(100.0),
            Capacity::from_mbps(60.0),
            Delay::from_micros(1),
        );
        let mut sim = dumbbell_sim(&net, BneckConfig::default(), 4);
        sim.set_fault_plan(FaultPlan::new(3, 0.3, 0.0, 0.0, 1));
        let report = sim.run_to_quiescence();
        // Without timers the queue always drains.
        assert!(report.quiescent);
        assert!(sim.fault_totals().dropped > 0);
        assert!(sim.recovery_stats().is_none());
        let sessions = sim.session_set();
        let expected = CentralizedBneck::new(sim.network(), &sessions).solve();
        let got = sim.allocation();
        let tol = Tolerance::new(1e-6, 1.0);
        assert!(
            compare_allocations(&sessions, &got, &expected, tol).is_err(),
            "30% loss converged to exact rates — pick a different seed for this test"
        );
    }

    #[test]
    fn paper_mode_reports_no_recovery_state() {
        let net = synthetic::dumbbell(
            2,
            Capacity::from_mbps(100.0),
            Capacity::from_mbps(60.0),
            Delay::from_micros(1),
        );
        let mut sim = dumbbell_sim(&net, BneckConfig::default(), 2);
        sim.run_to_quiescence();
        assert!(sim.recovery_stats().is_none());
        assert_eq!(sim.unacked_frames(), 0);
        assert_eq!(sim.fault_totals().total(), 0);
        assert!(sim.fault_plan().is_none());
        assert_matches_oracle(&sim);
    }
}
