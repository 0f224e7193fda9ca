//! The shared periodic-probing harness the three baselines run on.
//!
//! The structure mirrors how these protocols are deployed in practice (and in
//! the paper's simulations): every source keeps sending probe packets along
//! its path at a fixed interval; every link stamps the packet with the rate it
//! is willing to grant (according to the protocol's per-link controller); the
//! destination echoes a response; the source adopts the granted rate and
//! schedules the next probe. None of these protocols can detect convergence,
//! so the probing never stops — the defining contrast with B-Neck.
//!
//! The harness is built on the same shared world plumbing as the B-Neck
//! harness (`bneck_core::world`): link `e` is simulator channel `e`
//! ([`add_link_channels`]), and a [`SessionArena`] assigns dense session
//! slots with slot + hop envelope addressing and builds the oracle's
//! `SessionSet`. Packets are counted in the same [`PacketStats`] as B-Neck's,
//! under the kinds the subscribers see. Only the per-slot *protocol* state
//! (probing flag, demand, adopted rate) and the per-link controllers are
//! specific to this harness. A fully-built [`BaselineSimulation`] implements
//! [`ProtocolWorld`], so the experiment drivers run it through the same
//! unified interface as B-Neck itself.

use bneck_core::events::SubscriberSet;
use bneck_core::world::{add_link_channels, SessionArena};
use bneck_core::{
    PacketKind, PacketStats, QuiescenceReport, RateCause, RateEvent, RateEvents, Subscriber,
    TaskHost, UnknownSession,
};
use bneck_maxmin::{Allocation, Rate, RateLimit, SessionId, SessionSet};
use bneck_net::{Network, NodeId, Path, Router};
use bneck_sim::{Address, ChannelId, Context, Engine, RunReport, SimTime, World};
use bneck_workload::{ProtocolWorld, ScheduleTarget, SessionRequest};

/// The per-link rate controller of a baseline protocol.
pub trait LinkController {
    /// Called when a probe of `session` crosses the link. `demand` is the
    /// session's maximum requested rate and `current` the rate the source is
    /// currently using. Returns the rate this link is willing to grant the
    /// session.
    fn on_probe(&mut self, session: SessionId, demand: Rate, current: Rate, now: SimTime) -> Rate;

    /// Called when the session's departure notification crosses the link.
    fn on_leave(&mut self, session: SessionId);
}

/// A baseline protocol: a factory of per-link controllers plus its probing
/// period.
///
/// `Send` bounds (on the protocol and its controllers) make a fully-built
/// [`BaselineSimulation`] a `Send` unit, which is what lets the parallel
/// sweep drivers in `bneck-bench` fan protocol runs across worker threads.
pub trait BaselineProtocol: Send {
    /// The per-link controller type.
    type Controller: LinkController + Send;

    /// Human-readable protocol name (used in reports).
    fn name(&self) -> &'static str;

    /// Creates the controller for a link of the given capacity (bits per
    /// second).
    fn controller(&self, capacity: Rate) -> Self::Controller;

    /// The interval at which every source re-probes its path.
    fn probe_interval(&self) -> bneck_net::Delay;

    /// The documented convergence tolerance of the protocol: the maximum
    /// mean *absolute* per-session relative error (in percent, against the
    /// centralized max-min fair rates) the protocol is expected to settle
    /// within once it has probed for many intervals. The cross-protocol
    /// conformance suite asserts this bound on randomized instances.
    fn mean_error_tolerance_pct(&self) -> f64;
}

/// Messages exchanged by the baseline harness. Sessions are addressed by
/// their dense slot in the shared session arena, assigned at join.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Message {
    /// API call: start the session.
    Start { slot: u32 },
    /// API call: stop the session.
    Stop { slot: u32 },
    /// API call: change the session's maximum requested rate.
    Change { slot: u32, limit: RateLimit },
    /// Probe travelling downstream; `hop` is the index of the link whose
    /// controller processes it next.
    Probe { slot: u32, granted: Rate, hop: u32 },
    /// Response travelling upstream; `hops_left` reverse hops remain.
    Response {
        slot: u32,
        granted: Rate,
        hops_left: u32,
    },
    /// Departure notification travelling downstream.
    Leave { slot: u32, hop: u32 },
    /// Source timer: time to send the next periodic probe.
    Timer { slot: u32 },
}

/// The simulator world: controllers plus the shared link/session plumbing of
/// `bneck_core::world`, with the protocol-specific per-slot state in parallel
/// vectors.
struct BaselineWorld<P: BaselineProtocol> {
    protocol: P,
    /// Controller of each directed link, indexed by `LinkId::index()`;
    /// created lazily when the first probe crosses the link.
    controllers: Vec<Option<P::Controller>>,
    /// Capacity of each directed link, indexed by `LinkId`.
    capacities: Vec<Rate>,
    /// The shared session-slot arena: id ↔ slot, paths, limits, active set.
    arena: SessionArena,
    /// `true` while the slot's probing loop is running. Flipped by the
    /// `Start`/`Stop` events at simulated time, so a leave-then-rejoin of the
    /// same identifier hands the probing loop over to the new incarnation
    /// without reviving stale in-flight packets.
    probing: Vec<bool>,
    /// `true` from the `leave()` call until its `Stop` event has been
    /// processed. A rejoin of the same identifier is rejected while this is
    /// set: the departure notification still has to walk the *departing*
    /// incarnation's path (which a rejoin would overwrite in the arena), so
    /// the old-path controllers are guaranteed their `on_leave`.
    stopping: Vec<bool>,
    /// The slot's maximum requested rate, clamped to its access link.
    demand: Vec<Rate>,
    /// The rate the slot's source currently uses (last granted rate).
    current: Vec<Rate>,
    /// What the slot's next rate adoption means to subscribers (`Joined`
    /// after a join, `Changed` after a change, `Converged` afterwards).
    causes: Vec<RateCause>,
    stats: PacketStats,
    probe_interval: bneck_net::Delay,
    /// The registered observers (`RateEvents` writers, user callbacks), on
    /// the same shared [`SubscriberSet`] fan-out as the B-Neck harness. The
    /// baseline packet vocabulary maps onto the closest B-Neck
    /// [`PacketKind`]s, for the per-packet callbacks and the counters alike.
    subscribers: SubscriberSet,
}

impl<P: BaselineProtocol> BaselineWorld<P> {
    /// Counts one transmitted packet and tells the subscribers that opted in.
    fn note_packet(&mut self, now: SimTime, kind: PacketKind) {
        self.stats.record(kind);
        self.subscribers.note_packet(now, kind);
    }

    /// A slot's maximum requested rate, clamped to its access link.
    fn clamped_demand(&self, slot: u32, limit: RateLimit) -> Rate {
        let first = self.arena.path(slot).first_link();
        limit.effective_demand(self.capacities[first.index()])
    }

    fn send_probe(&mut self, ctx: &mut Context<'_, Message>, slot: u32) {
        if !self.probing[slot as usize] {
            return;
        }
        ctx.deliver_now(
            Address(0),
            Message::Probe {
                slot,
                granted: self.demand[slot as usize],
                hop: 0,
            },
        );
    }

    fn dispatch(&mut self, ctx: &mut Context<'_, Message>, msg: Message) {
        match msg {
            Message::Start { slot } => {
                self.probing[slot as usize] = true;
                self.send_probe(ctx, slot);
            }
            Message::Timer { slot } => {
                self.send_probe(ctx, slot);
            }
            Message::Stop { slot } => {
                self.probing[slot as usize] = false;
                self.stopping[slot as usize] = false;
                // Tell the subscribers the session is gone, carrying the last
                // rate it was using.
                self.subscribers.emit_rate(&RateEvent {
                    at: ctx.now(),
                    session: self.arena.id_at(slot),
                    rate: self.current[slot as usize],
                    cause: RateCause::Left,
                });
                ctx.deliver_now(Address(0), Message::Leave { slot, hop: 0 });
            }
            Message::Change { slot, limit } => {
                // A change that outlived its incarnation's probing is void.
                if self.probing[slot as usize] {
                    self.demand[slot as usize] = self.clamped_demand(slot, limit);
                    self.causes[slot as usize] = RateCause::Changed;
                }
            }
            Message::Probe { slot, granted, hop } => {
                if !self.probing[slot as usize] {
                    return;
                }
                // A stale probe from a previous incarnation of the slot
                // (leave + rejoin with the same identifier while packets were
                // in flight) may carry a hop beyond the current, shorter
                // path: drop it — the new incarnation started its own probe.
                let Some(link) = self.arena.link_at(slot, hop) else {
                    return;
                };
                let session = self.arena.id_at(slot);
                let demand = self.demand[slot as usize];
                let current = self.current[slot as usize];
                let hops = self.arena.hop_count(slot);
                let capacity = self.capacities[link.index()];
                let controller = self.controllers[link.index()]
                    .get_or_insert_with(|| self.protocol.controller(capacity));
                let advertised = controller.on_probe(session, demand, current, ctx.now());
                let granted = granted.min(advertised).min(demand);
                self.note_packet(ctx.now(), PacketKind::Probe);
                let next = if (hop as usize) + 1 < hops {
                    Message::Probe {
                        slot,
                        granted,
                        hop: hop + 1,
                    }
                } else {
                    Message::Response {
                        slot,
                        granted,
                        hops_left: hops as u32,
                    }
                };
                ctx.send(ChannelId(link.0), Address(0), next);
            }
            Message::Response {
                slot,
                granted,
                hops_left,
            } => {
                if hops_left == 0 {
                    // Reached the source: adopt the granted rate and schedule
                    // the next periodic probe. The probing never stops.
                    let interval = self.probe_interval;
                    if self.probing[slot as usize] {
                        let previous = self.current[slot as usize];
                        self.current[slot as usize] = granted;
                        // Notify subscribers on the first adoption of an
                        // incarnation and whenever the granted rate moves
                        // (periodic re-grants of an unchanged rate stay
                        // silent, like an `API.Rate` that only fires on
                        // change).
                        let cause = std::mem::replace(
                            &mut self.causes[slot as usize],
                            RateCause::Converged,
                        );
                        if (granted != previous || cause != RateCause::Converged)
                            && !self.subscribers.is_empty()
                        {
                            self.subscribers.emit_rate(&RateEvent {
                                at: ctx.now(),
                                session: self.arena.id_at(slot),
                                rate: granted,
                                cause,
                            });
                        }
                        ctx.schedule_after(interval, Address(0), Message::Timer { slot });
                    }
                    return;
                }
                // As with probes, drop responses whose hop count belongs to a
                // previous, longer incarnation of the slot's path.
                let Some(forward) = self.arena.link_at(slot, hops_left - 1) else {
                    return;
                };
                self.note_packet(ctx.now(), PacketKind::Response);
                ctx.send(
                    ChannelId(forward.reverse().0),
                    Address(0),
                    Message::Response {
                        slot,
                        granted,
                        hops_left: hops_left - 1,
                    },
                );
            }
            Message::Leave { slot, hop } => {
                let Some(link) = self.arena.link_at(slot, hop) else {
                    return;
                };
                let session = self.arena.id_at(slot);
                if let Some(controller) = &mut self.controllers[link.index()] {
                    controller.on_leave(session);
                }
                self.note_packet(ctx.now(), PacketKind::Leave);
                ctx.send(
                    ChannelId(link.0),
                    Address(0),
                    Message::Leave { slot, hop: hop + 1 },
                );
            }
        }
    }
}

impl<P: BaselineProtocol> World for BaselineWorld<P> {
    type Message = Message;
    fn handle(&mut self, ctx: &mut Context<'_, Message>, _to: Address, msg: Message) {
        self.dispatch(ctx, msg);
    }
}

/// A baseline protocol simulation over a network.
///
/// # Example
///
/// ```
/// use bneck_net::prelude::*;
/// use bneck_maxmin::prelude::*;
/// use bneck_baselines::prelude::*;
/// use bneck_sim::SimTime;
///
/// let net = synthetic::dumbbell(2, Capacity::from_mbps(100.0),
///                               Capacity::from_mbps(60.0), Delay::from_micros(1));
/// let hosts: Vec<_> = net.hosts().map(|h| h.id()).collect();
/// let mut sim = BaselineSimulation::new(&net, Bfyz::default());
/// sim.join(SimTime::ZERO, SessionId(0), hosts[0], hosts[1], RateLimit::unlimited());
/// sim.join(SimTime::ZERO, SessionId(1), hosts[2], hosts[3], RateLimit::unlimited());
/// sim.run_until(SimTime::from_millis(50));
/// let rates = sim.current_rates();
/// assert!((rates.rate(SessionId(0)).unwrap() - 30e6).abs() < 1e6);
/// // Unlike B-Neck, the protocol is still generating traffic.
/// assert!(!sim.is_quiescent());
/// ```
pub struct BaselineSimulation<'a, P: BaselineProtocol> {
    engine: Engine<Message>,
    network: &'a Network,
    name: &'static str,
    world: BaselineWorld<P>,
    router: Router<'a>,
}

impl<'a, P: BaselineProtocol> BaselineSimulation<'a, P> {
    /// Creates a simulation of `protocol` over `network`, with B-Neck's
    /// control-packet size ([`CONTROL_PACKET_BITS`](bneck_core::world::CONTROL_PACKET_BITS)).
    pub fn new(network: &'a Network, protocol: P) -> Self {
        let mut engine = Engine::new();
        add_link_channels(network, &mut engine);
        let name = protocol.name();
        let probe_interval = protocol.probe_interval();
        let mut controllers = Vec::new();
        controllers.resize_with(network.link_count(), || None);
        let world = BaselineWorld {
            protocol,
            controllers,
            capacities: TaskHost::link_capacities(network),
            arena: SessionArena::new(),
            probing: Vec::new(),
            stopping: Vec::new(),
            demand: Vec::new(),
            current: Vec::new(),
            causes: Vec::new(),
            stats: PacketStats::new(),
            probe_interval,
            subscribers: SubscriberSet::new(),
        };
        BaselineSimulation {
            engine,
            network,
            name,
            world,
            router: Router::new(network),
        }
    }

    /// The protocol's display name.
    pub fn protocol_name(&self) -> &'static str {
        self.name
    }

    /// The network the simulation runs over.
    pub fn network(&self) -> &'a Network {
        self.network
    }

    /// Starts a session at time `at` between two hosts. Returns `false` if no
    /// path exists (the endpoints are not two connected hosts) or the
    /// identifier is already in use by an active session.
    pub fn join(
        &mut self,
        at: SimTime,
        session: SessionId,
        source: NodeId,
        destination: NodeId,
        limit: RateLimit,
    ) -> bool {
        if self.world.arena.is_active(session) {
            return false;
        }
        let Some(path) = self.router.shortest_path(source, destination) else {
            return false;
        };
        self.join_with_path(at, session, path, limit)
    }

    /// Starts a session at time `at` along an explicit path (e.g. the one a
    /// workload planner already routed). Returns `false` if the identifier is
    /// already in use by an active session, or if its previous incarnation's
    /// departure notification has not been processed yet (the notification
    /// must walk the old path, which a rejoin would overwrite).
    pub fn join_with_path(
        &mut self,
        at: SimTime,
        session: SessionId,
        path: Path,
        limit: RateLimit,
    ) -> bool {
        if let Some(slot) = self.world.arena.slot_of(session) {
            if self.world.stopping[slot as usize] {
                return false;
            }
        }
        let Some(joined) = self.world.arena.join(session, path, limit) else {
            return false;
        };
        let demand = self.world.clamped_demand(joined.slot, limit);
        let slot = joined.slot as usize;
        if joined.reused {
            self.world.probing[slot] = false;
            self.world.demand[slot] = demand;
            self.world.current[slot] = 0.0;
            self.world.causes[slot] = RateCause::Joined;
        } else {
            self.world.probing.push(false);
            self.world.stopping.push(false);
            self.world.demand.push(demand);
            self.world.current.push(0.0);
            self.world.causes.push(RateCause::Joined);
        }
        self.engine
            .inject(at, Address(0), Message::Start { slot: joined.slot });
        true
    }

    /// Stops a session at time `at`.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownSession`] (the same typed error as
    /// `BneckSimulation::leave`) if the session is not active — including a
    /// session whose own departure marker is already queued: the first
    /// `leave` deactivates it, so a second one finds no active session.
    pub fn leave(&mut self, at: SimTime, session: SessionId) -> Result<(), UnknownSession> {
        let Some(slot) = self.world.arena.leave(session) else {
            return Err(UnknownSession(session));
        };
        self.world.stopping[slot as usize] = true;
        self.engine.inject(at, Address(0), Message::Stop { slot });
        Ok(())
    }

    /// Changes a session's maximum requested rate at time `at`. The new
    /// demand takes effect then, for the probes that follow; the session set
    /// shows the new limit from the call on, as B-Neck's does.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownSession`] if the session is not active — including a
    /// session that already left but whose `Stop` marker is still queued.
    pub fn change(
        &mut self,
        at: SimTime,
        session: SessionId,
        limit: RateLimit,
    ) -> Result<(), UnknownSession> {
        let Some(slot) = self.world.arena.change(session, limit) else {
            return Err(UnknownSession(session));
        };
        self.engine
            .inject(at, Address(0), Message::Change { slot, limit });
        Ok(())
    }

    /// Registers an observer of this simulation's rate adoptions (delivered
    /// as [`RateEvent`]s: `Joined` on a session's first grant, `Changed`
    /// after an `API.Change`, `Converged` when a periodic re-grant moves the
    /// rate, `Left` on departure).
    pub fn subscribe<S: Subscriber + 'static>(&mut self, subscriber: S) {
        self.world.subscribers.subscribe(Box::new(subscriber));
    }

    /// Opens a drainable stream of this simulation's [`RateEvent`]s.
    pub fn rate_events(&mut self) -> RateEvents {
        let (events, writer) = RateEvents::channel();
        self.world.subscribers.subscribe(writer);
        events
    }

    /// Runs the simulation up to `horizon` (the baselines never go quiescent,
    /// so an unbounded run would not terminate while sessions are active).
    /// Returns the engine's report of the run.
    pub fn run_until(&mut self, horizon: SimTime) -> RunReport {
        self.engine.run_until(&mut self.world, horizon)
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// `true` when no protocol packet or timer is pending (only happens once
    /// every session has left).
    pub fn is_quiescent(&self) -> bool {
        self.engine.is_quiescent()
    }

    /// The rate each active session is currently using.
    pub fn current_rates(&self) -> Allocation {
        self.world
            .arena
            .collect_rates(|slot| Some(self.world.current[slot as usize]))
    }

    /// The active sessions and their paths/limits, for feeding the oracle.
    pub fn session_set(&self) -> SessionSet {
        self.world.arena.session_set()
    }

    /// Number of currently active sessions.
    pub fn active_count(&self) -> usize {
        self.world.arena.active_count()
    }

    /// Cumulative packet counts by kind: `Probe`, `Response` and `Leave`,
    /// one per link traversal, the kinds the packet subscribers see.
    pub fn stats(&self) -> PacketStats {
        self.world.stats
    }
}

impl<'a, P: BaselineProtocol> ScheduleTarget for BaselineSimulation<'a, P> {
    fn apply_join(&mut self, at: SimTime, request: &SessionRequest) -> bool {
        self.join_with_path(at, request.session, request.path.clone(), request.limit)
    }

    fn apply_leave(&mut self, at: SimTime, session: SessionId) -> bool {
        self.leave(at, session).is_ok()
    }

    fn apply_change(&mut self, at: SimTime, session: SessionId, limit: RateLimit) -> bool {
        self.change(at, session, limit).is_ok()
    }
}

impl<'a, P: BaselineProtocol> ProtocolWorld for BaselineSimulation<'a, P> {
    fn protocol_name(&self) -> &'static str {
        self.name
    }

    fn current_rates(&self) -> Allocation {
        BaselineSimulation::current_rates(self)
    }

    fn goes_quiescent(&self) -> bool {
        false
    }

    fn packets_sent(&self) -> u64 {
        self.world.stats.total()
    }

    fn convergence_tolerance_pct(&self) -> Option<f64> {
        Some(self.world.protocol.mean_error_tolerance_pct())
    }

    fn run_to(&mut self, horizon: SimTime) -> QuiescenceReport {
        self.run_until(horizon).into()
    }

    fn is_quiescent(&self) -> bool {
        BaselineSimulation::is_quiescent(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial protocol granting every session the full link capacity;
    /// exercises the harness plumbing independently of the real baselines.
    #[derive(Debug, Clone, Copy)]
    struct GrantAll;

    struct GrantAllController {
        capacity: Rate,
        seen: usize,
        left: usize,
    }

    impl LinkController for GrantAllController {
        fn on_probe(&mut self, _s: SessionId, _d: Rate, _c: Rate, _now: SimTime) -> Rate {
            self.seen += 1;
            self.capacity
        }
        fn on_leave(&mut self, _s: SessionId) {
            self.left += 1;
        }
    }

    impl BaselineProtocol for GrantAll {
        type Controller = GrantAllController;
        fn name(&self) -> &'static str {
            "grant-all"
        }
        fn controller(&self, capacity: Rate) -> GrantAllController {
            GrantAllController {
                capacity,
                seen: 0,
                left: 0,
            }
        }
        fn probe_interval(&self) -> bneck_net::Delay {
            bneck_net::Delay::from_millis(1)
        }
        fn mean_error_tolerance_pct(&self) -> f64 {
            // Grants everything: arbitrarily far from max-min by design.
            100.0
        }
    }

    fn network() -> Network {
        bneck_net::topology::synthetic::dumbbell(
            2,
            bneck_net::Capacity::from_mbps(100.0),
            bneck_net::Capacity::from_mbps(60.0),
            bneck_net::Delay::from_micros(1),
        )
    }

    #[test]
    fn probing_is_periodic_and_never_stops() {
        let net = network();
        let hosts: Vec<_> = net.hosts().map(|h| h.id()).collect();
        let mut sim = BaselineSimulation::new(&net, GrantAll);
        assert!(sim.join(
            SimTime::ZERO,
            SessionId(0),
            hosts[0],
            hosts[1],
            RateLimit::unlimited()
        ));
        sim.run_until(SimTime::from_millis(10));
        let after_10ms = sim.stats();
        assert!(after_10ms.count(PacketKind::Probe) > 0);
        assert!(after_10ms.count(PacketKind::Response) > 0);
        assert!(!sim.is_quiescent(), "baselines keep probing forever");
        sim.run_until(SimTime::from_millis(20));
        assert!(
            sim.stats().count(PacketKind::Probe) > after_10ms.count(PacketKind::Probe),
            "traffic keeps flowing after convergence"
        );
        // The session is granted the minimum capacity along its path.
        let rate = sim.current_rates().rate(SessionId(0)).unwrap();
        assert!((rate - 60e6).abs() < 1.0);
    }

    #[test]
    fn leave_stops_the_sessions_probing() {
        let net = network();
        let hosts: Vec<_> = net.hosts().map(|h| h.id()).collect();
        let mut sim = BaselineSimulation::new(&net, GrantAll);
        sim.join(
            SimTime::ZERO,
            SessionId(0),
            hosts[0],
            hosts[1],
            RateLimit::unlimited(),
        );
        sim.run_until(SimTime::from_millis(5));
        assert!(sim.leave(SimTime::from_millis(6), SessionId(0)).is_ok());
        sim.run_until(SimTime::from_millis(30));
        assert_eq!(sim.active_count(), 0);
        assert!(sim.current_rates().is_empty());
        assert!(
            sim.is_quiescent(),
            "with no active session the probing dies out"
        );
        assert!(sim.stats().count(PacketKind::Leave) > 0);
    }

    #[test]
    fn stray_packets_from_a_previous_incarnation_are_dropped() {
        // A session on a long path leaves mid-probe and rejoins with the
        // same identifier on a short path; in-flight probes and responses of
        // the old incarnation carry hops beyond the new path and must be
        // dropped, not indexed.
        use bneck_net::prelude::*;
        let mut b = NetworkBuilder::new();
        let r0 = b.add_router();
        let r1 = b.add_router();
        let r2 = b.add_router();
        let r3 = b.add_router();
        b.connect(r0, r1, Capacity::from_mbps(100.0), Delay::from_micros(1));
        b.connect(r1, r2, Capacity::from_mbps(100.0), Delay::from_micros(1));
        b.connect(r2, r3, Capacity::from_mbps(100.0), Delay::from_micros(1));
        let h0 = b.add_host(r0, Capacity::from_mbps(100.0), Delay::from_micros(1));
        let h1 = b.add_host(r3, Capacity::from_mbps(50.0), Delay::from_micros(1));
        let h2 = b.add_host(r0, Capacity::from_mbps(80.0), Delay::from_micros(1));
        let net = b.build();
        let mut sim = BaselineSimulation::new(&net, GrantAll);
        for probe_us in 1..12u64 {
            let start = sim.now() + Delay::from_micros(1);
            assert!(sim.join(start, SessionId(0), h0, h1, RateLimit::unlimited()));
            sim.run_until(start + Delay::from_micros(probe_us));
            // Leave and rejoin immediately along the 2-link path while the
            // long-path probe train may still be in flight.
            let t = sim.now() + Delay::from_nanos(1);
            assert!(sim.leave(t, SessionId(0)).is_ok());
            sim.run_until(t + Delay::from_nanos(2));
            assert!(sim.join(
                sim.now() + Delay::from_nanos(1),
                SessionId(0),
                h0,
                h2,
                RateLimit::unlimited()
            ));
            sim.run_until(sim.now() + Delay::from_millis(2));
            let rate = sim.current_rates().rate(SessionId(0)).unwrap();
            assert!((rate - 80e6).abs() < 1.0, "short path rate, got {rate}");
            let t = sim.now() + Delay::from_micros(1);
            assert!(sim.leave(t, SessionId(0)).is_ok());
            sim.run_until(t + Delay::from_millis(1));
        }
    }

    #[test]
    fn rejoin_is_deferred_until_the_departure_notification_has_walked_its_path() {
        // Leave at t1 and try to rejoin at t2 > t1 *before running the
        // engine*: the rejoin must be rejected — the departure notification
        // still has to walk the departing incarnation's path (so every
        // old-path controller gets its `on_leave`), and a rejoin would
        // overwrite that path in the arena. Once the Stop has been
        // processed, the identifier is free to rejoin along a new path.
        let net = network();
        let hosts: Vec<_> = net.hosts().map(|h| h.id()).collect();
        let mut sim = BaselineSimulation::new(&net, GrantAll);
        assert!(sim.join(
            SimTime::ZERO,
            SessionId(0),
            hosts[0],
            hosts[1],
            RateLimit::unlimited()
        ));
        sim.run_until(SimTime::from_millis(2));
        assert!(sim.leave(SimTime::from_millis(3), SessionId(0)).is_ok());
        // The Stop event at 3 ms has not been processed yet.
        assert!(!sim.join(
            SimTime::from_millis(4),
            SessionId(0),
            hosts[2],
            hosts[3],
            RateLimit::unlimited()
        ));
        sim.run_until(SimTime::from_millis(5));
        // Stop processed: the old path received its leave notifications and
        // the identifier can rejoin.
        assert!(sim.stats().count(PacketKind::Leave) > 0);
        assert!(sim.join(
            SimTime::from_millis(6),
            SessionId(0),
            hosts[2],
            hosts[3],
            RateLimit::unlimited()
        ));
        sim.run_until(SimTime::from_millis(10));
        assert_eq!(sim.active_count(), 1);
        let rate = sim.current_rates().rate(SessionId(0)).unwrap();
        assert!(
            (rate - 60e6).abs() < 1.0,
            "rejoined session probes, got {rate}"
        );
        assert!(!sim.is_quiescent());
    }

    #[test]
    fn join_and_change_validation() {
        let net = network();
        let hosts: Vec<_> = net.hosts().map(|h| h.id()).collect();
        let mut sim = BaselineSimulation::new(&net, GrantAll);
        assert!(!sim.join(
            SimTime::ZERO,
            SessionId(0),
            hosts[0],
            hosts[0],
            RateLimit::unlimited()
        ));
        // A router is not a session endpoint.
        let router = net.routers().next().unwrap().id();
        for (source, destination) in [(router, hosts[1]), (hosts[0], router)] {
            assert!(!sim.join(
                SimTime::ZERO,
                SessionId(0),
                source,
                destination,
                RateLimit::unlimited()
            ));
        }
        assert!(sim.join(
            SimTime::ZERO,
            SessionId(0),
            hosts[0],
            hosts[1],
            RateLimit::unlimited()
        ));
        assert!(!sim.join(
            SimTime::ZERO,
            SessionId(0),
            hosts[2],
            hosts[3],
            RateLimit::unlimited()
        ));
        assert!(sim
            .change(SimTime::ZERO, SessionId(0), RateLimit::finite(5e6))
            .is_ok());
        assert_eq!(
            sim.change(SimTime::ZERO, SessionId(9), RateLimit::finite(5e6)),
            Err(UnknownSession(SessionId(9)))
        );
        assert_eq!(
            sim.leave(SimTime::ZERO, SessionId(9)),
            Err(UnknownSession(SessionId(9)))
        );
        sim.run_until(SimTime::from_millis(5));
        let rate = sim.current_rates().rate(SessionId(0)).unwrap();
        assert!((rate - 5e6).abs() < 1.0, "demand caps the granted rate");
        assert_eq!(sim.protocol_name(), "grant-all");
    }

    #[test]
    fn rate_events_report_adoption_changes_only() {
        let net = network();
        let hosts: Vec<_> = net.hosts().map(|h| h.id()).collect();
        let mut sim = BaselineSimulation::new(&net, GrantAll);
        let events = sim.rate_events();
        sim.join(
            SimTime::ZERO,
            SessionId(0),
            hosts[0],
            hosts[1],
            RateLimit::unlimited(),
        );
        sim.run_until(SimTime::from_millis(10));
        let initial = events.drain();
        // One Joined event for the first grant; unchanged periodic re-grants
        // stay silent even though probing continues.
        assert_eq!(initial.len(), 1);
        assert_eq!(initial[0].cause, RateCause::Joined);
        assert!((initial[0].rate - 60e6).abs() < 1.0);
        sim.run_until(SimTime::from_millis(20));
        assert!(events.is_empty(), "steady probing emits no events");
        // A change re-notifies once the next probe adopts the new demand.
        sim.change(
            SimTime::from_millis(20),
            SessionId(0),
            RateLimit::finite(5e6),
        )
        .unwrap();
        sim.run_until(SimTime::from_millis(25));
        let after_change = events.drain();
        assert_eq!(after_change[0].cause, RateCause::Changed);
        assert!((after_change[0].rate - 5e6).abs() < 1.0);
        // Departure emits the Left marker with the last used rate.
        sim.leave(SimTime::from_millis(26), SessionId(0)).unwrap();
        sim.run_until(SimTime::from_millis(30));
        let after_leave = events.drain();
        assert_eq!(after_leave.len(), 1);
        assert_eq!(after_leave[0].cause, RateCause::Left);
        assert!((after_leave[0].rate - 5e6).abs() < 1.0);
    }

    #[test]
    fn a_change_takes_effect_at_its_time_not_at_the_call() {
        let net = network();
        let hosts: Vec<_> = net.hosts().map(|h| h.id()).collect();
        let mut sim = BaselineSimulation::new(&net, crate::Bfyz::default());
        let events = sim.rate_events();
        let (session, limit) = (SessionId(0), RateLimit::finite(5e6));
        assert!(sim.join(
            SimTime::ZERO,
            session,
            hosts[0],
            hosts[1],
            RateLimit::unlimited()
        ));
        sim.change(SimTime::from_millis(50), session, limit)
            .unwrap();
        // The schedule's end state shows at once; the probes wait for 50 ms.
        assert_eq!(sim.session_set().get(session).unwrap().limit(), limit);
        sim.run_until(SimTime::from_millis(20));
        let rate = sim.current_rates().rate(session).unwrap();
        assert!(
            (rate - 60e6).abs() < 1.0,
            "no change before 50 ms, got {rate}"
        );
        assert_eq!(events.drain()[0].cause, RateCause::Joined);
        sim.run_until(SimTime::from_millis(60));
        let rate = sim.current_rates().rate(session).unwrap();
        assert!((rate - 5e6).abs() < 1.0, "changed after 50 ms, got {rate}");
        let changed = events.drain();
        assert_eq!(changed[0].cause, RateCause::Changed);
        assert!(changed[0].at >= SimTime::from_millis(50));
    }

    #[test]
    fn stats_count_the_packets_the_subscribers_see() {
        use std::sync::{Arc, Mutex};
        struct Tally(Arc<Mutex<PacketStats>>);
        impl Subscriber for Tally {
            fn on_rate(&mut self, _event: &RateEvent) {}
            fn on_packet(&mut self, _at: SimTime, kind: PacketKind) {
                self.0.lock().unwrap().record(kind);
            }
            fn wants_packets(&self) -> bool {
                true
            }
        }
        let net = network();
        let hosts: Vec<_> = net.hosts().map(|h| h.id()).collect();
        let mut sim = BaselineSimulation::new(&net, crate::Bfyz::default());
        let seen = Arc::new(Mutex::new(PacketStats::new()));
        sim.subscribe(Tally(Arc::clone(&seen)));
        let session = SessionId(0);
        assert!(sim.join(
            SimTime::ZERO,
            session,
            hosts[0],
            hosts[1],
            RateLimit::unlimited()
        ));
        sim.leave(SimTime::from_millis(5), session).unwrap();
        sim.run_until(SimTime::from_millis(6));
        assert!(sim.join(
            SimTime::from_millis(7),
            session,
            hosts[2],
            hosts[3],
            RateLimit::unlimited()
        ));
        sim.run_until(SimTime::from_millis(12));
        let (stats, seen) = (sim.stats(), *seen.lock().unwrap());
        for (kind, count) in stats.iter() {
            assert_eq!(seen.count(kind), count, "{kind}");
        }
        for kind in [PacketKind::Probe, PacketKind::Response, PacketKind::Leave] {
            assert!(stats.count(kind) > 0, "{kind}");
        }
        assert_eq!(stats.total(), ProtocolWorld::packets_sent(&sim));
    }

    #[test]
    fn a_built_baseline_is_a_send_unit_behind_the_unified_trait() {
        fn assert_send<T: Send>(_: &T) {}
        let net = network();
        let hosts: Vec<_> = net.hosts().map(|h| h.id()).collect();
        let mut sim = BaselineSimulation::new(&net, GrantAll);
        assert_send(&sim);
        sim.join(
            SimTime::ZERO,
            SessionId(0),
            hosts[0],
            hosts[1],
            RateLimit::unlimited(),
        );
        let world: &mut dyn ProtocolWorld = &mut sim;
        assert_eq!(world.protocol_name(), "grant-all");
        assert!(!world.goes_quiescent());
        assert_eq!(world.convergence_tolerance_pct(), Some(100.0));
        let report = world.run_to(SimTime::from_millis(5));
        assert!(!report.quiescent, "probing continues past any horizon");
        assert!(world.packets_sent() > 0);
        assert!(!world.is_quiescent());
        assert_eq!(world.current_rates().len(), 1);
        assert_eq!(sim.session_set().len(), 1);
    }

    #[test]
    fn leave_and_change_on_a_departing_session_return_unknown_session() {
        // Once `leave` is accepted, the session's Stop/Left marker is queued
        // but not yet processed. A second leave or a change in that window
        // must fail with the same typed `UnknownSession` the B-Neck harness
        // returns — not silently succeed against a dying incarnation.
        let net = network();
        let hosts: Vec<_> = net.hosts().map(|h| h.id()).collect();
        let mut sim = BaselineSimulation::new(&net, GrantAll);
        assert!(sim.join(
            SimTime::ZERO,
            SessionId(0),
            hosts[0],
            hosts[1],
            RateLimit::unlimited()
        ));
        sim.run_until(SimTime::from_millis(2));
        sim.leave(SimTime::from_millis(3), SessionId(0)).unwrap();
        // The marker is queued; the session is no longer addressable.
        assert_eq!(
            sim.leave(SimTime::from_millis(3), SessionId(0)),
            Err(UnknownSession(SessionId(0)))
        );
        assert_eq!(
            sim.change(
                SimTime::from_millis(3),
                SessionId(0),
                RateLimit::finite(1e6)
            ),
            Err(UnknownSession(SessionId(0)))
        );
        // The queued departure still goes through unharmed.
        sim.run_until(SimTime::from_millis(10));
        assert_eq!(sim.active_count(), 0);
        assert!(sim.is_quiescent());
    }
}
