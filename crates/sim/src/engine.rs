//! The discrete-event engine: event loop, scheduling context and run reports.

use crate::channel::{Channel, ChannelId, ChannelSpec};
use crate::event::EventQueue;
use crate::explore::ScheduleCursor;
use crate::fault::{self, FaultCounters, FaultPlan, FaultState};
use crate::time::SimTime;
use bneck_net::Delay;
use std::fmt;

/// An opaque endpoint that can receive messages.
///
/// The protocol harness decides what addresses mean (in the B-Neck harness,
/// every directed link task and every source/destination task gets one).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Address(pub u32);

impl Address {
    /// Returns the address as an index usable with per-address vectors.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

/// The protocol under simulation.
///
/// The engine calls [`World::handle`] once per delivered message; the handler
/// runs atomically (mirroring the paper's atomic `when` blocks) and may send
/// further messages through the [`Context`].
pub trait World {
    /// The message type exchanged by the protocol.
    type Message;

    /// Handles the delivery of `msg` to `to` at the context's current time.
    fn handle(&mut self, ctx: &mut Context<'_, Self::Message>, to: Address, msg: Self::Message);
}

/// Scheduling facilities available to a [`World`] while it handles an event.
pub struct Context<'a, M> {
    now: SimTime,
    queue: &'a mut EventQueue<M>,
    channels: &'a mut Vec<Channel>,
    messages_sent: &'a mut u64,
    /// Active fault injection, if any. `None` in paper mode: the pristine
    /// send path pays one never-taken null check and nothing else.
    faults: Option<&'a mut FaultState<M>>,
}

impl<'a, M> Context<'a, M> {
    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Sends `msg` to `to` through `channel`, modeling the channel's FIFO
    /// transmission and propagation delays.
    ///
    /// # Panics
    ///
    /// Panics if `channel` was not registered with the engine.
    pub fn send(&mut self, channel: ChannelId, to: Address, msg: M) {
        if self.faults.is_some() {
            return self.send_faulty(channel, to, msg);
        }
        let ch = &mut self.channels[channel.index()];
        let arrival = ch.accept(self.now);
        let key = crate::event::channel_seq(channel.0, ch.sent);
        *self.messages_sent += 1;
        self.queue.push_channel(arrival, key, to, msg);
    }

    /// The faulty arm of [`Context::send`]: rolls the message against the
    /// active [`FaultPlan`]. Kept out of line so paper-mode runs carry none
    /// of this code on the send path.
    #[cold]
    #[inline(never)]
    fn send_faulty(&mut self, channel: ChannelId, to: Address, msg: M) {
        let faults = self.faults.as_deref_mut().expect("checked by the caller");
        let plan = faults.plan;
        let ch = &mut self.channels[channel.index()];
        let arrival = ch.accept(self.now);
        *self.messages_sent += 1;
        // The channel's send counter is the per-packet nonce: deterministic,
        // thread-independent, unique per (channel, transmission). It is also
        // the event's canonical sequence word.
        let send = ch.sent;
        let key = crate::event::channel_seq(channel.0, send);
        let flight_ns = ch.flight().as_nanos().max(1);
        let dropped = plan.drop > 0.0
            && fault::roll(plan.seed, channel.0, send, fault::SALT_DROP) < plan.drop;
        let duplicated = plan.duplicate > 0.0
            && fault::roll(plan.seed, channel.0, send, fault::SALT_DUP) < plan.duplicate;
        let jitter_ns = if plan.reorder > 0.0
            && fault::roll(plan.seed, channel.0, send, fault::SALT_REORDER) < plan.reorder
        {
            fault::roll_window(plan.seed, channel.0, send, plan.reorder_window) * flight_ns
        } else {
            0
        };
        let counters = faults.counters_mut(channel.index());
        if dropped {
            counters.dropped += 1;
        }
        if duplicated {
            counters.duplicated += 1;
        }
        if !dropped && jitter_ns > 0 {
            counters.delayed += 1;
        }
        let copy = duplicated.then(|| (faults.clone)(&msg));
        if let Some(copy) = copy {
            // The copy is serialized right behind the original, so it always
            // arrives strictly later (a retransmitting NIC, not magic); the
            // second `accept` gives it its own transmission number and key.
            let ch = &mut self.channels[channel.index()];
            let dup_arrival = ch.accept(self.now);
            let dup_key = crate::event::channel_seq(channel.0, ch.sent);
            *self.messages_sent += 1;
            self.queue.push_channel(dup_arrival, dup_key, to, copy);
        }
        if !dropped {
            let at = SimTime::from_nanos(arrival.as_nanos() + jitter_ns);
            self.queue.push_channel(at, key, to, msg);
        }
    }

    /// Schedules `msg` for delivery to `to` after `delay`, without involving
    /// any channel (used for timers and locally generated events).
    pub fn schedule_after(&mut self, delay: Delay, to: Address, msg: M) {
        self.queue.push_timer(self.now + delay, to, msg);
    }

    /// Delivers `msg` to `to` at the current time, after all events already
    /// scheduled for this instant.
    pub fn deliver_now(&mut self, to: Address, msg: M) {
        debug_assert_eq!(self.now, self.queue.now_time());
        self.queue.push_now(to, msg);
    }
}

/// Summary of an [`Engine::run`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunReport {
    /// Number of events delivered to the world during this run.
    pub events_processed: u64,
    /// Number of messages sent through channels during this run.
    pub messages_sent: u64,
    /// Time of the last processed event; if no event was processed this is
    /// the time the run started at.
    pub quiescent_at: SimTime,
    /// `true` if the run ended because the event queue drained (quiescence),
    /// `false` if it stopped at a time horizon with work still pending.
    pub quiescent: bool,
}

/// The discrete-event simulation engine.
///
/// See the crate-level documentation for an end-to-end example.
#[derive(Debug)]
pub struct Engine<M> {
    now: SimTime,
    queue: EventQueue<M>,
    channels: Vec<Channel>,
    messages_sent: u64,
    events_processed: u64,
    /// Fault injection state; `None` (paper mode) keeps the send path
    /// pristine. Boxed so the engine itself stays small and the faulty
    /// state is one pointer away only when a plan is installed.
    faults: Option<Box<FaultState<M>>>,
}

impl<M> Default for Engine<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> Engine<M> {
    /// Creates an engine at time zero with no channels and no pending events.
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            queue: EventQueue::default(),
            channels: Vec::new(),
            messages_sent: 0,
            events_processed: 0,
            faults: None,
        }
    }

    /// Installs a seeded fault plan: every subsequent channel send rolls
    /// against it (drop, duplicate, delay jitter). Runs are bit-identical
    /// given the same `(seed, plan)` — decisions are a stateless hash of the
    /// plan seed, the channel and the channel's send counter. Timers and
    /// injected events are never perturbed.
    pub fn set_fault_plan(&mut self, plan: FaultPlan)
    where
        M: Clone,
    {
        self.faults = Some(Box::new(FaultState {
            plan,
            counters: Vec::new(),
            clone: |m| m.clone(),
        }));
    }

    /// The active fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_deref().map(|f| &f.plan)
    }

    /// Sum of the injected-fault counters over every channel.
    pub fn fault_totals(&self) -> FaultCounters {
        let mut total = FaultCounters::default();
        if let Some(f) = self.faults.as_deref() {
            for c in &f.counters {
                total.absorb(*c);
            }
        }
        total
    }

    /// Per-channel injected-fault counters, restricted to channels that saw
    /// at least one fault (the diagnosable artifact for reports).
    pub fn fault_breakdown(&self) -> Vec<(ChannelId, FaultCounters)> {
        match self.faults.as_deref() {
            None => Vec::new(),
            Some(f) => f
                .counters
                .iter()
                .enumerate()
                .filter(|(_, c)| c.total() > 0)
                .map(|(i, c)| (ChannelId(i as u32), *c))
                .collect(),
        }
    }

    /// Registers a channel and returns its identifier.
    ///
    /// # Panics
    ///
    /// Panics if 2^30 channels are already registered: channel identifiers
    /// must fit the 30-bit field of the canonical sequence word (see
    /// [`crate::event`]), and aliased identifiers would corrupt the
    /// deterministic same-instant delivery order.
    pub fn add_channel(&mut self, spec: ChannelSpec) -> ChannelId {
        assert!(
            self.channels.len() < (1 << 30),
            "channel identifiers overflow the 30-bit sequence-key field"
        );
        let id = ChannelId(self.channels.len() as u32);
        self.channels.push(Channel::new(spec));
        id
    }

    /// Number of registered channels.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// The current simulated time (time of the last processed event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events waiting in the queue.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// `true` when no event is pending: the simulated network is quiescent.
    pub fn is_quiescent(&self) -> bool {
        self.queue.is_empty()
    }

    /// Injects an external event (for example an `API.Join` call from the
    /// workload) for delivery to `to` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the simulated past.
    pub fn inject(&mut self, at: SimTime, to: Address, msg: M) {
        assert!(at >= self.now, "cannot inject an event in the past");
        self.queue.push_injected(at, to, msg);
    }

    /// Runs until the event queue is empty, returning a report whose
    /// `quiescent_at` is the timestamp of the last processed event.
    pub fn run<W: World<Message = M>>(&mut self, world: &mut W) -> RunReport {
        self.run_until(world, SimTime::MAX)
    }

    /// Processes exactly the next pending event, advancing the clock to its
    /// timestamp. Returns `false` (leaving the clock untouched) when the
    /// queue is empty.
    pub fn step<W: World<Message = M>>(&mut self, world: &mut W) -> bool {
        match self.queue.pop_at_most(SimTime::MAX) {
            Some(event) => {
                self.process(world, event);
                true
            }
            None => false,
        }
    }

    /// Delivers one popped event: advances the clock and hands the message to
    /// the world with a scheduling context (shared by [`Engine::step`] and
    /// [`Engine::run_until`], so the two can never diverge).
    fn process<W: World<Message = M>>(&mut self, world: &mut W, event: crate::event::Event<M>) {
        debug_assert!(event.at >= self.now, "time must not go backwards");
        self.now = event.at;
        self.events_processed += 1;
        let mut ctx = Context {
            now: self.now,
            queue: &mut self.queue,
            channels: &mut self.channels,
            messages_sent: &mut self.messages_sent,
            faults: self.faults.as_deref_mut(),
        };
        world.handle(&mut ctx, event.to, event.msg);
    }

    /// Delivers the next pending event *chosen by the cursor* among the
    /// same-instant head group: where [`Engine::step`] always takes the
    /// canonical FIFO head, this hands every event scheduled at the head
    /// timestamp to the [`ScheduleCursor`] as one choice point and delivers
    /// the member it picks (the rest keep their relative order). Driving a
    /// whole run this way executes one *schedule* of the interleaving
    /// explorer (see [`crate::explore`]). Returns `false` when quiescent.
    pub fn step_explored<W: World<Message = M>>(
        &mut self,
        world: &mut W,
        cursor: &mut ScheduleCursor,
    ) -> bool {
        let mut group: Vec<(Address, M)> = Vec::new();
        self.queue.drain_head_group(&mut group);
        if group.is_empty() {
            return false;
        }
        let pick = if group.len() > 1 {
            cursor.choose(group.len())
        } else {
            0
        };
        let at = self.queue.now_time();
        let (to, msg) = group.remove(pick);
        for (to, msg) in group {
            // Re-pushed at the current instant: fresh `CLASS_NOW` words
            // preserve the group's relative order, and anything a handler
            // then schedules at the instant sorts behind them.
            self.queue.push_now(to, msg);
        }
        self.process(
            world,
            crate::event::Event {
                at,
                seq: 0,
                to,
                msg,
            },
        );
        true
    }

    /// Runs until the event queue is empty or the next event is strictly after
    /// `horizon`. Events at exactly `horizon` are processed. When the run
    /// stops at the horizon, the engine's clock is advanced to `horizon` so a
    /// subsequent run continues from there.
    pub fn run_until<W: World<Message = M>>(
        &mut self,
        world: &mut W,
        horizon: SimTime,
    ) -> RunReport {
        let start_events = self.events_processed;
        let start_messages = self.messages_sent;
        let mut last_event_time = self.now;
        while let Some(event) = self.queue.pop_at_most(horizon) {
            last_event_time = event.at;
            self.process(world, event);
        }
        let quiescent = self.queue.is_empty();
        if !quiescent && horizon != SimTime::MAX && horizon > self.now {
            self.now = horizon;
        }
        RunReport {
            events_processed: self.events_processed - start_events,
            messages_sent: self.messages_sent - start_messages,
            quiescent_at: last_event_time,
            quiescent,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ping-pongs a counter between two addresses over two channels until it
    /// reaches a limit.
    struct PingPong {
        limit: u32,
        log: Vec<(u64, Address, u32)>,
        forward: ChannelId,
        backward: ChannelId,
    }

    impl World for PingPong {
        type Message = u32;
        fn handle(&mut self, ctx: &mut Context<'_, u32>, to: Address, msg: u32) {
            self.log.push((ctx.now().as_nanos(), to, msg));
            if msg >= self.limit {
                return;
            }
            let (ch, next) = if to == Address(0) {
                (self.forward, Address(1))
            } else {
                (self.backward, Address(0))
            };
            ctx.send(ch, next, msg + 1);
        }
    }

    fn engine_with_two_channels() -> (Engine<u32>, ChannelId, ChannelId) {
        let mut engine = Engine::new();
        let spec = ChannelSpec::new(1e9, Delay::from_micros(10), 1000);
        let f = engine.add_channel(spec);
        let b = engine.add_channel(spec);
        (engine, f, b)
    }

    #[test]
    fn runs_to_quiescence_and_reports_time() {
        let (mut engine, f, b) = engine_with_two_channels();
        let mut world = PingPong {
            limit: 4,
            log: Vec::new(),
            forward: f,
            backward: b,
        };
        engine.inject(SimTime::ZERO, Address(0), 0);
        let report = engine.run(&mut world);
        assert!(report.quiescent);
        assert_eq!(report.events_processed, 5); // msgs 0..=4 delivered
        assert_eq!(report.messages_sent, 4);
        // Each hop takes 1 us transmission + 10 us propagation.
        assert_eq!(report.quiescent_at, SimTime::from_micros(44));
        assert!(engine.is_quiescent());
        assert_eq!(engine.channels[f.index()].sent, 2);
        assert_eq!(engine.channels[b.index()].sent, 2);
    }

    #[test]
    fn horizon_stops_and_resumes() {
        let (mut engine, f, b) = engine_with_two_channels();
        let mut world = PingPong {
            limit: 4,
            log: Vec::new(),
            forward: f,
            backward: b,
        };
        engine.inject(SimTime::ZERO, Address(0), 0);
        let first = engine.run_until(&mut world, SimTime::from_micros(20));
        assert!(!first.quiescent);
        assert!(engine.pending_events() > 0);
        assert_eq!(engine.now(), SimTime::from_micros(20));
        let second = engine.run(&mut world);
        assert!(second.quiescent);
        assert_eq!(
            first.events_processed + second.events_processed,
            5,
            "split runs must process the same events as a single run"
        );
    }

    #[test]
    fn timers_do_not_use_channels() {
        struct Timers {
            fired: Vec<u64>,
        }
        impl World for Timers {
            type Message = &'static str;
            fn handle(
                &mut self,
                ctx: &mut Context<'_, &'static str>,
                _to: Address,
                msg: &'static str,
            ) {
                self.fired.push(ctx.now().as_micros());
                if msg == "start" {
                    ctx.schedule_after(Delay::from_micros(7), Address(0), "later");
                    ctx.deliver_now(Address(0), "now");
                }
            }
        }
        let mut engine: Engine<&'static str> = Engine::new();
        let mut world = Timers { fired: Vec::new() };
        engine.inject(SimTime::from_micros(1), Address(0), "start");
        let report = engine.run(&mut world);
        assert_eq!(world.fired, vec![1, 1, 8]);
        assert_eq!(report.messages_sent, 0);
        assert_eq!(report.events_processed, 3);
    }

    #[test]
    fn empty_run_is_quiescent_immediately() {
        let mut engine: Engine<()> = Engine::new();
        struct Nop;
        impl World for Nop {
            type Message = ();
            fn handle(&mut self, _ctx: &mut Context<'_, ()>, _to: Address, _msg: ()) {}
        }
        let report = engine.run(&mut Nop);
        assert!(report.quiescent);
        assert_eq!(report.events_processed, 0);
        assert_eq!(report.quiescent_at, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn injecting_in_the_past_panics() {
        let (mut engine, f, b) = engine_with_two_channels();
        let mut world = PingPong {
            limit: 1,
            log: Vec::new(),
            forward: f,
            backward: b,
        };
        engine.inject(SimTime::from_micros(100), Address(0), 0);
        engine.run(&mut world);
        engine.inject(SimTime::from_micros(1), Address(0), 0);
    }

    /// A world whose first generation fans out same-instant follow-ups and
    /// channel sends, logging every delivery.
    struct FanOut {
        log: Vec<(u64, u32, u32)>,
        forward: ChannelId,
    }

    impl World for FanOut {
        type Message = u32;
        fn handle(&mut self, ctx: &mut Context<'_, u32>, to: Address, msg: u32) {
            self.log.push((ctx.now().as_nanos(), to.0, msg));
            if msg < 10 {
                ctx.deliver_now(Address(msg / 5), msg + 10);
                ctx.send(self.forward, Address(2), msg + 100);
            }
        }
    }

    #[test]
    fn run_and_step_by_step_deliver_the_same_log() {
        let build = || {
            let mut engine = Engine::new();
            let forward = engine.add_channel(ChannelSpec::new(1e9, Delay::from_micros(10), 1000));
            for i in 0..10u32 {
                engine.inject(SimTime::from_micros(1), Address(9), i);
            }
            let world = FanOut {
                log: Vec::new(),
                forward,
            };
            (engine, world)
        };
        let (mut engine, mut stepped) = build();
        let mut steps = 0u64;
        while engine.step(&mut stepped) {
            steps += 1;
        }
        let (mut engine, mut ran) = build();
        let report = engine.run(&mut ran);
        assert_eq!(ran.log, stepped.log);
        assert_eq!(report.events_processed, steps);
        assert_eq!(steps, 30, "10 seeds, 10 same-instant and 10 channel events");
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let run = || {
            let (mut engine, f, b) = engine_with_two_channels();
            let mut world = PingPong {
                limit: 10,
                log: Vec::new(),
                forward: f,
                backward: b,
            };
            engine.inject(SimTime::ZERO, Address(0), 0);
            engine.run(&mut world);
            world.log
        };
        assert_eq!(run(), run());
    }

    /// A world that floods one channel with `count` messages and records
    /// every delivery (for fault-injection assertions).
    struct Flood {
        count: u32,
        channel: ChannelId,
        delivered: Vec<(u64, u32)>,
    }

    impl World for Flood {
        type Message = u32;
        fn handle(&mut self, ctx: &mut Context<'_, u32>, to: Address, msg: u32) {
            if to == Address(0) {
                for i in 0..self.count {
                    ctx.send(self.channel, Address(1), i);
                }
            } else {
                self.delivered.push((ctx.now().as_nanos(), msg));
            }
        }
    }

    fn faulty_flood(plan: Option<FaultPlan>, count: u32) -> (Engine<u32>, Flood) {
        let mut engine = Engine::new();
        let channel = engine.add_channel(ChannelSpec::new(1e9, Delay::from_micros(10), 1000));
        if let Some(plan) = plan {
            engine.set_fault_plan(plan);
        }
        let mut world = Flood {
            count,
            channel,
            delivered: Vec::new(),
        };
        engine.inject(SimTime::ZERO, Address(0), 0);
        engine.run(&mut world);
        (engine, world)
    }

    #[test]
    fn a_noop_plan_changes_nothing() {
        let (_, clean) = faulty_flood(None, 50);
        let (engine, faulted) = faulty_flood(Some(FaultPlan::new(1, 0.0, 0.0, 0.0, 0)), 50);
        assert_eq!(clean.delivered, faulted.delivered);
        assert_eq!(engine.fault_totals(), FaultCounters::default());
        assert!(engine.fault_plan().is_some());
    }

    #[test]
    fn drops_remove_deliveries_and_are_counted() {
        let plan = FaultPlan::new(7, 0.3, 0.0, 0.0, 0);
        let (engine, world) = faulty_flood(Some(plan), 200);
        let totals = engine.fault_totals();
        assert!(totals.dropped > 0, "a 30% plan over 200 sends drops some");
        assert_eq!(world.delivered.len() as u64, 200 - totals.dropped);
        assert_eq!(engine.fault_breakdown(), [(ChannelId(0), totals)]);
        // Dropped messages still occupied the transmitter.
        assert_eq!(engine.channels[0].sent, 200);
    }

    #[test]
    fn duplicates_add_deliveries_and_are_counted() {
        let plan = FaultPlan::new(7, 0.0, 0.25, 0.0, 0);
        let (engine, world) = faulty_flood(Some(plan), 200);
        let totals = engine.fault_totals();
        assert!(totals.duplicated > 0);
        assert_eq!(world.delivered.len() as u64, 200 + totals.duplicated);
    }

    #[test]
    fn reorder_jitter_lets_later_packets_overtake() {
        let plan = FaultPlan::new(11, 0.0, 0.0, 0.5, 4);
        let (engine, world) = faulty_flood(Some(plan), 200);
        let totals = engine.fault_totals();
        assert!(totals.delayed > 0);
        assert_eq!(world.delivered.len(), 200, "jitter never loses a message");
        let payloads: Vec<u32> = world.delivered.iter().map(|&(_, m)| m).collect();
        assert!(
            payloads.windows(2).any(|w| w[0] > w[1]),
            "with heavy jitter some packet overtakes another"
        );
    }

    #[test]
    fn faulty_runs_are_bit_identical_for_the_same_seed_and_plan() {
        let plan = FaultPlan::new(42, 0.05, 0.01, 0.1, 4);
        let (_, a) = faulty_flood(Some(plan), 300);
        let (_, b) = faulty_flood(Some(plan), 300);
        assert_eq!(a.delivered, b.delivered);
        let other = FaultPlan::new(43, 0.05, 0.01, 0.1, 4);
        let (_, c) = faulty_flood(Some(other), 300);
        assert_ne!(a.delivered, c.delivered, "a different seed perturbs runs");
    }

    #[test]
    fn timers_and_injected_events_are_never_perturbed() {
        struct Timers {
            fired: u32,
        }
        impl World for Timers {
            type Message = &'static str;
            fn handle(
                &mut self,
                ctx: &mut Context<'_, &'static str>,
                _to: Address,
                msg: &'static str,
            ) {
                self.fired += 1;
                if msg == "start" {
                    ctx.schedule_after(Delay::from_micros(3), Address(0), "timer");
                    ctx.deliver_now(Address(0), "now");
                }
            }
        }
        let mut engine: Engine<&'static str> = Engine::new();
        engine.set_fault_plan(FaultPlan::new(1, 1.0, 0.0, 0.0, 0));
        let mut world = Timers { fired: 0 };
        engine.inject(SimTime::ZERO, Address(0), "start");
        engine.run(&mut world);
        assert_eq!(world.fired, 3, "a drop-everything plan spares timers");
        assert_eq!(engine.fault_totals(), FaultCounters::default());
    }
}
