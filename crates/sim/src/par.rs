//! Conservative (lookahead-based) parallel discrete-event engine.
//!
//! [`ShardedEngine`] runs one simulation across several [`Engine`]s, each
//! owning a disjoint slice of the world (a set of routers plus their attached
//! hosts, in the B-Neck partition) and its own calendar queue. Shards run as
//! `Send` units on `std::thread::scope` threads and exchange cross-shard
//! channel deliveries through mailboxes stamped with `(arrival time,
//! canonical sequence word)`.
//!
//! ## The horizon rule
//!
//! This is the classic Chandy–Misra–Bryant conservative scheme: physical link
//! latency is the lookahead. Every channel's flight time (transmission +
//! propagation) is strictly positive, so a message sent by shard `p` at its
//! clock `c_p` cannot arrive before `c_p + L(p, k)`, where `L(p, k)` is the
//! minimum flight time over channels crossing from `p` into `k`. Shard `k`
//! may therefore safely process every event strictly below
//!
//! ```text
//! safe(k) = min over peers p of ( clock(p) + L(p, k) )
//! ```
//!
//! Each worker loops: read peer clocks, drain inbound mailboxes, run the
//! shard's serial engine up to `safe(k) - 1` (the event loop of
//! [`Engine::run_until`], shared, not duplicated), flush outbound
//! sends, then publish its own clock `min(local head, safe(k))`. Clocks are
//! monotone and every publish happens after the matching mailbox flush, so a
//! reader that observes a clock value also observes every message sent before
//! it — arrivals never land in a shard's past.
//!
//! ## Determinism contract
//!
//! Events are globally ordered by `(timestamp, canonical sequence word)`
//! (see [`crate::event`]): channel deliveries are keyed by
//! `(channel, transmission number)` — a property of the simulated network,
//! not of which queue or thread carried them — and injections by one global
//! counter. Same-instant cross-shard deliveries therefore merge back into
//! exactly the serial order, and a run is bit-identical at any shard count.
//!
//! Mailbox occupancy is bounded by the lookahead window itself: a sender can
//! only run `L` nanoseconds ahead of its slowest peer, so at most one
//! window's worth of cross-shard sends is ever in flight.

use crate::channel::ChannelId;
use crate::engine::{Address, Engine, MessageRouter, RunReport, World};
use crate::event::{CLASS_INJECT, CLASS_MASK};
use crate::fault::{FaultCounters, FaultPlan};
use crate::time::SimTime;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// A static partition of the simulated world over shards.
///
/// The implementor owns the address → shard and channel-topology knowledge;
/// the engine only needs destinations resolved and inter-shard lookahead
/// bounds. Implementations must be pure functions of the topology (queried
/// concurrently from every worker).
pub trait Partition<M>: Sync {
    /// Number of shards. Stable for the lifetime of the run.
    fn shards(&self) -> usize;

    /// The shard owning the destination of a message. Every sender of a
    /// given channel must resolve all its deliveries to one shard, and the
    /// answer must be identical from any shard (it is consulted on the
    /// sender's thread).
    fn shard_of(&self, to: Address, msg: &M) -> usize;

    /// Minimum flight time in nanoseconds over channels whose sender lives
    /// on shard `from` and whose receiver lives on shard `to`; `None` when
    /// no channel crosses that pair (the pair then never constrains the
    /// horizon).
    fn lookahead_ns(&self, from: usize, to: usize) -> Option<u64>;
}

/// One cross-shard channel delivery: arrival time and canonical sequence
/// word were computed on the sending shard (the channel's owner).
struct Remote<M> {
    at: SimTime,
    key: u64,
    to: Address,
    msg: M,
}

/// The per-worker cross-shard send collector, installed on the engine as its
/// [`MessageRouter`]: local sends pass through, remote sends accumulate in
/// per-peer outbound buffers flushed once per window.
struct ShardRouter<'a, M, P> {
    me: usize,
    partition: &'a P,
    outbound: Vec<Vec<Remote<M>>>,
}

impl<M, P: Partition<M>> MessageRouter<M> for ShardRouter<'_, M, P> {
    fn try_route(&mut self, at: SimTime, key: u64, to: Address, msg: M) -> Option<M> {
        let shard = self.partition.shard_of(to, &msg);
        if shard == self.me {
            return Some(msg);
        }
        self.outbound[shard].push(Remote { at, key, to, msg });
        None
    }

    fn is_local(&self, to: Address, msg: &M) -> bool {
        self.partition.shard_of(to, msg) == self.me
    }
}

/// Termination-detection ledger, written only under its mutex. A worker
/// claims idleness together with its message totals, and *retracts* the
/// claim (clearing its idle bit) the moment it drains new work; the run is
/// over exactly when every worker's claim stands and the fleet-wide pushed
/// and drained totals agree. An idle bit that is set therefore vouches that
/// its shard has neither drained nor pushed since the matching totals were
/// written — so any in-flight or not-yet-accounted message shows up as a
/// sum mismatch (its push is claimed by the sender, its drain by nobody),
/// and the check can never declare done early.
struct TermState {
    idle: Vec<bool>,
    pushed: Vec<u64>,
    drained: Vec<u64>,
}

/// State shared by all shard workers for one run.
struct Shared<'a, M, P> {
    partition: &'a P,
    /// Published per-shard lower bounds (ns): shard `k` will never again
    /// send a message arriving before `clocks[k] + L(k, ·)`. Monotone.
    clocks: Vec<AtomicU64>,
    /// `mailboxes[to][from]`: single-producer/single-consumer by
    /// construction; the mutex is uncontended except when both endpoints
    /// touch the same box at once.
    mailboxes: Vec<Vec<Mutex<Vec<Remote<M>>>>>,
    term: Mutex<TermState>,
    done: AtomicBool,
    horizon: SimTime,
}

/// A conservative parallel driver over per-shard [`Engine`]s.
///
/// Construction registers the same channel table on every shard (identifiers
/// are global); each channel's transmitter state is only ever touched by the
/// one shard that owns all its senders. Injections are numbered by one
/// global counter so the canonical event order is independent of the shard
/// count; `shards == 1` runs the serial engine directly.
pub struct ShardedEngine<M> {
    engines: Vec<Engine<M>>,
    inject_seq: u64,
}

impl<M> ShardedEngine<M> {
    /// Creates an engine with `shards` empty shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "at least one shard");
        let engines = (0..shards).map(|_| Engine::new()).collect();
        ShardedEngine {
            engines,
            inject_seq: 0,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.engines.len()
    }

    /// The serial engine of one shard (counters, channel state).
    pub fn shard(&self, shard: usize) -> &Engine<M> {
        &self.engines[shard]
    }

    /// Mutable access to one shard's engine, for world construction
    /// (channel registration must happen identically on every shard).
    pub fn shard_mut(&mut self, shard: usize) -> &mut Engine<M> {
        &mut self.engines[shard]
    }

    /// Injects an external event into the shard owning `to`, stamped by the
    /// global injection counter (the canonical order is then independent of
    /// the shard count).
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the simulated past of the target shard.
    pub fn inject(&mut self, shard: usize, at: SimTime, to: Address, msg: M) {
        let seq = CLASS_INJECT | self.inject_seq;
        debug_assert_eq!(seq & CLASS_MASK, CLASS_INJECT, "injection counter overflow");
        self.inject_seq += 1;
        self.engines[shard].inject_keyed(at, seq, to, msg);
    }

    /// Installs the same fault plan on every shard. Fault decisions hash the
    /// `(seed, channel, transmission)` triple, so they are identical at any
    /// shard count.
    pub fn set_fault_plan(&mut self, plan: FaultPlan)
    where
        M: Clone,
    {
        for engine in &mut self.engines {
            engine.set_fault_plan(plan);
        }
    }

    /// The active fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.engines.first().and_then(|e| e.fault_plan())
    }

    /// Fleet-wide injected-fault totals (channels are owned by exactly one
    /// shard, so per-shard counters are disjoint).
    pub fn fault_totals(&self) -> FaultCounters {
        let mut total = FaultCounters::default();
        for engine in &self.engines {
            total.absorb(engine.fault_totals());
        }
        total
    }

    /// Per-channel injected-fault counters over all shards, sorted by
    /// channel (each channel rolls faults on its owning shard only).
    pub fn fault_breakdown(&self) -> Vec<(ChannelId, FaultCounters)> {
        // xlint: allow(HOT001, reason = "post-run fault-report assembly, off the per-event path")
        let mut all: Vec<(ChannelId, FaultCounters)> = Vec::new();
        for engine in &self.engines {
            all.extend(engine.fault_breakdown());
        }
        all.sort_by_key(|(id, _)| *id);
        all
    }

    /// Faults injected on one channel so far.
    pub fn fault_counters(&self, channel: ChannelId) -> FaultCounters {
        let mut total = FaultCounters::default();
        for engine in &self.engines {
            total.absorb(engine.fault_counters(channel));
        }
        total
    }

    /// Total messages sent through one channel (non-zero on its owning shard
    /// only).
    pub fn channel_sent(&self, channel: ChannelId) -> u64 {
        self.engines.iter().map(|e| e.channel_sent(channel)).sum()
    }

    /// Events waiting across all shards.
    pub fn pending_events(&self) -> usize {
        self.engines.iter().map(Engine::pending_events).sum()
    }

    /// `true` when every shard's queue is empty.
    pub fn is_quiescent(&self) -> bool {
        self.engines.iter().all(Engine::is_quiescent)
    }

    /// The current simulated time: the furthest shard clock (all shards are
    /// re-synchronized to one clock at the end of every run).
    pub fn now(&self) -> SimTime {
        self.engines
            .iter()
            .map(Engine::now)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Total events processed across all shards since construction.
    pub fn total_events_processed(&self) -> u64 {
        self.engines
            .iter()
            .map(Engine::total_events_processed)
            .sum()
    }

    /// Total messages sent across all shards since construction.
    pub fn total_messages_sent(&self) -> u64 {
        self.engines.iter().map(Engine::total_messages_sent).sum()
    }

    /// Events processed per shard since construction (the load-balance
    /// diagnostic recorded in scale reports).
    pub fn shard_events(&self) -> Vec<u64> {
        self.engines
            .iter()
            .map(Engine::total_events_processed)
            .collect()
    }

    /// Runs all shards until every queue is empty or holds only events
    /// strictly after `horizon` (events at exactly `horizon` are processed,
    /// matching [`Engine::run_until`]).
    ///
    /// `worlds[k]` is shard `k`'s slice of the world; `partition` resolves
    /// message destinations and lookahead bounds. With one shard this is
    /// exactly the serial engine — no threads, no mailboxes.
    ///
    /// # Panics
    ///
    /// Panics if `worlds` and shards disagree in number, the partition
    /// reports a different shard count, or a shard worker panics.
    pub fn run<W, P>(&mut self, worlds: &mut [W], partition: &P, horizon: SimTime) -> RunReport
    where
        M: Send,
        W: World<Message = M> + Send,
        P: Partition<M> + Sync,
    {
        assert_eq!(worlds.len(), self.engines.len(), "one world per shard");
        assert_eq!(partition.shards(), self.engines.len(), "partition agrees");
        let shards = self.engines.len();
        if shards == 1 {
            return self.engines[0].run_until(&mut worlds[0], horizon);
        }
        let start_events = self.total_events_processed();
        let start_messages = self.total_messages_sent();
        let shared = Shared {
            partition,
            clocks: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            mailboxes: (0..shards)
                // xlint: allow(HOT001, reason = "per-run shared-state setup, not the per-event path")
                .map(|_| (0..shards).map(|_| Mutex::new(Vec::new())).collect())
                .collect(),
            term: Mutex::new(TermState {
                // xlint: allow(HOT001, reason = "per-run shared-state setup, not the per-event path")
                idle: vec![false; shards],
                // xlint: allow(HOT001, reason = "per-run shared-state setup, not the per-event path")
                pushed: vec![0; shards],
                // xlint: allow(HOT001, reason = "per-run shared-state setup, not the per-event path")
                drained: vec![0; shards],
            }),
            done: AtomicBool::new(false),
            horizon,
        };
        let last_event = std::thread::scope(|scope| {
            // xlint: allow(HOT001, reason = "per-run thread spawning, not the per-event path")
            let mut handles = Vec::with_capacity(shards);
            for (me, (engine, world)) in self.engines.iter_mut().zip(worlds.iter_mut()).enumerate()
            {
                let shared = &shared;
                handles.push(scope.spawn(move || worker(me, engine, world, shared)));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .max()
                .unwrap_or(SimTime::ZERO)
        });
        // Re-synchronize the shard clocks: while waiting for termination a
        // shard's clock creeps past the last event (null-message exchange),
        // and the serial engine's contract is `now == last event time` after
        // a quiescent run and `now == horizon` after a bounded one.
        let quiescent = self.is_quiescent();
        let end = if quiescent { last_event } else { horizon };
        for engine in &mut self.engines {
            engine.set_clock(end);
        }
        RunReport {
            events_processed: self.total_events_processed() - start_events,
            messages_sent: self.total_messages_sent() - start_messages,
            quiescent_at: last_event,
            quiescent,
        }
    }
}

/// One shard's event loop: drain, run to the safe horizon, flush, publish,
/// repeat until global termination.
fn worker<M, W, P>(
    me: usize,
    engine: &mut Engine<M>,
    world: &mut W,
    shared: &Shared<'_, M, P>,
) -> SimTime
where
    M: Send,
    W: World<Message = M>,
    P: Partition<M>,
{
    let shards = shared.clocks.len();
    // Lookahead into this shard from each peer; `None` peers can never send
    // here directly and so never constrain the horizon.
    let inbound: Vec<Option<u64>> = (0..shards)
        .map(|p| {
            if p == me {
                None
            } else {
                shared.partition.lookahead_ns(p, me)
            }
        })
        .collect();
    let mut route = ShardRouter {
        me,
        partition: shared.partition,
        // xlint: allow(HOT001, reason = "per-run worker setup; the buffers are reused across events")
        outbound: (0..shards).map(|_| Vec::new()).collect(),
    };
    let mut pushed_total = 0u64;
    let mut drained_total = 0u64;
    let mut last_event = engine.now();
    // The last ledger entry written, to skip the mutex while nothing changed.
    let mut claimed: Option<(u64, u64)> = None;
    // Whether our idle claim currently stands in the ledger. Local mirror of
    // `term.idle[me]` (we are its only writer), so the busy path skips the
    // termination mutex when there is nothing to retract.
    let mut idle_standing = false;
    loop {
        if shared.done.load(Ordering::SeqCst) {
            break;
        }
        // 1. Read peer clocks *before* draining: every message sent before a
        //    clock value was published is visible to the drain below, so the
        //    bound derived from these reads covers everything still in
        //    flight afterwards.
        let mut safe = u64::MAX;
        for (p, lookahead) in inbound.iter().enumerate() {
            if let Some(l) = lookahead {
                let c = shared.clocks[p].load(Ordering::SeqCst);
                safe = safe.min(c.saturating_add((*l).max(1)));
            }
        }
        // 2. Drain inbound mailboxes into the local calendar. (No worker
        //    ever holds a mailbox guard while taking the termination mutex,
        //    so the done check below — which locks mailboxes *while* holding
        //    the termination mutex — cannot deadlock.)
        let mut drained_now = 0u64;
        for (p, boxes) in shared.mailboxes[me].iter().enumerate() {
            if p == me {
                continue;
            }
            let mut mailbox = boxes.lock().expect("mailbox lock poisoned");
            drained_now += mailbox.len() as u64;
            for r in mailbox.drain(..) {
                engine.enqueue_remote(r.at, r.key, r.to, r.msg);
            }
        }
        if drained_now > 0 {
            drained_total += drained_now;
            if idle_standing {
                // The shard is active again: retract the standing idle claim
                // *before* processing the new events. Without this, the stale
                // ledger entry (missing both this drain and the pushes the new
                // events are about to fan out) could balance the fleet-wide
                // sums and declare the run over with a message still in flight.
                let mut term = shared.term.lock().expect("termination lock poisoned");
                term.idle[me] = false;
                idle_standing = false;
            }
        }
        // 3. Run the serial hot path up to the safe horizon (exclusive: we
        //    may process events strictly below `safe`, and `run_until` is
        //    inclusive, hence `safe - 1`).
        let run_to = SimTime::from_nanos(safe.saturating_sub(1).min(shared.horizon.as_nanos()));
        let head = engine.next_event_time();
        let mut processed_now = 0u64;
        if head.is_some_and(|h| h <= run_to) {
            let report = engine.run_until_routed(world, run_to, &mut route);
            processed_now = report.events_processed;
            if report.events_processed > 0 {
                last_event = last_event.max(report.quiescent_at);
            }
        }
        // 4. Flush outbound sends *before* publishing the new clock, so any
        //    reader observing the clock also finds the messages.
        for (p, out) in route.outbound.iter_mut().enumerate() {
            if out.is_empty() {
                continue;
            }
            pushed_total += out.len() as u64;
            let mut mailbox = shared.mailboxes[p][me]
                .lock()
                .expect("mailbox lock poisoned");
            mailbox.append(out);
        }
        // 5. Publish this shard's lower bound: nothing will ever again be
        //    sent from here arriving before `min(local head, safe)` plus the
        //    outgoing lookahead. Monotone by construction; single writer.
        let head_ns = engine.next_event_time().map_or(u64::MAX, |t| t.as_nanos());
        let clock = head_ns.min(safe);
        debug_assert!(
            clock >= shared.clocks[me].load(Ordering::SeqCst),
            "shard clocks must be monotone"
        );
        shared.clocks[me].store(clock, Ordering::SeqCst);
        // 6. Termination: claim idleness (with message totals) when nothing
        //    at or below the horizon remains; the last claimer whose totals
        //    balance the fleet declares the run over.
        let idle = engine
            .next_event_time()
            .map_or(true, |t| t > shared.horizon);
        if idle && claimed != Some((pushed_total, drained_total)) {
            // The totals are monotone, so any drain since the last claim
            // (which retracted the idle bit above) re-enters here and
            // re-claims with current numbers — a retracted bit can never
            // get stuck clear.
            claimed = Some((pushed_total, drained_total));
            idle_standing = true;
            let mut term = shared.term.lock().expect("termination lock poisoned");
            term.idle[me] = true;
            term.pushed[me] = pushed_total;
            term.drained[me] = drained_total;
            if term.idle.iter().all(|&b| b)
                && term.pushed.iter().sum::<u64>() == term.drained.iter().sum::<u64>()
                // Belt and braces behind the accounting argument: an empty
                // fleet of mailboxes is cheap to confirm here (the sums
                // balance at most once per claim) and makes "done with a
                // message in flight" structurally impossible.
                && shared
                    .mailboxes
                    .iter()
                    .flatten()
                    .all(|m| m.lock().expect("mailbox lock poisoned").is_empty())
            {
                shared.done.store(true, Ordering::SeqCst);
                break;
            }
        }
        // A pass that moved nothing — idle, or blocked on a peer's clock
        // below our head — would otherwise spin on the atomics at full
        // speed and starve co-scheduled shards when shards exceed cores.
        if drained_now == 0 && processed_now == 0 {
            std::thread::yield_now();
        }
    }
    last_event
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::ChannelSpec;
    use crate::engine::Context;
    use bneck_net::Delay;

    /// A ring of `n` addresses: address `a` relays a decrementing token to
    /// `(a + 1) % n` over channel `a`. Sharded runs place address `a` on
    /// shard `a % shards`, so every hop crosses shards when `shards > 1`.
    struct Ring {
        n: u32,
        channels: Vec<ChannelId>,
        log: Vec<(u64, u32, u32)>,
    }

    impl World for Ring {
        type Message = u32;
        fn handle(&mut self, ctx: &mut Context<'_, u32>, to: Address, msg: u32) {
            self.log.push((ctx.now().as_nanos(), to.0, msg));
            if msg > 0 {
                let next = (to.0 + 1) % self.n;
                ctx.send(self.channels[to.index()], Address(next), msg - 1);
            }
        }
    }

    struct RingPartition {
        shards: usize,
        n: u32,
        /// flight (ns) of channel `a`, whose sender is address `a`.
        flights: Vec<u64>,
    }

    impl Partition<u32> for RingPartition {
        fn shards(&self) -> usize {
            self.shards
        }
        fn shard_of(&self, to: Address, _msg: &u32) -> usize {
            to.index() % self.shards
        }
        fn lookahead_ns(&self, from: usize, to: usize) -> Option<u64> {
            (0..self.n as usize)
                .filter(|&a| {
                    a % self.shards == from && (a + 1) % self.n as usize % self.shards == to
                })
                .map(|a| self.flights[a])
                .min()
        }
    }

    /// Registers the ring's channels (same order on every engine given).
    fn ring_channels(engine: &mut Engine<u32>, n: u32) -> Vec<ChannelId> {
        (0..n)
            .map(|a| {
                // Varied rates and delays so flights differ per hop.
                let spec = ChannelSpec::new(
                    1e9,
                    Delay::from_micros(5 + u64::from(a % 3) * 7),
                    1000 + u64::from(a % 2) * 500,
                );
                engine.add_channel(spec)
            })
            .collect()
    }

    fn serial_run(
        n: u32,
        token: u32,
        plan: Option<FaultPlan>,
    ) -> (Vec<(u64, u32, u32)>, RunReport) {
        let mut engine = Engine::new();
        let channels = ring_channels(&mut engine, n);
        if let Some(plan) = plan {
            engine.set_fault_plan(plan);
        }
        let mut world = Ring {
            n,
            channels,
            log: Vec::new(),
        };
        engine.inject(SimTime::ZERO, Address(0), token);
        engine.inject(SimTime::from_micros(3), Address(2), token / 2);
        let report = engine.run(&mut world);
        (world.log, report)
    }

    fn sharded_run(
        n: u32,
        token: u32,
        shards: usize,
        plan: Option<FaultPlan>,
    ) -> (Vec<(u64, u32, u32)>, RunReport) {
        let mut engine = ShardedEngine::new(shards);
        let mut worlds: Vec<Ring> = (0..shards)
            .map(|k| {
                let channels = ring_channels(engine.shard_mut(k), n);
                Ring {
                    n,
                    channels,
                    log: Vec::new(),
                }
            })
            .collect();
        if let Some(plan) = plan {
            engine.set_fault_plan(plan);
        }
        let flights = (0..n)
            .map(|a| {
                let spec = ChannelSpec::new(
                    1e9,
                    Delay::from_micros(5 + u64::from(a % 3) * 7),
                    1000 + u64::from(a % 2) * 500,
                );
                spec.transmission_delay().as_nanos() + spec.propagation.as_nanos()
            })
            .collect();
        let partition = RingPartition { shards, n, flights };
        engine.inject(0, SimTime::ZERO, Address(0), token);
        engine.inject(2 % shards, SimTime::from_micros(3), Address(2), token / 2);
        let report = engine.run(&mut worlds, &partition, SimTime::MAX);
        let mut merged: Vec<(u64, u32, u32)> = Vec::new();
        for w in worlds {
            merged.extend(w.log);
        }
        merged.sort_unstable();
        (merged, report)
    }

    #[test]
    fn sharded_runs_match_serial_at_every_shard_count() {
        let (mut serial_log, serial_report) = serial_run(6, 40, None);
        serial_log.sort_unstable();
        for shards in [1usize, 2, 3, 6] {
            let (log, report) = sharded_run(6, 40, shards, None);
            assert_eq!(log, serial_log, "{shards} shards diverged");
            assert_eq!(report.events_processed, serial_report.events_processed);
            assert_eq!(report.messages_sent, serial_report.messages_sent);
            assert_eq!(report.quiescent_at, serial_report.quiescent_at);
            assert!(report.quiescent);
        }
    }

    #[test]
    fn per_address_delivery_order_is_exactly_serial() {
        let (serial_log, _) = serial_run(6, 40, None);
        let (merged, _) = sharded_run(6, 40, 3, None);
        for addr in 0..6u32 {
            let s: Vec<_> = serial_log.iter().filter(|e| e.1 == addr).collect();
            let p: Vec<_> = merged.iter().filter(|e| e.1 == addr).collect();
            assert_eq!(s, p, "address {addr} saw a different history");
        }
    }

    #[test]
    fn faulted_sharded_runs_match_serial() {
        let plan = FaultPlan::new(42, 0.1, 0.05, 0.2, 2);
        let (mut serial_log, serial_report) = serial_run(6, 60, Some(plan));
        serial_log.sort_unstable();
        for shards in [2usize, 3] {
            let (log, report) = sharded_run(6, 60, shards, Some(plan));
            assert_eq!(log, serial_log, "{shards} shards diverged under faults");
            assert_eq!(report.messages_sent, serial_report.messages_sent);
        }
    }

    /// A fan-out mesh: address `a` relays a decrementing token to *two*
    /// successors over dedicated channels, so one drained event pushes more
    /// cross-shard messages than it consumed. This is the load pattern that
    /// could trick the termination ledger through a stale idle entry —
    /// fan-out 1 (the ring) can never make pushes outrun drains between
    /// claims, so these runs are the regression guard for early termination.
    struct Fanout {
        n: u32,
        /// `channels[2a]` targets `a+1`, `channels[2a+1]` targets `a+2`.
        channels: Vec<ChannelId>,
        log: Vec<(u64, u32, u32)>,
    }

    impl World for Fanout {
        type Message = u32;
        fn handle(&mut self, ctx: &mut Context<'_, u32>, to: Address, msg: u32) {
            self.log.push((ctx.now().as_nanos(), to.0, msg));
            if msg > 0 {
                let a = to.0;
                let near = self.channels[2 * a as usize];
                let far = self.channels[2 * a as usize + 1];
                ctx.send(near, Address((a + 1) % self.n), msg - 1);
                ctx.send(far, Address((a + 2) % self.n), msg - 1);
            }
        }
    }

    fn fanout_spec(i: u32) -> ChannelSpec {
        ChannelSpec::new(
            1e9,
            Delay::from_micros(4 + u64::from(i % 5) * 3),
            800 + u64::from(i % 3) * 400,
        )
    }

    fn fanout_channels(engine: &mut Engine<u32>, n: u32) -> Vec<ChannelId> {
        (0..2 * n)
            .map(|i| engine.add_channel(fanout_spec(i)))
            .collect()
    }

    struct FanoutPartition {
        shards: usize,
        n: u32,
        flights: Vec<u64>,
    }

    impl Partition<u32> for FanoutPartition {
        fn shards(&self) -> usize {
            self.shards
        }
        fn shard_of(&self, to: Address, _msg: &u32) -> usize {
            to.index() % self.shards
        }
        fn lookahead_ns(&self, from: usize, to: usize) -> Option<u64> {
            let n = self.n as usize;
            (0..n)
                .flat_map(|a| [(2 * a, a, (a + 1) % n), (2 * a + 1, a, (a + 2) % n)])
                .filter(|&(_, src, dst)| src % self.shards == from && dst % self.shards == to)
                .map(|(c, _, _)| self.flights[c])
                .min()
        }
    }

    fn fanout_serial(n: u32, token: u32) -> (Vec<(u64, u32, u32)>, RunReport) {
        let mut engine = Engine::new();
        let channels = fanout_channels(&mut engine, n);
        let mut world = Fanout {
            n,
            channels,
            log: Vec::new(),
        };
        engine.inject(SimTime::ZERO, Address(0), token);
        let report = engine.run(&mut world);
        (world.log, report)
    }

    fn fanout_sharded(n: u32, token: u32, shards: usize) -> (Vec<(u64, u32, u32)>, RunReport) {
        let mut engine = ShardedEngine::new(shards);
        let mut worlds: Vec<Fanout> = (0..shards)
            .map(|k| {
                let channels = fanout_channels(engine.shard_mut(k), n);
                Fanout {
                    n,
                    channels,
                    log: Vec::new(),
                }
            })
            .collect();
        let flights = (0..2 * n)
            .map(|i| {
                let spec = fanout_spec(i);
                spec.transmission_delay().as_nanos() + spec.propagation.as_nanos()
            })
            .collect();
        let partition = FanoutPartition { shards, n, flights };
        engine.inject(0, SimTime::ZERO, Address(0), token);
        let report = engine.run(&mut worlds, &partition, SimTime::MAX);
        let mut merged: Vec<(u64, u32, u32)> = Vec::new();
        for w in worlds {
            merged.extend(w.log);
        }
        merged.sort_unstable();
        (merged, report)
    }

    #[test]
    fn fanout_runs_lose_no_event_and_match_serial() {
        let (mut serial_log, serial_report) = fanout_serial(6, 9);
        serial_log.sort_unstable();
        // 2^10 - 1 deliveries: every level of the fan-out tree doubles.
        assert_eq!(serial_log.len(), (1 << 10) - 1);
        // Repeat the racy shard counts: a lost in-flight message (early
        // termination) would surface as a shorter merged log.
        for round in 0..10 {
            for shards in [2usize, 3, 6] {
                let (log, report) = fanout_sharded(6, 9, shards);
                assert_eq!(log, serial_log, "{shards} shards diverged (round {round})");
                assert_eq!(report.events_processed, serial_report.events_processed);
                assert_eq!(report.messages_sent, serial_report.messages_sent);
                assert!(report.quiescent);
            }
        }
    }

    #[test]
    fn horizon_bounded_runs_stop_and_resume() {
        let shards = 3;
        let (serial_log, _) = serial_run(6, 40, None);
        let mut engine = ShardedEngine::new(shards);
        let mut worlds: Vec<Ring> = (0..shards)
            .map(|k| {
                let channels = ring_channels(engine.shard_mut(k), 6);
                Ring {
                    n: 6,
                    channels,
                    log: Vec::new(),
                }
            })
            .collect();
        let flights = (0..6u32)
            .map(|a| {
                let spec = ChannelSpec::new(
                    1e9,
                    Delay::from_micros(5 + u64::from(a % 3) * 7),
                    1000 + u64::from(a % 2) * 500,
                );
                spec.transmission_delay().as_nanos() + spec.propagation.as_nanos()
            })
            .collect();
        let partition = RingPartition {
            shards,
            n: 6,
            flights,
        };
        engine.inject(0, SimTime::ZERO, Address(0), 40);
        engine.inject(2 % shards, SimTime::from_micros(3), Address(2), 20);
        let first = engine.run(&mut worlds, &partition, SimTime::from_micros(150));
        assert!(!first.quiescent);
        assert_eq!(engine.now(), SimTime::from_micros(150));
        let second = engine.run(&mut worlds, &partition, SimTime::MAX);
        assert!(second.quiescent);
        assert_eq!(
            first.events_processed + second.events_processed,
            serial_log.len() as u64,
            "split runs process the same events as one run"
        );
        let mut merged: Vec<(u64, u32, u32)> = Vec::new();
        for w in worlds {
            merged.extend(w.log);
        }
        merged.sort_unstable();
        let mut serial_sorted = serial_log;
        serial_sorted.sort_unstable();
        assert_eq!(merged, serial_sorted);
    }
}
