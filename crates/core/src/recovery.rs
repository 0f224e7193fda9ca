//! The reliability shim: per-lane sequence numbers, acknowledgements and
//! timeout-based retransmission over unreliable channels.
//!
//! The paper's protocol assumes reliable FIFO delivery between tasks; under a
//! fault-injecting channel plan (see [`bneck_sim::FaultPlan`]) that assumption
//! breaks, and B-Neck can get stuck (a lost `Response` strands a probe cycle)
//! or converge to wrong rates (a duplicated `Update` double-counts). The
//! recovery layer restores exactly the delivery guarantees the proofs need —
//! loss-free, duplicate-free, in-order per lane — with the classic minimal
//! machinery:
//!
//! * every transmitted protocol packet travels inside a sequenced frame on a
//!   *lane* identified by `(session, directed link)` — the unit over which
//!   the paper's FIFO assumption holds (session identifiers are never reused
//!   for concurrently active sessions, so a lane cannot be confused across
//!   incarnations);
//! * the receiver acks every frame (acks travel over the reverse channel and
//!   are themselves subject to faults), delivers in-order frames immediately,
//!   buffers out-of-order ones, and drops duplicates (re-acking them, since
//!   the previous ack may have been the casualty);
//! * the sender keeps unacked frames and retransmits each one
//!   [`RecoveryConfig::rto`] after its last transmission until acked.
//!
//! ## State: dense lanes, one deadline queue
//!
//! A lane's traffic is request/response — on `lossy_recovery` 98.1 % of first
//! transmissions are alone in flight on their lane and none shares it with
//! more than three (`BENCH_NOTES.md`) — so a lane is one record in a `Vec`:
//! two counters, one unacked frame *inline*, and two spills left unallocated
//! until a second frame is in flight or one arrives ahead of a gap. Records
//! are found through one id → index table per directed link, sized once from
//! the host's link count: a link index past it answers `None` / `false` and
//! opens nothing. Lanes are never reclaimed.
//!
//! The RTO is one constant, so deadlines are born sorted and a FIFO of
//! `(due, lane, seq)`, appended at every (re)transmission, is the only timer
//! structure. The host asks `RecoveryState::due` what to resend now and
//! `RecoveryState::next_deadline` when to ask again; entries of frames
//! acked since are dropped at the head and never reach it. The simulator
//! keeps one engine wake-up armed at the earliest live deadline and resends
//! what one timer per frame would:
//!
//! * **R1** — a frame (re)sent at `t` is resent at exactly `t + rto` iff still
//!   unacked then (on the simulator in that instant's timer class, so an ack
//!   landing *at* the deadline loses);
//! * **R2** — frames due at one instant are resent in arming order;
//! * **R3** — a live entry has a wake-up armed at or before it, so an empty
//!   event queue implies `RecoveryState::unacked_frames() == 0`;
//! * **R4** — a recovered run reaches quiescence after its last armed wake-up,
//!   at most one RTO after the last send: the measurable "price of
//!   reliability" recorded in `BENCH_NOTES.md`.
//!
//! The whole layer is config-gated behind
//! [`BneckConfig::with_recovery`](crate::BneckConfig::with_recovery): in
//! paper mode (`recovery: None`) no frame, ack or timer is ever constructed
//! and the hot send/dispatch paths keep their pristine shape.

#![cfg_attr(not(test), warn(clippy::wildcard_enum_match_arm))]

use crate::host::Target;
use crate::packet::Packet;
use bneck_maxmin::{IdSlotMap, SessionId};
use bneck_net::{Delay, LinkId};
use bneck_sim::SimTime;
use serde::Serialize;
use std::collections::VecDeque;

/// Tunables of the recovery layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryConfig {
    /// The retransmission timeout. Must comfortably exceed one data + ack
    /// round trip of the slowest lane, or spurious retransmissions (harmless
    /// but wasteful) pile up.
    pub rto: Delay,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            rto: Delay::from_micros(500),
        }
    }
}

impl RecoveryConfig {
    /// A config with the given retransmission timeout.
    ///
    /// # Panics
    ///
    /// Panics if `rto` is zero (a zero timeout would retransmit in the same
    /// instant the frame is sent).
    pub fn with_rto(rto: Delay) -> Self {
        assert!(
            rto > Delay::ZERO,
            "the retransmission timeout must be positive"
        );
        RecoveryConfig { rto }
    }
}

/// A lane, as [`RecoveryState::receive`] hands it to [`RecoveryState::release`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Lane(u32);

/// A sent frame awaiting its ack.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingFrame {
    /// The directed link the frame travels over.
    pub over: LinkId,
    /// The receiving task.
    pub target: Target,
    /// The framed protocol packet.
    pub packet: Packet,
}

/// Counters of the recovery layer's work, for reports and overhead
/// measurements.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct RecoveryStats {
    /// Sequenced data frames sent (first transmissions only).
    pub frames_sent: u64,
    /// Frames retransmitted after a timeout.
    pub retransmits: u64,
    /// Acknowledgements sent.
    pub acks_sent: u64,
    /// Duplicate frames discarded at the receiver (and re-acked).
    pub duplicates_dropped: u64,
    /// Out-of-order frames buffered until their gap filled.
    pub reordered_buffered: u64,
}

/// One lane: both directions' counters, frames awaiting an ack, frames behind a gap.
#[derive(Debug, Default)]
struct LaneState {
    /// Next sequence number to assign (sending side).
    next_seq: u32,
    /// Next sequence number expected (receiving side).
    expected: u32,
    /// A sent frame awaiting its ack, inline: almost always the only one.
    unacked: Option<(u32, PendingFrame)>,
    /// The rare further frames in flight while `unacked` is taken.
    spill: Vec<(u32, PendingFrame)>,
    /// Frames that arrived ahead of a gap, waiting for in-order delivery.
    buffered: Vec<(u32, Target, Packet)>,
}

impl LaneState {
    /// Frame `seq`, for as long as it awaits its ack.
    fn awaiting(&self, seq: u32) -> Option<PendingFrame> {
        let mut held = self.unacked.iter().chain(&self.spill);
        held.find(|(s, _)| *s == seq).map(|(_, frame)| *frame)
    }
}

/// The sender/receiver state of the recovery layer: lanes and retransmission
/// deadlines live here, the simulation harness adds only its clock and the
/// way frames and acks travel.
#[derive(Debug)]
pub(crate) struct RecoveryState {
    /// The layer's tunables.
    pub config: RecoveryConfig,
    /// Work counters, for reports and overhead measurements.
    pub stats: RecoveryStats,
    /// Per directed link: session → index of lane `(session, link)`.
    index: Vec<IdSlotMap>,
    lanes: Vec<LaneState>,
    /// `(due, lane, seq)` of every transmission not yet looked at again, in
    /// sending order — which one constant RTO makes due order.
    deadlines: VecDeque<(SimTime, u32, u32)>,
    unacked: usize,
}

impl RecoveryState {
    /// An empty state with the given tunables over a host of `links` directed links.
    pub fn new(config: RecoveryConfig, links: usize) -> Self {
        RecoveryState {
            config,
            stats: RecoveryStats::default(),
            index: vec![IdSlotMap::new(); links],
            lanes: Vec::new(),
            deadlines: VecDeque::new(),
            unacked: 0,
        }
    }

    /// Lane `(session, link)`'s index, opened on first use; `None` for a link the host lacks.
    fn lane(&mut self, session: SessionId, link: LinkId) -> Option<usize> {
        let table = self.index.get_mut(link.index())?;
        if let Some(lane) = table.get(session) {
            return Some(lane as usize);
        }
        table.insert(session, self.lanes.len() as u32);
        self.lanes.push(LaneState::default());
        Some(self.lanes.len() - 1)
    }

    /// Queues the look at frame `seq` of `lane`, (re)sent at `now`.
    fn arm(&mut self, now: SimTime, lane: u32, seq: u32) {
        let due = now + self.config.rto;
        let sorted = self.deadlines.back().is_none_or(|last| last.0 <= due);
        debug_assert!(sorted, "one constant RTO and a monotone clock");
        self.deadlines.push_back((due, lane, seq));
    }

    /// Sender side, at `now`: assigns `packet` the next sequence number of
    /// its lane `(packet.session(), over)` and keeps the frame, due for
    /// retransmission every [`RecoveryConfig::rto`] until
    /// [`RecoveryState::acked`]. The host sends the frame. Panics if `over`
    /// is not one of the host's links.
    pub fn frame(&mut self, now: SimTime, over: LinkId, target: Target, packet: Packet) -> u32 {
        let lane = self.lane(packet.session(), over);
        let lane = lane.expect("a host sends over its own links");
        let state = &mut self.lanes[lane];
        let seq = state.next_seq;
        state.next_seq += 1;
        let frame = PendingFrame {
            over,
            target,
            packet,
        };
        if let Some(earlier) = state.unacked.replace((seq, frame)) {
            state.spill.push(earlier);
        }
        self.unacked += 1;
        self.stats.frames_sent += 1;
        self.arm(now, lane as u32, seq);
        seq
    }

    /// Receiver side: takes frame `seq` of lane `(packet.session(), link)`.
    /// The host acks every frame it hands in, duplicates included (a
    /// duplicate usually means the previous ack was lost). Returns the
    /// delivery to make when the frame is the next in order; the host then
    /// drains [`RecoveryState::release`] for the successors a gap was
    /// holding back. Duplicates are dropped and past-gap frames buffered; a
    /// `link` the host does not have is not counted and opens no lane.
    pub fn receive(
        &mut self,
        link: LinkId,
        seq: u32,
        target: Target,
        packet: Packet,
    ) -> Option<(Lane, Target, Packet)> {
        let lane = self.lane(packet.session(), link)?;
        let state = &mut self.lanes[lane];
        self.stats.acks_sent += 1;
        if seq == state.expected {
            state.expected += 1;
            return Some((Lane(lane as u32), target, packet));
        }
        if seq < state.expected || state.buffered.iter().any(|(s, ..)| *s == seq) {
            self.stats.duplicates_dropped += 1;
            return None;
        }
        // A gap: hold the frame until its predecessors arrive.
        state.buffered.push((seq, target, packet));
        self.stats.reordered_buffered += 1;
        None
    }

    /// The frame buffered on `lane` that has become the next in order, if any.
    pub fn release(&mut self, lane: Lane) -> Option<(Lane, Target, Packet)> {
        let state = self.lanes.get_mut(lane.0 as usize)?;
        let next = state.expected;
        let at = state.buffered.iter().position(|(s, ..)| *s == next)?;
        let (_, target, packet) = state.buffered.swap_remove(at);
        state.expected += 1;
        Some((lane, target, packet))
    }

    /// An ack arrived: forgets the frame. `false` when it was not (or no
    /// longer) awaiting one, or names a lane that does not exist.
    pub fn acked(&mut self, session: SessionId, link: LinkId, seq: u32) -> bool {
        let Some(lane) = self.index.get(link.index()).and_then(|t| t.get(session)) else {
            return false;
        };
        let state = &mut self.lanes[lane as usize];
        if matches!(state.unacked, Some((s, _)) if s == seq) {
            state.unacked = state.spill.pop();
        } else if let Some(at) = state.spill.iter().position(|(s, _)| *s == seq) {
            state.spill.swap_remove(at);
        } else {
            return false;
        }
        self.unacked -= 1;
        true
    }

    /// When the host must next ask [`RecoveryState::due`]: the earliest deadline of a frame
    /// still unacked (entries of frames acked since are dropped on the way), if any.
    pub(crate) fn next_deadline(&mut self) -> Option<SimTime> {
        while let Some(&(due, lane, seq)) = self.deadlines.front() {
            if self.lanes[lane as usize].awaiting(seq).is_some() {
                return Some(due);
            }
            self.deadlines.pop_front();
        }
        None
    }

    /// The next frame to resend at `now` with its sequence number (counted
    /// as a retransmit, and due again one RTO from `now`), in the order the
    /// frames were last sent; `None` once nothing unacked is due.
    pub fn due(&mut self, now: SimTime) -> Option<(u32, PendingFrame)> {
        loop {
            let &(_, lane, seq) = self.deadlines.front().filter(|head| head.0 <= now)?;
            self.deadlines.pop_front();
            if let Some(frame) = self.lanes[lane as usize].awaiting(seq) {
                self.stats.retransmits += 1;
                self.arm(now, lane, seq);
                return Some((seq, frame));
            }
        }
    }

    /// Sent frames not yet acknowledged.
    pub fn unacked_frames(&self) -> usize {
        self.unacked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The layer as it stood before the dense lanes, kept as the reference
    /// model: four trees keyed by `(session, link[, seq])` and one timer per
    /// transmission, fired by the host in arming order.
    struct TreeModel {
        rto: Delay,
        stats: RecoveryStats,
        next_seq: BTreeMap<(SessionId, LinkId), u32>,
        expected: BTreeMap<(SessionId, LinkId), u32>,
        unacked: BTreeMap<(SessionId, LinkId, u32), (Target, Packet)>,
        buffered: BTreeMap<(SessionId, LinkId, u32), (Target, Packet)>,
        timers: VecDeque<(SimTime, SessionId, LinkId, u32)>,
    }

    impl TreeModel {
        fn new(rto: Delay) -> Self {
            TreeModel {
                rto,
                stats: RecoveryStats::default(),
                next_seq: BTreeMap::new(),
                expected: BTreeMap::new(),
                unacked: BTreeMap::new(),
                buffered: BTreeMap::new(),
                timers: VecDeque::new(),
            }
        }

        fn frame(&mut self, now: SimTime, over: LinkId, target: Target, packet: Packet) -> u32 {
            let session = packet.session();
            let next = self.next_seq.entry((session, over)).or_insert(0);
            let seq = *next;
            *next += 1;
            self.unacked.insert((session, over, seq), (target, packet));
            self.stats.frames_sent += 1;
            self.timers.push_back((now + self.rto, session, over, seq));
            seq
        }

        fn receive(
            &mut self,
            link: LinkId,
            seq: u32,
            target: Target,
            packet: Packet,
        ) -> Option<(Target, Packet)> {
            self.stats.acks_sent += 1;
            let session = packet.session();
            let expected = self.expected.entry((session, link)).or_insert(0);
            if seq < *expected {
                self.stats.duplicates_dropped += 1;
                return None;
            }
            if seq > *expected {
                let held = self.buffered.insert((session, link, seq), (target, packet));
                match held {
                    None => self.stats.reordered_buffered += 1,
                    Some(_) => self.stats.duplicates_dropped += 1,
                }
                return None;
            }
            *expected += 1;
            Some((target, packet))
        }

        fn release(&mut self, session: SessionId, link: LinkId) -> Option<(Target, Packet)> {
            let expected = self.expected.get_mut(&(session, link))?;
            let frame = self.buffered.remove(&(session, link, *expected))?;
            *expected += 1;
            Some(frame)
        }

        fn acked(&mut self, session: SessionId, link: LinkId, seq: u32) -> bool {
            self.unacked.remove(&(session, link, seq)).is_some()
        }

        /// Fires every timer due by `now`, in arming order: the frames to
        /// resend, each re-armed one RTO from `now`. Stale timers fire too,
        /// to no effect.
        fn fire(&mut self, now: SimTime) -> Vec<(LinkId, u32, Target, Packet)> {
            let mut resent = Vec::new();
            while self.timers.front().is_some_and(|timer| timer.0 <= now) {
                let (_, session, link, seq) = self.timers.pop_front().unwrap();
                if let Some(&(target, packet)) = self.unacked.get(&(session, link, seq)) {
                    self.stats.retransmits += 1;
                    self.timers.push_back((now + self.rto, session, link, seq));
                    resent.push((link, seq, target, packet));
                }
            }
            resent
        }

        /// The earliest timer that would still find its frame unacked.
        fn next_live_timer(&self) -> Option<SimTime> {
            let live = |t: &&(SimTime, SessionId, LinkId, u32)| {
                self.unacked.contains_key(&(t.1, t.2, t.3))
            };
            self.timers.iter().find(live).map(|timer| timer.0)
        }
    }

    /// The four lanes the interleavings run over; a case uses a prefix.
    const LANES: [(SessionId, LinkId); 4] = [
        (SessionId(7), LinkId(0)),
        (SessionId(7), LinkId(2)),
        (SessionId(9), LinkId(0)),
        (SessionId(1 << 40), LinkId(1)),
    ];
    const RTO_NS: u64 = 40;

    proptest! {
        /// Random interleavings of frame / receive (in order, ahead, stale) /
        /// ack / clock advance on 1–4 lanes: the dense state answers every
        /// call as the tree model does, counts what it counts, and reports
        /// due — instant by instant, in order — exactly the frames the
        /// model's per-frame timers find unacked.
        #[test]
        fn dense_lanes_and_the_deadline_queue_match_the_tree_model(
            lanes in 1usize..5,
            ops in prop::collection::vec((0u8..7, 0usize..4, 0u32..1000), 1..300),
        ) {
            let rto = Delay::from_nanos(RTO_NS);
            let mut dense = RecoveryState::new(RecoveryConfig::with_rto(rto), 3);
            let mut model = TreeModel::new(rto);
            let mut now = SimTime::ZERO;
            for (tag, (op, lane, arg)) in ops.into_iter().enumerate() {
                let (session, link) = LANES[lane % lanes];
                // Frames are told apart by target and payload: a sent one
                // carries its op's index, a received one its sequence number
                // (copies of one frame are identical, as on a real lane).
                let frame = |tag: u32| {
                    let rate = f64::from(tag);
                    let packet = Packet::Probe { session, rate, restricting: link };
                    (Target::Destination(tag), packet)
                };
                let expected = model.expected.get(&(session, link)).copied().unwrap_or(0);
                let sent = model.next_seq.get(&(session, link)).copied().unwrap_or(0);
                match op {
                    0 | 1 => {
                        let (target, packet) = frame(tag as u32);
                        let seq = dense.frame(now, link, target, packet);
                        prop_assert_eq!(seq, model.frame(now, link, target, packet));
                    }
                    2..=4 => {
                        let seq = match op {
                            2 => expected,
                            3 => expected + 1 + arg % 3,
                            _ => arg % (expected + 2),
                        };
                        let (target, packet) = frame(seq);
                        let got = dense.receive(link, seq, target, packet);
                        let want = model.receive(link, seq, target, packet);
                        prop_assert_eq!(got.map(|(_, to, p)| (to, p)), want);
                        let mut next = got;
                        while let Some((lane, ..)) = next {
                            next = dense.release(lane);
                            let want = model.release(session, link);
                            prop_assert_eq!(next.map(|(_, to, p)| (to, p)), want);
                        }
                    }
                    5 => {
                        let seq = arg % (sent + 2);
                        let got = dense.acked(session, link, seq);
                        prop_assert_eq!(got, model.acked(session, link, seq));
                    }
                    _ => {
                        // Often short of one RTO, sometimes past several
                        // deadlines at once, sometimes exactly onto one.
                        now = match model.timers.front() {
                            Some(timer) if arg % 3 == 0 => timer.0.max(now),
                            _ => now + Delay::from_nanos(u64::from(arg) % (2 * RTO_NS)),
                        };
                        let mut resent = Vec::new();
                        while let Some((seq, f)) = dense.due(now) {
                            resent.push((f.over, seq, f.target, f.packet));
                        }
                        prop_assert_eq!(resent, model.fire(now));
                    }
                }
                prop_assert_eq!(dense.stats, model.stats);
                prop_assert_eq!(dense.unacked_frames(), model.unacked.len());
                prop_assert_eq!(dense.next_deadline(), model.next_live_timer());
            }
        }
    }

    fn packet(session: u64) -> Packet {
        Packet::Update {
            session: SessionId(session),
        }
    }

    fn state() -> RecoveryState {
        RecoveryState::new(RecoveryConfig::default(), 8)
    }

    #[test]
    fn sequence_numbers_are_per_lane() {
        let (mut state, now) = (state(), SimTime::ZERO);
        let to = Target::Destination(0);
        assert_eq!(state.frame(now, LinkId(0), to, packet(1)), 0);
        assert_eq!(state.frame(now, LinkId(0), to, packet(1)), 1);
        assert_eq!(state.frame(now, LinkId(1), to, packet(1)), 0);
        assert_eq!(state.frame(now, LinkId(0), to, packet(2)), 0);
        assert_eq!(state.frame(now, LinkId(0), to, packet(1)), 2);
        assert_eq!(state.stats.frames_sent, 5);
    }

    #[test]
    fn a_lane_delivers_in_order_drops_duplicates_and_flushes_gaps() {
        let mut state = state();
        let (link, to) = (LinkId(3), Target::Source(0));
        let p = packet(1);
        let receive = |state: &mut RecoveryState, seq| state.receive(link, seq, to, p);
        // Frames 1 and 2 arrive ahead of 0: buffered, nothing to deliver.
        assert_eq!(receive(&mut state, 2), None);
        assert_eq!(receive(&mut state, 1), None);
        assert_eq!(receive(&mut state, 1), None, "buffered twice");
        // Frame 0 fills the gap and releases both successors, then nothing.
        let (lane, ..) = receive(&mut state, 0).expect("the next in order");
        assert_eq!(state.release(lane), Some((lane, to, p)));
        assert_eq!(state.release(lane), Some((lane, to, p)));
        assert_eq!(state.release(lane), None);
        // A late copy of a delivered frame is a duplicate; the lane moved on.
        assert_eq!(receive(&mut state, 1), None);
        assert_eq!(receive(&mut state, 3), Some((lane, to, p)));
        assert_eq!(state.stats.reordered_buffered, 2);
        assert_eq!(state.stats.duplicates_dropped, 2);
        assert_eq!(state.stats.acks_sent, 6, "every frame handed in is acked");
    }

    #[test]
    fn a_frame_is_retransmitted_until_acked() {
        let mut state = state();
        let rto = state.config.rto;
        let (s, link, to) = (SessionId(1), LinkId(3), Target::Destination(4));
        let sent = SimTime::from_nanos(10);
        let seq = state.frame(sent, link, to, packet(1));
        assert_eq!(state.unacked_frames(), 1);
        assert_eq!(state.next_deadline(), Some(sent + rto));
        assert!(state.due(SimTime::from_nanos(11)).is_none(), "not due yet");
        let (again, frame) = state.due(sent + rto).expect("not acked yet");
        assert_eq!((again, frame.over, frame.target), (seq, link, to));
        assert!(state.due(sent + rto).is_none(), "due again one RTO later");
        assert_eq!(state.next_deadline(), Some(sent + rto + rto));
        assert!(state.acked(s, link, seq));
        assert!(!state.acked(s, link, seq), "the second ack finds nothing");
        assert!(state.due(sent + rto + rto).is_none(), "stale deadline");
        assert_eq!(state.next_deadline(), None);
        assert_eq!(state.stats.retransmits, 1);
        assert_eq!(state.unacked_frames(), 0);
    }

    #[test]
    fn keys_off_the_wire_never_size_or_open_anything() {
        let mut state = RecoveryState::new(RecoveryConfig::default(), 2);
        let (to, far) = (Target::Source(0), LinkId(u32::MAX));
        assert_eq!(state.receive(LinkId(2), 0, to, packet(1)), None);
        assert_eq!(state.receive(far, 0, to, packet(1)), None);
        assert!(!state.acked(SessionId(1), far, 0));
        assert!(
            !state.acked(SessionId(u64::MAX), LinkId(1), 0),
            "no such lane"
        );
        assert_eq!(state.release(Lane(u32::MAX)), None);
        assert_eq!(state.stats, RecoveryStats::default(), "nothing was counted");
        assert!(state.lanes.is_empty() && state.index.len() == 2);
        assert!(state.due(SimTime::from_secs(1)).is_none());
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_rto_is_rejected() {
        let _ = RecoveryConfig::with_rto(Delay::ZERO);
    }
}
