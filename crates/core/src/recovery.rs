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
//! * the sender keeps unacked frames and retransmits on a configurable
//!   timeout until acked. Retransmission timers are simulator events, so a
//!   recovered run reaches quiescence only after the last timer expires — the
//!   measurable "price of reliability" recorded in `BENCH_NOTES.md`.
//!
//! The whole layer is config-gated behind
//! [`BneckConfig::with_recovery`](crate::BneckConfig::with_recovery): in
//! paper mode (`recovery: None`) no frame, ack or timer is ever constructed
//! and the hot send/dispatch paths keep their pristine shape.

use crate::host::Target;
use crate::packet::Packet;
use bneck_maxmin::SessionId;
use bneck_net::{Delay, LinkId};
#[cfg(feature = "serde")]
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Tunables of the recovery layer.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
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

/// One reliability lane: the stream of frames one session's packets form
/// over one directed link. Sequence numbers are per-lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Lane {
    session: SessionId,
    /// Dense index of the directed link the lane runs over.
    link: u32,
}

impl Lane {
    fn new(session: SessionId, link: LinkId) -> Self {
        Lane {
            session,
            link: link.index() as u32,
        }
    }
}

/// A sent-but-unacked (or received-but-out-of-order) frame.
#[derive(Debug, Clone, Copy)]
pub struct PendingFrame {
    /// The directed link the frame travels over.
    pub over: LinkId,
    /// The receiving task.
    pub target: Target,
    /// The framed protocol packet.
    pub packet: Packet,
}

/// Counters of the recovery layer's work, for reports and overhead
/// measurements.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
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

/// The sender/receiver state of the recovery layer, shared by the simulation
/// harness and the `bneck-node` runtime: the lane logic lives here, a host
/// adds only its clock, its timer queue and the way frames and acks travel.
#[derive(Debug)]
pub struct RecoveryState {
    /// The layer's tunables.
    pub config: RecoveryConfig,
    /// Work counters, for reports and overhead measurements.
    pub stats: RecoveryStats,
    /// Next sequence number to assign, per sending lane.
    next_seq: BTreeMap<Lane, u32>,
    /// Next sequence number expected, per receiving lane.
    expected: BTreeMap<Lane, u32>,
    /// Sent frames not yet acknowledged.
    unacked: BTreeMap<(Lane, u32), PendingFrame>,
    /// Frames that arrived ahead of a gap, waiting for in-order delivery.
    buffered: BTreeMap<(Lane, u32), PendingFrame>,
}

impl RecoveryState {
    /// An empty state with the given tunables.
    pub fn new(config: RecoveryConfig) -> Self {
        RecoveryState {
            config,
            stats: RecoveryStats::default(),
            next_seq: BTreeMap::new(),
            expected: BTreeMap::new(),
            unacked: BTreeMap::new(),
            buffered: BTreeMap::new(),
        }
    }

    /// Sender side: assigns `packet` the next sequence number of its lane
    /// `(packet.session(), over)` and keeps the frame for retransmission
    /// until [`RecoveryState::acked`]. The host sends the frame and arms a
    /// timer of [`RecoveryConfig::rto`].
    pub fn frame(&mut self, over: LinkId, target: Target, packet: Packet) -> u32 {
        let lane = Lane::new(packet.session(), over);
        let next = self.next_seq.entry(lane).or_insert(0);
        let seq = *next;
        *next += 1;
        let frame = PendingFrame {
            over,
            target,
            packet,
        };
        self.unacked.insert((lane, seq), frame);
        self.stats.frames_sent += 1;
        seq
    }

    /// Receiver side: takes frame `seq` of lane `(packet.session(), link)`.
    /// The host acks every frame it hands in, duplicates included (a
    /// duplicate usually means the previous ack was lost). Returns the
    /// delivery to make when the frame is the next in order; the host then
    /// drains [`RecoveryState::release`] for the successors a gap was
    /// holding back. Duplicates are dropped and past-gap frames buffered.
    pub fn receive(
        &mut self,
        link: LinkId,
        seq: u32,
        target: Target,
        packet: Packet,
    ) -> Option<(Target, Packet)> {
        self.stats.acks_sent += 1;
        let lane = Lane::new(packet.session(), link);
        let expected = self.expected.entry(lane).or_insert(0);
        if seq < *expected {
            self.stats.duplicates_dropped += 1;
            return None;
        }
        if seq > *expected {
            // A gap: hold the frame until its predecessors arrive.
            let frame = PendingFrame {
                over: link,
                target,
                packet,
            };
            if self.buffered.insert((lane, seq), frame).is_none() {
                self.stats.reordered_buffered += 1;
            } else {
                self.stats.duplicates_dropped += 1;
            }
            return None;
        }
        *expected += 1;
        Some((target, packet))
    }

    /// The buffered frame that has become the next in order on lane
    /// `(session, link)`, if any.
    pub fn release(&mut self, session: SessionId, link: LinkId) -> Option<(Target, Packet)> {
        let lane = Lane::new(session, link);
        let expected = self.expected.get_mut(&lane)?;
        let frame = self.buffered.remove(&(lane, *expected))?;
        *expected += 1;
        Some((frame.target, frame.packet))
    }

    /// An ack arrived: forgets the frame. `false` when it was not (or no
    /// longer) awaiting one.
    pub fn acked(&mut self, session: SessionId, link: LinkId, seq: u32) -> bool {
        self.unacked
            .remove(&(Lane::new(session, link), seq))
            .is_some()
    }

    /// A retransmission timer fired: the frame to resend (counted as a
    /// retransmit) when it is still unacked, `None` when the timer is stale.
    pub fn still_unacked(
        &mut self,
        session: SessionId,
        link: LinkId,
        seq: u32,
    ) -> Option<PendingFrame> {
        let frame = *self.unacked.get(&(Lane::new(session, link), seq))?;
        self.stats.retransmits += 1;
        Some(frame)
    }

    /// Sent frames not yet acknowledged.
    pub fn unacked_frames(&self) -> usize {
        self.unacked.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_order_and_compare() {
        let a = Lane::new(SessionId(1), LinkId(0));
        let b = Lane::new(SessionId(1), LinkId(1));
        let c = Lane::new(SessionId(2), LinkId(0));
        assert!(a < b && b < c);
        assert_eq!(a, Lane::new(SessionId(1), LinkId(0)));
    }

    fn packet(session: u64) -> Packet {
        Packet::Update {
            session: SessionId(session),
        }
    }

    #[test]
    fn sequence_numbers_are_per_lane() {
        let mut state = RecoveryState::new(RecoveryConfig::default());
        let to = Target::Destination(0);
        assert_eq!(state.frame(LinkId(0), to, packet(1)), 0);
        assert_eq!(state.frame(LinkId(0), to, packet(1)), 1);
        assert_eq!(state.frame(LinkId(1), to, packet(1)), 0);
        assert_eq!(state.frame(LinkId(0), to, packet(2)), 0);
        assert_eq!(state.frame(LinkId(0), to, packet(1)), 2);
        assert_eq!(state.stats.frames_sent, 5);
    }

    #[test]
    fn a_lane_delivers_in_order_drops_duplicates_and_flushes_gaps() {
        let mut state = RecoveryState::new(RecoveryConfig::default());
        let (s, link, to) = (SessionId(1), LinkId(3), Target::Source(0));
        let p = packet(1);
        // Frames 1 and 2 arrive ahead of 0: buffered, nothing to deliver.
        assert_eq!(state.receive(link, 2, to, p), None);
        assert_eq!(state.receive(link, 1, to, p), None);
        assert_eq!(state.receive(link, 1, to, p), None, "buffered twice");
        assert_eq!(state.release(s, link), None);
        // Frame 0 fills the gap and releases both successors, then nothing.
        assert_eq!(state.receive(link, 0, to, p), Some((to, p)));
        assert_eq!(state.release(s, link), Some((to, p)));
        assert_eq!(state.release(s, link), Some((to, p)));
        assert_eq!(state.release(s, link), None);
        // A late copy of a delivered frame is a duplicate; the lane moved on.
        assert_eq!(state.receive(link, 1, to, p), None);
        assert_eq!(state.receive(link, 3, to, p), Some((to, p)));
        assert_eq!(state.stats.reordered_buffered, 2);
        assert_eq!(state.stats.duplicates_dropped, 2);
        assert_eq!(state.stats.acks_sent, 6, "every frame handed in is acked");
    }

    #[test]
    fn a_frame_is_retransmitted_until_acked() {
        let mut state = RecoveryState::new(RecoveryConfig::default());
        let (s, link, to) = (SessionId(1), LinkId(3), Target::Destination(4));
        let seq = state.frame(link, to, packet(1));
        assert_eq!(state.unacked_frames(), 1);
        let frame = state.still_unacked(s, link, seq).expect("not acked yet");
        assert_eq!((frame.over, frame.target), (link, to));
        assert!(state.acked(s, link, seq));
        assert!(!state.acked(s, link, seq), "the second ack finds nothing");
        assert!(state.still_unacked(s, link, seq).is_none(), "stale timer");
        assert_eq!(state.stats.retransmits, 1);
        assert_eq!(state.unacked_frames(), 0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_rto_is_rejected() {
        let _ = RecoveryConfig::with_rto(Delay::ZERO);
    }
}
