//! The time-ordered event queue: a calendar queue over one slab of live
//! events.
//!
//! Three tiers, always popped in globally increasing `(at, seq)` order:
//!
//! * a FIFO for events scheduled at the *current* instant (the dominant
//!   pattern of same-timestamp handler cascades) — O(1);
//! * a calendar ring of 512 ns buckets covering the next ~4.2 ms: Brown's
//!   calendar queue (R. Brown, "Calendar queues", CACM 31(10), 1988) with
//!   each bucket an unsorted list threaded through the slab — O(1) push.
//!   When the cursor reaches a bucket, its list is gathered into one reused
//!   buffer and sorted, and the bucket drains from that buffer;
//! * a binary heap over packed `(at, seq)` keys for events beyond the ring
//!   horizon, whose payloads park in the same slab. The heap head is
//!   migrated into the ring whenever it is due before the ring head, so
//!   cross-tier order is exact.
//!
//! The slab's free list is LIFO, so a push lands in a node a recent gather
//! just freed: storage is the events in flight plus one bucket, where a
//! `Vec` per bucket would keep every bucket's high-water mark for good.

use crate::engine::Address;
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// One scheduled delivery.
#[derive(Debug, Clone)]
pub(crate) struct Event<M> {
    pub(crate) at: SimTime,
    /// Canonical tie-break among equal timestamps: a sequence word whose top
    /// two bits carry the event class (see the `CLASS_*` constants). Channel
    /// deliveries are keyed by `(channel, transmission)`: same-instant
    /// arrivals order by channel, then by transmission, whatever order their
    /// sends were pushed in.
    pub(crate) seq: u64,
    pub(crate) to: Address,
    pub(crate) msg: M,
}

/// Mask of the class bits in a sequence word.
pub(crate) const CLASS_MASK: u64 = 0b11 << 62;
/// Externally injected events (workload API calls), numbered by one
/// injection counter in submission order.
pub(crate) const CLASS_INJECT: u64 = 0b00 << 62;
/// Timer events scheduled at a future instant.
pub(crate) const CLASS_TIMER: u64 = 0b01 << 62;
/// Channel deliveries, keyed by `(channel, transmission number)`.
pub(crate) const CLASS_CHANNEL: u64 = 0b10 << 62;
/// Events scheduled *at the current instant* (`deliver_now` and zero-delay
/// timers). This is the top class so that such events sort after everything
/// already scheduled for the instant, which is the documented `deliver_now`
/// contract.
pub(crate) const CLASS_NOW: u64 = 0b11 << 62;

/// The canonical sequence word of a channel delivery: the channel identifier
/// in bits 32..62 and the 1-based transmission number in the low 32 bits.
/// Both are properties of the simulated network.
///
/// The transmission-number bound is a hard assert even in release builds: a
/// channel past 2^32 sends would silently alias sequence words (fault rolls
/// use the full counter but ordering keys would not), corrupting same-instant
/// order with no diagnostic. The channel-id bound stays a debug assert — it
/// is enforced once at registration by `Engine::add_channel`.
pub(crate) fn channel_seq(channel: u32, sent: u64) -> u64 {
    debug_assert!(u64::from(channel) < (1 << 30), "channel id fits the key");
    assert!(
        sent <= u64::from(u32::MAX),
        "per-channel transmission numbers overflow the 32-bit sequence-key field"
    );
    CLASS_CHANNEL | (u64::from(channel) << 32) | sent
}

impl<M> Event<M> {
    fn key(&self) -> u128 {
        key(self.at, self.seq)
    }
}

/// `(at, seq)` packed into one integer: the timestamp in the high 64 bits,
/// the sequence number in the low 64 bits, so a single `u128` comparison
/// orders events globally.
fn key(at: SimTime, seq: u64) -> u128 {
    ((at.as_nanos() as u128) << 64) | seq as u128
}

/// Which tier of the queue holds the head event (see [`EventQueue::head`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HeadSource {
    /// Front of the same-instant FIFO.
    Fifo,
    /// Back of the gathered cursor bucket of the calendar ring.
    Ring,
    /// Head of the far-future overflow heap (only while the ring is empty).
    Far,
}

/// log2 of the bucket width in nanoseconds (512 ns buckets).
const BUCKET_BITS: u32 = 9;
/// log2 of the ring length (8192 buckets → a ~4.2 ms horizon).
const RING_BITS: u32 = 13;
const RING_LEN: usize = 1 << RING_BITS;
/// End of a bucket list or of the free list.
const NIL: u32 = u32::MAX;

/// A slab node: a queued event, linked into its ring bucket's list or keyed
/// by the overflow heap, or vacant (`msg` is `None`) on the free list.
#[derive(Debug)]
struct Node<M> {
    at: SimTime,
    seq: u64,
    to: Address,
    /// The next node of the same bucket list, or of the free list.
    next: u32,
    msg: Option<M>,
}

/// A deterministic min-priority queue of events (see the module docs).
#[derive(Debug)]
pub(crate) struct EventQueue<M> {
    /// Every calendar event not gathered into `bucket`.
    nodes: Vec<Node<M>>,
    /// Head of the LIFO free list through [`Node::next`].
    free: u32,
    /// First node of each ring bucket's list; bucket `b` holds events with
    /// `(at >> BUCKET_BITS) % RING_LEN == b` within the current span.
    heads: Box<[u32]>,
    /// Occupancy bitmap over the ring (one bit per bucket, counting the
    /// gathered cursor bucket).
    occupied: [u64; RING_LEN / 64],
    /// Number of events currently in the ring, gathered ones included.
    ring_len: usize,
    /// Bucket number (unwrapped: `at >> BUCKET_BITS`) the drain cursor is at.
    /// All ring/overflow events live at buckets `>= cursor`.
    cursor: u64,
    /// Whether the cursor bucket's events are in `bucket` (its list is then
    /// empty, and pushes into it binary-insert).
    gathered: bool,
    /// The gathered cursor bucket, sorted descending by key so the minimum
    /// pops from the back. Reused for every bucket.
    bucket: Vec<Event<M>>,
    /// Events beyond the ring horizon, as packed keys over slab nodes.
    overflow: BinaryHeap<Reverse<(u128, u32)>>,
    /// FIFO of events at `now_time`.
    now: VecDeque<Event<M>>,
    /// The current instant: timestamp of the last event popped from the
    /// calendar (`SimTime::ZERO` before the first pop, matching the engine's
    /// clock).
    now_time: SimTime,
    /// Counter behind [`CLASS_INJECT`] sequence words.
    inject_seq: u64,
    /// Counter behind [`CLASS_TIMER`] sequence words.
    timer_seq: u64,
    /// Counter behind [`CLASS_NOW`] sequence words.
    now_seq: u64,
    len: usize,
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        EventQueue {
            nodes: Vec::new(),
            free: NIL,
            heads: vec![NIL; RING_LEN].into_boxed_slice(),
            occupied: [0; RING_LEN / 64],
            ring_len: 0,
            cursor: 0,
            gathered: true,
            bucket: Vec::new(),
            overflow: BinaryHeap::new(),
            now: VecDeque::new(),
            now_time: SimTime::ZERO,
            inject_seq: 0,
            timer_seq: 0,
            now_seq: 0,
            len: 0,
        }
    }
}

impl<M> EventQueue<M> {
    /// Schedules an externally injected event (workload API calls); the
    /// per-queue injection counter numbers them in submission order.
    pub(crate) fn push_injected(&mut self, at: SimTime, to: Address, msg: M) {
        let seq = CLASS_INJECT | self.inject_seq;
        self.inject_seq += 1;
        self.push_with(at, seq, to, msg);
    }

    /// Schedules a timer. A zero-delay timer lands at the current instant and
    /// takes a [`CLASS_NOW`] word (it must sort after everything already
    /// scheduled for the instant, like any other same-instant push).
    pub(crate) fn push_timer(&mut self, at: SimTime, to: Address, msg: M) {
        let seq = if at == self.now_time {
            let s = CLASS_NOW | self.now_seq;
            self.now_seq += 1;
            s
        } else {
            let s = CLASS_TIMER | self.timer_seq;
            self.timer_seq += 1;
            s
        };
        self.push_with(at, seq, to, msg);
    }

    /// Schedules a delivery at the current instant, after all events already
    /// scheduled for it.
    pub(crate) fn push_now(&mut self, to: Address, msg: M) {
        let seq = CLASS_NOW | self.now_seq;
        self.now_seq += 1;
        self.push_with(self.now_time, seq, to, msg);
    }

    /// Schedules a channel delivery under its canonical
    /// `(channel, transmission)` sequence word.
    pub(crate) fn push_channel(&mut self, at: SimTime, seq: u64, to: Address, msg: M) {
        debug_assert_eq!(seq & CLASS_MASK, CLASS_CHANNEL);
        debug_assert!(at > self.now_time, "channel flight times are positive");
        self.push_with(at, seq, to, msg);
    }

    fn push_with(&mut self, at: SimTime, seq: u64, to: Address, msg: M) {
        self.len += 1;
        let event = Event { at, seq, to, msg };
        // The engine never schedules into the simulated past, so `at` is
        // either exactly the current instant (fast path) or in the future.
        // FIFO order is positional, which equals key order: same-instant
        // pushes carry ascending counter words of one class per run phase
        // (injections before a run, `CLASS_NOW` words during it).
        if at == self.now_time {
            return self.now.push_back(event);
        }
        debug_assert!(
            at > self.now_time,
            "events must not be scheduled in the past"
        );
        // The ring window is anchored at the current instant: every ring
        // event lives in [floor(now), floor(now) + RING_LEN) buckets, so two
        // ring events can never collide modulo the ring length.
        let bucket = at.as_nanos() >> BUCKET_BITS;
        if bucket >= (self.now_time.as_nanos() >> BUCKET_BITS) + RING_LEN as u64 {
            // Beyond the ring horizon: park in the overflow heap.
            let node = self.alloc(event);
            return self.overflow.push(Reverse((key(at, seq), node)));
        }
        self.ring_insert(bucket, event);
    }

    /// Stores `event` in a slab node, reusing the most recently freed one.
    fn alloc(&mut self, Event { at, seq, to, msg }: Event<M>) -> u32 {
        let node = Node {
            at,
            seq,
            to,
            next: NIL,
            msg: Some(msg),
        };
        if self.free == NIL {
            self.nodes.push(node);
            return (self.nodes.len() - 1) as u32;
        }
        let idx = self.free;
        self.free = std::mem::replace(&mut self.nodes[idx as usize], node).next;
        idx
    }

    /// Moves the event out of slab node `idx` and frees the node.
    fn release(&mut self, idx: u32) -> Event<M> {
        let node = &mut self.nodes[idx as usize];
        node.next = std::mem::replace(&mut self.free, idx);
        let msg = node.msg.take().expect("a live slab node");
        let (at, seq, to) = (node.at, node.seq, node.to);
        Event { at, seq, to, msg }
    }

    /// Pushes `event` onto the list of ring slot `slot`.
    fn link(&mut self, slot: usize, event: Event<M>) {
        let idx = self.alloc(event);
        self.nodes[idx as usize].next = std::mem::replace(&mut self.heads[slot], idx);
    }

    fn slot(bucket: u64) -> usize {
        (bucket & (RING_LEN as u64 - 1)) as usize
    }

    /// Inserts an event into its ring bucket, keeping the gathered cursor
    /// bucket sorted. The drain cursor moves *back* when the event lands
    /// before it (possible because the cursor may have skipped ahead over
    /// empty buckets while the clock — and thus new pushes — trails behind
    /// at the FIFO's instant); the bucket it leaves returns to its list.
    fn ring_insert(&mut self, bucket: u64, event: Event<M>) {
        debug_assert!({
            let floor = self.now_time.as_nanos() >> BUCKET_BITS;
            bucket >= floor && bucket < floor + RING_LEN as u64
        });
        let slot = Self::slot(bucket);
        if bucket < self.cursor {
            // Every bucket behind the cursor has been drained empty.
            debug_assert_eq!(self.heads[slot], NIL);
            let left = Self::slot(self.cursor);
            while let Some(e) = self.bucket.pop() {
                self.link(left, e);
            }
            self.cursor = bucket;
            self.gathered = true;
        }
        if bucket == self.cursor && self.gathered {
            // Insertion into the bucket being drained (only possible for
            // sub-bucket-width delays or overflow migration).
            let k = event.key();
            let pos = self.bucket.partition_point(|e| e.key() > k);
            self.bucket.insert(pos, event);
        } else {
            self.link(slot, event);
        }
        self.occupied[slot / 64] |= 1 << (slot % 64);
        self.ring_len += 1;
    }

    /// Advances `cursor` to the next non-empty ring bucket (itself included).
    /// Only called while `ring_len > 0`, so a set bit always exists.
    fn advance_to_occupied(&mut self) {
        let start = Self::slot(self.cursor);
        if self.occupied[start / 64] >> (start % 64) & 1 == 1 {
            return;
        }
        let words = RING_LEN / 64;
        let mut word_i = start / 64;
        // Bits strictly above `start` in its word.
        let mut word = self.occupied[word_i] & (u64::MAX << (start % 64)) & !(1 << (start % 64));
        let mut scanned = 0usize;
        loop {
            if word != 0 {
                let next_slot = word_i * 64 + word.trailing_zeros() as usize;
                let delta = (next_slot + RING_LEN - start) % RING_LEN;
                self.cursor += delta as u64;
                self.gathered = false;
                return;
            }
            word_i = (word_i + 1) % words;
            word = self.occupied[word_i];
            scanned += 1;
            debug_assert!(scanned <= words, "occupancy bitmap empty with ring_len > 0");
        }
    }

    /// Key of the next calendar event and its tier, migrating near-due
    /// overflow events into the ring. [`HeadSource::Far`] (a far-future
    /// event served straight from the heap) only happens while the ring is
    /// empty.
    fn calendar_peek(&mut self) -> Option<(u128, HeadSource)> {
        loop {
            let ring_head = if self.ring_len > 0 {
                self.advance_to_occupied();
                if !self.gathered {
                    let mut idx = std::mem::replace(&mut self.heads[Self::slot(self.cursor)], NIL);
                    while idx != NIL {
                        let next = self.nodes[idx as usize].next;
                        let event = self.release(idx);
                        self.bucket.push(event);
                        idx = next;
                    }
                    self.bucket.sort_unstable_by_key(|e| Reverse(e.key()));
                    self.gathered = true;
                }
                Some(self.bucket.last().expect("occupied bucket").key())
            } else {
                None
            };
            match (ring_head, self.overflow.peek()) {
                // An overflow event due before the ring head always fits the
                // ring window (its bucket is at most the ring head's).
                (Some(r), Some(&Reverse((k, _)))) if k < r => self.migrate_overflow_head(),
                (Some(r), _) => return Some((r, HeadSource::Ring)),
                (None, Some(&Reverse((k, _)))) => {
                    let bucket = ((k >> 64) as u64) >> BUCKET_BITS;
                    if bucket < (self.now_time.as_nanos() >> BUCKET_BITS) + RING_LEN as u64 {
                        self.migrate_overflow_head();
                    } else {
                        return Some((k, HeadSource::Far));
                    }
                }
                (None, None) => return None,
            }
        }
    }

    /// Moves the overflow head into the ring (caller ensures it fits the
    /// current window).
    fn migrate_overflow_head(&mut self) {
        let Reverse((k, idx)) = self.overflow.pop().expect("caller checked the head");
        let event = self.release(idx);
        self.ring_insert(((k >> 64) as u64) >> BUCKET_BITS, event);
    }

    #[cfg(test)]
    pub(crate) fn pop(&mut self) -> Option<Event<M>> {
        self.pop_at_most(SimTime::MAX)
    }

    /// Locates the globally next event: its packed `(at, seq)` key and which
    /// tier holds it. Migrates due overflow events as a side effect (via
    /// [`EventQueue::calendar_peek`]); the returned source stays valid until
    /// the next mutation.
    fn head(&mut self) -> Option<(u128, HeadSource)> {
        let calendar = self.calendar_peek();
        match (self.now.front(), calendar) {
            (Some(f), Some((k, _))) if f.key() < k => Some((f.key(), HeadSource::Fifo)),
            (Some(f), None) => Some((f.key(), HeadSource::Fifo)),
            (_, calendar) => calendar,
        }
    }

    /// Removes and returns the head event located by [`EventQueue::head`].
    fn take(&mut self, src: HeadSource) -> Event<M> {
        self.len -= 1;
        let event = match src {
            HeadSource::Fifo => return self.now.pop_front().expect("peeked FIFO head"),
            HeadSource::Ring => {
                let event = self.bucket.pop().expect("peeked ring head");
                if self.bucket.is_empty() {
                    let slot = Self::slot(self.cursor);
                    self.occupied[slot / 64] &= !(1 << (slot % 64));
                }
                self.ring_len -= 1;
                event
            }
            HeadSource::Far => {
                // Far-future overflow head with an empty ring: serve it
                // directly. The cursor trails the clock so future near
                // pushes re-anchor it.
                let Reverse((_, idx)) = self.overflow.pop().expect("peeked overflow head");
                let event = self.release(idx);
                self.cursor = event.at.as_nanos() >> BUCKET_BITS;
                self.gathered = true;
                event
            }
        };
        self.now_time = event.at;
        event
    }

    /// Pops the next event if its timestamp is at or before `horizon`; the
    /// head is located once and taken directly.
    pub(crate) fn pop_at_most(&mut self, horizon: SimTime) -> Option<Event<M>> {
        let (head_key, src) = self.head()?;
        if (head_key >> 64) as u64 > horizon.as_nanos() {
            return None;
        }
        Some(self.take(src))
    }

    /// Pops *every* event scheduled at the head timestamp into `buf`, in the
    /// canonical FIFO order — the whole same-instant group, across tiers.
    /// Used by the interleaving explorer: the caller delivers one member and
    /// re-pushes the rest (fresh sequence numbers preserve their relative
    /// order, and anything a handler then schedules at the same instant
    /// sorts behind them, exactly as in an unexplored run).
    pub(crate) fn drain_head_group(&mut self, buf: &mut Vec<(Address, M)>) {
        buf.clear();
        let Some((head_key, _)) = self.head() else {
            return;
        };
        while let Some((_, src)) = self.head().filter(|(k, _)| k >> 64 == head_key >> 64) {
            let e = self.take(src);
            buf.push((e.to, e.msg));
        }
    }

    /// The timestamp of the head-group events most recently drained (the
    /// queue's current instant).
    pub(crate) fn now_time(&self) -> SimTime {
        self.now_time
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::default();
        q.push_timer(SimTime::from_micros(5), Address(0), "b");
        q.push_timer(SimTime::from_micros(1), Address(0), "a");
        q.push_timer(SimTime::from_micros(9), Address(0), "c");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().unwrap().msg, "a");
        assert_eq!(q.pop().unwrap().msg, "b");
        assert_eq!(q.pop().unwrap().msg, "c");
        assert!(q.is_empty());
    }

    #[test]
    fn equal_timestamps_are_fifo() {
        let mut q = EventQueue::default();
        let t = SimTime::from_micros(3);
        for i in 0..10 {
            q.push_timer(t, Address(i), i);
        }
        for i in 0..10 {
            let e = q.pop().unwrap();
            assert_eq!(e.msg, i);
            assert_eq!(e.to, Address(i));
        }
    }

    #[test]
    fn far_future_events_cross_the_overflow_boundary() {
        let mut q = EventQueue::default();
        // Beyond the ~4.2 ms ring horizon: lands in the overflow heap.
        q.push_timer(SimTime::from_millis(50), Address(1), "far");
        q.push_timer(SimTime::from_millis(200), Address(2), "farther");
        q.push_timer(SimTime::from_micros(1), Address(0), "near");
        assert_eq!(q.len(), 3);
        let a = q.pop().unwrap();
        assert_eq!(a.msg, "near");
        let b = q.pop().unwrap();
        assert_eq!((b.msg, b.at), ("far", SimTime::from_millis(50)));
        let c = q.pop().unwrap();
        assert_eq!((c.msg, c.at), ("farther", SimTime::from_millis(200)));
        assert!(q.is_empty());
        assert_eq!(q.pop().map(|e| e.msg), None);
    }

    #[test]
    fn overflow_events_are_not_leapfrogged_by_ring_traffic() {
        // Keep the ring busy while an overflow event's due time approaches;
        // the overflow event must pop exactly in order.
        let mut q = EventQueue::default();
        // Overflow event at 6 ms (beyond the 4.19 ms horizon from t=0).
        q.push_timer(SimTime::from_micros(6_000), Address(9), u64::MAX);
        // A chain of ring events marching right past 6 ms.
        for i in 0..1_000u64 {
            q.push_timer(SimTime::from_micros(i * 10 + 1), Address(0), i);
        }
        let mut last = 0u128;
        let mut seen_overflow_after = None;
        let mut popped = 0;
        while let Some(e) = q.pop() {
            let k = key(e.at, e.seq);
            assert!(k >= last, "events popped out of order");
            last = k;
            if e.msg == u64::MAX {
                seen_overflow_after = Some(popped);
            }
            popped += 1;
        }
        assert_eq!(popped, 1_001);
        // 6 ms lands between ring events 599 (5.991 ms) and 600 (6.001 ms).
        assert_eq!(seen_overflow_after, Some(600));
    }

    #[test]
    fn interleaved_pushes_and_pops_stay_ordered() {
        // Mimics a protocol run: every pop triggers pushes a short delay
        // ahead, with occasional long timers; the popped sequence must be
        // globally non-decreasing in (at, seq).
        let mut q = EventQueue::default();
        q.push_timer(SimTime::from_nanos(1), Address(0), 0u64);
        let mut popped = 0u64;
        let mut last_key = 0u128;
        let mut rng: u64 = 0x243F_6A88_85A3_08D3;
        while let Some(e) = q.pop() {
            let k = key(e.at, e.seq);
            assert!(k >= last_key, "events popped out of order");
            last_key = k;
            popped += 1;
            if popped > 20_000 {
                continue;
            }
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // 0–3 successor events at mixed near/far delays.
            for j in 0..(rng >> 61).min(3) {
                let r = rng.rotate_left(11 * (j as u32 + 1));
                let delay_ns = match r % 5 {
                    0 => 0,                          // same instant (FIFO path)
                    1 => 1 + r % 300,                // sub-bucket
                    2 => 1_000 + r % 3_000,          // LAN-ish
                    3 => 100_000 + r % 1_000_000,    // WAN-ish
                    _ => 5_000_000 + r % 20_000_000, // beyond the ring span
                };
                q.push_timer(
                    SimTime::from_nanos(e.at.as_nanos() + delay_ns),
                    Address(j as u32),
                    popped,
                );
            }
        }
        assert!(popped > 20_000);
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn now_bucket_and_calendar_interleave_deterministically() {
        let mut q = EventQueue::default();
        // Advance the queue's notion of "now" to 5 µs.
        q.push_timer(SimTime::from_micros(5), Address(0), 0u32);
        assert_eq!(q.pop().unwrap().msg, 0);
        // Same-instant events (FIFO bucket) plus later calendar events.
        q.push_timer(SimTime::from_micros(5), Address(0), 1);
        q.push_timer(SimTime::from_micros(6), Address(0), 3);
        q.push_timer(SimTime::from_micros(5), Address(0), 2);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|e| e.msg)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn a_push_behind_a_skipped_ahead_cursor_returns_its_gathered_bucket() {
        let mut q = EventQueue::default();
        let t = |ns: u64| SimTime::from_nanos(ns);
        q.push_timer(t(3_000_000), Address(0), 3);
        q.push_timer(t(3_000_100), Address(0), 5);
        q.push_now(Address(0), 0);
        // Popping the same-instant event peeks the calendar, which skips the
        // cursor ahead to the 3 ms bucket and gathers it.
        assert_eq!(q.pop().map(|e| e.msg), Some(0));
        let far = 3_000_000 >> BUCKET_BITS;
        assert!(q.gathered && q.cursor == far);
        // A push behind the cursor moves it back and returns the gathered
        // events to their list; later pushes land in lists again.
        q.push_timer(t(1_000), Address(0), 1);
        assert_eq!(q.cursor, 1_000 >> BUCKET_BITS);
        assert_ne!(q.heads[EventQueue::<u32>::slot(far)], NIL);
        q.push_timer(t(3_000_050), Address(0), 4);
        q.push_timer(t(2_000), Address(0), 2);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|e| e.msg)).collect();
        assert_eq!(order, vec![1, 2, 3, 4, 5]);
        assert_eq!(q.len(), 0);
    }

    /// Event slots the queue holds allocated: the slab, the gathered bucket
    /// and the FIFO.
    fn stored_capacity<M>(q: &EventQueue<M>) -> usize {
        q.nodes.capacity() + q.bucket.capacity() + q.now.capacity()
    }

    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    #[test]
    fn storage_follows_the_events_in_flight_not_the_buckets_ever_used() {
        // 2,000 events in flight, each pop scheduling its successor 1–200 µs
        // ahead, until the clock has lapped the ring three times: every
        // bucket fills and drains over and over.
        let mut q = EventQueue::default();
        let mut rng = 0x243F_6A88_85A3_08D3;
        for i in 0..2_000u32 {
            let at = SimTime::from_nanos(1_000 + lcg(&mut rng) % 199_000);
            q.push_timer(at, Address(0), i);
        }
        let laps = 3 * ((RING_LEN as u64) << BUCKET_BITS);
        let (mut peak, mut widest, mut run, mut bucket) = (q.len(), 0, 0, u64::MAX);
        while let Some(e) = q.pop() {
            let b = e.at.as_nanos() >> BUCKET_BITS;
            run = if b == bucket { run + 1 } else { 1 };
            (bucket, widest) = (b, widest.max(run));
            if e.at.as_nanos() < laps {
                let at = e.at.as_nanos() + 1_000 + lcg(&mut rng) % 199_000;
                q.push_timer(SimTime::from_nanos(at), e.to, e.msg);
            }
            peak = peak.max(q.len());
        }
        // Amortized doubling of the slab, plus one gathered bucket.
        let bound = 2 * peak + 2 * widest;
        let stored = stored_capacity(&q);
        assert!(
            stored <= bound,
            "{stored} event slots retained for {peak} in flight (bound {bound})"
        );
    }

    /// The reference the queue must agree with: one ordered map over
    /// `(at, seq)`, with the queue's sequence-word rules spelled out again.
    #[derive(Default)]
    struct Model {
        events: BTreeMap<(u64, u64), (Address, u32)>,
        now: u64,
        inject: u64,
        timer: u64,
        now_seq: u64,
        sent: [u64; 3],
    }

    impl Model {
        fn pop(&mut self) -> Option<(u64, u64, Address, u32)> {
            let ((at, seq), (to, msg)) = self.events.pop_first()?;
            self.now = at;
            Some((at, seq, to, msg))
        }

        fn push_now(&mut self, to: Address, msg: u32) {
            self.events
                .insert((self.now, CLASS_NOW | self.now_seq), (to, msg));
            self.now_seq += 1;
        }
    }

    /// A delay of one of five classes: the same instant, sub-bucket, inside
    /// the ring, straddling its ~4.2 ms horizon, and beyond it.
    fn delay(class: u8, raw: u64) -> u64 {
        let horizon = (RING_LEN as u64) << BUCKET_BITS;
        match class {
            0 => 0,
            1 => 1 + raw % 511,
            2 => 512 + raw % (horizon - 1_024),
            3 => horizon - 2_048 + raw % 4_096,
            _ => horizon + raw % 30_000_000,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Injected, timer, same-instant and channel pushes at every delay
        /// class, interleaved with pops and whole same-instant groups
        /// drained (the tail re-pushed, as the interleaving explorer does):
        /// every pop equals the model's, and so does the length.
        #[test]
        fn pops_match_an_ordered_map_model(
            ops in prop::collection::vec((0u8..8, 0u8..5, 0u64..u64::MAX), 1..400)
        ) {
            let mut q = EventQueue::default();
            let mut model = Model::default();
            let mut group = Vec::new();
            for (i, &(op, class, raw)) in ops.iter().enumerate() {
                let (msg, to) = (i as u32, Address(u32::from(op)));
                let at = model.now + delay(class, raw);
                match op {
                    0 => {
                        let at = at.max(model.now + 1);
                        q.push_injected(SimTime::from_nanos(at), to, msg);
                        model.events.insert((at, CLASS_INJECT | model.inject), (to, msg));
                        model.inject += 1;
                    }
                    1 => {
                        q.push_timer(SimTime::from_nanos(at), to, msg);
                        if at == model.now {
                            model.push_now(to, msg);
                        } else {
                            model.events.insert((at, CLASS_TIMER | model.timer), (to, msg));
                            model.timer += 1;
                        }
                    }
                    2 => {
                        q.push_now(to, msg);
                        model.push_now(to, msg);
                    }
                    3 => {
                        let (at, ch) = (at.max(model.now + 1), (raw % 3) as usize);
                        model.sent[ch] += 1;
                        let seq = channel_seq(ch as u32, model.sent[ch]);
                        q.push_channel(SimTime::from_nanos(at), seq, to, msg);
                        model.events.insert((at, seq), (to, msg));
                    }
                    4..=6 => {
                        let got = q.pop().map(|e| (e.at.as_nanos(), e.seq, e.to, e.msg));
                        prop_assert_eq!(got, model.pop());
                    }
                    _ => {
                        q.drain_head_group(&mut group);
                        let mut want = Vec::new();
                        if let Some((t, _, to, msg)) = model.pop() {
                            want.push((to, msg));
                            while model.events.first_key_value().is_some_and(|(k, _)| k.0 == t) {
                                let (_, _, to, msg) = model.pop().expect("peeked");
                                want.push((to, msg));
                            }
                        }
                        prop_assert_eq!(&group, &want);
                        prop_assert_eq!(q.now_time().as_nanos(), model.now);
                        for (to, msg) in group.drain(..).skip(1) {
                            q.push_now(to, msg);
                            model.push_now(to, msg);
                        }
                    }
                }
                prop_assert_eq!(q.len(), model.events.len());
            }
            while let Some(e) = q.pop() {
                prop_assert_eq!(Some((e.at.as_nanos(), e.seq, e.to, e.msg)), model.pop());
            }
            prop_assert!(model.events.is_empty());
        }
    }
}
