//! The time-ordered event queue: a calendar queue (bucket ring) with a
//! same-instant FIFO fast path and a far-future overflow heap.

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
    /// Front of the same-instant FIFO bucket.
    Fifo,
    /// Back of the sorted cursor bucket of the calendar ring.
    Ring,
    /// Head of the far-future overflow heap (only while the ring is empty).
    Far,
}

impl HeadSource {
    fn calendar(in_ring: bool) -> Self {
        if in_ring {
            HeadSource::Ring
        } else {
            HeadSource::Far
        }
    }
}

/// log2 of the bucket width in nanoseconds (512 ns buckets).
const BUCKET_BITS: u32 = 9;
/// log2 of the ring length (8192 buckets → a ~4.2 ms horizon).
const RING_BITS: u32 = 13;
const RING_LEN: usize = 1 << RING_BITS;

/// A deterministic min-priority queue of events.
///
/// Three tiers, always popped in globally increasing `(at, seq)` order:
///
/// * a FIFO bucket for events scheduled at the *current* instant (the
///   dominant pattern of same-timestamp handler cascades) — O(1);
/// * a calendar ring of 512 ns buckets covering the next ~4 ms of simulated
///   time — O(1) push, amortized O(1) pop. Each bucket is sorted (descending,
///   so the minimum pops from the back) when the clock reaches it; network
///   delays exceed the bucket width, so events essentially never land in the
///   bucket being drained. An occupancy bitmap finds the next non-empty
///   bucket without walking empty ones one by one;
/// * a binary heap over packed `(at, seq)` keys for events beyond the ring
///   horizon (WAN-scale timers and widely spaced workload phases). Before
///   every calendar pop the overflow head is compared against the ring head
///   and migrated into the ring when it is due first, so cross-tier order is
///   exact.
///
/// This is the classic calendar-queue design of packet-level simulators; the
/// binary heap it replaces cost `O(log n)` sifts of event-sized elements on
/// every send and delivery, which dominated the per-event budget of the
/// protocol experiments.
#[derive(Debug)]
pub(crate) struct EventQueue<M> {
    /// Calendar ring; bucket `b` holds events with
    /// `(at >> BUCKET_BITS) % RING_LEN == b` within the current span,
    /// sorted descending by key once the cursor reaches the bucket.
    ring: Box<[Vec<Event<M>>]>,
    /// Occupancy bitmap over `ring` (one bit per bucket).
    occupied: [u64; RING_LEN / 64],
    /// Number of events currently stored in the ring.
    ring_len: usize,
    /// Bucket number (unwrapped: `at >> BUCKET_BITS`) the drain cursor is at.
    /// All ring/overflow events live at buckets `>= cursor`.
    cursor: u64,
    /// Whether `ring[cursor % RING_LEN]` is currently sorted (descending).
    cursor_sorted: bool,
    /// Events beyond the ring horizon, as packed keys over a payload slab.
    overflow: BinaryHeap<Reverse<(u128, u32)>>,
    /// Payload slab for `overflow`; `None` marks a vacant slot.
    slab: Vec<Option<(Address, M)>>,
    /// Vacant slab slots.
    free: Vec<u32>,
    /// FIFO bucket of events at `now_time`.
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
        // xlint: allow(HOT001, reason = "calendar-ring construction, once per queue lifetime")
        let mut ring = Vec::with_capacity(RING_LEN);
        // xlint: allow(HOT001, reason = "calendar-ring construction, once per queue lifetime")
        ring.resize_with(RING_LEN, Vec::new);
        EventQueue {
            ring: ring.into_boxed_slice(),
            occupied: [0; RING_LEN / 64],
            ring_len: 0,
            cursor: 0,
            cursor_sorted: true,
            overflow: BinaryHeap::new(),
            // xlint: allow(HOT001, reason = "queue construction, once per queue lifetime")
            slab: Vec::new(),
            // xlint: allow(HOT001, reason = "queue construction, once per queue lifetime")
            free: Vec::new(),
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
        // The engine never schedules into the simulated past, so `at` is
        // either exactly the current instant (fast path) or in the future.
        // FIFO order is positional, which equals key order: same-instant
        // pushes carry ascending counter words of one class per run phase
        // (injections before a run, `CLASS_NOW` words during it).
        if at == self.now_time {
            self.now.push_back(Event { at, seq, to, msg });
            return;
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
            let idx = match self.free.pop() {
                Some(idx) => {
                    self.slab[idx as usize] = Some((to, msg));
                    idx
                }
                None => {
                    self.slab.push(Some((to, msg)));
                    (self.slab.len() - 1) as u32
                }
            };
            self.overflow.push(Reverse((key(at, seq), idx)));
            return;
        }
        self.ring_insert(bucket, Event { at, seq, to, msg });
    }

    /// Inserts an event into its ring bucket, preserving the sortedness of
    /// the bucket currently being drained. The drain cursor moves *back* when
    /// the event lands before it (possible because the cursor may have
    /// skipped ahead over empty buckets while the clock — and thus new
    /// pushes — trails behind at the FIFO bucket's instant).
    fn ring_insert(&mut self, bucket: u64, event: Event<M>) {
        debug_assert!({
            let floor = self.now_time.as_nanos() >> BUCKET_BITS;
            bucket >= floor && bucket < floor + RING_LEN as u64
        });
        let slot = (bucket & (RING_LEN as u64 - 1)) as usize;
        if bucket < self.cursor {
            // Every bucket behind the cursor has been drained empty.
            debug_assert!(self.ring[slot].is_empty());
            self.cursor = bucket;
            self.cursor_sorted = true;
        }
        if bucket == self.cursor && self.cursor_sorted {
            // Insertion into the bucket currently being drained (only
            // possible for sub-bucket-width delays or overflow migration):
            // keep it sorted descending.
            let v = &mut self.ring[slot];
            let k = event.key();
            let pos = v.partition_point(|e| e.key() > k);
            v.insert(pos, event);
        } else {
            self.ring[slot].push(event);
            if bucket == self.cursor {
                self.cursor_sorted = false;
            }
        }
        self.occupied[slot / 64] |= 1 << (slot % 64);
        self.ring_len += 1;
    }

    /// Advances `cursor` to the next non-empty ring bucket (itself included).
    /// Only called while `ring_len > 0`, so a set bit always exists.
    fn advance_to_occupied(&mut self) {
        let start = (self.cursor & (RING_LEN as u64 - 1)) as usize;
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
                self.cursor_sorted = false;
                return;
            }
            word_i = (word_i + 1) % words;
            word = self.occupied[word_i];
            scanned += 1;
            debug_assert!(scanned <= words, "occupancy bitmap empty with ring_len > 0");
        }
    }

    /// Key of the next calendar event, migrating near-due overflow events
    /// into the ring. `(key, true)` means the sorted cursor bucket's back
    /// holds the event; `(key, false)` means the overflow head is next (a
    /// far-future event served straight from the heap, which only happens
    /// while the ring is empty).
    fn calendar_peek(&mut self) -> Option<(u128, bool)> {
        loop {
            let ring_head = if self.ring_len > 0 {
                self.advance_to_occupied();
                let slot = (self.cursor & (RING_LEN as u64 - 1)) as usize;
                if !self.cursor_sorted {
                    self.ring[slot].sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
                    self.cursor_sorted = true;
                }
                Some(self.ring[slot].last().expect("occupied bucket").key())
            } else {
                None
            };
            match (ring_head, self.overflow.peek()) {
                // An overflow event due before the ring head always fits the
                // ring window (its bucket is at most the ring head's).
                (Some(r), Some(&Reverse((k, _)))) if k < r => self.migrate_overflow_head(),
                (Some(r), _) => return Some((r, true)),
                (None, Some(&Reverse((k, _)))) => {
                    let bucket = ((k >> 64) as u64) >> BUCKET_BITS;
                    if bucket < (self.now_time.as_nanos() >> BUCKET_BITS) + RING_LEN as u64 {
                        self.migrate_overflow_head();
                    } else {
                        return Some((k, false));
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
        let (to, msg) = self.slab[idx as usize].take().expect("slab slot occupied");
        self.free.push(idx);
        let at_ns = (k >> 64) as u64;
        self.ring_insert(
            at_ns >> BUCKET_BITS,
            Event {
                at: SimTime::from_nanos(at_ns),
                seq: k as u64,
                to,
                msg,
            },
        );
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
            (Some(f), None) => Some((f.key(), HeadSource::Fifo)),
            (None, Some((k, in_ring))) => Some((k, HeadSource::calendar(in_ring))),
            (Some(f), Some((k, in_ring))) => {
                let fk = f.key();
                if fk < k {
                    Some((fk, HeadSource::Fifo))
                } else {
                    Some((k, HeadSource::calendar(in_ring)))
                }
            }
            (None, None) => None,
        }
    }

    /// Removes and returns the head event located by [`EventQueue::head`].
    fn take(&mut self, src: HeadSource) -> Event<M> {
        self.len -= 1;
        match src {
            HeadSource::Fifo => self.now.pop_front().expect("peeked FIFO head"),
            HeadSource::Ring => {
                // The sorted cursor bucket's back holds the next event.
                let slot = (self.cursor & (RING_LEN as u64 - 1)) as usize;
                let event = self.ring[slot].pop().expect("peeked ring head");
                if self.ring[slot].is_empty() {
                    self.occupied[slot / 64] &= !(1 << (slot % 64));
                }
                self.ring_len -= 1;
                self.now_time = event.at;
                event
            }
            HeadSource::Far => {
                // Far-future overflow head with an empty ring: serve it
                // directly.
                let Reverse((k, idx)) = self.overflow.pop().expect("peeked overflow head");
                let (to, msg) = self.slab[idx as usize].take().expect("slab slot occupied");
                self.free.push(idx);
                let at = SimTime::from_nanos((k >> 64) as u64);
                self.now_time = at;
                // The cursor trails the clock so future near pushes re-anchor
                // it.
                self.cursor = at.as_nanos() >> BUCKET_BITS;
                self.cursor_sorted = true;
                Event {
                    at,
                    seq: k as u64,
                    to,
                    msg,
                }
            }
        }
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
        let Some((head_key, src)) = self.head() else {
            return;
        };
        let t = (head_key >> 64) as u64;
        let first = self.take(src);
        self.now_time = first.at;
        buf.push((first.to, first.msg));
        while let Some((k, src)) = self.head() {
            if (k >> 64) as u64 != t {
                break;
            }
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
}
