//! An inline open-addressing id → slot table for the per-link hot path.
//!
//! A `HashMap` routes every probe through its own heap allocation
//! (SwissTable control bytes plus a separate entry array), which is one
//! dependent cache miss per packet on top of the member record itself (and
//! the std hasher adds SipHash on top). [`IdSlotMap`] flattens the table into
//! a single boxed slice of 16-byte entries — key, value and occupancy state
//! share one entry, four entries share one cache line — probed linearly from
//! a Fibonacci-hash bucket, so a lookup touches one or two *predictable*
//! cache lines and the owning struct (e.g. `RouterLink`) needs no second
//! pointer chase.
//!
//! Deletions leave tombstones so probe chains stay intact; the table rehashes
//! in place (same capacity) when tombstones crowd it and doubles when it is
//! genuinely full, keeping the load factor at or below 1/2 — linear probing
//! (unlike SwissTable's 16-way SIMD groups) degrades steeply past that, and
//! on the heavily shared backbone links the table is lookup-dominated, so
//! short probe chains are worth the doubled (still 32 bytes per live entry)
//! footprint. Iteration order
//! is unspecified — callers that need a deterministic order (the protocol
//! engines do) must keep their own dense array and use the map only for id →
//! index resolution.

use crate::session::SessionId;

/// `2^64 / φ`, the Fibonacci hashing multiplier.
const PHI: u64 = 0x9E37_79B9_7F4A_7C15;

const EMPTY: u8 = 0;
const FULL: u8 = 1;
const TOMB: u8 = 2;

/// One table slot: the key, its value and the occupancy state, padded to 16
/// bytes so four entries tile a cache line exactly.
#[derive(Debug, Clone, Copy)]
struct Entry {
    key: u64,
    val: u32,
    state: u8,
}

const VACANT: Entry = Entry {
    key: 0,
    val: 0,
    state: EMPTY,
};

/// An open-addressing `SessionId → u32` map with inline 16-byte entries.
///
/// Semantically a subset of `HashMap<SessionId, u32>`: insert, lookup,
/// remove, length and (unordered) iteration. A fresh map holds no heap
/// allocation at all; the first insert allocates the minimum table.
#[derive(Debug, Clone, Default)]
pub struct IdSlotMap {
    /// Power-of-two table (empty before the first insert).
    entries: Box<[Entry]>,
    /// Number of occupied (`FULL`) entries.
    len: usize,
    /// Number of tombstones (`TOMB` entries).
    tombs: usize,
}

impl IdSlotMap {
    /// Smallest non-empty table; with the 1/2 load-factor bound it always
    /// keeps at least one `EMPTY` entry, which probe loops rely on to
    /// terminate.
    const MIN_CAPACITY: usize = 8;

    /// Creates an empty map (no allocation).
    pub fn new() -> Self {
        IdSlotMap::default()
    }

    /// Number of entries in the map.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The current table capacity (for load-factor tests; 0 before the first
    /// insert).
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    #[inline]
    fn bucket(&self, key: u64) -> usize {
        // Multiply spreads the key into the high bits; folding them down
        // makes the low bits (the bucket index) depend on all of the key.
        let h = key.wrapping_mul(PHI);
        ((h ^ (h >> 32)) as usize) & (self.entries.len() - 1)
    }

    /// The value of `session`, if present.
    #[inline]
    pub fn get(&self, session: SessionId) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        let mask = self.entries.len() - 1;
        let mut i = self.bucket(session.0);
        loop {
            let e = &self.entries[i];
            if e.state == EMPTY {
                return None;
            }
            if e.state == FULL && e.key == session.0 {
                return Some(e.val);
            }
            i = (i + 1) & mask;
        }
    }

    /// Inserts or updates `session → val`; returns the previous value if the
    /// key was present.
    pub fn insert(&mut self, session: SessionId, val: u32) -> Option<u32> {
        self.reserve_one();
        let mask = self.entries.len() - 1;
        let mut i = self.bucket(session.0);
        // First tombstone of the probe chain: the insertion point if the key
        // turns out to be absent (reusing it keeps chains short).
        let mut grave: Option<usize> = None;
        loop {
            let e = self.entries[i];
            match e.state {
                EMPTY => {
                    let at = grave.unwrap_or(i);
                    if self.entries[at].state == TOMB {
                        self.tombs -= 1;
                    }
                    self.entries[at] = Entry {
                        key: session.0,
                        val,
                        state: FULL,
                    };
                    self.len += 1;
                    return None;
                }
                FULL if e.key == session.0 => {
                    let old = e.val;
                    self.entries[i].val = val;
                    return Some(old);
                }
                TOMB if grave.is_none() => {
                    grave = Some(i);
                }
                _ => {}
            }
            i = (i + 1) & mask;
        }
    }

    /// Removes `session`, returning its value if it was present. The entry
    /// becomes a tombstone; in-place rehashes reclaim tombstones once they
    /// crowd the table.
    pub fn remove(&mut self, session: SessionId) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        let mask = self.entries.len() - 1;
        let mut i = self.bucket(session.0);
        loop {
            let e = self.entries[i];
            match e.state {
                EMPTY => return None,
                FULL if e.key == session.0 => {
                    self.entries[i].state = TOMB;
                    self.len -= 1;
                    self.tombs += 1;
                    return Some(e.val);
                }
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Iterates over the entries in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (SessionId, u32)> + '_ {
        self.entries
            .iter()
            .filter(|e| e.state == FULL)
            .map(|e| (SessionId(e.key), e.val))
    }

    /// Makes room for one more entry, growing (or compacting tombstones away)
    /// whenever occupied + dead entries would exceed 1/2 of the table.
    fn reserve_one(&mut self) {
        let cap = self.entries.len();
        if cap == 0 {
            self.entries = vec![VACANT; Self::MIN_CAPACITY].into_boxed_slice();
            return;
        }
        if (self.len + self.tombs + 1) * 2 <= cap {
            return;
        }
        // Double only when live entries genuinely need it; otherwise rehash
        // at the same capacity, which exists purely to clear tombstones (the
        // churn workloads remove as many sessions as they add).
        let new_cap = if (self.len + 1) * 2 > cap {
            cap * 2
        } else {
            cap
        };
        let old = std::mem::replace(&mut self.entries, vec![VACANT; new_cap].into_boxed_slice());
        self.tombs = 0;
        let mask = new_cap - 1;
        for e in old.iter().filter(|e| e.state == FULL) {
            let mut i = self.bucket(e.key);
            while self.entries[i].state == FULL {
                i = (i + 1) & mask;
            }
            self.entries[i] = *e;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Entry>(), 16);
    }

    #[test]
    fn roundtrips_inserts_updates_and_removes() {
        let mut map = IdSlotMap::new();
        assert!(map.is_empty());
        assert_eq!(map.get(SessionId(7)), None);
        for i in 0..1000u64 {
            assert_eq!(map.insert(SessionId(i), i as u32), None);
        }
        assert_eq!(map.len(), 1000);
        assert_eq!(map.insert(SessionId(3), 99), Some(3));
        assert_eq!(map.get(SessionId(3)), Some(99));
        for i in (0..1000u64).step_by(2) {
            assert_eq!(map.remove(SessionId(i)), Some(i as u32));
        }
        assert_eq!(map.len(), 500);
        assert_eq!(map.remove(SessionId(0)), None);
        for i in (1..1000u64).step_by(2) {
            let expected = if i == 3 { 99 } else { i as u32 };
            assert_eq!(map.get(SessionId(i)), Some(expected));
        }
        assert_eq!(map.iter().count(), 500);
    }

    #[test]
    fn tombstone_churn_rehashes_in_place_without_growing() {
        // Fill to just under the load-factor bound, then churn remove+insert
        // far more times than the capacity: tombstones must be compacted by
        // same-capacity rehashes, not answered with unbounded doubling.
        let mut map = IdSlotMap::new();
        for i in 0..28u64 {
            map.insert(SessionId(i), i as u32);
        }
        let cap = map.capacity();
        assert_eq!(cap, 64, "28 live entries fit a 64-entry table at 1/2");
        for round in 0..10_000u64 {
            let dead = round % 28;
            assert_eq!(map.remove(SessionId(dead)), Some(dead as u32));
            assert_eq!(map.insert(SessionId(dead), dead as u32), None);
        }
        assert_eq!(map.len(), 28);
        assert_eq!(
            map.capacity(),
            cap,
            "steady-state churn must not grow the table"
        );
        for i in 0..28u64 {
            assert_eq!(map.get(SessionId(i)), Some(i as u32));
        }
    }

    #[test]
    fn growth_doubles_at_high_load_factor() {
        let mut map = IdSlotMap::new();
        for i in 0..8u64 {
            map.insert(SessionId(i), 0);
        }
        // 8 entries fill the 16-entry table (doubled from the minimum 8)
        // exactly to the 1/2 bound.
        assert_eq!(map.capacity(), 16);
        for i in 8..1000u64 {
            map.insert(SessionId(i), 0);
        }
        let cap = map.capacity();
        assert!(cap.is_power_of_two());
        assert!(map.len() * 2 <= cap, "load factor bound holds");
    }

    #[test]
    fn colliding_probe_chains_survive_a_middle_removal() {
        // Keys engineered to share a bucket: deleting one in the middle of
        // the chain must leave the rest reachable (the tombstone keeps the
        // chain connected).
        let mut map = IdSlotMap::new();
        let mut keys = Vec::new();
        let mut k = 0u64;
        let probe = |map: &IdSlotMap, key: u64| {
            let h = key.wrapping_mul(PHI);
            ((h ^ (h >> 32)) as usize) & (map.capacity() - 1)
        };
        map.insert(SessionId(0), 0);
        let target = probe(&map, 0);
        keys.push(0u64);
        while keys.len() < 4 {
            k += 1;
            if probe(&map, k) == target {
                map.insert(SessionId(k), k as u32);
                keys.push(k);
            }
        }
        map.remove(SessionId(keys[1]));
        for &key in &[keys[0], keys[2], keys[3]] {
            assert_eq!(map.get(SessionId(key)), Some(key as u32));
        }
        // Reinserting the removed key reuses the tombstone.
        map.insert(SessionId(keys[1]), 7);
        assert_eq!(map.get(SessionId(keys[1])), Some(7));
    }
}
