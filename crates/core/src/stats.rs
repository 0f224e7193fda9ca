//! Packet accounting.

use crate::packet::PacketKind;
use serde::Serialize;
use std::fmt;
use std::ops::{Add, AddAssign};

/// Counts of transmitted packets, broken down by [`PacketKind`].
///
/// Following the paper, "every packet sent across a link is accounted for":
/// the harness records one count per link traversal, so a Probe cycle of a
/// session with a path of `h` links contributes `2h` packets.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct PacketStats {
    counts: [u64; 7],
}

impl PacketStats {
    /// Creates an all-zero counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one transmitted packet of the given kind.
    pub fn record(&mut self, kind: PacketKind) {
        self.counts[kind.index()] += 1;
    }

    /// The number of transmitted packets of the given kind.
    pub fn count(&self, kind: PacketKind) -> u64 {
        self.counts[kind.index()]
    }

    /// The total number of transmitted packets.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Iterates over `(kind, count)` pairs in a stable order.
    pub fn iter(&self) -> impl Iterator<Item = (PacketKind, u64)> + '_ {
        PacketKind::ALL.into_iter().map(|k| (k, self.count(k)))
    }

    /// The difference between this counter and an earlier snapshot.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` has any count larger than `self` (it is not an
    /// earlier snapshot of the same counter).
    pub fn since(&self, earlier: &PacketStats) -> PacketStats {
        let mut counts = [0u64; 7];
        for (i, c) in counts.iter_mut().enumerate() {
            *c = self.counts[i]
                .checked_sub(earlier.counts[i])
                .expect("`earlier` must be an earlier snapshot");
        }
        PacketStats { counts }
    }
}

impl Add for PacketStats {
    type Output = PacketStats;
    fn add(self, rhs: PacketStats) -> PacketStats {
        let mut out = self;
        out += rhs;
        out
    }
}

impl AddAssign for PacketStats {
    fn add_assign(&mut self, rhs: PacketStats) {
        for (a, b) in self.counts.iter_mut().zip(rhs.counts.iter()) {
            *a += b;
        }
    }
}

impl fmt::Display for PacketStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "total={}", self.total())?;
        for (kind, count) in self.iter() {
            write!(f, " {kind}={count}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_totals() {
        let mut s = PacketStats::new();
        s.record(PacketKind::Join);
        s.record(PacketKind::Join);
        s.record(PacketKind::Response);
        assert_eq!(s.count(PacketKind::Join), 2);
        assert_eq!(s.count(PacketKind::Response), 1);
        assert_eq!(s.count(PacketKind::Leave), 0);
        assert_eq!(s.total(), 3);
        assert_eq!(s.iter().count(), 7);
    }

    #[test]
    fn snapshots_and_sums() {
        let mut s = PacketStats::new();
        s.record(PacketKind::Probe);
        let snapshot = s;
        s.record(PacketKind::Probe);
        s.record(PacketKind::Update);
        let delta = s.since(&snapshot);
        assert_eq!(delta.count(PacketKind::Probe), 1);
        assert_eq!(delta.count(PacketKind::Update), 1);
        let sum = snapshot + delta;
        assert_eq!(sum, s);
    }

    #[test]
    #[should_panic(expected = "earlier snapshot")]
    fn since_rejects_non_snapshots() {
        let mut a = PacketStats::new();
        let mut b = PacketStats::new();
        b.record(PacketKind::Join);
        a.record(PacketKind::Leave);
        let _ = a.since(&b);
    }

    #[test]
    fn display_lists_all_kinds() {
        let mut s = PacketStats::new();
        s.record(PacketKind::SetBottleneck);
        let text = s.to_string();
        assert!(text.contains("total=1"));
        assert!(text.contains("SetBottleneck=1"));
        assert!(text.contains("Join=0"));
    }
}
