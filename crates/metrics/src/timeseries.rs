//! Interval-binned packet counts (Figures 6 and 8 of the paper).

use bneck_core::{PacketKind, PacketStats, RateEvent, Subscriber};
use bneck_net::Delay;
use bneck_sim::SimTime;
use serde::Serialize;
use std::sync::{Arc, Mutex};

/// Packet counts aggregated in fixed-size time intervals, broken down by
/// packet kind — the data behind Figure 6 ("packets of each type transmitted,
/// aggregated in time intervals of 5 milliseconds") and Figure 8.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PacketTimeSeries {
    interval: Delay,
    bins: Vec<PacketStats>,
}

impl PacketTimeSeries {
    /// An empty series with the given bin width.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn new(interval: Delay) -> Self {
        PacketTimeSeries::from_bins(interval, Vec::new())
    }

    /// Counts one packet sent at `at` in its bin.
    pub fn record(&mut self, at: SimTime, kind: PacketKind) {
        let index = (at.as_nanos() / self.interval.as_nanos()) as usize;
        if index >= self.bins.len() {
            self.bins.resize(index + 1, PacketStats::new());
        }
        self.bins[index].record(kind);
    }

    /// Builds a series directly from per-interval snapshots (used by harnesses
    /// that sample cumulative counters between bounded runs instead of logging
    /// every packet).
    pub(crate) fn from_bins(interval: Delay, bins: Vec<PacketStats>) -> Self {
        assert!(interval > Delay::ZERO, "the bin width must be positive");
        PacketTimeSeries { interval, bins }
    }

    /// The bin width.
    pub fn interval(&self) -> Delay {
        self.interval
    }

    /// Number of bins (the series covers `len() * interval` of simulated
    /// time).
    pub fn len(&self) -> usize {
        self.bins.len()
    }

    /// `true` when the series has no bins.
    pub fn is_empty(&self) -> bool {
        self.bins.is_empty()
    }

    /// The packet counts of bin `index` (empty counts past the end).
    pub fn bin(&self, index: usize) -> PacketStats {
        self.bins.get(index).copied().unwrap_or_default()
    }

    /// Total packets across all bins.
    pub fn total(&self) -> u64 {
        self.bins.iter().map(|b| b.total()).sum()
    }

    /// Iterates over `(bin_start_time, counts)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, PacketStats)> + '_ {
        self.bins.iter().enumerate().map(move |(i, stats)| {
            (
                SimTime::from_nanos(i as u64 * self.interval.as_nanos()),
                *stats,
            )
        })
    }

    /// The index of the last bin containing any packet, or `None` when the
    /// series is all-zero. After this bin the protocol was quiescent.
    pub fn last_active_bin(&self) -> Option<usize> {
        self.bins
            .iter()
            .enumerate()
            .rev()
            .find(|(_, b)| b.total() > 0)
            .map(|(i, _)| i)
    }
}

/// A [`Subscriber`] that bins every packet as it is sent, so no per-packet
/// log is ever kept. Register a clone; clones share one series.
#[derive(Debug, Clone)]
pub struct SeriesRecorder(Arc<Mutex<PacketTimeSeries>>);

impl SeriesRecorder {
    /// A recorder of an empty series with the given bin width.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn new(interval: Delay) -> Self {
        SeriesRecorder(Arc::new(Mutex::new(PacketTimeSeries::new(interval))))
    }

    /// The series recorded so far.
    pub fn series(&self) -> PacketTimeSeries {
        self.0.lock().expect("series poisoned").clone()
    }
}

impl Subscriber for SeriesRecorder {
    fn on_rate(&mut self, _event: &RateEvent) {}

    fn on_packet(&mut self, at: SimTime, kind: PacketKind) {
        self.0.lock().expect("series poisoned").record(at, kind);
    }

    fn wants_packets(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_log(log: &[(SimTime, PacketKind)], interval: Delay) -> PacketTimeSeries {
        let mut series = PacketTimeSeries::new(interval);
        for &(at, kind) in log {
            series.record(at, kind);
        }
        series
    }

    fn log() -> Vec<(SimTime, PacketKind)> {
        vec![
            (SimTime::from_millis(0), PacketKind::Join),
            (SimTime::from_millis(1), PacketKind::Join),
            (SimTime::from_millis(4), PacketKind::Response),
            (SimTime::from_millis(7), PacketKind::Update),
            (SimTime::from_millis(12), PacketKind::Leave),
        ]
    }

    #[test]
    fn bins_packets_by_interval() {
        let series = from_log(&log(), Delay::from_millis(5));
        assert_eq!(series.len(), 3);
        assert_eq!(series.bin(0).total(), 3);
        assert_eq!(series.bin(1).total(), 1);
        assert_eq!(series.bin(2).total(), 1);
        assert_eq!(series.bin(99).total(), 0);
        assert_eq!(series.total(), 5);
        assert_eq!(series.bin(0).count(PacketKind::Join), 2);
        assert_eq!(series.last_active_bin(), Some(2));
        assert_eq!(series.interval(), Delay::from_millis(5));
    }

    #[test]
    fn iter_reports_bin_start_times() {
        let series = from_log(&log(), Delay::from_millis(5));
        let starts: Vec<u64> = series.iter().map(|(t, _)| t.as_millis()).collect();
        assert_eq!(starts, vec![0, 5, 10]);
    }

    #[test]
    fn empty_log_gives_empty_series() {
        let series = from_log(&[], Delay::from_millis(5));
        assert!(series.is_empty());
        assert_eq!(series.last_active_bin(), None);
        assert_eq!(series.total(), 0);
    }

    #[test]
    fn from_bins_round_trips() {
        let mut a = PacketStats::new();
        a.record(PacketKind::Probe);
        let series =
            PacketTimeSeries::from_bins(Delay::from_millis(3), vec![a, PacketStats::new()]);
        assert_eq!(series.len(), 2);
        assert_eq!(series.total(), 1);
        assert_eq!(series.last_active_bin(), Some(0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_interval_rejected() {
        let _ = from_log(&[], Delay::ZERO);
    }
}
