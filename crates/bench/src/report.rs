//! The typed, serializable reports of every experiment kind, and their text
//! tables.
//!
//! [`ExperimentReport`] holds one kind's rows (Figure 5's points, Figure
//! 6's runs, …), tagged by kind; [`SpecOutcome`] adds the run's
//! machine-dependent notes and timings. Reports depend only on the spec
//! (every point's RNG seed is part of the lowered configuration), so they
//! are bit-identical at any `BNECK_THREADS`. `render_tables` renders a
//! report into the text tables of the paper's figures, keeping the
//! human-readable output next to the JSON.

use bneck_core::{PacketKind, PacketStats, RecoveryStats};
use bneck_metrics::{PacketTimeSeries, Summary, Table};
use bneck_sim::FaultCounters;
use serde::Serialize;

/// One point of Figure 5: a session count on one scenario.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Experiment1Point {
    /// Scenario label (`small/lan`, `medium/wan`, …).
    pub scenario: String,
    /// Number of sessions that joined.
    pub sessions: usize,
    /// Time until quiescence, in microseconds (Figure 5, left).
    pub time_to_quiescence_us: u64,
    /// Total packets transmitted across all links (Figure 5, right).
    pub total_packets: u64,
    /// Average packets per session.
    pub packets_per_session: f64,
    /// `true` when the final rates match the centralized oracle.
    pub validated: bool,
}

/// One phase of Figure 6.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Experiment2PhaseResult {
    /// Phase name (`join`, `leave`, `change`, `join-2`, `mixed`).
    pub name: String,
    /// Time the phase started at (when its churn was injected).
    pub started_at_us: u64,
    /// Time the network needed to become quiescent again, in microseconds.
    pub time_to_quiescence_us: u64,
    /// Number of sessions active once the phase settled.
    pub active_sessions: usize,
    /// Packets transmitted during the phase, by kind.
    pub packets: PacketStats,
    /// `true` when the rates after the phase match the centralized oracle.
    pub validated: bool,
}

/// One full Experiment 2 run: the seed it was planned with, its five phase
/// results and the packet time series of the whole run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Experiment2Run {
    /// The planner seed of this repeat.
    pub seed: u64,
    /// The per-phase results.
    pub phases: Vec<Experiment2PhaseResult>,
    /// Packets per 5 ms bin over the whole run.
    pub series: PacketTimeSeries,
}

/// One sampling instant of Experiment 3, for one protocol.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Experiment3Sample {
    /// Sampling time in microseconds.
    pub at_us: u64,
    /// Relative error (in percent) of the assigned rates at the sources.
    pub source_error: Summary,
    /// Relative error (in percent) of the aggregate rates on bottleneck links.
    pub link_error: Summary,
    /// Packets transmitted since the previous sample.
    pub packets_in_interval: u64,
}

/// The outcome of Experiment 3 for one protocol.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Experiment3Result {
    /// Protocol name (`B-Neck`, `BFYZ`, `CG`, `RCP`).
    pub protocol: String,
    /// Samples every `sample_interval` until the horizon.
    pub samples: Vec<Experiment3Sample>,
    /// Total packets transmitted over the whole horizon.
    pub total_packets: u64,
    /// Time after which the protocol stopped sending packets entirely, if it
    /// did (only B-Neck does).
    pub quiescent_at_us: Option<u64>,
}

/// Result of validating one randomized scenario against the oracle.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ValidationReport {
    /// Scenario label.
    pub scenario: String,
    /// The scenario's topology seed (it makes the report self-describing).
    pub topology_seed: u64,
    /// Number of sessions checked.
    pub sessions: usize,
    /// Time to quiescence in microseconds.
    pub time_to_quiescence_us: u64,
    /// Number of sessions whose rate disagrees with the oracle.
    pub mismatches: usize,
    /// Number of max-min violations in the distributed allocation.
    pub violations: usize,
}

/// The deterministic outcome of one paper-scale join-to-quiescence point
/// (the wall-clock timings live in [`SpecOutcome::timings`], outside the
/// report, so reports stay bit-identical at any thread count and across
/// machines).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ScaleReport {
    /// Number of sessions the point planned.
    pub sessions: usize,
    /// Number of join events the harness accepted.
    pub joins_applied: usize,
    /// Whether the run reached quiescence.
    pub quiescent: bool,
    /// Simulated time of quiescence, in microseconds.
    pub quiescent_at_us: u64,
    /// Events processed during the run.
    pub events_processed: u64,
    /// Packets transmitted over links.
    pub packets_sent: u64,
    /// Average packets per session.
    pub packets_per_session: f64,
    /// Sessions disagreeing with the centralized oracle; `None` when
    /// validation was skipped.
    pub mismatches: Option<usize>,
}

impl ScaleReport {
    /// `true` when the run reached quiescence, every planned session joined,
    /// and — if validated — the rates agreed with the oracle.
    pub fn ok(&self) -> bool {
        self.quiescent && self.joins_applied == self.sessions && self.mismatches.unwrap_or(0) == 0
    }
}

/// Wall-clock phase breakdown of one paper-scale run, plus the process peak
/// RSS sampled after the run. Not part of [`ScaleReport`] — wall-clock times
/// and memory footprints are machine-dependent, and scale reports must stay
/// bit-identical across thread counts and hosts — but carried next to it so
/// performance tooling (`bneck sweep --scale-curve`) can emit them.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleTimings {
    /// Seconds spent building the network.
    pub build_s: f64,
    /// Seconds spent planning sessions and schedules (routing included).
    pub plan_s: f64,
    /// Seconds spent applying the schedule and running to quiescence.
    pub run_s: f64,
    /// Seconds spent on the centralized-oracle cross-check (0 when skipped).
    pub oracle_s: f64,
    /// Seconds for the whole point, end to end.
    pub total_s: f64,
    /// Peak resident set size of the process in bytes (`VmHWM`), 0 when the
    /// platform does not expose it. Cumulative across points run in the same
    /// process: a high-water mark never goes back down.
    pub peak_rss_bytes: u64,
}

/// One point of the machine-readable scale curve (`BENCH_SCALE.json`): the
/// deterministic outcome of a paper-scale run joined with its wall-clock
/// phase breakdown, per-event cost and peak RSS.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ScaleCurvePoint {
    /// Number of sessions the point planned.
    pub sessions: usize,
    /// Events processed during the run.
    pub events_processed: u64,
    /// Packets transmitted over links.
    pub packets_sent: u64,
    /// Average packets per session.
    pub packets_per_session: f64,
    /// Engine cost per event in nanoseconds (`run_s / events_processed`).
    pub ns_per_event: f64,
    /// Seconds spent building the network.
    pub build_s: f64,
    /// Seconds spent planning sessions and schedules.
    pub plan_s: f64,
    /// Seconds spent running to quiescence.
    pub run_s: f64,
    /// Seconds spent on the oracle cross-check (0 when skipped).
    pub oracle_s: f64,
    /// Seconds for the whole point.
    pub total_s: f64,
    /// Peak resident set size in MiB at the end of the point.
    pub peak_rss_mib: f64,
    /// Whether the run reached quiescence.
    pub quiescent: bool,
    /// Oracle mismatches (`None` when validation was skipped).
    pub mismatches: Option<usize>,
}

impl ScaleCurvePoint {
    /// Joins a scale report with its timings into one curve point.
    pub fn new(report: &ScaleReport, timings: &ScaleTimings) -> Self {
        ScaleCurvePoint {
            sessions: report.sessions,
            events_processed: report.events_processed,
            packets_sent: report.packets_sent,
            packets_per_session: report.packets_per_session,
            ns_per_event: if report.events_processed > 0 {
                timings.run_s * 1e9 / report.events_processed as f64
            } else {
                0.0
            },
            build_s: timings.build_s,
            plan_s: timings.plan_s,
            run_s: timings.run_s,
            oracle_s: timings.oracle_s,
            total_s: timings.total_s,
            peak_rss_mib: timings.peak_rss_bytes as f64 / (1024.0 * 1024.0),
            quiescent: report.quiescent,
            mismatches: report.mismatches,
        }
    }
}

/// How one fault-injected run ended. The classification is sound by
/// construction: a run is [`Converged`](FaultOutcome::Converged) only when it
/// both reached quiescence *and* every rate matched the centralized oracle —
/// a corrupted run can never be reported as a success.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum FaultOutcome {
    /// Quiescent with oracle-exact rates.
    Converged,
    /// Quiescent, but at least one session's rate disagrees with the oracle
    /// (lost or duplicated control packets corrupted the protocol state).
    WrongRates,
    /// Still had events in flight at the horizon (e.g. a lost packet left a
    /// probe cycle waiting forever, or retransmissions were still draining).
    Stuck,
}

impl FaultOutcome {
    /// Short lowercase label for tables and notes.
    pub fn label(&self) -> &'static str {
        match self {
            FaultOutcome::Converged => "converged",
            FaultOutcome::WrongRates => "wrong-rates",
            FaultOutcome::Stuck => "stuck",
        }
    }
}

/// Injected-fault counters of one channel, keyed by the raw channel index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ChannelFaultSummary {
    /// The engine channel the faults were injected on.
    pub channel: u32,
    /// What was dropped, duplicated and delayed on it.
    pub counters: FaultCounters,
}

/// The outcome of one fault-injected run (raw or recovery-enabled).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultRunResult {
    /// The honest classification of the run.
    pub outcome: FaultOutcome,
    /// Whether the run drained before the horizon.
    pub quiescent: bool,
    /// Simulated time the run went quiescent (or the horizon), microseconds.
    pub quiescent_at_us: u64,
    /// Events processed during the run.
    pub events_processed: u64,
    /// Packets transmitted over links.
    pub packets_sent: u64,
    /// Sessions whose final rate disagrees with the centralized oracle.
    pub mismatches: usize,
    /// Total faults injected across every channel.
    pub faults: FaultCounters,
    /// Per-channel fault breakdown (channels with at least one fault).
    pub channel_faults: Vec<ChannelFaultSummary>,
    /// The recovery layer's work counters (`None` on raw runs).
    pub recovery: Option<RecoveryStats>,
    /// Recovery frames still unacknowledged at the end (must be 0 for a
    /// quiescent recovered run).
    pub unacked_frames: usize,
}

/// The report of one fault-sweep cell: the raw run's honest outcome, and —
/// when requested — the recovery-enabled run that is expected to restore
/// oracle-exact convergence.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultPointReport {
    /// Per-transmission drop probability of this cell.
    pub drop: f64,
    /// Per-transmission duplication probability of this cell.
    pub duplicate: f64,
    /// The fault-plan seed this cell rolled its faults from.
    pub fault_seed: u64,
    /// The run without the recovery layer: converged, wrong-rates or stuck,
    /// recorded as observed.
    pub raw: FaultRunResult,
    /// The run with sequencing + retransmission enabled (`None` when the
    /// sweep did not request recovery runs).
    pub recovered: Option<FaultRunResult>,
}

impl FaultPointReport {
    /// `true` when the cell meets its contract: a recovery-enabled run must
    /// converge with nothing left unacknowledged, while the raw run is an
    /// honest record that cannot fail (its outcome *is* the data).
    pub fn ok(&self) -> bool {
        match &self.recovered {
            Some(run) => run.outcome == FaultOutcome::Converged && run.unacked_frames == 0,
            None => true,
        }
    }
}

/// The typed outcome of one
/// [`ExperimentSpec`](bneck_workload::spec::ExperimentSpec) run: one kind's
/// rows, tagged by experiment kind.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum ExperimentReport {
    /// Experiment 1 points (Figure 5).
    Joins(Vec<Experiment1Point>),
    /// Experiment 2 repeats (Figure 6).
    Churn(Vec<Experiment2Run>),
    /// Experiment 3 per-protocol results (Figures 7 and 8).
    Accuracy(Vec<Experiment3Result>),
    /// §IV validation reports.
    Validation(Vec<ValidationReport>),
    /// Paper-scale run reports.
    Scale(Vec<ScaleReport>),
    /// Fault-sweep cell reports (raw vs recovery-enabled runs per cell).
    FaultSweep(Vec<FaultPointReport>),
}

impl ExperimentReport {
    /// Number of *failing* units in the report: a figure point or churn
    /// phase whose rates miss the oracle, a validation run's oracle
    /// mismatches and max-min violations, a non-quiescent or mismatching
    /// scale point, and a fault-sweep cell whose recovery-enabled run did not
    /// converge. Accuracy samples and raw fault runs are honest records whose
    /// errors, stuck and wrong-rates outcomes are the data, not failures.
    pub fn failures(&self) -> usize {
        match self {
            ExperimentReport::Joins(points) => points.iter().filter(|p| !p.validated).count(),
            ExperimentReport::Churn(runs) => runs
                .iter()
                .flat_map(|r| &r.phases)
                .filter(|p| !p.validated)
                .count(),
            ExperimentReport::Validation(reports) => {
                reports.iter().map(|r| r.mismatches + r.violations).sum()
            }
            ExperimentReport::Scale(reports) => reports.iter().filter(|r| !r.ok()).count(),
            ExperimentReport::FaultSweep(reports) => reports.iter().filter(|r| !r.ok()).count(),
            ExperimentReport::Accuracy(_) => 0,
        }
    }
}

/// A finished spec run: the report plus human-oriented notes (per-point
/// timing details, quiescence announcements) that are not part of the
/// machine-readable report because they are not reproducible.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecOutcome {
    /// The deterministic, serializable report.
    pub report: ExperimentReport,
    /// Operator-facing progress/detail lines (printed to stderr by the CLI).
    pub notes: Vec<String>,
    /// Per-point wall-clock phase breakdowns — populated for scale specs
    /// (one entry per point, in report order), empty otherwise. Like
    /// `notes`, timings are machine-dependent and therefore live outside
    /// the report.
    pub timings: Vec<ScaleTimings>,
}

/// Renders a report into the text tables of the paper's figures.
pub(crate) fn render_tables(report: &ExperimentReport) -> Vec<Table> {
    match report {
        ExperimentReport::Joins(points) => {
            let mut left = Table::new(
                "figure-5-left: time until quiescence (Experiment 1)",
                &["scenario", "sessions", "time_to_quiescence_us", "validated"],
            );
            let mut right = Table::new(
                "figure-5-right: packets transmitted (Experiment 1)",
                &[
                    "scenario",
                    "sessions",
                    "total_packets",
                    "packets_per_session",
                ],
            );
            for point in points {
                left.add_row(&[
                    point.scenario.clone(),
                    point.sessions.to_string(),
                    point.time_to_quiescence_us.to_string(),
                    point.validated.to_string(),
                ]);
                right.add_row(&[
                    point.scenario.clone(),
                    point.sessions.to_string(),
                    point.total_packets.to_string(),
                    format!("{:.1}", point.packets_per_session),
                ]);
            }
            vec![left, right]
        }
        ExperimentReport::Churn(runs) => {
            let mut summary = Table::new(
                "figure-6 (summary): per-phase convergence (Experiment 2)",
                &[
                    "seed",
                    "phase",
                    "started_at_us",
                    "time_to_quiescence_us",
                    "active_sessions",
                    "packets",
                    "validated",
                ],
            );
            for run in runs {
                for phase in &run.phases {
                    summary.add_row(&[
                        run.seed.to_string(),
                        phase.name.clone(),
                        phase.started_at_us.to_string(),
                        phase.time_to_quiescence_us.to_string(),
                        phase.active_sessions.to_string(),
                        phase.packets.total().to_string(),
                        phase.validated.to_string(),
                    ]);
                }
            }
            let mut traffic = Table::new(
                "figure-6: packets per 5 ms interval, by type (Experiment 2)",
                &[
                    "interval_start_ms",
                    "Join",
                    "Probe",
                    "Response",
                    "Update",
                    "Bottleneck",
                    "SetBottleneck",
                    "Leave",
                    "total",
                ],
            );
            // The traffic time series of the first repeat (the paper's figure
            // shows one run).
            if let Some(first) = runs.first() {
                for (start, stats) in first.series.iter() {
                    traffic.add_row(&[
                        start.as_millis().to_string(),
                        stats.count(PacketKind::Join).to_string(),
                        stats.count(PacketKind::Probe).to_string(),
                        stats.count(PacketKind::Response).to_string(),
                        stats.count(PacketKind::Update).to_string(),
                        stats.count(PacketKind::Bottleneck).to_string(),
                        stats.count(PacketKind::SetBottleneck).to_string(),
                        stats.count(PacketKind::Leave).to_string(),
                        stats.total().to_string(),
                    ]);
                }
            }
            vec![summary, traffic]
        }
        ExperimentReport::Accuracy(results) => {
            let mut sources = Table::new(
                "figure-7-left: relative error at the sources, percent (Experiment 3)",
                &["protocol", "time_us", "p10", "median", "mean", "p90"],
            );
            let mut links = Table::new(
                "figure-7-right: relative error on bottleneck links, percent (Experiment 3)",
                &["protocol", "time_us", "p10", "median", "mean", "p90"],
            );
            let mut packets = Table::new(
                "figure-8: packets transmitted per interval (Experiment 3)",
                &["protocol", "time_us", "packets_in_interval"],
            );
            for result in results {
                for sample in &result.samples {
                    sources.add_row(&[
                        result.protocol.clone(),
                        sample.at_us.to_string(),
                        format!("{:.2}", sample.source_error.p10),
                        format!("{:.2}", sample.source_error.median),
                        format!("{:.2}", sample.source_error.mean),
                        format!("{:.2}", sample.source_error.p90),
                    ]);
                    links.add_row(&[
                        result.protocol.clone(),
                        sample.at_us.to_string(),
                        format!("{:.2}", sample.link_error.p10),
                        format!("{:.2}", sample.link_error.median),
                        format!("{:.2}", sample.link_error.mean),
                        format!("{:.2}", sample.link_error.p90),
                    ]);
                    packets.add_row(&[
                        result.protocol.clone(),
                        sample.at_us.to_string(),
                        sample.packets_in_interval.to_string(),
                    ]);
                }
            }
            vec![sources, links, packets]
        }
        ExperimentReport::Validation(reports) => {
            let mut table = Table::new(
                "validation: distributed B-Neck vs centralized oracle",
                &[
                    "scenario",
                    "seed",
                    "sessions",
                    "time_to_quiescence_us",
                    "mismatches",
                    "violations",
                ],
            );
            for report in reports {
                table.add_row(&[
                    report.scenario.clone(),
                    report.topology_seed.to_string(),
                    report.sessions.to_string(),
                    report.time_to_quiescence_us.to_string(),
                    report.mismatches.to_string(),
                    report.violations.to_string(),
                ]);
            }
            vec![table]
        }
        ExperimentReport::Scale(reports) => {
            let mut table = Table::new(
                "paper-scale: join-to-quiescence runs",
                &[
                    "sessions",
                    "quiescent",
                    "quiescent_at_us",
                    "events",
                    "packets",
                    "packets_per_session",
                    "mismatches",
                    "ok",
                ],
            );
            for report in reports {
                table.add_row(&[
                    report.sessions.to_string(),
                    report.quiescent.to_string(),
                    report.quiescent_at_us.to_string(),
                    report.events_processed.to_string(),
                    report.packets_sent.to_string(),
                    format!("{:.1}", report.packets_per_session),
                    report
                        .mismatches
                        .map(|m| m.to_string())
                        .unwrap_or_else(|| "skipped".to_string()),
                    report.ok().to_string(),
                ]);
            }
            vec![table]
        }
        ExperimentReport::FaultSweep(reports) => {
            let mut table = Table::new(
                "fault sweep: raw protocol vs recovery layer on faulty channels",
                &[
                    "drop",
                    "duplicate",
                    "raw",
                    "raw_mismatches",
                    "dropped",
                    "duplicated",
                    "delayed",
                    "recovery",
                    "retransmits",
                    "recovery_quiescence_us",
                    "ok",
                ],
            );
            for report in reports {
                let (recovery, retransmits, quiescence) = match &report.recovered {
                    Some(run) => (
                        run.outcome.label().to_string(),
                        run.recovery.unwrap_or_default().retransmits.to_string(),
                        run.quiescent_at_us.to_string(),
                    ),
                    None => ("skipped".to_string(), "-".to_string(), "-".to_string()),
                };
                table.add_row(&[
                    format!("{:.3}", report.drop),
                    format!("{:.3}", report.duplicate),
                    report.raw.outcome.label().to_string(),
                    report.raw.mismatches.to_string(),
                    report.raw.faults.dropped.to_string(),
                    report.raw.faults.duplicated.to_string(),
                    report.raw.faults.delayed.to_string(),
                    recovery,
                    retransmits,
                    quiescence,
                    report.ok().to_string(),
                ]);
            }
            vec![table]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bneck_net::Delay;

    #[test]
    fn unvalidated_figure_points_and_phases_are_failures() {
        let point = Experiment1Point {
            scenario: "small/lan".to_string(),
            sessions: 10,
            time_to_quiescence_us: 100,
            total_packets: 200,
            packets_per_session: 20.0,
            validated: false,
        };
        assert_eq!(ExperimentReport::Joins(vec![point]).failures(), 1);
        let phase = |name: &str, validated| Experiment2PhaseResult {
            name: name.to_string(),
            started_at_us: 0,
            time_to_quiescence_us: 100,
            active_sessions: 10,
            packets: PacketStats::default(),
            validated,
        };
        let run = Experiment2Run {
            seed: 1,
            phases: vec![phase("join", true), phase("leave", false)],
            series: PacketTimeSeries::new(Delay::from_millis(5)),
        };
        assert_eq!(ExperimentReport::Churn(vec![run]).failures(), 1);
    }
}
