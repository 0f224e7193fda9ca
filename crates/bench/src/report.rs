//! Spec execution and machine-readable reports.
//!
//! [`run_spec`] is the single entry point the `bneck` CLI (and any embedding
//! driver) uses to execute a declarative
//! [`ExperimentSpec`](bneck_workload::spec::ExperimentSpec): it lowers the
//! spec through the registries, fans the resulting points across the
//! [`SweepRunner`]'s worker threads, and returns one [`ExperimentReport`] —
//! a typed, serializable wrapper over the per-experiment result structs of
//! [`crate::runner`]. Reports depend only on the spec (every point's RNG
//! seed is part of the lowered configuration), so they are bit-identical at
//! any `BNECK_THREADS` and identical to what the former per-experiment
//! binaries computed.
//!
//! [`render_tables`] renders a report into the same text tables those
//! binaries printed, keeping the human-readable output next to the JSON.

use crate::runner::{
    fault_point_configs, run_experiment1_sweep, run_experiment2_repeats, run_experiment3_registry,
    run_fault_sweep, run_scale_sweep, run_validation_sweep, Experiment1Point, Experiment2Run,
    Experiment3Result, FaultPointReport, ScaleReport, ScaleTimings, ValidationReport,
};
use crate::sweep::SweepRunner;
use bneck_core::PacketKind;
use bneck_metrics::Table;
use bneck_workload::registry::{ProtocolRegistry, TopologyRegistry};
use bneck_workload::spec::{ExperimentKind, ExperimentSpec, SpecError};
#[cfg(feature = "serde")]
use serde::{Deserialize, Serialize};

/// The typed outcome of one [`ExperimentSpec`] run: the same result structs
/// the per-experiment runners produce, tagged by experiment kind.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
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
    /// Number of *failing* units in the report, mirroring the exit semantics
    /// of the former binaries: validation runs count oracle mismatches and
    /// max-min violations, scale runs count non-quiescent or mismatching
    /// points; the figure-producing experiments never fail (their `validated`
    /// flags are part of the data). Fault sweeps count cells whose
    /// recovery-enabled run did not converge — raw runs are honest records
    /// whose stuck/wrong-rates outcomes are the data, not failures.
    pub fn failures(&self) -> usize {
        match self {
            ExperimentReport::Validation(reports) => {
                reports.iter().map(|r| r.mismatches + r.violations).sum()
            }
            ExperimentReport::Scale(reports) => reports.iter().filter(|r| !r.ok()).count(),
            ExperimentReport::FaultSweep(reports) => reports.iter().filter(|r| !r.ok()).count(),
            _ => 0,
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

/// Runs a declarative experiment spec: checks it against the registries,
/// lowers it to the PR 4 experiment configurations, and fans the points
/// across the runner's worker threads.
///
/// # Errors
///
/// Returns the first [`SpecError`] if the spec does not resolve (unknown
/// topology/protocol names, empty sweeps). Never errors once the check
/// passes.
pub fn run_spec(
    spec: &ExperimentSpec,
    topologies: &TopologyRegistry,
    protocols: &ProtocolRegistry,
    runner: &SweepRunner,
) -> Result<SpecOutcome, SpecError> {
    spec.check(topologies, protocols)?;
    match &spec.experiment {
        ExperimentKind::Joins(joins) => {
            let configs = joins.configs(topologies)?;
            let points = run_experiment1_sweep(configs, runner);
            let notes = points
                .iter()
                .map(|p| {
                    format!(
                        "{} sessions={} quiescence={}us packets={} validated={}",
                        p.scenario,
                        p.sessions,
                        p.time_to_quiescence_us,
                        p.total_packets,
                        p.validated
                    )
                })
                .collect();
            Ok(SpecOutcome {
                report: ExperimentReport::Joins(points),
                notes,
                timings: Vec::new(),
            })
        }
        ExperimentKind::Churn(churn) => {
            let config = churn.config(topologies)?;
            let runs = run_experiment2_repeats(&config, churn.repeats, runner);
            Ok(SpecOutcome {
                report: ExperimentReport::Churn(runs),
                notes: Vec::new(),
                timings: Vec::new(),
            })
        }
        ExperimentKind::Accuracy(accuracy) => {
            let config = accuracy.config(topologies)?;
            let baseline_refs: Vec<&str> = accuracy.baselines.iter().map(String::as_str).collect();
            let results = run_experiment3_registry(&config, &baseline_refs, protocols, runner);
            let notes = results
                .iter()
                .map(|r| match r.quiescent_at_us {
                    Some(t) => format!(
                        "{} became quiescent at {} us after {} packets",
                        r.protocol, t, r.total_packets
                    ),
                    None => format!(
                        "{} never became quiescent ({} packets over the horizon)",
                        r.protocol, r.total_packets
                    ),
                })
                .collect();
            Ok(SpecOutcome {
                report: ExperimentReport::Accuracy(results),
                notes,
                timings: Vec::new(),
            })
        }
        ExperimentKind::Validation(validation) => {
            let reports = run_validation_sweep(validation.runs(topologies)?, runner);
            Ok(SpecOutcome {
                report: ExperimentReport::Validation(reports),
                notes: Vec::new(),
                timings: Vec::new(),
            })
        }
        ExperimentKind::Scale(scale) => {
            let configs = scale.configs()?;
            let runs = run_scale_sweep(configs, scale.validate, runner);
            let mut reports = Vec::with_capacity(runs.len());
            let mut notes = Vec::with_capacity(runs.len());
            let mut timings = Vec::with_capacity(runs.len());
            for run in runs {
                notes.push(run.detail);
                timings.push(run.timings);
                reports.push(run.report);
            }
            Ok(SpecOutcome {
                report: ExperimentReport::Scale(reports),
                notes,
                timings,
            })
        }
        ExperimentKind::FaultSweep(faults) => {
            let scenario = faults.topology.resolve(topologies)?;
            let configs = fault_point_configs(faults, scenario)?;
            let reports = run_fault_sweep(configs, runner);
            let notes = reports
                .iter()
                .map(|r| {
                    let mut line = format!(
                        "drop={} dup={} raw={} ({} faults over {} channels)",
                        r.drop,
                        r.duplicate,
                        r.raw.outcome.label(),
                        r.raw.faults.total(),
                        r.raw.channel_faults.len()
                    );
                    if let Some(rec) = &r.recovered {
                        let stats = rec.recovery.unwrap_or_default();
                        line.push_str(&format!(
                            " recovery={} at {}us ({} retransmits)",
                            rec.outcome.label(),
                            rec.quiescent_at_us,
                            stats.retransmits
                        ));
                    }
                    line
                })
                .collect();
            Ok(SpecOutcome {
                report: ExperimentReport::FaultSweep(reports),
                notes,
                timings: Vec::new(),
            })
        }
    }
}

/// Renders a report into the text tables the former per-experiment binaries
/// printed.
pub fn render_tables(report: &ExperimentReport) -> Vec<Table> {
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
