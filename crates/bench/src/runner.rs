//! [`run_spec`]: the one way to run an experiment.
//!
//! A spec is checked against the registries and lowered. The joins,
//! validation, scale and fault-sweep kinds lower to join bursts
//! ([`Experiment1Config`]) that all run through one private `burst`: build
//! the network, plan the joins, apply them, run to quiescence or to a
//! horizon, and check the rates against the centralized oracle. The four
//! kinds differ only in how they map a burst into report rows. Churn and
//! accuracy run straight from their spec and its resolved scenario.
//!
//! Every protocol is driven through the unified [`ProtocolWorld`] trait
//! (built by name through [`default_protocols`]), so adding a protocol
//! touches only the registry in `bneck-baselines`, not the runner. A sweep's
//! independent points fan across the [`SweepRunner`]'s worker threads; every
//! point's RNG seed derives from the point itself, so reports are
//! bit-identical at any thread count.

use crate::report::{
    ChannelFaultSummary, Experiment1Point, Experiment2PhaseResult, Experiment2Run,
    Experiment3Result, Experiment3Sample, ExperimentReport, FaultOutcome, FaultPointReport,
    FaultRunResult, ScaleReport, ScaleTimings, SpecOutcome, ValidationReport,
};
use crate::sweep::SweepRunner;
use bneck_core::prelude::*;
use bneck_maxmin::prelude::*;
use bneck_metrics::prelude::*;
use bneck_net::{Delay, Network};
use bneck_sim::{FaultCounters, FaultPlan, SimTime};
use bneck_workload::prelude::*;
use bneck_workload::spec::{AccuracySpec, ChurnSpec};
use std::time::{Duration, Instant};

/// The fully-populated protocol registry of this workspace: B-Neck plus the
/// three baselines (BFYZ, CG, RCP), all with default parameters. The `bneck`
/// CLI and the spec driver resolve protocol names through this.
pub fn default_protocols() -> ProtocolRegistry {
    let mut registry = ProtocolRegistry::with_bneck();
    bneck_baselines::register_baselines(&mut registry);
    registry
}

/// Runs a declarative experiment spec: checks it against the registries,
/// lowers it, and fans its points across the runner's worker threads.
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
    Ok(match &spec.experiment {
        ExperimentKind::Joins(joins) => run_joins(joins.configs(topologies)?, runner),
        ExperimentKind::Churn(churn) => run_churn(churn, churn.resolve(topologies)?, runner),
        ExperimentKind::Accuracy(accuracy) => {
            run_accuracy(accuracy, accuracy.resolve(topologies)?, protocols, runner)
        }
        ExperimentKind::Validation(validation) => {
            run_validation(validation.configs(topologies)?, runner)
        }
        ExperimentKind::Scale(scale) => run_scale(scale.configs()?, scale.validate, runner),
        ExperimentKind::FaultSweep(faults) => {
            run_faults(faults, faults.config(topologies)?, faults.points()?, runner)
        }
    })
}

/// A report with its notes and no timings.
fn outcome(report: ExperimentReport, notes: Vec<String>) -> SpecOutcome {
    SpecOutcome {
        report,
        notes,
        timings: Vec::new(),
    }
}

/// Sessions whose rate in `allocation` disagrees with the centralized
/// B-Neck oracle (Figure 1) on `sessions`: the one oracle check every
/// runner validates with.
fn oracle_mismatches(network: &Network, sessions: &SessionSet, allocation: &Allocation) -> usize {
    let oracle = CentralizedBneck::new(network, sessions).solve();
    compare_allocations(sessions, allocation, &oracle, Tolerance::new(1e-6, 10.0))
        .err()
        .map_or(0, |violations| violations.len())
}

/// What a burst checks its final rates against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Check {
    /// Nothing (a scale point run without validation).
    Skip,
    /// The centralized oracle.
    Oracle,
    /// The oracle and the max-min fairness conditions (§IV validation).
    MaxMin,
}

/// One join burst: `config`'s sessions join a fresh B-Neck simulation, which
/// runs to quiescence, or to `horizon` when one is set.
struct Burst {
    config: Experiment1Config,
    bneck: BneckConfig,
    faults: Option<FaultPlan>,
    horizon: Option<Delay>,
    check: Check,
}

impl Burst {
    /// The paper's burst: no faults, no recovery layer, run to quiescence.
    fn paper(config: Experiment1Config, check: Check) -> Self {
        Burst {
            config,
            bneck: BneckConfig::default(),
            faults: None,
            horizon: None,
            check,
        }
    }
}

/// What one burst observed.
struct BurstRun {
    network: Network,
    /// Join events the simulation accepted.
    joins: usize,
    report: QuiescenceReport,
    /// Packets sent over the whole run, by the protocol's own count.
    total_packets: u64,
    /// Sessions disagreeing with the oracle; `None` when unchecked.
    mismatches: Option<usize>,
    /// Max-min violations; `None` unless [`Check::MaxMin`].
    violations: Option<usize>,
    faults: FaultCounters,
    channel_faults: Vec<ChannelFaultSummary>,
    recovery: Option<RecoveryStats>,
    unacked_frames: usize,
    timings: ScaleTimings,
}

/// Runs one join burst: builds, plans, applies, runs and checks.
#[expect(
    clippy::disallowed_methods,
    reason = "phase timing feeds the operator notes and the scale curve only, never a report"
)]
fn burst(burst: Burst) -> BurstRun {
    let Burst {
        config,
        bneck,
        faults,
        horizon,
        check,
    } = burst;
    let t0 = Instant::now();
    let network = config.scenario.build();
    let build = t0.elapsed();

    let t1 = Instant::now();
    let schedule = config.schedule(&network);
    let plan = t1.elapsed();

    let t2 = Instant::now();
    let mut sim = BneckSimulation::new(&network, bneck);
    if let Some(plan) = faults {
        sim.set_fault_plan(plan);
    }
    let joins = schedule.apply(&mut sim).joins;
    let report = match horizon {
        None => sim.run_to_quiescence(),
        Some(horizon) => sim.run_until(SimTime::ZERO + horizon),
    };
    let snapshot = (check != Check::Skip).then(|| (sim.session_set(), sim.allocation()));
    let total_packets = sim.packet_stats().total();
    let fault_totals = sim.fault_totals();
    let channel_faults = sim
        .fault_breakdown()
        .into_iter()
        .map(|(channel, counters)| ChannelFaultSummary {
            channel: channel.0,
            counters,
        })
        .collect();
    let recovery = sim.recovery_stats();
    let unacked_frames = sim.unacked_frames();
    // The simulation goes before the oracle runs, so the two never hold
    // their memory at once.
    drop(sim);
    let run = t2.elapsed();

    let t3 = Instant::now();
    let (mismatches, violations) = match snapshot {
        Some((sessions, allocation)) => (
            Some(oracle_mismatches(&network, &sessions, &allocation)),
            (check == Check::MaxMin).then(|| {
                verify_max_min(&network, &sessions, &allocation)
                    .err()
                    .map_or(0, |violations| violations.len())
            }),
        ),
        None => (None, None),
    };
    let oracle = t3.elapsed();

    BurstRun {
        network,
        joins,
        report,
        total_packets,
        mismatches,
        violations,
        faults: fault_totals,
        channel_faults,
        recovery,
        unacked_frames,
        timings: ScaleTimings {
            build_s: build.as_secs_f64(),
            plan_s: plan.as_secs_f64(),
            run_s: run.as_secs_f64(),
            oracle_s: oracle.as_secs_f64(),
            total_s: t0.elapsed().as_secs_f64(),
            peak_rss_bytes: peak_rss_bytes(),
        },
    }
}

/// Peak resident set size (`VmHWM`) of the current process in bytes, or 0
/// when `/proc/self/status` is unavailable (non-Linux platforms).
fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let rest = line.strip_prefix("VmHWM:")?;
                rest.trim().strip_suffix("kB")?.trim().parse::<u64>().ok()
            })
        })
        .map(|kb| kb * 1024)
        .unwrap_or(0)
}

/// Experiment 1 (Figure 5): one point per burst, validated against the
/// oracle.
fn run_joins(configs: Vec<Experiment1Config>, runner: &SweepRunner) -> SpecOutcome {
    let points = runner.run(configs, |_, config| {
        let run = burst(Burst::paper(config, Check::Oracle));
        Experiment1Point {
            scenario: config.scenario.label(),
            sessions: run.joins,
            time_to_quiescence_us: run.report.quiescent_at.as_micros(),
            total_packets: run.total_packets,
            packets_per_session: if run.joins > 0 {
                run.total_packets as f64 / run.joins as f64
            } else {
                0.0
            },
            validated: run.mismatches == Some(0),
        }
    });
    let notes = points
        .iter()
        .map(|p| {
            format!(
                "{} sessions={} quiescence={}us packets={} validated={}",
                p.scenario, p.sessions, p.time_to_quiescence_us, p.total_packets, p.validated
            )
        })
        .collect();
    outcome(ExperimentReport::Joins(points), notes)
}

/// The §IV validation: one burst per run, checked against the oracle and
/// the max-min conditions.
fn run_validation(configs: Vec<Experiment1Config>, runner: &SweepRunner) -> SpecOutcome {
    let reports = runner.run(configs, |_, config| {
        let run = burst(Burst::paper(config, Check::MaxMin));
        ValidationReport {
            scenario: config.scenario.label(),
            topology_seed: config.scenario.seed,
            sessions: run.joins,
            time_to_quiescence_us: run.report.quiescent_at.as_micros(),
            mismatches: run.mismatches.unwrap_or(0),
            violations: run.violations.unwrap_or(0),
        }
    });
    outcome(ExperimentReport::Validation(reports), Vec::new())
}

/// Paper-scale points: one burst each, with its wall-clock breakdown in the
/// notes and the timings.
fn run_scale(configs: Vec<Experiment1Config>, validate: bool, runner: &SweepRunner) -> SpecOutcome {
    let check = if validate { Check::Oracle } else { Check::Skip };
    let points = runner.run(configs, |_, config| {
        let run = burst(Burst::paper(config, check));
        let (report, timings, network) = (run.report, &run.timings, &run.network);
        let note = format!(
            "[scale] network: {} routers, {} hosts, {} links ({:.2?})\n\
             [scale] {} joins applied, quiescent={} at {}us after {} events / {} packets ({:.2?})\n\
             [scale] build_s={:.3} plan_s={:.3} run_s={:.3} oracle_s={:.3} total_s={:.3} peak_rss_mib={:.1}",
            network.router_count(),
            network.host_count(),
            network.link_count(),
            Duration::from_secs_f64(timings.build_s),
            run.joins,
            report.quiescent,
            report.quiescent_at.as_micros(),
            report.events_processed,
            report.packets_sent,
            Duration::from_secs_f64(timings.run_s),
            timings.build_s,
            timings.plan_s,
            timings.run_s,
            timings.oracle_s,
            timings.total_s,
            timings.peak_rss_bytes as f64 / (1024.0 * 1024.0),
        );
        let report = ScaleReport {
            sessions: config.sessions,
            joins_applied: run.joins,
            quiescent: report.quiescent,
            quiescent_at_us: report.quiescent_at.as_micros(),
            events_processed: report.events_processed,
            packets_sent: report.packets_sent,
            packets_per_session: report.packets_sent as f64 / config.sessions.max(1) as f64,
            mismatches: run.mismatches,
        };
        (report, note, run.timings)
    });
    SpecOutcome {
        report: ExperimentReport::Scale(points.iter().map(|p| p.0).collect()),
        notes: points.iter().map(|p| p.1.clone()).collect(),
        timings: points.into_iter().map(|p| p.2).collect(),
    }
}

/// A fault sweep: every grid cell replays `config` over its own fault plan
/// (cell `i`, drop-major, rolls from `fault_seed + i`), raw and — when the
/// spec asks — with the recovery layer on, each up to the spec's horizon.
fn run_faults(
    spec: &FaultSweepSpec,
    config: Experiment1Config,
    points: Vec<FaultPoint>,
    runner: &SweepRunner,
) -> SpecOutcome {
    let plans = points
        .iter()
        .enumerate()
        .map(|(i, point)| {
            FaultPlan::new(
                spec.fault_seed.wrapping_add(i as u64),
                point.drop,
                point.duplicate,
                spec.reorder,
                spec.reorder_window,
            )
        })
        .collect();
    let horizon = Some(Delay::from_millis(spec.horizon_ms));
    let rto = spec.with_recovery.then(|| Delay::from_micros(spec.rto_us));
    let reports = runner.run(plans, |_, plan: FaultPlan| {
        let run = |bneck| {
            fault_result(burst(Burst {
                config,
                bneck,
                faults: Some(plan),
                horizon,
                check: Check::Oracle,
            }))
        };
        FaultPointReport {
            drop: plan.drop,
            duplicate: plan.duplicate,
            fault_seed: plan.seed,
            raw: run(BneckConfig::default()),
            recovered: rto.map(|rto| run(BneckConfig::default().with_recovery(rto))),
        }
    });
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
    outcome(ExperimentReport::FaultSweep(reports), notes)
}

/// Classifies a fault-injected burst honestly: converged only when it both
/// went quiescent and matched the oracle.
fn fault_result(run: BurstRun) -> FaultRunResult {
    let mismatches = run.mismatches.unwrap_or(0);
    let outcome = if !run.report.quiescent {
        FaultOutcome::Stuck
    } else if mismatches > 0 {
        FaultOutcome::WrongRates
    } else {
        FaultOutcome::Converged
    };
    FaultRunResult {
        outcome,
        quiescent: run.report.quiescent,
        quiescent_at_us: run.report.quiescent_at.as_micros(),
        events_processed: run.report.events_processed,
        packets_sent: run.report.packets_sent,
        mismatches,
        faults: run.faults,
        channel_faults: run.channel_faults,
        recovery: run.recovery,
        unacked_frames: run.unacked_frames,
    }
}

/// Experiment 2 (Figure 6): five churn phases per repeat (repeat `i` plans
/// with `seed + i`); after each phase the protocol runs to quiescence and is
/// validated against the oracle.
fn run_churn(spec: &ChurnSpec, scenario: NetworkScenario, runner: &SweepRunner) -> SpecOutcome {
    let network = scenario.build();
    let window = Delay::from_micros(spec.change_window_us);
    let seeds = (0..spec.repeats as u64)
        .map(|i| spec.seed.wrapping_add(i))
        .collect();
    let runs = runner.run(seeds, |_, seed| {
        let mut planner = DynamicsPlanner::new(&network, seed);
        let mut sim = BneckSimulation::new(&network, BneckConfig::default());
        // Packets are binned as they are sent: at paper scale a whole-run log
        // would hold tens of millions of entries.
        let recorder = SeriesRecorder::new(Delay::from_millis(5));
        sim.subscribe(recorder.clone());
        let mut phases = Vec::new();
        for phase in spec.phases() {
            let start = if sim.now() == SimTime::ZERO {
                SimTime::ZERO
            } else {
                sim.now() + Delay::from_millis(1)
            };
            let schedule = planner.phase(
                start,
                window,
                phase.joins,
                phase.leaves,
                phase.changes,
                spec.limits,
            );
            let before = *sim.packet_stats();
            schedule.apply(&mut sim);
            let report = sim.run_to_quiescence();
            let sessions = sim.session_set();
            phases.push(Experiment2PhaseResult {
                name: phase.name.to_string(),
                started_at_us: start.as_micros(),
                time_to_quiescence_us: report.quiescent_at.saturating_since(start).as_micros(),
                active_sessions: sessions.len(),
                packets: sim.packet_stats().since(&before),
                validated: oracle_mismatches(&network, &sessions, &sim.allocation()) == 0,
            });
        }
        Experiment2Run {
            seed,
            phases,
            series: recorder.series(),
        }
    });
    outcome(ExperimentReport::Churn(runs), Vec::new())
}

/// Experiment 3 (Figures 7 and 8): B-Neck and the spec's baselines on the
/// same joins-plus-leaves workload, each protocol a cell of its own, sampled
/// against the max-min rates of the surviving sessions. Cells come back
/// B-Neck first, then the baselines in spec order.
///
/// # Panics
///
/// Panics if a protocol name is not registered (the spec check rules it
/// out).
fn run_accuracy(
    spec: &AccuracySpec,
    scenario: NetworkScenario,
    protocols: &ProtocolRegistry,
    runner: &SweepRunner,
) -> SpecOutcome {
    let network = scenario.build();
    let schedule = spec.schedule(&network);
    let sample_times = spec.sample_times();

    // The reference allocation: the max-min fair rates of the sessions that
    // remain after the initial churn (computed from a bookkeeping-only pass).
    let mut reference = BneckSimulation::new(&network, BneckConfig::default());
    schedule.apply(&mut reference);
    let final_sessions = reference.session_set();
    let solution = CentralizedBneck::new(&network, &final_sessions).solve_with_bottlenecks();

    let mut names = vec!["B-Neck"];
    names.extend(spec.baselines.iter().map(String::as_str));
    let results = runner.run(names, |_, name| {
        let mut sim = protocols
            .build(name, &network)
            .unwrap_or_else(|| panic!("protocol {name} is not in the registry"));
        run_protocol(sim.as_mut(), &schedule, &sample_times, &solution)
    });
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
    outcome(ExperimentReport::Accuracy(results), notes)
}

/// Drives one protocol through the Experiment 3 measurement loop: apply the
/// workload, then sample the assigned rates at fixed intervals against the
/// reference max-min solution of the surviving sessions.
fn run_protocol(
    sim: &mut dyn ProtocolWorld,
    schedule: &Schedule,
    sample_times: &[SimTime],
    solution: &CentralizedSolution,
) -> Experiment3Result {
    schedule.apply(sim);
    let mut samples = Vec::new();
    let mut previous_packets = 0u64;
    let mut quiescent_at = None;
    for &at in sample_times {
        let report = sim.run_to(at);
        if sim.goes_quiescent() && report.quiescent && quiescent_at.is_none() {
            quiescent_at = Some(report.quiescent_at.as_micros());
        }
        let assigned = sim.current_rates();
        let source_error = Summary::of(&rate_errors(&assigned, &solution.allocation));
        let link_error = Summary::of(&link_stress_errors(&assigned, solution));
        let total = sim.packets_sent();
        samples.push(Experiment3Sample {
            at_us: at.as_micros(),
            source_error,
            link_error,
            packets_in_interval: total - previous_packets,
        });
        previous_packets = total;
    }
    Experiment3Result {
        protocol: sim.protocol_name().to_string(),
        samples,
        total_packets: sim.packets_sent(),
        quiescent_at_us: quiescent_at,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bneck_net::topology::transit_stub::NetworkSize;
    use bneck_net::DelayModel;

    fn accuracy(hosts: usize, joins: usize, leaves: usize, horizon_ms: u64) -> AccuracySpec {
        AccuracySpec {
            topology: ScenarioSpec::new("small/lan", hosts),
            joins,
            leaves,
            change_window_us: 5_000,
            sample_interval_us: 3_000,
            horizon_us: horizon_ms * 1_000,
            limits: LimitPolicy::Unlimited,
            seed: 1,
            baselines: vec![],
        }
    }

    fn accuracy_results(spec: &AccuracySpec, threads: usize) -> Vec<Experiment3Result> {
        let scenario = NetworkScenario::small_lan(spec.topology.hosts);
        let runner = SweepRunner::new(threads);
        match run_accuracy(spec, scenario, &default_protocols(), &runner).report {
            ExperimentReport::Accuracy(results) => results,
            other => panic!("accuracy run produced {other:?}"),
        }
    }

    #[test]
    fn experiment1_point_runs_and_validates() {
        let config = Experiment1Config {
            scenario: NetworkScenario::small_lan(80).with_seed(3),
            sessions: 30,
            join_window: Delay::from_millis(1),
            limits: LimitPolicy::Unlimited,
            seed: 1,
        };
        let outcome = run_joins(vec![config], &SweepRunner::new(1));
        let ExperimentReport::Joins(points) = &outcome.report else {
            panic!("joins run produced {:?}", outcome.report);
        };
        let point = &points[0];
        assert_eq!(point.sessions, 30);
        assert!(point.validated, "rates must match the oracle");
        assert!(point.total_packets > 0);
        assert!(point.time_to_quiescence_us > 0);
        assert!(point.packets_per_session > 1.0);
        assert_eq!(outcome.report.failures(), 0);
    }

    #[test]
    fn experiment2_phases_all_validate() {
        let spec = ChurnSpec {
            topology: ScenarioSpec::new("small/lan", 200),
            initial_sessions: 60,
            churn: 15,
            change_window_us: 1_000,
            limits: LimitPolicy::Unlimited,
            seed: 1,
            repeats: 1,
        };
        let outcome = run_churn(&spec, NetworkScenario::small_lan(200), &SweepRunner::new(1));
        let ExperimentReport::Churn(runs) = outcome.report else {
            panic!("churn run produced {:?}", outcome.report);
        };
        let Experiment2Run { phases, series, .. } = &runs[0];
        assert_eq!(phases.len(), 5);
        for phase in phases {
            assert!(phase.validated, "phase {} did not validate", phase.name);
            assert!(phase.packets.total() > 0);
        }
        assert_eq!(
            series.total(),
            phases.iter().map(|p| p.packets.total()).sum::<u64>()
        );
        // After the leave phase fewer sessions are active than after the join
        // phase.
        assert!(phases[1].active_sessions < phases[0].active_sessions);
    }

    #[test]
    fn experiment3_bneck_goes_quiescent_and_baseline_does_not() {
        let mut spec = accuracy(150, 50, 5, 60);
        spec.baselines = vec!["BFYZ".to_string()];
        let results = accuracy_results(&spec, 1);
        assert_eq!(results.len(), 2);
        let bneck = &results[0];
        let bfyz = &results[1];
        assert_eq!(bneck.protocol, "B-Neck");
        assert_eq!(bfyz.protocol, "BFYZ");
        // B-Neck stops sending packets; the baseline keeps going.
        assert!(bneck.quiescent_at_us.is_some());
        assert!(bfyz.quiescent_at_us.is_none());
        assert_eq!(bneck.samples.last().unwrap().packets_in_interval, 0);
        assert!(bfyz.samples.last().unwrap().packets_in_interval > 0);
        // B-Neck's final error is (essentially) zero; its transient errors are
        // never positive beyond tolerance (conservative rates).
        let final_error = bneck.samples.last().unwrap().source_error;
        assert!(final_error.mean.abs() < 0.5);
        for sample in &bneck.samples {
            assert!(sample.source_error.p90 <= 0.5);
        }
    }

    #[test]
    fn experiment3_parallel_driver_matches_the_serial_one() {
        let mut spec = accuracy(120, 30, 3, 30);
        spec.baselines = ["BFYZ", "CG", "RCP"].map(String::from).to_vec();
        let serial = accuracy_results(&spec, 1);
        let parallel = accuracy_results(&spec, 4);
        assert_eq!(
            serial, parallel,
            "protocol cells are thread-count independent"
        );
        assert_eq!(parallel.len(), 4);
        assert_eq!(parallel[3].protocol, "RCP");
    }

    #[test]
    fn unknown_protocols_are_rejected_at_the_dispatch_boundary() {
        let network = NetworkScenario::small_lan(20).build();
        let protocols = default_protocols();
        assert!(protocols.build("B-Neck", &network).is_some());
        for name in bneck_baselines::BASELINE_NAMES {
            assert!(protocols.build(name, &network).is_some());
        }
        assert!(protocols.build("XCP", &network).is_none());
    }

    #[test]
    fn fault_sweep_cells_are_honest_and_recovery_restores_convergence() {
        let spec = FaultSweepSpec {
            topology: ScenarioSpec::new("small/lan", 20),
            sessions: 8,
            join_window_us: 1_000,
            limits: LimitPolicy::Unlimited,
            workload_seed: 1,
            fault_seed: 42,
            drop: vec![0.0, 0.05],
            duplicate: vec![0.01],
            reorder: 0.25,
            reorder_window: 4,
            with_recovery: true,
            rto_us: 500,
            horizon_ms: 200,
        };
        let topologies = TopologyRegistry::builtin();
        let config = spec.config(&topologies).unwrap();
        let points = spec.points().unwrap();
        assert_eq!(points.len(), 2);
        let outcome = run_faults(&spec, config, points, &SweepRunner::new(2));
        let ExperimentReport::FaultSweep(reports) = outcome.report else {
            panic!("fault sweep produced {:?}", outcome.report);
        };
        for report in &reports {
            // The recovery contract: oracle-exact quiescent convergence with
            // nothing left in flight.
            let recovered = report.recovered.as_ref().unwrap();
            assert_eq!(recovered.outcome, FaultOutcome::Converged);
            assert_eq!(recovered.mismatches, 0);
            assert_eq!(recovered.unacked_frames, 0);
            assert!(report.ok());
            // Classification soundness: `Converged` can only mean quiescent
            // *and* oracle-exact.
            if report.raw.outcome == FaultOutcome::Converged {
                assert!(report.raw.quiescent);
                assert_eq!(report.raw.mismatches, 0);
            }
            assert!(report.raw.faults.total() > 0, "faults were injected");
            assert!(!report.raw.channel_faults.is_empty());
        }
        // The lossy cell forced drops on the raw run and retransmissions on
        // the recovered one.
        let lossy = &reports[1];
        assert!(lossy.raw.faults.dropped > 0);
        let stats = lossy.recovered.as_ref().unwrap().recovery.unwrap();
        assert!(stats.retransmits > 0);
    }

    #[test]
    fn validation_report_is_clean_on_small_scenarios() {
        let scenario = NetworkScenario {
            size: NetworkSize::Small,
            delay_model: DelayModel::Wan,
            hosts: 60,
            seed: 5,
        };
        let config = Experiment1Config {
            scenario,
            sessions: 25,
            join_window: Delay::from_millis(1),
            limits: bneck_workload::spec::VALIDATION_LIMITS,
            seed: 9,
        };
        let outcome = run_validation(vec![config], &SweepRunner::new(1));
        let ExperimentReport::Validation(reports) = &outcome.report else {
            panic!("validation run produced {:?}", outcome.report);
        };
        let report = &reports[0];
        assert_eq!(report.mismatches, 0);
        assert_eq!(report.violations, 0);
        assert_eq!(report.sessions, 25);
    }
}
