//! Experiment runners: one function per figure of the paper.
//!
//! Every protocol is driven through the unified [`ProtocolWorld`] trait
//! (`&mut dyn ProtocolWorld` at the driver boundary, built by name through
//! [`default_protocols`]), so adding a protocol touches only the registry in
//! `bneck-baselines`, not the runner. The `*_sweep`/`*_repeats` entry points
//! fan their independent points across worker threads with the
//! [`SweepRunner`]; every point's RNG seed derives from the point itself, so
//! reports are bit-identical at any thread count.

use crate::sweep::SweepRunner;
use bneck_core::prelude::*;
use bneck_maxmin::prelude::*;
use bneck_metrics::prelude::*;
use bneck_net::{Delay, Network};
use bneck_sim::{FaultCounters, FaultPlan, SimTime};
use bneck_workload::prelude::*;
#[cfg(feature = "serde")]
use serde::{Deserialize, Serialize};

/// The fully-populated protocol registry of this workspace: B-Neck plus the
/// three baselines (BFYZ, CG, RCP), all with default parameters. The `bneck`
/// CLI and the spec driver resolve protocol names through this.
pub fn default_protocols() -> ProtocolRegistry {
    let mut registry = ProtocolRegistry::with_bneck();
    bneck_baselines::register_baselines(&mut registry);
    registry
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

/// One point of Figure 5: a session count on one scenario.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
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

/// Runs one point of Experiment 1: `config.sessions` sessions join within the
/// first millisecond; the run proceeds to quiescence and the resulting rates
/// are validated against the centralized oracle.
pub fn run_experiment1_point(config: &Experiment1Config) -> Experiment1Point {
    let network = config.scenario.build();
    let schedule = config.schedule(&network);
    let mut sim = BneckSimulation::new(&network, BneckConfig::default());
    let stats = schedule.apply(&mut sim);
    let report = sim.run_to_quiescence();
    let sessions = sim.session_set();
    let validated = oracle_mismatches(&network, &sessions, &sim.allocation()) == 0;
    let total_packets = sim.packet_stats().total();
    Experiment1Point {
        scenario: config.scenario.label(),
        sessions: stats.joins,
        time_to_quiescence_us: report.quiescent_at.as_micros(),
        total_packets,
        packets_per_session: if stats.joins > 0 {
            total_packets as f64 / stats.joins as f64
        } else {
            0.0
        },
        validated,
    }
}

/// Runs a whole Experiment 1 sweep, fanning the (scenario, session-count)
/// points across the runner's worker threads. Points are independent
/// simulations whose seeds live in their configs, so the returned vector is
/// bit-identical at any thread count and ordered like `configs`.
pub fn run_experiment1_sweep(
    configs: Vec<Experiment1Config>,
    runner: &SweepRunner,
) -> Vec<Experiment1Point> {
    runner.run(configs, |_, config| run_experiment1_point(&config))
}

/// One phase of Figure 6.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
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

/// Runs Experiment 2: five churn phases on one network; after each phase the
/// protocol runs to quiescence and is validated against the oracle.
///
/// Returns the per-phase results plus the packet time series (5 ms bins, as in
/// Figure 6) of the whole run.
pub fn run_experiment2(
    config: &Experiment2Config,
) -> (Vec<Experiment2PhaseResult>, PacketTimeSeries) {
    let network = config.scenario.build();
    let mut planner = config.planner(&network);
    let mut sim = BneckSimulation::new(&network, BneckConfig::default());
    // Packets are binned as they are sent: at paper scale a whole-run log
    // would hold tens of millions of entries.
    let recorder = SeriesRecorder::new(Delay::from_millis(5));
    sim.subscribe(recorder.clone());
    let mut results = Vec::new();
    for phase in config.phases() {
        let start = if sim.now() == SimTime::ZERO {
            SimTime::ZERO
        } else {
            sim.now() + Delay::from_millis(1)
        };
        let schedule = planner.phase(
            start,
            config.change_window,
            phase.joins,
            phase.leaves,
            phase.changes,
            config.limits,
        );
        let before = *sim.packet_stats();
        schedule.apply(&mut sim);
        let report = sim.run_to_quiescence();
        let sessions = sim.session_set();
        let validated = oracle_mismatches(&network, &sessions, &sim.allocation()) == 0;
        results.push(Experiment2PhaseResult {
            name: phase.name,
            started_at_us: start.as_micros(),
            time_to_quiescence_us: report.quiescent_at.saturating_since(start).as_micros(),
            active_sessions: sessions.len(),
            packets: sim.packet_stats().since(&before),
            validated,
        });
    }
    (results, recorder.series())
}

/// One full Experiment 2 run: the seed it was planned with, its five phase
/// results and the packet time series of the whole run.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub struct Experiment2Run {
    /// The planner seed of this repeat.
    pub seed: u64,
    /// The per-phase results.
    pub phases: Vec<Experiment2PhaseResult>,
    /// Packets per 5 ms bin over the whole run.
    pub series: PacketTimeSeries,
}

/// Runs `repeats` independent Experiment 2 repetitions (seeds
/// `base.seed + repeat index`), fanning them across the runner's worker
/// threads. Results are ordered by repeat index and bit-identical at any
/// thread count.
pub fn run_experiment2_repeats(
    base: &Experiment2Config,
    repeats: usize,
    runner: &SweepRunner,
) -> Vec<Experiment2Run> {
    let configs: Vec<Experiment2Config> = (0..repeats.max(1) as u64)
        .map(|i| Experiment2Config {
            seed: base.seed.wrapping_add(i),
            ..*base
        })
        .collect();
    runner.run(configs, |_, config| {
        let (phases, series) = run_experiment2(&config);
        Experiment2Run {
            seed: config.seed,
            phases,
            series,
        }
    })
}

/// One sampling instant of Experiment 3, for one protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
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
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
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

/// Runs Experiment 3 for B-Neck and the requested baselines on the same
/// workload: joins plus early leaves, then rate samples every
/// `config.sample_interval` until `config.horizon`, with the error measured
/// against the centralized max-min rates of the surviving sessions (Figures 7
/// and 8). Protocols run serially; see [`run_experiment3_with`] for the
/// parallel driver.
pub fn run_experiment3(config: &Experiment3Config, baselines: &[&str]) -> Vec<Experiment3Result> {
    run_experiment3_with(config, baselines, &SweepRunner::new(1))
}

/// [`run_experiment3`], with the protocol cells fanned across the runner's
/// worker threads. Every protocol runs its own independent simulation over a
/// shared network, schedule and reference solution, so the results are
/// bit-identical at any thread count and ordered B-Neck first, then the
/// requested baselines.
///
/// # Panics
///
/// Panics if a requested baseline name is unknown (expected `BFYZ`, `CG` or
/// `RCP`).
pub fn run_experiment3_with(
    config: &Experiment3Config,
    baselines: &[&str],
    runner: &SweepRunner,
) -> Vec<Experiment3Result> {
    run_experiment3_registry(config, baselines, &default_protocols(), runner)
}

/// [`run_experiment3_with`], resolving protocol names through a caller
/// registry — the entry point of the spec-driven CLI, and the way to run the
/// accuracy experiment over protocols this workspace does not know about.
///
/// # Panics
///
/// Panics if a requested protocol name is not registered.
pub fn run_experiment3_registry(
    config: &Experiment3Config,
    baselines: &[&str],
    registry: &ProtocolRegistry,
    runner: &SweepRunner,
) -> Vec<Experiment3Result> {
    let network = config.scenario.build();
    let schedule = config.schedule(&network);
    let sample_times = config.sample_times();

    // The reference allocation: the max-min fair rates of the sessions that
    // remain after the initial churn (computed from a bookkeeping-only pass).
    let mut reference = BneckSimulation::new(&network, BneckConfig::default());
    schedule.apply(&mut reference);
    let final_sessions = reference.session_set();
    let solution = CentralizedBneck::new(&network, &final_sessions).solve_with_bottlenecks();

    let mut protocols = vec!["B-Neck"];
    protocols.extend(baselines);
    runner.run(protocols, |_, name| {
        let mut sim = registry
            .build(name, &network)
            .unwrap_or_else(|| panic!("protocol {name} is not in the registry"));
        run_protocol(sim.as_mut(), &schedule, &sample_times, &solution)
    })
}

/// Result of validating one randomized scenario against the oracle.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub struct ValidationReport {
    /// Scenario label.
    pub scenario: String,
    /// The scenario's topology seed (the former `validate` binary printed it
    /// from its point list; carrying it in the report makes the report
    /// self-describing).
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

/// Runs a join-only workload on a scenario and checks the distributed rates
/// against both the centralized oracle and the max-min fairness conditions
/// (the validation methodology of Section IV of the paper).
pub fn validate_scenario(
    scenario: &NetworkScenario,
    sessions: usize,
    seed: u64,
) -> ValidationReport {
    let config = Experiment1Config {
        scenario: *scenario,
        sessions,
        join_window: Delay::from_millis(1),
        limits: LimitPolicy::RandomFinite {
            probability: 0.25,
            min_bps: 1e6,
            max_bps: 80e6,
        },
        seed,
    };
    let network = scenario.build();
    let schedule = config.schedule(&network);
    let mut sim = BneckSimulation::new(&network, BneckConfig::default());
    schedule.apply(&mut sim);
    let report = sim.run_to_quiescence();
    let session_set = sim.session_set();
    let mismatches = oracle_mismatches(&network, &session_set, &sim.allocation());
    let violations = verify_max_min(&network, &session_set, &sim.allocation())
        .err()
        .map(|v| v.len())
        .unwrap_or(0);
    ValidationReport {
        scenario: scenario.label(),
        topology_seed: scenario.seed,
        sessions: session_set.len(),
        time_to_quiescence_us: report.quiescent_at.as_micros(),
        mismatches,
        violations,
    }
}

/// One validation run: a scenario, a session count and the workload seed.
pub use bneck_workload::spec::ValidationRun as ValidationPoint;

/// Runs every validation point, fanning the independent runs across the
/// runner's worker threads; reports come back in point order, bit-identical
/// at any thread count.
pub fn run_validation_sweep(
    points: Vec<ValidationPoint>,
    runner: &SweepRunner,
) -> Vec<ValidationReport> {
    runner.run(points, |_, point| {
        validate_scenario(&point.scenario, point.sessions, point.seed)
    })
}

/// The deterministic outcome of one paper-scale join-to-quiescence point
/// (the wall-clock timings live in [`ScaleRun::detail`], outside the report,
/// so reports stay bit-identical at any thread count and across machines).
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
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
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
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

/// Peak resident set size (`VmHWM`) of the current process in bytes, or 0
/// when `/proc/self/status` is unavailable (non-Linux platforms).
pub fn peak_rss_bytes() -> u64 {
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

/// One paper-scale run: the deterministic report plus human-oriented detail
/// lines (network dimensions, wall-clock timings).
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleRun {
    /// The deterministic outcome.
    pub report: ScaleReport,
    /// The wall-clock phase breakdown and peak RSS of this point.
    pub timings: ScaleTimings,
    /// Multi-line progress/timing detail for operators (not part of the
    /// machine-readable report: wall-clock times are not reproducible).
    pub detail: String,
}

/// Runs one paper-scale point: builds the network, applies the join
/// schedule, drives to quiescence, and — unless `validate` is off —
/// cross-checks the final rates against the centralized oracle.
#[expect(
    clippy::disallowed_methods,
    reason = "operator-facing phase timing only; feeds the free-text detail, never the machine-readable report"
)]
pub fn run_scale_point(config: &Experiment1Config, validate: bool) -> ScaleRun {
    use std::fmt::Write as _;
    use std::time::Instant;

    let sessions = config.sessions;
    let t0 = Instant::now();
    let network = config.scenario.build();
    let t_build = t0.elapsed();
    let mut detail = format!(
        "[scale] network: {} routers, {} hosts, {} links ({:.2?})\n",
        network.router_count(),
        network.host_count(),
        network.link_count(),
        t_build
    );

    let t1 = Instant::now();
    let schedule = config.schedule(&network);
    let t_plan = t1.elapsed();

    let t2 = Instant::now();
    let (stats, report, oracle_state) = {
        let mut sim = BneckSimulation::new(&network, BneckConfig::default());
        let stats = schedule.apply(&mut sim);
        let report = sim.run_to_quiescence();
        let state = validate.then(|| (sim.session_set(), sim.allocation()));
        (stats, report, state)
    };
    let t_run = t2.elapsed();
    let _ = write!(
        detail,
        "[scale] {} joins applied, quiescent={} at {}us after {} events / {} packets ({:.2?})",
        stats.joins,
        report.quiescent,
        report.quiescent_at.as_micros(),
        report.events_processed,
        report.packets_sent,
        t_run,
    );

    let mut mismatches = None;
    let mut t_oracle = std::time::Duration::ZERO;
    if let Some((session_set, allocation)) = oracle_state {
        let t3 = Instant::now();
        mismatches = Some(oracle_mismatches(&network, &session_set, &allocation));
        t_oracle = t3.elapsed();
    }
    let timings = ScaleTimings {
        build_s: t_build.as_secs_f64(),
        plan_s: t_plan.as_secs_f64(),
        run_s: t_run.as_secs_f64(),
        oracle_s: t_oracle.as_secs_f64(),
        total_s: t0.elapsed().as_secs_f64(),
        peak_rss_bytes: peak_rss_bytes(),
    };
    let _ = write!(
        detail,
        "\n[scale] build_s={:.3} plan_s={:.3} run_s={:.3} oracle_s={:.3} total_s={:.3} peak_rss_mib={:.1}",
        timings.build_s,
        timings.plan_s,
        timings.run_s,
        timings.oracle_s,
        timings.total_s,
        timings.peak_rss_bytes as f64 / (1024.0 * 1024.0),
    );

    ScaleRun {
        report: ScaleReport {
            sessions,
            joins_applied: stats.joins,
            quiescent: report.quiescent,
            quiescent_at_us: report.quiescent_at.as_micros(),
            events_processed: report.events_processed,
            packets_sent: report.packets_sent,
            packets_per_session: report.packets_sent as f64 / sessions.max(1) as f64,
            mismatches,
        },
        timings,
        detail,
    }
}

/// One point of the machine-readable scale curve (`BENCH_SCALE.json`): the
/// deterministic outcome of a paper-scale run joined with its wall-clock
/// phase breakdown, per-event cost and peak RSS.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub struct ChannelFaultSummary {
    /// The engine channel the faults were injected on.
    pub channel: u32,
    /// What was dropped, duplicated and delayed on it.
    pub counters: FaultCounters,
}

/// The outcome of one fault-injected run (raw or recovery-enabled).
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
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

/// One lowered cell of a fault sweep: the shared join workload plus this
/// cell's fault plan, recovery setting and horizon.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub struct FaultPointConfig {
    /// The network scenario.
    pub scenario: NetworkScenario,
    /// Number of sessions to join.
    pub sessions: usize,
    /// Window in which all joins happen.
    pub join_window: Delay,
    /// Maximum-rate request policy.
    pub limits: LimitPolicy,
    /// Workload seed (shared across the grid, so every cell replays the same
    /// joins).
    pub workload_seed: u64,
    /// This cell's fault plan (its seed differs per cell).
    pub plan: FaultPlan,
    /// RTO of the additional recovery-enabled run, `None` to skip it.
    pub recovery_rto: Option<Delay>,
    /// Horizon after which a non-quiescent run is recorded as stuck.
    pub horizon: Delay,
}

/// The report of one fault-sweep cell: the raw run's honest outcome, and —
/// when requested — the recovery-enabled run that is expected to restore
/// oracle-exact convergence.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
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

/// Runs one fault-injected simulation and classifies it honestly.
fn run_fault_run(config: &FaultPointConfig, with_recovery: bool) -> FaultRunResult {
    let network = config.scenario.build();
    let workload = Experiment1Config {
        scenario: config.scenario,
        sessions: config.sessions,
        join_window: config.join_window,
        limits: config.limits,
        seed: config.workload_seed,
    };
    let schedule = workload.schedule(&network);
    let mut bneck = BneckConfig::default();
    if with_recovery {
        if let Some(rto) = config.recovery_rto {
            bneck = bneck.with_recovery(rto);
        }
    }
    let mut sim = BneckSimulation::new(&network, bneck);
    sim.set_fault_plan(config.plan);
    schedule.apply(&mut sim);
    let report = sim.run_until(SimTime::ZERO + config.horizon);
    let session_set = sim.session_set();
    let mismatches = oracle_mismatches(&network, &session_set, &sim.allocation());
    let outcome = if !report.quiescent {
        FaultOutcome::Stuck
    } else if mismatches > 0 {
        FaultOutcome::WrongRates
    } else {
        FaultOutcome::Converged
    };
    FaultRunResult {
        outcome,
        quiescent: report.quiescent,
        quiescent_at_us: report.quiescent_at.as_micros(),
        events_processed: report.events_processed,
        packets_sent: report.packets_sent,
        mismatches,
        faults: sim.fault_totals(),
        channel_faults: sim
            .fault_breakdown()
            .into_iter()
            .map(|(channel, counters)| ChannelFaultSummary {
                channel: channel.0,
                counters,
            })
            .collect(),
        recovery: sim.recovery_stats(),
        unacked_frames: sim.unacked_frames(),
    }
}

/// Runs one cell of a fault sweep: the raw run always, plus a
/// recovery-enabled run when the cell carries an RTO.
pub fn run_fault_point(config: &FaultPointConfig) -> FaultPointReport {
    let raw = run_fault_run(config, false);
    let recovered = config.recovery_rto.map(|_| run_fault_run(config, true));
    FaultPointReport {
        drop: config.plan.drop,
        duplicate: config.plan.duplicate,
        fault_seed: config.plan.seed,
        raw,
        recovered,
    }
}

/// Lowers a [`FaultSweepSpec`] into per-cell configs: cell `i` (drop-major
/// order) rolls its faults from `fault_seed + i`, so every cell has an
/// independent fault stream over the same replayed workload.
///
/// # Errors
///
/// Propagates the spec's own grid validation ([`FaultSweepSpec::points`]).
pub fn fault_point_configs(
    spec: &FaultSweepSpec,
    scenario: NetworkScenario,
) -> Result<Vec<FaultPointConfig>, SpecError> {
    let points = spec.points()?;
    Ok(points
        .iter()
        .enumerate()
        .map(|(i, point)| FaultPointConfig {
            scenario,
            sessions: spec.sessions,
            join_window: Delay::from_micros(spec.join_window_us),
            limits: spec.limits,
            workload_seed: spec.workload_seed,
            plan: FaultPlan::new(
                spec.fault_seed.wrapping_add(i as u64),
                point.drop,
                point.duplicate,
                spec.reorder,
                spec.reorder_window,
            ),
            recovery_rto: spec.with_recovery.then(|| Delay::from_micros(spec.rto_us)),
            horizon: Delay::from_millis(spec.horizon_ms),
        })
        .collect())
}

/// Runs every fault-sweep cell, fanned across the runner's worker threads;
/// reports come back in cell order, bit-identical at any thread count (each
/// cell's fault and workload seeds live in its config).
pub fn run_fault_sweep(
    configs: Vec<FaultPointConfig>,
    runner: &SweepRunner,
) -> Vec<FaultPointReport> {
    runner.run(configs, |_, config| run_fault_point(&config))
}

/// Runs every paper-scale point, fanned across the runner's worker threads;
/// reports come back in point order, bit-identical at any thread count.
pub fn run_scale_sweep(
    configs: Vec<Experiment1Config>,
    validate: bool,
    runner: &SweepRunner,
) -> Vec<ScaleRun> {
    runner.run(configs, |_, config| run_scale_point(&config, validate))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bneck_net::topology::transit_stub::NetworkSize;
    use bneck_net::DelayModel;

    #[test]
    fn experiment1_point_runs_and_validates() {
        let config = Experiment1Config::scaled(NetworkScenario::small_lan(80).with_seed(3), 30);
        let point = run_experiment1_point(&config);
        assert_eq!(point.sessions, 30);
        assert!(point.validated, "rates must match the oracle");
        assert!(point.total_packets > 0);
        assert!(point.time_to_quiescence_us > 0);
        assert!(point.packets_per_session > 1.0);
    }

    #[test]
    fn experiment2_phases_all_validate() {
        let mut config = Experiment2Config::scaled();
        config.scenario = NetworkScenario::small_lan(200);
        config.initial_sessions = 60;
        config.churn = 15;
        let (phases, series) = run_experiment2(&config);
        assert_eq!(phases.len(), 5);
        for phase in &phases {
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
        let mut config = Experiment3Config::scaled();
        config.scenario = NetworkScenario::small_lan(150);
        config.joins = 50;
        config.leaves = 5;
        config.horizon = Delay::from_millis(60);
        let results = run_experiment3(&config, &["BFYZ"]);
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
        let mut config = Experiment3Config::scaled();
        config.scenario = NetworkScenario::small_lan(120);
        config.joins = 30;
        config.leaves = 3;
        config.horizon = Delay::from_millis(30);
        let serial = run_experiment3(&config, &["BFYZ", "CG", "RCP"]);
        let parallel = run_experiment3_with(&config, &["BFYZ", "CG", "RCP"], &SweepRunner::new(4));
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
        let configs = fault_point_configs(&spec, NetworkScenario::small_lan(20)).unwrap();
        assert_eq!(configs.len(), 2);
        let reports = run_fault_sweep(configs, &SweepRunner::new(2));
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
        let report = validate_scenario(&scenario, 25, 9);
        assert_eq!(report.mismatches, 0);
        assert_eq!(report.violations, 0);
        assert_eq!(report.sessions, 25);
    }
}
