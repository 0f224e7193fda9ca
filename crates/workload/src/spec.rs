//! Declarative experiment specifications.
//!
//! The paper's evaluation is a small matrix of scenarios — topology ×
//! workload × protocol × seeds (§IV). [`ExperimentSpec`] captures one cell
//! family of that matrix as plain *data*: a serializable document naming the
//! topology presets (resolved by [`NetworkScenario::preset`]), the workload
//! parameters, the baselines under test (resolved by
//! `Baseline::from_name`), the seeds and repeats, and the output
//! selection. The `bneck` CLI in `bneck-bench` runs specs from JSON files or
//! from the shipped presets ([`ExperimentSpec::preset`]), the one place the
//! paper's parameter sets are written down.
//!
//! Lowering: the joins, validation, scale and fault-sweep kinds lower to
//! [`Experiment1Config`]s, one join burst each (`configs`/`config`); the
//! churn and accuracy kinds resolve their network (`resolve`) and plan their
//! workloads from the spec itself.

use crate::experiments::Experiment1Config;
use crate::protocol::Baseline;
use crate::scenario::NetworkScenario;
use crate::sessions::LimitPolicy;
use bneck_net::Delay;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Error produced when a spec does not resolve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// A topology name has no [`NetworkScenario::preset`].
    UnknownTopology(String),
    /// A baseline name is not a [`Baseline`].
    UnknownProtocol(String),
    /// A list that must be non-empty (session counts, topologies, ...) is
    /// empty.
    Empty(&'static str),
    /// A parameter value is out of its domain.
    Invalid(&'static str),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::UnknownTopology(name) => write!(f, "unknown topology preset `{name}`"),
            SpecError::UnknownProtocol(name) => write!(f, "unknown protocol `{name}`"),
            SpecError::Empty(what) => write!(f, "`{what}` must not be empty"),
            SpecError::Invalid(what) => write!(f, "invalid value for `{what}`"),
        }
    }
}

impl std::error::Error for SpecError {}

/// `value` units of `unit_ns` nanoseconds as a [`Delay`], or
/// [`SpecError::Invalid`] naming `field` when the nanoseconds overflow the
/// `u64` a `Delay` counts.
fn checked_delay(value: u64, unit_ns: u64, field: &'static str) -> Result<Delay, SpecError> {
    value
        .checked_mul(unit_ns)
        .map(Delay::from_nanos)
        .ok_or(SpecError::Invalid(field))
}

/// `limits`, or [`SpecError::Invalid`] naming `limits` when a session could
/// not draw from it: a probability outside `[0, 1]`, or bounds that are not
/// finite with `0 < min_bps <= max_bps`.
fn checked_limits(limits: LimitPolicy) -> Result<LimitPolicy, SpecError> {
    match limits {
        LimitPolicy::Unlimited => Ok(limits),
        LimitPolicy::RandomFinite {
            probability,
            min_bps,
            max_bps,
        } => {
            let drawable = (0.0..=1.0).contains(&probability)
                && 0.0 < min_bps
                && min_bps <= max_bps
                && max_bps.is_finite();
            drawable
                .then_some(limits)
                .ok_or(SpecError::Invalid("limits"))
        }
    }
}

/// A topology reference: a preset name plus the host count and topology
/// seed to instantiate it with.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Preset name (`small/lan`, `medium/wan`, ...).
    pub preset: String,
    /// Number of hosts attached to random stub routers.
    pub hosts: usize,
    /// Topology generator seed.
    pub seed: u64,
}

impl ScenarioSpec {
    /// A reference to `preset` with the given host count (topology seed 1,
    /// the presets' default).
    pub fn new(preset: impl Into<String>, hosts: usize) -> Self {
        ScenarioSpec {
            preset: preset.into(),
            hosts,
            seed: 1,
        }
    }

    /// Builds the scenario of the named preset.
    ///
    /// # Errors
    ///
    /// [`SpecError::UnknownTopology`] when no preset has that name,
    /// [`SpecError::Invalid`] on fewer than two hosts (a session needs a
    /// source and a distinct destination).
    pub fn resolve(&self) -> Result<NetworkScenario, SpecError> {
        if self.hosts < 2 {
            return Err(SpecError::Invalid("hosts"));
        }
        NetworkScenario::preset(&self.preset, self.hosts)
            .map(|scenario| scenario.with_seed(self.seed))
            .ok_or_else(|| SpecError::UnknownTopology(self.preset.clone()))
    }
}

/// What the driver should emit for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutputSpec {
    /// Print the human-readable text tables.
    pub tables: bool,
    /// Print the CSV renderings of the tables.
    pub csv: bool,
    /// Print the machine-readable JSON report.
    pub json: bool,
}

impl Default for OutputSpec {
    /// Tables and CSV on, JSON off.
    fn default() -> Self {
        OutputSpec {
            tables: true,
            csv: true,
            json: false,
        }
    }
}

/// One declarative experiment: a name, the experiment kind with its
/// parameters, and the output selection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentSpec {
    /// Display name (also the preset name for shipped specs).
    pub name: String,
    /// The experiment kind and its parameters.
    pub experiment: ExperimentKind,
    /// Output selection (overridable from the CLI).
    pub output: OutputSpec,
}

/// The workload families of the paper's evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ExperimentKind {
    /// Experiment 1 (Figure 5): simultaneous joins, time to quiescence and
    /// control traffic over a (topology × session-count) sweep.
    Joins(JoinsSpec),
    /// Experiment 2 (Figure 6): five phases of churn, per-phase convergence
    /// and a packet time series.
    Churn(ChurnSpec),
    /// Experiment 3 (Figures 7 and 8): accuracy over time against the
    /// non-quiescent baselines.
    Accuracy(AccuracySpec),
    /// The §IV validation methodology: randomized workloads cross-checked
    /// against the centralized oracle and the max-min conditions.
    Validation(ValidationSpec),
    /// Paper-scale join-to-quiescence points (up to the 300,000 sessions of
    /// Figure 5) with oracle validation.
    Scale(ScaleSpec),
    /// Robustness off the paper's map: the same join workload run over
    /// fault-injected channels, across a (drop × duplicate) probability grid,
    /// recording the convergence/quiescence outcome of every point — raw, and
    /// optionally with the recovery layer restoring reliable delivery.
    FaultSweep(FaultSweepSpec),
}

impl ExperimentKind {
    /// A short kind label for listings.
    pub fn label(&self) -> &'static str {
        match self {
            ExperimentKind::Joins(_) => "joins",
            ExperimentKind::Churn(_) => "churn",
            ExperimentKind::Accuracy(_) => "accuracy",
            ExperimentKind::Validation(_) => "validation",
            ExperimentKind::Scale(_) => "scale",
            ExperimentKind::FaultSweep(_) => "faults",
        }
    }
}

/// Experiment 1 as data: a (topology preset × session count) sweep of
/// simultaneous-join runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JoinsSpec {
    /// Topology preset names (resolved by [`NetworkScenario::preset`]).
    pub topologies: Vec<String>,
    /// Topology generator seed.
    pub topology_seed: u64,
    /// The session counts of the sweep.
    pub sessions: Vec<usize>,
    /// Hosts instantiated per session (sources plus destination headroom).
    pub hosts_per_session: usize,
    /// Lower bound on the instantiated host count.
    pub min_hosts: usize,
    /// Window in which all joins happen, in microseconds.
    pub join_window_us: u64,
    /// Maximum-rate request policy.
    pub limits: LimitPolicy,
    /// Workload seed of the sweep's first point; point `i` uses
    /// `base_seed + i` (in topology-major order), so every point owns a
    /// distinct, position-derived RNG.
    pub base_seed: u64,
}

impl JoinsSpec {
    /// Lowers the sweep to one [`Experiment1Config`] per
    /// (topology, session count) cell, in topology-major order.
    ///
    /// # Errors
    ///
    /// [`SpecError::UnknownTopology`] / [`SpecError::Empty`] on unresolvable
    /// or empty inputs, [`SpecError::Invalid`] on a zero session count, a
    /// host count that overflows `usize` or is below the session count (every
    /// session needs its own source host), a join window too long to count
    /// in nanoseconds, or `limits` no session could draw from.
    pub fn configs(&self) -> Result<Vec<Experiment1Config>, SpecError> {
        if self.topologies.is_empty() {
            return Err(SpecError::Empty("topologies"));
        }
        if self.sessions.is_empty() {
            return Err(SpecError::Empty("sessions"));
        }
        if self.sessions.contains(&0) {
            return Err(SpecError::Invalid("sessions"));
        }
        let join_window = checked_delay(self.join_window_us, 1_000, "join_window_us")?;
        let limits = checked_limits(self.limits)?;
        let mut configs = Vec::with_capacity(self.topologies.len() * self.sessions.len());
        for preset in &self.topologies {
            for &sessions in &self.sessions {
                let hosts = self
                    .hosts_per_session
                    .checked_mul(sessions)
                    .ok_or(SpecError::Invalid("hosts_per_session"))?
                    .max(self.min_hosts);
                if hosts < sessions {
                    return Err(SpecError::Invalid("hosts_per_session"));
                }
                let scenario = ScenarioSpec {
                    preset: preset.clone(),
                    hosts,
                    seed: self.topology_seed,
                }
                .resolve()?;
                configs.push(Experiment1Config {
                    scenario,
                    sessions,
                    join_window,
                    limits,
                    seed: self.base_seed.wrapping_add(configs.len() as u64),
                });
            }
        }
        Ok(configs)
    }
}

/// Experiment 2 as data: the five-phase churn workload, with repeats.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnSpec {
    /// The network to run on.
    pub topology: ScenarioSpec,
    /// Sessions joining in the initial phase.
    pub initial_sessions: usize,
    /// Sessions affected in each churn phase.
    pub churn: usize,
    /// Window in which each phase's changes happen, in microseconds.
    pub change_window_us: u64,
    /// Maximum-rate request policy.
    pub limits: LimitPolicy,
    /// Workload seed of the first repeat; repeat `i` uses `seed + i`.
    pub seed: u64,
    /// Number of independent repeats.
    pub repeats: usize,
}

impl ChurnSpec {
    /// Checks the spec and resolves its network.
    ///
    /// # Errors
    ///
    /// [`SpecError::UnknownTopology`] / [`SpecError::Invalid`] on
    /// unresolvable or degenerate inputs, a change window and `limits`
    /// included. The
    /// topology needs a source host per initial session, and the "change"
    /// and "mixed" phases draw `2 * churn` distinct sessions from the
    /// initial population.
    pub fn resolve(&self) -> Result<NetworkScenario, SpecError> {
        if self.repeats == 0 {
            return Err(SpecError::Invalid("repeats"));
        }
        let scenario = self.topology.resolve()?;
        if self.topology.hosts < self.initial_sessions {
            return Err(SpecError::Invalid("hosts"));
        }
        if self.churn > self.initial_sessions / 2 {
            return Err(SpecError::Invalid("churn"));
        }
        checked_delay(self.change_window_us, 1_000, "change_window_us")?;
        checked_limits(self.limits)?;
        Ok(scenario)
    }
}

/// Experiment 3 as data: joins plus early leaves, sampled against the
/// oracle's rates, for B-Neck and the named baselines.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccuracySpec {
    /// The network to run on.
    pub topology: ScenarioSpec,
    /// Sessions joining.
    pub joins: usize,
    /// Sessions leaving shortly after joining.
    pub leaves: usize,
    /// Window in which all joins and leaves happen, in microseconds.
    pub change_window_us: u64,
    /// Sampling interval, in microseconds.
    pub sample_interval_us: u64,
    /// Observation horizon, in microseconds.
    pub horizon_us: u64,
    /// Maximum-rate request policy.
    pub limits: LimitPolicy,
    /// Workload seed.
    pub seed: u64,
    /// The baseline protocols to run next to B-Neck ([`Baseline`] names;
    /// B-Neck itself always runs first).
    pub baselines: Vec<String>,
}

impl AccuracySpec {
    /// Checks the spec and resolves its network.
    ///
    /// # Errors
    ///
    /// [`SpecError::UnknownTopology`] when the topology does not resolve,
    /// [`SpecError::Invalid`] on fewer hosts than joins, more leaves than
    /// joins, leaves in a zero change window, a zero sample interval, a
    /// duration too long to count in nanoseconds, or `limits` no session
    /// could draw from.
    pub fn resolve(&self) -> Result<NetworkScenario, SpecError> {
        if self.sample_interval_us == 0 {
            return Err(SpecError::Invalid("sample_interval_us"));
        }
        let scenario = self.topology.resolve()?;
        if self.topology.hosts < self.joins {
            return Err(SpecError::Invalid("hosts"));
        }
        if self.leaves > self.joins {
            return Err(SpecError::Invalid("leaves"));
        }
        // Leaves fall in the window's second half, which is empty at zero.
        if self.change_window_us == 0 && self.leaves > 0 {
            return Err(SpecError::Invalid("change_window_us"));
        }
        checked_delay(self.change_window_us, 1_000, "change_window_us")?;
        checked_delay(self.sample_interval_us, 1_000, "sample_interval_us")?;
        checked_delay(self.horizon_us, 1_000, "horizon_us")?;
        checked_limits(self.limits)?;
        Ok(scenario)
    }

    /// The named baselines, in spec order.
    ///
    /// # Errors
    ///
    /// [`SpecError::UnknownProtocol`] naming the first name that is not a
    /// [`Baseline`].
    pub fn resolve_baselines(&self) -> Result<Vec<Baseline>, SpecError> {
        self.baselines
            .iter()
            .map(|name| {
                Baseline::from_name(name).ok_or_else(|| SpecError::UnknownProtocol(name.clone()))
            })
            .collect()
    }
}

/// The §IV validation methodology as data: every named topology × `runs`
/// seeds, each with a randomized rate-limited workload
/// ([`VALIDATION_LIMITS`], joining within 1 ms).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValidationSpec {
    /// Topology preset names.
    pub topologies: Vec<String>,
    /// Sessions per run.
    pub sessions: usize,
    /// Hosts instantiated per session.
    pub hosts_per_session: usize,
    /// Randomized runs per topology.
    pub runs: usize,
    /// Topology seed of a topology's first run; run `i` uses
    /// `topo_seed_base + i`.
    pub topo_seed_base: u64,
    /// Workload seed of a topology's first run; run `i` uses
    /// `workload_seed_base + i`.
    pub workload_seed_base: u64,
}

/// The validation workload's limit policy: a quarter of the sessions request
/// a maximum rate between 1 and 80 Mb/s, so the oracle's rate-limit cases are
/// exercised next to the bottleneck ones.
pub const VALIDATION_LIMITS: LimitPolicy = LimitPolicy::RandomFinite {
    probability: 0.25,
    min_bps: 1e6,
    max_bps: 80e6,
};

impl ValidationSpec {
    /// Lowers to one [`Experiment1Config`] per validation run, in
    /// topology-major order.
    ///
    /// # Errors
    ///
    /// [`SpecError::UnknownTopology`] / [`SpecError::Empty`] /
    /// [`SpecError::Invalid`] on unresolvable or degenerate inputs, a host
    /// count that overflows `usize` or is below the session count included.
    pub fn configs(&self) -> Result<Vec<Experiment1Config>, SpecError> {
        if self.topologies.is_empty() {
            return Err(SpecError::Empty("topologies"));
        }
        if self.runs == 0 {
            return Err(SpecError::Invalid("runs"));
        }
        if self.sessions == 0 {
            return Err(SpecError::Invalid("sessions"));
        }
        let hosts = self
            .hosts_per_session
            .checked_mul(self.sessions)
            .ok_or(SpecError::Invalid("hosts_per_session"))?;
        if hosts < self.sessions {
            return Err(SpecError::Invalid("hosts_per_session"));
        }
        let mut out = Vec::with_capacity(self.topologies.len() * self.runs);
        for preset in &self.topologies {
            let base = ScenarioSpec::new(preset.clone(), hosts).resolve()?;
            for i in 0..self.runs as u64 {
                out.push(Experiment1Config {
                    scenario: base.with_seed(self.topo_seed_base.wrapping_add(i)),
                    sessions: self.sessions,
                    join_window: Delay::from_millis(1),
                    limits: VALIDATION_LIMITS,
                    seed: self.workload_seed_base.wrapping_add(i),
                });
            }
        }
        Ok(out)
    }
}

/// Paper-scale runs as data: a list of session counts, each lowered through
/// [`Experiment1Config::paper_scale`] (Medium LAN with one source host per
/// session plus headroom).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScaleSpec {
    /// The session counts to run.
    pub sessions: Vec<usize>,
    /// Cross-check the final rates against the centralized oracle.
    pub validate: bool,
}

impl ScaleSpec {
    /// Lowers to one [`Experiment1Config`] per session count.
    ///
    /// # Errors
    ///
    /// [`SpecError::Empty`] when no session count is given,
    /// [`SpecError::Invalid`] when one is zero.
    pub fn configs(&self) -> Result<Vec<Experiment1Config>, SpecError> {
        if self.sessions.is_empty() {
            return Err(SpecError::Empty("sessions"));
        }
        if self.sessions.contains(&0) {
            return Err(SpecError::Invalid("sessions"));
        }
        Ok(self
            .sessions
            .iter()
            .map(|&sessions| Experiment1Config::paper_scale(sessions))
            .collect())
    }
}

/// One cell of a fault sweep's (drop × duplicate) grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPoint {
    /// Per-transmission drop probability.
    pub drop: f64,
    /// Per-transmission duplication probability.
    pub duplicate: f64,
}

/// A fault-injected robustness sweep as data: one join workload replayed
/// over every cell of a (drop × duplicate) probability grid, with a shared
/// reorder setting. Each point runs the raw protocol (recording its honest
/// converged/stuck/wrong-rates outcome) and, when `with_recovery` is set,
/// a second run with the retransmission layer enabled — which is expected to
/// restore oracle-exact quiescent convergence at the price of the RTO tail.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSweepSpec {
    /// The network to run on.
    pub topology: ScenarioSpec,
    /// Sessions joining.
    pub sessions: usize,
    /// Window in which all joins happen, in microseconds.
    pub join_window_us: u64,
    /// Maximum-rate request policy.
    pub limits: LimitPolicy,
    /// Workload seed (the same workload is replayed at every grid point).
    pub workload_seed: u64,
    /// Seed of the fault plans; point `i` (in drop-major order) uses
    /// `fault_seed + i`, so every cell rolls an independent fault stream.
    pub fault_seed: u64,
    /// The drop probabilities of the grid.
    pub drop: Vec<f64>,
    /// The duplication probabilities of the grid.
    pub duplicate: Vec<f64>,
    /// Reorder probability shared by every point.
    pub reorder: f64,
    /// Reorder jitter window, in packet flight times.
    pub reorder_window: u32,
    /// Also run every point with the recovery layer enabled.
    pub with_recovery: bool,
    /// Retransmission timeout of the recovery runs, in microseconds.
    pub rto_us: u64,
    /// Per-run horizon, in milliseconds — a faulty run that has not drained
    /// by then is recorded as stuck instead of spinning forever.
    pub horizon_ms: u64,
}

impl FaultSweepSpec {
    /// Lowers to the join burst every grid cell replays.
    ///
    /// # Errors
    ///
    /// [`SpecError::UnknownTopology`] when the topology does not resolve,
    /// [`SpecError::Invalid`] on fewer hosts than sessions, a join window
    /// too long to count in nanoseconds, or `limits` no session could draw
    /// from.
    pub fn config(&self) -> Result<Experiment1Config, SpecError> {
        let scenario = self.topology.resolve()?;
        if self.topology.hosts < self.sessions {
            return Err(SpecError::Invalid("hosts"));
        }
        Ok(Experiment1Config {
            scenario,
            sessions: self.sessions,
            join_window: checked_delay(self.join_window_us, 1_000, "join_window_us")?,
            limits: checked_limits(self.limits)?,
            seed: self.workload_seed,
        })
    }

    /// The grid cells, in drop-major order.
    ///
    /// # Errors
    ///
    /// [`SpecError::Empty`] on an empty axis, [`SpecError::Invalid`] on a
    /// probability outside `[0, 1]`, a zero reorder window, a zero horizon,
    /// a zero RTO with recovery requested, or a duration too long to count
    /// in nanoseconds.
    pub fn points(&self) -> Result<Vec<FaultPoint>, SpecError> {
        if self.drop.is_empty() {
            return Err(SpecError::Empty("drop"));
        }
        if self.duplicate.is_empty() {
            return Err(SpecError::Empty("duplicate"));
        }
        let in_unit = |p: f64| (0.0..=1.0).contains(&p);
        if !self.drop.iter().all(|&p| in_unit(p)) {
            return Err(SpecError::Invalid("drop"));
        }
        if !self.duplicate.iter().all(|&p| in_unit(p)) {
            return Err(SpecError::Invalid("duplicate"));
        }
        if !in_unit(self.reorder) {
            return Err(SpecError::Invalid("reorder"));
        }
        if self.reorder_window == 0 {
            return Err(SpecError::Invalid("reorder_window"));
        }
        if self.horizon_ms == 0 {
            return Err(SpecError::Invalid("horizon_ms"));
        }
        if self.with_recovery && self.rto_us == 0 {
            return Err(SpecError::Invalid("rto_us"));
        }
        if self.sessions == 0 {
            return Err(SpecError::Invalid("sessions"));
        }
        checked_delay(self.join_window_us, 1_000, "join_window_us")?;
        checked_delay(self.rto_us, 1_000, "rto_us")?;
        checked_delay(self.horizon_ms, 1_000_000, "horizon_ms")?;
        let mut points = Vec::with_capacity(self.drop.len() * self.duplicate.len());
        for &drop in &self.drop {
            for &duplicate in &self.duplicate {
                points.push(FaultPoint { drop, duplicate });
            }
        }
        Ok(points)
    }
}

/// The names of the shipped presets, in listing order.
pub const PRESET_NAMES: [&str; 10] = [
    "exp1",
    "exp1_full",
    "exp2",
    "exp2_full",
    "exp3",
    "exp3_full",
    "validate",
    "paper_scale",
    "paper_1m",
    "faults",
];

/// `paper_full` is an alias preset: the 300,000-session point of Figure 5.
pub const PAPER_FULL: &str = "paper_full";

impl ExperimentSpec {
    /// One-line description of what a preset reproduces (for listings).
    pub fn preset_summary(name: &str) -> Option<&'static str> {
        Some(match name {
            "exp1" => "Figure 5 scaled down: join sweeps on small/medium networks",
            "exp1_full" => "Figure 5 at paper scale: 10..300k joins, five networks",
            "exp2" => "Figure 6 scaled down: five churn phases",
            "exp2_full" => "Figure 6 at paper scale: 100k sessions, 20k churn",
            "exp3" => "Figures 7-8 scaled down: accuracy vs BFYZ over time",
            "exp3_full" => "Figures 7-8 at paper scale: 100k joins, 10k leaves",
            "validate" => "SS-IV validation: randomized workloads vs the oracle",
            "paper_scale" => "50k-session join-to-quiescence run with oracle check",
            "paper_1m" => "one million sessions on Medium LAN, oracle-checked",
            "faults" => "drop/dup/reorder grid, raw vs recovery-layer runs",
            PAPER_FULL => "the full 300k-session point of Figure 5",
            _ => return None,
        })
    }

    /// The shipped preset of the given name. The `*_full` and scale presets
    /// carry the paper's parameters; `exp1`–`exp3` are scaled-down instances
    /// of the same structure.
    pub fn preset(name: &str) -> Option<ExperimentSpec> {
        let experiment = match name {
            "exp1" => ExperimentKind::Joins(JoinsSpec {
                topologies: vec![
                    "small/lan".to_string(),
                    "small/wan".to_string(),
                    "medium/lan".to_string(),
                ],
                topology_seed: 1,
                sessions: vec![10, 30, 100, 300, 1_000],
                hosts_per_session: 2,
                min_hosts: 20,
                join_window_us: 1_000,
                limits: LimitPolicy::Unlimited,
                base_seed: 1,
            }),
            "exp1_full" => ExperimentKind::Joins(JoinsSpec {
                topologies: vec![
                    "small/lan".to_string(),
                    "small/wan".to_string(),
                    "medium/lan".to_string(),
                    "medium/wan".to_string(),
                    "big/lan".to_string(),
                ],
                topology_seed: 1,
                sessions: vec![10, 100, 1_000, 10_000, 100_000, 300_000],
                hosts_per_session: 2,
                min_hosts: 20,
                join_window_us: 1_000,
                limits: LimitPolicy::Unlimited,
                base_seed: 1,
            }),
            "exp2" | "exp2_full" => {
                let (topology, initial_sessions, churn) = if name == "exp2" {
                    (ScenarioSpec::new("small/lan", 700), 300, 60)
                } else {
                    (ScenarioSpec::new("medium/lan", 220_000), 100_000, 20_000)
                };
                ExperimentKind::Churn(ChurnSpec {
                    topology,
                    initial_sessions,
                    churn,
                    change_window_us: 1_000,
                    limits: LimitPolicy::Unlimited,
                    seed: 1,
                    repeats: 1,
                })
            }
            "exp3" | "exp3_full" => {
                let (topology, joins, leaves) = if name == "exp3" {
                    (ScenarioSpec::new("small/lan", 600), 250, 25)
                } else {
                    (ScenarioSpec::new("medium/lan", 220_000), 100_000, 10_000)
                };
                ExperimentKind::Accuracy(AccuracySpec {
                    topology,
                    joins,
                    leaves,
                    change_window_us: 5_000,
                    sample_interval_us: 3_000,
                    horizon_us: 120_000,
                    limits: LimitPolicy::Unlimited,
                    seed: 1,
                    baselines: vec!["BFYZ".to_string()],
                })
            }
            "validate" => ExperimentKind::Validation(ValidationSpec {
                topologies: vec![
                    "small/lan".to_string(),
                    "small/wan".to_string(),
                    "medium/lan".to_string(),
                    "medium/wan".to_string(),
                ],
                sessions: 60,
                hosts_per_session: 2,
                runs: 3,
                topo_seed_base: 1,
                workload_seed_base: 100,
            }),
            "paper_scale" => ExperimentKind::Scale(ScaleSpec {
                sessions: vec![50_000],
                validate: true,
            }),
            // Beyond the paper's largest point (300k): one million sessions
            // on the Medium LAN network, exercising the cache-local hot path
            // and router-graph planning end to end.
            "paper_1m" => ExperimentKind::Scale(ScaleSpec {
                sessions: vec![1_000_000],
                validate: true,
            }),
            PAPER_FULL => ExperimentKind::Scale(ScaleSpec {
                sessions: vec![300_000],
                validate: true,
            }),
            // Robustness sweep (not a paper figure): the exp1-style join
            // workload over hostile channels, raw and recovered.
            "faults" => ExperimentKind::FaultSweep(FaultSweepSpec {
                topology: ScenarioSpec::new("small/lan", 20),
                sessions: 8,
                join_window_us: 1_000,
                limits: LimitPolicy::Unlimited,
                workload_seed: 1,
                fault_seed: 42,
                drop: vec![0.0, 0.01, 0.05],
                duplicate: vec![0.0, 0.01],
                reorder: 0.25,
                reorder_window: 4,
                with_recovery: true,
                rto_us: 500,
                horizon_ms: 200,
            }),
            _ => return None,
        };
        Some(ExperimentSpec {
            name: name.to_string(),
            experiment,
            output: OutputSpec::default(),
        })
    }

    /// Every shipped preset (including the `paper_full` alias).
    pub fn presets() -> Vec<ExperimentSpec> {
        PRESET_NAMES
            .iter()
            .chain(std::iter::once(&PAPER_FULL))
            .map(|name| Self::preset(name).expect("every shipped preset resolves"))
            .collect()
    }

    /// Checks the spec without running anything: all topology presets
    /// resolve, all baseline names are [`Baseline`]s, no required list is
    /// empty, and every topology has a source host for each session it
    /// plans, so no run comes up short.
    ///
    /// # Errors
    ///
    /// The first [`SpecError`] encountered.
    pub fn check(&self) -> Result<(), SpecError> {
        match &self.experiment {
            ExperimentKind::Joins(spec) => {
                spec.configs()?;
            }
            ExperimentKind::Churn(spec) => {
                spec.resolve()?;
            }
            ExperimentKind::Accuracy(spec) => {
                spec.resolve()?;
                spec.resolve_baselines()?;
            }
            ExperimentKind::Validation(spec) => {
                spec.configs()?;
            }
            ExperimentKind::Scale(spec) => {
                spec.configs()?;
            }
            ExperimentKind::FaultSweep(spec) => {
                spec.config()?;
                spec.points()?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_preset_resolves_and_checks() {
        for spec in ExperimentSpec::presets() {
            spec.check()
                .unwrap_or_else(|e| panic!("preset {} does not check: {e}", spec.name));
            assert!(ExperimentSpec::preset_summary(&spec.name).is_some());
        }
        assert!(ExperimentSpec::preset("nope").is_none());
        assert!(ExperimentSpec::preset_summary("nope").is_none());
    }

    #[test]
    fn exp1_preset_lowers_to_the_former_binary_defaults() {
        let spec = ExperimentSpec::preset("exp1").unwrap();
        let ExperimentKind::Joins(joins) = &spec.experiment else {
            panic!("exp1 is a joins sweep");
        };
        let configs = joins.configs().unwrap();
        // Topology-major, hosts = 2 * sessions (at least 20), seed = position + 1.
        let mut expected = Vec::new();
        let scenarios: Vec<fn(usize) -> NetworkScenario> = vec![
            NetworkScenario::small_lan,
            NetworkScenario::small_wan,
            NetworkScenario::medium_lan,
        ];
        for make_scenario in &scenarios {
            for sessions in [10, 30, 100, 300, 1_000] {
                expected.push(Experiment1Config {
                    scenario: make_scenario((2 * sessions).max(20)),
                    sessions,
                    join_window: Delay::from_millis(1),
                    limits: LimitPolicy::Unlimited,
                    seed: expected.len() as u64 + 1,
                });
            }
        }
        assert_eq!(configs, expected);
    }

    #[test]
    fn validate_preset_lowers_to_the_former_binary_points() {
        let spec = ExperimentSpec::preset("validate").unwrap();
        let ExperimentKind::Validation(validation) = &spec.experiment else {
            panic!("validate is a validation spec");
        };
        let configs = validation.configs().unwrap();
        assert_eq!(configs.len(), 4 * 3);
        // Four flavours × three runs: topology seeds 1.., workload seeds 100..
        let sessions = 60;
        let scenarios = [
            NetworkScenario::small_lan(2 * sessions),
            NetworkScenario::small_wan(2 * sessions),
            NetworkScenario::medium_lan(2 * sessions),
            NetworkScenario::medium_wan(2 * sessions),
        ];
        let mut i = 0;
        for scenario in &scenarios {
            for seed in 0..3u64 {
                assert_eq!(
                    configs[i],
                    Experiment1Config {
                        scenario: scenario.with_seed(seed + 1),
                        sessions,
                        join_window: Delay::from_millis(1),
                        limits: VALIDATION_LIMITS,
                        seed: seed + 100,
                    }
                );
                i += 1;
            }
        }
    }

    #[test]
    fn scale_specs_reject_empty_sweeps() {
        let spec = ScaleSpec {
            sessions: vec![],
            validate: true,
        };
        assert_eq!(spec.configs(), Err(SpecError::Empty("sessions")));
        let spec = ScaleSpec {
            sessions: vec![1_000, 2_000],
            validate: false,
        };
        let configs = spec.configs().unwrap();
        assert_eq!(configs.len(), 2);
        assert_eq!(configs[0], Experiment1Config::paper_scale(1_000));
    }

    #[test]
    fn fault_sweeps_validate_their_grid() {
        let base = match ExperimentSpec::preset("faults").unwrap().experiment {
            ExperimentKind::FaultSweep(spec) => spec,
            other => panic!("faults is a fault sweep, got {}", other.label()),
        };
        // The shipped grid: drop-major cross product.
        let points = base.points().unwrap();
        assert_eq!(points.len(), 6);
        assert_eq!(
            points[0],
            FaultPoint {
                drop: 0.0,
                duplicate: 0.0
            }
        );
        assert_eq!(
            points[5],
            FaultPoint {
                drop: 0.05,
                duplicate: 0.01
            }
        );
        let mut bad = base.clone();
        bad.drop = vec![];
        assert_eq!(bad.points(), Err(SpecError::Empty("drop")));
        let mut bad = base.clone();
        bad.duplicate = vec![1.5];
        assert_eq!(bad.points(), Err(SpecError::Invalid("duplicate")));
        let mut bad = base.clone();
        bad.reorder_window = 0;
        assert_eq!(bad.points(), Err(SpecError::Invalid("reorder_window")));
        let mut bad = base.clone();
        bad.horizon_ms = 0;
        assert_eq!(bad.points(), Err(SpecError::Invalid("horizon_ms")));
        let mut bad = base;
        bad.rto_us = 0;
        assert_eq!(bad.points(), Err(SpecError::Invalid("rto_us")));
    }

    #[test]
    fn absurd_values_are_typed_errors_at_lowering() {
        use ExperimentKind as K;
        // The smallest counts whose nanoseconds overflow a `u64`.
        const US: u64 = u64::MAX / 1_000 + 1;
        const MS: u64 = u64::MAX / 1_000_000 + 1;
        let kind = |name| ExperimentSpec::preset(name).unwrap().experiment;
        let (K::Joins(joins), K::Churn(churn), K::Accuracy(accuracy)) =
            (kind("exp1"), kind("exp2"), kind("exp3"))
        else {
            unreachable!("exp1..3 are joins, churn and accuracy specs")
        };
        let (K::Validation(validation), K::FaultSweep(faults)) = (kind("validate"), kind("faults"))
        else {
            unreachable!("validate and faults are validation and fault-sweep specs")
        };
        // A host count of 2^63 per session overflows at any session count.
        const HOSTS: usize = usize::MAX / 2 + 1;
        // One field set to an absurd value; the error must name that field.
        macro_rules! absurd {
            ($kind:ident($base:expr).topology.hosts = $value:expr) => {{
                let mut spec = $base.clone();
                spec.topology.hosts = $value;
                (K::$kind(spec), "hosts")
            }};
            ($kind:ident($base:expr).$field:ident = $value:expr) => {{
                let mut spec = $base.clone();
                spec.$field = $value;
                (K::$kind(spec), stringify!($field))
            }};
        }
        let scale = ScaleSpec {
            sessions: vec![50_000],
            validate: true,
        };
        let limits = |probability, min_bps, max_bps| LimitPolicy::RandomFinite {
            probability,
            min_bps,
            max_bps,
        };
        let cases = [
            absurd!(Joins(joins).sessions = vec![10, 0]),
            absurd!(Scale(scale).sessions = vec![0]),
            absurd!(Validation(validation).sessions = 0),
            absurd!(Joins(joins).hosts_per_session = HOSTS),
            absurd!(Validation(validation).hosts_per_session = HOSTS),
            absurd!(Accuracy(accuracy).sample_interval_us = 0),
            absurd!(Joins(joins).join_window_us = US),
            absurd!(Churn(churn).change_window_us = US),
            absurd!(Accuracy(accuracy).change_window_us = US),
            absurd!(Accuracy(accuracy).sample_interval_us = US),
            absurd!(Accuracy(accuracy).horizon_us = US),
            absurd!(FaultSweep(faults).join_window_us = US),
            absurd!(FaultSweep(faults).rto_us = US),
            absurd!(FaultSweep(faults).horizon_ms = MS),
            // Too few hosts for the sessions planned: each needs its own
            // source host, and a topology needs two hosts at all.
            absurd!(Joins(joins).hosts_per_session = 0),
            absurd!(Validation(validation).hosts_per_session = 0),
            absurd!(Churn(churn).topology.hosts = 20),
            absurd!(Churn(churn).topology.hosts = 1),
            absurd!(Accuracy(accuracy).topology.hosts = 20),
            absurd!(FaultSweep(faults).topology.hosts = 4),
            // Churn phases draw leaves and changes from one pool without
            // overlap; leaves come from the joined sessions.
            absurd!(Churn(churn).churn = 151),
            absurd!(Accuracy(accuracy).leaves = 251),
            // Leaves fall in the change window's second half.
            absurd!(Accuracy(accuracy).change_window_us = 0),
            // Limits no session could draw: a probability past 1, an empty
            // range, a non-positive or a non-finite bound.
            absurd!(Joins(joins).limits = limits(2.0, 1e6, 80e6)),
            absurd!(Joins(joins).limits = limits(0.25, 80e6, 1e6)),
            absurd!(Churn(churn).limits = limits(-0.5, 1e6, 80e6)),
            absurd!(Accuracy(accuracy).limits = limits(0.25, 0.0, 80e6)),
            absurd!(FaultSweep(faults).limits = limits(0.25, 1e6, f64::INFINITY)),
            absurd!(FaultSweep(faults).limits = limits(f64::NAN, 1e6, 80e6)),
        ];
        // Seeds wrap instead of overflowing: the last base seed still lowers.
        let mut wraps = joins.clone();
        wraps.base_seed = u64::MAX;
        assert_eq!(wraps.configs().unwrap()[1].seed, 0);
        let mut wraps = validation.clone();
        (wraps.topo_seed_base, wraps.workload_seed_base) = (u64::MAX, u64::MAX);
        assert_eq!(wraps.configs().unwrap()[1].seed, 0);
        for (experiment, field) in cases {
            let spec = ExperimentSpec {
                name: "absurd".to_string(),
                experiment,
                output: OutputSpec::default(),
            };
            assert_eq!(spec.check(), Err(SpecError::Invalid(field)), "{spec:?}");
        }
    }

    #[test]
    fn unknown_topologies_are_reported_by_name() {
        // `big/wan` and `small/fixed` are labels a scenario can print, but no
        // preset builds them.
        for name in ["moon/lan", "big/wan", "small/fixed"] {
            assert_eq!(
                ScenarioSpec::new(name, 10).resolve(),
                Err(SpecError::UnknownTopology(name.to_string()))
            );
        }
        assert_eq!(
            SpecError::UnknownTopology("moon/lan".to_string()).to_string(),
            "unknown topology preset `moon/lan`"
        );
        let mut spec = ExperimentSpec::preset("exp3").unwrap();
        let ExperimentKind::Accuracy(accuracy) = &mut spec.experiment else {
            panic!("exp3 is an accuracy spec");
        };
        accuracy.baselines = vec!["BFYZ".to_string(), "XCP".to_string()];
        assert_eq!(
            spec.check(),
            Err(SpecError::UnknownProtocol("XCP".to_string()))
        );
        assert_eq!(
            SpecError::UnknownProtocol("XCP".to_string()).to_string(),
            "unknown protocol `XCP`"
        );
    }
}
