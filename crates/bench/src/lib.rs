//! # bneck-bench
//!
//! The experiment harness of the B-Neck reproduction. [`run_spec`] is the
//! one way to run an experiment: it executes a declarative
//! [`ExperimentSpec`](bneck_workload::spec::ExperimentSpec) into a typed,
//! serializable [`ExperimentReport`]. The [`runner`] module holds it and the
//! one join-burst run four of the six spec kinds share; the [`report`]
//! module holds the report types and their text tables; and the [`cli`]
//! module is the one `bneck` binary that drives it all (`run`, `sweep`,
//! `validate`, `bench-presets`). Performance is measured outside the
//! workspace, by the benchmark under `benchmark/`.
//!
//! | Paper figure | Spec preset | Spec kind |
//! |---|---|---|
//! | Figure 5 (left, right) | `exp1`, `exp1_full` | `joins` |
//! | Figure 6 | `exp2`, `exp2_full` | `churn` |
//! | Figures 7 and 8 | `exp3`, `exp3_full` | `accuracy` |
//! | Correctness validation (Section IV) | `validate` | `validation` |
//! | 300k-session scale points (Figure 5) | `paper_scale`, `paper_full`, `paper_1m` | `scale` |
//! | Robustness off the paper's map | `faults` | `faults` |
//!
//! Every run drives its protocols through the unified
//! `ProtocolWorld`/`Simulation` traits (names resolved by the
//! [`default_protocols`] registry) and fans independent points across
//! worker threads with [`SweepRunner`] (thread count from `BNECK_THREADS`,
//! bit-identical reports at any count).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(feature = "serde")]
pub mod cli;
pub mod report;
pub mod runner;
pub mod sweep;

pub use report::{
    render_tables, ChannelFaultSummary, Experiment1Point, Experiment2PhaseResult, Experiment2Run,
    Experiment3Result, Experiment3Sample, ExperimentReport, FaultOutcome, FaultPointReport,
    FaultRunResult, ScaleReport, SpecOutcome, ValidationReport,
};
pub use runner::{default_protocols, run_spec};
pub use sweep::SweepRunner;
