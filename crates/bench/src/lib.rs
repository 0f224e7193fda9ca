//! # bneck-bench
//!
//! The experiment harness of the B-Neck reproduction. The [`runner`] module
//! contains the code that regenerates every figure of the paper's evaluation
//! section; the [`report`] module executes declarative
//! [`ExperimentSpec`](bneck_workload::spec::ExperimentSpec)s into typed,
//! serializable [`report::ExperimentReport`]s; and the [`cli`] module is the
//! one `bneck` binary that drives it all (`run`, `sweep`, `validate`,
//! `bench-presets`). Performance is measured outside the workspace, by the
//! benchmark under `benchmark/`.
//!
//! | Paper figure | Runner | Spec preset |
//! |---|---|---|
//! | Figure 5 (left, right) | [`runner::run_experiment1_point`] / [`runner::run_experiment1_sweep`] | `exp1`, `exp1_full` |
//! | Figure 6 | [`runner::run_experiment2`] / [`runner::run_experiment2_repeats`] | `exp2`, `exp2_full` |
//! | Figures 7 and 8 | [`runner::run_experiment3_registry`] | `exp3`, `exp3_full` |
//! | Correctness validation (Section IV) | [`runner::run_validation_sweep`] | `validate` |
//! | 300k-session scale points (Figure 5) | [`runner::run_scale_sweep`] | `paper_scale`, `paper_full` |
//!
//! Every runner drives its protocols through the unified
//! `ProtocolWorld`/`Simulation` traits (names resolved by the
//! [`runner::default_protocols`] registry), and the sweep-level entry points
//! fan independent points across worker threads with [`sweep::SweepRunner`]
//! (thread count from `BNECK_THREADS`, bit-identical reports at any count).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(feature = "serde")]
pub mod cli;
pub mod report;
pub mod runner;
pub mod sweep;

pub use report::{render_tables, run_spec, ExperimentReport, SpecOutcome};
pub use runner::{
    default_protocols, fault_point_configs, run_experiment1_point, run_experiment1_sweep,
    run_experiment2, run_experiment2_repeats, run_experiment3, run_experiment3_registry,
    run_experiment3_with, run_fault_point, run_fault_sweep, run_scale_point, run_scale_sweep,
    run_validation_sweep, validate_scenario, ChannelFaultSummary, Experiment1Point,
    Experiment2PhaseResult, Experiment2Run, Experiment3Result, Experiment3Sample, FaultOutcome,
    FaultPointConfig, FaultPointReport, FaultRunResult, ScaleReport, ScaleRun, ValidationPoint,
    ValidationReport,
};
pub use sweep::SweepRunner;
