//! Determinism guard: a spec's report must be bit-identical whatever the
//! worker-thread count.
//!
//! Every experiment point owns its RNG (seeded from the point, whose seed in
//! turn derives from the point's index in the sweep), builds its own network
//! and simulation, and shares nothing mutable with other points — so running
//! a spec on 1 thread and on N threads must yield *equal* reports, not
//! merely statistically similar ones. These tests pin that property for
//! every spec kind through [`run_spec`], the one way to run an experiment,
//! at 1, 2, 4 and 16 threads.

use bneck_bench::{run_spec, ExperimentReport, SweepRunner};
use bneck_workload::spec::{
    AccuracySpec, ChurnSpec, ExperimentKind, ExperimentSpec, FaultSweepSpec, JoinsSpec, OutputSpec,
    ScenarioSpec, ValidationSpec,
};
use bneck_workload::LimitPolicy;

const THREADS: [usize; 4] = [1, 2, 4, 16];

fn spec(experiment: ExperimentKind) -> ExperimentSpec {
    ExperimentSpec {
        name: "determinism".to_string(),
        experiment,
        output: OutputSpec::default(),
    }
}

fn report_at(spec: &ExperimentSpec, threads: usize) -> ExperimentReport {
    run_spec(spec, &SweepRunner::new(threads))
        .expect("the spec resolves")
        .report
}

/// The spec's report at one thread, after checking every other thread count
/// reproduces it.
fn thread_invariant_report(spec: &ExperimentSpec) -> ExperimentReport {
    let serial = report_at(spec, 1);
    for threads in &THREADS[1..] {
        assert_eq!(
            serial,
            report_at(spec, *threads),
            "{threads}-thread run diverged from the serial one"
        );
    }
    assert_eq!(serial.failures(), 0, "{serial:?}");
    serial
}

#[test]
fn experiment1_sweep_is_bit_identical_at_any_thread_count() {
    let report = thread_invariant_report(&spec(ExperimentKind::Joins(JoinsSpec {
        topologies: vec!["small/lan".to_string()],
        topology_seed: 1,
        sessions: vec![20, 35, 50, 20],
        hosts_per_session: 2,
        min_hosts: 20,
        join_window_us: 1_000,
        limits: LimitPolicy::Unlimited,
        base_seed: 1,
    })));
    let ExperimentReport::Joins(points) = report else {
        panic!("joins spec produced {report:?}");
    };
    assert_eq!(points.len(), 4);
    assert!(points.iter().all(|p| p.validated));
}

#[test]
fn experiment2_repeats_are_bit_identical_at_any_thread_count() {
    let report = thread_invariant_report(&spec(ExperimentKind::Churn(ChurnSpec {
        topology: ScenarioSpec::new("small/lan", 140),
        initial_sessions: 40,
        churn: 10,
        change_window_us: 1_000,
        limits: LimitPolicy::Unlimited,
        seed: 1,
        repeats: 3,
    })));
    let ExperimentReport::Churn(runs) = report else {
        panic!("churn spec produced {report:?}");
    };
    // Distinct seeds really produce distinct workloads (the repeats are not
    // accidentally clones of one run).
    assert_eq!(runs.len(), 3);
    assert_eq!(runs[0].seed + 1, runs[1].seed);
    assert_ne!(runs[0].phases, runs[1].phases);
    assert!(runs.iter().all(|r| r.phases.iter().all(|p| p.validated)));
}

#[test]
fn experiment3_protocol_cells_are_bit_identical_at_any_thread_count() {
    let report = thread_invariant_report(&spec(ExperimentKind::Accuracy(AccuracySpec {
        topology: ScenarioSpec::new("small/lan", 100),
        joins: 25,
        leaves: 3,
        change_window_us: 5_000,
        sample_interval_us: 3_000,
        horizon_us: 30_000,
        limits: LimitPolicy::Unlimited,
        seed: 1,
        baselines: ["BFYZ", "CG", "RCP"].map(String::from).to_vec(),
    })));
    let ExperimentReport::Accuracy(results) = report else {
        panic!("accuracy spec produced {report:?}");
    };
    let protocols: Vec<&str> = results.iter().map(|r| r.protocol.as_str()).collect();
    assert_eq!(protocols, ["B-Neck", "BFYZ", "CG", "RCP"]);
}

#[test]
fn validation_sweep_is_bit_identical_at_any_thread_count() {
    let report = thread_invariant_report(&spec(ExperimentKind::Validation(ValidationSpec {
        topologies: vec!["small/lan".to_string(), "small/wan".to_string()],
        sessions: 20,
        hosts_per_session: 3,
        runs: 3,
        topo_seed_base: 1,
        workload_seed_base: 100,
    })));
    let ExperimentReport::Validation(reports) = report else {
        panic!("validation spec produced {report:?}");
    };
    assert_eq!(reports.len(), 6);
    assert!(reports
        .iter()
        .all(|r| r.mismatches == 0 && r.violations == 0));
}

#[test]
fn fault_sweep_is_bit_identical_at_any_thread_count_and_repeat() {
    let spec = spec(ExperimentKind::FaultSweep(FaultSweepSpec {
        topology: ScenarioSpec::new("small/lan", 20),
        sessions: 8,
        join_window_us: 1_000,
        limits: LimitPolicy::Unlimited,
        workload_seed: 1,
        fault_seed: 42,
        drop: vec![0.0, 0.02, 0.05],
        duplicate: vec![0.0, 0.01],
        reorder: 0.25,
        reorder_window: 4,
        with_recovery: true,
        rto_us: 500,
        horizon_ms: 200,
    }));
    let serial = thread_invariant_report(&spec);
    // Repeating the serial run reproduces it bit for bit: every fault roll
    // derives from the per-cell seed, never from ambient state.
    assert_eq!(
        serial,
        report_at(&spec, 1),
        "a repeated fault sweep diverged"
    );
    let ExperimentReport::FaultSweep(cells) = serial else {
        panic!("fault sweep produced {serial:?}");
    };
    assert_eq!(cells.len(), 6);
    assert!(cells.iter().all(|c| c.ok()));
}

/// Scale reports must come out byte-identical at 1, 2, 4 and 16 worker
/// threads, with same-link event batching active in the engine (it always is
/// in `run_until`). Session planning is sequential and reads no environment;
/// only the sweep runner's `from_env` reads `BNECK_THREADS`. The test sets
/// the variable and hands the runner the same count explicitly.
#[test]
fn scale_reports_are_byte_identical_at_any_planner_thread_count() {
    use bneck_workload::spec::ScaleSpec;

    let spec = spec(ExperimentKind::Scale(ScaleSpec {
        sessions: vec![300, 500],
        validate: true,
    }));
    let mut bytes = Vec::new();
    for threads in THREADS {
        std::env::set_var("BNECK_THREADS", threads.to_string());
        let report = report_at(&spec, threads);
        let ExperimentReport::Scale(points) = &report else {
            panic!("scale spec produced {report:?}");
        };
        assert!(points.iter().all(|p| p.ok()));
        bytes.push(
            serde_json::to_value(&report)
                .expect("infallible in the shim")
                .to_json_pretty(),
        );
    }
    std::env::remove_var("BNECK_THREADS");
    assert!(
        bytes.iter().all(|b| b == &bytes[0]),
        "scale report bytes differ across planner thread counts"
    );
}
