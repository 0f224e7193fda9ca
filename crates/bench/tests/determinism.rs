//! Determinism guard: the parallel sweep driver must produce bit-identical
//! reports regardless of its thread count.
//!
//! Every experiment point owns its RNG (seeded from the point, whose seed in
//! turn derives from the point's index in the sweep), builds its own network
//! and simulation, and shares nothing mutable with other points — so running
//! a sweep on 1 thread and on N threads must yield *equal* results, not
//! merely statistically similar ones. These tests pin that property for all
//! four sweep-level runners.

use bneck_bench::{
    fault_point_configs, run_experiment1_sweep, run_experiment2_repeats, run_experiment3_with,
    run_fault_sweep, run_validation_sweep, SweepRunner, ValidationPoint,
};
use bneck_net::Delay;
use bneck_workload::{Experiment1Config, Experiment2Config, Experiment3Config, NetworkScenario};

#[test]
fn experiment1_sweep_is_bit_identical_at_any_thread_count() {
    let configs: Vec<Experiment1Config> = [(20usize, 1u64), (35, 2), (50, 3), (20, 4)]
        .iter()
        .map(|&(sessions, seed)| {
            let mut config =
                Experiment1Config::scaled(NetworkScenario::small_lan(2 * sessions + 10), sessions);
            config.seed = seed;
            config
        })
        .collect();
    let serial = run_experiment1_sweep(configs.clone(), &SweepRunner::new(1));
    for threads in [2, 4, 16] {
        let parallel = run_experiment1_sweep(configs.clone(), &SweepRunner::new(threads));
        assert_eq!(
            serial, parallel,
            "{threads}-thread sweep diverged from the serial one"
        );
    }
    assert!(serial.iter().all(|p| p.validated));
}

#[test]
fn experiment2_repeats_are_bit_identical_at_any_thread_count() {
    let base = Experiment2Config {
        scenario: NetworkScenario::small_lan(140),
        initial_sessions: 40,
        churn: 10,
        ..Experiment2Config::scaled()
    };
    let serial = run_experiment2_repeats(&base, 3, &SweepRunner::new(1));
    let parallel = run_experiment2_repeats(&base, 3, &SweepRunner::new(4));
    assert_eq!(serial, parallel);
    // Distinct seeds really produce distinct workloads (the repeats are not
    // accidentally clones of one run).
    assert_eq!(serial[0].seed + 1, serial[1].seed);
    assert!(serial.iter().all(|r| r.phases.iter().all(|p| p.validated)));
}

#[test]
fn experiment3_protocol_cells_are_bit_identical_at_any_thread_count() {
    let config = Experiment3Config {
        scenario: NetworkScenario::small_lan(100),
        joins: 25,
        leaves: 3,
        horizon: Delay::from_millis(30),
        ..Experiment3Config::scaled()
    };
    let serial = run_experiment3_with(&config, &["BFYZ", "CG", "RCP"], &SweepRunner::new(1));
    let parallel = run_experiment3_with(&config, &["BFYZ", "CG", "RCP"], &SweepRunner::new(4));
    assert_eq!(serial, parallel);
    assert_eq!(serial[0].protocol, "B-Neck");
}

#[test]
fn validation_sweep_is_bit_identical_at_any_thread_count() {
    let mut points = Vec::new();
    for (i, scenario) in [
        NetworkScenario::small_lan(60),
        NetworkScenario::small_wan(60),
    ]
    .into_iter()
    .enumerate()
    {
        for seed in 0..3u64 {
            points.push(ValidationPoint {
                scenario: scenario.with_seed(seed + 1),
                sessions: 20,
                seed: 100 + i as u64 * 10 + seed,
            });
        }
    }
    let serial = run_validation_sweep(points.clone(), &SweepRunner::new(1));
    let parallel = run_validation_sweep(points, &SweepRunner::new(3));
    assert_eq!(serial, parallel);
    assert!(serial
        .iter()
        .all(|r| r.mismatches == 0 && r.violations == 0));
}

#[test]
fn fault_sweep_is_bit_identical_at_any_thread_count_and_repeat() {
    let spec = bneck_workload::FaultSweepSpec {
        topology: bneck_workload::ScenarioSpec::new("small/lan", 20),
        sessions: 8,
        join_window_us: 1_000,
        limits: bneck_workload::LimitPolicy::Unlimited,
        workload_seed: 1,
        fault_seed: 42,
        drop: vec![0.0, 0.02, 0.05],
        duplicate: vec![0.0, 0.01],
        reorder: 0.25,
        reorder_window: 4,
        with_recovery: true,
        rto_us: 500,
        horizon_ms: 200,
    };
    let configs = fault_point_configs(&spec, NetworkScenario::small_lan(20)).unwrap();
    let serial = run_fault_sweep(configs.clone(), &SweepRunner::new(1));
    for threads in [2, 4, 16] {
        let parallel = run_fault_sweep(configs.clone(), &SweepRunner::new(threads));
        assert_eq!(
            serial, parallel,
            "{threads}-thread fault sweep diverged from the serial one"
        );
    }
    // Repeating the serial run reproduces it bit for bit: every fault roll
    // derives from the per-cell seed, never from ambient state.
    let again = run_fault_sweep(configs, &SweepRunner::new(1));
    assert_eq!(serial, again, "a repeated fault sweep diverged");
    assert!(serial.iter().all(|r| r.ok()));
}

// ---------------------------------------------------------------------------
// Spec-path equivalence: `bneck run` on the preset specs must produce reports
// bit-identical to the direct PR 4 runner entry points (the specs are a
// declarative frontend over the same engine, not a parallel implementation).
// ---------------------------------------------------------------------------

#[cfg(feature = "serde")]
mod spec_equivalence {
    use super::*;
    use bneck_bench::{default_protocols, run_spec, ExperimentReport};
    use bneck_workload::registry::TopologyRegistry;
    use bneck_workload::spec::{ExperimentKind, ExperimentSpec};

    /// The exp1 preset runs the same simulations as the former `experiment1`
    /// binary's construction loop fed to `run_experiment1_sweep`. The session
    /// sweep is trimmed to keep the test fast; the trim goes through the same
    /// `--sessions` override path the CLI exposes.
    #[test]
    fn exp1_preset_report_matches_the_direct_runner() {
        let mut spec = ExperimentSpec::preset("exp1").unwrap();
        let ExperimentKind::Joins(joins) = &mut spec.experiment else {
            panic!("exp1 is a joins sweep");
        };
        joins.sessions = vec![10, 25];

        // What the former binary built for this sweep: seed = position + 1,
        // hosts = (2 * sessions).max(20), over the same three scenarios.
        let mut configs = Vec::new();
        let scenarios: Vec<fn(usize) -> NetworkScenario> = vec![
            NetworkScenario::small_lan,
            NetworkScenario::small_wan,
            NetworkScenario::medium_lan,
        ];
        for make_scenario in &scenarios {
            for &sessions in &[10usize, 25] {
                let hosts = (2 * sessions).max(20);
                let mut config = Experiment1Config::scaled(make_scenario(hosts), sessions);
                config.seed = configs.len() as u64 + 1;
                configs.push(config);
            }
        }
        let direct = run_experiment1_sweep(configs, &SweepRunner::new(1));

        let topologies = TopologyRegistry::builtin();
        let protocols = default_protocols();
        for threads in [1, 4] {
            let outcome =
                run_spec(&spec, &topologies, &protocols, &SweepRunner::new(threads)).unwrap();
            let ExperimentReport::Joins(points) = outcome.report else {
                panic!("joins spec produces a joins report");
            };
            assert_eq!(
                points, direct,
                "spec path diverged from the direct runner at {threads} thread(s)"
            );
        }
    }

    /// Scale reports must come out byte-identical with session planning at
    /// 1, 2 and 4 worker threads — through the direct sweep runner and the
    /// spec path alike, with same-link event batching active in the engine
    /// (it always is in `run_until`). The planner reads `BNECK_THREADS`, the
    /// sweep runner takes its count explicitly; both are varied together.
    #[test]
    fn scale_reports_are_byte_identical_at_planner_threads_1_2_4() {
        let mut spec = ExperimentSpec::preset("paper_scale").unwrap();
        let ExperimentKind::Scale(scale) = &mut spec.experiment else {
            panic!("paper_scale is a scale spec");
        };
        scale.sessions = vec![300, 500];

        let topologies = TopologyRegistry::builtin();
        let protocols = default_protocols();
        let mut sweep_bytes = Vec::new();
        let mut spec_bytes = Vec::new();
        for threads in [1usize, 2, 4] {
            std::env::set_var("BNECK_THREADS", threads.to_string());
            let configs = vec![
                Experiment1Config::paper_scale(300),
                Experiment1Config::paper_scale(500),
            ];
            let runs = bneck_bench::run_scale_sweep(configs, true, &SweepRunner::new(threads));
            assert!(runs.iter().all(|r| r.report.ok()));
            let reports: Vec<_> = runs.into_iter().map(|r| r.report).collect();
            sweep_bytes.push(
                serde_json::to_value(&reports)
                    .expect("infallible in the shim")
                    .to_json_pretty(),
            );

            let outcome =
                run_spec(&spec, &topologies, &protocols, &SweepRunner::new(threads)).unwrap();
            let ExperimentReport::Scale(spec_reports) = &outcome.report else {
                panic!("scale spec produces a scale report");
            };
            assert_eq!(spec_reports, &reports, "spec path diverged at {threads}");
            spec_bytes.push(
                serde_json::to_value(&outcome.report)
                    .expect("infallible in the shim")
                    .to_json_pretty(),
            );
        }
        std::env::remove_var("BNECK_THREADS");
        assert!(
            sweep_bytes.iter().all(|b| b == &sweep_bytes[0]),
            "sweep-path report bytes differ across planner thread counts"
        );
        assert!(
            spec_bytes.iter().all(|b| b == &spec_bytes[0]),
            "spec-path report bytes differ across planner thread counts"
        );
    }

    /// The validate preset runs the same points as the former `validate`
    /// binary (sessions trimmed via the spec, as `--sessions` would).
    #[test]
    fn validate_preset_report_matches_the_direct_runner() {
        let mut spec = ExperimentSpec::preset("validate").unwrap();
        let ExperimentKind::Validation(validation) = &mut spec.experiment else {
            panic!("validate is a validation spec");
        };
        validation.sessions = 25;
        validation.runs = 2;

        // What the former binary built: scenario seeds 1..=runs, workload
        // seeds 100.., hosts = 2 * sessions, over four scenario flavours.
        let sessions = 25;
        let mut points = Vec::new();
        for scenario in [
            NetworkScenario::small_lan(2 * sessions),
            NetworkScenario::small_wan(2 * sessions),
            NetworkScenario::medium_lan(2 * sessions),
            NetworkScenario::medium_wan(2 * sessions),
        ] {
            for seed in 0..2u64 {
                points.push(ValidationPoint {
                    scenario: scenario.with_seed(seed + 1),
                    sessions,
                    seed: seed + 100,
                });
            }
        }
        let direct = run_validation_sweep(points, &SweepRunner::new(1));

        let topologies = TopologyRegistry::builtin();
        let protocols = default_protocols();
        for threads in [1, 4] {
            let outcome =
                run_spec(&spec, &topologies, &protocols, &SweepRunner::new(threads)).unwrap();
            let ExperimentReport::Validation(reports) = outcome.report else {
                panic!("validation spec produces a validation report");
            };
            assert_eq!(
                reports, direct,
                "spec path diverged from the direct runner at {threads} thread(s)"
            );
        }
    }
}
