//! Smoke tests of the experiment harness: every figure's spec kind runs on a
//! tiny instance through `run_spec` — the code path the `bneck run` presets
//! use — and produces structurally sensible output.

use bneck_bench::{
    default_protocols, run_spec, Experiment1Point, Experiment3Result, ExperimentReport,
    SweepRunner, ValidationReport,
};
use bneck_workload::registry::TopologyRegistry;
use bneck_workload::spec::{
    AccuracySpec, ChurnSpec, ExperimentKind, ExperimentSpec, JoinsSpec, OutputSpec, ScenarioSpec,
    ValidationSpec,
};
use bneck_workload::LimitPolicy;

fn run(experiment: ExperimentKind) -> ExperimentReport {
    let spec = ExperimentSpec {
        name: "smoke".to_string(),
        experiment,
        output: OutputSpec::default(),
    };
    let outcome = run_spec(
        &spec,
        &TopologyRegistry::builtin(),
        &default_protocols(),
        &SweepRunner::new(1),
    )
    .expect("the spec resolves");
    outcome.report
}

/// One Experiment 1 point: `sessions` joins within 1 ms (workload seed 1) on
/// `topology` with exactly `hosts` hosts.
fn figure5_point(
    topology: &str,
    topology_seed: u64,
    sessions: usize,
    hosts: usize,
) -> Experiment1Point {
    let report = run(ExperimentKind::Joins(JoinsSpec {
        topologies: vec![topology.to_string()],
        topology_seed,
        sessions: vec![sessions],
        hosts_per_session: 0,
        min_hosts: hosts,
        join_window_us: 1_000,
        limits: LimitPolicy::Unlimited,
        base_seed: 1,
    }));
    match report {
        ExperimentReport::Joins(mut points) => points.remove(0),
        other => panic!("joins spec produced {other:?}"),
    }
}

#[test]
fn figure5_runner_produces_monotone_traffic() {
    // More sessions => more control packets and (weakly) more time to
    // quiescence, the growth the paper shows in Figure 5.
    let mut previous_packets = 0u64;
    for &sessions in &[10usize, 40, 120] {
        let point = figure5_point("small/lan", 2, sessions, 2 * sessions + 20);
        assert!(point.validated, "{sessions} sessions: oracle mismatch");
        assert!(point.time_to_quiescence_us > 0);
        assert!(
            point.total_packets > previous_packets,
            "packets must grow with the session count"
        );
        previous_packets = point.total_packets;
    }
}

#[test]
fn figure5_wan_takes_longer_than_lan() {
    let sessions = 40;
    let lan = figure5_point("small/lan", 3, sessions, 2 * sessions);
    let wan = figure5_point("small/wan", 3, sessions, 2 * sessions);
    assert!(lan.validated && wan.validated);
    // WAN propagation delays (1-10 ms) dominate the LAN's 1 us links.
    assert!(
        wan.time_to_quiescence_us > 10 * lan.time_to_quiescence_us,
        "WAN ({} us) should be much slower than LAN ({} us)",
        wan.time_to_quiescence_us,
        lan.time_to_quiescence_us
    );
    // But the WAN run does not need more packets, matching the paper's
    // observation that LAN scenarios produce at least as much traffic.
    assert!(wan.total_packets <= 2 * lan.total_packets);
}

#[test]
fn figure6_runner_covers_all_phases_and_goes_silent() {
    let report = run(ExperimentKind::Churn(ChurnSpec {
        topology: ScenarioSpec::new("small/lan", 160),
        initial_sessions: 50,
        churn: 12,
        change_window_us: 1_000,
        limits: LimitPolicy::Unlimited,
        seed: 1,
        repeats: 1,
    }));
    let ExperimentReport::Churn(mut runs) = report else {
        panic!("churn spec produced {report:?}");
    };
    let run = runs.remove(0);
    let phases = &run.phases;
    assert_eq!(phases.len(), 5);
    assert_eq!(phases[0].name, "join");
    assert_eq!(phases[4].name, "mixed");
    for phase in phases {
        assert!(phase.validated, "phase {} failed validation", phase.name);
        assert!(phase.time_to_quiescence_us > 0);
    }
    // Traffic eventually ceases (quiescence) — the last bins of the series
    // correspond to the final convergence, after which nothing is sent.
    assert!(run.series.last_active_bin().is_some());
}

#[test]
fn figure7_and_8_runner_reproduces_the_headline_contrast() {
    let spec = AccuracySpec {
        topology: ScenarioSpec::new("small/lan", 120),
        joins: 40,
        leaves: 4,
        change_window_us: 5_000,
        sample_interval_us: 3_000,
        horizon_us: 60_000,
        limits: LimitPolicy::Unlimited,
        seed: 1,
        baselines: vec!["BFYZ".to_string()],
    };
    let churn_end_us = spec.change_window_us;
    let report = run(ExperimentKind::Accuracy(spec));
    let ExperimentReport::Accuracy(results) = report else {
        panic!("accuracy spec produced {report:?}");
    };
    let [bneck, bfyz]: &[Experiment3Result; 2] = results[..].try_into().expect("two protocols");

    // Figure 7: B-Neck's error reaches ~0 and never overshoots. The reference
    // allocation is the max-min of the *final* session set, so the assertion
    // only applies once the join/leave churn window has closed — while
    // sessions are still arriving, early joiners legitimately hold larger
    // shares of a less-loaded network.
    let bneck_final = bneck.samples.last().unwrap().source_error;
    assert!(bneck_final.mean.abs() < 0.5);
    assert!(bneck
        .samples
        .iter()
        .filter(|s| s.at_us > churn_end_us)
        .all(|s| s.source_error.p90 <= 0.5));

    // Figure 8: B-Neck's per-interval traffic drops to zero, BFYZ's does not.
    assert_eq!(bneck.samples.last().unwrap().packets_in_interval, 0);
    assert!(bfyz.samples.last().unwrap().packets_in_interval > 0);
    assert!(bneck.quiescent_at_us.is_some());
    assert!(bfyz.quiescent_at_us.is_none());
    assert!(bfyz.total_packets > bneck.total_packets);
}

#[test]
fn validation_runner_reports_clean_runs() {
    // Three hosts per session: the nearest a spec gets to 80 hosts for 30.
    let report = run(ExperimentKind::Validation(ValidationSpec {
        topologies: vec!["small/wan".to_string()],
        sessions: 30,
        hosts_per_session: 3,
        runs: 1,
        topo_seed_base: 7,
        workload_seed_base: 77,
    }));
    let ExperimentReport::Validation(reports) = report else {
        panic!("validation spec produced {report:?}");
    };
    let report: &ValidationReport = &reports[0];
    assert_eq!(report.mismatches, 0);
    assert_eq!(report.violations, 0);
    assert_eq!(report.sessions, 30);
    assert!(report.time_to_quiescence_us > 0);
}
