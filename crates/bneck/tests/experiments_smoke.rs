//! Smoke tests of the experiment harness: every figure's runner executes on a
//! tiny configuration and produces structurally sensible output (these are the
//! same code paths the `bneck run` presets use).

use bneck_bench::{run_experiment1_point, run_experiment2, run_experiment3, validate_scenario};
use bneck_workload::{Experiment1Config, Experiment2Config, Experiment3Config, NetworkScenario};

#[test]
fn figure5_runner_produces_monotone_traffic() {
    // More sessions => more control packets and (weakly) more time to
    // quiescence, the growth the paper shows in Figure 5.
    let mut previous_packets = 0u64;
    for &sessions in &[10usize, 40, 120] {
        let config = Experiment1Config::scaled(
            NetworkScenario::small_lan(2 * sessions + 20).with_seed(2),
            sessions,
        );
        let point = run_experiment1_point(&config);
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
    let lan = run_experiment1_point(&Experiment1Config::scaled(
        NetworkScenario::small_lan(2 * sessions).with_seed(3),
        sessions,
    ));
    let wan = run_experiment1_point(&Experiment1Config::scaled(
        NetworkScenario::small_wan(2 * sessions).with_seed(3),
        sessions,
    ));
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
    let config = Experiment2Config {
        scenario: NetworkScenario::small_lan(160),
        initial_sessions: 50,
        churn: 12,
        ..Experiment2Config::scaled()
    };
    let (phases, series) = run_experiment2(&config);
    assert_eq!(phases.len(), 5);
    assert_eq!(phases[0].name, "join");
    assert_eq!(phases[4].name, "mixed");
    for phase in &phases {
        assert!(phase.validated, "phase {} failed validation", phase.name);
        assert!(phase.time_to_quiescence_us > 0);
    }
    // Traffic eventually ceases (quiescence) — the last bins of the series
    // correspond to the final convergence, after which nothing is sent.
    assert!(series.last_active_bin().is_some());
}

#[test]
fn figure7_and_8_runner_reproduces_the_headline_contrast() {
    let config = Experiment3Config {
        scenario: NetworkScenario::small_lan(120),
        joins: 40,
        leaves: 4,
        horizon: bneck_net::Delay::from_millis(60),
        ..Experiment3Config::scaled()
    };
    let results = run_experiment3(&config, &["BFYZ"]);
    let bneck = &results[0];
    let bfyz = &results[1];

    // Figure 7: B-Neck's error reaches ~0 and never overshoots. The reference
    // allocation is the max-min of the *final* session set, so the assertion
    // only applies once the join/leave churn window has closed — while
    // sessions are still arriving, early joiners legitimately hold larger
    // shares of a less-loaded network.
    let bneck_final = bneck.samples.last().unwrap().source_error;
    assert!(bneck_final.mean.abs() < 0.5);
    let churn_end_us = config.change_window.as_micros();
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
    let report = validate_scenario(&NetworkScenario::small_wan(80).with_seed(7), 30, 77);
    assert_eq!(report.mismatches, 0);
    assert_eq!(report.violations, 0);
    assert_eq!(report.sessions, 30);
    assert!(report.time_to_quiescence_us > 0);
}
