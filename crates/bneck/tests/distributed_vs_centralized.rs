//! Cross-crate validation: the distributed B-Neck protocol must compute
//! exactly the rates of the centralized oracle (Water-Filling / Centralized
//! B-Neck) on every scenario flavour, which is how the paper validates its
//! implementation in Section IV.

use bneck::prelude::*;
use proptest::prelude::*;

fn run_and_check(scenario: NetworkScenario, sessions: usize, seed: u64) {
    let network = scenario.build();
    let mut planner = SessionPlanner::new(&network, seed);
    let requests = planner.plan(
        sessions,
        LimitPolicy::RandomFinite {
            probability: 0.3,
            min_bps: 1e6,
            max_bps: 80e6,
        },
    );
    let mut sim = BneckSimulation::new(&network, BneckConfig::default());
    for r in &requests {
        let at = SimTime::from_nanos((r.session.0 * 13) % 1_000_000);
        sim.join(at, r.session, r.source, r.destination, r.limit)
            .expect("planned sessions are valid");
    }
    let report = sim.run_to_quiescence();
    assert!(report.quiescent);

    let session_set = sim.session_set();
    assert_eq!(session_set.len(), requests.len());

    // 1. Same rates as the centralized oracle.
    let oracle = CentralizedBneck::new(&network, &session_set).solve();
    if let Err(violations) = compare_allocations(
        &session_set,
        &sim.allocation(),
        &oracle,
        Tolerance::new(1e-6, 10.0),
    ) {
        panic!(
            "{}: {} sessions disagree with the oracle, e.g. {}",
            scenario.label(),
            violations.len(),
            violations[0]
        );
    }

    // 2. Same rates as the independent Water-Filling implementation.
    let waterfill = WaterFilling::new(&network, &session_set).solve();
    assert!(compare_allocations(
        &session_set,
        &sim.allocation(),
        &waterfill,
        Tolerance::new(1e-6, 10.0)
    )
    .is_ok());

    // 3. The distributed allocation satisfies the max-min conditions directly.
    if let Err(violations) = verify_max_min(&network, &session_set, &sim.allocation()) {
        panic!(
            "{}: allocation violates max-min fairness, e.g. {}",
            scenario.label(),
            violations[0]
        );
    }
}

#[test]
fn small_lan_matches_oracle() {
    run_and_check(NetworkScenario::small_lan(120).with_seed(1), 50, 11);
}

#[test]
fn small_wan_matches_oracle() {
    run_and_check(NetworkScenario::small_wan(120).with_seed(2), 50, 12);
}

#[test]
fn medium_lan_matches_oracle() {
    run_and_check(NetworkScenario::medium_lan(240).with_seed(3), 100, 13);
}

#[test]
fn medium_wan_matches_oracle() {
    run_and_check(NetworkScenario::medium_wan(160).with_seed(4), 60, 14);
}

#[test]
fn repeated_seeds_small_lan() {
    for seed in 20..25u64 {
        run_and_check(NetworkScenario::small_lan(100).with_seed(seed), 40, seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property: for any topology seed, workload seed and session count, the
    /// distributed protocol converges to the oracle's allocation.
    #[test]
    fn randomized_scenarios_match_oracle(
        topo_seed in 1u64..1_000,
        workload_seed in 1u64..1_000,
        sessions in 5usize..40,
        wan in proptest::bool::ANY,
    ) {
        let scenario = if wan {
            NetworkScenario::small_wan(2 * sessions + 10).with_seed(topo_seed)
        } else {
            NetworkScenario::small_lan(2 * sessions + 10).with_seed(topo_seed)
        };
        run_and_check(scenario, sessions, workload_seed);
    }
}
