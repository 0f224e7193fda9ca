//! Scale tests: the distributed protocol at paper-scale session counts, and
//! robustness of convergence when sessions leave mid-flight.
//!
//! The 10k-session test drives the `paper_scale` preset end to end and is
//! `#[ignore]`d by default — run it in release:
//!
//! ```text
//! cargo test --release -p bneck scale -- --ignored
//! ```

use bneck::prelude::*;
use proptest::prelude::*;

/// Join → quiescence at 10,000 sessions on the Medium transit–stub network;
/// the distributed rates must match the centralized oracle exactly.
#[test]
#[ignore = "paper-scale run: execute in release with -- --ignored"]
fn paper_scale_10k_matches_oracle() {
    let config = Experiment1Config::paper_scale(10_000);
    let network = config.scenario.build();
    let schedule = config.schedule(&network);
    let mut sim = BneckSimulation::new(&network, BneckConfig::default());
    let stats = schedule.apply(&mut sim);
    assert_eq!(stats.joins, 10_000, "every planned session must join");
    let report = sim.run_to_quiescence();
    assert!(report.quiescent);
    assert!(sim.links_stable());

    let session_set = sim.session_set();
    assert_eq!(session_set.len(), 10_000);
    let oracle = CentralizedBneck::new(&network, &session_set).solve();
    if let Err(violations) = compare_allocations(
        &session_set,
        &sim.allocation(),
        &oracle,
        Tolerance::new(1e-6, 10.0),
    ) {
        panic!(
            "{} sessions disagree with the oracle at 10k scale, e.g. {}",
            violations.len(),
            violations[0]
        );
    }
    if let Err(violations) = verify_max_min(&network, &session_set, &sim.allocation()) {
        panic!(
            "allocation violates max-min fairness at 10k scale, e.g. {}",
            violations[0]
        );
    }
}

/// Join → quiescence at 250,000 sessions on the Medium transit–stub network,
/// planned once with a sequential planner and once with routing-tree
/// construction fanned across 4 worker threads. Both runs must be quiescent
/// and oracle-exact, and their serialized scale reports must be
/// byte-identical — parallel planning is a wall-clock optimization only.
#[test]
#[ignore = "paper-scale run: execute in release with -- --ignored"]
fn paper_scale_250k_parallel_planning_matches_sequential_report() {
    use bneck_bench::{default_protocols, run_spec, ExperimentReport, SweepRunner};
    use bneck_workload::registry::TopologyRegistry;
    use bneck_workload::spec::{ExperimentKind, ExperimentSpec, OutputSpec, ScaleSpec};

    let spec = ExperimentSpec {
        name: "paper_scale_250k".to_string(),
        experiment: ExperimentKind::Scale(ScaleSpec {
            sessions: vec![250_000],
            validate: true,
        }),
        output: OutputSpec::default(),
    };
    let run = || {
        let outcome = run_spec(
            &spec,
            &TopologyRegistry::builtin(),
            &default_protocols(),
            &SweepRunner::new(1),
        )
        .expect("the scale spec resolves");
        match outcome.report {
            ExperimentReport::Scale(mut reports) => reports.remove(0),
            other => panic!("scale spec produced {other:?}"),
        }
    };
    // The planner reads its worker-thread count from BNECK_THREADS. Thread
    // counts are invisible in every deterministic output by design, so
    // flipping the variable here cannot disturb concurrently running tests.
    std::env::set_var("BNECK_THREADS", "1");
    let sequential = run();
    std::env::set_var("BNECK_THREADS", "4");
    let parallel = run();
    std::env::remove_var("BNECK_THREADS");

    assert!(parallel.quiescent);
    assert_eq!(parallel.joins_applied, 250_000);
    assert_eq!(
        parallel.mismatches,
        Some(0),
        "distributed rates must match the oracle exactly at 250k"
    );
    assert!(parallel.ok());

    let sequential_bytes = serde_json::to_value(&sequential)
        .expect("infallible in the shim")
        .to_json_pretty();
    let parallel_bytes = serde_json::to_value(&parallel)
        .expect("infallible in the shim")
        .to_json_pretty();
    assert_eq!(
        sequential_bytes, parallel_bytes,
        "parallel planning changed the report bytes"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Sessions that leave *mid-convergence* — while the join storm is still
    /// being processed — must not wedge the protocol: the network reaches
    /// quiescence, every link satisfies Definition 2, and the survivors'
    /// rates are exactly the max-min fair rates of the surviving session set.
    #[test]
    fn leaves_mid_convergence_still_reach_the_fair_allocation(
        seed in 0u64..10_000,
        sessions in 8usize..40,
        leave_every in 2usize..5,
        horizon_us in 20u64..400,
    ) {
        let scenario = NetworkScenario::small_lan(3 * sessions).with_seed(seed % 97 + 1);
        let network = scenario.build();
        let mut planner = SessionPlanner::new(&network, seed);
        let requests = planner.plan(sessions, LimitPolicy::RandomFinite {
            probability: 0.3,
            min_bps: 1e6,
            max_bps: 80e6,
        });
        prop_assume!(requests.len() >= 4);

        let mut sim = BneckSimulation::new(&network, BneckConfig::default());
        for r in &requests {
            let at = SimTime::from_nanos((r.session.0 * 131) % 1_000_000);
            sim.join_with_path(at, r.session, r.path.clone(), r.limit).unwrap();
        }
        // Stop mid-convergence: the join window is 1 ms and small-LAN
        // convergence takes hundreds of µs, so many probe cycles are still
        // in flight here.
        let report = sim.run_until(SimTime::from_micros(horizon_us));
        prop_assume!(!report.quiescent);

        // Every `leave_every`-th session leaves right now, mid-flight.
        let mut left = 0usize;
        for r in requests.iter().step_by(leave_every) {
            let t = sim.now() + Delay::from_nanos((r.session.0 % 7) * 100);
            sim.leave(t, r.session).unwrap();
            left += 1;
        }
        prop_assert!(left > 0);

        let report = sim.run_to_quiescence();
        prop_assert!(report.quiescent);
        prop_assert!(sim.links_stable(), "Definition 2 must hold after churn");

        let survivors = sim.session_set();
        prop_assert_eq!(survivors.len(), requests.len() - left);
        let oracle = CentralizedBneck::new(&network, &survivors).solve();
        let got = sim.allocation();
        if let Err(violations) = compare_allocations(&survivors, &got, &oracle, Tolerance::new(1e-6, 10.0)) {
            return Err(TestCaseError::Fail(format!(
                "survivors disagree with the oracle after mid-convergence leaves: {} violations, e.g. {}",
                violations.len(),
                violations[0]
            )));
        }
        if let Err(violations) = verify_max_min(&network, &survivors, &got) {
            return Err(TestCaseError::Fail(format!(
                "max-min violated after mid-convergence leaves, e.g. {}",
                violations[0]
            )));
        }
    }
}
