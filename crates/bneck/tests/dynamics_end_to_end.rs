//! End-to-end dynamics: the five-phase churn structure of Experiment 2 on the
//! real protocol stack, validated against the oracle after every phase.

use bneck::prelude::*;

#[test]
fn five_phase_churn_converges_and_validates_each_phase() {
    let scenario = NetworkScenario::small_lan(400).with_seed(5);
    let network = scenario.build();
    let mut planner = DynamicsPlanner::new(&network, 9);
    let mut sim = BneckSimulation::new(&network, BneckConfig::default());
    let recorder = SeriesRecorder::new(Delay::from_millis(5));
    sim.subscribe(recorder.clone());

    let phases = [
        ("join", 120usize, 0usize, 0usize),
        ("leave", 0, 25, 0),
        ("change", 0, 0, 25),
        ("join-2", 25, 0, 0),
        ("mixed", 25, 25, 25),
    ];
    let limits = LimitPolicy::RandomFinite {
        probability: 0.25,
        min_bps: 2e6,
        max_bps: 60e6,
    };

    let mut previous_quiescence = SimTime::ZERO;
    for (name, joins, leaves, changes) in phases {
        let start = if sim.now() == SimTime::ZERO {
            SimTime::ZERO
        } else {
            sim.now() + Delay::from_millis(1)
        };
        let schedule = planner.phase(start, Delay::from_millis(1), joins, leaves, changes, limits);
        let applied = schedule.apply(&mut sim);
        assert_eq!(
            applied.rejected, 0,
            "phase {name}: the planner only produces valid events"
        );
        let report = sim.run_to_quiescence();
        assert!(report.quiescent, "phase {name} must reach quiescence");
        assert!(report.quiescent_at >= previous_quiescence);
        previous_quiescence = report.quiescent_at;

        let sessions = sim.session_set();
        assert_eq!(sessions.len(), planner.active_count());
        let oracle = CentralizedBneck::new(&network, &sessions).solve();
        if let Err(violations) = compare_allocations(
            &sessions,
            &sim.allocation(),
            &oracle,
            Tolerance::new(1e-6, 10.0),
        ) {
            panic!(
                "phase {name}: {} sessions disagree with the oracle, e.g. {}",
                violations.len(),
                violations[0]
            );
        }
    }

    // The series covers the whole run and ends when the last phase ends:
    // after the final quiescence instant there is no packet at all.
    let series = recorder.series();
    assert!(series.total() > 0);
    let last_active = series.last_active_bin().unwrap();
    let quiescent_bin =
        (previous_quiescence.as_nanos() / Delay::from_millis(5).as_nanos()) as usize;
    assert!(last_active <= quiescent_bin);
}

#[test]
fn leave_heavy_churn_frees_capacity_for_survivors() {
    let scenario = NetworkScenario::small_lan(200).with_seed(6);
    let network = scenario.build();
    let mut planner = DynamicsPlanner::new(&network, 3);
    let mut sim = BneckSimulation::new(&network, BneckConfig::default());

    let join_phase = planner.phase(
        SimTime::ZERO,
        Delay::from_millis(1),
        60,
        0,
        0,
        LimitPolicy::Unlimited,
    );
    join_phase.apply(&mut sim);
    sim.run_to_quiescence();
    let before: f64 = sim.allocation().iter().map(|(_, r)| r).sum();

    // Half of the sessions leave.
    let leave_phase = planner.phase(
        sim.now() + Delay::from_millis(1),
        Delay::from_millis(1),
        0,
        30,
        0,
        LimitPolicy::Unlimited,
    );
    leave_phase.apply(&mut sim);
    sim.run_to_quiescence();

    let survivors = sim.session_set();
    assert_eq!(survivors.len(), 30);
    let after_mean: f64 =
        sim.allocation().iter().map(|(_, r)| r).sum::<f64>() / survivors.len() as f64;
    let before_mean = before / 60.0;
    assert!(
        after_mean >= before_mean,
        "survivors' average rate must not shrink after departures"
    );
    let oracle = CentralizedBneck::new(&network, &survivors).solve();
    assert!(compare_allocations(
        &survivors,
        &sim.allocation(),
        &oracle,
        Tolerance::new(1e-6, 10.0)
    )
    .is_ok());
}

#[test]
fn rate_changes_propagate_to_unrelated_sessions_through_shared_links() {
    // Two sessions share a bottleneck; a third is elsewhere. Capping one of
    // the sharing sessions must raise the other one and leave the third
    // untouched.
    let network = synthetic::dumbbell(
        3,
        Capacity::from_mbps(100.0),
        Capacity::from_mbps(80.0),
        Delay::from_micros(1),
    );
    let hosts: Vec<_> = network.hosts().map(|h| h.id()).collect();
    let mut sim = BneckSimulation::new(&network, BneckConfig::default());
    for i in 0..3u64 {
        sim.join(
            SimTime::ZERO,
            SessionId(i),
            hosts[2 * i as usize],
            hosts[2 * i as usize + 1],
            RateLimit::unlimited(),
        )
        .unwrap();
    }
    sim.run_to_quiescence();
    for i in 0..3u64 {
        assert!((sim.allocation().rate(SessionId(i)).unwrap() - 80e6 / 3.0).abs() < 1.0);
    }

    sim.change(
        sim.now() + Delay::from_millis(1),
        SessionId(0),
        RateLimit::finite(8e6),
    )
    .unwrap();
    sim.run_to_quiescence();
    let alloc = sim.allocation();
    assert!((alloc.rate(SessionId(0)).unwrap() - 8e6).abs() < 1.0);
    assert!((alloc.rate(SessionId(1)).unwrap() - 36e6).abs() < 1.0);
    assert!((alloc.rate(SessionId(2)).unwrap() - 36e6).abs() < 1.0);
}
