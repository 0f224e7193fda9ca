//! End-to-end behaviour of the non-quiescent baselines, and the structural
//! contrasts with B-Neck that Experiment 3 of the paper highlights.

use bneck::prelude::*;

/// Shared workload: `n` sessions on a Small LAN network.
fn workload(n: usize, seed: u64) -> (bneck::net::Network, Vec<SessionRequest>) {
    let scenario = NetworkScenario::small_lan(3 * n).with_seed(seed);
    let network = scenario.build();
    let mut planner = SessionPlanner::new(&network, seed + 1);
    let requests = planner.plan(n, LimitPolicy::Unlimited);
    (network, requests)
}

fn oracle(network: &bneck::net::Network, requests: &[SessionRequest]) -> (SessionSet, Allocation) {
    let mut router = Router::new(network);
    let sessions: SessionSet = requests
        .iter()
        .filter_map(|r| {
            let path = router.shortest_path(r.source, r.destination)?;
            Some(Session::new(r.session, path, r.limit))
        })
        .collect();
    let allocation = CentralizedBneck::new(network, &sessions).solve();
    (sessions, allocation)
}

#[test]
fn bfyz_approaches_the_max_min_rates_but_never_stops() {
    let (network, requests) = workload(30, 1);
    let (_sessions, fair) = oracle(&network, &requests);
    let mut sim = BaselineSimulation::new(&network, Bfyz::default());
    for r in &requests {
        assert!(sim.join(SimTime::ZERO, r.session, r.source, r.destination, r.limit));
    }
    sim.run_until(SimTime::from_millis(80));
    let errors = rate_errors(&sim.current_rates(), &fair);
    let summary = Summary::of(&errors);
    assert!(
        summary.mean.abs() < 15.0,
        "BFYZ should be within ~15% of max-min on average, got {}",
        summary.mean
    );
    assert!(!sim.is_quiescent(), "BFYZ keeps probing forever");
    let packets_at_80ms = sim.stats().total();
    sim.run_until(SimTime::from_millis(120));
    assert!(
        sim.stats().total() > packets_at_80ms + 100,
        "BFYZ keeps injecting control packets after convergence"
    );
}

#[test]
fn cg_and_rcp_only_approximate_the_allocation() {
    // A deliberately contended workload: one session per host and a mix of
    // rate-limited sessions gives the allocation a multi-bottleneck structure,
    // where per-link equal shares (CG) and a per-link control law with no
    // per-session state (RCP) cannot reproduce the exact max-min rates.
    let scenario = NetworkScenario::small_lan(30).with_seed(2);
    let network = scenario.build();
    let mut planner = SessionPlanner::new(&network, 3);
    let requests = planner.plan(
        30,
        LimitPolicy::RandomFinite {
            probability: 0.4,
            min_bps: 1e6,
            max_bps: 40e6,
        },
    );
    let (_sessions, fair) = oracle(&network, &requests);

    let mut cg = BaselineSimulation::new(&network, CobbGouda::default());
    let mut rcp = BaselineSimulation::new(&network, Rcp::default());
    for r in &requests {
        cg.join(SimTime::ZERO, r.session, r.source, r.destination, r.limit);
        rcp.join(SimTime::ZERO, r.session, r.source, r.destination, r.limit);
    }
    cg.run_until(SimTime::from_millis(80));
    rcp.run_until(SimTime::from_millis(80));

    // Both assign non-trivial rates but are approximate (the paper observed
    // they did not converge to the exact rates in the allotted time).
    for (name, sim_rates) in [("CG", cg.current_rates()), ("RCP", rcp.current_rates())] {
        let assigned_total: f64 = sim_rates.iter().map(|(_, r)| r).sum();
        assert!(assigned_total > 0.0, "{name} assigns some bandwidth");
        let errors = rate_errors(&sim_rates, &fair);
        let worst = errors.iter().cloned().fold(0.0f64, |a, b| a.max(b.abs()));
        assert!(
            worst > 1.0,
            "{name} is expected to be approximate, not exact (worst error {worst}%)"
        );
    }
    assert!(!cg.is_quiescent());
    assert!(!rcp.is_quiescent());
}

#[test]
fn bneck_is_conservative_while_bfyz_overshoots_transiently() {
    let (network, requests) = workload(40, 3);
    let (_sessions, fair) = oracle(&network, &requests);

    let mut bneck = BneckSimulation::new(&network, BneckConfig::default());
    let mut bfyz = BaselineSimulation::new(&network, Bfyz::default());
    for r in &requests {
        bneck
            .join(SimTime::ZERO, r.session, r.source, r.destination, r.limit)
            .unwrap();
        bfyz.join(SimTime::ZERO, r.session, r.source, r.destination, r.limit);
    }

    let mut bfyz_ever_overshot = false;
    for ms in 1..=40u64 {
        let at = SimTime::from_millis(ms);
        bneck.run_until(at);
        bfyz.run_until(at);
        let bneck_errors = rate_errors(&bneck.current_rates(), &fair);
        // B-Neck transient rates never exceed the max-min rates.
        for e in &bneck_errors {
            assert!(
                *e <= 0.01,
                "B-Neck overshot the max-min rate by {e}% at {ms} ms"
            );
        }
        let bfyz_errors = rate_errors(&bfyz.current_rates(), &fair);
        if bfyz_errors.iter().any(|e| *e > 1.0) {
            bfyz_ever_overshot = true;
        }
    }
    assert!(
        bfyz_ever_overshot,
        "BFYZ is expected to overestimate some rate transiently"
    );
}

#[test]
fn bneck_traffic_stops_while_baseline_traffic_continues() {
    let (network, requests) = workload(25, 4);
    let mut bneck = BneckSimulation::new(&network, BneckConfig::default());
    let mut bfyz = BaselineSimulation::new(&network, Bfyz::default());
    for r in &requests {
        bneck
            .join(SimTime::ZERO, r.session, r.source, r.destination, r.limit)
            .unwrap();
        bfyz.join(SimTime::ZERO, r.session, r.source, r.destination, r.limit);
    }
    // Run both for 100 ms of simulated time.
    bneck.run_until(SimTime::from_millis(100));
    bfyz.run_until(SimTime::from_millis(100));

    // In the second half of the horizon, B-Neck sends nothing while the
    // baseline keeps a steady packet flow.
    let bneck_total_at_100 = bneck.packet_stats().total();
    let bfyz_total_at_100 = bfyz.stats().total();
    bneck.run_until(SimTime::from_millis(200));
    bfyz.run_until(SimTime::from_millis(200));
    assert_eq!(
        bneck.packet_stats().total(),
        bneck_total_at_100,
        "B-Neck is quiescent in steady state"
    );
    let bfyz_second_half = bfyz.stats().total() - bfyz_total_at_100;
    assert!(
        bfyz_second_half as f64 > 0.8 * bfyz_total_at_100 as f64,
        "the baseline's control traffic rate stays roughly constant"
    );
}

#[test]
fn baselines_track_departures() {
    let (network, requests) = workload(20, 5);
    let mut sim = BaselineSimulation::new(&network, Bfyz::default());
    for r in &requests {
        sim.join(SimTime::ZERO, r.session, r.source, r.destination, r.limit);
    }
    sim.run_until(SimTime::from_millis(40));
    let before = sim.current_rates();
    // Half the sessions leave; the survivors' rates must not decrease.
    for r in requests.iter().take(10) {
        sim.leave(SimTime::from_millis(41), r.session).unwrap();
    }
    sim.run_until(SimTime::from_millis(100));
    let after = sim.current_rates();
    assert_eq!(sim.active_count(), 10);
    let before_mean: f64 = requests
        .iter()
        .skip(10)
        .filter_map(|r| before.rate(r.session))
        .sum::<f64>()
        / 10.0;
    let after_mean: f64 = requests
        .iter()
        .skip(10)
        .filter_map(|r| after.rate(r.session))
        .sum::<f64>()
        / 10.0;
    assert!(after_mean + 1.0 >= before_mean);
}
