//! Randomized end-to-end validation of the distributed protocol against the
//! centralized oracle, on paper-style transit–stub topologies.

use bneck_core::prelude::*;
use bneck_maxmin::prelude::*;
use bneck_net::prelude::*;
use bneck_sim::SimTime;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Builds a Small transit–stub network with `hosts` hosts.
fn small_network(hosts: usize, delay: DelayModel, seed: u64) -> Network {
    bneck_net::topology::transit_stub::paper_network(NetworkSize::Small, hosts, delay, seed)
}

/// Joins `n` sessions between distinct random hosts within the first
/// millisecond, mirroring Experiment 1 of the paper.
fn join_random_sessions(
    sim: &mut BneckSimulation<'_>,
    rng: &mut SmallRng,
    n: usize,
    with_limits: bool,
) {
    let hosts: Vec<_> = sim.network().hosts().map(|h| h.id()).collect();
    let mut sources = hosts.clone();
    sources.shuffle(rng);
    for (i, chunk) in sources.chunks(2).take(n).enumerate() {
        if chunk.len() < 2 {
            break;
        }
        let limit = if with_limits && rng.gen_bool(0.3) {
            RateLimit::finite(rng.gen_range(1e6..80e6))
        } else {
            RateLimit::unlimited()
        };
        let at = SimTime::from_nanos(rng.gen_range(0..1_000_000));
        let _ = sim.join(at, SessionId(i as u64), chunk[0], chunk[1], limit);
    }
}

fn assert_matches_oracle(sim: &BneckSimulation<'_>, context: &str) {
    let sessions = sim.session_set();
    let expected = CentralizedBneck::new(sim.network(), &sessions).solve();
    let got = sim.allocation();
    let tol = Tolerance::new(1e-6, 10.0);
    if let Err(violations) = compare_allocations(&sessions, &got, &expected, tol) {
        panic!(
            "[{context}] distributed allocation disagrees with the oracle ({} violations), e.g. {}",
            violations.len(),
            violations[0]
        );
    }
    // The distributed result must itself satisfy the max-min conditions.
    if let Err(violations) = verify_max_min(sim.network(), &sessions, &got) {
        panic!(
            "[{context}] distributed allocation is not max-min fair ({} violations), e.g. {}",
            violations.len(),
            violations[0]
        );
    }
}

#[test]
fn simultaneous_joins_on_small_lan_match_the_oracle() {
    for seed in [1u64, 2, 3] {
        let net = small_network(80, DelayModel::Lan, seed);
        let mut rng = SmallRng::seed_from_u64(seed * 101);
        let mut sim = BneckSimulation::new(&net, BneckConfig::default());
        join_random_sessions(&mut sim, &mut rng, 40, false);
        let report = sim.run_to_quiescence();
        assert!(report.quiescent);
        assert!(sim.links_stable(), "seed {seed}: links not stable");
        assert_matches_oracle(&sim, &format!("lan seed {seed}"));
    }
}

#[test]
fn simultaneous_joins_on_small_wan_match_the_oracle() {
    for seed in [4u64, 5] {
        let net = small_network(60, DelayModel::Wan, seed);
        let mut rng = SmallRng::seed_from_u64(seed * 77);
        let mut sim = BneckSimulation::new(&net, BneckConfig::default());
        join_random_sessions(&mut sim, &mut rng, 30, true);
        let report = sim.run_to_quiescence();
        assert!(report.quiescent);
        assert_matches_oracle(&sim, &format!("wan seed {seed}"));
    }
}

#[test]
fn joins_with_rate_limits_match_the_oracle() {
    let net = small_network(100, DelayModel::Lan, 11);
    let mut rng = SmallRng::seed_from_u64(2024);
    let mut sim = BneckSimulation::new(&net, BneckConfig::default());
    join_random_sessions(&mut sim, &mut rng, 50, true);
    sim.run_to_quiescence();
    assert_matches_oracle(&sim, "limits");
}

#[test]
fn departures_and_rate_changes_reconverge_to_the_oracle() {
    let net = small_network(80, DelayModel::Lan, 21);
    let mut rng = SmallRng::seed_from_u64(4242);
    let mut sim = BneckSimulation::new(&net, BneckConfig::default());
    join_random_sessions(&mut sim, &mut rng, 40, true);
    sim.run_to_quiescence();
    assert_matches_oracle(&sim, "phase 1: joins");

    // Phase 2: a quarter of the sessions leave.
    let active: Vec<_> = sim.active_sessions().collect();
    let base = sim.now() + Delay::from_millis(1);
    for s in active.iter().take(active.len() / 4) {
        let at = base + Delay::from_nanos(rng.gen_range(0..1_000_000));
        sim.leave(at, *s).unwrap();
    }
    let report = sim.run_to_quiescence();
    assert!(report.quiescent);
    assert_matches_oracle(&sim, "phase 2: leaves");

    // Phase 3: a quarter of the remaining sessions change their maximum rate.
    let active: Vec<_> = sim.active_sessions().collect();
    let base = sim.now() + Delay::from_millis(1);
    for s in active.iter().take(active.len() / 4) {
        let at = base + Delay::from_nanos(rng.gen_range(0..1_000_000));
        let limit = if rng.gen_bool(0.5) {
            RateLimit::finite(rng.gen_range(1e6..50e6))
        } else {
            RateLimit::unlimited()
        };
        sim.change(at, *s, limit).unwrap();
    }
    let report = sim.run_to_quiescence();
    assert!(report.quiescent);
    assert_matches_oracle(&sim, "phase 3: changes");

    // Phase 4: new sessions arrive on top of the survivors. Source hosts must
    // be free (the paper's model allows at most one session per source host).
    let hosts: Vec<_> = sim.network().hosts().map(|h| h.id()).collect();
    let base = sim.now() + Delay::from_millis(1);
    let mut next_id = 1_000u64;
    let mut joined = 0;
    while joined < 10 {
        let a = hosts[rng.gen_range(0..hosts.len())];
        let b = hosts[rng.gen_range(0..hosts.len())];
        if a == b || sim.is_source_host_busy(a) {
            continue;
        }
        let at = base + Delay::from_nanos(rng.gen_range(0..1_000_000));
        if sim
            .join(at, SessionId(next_id), a, b, RateLimit::unlimited())
            .is_ok()
        {
            joined += 1;
        }
        next_id += 1;
    }
    let report = sim.run_to_quiescence();
    assert!(report.quiescent);
    assert_matches_oracle(&sim, "phase 4: late joins");
}

#[test]
fn joining_from_a_busy_source_host_is_rejected() {
    let net = small_network(10, DelayModel::Lan, 77);
    let hosts: Vec<_> = net.hosts().map(|h| h.id()).collect();
    let mut sim = BneckSimulation::new(&net, BneckConfig::default());
    sim.join(
        SimTime::ZERO,
        SessionId(0),
        hosts[0],
        hosts[1],
        RateLimit::unlimited(),
    )
    .unwrap();
    assert!(sim.is_source_host_busy(hosts[0]));
    let err = sim
        .join(
            SimTime::ZERO,
            SessionId(1),
            hosts[0],
            hosts[2],
            RateLimit::unlimited(),
        )
        .unwrap_err();
    assert!(matches!(err, bneck_core::JoinError::SourceHostBusy { .. }));
    // Once the first session leaves, the host is free again.
    sim.run_to_quiescence();
    let t = sim.now() + Delay::from_millis(1);
    sim.leave(t, SessionId(0)).unwrap();
    sim.run_to_quiescence();
    assert!(!sim.is_source_host_busy(hosts[0]));
    sim.join(
        sim.now() + Delay::from_millis(1),
        SessionId(1),
        hosts[0],
        hosts[2],
        RateLimit::unlimited(),
    )
    .unwrap();
    sim.run_to_quiescence();
    assert_matches_oracle(&sim, "rejoined source host");
}

#[test]
fn leaving_frees_the_departing_sessions_source_host_and_no_other() {
    let net = small_network(10, DelayModel::Lan, 77);
    let hosts: Vec<_> = net.hosts().map(|h| h.id()).collect();
    let mut sim = BneckSimulation::new(&net, BneckConfig::default());
    let unlimited = RateLimit::unlimited();
    for (id, source) in [(0, hosts[0]), (1, hosts[1])] {
        sim.join(SimTime::ZERO, SessionId(id), source, hosts[2], unlimited)
            .unwrap();
    }
    sim.run_to_quiescence();
    // The host is free from the `leave` call on, found through the departed
    // slot's path — not by scanning every busy host for the session.
    sim.leave(sim.now(), SessionId(0)).unwrap();
    assert!(!sim.is_source_host_busy(hosts[0]));
    assert!(
        sim.is_source_host_busy(hosts[1]),
        "session 1 is still there"
    );
    sim.join(sim.now(), SessionId(2), hosts[0], hosts[3], unlimited)
        .unwrap();
    let err = sim
        .join(sim.now(), SessionId(3), hosts[1], hosts[3], unlimited)
        .unwrap_err();
    assert!(matches!(err, bneck_core::JoinError::SourceHostBusy { .. }));
    sim.run_to_quiescence();
    assert_matches_oracle(&sim, "one host freed, one kept");
}

#[test]
fn transient_rates_never_exceed_the_max_min_rates() {
    // The paper highlights that, until convergence, B-Neck assigns transient
    // rates that are smaller than the max-min fair rates (conservative
    // behaviour). Check it by sampling during convergence.
    let net = small_network(60, DelayModel::Wan, 31);
    let mut rng = SmallRng::seed_from_u64(99);
    let mut sim = BneckSimulation::new(&net, BneckConfig::default());
    join_random_sessions(&mut sim, &mut rng, 30, false);
    let sessions = sim.session_set();
    let fair = CentralizedBneck::new(sim.network(), &sessions).solve();
    let tol = Tolerance::new(1e-6, 10.0);
    let mut horizon = SimTime::from_millis(1);
    loop {
        let report = sim.run_until(horizon);
        for s in sim.active_sessions().collect::<Vec<_>>() {
            let transient = sim.current_rate(s).unwrap_or(0.0);
            let fair_rate = fair.rate(s).unwrap_or(f64::INFINITY);
            assert!(
                tol.le(transient, fair_rate),
                "session {s}: transient rate {transient} exceeds max-min rate {fair_rate}"
            );
        }
        if report.quiescent {
            break;
        }
        horizon += Delay::from_millis(1);
    }
    assert_matches_oracle(&sim, "conservative transients");
}
