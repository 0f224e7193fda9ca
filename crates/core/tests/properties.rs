//! Property-based tests of the distributed protocol itself: on randomized
//! small topologies and workloads, B-Neck always reaches quiescence, always
//! matches the centralized oracle, never over-allocates a link while
//! converging, and its control traffic is finite and bounded.

use bneck_core::prelude::*;
use bneck_maxmin::prelude::*;
use bneck_net::prelude::*;
use bneck_sim::{FaultPlan, SimTime};
use proptest::prelude::*;

/// Builds a dumbbell with per-pair access capacities and a random bottleneck,
/// then joins one session per pair with the given limits (in Mbps, 0 meaning
/// unlimited).
fn run_dumbbell(
    bottleneck_mbps: f64,
    limits_mbps: &[f64],
    stagger_us: u64,
) -> (Network, Vec<(SessionId, RateLimit)>) {
    let network = synthetic::dumbbell(
        limits_mbps.len(),
        Capacity::from_mbps(100.0),
        Capacity::from_mbps(bottleneck_mbps),
        Delay::from_micros(1),
    );
    let requests: Vec<(SessionId, RateLimit)> = limits_mbps
        .iter()
        .enumerate()
        .map(|(i, &mbps)| {
            let limit = if mbps <= 0.0 {
                RateLimit::unlimited()
            } else {
                RateLimit::finite(mbps * 1e6)
            };
            (SessionId(i as u64), limit)
        })
        .collect();
    let _ = stagger_us;
    (network, requests)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On a shared bottleneck with arbitrary rate limits and staggered
    /// arrivals, the distributed protocol reaches quiescence with exactly the
    /// oracle's allocation.
    #[test]
    fn dumbbell_allocations_match_the_oracle(
        bottleneck in 20.0f64..400.0,
        limits in prop::collection::vec(0.0f64..120.0, 1..8),
        stagger in 0u64..2_000,
    ) {
        let (network, requests) = run_dumbbell(bottleneck, &limits, stagger);
        let hosts: Vec<_> = network.hosts().map(|h| h.id()).collect();
        let mut sim = BneckSimulation::new(&network, BneckConfig::default());
        for (i, (session, limit)) in requests.iter().enumerate() {
            sim.join(
                SimTime::from_micros(stagger * i as u64),
                *session,
                hosts[2 * i],
                hosts[2 * i + 1],
                *limit,
            )
            .expect("dumbbell sessions are valid");
        }
        let report = sim.run_to_quiescence();
        prop_assert!(report.quiescent);
        prop_assert!(sim.links_stable());

        let sessions = sim.session_set();
        let oracle = CentralizedBneck::new(&network, &sessions).solve();
        prop_assert!(compare_allocations(
            &sessions,
            &sim.allocation(),
            &oracle,
            Tolerance::new(1e-6, 10.0)
        )
        .is_ok());
        prop_assert!(verify_max_min(&network, &sessions, &sim.allocation()).is_ok());
    }

    /// Whatever the workload, the protocol's transient rates never overload
    /// the bottleneck link (B-Neck's conservative behaviour), and control
    /// traffic is finite: quiescence is always reached.
    #[test]
    fn transient_rates_never_overload_links(
        bottleneck in 20.0f64..200.0,
        limits in prop::collection::vec(0.0f64..120.0, 2..6),
    ) {
        let (network, requests) = run_dumbbell(bottleneck, &limits, 0);
        let hosts: Vec<_> = network.hosts().map(|h| h.id()).collect();
        let mut sim = BneckSimulation::new(&network, BneckConfig::default());
        for (i, (session, limit)) in requests.iter().enumerate() {
            sim.join(SimTime::ZERO, *session, hosts[2 * i], hosts[2 * i + 1], *limit)
                .expect("dumbbell sessions are valid");
        }
        let tol = Tolerance::new(1e-9, 1.0);
        let mut horizon = SimTime::from_micros(200);
        for _ in 0..200 {
            let report = sim.run_until(horizon);
            let total: f64 = sim.current_rates().iter().map(|(_, r)| r).sum();
            prop_assert!(
                tol.le(total, bottleneck * 1e6),
                "transient allocation {total} exceeds the bottleneck {bottleneck} Mbps"
            );
            if report.quiescent {
                break;
            }
            horizon += Delay::from_micros(200);
        }
        prop_assert!(sim.is_quiescent(), "the protocol must reach quiescence");
    }

    /// A session that leaves right after joining leaves no residue: the
    /// remaining sessions converge to the oracle of the survivors and all
    /// per-link state about the departed session is gone.
    #[test]
    fn join_then_leave_leaves_no_residue(
        bottleneck in 20.0f64..200.0,
        survivors in 1usize..5,
        departure_us in 1u64..3_000,
    ) {
        let limits = vec![0.0; survivors + 1];
        let (network, requests) = run_dumbbell(bottleneck, &limits, 0);
        let hosts: Vec<_> = network.hosts().map(|h| h.id()).collect();
        let mut sim = BneckSimulation::new(&network, BneckConfig::default());
        for (i, (session, limit)) in requests.iter().enumerate() {
            sim.join(SimTime::ZERO, *session, hosts[2 * i], hosts[2 * i + 1], *limit)
                .expect("dumbbell sessions are valid");
        }
        // The last session leaves very early, possibly before converging.
        let victim = requests.last().unwrap().0;
        sim.leave(SimTime::from_micros(departure_us), victim).unwrap();
        let report = sim.run_to_quiescence();
        prop_assert!(report.quiescent);

        let sessions = sim.session_set();
        prop_assert_eq!(sessions.len(), survivors);
        let oracle = CentralizedBneck::new(&network, &sessions).solve();
        prop_assert!(compare_allocations(
            &sessions,
            &sim.allocation(),
            &oracle,
            Tolerance::new(1e-6, 10.0)
        )
        .is_ok());
        // No link still remembers the departed session.
        for link in network.links() {
            if let Some(task) = sim.link_task(link.id()) {
                prop_assert!(task.probe_state(victim).is_none());
            }
        }
    }

    /// A faulty channel (random drops and duplicates, recovery off) on a
    /// 2-session dumbbell can corrupt the run — but never *silently*. Every
    /// run lands in exactly one honestly observable bucket: converged (and
    /// then two independent checkers — the oracle comparison and the max-min
    /// verifier — both agree the rates are right), wrong-rates (mismatches
    /// recorded in the report), or stuck (flagged non-quiescent at the
    /// horizon). And the same fault stream with the recovery layer enabled
    /// always converges to the exact oracle rates.
    #[test]
    fn faulty_runs_are_never_silently_wrong(
        drop in 0.0f64..0.3,
        duplicate in 0.0f64..0.3,
        fault_seed in 0u64..10_000,
    ) {
        let (network, requests) = run_dumbbell(80.0, &[0.0, 0.0], 0);
        let hosts: Vec<_> = network.hosts().map(|h| h.id()).collect();
        let plan = FaultPlan::new(fault_seed, drop, duplicate, 0.2, 4);
        let horizon = SimTime::from_millis(50);

        // Recovery off: the raw protocol over the hostile channel.
        let mut sim = BneckSimulation::new(&network, BneckConfig::default());
        sim.set_fault_plan(plan);
        for (i, (session, limit)) in requests.iter().enumerate() {
            sim.join(SimTime::ZERO, *session, hosts[2 * i], hosts[2 * i + 1], *limit)
                .expect("dumbbell sessions are valid");
        }
        let report = sim.run_until(horizon);
        let sessions = sim.session_set();
        let oracle = CentralizedBneck::new(&network, &sessions).solve();
        let mismatches = compare_allocations(
            &sessions,
            &sim.allocation(),
            &oracle,
            Tolerance::new(1e-6, 10.0),
        )
        .err()
        .map(|v| v.len())
        .unwrap_or(0);
        if report.quiescent && mismatches == 0 {
            // Claimed converged: an oracle-independent checker must agree,
            // so a wrong allocation cannot slip through as a success.
            prop_assert!(
                verify_max_min(&network, &sessions, &sim.allocation()).is_ok(),
                "a run reported converged but violates max-min fairness"
            );
        } else {
            // Corrupted runs are flagged: non-quiescent or mismatching.
            prop_assert!(!report.quiescent || mismatches > 0);
        }

        // Recovery on, same faults: always oracle-exact and quiescent.
        let mut recovered = BneckSimulation::new(
            &network,
            BneckConfig::default().with_recovery(Delay::from_micros(300)),
        );
        recovered.set_fault_plan(plan);
        for (i, (session, limit)) in requests.iter().enumerate() {
            recovered
                .join(SimTime::ZERO, *session, hosts[2 * i], hosts[2 * i + 1], *limit)
                .expect("dumbbell sessions are valid");
        }
        let recovered_report = recovered.run_until(horizon);
        prop_assert!(recovered_report.quiescent, "recovery must drain by the horizon");
        prop_assert_eq!(recovered.unacked_frames(), 0);
        let recovered_sessions = recovered.session_set();
        let recovered_oracle = CentralizedBneck::new(&network, &recovered_sessions).solve();
        prop_assert!(compare_allocations(
            &recovered_sessions,
            &recovered.allocation(),
            &recovered_oracle,
            Tolerance::new(1e-6, 10.0)
        )
        .is_ok());
    }
}
