//! Cross-protocol conformance: B-Neck and all three baselines driven through
//! the unified `ProtocolWorld` trait on randomized dumbbell, parking-lot and
//! transit–stub instances.
//!
//! The contract mirrors the paper's evaluation (§IV): on every instance,
//! B-Neck must reach quiescence with rates *exactly* matching the
//! centralized oracle (Theorem 1), while each baseline — which can never go
//! quiescent — must, after probing for many intervals, sit within the
//! convergence tolerance its protocol documents
//! (`BaselineProtocol::mean_error_tolerance_pct`). Because every protocol
//! runs behind the same trait, this test also pins the shared world
//! plumbing (`bneck_core::world`) both harnesses now instantiate.

use bneck::prelude::*;
use proptest::prelude::*;

/// The shapes of evaluation networks the paper draws on: the two classic
/// synthetic bottleneck structures plus the gt-itm-style transit–stub
/// topologies of §IV.
#[derive(Debug, Clone)]
enum Instance {
    Dumbbell {
        pairs: usize,
        access_mbps: f64,
        bottleneck_mbps: f64,
    },
    ParkingLot {
        sessions: usize,
        access_mbps: f64,
        backbone_mbps: f64,
    },
    TransitStub {
        sessions: usize,
        topo_seed: u64,
        plan_seed: u64,
        limited: bool,
    },
}

/// Builds the instance's network and its session requests (paths routed, so
/// every protocol joins along identical routes).
fn build(instance: &Instance) -> (Network, Vec<SessionRequest>) {
    let us = Delay::from_micros(1);
    match *instance {
        Instance::Dumbbell {
            pairs,
            access_mbps,
            bottleneck_mbps,
        } => {
            let net = synthetic::dumbbell(
                pairs,
                Capacity::from_mbps(access_mbps),
                Capacity::from_mbps(bottleneck_mbps),
                us,
            );
            let requests = pair_requests(&net, pairs);
            (net, requests)
        }
        Instance::ParkingLot {
            sessions,
            access_mbps,
            backbone_mbps,
        } => {
            let net = synthetic::parking_lot(
                sessions,
                Capacity::from_mbps(access_mbps),
                Capacity::from_mbps(backbone_mbps),
                us,
            );
            let hosts: Vec<_> = net.hosts().map(|h| h.id()).collect();
            let mut router = Router::new(&net);
            let requests = (0..sessions)
                .map(|i| {
                    let path = router.shortest_path(hosts[i], hosts[sessions]).unwrap();
                    SessionRequest {
                        session: SessionId(i as u64),
                        source: hosts[i],
                        destination: hosts[sessions],
                        limit: RateLimit::unlimited(),
                        path,
                    }
                })
                .collect();
            (net, requests)
        }
        Instance::TransitStub {
            sessions,
            topo_seed,
            plan_seed,
            limited,
        } => {
            let net = NetworkScenario::small_lan(3 * sessions)
                .with_seed(topo_seed)
                .build();
            let mut planner = SessionPlanner::new(&net, plan_seed);
            let limits = if limited {
                LimitPolicy::RandomFinite {
                    probability: 0.4,
                    min_bps: 1e6,
                    max_bps: 60e6,
                }
            } else {
                LimitPolicy::Unlimited
            };
            let requests = planner.plan(sessions, limits);
            (net, requests)
        }
    }
}

fn pair_requests(net: &Network, pairs: usize) -> Vec<SessionRequest> {
    let hosts: Vec<_> = net.hosts().map(|h| h.id()).collect();
    let mut router = Router::new(net);
    (0..pairs)
        .map(|i| {
            let (s, d) = (hosts[2 * i], hosts[2 * i + 1]);
            SessionRequest {
                session: SessionId(i as u64),
                source: s,
                destination: d,
                limit: RateLimit::unlimited(),
                path: router.shortest_path(s, d).unwrap(),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_protocol_conforms_through_the_unified_trait(
        kind in 0usize..3,
        size in 2usize..6,
        cap_a in 50.0f64..150.0,
        cap_b in 20.0f64..120.0,
        topo_seed in 1u64..50,
        plan_seed in 1u64..50,
        limited in prop::bool::ANY,
    ) {
        let instance = match kind {
            0 => Instance::Dumbbell {
                pairs: size,
                access_mbps: cap_a,
                bottleneck_mbps: cap_b,
            },
            1 => Instance::ParkingLot {
                sessions: size,
                access_mbps: cap_a.max(cap_b) + 10.0,
                backbone_mbps: cap_a.min(cap_b),
            },
            _ => Instance::TransitStub {
                sessions: 4 * size,
                topo_seed,
                plan_seed,
                limited,
            },
        };
        let (network, requests) = build(&instance);
        prop_assume!(requests.len() >= 2);

        // The reference: the exact max-min fair rates of the session set.
        let sessions: SessionSet = requests
            .iter()
            .map(|r| Session::new(r.session, r.path.clone(), r.limit))
            .collect();
        let oracle = CentralizedBneck::new(&network, &sessions).solve();

        let bneck: Box<dyn ProtocolWorld + '_> =
            Box::new(BneckSimulation::new(&network, BneckConfig::default()));
        let mut worlds: Vec<_> = std::iter::once(bneck)
            .chain(Baseline::ALL.map(|b| bneck::baselines::simulation(b, &network)))
            .collect();

        for world in &mut worlds {
            let world = world.as_mut();
            for r in &requests {
                prop_assert!(world.apply_join(SimTime::ZERO, r),
                    "{}: join rejected", world.protocol_name());
            }
            match world.convergence_tolerance_pct() {
                // B-Neck: quiescent and *exactly* the oracle's rates.
                None => {
                    prop_assert!(world.goes_quiescent());
                    let report = world.run_to_quiescence();
                    prop_assert!(report.quiescent,
                        "{} must reach quiescence", world.protocol_name());
                    prop_assert!(world.is_quiescent());
                    let got = world.current_rates();
                    let tol = Tolerance::new(1e-6, 10.0);
                    if let Err(violations) = compare_allocations(&sessions, &got, &oracle, tol) {
                        return Err(TestCaseError::Fail(format!(
                            "{} disagrees with the oracle: {} violations, e.g. {}",
                            world.protocol_name(),
                            violations.len(),
                            violations[0]
                        )));
                    }
                }
                // Baselines: never quiescent, but after many probe intervals
                // the mean error sits within the documented tolerance.
                Some(tolerance_pct) => {
                    prop_assert!(!world.goes_quiescent());
                    let report = world.run_to(SimTime::from_millis(80));
                    prop_assert!(!report.quiescent,
                        "{} must keep probing forever", world.protocol_name());
                    let rates = world.current_rates();
                    prop_assert_eq!(rates.len(), requests.len(),
                        "{}: every active session holds a rate", world.protocol_name());
                    // Mean of the *absolute* per-session errors: symmetric
                    // over/under-allocation must not cancel out.
                    let errors: Vec<f64> = rate_errors(&rates, &oracle)
                        .into_iter()
                        .map(f64::abs)
                        .collect();
                    prop_assert!(!errors.is_empty());
                    let mean = Summary::of(&errors).mean;
                    prop_assert!(
                        mean <= tolerance_pct,
                        "{}: mean |error| {:.2}% exceeds its documented tolerance of {:.0}% on {:?}",
                        world.protocol_name(), mean, tolerance_pct, instance
                    );
                }
            }
        }
    }
}
