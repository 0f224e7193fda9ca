//! Property-based tests of the max-min machinery: the two centralized
//! algorithms agree on random instances, their output satisfies the max-min
//! fairness conditions, and the allocation reacts to session removals and
//! rate limits the way the theory says it must.

use bneck_maxmin::prelude::*;
use bneck_net::prelude::*;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Builds a random connected router mesh with one host per router and a
/// random set of sessions between distinct hosts.
fn random_instance(
    routers: usize,
    sessions: usize,
    seed: u64,
    limited_fraction: f64,
) -> (Network, SessionSet) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut builder = NetworkBuilder::new();
    let router_ids: Vec<_> = (0..routers).map(|_| builder.add_router()).collect();
    // Ring for connectivity plus random chords with random capacities.
    for i in 0..routers {
        let j = (i + 1) % routers;
        if i < j || routers > 2 {
            let cap = Capacity::from_mbps(rng.gen_range(50.0..500.0));
            if !builder.has_link(router_ids[i], router_ids[j]) {
                builder.connect(router_ids[i], router_ids[j], cap, Delay::from_micros(1));
            }
        }
    }
    for i in 0..routers {
        for j in (i + 2)..routers {
            if rng.gen_bool(0.2) && !builder.has_link(router_ids[i], router_ids[j]) {
                let cap = Capacity::from_mbps(rng.gen_range(50.0..500.0));
                builder.connect(router_ids[i], router_ids[j], cap, Delay::from_micros(1));
            }
        }
    }
    let hosts: Vec<_> = router_ids
        .iter()
        .map(|r| {
            builder.add_host(
                *r,
                Capacity::from_mbps(rng.gen_range(50.0..150.0)),
                Delay::from_micros(1),
            )
        })
        .collect();
    let network = builder.build();

    let mut router = Router::new(&network);
    let mut set = SessionSet::new();
    let mut id = 0u64;
    while set.len() < sessions && id < 10 * sessions as u64 {
        id += 1;
        let a = hosts[rng.gen_range(0..hosts.len())];
        let b = hosts[rng.gen_range(0..hosts.len())];
        if a == b {
            continue;
        }
        let Some(path) = router.shortest_path(a, b) else {
            continue;
        };
        let limit = if rng.gen_bool(limited_fraction) {
            RateLimit::finite(rng.gen_range(1e6..120e6))
        } else {
            RateLimit::unlimited()
        };
        set.insert(Session::new(SessionId(id), path, limit));
    }
    (network, set)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The two independent oracle implementations always agree.
    #[test]
    fn centralized_bneck_agrees_with_water_filling(
        routers in 3usize..12,
        sessions in 1usize..25,
        seed in 0u64..10_000,
        limited in 0.0f64..0.6,
    ) {
        let (network, set) = random_instance(routers, sessions, seed, limited);
        prop_assume!(!set.is_empty());
        let a = CentralizedBneck::new(&network, &set).solve();
        let b = WaterFilling::new(&network, &set).solve();
        let tol = Tolerance::new(1e-6, 10.0);
        prop_assert!(compare_allocations(&set, &a, &b, tol).is_ok(),
            "oracles disagree: {a:?} vs {b:?}");
    }

    /// The oracle's allocation always satisfies the max-min fairness
    /// conditions (feasibility, limit compliance, bottleneck existence).
    #[test]
    fn oracle_allocation_is_max_min_fair(
        routers in 3usize..12,
        sessions in 1usize..25,
        seed in 0u64..10_000,
        limited in 0.0f64..0.6,
    ) {
        let (network, set) = random_instance(routers, sessions, seed, limited);
        prop_assume!(!set.is_empty());
        let allocation = CentralizedBneck::new(&network, &set).solve();
        prop_assert!(verify_max_min(&network, &set, &allocation).is_ok());
    }

    /// Every session's rate is bounded by its request and by the tightest
    /// link capacity on its path, and it is strictly positive.
    #[test]
    fn rates_are_positive_and_bounded(
        routers in 3usize..10,
        sessions in 1usize..20,
        seed in 0u64..10_000,
    ) {
        let (network, set) = random_instance(routers, sessions, seed, 0.4);
        prop_assume!(!set.is_empty());
        let allocation = CentralizedBneck::new(&network, &set).solve();
        let tol = Tolerance::default();
        for session in set.iter() {
            let rate = allocation.rate(session.id()).expect("every session gets a rate");
            prop_assert!(rate > 0.0);
            prop_assert!(tol.le(rate, session.limit().as_bps()));
            prop_assert!(tol.le(rate, session.path().min_capacity(&network).as_bps()));
        }
    }

    /// Removing a session improves the allocation of the survivors in the
    /// leximin order (per-session rates may individually go *down* — max-min
    /// fairness is famously not pointwise monotone — but the sorted rate
    /// vector of the survivors never gets lexicographically worse, because
    /// their old allocation is still feasible for the reduced problem).
    #[test]
    fn removal_improves_the_survivors_leximin(
        routers in 3usize..10,
        sessions in 2usize..18,
        seed in 0u64..10_000,
    ) {
        let (network, mut set) = random_instance(routers, sessions, seed, 0.3);
        prop_assume!(set.len() >= 2);
        let before = CentralizedBneck::new(&network, &set).solve();
        let victim = set.iter().next().expect("non-empty").id();
        set.remove(victim);
        let after = CentralizedBneck::new(&network, &set).solve();

        let mut old_sorted: Vec<f64> = set
            .iter()
            .map(|s| before.rate(s.id()).expect("assigned before"))
            .collect();
        let mut new_sorted: Vec<f64> = set
            .iter()
            .map(|s| after.rate(s.id()).expect("assigned after"))
            .collect();
        old_sorted.sort_by(|a, b| a.partial_cmp(b).expect("rates are not NaN"));
        new_sorted.sort_by(|a, b| a.partial_cmp(b).expect("rates are not NaN"));

        let tol = Tolerance::new(1e-9, 1.0);
        for (old, new) in old_sorted.iter().zip(new_sorted.iter()) {
            if tol.eq(*old, *new) {
                continue;
            }
            prop_assert!(
                *new > *old,
                "survivors' sorted rates got leximin-worse: {new} < {old} \
                 (old {old_sorted:?}, new {new_sorted:?})"
            );
            break;
        }
    }

    /// Capping a session strictly below its max-min rate gives it exactly the
    /// cap, and the resulting allocation is still max-min fair for the new
    /// requests.
    #[test]
    fn a_binding_limit_is_honoured_exactly(
        routers in 3usize..10,
        sessions in 2usize..15,
        seed in 0u64..10_000,
        cap_fraction in 0.1f64..0.9,
    ) {
        let (network, mut set) = random_instance(routers, sessions, seed, 0.0);
        prop_assume!(set.len() >= 2);
        let before = CentralizedBneck::new(&network, &set).solve();
        let victim = set.iter().next().expect("non-empty").id();
        let cap = before.rate(victim).expect("assigned") * cap_fraction;
        prop_assume!(cap > 1.0);
        set.change_limit(victim, RateLimit::finite(cap));
        let after = CentralizedBneck::new(&network, &set).solve();
        let tol = Tolerance::new(1e-9, 1.0);
        prop_assert!(tol.eq(after.rate(victim).unwrap(), cap),
            "a cap below the fair share must be granted exactly");
        prop_assert!(verify_max_min(&network, &set, &after).is_ok());
    }

    /// The sum of rates on every link never exceeds its capacity, and every
    /// link with a restricted session is exactly full (the bottleneck
    /// structure reported by the solver is consistent).
    #[test]
    fn bottleneck_structure_is_consistent(
        routers in 3usize..10,
        sessions in 1usize..20,
        seed in 0u64..10_000,
    ) {
        let (network, set) = random_instance(routers, sessions, seed, 0.3);
        prop_assume!(!set.is_empty());
        let solution = CentralizedBneck::new(&network, &set).solve_with_bottlenecks();
        let tol = Tolerance::new(1e-9, 1.0);
        for link in &solution.links {
            let capacity = network.link(link.link).capacity().as_bps();
            let crossing: f64 = link
                .restricted
                .iter()
                .chain(link.unrestricted.iter())
                .filter_map(|s| solution.allocation.rate(*s))
                .sum();
            prop_assert!(tol.le(crossing, capacity));
            if let Some(bottleneck_rate) = link.bottleneck_rate {
                // Restricted sessions all sit exactly at the bottleneck rate.
                for s in &link.restricted {
                    prop_assert!(tol.eq(solution.allocation.rate(*s).unwrap(), bottleneck_rate));
                }
                // Unrestricted sessions sit strictly below it.
                for s in &link.unrestricted {
                    prop_assert!(tol.lt(solution.allocation.rate(*s).unwrap(), bottleneck_rate));
                }
            }
        }
    }
}
