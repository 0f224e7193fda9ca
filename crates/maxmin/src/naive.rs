//! The seed-era reference solvers, kept verbatim (modulo the `SessionSet`
//! accessors they go through) as test-only oracles for the incremental
//! rewrites in [`crate::waterfill`] and [`crate::centralized`].
//!
//! These are the straightforward O(links × sessions)-per-round formulations:
//! every round recomputes every link's active count and frozen-capacity sum
//! from scratch. They are too slow for paper-scale instances but trivially
//! auditable, which makes them the ground truth the property tests compare
//! the dense-index solvers against. Remove once the incremental solvers have
//! survived a few more PRs' worth of scrutiny.

use crate::rate::{Rate, Tolerance};
use crate::session::{Allocation, SessionId, SessionSet};
use bneck_net::{LinkId, Network};
use std::collections::{BTreeMap, BTreeSet};

/// The seed-era progressive-filling solver.
pub(crate) fn naive_waterfill(
    network: &Network,
    sessions: &SessionSet,
    tol: Tolerance,
) -> Allocation {
    let mut allocation = Allocation::new();
    if sessions.is_empty() {
        return allocation;
    }

    let mut active: Vec<SessionId> = sessions.iter().map(|s| s.id()).collect();
    let mut frozen_rate: BTreeMap<SessionId, Rate> = BTreeMap::new();
    let used_links: Vec<LinkId> = sessions.used_links().collect();
    let mut level: Rate = 0.0;

    while !active.is_empty() {
        let mut next_level: Rate = f64::INFINITY;
        for &link in &used_links {
            let on_link = sessions.sessions_on_link(link);
            let active_count = on_link
                .iter()
                .filter(|s| !frozen_rate.contains_key(s))
                .count();
            if active_count == 0 {
                continue;
            }
            let frozen_sum: Rate = on_link.iter().filter_map(|s| frozen_rate.get(s)).sum();
            let cap = network.link(link).capacity().as_bps();
            let allowed = (cap - frozen_sum).max(0.0) / active_count as f64;
            next_level = next_level.min(allowed);
        }
        for id in &active {
            let limit = sessions.get(*id).expect("active session exists").limit();
            next_level = next_level.min(limit.as_bps());
        }
        level = next_level.max(level);

        let mut saturated_links: Vec<LinkId> = Vec::new();
        for &link in &used_links {
            let on_link = sessions.sessions_on_link(link);
            let active_count = on_link
                .iter()
                .filter(|s| !frozen_rate.contains_key(s))
                .count();
            if active_count == 0 {
                continue;
            }
            let frozen_sum: Rate = on_link.iter().filter_map(|s| frozen_rate.get(s)).sum();
            let cap = network.link(link).capacity().as_bps();
            if tol.ge(frozen_sum + active_count as f64 * level, cap) {
                saturated_links.push(link);
            }
        }
        let mut newly_frozen: Vec<SessionId> = Vec::new();
        for id in &active {
            let session = sessions.get(*id).expect("active session exists");
            let at_limit = tol.ge(level, session.limit().as_bps());
            let on_saturated = session
                .path()
                .links()
                .iter()
                .any(|l| saturated_links.contains(l));
            if at_limit || on_saturated {
                newly_frozen.push(*id);
            }
        }
        assert!(
            !newly_frozen.is_empty(),
            "progressive filling must freeze at least one session per round"
        );
        for id in newly_frozen {
            frozen_rate.insert(id, level);
            active.retain(|s| *s != id);
        }
    }

    for (id, rate) in frozen_rate {
        allocation.set(id, rate);
    }
    allocation
}

struct Constraint {
    capacity: Rate,
    restricted: BTreeSet<SessionId>,
    unrestricted: BTreeSet<SessionId>,
}

/// The seed-era Centralized B-Neck solver (Figure 1 on set-valued state).
pub(crate) fn naive_centralized(
    network: &Network,
    sessions: &SessionSet,
    tol: Tolerance,
) -> Allocation {
    let mut rates: BTreeMap<SessionId, Rate> = BTreeMap::new();

    let mut constraints: Vec<Constraint> = Vec::new();
    for link in sessions.used_links() {
        constraints.push(Constraint {
            capacity: network.link(link).capacity().as_bps(),
            restricted: sessions.sessions_on_link(link).iter().copied().collect(),
            unrestricted: BTreeSet::new(),
        });
    }
    for session in sessions.iter() {
        if !session.limit().is_unlimited() {
            constraints.push(Constraint {
                capacity: session.limit().as_bps(),
                restricted: [session.id()].into_iter().collect(),
                unrestricted: BTreeSet::new(),
            });
        }
    }

    let mut live: BTreeSet<usize> = (0..constraints.len())
        .filter(|i| !constraints[*i].restricted.is_empty())
        .collect();

    while !live.is_empty() {
        let mut estimates: BTreeMap<usize, Rate> = BTreeMap::new();
        for &i in &live {
            let c = &constraints[i];
            let assigned: Rate = c
                .unrestricted
                .iter()
                .map(|s| rates.get(s).copied().unwrap_or(0.0))
                .sum();
            estimates.insert(
                i,
                (c.capacity - assigned).max(0.0) / c.restricted.len() as f64,
            );
        }
        let min_estimate = estimates.values().copied().fold(f64::INFINITY, f64::min);
        let argmin: BTreeSet<usize> = estimates
            .iter()
            .filter(|(_, b)| tol.eq(**b, min_estimate))
            .map(|(i, _)| *i)
            .collect();
        let newly_assigned: BTreeSet<SessionId> = argmin
            .iter()
            .flat_map(|i| constraints[*i].restricted.iter().copied())
            .collect();
        for s in &newly_assigned {
            rates.insert(*s, min_estimate);
        }
        let remaining: BTreeSet<usize> = live.difference(&argmin).copied().collect();
        for &i in &remaining {
            let c = &mut constraints[i];
            let moved: Vec<SessionId> = c
                .restricted
                .intersection(&newly_assigned)
                .copied()
                .collect();
            for s in moved {
                c.restricted.remove(&s);
                c.unrestricted.insert(s);
            }
        }
        live = remaining
            .into_iter()
            .filter(|i| !constraints[*i].restricted.is_empty())
            .collect();
    }

    let mut allocation = Allocation::new();
    for (s, r) in &rates {
        allocation.set(*s, *r);
    }
    allocation
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::centralized::CentralizedBneck;
    use crate::rate::RateLimit;
    use crate::session::Session;
    use crate::verify::compare_allocations;
    use crate::waterfill::WaterFilling;
    use bneck_net::prelude::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn mbps(x: f64) -> Capacity {
        Capacity::from_mbps(x)
    }

    fn random_limit(rng: &mut SmallRng, limited: f64) -> RateLimit {
        if rng.gen_bool(limited) {
            RateLimit::finite(rng.gen_range(1e6..120e6))
        } else {
            RateLimit::unlimited()
        }
    }

    /// Dumbbell: `pairs` sessions across a shared bottleneck.
    fn dumbbell_instance(seed: u64, pairs: usize, limited: f64) -> (Network, SessionSet) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let bottleneck = mbps(rng.gen_range(20.0..200.0));
        let net = synthetic::dumbbell(pairs, mbps(100.0), bottleneck, Delay::from_micros(1));
        let hosts: Vec<_> = net.hosts().map(|h| h.id()).collect();
        let mut router = Router::new(&net);
        let mut set = SessionSet::new();
        for i in 0..pairs {
            let path = router
                .shortest_path(hosts[2 * i], hosts[2 * i + 1])
                .unwrap();
            set.insert(Session::new(
                SessionId(i as u64),
                path,
                random_limit(&mut rng, limited),
            ));
        }
        (net, set)
    }

    /// Parking lot: one end-to-end session plus one session per segment,
    /// crossing random-capacity segments.
    fn parking_lot_instance(seed: u64, segments: usize, limited: f64) -> (Network, SessionSet) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let bottleneck = mbps(rng.gen_range(20.0..200.0));
        let net = synthetic::parking_lot(segments, mbps(300.0), bottleneck, Delay::from_micros(1));
        let hosts: Vec<_> = net.hosts().map(|h| h.id()).collect();
        let mut router = Router::new(&net);
        let mut set = SessionSet::new();
        let long = router.shortest_path(hosts[0], hosts[segments]).unwrap();
        set.insert(Session::new(
            SessionId(0),
            long,
            random_limit(&mut rng, limited),
        ));
        for i in 0..segments {
            let path = router.shortest_path(hosts[i], hosts[i + 1]).unwrap();
            set.insert(Session::new(
                SessionId(1 + i as u64),
                path,
                random_limit(&mut rng, limited),
            ));
        }
        (net, set)
    }

    /// Transit–stub: random host pairs on the paper's Small topology.
    fn transit_stub_instance(seed: u64, sessions: usize, limited: f64) -> (Network, SessionSet) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let net = bneck_net::topology::transit_stub::paper_network(
            NetworkSize::Small,
            2 * sessions + 4,
            DelayModel::Lan,
            seed,
        );
        let hosts: Vec<_> = net.hosts().map(|h| h.id()).collect();
        let mut router = Router::new(&net);
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
            set.insert(Session::new(
                SessionId(id),
                path,
                random_limit(&mut rng, limited),
            ));
        }
        (net, set)
    }

    fn instance(family: u8, seed: u64, size: usize, limited: f64) -> (Network, SessionSet) {
        match family {
            0 => dumbbell_instance(seed, size.max(1), limited),
            1 => parking_lot_instance(seed, size.clamp(1, 12), limited),
            _ => transit_stub_instance(seed, size.max(2), limited),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The incremental solvers and the seed-era naive solvers produce the
        /// same allocation on random dumbbell / parking-lot / transit-stub
        /// instances. The comparison tolerance is far below any meaningful
        /// rate difference: the only deviation the rewrite may introduce is
        /// the float summation order of per-link frozen/granted sums.
        #[test]
        fn incremental_solvers_match_the_naive_oracles(
            family in 0u8..3,
            seed in 0u64..10_000,
            size in 1usize..16,
            limited in 0.0f64..0.6,
        ) {
            let (network, set) = instance(family, seed, size, limited);
            prop_assume!(!set.is_empty());
            let tol = Tolerance::default();
            let strict = Tolerance::new(1e-9, 1e-3);

            let wf = WaterFilling::new(&network, &set).solve();
            let wf_naive = naive_waterfill(&network, &set, tol);
            prop_assert!(
                compare_allocations(&set, &wf, &wf_naive, strict).is_ok(),
                "water-filling diverged from naive: {wf:?} vs {wf_naive:?}"
            );

            let cb = CentralizedBneck::new(&network, &set).solve();
            let cb_naive = naive_centralized(&network, &set, tol);
            prop_assert!(
                compare_allocations(&set, &cb, &cb_naive, strict).is_ok(),
                "centralized diverged from naive: {cb:?} vs {cb_naive:?}"
            );
        }
    }
}
