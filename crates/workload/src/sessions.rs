//! Random session planning.

use bneck_maxmin::{RateLimit, SessionId};
use bneck_net::{Network, NodeId, Path, Router};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Policy for choosing the maximum requested rate of planned sessions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LimitPolicy {
    /// Every session requests an unlimited rate (`r_s = ∞`).
    Unlimited,
    /// With the given probability a session requests a finite rate drawn
    /// uniformly from `[min_bps, max_bps]`; otherwise it is unlimited.
    RandomFinite {
        /// Probability that a session is rate limited.
        probability: f64,
        /// Lower bound of the requested rate, in bits per second.
        min_bps: f64,
        /// Upper bound of the requested rate, in bits per second.
        max_bps: f64,
    },
}

impl LimitPolicy {
    fn sample(&self, rng: &mut SmallRng) -> RateLimit {
        match *self {
            LimitPolicy::Unlimited => RateLimit::unlimited(),
            LimitPolicy::RandomFinite {
                probability,
                min_bps,
                max_bps,
            } => {
                if rng.gen_bool(probability) {
                    RateLimit::finite(rng.gen_range(min_bps..=max_bps))
                } else {
                    RateLimit::unlimited()
                }
            }
        }
    }
}

/// A planned session: identifier, endpoints, requested maximum rate and the
/// shortest path the planner routed the session along.
///
/// Carrying the path means a harness applying the request can join with
/// [`Path`] directly instead of re-running the shortest-path search the
/// planner already performed (paths clone by reference count).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionRequest {
    /// The session identifier the planner assigned.
    pub session: SessionId,
    /// Source host.
    pub source: NodeId,
    /// Destination host.
    pub destination: NodeId,
    /// Maximum requested rate.
    pub limit: RateLimit,
    /// The minimum-hop path from `source` to `destination` the planner found.
    pub path: Path,
}

/// Plans sessions between hosts chosen uniformly at random, as in the paper's
/// experiments ("sessions have been created by choosing a source and a
/// destination node, uniformly at random among all the network hosts").
///
/// Per the paper's system model, every host is the source of at most one
/// session at a time; destinations may be shared. The planner keeps track of
/// the source hosts it has handed out and of the next session identifier, so
/// it can be reused across experiment phases.
#[derive(Debug)]
pub struct SessionPlanner<'a> {
    router: Router<'a>,
    hosts: Vec<NodeId>,
    rng: SmallRng,
    used_sources: BTreeSet<NodeId>,
    next_id: u64,
}

impl<'a> SessionPlanner<'a> {
    /// Creates a planner over the hosts of `network`. Planning is one
    /// sequential pass and reads no environment: the plan is a pure function
    /// of the network and the seed.
    ///
    /// # Panics
    ///
    /// Panics if the network has fewer than two hosts.
    pub fn new(network: &'a Network, seed: u64) -> Self {
        let hosts: Vec<NodeId> = network.hosts().map(|h| h.id()).collect();
        assert!(hosts.len() >= 2, "planning sessions needs at least 2 hosts");
        SessionPlanner {
            router: Router::new(network),
            hosts,
            rng: SmallRng::seed_from_u64(seed),
            used_sources: BTreeSet::new(),
            next_id: 0,
        }
    }

    /// Marks a source host as free again (used after planning a `Leave`).
    pub(crate) fn release_source(&mut self, host: NodeId) {
        self.used_sources.remove(&host);
    }

    /// Plans up to `count` sessions between connected hosts, each from a
    /// distinct, previously unused source host. Returns fewer requests than
    /// asked when the network runs out of free source hosts.
    pub fn plan(&mut self, count: usize, limits: LimitPolicy) -> Vec<SessionRequest> {
        let mut requests = Vec::with_capacity(count);
        let mut candidates: Vec<NodeId> = self
            .hosts
            .iter()
            .copied()
            .filter(|h| !self.used_sources.contains(h))
            .collect();
        candidates.shuffle(&mut self.rng);
        for source in candidates {
            if requests.len() >= count {
                break;
            }
            // Destination: any other host, uniformly at random; retry a few
            // times in case the first pick is unreachable or equal. Routing
            // goes through the per-router tree cache: at most one (small)
            // router-graph BFS per stub router for the whole plan, instead of
            // one whole-network BFS per session — the difference between
            // seconds and minutes when planning paper-scale populations.
            let mut routed = None;
            for _ in 0..8 {
                let candidate = self.hosts[self.rng.gen_range(0..self.hosts.len())];
                if candidate == source {
                    continue;
                }
                if let Some(path) = self.router.host_path_cached(source, candidate) {
                    routed = Some((candidate, path));
                    break;
                }
            }
            let Some((destination, path)) = routed else {
                continue;
            };
            let limit = limits.sample(&mut self.rng);
            let session = SessionId(self.next_id);
            self.next_id += 1;
            self.used_sources.insert(source);
            requests.push(SessionRequest {
                session,
                source,
                destination,
                limit,
                path,
            });
        }
        requests
    }

    /// Access to the planner's random generator, for schedulers that need
    /// random timestamps consistent with the planned sessions.
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::NetworkScenario;

    #[test]
    fn plans_distinct_sources_and_valid_destinations() {
        let net = NetworkScenario::small_lan(60).build();
        let mut planner = SessionPlanner::new(&net, 7);
        let requests = planner.plan(25, LimitPolicy::Unlimited);
        assert_eq!(requests.len(), 25);
        let mut sources = BTreeSet::new();
        for r in &requests {
            assert!(sources.insert(r.source), "duplicate source host");
            assert_ne!(r.source, r.destination);
            assert!(r.limit.is_unlimited());
        }
        assert_eq!(planner.used_sources.len(), 25);
    }

    #[test]
    fn session_ids_are_consecutive_across_calls() {
        let net = NetworkScenario::small_lan(40).build();
        let mut planner = SessionPlanner::new(&net, 3);
        let a = planner.plan(5, LimitPolicy::Unlimited);
        let b = planner.plan(5, LimitPolicy::Unlimited);
        let ids: Vec<u64> = a.iter().chain(b.iter()).map(|r| r.session.0).collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn planning_stops_when_sources_run_out() {
        let net = NetworkScenario::small_lan(10).build();
        let mut planner = SessionPlanner::new(&net, 3);
        let requests = planner.plan(50, LimitPolicy::Unlimited);
        assert!(requests.len() <= 10);
        assert_eq!(planner.used_sources.len(), requests.len());
        // Releasing a source makes it plannable again.
        let released = requests[0].source;
        planner.release_source(released);
        assert_eq!(planner.used_sources.len(), requests.len() - 1);
    }

    #[test]
    fn limit_policy_generates_finite_limits() {
        let net = NetworkScenario::small_lan(80).build();
        let mut planner = SessionPlanner::new(&net, 11);
        let requests = planner.plan(
            40,
            LimitPolicy::RandomFinite {
                probability: 0.5,
                min_bps: 1e6,
                max_bps: 50e6,
            },
        );
        let finite = requests.iter().filter(|r| !r.limit.is_unlimited()).count();
        assert!(finite > 0, "some sessions should be rate limited");
        assert!(finite < requests.len(), "some sessions should be unlimited");
        for r in requests.iter().filter(|r| !r.limit.is_unlimited()) {
            assert!(r.limit.as_bps() >= 1e6 && r.limit.as_bps() <= 50e6);
        }
    }

    #[test]
    fn deterministic_for_a_seed() {
        let net = NetworkScenario::small_lan(30).build();
        let a = SessionPlanner::new(&net, 5).plan(10, LimitPolicy::Unlimited);
        let b = SessionPlanner::new(&net, 5).plan(10, LimitPolicy::Unlimited);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least 2 hosts")]
    fn too_few_hosts_rejected() {
        let net = NetworkScenario::small_lan(1).build();
        let _ = SessionPlanner::new(&net, 1);
    }
}
