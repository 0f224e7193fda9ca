//! Phase-structured churn: joins, leaves and rate changes concentrated in
//! short windows, as in Experiment 2 of the paper.

use crate::schedule::{Schedule, WorkloadEvent};
use crate::sessions::{LimitPolicy, SessionPlanner, SessionRequest};
use bneck_maxmin::{RateLimit, SessionId};
use bneck_net::{Delay, Network, NodeId};
use bneck_sim::SimTime;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::BTreeMap;

/// Plans successive phases of session dynamics over one network, keeping track
/// of which sessions are alive so that leaves and changes always target active
/// sessions (and freed source hosts can be reused by later joins).
#[derive(Debug)]
pub struct DynamicsPlanner<'a> {
    planner: SessionPlanner<'a>,
    active: BTreeMap<SessionId, NodeId>,
}

impl<'a> DynamicsPlanner<'a> {
    /// Creates a planner over the hosts of `network`.
    ///
    /// # Panics
    ///
    /// Panics if the network has fewer than two hosts.
    pub fn new(network: &'a Network, seed: u64) -> Self {
        DynamicsPlanner {
            planner: SessionPlanner::new(network, seed),
            active: BTreeMap::new(),
        }
    }

    /// Number of sessions the planner currently considers active.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// The identifiers of the currently active sessions, in ascending order.
    pub fn active_sessions(&self) -> impl Iterator<Item = SessionId> + '_ {
        self.active.keys().copied()
    }

    /// Plans a phase starting at `start`: `joins` new sessions, `leaves`
    /// departures of active sessions and `changes` rate changes of active
    /// sessions, all at times chosen uniformly at random within `window` of
    /// the phase start (the paper concentrates each phase's changes in its
    /// first millisecond).
    ///
    /// Departures and changes are placed in the first half of the window and
    /// arrivals in the second half, so that a source host freed by a departure
    /// can immediately be reused by a new session within the same phase.
    ///
    /// Returns the schedule of the phase. Fewer events than requested are
    /// planned when there are not enough free source hosts or active
    /// sessions; no spec can ask for that, since
    /// [`ExperimentSpec::check`](crate::spec::ExperimentSpec::check) rejects
    /// one whose topology or population is too small for its phases.
    pub fn phase(
        &mut self,
        start: SimTime,
        window: Delay,
        joins: usize,
        leaves: usize,
        changes: usize,
        limits: LimitPolicy,
    ) -> Schedule {
        let mut schedule = Schedule::new();

        // Leaves and changes draw from the currently active sessions, without
        // overlap (a session either leaves or changes in one phase). The
        // BTreeMap yields the pool in key order, so the shuffle outcome is a
        // pure function of the seed.
        let mut pool: Vec<SessionId> = self.active.keys().copied().collect();
        pool.shuffle(self.planner.rng());
        let leaving: Vec<SessionId> = pool.iter().copied().take(leaves).collect();
        let changing: Vec<SessionId> = pool
            .iter()
            .copied()
            .skip(leaving.len())
            .take(changes)
            .collect();

        let half = Delay::from_nanos(window.as_nanos() / 2);
        for session in leaving {
            let at = start + random_offset(half, self.planner.rng());
            schedule.push(at, WorkloadEvent::Leave { session });
            if let Some(source) = self.active.remove(&session) {
                self.planner.release_source(source);
            }
        }
        for session in changing {
            let at = start + random_offset(half, self.planner.rng());
            let limit = match limits {
                LimitPolicy::Unlimited => RateLimit::unlimited(),
                LimitPolicy::RandomFinite {
                    min_bps, max_bps, ..
                } => RateLimit::finite(self.planner.rng().gen_range(min_bps..=max_bps)),
            };
            schedule.push(at, WorkloadEvent::Change { session, limit });
        }

        // New arrivals, after the departures so freed source hosts can be
        // reused straight away.
        let requests: Vec<SessionRequest> = self.planner.plan(joins, limits);
        for request in requests {
            let at = start + half + random_offset(half, self.planner.rng());
            self.active.insert(request.session, request.source);
            schedule.push_join(at, request);
        }
        schedule
    }
}

fn random_offset<R: Rng>(window: Delay, rng: &mut R) -> Delay {
    if window == Delay::ZERO {
        Delay::ZERO
    } else {
        Delay::from_nanos(rng.gen_range(0..window.as_nanos()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::NetworkScenario;

    #[test]
    fn join_phase_creates_the_requested_sessions() {
        let net = NetworkScenario::small_lan(50).build();
        let mut planner = DynamicsPlanner::new(&net, 1);
        let schedule = planner.phase(
            SimTime::ZERO,
            Delay::from_millis(1),
            20,
            0,
            0,
            LimitPolicy::Unlimited,
        );
        assert_eq!(schedule.breakdown(), (20, 0, 0));
        assert_eq!(planner.active_count(), 20);
        assert!(schedule.iter().last().unwrap().at <= SimTime::from_millis(1));
    }

    #[test]
    fn leaves_and_changes_target_distinct_active_sessions() {
        let net = NetworkScenario::small_lan(60).build();
        let mut planner = DynamicsPlanner::new(&net, 2);
        planner.phase(
            SimTime::ZERO,
            Delay::from_millis(1),
            30,
            0,
            0,
            LimitPolicy::Unlimited,
        );
        let phase2 = planner.phase(
            SimTime::from_millis(100),
            Delay::from_millis(1),
            0,
            10,
            5,
            LimitPolicy::RandomFinite {
                probability: 1.0,
                min_bps: 1e6,
                max_bps: 10e6,
            },
        );
        assert_eq!(phase2.breakdown(), (0, 10, 5));
        assert_eq!(planner.active_count(), 20);
        // No session both leaves and changes in the same phase.
        let mut leaving = Vec::new();
        let mut changing = Vec::new();
        for e in phase2.iter() {
            match e.event {
                WorkloadEvent::Leave { session } => leaving.push(session),
                WorkloadEvent::Change { session, .. } => changing.push(session),
                _ => {}
            }
        }
        assert!(leaving.iter().all(|s| !changing.contains(s)));
        // Every event falls within the phase window.
        for e in phase2.iter() {
            assert!(e.at >= SimTime::from_millis(100));
            assert!(e.at <= SimTime::from_millis(101));
        }
    }

    #[test]
    fn freed_sources_can_be_reused_by_later_joins() {
        let net = NetworkScenario::small_lan(10).build();
        let mut planner = DynamicsPlanner::new(&net, 3);
        planner.phase(
            SimTime::ZERO,
            Delay::from_millis(1),
            10,
            0,
            0,
            LimitPolicy::Unlimited,
        );
        assert_eq!(planner.active_count(), 10);
        // All sources used: a join-only phase plans nothing new.
        let empty = planner.phase(
            SimTime::from_millis(10),
            Delay::from_millis(1),
            5,
            0,
            0,
            LimitPolicy::Unlimited,
        );
        assert_eq!(empty.breakdown().0, 0);
        // After 5 leave, 5 more can join.
        planner.phase(
            SimTime::from_millis(20),
            Delay::from_millis(1),
            0,
            5,
            0,
            LimitPolicy::Unlimited,
        );
        let refill = planner.phase(
            SimTime::from_millis(30),
            Delay::from_millis(1),
            5,
            0,
            0,
            LimitPolicy::Unlimited,
        );
        assert_eq!(refill.breakdown().0, 5);
        assert_eq!(planner.active_count(), 10);
    }

    #[test]
    fn mixed_phase_matches_requested_breakdown() {
        let net = NetworkScenario::small_lan(80).build();
        let mut planner = DynamicsPlanner::new(&net, 4);
        planner.phase(
            SimTime::ZERO,
            Delay::from_millis(1),
            40,
            0,
            0,
            LimitPolicy::Unlimited,
        );
        let mixed = planner.phase(
            SimTime::from_millis(50),
            Delay::from_millis(1),
            10,
            10,
            10,
            LimitPolicy::Unlimited,
        );
        assert_eq!(mixed.breakdown(), (10, 10, 10));
        assert_eq!(planner.active_count(), 40);
        assert!(planner.active_sessions().count() == 40);
    }
}
