//! The workloads of the paper's three experiments.
//!
//! [`Experiment1Config`] is the one run description: a burst of joins on one
//! network. Experiments 1, the §IV validation, the paper-scale points and the
//! fault sweeps all lower to it. Experiment 2's churn phases and Experiment
//! 3's joins-plus-leaves schedule are planned straight from their specs
//! ([`ChurnSpec`], [`AccuracySpec`]); the shipped parameter sets live in
//! [`ExperimentSpec::preset`](crate::spec::ExperimentSpec::preset).

use crate::dynamics::DynamicsPlanner;
use crate::scenario::NetworkScenario;
use crate::schedule::{Schedule, WorkloadEvent};
use crate::sessions::{LimitPolicy, SessionPlanner};
use crate::spec::{AccuracySpec, ChurnSpec};
use bneck_net::{Delay, Network};
use bneck_sim::SimTime;
use rand::Rng;

/// A join burst: many sessions join simultaneously; measure the time to
/// quiescence and the control traffic (Experiment 1, Figure 5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Experiment1Config {
    /// The network scenario to run on.
    pub scenario: NetworkScenario,
    /// Number of sessions joining.
    pub sessions: usize,
    /// Window in which all joins happen (1 ms in the paper).
    pub join_window: Delay,
    /// Maximum-rate request policy.
    pub limits: LimitPolicy,
    /// Seed for session planning.
    pub seed: u64,
}

impl Experiment1Config {
    /// The paper-scale preset: `sessions` simultaneous joins (50k–100k,
    /// toward the paper's 300,000) on a Medium LAN transit–stub network with
    /// enough hosts that every session gets its own source host (the paper
    /// attaches up to 220,000 hosts to the Medium network).
    pub fn paper_scale(sessions: usize) -> Self {
        Experiment1Config {
            scenario: NetworkScenario::medium_lan(sessions + sessions / 4 + 8),
            sessions,
            join_window: Delay::from_millis(1),
            limits: LimitPolicy::Unlimited,
            seed: 1,
        }
    }

    /// Builds the join schedule over `network` (all sessions join at times
    /// chosen uniformly at random within the join window).
    pub fn schedule(&self, network: &Network) -> Schedule {
        let mut planner = DynamicsPlanner::new(network, self.seed);
        planner.phase(
            SimTime::ZERO,
            self.join_window,
            self.sessions,
            0,
            0,
            self.limits,
        )
    }
}

/// One phase of Experiment 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSpec {
    /// Phase name (as used in Figure 6).
    pub name: &'static str,
    /// Sessions joining in this phase.
    pub joins: usize,
    /// Sessions leaving in this phase.
    pub leaves: usize,
    /// Sessions changing their maximum rate in this phase.
    pub changes: usize,
}

impl ChurnSpec {
    /// The five phases of Experiment 2, in order: a large join phase
    /// followed by leave, change, join and mixed churn phases.
    pub fn phases(&self) -> [PhaseSpec; 5] {
        let phase = |name, joins, leaves, changes| PhaseSpec {
            name,
            joins,
            leaves,
            changes,
        };
        let churn = self.churn;
        [
            phase("join", self.initial_sessions, 0, 0),
            phase("leave", 0, churn, 0),
            phase("change", 0, 0, churn),
            phase("join-2", churn, 0, 0),
            phase("mixed", churn, churn, churn),
        ]
    }
}

impl AccuracySpec {
    /// Builds Experiment 3's workload over `network`: joins spread over the
    /// first half of the change window, and the departing sessions leaving
    /// in its second half.
    pub fn schedule(&self, network: &Network) -> Schedule {
        let mut planner = SessionPlanner::new(network, self.seed);
        let requests = planner.plan(self.joins, self.limits);
        let mut schedule = Schedule::new();
        let window = Delay::from_micros(self.change_window_us).as_nanos();
        let half = window / 2;
        for request in &requests {
            let offset = Delay::from_nanos(planner.rng().gen_range(0..half.max(1)));
            schedule.push_join(SimTime::ZERO + offset, request.clone());
        }
        for request in requests.iter().take(self.leaves) {
            let offset = Delay::from_nanos(planner.rng().gen_range(half..window));
            schedule.push(
                SimTime::ZERO + offset,
                WorkloadEvent::Leave {
                    session: request.session,
                },
            );
        }
        schedule
    }

    /// The sampling instants within the horizon.
    pub fn sample_times(&self) -> Vec<SimTime> {
        let interval = Delay::from_micros(self.sample_interval_us);
        let horizon = Delay::from_micros(self.horizon_us);
        let mut times = Vec::new();
        let mut t = interval;
        while t <= horizon {
            times.push(SimTime::ZERO + t);
            t = t + interval;
        }
        times
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ExperimentKind, ExperimentSpec};

    fn churn(name: &str) -> ChurnSpec {
        match ExperimentSpec::preset(name).unwrap().experiment {
            ExperimentKind::Churn(spec) => spec,
            other => panic!("{name} is a churn spec, got {}", other.label()),
        }
    }

    fn accuracy(name: &str) -> AccuracySpec {
        match ExperimentSpec::preset(name).unwrap().experiment {
            ExperimentKind::Accuracy(spec) => spec,
            other => panic!("{name} is an accuracy spec, got {}", other.label()),
        }
    }

    #[test]
    fn experiment1_schedule_joins_within_the_window() {
        let config = Experiment1Config {
            scenario: NetworkScenario::small_lan(100),
            sessions: 40,
            join_window: Delay::from_millis(1),
            limits: LimitPolicy::Unlimited,
            seed: 1,
        };
        let net = config.scenario.build();
        let schedule = config.schedule(&net);
        assert_eq!(schedule.breakdown(), (40, 0, 0));
        assert!(schedule.iter().last().unwrap().at <= SimTime::from_millis(1));
    }

    #[test]
    fn experiment2_has_the_five_paper_phases() {
        let spec = churn("exp2");
        let phases = spec.phases();
        assert_eq!(phases[0].joins, spec.initial_sessions);
        assert_eq!(phases[1].leaves, spec.churn);
        assert_eq!(phases[2].changes, spec.churn);
        assert_eq!(phases[3].joins, spec.churn);
        assert_eq!(
            (phases[4].joins, phases[4].leaves, phases[4].changes),
            (spec.churn, spec.churn, spec.churn)
        );
        let paper = churn("exp2_full");
        assert_eq!(paper.initial_sessions, 100_000);
        assert_eq!(paper.churn, 20_000);
    }

    #[test]
    fn experiment3_schedule_mixes_joins_and_leaves() {
        let spec = accuracy("exp3");
        let net = NetworkScenario::small_lan(spec.topology.hosts).build();
        let schedule = spec.schedule(&net);
        let (joins, leaves, changes) = schedule.breakdown();
        assert_eq!(joins, spec.joins);
        assert_eq!(leaves, spec.leaves);
        assert_eq!(changes, 0);
        let window = Delay::from_micros(spec.change_window_us);
        assert!(schedule.iter().last().unwrap().at <= SimTime::ZERO + window);
        // Leaves happen after the corresponding join (joins are in the first
        // half of the window, leaves in the second half).
        let half = SimTime::ZERO + Delay::from_nanos(window.as_nanos() / 2);
        for e in schedule.iter() {
            match e.event {
                WorkloadEvent::Join { .. } => assert!(e.at < half),
                WorkloadEvent::Leave { .. } => assert!(e.at >= half),
                WorkloadEvent::Change { .. } => panic!("no changes planned"),
            }
        }
    }

    #[test]
    fn experiment3_sample_times_cover_the_horizon() {
        let times = accuracy("exp3").sample_times();
        assert_eq!(times.first().copied(), Some(SimTime::from_millis(3)));
        assert_eq!(times.last().copied(), Some(SimTime::from_millis(120)));
        assert_eq!(times.len(), 40);
        assert_eq!(accuracy("exp3_full").joins, 100_000);
    }
}
