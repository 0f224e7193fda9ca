//! Ready-made configurations for the paper's three experiments.
//!
//! Each configuration exists in two flavours:
//!
//! * `paper()` — the parameters reported in Section IV of the paper (up to
//!   300,000 sessions on networks of up to 11,000 routers). Running these
//!   requires a long offline run and plenty of memory.
//! * `scaled()` — a reduced parameter set with the same structure, sized so
//!   the full experiment suite runs in minutes on a laptop. The `bneck`
//!   CLI's `exp1`/`exp2`/`exp3` presets use the scaled flavour and their
//!   `*_full` twins the paper flavour.

use crate::dynamics::DynamicsPlanner;
use crate::scenario::NetworkScenario;
use crate::schedule::Schedule;
use crate::sessions::{LimitPolicy, SessionPlanner};
use bneck_net::{Delay, Network};
use bneck_sim::SimTime;
#[cfg(feature = "serde")]
use serde::{Deserialize, Serialize};

/// Experiment 1: many sessions join simultaneously; measure the time to
/// quiescence and the control traffic (Figure 5).
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
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
    /// A scaled-down configuration: `sessions` sessions on a Small network.
    pub fn scaled(scenario: NetworkScenario, sessions: usize) -> Self {
        Experiment1Config {
            scenario,
            sessions,
            join_window: Delay::from_millis(1),
            limits: LimitPolicy::Unlimited,
            seed: 1,
        }
    }

    /// The session-count sweep of Figure 5 as reported in the paper
    /// (10 to 300,000 sessions).
    pub fn paper_sweep() -> Vec<usize> {
        vec![10, 100, 1_000, 10_000, 100_000, 300_000]
    }

    /// A reduced sweep with the same log-scale structure, suitable for CI.
    pub fn scaled_sweep() -> Vec<usize> {
        vec![10, 30, 100, 300, 1_000]
    }

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

    /// The session counts exercised by the paper-scale runs.
    pub fn paper_scale_sweep() -> Vec<usize> {
        vec![10_000, 50_000, 100_000]
    }

    /// The full paper-scale preset: 300,000 simultaneous joins — the largest
    /// session count of Figure 5 — on a Medium LAN transit–stub network with
    /// one source host per session plus destination headroom (the paper
    /// attaches up to 220,000 hosts to its Medium network; reaching the
    /// 300,000-session point needs proportionally more).
    pub fn paper_full() -> Self {
        Self::paper_scale(300_000)
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
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub struct PhaseSpec {
    /// Human-readable phase name (as used in Figure 6).
    pub name: String,
    /// Sessions joining in this phase.
    pub joins: usize,
    /// Sessions leaving in this phase.
    pub leaves: usize,
    /// Sessions changing their maximum rate in this phase.
    pub changes: usize,
}

/// Experiment 2: stability under a highly dynamic system — five phases of
/// churn on a Medium LAN network (Figure 6).
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub struct Experiment2Config {
    /// The network scenario (Medium LAN in the paper).
    pub scenario: NetworkScenario,
    /// Sessions joining in the initial phase (100,000 in the paper).
    pub initial_sessions: usize,
    /// Sessions affected in each churn phase (20,000 in the paper).
    pub churn: usize,
    /// Window in which each phase's changes happen (1 ms in the paper).
    pub change_window: Delay,
    /// Maximum-rate request policy for joins and changes.
    pub limits: LimitPolicy,
    /// Seed for session planning.
    pub seed: u64,
}

impl Experiment2Config {
    /// The paper's parameters: 100,000 initial sessions and 20,000-session
    /// churn phases on a Medium LAN network with 220,000 hosts.
    pub fn paper() -> Self {
        Experiment2Config {
            scenario: NetworkScenario::medium_lan(220_000),
            initial_sessions: 100_000,
            churn: 20_000,
            change_window: Delay::from_millis(1),
            limits: LimitPolicy::Unlimited,
            seed: 1,
        }
    }

    /// A scaled-down configuration with the same five-phase structure.
    pub fn scaled() -> Self {
        Experiment2Config {
            scenario: NetworkScenario::small_lan(700),
            initial_sessions: 300,
            churn: 60,
            change_window: Delay::from_millis(1),
            limits: LimitPolicy::Unlimited,
            seed: 1,
        }
    }

    /// The five phases of the experiment, in order: a large join phase
    /// followed by leave, change, join and mixed churn phases.
    pub fn phases(&self) -> Vec<PhaseSpec> {
        vec![
            PhaseSpec {
                name: "join".to_string(),
                joins: self.initial_sessions,
                leaves: 0,
                changes: 0,
            },
            PhaseSpec {
                name: "leave".to_string(),
                joins: 0,
                leaves: self.churn,
                changes: 0,
            },
            PhaseSpec {
                name: "change".to_string(),
                joins: 0,
                leaves: 0,
                changes: self.churn,
            },
            PhaseSpec {
                name: "join-2".to_string(),
                joins: self.churn,
                leaves: 0,
                changes: 0,
            },
            PhaseSpec {
                name: "mixed".to_string(),
                joins: self.churn,
                leaves: self.churn,
                changes: self.churn,
            },
        ]
    }

    /// Builds a planner for driving the phases over `network`.
    pub fn planner<'a>(&self, network: &'a Network) -> DynamicsPlanner<'a> {
        DynamicsPlanner::new(network, self.seed)
    }
}

/// Experiment 3: accuracy over time against non-quiescent baselines — joins
/// plus leaves in the first milliseconds, rates sampled at fixed intervals
/// (Figures 7 and 8).
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub struct Experiment3Config {
    /// The network scenario (Medium LAN in the paper).
    pub scenario: NetworkScenario,
    /// Sessions joining (100,000 in the paper).
    pub joins: usize,
    /// Sessions leaving shortly after joining (10,000 in the paper).
    pub leaves: usize,
    /// Window in which all joins and leaves happen (5 ms in the paper).
    pub change_window: Delay,
    /// Interval at which the assigned rates are sampled (3 ms in the paper).
    pub sample_interval: Delay,
    /// Total observation horizon (120 ms in the paper's figures).
    pub horizon: Delay,
    /// Maximum-rate request policy.
    pub limits: LimitPolicy,
    /// Seed for session planning.
    pub seed: u64,
}

impl Experiment3Config {
    /// The paper's parameters: 100,000 joins and 10,000 leaves in the first
    /// 5 ms on a Medium LAN network, sampled every 3 ms for 120 ms.
    pub fn paper() -> Self {
        Experiment3Config {
            scenario: NetworkScenario::medium_lan(220_000),
            joins: 100_000,
            leaves: 10_000,
            change_window: Delay::from_millis(5),
            sample_interval: Delay::from_millis(3),
            horizon: Delay::from_millis(120),
            limits: LimitPolicy::Unlimited,
            seed: 1,
        }
    }

    /// A scaled-down configuration with the same structure.
    pub fn scaled() -> Self {
        Experiment3Config {
            scenario: NetworkScenario::small_lan(600),
            joins: 250,
            leaves: 25,
            change_window: Delay::from_millis(5),
            sample_interval: Delay::from_millis(3),
            horizon: Delay::from_millis(120),
            limits: LimitPolicy::Unlimited,
            seed: 1,
        }
    }

    /// Builds the workload: joins spread over the window, and the departing
    /// sessions leaving in the second half of the window.
    pub fn schedule(&self, network: &Network) -> Schedule {
        let mut planner = SessionPlanner::new(network, self.seed);
        let requests = planner.plan(self.joins, self.limits);
        let mut schedule = Schedule::new();
        let half = Delay::from_nanos(self.change_window.as_nanos() / 2);
        for request in &requests {
            let offset = Delay::from_nanos(planner.rng().gen_range(0..half.as_nanos().max(1)));
            schedule.push_join(SimTime::ZERO + offset, request.clone());
        }
        for request in requests.iter().take(self.leaves) {
            let offset = Delay::from_nanos(
                planner
                    .rng()
                    .gen_range(half.as_nanos()..self.change_window.as_nanos()),
            );
            schedule.push(
                SimTime::ZERO + offset,
                crate::schedule::WorkloadEvent::Leave {
                    session: request.session,
                },
            );
        }
        schedule
    }

    /// The sampling instants within the horizon.
    pub fn sample_times(&self) -> Vec<SimTime> {
        let mut times = Vec::new();
        let mut t = self.sample_interval;
        while t <= self.horizon {
            times.push(SimTime::ZERO + t);
            t = t + self.sample_interval;
        }
        times
    }
}

use rand::Rng;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::WorkloadEvent;

    #[test]
    fn experiment1_schedule_joins_within_the_window() {
        let config = Experiment1Config::scaled(NetworkScenario::small_lan(100), 40);
        let net = config.scenario.build();
        let schedule = config.schedule(&net);
        assert_eq!(schedule.breakdown(), (40, 0, 0));
        assert!(schedule.last_time().unwrap() <= SimTime::from_millis(1));
        assert!(!Experiment1Config::paper_sweep().is_empty());
        assert!(Experiment1Config::scaled_sweep().len() >= 4);
    }

    #[test]
    fn experiment2_has_the_five_paper_phases() {
        let config = Experiment2Config::scaled();
        let phases = config.phases();
        assert_eq!(phases.len(), 5);
        assert_eq!(phases[0].joins, config.initial_sessions);
        assert_eq!(phases[1].leaves, config.churn);
        assert_eq!(phases[2].changes, config.churn);
        assert_eq!(phases[3].joins, config.churn);
        assert_eq!(
            (phases[4].joins, phases[4].leaves, phases[4].changes),
            (config.churn, config.churn, config.churn)
        );
        let paper = Experiment2Config::paper();
        assert_eq!(paper.initial_sessions, 100_000);
        assert_eq!(paper.churn, 20_000);
    }

    #[test]
    fn experiment3_schedule_mixes_joins_and_leaves() {
        let config = Experiment3Config::scaled();
        let net = config.scenario.build();
        let schedule = config.schedule(&net);
        let (joins, leaves, changes) = schedule.breakdown();
        assert_eq!(joins, config.joins);
        assert_eq!(leaves, config.leaves);
        assert_eq!(changes, 0);
        assert!(schedule.last_time().unwrap() <= SimTime::ZERO + config.change_window);
        // Leaves happen after the corresponding join (joins are in the first
        // half of the window, leaves in the second half).
        for e in schedule.iter() {
            match e.event {
                WorkloadEvent::Join { .. } => {
                    assert!(
                        e.at < SimTime::ZERO
                            + Delay::from_nanos(config.change_window.as_nanos() / 2)
                    )
                }
                WorkloadEvent::Leave { .. } => {
                    assert!(
                        e.at >= SimTime::ZERO
                            + Delay::from_nanos(config.change_window.as_nanos() / 2)
                    )
                }
                _ => {}
            }
        }
    }

    #[test]
    fn experiment3_sample_times_cover_the_horizon() {
        let config = Experiment3Config::scaled();
        let times = config.sample_times();
        assert_eq!(times.first().copied(), Some(SimTime::from_millis(3)));
        assert_eq!(times.last().copied(), Some(SimTime::from_millis(120)));
        assert_eq!(times.len(), 40);
        let paper = Experiment3Config::paper();
        assert_eq!(paper.joins, 100_000);
    }
}
