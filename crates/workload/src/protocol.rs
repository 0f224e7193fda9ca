//! The unified protocol-under-test interface.
//!
//! The paper evaluates B-Neck against BFYZ, CG and RCP on the *same*
//! simulated networks and workloads (§IV, Figures 5–8). [`ProtocolWorld`] is
//! the contract that makes this possible in code: anything implementing it
//! can be handed a workload schedule (it is a [`ScheduleTarget`]), run to a
//! horizon or to quiescence, moved to a worker thread (it is `Send`), and
//! asked for its per-session rates and packet count.
//!
//! The protocol set is closed: B-Neck plus the three [`Baseline`]s.
//! `BneckSimulation` implements the trait here; `BaselineSimulation`
//! implements it in `bneck-baselines`, whose `simulation` builds any
//! [`Baseline`] by an exhaustive match.

use crate::schedule::ScheduleTarget;
use bneck_core::{BneckSimulation, QuiescenceReport};
use bneck_maxmin::Allocation;
use bneck_sim::SimTime;

/// A protocol-under-test: a fully-built simulation that accepts workload
/// events, runs on the discrete-event engine and exposes the rates the
/// experiments compare against the centralized oracle.
pub trait ProtocolWorld: Send + ScheduleTarget {
    /// The protocol's display name (`B-Neck`, `BFYZ`, `CG`, `RCP`).
    fn protocol_name(&self) -> &'static str;

    /// The rate each active session is currently assigned at its source.
    fn current_rates(&self) -> Allocation;

    /// Whether the protocol stops generating control traffic once converged.
    /// `true` only for B-Neck — the probing baselines never go quiescent
    /// while a session is active (the defining contrast of Figure 8).
    fn goes_quiescent(&self) -> bool;

    /// Total control packets transmitted over links so far.
    fn packets_sent(&self) -> u64;

    /// The documented convergence tolerance of the protocol, as the maximum
    /// mean absolute per-session relative error (in percent, against the
    /// max-min fair rates) the protocol is expected to settle within on a
    /// converged steady state. `None` means the protocol converges to the
    /// exact rates (B-Neck, Theorem 1 of the paper).
    fn convergence_tolerance_pct(&self) -> Option<f64>;

    /// Runs until the event queue is empty or the next event is strictly
    /// after `horizon`; events at exactly `horizon` are processed.
    fn run_to(&mut self, horizon: SimTime) -> QuiescenceReport;

    /// Runs until no event remains (quiescence).
    fn run_to_quiescence(&mut self) -> QuiescenceReport {
        self.run_to(SimTime::MAX)
    }

    /// `true` when no event is pending: the simulated network is quiescent.
    fn is_quiescent(&self) -> bool;
}

impl ProtocolWorld for BneckSimulation<'_> {
    fn protocol_name(&self) -> &'static str {
        "B-Neck"
    }

    fn current_rates(&self) -> Allocation {
        BneckSimulation::current_rates(self)
    }

    fn goes_quiescent(&self) -> bool {
        true
    }

    fn packets_sent(&self) -> u64 {
        self.packet_stats().total()
    }

    fn convergence_tolerance_pct(&self) -> Option<f64> {
        None
    }

    fn run_to(&mut self, horizon: SimTime) -> QuiescenceReport {
        self.run_until(horizon)
    }

    fn is_quiescent(&self) -> bool {
        BneckSimulation::is_quiescent(self)
    }
}

/// The non-quiescent protocols the paper compares B-Neck against
/// (Experiment 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Baseline {
    /// Bartal, Farach-Colton, Yooseph and Zhang: per-session state.
    Bfyz,
    /// Cobb and Gouda: constant state per router.
    Cg,
    /// The Rate Control Protocol of Dukkipati et al.
    Rcp,
}

impl Baseline {
    /// Every baseline, in the order the paper's Experiment 3 reports them.
    pub const ALL: [Baseline; 3] = [Baseline::Bfyz, Baseline::Cg, Baseline::Rcp];

    /// The display name, as specs and reports spell it.
    pub fn name(self) -> &'static str {
        match self {
            Baseline::Bfyz => "BFYZ",
            Baseline::Cg => "CG",
            Baseline::Rcp => "RCP",
        }
    }

    /// The baseline spelled `name`, or `None` for any other name.
    pub(crate) fn from_name(name: &str) -> Option<Baseline> {
        Self::ALL
            .into_iter()
            .find(|baseline| baseline.name() == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::NetworkScenario;
    use crate::sessions::{LimitPolicy, SessionPlanner};
    use bneck_core::BneckConfig;
    use bneck_maxmin::prelude::*;

    #[test]
    fn bneck_runs_to_the_exact_rates_through_the_unified_trait() {
        let network = NetworkScenario::small_lan(40).with_seed(4).build();
        let mut planner = SessionPlanner::new(&network, 9);
        let requests = planner.plan(12, LimitPolicy::Unlimited);
        let mut sim = BneckSimulation::new(&network, BneckConfig::default());
        {
            let world: &mut dyn ProtocolWorld = &mut sim;
            for r in &requests {
                assert!(world.apply_join(SimTime::ZERO, r));
            }
            let report = world.run_to_quiescence();
            assert!(report.quiescent);
            assert_eq!(world.protocol_name(), "B-Neck");
            assert!(world.goes_quiescent());
            assert!(world.convergence_tolerance_pct().is_none());
            assert!(world.packets_sent() > 0);
            assert!(world.is_quiescent());
        }
        let sessions = sim.session_set();
        assert_eq!(sessions.len(), requests.len());
        let oracle = CentralizedBneck::new(&network, &sessions).solve();
        let tol = Tolerance::new(1e-6, 10.0);
        let world: &dyn ProtocolWorld = &sim;
        assert!(
            compare_allocations(&sessions, &world.current_rates(), &oracle, tol).is_ok(),
            "quiescent rates through the trait must equal the oracle's"
        );
    }

    #[test]
    fn baselines_round_trip_their_names() {
        for baseline in Baseline::ALL {
            assert_eq!(Baseline::from_name(baseline.name()), Some(baseline));
        }
        assert_eq!(Baseline::from_name("B-Neck"), None);
        assert_eq!(Baseline::from_name("XCP"), None);
    }
}
