//! # bneck-workload
//!
//! Workload and scenario generation for the B-Neck experiments:
//!
//! * [`scenario`] — the evaluation networks (Small/Medium/Big transit–stub
//!   topologies in LAN or WAN flavour, as in Section IV of the paper), named
//!   by [`NetworkScenario::preset`];
//! * [`sessions`] — random session planning (source/destination hosts chosen
//!   uniformly at random, one session per source host, optional maximum-rate
//!   requests);
//! * [`schedule`] — timed `Join`/`Leave`/`Change` event schedules and their
//!   application to a protocol harness;
//! * [`protocol`] — the unified [`protocol::ProtocolWorld`] trait every
//!   protocol-under-test (B-Neck and the baselines) implements, so the
//!   experiment drivers run any protocol through one code path, and the
//!   closed [`protocol::Baseline`] set;
//! * [`dynamics`] — phase-structured churn (the join/leave/change phases of
//!   Experiment 2);
//! * [`experiments`] — the workloads of the paper's three experiments:
//!   [`Experiment1Config`], the one run description (a join burst), plus
//!   the churn phases and the joins-plus-leaves schedule planned from their
//!   specs;
//! * [`spec`] — declarative, serializable experiment specifications
//!   ([`spec::ExperimentSpec`]): topology + workload + protocols + seeds +
//!   repeats + output selection as data, with shipped presets holding the
//!   paper's evaluation matrix.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod dynamics;
pub mod experiments;
pub mod protocol;
pub mod scenario;
pub mod schedule;
pub mod sessions;
pub mod spec;

pub use dynamics::DynamicsPlanner;
pub use experiments::{Experiment1Config, PhaseSpec};
pub use protocol::{Baseline, ProtocolWorld};
pub use scenario::NetworkScenario;
pub use schedule::{ApplyStats, Schedule, ScheduleTarget, TimedEvent, WorkloadEvent};
pub use sessions::{LimitPolicy, SessionPlanner, SessionRequest};
pub use spec::{
    AccuracySpec, ChurnSpec, ExperimentKind, ExperimentSpec, FaultPoint, FaultSweepSpec, JoinsSpec,
    OutputSpec, ScaleSpec, ScenarioSpec, SpecError, ValidationSpec,
};

/// Commonly used items, suitable for glob import.
pub mod prelude {
    pub use crate::dynamics::DynamicsPlanner;
    pub use crate::experiments::{Experiment1Config, PhaseSpec};
    pub use crate::protocol::{Baseline, ProtocolWorld};
    pub use crate::scenario::NetworkScenario;
    pub use crate::schedule::{ApplyStats, Schedule, ScheduleTarget, TimedEvent, WorkloadEvent};
    pub use crate::sessions::{LimitPolicy, SessionPlanner, SessionRequest};
    pub use crate::spec::{
        ExperimentKind, ExperimentSpec, FaultPoint, FaultSweepSpec, ScenarioSpec, SpecError,
    };
}
