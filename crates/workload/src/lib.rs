//! # bneck-workload
//!
//! Workload and scenario generation for the B-Neck experiments:
//!
//! * [`scenario`] — the evaluation networks (Small/Medium/Big transit–stub
//!   topologies in LAN or WAN flavour, as in Section IV of the paper);
//! * [`sessions`] — random session planning (source/destination hosts chosen
//!   uniformly at random, one session per source host, optional maximum-rate
//!   requests);
//! * [`schedule`] — timed `Join`/`Leave`/`Change` event schedules and their
//!   application to a protocol harness;
//! * [`protocol`] — the unified [`protocol::ProtocolWorld`] trait every
//!   protocol-under-test (B-Neck and the baselines) implements, so the
//!   experiment drivers run any protocol through one code path;
//! * [`dynamics`] — phase-structured churn (the join/leave/change phases of
//!   Experiment 2);
//! * [`experiments`] — ready-made configurations for the paper's three
//!   experiments, with both paper-scale and CI-scale parameter sets;
//! * [`registry`] — by-name factories: [`registry::ProtocolRegistry`] builds
//!   protocols-under-test, [`registry::TopologyRegistry`] builds the named
//!   topology presets;
//! * [`spec`] — declarative, serializable experiment specifications
//!   ([`spec::ExperimentSpec`]): topology + workload + protocols + seeds +
//!   repeats + output selection as data, with shipped presets reproducing
//!   the paper's evaluation matrix.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod dynamics;
pub mod experiments;
pub mod protocol;
pub mod registry;
pub mod scenario;
pub mod schedule;
pub mod sessions;
pub mod spec;

pub use dynamics::DynamicsPlanner;
pub use experiments::{Experiment1Config, Experiment2Config, Experiment3Config, PhaseSpec};
pub use protocol::ProtocolWorld;
pub use registry::{ProtocolRegistry, TopologyRegistry};
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
    pub use crate::experiments::{
        Experiment1Config, Experiment2Config, Experiment3Config, PhaseSpec,
    };
    pub use crate::protocol::ProtocolWorld;
    pub use crate::registry::{ProtocolRegistry, TopologyRegistry};
    pub use crate::scenario::NetworkScenario;
    pub use crate::schedule::{ApplyStats, Schedule, ScheduleTarget, TimedEvent, WorkloadEvent};
    pub use crate::sessions::{LimitPolicy, SessionPlanner, SessionRequest};
    pub use crate::spec::{
        ExperimentKind, ExperimentSpec, FaultPoint, FaultSweepSpec, ScenarioSpec, SpecError,
    };
}
