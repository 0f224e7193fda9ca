//! # bneck
//!
//! Facade crate of the B-Neck reproduction: re-exports the public API of every
//! component crate so downstream users can depend on a single crate.
//!
//! The repository implements the paper *"B-Neck: A Distributed and Quiescent
//! Max-min Fair Algorithm"* (Mozo, López-Presa, Fernández Anta): a distributed
//! protocol that computes max-min fair session rates and — uniquely — stops
//! generating any control traffic once the rates have been computed.
//!
//! | Component | Crate | Re-exported as |
//! |---|---|---|
//! | Network model & topologies | `bneck-net` | [`net`] |
//! | Discrete-event simulator | `bneck-sim` | [`sim`] |
//! | Max-min theory & centralized oracles | `bneck-maxmin` | [`maxmin`] |
//! | The distributed B-Neck protocol | `bneck-core` | [`core`] |
//! | Non-quiescent baselines (BFYZ, CG, RCP) | `bneck-baselines` | [`baselines`] |
//! | Workload / scenario generation | `bneck-workload` | [`workload`] |
//! | Measurement & reporting | `bneck-metrics` | [`metrics`] |
//!
//! ## Quickstart
//!
//! The paper's interface is push-based: `API.Join`/`API.Leave`/`API.Change`
//! go in, asynchronous `API.Rate` notifications come out — and, B-Neck being
//! quiescent, the notifications *stop* once the allocation has converged.
//! Subscribe to the [`core::RateEvent`] stream instead of polling:
//!
//! ```
//! use bneck::prelude::*;
//!
//! // Three sessions share a 90 Mbps bottleneck; one caps itself at 10 Mbps.
//! let net = synthetic::dumbbell(3, Capacity::from_mbps(100.0),
//!                               Capacity::from_mbps(90.0), Delay::from_micros(1));
//! let hosts: Vec<_> = net.hosts().map(|h| h.id()).collect();
//! let mut sim = BneckSimulation::new(&net, BneckConfig::default());
//! let events = sim.rate_events();     // drainable API.Rate stream
//!
//! let s0 = SessionId(0);
//! sim.join(SimTime::ZERO, s0, hosts[0], hosts[1], RateLimit::finite(10e6)).unwrap();
//! sim.join(SimTime::ZERO, SessionId(1), hosts[2], hosts[3], RateLimit::unlimited()).unwrap();
//! sim.join(SimTime::ZERO, SessionId(2), hosts[4], hosts[5], RateLimit::unlimited()).unwrap();
//! let report = sim.run_to_quiescence();
//! assert!(report.quiescent);
//!
//! // The stream delivered each session's convergence, tagged with its cause.
//! let converged = events.drain();
//! assert!(converged.iter().any(|e|
//!     e.session == s0 && e.cause == RateCause::Joined && (e.rate - 10e6).abs() < 1.0));
//! assert!(converged.iter().any(|e|
//!     e.session == SessionId(1) && (e.rate - 40e6).abs() < 1.0));
//!
//! // Quiescent means *silent*: running further produces no traffic and no
//! // further notifications.
//! sim.run_to_quiescence();
//! assert!(events.is_empty());
//! let rates = sim.allocation();
//! assert!((rates.rate(SessionId(2)).unwrap() - 40e6).abs() < 1.0);
//! ```
//!
//! Experiments are driven declaratively through the `bneck` CLI of
//! `bneck-bench` (`bneck run --preset exp1`, `bneck bench-presets`, ...).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use bneck_baselines as baselines;
pub use bneck_core as core;
pub use bneck_maxmin as maxmin;
pub use bneck_metrics as metrics;
pub use bneck_net as net;
pub use bneck_sim as sim;
pub use bneck_workload as workload;

/// One-stop prelude combining the preludes of every component crate.
pub mod prelude {
    pub use bneck_baselines::prelude::*;
    pub use bneck_core::prelude::*;
    pub use bneck_maxmin::prelude::*;
    pub use bneck_metrics::prelude::*;
    pub use bneck_net::prelude::*;
    pub use bneck_sim::prelude::*;
    pub use bneck_workload::prelude::*;
}
