//! # bneck-baselines
//!
//! Re-implementations of the three non-quiescent protocols the paper compares
//! B-Neck against in Experiment 3:
//!
//! * [`bfyz`] — **BFYZ** (Bartal, Farach-Colton, Yooseph, Zhang), representing
//!   the family of explicit-rate max-min algorithms that keep *per-session
//!   state* at every router. Implemented as consistent-marking explicit-rate
//!   probing: each link records every session's current rate and advertises a
//!   water-filled share.
//! * [`cg`] — **CG** (Cobb & Gouda), representing stabilizing algorithms that
//!   keep only *constant state* per router: each link estimates the number of
//!   sessions crossing it and advertises an equal share of its capacity.
//! * [`rcp`] — **RCP** (Dukkipati et al.), representing modern explicit
//!   congestion controllers: each link maintains a single advertised rate
//!   updated with a proportional control law, without per-session state.
//!
//! All three run on the same periodic-probing harness ([`common`]): sources
//! keep sending probe packets forever (they cannot detect convergence), links
//! stamp their advertised rate, destinations echo responses, and sources adopt
//! the granted rate — which is exactly why, unlike B-Neck, these protocols
//! keep injecting control traffic after the rates have converged (Figure 8 of
//! the paper).
//!
//! [`simulation`] builds any of the three from its [`Baseline`] tag.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod bfyz;
pub mod cg;
pub mod common;
pub mod rcp;

pub use bfyz::Bfyz;
pub use cg::CobbGouda;
pub use common::{BaselineProtocol, BaselineSimulation, LinkController};
pub use rcp::Rcp;

use bneck_net::Network;
use bneck_workload::{Baseline, ProtocolWorld};

/// A fresh simulation of `baseline` over `net`, with the protocol's default
/// parameters. Adding a protocol means adding a [`Baseline`] variant and its
/// arm here.
pub fn simulation(baseline: Baseline, net: &Network) -> Box<dyn ProtocolWorld + '_> {
    match baseline {
        Baseline::Bfyz => Box::new(BaselineSimulation::new(net, Bfyz::default())),
        Baseline::Cg => Box::new(BaselineSimulation::new(net, CobbGouda::default())),
        Baseline::Rcp => Box::new(BaselineSimulation::new(net, Rcp::default())),
    }
}

/// Commonly used items, suitable for glob import.
pub mod prelude {
    pub use crate::bfyz::Bfyz;
    pub use crate::cg::CobbGouda;
    pub use crate::common::{BaselineProtocol, BaselineSimulation, LinkController};
    pub use crate::rcp::Rcp;
}
