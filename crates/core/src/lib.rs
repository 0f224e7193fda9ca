//! # bneck-core
//!
//! The distributed and quiescent B-Neck max-min fair protocol, as specified in
//! Figures 2–4 of the paper, together with a simulation harness that runs it
//! over a [`bneck_net::Network`] on the [`bneck_sim`] discrete-event engine.
//!
//! The protocol is structured exactly like the paper:
//!
//! * [`router_link`] — the `RouterLink(e)` task run for every directed link a
//!   session crosses (Figure 2). It keeps the per-session sets `R_e`/`F_e`,
//!   the per-session probe state `μ_e^s` and assigned rate `λ_e^s`, detects
//!   bottleneck conditions and notifies the affected sessions.
//! * [`source`] — the `SourceNode(s, e)` task run at the session's source host
//!   (Figure 3), which owns the first link of the path, starts Probe cycles
//!   and delivers `API.Rate` notifications to the application.
//! * [`destination`] — the `DestinationNode(s)` task run at the destination
//!   host (Figure 4), which closes Probe cycles and detects missing
//!   bottlenecks.
//! * [`packet`] — the seven protocol packets (`Join`, `Probe`, `Response`,
//!   `Update`, `Bottleneck`, `SetBottleneck`, `Leave`).
//! * [`host`] — [`host::TaskHost`], the host-independent substrate under the
//!   tasks: it owns them, dispatches delivered packets and API calls to them
//!   and routes every packet they emit to the next hop of the session's
//!   path. A host of the protocol (the simulation harness here, the
//!   `bneck-node` runtime on sockets) supplies only delivery, as a
//!   [`host::Sink`].
//! * [`harness`] — [`harness::BneckSimulation`], the simulator host: it
//!   carries packets over the network's links on the discrete-event engine
//!   (modelling transmission and propagation delays) and exposes the
//!   `API.Join` / `API.Leave` / `API.Change` primitives plus quiescence
//!   detection and packet accounting.
//! * [`world`] — the shared world plumbing every protocol harness in the
//!   workspace builds on: [`world::add_link_channels`] makes link `e`
//!   simulator channel `e` (upstream traffic takes the channel of the link's
//!   pair, `LinkId::reverse`), and the [`world::SessionArena`] dense
//!   session-slot arena keeps slot + hop envelope addressing and builds the
//!   oracle's `SessionSet`. `bneck-baselines` instantiates the same module
//!   for its probing harness.
//!
//! The task state machines are pure: every handler consumes an input and
//! emits [`task::Action`]s (packets to send upstream or downstream, or an
//! `API.Rate` notification) into a caller-provided [`task::Emit`]. The task
//! host's emitter carries each action out as it is emitted, with no buffer in
//! between; tests collect them in a [`task::ActionBuffer`]. This makes the
//! protocol logic unit-testable without a simulator, keeps every host a thin
//! delivery layer, and keeps steady-state packet processing free of
//! per-packet allocation.
//!
//! ## Quickstart
//!
//! ```
//! use bneck_net::prelude::*;
//! use bneck_maxmin::prelude::*;
//! use bneck_core::prelude::*;
//! use bneck_sim::SimTime;
//!
//! // Two sessions share a 60 Mbps bottleneck.
//! let net = synthetic::dumbbell(2, Capacity::from_mbps(100.0),
//!                               Capacity::from_mbps(60.0), Delay::from_micros(1));
//! let hosts: Vec<_> = net.hosts().map(|h| h.id()).collect();
//! let mut sim = BneckSimulation::new(&net, BneckConfig::default());
//! sim.join(SimTime::ZERO, SessionId(0), hosts[0], hosts[1], RateLimit::unlimited()).unwrap();
//! sim.join(SimTime::ZERO, SessionId(1), hosts[2], hosts[3], RateLimit::unlimited()).unwrap();
//! let report = sim.run_to_quiescence();
//! assert!(report.quiescent);
//! let rates = sim.allocation();
//! assert!((rates.rate(SessionId(0)).unwrap() - 30e6).abs() < 1.0);
//! assert!((rates.rate(SessionId(1)).unwrap() - 30e6).abs() < 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod config;
pub mod destination;
pub mod events;
pub mod harness;
pub mod host;
pub mod packet;
pub mod recovery;
pub mod router_link;
pub mod source;
pub mod stats;
pub mod task;
pub mod world;

pub use config::BneckConfig;
pub use events::{RateCause, RateEvent, RateEvents, Subscriber, SubscriberSet};
pub use harness::{BneckSimulation, JoinError, QuiescenceReport, UnknownSession};
pub use host::{ApiCall, Sink, Target, TaskHost};
pub use packet::{Packet, PacketKind, ResponseKind};
pub use recovery::RecoveryStats;
pub use stats::PacketStats;
pub use task::{Action, ActionBuffer, Emit};
pub use world::{SessionArena, SlotJoin};

/// Commonly used items, suitable for glob import.
pub mod prelude {
    pub use crate::config::BneckConfig;
    pub use crate::events::{RateCause, RateEvent, RateEvents, Subscriber, SubscriberSet};
    pub use crate::harness::{BneckSimulation, JoinError, QuiescenceReport, UnknownSession};
    pub use crate::packet::{Packet, PacketKind, ResponseKind};
    pub use crate::recovery::RecoveryStats;
    pub use crate::stats::PacketStats;
    pub use crate::task::{Action, ActionBuffer, Emit};
    pub use crate::world::{SessionArena, SlotJoin};
}
