//! # bneck-sim
//!
//! A deterministic discrete-event network simulator, playing the role of the
//! modified Peersim simulator used in the paper's evaluation.
//!
//! The simulator delivers *messages* between *addresses* (opaque endpoints
//! owned by a protocol harness) through *channels* that model a directed
//! network link: a FIFO transmission queue with finite bandwidth plus a
//! propagation delay. The protocol under simulation implements the [`World`]
//! trait; the engine pops events in timestamp order (FIFO among equal
//! timestamps) and hands them to the world, which may send further messages.
//!
//! Quiescence — the property at the heart of the B-Neck paper — maps directly
//! onto the simulator: the network is quiescent when the event queue is empty,
//! and [`Engine::run`] reports the timestamp of the last processed event.
//!
//! ## Example
//!
//! ```
//! use bneck_sim::prelude::*;
//!
//! // A world that forwards a token `hops` times through one channel.
//! struct Relay { hops: u32, delivered: u32, channel: ChannelId }
//! impl World for Relay {
//!     type Message = u32;
//!     fn handle(&mut self, ctx: &mut Context<'_, u32>, _to: Address, msg: u32) {
//!         self.delivered += 1;
//!         if msg < self.hops {
//!             ctx.send(self.channel, Address(0), msg + 1);
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new();
//! let ch = engine.add_channel(ChannelSpec::new(1e6, bneck_net::Delay::from_micros(10), 512));
//! let mut world = Relay { hops: 5, delivered: 0, channel: ch };
//! engine.inject(SimTime::ZERO, Address(0), 1);
//! let report = engine.run(&mut world);
//! assert_eq!(world.delivered, 5);
//! assert!(report.quiescent_at > SimTime::ZERO);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod channel;
pub mod engine;
pub mod event;
pub mod explore;
pub mod fault;
pub mod time;

pub use channel::{ChannelId, ChannelSpec};
pub use engine::{Address, Context, Engine, RunReport, World};
pub use explore::{explore_schedules, ExploreStats, ScheduleCursor};
pub use fault::{FaultCounters, FaultPlan};
pub use time::SimTime;

/// Commonly used items, suitable for glob import.
pub mod prelude {
    pub use crate::channel::{ChannelId, ChannelSpec};
    pub use crate::engine::{Address, Context, Engine, RunReport, World};
    pub use crate::explore::{explore_schedules, ExploreStats, ScheduleCursor};
    pub use crate::fault::{FaultCounters, FaultPlan};
    pub use crate::time::SimTime;
}
