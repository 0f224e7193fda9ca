//! # bneck-maxmin
//!
//! Max-min fairness theory for the B-Neck reproduction:
//!
//! * [`session`] — sessions (a path through the network plus a maximum
//!   requested rate) and indexed session sets;
//! * [`rate`] — rates in bits per second and the tolerance-aware comparisons
//!   used throughout the protocols;
//! * [`waterfill`] — the classic progressive-filling (Water-Filling)
//!   algorithm;
//! * [`centralized`] — the Centralized B-Neck algorithm of Figure 1 of the
//!   paper, which additionally reports each link's bottleneck sets;
//! * [`verify`] — checks that an allocation satisfies the max-min fairness
//!   conditions and compares allocations produced by different algorithms;
//! * [`fastmap`] — the fast non-cryptographic hash maps the simulation
//!   engines use for their id → dense-slot lookups;
//! * [`idmap`] — an inline open-addressing id → slot table for the per-link
//!   hot path, where even a fast `HashMap`'s extra indirection shows up.
//!
//! Both centralized algorithms serve as the correctness oracle against which
//! the distributed protocol (crate `bneck-core`) is validated, exactly as the
//! paper validates its simulations against a centralized computation.
//!
//! ## Example
//!
//! ```
//! use bneck_net::prelude::*;
//! use bneck_maxmin::prelude::*;
//!
//! // Three sources share a 90 Mbps bottleneck; one of them only wants 10 Mbps.
//! let net = synthetic::dumbbell(3, Capacity::from_mbps(100.0),
//!                               Capacity::from_mbps(90.0), Delay::from_micros(1));
//! let hosts: Vec<_> = net.hosts().map(|h| h.id()).collect();
//! let mut router = Router::new(&net);
//! let mut sessions = SessionSet::new();
//! for i in 0..3 {
//!     let path = router.shortest_path(hosts[2 * i], hosts[2 * i + 1]).unwrap();
//!     let cap = if i == 0 { RateLimit::finite(10e6) } else { RateLimit::unlimited() };
//!     sessions.insert(Session::new(SessionId(i as u64), path, cap));
//! }
//! let allocation = CentralizedBneck::new(&net, &sessions).solve();
//! assert!((allocation.rate(SessionId(0)).unwrap() - 10e6).abs() < 1.0);
//! assert!((allocation.rate(SessionId(1)).unwrap() - 40e6).abs() < 1.0);
//! assert!(verify_max_min(&net, &sessions, &allocation).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod centralized;
pub mod idmap;
#[cfg(test)]
pub(crate) mod naive;
pub mod rate;
pub mod session;
pub mod verify;
pub mod waterfill;
mod workspace;

pub use centralized::{CentralizedBneck, CentralizedSolution, LinkBottleneck};
pub use idmap::IdSlotMap;
pub use rate::{Rate, RateLimit, Tolerance};
pub use session::{Allocation, Session, SessionId, SessionSet};
pub use verify::{compare_allocations, verify_max_min, Violation};
pub use waterfill::WaterFilling;

/// Commonly used items, suitable for glob import.
pub mod prelude {
    pub use crate::centralized::{CentralizedBneck, CentralizedSolution, LinkBottleneck};
    pub use crate::rate::{Rate, RateLimit, Tolerance};
    pub use crate::session::{Allocation, Session, SessionId, SessionSet};
    pub use crate::verify::{compare_allocations, verify_max_min, Violation};
    pub use crate::waterfill::WaterFilling;
}
