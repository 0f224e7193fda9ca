//! # bneck-net
//!
//! Network model for the B-Neck reproduction: a directed graph of routers and
//! hosts connected by capacitated links with propagation delays, plus the
//! topology generators used by the paper's evaluation (`paper_network`, a
//! gt-itm style transit–stub generator, and a family of small synthetic
//! topologies) and shortest-path routing for sessions.
//!
//! The paper models the network as a simple directed graph `G = (V, E)` where
//! connected nodes have links in both directions, hosts hang off a single
//! router through a dedicated link, and every session follows a static
//! shortest path from its source host to its destination host
//! (Section II of the paper).
//!
//! ## Example
//!
//! ```
//! use bneck_net::prelude::*;
//!
//! // Two hosts connected through one router; both host links have 100 Mbps.
//! let mut b = NetworkBuilder::new();
//! let r = b.add_router();
//! let a = b.add_host(r, Capacity::from_mbps(100.0), Delay::from_micros(1));
//! let z = b.add_host(r, Capacity::from_mbps(100.0), Delay::from_micros(1));
//! let net = b.build();
//! let path = net.shortest_path(a, z).expect("hosts are connected");
//! assert_eq!(path.hop_count(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod capacity;
pub mod delay;
pub mod graph;
pub mod path;
pub mod routing;
pub mod topology;

pub use capacity::Capacity;
pub use delay::Delay;
pub use graph::{Link, LinkId, Network, NetworkBuilder, Node, NodeId, NodeKind};
pub use path::Path;
pub use routing::Router;
pub use topology::synthetic;
pub use topology::transit_stub::NetworkSize;
pub use topology::DelayModel;

/// Commonly used items, suitable for glob import.
pub mod prelude {
    pub use crate::capacity::Capacity;
    pub use crate::delay::Delay;
    pub use crate::graph::{Link, LinkId, Network, NetworkBuilder, Node, NodeId, NodeKind};
    pub use crate::path::Path;
    pub use crate::routing::Router;
    pub use crate::topology::transit_stub::NetworkSize;
    pub use crate::topology::{synthetic, DelayModel};
}
