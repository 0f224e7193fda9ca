//! # bneck-node
//!
//! B-Neck off the simulator: a wire codec and a multi-node runtime that host
//! the protocol's task handlers on real threads over real transports.
//!
//! Everything above the byte-moving layer is shared with the simulation
//! harness — the same pure [`bneck_core::source`] / [`bneck_core::destination`]
//! / [`bneck_core::router_link`] handlers behind the same
//! [`bneck_core::TaskHost`]. Both transports are reliable and FIFO, as the
//! paper assumes, so no recovery layer runs here. What this crate adds is the
//! part the simulator faked:
//!
//! * [`codec`] — a compact, versioned, length-prefixed binary format for
//!   protocol packets and API calls. Decoding is total:
//!   malformed bytes become a typed [`codec::DecodeError`], never a panic.
//! * [`transport`] — the [`transport::Transport`] trait with two meshes:
//!   in-process channels (deterministic tests) and loopback TCP sockets
//!   (`TCP_NODELAY`, one bulk-reading thread per connection, frames in batches).
//! * [`runtime`] — [`runtime::NodeRuntime`]: one worker thread per node,
//!   counting-argument silence detection, per-node rate-event subscriptions,
//!   and a coordinator handle for `API.Join` / `API.Leave` / `API.Change`.
//! * [`cluster`] — the demo driver: a chain-of-routers loopback cluster,
//!   join → converged → silent, final rates cross-checked against the
//!   centralized max-min oracle.
//!
//! ## Quickstart
//!
//! ```
//! use bneck_node::cluster::{run_cluster, ClusterSpec, ClusterTransport};
//! use std::time::Duration;
//!
//! let report = run_cluster(ClusterSpec {
//!     nodes: 2,
//!     routers: 3,
//!     sessions: 12,
//!     transport: ClusterTransport::Channel,
//!     timeout: Duration::from_secs(30),
//!     ..ClusterSpec::default()
//! })
//! .unwrap();
//! assert_eq!(report.mismatches, 0, "{report}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod codec;
mod partition;
pub mod runtime;
pub mod transport;

pub use cluster::{run_cluster, ClusterReport, ClusterSpec, ClusterTransport};
pub use codec::{decode_frame, encode_frame, DecodeError, NodeTarget, WireFrame};
pub use runtime::{ClusterPlan, NodeConfig, NodeOutcome, NodeRuntime, SilenceTimeout};
pub use transport::{channel_mesh, tcp_mesh, ChannelEndpoint, TcpEndpoint, Transport};
