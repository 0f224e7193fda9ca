//! The loopback-cluster demo: a parameterized chain topology, a cluster of
//! worker threads over a real transport, and an oracle-checked report.
//!
//! The driver builds a chain of routers joined by 1 Gbps trunks, attaches a
//! fresh pair of 100 Mbps hosts per session (mostly one-trunk-hop "short"
//! sessions, with every K-th session spanning the whole chain so the trunks
//! interact), runs join → converged → silent on a [`NodeRuntime`], and
//! cross-checks the final notified rates against the centralized max-min
//! oracle. The report's `mismatches` count is the demo's verdict — CI greps
//! for `mismatches=0`.

use crate::runtime::{wall_now, ClusterPlan, NodeConfig, NodeRuntime, SilenceTimeout};
use crate::transport::{channel_mesh, tcp_mesh, Transport};
use bneck_maxmin::{compare_allocations, CentralizedBneck, RateLimit, SessionId, Tolerance};
use bneck_net::{Capacity, Delay, Network, NetworkBuilder, Path, Router};
use std::fmt;
use std::io;
use std::time::Duration;

/// Which byte-moving substrate the cluster runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterTransport {
    /// Real `std::net` loopback TCP sockets.
    Tcp,
    /// In-process channels (deterministic, no sockets).
    Channel,
}

impl ClusterTransport {
    /// The name used in reports and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            ClusterTransport::Tcp => "tcp",
            ClusterTransport::Channel => "channel",
        }
    }
}

/// Parameters of a cluster demo run.
#[derive(Debug, Clone, Copy)]
pub struct ClusterSpec {
    /// Worker threads (nodes) the topology is partitioned over.
    pub nodes: usize,
    /// Routers in the chain (at least 2).
    pub routers: usize,
    /// Client sessions, each with its own host pair.
    pub sessions: usize,
    /// Every `long_every`-th session spans the whole chain instead of one
    /// trunk hop (0 disables long sessions).
    pub long_every: usize,
    /// The transport to run on.
    pub transport: ClusterTransport,
    /// Give-up bound on the whole join → silent wait.
    pub timeout: Duration,
}

impl Default for ClusterSpec {
    fn default() -> Self {
        ClusterSpec {
            nodes: 4,
            routers: 8,
            sessions: 1000,
            long_every: 10,
            transport: ClusterTransport::Tcp,
            timeout: Duration::from_secs(120),
        }
    }
}

/// What a demo run reports.
#[derive(Debug)]
pub struct ClusterReport {
    /// The spec the run used.
    pub spec: ClusterSpec,
    /// Frames handed to transports between join and shutdown-begin.
    pub frames: u64,
    /// Throughput over the join → silent interval.
    pub frames_per_sec: f64,
    /// Transport writes the nodes made, summed (the coordinator's few writes
    /// of the join burst are not in it): `frames / writes` is the batching
    /// reached.
    pub writes: u64,
    /// Blobs the nodes received, summed.
    pub blobs: u64,
    /// Wall time from the first join frame to the counters first matching:
    /// the burst's injection plus the wait for silence.
    pub join_to_silent: Duration,
    /// Sessions whose final notified rate disagrees with the centralized
    /// max-min oracle (plus sessions missing a notification).
    pub mismatches: usize,
    /// `API.Rate` events the nodes emitted in total.
    pub rate_events: usize,
    /// Frames that failed to decode, summed over nodes (zero in health).
    pub decode_errors: u64,
    /// Transport send failures, summed over nodes (zero in health).
    pub transport_errors: u64,
}

impl fmt::Display for ClusterReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "bneck-node cluster: nodes={} routers={} sessions={} transport={}",
            self.spec.nodes,
            self.spec.routers,
            self.spec.sessions,
            self.spec.transport.name(),
        )?;
        writeln!(
            f,
            "  frames={} ({:.0} frames/s) writes={} blobs={} join->silent={:.3}s",
            self.frames,
            self.frames_per_sec,
            self.writes,
            self.blobs,
            self.join_to_silent.as_secs_f64(),
        )?;
        writeln!(f, "  oracle check: mismatches={}", self.mismatches)?;
        write!(
            f,
            "  rate_events={} decode_errors={} transport_errors={}",
            self.rate_events, self.decode_errors, self.transport_errors
        )
    }
}

/// Why a demo run failed.
#[derive(Debug)]
pub enum ClusterError {
    /// Socket setup failed (TCP transport only).
    Io(io::Error),
    /// The cluster never went silent within the spec's timeout.
    Timeout(SilenceTimeout),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Io(e) => write!(f, "transport setup failed: {e}"),
            ClusterError::Timeout(t) => t.fmt(f),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<io::Error> for ClusterError {
    fn from(e: io::Error) -> Self {
        ClusterError::Io(e)
    }
}

/// Builds the demo topology and session list: a chain of `routers` joined by
/// 1 Gbps trunks, one fresh 100 Mbps host pair per session.
///
/// Routers are added before any host, which is what [`ClusterPlan`]'s
/// partition requires (hosts inherit the shard of their already-placed
/// router).
///
/// # Panics
///
/// Panics if `routers < 2` or `sessions == 0`.
pub fn build_cluster_topology(spec: &ClusterSpec) -> (Network, Vec<(SessionId, Path, RateLimit)>) {
    assert!(spec.routers >= 2, "the chain needs at least two routers");
    assert!(spec.sessions > 0, "at least one session");
    let trunk = Capacity::from_gbps(1.0);
    let access = Capacity::from_mbps(100.0);
    let delay = Delay::from_micros(5);
    let mut builder = NetworkBuilder::new();
    let routers: Vec<_> = (0..spec.routers).map(|_| builder.add_router()).collect();
    for pair in routers.windows(2) {
        builder.connect(pair[0], pair[1], trunk, delay);
    }
    let mut hosts = Vec::with_capacity(spec.sessions);
    for i in 0..spec.sessions {
        let (a, b) = if spec.long_every > 0 && i % spec.long_every == 0 {
            (0, spec.routers - 1)
        } else {
            let p = i % (spec.routers - 1);
            (p, p + 1)
        };
        let src = builder.add_host(routers[a], access, delay);
        let dst = builder.add_host(routers[b], access, delay);
        hosts.push((src, dst));
    }
    let network = builder.build();
    // One router for the list, so its search trees are built once; the chain
    // has one simple path per host pair.
    let mut router = Router::new(&network);
    let sessions = hosts
        .into_iter()
        .enumerate()
        .map(|(i, (src, dst))| {
            let path = router
                .shortest_path(src, dst)
                .expect("the chain is connected");
            (SessionId(i as u64), path, RateLimit::unlimited())
        })
        .collect();
    (network, sessions)
}

fn boxed<T: Transport + 'static>(endpoints: Vec<T>) -> Vec<Box<dyn Transport>> {
    endpoints
        .into_iter()
        .map(|e| Box::new(e) as Box<dyn Transport>)
        .collect()
}

/// Runs the demo end to end: spawn, join every session, wait for silence,
/// cross-check rates against the centralized oracle, shut down.
pub fn run_cluster(spec: ClusterSpec) -> Result<ClusterReport, ClusterError> {
    let (network, sessions) = build_cluster_topology(&spec);
    let plan = ClusterPlan::new(&network, &sessions, spec.nodes, Tolerance::default());
    let session_set = plan.session_set();
    let endpoints = match spec.transport {
        ClusterTransport::Channel => boxed(channel_mesh(spec.nodes + 1)),
        ClusterTransport::Tcp => boxed(tcp_mesh(spec.nodes + 1)?),
    };
    let mut runtime = NodeRuntime::spawn(plan, endpoints, NodeConfig::default());
    let first_join = wall_now();
    runtime.join_all();
    let injected = first_join.elapsed();
    let join_to_silent = match runtime.await_silence(Duration::ZERO, spec.timeout) {
        Ok(latency) => injected + latency,
        Err(timeout) => {
            runtime.shutdown();
            return Err(ClusterError::Timeout(timeout));
        }
    };
    let frames = runtime.frames_sent();
    let rates = runtime.rates();
    let expected = CentralizedBneck::new(&network, &session_set).solve();
    let mismatches =
        compare_allocations(&session_set, &rates, &expected, Tolerance::new(1e-6, 1.0))
            .err()
            .map_or(0, |violations| violations.len());
    let rate_events = (0..spec.nodes)
        .map(|node| runtime.drain_events(node).len())
        .sum();
    let outcomes = runtime.shutdown();
    let decode_errors = outcomes.iter().map(|o| o.decode_errors).sum();
    let transport_errors = outcomes.iter().map(|o| o.transport_errors).sum();
    let writes = outcomes.iter().map(|o| o.writes).sum();
    let blobs = outcomes.iter().map(|o| o.blobs).sum();
    let secs = join_to_silent.as_secs_f64();
    Ok(ClusterReport {
        spec,
        frames,
        frames_per_sec: if secs > 0.0 {
            frames as f64 / secs
        } else {
            0.0
        },
        writes,
        blobs,
        join_to_silent,
        mismatches,
        rate_events,
        decode_errors,
        transport_errors,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_router_plans_the_paths_a_search_per_session_finds() {
        let spec = ClusterSpec {
            routers: 5,
            sessions: 40,
            long_every: 4,
            ..ClusterSpec::default()
        };
        let (network, sessions) = build_cluster_topology(&spec);
        assert_eq!(sessions.len(), 40);
        let mut hops = std::collections::BTreeSet::new();
        for (id, path, _) in &sessions {
            let searched = network
                .shortest_path(path.source(), path.destination())
                .expect("the chain is connected");
            assert_eq!(path.links(), searched.links(), "{id:?}");
            hops.insert(path.hop_count());
        }
        // One-trunk sessions and chain-spanning ones are both in the list.
        assert_eq!(hops.into_iter().collect::<Vec<_>>(), [3, 6]);
    }
}
