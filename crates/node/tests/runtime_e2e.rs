//! End-to-end tests of the multi-node runtime: real threads, real (or
//! in-process) transports, no simulator anywhere — rates must still land
//! exactly on the centralized max-min oracle and the control plane must go
//! measurably silent.

use bneck_maxmin::{compare_allocations, CentralizedBneck, RateLimit, SessionId, Tolerance};
use bneck_net::topology::synthetic;
use bneck_net::{Capacity, Delay, Network, Path};
use bneck_node::cluster::{run_cluster, ClusterSpec, ClusterTransport};
use bneck_node::runtime::{ClusterPlan, NodeConfig, NodeRuntime};
use bneck_node::transport::{channel_mesh, Transport};
use std::time::Duration;

const SETTLE: Duration = Duration::from_millis(2);
const TIMEOUT: Duration = Duration::from_secs(60);

/// A dumbbell with two host pairs and its two cross-bottleneck sessions.
fn dumbbell_sessions() -> (Network, Vec<(SessionId, Path, RateLimit)>) {
    let network = synthetic::dumbbell(
        2,
        Capacity::from_mbps(100.0),
        Capacity::from_mbps(60.0),
        Delay::from_micros(1),
    );
    let hosts: Vec<_> = network.hosts().map(|h| h.id()).collect();
    let sessions = vec![
        (
            SessionId(0),
            network.shortest_path(hosts[0], hosts[1]).unwrap(),
            RateLimit::unlimited(),
        ),
        (
            SessionId(1),
            network.shortest_path(hosts[2], hosts[3]).unwrap(),
            RateLimit::unlimited(),
        ),
    ];
    (network, sessions)
}

fn boxed<T: Transport + 'static>(endpoints: Vec<T>) -> Vec<Box<dyn Transport>> {
    endpoints
        .into_iter()
        .map(|e| Box::new(e) as Box<dyn Transport>)
        .collect()
}

#[test]
fn dumbbell_two_sessions_are_oracle_exact_and_go_silent() {
    let (network, sessions) = dumbbell_sessions();
    let plan = ClusterPlan::new(&network, &sessions, 2, Tolerance::default());
    let session_set = plan.session_set();
    let mut runtime = NodeRuntime::spawn(plan, boxed(channel_mesh(3)), NodeConfig::default());
    runtime.join_all();
    let latency = runtime
        .await_silence(SETTLE, TIMEOUT)
        .expect("the cluster must go silent");
    assert!(latency <= TIMEOUT);

    // Both sessions share the 60 Mbps bottleneck: 30 Mbps each, and the full
    // allocation must agree with the centralized oracle.
    let rates = runtime.rates();
    assert!((rates.rate(SessionId(0)).unwrap() - 30e6).abs() < 1.0);
    assert!((rates.rate(SessionId(1)).unwrap() - 30e6).abs() < 1.0);
    let expected = CentralizedBneck::new(&network, &session_set).solve();
    compare_allocations(&session_set, &rates, &expected, Tolerance::new(1e-6, 1.0))
        .expect("runtime rates must match the oracle exactly");

    // Each source emitted at least its convergence notification, and once
    // silent, the event stream stays dry.
    let events: Vec<_> = (0..2).flat_map(|node| runtime.drain_events(node)).collect();
    assert!(
        events.iter().any(|e| e.session == SessionId(0))
            && events.iter().any(|e| e.session == SessionId(1)),
        "both sessions must have notified: {events:?}"
    );
    std::thread::sleep(Duration::from_millis(5));
    let after: usize = (0..2).map(|node| runtime.drain_events(node).len()).sum();
    assert_eq!(after, 0, "a silent cluster must emit no further events");

    for outcome in runtime.shutdown() {
        assert_eq!(outcome.decode_errors, 0);
        assert_eq!(outcome.transport_errors, 0);
    }
}

#[test]
fn change_and_leave_rebalance_to_the_oracle() {
    let (network, sessions) = dumbbell_sessions();
    let plan = ClusterPlan::new(&network, &sessions, 2, Tolerance::default());
    let mut runtime = NodeRuntime::spawn(plan, boxed(channel_mesh(3)), NodeConfig::default());
    runtime.join_all();
    runtime.await_silence(SETTLE, TIMEOUT).expect("initial run");

    // Capping session 0 at 10 Mbps frees bottleneck share for session 1.
    runtime.change(0, RateLimit::finite(10e6));
    runtime
        .await_silence(SETTLE, TIMEOUT)
        .expect("after change");
    let rates = runtime.rates();
    assert!((rates.rate(SessionId(0)).unwrap() - 10e6).abs() < 1.0);
    assert!((rates.rate(SessionId(1)).unwrap() - 50e6).abs() < 1.0);

    // Session 0 leaving hands session 1 the whole bottleneck.
    runtime.leave(0);
    runtime.await_silence(SETTLE, TIMEOUT).expect("after leave");
    let rates = runtime.rates();
    assert!((rates.rate(SessionId(1)).unwrap() - 60e6).abs() < 1.0);
    runtime.shutdown();
}

#[test]
fn tcp_cluster_matches_oracle() {
    let report = run_cluster(ClusterSpec {
        nodes: 3,
        routers: 4,
        sessions: 48,
        long_every: 6,
        transport: ClusterTransport::Tcp,
        timeout: TIMEOUT,
    })
    .expect("tcp cluster run");
    assert_eq!(report.mismatches, 0, "{report}");
    assert_eq!(report.decode_errors, 0, "{report}");
    assert_eq!(report.transport_errors, 0, "{report}");
    assert!(report.frames > 0 && report.rate_events >= 48, "{report}");
}

#[test]
fn more_nodes_than_routers_leave_idle_nodes_and_stay_oracle_exact() {
    // Five nodes over two routers: the rank-block placement leaves three
    // nodes hosting no task at all. They must idle without stalling the
    // silence detection (a timeout fails the `expect`).
    let report = run_cluster(ClusterSpec {
        nodes: 5,
        routers: 2,
        sessions: 12,
        transport: ClusterTransport::Channel,
        timeout: TIMEOUT,
        ..ClusterSpec::default()
    })
    .expect("cluster run with idle nodes");
    assert_eq!(report.mismatches, 0, "{report}");
    assert_eq!(report.decode_errors, 0, "{report}");
    assert_eq!(report.transport_errors, 0, "{report}");
}

#[test]
fn single_node_cluster_works_without_any_wire_traffic_beyond_api() {
    // Everything lands on one node: the only transport frames are the
    // coordinator's API calls and the shutdown, proving local dispatch is a
    // complete fast path.
    let (network, sessions) = dumbbell_sessions();
    let plan = ClusterPlan::new(&network, &sessions, 1, Tolerance::default());
    let mut runtime = NodeRuntime::spawn(plan, boxed(channel_mesh(2)), NodeConfig::default());
    runtime.join_all();
    runtime.await_silence(SETTLE, TIMEOUT).expect("silence");
    let rates = runtime.rates();
    assert!((rates.rate(SessionId(0)).unwrap() - 30e6).abs() < 1.0);
    assert_eq!(
        runtime.frames_sent(),
        2,
        "exactly the two join frames cross the wire before shutdown"
    );
    runtime.shutdown();
}

/// Every session crosses the one trunk, so every protocol packet crosses the
/// socket: the shape where frames must leave and arrive in batches.
fn wire_bound() -> ClusterSpec {
    ClusterSpec {
        nodes: 2,
        routers: 2,
        sessions: 2_000,
        long_every: 0,
        transport: ClusterTransport::Tcp,
        timeout: TIMEOUT,
    }
}

#[test]
fn wire_bound_tcp_cluster_batches_its_frames_and_stays_oracle_exact() {
    let report = run_cluster(wire_bound()).expect("wire-bound tcp run");
    assert_eq!(report.mismatches, 0, "{report}");
    assert_eq!(report.decode_errors, 0, "{report}");
    assert_eq!(report.transport_errors, 0, "{report}");
    // Far looser than what a run reaches (a hundred frames per write): the
    // bar only says that a frame no longer costs a write.
    assert!(report.writes > 0 && report.blobs > 0, "{report}");
    assert!(report.frames >= 2 * report.writes, "{report}");
}
