//! One scenario, two hosts of the same [`bneck_core::TaskHost`]: the
//! simulation harness and the node runtime on real threads. They must agree
//! on what the protocol computes — final rates bit for bit, and for every
//! session the same story of `API.Rate` causes — while differing freely in
//! how deliveries of different sessions interleave.

use bneck_core::{BneckConfig, BneckSimulation, RateCause, RateEvent};
use bneck_maxmin::{
    compare_allocations, Allocation, CentralizedBneck, RateLimit, SessionId, Tolerance,
};
use bneck_net::topology::synthetic;
use bneck_net::{Capacity, Delay, Network, Path};
use bneck_node::{channel_mesh, ClusterPlan, NodeConfig, NodeRuntime, Transport};
use bneck_sim::SimTime;
use std::time::Duration;

const SETTLE: Duration = Duration::from_millis(2);
const TIMEOUT: Duration = Duration::from_secs(60);
/// The session whose limit changes, and the one that leaves.
const CHANGED: SessionId = SessionId(1);
const LEFT: SessionId = SessionId(2);
const NEW_LIMIT: f64 = 9e6;

/// A parking lot with one long session over the whole backbone and one short
/// session per segment. Capacities and the changed limit are whole numbers
/// of bits per second, so every sum the protocol forms is exact and the
/// hosts can be compared bit for bit.
fn scenario() -> (Network, Vec<(SessionId, Path, RateLimit)>) {
    let network = synthetic::parking_lot(
        5,
        Capacity::from_mbps(100.0),
        Capacity::from_mbps(80.0),
        Delay::from_micros(25),
    );
    let hosts: Vec<_> = network.hosts().map(|h| h.id()).collect();
    let n = hosts.len();
    let mut ends = vec![(hosts[0], hosts[n - 1])];
    ends.extend((1..n - 1).map(|i| (hosts[i], hosts[i + 1])));
    let sessions = ends
        .into_iter()
        .enumerate()
        .map(|(i, (src, dst))| {
            let path = network.shortest_path(src, dst).expect("connected");
            (SessionId(i as u64), path, RateLimit::unlimited())
        })
        .collect();
    (network, sessions)
}

/// What a host reports: final rates and every rate event, per stream.
type Outcome = (Allocation, Vec<Vec<RateEvent>>);

fn serial(network: &Network, sessions: &[(SessionId, Path, RateLimit)]) -> Outcome {
    let mut sim = BneckSimulation::new(network, BneckConfig::default());
    let events = sim.rate_events();
    for (id, path, limit) in sessions {
        sim.join_with_path(SimTime::ZERO, *id, path.clone(), *limit)
            .unwrap();
    }
    assert!(sim.run_to_quiescence().quiescent);
    sim.change(sim.now(), CHANGED, RateLimit::finite(NEW_LIMIT))
        .unwrap();
    assert!(sim.run_to_quiescence().quiescent);
    sim.leave(sim.now(), LEFT).unwrap();
    assert!(sim.run_to_quiescence().quiescent);

    let expected = CentralizedBneck::new(network, &sim.session_set()).solve();
    let rates = sim.allocation();
    compare_allocations(
        &sim.session_set(),
        &rates,
        &expected,
        Tolerance::new(1e-6, 1.0),
    )
    .expect("the serial harness must match the oracle");
    (rates, vec![events.drain()])
}

fn runtime(network: &Network, sessions: &[(SessionId, Path, RateLimit)]) -> Outcome {
    let plan = ClusterPlan::new(network, sessions, 2, Tolerance::default());
    let slot_of = |id: SessionId| sessions.iter().position(|s| s.0 == id).unwrap() as u32;
    let endpoints = channel_mesh(3)
        .into_iter()
        .map(|e| Box::new(e) as Box<dyn Transport>)
        .collect();
    let mut cluster = NodeRuntime::spawn(plan, endpoints, NodeConfig::default());
    cluster.join_all();
    cluster.await_silence(SETTLE, TIMEOUT).expect("after joins");
    cluster.change(slot_of(CHANGED), RateLimit::finite(NEW_LIMIT));
    cluster
        .await_silence(SETTLE, TIMEOUT)
        .expect("after change");
    cluster.leave(slot_of(LEFT));
    cluster.await_silence(SETTLE, TIMEOUT).expect("after leave");
    let rates = cluster.rates();
    let events = (0..2).map(|node| cluster.drain_events(node)).collect();
    for outcome in cluster.shutdown() {
        assert_eq!(outcome.decode_errors, 0);
        assert_eq!(outcome.transport_errors, 0);
    }
    (rates, events)
}

/// The causes of `session`'s events, in order. A session's events all come
/// from the host of its source task, hence from a single stream.
fn causes(streams: &[Vec<RateEvent>], session: SessionId) -> Vec<RateCause> {
    let mut own = streams
        .iter()
        .map(|s| s.iter().filter(|e| e.session == session))
        .map(|events| events.map(|e| e.cause).collect::<Vec<_>>())
        .filter(|causes| !causes.is_empty());
    let causes = own.next().expect("every session is notified");
    assert!(own.next().is_none(), "{session:?} notified from two hosts");
    causes
}

#[test]
fn two_hosts_agree_on_rates_and_on_each_sessions_story() {
    let (network, sessions) = scenario();
    let hosts = [
        ("serial", serial(&network, &sessions)),
        ("runtime", runtime(&network, &sessions)),
    ];
    let (_, (reference, _)) = &hosts[0];
    for (name, (rates, streams)) in &hosts {
        for (session, ..) in &sessions {
            // Exactly one `Joined`, then one `Changed` per change and one
            // `Left` per leave, in that order, with only `Converged` between.
            let mut story = vec![RateCause::Joined];
            story.extend((*session == CHANGED).then_some(RateCause::Changed));
            story.extend((*session == LEFT).then_some(RateCause::Left));
            let causes = causes(streams, *session);
            let milestones: Vec<_> = causes
                .iter()
                .filter(|c| **c != RateCause::Converged)
                .collect();
            assert_eq!(
                milestones,
                story.iter().collect::<Vec<_>>(),
                "{name} {session:?}"
            );
            assert_eq!(causes[0], RateCause::Joined, "{name} {session:?}");
            if *session == LEFT {
                assert_eq!(causes.last(), Some(&RateCause::Left), "{name}");
                continue; // Its last rate is history, not an allocation.
            }
            let (rate, expected) = (rates.rate(*session), reference.rate(*session));
            assert_eq!(
                rate.map(f64::to_bits),
                expected.map(f64::to_bits),
                "{name} {session:?}: {rate:?} vs {expected:?}"
            );
        }
    }
}
