//! The two cluster workloads: `cluster_chain` (handler-bound) and
//! `cluster_wire` (wire-bound). Both run the node runtime on exactly two node
//! threads plus the coordinator, over loopback TCP.

use crate::run::Run;
use crate::seeds::SplitMix64;
use crate::sim::{op_layers, packet_kind_layers, trace_overhead};
use crate::stats::median;
use bneck_core::PacketStats;
use bneck_maxmin::{Allocation, CentralizedBneck, RateLimit, SessionSet, Tolerance};
use bneck_net::Network;
use bneck_node::cluster::{build_cluster_topology, ClusterSpec};
use bneck_node::{tcp_mesh, ClusterPlan, NodeConfig, NodeOutcome, NodeRuntime, Transport};
use std::time::Duration;

/// Node threads of every cluster (the coordinator is the benchmark's thread).
pub const NODES: usize = 2;
/// The settle window of measured silence, as in `bneck node`.
const SETTLE: Duration = Duration::from_millis(2);
/// Give-up bound on one wait for silence.
const TIMEOUT: Duration = Duration::from_secs(60);

/// The oracle tolerance of the cluster demo (`bneck node`).
fn oracle_tolerance() -> Tolerance {
    Tolerance::new(1e-6, 1.0)
}

/// `cluster_chain`: the `bneck node` shape — an 8-router chain where every
/// tenth session spans the chain. Millions of node-local deliveries per
/// burst, few frames on the wire; then single operations on a standing
/// cluster.
pub fn cluster_chain(run: &mut Run) {
    let sessions = run.size(2_000, 200);
    cluster(
        run,
        Shape {
            routers: 8,
            sessions,
            long_every: 10,
            burst_share: 0.7,
        },
    );
}

/// `cluster_wire`: two routers, every session crosses the one trunk, so every
/// protocol packet crosses the socket.
pub fn cluster_wire(run: &mut Run) {
    let sessions = run.size(10_000, 1_000);
    cluster(
        run,
        Shape {
            routers: 2,
            sessions,
            long_every: 0,
            burst_share: 1.0,
        },
    );
}

struct Shape {
    routers: usize,
    sessions: usize,
    long_every: usize,
    /// Share of `--seconds` spent on join bursts; the rest goes to single
    /// operations on a standing cluster.
    burst_share: f64,
}

/// A running cluster that is shut down when dropped, so no path — not even a
/// panic — leaves node threads behind.
struct Cluster(Option<NodeRuntime>);

impl Cluster {
    fn runtime(&mut self) -> &mut NodeRuntime {
        self.0.as_mut().expect("present until shutdown")
    }

    fn shutdown(mut self) -> Vec<NodeOutcome> {
        self.0.take().expect("shut down once").shutdown()
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        if let Some(runtime) = self.0.take() {
            runtime.shutdown();
        }
    }
}

/// Builds a fresh mesh and spawns the node threads on it.
fn spawn(rec: &mut crate::trace::Recorder, plan: &ClusterPlan) -> Cluster {
    let (endpoints, _) = rec.span("node.transport.mesh_setup", |_| {
        tcp_mesh(NODES + 1)
            .expect("loopback sockets are available")
            .into_iter()
            .map(|e| Box::new(e) as Box<dyn Transport>)
            .collect::<Vec<_>>()
    });
    let (runtime, _) = rec.span("node.runtime.spawn", |_| {
        NodeRuntime::spawn(plan.clone(), endpoints, NodeConfig::default())
    });
    Cluster(Some(runtime))
}

/// Joins every session and waits for measured silence. Returns the seconds
/// from the first API call to the first moment the counters matched, or why
/// the wait failed.
fn join_to_silence(rec: &mut crate::trace::Recorder, cluster: &mut Cluster) -> Result<f64, String> {
    let runtime = cluster.runtime();
    let ((), inject_s) = rec.span("node.runtime.join_inject", |_| runtime.join_all());
    let (waited, _) = rec.span("node.runtime.silence_wait", |_| {
        runtime.await_silence(SETTLE, TIMEOUT)
    });
    match waited {
        Ok(latency) => Ok(inject_s + latency.as_secs_f64()),
        Err(timeout) => Err(timeout.to_string()),
    }
}

/// What a node thread can report only once it has exited.
struct Exit {
    stats: PacketStats,
    decode_errors: u64,
    transport_errors: u64,
}

fn exit_of(outcomes: &[NodeOutcome]) -> Exit {
    Exit {
        stats: outcomes
            .iter()
            .fold(PacketStats::new(), |sum, o| sum + o.stats),
        decode_errors: outcomes.iter().map(|o| o.decode_errors).sum(),
        transport_errors: outcomes.iter().map(|o| o.transport_errors).sum(),
    }
}

/// `Err` when a node dropped a frame it could not decode or send.
fn wire_errors(exit: &Exit) -> Result<(), String> {
    if exit.decode_errors != 0 || exit.transport_errors != 0 {
        return Err(format!(
            "{} decode and {} transport errors",
            exit.decode_errors, exit.transport_errors
        ));
    }
    Ok(())
}

fn solve(rec: &mut crate::trace::Recorder, network: &Network, sessions: &SessionSet) -> Allocation {
    rec.span("maxmin.oracle", |_| {
        CentralizedBneck::new(network, sessions).solve()
    })
    .0
}

fn cluster(run: &mut Run, shape: Shape) {
    let spec = ClusterSpec {
        nodes: NODES,
        routers: shape.routers,
        sessions: shape.sessions,
        long_every: shape.long_every,
        ..ClusterSpec::default()
    };
    let sessions = shape.sessions as u64;
    let order_seed = run.seeds.ops;

    // The seed decides the order sessions are listed in, hence their slots
    // and the order `join_all` issues them.
    let (network, session_list) = run.setup_stage("node.cluster.topology", |_| {
        let (network, mut list) = build_cluster_topology(&spec);
        SplitMix64::new(order_seed).shuffle(&mut list);
        (network, list)
    });
    let plan = run.setup_stage("node.runtime.plan", |_| {
        ClusterPlan::new(&network, &session_list, NODES, Tolerance::default())
    });
    drop(run.setup_stage("setup.mesh_and_spawn", |rec| spawn(rec, &plan)));
    run.finish_setup();

    let session_set = plan.session_set();
    let mut expected = solve(&mut run.rec, &network, &session_set);
    run.gate.tamper_expected(&session_set, &mut expected);

    let mut converge = Vec::new();
    let mut recorded = Vec::new();
    let mut packets = Vec::new();
    let mut frames = Vec::new();
    let mut rate_events = Vec::new();
    let mut last_stats = PacketStats::new();
    let (mut decode_errors, mut transport_errors) = (0, 0);
    let mut measured = 0.0;
    let burst_budget = run.seconds * shape.burst_share;
    while run.more(converge.len(), 3, measured, burst_budget) {
        run.rec.start_rep(converge.len() as u32);
        let mut cluster = spawn(&mut run.rec, &plan);
        let (silence, _) = run
            .rec
            .span("rep.converge", |rec| join_to_silence(rec, &mut cluster));
        let sent = cluster.runtime().frames_sent();
        let rates = cluster.runtime().rates();
        let events: usize = (0..NODES)
            .map(|node| cluster.runtime().drain_events(node).len())
            .sum();
        let (outcomes, _) = run
            .rec
            .span("node.runtime.shutdown", |_| cluster.shutdown());
        let exit = exit_of(&outcomes);
        let health = match &silence {
            Ok(_) => wire_errors(&exit),
            Err(reason) => Err(reason.clone()),
        };
        let (rec, gate) = (&mut run.rec, &mut run.gate);
        rec.span("maxmin.compare", |_| {
            gate.judge(
                sessions,
                health,
                &session_set,
                &rates,
                &expected,
                oracle_tolerance(),
            )
        });
        let seconds = silence.unwrap_or(TIMEOUT.as_secs_f64());
        measured += seconds;
        converge.push(seconds);
        recorded.push(run.rec.recording());
        packets.push(exit.stats.total() as f64);
        frames.push(sent as f64);
        rate_events.push(events as f64);
        last_stats = exit.stats;
        decode_errors += exit.decode_errors;
        transport_errors += exit.transport_errors;
    }
    run.rec.end_reps();

    run.e2e.insert("converge_s", median(&converge));
    let per_packet: Vec<f64> = converge
        .iter()
        .zip(&packets)
        .map(|(s, p)| s * 1e9 / p)
        .collect();
    run.e2e.insert("ns_per_packet", median(&per_packet));
    run.e2e
        .insert("packets_per_op", median(&packets) / sessions as f64);

    let op_walls = if shape.burst_share < 1.0 {
        let budget = run.seconds * (1.0 - shape.burst_share);
        single_ops(run, budget, &network, &plan, &session_set, &expected)
    } else {
        Vec::new()
    };

    if !run.rec.traced() {
        return;
    }
    run.layers_from_spans(&[
        "node.cluster.topology",
        "node.runtime.plan",
        "node.transport.mesh_setup",
        "node.runtime.spawn",
        "node.runtime.join_inject",
        "node.runtime.silence_wait",
        "node.runtime.shutdown",
        "maxmin.oracle",
        "maxmin.compare",
    ]);
    let (frames, packets) = (median(&frames), median(&packets));
    run.layer("node.runtime.frames", frames);
    run.layer("node.runtime.packets", packets);
    run.layer("node.runtime.frames_per_packet", frames / packets);
    run.layer("node.runtime.rate_events", median(&rate_events));
    run.layer(
        "node.runtime.us_per_frame",
        median(&converge) * 1e6 / frames,
    );
    run.layer("node.runtime.decode_errors", decode_errors as f64);
    run.layer("node.runtime.transport_errors", transport_errors as f64);
    packet_kind_layers(run, &last_stats);
    run.layer("reps", converge.len() as f64);
    trace_overhead(run, &converge, &recorded);
    if !op_walls.is_empty() {
        op_layers(run, &op_walls);
    }
}

/// The single-operation phase: on one standing, silent cluster, groups of
/// (leave, join, change to 5 Mbps, change back to unlimited) on a seeded
/// slot, each awaited to measured silence and checked against the oracle.
/// Returns the per-operation seconds.
fn single_ops(
    run: &mut Run,
    budget: f64,
    network: &Network,
    plan: &ClusterPlan,
    base: &SessionSet,
    base_expected: &Allocation,
) -> Vec<f64> {
    let mut cluster = spawn(&mut run.rec, plan);
    let mut walls = Vec::new();
    if let Err(reason) = join_to_silence(&mut run.rec, &mut cluster) {
        run.gate.attempted += 1;
        run.gate.void(1, reason);
        return walls;
    }
    let mut rng = SplitMix64::new(run.seeds.ops ^ 0x6f70_735f_6f72_6465);
    let mut measured = 0.0;
    let mut groups = 0;
    'groups: while run.more(groups, 5, measured, budget) {
        groups += 1;
        let slot = rng.below(plan.slot_count()) as u32;
        let id = plan.session(slot);
        let capped = RateLimit::finite(5e6);
        for step in 0..4 {
            run.rec.start_rep(walls.len() as u32);
            // The session set the cluster holds once this step has settled.
            let mut now = base.clone();
            match step {
                0 => {
                    now.remove(id);
                }
                2 => {
                    now.change_limit(id, capped);
                }
                _ => {}
            }
            let runtime = cluster.runtime();
            let (waited, _) = run.rec.span("rep.converge", |rec| {
                let ((), inject_s) = rec.span("node.runtime.op_inject", |_| match step {
                    0 => runtime.leave(slot),
                    1 => runtime.join(slot),
                    2 => runtime.change(slot, capped),
                    _ => runtime.change(slot, RateLimit::unlimited()),
                });
                rec.span("node.runtime.silence_wait_op", |_| {
                    runtime.await_silence(SETTLE, TIMEOUT)
                })
                .0
                .map(|latency| inject_s + latency.as_secs_f64())
                .map_err(|timeout| timeout.to_string())
            });
            let rates = cluster.runtime().rates();
            let expected = if step % 2 == 1 {
                base_expected.clone()
            } else {
                solve(&mut run.rec, network, &now)
            };
            let health = waited.as_ref().map(|_| ()).map_err(String::clone);
            run.gate
                .judge(1, health, &now, &rates, &expected, oracle_tolerance());
            // A cluster that timed out once is not asked again.
            let Ok(seconds) = waited else { break 'groups };
            measured += seconds + SETTLE.as_secs_f64();
            walls.push(seconds);
        }
    }
    run.rec.end_reps();
    // Garbage on the wire voids every operation the standing cluster served.
    if let Err(reason) = wire_errors(&exit_of(&cluster.shutdown())) {
        run.gate.void(walls.len() as u64, reason);
    }
    walls
}
