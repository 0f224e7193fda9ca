//! The per-event paths do not allocate: heap allocations are counted while
//! the simulator and the node runtime run, and each phase must stay within
//! its budget.
//!
//! The counts come from an instrumented global allocator, so they are
//! process-wide: this file holds exactly one `#[test]`, and nothing else in
//! the process runs while a region is open. A failure names every phase over
//! budget with its count; a planted per-delivery allocation trips all of
//! them.
//!
//! * Simulator, paper mode: single joins, leaves and changes against a
//!   standing Medium-LAN population, round-robin, each run to quiescence.
//!   Changes allocate exactly nothing; joins and leaves stay at or below one
//!   allocation per 100 events (a link task is created on its first packet).
//! * Simulator, lossy: the same with recovery on and a seeded fault plan, at
//!   or below one allocation per 100 events (lanes and spill queues grow).
//! * Node runtime, two nodes over loopback TCP: on the wire-bound shape at
//!   most three allocations per session beyond one copy per write and one
//!   per read; on the chain shape at most one per 100 packets.

use bneck::prelude::*;
use bneck_node::cluster::{build_cluster_topology, ClusterSpec};
use bneck_node::{tcp_mesh, ClusterPlan, NodeConfig, NodeRuntime, Transport};
use stats_alloc::{Region, StatsAlloc, INSTRUMENTED_SYSTEM};
use std::alloc::System;
use std::time::Duration;

#[global_allocator]
static GLOBAL: &StatsAlloc<System> = &INSTRUMENTED_SYSTEM;

/// Sessions standing before the single operations start.
const STANDING: usize = 1_000;
/// Rounds of single operations; each round is one phase per kind.
const ROUNDS: usize = 2;
/// Operations of each kind in one round.
const OPS_PER_KIND: usize = 10;

/// Runs `f` and returns its result with the `alloc`, `alloc_zeroed` and
/// `realloc` calls made meanwhile, on any thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let region = Region::new(GLOBAL);
    let out = f();
    let change = region.change();
    (out, (change.allocations + change.reallocations) as u64)
}

/// Records one phase's count, and a failure when it is over budget.
fn judge(failures: &mut Vec<String>, phase: String, allocated: u64, budget: u64) {
    let line = format!("{phase}: {allocated} allocations, budget {budget}");
    println!("{line}");
    if allocated > budget {
        failures.push(line);
    }
}

/// Single operations against a standing population, `ROUNDS` × 3 phases.
fn churn(mode: &str, config: BneckConfig, faults: Option<FaultPlan>, failures: &mut Vec<String>) {
    let network = NetworkScenario::medium_lan(STANDING + STANDING / 4 + 8).build();
    let mut planner = DynamicsPlanner::new(&network, 7);
    let mut sim = BneckSimulation::new(&network, config);
    if let Some(plan) = faults {
        sim.set_fault_plan(plan);
    }
    let window = Delay::from_millis(1);
    planner
        .phase(
            SimTime::ZERO,
            window,
            STANDING,
            0,
            0,
            LimitPolicy::Unlimited,
        )
        .apply(&mut sim);
    assert!(
        sim.run_to_quiescence().quiescent,
        "{mode}: standing population"
    );

    let capped = LimitPolicy::RandomFinite {
        probability: 1.0,
        min_bps: 1e6,
        max_bps: 100e6,
    };
    for round in 0..ROUNDS {
        // (allocations, events) of joins, leaves and changes.
        let mut totals = [(0, 0); 3];
        for op in 0..3 * OPS_PER_KIND {
            let kind = op % 3;
            let (joins, leaves, changes, limits) = match kind {
                0 => (1, 0, 0, LimitPolicy::Unlimited),
                1 => (0, 1, 0, LimitPolicy::Unlimited),
                _ => (0, 0, 1, capped),
            };
            let at = sim.now() + window;
            let schedule = planner.phase(at, Delay::ZERO, joins, leaves, changes, limits);
            // Only the run is counted: `apply` builds the schedule's order.
            schedule.apply(&mut sim);
            let (report, allocated) = counted(|| sim.run_to_quiescence());
            assert!(report.quiescent, "{mode}: op {op} of round {round}");
            totals[kind].0 += allocated;
            totals[kind].1 += report.events_processed;
        }
        for (kind, (allocated, events)) in ["join", "leave", "change"].into_iter().zip(totals) {
            let pinned = mode == "paper" && kind == "change";
            let budget = if pinned { 0 } else { events / 100 };
            let phase = format!("{mode} round {round} {kind} ({events} events)");
            judge(failures, phase, allocated, budget);
        }
    }
}

/// Joins every session of a two-node TCP cluster and waits for silence.
/// Returns the allocations meanwhile, the writes plus blobs and the packets.
fn cluster(routers: usize, sessions: usize, long_every: usize) -> (u64, u64, u64) {
    let spec = ClusterSpec {
        nodes: 2,
        routers,
        sessions,
        long_every,
        ..ClusterSpec::default()
    };
    let (network, list) = build_cluster_topology(&spec);
    let plan = ClusterPlan::new(&network, &list, spec.nodes, Tolerance::default());
    let endpoints = tcp_mesh(spec.nodes + 1)
        .expect("loopback sockets are available")
        .into_iter()
        .map(|e| Box::new(e) as Box<dyn Transport>)
        .collect();
    let mut runtime = NodeRuntime::spawn(plan, endpoints, NodeConfig::default());
    let (silence, allocated) = counted(|| {
        runtime.join_all();
        runtime.await_silence(Duration::ZERO, Duration::from_secs(60))
    });
    silence.expect("the cluster goes silent");
    let outcomes = runtime.shutdown();
    let io = outcomes.iter().map(|o| o.writes + o.blobs).sum();
    let packets = outcomes.iter().map(|o| o.stats.total()).sum();
    (allocated, io, packets)
}

#[test]
fn hot_paths_allocate_within_budget() {
    let mut failures = Vec::new();
    churn("paper", BneckConfig::default(), None, &mut failures);

    let recovery = BneckConfig::default().with_recovery(Delay::from_millis(5));
    let faults = FaultPlan::new(1, 0.01, 0.01, 0.25, 4);
    churn("lossy", recovery, Some(faults), &mut failures);

    let sessions = 10_000;
    let (allocated, io, packets) = cluster(2, sessions, 0);
    let phase = format!("tcp wire ({packets} packets, {io} writes + blobs)");
    judge(&mut failures, phase, allocated, io + 3 * sessions as u64);

    let (allocated, _, packets) = cluster(8, 2_000, 10);
    let phase = format!("tcp chain ({packets} packets)");
    judge(&mut failures, phase, allocated, packets / 100);

    assert!(failures.is_empty(), "over budget:\n{}", failures.join("\n"));
}
