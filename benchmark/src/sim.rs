//! The three simulator workloads: `join_burst`, `churn_single` and
//! `lossy_recovery`. All are single-threaded and deterministic: the same seed
//! reproduces every counter exactly, and only wall time varies.

use crate::gate::RepCounters;
use crate::run::Run;
use crate::stats::{mean, median, percentile, tail_percentile};
use bneck_core::{BneckConfig, BneckSimulation, PacketKind, PacketStats, QuiescenceReport};
use bneck_maxmin::{CentralizedBneck, SessionSet, Tolerance};
use bneck_net::{Delay, Network};
use bneck_sim::{FaultPlan, SimTime};
use bneck_workload::{DynamicsPlanner, Experiment1Config, LimitPolicy, NetworkScenario};

/// The oracle tolerance of the scale runner (`bneck sweep`).
fn oracle_tolerance() -> Tolerance {
    Tolerance::new(1e-6, 10.0)
}

/// `join_burst`: the paper's Figure 5 regime — every session joins within
/// 1 ms on the Medium LAN, run to quiescence, repeated on fresh simulations.
pub fn join_burst(run: &mut Run) {
    let sessions = run.size(20_000, 2_000);
    burst(
        run,
        Burst {
            config: burst_config(run, sessions),
            bneck: BneckConfig::default(),
            faults: None,
            horizon: SimTime::MAX,
        },
    );
}

/// `lossy_recovery`: joins under seeded drop, duplication and reordering with
/// the recovery layer on — the only workload where recovery, fault injection
/// and far-future timers do work.
pub fn lossy_recovery(run: &mut Run) {
    let sessions = run.size(3_000, 300);
    let faults = FaultPlan::new(run.seeds.faults, 0.01, 0.01, 0.25, 4);
    burst(
        run,
        Burst {
            config: burst_config(run, sessions),
            bneck: BneckConfig::default().with_recovery(Delay::from_millis(5)),
            faults: Some(faults),
            horizon: SimTime::from_secs(2),
        },
    );
}

fn burst_config(run: &Run, sessions: usize) -> Experiment1Config {
    let mut config = Experiment1Config::paper_scale(sessions);
    config.seed = run.seeds.planner;
    config
}

struct Burst {
    config: Experiment1Config,
    bneck: BneckConfig,
    faults: Option<FaultPlan>,
    horizon: SimTime,
}

fn burst(run: &mut Run, burst: Burst) {
    let Burst {
        config,
        bneck,
        faults,
        horizon,
    } = burst;
    let sessions = config.sessions as u64;

    let network = run.setup_stage("net.build", |_| config.scenario.build());
    let schedule = run.setup_stage("setup.plan_and_host", |rec| {
        let (schedule, _) = rec.span("workload.plan", |_| config.schedule(&network));
        rec.span("core.new", |_| BneckSimulation::new(&network, bneck));
        schedule
    });
    run.finish_setup();

    let mut converge: Vec<f64> = Vec::new();
    let mut recorded: Vec<bool> = Vec::new();
    let mut expected = None;
    // Every repetition must reproduce the first one's counters (the gate
    // checks it), so the last one's stand for all.
    let mut last = None;
    let mut rate_events = 0;
    let mut measured = 0.0;
    while run.more(converge.len(), 3, measured, run.seconds) {
        run.rec.start_rep(converge.len() as u32);
        let mut sim = BneckSimulation::new(&network, bneck);
        if let Some(plan) = faults {
            sim.set_fault_plan(plan);
        }
        // Listening to `API.Rate` costs the harness a branch per notification,
        // so only recorded repetitions subscribe.
        let events = run.rec.recording().then(|| sim.rate_events());
        let ((applied, report), converge_s) = run.rec.span("rep.converge", |rec| {
            let (applied, _) = rec.span("core.apply", |_| schedule.apply(&mut sim));
            let (report, _) = rec.span("core.run", |_| sim.run_until(horizon));
            (applied, report)
        });
        measured += converge_s;

        let ((session_set, rates), _) = run
            .rec
            .span("maxmin.snapshot", |_| (sim.session_set(), sim.allocation()));
        let expected = expected.get_or_insert_with(|| {
            let (mut solved, _) = run.rec.span("maxmin.oracle", |_| {
                CentralizedBneck::new(&network, &session_set).solve()
            });
            run.gate.tamper_expected(&session_set, &mut solved);
            solved
        });
        let health = if !report.quiescent {
            Err(format!("not quiescent by {horizon:?}"))
        } else if sim.unacked_frames() != 0 {
            Err(format!(
                "{} frames never acknowledged",
                sim.unacked_frames()
            ))
        } else if applied.joins as u64 != sessions || applied.rejected != 0 {
            Err(format!("schedule not applied cleanly: {applied:?}"))
        } else {
            Ok(())
        };
        let (rec, gate) = (&mut run.rec, &mut run.gate);
        rec.span("maxmin.compare", |_| {
            gate.judge(
                sessions,
                health,
                &session_set,
                &rates,
                expected,
                oracle_tolerance(),
            )
        });
        run.gate.same_counters(sessions, counters_of(&report));

        if run.rec.recording() {
            recovery_layers(run, &sim);
        }
        recorded.push(run.rec.recording());
        converge.push(converge_s);
        rate_events = events.map_or(rate_events, |e| e.len());
        last = Some((report, *sim.packet_stats(), session_set));
    }
    run.rec.end_reps();

    let (report, stats, session_set) = last.expect("at least one repetition ran");
    let packets = report.packets_sent as f64;
    run.e2e.insert("converge_s", median(&converge));
    run.e2e
        .insert("ns_per_packet", median(&converge) * 1e9 / packets);
    run.e2e.insert("packets_per_op", packets / sessions as f64);

    if !run.rec.traced() {
        return;
    }
    setup_and_oracle_layers(run, config.sessions);
    run.layers_from_spans(&["core.apply", "core.run"]);
    run.layer("core.events", report.events_processed as f64);
    run.layer("core.packets", packets);
    run.layer(
        "core.sim_converge_us",
        report.quiescent_at.as_nanos() as f64 / 1e3,
    );
    packet_kind_layers(run, &stats);
    run.layer("core.rate_events", rate_events as f64);
    path_shape_layers(run, &network, &session_set);
    run.layer("reps", converge.len() as f64);
    trace_overhead(run, &converge, &recorded);

    if faults.is_some() {
        // The price of the recovery layer with nothing to recover from: the
        // same joins over clean channels, recovery on ÷ off.
        let mut clean = [0.0; 2];
        for (slot, config) in [bneck, BneckConfig::default()].into_iter().enumerate() {
            let mut sim = BneckSimulation::new(&network, config);
            let (_, seconds) = run.rec.span("core.recovery.clean_run", |_| {
                schedule.apply(&mut sim);
                sim.run_until(horizon)
            });
            clean[slot] = seconds;
        }
        run.layer("core.recovery.clean_overhead_ratio", clean[0] / clean[1]);
    }
}

/// The per-layer times both simulator drivers take from the same spans:
/// set-up stages (planning cost also per planned session) and verification.
fn setup_and_oracle_layers(run: &mut Run, planned_sessions: usize) {
    run.layers_from_spans(&[
        "net.build",
        "workload.plan",
        "core.new",
        "maxmin.oracle",
        "maxmin.compare",
        "maxmin.snapshot",
    ]);
    if let Some(&plan_s) = run.layers.get("workload.plan_s") {
        run.layer(
            "workload.plan_us_per_session",
            plan_s * 1e6 / planned_sessions as f64,
        );
    }
}

fn counters_of(report: &QuiescenceReport) -> RepCounters {
    RepCounters {
        events: report.events_processed,
        packets: report.packets_sent,
        quiescent_at_ns: report.quiescent_at.as_nanos(),
    }
}

/// `traced / untraced − 1` over the converge times of recorded and
/// unrecorded repetitions of the same run.
pub fn trace_overhead(run: &mut Run, seconds: &[f64], recorded: &[bool]) {
    let pick = |want: bool| -> Vec<f64> {
        seconds
            .iter()
            .zip(recorded)
            .filter(|(_, &r)| r == want)
            .map(|(s, _)| *s)
            .collect()
    };
    let (traced, untraced) = (pick(true), pick(false));
    if !traced.is_empty() && !untraced.is_empty() {
        run.layer(
            "trace.overhead_share",
            median(&traced) / median(&untraced) - 1.0,
        );
    }
}

/// `core.packets.<kind>` for the seven packet kinds.
pub fn packet_kind_layers(run: &mut Run, stats: &PacketStats) {
    for (kind, count) in stats.iter() {
        run.layer(packet_kind_metric(kind), count as f64);
    }
}

/// The per-layer metric name of a packet kind's count.
pub fn packet_kind_metric(kind: PacketKind) -> &'static str {
    match kind {
        PacketKind::Join => "core.packets.join",
        PacketKind::Probe => "core.packets.probe",
        PacketKind::Response => "core.packets.response",
        PacketKind::Update => "core.packets.update",
        PacketKind::Bottleneck => "core.packets.bottleneck",
        PacketKind::SetBottleneck => "core.packets.set_bottleneck",
        PacketKind::Leave => "core.packets.leave",
    }
}

/// Two facts about the sessions' paths the handler-share estimate needs:
/// the mean hop count, and the share of (session, link) crossings that fall
/// on links with more than eight members (the `IdSlotMap` path of
/// `RouterLink`).
pub fn path_shape_layers(run: &mut Run, network: &Network, sessions: &SessionSet) {
    let hops: Vec<f64> = sessions
        .iter()
        .map(|s| s.path().hop_count() as f64)
        .collect();
    run.layer("paths.mean_hops", mean(&hops));
    let (mut crossings, mut on_large) = (0usize, 0usize);
    for link in network.links() {
        let members = sessions.sessions_on_link(link.id()).len();
        crossings += members;
        if members > 8 {
            on_large += members;
        }
    }
    run.layer(
        "paths.large_link_share",
        on_large as f64 / crossings.max(1) as f64,
    );
}

fn recovery_layers(run: &mut Run, sim: &BneckSimulation<'_>) {
    if let Some(stats) = sim.recovery_stats() {
        run.layer("core.recovery.frames", stats.frames_sent as f64);
        run.layer("core.recovery.acks", stats.acks_sent as f64);
        run.layer("core.recovery.retransmits", stats.retransmits as f64);
        run.layer(
            "core.recovery.duplicates_dropped",
            stats.duplicates_dropped as f64,
        );
        run.layer(
            "core.recovery.reordered_buffered",
            stats.reordered_buffered as f64,
        );
        run.layer(
            "core.recovery.goodput_ratio",
            stats.frames_sent as f64 / (stats.frames_sent + stats.retransmits).max(1) as f64,
        );
        run.layer("core.recovery.unacked_at_end", sim.unacked_frames() as f64);
    }
    let faults = sim.fault_totals();
    run.layer("sim.fault.dropped", faults.dropped as f64);
    run.layer("sim.fault.duplicated", faults.duplicated as f64);
    run.layer("sim.fault.delayed", faults.delayed as f64);
}

/// Single operations `churn_single` performs per second of `--seconds`; a
/// fixed function of the budget, so the same seed reproduces every counter.
const CHURN_OPS_PER_SECOND: usize = 120;

/// `churn_single`: a standing, quiescent population, then single joins,
/// leaves and changes round-robin, each run to re-quiescence and checked
/// against the oracle before the next — the paper's locality claim.
pub fn churn_single(run: &mut Run) {
    let standing = run.size(1_000, 100);
    let ops = if run.quick {
        6
    } else {
        3 * ((CHURN_OPS_PER_SECOND as f64 * run.seconds / 3.0).ceil() as usize).max(1)
    };
    let scenario = NetworkScenario::medium_lan(standing + standing / 4 + 8);
    let planner_seed = run.seeds.planner;

    let network = run.setup_stage("net.build", |_| scenario.build());
    let (mut planner, mut sim) = run.setup_stage("setup.population", |rec| {
        let mut planner = DynamicsPlanner::new(&network, planner_seed);
        let (schedule, _) = rec.span("workload.plan", |_| {
            planner.phase(
                SimTime::ZERO,
                Delay::from_millis(1),
                standing,
                0,
                0,
                LimitPolicy::Unlimited,
            )
        });
        let (mut sim, _) = rec.span("core.new", |_| {
            BneckSimulation::new(&network, BneckConfig::default())
        });
        rec.span("setup.converge", |_| {
            schedule.apply(&mut sim);
            sim.run_to_quiescence()
        });
        (planner, sim)
    });
    run.finish_setup();
    assert!(sim.is_quiescent(), "the standing population converged");

    let change_limits = LimitPolicy::RandomFinite {
        probability: 1.0,
        min_bps: 1e6,
        max_bps: 100e6,
    };
    let mut walls = Vec::with_capacity(ops);
    let mut recorded = Vec::with_capacity(ops);
    let mut sim_us = Vec::with_capacity(ops);
    let (mut packets, mut events) = (0u64, 0u64);
    let (mut apply_s, mut run_s) = (0.0, 0.0);
    let before = *sim.packet_stats();
    for op in 0..ops {
        run.rec.start_rep(op as u32);
        let (joins, leaves, changes, limits) = match op % 3 {
            0 => (1, 0, 0, LimitPolicy::Unlimited),
            1 => (0, 1, 0, LimitPolicy::Unlimited),
            _ => (0, 0, 1, change_limits),
        };
        let at = sim.now() + Delay::from_millis(1);
        let (schedule, _) = run.rec.span("workload.plan_op", |_| {
            planner.phase(at, Delay::ZERO, joins, leaves, changes, limits)
        });
        let ((applied, report), wall) = run.rec.span("rep.converge", |rec| {
            let (applied, seconds) = rec.span("core.apply", |_| schedule.apply(&mut sim));
            apply_s += seconds;
            let (report, seconds) = rec.span("core.run", |_| sim.run_to_quiescence());
            run_s += seconds;
            (applied, report)
        });
        walls.push(wall);
        recorded.push(run.rec.recording());
        packets += report.packets_sent;
        events += report.events_processed;
        sim_us.push((report.quiescent_at.as_nanos() - at.as_nanos()) as f64 / 1e3);

        let ((session_set, rates), _) = run
            .rec
            .span("maxmin.snapshot", |_| (sim.session_set(), sim.allocation()));
        let (mut expected, _) = run.rec.span("maxmin.oracle", |_| {
            CentralizedBneck::new(&network, &session_set).solve()
        });
        run.gate.tamper_expected(&session_set, &mut expected);
        let health = if !report.quiescent {
            Err("not quiescent".to_string())
        } else if applied.accepted() != 1 || applied.rejected != 0 {
            Err(format!("operation {op} not applied: {applied:?}"))
        } else {
            Ok(())
        };
        let (rec, gate) = (&mut run.rec, &mut run.gate);
        rec.span("maxmin.compare", |_| {
            gate.judge(
                1,
                health,
                &session_set,
                &rates,
                &expected,
                oracle_tolerance(),
            )
        });
    }
    run.rec.end_reps();

    let total: f64 = walls.iter().sum();
    run.e2e.insert("converge_s", total);
    run.e2e
        .insert("ns_per_packet", total * 1e9 / packets as f64);
    run.e2e
        .insert("packets_per_op", packets as f64 / ops as f64);

    if !run.rec.traced() {
        return;
    }
    setup_and_oracle_layers(run, standing);
    // Times and counters of this workload are totals over its operations.
    run.layer("core.apply_s", apply_s);
    run.layer("core.run_s", run_s);
    run.layer("core.events", events as f64);
    run.layer("core.packets", packets as f64);
    run.layer("core.sim_converge_us", median(&sim_us));
    packet_kind_layers(run, &sim.packet_stats().since(&before));
    path_shape_layers(run, &network, &sim.session_set());
    op_layers(run, &walls);
    run.layer("reps", ops as f64);
    trace_overhead(run, &walls, &recorded);
}

/// The per-operation latency figures of the single-op phases: median, the
/// tail percentile the sample supports, and the sample count.
pub fn op_layers(run: &mut Run, walls_s: &[f64]) {
    let ms: Vec<f64> = walls_s.iter().map(|s| s * 1e3).collect();
    run.layer("op.samples", ms.len() as f64);
    run.layer("op.wall_ms_p50", median(&ms));
    if let Some(p) = tail_percentile(ms.len()) {
        run.layer("op.tail_percentile", p);
        run.layer("op.wall_ms_tail", percentile(&ms, p));
    }
    run.layer("op.wall_ms_mean", mean(&ms));
}
