//! Stand-alone probes: each times one layer's public entry point on inputs
//! the benchmark builds itself, so a layer has a line of its own whatever
//! the workload. Run only in a traced run.

use crate::run::Run;
use crate::seeds::SplitMix64;
use crate::sim::packet_kind_metric;
use bneck_core::destination::DestinationNode;
use bneck_core::router_link::RouterLink;
use bneck_core::source::SourceNode;
use bneck_core::{ActionBuffer, Packet, PacketKind, ResponseKind};
use bneck_maxmin::{RateLimit, SessionId, Tolerance};
use bneck_net::{Delay, LinkId, NodeId, Router};
use bneck_node::{
    channel_mesh, decode_frame, encode_frame, tcp_mesh, NodeTarget, Transport, WireFrame,
};
use bneck_sim::{Address, ChannelId, ChannelSpec, Context, Engine, FaultPlan, SimTime, World};
use bneck_workload::NetworkScenario;
use std::hint::black_box;
use std::time::Duration;

/// Runs every probe and records its per-layer metrics.
pub fn run_all(run: &mut Run) {
    let scale = if run.quick { 10 } else { 1 };
    route_probe(run, 1_000 / scale);
    engine_probes(run, 2_000_000 / scale as u64);
    handler_probes(run, 2_000_000 / scale);
    codec_probe(run, 1_000_000 / scale);
    transport_probes(run, 100_000 / scale, 10_000 / scale);
}

/// `net.route_us_per_path`: host-to-host routes through the per-router tree
/// cache on the Medium LAN, endpoints drawn from the seed.
fn route_probe(run: &mut Run, queries: usize) {
    let network = NetworkScenario::medium_lan(5_008).build();
    let hosts: Vec<NodeId> = network.hosts().map(|h| h.id()).collect();
    let mut rng = SplitMix64::new(run.seeds.ops);
    let pairs: Vec<(NodeId, NodeId)> = (0..queries)
        .map(|_| (hosts[rng.below(hosts.len())], hosts[rng.below(hosts.len())]))
        .collect();
    let mut router = Router::new(&network);
    let ((), seconds) = run.rec.span("probe.net.route", |_| {
        for &(src, dst) in &pairs {
            black_box(router.host_path_cached(src, dst));
        }
    });
    run.layer("net.route_us_per_path", seconds * 1e6 / queries as f64);
}

/// A world that keeps `tokens` messages circulating until `budget` forwards
/// have been made: over channels (the calendar queue's bucket ring) or, with
/// `timer` set, through `schedule_after` with a delay far beyond the ring
/// (the overflow heap). It keeps the engine's default `warm` / `batch_key`.
struct Relay {
    channels: Vec<ChannelId>,
    budget: u64,
    timer: Option<Delay>,
}

impl World for Relay {
    type Message = u32;

    fn handle(&mut self, ctx: &mut Context<'_, u32>, _to: Address, token: u32) {
        if self.budget == 0 {
            return;
        }
        self.budget -= 1;
        match self.timer {
            Some(delay) => ctx.schedule_after(delay, Address(0), token),
            None => {
                let pick = (token as u64).wrapping_mul(0x9E37_79B9) ^ self.budget;
                let channel = self.channels[pick as usize % self.channels.len()];
                ctx.send(channel, Address(0), token);
            }
        }
    }
}

/// What one relay run measured.
struct RelayRun {
    ns_per_event: f64,
    ns_per_send: f64,
}

fn relay(
    run: &mut Run,
    span: &'static str,
    tokens: u32,
    budget: u64,
    timer: Option<Delay>,
    faults: Option<FaultPlan>,
) -> RelayRun {
    let mut engine: Engine<u32> = Engine::new();
    let channels = (0..1_024)
        .map(|_| engine.add_channel(ChannelSpec::new(1e9, Delay::from_micros(1), 256)))
        .collect();
    if let Some(plan) = faults {
        engine.set_fault_plan(plan);
    }
    let mut world = Relay {
        channels,
        budget,
        timer,
    };
    for token in 0..tokens {
        engine.inject(SimTime::from_nanos(u64::from(token)), Address(0), token);
    }
    let (report, seconds) = run.rec.span(span, |_| engine.run(&mut world));
    assert!(report.quiescent, "the relay drained");
    RelayRun {
        ns_per_event: seconds * 1e9 / report.events_processed as f64,
        ns_per_send: seconds * 1e9 / report.messages_sent.max(1) as f64,
    }
}

fn engine_probes(run: &mut Run, events: u64) {
    let deep = relay(run, "probe.sim.engine.deep", 200_000, events, None, None);
    run.layer("sim.engine.ns_per_event_deep", deep.ns_per_event);
    let shallow = relay(run, "probe.sim.engine.shallow", 1_000, events, None, None);
    run.layer("sim.engine.ns_per_event_shallow", shallow.ns_per_event);
    // The bucket ring spans 8192 × 512 ns ≈ 4.2 ms; 10 ms lands every timer
    // in the overflow heap, as the recovery layer's RTO timers do.
    let timer = relay(
        run,
        "probe.sim.engine.timer",
        1_000,
        events / 2,
        Some(Delay::from_millis(10)),
        None,
    );
    run.layer("sim.engine.timer_ns_per_event", timer.ns_per_event);
    let plan = FaultPlan::new(run.seeds.faults, 0.01, 0.01, 0.25, 4);
    let clean = relay(run, "probe.sim.fault.clean", 20_000, events / 2, None, None);
    let faulty = relay(
        run,
        "probe.sim.fault.faulty",
        20_000,
        events / 2,
        None,
        Some(plan),
    );
    run.layer(
        "sim.fault.ns_per_send",
        faulty.ns_per_send - clean.ns_per_send,
    );
}

/// Feeds a `RouterLink` crossed by `members` sessions, all restricted at it,
/// a steady stream of complete Probe → Response → SetBottleneck cycles at the
/// link's bottleneck rate. One extra session never answers its Join, so the
/// link is never settled and no cycle fans out a Bottleneck wave: every
/// packet costs one record lookup plus the handler's own bookkeeping, the
/// per-packet path of a link in mid-convergence. Returns `(ns per packet,
/// actions per packet)`.
fn router_link_probe(
    run: &mut Run,
    span: &'static str,
    members: u64,
    packets: usize,
) -> (f64, f64) {
    let here = LinkId(7);
    let capacity = 1e9;
    let mut link = RouterLink::new(here, capacity, Tolerance::default());
    let mut actions = ActionBuffer::new();
    // Sessions 0..members cycle; session `members` is the silent one.
    for s in 0..=members {
        link.handle(
            Packet::Join {
                session: SessionId(s),
                rate: capacity,
                restricting: LinkId(3),
            },
            &mut actions,
        );
    }
    let fair = link.bottleneck_rate();
    actions.clear();
    let cycles = packets / 3;
    let mut emitted = 0usize;
    let ((), seconds) = run.rec.span(span, |_| {
        for cycle in 0..cycles as u64 {
            // An odd stride visits the records out of order.
            let session = SessionId(cycle.wrapping_mul(2_654_435_761) % members);
            link.handle(
                Packet::Probe {
                    session,
                    rate: capacity,
                    restricting: LinkId(3),
                },
                &mut actions,
            );
            link.handle(
                Packet::Response {
                    session,
                    kind: ResponseKind::Response,
                    rate: fair,
                    restricting: here,
                },
                &mut actions,
            );
            link.handle(
                Packet::SetBottleneck {
                    session,
                    found: true,
                },
                &mut actions,
            );
            emitted += actions.len();
            black_box(actions.as_slice());
            actions.clear();
        }
    });
    let handled = (cycles * 3) as f64;
    (seconds * 1e9 / handled, emitted as f64 / handled)
}

fn handler_probes(run: &mut Run, packets: usize) {
    let (small, _) = router_link_probe(run, "probe.core.router_link.small", 8, packets);
    run.layer("core.router_link.ns_per_packet_small", small);
    let (large, actions) = router_link_probe(run, "probe.core.router_link.large", 4_096, packets);
    run.layer("core.router_link.ns_per_packet_large", large);
    run.layer("core.router_link.actions_per_packet", actions);

    let session = SessionId(1);
    let mut buffer = ActionBuffer::new();
    let mut source = SourceNode::new(session, LinkId(0), 100e6, Tolerance::default());
    source.api_join(RateLimit::unlimited(), &mut buffer);
    let ((), seconds) = run.rec.span("probe.core.source", |_| {
        for _ in 0..packets / 2 {
            // Bottleneck response settles the rate; Update starts a new cycle.
            source.handle(
                Packet::Response {
                    session,
                    kind: ResponseKind::Bottleneck,
                    rate: 40e6,
                    restricting: LinkId(5),
                },
                &mut buffer,
            );
            source.handle(Packet::Update { session }, &mut buffer);
            black_box(buffer.as_slice());
            buffer.clear();
        }
    });
    run.layer(
        "core.source.ns_per_packet",
        seconds * 1e9 / (packets / 2 * 2) as f64,
    );

    let destination = DestinationNode::new(session);
    let ((), seconds) = run.rec.span("probe.core.destination", |_| {
        for _ in 0..packets / 2 {
            destination.handle(
                Packet::Probe {
                    session,
                    rate: 40e6,
                    restricting: LinkId(5),
                },
                &mut buffer,
            );
            destination.handle(
                Packet::SetBottleneck {
                    session,
                    found: false,
                },
                &mut buffer,
            );
            black_box(buffer.as_slice());
            buffer.clear();
        }
    });
    run.layer(
        "core.destination.ns_per_packet",
        seconds * 1e9 / (packets / 2 * 2) as f64,
    );
}

/// One protocol packet of `kind`, with plausible field values.
fn sample_packet(kind: PacketKind, session: SessionId) -> Packet {
    let (rate, restricting) = (37.5e6, LinkId(11));
    match kind {
        PacketKind::Join => Packet::Join {
            session,
            rate,
            restricting,
        },
        PacketKind::Probe => Packet::Probe {
            session,
            rate,
            restricting,
        },
        PacketKind::Response => Packet::Response {
            session,
            kind: ResponseKind::Response,
            rate,
            restricting,
        },
        PacketKind::Update => Packet::Update { session },
        PacketKind::Bottleneck => Packet::Bottleneck { session },
        PacketKind::SetBottleneck => Packet::SetBottleneck {
            session,
            found: true,
        },
        PacketKind::Leave => Packet::Leave { session },
    }
}

/// 1,024 routed frames whose packet kinds follow the workload's own mix (the
/// `core.packets.<kind>` counts it just recorded; an even mix if it has none).
fn frames_in_workload_mix(run: &Run) -> Vec<WireFrame> {
    let counts: Vec<f64> = PacketKind::ALL
        .iter()
        .map(|&k| {
            run.layers
                .get(packet_kind_metric(k))
                .copied()
                .unwrap_or(0.0)
        })
        .collect();
    let total: f64 = counts.iter().sum();
    let mut frames = Vec::with_capacity(1_024);
    for (kind, count) in PacketKind::ALL.into_iter().zip(counts) {
        let share = if total > 0.0 {
            count / total
        } else {
            1.0 / 7.0
        };
        for i in 0..(share * 1_024.0).round() as u64 {
            frames.push(WireFrame::Packet {
                to: NodeTarget::Link {
                    link: LinkId(11),
                    hop: 1,
                    slot: i as u32,
                },
                packet: sample_packet(kind, SessionId(i)),
            });
        }
    }
    SplitMix64::new(run.seeds.ops).shuffle(&mut frames);
    frames
}

fn codec_probe(run: &mut Run, frames_to_code: usize) {
    let frames = frames_in_workload_mix(run);
    let rounds = (frames_to_code / frames.len()).max(1);
    let mut wire = Vec::with_capacity(64 * frames.len());
    let ((), encode_s) = run.rec.span("probe.node.codec.encode", |_| {
        for _ in 0..rounds {
            wire.clear();
            for frame in &frames {
                encode_frame(0, frame, &mut wire);
            }
            black_box(wire.as_slice());
        }
    });
    let ((), decode_s) = run.rec.span("probe.node.codec.decode", |_| {
        for _ in 0..rounds {
            let mut rest = wire.as_slice();
            while let Some((_, frame, used)) = decode_frame(rest).expect("own encoding decodes") {
                black_box(frame);
                rest = &rest[used..];
            }
        }
    });
    let coded = (rounds * frames.len()) as f64;
    run.layer("node.codec.encode_ns_per_frame", encode_s * 1e9 / coded);
    run.layer("node.codec.decode_ns_per_frame", decode_s * 1e9 / coded);
    run.layer(
        "node.codec.bytes_per_frame",
        wire.len() as f64 / frames.len() as f64,
    );
}

/// Streams `stream` frames one way and bounces `pings` frames both ways
/// between the two endpoints of a mesh. Returns `(µs per streamed frame,
/// µs per round trip)`.
fn transport_probe<T: Transport + 'static>(
    run: &mut Run,
    span: &'static str,
    mut mesh: Vec<T>,
    stream: usize,
    pings: usize,
) -> (f64, f64) {
    let mut frame = Vec::new();
    encode_frame(
        0,
        &WireFrame::Packet {
            to: NodeTarget::Source(1),
            packet: sample_packet(PacketKind::Probe, SessionId(1)),
        },
        &mut frame,
    );
    let wait = Duration::from_secs(10);
    let mut far = mesh.pop().expect("two endpoints");
    let mut near = mesh.pop().expect("two endpoints");
    let mut result = (0.0, 0.0);
    std::thread::scope(|scope| {
        // The far end counts the streamed frames, says so once, then echoes.
        let echo = scope.spawn(move || {
            for _ in 0..stream {
                far.recv_timeout(wait)
                    .expect("far end receives")
                    .expect("stream frame");
            }
            far.send_to(0, &[0, 0, 0, 0]).expect("far end replies");
            for _ in 0..pings {
                let ping = far
                    .recv_timeout(wait)
                    .expect("far end receives")
                    .expect("ping frame");
                far.send_to(0, &ping).expect("far end echoes");
            }
        });
        let ((), stream_s) = run.rec.span(span, |_| {
            for _ in 0..stream {
                near.send_to(1, &frame).expect("near end sends");
            }
            near.recv_timeout(wait)
                .expect("near end receives")
                .expect("stream acknowledgement");
        });
        let ((), ping_s) = run.rec.span(span, |_| {
            for _ in 0..pings {
                near.send_to(1, &frame).expect("near end sends");
                near.recv_timeout(wait)
                    .expect("near end receives")
                    .expect("echo");
            }
        });
        echo.join().expect("echo thread");
        result = (stream_s * 1e6 / stream as f64, ping_s * 1e6 / pings as f64);
    });
    result
}

fn transport_probes(run: &mut Run, stream: usize, pings: usize) {
    let mesh = tcp_mesh(2).expect("loopback sockets are available");
    let (tcp_stream, tcp_rtt) =
        transport_probe(run, "probe.node.transport.tcp", mesh, stream, pings);
    run.layer("node.transport.tcp_stream_us_per_frame", tcp_stream);
    run.layer("node.transport.tcp_rtt_us", tcp_rtt);
    let (channel_stream, channel_rtt) = transport_probe(
        run,
        "probe.node.transport.channel",
        channel_mesh(2),
        stream,
        pings,
    );
    run.layer("node.transport.channel_stream_us_per_frame", channel_stream);
    run.layer("node.transport.channel_rtt_us", channel_rtt);
}

/// The shares that need both a workload's counters and the probes' unit
/// costs: how much of the simulator's run time the engine and the handlers
/// account for, and how much of a cluster's wait the wire path does.
pub fn derive_shares(run: &mut Run, deep_queue: bool) {
    let get = |run: &Run, name: &str| run.layers.get(name).copied().unwrap_or(0.0);
    let run_ns = get(run, "core.run_s") * 1e9;
    if run_ns > 0.0 {
        let per_event = if deep_queue {
            get(run, "sim.engine.ns_per_event_deep")
        } else {
            get(run, "sim.engine.ns_per_event_shallow")
        };
        let engine = per_event * get(run, "core.events") / run_ns;
        // Of the h transmissions of one path traversal, h − 1 are handled by
        // a RouterLink and one by the destination (downstream kinds) or the
        // source (upstream kinds).
        let hops = get(run, "paths.mean_hops").max(1.0);
        let large = get(run, "paths.large_link_share");
        let link_ns = large * get(run, "core.router_link.ns_per_packet_large")
            + (1.0 - large) * get(run, "core.router_link.ns_per_packet_small");
        let mut handler_ns = 0.0;
        for kind in PacketKind::ALL {
            let end_ns = match kind {
                PacketKind::Join
                | PacketKind::Probe
                | PacketKind::SetBottleneck
                | PacketKind::Leave => get(run, "core.destination.ns_per_packet"),
                PacketKind::Response | PacketKind::Update | PacketKind::Bottleneck => {
                    get(run, "core.source.ns_per_packet")
                }
            };
            handler_ns += get(run, packet_kind_metric(kind))
                * ((hops - 1.0) / hops * link_ns + end_ns / hops);
        }
        let handlers = handler_ns / run_ns;
        run.layer("sim.engine.share", engine);
        run.layer("core.handler.share", handlers);
        run.layer("core.harness.residual_share", 1.0 - engine - handlers);
    }
    let wait_ns = get(run, "node.runtime.silence_wait_s") * 1e9;
    if wait_ns > 0.0 {
        let per_frame = get(run, "node.codec.encode_ns_per_frame")
            + get(run, "node.codec.decode_ns_per_frame")
            + get(run, "node.transport.tcp_stream_us_per_frame") * 1e3;
        // The node threads send concurrently, so the wire time is spread
        // over them.
        run.layer(
            "node.runtime.wire_share",
            get(run, "node.runtime.frames") * per_frame / (wait_ns * crate::cluster::NODES as f64),
        );
    }
}
