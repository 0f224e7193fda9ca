//! The multi-node runtime: B-Neck's task handlers hosted on real threads
//! over a [`Transport`], with the simulator completely out of the loop.
//!
//! The design reuses the repository's existing layers unchanged:
//!
//! * each node owns a [`TaskHost`] — the same task dispatch, API-call
//!   handling, `API.Rate` cause tracking and next-hop routing the simulation
//!   harness runs, tasks included. The runtime supplies only *delivery*, as
//!   the host's [`Sink`]: a hop to a task on the same node joins the node's
//!   FIFO `pending` queue, any other hop is encoded into the peer's send
//!   buffer, and a whole buffer goes to the [`Transport`] in one write;
//! * task placement is topology-aware (the crate's `partition` module):
//!   routers split into contiguous rank blocks, hosts inherit their router's
//!   node, the `RouterLink` task of link `e` lives on the node of `src(e)`.
//!   With that placement only router→router trunk hops ever cross a node
//!   boundary;
//! * the config-gated recovery layer ([`RecoveryState`]) provides per-lane
//!   sequencing, acks and retransmission over transports that may lose or
//!   reorder — on reliable loopback it is off by default, because each lane
//!   has a single sending thread and both transports preserve per-connection
//!   FIFO, which implies the per-lane FIFO the paper assumes. The runtime
//!   adds only the wall clock: between blobs it asks the state what is due.
//!
//! Every node builds its host from the plan's whole session list, so every
//! node can route for every session; a task only ever *runs* on the node
//! that owns it, because frames naming a task hosted elsewhere — like frames
//! naming a slot, link, hop or sender that does not exist — are counted in
//! [`NodeOutcome::decode_errors`] and dropped before they reach the host.
//!
//! ## Quiescence without a simulator
//!
//! The simulator detects quiescence by an empty event queue; a real cluster
//! has no such oracle. The runtime uses the classic counting argument
//! instead, over two global counters of *frames*, `sent` and `received`.
//! Frames travel in batches — a worker receives a *blob* (every whole frame
//! one read held), appends what it produces to one send buffer per peer (its
//! outbox) and writes a whole buffer at once — so the argument rests on three
//! invariants:
//!
//! * **I1** — a frame is in `sent` before the bytes carrying it reach
//!   [`Transport::send_to`]: `sent` advances by a buffer's frame count
//!   immediately before that buffer's write.
//! * **I2** — `received` is credited with a blob's frames only after every
//!   cascade they triggered has drained `pending` *and* every frame those
//!   cascades produced is in `sent`: the outbox is flushed at blob end, then
//!   comes the credit.
//! * **I3** — a worker never blocks in receive, and never exits, with a
//!   non-empty outbox; every coordinator method has written what it buffered
//!   before it returns.
//!
//! The outbox is flushed at blob end, before blocking, when a peer's buffer
//! reaches 64 KiB, and every 256 handler deliveries into a blob's cascades (a
//! count, never a clock read): batches grow with load, a lone frame still
//! leaves at once, and a long local cascade does not sit on its output.
//!
//! The coordinator reads `received` first, then `sent`: since
//! `received ≤ sent` always, reading `received = r` and then `sent = s`
//! with `r == s` proves no frame sits in a buffer, a socket, an inbox or a
//! cascade — and since nodes only act on arriving frames, no new frame can
//! appear. With recovery enabled, a third counter of unacked frames
//! must also be zero, or a retransmission could come due after the
//! counters match. [`NodeRuntime::await_silence`] additionally re-reads the
//! counters after a settle delay, making the silence *measurable* rather
//! than merely inferred.

#![cfg_attr(not(test), warn(clippy::wildcard_enum_match_arm))]

use crate::codec::{self, WireFrame};
use crate::partition::WorldPartition;
use crate::transport::{whole_frame, Transport};
use bneck_core::{
    ApiCall, Packet, PacketStats, RateEvent, RateEvents, RecoveryConfig, RecoveryState,
    RecoveryStats, Sink, Target, TaskHost,
};
use bneck_maxmin::{Allocation, Rate, RateLimit, Session, SessionId, SessionSet, Tolerance};
use bneck_net::{LinkId, Network, Path};
use bneck_sim::SimTime;
use std::collections::VecDeque;
use std::fmt;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The wall clock. The node runtime is real-time code — retransmission
/// deadlines, silence latency and event timestamps are wall-clock quantities —
/// so this is the one sanctioned call site in the crate.
#[expect(
    clippy::disallowed_methods,
    reason = "the node runtime runs on wall-clock time by design; timers and latency reports are real-time quantities"
)]
pub(crate) fn wall_now() -> Instant {
    Instant::now()
}

/// The time on a node's clock: wall time since the cluster's `start`.
fn since(start: Instant) -> SimTime {
    SimTime::from_nanos(start.elapsed().as_nanos() as u64)
}

/// How long a worker blocks waiting for a frame before checking its
/// retransmission deadlines and shutdown flag.
const POLL: Duration = Duration::from_micros(500);

/// Tunables of a node worker.
///
/// The recovery layer is the one choice. How long a worker waits for a frame
/// between deadline checks is a constant (500 µs): like the paper's §IV
/// model parameters it is fixed, and it changes only how soon a worker
/// notices a due retransmission or the shutdown flag, never a rate.
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeConfig {
    /// The recovery layer's tunables, or `None` to run bare (the default:
    /// both bundled transports are reliable and FIFO per lane).
    pub recovery: Option<RecoveryConfig>,
}

/// The immutable cluster layout every node shares: which node owns which
/// task, the session list every node builds its [`TaskHost`] from, and the
/// per-link capacities the hosts are built with.
///
/// Built once from a [`Network`] and a session list; the runtime never
/// changes membership placement after spawn (sessions may join, change and
/// leave, but their slots — their positions in the list — and paths are
/// fixed).
#[derive(Debug, Clone)]
pub struct ClusterPlan {
    nodes: usize,
    tolerance: Tolerance,
    /// Task placement, with one shard per node.
    placement: WorldPartition,
    /// The [`TaskHost::link_capacities`] of the network.
    capacities: Vec<Rate>,
    sessions: Vec<(SessionId, Path, RateLimit)>,
}

impl ClusterPlan {
    /// Lays out `sessions` over `network` on `nodes` nodes.
    ///
    /// Each session is `(id, path, demand limit)`; session ids must be
    /// unique. Routers are placed in contiguous rank blocks over `nodes`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero, exceeds `u16::MAX`, the network has no
    /// routers, or a session id repeats.
    pub fn new(
        network: &Network,
        sessions: &[(SessionId, Path, RateLimit)],
        nodes: usize,
        tolerance: Tolerance,
    ) -> Self {
        assert!(nodes >= 1 && nodes <= u16::MAX as usize, "node count range");
        let mut ids: Vec<SessionId> = sessions.iter().map(|(id, ..)| *id).collect();
        ids.sort_unstable();
        if let Some(pair) = ids.windows(2).find(|pair| pair[0] == pair[1]) {
            panic!("duplicate session id {:?}", pair[0]);
        }
        let mut placement = WorldPartition::new(network, nodes);
        for (_, path, _) in sessions {
            placement.place_session(path);
        }
        ClusterPlan {
            nodes,
            tolerance,
            placement,
            capacities: TaskHost::link_capacities(network),
            sessions: sessions.to_vec(),
        }
    }

    /// Number of nodes in the cluster.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Number of session slots.
    pub fn slot_count(&self) -> usize {
        self.sessions.len()
    }

    /// The session occupying `slot`.
    pub fn session(&self, slot: u32) -> SessionId {
        self.sessions[slot as usize].0
    }

    /// The node hosting `slot`'s source task.
    pub(crate) fn source_owner(&self, slot: u32) -> usize {
        self.placement.source_shard(slot)
    }

    /// The demand limit of `slot`'s session.
    pub fn limit(&self, slot: u32) -> RateLimit {
        self.sessions[slot as usize].2
    }

    /// The sessions as a [`SessionSet`], for feeding the centralized oracle.
    pub fn session_set(&self) -> SessionSet {
        self.sessions
            .iter()
            .map(|(id, path, limit)| Session::new(*id, path.clone(), *limit))
            .collect()
    }

    /// A fresh task host over the plan's links with every session of the
    /// plan registered, slot `i` being the `i`-th session.
    fn host(&self) -> TaskHost {
        let mut host = TaskHost::new(self.capacities.clone(), self.tolerance);
        for (session, path, limit) in &self.sessions {
            host.register_session(*session, path.clone(), *limit);
        }
        host
    }
}

/// Counters shared by every worker and the coordinator. `sent` / `received`
/// implement the silence-detection argument described in the module docs;
/// `notified` holds each slot's latest `API.Rate` as `f64` bits (NaN until
/// first notified), so the coordinator can read final rates without a
/// message exchange.
struct Shared {
    sent: AtomicU64,
    received: AtomicU64,
    unacked: AtomicU64,
    notified: Vec<AtomicU64>,
}

impl Shared {
    fn new(slots: usize) -> Self {
        Shared {
            sent: AtomicU64::new(0),
            received: AtomicU64::new(0),
            unacked: AtomicU64::new(0),
            notified: (0..slots)
                .map(|_| AtomicU64::new(f64::NAN.to_bits()))
                .collect(),
        }
    }
}

/// What a node reports when it exits.
#[derive(Debug)]
pub struct NodeOutcome {
    /// The node's index.
    pub node: usize,
    /// Protocol packets this node transmitted, by kind.
    pub stats: PacketStats,
    /// Recovery-layer counters, when recovery was enabled.
    pub recovery: Option<RecoveryStats>,
    /// Frames dropped as hostile or corrupt: they failed to decode, or they
    /// decoded but named a slot, link, hop or sender that does not exist or
    /// a task this node does not host. Always zero in a healthy cluster.
    pub decode_errors: u64,
    /// Transport send failures (peer torn down mid-send), one per write.
    pub transport_errors: u64,
    /// [`Transport::send_to`] calls this node made, one per flushed buffer.
    pub writes: u64,
    /// Blobs this node received, each holding one or more frames.
    pub blobs: u64,
}

/// Handler deliveries a blob's cascades may run between two flushes of the
/// outbox: about 20 µs of local work, under a loopback round trip.
const FLUSH_EVERY: u32 = 256;

/// Bytes a peer's send buffer may reach before it is written out.
const OUTBOX_CAP: usize = 64 * 1024;

/// The one encode → count → write path of workers and coordinator alike: a
/// frame is appended to its peer's buffer, and a whole buffer leaves in one
/// [`Transport::send_to`].
struct Outbox {
    from: u16,
    shared: Arc<Shared>,
    transport: Box<dyn Transport>,
    /// Per peer: the encoded frames not yet written, and how many they are.
    peers: Vec<(Vec<u8>, u64)>,
    writes: u64,
    transport_errors: u64,
}

impl Outbox {
    fn new(
        from: usize,
        plan: &ClusterPlan,
        shared: &Arc<Shared>,
        transport: Box<dyn Transport>,
    ) -> Self {
        Outbox {
            from: from as u16,
            shared: Arc::clone(shared),
            transport,
            peers: (0..=plan.nodes).map(|_| (Vec::new(), 0)).collect(),
            writes: 0,
            transport_errors: 0,
        }
    }

    fn push(&mut self, peer: usize, frame: &WireFrame) {
        let (buf, frames) = &mut self.peers[peer];
        codec::encode_frame(self.from, frame, buf);
        *frames += 1;
        if buf.len() >= OUTBOX_CAP {
            let _ = self.flush_peer(peer);
        }
    }

    /// Writes every non-empty buffer and returns the first failure. A failed
    /// write is also counted here, and its frames — which will never arrive —
    /// credited to `received`, so a dead peer cannot wedge the silence
    /// condition; that is all a node does about one, so nodes drop the result.
    fn flush(&mut self) -> io::Result<()> {
        let mut first = Ok(());
        for peer in 0..self.peers.len() {
            first = first.and(self.flush_peer(peer));
        }
        first
    }

    fn flush_peer(&mut self, peer: usize) -> io::Result<()> {
        let (buf, frames) = &mut self.peers[peer];
        if *frames == 0 {
            return Ok(());
        }
        let frames = std::mem::take(frames);
        // I1: in `sent` strictly before the transport sees the bytes, so no
        // receiver can count `received` for a frame not yet in `sent`.
        self.shared.sent.fetch_add(frames, Ordering::SeqCst);
        self.writes += 1;
        let written = self.transport.send_to(peer, buf);
        buf.clear();
        if written.is_err() {
            self.transport_errors += 1;
            self.shared.received.fetch_add(frames, Ordering::SeqCst);
        }
        written
    }
}

/// One node: the task host plus the node's side of delivery.
struct NodeWorker {
    host: TaskHost,
    io: NodeIo,
    done: bool,
}

/// Everything of a node that is not the protocol: where it sits in the
/// cluster, its transport endpoint behind the outbox, the queue of node-local
/// deliveries, and the recovery lanes, timed on the wall clock since `start`.
/// This is the [`Sink`] the node's [`TaskHost`] transmits into.
struct NodeIo {
    node: usize,
    plan: Arc<ClusterPlan>,
    shared: Arc<Shared>,
    out: Outbox,
    start: Instant,
    pending: VecDeque<(Target, Packet)>,
    recovery: Option<RecoveryState>,
    decode_errors: u64,
    blobs: u64,
}

impl NodeWorker {
    fn new(
        node: usize,
        plan: &Arc<ClusterPlan>,
        shared: &Arc<Shared>,
        transport: Box<dyn Transport>,
        start: Instant,
        config: NodeConfig,
    ) -> Self {
        NodeWorker {
            host: plan.host(),
            io: NodeIo {
                node,
                plan: Arc::clone(plan),
                shared: Arc::clone(shared),
                out: Outbox::new(node, plan, shared, transport),
                start,
                pending: VecDeque::new(),
                recovery: config
                    .recovery
                    .map(|rc| RecoveryState::new(rc, plan.capacities.len())),
                decode_errors: 0,
                blobs: 0,
            },
            done: false,
        }
    }

    fn run(mut self) -> NodeOutcome {
        while !self.done {
            // I3: what is due goes into the outbox and the outbox onto the
            // wire before the worker waits; `handle_wire` ends on a flush
            // too, which covers exit.
            self.io.fire_due_retransmits();
            let _ = self.io.out.flush();
            match self.io.out.transport.recv_blob(POLL) {
                Ok(Some(blob)) => self.handle_wire(&blob),
                Ok(None) => {}
                Err(_) => break,
            }
        }
        NodeOutcome {
            node: self.io.node,
            stats: *self.host.stats(),
            recovery: self.io.recovery.as_ref().map(|r| r.stats),
            decode_errors: self.io.decode_errors,
            transport_errors: self.io.out.transport_errors,
            writes: self.io.out.writes,
            blobs: self.io.blobs,
        }
    }

    /// Processes one blob delivered by the transport, frame by frame along
    /// the length prefixes. An undecodable payload costs that frame only;
    /// bytes that cannot be framed end the blob uncredited, so a torn stream
    /// shows as a silence timeout instead of a false match. `received` is
    /// credited with the frames walked, bad ones included, and only after the
    /// cascades they triggered have drained and their output is in `sent`
    /// (I2). A `Shutdown` does not cut the blob short.
    fn handle_wire(&mut self, mut bytes: &[u8]) {
        self.io.blobs += 1;
        let (mut frames, mut deliveries) = (0, 0u32);
        while let Some(len) = whole_frame(bytes) {
            let (frame, rest) = bytes.split_at(len);
            bytes = rest;
            frames += 1;
            match codec::decode_payload(&frame[codec::LEN_PREFIX..]) {
                Ok((from, frame)) => self.handle_frame(from, frame),
                Err(_) => self.io.decode_errors += 1,
            }
            // Every action a handler emits either re-enters this queue
            // (same-node target) or goes into the outbox, so the cascade
            // terminates exactly when the protocol stops talking.
            while let Some((target, packet)) = self.io.pending.pop_front() {
                self.host.deliver(target, packet, &mut self.io);
                deliveries += 1;
                if deliveries % FLUSH_EVERY == 0 {
                    let _ = self.io.out.flush();
                }
            }
        }
        if !bytes.is_empty() {
            self.io.decode_errors += 1;
        }
        let _ = self.io.out.flush();
        self.io.shared.received.fetch_add(frames, Ordering::SeqCst);
    }

    /// `true` when `target` names an existing task that lives on this node.
    /// Targets arrive off the wire, so nothing about them is trusted.
    fn hosts(&self, target: Target) -> bool {
        self.host.knows(target) && self.io.plan.placement.owner(target) == self.io.node
    }

    /// `true` when a sequenced frame for `to` — a task [`Self::hosts`] vouched
    /// for — names a lane that can exist: `link` is a link of the plan and the
    /// packet's session that of the slot `to` addresses.
    fn on_a_lane(&self, to: Target, link: LinkId, packet: &Packet) -> bool {
        let (Target::Source(slot) | Target::Destination(slot) | Target::Link { slot, .. }) = to;
        let plan = &self.io.plan;
        link.index() < plan.capacities.len() && packet.session() == plan.session(slot)
    }

    fn handle_frame(&mut self, from: u16, frame: WireFrame) {
        match frame {
            WireFrame::Packet { to, packet } if self.hosts(to) => {
                self.io.pending.push_back((to, packet));
            }
            // The ack goes back to `from`, which must be an endpoint of the
            // mesh (a node, or the coordinator one past the last node).
            WireFrame::Data {
                to,
                link,
                seq,
                packet,
            } if self.hosts(to)
                && self.on_a_lane(to, link, &packet)
                && usize::from(from) <= self.io.plan.nodes =>
            {
                self.io.receive_framed(from, to, link, seq, packet);
            }
            WireFrame::Ack { session, link, seq } => {
                let recovery = self.io.recovery.as_mut();
                if recovery.is_some_and(|r| r.acked(session, link, seq)) {
                    self.io.shared.unacked.fetch_sub(1, Ordering::SeqCst);
                }
            }
            WireFrame::Join { slot, limit } => self.api(slot, ApiCall::Join { limit }),
            WireFrame::Leave { slot } => self.api(slot, ApiCall::Leave),
            WireFrame::Change { slot, limit } => self.api(slot, ApiCall::Change { limit }),
            WireFrame::Shutdown => self.done = true,
            WireFrame::Packet { .. } | WireFrame::Data { .. } => self.io.decode_errors += 1,
        }
    }

    /// Applies an API call to the slot's source task, if this node hosts it.
    fn api(&mut self, slot: u32, call: ApiCall) {
        if self.hosts(Target::Source(slot)) {
            self.host.api(slot, call, &mut self.io);
        } else {
            self.io.decode_errors += 1;
        }
    }
}

impl Sink for NodeIo {
    fn now(&self) -> SimTime {
        since(self.start)
    }

    fn notified(&mut self, slot: u32, rate: Rate) {
        self.shared.notified[slot as usize].store(rate.to_bits(), Ordering::SeqCst);
    }

    /// A same-node target short-circuits through the local queue — the
    /// lane's endpoints never straddle nodes-vs-local, because a lane's
    /// receiving task has a fixed owner, so skipping the recovery framing
    /// for local hops is safe.
    fn transmit(&mut self, over: LinkId, to: Target, packet: Packet) {
        let owner = self.plan.placement.owner(to);
        if owner == self.node {
            self.pending.push_back((to, packet));
            return;
        }
        let frame = match self.recovery.as_mut() {
            None => WireFrame::Packet { to, packet },
            Some(recovery) => {
                let seq = recovery.frame(since(self.start), over, to, packet);
                self.shared.unacked.fetch_add(1, Ordering::SeqCst);
                WireFrame::Data {
                    to,
                    link: over,
                    seq,
                    packet,
                }
            }
        };
        self.out.push(owner, &frame);
    }
}

impl NodeIo {
    /// Takes a sequenced frame off the wire: acks it to its sender `from`
    /// and queues whatever the lane releases for in-order delivery.
    fn receive_framed(&mut self, from: u16, to: Target, link: LinkId, seq: u32, packet: Packet) {
        let session = packet.session();
        // Every frame is acked, duplicates included: the duplicate's ack
        // replaces a lost one.
        self.out
            .push(from as usize, &WireFrame::Ack { session, link, seq });
        let Some(recovery) = self.recovery.as_mut() else {
            // Config mismatch (a recovered peer talking to a bare node):
            // deliver the payload anyway, the sender will stop retransmitting
            // once our ack lands.
            self.pending.push_back((to, packet));
            return;
        };
        let mut next = recovery.receive(link, seq, to, packet);
        while let Some((lane, to, packet)) = next {
            self.pending.push_back((to, packet));
            next = recovery.release(lane);
        }
    }

    /// Queues every due still-unacked frame for resending.
    fn fire_due_retransmits(&mut self) {
        let Some(recovery) = self.recovery.as_mut() else {
            return;
        };
        let now = since(self.start);
        // A resent frame is due again strictly after `now`, so the loop ends.
        while let Some((seq, frame)) = recovery.due(now) {
            let owner = self.plan.placement.owner(frame.target);
            let data = WireFrame::Data {
                to: frame.target,
                link: frame.over,
                seq,
                packet: frame.packet,
            };
            self.out.push(owner, &data);
        }
    }
}

/// The silence wait gave up: frames were still in flight (or unacked) when
/// the timeout expired.
#[derive(Debug, Clone, Copy)]
pub struct SilenceTimeout {
    /// Frames handed to transports so far.
    pub sent: u64,
    /// Frames fully processed so far.
    pub received: u64,
    /// Recovery frames still awaiting an ack.
    pub unacked: u64,
}

impl fmt::Display for SilenceTimeout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cluster not silent: sent={} received={} unacked={}",
            self.sent, self.received, self.unacked
        )
    }
}

impl std::error::Error for SilenceTimeout {}

/// A running cluster: one worker thread per node plus this coordinator
/// handle, which injects API calls, waits for silence, reads rates and
/// tears the cluster down.
pub struct NodeRuntime {
    plan: Arc<ClusterPlan>,
    shared: Arc<Shared>,
    /// The coordinator's endpoint, flushed before a public method returns (I3).
    out: Outbox,
    handles: Vec<JoinHandle<NodeOutcome>>,
    events: Vec<RateEvents>,
}

impl NodeRuntime {
    /// Spawns one worker thread per node of `plan` over `endpoints`.
    ///
    /// `endpoints` must hold `plan.nodes() + 1` transport endpoints: index
    /// `i` becomes node `i`'s, the last one becomes the coordinator's (the
    /// codec's `from` field uses the same indexing).
    ///
    /// # Panics
    ///
    /// Panics if the endpoint count does not match, or a worker thread
    /// cannot be spawned.
    pub fn spawn(
        plan: ClusterPlan,
        mut endpoints: Vec<Box<dyn Transport>>,
        config: NodeConfig,
    ) -> NodeRuntime {
        assert_eq!(
            endpoints.len(),
            plan.nodes() + 1,
            "one endpoint per node plus the coordinator"
        );
        let coordinator = endpoints.pop().expect("length checked above");
        let plan = Arc::new(plan);
        let shared = Arc::new(Shared::new(plan.slot_count()));
        let start = wall_now();
        let mut handles = Vec::with_capacity(plan.nodes());
        let mut events = Vec::with_capacity(plan.nodes());
        for (node, transport) in endpoints.into_iter().enumerate() {
            let (reader, subscriber) = RateEvents::channel();
            events.push(reader);
            let mut worker = NodeWorker::new(node, &plan, &shared, transport, start, config);
            worker.host.subscribe(subscriber);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("bneck-node-{node}"))
                    .spawn(move || worker.run())
                    .expect("spawn node worker thread"),
            );
        }
        NodeRuntime {
            out: Outbox::new(plan.nodes(), &plan, &shared, coordinator),
            plan,
            shared,
            handles,
            events,
        }
    }

    /// The cluster's layout.
    pub fn plan(&self) -> &ClusterPlan {
        &self.plan
    }

    /// Sends one API frame from the coordinator to the node owning the
    /// slot's source task, in a write of its own: a single call waits on
    /// nothing else.
    fn send_api(&mut self, slot: u32, frame: WireFrame) {
        self.out.push(self.plan.source_owner(slot), &frame);
        self.out.flush().expect("coordinator send to a live node");
    }

    /// Issues `API.Join` for `slot` with its planned demand limit.
    pub fn join(&mut self, slot: u32) {
        let limit = self.plan.limit(slot);
        self.send_api(slot, WireFrame::Join { slot, limit });
    }

    /// Issues `API.Join` for every slot of the plan, in slot order, as one
    /// buffered write per node; a burst past the 64 KiB buffer leaves in a
    /// few. Under the per-frame drain a node runs every join of a write, with
    /// its local cascade, before any cross-node frame queued behind it: a
    /// burst that fits one write is wholly local first.
    pub fn join_all(&mut self) {
        for slot in 0..self.plan.slot_count() as u32 {
            let limit = self.plan.limit(slot);
            let frame = WireFrame::Join { slot, limit };
            self.out.push(self.plan.source_owner(slot), &frame);
        }
        self.out.flush().expect("coordinator send to a live node");
    }

    /// Issues `API.Leave` for `slot`.
    pub fn leave(&mut self, slot: u32) {
        self.send_api(slot, WireFrame::Leave { slot });
    }

    /// Issues `API.Change` for `slot` with a new demand limit.
    pub fn change(&mut self, slot: u32, limit: RateLimit) {
        self.send_api(slot, WireFrame::Change { slot, limit });
    }

    /// Blocks until the cluster is silent: every frame handed to a
    /// transport has been fully processed and (with recovery) no frame
    /// awaits an ack. Returns the time from this call to the first moment
    /// the counters matched.
    ///
    /// After the counters first match, they are re-read `settle` later; a
    /// counter that moved restarts the wait, so a returned `Ok` means the
    /// control plane was *observed* idle over a real interval, not just
    /// inferred idle from one sample.
    pub fn await_silence(
        &mut self,
        settle: Duration,
        timeout: Duration,
    ) -> Result<Duration, SilenceTimeout> {
        let begin = wall_now();
        loop {
            // Read order matters: received before sent (see module docs).
            let received = self.shared.received.load(Ordering::SeqCst);
            let sent = self.shared.sent.load(Ordering::SeqCst);
            let unacked = self.shared.unacked.load(Ordering::SeqCst);
            if sent == received && unacked == 0 {
                let at = begin.elapsed();
                std::thread::sleep(settle);
                let still_received = self.shared.received.load(Ordering::SeqCst);
                let still_sent = self.shared.sent.load(Ordering::SeqCst);
                if still_sent == sent && still_received == received {
                    return Ok(at);
                }
                continue; // Something moved during the settle window.
            }
            if begin.elapsed() > timeout {
                return Err(SilenceTimeout {
                    sent,
                    received,
                    unacked,
                });
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// The latest `API.Rate` notification of each slot, as an
    /// [`Allocation`]. Slots never notified are absent.
    pub fn rates(&self) -> Allocation {
        let mut allocation = Allocation::new();
        for slot in 0..self.plan.slot_count() as u32 {
            let bits = self.shared.notified[slot as usize].load(Ordering::SeqCst);
            let rate = f64::from_bits(bits);
            if !rate.is_nan() {
                allocation.set(self.plan.session(slot), rate);
            }
        }
        allocation
    }

    /// Drains the rate events node `node`'s worker has emitted so far.
    pub fn drain_events(&self, node: usize) -> Vec<RateEvent> {
        self.events[node].drain()
    }

    /// Total frames handed to transports so far (control plane volume).
    pub fn frames_sent(&self) -> u64 {
        self.shared.sent.load(Ordering::SeqCst)
    }

    /// Sends every node a `Shutdown` frame and joins the worker threads,
    /// returning their outcomes in node order.
    pub fn shutdown(mut self) -> Vec<NodeOutcome> {
        for node in 0..self.plan.nodes() {
            self.out.push(node, &WireFrame::Shutdown);
        }
        // A node that is already gone needs no telling.
        let _ = self.out.flush();
        self.handles
            .drain(..)
            .map(|h| h.join().expect("node worker panicked"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::channel_mesh;
    use bneck_net::topology::synthetic;
    use bneck_net::{Capacity, Delay};
    use std::sync::Mutex;

    /// Node 0 of a two-node dumbbell cluster with recovery on, wired to a
    /// three-endpoint channel mesh (two nodes and the coordinator) whose
    /// other ends are returned so sends keep succeeding.
    fn worker() -> (NodeWorker, Vec<LinkId>, Vec<crate::ChannelEndpoint>) {
        let mut mesh = channel_mesh(3);
        let endpoint = Box::new(mesh.remove(0));
        let (worker, links, _) = worker_over(|_, _| endpoint, RecoveryConfig::default());
        (worker, links, mesh)
    }

    /// Node 0 of the same cluster over the endpoint `transport` builds from
    /// the cluster's shared counters (returned too) and slot 0's links.
    fn worker_over(
        transport: impl FnOnce(&Arc<Shared>, &[LinkId]) -> Box<dyn Transport>,
        recovery: RecoveryConfig,
    ) -> (NodeWorker, Vec<LinkId>, Arc<Shared>) {
        let network = synthetic::dumbbell(
            1,
            Capacity::from_mbps(100.0),
            Capacity::from_mbps(60.0),
            Delay::from_micros(1),
        );
        let hosts: Vec<_> = network.hosts().map(|h| h.id()).collect();
        let path = network.shortest_path(hosts[0], hosts[1]).unwrap();
        let links = path.links().to_vec();
        let sessions = [(SessionId(0), path, RateLimit::unlimited())];
        let plan = Arc::new(ClusterPlan::new(
            &network,
            &sessions,
            2,
            Tolerance::default(),
        ));
        let shared = Arc::new(Shared::new(plan.slot_count()));
        let config = NodeConfig {
            recovery: Some(recovery),
        };
        let endpoint = transport(&shared, &links);
        let worker = NodeWorker::new(0, &plan, &shared, endpoint, wall_now(), config);
        (worker, links, shared)
    }

    fn encoded(from: u16, frames: &[WireFrame]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for frame in frames {
            codec::encode_frame(from, frame, &mut bytes);
        }
        bytes
    }

    fn frames_in(mut bytes: &[u8]) -> u64 {
        let mut frames = 0;
        while let Some(len) = whole_frame(bytes) {
            bytes = &bytes[len..];
            frames += 1;
        }
        assert!(bytes.is_empty(), "only whole frames are ever written");
        frames
    }

    #[test]
    fn the_join_burst_leaves_in_one_write_per_node() {
        // A four-router chain on two nodes: sources sit on routers 0–2, so
        // both nodes own some, and 40 joins fit one 64 KiB buffer.
        let spec = crate::cluster::ClusterSpec {
            routers: 4,
            sessions: 40,
            ..crate::cluster::ClusterSpec::default()
        };
        let (network, sessions) = crate::cluster::build_cluster_topology(&spec);
        let plan = Arc::new(ClusterPlan::new(
            &network,
            &sessions,
            2,
            Tolerance::default(),
        ));
        let shared = Arc::new(Shared::new(plan.slot_count()));
        // The coordinator alone, with no workers: the nodes' endpoints stay
        // here to be read.
        let mut mesh = channel_mesh(3);
        let coordinator = Box::new(mesh.pop().unwrap());
        let mut runtime = NodeRuntime {
            out: Outbox::new(2, &plan, &shared, coordinator),
            plan: Arc::clone(&plan),
            shared,
            handles: Vec::new(),
            events: Vec::new(),
        };
        runtime.join_all();
        let owned = |node| -> Vec<u32> {
            let slots = 0..plan.slot_count() as u32;
            slots
                .filter(|&slot| plan.source_owner(slot) == node)
                .collect()
        };
        assert!(!owned(0).is_empty() && !owned(1).is_empty());
        assert_eq!(runtime.out.writes, 2, "one write per node owning a source");
        assert_eq!(runtime.frames_sent(), plan.slot_count() as u64);
        for (node, endpoint) in mesh.iter_mut().enumerate() {
            let blob = endpoint.recv_blob(Duration::ZERO).unwrap().unwrap();
            let joins: Vec<_> = owned(node)
                .into_iter()
                .map(|slot| WireFrame::Join {
                    slot,
                    limit: plan.limit(slot),
                })
                .collect();
            assert_eq!(blob, encoded(2, &joins), "node {node}'s first blob");
        }
    }

    /// Hands the worker one encoded frame, as the transport would.
    fn feed(worker: &mut NodeWorker, from: u16, frame: WireFrame) {
        worker.handle_wire(&encoded(from, &[frame]));
    }

    #[test]
    fn hostile_but_decodable_frames_are_counted_and_dropped() {
        let (mut worker, links, _peers) = worker();
        let packet = Packet::Update {
            session: SessionId(0),
        };
        // The trunk link's task lives on node 0 at hop 1 of slot 0's path;
        // every variation below is well-formed on the wire.
        let good = Target::Link {
            link: links[1],
            hop: 1,
            slot: 0,
        };
        assert!(worker.hosts(good));
        let link = |link: u32, hop: u32, slot: u32| Target::Link {
            link: LinkId(link),
            hop,
            slot,
        };
        let hostile = [
            link(u32::MAX, 1, 0),          // link out of range
            link(links[1].0, 1, u32::MAX), // slot out of range
            link(links[1].0, u32::MAX, 0), // hop out of range
            link(links[1].0, 0, 0),        // hop names another link
            Target::Source(u32::MAX),      // slot out of range
            Target::Destination(7),        // slot out of range
            Target::Destination(0),        // a task node 1 hosts
        ];
        let mut blobs = 0;
        for to in hostile {
            let errors = worker.io.decode_errors;
            feed(&mut worker, 1, WireFrame::Packet { to, packet });
            let data = WireFrame::Data {
                to,
                link: links[1],
                seq: 0,
                packet,
            };
            feed(&mut worker, 1, data);
            blobs += 2;
            assert_eq!(worker.io.decode_errors, errors + 2, "{to:?}");
        }
        // A sequenced frame whose sender is no endpoint of the mesh cannot
        // be acked; an API call for a slot that does not exist has no task.
        let errors = worker.io.decode_errors;
        let data = WireFrame::Data {
            to: good,
            link: links[1],
            seq: 0,
            packet,
        };
        feed(&mut worker, u16::MAX, data);
        feed(&mut worker, 2, WireFrame::Leave { slot: u32::MAX });
        // A sequenced frame for a real task whose lane cannot exist — a link
        // past the plan's, or a session that is not the addressed slot's —
        // is neither acked nor delivered, and opens no lane.
        let (to, seq) = (good, 0);
        let far = LinkId(u32::MAX);
        let stranger = Packet::Update {
            session: SessionId(u64::MAX),
        };
        let stray = WireFrame::Data {
            to,
            link: far,
            seq,
            packet,
        };
        feed(&mut worker, 1, stray);
        let stray = WireFrame::Data {
            to,
            link: links[1],
            seq,
            packet: stranger,
        };
        feed(&mut worker, 1, stray);
        blobs += 4;
        assert_eq!(worker.io.decode_errors, errors + 4);
        assert_eq!(worker.io.recovery.as_ref().unwrap().stats.acks_sent, 0);
        assert!(worker.io.pending.is_empty());
        assert_eq!(worker.host.stats().total(), 0, "no handler ever ran");
        // Silence cannot wedge: every blob was counted as received, and
        // nothing was sent on behalf of a dropped frame.
        let received = worker.io.shared.received.load(Ordering::SeqCst);
        assert_eq!(received, blobs);
        assert_eq!(worker.io.shared.sent.load(Ordering::SeqCst), 0);

        // The well-formed twin of the frames above is acked and delivered.
        feed(&mut worker, 1, data);
        assert_eq!(worker.io.decode_errors, errors + 4);
        assert_eq!(worker.io.shared.sent.load(Ordering::SeqCst), 1, "the ack");
        let stats = worker.io.recovery.as_ref().unwrap().stats;
        assert_eq!(stats.acks_sent, 1);

        // An ack naming a link no table has, or a lane nobody opened, is a
        // silent no-op: the frame awaiting its ack keeps waiting.
        let limit = RateLimit::unlimited();
        feed(&mut worker, 2, WireFrame::Join { slot: 0, limit });
        let awaiting = |worker: &NodeWorker| {
            let counted = worker.io.shared.unacked.load(Ordering::SeqCst);
            let held = worker.io.recovery.as_ref().unwrap().unacked_frames();
            (counted, held)
        };
        assert_eq!(awaiting(&worker), (1, 1), "the join left for node 1");
        for (session, link) in [(SessionId(0), far), (SessionId(u64::MAX), links[1])] {
            feed(&mut worker, 1, WireFrame::Ack { session, link, seq });
        }
        assert_eq!(awaiting(&worker), (1, 1));
        assert_eq!(worker.io.decode_errors, errors + 4);
    }

    /// Frame `seq` of a well-formed sequenced lane into node 0: an `Update`
    /// for the trunk link's task at hop 1 of slot 0's path.
    fn trunk_data(links: &[LinkId], seq: u32) -> WireFrame {
        WireFrame::Data {
            to: Target::Link {
                link: links[1],
                hop: 1,
                slot: 0,
            },
            link: links[1],
            seq,
            packet: Packet::Update {
                session: SessionId(0),
            },
        }
    }

    #[test]
    fn one_bad_frame_does_not_take_its_blob_with_it() {
        let (mut worker, links, _peers) = worker();
        let data = |seq| trunk_data(&links, seq);
        // A valid prefix over a payload that is not a frame (a wire version
        // nobody speaks), between two good sequenced frames of one lane.
        let corrupt = [&4u32.to_le_bytes()[..], &[0xff; 4]].concat();
        let blob = [encoded(1, &[data(0)]), corrupt, encoded(1, &[data(1)])].concat();
        worker.handle_wire(&blob);
        assert_eq!(worker.io.decode_errors, 1);
        assert_eq!(worker.io.shared.received.load(Ordering::SeqCst), 3);
        // Both good frames were acked — the acks are written, and counted,
        // by the time the blob is credited — and delivered to the link task.
        let stats = worker.io.recovery.as_ref().unwrap().stats;
        assert_eq!(stats.acks_sent, 2);
        assert_eq!(worker.io.shared.sent.load(Ordering::SeqCst), 2);
        assert_eq!(worker.io.out.writes, 1, "two acks to one peer, one write");

        // Bytes that cannot be framed end the blob, uncredited; the frame in
        // front of them still counts.
        let torn = [encoded(1, &[data(2)]), vec![0xff; 7]].concat();
        worker.handle_wire(&torn);
        assert_eq!(worker.io.decode_errors, 2);
        assert_eq!(worker.io.shared.received.load(Ordering::SeqCst), 4);
        assert_eq!(worker.io.recovery.as_ref().unwrap().stats.acks_sent, 3);
    }

    /// What the recording transport saw, with the shared counters as they
    /// read inside the call.
    #[derive(Debug)]
    enum Seen {
        Write {
            frames: u64,
            sent: u64,
            received: u64,
        },
        /// A receive — the worker is about to block — which hands over a
        /// blob of `handing` frames (0: the wait elapsed).
        Block {
            handing: u64,
            sent: u64,
            received: u64,
        },
    }

    /// A transport double that plays a script of receives — `None` sleeps
    /// `nap` and reports an elapsed wait — then a `Shutdown`, and records
    /// every call with a snapshot of the counters.
    struct Recording {
        shared: Arc<Shared>,
        script: VecDeque<Option<Vec<u8>>>,
        nap: Duration,
        seen: Arc<Mutex<Vec<Seen>>>,
    }

    impl Recording {
        fn counters(&self) -> (u64, u64) {
            let sent = self.shared.sent.load(Ordering::SeqCst);
            (sent, self.shared.received.load(Ordering::SeqCst))
        }
    }

    impl Transport for Recording {
        fn send_to(&mut self, _peer: usize, bytes: &[u8]) -> io::Result<()> {
            let (sent, received) = self.counters();
            let frames = frames_in(bytes);
            self.seen.lock().unwrap().push(Seen::Write {
                frames,
                sent,
                received,
            });
            Ok(())
        }

        fn recv_timeout(&mut self, _: Duration) -> io::Result<Option<Vec<u8>>> {
            unreachable!("workers receive blobs")
        }

        fn recv_blob(&mut self, _: Duration) -> io::Result<Option<Vec<u8>>> {
            let (sent, received) = self.counters();
            let step = self
                .script
                .pop_front()
                .unwrap_or_else(|| Some(encoded(2, &[WireFrame::Shutdown])));
            self.seen.lock().unwrap().push(Seen::Block {
                handing: step.as_deref().map_or(0, frames_in),
                sent,
                received,
            });
            if step.is_none() {
                std::thread::sleep(self.nap);
            }
            Ok(step)
        }
    }

    /// Runs node 0's real loop over a [`Recording`] of `script` and returns
    /// what the double saw, the node's outcome and the final counters.
    fn record(
        rto: Duration,
        nap: Duration,
        script: impl FnOnce(&[LinkId]) -> Vec<Option<Vec<u8>>>,
    ) -> (Vec<Seen>, NodeOutcome, (u64, u64)) {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let recovery = RecoveryConfig::with_rto(Delay::from_micros(rto.as_micros() as u64));
        let (worker, _, shared) = worker_over(
            |shared, links| {
                Box::new(Recording {
                    shared: Arc::clone(shared),
                    script: script(links).into(),
                    nap,
                    seen: Arc::clone(&seen),
                })
            },
            recovery,
        );
        let outcome = worker.run();
        let counters = (
            shared.sent.load(Ordering::SeqCst),
            shared.received.load(Ordering::SeqCst),
        );
        let seen = std::mem::take(&mut *seen.lock().unwrap());
        (seen, outcome, counters)
    }

    /// Slot 0's join, from the coordinator: its `Join` packet runs two local
    /// hops on node 0 and leaves for node 1 as one sequenced frame.
    fn join_blob() -> Option<Vec<u8>> {
        let limit = RateLimit::unlimited();
        Some(encoded(2, &[WireFrame::Join { slot: 0, limit }]))
    }

    #[test]
    fn counters_keep_their_order_around_every_write() {
        // An RTO no test run reaches: every write below is a blob's output.
        let (seen, outcome, (sent, received)) =
            record(Duration::from_secs(3600), Duration::ZERO, |links| {
                let two = [trunk_data(links, 0), trunk_data(links, 1)];
                vec![join_blob(), None, Some(encoded(1, &two))]
            });
        // Replay: `credited` covers the blobs fully processed, `in_hand` is
        // the one being processed, `handed` the frames written so far.
        let (mut handed, mut credited, mut in_hand) = (0, 0, 0);
        let mut written_per_turn = Vec::new();
        for event in &seen {
            match *event {
                Seen::Write {
                    frames,
                    sent,
                    received,
                } => {
                    handed += frames;
                    assert!(sent >= handed, "I1: in `sent` before the write: {seen:?}");
                    assert_eq!(
                        received, credited,
                        "I2: no credit while the blob's output is still being written: {seen:?}"
                    );
                    *written_per_turn.last_mut().expect("a receive comes first") += frames;
                }
                Seen::Block {
                    handing,
                    sent,
                    received,
                } => {
                    credited += std::mem::replace(&mut in_hand, handing);
                    assert_eq!(received, credited, "credited once processed: {seen:?}");
                    assert_eq!(sent, handed, "I3: nothing counted is unwritten: {seen:?}");
                    written_per_turn.push(0);
                }
            }
        }
        // Join → one data frame; an idle turn; two data frames → two acks in
        // one write; shutdown. Each blob's output left within its own turn.
        assert_eq!(written_per_turn, [1, 0, 2, 0], "{seen:?}");
        let stats = outcome.recovery.expect("recovery is on");
        assert_eq!((stats.frames_sent, stats.acks_sent), (1, 2));
        assert_eq!((outcome.writes, outcome.blobs), (2, 3));
        assert_eq!((sent, received), (3, 4), "three made, four taken");
    }

    #[test]
    fn a_due_retransmission_is_written_before_the_worker_blocks() {
        // The join's data frame is never acked; the second receive naps past
        // the RTO, so the turn after it finds the retransmission due.
        let rto = Duration::from_millis(200);
        let nap = Duration::from_millis(250);
        let (seen, outcome, (sent, _)) = record(rto, nap, |_| vec![join_blob(), None, None]);
        let blocks: Vec<usize> = (0..seen.len())
            .filter(|&i| matches!(seen[i], Seen::Block { .. }))
            .collect();
        // I3: the resent frame went out in front of the third receive, not
        // at the end of whatever blob came next.
        assert!(
            matches!(seen[blocks[2] - 1], Seen::Write { frames: 1, .. }),
            "{seen:?}"
        );
        let stats = outcome.recovery.expect("recovery is on");
        assert!(stats.retransmits >= 1, "{seen:?}");
        // ... and nothing was left in the outbox at exit.
        assert_eq!(sent, stats.frames_sent + stats.retransmits, "{seen:?}");
        assert_eq!(outcome.writes, sent, "one frame per write here: {seen:?}");
    }
}
