//! The task host: everything between a delivered packet and the
//! transmissions it causes, written once for every host of the protocol.
//!
//! The paper specifies B-Neck as three task types whose atomic `when` blocks
//! only ever "send downstream / upstream" along the session's path over
//! reliable FIFO links (§II, Figures 2–4); nothing in that depends on what
//! carries the packets. [`TaskHost`] is that host-independent part: it owns
//! the [`RouterLink`], [`SourceNode`] and [`DestinationNode`] tasks, the
//! [`SessionArena`] of slots and paths, the per-link capacities, the
//! `API.Rate` cause tracking, the packet counters and the
//! observers, and it holds the only copy of task dispatch, API-call handling
//! and next-hop routing. A handler's actions are carried out as it emits
//! them: the host hands it an emitter that routes, counts and transmits each
//! one, so no action is stored and read back. What differs between hosts is
//! *delivery*, and a host supplies it as a [`Sink`]: the simulation harness
//! sends on the link's simulator channel, the `bneck-node` runtime queues
//! node-local hops and encodes the rest onto its transport.

#![cfg_attr(not(test), warn(clippy::wildcard_enum_match_arm))]

use crate::destination::DestinationNode;
use crate::events::{RateCause, RateEvent, Subscriber, SubscriberSet};
use crate::packet::Packet;
use crate::router_link::RouterLink;
use crate::source::SourceNode;
use crate::stats::PacketStats;
use crate::task::{Action, Emit};
use crate::world::SessionArena;
use bneck_maxmin::{Rate, RateLimit, SessionId, Tolerance};
use bneck_net::{LinkId, Network, Path};
use bneck_sim::SimTime;

/// The receiving task of a packet. Sources and destinations are addressed by
/// their dense session slot; links carry, in addition to the dense link
/// identifier, the hop index of the link within the carried packet's session
/// path and that session's slot, so forwarding the packet a further hop needs
/// neither an id → slot lookup nor a path position scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// The source task of a session slot.
    Source(u32),
    /// The `RouterLink` task of a directed link.
    Link {
        /// The directed link whose task receives the packet.
        link: LinkId,
        /// Index of `link` within the session path of the carried packet.
        hop: u32,
        /// Session slot of the carried packet.
        slot: u32,
    },
    /// The destination task of a session slot.
    Destination(u32),
}

/// The session API primitives, delivered to a session's source task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ApiCall {
    /// `API.Join(s, r)`.
    Join {
        /// The requested maximum rate.
        limit: RateLimit,
    },
    /// `API.Leave(s)`.
    Leave,
    /// `API.Change(s, r)`.
    Change {
        /// The new requested maximum rate.
        limit: RateLimit,
    },
}

/// The delivery half of a host: where the packets a task emits go.
pub trait Sink {
    /// Carries `packet` over directed link `over` to the task `to`. Called
    /// after the host has counted the packet.
    fn transmit(&mut self, over: LinkId, to: Target, packet: Packet);

    /// The host's clock. Only read when an event is actually emitted, so a
    /// host whose clock is a system call pays for it only when observed.
    fn now(&self) -> SimTime;

    /// Called with every `API.Rate` delivered to a known slot, for hosts that
    /// publish rates somewhere besides the subscribers.
    fn notified(&mut self, _slot: u32, _rate: Rate) {}
}

/// The protocol tasks of one host plus the routing state that connects them.
#[derive(Debug)]
pub struct TaskHost {
    tolerance: Tolerance,
    /// Capacity of each directed link (bits per second), by `LinkId`.
    capacities: Vec<Rate>,
    /// The `RouterLink` task of each directed link, by `LinkId`; `None` until
    /// a packet first reaches the link.
    router_links: Vec<Option<RouterLink>>,
    /// Per-session tasks, indexed by session slot (parallel to `arena`).
    /// Entries persist after a leave (stray packets may still be in flight)
    /// and are overwritten when the identifier rejoins.
    sources: Vec<SourceNode>,
    destinations: Vec<DestinationNode>,
    state: HostState,
}

/// The part of a [`TaskHost`] that carrying out its tasks' actions reads and
/// writes: all of it but the tasks and the capacities they are built with.
#[derive(Debug)]
struct HostState {
    /// Last notified rate per session slot; `NaN` = never notified / cleared.
    notified: Vec<Rate>,
    /// What a slot's *next* `API.Rate` notification means: `Joined` after a
    /// join, `Changed` after a change, `Converged` once the first
    /// notification of the incarnation went out. Indexed by slot.
    causes: Vec<RateCause>,
    arena: SessionArena,
    stats: PacketStats,
    subscribers: SubscriberSet,
}

impl TaskHost {
    /// What a host needs to know about `network`'s links: the capacity of
    /// each in bits per second, indexed by `LinkId`.
    pub fn link_capacities(network: &Network) -> Vec<Rate> {
        network.links().map(|l| l.capacity().as_bps()).collect()
    }

    /// A host over links with the given [`TaskHost::link_capacities`], with
    /// no session yet.
    pub fn new(capacities: Vec<Rate>, tolerance: Tolerance) -> Self {
        TaskHost {
            tolerance,
            router_links: capacities.iter().map(|_| None).collect(),
            capacities,
            sources: Vec::new(),
            destinations: Vec::new(),
            state: HostState {
                notified: Vec::new(),
                causes: Vec::new(),
                arena: SessionArena::new(),
                stats: PacketStats::new(),
                subscribers: SubscriberSet::new(),
            },
        }
    }

    /// Activates `session` in the arena and installs its source and
    /// destination tasks, returning the assigned slot. Slot assignment is
    /// deterministic, so replicated hosts that apply the same registrations
    /// in the same order assign the same slots.
    ///
    /// # Panics
    ///
    /// Panics if the session is already active.
    pub fn register_session(&mut self, session: SessionId, path: Path, limit: RateLimit) -> u32 {
        let first_link = path.first_link();
        let source = SourceNode::new(
            session,
            first_link,
            self.capacities[first_link.index()],
            self.tolerance,
        );
        let joined = self
            .state
            .arena
            .join(session, path, limit)
            .expect("the session must not be active");
        if joined.reused {
            let i = joined.slot as usize;
            self.sources[i] = source;
            self.destinations[i] = DestinationNode::new(session);
            self.state.notified[i] = f64::NAN;
            self.state.causes[i] = RateCause::Joined;
        } else {
            self.sources.push(source);
            self.destinations.push(DestinationNode::new(session));
            self.state.notified.push(f64::NAN);
            self.state.causes.push(RateCause::Joined);
        }
        joined.slot
    }

    /// Deactivates `session`, clearing its notified rate. Returns the slot it
    /// occupied, or `None` if the session was not active.
    pub(crate) fn deregister_session(&mut self, session: SessionId) -> Option<u32> {
        let slot = self.state.arena.leave(session)?;
        self.state.notified[slot as usize] = f64::NAN;
        Some(slot)
    }

    /// Updates `session`'s requested rate limit in the arena. Returns its
    /// slot, or `None` if the session is not active.
    pub(crate) fn change_session(&mut self, session: SessionId, limit: RateLimit) -> Option<u32> {
        self.state.arena.change(session, limit)
    }

    /// The session-slot arena: id ↔ slot, paths, limits, the active set.
    pub fn arena(&self) -> &SessionArena {
        &self.state.arena
    }

    /// Cumulative counts of the packets this host transmitted, by kind.
    pub fn stats(&self) -> &PacketStats {
        &self.state.stats
    }

    /// Registers an observer of this host's rate events and packets.
    pub fn subscribe(&mut self, subscriber: Box<dyn Subscriber>) {
        self.state.subscribers.subscribe(subscriber);
    }

    /// Tells the observers the host went quiescent at `at`.
    pub(crate) fn announce_quiescent(&mut self, at: SimTime) {
        self.state.subscribers.announce_quiescent(at);
    }

    /// The last rate notified to the source task in `slot` (`NaN` when the
    /// slot has never been notified since its last join).
    pub(crate) fn notified_rate(&self, slot: u32) -> Rate {
        self.state.notified[slot as usize]
    }

    /// The source task in `slot`, if the slot was ever assigned.
    pub fn source(&self, slot: u32) -> Option<&SourceNode> {
        self.sources.get(slot as usize)
    }

    /// The `RouterLink` task of `link`, if a packet ever reached it.
    pub(crate) fn link_task(&self, link: LinkId) -> Option<&RouterLink> {
        self.router_links.get(link.index())?.as_ref()
    }

    /// Every `RouterLink` task created so far.
    pub(crate) fn link_tasks(&self) -> impl Iterator<Item = &RouterLink> {
        self.router_links.iter().flatten()
    }

    /// `true` when `target` names a task this host's sessions can address: an
    /// assigned slot, or a link that sits at the carried hop of the carried
    /// slot's path. Targets the host routes to always do; a host checks
    /// targets that arrive from outside (the wire) before delivering to them.
    pub fn knows(&self, target: Target) -> bool {
        match target {
            Target::Source(slot) | Target::Destination(slot) => {
                (slot as usize) < self.state.arena.slot_count()
            }
            Target::Link { link, hop, slot } => self.state.arena.link_at(slot, hop) == Some(link),
        }
    }

    /// Delivers an API call to the source task in `slot` and carries out the
    /// actions it emits. Unassigned slots are ignored.
    pub fn api<S: Sink>(&mut self, slot: u32, call: ApiCall, out: &mut S) {
        let Some(source) = self.sources.get_mut(slot as usize) else {
            return;
        };
        let origin_session = source.session();
        let emit = &mut Emitter {
            state: &mut self.state,
            out,
            origin: Target::Source(slot),
            origin_session,
        };
        match call {
            ApiCall::Join { limit } => source.api_join(limit, emit),
            ApiCall::Leave => {
                // The `Left` marker carries the last rate the source was
                // using before the departure tore it down, and reaches the
                // observers before the `Leave` packet does.
                emit.state.subscribers.emit_rate(&RateEvent {
                    at: emit.out.now(),
                    session: origin_session,
                    rate: source.current_rate(),
                    cause: RateCause::Left,
                });
                source.api_leave(emit);
            }
            ApiCall::Change { limit } => {
                // Tag the cause when the change is *processed*, not when it
                // was scheduled — a re-convergence notification that fires
                // before the change takes effect must stay `Converged`.
                emit.state.causes[slot as usize] = RateCause::Changed;
                source.api_change(limit, emit);
            }
        }
    }

    /// Delivers `packet` to the task `target` and carries out the actions it
    /// emits. Unassigned slots are ignored.
    ///
    /// # Panics
    ///
    /// Panics if a link target is out of range (see [`TaskHost::knows`]).
    pub fn deliver<S: Sink>(&mut self, target: Target, packet: Packet, out: &mut S) {
        // Actions for the delivered packet's own session reuse the slot (and
        // hop) carried by `target`, so the common forward-one-hop case
        // resolves no map at all.
        let origin_session = packet.session();
        let emit = &mut Emitter {
            state: &mut self.state,
            out,
            origin: target,
            origin_session,
        };
        match target {
            Target::Source(slot) => {
                if let Some(source) = self.sources.get_mut(slot as usize) {
                    source.handle(packet, emit);
                }
            }
            Target::Link { link: e, hop, slot } => {
                let link = self.router_links[e.index()].get_or_insert_with(|| {
                    RouterLink::new(e, self.capacities[e.index()], self.tolerance)
                });
                // The member hint is copied out of the hop record and written
                // back after the handler, which reads the arena meanwhile.
                let arena = &mut emit.state.arena;
                let mut hint = arena.hint_mut(slot, hop).map_or(u32::MAX, |h| *h);
                link.handle_hinted(packet, &mut hint, emit);
                if let Some(record) = emit.state.arena.hint_mut(slot, hop) {
                    *record = hint;
                }
            }
            Target::Destination(slot) => {
                if let Some(destination) = self.destinations.get(slot as usize) {
                    destination.handle(packet, emit);
                }
            }
        }
    }
}

/// The host's side of a handler's [`Emit`]: each action is routed, counted
/// and handed to the [`Sink`] the moment the handler emits it.
struct Emitter<'a, S> {
    state: &'a mut HostState,
    out: &'a mut S,
    /// The emitting task, and the session of the packet or API call it
    /// handles.
    origin: Target,
    origin_session: SessionId,
}

impl<S: Sink> Emit for Emitter<'_, S> {
    #[inline]
    fn emit(&mut self, action: Action) {
        let (packet, downstream) = match action {
            Action::NotifyRate { session, rate } => return self.notify(session, rate),
            Action::SendDownstream(packet) => (packet, true),
            Action::SendUpstream(packet) => (packet, false),
        };
        let state = &mut *self.state;
        let Some((over, to)) = state.route(
            self.origin,
            self.origin_session,
            packet.session(),
            downstream,
        ) else {
            return;
        };
        state.stats.record(packet.kind());
        if state.subscribers.wants_packets() {
            state.subscribers.note_packet(self.out.now(), packet.kind());
        }
        self.out.transmit(over, to, packet);
    }
}

impl<S: Sink> Emitter<'_, S> {
    /// `API.Rate(session, rate)`: records the rate and publishes it with its
    /// cause.
    fn notify(&mut self, session: SessionId, rate: Rate) {
        let state = &mut *self.state;
        let cause = match state.arena.slot_of(session) {
            Some(slot) => {
                state.notified[slot as usize] = rate;
                self.out.notified(slot, rate);
                std::mem::replace(&mut state.causes[slot as usize], RateCause::Converged)
            }
            None => RateCause::Converged,
        };
        if !state.subscribers.is_empty() {
            state.subscribers.emit_rate(&RateEvent {
                at: self.out.now(),
                session,
                rate,
                cause,
            });
        }
    }
}

impl HostState {
    /// The next hop of a packet of `session` emitted by the task at `origin`
    /// while it handled a packet of `origin_session`: the directed link the
    /// packet travels over and the task at its far end. `None` when there is no
    /// such hop — the session never joined, the origin is no longer on its path
    /// (a stray packet of a previous incarnation), or the path ends here.
    ///
    /// A task sits at the *sending* end of its link: the source task owns hop 0,
    /// `RouterLink` of hop `h` forwards downstream over link `h` itself, and the
    /// destination sits past the last link. Upstream packets retrace the path
    /// over the reverse of each link.
    #[inline]
    fn route(
        &self,
        origin: Target,
        origin_session: SessionId,
        session: SessionId,
        downstream: bool,
    ) -> Option<(LinkId, Target)> {
        let arena = &self.arena;
        let own_slot = |origin_slot| {
            if session == origin_session {
                Some(origin_slot)
            } else {
                arena.slot_of(session)
            }
        };
        let (slot, hop) = match origin {
            Target::Source(slot) if downstream => (own_slot(slot)?, 0),
            Target::Destination(slot) if !downstream => {
                let slot = own_slot(slot)?;
                (slot, arena.hop_count(slot))
            }
            // Trust the carried coordinates for fresh envelopes; re-resolve (or
            // drop) stale hops from a previous incarnation.
            Target::Link { link, hop, slot } => {
                let (slot, hop) = arena.resolve_hop(session, origin_session, slot, hop, link)?;
                (slot, hop as usize)
            }
            Target::Source(_) | Target::Destination(_) => return None,
        };
        let links = arena.links(slot)?;
        let at = |hop: usize| Target::Link {
            link: links[hop],
            hop: hop as u32,
            slot,
        };
        if downstream {
            let to = if hop + 1 < links.len() {
                at(hop + 1)
            } else {
                Target::Destination(slot)
            };
            Some((links[hop], to))
        } else {
            // Hop 0 belongs to the source task: nothing lives upstream of it
            // (only a stale packet can ask).
            let previous = hop.checked_sub(1)?;
            let to = if previous >= 1 {
                at(previous)
            } else {
                Target::Source(slot)
            };
            Some((links[previous].reverse(), to))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{PacketKind, ResponseKind};
    use crate::task::ActionBuffer;
    use bneck_net::{Capacity, Delay, NetworkBuilder, NodeId};
    use proptest::prelude::*;

    /// Forward links of the test chain: more than a slot's hop record holds
    /// inline, so paths along it are read from both places.
    const CHAIN: usize = 24;

    /// A chain of `CHAIN + 1` routers: `CHAIN` forward links, each with a
    /// reverse.
    fn chain() -> (Network, Vec<NodeId>) {
        let mut builder = NetworkBuilder::new();
        let routers: Vec<NodeId> = (0..=CHAIN).map(|_| builder.add_router()).collect();
        for pair in routers.windows(2) {
            builder.connect(
                pair[0],
                pair[1],
                Capacity::from_mbps(100.0),
                Delay::from_micros(1),
            );
        }
        (builder.build(), routers)
    }

    fn host_over(network: &Network) -> TaskHost {
        TaskHost::new(TaskHost::link_capacities(network), Tolerance::default())
    }

    /// The path over the `len` chain links starting at router `start`.
    fn chain_path(network: &Network, routers: &[NodeId], start: usize, len: usize) -> Path {
        let links = (start..start + len)
            .map(|i| network.link_between(routers[i], routers[i + 1]).unwrap())
            .collect();
        Path::from_links(network, links)
    }

    /// Follows `route` from `from` until it reaches `end`, returning the
    /// links travelled over.
    fn walk(
        host: &TaskHost,
        session: SessionId,
        from: Target,
        end: Target,
        downstream: bool,
    ) -> Vec<LinkId> {
        let (mut at, mut over) = (from, Vec::new());
        while at != end {
            let (link, next) = host
                .state
                .route(at, session, session, downstream)
                .expect("the walk stays on the path");
            over.push(link);
            at = next;
        }
        over
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Downstream from the source visits the path's links in order and
        /// ends at the destination; upstream from the destination retraces
        /// it over the reverse links and ends at the source. Every link task
        /// on the way is addressed with the hop it sits at.
        #[test]
        fn routing_walks_the_path_hop_by_hop(len in 1usize..CHAIN + 1, start in 0usize..CHAIN) {
            let (network, routers) = chain();
            let start = start % (CHAIN + 1 - len);
            let path = chain_path(&network, &routers, start, len);
            let mut host = host_over(&network);
            // A first session occupies slot 0, so the walked one sits at 1.
            host.register_session(SessionId(9), path.clone(), RateLimit::unlimited());
            let session = SessionId(7);
            let slot = host.register_session(session, path.clone(), RateLimit::unlimited());
            let (source, destination) = (Target::Source(slot), Target::Destination(slot));

            // Before a first delivery routing reads the `Path`; after one,
            // the hop records it built. Both must walk the same way.
            for records in [false, true] {
                if records {
                    host.state.arena.hint_mut(slot, 0);
                }
                let down = walk(&host, session, source, destination, true);
                prop_assert_eq!(&down[..], path.links());
                let up = walk(&host, session, destination, source, false);
                let reversed: Vec<LinkId> = path
                    .links()
                    .iter()
                    .rev()
                    .map(|l| {
                        let l = network.link(*l);
                        network.link_between(l.dst(), l.src()).unwrap()
                    })
                    .collect();
                prop_assert_eq!(up, reversed);

                // The ends of the path are ends: nothing routes past them.
                prop_assert_eq!(host.state.route(destination, session, session, true), None);
                prop_assert_eq!(host.state.route(source, session, session, false), None);
                for (hop, link) in path.links().iter().enumerate().skip(1) {
                    let at = Target::Link { link: *link, hop: hop as u32, slot };
                    prop_assert!(host.knows(at));
                    // A packet of the *other* session on this link is routed
                    // along that session's own slot.
                    let (_, next) = host.state.route(at, session, SessionId(9), true).unwrap();
                    let other = match next {
                        Target::Link { slot, .. } | Target::Destination(slot) => slot,
                        Target::Source(_) => unreachable!("downstream never reaches a source"),
                    };
                    prop_assert_eq!(other, 0);
                }
            }
        }
    }

    #[test]
    fn stale_coordinates_are_reresolved_or_dropped() {
        let (network, routers) = chain();
        let mut host = host_over(&network);
        let session = SessionId(0);
        let old = chain_path(&network, &routers, 0, 4);
        let slot = host.register_session(session, old.clone(), RateLimit::unlimited());
        let links = old.links();
        let fresh = host.state.route(
            Target::Link {
                link: links[2],
                hop: 2,
                slot,
            },
            session,
            session,
            true,
        );
        // A wrong carried hop (or slot) is re-resolved by scanning the path.
        for (hop, slot) in [(0, slot), (7, slot), (2, 99)] {
            let stale = Target::Link {
                link: links[2],
                hop,
                slot,
            };
            assert!(!host.knows(stale));
            assert_eq!(host.state.route(stale, session, session, true), fresh);
        }
        // Hop 0 is the source's own link: nothing lives upstream of it.
        let first = Target::Link {
            link: links[0],
            hop: 0,
            slot,
        };
        assert_eq!(host.state.route(first, session, session, false), None);
        // A session that never joined has no route.
        assert_eq!(host.state.route(first, session, SessionId(5), true), None);
        // After a rejoin along a different path, links unique to the previous
        // incarnation's path are no longer resolvable.
        host.deregister_session(session);
        let new = chain_path(&network, &routers, 2, 4);
        assert_eq!(
            host.register_session(session, new.clone(), RateLimit::unlimited()),
            slot
        );
        assert_eq!(host.state.route(first, session, session, true), None);
        let shared = Target::Link {
            link: links[2],
            hop: 2,
            slot,
        };
        assert_eq!(
            host.state.route(shared, session, session, true),
            Some((
                new.links()[0],
                Target::Link {
                    link: new.links()[1],
                    hop: 1,
                    slot
                }
            )),
            "a link both incarnations cross is re-resolved at its new hop"
        );

        // Long → short → long: every rejoin rewrites the slot's hop record
        // whole, whether the path fits it inline or not. The record of the
        // current, short incarnation is built first, so the first rejoin
        // already has one to rewrite.
        host.state.arena.hint_mut(slot, 0);
        let (long, short) = (chain_path(&network, &routers, 0, 20), new.clone());
        let longer = chain_path(&network, &routers, 1, 23);
        for path in [&long, &short, &longer] {
            host.deregister_session(session);
            assert_eq!(
                host.register_session(session, path.clone(), RateLimit::unlimited()),
                slot
            );
            // The record built here must be rewritten by the next rejoin.
            host.state.arena.hint_mut(slot, 0);
            assert_eq!(host.arena().hop_count(slot), path.links().len());
            let (source, destination) = (Target::Source(slot), Target::Destination(slot));
            let down = walk(&host, session, source, destination, true);
            assert_eq!(&down[..], path.links());
            assert_eq!(
                walk(&host, session, destination, source, false).len(),
                down.len()
            );
        }
        // Hop 18 of the first long incarnation is hop 17 of the current one,
        // both past the inline links; hop 1 of the short one is hop 2 now.
        for (link, hop, now) in [(long.links()[18], 18, 17), (short.links()[1], 1, 2)] {
            let stale = Target::Link { link, hop, slot };
            assert!(!host.knows(stale));
            let next = Target::Link {
                link: longer.links()[now + 1],
                hop: now as u32 + 1,
                slot,
            };
            assert_eq!(
                host.state.route(stale, session, session, true),
                Some((link, next))
            );
        }
        // A link only the first long incarnation crossed is dropped.
        let gone = Target::Link {
            link: long.links()[0],
            hop: 0,
            slot,
        };
        assert_eq!(host.state.route(gone, session, session, true), None);
    }

    /// One call a host made on its sink.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Call {
        Transmit(LinkId, Target, Packet),
        Notified(u32, Rate),
    }

    /// A sink that records what the host hands it, in order.
    #[derive(Default)]
    struct Recorder {
        calls: Vec<Call>,
        /// How many of `calls` [`Recorder::drive`] has handled.
        driven: usize,
        clock_reads: std::cell::Cell<u32>,
    }

    impl Sink for Recorder {
        fn transmit(&mut self, over: LinkId, to: Target, packet: Packet) {
            self.calls.push(Call::Transmit(over, to, packet));
        }
        fn now(&self) -> SimTime {
            self.clock_reads.set(self.clock_reads.get() + 1);
            SimTime::ZERO
        }
        fn notified(&mut self, slot: u32, rate: Rate) {
            self.calls.push(Call::Notified(slot, rate));
        }
    }

    impl Recorder {
        /// Drives the cascade the way a host does: delivers every recorded
        /// transmission back into `host`, FIFO, until nothing is left.
        fn drive(&mut self, host: &mut TaskHost) {
            while let Some(&call) = self.calls.get(self.driven) {
                self.driven += 1;
                if let Call::Transmit(_, to, packet) = call {
                    host.deliver(to, packet, self);
                }
            }
        }

        fn transmissions(&self) -> usize {
            self.calls
                .iter()
                .filter(|c| matches!(c, Call::Transmit(..)))
                .count()
        }
    }

    #[test]
    fn a_join_cascades_through_the_sink_without_reading_the_clock() {
        let (network, routers) = chain();
        let mut host = host_over(&network);
        let path = chain_path(&network, &routers, 0, 3);
        let slot = host.register_session(SessionId(1), path.clone(), RateLimit::unlimited());
        let mut out = Recorder::default();
        host.api(
            slot,
            ApiCall::Join {
                limit: RateLimit::unlimited(),
            },
            &mut out,
        );
        out.drive(&mut host);
        assert_eq!(host.stats().total(), out.transmissions() as u64);
        let Call::Transmit(first_over, first_to, _) = out.calls[0] else {
            panic!("a join starts with a transmission, not {:?}", out.calls[0]);
        };
        assert_eq!(first_over, path.links()[0]);
        assert_eq!(
            first_to,
            Target::Link {
                link: path.links()[1],
                hop: 1,
                slot
            }
        );
        // Alone on 100 Mbps links the session converges to the capacity,
        // published through the hook and kept by the host.
        let last_rate = out
            .calls
            .iter()
            .rev()
            .find(|c| matches!(c, Call::Notified(..)));
        assert_eq!(last_rate, Some(&Call::Notified(slot, 100e6)));
        assert_eq!(host.notified_rate(slot), 100e6);
        assert_eq!(
            out.clock_reads.get(),
            0,
            "with no subscriber the host must never read the clock"
        );
    }

    /// A model of `deliver` that buffers: the handler runs into an
    /// [`ActionBuffer`], then each buffered action is routed and carried out
    /// in emission order.
    fn model_deliver(host: &mut TaskHost, target: Target, packet: Packet, out: &mut Recorder) {
        let mut actions = ActionBuffer::new();
        match target {
            Target::Source(slot) => {
                if let Some(source) = host.sources.get_mut(slot as usize) {
                    source.handle(packet, &mut actions);
                }
            }
            Target::Link { link, hop, slot } => {
                let (capacity, tolerance) = (host.capacities[link.index()], host.tolerance);
                let task = host.router_links[link.index()]
                    .get_or_insert_with(|| RouterLink::new(link, capacity, tolerance));
                let mut spare = u32::MAX;
                let hint = host.state.arena.hint_mut(slot, hop).unwrap_or(&mut spare);
                task.handle_hinted(packet, hint, &mut actions);
            }
            Target::Destination(slot) => {
                if let Some(destination) = host.destinations.get(slot as usize) {
                    destination.handle(packet, &mut actions);
                }
            }
        }
        model_perform(host, target, packet.session(), actions, out);
    }

    /// [`model_deliver`] for an API call.
    fn model_api(host: &mut TaskHost, slot: u32, call: ApiCall, out: &mut Recorder) {
        let source = &mut host.sources[slot as usize];
        let mut actions = ActionBuffer::new();
        match call {
            ApiCall::Join { limit } => source.api_join(limit, &mut actions),
            ApiCall::Leave => source.api_leave(&mut actions),
            ApiCall::Change { limit } => source.api_change(limit, &mut actions),
        }
        let session = source.session();
        model_perform(host, Target::Source(slot), session, actions, out);
    }

    fn model_perform(
        host: &mut TaskHost,
        origin: Target,
        origin_session: SessionId,
        actions: ActionBuffer,
        out: &mut Recorder,
    ) {
        for &action in actions.as_slice() {
            let (packet, downstream) = match action {
                Action::NotifyRate { session, rate } => {
                    if let Some(slot) = host.state.arena.slot_of(session) {
                        host.state.notified[slot as usize] = rate;
                        out.notified(slot, rate);
                    }
                    continue;
                }
                Action::SendDownstream(packet) => (packet, true),
                Action::SendUpstream(packet) => (packet, false),
            };
            if let Some((over, to)) =
                host.state
                    .route(origin, origin_session, packet.session(), downstream)
            {
                host.state.stats.record(packet.kind());
                out.transmit(over, to, packet);
            }
        }
    }

    /// A packet of every kind, chosen by `kind`.
    fn any_packet(kind: u32, session: SessionId, rate: Rate, link: LinkId) -> Packet {
        match kind % 7 {
            0 => Packet::Join {
                session,
                rate,
                restricting: link,
            },
            1 => Packet::Probe {
                session,
                rate,
                restricting: link,
            },
            2 => Packet::Response {
                session,
                kind: ResponseKind::Bottleneck,
                rate,
                restricting: link,
            },
            3 => Packet::Update { session },
            4 => Packet::Bottleneck { session },
            5 => Packet::SetBottleneck {
                session,
                found: rate > 50e6,
            },
            _ => Packet::Leave { session },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// For any script of API calls, in-order and reordered deliveries of
        /// the packets in flight and stray packets, `deliver` and `api` make
        /// exactly the sink calls, in exactly the order, of the model that
        /// buffers a handler's actions before carrying them out.
        #[test]
        fn handlers_emit_what_the_buffering_model_does(
            spans in prop::collection::vec((0usize..CHAIN, 1usize..CHAIN + 1), 1..7),
            script in prop::collection::vec((0u32..16, 0u32..1024, 0u32..1024), 1..160),
        ) {
            let (network, routers) = chain();
            let paths: Vec<Path> = spans
                .iter()
                .map(|&(start, len)| {
                    let len = len.min(CHAIN - start);
                    chain_path(&network, &routers, start, len)
                })
                .collect();
            let (mut host, mut model) = (host_over(&network), host_over(&network));
            let mut slots: Vec<Option<u32>> = vec![None; paths.len()];
            let mut in_flight: Vec<(Target, Packet)> = Vec::new();
            let steps = script.len();
            // After the script, drain what is still in flight FIFO.
            let drain = std::iter::repeat_n((3, 0, 0), 20_000);
            for (step, (op, a, b)) in script.into_iter().chain(drain).enumerate() {
                if step >= steps && in_flight.is_empty() {
                    break;
                }
                let i = a as usize % paths.len();
                let session = SessionId(i as u64);
                let limit = if b % 3 == 0 {
                    RateLimit::unlimited()
                } else {
                    RateLimit::finite(f64::from(b % 97 + 1) * 1e6)
                };
                let (mut got, mut want) = (Recorder::default(), Recorder::default());
                match (op, slots[i]) {
                    (0..=1, None) => {
                        let slot = host.register_session(session, paths[i].clone(), limit);
                        let twin = model.register_session(session, paths[i].clone(), limit);
                        prop_assert_eq!(twin, slot);
                        slots[i] = Some(slot);
                        host.api(slot, ApiCall::Join { limit }, &mut got);
                        model_api(&mut model, slot, ApiCall::Join { limit }, &mut want);
                    }
                    (0..=1, Some(slot)) => {
                        host.api(slot, ApiCall::Leave, &mut got);
                        model_api(&mut model, slot, ApiCall::Leave, &mut want);
                        host.deregister_session(session);
                        model.deregister_session(session);
                        slots[i] = None;
                    }
                    (2, Some(slot)) => {
                        host.change_session(session, limit);
                        model.change_session(session, limit);
                        host.api(slot, ApiCall::Change { limit }, &mut got);
                        model_api(&mut model, slot, ApiCall::Change { limit }, &mut want);
                    }
                    (3..=14, _) if !in_flight.is_empty() => {
                        // Mostly in order; now and then out of order.
                        let at = if op < 13 { 0 } else { b as usize % in_flight.len() };
                        let (to, packet) = in_flight.remove(at);
                        host.deliver(to, packet, &mut got);
                        model_deliver(&mut model, to, packet, &mut want);
                    }
                    (15, _) => {
                        let link = LinkId(b % (2 * CHAIN as u32));
                        let slot = b % (host.arena().slot_count() as u32 + 1);
                        let to = match a % 3 {
                            0 => Target::Source(slot),
                            1 => Target::Destination(slot),
                            _ => Target::Link { link, hop: a % 20, slot },
                        };
                        let packet = any_packet(b, session, f64::from(a % 100) * 1e6, link);
                        host.deliver(to, packet, &mut got);
                        model_deliver(&mut model, to, packet, &mut want);
                    }
                    _ => continue,
                }
                prop_assert_eq!(&got.calls, &want.calls, "step {} ({}, {}, {})", step, op, a, b);
                in_flight.extend(got.calls.iter().filter_map(|call| match *call {
                    Call::Transmit(_, to, packet) => Some((to, packet)),
                    Call::Notified(..) => None,
                }));
            }
            prop_assert_eq!(host.stats(), model.stats());
            for slot in 0..host.arena().slot_count() as u32 {
                prop_assert_eq!(
                    host.notified_rate(slot).to_bits(),
                    model.notified_rate(slot).to_bits()
                );
            }
        }
    }

    /// What a subscriber that wants packets as well as rates sees, in order.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Seen {
        Rate(RateCause),
        Packet(PacketKind),
    }

    #[derive(Clone, Default)]
    struct Observer(std::sync::Arc<std::sync::Mutex<Vec<Seen>>>);

    impl Observer {
        fn take(&self) -> Vec<Seen> {
            std::mem::take(&mut *self.0.lock().expect("log poisoned"))
        }
    }

    impl Subscriber for Observer {
        fn on_rate(&mut self, event: &RateEvent) {
            self.0
                .lock()
                .expect("log poisoned")
                .push(Seen::Rate(event.cause));
        }
        fn on_packet(&mut self, _at: SimTime, kind: PacketKind) {
            self.0
                .lock()
                .expect("log poisoned")
                .push(Seen::Packet(kind));
        }
        fn wants_packets(&self) -> bool {
            true
        }
    }

    #[test]
    fn observers_see_left_before_the_leave_packet_and_changed_after_a_change() {
        let (network, routers) = chain();
        let mut host = host_over(&network);
        let observer = Observer::default();
        host.subscribe(Box::new(observer.clone()));
        let path = chain_path(&network, &routers, 0, 3);
        let session = SessionId(1);
        let slot = host.register_session(session, path, RateLimit::unlimited());
        let mut out = Recorder::default();
        let limit = RateLimit::unlimited();
        host.api(slot, ApiCall::Join { limit }, &mut out);
        out.drive(&mut host);
        let joined = observer.take();
        assert_eq!(joined.first(), Some(&Seen::Packet(PacketKind::Join)));
        assert!(joined.contains(&Seen::Rate(RateCause::Joined)));

        let limit = RateLimit::finite(40e6);
        host.change_session(session, limit);
        host.api(slot, ApiCall::Change { limit }, &mut out);
        out.drive(&mut host);
        let rates: Vec<Seen> = observer
            .take()
            .into_iter()
            .filter(|seen| matches!(seen, Seen::Rate(_)))
            .collect();
        assert_eq!(rates.first(), Some(&Seen::Rate(RateCause::Changed)));
        assert_eq!(host.notified_rate(slot), 40e6);

        host.api(slot, ApiCall::Leave, &mut out);
        assert_eq!(
            observer.take(),
            [Seen::Rate(RateCause::Left), Seen::Packet(PacketKind::Leave)]
        );
    }
}
