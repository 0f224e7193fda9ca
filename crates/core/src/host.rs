//! The task host: everything between a delivered packet and the
//! transmissions it causes, written once for every host of the protocol.
//!
//! The paper specifies B-Neck as three task types whose atomic `when` blocks
//! only ever "send downstream / upstream" along the session's path over
//! reliable FIFO links (§II, Figures 2–4); nothing in that depends on what
//! carries the packets. [`TaskHost`] is that host-independent part: it owns
//! the [`RouterLink`], [`SourceNode`] and [`DestinationNode`] tasks, the
//! [`SessionArena`] of slots and paths, the per-link capacity and reverse
//! tables, the `API.Rate` cause tracking, the packet counters and the
//! observers, and it holds the only copy of task dispatch, API-call handling
//! and next-hop routing. What differs between hosts is *delivery*, and a host
//! supplies it as a [`Sink`]: the simulation harness sends on the link's
//! simulator channel, the `bneck-node` runtime queues node-local hops and
//! encodes the rest onto its transport.

#![cfg_attr(not(test), warn(clippy::wildcard_enum_match_arm))]

use crate::destination::DestinationNode;
use crate::events::{RateCause, RateEvent, Subscriber, SubscriberSet};
use crate::packet::Packet;
use crate::router_link::RouterLink;
use crate::source::SourceNode;
use crate::stats::PacketStats;
use crate::task::{Action, ActionBuffer};
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
    /// Reverse of each directed link (`None` for one-way links), by `LinkId`.
    reverse: Vec<Option<LinkId>>,
    /// The `RouterLink` task of each directed link, by `LinkId`; `None` until
    /// a packet first reaches the link.
    router_links: Vec<Option<RouterLink>>,
    /// Per-session tasks, indexed by session slot (parallel to `arena`).
    /// Entries persist after a leave (stray packets may still be in flight)
    /// and are overwritten when the identifier rejoins.
    sources: Vec<SourceNode>,
    destinations: Vec<DestinationNode>,
    /// Last notified rate per session slot; `NaN` = never notified / cleared.
    notified: Vec<Rate>,
    /// What a slot's *next* `API.Rate` notification means: `Joined` after a
    /// join, `Changed` after a change, `Converged` once the first
    /// notification of the incarnation went out. Indexed by slot.
    causes: Vec<RateCause>,
    arena: SessionArena,
    /// Reusable buffer the task handlers emit into.
    scratch: ActionBuffer,
    stats: PacketStats,
    subscribers: SubscriberSet,
}

impl TaskHost {
    /// What a host needs to know about `network`'s links: the capacity (bits
    /// per second) and the reverse of each, both indexed by `LinkId`.
    pub fn link_tables(network: &Network) -> (Vec<Rate>, Vec<Option<LinkId>>) {
        let capacities = network.links().map(|l| l.capacity().as_bps()).collect();
        let reverse = network
            .links()
            .map(|l| network.reverse_link(l.id()))
            .collect();
        (capacities, reverse)
    }

    /// A host over links with the given [`TaskHost::link_tables`], with no
    /// session yet.
    pub fn new(
        (capacities, reverse): (Vec<Rate>, Vec<Option<LinkId>>),
        tolerance: Tolerance,
    ) -> Self {
        TaskHost {
            tolerance,
            router_links: capacities.iter().map(|_| None).collect(),
            capacities,
            reverse,
            sources: Vec::new(),
            destinations: Vec::new(),
            notified: Vec::new(),
            causes: Vec::new(),
            arena: SessionArena::new(),
            scratch: ActionBuffer::new(),
            stats: PacketStats::new(),
            subscribers: SubscriberSet::new(),
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
            .arena
            .join(session, path, limit)
            .expect("the session must not be active");
        if joined.reused {
            let i = joined.slot as usize;
            self.sources[i] = source;
            self.destinations[i] = DestinationNode::new(session);
            self.notified[i] = f64::NAN;
            self.causes[i] = RateCause::Joined;
        } else {
            self.sources.push(source);
            self.destinations.push(DestinationNode::new(session));
            self.notified.push(f64::NAN);
            self.causes.push(RateCause::Joined);
        }
        joined.slot
    }

    /// Deactivates `session`, clearing its notified rate. Returns the slot it
    /// occupied, or `None` if the session was not active.
    pub fn deregister_session(&mut self, session: SessionId) -> Option<u32> {
        let slot = self.arena.leave(session)?;
        self.notified[slot as usize] = f64::NAN;
        Some(slot)
    }

    /// Updates `session`'s requested rate limit in the arena. Returns its
    /// slot, or `None` if the session is not active.
    pub fn change_session(&mut self, session: SessionId, limit: RateLimit) -> Option<u32> {
        self.arena.change(session, limit)
    }

    /// The session-slot arena: id ↔ slot, paths, limits, the active set.
    pub fn arena(&self) -> &SessionArena {
        &self.arena
    }

    /// Cumulative counts of the packets this host transmitted, by kind.
    pub fn stats(&self) -> &PacketStats {
        &self.stats
    }

    /// Registers an observer of this host's rate events and packets.
    pub fn subscribe(&mut self, subscriber: Box<dyn Subscriber>) {
        self.subscribers.subscribe(subscriber);
    }

    /// Tells the observers the host went quiescent at `at`.
    pub fn announce_quiescent(&mut self, at: SimTime) {
        self.subscribers.announce_quiescent(at);
    }

    /// The last rate notified to the source task in `slot` (`NaN` when the
    /// slot has never been notified since its last join).
    pub fn notified_rate(&self, slot: u32) -> Rate {
        self.notified[slot as usize]
    }

    /// The source task in `slot`, if the slot was ever assigned.
    pub fn source(&self, slot: u32) -> Option<&SourceNode> {
        self.sources.get(slot as usize)
    }

    /// The `RouterLink` task of `link`, if a packet ever reached it.
    pub fn link_task(&self, link: LinkId) -> Option<&RouterLink> {
        self.router_links.get(link.index())?.as_ref()
    }

    /// Every `RouterLink` task created so far.
    pub fn link_tasks(&self) -> impl Iterator<Item = &RouterLink> {
        self.router_links.iter().flatten()
    }

    /// `true` when `target` names a task this host's sessions can address: an
    /// assigned slot, or a link that sits at the carried hop of the carried
    /// slot's path. Targets the host routes to always do; a host checks
    /// targets that arrive from outside (the wire) before delivering to them.
    pub fn knows(&self, target: Target) -> bool {
        match target {
            Target::Source(slot) | Target::Destination(slot) => {
                (slot as usize) < self.arena.slot_count()
            }
            Target::Link { link, hop, slot } => self.arena.link_at(slot, hop) == Some(link),
        }
    }

    /// Delivers an API call to the source task in `slot` and carries out the
    /// actions it emits. Unassigned slots are ignored.
    pub fn api<S: Sink>(&mut self, slot: u32, call: ApiCall, out: &mut S) {
        let Some(source) = self.sources.get_mut(slot as usize) else {
            return;
        };
        let session = source.session();
        let mut actions = std::mem::take(&mut self.scratch);
        actions.clear();
        match call {
            ApiCall::Join { limit } => source.api_join(limit, &mut actions),
            ApiCall::Leave => {
                // The `Left` marker carries the last rate the source was
                // using before the departure tore it down.
                let rate = source.current_rate();
                source.api_leave(&mut actions);
                self.subscribers.emit_rate(&RateEvent {
                    at: out.now(),
                    session,
                    rate,
                    cause: RateCause::Left,
                });
            }
            ApiCall::Change { limit } => {
                // Tag the cause when the change is *processed*, not when it
                // was scheduled — a re-convergence notification that fires
                // before the change takes effect must stay `Converged`.
                self.causes[slot as usize] = RateCause::Changed;
                source.api_change(limit, &mut actions);
            }
        }
        for action in actions.drain() {
            self.perform(out, Target::Source(slot), session, action);
        }
        self.scratch = actions;
    }

    /// Delivers `packet` to the task `target` and carries out the actions it
    /// emits. Unassigned slots are ignored.
    ///
    /// # Panics
    ///
    /// Panics if a link target is out of range (see [`TaskHost::knows`]).
    pub fn deliver<S: Sink>(&mut self, target: Target, packet: Packet, out: &mut S) {
        let mut actions = std::mem::take(&mut self.scratch);
        actions.clear();
        match target {
            Target::Source(slot) => {
                if let Some(source) = self.sources.get_mut(slot as usize) {
                    source.handle(packet, &mut actions);
                }
            }
            Target::Link { link: e, hop, slot } => {
                let link = self.router_links[e.index()].get_or_insert_with(|| {
                    RouterLink::new(e, self.capacities[e.index()], self.tolerance)
                });
                let mut spare = u32::MAX;
                let hint = self.arena.hint_mut(slot, hop).unwrap_or(&mut spare);
                link.handle_hinted(packet, hint, &mut actions);
            }
            Target::Destination(slot) => {
                if let Some(destination) = self.destinations.get(slot as usize) {
                    destination.handle(packet, &mut actions);
                }
            }
        }
        // Actions for the delivered packet's own session reuse the slot (and
        // hop) carried by `target`, so the common forward-one-hop case
        // resolves no map at all.
        for action in actions.drain() {
            self.perform(out, target, packet.session(), action);
        }
        self.scratch = actions;
    }

    /// Turns a task action into a transmission (or a rate notification).
    fn perform<S: Sink>(
        &mut self,
        out: &mut S,
        origin: Target,
        origin_session: SessionId,
        action: Action,
    ) {
        let (packet, downstream) = match action {
            Action::NotifyRate { session, rate } => {
                let cause = match self.arena.slot_of(session) {
                    Some(slot) => {
                        self.notified[slot as usize] = rate;
                        out.notified(slot, rate);
                        std::mem::replace(&mut self.causes[slot as usize], RateCause::Converged)
                    }
                    None => RateCause::Converged,
                };
                if !self.subscribers.is_empty() {
                    self.subscribers.emit_rate(&RateEvent {
                        at: out.now(),
                        session,
                        rate,
                        cause,
                    });
                }
                return;
            }
            Action::SendDownstream(packet) => (packet, true),
            Action::SendUpstream(packet) => (packet, false),
        };
        let Some((over, to)) = self.route(origin, origin_session, packet.session(), downstream)
        else {
            return;
        };
        self.stats.record(packet.kind());
        if self.subscribers.wants_packets() {
            self.subscribers.note_packet(out.now(), packet.kind());
        }
        out.transmit(over, to, packet);
    }

    /// The next hop of a packet of `session` emitted by the task at `origin`
    /// while it handled a packet of `origin_session`: the directed link the
    /// packet travels over and the task at its far end. `None` when there is
    /// no such hop — the session never joined, the origin is no longer on its
    /// path (a stray packet of a previous incarnation), the path ends here,
    /// or the link has no reverse to carry an upstream packet.
    ///
    /// A task sits at the *sending* end of its link: the source task owns hop
    /// 0, `RouterLink` of hop `h` forwards downstream over link `h` itself,
    /// and the destination sits past the last link. Upstream packets retrace
    /// the path over the reverse of each link.
    fn route(
        &self,
        origin: Target,
        origin_session: SessionId,
        session: SessionId,
        downstream: bool,
    ) -> Option<(LinkId, Target)> {
        let own_slot = |origin_slot| {
            if session == origin_session {
                Some(origin_slot)
            } else {
                self.arena.slot_of(session)
            }
        };
        let (slot, hop) = match origin {
            Target::Source(slot) if downstream => (own_slot(slot)?, 0),
            Target::Destination(slot) if !downstream => {
                let slot = own_slot(slot)?;
                (slot, self.arena.hop_count(slot))
            }
            // Trust the carried coordinates for fresh envelopes; re-resolve
            // (or drop) stale hops from a previous incarnation.
            Target::Link { link, hop, slot } => {
                let (slot, hop) =
                    self.arena
                        .resolve_hop(session, origin_session, slot, hop, link)?;
                (slot, hop as usize)
            }
            Target::Source(_) | Target::Destination(_) => return None,
        };
        let links = self.arena.links(slot)?;
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
            Some((self.reverse[links[previous].index()]?, to))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bneck_net::{Capacity, Delay, NetworkBuilder, NodeId};
    use proptest::prelude::*;

    /// Forward links of the test chain: more than a slot's hop record holds
    /// inline, so paths along it are read from both places.
    const CHAIN: usize = 24;

    /// A chain of `CHAIN + 1` routers: `CHAIN` forward links, each with a
    /// reverse.
    fn chain() -> (Network, Vec<NodeId>) {
        let mut builder = NetworkBuilder::new();
        let routers: Vec<NodeId> = (0..=CHAIN)
            .map(|i| builder.add_router(format!("r{i}")))
            .collect();
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
        TaskHost::new(TaskHost::link_tables(network), Tolerance::default())
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
                    host.arena.hint_mut(slot, 0);
                }
                let down = walk(&host, session, source, destination, true);
                prop_assert_eq!(&down[..], path.links());
                let up = walk(&host, session, destination, source, false);
                let reversed: Vec<LinkId> = path
                    .links()
                    .iter()
                    .rev()
                    .map(|l| network.reverse_link(*l).unwrap())
                    .collect();
                prop_assert_eq!(up, reversed);

                // The ends of the path are ends: nothing routes past them.
                prop_assert_eq!(host.route(destination, session, session, true), None);
                prop_assert_eq!(host.route(source, session, session, false), None);
                for (hop, link) in path.links().iter().enumerate().skip(1) {
                    let at = Target::Link { link: *link, hop: hop as u32, slot };
                    prop_assert!(host.knows(at));
                    // A packet of the *other* session on this link is routed
                    // along that session's own slot.
                    let (_, next) = host.route(at, session, SessionId(9), true).unwrap();
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
        let fresh = host.route(
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
            assert_eq!(host.route(stale, session, session, true), fresh);
        }
        // Hop 0 is the source's own link: nothing lives upstream of it.
        let first = Target::Link {
            link: links[0],
            hop: 0,
            slot,
        };
        assert_eq!(host.route(first, session, session, false), None);
        // A session that never joined has no route.
        assert_eq!(host.route(first, session, SessionId(5), true), None);
        // After a rejoin along a different path, links unique to the previous
        // incarnation's path are no longer resolvable.
        host.deregister_session(session);
        let new = chain_path(&network, &routers, 2, 4);
        assert_eq!(
            host.register_session(session, new.clone(), RateLimit::unlimited()),
            slot
        );
        assert_eq!(host.route(first, session, session, true), None);
        let shared = Target::Link {
            link: links[2],
            hop: 2,
            slot,
        };
        assert_eq!(
            host.route(shared, session, session, true),
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
        host.arena.hint_mut(slot, 0);
        let (long, short) = (chain_path(&network, &routers, 0, 20), new.clone());
        let longer = chain_path(&network, &routers, 1, 23);
        for path in [&long, &short, &longer] {
            host.deregister_session(session);
            assert_eq!(
                host.register_session(session, path.clone(), RateLimit::unlimited()),
                slot
            );
            // The record built here must be rewritten by the next rejoin.
            host.arena.hint_mut(slot, 0);
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
                host.route(stale, session, session, true),
                Some((link, next))
            );
        }
        // A link only the first long incarnation crossed is dropped.
        let gone = Target::Link {
            link: long.links()[0],
            hop: 0,
            slot,
        };
        assert_eq!(host.route(gone, session, session, true), None);
    }

    /// A sink that records what the host hands it.
    #[derive(Default)]
    struct Recorder {
        sent: Vec<(LinkId, Target, Packet)>,
        rates: Vec<(u32, Rate)>,
        clock_reads: std::cell::Cell<u32>,
    }

    impl Sink for Recorder {
        fn transmit(&mut self, over: LinkId, to: Target, packet: Packet) {
            self.sent.push((over, to, packet));
        }
        fn now(&self) -> SimTime {
            self.clock_reads.set(self.clock_reads.get() + 1);
            SimTime::ZERO
        }
        fn notified(&mut self, slot: u32, rate: Rate) {
            self.rates.push((slot, rate));
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
        // Drive the cascade the way a host does: FIFO, until nothing is left.
        let mut delivered = 0;
        while delivered < out.sent.len() {
            let (_, to, packet) = out.sent[delivered];
            delivered += 1;
            host.deliver(to, packet, &mut out);
        }
        assert_eq!(host.stats().total(), out.sent.len() as u64);
        let (first_over, first_to, _) = out.sent[0];
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
        assert_eq!(out.rates.last(), Some(&(slot, 100e6)));
        assert_eq!(host.notified_rate(slot), 100e6);
        assert_eq!(
            out.clock_reads.get(),
            0,
            "with no subscriber the host must never read the clock"
        );
    }
}
