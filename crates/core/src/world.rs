//! Shared world plumbing for protocol harnesses.
//!
//! Every protocol-under-test in this workspace — B-Neck itself
//! (`BneckSimulation` in this crate) and the probing baselines
//! (`BaselineSimulation` in `bneck-baselines`) — runs over the same two
//! pieces of world state, which used to be duplicated in each harness:
//!
//! * [`add_link_channels`] — link `e` travels over simulator channel `e`,
//!   and upstream traffic over the channel of its [`LinkId::reverse`].
//! * [`SessionArena`] — the dense session-slot arena: a per-simulation slot
//!   is assigned to each session identifier at join (and reused when the
//!   identifier rejoins after a leave), the id → slot map, the per-slot path
//!   and requested limit, and the active-session set, from which
//!   [`SessionArena::session_set`] builds the centralized oracle's input.
//!
//! Envelope addressing is shared too: protocol messages carry their
//! session's *slot* plus the *hop index* of the link they sit on, so
//! forwarding a packet one hop resolves no id → slot map and scans no path.
//! What a delivery reads of its slot sits in one 128-byte hop record: the
//! path's links inline (up to 15; longer paths are read from their
//! [`Path`]) on one cache line, and on the next, per hop, a hint of where
//! that hop's `RouterLink` keeps the session's member record. Records are
//! built at the host's first delivery, not at join (routing reads the
//! [`Path`] until then). The hint is a cache the task validates before use,
//! never protocol state.
//! A stale envelope — one emitted by a previous incarnation of a session
//! identifier that left and rejoined along a different path while packets
//! were still in flight — is detected and re-resolved (or dropped) by
//! `SessionArena::resolve_hop`.

use bneck_maxmin::{Allocation, IdSlotMap, Rate, RateLimit, Session, SessionId, SessionSet};
use bneck_net::{LinkId, Network, Path};
use bneck_sim::{ChannelSpec, Engine};
use std::collections::BTreeSet;

/// Size of every control packet in bits, from which each link's transmission
/// time follows (the paper models both transmission and propagation times).
/// The §IV evaluation uses one size for every packet kind and protocol.
pub const CONTROL_PACKET_BITS: u64 = 256;

/// Registers every directed link of `network` as a simulator channel with
/// its bandwidth, delay and [`CONTROL_PACKET_BITS`]: link `e` as channel `e`,
/// so `engine` must have none yet, and upstream traffic over `e` takes the
/// channel of [`LinkId::reverse`].
pub fn add_link_channels<M>(network: &Network, engine: &mut Engine<M>) {
    for link in network.links() {
        let spec = ChannelSpec::new(link.capacity().as_bps(), link.delay(), CONTROL_PACKET_BITS);
        let channel = engine.add_channel(spec);
        assert_eq!(channel.0, link.id().0, "link e is registered as channel e");
    }
}

/// Links a slot keeps inline in its [`HopRecord`].
const INLINE_HOPS: usize = 15;

/// A slot's path length and first [`INLINE_HOPS`] links on one cache line,
/// its per-hop member-slot hints on the next, aligned to fetch as a pair.
#[derive(Debug)]
#[repr(C, align(128))]
struct HopRecord {
    len: u32,
    /// Meaningful only when `len <= INLINE_HOPS`.
    links: [LinkId; INLINE_HOPS],
    hints: [u32; INLINE_HOPS + 1],
}

impl HopRecord {
    fn new(path: &Path) -> Self {
        let mut links = [LinkId(0); INLINE_HOPS];
        if let Some(inline) = links.get_mut(..path.links().len()) {
            inline.copy_from_slice(path.links());
        }
        let (len, hints) = (path.links().len() as u32, [u32::MAX; INLINE_HOPS + 1]);
        HopRecord { len, links, hints }
    }
}

/// The slot a [`SessionArena::join`] assigned, and whether it was reused from
/// a previous incarnation of the same identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotJoin {
    /// The dense per-simulation slot of the session.
    pub slot: u32,
    /// `true` when the identifier rejoined after a leave and kept its slot
    /// (the harness must overwrite its per-slot protocol state), `false` when
    /// a fresh slot was appended (the harness must push new entries).
    pub reused: bool,
}

/// The dense session-slot arena shared by every protocol harness.
///
/// Slots are assigned at join and persist across a leave — in-flight packets
/// (including the departure notification itself) may still reference the
/// slot — and are reused when the same identifier rejoins. The arena owns the
/// session bookkeeping every harness needs (id ↔ slot, path, requested
/// limit, active set) while harnesses keep their protocol-specific per-slot
/// state in parallel vectors of the same length.
#[derive(Debug, Default)]
pub struct SessionArena {
    /// Session id → slot. Entries persist across a leave so stray packets
    /// can still be routed.
    slot_of: IdSlotMap,
    /// Session identifier of each slot (the current or last incarnation).
    ids: Vec<SessionId>,
    /// Path of each slot's session. Persists after a leave, overwritten on
    /// rejoin.
    paths: Vec<Path>,
    /// Hop record of each slot, built by [`SessionArena::hint_mut`].
    hops: Vec<HopRecord>,
    /// Requested maximum rate of each slot's session.
    limits: Vec<RateLimit>,
    /// The currently active session identifiers.
    active: BTreeSet<SessionId>,
}

impl SessionArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of slots ever assigned (active plus departed sessions).
    pub fn slot_count(&self) -> usize {
        self.ids.len()
    }

    /// The slot of a session identifier, if it ever joined. Persists across
    /// a leave.
    pub fn slot_of(&self, session: SessionId) -> Option<u32> {
        self.slot_of.get(session)
    }

    /// The session identifier occupying a slot.
    pub fn id_at(&self, slot: u32) -> SessionId {
        self.ids[slot as usize]
    }

    /// `true` when the session is currently active.
    pub fn is_active(&self, session: SessionId) -> bool {
        self.active.contains(&session)
    }

    /// Number of currently active sessions.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// The identifiers of the currently active sessions, in increasing order.
    pub fn active_sessions(&self) -> impl Iterator<Item = SessionId> + '_ {
        self.active.iter().copied()
    }

    /// The active sessions with their slots, in increasing identifier order.
    pub(crate) fn active_slots(&self) -> impl Iterator<Item = (SessionId, u32)> + '_ {
        self.active
            .iter()
            .filter_map(move |s| Some((*s, self.slot_of.get(*s)?)))
    }

    /// Activates `session` along `path`, assigning a slot (reusing the
    /// identifier's previous slot after a leave). Returns `None` if the
    /// identifier is already in use by an active session.
    pub fn join(&mut self, session: SessionId, path: Path, limit: RateLimit) -> Option<SlotJoin> {
        if self.active.contains(&session) {
            return None;
        }
        let joined = match self.slot_of.get(session) {
            Some(slot) => {
                let i = slot as usize;
                if let Some(record) = self.hops.get_mut(i) {
                    *record = HopRecord::new(&path);
                }
                self.paths[i] = path;
                self.limits[i] = limit;
                SlotJoin { slot, reused: true }
            }
            None => {
                let slot = self.ids.len() as u32;
                self.ids.push(session);
                self.paths.push(path);
                self.limits.push(limit);
                self.slot_of.insert(session, slot);
                SlotJoin {
                    slot,
                    reused: false,
                }
            }
        };
        self.active.insert(session);
        Some(joined)
    }

    /// Deactivates `session`, returning its slot, or `None` if the session is
    /// not active. The slot (and its path) persists for stray packets.
    pub fn leave(&mut self, session: SessionId) -> Option<u32> {
        if !self.active.remove(&session) {
            return None;
        }
        self.slot_of(session)
    }

    /// Updates the requested maximum rate of an active session, returning its
    /// slot, or `None` if the session is not active.
    pub fn change(&mut self, session: SessionId, limit: RateLimit) -> Option<u32> {
        if !self.active.contains(&session) {
            return None;
        }
        let slot = self.slot_of(session)?;
        self.limits[slot as usize] = limit;
        Some(slot)
    }

    /// The path of a slot's session (current or last incarnation).
    pub fn path(&self, slot: u32) -> &Path {
        &self.paths[slot as usize]
    }

    /// The path of a session, if the identifier ever joined.
    pub(crate) fn path_of(&self, session: SessionId) -> Option<&Path> {
        Some(self.path(self.slot_of(session)?))
    }

    /// The requested maximum rate of a slot's session.
    pub fn limit(&self, slot: u32) -> RateLimit {
        self.limits[slot as usize]
    }

    /// The links of a slot's path, read from its hop record when it has one
    /// that holds them; `None` when the slot was never assigned.
    pub(crate) fn links(&self, slot: u32) -> Option<&[LinkId]> {
        let record = self.hops.get(slot as usize);
        let inline = record.and_then(|r| r.links.get(..r.len as usize));
        inline.or_else(|| Some(self.paths.get(slot as usize)?.links()))
    }

    /// The link at hop `hop` of a slot's path, or `None` when the slot was
    /// never assigned or a stale hop index runs past the (current) path.
    pub fn link_at(&self, slot: u32, hop: u32) -> Option<LinkId> {
        self.links(slot)?.get(hop as usize).copied()
    }

    /// Number of links on a slot's path.
    pub fn hop_count(&self, slot: u32) -> usize {
        self.links(slot).expect("an assigned slot").len()
    }

    /// The member-slot hint of the `RouterLink` task at hop `hop` of a
    /// slot's path, if its record has one. Records are built here for every
    /// slot still without one: a host pays at its first delivery, not join.
    pub(crate) fn hint_mut(&mut self, slot: u32, hop: u32) -> Option<&mut u32> {
        if self.hops.len() < self.paths.len() {
            let missing = &self.paths[self.hops.len()..];
            self.hops.extend(missing.iter().map(HopRecord::new));
        }
        let record = self.hops.get_mut(slot as usize)?;
        record.hints.get_mut(hop as usize)
    }

    /// Resolves the `(slot, hop)` a packet of `session` sits at on `link`,
    /// given the slot and hop its envelope carried.
    ///
    /// The carried hop is only valid for the path the envelope was routed
    /// along: when the envelope's session matches and the carried hop still
    /// names `link` on the slot's path, the carried coordinates are trusted
    /// as-is. A stray packet from a previous incarnation of the session
    /// (leave + rejoin with the same identifier) is re-resolved against the
    /// current path of the packet's session, and dropped (`None`) when that
    /// session never joined or `link` is no longer on its path.
    pub(crate) fn resolve_hop(
        &self,
        session: SessionId,
        origin_session: SessionId,
        slot: u32,
        hop: u32,
        link: LinkId,
    ) -> Option<(u32, u32)> {
        if session == origin_session && self.link_at(slot, hop) == Some(link) {
            return Some((slot, hop));
        }
        let slot = self.slot_of(session)?;
        let hop = self.links(slot)?.iter().position(|l| *l == link)?;
        Some((slot, hop as u32))
    }

    /// The active sessions as a [`SessionSet`] (paths plus requested limits),
    /// suitable for feeding the centralized oracle.
    pub fn session_set(&self) -> SessionSet {
        self.active_slots()
            .map(|(id, slot)| {
                let i = slot as usize;
                Session::new(id, self.paths[i].clone(), self.limits[i])
            })
            .collect()
    }

    /// Collects the rates of the active sessions into an [`Allocation`],
    /// reading each session's rate from its slot; slots for which `rate_of`
    /// returns `None` (e.g. never-notified sessions) are skipped.
    pub fn collect_rates<F>(&self, mut rate_of: F) -> Allocation
    where
        F: FnMut(u32) -> Option<Rate>,
    {
        self.active_slots()
            .filter_map(|(id, slot)| Some((id, rate_of(slot)?)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bneck_net::prelude::*;

    fn net() -> Network {
        synthetic::dumbbell(
            2,
            Capacity::from_mbps(100.0),
            Capacity::from_mbps(60.0),
            Delay::from_micros(1),
        )
    }

    fn path_between(network: &Network, a: usize, b: usize) -> Path {
        let hosts: Vec<_> = network.hosts().map(|h| h.id()).collect();
        Router::new(network)
            .shortest_path(hosts[a], hosts[b])
            .unwrap()
    }

    #[test]
    fn link_e_is_channel_e() {
        let network = net();
        let mut engine: Engine<u32> = Engine::new();
        add_link_channels(&network, &mut engine);
        assert_eq!(engine.channel_count(), network.link_count());
        for link in network.links() {
            // Upstream traffic over a link takes the channel of its pair.
            let back = network.link_between(link.dst(), link.src());
            assert_eq!(back, Some(link.id().reverse()));
        }
    }

    #[test]
    fn slots_are_assigned_and_reused_across_rejoins() {
        let network = net();
        let mut arena = SessionArena::new();
        let p0 = path_between(&network, 0, 1);
        let p1 = path_between(&network, 2, 3);

        let a = arena
            .join(SessionId(7), p0.clone(), RateLimit::unlimited())
            .unwrap();
        assert_eq!((a.slot, a.reused), (0, false));
        // Double join of an active identifier is rejected.
        assert!(arena
            .join(SessionId(7), p1.clone(), RateLimit::unlimited())
            .is_none());
        let b = arena
            .join(SessionId(9), p1.clone(), RateLimit::finite(5e6))
            .unwrap();
        assert_eq!((b.slot, b.reused), (1, false));
        assert_eq!(arena.active_count(), 2);
        assert_eq!(arena.id_at(0), SessionId(7));
        assert_eq!(arena.limit(1), RateLimit::finite(5e6));

        // Leave keeps the slot and path for stray packets.
        assert_eq!(arena.leave(SessionId(7)), Some(0));
        assert_eq!(arena.leave(SessionId(7)), None);
        assert!(!arena.is_active(SessionId(7)));
        assert_eq!(arena.slot_of(SessionId(7)), Some(0));
        assert_eq!(arena.path(0).source(), p0.source());

        // Rejoin reuses the slot and overwrites the path.
        let c = arena
            .join(SessionId(7), p1.clone(), RateLimit::unlimited())
            .unwrap();
        assert_eq!((c.slot, c.reused), (0, true));
        assert_eq!(arena.path(0).source(), p1.source());
        assert_eq!(arena.slot_count(), 2);
    }

    #[test]
    fn change_updates_limits_of_active_sessions_only() {
        let network = net();
        let mut arena = SessionArena::new();
        let p = path_between(&network, 0, 1);
        arena.join(SessionId(1), p, RateLimit::unlimited()).unwrap();
        assert_eq!(arena.change(SessionId(1), RateLimit::finite(2e6)), Some(0));
        assert_eq!(arena.limit(0), RateLimit::finite(2e6));
        assert_eq!(arena.change(SessionId(2), RateLimit::finite(2e6)), None);
        arena.leave(SessionId(1));
        assert_eq!(arena.change(SessionId(1), RateLimit::unlimited()), None);
    }

    #[test]
    fn session_set_follows_joins_leaves_and_changes() {
        let network = net();
        let mut arena = SessionArena::new();
        for (id, hosts) in [(0, (0, 1)), (1, (2, 3))] {
            let path = path_between(&network, hosts.0, hosts.1);
            arena
                .join(SessionId(id), path, RateLimit::unlimited())
                .unwrap();
        }
        assert_eq!(arena.session_set().len(), 2);
        arena.leave(SessionId(0));
        arena.change(SessionId(1), RateLimit::finite(1e6));
        let set = arena.session_set();
        assert_eq!(set.len(), 1);
        assert_eq!(
            set.get(SessionId(1)).unwrap().limit(),
            RateLimit::finite(1e6)
        );
    }

    #[test]
    fn resolve_hop_trusts_fresh_envelopes_and_reresolves_stale_ones() {
        let network = net();
        let mut arena = SessionArena::new();
        let p0 = path_between(&network, 0, 1);
        let p1 = path_between(&network, 2, 3);
        arena
            .join(SessionId(0), p0.clone(), RateLimit::unlimited())
            .unwrap();

        let links = p0.links();
        // Fresh envelope: carried coordinates are used as-is.
        assert_eq!(
            arena.resolve_hop(SessionId(0), SessionId(0), 0, 1, links[1]),
            Some((0, 1))
        );
        // Stale hop (wrong link for the carried hop): re-resolved by scan.
        assert_eq!(
            arena.resolve_hop(SessionId(0), SessionId(0), 0, 0, links[1]),
            Some((0, 1))
        );
        // Unknown session: dropped.
        assert_eq!(
            arena.resolve_hop(SessionId(5), SessionId(0), 0, 0, links[0]),
            None
        );
        // After a rejoin along a different path, links unique to the previous
        // incarnation's path are dropped (in the dumbbell, hop 0 is the old
        // source's access link, which the new path does not cross).
        arena.leave(SessionId(0));
        arena
            .join(SessionId(0), p1.clone(), RateLimit::unlimited())
            .unwrap();
        assert_eq!(
            arena.resolve_hop(SessionId(0), SessionId(0), 0, 0, links[0]),
            None,
            "links of the previous incarnation's path are no longer resolvable"
        );
        assert_eq!(
            arena.resolve_hop(SessionId(0), SessionId(0), 0, 1, p1.links()[1]),
            Some((0, 1))
        );
    }

    #[test]
    fn collect_rates_skips_unreported_slots() {
        let network = net();
        let mut arena = SessionArena::new();
        arena
            .join(
                SessionId(0),
                path_between(&network, 0, 1),
                RateLimit::unlimited(),
            )
            .unwrap();
        arena
            .join(
                SessionId(1),
                path_between(&network, 2, 3),
                RateLimit::unlimited(),
            )
            .unwrap();
        let rates = arena.collect_rates(|slot| (slot == 1).then_some(42.0));
        assert_eq!(rates.rate(SessionId(0)), None);
        assert_eq!(rates.rate(SessionId(1)), Some(42.0));
    }
}
