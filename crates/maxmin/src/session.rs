//! Sessions and session sets.

use crate::rate::{Rate, RateLimit};
use bneck_net::{LinkId, Path};
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a session.
///
/// Session identifiers are chosen by the creator of the session (the workload
/// generator uses consecutive integers); they only need to be unique among
/// concurrently active sessions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SessionId(pub u64);

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A session: a static path from a source host to a destination host plus the
/// maximum rate the session requests.
#[derive(Debug, Clone, PartialEq)]
pub struct Session {
    id: SessionId,
    path: Path,
    limit: RateLimit,
}

impl Session {
    /// Creates a session with the given identifier, path `π(s)` and maximum
    /// requested rate `r_s`.
    pub fn new(id: SessionId, path: Path, limit: RateLimit) -> Self {
        Session { id, path, limit }
    }

    /// The session's identifier.
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// The session's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The maximum rate the session requests.
    pub fn limit(&self) -> RateLimit {
        self.limit
    }

    /// Replaces the maximum requested rate (models `API.Change`).
    pub(crate) fn set_limit(&mut self, limit: RateLimit) {
        self.limit = limit;
    }
}

/// The sessions crossing one link, kept as parallel identifier / arena-slot
/// arrays so that callers can pick whichever representation is cheaper.
#[derive(Debug, Clone, Default)]
struct LinkSessions {
    ids: Vec<SessionId>,
    slots: Vec<u32>,
    /// `true` once the link has been pushed onto the `used` list.
    listed: bool,
}

/// An indexed collection of active sessions.
///
/// Besides storing sessions by identifier, a `SessionSet` maintains the
/// reverse index from links to the sessions that cross them (`S_e` in the
/// paper), which every max-min algorithm needs.
///
/// Sessions live in a dense arena of reusable slots: every active session has
/// a stable [`slot`](SessionSet::slot_of) in `0..slot_capacity()` for the
/// duration of its membership, so solvers can keep per-session state in flat
/// vectors instead of hash maps. The link reverse index is likewise a flat
/// vector indexed by [`LinkId`], exposing both session identifiers
/// ([`sessions_on_link`](SessionSet::sessions_on_link)) and arena slots
/// (`slots_on_link`, for this crate's solvers).
#[derive(Debug, Clone, Default)]
pub struct SessionSet {
    /// Dense arena; `None` marks a reusable vacant slot.
    slots: Vec<Option<Session>>,
    /// Vacant arena slots available for reuse.
    free: Vec<u32>,
    /// Identifier → slot, ordered so iteration stays in identifier order.
    index: BTreeMap<SessionId, u32>,
    /// Reverse index, indexed by `LinkId::index()`.
    by_link: Vec<LinkSessions>,
    /// Links that have carried at least one session (may contain links whose
    /// crossing set is currently empty; iteration filters them out).
    used: Vec<LinkId>,
}

impl SessionSet {
    /// Creates an empty session set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of active sessions.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// `true` when no session is active.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Adds (or replaces) a session. Returns the previous session with the
    /// same identifier, if any.
    pub fn insert(&mut self, session: Session) -> Option<Session> {
        let prev = self.remove(session.id());
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push(None);
                (self.slots.len() - 1) as u32
            }
        };
        for &link in session.path().links() {
            if link.index() >= self.by_link.len() {
                self.by_link.resize_with(link.index() + 1, Default::default);
            }
            let entry = &mut self.by_link[link.index()];
            entry.ids.push(session.id());
            entry.slots.push(slot);
            if !entry.listed {
                entry.listed = true;
                self.used.push(link);
            }
        }
        self.index.insert(session.id(), slot);
        self.slots[slot as usize] = Some(session);
        prev
    }

    /// Removes a session, returning it if it was present.
    ///
    /// Each per-link crossing list drops the session by swap-remove — O(1)
    /// per link after the position scan, instead of shifting the tail of a
    /// mega-shared link's list — which is what makes churn on links crossed
    /// by tens of thousands of sessions cheap. This is why the crossing-list
    /// order is only insertion order until a removal touches the link (see
    /// [`SessionSet::sessions_on_link`]).
    pub fn remove(&mut self, id: SessionId) -> Option<Session> {
        let slot = self.index.remove(&id)?;
        let session = self.slots[slot as usize].take().expect("slot occupied");
        self.free.push(slot);
        for &link in session.path().links() {
            let entry = &mut self.by_link[link.index()];
            if let Some(pos) = entry.ids.iter().position(|s| *s == id) {
                entry.ids.swap_remove(pos);
                entry.slots.swap_remove(pos);
            }
        }
        Some(session)
    }

    /// Looks up a session by identifier.
    pub fn get(&self, id: SessionId) -> Option<&Session> {
        let slot = *self.index.get(&id)?;
        self.slots[slot as usize].as_ref()
    }

    /// Changes the maximum requested rate of a session (models `API.Change`).
    ///
    /// Returns `false` if the session is not present.
    pub fn change_limit(&mut self, id: SessionId, limit: RateLimit) -> bool {
        let Some(&slot) = self.index.get(&id) else {
            return false;
        };
        self.slots[slot as usize]
            .as_mut()
            .expect("slot occupied")
            .set_limit(limit);
        true
    }

    /// Iterates over sessions in identifier order.
    pub fn iter(&self) -> impl Iterator<Item = &Session> {
        self.index
            .values()
            .map(|slot| self.slots[*slot as usize].as_ref().expect("slot occupied"))
    }

    /// The sessions crossing `link` (`S_e`).
    ///
    /// Ordering contract: the list is in insertion order until the first
    /// removal of a session crossing `link`; a removal swaps the last entry
    /// into the vacated position, so afterwards the order is unspecified.
    /// Every consumer in this workspace (the solvers, the verifier, the
    /// workspace builder) is order-insensitive — sums, counts and same-value
    /// freezes only.
    pub fn sessions_on_link(&self, link: LinkId) -> &[SessionId] {
        self.by_link
            .get(link.index())
            .map(|e| e.ids.as_slice())
            .unwrap_or(&[])
    }

    /// The arena slots of the sessions crossing `link`, parallel to
    /// [`sessions_on_link`](SessionSet::sessions_on_link) (and with the same
    /// ordering contract).
    pub(crate) fn slots_on_link(&self, link: LinkId) -> &[u32] {
        self.by_link
            .get(link.index())
            .map(|e| e.slots.as_slice())
            .unwrap_or(&[])
    }

    /// Iterates over the links crossed by at least one session.
    pub(crate) fn used_links(&self) -> impl Iterator<Item = LinkId> + '_ {
        self.used
            .iter()
            .copied()
            .filter(|l| !self.by_link[l.index()].ids.is_empty())
    }

    /// Upper bound (exclusive) on the arena slots currently handed out; usable
    /// as the length of per-session scratch vectors indexed by slot.
    pub(crate) fn slot_capacity(&self) -> usize {
        self.slots.len()
    }

    /// The arena slot of a session, stable while the session stays in the set.
    pub fn slot_of(&self, id: SessionId) -> Option<u32> {
        self.index.get(&id).copied()
    }

    /// The session occupying an arena slot, if any.
    pub(crate) fn session_at(&self, slot: u32) -> Option<&Session> {
        self.slots.get(slot as usize)?.as_ref()
    }

    /// Iterates over `(slot, session)` pairs in identifier order.
    pub(crate) fn iter_with_slots(&self) -> impl Iterator<Item = (u32, &Session)> {
        self.index.values().map(|slot| {
            (
                *slot,
                self.slots[*slot as usize].as_ref().expect("slot occupied"),
            )
        })
    }
}

impl FromIterator<Session> for SessionSet {
    fn from_iter<T: IntoIterator<Item = Session>>(iter: T) -> Self {
        let mut set = SessionSet::new();
        for s in iter {
            set.insert(s);
        }
        set
    }
}

impl Extend<Session> for SessionSet {
    fn extend<T: IntoIterator<Item = Session>>(&mut self, iter: T) {
        for s in iter {
            self.insert(s);
        }
    }
}

/// A rate allocation: the rate assigned to each session.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Allocation {
    rates: BTreeMap<SessionId, Rate>,
}

impl Allocation {
    /// Creates an empty allocation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the rate of a session.
    pub fn set(&mut self, id: SessionId, rate: Rate) {
        self.rates.insert(id, rate);
    }

    /// The rate assigned to a session, if any.
    pub fn rate(&self, id: SessionId) -> Option<Rate> {
        self.rates.get(&id).copied()
    }

    /// Number of sessions with an assigned rate.
    pub fn len(&self) -> usize {
        self.rates.len()
    }

    /// `true` when no session has an assigned rate.
    pub fn is_empty(&self) -> bool {
        self.rates.is_empty()
    }

    /// Iterates over `(session, rate)` pairs in session-identifier order.
    pub fn iter(&self) -> impl Iterator<Item = (SessionId, Rate)> + '_ {
        self.rates.iter().map(|(k, v)| (*k, *v))
    }

    /// The sum of the assigned rates of the given sessions (missing sessions
    /// contribute zero).
    pub(crate) fn sum_over<'a>(&self, sessions: impl IntoIterator<Item = &'a SessionId>) -> Rate {
        sessions.into_iter().filter_map(|s| self.rate(*s)).sum()
    }
}

impl FromIterator<(SessionId, Rate)> for Allocation {
    fn from_iter<T: IntoIterator<Item = (SessionId, Rate)>>(iter: T) -> Self {
        Allocation {
            rates: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bneck_net::prelude::*;

    fn star_sessions(hosts: usize) -> (Network, SessionSet) {
        let net = synthetic::star(hosts, Capacity::from_mbps(100.0), Delay::from_micros(1));
        let ids: Vec<_> = net.hosts().map(|h| h.id()).collect();
        let mut router = Router::new(&net);
        let mut set = SessionSet::new();
        for i in 0..hosts - 1 {
            let path = router.shortest_path(ids[i], ids[i + 1]).unwrap();
            set.insert(Session::new(
                SessionId(i as u64),
                path,
                RateLimit::unlimited(),
            ));
        }
        (net, set)
    }

    #[test]
    fn insert_remove_and_lookup() {
        let (_net, mut set) = star_sessions(4);
        assert_eq!(set.len(), 3);
        assert!(set.get(SessionId(1)).is_some());
        let removed = set.remove(SessionId(1)).unwrap();
        assert_eq!(removed.id(), SessionId(1));
        assert_eq!(set.len(), 2);
        assert!(set.get(SessionId(1)).is_none());
        assert!(set.remove(SessionId(1)).is_none());
    }

    #[test]
    fn link_index_tracks_membership() {
        let (net, mut set) = star_sessions(3);
        // Sessions 0: h0->h1, 1: h1->h2. The link h1->hub carries session 1,
        // and the link hub->h1 carries session 0.
        let hosts: Vec<_> = net.hosts().map(|h| h.id()).collect();
        let hub = net.routers().next().unwrap().id();
        let up = net.link_between(hosts[1], hub).unwrap();
        let down = net.link_between(hub, hosts[1]).unwrap();
        assert_eq!(set.sessions_on_link(up), &[SessionId(1)]);
        assert_eq!(set.sessions_on_link(down), &[SessionId(0)]);
        set.remove(SessionId(1));
        assert!(set.sessions_on_link(up).is_empty());
        assert_eq!(set.used_links().count(), 2);
    }

    #[test]
    fn reinserting_replaces_previous_session() {
        let (_net, mut set) = star_sessions(3);
        let existing = set.get(SessionId(0)).unwrap().clone();
        let mut replacement = existing.clone();
        replacement.set_limit(RateLimit::finite(1e6));
        let prev = set.insert(replacement).unwrap();
        assert_eq!(prev, existing);
        assert_eq!(set.len(), 2);
        assert_eq!(
            set.get(SessionId(0)).unwrap().limit(),
            RateLimit::finite(1e6)
        );
    }

    #[test]
    fn change_limit() {
        let (_net, mut set) = star_sessions(3);
        assert!(set.change_limit(SessionId(0), RateLimit::finite(5e6)));
        assert_eq!(
            set.get(SessionId(0)).unwrap().limit(),
            RateLimit::finite(5e6)
        );
        assert!(!set.change_limit(SessionId(99), RateLimit::unlimited()));
    }

    #[test]
    fn allocation_sums() {
        let mut alloc = Allocation::new();
        alloc.set(SessionId(0), 10.0);
        alloc.set(SessionId(1), 20.0);
        assert_eq!(alloc.rate(SessionId(0)), Some(10.0));
        assert_eq!(alloc.rate(SessionId(7)), None);
        assert_eq!(alloc.len(), 2);
        let ids = [SessionId(0), SessionId(1), SessionId(7)];
        assert_eq!(alloc.sum_over(ids.iter()), 30.0);
        let from_iter: Allocation = vec![(SessionId(3), 1.0)].into_iter().collect();
        assert_eq!(from_iter.rate(SessionId(3)), Some(1.0));
    }

    #[test]
    fn removal_clears_every_occurrence_of_a_looping_path() {
        // Path::from_links only checks adjacency, so a caller may build a
        // path that crosses the same link twice. Removal walks the path's
        // link list, so it must drop one reverse-index entry per crossing.
        let mut b = NetworkBuilder::new();
        let r0 = b.add_router();
        let r1 = b.add_router();
        let (ab, ba) = b.connect(r0, r1, Capacity::from_mbps(100.0), Delay::from_micros(1));
        let net = b.build();
        let loopy = Path::from_links(&net, vec![ab, ba, ab]);
        let mut set = SessionSet::new();
        set.insert(Session::new(SessionId(7), loopy, RateLimit::unlimited()));
        assert_eq!(set.sessions_on_link(ab), &[SessionId(7), SessionId(7)]);
        assert_eq!(set.slots_on_link(ab).len(), 2);
        set.remove(SessionId(7));
        assert!(set.sessions_on_link(ab).is_empty());
        assert!(set.slots_on_link(ab).is_empty());
        assert!(set.sessions_on_link(ba).is_empty());
        assert_eq!(set.used_links().count(), 0);
    }

    #[test]
    fn slots_are_stable_and_reused() {
        let (_net, mut set) = star_sessions(4);
        let slot1 = set.slot_of(SessionId(1)).unwrap();
        assert_eq!(set.session_at(slot1).unwrap().id(), SessionId(1));
        // Parallel id/slot views of a link agree.
        for link in set.used_links().collect::<Vec<_>>() {
            let ids = set.sessions_on_link(link).to_vec();
            let slots = set.slots_on_link(link).to_vec();
            assert_eq!(ids.len(), slots.len());
            for (id, slot) in ids.iter().zip(slots.iter()) {
                assert_eq!(set.session_at(*slot).unwrap().id(), *id);
                assert_eq!(set.slot_of(*id), Some(*slot));
            }
        }
        // Removing frees the slot; the next insert reuses it.
        let session = set.remove(SessionId(1)).unwrap();
        assert!(set.session_at(slot1).is_none());
        set.insert(session);
        assert_eq!(set.slot_of(SessionId(1)), Some(slot1));
        assert!(set.slot_capacity() >= set.len());
        let pairs: Vec<_> = set
            .iter_with_slots()
            .map(|(s, sess)| (s, sess.id()))
            .collect();
        assert_eq!(pairs.len(), set.len());
        for (slot, id) in pairs {
            assert_eq!(set.slot_of(id), Some(slot));
        }
    }

    #[test]
    fn session_set_collects_from_iterator() {
        let (_net, set) = star_sessions(5);
        let rebuilt: SessionSet = set.iter().cloned().collect();
        assert_eq!(rebuilt.len(), set.len());
    }
}
