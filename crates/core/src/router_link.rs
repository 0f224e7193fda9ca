//! The `RouterLink(e)` task (Figure 2 of the paper).
//!
//! One `RouterLink` instance manages one directed link `e`. It keeps, for the
//! sessions crossing the link, the set `R_e` of sessions (so far) restricted
//! at `e`, the set `F_e` of sessions restricted elsewhere, and for each
//! session its probe state `μ_e^s` and its assigned rate `λ_e^s`. The link's
//! *bottleneck rate* is `B_e = (C_e − Σ_{s∈F_e} λ_e^s) / |R_e|`.
//!
//! The per-session state lives in a dense slot table: parallel arrays of
//! identifiers, probe states, assigned rates and an `R_e`-membership bit,
//! addressed through a single id → slot map. Set scans become linear walks
//! over flat arrays, `|R_e|` and `Σ_{s∈F_e} λ_e^s` are maintained
//! incrementally so `B_e` is O(1), and handlers hand each action to a
//! caller-provided [`Emit`] the moment they decide on it.

#![cfg_attr(not(test), warn(clippy::wildcard_enum_match_arm))]

use crate::packet::{Packet, ResponseKind};
use crate::task::{Action, Emit, ProbeState};
use bneck_maxmin::{IdSlotMap, Rate, SessionId, Tolerance};
use bneck_net::LinkId;

/// Per-session state kept by a [`RouterLink`]: identifier, assigned rate
/// `λ_e^s` (`NaN` while unknown), probe state `μ_e^s` and the `R_e`/`F_e`
/// membership bit, packed into one small record.
///
/// `repr(C)` pins the layout to 24 bytes with every per-packet field (`id`,
/// `lambda`, `mu`, `in_r`) inside the same cache line as the record itself —
/// the set scans walk `members` linearly, so each line the prefetcher pulls
/// carries two-and-a-bit complete records and no cold padding.
#[derive(Debug, Clone, Copy)]
#[repr(C)]
struct Member {
    id: SessionId,
    lambda: Rate,
    mu: ProbeState,
    in_r: bool,
}

/// The per-link task of the B-Neck protocol.
///
/// Handlers mirror the `when` blocks of Figure 2 and emit the [`Action`]s
/// (packets to regenerate upstream or downstream) the link produces in
/// response into the buffer passed to [`RouterLink::handle`].
#[derive(Debug, Clone)]
pub struct RouterLink {
    link: LinkId,
    capacity: Rate,
    tol: Tolerance,
    /// One record per crossing session; a single cache line covers a
    /// member's whole state, which matters once hundreds of thousands of
    /// sessions spread the working set far beyond the caches. Slot order is
    /// unspecified: removals swap the last slot in.
    members: Vec<Member>,
    /// Session id → slot in `members`, as an open-addressing table inlined
    /// into the task (16-byte entries, no second heap indirection): resolving
    /// a packet touches the link's own entry line and then the member record,
    /// one or two predictable cache lines in total.
    index: IdSlotMap,
    /// `|R_e|`, maintained incrementally.
    restricted_len: usize,
    /// Number of `R_e` members whose probe state is not `Idle`, maintained
    /// incrementally. The bottleneck-detection scans ("is every restricted
    /// session idle at `B_e`?") are gated on this being zero, so the common
    /// mid-convergence case rejects in O(1) instead of walking the slots.
    restricted_not_idle: usize,
    /// `Σ_{s∈F_e} λ_e^s` over the slots with a recorded rate, maintained
    /// incrementally (reset to exactly zero whenever the count drains, so
    /// float drift cannot accumulate across membership churn).
    f_assigned: Rate,
    /// Number of `F_e` slots currently contributing to `f_assigned`.
    f_assigned_len: usize,
    /// Upper bound on the largest `λ` of an `F_e` member (`-∞` when `F_e`
    /// has no rated member). Raised eagerly, tightened to the exact maximum
    /// whenever the reclaim scan of `ProcessNewRestricted` runs anyway, so
    /// the "can any F_e member reach `B_e`?" test is O(1) between scans.
    f_best: Rate,
    /// Upper bound on the largest `λ` of an *idle* `R_e` member, with the
    /// same raise-eagerly / tighten-on-scan policy; gates the wake scans.
    idle_best: Rate,
    /// Generation of the `B_e` inputs: bumped whenever `|R_e|` or
    /// `Σ_{F_e} λ` changes (i.e. whenever `B_e` itself may move).
    be_epoch: u64,
    /// Number of `R_e` members idle with `λ` tol-equal to `B_e`, valid while
    /// `at_be_epoch == be_epoch`; maintained incrementally by the probe-state
    /// and rate writers, rebuilt by one scan after `B_e` moves. Keeps the
    /// bottleneck-detection test ("all of `R_e` settled at `B_e`?") O(1) per
    /// packet on mega-shared links, where per-packet scans would be
    /// quadratic over a convergence wave.
    at_be_count: usize,
    at_be_epoch: u64,
    /// Where a handled session's record was last found: a cache
    /// [`RouterLink::slot`] validates before use, never protocol state.
    hint: u32,
}

impl RouterLink {
    /// Creates the task for link `e` with the given capacity (in bits per
    /// second) and rate-comparison tolerance.
    pub fn new(link: LinkId, capacity: Rate, tol: Tolerance) -> Self {
        RouterLink {
            link,
            capacity,
            tol,
            members: Vec::new(),
            index: IdSlotMap::new(),
            restricted_len: 0,
            restricted_not_idle: 0,
            f_assigned: 0.0,
            f_assigned_len: 0,
            f_best: f64::NEG_INFINITY,
            idle_best: f64::NEG_INFINITY,
            be_epoch: 0,
            at_be_count: 0,
            at_be_epoch: u64::MAX,
            hint: u32::MAX,
        }
    }

    /// The link this task manages.
    pub fn link(&self) -> LinkId {
        self.link
    }

    /// The link's capacity in bits per second (`C_e`).
    pub fn capacity(&self) -> Rate {
        self.capacity
    }

    /// The sessions currently restricted at this link (`R_e`), in unspecified
    /// order.
    pub fn restricted(&self) -> impl Iterator<Item = SessionId> + '_ {
        self.members.iter().filter(|m| m.in_r).map(|m| m.id)
    }

    /// The sessions crossing this link but restricted elsewhere (`F_e`), in
    /// unspecified order.
    pub fn unrestricted(&self) -> impl Iterator<Item = SessionId> + '_ {
        self.members.iter().filter(|m| !m.in_r).map(|m| m.id)
    }

    /// Number of sessions this link currently knows about.
    pub fn session_count(&self) -> usize {
        self.members.len()
    }

    /// The probe state `μ_e^s` of a session, if the session is known.
    pub fn probe_state(&self, session: SessionId) -> Option<ProbeState> {
        self.slot(session).map(|i| self.members[i].mu)
    }

    /// The assigned rate `λ_e^s` of a session, if one has been recorded.
    pub fn assigned_rate(&self, session: SessionId) -> Option<Rate> {
        let i = self.slot(session)?;
        if self.members[i].lambda.is_nan() {
            None
        } else {
            Some(self.members[i].lambda)
        }
    }

    /// The link's current bottleneck rate estimate `B_e`.
    ///
    /// Returns `f64::INFINITY` when no session is restricted at this link (the
    /// link then imposes no restriction).
    pub fn bottleneck_rate(&self) -> Rate {
        if self.restricted_len == 0 {
            return f64::INFINITY;
        }
        (self.capacity - self.f_assigned).max(0.0) / self.restricted_len as f64
    }

    /// `true` when the link satisfies the stability conditions of
    /// Definition 2 of the paper: every known session is `IDLE`, every session
    /// in `R_e` sits exactly at `B_e`, and (when `R_e` is non-empty) every
    /// session in `F_e` sits strictly below `B_e`.
    pub fn is_stable(&self) -> bool {
        let be = self.bottleneck_rate();
        for m in &self.members {
            if !m.mu.is_idle() || m.lambda.is_nan() {
                return false;
            }
            if m.in_r {
                if self.tol.ne(m.lambda, be) {
                    return false;
                }
            } else if self.restricted_len > 0 && !self.tol.lt(m.lambda, be) {
                return false;
            }
        }
        true
    }

    /// Below this many members, id → slot resolution scans the member records
    /// directly: the scan walks the same one or two cache lines the handler
    /// is about to touch anyway, where a table probe would chase a separate
    /// line first. Access and stub links — the long, cache-cold tail of a
    /// paper-scale topology — carry a handful of sessions each, so this is
    /// the common case; the table still indexes every member and takes over
    /// on the heavily shared backbone links.
    const SCAN_MEMBERS: usize = 8;

    fn slot(&self, session: SessionId) -> Option<usize> {
        let hinted = self.members.get(self.hint as usize);
        if hinted.is_some_and(|m| m.id == session) {
            return Some(self.hint as usize);
        }
        if self.members.len() <= Self::SCAN_MEMBERS {
            return self.members.iter().position(|m| m.id == session);
        }
        self.index.get(session).map(|i| i as usize)
    }

    /// Ensures a slot for `session`, creating it in `F_e` with no probe state
    /// and no rate, and returns its index.
    fn ensure_slot(&mut self, session: SessionId) -> usize {
        if let Some(i) = self.slot(session) {
            return i;
        }
        let i = self.members.len();
        self.members.push(Member {
            id: session,
            lambda: f64::NAN,
            mu: ProbeState::Idle,
            in_r: false,
        });
        self.index.insert(session, i as u32);
        i
    }

    /// Writes the slot's probe state, keeping the non-idle count, the
    /// idle-rate bound and the settled counter in sync.
    fn set_mu(&mut self, i: usize, state: ProbeState) {
        let m = self.members[i];
        if m.in_r {
            let tracked = self.at_be_epoch == self.be_epoch && !m.lambda.is_nan();
            match (m.mu.is_idle(), state.is_idle()) {
                (true, false) => {
                    self.restricted_not_idle += 1;
                    if tracked && self.tol.eq(m.lambda, self.bottleneck_rate()) {
                        self.at_be_count -= 1;
                    }
                }
                (false, true) => {
                    self.restricted_not_idle -= 1;
                    if !m.lambda.is_nan() {
                        self.idle_best = self.idle_best.max(m.lambda);
                    }
                    if tracked && self.tol.eq(m.lambda, self.bottleneck_rate()) {
                        self.at_be_count += 1;
                    }
                }
                _ => {}
            }
        }
        self.members[i].mu = state;
    }

    /// Moves the slot into `R_e`, keeping `|R_e|` and `Σ_{F_e} λ` in sync.
    fn move_to_r(&mut self, i: usize) {
        let m = self.members[i];
        if m.in_r {
            return;
        }
        self.be_epoch += 1;
        self.members[i].in_r = true;
        self.restricted_len += 1;
        if !m.mu.is_idle() {
            self.restricted_not_idle += 1;
        } else if !m.lambda.is_nan() {
            self.idle_best = self.idle_best.max(m.lambda);
        }
        if !m.lambda.is_nan() {
            self.f_assigned_len -= 1;
            if self.f_assigned_len == 0 {
                self.f_assigned = 0.0;
            } else {
                self.f_assigned -= m.lambda;
            }
        }
    }

    /// Moves the slot into `F_e`, keeping `|R_e|` and `Σ_{F_e} λ` in sync.
    fn move_to_f(&mut self, i: usize) {
        let m = self.members[i];
        if !m.in_r {
            return;
        }
        self.be_epoch += 1;
        self.members[i].in_r = false;
        self.restricted_len -= 1;
        if !m.mu.is_idle() {
            self.restricted_not_idle -= 1;
        }
        if !m.lambda.is_nan() {
            self.f_assigned_len += 1;
            self.f_assigned += m.lambda;
            self.f_best = self.f_best.max(m.lambda);
        }
    }

    /// Records the slot's assigned rate, keeping `Σ_{F_e} λ` in sync.
    fn set_lambda(&mut self, i: usize, rate: Rate) {
        let m = self.members[i];
        if !m.in_r {
            // The F_e sum — and thus B_e — changes.
            self.be_epoch += 1;
            if !m.lambda.is_nan() {
                self.f_assigned -= m.lambda;
            } else {
                self.f_assigned_len += 1;
            }
            self.members[i].lambda = rate;
            self.f_assigned += rate;
            self.f_best = self.f_best.max(rate);
            return;
        }
        // B_e is unchanged for an R_e member; track the settled counter.
        if m.mu.is_idle() {
            if self.at_be_epoch == self.be_epoch {
                let be = self.bottleneck_rate();
                if !m.lambda.is_nan() && self.tol.eq(m.lambda, be) {
                    self.at_be_count -= 1;
                }
                if self.tol.eq(rate, be) {
                    self.at_be_count += 1;
                }
            }
            self.idle_best = self.idle_best.max(rate);
        }
        self.members[i].lambda = rate;
    }

    /// Drops the slot entirely (swap-remove; the last slot moves into `i`).
    fn remove_slot(&mut self, i: usize) {
        self.be_epoch += 1;
        let m = self.members[i];
        if m.in_r {
            self.restricted_len -= 1;
            if !m.mu.is_idle() {
                self.restricted_not_idle -= 1;
            }
        } else if !m.lambda.is_nan() {
            self.f_assigned_len -= 1;
            if self.f_assigned_len == 0 {
                self.f_assigned = 0.0;
                self.f_best = f64::NEG_INFINITY;
            } else {
                self.f_assigned -= m.lambda;
            }
        }
        self.index.remove(m.id);
        self.members.swap_remove(i);
        if i < self.members.len() {
            self.index.insert(self.members[i].id, i as u32);
        }
    }

    /// `true` when every `R_e` member is idle with `λ` exactly at `B_e` —
    /// the common core of the bottleneck-detection conditions of Figure 2.
    /// O(1) per call: the non-idle count rejects unsettled links outright,
    /// and the at-`B_e` counter is rebuilt by one scan only after `B_e`
    /// itself moved.
    fn settled(&mut self) -> bool {
        if self.restricted_not_idle > 0 {
            return false;
        }
        if self.at_be_epoch != self.be_epoch {
            let be = self.bottleneck_rate();
            self.at_be_count = self
                .members
                .iter()
                .filter(|m| {
                    m.in_r && m.mu.is_idle() && !m.lambda.is_nan() && self.tol.eq(m.lambda, be)
                })
                .count();
            self.at_be_epoch = self.be_epoch;
        }
        self.at_be_count == self.restricted_len
    }

    /// Handles a received packet, emitting the actions the link performs into
    /// `actions`.
    ///
    /// Packets for sessions this link does not know about (which can only
    /// happen transiently around a `Leave`) are dropped, except `Join` and
    /// `Leave` which are always meaningful.
    pub fn handle(&mut self, packet: Packet, actions: &mut impl Emit) {
        match packet {
            Packet::Join {
                session,
                rate,
                restricting,
            } => self.on_join(session, rate, restricting, actions),
            Packet::Probe {
                session,
                rate,
                restricting,
            } => self.on_probe(session, rate, restricting, actions),
            Packet::Response {
                session,
                kind,
                rate,
                restricting,
            } => self.on_response(session, kind, rate, restricting, actions),
            Packet::Update { session } => self.on_update(session, actions),
            Packet::Bottleneck { session } => self.on_bottleneck(session, actions),
            Packet::SetBottleneck { session, found } => {
                self.on_set_bottleneck(session, found, actions)
            }
            Packet::Leave { session } => self.on_leave(session, actions),
        }
    }

    /// [`RouterLink::handle`] with a member-slot cache the caller keeps per
    /// session: `hint` is trusted only when it names the record of
    /// `packet`'s session, and is left naming that record's slot.
    pub fn handle_hinted(&mut self, packet: Packet, hint: &mut u32, actions: &mut impl Emit) {
        self.hint = *hint;
        self.handle(packet, actions);
        *hint = self.slot(packet.session()).map_or(u32::MAX, |i| i as u32);
    }

    /// `ProcessNewRestricted()` (Figure 2, lines 4–10): pull back into `R_e`
    /// the sessions of `F_e` whose rate reaches the bottleneck rate, then ask
    /// the idle sessions of `R_e` whose rate exceeds `B_e` to re-probe.
    fn process_new_restricted(&mut self, actions: &mut impl Emit) {
        // Only F_e members with a recorded rate can be reclaimed, and only
        // when the largest such rate reaches B_e; the `f_best` upper bound
        // rejects both in O(1). A stale-high bound costs one scan, which
        // tightens it back to the exact maximum.
        while self.f_assigned_len > 0 && self.tol.ge(self.f_best, self.bottleneck_rate()) {
            let be = self.bottleneck_rate();
            let mut lambda_max = f64::NEG_INFINITY;
            let mut has_candidate = false;
            for m in &self.members {
                if m.in_r || m.lambda.is_nan() {
                    continue;
                }
                lambda_max = lambda_max.max(m.lambda);
                has_candidate |= self.tol.ge(m.lambda, be);
            }
            if !has_candidate {
                self.f_best = lambda_max;
                break;
            }
            for i in 0..self.members.len() {
                let m = self.members[i];
                if !m.in_r && !m.lambda.is_nan() && self.tol.eq(m.lambda, lambda_max) {
                    self.move_to_r(i);
                }
            }
        }
        // Waking needs an idle restricted member whose rate exceeds B_e; the
        // `idle_best` upper bound rejects in O(1), and a scan that wakes
        // nothing tightens it.
        let be = self.bottleneck_rate();
        if self.restricted_len == self.restricted_not_idle || !self.tol.gt(self.idle_best, be) {
            return;
        }
        let mut remaining_best = f64::NEG_INFINITY;
        for i in 0..self.members.len() {
            let m = self.members[i];
            if !m.in_r || !m.mu.is_idle() || m.lambda.is_nan() {
                continue;
            }
            if self.tol.gt(m.lambda, be) {
                self.set_mu(i, ProbeState::WaitingProbe);
                actions.emit(Action::SendUpstream(Packet::Update { session: m.id }));
            } else {
                remaining_best = remaining_best.max(m.lambda);
            }
        }
        self.idle_best = remaining_best;
    }

    /// Figure 2, lines 12–16.
    fn on_join(
        &mut self,
        session: SessionId,
        rate: Rate,
        restricting: LinkId,
        actions: &mut impl Emit,
    ) {
        let i = self.ensure_slot(session);
        self.move_to_r(i);
        self.set_mu(i, ProbeState::WaitingResponse);
        self.process_new_restricted(actions);
        let be = self.bottleneck_rate();
        let (rate, restricting) = if self.tol.gt(rate, be) {
            (be, self.link)
        } else {
            (rate, restricting)
        };
        actions.emit(Action::SendDownstream(Packet::Join {
            session,
            rate,
            restricting,
        }));
    }

    /// Figure 2, lines 30–36.
    fn on_probe(
        &mut self,
        session: SessionId,
        rate: Rate,
        restricting: LinkId,
        actions: &mut impl Emit,
    ) {
        // A Probe for a session the link has never seen behaves like a Join
        // (this can only happen if state was lost, e.g. around a Leave race).
        let i = self.ensure_slot(session);
        self.move_to_r(i);
        self.set_mu(i, ProbeState::WaitingResponse);
        self.process_new_restricted(actions);
        let be = self.bottleneck_rate();
        let (rate, restricting) = if self.tol.gt(rate, be) {
            (be, self.link)
        } else {
            (rate, restricting)
        };
        actions.emit(Action::SendDownstream(Packet::Probe {
            session,
            rate,
            restricting,
        }));
    }

    /// Figure 2, lines 18–28.
    fn on_response(
        &mut self,
        session: SessionId,
        mut kind: ResponseKind,
        rate: Rate,
        mut restricting: LinkId,
        actions: &mut impl Emit,
    ) {
        let Some(i) = self.slot(session) else {
            return;
        };
        if kind == ResponseKind::Update {
            self.set_mu(i, ProbeState::WaitingProbe);
        } else {
            let be = self.bottleneck_rate();
            let accepted = (restricting == self.link && self.tol.eq(rate, be))
                || (restricting != self.link && self.tol.le(rate, be));
            if accepted {
                self.set_mu(i, ProbeState::Idle);
                self.set_lambda(i, rate);
            } else {
                // Either this link was reported as the restriction but its
                // bottleneck rate has moved, or the rate now exceeds B_e.
                kind = ResponseKind::Update;
                self.set_mu(i, ProbeState::WaitingProbe);
            }
            // Bottleneck detection: every restricted session is idle at B_e
            // (cached verdict; the non-idle count inside rejects the common
            // mid-convergence case in O(1)).
            let all_settled = self.restricted_len > 0 && self.settled();
            if all_settled {
                kind = ResponseKind::Bottleneck;
                restricting = self.link;
                for j in 0..self.members.len() {
                    let m = self.members[j];
                    if m.in_r && m.id != session {
                        actions.emit(Action::SendUpstream(Packet::Bottleneck { session: m.id }));
                    }
                }
            }
        }
        actions.emit(Action::SendUpstream(Packet::Response {
            session,
            kind,
            rate,
            restricting,
        }));
    }

    /// Figure 2, lines 38–40.
    fn on_update(&mut self, session: SessionId, actions: &mut impl Emit) {
        let Some(i) = self.slot(session) else {
            return;
        };
        if self.members[i].mu.is_idle() {
            self.set_mu(i, ProbeState::WaitingProbe);
            actions.emit(Action::SendUpstream(Packet::Update { session }));
        }
    }

    /// Figure 2, lines 42–43.
    fn on_bottleneck(&mut self, session: SessionId, actions: &mut impl Emit) {
        let Some(i) = self.slot(session) else {
            return;
        };
        let m = self.members[i];
        if m.mu.is_idle() && m.in_r {
            actions.emit(Action::SendUpstream(Packet::Bottleneck { session }));
        }
    }

    /// Figure 2, lines 45–55.
    fn on_set_bottleneck(&mut self, session: SessionId, found: bool, actions: &mut impl Emit) {
        let Some(i) = self.slot(session) else {
            return;
        };
        let be = self.bottleneck_rate();
        let all_settled = self.settled();
        let idle = self.members[i].mu.is_idle();
        let lambda_i = self.members[i].lambda;
        if all_settled {
            // This link is (or imposes no objection to being) a bottleneck for
            // its restricted sessions: confirm the bottleneck downstream.
            actions.emit(Action::SendDownstream(Packet::SetBottleneck {
                session,
                found: true,
            }));
        } else if idle && !lambda_i.is_nan() && self.tol.lt(lambda_i, be) {
            // The session is restricted elsewhere: move it to F_e and wake the
            // sessions that may now increase their rate.
            self.wake_idle_at(be, Some(session), actions);
            self.move_to_f(i);
            actions.emit(Action::SendDownstream(Packet::SetBottleneck {
                session,
                found,
            }));
        } else if idle && !lambda_i.is_nan() && self.tol.eq(lambda_i, be) {
            actions.emit(Action::SendDownstream(Packet::SetBottleneck {
                session,
                found,
            }));
        }
        // Otherwise the packet is absorbed: a Probe cycle for this session is
        // in flight and will settle the rate again.
    }

    /// Figure 2, lines 57–62.
    fn on_leave(&mut self, session: SessionId, actions: &mut impl Emit) {
        let be = self.bottleneck_rate();
        self.wake_idle_at(be, Some(session), actions);
        if let Some(i) = self.slot(session) {
            self.remove_slot(i);
        }
        actions.emit(Action::SendDownstream(Packet::Leave { session }));
    }

    /// Wakes (sets `WaitingProbe` and emits an `Update` for) every idle `R_e`
    /// member whose rate sits exactly at `be`, except `skip`. Gated by the
    /// `idle_best` bound: when no idle member can reach `be`, the scan is
    /// skipped in O(1); a scan that runs tightens the bound back to the exact
    /// maximum of the idle members it leaves behind.
    fn wake_idle_at(&mut self, be: Rate, skip: Option<SessionId>, actions: &mut impl Emit) {
        if self.restricted_len == self.restricted_not_idle || !self.tol.ge(self.idle_best, be) {
            return;
        }
        let mut remaining_best = f64::NEG_INFINITY;
        for j in 0..self.members.len() {
            let m = self.members[j];
            if !m.in_r || !m.mu.is_idle() || m.lambda.is_nan() {
                continue;
            }
            if Some(m.id) != skip && self.tol.eq(m.lambda, be) {
                self.set_mu(j, ProbeState::WaitingProbe);
                actions.emit(Action::SendUpstream(Packet::Update { session: m.id }));
            } else {
                remaining_best = remaining_best.max(m.lambda);
            }
        }
        self.idle_best = remaining_best;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::ActionBuffer;
    use proptest::prelude::*;

    const CAP: Rate = 100e6;

    fn link() -> RouterLink {
        RouterLink::new(LinkId(7), CAP, Tolerance::default())
    }

    /// Test shim: runs one packet through the handler and collects the
    /// emitted actions.
    fn handle(rl: &mut RouterLink, packet: Packet) -> Vec<Action> {
        let mut buf = ActionBuffer::new();
        rl.handle(packet, &mut buf);
        buf.into_vec()
    }

    fn join(s: u64, rate: Rate) -> Packet {
        Packet::Join {
            session: SessionId(s),
            rate,
            restricting: LinkId(0),
        }
    }

    fn response(s: u64, kind: ResponseKind, rate: Rate, restricting: LinkId) -> Packet {
        Packet::Response {
            session: SessionId(s),
            kind,
            rate,
            restricting,
        }
    }

    #[test]
    fn join_lowers_the_advertised_rate_to_be() {
        let mut rl = link();
        let actions = handle(&mut rl, join(1, 500e6));
        assert_eq!(actions.len(), 1);
        match actions[0] {
            Action::SendDownstream(Packet::Join {
                session,
                rate,
                restricting,
            }) => {
                assert_eq!(session, SessionId(1));
                assert_eq!(rate, CAP); // one session: B_e = C_e
                assert_eq!(restricting, LinkId(7));
            }
            ref other => panic!("unexpected action {other:?}"),
        }
        assert_eq!(
            rl.probe_state(SessionId(1)),
            Some(ProbeState::WaitingResponse)
        );
        assert_eq!(rl.restricted().count(), 1);
    }

    #[test]
    fn join_keeps_a_smaller_upstream_restriction() {
        let mut rl = link();
        let actions = handle(&mut rl, join(1, 10e6));
        match actions[0] {
            Action::SendDownstream(Packet::Join {
                rate, restricting, ..
            }) => {
                assert_eq!(rate, 10e6);
                assert_eq!(restricting, LinkId(0));
            }
            ref other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn second_join_splits_the_bottleneck_rate() {
        let mut rl = link();
        handle(&mut rl, join(1, 500e6));
        let actions = handle(&mut rl, join(2, 500e6));
        match actions.last().unwrap() {
            Action::SendDownstream(Packet::Join { rate, .. }) => {
                assert!((rate - 50e6).abs() < 1e-3);
            }
            other => panic!("unexpected action {other:?}"),
        }
        assert!((rl.bottleneck_rate() - 50e6).abs() < 1e-3);
    }

    #[test]
    fn response_matching_be_becomes_idle_and_detects_bottleneck() {
        let mut rl = link();
        handle(&mut rl, join(1, 500e6));
        let actions = handle(&mut rl, response(1, ResponseKind::Response, CAP, LinkId(7)));
        // Single session at B_e: the link declares itself a bottleneck.
        assert_eq!(actions.len(), 1);
        match actions[0] {
            Action::SendUpstream(Packet::Response {
                kind, restricting, ..
            }) => {
                assert_eq!(kind, ResponseKind::Bottleneck);
                assert_eq!(restricting, LinkId(7));
            }
            ref other => panic!("unexpected action {other:?}"),
        }
        assert_eq!(rl.probe_state(SessionId(1)), Some(ProbeState::Idle));
        assert_eq!(rl.assigned_rate(SessionId(1)), Some(CAP));
        assert!(rl.is_stable());
    }

    #[test]
    fn response_with_stale_restriction_requests_update() {
        let mut rl = link();
        handle(&mut rl, join(1, 500e6));
        handle(&mut rl, join(2, 500e6));
        // Session 1's response claims this link restricted it at 100 Mbps, but
        // with two sessions B_e is now 50 Mbps: the link asks for a new probe.
        let actions = handle(&mut rl, response(1, ResponseKind::Response, CAP, LinkId(7)));
        match actions.last().unwrap() {
            Action::SendUpstream(Packet::Response { kind, .. }) => {
                assert_eq!(*kind, ResponseKind::Update);
            }
            other => panic!("unexpected action {other:?}"),
        }
        assert_eq!(rl.probe_state(SessionId(1)), Some(ProbeState::WaitingProbe));
    }

    #[test]
    fn response_restricted_elsewhere_below_be_is_accepted() {
        let mut rl = link();
        handle(&mut rl, join(1, 500e6));
        handle(&mut rl, join(2, 500e6));
        let actions = handle(
            &mut rl,
            response(1, ResponseKind::Response, 20e6, LinkId(3)),
        );
        match actions.last().unwrap() {
            Action::SendUpstream(Packet::Response { kind, rate, .. }) => {
                assert_eq!(*kind, ResponseKind::Response);
                assert_eq!(*rate, 20e6);
            }
            other => panic!("unexpected action {other:?}"),
        }
        assert_eq!(rl.assigned_rate(SessionId(1)), Some(20e6));
        assert_eq!(rl.probe_state(SessionId(1)), Some(ProbeState::Idle));
    }

    #[test]
    fn bottleneck_detection_notifies_other_restricted_sessions() {
        let mut rl = link();
        handle(&mut rl, join(1, 500e6));
        handle(&mut rl, join(2, 500e6));
        // Both sessions settle at the 50 Mbps bottleneck rate.
        handle(
            &mut rl,
            response(1, ResponseKind::Response, 50e6, LinkId(7)),
        );
        let actions = handle(
            &mut rl,
            response(2, ResponseKind::Response, 50e6, LinkId(7)),
        );
        let bottleneck_notifications: Vec<_> = actions
            .iter()
            .filter(|a| matches!(a, Action::SendUpstream(Packet::Bottleneck { .. })))
            .collect();
        assert_eq!(bottleneck_notifications.len(), 1);
        match actions.last().unwrap() {
            Action::SendUpstream(Packet::Response { kind, .. }) => {
                assert_eq!(*kind, ResponseKind::Bottleneck);
            }
            other => panic!("unexpected action {other:?}"),
        }
        assert!(rl.is_stable());
    }

    #[test]
    fn update_only_propagates_for_idle_sessions() {
        let mut rl = link();
        handle(&mut rl, join(1, 500e6));
        // Session still waiting for its response: update is absorbed.
        assert!(handle(
            &mut rl,
            Packet::Update {
                session: SessionId(1)
            }
        )
        .is_empty());
        handle(&mut rl, response(1, ResponseKind::Response, CAP, LinkId(7)));
        let actions = handle(
            &mut rl,
            Packet::Update {
                session: SessionId(1),
            },
        );
        assert_eq!(
            actions,
            vec![Action::SendUpstream(Packet::Update {
                session: SessionId(1)
            })]
        );
        assert_eq!(rl.probe_state(SessionId(1)), Some(ProbeState::WaitingProbe));
        // A second update while waiting for the probe is absorbed.
        assert!(handle(
            &mut rl,
            Packet::Update {
                session: SessionId(1)
            }
        )
        .is_empty());
    }

    #[test]
    fn probe_moves_session_back_from_unrestricted() {
        let mut rl = link();
        handle(&mut rl, join(1, 500e6));
        handle(&mut rl, join(2, 500e6));
        handle(
            &mut rl,
            response(1, ResponseKind::Response, 20e6, LinkId(3)),
        );
        handle(
            &mut rl,
            response(2, ResponseKind::Response, 50e6, LinkId(7)),
        );
        // Pretend session 1 was moved to F_e by a SetBottleneck.
        handle(
            &mut rl,
            Packet::SetBottleneck {
                session: SessionId(1),
                found: true,
            },
        );
        assert_eq!(rl.unrestricted().collect::<Vec<_>>(), vec![SessionId(1)]);
        // A new probe for session 1 pulls it back into R_e.
        let actions = handle(
            &mut rl,
            Packet::Probe {
                session: SessionId(1),
                rate: 500e6,
                restricting: LinkId(0),
            },
        );
        assert!(rl.restricted().any(|s| s == SessionId(1)));
        assert!(matches!(
            actions.last().unwrap(),
            Action::SendDownstream(Packet::Probe { .. })
        ));
    }

    #[test]
    fn set_bottleneck_moves_unrestricted_session_and_wakes_the_rest() {
        let mut rl = link();
        handle(&mut rl, join(1, 500e6));
        handle(&mut rl, join(2, 500e6));
        // Session 1 is restricted elsewhere at 20 Mbps; session 2 settles at
        // this link's rate.
        handle(
            &mut rl,
            response(1, ResponseKind::Response, 20e6, LinkId(3)),
        );
        handle(
            &mut rl,
            response(2, ResponseKind::Response, 50e6, LinkId(7)),
        );
        let actions = handle(
            &mut rl,
            Packet::SetBottleneck {
                session: SessionId(1),
                found: true,
            },
        );
        // Session 1 moves to F_e; session 2 (idle at the old B_e) is asked to
        // re-probe because its share can now grow to 80 Mbps.
        assert_eq!(rl.unrestricted().collect::<Vec<_>>(), vec![SessionId(1)]);
        assert!(actions.contains(&Action::SendUpstream(Packet::Update {
            session: SessionId(2)
        })));
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::SendDownstream(Packet::SetBottleneck { .. }))));
        assert!((rl.bottleneck_rate() - 80e6).abs() < 1e-3);
    }

    #[test]
    fn set_bottleneck_confirms_when_link_is_a_bottleneck() {
        let mut rl = link();
        handle(&mut rl, join(1, 500e6));
        handle(&mut rl, response(1, ResponseKind::Response, CAP, LinkId(7)));
        let actions = handle(
            &mut rl,
            Packet::SetBottleneck {
                session: SessionId(1),
                found: false,
            },
        );
        assert_eq!(
            actions,
            vec![Action::SendDownstream(Packet::SetBottleneck {
                session: SessionId(1),
                found: true
            })]
        );
    }

    #[test]
    fn leave_releases_bandwidth_and_wakes_survivors() {
        let mut rl = link();
        handle(&mut rl, join(1, 500e6));
        handle(&mut rl, join(2, 500e6));
        handle(
            &mut rl,
            response(1, ResponseKind::Response, 50e6, LinkId(7)),
        );
        handle(
            &mut rl,
            response(2, ResponseKind::Response, 50e6, LinkId(7)),
        );
        let actions = handle(
            &mut rl,
            Packet::Leave {
                session: SessionId(1),
            },
        );
        assert!(actions.contains(&Action::SendUpstream(Packet::Update {
            session: SessionId(2)
        })));
        assert!(actions.contains(&Action::SendDownstream(Packet::Leave {
            session: SessionId(1)
        })));
        assert_eq!(rl.session_count(), 1);
        assert!((rl.bottleneck_rate() - CAP).abs() < 1e-3);
    }

    #[test]
    fn packets_for_unknown_sessions_are_dropped() {
        let mut rl = link();
        assert!(handle(
            &mut rl,
            Packet::Update {
                session: SessionId(9)
            }
        )
        .is_empty());
        assert!(handle(
            &mut rl,
            Packet::Bottleneck {
                session: SessionId(9)
            }
        )
        .is_empty());
        assert!(handle(
            &mut rl,
            Packet::SetBottleneck {
                session: SessionId(9),
                found: true
            }
        )
        .is_empty());
        assert!(handle(&mut rl, response(9, ResponseKind::Response, 1.0, LinkId(0))).is_empty());
        // Leave still forwards so downstream links can clean up.
        let actions = handle(
            &mut rl,
            Packet::Leave {
                session: SessionId(9),
            },
        );
        assert_eq!(actions.len(), 1);
    }

    #[test]
    fn process_new_restricted_reclaims_sessions_that_reach_be() {
        let mut rl = link();
        // Three sessions: session 1 is restricted elsewhere at 25 Mbps,
        // sessions 2 and 3 settle at this link's bottleneck rate.
        handle(&mut rl, join(1, 500e6));
        handle(&mut rl, join(2, 500e6));
        handle(&mut rl, join(3, 500e6));
        handle(
            &mut rl,
            response(1, ResponseKind::Response, 25e6, LinkId(3)),
        );
        handle(
            &mut rl,
            response(2, ResponseKind::Response, CAP / 3.0, LinkId(7)),
        );
        handle(
            &mut rl,
            response(3, ResponseKind::Response, CAP / 3.0, LinkId(7)),
        );
        // Session 1's SetBottleneck parks it in F_e and wakes 2 and 3, whose
        // share grows to 37.5 Mbps; let their probe cycles complete.
        handle(
            &mut rl,
            Packet::SetBottleneck {
                session: SessionId(1),
                found: true,
            },
        );
        assert!(rl.unrestricted().any(|s| s == SessionId(1)));
        for s in [2u64, 3u64] {
            handle(
                &mut rl,
                Packet::Probe {
                    session: SessionId(s),
                    rate: 500e6,
                    restricting: LinkId(0),
                },
            );
            handle(
                &mut rl,
                response(s, ResponseKind::Response, 37.5e6, LinkId(7)),
            );
        }
        assert!((rl.bottleneck_rate() - 37.5e6).abs() < 1e-3);
        // A fourth join makes B_e drop to 25 Mbps, level with session 1's
        // parked rate, so ProcessNewRestricted pulls it back into R_e and asks
        // the sessions idle above the new B_e to re-probe.
        let actions = handle(&mut rl, join(4, 500e6));
        assert!(rl.restricted().any(|s| s == SessionId(1)));
        assert!((rl.bottleneck_rate() - 25e6).abs() < 1e-3);
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::SendUpstream(Packet::Update { .. }))));
    }

    #[test]
    fn bottleneck_packet_forwarded_only_for_idle_restricted_sessions() {
        let mut rl = link();
        handle(&mut rl, join(1, 500e6));
        handle(&mut rl, response(1, ResponseKind::Response, CAP, LinkId(7)));
        let forwarded = handle(
            &mut rl,
            Packet::Bottleneck {
                session: SessionId(1),
            },
        );
        assert_eq!(forwarded.len(), 1);
        // While a probe is pending the packet is absorbed.
        handle(
            &mut rl,
            Packet::Update {
                session: SessionId(1),
            },
        );
        assert!(handle(
            &mut rl,
            Packet::Bottleneck {
                session: SessionId(1)
            }
        )
        .is_empty());
    }

    #[test]
    fn incremental_aggregates_survive_membership_churn() {
        // Drive a slot through R_e → F_e → leave while another session churns,
        // and cross-check B_e against a from-scratch recomputation.
        let recompute_be = |rl: &RouterLink| -> Rate {
            let r = rl.restricted().count();
            if r == 0 {
                return f64::INFINITY;
            }
            let assigned: Rate = rl.unrestricted().filter_map(|s| rl.assigned_rate(s)).sum();
            (rl.capacity() - assigned).max(0.0) / r as f64
        };
        let mut rl = link();
        for s in 1..=4u64 {
            handle(&mut rl, join(s, 500e6));
        }
        handle(
            &mut rl,
            response(1, ResponseKind::Response, 10e6, LinkId(3)),
        );
        handle(
            &mut rl,
            Packet::SetBottleneck {
                session: SessionId(1),
                found: true,
            },
        );
        assert!((rl.bottleneck_rate() - recompute_be(&rl)).abs() < 1e-6);
        handle(
            &mut rl,
            response(2, ResponseKind::Response, 30e6, LinkId(7)),
        );
        handle(
            &mut rl,
            Packet::Leave {
                session: SessionId(1),
            },
        );
        assert!((rl.bottleneck_rate() - recompute_be(&rl)).abs() < 1e-6);
        handle(
            &mut rl,
            Packet::Leave {
                session: SessionId(3),
            },
        );
        assert!((rl.bottleneck_rate() - recompute_be(&rl)).abs() < 1e-6);
        assert_eq!(rl.session_count(), 2);
    }

    /// One of seven packet kinds for `session`, with a rate drawn from a set
    /// that keeps hitting the equality tests of Figure 2 (the link's own
    /// `B_e`, equal splits of the capacity) and this link or another as the
    /// restriction.
    fn packet(rl: &RouterLink, kind: u8, session: SessionId, pick: u32) -> Packet {
        let be = rl.bottleneck_rate();
        let rates = [be, 10e6, 25e6, CAP / 3.0, CAP, 500e6];
        let rate = Some(rates[pick as usize % 6]).filter(|r| r.is_finite());
        let rate = rate.unwrap_or(500e6);
        let restricting = if pick % 3 == 0 { LinkId(3) } else { LinkId(7) };
        let kind_of = |k| [ResponseKind::Response, ResponseKind::Update][k as usize % 2];
        match kind {
            0 => Packet::Join {
                session,
                rate,
                restricting,
            },
            1 => Packet::Probe {
                session,
                rate,
                restricting,
            },
            2 | 3 => Packet::Response {
                session,
                kind: kind_of(pick / 6),
                rate,
                restricting,
            },
            4 => Packet::Update { session },
            5 => Packet::Bottleneck { session },
            6 => Packet::SetBottleneck {
                session,
                found: pick % 2 == 0,
            },
            _ => Packet::Leave { session },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The member-slot hint is a cache: a link driven through
        /// `handle_hinted` with hints that are right, stale (the value the
        /// last packet of the session left, which swap-removes invalidate),
        /// `u32::MAX` or arbitrary emits the same actions and keeps the same
        /// state as a link driven through `handle`, over 1–20 sessions (so
        /// both the member scan and the id map resolve).
        #[test]
        fn a_hinted_link_behaves_exactly_like_an_unhinted_one(
            sessions in 1u64..21,
            ops in prop::collection::vec((0u8..8, 0u64..20, 0u32..64, 0u32..128), 1..300)
        ) {
            let (mut plain, mut hinted) = (link(), link());
            let mut cache = [u32::MAX; 20];
            for (kind, s, pick, h) in ops {
                let (s, session) = ((s % sessions) as usize, SessionId(s % sessions));
                let packet = packet(&plain, kind, session, pick);
                let slot = hinted.members.iter().position(|m| m.id == session);
                let mut hint = match h % 4 {
                    0 => slot.map_or(u32::MAX, |i| i as u32),
                    1 => cache[s],
                    2 => u32::MAX,
                    _ => h / 4,
                };
                let want = handle(&mut plain, packet);
                let mut got = ActionBuffer::new();
                hinted.handle_hinted(packet, &mut hint, &mut got);
                cache[s] = hint;
                prop_assert_eq!(got.into_vec(), want);
                let slot = hinted.members.iter().position(|m| m.id == session);
                prop_assert_eq!(slot.map_or(u32::MAX, |i| i as u32), hint);
                let sets = |rl: &RouterLink| {
                    let r: Vec<SessionId> = rl.restricted().collect();
                    (r, rl.unrestricted().collect::<Vec<_>>())
                };
                prop_assert_eq!(sets(&hinted), sets(&plain));
                for id in (0..sessions).map(SessionId) {
                    prop_assert_eq!(hinted.probe_state(id), plain.probe_state(id));
                    prop_assert_eq!(hinted.assigned_rate(id), plain.assigned_rate(id));
                }
                prop_assert_eq!(hinted.bottleneck_rate(), plain.bottleneck_rate());
                prop_assert_eq!(hinted.is_stable(), plain.is_stable());
            }
        }
    }
}
