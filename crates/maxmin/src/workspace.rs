//! Scratch state for the centralized solvers.

use crate::session::SessionId;
use bneck_net::LinkId;

/// Scratch buffers shared by [`crate::WaterFilling`] and
/// [`crate::CentralizedBneck`].
///
/// Both solvers keep their per-session and per-link working state in flat
/// vectors indexed by [`crate::SessionSet`] arena slots and dense link
/// identifiers. Each solve builds a fresh workspace; reusing one across
/// solves measured under 1 % faster at 2,000 sessions (BENCH_NOTES.md), so
/// callers pass no scratch.
#[derive(Debug, Default)]
pub(crate) struct SolverWorkspace {
    /// Per arena slot: the assigned/frozen rate; `NaN` while undecided.
    pub(crate) rate: Vec<f64>,
    /// Per arena slot: the round the session was assigned in (centralized).
    pub(crate) round: Vec<u32>,
    /// Per arena slot: the session's private limit constraint, `NONE` if the
    /// session is unlimited (centralized).
    pub(crate) limit_cons: Vec<u32>,
    /// Per `LinkId::index()`: position of the link in the dense used-link /
    /// constraint arrays below, `NONE` for unused links.
    pub(crate) link_pos: Vec<u32>,
    /// Dense list of used links, in `SessionSet::used_links` order.
    pub(crate) link_ids: Vec<LinkId>,
    /// Per constraint: its capacity (`C_e`, or `r_s` for limit constraints).
    pub(crate) cap: Vec<f64>,
    /// Per constraint: number of crossing sessions still undecided
    /// (water-filling's active count / centralized's `|R_e|`).
    pub(crate) active: Vec<u32>,
    /// Per constraint: total rate already granted to decided crossing sessions
    /// (water-filling's frozen sum / centralized's `Σ_{s∈F_e} λ*_s`).
    pub(crate) granted: Vec<f64>,
    /// Links saturated in the current round (water-filling).
    pub(crate) saturated: Vec<u32>,
    /// `(limit_bps, slot)` of rate-limited sessions, sorted ascending
    /// (water-filling).
    pub(crate) by_limit: Vec<(f64, u32)>,
    /// Per constraint: still live (centralized).
    pub(crate) cons_live: Vec<bool>,
    /// Per constraint: this round's estimate `B_e` (centralized).
    pub(crate) cons_est: Vec<f64>,
    /// Per constraint: the round it was identified as a bottleneck, `NONE`
    /// when it drained without ever being an argmin (centralized).
    pub(crate) cons_round: Vec<u32>,
    /// Per limit constraint (offset by the link-constraint count): its single
    /// member slot (centralized).
    pub(crate) cons_member: Vec<u32>,
    /// Slots assigned in the current round (centralized).
    pub(crate) newly: Vec<u32>,
    /// `(id, slot)` sorting scratch for the bottleneck report (centralized).
    pub(crate) pairs: Vec<(SessionId, u32)>,
}

/// Sentinel for "no entry" in the `u32` index vectors.
pub(crate) const NONE: u32 = u32::MAX;

impl SolverWorkspace {
    /// Sizes the per-slot and per-link tables and builds the used-link
    /// constraints — one entry per link crossed by at least one session, with
    /// its capacity, its crossing-session count and a zeroed granted sum —
    /// establishing the `link_pos` ↔ `link_ids`/`cap`/`active`/`granted`
    /// correspondence both solvers rely on.
    pub(crate) fn init_link_constraints(
        &mut self,
        network: &bneck_net::Network,
        sessions: &crate::session::SessionSet,
    ) {
        self.rate = vec![f64::NAN; sessions.slot_capacity()];
        self.link_pos = vec![NONE; network.link_count()];
        for link in sessions.used_links() {
            self.link_pos[link.index()] = self.link_ids.len() as u32;
            self.link_ids.push(link);
            self.cap.push(network.link(link).capacity().as_bps());
            self.active
                .push(sessions.sessions_on_link(link).len() as u32);
            self.granted.push(0.0);
        }
    }
}
