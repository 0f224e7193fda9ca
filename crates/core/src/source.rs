//! The `SourceNode(s, e)` task (Figure 3 of the paper).
//!
//! The source node of a session owns the first link `e` of the session's path
//! (the dedicated host-to-router link), keeps the session's maximum desired
//! rate `D_s = min(r_s, C_e)`, starts Probe cycles, and delivers `API.Rate`
//! notifications when the session's max-min fair rate is known.

#![cfg_attr(not(test), warn(clippy::wildcard_enum_match_arm))]

use crate::packet::{Packet, ResponseKind};
use crate::task::{Action, Emit, ProbeState};
use bneck_maxmin::{Rate, RateLimit, SessionId, Tolerance};
use bneck_net::LinkId;

/// Whether the session is currently accounted in `R_e` or `F_e` of its own
/// first link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Membership {
    /// The session is in `R_e` (restricted at its first link / demand).
    Restricted,
    /// The session is in `F_e` (restricted further down the path).
    Unrestricted,
    /// The session has left (both sets empty).
    Gone,
}

/// The per-session source task of the B-Neck protocol.
#[derive(Debug, Clone)]
pub struct SourceNode {
    session: SessionId,
    first_link: LinkId,
    first_capacity: Rate,
    tol: Tolerance,
    demand: Rate,
    membership: Membership,
    mu: ProbeState,
    lambda: Option<Rate>,
    update_received: bool,
    bottleneck_received: bool,
}

impl SourceNode {
    /// Creates the source task for `session`, whose path starts with
    /// `first_link` of capacity `first_capacity` (bits per second).
    pub fn new(
        session: SessionId,
        first_link: LinkId,
        first_capacity: Rate,
        tol: Tolerance,
    ) -> Self {
        SourceNode {
            session,
            first_link,
            first_capacity,
            tol,
            demand: 0.0,
            membership: Membership::Gone,
            mu: ProbeState::Idle,
            lambda: None,
            update_received: false,
            bottleneck_received: false,
        }
    }

    /// The session this task belongs to.
    pub fn session(&self) -> SessionId {
        self.session
    }

    /// The session's effective demand `D_s = min(r_s, C_e)`.
    pub fn demand(&self) -> Rate {
        self.demand
    }

    /// The rate currently assigned to the session at its source (`λ_e^s`), or
    /// 0 if no Probe cycle has completed yet.
    ///
    /// Before convergence this is B-Neck's *transient* rate; the paper points
    /// out that these transient rates never exceed the final max-min fair
    /// rates.
    pub fn current_rate(&self) -> Rate {
        self.lambda.unwrap_or(0.0)
    }

    /// `true` once the session has been told (via `API.Rate`) that its current
    /// rate is its max-min fair rate, and no later event invalidated it.
    pub fn is_settled(&self) -> bool {
        self.bottleneck_received
    }

    /// The source's probe state for its own link.
    pub fn probe_state(&self) -> ProbeState {
        self.mu
    }

    /// `API.Join(s, r)` (Figure 3, lines 3–6).
    pub fn api_join(&mut self, limit: RateLimit, actions: &mut impl Emit) {
        self.membership = Membership::Restricted;
        self.demand = limit.effective_demand(self.first_capacity);
        self.mu = ProbeState::WaitingResponse;
        self.update_received = false;
        self.bottleneck_received = false;
        actions.emit(Action::SendDownstream(Packet::Join {
            session: self.session,
            rate: self.demand,
            restricting: self.first_link,
        }));
    }

    /// `API.Leave(s)` (Figure 3, lines 8–9).
    pub fn api_leave(&mut self, actions: &mut impl Emit) {
        self.membership = Membership::Gone;
        self.mu = ProbeState::Idle;
        self.lambda = None;
        self.bottleneck_received = false;
        actions.emit(Action::SendDownstream(Packet::Leave {
            session: self.session,
        }));
    }

    /// `API.Change(s, r)` (Figure 3, lines 11–18).
    pub fn api_change(&mut self, limit: RateLimit, actions: &mut impl Emit) {
        self.demand = limit.effective_demand(self.first_capacity);
        if self.mu.is_idle() {
            if self.membership == Membership::Unrestricted {
                self.membership = Membership::Restricted;
            }
            self.update_received = false;
            self.bottleneck_received = false;
            self.mu = ProbeState::WaitingResponse;
            actions.emit(Action::SendDownstream(Packet::Probe {
                session: self.session,
                rate: self.demand,
                restricting: self.first_link,
            }));
        } else {
            self.update_received = true;
        }
    }

    /// Handles a packet received from the network (an upstream `Update`,
    /// `Bottleneck` or `Response` for this session), emitting the produced
    /// actions into `actions`.
    ///
    /// Packets for other sessions, or downstream packet kinds, are ignored.
    pub fn handle(&mut self, packet: Packet, actions: &mut impl Emit) {
        if packet.session() != self.session || self.membership == Membership::Gone {
            return;
        }
        match packet {
            Packet::Update { .. } => self.on_update(actions),
            Packet::Bottleneck { .. } => self.on_bottleneck(actions),
            Packet::Response { kind, rate, .. } => self.on_response(kind, rate, actions),
            // Downstream-travelling kinds a source emits but never receives.
            Packet::Join { .. }
            | Packet::Probe { .. }
            | Packet::SetBottleneck { .. }
            | Packet::Leave { .. } => {}
        }
    }

    /// Figure 3, lines 20–25.
    fn on_update(&mut self, actions: &mut impl Emit) {
        if self.mu.is_idle() {
            if self.membership == Membership::Unrestricted {
                self.membership = Membership::Restricted;
            }
            self.bottleneck_received = false;
            self.mu = ProbeState::WaitingResponse;
            actions.emit(Action::SendDownstream(Packet::Probe {
                session: self.session,
                rate: self.demand,
                restricting: self.first_link,
            }));
        } else {
            self.update_received = true;
        }
    }

    /// Figure 3, lines 27–31.
    fn on_bottleneck(&mut self, actions: &mut impl Emit) {
        if self.mu.is_idle() && !self.bottleneck_received {
            self.bottleneck_received = true;
            let rate = self.lambda.unwrap_or(0.0);
            actions.emit(Action::NotifyRate {
                session: self.session,
                rate,
            });
            if self.tol.gt(self.demand, rate) {
                self.membership = Membership::Unrestricted;
            }
            actions.emit(Action::SendDownstream(Packet::SetBottleneck {
                session: self.session,
                found: self.tol.eq(self.demand, rate),
            }));
        }
    }

    /// Figure 3, lines 33–47.
    fn on_response(&mut self, kind: ResponseKind, rate: Rate, actions: &mut impl Emit) {
        if kind == ResponseKind::Update || self.update_received {
            self.update_received = false;
            self.bottleneck_received = false;
            self.mu = ProbeState::WaitingResponse;
            actions.emit(Action::SendDownstream(Packet::Probe {
                session: self.session,
                rate: self.demand,
                restricting: self.first_link,
            }));
            return;
        }
        if kind == ResponseKind::Bottleneck {
            self.lambda = Some(rate);
            self.mu = ProbeState::Idle;
            self.bottleneck_received = true;
            actions.emit(Action::NotifyRate {
                session: self.session,
                rate,
            });
            if self.tol.gt(self.demand, rate) {
                self.membership = Membership::Unrestricted;
            }
            actions.emit(Action::SendDownstream(Packet::SetBottleneck {
                session: self.session,
                found: self.tol.eq(self.demand, rate),
            }));
            return;
        }
        // Plain Response.
        self.lambda = Some(rate);
        self.mu = ProbeState::Idle;
        if self.tol.eq(self.demand, rate) {
            self.bottleneck_received = true;
            actions.emit(Action::NotifyRate {
                session: self.session,
                rate,
            });
            actions.emit(Action::SendDownstream(Packet::SetBottleneck {
                session: self.session,
                found: true,
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::ActionBuffer;

    const CAP: Rate = 100e6;

    fn source() -> SourceNode {
        SourceNode::new(SessionId(1), LinkId(0), CAP, Tolerance::default())
    }

    fn handle(s: &mut SourceNode, packet: Packet) -> Vec<Action> {
        let mut buf = ActionBuffer::new();
        s.handle(packet, &mut buf);
        buf.into_vec()
    }

    fn api_join(s: &mut SourceNode, limit: RateLimit) -> Vec<Action> {
        let mut buf = ActionBuffer::new();
        s.api_join(limit, &mut buf);
        buf.into_vec()
    }

    fn api_change(s: &mut SourceNode, limit: RateLimit) -> Vec<Action> {
        let mut buf = ActionBuffer::new();
        s.api_change(limit, &mut buf);
        buf.into_vec()
    }

    fn api_leave(s: &mut SourceNode) -> Vec<Action> {
        let mut buf = ActionBuffer::new();
        s.api_leave(&mut buf);
        buf.into_vec()
    }

    fn response(kind: ResponseKind, rate: Rate) -> Packet {
        Packet::Response {
            session: SessionId(1),
            kind,
            rate,
            restricting: LinkId(5),
        }
    }

    #[test]
    fn join_caps_demand_at_the_first_link() {
        let mut s = source();
        let actions = api_join(&mut s, RateLimit::unlimited());
        assert_eq!(s.demand(), CAP);
        assert_eq!(
            actions,
            vec![Action::SendDownstream(Packet::Join {
                session: SessionId(1),
                rate: CAP,
                restricting: LinkId(0)
            })]
        );
        let mut s = source();
        api_join(&mut s, RateLimit::finite(10e6));
        assert_eq!(s.demand(), 10e6);
    }

    #[test]
    fn response_below_demand_waits_for_bottleneck() {
        let mut s = source();
        api_join(&mut s, RateLimit::unlimited());
        let actions = handle(&mut s, response(ResponseKind::Response, 40e6));
        assert!(
            actions.is_empty(),
            "no API.Rate before the bottleneck is confirmed"
        );
        assert_eq!(s.current_rate(), 40e6);
        assert!(!s.is_settled());
        // The Bottleneck packet confirms the rate.
        let actions = handle(
            &mut s,
            Packet::Bottleneck {
                session: SessionId(1),
            },
        );
        assert!(matches!(
            actions[0],
            Action::NotifyRate { rate, .. } if (rate - 40e6).abs() < 1e-3
        ));
        assert!(matches!(
            actions[1],
            Action::SendDownstream(Packet::SetBottleneck { found: false, .. })
        ));
        assert!(s.is_settled());
    }

    #[test]
    fn response_meeting_full_demand_settles_immediately() {
        let mut s = source();
        api_join(&mut s, RateLimit::finite(10e6));
        let actions = handle(&mut s, response(ResponseKind::Response, 10e6));
        assert_eq!(actions.len(), 2);
        assert!(
            matches!(actions[0], Action::NotifyRate { rate, .. } if (rate - 10e6).abs() < 1e-3)
        );
        assert!(matches!(
            actions[1],
            Action::SendDownstream(Packet::SetBottleneck { found: true, .. })
        ));
        assert!(s.is_settled());
    }

    #[test]
    fn bottleneck_response_notifies_and_confirms() {
        let mut s = source();
        api_join(&mut s, RateLimit::unlimited());
        let actions = handle(&mut s, response(ResponseKind::Bottleneck, 25e6));
        assert!(
            matches!(actions[0], Action::NotifyRate { rate, .. } if (rate - 25e6).abs() < 1e-3)
        );
        assert!(matches!(
            actions[1],
            Action::SendDownstream(Packet::SetBottleneck { found: false, .. })
        ));
        assert!(s.is_settled());
        // A duplicate Bottleneck packet afterwards is ignored.
        assert!(handle(
            &mut s,
            Packet::Bottleneck {
                session: SessionId(1)
            }
        )
        .is_empty());
    }

    #[test]
    fn update_response_triggers_a_new_probe_cycle() {
        let mut s = source();
        api_join(&mut s, RateLimit::unlimited());
        let actions = handle(&mut s, response(ResponseKind::Update, 40e6));
        assert_eq!(
            actions,
            vec![Action::SendDownstream(Packet::Probe {
                session: SessionId(1),
                rate: CAP,
                restricting: LinkId(0)
            })]
        );
        assert!(!s.is_settled());
    }

    #[test]
    fn update_during_probe_cycle_is_deferred() {
        let mut s = source();
        api_join(&mut s, RateLimit::unlimited());
        // An Update arrives while the Join's response is still pending: the
        // source remembers it and re-probes after the response arrives.
        assert!(handle(
            &mut s,
            Packet::Update {
                session: SessionId(1)
            }
        )
        .is_empty());
        let actions = handle(&mut s, response(ResponseKind::Response, 40e6));
        assert!(matches!(
            actions[0],
            Action::SendDownstream(Packet::Probe { .. })
        ));
    }

    #[test]
    fn update_when_idle_probes_immediately() {
        let mut s = source();
        api_join(&mut s, RateLimit::unlimited());
        handle(&mut s, response(ResponseKind::Bottleneck, 25e6));
        let actions = handle(
            &mut s,
            Packet::Update {
                session: SessionId(1),
            },
        );
        assert!(matches!(
            actions[0],
            Action::SendDownstream(Packet::Probe { .. })
        ));
        assert!(!s.is_settled());
    }

    #[test]
    fn change_when_idle_probes_with_the_new_demand() {
        let mut s = source();
        api_join(&mut s, RateLimit::unlimited());
        handle(&mut s, response(ResponseKind::Bottleneck, 25e6));
        let actions = api_change(&mut s, RateLimit::finite(5e6));
        assert_eq!(s.demand(), 5e6);
        assert!(matches!(
            actions[0],
            Action::SendDownstream(Packet::Probe { rate, .. }) if (rate - 5e6).abs() < 1e-3
        ));
    }

    #[test]
    fn change_during_probe_cycle_is_deferred() {
        let mut s = source();
        api_join(&mut s, RateLimit::unlimited());
        assert!(api_change(&mut s, RateLimit::finite(5e6)).is_empty());
        // The deferred change forces a new probe after the pending response.
        let actions = handle(&mut s, response(ResponseKind::Response, 40e6));
        assert!(matches!(
            actions[0],
            Action::SendDownstream(Packet::Probe { rate, .. }) if (rate - 5e6).abs() < 1e-3
        ));
    }

    #[test]
    fn leave_emits_leave_and_silences_the_task() {
        let mut s = source();
        api_join(&mut s, RateLimit::unlimited());
        let actions = api_leave(&mut s);
        assert_eq!(
            actions,
            vec![Action::SendDownstream(Packet::Leave {
                session: SessionId(1)
            })]
        );
        assert!(handle(&mut s, response(ResponseKind::Response, 40e6)).is_empty());
        assert_eq!(s.current_rate(), 0.0);
    }

    #[test]
    fn packets_for_other_sessions_are_ignored() {
        let mut s = source();
        api_join(&mut s, RateLimit::unlimited());
        assert!(handle(
            &mut s,
            Packet::Update {
                session: SessionId(99)
            }
        )
        .is_empty());
    }
}
