//! The `DestinationNode(s)` task (Figure 4 of the paper).
//!
//! The destination node closes Probe cycles (turning `Join`/`Probe` packets
//! into `Response` packets sent back upstream) and, when a `SetBottleneck`
//! arrives whose `β` flag shows that no bottleneck was found anywhere on the
//! path, asks the source to start a new Probe cycle with an `Update`.

#![cfg_attr(not(test), warn(clippy::wildcard_enum_match_arm))]

use crate::packet::{Packet, ResponseKind};
use crate::task::{Action, Emit};
use bneck_maxmin::SessionId;

/// The per-session destination task of the B-Neck protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DestinationNode {
    session: SessionId,
}

impl DestinationNode {
    /// Creates the destination task for `session`.
    pub fn new(session: SessionId) -> Self {
        DestinationNode { session }
    }

    /// The session this task belongs to.
    pub fn session(&self) -> SessionId {
        self.session
    }

    /// Handles a packet that reached the destination host, emitting the
    /// produced actions into `actions`.
    ///
    /// Packets belonging to other sessions or of kinds a destination never
    /// receives are ignored.
    pub fn handle(&self, packet: Packet, actions: &mut impl Emit) {
        if packet.session() != self.session {
            return;
        }
        match packet {
            Packet::Join {
                session,
                rate,
                restricting,
            }
            | Packet::Probe {
                session,
                rate,
                restricting,
            } => actions.emit(Action::SendUpstream(Packet::Response {
                session,
                kind: ResponseKind::Response,
                rate,
                restricting,
            })),
            Packet::SetBottleneck {
                session,
                found: false,
            } => {
                actions.emit(Action::SendUpstream(Packet::Update { session }));
            }
            // A SetBottleneck that found its restricting link terminates at
            // that link; one that reaches the destination unclaimed with
            // `found: true` cannot happen, and nothing is owed upstream.
            Packet::SetBottleneck { found: true, .. } => {}
            // Upstream-travelling kinds a destination emits but never
            // receives, and Leave which terminates at the last router.
            Packet::Response { .. }
            | Packet::Update { .. }
            | Packet::Bottleneck { .. }
            | Packet::Leave { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::ActionBuffer;
    use bneck_net::LinkId;

    fn handle(d: &DestinationNode, packet: Packet) -> Vec<Action> {
        let mut buf = ActionBuffer::new();
        d.handle(packet, &mut buf);
        buf.into_vec()
    }

    #[test]
    fn join_and_probe_are_answered_with_responses() {
        let d = DestinationNode::new(SessionId(4));
        for packet in [
            Packet::Join {
                session: SessionId(4),
                rate: 5e6,
                restricting: LinkId(2),
            },
            Packet::Probe {
                session: SessionId(4),
                rate: 5e6,
                restricting: LinkId(2),
            },
        ] {
            let actions = handle(&d, packet);
            assert_eq!(
                actions,
                vec![Action::SendUpstream(Packet::Response {
                    session: SessionId(4),
                    kind: ResponseKind::Response,
                    rate: 5e6,
                    restricting: LinkId(2),
                })]
            );
        }
    }

    #[test]
    fn missing_bottleneck_triggers_an_update() {
        let d = DestinationNode::new(SessionId(4));
        let actions = handle(
            &d,
            Packet::SetBottleneck {
                session: SessionId(4),
                found: false,
            },
        );
        assert_eq!(
            actions,
            vec![Action::SendUpstream(Packet::Update {
                session: SessionId(4)
            })]
        );
        assert!(handle(
            &d,
            Packet::SetBottleneck {
                session: SessionId(4),
                found: true
            }
        )
        .is_empty());
    }

    #[test]
    fn unrelated_packets_are_ignored() {
        let d = DestinationNode::new(SessionId(4));
        assert!(handle(
            &d,
            Packet::Join {
                session: SessionId(5),
                rate: 1.0,
                restricting: LinkId(0)
            }
        )
        .is_empty());
        assert!(handle(
            &d,
            Packet::Leave {
                session: SessionId(4)
            }
        )
        .is_empty());
        assert_eq!(d.session(), SessionId(4));
    }
}
