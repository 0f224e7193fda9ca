//! The B-Neck protocol packets (Section III-B of the paper).

use bneck_maxmin::{Rate, SessionId};
use bneck_net::LinkId;
use std::fmt;

/// The `τ` field of a [`Packet::Response`]: the next action the source node
/// must perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResponseKind {
    /// A plain answer to a Probe cycle carrying the granted rate.
    Response,
    /// The rate could not be settled; the source must start a new Probe cycle.
    Update,
    /// The carried rate is the session's max-min fair rate (a link on the path
    /// identified itself as the session's bottleneck).
    Bottleneck,
}

/// A B-Neck protocol packet.
///
/// `Join`, `Probe`, `SetBottleneck` and `Leave` travel *downstream* (along the
/// session's path); `Response`, `Update` and `Bottleneck` travel *upstream*
/// (along the reverse path).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Packet {
    /// Announces a new session and acts as the first Probe of its Probe cycle.
    /// `rate` is the estimated bottleneck rate `λ` gathered so far and
    /// `restricting` the link `η` with the smallest bottleneck rate found.
    Join {
        /// The joining session.
        session: SessionId,
        /// Estimated bottleneck rate gathered along the path so far.
        rate: Rate,
        /// Link that imposed the strongest restriction so far.
        restricting: LinkId,
    },
    /// Like `Join`, but sent whenever the session's rate must be recomputed.
    Probe {
        /// The probing session.
        session: SessionId,
        /// Estimated bottleneck rate gathered along the path so far.
        rate: Rate,
        /// Link that imposed the strongest restriction so far.
        restricting: LinkId,
    },
    /// Closes a Probe cycle, carrying the granted rate back to the source.
    Response {
        /// The session the response belongs to.
        session: SessionId,
        /// What the source must do next (`τ`).
        kind: ResponseKind,
        /// The rate `λ` that can be assigned to the session.
        rate: Rate,
        /// The link `η` that imposed the strongest restriction.
        restricting: LinkId,
    },
    /// Tells the source that a new Probe cycle must be performed.
    Update {
        /// The session that must re-probe.
        session: SessionId,
    },
    /// Tells the source that its current rate is its max-min fair rate.
    Bottleneck {
        /// The session whose rate is now stable.
        session: SessionId,
    },
    /// Sent downstream by the source once its rate is assumed stable, so the
    /// links that do not restrict the session move it from `R_e` to `F_e`.
    /// `found` is the `β` flag: `true` once some link on the path (or the
    /// session's own demand) has been identified as a bottleneck.
    SetBottleneck {
        /// The session whose rate is assumed stable.
        session: SessionId,
        /// Whether a bottleneck has been found so far on the path.
        found: bool,
    },
    /// Announces the session's departure so links can drop its state.
    Leave {
        /// The departing session.
        session: SessionId,
    },
}

impl Packet {
    /// The session this packet belongs to.
    pub fn session(&self) -> SessionId {
        match *self {
            Packet::Join { session, .. }
            | Packet::Probe { session, .. }
            | Packet::Response { session, .. }
            | Packet::Update { session }
            | Packet::Bottleneck { session }
            | Packet::SetBottleneck { session, .. }
            | Packet::Leave { session } => session,
        }
    }

    /// The packet's kind, used for accounting.
    pub fn kind(&self) -> PacketKind {
        match self {
            Packet::Join { .. } => PacketKind::Join,
            Packet::Probe { .. } => PacketKind::Probe,
            Packet::Response { .. } => PacketKind::Response,
            Packet::Update { .. } => PacketKind::Update,
            Packet::Bottleneck { .. } => PacketKind::Bottleneck,
            Packet::SetBottleneck { .. } => PacketKind::SetBottleneck,
            Packet::Leave { .. } => PacketKind::Leave,
        }
    }
}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Packet::Join {
                session,
                rate,
                restricting,
            } => write!(f, "Join({session}, {rate:.0}, {restricting})"),
            Packet::Probe {
                session,
                rate,
                restricting,
            } => write!(f, "Probe({session}, {rate:.0}, {restricting})"),
            Packet::Response {
                session,
                kind,
                rate,
                restricting,
            } => write!(f, "Response({session}, {kind:?}, {rate:.0}, {restricting})"),
            Packet::Update { session } => write!(f, "Update({session})"),
            Packet::Bottleneck { session } => write!(f, "Bottleneck({session})"),
            Packet::SetBottleneck { session, found } => {
                write!(f, "SetBottleneck({session}, {found})")
            }
            Packet::Leave { session } => write!(f, "Leave({session})"),
        }
    }
}

/// The seven packet kinds, used as keys for packet accounting (Figure 6 of the
/// paper breaks down control traffic by these kinds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PacketKind {
    /// A `Join` packet.
    Join,
    /// A `Probe` packet.
    Probe,
    /// A `Response` packet.
    Response,
    /// An `Update` packet.
    Update,
    /// A `Bottleneck` packet.
    Bottleneck,
    /// A `SetBottleneck` packet.
    SetBottleneck,
    /// A `Leave` packet.
    Leave,
}

impl PacketKind {
    /// All packet kinds, in a stable order.
    pub const ALL: [PacketKind; 7] = [
        PacketKind::Join,
        PacketKind::Probe,
        PacketKind::Response,
        PacketKind::Update,
        PacketKind::Bottleneck,
        PacketKind::SetBottleneck,
        PacketKind::Leave,
    ];

    /// A stable dense index, usable with arrays of length 7.
    pub fn index(self) -> usize {
        match self {
            PacketKind::Join => 0,
            PacketKind::Probe => 1,
            PacketKind::Response => 2,
            PacketKind::Update => 3,
            PacketKind::Bottleneck => 4,
            PacketKind::SetBottleneck => 5,
            PacketKind::Leave => 6,
        }
    }

    /// The packet kind's name as it appears in the paper.
    pub fn name(self) -> &'static str {
        match self {
            PacketKind::Join => "Join",
            PacketKind::Probe => "Probe",
            PacketKind::Response => "Response",
            PacketKind::Update => "Update",
            PacketKind::Bottleneck => "Bottleneck",
            PacketKind::SetBottleneck => "SetBottleneck",
            PacketKind::Leave => "Leave",
        }
    }
}

impl fmt::Display for PacketKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_packets() -> Vec<Packet> {
        vec![
            Packet::Join {
                session: SessionId(1),
                rate: 1e6,
                restricting: LinkId(0),
            },
            Packet::Probe {
                session: SessionId(1),
                rate: 1e6,
                restricting: LinkId(0),
            },
            Packet::Response {
                session: SessionId(1),
                kind: ResponseKind::Bottleneck,
                rate: 1e6,
                restricting: LinkId(2),
            },
            Packet::Update {
                session: SessionId(1),
            },
            Packet::Bottleneck {
                session: SessionId(1),
            },
            Packet::SetBottleneck {
                session: SessionId(1),
                found: true,
            },
            Packet::Leave {
                session: SessionId(1),
            },
        ]
    }

    #[test]
    fn kinds_and_sessions_are_consistent() {
        for (packet, kind) in sample_packets().iter().zip(PacketKind::ALL) {
            assert_eq!(packet.kind(), kind);
            assert_eq!(packet.session(), SessionId(1));
        }
    }

    #[test]
    fn kind_indices_are_dense_and_unique() {
        let mut seen = [false; 7];
        for kind in PacketKind::ALL {
            assert!(!seen[kind.index()]);
            seen[kind.index()] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn display_is_informative() {
        for packet in sample_packets() {
            let text = packet.to_string();
            assert!(text.contains("s1"), "{text} should mention the session");
        }
        assert_eq!(PacketKind::SetBottleneck.to_string(), "SetBottleneck");
    }
}
