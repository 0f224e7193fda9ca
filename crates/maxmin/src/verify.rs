//! Verification of max-min fair allocations.
//!
//! [`verify_max_min`] checks the defining conditions of max-min fairness
//! (Definition 1 of the paper): every link's capacity is respected, every
//! session respects its own maximum rate, and every session either receives
//! its full request or has a *bottleneck link* — a saturated link on its path
//! where no other session gets more than it does.
//!
//! [`compare_allocations`] checks that two allocations (for example the
//! distributed protocol's result and the centralized oracle's result) agree on
//! every session, which is exactly how the paper validates its B-Neck
//! implementation.

use crate::rate::{Rate, Tolerance};
use crate::session::{Allocation, SessionId, SessionSet};
use bneck_net::{LinkId, Network};
use std::fmt;

/// A violation of the max-min fairness conditions (or a disagreement between
/// two allocations).
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// A session has no assigned rate.
    MissingRate {
        /// The session without a rate.
        session: SessionId,
    },
    /// The sessions crossing a link exceed its capacity.
    LinkOverload {
        /// The overloaded link.
        link: LinkId,
        /// Sum of the rates of the sessions crossing the link.
        assigned: Rate,
        /// The link's capacity.
        capacity: Rate,
    },
    /// A session was assigned more than it requested.
    ExceedsLimit {
        /// The session exceeding its request.
        session: SessionId,
        /// The assigned rate.
        assigned: Rate,
        /// The requested maximum rate.
        limit: Rate,
    },
    /// A session is below its request but has no bottleneck link, so its rate
    /// could be increased without hurting anyone with a smaller or equal rate.
    NoBottleneck {
        /// The session without a bottleneck.
        session: SessionId,
        /// The assigned rate.
        assigned: Rate,
    },
    /// Two allocations disagree on a session's rate.
    RateMismatch {
        /// The session the allocations disagree on.
        session: SessionId,
        /// The rate in the first allocation.
        left: Rate,
        /// The rate in the second allocation.
        right: Rate,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::MissingRate { session } => write!(f, "session {session} has no rate"),
            Violation::LinkOverload {
                link,
                assigned,
                capacity,
            } => write!(
                f,
                "link {link} overloaded: assigned {assigned:.1} bps exceeds capacity {capacity:.1} bps"
            ),
            Violation::ExceedsLimit {
                session,
                assigned,
                limit,
            } => write!(
                f,
                "session {session} assigned {assigned:.1} bps above its limit {limit:.1} bps"
            ),
            Violation::NoBottleneck { session, assigned } => write!(
                f,
                "session {session} at {assigned:.1} bps is below its limit but has no bottleneck link"
            ),
            Violation::RateMismatch {
                session,
                left,
                right,
            } => write!(
                f,
                "allocations disagree on session {session}: {left:.1} bps vs {right:.1} bps"
            ),
        }
    }
}

impl std::error::Error for Violation {}

/// Checks that `allocation` is a max-min fair allocation for `sessions` over
/// `network`, using the default [`Tolerance`].
///
/// # Errors
///
/// Returns the list of violated conditions if the allocation is not max-min
/// fair.
pub fn verify_max_min(
    network: &Network,
    sessions: &SessionSet,
    allocation: &Allocation,
) -> Result<(), Vec<Violation>> {
    verify_max_min_with(network, sessions, allocation, Tolerance::default())
}

/// [`verify_max_min`] with an explicit tolerance.
///
/// # Errors
///
/// Returns the list of violated conditions if the allocation is not max-min
/// fair within the tolerance.
pub(crate) fn verify_max_min_with(
    network: &Network,
    sessions: &SessionSet,
    allocation: &Allocation,
    tol: Tolerance,
) -> Result<(), Vec<Violation>> {
    let mut violations = Vec::new();

    // 1. Every session has a rate not exceeding its request.
    for session in sessions.iter() {
        match allocation.rate(session.id()) {
            None => violations.push(Violation::MissingRate {
                session: session.id(),
            }),
            Some(rate) => {
                let limit = session.limit().as_bps();
                if tol.gt(rate, limit) {
                    violations.push(Violation::ExceedsLimit {
                        session: session.id(),
                        assigned: rate,
                        limit,
                    });
                }
            }
        }
    }

    // 2. No link is overloaded.
    for link in sessions.used_links() {
        let assigned = allocation.sum_over(sessions.sessions_on_link(link).iter());
        let capacity = network.link(link).capacity().as_bps();
        if tol.gt(assigned, capacity) {
            violations.push(Violation::LinkOverload {
                link,
                assigned,
                capacity,
            });
        }
    }

    // 3. Every session below its request has a bottleneck link.
    for session in sessions.iter() {
        let Some(rate) = allocation.rate(session.id()) else {
            continue;
        };
        if tol.ge(rate, session.limit().as_bps()) {
            continue; // restricted by its own request
        }
        let has_bottleneck = session.path().links().iter().any(|&link| {
            let on_link = sessions.sessions_on_link(link);
            let assigned = allocation.sum_over(on_link.iter());
            let capacity = network.link(link).capacity().as_bps();
            let saturated = tol.ge(assigned, capacity);
            let is_max = on_link.iter().all(|other| {
                allocation
                    .rate(*other)
                    .map(|r| tol.le(r, rate))
                    .unwrap_or(true)
            });
            saturated && is_max
        });
        if !has_bottleneck {
            violations.push(Violation::NoBottleneck {
                session: session.id(),
                assigned: rate,
            });
        }
    }

    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

/// Checks that two allocations assign (tolerably) the same rate to every
/// session of `sessions`.
///
/// # Errors
///
/// Returns one [`Violation::RateMismatch`] (or [`Violation::MissingRate`]) per
/// disagreeing session.
pub fn compare_allocations(
    sessions: &SessionSet,
    left: &Allocation,
    right: &Allocation,
    tol: Tolerance,
) -> Result<(), Vec<Violation>> {
    let mut violations = Vec::new();
    for session in sessions.iter() {
        match (left.rate(session.id()), right.rate(session.id())) {
            (Some(a), Some(b)) => {
                if tol.ne(a, b) {
                    violations.push(Violation::RateMismatch {
                        session: session.id(),
                        left: a,
                        right: b,
                    });
                }
            }
            _ => violations.push(Violation::MissingRate {
                session: session.id(),
            }),
        }
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::centralized::CentralizedBneck;
    use crate::rate::RateLimit;
    use crate::session::Session;
    use bneck_net::prelude::*;

    fn mbps(x: f64) -> Capacity {
        Capacity::from_mbps(x)
    }
    fn us(x: u64) -> Delay {
        Delay::from_micros(x)
    }

    fn two_session_dumbbell() -> (Network, SessionSet) {
        let net = synthetic::dumbbell(2, mbps(100.0), mbps(60.0), us(1));
        let hosts: Vec<_> = net.hosts().map(|h| h.id()).collect();
        let mut router = Router::new(&net);
        let mut sessions = SessionSet::new();
        for i in 0..2 {
            let path = router
                .shortest_path(hosts[2 * i], hosts[2 * i + 1])
                .unwrap();
            sessions.insert(Session::new(
                SessionId(i as u64),
                path,
                RateLimit::unlimited(),
            ));
        }
        (net, sessions)
    }

    #[test]
    fn accepts_the_oracle_allocation() {
        let (net, sessions) = two_session_dumbbell();
        let alloc = CentralizedBneck::new(&net, &sessions).solve();
        assert!(verify_max_min(&net, &sessions, &alloc).is_ok());
    }

    #[test]
    fn rejects_overload() {
        let (net, sessions) = two_session_dumbbell();
        let mut alloc = Allocation::new();
        alloc.set(SessionId(0), 50e6);
        alloc.set(SessionId(1), 50e6); // 100 Mbps through a 60 Mbps link
        let violations = verify_max_min(&net, &sessions, &alloc).unwrap_err();
        assert!(violations
            .iter()
            .any(|v| matches!(v, Violation::LinkOverload { .. })));
    }

    #[test]
    fn rejects_underutilization_without_bottleneck() {
        let (net, sessions) = two_session_dumbbell();
        let mut alloc = Allocation::new();
        alloc.set(SessionId(0), 10e6);
        alloc.set(SessionId(1), 10e6); // feasible but not max-min
        let violations = verify_max_min(&net, &sessions, &alloc).unwrap_err();
        assert_eq!(
            violations
                .iter()
                .filter(|v| matches!(v, Violation::NoBottleneck { .. }))
                .count(),
            2
        );
    }

    #[test]
    fn rejects_unfair_split_even_if_link_is_full() {
        let (net, sessions) = two_session_dumbbell();
        let mut alloc = Allocation::new();
        alloc.set(SessionId(0), 40e6);
        alloc.set(SessionId(1), 20e6); // link is full but session 1 has no bottleneck
        let violations = verify_max_min(&net, &sessions, &alloc).unwrap_err();
        assert!(violations.iter().any(
            |v| matches!(v, Violation::NoBottleneck { session, .. } if *session == SessionId(1))
        ));
    }

    #[test]
    fn rejects_missing_rate_and_limit_excess() {
        let (net, mut sessions) = two_session_dumbbell();
        sessions.change_limit(SessionId(0), RateLimit::finite(5e6));
        let mut alloc = Allocation::new();
        alloc.set(SessionId(0), 10e6); // above its 5 Mbps limit
        let violations = verify_max_min(&net, &sessions, &alloc).unwrap_err();
        assert!(violations
            .iter()
            .any(|v| matches!(v, Violation::ExceedsLimit { .. })));
        assert!(violations
            .iter()
            .any(|v| matches!(v, Violation::MissingRate { session } if *session == SessionId(1))));
    }

    #[test]
    fn session_capped_by_its_own_limit_needs_no_bottleneck() {
        let (net, mut sessions) = two_session_dumbbell();
        sessions.change_limit(SessionId(0), RateLimit::finite(10e6));
        let alloc = CentralizedBneck::new(&net, &sessions).solve();
        // Session 0 gets its 10 Mbps, session 1 gets 50 Mbps (bottleneck).
        assert!(verify_max_min(&net, &sessions, &alloc).is_ok());
    }

    #[test]
    fn compare_allocations_reports_mismatches() {
        let (net, sessions) = two_session_dumbbell();
        let a = CentralizedBneck::new(&net, &sessions).solve();
        let mut b = a.clone();
        assert!(compare_allocations(&sessions, &a, &b, Tolerance::default()).is_ok());
        b.set(SessionId(1), 1.0);
        let violations = compare_allocations(&sessions, &a, &b, Tolerance::default()).unwrap_err();
        assert_eq!(violations.len(), 1);
        assert!(matches!(violations[0], Violation::RateMismatch { .. }));
        let empty = Allocation::new();
        assert!(compare_allocations(&sessions, &a, &empty, Tolerance::default()).is_err());
    }

    #[test]
    fn violations_have_readable_messages() {
        let v = Violation::LinkOverload {
            link: LinkId(3),
            assigned: 10.0,
            capacity: 5.0,
        };
        assert!(v.to_string().contains("e3"));
        let v = Violation::RateMismatch {
            session: SessionId(2),
            left: 1.0,
            right: 2.0,
        };
        assert!(v.to_string().contains("s2"));
    }
}
