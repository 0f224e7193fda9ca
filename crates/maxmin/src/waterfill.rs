//! The classic progressive-filling (Water-Filling) algorithm.
//!
//! Water-Filling raises the rate of every session simultaneously until a link
//! saturates or a session reaches its requested maximum; saturated sessions
//! are frozen and the process repeats with the remaining ones. It computes the
//! same allocation as [`crate::centralized::CentralizedBneck`] and is kept as
//! an independent implementation so the two can cross-validate each other in
//! property tests (mirroring how the paper validates B-Neck against "a
//! centralized algorithm similar to the Water-Filling algorithm").

use crate::rate::{Rate, Tolerance};
use crate::session::{Allocation, SessionSet};
use crate::workspace::{SolverWorkspace, NONE};
use bneck_net::Network;

/// Progressive-filling max-min solver.
///
/// # Example
///
/// ```
/// use bneck_net::prelude::*;
/// use bneck_maxmin::prelude::*;
///
/// let net = synthetic::dumbbell(2, Capacity::from_mbps(100.0),
///                               Capacity::from_mbps(60.0), Delay::from_micros(1));
/// let hosts: Vec<_> = net.hosts().map(|h| h.id()).collect();
/// let mut router = Router::new(&net);
/// let mut sessions = SessionSet::new();
/// for i in 0..2 {
///     let path = router.shortest_path(hosts[2 * i], hosts[2 * i + 1]).unwrap();
///     sessions.insert(Session::new(SessionId(i as u64), path, RateLimit::unlimited()));
/// }
/// let allocation = WaterFilling::new(&net, &sessions).solve();
/// // The 60 Mbps bottleneck is split evenly.
/// assert!((allocation.rate(SessionId(0)).unwrap() - 30e6).abs() < 1.0);
/// ```
#[derive(Debug)]
pub struct WaterFilling<'a> {
    network: &'a Network,
    sessions: &'a SessionSet,
}

impl<'a> WaterFilling<'a> {
    /// Creates a solver for the given network and session set.
    pub fn new(network: &'a Network, sessions: &'a SessionSet) -> Self {
        WaterFilling { network, sessions }
    }

    /// Computes the max-min fair allocation.
    ///
    /// The water level rises round by round; each round freezes the sessions
    /// that sit on a link saturated at the new level or that reached their
    /// own requested maximum. Per-link active counts and frozen-capacity sums
    /// are maintained incrementally — freezing a session only touches the
    /// links on its path — instead of rescanning every link × session pair.
    pub fn solve(&self) -> Allocation {
        let tol = Tolerance::default();
        let mut allocation = Allocation::new();
        if self.sessions.is_empty() {
            return allocation;
        }

        let ws = &mut SolverWorkspace::default();
        ws.init_link_constraints(self.network, self.sessions);

        // Rate-limited sessions sorted by limit: since the water level only
        // rises, a cursor over this list yields the smallest unfrozen limit
        // in O(1) per round.
        let mut remaining = 0usize;
        for (slot, session) in self.sessions.iter_with_slots() {
            remaining += 1;
            if !session.limit().is_unlimited() {
                ws.by_limit.push((session.limit().as_bps(), slot));
            }
        }
        ws.by_limit.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("rate limits are never NaN")
                .then(a.1.cmp(&b.1))
        });
        let mut limit_cursor = 0usize;
        let mut level: Rate = 0.0;

        while remaining > 0 {
            while limit_cursor < ws.by_limit.len()
                && !ws.rate[ws.by_limit[limit_cursor].1 as usize].is_nan()
            {
                limit_cursor += 1;
            }
            // The highest level each link allows for its active sessions,
            // capped by the smallest limit an active session could hit.
            let mut next_level: Rate = f64::INFINITY;
            for i in 0..ws.link_ids.len() {
                let active = ws.active[i];
                if active == 0 {
                    continue;
                }
                let allowed = (ws.cap[i] - ws.granted[i]).max(0.0) / active as f64;
                next_level = next_level.min(allowed);
            }
            if limit_cursor < ws.by_limit.len() {
                next_level = next_level.min(ws.by_limit[limit_cursor].0);
            }
            level = next_level.max(level);

            // Links saturated at the new level, decided before any freeze
            // mutates the counts.
            ws.saturated.clear();
            for i in 0..ws.link_ids.len() {
                let active = ws.active[i];
                if active == 0 {
                    continue;
                }
                if tol.ge(ws.granted[i] + active as f64 * level, ws.cap[i]) {
                    ws.saturated.push(i as u32);
                }
            }
            let mut frozen_this_round = 0usize;
            for k in 0..ws.saturated.len() {
                let link = ws.link_ids[ws.saturated[k] as usize];
                for &slot in self.sessions.slots_on_link(link) {
                    if ws.rate[slot as usize].is_nan() {
                        freeze(ws, self.sessions, slot, level);
                        frozen_this_round += 1;
                    }
                }
            }
            // Sessions frozen by their own limit rather than by a link.
            while limit_cursor < ws.by_limit.len() {
                let (limit, slot) = ws.by_limit[limit_cursor];
                if !ws.rate[slot as usize].is_nan() {
                    limit_cursor += 1;
                    continue;
                }
                if tol.ge(level, limit) {
                    freeze(ws, self.sessions, slot, level);
                    frozen_this_round += 1;
                    limit_cursor += 1;
                } else {
                    break;
                }
            }
            assert!(
                frozen_this_round > 0,
                "progressive filling must freeze at least one session per round"
            );
            remaining -= frozen_this_round;
        }

        for (slot, session) in self.sessions.iter_with_slots() {
            allocation.set(session.id(), ws.rate[slot as usize]);
        }
        allocation
    }
}

/// Freezes `slot` at `level`, updating only the links on its path.
fn freeze(ws: &mut SolverWorkspace, sessions: &SessionSet, slot: u32, level: Rate) {
    ws.rate[slot as usize] = level;
    let session = sessions.session_at(slot).expect("frozen session exists");
    for &link in session.path().links() {
        let i = ws.link_pos[link.index()];
        debug_assert!(i != NONE, "session paths only cross used links");
        ws.active[i as usize] -= 1;
        ws.granted[i as usize] += level;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rate::RateLimit;
    use crate::session::{Session, SessionId};
    use bneck_net::prelude::*;

    fn mbps(x: f64) -> Capacity {
        Capacity::from_mbps(x)
    }
    fn us(x: u64) -> Delay {
        Delay::from_micros(x)
    }

    /// Builds sessions pairing host 2i -> 2i+1 on a dumbbell.
    fn dumbbell_sessions(pairs: usize, bottleneck_mbps: f64) -> (Network, SessionSet) {
        let net = synthetic::dumbbell(pairs, mbps(100.0), mbps(bottleneck_mbps), us(1));
        let hosts: Vec<_> = net.hosts().map(|h| h.id()).collect();
        let mut router = Router::new(&net);
        let mut set = SessionSet::new();
        for i in 0..pairs {
            let path = router
                .shortest_path(hosts[2 * i], hosts[2 * i + 1])
                .unwrap();
            set.insert(Session::new(
                SessionId(i as u64),
                path,
                RateLimit::unlimited(),
            ));
        }
        (net, set)
    }

    #[test]
    fn empty_session_set_yields_empty_allocation() {
        let (net, _) = dumbbell_sessions(1, 50.0);
        let empty = SessionSet::new();
        let alloc = WaterFilling::new(&net, &empty).solve();
        assert!(alloc.is_empty());
    }

    #[test]
    fn equal_split_on_shared_bottleneck() {
        let (net, sessions) = dumbbell_sessions(4, 80.0);
        let alloc = WaterFilling::new(&net, &sessions).solve();
        for i in 0..4 {
            assert!((alloc.rate(SessionId(i)).unwrap() - 20e6).abs() < 1.0);
        }
    }

    #[test]
    fn access_links_bound_when_bottleneck_is_wide() {
        // Bottleneck of 1 Gbps: each of the 3 sessions is limited by its
        // 100 Mbps access link instead.
        let (net, sessions) = dumbbell_sessions(3, 1000.0);
        let alloc = WaterFilling::new(&net, &sessions).solve();
        for i in 0..3 {
            assert!((alloc.rate(SessionId(i)).unwrap() - 100e6).abs() < 1.0);
        }
    }

    #[test]
    fn rate_limits_release_bandwidth_to_others() {
        let (net, mut sessions) = dumbbell_sessions(3, 90.0);
        sessions.change_limit(SessionId(0), RateLimit::finite(10e6));
        let alloc = WaterFilling::new(&net, &sessions).solve();
        assert!((alloc.rate(SessionId(0)).unwrap() - 10e6).abs() < 1.0);
        assert!((alloc.rate(SessionId(1)).unwrap() - 40e6).abs() < 1.0);
        assert!((alloc.rate(SessionId(2)).unwrap() - 40e6).abs() < 1.0);
    }

    #[test]
    fn parking_lot_long_session_gets_the_min_share() {
        // Parking lot with 2 segments: hosts h0..h2 on routers r0..r2.
        // Long session: h0 -> h2 (both segments); short sessions h0->h1 is not
        // possible (one source per host), so use h1 -> h2 and h2 -> h1 style
        // crossings instead: s0: h0->h2 (long), s1: h1->h2 (segment 1).
        let net = synthetic::parking_lot(2, mbps(100.0), mbps(60.0), us(1));
        let hosts: Vec<_> = net.hosts().map(|h| h.id()).collect();
        let mut router = Router::new(&net);
        let mut sessions = SessionSet::new();
        let long = router.shortest_path(hosts[0], hosts[2]).unwrap();
        let short = router.shortest_path(hosts[1], hosts[2]).unwrap();
        sessions.insert(Session::new(SessionId(0), long, RateLimit::unlimited()));
        sessions.insert(Session::new(SessionId(1), short, RateLimit::unlimited()));
        let alloc = WaterFilling::new(&net, &sessions).solve();
        // Both cross the r1->r2 segment (60 Mbps): 30/30.
        assert!((alloc.rate(SessionId(0)).unwrap() - 30e6).abs() < 1.0);
        assert!((alloc.rate(SessionId(1)).unwrap() - 30e6).abs() < 1.0);
    }

    #[test]
    fn unused_capacity_goes_to_unrestricted_sessions() {
        // Classic 3-session example: s0 and s1 share link A (cap 100),
        // s1 and s2 share link B (cap 40). Max-min: s1 = 20, s2 = 20, s0 = 80.
        let mut b = NetworkBuilder::new();
        let r0 = b.add_router();
        let r1 = b.add_router();
        let r2 = b.add_router();
        b.connect(r0, r1, mbps(100.0), us(1)); // link A
        b.connect(r1, r2, mbps(40.0), us(1)); // link B
        let h0 = b.add_host(r0, mbps(1000.0), us(1));
        let h1 = b.add_host(r0, mbps(1000.0), us(1));
        let h2 = b.add_host(r1, mbps(1000.0), us(1));
        let d1 = b.add_host(r1, mbps(1000.0), us(1));
        let d2 = b.add_host(r2, mbps(1000.0), us(1));
        let net = b.build();
        let mut router = Router::new(&net);
        let mut sessions = SessionSet::new();
        // s0: h0 -> d1 over link A only.
        sessions.insert(Session::new(
            SessionId(0),
            router.shortest_path(h0, d1).unwrap(),
            RateLimit::unlimited(),
        ));
        // s1: h1 -> d2 over links A and B.
        sessions.insert(Session::new(
            SessionId(1),
            router.shortest_path(h1, d2).unwrap(),
            RateLimit::unlimited(),
        ));
        // s2: h2 -> d2 over link B only.
        sessions.insert(Session::new(
            SessionId(2),
            router.shortest_path(h2, d2).unwrap(),
            RateLimit::unlimited(),
        ));
        let alloc = WaterFilling::new(&net, &sessions).solve();
        assert!((alloc.rate(SessionId(1)).unwrap() - 20e6).abs() < 1.0);
        assert!((alloc.rate(SessionId(2)).unwrap() - 20e6).abs() < 1.0);
        assert!((alloc.rate(SessionId(0)).unwrap() - 80e6).abs() < 1.0);
    }
}
