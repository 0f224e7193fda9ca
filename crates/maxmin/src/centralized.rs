//! Centralized B-Neck (Figure 1 of the paper).
//!
//! The algorithm discovers bottleneck links iteratively, in increasing order
//! of their bottleneck rates. For every link it maintains the set `R_e` of
//! sessions restricted at the link and `F_e` of sessions restricted elsewhere,
//! computes the estimate `B_e = (C_e − Σ_{s∈F_e} λ*_s) / |R_e|`, assigns the
//! minimum estimate to all sessions of the corresponding links, and removes
//! those links from consideration.
//!
//! Maximum rate requests are modelled, as in the paper, by an additional
//! per-session constraint with capacity `r_s` (equivalently, the effective
//! bandwidth `D_s = min(C_e, r_s)` of the first link).

use crate::rate::{Rate, Tolerance};
use crate::session::{Allocation, SessionId, SessionSet};
use crate::workspace::{SolverWorkspace, NONE};
use bneck_net::{LinkId, Network};

/// The bottleneck structure of one link in the max-min fair allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkBottleneck {
    /// The link this entry describes.
    pub link: LinkId,
    /// The sessions restricted at this link (`R*_e`).
    pub restricted: Vec<SessionId>,
    /// The sessions crossing this link but restricted elsewhere (`F*_e`).
    pub unrestricted: Vec<SessionId>,
    /// The bottleneck rate `B*_e`; `None` when no session is restricted at
    /// this link (in which case its bandwidth is not fully assigned).
    pub bottleneck_rate: Option<Rate>,
}

impl LinkBottleneck {
    /// `true` if this link is a bottleneck of the system (some session is
    /// restricted at it).
    pub(crate) fn is_bottleneck(&self) -> bool {
        self.bottleneck_rate.is_some()
    }
}

/// Result of a centralized B-Neck computation: the allocation plus the
/// per-link bottleneck structure.
#[derive(Debug, Clone, PartialEq)]
pub struct CentralizedSolution {
    /// The max-min fair rate of every session.
    pub allocation: Allocation,
    /// Per-link bottleneck sets, for every link crossed by at least one
    /// session.
    pub links: Vec<LinkBottleneck>,
}

impl CentralizedSolution {
    /// The bottleneck entry of `link`, if the link carries any session.
    pub fn link(&self, link: LinkId) -> Option<&LinkBottleneck> {
        self.links.iter().find(|l| l.link == link)
    }

    /// Iterates over the links that are bottlenecks of the system.
    pub fn bottleneck_links(&self) -> impl Iterator<Item = &LinkBottleneck> {
        self.links.iter().filter(|l| l.is_bottleneck())
    }
}

/// The Centralized B-Neck solver (Figure 1).
///
/// # Example
///
/// ```
/// use bneck_net::prelude::*;
/// use bneck_maxmin::prelude::*;
///
/// let net = synthetic::dumbbell(2, Capacity::from_mbps(100.0),
///                               Capacity::from_mbps(50.0), Delay::from_micros(1));
/// let hosts: Vec<_> = net.hosts().map(|h| h.id()).collect();
/// let mut router = Router::new(&net);
/// let mut sessions = SessionSet::new();
/// for i in 0..2 {
///     let path = router.shortest_path(hosts[2 * i], hosts[2 * i + 1]).unwrap();
///     sessions.insert(Session::new(SessionId(i as u64), path, RateLimit::unlimited()));
/// }
/// let solution = CentralizedBneck::new(&net, &sessions).solve_with_bottlenecks();
/// assert_eq!(solution.bottleneck_links().count(), 1);
/// assert!((solution.allocation.rate(SessionId(0)).unwrap() - 25e6).abs() < 1.0);
/// ```
#[derive(Debug)]
pub struct CentralizedBneck<'a> {
    network: &'a Network,
    sessions: &'a SessionSet,
}

impl<'a> CentralizedBneck<'a> {
    /// Creates a solver for the given network and session set.
    pub fn new(network: &'a Network, sessions: &'a SessionSet) -> Self {
        CentralizedBneck { network, sessions }
    }

    /// Computes the max-min fair allocation.
    pub fn solve(&self) -> Allocation {
        self.run(&mut SolverWorkspace::default())
    }

    /// Computes the allocation together with each link's bottleneck sets.
    pub fn solve_with_bottlenecks(&self) -> CentralizedSolution {
        let ws = &mut SolverWorkspace::default();
        let allocation = self.run(ws);

        // Report the per-link bottleneck structure. A session is restricted
        // at a link iff it was assigned in the round the link's constraint
        // was identified as a bottleneck; everything else crossing the link
        // is restricted elsewhere.
        let mut links = Vec::with_capacity(ws.link_ids.len());
        for (i, &link) in ws.link_ids.iter().enumerate() {
            let bottleneck_round = ws.cons_round[i];
            ws.pairs.clear();
            for &slot in self.sessions.slots_on_link(link) {
                let session = self.sessions.session_at(slot).expect("session exists");
                ws.pairs.push((session.id(), slot));
            }
            ws.pairs.sort_unstable();
            let mut restricted = Vec::new();
            let mut unrestricted = Vec::new();
            let mut assigned: Rate = 0.0;
            for &(id, slot) in ws.pairs.iter() {
                if bottleneck_round != NONE && ws.round[slot as usize] == bottleneck_round {
                    restricted.push(id);
                } else {
                    unrestricted.push(id);
                    assigned += ws.rate[slot as usize];
                }
            }
            let bottleneck_rate = if restricted.is_empty() {
                None
            } else {
                Some((ws.cap[i] - assigned).max(0.0) / restricted.len() as f64)
            };
            links.push(LinkBottleneck {
                link,
                restricted,
                unrestricted,
                bottleneck_rate,
            });
        }

        CentralizedSolution { allocation, links }
    }

    /// Runs Figure 1 on flat constraint arrays and returns the allocation,
    /// leaving per-slot rates and rounds plus per-constraint bottleneck
    /// rounds in the workspace.
    ///
    /// Constraints are the used links (in [`SessionSet::used_links`] order)
    /// followed by one private constraint per rate-limited session. Instead
    /// of materializing the `R_e` / `F_e` session sets, the loop maintains
    /// each constraint's undecided-member count and granted-rate sum
    /// incrementally: assigning a session only touches the constraints on its
    /// path.
    fn run(&self, ws: &mut SolverWorkspace) -> Allocation {
        let tol = Tolerance::default();

        ws.init_link_constraints(self.network, self.sessions);
        let link_cons = ws.link_ids.len();
        ws.round = vec![NONE; self.sessions.slot_capacity()];
        ws.limit_cons = vec![NONE; self.sessions.slot_capacity()];
        for (slot, session) in self.sessions.iter_with_slots() {
            if !session.limit().is_unlimited() {
                ws.limit_cons[slot as usize] = (link_cons + ws.cons_member.len()) as u32;
                ws.cons_member.push(slot);
                ws.cap.push(session.limit().as_bps());
                ws.active.push(1);
                ws.granted.push(0.0);
            }
        }
        let cons = ws.cap.len();
        ws.cons_live = vec![true; cons];
        ws.cons_est = vec![f64::INFINITY; cons];
        ws.cons_round = vec![NONE; cons];
        let mut live = cons;

        let mut round = 0u32;
        while live > 0 {
            // B_e ← (C_e − Σ_{s∈F_e} λ*_s) / |R_e| for each live constraint.
            let mut min_estimate = f64::INFINITY;
            for c in 0..cons {
                if !ws.cons_live[c] {
                    continue;
                }
                let estimate = (ws.cap[c] - ws.granted[c]).max(0.0) / ws.active[c] as f64;
                ws.cons_est[c] = estimate;
                min_estimate = min_estimate.min(estimate);
            }
            // L' ← argmin; X ← union of R_e over L'. The estimates were all
            // taken before any assignment, so marking argmin constraints and
            // assigning their members in one sweep matches Figure 1.
            ws.newly.clear();
            for c in 0..cons {
                if !ws.cons_live[c] || !tol.eq(ws.cons_est[c], min_estimate) {
                    continue;
                }
                ws.cons_live[c] = false;
                ws.cons_round[c] = round;
                live -= 1;
                let members = if c < link_cons {
                    self.sessions.slots_on_link(ws.link_ids[c])
                } else {
                    std::slice::from_ref(&ws.cons_member[c - link_cons])
                };
                for &slot in members {
                    if ws.rate[slot as usize].is_nan() {
                        ws.rate[slot as usize] = min_estimate;
                        ws.round[slot as usize] = round;
                        ws.newly.push(slot);
                    }
                }
            }
            // Move the newly assigned sessions to F_e on every other live
            // constraint they cross, dropping constraints that drained.
            for k in 0..ws.newly.len() {
                let slot = ws.newly[k];
                let session = self.sessions.session_at(slot).expect("session exists");
                for &link in session.path().links() {
                    let c = ws.link_pos[link.index()] as usize;
                    if ws.cons_live[c] {
                        ws.active[c] -= 1;
                        ws.granted[c] += min_estimate;
                        if ws.active[c] == 0 {
                            ws.cons_live[c] = false;
                            live -= 1;
                        }
                    }
                }
                let lc = ws.limit_cons[slot as usize];
                if lc != NONE && ws.cons_live[lc as usize] {
                    ws.cons_live[lc as usize] = false;
                    live -= 1;
                }
            }
            round += 1;
        }
        let mut allocation = Allocation::new();
        for (slot, session) in self.sessions.iter_with_slots() {
            allocation.set(session.id(), ws.rate[slot as usize]);
        }
        allocation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rate::RateLimit;
    use crate::session::Session;
    use crate::waterfill::WaterFilling;
    use bneck_net::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn mbps(x: f64) -> Capacity {
        Capacity::from_mbps(x)
    }
    fn us(x: u64) -> Delay {
        Delay::from_micros(x)
    }

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
    fn splits_a_shared_bottleneck_evenly() {
        let (net, sessions) = dumbbell_sessions(5, 100.0);
        let alloc = CentralizedBneck::new(&net, &sessions).solve();
        for i in 0..5 {
            assert!((alloc.rate(SessionId(i)).unwrap() - 20e6).abs() < 1.0);
        }
    }

    #[test]
    fn respects_rate_limits() {
        let (net, mut sessions) = dumbbell_sessions(3, 90.0);
        sessions.change_limit(SessionId(0), RateLimit::finite(10e6));
        let alloc = CentralizedBneck::new(&net, &sessions).solve();
        assert!((alloc.rate(SessionId(0)).unwrap() - 10e6).abs() < 1.0);
        assert!((alloc.rate(SessionId(1)).unwrap() - 40e6).abs() < 1.0);
        assert!((alloc.rate(SessionId(2)).unwrap() - 40e6).abs() < 1.0);
    }

    #[test]
    fn reports_bottleneck_structure() {
        let (net, sessions) = dumbbell_sessions(2, 50.0);
        let solution = CentralizedBneck::new(&net, &sessions).solve_with_bottlenecks();
        // Exactly one system bottleneck: the shared 50 Mbps link.
        let bottlenecks: Vec<_> = solution.bottleneck_links().collect();
        assert_eq!(bottlenecks.len(), 1);
        let b = bottlenecks[0];
        assert_eq!(b.restricted.len(), 2);
        assert!(b.unrestricted.is_empty());
        assert!((b.bottleneck_rate.unwrap() - 25e6).abs() < 1.0);
        // Access links carry one session each, restricted elsewhere.
        let access = solution.links.iter().filter(|l| !l.is_bottleneck()).count();
        assert!(access > 0);
        assert!(solution.link(b.link).is_some());
    }

    #[test]
    fn empty_sessions_empty_solution() {
        let (net, _) = dumbbell_sessions(1, 50.0);
        let empty = SessionSet::new();
        let solution = CentralizedBneck::new(&net, &empty).solve_with_bottlenecks();
        assert!(solution.allocation.is_empty());
        assert!(solution.links.is_empty());
    }

    #[test]
    fn agrees_with_water_filling_on_dependent_bottlenecks() {
        // Chain of routers with crossing sessions of different lengths.
        let net = synthetic::parking_lot(4, mbps(100.0), mbps(50.0), us(1));
        let hosts: Vec<_> = net.hosts().map(|h| h.id()).collect();
        let mut router = Router::new(&net);
        let mut sessions = SessionSet::new();
        // Long session end to end plus short ones on each segment.
        sessions.insert(Session::new(
            SessionId(0),
            router.shortest_path(hosts[0], hosts[4]).unwrap(),
            RateLimit::unlimited(),
        ));
        for i in 0..4 {
            sessions.insert(Session::new(
                SessionId(1 + i as u64),
                router.shortest_path(hosts[i], hosts[i + 1]).unwrap(),
                RateLimit::unlimited(),
            ));
        }
        let a = CentralizedBneck::new(&net, &sessions).solve();
        let b = WaterFilling::new(&net, &sessions).solve();
        for s in sessions.iter() {
            let ra = a.rate(s.id()).unwrap();
            let rb = b.rate(s.id()).unwrap();
            assert!(
                (ra - rb).abs() <= 1.0,
                "session {}: centralized {} vs waterfill {}",
                s.id(),
                ra,
                rb
            );
        }
    }

    #[test]
    fn random_transit_stub_agrees_with_water_filling() {
        let net = bneck_net::topology::transit_stub::paper_network(
            NetworkSize::Small,
            60,
            DelayModel::Lan,
            17,
        );
        let hosts: Vec<_> = net.hosts().map(|h| h.id()).collect();
        let mut rng = SmallRng::seed_from_u64(99);
        let mut router = Router::new(&net);
        let mut sessions = SessionSet::new();
        let mut id = 0u64;
        for chunk in hosts.chunks(2) {
            if chunk.len() < 2 {
                break;
            }
            if let Some(path) = router.shortest_path(chunk[0], chunk[1]) {
                let limit = if rng.gen_bool(0.3) {
                    RateLimit::finite(rng.gen_range(1e6..50e6))
                } else {
                    RateLimit::unlimited()
                };
                sessions.insert(Session::new(SessionId(id), path, limit));
                id += 1;
            }
        }
        assert!(sessions.len() >= 20);
        let a = CentralizedBneck::new(&net, &sessions).solve();
        let b = WaterFilling::new(&net, &sessions).solve();
        for s in sessions.iter() {
            let ra = a.rate(s.id()).unwrap();
            let rb = b.rate(s.id()).unwrap();
            let rel = (ra - rb).abs() / ra.max(rb).max(1.0);
            assert!(rel < 1e-6, "session {} mismatch: {} vs {}", s.id(), ra, rb);
        }
    }
}
