//! BFYZ: the per-session-state explicit-rate baseline.
//!
//! Bartal, Farach-Colton, Yooseph and Zhang's algorithm ("Fast, fair and
//! frugal bandwidth allocation in ATM networks") belongs to the family of
//! explicit-rate max-min protocols that keep per-session state at every
//! router. This re-implementation captures that family's operating principle
//! (consistent marking, as introduced by Charny et al.): every link records
//! the current rate of every session crossing it, computes a water-filled
//! advertised share, and stamps probe packets with it; sources adopt the
//! minimum stamp along their path and keep probing.
//!
//! Because the recorded rates lag behind the sources' reactions, the
//! advertised share transiently *overestimates* the max-min rate (for
//! example right after departures free capacity), which is the behaviour the
//! paper contrasts with B-Neck's conservative transient rates in Figure 7.

use crate::common::{BaselineProtocol, LinkController};
use bneck_maxmin::{Rate, SessionId};
use bneck_net::Delay;
use bneck_sim::SimTime;
use std::collections::BTreeMap;

/// The BFYZ baseline protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bfyz {
    /// Interval at which every source re-probes its path.
    pub probe_interval: Delay,
}

impl Default for Bfyz {
    fn default() -> Self {
        Bfyz {
            probe_interval: Delay::from_millis(1),
        }
    }
}

impl BaselineProtocol for Bfyz {
    type Controller = BfyzController;

    fn name(&self) -> &'static str {
        "BFYZ"
    }

    fn controller(&self, capacity: Rate) -> BfyzController {
        BfyzController {
            capacity,
            recorded: BTreeMap::new(),
        }
    }

    fn probe_interval(&self) -> Delay {
        self.probe_interval
    }

    /// BFYZ tracks per-session rates and water-fills, so after many probe
    /// intervals its mean error against the exact max-min rates stays within
    /// ~15% (the bound `baselines_end_to_end` and the cross-protocol
    /// conformance suite assert).
    fn mean_error_tolerance_pct(&self) -> f64 {
        15.0
    }
}

/// Per-link state of BFYZ: the recorded rate of every session crossing the
/// link (this is the per-session state the paper points out such algorithms
/// require).
#[derive(Debug, Clone)]
pub struct BfyzController {
    capacity: Rate,
    recorded: BTreeMap<SessionId, Rate>,
}

impl BfyzController {
    /// The advertised (water-filled) share: sessions whose recorded rate is
    /// below the share are treated as restricted elsewhere and keep their
    /// recording; the remaining capacity is split among the others.
    pub(crate) fn advertised_rate(&self) -> Rate {
        let mut rates: Vec<Rate> = self.recorded.values().copied().collect();
        if rates.is_empty() {
            return self.capacity;
        }
        rates.sort_by(|a, b| a.partial_cmp(b).expect("rates are never NaN"));
        let mut remaining = self.capacity;
        let mut n = rates.len();
        for rate in rates {
            let share = remaining / n as f64;
            if rate < share {
                remaining -= rate;
                n -= 1;
            } else {
                break;
            }
        }
        if n == 0 {
            self.capacity
        } else {
            remaining / n as f64
        }
    }

    /// Number of sessions with recorded state at this link.
    pub fn session_count(&self) -> usize {
        self.recorded.len()
    }
}

impl LinkController for BfyzController {
    fn on_probe(&mut self, session: SessionId, demand: Rate, current: Rate, _now: SimTime) -> Rate {
        // Record what the source currently transmits at (bounded by what it
        // wants); a fresh session that has not adopted any rate yet is
        // recorded at its demand, which is what produces the transient
        // overshoot typical of this family.
        let recorded = if current > 0.0 { current } else { demand };
        self.recorded.insert(session, recorded.min(demand));
        self.advertised_rate()
    }

    fn on_leave(&mut self, session: SessionId) {
        self.recorded.remove(&session);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller() -> BfyzController {
        Bfyz::default().controller(100e6)
    }

    #[test]
    fn single_session_gets_the_full_capacity() {
        let mut c = controller();
        let adv = c.on_probe(SessionId(0), 1e9, 0.0, SimTime::ZERO);
        assert_eq!(adv, 100e6);
        assert_eq!(c.session_count(), 1);
    }

    #[test]
    fn equal_sessions_split_evenly() {
        let mut c = controller();
        c.on_probe(SessionId(0), 1e9, 0.0, SimTime::ZERO);
        c.on_probe(SessionId(1), 1e9, 0.0, SimTime::ZERO);
        let adv = c.on_probe(SessionId(2), 1e9, 0.0, SimTime::ZERO);
        assert!((adv - 100e6 / 3.0).abs() < 1.0);
    }

    #[test]
    fn sessions_restricted_elsewhere_release_their_share() {
        let mut c = controller();
        // Session 0 only uses 10 Mbps (restricted on another link).
        c.on_probe(SessionId(0), 1e9, 10e6, SimTime::ZERO);
        let adv = c.on_probe(SessionId(1), 1e9, 0.0, SimTime::ZERO);
        assert!((adv - 90e6).abs() < 1.0);
    }

    #[test]
    fn departures_free_capacity() {
        let mut c = controller();
        c.on_probe(SessionId(0), 1e9, 0.0, SimTime::ZERO);
        c.on_probe(SessionId(1), 1e9, 0.0, SimTime::ZERO);
        c.on_leave(SessionId(1));
        assert_eq!(c.session_count(), 1);
        assert_eq!(c.advertised_rate(), 100e6);
    }

    #[test]
    fn advertised_rate_of_an_idle_link_is_the_capacity() {
        let c = controller();
        assert_eq!(c.advertised_rate(), 100e6);
    }

    #[test]
    fn protocol_metadata() {
        let p = Bfyz::default();
        assert_eq!(p.name(), "BFYZ");
        assert_eq!(p.probe_interval(), Delay::from_millis(1));
    }
}
