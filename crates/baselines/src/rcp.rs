//! RCP: the explicit congestion-controller baseline.
//!
//! RCP ("Processor sharing flows in the internet", Dukkipati et al.) keeps a
//! single advertised rate `R` per link, periodically updated with a
//! proportional control law driven by the measured aggregate input rate `y`:
//!
//! ```text
//! R ← R · (1 + α · (C − y) / C)
//! ```
//!
//! Every source uses the minimum `R` along its path. The controller needs no
//! per-session state and reaches processor-sharing (max-min on a single
//! bottleneck) rates in steady state, but it has to keep receiving traffic to
//! measure `y`, so it is inherently non-quiescent, and with heterogeneous
//! paths it only approximates the global max-min allocation — matching the
//! paper's observation that it fails to converge exactly for larger session
//! counts.

use crate::common::{BaselineProtocol, LinkController};
use bneck_maxmin::{Rate, SessionId};
use bneck_net::Delay;
use bneck_sim::SimTime;

/// The RCP baseline protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rcp {
    /// Interval at which every source re-probes its path.
    pub probe_interval: Delay,
    /// Control-law update period of every link.
    pub update_interval: Delay,
    /// Proportional gain `α` of the control law.
    pub alpha: f64,
    /// Initial advertised rate, as a fraction of the link capacity.
    pub initial_fraction: f64,
}

impl Default for Rcp {
    fn default() -> Self {
        Rcp {
            probe_interval: Delay::from_millis(1),
            update_interval: Delay::from_millis(1),
            alpha: 0.4,
            initial_fraction: 0.5,
        }
    }
}

impl BaselineProtocol for Rcp {
    type Controller = RcpController;

    fn name(&self) -> &'static str {
        "RCP"
    }

    fn controller(&self, capacity: Rate) -> RcpController {
        RcpController {
            capacity,
            alpha: self.alpha,
            update_interval: self.update_interval,
            rate: capacity * self.initial_fraction,
            last_update: SimTime::ZERO,
            offered_in_window: 0.0,
        }
    }

    fn probe_interval(&self) -> Delay {
        self.probe_interval
    }

    /// RCP's single-rate control law reaches processor sharing on one
    /// bottleneck but only approximates global max-min with heterogeneous
    /// paths (as the paper observes), so only a loose bound is documented
    /// and asserted.
    fn mean_error_tolerance_pct(&self) -> f64 {
        60.0
    }
}

/// Per-link state of RCP: one advertised rate plus the traffic measurement of
/// the current window — no per-session state.
#[derive(Debug, Clone, Copy)]
pub struct RcpController {
    capacity: Rate,
    alpha: f64,
    update_interval: Delay,
    rate: Rate,
    last_update: SimTime,
    offered_in_window: Rate,
}

impl LinkController for RcpController {
    fn on_probe(&mut self, _session: SessionId, demand: Rate, current: Rate, now: SimTime) -> Rate {
        // Aggregate offered load: each session contributes its current rate
        // once per probe interval (sessions that have not adopted a rate yet
        // contribute a fraction of their demand, as their first packets would).
        self.offered_in_window += if current > 0.0 { current } else { demand * 0.1 };
        if now.saturating_since(self.last_update) >= self.update_interval {
            let y = self.offered_in_window;
            let feedback = self.alpha * (self.capacity - y) / self.capacity;
            self.rate = (self.rate * (1.0 + feedback)).clamp(self.capacity * 1e-3, self.capacity);
            self.offered_in_window = 0.0;
            self.last_update = now;
        }
        self.rate
    }

    fn on_leave(&mut self, _session: SessionId) {
        // No per-session state to clean up; the measured load drops by itself.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_converges_towards_the_fair_share_of_one_bottleneck() {
        let mut c = Rcp::default().controller(100e6);
        // Two sessions probing every millisecond; their current rates follow
        // what the controller advertised in the previous round (as the real
        // sources would).
        let mut current = [0.0f64; 2];
        for ms in 1..200u64 {
            for (i, rate) in current.iter_mut().enumerate() {
                let adv = c.on_probe(
                    SessionId(i as u64),
                    100e6,
                    *rate,
                    SimTime::from_millis(ms) + Delay::from_micros(i as u64),
                );
                *rate = adv;
            }
        }
        let share = c.rate;
        assert!(
            (share - 50e6).abs() < 10e6,
            "advertised rate {share} should approach the 50 Mbps fair share"
        );
    }

    #[test]
    fn underload_raises_the_advertised_rate() {
        let mut c = Rcp::default().controller(100e6);
        let initial = c.rate;
        for ms in 1..20u64 {
            c.on_probe(SessionId(0), 100e6, 1e6, SimTime::from_millis(ms));
        }
        assert!(c.rate > initial);
    }

    #[test]
    fn overload_lowers_the_advertised_rate() {
        let mut c = Rcp::default().controller(100e6);
        let initial = c.rate;
        for ms in 1..20u64 {
            for s in 0..4u64 {
                c.on_probe(SessionId(s), 100e6, 80e6, SimTime::from_millis(ms));
            }
        }
        assert!(c.rate < initial);
        c.on_leave(SessionId(0));
    }

    #[test]
    fn advertised_rate_stays_within_bounds() {
        let mut c = Rcp::default().controller(100e6);
        for ms in 1..500u64 {
            for s in 0..16u64 {
                c.on_probe(SessionId(s), 100e6, 100e6, SimTime::from_millis(ms));
            }
        }
        assert!(c.rate >= 100e3);
        assert!(c.rate <= 100e6);
    }

    #[test]
    fn protocol_metadata() {
        let p = Rcp::default();
        assert_eq!(p.name(), "RCP");
        assert_eq!(p.probe_interval(), Delay::from_millis(1));
    }
}
