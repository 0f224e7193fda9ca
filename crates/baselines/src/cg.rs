//! CG: the constant-state stabilizing baseline.
//!
//! Cobb and Gouda's "Stabilization of max-min fair networks without per-flow
//! state" computes max-min fair rates while storing only a constant amount of
//! information at each router. This re-implementation keeps, per link, just
//! two numbers: a smoothed estimate of how many sessions cross the link
//! (obtained by counting probe arrivals per measurement window) and the equal
//! share of the capacity derived from it.
//!
//! The constant-state estimate reacts slowly and only approximately tracks
//! the true session count, which is why (as in the paper's Experiment 3) this
//! baseline fails to converge to the exact max-min rates in a reasonable time
//! once more than a few hundred sessions are involved.

use crate::common::{BaselineProtocol, LinkController};
use bneck_maxmin::{Rate, SessionId};
use bneck_net::Delay;
use bneck_sim::SimTime;

/// The CG (Cobb–Gouda) baseline protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CobbGouda {
    /// Interval at which every source re-probes its path.
    pub probe_interval: Delay,
    /// Length of the per-link measurement window used to estimate the number
    /// of crossing sessions. Should be a small multiple of the probe
    /// interval.
    pub measurement_window: Delay,
    /// Exponential smoothing factor applied to the session-count estimate
    /// (0 = frozen, 1 = no smoothing).
    pub smoothing: f64,
}

impl Default for CobbGouda {
    fn default() -> Self {
        CobbGouda {
            probe_interval: Delay::from_millis(1),
            measurement_window: Delay::from_millis(2),
            smoothing: 0.5,
        }
    }
}

impl BaselineProtocol for CobbGouda {
    type Controller = CgController;

    fn name(&self) -> &'static str {
        "CG"
    }

    fn controller(&self, capacity: Rate) -> CgController {
        CgController {
            capacity,
            window: self.measurement_window,
            smoothing: self.smoothing,
            window_start: SimTime::ZERO,
            probes_in_window: 0,
            session_estimate: 1.0,
        }
    }

    fn probe_interval(&self) -> Delay {
        self.probe_interval
    }

    /// CG's constant-state equal-share estimate only approximates the
    /// max-min rates (the paper reports it failing to converge exactly); on
    /// multi-bottleneck instances its mean error can be large, so only a
    /// loose bound is documented and asserted.
    fn mean_error_tolerance_pct(&self) -> f64 {
        60.0
    }
}

/// Per-link state of CG: constant size, regardless of how many sessions cross
/// the link.
#[derive(Debug, Clone, Copy)]
pub struct CgController {
    capacity: Rate,
    window: Delay,
    smoothing: f64,
    window_start: SimTime,
    probes_in_window: u64,
    session_estimate: f64,
}

impl CgController {
    /// The rate the link currently advertises: an equal share of its capacity
    /// based on the session-count estimate.
    pub(crate) fn advertised_rate(&self) -> Rate {
        self.capacity / self.session_estimate.max(1.0)
    }
}

impl LinkController for CgController {
    fn on_probe(
        &mut self,
        _session: SessionId,
        _demand: Rate,
        _current: Rate,
        now: SimTime,
    ) -> Rate {
        if now.saturating_since(self.window_start) >= self.window {
            // With the default parameters every active session probes twice
            // per measurement window, so half the raw count estimates the
            // session count.
            let measured = self.probes_in_window as f64 * 0.5;
            self.session_estimate =
                (1.0 - self.smoothing) * self.session_estimate + self.smoothing * measured.max(1.0);
            self.probes_in_window = 0;
            self.window_start = now;
        }
        self.probes_in_window += 1;
        self.advertised_rate()
    }

    fn on_leave(&mut self, _session: SessionId) {
        // Constant state: nothing per-session to erase. The estimate decays as
        // fewer probes arrive in subsequent windows.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimate_tracks_the_number_of_probing_sessions() {
        let mut c = CobbGouda::default().controller(100e6);
        // Three sessions probing every millisecond for 20 ms.
        for ms in 0..20u64 {
            for s in 0..3u64 {
                c.on_probe(
                    SessionId(s),
                    1e9,
                    0.0,
                    SimTime::from_millis(ms) + Delay::from_micros(s),
                );
            }
        }
        assert!(
            c.session_estimate > 2.0,
            "estimate {} should approach the 3 probing sessions",
            c.session_estimate
        );
        // The advertised rate is roughly an equal share.
        assert!(c.advertised_rate() < 60e6);
        assert!(c.advertised_rate() > 20e6);
    }

    #[test]
    fn estimate_decays_after_sessions_stop_probing() {
        let mut c = CobbGouda::default().controller(100e6);
        for ms in 0..10u64 {
            for s in 0..4u64 {
                c.on_probe(SessionId(s), 1e9, 0.0, SimTime::from_millis(ms));
            }
        }
        let busy = c.session_estimate;
        // Only one session keeps probing afterwards.
        for ms in 10..40u64 {
            c.on_probe(SessionId(0), 1e9, 0.0, SimTime::from_millis(ms));
        }
        assert!(c.session_estimate < busy);
        c.on_leave(SessionId(0));
        assert!(c.advertised_rate() <= 100e6);
    }

    #[test]
    fn idle_link_advertises_its_capacity() {
        let c = CobbGouda::default().controller(100e6);
        assert_eq!(c.advertised_rate(), 100e6);
        assert_eq!(c.session_estimate, 1.0);
    }

    #[test]
    fn protocol_metadata() {
        let p = CobbGouda::default();
        assert_eq!(p.name(), "CG");
        assert_eq!(p.probe_interval(), Delay::from_millis(1));
    }
}
