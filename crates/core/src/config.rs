//! Configuration of a B-Neck simulation.

use crate::recovery::RecoveryConfig;
use bneck_maxmin::Tolerance;
use bneck_net::Delay;
#[cfg(feature = "serde")]
use serde::{Deserialize, Serialize};

/// Tunable parameters of a [`crate::harness::BneckSimulation`].
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub struct BneckConfig {
    /// Size of a control packet in bits, used to compute per-link transmission
    /// times (the paper models both transmission and propagation times).
    pub packet_bits: u64,
    /// Tolerance used for every rate comparison performed by the protocol.
    pub tolerance: Tolerance,
    /// When set, protocol packets travel inside sequenced, acknowledged and
    /// retransmitted frames (see [`crate::recovery`]), making the protocol
    /// correct over lossy, duplicating or reordering channels. `None` (the
    /// default) is paper mode: channels are assumed reliable and the hot path
    /// carries no recovery machinery.
    #[cfg_attr(feature = "serde", serde(default))]
    pub recovery: Option<RecoveryConfig>,
}

impl Default for BneckConfig {
    fn default() -> Self {
        BneckConfig {
            packet_bits: 256,
            tolerance: Tolerance::default(),
            recovery: None,
        }
    }
}

impl BneckConfig {
    /// Sets the control packet size in bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero.
    pub fn with_packet_bits(mut self, bits: u64) -> Self {
        assert!(bits > 0, "control packets must have a positive size");
        self.packet_bits = bits;
        self
    }

    /// Sets the rate-comparison tolerance.
    pub fn with_tolerance(mut self, tolerance: Tolerance) -> Self {
        self.tolerance = tolerance;
        self
    }

    /// Enables the recovery layer with the given retransmission timeout.
    ///
    /// # Panics
    ///
    /// Panics if `rto` is zero.
    pub fn with_recovery(mut self, rto: Delay) -> Self {
        self.recovery = Some(RecoveryConfig::with_rto(rto));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_values() {
        let c = BneckConfig::default();
        assert_eq!(c.packet_bits, 256);
        assert!(c.recovery.is_none());
    }

    #[test]
    fn recovery_builder_sets_the_rto() {
        let c = BneckConfig::default().with_recovery(Delay::from_micros(250));
        assert_eq!(c.recovery.unwrap().rto, Delay::from_micros(250));
    }

    #[test]
    fn builder_methods_compose() {
        let c = BneckConfig::default()
            .with_packet_bits(512)
            .with_tolerance(Tolerance::new(1e-6, 1.0));
        assert_eq!(c.packet_bits, 512);
        assert_eq!(c.tolerance, Tolerance::new(1e-6, 1.0));
    }

    #[test]
    #[should_panic(expected = "positive size")]
    fn zero_packet_size_rejected() {
        let _ = BneckConfig::default().with_packet_bits(0);
    }
}
