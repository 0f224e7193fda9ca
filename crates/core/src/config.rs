//! Configuration of a B-Neck simulation.

use bneck_net::Delay;

/// Tunable parameters of a [`crate::harness::BneckSimulation`].
///
/// What the paper's §IV evaluation holds fixed is a constant, not a field:
/// every control packet is
/// [`CONTROL_PACKET_BITS`](crate::world::CONTROL_PACKET_BITS) long, and every
/// rate comparison uses the default [`Tolerance`](bneck_maxmin::Tolerance).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BneckConfig {
    /// When set, protocol packets travel inside sequenced, acknowledged and
    /// retransmitted frames (see [`crate::recovery`]), each resent this
    /// retransmission timeout after its last transmission until acked,
    /// making the protocol correct over lossy, duplicating or reordering
    /// channels. `None` (the default) is paper mode: channels are assumed
    /// reliable and the hot path carries no recovery machinery.
    pub recovery: Option<Delay>,
}

impl BneckConfig {
    /// Enables the recovery layer with the given retransmission timeout. It
    /// must comfortably exceed one data + ack round trip of the slowest lane,
    /// or spurious retransmissions (harmless but wasteful) pile up.
    ///
    /// # Panics
    ///
    /// Panics if `rto` is zero (a zero timeout would retransmit in the same
    /// instant the frame is sent).
    pub fn with_recovery(mut self, rto: Delay) -> Self {
        assert!(
            rto > Delay::ZERO,
            "the retransmission timeout must be positive"
        );
        self.recovery = Some(rto);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_values() {
        let c = BneckConfig::default();
        assert!(c.recovery.is_none());
    }

    #[test]
    fn recovery_builder_sets_the_rto() {
        let c = BneckConfig::default().with_recovery(Delay::from_micros(250));
        assert_eq!(c.recovery, Some(Delay::from_micros(250)));
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_rto_is_rejected() {
        let _ = BneckConfig::default().with_recovery(Delay::ZERO);
    }
}
