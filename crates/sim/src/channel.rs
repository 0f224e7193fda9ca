//! Channels: the simulator's model of a directed network link.
//!
//! A channel has a bandwidth and a propagation delay. Messages sent through a
//! channel are serialized FIFO: each message occupies the transmitter for
//! `message_bits / bandwidth` seconds and then propagates for the channel's
//! propagation delay. This mirrors how the paper's modified Peersim models
//! "transmission and propagation times in the network links".

use crate::time::SimTime;
use bneck_net::Delay;
use std::fmt;

/// Identifier of a channel registered with an [`crate::Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ChannelId(pub u32);

impl ChannelId {
    /// Returns the identifier as an index usable with per-channel vectors.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

/// Static description of a channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelSpec {
    /// Bandwidth in bits per second used to compute transmission times.
    pub bandwidth_bps: f64,
    /// Propagation delay.
    pub propagation: Delay,
    /// Size, in bits, of a control packet sent over the channel.
    pub packet_bits: u64,
}

impl ChannelSpec {
    /// Creates a channel description.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_bps` is not strictly positive.
    pub fn new(bandwidth_bps: f64, propagation: Delay, packet_bits: u64) -> Self {
        assert!(
            bandwidth_bps > 0.0 && bandwidth_bps.is_finite(),
            "channel bandwidth must be positive and finite"
        );
        ChannelSpec {
            bandwidth_bps,
            propagation,
            packet_bits,
        }
    }

    /// The time needed to serialize one control packet onto the channel.
    pub fn transmission_delay(&self) -> Delay {
        let seconds = self.packet_bits as f64 / self.bandwidth_bps;
        Delay::from_nanos((seconds * 1e9).round() as u64)
    }
}

/// Runtime state of a channel (its FIFO transmitter).
#[derive(Debug, Clone)]
pub(crate) struct Channel {
    pub(crate) spec: ChannelSpec,
    /// The per-packet serialization time, precomputed from the spec so the
    /// per-send hot path performs no floating-point division.
    transmission: Delay,
    /// The earliest time at which the transmitter is free again.
    pub(crate) free_at: SimTime,
    /// Number of messages that have been sent through this channel.
    pub(crate) sent: u64,
}

impl Channel {
    pub(crate) fn new(spec: ChannelSpec) -> Self {
        Channel {
            spec,
            transmission: spec.transmission_delay(),
            free_at: SimTime::ZERO,
            sent: 0,
        }
    }

    /// One packet's full flight time (serialization plus propagation) — the
    /// unit of the fault injector's reorder jitter.
    pub(crate) fn flight(&self) -> Delay {
        self.transmission + self.spec.propagation
    }

    /// Computes the arrival time of a packet handed to the channel at `now`,
    /// updating the transmitter occupancy.
    pub(crate) fn accept(&mut self, now: SimTime) -> SimTime {
        let start = if self.free_at > now {
            self.free_at
        } else {
            now
        };
        let done = start + self.transmission;
        self.free_at = done;
        self.sent += 1;
        done + self.spec.propagation
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transmission_delay_is_bits_over_bandwidth() {
        // 1000 bits at 1 Mbps = 1 ms
        let spec = ChannelSpec::new(1e6, Delay::ZERO, 1000);
        assert_eq!(spec.transmission_delay(), Delay::from_millis(1));
    }

    #[test]
    fn fifo_serialization_backs_up() {
        let spec = ChannelSpec::new(1e6, Delay::from_micros(10), 1000);
        let mut ch = Channel::new(spec);
        // Two packets handed over at the same instant: the second waits for
        // the first to finish transmitting.
        let a = ch.accept(SimTime::ZERO);
        let b = ch.accept(SimTime::ZERO);
        assert_eq!(a, SimTime::from_micros(1_010));
        assert_eq!(b, SimTime::from_micros(2_010));
        assert_eq!(ch.sent, 2);
    }

    #[test]
    fn idle_channel_adds_only_tx_plus_propagation() {
        let spec = ChannelSpec::new(1e9, Delay::from_micros(5), 1000);
        let mut ch = Channel::new(spec);
        let arrival = ch.accept(SimTime::from_micros(100));
        // 1000 bits at 1 Gbps = 1 us
        assert_eq!(arrival, SimTime::from_micros(106));
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let _ = ChannelSpec::new(0.0, Delay::ZERO, 1);
    }

    #[test]
    fn display() {
        assert_eq!(ChannelId(4).to_string(), "ch4");
    }
}
