//! Propagation delay of a link, in nanoseconds.

use serde::Serialize;
use std::fmt;
use std::ops::{Add, Mul};

/// Propagation delay of a link.
///
/// Delays are stored with nanosecond granularity, which is fine enough for the
/// paper's two scenarios (1 µs LAN links and 1–10 ms WAN links) while keeping
/// simulated time exact and totally ordered.
///
/// # Example
///
/// ```
/// use bneck_net::Delay;
/// let d = Delay::from_micros(1);
/// assert_eq!(d.as_nanos(), 1_000);
/// assert_eq!(Delay::from_millis(10).as_micros(), 10_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct Delay(u64);

impl Delay {
    /// A zero delay.
    pub const ZERO: Delay = Delay(0);

    /// Creates a delay from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Delay(ns)
    }

    /// Creates a delay from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Delay(us * 1_000)
    }

    /// Creates a delay from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Delay(ms * 1_000_000)
    }

    /// Creates a delay from seconds.
    pub const fn from_secs(s: u64) -> Self {
        Delay(s * 1_000_000_000)
    }

    /// Returns the delay in nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the delay in whole microseconds (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Returns the delay in seconds as a floating point number.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }
}

impl fmt::Display for Delay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3} s", self.0 as f64 / 1e9)
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3} ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3} us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{} ns", self.0)
        }
    }
}

impl Add for Delay {
    type Output = Delay;
    fn add(self, rhs: Delay) -> Delay {
        Delay(self.0 + rhs.0)
    }
}

impl Mul<u64> for Delay {
    type Output = Delay;
    fn mul(self, rhs: u64) -> Delay {
        Delay(self.0 * rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions() {
        assert_eq!(Delay::from_micros(3).as_nanos(), 3_000);
        assert_eq!(Delay::from_millis(2).as_micros(), 2_000);
        assert_eq!(Delay::from_secs(1).as_nanos(), 1_000_000_000);
        assert!((Delay::from_millis(500).as_secs_f64() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ordering_and_arithmetic() {
        assert!(Delay::from_micros(1) < Delay::from_millis(1));
        assert_eq!(
            Delay::from_micros(1) + Delay::from_micros(2),
            Delay::from_micros(3)
        );
        assert_eq!(Delay::from_micros(2) * 3, Delay::from_micros(6));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(Delay::from_nanos(12).to_string(), "12 ns");
        assert_eq!(Delay::from_micros(5).to_string(), "5.000 us");
        assert_eq!(Delay::from_millis(7).to_string(), "7.000 ms");
        assert_eq!(Delay::from_secs(2).to_string(), "2.000 s");
    }
}
