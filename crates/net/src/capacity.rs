//! Link capacity expressed in bits per second.

use std::fmt;
use std::ops::{Add, Div, Mul, Sub};

/// Bandwidth of a link (or an effective per-session rate bound) in bits per
/// second.
///
/// The paper configures 100 Mbps host links, 200 Mbps stub–stub links and
/// 500 Mbps transit links; rates computed by the protocols are fractions of
/// these values, so the underlying representation is an `f64`.
///
/// # Example
///
/// ```
/// use bneck_net::Capacity;
/// let c = Capacity::from_mbps(100.0);
/// assert_eq!(c.as_bps(), 100_000_000.0);
/// assert_eq!(c.as_mbps(), 100.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Capacity(f64);

impl Capacity {
    /// A zero capacity.
    pub const ZERO: Capacity = Capacity(0.0);

    /// An effectively unbounded capacity (used for "maximum rate ∞" requests).
    pub const INFINITE: Capacity = Capacity(f64::INFINITY);

    /// Creates a capacity from raw bits per second.
    ///
    /// # Panics
    ///
    /// Panics if `bps` is negative or NaN.
    pub(crate) fn from_bps(bps: f64) -> Self {
        assert!(!bps.is_nan() && bps >= 0.0, "capacity must be non-negative");
        Capacity(bps)
    }

    /// Creates a capacity from megabits per second.
    pub fn from_mbps(mbps: f64) -> Self {
        Self::from_bps(mbps * 1e6)
    }

    /// Creates a capacity from gigabits per second.
    pub fn from_gbps(gbps: f64) -> Self {
        Self::from_bps(gbps * 1e9)
    }

    /// Returns the capacity in bits per second.
    pub fn as_bps(self) -> f64 {
        self.0
    }

    /// Returns the capacity in megabits per second.
    pub fn as_mbps(self) -> f64 {
        self.0 / 1e6
    }

    /// Returns `true` if this capacity is unbounded.
    pub fn is_infinite(self) -> bool {
        self.0.is_infinite()
    }

    /// Returns the smaller of two capacities.
    pub fn min(self, other: Capacity) -> Capacity {
        Capacity(self.0.min(other.0))
    }

    /// Returns the larger of two capacities.
    pub fn max(self, other: Capacity) -> Capacity {
        Capacity(self.0.max(other.0))
    }
}

impl fmt::Display for Capacity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_infinite() {
            write!(f, "inf")
        } else if self.0 >= 1e9 {
            write!(f, "{:.3} Gbps", self.0 / 1e9)
        } else if self.0 >= 1e6 {
            write!(f, "{:.3} Mbps", self.0 / 1e6)
        } else if self.0 >= 1e3 {
            write!(f, "{:.3} Kbps", self.0 / 1e3)
        } else {
            write!(f, "{:.3} bps", self.0)
        }
    }
}

impl Add for Capacity {
    type Output = Capacity;
    fn add(self, rhs: Capacity) -> Capacity {
        Capacity(self.0 + rhs.0)
    }
}

impl Sub for Capacity {
    type Output = Capacity;
    fn sub(self, rhs: Capacity) -> Capacity {
        Capacity((self.0 - rhs.0).max(0.0))
    }
}

impl Mul<f64> for Capacity {
    type Output = Capacity;
    fn mul(self, rhs: f64) -> Capacity {
        Capacity(self.0 * rhs)
    }
}

impl Div<f64> for Capacity {
    type Output = Capacity;
    fn div(self, rhs: f64) -> Capacity {
        Capacity(self.0 / rhs)
    }
}

impl From<Capacity> for f64 {
    fn from(c: Capacity) -> f64 {
        c.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(Capacity::from_mbps(200.0).as_bps(), 2e8);
        assert_eq!(Capacity::from_gbps(1.0).as_mbps(), 1000.0);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(Capacity::from_mbps(100.0).to_string(), "100.000 Mbps");
        assert_eq!(Capacity::from_gbps(2.0).to_string(), "2.000 Gbps");
        assert_eq!(Capacity::from_bps(10.0).to_string(), "10.000 bps");
        assert_eq!(Capacity::INFINITE.to_string(), "inf");
    }

    #[test]
    fn arithmetic_is_saturating_on_subtraction() {
        let a = Capacity::from_mbps(10.0);
        let b = Capacity::from_mbps(30.0);
        assert_eq!((a - b).as_bps(), 0.0);
        assert_eq!((b - a).as_mbps(), 20.0);
        assert_eq!((a + b).as_mbps(), 40.0);
        assert_eq!((a * 2.0).as_mbps(), 20.0);
        assert_eq!((b / 3.0).as_mbps(), 10.0);
    }

    #[test]
    fn min_max_and_infinity() {
        let a = Capacity::from_mbps(10.0);
        assert_eq!(a.min(Capacity::INFINITE), a);
        assert_eq!(a.max(Capacity::ZERO), a);
        assert!(Capacity::INFINITE.is_infinite());
        assert!(!a.is_infinite());
    }

    #[test]
    #[should_panic(expected = "capacity must be non-negative")]
    fn negative_capacity_panics() {
        let _ = Capacity::from_bps(-1.0);
    }
}
