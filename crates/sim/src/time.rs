//! Simulated time.

use bneck_net::Delay;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, with nanosecond resolution.
///
/// Simulated time starts at [`SimTime::ZERO`] and only moves forward. Adding a
/// [`Delay`] (a duration) produces a later `SimTime`; subtracting two
/// `SimTime`s produces the `Delay` between them.
///
/// # Example
///
/// ```
/// use bneck_sim::SimTime;
/// use bneck_net::Delay;
///
/// let t = SimTime::ZERO + Delay::from_millis(3);
/// assert_eq!(t.as_micros(), 3_000);
/// assert_eq!(t - SimTime::from_micros(1_000), Delay::from_millis(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable time; useful as "never" / horizon sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from nanoseconds since the start of the simulation.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates a time from microseconds since the start of the simulation.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates a time from milliseconds since the start of the simulation.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates a time from seconds since the start of the simulation.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Nanoseconds since the start of the simulation.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds since the start of the simulation (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole milliseconds since the start of the simulation (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds since the start of the simulation, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The elapsed time since `earlier`, saturating to zero if `earlier` is
    /// actually later than `self`.
    pub fn saturating_since(self, earlier: SimTime) -> Delay {
        Delay::from_nanos(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 == u64::MAX {
            write!(f, "t=inf")
        } else {
            write!(f, "t={:.3}us", self.0 as f64 / 1e3)
        }
    }
}

impl Add<Delay> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Delay) -> SimTime {
        SimTime(self.0 + rhs.as_nanos())
    }
}

impl AddAssign<Delay> for SimTime {
    fn add_assign(&mut self, rhs: Delay) {
        self.0 += rhs.as_nanos();
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Delay;
    fn sub(self, rhs: SimTime) -> Delay {
        assert!(self.0 >= rhs.0, "cannot subtract a later time");
        Delay::from_nanos(self.0 - rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        assert_eq!(SimTime::from_millis(2).as_micros(), 2_000);
        assert_eq!(SimTime::from_secs(1).as_millis(), 1_000);
        assert_eq!(SimTime::from_micros(5).as_nanos(), 5_000);
        assert!((SimTime::from_millis(250).as_secs_f64() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_micros(10) + Delay::from_micros(5);
        assert_eq!(t, SimTime::from_micros(15));
        assert_eq!(t - SimTime::from_micros(10), Delay::from_micros(5));
        let mut u = SimTime::ZERO;
        u += Delay::from_millis(1);
        assert_eq!(u, SimTime::from_millis(1));
    }

    #[test]
    fn saturating_since_does_not_underflow() {
        let a = SimTime::from_micros(5);
        let b = SimTime::from_micros(9);
        assert_eq!(b.saturating_since(a), Delay::from_micros(4));
        assert_eq!(a.saturating_since(b), Delay::ZERO);
    }

    #[test]
    #[should_panic(expected = "cannot subtract a later time")]
    fn subtracting_later_time_panics() {
        let _ = SimTime::from_micros(1) - SimTime::from_micros(2);
    }

    #[test]
    fn display() {
        assert_eq!(SimTime::from_micros(1500).to_string(), "t=1500.000us");
        assert_eq!(SimTime::MAX.to_string(), "t=inf");
    }
}
