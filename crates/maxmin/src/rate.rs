//! Rates, rate limits and tolerance-aware comparisons.
//!
//! The B-Neck protocol compares rates for equality (for example "all sessions
//! restricted at this link have rate equal to the link's bottleneck rate").
//! With real arithmetic those comparisons are exact; with `f64` arithmetic the
//! order of summation can perturb the last bits, so every comparison in this
//! repository goes through a [`Tolerance`], a single policy point combining a
//! relative and an absolute epsilon.

use std::fmt;

/// A transmission rate in bits per second.
///
/// Rates are plain `f64`s; this alias documents intent in signatures.
pub type Rate = f64;

/// The maximum rate requested by a session (`r_s` in the paper), which may be
/// unlimited (the paper's "maximum rate ∞").
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct RateLimit(f64);

impl RateLimit {
    /// A session that does not cap its own rate.
    pub fn unlimited() -> Self {
        RateLimit(f64::INFINITY)
    }

    /// A session that requests at most `bps` bits per second.
    ///
    /// # Panics
    ///
    /// Panics if `bps` is not strictly positive and finite.
    pub fn finite(bps: f64) -> Self {
        assert!(
            bps.is_finite() && bps > 0.0,
            "a finite rate limit must be positive"
        );
        RateLimit(bps)
    }

    /// The limit in bits per second (`f64::INFINITY` when unlimited).
    pub fn as_bps(self) -> f64 {
        self.0
    }

    /// `true` when the session does not cap its own rate.
    pub fn is_unlimited(self) -> bool {
        self.0.is_infinite()
    }

    /// The effective demand given the capacity of the session's first link:
    /// `D_s = min(C_e, r_s)` (Section II of the paper).
    pub fn effective_demand(self, first_link_capacity: Rate) -> Rate {
        self.0.min(first_link_capacity)
    }
}

impl Default for RateLimit {
    fn default() -> Self {
        RateLimit::unlimited()
    }
}

impl fmt::Display for RateLimit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_infinite() {
            write!(f, "unlimited")
        } else {
            write!(f, "{:.3} Mbps", self.0 / 1e6)
        }
    }
}

/// Tolerance used when comparing rates.
///
/// Two rates `a` and `b` are considered equal when
/// `|a - b| <= abs + rel * max(|a|, |b|)`.
///
/// # Example
///
/// ```
/// use bneck_maxmin::Tolerance;
/// let tol = Tolerance::default();
/// assert!(tol.eq(1e8, 1e8 + 1e-3));
/// assert!(tol.lt(1e8, 2e8));
/// assert!(!tol.lt(1e8, 1e8 + 1e-3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    /// Relative epsilon.
    pub rel: f64,
    /// Absolute epsilon in bits per second.
    pub abs: f64,
}

impl Default for Tolerance {
    /// A tolerance suited to rates expressed in bits per second: one part in
    /// 10⁹ relative, and 10⁻³ bit/s absolute.
    fn default() -> Self {
        Tolerance {
            rel: 1e-9,
            abs: 1e-3,
        }
    }
}

impl Tolerance {
    /// Creates a tolerance with the given relative and absolute epsilons.
    ///
    /// # Panics
    ///
    /// Panics if either epsilon is negative or NaN.
    pub fn new(rel: f64, abs: f64) -> Self {
        assert!(rel >= 0.0 && abs >= 0.0, "epsilons must be non-negative");
        Tolerance { rel, abs }
    }

    /// A zero tolerance (exact comparisons). Useful in tests.
    pub fn exact() -> Self {
        Tolerance { rel: 0.0, abs: 0.0 }
    }

    fn margin(self, a: Rate, b: Rate) -> f64 {
        self.abs + self.rel * a.abs().max(b.abs())
    }

    /// `a` equals `b` within the tolerance.
    pub fn eq(self, a: Rate, b: Rate) -> bool {
        if a == b {
            // Covers infinities and exact equality.
            return true;
        }
        if !a.is_finite() || !b.is_finite() {
            // An infinite rate only equals another infinite rate of the same
            // sign (handled above); the margin would otherwise be infinite and
            // swallow every comparison.
            return false;
        }
        (a - b).abs() <= self.margin(a, b)
    }

    /// `a` differs from `b` by more than the tolerance.
    pub fn ne(self, a: Rate, b: Rate) -> bool {
        !self.eq(a, b)
    }

    /// `a` is strictly less than `b`, beyond the tolerance.
    pub fn lt(self, a: Rate, b: Rate) -> bool {
        if !a.is_finite() || !b.is_finite() {
            return a < b;
        }
        b - a > self.margin(a, b)
    }

    /// `a` is less than or tolerably equal to `b`.
    pub fn le(self, a: Rate, b: Rate) -> bool {
        !self.lt(b, a)
    }

    /// `a` is strictly greater than `b`, beyond the tolerance.
    pub fn gt(self, a: Rate, b: Rate) -> bool {
        self.lt(b, a)
    }

    /// `a` is greater than or tolerably equal to `b`.
    pub fn ge(self, a: Rate, b: Rate) -> bool {
        !self.lt(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_limit_basics() {
        let u = RateLimit::unlimited();
        assert!(u.is_unlimited());
        assert_eq!(u.to_string(), "unlimited");
        let f = RateLimit::finite(25e6);
        assert!(!f.is_unlimited());
        assert_eq!(f.as_bps(), 25e6);
        assert_eq!(f.to_string(), "25.000 Mbps");
        assert_eq!(RateLimit::default(), RateLimit::unlimited());
    }

    #[test]
    fn effective_demand_caps_at_first_link() {
        assert_eq!(RateLimit::unlimited().effective_demand(1e8), 1e8);
        assert_eq!(RateLimit::finite(5e7).effective_demand(1e8), 5e7);
        assert_eq!(RateLimit::finite(2e8).effective_demand(1e8), 1e8);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn non_positive_limit_rejected() {
        let _ = RateLimit::finite(0.0);
    }

    #[test]
    fn tolerant_equality() {
        let tol = Tolerance::default();
        assert!(tol.eq(1e8, 1e8));
        assert!(tol.eq(1e8, 1e8 * (1.0 + 1e-12)));
        assert!(!tol.eq(1e8, 1.001e8));
        assert!(tol.eq(f64::INFINITY, f64::INFINITY));
        assert!(tol.eq(0.0, 0.0));
    }

    #[test]
    fn tolerant_ordering_is_consistent() {
        let tol = Tolerance::default();
        let a = 1e8;
        let b = 1e8 * (1.0 + 1e-12); // equal within tolerance
        let c = 2e8;
        assert!(tol.le(a, b) && tol.ge(a, b));
        assert!(!tol.lt(a, b) && !tol.gt(a, b));
        assert!(tol.lt(a, c) && tol.gt(c, a));
        assert!(tol.le(a, c) && !tol.ge(a, c));
        assert!(tol.ne(a, c));
    }

    #[test]
    fn comparisons_with_infinity_are_strict() {
        let tol = Tolerance::default();
        assert!(tol.lt(1e8, f64::INFINITY));
        assert!(!tol.ge(1e8, f64::INFINITY));
        assert!(tol.gt(f64::INFINITY, 1e8));
        assert!(!tol.eq(1e8, f64::INFINITY));
        assert!(tol.eq(f64::INFINITY, f64::INFINITY));
        assert!(!tol.lt(f64::INFINITY, f64::INFINITY));
    }

    #[test]
    fn exact_tolerance_is_exact() {
        let tol = Tolerance::exact();
        assert!(tol.eq(1.0, 1.0));
        assert!(!tol.eq(1.0, 1.0 + f64::EPSILON));
        assert!(tol.lt(1.0, 1.0 + f64::EPSILON));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_epsilon_rejected() {
        let _ = Tolerance::new(-1.0, 0.0);
    }
}
