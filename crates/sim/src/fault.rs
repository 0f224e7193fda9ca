//! Seeded channel fault injection: drops, duplicates and delay jitter.
//!
//! The paper's correctness argument assumes reliable FIFO delivery between
//! tasks. A [`FaultPlan`] breaks that assumption on purpose: every message a
//! world sends through a channel rolls against seeded per-channel
//! probabilities and may be dropped, duplicated, or delayed by a bounded
//! jitter that lets later packets overtake it. The decisions are a stateless
//! hash of `(plan seed, channel id, per-channel send counter)` — no global
//! RNG, no wall clock — so a faulty run is bit-identical given the same
//! `(seed, plan)` regardless of thread count or repetition, and any single
//! packet's fate can be replayed exactly.
//!
//! Faults apply only to channel sends ([`crate::Context::send`]): timers and
//! externally injected API events model local computation, not network
//! delivery, and are never perturbed.

use serde::Serialize;

/// A seeded description of how unreliable every channel is.
///
/// Probabilities are per-send and independent; `reorder_window` bounds the
/// delay jitter in units of one packet flight time (transmission +
/// propagation), so a delayed packet can be overtaken by at most roughly
/// `reorder_window` later packets on the same channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed from which every per-packet decision is derived.
    pub seed: u64,
    /// Probability that a sent message is silently dropped (it still occupies
    /// the transmitter — the model is corruption at the receiver).
    pub drop: f64,
    /// Probability that a sent message is delivered twice (the copy is
    /// serialized again, so it arrives later than the original).
    pub duplicate: f64,
    /// Probability that a delivered message is held back by a jitter of
    /// 1..=`reorder_window` flight times, letting later traffic overtake it.
    pub reorder: f64,
    /// Upper bound of the delay jitter, in packet flight times.
    pub reorder_window: u32,
}

impl FaultPlan {
    /// Creates a plan, validating every probability.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 1]` or not finite, or if
    /// `reorder > 0` with a zero window.
    pub fn new(seed: u64, drop: f64, duplicate: f64, reorder: f64, reorder_window: u32) -> Self {
        for (name, p) in [
            ("drop", drop),
            ("duplicate", duplicate),
            ("reorder", reorder),
        ] {
            assert!(
                p.is_finite() && (0.0..=1.0).contains(&p),
                "{name} probability must be within [0, 1], got {p}"
            );
        }
        assert!(
            reorder == 0.0 || reorder_window > 0,
            "a non-zero reorder probability needs a non-zero window"
        );
        FaultPlan {
            seed,
            drop,
            duplicate,
            reorder,
            reorder_window,
        }
    }
}

/// Per-channel counters of the faults actually injected, for reports: a
/// failing faulty run must be diagnosable from its artifacts alone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct FaultCounters {
    /// Messages accepted by the transmitter but never delivered.
    pub dropped: u64,
    /// Extra copies delivered beyond the original send.
    pub duplicated: u64,
    /// Deliveries held back by a reorder jitter.
    pub delayed: u64,
}

impl FaultCounters {
    /// Sums another counter set into this one.
    pub(crate) fn absorb(&mut self, other: FaultCounters) {
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.delayed += other.delayed;
    }

    /// Total injected faults of any kind.
    pub fn total(&self) -> u64 {
        self.dropped + self.duplicated + self.delayed
    }
}

/// Distinct decision streams derived from one `(seed, channel, send)` triple,
/// so the drop, duplicate and jitter rolls of one packet are independent.
pub(crate) const SALT_DROP: u64 = 0x9E6D;
pub(crate) const SALT_DUP: u64 = 0xC2B2;
pub(crate) const SALT_REORDER: u64 = 0x1656;
pub(crate) const SALT_JITTER: u64 = 0x27D4;

/// A uniform draw in `[0, 1)` from a stateless splitmix64-style mix of the
/// plan seed, the channel and the channel's send counter.
pub(crate) fn roll(seed: u64, channel: u32, send: u64, salt: u64) -> f64 {
    (mix(seed, channel, send, salt) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A uniform draw in `1..=bound` for the jitter magnitude.
pub(crate) fn roll_window(seed: u64, channel: u32, send: u64, bound: u32) -> u64 {
    1 + mix(seed, channel, send, SALT_JITTER) % bound as u64
}

fn mix(seed: u64, channel: u32, send: u64, salt: u64) -> u64 {
    let mut x = seed
        ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (channel as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ send.wrapping_mul(0x94D0_49BB_1331_11EB);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The engine-side state of an active plan: the plan, the per-channel
/// injection counters, and the message clone function captured when the plan
/// was installed (so the engine's send path needs no `Clone` bound).
pub(crate) struct FaultState<M> {
    pub(crate) plan: FaultPlan,
    pub(crate) counters: Vec<FaultCounters>,
    pub(crate) clone: fn(&M) -> M,
}

impl<M> std::fmt::Debug for FaultState<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultState")
            .field("plan", &self.plan)
            .field("counters", &self.counters)
            .finish()
    }
}

impl<M> FaultState<M> {
    pub(crate) fn counters_mut(&mut self, channel: usize) -> &mut FaultCounters {
        if channel >= self.counters.len() {
            self.counters.resize(channel + 1, FaultCounters::default());
        }
        &mut self.counters[channel]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolls_are_deterministic_and_uniform_ish() {
        let a = roll(7, 3, 42, SALT_DROP);
        assert_eq!(a, roll(7, 3, 42, SALT_DROP));
        assert_ne!(a, roll(7, 3, 42, SALT_DUP), "salts decorrelate decisions");
        assert_ne!(a, roll(7, 3, 43, SALT_DROP), "sends decorrelate decisions");
        assert_ne!(a, roll(8, 3, 42, SALT_DROP), "seeds decorrelate decisions");
        let mean: f64 = (0..10_000).map(|i| roll(1, 0, i, SALT_DROP)).sum::<f64>() / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} is far from 0.5");
        assert!((0..10_000).all(|i| (0.0..1.0).contains(&roll(1, 0, i, SALT_DROP))));
    }

    #[test]
    fn window_rolls_stay_in_range() {
        for i in 0..1_000 {
            let w = roll_window(5, 2, i, 4);
            assert!((1..=4).contains(&w));
        }
        assert!((0..1_000).any(|i| roll_window(5, 2, i, 4) == 4));
    }

    #[test]
    fn plan_validation() {
        let plan = FaultPlan::new(1, 0.05, 0.01, 0.1, 4);
        assert_eq!(
            (plan.drop, plan.duplicate, plan.reorder, plan.reorder_window),
            (0.05, 0.01, 0.1, 4)
        );
        // No reorder probability needs no reorder window.
        assert_eq!(FaultPlan::new(1, 0.0, 0.0, 0.0, 0).reorder_window, 0);
    }

    #[test]
    #[should_panic(expected = "within [0, 1]")]
    fn out_of_range_probability_is_rejected() {
        let _ = FaultPlan::new(1, 1.5, 0.0, 0.0, 0);
    }

    #[test]
    #[should_panic(expected = "non-zero window")]
    fn reorder_without_window_is_rejected() {
        let _ = FaultPlan::new(1, 0.0, 0.0, 0.5, 0);
    }

    #[test]
    fn counters_absorb_and_total() {
        let mut a = FaultCounters {
            dropped: 1,
            duplicated: 2,
            delayed: 3,
        };
        a.absorb(FaultCounters {
            dropped: 10,
            duplicated: 20,
            delayed: 30,
        });
        assert_eq!(a.total(), 66);
    }
}
