//! Offline stand-in for the `proptest` crate, covering the subset of the API
//! this workspace's property suites use:
//!
//! * the [`proptest!`] macro with an optional
//!   `#![proptest_config(ProptestConfig::with_cases(n))]` header;
//! * `param in strategy` bindings where the strategy is an integer or float
//!   range, `proptest::bool::ANY`, a tuple of strategies, or
//!   `prop::collection::vec(strategy, len_range)`;
//! * [`prop_assert!`], [`prop_assert_eq!`] and [`prop_assume!`].
//!
//! Each test runs `cases` deterministic pseudo-random cases (seeded from the
//! test name and the case index, so failures are reproducible run-to-run).
//! Unlike the real proptest there is no shrinking: a failing case reports its
//! index and message and panics immediately. `prop_assume!` rejections simply
//! skip the case. Swapping the real `proptest` in is a one-line change in the
//! root manifest's `[workspace.dependencies]`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use core::ops::Range;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Per-test configuration (subset of `proptest::test_runner::ProptestConfig`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of pseudo-random cases to run per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Configuration running `cases` cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Why a test case did not pass (subset of `proptest::test_runner`).
#[derive(Debug)]
pub enum TestCaseError {
    /// An assertion failed; the test fails with this message.
    Fail(String),
    /// A `prop_assume!` precondition failed; the case is skipped.
    Reject(String),
}

/// The deterministic source of randomness handed to strategies.
#[derive(Debug, Clone)]
pub struct TestRng(SmallRng);

impl TestRng {
    /// Creates the RNG for one test case.
    pub fn new(test_name: &str, case: u64) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in test_name.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng(SmallRng::seed_from_u64(
            h ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ))
    }

    /// Access to the underlying generator.
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.0
    }
}

/// A generator of values for one test parameter.
pub trait Strategy {
    /// The type of values the strategy produces.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.rng().gen_range(self.start..self.end)
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, f32, f64);

macro_rules! tuple_strategy {
    ($(($($name:ident),+);)*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                #[allow(non_snake_case, reason = "the bindings reuse the strategy type parameters' names")]
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A, B);
    (A, B, C);
    (A, B, C, D);
}

/// A strategy that always yields clones of one value (`proptest::strategy::Just`).
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Boolean strategies (subset of `proptest::bool`).
pub mod bool {
    use super::{Strategy, TestRng};
    use rand::Rng;

    /// A strategy producing uniformly random booleans.
    #[derive(Debug, Clone, Copy)]
    pub struct AnyBool;

    /// Uniformly random booleans, mirroring `proptest::bool::ANY`.
    pub const ANY: AnyBool = AnyBool;

    impl Strategy for AnyBool {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.rng().gen_bool(0.5)
        }
    }
}

/// Collection strategies (subset of `proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use core::ops::Range;
    use rand::Rng;

    /// Strategy for `Vec`s with random length; see [`vec`](fn@vec).
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// A strategy producing vectors whose length is drawn from `len` and whose
    /// elements are drawn from `element`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = rng.rng().gen_range(self.len.start..self.len.end);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Runs the body of one generated test case; used by the [`proptest!`] macro.
pub fn run_cases<F>(test_name: &str, config: &ProptestConfig, mut case_fn: F)
where
    F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
{
    let mut rejected = 0u64;
    for case in 0..config.cases as u64 {
        let mut rng = TestRng::new(test_name, case);
        match case_fn(&mut rng) {
            Ok(()) => {}
            Err(TestCaseError::Reject(_)) => rejected += 1,
            Err(TestCaseError::Fail(msg)) => {
                panic!("proptest '{test_name}' failed at case {case}: {msg}")
            }
        }
    }
    if rejected == config.cases as u64 && config.cases > 0 {
        panic!("proptest '{test_name}': every case was rejected by prop_assume!");
    }
}

/// Declares property tests; mirrors `proptest::proptest!`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests! { ($crate::ProptestConfig::default()); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    (($cfg:expr); $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strategy:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            $crate::run_cases(stringify!($name), &config, |__proptest_rng| {
                $(let $arg = $crate::Strategy::generate(&($strategy), __proptest_rng);)+
                $body
                Ok(())
            });
        }
    )*};
}

/// Fails the current case; mirrors `proptest::prop_assert!`.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::Fail(format!($($fmt)+)));
        }
    };
}

/// Fails the current case unless the two values are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "assertion failed: {:?} != {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, $($fmt)+);
    }};
}

/// Skips the current case unless the precondition holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::Reject(
                stringify!($cond).to_string(),
            ));
        }
    };
}

/// Commonly used items, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assume, proptest, Just, ProptestConfig, Strategy,
        TestCaseError,
    };

    /// Module alias so `prop::collection::vec(...)` resolves, as re-exported
    /// by the real `proptest::prelude`.
    pub use crate as prop;
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_and_tuples_stay_in_bounds(
            n in 3usize..12,
            (a, b) in (0u64..100, 0.0f64..1.0),
            flag in crate::bool::ANY,
        ) {
            prop_assert!((3..12).contains(&n));
            prop_assert!(a < 100);
            prop_assert!((0.0..1.0).contains(&b));
            // Exercise the rejection path on roughly half the cases.
            prop_assume!(flag);
            prop_assert!(flag);
        }

        #[test]
        fn vec_strategy_respects_length(
            items in prop::collection::vec((0u64..10, 0u32..5), 1..20),
        ) {
            prop_assert!(!items.is_empty() && items.len() < 20);
            for (a, b) in &items {
                prop_assert!(*a < 10);
                prop_assert!(*b < 5);
            }
        }
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failing_property_panics() {
        crate::run_cases("always_fails", &ProptestConfig::with_cases(4), |_| {
            Err(TestCaseError::Fail("nope".into()))
        });
    }
}
