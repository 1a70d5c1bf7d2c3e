//! Offline stand-in for the `proptest` crate (API subset).
//!
//! Implements the slice of proptest this repository's property tests
//! use: the [`Strategy`] trait with [`StrategyExt::prop_map`], range /
//! tuple / [`Just`] / [`prop_oneof!`] / `collection::vec` / `any::<T>()`
//! / `bool::ANY` strategies, the [`proptest!`] macro (with
//! `#![proptest_config(..)]`), the `prop_assert*` macros and
//! [`prop_assume!`].
//!
//! Differences from the real crate: the generator is a fixed-seed
//! SplitMix64 (fully deterministic across runs), and there is **no
//! shrinking** — a failing case reports its index and message only.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::ops::Range;

/// Test-runner plumbing: the deterministic RNG and failure type.
pub mod test_runner {
    /// Deterministic SplitMix64 generator driving all strategies.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// A fixed-seed generator (reproducible test streams).
        pub fn deterministic() -> Self {
            TestRng {
                state: 0x5EED_CAFE_F00D_BEEF,
            }
        }

        /// The next 64 uniformly random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// A uniform value in `[0, bound)`.
        pub fn below(&mut self, bound: u64) -> u64 {
            assert!(bound > 0, "empty range");
            self.next_u64() % bound
        }
    }
}

use test_runner::TestRng;

/// A failed property assertion (no shrinking: message only), or an
/// input rejected by [`prop_assume!`].
#[derive(Debug)]
pub struct TestCaseError {
    msg: String,
    reject: bool,
}

impl TestCaseError {
    /// Builds a failure from a message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError {
            msg: msg.into(),
            reject: false,
        }
    }

    /// Rejects the current input: it is discarded and another one
    /// drawn, without counting as a case.
    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError {
            msg: msg.into(),
            reject: true,
        }
    }

    /// Whether this is a rejection rather than a failure.
    pub fn is_reject(&self) -> bool {
        self.reject
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

/// Per-`proptest!` block configuration.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of accepted cases per property.
    pub cases: u32,
}

/// Rejected inputs ([`prop_assume!`]) tolerated before a property
/// fails (the real crate's default).
pub const MAX_GLOBAL_REJECTS: u32 = 1024;

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// A configuration running `cases` accepted inputs.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// A value generator (subset of `proptest::strategy::Strategy`).
///
/// Object safe: combinators live on [`StrategyExt`].
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

/// Combinators over [`Strategy`] (kept separate for object safety).
pub trait StrategyExt: Strategy + Sized {
    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F> {
        Map { inner: self, f }
    }
}

impl<S: Strategy + Sized> StrategyExt for S {}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        (**self).generate(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for Box<S> {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        (**self).generate(rng)
    }
}

/// The [`StrategyExt::prop_map`] adapter.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// A strategy producing one constant value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let span = (self.end as i128 - self.start as i128) as u128;
                assert!(span > 0, "empty range strategy");
                let v = (rng.next_u64() as u128) % span;
                (self.start as i128 + v as i128) as $t
            }
        }
    )*};
}

impl_range_strategy!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

macro_rules! impl_tuple_strategy {
    ($($s:ident . $idx:tt),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A.0);
impl_tuple_strategy!(A.0, B.1);
impl_tuple_strategy!(A.0, B.1, C.2);
impl_tuple_strategy!(A.0, B.1, C.2, D.3);
impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4);
impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5);

/// Types with a canonical whole-domain strategy (`any::<T>()`).
pub trait Arbitrary: Sized {
    /// Generates an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_uint {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_uint!(u8, u16, u32, u64, usize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// The `any::<T>()` strategy type.
pub struct Any<T> {
    #[doc(hidden)]
    pub _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Whole-domain strategy for `T` (subset of `proptest::arbitrary::any`).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

/// Uniform choice among boxed alternatives (built by [`prop_oneof!`]).
pub struct Union<T> {
    options: Vec<Box<dyn Strategy<Value = T>>>,
}

impl<T> Union<T> {
    /// Builds a union from its alternatives.
    pub fn new(options: Vec<Box<dyn Strategy<Value = T>>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one option");
        Union { options }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.options.len() as u64) as usize;
        self.options[i].generate(rng)
    }
}

/// Namespaced strategies mirroring `proptest::prop`.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::{Strategy, TestRng};
        use std::ops::Range;

        /// Strategy for `Vec<T>` with a length drawn from `len`.
        pub struct VecStrategy<S> {
            element: S,
            len: Range<usize>,
        }

        /// `Vec` strategy: elements from `element`, length in `len`.
        pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
            VecStrategy { element, len }
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let span = (self.len.end - self.len.start).max(1) as u64;
                let n = self.len.start + rng.below(span) as usize;
                (0..n).map(|_| self.element.generate(rng)).collect()
            }
        }
    }

    /// Boolean strategies.
    pub mod bool {
        use super::super::Any;

        /// The unconstrained boolean strategy.
        pub const ANY: Any<::core::primitive::bool> = Any {
            _marker: ::std::marker::PhantomData,
        };
    }
}

/// Everything a property test needs in scope.
pub mod prelude {
    pub use super::{
        any, prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Just, ProptestConfig, Strategy, StrategyExt, TestCaseError,
    };
}

/// Uniform choice among strategies of the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![ $(Box::new($strategy) as Box<dyn $crate::Strategy<Value = _>>),+ ])
    };
}

/// Asserts a condition inside a property, failing the current case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Rejects the current input unless `cond` holds: the case is drawn
/// again instead of failing.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::reject(concat!(
                "assumption failed: ",
                stringify!($cond)
            )));
        }
    };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "assertion failed: {:?} == {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: {:?} == {:?}: {}",
            l,
            r,
            format!($($fmt)+)
        );
    }};
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l != r, "assertion failed: {:?} != {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l != r,
            "assertion failed: {:?} != {:?}: {}",
            l,
            r,
            format!($($fmt)+)
        );
    }};
}

/// Declares property tests (subset of `proptest::proptest!`).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ($config:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            let mut rng = $crate::test_runner::TestRng::deterministic();
            let (mut case, mut rejects) = (0, 0);
            while case < config.cases {
                $(let $arg = $crate::Strategy::generate(&$strategy, &mut rng);)+
                let result = (|| -> ::core::result::Result<(), $crate::TestCaseError> {
                    $body
                    ::core::result::Result::Ok(())
                })();
                match result {
                    ::core::result::Result::Ok(()) => case += 1,
                    ::core::result::Result::Err(e) if e.is_reject() => {
                        rejects += 1;
                        assert!(
                            rejects <= $crate::MAX_GLOBAL_REJECTS,
                            "property {} rejected {rejects} inputs: {e}",
                            stringify!($name)
                        );
                    }
                    ::core::result::Result::Err(e) => {
                        panic!("property {} failed at case {case}: {e}", stringify!($name));
                    }
                }
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u64..17, v in prop::collection::vec(0u8..5, 1..9)) {
            prop_assert!((3..17).contains(&x));
            prop_assert!(!v.is_empty() && v.len() < 9);
            prop_assert!(v.iter().all(|e| *e < 5));
        }

        #[test]
        fn tuples_and_map(pair in (0i64..10, 0i64..10).prop_map(|(a, b)| a + b)) {
            prop_assert!((0..19).contains(&pair));
        }

        #[test]
        fn assumptions_redraw_inputs(x in 0u64..10) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0u64);
        }

        #[test]
        fn oneof_and_just(v in prop_oneof![Just(1u8), Just(2u8), Just(3u8)]) {
            prop_assert_ne!(v, 0u8);
            prop_assert!(v <= 3u8, "v={v}");
        }
    }

    #[test]
    fn generated_tests_run() {
        ranges_stay_in_bounds();
        tuples_and_map();
        assumptions_redraw_inputs();
        oneof_and_just();
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failures_panic() {
        proptest! {
            fn always_fails(x in 0u64..2) {
                prop_assert_eq!(x, 99u64);
            }
        }
        always_fails();
    }

    #[test]
    #[should_panic(expected = "rejected 1025 inputs")]
    fn endless_rejections_fail() {
        proptest! {
            fn never_holds(x in 0u64..2) {
                prop_assume!(x > 5);
            }
        }
        never_holds();
    }
}
