//! Offline API-compatible shim for the `proptest` crate.
//!
//! Implements the subset of the proptest 1.x API this workspace's property
//! tests use: the [`Strategy`](strategy::Strategy) trait with `prop_map` /
//! `prop_flat_map`, integer and float range strategies, tuple strategies,
//! [`collection::vec`] / [`collection::hash_set`], [`arbitrary::any`], and the
//! [`proptest!`] / [`prop_assert!`] macros.
//!
//! The headline difference from the real crate is **determinism**: instead of
//! OS-entropy seeding with failure-case persistence, every test derives its RNG
//! stream from an explicit seed in [`test_runner::ProptestConfig`] (workspace
//! convention `0xC1C1_0DE5`) combined with a stable hash of the test name. A
//! failing case therefore reproduces bit-for-bit on any machine. Shrinking is
//! not implemented; the failing inputs are reported via the panic message's
//! case index.

/// Strategies: composable recipes for generating test values.
pub mod strategy {
    use crate::test_runner::TestRng;
    use rand::Rng;

    /// A recipe for generating values of type `Value`.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value from `rng`.
        fn new_value(&self, rng: &mut TestRng) -> Self::Value;

        /// Transforms generated values with `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Generates an intermediate value, then draws from the strategy `f`
        /// builds from it.
        fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { inner: self, f }
        }

        /// Keeps only values satisfying `pred` (rejection sampling, giving up
        /// after 1000 tries like the real crate's local-reject limit).
        fn prop_filter<F: Fn(&Self::Value) -> bool>(
            self,
            whence: &'static str,
            pred: F,
        ) -> Filter<Self, F>
        where
            Self: Sized,
        {
            Filter {
                inner: self,
                pred,
                whence,
            }
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;

        fn new_value(&self, rng: &mut TestRng) -> Self::Value {
            (**self).new_value(rng)
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;

        fn new_value(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.new_value(rng))
        }
    }

    /// Strategy returned by [`Strategy::prop_flat_map`].
    #[derive(Debug, Clone)]
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
        type Value = S2::Value;

        fn new_value(&self, rng: &mut TestRng) -> Self::Value {
            (self.f)(self.inner.new_value(rng)).new_value(rng)
        }
    }

    /// Strategy returned by [`Strategy::prop_filter`].
    #[derive(Debug, Clone)]
    pub struct Filter<S, F> {
        inner: S,
        pred: F,
        whence: &'static str,
    }

    impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
        type Value = S::Value;

        fn new_value(&self, rng: &mut TestRng) -> Self::Value {
            for _ in 0..1000 {
                let v = self.inner.new_value(rng);
                if (self.pred)(&v) {
                    return v;
                }
            }
            panic!(
                "prop_filter rejected 1000 candidates in a row: {}",
                self.whence
            );
        }
    }

    /// A constant strategy (`Just` in the real crate).
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn new_value(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;

                fn new_value(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }

            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;

                fn new_value(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }
    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);

                #[allow(non_snake_case)]
                fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.new_value(rng),)+)
                }
            }
        };
    }
    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
    impl_tuple_strategy!(A, B, C, D, E, F);
}

/// `any::<T>()` — the "Standard distribution" entry point.
pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use core::marker::PhantomData;
    use rand::{Rng, Standard};

    /// Strategy returned by [`any`].
    #[derive(Debug)]
    pub struct AnyStrategy<T>(PhantomData<T>);

    impl<T> Clone for AnyStrategy<T> {
        fn clone(&self) -> Self {
            AnyStrategy(PhantomData)
        }
    }

    impl<T: Standard> Strategy for AnyStrategy<T> {
        type Value = T;

        fn new_value(&self, rng: &mut TestRng) -> T {
            rng.gen()
        }
    }

    /// Generates any value of `T` from its standard distribution.
    pub fn any<T: Standard>() -> AnyStrategy<T> {
        AnyStrategy(PhantomData)
    }
}

/// Collection strategies (`vec`, `hash_set`).
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;
    use std::collections::HashSet;
    use std::hash::Hash;

    /// A size argument: an exact count or a half-open / inclusive range.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        /// Inclusive upper bound.
        hi: usize,
    }

    impl SizeRange {
        fn sample(&self, rng: &mut TestRng) -> usize {
            rng.gen_range(self.lo..=self.hi)
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// Strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn new_value(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.size.sample(rng);
            (0..n).map(|_| self.element.new_value(rng)).collect()
        }
    }

    /// Generates a `Vec` whose length is drawn from `size` and whose elements
    /// are drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// Strategy returned by [`hash_set`].
    #[derive(Debug, Clone)]
    pub struct HashSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for HashSetStrategy<S>
    where
        S::Value: Hash + Eq,
    {
        type Value = HashSet<S::Value>;

        fn new_value(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.size.sample(rng);
            // Like the real crate, duplicates may leave the set below the
            // sampled size; we do not retry forever on small domains.
            let mut set = HashSet::with_capacity(n);
            for _ in 0..n.saturating_mul(4).max(n) {
                if set.len() >= n {
                    break;
                }
                set.insert(self.element.new_value(rng));
            }
            set
        }
    }

    /// Generates a `HashSet` with up to `size` elements drawn from `element`.
    pub fn hash_set<S: Strategy>(element: S, size: impl Into<SizeRange>) -> HashSetStrategy<S>
    where
        S::Value: Hash + Eq,
    {
        HashSetStrategy {
            element,
            size: size.into(),
        }
    }
}

/// Test-runner configuration and the deterministic RNG.
pub mod test_runner {
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// The workspace's default property-test seed (shared with `bench`).
    pub const DEFAULT_SEED: u64 = 0xC1C1_0DE5;

    /// Configuration for a `proptest!` block.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct ProptestConfig {
        /// Number of cases each test runs.
        pub cases: u32,
        /// Base RNG seed; each test's stream is this XOR a hash of its name.
        pub seed: u64,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig {
                cases: 256,
                seed: DEFAULT_SEED,
            }
        }
    }

    impl ProptestConfig {
        /// A config running `cases` cases per test (default seed).
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig {
                cases,
                ..Default::default()
            }
        }

        /// Overrides the base seed (builder style).
        pub fn with_seed(mut self, seed: u64) -> Self {
            self.seed = seed;
            self
        }
    }

    /// The deterministic RNG handed to strategies.
    #[derive(Debug, Clone)]
    pub struct TestRng(StdRng);

    impl TestRng {
        /// Derives the stream for one named test from the configured seed.
        pub fn for_test(seed: u64, test_name: &str) -> Self {
            // FNV-1a over the test name keeps streams distinct across tests
            // while staying stable across runs, hosts, and rustc versions.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in test_name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            TestRng(StdRng::seed_from_u64(seed ^ h))
        }
    }

    impl RngCore for TestRng {
        fn next_u64(&mut self) -> u64 {
            self.0.next_u64()
        }
    }
}

/// One-glob import of everything the `proptest!` macro and strategies need.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Asserts a condition inside a property test (panics with the case context).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

/// Asserts inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_ne!($a, $b, $($fmt)*) };
}

/// Declares deterministic property tests.
///
/// Supports the real crate's block form: an optional
/// `#![proptest_config(expr)]` header followed by `#[test] fn name(arg in
/// strategy, ...) { body }` items. Each test loops `config.cases` times,
/// drawing fresh inputs from a deterministic per-test RNG stream.
#[macro_export]
macro_rules! proptest {
    (@impl ($cfg:expr); $($(#[$meta:meta])* fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                let mut rng = $crate::test_runner::TestRng::for_test(config.seed, stringify!($name));
                for _case in 0..config.cases {
                    $(let $arg = $crate::strategy::Strategy::new_value(&($strat), &mut rng);)+
                    $body
                }
            }
        )*
    };
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@impl ($cfg); $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@impl ($crate::test_runner::ProptestConfig::default()); $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    #[test]
    fn streams_are_deterministic_per_test_name() {
        let strat = (0usize..100, 0.0f64..1.0);
        let mut a = TestRng::for_test(0xC1C1_0DE5, "some_test");
        let mut b = TestRng::for_test(0xC1C1_0DE5, "some_test");
        let mut c = TestRng::for_test(0xC1C1_0DE5, "other_test");
        let va: Vec<_> = (0..20).map(|_| strat.new_value(&mut a)).collect();
        let vb: Vec<_> = (0..20).map(|_| strat.new_value(&mut b)).collect();
        let vc: Vec<_> = (0..20).map(|_| strat.new_value(&mut c)).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64).with_seed(0xC1C1_0DE5))]

        #[test]
        fn ranges_stay_in_bounds(x in 3usize..17, y in 0.25f64..0.5) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((0.25..0.5).contains(&y));
        }

        #[test]
        fn vec_sizes_respect_range(v in crate::collection::vec(any::<bool>(), 2..9)) {
            prop_assert!(v.len() >= 2 && v.len() < 9);
        }

        #[test]
        fn flat_map_threads_dependencies(pair in (1usize..6).prop_flat_map(|n| {
            crate::collection::vec(0u8..2, n).prop_map(move |v| (n, v))
        })) {
            let (n, v) = pair;
            prop_assert_eq!(v.len(), n);
            prop_assert!(v.iter().all(|&b| b < 2));
        }

        #[test]
        fn hash_sets_bounded(s in crate::collection::hash_set((0usize..8, 0usize..8), 0..30)) {
            prop_assert!(s.len() < 30);
        }
    }
}
