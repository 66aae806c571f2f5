#![warn(missing_docs)]

//! Offline stand-in for the [`proptest`](https://docs.rs/proptest) crate.
//!
//! The build container for this workspace has no access to crates.io, so
//! the property tests link against this shim instead: it implements the
//! exact API subset the workspace uses (the `proptest!` macro, range /
//! tuple / collection / sample / bool strategies, `prop_assert!`,
//! `prop_assert_eq!` and `ProptestConfig`) on top of a small
//! deterministic splitmix64 generator.
//!
//! Differences from real proptest, by design:
//!
//! * **No shrinking** — a failing case panics with the case index and the
//!   test's RNG seed; re-running is deterministic, so the failure
//!   reproduces exactly, it just isn't minimized.
//! * **Deterministic seeding** — the RNG seed is derived from the test
//!   function's name, so runs are stable across processes and machines
//!   (no `PROPTEST_` environment handling).
//! * `prop_assert!`/`prop_assert_eq!` panic immediately instead of
//!   returning `TestCaseError`.

/// Deterministic test RNG (splitmix64).
pub mod test_runner {
    /// Run-shaping knobs (subset of proptest's `ProptestConfig`).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of generated cases per property.
        pub cases: u32,
        /// Accepted for source compatibility with real proptest; this
        /// shim never shrinks, so the value is ignored.
        pub max_shrink_iters: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            Self { cases: 64, max_shrink_iters: 0 }
        }
    }

    /// Deterministic generator handed to strategies.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds the generator from a test name (FNV-1a over the bytes),
        /// so every property has its own stable stream.
        pub fn from_name(name: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            Self { state: h | 1 }
        }

        /// Next raw 64-bit value.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, n)`; `n` must be nonzero.
        pub fn below(&mut self, n: u64) -> u64 {
            debug_assert!(n > 0);
            // Multiply-shift bound; bias is negligible for test sizes.
            ((self.next_u64() as u128 * n as u128) >> 64) as u64
        }

        /// Uniform float in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

/// The `Strategy` trait and implementations for ranges and tuples.
pub mod strategy {
    use crate::test_runner::TestRng;

    /// A recipe producing arbitrary values of `Self::Value`.
    pub trait Strategy {
        /// Type of the generated values.
        type Value;
        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end - self.start) as u64;
                    self.start + rng.below(span) as $t
                }
            }
        )*};
    }
    int_range_strategy!(u8, u16, u32, u64, usize);

    macro_rules! tuple_strategy {
        ($($s:ident/$v:ident),+) => {
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($v,)+) = self;
                    ($($v.generate(rng),)+)
                }
            }
        };
    }
    tuple_strategy!(A / a);
    tuple_strategy!(A / a, B / b);
    tuple_strategy!(A / a, B / b, C / c);
    tuple_strategy!(A / a, B / b, C / c, D / d);
}

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy for `Vec`s with element strategy `S` and a length range.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        elem: S,
        len: std::ops::Range<usize>,
    }

    /// `Vec` strategy: `len` elements drawn from `elem`.
    pub fn vec<S: Strategy>(elem: S, len: std::ops::Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end, "empty length range");
        VecStrategy { elem, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.len.end - self.len.start) as u64;
            let n = self.len.start + rng.below(span) as usize;
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

/// Sampling strategies (`prop::sample::select`).
pub mod sample {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Uniform choice from a fixed list.
    #[derive(Debug, Clone)]
    pub struct Select<T> {
        items: Vec<T>,
    }

    /// Strategy drawing uniformly from `items` (must be non-empty).
    pub fn select<T: Clone>(items: Vec<T>) -> Select<T> {
        assert!(!items.is_empty(), "select from empty list");
        Select { items }
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.items[rng.below(self.items.len() as u64) as usize].clone()
        }
    }
}

/// Boolean strategies (`prop::bool::ANY`, `prop::bool::weighted`).
pub mod bool {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Fair coin strategy.
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    /// Fair coin.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    /// Biased coin strategy.
    #[derive(Debug, Clone, Copy)]
    pub struct Weighted {
        p: f64,
    }

    /// `true` with probability `p`.
    pub fn weighted(p: f64) -> Weighted {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        Weighted { p }
    }

    impl Strategy for Weighted {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.unit_f64() < self.p
        }
    }
}

pub use test_runner::ProptestConfig;

/// Everything a property test needs, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, proptest};

    /// Namespace alias mirroring `proptest::prelude::prop`.
    pub mod prop {
        pub use crate::bool;
        pub use crate::collection;
        pub use crate::sample;
    }
}

/// Defines property tests: each `fn name(pat in strategy, ...)` runs
/// `config.cases` times with deterministically generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr) $($(#[$meta:meta])* fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::ProptestConfig = $cfg;
                let mut __rng =
                    $crate::test_runner::TestRng::from_name(concat!(module_path!(), "::", stringify!($name)));
                for __case in 0..__config.cases {
                    let __run = || {
                        $(let $pat = $crate::strategy::Strategy::generate(&($strat), &mut __rng);)+
                        $body
                    };
                    if let Err(p) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(__run)) {
                        eprintln!(
                            "proptest shim: {} failed at case {}/{} (deterministic; no shrinking)",
                            stringify!($name), __case + 1, __config.cases,
                        );
                        std::panic::resume_unwind(p);
                    }
                }
            }
        )*
    };
}

/// Asserts a condition inside a property (panics on failure).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property (panics on failure).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = crate::test_runner::TestRng::from_name("x");
        let mut b = crate::test_runner::TestRng::from_name("x");
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn below_is_in_range() {
        let mut rng = crate::test_runner::TestRng::from_name("below");
        for _ in 0..1000 {
            assert!(rng.below(7) < 7);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 50, ..ProptestConfig::default() })]

        /// Ranges honour their bounds.
        #[test]
        fn ranges_in_bounds(a in 3usize..17, b in 0u64..5) {
            prop_assert!((3..17).contains(&a));
            prop_assert!(b < 5);
        }

        /// Vec strategies honour their length range.
        #[test]
        fn vec_lengths(v in prop::collection::vec((0u64..10, prop::bool::ANY), 2..9)) {
            prop_assert!((2..9).contains(&v.len()));
            for (x, _) in v {
                prop_assert!(x < 10);
            }
        }

        /// Select only yields listed values.
        #[test]
        fn select_yields_members(x in prop::sample::select(vec![1usize, 2, 4, 8])) {
            prop_assert!([1usize, 2, 4, 8].contains(&x));
        }
    }

    proptest! {
        /// Config-less form uses the default case count.
        #[test]
        fn default_config_form(x in 0u32..3) {
            prop_assert!(x < 3);
        }
    }

    #[test]
    fn weighted_extremes() {
        let mut rng = crate::test_runner::TestRng::from_name("w");
        for _ in 0..100 {
            assert!(!crate::bool::weighted(0.0).generate(&mut rng));
            assert!(crate::bool::weighted(1.0).generate(&mut rng));
        }
    }
}
