//! Offline shim for the subset of `proptest` this workspace uses.
//!
//! Each `proptest!` test runs `ProptestConfig::cases` random cases generated
//! from a fixed per-test seed (derived from the test's name), so failures are
//! reproducible run-to-run. Unlike real proptest there is **no shrinking**:
//! a failing case reports its case index and inputs via the panic message of
//! the underlying `assert!`.
//!
//! Supported strategy surface: integer and float ranges, `any::<T>()`,
//! `proptest::bool::ANY`, tuples of strategies, `collection::vec`, and
//! `.prop_map`.

#![forbid(unsafe_code)]

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The RNG handed to strategies.
pub type TestRng = ChaCha8Rng;

/// Runtime configuration for a `proptest!` block.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// A generator of random values.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<F, O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

/// Result of [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, F: Fn(S::Value) -> O, O> Strategy for Map<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                use rand::Rng;
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                use rand::Rng;
                rng.gen_range(self.clone())
            }
        }
    )*};
}
range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

/// Strategy produced by [`any`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Any<T>(core::marker::PhantomData<T>);

/// The "any value" strategy for primitive types.
pub fn any<T>() -> Any<T>
where
    Any<T>: Strategy<Value = T>,
{
    Any(core::marker::PhantomData)
}

macro_rules! any_via_standard {
    ($($t:ty),*) => {$(
        impl Strategy for Any<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                use rand::Rng;
                rng.gen()
            }
        }
    )*};
}
any_via_standard!(bool, u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64, f32);

pub mod bool {
    //! Boolean strategies.

    /// A fair coin.
    #[derive(Debug, Clone, Copy)]
    pub struct BoolAny;

    /// The fair-coin strategy, mirroring `proptest::bool::ANY`.
    pub const ANY: BoolAny = BoolAny;

    impl super::Strategy for BoolAny {
        type Value = bool;

        fn generate(&self, rng: &mut super::TestRng) -> bool {
            use rand::Rng;
            rng.gen()
        }
    }
}

macro_rules! tuple_strategy {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}
tuple_strategy!((A: 0, B: 1)(A: 0, B: 1, C: 2)(A: 0, B: 1, C: 2, D: 3));

pub mod collection {
    //! Collection strategies.

    use super::{Strategy, TestRng};

    /// Accepted size specifications for [`vec()`]: a fixed length, a half-open
    /// range or an inclusive range.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi_exclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                lo: n,
                hi_exclusive: n + 1,
            }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            SizeRange {
                lo: r.start,
                hi_exclusive: r.end,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi_exclusive: r.end() + 1,
            }
        }
    }

    /// Strategy for `Vec`s with random length in `len` and elements from
    /// `element`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: SizeRange,
    }

    /// Generates vectors whose length is drawn from `len`.
    pub fn vec<S: Strategy>(element: S, len: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            len: len.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            use rand::Rng;
            let n = rng.gen_range(self.len.lo..self.len.hi_exclusive);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Creates the per-case RNG (used by the `proptest!` expansion so test
/// crates do not need their own `rand` dependency).
pub fn new_rng(seed: u64) -> TestRng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// Derives a stable 64-bit seed from a test name.
pub fn seed_from_name(name: &str) -> u64 {
    // FNV-1a.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

pub mod prelude {
    //! Glob-import surface mirroring `proptest::prelude`.
    pub use crate::{any, prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy};
}

/// Property assertion; panics (failing the test case) when false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond);
    };
    ($cond:expr, $($fmt:tt)*) => {
        assert!($cond, $($fmt)*);
    };
}

/// Property equality assertion.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {
        assert_eq!($a, $b);
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_eq!($a, $b, $($fmt)*);
    };
}

/// The property-test entry macro: wraps each `fn` in a `#[test]` that runs
/// `config.cases` random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr); $(
        $(#[$meta:meta])*
        fn $name:ident ( $( $pat:pat_param in $strat:expr ),+ $(,)? ) $body:block
    )*) => {$(
        #[test]
        fn $name() {
            use $crate::Strategy as _;
            let config: $crate::ProptestConfig = $cfg;
            let seed = $crate::seed_from_name(concat!(module_path!(), "::", stringify!($name)));
            for case in 0..config.cases {
                let mut __proptest_rng =
                    $crate::new_rng(seed ^ ((case as u64) << 32) ^ case as u64);
                $( let $pat = ($strat).generate(&mut __proptest_rng); )+
                // Run the body in a closure returning Result so user code may
                // `return Ok(())` for early case acceptance, like real proptest.
                let __proptest_outcome: ::core::result::Result<(), ::core::convert::Infallible> =
                    (move || {
                        $body
                        #[allow(unreachable_code)]
                        ::core::result::Result::Ok(())
                    })();
                drop(__proptest_outcome);
            }
        }
    )*};
}
