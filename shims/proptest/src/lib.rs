//! Offline stand-in for [`proptest`](https://crates.io/crates/proptest).
//!
//! The build environment has no crates-registry access, so this in-tree
//! shim provides the subset of proptest's API the workspace tests use:
//!
//! - `proptest! { ... }` with optional `#![proptest_config(...)]`
//! - `prop_assert!` / `prop_assert_eq!`
//! - numeric `Range` strategies, regex-lite `&str` strategies
//!   (`"[a-z]{1,16}"` char-class form), tuples up to 6 elements,
//!   `prop::collection::vec`, `prop::option::of`, `any::<T>()`,
//!   `.prop_map(...)`
//!
//! Differences from real proptest, by design: cases are generated from a
//! deterministic per-test seed (FNV of the test name + case index), there
//! is **no shrinking** (a failing case panics with the generated inputs'
//! case number), and the default case count is 64.

use std::fmt;
use std::marker::PhantomData;
use std::ops::Range;

// ---------------------------------------------------------------------------
// RNG: SplitMix64, deterministic per test name.
// ---------------------------------------------------------------------------

/// Deterministic RNG handed to strategies during generation.
pub struct TestRng {
    state: u64,
}

impl TestRng {
    pub fn new(seed: u64) -> Self {
        Self {
            state: seed ^ 0x5DEE_CE66_D1CE_4E5D,
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

fn fnv1a(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

// ---------------------------------------------------------------------------
// Core trait + config + error.
// ---------------------------------------------------------------------------

/// A value generator. Unlike real proptest there is no value tree or
/// shrinking: `generate` directly yields a case input.
pub trait Strategy {
    type Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

/// Strategies are generated through shared references inside the macro
/// expansion, so blanket-impl for references too.
impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

/// `.prop_map` adapter.
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

/// Per-test configuration; only `cases` is meaningful here.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

/// Error type returned by `prop_assert!` family via early `return`.
#[derive(Debug)]
pub enum TestCaseError {
    Fail(String),
    Reject(String),
}

impl TestCaseError {
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }
    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError::Reject(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestCaseError::Fail(m) => write!(f, "{m}"),
            TestCaseError::Reject(m) => write!(f, "rejected: {m}"),
        }
    }
}

/// Driver called by the `proptest!` expansion. Panics on the first
/// failing case, reporting the case index (inputs are reproducible from
/// the deterministic seed).
pub fn run_proptest<F>(name: &str, config: &ProptestConfig, mut case: F)
where
    F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
{
    let base = fnv1a(name);
    for i in 0..config.cases {
        let seed = base ^ (i as u64).wrapping_mul(0xA076_1D64_78BD_642F);
        let mut rng = TestRng::new(seed);
        match case(&mut rng) {
            Ok(()) | Err(TestCaseError::Reject(_)) => {}
            Err(TestCaseError::Fail(msg)) => {
                panic!(
                    "proptest `{name}` failed at case {}/{}: {msg}",
                    i + 1,
                    config.cases
                )
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Numeric range strategies.
// ---------------------------------------------------------------------------

macro_rules! impl_int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty integer range strategy");
                let span = (self.end as u128 - self.start as u128) as u64;
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
    )*};
}

impl_int_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! impl_signed_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty integer range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}

impl_signed_range_strategy!(i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

impl Strategy for Range<f32> {
    type Value = f32;
    fn generate(&self, rng: &mut TestRng) -> f32 {
        self.start + (rng.next_f64() as f32) * (self.end - self.start)
    }
}

// ---------------------------------------------------------------------------
// `any::<T>()`.
// ---------------------------------------------------------------------------

/// Types with a full-domain default strategy.
pub trait Arbitrary {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        // Finite, sign-symmetric; avoids NaN/inf which real proptest also
        // excludes by default.
        (rng.next_f64() - 0.5) * 2.0e12
    }
}

/// Strategy returned by [`any`].
pub struct AnyStrategy<T> {
    _marker: PhantomData<T>,
}

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy {
        _marker: PhantomData,
    }
}

// ---------------------------------------------------------------------------
// Regex-lite string strategies: `"[chars]{m,n}"`.
// ---------------------------------------------------------------------------

fn parse_char_class(pattern: &str) -> Option<(Vec<char>, usize, usize)> {
    let rest = pattern.strip_prefix('[')?;
    let close = rest.find(']')?;
    let class: Vec<char> = rest[..close].chars().collect();
    let counts = rest[close + 1..].strip_prefix('{')?.strip_suffix('}')?;
    let (min, max) = match counts.split_once(',') {
        Some((a, b)) => (a.parse().ok()?, b.parse().ok()?),
        None => {
            let n = counts.parse().ok()?;
            (n, n)
        }
    };

    let mut chars = Vec::new();
    let mut i = 0;
    while i < class.len() {
        // `a-z` range form: needs a char on both sides of the dash.
        if i + 2 < class.len() && class[i + 1] == '-' {
            let (lo, hi) = (class[i] as u32, class[i + 2] as u32);
            if lo <= hi {
                for c in lo..=hi {
                    if let Some(c) = char::from_u32(c) {
                        chars.push(c);
                    }
                }
                i += 3;
                continue;
            }
        }
        chars.push(class[i]);
        i += 1;
    }
    if chars.is_empty() {
        return None;
    }
    Some((chars, min, max))
}

impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        match parse_char_class(self) {
            Some((chars, min, max)) => {
                let len = min + rng.below((max - min + 1) as u64) as usize;
                (0..len)
                    .map(|_| chars[rng.below(chars.len() as u64) as usize])
                    .collect()
            }
            // Not a `[...]{m,n}` pattern: treat as a literal constant.
            None => (*self).to_string(),
        }
    }
}

impl Strategy for String {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        self.as_str().generate(rng)
    }
}

// ---------------------------------------------------------------------------
// Tuple strategies (2..=6).
// ---------------------------------------------------------------------------

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);

// ---------------------------------------------------------------------------
// Constant strategy (`Just`).
// ---------------------------------------------------------------------------

/// Always yields a clone of the wrapped value.
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

// ---------------------------------------------------------------------------
// `prop::` namespace: collections and options.
// ---------------------------------------------------------------------------

pub mod prop {
    pub mod collection {
        use super::super::{Strategy, TestRng};
        use std::ops::{Range, RangeInclusive};

        /// Length bound accepted by [`vec`]: a range or an exact count.
        pub struct SizeRange {
            min: usize,
            max: usize, // inclusive
        }

        impl From<Range<usize>> for SizeRange {
            fn from(r: Range<usize>) -> Self {
                assert!(r.start < r.end, "empty vec length range");
                Self {
                    min: r.start,
                    max: r.end - 1,
                }
            }
        }

        impl From<RangeInclusive<usize>> for SizeRange {
            fn from(r: RangeInclusive<usize>) -> Self {
                Self {
                    min: *r.start(),
                    max: *r.end(),
                }
            }
        }

        impl From<usize> for SizeRange {
            fn from(n: usize) -> Self {
                Self { min: n, max: n }
            }
        }

        pub struct VecStrategy<S> {
            elem: S,
            size: SizeRange,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let len =
                    self.size.min + rng.below((self.size.max - self.size.min + 1) as u64) as usize;
                (0..len).map(|_| self.elem.generate(rng)).collect()
            }
        }

        pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                elem,
                size: size.into(),
            }
        }
    }

    pub mod option {
        use super::super::{Strategy, TestRng};

        pub struct OptionStrategy<S> {
            inner: S,
        }

        impl<S: Strategy> Strategy for OptionStrategy<S> {
            type Value = Option<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
                // Real proptest defaults to ~75% Some.
                if rng.below(4) == 0 {
                    None
                } else {
                    Some(self.inner.generate(rng))
                }
            }
        }

        pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
            OptionStrategy { inner }
        }
    }
}

// ---------------------------------------------------------------------------
// Macros.
// ---------------------------------------------------------------------------

/// Defines functions whose arguments are drawn from strategies. As in the
/// real crate, the macro adds no `#[test]`: each function writes its own,
/// so every property is registered once.
///
/// Supported grammar (the subset this workspace uses):
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(32))]
///     /// doc comments and attributes carry through
///     #[test]
///     fn my_test(x in 0u32..10, (a, b) in (0f64..1.0, any::<bool>())) {
///         prop_assert!(x < 10);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($config:expr)) => {};
    (($config:expr)
     $(#[$meta:meta])*
     fn $name:ident($($pat:pat_param in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let __config = $config;
            $crate::run_proptest(stringify!($name), &__config, |__rng| {
                $(let $pat = $crate::Strategy::generate(&($strat), __rng);)+
                let mut __case = || -> ::std::result::Result<(), $crate::TestCaseError> {
                    $body
                    #[allow(unreachable_code)]
                    ::std::result::Result::Ok(())
                };
                __case()
            });
        }
        $crate::__proptest_fns! { ($config) $($rest)* }
    };
}

/// Assert inside a `proptest!` body; on failure the case returns an error
/// (reported with the case index) instead of unwinding mid-generation.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} ({}:{})",
                stringify!($cond), file!(), line!()
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} ({}:{}): {}",
                stringify!($cond), file!(), line!(), format!($($fmt)+)
            )));
        }
    };
}

/// Equality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let __l = $left;
        let __r = $right;
        if !(__l == __r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} == {}` ({}:{})\n  left: {:?}\n right: {:?}",
                stringify!($left), stringify!($right), file!(), line!(), __l, __r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let __l = $left;
        let __r = $right;
        if !(__l == __r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} == {}` ({}:{}): {}\n  left: {:?}\n right: {:?}",
                stringify!($left), stringify!($right), file!(), line!(),
                format!($($fmt)+), __l, __r
            )));
        }
    }};
}

/// Inequality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let __l = $left;
        let __r = $right;
        if __l == __r {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} != {}` ({}:{})\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                file!(),
                line!(),
                __l
            )));
        }
    }};
}

// ---------------------------------------------------------------------------
// Prelude.
// ---------------------------------------------------------------------------

pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Arbitrary, Just,
        ProptestConfig, Strategy, TestCaseError,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Ranges respect their bounds.
        #[test]
        fn int_range_in_bounds(x in 3u64..17) {
            prop_assert!((3..17).contains(&x));
        }

        #[test]
        fn f64_range_in_bounds(x in -1e3f64..1e3) {
            prop_assert!((-1e3..1e3).contains(&x), "got {}", x);
        }

        #[test]
        fn string_class_respects_len(s in "[a-z_]{1,16}") {
            prop_assert!(!s.is_empty() && s.len() <= 16);
            prop_assert!(s.chars().all(|c| c == '_' || c.is_ascii_lowercase()));
        }

        #[test]
        fn tuples_and_vec((a, b) in (0u8..6, 0u16..3), v in prop::collection::vec(0u32..100, 0usize..8)) {
            prop_assert!(a < 6 && b < 3);
            prop_assert!(v.len() < 8);
            prop_assert!(v.iter().all(|&x| x < 100));
        }

        #[test]
        fn option_and_map(o in prop::option::of(1u64..10), m in (0u8..4).prop_map(|x| x * 2)) {
            if let Some(x) = o {
                prop_assert!((1..10).contains(&x));
            }
            prop_assert_eq!(m % 2, 0);
        }
    }

    #[test]
    fn determinism() {
        let mut a = crate::TestRng::new(42);
        let mut b = crate::TestRng::new(42);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failing_case_panics_with_index() {
        crate::run_proptest("always_fails", &ProptestConfig::with_cases(3), |_rng| {
            Err(TestCaseError::fail("nope"))
        });
    }
}
