//! Minimal offline stand-in for the `proptest` crate (see `shims/README.md`).
//!
//! Implements the strategy combinators and the `proptest!` macro surface this
//! workspace uses. Each test runs the configured number of random cases with
//! a deterministic per-test seed; failures report the generated inputs via
//! `Debug`. Counterexamples are **not** shrunk.

pub mod test_runner {
    //! Test execution support: config, RNG, case-level errors.

    /// Why a test case did not pass.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// The case was rejected by `prop_assume!` — skipped, not failed.
        Reject(String),
        /// The case failed an assertion.
        Fail(String),
    }

    impl TestCaseError {
        /// A failure with the given message.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError::Fail(msg.into())
        }
    }

    /// The message of a panic payload (`panic!` with a literal or with a
    /// format string), or a placeholder for any other payload.
    pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
        if let Some(s) = payload.downcast_ref::<&str>() {
            s
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s
        } else {
            "(non-string panic payload)"
        }
    }

    /// Configuration accepted by `#![proptest_config(..)]`.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of successful cases required.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    impl ProptestConfig {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    /// Deterministic SplitMix64 RNG used to drive generation.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// An RNG seeded from a test identifier (stable across runs).
        pub fn deterministic(name: &str) -> Self {
            // FNV-1a over the fully qualified test name.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            TestRng { state: h }
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, bound)` (`bound > 0`).
        pub fn below(&mut self, bound: u64) -> u64 {
            self.next_u64() % bound
        }

        /// Uniform value in `[lo, hi]` over i128 to cover all int widths.
        pub fn in_range(&mut self, lo: i128, hi: i128) -> i128 {
            debug_assert!(lo <= hi);
            let span = (hi - lo + 1) as u128;
            lo + (self.next_u64() as u128 % span) as i128
        }
    }
}

pub mod strategy {
    //! The [`Strategy`] trait and combinators.

    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// A generator of random values. Object safe; combinators require
    /// `Sized`.
    pub trait Strategy: 'static {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn gen_value(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<T, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> T + 'static,
        {
            Map {
                source: self,
                map: f,
            }
        }

        /// Generates a value, then generates from the strategy `f` returns.
        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S + 'static,
        {
            FlatMap {
                source: self,
                flat_map: f,
            }
        }

        /// Type-erases the strategy (used by `prop_oneof!`).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized,
        {
            Box::new(self)
        }
    }

    /// A type-erased strategy.
    pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

    impl<S: Strategy + ?Sized> Strategy for Box<S> {
        type Value = S::Value;
        fn gen_value(&self, rng: &mut TestRng) -> S::Value {
            (**self).gen_value(rng)
        }
    }

    /// Always generates a clone of the wrapped value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone + 'static>(pub T);

    impl<T: Clone + 'static> Strategy for Just<T> {
        type Value = T;
        fn gen_value(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Clone)]
    pub struct Map<S, F> {
        source: S,
        map: F,
    }

    impl<S, F, T> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> T + 'static,
        T: 'static,
    {
        type Value = T;
        fn gen_value(&self, rng: &mut TestRng) -> T {
            (self.map)(self.source.gen_value(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    #[derive(Clone)]
    pub struct FlatMap<S, F> {
        source: S,
        flat_map: F,
    }

    impl<S, F, S2> Strategy for FlatMap<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> S2 + 'static,
        S2: Strategy,
    {
        type Value = S2::Value;
        fn gen_value(&self, rng: &mut TestRng) -> S2::Value {
            (self.flat_map)(self.source.gen_value(rng)).gen_value(rng)
        }
    }

    /// Uniform choice between boxed alternatives (`prop_oneof!`).
    pub struct Union<T> {
        arms: Vec<BoxedStrategy<T>>,
    }

    impl<T: 'static> Union<T> {
        /// A union of the given arms (at least one).
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<T: 'static> Strategy for Union<T> {
        type Value = T;
        fn gen_value(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.arms.len() as u64) as usize;
            self.arms[i].gen_value(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn gen_value(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    rng.in_range(self.start as i128, self.end as i128 - 1) as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn gen_value(&self, rng: &mut TestRng) -> $t {
                    rng.in_range(*self.start() as i128, *self.end() as i128) as $t
                }
            }
        )*};
    }
    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! impl_tuple_strategy {
        ($($name:ident: $idx:tt),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn gen_value(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.gen_value(rng),)+)
                }
            }
        };
    }
    impl_tuple_strategy!(A: 0);
    impl_tuple_strategy!(A: 0, B: 1);
    impl_tuple_strategy!(A: 0, B: 1, C: 2);
    impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3);
    impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4);
    impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);

    /// `&'static str` literals act as string strategies over a regex-like
    /// subset: literal characters, `\x` escapes, `[a-z0-9_]` classes and
    /// `{m}` / `{m,n}` repetition of the preceding unit.
    impl Strategy for &'static str {
        type Value = String;
        fn gen_value(&self, rng: &mut TestRng) -> String {
            let units = parse_pattern(self);
            let mut out = String::new();
            for (chars, lo, hi) in &units {
                let n = rng.in_range(*lo as i128, *hi as i128) as usize;
                for _ in 0..n {
                    out.push(chars[rng.below(chars.len() as u64) as usize]);
                }
            }
            out
        }
    }

    /// Parses the supported regex subset into `(alternatives, min, max)`
    /// repetition units.
    fn parse_pattern(pattern: &str) -> Vec<(Vec<char>, u32, u32)> {
        let chars: Vec<char> = pattern.chars().collect();
        let mut units: Vec<(Vec<char>, u32, u32)> = Vec::new();
        let mut i = 0;
        while i < chars.len() {
            let set: Vec<char> = match chars[i] {
                '\\' => {
                    i += 1;
                    vec![*chars.get(i).expect("dangling escape in pattern")]
                }
                '[' => {
                    let mut set = Vec::new();
                    i += 1;
                    while i < chars.len() && chars[i] != ']' {
                        if chars[i] == '\\' {
                            i += 1;
                            set.push(chars[i]);
                        } else if i + 2 < chars.len() && chars[i + 1] == '-' && chars[i + 2] != ']'
                        {
                            let (a, b) = (chars[i], chars[i + 2]);
                            set.extend((a..=b).collect::<Vec<char>>());
                            i += 2;
                        } else {
                            set.push(chars[i]);
                        }
                        i += 1;
                    }
                    assert!(i < chars.len(), "unterminated class in `{pattern}`");
                    set
                }
                c => vec![c],
            };
            i += 1;
            // Optional quantifier.
            let (lo, hi) = if i < chars.len() && chars[i] == '{' {
                let close = chars[i..]
                    .iter()
                    .position(|&c| c == '}')
                    .expect("unterminated quantifier")
                    + i;
                let body: String = chars[i + 1..close].iter().collect();
                i = close + 1;
                match body.split_once(',') {
                    Some((a, b)) => (
                        a.trim().parse().expect("bad quantifier"),
                        b.trim().parse().expect("bad quantifier"),
                    ),
                    None => {
                        let n: u32 = body.trim().parse().expect("bad quantifier");
                        (n, n)
                    }
                }
            } else {
                (1, 1)
            };
            assert!(!set.is_empty(), "empty alternative set in `{pattern}`");
            units.push((set, lo, hi));
        }
        units
    }
}

pub mod collection {
    //! Collection strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::collections::BTreeSet;
    use std::ops::{Range, RangeInclusive};

    /// Size specifications accepted by [`vec()`] and [`btree_set`].
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// Generates `Vec`s of `element` with a size drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    #[derive(Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn gen_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = rng.in_range(self.size.lo as i128, self.size.hi as i128) as usize;
            (0..n).map(|_| self.element.gen_value(rng)).collect()
        }
    }

    /// Generates `BTreeSet`s of `element`; sizes are best-effort (duplicate
    /// draws shrink the set, as in real proptest's min-size-0 behaviour).
    pub fn btree_set<S>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`btree_set`].
    #[derive(Clone)]
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn gen_value(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let n = rng.in_range(self.size.lo as i128, self.size.hi as i128) as usize;
            (0..n).map(|_| self.element.gen_value(rng)).collect()
        }
    }
}

pub mod option {
    //! `Option` strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Generates `None` or `Some` (50/50) of the inner strategy.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// See [`of`].
    #[derive(Clone)]
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn gen_value(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.below(2) == 0 {
                None
            } else {
                Some(self.inner.gen_value(rng))
            }
        }
    }
}

/// Runs property tests: an optional `#![proptest_config(..)]` line followed
/// by `#[test]` functions whose arguments are `pattern in strategy` pairs.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $config;
                let mut rng = $crate::test_runner::TestRng::deterministic(
                    concat!(module_path!(), "::", stringify!($name)),
                );
                let mut passed: u32 = 0;
                let mut attempts: u32 = 0;
                let max_attempts = config.cases.saturating_mul(16).max(64);
                while passed < config.cases {
                    attempts += 1;
                    if attempts > max_attempts {
                        panic!(
                            "proptest {}: too many rejected cases ({} passed of {} wanted)",
                            stringify!($name), passed, config.cases
                        );
                    }
                    let __vals = ($($crate::strategy::Strategy::gen_value(&($strat), &mut rng),)+);
                    let __dbg = format!("{:#?}", __vals);
                    let ($($pat,)+) = __vals;
                    // A plain `assert!` or `panic!` in the body unwinds past
                    // the `prop_assert*` reporting: catch it, name the case,
                    // and resume the unwind with that message.
                    let __result: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        match ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(|| {
                            $body
                            #[allow(unreachable_code)]
                            Ok(())
                        })) {
                            Ok(result) => result,
                            Err(payload) => {
                                let msg = $crate::test_runner::panic_message(&*payload);
                                let report = format!(
                                    "proptest {} panicked at case {}: {}\ninputs: {}",
                                    stringify!($name), passed, msg, __dbg
                                );
                                eprintln!("{report}");
                                ::std::panic::resume_unwind(Box::new(report))
                            }
                        };
                    match __result {
                        Ok(()) => passed += 1,
                        Err($crate::test_runner::TestCaseError::Reject(_)) => {}
                        Err($crate::test_runner::TestCaseError::Fail(msg)) => panic!(
                            "proptest {} failed at case {}: {}\ninputs: {}",
                            stringify!($name), passed, msg, __dbg
                        ),
                    }
                }
            }
        )*
    };
    (
        $(
            $(#[$meta:meta])*
            fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $crate::proptest! {
            #![proptest_config($crate::test_runner::ProptestConfig::default())]
            $(
                $(#[$meta])*
                fn $name($($pat in $strat),+) $body
            )*
        }
    };
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Fails the current case unless the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!("assertion failed: `{:?}` == `{:?}`", l, r),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!("assertion failed: `{:?}` == `{:?}`: {}", l, r, format!($($fmt)+)),
            ));
        }
    }};
}

/// Fails the current case if the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(format!(
                "assertion failed: `{:?}` != `{:?}`",
                l, r
            )));
        }
    }};
}

/// Skips the current case unless `cond` holds (not counted as a failure).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(
                stringify!($cond).to_string(),
            ));
        }
    };
}

/// Uniform choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

pub mod prelude {
    //! One-stop imports mirroring `proptest::prelude`.

    pub use crate as prop;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// A plain `assert!` failure names the case: the unwind carries
        /// the test name, the case index and the generated inputs.
        #[test]
        #[should_panic(expected = "inputs:")]
        fn a_plain_assert_names_the_failing_case(x in 0u8..4) {
            assert!(x > 3, "x = {x}");
        }
    }
}
