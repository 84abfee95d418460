//! A small property-testing runner: strategies generate random values,
//! failing cases are shrunk to a minimal counterexample, and every failure
//! prints the exact seed that reproduces it.
//!
//! Environment overrides:
//!
//! * `SCFLOW_PROPTEST_CASES` — number of cases per property.
//! * `SCFLOW_PROPTEST_SEED` — base seed (decimal or `0x` hex); case 0 uses
//!   exactly this seed, so a printed failure seed plus `CASES=1` replays
//!   the failing case.
//!
//! ```
//! use scflow_testkit::prop::{check, ints, vecs, StrategyExt};
//!
//! check("sum is order independent", &vecs(ints(0u32..=100), 0..=20), |v| {
//!     let mut rev = v.clone();
//!     rev.reverse();
//!     scflow_testkit::prop_assert_eq!(v.iter().sum::<u32>(), rev.iter().sum::<u32>());
//!     Ok(())
//! });
//! ```

use crate::rng::{splitmix64, Rng};
use std::cell::Cell;
use std::fmt::Debug;
use std::ops::RangeInclusive;
use std::panic::AssertUnwindSafe;
use std::sync::Once;

/// What a property returns: `Ok(())` or a failure message.
pub type TestResult = Result<(), String>;

/// Fails the enclosing property unless the condition holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {} ({}:{})",
                stringify!($cond),
                file!(),
                line!()
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!($($fmt)+));
        }
    };
}

/// Fails the enclosing property unless both sides are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (l, r) = (&$a, &$b);
        if l != r {
            return Err(format!(
                "assertion failed: `{:?}` != `{:?}` ({}:{})",
                l,
                r,
                file!(),
                line!()
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$a, &$b);
        if l != r {
            return Err(format!("{}: `{:?}` != `{:?}`", format!($($fmt)+), l, r));
        }
    }};
}

/// A source of random values of one type, with optional shrinking.
pub trait Strategy {
    /// The generated type.
    type Value: Clone + Debug;

    /// Draws one value.
    fn generate(&self, rng: &mut Rng) -> Self::Value;

    /// Candidate simplifications of `v`, most aggressive first. An empty
    /// list means `v` is minimal.
    fn shrink(&self, _v: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }
}

/// Integer types usable with [`ints`].
pub trait PropInt: Copy + Clone + Debug + PartialOrd {
    /// Widen to `i128` (lossless for all supported types).
    fn to_i128(self) -> i128;
    /// Narrow from `i128` (caller guarantees range).
    fn from_i128(v: i128) -> Self;
}

macro_rules! impl_prop_int {
    ($($t:ty),+) => {$(
        impl PropInt for $t {
            fn to_i128(self) -> i128 { self as i128 }
            fn from_i128(v: i128) -> Self { v as $t }
        }
    )+};
}
impl_prop_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64);

/// Uniform integers in an inclusive range; shrinks toward zero (clamped
/// into the range).
pub struct IntRange<T> {
    lo: T,
    hi: T,
}

/// Uniform integers in `lo..=hi`.
pub fn ints<T: PropInt>(r: RangeInclusive<T>) -> IntRange<T> {
    IntRange {
        lo: *r.start(),
        hi: *r.end(),
    }
}

impl<T: PropInt> Strategy for IntRange<T> {
    type Value = T;

    fn generate(&self, rng: &mut Rng) -> T {
        let (lo, hi) = (self.lo.to_i128(), self.hi.to_i128());
        let span = (hi - lo) as u128;
        let draw = if span >= u64::MAX as u128 {
            rng.next_u64() as u128
        } else {
            rng.next_u64() as u128 % (span + 1)
        };
        T::from_i128(lo + draw as i128)
    }

    fn shrink(&self, v: &T) -> Vec<T> {
        let (lo, hi, v) = (self.lo.to_i128(), self.hi.to_i128(), v.to_i128());
        let target = 0i128.clamp(lo, hi);
        if v == target {
            return Vec::new();
        }
        let mut out = vec![T::from_i128(target)];
        // Halving deltas toward the target give logarithmic convergence.
        let mut delta = (v - target) / 2;
        while delta != 0 {
            out.push(T::from_i128(v - delta));
            delta /= 2;
        }
        let step = if v > target { v - 1 } else { v + 1 };
        if !out.iter().any(|c| c.to_i128() == step) {
            out.push(T::from_i128(step));
        }
        out
    }
}

/// Uniform floats in `[lo, hi)`; shrinks toward zero (clamped).
pub struct F64Range {
    lo: f64,
    hi: f64,
}

/// Uniform floats in `[lo, hi)`.
pub fn floats(r: RangeInclusive<f64>) -> F64Range {
    F64Range {
        lo: *r.start(),
        hi: *r.end(),
    }
}

impl Strategy for F64Range {
    type Value = f64;

    fn generate(&self, rng: &mut Rng) -> f64 {
        rng.range_f64(self.lo, self.hi)
    }

    fn shrink(&self, v: &f64) -> Vec<f64> {
        let target = 0f64.clamp(self.lo, self.hi);
        if *v == target {
            return Vec::new();
        }
        let mid = (target + v) / 2.0;
        if mid == *v {
            vec![target]
        } else {
            vec![target, mid]
        }
    }
}

/// Coin flips; shrinks `true` to `false`.
pub struct Bools;

/// `true`/`false` with equal probability.
pub fn bools() -> Bools {
    Bools
}

impl Strategy for Bools {
    type Value = bool;

    fn generate(&self, rng: &mut Rng) -> bool {
        rng.bool()
    }

    fn shrink(&self, v: &bool) -> Vec<bool> {
        if *v {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

/// Vectors of a fixed element strategy with a length range.
pub struct VecStrategy<S> {
    elem: S,
    min_len: usize,
    max_len: usize,
}

/// Vectors with lengths in `len` and elements from `elem`.
pub fn vecs<S: Strategy>(elem: S, len: RangeInclusive<usize>) -> VecStrategy<S> {
    VecStrategy {
        elem,
        min_len: *len.start(),
        max_len: *len.end(),
    }
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut Rng) -> Vec<S::Value> {
        let n = rng.range_u64(self.min_len as u64, self.max_len as u64) as usize;
        (0..n).map(|_| self.elem.generate(rng)).collect()
    }

    fn shrink(&self, v: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
        let mut out = Vec::new();
        // Shorter vectors first: halves, then single removals.
        if v.len() > self.min_len {
            let half = (v.len() / 2).max(self.min_len);
            out.push(v[..half].to_vec());
            out.push(v[v.len() - half..].to_vec());
            for i in 0..v.len().min(8) {
                let mut shorter = v.clone();
                shorter.remove(i);
                if shorter.len() >= self.min_len {
                    out.push(shorter);
                }
            }
        }
        // Element-wise shrink: every candidate for the first positions, so
        // greedy shrinking can binary-search an element to its boundary.
        for i in 0..v.len().min(8) {
            for e in self.elem.shrink(&v[i]) {
                let mut simpler = v.clone();
                simpler[i] = e;
                out.push(simpler);
            }
        }
        // Every candidate differs structurally from `v` (shorter, or with
        // one element replaced by a strictly different shrink candidate),
        // so the greedy loop always makes progress.
        out
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident / $idx:tt),+);)+) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut Rng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }

            fn shrink(&self, v: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for cand in self.$idx.shrink(&v.$idx) {
                        let mut t = v.clone();
                        t.$idx = cand;
                        out.push(t);
                    }
                )+
                out
            }
        }
    )+};
}
impl_tuple_strategy! {
    (A/0, B/1);
    (A/0, B/1, C/2);
    (A/0, B/1, C/2, D/3);
}

/// Rejection-sampling wrapper created by [`StrategyExt::filter`].
pub struct Filter<S, F> {
    inner: S,
    label: &'static str,
    pred: F,
}

/// Combinators on every strategy.
pub trait StrategyExt: Strategy + Sized {
    /// Keeps only values satisfying `pred` (rejection sampling; panics
    /// after 10 000 consecutive rejections).
    fn filter<F: Fn(&Self::Value) -> bool>(self, label: &'static str, pred: F) -> Filter<Self, F> {
        Filter {
            inner: self,
            label,
            pred,
        }
    }
}
impl<S: Strategy> StrategyExt for S {}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;

    fn generate(&self, rng: &mut Rng) -> S::Value {
        for _ in 0..10_000 {
            let v = self.inner.generate(rng);
            if (self.pred)(&v) {
                return v;
            }
        }
        panic!("filter `{}` rejected 10000 consecutive values", self.label);
    }

    fn shrink(&self, v: &S::Value) -> Vec<S::Value> {
        let mut out = self.inner.shrink(v);
        out.retain(|c| (self.pred)(c));
        out
    }
}

/// Runner configuration; see the module docs for the env overrides.
#[derive(Clone, Debug)]
pub struct Config {
    /// Cases per property.
    pub cases: u32,
    /// Base seed; case 0 runs with exactly this seed.
    pub seed: u64,
    /// Whether `seed` was set explicitly (skips per-property salting).
    pub seed_is_explicit: bool,
    /// Budget of shrink candidates to evaluate after a failure.
    pub max_shrink_steps: u32,
}

/// Default base seed: deterministic, so tier-1 runs are hermetic; salted
/// per property name unless overridden.
const DEFAULT_SEED: u64 = 0x5CF1_0F1C_2026_0001;

impl Default for Config {
    fn default() -> Self {
        Config {
            cases: 64,
            seed: DEFAULT_SEED,
            seed_is_explicit: false,
            max_shrink_steps: 4_096,
        }
    }
}

impl Config {
    /// Default config with `SCFLOW_PROPTEST_CASES`/`SCFLOW_PROPTEST_SEED`
    /// applied.
    pub fn from_env() -> Self {
        let mut cfg = Config::default();
        if let Some(n) = env_u64("SCFLOW_PROPTEST_CASES") {
            cfg.cases = n.clamp(1, 1 << 20) as u32;
        }
        if let Some(s) = env_u64("SCFLOW_PROPTEST_SEED") {
            cfg.seed = s;
            cfg.seed_is_explicit = true;
        }
        cfg
    }

    /// Overrides the case count.
    pub fn with_cases(mut self, cases: u32) -> Self {
        self.cases = cases;
        self
    }

    /// Pins the base seed (case 0 uses exactly this value).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.seed_is_explicit = true;
        self
    }
}

fn env_u64(key: &str) -> Option<u64> {
    let raw = std::env::var(key).ok()?;
    let raw = raw.trim();
    let parsed = if let Some(hex) = raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        raw.parse()
    };
    match parsed {
        Ok(v) => Some(v),
        Err(_) => panic!("{key}={raw} is not a u64 (decimal or 0x-hex)"),
    }
}

/// A property failure, fully described (returned by [`run`]).
#[derive(Clone, Debug)]
pub struct Failure<V> {
    /// Zero-based index of the failing case.
    pub case: u32,
    /// Seed that regenerates the failing value as case 0.
    pub seed: u64,
    /// The originally generated counterexample.
    pub original: V,
    /// Failure message for the original value.
    pub original_message: String,
    /// The shrunk (minimal found) counterexample.
    pub minimal: V,
    /// Failure message for the minimal value.
    pub minimal_message: String,
    /// Number of shrink candidates that were evaluated.
    pub shrink_steps: u32,
}

impl<V: Debug> Failure<V> {
    /// The report printed (and panicked with) by [`check`].
    pub fn report(&self, name: &str) -> String {
        format!(
            "property `{name}` failed at case {case} (seed {seed:#018x})\n\
             minimal counterexample ({steps} shrink steps): {min:?}\n\
             error: {min_msg}\n\
             original counterexample: {orig:?}\n\
             error: {orig_msg}\n\
             reproduce: SCFLOW_PROPTEST_SEED={seed:#x} SCFLOW_PROPTEST_CASES=1 cargo test",
            case = self.case,
            seed = self.seed,
            steps = self.shrink_steps,
            min = self.minimal,
            min_msg = self.minimal_message,
            orig = self.original,
            orig_msg = self.original_message,
        )
    }
}

thread_local! {
    static QUIET_PANICS: Cell<bool> = const { Cell::new(false) };
}
static HOOK_ONCE: Once = Once::new();

/// Evaluates the property once, converting panics into `Err` so that
/// shrinking can keep probing past panicking candidates without spamming
/// backtraces.
fn eval<V>(prop: &impl Fn(&V) -> TestResult, v: &V) -> TestResult {
    HOOK_ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET_PANICS.with(Cell::get) {
                prev(info);
            }
        }));
    });
    QUIET_PANICS.with(|q| q.set(true));
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| prop(v)));
    QUIET_PANICS.with(|q| q.set(false));
    match outcome {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic with non-string payload".to_owned());
            Err(format!("panic: {msg}"))
        }
    }
}

/// FNV-1a (the workspace-wide [`scflow_hwtypes::Fnv64`], byte-identical
/// to the loop this replaced), used to salt the default seed per
/// property name so different properties explore independent streams.
fn fnv1a(s: &str) -> u64 {
    scflow_hwtypes::Fnv64::hash_bytes(s.as_bytes())
}

/// Runs the property over `cfg.cases` generated values and returns the
/// first failure (shrunk) instead of panicking. [`check`] is the panicking
/// wrapper used by tests; this form exists so the runner itself can be
/// tested (and is what the shrinking canary asserts on).
pub fn run<S: Strategy>(
    cfg: &Config,
    name: &str,
    strategy: &S,
    prop: impl Fn(&S::Value) -> TestResult,
) -> Result<(), Failure<S::Value>> {
    let base = if cfg.seed_is_explicit {
        cfg.seed
    } else {
        cfg.seed ^ fnv1a(name)
    };
    let mut chain = base;
    for case in 0..cfg.cases {
        let case_seed = if case == 0 {
            base
        } else {
            splitmix64(&mut chain)
        };
        let mut rng = Rng::new(case_seed);
        let value = strategy.generate(&mut rng);
        let message = match eval(&prop, &value) {
            Ok(()) => continue,
            Err(m) => m,
        };

        // Greedy shrink: take the first failing candidate, repeat.
        let mut minimal = value.clone();
        let mut minimal_message = message.clone();
        let mut steps = 0u32;
        'shrinking: while steps < cfg.max_shrink_steps {
            for cand in strategy.shrink(&minimal) {
                steps += 1;
                if steps >= cfg.max_shrink_steps {
                    break 'shrinking;
                }
                if let Err(m) = eval(&prop, &cand) {
                    minimal = cand;
                    minimal_message = m;
                    continue 'shrinking;
                }
            }
            break; // every candidate passes: minimal found
        }

        return Err(Failure {
            case,
            seed: case_seed,
            original: value,
            original_message: message,
            minimal,
            minimal_message,
            shrink_steps: steps,
        });
    }
    Ok(())
}

/// Runs a property with an explicit config, panicking on failure with the
/// full shrink report.
pub fn check_with<S: Strategy>(
    cfg: &Config,
    name: &str,
    strategy: &S,
    prop: impl Fn(&S::Value) -> TestResult,
) {
    if let Err(failure) = run(cfg, name, strategy, prop) {
        panic!("{}", failure.report(name));
    }
}

/// Runs a property with [`Config::from_env`], panicking on failure.
pub fn check<S: Strategy>(name: &str, strategy: &S, prop: impl Fn(&S::Value) -> TestResult) {
    check_with(&Config::from_env(), name, strategy, prop);
}

/// Replays exactly one case from a pinned seed — the regression-pin form:
/// once a failure seed is fixed, keep it here forever.
pub fn check_seeded<S: Strategy>(
    name: &str,
    seed: u64,
    strategy: &S,
    prop: impl Fn(&S::Value) -> TestResult,
) {
    check_with(
        &Config::default().with_seed(seed).with_cases(1),
        name,
        strategy,
        prop,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_passes() {
        check(
            "u64 roundtrips through i128",
            &ints(0u64..=u64::MAX),
            |&v| {
                crate::prop_assert_eq!((v as i128) as u64, v);
                Ok(())
            },
        );
    }

    #[test]
    fn int_shrink_moves_toward_zero_and_terminates() {
        let s = ints(0u64..=100_000);
        let mut v = 100_000u64;
        let mut hops = 0;
        while let Some(next) = s.shrink(&v).into_iter().next() {
            assert!(next < v);
            v = next;
            hops += 1;
            assert!(hops < 100);
        }
        assert_eq!(v, 0);
    }

    #[test]
    fn filter_respects_predicate() {
        let s = ints(0u32..=1000).filter("even", |v| v % 2 == 0);
        let mut rng = Rng::new(3);
        for _ in 0..200 {
            assert_eq!(s.generate(&mut rng) % 2, 0);
        }
    }

    #[test]
    fn vec_shrink_respects_min_len() {
        let s = vecs(ints(0u8..=255), 2..=10);
        let mut rng = Rng::new(5);
        let v = s.generate(&mut rng);
        for cand in s.shrink(&v) {
            assert!(cand.len() >= 2, "{cand:?}");
        }
    }
}
