//! Assertions over [`scflow_obs`] metrics registries.
//!
//! Tests that instrument an engine typically snapshot its registry
//! before and after some work and assert on the counter deltas; this
//! module provides the delta arithmetic and the name-stability check
//! (two identical runs must register the identical metric name set —
//! the guarantee `scripts/verify.sh` leans on when it byte-compares
//! `METRICS.json` files).

use scflow_obs::MetricsRegistry;

/// The change in a counter between two registry snapshots. A missing
/// counter reads as zero, so deltas can span the metric's first
/// registration; a counter that shrank yields a negative delta.
pub fn counter_delta(before: &MetricsRegistry, after: &MetricsRegistry, name: &str) -> i128 {
    i128::from(after.counter(name).unwrap_or(0)) - i128::from(before.counter(name).unwrap_or(0))
}

/// Panics unless the counter `name` grew by exactly `expected` between
/// the two snapshots.
///
/// # Panics
///
/// Panics with both observed values on a mismatch.
#[track_caller]
pub fn assert_counter_delta(
    before: &MetricsRegistry,
    after: &MetricsRegistry,
    name: &str,
    expected: i128,
) {
    let got = counter_delta(before, after, name);
    assert_eq!(
        got,
        expected,
        "counter `{name}` moved by {got}, expected {expected} \
         (before={:?}, after={:?})",
        before.counter(name),
        after.counter(name)
    );
}

/// Panics unless both registries expose the identical (sorted) metric
/// name set. Values are allowed to differ — this is the stable-names
/// guarantee, not a value comparison.
///
/// # Panics
///
/// Panics listing the first name present on one side only.
#[track_caller]
pub fn assert_names_stable(a: &MetricsRegistry, b: &MetricsRegistry) {
    let an: Vec<&str> = a.names().collect();
    let bn: Vec<&str> = b.names().collect();
    if an != bn {
        let only_a: Vec<&&str> = an.iter().filter(|n| !bn.contains(n)).collect();
        let only_b: Vec<&&str> = bn.iter().filter(|n| !an.contains(n)).collect();
        panic!(
            "metric name sets differ: {} vs {} names; only in first: {only_a:?}; \
             only in second: {only_b:?}",
            an.len(),
            bn.len()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_spans_first_registration() {
        let before = MetricsRegistry::new();
        let mut after = MetricsRegistry::new();
        after.set_counter("a.b", 7);
        assert_eq!(counter_delta(&before, &after, "a.b"), 7);
        assert_counter_delta(&before, &after, "a.b", 7);
    }

    #[test]
    #[should_panic(expected = "name sets differ")]
    fn unstable_names_panic() {
        let mut a = MetricsRegistry::new();
        a.set_counter("x", 1);
        let b = MetricsRegistry::new();
        assert_names_stable(&a, &b);
    }
}
