//! Observability layer for the scflow simulation stack.
//!
//! Everything every other crate needs to answer "where did the cycles
//! go, which nets ever toggled, how good is my stimulus?" in one
//! dependency-free crate:
//!
//! - [`Counter`] / [`Gauge`] — atomic scalar primitives for code that
//!   accumulates across threads (the PPSFP fault shards).
//! - [`Histogram`] — log2-bucketed distribution with an associative,
//!   commutative [`merge`](Histogram::merge), so per-shard histograms
//!   combine in any order to the same result.
//! - [`Profiler`] — a monotonic span stack for phase profiling. By
//!   construction every span's time equals its self time plus the sum
//!   of its children, so phase breakdowns always add up.
//! - [`MetricsRegistry`] — a name → value map with stable, sorted
//!   names and deterministic JSON export in the repo's `BENCH_*.json`
//!   style.
//! - [`ToggleCoverage`] — per-net / per-cell-output flip tracking
//!   sampled at cycle boundaries, so every engine that settles to the
//!   same per-cycle values produces a byte-identical coverage map.
//!
//! # Overhead contract
//!
//! Collection is strictly opt-in. An engine with coverage disabled
//! pays one branch per clock cycle (an `Option` check), nothing per
//! gate or per instruction; registry snapshots are built on demand
//! from counters the engines keep anyway. `scripts/verify.sh` guards
//! this with a throughput check against the recorded fig8 baseline.
//!
//! # Naming scheme
//!
//! Metric names are dot-separated lowercase paths:
//! `<layer>.<engine>.<quantity>`, e.g. `rtl.compiled.evals`,
//! `gate.bitpar.skipped`, `fault.ppsfp.detected`,
//! `coverage.toggle.rtl.covered_bits`. Registered names must be
//! stable run-to-run for a given design and configuration; verify.sh
//! fails if two identical runs register different name sets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coverage;
mod metrics;
mod profile;

pub use coverage::ToggleCoverage;
pub use metrics::{Counter, Gauge, Histogram, MetricValue, MetricsRegistry, SharedHistogram};
pub use profile::{Profiler, Span};

/// `true` if the `SCFLOW_METRICS` environment variable asks for metric
/// collection (`1`, `true`, `on` or `yes`, case-insensitive).
pub fn metrics_enabled() -> bool {
    env_flag("SCFLOW_METRICS")
}

/// `true` if the `SCFLOW_PROFILE` environment variable asks for phase
/// profiling (`1`, `true`, `on` or `yes`, case-insensitive).
pub fn profile_enabled() -> bool {
    env_flag("SCFLOW_PROFILE")
}

fn env_flag(name: &str) -> bool {
    std::env::var(name).is_ok_and(|v| {
        ["1", "true", "on", "yes"]
            .iter()
            .any(|t| v.eq_ignore_ascii_case(t))
    })
}

/// Renders a complete `METRICS.json` document: the deterministic
/// metrics object plus, when given, the (wall-clock, hence
/// non-deterministic) profile span array.
///
/// Determinism contract: for a fixed design, stimulus and seed the
/// `"metrics"` section is byte-identical across runs; only the
/// `"profile"` section may differ.
pub fn render_metrics_json(registry: &MetricsRegistry, profile: Option<&Profiler>) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"group\": \"metrics\",\n  \"harness\": \"scflow-obs\",\n");
    out.push_str("  \"metrics\": ");
    out.push_str(&registry.to_json_object(2));
    if let Some(p) = profile {
        out.push_str(",\n  \"profile\": ");
        out.push_str(&p.to_json_array(2));
    }
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_shape() {
        let mut reg = MetricsRegistry::new();
        reg.set_counter("a.b", 3);
        let doc = render_metrics_json(&reg, None);
        assert!(doc.contains("\"group\": \"metrics\""));
        assert!(doc.contains("\"a.b\": 3"));
        assert!(!doc.contains("\"profile\""));
    }
}
