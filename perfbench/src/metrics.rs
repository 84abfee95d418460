//! The benchmark's metric catalogue and the per-run report.
//!
//! [`end_to_end`] and [`per_layer`] are the single source of metric
//! names, units and directions; `BENCHMARK.json` must list exactly the
//! same set (the self-test checks it). Each per-layer metric also names
//! the end-to-end metric, and the workload, it is expected to move.

use std::collections::BTreeMap;

/// Whether a larger or a smaller value is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better (throughput, coverage, yield).
    Higher,
    /// Smaller is better (time, size, work).
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric the benchmark reports.
#[derive(Clone, Debug)]
pub struct MetricDef {
    /// Metric name, as printed.
    pub name: String,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// For per-layer metrics: the end-to-end metrics (with workload)
    /// this layer metric should move. Empty for end-to-end metrics.
    pub moves: &'static str,
}

fn def(name: &str, unit: &'static str, better: Better, moves: &'static str) -> MetricDef {
    MetricDef {
        name: name.to_owned(),
        unit,
        better,
        moves,
    }
}

/// The six synthesisable levels `validate_all_levels` checks, as metric
/// name suffixes, in its order.
pub const LEVELS: [&str; 6] = [
    "beh_unopt",
    "beh_opt",
    "rtl_unopt",
    "rtl_opt",
    "rtl_buggy",
    "vhdl_ref",
];

/// The five Figure 10 designs, as metric name suffixes, in
/// `run_area_flow` row order.
pub const FIG10: [&str; 5] = ["vhdl_ref", "beh_unopt", "beh_opt", "rtl_unopt", "rtl_opt"];

/// The serve operations a session script issues.
pub const SERVE_OPS: [&str; 8] = [
    "open_session",
    "poke",
    "peek",
    "step",
    "step_batch",
    "snapshot",
    "restore",
    "close",
];

/// The serve engines the session scripts open.
pub const SERVE_ENGINES: [&str; 3] = ["rtl.compiled", "rtl.bitpar", "gate.bitpar"];

/// The end-to-end metrics, printed by every untraced run.
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    vec![
        def("setup_s", "s", Lower, ""),
        def("peak_rss_mb", "MB", Lower, ""),
        def("signoff_s", "s", Lower, ""),
        def("atpg_s", "s", Lower, ""),
        def("fault_coverage_pct", "%", Higher, ""),
        def("test_patterns", "count", Lower, ""),
        def("area_um2", "um2", Lower, ""),
        def("beh_cps", "cycles/s", Higher, ""),
        def("rtl_cps", "cycles/s", Higher, ""),
        def("gate_cps", "cycles/s", Higher, ""),
        def("gate_big_cps", "cycles/s", Higher, ""),
        def("sweep_scen_per_s", "1/s", Higher, ""),
        def("serve_rps", "1/s", Higher, ""),
        def("serve_p50_us", "us", Lower, ""),
        def("serve_p99_us", "us", Lower, ""),
    ]
}

/// The per-layer metrics, printed by every traced run.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    let mut v = vec![
        def("kernel.beh_s", "s", Lower, "beh_cps (regress)"),
        def(
            "kernel.events_per_cycle",
            "1/cycle",
            Lower,
            "beh_cps (regress)",
        ),
        def(
            "kernel.deltas_per_cycle",
            "1/cycle",
            Lower,
            "beh_cps (regress)",
        ),
        def(
            "kernel.polls_per_cycle",
            "1/cycle",
            Lower,
            "beh_cps (regress)",
        ),
        def("cosim.gate_s", "s", Lower, "gate_cps (regress)"),
        def("cosim.cycles", "cycles", Lower, "gate_cps (regress)"),
        def(
            "core.golden_ms",
            "ms",
            Lower,
            "signoff_s (flow), setup_s (regress)",
        ),
    ];
    for l in LEVELS {
        v.push(def(
            &format!("core.validate_ms.{l}"),
            "ms",
            Lower,
            "signoff_s (flow)",
        ));
    }
    v.push(def(
        "synth.beh_ms",
        "ms",
        Lower,
        "signoff_s (flow), setup_s (serve)",
    ));
    for d in FIG10 {
        v.push(def(
            &format!("synth.rtl_ms.{d}"),
            "ms",
            Lower,
            "signoff_s (flow), setup_s (serve)",
        ));
    }
    v.extend([
        def(
            "synth.lower_ms",
            "ms",
            Lower,
            "signoff_s (flow), setup_s (serve)",
        ),
        def(
            "synth.opt_ms",
            "ms",
            Lower,
            "signoff_s (flow), setup_s (serve)",
        ),
        def(
            "synth.opt.cells_removed_pct",
            "%",
            Higher,
            "signoff_s (flow), setup_s (serve)",
        ),
    ]);
    for d in FIG10 {
        v.push(def(
            &format!("synth.area_um2.{d}"),
            "um2",
            Lower,
            "area_um2 (flow)",
        ));
    }
    for d in FIG10 {
        v.push(def(
            &format!("synth.flops.{d}"),
            "count",
            Lower,
            "area_um2 (flow)",
        ));
    }
    v.extend([
        def("rtlir.compile_ms", "ms", Lower, "setup_s (regress, serve)"),
        def("rtlir.instrs", "count", Lower, "setup_s (regress, serve)"),
        def("rtlir.slots", "count", Lower, "setup_s (regress, serve)"),
        def("rtlir.exec_s", "s", Lower, "rtl_cps (regress)"),
        def(
            "rtlir.evals_per_cycle",
            "1/cycle",
            Lower,
            "rtl_cps (regress)",
        ),
        def("rtlir.active_ratio", "ratio", Lower, "rtl_cps (regress)"),
        def(
            "rtlir.lanes_sweep_us",
            "us",
            Lower,
            "sweep_scen_per_s (regress), serve_p99_us (serve)",
        ),
        def(
            "rtlir.snapshot_us",
            "us",
            Lower,
            "sweep_scen_per_s (regress), serve_p99_us (serve)",
        ),
        def(
            "rtlir.restore_us",
            "us",
            Lower,
            "sweep_scen_per_s (regress), serve_p99_us (serve)",
        ),
        def(
            "rtlir.snapshot_bytes",
            "B",
            Lower,
            "sweep_scen_per_s (regress), serve_p99_us (serve)",
        ),
        def(
            "gate.compile_ms",
            "ms",
            Lower,
            "setup_s, gate_big_cps (regress)",
        ),
        def(
            "gate.instrs",
            "count",
            Lower,
            "setup_s, gate_big_cps (regress)",
        ),
        def(
            "gate.passes_ms",
            "ms",
            Lower,
            "setup_s, gate_big_cps (regress)",
        ),
        def(
            "gate.passes.cells_removed_pct",
            "%",
            Higher,
            "setup_s, gate_big_cps (regress)",
        ),
    ]);
    for (net, moves) in [
        ("src", "gate_cps (regress)"),
        ("big", "gate_big_cps (regress)"),
    ] {
        v.push(def(&format!("gate.bitpar_s.{net}"), "s", Lower, moves));
        v.push(def(
            &format!("gate.evals_per_cycle.{net}"),
            "1/cycle",
            Lower,
            moves,
        ));
        v.push(def(
            &format!("gate.active_ratio.{net}"),
            "ratio",
            Lower,
            moves,
        ));
    }
    v.extend([
        def("gate.scan_ms", "ms", Lower, "signoff_s (flow)"),
        def("gate.area_ms", "ms", Lower, "signoff_s (flow)"),
        def("gate.timing_ms", "ms", Lower, "signoff_s (flow)"),
        def("gate.fault.collapse_ms", "ms", Lower, "atpg_s (flow)"),
        def(
            "gate.fault.classes_per_site",
            "ratio",
            Lower,
            "atpg_s (flow)",
        ),
        def("gate.atpg.random_s", "s", Lower, "atpg_s (flow)"),
        def("gate.atpg.directed_s", "s", Lower, "atpg_s (flow)"),
        def("gate.atpg.compact_s", "s", Lower, "atpg_s (flow)"),
        def("gate.atpg.cpu_util", "ratio", Higher, "atpg_s (flow)"),
        def("gate.atpg.random_rounds", "count", Lower, "atpg_s (flow)"),
        def(
            "gate.atpg.random_yield",
            "1/pattern",
            Higher,
            "atpg_s, fault_coverage_pct (flow)",
        ),
        def(
            "gate.atpg.directed_yield",
            "ratio",
            Higher,
            "atpg_s, fault_coverage_pct (flow)",
        ),
        def("gate.atpg.decisions", "count", Lower, "atpg_s (flow)"),
        def("gate.atpg.backtracks", "count", Lower, "atpg_s (flow)"),
        def(
            "gate.atpg.aborted",
            "count",
            Lower,
            "fault_coverage_pct (flow)",
        ),
        def(
            "gate.atpg.compaction_keep",
            "ratio",
            Lower,
            "test_patterns (flow)",
        ),
    ]);
    for op in SERVE_OPS {
        v.push(def(
            &format!("serve.{op}.p50_us"),
            "us",
            Lower,
            "serve_p50_us (serve)",
        ));
        v.push(def(
            &format!("serve.{op}.p99_us"),
            "us",
            Lower,
            "serve_p99_us (serve)",
        ));
        v.push(def(
            &format!("serve.{op}.reply_bytes"),
            "B",
            Lower,
            "serve_p50_us, serve_p99_us (serve)",
        ));
    }
    for e in SERVE_ENGINES {
        v.push(def(
            &format!("serve.cold_open_ms.{e}"),
            "ms",
            Lower,
            "setup_s (serve)",
        ));
    }
    v.extend([
        def(
            "serve.cache.hit_ratio",
            "ratio",
            Higher,
            "serve_p50_us (serve)",
        ),
        def(
            "serve.cache.compiles",
            "count",
            Lower,
            "serve_p50_us (serve)",
        ),
        def(
            "serve.cache.evictions",
            "count",
            Lower,
            "serve_p50_us (serve)",
        ),
    ]);
    for phase in ["flow", "regress", "serve"] {
        v.push(def(
            &format!("trace.overhead_pct.{phase}"),
            "%",
            Lower,
            "none (cost of tracing itself)",
        ));
    }
    v
}

/// Metric values gathered by one run, keyed by name.
#[derive(Clone, Debug, Default)]
pub struct Values(BTreeMap<String, f64>);

impl Values {
    /// Records `name = value`, replacing an earlier value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_owned(), value);
    }

    /// The value of `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Median of `xs` (the mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `xs`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_limits() {
        let mut all: Vec<String> = end_to_end().into_iter().map(|d| d.name).collect();
        all.extend(per_layer().into_iter().map(|d| d.name));
        let n = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), n, "duplicate metric name");
        assert!(per_layer().len() <= 128);
        for name in &all {
            assert!(name.len() <= 64, "{name}");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.99), 9.9);
    }
}
