//! Benchmark self-test: `BENCHMARK.json` lists exactly the metrics the
//! benchmark produces, and a tiny-size pass of every workload produces
//! all of them with correct outputs — including the traced pass, whose
//! derived synthesis and ATPG breakdowns must reproduce `scflow::flow`.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (every workload's pass runs the full SRC ATPG at least once).

use scflow_perfbench::metrics::{end_to_end, per_layer, MetricDef};
use scflow_perfbench::{pin_environment, result_line, run, Args, Size, Workload};
use std::collections::BTreeMap;

/// A JSON value, enough of JSON for `BENCHMARK.json` (the serve crate's
/// parser takes integers only, and the bounds are fractions).
#[derive(Debug, Clone, PartialEq)]
enum J {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<J>),
    Obj(BTreeMap<String, J>),
}

struct Reader<'a> {
    s: &'a [u8],
    i: usize,
}

impl Reader<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected `{}` at {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> J {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return J::Obj(m);
                }
                loop {
                    self.ws();
                    let J::Str(k) = self.value() else {
                        panic!("object key at {}", self.i)
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k}");
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return J::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return J::Arr(v);
                }
                loop {
                    v.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return J::Arr(v);
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.s[self.i] != b'"' {
                    assert_ne!(
                        self.s[self.i], b'\\',
                        "escapes are not used in BENCHMARK.json"
                    );
                    self.i += 1;
                }
                self.i += 1;
                J::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).expect("utf-8"))
            }
            b't' | b'f' | b'n' => {
                for (word, v) in [
                    ("true", J::Bool(true)),
                    ("false", J::Bool(false)),
                    ("null", J::Null),
                ] {
                    if self.s[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return v;
                    }
                }
                panic!("bad literal at {}", self.i)
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii");
                J::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number `{text}`")),
                )
            }
        }
    }
}

fn benchmark_json() -> BTreeMap<String, J> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let mut r = Reader {
        s: text.as_bytes(),
        i: 0,
    };
    let J::Obj(top) = r.value() else {
        panic!("top level is not an object")
    };
    r.ws();
    assert_eq!(r.i, text.len(), "trailing bytes after the object");
    top
}

fn listed(top: &BTreeMap<String, J>, key: &str) -> Vec<BTreeMap<String, J>> {
    let Some(J::Arr(items)) = top.get(key) else {
        panic!("`{key}` is not an array")
    };
    items
        .iter()
        .map(|i| match i {
            J::Obj(m) => m.clone(),
            other => panic!("`{key}` entry is not an object: {other:?}"),
        })
        .collect()
}

fn check_metrics(key: &str, entries: &[BTreeMap<String, J>], defs: &[MetricDef], bounded: bool) {
    let names: Vec<String> = entries
        .iter()
        .map(|e| match e.get("name") {
            Some(J::Str(n)) => n.clone(),
            _ => panic!("`{key}` entry without a name: {e:?}"),
        })
        .collect();
    let expected: Vec<String> = defs.iter().map(|d| d.name.clone()).collect();
    assert_eq!(
        names, expected,
        "`{key}` names differ from the benchmark's catalogue"
    );
    for (e, d) in entries.iter().zip(defs) {
        let mut keys: Vec<&str> = e.keys().map(String::as_str).collect();
        keys.sort_unstable();
        let want: &[&str] = if bounded {
            &["better", "bound", "name", "unit"]
        } else {
            &["better", "name", "unit"]
        };
        assert_eq!(keys, want, "{}: keys", d.name);
        assert_eq!(
            e.get("unit"),
            Some(&J::Str(d.unit.to_owned())),
            "{}: unit",
            d.name
        );
        assert_eq!(
            e.get("better"),
            Some(&J::Str(d.better.as_str().to_owned())),
            "{}: direction",
            d.name
        );
        if bounded {
            let Some(J::Num(b)) = e.get("bound") else {
                panic!("{}: bound", d.name)
            };
            assert!(
                *b > 0.0 && *b <= 0.25,
                "{}: bound {b} outside (0, 0.25]",
                d.name
            );
        }
    }
}

#[test]
fn benchmark_json_lists_every_metric_with_unit_and_direction() {
    let top = benchmark_json();
    let mut keys: Vec<&str> = top.keys().map(String::as_str).collect();
    keys.sort_unstable();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let workloads: Vec<J> = listed(&top, "workloads")
        .iter()
        .map(|w| w.get("name").cloned().expect("workload name"))
        .collect();
    assert_eq!(
        workloads,
        ["flow", "regress", "serve"].map(|w| J::Str(w.to_owned()))
    );
    check_metrics(
        "end_to_end",
        &listed(&top, "end_to_end"),
        &end_to_end(),
        true,
    );
    check_metrics("per_layer", &listed(&top, "per_layer"), &per_layer(), false);
}

fn args(workload: Workload, trace: bool) -> Args {
    Args {
        workload,
        seed: 5,
        seconds: 1,
        trace,
    }
}

#[test]
fn tiny_pass_of_every_workload_is_correct_and_complete() {
    pin_environment();
    let size = Size::tiny();
    let mut qor = Vec::new();
    let mut work = Vec::new();
    for w in [Workload::Flow, Workload::Regress, Workload::Serve] {
        let out = run(&args(w, false), &size);
        assert!(out.ledger.attempted > 0);
        assert_eq!(out.ledger.failed, 0, "{w:?}: {:?}", out.ledger.failures);
        result_line(&end_to_end(), &out.values, &out.ledger)
            .unwrap_or_else(|e| panic!("{w:?}: {e}"));
        qor.push(["fault_coverage_pct", "test_patterns", "area_um2"].map(|m| out.values.get(m)));
        work.extend(
            out.notes
                .iter()
                .filter(|n| n.starts_with("regress work"))
                .cloned(),
        );
    }
    // Quality of results, simulated cycles and engine work counters are
    // deterministic: identical in every run of one seed.
    assert!(qor.windows(2).all(|p| p[0] == p[1]), "{qor:?}");
    assert_eq!(work.len(), 3);
    assert!(work.windows(2).all(|p| p[0] == p[1]), "{work:?}");

    // The traced pass (the same for every workload): every per-layer
    // metric, and no divergence between the staged breakdowns and the
    // flow's own entry points (a divergence counts as a failure).
    let out = run(&args(Workload::Flow, true), &size);
    assert_eq!(out.ledger.failed, 0, "{:?}", out.ledger.failures);
    result_line(&per_layer(), &out.values, &out.ledger).unwrap_or_else(|e| panic!("{e}"));
    assert!(out.tracer.spans().iter().any(|s| s.derived));
    for layer in ["kernel", "core", "synth", "rtlir", "gate", "cosim", "serve"] {
        assert!(
            out.tracer.spans().iter().any(|s| s.layer() == layer),
            "no span for layer {layer}"
        );
    }
}
