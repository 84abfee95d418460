#!/usr/bin/env bash
# Tier-1 verification, fully offline: release build, the whole test
# suite, and a smoke run of the tables binary that regenerates the
# paper's figures. Everything is in-repo (no external crates), so this
# must pass on a machine with no network and an empty registry.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== formatting (rustfmt) =="
# The workspace is kept rustfmt-clean, so a diff shows only real edits.
# `perfbench/` is its own workspace and is not covered by `--all`.
cargo fmt --all --check

echo "== build (release, offline) =="
cargo build --workspace --release --offline

echo "== tests (release, offline) =="
cargo test --workspace --release -q --offline

echo "== dependency hermeticity =="
# Every node in the dependency graph must be an in-repo path crate.
if cargo tree --workspace --offline --prefix none --edges normal,build \
    | awk 'NF { print $1 }' | sort -u | grep -v '^scflow'; then
    echo "error: external dependency found in cargo tree" >&2
    exit 1
fi
echo "ok: only scflow-* path crates"

echo "== tables smoke run =="
cargo run --release --offline -p scflow-bench --bin tables -- --fig8

echo "== engine check: compiled levelized vs interpreted RTL =="
# Races both unified-API engines on the two-process RTL workload
# (bit-identical outputs asserted); exits non-zero if the compiled
# engine has become slower than the interpreter.
cargo run --release --offline -p scflow-bench --bin tables -- --check-engines

echo "== gate engine check: bit-parallel vs event-driven =="
# Races the two gate-level engines on the synthesized RTL SRC and
# cross-checks PPSFP fault coverage against the serial per-fault
# reference; exits non-zero if the bit-parallel engine is slower than
# the event-driven one or detects a different fault set.
cargo run --release --offline -p scflow-bench --bin tables -- --check-gate

echo "== flow profile smoke run =="
# Profiles all three flow phases; exits non-zero on any phase failure.
cargo run --release --offline -p scflow-bench --bin tables -- --profile

echo "== coverage determinism =="
# Two --coverage runs must emit byte-identical METRICS.json (per-net
# toggle maps identical across all four engines, metric names stable,
# no wall-clock in the deterministic section).
covdir="$(mktemp -d)"
trap 'rm -rf "$covdir"' EXIT
mkdir -p "$covdir/a" "$covdir/b"
SCFLOW_BENCH_DIR="$covdir/a" \
    cargo run --release --offline -p scflow-bench --bin tables -- --coverage
SCFLOW_BENCH_DIR="$covdir/b" \
    cargo run --release --offline -p scflow-bench --bin tables -- --coverage >/dev/null
cmp "$covdir/a/METRICS.json" "$covdir/b/METRICS.json"
echo "ok: METRICS.json byte-identical across runs"

echo "== serve protocol smoke (golden bytes over stdio) =="
# The JSON-lines service replies must be byte-identical to the pinned
# golden transcript: session ids, cache hit/miss fields, coverage maps,
# engine metrics and deterministic-mode server metrics are all
# deterministic, so any byte drift is a protocol regression.
cargo run --release --offline -q -p scflow-serve --bin scflow-serve \
    < scripts/serve_smoke.jsonl > "$covdir/serve_smoke.out"
cmp "$covdir/serve_smoke.out" scripts/serve_smoke.golden
echo "ok: serve replies byte-identical to scripts/serve_smoke.golden"

echo "== serve concurrency: single-flight cache + 4-session determinism =="
# cache_share pins that an 8-way concurrent open storm compiles exactly
# once; determinism pins that 4 concurrent sessions produce reply
# transcripts (outputs, coverage, metrics) byte-identical to a serial
# run on every engine, and that deterministic server metrics are
# byte-identical across independent concurrent runs.
cargo test --release -q --offline -p scflow-serve --test cache_share
cargo test --release -q --offline -p scflow-serve --test determinism

echo "== snapshot determinism: forked replays vs straight runs =="
# `--check-snapshot` runs every scenario twice on both compiled RTL
# engines — once from a fresh warmed simulator, once by restoring a
# warmup checkpoint — and writes both artifact dumps (outputs,
# violations, coverage maps, VCD bytes, metrics JSON). The dumps must
# be byte-identical: a restore that loses any state shows up here.
SCFLOW_BENCH_DIR="$covdir" \
    cargo run --release --offline -p scflow-bench --bin tables -- --check-snapshot
cmp "$covdir/SNAPSHOT_straight.txt" "$covdir/SNAPSHOT_forked.txt"
echo "ok: snapshot-forked replays byte-identical to straight runs"

echo "== scenario-sweep bench (BENCH_sweep.json) =="
# Sequential CompiledSim vs snapshot-forked scalar vs the 64-lane
# bit-parallel sweep; exits non-zero if the lane sweep's per-scenario
# throughput falls under SCFLOW_SWEEP_MIN (default 8x) of the naive
# fresh-simulator loop.
SCFLOW_BENCH_DIR="$covdir" \
    cargo bench --offline -q -p scflow-bench --bench rtl_sweep
test -s "$covdir/BENCH_sweep.json"
echo "ok: BENCH_sweep.json emitted"

echo "== serve throughput bench (BENCH_serve.json) =="
SCFLOW_BENCH_DIR="$covdir" \
    cargo bench --offline -q -p scflow-bench --bench serve_throughput
test -s "$covdir/BENCH_serve.json"
echo "ok: BENCH_serve.json emitted"

echo "== pass-pipeline differential (pinned seeds, byte compare) =="
# The compile passes must be invisible to every observer. The two
# dedicated suites lockstep raw-vs-optimized netlists/modules across
# all engines (outputs, violation streams, VCD bytes, via
# first_divergence); --check-opt then replays the golden-model
# testbench on all three compiled engines at opt0 and opt2 and fails on any
# output mismatch or gross (>2x) slowdown. On top of that, an opt0 and
# an opt2 run of the optimized netlist-stats table must byte-match:
# the report reflects the netlist it is given, never ambient state.
cargo test --release -q --offline -p scflow-gate --test passes_differential
cargo test --release -q --offline -p scflow --test opt_differential
cargo run --release --offline -p scflow-bench --bin tables -- --check-opt
SCFLOW_OPT=0 cargo run --release --offline -p scflow-bench --bin tables -- \
    --netlist-stats > "$covdir/stats_opt0.txt"
SCFLOW_OPT=2 cargo run --release --offline -p scflow-bench --bin tables -- \
    --netlist-stats > "$covdir/stats_opt2.txt"
cmp "$covdir/stats_opt0.txt" "$covdir/stats_opt2.txt"
echo "ok: passes byte-invisible; netlist-stats report deterministic"

echo "== pass-scaling bench (BENCH_opt.json) =="
# Generated circuits at 10^3..10^5 gates, the compiled gate engine with
# passes off vs on; the bench itself enforces the throughput floor (default
# SCFLOW_OPT_MIN=1.15x for level-2 gate.bitpar at the largest size).
SCFLOW_BENCH_DIR="$covdir" \
    cargo bench --offline -q -p scflow-bench --bench opt_scaling
test -s "$covdir/BENCH_opt.json"
echo "ok: BENCH_opt.json emitted (floor enforced by the bench)"

echo "== ATPG property suite (two-engine replay + exhaustive cross-check) =="
# Every pattern set replays identically on GateSim and BitGateSim and
# detects exactly the Detected verdicts; Untestable verdicts match
# brute-force enumeration on small frames; the PPSFP kernel's
# capture-frame masks equal full-protocol masks for every collapsed
# fault of the six SRC netlists and the generator families. Seeds are
# pinned inside the suites.
cargo test --release -q --offline -p scflow-gate --test atpg_properties
cargo test --release -q --offline -p scflow --test atpg_flow
cargo test --release -q --offline -p scflow --test fsim_frame

echo "== ATPG directed-stage smoke =="
# PODEM alone (random stage off, tiny backtrack budget) must classify
# the full fault list and detect at least one fault.
cargo run --release --offline -p scflow-bench --bin tables -- --check-atpg

echo "== ATPG coverage floor + thread determinism =="
# The full staged run must reach 95% collapsed stuck-at coverage on the
# SRC, and its METRICS.json (patterns, per-stage curve, decision,
# backtrack and implication counts) must be byte-identical at 1 and 4
# fault threads (PODEM runs on the fault threads too).
mkdir -p "$covdir/atpg1" "$covdir/atpg4"
SCFLOW_BENCH_DIR="$covdir/atpg1" SCFLOW_FAULT_THREADS=1 SCFLOW_ATPG_MIN=95 \
    cargo run --release --offline -p scflow-bench --bin tables -- --atpg
SCFLOW_BENCH_DIR="$covdir/atpg4" SCFLOW_FAULT_THREADS=4 SCFLOW_ATPG_MIN=95 \
    cargo run --release --offline -p scflow-bench --bin tables -- --atpg >/dev/null
cmp "$covdir/atpg1/METRICS.json" "$covdir/atpg4/METRICS.json"
echo "ok: ATPG >=95% on SRC, byte-identical at 1 and 4 fault threads"

echo "== ATPG coverage bench (BENCH_atpg.json) =="
# SRC plus a 10^4-gate generated netlist, each at 1 and 2 fault
# threads; the bench itself asserts the 95% SRC floor and equal results
# at both thread counts.
SCFLOW_BENCH_DIR="$covdir" \
    cargo bench --offline -q -p scflow-bench --bench atpg_coverage
test -s "$covdir/BENCH_atpg.json"
echo "ok: BENCH_atpg.json emitted (floor enforced by the bench)"

echo "== metrics overhead guard =="
# With metrics disabled the engines pay one branch per cycle for the
# observability layer; a fresh fig8 rtl_compiled measurement must stay
# within SCFLOW_PERF_TOL (default 5%) of the committed BENCH_fig8.json
# baseline, catching accidental per-instruction instrumentation. Widen
# the tolerance via SCFLOW_PERF_TOL when running on a machine slower
# than the one that recorded the baseline.
SCFLOW_BENCH_DIR="$covdir" \
    cargo run --release --offline -p scflow-bench --bin tables -- --fig8 > "$covdir/fig8.txt"
fresh_cps="$(awk '$1 == "RTL-compiled" { print $2 }' "$covdir/fig8.txt")"
base_cps="$(python3 - <<'EOF'
import json
for r in json.load(open("BENCH_fig8.json"))["results"]:
    if r["name"] == "rtl_compiled":
        print(r["cycles_per_sec"])
EOF
)"
python3 - "$fresh_cps" "$base_cps" <<'EOF'
import os, sys
fresh, base = float(sys.argv[1]), float(sys.argv[2])
tol = float(os.environ.get("SCFLOW_PERF_TOL", "0.05"))
floor = base * (1.0 - tol)
print(f"rtl_compiled: fresh {fresh:.0f} vs baseline {base:.0f} cycles/s "
      f"(floor {floor:.0f})")
if fresh < floor:
    sys.exit("error: metrics-disabled throughput regressed past tolerance")
print("ok: metrics-disabled throughput within tolerance")
EOF

echo "verify: OK"
