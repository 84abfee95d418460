//! The flow driver: refine → validate → synthesise → report.
//!
//! [`run_area_flow`] regenerates the paper's Figure 10 table (gate-level
//! area of every design variant relative to the VHDL reference, split
//! combinational/sequential, memories excluded, scan included);
//! [`validate_all_levels`] re-runs the bit-accuracy check of every
//! refinement step, which is the discipline the whole approach rests on.
//!
//! RTL validation runs on a selectable engine ([`SimEngine`]): the
//! tree-walking interpreter, the compiled levelized engine, or the
//! 64-lane bit-parallel executor (lane 0). All three are bit-identical,
//! so the choice only affects wall-clock time; the `SCFLOW_SIM_ENGINE`
//! environment variable picks the default. Snapshot-capable engines can
//! additionally amortise a shared warmup across many scenarios with
//! [`run_forked_scenarios`] (warm up once, snapshot, restore per
//! scenario).

use crate::config::SrcConfig;
use crate::models::beh::{synthesize_beh_src, BehVariant};
use crate::models::harness::{run_fixed, run_handshake};
use crate::models::rtl::{build_rtl_src, RtlVariant};
use crate::models::vhdl_ref::build_vhdl_ref;
use crate::verify::{compare_bit_accurate, GoldenVectors};
use scflow_gate::{fault, CellLibrary, GateNetlist, GateProgram, GateSim};
use scflow_hwtypes::PassConfig;
use scflow_obs::{MetricsRegistry, Profiler};
use scflow_rtl::{CompiledProgram, Module, RtlSim};
use scflow_synth::rtl::{synthesize, SynthOptions, SynthResult};
use std::fmt;

pub use crate::error::ScflowError;

/// Which RTL simulation engine the flow drives.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SimEngine {
    /// The per-cycle tree-walking interpreter ([`RtlSim`]) — the
    /// paper's "interpreted" data point and the reference semantics.
    #[default]
    Interpreted,
    /// The compiled executor ([`RtlExec`](scflow_rtl::RtlExec)) at one
    /// lane, [`CompiledSim`](scflow_rtl::CompiledSim) — one-time
    /// compilation to flat bytecode, then activity-gated re-evaluation.
    Compiled,
    /// The same executor at 64 lanes,
    /// [`BitRtlSim`](scflow_rtl::BitRtlSim). In the flow's
    /// single-stimulus harnesses it behaves as a lane-0 simulator
    /// (pokes broadcast, peeks read lane 0), byte-identical to the
    /// one-lane configuration; its 64 lanes pay off in scenario sweeps
    /// ([`run_forked_scenarios`]).
    BitParallel,
}

impl SimEngine {
    /// Reads the engine choice from the `SCFLOW_SIM_ENGINE` environment
    /// variable (`interpreted`, `compiled` or `rtl_bitpar`,
    /// case-insensitive). Unset or unrecognised values fall back to the
    /// default ([`SimEngine::Interpreted`]).
    pub fn from_env() -> Self {
        match std::env::var("SCFLOW_SIM_ENGINE") {
            Ok(v) if v.eq_ignore_ascii_case("compiled") => SimEngine::Compiled,
            Ok(v) if v.eq_ignore_ascii_case("rtl_bitpar") => SimEngine::BitParallel,
            _ => SimEngine::Interpreted,
        }
    }
}

impl fmt::Display for SimEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SimEngine::Interpreted => "interpreted",
            SimEngine::Compiled => "compiled",
            SimEngine::BitParallel => "rtl_bitpar",
        })
    }
}

/// Which gate-level simulation engine the flow drives.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum GateEngine {
    /// The event-driven four-valued simulator with transport delays
    /// ([`GateSim`]) — the reference semantics and the paper's slowest
    /// Figure 9 bars.
    #[default]
    EventDriven,
    /// The compiled bit-parallel engine in single-pattern mode
    /// ([`BitGateSim`](scflow_gate::BitGateSim)).
    BitParallel,
}

impl fmt::Display for GateEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            GateEngine::EventDriven => "event",
            GateEngine::BitParallel => "bitpar",
        })
    }
}

/// Configuration of the `scflow-serve` simulation service, following
/// the same knob convention as [`SimEngine::from_env`]: every field
/// has an `SCFLOW_*` environment variable and a safe default.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeOptions {
    /// TCP listen address (`SCFLOW_SERVE_ADDR`, e.g. `127.0.0.1:7450`).
    /// `None` — the default — serves the JSON-lines protocol over
    /// stdin/stdout instead of a socket.
    pub addr: Option<String>,
    /// Maximum concurrent sessions, each on its own worker thread
    /// (`SCFLOW_SERVE_THREADS`, default 4, clamped to 1..=64). Opening
    /// a session beyond the cap is refused with a `server_busy` error
    /// rather than queued, so a stuck client cannot wedge the pool.
    pub threads: usize,
    /// Compiled-design cache capacity in programs (`SCFLOW_CACHE_CAP`,
    /// default 8, minimum 1). Beyond it the least-recently-used entry
    /// not pinned by a live session is evicted.
    pub cache_cap: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: None,
            threads: 4,
            cache_cap: 8,
        }
    }
}

impl ServeOptions {
    /// Reads the service configuration from `SCFLOW_SERVE_ADDR`,
    /// `SCFLOW_SERVE_THREADS` and `SCFLOW_CACHE_CAP`. Unset, empty or
    /// unparsable values fall back to the defaults; out-of-range counts
    /// are clamped rather than rejected.
    pub fn from_env() -> Self {
        let d = ServeOptions::default();
        let addr = match std::env::var("SCFLOW_SERVE_ADDR") {
            Ok(v) if !v.trim().is_empty() => Some(v.trim().to_owned()),
            _ => None,
        };
        let threads = std::env::var("SCFLOW_SERVE_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .map_or(d.threads, |n| n.clamp(1, 64));
        let cache_cap = std::env::var("SCFLOW_CACHE_CAP")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .map_or(d.cache_cap, |n| n.max(1));
        ServeOptions {
            addr,
            threads,
            cache_cap,
        }
    }
}

/// One row of the Figure 10 table.
#[derive(Clone, Debug)]
pub struct AreaRow {
    /// Design name (paper's x-axis label).
    pub design: String,
    /// Combinational cell area, µm².
    pub combinational_um2: f64,
    /// Sequential (flip-flop) cell area, µm².
    pub sequential_um2: f64,
    /// Total relative to the VHDL reference, percent.
    pub relative_pct: f64,
    /// Flip-flop count.
    pub flops: usize,
    /// Total cell count.
    pub cells: usize,
    /// Critical path, ps.
    pub critical_path_ps: u64,
}

impl AreaRow {
    /// Total cell area, µm².
    pub fn total_um2(&self) -> f64 {
        self.combinational_um2 + self.sequential_um2
    }
}

/// The Figure 10 dataset.
#[derive(Clone, Debug)]
pub struct AreaFigure {
    /// Rows in the paper's order: VHDL-Ref, BEH unopt, BEH opt, RTL
    /// unopt, RTL opt.
    pub rows: Vec<AreaRow>,
}

impl fmt::Display for AreaFigure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<12} {:>12} {:>12} {:>10} {:>7} {:>7} {:>10}",
            "design", "comb um^2", "seq um^2", "rel %", "flops", "cells", "path ps"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<12} {:>12.1} {:>12.1} {:>10.1} {:>7} {:>7} {:>10}",
                r.design,
                r.combinational_um2,
                r.sequential_um2,
                r.relative_pct,
                r.flops,
                r.cells,
                r.critical_path_ps
            )?;
        }
        Ok(())
    }
}

fn synth_row(
    design: &str,
    module: &Module,
    lib: &CellLibrary,
) -> Result<(AreaRow, SynthResult), ScflowError> {
    let result = synthesize(module, lib, &SynthOptions::default())?;
    let row = AreaRow {
        design: design.to_owned(),
        combinational_um2: result.area.combinational_um2,
        sequential_um2: result.area.sequential_um2,
        relative_pct: 0.0, // filled once the reference is known
        flops: result.netlist.flop_count(),
        cells: result.area.cell_count(),
        critical_path_ps: result.timing.critical_path_ps,
    };
    Ok((row, result))
}

/// Synthesises all five Figure 10 designs and reports their areas
/// relative to the VHDL reference.
///
/// # Errors
///
/// Propagates construction and synthesis errors.
pub fn run_area_flow(cfg: &SrcConfig, lib: &CellLibrary) -> Result<AreaFigure, ScflowError> {
    let vhdl = build_vhdl_ref(cfg)?;
    let beh_unopt = synthesize_beh_src(cfg, BehVariant::Unoptimised)?.module;
    let beh_opt = synthesize_beh_src(cfg, BehVariant::Optimised)?.module;
    let rtl_unopt = build_rtl_src(cfg, RtlVariant::Unoptimised)?;
    let rtl_opt = build_rtl_src(cfg, RtlVariant::Optimised)?;

    let mut rows = Vec::new();
    let (ref_row, _) = synth_row("VHDL-Ref", &vhdl, lib)?;
    let ref_total = ref_row.total_um2();
    rows.push(ref_row);
    for (name, module) in [
        ("BEH unopt", &beh_unopt),
        ("BEH opt", &beh_opt),
        ("RTL unopt", &rtl_unopt),
        ("RTL opt", &rtl_opt),
    ] {
        let (row, _) = synth_row(name, module, lib)?;
        rows.push(row);
    }
    for r in &mut rows {
        r.relative_pct = 100.0 * r.total_um2() / ref_total;
    }
    Ok(AreaFigure { rows })
}

/// Upper bound on testbench cycles for a handshaked SRC module run.
pub fn cycle_budget(expected_outputs: usize) -> u64 {
    // Worst case per output: consume (2 beats with capture/store), the
    // MAC pipeline (up to 3 cycles per tap in the reference), output
    // handshake, plus generous FSM overhead for the behavioural schedules.
    (expected_outputs as u64 + 4) * 400
}

fn run_and_compare(
    sim: &mut (impl scflow_sim_api::Simulation + ?Sized),
    design: &str,
    golden: &GoldenVectors,
    fixed_mode: bool,
) -> Result<(), ScflowError> {
    let budget = cycle_budget(golden.len());
    let (outputs, _) = if fixed_mode {
        run_fixed(sim, &golden.input, golden.len(), budget)
    } else {
        run_handshake(sim, &golden.input, golden.len(), budget)
    };
    compare_bit_accurate(&golden.output, &outputs).map_err(|mismatch| ScflowError::Accuracy {
        design: design.to_owned(),
        mismatch,
    })
}

/// Validates one synthesisable module against the golden vectors on the
/// chosen RTL engine.
///
/// # Errors
///
/// Returns [`ScflowError::Accuracy`] on the first output mismatch, and
/// propagates compilation errors from the compiled engine.
pub fn validate_module_with(
    engine: SimEngine,
    design: &str,
    module: &Module,
    golden: &GoldenVectors,
    fixed_mode: bool,
) -> Result<(), ScflowError> {
    // The compile-pass pipeline is a flow-level knob (`SCFLOW_OPT`):
    // passes are semantics-preserving, so the level only affects
    // throughput, never the validation verdict. The interpreter has no
    // compile step and therefore no passes.
    let passes = PassConfig::from_env();
    match engine {
        SimEngine::Interpreted => {
            let mut sim = RtlSim::new(module);
            run_and_compare(&mut sim, design, golden, fixed_mode)
        }
        SimEngine::Compiled => {
            let program = CompiledProgram::compile_with(module, &passes)?;
            let mut sim = program.simulator();
            run_and_compare(&mut sim, design, golden, fixed_mode)
        }
        SimEngine::BitParallel => {
            let program = CompiledProgram::compile_with(module, &passes)?;
            let mut sim = program.bit_simulator();
            run_and_compare(&mut sim, design, golden, fixed_mode)
        }
    }
}

/// Validates one synthesisable module against the golden vectors on the
/// engine named by `SCFLOW_SIM_ENGINE` (interpreted by default).
///
/// # Errors
///
/// Returns [`ScflowError::Accuracy`] on the first output mismatch.
pub fn validate_module(
    design: &str,
    module: &Module,
    golden: &GoldenVectors,
    fixed_mode: bool,
) -> Result<(), ScflowError> {
    validate_module_with(SimEngine::from_env(), design, module, golden, fixed_mode)
}

/// Re-validates every synthesisable design of the flow against the golden
/// vectors (the paper's per-step bit-accuracy discipline, in one call),
/// on the chosen RTL engine.
///
/// # Errors
///
/// Returns the first failing design.
pub fn validate_all_levels_with(
    engine: SimEngine,
    cfg: &SrcConfig,
    input: &[i16],
) -> Result<(), ScflowError> {
    validate_all_levels_profiled(engine, cfg, input, &mut Profiler::new())
}

/// [`validate_all_levels_with`], with each design validation recorded as
/// a child span of the caller's currently open span.
fn validate_all_levels_profiled(
    engine: SimEngine,
    cfg: &SrcConfig,
    input: &[i16],
    prof: &mut Profiler,
) -> Result<(), ScflowError> {
    let golden = prof.scope("golden_vectors", |_| {
        GoldenVectors::generate(cfg, input.to_vec())
    });

    prof.scope("BEH unopt", |_| {
        let m = synthesize_beh_src(cfg, BehVariant::Unoptimised)?.module;
        validate_module_with(engine, "BEH unopt", &m, &golden, false)
    })?;
    prof.scope("BEH opt", |_| {
        let m = synthesize_beh_src(cfg, BehVariant::Optimised)?.module;
        validate_module_with(engine, "BEH opt", &m, &golden, true)
    })?;
    prof.scope("RTL unopt", |_| {
        let m = build_rtl_src(cfg, RtlVariant::Unoptimised)?;
        validate_module_with(engine, "RTL unopt", &m, &golden, false)
    })?;
    prof.scope("RTL opt", |_| {
        let m = build_rtl_src(cfg, RtlVariant::Optimised)?;
        validate_module_with(engine, "RTL opt", &m, &golden, false)
    })?;
    prof.scope("RTL buggy", |_| {
        let m = build_rtl_src(cfg, RtlVariant::OptimisedBuggy)?;
        validate_module_with(engine, "RTL buggy", &m, &golden, false)
    })?;
    prof.scope("VHDL-Ref", |_| {
        let m = build_vhdl_ref(cfg)?;
        validate_module_with(engine, "VHDL-Ref", &m, &golden, false)
    })?;
    Ok(())
}

/// Re-validates every synthesisable design on the engine named by
/// `SCFLOW_SIM_ENGINE` (interpreted by default).
///
/// # Errors
///
/// Returns the first failing design.
pub fn validate_all_levels(cfg: &SrcConfig, input: &[i16]) -> Result<(), ScflowError> {
    validate_all_levels_with(SimEngine::from_env(), cfg, input)
}

/// Why a fork-style scenario sweep stopped (see
/// [`run_forked_scenarios`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SweepError {
    /// The engine returned `None` from [`Simulation::snapshot`] — only
    /// snapshot-capable engines (the compiled RTL engines, the
    /// bit-parallel gate engine) can run forked sweeps.
    SnapshotUnsupported,
    /// [`Simulation::restore`] refused the warmup snapshot before this
    /// scenario index — should not happen for a blob the same engine
    /// just produced, so it indicates the engine was swapped or the
    /// blob was corrupted in between.
    RestoreFailed {
        /// Index into the scenario slice.
        scenario: usize,
    },
    /// A scenario's batch was rejected.
    Batch {
        /// Index into the scenario slice.
        scenario: usize,
        /// The engine's refusal.
        error: scflow_sim_api::BatchError,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::SnapshotUnsupported => f.write_str("engine does not support snapshots"),
            SweepError::RestoreFailed { scenario } => {
                write!(f, "warmup snapshot refused before scenario {scenario}")
            }
            SweepError::Batch { scenario, error } => {
                write!(f, "scenario {scenario} rejected: {error}")
            }
        }
    }
}

impl std::error::Error for SweepError {}

/// Runs a scenario sweep fork-style: `warmup` drives the engine to the
/// state every scenario shares (reset sequence, configuration, cache
/// fill — whatever is common), the helper snapshots that state once,
/// and each scenario then starts from a [`Simulation::restore`] of the
/// snapshot instead of paying the warmup again.
///
/// With `lanes` set, each scenario batch runs through
/// [`Simulation::step_batch_lanes`] — up to 64 independent stimulus
/// items in one engine pass on the lane-parallel engines. Without it,
/// scenarios run through the portable sequential
/// [`Simulation::step_batch`], where a batch's items thread state from
/// one to the next.
///
/// Returns one [`BatchReply`] per scenario; the engine is left in the
/// final state of the *last* scenario (no trailing restore).
///
/// # Errors
///
/// [`SweepError::SnapshotUnsupported`] if the engine cannot snapshot,
/// [`SweepError::RestoreFailed`] / [`SweepError::Batch`] on the first
/// scenario that fails (earlier replies are discarded).
pub fn run_forked_scenarios<S: scflow_sim_api::Simulation + ?Sized>(
    sim: &mut S,
    warmup: impl FnOnce(&mut S),
    scenarios: &[scflow_sim_api::StimulusBatch],
    lanes: bool,
) -> Result<Vec<scflow_sim_api::BatchReply>, SweepError> {
    warmup(sim);
    let snap = sim.snapshot().ok_or(SweepError::SnapshotUnsupported)?;
    let mut replies = Vec::with_capacity(scenarios.len());
    for (scenario, batch) in scenarios.iter().enumerate() {
        if !sim.restore(&snap) {
            return Err(SweepError::RestoreFailed { scenario });
        }
        let reply = if lanes {
            sim.step_batch_lanes(batch)
        } else {
            sim.step_batch(batch)
        };
        replies.push(reply.map_err(|error| SweepError::Batch { scenario, error })?);
    }
    Ok(replies)
}

/// Holds the scan interface inactive so a scan-stitched netlist behaves
/// functionally under the plain handshake testbench.
fn tie_off_scan(sim: &mut (impl scflow_sim_api::Simulation + ?Sized)) {
    use scflow_hwtypes::Bv;
    for port in ["scan_en", "scan_in", "test_mode"] {
        if sim.has_input(port) {
            sim.poke(port, Bv::zero(1));
        }
    }
}

/// Validates a synthesized gate netlist against the golden vectors on the
/// chosen gate-level engine (scan held inactive).
///
/// # Errors
///
/// Returns [`ScflowError::Accuracy`] on the first output mismatch, and
/// propagates [`GateError::CombLoop`](scflow_gate::GateError) from the
/// compiled engine.
pub fn validate_gate_level_with(
    engine: GateEngine,
    design: &str,
    netlist: &GateNetlist,
    lib: &CellLibrary,
    golden: &GoldenVectors,
) -> Result<(), ScflowError> {
    // Same `SCFLOW_OPT` knob as the RTL path: optimize the netlist
    // before handing it to any engine. The passes keep every observed
    // output and the scan chain, so the verdict cannot change. (The
    // fault flow never optimizes — collapsed cells would hide fault
    // sites.)
    let passes = PassConfig::from_env();
    let optimized;
    let netlist = if passes.any() {
        optimized = scflow_gate::optimize(netlist, &passes)?.netlist;
        &optimized
    } else {
        netlist
    };
    match engine {
        GateEngine::EventDriven => {
            let mut sim = GateSim::new(netlist, lib);
            tie_off_scan(&mut sim);
            run_and_compare(&mut sim, design, golden, false)
        }
        GateEngine::BitParallel => {
            let program = GateProgram::compile(netlist)?;
            let mut sim = program.simulator();
            tie_off_scan(&mut sim);
            run_and_compare(&mut sim, design, golden, false)
        }
    }
}

/// The result of the scan-test fault-coverage flow.
///
/// Coverage is reported over *collapsed* fault classes
/// ([`fault::collapse_faults`]): structurally equivalent faults share
/// every detecting pattern, so counting each class once is both cheaper
/// to simulate and the honest denominator. `uncollapsed` records the raw
/// two-per-cell-output list size for comparison with the paper's counts.
#[derive(Clone, Debug)]
pub struct FaultReport {
    /// Design name.
    pub design: String,
    /// Collapsed fault classes simulated.
    pub faults: usize,
    /// Raw fault-site count before collapsing (two per cell output).
    pub uncollapsed: usize,
    /// Fault classes detected by the pattern set.
    pub detected: usize,
    /// Detected / total, percent.
    pub coverage_pct: f64,
    /// PPSFP worker threads used.
    pub threads: usize,
    /// Scan patterns applied.
    pub patterns: usize,
}

impl fmt::Display for FaultReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<12} {:>8} {:>6} {:>9} {:>10} {:>9} {:>8}",
            "design", "faults", "(raw)", "detected", "coverage", "patterns", "threads"
        )?;
        writeln!(
            f,
            "{:<12} {:>8} {:>6} {:>9} {:>9.1}% {:>9} {:>8}",
            self.design,
            self.faults,
            self.uncollapsed,
            self.detected,
            self.coverage_pct,
            self.patterns,
            self.threads
        )
    }
}

/// Runs the scan-test fault-coverage flow on the optimised RTL SRC:
/// synthesise (scan stitched in by default), enumerate the single-stuck-at
/// fault list, generate `n_patterns` pseudo-random scan patterns, and
/// measure coverage with PPSFP on [`fault::fault_threads`] workers
/// (`SCFLOW_FAULT_THREADS`).
///
/// # Errors
///
/// Propagates construction and synthesis errors.
pub fn run_fault_flow(
    cfg: &SrcConfig,
    lib: &CellLibrary,
    n_patterns: usize,
    seed: u64,
) -> Result<FaultReport, ScflowError> {
    run_fault_flow_instrumented(cfg, lib, n_patterns, seed).map(|(report, _)| report)
}

/// [`run_fault_flow`] plus the fault simulator's run instrumentation
/// (per-shard timing and the fault-drop-rate curve).
///
/// # Errors
///
/// Propagates construction and synthesis errors.
pub fn run_fault_flow_instrumented(
    cfg: &SrcConfig,
    lib: &CellLibrary,
    n_patterns: usize,
    seed: u64,
) -> Result<(FaultReport, fault::FaultSimStats), ScflowError> {
    let module = build_rtl_src(cfg, RtlVariant::Optimised)?;
    let netlist = synthesize(&module, lib, &SynthOptions::default())?.netlist;
    let all = fault::all_fault_sites(&netlist);
    let collapsed = fault::collapse_faults(&netlist, &all);
    let patterns = fault::random_patterns(&netlist, n_patterns, seed);
    let threads = fault::fault_threads();
    let (result, stats) = fault::fault_coverage_instrumented_with_threads(
        &netlist,
        lib,
        &collapsed.faults,
        &patterns,
        threads,
    );
    let report = FaultReport {
        design: "RTL opt".to_owned(),
        faults: result.total,
        uncollapsed: all.len(),
        detected: result.detected,
        coverage_pct: result.coverage_pct(),
        threads,
        patterns: patterns.len(),
    };
    Ok((report, stats))
}

/// The result of the ATPG flow: staged pattern generation
/// ([`scflow_gate::generate_tests`]) against the collapsed stuck-at
/// fault list of the synthesized optimised RTL SRC.
#[derive(Clone, Debug)]
pub struct AtpgReport {
    /// Design name.
    pub design: String,
    /// Collapsed fault classes targeted.
    pub faults: usize,
    /// Raw fault-site count before collapsing.
    pub uncollapsed: usize,
    /// Classes with a simulation-verified detecting pattern.
    pub detected: usize,
    /// Classes proven untestable by exhausted PODEM search.
    pub untestable: usize,
    /// Classes given up (budget, or unsound-to-prove).
    pub aborted: usize,
    /// Detected / total, percent (stuck-at fault coverage).
    pub coverage_pct: f64,
    /// Detected / (total − untestable), percent.
    pub test_coverage_pct: f64,
    /// Patterns in the final (compacted) test set.
    pub patterns: usize,
    /// PPSFP worker threads used for simulation stages.
    pub threads: usize,
    /// Coverage-vs-pattern-count checkpoints per stage.
    pub curve: Vec<scflow_gate::CurvePoint>,
}

impl fmt::Display for AtpgReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<12} {:>7} {:>6} {:>9} {:>11} {:>8} {:>9} {:>9} {:>8}",
            "design",
            "faults",
            "(raw)",
            "detected",
            "untestable",
            "aborted",
            "coverage",
            "patterns",
            "threads"
        )?;
        writeln!(
            f,
            "{:<12} {:>7} {:>6} {:>9} {:>11} {:>8} {:>8.1}% {:>9} {:>8}",
            self.design,
            self.faults,
            self.uncollapsed,
            self.detected,
            self.untestable,
            self.aborted,
            self.coverage_pct,
            self.patterns,
            self.threads
        )?;
        writeln!(f, "\ncoverage curve (stage, patterns, detected):")?;
        for p in &self.curve {
            writeln!(f, "  {:<9} {:>6} {:>7}", p.stage, p.patterns, p.detected)?;
        }
        Ok(())
    }
}

/// Runs the ATPG flow on the optimised RTL SRC: synthesise (scan
/// stitched in by default), collapse the stuck-at fault list, and run
/// the staged generator (random rounds with fault dropping, directed
/// PODEM for the remainder, reverse-order compaction). Returns the
/// summary report plus the full [`scflow_gate::AtpgResult`] (patterns,
/// per-fault classes, deterministic stats).
///
/// # Errors
///
/// Propagates construction and synthesis errors.
pub fn run_atpg_flow(
    cfg: &SrcConfig,
    lib: &CellLibrary,
    opts: &scflow_gate::AtpgOptions,
) -> Result<(AtpgReport, scflow_gate::AtpgResult), ScflowError> {
    let module = build_rtl_src(cfg, RtlVariant::Optimised)?;
    let netlist = synthesize(&module, lib, &SynthOptions::default())?.netlist;
    let all = fault::all_fault_sites(&netlist);
    let collapsed = fault::collapse_faults(&netlist, &all);
    let result = scflow_gate::generate_tests(&netlist, lib, &collapsed.faults, opts);
    let report = AtpgReport {
        design: "RTL opt".to_owned(),
        faults: collapsed.faults.len(),
        uncollapsed: all.len(),
        detected: result.detected(),
        untestable: result.untestable(),
        aborted: result.aborted(),
        coverage_pct: result.coverage_pct(),
        test_coverage_pct: result.test_coverage_pct(),
        patterns: result.patterns.len(),
        threads: fault::fault_threads(),
        curve: result.stats.curve.clone(),
    };
    Ok((report, result))
}

/// A profiled end-to-end flow run: wall-clock phase spans plus the
/// deterministic metrics the phases produced.
///
/// The three flow phases are root spans of `profiler`, so
/// [`Profiler::total_ns`] equals their sum by construction; each design
/// validated by the first phase appears as a child span.
#[derive(Clone, Debug)]
pub struct FlowProfile {
    /// The Figure 10 area table from the `run_area_flow` phase.
    pub area: AreaFigure,
    /// The fault-coverage report from the `run_fault_flow` phase.
    pub fault: FaultReport,
    /// Fault-simulator instrumentation (shard timing, drop curve).
    pub fault_stats: fault::FaultSimStats,
    /// Phase spans: `validate_all_levels`, `run_area_flow`,
    /// `run_fault_flow`, with per-design children under the first.
    pub profiler: Profiler,
    /// Deterministic quantities gathered along the way (fault drop
    /// curve, pattern/design counts) — wall times stay in `profiler`.
    pub metrics: MetricsRegistry,
}

impl FlowProfile {
    /// Total profiled wall time, nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.profiler.total_ns()
    }

    /// Human-readable span tree.
    pub fn report(&self) -> String {
        self.profiler.report()
    }
}

/// Runs the complete flow — refinement validation on the engine named by
/// `SCFLOW_SIM_ENGINE`, the Figure 10 area table, and the scan-test
/// fault-coverage flow — with every phase profiled.
///
/// # Errors
///
/// Returns the first failing phase's error.
pub fn profile_flow(
    cfg: &SrcConfig,
    lib: &CellLibrary,
    input: &[i16],
    n_patterns: usize,
    seed: u64,
) -> Result<FlowProfile, ScflowError> {
    let engine = SimEngine::from_env();
    let mut prof = Profiler::new();
    prof.scope("validate_all_levels", |p| {
        validate_all_levels_profiled(engine, cfg, input, p)
    })?;
    let area = prof.scope("run_area_flow", |_| run_area_flow(cfg, lib))?;
    let (fault, fault_stats) = prof.scope("run_fault_flow", |p| {
        let r = run_fault_flow_instrumented(cfg, lib, n_patterns, seed);
        if let Ok((_, stats)) = &r {
            // Shards run concurrently, so these child spans may sum to
            // more than the phase span; they are wall-clock, like all
            // profiler spans, and stay out of the metrics registry.
            for (i, &ns) in stats.shard_wall_ns.iter().enumerate() {
                p.record(&format!("fault_shard_{i}"), ns);
            }
        }
        r
    })?;

    let mut metrics = MetricsRegistry::new();
    fault_stats.register_into(&mut metrics, &format!("fault.{}", fault_stats.engine));
    metrics.set_counter("flow.designs_validated", 6);
    metrics.set_counter("flow.input_samples", input.len() as u64);
    metrics.set_counter("flow.scan_patterns", fault.patterns as u64);
    metrics.set_counter("flow.fault_sites", fault.faults as u64);
    metrics.set_counter("flow.faults_detected", fault.detected as u64);
    Ok(FlowProfile {
        area,
        fault,
        fault_stats,
        profiler: prof,
        metrics,
    })
}
