//! Shared measurement harness behind the figure benches and the
//! `tables` binary that regenerate the paper's figures.
//!
//! * [`measure_fig8`] — simulation performance (simulated clock cycles per
//!   wall-clock second, 25 MHz equivalent for unclocked models) across the
//!   abstraction levels.
//! * [`measure_fig9`] — the three HDL artefacts, each in the interpreted
//!   "VHDL testbench" and in the compiled "SystemC testbench"
//!   (co-simulation).
//! * [`measure_fig10`] — the gate-level area table (via
//!   [`scflow::flow::run_area_flow`]).
//! * `ablation_*` — per-knob syntheses for the design-choice tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use scflow::algo::AlgoSrc;
use scflow::models::beh::{beh_options, beh_program, run_beh_model, BehVariant, CLOCK_PERIOD};
use scflow::models::channel::run_channel_model;
use scflow::models::harness::run_handshake;
use scflow::models::refined::run_refined_model;
use scflow::models::rtl::{build_rtl_src, run_rtl_model, RtlVariant};
use scflow::verify::GoldenVectors;
use scflow::{stimulus, SrcConfig};
use scflow_cosim::{run_kernel_cosim, run_native_hdl, run_native_hdl_compiled, CosimRun};
use scflow_gate::fault;
use scflow_gate::{CellLibrary, GateProgram, GateSim};
use scflow_rtl::{CompiledProgram, RtlSim};
use scflow_synth::beh::synthesize_beh;
use scflow_synth::rtl::{synthesize, SynthOptions};
use std::time::Instant;

/// One bar of Figure 8.
#[derive(Clone, Debug)]
pub struct Fig8Row {
    /// Model name (x-axis label).
    pub model: &'static str,
    /// Simulated 25 MHz-equivalent clock cycles per wall second.
    pub cycles_per_sec: f64,
    /// Wall time of the measured run.
    pub wall: std::time::Duration,
    /// Output samples produced (work done).
    pub outputs: usize,
}

/// Measures the simulation performance of every abstraction level.
///
/// `scale` multiplies the per-model workload sizes (1 = quick, 10 =
/// steady numbers).
pub fn measure_fig8(cfg: &SrcConfig, scale: usize) -> Vec<Fig8Row> {
    let mut rows = Vec::new();

    // C++ (algorithmic): pure compiled model; simulated time is the
    // audio time covered, scaled to 25 MHz cycles like the paper.
    {
        let input = stimulus::sine(20_000 * scale, 1000.0, f64::from(cfg.in_rate), 9000.0);
        let mut src = AlgoSrc::new(cfg);
        let t0 = Instant::now();
        let out = src.process(&input);
        let wall = t0.elapsed();
        let seconds_covered = out.len() as f64 / f64::from(cfg.out_rate);
        let cycles = seconds_covered * 25e6;
        rows.push(Fig8Row {
            model: "C++",
            cycles_per_sec: cycles / wall.as_secs_f64().max(1e-12),
            wall,
            outputs: out.len(),
        });
    }

    // SystemC with channels.
    {
        let input = stimulus::sine(2_000 * scale, 1000.0, f64::from(cfg.in_rate), 9000.0);
        let t0 = Instant::now();
        let run = run_channel_model(cfg, &input);
        let wall = t0.elapsed();
        rows.push(Fig8Row {
            model: "SystemC",
            cycles_per_sec: run.cycles_per_second(wall, CLOCK_PERIOD),
            wall,
            outputs: run.outputs.len(),
        });
    }

    // Refined channel.
    {
        let input = stimulus::sine(2_000 * scale, 1000.0, f64::from(cfg.in_rate), 9000.0);
        let t0 = Instant::now();
        let run = run_refined_model(cfg, &input);
        let wall = t0.elapsed();
        rows.push(Fig8Row {
            model: "SystemC-ref",
            cycles_per_sec: run.cycles_per_second(wall, CLOCK_PERIOD),
            wall,
            outputs: run.outputs.len(),
        });
    }

    // Behavioural (clocked kernel model).
    {
        let input = stimulus::sine(400 * scale, 1000.0, f64::from(cfg.in_rate), 9000.0);
        let t0 = Instant::now();
        let run = run_beh_model(cfg, &input);
        let wall = t0.elapsed();
        rows.push(Fig8Row {
            model: "BEH",
            cycles_per_sec: run.cycles_per_second(wall, CLOCK_PERIOD),
            wall,
            outputs: run.outputs.len(),
        });
    }

    // RTL (clocked two-process kernel model).
    {
        let input = stimulus::sine(400 * scale, 1000.0, f64::from(cfg.in_rate), 9000.0);
        let t0 = Instant::now();
        let run = run_rtl_model(cfg, &input);
        let wall = t0.elapsed();
        rows.push(Fig8Row {
            model: "RTL",
            cycles_per_sec: run.cycles_per_second(wall, CLOCK_PERIOD),
            wall,
            outputs: run.outputs.len(),
        });
    }

    // The synthesisable RTL module on both unified-API engines: the
    // tree-walking interpreter and the compiled levelized engine. Appended
    // after the paper's five bars so Figure 8's original ordering reads
    // off the leading rows unchanged.
    {
        let input = stimulus::sine(400 * scale, 1000.0, f64::from(cfg.in_rate), 9000.0);
        let golden = GoldenVectors::generate(cfg, input.clone());
        let module = build_rtl_src(cfg, RtlVariant::Optimised).expect("rtl module");
        let budget = scflow::flow::cycle_budget(golden.len());

        let t0 = Instant::now();
        let mut sim = RtlSim::new(&module);
        let (out, cycles) = run_handshake(&mut sim, &input, golden.len(), budget);
        let wall = t0.elapsed();
        assert_eq!(out, golden.output, "interpreted engine diverged");
        rows.push(Fig8Row {
            model: "RTL-interp",
            cycles_per_sec: cycles as f64 / wall.as_secs_f64().max(1e-12),
            wall,
            outputs: out.len(),
        });

        let t0 = Instant::now();
        let program = CompiledProgram::compile(&module).expect("rtl compiles");
        let mut sim = program.simulator();
        let (out, cycles) = run_handshake(&mut sim, &input, golden.len(), budget);
        let wall = t0.elapsed();
        assert_eq!(out, golden.output, "compiled engine diverged");
        rows.push(Fig8Row {
            model: "RTL-compiled",
            cycles_per_sec: cycles as f64 / wall.as_secs_f64().max(1e-12),
            wall,
            outputs: out.len(),
        });
    }

    rows
}

/// Result of the interpreted-vs-compiled engine sanity race.
#[derive(Clone, Copy, Debug)]
pub struct EngineCheck {
    /// Interpreter throughput, simulated cycles per wall second.
    pub interpreted_cps: f64,
    /// Compiled-engine throughput, simulated cycles per wall second.
    pub compiled_cps: f64,
}

impl EngineCheck {
    /// Compiled throughput over interpreted throughput.
    pub fn speedup(&self) -> f64 {
        self.compiled_cps / self.interpreted_cps.max(1e-12)
    }
}

/// Races the compiled levelized engine against the tree-walking
/// interpreter on the optimised RTL SRC (best of 3 each), asserting
/// bit-identical outputs. Used by `tables --check-engines` and
/// `scripts/verify.sh` to catch a compiled engine that has become slower
/// than the interpreter.
pub fn check_engines(cfg: &SrcConfig, n_inputs: usize) -> EngineCheck {
    let input = stimulus::sine(n_inputs, 1000.0, f64::from(cfg.in_rate), 9000.0);
    let golden = GoldenVectors::generate(cfg, input.clone());
    let module = build_rtl_src(cfg, RtlVariant::Optimised).expect("rtl module");
    let budget = scflow::flow::cycle_budget(golden.len());
    const REPS: usize = 3;

    let best = |mut run: Box<dyn FnMut() -> (Vec<i16>, u64)>| -> f64 {
        let mut top = f64::NEG_INFINITY;
        for _ in 0..REPS {
            let t0 = Instant::now();
            let (out, cycles) = run();
            let rate = cycles as f64 / t0.elapsed().as_secs_f64().max(1e-12);
            assert_eq!(out, golden.output, "engine diverged from golden vectors");
            top = top.max(rate);
        }
        top
    };

    let interpreted_cps = best(Box::new(|| {
        run_handshake(&mut RtlSim::new(&module), &input, golden.len(), budget)
    }));
    let compiled_cps = best(Box::new(|| {
        let program = CompiledProgram::compile(&module).expect("rtl compiles");
        run_handshake(&mut program.simulator(), &input, golden.len(), budget)
    }));
    EngineCheck {
        interpreted_cps,
        compiled_cps,
    }
}

/// One bar pair of Figure 9.
#[derive(Clone, Debug)]
pub struct Fig9Row {
    /// DUT artefact name.
    pub dut: &'static str,
    /// Testbench configuration.
    pub testbench: &'static str,
    /// Simulated clock cycles per wall second.
    pub cycles_per_sec: f64,
    /// Cycles simulated.
    pub cycles: u64,
}

/// Measures native-HDL vs SystemC-testbench co-simulation for the three
/// HDL artefacts of the flow.
pub fn measure_fig9(cfg: &SrcConfig, n_inputs: usize) -> Vec<Fig9Row> {
    let lib = CellLibrary::generic_025u();
    let input = stimulus::sine(n_inputs, 1000.0, f64::from(cfg.in_rate), 9000.0);
    let golden = GoldenVectors::generate(cfg, input);
    let budget = 10_000_000;

    let rtl_module = build_rtl_src(cfg, RtlVariant::Optimised).expect("rtl");
    // The behavioural-flow artefact with the handshake interface the
    // testbenches drive (the optimised program, superstate-scheduled).
    let beh_module = {
        let mut opts = beh_options(BehVariant::Optimised);
        opts.mode = scflow_synth::beh::SchedulingMode::Superstate;
        synthesize_beh(&beh_program(cfg, BehVariant::Optimised), &opts)
            .expect("beh")
            .module
    };
    let gate_beh = synthesize(&beh_module, &lib, &SynthOptions::default())
        .expect("synth beh")
        .netlist;
    let gate_rtl = synthesize(&rtl_module, &lib, &SynthOptions::default())
        .expect("synth rtl")
        .netlist;

    // Best-of-3 per configuration: single runs are noise-dominated for
    // the short workloads the gate simulators allow.
    const REPS: usize = 3;
    let mut rows = Vec::new();
    let mut measure = |dut: &'static str, tb: &'static str, mut run: Box<dyn FnMut() -> u64>| {
        let mut best = f64::NEG_INFINITY;
        let mut cycles = 0;
        for _ in 0..REPS {
            let t0 = Instant::now();
            let c = run();
            let rate = c as f64 / t0.elapsed().as_secs_f64().max(1e-12);
            if rate > best {
                best = rate;
                cycles = c;
            }
        }
        rows.push(Fig9Row {
            dut,
            testbench: tb,
            cycles_per_sec: best,
            cycles,
        });
    };

    // RTL artefact (interpreted RTL = the synthesis tool's Verilog).
    measure(
        "RTL",
        "VHDL-TB",
        Box::new(|| run_native_hdl(&mut RtlSim::new(&rtl_module), &golden, budget).cycles),
    );
    measure(
        "RTL",
        "SystemC-TB",
        Box::new(|| run_kernel_cosim(&mut RtlSim::new(&rtl_module), &golden, budget).cycles),
    );
    // Gate-level artefacts. Simulators are constructed once and reset per
    // iteration, so the timed region holds simulation only (construction
    // inside the closure used to fold netlist setup into the throughput).
    let mut gate_beh_event = GateSim::new(&gate_beh, &lib);
    measure(
        "Gate-BEH",
        "VHDL-TB",
        Box::new(|| {
            gate_beh_event.reset();
            run_native_hdl(&mut gate_beh_event, &golden, budget).cycles
        }),
    );
    let mut gate_beh_event = GateSim::new(&gate_beh, &lib);
    measure(
        "Gate-BEH",
        "SystemC-TB",
        Box::new(|| {
            gate_beh_event.reset();
            run_kernel_cosim(&mut gate_beh_event, &golden, budget).cycles
        }),
    );
    let mut gate_rtl_event = GateSim::new(&gate_rtl, &lib);
    measure(
        "Gate-RTL",
        "VHDL-TB",
        Box::new(|| {
            gate_rtl_event.reset();
            run_native_hdl(&mut gate_rtl_event, &golden, budget).cycles
        }),
    );
    let mut gate_rtl_event = GateSim::new(&gate_rtl, &lib);
    measure(
        "Gate-RTL",
        "SystemC-TB",
        Box::new(|| {
            gate_rtl_event.reset();
            run_kernel_cosim(&mut gate_rtl_event, &golden, budget).cycles
        }),
    );
    // The RTL artefact on the compiled levelized engine, appended after
    // the paper's six bars so Figure 9's original ordering is untouched.
    // The native-HDL row compiles the testbench too (the all-compiled
    // configuration); with only the DUT swapped the interpreted testbench
    // dominates the cycle and hides the engine.
    let rtl_program = CompiledProgram::compile(&rtl_module).expect("rtl compiles");
    measure(
        "RTL-comp",
        "VHDL-TB",
        Box::new(|| run_native_hdl_compiled(&mut rtl_program.simulator(), &golden, budget).cycles),
    );
    measure(
        "RTL-comp",
        "SystemC-TB",
        Box::new(|| run_kernel_cosim(&mut rtl_program.simulator(), &golden, budget).cycles),
    );
    // The gate-level RTL artefact on the compiled bit-parallel engine in
    // single-pattern mode, likewise appended after the paper's bars.
    // Same netlist, same testbenches, so the rows read directly against
    // the Gate-RTL bars above.
    let gate_rtl_prog = GateProgram::compile(&gate_rtl).expect("gate netlist compiles");
    let mut gate_rtl_bitpar = gate_rtl_prog.simulator();
    measure(
        "Gate-bitpar",
        "VHDL-TB",
        Box::new(|| {
            gate_rtl_bitpar.reset();
            run_native_hdl(&mut gate_rtl_bitpar, &golden, budget).cycles
        }),
    );
    let mut gate_rtl_bitpar = gate_rtl_prog.simulator();
    measure(
        "Gate-bitpar",
        "SystemC-TB",
        Box::new(|| {
            gate_rtl_bitpar.reset();
            run_kernel_cosim(&mut gate_rtl_bitpar, &golden, budget).cycles
        }),
    );
    rows
}

/// Result of the gate-engine sanity race plus the PPSFP fault-simulation
/// cross-check (`tables --check-gate`).
#[derive(Clone, Debug)]
pub struct GateEngineCheck {
    /// Event-driven engine throughput, simulated cycles per wall second.
    pub event_cps: f64,
    /// Compiled bit-parallel engine throughput (single-pattern mode).
    pub bitpar_cps: f64,
    /// Wall time of serial per-fault coverage on the fault subset.
    pub fault_serial_wall: std::time::Duration,
    /// Wall time of PPSFP coverage on the same subset.
    pub fault_ppsfp_wall: std::time::Duration,
    /// Coverage on the subset (identical for both, asserted).
    pub coverage_pct: f64,
    /// Whether the PPSFP per-fault detection mask matched the serial one.
    pub coverage_matches: bool,
    /// Faults in the subset.
    pub faults: usize,
    /// Scan patterns applied.
    pub patterns: usize,
}

impl GateEngineCheck {
    /// Bit-parallel over event-driven cosimulation throughput.
    pub fn dut_speedup(&self) -> f64 {
        self.bitpar_cps / self.event_cps.max(1e-12)
    }

    /// Serial over PPSFP fault-simulation wall time.
    pub fn fault_speedup(&self) -> f64 {
        self.fault_serial_wall.as_secs_f64() / self.fault_ppsfp_wall.as_secs_f64().max(1e-12)
    }
}

/// Races the two gate-level engines on the synthesized RTL SRC (best of
/// 3 each, bit-identical outputs asserted), then cross-checks PPSFP fault
/// simulation against the serial per-fault reference on a fault subset.
/// Used by `tables --check-gate` and `scripts/verify.sh` to catch a
/// bit-parallel engine that is slower than the event-driven one or that
/// detects a different fault set.
pub fn check_gate_engines(cfg: &SrcConfig, n_inputs: usize) -> GateEngineCheck {
    let lib = CellLibrary::generic_025u();
    let input = stimulus::sine(n_inputs, 1000.0, f64::from(cfg.in_rate), 9000.0);
    let golden = GoldenVectors::generate(cfg, input);
    let budget = 10_000_000;
    let rtl_module = build_rtl_src(cfg, RtlVariant::Optimised).expect("rtl");
    let gate_rtl = synthesize(&rtl_module, &lib, &SynthOptions::default())
        .expect("synth rtl")
        .netlist;
    const REPS: usize = 3;

    let best = |run: &mut dyn FnMut() -> CosimRun| -> f64 {
        let mut top = f64::NEG_INFINITY;
        for _ in 0..REPS {
            let t0 = Instant::now();
            let r = run();
            let rate = r.cycles as f64 / t0.elapsed().as_secs_f64().max(1e-12);
            assert_eq!(r.outputs, golden.output, "gate engine diverged from golden");
            assert_eq!(r.testbench_errors, 0, "gate engine raised testbench errors");
            top = top.max(rate);
        }
        top
    };

    let mut event = GateSim::new(&gate_rtl, &lib);
    let event_cps = best(&mut || {
        event.reset();
        run_native_hdl(&mut event, &golden, budget)
    });
    let prog = GateProgram::compile(&gate_rtl).expect("gate netlist compiles");
    let mut bitpar = prog.simulator();
    let bitpar_cps = best(&mut || {
        bitpar.reset();
        run_native_hdl(&mut bitpar, &golden, budget)
    });

    // Fault-simulation cross-check: a strided fault subset keeps the
    // serial per-fault reference affordable while still exercising the
    // whole netlist depth.
    let all = fault::all_fault_sites(&gate_rtl);
    let stride = (all.len() / 24).max(1);
    let subset: Vec<_> = all.into_iter().step_by(stride).collect();
    let patterns = fault::random_patterns(&gate_rtl, 8, 0x5EED_CAFE);

    let t0 = Instant::now();
    let serial = fault::fault_coverage_serial(&gate_rtl, &lib, &subset, &patterns);
    let fault_serial_wall = t0.elapsed();
    let t0 = Instant::now();
    let ppsfp = fault::fault_coverage(&gate_rtl, &lib, &subset, &patterns);
    let fault_ppsfp_wall = t0.elapsed();

    GateEngineCheck {
        event_cps,
        bitpar_cps,
        fault_serial_wall,
        fault_ppsfp_wall,
        coverage_pct: ppsfp.coverage_pct(),
        coverage_matches: ppsfp.detected_mask == serial.detected_mask,
        faults: subset.len(),
        patterns: patterns.len(),
    }
}

/// One engine row of `tables --check-opt`: the same golden-model run
/// with the pass pipeline off and at level 2.
#[derive(Clone, Debug)]
pub struct OptCheckRow {
    /// Engine name.
    pub engine: &'static str,
    /// Throughput with passes off, simulated cycles per wall second.
    pub off_cps: f64,
    /// Throughput at pass level 2.
    pub on_cps: f64,
}

impl OptCheckRow {
    /// Passes-on over passes-off throughput.
    pub fn speedup(&self) -> f64 {
        self.on_cps / self.off_cps.max(1e-12)
    }
}

/// Re-runs the golden-model comparison on every compiled engine with
/// the pass pipeline off and at level 2. Both variants must reproduce
/// the golden outputs bit-for-bit (asserted), which pins the passes as
/// semantics-preserving on the flow's own design; the returned rows
/// carry the throughput pair per engine. Used by `tables --check-opt`
/// and `scripts/verify.sh`.
pub fn check_opt(cfg: &SrcConfig, n_inputs: usize) -> Vec<OptCheckRow> {
    let lib = CellLibrary::generic_025u();
    let passes = scflow_hwtypes::PassConfig::for_level(2);
    let input = stimulus::sine(n_inputs, 1000.0, f64::from(cfg.in_rate), 9000.0);
    let golden = GoldenVectors::generate(cfg, input);
    let budget = 10_000_000;
    let module = build_rtl_src(cfg, RtlVariant::Optimised).expect("rtl");
    let netlist = synthesize(&module, &lib, &SynthOptions::default())
        .expect("synth rtl")
        .netlist;
    let opt_nl = scflow_gate::optimize(&netlist, &passes)
        .expect("gate passes run")
        .netlist;

    let mut rows: Vec<OptCheckRow> = Vec::new();
    let mut measure = |engine: &'static str, run: &mut dyn FnMut(bool) -> CosimRun| {
        let mut cps = [0.0f64; 2];
        for (i, on) in [false, true].into_iter().enumerate() {
            let t0 = Instant::now();
            let r = run(on);
            cps[i] = r.cycles as f64 / t0.elapsed().as_secs_f64().max(1e-12);
            assert_eq!(
                r.outputs,
                golden.output,
                "{engine} (passes {}) diverged from golden",
                if on { "on" } else { "off" }
            );
            assert_eq!(r.testbench_errors, 0, "{engine} raised testbench errors");
        }
        rows.push(OptCheckRow {
            engine,
            off_cps: cps[0],
            on_cps: cps[1],
        });
    };

    let p0 = CompiledProgram::compile(&module).expect("rtl compiles");
    let p2 = CompiledProgram::compile_with(&module, &passes).expect("rtl compiles with passes");
    measure("rtl.compiled", &mut |on| {
        let mut sim = if on { p2.simulator() } else { p0.simulator() };
        run_native_hdl(&mut sim, &golden, budget)
    });
    measure("rtl.bitpar", &mut |on| {
        let mut sim = if on {
            p2.bit_simulator()
        } else {
            p0.bit_simulator()
        };
        run_native_hdl(&mut sim, &golden, budget)
    });
    let g0 = GateProgram::compile(&netlist).expect("gate compiles");
    let g2 = GateProgram::compile(&opt_nl).expect("optimized gate compiles");
    measure("gate.bitpar", &mut |on| {
        let prog = if on { &g2 } else { &g0 };
        let mut sim = prog.simulator();
        run_native_hdl(&mut sim, &golden, budget)
    });
    rows
}

/// Netlist statistics rows for `tables --netlist-stats`: the
/// synthesized SRC netlist and a generated 10^4-gate pipeline, each
/// before and after the level-2 pass pipeline. The registry carries
/// the same numbers under stable `netlist.<design>.*` metric names.
pub fn netlist_stats(
    cfg: &SrcConfig,
) -> (
    Vec<(String, scflow_gate::NetlistStats)>,
    scflow_obs::MetricsRegistry,
) {
    let lib = CellLibrary::generic_025u();
    let passes = scflow_hwtypes::PassConfig::for_level(2);
    let module = build_rtl_src(cfg, RtlVariant::Optimised).expect("rtl");
    let src_nl = synthesize(&module, &lib, &SynthOptions::default())
        .expect("synth rtl")
        .netlist;
    let pipe_nl = scflow_gate::gen::generate(&scflow_gate::gen::GenParams::sized(
        scflow_gate::gen::GenKind::Pipeline,
        10_000,
        7,
    ));

    let mut rows = Vec::new();
    let mut reg = scflow_obs::MetricsRegistry::new();
    for (name, nl) in [("src", &src_nl), ("pipe10k", &pipe_nl)] {
        let opt = scflow_gate::optimize(nl, &passes)
            .expect("passes run")
            .netlist;
        for (variant, n) in [("", nl), (".opt2", &opt)] {
            let stats = scflow_gate::NetlistStats::compute(n).expect("stats");
            stats.register_into(&mut reg, &format!("netlist.{name}{variant}"));
            rows.push((format!("{name}{variant}"), stats));
        }
    }
    (rows, reg)
}

/// Regenerates the Figure 10 area table.
pub fn measure_fig10(cfg: &SrcConfig) -> scflow::flow::AreaFigure {
    let lib = CellLibrary::generic_025u();
    scflow::flow::run_area_flow(cfg, &lib).expect("area flow")
}

/// One row of an ablation table.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Configuration description.
    pub config: String,
    /// Total cell area, µm².
    pub total_um2: f64,
    /// Flop count.
    pub flops: usize,
    /// FSM states.
    pub states: usize,
}

fn synth_beh_with(
    cfg: &SrcConfig,
    variant: BehVariant,
    tweak: impl FnOnce(&mut scflow_synth::beh::BehOptions),
) -> AblationRow {
    let lib = CellLibrary::generic_025u();
    let program = beh_program(cfg, variant);
    let mut opts = beh_options(variant);
    tweak(&mut opts);
    let out = synthesize_beh(&program, &opts).expect("beh synth");
    let res = synthesize(&out.module, &lib, &SynthOptions::default()).expect("rtl synth");
    AblationRow {
        config: String::new(),
        total_um2: res.area.total_um2(),
        flops: res.netlist.flop_count(),
        states: out.report.states,
    }
}

/// Ablation: superstate (handshake) vs fixed-cycle scheduling on the
/// optimised behavioural program.
pub fn ablation_scheduling(cfg: &SrcConfig) -> Vec<AblationRow> {
    use scflow_synth::beh::SchedulingMode;
    let mut a = synth_beh_with(cfg, BehVariant::Optimised, |o| {
        o.mode = SchedulingMode::Superstate;
    });
    a.config = "superstate (handshake)".into();
    let mut b = synth_beh_with(cfg, BehVariant::Optimised, |o| {
        o.mode = SchedulingMode::FixedCycle;
    });
    b.config = "fixed-cycle (strobes)".into();
    vec![a, b]
}

/// Ablation: register merging on/off on the *unoptimised* behavioural
/// program (the optimised one has too few live temporaries to merge).
pub fn ablation_register_merging(cfg: &SrcConfig) -> Vec<AblationRow> {
    let mut a = synth_beh_with(cfg, BehVariant::Unoptimised, |o| {
        o.merge_registers = false;
    });
    a.config = "one register per variable".into();
    let mut b = synth_beh_with(cfg, BehVariant::Unoptimised, |o| {
        o.merge_registers = true;
    });
    b.config = "lifetime-merged registers".into();
    vec![a, b]
}

/// Ablation: multiplier sharing on/off.
///
/// The SRC itself has a single MAC site, so sharing is near-neutral
/// there; this ablation uses a two-multiplier microprogram
/// (`e = x*x + y*y`) where the paper's "single arithmetic process
/// allowing resource sharing" genuinely pays off.
pub fn ablation_resource_sharing(_cfg: &SrcConfig) -> Vec<AblationRow> {
    use scflow_synth::beh::ProgramBuilder;
    let lib = CellLibrary::generic_025u();
    let program = {
        let mut p = ProgramBuilder::new("energy");
        let i = p.input("x", 16);
        let j = p.input("y", 16);
        let o = p.output("e", 33);
        let x = p.var("xv", 16);
        let y = p.var("yv", 16);
        let xx = p.var("xx", 32);
        let yy = p.var("yy", 32);
        p.read(x, i);
        p.read(y, j);
        let sx = p.v(x).sext(32).mul_signed(p.v(x).sext(32));
        p.assign(xx, sx);
        let sy = p.v(y).sext(32).mul_signed(p.v(y).sext(32));
        p.assign(yy, sy);
        let sum = p.v(xx).zext(33).add(p.v(yy).zext(33));
        p.write(o, sum);
        p.build()
    };
    let mut rows = Vec::new();
    for (share, label) in [
        (false, "one multiplier per site"),
        (true, "shared multiplier"),
    ] {
        let mut opts = beh_options(BehVariant::Optimised);
        opts.share_resources = share;
        let out = synthesize_beh(&program, &opts).expect("beh synth");
        let res = synthesize(&out.module, &lib, &SynthOptions::default()).expect("rtl synth");
        rows.push(AblationRow {
            config: label.into(),
            total_um2: res.area.total_um2(),
            flops: res.netlist.flop_count(),
            states: out.report.states,
        });
    }
    rows
}

/// Ablation: statement packing (chaining) on/off on the unoptimised
/// behavioural program — the conservative-schedule register bloat.
pub fn ablation_statement_packing(cfg: &SrcConfig) -> Vec<AblationRow> {
    let mut a = synth_beh_with(cfg, BehVariant::Unoptimised, |o| {
        o.pack_statements = false;
    });
    a.config = "one statement per step".into();
    let mut b = synth_beh_with(cfg, BehVariant::Unoptimised, |o| {
        o.pack_statements = true;
    });
    b.config = "packed steps (forwarding)".into();
    vec![a, b]
}

/// Timing closure of every synthesisable design against the 40 ns clock.
pub fn timing_table(cfg: &SrcConfig) -> Vec<(String, u64, bool)> {
    measure_fig10(cfg)
        .rows
        .into_iter()
        .map(|r| {
            (
                r.design,
                r.critical_path_ps,
                // setup margin mirrors TimingReport::meets
                r.critical_path_ps + 150 <= 40_000,
            )
        })
        .collect()
}

/// Toggle coverage of the fig8 stimulus across every simulation engine.
///
/// Produced by [`measure_coverage`]; the per-level maps are the byte
/// artifacts the engine-identity guarantee is checked against.
#[derive(Clone, Debug)]
pub struct CoverageReport {
    /// Per-net toggle map of the optimised RTL SRC, one line per net
    /// (identical on the interpreted and compiled engines, asserted).
    pub rtl_map: String,
    /// Per-cell-output toggle map of the synthesized netlist (identical
    /// on the event-driven and bit-parallel engines, asserted).
    pub gate_map: String,
    /// RTL toggle coverage, percent of net bits that both rose and fell.
    pub rtl_percent: f64,
    /// Gate-level toggle coverage, percent of cell outputs.
    pub gate_percent: f64,
    /// Whether every within-level map pair was byte-identical.
    pub maps_match: bool,
    /// Engine activity counters plus coverage aggregates, all
    /// deterministic (no wall-clock quantities).
    pub metrics: scflow_obs::MetricsRegistry,
}

/// Runs the fig8 stimulus through all four engines — interpreted and
/// compiled RTL on the optimised SRC, event-driven and bit-parallel on
/// its synthesized netlist — with toggle coverage
/// enabled, asserts bit accuracy against the golden model, and
/// cross-checks that the coverage maps within each level are
/// byte-identical (the engines sample settled values at the same cycle
/// boundaries, so any difference is an engine bug).
pub fn measure_coverage(cfg: &SrcConfig) -> CoverageReport {
    use scflow_sim_api::Simulation;
    let lib = CellLibrary::generic_025u();
    let input = stimulus::sine(150, 1000.0, f64::from(cfg.in_rate), 9000.0);
    let golden = GoldenVectors::generate(cfg, input);
    let budget = 10_000_000;
    let module = build_rtl_src(cfg, RtlVariant::Optimised).expect("rtl");
    let netlist = synthesize(&module, &lib, &SynthOptions::default())
        .expect("synth rtl")
        .netlist;

    let mut reg = scflow_obs::MetricsRegistry::new();
    // Coverage aggregates register once per level (from the first
    // engine); per-engine activity counters register under their own
    // prefixes.
    let run_covered = |sim: &mut dyn Simulation,
                       prefix: &str,
                       cov_prefix: Option<&str>,
                       reg: &mut scflow_obs::MetricsRegistry|
     -> (String, f64) {
        assert!(sim.set_coverage(true), "{prefix}: no coverage support");
        let r = run_native_hdl(sim, &golden, budget);
        assert_eq!(r.outputs, golden.output, "{prefix}: diverged from golden");
        assert_eq!(r.testbench_errors, 0, "{prefix}: testbench errors");
        sim.stats().register_into(reg, prefix);
        let cov = sim.coverage().expect("coverage enabled");
        if let Some(p) = cov_prefix {
            cov.register_into(reg, p);
        }
        (cov.report(), cov.percent())
    };

    let mut interp = RtlSim::new(&module);
    let (rtl_map, rtl_percent) = run_covered(
        &mut interp,
        "rtl.interp",
        Some("coverage.toggle.rtl"),
        &mut reg,
    );
    let prog = CompiledProgram::compile(&module).expect("rtl compiles");
    let mut compiled = prog.simulator();
    let (compiled_map, _) = run_covered(&mut compiled, "rtl.compiled", None, &mut reg);

    let mut event = GateSim::new(&netlist, &lib);
    let (gate_map, gate_percent) = run_covered(
        &mut event,
        "gate.event",
        Some("coverage.toggle.gate"),
        &mut reg,
    );
    let gprog = GateProgram::compile(&netlist).expect("gate netlist compiles");
    let mut bitpar = gprog.simulator();
    let (bitpar_map, _) = run_covered(&mut bitpar, "gate.bitpar", None, &mut reg);

    let maps_match = compiled_map == rtl_map && bitpar_map == gate_map;
    CoverageReport {
        rtl_map,
        gate_map,
        rtl_percent,
        gate_percent,
        maps_match,
        metrics: reg,
    }
}

/// Everything the snapshot-determinism check compares: one artifact
/// dump per (engine, scenario) for the straight runs and the forked
/// replays. The two strings must be byte-identical — `verify.sh` also
/// `cmp`s the files the `tables --check-snapshot` mode writes.
#[derive(Clone, Debug)]
pub struct SnapshotCheck {
    /// Scenarios exercised per engine.
    pub scenarios: usize,
    /// Artifact dump of fresh per-scenario runs (warmup paid each time).
    pub straight: String,
    /// Artifact dump of snapshot-forked replays (warmup paid once).
    pub forked: String,
}

impl SnapshotCheck {
    /// `true` when the forked replays reproduced the straight runs
    /// byte-for-byte.
    pub fn matches(&self) -> bool {
        self.straight == self.forked
    }
}

/// Runs the snapshot-determinism check on both compiled RTL engines
/// (`rtl.compiled` scalar and `rtl.bitpar` 64-lane) over the buggy SRC
/// variant with address checking enabled, so the compared artifacts
/// include a live violation stream alongside outputs, cycle counts,
/// coverage maps, VCD waveforms and rendered metrics.
pub fn check_snapshot(cfg: &SrcConfig) -> SnapshotCheck {
    use scflow_hwtypes::Bv;
    use scflow_sim_api::{Simulation, StimulusBatch, StimulusItem};

    const SCENARIOS: u64 = 5;
    let batches: Vec<StimulusBatch> = (0..SCENARIOS)
        .map(|i| StimulusBatch {
            items: vec![StimulusItem {
                pokes: vec![
                    ("in_sample".to_owned(), Bv::new((i * 0x0777) & 0xffff, 16)),
                    ("in_sample_valid".to_owned(), Bv::bit(true)),
                    ("out_sample_ready".to_owned(), Bv::bit(true)),
                ],
                cycles: 6,
            }],
            read: vec!["out_sample".to_owned(), "dbg_state".to_owned()],
        })
        .collect();

    fn prep(sim: &mut (impl Simulation + ?Sized)) {
        sim.set_coverage(true);
        sim.watch("out_sample");
        sim.watch("dbg_state");
        sim.poke("in_sample", Bv::new(0x0421, 16));
        sim.poke("in_sample_valid", Bv::bit(true));
        sim.poke("out_sample_ready", Bv::bit(true));
        sim.run_cycles(40);
    }

    fn dump(
        out: &mut String,
        engine: &str,
        scenario: usize,
        sim: &(impl Simulation + ?Sized),
        violations: &str,
        reply_outputs: &[Vec<(String, Bv)>],
    ) {
        use std::fmt::Write as _;
        writeln!(out, "== {engine} scenario {scenario} ==").unwrap();
        for item in reply_outputs {
            for (port, v) in item {
                writeln!(out, "out {port} = {v:?}").unwrap();
            }
        }
        writeln!(out, "cycle {}", sim.cycle()).unwrap();
        writeln!(out, "violations {violations}").unwrap();
        writeln!(
            out,
            "coverage\n{}",
            sim.coverage().expect("coverage").report()
        )
        .unwrap();
        writeln!(out, "vcd\n{}", sim.trace(40_000).expect("vcd")).unwrap();
        let metrics = sim.metrics().expect("metrics");
        writeln!(
            out,
            "metrics\n{}",
            scflow_obs::render_metrics_json(&metrics, None)
        )
        .unwrap();
    }

    let module = build_rtl_src(cfg, RtlVariant::OptimisedBuggy).expect("rtl buggy builds");
    let program = CompiledProgram::compile(&module).expect("compiles");

    let mut straight = String::new();
    let mut forked = String::new();
    for engine in ["rtl.compiled", "rtl.bitpar"] {
        // One closure per engine flavour keeps the generic sims' types
        // concrete; both flavours run the same straight/forked split.
        macro_rules! run_engine {
            ($mk:expr) => {{
                for (i, batch) in batches.iter().enumerate() {
                    let mut sim = $mk;
                    sim.check_addresses = true;
                    prep(&mut sim);
                    let reply = sim.step_batch(batch).expect("scenario");
                    let v = format!("{:?}", sim.violations());
                    dump(&mut straight, engine, i, &sim, &v, &reply.outputs);
                }
                let mut sim = $mk;
                sim.check_addresses = true;
                prep(&mut sim);
                let snap = Simulation::snapshot(&sim).expect("snapshot");
                for (i, batch) in batches.iter().enumerate() {
                    assert!(sim.restore(&snap), "restore");
                    let reply = sim.step_batch(batch).expect("scenario");
                    let v = format!("{:?}", sim.violations());
                    dump(&mut forked, engine, i, &sim, &v, &reply.outputs);
                }
            }};
        }
        match engine {
            "rtl.compiled" => run_engine!(program.simulator()),
            _ => run_engine!(program.bit_simulator()),
        }
    }

    SnapshotCheck {
        scenarios: SCENARIOS as usize,
        straight,
        forked,
    }
}

/// Renders a registry (plus an optional profile) with
/// [`scflow_obs::render_metrics_json`] and writes it as `METRICS.json`
/// via [`bench_output_path`]. Returns the path written.
pub fn write_metrics_json(
    reg: &scflow_obs::MetricsRegistry,
    profile: Option<&scflow_obs::Profiler>,
) -> std::path::PathBuf {
    let path = bench_output_path("METRICS.json");
    std::fs::write(&path, scflow_obs::render_metrics_json(reg, profile))
        .expect("write METRICS.json");
    path
}

/// Where the benchmark JSON artefacts (`BENCH_fig8.json`, …) land:
/// `$SCFLOW_BENCH_DIR` when set, otherwise the workspace root.
pub fn bench_output_path(file: &str) -> std::path::PathBuf {
    match std::env::var_os("SCFLOW_BENCH_DIR") {
        Some(d) => std::path::PathBuf::from(d).join(file),
        None => std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join("..")
            .join(file),
    }
}

/// Parses the value of a numeric floor knob (`SCFLOW_ATPG_MIN`,
/// `SCFLOW_SWEEP_MIN`, `SCFLOW_OPT_MIN`): a finite number, surrounding
/// whitespace allowed. Anything else — blank, `nan`, `inf`, trailing
/// garbage — is an error naming the variable and the value, because a
/// floor that parses as NaN passes at any speed.
pub fn parse_floor(var: &str, value: &str) -> Result<f64, String> {
    match value.trim().parse::<f64>() {
        Ok(v) if v.is_finite() => Ok(v),
        _ => Err(format!("{var}={value:?}: expected a finite number")),
    }
}

/// Reads the optional floor knob `var` ([`parse_floor`]); `None` when
/// unset. A malformed value prints the error and exits with status 2,
/// so callers read their floors before doing any work.
pub fn floor_from_env(var: &str) -> Option<f64> {
    let value = std::env::var_os(var)?;
    match parse_floor(var, &value.to_string_lossy()) {
        Ok(v) => Some(v),
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::parse_floor;

    #[test]
    fn parse_floor_accepts_a_finite_number() {
        assert_eq!(parse_floor("SCFLOW_SWEEP_MIN", " 8.5 "), Ok(8.5));
        assert_eq!(parse_floor("SCFLOW_SWEEP_MIN", "8"), Ok(8.0));
    }

    #[test]
    fn parse_floor_rejects_malformed_values_naming_variable_and_value() {
        for value in ["nan", "NaN", "inf", "-inf", "8x", "", "  "] {
            let err = parse_floor("SCFLOW_SWEEP_MIN", value).expect_err(value);
            assert!(
                err.contains("SCFLOW_SWEEP_MIN") && err.contains(&format!("{value:?}")),
                "{value:?}: {err}"
            );
        }
    }
}
