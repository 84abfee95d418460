//! Differential tests at gate level: every synthesisable SRC variant
//! (plus the buggy one) is synthesized to the 0.25 µm library and run on
//! the event-driven simulator and the compiled bit-parallel engine —
//! byte-identical output streams, cycle counts and checking-memory
//! violation streams demanded across both.

use scflow::models::beh::{synthesize_beh_src, BehVariant};
use scflow::models::harness::{run_fixed, run_handshake};
use scflow::models::rtl::{build_rtl_src, RtlVariant};
use scflow::models::vhdl_ref::build_vhdl_ref;
use scflow::verify::GoldenVectors;
use scflow::{stimulus, SrcConfig};
use scflow_gate::{CellLibrary, GateProgram, GateSim, MemAccessViolation, Simulation};
use scflow_rtl::Module;
use scflow_synth::rtl::{synthesize, SynthOptions};

/// The five SRC variants of the flow, plus the buggy one; `fixed` marks
/// the strobed (fixed-cycle I/O) testbench protocol.
fn variants(cfg: &SrcConfig) -> Vec<(&'static str, Module, bool)> {
    vec![
        (
            "beh_unopt",
            synthesize_beh_src(cfg, BehVariant::Unoptimised)
                .expect("beh unopt")
                .module,
            false,
        ),
        (
            "beh_opt",
            synthesize_beh_src(cfg, BehVariant::Optimised)
                .expect("beh opt")
                .module,
            true,
        ),
        (
            "rtl_unopt",
            build_rtl_src(cfg, RtlVariant::Unoptimised).expect("rtl unopt"),
            false,
        ),
        (
            "rtl_opt",
            build_rtl_src(cfg, RtlVariant::Optimised).expect("rtl opt"),
            false,
        ),
        ("vhdl_ref", build_vhdl_ref(cfg).expect("vhdl ref"), false),
        (
            "rtl_buggy",
            build_rtl_src(cfg, RtlVariant::OptimisedBuggy).expect("rtl buggy"),
            false,
        ),
    ]
}

/// Holds the scan interface inactive for a functional run.
fn tie_off_scan(sim: &mut (impl Simulation + ?Sized)) {
    use scflow_hwtypes::Bv;
    for port in ["scan_en", "scan_in", "test_mode"] {
        if sim.has_input(port) {
            sim.poke(port, Bv::zero(1));
        }
    }
}

fn run_one(
    sim: &mut (impl Simulation + ?Sized),
    fixed: bool,
    input: &[i16],
    expected: usize,
    budget: u64,
) -> (Vec<i16>, u64) {
    tie_off_scan(sim);
    if fixed {
        run_fixed(sim, input, expected, budget)
    } else {
        run_handshake(sim, input, expected, budget)
    }
}

#[test]
fn gate_engines_agree_on_every_variant() {
    let cfg = SrcConfig::cd_to_dvd();
    let lib = CellLibrary::generic_025u();
    let input = stimulus::sine(16, 1000.0, f64::from(cfg.in_rate), 9000.0);
    let golden = GoldenVectors::generate(&cfg, input);
    let budget = scflow::flow::cycle_budget(golden.len());

    let mut buggy_violations: Vec<MemAccessViolation> = Vec::new();
    for (name, module, fixed) in variants(&cfg) {
        let nl = synthesize(&module, &lib, &SynthOptions::default())
            .expect("synthesizes")
            .netlist;

        let mut ev = GateSim::new(&nl, &lib);
        let ev_run = run_one(&mut ev, fixed, &golden.input, golden.len(), budget);
        assert_eq!(
            ev_run.0.len(),
            golden.len(),
            "`{name}`: testbench completed"
        );
        assert_eq!(ev_run.0, golden.output, "`{name}`: gate level bit-accurate");

        let prog = GateProgram::compile(&nl).expect("compiles");
        let mut bp = prog.simulator();
        let bp_run = run_one(&mut bp, fixed, &golden.input, golden.len(), budget);
        assert_eq!(ev_run, bp_run, "`{name}`: bit-parallel (outputs, cycles)");
        assert_eq!(
            ev.violations(),
            bp.violations(),
            "`{name}`: bit-parallel violation stream"
        );

        if name == "rtl_buggy" {
            buggy_violations = ev.violations().to_vec();
        } else {
            assert!(
                ev.violations().is_empty(),
                "`{name}`: clean design must not trip the checking memories"
            );
        }
    }
    // The paper's punchline: the latent ring-buffer overrun of the buggy
    // variant survives synthesis and is caught by the gate-level checking
    // memories — identically on both engines (asserted above).
    assert!(
        !buggy_violations.is_empty(),
        "the buggy variant's overrun must be visible at gate level"
    );
}

#[test]
fn gate_level_validation_flow_accepts_every_engine() {
    use scflow::flow::{validate_gate_level_with, GateEngine};
    let cfg = SrcConfig::cd_to_dvd();
    let lib = CellLibrary::generic_025u();
    let input = stimulus::sine(12, 1000.0, f64::from(cfg.in_rate), 9000.0);
    let golden = GoldenVectors::generate(&cfg, input);
    let module = build_rtl_src(&cfg, RtlVariant::Optimised).expect("rtl opt");
    let nl = synthesize(&module, &lib, &SynthOptions::default())
        .expect("synthesizes")
        .netlist;
    for engine in [GateEngine::EventDriven, GateEngine::BitParallel] {
        validate_gate_level_with(engine, "RTL opt", &nl, &lib, &golden)
            .unwrap_or_else(|e| panic!("{engine} engine failed validation: {e}"));
    }
}
