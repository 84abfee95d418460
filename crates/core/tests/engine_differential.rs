//! Differential tests: the compiled levelized engine against the
//! interpreter on every synthesisable SRC design of the flow — the five
//! variants (BEH unopt/opt, RTL unopt/opt, VHDL reference) plus the
//! buggy RTL variant. Byte-identical output streams and cycle counts,
//! same violation streams, on sine and seeded-noise stimuli.

use scflow::models::beh::{synthesize_beh_src, BehVariant};
use scflow::models::harness::{run_fixed, run_handshake};
use scflow::models::rtl::{build_rtl_src, RtlVariant};
use scflow::models::vhdl_ref::build_vhdl_ref;
use scflow::verify::GoldenVectors;
use scflow::{stimulus, SrcConfig};
use scflow_rtl::{CompiledProgram, Module, RtlSim};
use scflow_testkit::Rng;

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

/// Runs one module's testbench on both engines and demands identical
/// `(outputs, cycles)`; returns the output stream.
fn run_both(name: &str, module: &Module, fixed: bool, input: &[i16], expected: usize) -> Vec<i16> {
    let budget = scflow::flow::cycle_budget(expected);
    let mut int = RtlSim::new(module);
    let program = CompiledProgram::compile(module).expect("compiles");
    let mut cmp = program.simulator();
    let (int_run, cmp_run) = if fixed {
        (
            run_fixed(&mut int, input, expected, budget),
            run_fixed(&mut cmp, input, expected, budget),
        )
    } else {
        (
            run_handshake(&mut int, input, expected, budget),
            run_handshake(&mut cmp, input, expected, budget),
        )
    };
    assert_eq!(
        int_run, cmp_run,
        "`{name}`: engines must agree on the full (outputs, cycles) stream"
    );
    assert_eq!(int_run.0.len(), expected, "`{name}`: testbench completed");
    int_run.0
}

#[test]
fn all_variants_agree_on_sine() {
    for cfg in [SrcConfig::cd_to_dvd(), SrcConfig::dvd_to_cd()] {
        let input = stimulus::sine(150, 1000.0, f64::from(cfg.in_rate), 9000.0);
        let golden = GoldenVectors::generate(&cfg, input);
        for (name, module, fixed) in variants(&cfg) {
            let out = run_both(name, &module, fixed, &golden.input, golden.len());
            assert_eq!(out, golden.output, "`{name}` vs golden model");
        }
    }
}

#[test]
fn all_variants_agree_on_seeded_noise() {
    let cfg = SrcConfig::cd_to_dvd();
    let input = Rng::new(0x1F1D_2004).i16_vec(150);
    let golden = GoldenVectors::generate(&cfg, input);
    for (name, module, fixed) in variants(&cfg) {
        let out = run_both(name, &module, fixed, &golden.input, golden.len());
        assert_eq!(out, golden.output, "`{name}` vs golden model on noise");
    }
}

/// The paper's checking-memory discipline: the optimised design inherits
/// a latent ring-buffer overrun that never corrupts an output, so only
/// address checking can expose it. The compiled engine must catch it
/// exactly like the interpreter does — same accesses, same cycles.
#[test]
fn compiled_engine_still_catches_the_buggy_variant() {
    let cfg = SrcConfig::cd_to_dvd();
    let input = stimulus::sine(120, 1000.0, f64::from(cfg.in_rate), 9000.0);
    let golden = GoldenVectors::generate(&cfg, input);
    let budget = scflow::flow::cycle_budget(golden.len());
    for (variant, should_violate) in [
        (RtlVariant::Optimised, false),
        (RtlVariant::OptimisedBuggy, true),
    ] {
        let module = build_rtl_src(&cfg, variant).expect("build");
        let program = CompiledProgram::compile(&module).expect("compiles");
        let mut int = RtlSim::new(&module);
        let mut cmp = program.simulator();
        int.check_addresses = true;
        cmp.check_addresses = true;
        let int_run = run_handshake(&mut int, &golden.input, golden.len(), budget);
        let cmp_run = run_handshake(&mut cmp, &golden.input, golden.len(), budget);
        assert_eq!(int_run, cmp_run, "{variant:?}: checked runs agree");
        assert_eq!(int_run.0, golden.output, "{variant:?}: outputs still clean");
        assert_eq!(
            int.violations(),
            cmp.violations(),
            "{variant:?}: identical violation streams"
        );
        assert_eq!(
            !cmp.violations().is_empty(),
            should_violate,
            "{variant:?}: the overrun is {} by the compiled engine",
            if should_violate { "caught" } else { "absent" }
        );
    }
}
