//! Coverage-driven tests: the fig8 stimulus must exercise the optimised
//! RTL SRC nearly completely (≥ 90% toggle coverage), the buggy variant
//! must leave a measurable coverage footprint at gate level, the toggle
//! maps must be byte-identical across all five engines on pinned seeds,
//! and a metrics snapshot must render byte-deterministically.

use scflow::models::harness::run_handshake;
use scflow::models::rtl::{build_rtl_src, RtlVariant};
use scflow::verify::GoldenVectors;
use scflow::{stimulus, SrcConfig};
use scflow_gate::{CellLibrary, GateProgram, GateSim};
use scflow_hwtypes::Bv;
use scflow_rtl::{CompiledProgram, RtlSim};
use scflow_sim_api::Simulation;
use scflow_synth::rtl::{synthesize, SynthOptions};
use scflow_testkit::Rng;

/// Drives one engine through the handshake testbench with toggle
/// coverage enabled (scan tied off), asserts bit accuracy, and returns
/// the coverage map plus its bit-coverage percentage.
fn covered_run(sim: &mut dyn Simulation, golden: &GoldenVectors) -> (String, f64, u64) {
    for port in ["scan_en", "scan_in", "test_mode"] {
        if sim.has_input(port) {
            sim.poke(port, Bv::zero(1));
        }
    }
    assert!(sim.set_coverage(true), "engine must support coverage");
    let budget = scflow::flow::cycle_budget(golden.len());
    let (out, _) = run_handshake(sim, &golden.input, golden.len(), budget);
    assert_eq!(out, golden.output, "engine diverged from golden");
    let cov = sim.coverage().expect("coverage enabled");
    (cov.report(), cov.percent(), cov.total_flips())
}

#[test]
fn fig8_stimulus_reaches_90pct_rtl_toggle_coverage() {
    let cfg = SrcConfig::cd_to_dvd();
    let input = stimulus::sine(150, 1000.0, f64::from(cfg.in_rate), 9000.0);
    let golden = GoldenVectors::generate(&cfg, input);
    let module = build_rtl_src(&cfg, RtlVariant::Optimised).expect("rtl opt");
    let mut sim = RtlSim::new(&module);
    let (_, percent, flips) = covered_run(&mut sim, &golden);
    assert!(
        percent >= 90.0,
        "fig8 stimulus covers only {percent:.1}% of RTL net bits"
    );
    assert!(flips > 0);
}

#[test]
fn buggy_variant_leaves_gate_level_coverage_delta() {
    // The buggy variant's ring-buffer overrun never corrupts an output,
    // so both netlists pass the golden check — but the buggy one
    // synthesises to different cells with different activity, which the
    // toggle map records.
    let cfg = SrcConfig::cd_to_dvd();
    let lib = CellLibrary::generic_025u();
    let input = stimulus::sine(150, 1000.0, f64::from(cfg.in_rate), 9000.0);
    let golden = GoldenVectors::generate(&cfg, input);

    let mut runs = Vec::new();
    for variant in [RtlVariant::Optimised, RtlVariant::OptimisedBuggy] {
        let module = build_rtl_src(&cfg, variant).expect("rtl builds");
        let netlist = synthesize(&module, &lib, &SynthOptions::default())
            .expect("synth")
            .netlist;
        let prog = GateProgram::compile(&netlist).expect("compiles");
        let mut sim = prog.simulator();
        runs.push(covered_run(&mut sim, &golden));
    }
    let (good_map, _, good_flips) = &runs[0];
    let (buggy_map, _, buggy_flips) = &runs[1];
    assert_ne!(
        good_map, buggy_map,
        "the buggy variant must leave a different gate-level toggle map"
    );
    assert_ne!(
        good_flips, buggy_flips,
        "the buggy variant must change total gate-level toggle activity"
    );
}

#[test]
fn toggle_maps_identical_across_all_five_engines_on_pinned_seed() {
    let cfg = SrcConfig::cd_to_dvd();
    let lib = CellLibrary::generic_025u();
    let input = Rng::new(0x0B5E_2004).i16_vec(120);
    let golden = GoldenVectors::generate(&cfg, input);
    let module = build_rtl_src(&cfg, RtlVariant::Optimised).expect("rtl opt");

    let mut interp = RtlSim::new(&module);
    let (rtl_map, ..) = covered_run(&mut interp, &golden);
    let prog = CompiledProgram::compile(&module).expect("rtl compiles");
    let mut compiled = prog.simulator();
    let (compiled_map, ..) = covered_run(&mut compiled, &golden);
    assert_eq!(
        rtl_map, compiled_map,
        "interpreted and compiled RTL toggle maps must be byte-identical"
    );
    let mut lanes = prog.bit_simulator();
    let (lanes_map, ..) = covered_run(&mut lanes, &golden);
    assert_eq!(
        rtl_map, lanes_map,
        "interpreted and bit-parallel RTL toggle maps must be byte-identical"
    );

    let netlist = synthesize(&module, &lib, &SynthOptions::default())
        .expect("synth")
        .netlist;
    let mut event = GateSim::new(&netlist, &lib);
    let (event_map, ..) = covered_run(&mut event, &golden);
    let gprog = GateProgram::compile(&netlist).expect("compiles");
    let mut bitpar = gprog.simulator();
    let (bitpar_map, ..) = covered_run(&mut bitpar, &golden);
    assert_eq!(
        event_map, bitpar_map,
        "event-driven and bit-parallel gate toggle maps must be byte-identical"
    );
}

#[test]
fn metrics_snapshot_renders_byte_deterministically() {
    let cfg = SrcConfig::cd_to_dvd();
    let input = stimulus::sine(80, 1000.0, f64::from(cfg.in_rate), 9000.0);
    let golden = GoldenVectors::generate(&cfg, input);
    let module = build_rtl_src(&cfg, RtlVariant::Optimised).expect("rtl opt");

    let mut snapshots = Vec::new();
    for _ in 0..2 {
        let prog = CompiledProgram::compile(&module).expect("compiles");
        let mut sim = prog.simulator();
        covered_run(&mut sim, &golden);
        let reg = Simulation::metrics(&sim).expect("compiled engine has metrics");
        snapshots.push((scflow_obs::render_metrics_json(&reg, None), reg));
    }
    scflow_testkit::assert_names_stable(&snapshots[0].1, &snapshots[1].1);
    assert_eq!(
        snapshots[0].0, snapshots[1].0,
        "two identical runs must render byte-identical METRICS.json"
    );
}
