//! Cross-crate refinement accuracy: the golden vectors drive every level
//! of the flow including the gate level and the co-simulation harnesses —
//! the full "refine and re-validate" discipline in one test file.

use scflow::models::beh::{synthesize_beh_src, BehVariant};
use scflow::models::harness::run_handshake;
use scflow::models::rtl::{build_rtl_src, RtlVariant};
use scflow::verify::{compare_bit_accurate, GoldenVectors};
use scflow::{stimulus, SrcConfig};
use scflow_cosim::{run_kernel_cosim, run_native_hdl};
use scflow_gate::{CellLibrary, GateSim};
use scflow_rtl::RtlSim;
use scflow_synth::rtl::{synthesize, SynthOptions};

fn golden_up() -> (SrcConfig, GoldenVectors) {
    let cfg = SrcConfig::cd_to_dvd();
    let input = stimulus::sine(80, 1000.0, 44_100.0, 9_000.0);
    let g = GoldenVectors::generate(&cfg, input);
    (cfg, g)
}

#[test]
fn gate_level_rtl_flow_is_bit_accurate() {
    let (cfg, g) = golden_up();
    let lib = CellLibrary::generic_025u();
    for variant in [RtlVariant::Unoptimised, RtlVariant::Optimised] {
        let m = build_rtl_src(&cfg, variant).expect("build");
        let netlist = synthesize(&m, &lib, &SynthOptions::default())
            .expect("synth")
            .netlist;
        let mut sim = GateSim::new(&netlist, &lib);
        let (out, _) = run_handshake(
            &mut sim,
            &g.input,
            g.len(),
            scflow::flow::cycle_budget(g.len()),
        );
        compare_bit_accurate(&g.output, &out)
            .unwrap_or_else(|m| panic!("{variant:?} gate level: {m}"));
        assert!(sim.violations().is_empty(), "{variant:?}: clean design");
    }
}

#[test]
fn gate_level_behavioural_flow_is_bit_accurate() {
    let (cfg, g) = golden_up();
    let lib = CellLibrary::generic_025u();
    let m = synthesize_beh_src(&cfg, BehVariant::Unoptimised)
        .expect("beh")
        .module;
    let netlist = synthesize(&m, &lib, &SynthOptions::default())
        .expect("synth")
        .netlist;
    let mut sim = GateSim::new(&netlist, &lib);
    // Behavioural schedules take more cycles per output.
    let (out, _) = run_handshake(&mut sim, &g.input, g.len(), 2_000_000);
    compare_bit_accurate(&g.output, &out).expect("gate-level behavioural flow");
}

#[test]
fn cosim_configurations_agree_with_each_other() {
    let (cfg, g) = golden_up();
    let m = build_rtl_src(&cfg, RtlVariant::Optimised).expect("build");
    let native = run_native_hdl(&mut RtlSim::new(&m), &g, 1_000_000);
    let cosim = run_kernel_cosim(&mut RtlSim::new(&m), &g, 1_000_000);
    assert_eq!(native.outputs, cosim.outputs);
    compare_bit_accurate(&g.output, &native.outputs).expect("native");
    assert_eq!(native.testbench_errors, 0);
}

#[test]
fn golden_vectors_are_deterministic_across_configs() {
    for cfg in [
        SrcConfig::cd_to_dvd(),
        SrcConfig::dvd_to_cd(),
        SrcConfig::broadcast_to_dvd(),
    ] {
        let input = stimulus::sweep(120, 50.0, 12_000.0, f64::from(cfg.in_rate), 8_000.0);
        let a = GoldenVectors::generate(&cfg, input.clone());
        let b = GoldenVectors::generate(&cfg, input);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }
}

#[test]
fn broadcast_rate_pair_validates_through_the_synthesisable_flow() {
    let cfg = SrcConfig::broadcast_to_dvd();
    let input = stimulus::sine(100, 440.0, 32_000.0, 9_000.0);
    scflow::flow::validate_all_levels(&cfg, &input).expect("32k->48k flow");
}

#[test]
fn figure10_shape_is_library_independent() {
    // The paper normalises to the VHDL reference; the relative ordering
    // must not depend on the technology library.
    let cfg = SrcConfig::cd_to_dvd();
    let for_lib = |lib: &CellLibrary| {
        scflow::flow::run_area_flow(&cfg, lib)
            .expect("flow")
            .rows
            .into_iter()
            .map(|r| (r.design, r.relative_pct))
            .collect::<Vec<_>>()
    };
    let a = for_lib(&CellLibrary::generic_025u());
    let b = for_lib(&CellLibrary::generic_018u());
    for ((name_a, pct_a), (name_b, pct_b)) in a.iter().zip(&b) {
        assert_eq!(name_a, name_b);
        assert!(
            (pct_a - pct_b).abs() < 0.01,
            "{name_a}: {pct_a:.2}% vs {pct_b:.2}% across libraries"
        );
    }
}

#[test]
fn differential_rtl_vs_gate_on_seeded_noise() {
    // Differential run across the synthesis boundary: interpreted RTL vs
    // the synthesised gate netlist, on random (seeded) stimuli rather than
    // the sine the figures use. A failure names the first diverging sample.
    use scflow_testkit::diff::first_divergence;
    use scflow_testkit::Rng;

    let cfg = SrcConfig::cd_to_dvd();
    let lib = CellLibrary::generic_025u();
    let m = build_rtl_src(&cfg, RtlVariant::Optimised).expect("build");
    let netlist = synthesize(&m, &lib, &SynthOptions::default())
        .expect("synth")
        .netlist;

    let mut seeds = Rng::new(0xD1FF_0002);
    for _ in 0..2 {
        let seed = seeds.next_u64();
        let g = GoldenVectors::generate(&cfg, stimulus::noise(100, 9_000, seed));
        let budget = scflow::flow::cycle_budget(g.len());
        let (rtl_out, _) = run_handshake(&mut RtlSim::new(&m), &g.input, g.len(), budget);
        let (gate_out, _) =
            run_handshake(&mut GateSim::new(&netlist, &lib), &g.input, g.len(), budget);
        if let Some(d) = first_divergence("dut.out", &rtl_out, &gate_out) {
            panic!("stimulus seed {seed:#x}: {d}");
        }
        compare_bit_accurate(&g.output, &rtl_out)
            .unwrap_or_else(|m| panic!("stimulus seed {seed:#x}: {m}"));
    }
}

#[test]
fn differential_cosim_testbenches_on_seeded_noise() {
    // The two Figure 9 testbench configurations must agree sample-for-
    // sample on random stimuli, with divergences time-stamped on the
    // 40 ns clock grid.
    use scflow_testkit::diff::first_divergence_timed;
    use scflow_testkit::Rng;

    let cfg = SrcConfig::cd_to_dvd();
    let m = build_rtl_src(&cfg, RtlVariant::Optimised).expect("build");
    let mut seeds = Rng::new(0xD1FF_0003);
    let seed = seeds.next_u64();
    let g = GoldenVectors::generate(&cfg, stimulus::noise(60, 9_000, seed));

    let native = run_native_hdl(&mut RtlSim::new(&m), &g, 1_000_000);
    let cosim = run_kernel_cosim(&mut RtlSim::new(&m), &g, 1_000_000);
    let times: Vec<u64> = (0..native.outputs.len() as u64)
        .map(|i| i * 40_000)
        .collect();
    if let Some(d) = first_divergence_timed("tb.out", &native.outputs, &cosim.outputs, &times) {
        panic!("stimulus seed {seed:#x}: {d}");
    }
    assert_eq!(native.testbench_errors, 0);
    compare_bit_accurate(&g.output, &native.outputs)
        .unwrap_or_else(|m| panic!("stimulus seed {seed:#x}: {m}"));
}
