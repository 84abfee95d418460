//! Both co-simulation configurations must reproduce the golden outputs on
//! every DUT artefact (RTL and both gate netlists) — Figure 9's setup,
//! verified for correctness before its performance is measured.

use scflow::models::beh::{synthesize_beh_src, BehVariant};
use scflow::models::rtl::{build_rtl_src, RtlVariant};
use scflow::verify::{compare_bit_accurate, GoldenVectors};
use scflow::{stimulus, SrcConfig};
use scflow_cosim::{
    build_hdl_testbench, run_kernel_cosim, run_native_hdl, run_native_hdl_compiled,
};
use scflow_gate::{CellLibrary, GateSim};
use scflow_rtl::CompiledProgram;
use scflow_rtl::RtlSim;
use scflow_synth::rtl::{synthesize, SynthOptions};

fn golden() -> GoldenVectors {
    let cfg = SrcConfig::cd_to_dvd();
    let input = stimulus::sine(60, 1000.0, 44100.0, 9000.0);
    GoldenVectors::generate(&cfg, input)
}

const BUDGET: u64 = 200_000;

#[test]
fn native_hdl_on_rtl_dut() {
    let cfg = SrcConfig::cd_to_dvd();
    let g = golden();
    let m = build_rtl_src(&cfg, RtlVariant::Optimised).expect("rtl");
    let mut dut = RtlSim::new(&m);
    let run = run_native_hdl(&mut dut, &g, BUDGET);
    compare_bit_accurate(&g.output, &run.outputs).expect("bit accurate");
    assert_eq!(run.testbench_errors, 0, "self-checking TB must agree");
    assert!(run.cycles > 0);
}

#[test]
fn kernel_cosim_on_rtl_dut() {
    let cfg = SrcConfig::cd_to_dvd();
    let g = golden();
    let m = build_rtl_src(&cfg, RtlVariant::Optimised).expect("rtl");
    let mut dut = RtlSim::new(&m);
    let run = run_kernel_cosim(&mut dut, &g, BUDGET);
    compare_bit_accurate(&g.output, &run.outputs).expect("bit accurate");
}

#[test]
fn both_testbenches_on_gate_rtl_dut() {
    let cfg = SrcConfig::cd_to_dvd();
    let g = golden();
    let lib = CellLibrary::generic_025u();
    let m = build_rtl_src(&cfg, RtlVariant::Optimised).expect("rtl");
    let netlist = synthesize(&m, &lib, &SynthOptions::default())
        .expect("synth")
        .netlist;

    let mut dut = GateSim::new(&netlist, &lib);
    let native = run_native_hdl(&mut dut, &g, BUDGET);
    compare_bit_accurate(&g.output, &native.outputs).expect("native gate");
    assert_eq!(native.testbench_errors, 0);

    let mut dut2 = GateSim::new(&netlist, &lib);
    let cosim = run_kernel_cosim(&mut dut2, &g, BUDGET);
    compare_bit_accurate(&g.output, &cosim.outputs).expect("cosim gate");
}

#[test]
fn both_testbenches_on_gate_beh_dut() {
    let cfg = SrcConfig::cd_to_dvd();
    let g = golden();
    let lib = CellLibrary::generic_025u();
    let m = synthesize_beh_src(&cfg, BehVariant::Unoptimised)
        .expect("beh")
        .module;
    let netlist = synthesize(&m, &lib, &SynthOptions::default())
        .expect("synth")
        .netlist;

    let mut dut = GateSim::new(&netlist, &lib);
    let native = run_native_hdl(&mut dut, &g, BUDGET);
    compare_bit_accurate(&g.output, &native.outputs).expect("native gate-beh");
    assert_eq!(native.testbench_errors, 0);

    let mut dut2 = GateSim::new(&netlist, &lib);
    let cosim = run_kernel_cosim(&mut dut2, &g, BUDGET);
    compare_bit_accurate(&g.output, &cosim.outputs).expect("cosim gate-beh");
}

#[test]
fn compiled_testbench_runs_are_cycle_identical() {
    // The all-compiled native-HDL configuration must match the
    // interpreted one cycle for cycle — same outputs, same cycle count,
    // same error counter — whichever engine the DUT itself runs on.
    let cfg = SrcConfig::cd_to_dvd();
    let g = golden();
    let m = build_rtl_src(&cfg, RtlVariant::Optimised).expect("rtl");
    let reference = run_native_hdl(&mut RtlSim::new(&m), &g, BUDGET);
    compare_bit_accurate(&g.output, &reference.outputs).expect("bit accurate");

    let program = CompiledProgram::compile(&m).expect("compiles");
    for run in [
        run_native_hdl_compiled(&mut RtlSim::new(&m), &g, BUDGET),
        run_native_hdl(&mut program.simulator(), &g, BUDGET),
        run_native_hdl_compiled(&mut program.simulator(), &g, BUDGET),
    ] {
        assert_eq!(run.outputs, reference.outputs);
        assert_eq!(run.cycles, reference.cycles);
        assert_eq!(run.testbench_errors, reference.testbench_errors);
    }
}

#[test]
fn testbench_counts_injected_errors() {
    // Corrupt one expected value: the self-checking TB must notice.
    let mut g = golden();
    g.output[5] ^= 1;
    let cfg = SrcConfig::cd_to_dvd();
    let m = build_rtl_src(&cfg, RtlVariant::Optimised).expect("rtl");
    let mut dut = RtlSim::new(&m);
    let run = run_native_hdl(&mut dut, &g, BUDGET);
    assert_eq!(run.testbench_errors, 1);
}

#[test]
fn testbench_module_is_synthesisable_rtl() {
    // The TB is a plain RTL module: it validates and prints as Verilog.
    let g = golden();
    let tb = build_hdl_testbench(&g).expect("builds");
    let v = tb.to_verilog();
    assert!(v.contains("module hdl_tb"));
    assert!(v.contains("stim_rom"));
    assert!(v.contains("expect_rom"));
}
