//! Figure 9 bench: native HDL simulation (interpreted testbench) vs
//! SystemC-testbench co-simulation, on the three HDL artefacts. Runs on
//! the in-repo `scflow-testkit` harness and emits `BENCH_fig9.json`.

use scflow::models::rtl::{build_rtl_src, RtlVariant};
use scflow::verify::GoldenVectors;
use scflow::{stimulus, SrcConfig};
use scflow_cosim::{run_kernel_cosim, run_native_hdl, run_native_hdl_compiled};
use scflow_gate::{CellLibrary, GateProgram, GateSim};
use scflow_rtl::{CompiledProgram, RtlSim};
use scflow_synth::rtl::{synthesize, SynthOptions};
use scflow_testkit::Harness;

fn main() {
    let cfg = SrcConfig::cd_to_dvd();
    let lib = CellLibrary::generic_025u();
    let input = stimulus::sine(30, 1000.0, 44_100.0, 9000.0);
    let golden = GoldenVectors::generate(&cfg, input);

    let rtl_module = build_rtl_src(&cfg, RtlVariant::Optimised).expect("rtl");
    let gate_rtl = synthesize(&rtl_module, &lib, &SynthOptions::default())
        .expect("synth")
        .netlist;

    let mut h = Harness::new("fig9_cosim");
    h.bench_cycles("rtl_dut_vhdl_tb", || {
        let mut dut = RtlSim::new(&rtl_module);
        std::hint::black_box(run_native_hdl(&mut dut, &golden, 1_000_000)).cycles
    });
    h.bench_cycles("rtl_dut_systemc_tb", || {
        let mut dut = RtlSim::new(&rtl_module);
        std::hint::black_box(run_kernel_cosim(&mut dut, &golden, 1_000_000)).cycles
    });
    // Gate simulators are constructed once and reset per iteration:
    // constructing inside the timed closure folded netlist setup into
    // every measurement.
    let mut gate_dut = GateSim::new(&gate_rtl, &lib);
    h.bench_cycles("gate_rtl_dut_vhdl_tb", || {
        gate_dut.reset();
        std::hint::black_box(run_native_hdl(&mut gate_dut, &golden, 1_000_000)).cycles
    });
    let mut gate_dut = GateSim::new(&gate_rtl, &lib);
    h.bench_cycles("gate_rtl_dut_systemc_tb", || {
        gate_dut.reset();
        std::hint::black_box(run_kernel_cosim(&mut gate_dut, &golden, 1_000_000)).cycles
    });
    // The RTL DUT on the compiled levelized engine, appended after the
    // paper's rows (their ordering is the figure). The native-HDL row
    // compiles the testbench too: the all-compiled configuration.
    let rtl_program = CompiledProgram::compile(&rtl_module).expect("rtl compiles");
    h.bench_cycles("rtl_compiled_dut_vhdl_tb", || {
        let mut dut = rtl_program.simulator();
        std::hint::black_box(run_native_hdl_compiled(&mut dut, &golden, 1_000_000)).cycles
    });
    h.bench_cycles("rtl_compiled_dut_systemc_tb", || {
        let mut dut = rtl_program.simulator();
        std::hint::black_box(run_kernel_cosim(&mut dut, &golden, 1_000_000)).cycles
    });
    // The same gate netlist on the compiled bit-parallel engine in
    // single-pattern mode, appended after the paper's rows.
    let gate_prog = GateProgram::compile(&gate_rtl).expect("gate netlist compiles");
    let mut bitpar_dut = gate_prog.simulator();
    h.bench_cycles("gate_bitpar_dut_vhdl_tb", || {
        bitpar_dut.reset();
        std::hint::black_box(run_native_hdl(&mut bitpar_dut, &golden, 1_000_000)).cycles
    });
    let mut bitpar_dut = gate_prog.simulator();
    h.bench_cycles("gate_bitpar_dut_systemc_tb", || {
        bitpar_dut.reset();
        std::hint::black_box(run_kernel_cosim(&mut bitpar_dut, &golden, 1_000_000)).cycles
    });
    print!("{}", h.table());

    // Full figure (all six bars), printed once.
    let rows = scflow_bench::measure_fig9(&cfg, 30);
    println!("\n=== Figure 9: co-simulation vs native HDL simulation ===");
    for r in &rows {
        println!(
            "{:<11} {:<11} {:>12.0} cyc/s  ({} cycles)",
            r.dut, r.testbench, r.cycles_per_sec, r.cycles
        );
    }

    let path = scflow_bench::bench_output_path("BENCH_fig9.json");
    h.write_json(&path).expect("write BENCH_fig9.json");
    println!("\nwrote {}", path.display());
}
