//! The paper's bug-escape anecdote, reproduced end to end.
//!
//! "During our evaluation it even happened that a bug in the golden model
//! was refined down to Gate-level and was discovered during Gate-level
//! simulation... When the memory for the buffer was replaced by an
//! automatically generated simulation model (that included a check for
//! valid addresses), the bug became obvious."
//!
//! This example carries the injected ring-buffer address bug through the
//! flow: every functional simulation stays bit-accurate (the invalid
//! address wraps onto the correct cell), and only the gate-level checking
//! memory model reports it.
//!
//! ```text
//! cargo run --release -p scflow --example bug_hunt
//! ```

use scflow::algo::AlgoSrc;
use scflow::models::harness::run_handshake;
use scflow::models::rtl::{build_rtl_src, RtlVariant};
use scflow::verify::{compare_bit_accurate, GoldenVectors};
use scflow::{stimulus, SrcConfig};
use scflow_gate::{CellLibrary, GateSim};
use scflow_rtl::RtlSim;
use scflow_synth::rtl::{synthesize, SynthOptions};

fn main() {
    // The corner case needs downsampling (two consumes per output).
    let cfg = SrcConfig::dvd_to_cd();
    let input = stimulus::noise(600, 8_000, 20_040_731);
    let golden = GoldenVectors::generate(&cfg, input.clone());
    println!(
        "== hunting the golden-model buffer bug ({} outputs) ==\n",
        golden.len()
    );

    // 1. The buggy golden model simulates bit-identically...
    let mut buggy_algo = AlgoSrc::new(&cfg).with_buffer_bug();
    let algo_out = buggy_algo.process(&input);
    compare_bit_accurate(&golden.output, &algo_out).expect("algorithmic level");
    let invalid = buggy_algo
        .raw_indices_seen()
        .iter()
        .filter(|&&i| i >= SrcConfig::BUFFER as u32)
        .count();
    println!("algorithmic model: bit-accurate ({invalid} silent out-of-range raw indices)");

    // 2. ...and so does the buggy RTL in interpreted RTL simulation...
    let buggy_rtl = build_rtl_src(&cfg, RtlVariant::OptimisedBuggy).expect("rtl");
    let mut rtl_sim = RtlSim::new(&buggy_rtl);
    let (rtl_out, _) = run_handshake(
        &mut rtl_sim,
        &golden.input,
        golden.len(),
        scflow::flow::cycle_budget(golden.len()),
    );
    compare_bit_accurate(&golden.output, &rtl_out).expect("RTL level");
    println!("RTL simulation:    bit-accurate (no address checks — nothing visible)");

    // 3. ...and even at gate level the *data* is still right...
    let lib = CellLibrary::generic_025u();
    let netlist = synthesize(&buggy_rtl, &lib, &SynthOptions::default())
        .expect("synthesis")
        .netlist;
    let mut gate_sim = GateSim::new(&netlist, &lib);
    let (gate_out, cycles) = run_handshake(
        &mut gate_sim,
        &golden.input,
        golden.len(),
        scflow::flow::cycle_budget(golden.len()),
    );
    compare_bit_accurate(&golden.output, &gate_out).expect("gate level");
    println!("gate simulation:   bit-accurate over {cycles} cycles");

    // 4. ...but the generated checking memory model catches the access.
    let violations = gate_sim.violations();
    println!(
        "\nchecking memory model: {} invalid accesses detected",
        violations.len()
    );
    let first = violations.first().expect("the corner case must fire");
    println!(
        "  first: memory `{}`, address {} (buffer has {} words), cycle {}",
        first.memory,
        first.address,
        SrcConfig::BUFFER,
        first.cycle
    );
    assert!(violations.iter().all(|v| v.memory == "in_buf"));

    // Control: the fixed design is clean.
    let clean_rtl = build_rtl_src(&cfg, RtlVariant::Optimised).expect("rtl");
    let clean_netlist = synthesize(&clean_rtl, &lib, &SynthOptions::default())
        .expect("synthesis")
        .netlist;
    let mut clean_sim = GateSim::new(&clean_netlist, &lib);
    let (clean_out, _) = run_handshake(
        &mut clean_sim,
        &golden.input,
        golden.len(),
        scflow::flow::cycle_budget(golden.len()),
    );
    compare_bit_accurate(&golden.output, &clean_out).expect("clean gate level");
    assert!(clean_sim.violations().is_empty());
    println!("\ncontrol (fixed design): 0 violations — the check isolates the real bug.");
}
