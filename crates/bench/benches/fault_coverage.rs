//! Fault-simulation bench: serial per-fault coverage on the event-driven
//! simulator vs PPSFP on the compiled bit-parallel engine, on the
//! synthesized RTL SRC. Emits `BENCH_fault.json`.
//!
//! The serial reference is orders of magnitude slower, so it runs on a
//! strided fault subset; PPSFP runs both that subset (for the wall-clock
//! ratio at identical coverage) and the full fault list, the latter at 1
//! and 2 fault threads (the fault list sharded across workers).

use scflow::models::rtl::{build_rtl_src, RtlVariant};
use scflow::SrcConfig;
use scflow_gate::fault::{
    all_fault_sites, fault_coverage, fault_coverage_serial, fault_coverage_with_threads,
    random_patterns, CoverageResult,
};
use scflow_gate::CellLibrary;
use scflow_synth::rtl::{synthesize, SynthOptions};
use scflow_testkit::Harness;

fn main() {
    let cfg = SrcConfig::cd_to_dvd();
    let lib = CellLibrary::generic_025u();
    let rtl_module = build_rtl_src(&cfg, RtlVariant::Optimised).expect("rtl");
    let gate_rtl = synthesize(&rtl_module, &lib, &SynthOptions::default())
        .expect("synth")
        .netlist;

    let all_faults = all_fault_sites(&gate_rtl);
    let stride = (all_faults.len() / 32).max(1);
    let subset: Vec<_> = all_faults.iter().copied().step_by(stride).collect();
    let patterns = random_patterns(&gate_rtl, 16, 0xBEEF);

    let mut h = Harness::new("fault_coverage").with_iters(3).with_warmup(1);

    let mut serial_result: Option<CoverageResult> = None;
    h.bench("fault_serial_subset", || {
        let r = fault_coverage_serial(&gate_rtl, &lib, &subset, &patterns);
        let pct = r.coverage_pct();
        serial_result = Some(r);
        pct
    });
    let serial = serial_result.expect("serial bench ran");
    h.metric("faults", subset.len() as f64);
    h.metric("patterns", patterns.len() as f64);
    h.metric("coverage_pct", serial.coverage_pct());

    h.bench("fault_ppsfp_subset", || {
        let r = fault_coverage(&gate_rtl, &lib, &subset, &patterns);
        assert_eq!(
            r.detected_mask, serial.detected_mask,
            "PPSFP detected set diverged from the serial reference"
        );
        r.coverage_pct()
    });
    h.metric("faults", subset.len() as f64);
    h.metric("patterns", patterns.len() as f64);
    h.metric("coverage_pct", serial.coverage_pct());
    let speedup = h.results[0].median_ns / h.results[1].median_ns.max(1e-12);
    h.metric("speedup_vs_serial", speedup);

    // The full list at 1 and 2 fault threads; both runs must detect the
    // same faults (sharding never changes a per-fault verdict).
    let mut full: Vec<CoverageResult> = Vec::new();
    for threads in [1u32, 2] {
        let mut last = None;
        h.bench(&format!("fault_ppsfp_full_t{threads}"), || {
            let r = fault_coverage_with_threads(
                &gate_rtl,
                &lib,
                &all_faults,
                &patterns,
                threads as usize,
            );
            let pct = r.coverage_pct();
            last = Some(r);
            pct
        });
        h.set_threads(threads);
        let r = last.expect("full-list bench ran");
        h.metric("faults", all_faults.len() as f64);
        h.metric("patterns", patterns.len() as f64);
        h.metric("coverage_pct", r.coverage_pct());
        full.push(r);
    }
    assert_eq!(
        full[0].detected_mask, full[1].detected_mask,
        "PPSFP detected set depends on the fault-thread count"
    );
    let full_pct = full[0].coverage_pct();
    let thread_speedup = h.results[2].median_ns / h.results[3].median_ns.max(1e-12);
    h.metric("speedup_vs_t1", thread_speedup);

    print!("{}", h.table());
    println!(
        "\nsubset: {} of {} faults, {} patterns, {:.1}% coverage (serial == PPSFP)",
        subset.len(),
        all_faults.len(),
        patterns.len(),
        serial.coverage_pct()
    );
    println!(
        "full list: {} faults, {:.1}% coverage",
        all_faults.len(),
        full_pct
    );
    println!("PPSFP speedup over serial on the subset: {speedup:.1}x");
    println!("full list, 2 vs 1 fault threads: {thread_speedup:.2}x");

    let path = scflow_bench::bench_output_path("BENCH_fault.json");
    h.write_json(&path).expect("write BENCH_fault.json");
    println!("\nwrote {}", path.display());
}
