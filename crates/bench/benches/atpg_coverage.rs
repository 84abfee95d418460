//! ATPG bench: staged random + PODEM pattern generation on the
//! synthesized RTL SRC and on a generator-family netlist, reporting
//! coverage, pattern count, and per-stage yield. Emits `BENCH_atpg.json`.
//!
//! The SRC run is the paper-facing number (collapsed stuck-at coverage
//! with scan DFT inserted); the AdderTree run probes scaling at 10^4
//! gates. Every run is recorded at 1 and 2 fault threads
//! (`SCFLOW_FAULT_THREADS`, which also sizes the PODEM stage), rows
//! `<name>_t1` / `<name>_t2`, and must give the same result at both. Set
//! `SCFLOW_ATPG_BENCH_LARGE=1` to add a 10^5-gate run.

use scflow::models::rtl::{build_rtl_src, RtlVariant};
use scflow::SrcConfig;
use scflow_gate::fault::{all_fault_sites, collapse_faults};
use scflow_gate::gen::{generate, GenKind, GenParams, Redundancy};
use scflow_gate::{
    generate_tests, insert_scan_chain, AtpgOptions, AtpgResult, CellLibrary, GateNetlist,
};
use scflow_synth::rtl::{synthesize, SynthOptions};
use scflow_testkit::Harness;

/// Fault-thread counts every row is recorded at (the host has two
/// cores; the result must not depend on the count).
const THREADS: [u32; 2] = [1, 2];

struct Run {
    faults: usize,
    result: AtpgResult,
}

fn run_atpg(nl: &GateNetlist, lib: &CellLibrary, opts: &AtpgOptions) -> Run {
    let faults = all_fault_sites(nl);
    let collapsed = collapse_faults(nl, &faults);
    Run {
        faults: collapsed.faults.len(),
        result: generate_tests(nl, lib, &collapsed.faults, opts),
    }
}

fn record(h: &mut Harness, run: &Run) {
    let r = &run.result;
    h.metric("faults", run.faults as f64);
    h.metric("detected", r.detected() as f64);
    h.metric("untestable", r.untestable() as f64);
    h.metric("aborted", r.aborted() as f64);
    h.metric("coverage_pct", r.coverage_pct());
    h.metric("patterns", r.patterns.len() as f64);
    h.metric("decisions", r.stats.decisions as f64);
    h.metric("backtracks", r.stats.backtracks as f64);
    h.metric("implied_evals", r.stats.implied_evals as f64);
    h.metric("fsim_frame", r.stats.fsim_frame as f64);
    h.metric("fsim_protocol", r.stats.fsim_protocol as f64);
    h.metric("fsim_cone_evals", r.stats.fsim_cone_evals as f64);
}

fn gen_netlist(gates: usize) -> GateNetlist {
    let mut p = GenParams::sized(GenKind::AdderTree, gates, 7);
    p.redundancy = Redundancy::none();
    insert_scan_chain(&generate(&p))
}

/// One row per entry of [`THREADS`] (`<name>_t<threads>`), each with
/// `SCFLOW_FAULT_THREADS` set to that count; panics unless every run
/// yields the same classes and patterns. Returns the first run.
fn bench_threads(
    h: &mut Harness,
    name: &str,
    nl: &GateNetlist,
    lib: &CellLibrary,
    opts: &AtpgOptions,
) -> Run {
    let mut first: Option<Run> = None;
    for threads in THREADS {
        std::env::set_var("SCFLOW_FAULT_THREADS", threads.to_string());
        let mut run = None;
        h.bench(&format!("{name}_t{threads}"), || {
            let r = run_atpg(nl, lib, opts);
            let pct = r.result.coverage_pct();
            run = Some(r);
            pct
        });
        h.set_threads(threads);
        let run = run.expect("bench ran");
        record(h, &run);
        match &first {
            None => first = Some(run),
            Some(f) => assert!(
                f.result.classes == run.result.classes && f.result.patterns == run.result.patterns,
                "{name}: ATPG result differs between {} and {threads} fault threads",
                THREADS[0]
            ),
        }
    }
    std::env::remove_var("SCFLOW_FAULT_THREADS");
    first.expect("THREADS is not empty")
}

fn main() {
    let lib = CellLibrary::generic_025u();
    let opts = AtpgOptions::default();

    let cfg = SrcConfig::cd_to_dvd();
    let rtl_module = build_rtl_src(&cfg, RtlVariant::Optimised).expect("rtl");
    // synthesize() stitches the scan chain in by default.
    let src = synthesize(&rtl_module, &lib, &SynthOptions::default())
        .expect("synth")
        .netlist;

    let mut h = Harness::new("atpg_coverage").with_iters(1).with_warmup(0);

    let src_run = bench_threads(&mut h, "atpg_src", &src, &lib, &opts);
    let src = &src_run.result;
    assert!(
        src.coverage_pct() >= 95.0,
        "SRC stuck-at coverage regressed below 95% ({:.1}%)",
        src.coverage_pct()
    );

    let gen10k = gen_netlist(10_000);
    bench_threads(&mut h, "atpg_gen_adder_10k", &gen10k, &lib, &opts);

    let large = std::env::var("SCFLOW_ATPG_BENCH_LARGE").is_ok_and(|v| v == "1");
    if large {
        let gen100k = gen_netlist(100_000);
        bench_threads(&mut h, "atpg_gen_adder_100k", &gen100k, &lib, &opts);
    }

    print!("{}", h.table());
    println!(
        "\nSRC: {} collapsed faults, {:.1}% coverage, {} compacted patterns ({} aborted)",
        src_run.faults,
        src.coverage_pct(),
        src.patterns.len(),
        src.aborted()
    );
    if !large {
        println!("set SCFLOW_ATPG_BENCH_LARGE=1 for the 10^5-gate run");
    }

    let path = scflow_bench::bench_output_path("BENCH_atpg.json");
    h.write_json(&path).expect("write BENCH_atpg.json");
    println!("\nwrote {}", path.display());
}
