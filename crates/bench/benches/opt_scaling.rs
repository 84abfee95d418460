//! Compile-pass scaling bench: throughput of the compiled gate engine
//! with the pass pipeline off vs on (`opt0` vs `opt2`), across
//! generated circuits from 10^3 to 10^5 gates, plus the RTL bytecode
//! pipeline on the SRC design. Emits `BENCH_opt.json`.
//!
//! Each size row generates one deterministic netlist
//! ([`scflow_gate::gen`]) carrying the default redundancy dose (~1/3
//! of the cells removable), optimizes a copy at level 2, and measures
//! simulated cycles per wall second of `gate.bitpar` — the compiled
//! bit-parallel engine in single-pattern mode — on both variants. A
//! light output cross-check runs alongside the
//! timing (the full byte-differential lives in the test suites). The
//! bench exits non-zero if the level-2 `gate.bitpar` throughput at the
//! largest size falls under the floor (`SCFLOW_OPT_MIN`, default
//! 1.15x) of the unoptimized run.

use scflow::models::rtl::{build_rtl_src, RtlVariant};
use scflow::SrcConfig;
use scflow_gate::gen::{generate, GenKind, GenParams};
use scflow_gate::{optimize, GateProgram, NetlistStats, Simulation};
use scflow_hwtypes::{Bv, PassConfig};
use scflow_rtl::CompiledProgram;
use scflow_testkit::Harness;

/// Target core gate counts — three decades. `SCFLOW_OPT_BENCH_MAX`
/// (gates) trims the sweep for quick runs; the floor is always taken
/// at the largest size that ran.
const SIZES: [usize; 3] = [1_000, 10_000, 100_000];

fn main() {
    let floor = scflow_bench::floor_from_env("SCFLOW_OPT_MIN").unwrap_or(1.15);
    let max_gates: usize = std::env::var("SCFLOW_OPT_BENCH_MAX")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(usize::MAX);
    let sizes: Vec<usize> = SIZES.iter().copied().filter(|&s| s <= max_gates).collect();
    assert!(
        !sizes.is_empty(),
        "SCFLOW_OPT_BENCH_MAX excludes every size"
    );

    let mut h = Harness::new("opt_scaling").with_iters(5).with_warmup(1);
    let passes = PassConfig::for_level(2);
    // The floor compares the last size's bitpar rows.
    let mut floor_pair: Option<(f64, f64)> = None;

    for &size in &sizes {
        let params = GenParams::sized(GenKind::Pipeline, size, 7);
        let nl = generate(&params);
        let opt = optimize(&nl, &passes).expect("passes run");
        let stats_before = NetlistStats::compute(&nl).expect("stats");
        let stats_after = NetlistStats::compute(&opt.netlist).expect("stats");
        println!(
            "{}: {} cells -> {} ({} folded, {} cse, {} dce), levels {} -> {}",
            nl.name(),
            opt.stats.cells_before,
            opt.stats.cells_after,
            opt.stats.folded,
            opt.stats.cse_merged,
            opt.stats.dce_removed,
            stats_before.levels,
            stats_after.levels,
        );

        // Keep the total simulated work roughly constant across sizes.
        let cycles = (2_000_000 / size as u64).clamp(16, 2_048);

        // Sanity: both variants agree on the observed outputs before
        // any timing is trusted.
        {
            let p0 = GateProgram::compile(&nl).expect("compiles");
            let p2 = GateProgram::compile(&opt.netlist).expect("compiles");
            let mut s0 = p0.simulator();
            let mut s2 = p2.simulator();
            for s in [&mut s0 as &mut dyn Simulation, &mut s2] {
                s.poke("a", Bv::new(0x5a, 8));
            }
            for c in 0..64u64 {
                s0.tick();
                s2.tick();
                assert_eq!(s0.peek("y"), s2.peek("y"), "{}: cycle {c}", nl.name());
            }
        }

        for (variant, netlist) in [("opt0", &nl), ("opt2", &opt.netlist)] {
            let program = GateProgram::compile(netlist).expect("compiles");
            let mut sim = program.simulator();
            sim.poke("a", Bv::new(0x5a, 8));
            let r = h.bench_cycles(&format!("gate.bitpar/{size}/{variant}"), || {
                sim.run_cycles(cycles);
                cycles
            });
            let bit_cps = r.cycles_per_sec.unwrap_or(0.0);
            h.metric("gates", netlist.comb_count() as f64);
            if size == *sizes.last().expect("nonempty") {
                let slot = &mut floor_pair.get_or_insert((0.0, 0.0));
                if variant == "opt0" {
                    slot.0 = bit_cps;
                } else {
                    slot.1 = bit_cps;
                }
            }
        }
    }

    // The RTL bytecode pipeline on the flow's own design: compile the
    // optimised SRC at level 0 and level 2 and compare the compiled
    // engine's throughput.
    let cfg = SrcConfig::cd_to_dvd();
    let module = build_rtl_src(&cfg, RtlVariant::Optimised).expect("rtl builds");
    for (variant, level) in [("opt0", 0u8), ("opt2", 2)] {
        let program = CompiledProgram::compile_with(&module, &PassConfig::for_level(level))
            .expect("compiles");
        let mut sim = program.simulator();
        sim.poke("in_sample", Bv::new(0x1234, 16));
        sim.poke("in_sample_valid", Bv::bit(true));
        sim.poke("out_sample_ready", Bv::bit(true));
        let r = h.bench_cycles(&format!("rtl.compiled/src/{variant}"), || {
            sim.run_cycles(4_096);
            4_096
        });
        let _ = r;
        h.metric("insts", program.instruction_count() as f64);
        h.metric("slots", program.slot_count() as f64);
    }

    let (off_cps, on_cps) = floor_pair.expect("largest size always benches");
    let speedup = on_cps / off_cps.max(1e-12);
    h.metric("opt_speedup", speedup);

    print!("{}", h.table());
    println!(
        "\ngate.bitpar at {} gates: opt0 {off_cps:.0} cycles/s, opt2 {on_cps:.0} \
         cycles/s ({speedup:.2}x)",
        sizes.last().expect("nonempty")
    );

    let path = scflow_bench::bench_output_path("BENCH_opt.json");
    h.write_json(&path).expect("write BENCH_opt.json");
    println!("wrote {}", path.display());

    if speedup < floor {
        eprintln!(
            "FAILED: pass pipeline buys only {speedup:.2}x gate.bitpar throughput \
             at the largest size (floor {floor:.2}x)"
        );
        std::process::exit(1);
    }
}
