//! Prints the paper's tables and figures from the reproduction.
//!
//! ```text
//! cargo run --release -p scflow-bench --bin tables -- --all
//! cargo run --release -p scflow-bench --bin tables -- --fig8 --fig10
//! ```

use scflow::SrcConfig;

const KNOWN_FLAGS: [&str; 23] = [
    "--down",
    "--all",
    "--verify",
    "--fig7",
    "--fig8",
    "--fig9",
    "--fig10",
    "--timing",
    "--fault",
    "--atpg",
    "--check-atpg",
    "--ablation-sched",
    "--ablation-regs",
    "--ablation-share",
    "--ablation-pack",
    "--check-engines",
    "--check-gate",
    "--check-snapshot",
    "--check-opt",
    "--netlist-stats",
    "--profile",
    "--coverage",
    "--help",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = args.iter().find(|a| !KNOWN_FLAGS.contains(&a.as_str())) {
        eprintln!("error: unknown flag `{unknown}`");
        eprintln!("known flags: {}", KNOWN_FLAGS.join(" "));
        std::process::exit(2);
    }
    // The `SCFLOW_METRICS` / `SCFLOW_PROFILE` environment knobs act as
    // implicit `--coverage` / `--profile` flags.
    let has = |f: &str| {
        args.iter().any(|a| a == f)
            || args.iter().any(|a| a == "--all")
            || (f == "--coverage" && scflow_obs::metrics_enabled())
            || (f == "--profile" && scflow_obs::profile_enabled())
    };
    if args.is_empty() && !has("--coverage") && !has("--profile") || has("--help") {
        eprintln!(
            "usage: tables [--down] [--all] [--verify] [--fig7] [--fig8] [--fig9] \
             [--fig10] [--timing] [--fault] [--atpg] [--check-atpg] \
             [--ablation-sched] [--ablation-regs] [--ablation-share] \
             [--ablation-pack] [--check-engines] [--check-gate] \
             [--check-snapshot] [--check-opt] [--netlist-stats] [--profile] \
             [--coverage]"
        );
        std::process::exit(2);
    }

    // Malformed ATPG knobs are usage errors, rejected before any work.
    let atpg_knobs = has("--atpg").then(atpg_knobs);

    // --down switches to the 48 kHz -> 44.1 kHz configuration.
    let cfg = if args.iter().any(|a| a == "--down") {
        SrcConfig::dvd_to_cd()
    } else {
        SrcConfig::cd_to_dvd()
    };
    println!("configuration: {} Hz -> {} Hz\n", cfg.in_rate, cfg.out_rate);

    if has("--verify") {
        println!("=== bit-accuracy re-validation of every refinement level ===\n");
        let input = scflow::stimulus::sine(150, 1000.0, f64::from(cfg.in_rate), 9000.0);
        match scflow::flow::validate_all_levels(&cfg, &input) {
            Ok(()) => println!("all synthesisable levels bit-accurate against the golden model\n"),
            Err(e) => {
                eprintln!("FAILED: {e}");
                std::process::exit(1);
            }
        }
    }

    if has("--fig7") {
        println!("=== Figure 7: time quantisation of sample events ===\n");
        let input = scflow::stimulus::sine(30, 1000.0, f64::from(cfg.in_rate), 9000.0);
        let chan = scflow::models::channel::run_channel_model(&cfg, &input);
        let beh = scflow::models::beh::run_beh_model(&cfg, &input);
        let period = scflow::models::beh::CLOCK_PERIOD.as_ps();
        println!(
            "{:<6} {:>18} {:>8} {:>18} {:>8}",
            "sample", "continuous (ps)", "on-grid", "clocked (ps)", "on-grid"
        );
        for i in 0..chan.output_times.len().min(beh.output_times.len()).min(8) {
            let c = chan.output_times[i].as_ps();
            let q = beh.output_times[i].as_ps();
            println!(
                "{i:<6} {c:>18} {:>8} {q:>18} {:>8}",
                c % period == period / 2,
                q % period == period / 2
            );
        }
        println!("(clocked sample events can only occur at clock edges — Figure 7)\n");
    }

    if has("--fig8") {
        println!("=== Figure 8: simulation performance by abstraction level ===");
        println!("(simulated 25 MHz-equivalent clock cycles per wall second)\n");
        println!(
            "{:<12} {:>16} {:>10} {:>12}",
            "model", "cycles/sec", "outputs", "wall"
        );
        for r in scflow_bench::measure_fig8(&cfg, 2) {
            println!(
                "{:<12} {:>16.0} {:>10} {:>12?}",
                r.model, r.cycles_per_sec, r.outputs, r.wall
            );
        }
        println!();
    }

    if has("--fig9") {
        println!("=== Figure 9: co-simulation vs native HDL simulation ===");
        println!("(simulated clock cycles per wall second)\n");
        println!(
            "{:<11} {:<12} {:>14} {:>10}",
            "DUT", "testbench", "cycles/sec", "cycles"
        );
        for r in scflow_bench::measure_fig9(&cfg, 40) {
            println!(
                "{:<11} {:<12} {:>14.0} {:>10}",
                r.dut, r.testbench, r.cycles_per_sec, r.cycles
            );
        }
        println!();
    }

    if has("--fault") {
        println!("=== Scan-test fault coverage (PPSFP, SCFLOW_FAULT_THREADS workers) ===\n");
        let lib = scflow_gate::CellLibrary::generic_025u();
        match scflow::flow::run_fault_flow(&cfg, &lib, 32, 0xBEEF) {
            Ok(report) => println!("{report}"),
            Err(e) => {
                eprintln!("FAILED: {e}");
                std::process::exit(1);
            }
        }
    }

    if has("--fig10") {
        println!("=== Figure 10: gate-level area relative to the VHDL reference ===\n");
        println!("{}", scflow_bench::measure_fig10(&cfg));
    }

    if has("--timing") {
        println!("=== Timing closure at the paper's 40 ns clock ===\n");
        println!("{:<12} {:>12} {:>8}", "design", "path (ps)", "meets");
        for (design, path, meets) in scflow_bench::timing_table(&cfg) {
            println!("{design:<12} {path:>12} {meets:>8}");
        }
        println!();
    }

    let print_ablation = |title: &str, rows: Vec<scflow_bench::AblationRow>| {
        println!("=== Ablation: {title} ===\n");
        println!(
            "{:<30} {:>12} {:>8} {:>8}",
            "configuration", "area um^2", "flops", "states"
        );
        for r in rows {
            println!(
                "{:<30} {:>12.1} {:>8} {:>8}",
                r.config, r.total_um2, r.flops, r.states
            );
        }
        println!();
    };

    if has("--ablation-sched") {
        print_ablation(
            "I/O scheduling mode",
            scflow_bench::ablation_scheduling(&cfg),
        );
    }
    if has("--ablation-regs") {
        print_ablation(
            "register allocation",
            scflow_bench::ablation_register_merging(&cfg),
        );
    }
    if has("--ablation-share") {
        print_ablation(
            "multiplier sharing",
            scflow_bench::ablation_resource_sharing(&cfg),
        );
    }
    if has("--ablation-pack") {
        print_ablation(
            "statement packing",
            scflow_bench::ablation_statement_packing(&cfg),
        );
    }

    if has("--check-engines") {
        println!("=== Engine check: compiled levelized vs interpreted RTL ===\n");
        let check = scflow_bench::check_engines(&cfg, 120);
        println!("{:<14} {:>16}", "engine", "cycles/sec");
        println!("{:<14} {:>16.0}", "interpreted", check.interpreted_cps);
        println!("{:<14} {:>16.0}", "compiled", check.compiled_cps);
        println!("speedup: {:.2}x\n", check.speedup());
        if check.speedup() < 1.0 {
            eprintln!(
                "FAILED: compiled engine is slower than the interpreter \
                 ({:.0} vs {:.0} cycles/sec)",
                check.compiled_cps, check.interpreted_cps
            );
            std::process::exit(1);
        }
    }

    if has("--check-gate") {
        println!("=== Gate-engine check: bit-parallel vs event-driven ===\n");
        let check = scflow_bench::check_gate_engines(&cfg, 30);
        println!("{:<14} {:>16}", "engine", "cycles/sec");
        println!("{:<14} {:>16.0}", "event-driven", check.event_cps);
        println!("{:<14} {:>16.0}", "bit-parallel", check.bitpar_cps);
        println!("DUT speedup (bitpar vs event): {:.2}x", check.dut_speedup());
        println!(
            "fault sim: {} faults x {} patterns, {:.1}% coverage, \
             serial {:?} vs PPSFP {:?} ({:.1}x)\n",
            check.faults,
            check.patterns,
            check.coverage_pct,
            check.fault_serial_wall,
            check.fault_ppsfp_wall,
            check.fault_speedup()
        );
        if !check.coverage_matches {
            eprintln!("FAILED: PPSFP detected-fault set differs from the serial reference");
            std::process::exit(1);
        }
        if check.bitpar_cps < check.event_cps {
            eprintln!(
                "FAILED: bit-parallel engine is slower than the event-driven one \
                 ({:.0} vs {:.0} cycles/sec)",
                check.bitpar_cps, check.event_cps
            );
            std::process::exit(1);
        }
    }

    if has("--check-snapshot") {
        println!("=== Snapshot check: forked replays vs straight runs ===\n");
        let check = scflow_bench::check_snapshot(&cfg);
        let straight = scflow_bench::bench_output_path("SNAPSHOT_straight.txt");
        let forked = scflow_bench::bench_output_path("SNAPSHOT_forked.txt");
        std::fs::write(&straight, &check.straight).expect("write SNAPSHOT_straight.txt");
        std::fs::write(&forked, &check.forked).expect("write SNAPSHOT_forked.txt");
        println!(
            "{} scenarios x 2 engines: outputs, violations, coverage, VCD and \
             metrics {}",
            check.scenarios,
            if check.matches() {
                "byte-identical"
            } else {
                "DIVERGED"
            }
        );
        println!("wrote {}", straight.display());
        println!("wrote {}\n", forked.display());
        if !check.matches() {
            eprintln!("FAILED: snapshot-forked replays diverged from the straight runs");
            std::process::exit(1);
        }
    }

    // Observability sinks, declared ahead of the sections that feed
    // them: everything merges into one METRICS.json.
    let mut metrics_out = scflow_obs::MetricsRegistry::new();
    let mut profile_out: Option<scflow_obs::Profiler> = None;
    let mut emit_metrics = false;

    if has("--check-opt") {
        println!("=== Pass-pipeline check: passes off vs level 2, every compiled engine ===\n");
        println!(
            "{:<18} {:>14} {:>14} {:>9}",
            "engine", "off cyc/s", "opt2 cyc/s", "speedup"
        );
        let rows = scflow_bench::check_opt(&cfg, 60);
        let mut slower = Vec::new();
        for r in &rows {
            println!(
                "{:<18} {:>14.0} {:>14.0} {:>8.2}x",
                r.engine,
                r.off_cps,
                r.on_cps,
                r.speedup()
            );
            if r.speedup() < 0.5 {
                slower.push(r.engine);
            }
        }
        println!("\nall engines bit-accurate against the golden model at both levels\n");
        // The generated-circuit floor lives in the opt_scaling bench;
        // here only a gross regression (passes *halving* throughput on
        // the small SRC) fails the check.
        if !slower.is_empty() {
            eprintln!("FAILED: pass pipeline halves throughput on: {slower:?}");
            std::process::exit(1);
        }
    }

    if has("--netlist-stats") {
        println!("=== Netlist statistics (before / after the level-2 passes) ===\n");
        println!(
            "{:<14} {:>8} {:>7} {:>8} {:>5} {:>7} {:>11} {:>6}",
            "netlist", "gates", "flops", "nets", "mems", "levels", "max fanout", "cut"
        );
        let (rows, stats_metrics) = scflow_bench::netlist_stats(&cfg);
        for (name, s) in &rows {
            println!(
                "{name:<14} {:>8} {:>7} {:>8} {:>5} {:>7} {:>11} {:>6}",
                s.gates, s.flops, s.nets, s.mems, s.levels, s.max_fanout, s.cut
            );
        }
        println!();
        if scflow_obs::metrics_enabled() {
            metrics_out.merge_from(&stats_metrics);
            emit_metrics = true;
        }
    }

    if has("--atpg") {
        println!("=== ATPG: staged random + PODEM test generation (SCFLOW_ATPG_* knobs) ===\n");
        let lib = scflow_gate::CellLibrary::generic_025u();
        let (opts, min) = atpg_knobs.expect("read when --atpg is set");
        match scflow::flow::run_atpg_flow(&cfg, &lib, &opts) {
            Ok((report, result)) => {
                println!("{report}");
                // Always emitted (like --coverage): verify.sh cmp's the
                // METRICS.json of two runs at different thread counts,
                // which pins the whole result — patterns, classes,
                // curve — as thread-schedule independent.
                let mut reg = scflow_obs::MetricsRegistry::new();
                result.stats.register_into(&mut reg, "atpg");
                reg.set_counter("atpg.faults", report.faults as u64);
                reg.set_counter("atpg.uncollapsed", report.uncollapsed as u64);
                reg.set_counter("atpg.detected", report.detected as u64);
                reg.set_counter("atpg.untestable", report.untestable as u64);
                reg.set_counter("atpg.aborted", report.aborted as u64);
                reg.set_counter("atpg.patterns", report.patterns as u64);
                reg.set_counter(
                    "atpg.coverage_pct_x10",
                    (report.coverage_pct * 10.0).round() as u64,
                );
                metrics_out.merge_from(&reg);
                emit_metrics = true;
                if let Some(min) = min.filter(|&m| report.coverage_pct < m) {
                    eprintln!(
                        "FAILED: ATPG coverage {:.1}% below SCFLOW_ATPG_MIN={min}%",
                        report.coverage_pct
                    );
                    std::process::exit(1);
                }
            }
            Err(e) => {
                eprintln!("FAILED: {e}");
                std::process::exit(1);
            }
        }
    }

    if has("--check-atpg") {
        println!("=== ATPG check: directed stage smoke run (tiny budget) ===\n");
        let lib = scflow_gate::CellLibrary::generic_025u();
        let opts = scflow_gate::AtpgOptions {
            random: false,
            directed: true,
            budget: 32,
            compact: false,
            ..scflow_gate::AtpgOptions::default()
        };
        match scflow::flow::run_atpg_flow(&cfg, &lib, &opts) {
            Ok((report, result)) => {
                println!(
                    "directed-only on {}: {}/{} detected, {} untestable, {} aborted, \
                     {} patterns",
                    report.design,
                    report.detected,
                    report.faults,
                    report.untestable,
                    report.aborted,
                    report.patterns
                );
                // Every emitted pattern must have come out of a verified
                // detection; classes must partition the fault list.
                let classified = report.detected
                    + report.untestable
                    + report.aborted
                    + result
                        .classes
                        .iter()
                        .filter(|c| matches!(c, scflow_gate::FaultClass::Undetected))
                        .count();
                if classified != report.faults || report.detected == 0 {
                    eprintln!("FAILED: directed stage produced an inconsistent classification");
                    std::process::exit(1);
                }
                println!("directed stage classification consistent\n");
            }
            Err(e) => {
                eprintln!("FAILED: {e}");
                std::process::exit(1);
            }
        }
    }

    // Observability subcommands: both feed the same METRICS.json, so
    // `--all` (or SCFLOW_METRICS plus SCFLOW_PROFILE) writes one
    // combined artefact. The metrics object stays deterministic; only
    // the optional profile section carries wall-clock numbers.
    if has("--coverage") {
        println!("=== Toggle coverage across all simulation engines ===\n");
        let rep = scflow_bench::measure_coverage(&cfg);
        println!("{:<24} {:>9}", "level", "coverage");
        println!("{:<24} {:>8.1}%", "RTL (per net bit)", rep.rtl_percent);
        println!(
            "{:<24} {:>8.1}%",
            "gate (per cell output)", rep.gate_percent
        );
        println!(
            "within-level maps byte-identical across engines: {}\n",
            if rep.maps_match { "yes" } else { "NO" }
        );
        if !rep.maps_match {
            eprintln!("FAILED: toggle-coverage maps differ between engines at the same level");
            std::process::exit(1);
        }
        metrics_out.merge_from(&rep.metrics);
        emit_metrics = true;
    }

    if has("--profile") {
        println!("=== Flow profile: wall time per phase ===\n");
        let lib = scflow_gate::CellLibrary::generic_025u();
        let input = scflow::stimulus::sine(150, 1000.0, f64::from(cfg.in_rate), 9000.0);
        match scflow::flow::profile_flow(&cfg, &lib, &input, 32, 0xBEEF) {
            Ok(p) => {
                print!("{}", p.report());
                println!("total: {:.1} ms\n", p.total_ns() as f64 / 1e6);
                metrics_out.merge_from(&p.metrics);
                profile_out = Some(p.profiler);
            }
            Err(e) => {
                eprintln!("FAILED: {e}");
                std::process::exit(1);
            }
        }
        emit_metrics = true;
    }

    if emit_metrics {
        let path = scflow_bench::write_metrics_json(&metrics_out, profile_out.as_ref());
        println!("wrote {}", path.display());
    }
}

/// The `--atpg` knobs: the `SCFLOW_ATPG_*` generator options and the
/// optional `SCFLOW_ATPG_MIN` coverage floor (a CI assert: the run fails
/// below that collapsed stuck-at coverage). Exits 2 on a malformed value.
fn atpg_knobs() -> (scflow_gate::AtpgOptions, Option<f64>) {
    let opts = scflow_gate::AtpgOptions::from_env().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    (opts, scflow_bench::floor_from_env("SCFLOW_ATPG_MIN"))
}
