//! `scflow-perfbench --workload <flow|regress|serve> --seed <n>
//! --seconds <n> --trace <0|1>`
//!
//! Prints the effective configuration and a report, then, as the last
//! line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics, or with `--trace 1` the per-layer
//! metrics). Exits non-zero on any wrong output. A traced run also
//! writes its spans to `.bench_out/` under the working directory.

use scflow_perfbench::metrics::{end_to_end, per_layer};
use scflow_perfbench::{effective_config, pin_environment, result_line, run, Args, Size};
use std::process::ExitCode;

fn main() -> ExitCode {
    let ambient = pin_environment();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <flow|regress|serve> --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    println!("scflow perfbench");
    for line in effective_config(&args, &ambient) {
        println!("  config {line}");
    }

    let outcome = run(&args, &Size::full());
    for line in &outcome.notes {
        println!("  {line}");
    }
    let defs = if args.trace {
        per_layer()
    } else {
        end_to_end()
    };
    for d in &defs {
        if let Some(v) = outcome.values.get(&d.name) {
            let moves = if d.moves.is_empty() {
                String::new()
            } else {
                format!("  -> {}", d.moves)
            };
            println!(
                "  {:<34} {:>16.6} {:<9} {:<6}{moves}",
                d.name,
                v,
                d.unit,
                d.better.as_str()
            );
        }
    }
    for f in outcome.ledger.failures.iter().take(20) {
        println!("  FAILED: {f}");
    }
    if args.trace {
        let path = std::path::PathBuf::from(".bench_out").join(format!(
            "spans-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        match outcome.tracer.write_jsonl(&path) {
            Ok(()) => println!(
                "  spans: {} written to {}",
                outcome.tracer.spans().len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("error: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    match result_line(&defs, &outcome.values, &outcome.ledger) {
        Ok(line) => {
            println!("{line}");
            if outcome.ledger.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
