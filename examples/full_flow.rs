//! The complete refinement-driven design flow, end to end — the paper's
//! evaluation in one run:
//!
//! 1. generate golden vectors from the C++-style algorithmic model,
//! 2. re-validate **bit accuracy** of every refinement level
//!    (channel, refined channel, clocked behavioural, clocked RTL, all
//!    synthesisable variants),
//! 3. synthesise every design variant to gates,
//! 4. print the Figure 10 area table and the timing closure check.
//!
//! ```text
//! cargo run --release -p scflow --example full_flow
//! ```

use scflow::models::beh::run_beh_model;
use scflow::models::channel::run_channel_model;
use scflow::models::refined::run_refined_model;
use scflow::models::rtl::run_rtl_model;
use scflow::prelude::*;

fn main() {
    let cfg = SrcConfig::cd_to_dvd();
    println!(
        "== refinement flow: {} Hz -> {} Hz ==\n",
        cfg.in_rate, cfg.out_rate
    );

    // Golden vectors from the algorithmic model.
    let input = stimulus::sweep(200, 100.0, 18_000.0, 44_100.0, 9_000.0);
    let golden = GoldenVectors::generate(&cfg, input.clone());
    println!(
        "golden model: {} inputs -> {} outputs",
        golden.input.len(),
        golden.output.len()
    );

    // Re-validate each kernel-based refinement step.
    type Step<'a> = (&'a str, Box<dyn Fn() -> Vec<i16> + 'a>);
    let steps: [Step; 4] = [
        (
            "SystemC hierarchical channel",
            Box::new(|| run_channel_model(&cfg, &input).outputs),
        ),
        (
            "refined channel (3 submodules)",
            Box::new(|| run_refined_model(&cfg, &input).outputs),
        ),
        (
            "clocked behavioural model",
            Box::new(|| run_beh_model(&cfg, &input).outputs),
        ),
        (
            "clocked RTL model (2-process)",
            Box::new(|| run_rtl_model(&cfg, &input).outputs),
        ),
    ];
    for (name, run) in steps {
        match compare_bit_accurate(&golden.output, &run()) {
            Ok(()) => println!("  [bit-accurate] {name}"),
            Err(m) => panic!("{name} diverged: {m}"),
        }
    }

    // Synthesisable levels, validated by interpreted RTL simulation.
    validate_all_levels(&cfg, &input).expect("synthesisable levels bit-accurate");
    println!("  [bit-accurate] all synthesisable variants (BEH x2, RTL x3, VHDL ref)\n");

    // Synthesis and the Figure 10 table.
    let lib = CellLibrary::generic_025u();
    let fig10 = run_area_flow(&cfg, &lib).expect("synthesis");
    println!("== Figure 10: area relative to the VHDL reference ==\n{fig10}");

    println!("== timing at the 40 ns clock ==");
    for row in &fig10.rows {
        println!(
            "  {:<12} {:>6} ps  {}",
            row.design,
            row.critical_path_ps,
            if row.critical_path_ps + 150 <= 40_000 {
                "meets"
            } else {
                "VIOLATES"
            }
        );
    }
}
