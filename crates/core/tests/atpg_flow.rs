//! Flow-level ATPG regressions on the synthesized SRC: fault collapsing
//! must not change the detected set, every class the patterns detect must
//! be credited, and `run_atpg_flow` must be bit-identical regardless of
//! PPSFP/PODEM thread count or partitioning.

use scflow::models::rtl::{build_rtl_src, RtlVariant};
use scflow::SrcConfig;
use scflow_gate::fault::{all_fault_sites, collapse_faults, fault_coverage};
use scflow_gate::{generate_tests, AtpgOptions, CellLibrary, FaultClass};
use scflow_synth::rtl::{synthesize, SynthOptions};

/// A reduced budget keeps the runs to a couple of seconds each; the
/// properties under test do not depend on closing full coverage. Four
/// random rounds leave ~270 classes to the directed stage, and its
/// flushes then detect classes aborted earlier (17 on the SRC).
fn quick_opts() -> AtpgOptions {
    AtpgOptions {
        random_max: 4,
        budget: 16,
        ..AtpgOptions::default()
    }
}

/// Equivalence-class collapsing is an optimisation, not an
/// approximation: simulating the emitted patterns against the collapsed
/// representatives and expanding via the class map must give exactly
/// the detected set of simulating the full uncollapsed fault list.
#[test]
fn collapsed_and_uncollapsed_detected_sets_agree_on_src() {
    let cfg = SrcConfig::cd_to_dvd();
    let lib = CellLibrary::generic_025u();
    let module = build_rtl_src(&cfg, RtlVariant::Optimised).expect("rtl");
    let nl = synthesize(&module, &lib, &SynthOptions::default())
        .expect("synth")
        .netlist;

    let all = all_fault_sites(&nl);
    let collapsed = collapse_faults(&nl, &all);
    assert!(
        collapsed.faults.len() < all.len(),
        "collapsing had no effect"
    );

    let r = generate_tests(&nl, &lib, &collapsed.faults, &quick_opts());
    assert!(!r.patterns.is_empty());

    let rep = fault_coverage(&nl, &lib, &collapsed.faults, &r.patterns);
    // ATPG credits every class its final patterns detect: each pattern
    // was checked against every class still open (undetected or
    // aborted) when it was generated.
    let uncredited: Vec<_> = (0..r.classes.len())
        .filter(|&i| rep.detected_mask[i] && !matches!(r.classes[i], FaultClass::Detected { .. }))
        .map(|i| (collapsed.faults[i], r.classes[i]))
        .collect();
    assert!(
        uncredited.is_empty(),
        "patterns detect classes ATPG does not credit: {uncredited:?}"
    );
    let expanded = collapsed.expand_mask(&rep.detected_mask);
    let full = fault_coverage(&nl, &lib, &all, &r.patterns);
    assert_eq!(
        expanded, full.detected_mask,
        "collapsed-then-expanded detected set diverges from the uncollapsed run"
    );
}

/// `run_atpg_flow` output — patterns, per-fault classes, the coverage
/// curve and the effort counters — must not depend on how the PPSFP and
/// PODEM stages are scheduled. Env knobs are varied sequentially inside
/// one test to avoid races with the process-wide environment.
#[test]
fn atpg_flow_deterministic_across_thread_counts() {
    let cfg = SrcConfig::cd_to_dvd();
    let lib = CellLibrary::generic_025u();
    let opts = quick_opts();

    let mut reference = None;
    for threads in ["1", "2", "4", "8"] {
        std::env::set_var("SCFLOW_FAULT_THREADS", threads);
        let (report, result) = scflow::flow::run_atpg_flow(&cfg, &lib, &opts).expect("flow");
        // Effort counters sum committed PODEM searches only: speculative
        // work the in-order commit discards must not leak into them.
        let s = &result.stats;
        let effort = vec![
            ("decisions", s.decisions),
            ("backtracks", s.backtracks),
            ("implied_evals", s.implied_evals),
            ("random_detected", s.random_detected as u64),
            ("directed_detected", s.directed_detected as u64),
            (
                "patterns_before_compaction",
                s.patterns_before_compaction as u64,
            ),
        ];
        let key = (result.patterns, result.classes, result.stats.curve, effort);
        match &reference {
            None => reference = Some((key, report.coverage_pct)),
            Some(((pats, classes, curve, effort), ref_cov)) => {
                let div = scflow_testkit::first_divergence("patterns", pats, &key.0)
                    .or_else(|| scflow_testkit::first_divergence("classes", classes, &key.1))
                    .or_else(|| scflow_testkit::first_divergence("curve", curve, &key.2))
                    .or_else(|| scflow_testkit::first_divergence("effort", effort, &key.3));
                assert!(
                    div.is_none(),
                    "ATPG output diverged at SCFLOW_FAULT_THREADS={threads}: {}",
                    div.unwrap()
                );
                assert_eq!(ref_cov, &report.coverage_pct);
            }
        }
    }
    std::env::remove_var("SCFLOW_FAULT_THREADS");
}
