//! Property layer for the ATPG engine.
//!
//! Two families of evidence back every `generate_tests` verdict:
//!
//! * **two-engine replay** — the emitted pattern set is fault-simulated
//!   on both the event-driven `GateSim` (serial, reference) and the
//!   bit-parallel `BitGateSim` (PPSFP). Every fault the ATPG classified
//!   `Detected` must be detected by the pattern set on *both* engines,
//!   and the two engines must agree fault-for-fault.
//! * **exhaustive cross-check** — on frames small enough to enumerate
//!   (≤16 assignable inputs, no RAMs), `Untestable` verdicts must match
//!   brute-force enumeration of every input assignment, and `Detected`
//!   verdicts must be reachable by at least one assignment.

use scflow_gate::atpg::exhaustive_frame_detectable;
use scflow_gate::fault::{all_fault_sites, collapse_faults, fault_coverage, fault_coverage_serial};
use scflow_gate::gen::{generate, GenKind, GenParams, Redundancy};
use scflow_gate::{
    generate_tests, insert_scan_chain, AtpgOptions, CellKind, CellLibrary, FaultClass, GateNetlist,
    NetlistBuilder,
};

const FAMILIES: [GenKind; 4] = [
    GenKind::AdderTree,
    GenKind::MultTree,
    GenKind::Pipeline,
    GenKind::SrcMac,
];

fn family_netlist(kind: GenKind, gates: usize, seed: u64) -> GateNetlist {
    let mut p = GenParams::sized(kind, gates, seed);
    p.redundancy = Redundancy::none();
    insert_scan_chain(&generate(&p))
}

/// Every pattern set must replay identically on both simulation engines,
/// and cover every fault the ATPG claims is detected.
#[test]
fn patterns_detect_on_both_engines_across_families() {
    let lib = CellLibrary::generic_025u();
    for kind in FAMILIES {
        let nl = family_netlist(kind, 400, 0xA11CE);
        let faults = all_fault_sites(&nl);
        let collapsed = collapse_faults(&nl, &faults);
        let r = generate_tests(&nl, &lib, &collapsed.faults, &AtpgOptions::default());
        assert!(!r.patterns.is_empty(), "{kind:?}: no patterns emitted");
        assert_eq!(
            r.detected() + r.untestable() + r.aborted(),
            collapsed.faults.len(),
            "{kind:?}: classes do not partition the fault list"
        );

        // PPSFP replay over the full collapsed list: the detected set of
        // the emitted patterns must equal the Detected verdicts.
        let ppsfp = fault_coverage(&nl, &lib, &collapsed.faults, &r.patterns);
        for (i, class) in r.classes.iter().enumerate() {
            let credited = matches!(class, FaultClass::Detected { .. });
            assert_eq!(
                credited, ppsfp.detected_mask[i],
                "{kind:?}: fault {:?} classified {class:?}, but detected by \
                 the emitted patterns on BitGateSim = {}",
                collapsed.faults[i], ppsfp.detected_mask[i]
            );
        }

        // Serial event-driven replay on a strided subset: the reference
        // engine must agree with PPSFP fault-for-fault.
        let stride = (collapsed.faults.len() / 48).max(1);
        let idx: Vec<usize> = (0..collapsed.faults.len()).step_by(stride).collect();
        let subset: Vec<_> = idx.iter().map(|&i| collapsed.faults[i]).collect();
        let serial = fault_coverage_serial(&nl, &lib, &subset, &r.patterns);
        for (k, &i) in idx.iter().enumerate() {
            assert_eq!(
                serial.detected_mask[k], ppsfp.detected_mask[i],
                "{kind:?}: engines disagree on fault {:?}",
                collapsed.faults[i]
            );
        }
    }
}

/// A constant-0 cone: `dead = a & !a` feeding an OR. `dead` stuck-at-0
/// is classically untestable; the PODEM stage must prove it rather than
/// abort, and brute-force enumeration must agree with every verdict.
#[test]
fn untestable_verdicts_match_exhaustive_enumeration() {
    let mut b = NetlistBuilder::new("redundant");
    let a = b.input_port("a", 1)[0];
    let bb = b.input_port("b", 1)[0];
    let na = b.cell(CellKind::Inv, &[a]);
    let dead = b.cell(CellKind::And2, &[a, na]);
    let y = b.cell(CellKind::Or2, &[bb, dead]);
    let q = b.dff(y, false);
    b.output_port("q", &[q]);
    let nl = insert_scan_chain(&b.build());

    let lib = CellLibrary::generic_025u();
    let faults = all_fault_sites(&nl);
    let collapsed = collapse_faults(&nl, &faults);
    let r = generate_tests(&nl, &lib, &collapsed.faults, &AtpgOptions::default());

    let mut untestable_seen = 0;
    for (i, class) in r.classes.iter().enumerate() {
        let truth = exhaustive_frame_detectable(&nl, collapsed.faults[i], 16)
            .expect("2-input frame is enumerable");
        match class {
            FaultClass::Detected { .. } => assert!(
                truth,
                "fault {:?} classified Detected but no assignment detects it",
                collapsed.faults[i]
            ),
            FaultClass::Untestable => {
                assert!(
                    !truth,
                    "fault {:?} classified Untestable but an assignment detects it",
                    collapsed.faults[i]
                );
                untestable_seen += 1;
            }
            other => panic!(
                "fault {:?} left as {other:?} on a 2-input frame",
                collapsed.faults[i]
            ),
        }
    }
    assert!(
        untestable_seen > 0,
        "redundant cone produced no Untestable verdict"
    );
}

/// Same cross-check on small generated netlists, for every family whose
/// frame stays enumerable. Faults on frames that grow past 16 inputs are
/// skipped by `exhaustive_frame_detectable` returning `None`.
#[test]
fn small_generated_frames_match_exhaustive_enumeration() {
    let lib = CellLibrary::generic_025u();
    let mut checked = 0;
    for kind in FAMILIES {
        for seed in [3u64, 11] {
            let mut p = GenParams::new(kind, 2, 2, seed);
            p.redundancy = Redundancy::none();
            let nl = insert_scan_chain(&generate(&p));
            let faults = all_fault_sites(&nl);
            let collapsed = collapse_faults(&nl, &faults);
            let r = generate_tests(&nl, &lib, &collapsed.faults, &AtpgOptions::default());
            for (i, class) in r.classes.iter().enumerate() {
                let Some(truth) = exhaustive_frame_detectable(&nl, collapsed.faults[i], 16) else {
                    continue;
                };
                checked += 1;
                match class {
                    FaultClass::Detected { .. } => assert!(
                        truth,
                        "{kind:?} seed {seed}: {:?} Detected but undetectable",
                        collapsed.faults[i]
                    ),
                    FaultClass::Untestable => assert!(
                        !truth,
                        "{kind:?} seed {seed}: {:?} Untestable but detectable",
                        collapsed.faults[i]
                    ),
                    // Aborted carries no claim; nothing to cross-check.
                    _ => {}
                }
            }
        }
    }
    assert!(
        checked > 0,
        "no generated frame was small enough to enumerate"
    );
}
