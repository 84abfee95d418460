//! Regression tests for engine reuse via `reset()`: a recycled
//! simulator instance must not leak a prior run's toggle-coverage map
//! into the next run. For every gate engine, a run after `reset()` must
//! produce a coverage report byte-identical to the same run on a fresh
//! instance — the invariant the simulation service relies on when it
//! recycles pooled engines across sessions.

use scflow_gate::{CellKind, CellLibrary, GateNetlist, GateProgram, GateSim, NetlistBuilder};
use scflow_hwtypes::Bv;

/// A 4-bit accumulator: acc <= acc + din, built from ripple full adders.
fn build_dut() -> GateNetlist {
    let mut b = NetlistBuilder::new("reset_reuse_acc");
    let din = b.input_port("din", 4);
    let q: Vec<_> = (0..4).map(|i| b.net(format!("q[{i}]"))).collect();
    let mut carry = b.const0();
    for i in 0..4 {
        let axx = b.cell(CellKind::Xor2, &[q[i], din[i]]);
        let sum = b.cell(CellKind::Xor2, &[axx, carry]);
        let t1 = b.cell(CellKind::And2, &[axx, carry]);
        let t2 = b.cell(CellKind::And2, &[q[i], din[i]]);
        carry = b.cell(CellKind::Or2, &[t1, t2]);
        b.dff_onto(sum, q[i], false);
    }
    b.output_port("acc", &q);
    b.build()
}

const STIMULUS: [u64; 6] = [1, 3, 7, 2, 15, 8];

/// Drives the stimulus, resets, asserts the map came back cleared and
/// primed, reruns and checks the rerun report matches the first run
/// byte for byte. `$tick` names the engine's advance-one-cycle method.
macro_rules! check_reset_reuse {
    ($sim:expr, $tick:ident) => {{
        let sim = $sim;
        sim.set_coverage(true);
        for v in STIMULUS {
            sim.set_input("din", Bv::new(v, 4));
            sim.$tick();
        }
        let baseline = sim.coverage().unwrap().report();
        assert!(sim.coverage().unwrap().total_flips() > 0);

        sim.reset();
        let cov = sim.coverage().expect("coverage must survive reset");
        assert_eq!(cov.total_flips(), 0, "stale flips leaked through reset");
        assert_eq!(cov.covered_bits(), 0);
        assert_eq!(cov.samples(), 1, "collector should be re-primed");

        for v in STIMULUS {
            sim.set_input("din", Bv::new(v, 4));
            sim.$tick();
        }
        assert_eq!(
            sim.coverage().unwrap().report(),
            baseline,
            "second run on a recycled instance diverged from a fresh one"
        );
    }};
}

#[test]
fn event_driven_reset_clears_coverage() {
    let nl = build_dut();
    let lib = CellLibrary::generic_025u();
    let mut sim = GateSim::new(&nl, &lib);
    check_reset_reuse!(&mut sim, tick);
}

#[test]
fn bit_parallel_reset_clears_coverage() {
    let nl = build_dut();
    let prog = GateProgram::compile(&nl).unwrap();
    let mut sim = prog.simulator();
    check_reset_reuse!(&mut sim, tick);
}
