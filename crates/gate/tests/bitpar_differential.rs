//! Differential tests: the compiled bit-parallel engine ([`BitGateSim`])
//! against the event-driven simulator ([`GateSim`]) — single-pattern
//! lockstep including the checking memory model's violation stream,
//! per-lane equivalence on 64 independent stimulus patterns, four-valued
//! X-propagation on random netlists with undriven inputs, and PPSFP
//! fault coverage against the serial reference on a memory-bearing scan
//! design.

use scflow_gate::fault::{
    all_fault_sites, fault_coverage_serial, fault_coverage_with_threads, random_patterns,
};
use scflow_gate::{
    insert_scan_chain, CellKind, CellLibrary, GNetId, GateNetlist, GateProgram, GateSim,
    NetlistBuilder,
};
use scflow_hwtypes::Bv;
use scflow_testkit::Rng;

/// Builds a full adder from basic gates; returns (sum, carry_out).
fn full_adder(b: &mut NetlistBuilder, a: GNetId, x: GNetId, cin: GNetId) -> (GNetId, GNetId) {
    let axx = b.cell(CellKind::Xor2, &[a, x]);
    let sum = b.cell(CellKind::Xor2, &[axx, cin]);
    let t1 = b.cell(CellKind::And2, &[axx, cin]);
    let t2 = b.cell(CellKind::And2, &[a, x]);
    let cout = b.cell(CellKind::Or2, &[t1, t2]);
    (sum, cout)
}

/// The acc_mem DUT: an 8-bit accumulator plus a 5-word checking memory
/// with 3-bit addresses (6/7 out of range).
fn build_dut() -> GateNetlist {
    let mut b = NetlistBuilder::new("acc_mem");
    let din = b.input_port("din", 8);
    let wen = b.input_port("wen", 1)[0];
    let waddr = b.input_port("waddr", 3);
    let raddr = b.input_port("raddr", 3);

    let q_wires: Vec<GNetId> = (0..8).map(|i| b.net(format!("qw[{i}]"))).collect();
    let mut carry = b.const0();
    let mut sums = Vec::new();
    for i in 0..8 {
        let (s, c) = full_adder(&mut b, q_wires[i], din[i], carry);
        sums.push(s);
        carry = c;
    }
    for i in 0..8 {
        b.dff_onto(sums[i], q_wires[i], false);
    }
    b.output_port("acc", &q_wires);

    let wdata: Vec<GNetId> = q_wires[..4].to_vec();
    let dout = b.memory(
        "buf",
        4,
        vec![Bv::zero(4); 5],
        raddr,
        waddr,
        wdata,
        Some(wen),
    );
    b.output_port("dout", &dout);
    b.build()
}

#[test]
fn single_pattern_matches_event_driven_on_seeded_noise() {
    let nl = build_dut();
    let lib = CellLibrary::generic_025u();
    let prog = GateProgram::compile(&nl).expect("acyclic netlist compiles");
    let mut ev = GateSim::new(&nl, &lib);
    let mut bp = prog.simulator();
    let mut rng = Rng::new(0x6A7E_2004);
    for cycle in 0..400 {
        let din = rng.next_u64() & 0xFF;
        let wen = rng.next_u64() & 1;
        let waddr = rng.next_u64() & 7; // 5-word memory: 6/7 out of range
        let raddr = rng.next_u64() & 7;
        for (port, val, w) in [
            ("din", din, 8u32),
            ("wen", wen, 1),
            ("waddr", waddr, 3),
            ("raddr", raddr, 3),
        ] {
            ev.set_input(port, Bv::new(val, w));
            bp.set_input(port, Bv::new(val, w));
        }
        ev.settle();
        bp.settle();
        for port in ["acc", "dout"] {
            assert_eq!(
                ev.output_logic(port),
                bp.output_logic(port),
                "`{port}` diverged after settle, cycle {cycle}"
            );
        }
        ev.tick();
        bp.tick();
        for port in ["acc", "dout"] {
            assert_eq!(
                ev.output_logic(port),
                bp.output_logic(port),
                "`{port}` diverged after edge, cycle {cycle}"
            );
        }
    }
    // Byte-identical checking-memory behaviour: same violations, in the
    // same order, with the same cycle stamps.
    assert!(!ev.violations().is_empty(), "noise hits bad addresses");
    assert_eq!(
        ev.violations(),
        bp.violations(),
        "identical violation streams"
    );
}

#[test]
fn lanes_match_per_pattern_event_driven_runs() {
    // 64 independent input streams in the lanes of one BitGateSim must
    // equal 64 separate event-driven GateSim runs, cycle by cycle.
    let nl = build_dut();
    let lib = CellLibrary::generic_025u();
    let prog = GateProgram::compile(&nl).expect("acyclic netlist compiles");
    let mut bp = prog.simulator_lanes(64);
    let mut refs: Vec<GateSim<'_>> = (0..64).map(|_| GateSim::new(&nl, &lib)).collect();
    let mut rng = Rng::new(0xB17_1A9E5);
    for cycle in 0..60 {
        for (lane, r) in refs.iter_mut().enumerate() {
            let din = rng.next_u64() & 0xFF;
            let wen = rng.next_u64() & 1;
            let waddr = rng.next_u64() & 7;
            let raddr = rng.next_u64() & 7;
            for (port, val, w) in [
                ("din", din, 8u32),
                ("wen", wen, 1),
                ("waddr", waddr, 3),
                ("raddr", raddr, 3),
            ] {
                r.set_input(port, Bv::new(val, w));
                bp.set_input_lane(port, lane as u32, Bv::new(val, w));
            }
        }
        bp.tick();
        for (lane, r) in refs.iter_mut().enumerate() {
            r.tick();
            for port in ["acc", "dout"] {
                assert_eq!(
                    r.output_logic(port),
                    bp.output_logic_lane(port, lane as u32),
                    "`{port}` diverged in lane {lane}, cycle {cycle}"
                );
            }
        }
    }
}

/// A random acyclic netlist: `n_inputs` single-bit inputs, `n_gates`
/// cells over random existing nets, a few flops, every net observable
/// through one wide output port.
fn random_netlist(rng: &mut Rng, n_inputs: usize, n_gates: usize) -> GateNetlist {
    const KINDS: [CellKind; 9] = [
        CellKind::Inv,
        CellKind::Buf,
        CellKind::Nand2,
        CellKind::Nor2,
        CellKind::And2,
        CellKind::Or2,
        CellKind::Xor2,
        CellKind::Xnor2,
        CellKind::Mux2,
    ];
    let mut b = NetlistBuilder::new("rand");
    let mut nets: Vec<GNetId> = (0..n_inputs)
        .map(|i| b.input_port(&format!("i{i}"), 1)[0])
        .collect();
    nets.push(b.const0());
    nets.push(b.const1());
    for g in 0..n_gates {
        let kind = KINDS[rng.index(KINDS.len())];
        let ins: Vec<GNetId> = (0..kind.input_count())
            .map(|_| nets[rng.index(nets.len())])
            .collect();
        let out = b.cell(kind, &ins);
        nets.push(out);
        if g % 7 == 3 {
            nets.push(b.dff(out, rng.bool()));
        }
    }
    let observable: Vec<GNetId> = nets[n_inputs + 2..].to_vec();
    b.output_port("o", &observable);
    b.build()
}

#[test]
fn x_propagation_matches_on_random_netlists_with_undriven_inputs() {
    let mut rng = Rng::new(0x0DD5_EED5);
    for trial in 0..20 {
        let nl = random_netlist(&mut rng, 6, 40);
        let lib = CellLibrary::generic_025u();
        let prog = GateProgram::compile(&nl).expect("builder netlists are acyclic");
        let mut ev = GateSim::new(&nl, &lib);
        let mut bp = prog.simulator();
        for cycle in 0..30 {
            // Roughly a third of the pokes are skipped, so those inputs
            // keep (or revert to) unknown values and X has to flow
            // identically through both engines.
            for i in 0..6 {
                if rng.index(3) == 0 {
                    continue;
                }
                let v = Bv::new(rng.next_u64() & 1, 1);
                ev.set_input(&format!("i{i}"), v);
                bp.set_input(&format!("i{i}"), v);
            }
            ev.settle();
            bp.settle();
            assert_eq!(
                ev.output_logic("o"),
                bp.output_logic("o"),
                "four-valued outputs diverged, trial {trial}, cycle {cycle}"
            );
            ev.tick();
            bp.tick();
            assert_eq!(
                ev.output_logic("o"),
                bp.output_logic("o"),
                "four-valued outputs diverged after edge, trial {trial}, cycle {cycle}"
            );
        }
    }
}

#[test]
fn ppsfp_matches_serial_on_memory_bearing_scan_design() {
    // The acc_mem DUT with a scan chain: fault simulation over a design
    // whose signatures can carry X (memory reads) and whose checking
    // memory fires — the detected sets must still agree exactly.
    let nl = insert_scan_chain(&build_dut());
    let lib = CellLibrary::generic_025u();
    let faults = all_fault_sites(&nl);
    let patterns = random_patterns(&nl, 12, 0xACC0_57A7);
    let serial = fault_coverage_serial(&nl, &lib, &faults, &patterns);
    for threads in [1, 3] {
        let par = fault_coverage_with_threads(&nl, &lib, &faults, &patterns, threads);
        assert_eq!(
            par.detected_mask, serial.detected_mask,
            "{threads}-thread PPSFP diverged from the serial reference"
        );
    }
    assert!(serial.detected > 0, "patterns detect something");
}

#[test]
fn snapshot_forks_resume_identically_across_lanes() {
    // Warm up, snapshot, run a tail straight through, then restore and
    // rerun the same tail: per-lane outputs, the lane-0 violation
    // stream, stats and the coverage report must all be byte-identical.
    let nl = build_dut();
    let prog = GateProgram::compile(&nl).expect("acyclic netlist compiles");
    let mut sim = prog.simulator_lanes(64);
    sim.set_coverage(true);
    let mut rng = Rng::new(0x5AF_F0121);
    let drive = |sim: &mut scflow_gate::BitGateSim<'_>, rng: &mut Rng| {
        for lane in 0..64u32 {
            sim.set_input_lane("din", lane, Bv::new(rng.next_u64() & 0xFF, 8));
            sim.set_input_lane("wen", lane, Bv::new(rng.next_u64() & 1, 1));
            sim.set_input_lane("waddr", lane, Bv::new(rng.next_u64() & 7, 3));
            sim.set_input_lane("raddr", lane, Bv::new(rng.next_u64() & 7, 3));
        }
        sim.tick();
    };
    for _ in 0..40 {
        drive(&mut sim, &mut rng);
    }
    let snap = sim.snapshot_state();
    let tail_rng = rng.clone();
    for _ in 0..25 {
        drive(&mut sim, &mut rng);
    }
    let straight: Vec<_> = (0..64)
        .map(|l| {
            (
                sim.output_logic_lane("acc", l),
                sim.output_logic_lane("dout", l),
            )
        })
        .collect();
    let straight_viol = sim.violations().to_vec();
    let straight_stats = sim.stats();
    let straight_cov = sim.coverage().expect("coverage enabled").report();

    assert!(
        sim.restore_state(&snap),
        "blob restores onto its own design"
    );
    assert_eq!(sim.stats().cycles, 40, "restore rewinds the cycle count");
    let mut rng = tail_rng;
    for _ in 0..25 {
        drive(&mut sim, &mut rng);
    }
    let rerun: Vec<_> = (0..64)
        .map(|l| {
            (
                sim.output_logic_lane("acc", l),
                sim.output_logic_lane("dout", l),
            )
        })
        .collect();
    assert_eq!(rerun, straight, "per-lane outputs identical after fork");
    assert_eq!(sim.violations(), straight_viol.as_slice());
    assert_eq!(sim.stats(), straight_stats);
    assert_eq!(
        sim.coverage().expect("coverage enabled").report(),
        straight_cov
    );

    // A blob from a different design (or lane width) must be refused
    // without touching state.
    let mut other = NetlistBuilder::new("other");
    let a = other.input_port("a", 1)[0];
    let y = other.cell(CellKind::Inv, &[a]);
    other.output_port("y", &[y]);
    let other_prog = GateProgram::compile(&other.build()).unwrap();
    let other_snap = other_prog.simulator().snapshot_state();
    let before = sim.stats();
    assert!(!sim.restore_state(&other_snap), "stale blob refused");
    assert_eq!(sim.stats(), before, "refused restore leaves state alone");
}
