//! Integration tests for the event-driven gate simulator: a structural
//! ripple-carry accumulator checked against plain arithmetic, and the
//! checking memory model.

use scflow_gate::{CellKind, CellLibrary, GNetId, GateSim, NetlistBuilder};
use scflow_hwtypes::Bv;

/// Builds a full adder from basic gates; returns (sum, carry_out).
fn full_adder(b: &mut NetlistBuilder, a: GNetId, x: GNetId, cin: GNetId) -> (GNetId, GNetId) {
    let axx = b.cell(CellKind::Xor2, &[a, x]);
    let sum = b.cell(CellKind::Xor2, &[axx, cin]);
    let t1 = b.cell(CellKind::And2, &[axx, cin]);
    let t2 = b.cell(CellKind::And2, &[a, x]);
    let cout = b.cell(CellKind::Or2, &[t1, t2]);
    (sum, cout)
}

/// An 8-bit accumulator: acc <= acc + din, built structurally.
fn build_accumulator() -> scflow_gate::GateNetlist {
    let mut b = NetlistBuilder::new("acc8");
    let din = b.input_port("din", 8);

    // Pre-create the flop-output wires so the adder can consume them
    // before the flops that drive them are placed (dff_onto below).
    let q_wires: Vec<GNetId> = (0..8).map(|i| b.net(format!("qw[{i}]"))).collect();

    let mut carry = b.const0();
    let mut sums = Vec::new();
    for i in 0..8 {
        let (s, c) = full_adder(&mut b, q_wires[i], din[i], carry);
        sums.push(s);
        carry = c;
    }
    // Close the feedback: place the flops on the sum bits, Q driving the
    // pre-created wires the adder already consumes.
    for i in 0..8 {
        b.dff_onto(sums[i], q_wires[i], false);
    }
    b.output_port("acc", &q_wires);
    b.build()
}

#[test]
fn accumulator_matches_arithmetic() {
    let nl = build_accumulator();
    let lib = CellLibrary::generic_025u();
    let mut sim = GateSim::new(&nl, &lib);
    let mut expected: u64 = 0;
    let inputs = [13u64, 250, 7, 99, 128, 1, 255, 20, 77, 3];
    for &v in &inputs {
        sim.set_input("din", Bv::new(v, 8));
        sim.tick();
        expected = (expected + v) & 0xFF;
        assert_eq!(
            sim.output("acc"),
            Some(Bv::new(expected, 8)),
            "after adding {v}"
        );
    }
    assert!(sim.stats().events > 0);
    assert_eq!(sim.stats().cycles, inputs.len() as u64);
}

#[test]
fn gate_activity_scales_with_work() {
    let nl = build_accumulator();
    let lib = CellLibrary::generic_025u();
    let mut sim = GateSim::new(&nl, &lib);
    sim.set_input("din", Bv::new(1, 8));
    sim.run(4);
    let early = sim.stats().gate_evals;
    sim.run(4);
    assert!(sim.stats().gate_evals > early);
}

#[test]
fn checking_memory_flags_out_of_range_write() {
    let mut b = NetlistBuilder::new("mem");
    let waddr = b.input_port("waddr", 3); // 8 addresses, memory has 5 words
    let wdata = b.input_port("wdata", 4);
    let wen = b.input_port("wen", 1)[0];
    let raddr = b.input_port("raddr", 3);
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
    let nl = b.build();
    let lib = CellLibrary::generic_025u();
    let mut sim = GateSim::new(&nl, &lib);

    sim.set_input("raddr", Bv::zero(3));
    sim.set_input("wen", Bv::bit(true));
    sim.set_input("waddr", Bv::new(2, 3));
    sim.set_input("wdata", Bv::new(9, 4));
    sim.tick();
    assert!(sim.violations().is_empty());

    // The corner case: address 6 in a 5-word buffer.
    sim.set_input("waddr", Bv::new(6, 3));
    sim.set_input("wdata", Bv::new(5, 4));
    sim.tick();
    let v = sim.violations();
    assert_eq!(v.len(), 1);
    assert_eq!(v[0].memory, "buf");
    assert_eq!(v[0].address, 6);
    assert!(v[0].write);

    // Reads see the earlier valid write.
    sim.set_input("wen", Bv::zero(1));
    sim.set_input("raddr", Bv::new(2, 3));
    sim.tick();
    assert_eq!(sim.output("dout"), Some(Bv::new(9, 4)));
}

#[test]
fn unknown_inputs_produce_unknown_outputs() {
    let mut b = NetlistBuilder::new("xprop");
    let a = b.input_port("a", 1)[0];
    let y = b.cell(CellKind::Inv, &[a]);
    b.output_port("y", &[y]);
    let nl = b.build();
    let lib = CellLibrary::generic_025u();
    let mut sim = GateSim::new(&nl, &lib);
    // `a` never driven: output unknown.
    sim.settle();
    assert_eq!(sim.output("y"), None);
    sim.set_input("a", Bv::bit(false));
    sim.settle();
    assert_eq!(sim.output("y"), Some(Bv::bit(true)));
}
