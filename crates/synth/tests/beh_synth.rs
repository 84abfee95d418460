//! Behavioural synthesis integration tests: compile small programs and
//! simulate the emitted FSM + datapath with an interpreted RTL simulation,
//! comparing against a software model — the bit-accuracy check the paper's
//! refinement flow performs at every step.

use scflow_hwtypes::Bv;
use scflow_rtl::{Module, RtlSim};
use scflow_synth::beh::{synthesize_beh, BehOptions, ProgramBuilder, SchedulingMode};
use std::collections::VecDeque;

/// Drives a superstate-mode module: feeds `feeds` into input ports as fast
/// as the DUT accepts them, always-ready on outputs, collects `want` items
/// from `out`, with a cycle budget.
fn run_superstate(
    module: &Module,
    feeds: &mut [(String, VecDeque<Bv>)],
    out: &str,
    want: usize,
    max_cycles: u64,
) -> Vec<Bv> {
    let mut sim = RtlSim::new(module);
    let out_ready = format!("{out}_ready");
    let out_valid = format!("{out}_valid");
    sim.set_input(&out_ready, Bv::bit(true));
    let mut collected = Vec::new();
    for _ in 0..max_cycles {
        // Present data on every input port with pending items.
        for (name, queue) in feeds.iter() {
            let valid = format!("{name}_valid");
            match queue.front() {
                Some(v) => {
                    sim.set_input(name, *v);
                    sim.set_input(&valid, Bv::bit(true));
                }
                None => {
                    sim.set_input(&valid, Bv::zero(1));
                }
            }
        }
        sim.settle();
        // A ready DUT consumes the presented beat on this edge.
        let consumed: Vec<bool> = feeds
            .iter()
            .map(|(name, queue)| !queue.is_empty() && sim.output(&format!("{name}_ready")).any())
            .collect();
        let produced = sim.output(&out_valid).any().then(|| sim.output(out));
        sim.tick();
        for ((_, queue), c) in feeds.iter_mut().zip(consumed) {
            if c {
                queue.pop_front();
            }
        }
        if let Some(v) = produced {
            collected.push(v);
            if collected.len() == want {
                break;
            }
        }
    }
    collected
}

/// `o = i*i + 1` forever.
fn square_plus_one() -> scflow_synth::beh::BehProgram {
    let mut p = ProgramBuilder::new("sq1");
    let i = p.input("i", 8);
    let o = p.output("o", 16);
    let x = p.var("x", 8);
    let y = p.var("y", 16);
    p.read(x, i);
    let sq = p.v(x).sext(16).mul_signed(p.v(x).sext(16));
    p.assign(y, sq);
    let inc = p.v(y).add(p.lit(1, 16));
    p.assign(y, inc);
    let ye = p.v(y);
    p.write(o, ye);
    p.build()
}

#[test]
fn superstate_square_stream() {
    let out = synthesize_beh(&square_plus_one(), &BehOptions::default()).expect("synth");
    let inputs: Vec<i64> = vec![0, 1, 2, -3, 100, -128, 127];
    let mut feeds = [(
        "i".to_owned(),
        inputs
            .iter()
            .map(|&v| Bv::from_i64(v, 8))
            .collect::<VecDeque<_>>(),
    )];
    let got = run_superstate(&out.module, &mut feeds, "o", inputs.len(), 500);
    let want: Vec<Bv> = inputs
        .iter()
        .map(|&v| Bv::from_i64(v * v + 1, 16))
        .collect();
    assert_eq!(got, want);
}

#[test]
fn superstate_dut_waits_for_slow_producer() {
    let out = synthesize_beh(&square_plus_one(), &BehOptions::default()).expect("synth");
    let mut sim = RtlSim::new(&out.module);
    sim.set_input("i", Bv::zero(8));
    sim.set_input("i_valid", Bv::zero(1));
    sim.set_input("o_ready", Bv::bit(true));
    // With no valid input the FSM must sit in the read state forever.
    sim.run(50);
    let stuck = sim.output("dbg_state");
    sim.run(7);
    assert_eq!(sim.output("dbg_state"), stuck);
    assert!(sim.output("i_ready").any(), "must be requesting input");
    assert!(!sim.output("o_valid").any());
}

#[test]
fn fixed_cycle_mode_has_strobes_not_handshake() {
    let opts = BehOptions {
        mode: SchedulingMode::FixedCycle,
        ..BehOptions::default()
    };
    let out = synthesize_beh(&square_plus_one(), &opts).expect("synth");
    let m = &out.module;
    assert!(m.port("i_valid").is_none());
    assert!(m.port("o_ready").is_none());
    assert!(m.port("i_strobe").is_some());
    assert!(m.port("o_strobe").is_some());

    // Fixed schedule: the loop has a fixed period; present each input and
    // sample at strobes.
    let mut sim = RtlSim::new(m);
    let inputs = [5i64, -7, 11];
    let mut got = Vec::new();
    let mut iter = inputs.iter();
    let mut current = *iter.next().expect("nonempty");
    sim.set_input("i", Bv::from_i64(current, 8));
    for _ in 0..100 {
        sim.settle();
        let consumed = sim.output("i_strobe").any();
        let produced = sim.output("o_strobe").any().then(|| sim.output("o"));
        sim.tick();
        if let Some(v) = produced {
            got.push(v);
        }
        if consumed {
            if let Some(&n) = iter.next() {
                current = n;
                sim.set_input("i", Bv::from_i64(current, 8));
            }
        }
        if got.len() == inputs.len() {
            break;
        }
    }
    let want: Vec<Bv> = inputs
        .iter()
        .map(|&v| Bv::from_i64(v * v + 1, 16))
        .collect();
    assert_eq!(got, want);
}

/// Data-dependent loop: sum = 1 + 2 + ... + n.
fn triangle_sum() -> scflow_synth::beh::BehProgram {
    let mut p = ProgramBuilder::new("tri");
    let n_in = p.input("n", 8);
    let o = p.output("sum", 16);
    let n = p.var("n_v", 8);
    let k = p.var("k", 8);
    let acc = p.var("acc", 16);
    p.read(n, n_in);
    p.assign(acc, p.lit(0, 16));
    p.assign(k, p.lit(1, 8));
    let cond = p.v(k).ule(p.v(n));
    p.while_loop(cond, |b| {
        let add = b.v(acc).add(b.v(k).zext(16));
        b.assign(acc, add);
        let inc = b.v(k).add(b.lit(1, 8));
        b.assign(k, inc);
    });
    let res = p.v(acc);
    p.write(o, res);
    p.build()
}

#[test]
fn while_loop_triangle_numbers() {
    let out = synthesize_beh(&triangle_sum(), &BehOptions::default()).expect("synth");
    let cases = [0u64, 1, 2, 10, 30];
    let mut feeds = [(
        "n".to_owned(),
        cases
            .iter()
            .map(|&v| Bv::new(v, 8))
            .collect::<VecDeque<_>>(),
    )];
    let got = run_superstate(&out.module, &mut feeds, "sum", cases.len(), 2000);
    let want: Vec<Bv> = cases
        .iter()
        .map(|&n| Bv::new(n * (n + 1) / 2, 16))
        .collect();
    assert_eq!(got, want);
}

/// MAC over a ROM and a RAM: out = sum(rom[j] * ram[j]), with the RAM
/// first filled from the input — uses branch, loop, memories, multiplier.
fn dot_product() -> scflow_synth::beh::BehProgram {
    let mut p = ProgramBuilder::new("dot");
    let i = p.input("i", 8);
    let o = p.output("dp", 20);
    let rom = p.memory(
        "coef",
        8,
        (0..8u64).map(|k| Bv::new(k + 1, 8)).collect(), // 1..=8
    );
    let ram = p.memory("buf", 8, vec![Bv::zero(8); 8]);
    let j = p.var("j", 4);
    let x = p.var("x", 8);
    let acc = p.var("acc", 20);

    // Fill phase.
    p.assign(j, p.lit(0, 4));
    let fill_cond = p.v(j).ult(p.lit(8, 4));
    p.while_loop(fill_cond, |b| {
        b.read(x, i);
        b.mem_write(ram, b.v(j).slice(2, 0), b.v(x));
        let inc = b.v(j).add(b.lit(1, 4));
        b.assign(j, inc);
    });

    // MAC phase.
    p.assign(acc, p.lit(0, 20));
    p.assign(j, p.lit(0, 4));
    let mac_cond = p.v(j).ult(p.lit(8, 4));
    p.while_loop(mac_cond, |b| {
        let prod = b
            .mem_read(rom, b.v(j).slice(2, 0))
            .zext(20)
            .mul(b.mem_read(ram, b.v(j).slice(2, 0)).zext(20));
        let nacc = b.v(acc).add(prod);
        b.assign(acc, nacc);
        let inc = b.v(j).add(b.lit(1, 4));
        b.assign(j, inc);
    });
    let res = p.v(acc);
    p.write(o, res);
    p.build()
}

#[test]
fn dot_product_with_memories_and_shared_multiplier() {
    let out = synthesize_beh(&dot_product(), &BehOptions::default()).expect("synth");
    assert_eq!(out.report.shared_multipliers, 1);
    // One multiplier in the RTL despite the loop body's multiply.
    assert_eq!(out.module.stats().ops.mul, 1);

    let data: Vec<u64> = vec![3, 0, 5, 2, 7, 1, 4, 6];
    let mut feeds = [(
        "i".to_owned(),
        data.iter().map(|&v| Bv::new(v, 8)).collect::<VecDeque<_>>(),
    )];
    let got = run_superstate(&out.module, &mut feeds, "dp", 1, 4000);
    let want: u64 = data
        .iter()
        .enumerate()
        .map(|(k, &v)| (k as u64 + 1) * v)
        .sum();
    assert_eq!(got, vec![Bv::new(want, 20)]);
}

#[test]
fn unshared_multipliers_cost_more() {
    let shared = synthesize_beh(&dot_product(), &BehOptions::default()).expect("synth");
    let unshared = synthesize_beh(
        &dot_product(),
        &BehOptions {
            share_resources: false,
            ..BehOptions::default()
        },
    )
    .expect("synth");
    assert!(unshared.module.stats().ops.mul >= shared.module.stats().ops.mul);
    assert_eq!(unshared.report.shared_multipliers, 0);
}

#[test]
fn register_merging_reduces_registers() {
    // Two variables with disjoint lifetimes and equal widths.
    let mut p = ProgramBuilder::new("merge");
    let i = p.input("i", 8);
    let o = p.output("o", 8);
    let a = p.var("a", 8);
    let b_ = p.var("b", 8);
    p.read(a, i);
    let a1 = p.v(a).add(p.lit(1, 8));
    p.write(o, a1);
    // `a` is dead here; `b` starts fresh.
    p.read(b_, i);
    let b1 = p.v(b_).add(p.lit(2, 8));
    p.write(o, b1);
    let prog = p.build();

    let plain = synthesize_beh(&prog, &BehOptions::default()).expect("synth");
    let merged = synthesize_beh(
        &prog,
        &BehOptions {
            merge_registers: true,
            ..BehOptions::default()
        },
    )
    .expect("synth");
    assert_eq!(plain.report.registers, 2);
    assert_eq!(merged.report.registers, 1);

    // Merged version still computes correctly.
    let vals = [10u64, 20, 30, 40];
    let mut feeds = [(
        "i".to_owned(),
        vals.iter().map(|&v| Bv::new(v, 8)).collect::<VecDeque<_>>(),
    )];
    let got = run_superstate(&merged.module, &mut feeds, "o", 4, 400);
    assert_eq!(
        got,
        vec![
            Bv::new(11, 8),
            Bv::new(22, 8),
            Bv::new(31, 8),
            Bv::new(42, 8)
        ]
    );
}

#[test]
fn if_else_branches() {
    // o = (i < 10) ? i*2 : i - 10
    let mut p = ProgramBuilder::new("br");
    let i = p.input("i", 8);
    let o = p.output("o", 8);
    let x = p.var("x", 8);
    let y = p.var("y", 8);
    p.read(x, i);
    let c = p.v(x).ult(p.lit(10, 8));
    let dbl = p.v(x).add(p.v(x));
    let sub = p.v(x).sub(p.lit(10, 8));
    p.if_else(
        c,
        |b| b.assign(y, dbl.clone()),
        |b| b.assign(y, sub.clone()),
    );
    let res = p.v(y);
    p.write(o, res);
    let out = synthesize_beh(&p.build(), &BehOptions::default()).expect("synth");

    let vals = [3u64, 9, 10, 200];
    let mut feeds = [(
        "i".to_owned(),
        vals.iter().map(|&v| Bv::new(v, 8)).collect::<VecDeque<_>>(),
    )];
    let got = run_superstate(&out.module, &mut feeds, "o", 4, 400);
    let want: Vec<Bv> = vals
        .iter()
        .map(|&v| {
            if v < 10 {
                Bv::new(v * 2, 8)
            } else {
                Bv::new(v - 10, 8)
            }
        })
        .collect();
    assert_eq!(got, want);
}

#[test]
fn generated_rtl_synthesizes_to_gates() {
    // End-to-end: behavioural program -> RTL -> gates, area/timing sane.
    let out = synthesize_beh(&dot_product(), &BehOptions::default()).expect("beh synth");
    let lib = scflow_gate::CellLibrary::generic_025u();
    let res = scflow_synth::rtl::synthesize(
        &out.module,
        &lib,
        &scflow_synth::rtl::SynthOptions::default(),
    )
    .expect("rtl synth");
    assert!(res.area.total_um2() > 0.0);
    assert!(res.netlist.flop_count() >= out.report.registers);
    assert!(res.timing.meets(40_000), "40 ns clock must be met");
}

#[test]
fn chaining_packs_dependent_assigns_into_one_state() {
    // Three chained adds fit one state under the default depth limit of 3.
    let mut p = ProgramBuilder::new("chain");
    let i = p.input("i", 8);
    let o = p.output("o", 8);
    let x = p.var("x", 8);
    p.read(x, i);
    let e1 = p.v(x).add(p.lit(1, 8));
    p.assign(x, e1);
    let e2 = p.v(x).add(p.lit(2, 8));
    p.assign(x, e2);
    let res = p.v(x);
    p.write(o, res);
    let out = synthesize_beh(&p.build(), &BehOptions::default()).expect("synth");
    // read state + 1 compute state + write state (+ collapsed gotos).
    assert!(
        out.report.states <= 4,
        "expected tight schedule, got {} states",
        out.report.states
    );
}
