//! Differential tests: the compiled levelized engine against the
//! interpreter, instruction by instruction.
//!
//! The engines must agree on *every net, every cycle* — not just on
//! module outputs — so divergence is caught at the first wrong value,
//! on an op-soup design that covers every IR operator (including the
//! compare+mux and sext+mul patterns the compiler fuses into
//! superinstructions), under seeded noise and corner stimuli.

use scflow_hwtypes::Bv;
use scflow_rtl::{CompiledProgram, Expr, ModuleBuilder, RtlSim};
use scflow_testkit::rng::Rng;

/// A module exercising every expression operator at mixed widths, with
/// registers, a read/write memory and fusable compare+mux / sext+mul
/// shapes, so both the generic bytecode and every fused superinstruction
/// path is on the differential.
fn op_soup() -> scflow_rtl::Module {
    let mut b = ModuleBuilder::new("op_soup");
    let a = b.input("a", 16);
    let x = b.input("x", 16);
    let c = b.input("c", 7);
    let sel = b.input("sel", 1);
    let sh = b.input("sh", 4);

    // Arithmetic / bitwise at several widths.
    b.output("o_add", b.n(a).add(b.n(x)));
    b.output("o_sub", b.n(a).sub(b.n(x)));
    b.output("o_mul", b.n(a).mul(b.n(x)));
    b.output("o_and", b.n(a).and(b.n(x)));
    b.output("o_or", b.n(a).or(b.n(x)));
    b.output("o_xor", b.n(a).xor(b.n(x)));
    b.output("o_not", b.n(c).not());
    b.output("o_neg", b.n(c).neg());

    // Reductions.
    b.output("o_rand", b.n(a).red_and());
    b.output("o_ror", b.n(a).red_or());
    b.output("o_rxor", b.n(a).red_xor());

    // Shifts by a dynamic amount.
    b.output("o_shl", b.n(a).shl(b.n(sh)));
    b.output("o_shr", b.n(a).shr(b.n(sh)));
    b.output("o_sar", b.n(a).sar(b.n(sh)));

    // Comparisons, bare and feeding muxes (the fused EqMux/NeMux/
    // UltMux/AndMux/BitMux shapes).
    b.output("o_eq", b.n(a).eq(b.n(x)));
    b.output("o_ne", b.n(a).ne(b.n(x)));
    b.output("o_ult", b.n(a).ult(b.n(x)));
    b.output("o_ule", b.n(a).ule(b.n(x)));
    b.output("o_slt", b.n(a).slt(b.n(x)));
    b.output("o_sle", b.n(a).sle(b.n(x)));
    b.output("o_eqmux", b.n(a).eq(b.n(x)).mux(b.n(a), b.n(x)));
    b.output("o_nemux", b.n(a).ne(b.n(x)).mux(b.n(x), b.n(a)));
    b.output("o_ultmux", b.n(a).ult(b.n(x)).mux(b.n(a), b.n(x)));
    b.output(
        "o_andmux",
        b.n(sel).and(b.n(a).red_or()).mux(b.n(c), b.n(c).not()),
    );
    b.output("o_bitmux", b.n(a).bit(3).mux(b.n(c), b.n(c).neg()));

    // Slicing, concatenation, extensions.
    b.output("o_slice", b.n(a).slice(11, 4));
    b.output("o_bit", b.n(a).bit(15));
    b.output("o_cat", b.n(c).concat(b.n(sh)));
    b.output("o_zext", b.n(c).zext(20));
    b.output("o_sext", b.n(c).sext(20));

    // The signed-MAC shape the compiler fuses into MulSS.
    b.output("o_macmul", b.n(a).sext(32).mul_signed(b.n(x).sext(32)));

    // Registered state: an accumulator and a toggling flag.
    let acc = b.reg("acc", 16, Bv::zero(16));
    b.set_next(acc, b.n(sel).mux(b.n(acc).add(b.n(a)), b.n(acc)));
    b.output("o_acc", b.n(acc));
    let flag = b.reg("flag", 1, Bv::zero(1));
    b.set_next(flag, b.n(flag).not());
    b.output("o_flag", b.n(flag));

    // A read/write memory addressed by a register (in range) and by an
    // input slice (can run out of range: exercises wrap + violations).
    let mem = b.memory("buf", 16, vec![Bv::zero(16); 6]);
    let wptr = b.reg("wptr", 3, Bv::zero(3));
    b.set_next(
        wptr,
        b.n(wptr)
            .eq(Expr::lit(5, 3))
            .mux(Expr::lit(0, 3), b.n(wptr).add(Expr::lit(1, 3))),
    );
    b.mem_write(mem, b.n(wptr), b.n(a), b.n(sel));
    b.output("o_rd", Expr::read_mem(mem, b.n(sh).slice(2, 0), 16));
    b.build().expect("op soup builds")
}

/// Drives both engines in lockstep with the same stimulus and compares
/// every net after every settle and every edge; at the end, compares the
/// violation streams. `check` enables address checking on both sides.
fn lockstep(
    module: &scflow_rtl::Module,
    stimuli: impl Iterator<Item = (u64, u64, u64, u64, u64)>,
    check: bool,
) {
    let program = CompiledProgram::compile(module).expect("compiles");
    let mut int = RtlSim::new(module);
    let mut cmp = program.simulator();
    int.check_addresses = check;
    cmp.check_addresses = check;
    let nets: Vec<_> = (0..module.nets().len()).map(scflow_rtl::NetId).collect();
    let compare = |int: &RtlSim, cmp: &scflow_rtl::CompiledSim, when: &str| {
        for &n in &nets {
            assert_eq!(
                int.peek_net(n),
                cmp.peek_net(n),
                "net `{}` diverged {when}",
                module.net_name(n)
            );
        }
    };
    for (cyc, (a, x, c, sel, sh)) in stimuli.enumerate() {
        for (port, val, w) in [
            ("a", a, 16u32),
            ("x", x, 16),
            ("c", c, 7),
            ("sel", sel, 1),
            ("sh", sh, 4),
        ] {
            let v = Bv::new(val & scflow_hwtypes::mask(w), w);
            int.set_input(port, v);
            cmp.set_input(port, v);
        }
        int.settle();
        cmp.settle();
        compare(&int, &cmp, &format!("after settle, cycle {cyc}"));
        int.tick();
        cmp.tick();
        compare(&int, &cmp, &format!("after edge, cycle {cyc}"));
    }
    assert_eq!(int.violations(), cmp.violations(), "violation streams");
}

fn noise(seed: u64, n: usize) -> impl Iterator<Item = (u64, u64, u64, u64, u64)> {
    let mut rng = Rng::new(seed);
    std::iter::repeat_with(move || {
        (
            rng.next_u64(),
            rng.next_u64(),
            rng.next_u64(),
            rng.next_u64(),
            rng.next_u64(),
        )
    })
    .take(n)
}

#[test]
fn op_soup_agrees_on_seeded_noise() {
    let m = op_soup();
    for seed in [1, 0xDA7E_2004, 0x5EED] {
        lockstep(&m, noise(seed, 300), false);
    }
}

#[test]
fn op_soup_agrees_on_corner_stimuli() {
    let m = op_soup();
    let corners = [
        (0u64, 0u64, 0u64, 0u64, 0u64),
        (u64::MAX, u64::MAX, u64::MAX, u64::MAX, u64::MAX),
        (0xFFFF, 0, 0x7F, 1, 0),
        (0, 0xFFFF, 0, 1, 15),
        (0x8000, 0x7FFF, 0x40, 0, 8),
        (0x7FFF, 0x8000, 0x3F, 1, 1),
        (0xAAAA, 0x5555, 0x55, 1, 7),
        (1, 1, 1, 1, 1),
    ];
    // Each corner held for a few cycles, then all pairwise transitions.
    let held = corners.iter().flat_map(|&s| std::iter::repeat_n(s, 3));
    lockstep(&m, held, false);
    let pairs = corners
        .iter()
        .flat_map(|&s| corners.iter().map(move |&t| [s, t]))
        .flatten();
    lockstep(&m, pairs, false);
}

#[test]
fn op_soup_agrees_with_address_checking() {
    // `o_rd` is addressed by sh[2:0] over a 6-word memory, so addresses
    // 6 and 7 are out of range: both engines must wrap identically and
    // record identical violation streams.
    let m = op_soup();
    lockstep(&m, noise(0xBAD_ADD2, 300), true);
}

#[test]
fn vcd_traces_are_byte_identical() {
    let m = op_soup();
    let program = CompiledProgram::compile(&m).expect("compiles");
    let mut int = RtlSim::new(&m);
    let mut cmp = program.simulator();
    for sim in [&mut int as &mut dyn scflow_sim_api::Simulation, &mut cmp] {
        for p in ["o_acc", "o_flag", "o_rd", "o_macmul", "o_eqmux"] {
            sim.watch(p);
        }
    }
    let mut rng = Rng::new(7);
    for _ in 0..120 {
        let (a, x) = (rng.next_u64() & 0xFFFF, rng.next_u64() & 0xFFFF);
        let sel = rng.next_u64() & 1;
        for sim in [&mut int as &mut dyn scflow_sim_api::Simulation, &mut cmp] {
            sim.poke("a", Bv::new(a, 16));
            sim.poke("x", Bv::new(x, 16));
            sim.poke("c", Bv::new(a & 0x7F, 7));
            sim.poke("sel", Bv::new(sel, 1));
            sim.poke("sh", Bv::new(x & 0xF, 4));
            sim.step();
        }
    }
    use scflow_sim_api::Simulation;
    let t_int = int.trace(40_000).expect("interpreter traces");
    let t_cmp = cmp.trace(40_000).expect("compiled engine traces");
    assert_eq!(t_int, t_cmp, "VCD documents must be byte-identical");
}
