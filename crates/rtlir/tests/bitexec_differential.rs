//! Differential tests: the 64-lane bit-parallel engine against the
//! scalar compiled engine.
//!
//! The contract under test is two-sided. **Lane 0** must be
//! byte-identical to a [`CompiledSim`] run fed lane 0's stimulus —
//! every net every cycle, the violation stream, the coverage map and
//! the VCD bytes — even while the other 63 lanes are driven with
//! unrelated noise (so cross-lane leakage shows up as a lane-0
//! divergence). And **every lane** must match its own independent
//! scalar run, which pins the transposed execution itself, including
//! the scalar fallback for branchy (mux-arm memory read) regions where
//! lanes diverge in control flow.

use scflow_hwtypes::Bv;
use scflow_rtl::{BitRtlSim, CompiledProgram, CompiledSim, ModuleBuilder, NetId, RTL_LANES};
use scflow_testkit::rng::Rng;

/// The same operator-soup design the interpreter-vs-compiled
/// differential uses: every expression operator at mixed widths,
/// fusable compare+mux shapes, registers, and a 6-word memory addressed
/// in and out of range (`sh[2:0]` over 6 words exercises wrap and
/// violation recording).
fn op_soup() -> scflow_rtl::Module {
    let mut b = ModuleBuilder::new("op_soup");
    let a = b.input("a", 16);
    let x = b.input("x", 16);
    let c = b.input("c", 7);
    let sel = b.input("sel", 1);
    let sh = b.input("sh", 4);

    b.output("o_add", b.n(a).add(b.n(x)));
    b.output("o_sub", b.n(a).sub(b.n(x)));
    b.output("o_mul", b.n(a).mul(b.n(x)));
    b.output("o_and", b.n(a).and(b.n(x)));
    b.output("o_or", b.n(a).or(b.n(x)));
    b.output("o_xor", b.n(a).xor(b.n(x)));
    b.output("o_not", b.n(c).not());
    b.output("o_neg", b.n(c).neg());
    b.output("o_rand", b.n(a).red_and());
    b.output("o_ror", b.n(a).red_or());
    b.output("o_rxor", b.n(a).red_xor());
    b.output("o_shl", b.n(a).shl(b.n(sh)));
    b.output("o_shr", b.n(a).shr(b.n(sh)));
    b.output("o_sar", b.n(a).sar(b.n(sh)));
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
    b.output("o_slice", b.n(a).slice(11, 4));
    b.output("o_bit", b.n(a).bit(15));
    b.output("o_cat", b.n(c).concat(b.n(sh)));
    b.output("o_zext", b.n(c).zext(20));
    b.output("o_sext", b.n(c).sext(20));
    b.output("o_macmul", b.n(a).sext(32).mul_signed(b.n(x).sext(32)));

    let acc = b.reg("acc", 16, Bv::zero(16));
    b.set_next(acc, b.n(sel).mux(b.n(acc).add(b.n(a)), b.n(acc)));
    b.output("o_acc", b.n(acc));
    let flag = b.reg("flag", 1, Bv::zero(1));
    b.set_next(flag, b.n(flag).not());
    b.output("o_flag", b.n(flag));

    let mem = b.memory("buf", 16, vec![Bv::zero(16); 6]);
    let wptr = b.reg("wptr", 3, Bv::zero(3));
    b.set_next(
        wptr,
        b.n(wptr).eq(scflow_rtl::Expr::lit(5, 3)).mux(
            scflow_rtl::Expr::lit(0, 3),
            b.n(wptr).add(scflow_rtl::Expr::lit(1, 3)),
        ),
    );
    b.mem_write(mem, b.n(wptr), b.n(a), b.n(sel));
    b.output(
        "o_rd",
        scflow_rtl::Expr::read_mem(mem, b.n(sh).slice(2, 0), 16),
    );
    b.build().expect("op soup builds")
}

const PORTS: [(&str, u32); 5] = [("a", 16), ("x", 16), ("c", 7), ("sel", 1), ("sh", 4)];

/// One cycle's stimulus for one lane, drawn from that lane's rng.
fn draw(rng: &mut Rng) -> [Bv; 5] {
    let mut out = [Bv::zero(1); 5];
    for (i, &(_, w)) in PORTS.iter().enumerate() {
        out[i] = Bv::new(rng.next_u64() & scflow_hwtypes::mask(w), w);
    }
    out
}

/// Drives the bit engine with 64 distinct per-lane noise streams and a
/// scalar engine with lane 0's stream, comparing every net on lane 0
/// after every settle and edge; violation streams compared at the end.
fn lockstep_lane0(module: &scflow_rtl::Module, seed: u64, cycles: usize, check: bool) {
    let program = CompiledProgram::compile(module).expect("compiles");
    let mut bit = program.bit_simulator();
    let mut scalar = program.simulator();
    bit.check_addresses = check;
    scalar.check_addresses = check;
    let mut rngs: Vec<Rng> = (0..RTL_LANES as u64)
        .map(|l| Rng::new(seed ^ (l << 32)))
        .collect();
    let nets: Vec<_> = (0..module.nets().len()).map(NetId).collect();
    let compare = |bit: &BitRtlSim, scalar: &CompiledSim, when: &str| {
        for &n in &nets {
            assert_eq!(
                bit.peek_net_lane(n, 0),
                scalar.peek_net(n),
                "net `{}` diverged on lane 0 {when}",
                module.net_name(n)
            );
        }
    };
    for cyc in 0..cycles {
        for (lane, rng) in rngs.iter_mut().enumerate() {
            let vals = draw(rng);
            for (i, &(port, _)) in PORTS.iter().enumerate() {
                bit.set_input_lane(port, lane as u32, vals[i]);
                if lane == 0 {
                    scalar.set_input(port, vals[i]);
                }
            }
        }
        bit.settle();
        scalar.settle();
        compare(&bit, &scalar, &format!("after settle, cycle {cyc}"));
        bit.tick();
        scalar.tick();
        compare(&bit, &scalar, &format!("after edge, cycle {cyc}"));
    }
    assert_eq!(bit.violations(), scalar.violations(), "violation streams");
}

#[test]
fn lane0_matches_compiled_under_lane_noise() {
    let m = op_soup();
    for seed in [1, 0xDA7E_2004, 0x5EED] {
        lockstep_lane0(&m, seed, 200, false);
    }
}

#[test]
fn lane0_violation_stream_matches_with_address_checking() {
    let m = op_soup();
    lockstep_lane0(&m, 0xBAD_ADD2, 200, true);
}

#[test]
fn every_lane_matches_its_own_scalar_run() {
    let m = op_soup();
    let program = CompiledProgram::compile(&m).expect("compiles");
    let mut bit = program.bit_simulator();
    let mut scalars: Vec<CompiledSim> = (0..RTL_LANES).map(|_| program.simulator()).collect();
    let mut rngs: Vec<Rng> = (0..RTL_LANES as u64)
        .map(|l| Rng::new(0xFA_CE ^ (l * 977)))
        .collect();
    let nets: Vec<_> = (0..m.nets().len()).map(NetId).collect();
    for cyc in 0..60 {
        for lane in 0..RTL_LANES as usize {
            let vals = draw(&mut rngs[lane]);
            for (i, &(port, _)) in PORTS.iter().enumerate() {
                bit.set_input_lane(port, lane as u32, vals[i]);
                scalars[lane].set_input(port, vals[i]);
            }
        }
        bit.tick();
        for s in &mut scalars {
            s.tick();
        }
        for lane in 0..RTL_LANES as usize {
            for &n in &nets {
                assert_eq!(
                    bit.peek_net_lane(n, lane as u32),
                    scalars[lane].peek_net(n),
                    "net `{}` diverged on lane {lane}, cycle {cyc}",
                    m.net_name(n)
                );
            }
            // Memory contents too: per-lane write commits are the
            // subtlest transposed path.
            for addr in 0..6 {
                assert_eq!(
                    bit.peek_mem_lane(scflow_rtl::MemoryId(0), addr, lane as u32),
                    scalars[lane].peek_mem(scflow_rtl::MemoryId(0), addr),
                    "mem[{addr}] diverged on lane {lane}, cycle {cyc}"
                );
            }
        }
    }
}

#[test]
fn lane0_coverage_and_vcd_are_byte_identical() {
    let m = op_soup();
    let program = CompiledProgram::compile(&m).expect("compiles");
    let mut bit = program.bit_simulator();
    let mut scalar = program.simulator();
    bit.set_coverage(true);
    scalar.set_coverage(true);
    for p in ["o_acc", "o_flag", "o_rd", "o_macmul", "o_eqmux"] {
        bit.watch_port(p);
        scalar.watch_port(p);
    }
    let mut rngs: Vec<Rng> = (0..RTL_LANES as u64)
        .map(|l| Rng::new(7 + l * 131))
        .collect();
    for _ in 0..120 {
        for (lane, rng) in rngs.iter_mut().enumerate() {
            let vals = draw(rng);
            for (i, &(port, _)) in PORTS.iter().enumerate() {
                bit.set_input_lane(port, lane as u32, vals[i]);
                if lane == 0 {
                    scalar.set_input(port, vals[i]);
                }
            }
        }
        bit.tick();
        scalar.tick();
    }
    let (bc, sc) = (bit.coverage().unwrap(), scalar.coverage().unwrap());
    assert_eq!(
        bc.report(),
        sc.report(),
        "coverage maps must be byte-identical"
    );
    assert_eq!(
        bit.waveform_vcd(40_000),
        scalar.waveform_vcd(40_000),
        "VCD documents must be byte-identical"
    );
}

#[test]
fn broadcast_pokes_drive_all_lanes() {
    let m = op_soup();
    let program = CompiledProgram::compile(&m).expect("compiles");
    let mut bit = program.bit_simulator();
    bit.set_input("a", Bv::new(0x1234, 16));
    bit.set_input("x", Bv::new(0x0101, 16));
    bit.settle();
    for lane in 0..RTL_LANES {
        assert_eq!(bit.output_lane("o_add", lane).as_u64(), 0x1335);
    }
    // Lane pokes then desynchronise exactly one lane.
    bit.set_input_lane("x", 9, Bv::new(2, 16));
    bit.settle();
    assert_eq!(bit.output_lane("o_add", 9).as_u64(), 0x1236);
    assert_eq!(bit.output("o_add").as_u64(), 0x1335);
}

#[test]
fn snapshot_forks_resume_identically() {
    let m = op_soup();
    let program = CompiledProgram::compile(&m).expect("compiles");
    let mut bit = program.bit_simulator();
    bit.check_addresses = true;
    bit.watch_port("o_acc");
    let mut rngs: Vec<Rng> = (0..RTL_LANES as u64).map(|l| Rng::new(42 + l)).collect();
    let drive = |bit: &mut BitRtlSim, rngs: &mut Vec<Rng>, n: usize| {
        for _ in 0..n {
            for (lane, rng) in rngs.iter_mut().enumerate() {
                let vals = draw(rng);
                for (i, &(port, _)) in PORTS.iter().enumerate() {
                    bit.set_input_lane(port, lane as u32, vals[i]);
                }
            }
            bit.tick();
        }
    };
    drive(&mut bit, &mut rngs, 40);
    let snap = bit.snapshot_state();
    let rng_mark = rngs.clone();

    drive(&mut bit, &mut rngs, 30);
    let straight: Vec<Vec<Bv>> = (0..RTL_LANES)
        .map(|l| vec![bit.output_lane("o_acc", l), bit.output_lane("o_rd", l)])
        .collect();
    let straight_violations = bit.violations().to_vec();
    let straight_vcd = bit.waveform_vcd(40_000);

    assert!(bit.restore_state(&snap), "restore onto the same engine");
    let mut rngs2 = rng_mark;
    drive(&mut bit, &mut rngs2, 30);
    let rerun: Vec<Vec<Bv>> = (0..RTL_LANES)
        .map(|l| vec![bit.output_lane("o_acc", l), bit.output_lane("o_rd", l)])
        .collect();
    assert_eq!(rerun, straight, "outputs after restore+rerun");
    assert_eq!(bit.violations(), &straight_violations[..], "violations");
    assert_eq!(bit.waveform_vcd(40_000), straight_vcd, "VCD bytes");

    // Stale blobs are refused without touching state.
    let other = {
        let mut b = ModuleBuilder::new("tiny");
        let i = b.input("i", 4);
        b.output("o", b.n(i).not());
        b.build().unwrap()
    };
    let other_prog = CompiledProgram::compile(&other).unwrap();
    let mut other_sim = other_prog.bit_simulator();
    assert!(!other_sim.restore_state(&snap), "wrong design must refuse");
    assert_eq!(other_sim.cycle(), 0);
}

/// Everything a run leaves observable: outputs on every lane, the
/// violation stream, VCD bytes, the coverage map and work counters.
type Observed = (
    Vec<Vec<Bv>>,
    Vec<scflow_rtl::MemViolation>,
    String,
    Vec<u64>,
    [u64; 3],
);

/// `reset` must leave an `N`-lane engine indistinguishable from a
/// freshly built one with the same configuration (address checking,
/// watch list, coverage), whatever it ran before.
fn reset_equals_fresh<const N: usize>(program: &CompiledProgram) {
    let configure = |sim: &mut scflow_rtl::RtlExec<'_, N>| {
        sim.check_addresses = true;
        sim.watch_port("o_acc");
        sim.set_coverage(true);
    };
    let drive = |sim: &mut scflow_rtl::RtlExec<'_, N>, seed: u64, cycles: usize| {
        let mut rngs: Vec<Rng> = (0..N as u64).map(|l| Rng::new(seed + l)).collect();
        for _ in 0..cycles {
            for (lane, rng) in rngs.iter_mut().enumerate() {
                let vals = draw(rng);
                for (i, &(port, _)) in PORTS.iter().enumerate() {
                    sim.set_input_lane(port, lane as u32, vals[i]);
                }
            }
            sim.tick();
        }
    };
    let observe = |sim: &scflow_rtl::RtlExec<'_, N>| -> Observed {
        let outputs = (0..N as u32)
            .map(|l| vec![sim.output_lane("o_acc", l), sim.output_lane("o_rd", l)])
            .collect();
        let cov = sim.coverage().expect("coverage on").save_state();
        let work = [
            sim.cycle(),
            sim.instructions_executed(),
            sim.cones_skipped(),
        ];
        (
            outputs,
            sim.violations().to_vec(),
            sim.waveform_vcd(40_000),
            cov,
            work,
        )
    };
    let mut fresh = scflow_rtl::RtlExec::<N>::new(program);
    configure(&mut fresh);
    drive(&mut fresh, 7, 25);

    let mut reused = scflow_rtl::RtlExec::<N>::new(program);
    configure(&mut reused);
    drive(&mut reused, 99, 40);
    reused.reset();
    drive(&mut reused, 7, 25);
    assert_eq!(observe(&reused), observe(&fresh), "{N} lanes");
}

#[test]
fn reset_matches_a_fresh_engine_at_one_and_64_lanes() {
    let program = CompiledProgram::compile(&op_soup()).expect("compiles");
    reset_equals_fresh::<1>(&program);
    reset_equals_fresh::<{ RTL_LANES as usize }>(&program);
}

/// A full settle at power-on reads out of range here (`ptr` starts at
/// 5 over a 3-word memory). A fresh engine settles before address
/// checking can be switched on, so `reset` must not record that read
/// either: the violation streams of a reset and a fresh engine match.
fn reset_matches_fresh_violations<const N: usize>(program: &CompiledProgram) {
    let run = |warmup: u64| {
        let mut sim = scflow_rtl::RtlExec::<N>::new(program);
        sim.check_addresses = true;
        if warmup > 0 {
            sim.run(warmup);
            sim.reset();
        }
        sim.run(4);
        sim.violations().to_vec()
    };
    let fresh = run(0);
    assert!(!fresh.is_empty(), "the design must read out of range");
    assert_eq!(run(9), fresh, "{N} lanes");
}

#[test]
fn reset_records_only_what_a_fresh_engine_records() {
    let mut b = ModuleBuilder::new("oob_at_power_on");
    let mem = b.memory("m", 8, vec![Bv::zero(8); 3]);
    let ptr = b.reg("ptr", 3, Bv::new(5, 3));
    b.set_next(ptr, b.n(ptr).add(scflow_rtl::Expr::lit(1, 3)));
    b.output("o", scflow_rtl::Expr::read_mem(mem, b.n(ptr), 8));
    let program = CompiledProgram::compile(&b.build().expect("builds")).expect("compiles");
    reset_matches_fresh_violations::<1>(&program);
    reset_matches_fresh_violations::<{ RTL_LANES as usize }>(&program);
}
