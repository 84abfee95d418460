//! RTL-vs-gate equivalence: every synthesised netlist must reproduce the
//! interpreted RTL behaviour cycle by cycle, with and without the
//! optimisation passes — the bit-accuracy property the paper's refinement
//! verification depends on.

use scflow_gate::{CellLibrary, GateSim};
use scflow_hwtypes::Bv;
use scflow_rtl::{Expr, Module, ModuleBuilder, RtlSim};
use scflow_synth::rtl::{synthesize, SynthOptions};

/// Drives both simulators with the same random inputs and compares every
/// output every cycle.
fn check_equivalence(module: &Module, cycles: u64, seed: u64) {
    let lib = CellLibrary::generic_025u();

    for optimize in [false, true] {
        let opts = SynthOptions {
            optimize,
            insert_scan: true,
        };
        let result = synthesize(module, &lib, &opts).expect("synthesis");
        let mut gate = GateSim::new(&result.netlist, &lib);
        let mut rtl = RtlSim::new(module);
        let mut rng = scflow_testkit::Rng::new(seed);

        // Functional mode (combinational designs get no scan ports).
        if result.netlist.input_port("scan_en").is_some() {
            gate.set_input("scan_en", Bv::zero(1));
            gate.set_input("scan_in", Bv::zero(1));
        }
        if result.netlist.input_port("test_mode").is_some() {
            gate.set_input("test_mode", Bv::zero(1));
        }

        let inputs: Vec<(String, u32)> = module
            .ports()
            .iter()
            .filter(|p| p.dir == scflow_rtl::PortDir::Input)
            .map(|p| (p.name.clone(), p.width))
            .collect();
        let outputs: Vec<String> = module
            .ports()
            .iter()
            .filter(|p| p.dir == scflow_rtl::PortDir::Output)
            .map(|p| p.name.clone())
            .collect();

        for cycle in 0..cycles {
            for (name, width) in &inputs {
                let v = Bv::new(rng.next_u64(), *width);
                gate.set_input(name, v);
                rtl.set_input(name, v);
            }
            gate.tick();
            rtl.tick();
            for out in &outputs {
                assert_eq!(
                    gate.output(out),
                    Some(rtl.output(out)),
                    "output `{out}` diverged at cycle {cycle} (optimize={optimize})"
                );
            }
        }
    }
}

#[test]
fn accumulator_equivalence() {
    let mut b = ModuleBuilder::new("acc");
    let din = b.input("din", 8);
    let en = b.input("en", 1);
    let acc = b.reg("acc", 8, Bv::zero(8));
    let sum = b.n(acc).add(b.n(din));
    b.set_next(acc, b.n(en).mux(sum, b.n(acc)));
    b.output("q", b.n(acc));
    check_equivalence(&b.build().expect("valid"), 40, 1);
}

#[test]
fn arithmetic_soup_equivalence() {
    // Exercises add/sub/mul/compares/shifts/mux/extensions in one design.
    let mut b = ModuleBuilder::new("soup");
    let a = b.input("a", 6);
    let c = b.input("b", 6);
    let s = b.input("s", 3);
    let sum = b.comb("sum", b.n(a).add(b.n(c)));
    let dif = b.comb("dif", b.n(a).sub(b.n(c)));
    let prd = b.comb("prd", b.n(a).sext(12).mul_signed(b.n(c).sext(12)));
    let ltu = b.comb("ltu", b.n(a).ult(b.n(c)));
    let lts = b.comb("lts", b.n(a).slt(b.n(c)));
    let shl = b.comb("shl", b.n(a).shl(b.n(s).zext(3)));
    let shr = b.comb("shr", b.n(a).shr(b.n(s)));
    let sar = b.comb("sar", b.n(a).sar(b.n(s)));
    let pick = b.comb("pick", b.n(ltu).mux(b.n(sum), b.n(dif)));
    b.output("o_sum", b.n(pick));
    b.output("o_prd", b.n(prd));
    b.output("o_lts", b.n(lts));
    b.output("o_shl", b.n(shl));
    b.output("o_shr", b.n(shr));
    b.output("o_sar", b.n(sar));
    b.output(
        "o_red",
        b.n(a)
            .red_or()
            .concat(b.n(a).red_and())
            .concat(b.n(a).red_xor()),
    );
    b.output("o_eqne", b.n(a).eq(b.n(c)).concat(b.n(a).ne(b.n(c))));
    b.output("o_ules", b.n(a).ule(b.n(c)).concat(b.n(a).sle(b.n(c))));
    check_equivalence(&b.build().expect("valid"), 60, 2);
}

#[test]
fn memory_design_equivalence() {
    // Ring buffer plus ROM lookup — the SRC's storage pattern.
    let mut b = ModuleBuilder::new("ringrom");
    let din = b.input("din", 8);
    let push = b.input("push", 1);
    let raddr = b.input("raddr", 3);
    let wptr = b.reg("wptr", 3, Bv::zero(3));
    let ram = b.memory("ram", 8, vec![Bv::zero(8); 8]);
    b.mem_write(ram, b.n(wptr), b.n(din), b.n(push));
    b.set_next(
        wptr,
        b.n(push).mux(b.n(wptr).add(Expr::lit(1, 3)), b.n(wptr)),
    );
    let rom = b.memory(
        "rom",
        8,
        (0..8u64).map(|i| Bv::new(i * 13 + 1, 8)).collect(),
    );
    let ram_out = b.comb("ram_out", Expr::read_mem(ram, b.n(raddr), 8));
    let rom_out = b.comb("rom_out", Expr::read_mem(rom, b.n(raddr), 8));
    b.output("sum", b.n(ram_out).add(b.n(rom_out)));
    check_equivalence(&b.build().expect("valid"), 50, 3);
}

#[test]
fn counter_fsm_equivalence() {
    // Tiny 3-state FSM: IDLE -> RUN -> DONE -> IDLE controlled by `go`.
    let mut b = ModuleBuilder::new("fsm");
    let go = b.input("go", 1);
    let state = b.reg("state", 2, Bv::zero(2));
    let cnt = b.reg("cnt", 4, Bv::zero(4));
    let is_idle = b.comb("is_idle", b.n(state).eq(Expr::lit(0, 2)));
    let is_run = b.comb("is_run", b.n(state).eq(Expr::lit(1, 2)));
    let cnt_done = b.comb("cnt_done", b.n(cnt).eq(Expr::lit(15, 4)));
    let next_state = b.comb(
        "next_state",
        b.n(is_idle).mux(
            b.n(go).mux(Expr::lit(1, 2), Expr::lit(0, 2)),
            b.n(is_run).mux(
                b.n(cnt_done).mux(Expr::lit(2, 2), Expr::lit(1, 2)),
                Expr::lit(0, 2),
            ),
        ),
    );
    b.set_next(state, b.n(next_state));
    b.set_next(
        cnt,
        b.n(is_run)
            .mux(b.n(cnt).add(Expr::lit(1, 4)), Expr::lit(0, 4)),
    );
    b.output("st", b.n(state));
    b.output("c", b.n(cnt));
    check_equivalence(&b.build().expect("valid"), 80, 4);
}

#[test]
fn optimization_never_increases_area() {
    let mut b = ModuleBuilder::new("redundant");
    let a = b.input("a", 8);
    // Deliberately wasteful: x ^ 0, y & 1s, double negation, duplicate adds.
    let x = b.comb("x", b.n(a).xor(Expr::lit(0, 8)));
    let y = b.comb("y", b.n(x).and(Expr::lit(0xFF, 8)));
    let z = b.comb("z", b.n(y).not().not());
    let s1 = b.comb("s1", b.n(z).add(b.n(a)));
    let s2 = b.comb("s2", b.n(z).add(b.n(a))); // duplicate of s1
    b.output("o", b.n(s1).xor(b.n(s2)));
    let m = b.build().expect("valid");
    let lib = CellLibrary::generic_025u();
    let unopt = synthesize(
        &m,
        &lib,
        &SynthOptions {
            optimize: false,
            insert_scan: false,
        },
    )
    .expect("synth");
    let opt = synthesize(
        &m,
        &lib,
        &SynthOptions {
            optimize: true,
            insert_scan: false,
        },
    )
    .expect("synth");
    assert!(opt.area.total_um2() < unopt.area.total_um2());
    // x ^ x folds to constant zero: almost everything disappears.
    assert!(opt.netlist.instances().len() <= 2);
}

#[test]
fn duplicate_registers_are_merged() {
    let mut b = ModuleBuilder::new("dupregs");
    let a = b.input("a", 1);
    let r1 = b.reg("r1", 1, Bv::zero(1));
    let r2 = b.reg("r2", 1, Bv::zero(1));
    b.set_next(r1, b.n(a));
    b.set_next(r2, b.n(a));
    b.output("o", b.n(r1).xor(b.n(r2)));
    let m = b.build().expect("valid");
    let lib = CellLibrary::generic_025u();
    let opt = synthesize(
        &m,
        &lib,
        &SynthOptions {
            optimize: true,
            insert_scan: false,
        },
    )
    .expect("synth");
    // r1 == r2 always, so o == 0 and everything sweeps away.
    assert_eq!(opt.netlist.flop_count(), 0);
}

#[test]
fn double_read_site_rejected() {
    let mut b = ModuleBuilder::new("tworeads");
    let a1 = b.input("a1", 2);
    let a2 = b.input("a2", 2);
    let rom = b.memory("rom", 4, (0..4u64).map(|i| Bv::new(i, 4)).collect());
    let r1 = b.comb("r1", Expr::read_mem(rom, b.n(a1), 4));
    let r2 = b.comb("r2", Expr::read_mem(rom, b.n(a2), 4));
    b.output("o", b.n(r1).add(b.n(r2)));
    let m = b.build().expect("valid");
    let lib = CellLibrary::generic_025u();
    let err = synthesize(&m, &lib, &SynthOptions::default());
    assert!(err.is_err());
}

#[test]
fn timing_meets_forty_ns_for_moderate_datapath() {
    // An 18x18 multiply-accumulate — the SRC's widest datapath element.
    let mut b = ModuleBuilder::new("mac");
    let x = b.input("x", 18);
    let y = b.input("y", 18);
    let acc = b.reg("acc", 24, Bv::zero(24));
    let prod = b.comb("prod", b.n(x).sext(24).mul_signed(b.n(y).sext(24)));
    b.set_next(acc, b.n(acc).add(b.n(prod)));
    b.output("q", b.n(acc));
    let m = b.build().expect("valid");
    let lib = CellLibrary::generic_025u();
    let r = synthesize(&m, &lib, &SynthOptions::default()).expect("synth");
    // The paper: "the timing goal could be easily achieved by all
    // implementations" at 40 ns.
    assert!(
        r.timing.meets(40_000),
        "critical path {} ps exceeds 40 ns",
        r.timing.critical_path_ps
    );
}
