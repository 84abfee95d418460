//! Co-simulation harnesses reproducing the paper's Figure 9 setup.
//!
//! The paper simulates each HDL artefact (the intermediate RTL Verilog,
//! the behavioural-flow gate netlist, the RTL-flow gate netlist) in two
//! configurations:
//!
//! * **native HDL simulation** — the DUT inside the original *VHDL
//!   testbench*, everything interpreted by the HDL simulator. Here:
//!   [`run_native_hdl`] builds a self-checking testbench as an RTL module
//!   ([`build_hdl_testbench`]: stimulus ROM, handshake FSM, expected-value
//!   comparator) and interprets it in lockstep with the DUT.
//! * **SystemC co-simulation** — the DUT driven from the *SystemC
//!   testbench* through a co-simulation bridge. Here: [`run_kernel_cosim`]
//!   runs the testbench as compiled kernel processes whose port values
//!   cross to the interpreted DUT through per-cycle bridge signals.
//!
//! The paper's observation — co-simulation is *slightly faster* because
//! the compiled testbench outweighs the bridge overhead — falls out of
//! this construction naturally: the interpreted testbench pays expression-
//! tree evaluation every cycle, the bridge pays only a handful of signal
//! updates.
//!
//! Both harnesses accept any DUT behind the unified
//! [`Simulation`] trait, so the same Figure 9 rows can be produced with
//! the interpreted RTL simulator, the compiled levelized engine, or
//! either gate-level engine (event-driven or compiled bit-parallel)
//! standing in as the "HDL simulator".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use scflow::verify::GoldenVectors;
use scflow_hwtypes::{bits_for, Bv};
use scflow_kernel::{Kernel, SimTime};
use scflow_rtl::{Expr, Module, ModuleBuilder, RtlError, RtlSim};
use scflow_sim_api::Simulation;
use std::cell::RefCell;
use std::rc::Rc;

/// The result of one co-simulation run.
#[derive(Clone, Debug)]
pub struct CosimRun {
    /// Output samples captured from the DUT.
    pub outputs: Vec<i16>,
    /// Clock cycles simulated.
    pub cycles: u64,
    /// Mismatches counted by the self-checking testbench (native runs
    /// only; the kernel-testbench configuration checks on the host side).
    pub testbench_errors: u64,
}

/// Builds the self-checking HDL testbench as an RTL module.
///
/// Structure (what the original VHDL testbench contains): a stimulus ROM
/// holding the input samples, an index counter advanced on accepted beats,
/// always-asserted output readiness, an expected-value ROM with
/// comparator, and an error counter.
///
/// Ports (wired to the DUT by the lockstep driver): outputs
/// `tb_in_sample[16]`, `tb_in_valid`, `tb_out_ready`, `tb_done`,
/// `tb_errors[16]`; inputs `dut_in_ready`, `dut_out_valid`,
/// `dut_out_sample[16]`.
///
/// # Errors
///
/// Propagates RTL validation errors (none occur for well-formed vectors).
pub fn build_hdl_testbench(golden: &GoldenVectors) -> Result<Module, RtlError> {
    let n_in = golden.input.len();
    let n_out = golden.output.len();
    let iw = bits_for(n_in as u64) + 1;
    let ow = bits_for(n_out as u64) + 1;

    let mut b = ModuleBuilder::new("hdl_tb");
    let dut_in_ready = b.input("dut_in_ready", 1);
    let dut_out_valid = b.input("dut_out_valid", 1);
    let dut_out_sample = b.input("dut_out_sample", 16);

    let stim = b.memory(
        "stim_rom",
        16,
        golden
            .input
            .iter()
            .map(|&s| Bv::from_i64(i64::from(s), 16))
            .chain(std::iter::once(Bv::zero(16)))
            .collect(),
    );
    let expect = b.memory(
        "expect_rom",
        16,
        golden
            .output
            .iter()
            .map(|&s| Bv::from_i64(i64::from(s), 16))
            .chain(std::iter::once(Bv::zero(16)))
            .collect(),
    );

    let idx = b.reg("idx", iw, Bv::zero(iw));
    let oidx = b.reg("oidx", ow, Bv::zero(ow));
    let errors = b.reg("errors", 16, Bv::zero(16));

    let have_stim = b.comb("have_stim", b.n(idx).ult(Expr::lit(n_in as u64, iw)));
    let accepted = b.comb("accepted", b.n(have_stim).and(b.n(dut_in_ready)));
    b.set_next(
        idx,
        b.n(accepted).mux(b.n(idx).add(Expr::lit(1, iw)), b.n(idx)),
    );

    let expect_val = b.comb("expect_val", Expr::read_mem(expect, b.n(oidx), 16));
    let capture = b.comb(
        "capture",
        b.n(dut_out_valid)
            .and(b.n(oidx).ult(Expr::lit(n_out as u64, ow))),
    );
    b.set_next(
        oidx,
        b.n(capture).mux(b.n(oidx).add(Expr::lit(1, ow)), b.n(oidx)),
    );
    let mismatch = b.comb(
        "mismatch",
        b.n(capture).and(b.n(dut_out_sample).ne(b.n(expect_val))),
    );
    b.set_next(
        errors,
        b.n(mismatch)
            .mux(b.n(errors).add(Expr::lit(1, 16)), b.n(errors)),
    );

    b.output("tb_in_sample", Expr::read_mem(stim, b.n(idx), 16));
    b.output("tb_in_valid", b.n(have_stim));
    b.output("tb_out_ready", Expr::lit(1, 1));
    b.output("tb_done", b.n(oidx).eq(Expr::lit(n_out as u64, ow)));
    b.output("tb_errors", b.n(errors));

    b.build()
}

fn tie_off_scan(dut: &mut (impl Simulation + ?Sized)) {
    if dut.has_input("scan_en") {
        dut.poke("scan_en", Bv::zero(1));
        dut.poke("scan_in", Bv::zero(1));
    }
    if dut.has_input("test_mode") {
        dut.poke("test_mode", Bv::zero(1));
    }
}

/// Native HDL simulation: the interpreted testbench drives the DUT,
/// lockstep, one clock domain.
///
/// # Panics
///
/// Panics if the cycle budget is exhausted before the testbench reports
/// completion.
pub fn run_native_hdl(
    dut: &mut (impl Simulation + ?Sized),
    golden: &GoldenVectors,
    max_cycles: u64,
) -> CosimRun {
    let tb_module = build_hdl_testbench(golden).expect("testbench builds");
    let mut tb = RtlSim::new(&tb_module);
    native_hdl_lockstep(&mut tb, dut, golden.len(), max_cycles)
}

/// Native HDL simulation with the testbench itself on the compiled
/// levelized engine — the all-compiled counterpart of
/// [`run_native_hdl`]: same testbench module, same lockstep protocol,
/// bit-identical run, only the testbench's evaluation engine differs.
/// (With only the DUT swapped, the interpreted testbench dominates the
/// cycle and caps any engine speedup — Amdahl — so the figures report
/// this configuration for the compiled rows.)
///
/// # Panics
///
/// Panics if the cycle budget is exhausted before the testbench reports
/// completion.
pub fn run_native_hdl_compiled(
    dut: &mut (impl Simulation + ?Sized),
    golden: &GoldenVectors,
    max_cycles: u64,
) -> CosimRun {
    let tb_module = build_hdl_testbench(golden).expect("testbench builds");
    let tb_program = scflow_rtl::CompiledProgram::compile(&tb_module).expect("testbench compiles");
    let mut tb = tb_program.simulator();
    native_hdl_lockstep(&mut tb, dut, golden.len(), max_cycles)
}

/// The lockstep driver shared by the native-HDL entry points: any
/// testbench engine, any DUT engine, both behind [`Simulation`].
fn native_hdl_lockstep(
    tb: &mut (impl Simulation + ?Sized),
    dut: &mut (impl Simulation + ?Sized),
    expected: usize,
    max_cycles: u64,
) -> CosimRun {
    tie_off_scan(dut);

    let mut outputs = Vec::with_capacity(expected);
    let mut cycles = 0u64;
    loop {
        assert!(
            cycles < max_cycles,
            "native HDL run exceeded {max_cycles} cycles"
        );
        // Testbench drives...
        tb.settle();
        dut.poke("in_sample", tb.peek("tb_in_sample"));
        dut.poke("in_sample_valid", tb.peek("tb_in_valid"));
        dut.poke("out_sample_ready", tb.peek("tb_out_ready"));
        // ...DUT responds...
        dut.settle();
        let in_ready = dut.peek("in_sample_ready");
        let out_valid = dut.peek("out_sample_valid");
        let out_sample = dut.peek("out_sample");
        tb.poke("dut_in_ready", in_ready);
        tb.poke("dut_out_valid", out_valid);
        tb.poke("dut_out_sample", out_sample);
        tb.settle();
        if out_valid.any() && outputs.len() < expected {
            outputs.push(out_sample.as_i64() as i16);
        }
        let done = tb.peek("tb_done").any();
        // ...both clock.
        tb.step();
        dut.step();
        cycles += 1;
        if done {
            break;
        }
    }
    let errors = tb.peek("tb_errors").as_u64();
    CosimRun {
        outputs,
        cycles,
        testbench_errors: errors,
    }
}

/// SystemC-testbench co-simulation: compiled kernel processes drive the
/// interpreted DUT through per-cycle bridge signals.
///
/// # Panics
///
/// Panics if the cycle budget is exhausted before all expected outputs
/// arrive.
pub fn run_kernel_cosim(
    dut: &mut (impl Simulation + ?Sized),
    golden: &GoldenVectors,
    max_cycles: u64,
) -> CosimRun {
    let kernel = Kernel::new();
    let clk = kernel.clock("clk", SimTime::from_ns(40));
    tie_off_scan(dut);

    // Bridge signals (the co-simulation interface's per-cycle traffic).
    let s_in_sample = kernel.signal("br_in_sample", 0i16);
    let s_in_valid = kernel.signal("br_in_valid", false);
    let s_in_ready = kernel.signal("br_in_ready", false);
    let s_out_valid = kernel.signal("br_out_valid", false);
    let s_out_sample = kernel.signal("br_out_sample", 0i16);

    // Compiled testbench process: the handshake logic in native code.
    let pos: Rc<RefCell<usize>> = Rc::new(RefCell::new(0));
    kernel.spawn("sc_tb", {
        let (k, clk) = (kernel.clone(), clk.clone());
        let (s_in_sample, s_in_valid, s_in_ready) =
            (s_in_sample.clone(), s_in_valid.clone(), s_in_ready.clone());
        let input = golden.input.clone();
        let pos = pos.clone();
        async move {
            loop {
                let p = *pos.borrow();
                match input.get(p) {
                    Some(&s) => {
                        s_in_sample.write(s);
                        s_in_valid.write(true);
                    }
                    None => s_in_valid.write(false),
                }
                k.wait(clk.posedge()).await;
                if s_in_ready.read() && p < input.len() {
                    *pos.borrow_mut() += 1;
                }
            }
        }
    });

    // The run loop is the bridge: each clock period it transfers the
    // bridge signals into the interpreted DUT, advances it one cycle, and
    // transfers the responses back.
    let mut outputs = Vec::with_capacity(golden.len());
    let expected = golden.len();
    let mut cycles = 0u64;
    while outputs.len() < expected {
        assert!(
            cycles < max_cycles,
            "kernel co-simulation exceeded {max_cycles} cycles"
        );
        kernel.run_for(SimTime::from_ns(40));
        dut.poke("in_sample", Bv::from_i64(i64::from(s_in_sample.read()), 16));
        dut.poke("in_sample_valid", Bv::bit(s_in_valid.read()));
        dut.poke("out_sample_ready", Bv::bit(true));
        dut.settle();
        s_in_ready.set_now(dut.peek("in_sample_ready").any());
        let out_valid = dut.peek("out_sample_valid").any();
        s_out_valid.set_now(out_valid);
        let out = dut.peek("out_sample");
        s_out_sample.set_now(out.as_i64() as i16);
        if out_valid {
            outputs.push(out.as_i64() as i16);
        }
        dut.step();
        cycles += 1;
    }

    CosimRun {
        outputs,
        cycles,
        testbench_errors: 0,
    }
}
