//! Levels 4 and 5: the SRC as hand-written RTL (the paper's RTL SystemC).
//!
//! Two artefacts:
//!
//! * [`build_rtl_src`] — the synthesisable RTL module (FSM + datapath)
//!   in the paper's variants: [`RtlVariant::Unoptimised`] straight from
//!   conservative refinement (registered input/output stages, pessimistic
//!   accumulator) and [`RtlVariant::Optimised`] after the register
//!   cleanup. [`RtlVariant::OptimisedBuggy`] carries the golden-model
//!   ring-buffer bug down to RTL: on the last tap the read address skips
//!   the wrap stage — every simulator silently wraps it to the correct
//!   cell, so only the gate-level checking memory notices.
//! * [`run_rtl_model`] — a clocked, signal-based two-process simulation
//!   model (the "RTL SystemC" bar of Figure 8): every register is an
//!   `sc_signal`, a combinational process recomputes next-state on every
//!   change, a sequential process commits at the clock edge.

use crate::coeffs::CoefficientRom;
use crate::config::SrcConfig;
use crate::models::beh::CLOCK_PERIOD;
use crate::models::SimRun;
use scflow_hwtypes::Bv;
use scflow_kernel::Kernel;
use scflow_rtl::{Expr, Module, ModuleBuilder, RtlError};
use scflow_sim_api::{EngineStats, SimError, Simulation};
use std::cell::RefCell;
use std::rc::Rc;

/// The RTL design variants of the flow.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RtlVariant {
    /// Conservative refinement from the behavioural model: registered
    /// input and output stages and the pessimistic 40-bit accumulator
    /// survive.
    Unoptimised,
    /// After register optimisation: the minimal-register implementation.
    Optimised,
    /// The optimised design with the inherited ring-buffer address bug.
    OptimisedBuggy,
}

const B: u64 = SrcConfig::BUFFER as u64; // 24
const TAPS: u64 = SrcConfig::TAPS as u64; // 16

/// Builds the synthesisable RTL SRC.
///
/// Port convention (superstate handshake, shared with the behavioural
/// flow): `in_sample[16]`, `in_sample_valid`, `in_sample_ready`,
/// `out_sample[16]`, `out_sample_valid`, `out_sample_ready`.
///
/// # Errors
///
/// Propagates RTL validation errors (none occur for the shipped builders).
pub fn build_rtl_src(cfg: &SrcConfig, variant: RtlVariant) -> Result<Module, RtlError> {
    match variant {
        RtlVariant::Optimised => build_optimised(cfg, false, "src_rtl_opt"),
        RtlVariant::OptimisedBuggy => build_optimised(cfg, true, "src_rtl_buggy"),
        RtlVariant::Unoptimised => build_unoptimised(cfg),
    }
}

/// Shared helper: the symmetry-folded coefficient ROM address `{p4, k4}`.
fn coef_addr(b: &ModuleBuilder, phase: scflow_rtl::NetId, k: scflow_rtl::NetId) -> Expr {
    let psel = b.n(phase).slice(4, 4);
    let p4 = psel
        .clone()
        .mux(b.n(phase).slice(3, 0).not(), b.n(phase).slice(3, 0));
    let k4 = psel.mux(b.n(k).slice(3, 0).not(), b.n(k).slice(3, 0));
    p4.concat(k4)
}

fn build_optimised(cfg: &SrcConfig, buggy: bool, name: &str) -> Result<Module, RtlError> {
    let rom = CoefficientRom::design(cfg);
    let mut b = ModuleBuilder::new(name);

    // Ports.
    let in_data = b.input("in_sample", 16);
    let in_valid = b.input("in_sample_valid", 1);
    let out_ready = b.input("out_sample_ready", 1);

    // Registers: the optimised set.
    let state = b.reg("state", 2, Bv::zero(2)); // 0 ADV, 1 CON, 2 MAC, 3 OUT
    let acc = b.reg("acc", 24, Bv::zero(24));
    let consume = b.reg("consume", 2, Bv::zero(2));
    let phase = b.reg("phase", 5, Bv::zero(5));
    let k = b.reg("k", 5, Bv::zero(5));
    let macc = b.reg("macc", SrcConfig::ACC_BITS, Bv::zero(SrcConfig::ACC_BITS));
    let wptr = b.reg("wptr", 5, Bv::zero(5));

    // Memories.
    let buf = b.memory("in_buf", 16, vec![Bv::zero(16); SrcConfig::BUFFER]);
    let coef = b.memory(
        "coef_rom",
        16,
        rom.words()
            .iter()
            .map(|&c| Bv::from_i64(i64::from(c), 16))
            .collect(),
    );

    // State decodes.
    let st_adv = b.comb("st_adv", b.n(state).eq(Expr::lit(0, 2)));
    let st_con = b.comb("st_con", b.n(state).eq(Expr::lit(1, 2)));
    let st_mac = b.comb("st_mac", b.n(state).eq(Expr::lit(2, 2)));
    let st_out = b.comb("st_out", b.n(state).eq(Expr::lit(3, 2)));

    // Accumulator advance.
    let wide = b.comb(
        "wide",
        b.n(acc).zext(26).add(Expr::lit(u64::from(cfg.step), 26)),
    );
    let wide_consume = b.comb("wide_consume", b.n(wide).slice(25, 24));
    let wide_acc = b.comb("wide_acc", b.n(wide).slice(23, 0));

    // Ring-buffer read address: t = wptr + 23 - k, wrapped once.
    let t_raw = b.comb(
        "t_raw",
        b.n(wptr)
            .zext(6)
            .add(Expr::lit(B - 1, 6))
            .sub(b.n(k).zext(6)),
    );
    let t_wrapped = b.comb(
        "t_wrapped",
        b.n(t_raw)
            .ult(Expr::lit(B, 6))
            .mux(b.n(t_raw), b.n(t_raw).sub(Expr::lit(B, 6))),
    );
    // The inherited bug: the last tap's address skips the wrap stage. The
    // raw value is congruent mod 24, so simulation data stays correct —
    // only an address-checking memory model can tell.
    let rd_addr = if buggy {
        b.comb(
            "rd_addr",
            b.n(k)
                .eq(Expr::lit(TAPS - 1, 5))
                .mux(b.n(t_raw), b.n(t_wrapped)),
        )
    } else {
        b.comb("rd_addr", b.n(t_wrapped))
    };

    let caddr = b.comb("caddr", coef_addr(&b, phase, k));

    // Memory reads (single site each).
    let x = b.comb("x", Expr::read_mem(buf, b.n(rd_addr), 16));
    let c = b.comb("c", Expr::read_mem(coef, b.n(caddr), 16));
    let prod = b.comb(
        "prod",
        b.n(x)
            .sext(SrcConfig::ACC_BITS)
            .mul_signed(b.n(c).sext(SrcConfig::ACC_BITS)),
    );

    // Buffer write during CONSUME.
    let accept = b.comb("accept", b.n(st_con).and(b.n(in_valid)));
    b.mem_write(buf, b.n(wptr), b.n(in_data), b.n(accept));

    // Register updates.
    b.set_next(acc, b.n(st_adv).mux(b.n(wide_acc), b.n(acc)));
    b.set_next(
        phase,
        b.n(st_adv).mux(b.n(wide_acc).slice(23, 19), b.n(phase)),
    );
    b.set_next(
        consume,
        b.n(st_adv).mux(
            b.n(wide_consume),
            b.n(accept)
                .mux(b.n(consume).sub(Expr::lit(1, 2)), b.n(consume)),
        ),
    );
    b.set_next(
        wptr,
        b.n(accept).mux(
            b.n(wptr)
                .eq(Expr::lit(B - 1, 5))
                .mux(Expr::lit(0, 5), b.n(wptr).add(Expr::lit(1, 5))),
            b.n(wptr),
        ),
    );
    b.set_next(
        k,
        b.n(st_adv).mux(
            Expr::lit(0, 5),
            b.n(st_mac).mux(b.n(k).add(Expr::lit(1, 5)), b.n(k)),
        ),
    );
    b.set_next(
        macc,
        b.n(st_adv).mux(
            Expr::lit(0, SrcConfig::ACC_BITS),
            b.n(st_mac).mux(b.n(macc).add(b.n(prod)), b.n(macc)),
        ),
    );

    // Next state.
    let adv_next = b.comb(
        "adv_next",
        b.n(wide_consume)
            .eq(Expr::lit(0, 2))
            .mux(Expr::lit(2, 2), Expr::lit(1, 2)),
    );
    let con_next = b.comb(
        "con_next",
        b.n(accept)
            .and(b.n(consume).eq(Expr::lit(1, 2)))
            .mux(Expr::lit(2, 2), Expr::lit(1, 2)),
    );
    let mac_next = b.comb(
        "mac_next",
        b.n(k)
            .eq(Expr::lit(TAPS - 1, 5))
            .mux(Expr::lit(3, 2), Expr::lit(2, 2)),
    );
    let out_next = b.comb(
        "out_next",
        b.n(out_ready).mux(Expr::lit(0, 2), Expr::lit(3, 2)),
    );
    b.set_next(
        state,
        b.n(st_adv).mux(
            b.n(adv_next),
            b.n(st_con)
                .mux(b.n(con_next), b.n(st_mac).mux(b.n(mac_next), b.n(out_next))),
        ),
    );

    // Outputs.
    let y = b.comb(
        "y",
        b.n(macc)
            .sar(Expr::lit(u64::from(SrcConfig::COEF_FRAC_BITS), 6))
            .slice(15, 0),
    );
    b.output("in_sample_ready", b.n(st_con));
    b.output("out_sample", b.n(st_out).mux(b.n(y), Expr::lit(0, 16)));
    b.output("out_sample_valid", b.n(st_out));
    b.output("dbg_state", b.n(state));

    b.build()
}

fn build_unoptimised(cfg: &SrcConfig) -> Result<Module, RtlError> {
    const AW: u32 = SrcConfig::ACC_BITS_PESSIMISTIC;
    let rom = CoefficientRom::design(cfg);
    let mut b = ModuleBuilder::new("src_rtl_unopt");

    let in_data = b.input("in_sample", 16);
    let in_valid = b.input("in_sample_valid", 1);
    let out_ready = b.input("out_sample_ready", 1);

    // Conservative register set: input capture register, output holding
    // register, pessimistic 40-bit accumulator, 3-bit state.
    // States: 0 ADV, 1 CON(capture), 2 STORE, 3 MAC, 4 PREP, 5 OUT.
    let state = b.reg("state", 3, Bv::zero(3));
    let acc = b.reg("acc", 24, Bv::zero(24));
    let consume = b.reg("consume", 2, Bv::zero(2));
    let phase = b.reg("phase", 5, Bv::zero(5));
    let k = b.reg("k", 5, Bv::zero(5));
    let macc = b.reg("macc", AW, Bv::zero(AW));
    let wptr = b.reg("wptr", 5, Bv::zero(5));
    let in_reg = b.reg("in_reg", 16, Bv::zero(16));
    let out_reg = b.reg("out_reg", 16, Bv::zero(16));

    let buf = b.memory("in_buf", 16, vec![Bv::zero(16); SrcConfig::BUFFER]);
    let coef = b.memory(
        "coef_rom",
        16,
        rom.words()
            .iter()
            .map(|&c| Bv::from_i64(i64::from(c), 16))
            .collect(),
    );

    let st_adv = b.comb("st_adv", b.n(state).eq(Expr::lit(0, 3)));
    let st_con = b.comb("st_con", b.n(state).eq(Expr::lit(1, 3)));
    let st_store = b.comb("st_store", b.n(state).eq(Expr::lit(2, 3)));
    let st_mac = b.comb("st_mac", b.n(state).eq(Expr::lit(3, 3)));
    let st_prep = b.comb("st_prep", b.n(state).eq(Expr::lit(4, 3)));
    let st_out = b.comb("st_out", b.n(state).eq(Expr::lit(5, 3)));

    let wide = b.comb(
        "wide",
        b.n(acc).zext(26).add(Expr::lit(u64::from(cfg.step), 26)),
    );
    let wide_consume = b.comb("wide_consume", b.n(wide).slice(25, 24));
    let wide_acc = b.comb("wide_acc", b.n(wide).slice(23, 0));

    let t_raw = b.comb(
        "t_raw",
        b.n(wptr)
            .zext(6)
            .add(Expr::lit(B - 1, 6))
            .sub(b.n(k).zext(6)),
    );
    let rd_addr = b.comb(
        "rd_addr",
        b.n(t_raw)
            .ult(Expr::lit(B, 6))
            .mux(b.n(t_raw), b.n(t_raw).sub(Expr::lit(B, 6))),
    );
    let caddr = b.comb("caddr", coef_addr(&b, phase, k));

    let x = b.comb("x", Expr::read_mem(buf, b.n(rd_addr), 16));
    let c = b.comb("c", Expr::read_mem(coef, b.n(caddr), 16));
    let prod = b.comb("prod", b.n(x).sext(AW).mul_signed(b.n(c).sext(AW)));

    let accept = b.comb("accept", b.n(st_con).and(b.n(in_valid)));
    b.mem_write(buf, b.n(wptr), b.n(in_reg), b.n(st_store));

    b.set_next(in_reg, b.n(accept).mux(b.n(in_data), b.n(in_reg)));
    b.set_next(acc, b.n(st_adv).mux(b.n(wide_acc), b.n(acc)));
    b.set_next(
        phase,
        b.n(st_adv).mux(b.n(wide_acc).slice(23, 19), b.n(phase)),
    );
    b.set_next(
        consume,
        b.n(st_adv).mux(
            b.n(wide_consume),
            b.n(st_store)
                .mux(b.n(consume).sub(Expr::lit(1, 2)), b.n(consume)),
        ),
    );
    b.set_next(
        wptr,
        b.n(st_store).mux(
            b.n(wptr)
                .eq(Expr::lit(B - 1, 5))
                .mux(Expr::lit(0, 5), b.n(wptr).add(Expr::lit(1, 5))),
            b.n(wptr),
        ),
    );
    b.set_next(
        k,
        b.n(st_adv).mux(
            Expr::lit(0, 5),
            b.n(st_mac).mux(b.n(k).add(Expr::lit(1, 5)), b.n(k)),
        ),
    );
    b.set_next(
        macc,
        b.n(st_adv).mux(
            Expr::lit(0, AW),
            b.n(st_mac).mux(b.n(macc).add(b.n(prod)), b.n(macc)),
        ),
    );
    let y = b.comb(
        "y",
        b.n(macc)
            .sar(Expr::lit(u64::from(SrcConfig::COEF_FRAC_BITS), 6))
            .slice(15, 0),
    );
    b.set_next(out_reg, b.n(st_prep).mux(b.n(y), b.n(out_reg)));

    // Next state.
    let adv_next = b.comb(
        "adv_next",
        b.n(wide_consume)
            .eq(Expr::lit(0, 2))
            .mux(Expr::lit(3, 3), Expr::lit(1, 3)),
    );
    let con_next = b.comb(
        "con_next",
        b.n(accept).mux(Expr::lit(2, 3), Expr::lit(1, 3)),
    );
    let store_next = b.comb(
        "store_next",
        b.n(consume)
            .eq(Expr::lit(1, 2))
            .mux(Expr::lit(3, 3), Expr::lit(1, 3)),
    );
    let mac_next = b.comb(
        "mac_next",
        b.n(k)
            .eq(Expr::lit(TAPS - 1, 5))
            .mux(Expr::lit(4, 3), Expr::lit(3, 3)),
    );
    let out_next = b.comb(
        "out_next",
        b.n(out_ready).mux(Expr::lit(0, 3), Expr::lit(5, 3)),
    );
    b.set_next(
        state,
        b.n(st_adv).mux(
            b.n(adv_next),
            b.n(st_con).mux(
                b.n(con_next),
                b.n(st_store).mux(
                    b.n(store_next),
                    b.n(st_mac).mux(
                        b.n(mac_next),
                        b.n(st_prep).mux(Expr::lit(5, 3), b.n(out_next)),
                    ),
                ),
            ),
        ),
    );

    b.output("in_sample_ready", b.n(st_con));
    b.output(
        "out_sample",
        b.n(st_out).mux(b.n(out_reg), Expr::lit(0, 16)),
    );
    b.output("out_sample_valid", b.n(st_out));
    b.output("dbg_state", b.n(state));

    b.build()
}

/// The handshake-facing signals of the kernel two-process SRC model.
struct SrcPorts {
    in_data: scflow_kernel::Signal<i16>,
    in_valid: scflow_kernel::Signal<bool>,
    in_ready: scflow_kernel::Signal<bool>,
    out_data: scflow_kernel::Signal<i16>,
    out_valid: scflow_kernel::Signal<bool>,
}

/// Spawns the two-process (comb + seq) SRC onto `kernel` and returns its
/// handshake signals. Shared by [`run_rtl_model`] (which adds a paced
/// producer/consumer) and [`KernelRtlSim`] (which drives the signals from
/// a [`Simulation`](scflow_sim_api::Simulation) testbench).
fn spawn_two_process_src(kernel: &Kernel, clk: &scflow_kernel::Clock, cfg: &SrcConfig) -> SrcPorts {
    #[derive(Clone, Copy, PartialEq, Debug, Default)]
    struct Regs {
        state: u8,
        acc: u32,
        consume: u8,
        phase: u8,
        k: u8,
        macc: i64,
        wptr: u8,
    }

    let rom = Rc::new(CoefficientRom::design(cfg));
    let buf: Rc<RefCell<[i16; SrcConfig::BUFFER]>> = Rc::new(RefCell::new([0; SrcConfig::BUFFER]));

    // Current and next register state as signals (the 2-process style).
    let cur = kernel.signal("cur", Regs::default());
    let nxt = kernel.signal("nxt", Regs::default());
    let in_data = kernel.signal("in_data", 0i16);
    let in_valid = kernel.signal("in_valid", false);
    let in_ready = kernel.signal("in_ready", false);
    let out_data = kernel.signal("out_data", 0i16);
    let out_valid = kernel.signal("out_valid", false);
    let ram_we = kernel.signal("ram_we", false);

    // Combinational process: recompute next state whenever anything it
    // reads changes.
    kernel.spawn("src.comb", {
        let k2 = kernel.clone();
        let (cur, nxt) = (cur.clone(), nxt.clone());
        let (in_data, in_valid, in_ready) = (in_data.clone(), in_valid.clone(), in_ready.clone());
        let (out_data, out_valid, ram_we) = (out_data.clone(), out_valid.clone(), ram_we.clone());
        let (rom, buf) = (rom.clone(), buf.clone());
        let step = cfg.step;
        async move {
            loop {
                let r = cur.read();
                let mut n = r;
                let mut we = false;
                match r.state {
                    0 => {
                        // ADV
                        let wide = u64::from(r.acc) + u64::from(step);
                        n.consume = (wide >> 24) as u8;
                        n.acc = (wide & 0xFF_FFFF) as u32;
                        n.phase = (n.acc >> 19) as u8;
                        n.k = 0;
                        n.macc = 0;
                        n.state = if n.consume == 0 { 2 } else { 1 };
                    }
                    1 => {
                        // CONSUME
                        if in_valid.read() {
                            we = true;
                            n.wptr = if r.wptr as usize == SrcConfig::BUFFER - 1 {
                                0
                            } else {
                                r.wptr + 1
                            };
                            n.consume = r.consume - 1;
                            n.state = if r.consume == 1 { 2 } else { 1 };
                        }
                    }
                    2 => {
                        // MAC
                        let idx = (r.wptr as usize + SrcConfig::BUFFER - 1 - r.k as usize)
                            % SrcConfig::BUFFER;
                        let xv = buf.borrow()[idx];
                        let cv = rom.coefficient(u32::from(r.phase), u32::from(r.k));
                        n.macc = crate::algo::wrap_to(
                            r.macc + i64::from(xv) * i64::from(cv),
                            SrcConfig::ACC_BITS,
                        );
                        n.k = r.k + 1;
                        n.state = if r.k as u64 == TAPS - 1 { 3 } else { 2 };
                    }
                    _ => {
                        // OUT (consumer is always ready in this TB).
                        n.state = 0;
                    }
                }
                nxt.write(n);
                ram_we.write(we);
                in_ready.write(r.state == 1);
                out_valid.write(r.state == 3);
                out_data.write((r.macc >> SrcConfig::COEF_FRAC_BITS) as i16);

                k2.wait_any(&[cur.changed(), in_valid.changed(), in_data.changed()])
                    .await;
            }
        }
    });

    // Sequential process: commit registers and the RAM write at the edge.
    kernel.spawn("src.seq", {
        let k2 = kernel.clone();
        let clk = clk.clone();
        let (cur, nxt) = (cur.clone(), nxt.clone());
        let (ram_we, in_data) = (ram_we.clone(), in_data.clone());
        let buf = buf.clone();
        async move {
            loop {
                k2.wait(clk.posedge()).await;
                let n = nxt.read();
                if ram_we.read() {
                    let w = cur.read().wptr as usize;
                    buf.borrow_mut()[w] = in_data.read();
                }
                cur.write(n);
            }
        }
    });

    SrcPorts {
        in_data,
        in_valid,
        in_ready,
        out_data,
        out_valid,
    }
}

/// Runs the clocked, signal-based "RTL SystemC" simulation model — every
/// register a signal, a combinational process re-evaluated on every
/// change, a sequential process committing at the edge (Figure 8's
/// slowest compiled-model bar).
pub fn run_rtl_model(cfg: &SrcConfig, input: &[i16]) -> SimRun {
    let kernel = Kernel::new();
    let clk = kernel.clock("clk", CLOCK_PERIOD);
    let expected = crate::verify::GoldenVectors::generate(cfg, input.to_vec()).len();
    let SrcPorts {
        in_data,
        in_valid,
        in_ready,
        out_data,
        out_valid,
    } = spawn_two_process_src(&kernel, &clk, cfg);

    // Producer: paced, holds each sample until accepted.
    kernel.spawn("producer", {
        let (k2, clk) = (kernel.clone(), clk.clone());
        let (in_data, in_valid, in_ready) = (in_data.clone(), in_valid.clone(), in_ready.clone());
        let input = input.to_vec();
        let in_period = cfg.in_period_ps();
        async move {
            for (ni, s) in input.into_iter().enumerate() {
                let due = scflow_kernel::SimTime::from_ps((ni as u64 + 1) * in_period);
                if due > k2.now() {
                    k2.wait_time(due - k2.now()).await;
                }
                in_data.write(s);
                in_valid.write(true);
                loop {
                    k2.wait(clk.posedge()).await;
                    if in_ready.read() {
                        break;
                    }
                }
                in_valid.write(false);
            }
        }
    });

    let collected: Rc<RefCell<Vec<i16>>> = Rc::new(RefCell::new(Vec::new()));
    let times: Rc<RefCell<Vec<scflow_kernel::SimTime>>> = Rc::new(RefCell::new(Vec::new()));
    kernel.spawn("consumer", {
        let (k2, clk) = (kernel.clone(), clk.clone());
        let (out_data, out_valid) = (out_data.clone(), out_valid.clone());
        let (collected, times) = (collected.clone(), times.clone());
        async move {
            loop {
                k2.wait(clk.posedge()).await;
                if out_valid.read() {
                    collected.borrow_mut().push(out_data.read());
                    times.borrow_mut().push(k2.now());
                    if collected.borrow().len() == expected {
                        k2.stop();
                    }
                }
            }
        }
    });

    kernel.run();
    let outputs = collected.borrow().clone();
    let output_times = times.borrow().clone();
    SimRun {
        outputs,
        sim_time: kernel.now(),
        clock_cycles: Some(clk.cycles()),
        stats: Some(kernel.stats()),
        output_times,
    }
}

/// The kernel two-process SRC model behind the unified
/// [`Simulation`] interface.
///
/// Wraps the same comb/seq process pair as [`run_rtl_model`] in a
/// cycle-driven shell: [`step`](Simulation::step) runs the kernel for one
/// 40 ns clock period (exactly one rising edge),
/// [`settle`](Simulation::settle) drains the delta cycles at the current
/// time, and the handshake ports are poked/peeked as signals. This lets
/// the same testbench harness ([`run_handshake`]) drive the kernel model,
/// the interpreted RTL simulator, the compiled engine and the gate level.
///
/// The model's testbench convention hard-wires consumer readiness, so
/// `out_sample_ready` is accepted and ignored.
///
/// [`run_handshake`]: crate::models::harness::run_handshake
pub struct KernelRtlSim {
    kernel: Kernel,
    clk: scflow_kernel::Clock,
    ports: SrcPorts,
    cycles: u64,
}

impl KernelRtlSim {
    /// Spawns the two-process SRC on a fresh kernel and settles the
    /// initial combinational state.
    pub fn new(cfg: &SrcConfig) -> Self {
        let kernel = Kernel::new();
        let clk = kernel.clock("clk", CLOCK_PERIOD);
        let ports = spawn_two_process_src(&kernel, &clk, cfg);
        let mut sim = KernelRtlSim {
            kernel,
            clk,
            ports,
            cycles: 0,
        };
        Simulation::settle(&mut sim);
        sim
    }

    /// Simulated time reached so far.
    pub fn now(&self) -> scflow_kernel::SimTime {
        self.kernel.now()
    }

    /// Kernel scheduler statistics (process polls, deltas, events).
    pub fn kernel_stats(&self) -> scflow_kernel::SimStats {
        self.kernel.stats()
    }
}

impl Simulation for KernelRtlSim {
    fn step(&mut self) {
        // One period covers exactly one rising edge: the clock starts
        // low and rises at every odd half-period.
        self.kernel.run_for(self.clk.period());
        self.cycles += 1;
    }

    fn settle(&mut self) {
        self.kernel.run_for(scflow_kernel::SimTime::ZERO);
    }

    fn cycle(&self) -> u64 {
        self.cycles
    }

    fn try_poke(&mut self, port: &str, value: Bv) -> Result<(), SimError> {
        let want = match port {
            "in_sample" => 16,
            "in_sample_valid" | "out_sample_ready" => 1,
            "in_sample_ready" | "out_sample" | "out_sample_valid" => {
                return Err(SimError::NotAnInput(port.to_string()))
            }
            _ => return Err(SimError::UnknownPort(port.to_string())),
        };
        if value.width() != want {
            return Err(SimError::WidthMismatch {
                port: port.to_string(),
                port_width: want,
                value_width: value.width(),
            });
        }
        match port {
            "in_sample" => self.ports.in_data.write(value.as_i64() as i16),
            "in_sample_valid" => self.ports.in_valid.write(value.any()),
            // The model's consumer side is always ready.
            _ => {}
        }
        Ok(())
    }

    fn try_peek(&self, port: &str) -> Result<Bv, SimError> {
        match port {
            "in_sample_ready" => Ok(Bv::bit(self.ports.in_ready.read())),
            "out_sample" => Ok(Bv::from_i64(i64::from(self.ports.out_data.read()), 16)),
            "out_sample_valid" => Ok(Bv::bit(self.ports.out_valid.read())),
            "in_sample" | "in_sample_valid" | "out_sample_ready" => {
                Err(SimError::NotAnOutput(port.to_string()))
            }
            _ => Err(SimError::UnknownPort(port.to_string())),
        }
    }

    fn has_input(&self, port: &str) -> bool {
        matches!(port, "in_sample" | "in_sample_valid" | "out_sample_ready")
    }

    fn stats(&self) -> EngineStats {
        let k = self.kernel.stats();
        EngineStats {
            cycles: self.cycles,
            evals: k.processes_polled,
            skipped: 0,
            events: k.events_fired,
        }
    }
}
