//! Levels 2 and 3: the synthesisable **behavioural** SRC.
//!
//! Two artefacts, as in the paper:
//!
//! * a **clocked simulation model** ([`run_beh_model`]) — an `SC_THREAD`
//!   over a 25 MHz clock with signal-based handshaking, one MAC per clock
//!   cycle (the Figure 8 "BEH" datapoint),
//! * a **behavioural program** ([`beh_program`]) for behavioural
//!   synthesis, in the paper's two variants:
//!   [`BehVariant::Unoptimised`] — handshaking I/O (superstate
//!   scheduling), pessimistic bit-widths, proliferated temporaries, no
//!   register merging; [`BehVariant::Optimised`] — fixed-cycle I/O, exact
//!   widths, cleaned-up code, register merging.

use crate::coeffs::CoefficientRom;
use crate::config::SrcConfig;
use crate::models::SimRun;
use scflow_hwtypes::Bv;
use scflow_kernel::{Kernel, SimTime};
use scflow_synth::beh::{BehOptions, BehProgram, ProgramBuilder, SchedulingMode};
use scflow_synth::SynthError;
use std::cell::RefCell;
use std::rc::Rc;

/// The paper's two behavioural-model revisions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BehVariant {
    /// First synthesisable version: handshaking in loops, conservative
    /// "cut-and-paste-and-refine" temporaries, pessimistic widths — the
    /// one that came out 27.5 % larger than the VHDL reference.
    Unoptimised,
    /// After the paper's optimisation round: fixed cycle scheme, code
    /// cleanup, tightened bit-widths.
    Optimised,
}

/// The clock period used by all clocked models (the paper's 40 ns / 25 MHz).
pub const CLOCK_PERIOD: SimTime = SimTime::from_ns(40);

/// Runs the clocked behavioural simulation model over `input`.
///
/// Producer and consumer are separate processes; samples are exchanged
/// through signal-level valid/ready handshakes; the main thread performs
/// one multiply-accumulate per clock cycle.
pub fn run_beh_model(cfg: &SrcConfig, input: &[i16]) -> SimRun {
    let kernel = Kernel::new();
    let clk = kernel.clock("clk", CLOCK_PERIOD);
    let expected = crate::verify::GoldenVectors::generate(cfg, input.to_vec()).len();

    let in_data = kernel.signal("in_data", 0i16);
    let in_valid = kernel.signal("in_valid", false);
    let in_ready = kernel.signal("in_ready", false);
    let out_data = kernel.signal("out_data", 0i16);
    let out_valid = kernel.signal("out_valid", false);
    let out_ready = kernel.signal("out_ready", true);

    // The SRC main thread (the synthesisable behavioural style: clocked,
    // signal handshakes, explicit ring buffer, one tap per cycle).
    kernel.spawn("src.main", {
        let (k, clk) = (kernel.clone(), clk.clone());
        let (in_data, in_valid, in_ready) = (in_data.clone(), in_valid.clone(), in_ready.clone());
        let (out_data, out_valid, out_ready) =
            (out_data.clone(), out_valid.clone(), out_ready.clone());
        let rom = CoefficientRom::design(cfg);
        let cfg = cfg.clone();
        async move {
            // Type refinement (paper, Section 4.3): native types replaced
            // by explicit-width hardware types.
            use scflow_hwtypes::SInt;
            type Sample = SInt<{ SrcConfig::SAMPLE_BITS }>;
            type Acc = SInt<{ SrcConfig::ACC_BITS }>;

            let mut buf = [Sample::new(0); SrcConfig::BUFFER];
            let mut wptr = 0usize;
            let mut acc = 0u32;
            loop {
                let (new_acc, consume, phase) = cfg.advance(acc);
                acc = new_acc;
                for _ in 0..consume {
                    in_ready.write(true);
                    loop {
                        k.wait(clk.posedge()).await;
                        if in_valid.read() {
                            break;
                        }
                    }
                    buf[wptr] = Sample::new(i64::from(in_data.read()));
                    wptr = (wptr + 1) % SrcConfig::BUFFER;
                    in_ready.write(false);
                }
                let mut macc = Acc::new(0);
                for tap in 0..SrcConfig::TAPS {
                    k.wait(clk.posedge()).await; // one MAC per cycle
                    let idx = (wptr + SrcConfig::BUFFER - 1 - tap) % SrcConfig::BUFFER;
                    let c = rom.coefficient(phase, tap as u32);
                    let x: Acc = buf[idx].resize();
                    let prod = x * Acc::new(i64::from(c));
                    macc = macc + prod;
                }
                let y: Sample = (macc >> SrcConfig::COEF_FRAC_BITS).resize();
                out_data.write(y.value() as i16);
                out_valid.write(true);
                loop {
                    k.wait(clk.posedge()).await;
                    if out_ready.read() {
                        break;
                    }
                }
                out_valid.write(false);
            }
        }
    });

    // Producer: presents each sample at its (clock-quantised) arrival time
    // and holds it until accepted — the paper's Figure 7 time
    // quantisation.
    kernel.spawn("producer", {
        let (k, clk) = (kernel.clone(), clk.clone());
        let (in_data, in_valid, in_ready) = (in_data.clone(), in_valid.clone(), in_ready.clone());
        let input = input.to_vec();
        let in_period = cfg.in_period_ps();
        async move {
            for (n, s) in input.into_iter().enumerate() {
                let due = SimTime::from_ps((n as u64 + 1) * in_period);
                if due > k.now() {
                    k.wait_time(due - k.now()).await;
                }
                in_data.write(s);
                in_valid.write(true);
                loop {
                    k.wait(clk.posedge()).await;
                    if in_ready.read() {
                        break;
                    }
                }
                in_valid.write(false);
            }
        }
    });

    // Consumer: always ready, captures on valid.
    let collected: Rc<RefCell<Vec<i16>>> = Rc::new(RefCell::new(Vec::new()));
    let times: Rc<RefCell<Vec<SimTime>>> = Rc::new(RefCell::new(Vec::new()));
    kernel.spawn("consumer", {
        let (k, clk) = (kernel.clone(), clk.clone());
        let (out_data, out_valid) = (out_data.clone(), out_valid.clone());
        let (collected, times) = (collected.clone(), times.clone());
        async move {
            loop {
                k.wait(clk.posedge()).await;
                if out_valid.read() {
                    collected.borrow_mut().push(out_data.read());
                    times.borrow_mut().push(k.now());
                    if collected.borrow().len() == expected {
                        k.stop();
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

/// Builds the behavioural program for synthesis.
///
/// Both variants compute bit-identically; they differ in declared widths,
/// temporaries and (via [`beh_options`]) scheduling/allocation — the area
/// levers of the paper's Section 4.4.
pub fn beh_program(cfg: &SrcConfig, variant: BehVariant) -> BehProgram {
    let pessimistic = variant == BehVariant::Unoptimised;
    // Pessimistic accumulator/product widths (40) vs exact (36).
    let aw = if pessimistic {
        SrcConfig::ACC_BITS_PESSIMISTIC
    } else {
        SrcConfig::ACC_BITS
    };

    let mut p = ProgramBuilder::new(match variant {
        BehVariant::Unoptimised => "src_beh_unopt",
        BehVariant::Optimised => "src_beh_opt",
    });
    let in_port = p.input("in_sample", 16);
    let out_port = p.output("out_sample", 16);

    let rom = CoefficientRom::design(cfg);
    let coef_mem = p.memory(
        "coef_rom",
        16,
        rom.words()
            .iter()
            .map(|&c| Bv::from_i64(i64::from(c), 16))
            .collect(),
    );
    let buf_mem = p.memory("in_buf", 16, vec![Bv::zero(16); SrcConfig::BUFFER]);

    // Variables common to both revisions.
    let acc = p.var("acc", 24);
    let consume = p.var("consume", 2);
    let phase = p.var("phase", 5);
    let k = p.var("k", 5);
    let wptr = p.var("wptr", 5);
    let macc = p.var("macc", aw);

    if pessimistic {
        build_unopt_body(
            cfg,
            &mut p,
            in_port,
            out_port,
            coef_mem,
            buf_mem,
            Vars {
                acc,
                consume,
                phase,
                k,
                wptr,
                macc,
            },
        );
    } else {
        build_opt_body(
            cfg,
            &mut p,
            in_port,
            out_port,
            coef_mem,
            buf_mem,
            Vars {
                acc,
                consume,
                phase,
                k,
                wptr,
                macc,
            },
        );
    }
    p.build()
}

struct Vars {
    acc: scflow_synth::beh::VarId,
    consume: scflow_synth::beh::VarId,
    phase: scflow_synth::beh::VarId,
    k: scflow_synth::beh::VarId,
    wptr: scflow_synth::beh::VarId,
    macc: scflow_synth::beh::VarId,
}

/// The coefficient address `{p4, k4}` with the symmetry fold.
fn caddr_expr(
    b: &ProgramBuilder,
    phase: scflow_synth::beh::VarId,
    k: scflow_synth::beh::VarId,
) -> scflow_synth::beh::BExpr {
    let psel = b.v(phase).slice(4, 4);
    let p4 = psel
        .clone()
        .mux(b.v(phase).slice(3, 0).not(), b.v(phase).slice(3, 0));
    let k4 = psel.mux(b.v(k).slice(3, 0).not(), b.v(k).slice(3, 0));
    p4.concat(k4)
}

/// The ring-buffer read address `wrap(wptr + 23 - k)`.
fn buf_addr_expr(
    b: &ProgramBuilder,
    wptr: scflow_synth::beh::VarId,
    k: scflow_synth::beh::VarId,
) -> scflow_synth::beh::BExpr {
    let t = b
        .v(wptr)
        .zext(6)
        .add(b.lit(SrcConfig::BUFFER as u64 - 1, 6))
        .sub(b.v(k).zext(6));
    t.clone()
        .ult(b.lit(SrcConfig::BUFFER as u64, 6))
        .mux(t.clone(), t.sub(b.lit(SrcConfig::BUFFER as u64, 6)))
        .slice(4, 0)
}

/// The optimised revision after the paper's "intensive code cleanup":
/// minimal temporaries, chained expressions, memory operands fed straight
/// into the MAC.
fn build_opt_body(
    cfg: &SrcConfig,
    p: &mut ProgramBuilder,
    in_port: scflow_synth::beh::PortId,
    out_port: scflow_synth::beh::PortId,
    coef_mem: scflow_synth::beh::MemId,
    buf_mem: scflow_synth::beh::MemId,
    v: Vars,
) {
    const AW: u32 = SrcConfig::ACC_BITS;
    let x = p.var("x", 16);

    // Accumulator advance, chained without a wide temporary.
    let adv = p.v(v.acc).zext(26).add(p.lit(u64::from(cfg.step), 26));
    p.assign(v.consume, adv.clone().slice(25, 24));
    p.assign(v.acc, adv.slice(23, 0));
    p.assign(v.phase, p.v(v.acc).slice(23, 19));

    let consume_cond = p.v(v.consume).ne(p.lit(0, 2));
    p.while_loop(consume_cond, |b| {
        b.read(x, in_port);
        b.mem_write(buf_mem, b.v(v.wptr), b.v(x));
        let wrap = b
            .v(v.wptr)
            .eq(b.lit(SrcConfig::BUFFER as u64 - 1, 5))
            .mux(b.lit(0, 5), b.v(v.wptr).add(b.lit(1, 5)));
        b.assign(v.wptr, wrap);
        let dec = b.v(v.consume).sub(b.lit(1, 2));
        b.assign(v.consume, dec);
    });

    p.assign(v.macc, p.lit(0, AW));
    p.assign(v.k, p.lit(0, 5));
    let mac_cond = p.v(v.k).ne(p.lit(SrcConfig::TAPS as u64, 5));
    p.while_loop(mac_cond, |b| {
        // Operands straight from the memories into the shared MAC.
        let bx = b.mem_read(buf_mem, buf_addr_expr(b, v.wptr, v.k));
        let bc = b.mem_read(coef_mem, caddr_expr(b, v.phase, v.k));
        let sum = b.v(v.macc).add(bx.sext(AW).mul_signed(bc.sext(AW)));
        b.assign(v.macc, sum);
        let inc = b.v(v.k).add(b.lit(1, 5));
        b.assign(v.k, inc);
    });

    let y = p
        .v(v.macc)
        .sar(p.lit(u64::from(SrcConfig::COEF_FRAC_BITS), 6))
        .slice(15, 0);
    p.write(out_port, y);
}

/// The first synthesisable revision, straight from conservative
/// "cut-and-paste-and-refine": every intermediate value lands in its own
/// named temporary (each one a register under per-variable allocation),
/// operands are staged through capture chains, and widths are pessimistic.
fn build_unopt_body(
    cfg: &SrcConfig,
    p: &mut ProgramBuilder,
    in_port: scflow_synth::beh::PortId,
    out_port: scflow_synth::beh::PortId,
    coef_mem: scflow_synth::beh::MemId,
    buf_mem: scflow_synth::beh::MemId,
    v: Vars,
) {
    const AW: u32 = SrcConfig::ACC_BITS_PESSIMISTIC;
    let wide = p.var("wide", 26);
    let x = p.var("x", 16);
    let c = p.var("c", 16);
    let t_x = p.var("t_x", 16);
    let t_c = p.var("t_c", 16);
    let prod = p.var("prod", AW);
    let prod_r = p.var("prod_r", AW);
    let t_addr = p.var("t_addr", 6);
    let addr = p.var("addr", 5);
    let caddr = p.var("caddr", 8);
    let y_tmp = p.var("y_tmp", 16);

    let adv = p.v(v.acc).zext(26).add(p.lit(u64::from(cfg.step), 26));
    p.assign(wide, adv);
    p.assign(v.consume, p.v(wide).slice(25, 24));
    p.assign(v.acc, p.v(wide).slice(23, 0));
    p.assign(v.phase, p.v(v.acc).slice(23, 19));

    let consume_cond = p.v(v.consume).ne(p.lit(0, 2));
    p.while_loop(consume_cond, |b| {
        b.read(t_x, in_port);
        // Staged capture: the refined-not-rewritten code keeps the
        // intermediate hop from the old structure.
        let cap = b.v(t_x);
        b.assign(x, cap);
        b.mem_write(buf_mem, b.v(v.wptr), b.v(x));
        let wrap = b
            .v(v.wptr)
            .eq(b.lit(SrcConfig::BUFFER as u64 - 1, 5))
            .mux(b.lit(0, 5), b.v(v.wptr).add(b.lit(1, 5)));
        b.assign(v.wptr, wrap);
        let dec = b.v(v.consume).sub(b.lit(1, 2));
        b.assign(v.consume, dec);
    });

    p.assign(v.macc, p.lit(0, AW));
    p.assign(v.k, p.lit(0, 5));
    let mac_cond = p.v(v.k).ne(p.lit(SrcConfig::TAPS as u64, 5));
    p.while_loop(mac_cond, |b| {
        // Addresses through named temporaries.
        let t = b
            .v(v.wptr)
            .zext(6)
            .add(b.lit(SrcConfig::BUFFER as u64 - 1, 6))
            .sub(b.v(v.k).zext(6));
        b.assign(t_addr, t);
        let wrapped = b.v(t_addr).ult(b.lit(SrcConfig::BUFFER as u64, 6)).mux(
            b.v(t_addr),
            b.v(t_addr).sub(b.lit(SrcConfig::BUFFER as u64, 6)),
        );
        b.assign(t_addr, wrapped);
        let a5 = b.v(t_addr).slice(4, 0);
        b.assign(addr, a5);
        let ca = caddr_expr(b, v.phase, v.k);
        b.assign(caddr, ca);
        // Operand staging chain.
        let bx = b.mem_read(buf_mem, b.v(addr));
        b.assign(t_x, bx);
        let bc = b.mem_read(coef_mem, b.v(caddr));
        b.assign(t_c, bc);
        let tx = b.v(t_x);
        b.assign(x, tx);
        let tc = b.v(t_c);
        b.assign(c, tc);
        // Product double-staged before accumulation.
        let pr = b.v(x).sext(AW).mul_signed(b.v(c).sext(AW));
        b.assign(prod, pr);
        let prc = b.v(prod);
        b.assign(prod_r, prc);
        let sum = b.v(v.macc).add(b.v(prod_r));
        b.assign(v.macc, sum);
        let inc = b.v(v.k).add(b.lit(1, 5));
        b.assign(v.k, inc);
    });

    let y = p
        .v(v.macc)
        .sar(p.lit(u64::from(SrcConfig::COEF_FRAC_BITS), 6))
        .slice(15, 0);
    p.assign(y_tmp, y);
    let out = p.v(y_tmp);
    p.write(out_port, out);
}

/// The behavioural-synthesis options matching each variant.
pub fn beh_options(variant: BehVariant) -> BehOptions {
    match variant {
        BehVariant::Unoptimised => BehOptions {
            mode: SchedulingMode::Superstate,
            share_resources: true,
            merge_registers: false,
            max_mul_per_state: 1,
            // Conservative scheduling: one statement per step — every
            // intermediate lives in a register across control steps.
            max_add_per_state: 1,
            max_chain_depth: 1,
            pack_statements: false,
        },
        BehVariant::Optimised => BehOptions {
            mode: SchedulingMode::FixedCycle,
            share_resources: true,
            merge_registers: true,
            max_mul_per_state: 1,
            max_add_per_state: 3,
            max_chain_depth: 3,
            pack_statements: true,
        },
    }
}

/// Behavioural synthesis of the SRC:
/// `beh_program(cfg, variant)` compiled with `beh_options(variant)`.
///
/// # Errors
///
/// Propagates scheduling/binding errors from the behavioural synthesiser
/// (none occur for the shipped programs; the signature keeps the failure
/// path honest).
pub fn synthesize_beh_src(
    cfg: &SrcConfig,
    variant: BehVariant,
) -> Result<scflow_synth::beh::BehSynthOutput, SynthError> {
    scflow_synth::beh::synthesize_beh(&beh_program(cfg, variant), &beh_options(variant))
}
