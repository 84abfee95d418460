//! The series-production **VHDL reference implementation**.
//!
//! The paper's baseline "was created with the conventional flow of
//! manually recoding the given C specification in RTL VHDL"; the low-level
//! C specification "already guided the implementation to a specific
//! architecture". That architecture is reproduced here: a fully
//! registered three-stage MAC pipeline (address registers, operand
//! registers, accumulate), a registered output stage and the conservative
//! 40-bit accumulator — more registers than the refinement flow's RTL,
//! which is exactly where Figure 10 says the SystemC designs win.

use crate::coeffs::CoefficientRom;
use crate::config::SrcConfig;
use scflow_hwtypes::Bv;
use scflow_rtl::{Expr, Module, ModuleBuilder, RtlError};

const B: u64 = SrcConfig::BUFFER as u64;
const TAPS: u64 = SrcConfig::TAPS as u64;
const AW: u32 = SrcConfig::ACC_BITS_PESSIMISTIC;

/// Builds the VHDL-reference RTL (same port convention as the flow's
/// other synthesisable models).
///
/// # Errors
///
/// Propagates RTL validation errors (none occur for the shipped builder).
pub fn build_vhdl_ref(cfg: &SrcConfig) -> Result<Module, RtlError> {
    let rom = CoefficientRom::design(cfg);
    let mut b = ModuleBuilder::new("src_vhdl_ref");

    let in_data = b.input("in_sample", 16);
    let in_valid = b.input("in_sample_valid", 1);
    let out_ready = b.input("out_sample_ready", 1);

    // States: 0 ADV, 1 CON, 2 ADDR, 3 LOAD, 4 ACC, 5 PREP, 6 OUT.
    let state = b.reg("state", 3, Bv::zero(3));
    let acc = b.reg("acc", 24, Bv::zero(24));
    let consume = b.reg("consume", 2, Bv::zero(2));
    let phase = b.reg("phase", 5, Bv::zero(5));
    let k = b.reg("k", 5, Bv::zero(5));
    let macc = b.reg("macc", AW, Bv::zero(AW));
    let wptr = b.reg("wptr", 5, Bv::zero(5));
    // The architecture's registered pipeline stages.
    let addr_reg = b.reg("addr_reg", 5, Bv::zero(5));
    let caddr_reg = b.reg("caddr_reg", 8, Bv::zero(8));
    let x_reg = b.reg("x_reg", 16, Bv::zero(16));
    let c_reg = b.reg("c_reg", 16, Bv::zero(16));
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
    let st_addr = b.comb("st_addr", b.n(state).eq(Expr::lit(2, 3)));
    let st_load = b.comb("st_load", b.n(state).eq(Expr::lit(3, 3)));
    let st_acc = b.comb("st_acc", b.n(state).eq(Expr::lit(4, 3)));
    let st_prep = b.comb("st_prep", b.n(state).eq(Expr::lit(5, 3)));
    let st_out = b.comb("st_out", b.n(state).eq(Expr::lit(6, 3)));

    let wide = b.comb(
        "wide",
        b.n(acc).zext(26).add(Expr::lit(u64::from(cfg.step), 26)),
    );
    let wide_consume = b.comb("wide_consume", b.n(wide).slice(25, 24));
    let wide_acc = b.comb("wide_acc", b.n(wide).slice(23, 0));

    // Separate, unshared address arithmetic (the low-level C spec's
    // structure): buffer address and coefficient address each with their
    // own adder trees, registered before use.
    let t_raw = b.comb(
        "t_raw",
        b.n(wptr)
            .zext(6)
            .add(Expr::lit(B - 1, 6))
            .sub(b.n(k).zext(6)),
    );
    let buf_addr = b.comb(
        "buf_addr",
        b.n(t_raw)
            .ult(Expr::lit(B, 6))
            .mux(b.n(t_raw), b.n(t_raw).sub(Expr::lit(B, 6)))
            .slice(4, 0),
    );
    let psel = b.comb("psel", b.n(phase).slice(4, 4));
    let p4 = b.comb(
        "p4",
        b.n(psel)
            .mux(b.n(phase).slice(3, 0).not(), b.n(phase).slice(3, 0)),
    );
    let k4 = b.comb(
        "k4",
        b.n(psel).mux(b.n(k).slice(3, 0).not(), b.n(k).slice(3, 0)),
    );
    let coef_addr = b.comb("coef_addr", b.n(p4).concat(b.n(k4)));

    // Memory reads from the *registered* addresses.
    let x = b.comb("x", Expr::read_mem(buf, b.n(addr_reg), 16));
    let c = b.comb("c", Expr::read_mem(coef, b.n(caddr_reg), 16));
    let prod = b.comb("prod", b.n(x_reg).sext(AW).mul_signed(b.n(c_reg).sext(AW)));

    let accept = b.comb("accept", b.n(st_con).and(b.n(in_valid)));
    b.mem_write(buf, b.n(wptr), b.n(in_data), b.n(accept));

    // Register transfers.
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
    b.set_next(addr_reg, b.n(st_addr).mux(b.n(buf_addr), b.n(addr_reg)));
    b.set_next(caddr_reg, b.n(st_addr).mux(b.n(coef_addr), b.n(caddr_reg)));
    b.set_next(x_reg, b.n(st_load).mux(b.n(x), b.n(x_reg)));
    b.set_next(c_reg, b.n(st_load).mux(b.n(c), b.n(c_reg)));
    b.set_next(
        k,
        b.n(st_adv).mux(
            Expr::lit(0, 5),
            b.n(st_acc).mux(b.n(k).add(Expr::lit(1, 5)), b.n(k)),
        ),
    );
    b.set_next(
        macc,
        b.n(st_adv).mux(
            Expr::lit(0, AW),
            b.n(st_acc).mux(b.n(macc).add(b.n(prod)), b.n(macc)),
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
            .mux(Expr::lit(2, 3), Expr::lit(1, 3)),
    );
    let con_next = b.comb(
        "con_next",
        b.n(accept)
            .and(b.n(consume).eq(Expr::lit(1, 2)))
            .mux(Expr::lit(2, 3), Expr::lit(1, 3)),
    );
    let acc_next = b.comb(
        "acc_next",
        b.n(k)
            .eq(Expr::lit(TAPS - 1, 5))
            .mux(Expr::lit(5, 3), Expr::lit(2, 3)),
    );
    let out_next = b.comb(
        "out_next",
        b.n(out_ready).mux(Expr::lit(0, 3), Expr::lit(6, 3)),
    );
    b.set_next(
        state,
        b.n(st_adv).mux(
            b.n(adv_next),
            b.n(st_con).mux(
                b.n(con_next),
                b.n(st_addr).mux(
                    Expr::lit(3, 3),
                    b.n(st_load).mux(
                        Expr::lit(4, 3),
                        b.n(st_acc).mux(
                            b.n(acc_next),
                            b.n(st_prep).mux(Expr::lit(6, 3), b.n(out_next)),
                        ),
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
