//! Technology mapping: bit-blasting RTL expressions onto the cell library.
//!
//! Arithmetic uses the classical structural generators a gate-level
//! mapper would instantiate: ripple-carry adders/subtractors, array
//! multipliers, barrel shifters, comparator borrow chains and mux trees.
//! The resulting cell counts are what make relative area between design
//! variants meaningful.

use super::SynthError;
use scflow_gate::{CellKind, GNetId, GateNetlist, NetlistBuilder};
use scflow_rtl::{BinOp, Expr, Module, NetId, PortDir, UnaryOp};
use std::collections::HashMap;

pub(super) fn lower(module: &Module) -> Result<GateNetlist, SynthError> {
    Lowerer::new(module).run()
}

struct Lowerer<'m> {
    m: &'m Module,
    b: NetlistBuilder,
    bits: HashMap<NetId, Vec<GNetId>>,
    /// Per memory: pre-created dout bit nets.
    mem_dout: Vec<Vec<GNetId>>,
    /// Per memory: the lowered read-address bits, captured at the (single)
    /// read site.
    mem_raddr: Vec<Option<Vec<GNetId>>>,
}

impl<'m> Lowerer<'m> {
    fn new(m: &'m Module) -> Self {
        Lowerer {
            m,
            b: NetlistBuilder::new(m.name().to_owned()),
            bits: HashMap::new(),
            mem_dout: Vec::new(),
            mem_raddr: Vec::new(),
        }
    }

    fn run(mut self) -> Result<GateNetlist, SynthError> {
        // Memory dout nets first (read sites may appear anywhere).
        for mem in self.m.memories() {
            let dout = (0..mem.width)
                .map(|i| self.b.net(format!("{}_dout[{i}]", mem.name)))
                .collect();
            self.mem_dout.push(dout);
            self.mem_raddr.push(None);
        }

        // Input ports.
        for p in self.m.ports() {
            if p.dir == PortDir::Input {
                let bits = self.b.input_port(&p.name, p.width);
                self.bits.insert(p.net, bits);
            }
        }

        // Pre-create register Q nets so feedback works.
        for r in self.m.registers() {
            let w = self.m.net_width(r.q);
            let name = self.m.net_name(r.q).to_owned();
            let q: Vec<GNetId> = (0..w).map(|i| self.b.net(format!("{name}[{i}]"))).collect();
            self.bits.insert(r.q, q);
        }

        // Combinational assigns in topological order.
        #[allow(clippy::type_complexity)]
        let order: Vec<(NetId, Expr)> = {
            let assigns: Vec<(NetId, &Expr)> = self.m.assigns().collect();
            // Module stores a precomputed topological order over assigns.
            self.m
                .comb_evaluation_order()
                .iter()
                .map(|&i| (assigns[i].0, assigns[i].1.clone()))
                .collect()
        };
        for (target, expr) in order {
            let bits = self.lower_expr(&expr)?;
            self.bits.insert(target, bits);
        }

        // Registers: lower next exprs and close feedback.
        for r in self.m.registers() {
            let d = self.lower_expr(&r.next)?;
            let q = self.bits[&r.q].clone();
            for (i, (&dbit, &qbit)) in d.iter().zip(q.iter()).enumerate() {
                self.b.dff_onto(dbit, qbit, r.init.get(i as u32));
            }
        }

        // Memory macros: reads captured above, writes lowered now.
        for (mi, mem) in self.m.memories().iter().enumerate() {
            // A memory that is never read gets no read port.
            let raddr = self.mem_raddr[mi].take().unwrap_or_default();
            let (waddr, wdata, wen) = match mem.write_ports.len() {
                0 => (Vec::new(), Vec::new(), None),
                1 => {
                    let wp = &mem.write_ports[0];
                    let waddr = self.lower_expr(&wp.addr)?;
                    let wdata = self.lower_expr(&wp.data)?;
                    let wen = self.lower_expr(&wp.enable)?[0];
                    (waddr, wdata, Some(wen))
                }
                n => {
                    return Err(SynthError::Unsupported(format!(
                        "memory {} has {n} write ports (max 1)",
                        mem.name
                    )))
                }
            };
            let dout = self.mem_dout[mi].clone();
            self.b.memory_onto(
                &mem.name,
                mem.width,
                mem.init.clone(),
                raddr,
                dout,
                waddr,
                wdata,
                wen,
            );
        }

        // Output ports.
        for p in self.m.ports() {
            if p.dir == PortDir::Output {
                let bits = self.bits[&p.net].clone();
                self.b.output_port(&p.name, &bits);
            }
        }

        Ok(self.b.build())
    }

    fn const_bits(&mut self, bits: u64, width: u32) -> Vec<GNetId> {
        (0..width)
            .map(|i| {
                if (bits >> i) & 1 == 1 {
                    self.b.const1()
                } else {
                    self.b.const0()
                }
            })
            .collect()
    }

    fn lower_expr(&mut self, e: &Expr) -> Result<Vec<GNetId>, SynthError> {
        Ok(match e {
            Expr::Const(v) => self.const_bits(v.as_u64(), v.width()),
            Expr::Net(id, _) => self.bits[id].clone(),
            Expr::Unary(op, a) => {
                let a = self.lower_expr(a)?;
                match op {
                    UnaryOp::Not => a
                        .iter()
                        .map(|&b| self.b.cell(CellKind::Inv, &[b]))
                        .collect(),
                    UnaryOp::Neg => {
                        // ~a + 1
                        let inv: Vec<GNetId> = a
                            .iter()
                            .map(|&b| self.b.cell(CellKind::Inv, &[b]))
                            .collect();
                        let one = self.const_bits(1, inv.len() as u32);
                        self.ripple_add(&inv, &one, self.b.const0()).0
                    }
                    UnaryOp::RedAnd => vec![self.reduce(CellKind::And2, &a)],
                    UnaryOp::RedOr => vec![self.reduce(CellKind::Or2, &a)],
                    UnaryOp::RedXor => vec![self.reduce(CellKind::Xor2, &a)],
                }
            }
            Expr::Binary(op, a, b) => {
                let av = self.lower_expr(a)?;
                let bv = self.lower_expr(b)?;
                match op {
                    BinOp::Add => self.ripple_add(&av, &bv, self.b.const0()).0,
                    BinOp::Sub => {
                        let nb: Vec<GNetId> = bv
                            .iter()
                            .map(|&x| self.b.cell(CellKind::Inv, &[x]))
                            .collect();
                        self.ripple_add(&av, &nb, self.b.const1()).0
                    }
                    // Low-bits of signed and unsigned products are equal at
                    // matched operand/result widths, so one array serves.
                    BinOp::Mul | BinOp::MulS => self.array_mul(&av, &bv),
                    BinOp::And => self.bitwise(CellKind::And2, &av, &bv),
                    BinOp::Or => self.bitwise(CellKind::Or2, &av, &bv),
                    BinOp::Xor => self.bitwise(CellKind::Xor2, &av, &bv),
                    BinOp::Shl => self.barrel(&av, &bv, ShiftKind::Left),
                    BinOp::Shr => self.barrel(&av, &bv, ShiftKind::RightLogic),
                    BinOp::Sar => self.barrel(&av, &bv, ShiftKind::RightArith),
                    BinOp::Eq => {
                        let diffs = self.bitwise(CellKind::Xor2, &av, &bv);
                        let any = self.reduce(CellKind::Or2, &diffs);
                        vec![self.b.cell(CellKind::Inv, &[any])]
                    }
                    BinOp::Ne => {
                        let diffs = self.bitwise(CellKind::Xor2, &av, &bv);
                        vec![self.reduce(CellKind::Or2, &diffs)]
                    }
                    BinOp::Ult => vec![self.unsigned_lt(&av, &bv)],
                    BinOp::Ule => {
                        let gt = self.unsigned_lt(&bv, &av);
                        vec![self.b.cell(CellKind::Inv, &[gt])]
                    }
                    BinOp::Slt => vec![self.signed_lt(&av, &bv)],
                    BinOp::Sle => {
                        let gt = self.signed_lt(&bv, &av);
                        vec![self.b.cell(CellKind::Inv, &[gt])]
                    }
                }
            }
            Expr::Mux(c, t, alt) => {
                let c = self.lower_expr(c)?[0];
                let t = self.lower_expr(t)?;
                let alt = self.lower_expr(alt)?;
                t.iter()
                    .zip(alt.iter())
                    .map(|(&tb, &eb)| self.b.cell(CellKind::Mux2, &[eb, tb, c]))
                    .collect()
            }
            Expr::Slice(a, hi, lo) => {
                let a = self.lower_expr(a)?;
                a[*lo as usize..=*hi as usize].to_vec()
            }
            Expr::Concat(hi, lo) => {
                let h = self.lower_expr(hi)?;
                let mut l = self.lower_expr(lo)?;
                l.extend(h);
                l
            }
            Expr::Zext(a, w) => {
                let mut a = self.lower_expr(a)?;
                a.truncate(*w as usize);
                while a.len() < *w as usize {
                    a.push(self.b.const0());
                }
                a
            }
            Expr::Sext(a, w) => {
                let mut a = self.lower_expr(a)?;
                let msb = *a.last().expect("non-empty");
                a.truncate(*w as usize);
                while a.len() < *w as usize {
                    a.push(msb);
                }
                a
            }
            Expr::ReadMem(mid, addr, _) => {
                let a = self.lower_expr(addr)?;
                if self.mem_raddr[mid.0].is_some() {
                    return Err(SynthError::Unsupported(format!(
                        "memory {} is read at more than one site; route reads \
                         through a single combinational net",
                        self.m.memories()[mid.0].name
                    )));
                }
                self.mem_raddr[mid.0] = Some(a);
                self.mem_dout[mid.0].clone()
            }
        })
    }

    fn bitwise(&mut self, kind: CellKind, a: &[GNetId], b: &[GNetId]) -> Vec<GNetId> {
        a.iter()
            .zip(b.iter())
            .map(|(&x, &y)| self.b.cell(kind, &[x, y]))
            .collect()
    }

    fn reduce(&mut self, kind: CellKind, bits: &[GNetId]) -> GNetId {
        assert!(!bits.is_empty());
        let mut layer = bits.to_vec();
        while layer.len() > 1 {
            let mut next = Vec::with_capacity(layer.len().div_ceil(2));
            for pair in layer.chunks(2) {
                next.push(if pair.len() == 2 {
                    self.b.cell(kind, &[pair[0], pair[1]])
                } else {
                    pair[0]
                });
            }
            layer = next;
        }
        layer[0]
    }

    /// Full-adder cell from basic gates; returns (sum, carry).
    fn full_adder(&mut self, a: GNetId, b: GNetId, cin: GNetId) -> (GNetId, GNetId) {
        let axb = self.b.cell(CellKind::Xor2, &[a, b]);
        let sum = self.b.cell(CellKind::Xor2, &[axb, cin]);
        let t1 = self.b.cell(CellKind::And2, &[axb, cin]);
        let t2 = self.b.cell(CellKind::And2, &[a, b]);
        let cout = self.b.cell(CellKind::Or2, &[t1, t2]);
        (sum, cout)
    }

    /// Ripple-carry addition; returns (sum bits, carry out).
    fn ripple_add(&mut self, a: &[GNetId], b: &[GNetId], cin: GNetId) -> (Vec<GNetId>, GNetId) {
        assert_eq!(a.len(), b.len());
        let mut carry = cin;
        let mut sum = Vec::with_capacity(a.len());
        for (&x, &y) in a.iter().zip(b.iter()) {
            let (s, c) = self.full_adder(x, y, carry);
            sum.push(s);
            carry = c;
        }
        (sum, carry)
    }

    /// Truncated array multiplier: result has the width of the operands.
    fn array_mul(&mut self, a: &[GNetId], b: &[GNetId]) -> Vec<GNetId> {
        assert_eq!(a.len(), b.len());
        let w = a.len();
        // acc starts as the first partial product.
        let mut acc: Vec<GNetId> = a
            .iter()
            .map(|&x| self.b.cell(CellKind::And2, &[x, b[0]]))
            .collect();
        for (i, &b_bit) in b.iter().enumerate().skip(1) {
            // partial product row i: (a << i) & b[i], truncated to w bits
            let mut pp: Vec<GNetId> = vec![self.b.const0(); i];
            for &a_bit in &a[..w - i] {
                pp.push(self.b.cell(CellKind::And2, &[a_bit, b_bit]));
            }
            acc = self.ripple_add(&acc, &pp, self.b.const0()).0;
        }
        acc
    }

    /// Unsigned a < b via the borrow of a - b.
    fn unsigned_lt(&mut self, a: &[GNetId], b: &[GNetId]) -> GNetId {
        let nb: Vec<GNetId> = b
            .iter()
            .map(|&x| self.b.cell(CellKind::Inv, &[x]))
            .collect();
        let (_, cout) = self.ripple_add(a, &nb, self.b.const1());
        self.b.cell(CellKind::Inv, &[cout])
    }

    /// Signed a < b: sign of (a - b) corrected for overflow.
    fn signed_lt(&mut self, a: &[GNetId], b: &[GNetId]) -> GNetId {
        let nb: Vec<GNetId> = b
            .iter()
            .map(|&x| self.b.cell(CellKind::Inv, &[x]))
            .collect();
        let (diff, _) = self.ripple_add(a, &nb, self.b.const1());
        let a_msb = *a.last().expect("non-empty");
        let b_msb = *b.last().expect("non-empty");
        let d_msb = *diff.last().expect("non-empty");
        // overflow = (a_msb ^ b_msb) & (a_msb ^ d_msb); lt = d_msb ^ ov
        let signs_differ = self.b.cell(CellKind::Xor2, &[a_msb, b_msb]);
        let flipped = self.b.cell(CellKind::Xor2, &[a_msb, d_msb]);
        let ov = self.b.cell(CellKind::And2, &[signs_differ, flipped]);
        self.b.cell(CellKind::Xor2, &[d_msb, ov])
    }

    fn barrel(&mut self, a: &[GNetId], amount: &[GNetId], kind: ShiftKind) -> Vec<GNetId> {
        let w = a.len();
        let stages = (usize::BITS - (w - 1).leading_zeros()).max(1); // ceil(log2(w))
        let fill = match kind {
            ShiftKind::Left | ShiftKind::RightLogic => self.b.const0(),
            ShiftKind::RightArith => *a.last().expect("non-empty"),
        };
        let mut cur = a.to_vec();
        for s in 0..stages as usize {
            let Some(&sel) = amount.get(s) else { break };
            let dist = 1usize << s;
            let shifted: Vec<GNetId> = (0..w)
                .map(|i| match kind {
                    ShiftKind::Left => {
                        if i >= dist {
                            cur[i - dist]
                        } else {
                            fill
                        }
                    }
                    ShiftKind::RightLogic | ShiftKind::RightArith => {
                        if i + dist < w {
                            cur[i + dist]
                        } else {
                            fill
                        }
                    }
                })
                .collect();
            cur = cur
                .iter()
                .zip(shifted.iter())
                .map(|(&keep, &sh)| self.b.cell(CellKind::Mux2, &[keep, sh, sel]))
                .collect();
        }
        // Oversized amounts (bits beyond the stages) force the fill value.
        if amount.len() > stages as usize {
            let extra = &amount[stages as usize..];
            let any = self.reduce(CellKind::Or2, extra);
            cur = cur
                .iter()
                .map(|&bit| self.b.cell(CellKind::Mux2, &[bit, fill, any]))
                .collect();
        }
        cur
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum ShiftKind {
    Left,
    RightLogic,
    RightArith,
}
