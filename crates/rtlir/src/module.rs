//! The flat RTL module: nets, ports, combinational assigns, registers,
//! memories, plus validation and statistics.

use crate::error::RtlError;
use crate::expr::{Expr, OpCounts};
use scflow_hwtypes::Bv;
use std::collections::HashMap;

/// Index of a net within a [`Module`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct NetId(pub usize);

/// Index of a memory within a [`Module`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MemoryId(pub usize);

/// Port direction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PortDir {
    /// Driven by the environment.
    Input,
    /// Driven by the module.
    Output,
}

/// A top-level port, bound to a net.
#[derive(Clone, Debug)]
pub struct Port {
    /// Port name (same as the bound net's name).
    pub name: String,
    /// Direction.
    pub dir: PortDir,
    /// The bound net.
    pub net: NetId,
    /// Width in bits.
    pub width: u32,
}

/// A named net of a fixed width.
#[derive(Clone, Debug)]
pub struct Net {
    /// Net name (unique within the module).
    pub name: String,
    /// Width in bits.
    pub width: u32,
}

/// A clocked register.
///
/// All registers share the module's single implicit clock. When the
/// module's synchronous-reset input (if any) is asserted, the register
/// loads its `init` value.
#[derive(Clone, Debug)]
pub struct Register {
    /// The net carrying the register's output (Q).
    pub q: NetId,
    /// Next-value expression, sampled at the clock edge.
    pub next: Expr,
    /// Power-on / reset value.
    pub init: Bv,
}

/// A synchronous write port of a [`Memory`].
#[derive(Clone, Debug)]
pub struct WritePort {
    /// Write address.
    pub addr: Expr,
    /// Write data.
    pub data: Expr,
    /// Write enable (1 bit).
    pub enable: Expr,
}

/// A memory block: ROM (no write ports) or RAM.
///
/// Reads are combinational ([`Expr::ReadMem`]); writes commit at the clock
/// edge. Memories are excluded from synthesised area, as in the paper's
/// `report_area` methodology.
#[derive(Clone, Debug)]
pub struct Memory {
    /// Memory name.
    pub name: String,
    /// Data width in bits.
    pub width: u32,
    /// Initial contents; the length is the word count.
    pub init: Vec<Bv>,
    /// Synchronous write ports (empty for a ROM).
    pub write_ports: Vec<WritePort>,
}

impl Memory {
    /// Number of words.
    pub fn words(&self) -> usize {
        self.init.len()
    }

    /// `true` when the memory has no write ports.
    pub fn is_rom(&self) -> bool {
        self.write_ports.is_empty()
    }
}

/// A validated, flat RTL module.
///
/// Construct via [`crate::ModuleBuilder`]. The struct is immutable once
/// built; synthesis transforms produce new modules.
#[derive(Clone, Debug)]
pub struct Module {
    pub(crate) name: String,
    pub(crate) nets: Vec<Net>,
    pub(crate) ports: Vec<Port>,
    /// `comb[i]` drives net `comb_targets[i]`.
    pub(crate) comb_targets: Vec<NetId>,
    pub(crate) comb_exprs: Vec<Expr>,
    /// Topological evaluation order over indices into `comb_*`.
    pub(crate) comb_order: Vec<usize>,
    pub(crate) regs: Vec<Register>,
    pub(crate) mems: Vec<Memory>,
    pub(crate) net_index: HashMap<String, NetId>,
}

impl Module {
    /// The module name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All ports in declaration order.
    pub fn ports(&self) -> &[Port] {
        &self.ports
    }

    /// All nets.
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// All registers.
    pub fn registers(&self) -> &[Register] {
        &self.regs
    }

    /// All memories.
    pub fn memories(&self) -> &[Memory] {
        &self.mems
    }

    /// Combinational assignments as `(target, expr)` pairs.
    pub fn assigns(&self) -> impl Iterator<Item = (NetId, &Expr)> {
        self.comb_targets
            .iter()
            .copied()
            .zip(self.comb_exprs.iter())
    }

    /// The topological evaluation order computed at build time, as indices
    /// into the assignment list (the order [`Module::assigns`] yields).
    pub fn comb_evaluation_order(&self) -> &[usize] {
        &self.comb_order
    }

    /// Looks up a net by name.
    pub fn net_by_name(&self, name: &str) -> Option<NetId> {
        self.net_index.get(name).copied()
    }

    /// A stable 64-bit content hash over everything that affects
    /// simulation semantics: nets, ports, combinational assignments (in
    /// evaluation order), registers and memories.
    ///
    /// Two structurally equal modules hash equally regardless of the
    /// process that built them — the content address under which the
    /// simulation service shares one compiled
    /// [`CompiledProgram`](crate::CompiledProgram) across concurrent
    /// sessions. The (unordered) name index is deliberately excluded;
    /// expressions are folded via their canonical debug rendering, which
    /// spells out every operator, operand net and constant.
    pub fn stable_hash(&self) -> u64 {
        use scflow_hwtypes::Fnv64;
        let mut h = Fnv64::new();
        h.write_str("rtl-module-v1");
        h.write_str(&self.name);
        h.write_usize(self.nets.len());
        for n in &self.nets {
            h.write_str(&n.name);
            h.write_u32(n.width);
        }
        h.write_usize(self.ports.len());
        for p in &self.ports {
            h.write_str(&p.name);
            h.write_u8(match p.dir {
                PortDir::Input => 0,
                PortDir::Output => 1,
            });
            h.write_usize(p.net.0);
            h.write_u32(p.width);
        }
        h.write_usize(self.comb_targets.len());
        for (t, e) in self.comb_targets.iter().zip(&self.comb_exprs) {
            h.write_usize(t.0);
            h.write_str(&format!("{e:?}"));
        }
        h.write_usize(self.comb_order.len());
        for &i in &self.comb_order {
            h.write_usize(i);
        }
        h.write_usize(self.regs.len());
        for r in &self.regs {
            h.write_usize(r.q.0);
            h.write_str(&format!("{:?}", r.next));
            h.write_u64(r.init.as_u64());
            h.write_u32(r.init.width());
        }
        h.write_usize(self.mems.len());
        for m in &self.mems {
            h.write_str(&m.name);
            h.write_u32(m.width);
            h.write_usize(m.init.len());
            for w in &m.init {
                h.write_u64(w.as_u64());
            }
            h.write_usize(m.write_ports.len());
            for wp in &m.write_ports {
                h.write_str(&format!("{:?} {:?} {:?}", wp.addr, wp.data, wp.enable));
            }
        }
        h.finish()
    }

    /// [`stable_hash`](Self::stable_hash) extended with the pass
    /// configuration the module will be compiled under. Two sessions
    /// running the same design at different optimization levels must
    /// not share compiled programs or exchange snapshots, so the
    /// simulation service keys its caches on this hash rather than the
    /// bare structural one.
    pub fn stable_hash_with(&self, passes: &scflow_hwtypes::PassConfig) -> u64 {
        use scflow_hwtypes::Fnv64;
        let mut h = Fnv64::new();
        h.write_str("rtl-module-passes-v1");
        h.write_u64(self.stable_hash());
        h.write_u64(passes.stable_tag());
        h.finish()
    }

    /// The width of a net.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn net_width(&self, id: NetId) -> u32 {
        self.nets[id.0].width
    }

    /// The name of a net.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn net_name(&self, id: NetId) -> &str {
        &self.nets[id.0].name
    }

    /// Finds a port by name.
    pub fn port(&self, name: &str) -> Option<&Port> {
        self.ports.iter().find(|p| p.name == name)
    }

    /// Design statistics: register bits, operator counts, memory shape.
    ///
    /// These are the structural quantities that determine relative
    /// synthesised area in Figure 10.
    pub fn stats(&self) -> RtlStats {
        let mut ops = OpCounts::default();
        for e in &self.comb_exprs {
            e.count_ops(&mut ops);
        }
        for r in &self.regs {
            r.next.count_ops(&mut ops);
        }
        for m in &self.mems {
            for wp in &m.write_ports {
                wp.addr.count_ops(&mut ops);
                wp.data.count_ops(&mut ops);
                wp.enable.count_ops(&mut ops);
            }
        }
        RtlStats {
            nets: self.nets.len(),
            registers: self.regs.len(),
            register_bits: self.regs.iter().map(|r| self.net_width(r.q) as usize).sum(),
            memories: self.mems.len(),
            memory_bits: self.mems.iter().map(|m| m.words() * m.width as usize).sum(),
            ops,
        }
    }
}

/// Structural statistics of a [`Module`] (see [`Module::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RtlStats {
    /// Number of nets.
    pub nets: usize,
    /// Number of registers.
    pub registers: usize,
    /// Total register bits.
    pub register_bits: usize,
    /// Number of memory blocks.
    pub memories: usize,
    /// Total memory bits.
    pub memory_bits: usize,
    /// Combinational operator counts.
    pub ops: OpCounts,
}

/// Validates widths throughout an expression against the net table.
pub(crate) fn check_expr(
    nets: &[Net],
    mems: &[Memory],
    expr: &Expr,
    context: &str,
) -> Result<(), RtlError> {
    let fail = |msg: String| Err(RtlError::WidthMismatch(format!("{context}: {msg}")));
    match expr {
        Expr::Const(_) => Ok(()),
        Expr::Net(id, w) => {
            let net = nets
                .get(id.0)
                .ok_or_else(|| RtlError::UnknownNet(format!("{context}: net #{}", id.0)))?;
            if net.width != *w {
                return fail(format!(
                    "net {} is {} bits, referenced as {w}",
                    net.name, net.width
                ));
            }
            Ok(())
        }
        Expr::Unary(_, a) => check_expr(nets, mems, a, context),
        Expr::Binary(op, a, b) => {
            check_expr(nets, mems, a, context)?;
            check_expr(nets, mems, b, context)?;
            if !op.is_shift() && a.width() != b.width() {
                return fail(format!(
                    "{op:?} operands {} vs {} bits",
                    a.width(),
                    b.width()
                ));
            }
            Ok(())
        }
        Expr::Mux(c, t, e) => {
            check_expr(nets, mems, c, context)?;
            check_expr(nets, mems, t, context)?;
            check_expr(nets, mems, e, context)?;
            if c.width() != 1 {
                return fail(format!("mux condition is {} bits", c.width()));
            }
            if t.width() != e.width() {
                return fail(format!("mux arms {} vs {} bits", t.width(), e.width()));
            }
            Ok(())
        }
        Expr::Slice(a, hi, lo) => {
            check_expr(nets, mems, a, context)?;
            if hi < lo || *hi >= a.width() {
                return fail(format!("slice [{hi}:{lo}] of {} bits", a.width()));
            }
            Ok(())
        }
        Expr::Concat(a, b) => {
            check_expr(nets, mems, a, context)?;
            check_expr(nets, mems, b, context)?;
            if a.width() + b.width() > 64 {
                return fail("concat exceeds 64 bits".into());
            }
            Ok(())
        }
        Expr::Zext(a, w) | Expr::Sext(a, w) => {
            check_expr(nets, mems, a, context)?;
            if *w < 1 || *w > 64 {
                return fail(format!("extension to {w} bits"));
            }
            Ok(())
        }
        Expr::ReadMem(mid, addr, w) => {
            check_expr(nets, mems, addr, context)?;
            let m = mems
                .get(mid.0)
                .ok_or_else(|| RtlError::UnknownNet(format!("{context}: memory #{}", mid.0)))?;
            if m.width != *w {
                return fail(format!(
                    "memory {} is {} bits wide, read as {w}",
                    m.name, m.width
                ));
            }
            Ok(())
        }
    }
}
