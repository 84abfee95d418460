//! Builder and structural validation for RTL modules.

use crate::error::RtlError;
use crate::expr::Expr;
use crate::module::{
    check_expr, Memory, MemoryId, Module, Net, NetId, Port, PortDir, Register, WritePort,
};
use scflow_hwtypes::Bv;
use std::collections::HashMap;

/// Builds a [`Module`] incrementally, then validates it with
/// [`build`](ModuleBuilder::build).
///
/// Validation enforces the invariants a synthesisable netlist needs:
/// unique net names, exactly one driver per net, register `next`
/// expressions present, width-consistent expressions, and acyclic
/// combinational logic.
///
/// See the [crate-level example](crate) for typical usage.
pub struct ModuleBuilder {
    name: String,
    nets: Vec<Net>,
    ports: Vec<Port>,
    assigns: Vec<(NetId, Expr)>,
    regs: Vec<(NetId, Option<Expr>, Bv)>,
    mems: Vec<Memory>,
    net_index: HashMap<String, NetId>,
    errors: Vec<RtlError>,
}

impl ModuleBuilder {
    /// Starts a new module.
    pub fn new(name: impl Into<String>) -> Self {
        ModuleBuilder {
            name: name.into(),
            nets: Vec::new(),
            ports: Vec::new(),
            assigns: Vec::new(),
            regs: Vec::new(),
            mems: Vec::new(),
            net_index: HashMap::new(),
            errors: Vec::new(),
        }
    }

    fn add_net(&mut self, name: String, width: u32) -> NetId {
        let id = NetId(self.nets.len());
        if self.net_index.insert(name.clone(), id).is_some() {
            self.errors.push(RtlError::DuplicateNet(name.clone()));
        }
        self.nets.push(Net { name, width });
        id
    }

    /// Declares an input port and returns its net.
    pub fn input(&mut self, name: impl Into<String>, width: u32) -> NetId {
        let name = name.into();
        let net = self.add_net(name.clone(), width);
        self.ports.push(Port {
            name,
            dir: PortDir::Input,
            net,
            width,
        });
        net
    }

    /// Declares an output port driven by `expr` and returns its net.
    pub fn output(&mut self, name: impl Into<String>, expr: Expr) -> NetId {
        let name = name.into();
        let width = expr.width();
        let net = self.add_net(name.clone(), width);
        self.ports.push(Port {
            name,
            dir: PortDir::Output,
            net,
            width,
        });
        self.assigns.push((net, expr));
        net
    }

    /// Declares an internal net driven combinationally by `expr`.
    pub fn comb(&mut self, name: impl Into<String>, expr: Expr) -> NetId {
        let net = self.add_net(name.into(), expr.width());
        self.assigns.push((net, expr));
        net
    }

    /// Declares a forward wire to be driven later with
    /// [`drive`](ModuleBuilder::drive) (for structures whose consumers are
    /// built before their driver, e.g. shared functional units).
    pub fn wire(&mut self, name: impl Into<String>, width: u32) -> NetId {
        self.add_net(name.into(), width)
    }

    /// Drives a forward wire declared with [`wire`](ModuleBuilder::wire).
    ///
    /// Validation at [`build`](ModuleBuilder::build) still enforces the
    /// single-driver rule and width consistency.
    pub fn drive(&mut self, wire: NetId, expr: Expr) {
        self.assigns.push((wire, expr));
    }

    /// Declares a register with reset/power-on value `init`; set its input
    /// later with [`set_next`](ModuleBuilder::set_next). Returns the net
    /// carrying the register output (Q).
    pub fn reg(&mut self, name: impl Into<String>, width: u32, init: Bv) -> NetId {
        let net = self.add_net(name.into(), width);
        self.regs.push((net, None, init.zext(width)));
        net
    }

    /// Sets the next-value expression of a register declared with
    /// [`reg`](ModuleBuilder::reg).
    ///
    /// The expression is sampled at every clock edge; build a mux with the
    /// register's own value for "hold" behaviour.
    pub fn set_next(&mut self, reg: NetId, next: Expr) {
        match self.regs.iter_mut().find(|(q, _, _)| *q == reg) {
            Some(slot) => {
                if slot.1.is_some() {
                    self.errors
                        .push(RtlError::MultipleDrivers(self.nets[reg.0].name.clone()));
                }
                slot.1 = Some(next);
            }
            None => self.errors.push(RtlError::UnknownNet(format!(
                "set_next on non-register #{}",
                reg.0
            ))),
        }
    }

    /// Declares a memory block with initial contents. The word count is
    /// `init.len()`.
    ///
    /// # Panics
    ///
    /// Panics if `init` is empty.
    pub fn memory(&mut self, name: impl Into<String>, width: u32, init: Vec<Bv>) -> MemoryId {
        assert!(!init.is_empty(), "memory must have at least one word");
        let id = MemoryId(self.mems.len());
        self.mems.push(Memory {
            name: name.into(),
            width,
            init: init.into_iter().map(|w| w.zext(width)).collect(),
            write_ports: Vec::new(),
        });
        id
    }

    /// Declares a ROM initialised with zero-extended raw words.
    pub fn rom(&mut self, name: impl Into<String>, width: u32, words: &[u64]) -> MemoryId {
        self.memory(
            name,
            width,
            words.iter().map(|&w| Bv::new(w, width.max(1))).collect(),
        )
    }

    /// Adds a synchronous write port to a memory.
    pub fn mem_write(&mut self, mem: MemoryId, addr: Expr, data: Expr, enable: Expr) {
        self.mems[mem.0]
            .write_ports
            .push(WritePort { addr, data, enable });
    }

    /// The width of a previously declared net.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn width_of(&self, id: NetId) -> u32 {
        self.nets[id.0].width
    }

    /// Shorthand for `Expr::net(id, width_of(id))`.
    pub fn n(&self, id: NetId) -> Expr {
        Expr::net(id, self.width_of(id))
    }

    /// Validates and finalises the module.
    ///
    /// # Errors
    ///
    /// Returns the first structural error found: duplicate names, multiple
    /// or missing drivers, missing register inputs, width mismatches, or
    /// combinational cycles.
    pub fn build(self) -> Result<Module, RtlError> {
        let ModuleBuilder {
            name,
            nets,
            ports,
            assigns,
            regs,
            mems,
            net_index,
            errors,
        } = self;

        if let Some(e) = errors.into_iter().next() {
            return Err(e);
        }

        // Exactly one driver per net.
        let mut driver_count = vec![0usize; nets.len()];
        for p in &ports {
            if p.dir == PortDir::Input {
                driver_count[p.net.0] += 1;
            }
        }
        for (t, _) in &assigns {
            driver_count[t.0] += 1;
        }
        let mut registers = Vec::with_capacity(regs.len());
        for (q, next, init) in regs {
            driver_count[q.0] += 1;
            let next = next.ok_or_else(|| RtlError::MissingNext(nets[q.0].name.clone()))?;
            registers.push(Register { q, next, init });
        }
        for (i, c) in driver_count.iter().enumerate() {
            match c {
                0 => return Err(RtlError::Undriven(nets[i].name.clone())),
                1 => {}
                _ => return Err(RtlError::MultipleDrivers(nets[i].name.clone())),
            }
        }

        // Width checks on every expression.
        for (t, e) in &assigns {
            check_expr(&nets, &mems, e, &nets[t.0].name)?;
            if e.width() != nets[t.0].width {
                return Err(RtlError::WidthMismatch(format!(
                    "assign to {} ({} bits) from {} bits",
                    nets[t.0].name,
                    nets[t.0].width,
                    e.width()
                )));
            }
        }
        for r in &registers {
            check_expr(&nets, &mems, &r.next, &nets[r.q.0].name)?;
            if r.next.width() != nets[r.q.0].width {
                return Err(RtlError::WidthMismatch(format!(
                    "register {} ({} bits) next is {} bits",
                    nets[r.q.0].name,
                    nets[r.q.0].width,
                    r.next.width()
                )));
            }
        }
        for m in &mems {
            for wp in &m.write_ports {
                let ctx = &m.name;
                check_expr(&nets, &mems, &wp.addr, ctx)?;
                check_expr(&nets, &mems, &wp.data, ctx)?;
                check_expr(&nets, &mems, &wp.enable, ctx)?;
                if wp.data.width() != m.width {
                    return Err(RtlError::WidthMismatch(format!(
                        "write to {} ({} bits) with {} bits",
                        m.name,
                        m.width,
                        wp.data.width()
                    )));
                }
                if wp.enable.width() != 1 {
                    return Err(RtlError::WidthMismatch(format!(
                        "write enable of {} is {} bits",
                        m.name,
                        wp.enable.width()
                    )));
                }
            }
        }

        // Topological order of combinational assigns (Kahn's algorithm).
        let mut assign_of_net: HashMap<NetId, usize> = HashMap::new();
        for (i, (t, _)) in assigns.iter().enumerate() {
            assign_of_net.insert(*t, i);
        }
        let n_assigns = assigns.len();
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n_assigns];
        let mut in_degree = vec![0usize; n_assigns];
        for (j, (_, e)) in assigns.iter().enumerate() {
            let mut deps = Vec::new();
            e.for_each_net(&mut |id| {
                if let Some(&i) = assign_of_net.get(&id) {
                    deps.push(i);
                }
            });
            deps.sort_unstable();
            deps.dedup();
            for i in deps {
                dependents[i].push(j);
                in_degree[j] += 1;
            }
        }
        let mut order = Vec::with_capacity(n_assigns);
        let mut ready: Vec<usize> = (0..n_assigns).filter(|&i| in_degree[i] == 0).collect();
        while let Some(i) = ready.pop() {
            order.push(i);
            for &j in &dependents[i] {
                in_degree[j] -= 1;
                if in_degree[j] == 0 {
                    ready.push(j);
                }
            }
        }
        if order.len() != n_assigns {
            let stuck = (0..n_assigns)
                .find(|&i| in_degree[i] > 0)
                .expect("cycle exists");
            return Err(RtlError::CombCycle(nets[assigns[stuck].0 .0].name.clone()));
        }

        let (comb_targets, comb_exprs): (Vec<_>, Vec<_>) = assigns.into_iter().unzip();
        Ok(Module {
            name,
            nets,
            ports,
            comb_targets,
            comb_exprs,
            comb_order: order,
            regs: registers,
            mems,
            net_index,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_net_rejected() {
        let mut b = ModuleBuilder::new("m");
        b.input("x", 1);
        b.input("x", 1);
        assert!(matches!(b.build(), Err(RtlError::DuplicateNet(_))));
    }

    #[test]
    fn undriven_net_rejected() {
        let mut b = ModuleBuilder::new("m");
        let r = b.reg("r", 4, Bv::zero(4));
        // forgot set_next
        let _ = b.output("q", Expr::net(r, 4));
        assert!(matches!(b.build(), Err(RtlError::MissingNext(_))));
    }

    #[test]
    fn width_mismatch_rejected() {
        let mut b = ModuleBuilder::new("m");
        let a = b.input("a", 4);
        let c = b.input("c", 8);
        b.output("y", Expr::net(a, 4).add(Expr::net(c, 8)));
        assert!(matches!(b.build(), Err(RtlError::WidthMismatch(_))));
    }

    #[test]
    fn wrong_net_width_reference_rejected() {
        let mut b = ModuleBuilder::new("m");
        let a = b.input("a", 4);
        b.output("y", Expr::net(a, 8)); // lies about width
        assert!(matches!(b.build(), Err(RtlError::WidthMismatch(_))));
    }

    #[test]
    fn comb_cycle_rejected() {
        let mut b = ModuleBuilder::new("m");
        // y = z; z = y  (both internal)
        let y = b.add_net("y".into(), 1);
        let z = b.add_net("z".into(), 1);
        b.assigns.push((y, Expr::net(z, 1)));
        b.assigns.push((z, Expr::net(y, 1)));
        assert!(matches!(b.build(), Err(RtlError::CombCycle(_))));
    }

    #[test]
    fn valid_module_builds_with_topo_order() {
        let mut b = ModuleBuilder::new("m");
        let a = b.input("a", 8);
        // Declare dependent before dependency to force real sorting:
        // y depends on t, t depends on a.
        // builder-order: y first.
        let t_expr = Expr::net(a, 8).add(Expr::lit(1, 8));
        // create t net first so y can reference, but push y's assign first
        let t = b.add_net("t".into(), 8);
        let y = b.add_net("y".into(), 8);
        b.assigns.push((y, Expr::net(t, 8).mul(Expr::lit(2, 8))));
        b.assigns.push((t, t_expr));
        b.ports.push(Port {
            name: "y".into(),
            dir: PortDir::Output,
            net: y,
            width: 8,
        });
        let m = b.build().expect("valid");
        // t's assign (index 1) must come before y's (index 0).
        let pos = |i: usize| m.comb_order.iter().position(|&x| x == i).unwrap();
        assert!(pos(1) < pos(0));
    }

    #[test]
    fn stats_counts_registers_and_ops() {
        let mut b = ModuleBuilder::new("m");
        let a = b.input("a", 8);
        let r = b.reg("r", 8, Bv::zero(8));
        b.set_next(r, b.n(r).add(b.n(a)));
        b.output("q", b.n(r));
        let m = b.build().expect("valid");
        let s = m.stats();
        assert_eq!(s.registers, 1);
        assert_eq!(s.register_bits, 8);
        assert_eq!(s.ops.arith, 1);
    }
}
