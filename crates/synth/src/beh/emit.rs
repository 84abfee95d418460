//! Emission: FSM + datapath RTL from a schedule and an allocation.

use super::alloc::Allocation;
use super::ir::{BExpr, BehProgram, PortDir};
use super::sched::{Io, Next, Schedule};
use super::{BehOptions, BehReport, BehSynthOutput, SchedulingMode};
use crate::SynthError;
use scflow_hwtypes::{bits_for, Bv};
use scflow_rtl::{Expr, MemoryId, ModuleBuilder, NetId};
use std::collections::HashMap;

pub(super) fn emit(
    program: &BehProgram,
    schedule: &Schedule,
    alloc: &Allocation,
    opts: &BehOptions,
) -> Result<BehSynthOutput, SynthError> {
    let mut e = Emitter::new(program, schedule, alloc, opts);
    e.run()
}

struct Emitter<'a> {
    p: &'a BehProgram,
    s: &'a Schedule,
    alloc: &'a Allocation,
    opts: &'a BehOptions,
    b: ModuleBuilder,
    sbits: u32,
    state_net: NetId,
    st_eq: Vec<NetId>,
    reg_net: Vec<NetId>,
    in_data: HashMap<usize, NetId>,
    in_valid: HashMap<usize, NetId>,
    out_ready: HashMap<usize, NetId>,
    // Shared multiplier.
    mul_wire: Option<(NetId, u32)>,
    mul_sites: Vec<(usize, Expr, Expr)>,
    // Memories (always a single shared read site each).
    mems_rtl: Vec<MemoryId>,
    mem_rdata: Vec<NetId>,
    mem_read_sites: Vec<Vec<(usize, Expr)>>,
    cur_state: usize,
}

impl<'a> Emitter<'a> {
    fn new(
        p: &'a BehProgram,
        s: &'a Schedule,
        alloc: &'a Allocation,
        opts: &'a BehOptions,
    ) -> Self {
        let nstates = s.states.len().max(1);
        let sbits = bits_for((nstates - 1) as u64);
        Emitter {
            p,
            s,
            alloc,
            opts,
            b: ModuleBuilder::new(p.name.clone()),
            sbits,
            state_net: NetId(0),
            st_eq: Vec::new(),
            reg_net: Vec::new(),
            in_data: HashMap::new(),
            in_valid: HashMap::new(),
            out_ready: HashMap::new(),
            mul_wire: None,
            mul_sites: Vec::new(),
            mems_rtl: Vec::new(),
            mem_rdata: Vec::new(),
            mem_read_sites: vec![Vec::new(); p.mems.len()],
            cur_state: 0,
        }
    }

    fn run(&mut self) -> Result<BehSynthOutput, SynthError> {
        self.declare_ports();
        self.declare_state_machine();
        self.declare_registers();
        self.declare_memories();
        self.declare_shared_multiplier();

        // Translate all state content, collecting shared-unit sites and
        // per-register transfer lists.
        let mut reg_actions: Vec<Vec<(usize, Expr, Option<Expr>)>> =
            vec![Vec::new(); self.alloc.register_count()];
        let mut out_sites: HashMap<usize, Vec<(usize, Expr)>> = HashMap::new();
        let mut in_read_states: HashMap<usize, Vec<usize>> = HashMap::new();
        let mut mem_write_sites: Vec<Vec<(usize, Expr, Expr)>> =
            vec![Vec::new(); self.p.mems.len()];
        let mut transitions: Vec<Expr> = Vec::with_capacity(self.s.states.len());

        for (si, st) in self.s.states.iter().enumerate() {
            self.cur_state = si;
            for (v, e) in &st.actions {
                let te = self.tx(e);
                reg_actions[self.alloc.reg_of[v.0]].push((si, te, None));
            }
            for (m, a, d) in &st.mem_writes {
                let ta = self.tx(a);
                let td = self.tx(d);
                mem_write_sites[m.0].push((si, ta, td));
            }
            match &st.io {
                Some(Io::Read(v, port)) => {
                    let data = Expr::net(self.in_data[&port.0], self.p.ports[port.0].width);
                    let gate = match self.opts.mode {
                        SchedulingMode::Superstate => Some(Expr::net(self.in_valid[&port.0], 1)),
                        SchedulingMode::FixedCycle => None,
                    };
                    reg_actions[self.alloc.reg_of[v.0]].push((si, data, gate));
                    in_read_states.entry(port.0).or_default().push(si);
                }
                Some(Io::Write(port, e)) => {
                    let te = self.tx(e);
                    out_sites.entry(port.0).or_default().push((si, te));
                }
                None => {}
            }
            // Transition expression for this state.
            let trans = match &st.next {
                Next::Goto(t) => {
                    let target = self.state_lit(*t);
                    match (&st.io, self.opts.mode) {
                        (Some(Io::Read(_, port)), SchedulingMode::Superstate) => {
                            Expr::net(self.in_valid[&port.0], 1).mux(target, self.state_lit(si))
                        }
                        (Some(Io::Write(port, _)), SchedulingMode::Superstate) => {
                            Expr::net(self.out_ready[&port.0], 1).mux(target, self.state_lit(si))
                        }
                        _ => target,
                    }
                }
                Next::Branch { cond, then, els } => {
                    let tc = self.tx(cond);
                    tc.mux(self.state_lit(*then), self.state_lit(*els))
                }
            };
            transitions.push(trans);
        }

        // A shared unit can serve at most one site per state; duplicates
        // would make the operand mux silently pick one of them.
        check_unique_states(
            self.mul_sites.iter().map(|(s, _, _)| *s),
            "shared multiplier",
        )?;
        for (mi, sites) in self.mem_read_sites.iter().enumerate() {
            check_unique_states(
                sites.iter().map(|(s, _)| *s),
                &format!("memory `{}` read port", self.p.mems[mi].name),
            )?;
        }

        // Drive the shared multiplier.
        if let Some((wire, wmax)) = self.mul_wire {
            let a = self.sel_chain(
                &self
                    .mul_sites
                    .iter()
                    .map(|(s, a, _)| (*s, a.clone()))
                    .collect::<Vec<_>>(),
                Expr::lit(0, wmax),
            );
            let b_expr = self.sel_chain(
                &self
                    .mul_sites
                    .iter()
                    .map(|(s, _, b)| (*s, b.clone()))
                    .collect::<Vec<_>>(),
                Expr::lit(0, wmax),
            );
            let an = self.b.comb("shared_mul_a", a);
            let bn = self.b.comb("shared_mul_b", b_expr);
            self.b
                .drive(wire, Expr::net(an, wmax).mul(Expr::net(bn, wmax)));
        }

        // Drive each memory's single read site.
        for (mi, mem) in self.p.mems.iter().enumerate() {
            let rdata = self.mem_rdata[mi];
            let sites = std::mem::take(&mut self.mem_read_sites[mi]);
            if sites.is_empty() {
                self.b.drive(rdata, Expr::lit(0, mem.width));
                continue;
            }
            let aw = sites.iter().map(|(_, a)| a.width()).max().expect("sites");
            let sites: Vec<(usize, Expr)> =
                sites.into_iter().map(|(s, a)| (s, a.zext(aw))).collect();
            let addr = self.sel_chain(&sites, Expr::lit(0, aw));
            let an = self.b.comb(format!("{}_raddr", mem.name), addr);
            self.b.drive(
                rdata,
                Expr::read_mem(self.mems_rtl[mi], Expr::net(an, aw), mem.width),
            );
        }

        // Memory write ports.
        for (mi, mem) in self.p.mems.iter().enumerate() {
            let sites = &mem_write_sites[mi];
            if sites.is_empty() {
                continue;
            }
            let wen = self.or_states(&sites.iter().map(|(s, _, _)| *s).collect::<Vec<_>>());
            let aw = sites
                .iter()
                .map(|(_, a, _)| a.width())
                .max()
                .expect("sites");
            let addr_sites: Vec<(usize, Expr)> = sites
                .iter()
                .map(|(s, a, _)| (*s, a.clone().zext(aw)))
                .collect();
            let data_sites: Vec<(usize, Expr)> =
                sites.iter().map(|(s, _, d)| (*s, d.clone())).collect();
            let addr = self.sel_chain(&addr_sites, Expr::lit(0, aw));
            let data = self.sel_chain(&data_sites, Expr::lit(0, mem.width));
            self.b.mem_write(self.mems_rtl[mi], addr, data, wen);
        }

        // Register next-value logic.
        for (r, actions) in reg_actions.iter().enumerate() {
            let w = self.alloc.reg_width[r];
            let hold = Expr::net(self.reg_net[r], w);
            let mut next = hold.clone();
            for (s, te, gate) in actions.iter().rev() {
                let mut sel = Expr::net(self.st_eq[*s], 1);
                if let Some(g) = gate {
                    sel = sel.and(g.clone());
                }
                next = sel.mux(te.clone(), next);
            }
            self.b.set_next(self.reg_net[r], next);
        }

        // Next-state logic.
        let mut state_next = self.state_lit(0);
        for (s, trans) in transitions.iter().enumerate().rev() {
            state_next = Expr::net(self.st_eq[s], 1).mux(trans.clone(), state_next);
        }
        self.b.set_next(self.state_net, state_next);

        // Output ports and flow-control outputs.
        for (pi, port) in self.p.ports.iter().enumerate() {
            match port.dir {
                PortDir::Out => {
                    let sites = out_sites.remove(&pi).unwrap_or_default();
                    let data = self.sel_chain(&sites, Expr::lit(0, port.width));
                    self.b.output(&port.name, data);
                    let flag = self.or_states(&sites.iter().map(|(s, _)| *s).collect::<Vec<_>>());
                    match self.opts.mode {
                        SchedulingMode::Superstate => {
                            self.b.output(format!("{}_valid", port.name), flag);
                        }
                        SchedulingMode::FixedCycle => {
                            self.b.output(format!("{}_strobe", port.name), flag);
                        }
                    }
                }
                PortDir::In => {
                    let states = in_read_states.remove(&pi).unwrap_or_default();
                    let flag = self.or_states(&states);
                    match self.opts.mode {
                        SchedulingMode::Superstate => {
                            self.b.output(format!("{}_ready", port.name), flag);
                        }
                        SchedulingMode::FixedCycle => {
                            self.b.output(format!("{}_strobe", port.name), flag);
                        }
                    }
                }
            }
        }

        // Observability: the FSM state (used by tests and the cosim
        // harness; costs no cells).
        self.b
            .output("dbg_state", Expr::net(self.state_net, self.sbits));

        let module = std::mem::replace(&mut self.b, ModuleBuilder::new("_"))
            .build()
            .map_err(|e| SynthError::Unsupported(format!("emitted RTL invalid: {e}")))?;

        let report = BehReport {
            states: self.s.states.len(),
            registers: self.alloc.register_count(),
            register_bits: self.alloc.register_bits(),
            variables: self.p.var_count(),
            shared_multipliers: usize::from(self.mul_wire.is_some()),
        };
        Ok(BehSynthOutput { module, report })
    }

    fn declare_ports(&mut self) {
        for (pi, port) in self.p.ports.iter().enumerate() {
            match port.dir {
                PortDir::In => {
                    let d = self.b.input(&port.name, port.width);
                    self.in_data.insert(pi, d);
                    if self.opts.mode == SchedulingMode::Superstate {
                        let v = self.b.input(format!("{}_valid", port.name), 1);
                        self.in_valid.insert(pi, v);
                    }
                }
                PortDir::Out => {
                    if self.opts.mode == SchedulingMode::Superstate {
                        let r = self.b.input(format!("{}_ready", port.name), 1);
                        self.out_ready.insert(pi, r);
                    }
                }
            }
        }
    }

    fn declare_state_machine(&mut self) {
        self.state_net = self.b.reg("fsm_state", self.sbits, Bv::zero(self.sbits));
        for s in 0..self.s.states.len() {
            let eq = Expr::net(self.state_net, self.sbits).eq(Expr::lit(s as u64, self.sbits));
            self.st_eq.push(self.b.comb(format!("st_eq_{s}"), eq));
        }
    }

    fn declare_registers(&mut self) {
        for r in 0..self.alloc.register_count() {
            let w = self.alloc.reg_width[r];
            let name = format!("r_{}", self.alloc.reg_name[r]);
            self.reg_net.push(self.b.reg(name, w, Bv::zero(w)));
        }
    }

    fn declare_memories(&mut self) {
        for mem in &self.p.mems {
            let m = self.b.memory(mem.name.clone(), mem.width, mem.init.clone());
            self.mems_rtl.push(m);
            let w = self.b.wire(format!("{}_rdata", mem.name), mem.width);
            self.mem_rdata.push(w);
        }
    }

    fn declare_shared_multiplier(&mut self) {
        if !self.opts.share_resources {
            return;
        }
        let mut wmax = 0u32;
        for st in &self.s.states {
            let mut scan = |e: &BExpr| max_mul_width(e, &mut wmax);
            for (_, e) in &st.actions {
                scan(e);
            }
            for (_, a, d) in &st.mem_writes {
                scan(a);
                scan(d);
            }
            if let Some(Io::Write(_, e)) = &st.io {
                scan(e);
            }
            if let Next::Branch { cond, .. } = &st.next {
                scan(cond);
            }
        }
        if wmax > 0 {
            let wire = self.b.wire("shared_mul_out", wmax);
            self.mul_wire = Some((wire, wmax));
        }
    }

    fn state_lit(&self, s: usize) -> Expr {
        Expr::lit(s as u64, self.sbits)
    }

    /// `mux(st==s0, e0, mux(st==s1, e1, ... default))`.
    fn sel_chain(&self, sites: &[(usize, Expr)], default: Expr) -> Expr {
        sites.iter().rev().fold(default, |acc, (s, e)| {
            Expr::net(self.st_eq[*s], 1).mux(e.clone(), acc)
        })
    }

    /// OR of state-equality flags (constant 0 when empty).
    fn or_states(&self, states: &[usize]) -> Expr {
        match states.split_first() {
            None => Expr::lit(0, 1),
            Some((&first, rest)) => rest
                .iter()
                .fold(Expr::net(self.st_eq[first], 1), |acc, &s| {
                    acc.or(Expr::net(self.st_eq[s], 1))
                }),
        }
    }

    /// Translates a behavioural expression into RTL over registers,
    /// shared units and memory read wires, recording binding sites.
    fn tx(&mut self, e: &BExpr) -> Expr {
        use scflow_rtl::BinOp;
        match e {
            BExpr::Const(v) => Expr::Const(*v),
            BExpr::Var(v, w) => Expr::net(self.reg_net[self.alloc.reg_of[v.0]], *w),
            BExpr::Un(op, a) => Expr::Unary(*op, Box::new(self.tx(a))),
            BExpr::Bin(op @ (BinOp::Mul | BinOp::MulS), a, b) if self.opts.share_resources => {
                let _ = op;
                let (wire, wmax) = self.mul_wire.expect("multiplier wire declared");
                let w = a.width();
                let ta = self.tx(a).zext(wmax);
                let tb = self.tx(b).zext(wmax);
                self.mul_sites.push((self.cur_state, ta, tb));
                // Low `w` bits of a product are signedness-independent.
                if w == wmax {
                    Expr::net(wire, wmax)
                } else {
                    Expr::net(wire, wmax).slice(w - 1, 0)
                }
            }
            BExpr::Bin(op, a, b) => Expr::Binary(*op, Box::new(self.tx(a)), Box::new(self.tx(b))),
            BExpr::Mux(c, t, alt) => {
                let tc = self.tx(c);
                let tt = self.tx(t);
                let te = self.tx(alt);
                tc.mux(tt, te)
            }
            BExpr::Slice(a, hi, lo) => self.tx(a).slice(*hi, *lo),
            BExpr::Concat(a, b) => {
                let ta = self.tx(a);
                let tb = self.tx(b);
                ta.concat(tb)
            }
            BExpr::Zext(a, w) => self.tx(a).zext(*w),
            BExpr::Sext(a, w) => self.tx(a).sext(*w),
            BExpr::MemRead(m, addr, w) => {
                let ta = self.tx(addr);
                self.mem_read_sites[m.0].push((self.cur_state, ta));
                Expr::net(self.mem_rdata[m.0], *w)
            }
        }
    }
}

fn check_unique_states(states: impl Iterator<Item = usize>, what: &str) -> Result<(), SynthError> {
    let mut seen = std::collections::HashSet::new();
    for s in states {
        if !seen.insert(s) {
            return Err(SynthError::Unsupported(format!(
                "{what} is used twice in control step {s}; \
                 split the statement across steps"
            )));
        }
    }
    Ok(())
}

fn max_mul_width(e: &BExpr, wmax: &mut u32) {
    use scflow_rtl::BinOp;
    match e {
        BExpr::Const(_) | BExpr::Var(_, _) => {}
        BExpr::Un(_, a) | BExpr::Slice(a, _, _) | BExpr::Zext(a, _) | BExpr::Sext(a, _) => {
            max_mul_width(a, wmax)
        }
        BExpr::Bin(op, a, b) => {
            if matches!(op, BinOp::Mul | BinOp::MulS) {
                *wmax = (*wmax).max(a.width());
            }
            max_mul_width(a, wmax);
            max_mul_width(b, wmax);
        }
        BExpr::Mux(c, t, e2) => {
            max_mul_width(c, wmax);
            max_mul_width(t, wmax);
            max_mul_width(e2, wmax);
        }
        BExpr::Concat(a, b) => {
            max_mul_width(a, wmax);
            max_mul_width(b, wmax);
        }
        BExpr::MemRead(_, a, _) => max_mul_width(a, wmax),
    }
}
