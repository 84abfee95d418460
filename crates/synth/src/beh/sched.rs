//! Scheduling: packing behavioural statements into FSM control steps
//! under resource constraints, with operator chaining (forwarding).

use super::ir::{BExpr, BehProgram, MemId, PortId, Stmt, VarId};
use super::BehOptions;
use crate::SynthError;
use std::collections::HashMap;

/// An I/O operation bound to a control step.
#[derive(Clone, Debug)]
pub enum Io {
    /// Capture an input port into a variable (handshaked in superstate
    /// mode).
    Read(VarId, PortId),
    /// Present an expression on an output port (handshaked in superstate
    /// mode).
    Write(PortId, BExpr),
}

/// Control transfer out of a state.
#[derive(Clone, Debug)]
pub enum Next {
    /// Unconditional transition.
    Goto(usize),
    /// Two-way branch on a 1-bit expression evaluated in this state.
    Branch {
        /// Branch condition (over start-of-state register values).
        cond: BExpr,
        /// Target when the condition is true.
        then: usize,
        /// Target when the condition is false.
        els: usize,
    },
}

/// One control step: a set of parallel register transfers plus optional
/// memory write and I/O, and the transition.
#[derive(Clone, Debug)]
pub struct ScheduledState {
    /// Parallel register transfers; expressions read start-of-state
    /// values.
    pub actions: Vec<(VarId, BExpr)>,
    /// Memory writes committed at the end of this step.
    pub mem_writes: Vec<(MemId, BExpr, BExpr)>,
    /// I/O bound to this step (always the only content of its state).
    pub io: Option<Io>,
    /// Transition.
    pub next: Next,
}

/// A complete schedule: the FSM's states. State 0 is the entry/reset
/// state; the program body loops back to it.
#[derive(Clone, Debug)]
pub struct Schedule {
    /// The control steps.
    pub states: Vec<ScheduledState>,
}

impl Schedule {
    /// Number of control steps.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// `true` when the schedule is empty (never for valid programs).
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Renders a human-readable state table (one line per control step:
    /// register transfers, memory writes, I/O, transition), using the
    /// program's variable names.
    pub fn describe(&self, program: &BehProgram) -> String {
        use std::fmt::Write as _;
        let var = |v: VarId| program.vars[v.0].name.clone();
        let mut out = String::new();
        for (i, st) in self.states.iter().enumerate() {
            let mut parts: Vec<String> = st
                .actions
                .iter()
                .map(|(v, _)| format!("{} <= ...", var(*v)))
                .collect();
            for (m, _, _) in &st.mem_writes {
                parts.push(format!("{}[..] <= ...", program.mems[m.0].name));
            }
            match &st.io {
                Some(Io::Read(v, p)) => {
                    parts.push(format!("read {} -> {}", program.ports[p.0].name, var(*v)))
                }
                Some(Io::Write(p, _)) => parts.push(format!("write {}", program.ports[p.0].name)),
                None => {}
            }
            let next = match &st.next {
                Next::Goto(t) => format!("-> S{t}"),
                Next::Branch { then, els, .. } => format!("-> S{then} | S{els}"),
            };
            let _ = writeln!(
                out,
                "S{i:<3} {:<60} {next}",
                if parts.is_empty() {
                    "(idle)".to_owned()
                } else {
                    parts.join("; ")
                }
            );
        }
        out
    }
}

struct BuildState {
    actions: Vec<(VarId, BExpr)>,
    pending: HashMap<VarId, BExpr>,
    mem_writes: Vec<(MemId, BExpr, BExpr)>,
    io: Option<Io>,
    next: Option<Next>,
}

impl BuildState {
    fn new() -> Self {
        BuildState {
            actions: Vec::new(),
            pending: HashMap::new(),
            mem_writes: Vec::new(),
            io: None,
            next: None,
        }
    }

    fn is_pure_goto(&self) -> bool {
        self.actions.is_empty() && self.mem_writes.is_empty() && self.io.is_none()
    }
}

struct Scheduler<'p> {
    opts: &'p BehOptions,
    states: Vec<BuildState>,
}

pub(super) fn schedule(program: &BehProgram, opts: &BehOptions) -> Result<Schedule, SynthError> {
    let mut s = Scheduler {
        opts,
        states: Vec::new(),
    };
    let entry = s.new_state();
    let exit = s.lower_block(&program.body, entry)?;
    s.states[exit].next = Some(Next::Goto(entry));
    Ok(s.finish())
}

impl<'p> Scheduler<'p> {
    fn new_state(&mut self) -> usize {
        self.states.push(BuildState::new());
        self.states.len() - 1
    }

    /// Closes `cur` with a Goto to a fresh state and returns the fresh one.
    fn advance(&mut self, cur: usize) -> usize {
        let fresh = self.new_state();
        self.states[cur].next = Some(Next::Goto(fresh));
        fresh
    }

    /// Total resources used by a state plus prospective extra expressions.
    fn fits(&self, state: usize, extra: &[&BExpr], extra_mem_write: Option<MemId>) -> bool {
        let st = &self.states[state];
        let mut muls = 0usize;
        let mut adds = 0usize;
        let mut reads: Vec<usize> = Vec::new();
        let mut depth = 0usize;
        let mut count = |e: &BExpr| {
            e.resources(&mut muls, &mut adds, &mut reads);
            depth = depth.max(e.depth());
        };
        for (_, e) in &st.actions {
            count(e);
        }
        for (_, a, d) in &st.mem_writes {
            count(a);
            count(d);
        }
        if let Some(Io::Write(_, e)) = &st.io {
            count(e);
        }
        for e in extra {
            count(e);
        }
        let mut writes_per_mem: HashMap<usize, usize> = HashMap::new();
        for (m, _, _) in &st.mem_writes {
            *writes_per_mem.entry(m.0).or_insert(0) += 1;
        }
        if let Some(m) = extra_mem_write {
            *writes_per_mem.entry(m.0).or_insert(0) += 1;
        }
        muls <= self.opts.max_mul_per_state
            && adds <= self.opts.max_add_per_state
            && depth <= self.opts.max_chain_depth
            && reads.iter().all(|&r| r <= 1)
            && writes_per_mem.values().all(|&w| w <= 1)
    }

    /// Expression with same-state pending assignments substituted in.
    fn forward(&self, state: usize, e: &BExpr) -> BExpr {
        let pending = &self.states[state].pending;
        e.substitute(&|v| pending.get(&v).cloned())
    }

    fn lower_block(&mut self, stmts: &[Stmt], mut cur: usize) -> Result<usize, SynthError> {
        for stmt in stmts {
            cur = self.lower_stmt(stmt, cur)?;
        }
        Ok(cur)
    }

    fn lower_stmt(&mut self, stmt: &Stmt, mut cur: usize) -> Result<usize, SynthError> {
        match stmt {
            Stmt::Assign(v, e) => {
                // I/O states stay pure; unpacked scheduling gives every
                // statement its own step.
                if self.states[cur].io.is_some()
                    || (!self.opts.pack_statements && !self.states[cur].is_pure_goto())
                {
                    cur = self.advance(cur);
                }
                let fwd = self.forward(cur, e);
                if !self.fits(cur, &[&fwd], None) {
                    cur = self.advance(cur);
                    let fresh_fwd = self.forward(cur, e); // pending empty
                    if !self.fits(cur, &[&fresh_fwd], None) {
                        self.check_single(&fresh_fwd)?;
                    }
                    self.put_assign(cur, *v, fresh_fwd);
                } else {
                    self.put_assign(cur, *v, fwd);
                }
                Ok(cur)
            }
            Stmt::MemWrite(m, addr, data) => {
                if self.states[cur].io.is_some()
                    || (!self.opts.pack_statements && !self.states[cur].is_pure_goto())
                {
                    cur = self.advance(cur);
                }
                let (fa, fd) = (self.forward(cur, addr), self.forward(cur, data));
                if !self.fits(cur, &[&fa, &fd], Some(*m)) {
                    cur = self.advance(cur);
                }
                let (fa, fd) = (self.forward(cur, addr), self.forward(cur, data));
                self.states[cur].mem_writes.push((*m, fa, fd));
                Ok(cur)
            }
            Stmt::Read(v, p) => {
                // I/O always gets a dedicated state.
                if !self.states[cur].is_pure_goto() || self.states[cur].next.is_some() {
                    cur = self.advance(cur);
                }
                self.states[cur].io = Some(Io::Read(*v, *p));
                Ok(self.advance(cur))
            }
            Stmt::Write(p, e) => {
                if !self.states[cur].is_pure_goto() || self.states[cur].next.is_some() {
                    cur = self.advance(cur);
                }
                // cur was just created or is empty: pending is empty, so
                // the expression reads registered values, which stay
                // stable while the handshake waits.
                let e = e.clone();
                self.check_single(&e)?;
                self.states[cur].io = Some(Io::Write(*p, e));
                Ok(self.advance(cur))
            }
            Stmt::If(c, then_body, else_body) => {
                let fc = self.forward(cur, c);
                if self.states[cur].io.is_some() || !self.fits(cur, &[&fc], None) {
                    cur = self.advance(cur);
                }
                let fc = self.forward(cur, c);
                let t0 = self.new_state();
                let e0 = self.new_state();
                self.states[cur].next = Some(Next::Branch {
                    cond: fc,
                    then: t0,
                    els: e0,
                });
                let t_exit = self.lower_block(then_body, t0)?;
                let e_exit = self.lower_block(else_body, e0)?;
                let join = self.new_state();
                self.states[t_exit].next = Some(Next::Goto(join));
                self.states[e_exit].next = Some(Next::Goto(join));
                Ok(join)
            }
            Stmt::While(c, body) => {
                let cond_state = self.new_state();
                self.states[cur].next = Some(Next::Goto(cond_state));
                let b0 = self.new_state();
                let exit = self.new_state();
                self.states[cond_state].next = Some(Next::Branch {
                    cond: c.clone(),
                    then: b0,
                    els: exit,
                });
                let b_exit = self.lower_block(body, b0)?;
                self.states[b_exit].next = Some(Next::Goto(cond_state));
                Ok(exit)
            }
        }
    }

    fn put_assign(&mut self, state: usize, v: VarId, e: BExpr) {
        let st = &mut self.states[state];
        if let Some(slot) = st.actions.iter_mut().find(|(var, _)| *var == v) {
            slot.1 = e.clone();
        } else {
            st.actions.push((v, e.clone()));
        }
        st.pending.insert(v, e);
    }

    /// A statement that alone exceeds the sharing-critical limits cannot
    /// be split; reject it when sharing requires the limit.
    fn check_single(&self, e: &BExpr) -> Result<(), SynthError> {
        let mut muls = 0;
        let mut adds = 0;
        let mut reads = Vec::new();
        e.resources(&mut muls, &mut adds, &mut reads);
        if self.opts.share_resources && muls > self.opts.max_mul_per_state {
            return Err(SynthError::Unsupported(format!(
                "expression uses {muls} multipliers in one statement; \
                 the shared-multiplier limit is {}",
                self.opts.max_mul_per_state
            )));
        }
        if reads.iter().any(|&r| r > 1) {
            return Err(SynthError::Unsupported(
                "expression reads one memory twice in a single statement".into(),
            ));
        }
        Ok(())
    }

    /// Finalises: collapse pure-Goto states and fix up indices.
    fn finish(self) -> Schedule {
        let n = self.states.len();
        // replacement[i] = the state i forwards to (itself if real).
        let mut replacement: Vec<usize> = (0..n).collect();
        for (i, st) in self.states.iter().enumerate() {
            if i != 0 && st.is_pure_goto() {
                if let Some(Next::Goto(t)) = st.next {
                    replacement[i] = t;
                }
            }
        }
        // Resolve chains.
        let resolve = |replacement: &[usize], mut i: usize| -> usize {
            let mut hops = 0;
            while replacement[i] != i && hops < n {
                i = replacement[i];
                hops += 1;
            }
            i
        };
        let resolved: Vec<usize> = (0..n).map(|i| resolve(&replacement, i)).collect();

        // Keep state 0 and all non-collapsed states; renumber densely.
        let mut dense: Vec<Option<usize>> = vec![None; n];
        let mut kept = 0usize;
        for i in 0..n {
            if resolved[i] == i {
                dense[i] = Some(kept);
                kept += 1;
            }
        }
        let map = |i: usize| dense[resolved[i]].expect("resolved state kept");

        let mut out = Vec::with_capacity(kept);
        for (i, st) in self.states.into_iter().enumerate() {
            if resolved[i] != i {
                continue;
            }
            let next = match st.next.expect("every state closed") {
                Next::Goto(t) => Next::Goto(map(t)),
                Next::Branch { cond, then, els } => Next::Branch {
                    cond,
                    then: map(then),
                    els: map(els),
                },
            };
            out.push(ScheduledState {
                actions: st.actions,
                mem_writes: st.mem_writes,
                io: st.io,
                next,
            });
        }
        Schedule { states: out }
    }
}
