//! Register allocation: variable liveness over the state graph and
//! lifetime-based merging.

use super::ir::{BehProgram, VarId};
use super::sched::{Io, Next, Schedule};
use super::BehOptions;
use std::collections::HashSet;

/// The variable→register mapping produced by allocation.
#[derive(Clone, Debug)]
pub(super) struct Allocation {
    /// `reg_of[v]` is the register index holding variable `v`.
    pub reg_of: Vec<usize>,
    /// Width of each register.
    pub reg_width: Vec<u32>,
    /// Name of each register (first variable mapped to it, plus merge
    /// count when shared).
    pub reg_name: Vec<String>,
}

impl Allocation {
    /// Number of allocated registers.
    pub fn register_count(&self) -> usize {
        self.reg_width.len()
    }

    /// Total register bits.
    pub fn register_bits(&self) -> usize {
        self.reg_width.iter().map(|&w| w as usize).sum()
    }
}

pub(super) fn allocate(program: &BehProgram, schedule: &Schedule, opts: &BehOptions) -> Allocation {
    let nv = program.var_count();
    if !opts.merge_registers {
        // Conservative: one register per variable (the paper's
        // behavioural-flow over-allocation).
        return Allocation {
            reg_of: (0..nv).collect(),
            reg_width: (0..nv).map(|v| program.var_width(VarId(v))).collect(),
            reg_name: (0..nv).map(|v| program.vars[v].name.clone()).collect(),
        };
    }

    let ns = schedule.states.len();

    // use/def per state.
    let mut uses: Vec<HashSet<usize>> = vec![HashSet::new(); ns];
    let mut defs: Vec<HashSet<usize>> = vec![HashSet::new(); ns];
    for (s, st) in schedule.states.iter().enumerate() {
        let mut add_use = |v: VarId| {
            uses[s].insert(v.0);
        };
        for (_, e) in &st.actions {
            e.for_each_var(&mut add_use);
        }
        for (_, a, d) in &st.mem_writes {
            a.for_each_var(&mut add_use);
            d.for_each_var(&mut add_use);
        }
        if let Some(Io::Write(_, e)) = &st.io {
            e.for_each_var(&mut add_use);
        }
        if let Next::Branch { cond, .. } = &st.next {
            cond.for_each_var(&mut add_use);
        }
        for (v, _) in &st.actions {
            defs[s].insert(v.0);
        }
        if let Some(Io::Read(v, _)) = &st.io {
            defs[s].insert(v.0);
        }
    }

    // Backward liveness to fixpoint.
    let succs: Vec<Vec<usize>> = schedule
        .states
        .iter()
        .map(|st| match &st.next {
            Next::Goto(t) => vec![*t],
            Next::Branch { then, els, .. } => vec![*then, *els],
        })
        .collect();
    let mut live_in: Vec<HashSet<usize>> = vec![HashSet::new(); ns];
    let mut live_out: Vec<HashSet<usize>> = vec![HashSet::new(); ns];
    loop {
        let mut changed = false;
        for s in (0..ns).rev() {
            let mut out: HashSet<usize> = HashSet::new();
            for &t in &succs[s] {
                out.extend(live_in[t].iter().copied());
            }
            let mut inn: HashSet<usize> = uses[s].clone();
            for &v in &out {
                if !defs[s].contains(&v) {
                    inn.insert(v);
                }
            }
            if out != live_out[s] || inn != live_in[s] {
                live_out[s] = out;
                live_in[s] = inn;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Interference: conservative — two variables interfere when both are
    // simultaneously live (or defined) in some state.
    let mut interferes = vec![false; nv * nv];
    for s in 0..ns {
        let alive: Vec<usize> = live_in[s]
            .iter()
            .chain(defs[s].iter())
            .chain(live_out[s].iter())
            .copied()
            .collect::<HashSet<_>>()
            .into_iter()
            .collect();
        for i in 0..alive.len() {
            for j in (i + 1)..alive.len() {
                interferes[alive[i] * nv + alive[j]] = true;
                interferes[alive[j] * nv + alive[i]] = true;
            }
        }
    }

    // Greedy colouring among equal-width variables.
    let mut reg_of = vec![usize::MAX; nv];
    let mut reg_width: Vec<u32> = Vec::new();
    let mut reg_name: Vec<String> = Vec::new();
    let mut reg_members: Vec<Vec<usize>> = Vec::new();
    for v in 0..nv {
        let w = program.var_width(VarId(v));
        let slot = (0..reg_width.len()).find(|&r| {
            reg_width[r] == w && reg_members[r].iter().all(|&m| !interferes[v * nv + m])
        });
        match slot {
            Some(r) => {
                reg_of[v] = r;
                reg_members[r].push(v);
                reg_name[r] = format!(
                    "{}_sh{}",
                    reg_name[r].split("_sh").next().expect("name"),
                    reg_members[r].len()
                );
            }
            None => {
                reg_of[v] = reg_width.len();
                reg_width.push(w);
                reg_name.push(program.vars[v].name.clone());
                reg_members.push(vec![v]);
            }
        }
    }

    Allocation {
        reg_of,
        reg_width,
        reg_name,
    }
}
