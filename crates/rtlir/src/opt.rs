//! Optimization passes over compiled RTL bytecode.
//!
//! [`optimize_program`] rewrites a freshly compiled
//! [`CompiledProgram`] in place, running the pass pipeline selected by a
//! [`PassConfig`] (the same pipeline the gate-level optimizer
//! `scflow_gate::passes` runs over netlists):
//!
//! 1. **Constant sweep** — slots that are provably never written (no
//!    instruction destination, not an input port, not a register `q`)
//!    hold their power-on value forever; instructions whose operands are
//!    all such constants are evaluated at compile time with the
//!    executor's arithmetic, verbatim. A cone whose result is constant
//!    is baked into the initial slot image and its block removed, which
//!    can cascade into downstream cones (the sweep iterates to a fixed
//!    point).
//! 2. **CSE** — block-local value numbering over the three-address
//!    code (two instructions with identical opcode/operands compute the
//!    same value), plus cross-cone sharing: a cone structurally
//!    identical to an earlier one (after canonical renumbering of its
//!    private temporaries) collapses to a single `Copy` from the first
//!    cone's target.
//! 3. **Dead-cone elimination** — one exact reverse pass over the
//!    topologically ordered cones removes every cone that cannot reach
//!    an output port, a register's next-value expression or a write
//!    port. Removed targets are recorded in
//!    [`CompiledProgram::retained_nets`]; their slots keep the power-on
//!    value and coverage collection masks them out.
//! 4. **Slot re-layout** — temporary and interned-constant slots are
//!    renumbered in first-use order over the final instruction stream,
//!    compacting the value array so the hot working set spans the
//!    fewest cache lines. Net slots `0..n_nets` are never moved (the
//!    `net id == slot id` invariant backs `peek_net`, watch lists and
//!    coverage indexing).
//!
//! # What is deliberately preserved
//!
//! * **`ReadMem` instructions are never folded, merged, moved or
//!   deleted** — out-of-range addresses must surface in the violation
//!   stream in the interpreter's evaluation order. A cone containing a
//!   `ReadMem` survives dead-cone elimination even if its target is
//!   unobserved, and blocks containing branches (only ever emitted
//!   around memory reads) are left untouched by the block-local passes.
//! * Port slots, register tables and write-port tables are never
//!   removed, so the public poke/peek/VCD surface is unchanged.
//! * The cone *vector* keeps its length (removed cones get an empty
//!   instruction range), so scheduling bitmask indices stay valid.
//!
//! The pass configuration's [`PassConfig::stable_tag`] is recorded on
//! the program and folded into
//! [`state_identity`](CompiledProgram::state_identity), so snapshots
//! never cross pass configurations even when the optimizer changed
//! nothing.

use crate::compile::{flatten_sched, CompiledProgram, Cone, Inst};
use scflow_hwtypes::PassConfig;
use std::collections::{HashMap, HashSet};
use std::ops::Range;

/// Branchless low-`w`-bits mask (`w` validated as 1..=64 at compile
/// time) — the executor's helper, verbatim.
#[inline]
fn mask(w: u32) -> u64 {
    u64::MAX >> (64 - w)
}

/// Sign-extends the low `w` bits — the executor's helper, verbatim.
#[inline]
fn sign_extend(raw: u64, w: u32) -> i64 {
    let shift = 64 - w;
    ((raw << shift) as i64) >> shift
}

fn is_jump(inst: &Inst) -> bool {
    matches!(inst, Inst::Jmp { .. } | Inst::JmpZero { .. })
}

fn is_read_mem(inst: &Inst) -> bool {
    matches!(inst, Inst::ReadMem { .. })
}

/// Visits every slot operand of `inst` — reads and the destination.
/// Jump targets, memory ids and immediates (widths, bit offsets) are
/// not slots and are not visited.
fn visit_slots(inst: &mut Inst, f: &mut dyn FnMut(&mut u32, bool)) {
    match inst {
        Inst::Copy { dst, a }
        | Inst::Not { dst, a, .. }
        | Inst::Neg { dst, a, .. }
        | Inst::RedAnd { dst, a, .. }
        | Inst::RedOr { dst, a }
        | Inst::RedXor { dst, a }
        | Inst::Slice { dst, a, .. }
        | Inst::Zext { dst, a, .. }
        | Inst::Sext { dst, a, .. }
        | Inst::ReadMem { dst, a, .. } => {
            f(a, false);
            f(dst, true);
        }
        Inst::Add { dst, a, b, .. }
        | Inst::Sub { dst, a, b, .. }
        | Inst::Mul { dst, a, b, .. }
        | Inst::MulS { dst, a, b, .. }
        | Inst::MulSS { dst, a, b, .. }
        | Inst::And { dst, a, b }
        | Inst::Or { dst, a, b }
        | Inst::Xor { dst, a, b }
        | Inst::Shl { dst, a, b, .. }
        | Inst::Shr { dst, a, b }
        | Inst::Sar { dst, a, b, .. }
        | Inst::Eq { dst, a, b }
        | Inst::Ne { dst, a, b }
        | Inst::Ult { dst, a, b }
        | Inst::Ule { dst, a, b }
        | Inst::Slt { dst, a, b, .. }
        | Inst::Sle { dst, a, b, .. }
        | Inst::Concat { dst, a, b, .. } => {
            f(a, false);
            f(b, false);
            f(dst, true);
        }
        Inst::Mux { dst, c, t, e } => {
            f(c, false);
            f(t, false);
            f(e, false);
            f(dst, true);
        }
        Inst::EqMux { dst, a, b, t, e }
        | Inst::NeMux { dst, a, b, t, e }
        | Inst::UltMux { dst, a, b, t, e }
        | Inst::AndMux { dst, a, b, t, e } => {
            f(a, false);
            f(b, false);
            f(t, false);
            f(e, false);
            f(dst, true);
        }
        Inst::BitMux { dst, a, t, e, .. } => {
            f(a, false);
            f(t, false);
            f(e, false);
            f(dst, true);
        }
        Inst::Jmp { .. } => {}
        Inst::JmpZero { c, .. } => f(c, false),
    }
}

fn inst_dst(inst: &Inst) -> Option<u32> {
    let mut copy = *inst;
    let mut dst = None;
    visit_slots(&mut copy, &mut |s, is_dst| {
        if is_dst {
            dst = Some(*s);
        }
    });
    dst
}

fn for_each_read(inst: &Inst, f: &mut dyn FnMut(u32)) {
    let mut copy = *inst;
    visit_slots(&mut copy, &mut |s, is_dst| {
        if !is_dst {
            f(*s);
        }
    });
}

/// Evaluates one instruction over known operand values — every arm
/// mirrors the executor ([`crate::CompiledSim`]) bit for bit. Returns
/// `None` if an operand is unknown or the instruction has effects
/// beyond its destination (`ReadMem`, branches).
fn eval_inst(inst: &Inst, get: &impl Fn(u32) -> Option<u64>) -> Option<u64> {
    Some(match *inst {
        Inst::Copy { a, .. } => get(a)?,
        Inst::Not { a, w, .. } => !get(a)? & mask(w),
        Inst::Neg { a, w, .. } => get(a)?.wrapping_neg() & mask(w),
        Inst::RedAnd { a, w, .. } => u64::from(get(a)? == mask(w)),
        Inst::RedOr { a, .. } => u64::from(get(a)? != 0),
        Inst::RedXor { a, .. } => u64::from(get(a)?.count_ones() % 2 == 1),
        Inst::Add { a, b, w, .. } => get(a)?.wrapping_add(get(b)?) & mask(w),
        Inst::Sub { a, b, w, .. } => get(a)?.wrapping_sub(get(b)?) & mask(w),
        Inst::Mul { a, b, w, .. } => get(a)?.wrapping_mul(get(b)?) & mask(w),
        Inst::MulS { a, b, w, .. } => {
            let x = sign_extend(get(a)?, w);
            let y = sign_extend(get(b)?, w);
            (x.wrapping_mul(y) as u64) & mask(w)
        }
        Inst::MulSS { a, b, from, w, .. } => {
            let x = sign_extend(get(a)?, from);
            let y = sign_extend(get(b)?, from);
            (x.wrapping_mul(y) as u64) & mask(w)
        }
        Inst::And { a, b, .. } => get(a)? & get(b)?,
        Inst::Or { a, b, .. } => get(a)? | get(b)?,
        Inst::Xor { a, b, .. } => get(a)? ^ get(b)?,
        Inst::Shl { a, b, w, .. } => {
            let amt = get(b)?.min(64) as u32;
            if amt >= 64 {
                0
            } else {
                (get(a)? << amt) & mask(w)
            }
        }
        Inst::Shr { a, b, .. } => {
            let amt = get(b)?.min(64) as u32;
            if amt >= 64 {
                0
            } else {
                get(a)? >> amt
            }
        }
        Inst::Sar { a, b, w, .. } => {
            let amt = get(b)?.min(63) as u32;
            ((sign_extend(get(a)?, w) >> amt) as u64) & mask(w)
        }
        Inst::Eq { a, b, .. } => u64::from(get(a)? == get(b)?),
        Inst::Ne { a, b, .. } => u64::from(get(a)? != get(b)?),
        Inst::Ult { a, b, .. } => u64::from(get(a)? < get(b)?),
        Inst::Ule { a, b, .. } => u64::from(get(a)? <= get(b)?),
        Inst::Slt { a, b, w, .. } => u64::from(sign_extend(get(a)?, w) < sign_extend(get(b)?, w)),
        Inst::Sle { a, b, w, .. } => u64::from(sign_extend(get(a)?, w) <= sign_extend(get(b)?, w)),
        // A known condition folds to the taken arm even when the other
        // arm is unknown — the executor reads but never uses it.
        Inst::Mux { c, t, e, .. } => {
            if get(c)? != 0 {
                get(t)?
            } else {
                get(e)?
            }
        }
        Inst::Slice { a, lo, w, .. } => (get(a)? >> lo) & mask(w),
        Inst::Concat { a, b, bw, .. } => (get(a)? << bw) | get(b)?,
        Inst::Zext { a, w, .. } => get(a)? & mask(w),
        Inst::Sext { a, from, to, .. } => (sign_extend(get(a)?, from) as u64) & mask(to),
        Inst::EqMux { a, b, t, e, .. } => {
            if get(a)? == get(b)? {
                get(t)?
            } else {
                get(e)?
            }
        }
        Inst::NeMux { a, b, t, e, .. } => {
            if get(a)? != get(b)? {
                get(t)?
            } else {
                get(e)?
            }
        }
        Inst::UltMux { a, b, t, e, .. } => {
            if get(a)? < get(b)? {
                get(t)?
            } else {
                get(e)?
            }
        }
        Inst::AndMux { a, b, t, e, .. } => {
            if get(a)? & get(b)? != 0 {
                get(t)?
            } else {
                get(e)?
            }
        }
        Inst::BitMux { a, lo, t, e, .. } => {
            if (get(a)? >> lo) & 1 != 0 {
                get(t)?
            } else {
                get(e)?
            }
        }
        Inst::ReadMem { .. } | Inst::Jmp { .. } | Inst::JmpZero { .. } => return None,
    })
}

/// A value-numbering key for block-local CSE: the instruction's `Debug`
/// form with its destination zeroed. `Copy` is excluded (handled by
/// copy propagation), `ReadMem` because two reads of the same address
/// are two observable accesses, branches because they are not values.
fn cse_key(inst: &Inst) -> Option<String> {
    if matches!(
        inst,
        Inst::Copy { .. } | Inst::ReadMem { .. } | Inst::Jmp { .. } | Inst::JmpZero { .. }
    ) {
        return None;
    }
    let mut copy = *inst;
    visit_slots(&mut copy, &mut |s, is_dst| {
        if is_dst {
            *s = u32::MAX;
        }
    });
    Some(format!("{copy:?}"))
}

/// A canonical key for a whole cone body: the target and every
/// block-written temporary are renumbered in order of appearance, so
/// two structurally identical cones compare equal regardless of their
/// global temp/target numbering. Net operands and interned constants
/// (read-only slots) keep their global numbers — they are part of the
/// computed function.
fn cone_key(block: &[Inst], target: u32, n_nets: u32) -> String {
    let written: HashSet<u32> = block.iter().filter_map(inst_dst).collect();
    let mut local: HashMap<u32, u32> = HashMap::new();
    let mut canon: Vec<Inst> = Vec::with_capacity(block.len());
    for inst in block {
        let mut c = *inst;
        visit_slots(&mut c, &mut |s, _| {
            if *s == target {
                *s = u32::MAX;
            } else if *s >= n_nets && written.contains(s) {
                let next = local.len() as u32;
                let id = *local.entry(*s).or_insert(next);
                *s = u32::MAX - 1 - id;
            }
        });
        canon.push(c);
    }
    format!("{canon:?}")
}

/// The compile-time constant environment shared by every block.
struct Ctx {
    n_nets: u32,
    /// The growing slot image (indexed by pre-re-layout slot id).
    init: Vec<u64>,
    /// Slots whose value is known at compile time (never written).
    vals: HashMap<u32, u64>,
    /// Constant-slot interning by value.
    interned: HashMap<u64, u32>,
}

impl Ctx {
    fn val(&self, s: u32) -> Option<u64> {
        self.vals.get(&s).copied()
    }

    fn intern(&mut self, v: u64) -> u32 {
        if let Some(&s) = self.interned.get(&v) {
            return s;
        }
        let s = self.init.len() as u32;
        self.init.push(v);
        self.interned.insert(v, s);
        self.vals.insert(s, v);
        s
    }
}

struct BlockOut {
    changed: bool,
    /// Known compile-time values of `live_out` slots after the block.
    const_out: HashMap<u32, u64>,
}

/// Constant folding, copy propagation, local CSE and dead-temporary
/// elimination over one straight-line block. Blocks containing
/// branches (emitted only around memory reads) are left untouched so
/// absolute jump targets and the access order stay valid. Writes to
/// net slots and `live_out` slots are always materialised (as a `Copy`
/// from an interned constant when folded), so downstream consumers —
/// the executor's register commit, write sampling, cone targets — see
/// exactly the values they read today.
fn simplify_block(
    block: &mut Vec<Inst>,
    live_out: &[u32],
    ctx: &mut Ctx,
    cfg: &PassConfig,
) -> BlockOut {
    let mut out = BlockOut {
        changed: false,
        const_out: HashMap::new(),
    };
    if block.iter().any(is_jump) {
        return out;
    }
    let n_nets = ctx.n_nets;
    let mut kept: Vec<Inst> = Vec::with_capacity(block.len());
    // Replacement slot for each dropped destination.
    let mut subst: HashMap<u32, u32> = HashMap::new();
    // Known values of block-written slots.
    let mut local: HashMap<u32, u64> = HashMap::new();
    let mut seen: HashMap<String, u32> = HashMap::new();
    for mut inst in block.drain(..) {
        // Reroute operands that read a dropped destination.
        visit_slots(&mut inst, &mut |s, is_dst| {
            if !is_dst {
                if let Some(&r) = subst.get(s) {
                    *s = r;
                }
            }
        });
        let folded = if cfg.const_sweep {
            eval_inst(&inst, &|s| local.get(&s).copied().or_else(|| ctx.val(s)))
        } else {
            None
        };
        if let Some(v) = folded {
            let dst = inst_dst(&inst).expect("evaluable instructions have a destination");
            let c = ctx.intern(v);
            local.insert(dst, v);
            if dst < n_nets || live_out.contains(&dst) {
                let same = matches!(inst, Inst::Copy { dst: d, a } if d == dst && a == c);
                out.changed |= !same;
                kept.push(Inst::Copy { dst, a: c });
            } else {
                subst.insert(dst, c);
                out.changed = true;
            }
            continue;
        }
        if cfg.const_sweep || cfg.cse {
            // Copy propagation through dead temporaries.
            if let Inst::Copy { dst, a } = inst {
                if dst >= n_nets && !live_out.contains(&dst) {
                    subst.insert(dst, a);
                    out.changed = true;
                    continue;
                }
            }
        }
        if cfg.cse {
            if let Some(key) = cse_key(&inst) {
                let dst = inst_dst(&inst).expect("keyed instructions have a destination");
                if let Some(&prior) = seen.get(&key) {
                    out.changed = true;
                    if dst < n_nets || live_out.contains(&dst) {
                        kept.push(Inst::Copy { dst, a: prior });
                    } else {
                        subst.insert(dst, prior);
                    }
                    continue;
                }
                seen.insert(key, dst);
            }
        }
        kept.push(inst);
    }
    // Backward dead-temporary elimination. `ReadMem` is never dead (the
    // access itself is observable); net writes are always kept.
    if cfg.const_sweep || cfg.cse {
        let mut live: HashSet<u32> = live_out.iter().copied().collect();
        let mut keep_flags = vec![true; kept.len()];
        for (i, inst) in kept.iter().enumerate().rev() {
            if let Some(d) = inst_dst(inst) {
                if d >= n_nets && !live.contains(&d) && !is_read_mem(inst) {
                    keep_flags[i] = false;
                    out.changed = true;
                    continue;
                }
            }
            for_each_read(inst, &mut |s| {
                live.insert(s);
            });
        }
        if keep_flags.contains(&false) {
            let mut i = 0;
            kept.retain(|_| {
                let k = keep_flags[i];
                i += 1;
                k
            });
        }
    }
    for &lo in live_out {
        if let Some(&v) = local.get(&lo) {
            out.const_out.insert(lo, v);
        }
    }
    *block = kept;
    out
}

/// Re-emits one instruction at a new block position: slots remapped
/// through `map`, absolute jump targets rebased by the block's move
/// (branchy blocks are never edited, so intra-block offsets hold).
fn re_emit(mut inst: Inst, old_start: u32, new_start: u32, map: &impl Fn(u32) -> u32) -> Inst {
    visit_slots(&mut inst, &mut |s, _| *s = map(*s));
    match &mut inst {
        Inst::Jmp { to } | Inst::JmpZero { to, .. } => *to = *to - old_start + new_start,
        _ => {}
    }
    inst
}

/// Runs the configured passes over `p` in place. With `cfg` all-off
/// this only records the pass tag — the program is byte-identical to
/// the plain compile.
pub(crate) fn optimize_program(p: &mut CompiledProgram, cfg: &PassConfig) {
    p.pass_tag = cfg.stable_tag();
    p.identity = std::sync::OnceLock::new();
    if !cfg.any() {
        return;
    }
    let n_nets = p.net_names.len() as u32;
    let rng = |r: &Range<u32>| r.start as usize..r.end as usize;

    // Detach every instruction block so passes can edit them without
    // disturbing the ranges other blocks are indexed by.
    let mut cone_blocks: Vec<Vec<Inst>> = p
        .cones
        .iter()
        .map(|c| p.insts[rng(&c.insts)].to_vec())
        .collect();
    let mut reg_block: Vec<Inst> = p.seq_insts[rng(&p.reg_sample_insts)].to_vec();
    let mut write_blocks: Vec<[Vec<Inst>; 3]> = p
        .writes
        .iter()
        .map(|w| {
            [
                p.seq_insts[rng(&w.en_insts)].to_vec(),
                p.seq_insts[rng(&w.addr_insts)].to_vec(),
                p.seq_insts[rng(&w.data_insts)].to_vec(),
            ]
        })
        .collect();

    // Seed the constant environment: a slot no instruction writes, that
    // is not an input port and not a register output, holds its
    // power-on value forever. That covers the compiler's interned
    // constants *and* combinational targets it already baked.
    let mut written = vec![false; p.init.len()];
    for inst in p.insts.iter().chain(p.seq_insts.iter()) {
        if let Some(d) = inst_dst(inst) {
            written[d as usize] = true;
        }
    }
    for r in &p.regs {
        written[r.q as usize] = true;
    }
    for port in &p.ports {
        if port.input {
            written[port.slot as usize] = true;
        }
    }
    let mut ctx = Ctx {
        n_nets,
        init: std::mem::take(&mut p.init),
        vals: HashMap::new(),
        interned: HashMap::new(),
    };
    for (s, &w) in written.iter().enumerate() {
        if !w {
            ctx.vals.insert(s as u32, ctx.init[s]);
            if s as u32 >= n_nets {
                // Reuse existing constant slots before allocating new ones.
                let v = ctx.init[s];
                ctx.interned.entry(v).or_insert(s as u32);
            }
        }
    }

    // Constant sweep + local CSE over the cones, iterated to a fixed
    // point: baking one cone's constant target can make downstream
    // cones constant in turn.
    loop {
        let mut changed = false;
        for ci in 0..cone_blocks.len() {
            if cone_blocks[ci].is_empty() {
                continue;
            }
            let target = p.cones[ci].target;
            let out = simplify_block(&mut cone_blocks[ci], &[target], &mut ctx, cfg);
            changed |= out.changed;
            if let Some(&v) = out.const_out.get(&target) {
                // The whole cone is constant: bake the target into the
                // power-on image and drop the block.
                ctx.init[target as usize] = v;
                ctx.vals.insert(target, v);
                cone_blocks[ci].clear();
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Cross-cone CSE: a cone structurally identical to an earlier one
    // collapses to an alias. The earlier cone has the lower index, so
    // in the executor's topological sweep the alias re-runs in the same
    // settle pass whenever its source changes. Memory-reading and
    // branchy cones are excluded (the reads are observable); so are
    // existing single-`Copy` cones, which a second run would otherwise
    // chain into new aliases and break idempotence.
    if cfg.cse {
        let mut seen: HashMap<String, u32> = HashMap::new();
        for ci in 0..cone_blocks.len() {
            let block = &cone_blocks[ci];
            if block.is_empty() || block.iter().any(|i| is_jump(i) || is_read_mem(i)) {
                continue;
            }
            if block.len() == 1 && matches!(block[0], Inst::Copy { .. }) {
                continue;
            }
            let target = p.cones[ci].target;
            let key = cone_key(block, target, n_nets);
            if let Some(&first) = seen.get(&key) {
                if p.net_widths[first as usize] == p.net_widths[target as usize] {
                    cone_blocks[ci] = vec![Inst::Copy {
                        dst: target,
                        a: first,
                    }];
                }
            } else {
                seen.insert(key, target);
            }
        }
    }

    // Sequential blocks: same block-local passes, one round (their
    // outputs feed no other compile-time facts). The sampled slots stay
    // written, so the executor's edge protocol is unchanged.
    let reg_live: Vec<u32> = p.regs.iter().map(|r| r.src).collect();
    simplify_block(&mut reg_block, &reg_live, &mut ctx, cfg);
    let mut writes = p.writes.clone();
    for (wi, wb) in write_blocks.iter_mut().enumerate() {
        let outs = [
            writes[wi].en_slot,
            writes[wi].addr_slot,
            writes[wi].data_slot,
        ];
        for (b, slot) in wb.iter_mut().zip(outs) {
            simplify_block(b, &[slot], &mut ctx, cfg);
        }
    }

    // Dead-cone elimination: one exact reverse pass over the
    // topological cone order. Roots: every port slot, everything the
    // sequential blocks read, and the slots the executor samples at the
    // edge. Cones containing memory reads always survive (their access
    // stream is observable under address checking).
    if cfg.dce {
        let mut needed = vec![false; ctx.init.len()];
        for port in &p.ports {
            needed[port.slot as usize] = true;
        }
        for inst in reg_block
            .iter()
            .chain(write_blocks.iter().flatten().flatten())
        {
            for_each_read(inst, &mut |s| needed[s as usize] = true);
        }
        for r in &p.regs {
            needed[r.src as usize] = true;
        }
        for w in &writes {
            for s in [w.en_slot, w.addr_slot, w.data_slot] {
                needed[s as usize] = true;
            }
        }
        for ci in (0..cone_blocks.len()).rev() {
            if cone_blocks[ci].is_empty() {
                continue;
            }
            let target = p.cones[ci].target;
            let live = needed[target as usize] || cone_blocks[ci].iter().any(is_read_mem);
            if live {
                for inst in &cone_blocks[ci] {
                    for_each_read(inst, &mut |s| needed[s as usize] = true);
                }
            } else {
                cone_blocks[ci].clear();
                p.retained_nets[target as usize] = false;
            }
        }
    }

    // Cache-aware slot re-layout: renumber surviving temporaries and
    // constants in first-use order over the final emission sequence.
    // Net slots keep their identity (peek, watch lists and coverage
    // index nets by slot). Unreferenced slots are dropped entirely.
    let remap: Option<Vec<u32>> = if cfg.relayout {
        let mut order: Vec<u32> = Vec::new();
        for block in cone_blocks.iter().chain(std::iter::once(&reg_block)) {
            for inst in block {
                let mut c = *inst;
                visit_slots(&mut c, &mut |s, _| order.push(*s));
            }
        }
        for wb in &write_blocks {
            for b in wb {
                for inst in b {
                    let mut c = *inst;
                    visit_slots(&mut c, &mut |s, _| order.push(*s));
                }
            }
        }
        for r in &p.regs {
            order.push(r.src);
        }
        for w in &writes {
            order.extend([w.en_slot, w.addr_slot, w.data_slot]);
        }
        let mut new_of = vec![u32::MAX; ctx.init.len()];
        for s in 0..n_nets {
            new_of[s as usize] = s;
        }
        let mut next = n_nets;
        for &s in &order {
            if s >= n_nets && new_of[s as usize] == u32::MAX {
                new_of[s as usize] = next;
                next += 1;
            }
        }
        let mut new_init = vec![0u64; next as usize];
        for (old, &nn) in new_of.iter().enumerate() {
            if nn != u32::MAX {
                new_init[nn as usize] = ctx.init[old];
            }
        }
        p.init = new_init;
        p.n_slots = next;
        Some(new_of)
    } else {
        p.n_slots = ctx.init.len() as u32;
        p.init = std::mem::take(&mut ctx.init);
        None
    };
    let map_slot = |s: u32| -> u32 {
        match &remap {
            Some(m) => m[s as usize],
            None => s,
        }
    };

    // Re-emit the combinational stream. The cone vector keeps its
    // length — removed cones become empty ranges — so the executor's
    // scheduling bitmask indices stay valid.
    let mut new_insts: Vec<Inst> = Vec::new();
    let mut new_cones: Vec<Cone> = Vec::with_capacity(p.cones.len());
    for (ci, block) in cone_blocks.iter().enumerate() {
        let start = new_insts.len() as u32;
        let old_start = p.cones[ci].insts.start;
        for inst in block {
            new_insts.push(re_emit(*inst, old_start, start, &map_slot));
        }
        new_cones.push(Cone {
            target: p.cones[ci].target,
            insts: start..new_insts.len() as u32,
        });
    }

    // Re-emit the sequential stream: register sampling first (offset 0,
    // as compiled), then each write port's enable/address/data blocks.
    let mut new_seq: Vec<Inst> = Vec::new();
    let old_reg_start = p.reg_sample_insts.start;
    for inst in &reg_block {
        new_seq.push(re_emit(*inst, old_reg_start, 0, &map_slot));
    }
    let reg_sample_insts = 0..new_seq.len() as u32;
    for (wi, wb) in write_blocks.iter().enumerate() {
        let w = &mut writes[wi];
        let old_starts = [w.en_insts.start, w.addr_insts.start, w.data_insts.start];
        let mut ranges: [Range<u32>; 3] = [0..0, 0..0, 0..0];
        for k in 0..3 {
            let start = new_seq.len() as u32;
            for inst in &wb[k] {
                new_seq.push(re_emit(*inst, old_starts[k], start, &map_slot));
            }
            ranges[k] = start..new_seq.len() as u32;
        }
        [w.en_insts, w.addr_insts, w.data_insts] = ranges;
        w.en_slot = map_slot(w.en_slot);
        w.addr_slot = map_slot(w.addr_slot);
        w.data_slot = map_slot(w.data_slot);
    }
    let mut regs = p.regs.clone();
    for r in &mut regs {
        r.src = map_slot(r.src);
    }

    // Rebuild the dependency schedules from the instructions that
    // actually survived: exactly the net and memory reads of each live
    // cone, and of the write-sampling blocks.
    let mut by_net: Vec<Vec<u32>> = vec![Vec::new(); n_nets as usize];
    let mut by_mem: Vec<Vec<u32>> = vec![Vec::new(); p.mems.len()];
    for (ci, cone) in new_cones.iter().enumerate() {
        if cone.insts.is_empty() {
            continue;
        }
        let mut nets: Vec<u32> = Vec::new();
        let mut ms: Vec<u32> = Vec::new();
        for inst in &new_insts[rng(&cone.insts)] {
            for_each_read(inst, &mut |s| {
                if s < n_nets {
                    nets.push(s);
                }
            });
            if let Inst::ReadMem { mem, .. } = inst {
                ms.push(*mem);
            }
        }
        nets.sort_unstable();
        nets.dedup();
        ms.sort_unstable();
        ms.dedup();
        for n in nets {
            by_net[n as usize].push(ci as u32);
        }
        for m in ms {
            by_mem[m as usize].push(ci as u32);
        }
    }
    let (net_sched_off, net_sched) = flatten_sched(by_net);
    let (mem_sched_off, mem_sched) = flatten_sched(by_mem);

    let mut net_schedules_write = vec![false; n_nets as usize];
    let mut mem_schedules_write = vec![false; p.mems.len()];
    for w in &writes {
        for r in [&w.en_insts, &w.addr_insts, &w.data_insts] {
            for inst in &new_seq[rng(r)] {
                for_each_read(inst, &mut |s| {
                    if s < n_nets {
                        net_schedules_write[s as usize] = true;
                    }
                });
                if let Inst::ReadMem { mem, .. } = inst {
                    mem_schedules_write[*mem as usize] = true;
                }
            }
        }
        for s in [w.en_slot, w.addr_slot, w.data_slot] {
            if s < n_nets {
                net_schedules_write[s as usize] = true;
            }
        }
    }

    p.n_active_cones = new_cones.iter().filter(|c| !c.insts.is_empty()).count() as u32;
    p.insts = new_insts;
    p.cones = new_cones;
    p.net_sched_off = net_sched_off;
    p.net_sched = net_sched;
    p.mem_sched_off = mem_sched_off;
    p.mem_sched = mem_sched;
    p.net_schedules_write = net_schedules_write;
    p.mem_schedules_write = mem_schedules_write;
    p.seq_insts = new_seq;
    p.reg_sample_insts = reg_sample_insts;
    p.regs = regs;
    p.writes = writes;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompiledProgram, Expr, ModuleBuilder};
    use scflow_hwtypes::Bv;

    fn lvl(l: u8) -> PassConfig {
        PassConfig::for_level(l)
    }

    #[test]
    fn constant_cones_bake_through_nets() {
        let mut b = ModuleBuilder::new("konst");
        let a = b.input("a", 8);
        let five = b.comb("five", Expr::lit(5, 8));
        let d = b.comb("d", b.n(five).add(Expr::lit(3, 8)));
        b.output("y", b.n(d).xor(b.n(a)));
        let m = b.build().unwrap();
        let p0 = CompiledProgram::compile(&m).unwrap();
        let p1 = CompiledProgram::compile_with(&m, &lvl(1)).unwrap();
        assert!(p1.instruction_count() < p0.instruction_count());
        let mut s0 = p0.simulator();
        let mut s1 = p1.simulator();
        for v in [0u64, 7, 128, 255] {
            s0.set_input("a", Bv::new(v, 8));
            s1.set_input("a", Bv::new(v, 8));
            s0.settle();
            s1.settle();
            assert_eq!(s0.output("y"), s1.output("y"));
        }
    }

    #[test]
    fn identical_cones_collapse_to_aliases() {
        let mut b = ModuleBuilder::new("twins");
        let a = b.input("a", 8);
        let x = b.input("x", 8);
        let c1 = b.comb("c1", b.n(a).add(b.n(x)).mul(b.n(a).xor(b.n(x))));
        let c2 = b.comb("c2", b.n(a).add(b.n(x)).mul(b.n(a).xor(b.n(x))));
        b.output("y", b.n(c1).and(b.n(c2)));
        let m = b.build().unwrap();
        let p0 = CompiledProgram::compile(&m).unwrap();
        let p1 = CompiledProgram::compile_with(&m, &lvl(1)).unwrap();
        assert!(p1.instruction_count() < p0.instruction_count());
        let p2 = CompiledProgram::compile_with(&m, &lvl(2)).unwrap();
        assert!(p2.slot_count() < p0.slot_count());
        let mut s0 = p0.simulator();
        let mut s2 = p2.simulator();
        for (va, vx) in [(3u64, 9u64), (255, 255), (0, 1), (170, 85)] {
            s0.set_input("a", Bv::new(va, 8));
            s0.set_input("x", Bv::new(vx, 8));
            s2.set_input("a", Bv::new(va, 8));
            s2.set_input("x", Bv::new(vx, 8));
            s0.settle();
            s2.settle();
            assert_eq!(s0.output("y"), s2.output("y"));
        }
    }

    #[test]
    fn dead_cones_drop_and_are_recorded() {
        let mut b = ModuleBuilder::new("dead");
        let a = b.input("a", 8);
        let dead = b.comb("unread", b.n(a).mul(b.n(a)).add(Expr::lit(1, 8)));
        b.output("y", b.n(a).not());
        let m = b.build().unwrap();
        let p0 = CompiledProgram::compile(&m).unwrap();
        let p1 = CompiledProgram::compile_with(&m, &lvl(1)).unwrap();
        assert!(p1.instruction_count() < p0.instruction_count());
        assert!(!p1.retained_nets()[dead.0]);
        assert_eq!(
            p1.retained_nets().iter().filter(|&&r| !r).count(),
            1,
            "only the unread cone may be removed"
        );
        assert!(p0.retained_nets().iter().all(|&r| r));
        // The removed net is masked out of coverage, the rest still toggles.
        let mut s1 = p1.simulator();
        s1.set_coverage(true);
        for v in [0u64, 255, 1, 254] {
            s1.set_input("a", Bv::new(v, 8));
            s1.tick();
        }
        let cov = s1.coverage().unwrap();
        assert_eq!(cov.flips(dead.0), 0);
        assert!(cov.total_flips() > 0);
    }

    #[test]
    fn memory_cones_survive_with_identical_violations() {
        let mut b = ModuleBuilder::new("mems");
        let sel = b.input("sel", 1);
        let addr = b.input("addr", 4);
        // Constant cones ahead of the branchy one, so re-emission moves
        // the branch block and exercises the jump rebase.
        let k = b.comb("k", Expr::lit(9, 8));
        let k2 = b.comb("k2", b.n(k).add(Expr::lit(1, 8)));
        let rom = b.rom("rom", 8, &[10, 20, 30, 40]);
        let r1 = Expr::read_mem(rom, b.n(addr), 8);
        let r2 = Expr::read_mem(rom, b.n(addr).add(Expr::lit(1, 4)), 8);
        let mv = b.comb("mv", b.n(sel).mux(r1, r2));
        let ram = b.memory("ram", 8, vec![Bv::zero(8); 4]);
        b.mem_write(ram, b.n(addr), b.n(mv), Expr::lit(1, 1));
        let rd = b.comb("rd", Expr::read_mem(ram, b.n(addr), 8));
        b.output("y", b.n(mv).add(b.n(k2)));
        b.output("z", b.n(rd));
        let m = b.build().unwrap();
        let p0 = CompiledProgram::compile(&m).unwrap();
        let p2 = CompiledProgram::compile_with(&m, &lvl(2)).unwrap();
        let mut s0 = p0.simulator();
        let mut s2 = p2.simulator();
        s0.check_addresses = true;
        s2.check_addresses = true;
        for s in [&mut s0, &mut s2] {
            s.watch_port("y");
            s.watch_port("z");
        }
        for c in 0..32u64 {
            for s in [&mut s0, &mut s2] {
                s.set_input("sel", Bv::new(c & 1, 1));
                s.set_input("addr", Bv::new(c % 16, 4));
                s.tick();
            }
            assert_eq!(s0.output("y"), s2.output("y"), "cycle {c}");
            assert_eq!(s0.output("z"), s2.output("z"), "cycle {c}");
        }
        assert!(!s0.violations().is_empty(), "stimulus must overrun");
        assert_eq!(s0.violations(), s2.violations());
        assert_eq!(s0.waveform_vcd(40_000), s2.waveform_vcd(40_000));
        // Bit-parallel engine agrees on the same program.
        let mut b0 = p0.bit_simulator();
        let mut b2 = p2.bit_simulator();
        for c in 0..32u64 {
            for s in [&mut b0, &mut b2] {
                s.set_input("sel", Bv::new(c & 1, 1));
                s.set_input("addr", Bv::new(c % 16, 4));
                s.tick();
            }
            assert_eq!(b0.output("y"), b2.output("y"), "bitpar cycle {c}");
            assert_eq!(b0.output("z"), b2.output("z"), "bitpar cycle {c}");
        }
    }

    #[test]
    fn registered_datapath_matches_across_levels() {
        let mut b = ModuleBuilder::new("regs");
        let din = b.input("din", 8);
        let acc = b.reg("acc", 8, Bv::zero(8));
        let t1 = b.comb("t1", b.n(din).add(Expr::lit(0, 8)).xor(b.n(acc)));
        let t2 = b.comb("t2", b.n(din).add(Expr::lit(0, 8)).xor(b.n(acc)));
        b.set_next(acc, b.n(t1).add(b.n(t2).mul(Expr::lit(3, 8))));
        b.output("q", b.n(acc));
        let m = b.build().unwrap();
        let p0 = CompiledProgram::compile(&m).unwrap();
        let p2 = CompiledProgram::compile_with(&m, &lvl(2)).unwrap();
        let mut s0 = p0.simulator();
        let mut s2 = p2.simulator();
        for c in 0..64u64 {
            let v = Bv::new((c * 37) % 256, 8);
            s0.set_input("din", v);
            s2.set_input("din", v);
            s0.tick();
            s2.tick();
            assert_eq!(s0.output("q"), s2.output("q"), "cycle {c}");
        }
    }

    #[test]
    fn idempotent_and_identity_tagged() {
        let mut b = ModuleBuilder::new("idem");
        let a = b.input("a", 8);
        let c1 = b.comb("c1", b.n(a).add(Expr::lit(7, 8)));
        let c2 = b.comb("c2", b.n(a).add(Expr::lit(7, 8)));
        b.output("y", b.n(c1).xor(b.n(c2)));
        let m = b.build().unwrap();
        let p2 = CompiledProgram::compile_with(&m, &lvl(2)).unwrap();
        let mut again = p2.clone();
        optimize_program(&mut again, &lvl(2));
        assert_eq!(p2.state_identity(), again.state_identity());

        // Same module, different pass level: identities must differ
        // even when the passes change nothing structurally.
        let mut b = ModuleBuilder::new("nop");
        let a = b.input("a", 4);
        b.output("y", b.n(a).not());
        let m = b.build().unwrap();
        let p0 = CompiledProgram::compile(&m).unwrap();
        let p1 = CompiledProgram::compile_with(&m, &lvl(1)).unwrap();
        assert_ne!(p0.state_identity(), p1.state_identity());
        // And a snapshot from one never restores onto the other.
        let s1 = p1.simulator();
        let blob = s1.snapshot_state();
        let mut s0 = p0.simulator();
        assert!(!s0.restore_state(&blob));
        let mut s1b = p1.simulator();
        assert!(s1b.restore_state(&blob));
    }
}
