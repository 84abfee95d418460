//! One-time compilation of a [`Module`] into a flat levelized bytecode
//! program.
//!
//! The interpreter in [`crate::sim`] walks every expression tree on every
//! settle pass — the "HDL simulator" cost model behind the paper's
//! Figures 8 and 9. [`CompiledProgram`] pays that tree walk once: each
//! combinational assignment is lowered, in the module's topological
//! evaluation order, to a run of three-address instructions over a dense
//! `u64` slot array. Constant subtrees are folded at compile time, and the
//! per-assignment *cones* carry precomputed dependency sets so the executor
//! ([`crate::CompiledSim`]) can skip cones whose inputs did not change
//! since the last settle (activity gating).
//!
//! Compilation preserves the interpreter's observable semantics exactly:
//!
//! * mux arms containing memory reads become branches, so only the taken
//!   arm's `ReadMem` executes (same out-of-range-violation stream),
//! * write-port address/data expressions are kept in separate instruction
//!   blocks, evaluated only when the enable samples true,
//! * every arithmetic instruction reproduces the corresponding
//!   [`Bv`](scflow_hwtypes::Bv) operation bit for bit (wrapping, masking,
//!   shift-amount clamping, sign extension).

use crate::expr::{BinOp, Expr, UnaryOp};
use crate::module::{Module, PortDir};
use crate::RtlError;
use scflow_hwtypes::Bv;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::OnceLock;

/// Flattens per-key lists of cone indices into a CSR-style arena of
/// `(word, mask)` scheduling pairs: marking key `k` ORs each pair's mask
/// into the executor's pending-bitmask word — one operation schedules up
/// to 64 dependent cones. `off[k]..off[k + 1]` indexes key `k`'s pairs.
pub(crate) fn flatten_sched(lists: Vec<Vec<u32>>) -> (Vec<u32>, Vec<(u32, u64)>) {
    let mut off = Vec::with_capacity(lists.len() + 1);
    let mut flat: Vec<(u32, u64)> = Vec::new();
    off.push(0);
    for list in lists {
        // Lists are sorted, so same-word bits arrive consecutively.
        let mut cur: Option<(u32, u64)> = None;
        for ci in list {
            let (w, m) = (ci / 64, 1u64 << (ci % 64));
            match cur {
                Some((cw, cm)) if cw == w => cur = Some((cw, cm | m)),
                Some(pair) => {
                    flat.push(pair);
                    cur = Some((w, m));
                }
                None => cur = Some((w, m)),
            }
        }
        flat.extend(cur);
        off.push(flat.len() as u32);
    }
    (off, flat)
}

/// One three-address bytecode instruction over the slot array.
///
/// `dst`/`a`/`b`/`c` are slot indices; `w` is the result width where the
/// operation needs masking or a signed view. Jump targets are absolute
/// indices into the owning instruction array.
#[derive(Clone, Copy, PartialEq, Debug)]
pub(crate) enum Inst {
    Copy {
        dst: u32,
        a: u32,
    },
    Not {
        dst: u32,
        a: u32,
        w: u32,
    },
    Neg {
        dst: u32,
        a: u32,
        w: u32,
    },
    RedAnd {
        dst: u32,
        a: u32,
        w: u32,
    },
    RedOr {
        dst: u32,
        a: u32,
    },
    RedXor {
        dst: u32,
        a: u32,
    },
    Add {
        dst: u32,
        a: u32,
        b: u32,
        w: u32,
    },
    Sub {
        dst: u32,
        a: u32,
        b: u32,
        w: u32,
    },
    Mul {
        dst: u32,
        a: u32,
        b: u32,
        w: u32,
    },
    MulS {
        dst: u32,
        a: u32,
        b: u32,
        w: u32,
    },
    And {
        dst: u32,
        a: u32,
        b: u32,
    },
    Or {
        dst: u32,
        a: u32,
        b: u32,
    },
    Xor {
        dst: u32,
        a: u32,
        b: u32,
    },
    Shl {
        dst: u32,
        a: u32,
        b: u32,
        w: u32,
    },
    Shr {
        dst: u32,
        a: u32,
        b: u32,
    },
    Sar {
        dst: u32,
        a: u32,
        b: u32,
        w: u32,
    },
    Eq {
        dst: u32,
        a: u32,
        b: u32,
    },
    Ne {
        dst: u32,
        a: u32,
        b: u32,
    },
    Ult {
        dst: u32,
        a: u32,
        b: u32,
    },
    Ule {
        dst: u32,
        a: u32,
        b: u32,
    },
    Slt {
        dst: u32,
        a: u32,
        b: u32,
        w: u32,
    },
    Sle {
        dst: u32,
        a: u32,
        b: u32,
        w: u32,
    },
    Mux {
        dst: u32,
        c: u32,
        t: u32,
        e: u32,
    },
    Slice {
        dst: u32,
        a: u32,
        lo: u32,
        w: u32,
    },
    Concat {
        dst: u32,
        a: u32,
        b: u32,
        bw: u32,
    },
    Zext {
        dst: u32,
        a: u32,
        w: u32,
    },
    Sext {
        dst: u32,
        a: u32,
        from: u32,
        to: u32,
    },
    ReadMem {
        dst: u32,
        a: u32,
        mem: u32,
        w: u32,
    },
    Jmp {
        to: u32,
    },
    JmpZero {
        c: u32,
        to: u32,
    },
    // Fused pairs produced by the peephole pass ([`fuse_block`]): a
    // compare/test whose only consumer is the select that follows it.
    // FSM next-state logic is almost entirely this shape, so fusing
    // halves its dispatch count.
    EqMux {
        dst: u32,
        a: u32,
        b: u32,
        t: u32,
        e: u32,
    },
    NeMux {
        dst: u32,
        a: u32,
        b: u32,
        t: u32,
        e: u32,
    },
    UltMux {
        dst: u32,
        a: u32,
        b: u32,
        t: u32,
        e: u32,
    },
    AndMux {
        dst: u32,
        a: u32,
        b: u32,
        t: u32,
        e: u32,
    },
    BitMux {
        dst: u32,
        a: u32,
        lo: u32,
        t: u32,
        e: u32,
    },
    /// Fused `sext(a) * sext(b)` (both from the same source width) — the
    /// signed-multiply shape every datapath product lowers to.
    MulSS {
        dst: u32,
        a: u32,
        b: u32,
        from: u32,
        w: u32,
    },
}

/// `true` if `inst` reads slot `s` (used by [`fuse_block`] to prove a
/// fused-away temporary is dead).
fn reads_slot(inst: &Inst, s: u32) -> bool {
    match *inst {
        Inst::Copy { a, .. }
        | Inst::Not { a, .. }
        | Inst::Neg { a, .. }
        | Inst::RedAnd { a, .. }
        | Inst::RedOr { a, .. }
        | Inst::RedXor { a, .. }
        | Inst::Slice { a, .. }
        | Inst::Zext { a, .. }
        | Inst::Sext { a, .. }
        | Inst::ReadMem { a, .. } => a == s,
        Inst::Add { a, b, .. }
        | Inst::Sub { a, b, .. }
        | Inst::Mul { a, b, .. }
        | Inst::MulS { a, b, .. }
        | Inst::MulSS { a, b, .. }
        | Inst::And { a, b, .. }
        | Inst::Or { a, b, .. }
        | Inst::Xor { a, b, .. }
        | Inst::Shl { a, b, .. }
        | Inst::Shr { a, b, .. }
        | Inst::Sar { a, b, .. }
        | Inst::Eq { a, b, .. }
        | Inst::Ne { a, b, .. }
        | Inst::Ult { a, b, .. }
        | Inst::Ule { a, b, .. }
        | Inst::Slt { a, b, .. }
        | Inst::Sle { a, b, .. }
        | Inst::Concat { a, b, .. } => a == s || b == s,
        Inst::Mux { c, t, e, .. } => c == s || t == s || e == s,
        Inst::EqMux { a, b, t, e, .. }
        | Inst::NeMux { a, b, t, e, .. }
        | Inst::UltMux { a, b, t, e, .. }
        | Inst::AndMux { a, b, t, e, .. } => a == s || b == s || t == s || e == s,
        Inst::BitMux { a, t, e, .. } => a == s || t == s || e == s,
        Inst::Jmp { .. } => false,
        Inst::JmpZero { c, .. } => c == s,
    }
}

/// Peephole fusion over the freshly compiled block `insts[start..]`.
///
/// Fuses `cmp/test -> Mux` pairs and `Sext, Sext -> MulS` triples into
/// single instructions when the intermediate is a dead temporary
/// (`>= first_temp`, never read again in the block; temporaries never
/// escape their block). Blocks containing jumps are left alone so
/// absolute jump targets stay valid. Runs before the block's instruction
/// range is recorded, so earlier blocks never shift later indices.
fn fuse_block(insts: &mut Vec<Inst>, start: usize, first_temp: u32) {
    if insts[start..]
        .iter()
        .any(|i| matches!(i, Inst::Jmp { .. } | Inst::JmpZero { .. }))
    {
        return;
    }
    let block: Vec<Inst> = insts.split_off(start);
    let mut i = 0;
    while i < block.len() {
        if i + 2 < block.len() {
            if let (
                Inst::Sext {
                    dst: t1,
                    a,
                    from: f1,
                    to: w1,
                },
                Inst::Sext {
                    dst: t2,
                    a: b,
                    from: f2,
                    to: w2,
                },
                Inst::MulS {
                    dst,
                    a: m1,
                    b: m2,
                    w,
                },
            ) = (block[i], block[i + 1], block[i + 2])
            {
                if m1 == t1
                    && m2 == t2
                    && t1 != t2
                    && f1 == f2
                    && f1 <= w
                    && w1 == w
                    && w2 == w
                    && t1 >= first_temp
                    && t2 >= first_temp
                    && !block[i + 3..]
                        .iter()
                        .any(|x| reads_slot(x, t1) || reads_slot(x, t2))
                {
                    insts.push(Inst::MulSS {
                        dst,
                        a,
                        b,
                        from: f1,
                        w,
                    });
                    i += 3;
                    continue;
                }
            }
        }
        if i + 1 < block.len() {
            if let Inst::Mux { dst, c, t, e } = block[i + 1] {
                if c >= first_temp
                    && t != c
                    && e != c
                    && !block[i + 2..].iter().any(|x| reads_slot(x, c))
                {
                    let fused = match block[i] {
                        Inst::Eq { dst: d, a, b } if d == c => {
                            Some(Inst::EqMux { dst, a, b, t, e })
                        }
                        Inst::Ne { dst: d, a, b } if d == c => {
                            Some(Inst::NeMux { dst, a, b, t, e })
                        }
                        Inst::Ult { dst: d, a, b } if d == c => {
                            Some(Inst::UltMux { dst, a, b, t, e })
                        }
                        Inst::And { dst: d, a, b } if d == c => {
                            Some(Inst::AndMux { dst, a, b, t, e })
                        }
                        Inst::Slice {
                            dst: d,
                            a,
                            lo,
                            w: 1,
                        } if d == c => Some(Inst::BitMux { dst, a, lo, t, e }),
                        _ => None,
                    };
                    if let Some(f) = fused {
                        insts.push(f);
                        i += 2;
                        continue;
                    }
                }
            }
        }
        insts.push(block[i]);
        i += 1;
    }
}

/// One combinational assignment compiled to a run of instructions. Its
/// dependency set lives inverted in the program's fanout lists
/// ([`CompiledProgram::net_fanout`]): changing a dependency schedules the
/// cone. A fully constant-folded assignment has an empty instruction
/// range — its target slot is baked into the initial image.
#[derive(Clone, Debug)]
pub(crate) struct Cone {
    pub target: u32,
    pub insts: Range<u32>,
}

/// A compiled register: after the program's register-sampling block ran,
/// `src` holds the sampled next value for net slot `q`.
#[derive(Clone, Debug)]
pub(crate) struct CompiledReg {
    pub q: u32,
    pub src: u32,
}

/// A compiled memory write port. The enable block always runs at the clock
/// edge; the address and data blocks run only when the enable sampled
/// true, mirroring the interpreter's lazy evaluation.
#[derive(Clone, Debug)]
pub(crate) struct CompiledWrite {
    pub mem: u32,
    pub en_insts: Range<u32>,
    pub en_slot: u32,
    pub addr_insts: Range<u32>,
    pub addr_slot: u32,
    pub data_insts: Range<u32>,
    pub data_slot: u32,
}

/// A memory's compile-time image.
#[derive(Clone, Debug)]
pub(crate) struct CompiledMem {
    pub name: String,
    pub width: u32,
    pub init: Vec<u64>,
    /// No write port: the memory is a ROM, and `init` is its contents
    /// for every executor and lane (executors keep per-lane words only
    /// for RAMs).
    pub rom: bool,
}

/// A top-level port resolved to its slot.
#[derive(Clone, Debug)]
pub(crate) struct CompiledPort {
    pub name: String,
    pub input: bool,
    pub slot: u32,
    pub width: u32,
}

/// An RTL module lowered to flat levelized bytecode.
///
/// Compile once with [`CompiledProgram::compile`], then instantiate any
/// number of independent executors with
/// [`simulator`](CompiledProgram::simulator). The program owns everything
/// the executor needs (no borrow of the source [`Module`]).
///
/// # Example
///
/// ```
/// use scflow_rtl::{CompiledProgram, Expr, ModuleBuilder};
/// use scflow_hwtypes::Bv;
///
/// let mut b = ModuleBuilder::new("acc");
/// let din = b.input("din", 8);
/// let acc = b.reg("acc", 8, Bv::zero(8));
/// b.set_next(acc, Expr::net(acc, 8).add(Expr::net(din, 8)));
/// b.output("q", Expr::net(acc, 8));
/// let module = b.build()?;
///
/// let program = CompiledProgram::compile(&module)?;
/// let mut sim = program.simulator();
/// sim.set_input("din", Bv::new(3, 8));
/// sim.run(4);
/// assert_eq!(sim.output("q").as_u64(), 12);
/// # Ok::<(), scflow_rtl::RtlError>(())
/// ```
#[derive(Clone, Debug)]
pub struct CompiledProgram {
    pub(crate) name: String,
    pub(crate) n_slots: u32,
    /// Initial slot image: registers at `init`, inputs zero, constants
    /// and folded assignment targets at their values.
    pub(crate) init: Vec<u64>,
    pub(crate) net_names: Vec<String>,
    pub(crate) net_widths: Vec<u32>,
    pub(crate) ports: Vec<CompiledPort>,
    pub(crate) insts: Vec<Inst>,
    pub(crate) cones: Vec<Cone>,
    /// Cones with a non-empty instruction range (not constant-folded).
    pub(crate) n_active_cones: u32,
    /// CSR scheduling pairs: when net `n` changes, OR each
    /// `(word, mask)` in `net_sched[net_sched_off[n]..net_sched_off[n + 1]]`
    /// into the executor's pending bitmask (one OR schedules up to 64
    /// dependent cones).
    pub(crate) net_sched_off: Vec<u32>,
    pub(crate) net_sched: Vec<(u32, u64)>,
    /// Scheduling pairs for when memory `m`'s contents change.
    pub(crate) mem_sched_off: Vec<u32>,
    pub(crate) mem_sched: Vec<(u32, u64)>,
    /// Per-net / per-memory flag: some write port's enable, address or
    /// data expression reads it (changing it schedules write sampling).
    pub(crate) net_schedules_write: Vec<bool>,
    pub(crate) mem_schedules_write: Vec<bool>,
    pub(crate) seq_insts: Vec<Inst>,
    /// The contiguous prefix of `seq_insts` holding every register's
    /// next-value block (executed as one run at each clock edge).
    pub(crate) reg_sample_insts: Range<u32>,
    pub(crate) regs: Vec<CompiledReg>,
    pub(crate) writes: Vec<CompiledWrite>,
    pub(crate) mems: Vec<CompiledMem>,
    /// Tag of the [`PassConfig`] this program was optimized under
    /// (folded into [`state_identity`](CompiledProgram::state_identity)
    /// so snapshots never cross pass configurations, even when the
    /// optimizer happened to change nothing).
    pub(crate) pass_tag: u64,
    /// Per-net flag: `false` for nets whose driving cone was removed by
    /// dead-cone elimination. Such a slot keeps its power-on value
    /// forever; coverage collection masks it out.
    pub(crate) retained_nets: Vec<bool>,
    /// [`state_identity`](CompiledProgram::state_identity), computed on
    /// first use: every snapshot and restore asks for it, and the
    /// instruction streams it folds cost far more than the small state
    /// blob itself. The optimizer clears it when it rewrites the program.
    pub(crate) identity: OnceLock<u64>,
}

impl CompiledProgram {
    /// Compiles a validated module into bytecode.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError`] if the module violates a compile-time
    /// invariant. Modules produced by [`crate::ModuleBuilder`] always
    /// compile; the `Result` shields against hand-constructed IR.
    pub fn compile(module: &Module) -> Result<CompiledProgram, RtlError> {
        CompiledProgram::compile_with(module, &scflow_hwtypes::PassConfig::off())
    }

    /// Compiles a validated module and then runs the configured
    /// optimization passes ([`crate::opt`]) over the bytecode. With
    /// `passes` all-off this is exactly [`compile`](CompiledProgram::compile).
    ///
    /// # Errors
    ///
    /// Returns [`RtlError`] if the module violates a compile-time
    /// invariant (the passes themselves never fail).
    pub fn compile_with(
        module: &Module,
        passes: &scflow_hwtypes::PassConfig,
    ) -> Result<CompiledProgram, RtlError> {
        for m in &module.mems {
            if m.init.is_empty() {
                return Err(RtlError::WidthMismatch(format!(
                    "memory `{}` has zero words",
                    m.name
                )));
            }
        }
        let n_nets = module.nets.len() as u32;
        let mut c = Compiler {
            n_slots: n_nets,
            init: vec![0u64; module.nets.len()],
            const_pool: HashMap::new(),
        };
        for r in &module.regs {
            c.init[r.q.0] = r.init.as_u64();
        }

        // Dependency sets are stored inverted: per-net / per-memory fanout
        // lists let the executor schedule exactly the dependent cones when
        // a value changes, instead of scanning every cone's deps on every
        // settle pass.
        let mut insts = Vec::new();
        let mut cones: Vec<Cone> = Vec::new();
        let mut by_net: Vec<Vec<u32>> = vec![Vec::new(); n_nets as usize];
        let mut by_mem: Vec<Vec<u32>> = vec![Vec::new(); module.mems.len()];
        for &i in &module.comb_order {
            let target = module.comb_targets[i].0 as u32;
            let expr = &module.comb_exprs[i];
            let start = insts.len() as u32;
            match c.compile_expr(expr, Some(target), &mut insts) {
                V::Const(v) => {
                    debug_assert_eq!(insts.len() as u32, start);
                    c.init[target as usize] = v.as_u64();
                }
                V::Slot(s) if s == target => {}
                V::Slot(s) => insts.push(Inst::Copy { dst: target, a: s }),
            }
            fuse_block(&mut insts, start as usize, n_nets);
            let end = insts.len() as u32;

            let ci = cones.len() as u32;
            if end > start {
                let mut nets: Vec<u32> = Vec::new();
                expr.for_each_net(&mut |id| nets.push(id.0 as u32));
                nets.sort_unstable();
                nets.dedup();
                for n in nets {
                    by_net[n as usize].push(ci);
                }
                let mut mems: Vec<u32> = Vec::new();
                collect_mems(expr, &mut mems);
                mems.sort_unstable();
                mems.dedup();
                for m in mems {
                    by_mem[m as usize].push(ci);
                }
            }
            cones.push(Cone {
                target,
                insts: start..end,
            });
        }
        let (net_sched_off, net_sched) = flatten_sched(by_net);
        let (mem_sched_off, mem_sched) = flatten_sched(by_mem);
        let n_active_cones = cones.iter().filter(|c| !c.insts.is_empty()).count() as u32;

        let mut seq_insts = Vec::new();
        let mut regs = Vec::new();
        for r in &module.regs {
            let bstart = seq_insts.len();
            let src = c.compile_to_fresh(&r.next, &mut seq_insts);
            fuse_block(&mut seq_insts, bstart, n_nets);
            regs.push(CompiledReg {
                q: r.q.0 as u32,
                src,
            });
        }
        let reg_sample_insts = 0..seq_insts.len() as u32;

        let mut writes = Vec::new();
        for (mi, m) in module.mems.iter().enumerate() {
            for wp in &m.write_ports {
                let en_start = seq_insts.len() as u32;
                let en_slot = c.compile_to_fresh(&wp.enable, &mut seq_insts);
                fuse_block(&mut seq_insts, en_start as usize, n_nets);
                let en_end = seq_insts.len() as u32;
                let addr_slot = c.compile_to_fresh(&wp.addr, &mut seq_insts);
                fuse_block(&mut seq_insts, en_end as usize, n_nets);
                let addr_end = seq_insts.len() as u32;
                let data_slot = c.compile_to_fresh(&wp.data, &mut seq_insts);
                fuse_block(&mut seq_insts, addr_end as usize, n_nets);
                let data_end = seq_insts.len() as u32;
                writes.push(CompiledWrite {
                    mem: mi as u32,
                    en_insts: en_start..en_end,
                    en_slot,
                    addr_insts: en_end..addr_end,
                    addr_slot,
                    data_insts: addr_end..data_end,
                    data_slot,
                });
            }
        }

        // Write-port fanin, as per-net / per-memory flags: a change to a
        // flagged value schedules write sampling at the next edge (ports
        // are gated all-or-nothing so multi-port commit order is
        // preserved).
        let mut net_schedules_write = vec![false; n_nets as usize];
        let mut mem_schedules_write = vec![false; module.mems.len()];
        for m in &module.mems {
            for wp in &m.write_ports {
                for e in [&wp.enable, &wp.addr, &wp.data] {
                    e.for_each_net(&mut |nid| net_schedules_write[nid.0] = true);
                    let mut ms: Vec<u32> = Vec::new();
                    collect_mems(e, &mut ms);
                    for mm in ms {
                        mem_schedules_write[mm as usize] = true;
                    }
                }
            }
        }

        let mut ports: Vec<CompiledPort> = module
            .ports
            .iter()
            .map(|p| CompiledPort {
                name: p.name.clone(),
                input: p.dir == PortDir::Input,
                slot: p.net.0 as u32,
                width: p.width,
            })
            .collect();
        // Outputs first: testbenches peek outputs every cycle but poke
        // inputs only on change, and port lookup is a linear scan.
        ports.sort_by_key(|p| p.input);

        let mut prog = CompiledProgram {
            name: module.name.clone(),
            n_slots: c.n_slots,
            init: c.init,
            net_names: module.nets.iter().map(|n| n.name.clone()).collect(),
            net_widths: module.nets.iter().map(|n| n.width).collect(),
            ports,
            insts,
            cones,
            n_active_cones,
            net_sched_off,
            net_sched,
            mem_sched_off,
            mem_sched,
            net_schedules_write,
            mem_schedules_write,
            seq_insts,
            reg_sample_insts,
            regs,
            writes,
            mems: module
                .mems
                .iter()
                .map(|m| CompiledMem {
                    name: m.name.clone(),
                    width: m.width,
                    init: m.init.iter().map(|v| v.as_u64()).collect(),
                    rom: m.write_ports.is_empty(),
                })
                .collect(),
            pass_tag: scflow_hwtypes::PassConfig::off().stable_tag(),
            retained_nets: vec![true; n_nets as usize],
            identity: OnceLock::new(),
        };
        crate::opt::optimize_program(&mut prog, passes);
        Ok(prog)
    }

    /// The compiled module's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total bytecode instructions (combinational + sequential).
    pub fn instruction_count(&self) -> usize {
        self.insts.len() + self.seq_insts.len()
    }

    /// Slots in the value array (nets, temporaries, interned constants).
    pub fn slot_count(&self) -> usize {
        self.n_slots as usize
    }

    /// The [`scflow_hwtypes::PassConfig::stable_tag`] of the pass
    /// configuration this program was compiled under.
    pub fn pass_tag(&self) -> u64 {
        self.pass_tag
    }

    /// Per-net retention flags: `false` for nets whose driving cone was
    /// removed by dead-cone elimination (the slot keeps its power-on
    /// value; coverage collection masks it out). Index = net id.
    pub fn retained_nets(&self) -> &[bool] {
        &self.retained_nets
    }

    /// Creates a fresh one-lane executor over this program (registers
    /// at `init`, inputs zero, memories at their initial contents).
    pub fn simulator(&self) -> crate::CompiledSim<'_> {
        crate::CompiledSim::new(self)
    }

    /// Creates a fresh 64-lane executor over this program (every lane
    /// at the power-on image).
    pub fn bit_simulator(&self) -> crate::BitRtlSim<'_> {
        crate::BitRtlSim::new(self)
    }

    /// A deterministic structural fingerprint of the compiled program —
    /// the design-identity word snapshot blobs embed, so state captured
    /// on one program is never restored onto a different one. Folds the
    /// layout that state depends on (slot count, instruction counts,
    /// port table, register/write tables, memory geometry and which
    /// memories are ROMs) **and** the program's content (power-on slot
    /// image, memory contents, both instruction streams) — two designs
    /// that compile to the same layout but different constants or
    /// opcodes must not collide. Computed once per program.
    pub fn state_identity(&self) -> u64 {
        *self.identity.get_or_init(|| self.compute_identity())
    }

    fn compute_identity(&self) -> u64 {
        let mut h = scflow_hwtypes::Fnv64::new();
        h.write_str(&self.name);
        h.write_u64(self.pass_tag);
        h.write_u64(u64::from(self.n_slots));
        h.write_u64(self.insts.len() as u64);
        h.write_u64(self.seq_insts.len() as u64);
        h.write_u64(self.cones.len() as u64);
        h.write_u64(self.regs.len() as u64);
        h.write_u64(self.writes.len() as u64);
        for p in &self.ports {
            h.write_str(&p.name);
            h.write_u64(u64::from(p.input));
            h.write_u64(u64::from(p.slot));
            h.write_u64(u64::from(p.width));
        }
        for m in &self.mems {
            h.write_str(&m.name);
            h.write_u64(u64::from(m.width));
            h.write_u64(u64::from(m.rom));
            h.write_u64(m.init.len() as u64);
            for v in &m.init {
                h.write_u64(*v);
            }
        }
        for v in &self.init {
            h.write_u64(*v);
        }
        // Instruction content via the derived Debug form: slot indices,
        // widths and opcodes all land in the digest without a 40-arm
        // match; snapshots are rare enough that the formatting cost is
        // noise next to serialising the state itself.
        h.write_str(&format!("{:?}", self.insts));
        h.write_str(&format!("{:?}", self.seq_insts));
        h.finish()
    }
}

/// A compile-time value: either already materialised in a slot, or a
/// constant still eligible for folding into its consumer.
enum V {
    Slot(u32),
    Const(Bv),
}

struct Compiler {
    n_slots: u32,
    init: Vec<u64>,
    const_pool: HashMap<(u64, u32), u32>,
}

impl Compiler {
    fn temp(&mut self) -> u32 {
        let s = self.n_slots;
        self.n_slots += 1;
        self.init.push(0);
        s
    }

    fn konst(&mut self, v: Bv) -> u32 {
        let key = (v.as_u64(), v.width());
        if let Some(&s) = self.const_pool.get(&key) {
            return s;
        }
        let s = self.n_slots;
        self.n_slots += 1;
        self.init.push(v.as_u64());
        self.const_pool.insert(key, s);
        s
    }

    fn slot_of(&mut self, v: V) -> u32 {
        match v {
            V::Slot(s) => s,
            V::Const(b) => self.konst(b),
        }
    }

    /// Compiles `e` so its value ends up in a freshly allocated slot and
    /// returns that slot (constants are interned rather than copied).
    fn compile_to_fresh(&mut self, e: &Expr, insts: &mut Vec<Inst>) -> u32 {
        let v = self.compile_expr(e, None, insts);
        self.slot_of(v)
    }

    /// Compiles `e` so its value ends up in slot `dst`.
    fn compile_to_slot(&mut self, e: &Expr, dst: u32, insts: &mut Vec<Inst>) {
        match self.compile_expr(e, Some(dst), insts) {
            V::Slot(s) if s == dst => {}
            v => {
                let s = self.slot_of(v);
                insts.push(Inst::Copy { dst, a: s });
            }
        }
    }

    /// Compiles one expression tree, folding constant subtrees. `want`
    /// names a preferred destination slot for the *root* operation; leaf
    /// nodes and folded constants ignore it (the caller copies).
    fn compile_expr(&mut self, e: &Expr, want: Option<u32>, insts: &mut Vec<Inst>) -> V {
        match e {
            Expr::Const(v) => V::Const(*v),
            Expr::Net(id, _) => V::Slot(id.0 as u32),
            Expr::Unary(op, a) => {
                let w = a.width();
                let va = self.compile_expr(a, None, insts);
                if let V::Const(av) = va {
                    return V::Const(fold_unary(*op, av));
                }
                let sa = self.slot_of(va);
                let dst = want.unwrap_or_else(|| self.temp());
                insts.push(match op {
                    UnaryOp::Not => Inst::Not { dst, a: sa, w },
                    UnaryOp::Neg => Inst::Neg { dst, a: sa, w },
                    UnaryOp::RedAnd => Inst::RedAnd { dst, a: sa, w },
                    UnaryOp::RedOr => Inst::RedOr { dst, a: sa },
                    UnaryOp::RedXor => Inst::RedXor { dst, a: sa },
                });
                V::Slot(dst)
            }
            Expr::Binary(op, a, b) => {
                let w = a.width();
                let va = self.compile_expr(a, None, insts);
                let vb = self.compile_expr(b, None, insts);
                if let (V::Const(x), V::Const(y)) = (&va, &vb) {
                    return V::Const(fold_binary(*op, *x, *y));
                }
                let sa = self.slot_of(va);
                let sb = self.slot_of(vb);
                let dst = want.unwrap_or_else(|| self.temp());
                insts.push(match op {
                    BinOp::Add => Inst::Add {
                        dst,
                        a: sa,
                        b: sb,
                        w,
                    },
                    BinOp::Sub => Inst::Sub {
                        dst,
                        a: sa,
                        b: sb,
                        w,
                    },
                    BinOp::Mul => Inst::Mul {
                        dst,
                        a: sa,
                        b: sb,
                        w,
                    },
                    BinOp::MulS => Inst::MulS {
                        dst,
                        a: sa,
                        b: sb,
                        w,
                    },
                    BinOp::And => Inst::And { dst, a: sa, b: sb },
                    BinOp::Or => Inst::Or { dst, a: sa, b: sb },
                    BinOp::Xor => Inst::Xor { dst, a: sa, b: sb },
                    BinOp::Shl => Inst::Shl {
                        dst,
                        a: sa,
                        b: sb,
                        w,
                    },
                    BinOp::Shr => Inst::Shr { dst, a: sa, b: sb },
                    BinOp::Sar => Inst::Sar {
                        dst,
                        a: sa,
                        b: sb,
                        w,
                    },
                    BinOp::Eq => Inst::Eq { dst, a: sa, b: sb },
                    BinOp::Ne => Inst::Ne { dst, a: sa, b: sb },
                    BinOp::Ult => Inst::Ult { dst, a: sa, b: sb },
                    BinOp::Ule => Inst::Ule { dst, a: sa, b: sb },
                    BinOp::Slt => Inst::Slt {
                        dst,
                        a: sa,
                        b: sb,
                        w,
                    },
                    BinOp::Sle => Inst::Sle {
                        dst,
                        a: sa,
                        b: sb,
                        w,
                    },
                });
                V::Slot(dst)
            }
            Expr::Mux(c, t, alt) => {
                // Compile the condition to the side so the eager branch
                // can place it directly before the `Mux` (where the
                // peephole pass fuses compare->select pairs). Arms there
                // are read-free, so moving the condition's instructions
                // after them cannot reorder any memory access.
                let mut cond_insts = Vec::new();
                let vc = self.compile_expr(c, None, &mut cond_insts);
                if let V::Const(cv) = vc {
                    // The interpreter evaluates only the taken arm; with a
                    // constant condition the other arm is dead code.
                    debug_assert!(cond_insts.is_empty());
                    let taken = if cv.any() { t } else { alt };
                    return self.compile_expr(taken, want, insts);
                }
                let sc = self.slot_of(vc);
                if has_read_mem(t) || has_read_mem(alt) {
                    // Branch so only the taken arm's ReadMem executes —
                    // keeps the address-violation stream identical to the
                    // interpreter's lazy arm evaluation. The condition
                    // must precede the branch.
                    insts.extend(cond_insts);
                    let dst = want.unwrap_or_else(|| self.temp());
                    let jz_at = insts.len();
                    insts.push(Inst::JmpZero { c: sc, to: 0 });
                    self.compile_to_slot(t, dst, insts);
                    let jmp_at = insts.len();
                    insts.push(Inst::Jmp { to: 0 });
                    let else_at = insts.len() as u32;
                    if let Inst::JmpZero { to, .. } = &mut insts[jz_at] {
                        *to = else_at;
                    }
                    self.compile_to_slot(alt, dst, insts);
                    let end = insts.len() as u32;
                    if let Inst::Jmp { to } = &mut insts[jmp_at] {
                        *to = end;
                    }
                    V::Slot(dst)
                } else {
                    let st = self.compile_to_fresh(t, insts);
                    let se = self.compile_to_fresh(alt, insts);
                    insts.extend(cond_insts);
                    let dst = want.unwrap_or_else(|| self.temp());
                    insts.push(Inst::Mux {
                        dst,
                        c: sc,
                        t: st,
                        e: se,
                    });
                    V::Slot(dst)
                }
            }
            Expr::Slice(a, hi, lo) => {
                let va = self.compile_expr(a, None, insts);
                if let V::Const(av) = va {
                    return V::Const(av.slice(*hi, *lo));
                }
                let sa = self.slot_of(va);
                let dst = want.unwrap_or_else(|| self.temp());
                insts.push(Inst::Slice {
                    dst,
                    a: sa,
                    lo: *lo,
                    w: hi - lo + 1,
                });
                V::Slot(dst)
            }
            Expr::Concat(a, b) => {
                let va = self.compile_expr(a, None, insts);
                let vb = self.compile_expr(b, None, insts);
                if let (V::Const(x), V::Const(y)) = (&va, &vb) {
                    return V::Const(x.concat(*y));
                }
                let bw = b.width();
                let sa = self.slot_of(va);
                let sb = self.slot_of(vb);
                let dst = want.unwrap_or_else(|| self.temp());
                insts.push(Inst::Concat {
                    dst,
                    a: sa,
                    b: sb,
                    bw,
                });
                V::Slot(dst)
            }
            Expr::Zext(a, w) => {
                let va = self.compile_expr(a, None, insts);
                if let V::Const(av) = va {
                    return V::Const(av.zext(*w));
                }
                let sa = self.slot_of(va);
                let dst = want.unwrap_or_else(|| self.temp());
                insts.push(Inst::Zext { dst, a: sa, w: *w });
                V::Slot(dst)
            }
            Expr::Sext(a, w) => {
                let from = a.width();
                let va = self.compile_expr(a, None, insts);
                if let V::Const(av) = va {
                    return V::Const(av.sext(*w));
                }
                let sa = self.slot_of(va);
                let dst = want.unwrap_or_else(|| self.temp());
                insts.push(Inst::Sext {
                    dst,
                    a: sa,
                    from,
                    to: *w,
                });
                V::Slot(dst)
            }
            Expr::ReadMem(mid, addr, w) => {
                // Never folded: contents are mutable and out-of-range
                // addresses must be observable at run time.
                let sa = self.compile_to_fresh(addr, insts);
                let dst = want.unwrap_or_else(|| self.temp());
                insts.push(Inst::ReadMem {
                    dst,
                    a: sa,
                    mem: mid.0 as u32,
                    w: *w,
                });
                V::Slot(dst)
            }
        }
    }
}

/// Compile-time evaluation of a unary operator — the interpreter's
/// semantics verbatim.
fn fold_unary(op: UnaryOp, a: Bv) -> Bv {
    match op {
        UnaryOp::Not => a.not(),
        UnaryOp::Neg => a.neg(),
        UnaryOp::RedAnd => Bv::bit(a.as_u64() == scflow_hwtypes::mask(a.width())),
        UnaryOp::RedOr => Bv::bit(a.any()),
        UnaryOp::RedXor => Bv::bit(a.as_u64().count_ones() % 2 == 1),
    }
}

/// Compile-time evaluation of a binary operator — the interpreter's
/// semantics verbatim.
fn fold_binary(op: BinOp, a: Bv, b: Bv) -> Bv {
    match op {
        BinOp::Add => a.add(b),
        BinOp::Sub => a.sub(b),
        BinOp::Mul => a.mul(b),
        BinOp::MulS => a.mul_signed(b),
        BinOp::And => a.and(b),
        BinOp::Or => a.or(b),
        BinOp::Xor => a.xor(b),
        BinOp::Shl => a.shl(b.as_u64().min(64) as u32),
        BinOp::Shr => a.shr(b.as_u64().min(64) as u32),
        BinOp::Sar => a.sar(b.as_u64().min(64) as u32),
        BinOp::Eq => Bv::bit(a == b),
        BinOp::Ne => Bv::bit(a != b),
        BinOp::Ult => Bv::bit(a.lt(b)),
        BinOp::Ule => Bv::bit(!b.lt(a)),
        BinOp::Slt => Bv::bit(a.lt_signed(b)),
        BinOp::Sle => Bv::bit(!b.lt_signed(a)),
    }
}

fn has_read_mem(e: &Expr) -> bool {
    match e {
        Expr::Const(_) | Expr::Net(_, _) => false,
        Expr::Unary(_, a) | Expr::Slice(a, _, _) | Expr::Zext(a, _) | Expr::Sext(a, _) => {
            has_read_mem(a)
        }
        Expr::Binary(_, a, b) | Expr::Concat(a, b) => has_read_mem(a) || has_read_mem(b),
        Expr::Mux(c, t, e2) => has_read_mem(c) || has_read_mem(t) || has_read_mem(e2),
        Expr::ReadMem(_, _, _) => true,
    }
}

fn collect_mems(e: &Expr, out: &mut Vec<u32>) {
    match e {
        Expr::Const(_) | Expr::Net(_, _) => {}
        Expr::Unary(_, a) | Expr::Slice(a, _, _) | Expr::Zext(a, _) | Expr::Sext(a, _) => {
            collect_mems(a, out)
        }
        Expr::Binary(_, a, b) | Expr::Concat(a, b) => {
            collect_mems(a, out);
            collect_mems(b, out);
        }
        Expr::Mux(c, t, e2) => {
            collect_mems(c, out);
            collect_mems(t, out);
            collect_mems(e2, out);
        }
        Expr::ReadMem(mid, a, _) => {
            out.push(mid.0 as u32);
            collect_mems(a, out);
        }
    }
}
