//! Netlist optimization passes: constant sweep, common-subexpression
//! elimination, dead-cone elimination and a cache-aware net re-layout.
//!
//! [`optimize`] transforms a [`GateNetlist`] into a smaller, denser
//! netlist with **identical observable behaviour** on every engine:
//! settled output-port values, the checking-memory violation stream and
//! the scan protocol are byte-for-byte the same as on the source
//! netlist. Only white-box views change — removed nets have no value,
//! and toggle coverage is reported over the surviving instances (the
//! retained-net map in [`OptimizedNetlist::net_map`] records the
//! correspondence).
//!
//! Every rewrite is exact in the engines' four-valued semantics, not
//! just for known values: `And2(a, 0) → 0` holds because `0` is the
//! controlling value (`X & 0 = 0`), `Mux2(a, a, s) → a` holds because
//! the mux's pessimism rule returns the common arm, and so on. Folds
//! that are *not* X-exact (e.g. `Xor2(a, a) → 0`, which breaks on
//! `a = X`) are deliberately absent. `Z` never occurs on a built
//! netlist's nets (single drivers are enforced at build time, pokes are
//! two-valued, and no cell evaluation produces `Z`), so alias folds
//! like `Buf(a) → a` are exact in every reachable state.
//!
//! Pass ordering (each enabled by its [`PassConfig`] flag):
//!
//! 1. **Constant sweep** — folds cells with controlling/tied inputs in
//!    topological order, rewriting partially-constant complex gates to
//!    smaller kinds (`Aoi21(a, b, 0) → Nand2(a, b)`).
//! 2. **CSE** — identical `(kind, resolved inputs)` cones share one
//!    cell; commutative pins are sorted first so `And2(a, b)` meets
//!    `And2(b, a)`.
//! 3. **DCE** — removes cells (and flops) that cannot reach an output
//!    port, a memory port net or the scan chain. Memories are never
//!    removed, and neither are their port nets: the checking model's
//!    violation stream is part of the observable behaviour. The scan
//!    chain survives through the `scan_out` port root.
//! 4. **Re-layout** — the surviving netlist is renumbered so each
//!    level's cell outputs are contiguous (sources first, then level 1,
//!    level 2, …). A levelized sweep then walks the value array nearly
//!    monotonically: the operands of level *L* live in the packed
//!    prefix written by levels `< L`.
//!
//! Sequential cells are never folded (a flop's output is time-varying
//! even when its input is tied), and fault simulation must run on the
//! **unoptimized** netlist — collapsing a duplicated cone would merge
//! fault sites and change coverage.

use crate::celllib::CellKind;
use crate::compile::{levelize, Node};
use crate::error::GateError;
use crate::netlist::{GNetId, GateNetlist, Instance};
use scflow_hwtypes::PassConfig;
use std::collections::HashMap;

/// What the pipeline did, for reports and the `--netlist-stats` table.
#[derive(Clone, Copy, Debug, Default)]
pub struct PassStats {
    /// Cells before / after.
    pub cells_before: usize,
    /// Cells after all passes.
    pub cells_after: usize,
    /// Cells removed by constant folding (output tied or forwarded).
    pub folded: usize,
    /// Cells rewritten to a smaller kind by partial constant folding.
    pub rewritten: usize,
    /// Cells merged into an identical earlier cone.
    pub cse_merged: usize,
    /// Cells (including flops) removed as unobservable.
    pub dce_removed: usize,
    /// Nets before / after.
    pub nets_before: usize,
    /// Nets after all passes.
    pub nets_after: usize,
}

/// The result of [`optimize`]: the rewritten netlist plus the maps a
/// caller needs to relate it back to the source.
#[derive(Clone, Debug)]
pub struct OptimizedNetlist {
    /// The optimized netlist (same ports, same memories, same name).
    pub netlist: GateNetlist,
    /// For each source net, the surviving net now carrying its value
    /// (`None` if the net was removed as unobservable). A net folded
    /// into another maps to its replacement — the retained-net map for
    /// coverage and white-box consumers.
    pub net_map: Vec<Option<GNetId>>,
    /// Source indices of the retained instances, in the optimized
    /// netlist's instance order.
    pub retained_instances: Vec<u32>,
    /// Pipeline counters.
    pub stats: PassStats,
}

/// How one cell resolved during the fold pass.
enum Folded {
    /// Keep, with resolved inputs.
    Keep(CellKind, Vec<GNetId>),
    /// Output is an alias of an existing net (constant nets included).
    Alias(GNetId),
}

/// Runs the configured pass pipeline over `nl`.
///
/// With every pass disabled this still renumbers nothing and returns a
/// plain copy with identity maps, so callers can treat the result
/// uniformly.
///
/// # Errors
///
/// [`GateError::CombLoop`] if the combinational cells form a cycle —
/// cyclic netlists need the event-driven engine's delay semantics and
/// are left alone.
pub fn optimize(nl: &GateNetlist, cfg: &PassConfig) -> Result<OptimizedNetlist, GateError> {
    if !cfg.any() {
        return Ok(OptimizedNetlist {
            netlist: nl.clone(),
            net_map: (0..nl.net_count()).map(|i| Some(GNetId(i))).collect(),
            retained_instances: (0..nl.instances().len() as u32).collect(),
            stats: PassStats {
                cells_before: nl.instances().len(),
                cells_after: nl.instances().len(),
                nets_before: nl.net_count(),
                nets_after: nl.net_count(),
                ..PassStats::default()
            },
        });
    }
    let order = levelize(nl)?;
    let mut stats = PassStats {
        cells_before: nl.instances().len(),
        nets_before: nl.net_count(),
        ..PassStats::default()
    };

    // --- alias resolution -------------------------------------------------
    // `repr[n]` is the net currently carrying net n's value. Chains stay
    // short (we always alias to an already-resolved net) but resolve()
    // follows them to be safe.
    let mut repr: Vec<GNetId> = (0..nl.net_count()).map(GNetId).collect();
    fn resolve(repr: &[GNetId], mut n: GNetId) -> GNetId {
        while repr[n.0] != n {
            n = repr[n.0];
        }
        n
    }
    let c0 = nl.const0();
    let c1 = nl.const1();
    let konst = |repr: &[GNetId], n: GNetId| -> Option<bool> {
        let r = resolve(repr, n);
        if r == c0 {
            Some(false)
        } else if r == c1 {
            Some(true)
        } else {
            None
        }
    };

    // --- fold + CSE in topological order ----------------------------------
    // Kept combinational cells: (source instance index, kind, resolved
    // inputs). `kept_driver[net]` indexes into `kept` for CSE-by-cone and
    // the Inv(Inv(x)) chain fold.
    let mut kept: Vec<(u32, CellKind, Vec<GNetId>)> = Vec::new();
    let mut kept_of_net: HashMap<GNetId, usize> = HashMap::new();
    let mut cse: HashMap<(CellKind, Vec<GNetId>), GNetId> = HashMap::new();
    for node in &order {
        let Node::Inst(idx) = *node else { continue };
        let inst = &nl.instances()[idx as usize];
        let ins: Vec<GNetId> = inst.inputs.iter().map(|&n| resolve(&repr, n)).collect();
        let folded = if cfg.const_sweep {
            fold_cell(
                inst.kind,
                &ins,
                c0,
                c1,
                |n| konst(&repr, n),
                |n| kept_of_net.get(&n).map(|&k| (kept[k].1, kept[k].2.clone())),
            )
        } else {
            Folded::Keep(inst.kind, ins)
        };
        match folded {
            Folded::Alias(target) => {
                repr[inst.output.0] = target;
                stats.folded += 1;
            }
            Folded::Keep(kind, ins) => {
                if kind != inst.kind {
                    stats.rewritten += 1;
                }
                let key_ins = canonical_pins(kind, &ins);
                if cfg.cse {
                    if let Some(&prior) = cse.get(&(kind, key_ins.clone())) {
                        repr[inst.output.0] = prior;
                        stats.cse_merged += 1;
                        continue;
                    }
                    cse.insert((kind, key_ins), inst.output);
                }
                kept_of_net.insert(inst.output, kept.len());
                kept.push((idx, kind, ins));
            }
        }
    }

    // --- liveness (DCE) ---------------------------------------------------
    // Roots: output-port bits and every memory port net (the checking
    // model reads them at each tick regardless of data flow), all
    // resolved through the alias map. Memory douts are produced by the
    // always-present read path and stay. Flops are live when their Q is
    // reached; a live cell/flop makes its resolved inputs live.
    let mut live_net = vec![false; nl.net_count()];
    let mut work: Vec<GNetId> = Vec::new();
    let root = |n: GNetId, work: &mut Vec<GNetId>| work.push(resolve(&repr, n));
    for (_, bits) in nl.outputs() {
        for &b in bits {
            root(b, &mut work);
        }
    }
    for mem in nl.memories() {
        for &n in mem
            .raddr
            .iter()
            .chain(&mem.waddr)
            .chain(&mem.wdata)
            .chain(mem.wen.as_ref())
        {
            root(n, &mut work);
        }
        work.extend(mem.dout.iter().copied());
    }
    if !cfg.dce {
        // Liveness still drives the rebuild; with DCE off every cell
        // and flop the earlier passes kept is a root.
        for k in kept_of_net.keys() {
            work.push(*k);
        }
        for inst in nl.instances() {
            if inst.kind.is_sequential() {
                work.push(inst.output);
            }
        }
    }
    // Driver tables over the *kept* structure.
    let mut flop_of_net: HashMap<GNetId, u32> = HashMap::new();
    for (i, inst) in nl.instances().iter().enumerate() {
        if inst.kind.is_sequential() {
            flop_of_net.insert(inst.output, i as u32);
        }
    }
    let mut live_cell = vec![false; kept.len()];
    let mut live_flop: HashMap<u32, bool> = HashMap::new();
    while let Some(n) = work.pop() {
        if live_net[n.0] {
            continue;
        }
        live_net[n.0] = true;
        if let Some(&k) = kept_of_net.get(&n) {
            if !live_cell[k] {
                live_cell[k] = true;
                work.extend(kept[k].2.iter().copied());
            }
        } else if let Some(&f) = flop_of_net.get(&n) {
            if !live_flop.get(&f).copied().unwrap_or(false) {
                live_flop.insert(f, true);
                work.extend(
                    nl.instances()[f as usize]
                        .inputs
                        .iter()
                        .map(|&i| resolve(&repr, i)),
                );
            }
        }
    }
    live_net[c0.0] = true;
    live_net[c1.0] = true;
    for (_, bits) in nl.inputs() {
        for &b in bits {
            live_net[b.0] = true;
        }
    }

    // --- rebuild with packed numbering ------------------------------------
    // New net order: const0, const1, input bits, live flop Qs, memory
    // douts, then surviving cell outputs — by (level, topo position)
    // when re-layout is on, by source net id otherwise. Levels are
    // longest-path depths over the kept cells, so each level's outputs
    // land contiguously and a levelized sweep reads a packed prefix.
    let mut new_id: Vec<Option<GNetId>> = vec![None; nl.net_count()];
    let mut names: Vec<String> = Vec::new();
    let take = |n: GNetId, new_id: &mut Vec<Option<GNetId>>, names: &mut Vec<String>| {
        if new_id[n.0].is_none() {
            new_id[n.0] = Some(GNetId(names.len()));
            names.push(nl.net_names_dbg(n).to_owned());
        }
    };
    take(c0, &mut new_id, &mut names);
    take(c1, &mut new_id, &mut names);
    for (_, bits) in nl.inputs() {
        for &b in bits {
            take(b, &mut new_id, &mut names);
        }
    }
    let mut flops: Vec<u32> = nl
        .instances()
        .iter()
        .enumerate()
        .filter(|(i, inst)| {
            inst.kind.is_sequential() && live_flop.get(&(*i as u32)).copied().unwrap_or(false)
        })
        .map(|(i, _)| i as u32)
        .collect();
    flops.sort_unstable();
    for &f in &flops {
        take(nl.instances()[f as usize].output, &mut new_id, &mut names);
    }
    for mem in nl.memories() {
        for &d in &mem.dout {
            take(d, &mut new_id, &mut names);
        }
    }

    // Longest-path level per kept cell, over the kept structure.
    let mut level: Vec<u32> = vec![0; kept.len()];
    for (k, (_, _, ins)) in kept.iter().enumerate() {
        let mut l = 0;
        for i in ins {
            if let Some(&d) = kept_of_net.get(i) {
                l = l.max(level[d] + 1);
            } else if nl.memories().iter().any(|m| m.dout.contains(i)) {
                l = l.max(1);
            }
        }
        level[k] = l;
    }
    // Sort keys refer to the *source* netlist (instance index / output
    // net id), so re-running the pipeline on its own output — where the
    // source positions already sit in sorted order — reproduces the
    // order exactly: the pipeline is idempotent.
    let mut cell_order: Vec<usize> = (0..kept.len()).filter(|&k| live_cell[k]).collect();
    if cfg.relayout {
        cell_order.sort_by_key(|&k| (level[k], kept[k].0));
    } else {
        cell_order.sort_by_key(|&k| nl.instances()[kept[k].0 as usize].output.0);
    }
    for &k in &cell_order {
        take(
            nl.instances()[kept[k].0 as usize].output,
            &mut new_id,
            &mut names,
        );
    }

    let map = |n: GNetId| -> GNetId { new_id[resolve(&repr, n).0].expect("live net has a new id") };

    let mut instances: Vec<Instance> = Vec::new();
    let mut retained_instances: Vec<u32> = Vec::new();
    for &f in &flops {
        let inst = &nl.instances()[f as usize];
        instances.push(Instance {
            name: inst.name.clone(),
            kind: inst.kind,
            inputs: inst.inputs.iter().map(|&i| map(i)).collect(),
            output: map(inst.output),
            init: inst.init,
        });
        retained_instances.push(f);
    }
    for &k in &cell_order {
        let (idx, kind, ins) = &kept[k];
        let inst = &nl.instances()[*idx as usize];
        instances.push(Instance {
            name: inst.name.clone(),
            kind: *kind,
            inputs: ins.iter().map(|&i| map(i)).collect(),
            output: map(inst.output),
            init: None,
        });
        retained_instances.push(*idx);
    }

    let memories = nl
        .memories()
        .iter()
        .map(|m| crate::netlist::GateMemory {
            name: m.name.clone(),
            width: m.width,
            init: m.init.clone(),
            raddr: m.raddr.iter().map(|&n| map(n)).collect(),
            dout: m.dout.iter().map(|&n| map(n)).collect(),
            waddr: m.waddr.iter().map(|&n| map(n)).collect(),
            wdata: m.wdata.iter().map(|&n| map(n)).collect(),
            wen: m.wen.map(&map),
            read_delay_ps: m.read_delay_ps,
        })
        .collect();

    let netlist = GateNetlist {
        name: nl.name().to_owned(),
        net_names: names,
        instances,
        inputs: nl
            .inputs()
            .iter()
            .map(|(p, bits)| (p.clone(), bits.iter().map(|&b| map(b)).collect()))
            .collect(),
        outputs: nl
            .outputs()
            .iter()
            .map(|(p, bits)| (p.clone(), bits.iter().map(|&b| map(b)).collect()))
            .collect(),
        memories,
        const0: new_id[c0.0].expect("const0 retained"),
        const1: new_id[c1.0].expect("const1 retained"),
    };

    stats.cells_after = netlist.instances.len();
    stats.nets_after = netlist.net_names.len();
    stats.dce_removed = stats.cells_before - stats.cells_after - stats.folded - stats.cse_merged;

    let net_map: Vec<Option<GNetId>> = (0..nl.net_count())
        .map(|n| new_id[resolve(&repr, GNetId(n)).0])
        .collect();
    Ok(OptimizedNetlist {
        netlist,
        net_map,
        retained_instances,
        stats,
    })
}

/// Sorts commutative pins so equal cones meet under one CSE key.
fn canonical_pins(kind: CellKind, ins: &[GNetId]) -> Vec<GNetId> {
    let mut v = ins.to_vec();
    match kind {
        CellKind::And2
        | CellKind::Or2
        | CellKind::Xor2
        | CellKind::Xnor2
        | CellKind::Nand2
        | CellKind::Nor2 => v.sort_unstable(),
        CellKind::Aoi21 | CellKind::Oai21 => v[..2].sort_unstable(),
        _ => {}
    }
    v
}

/// Folds one combinational cell to a fixpoint given resolved inputs.
/// `konst` reports tied inputs, `driver` reports the kept cell driving
/// a net (for the `Inv(Inv(x))` chain fold). A rewrite to a smaller
/// kind (`Aoi21(1, b, c) → Nor2(b, c)`) is folded again, so e.g.
/// `b == c` continues to `Inv(b)` — the fixpoint makes the whole
/// pipeline idempotent. Every rule is exact in four-valued logic over
/// the reachable state space (no `Z`, see module docs).
fn fold_cell(
    kind: CellKind,
    ins: &[GNetId],
    c0: GNetId,
    c1: GNetId,
    konst: impl Fn(GNetId) -> Option<bool>,
    driver: impl Fn(GNetId) -> Option<(CellKind, Vec<GNetId>)>,
) -> Folded {
    let mut kind = kind;
    let mut ins = ins.to_vec();
    loop {
        match fold_step(kind, &ins, c0, c1, &konst, &driver) {
            Folded::Keep(k2, i2) if k2 != kind || i2 != ins => {
                kind = k2;
                ins = i2;
            }
            other => return other,
        }
    }
}

/// One fold step; [`fold_cell`] iterates this to a fixpoint.
fn fold_step(
    kind: CellKind,
    ins: &[GNetId],
    c0: GNetId,
    c1: GNetId,
    konst: impl Fn(GNetId) -> Option<bool>,
    driver: impl Fn(GNetId) -> Option<(CellKind, Vec<GNetId>)>,
) -> Folded {
    let cnet = |b: bool| if b { c1 } else { c0 };
    let k = |i: usize| konst(ins[i]);
    match kind {
        CellKind::Buf => match k(0) {
            Some(v) => Folded::Alias(cnet(v)),
            None => Folded::Alias(ins[0]),
        },
        CellKind::Inv => match k(0) {
            Some(v) => Folded::Alias(cnet(!v)),
            None => match driver(ins[0]) {
                Some((CellKind::Inv, inner)) => Folded::Alias(inner[0]),
                _ => Folded::Keep(kind, ins.to_vec()),
            },
        },
        CellKind::And2 => match (k(0), k(1)) {
            (Some(false), _) | (_, Some(false)) => Folded::Alias(c0),
            (Some(true), _) => Folded::Alias(ins[1]),
            (_, Some(true)) => Folded::Alias(ins[0]),
            _ if ins[0] == ins[1] => Folded::Alias(ins[0]),
            _ => Folded::Keep(kind, ins.to_vec()),
        },
        CellKind::Or2 => match (k(0), k(1)) {
            (Some(true), _) | (_, Some(true)) => Folded::Alias(c1),
            (Some(false), _) => Folded::Alias(ins[1]),
            (_, Some(false)) => Folded::Alias(ins[0]),
            _ if ins[0] == ins[1] => Folded::Alias(ins[0]),
            _ => Folded::Keep(kind, ins.to_vec()),
        },
        CellKind::Nand2 => match (k(0), k(1)) {
            (Some(false), _) | (_, Some(false)) => Folded::Alias(c1),
            (Some(true), _) => Folded::Keep(CellKind::Inv, vec![ins[1]]),
            (_, Some(true)) => Folded::Keep(CellKind::Inv, vec![ins[0]]),
            _ if ins[0] == ins[1] => Folded::Keep(CellKind::Inv, vec![ins[0]]),
            _ => Folded::Keep(kind, ins.to_vec()),
        },
        CellKind::Nor2 => match (k(0), k(1)) {
            (Some(true), _) | (_, Some(true)) => Folded::Alias(c0),
            (Some(false), _) => Folded::Keep(CellKind::Inv, vec![ins[1]]),
            (_, Some(false)) => Folded::Keep(CellKind::Inv, vec![ins[0]]),
            _ if ins[0] == ins[1] => Folded::Keep(CellKind::Inv, vec![ins[0]]),
            _ => Folded::Keep(kind, ins.to_vec()),
        },
        CellKind::Xor2 => match (k(0), k(1)) {
            (Some(a), Some(b)) => Folded::Alias(cnet(a ^ b)),
            (Some(false), _) => Folded::Alias(ins[1]),
            (_, Some(false)) => Folded::Alias(ins[0]),
            (Some(true), _) => Folded::Keep(CellKind::Inv, vec![ins[1]]),
            (_, Some(true)) => Folded::Keep(CellKind::Inv, vec![ins[0]]),
            // Xor2(a, a) is X when a is X — never 0. No fold.
            _ => Folded::Keep(kind, ins.to_vec()),
        },
        CellKind::Xnor2 => match (k(0), k(1)) {
            (Some(a), Some(b)) => Folded::Alias(cnet(!(a ^ b))),
            (Some(true), _) => Folded::Alias(ins[1]),
            (_, Some(true)) => Folded::Alias(ins[0]),
            (Some(false), _) => Folded::Keep(CellKind::Inv, vec![ins[1]]),
            (_, Some(false)) => Folded::Keep(CellKind::Inv, vec![ins[0]]),
            _ => Folded::Keep(kind, ins.to_vec()),
        },
        CellKind::Mux2 => match k(2) {
            Some(false) => Folded::Alias(ins[0]),
            Some(true) => Folded::Alias(ins[1]),
            // The pessimism rule hands back the common arm even under an
            // unknown select, so Mux2(a, a, s) ≡ a exactly.
            None if ins[0] == ins[1] => Folded::Alias(ins[0]),
            None => Folded::Keep(kind, ins.to_vec()),
        },
        // Aoi21(a, b, c) = !((a & b) | c)
        CellKind::Aoi21 => match (k(0), k(1), k(2)) {
            (_, _, Some(true)) => Folded::Alias(c0),
            (_, _, Some(false)) => Folded::Keep(CellKind::Nand2, vec![ins[0], ins[1]]),
            (Some(false), _, _) | (_, Some(false), _) => Folded::Keep(CellKind::Inv, vec![ins[2]]),
            (Some(true), _, _) => Folded::Keep(CellKind::Nor2, vec![ins[1], ins[2]]),
            (_, Some(true), _) => Folded::Keep(CellKind::Nor2, vec![ins[0], ins[2]]),
            _ => Folded::Keep(kind, ins.to_vec()),
        },
        // Oai21(a, b, c) = !((a | b) & c)
        CellKind::Oai21 => match (k(0), k(1), k(2)) {
            (_, _, Some(false)) => Folded::Alias(c1),
            (_, _, Some(true)) => Folded::Keep(CellKind::Nor2, vec![ins[0], ins[1]]),
            (Some(true), _, _) | (_, Some(true), _) => Folded::Keep(CellKind::Inv, vec![ins[2]]),
            (Some(false), _, _) => Folded::Keep(CellKind::Nand2, vec![ins[1], ins[2]]),
            (_, Some(false), _) => Folded::Keep(CellKind::Nand2, vec![ins[0], ins[2]]),
            _ => Folded::Keep(kind, ins.to_vec()),
        },
        // Sequential cells are time-varying: never folded.
        CellKind::Dff | CellKind::Sdff => Folded::Keep(kind, ins.to_vec()),
    }
}

/// Structural statistics of a netlist: the per-design shape report
/// behind `tables --netlist-stats`, with stable metric names.
#[derive(Clone, Debug)]
pub struct NetlistStats {
    /// Combinational cells.
    pub gates: usize,
    /// Flip-flops.
    pub flops: usize,
    /// Single-bit nets.
    pub nets: usize,
    /// Memory macros.
    pub mems: usize,
    /// Combinational logic depth (longest-path levels; 0 for a netlist
    /// with no combinational cells).
    pub levels: u32,
    /// Fanout histogram: consumer-pin count per driven net.
    pub fanout: scflow_obs::Histogram,
    /// Largest fanout of any net.
    pub max_fanout: usize,
    /// Maximum levelized cut: the largest number of nets produced at or
    /// below some level that are consumed above it — the live value set
    /// a levelized sweep must keep warm.
    pub cut: usize,
}

impl NetlistStats {
    /// Computes the statistics.
    ///
    /// # Errors
    ///
    /// [`GateError::CombLoop`] on cyclic combinational logic.
    pub fn compute(nl: &GateNetlist) -> Result<Self, GateError> {
        let order = levelize(nl)?;
        // Longest-path level per net: sources at 0.
        let mut net_level: Vec<u32> = vec![0; nl.net_count()];
        let mut max_level = 0u32;
        for node in &order {
            let (ins, outs): (Vec<GNetId>, Vec<GNetId>) = match *node {
                Node::Inst(i) => {
                    let inst = &nl.instances()[i as usize];
                    (inst.inputs.clone(), vec![inst.output])
                }
                Node::MemRead(m) => {
                    let mem = &nl.memories()[m as usize];
                    (mem.raddr.clone(), mem.dout.clone())
                }
            };
            let l = ins.iter().map(|n| net_level[n.0]).max().unwrap_or(0) + 1;
            for o in outs {
                net_level[o.0] = l;
            }
            max_level = max_level.max(l);
        }

        // Fanout per net: consumer pins across cells and memory ports.
        let mut fanout_count: Vec<usize> = vec![0; nl.net_count()];
        for inst in nl.instances() {
            for i in &inst.inputs {
                fanout_count[i.0] += 1;
            }
        }
        for mem in nl.memories() {
            for n in mem
                .raddr
                .iter()
                .chain(&mem.waddr)
                .chain(&mem.wdata)
                .chain(mem.wen.as_ref())
            {
                fanout_count[n.0] += 1;
            }
        }
        let mut fanout = scflow_obs::Histogram::new();
        let mut max_fanout = 0;
        for (n, &c) in fanout_count.iter().enumerate() {
            // Only driven nets count; skip nets nothing reads AND
            // nothing drives (cannot occur on built netlists anyway).
            let _ = n;
            if c > 0 {
                fanout.record(c as u64);
                max_fanout = max_fanout.max(c);
            }
        }

        // Levelized cut: a net produced at level p and consumed at
        // level q > p is live across every boundary in (p, q].
        let mut crossing_start: Vec<usize> = vec![0; max_level as usize + 2];
        let mut crossing_end: Vec<usize> = vec![0; max_level as usize + 2];
        let mut consumed_at: Vec<u32> = vec![0; nl.net_count()];
        for inst in nl.instances() {
            if inst.kind.is_sequential() {
                continue;
            }
            for i in &inst.inputs {
                consumed_at[i.0] = consumed_at[i.0].max(net_level[inst.output.0]);
            }
        }
        for (n, &q) in consumed_at.iter().enumerate() {
            let p = net_level[n];
            if q > p {
                crossing_start[p as usize + 1] += 1;
                crossing_end[q as usize] += 1;
            }
        }
        let mut live = 0usize;
        let mut cut = 0usize;
        for l in 0..=(max_level as usize + 1) {
            live += crossing_start[l];
            cut = cut.max(live);
            live -= crossing_end[l];
        }

        Ok(NetlistStats {
            gates: nl.comb_count(),
            flops: nl.flop_count(),
            nets: nl.net_count(),
            mems: nl.memories().len(),
            levels: max_level,
            fanout,
            max_fanout,
            cut,
        })
    }

    /// Registers the statistics under `prefix` with stable names:
    /// `{prefix}.gates`, `.flops`, `.nets`, `.mems`, `.levels`,
    /// `.max_fanout`, `.cut`, and the `{prefix}.fanout` histogram.
    pub fn register_into(&self, reg: &mut scflow_obs::MetricsRegistry, prefix: &str) {
        reg.set_counter(&format!("{prefix}.gates"), self.gates as u64);
        reg.set_counter(&format!("{prefix}.flops"), self.flops as u64);
        reg.set_counter(&format!("{prefix}.nets"), self.nets as u64);
        reg.set_counter(&format!("{prefix}.mems"), self.mems as u64);
        reg.set_counter(&format!("{prefix}.levels"), u64::from(self.levels));
        reg.set_counter(&format!("{prefix}.max_fanout"), self.max_fanout as u64);
        reg.set_counter(&format!("{prefix}.cut"), self.cut as u64);
        reg.merge_histogram(&format!("{prefix}.fanout"), &self.fanout);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::NetlistBuilder;
    use scflow_hwtypes::Bv;

    fn full_cfg() -> PassConfig {
        PassConfig::for_level(2)
    }

    #[test]
    fn constant_sweep_ties_through() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_port("a", 1)[0];
        let c1 = b.const1();
        let and = b.cell(CellKind::And2, &[a, c1]); // -> a
        let or = b.cell(CellKind::Or2, &[and, b.const0()]); // -> a
        b.output_port("y", &[or]);
        let opt = optimize(&b.build(), &full_cfg()).unwrap();
        assert_eq!(opt.netlist.comb_count(), 0, "both cells fold away");
        let y = opt.netlist.output_port("y").unwrap()[0];
        let a_new = opt.netlist.input_port("a").unwrap()[0];
        assert_eq!(y, a_new, "output forwarded to the input net");
    }

    #[test]
    fn cse_merges_commutative_twins() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_port("a", 1)[0];
        let c = b.input_port("b", 1)[0];
        let x1 = b.cell(CellKind::And2, &[a, c]);
        let x2 = b.cell(CellKind::And2, &[c, a]);
        let y = b.cell(CellKind::Xor2, &[x1, x2]);
        b.output_port("y", &[y]);
        let opt = optimize(&b.build(), &full_cfg()).unwrap();
        // One And2 survives; the Xor2 of the merged twins remains (its
        // inputs are now the same net — not foldable, X-exactness).
        assert_eq!(opt.stats.cse_merged, 1);
        assert_eq!(opt.netlist.comb_count(), 2);
    }

    #[test]
    fn dce_drops_unobserved_cone_keeps_memory_ports() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_port("a", 2);
        let dead = b.cell(CellKind::Xor2, &[a[0], a[1]]);
        let _dead2 = b.cell(CellKind::Inv, &[dead]);
        let live = b.cell(CellKind::And2, &[a[0], a[1]]);
        b.output_port("y", &[live]);
        let addr = b.input_port("addr", 2);
        let dout = b.memory(
            "rom",
            4,
            (0..3).map(|i| Bv::new(i, 4)).collect(),
            addr.clone(),
            vec![],
            vec![],
            None,
        );
        // dout feeds nothing, but the memory and its ports must stay.
        let _ = dout;
        let opt = optimize(&b.build(), &full_cfg()).unwrap();
        assert_eq!(opt.netlist.comb_count(), 1, "dead cone removed");
        assert_eq!(opt.netlist.memories().len(), 1);
        assert_eq!(opt.netlist.memories()[0].raddr.len(), 2);
    }

    #[test]
    fn idempotent() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_port("a", 4);
        let mut acc = a[0];
        for i in 1..4 {
            acc = b.cell(CellKind::Xor2, &[acc, a[i]]);
        }
        let dup = b.cell(CellKind::Xor2, &[a[2], a[3]]);
        let q = b.dff(acc, false);
        let y = b.cell(CellKind::Or2, &[q, dup]);
        b.output_port("y", &[y]);
        let nl = b.build();
        let once = optimize(&nl, &full_cfg()).unwrap();
        let twice = optimize(&once.netlist, &full_cfg()).unwrap();
        assert_eq!(
            once.netlist.stable_hash(),
            twice.netlist.stable_hash(),
            "second run must be the identity"
        );
    }

    #[test]
    fn stats_compute() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_port("a", 2);
        let x = b.cell(CellKind::And2, &[a[0], a[1]]);
        let y = b.cell(CellKind::Inv, &[x]);
        b.output_port("y", &[y]);
        let s = NetlistStats::compute(&b.build()).unwrap();
        assert_eq!(s.gates, 2);
        assert_eq!(s.levels, 2);
        assert!(s.max_fanout >= 1);
    }
}
