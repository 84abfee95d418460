//! Deterministic synthetic benchmark circuits, 10^3–10^6 gates.
//!
//! Every bench in this repo historically ran the one ~5.6k-cell SRC
//! design; compile-time optimization only shows its worth on designs
//! large enough that instruction count and cache behaviour dominate.
//! [`generate`] builds netlists of a chosen family and size from a seed
//! — the same [`GenParams`] always produce a byte-identical
//! [`GateNetlist`] (pinned by a property test), so benchmark numbers
//! and differential suites are reproducible without shipping megabyte
//! netlist files.
//!
//! Families ([`GenKind`]):
//!
//! * `AdderTree` — `size` leaf vectors mixed from the input and an LFSR,
//!   reduced by a binary tree of ripple-carry adders,
//! * `MultTree` — `size` array multipliers over rotated operand pairs,
//!   XOR-folded into an accumulator,
//! * `Pipeline` — a `size`-stage register pipeline with seed-chosen
//!   add/xor/mux mixing per stage,
//! * `SrcMac` — a scaled-up variant of the paper's SRC shape: a
//!   `size`-tap delay line, a coefficient ROM read by a free-running
//!   counter, a MAC accumulator and a write-back RAM. The counter
//!   deliberately overruns the memories' word counts, so the *checking
//!   memory model* produces a deterministic violation stream — making
//!   this family the interesting one for pass-differential suites.
//!
//! On top of the core circuit, [`Redundancy`] mixes in the waste real
//! synthesis leaves behind, in measured doses: dead cones (removable by
//! DCE), duplicated cones feeding a live XOR tree (collapsible by CSE),
//! and constant-tied cells (foldable by the constant sweep). The doses
//! are percentages of the core gate count, so the *optimization
//! headroom* of a generated netlist is a controlled property, not an
//! accident.

use crate::celllib::CellKind;
use crate::netlist::{GNetId, GateNetlist, NetlistBuilder};
use scflow_hwtypes::Bv;

/// Circuit family.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GenKind {
    /// Binary reduction tree of ripple-carry adders.
    AdderTree,
    /// Array multipliers XOR-folded into an accumulator.
    MultTree,
    /// Registered datapath pipeline with mixed stage functions.
    Pipeline,
    /// Scaled SRC-like MAC with ROM/RAM checking memories.
    SrcMac,
}

impl GenKind {
    fn tag(self) -> &'static str {
        match self {
            GenKind::AdderTree => "addtree",
            GenKind::MultTree => "multree",
            GenKind::Pipeline => "pipe",
            GenKind::SrcMac => "srcmac",
        }
    }
}

/// Redundancy doses, each a percentage of the core gate count.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Redundancy {
    /// Dead cones: gates no output can observe (DCE removes them).
    pub dead_pct: u8,
    /// Duplicated cones: exact copies of live cells, observed through
    /// the `chk` XOR tree (CSE collapses the copies).
    pub dup_pct: u8,
    /// Constant-tied cells: pass-through and annihilated gates on the
    /// `chk` path (the constant sweep folds them).
    pub tie_pct: u8,
}

impl Default for Redundancy {
    /// The standard dose: 20% dead, 10% duplicated, 10% tied — about a
    /// third of the final netlist is removable, which is in the range
    /// reported for unoptimized RTL-synthesis output.
    fn default() -> Self {
        Redundancy {
            dead_pct: 20,
            dup_pct: 10,
            tie_pct: 10,
        }
    }
}

impl Redundancy {
    /// No redundancy: the passes find only what the core circuit
    /// naturally exposes.
    #[must_use]
    pub fn none() -> Self {
        Redundancy {
            dead_pct: 0,
            dup_pct: 0,
            tie_pct: 0,
        }
    }
}

/// Parameters for [`generate`]. Equal parameters always produce a
/// byte-identical netlist.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct GenParams {
    /// Circuit family.
    pub kind: GenKind,
    /// Datapath width in bits (2..=16).
    pub width: u32,
    /// Family-specific scale: leaves, multipliers, stages or taps.
    pub size: u32,
    /// Seed for every generator decision (structure, inits, ROM words).
    pub seed: u64,
    /// Redundancy doses.
    pub redundancy: Redundancy,
}

impl GenParams {
    /// Parameters with the default redundancy dose.
    #[must_use]
    pub fn new(kind: GenKind, width: u32, size: u32, seed: u64) -> Self {
        GenParams {
            kind,
            width,
            size,
            seed,
            redundancy: Redundancy::default(),
        }
    }

    /// Parameters targeting roughly `target_gates` combinational cells
    /// (within a small factor; the exact count depends on the family's
    /// structure). Width is fixed at 8 bits.
    #[must_use]
    pub fn sized(kind: GenKind, target_gates: usize, seed: u64) -> Self {
        // Final gate count ≈ core × (1 + doses); per-unit core costs
        // are measured at width 8.
        let per_unit = match kind {
            GenKind::AdderTree => 72,
            GenKind::MultTree => 340,
            GenKind::Pipeline => 30,
            GenKind::SrcMac => 16,
        };
        let size = (target_gates / per_unit).max(2) as u32;
        GenParams::new(kind, 8, size, seed)
    }
}

/// splitmix64: the generator's only randomness source. Fixed here (not
/// `rand`) so netlists are stable across toolchains.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn flag(&mut self) -> bool {
        self.next() & 1 == 1
    }
}

/// Build context: the builder plus the bookkeeping redundancy needs —
/// a sample of live nets to tap, a sample of cones to duplicate, and
/// the core gate count the doses are measured against.
struct Gen {
    b: NetlistBuilder,
    rng: Rng,
    pool: Vec<GNetId>,
    cones: Vec<(CellKind, Vec<GNetId>)>,
    gates: usize,
}

impl Gen {
    fn cell(&mut self, kind: CellKind, ins: &[GNetId]) -> GNetId {
        let out = self.b.cell(kind, ins);
        self.gates += 1;
        self.pool.push(out);
        // Sample cones for duplication, capped so 10^6-gate builds stay
        // lean.
        if self.gates % 7 == 0 && self.cones.len() < 4096 {
            self.cones.push((kind, ins.to_vec()));
        }
        out
    }

    fn xor(&mut self, a: GNetId, b: GNetId) -> GNetId {
        self.cell(CellKind::Xor2, &[a, b])
    }

    fn and(&mut self, a: GNetId, b: GNetId) -> GNetId {
        self.cell(CellKind::And2, &[a, b])
    }

    fn or(&mut self, a: GNetId, b: GNetId) -> GNetId {
        self.cell(CellKind::Or2, &[a, b])
    }

    /// Full adder: 5 gates.
    fn full_add(&mut self, a: GNetId, b: GNetId, cin: GNetId) -> (GNetId, GNetId) {
        let p = self.xor(a, b);
        let s = self.xor(p, cin);
        let g = self.and(a, b);
        let t = self.and(p, cin);
        let co = self.or(g, t);
        (s, co)
    }

    /// Ripple-carry add, wrapping (carry-out discarded): widths match.
    fn ripple_add(&mut self, x: &[GNetId], y: &[GNetId]) -> Vec<GNetId> {
        assert_eq!(x.len(), y.len());
        let mut out = Vec::with_capacity(x.len());
        let mut carry: Option<GNetId> = None;
        for (&a, &b) in x.iter().zip(y) {
            match carry {
                None => {
                    out.push(self.xor(a, b));
                    carry = Some(self.and(a, b));
                }
                Some(c) => {
                    let (s, co) = self.full_add(a, b, c);
                    out.push(s);
                    carry = Some(co);
                }
            }
        }
        out
    }

    /// Balanced XOR reduction (log depth — a serial chain would blow up
    /// the level count).
    fn xor_tree(&mut self, mut v: Vec<GNetId>) -> GNetId {
        assert!(!v.is_empty());
        while v.len() > 1 {
            let mut next = Vec::with_capacity(v.len().div_ceil(2));
            let mut it = v.chunks_exact(2);
            for pair in &mut it {
                next.push(self.xor(pair[0], pair[1]));
            }
            next.extend(it.remainder());
            v = next;
        }
        v[0]
    }

    /// A register row: one DFF per bit, seed-chosen power-on values.
    fn reg_row(&mut self, d: &[GNetId]) -> Vec<GNetId> {
        d.iter()
            .map(|&bit| {
                let init = self.rng.flag();
                self.b.dff(bit, init)
            })
            .collect()
    }
}

fn rot<T: Copy>(v: &[T], k: usize) -> Vec<T> {
    (0..v.len()).map(|i| v[(i + k) % v.len()]).collect()
}

/// Generates the netlist for `p`. Deterministic: equal parameters give
/// a byte-identical netlist (same nets, names, instance order, hash).
///
/// Every family exposes an input port `a` (`MultTree` adds `b`), the
/// result port `y`, and — when redundancy is dosed — the `chk` port
/// observing the duplicate/tied cones.
///
/// # Panics
///
/// Panics if `width` is outside `2..=16` or `size == 0`.
pub fn generate(p: &GenParams) -> GateNetlist {
    assert!(
        (2..=16).contains(&p.width),
        "generator width {} outside 2..=16",
        p.width
    );
    assert!(p.size >= 1, "generator size must be >= 1");
    let name = format!("{}_w{}_n{}_s{}", p.kind.tag(), p.width, p.size, p.seed);
    let mut g = Gen {
        b: NetlistBuilder::new(name),
        rng: Rng(p.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ (u64::from(p.width) << 32)
            ^ u64::from(p.size)),
        pool: Vec::new(),
        cones: Vec::new(),
        gates: 0,
    };
    let y = match p.kind {
        GenKind::AdderTree => adder_tree(&mut g, p),
        GenKind::MultTree => mult_tree(&mut g, p),
        GenKind::Pipeline => pipeline(&mut g, p),
        GenKind::SrcMac => src_mac(&mut g, p),
    };
    let core_pool_len = g.pool.len();
    let chk = redundancy(&mut g, p, core_pool_len);
    g.b.output_port("y", &y);
    if let Some(chk) = chk {
        g.b.output_port("chk", &[chk]);
    }
    g.b.build()
}

/// An LFSR register row with XOR feedback, driving `w` state nets.
fn lfsr(g: &mut Gen, w: usize) -> Vec<GNetId> {
    let state: Vec<GNetId> = (0..w).map(|i| g.b.net(format!("lfsr[{i}]"))).collect();
    let fb = g.xor(state[0], state[w / 2]);
    for i in 0..w {
        let d = if i + 1 < w { state[i + 1] } else { fb };
        // At least one bit must power on at 1 or the LFSR sticks at 0.
        let init = i == 0 || g.rng.flag();
        g.b.dff_onto(d, state[i], init);
    }
    state
}

fn adder_tree(g: &mut Gen, p: &GenParams) -> Vec<GNetId> {
    let w = p.width as usize;
    let a = g.b.input_port("a", p.width);
    let state = lfsr(g, w);
    let mut vecs: Vec<Vec<GNetId>> = (0..p.size as usize)
        .map(|i| {
            (0..w)
                .map(|j| g.xor(a[(i + j) % w], state[(i * 7 + j) % w]))
                .collect()
        })
        .collect();
    while vecs.len() > 1 {
        let mut next = Vec::with_capacity(vecs.len().div_ceil(2));
        let mut it = vecs.chunks_exact(2);
        for pair in &mut it {
            next.push(g.ripple_add(&pair[0], &pair[1]));
        }
        next.extend(it.remainder().iter().cloned());
        vecs = next;
    }
    let sum = vecs.pop().expect("at least one leaf");
    g.reg_row(&sum)
}

/// Wrapping array multiply: partial-product rows accumulated into the
/// low `w` bits.
fn array_mult(g: &mut Gen, x: &[GNetId], y: &[GNetId]) -> Vec<GNetId> {
    let w = x.len();
    let mut acc: Vec<GNetId> = x.iter().map(|&xb| g.and(xb, y[0])).collect();
    for i in 1..w {
        let row: Vec<GNetId> = x[..w - i].iter().map(|&xb| g.and(xb, y[i])).collect();
        let hi = g.ripple_add(&acc[i..], &row);
        acc.splice(i.., hi);
    }
    acc
}

fn mult_tree(g: &mut Gen, p: &GenParams) -> Vec<GNetId> {
    let w = p.width as usize;
    let a = g.b.input_port("a", p.width);
    let bp = g.b.input_port("b", p.width);
    let mut acc: Option<Vec<GNetId>> = None;
    for m in 0..p.size as usize {
        let prod = {
            let x = rot(&a, m % w);
            let y = rot(&bp, (m * 3 + 1) % w);
            array_mult(g, &x, &y)
        };
        acc = Some(match acc {
            None => prod,
            Some(prev) => prev.iter().zip(&prod).map(|(&u, &v)| g.xor(u, v)).collect(),
        });
    }
    let out = acc.expect("size >= 1");
    g.reg_row(&out)
}

fn pipeline(g: &mut Gen, p: &GenParams) -> Vec<GNetId> {
    let w = p.width as usize;
    let a = g.b.input_port("a", p.width);
    let mut v = a;
    for _ in 0..p.size {
        let k = 1 + g.rng.below(w as u64 - 1) as usize;
        let comb: Vec<GNetId> = match g.rng.below(3) {
            0 => {
                let r = rot(&v, k);
                g.ripple_add(&v, &r)
            }
            1 => (0..w).map(|j| g.xor(v[j], v[(j + k) % w])).collect(),
            _ => (0..w)
                .map(|j| {
                    let sel = v[(j + 2 * k) % w];
                    g.cell(CellKind::Mux2, &[v[j], v[(j + k) % w], sel])
                })
                .collect(),
        };
        v = g.reg_row(&comb);
    }
    v
}

fn src_mac(g: &mut Gen, p: &GenParams) -> Vec<GNetId> {
    let w = p.width as usize;
    let taps = (p.size as usize).max(2);
    let a = g.b.input_port("a", p.width);

    // Delay line: taps register rows.
    let mut cur = a;
    for _ in 0..taps {
        cur = g.reg_row(&cur);
    }

    // Free-running counter, one bit wider than the tap count needs —
    // it overruns both memories' word counts, so the checking model
    // reports a deterministic violation stream (the mechanism that
    // caught the paper's golden-model bug, at scale).
    let cbits = (scflow_hwtypes::bits_for(taps as u64 - 1) + 1) as usize;
    let cnt: Vec<GNetId> = (0..cbits).map(|i| g.b.net(format!("cnt[{i}]"))).collect();
    let mut carry = cnt[0];
    let mut next = vec![g.cell(CellKind::Inv, &[cnt[0]])];
    for &c in &cnt[1..] {
        next.push(g.xor(c, carry));
        carry = g.and(c, carry);
    }
    for (i, &q) in cnt.iter().enumerate() {
        g.b.dff_onto(next[i], q, false);
    }

    // Coefficient ROM: `taps` words, addressed by the over-wide counter.
    let rom_init: Vec<Bv> = (0..taps)
        .map(|_| Bv::new(g.rng.next() & scflow_hwtypes::mask(p.width), p.width))
        .collect();
    let dout =
        g.b.memory("coef", p.width, rom_init, cnt.clone(), vec![], vec![], None);

    // MAC: acc += (last tap ^ coefficient).
    let term: Vec<GNetId> = cur.iter().zip(&dout).map(|(&t, &d)| g.xor(t, d)).collect();
    let acc: Vec<GNetId> = (0..w).map(|i| g.b.net(format!("acc[{i}]"))).collect();
    let sum = g.ripple_add(&acc, &term);
    for (i, &q) in acc.iter().enumerate() {
        g.b.dff_onto(sum[i], q, false);
    }

    // Write-back RAM, also overrun by the counter.
    let wen = g.b.const1();
    let ram_init: Vec<Bv> = (0..taps).map(|_| Bv::new(0, p.width)).collect();
    let _trace = g.b.memory(
        "trace",
        p.width,
        ram_init,
        cnt.clone(),
        cnt.clone(),
        acc.clone(),
        Some(wen),
    );
    acc
}

/// Mixes in the redundancy doses; returns the `chk` net observing the
/// duplicate and tied cones (None when every dose is zero).
fn redundancy(g: &mut Gen, p: &GenParams, core_pool_len: usize) -> Option<GNetId> {
    let r = p.redundancy;
    if r.dead_pct == 0 && r.dup_pct == 0 && r.tie_pct == 0 {
        return None;
    }
    let base = g.gates;
    let pick = |g: &mut Gen| {
        let i = g.rng.below(core_pool_len as u64) as usize;
        g.pool[i]
    };

    // Dead cones: two-gate cones over live nets, observed by nothing.
    let n_dead = base * r.dead_pct as usize / 100;
    let mut made = 0;
    while made + 1 < n_dead {
        let x = pick(g);
        let y = pick(g);
        let kind = if g.rng.flag() {
            CellKind::Nand2
        } else {
            CellKind::Or2
        };
        let d1 = g.b.cell(kind, &[x, y]);
        let _d2 = g.b.cell(CellKind::Inv, &[d1]);
        g.gates += 2;
        made += 2;
    }

    let mut observed: Vec<GNetId> = Vec::new();

    // Duplicated cones: exact copies of sampled live cells. CSE merges
    // each copy with its original; the observing XOR tree stays.
    let n_dup = base * r.dup_pct as usize / 100;
    if !g.cones.is_empty() {
        for _ in 0..n_dup {
            let i = g.rng.below(g.cones.len() as u64) as usize;
            let (kind, ins) = g.cones[i].clone();
            let out = g.b.cell(kind, &ins);
            g.gates += 1;
            observed.push(out);
        }
    }

    // Constant-tied cells: pass-through (`And(x, 1)`, `Or(x, 0)`) and
    // annihilated (`And(x, 0)`, `Or(x, 1)`) gates on the chk path.
    let n_tie = base * r.tie_pct as usize / 100;
    let c0 = g.b.const0();
    let c1 = g.b.const1();
    for _ in 0..n_tie {
        let x = pick(g);
        let out = match g.rng.below(4) {
            0 => g.b.cell(CellKind::And2, &[x, c1]),
            1 => g.b.cell(CellKind::Or2, &[x, c0]),
            2 => g.b.cell(CellKind::And2, &[x, c0]),
            _ => g.b.cell(CellKind::Or2, &[x, c1]),
        };
        g.gates += 1;
        observed.push(out);
    }

    if observed.is_empty() {
        return None;
    }
    Some(g.xor_tree(observed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        for kind in [
            GenKind::AdderTree,
            GenKind::MultTree,
            GenKind::Pipeline,
            GenKind::SrcMac,
        ] {
            let p = GenParams::new(kind, 6, 9, 42);
            let a = generate(&p);
            let b = generate(&p);
            assert_eq!(
                a.stable_hash(),
                b.stable_hash(),
                "{kind:?} not deterministic"
            );
            let other = generate(&GenParams::new(kind, 6, 9, 43));
            assert_ne!(
                a.stable_hash(),
                other.stable_hash(),
                "{kind:?} ignores seed"
            );
        }
    }

    #[test]
    fn sized_lands_in_range() {
        for (kind, target) in [
            (GenKind::AdderTree, 2000usize),
            (GenKind::MultTree, 5000),
            (GenKind::Pipeline, 1000),
        ] {
            let nl = generate(&GenParams::sized(kind, target, 7));
            let got = nl.comb_count();
            assert!(
                got >= target / 3 && got <= target * 3,
                "{kind:?}: wanted ~{target}, got {got}"
            );
        }
    }

    #[test]
    fn src_mac_has_checking_memories() {
        let nl = generate(&GenParams::new(GenKind::SrcMac, 8, 12, 3));
        assert_eq!(nl.memories().len(), 2);
        // The counter is over-wide on purpose: raddr can exceed words.
        let m = &nl.memories()[0];
        assert!(1usize << m.raddr.len() > m.words());
    }

    #[test]
    fn levelizable_and_buildable() {
        for kind in [
            GenKind::AdderTree,
            GenKind::MultTree,
            GenKind::Pipeline,
            GenKind::SrcMac,
        ] {
            let nl = generate(&GenParams::new(kind, 5, 6, 11));
            assert!(crate::compile::levelize(&nl).is_ok(), "{kind:?} has a loop");
            assert!(nl.output_port("y").is_some());
        }
    }
}
