//! Stuck-at fault modelling and scan-based testing.
//!
//! The paper includes the scan chain in every reported area; this module
//! is what that area buys: single-stuck-at faults can be injected on any
//! cell output, and a scan-test harness shifts patterns through the chain,
//! captures one functional cycle, and compares signatures against the
//! fault-free circuit to measure **fault coverage**.
//!
//! [`fault_coverage`] runs **parallel-pattern single-fault propagation**
//! (PPSFP) on the compiled bit-parallel engine: up to 64 scan patterns
//! evaluate per pass in the lanes of a [`BitGateSim`], detected faults are
//! dropped after their first differing batch, and the fault list is
//! sharded across `std::thread::scope` workers ([`fault_threads`] /
//! `SCFLOW_FAULT_THREADS`). Every pattern is applied to a freshly reset
//! circuit, so patterns are independent and the detected-fault set does
//! not depend on batching or thread count; [`fault_coverage_serial`] is
//! the one-fault × one-pattern reference on the event-driven simulator
//! and produces the identical detected set (the differential tests pin
//! this). Netlists the levelizer rejects (combinational loops) fall back
//! to the serial reference automatically.

use crate::celllib::{CellKind, CellLibrary};
use crate::compile::GateProgram;
use crate::bitpar::BitGateSim;
use crate::gsim::GateSim;
use crate::netlist::GateNetlist;
use scflow_hwtypes::{Bv, Logic};

/// A single stuck-at fault on a cell output.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FaultSite {
    /// Index of the faulted instance in [`GateNetlist::instances`].
    pub instance: usize,
    /// The stuck value (`true` = stuck-at-1).
    pub stuck_at: bool,
}

/// Enumerates the full single-stuck-at fault list (two faults per cell
/// output).
pub fn all_fault_sites(nl: &GateNetlist) -> Vec<FaultSite> {
    (0..nl.instances().len())
        .flat_map(|instance| {
            [
                FaultSite {
                    instance,
                    stuck_at: false,
                },
                FaultSite {
                    instance,
                    stuck_at: true,
                },
            ]
        })
        .collect()
}

/// The structural fault-equivalence classes of a fault list (see
/// [`collapse_faults`]).
#[derive(Clone, Debug)]
pub struct CollapsedFaults {
    /// One representative per equivalence class, in ascending
    /// `(instance, stuck_at)` order — the list actually simulated.
    pub faults: Vec<FaultSite>,
    /// For each fault of the *input* list, the index of its class
    /// representative in [`CollapsedFaults::faults`].
    pub class_of: Vec<usize>,
}

impl CollapsedFaults {
    /// Expands a detected-mask over the representatives back to the full
    /// input fault list: a fault is detected iff its representative is
    /// (equivalent faults have identical detecting-pattern sets).
    pub fn expand_mask(&self, rep_mask: &[bool]) -> Vec<bool> {
        self.class_of.iter().map(|&r| rep_mask[r]).collect()
    }
}

/// Collapses structurally equivalent stuck-at faults so each equivalence
/// class is simulated once.
///
/// Two single-stuck-at faults are *equivalent* when every test pattern
/// detects either both or neither. The classic fanout-free dominance
/// rules give equivalences between a cell's output fault and a fault on
/// its (sole) downstream consumer, provided the net between them is
/// fanout-free — it feeds exactly one cell pin and nothing else (no
/// output port, no memory port, no flip-flop):
///
/// * through a `BUF`, stuck-at-v is equivalent to stuck-at-v on the
///   buffer output; through an `INV`, to stuck-at-v̄;
/// * a *controlling* stuck value on a gate input pins the gate output:
///   s-a-0 into `AND2` ≡ output s-a-0, s-a-0 into `NAND2` ≡ output
///   s-a-1, s-a-1 into `OR2` ≡ output s-a-1, s-a-1 into `NOR2` ≡
///   output s-a-0, and the single-literal `c` pins of `AOI21`
///   (s-a-1 ≡ output s-a-0) and `OAI21` (s-a-0 ≡ output s-a-1).
///
/// `XOR`/`XNOR`/`MUX2` have no controlling values and flip-flops break
/// the chain (a D-pin fault is only sampled at capture, while a Q-output
/// fault also corrupts scan shifting), so neither collapses. Chains of
/// rules compose: `a → BUF → INV → NAND2` collapses to one class.
pub fn collapse_faults(nl: &GateNetlist, faults: &[FaultSite]) -> CollapsedFaults {
    // Pin-use count and sole consumer of every net. Output ports, memory
    // ports and sequential pins count as extra uses, disqualifying the
    // net from the fanout-free rule.
    let mut uses = vec![0usize; nl.net_count()];
    let mut consumer: Vec<Option<(usize, usize)>> = vec![None; nl.net_count()];
    for (ii, inst) in nl.instances().iter().enumerate() {
        for (pin, n) in inst.inputs.iter().enumerate() {
            uses[n.0] += 1;
            consumer[n.0] = Some((ii, pin));
        }
    }
    for (_, bits) in nl.outputs() {
        for n in bits {
            uses[n.0] += 2; // observable: never collapse through it
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
            uses[n.0] += 2;
        }
    }

    // One collapse step: the equivalent fault on the sole consumer, if
    // any rule applies.
    let step = |f: FaultSite| -> Option<FaultSite> {
        let inst = &nl.instances()[f.instance];
        let n = inst.output;
        if uses[n.0] != 1 {
            return None;
        }
        let (ci, pin) = consumer[n.0]?;
        let kind = nl.instances()[ci].kind;
        if kind.is_sequential() {
            return None;
        }
        let stuck_at = match (kind, pin, f.stuck_at) {
            (CellKind::Buf, 0, v) => v,
            (CellKind::Inv, 0, v) => !v,
            (CellKind::And2, _, false) => false,
            (CellKind::Nand2, _, false) => true,
            (CellKind::Or2, _, true) => true,
            (CellKind::Nor2, _, true) => false,
            (CellKind::Aoi21, 2, true) => false,
            (CellKind::Oai21, 2, false) => true,
            _ => return None,
        };
        Some(FaultSite {
            instance: ci,
            stuck_at,
        })
    };

    // Follow each fault's collapse chain to its root. Chains move
    // strictly forward through sole consumers; the visit cap guards
    // against combinational loops (which the levelizer rejects anyway).
    let root_of = |mut f: FaultSite| -> FaultSite {
        for _ in 0..nl.instances().len() {
            match step(f) {
                Some(next) => f = next,
                None => break,
            }
        }
        f
    };

    let roots: Vec<FaultSite> = faults.iter().map(|&f| root_of(f)).collect();
    let mut reps: Vec<FaultSite> = roots.clone();
    reps.sort_by_key(|f| (f.instance, f.stuck_at));
    reps.dedup();
    let index_of = |f: &FaultSite| {
        reps.binary_search_by_key(&(f.instance, f.stuck_at), |r| (r.instance, r.stuck_at))
            .expect("root is a representative")
    };
    let class_of = roots.iter().map(index_of).collect();
    CollapsedFaults {
        faults: reps,
        class_of,
    }
}

/// One scan-test pattern: the values shifted into the chain plus the
/// primary-input values applied during the capture cycle.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ScanPattern {
    /// One bit per flip-flop, shifted in first-bit-first.
    pub chain_bits: Vec<bool>,
    /// Primary-input values during capture, `(port, value)`.
    pub inputs: Vec<(String, Bv)>,
}

/// Generates `n` deterministic pseudo-random patterns for a netlist.
pub fn random_patterns(nl: &GateNetlist, n: usize, seed: u64) -> Vec<ScanPattern> {
    let flops = nl.flop_count();
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..n)
        .map(|_| {
            let chain_bits = (0..flops).map(|_| next() & 1 == 1).collect();
            let inputs = nl
                .inputs()
                .iter()
                .filter(|(name, _)| name != "scan_in" && name != "scan_en")
                .map(|(name, bits)| (name.clone(), Bv::new(next(), bits.len() as u32)))
                .collect();
            ScanPattern { chain_bits, inputs }
        })
        .collect()
}

/// The signature a pattern produces: primary outputs after the capture
/// cycle plus the stream shifted out of the chain.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TestSignature {
    /// Primary-output values (four-valued, rendered) after capture.
    pub outputs: Vec<String>,
    /// Chain contents shifted out after capture.
    pub chain: Vec<Logic>,
}

/// Applies one scan pattern to a simulator and returns its signature.
///
/// Sequence: shift in (`scan_en=1`, one tick per flop), apply primary
/// inputs and capture one functional cycle (`scan_en=0`), shift out while
/// observing `scan_out`.
///
/// # Panics
///
/// Panics if the netlist has no scan chain.
pub fn apply_pattern(sim: &mut GateSim<'_>, nl: &GateNetlist, pattern: &ScanPattern) -> TestSignature {
    assert!(
        nl.input_port("scan_en").is_some(),
        "netlist has no scan chain; run insert_scan_chain first"
    );
    // Shift in.
    sim.set_input("scan_en", Bv::bit(true));
    for &bit in pattern.chain_bits.iter().rev() {
        sim.set_input("scan_in", Bv::bit(bit));
        sim.tick();
    }
    // Capture.
    sim.set_input("scan_en", Bv::zero(1));
    for (name, value) in &pattern.inputs {
        sim.set_input(name, *value);
    }
    sim.tick();
    let outputs = nl
        .outputs()
        .iter()
        .filter(|(name, _)| name != "scan_out")
        .map(|(name, _)| format!("{}", sim.output_logic(name)))
        .collect();
    // Shift out.
    sim.set_input("scan_en", Bv::bit(true));
    sim.set_input("scan_in", Bv::zero(1));
    let mut chain = Vec::with_capacity(pattern.chain_bits.len());
    for _ in 0..pattern.chain_bits.len() {
        chain.push(sim.output_logic("scan_out").get(0));
        sim.tick();
    }
    TestSignature { outputs, chain }
}

/// Applies up to 64 scan patterns at once, one per lane of a
/// [`BitGateSim`], and returns the batch signature: the `(value,
/// unknown)` planes of every primary-output bit after capture followed by
/// the `scan_out` planes of each shift-out step. Lanes beyond
/// `patterns.len()` hold garbage and must be masked by the caller.
///
/// The per-lane protocol is exactly [`apply_pattern`]'s; the caller is
/// expected to [`BitGateSim::reset`] (and re-inject any fault) first.
///
/// # Panics
///
/// Panics if the netlist has no scan chain, `patterns` is empty or longer
/// than the simulator's lane count, or the chain lengths differ.
pub fn apply_pattern_batch(
    sim: &mut BitGateSim<'_>,
    patterns: &[ScanPattern],
) -> Vec<(u64, u64)> {
    let nl = sim.netlist();
    assert!(
        nl.input_port("scan_en").is_some(),
        "netlist has no scan chain; run insert_scan_chain first"
    );
    assert!(
        !patterns.is_empty() && patterns.len() <= sim.lanes() as usize,
        "batch of {} patterns does not fit {} lanes",
        patterns.len(),
        sim.lanes()
    );
    let flops = patterns[0].chain_bits.len();
    // Shift in.
    sim.set_input("scan_en", Bv::bit(true));
    for s in 0..flops {
        let mut word = 0u64;
        for (lane, p) in patterns.iter().enumerate() {
            assert_eq!(p.chain_bits.len(), flops, "chain length mismatch");
            if p.chain_bits[flops - 1 - s] {
                word |= 1 << lane;
            }
        }
        sim.set_input_word("scan_in", word);
        sim.tick();
    }
    // Capture.
    sim.set_input("scan_en", Bv::zero(1));
    for (lane, p) in patterns.iter().enumerate() {
        for (name, value) in &p.inputs {
            sim.set_input_lane(name, lane as u32, *value);
        }
    }
    sim.tick();
    let mut sig = Vec::new();
    for (name, bits) in nl.outputs() {
        if name == "scan_out" {
            continue;
        }
        for &n in bits {
            sig.push(sim.net_planes(n));
        }
    }
    // Shift out.
    sim.set_input("scan_en", Bv::bit(true));
    sim.set_input("scan_in", Bv::zero(1));
    let scan_out = nl.output_port("scan_out").expect("scan chain has scan_out")[0];
    for _ in 0..flops {
        sig.push(sim.net_planes(scan_out));
        sim.tick();
    }
    sig
}

/// The result of a fault-coverage run.
#[derive(Clone, Debug)]
pub struct CoverageResult {
    /// Faults simulated.
    pub total: usize,
    /// Faults whose signature differed from the fault-free circuit on at
    /// least one pattern.
    pub detected: usize,
    /// Per-fault detection flags, parallel to the input fault list.
    pub detected_mask: Vec<bool>,
}

impl CoverageResult {
    /// Detected / total, in percent.
    pub fn coverage_pct(&self) -> f64 {
        if self.total == 0 {
            100.0
        } else {
            100.0 * self.detected as f64 / self.total as f64
        }
    }

    fn from_mask(detected_mask: Vec<bool>) -> Self {
        CoverageResult {
            total: detected_mask.len(),
            detected: detected_mask.iter().filter(|&&d| d).count(),
            detected_mask,
        }
    }
}

/// Instrumentation from one fault-coverage run.
///
/// The drop-rate curve is purely a function of the netlist, fault list
/// and pattern set (patterns are independent, so a fault's first
/// detecting batch does not depend on batching into shards or thread
/// count) — it belongs in deterministic metrics sections. The per-shard
/// wall times are wall-clock and must stay out of them.
#[derive(Clone, Debug)]
pub struct FaultSimStats {
    /// Engine that produced the result: `"ppsfp"` or `"serial"`.
    pub engine: &'static str,
    /// Worker threads used (1 for the serial reference).
    pub threads: usize,
    /// Pattern batches (64-pattern groups for PPSFP, single patterns
    /// for the serial reference).
    pub batches: usize,
    /// Faults assigned to each shard.
    pub shard_faults: Vec<usize>,
    /// Wall time each shard spent simulating, nanoseconds
    /// (non-deterministic; excluded from
    /// [`register_into`](FaultSimStats::register_into)).
    pub shard_wall_ns: Vec<u64>,
    /// Fault-drop-rate curve: `drop_curve[b]` faults were first
    /// detected (and dropped) in batch `b`; undetected faults appear in
    /// no bucket.
    pub drop_curve: Vec<usize>,
}

impl FaultSimStats {
    /// Faults still undetected after each batch, as a cumulative curve
    /// starting from `total`.
    pub fn remaining_curve(&self, total: usize) -> Vec<usize> {
        let mut remaining = total;
        self.drop_curve
            .iter()
            .map(|&d| {
                remaining -= d;
                remaining
            })
            .collect()
    }

    /// Per-shard wall times folded into a mergeable histogram (for
    /// display; wall-clock, hence non-deterministic).
    pub fn shard_wall_histogram(&self) -> scflow_obs::Histogram {
        let mut h = scflow_obs::Histogram::new();
        for &ns in &self.shard_wall_ns {
            h.record(ns);
        }
        h
    }

    /// Registers the deterministic quantities under `prefix`
    /// (e.g. `fault.ppsfp`): batch/shard/thread configuration and the
    /// drop-rate curve. Wall times are deliberately not registered.
    pub fn register_into(&self, reg: &mut scflow_obs::MetricsRegistry, prefix: &str) {
        reg.set_counter(&format!("{prefix}.batches"), self.batches as u64);
        reg.set_counter(&format!("{prefix}.shards"), self.shard_faults.len() as u64);
        reg.set_gauge(&format!("{prefix}.threads"), self.threads as i64);
        for (b, &d) in self.drop_curve.iter().enumerate() {
            reg.set_counter(&format!("{prefix}.drop_curve.b{b:03}"), d as u64);
        }
    }
}

/// Worker-thread count for PPSFP fault simulation: `SCFLOW_FAULT_THREADS`
/// if set to a positive integer, else the machine's available parallelism
/// (`1` runs everything inline, in deterministic serial order — though the
/// detected-fault set is the same at any thread count, because patterns
/// are independent).
pub fn fault_threads() -> usize {
    match std::env::var("SCFLOW_FAULT_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
    {
        Some(n) if n >= 1 => n,
        _ => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

/// Measures scan-test fault coverage with PPSFP on the compiled
/// bit-parallel engine, using [`fault_threads`] workers. Falls back to
/// [`fault_coverage_serial`] if the netlist cannot be levelized.
///
/// Each pattern is applied to a freshly reset circuit (patterns are
/// independent), and a fault is dropped after the first pattern batch
/// that distinguishes it from the fault-free circuit.
pub fn fault_coverage(
    nl: &GateNetlist,
    lib: &CellLibrary,
    faults: &[FaultSite],
    patterns: &[ScanPattern],
) -> CoverageResult {
    fault_coverage_with_threads(nl, lib, faults, patterns, fault_threads())
}

/// [`fault_coverage`] with an explicit worker-thread count.
pub fn fault_coverage_with_threads(
    nl: &GateNetlist,
    lib: &CellLibrary,
    faults: &[FaultSite],
    patterns: &[ScanPattern],
    threads: usize,
) -> CoverageResult {
    fault_coverage_instrumented_with_threads(nl, lib, faults, patterns, threads).0
}

/// [`fault_coverage`] plus run instrumentation: per-shard fault counts
/// and wall times, and the deterministic fault-drop-rate curve.
pub fn fault_coverage_instrumented(
    nl: &GateNetlist,
    lib: &CellLibrary,
    faults: &[FaultSite],
    patterns: &[ScanPattern],
) -> (CoverageResult, FaultSimStats) {
    fault_coverage_instrumented_with_threads(nl, lib, faults, patterns, fault_threads())
}

/// [`fault_coverage_instrumented`] with an explicit worker-thread count.
pub fn fault_coverage_instrumented_with_threads(
    nl: &GateNetlist,
    lib: &CellLibrary,
    faults: &[FaultSite],
    patterns: &[ScanPattern],
    threads: usize,
) -> (CoverageResult, FaultSimStats) {
    match GateProgram::compile(nl) {
        Ok(prog) => ppsfp(&prog, faults, patterns, threads),
        // Combinational loops need the event-driven delay semantics.
        Err(_) => serial_instrumented(nl, lib, faults, patterns),
    }
}

/// The serial reference: every fault is injected in turn on the
/// event-driven [`GateSim`] and tested one pattern at a time until
/// detected, each pattern on a freshly reset circuit. Produces the same
/// detected-fault set as [`fault_coverage`], slowly.
pub fn fault_coverage_serial(
    nl: &GateNetlist,
    lib: &CellLibrary,
    faults: &[FaultSite],
    patterns: &[ScanPattern],
) -> CoverageResult {
    serial_instrumented(nl, lib, faults, patterns).0
}

/// [`fault_coverage_serial`] plus instrumentation. The serial engine
/// tests one pattern at a time, so its drop-rate curve has one bucket
/// per pattern (batch size 1) and a single shard.
fn serial_instrumented(
    nl: &GateNetlist,
    lib: &CellLibrary,
    faults: &[FaultSite],
    patterns: &[ScanPattern],
) -> (CoverageResult, FaultSimStats) {
    let t0 = std::time::Instant::now();
    let mut sim = GateSim::new(nl, lib);
    let golden: Vec<TestSignature> = patterns
        .iter()
        .map(|p| {
            sim.reset();
            apply_pattern(&mut sim, nl, p)
        })
        .collect();

    let mut detected_mask = vec![false; faults.len()];
    let mut drop_curve = vec![0usize; patterns.len()];
    for (fault, flag) in faults.iter().zip(detected_mask.iter_mut()) {
        for (pi, (p, gold)) in patterns.iter().zip(&golden).enumerate() {
            sim.reset();
            sim.inject_stuck_at(fault.instance, fault.stuck_at);
            if apply_pattern(&mut sim, nl, p) != *gold {
                *flag = true;
                drop_curve[pi] += 1;
                break;
            }
        }
    }
    let stats = FaultSimStats {
        engine: "serial",
        threads: 1,
        batches: patterns.len(),
        shard_faults: vec![faults.len()],
        shard_wall_ns: vec![t0.elapsed().as_nanos() as u64],
        drop_curve,
    };
    (CoverageResult::from_mask(detected_mask), stats)
}

/// Runs one fault shard on a 64-lane engine. Each slot records the
/// fault's first differing batch (its drop point); `None` means
/// undetected.
fn shard_pass(
    sim: &mut BitGateSim<'_>,
    shard: &[FaultSite],
    out: &mut [Option<u32>],
    batches: &[&[ScanPattern]],
    golden: &[Vec<(u64, u64)>],
) {
    for (fault, slot) in shard.iter().zip(out.iter_mut()) {
        'batches: for (bi, (b, gold)) in batches.iter().zip(golden).enumerate() {
            sim.reset();
            sim.inject_stuck_at(fault.instance, fault.stuck_at);
            let sig = apply_pattern_batch(sim, b);
            let mask = if b.len() == 64 {
                !0u64
            } else {
                (1u64 << b.len()) - 1
            };
            for (s, g) in sig.iter().zip(gold) {
                if ((s.0 ^ g.0) | (s.1 ^ g.1)) & mask != 0 {
                    *slot = Some(bi as u32);
                    break 'batches;
                }
            }
        }
    }
}

/// PPSFP over a compiled program: fault-free batch signatures once, then
/// the fault list sharded across scoped worker threads, 64 patterns per
/// pass, faults dropped at their first differing batch.
fn ppsfp(
    prog: &GateProgram,
    faults: &[FaultSite],
    patterns: &[ScanPattern],
    threads: usize,
) -> (CoverageResult, FaultSimStats) {
    let n_batches = patterns.len().div_ceil(64);
    if faults.is_empty() || patterns.is_empty() {
        let stats = FaultSimStats {
            engine: "ppsfp",
            threads: 1,
            batches: n_batches,
            shard_faults: Vec::new(),
            shard_wall_ns: Vec::new(),
            drop_curve: vec![0; n_batches],
        };
        return (CoverageResult::from_mask(vec![false; faults.len()]), stats);
    }
    let batches: Vec<&[ScanPattern]> = patterns.chunks(64).collect();
    let golden: Vec<Vec<(u64, u64)>> = {
        let mut sim = prog.simulator_lanes(64);
        batches
            .iter()
            .map(|b| {
                sim.reset();
                apply_pattern_batch(&mut sim, b)
            })
            .collect()
    };

    // Returns the shard's wall time.
    let run = |shard: &[FaultSite], out: &mut [Option<u32>]| -> u64 {
        let t0 = std::time::Instant::now();
        let mut sim = prog.simulator_lanes(64);
        shard_pass(&mut sim, shard, out, &batches, &golden);
        t0.elapsed().as_nanos() as u64
    };

    let threads = threads.clamp(1, faults.len());
    let mut detected_at: Vec<Option<u32>> = vec![None; faults.len()];
    let mut shard_faults = Vec::new();
    let mut shard_wall_ns = Vec::new();
    if threads == 1 {
        shard_faults.push(faults.len());
        shard_wall_ns.push(run(faults, &mut detected_at));
    } else {
        let chunk = faults.len().div_ceil(threads);
        let run = &run;
        std::thread::scope(|s| {
            let handles: Vec<_> = faults
                .chunks(chunk)
                .zip(detected_at.chunks_mut(chunk))
                .map(|(shard, out)| {
                    shard_faults.push(shard.len());
                    s.spawn(move || run(shard, out))
                })
                .collect();
            for h in handles {
                shard_wall_ns.push(h.join().expect("fault shard panicked"));
            }
        });
    }
    let mut drop_curve = vec![0usize; batches.len()];
    for &bi in detected_at.iter().flatten() {
        drop_curve[bi as usize] += 1;
    }
    let detected_mask = detected_at.iter().map(Option::is_some).collect();
    let stats = FaultSimStats {
        engine: "ppsfp",
        threads,
        batches: batches.len(),
        shard_faults,
        shard_wall_ns,
        drop_curve,
    };
    (CoverageResult::from_mask(detected_mask), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::celllib::CellKind;
    use crate::netlist::NetlistBuilder;
    use crate::scan::insert_scan_chain;

    /// A small sequential circuit: 4-bit LFSR-ish register with an XOR
    /// feedback and a combinational output.
    fn small_design() -> GateNetlist {
        let mut b = NetlistBuilder::new("dut");
        let din = b.input_port("din", 1)[0];
        let q0w = b.net("q0w".into());
        let q1w = b.net("q1w".into());
        let fb = b.cell(CellKind::Xor2, &[q1w, din]);
        b.dff_onto(fb, q0w, false);
        b.dff_onto(q0w, q1w, false);
        let out = b.cell(CellKind::And2, &[q0w, q1w]);
        b.output_port("y", &[out]);
        insert_scan_chain(&b.build())
    }

    #[test]
    fn fault_free_signatures_are_deterministic() {
        let nl = small_design();
        let lib = CellLibrary::generic_025u();
        let patterns = random_patterns(&nl, 4, 99);
        let mut s1 = GateSim::new(&nl, &lib);
        let mut s2 = GateSim::new(&nl, &lib);
        for p in &patterns {
            assert_eq!(apply_pattern(&mut s1, &nl, p), apply_pattern(&mut s2, &nl, p));
        }
    }

    #[test]
    fn injected_fault_changes_behaviour() {
        let nl = small_design();
        let lib = CellLibrary::generic_025u();
        let patterns = random_patterns(&nl, 8, 7);
        // Fault the XOR feedback cell stuck-at-1.
        let xor_idx = nl
            .instances()
            .iter()
            .position(|i| i.kind == CellKind::Xor2)
            .expect("xor exists");
        let mut clean = GateSim::new(&nl, &lib);
        let mut faulty = GateSim::new(&nl, &lib);
        faulty.inject_stuck_at(xor_idx, true);
        let diff = patterns.iter().any(|p| {
            apply_pattern(&mut clean, &nl, p) != apply_pattern(&mut faulty, &nl, p)
        });
        assert!(diff, "a stuck feedback must be visible through scan");
    }

    #[test]
    fn coverage_is_high_on_small_design() {
        let nl = small_design();
        let lib = CellLibrary::generic_025u();
        let faults = all_fault_sites(&nl);
        let patterns = random_patterns(&nl, 16, 3);
        let result = fault_coverage(&nl, &lib, &faults, &patterns);
        assert_eq!(result.total, 2 * nl.instances().len());
        assert!(
            result.coverage_pct() > 80.0,
            "coverage {:.1}% too low",
            result.coverage_pct()
        );
    }

    #[test]
    fn no_patterns_means_no_detection() {
        let nl = small_design();
        let lib = CellLibrary::generic_025u();
        let faults = all_fault_sites(&nl);
        let result = fault_coverage(&nl, &lib, &faults, &[]);
        assert_eq!(result.detected, 0);
    }

    #[test]
    fn ppsfp_matches_serial_reference() {
        let nl = small_design();
        let lib = CellLibrary::generic_025u();
        let faults = all_fault_sites(&nl);
        for seed in [3u64, 41, 1234] {
            let patterns = random_patterns(&nl, 16, seed);
            let serial = fault_coverage_serial(&nl, &lib, &faults, &patterns);
            for threads in [1, 4] {
                let par =
                    fault_coverage_with_threads(&nl, &lib, &faults, &patterns, threads);
                assert_eq!(
                    par.detected_mask, serial.detected_mask,
                    "seed {seed}, {threads} threads"
                );
            }
        }
    }

    #[test]
    fn drop_curve_sums_to_detected_and_ignores_threading() {
        // 70 patterns -> two PPSFP batches (one partial).
        let nl = small_design();
        let lib = CellLibrary::generic_025u();
        let faults = all_fault_sites(&nl);
        let patterns = random_patterns(&nl, 70, 11);
        let (r1, s1) =
            fault_coverage_instrumented_with_threads(&nl, &lib, &faults, &patterns, 1);
        let (r4, s4) =
            fault_coverage_instrumented_with_threads(&nl, &lib, &faults, &patterns, 4);
        assert_eq!(s1.engine, "ppsfp");
        assert_eq!(s1.batches, 2);
        assert_eq!(s1.drop_curve.iter().sum::<usize>(), r1.detected);
        // The drop point of each fault is a property of the pattern set,
        // not of sharding.
        assert_eq!(s1.drop_curve, s4.drop_curve);
        assert_eq!(r1.detected_mask, r4.detected_mask);
        assert_eq!(s4.shard_faults.iter().sum::<usize>(), faults.len());
        assert_eq!(s4.shard_wall_ns.len(), s4.shard_faults.len());
        let remaining = s1.remaining_curve(r1.total);
        assert_eq!(remaining.last().copied(), Some(r1.total - r1.detected));
    }

    #[test]
    fn collapse_merges_fanout_free_chains() {
        // in -> INV -> BUF -> NAND2(other) -> out, everything fanout-free:
        // INV s-a-0 == BUF s-a-1 == NAND out s-a-... only the controlling
        // polarity merges into the NAND.
        let mut b = NetlistBuilder::new("chain");
        let a = b.input_port("a", 1)[0];
        let o = b.input_port("o", 1)[0];
        let inv = b.cell(CellKind::Inv, &[a]);
        let buf = b.cell(CellKind::Buf, &[inv]);
        let y = b.cell(CellKind::Nand2, &[buf, o]);
        b.output_port("y", &[y]);
        let nl = b.build();
        let faults = all_fault_sites(&nl);
        let c = collapse_faults(&nl, &faults);
        assert_eq!(c.class_of.len(), faults.len());
        // INV s-a-1 -> BUF s-a-1 -> (controlling 0? no: 1 is non-controlling
        // for NAND) stops at the BUF... the BUF output feeds the NAND pin,
        // so s-a-1 stays a BUF-rooted... no: BUF s-a-1 maps to itself only
        // if no rule applies; s-a-1 into NAND2 is non-controlling, so the
        // chain ends at the NAND *pin*, i.e. the BUF fault is the root.
        // s-a-0 into NAND2 is controlling: INV s-a-0 == BUF s-a-0 == NAND
        // s-a-1, one class.
        let idx = |inst: usize, v: bool| {
            c.class_of[faults
                .iter()
                .position(|f| f.instance == inst && f.stuck_at == v)
                .unwrap()]
        };
        let (inv_i, buf_i, nand_i) = (0usize, 1usize, 2usize);
        assert_eq!(idx(inv_i, false), idx(buf_i, false));
        assert_eq!(idx(buf_i, false), idx(nand_i, true));
        assert_eq!(idx(inv_i, true), idx(buf_i, true));
        assert_ne!(idx(buf_i, true), idx(nand_i, false));
        assert!(c.faults.len() < faults.len());
        // Representatives are sorted, deduped and self-rooted.
        let rep_faults = collapse_faults(&nl, &c.faults);
        assert_eq!(rep_faults.faults, c.faults);
    }

    #[test]
    fn collapse_respects_fanout_and_observability() {
        // A net with two consumers, and a net feeding an output port:
        // neither may collapse.
        let mut b = NetlistBuilder::new("fan");
        let a = b.input_port("a", 1)[0];
        let x = b.input_port("x", 1)[0];
        let inv = b.cell(CellKind::Inv, &[a]); // feeds two ANDs
        let y0 = b.cell(CellKind::And2, &[inv, x]);
        let y1 = b.cell(CellKind::And2, &[inv, a]);
        let buf = b.cell(CellKind::Buf, &[y0]); // y0 also an output port
        b.output_port("y0", &[y0]);
        b.output_port("b", &[buf]);
        b.output_port("y1", &[y1]);
        let nl = b.build();
        let faults = all_fault_sites(&nl);
        let c = collapse_faults(&nl, &faults);
        assert_eq!(c.faults.len(), faults.len(), "nothing may collapse");
    }

    #[test]
    fn collapsed_and_uncollapsed_detected_sets_agree() {
        let nl = small_design();
        let lib = CellLibrary::generic_025u();
        let faults = all_fault_sites(&nl);
        let collapsed = collapse_faults(&nl, &faults);
        let patterns = random_patterns(&nl, 24, 17);
        let full = fault_coverage(&nl, &lib, &faults, &patterns);
        let reps = fault_coverage(&nl, &lib, &collapsed.faults, &patterns);
        assert_eq!(
            collapsed.expand_mask(&reps.detected_mask),
            full.detected_mask,
            "equivalent faults must have identical detection"
        );
    }

    #[test]
    fn batch_boundaries_do_not_change_detection() {
        // More than 64 patterns forces a second (partial) batch.
        let nl = small_design();
        let lib = CellLibrary::generic_025u();
        let faults = all_fault_sites(&nl);
        let patterns = random_patterns(&nl, 70, 11);
        let serial = fault_coverage_serial(&nl, &lib, &faults, &patterns);
        let par = fault_coverage_with_threads(&nl, &lib, &faults, &patterns, 2);
        assert_eq!(par.detected_mask, serial.detected_mask);
    }
}
