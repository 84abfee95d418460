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
//! evaluate per pass in the lanes of a [`BitGateSim`], the batches are
//! walked in order over the faults still undetected (a fault drops at its
//! first differing batch), and each batch's faults are dealt round-robin
//! to `std::thread::scope` workers ([`fault_threads`] /
//! `SCFLOW_FAULT_THREADS`). Every pattern is applied to a freshly reset
//! circuit, so patterns are independent and the detected-fault set does
//! not depend on batching or thread count; [`fault_coverage_serial`] is
//! the one-fault × one-pattern reference on the event-driven simulator
//! and produces the identical detected set (the differential tests pin
//! this). Netlists the levelizer rejects (combinational loops) fall back
//! to the serial reference automatically.
//!
//! One kernel computes every detection mask, here and in ATPG's random,
//! verification and compaction stages ([`detection_masks`]). Each batch
//! gets one fault-free run of the scan protocol, which records the
//! settled planes and memory words just before and just after the
//! capture edge. Almost every fault can act only in that one capture
//! cycle: it sits off the flop outputs and outside the small cone of
//! what can change state while `scan_en` is 1 (the scan path, `scan_out`
//! and RAM write ports not held shut by their write-protect gate; see
//! `frame_eligible` in `compile.rs`). The faulty circuit then enters
//! capture in the fault-free state, so the kernel forces the fault on the
//! pre-edge planes and re-evaluates only its fan-out, takes the changed D
//! nets as the flops' captured states, seeds those and the fault on the
//! post-edge planes, and re-evaluates their fan-out. The mask is the
//! post-edge primary-output differences plus the captured-state
//! differences, which a pure scan chain shifts out unchanged. Faults
//! outside that rule, and any fault whose pre-edge cone changes a RAM
//! write port (the word written at the edge would differ), run the full
//! protocol instead. Both paths give the same mask, bit for bit; a
//! differential suite compares them on every SRC netlist and generator
//! family.

use crate::bitpar::{eval_gate, read_port, BitGateSim};
use crate::celllib::{CellKind, CellLibrary};
use crate::compile::{net_consumers, GateProgram, Instr, NetRows};
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
/// Panics if the netlist has no scan chain, or the pattern's chain length
/// differs from the netlist's flop count.
pub fn apply_pattern(
    sim: &mut GateSim<'_>,
    nl: &GateNetlist,
    pattern: &ScanPattern,
) -> TestSignature {
    assert!(
        nl.input_port("scan_en").is_some(),
        "netlist has no scan chain; run insert_scan_chain first"
    );
    assert_chain_lengths(nl, std::slice::from_ref(pattern));
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
/// than the simulator's lane count, or a pattern's chain length differs
/// from the netlist's flop count.
pub fn apply_pattern_batch(sim: &mut BitGateSim<'_>, patterns: &[ScanPattern]) -> Vec<(u64, u64)> {
    run_protocol(sim, patterns, None)
}

/// Panics unless every pattern carries one chain bit per flop: a shorter
/// pattern would leave part of the chain unloaded and unobserved.
fn assert_chain_lengths(nl: &GateNetlist, patterns: &[ScanPattern]) {
    let flops = nl.flop_count();
    for (i, p) in patterns.iter().enumerate() {
        assert!(
            p.chain_bits.len() == flops,
            "pattern {i} has {} chain bits, but the scan chain has {flops} flops",
            p.chain_bits.len()
        );
    }
}

/// The scan protocol behind [`apply_pattern_batch`]. With `edge` given it
/// also records the settled state on both sides of the capture edge — the
/// fault-free reference of the PPSFP kernel's capture-frame path.
fn run_protocol(
    sim: &mut BitGateSim<'_>,
    patterns: &[ScanPattern],
    mut edge: Option<&mut Reference>,
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
    assert_chain_lengths(nl, patterns);
    let flops = nl.flop_count();
    // Shift in.
    sim.set_input("scan_en", Bv::bit(true));
    for s in 0..flops {
        let mut word = 0u64;
        for (lane, p) in patterns.iter().enumerate() {
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
    if let Some(r) = edge.as_deref_mut() {
        sim.settle();
        r.pre.record(sim);
    }
    sim.tick();
    if let Some(r) = edge {
        r.post.record(sim);
    }
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
    /// Fault × batch runs finished on the capture frame (see
    /// [`detection_masks`]).
    pub fsim_frame: u64,
    /// Fault × batch runs on the full scan protocol (every run, for the
    /// serial reference).
    pub fsim_protocol: u64,
    /// Instructions re-evaluated on the capture frame.
    pub fsim_cone_evals: u64,
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
    /// (e.g. `fault.ppsfp`): batch/shard/thread configuration, the
    /// drop-rate curve and the simulation work (`fsim.*`, sums over
    /// faults). Wall times are deliberately not registered.
    pub fn register_into(&self, reg: &mut scflow_obs::MetricsRegistry, prefix: &str) {
        reg.set_counter(&format!("{prefix}.batches"), self.batches as u64);
        reg.set_counter(&format!("{prefix}.shards"), self.shard_faults.len() as u64);
        reg.set_gauge(&format!("{prefix}.threads"), self.threads as i64);
        for (b, &d) in self.drop_curve.iter().enumerate() {
            reg.set_counter(&format!("{prefix}.drop_curve.b{b:03}"), d as u64);
        }
        reg.set_counter(&format!("{prefix}.fsim.frame"), self.fsim_frame);
        reg.set_counter(&format!("{prefix}.fsim.protocol"), self.fsim_protocol);
        reg.set_counter(&format!("{prefix}.fsim.cone_evals"), self.fsim_cone_evals);
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
///
/// # Panics
///
/// This and the other `fault_coverage*` entry points panic if a
/// pattern's chain length differs from the netlist's flop count, or,
/// with faults and patterns to simulate, if the netlist has no scan
/// chain.
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
    let mut runs = 0;
    for (fault, flag) in faults.iter().zip(detected_mask.iter_mut()) {
        for (pi, (p, gold)) in patterns.iter().zip(&golden).enumerate() {
            runs += 1;
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
        fsim_frame: 0,
        fsim_protocol: runs,
        fsim_cone_evals: 0,
    };
    (CoverageResult::from_mask(detected_mask), stats)
}

/// PPSFP over a compiled program: one [`Ppsfp`] kernel for the whole
/// call, the batches walked in order over the faults still undetected, a
/// fault dropped at its first differing batch.
fn ppsfp(
    prog: &GateProgram,
    faults: &[FaultSite],
    patterns: &[ScanPattern],
    threads: usize,
) -> (CoverageResult, FaultSimStats) {
    assert_chain_lengths(prog.netlist(), patterns);
    let n_batches = patterns.len().div_ceil(64);
    if faults.is_empty() || patterns.is_empty() {
        let stats = FaultSimStats {
            engine: "ppsfp",
            threads: 1,
            batches: n_batches,
            shard_faults: Vec::new(),
            shard_wall_ns: Vec::new(),
            drop_curve: vec![0; n_batches],
            fsim_frame: 0,
            fsim_protocol: 0,
            fsim_cone_evals: 0,
        };
        return (CoverageResult::from_mask(vec![false; faults.len()]), stats);
    }
    let threads = threads.clamp(1, faults.len());
    let mut kernel = Ppsfp::new(prog, threads);
    let mut detected_at: Vec<Option<u32>> = vec![None; faults.len()];
    let mut alive: Vec<usize> = (0..faults.len()).collect();
    let mut shard_wall_ns = vec![0u64; threads];
    for (bi, batch) in patterns.chunks(64).enumerate() {
        if alive.is_empty() {
            break;
        }
        let targets: Vec<FaultSite> = alive.iter().map(|&i| faults[i]).collect();
        let (masks, wall) = kernel.masks_timed(&targets, batch);
        for (total, ns) in shard_wall_ns.iter_mut().zip(wall) {
            *total += ns;
        }
        let mut still = Vec::with_capacity(alive.len());
        for (&i, &m) in alive.iter().zip(&masks) {
            if m == 0 {
                still.push(i);
            } else {
                detected_at[i] = Some(bi as u32);
            }
        }
        alive = still;
    }
    let mut drop_curve = vec![0usize; n_batches];
    for &bi in detected_at.iter().flatten() {
        drop_curve[bi as usize] += 1;
    }
    let work = kernel.work();
    let stats = FaultSimStats {
        engine: "ppsfp",
        threads,
        batches: n_batches,
        // Every fault is alive in the first batch, which deals them out
        // round-robin: shard k gets faults k, k + threads, ...
        shard_faults: (0..threads)
            .map(|k| (faults.len() - k).div_ceil(threads))
            .collect(),
        shard_wall_ns,
        drop_curve,
        fsim_frame: work.frame,
        fsim_protocol: work.protocol,
        fsim_cone_evals: work.cone_evals,
    };
    let detected_mask = detected_at.iter().map(Option::is_some).collect();
    (CoverageResult::from_mask(detected_mask), stats)
}

/// Detection masks of `faults` against one batch of at most 64 patterns:
/// bit *i* of a fault's mask is set when pattern *i*'s signature (the
/// primary outputs after capture and the whole shift-out stream) differs
/// from the fault-free circuit's. Computed by the PPSFP kernel on
/// `threads` workers; the masks do not depend on `threads`.
///
/// # Panics
///
/// Panics if a pattern's chain length differs from the netlist's flop
/// count, or, with faults to simulate, if the netlist has no scan chain
/// or the batch holds more than 64 patterns.
pub fn detection_masks(
    prog: &GateProgram,
    faults: &[FaultSite],
    batch: &[ScanPattern],
    threads: usize,
) -> Vec<u64> {
    Ppsfp::new(prog, threads).masks(faults, batch)
}

/// Work the PPSFP kernel did, summed over fault × batch runs — so, like
/// the masks, independent of how the faults were sharded.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct FsimWork {
    /// Runs finished on the capture frame.
    pub(crate) frame: u64,
    /// Runs on the full scan protocol, chosen structurally or at run time.
    pub(crate) protocol: u64,
    /// Instructions re-evaluated on the capture frame (including the
    /// pre-edge part of runs that then fell back to the protocol).
    pub(crate) cone_evals: u64,
}

/// Net flag: a stuck-at fault here may take the capture-frame path.
const ELIGIBLE: u8 = 1;
/// Net flag: a primary-output bit (`scan_out` excluded).
const PRIMARY_OUT: u8 = 2;
/// Net flag: a RAM write enable, address or data bit.
const WRITE_PORT: u8 = 4;

/// Lanes of every kernel simulator and reference.
const LANES: u32 = 64;

/// The settled planes and memory contents at one side of the capture
/// edge.
#[derive(Default)]
struct Edge {
    val: Vec<u64>,
    unk: Vec<u64>,
    mems: Vec<Vec<Bv>>,
}

impl Edge {
    fn record(&mut self, sim: &BitGateSim<'_>) {
        let (val, unk) = sim.planes();
        self.val.clear();
        self.val.extend_from_slice(val);
        self.unk.clear();
        self.unk.extend_from_slice(unk);
        self.mems.resize_with(sim.memories().len(), Vec::new);
        for (dst, src) in self.mems.iter_mut().zip(sim.memories()) {
            dst.clear();
            dst.extend_from_slice(src);
        }
    }
}

/// One batch's fault-free run: its signature and the capture edge.
#[derive(Default)]
struct Reference {
    golden: Vec<(u64, u64)>,
    /// The lanes holding patterns.
    lane_mask: u64,
    /// Settled just before the capture edge (flops hold the shifted-in
    /// chain bits, primary inputs their capture values).
    pre: Edge,
    /// Settled just after it.
    post: Edge,
}

/// Working planes of one side of the edge: equal to the reference's
/// except at the nets one fault's run has touched.
struct Scratch {
    val: Vec<u64>,
    unk: Vec<u64>,
}

impl Scratch {
    fn load(&mut self, edge: &Edge) {
        self.val.clone_from(&edge.val);
        self.unk.clone_from(&edge.unk);
    }

    fn restore(&mut self, edge: &Edge, touched: &[u32]) {
        for &n in touched {
            self.val[n as usize] = edge.val[n as usize];
            self.unk[n as usize] = edge.unk[n as usize];
        }
    }

    /// The lanes in which net `n` differs from the reference.
    fn diff(&self, edge: &Edge, n: usize) -> u64 {
        (self.val[n] ^ edge.val[n]) | (self.unk[n] ^ edge.unk[n])
    }
}

/// One worker's state: a simulator for protocol runs, the two working
/// plane sets and the propagation scratch.
struct Worker<'p> {
    sim: BitGateSim<'p>,
    pre: Scratch,
    post: Scratch,
    /// Pending re-evaluations, one bit per instruction index.
    dirty: Vec<u64>,
    /// Nets the current propagation changed, each once.
    touched: Vec<u32>,
    /// Flops whose captured state the fault changed: `(Q net, planes)`.
    captured: Vec<(u32, u64, u64)>,
    work: FsimWork,
}

impl<'p> Worker<'p> {
    fn new(prog: &'p GateProgram) -> Self {
        let nets = prog.netlist().net_count();
        let scratch = || Scratch {
            val: vec![0; nets],
            unk: vec![0; nets],
        };
        Worker {
            sim: prog.simulator_lanes(LANES),
            pre: scratch(),
            post: scratch(),
            dirty: vec![0; prog.instrs.len().div_ceil(64)],
            touched: Vec::new(),
            captured: Vec::new(),
            work: FsimWork::default(),
        }
    }
}

/// The netlist-wide part of the kernel, shared by every worker.
struct Model<'p> {
    prog: &'p GateProgram,
    /// Per net: [`ELIGIBLE`], [`PRIMARY_OUT`] and [`WRITE_PORT`] bits.
    flags: Vec<u8>,
    /// Net → the instructions reading it.
    consumers: NetRows,
    /// Net → the Q nets of the flops capturing it.
    captures: NetRows,
}

/// The PPSFP kernel: 64-lane detection masks per fault and batch, for
/// [`fault_coverage`] and every simulation stage of ATPG.
///
/// Each batch gets one fault-free run of the full scan protocol, which
/// also records the settled planes and memory words on both sides of the
/// capture edge. A fault [`crate::compile::frame_eligible`] deems unable
/// to change any state while the chain shifts then needs only the
/// capture frame:
///
/// 1. force the fault on the pre-edge planes and re-evaluate its fan-out
///    in instruction order, from a bitset over instruction indices;
/// 2. take each changed D net as its flop's captured state — with
///    `scan_en` at 0 an SDFF samples exactly its D planes;
/// 3. seed those flops and the fault on the post-edge planes and
///    re-evaluate their fan-out;
/// 4. OR the post-edge primary-output differences and the captured-state
///    differences into the mask: the chain is a pure shift register the
///    fault cannot reach, so shift-out replays every captured state.
///
/// Touched nets are restored from the reference through the touched
/// list, so the planes are never copied per fault. A fault whose
/// pre-edge cone changes a RAM write-port net in a pattern lane writes a
/// different word at the edge, which the post-edge reference cannot
/// show; it falls back to the protocol, as do flop-output faults, faults
/// inside the shift cone and every fault of a netlist without a pure
/// chain. Either path gives the protocol's mask exactly.
pub(crate) struct Ppsfp<'p> {
    model: Model<'p>,
    reference: Reference,
    /// One per thread, created on first use.
    workers: Vec<Worker<'p>>,
    threads: usize,
}

impl<'p> Ppsfp<'p> {
    /// Builds the kernel for one call: eligibility, fan-out rows and net
    /// flags, for faults simulated on up to `threads` workers.
    pub(crate) fn new(prog: &'p GateProgram, threads: usize) -> Self {
        let nl = prog.netlist();
        let nets = nl.net_count();
        let mut flags = vec![0u8; nets];
        if let Some(eligible) = crate::compile::frame_eligible(nl, &prog.instrs) {
            for (f, e) in flags.iter_mut().zip(eligible) {
                *f |= ELIGIBLE * u8::from(e);
            }
        }
        for (name, bits) in nl.outputs() {
            if name != "scan_out" {
                for n in bits {
                    flags[n.0] |= PRIMARY_OUT;
                }
            }
        }
        for mem in nl.memories() {
            if let Some(wen) = mem.wen {
                for n in mem.waddr.iter().chain(&mem.wdata).chain([&wen]) {
                    flags[n.0] |= WRITE_PORT;
                }
            }
        }
        let captures: Vec<(usize, u32)> = prog
            .flops
            .iter()
            .map(|&fi| {
                let inst = &nl.instances()[fi as usize];
                (inst.inputs[0].0, inst.output.0 as u32)
            })
            .collect();
        Ppsfp {
            model: Model {
                prog,
                flags,
                consumers: net_consumers(nl, &prog.instrs),
                captures: NetRows::new(nets, &captures),
            },
            reference: Reference::default(),
            workers: Vec::new(),
            threads: threads.max(1),
        }
    }

    /// Detection masks of `faults` against one batch (see
    /// [`detection_masks`]).
    pub(crate) fn masks(&mut self, faults: &[FaultSite], batch: &[ScanPattern]) -> Vec<u64> {
        self.masks_timed(faults, batch).0
    }

    /// [`Ppsfp::masks`] plus each shard's wall time in nanoseconds.
    /// Shard `k` of `t` takes faults `k`, `k + t`, ...: flop-output and
    /// shift-cone faults cost a whole protocol each, and dealing
    /// round-robin spreads them over the workers wherever they sit in
    /// the list.
    fn masks_timed(&mut self, faults: &[FaultSite], batch: &[ScanPattern]) -> (Vec<u64>, Vec<u64>) {
        assert_chain_lengths(self.model.prog.netlist(), batch);
        if faults.is_empty() || batch.is_empty() {
            return (vec![0; faults.len()], Vec::new());
        }
        let t = self.threads.min(faults.len());
        while self.workers.len() < t {
            self.workers.push(Worker::new(self.model.prog));
        }
        let r = &mut self.reference;
        let sim = &mut self.workers[0].sim;
        sim.reset();
        let golden = run_protocol(sim, batch, Some(r));
        r.golden = golden;
        r.lane_mask = if batch.len() == 64 {
            !0
        } else {
            (1u64 << batch.len()) - 1
        };
        let (model, r) = (&self.model, &self.reference);
        let run = |k: usize, w: &mut Worker<'p>| -> (Vec<u64>, u64) {
            let t0 = std::time::Instant::now();
            w.pre.load(&r.pre);
            w.post.load(&r.post);
            let masks = faults[k..]
                .iter()
                .step_by(t)
                .map(|&f| model.mask(r, w, f, batch))
                .collect();
            (masks, t0.elapsed().as_nanos() as u64)
        };
        let shards: Vec<(Vec<u64>, u64)> = if t == 1 {
            vec![run(0, &mut self.workers[0])]
        } else {
            let run = &run;
            std::thread::scope(|s| {
                let handles: Vec<_> = self.workers[..t]
                    .iter_mut()
                    .enumerate()
                    .map(|(k, w)| s.spawn(move || run(k, w)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("fault shard panicked"))
                    .collect()
            })
        };
        let mut masks = vec![0u64; faults.len()];
        let mut wall = Vec::with_capacity(t);
        for (k, (shard, ns)) in shards.into_iter().enumerate() {
            for (j, m) in shard.into_iter().enumerate() {
                masks[k + j * t] = m;
            }
            wall.push(ns);
        }
        (masks, wall)
    }

    /// Work summed over every call so far.
    pub(crate) fn work(&self) -> FsimWork {
        self.workers
            .iter()
            .fold(FsimWork::default(), |acc, w| FsimWork {
                frame: acc.frame + w.work.frame,
                protocol: acc.protocol + w.work.protocol,
                cone_evals: acc.cone_evals + w.work.cone_evals,
            })
    }
}

impl<'p> Model<'p> {
    /// One fault's mask against the batch whose reference `r` is.
    fn mask(
        &self,
        r: &Reference,
        w: &mut Worker<'p>,
        fault: FaultSite,
        batch: &[ScanPattern],
    ) -> u64 {
        let net = self.prog.netlist().instances()[fault.instance].output.0;
        if self.flags[net] & ELIGIBLE != 0 {
            if let Some(mask) = self.frame_mask(r, w, net as u32, fault.stuck_at) {
                w.work.frame += 1;
                return mask;
            }
        }
        w.work.protocol += 1;
        w.sim.reset();
        w.sim.inject_stuck_at(fault.instance, fault.stuck_at);
        let sig = run_protocol(&mut w.sim, batch, None);
        let diff = sig
            .iter()
            .zip(&r.golden)
            .fold(0, |m, (s, g)| m | (s.0 ^ g.0) | (s.1 ^ g.1));
        diff & r.lane_mask
    }

    /// The capture-frame path for a fault forcing `net` to `stuck`;
    /// `None` when the fault changes a RAM write port at the edge.
    fn frame_mask(&self, r: &Reference, w: &mut Worker<'p>, net: u32, stuck: bool) -> Option<u64> {
        let Worker {
            pre,
            post,
            dirty,
            touched,
            captured,
            work,
            ..
        } = w;
        let forced = (net, if stuck { !0 } else { 0 }, 0);
        let mut mask = 0;
        let mut writes = false;

        touched.clear();
        captured.clear();
        work.cone_evals += self.propagate(pre, &r.pre, [forced], net, dirty, touched);
        for &n in touched.iter() {
            let n = n as usize;
            let diff = pre.diff(&r.pre, n);
            writes |= self.flags[n] & WRITE_PORT != 0 && diff & r.lane_mask != 0;
            let caps = self.captures.row(n);
            if !caps.is_empty() {
                mask |= diff;
                captured.extend(caps.iter().map(|&q| (q, pre.val[n], pre.unk[n])));
            }
        }
        pre.restore(&r.pre, touched);
        if writes {
            return None;
        }

        touched.clear();
        let seeds = std::iter::once(forced).chain(captured.iter().copied());
        work.cone_evals += self.propagate(post, &r.post, seeds, net, dirty, touched);
        for &n in touched.iter() {
            if self.flags[n as usize] & PRIMARY_OUT != 0 {
                mask |= post.diff(&r.post, n as usize);
            }
        }
        post.restore(&r.post, touched);
        Some(mask & r.lane_mask)
    }

    /// Sets the `seeds` (`(net, value, unknown)`) on planes equal to
    /// `edge` and re-evaluates their fan-out: in instruction order, from
    /// the `dirty` bitset, following an instruction's consumers only when
    /// an output changed, with the fault's net held. Every net that ends
    /// up differing from `edge` is pushed to `touched` once. Returns the
    /// instructions evaluated.
    fn propagate(
        &self,
        planes: &mut Scratch,
        edge: &Edge,
        seeds: impl IntoIterator<Item = (u32, u64, u64)>,
        fault_net: u32,
        dirty: &mut [u64],
        touched: &mut Vec<u32>,
    ) -> u64 {
        let (mut lo, mut hi) = (usize::MAX, 0usize);
        let mark = |n: usize, dirty: &mut [u64], lo: &mut usize, hi: &mut usize| {
            for &c in self.consumers.row(n) {
                dirty[c as usize / 64] |= 1 << (c % 64);
                *lo = (*lo).min(c as usize);
                *hi = (*hi).max(c as usize);
            }
        };
        for (n, v, u) in seeds {
            let n = n as usize;
            if planes.val[n] != v || planes.unk[n] != u {
                planes.val[n] = v;
                planes.unk[n] = u;
                touched.push(n as u32);
                mark(n, dirty, &mut lo, &mut hi);
            }
        }
        if lo == usize::MAX {
            return 0;
        }
        let nl = self.prog.netlist();
        let mut evals = 0;
        let mut wi = lo / 64;
        // Consumers sit later in the levelized stream than their
        // producer, so a mark never lands behind the cursor.
        while wi <= hi / 64 {
            let bits = dirty[wi];
            if bits == 0 {
                wi += 1;
                continue;
            }
            dirty[wi] = bits & (bits - 1);
            let i = wi * 64 + bits.trailing_zeros() as usize;
            evals += 1;
            match self.prog.instrs[i] {
                Instr::Gate { kind, a, b, c, out } => {
                    if out == fault_net {
                        continue;
                    }
                    let (a, b, c, o) = (a as usize, b as usize, c as usize, out as usize);
                    let (v, u) = eval_gate(
                        kind,
                        planes.val[a],
                        planes.unk[a],
                        planes.val[b],
                        planes.unk[b],
                        planes.val[c],
                        planes.unk[c],
                    );
                    if v != planes.val[o] || u != planes.unk[o] {
                        planes.val[o] = v;
                        planes.unk[o] = u;
                        touched.push(out);
                        mark(o, dirty, &mut lo, &mut hi);
                    }
                }
                Instr::MemRead(m) => {
                    let mem = &nl.memories()[m as usize];
                    let (dv, du) = read_port(
                        mem,
                        &edge.mems[m as usize],
                        LANES as usize,
                        &planes.val,
                        &planes.unk,
                    );
                    for (bit, n) in mem.dout.iter().enumerate() {
                        if dv[bit] != planes.val[n.0] || du[bit] != planes.unk[n.0] {
                            planes.val[n.0] = dv[bit];
                            planes.unk[n.0] = du[bit];
                            touched.push(n.0 as u32);
                            mark(n.0, dirty, &mut lo, &mut hi);
                        }
                    }
                }
            }
        }
        evals
    }
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
            assert_eq!(
                apply_pattern(&mut s1, &nl, p),
                apply_pattern(&mut s2, &nl, p)
            );
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
        let diff = patterns
            .iter()
            .any(|p| apply_pattern(&mut clean, &nl, p) != apply_pattern(&mut faulty, &nl, p));
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

    /// Patterns with one chain bit too few for the netlist.
    fn short_patterns(nl: &GateNetlist) -> Vec<ScanPattern> {
        let mut patterns = random_patterns(nl, 4, 5);
        for p in &mut patterns {
            p.chain_bits.pop();
        }
        patterns
    }

    #[test]
    #[should_panic(expected = "chain bits")]
    fn short_pattern_panics_in_fault_coverage() {
        let nl = small_design();
        let lib = CellLibrary::generic_025u();
        fault_coverage(&nl, &lib, &all_fault_sites(&nl), &short_patterns(&nl));
    }

    #[test]
    #[should_panic(expected = "chain bits")]
    fn short_pattern_panics_in_apply_pattern_batch() {
        let nl = small_design();
        let prog = GateProgram::compile(&nl).unwrap();
        apply_pattern_batch(&mut prog.simulator_lanes(64), &short_patterns(&nl));
    }

    #[test]
    #[should_panic(expected = "chain bits")]
    fn short_pattern_panics_in_apply_pattern() {
        let nl = small_design();
        let lib = CellLibrary::generic_025u();
        apply_pattern(&mut GateSim::new(&nl, &lib), &nl, &short_patterns(&nl)[0]);
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
                let par = fault_coverage_with_threads(&nl, &lib, &faults, &patterns, threads);
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
        let (r1, s1) = fault_coverage_instrumented_with_threads(&nl, &lib, &faults, &patterns, 1);
        let (r4, s4) = fault_coverage_instrumented_with_threads(&nl, &lib, &faults, &patterns, 4);
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
