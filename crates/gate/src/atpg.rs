//! Automatic test-pattern generation: staged random + PODEM search.
//!
//! [`generate_tests`] closes the fault-coverage loop the scan chain
//! opened: instead of only *measuring* coverage of a fixed random pattern
//! set, it grows a compact pattern set until the stuck-at fault list is
//! covered:
//!
//! 1. **Random stage** — 64-pattern rounds simulated by the PPSFP
//!    kernel ([`crate::fault::detection_masks`], built once per call and
//!    shared with the verification and compaction stages) with fault
//!    dropping; rounds whose
//!    marginal yield is zero are discarded, and the stage stops after
//!    [`AtpgOptions::random_stall`] consecutive dry rounds (random
//!    patterns find the easy faults at a fraction of a directed search's
//!    cost).
//! 2. **Directed stage** — a PODEM-style branch-and-bound per remaining
//!    fault on the capture-frame model ([`implic::Frame`]): objective
//!    selection, backtrace to an unassigned primary/scan input,
//!    incremental four-valued implication of both circuit planes (only
//!    the fan-out of changed inputs is re-evaluated), and chronological
//!    backtracking bounded by [`AtpgOptions::budget`]. Searches run
//!    speculatively on [`fault_threads`] workers and are committed in
//!    fault order.
//!    Exhausting the search space on a memory-free netlist **proves** the
//!    fault untestable; running out of budget (or any verdict the frame
//!    cannot make sound — flop-output faults, memory-bearing netlists)
//!    classifies it [`FaultClass::Aborted`]. Generated patterns buffer
//!    into 64-lane batches and are *verified by simulation* before any
//!    fault is marked detected — the frame never gets the final word.
//! 3. **Compaction** — reverse-order pattern pruning: patterns are
//!    re-simulated newest-first with fault dropping and a pattern is kept
//!    only if it detects a fault nothing newer detects.
//!
//! Every quantity here is deterministic: pattern content derives from
//! [`AtpgOptions::seed`] and fault identity alone, faults are committed
//! in ascending order (a PODEM search is a pure function of frame, fault
//! and budget, so where it ran does not matter), and per-fault detection
//! is independent of thread sharding (patterns are applied to a freshly
//! reset circuit, exactly as in PPSFP), so the result — effort counters
//! included — is byte-identical at any `SCFLOW_FAULT_THREADS` setting.

mod implic;

use crate::celllib::CellLibrary;
use crate::compile::GateProgram;
use crate::fault::{fault_threads, FaultSite, Ppsfp, ScanPattern};
use crate::netlist::GateNetlist;
use implic::{Frame, FrameInput};
use scflow_hwtypes::Bv;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Knobs for the staged generator. [`AtpgOptions::from_env`] reads the
/// `SCFLOW_ATPG_*` environment; [`Default`] is the documented baseline.
#[derive(Clone, Debug)]
pub struct AtpgOptions {
    /// Run the random stage (`SCFLOW_ATPG_STAGES` contains `random`).
    pub random: bool,
    /// Run the directed PODEM stage (`SCFLOW_ATPG_STAGES` contains
    /// `directed`).
    pub directed: bool,
    /// Maximum 64-pattern random rounds (`SCFLOW_ATPG_RANDOM_MAX`).
    pub random_max: usize,
    /// Stop the random stage after this many consecutive rounds that
    /// detect nothing new.
    pub random_stall: usize,
    /// PODEM backtrack budget per fault (`SCFLOW_ATPG_BUDGET`); on
    /// exhaustion the fault is [`FaultClass::Aborted`].
    pub budget: usize,
    /// Stop once detected/total coverage reaches this percentage
    /// (`SCFLOW_ATPG_TARGET`).
    pub target_pct: f64,
    /// Base seed for random rounds and pattern fill (`SCFLOW_ATPG_SEED`).
    pub seed: u64,
    /// Reverse-order compaction of the final pattern set.
    pub compact: bool,
}

impl Default for AtpgOptions {
    fn default() -> Self {
        AtpgOptions {
            random: true,
            directed: true,
            random_max: 64,
            random_stall: 3,
            budget: 200,
            target_pct: 100.0,
            seed: 0xA7BC_5EED,
            compact: true,
        }
    }
}

impl AtpgOptions {
    /// Reads `SCFLOW_ATPG_BUDGET`, `SCFLOW_ATPG_STAGES` (stage names
    /// `random`, `directed` or `all`, separated by `,`, `+` or spaces),
    /// `SCFLOW_ATPG_TARGET`, `SCFLOW_ATPG_RANDOM_MAX` and
    /// `SCFLOW_ATPG_SEED` (decimal or `0x…`). An unset or blank variable
    /// keeps its [`Default`].
    ///
    /// # Errors
    ///
    /// [`AtpgEnvError`] naming the first variable whose value does not
    /// parse, or that names an unknown stage.
    pub fn from_env() -> Result<Self, AtpgEnvError> {
        Self::from_lookup(|k| std::env::var_os(k).map(|v| v.to_string_lossy().into_owned()))
    }

    /// [`AtpgOptions::from_env`] over an arbitrary variable lookup.
    fn from_lookup(get: impl Fn(&str) -> Option<String>) -> Result<Self, AtpgEnvError> {
        fn knob<T>(
            get: &impl Fn(&str) -> Option<String>,
            var: &'static str,
            expected: &'static str,
            parse: impl Fn(&str) -> Option<T>,
        ) -> Result<Option<T>, AtpgEnvError> {
            let Some(raw) = get(var) else { return Ok(None) };
            let value = raw.trim();
            if value.is_empty() {
                return Ok(None);
            }
            parse(value).map(Some).ok_or_else(|| AtpgEnvError {
                var,
                value: raw.clone(),
                expected,
            })
        }
        let count = "a non-negative integer";
        let mut o = AtpgOptions::default();
        if let Some(v) = knob(&get, "SCFLOW_ATPG_BUDGET", count, |s| s.parse().ok())? {
            o.budget = v;
        }
        if let Some(v) = knob(&get, "SCFLOW_ATPG_RANDOM_MAX", count, |s| s.parse().ok())? {
            o.random_max = v;
        }
        let pct = "a finite percentage";
        if let Some(v) = knob(&get, "SCFLOW_ATPG_TARGET", pct, parse_finite)? {
            o.target_pct = v;
        }
        let seed = "a decimal or 0x-prefixed hexadecimal u64";
        if let Some(v) = knob(&get, "SCFLOW_ATPG_SEED", seed, parse_seed)? {
            o.seed = v;
        }
        let stages = "stage names random, directed or all, separated by `,`, `+` or spaces";
        if let Some((random, directed)) = knob(&get, "SCFLOW_ATPG_STAGES", stages, parse_stages)? {
            o.random = random;
            o.directed = directed;
        }
        Ok(o)
    }
}

/// A malformed `SCFLOW_ATPG_*` environment value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AtpgEnvError {
    /// The variable.
    pub var: &'static str,
    /// Its value as read.
    pub value: String,
    /// What the variable accepts.
    pub expected: &'static str,
}

impl std::fmt::Display for AtpgEnvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Self {
            var,
            value,
            expected,
        } = self;
        write!(f, "{var}={value:?}: expected {expected}")
    }
}

impl std::error::Error for AtpgEnvError {}

fn parse_seed(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// A finite `f64` (`nan` and `inf` parse, but are no percentage).
fn parse_finite(s: &str) -> Option<f64> {
    s.parse().ok().filter(|v: &f64| v.is_finite())
}

/// `(random, directed)` from a stage list; `None` on an unknown name or
/// a list naming no stage.
fn parse_stages(s: &str) -> Option<(bool, bool)> {
    let (mut random, mut directed, mut named) = (false, false, false);
    for name in s
        .split(|c: char| c == ',' || c == '+' || c.is_whitespace())
        .filter(|t| !t.is_empty())
    {
        match name.to_ascii_lowercase().as_str() {
            "random" => random = true,
            "directed" => directed = true,
            "all" => (random, directed) = (true, true),
            _ => return None,
        }
        named = true;
    }
    named.then_some((random, directed))
}

/// Final classification of one targeted fault.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultClass {
    /// Detected by `patterns[pattern]` (verified by simulation).
    Detected {
        /// Index of a detecting pattern in [`AtpgResult::patterns`].
        pattern: u32,
    },
    /// Proven untestable: the PODEM search space was exhausted on a
    /// memory-free netlist, so *no* scan pattern can ever detect it.
    Untestable,
    /// Given up: backtrack budget exhausted, a generated pattern failed
    /// simulation, or a verdict the frame cannot make sound.
    Aborted,
    /// Never targeted (stage disabled or target coverage reached first).
    Undetected,
}

/// One checkpoint of the coverage-vs-pattern-count curve.
#[derive(Clone, PartialEq, Debug)]
pub struct CurvePoint {
    /// Stage that produced the checkpoint: `random`, `directed` or
    /// `compact`.
    pub stage: &'static str,
    /// Patterns held after the checkpoint.
    pub patterns: usize,
    /// Faults detected after the checkpoint.
    pub detected: usize,
}

/// Deterministic instrumentation of one [`generate_tests`] run.
#[derive(Clone, Debug, Default)]
pub struct AtpgStats {
    /// Random rounds simulated (kept or not).
    pub random_rounds: usize,
    /// Faults first detected by the random stage.
    pub random_detected: usize,
    /// Faults first detected by the directed stage (its own patterns or
    /// cross-dropping within a verification batch).
    pub directed_detected: usize,
    /// PODEM decisions taken across all targeted faults.
    pub decisions: u64,
    /// PODEM backtracks across all targeted faults.
    pub backtracks: u64,
    /// Instructions evaluated by PODEM implication across all targeted
    /// faults: each search's initial sweep plus every incremental
    /// re-evaluation. Like the other effort counters it sums committed
    /// searches only, so it is independent of the thread count.
    pub implied_evals: u64,
    /// Pattern count before reverse-order compaction.
    pub patterns_before_compaction: usize,
    /// Fault × batch simulations of the random, verification and
    /// compaction stages finished on the capture frame
    /// ([`crate::fault::detection_masks`]).
    pub fsim_frame: u64,
    /// Fault × batch simulations run on the full scan protocol.
    pub fsim_protocol: u64,
    /// Instructions re-evaluated on the capture frame. Like the other
    /// fault-simulation counters it sums per-fault work, so it is
    /// independent of the thread count.
    pub fsim_cone_evals: u64,
    /// Coverage checkpoints, in stage order.
    pub curve: Vec<CurvePoint>,
}

impl AtpgStats {
    /// Registers the deterministic quantities under `prefix` (e.g.
    /// `atpg`): stage yields, search effort and the coverage curve.
    pub fn register_into(&self, reg: &mut scflow_obs::MetricsRegistry, prefix: &str) {
        reg.set_counter(
            &format!("{prefix}.random_rounds"),
            self.random_rounds as u64,
        );
        reg.set_counter(
            &format!("{prefix}.random_detected"),
            self.random_detected as u64,
        );
        reg.set_counter(
            &format!("{prefix}.directed_detected"),
            self.directed_detected as u64,
        );
        reg.set_counter(&format!("{prefix}.decisions"), self.decisions);
        reg.set_counter(&format!("{prefix}.backtracks"), self.backtracks);
        reg.set_counter(&format!("{prefix}.implied_evals"), self.implied_evals);
        reg.set_counter(
            &format!("{prefix}.patterns_before_compaction"),
            self.patterns_before_compaction as u64,
        );
        reg.set_counter(&format!("{prefix}.fsim.frame"), self.fsim_frame);
        reg.set_counter(&format!("{prefix}.fsim.protocol"), self.fsim_protocol);
        reg.set_counter(&format!("{prefix}.fsim.cone_evals"), self.fsim_cone_evals);
        for (i, p) in self.curve.iter().enumerate() {
            reg.set_counter(
                &format!("{prefix}.curve.c{i:03}.{}.patterns", p.stage),
                p.patterns as u64,
            );
            reg.set_counter(
                &format!("{prefix}.curve.c{i:03}.{}.detected", p.stage),
                p.detected as u64,
            );
        }
    }
}

/// The output of [`generate_tests`].
#[derive(Clone, Debug)]
pub struct AtpgResult {
    /// The generated (and compacted) pattern set.
    pub patterns: Vec<ScanPattern>,
    /// Per-fault classification, parallel to the input fault list.
    pub classes: Vec<FaultClass>,
    /// Deterministic run instrumentation.
    pub stats: AtpgStats,
}

impl AtpgResult {
    /// Detected faults.
    pub fn detected(&self) -> usize {
        self.classes
            .iter()
            .filter(|c| matches!(c, FaultClass::Detected { .. }))
            .count()
    }

    /// Untestable faults (proven).
    pub fn untestable(&self) -> usize {
        self.classes
            .iter()
            .filter(|c| matches!(c, FaultClass::Untestable))
            .count()
    }

    /// Aborted faults.
    pub fn aborted(&self) -> usize {
        self.classes
            .iter()
            .filter(|c| matches!(c, FaultClass::Aborted))
            .count()
    }

    /// Detected / total, in percent (the paper's fault-coverage figure).
    pub fn coverage_pct(&self) -> f64 {
        if self.classes.is_empty() {
            100.0
        } else {
            100.0 * self.detected() as f64 / self.classes.len() as f64
        }
    }

    /// Detected / (total − untestable), in percent: coverage of the
    /// faults a test could conceivably catch.
    pub fn test_coverage_pct(&self) -> f64 {
        let testable = self.classes.len() - self.untestable();
        if testable == 0 {
            100.0
        } else {
            100.0 * self.detected() as f64 / testable as f64
        }
    }
}

/// Runs the staged generator against `faults` (pass the collapsed
/// representatives from [`crate::fault::collapse_faults`] — equivalent
/// faults share detection, so targeting one per class is both cheaper
/// and the honest denominator).
///
/// The netlist must have a scan chain and be levelizable; netlists the
/// levelizer rejects (combinational loops) return with every fault
/// [`FaultClass::Undetected`] and no patterns — the event-driven
/// fallback can measure such designs but no capture-frame model exists
/// to search.
///
/// # Panics
///
/// Panics if the netlist has no scan chain.
pub fn generate_tests(
    nl: &GateNetlist,
    _lib: &CellLibrary,
    faults: &[FaultSite],
    opts: &AtpgOptions,
) -> AtpgResult {
    let Ok(prog) = GateProgram::compile(nl) else {
        return AtpgResult {
            patterns: Vec::new(),
            classes: vec![FaultClass::Undetected; faults.len()],
            stats: AtpgStats::default(),
        };
    };
    let frame = Frame::new(&prog);
    let threads = fault_threads();
    let mut kernel = Ppsfp::new(&prog, threads);
    let mut classes = vec![FaultClass::Undetected; faults.len()];
    let mut patterns: Vec<ScanPattern> = Vec::new();
    let mut stats = AtpgStats::default();

    let detected = |classes: &[FaultClass]| {
        classes
            .iter()
            .filter(|c| matches!(c, FaultClass::Detected { .. }))
            .count()
    };
    let target_met = |classes: &[FaultClass]| {
        !faults.is_empty()
            && 100.0 * detected(classes) as f64 / faults.len() as f64 >= opts.target_pct
    };

    // Stage 1: random rounds with fault dropping.
    if opts.random {
        let mut stall = 0;
        for round in 0..opts.random_max {
            if stall >= opts.random_stall || target_met(&classes) || faults.is_empty() {
                break;
            }
            let seed = opts
                .seed
                .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(round as u64 + 1));
            let batch = crate::fault::random_patterns(nl, 64, seed);
            stats.random_rounds += 1;
            let alive: Vec<usize> = (0..faults.len())
                .filter(|&i| classes[i] == FaultClass::Undetected)
                .collect();
            let targets: Vec<FaultSite> = alive.iter().map(|&i| faults[i]).collect();
            let masks = kernel.masks(&targets, &batch);
            let mut yield_ = 0;
            for (&i, &m) in alive.iter().zip(&masks) {
                if m != 0 {
                    classes[i] = FaultClass::Detected {
                        pattern: (patterns.len() + m.trailing_zeros() as usize) as u32,
                    };
                    yield_ += 1;
                }
            }
            if yield_ == 0 {
                stall += 1;
                continue; // dry round: patterns discarded
            }
            stall = 0;
            stats.random_detected += yield_;
            patterns.extend_from_slice(&batch);
            stats.curve.push(CurvePoint {
                stage: "random",
                patterns: patterns.len(),
                detected: detected(&classes),
            });
        }
    }

    // Stage 2: directed PODEM for the random-resistant remainder, with
    // 64-pattern verification batches that also fault-drop.
    if opts.directed {
        let mut buffer: Vec<(usize, ScanPattern)> = Vec::new();
        let mut flush = |buffer: &mut Vec<(usize, ScanPattern)>,
                         classes: &mut Vec<FaultClass>,
                         patterns: &mut Vec<ScanPattern>,
                         stats: &mut AtpgStats| {
            if buffer.is_empty() {
                return;
            }
            let batch: Vec<ScanPattern> = buffer.iter().map(|(_, p)| p.clone()).collect();
            // Aborted classes stay open: a class given up before this
            // flush may still be caught by its patterns.
            let alive: Vec<usize> = (0..classes.len())
                .filter(|&i| matches!(classes[i], FaultClass::Undetected | FaultClass::Aborted))
                .collect();
            let targets: Vec<FaultSite> = alive.iter().map(|&i| faults[i]).collect();
            let masks = kernel.masks(&targets, &batch);
            let mut yield_ = 0;
            for (&i, &m) in alive.iter().zip(&masks) {
                if m != 0 {
                    classes[i] = FaultClass::Detected {
                        pattern: (patterns.len() + m.trailing_zeros() as usize) as u32,
                    };
                    yield_ += 1;
                }
            }
            stats.directed_detected += yield_;
            // Targets the batch failed to confirm: the frame predicted a
            // detection the simulators do not reproduce — give up on
            // them rather than trust the model over the engines.
            for (i, _) in buffer.iter() {
                if classes[*i] == FaultClass::Undetected {
                    classes[*i] = FaultClass::Aborted;
                }
            }
            patterns.extend(batch);
            stats.curve.push(CurvePoint {
                stage: "directed",
                patterns: patterns.len(),
                detected: detected(classes),
            });
            buffer.clear();
        };

        // PODEM for one fault depends on nothing the stage mutates, so a
        // window of pending faults is searched ahead in parallel; results
        // are then committed strictly in fault order, re-applying the
        // skip of faults an intervening flush detected and the coverage
        // target, so patterns, classes and effort counters match a serial
        // run at any thread count. A single thread searches one fault at a
        // time, wasting nothing on faults a flush later drops.
        let window_len = if threads > 1 { 64 * threads } else { 1 };
        let mut next = 0;
        'stage: loop {
            let window: Vec<usize> = (next..faults.len())
                .filter(|&i| classes[i] == FaultClass::Undetected)
                .take(window_len)
                .collect();
            let Some(&last) = window.last() else { break };
            let results = search_window(&frame, faults, &window, opts.budget, threads);
            for (&i, (outcome, effort)) in window.iter().zip(results) {
                if classes[i] != FaultClass::Undetected {
                    continue;
                }
                if target_met(&classes) {
                    break 'stage;
                }
                stats.decisions += effort.decisions;
                stats.backtracks += effort.backtracks;
                stats.implied_evals += effort.implied_evals;
                match outcome {
                    Podem::Test(assigns) => {
                        let fill = opts
                            .seed
                            .wrapping_add((faults[i].instance as u64) << 1)
                            .wrapping_add(faults[i].stuck_at as u64)
                            .wrapping_mul(0x2545_F491_4F6C_DD1D);
                        buffer.push((i, pattern_from_assigns(&frame, nl, &assigns, fill)));
                        if buffer.len() == 64 {
                            flush(&mut buffer, &mut classes, &mut patterns, &mut stats);
                        }
                    }
                    Podem::Untestable => classes[i] = FaultClass::Untestable,
                    Podem::Aborted => classes[i] = FaultClass::Aborted,
                }
            }
            next = last + 1;
        }
        flush(&mut buffer, &mut classes, &mut patterns, &mut stats);
    }

    // Stage 3: reverse-order compaction.
    stats.patterns_before_compaction = patterns.len();
    if opts.compact && !patterns.is_empty() {
        compact(&mut kernel, faults, &mut classes, &mut patterns);
        stats.curve.push(CurvePoint {
            stage: "compact",
            patterns: patterns.len(),
            detected: detected(&classes),
        });
    }

    let work = kernel.work();
    stats.fsim_frame = work.frame;
    stats.fsim_protocol = work.protocol;
    stats.fsim_cone_evals = work.cone_evals;
    AtpgResult {
        patterns,
        classes,
        stats,
    }
}

enum Podem {
    Test(Vec<(u32, bool)>),
    Untestable,
    Aborted,
}

/// The search effort one [`podem`] call spent.
#[derive(Clone, Copy, Default)]
struct Effort {
    decisions: u64,
    backtracks: u64,
    implied_evals: u64,
}

/// The bounded PODEM search for one fault: branch on backtraced input
/// assignments, imply forward, prune dead branches, flip-and-pop on
/// failure. Complete over the reachable assignment space, so exhausting
/// it on a memory-free netlist is an untestability proof; flop-output
/// faults only ever abort (their shift-out masking makes a frame-level
/// "no test exists" claim unsound).
///
/// A pure function of `(frame, fault, budget)`: the directed stage runs
/// it speculatively on any thread and commits in fault order.
fn podem(frame: &Frame<'_>, fault: FaultSite, budget: usize) -> (Podem, Effort) {
    // The decision stack, and whether each entry is already the flipped
    // alternative.
    let mut decisions: Vec<(u32, bool)> = Vec::new();
    let mut flipped: Vec<bool> = Vec::new();
    let mut effort = Effort::default();
    let mut state = frame.eval(fault, &[]);
    effort.implied_evals = frame.prog.instrs.len() as u64;
    loop {
        effort.implied_evals += frame.imply(fault, &mut state, &decisions);
        if frame.detected(fault, &state) {
            return (Podem::Test(decisions), effort);
        }
        let next = if frame.dead(fault, &state) || !frame.xpath(fault, &mut state) {
            None
        } else {
            frame
                .objective(fault, &state)
                .and_then(|(net, val)| frame.backtrace(&state, net, val))
        };
        match next {
            Some((idx, val)) => {
                effort.decisions += 1;
                decisions.push((idx, val));
                flipped.push(false);
            }
            None => {
                effort.backtracks += 1;
                if effort.backtracks > budget as u64 {
                    return (Podem::Aborted, effort);
                }
                loop {
                    match flipped.pop() {
                        Some(false) => {
                            let (i, v) = decisions.pop().expect("stacks move together");
                            decisions.push((i, !v));
                            flipped.push(true);
                            break;
                        }
                        Some(true) => {
                            decisions.pop();
                        }
                        None => {
                            let unsound = frame.has_rams || frame.fault_chain_pos(fault).is_some();
                            let outcome = if unsound {
                                Podem::Aborted
                            } else {
                                Podem::Untestable
                            };
                            return (outcome, effort);
                        }
                    }
                }
            }
        }
    }
}

/// Runs [`podem`] on every fault of `window` on up to `threads` workers
/// that claim faults from a shared counter; results come back in window
/// order whatever the schedule.
fn search_window(
    frame: &Frame<'_>,
    faults: &[FaultSite],
    window: &[usize],
    budget: usize,
    threads: usize,
) -> Vec<(Podem, Effort)> {
    let search = |i: usize| podem(frame, faults[i], budget);
    let workers = threads.clamp(1, window.len().max(1));
    if workers == 1 {
        return window.iter().map(|&i| search(i)).collect();
    }
    // The counter publishes no data (results return through `join`).
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, (Podem, Effort))> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut claimed = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&i) = window.get(k) else { break };
                        claimed.push((k, search(i)));
                    }
                    claimed
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("PODEM worker panicked"))
            .collect()
    });
    done.sort_unstable_by_key(|&(k, _)| k);
    done.into_iter().map(|(_, r)| r).collect()
}

/// Completes a partial PODEM assignment into a full [`ScanPattern`]:
/// assigned bits verbatim, everything else filled from a per-fault
/// xorshift stream (known frame values survive the fill — four-valued
/// evaluation is monotone under X-refinement).
fn pattern_from_assigns(
    frame: &Frame<'_>,
    nl: &GateNetlist,
    assigns: &[(u32, bool)],
    fill_seed: u64,
) -> ScanPattern {
    let mut state = fill_seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut chain_bits: Vec<bool> = (0..nl.flop_count()).map(|_| next() & 1 == 1).collect();
    let mut words: Vec<u64> = Vec::new();
    let mut port_slot: Vec<Option<usize>> = vec![None; nl.inputs().len()];
    let mut inputs: Vec<(String, u32)> = Vec::new();
    for (pi, (name, bits)) in nl.inputs().iter().enumerate() {
        if name == "scan_in" || name == "scan_en" {
            continue;
        }
        port_slot[pi] = Some(words.len());
        words.push(next());
        inputs.push((name.clone(), bits.len() as u32));
    }
    for &(idx, v) in assigns {
        match frame.inputs[idx as usize] {
            FrameInput::Chain { pos, .. } => chain_bits[pos] = v,
            FrameInput::Port { port, bit, .. } => {
                let w = &mut words[port_slot[port].expect("scan controls are unassignable")];
                *w = (*w & !(1u64 << bit)) | ((v as u64) << bit);
            }
        }
    }
    ScanPattern {
        chain_bits,
        inputs: inputs
            .into_iter()
            .zip(words)
            .map(|((name, width), w)| (name, Bv::new(w, width)))
            .collect(),
    }
}

/// Reverse-order compaction: walk the pattern set newest-first, keep a
/// pattern only if it detects a fault no kept (newer) pattern detects,
/// then rewrite `classes` against the surviving set.
fn compact(
    kernel: &mut Ppsfp<'_>,
    faults: &[FaultSite],
    classes: &mut [FaultClass],
    patterns: &mut Vec<ScanPattern>,
) {
    let mut alive: Vec<usize> = (0..faults.len())
        .filter(|&i| matches!(classes[i], FaultClass::Detected { .. }))
        .collect();
    let mut keep = vec![false; patterns.len()];
    // Chunk boundaries aligned to the original batch grid so golden
    // signatures stay shared per chunk.
    let n_chunks = patterns.len().div_ceil(64);
    for chunk in (0..n_chunks).rev() {
        if alive.is_empty() {
            break;
        }
        let lo = chunk * 64;
        let hi = (lo + 64).min(patterns.len());
        let batch = &patterns[lo..hi];
        let targets: Vec<FaultSite> = alive.iter().map(|&i| faults[i]).collect();
        let masks = kernel.masks(&targets, batch);
        let mut covered = vec![false; alive.len()];
        for lane in (0..batch.len()).rev() {
            let bit = 1u64 << lane;
            let mut covered_any = false;
            for (pos, &fi) in alive.iter().enumerate() {
                if !covered[pos] && masks[pos] & bit != 0 {
                    classes[fi] = FaultClass::Detected {
                        pattern: (lo + lane) as u32,
                    };
                    covered[pos] = true;
                    covered_any = true;
                }
            }
            if covered_any {
                keep[lo + lane] = true;
            }
        }
        let mut pos = 0;
        alive.retain(|_| {
            pos += 1;
            !covered[pos - 1]
        });
    }
    debug_assert!(
        alive.is_empty(),
        "every detected fault must be re-covered during compaction"
    );
    // Rewrite pattern indices to the compacted list.
    let mut new_index = vec![u32::MAX; patterns.len()];
    let mut kept: Vec<ScanPattern> = Vec::new();
    for (i, p) in patterns.iter().enumerate() {
        if keep[i] {
            new_index[i] = kept.len() as u32;
            kept.push(p.clone());
        }
    }
    for c in classes.iter_mut() {
        if let FaultClass::Detected { pattern } = c {
            *c = FaultClass::Detected {
                pattern: new_index[*pattern as usize],
            };
        }
    }
    *patterns = kept;
}

/// Ground truth for small frames: exhaustively enumerates every full
/// assignment of the capture frame's inputs and reports whether *any*
/// detects the fault. `None` when the frame has more than `max_inputs`
/// inputs, the netlist has a RAM (contents the frame cannot prove stay
/// at `init` make the answer unsound), or it cannot be levelized. Used
/// by the property suite to cross-check `Untestable` verdicts.
pub fn exhaustive_frame_detectable(
    nl: &GateNetlist,
    fault: FaultSite,
    max_inputs: u32,
) -> Option<bool> {
    let prog = GateProgram::compile(nl).ok()?;
    let frame = Frame::new(&prog);
    if frame.has_rams || frame.inputs.len() > max_inputs as usize {
        return None;
    }
    let k = frame.inputs.len();
    for word in 0u64..(1u64 << k) {
        let assigns: Vec<(u32, bool)> = (0..k).map(|b| (b as u32, word >> b & 1 == 1)).collect();
        let state = frame.eval(fault, &assigns);
        if frame.detected(fault, &state) {
            return Some(true);
        }
    }
    Some(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::celllib::CellKind;
    use crate::fault::{all_fault_sites, collapse_faults, fault_coverage_with_threads};
    use crate::netlist::NetlistBuilder;
    use crate::scan::insert_scan_chain;

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
    fn full_coverage_on_small_design() {
        let nl = small_design();
        let lib = CellLibrary::generic_025u();
        let faults = all_fault_sites(&nl);
        let collapsed = collapse_faults(&nl, &faults);
        let r = generate_tests(&nl, &lib, &collapsed.faults, &AtpgOptions::default());
        assert_eq!(
            r.detected() + r.untestable(),
            collapsed.faults.len(),
            "classes: {:?}",
            r.classes
        );
        assert_eq!(r.test_coverage_pct(), 100.0);
        // Every recorded detection must replay through the PPSFP engine.
        let cov = fault_coverage_with_threads(&nl, &lib, &collapsed.faults, &r.patterns, 1);
        for (i, c) in r.classes.iter().enumerate() {
            if matches!(c, FaultClass::Detected { .. }) {
                assert!(cov.detected_mask[i], "fault {i} not re-detected");
            }
        }
    }

    #[test]
    fn directed_only_still_covers() {
        let nl = small_design();
        let lib = CellLibrary::generic_025u();
        let faults = all_fault_sites(&nl);
        let collapsed = collapse_faults(&nl, &faults);
        let opts = AtpgOptions {
            random: false,
            ..AtpgOptions::default()
        };
        let r = generate_tests(&nl, &lib, &collapsed.faults, &opts);
        assert!(r.stats.random_rounds == 0);
        assert_eq!(r.detected() + r.untestable(), collapsed.faults.len());
    }

    #[test]
    fn untestable_redundancy_is_proven() {
        // y = OR(a, INV(a)) is constant 1: the OR output s-a-1 can never
        // be observed, and exhaustive enumeration agrees.
        let mut b = NetlistBuilder::new("redundant");
        let a = b.input_port("a", 1)[0];
        let na = b.cell(CellKind::Inv, &[a]);
        let o = b.cell(CellKind::Or2, &[a, na]);
        let q = b.net("q".into());
        b.dff_onto(o, q, false);
        let y = b.cell(CellKind::Buf, &[q]);
        b.output_port("y", &[y]);
        let nl = insert_scan_chain(&b.build());
        let lib = CellLibrary::generic_025u();
        let or_idx = nl
            .instances()
            .iter()
            .position(|i| i.kind == CellKind::Or2)
            .unwrap();
        let fault = FaultSite {
            instance: or_idx,
            stuck_at: true,
        };
        let r = generate_tests(&nl, &lib, &[fault], &AtpgOptions::default());
        assert_eq!(r.classes[0], FaultClass::Untestable);
        assert_eq!(exhaustive_frame_detectable(&nl, fault, 16), Some(false));
        // The opposite polarity is detectable and the verdicts agree.
        let sa0 = FaultSite {
            instance: or_idx,
            stuck_at: false,
        };
        let r0 = generate_tests(&nl, &lib, &[sa0], &AtpgOptions::default());
        assert!(matches!(r0.classes[0], FaultClass::Detected { .. }));
        assert_eq!(exhaustive_frame_detectable(&nl, sa0, 16), Some(true));
    }

    #[test]
    fn compaction_keeps_detection_valid() {
        let nl = small_design();
        let lib = CellLibrary::generic_025u();
        let faults = all_fault_sites(&nl);
        let collapsed = collapse_faults(&nl, &faults);
        let full = generate_tests(&nl, &lib, &collapsed.faults, &AtpgOptions::default());
        let uncompacted = generate_tests(
            &nl,
            &lib,
            &collapsed.faults,
            &AtpgOptions {
                compact: false,
                ..AtpgOptions::default()
            },
        );
        assert!(full.patterns.len() <= uncompacted.patterns.len());
        assert_eq!(full.detected(), uncompacted.detected());
        // Each Detected class points at a pattern that really detects it.
        for (i, c) in full.classes.iter().enumerate() {
            if let FaultClass::Detected { pattern } = c {
                let p = &full.patterns[*pattern as usize];
                let cov = fault_coverage_with_threads(
                    &nl,
                    &lib,
                    &[collapsed.faults[i]],
                    std::slice::from_ref(p),
                    1,
                );
                assert!(cov.detected_mask[0], "fault {i} vs its pattern");
            }
        }
    }

    #[test]
    fn options_from_env_roundtrip_defaults() {
        let d = AtpgOptions::default();
        assert!(d.random && d.directed && d.compact);
        assert_eq!(parse_seed("0x10"), Some(16));
        assert_eq!(parse_seed("7"), Some(7));
    }

    /// [`AtpgOptions::from_lookup`] over a fixed variable set.
    fn options_with(vars: &[(&str, &str)]) -> Result<AtpgOptions, AtpgEnvError> {
        AtpgOptions::from_lookup(|k| {
            vars.iter()
                .find(|(var, _)| *var == k)
                .map(|(_, v)| v.to_string())
        })
    }

    #[track_caller]
    fn assert_rejected(var: &'static str, value: &str) {
        let e = options_with(&[(var, value)]).expect_err(value);
        assert_eq!((e.var, e.value.as_str()), (var, value));
        let msg = e.to_string();
        assert!(msg.contains(var) && msg.contains(value), "{msg}");
    }

    #[test]
    fn options_from_env_parses_well_formed_knobs() {
        let o = options_with(&[
            ("SCFLOW_ATPG_BUDGET", " 32 "),
            ("SCFLOW_ATPG_RANDOM_MAX", "4"),
            ("SCFLOW_ATPG_TARGET", "97.5"),
            ("SCFLOW_ATPG_SEED", "0xff"),
            ("SCFLOW_ATPG_STAGES", "Directed"),
        ])
        .expect("well-formed");
        assert_eq!((o.budget, o.random_max, o.seed), (32, 4, 255));
        assert_eq!(o.target_pct, 97.5);
        assert!(!o.random && o.directed);
        for (list, want) in [
            ("random", (true, false)),
            ("random,directed", (true, true)),
            ("directed + random", (true, true)),
            ("ALL", (true, true)),
        ] {
            let o = options_with(&[("SCFLOW_ATPG_STAGES", list)]).expect(list);
            assert_eq!((o.random, o.directed), want, "{list}");
        }
        // Blank means unset.
        let o = options_with(&[("SCFLOW_ATPG_STAGES", " "), ("SCFLOW_ATPG_BUDGET", "")]);
        let (o, d) = (o.expect("blank"), AtpgOptions::default());
        assert_eq!(
            (o.random, o.directed, o.budget),
            (d.random, d.directed, d.budget)
        );
    }

    #[test]
    fn options_from_env_rejects_unknown_stage_names() {
        // A typo must not silently disable a stage.
        assert_rejected("SCFLOW_ATPG_STAGES", "directd");
        assert_rejected("SCFLOW_ATPG_STAGES", "random,directd");
        assert_rejected("SCFLOW_ATPG_STAGES", ",");
    }

    #[test]
    fn options_from_env_rejects_malformed_numbers() {
        // `2OO` (letter O) must not fall back to the default.
        assert_rejected("SCFLOW_ATPG_BUDGET", "2OO");
        assert_rejected("SCFLOW_ATPG_BUDGET", "-1");
        assert_rejected("SCFLOW_ATPG_RANDOM_MAX", "64k");
        assert_rejected("SCFLOW_ATPG_TARGET", "9five");
        assert_rejected("SCFLOW_ATPG_TARGET", "nan");
        assert_rejected("SCFLOW_ATPG_SEED", "0xZZ");
    }
}
