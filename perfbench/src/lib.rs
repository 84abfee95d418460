//! One benchmark for scflow: the designer's flow (sign-off and ATPG),
//! long bit-accurate regressions, and the simulation service.
//!
//! Every run reports every end-to-end metric, so every run executes all
//! three phases. The workload named on the command line decides how the
//! `--seconds` window is shared among them: its own phase gets most of
//! it, the others run interleaved with it in short ticks. See
//! `README.md` in this directory for why each workload exists and which
//! layer metric should move which end-to-end metric.

pub mod flow;
pub mod metrics;
pub mod regress;
pub mod serve;
pub mod trace;

use metrics::{median, Values};
use scflow_testkit::Rng;
use std::time::{Duration, Instant};
use trace::{process_cpu_ns, Tracer};

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Sign-off flow and ATPG after every design change.
    Flow,
    /// Long single-threaded bit-accurate regressions.
    Regress,
    /// Closed-loop clients driving the simulation service.
    Serve,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "flow" => Some(Workload::Flow),
            "regress" => Some(Workload::Regress),
            "serve" => Some(Workload::Serve),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Flow => "flow",
            Workload::Regress => "regress",
            Workload::Serve => "serve",
        }
    }
}

/// Command-line arguments.
#[derive(Clone, Debug)]
pub struct Args {
    /// Which phase gets the measurement budget.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measurement budget of the primary phase.
    pub seconds: u64,
    /// Traced pass (per-layer metrics) instead of the end-to-end pass.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <n> --trace <0|1>`.
    ///
    /// # Errors
    ///
    /// Describes the first missing or malformed argument.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::parse(&value).ok_or_else(|| {
                        format!("unknown workload `{value}` (flow|regress|serve)")
                    })?);
                }
                "--seed" => {
                    seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?)
                }
                "--seconds" => {
                    let s: u64 = value
                        .parse()
                        .map_err(|_| format!("bad --seconds `{value}`"))?;
                    if s == 0 {
                        return Err("--seconds must be at least 1".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad --trace `{value}` (0|1)")),
                    });
                }
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
        })
    }
}

/// Input sizes. [`Size::full`] is the benchmark; [`Size::tiny`] is the
/// self-test's quick pass over the same code.
#[derive(Clone, Debug)]
pub struct Size {
    /// Validation stimulus length of the flow, input samples.
    pub flow_samples: usize,
    /// Regression stimulus of the BEH kernel leg, input samples.
    pub beh_samples: usize,
    /// Regression stimulus of the RTL leg, input samples.
    pub rtl_samples: usize,
    /// Regression stimulus of the gate co-simulation leg, input samples.
    pub gate_samples: usize,
    /// 64-lane scenario batches per sweep.
    pub sweep_batches: usize,
    /// Cycles each sweep scenario runs after the fork point.
    pub sweep_cycles: u64,
    /// Shared warm-up cycles before the fork point (sweeps and serve).
    pub warm_cycles: u64,
    /// Target gate count of the generated netlist.
    pub big_gates: usize,
    /// Cycles per run of the generated netlist.
    pub big_cycles: u64,
    /// Prefix over which the optimised generated netlist is checked
    /// against the un-optimised one.
    pub big_check_cycles: u64,
    /// Restore/step_batch/peek rounds per serve session script.
    pub serve_rounds: usize,
    /// Cycles per serve batch item.
    pub serve_item_cycles: u64,
    /// Measurement budget of the regress and serve phases in a traced
    /// run, spent alternating untraced and traced iterations.
    pub trace_budget: Duration,
    /// Sign-off pairs (one untraced, one traced) in a traced run.
    pub trace_pairs: usize,
    /// Set-ups per run (`setup_s` is their median).
    pub setups: usize,
}

impl Size {
    /// The benchmark's sizes.
    pub fn full() -> Self {
        Size {
            flow_samples: 400,
            beh_samples: 500,
            rtl_samples: 6_000,
            gate_samples: 500,
            sweep_batches: 48,
            sweep_cycles: 64,
            warm_cycles: 256,
            big_gates: 100_000,
            big_cycles: 96,
            big_check_cycles: 48,
            serve_rounds: 4,
            serve_item_cycles: 8,
            trace_budget: Duration::from_millis(3_000),
            trace_pairs: 3,
            setups: 5,
        }
    }

    /// Minimal sizes for the self-test.
    pub fn tiny() -> Self {
        Size {
            flow_samples: 40,
            beh_samples: 20,
            rtl_samples: 60,
            gate_samples: 20,
            sweep_batches: 1,
            sweep_cycles: 8,
            warm_cycles: 16,
            big_gates: 2_000,
            big_cycles: 16,
            big_check_cycles: 8,
            serve_rounds: 1,
            serve_item_cycles: 2,
            trace_budget: Duration::from_millis(50),
            trace_pairs: 1,
            setups: 2,
        }
    }
}

/// Counts operations attempted and failed; a failure is a wrong or
/// missing output.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output was wrong or that returned an error.
    pub failed: u64,
    /// One line per failure (the first few are printed).
    pub failures: Vec<String>,
}

impl Ledger {
    /// Counts one operation; `ok == false` counts it failed with the
    /// message `what` produces.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
        ok
    }

    /// Counts `n` operations that all succeeded.
    pub fn ok_n(&mut self, n: u64) {
        self.attempted += n;
    }
}

/// Builds a reproducible audio stimulus of `n` samples from `rng`: a
/// sine, a linear sweep and noise segment, each with drawn parameters.
pub fn audio_mix(rng: &mut Rng, n: usize) -> Vec<i16> {
    let rate = 44_100.0;
    let third = n / 3;
    let mut v = scflow::stimulus::sine(
        third,
        rng.range_f64(200.0, 8_000.0),
        rate,
        rng.range_f64(2_000.0, 12_000.0),
    );
    v.extend(scflow::stimulus::sweep(
        third,
        rng.range_f64(50.0, 1_000.0),
        rng.range_f64(4_000.0, 18_000.0),
        rate,
        rng.range_f64(2_000.0, 12_000.0),
    ));
    v.extend(scflow::stimulus::noise(
        n - 2 * third,
        rng.range_i64(500, 16_000) as i16,
        rng.next_u64(),
    ));
    v
}

/// A child RNG for one consumer of the workload seed, so adding a
/// consumer never shifts another's inputs.
pub fn rng_for(seed: u64, stream: &str) -> Rng {
    let mut h = scflow_hwtypes::Fnv64::new();
    h.write_u64(seed);
    h.write(stream.as_bytes());
    Rng::new(h.finish())
}

/// The `SCFLOW_*` environment this process started with, cleared, plus
/// the knobs the benchmark pins. Call before any thread starts.
pub fn pin_environment() -> Vec<(String, String)> {
    let mut ambient = Vec::new();
    for (k, v) in std::env::vars_os() {
        let k = k.to_string_lossy().into_owned();
        if k.starts_with("SCFLOW_") {
            ambient.push((k, v.to_string_lossy().into_owned()));
        }
    }
    for (k, _) in &ambient {
        std::env::remove_var(k);
    }
    // PPSFP/ATPG fault threads read this knob; everything else stays at
    // the library defaults.
    std::env::set_var("SCFLOW_FAULT_THREADS", FAULT_THREADS.to_string());
    ambient.sort();
    ambient
}

/// Fault-simulation threads, pinned for every run.
pub const FAULT_THREADS: usize = 2;
/// Concurrent serve clients, pinned for every run.
pub const SERVE_CLIENTS: usize = 2;

/// The effective configuration, one `key=value` per entry.
pub fn effective_config(args: &Args, ambient: &[(String, String)]) -> Vec<String> {
    let atpg = scflow_gate::AtpgOptions::default();
    let serve = scflow::flow::ServeOptions::default();
    let reset = if ambient.is_empty() {
        "none".to_owned()
    } else {
        ambient
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(",")
    };
    vec![
        format!("workload={}", args.workload.name()),
        format!("seed={}", args.seed),
        format!("seconds={}", args.seconds),
        format!("trace={}", u8::from(args.trace)),
        format!("ambient_scflow_env_reset={reset}"),
        format!("fault_threads={FAULT_THREADS} (pinned)"),
        format!("serve_clients={SERVE_CLIENTS} (pinned)"),
        format!(
            "validate_engine={} (library default)",
            scflow::flow::SimEngine::from_env()
        ),
        format!(
            "atpg=default(random_max={},stall={},budget={},target={},seed=0x{:x},compact={})",
            atpg.random_max,
            atpg.random_stall,
            atpg.budget,
            atpg.target_pct,
            atpg.seed,
            atpg.compact
        ),
        format!(
            "serve=default(threads={},cache_cap={})",
            serve.threads, serve.cache_cap
        ),
        "opt_passes=library default (SCFLOW_OPT unset); generated netlist at level 2".to_owned(),
        format!(
            "host_parallelism={}",
            std::thread::available_parallelism().map_or(0, |n| n.get())
        ),
    ]
}

/// Everything one run produced.
pub struct Outcome {
    /// Metric values (end-to-end, or per-layer for a traced run).
    pub values: Values,
    /// Operation accounting.
    pub ledger: Ledger,
    /// The spans (empty for an untraced run).
    pub tracer: Tracer,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// Runs one workload: its set-ups and either the untraced pass (the
/// end-to-end metrics) or, with `args.trace`, the traced pass (the
/// per-layer metrics).
pub fn run(args: &Args, size: &Size) -> Outcome {
    let run_id = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let mut tr = Tracer::new(&run_id, false);
    let mut ledger = Ledger::default();
    let mut values = Values::default();
    let mut notes = Vec::new();
    let mut log = SetupLog::default();
    let mut fo = flow::Samples::default();
    let mut ro = regress::Samples::default();
    let mut so = serve::Samples::default();

    let mut setup = Some(Setups::build(args.seed, size, &mut ledger, &mut log));
    if args.trace {
        for _ in 1..size.setups {
            Setups::rebuild(&mut setup, args.seed, size, &mut ledger, &mut log);
        }
        let s = setup.as_ref().expect("a set-up");
        notes.extend(flow::traced(
            &s.flow,
            size.trace_pairs,
            &mut tr,
            &mut ledger,
            &mut fo,
            &mut values,
        ));
        flow::finish(&s.flow, &mut fo, &mut ledger);
        regress::traced(
            &s.regress,
            size.trace_budget,
            &log.regress,
            &mut tr,
            &mut ledger,
            &mut values,
        );
        notes.extend(serve::traced(
            &s.serve,
            size.trace_budget,
            &log.cold_opens,
            &mut tr,
            &mut ledger,
            &mut values,
        ));
        notes.push("self time by layer (traced pass):".to_owned());
        for (layer, ns) in tr.self_by_layer() {
            notes.push(format!("  {layer:<8} {:>10.3} s", ns as f64 * 1e-9));
        }
    } else {
        interleave(
            args,
            size,
            &mut setup,
            &mut log,
            &mut tr,
            &mut ledger,
            (&mut fo, &mut ro, &mut so),
        );
        let s = setup.as_ref().expect("a set-up");
        flow::finish(&s.flow, &mut fo, &mut ledger);
        // The set-ups, like the ATPG calls and the serve traffic, are
        // scaled by the host factor of the whole run.
        let host = so.host_factor();
        notes.push(host.map_or_else(
            || "no undisturbed serve-tick probe: run-level metrics reported raw".to_owned(),
            |f| format!("run host factor {f:.4} (median of the serve ticks' probes; 1 = reference speed)"),
        ));
        let host = host.unwrap_or(1.0);
        values.set("setup_s", median(&log.secs) / host);
        notes.push(format!(
            "setup_s: median of {} set-ups, raw s: {}",
            log.secs.len(),
            log.secs
                .iter()
                .map(|s| format!("{s:.3}"))
                .collect::<Vec<_>>()
                .join(" ")
        ));
        flow::end_to_end(&fo, host, &mut values, &mut notes);
        regress::end_to_end(&ro, &mut values, &mut notes);
        serve::end_to_end(&so, host, &mut values, &mut notes);
        values.set("peak_rss_mb", peak_rss_mb());
    }
    Outcome {
        values,
        ledger,
        tracer: tr,
        notes,
    }
}

/// Share of the measurement window each phase gets, by workload, in the
/// order sign-off, regress, serve.
fn shares(w: Workload) -> [f64; 3] {
    match w {
        Workload::Flow => [0.4, 0.3, 0.3],
        Workload::Regress => [0.1, 0.7, 0.2],
        Workload::Serve => [0.1, 0.3, 0.6],
    }
}

/// ATPG calls per run. Each takes about 7 s, so they run outside the
/// window, spread evenly over it.
fn atpg_calls(w: Workload) -> usize {
    match w {
        Workload::Flow => 2,
        Workload::Regress | Workload::Serve => 1,
    }
}

/// The set-ups of the three phases.
struct Setups {
    flow: flow::Setup,
    regress: regress::Setup,
    serve: serve::Setup,
}

/// What every set-up of a run measured.
#[derive(Default)]
struct SetupLog {
    /// Wall time of each whole set-up, s.
    secs: Vec<f64>,
    /// Regression set-up stage times of each set-up.
    regress: Vec<regress::SetupTimes>,
    /// Cold serve opens of every set-up.
    cold_opens: Vec<(String, f64)>,
}

impl Setups {
    /// One set-up: inputs, compiled programs, the service's cold compiles.
    fn build(seed: u64, size: &Size, ledger: &mut Ledger, log: &mut SetupLog) -> Setups {
        let t = Instant::now();
        let s = Setups {
            flow: flow::setup(seed, size),
            regress: regress::setup(seed, size, ledger),
            serve: serve::setup(seed, size, ledger),
        };
        log.secs.push(t.elapsed().as_secs_f64());
        log.regress.push(s.regress.times.clone());
        log.cold_opens.extend(s.serve.cold_open_ms.iter().cloned());
        s
    }

    /// Replaces the set-up in `slot` by a fresh one of the same seed. The
    /// old one is released first: two alive at once would inflate the
    /// peak RSS.
    fn rebuild(
        slot: &mut Option<Setups>,
        seed: u64,
        size: &Size,
        ledger: &mut Ledger,
        log: &mut SetupLog,
    ) {
        drop(slot.take());
        *slot = Some(Setups::build(seed, size, ledger, log));
    }
}

/// The untraced pass: the phases take turns in short ticks, each phase
/// next when it is furthest below its share, until the window is spent
/// and every phase has run. Interleaving matters on a shared host whose
/// speed drifts over seconds: a phase measured in one contiguous slice
/// would see only that slice's speed. The remaining set-ups are spread
/// evenly over the window for the same reason, and so are the ATPG
/// calls, which run outside it.
fn interleave(
    args: &Args,
    size: &Size,
    setup: &mut Option<Setups>,
    log: &mut SetupLog,
    tr: &mut Tracer,
    ledger: &mut Ledger,
    (fo, ro, so): (
        &mut flow::Samples,
        &mut regress::Samples,
        &mut serve::Samples,
    ),
) {
    let window = Duration::from_secs(args.seconds).as_secs_f64();
    let share = shares(args.workload);
    let extra_setups = size.setups.saturating_sub(1);
    let atpgs = atpg_calls(args.workload);
    // Whether the `k`-th of `n` evenly spread events is due.
    let due = |k: usize, n: usize, at: f64| k < n && at >= window * (k + 1) as f64 / (n + 1) as f64;
    let mut spent = [Duration::ZERO; 3];
    let mut ran = [false; 3];
    let mut atpg_done = 0;
    let mut outside = Duration::ZERO;
    let start = Instant::now();
    loop {
        let in_window = start.elapsed().saturating_sub(outside).as_secs_f64();
        let setups_done = log.secs.len() - 1;
        if due(setups_done, extra_setups, in_window) {
            Setups::rebuild(setup, args.seed, size, ledger, log);
            continue;
        }
        let s = setup.as_ref().expect("a set-up");
        if due(atpg_done, atpgs, in_window) {
            let t = Instant::now();
            flow::atpg_tick(&s.flow, tr, ledger, fo);
            outside += t.elapsed();
            atpg_done += 1;
            continue;
        }
        if in_window >= window && ran.iter().all(|&r| r) {
            break;
        }
        let lag = |p: usize| spent[p].as_secs_f64() / share[p];
        let p = (0..3)
            .min_by(|&a, &b| lag(a).total_cmp(&lag(b)))
            .expect("three phases");
        let t = Instant::now();
        match p {
            0 => flow::signoff_tick(&s.flow, tr, ledger, fo),
            1 => {
                regress::tick(&s.regress, tr, ledger, ro);
            }
            _ => {
                serve::tick(&s.serve, serve::SERVE_TICK, false, ledger, so);
            }
        }
        spent[p] += t.elapsed();
        ran[p] = true;
    }
}

/// Times a fixed piece of benchmark-owned work (sorting, hash-table
/// inserts and a small dispatch loop, about 0.55 ms, all on the stack) to
/// tell how fast the host runs at the moment. It shares no code with the
/// repository and allocates nothing; an untimed first round warms its
/// code and data, so the state the program left in the caches does not
/// count. Returns seconds, or `None` when another thread of this process
/// used the CPU meanwhile (the process CPU time grew faster than the wall
/// time): such a probe would read the program's own work as a slow host.
pub fn host_probe() -> Option<f64> {
    std::hint::black_box(probe_work(1));
    let cpu0 = process_cpu_ns();
    let t = Instant::now();
    std::hint::black_box(probe_work(4));
    let wall = t.elapsed();
    let cpu = process_cpu_ns().saturating_sub(cpu0);
    // The slack covers the two CPU-clock reads around the timed work.
    let alone = (cpu as f64) <= wall.as_nanos() as f64 * 1.05 + 20_000.0;
    alone.then_some(wall.as_secs_f64())
}

/// The probe's work: `rounds` rounds of sorting, hashing and dispatch.
fn probe_work(rounds: usize) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut acc = 0u64;
    let mut keys = [0u32; 4096];
    let mut table = [0u64; 4096];
    let mut program = [0u8; 256];
    for _ in 0..rounds {
        keys.iter_mut().for_each(|k| *k = next() as u32);
        keys.sort_unstable();
        acc = acc.wrapping_add(u64::from(keys[17]));
        table.fill(0);
        for _ in 0..2048 {
            let key = next() % 4096 + 1;
            let mut slot = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 52) as usize;
            while table[slot] != 0 && table[slot] != key {
                slot = (slot + 1) & 4095;
            }
            table[slot] = key;
        }
        acc = acc.wrapping_add(table.iter().filter(|&&k| k != 0).count() as u64);
        program.iter_mut().for_each(|p| *p = (next() % 6) as u8);
        let mut r = [1u64; 4];
        for step in 0..20_000usize {
            let a = (step >> 3) & 3;
            match program[step & 255] {
                0 => r[a] = r[a].wrapping_add(r[(a + 1) & 3]),
                1 => r[a] ^= r[(a + 2) & 3] << 1,
                2 => r[a] = r[a].rotate_left(7),
                3 if r[a] & 1 == 0 => r[a] >>= 1,
                3 => r[a] = r[a].wrapping_mul(3).wrapping_add(1),
                4 => r[(a + 3) & 3] = r[a].wrapping_sub(step as u64),
                _ => r[a] = !r[a],
            }
        }
        acc = acc.wrapping_add(r.iter().fold(0, |s, v| s ^ v));
    }
    acc
}

/// [`host_probe`] time, seconds, on the 2-vCPU host the benchmark was
/// built on (Intel Xeon, 2.1 GHz) when no co-tenant slowed it.
pub const HOST_PROBE_REF_S: f64 = 0.55e-3;

/// Samples of one wall-clock quantity, each with the host speed measured
/// by [`host_probe`] just before and just after it.
#[derive(Default)]
pub struct HostSamples {
    raw: Vec<f64>,
    /// Host factor of each sample: the mean of its two probes over
    /// [`HOST_PROBE_REF_S`] (`None` if either probe was disturbed).
    factor: Vec<Option<f64>>,
}

impl HostSamples {
    /// Adds `raw`, measured between the probes `before` and `after`.
    pub fn push(&mut self, raw: f64, before: Option<f64>, after: Option<f64>) {
        self.raw.push(raw);
        self.factor.push(
            before
                .zip(after)
                .map(|(b, a)| (b + a) / 2.0 / HOST_PROBE_REF_S),
        );
    }

    /// The samples as measured.
    pub fn raw(&self) -> &[f64] {
        &self.raw
    }

    /// The samples with an undisturbed host factor, at the reference host
    /// speed: times divided by their factor, rates (`rate`) multiplied.
    pub fn at_reference(&self, rate: bool) -> Vec<f64> {
        self.raw
            .iter()
            .zip(&self.factor)
            .filter_map(|(&x, f)| f.map(|f| if rate { x * f } else { x / f }))
            .collect()
    }

    /// The undisturbed host factors.
    pub fn factors(&self) -> Vec<f64> {
        self.factor.iter().flatten().copied().collect()
    }

    /// The median at the reference host speed, or of the raw samples if
    /// every probe was disturbed.
    pub fn median_at_reference(&self, rate: bool) -> f64 {
        let v = self.at_reference(rate);
        median(if v.is_empty() { &self.raw } else { &v })
    }
}

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Renders the result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, the latter holding every metric of `defs`.
///
/// # Errors
///
/// Names the first metric of `defs` the run did not produce.
pub fn result_line(
    defs: &[metrics::MetricDef],
    values: &Values,
    ledger: &Ledger,
) -> Result<String, String> {
    let mut body = Vec::with_capacity(defs.len());
    for d in defs {
        let v = values
            .get(&d.name)
            .ok_or_else(|| format!("metric `{}` was not produced", d.name))?;
        if !v.is_finite() {
            return Err(format!("metric `{}` is not finite ({v})", d.name));
        }
        body.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            d.name,
            json_num(v),
            d.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.failed == 0,
        ledger.attempted,
        ledger.failed,
        body.join(", ")
    ))
}

/// A JSON number with every digit Rust's shortest round-trip form has.
fn json_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_and_reject() {
        let a = Args::parse(
            [
                "--workload",
                "serve",
                "--seed",
                "7",
                "--seconds",
                "3",
                "--trace",
                "1",
            ]
            .map(String::from),
        )
        .expect("parses");
        assert_eq!(a.workload, Workload::Serve);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
        assert!(Args::parse(["--workload", "x"].map(String::from)).is_err());
        assert!(Args::parse(["--seed"].map(String::from)).is_err());
    }

    #[test]
    fn host_samples_scale_by_their_own_probes() {
        let r = HOST_PROBE_REF_S;
        let mut h = HostSamples::default();
        // Probes twice the reference time: the host ran at half speed.
        h.push(10.0, Some(2.0 * r), Some(2.0 * r));
        // A disturbed probe drops the sample from the scaled set only.
        h.push(4.0, Some(r), None);
        assert_eq!(h.raw(), &[10.0, 4.0]);
        assert_eq!(h.at_reference(true), vec![20.0]);
        assert_eq!(h.at_reference(false), vec![5.0]);
        assert_eq!(h.factors(), vec![2.0]);
        let mut all_disturbed = HostSamples::default();
        all_disturbed.push(3.0, None, Some(r));
        assert_eq!(all_disturbed.median_at_reference(true), 3.0);
    }

    #[test]
    fn audio_mix_is_seeded() {
        let a = audio_mix(&mut rng_for(1, "x"), 90);
        assert_eq!(a, audio_mix(&mut rng_for(1, "x"), 90));
        assert_ne!(a, audio_mix(&mut rng_for(2, "x"), 90));
        assert_eq!(a.len(), 90);
    }
}
