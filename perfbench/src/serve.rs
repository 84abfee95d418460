//! The `serve` workload: two closed-loop clients in one process drive one
//! `Server` through `Server::handle_line` with default `ServeOptions`.
//!
//! Each session script is: open, warm (pokes + step), snapshot, then
//! rounds of (restore, `step_batch`, peek), and close. Batches run in
//! lanes mode on the 64-lane engines and sequentially on
//! `rtl.compiled`. Scripts mix the three snapshot-capable engines over
//! two handshake designs, each at the default pass level and at
//! `"opt":2` — eight compiled artefacts, which fit the default cache;
//! their cold compiles happen in set-up.

use crate::metrics::{median, quantile, Values, SERVE_ENGINES, SERVE_OPS};
use crate::trace::{process_cpu_ns, Tracer};
use crate::{host_probe, rng_for, HostSamples, Ledger, Size, SERVE_CLIENTS};
use scflow::flow::ServeOptions;
use scflow_serve::Server;
use scflow_testkit::Rng;
use std::time::{Duration, Instant};

/// Designs the scripts open (handshake I/O) and the pass level each is
/// opened at (`None` leaves it to the server default).
const COMBOS: [(&str, Option<u8>); 4] = [
    ("rtl_opt", None),
    ("rtl_opt", Some(2)),
    ("vhdl_ref", None),
    ("vhdl_ref", Some(2)),
];

/// Client time of one serve tick: short, so that serve traffic can be
/// interleaved with the other phases.
pub const SERVE_TICK: Duration = Duration::from_millis(250);

/// A server with every artefact the scripts use already compiled.
pub struct Setup {
    server: Server,
    seed: u64,
    warm_cycles: u64,
    rounds: usize,
    item_cycles: u64,
    /// Cold `open_session` latency per engine, ms (all samples).
    pub cold_open_ms: Vec<(String, f64)>,
}

fn open_line(id: u64, design: &str, engine: &str, opt: Option<u8>) -> String {
    let opt = opt.map_or_else(String::new, |l| format!(",\"opt\":{l}"));
    format!("{{\"id\":{id},\"op\":\"open_session\",\"design\":\"{design}\",\"engine\":\"{engine}\"{opt}}}")
}

/// `"key":"value"` string field of a rendered reply. Replies are scanned,
/// not parsed: a 64-lane snapshot reply is ~379 KB of hex, and parsing it
/// on the client would add to every closed-loop round trip.
fn str_field<'r>(reply: &'r str, key: &str) -> Option<&'r str> {
    let pat = format!("\"{key}\":\"");
    let at = reply.find(&pat)? + pat.len();
    let len = reply[at..].find('"')?;
    Some(&reply[at..at + len])
}

/// `"key":N` numeric field of a rendered reply (the last occurrence).
fn num_field(reply: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = reply.rfind(&pat)? + pat.len();
    let digits: String = reply[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Whether `reply` is the success reply to request `id`. The server
/// renders `id` then `ok` first in every reply.
fn is_ok(reply: &str, id: u64) -> bool {
    reply.starts_with(&format!("{{\"id\":{id},\"ok\":true"))
}

/// Creates the server and pays every cold compile: each artefact is
/// opened once (the first RTL open of a design alternates between the
/// two RTL engines so both report a cold latency) and closed again.
pub fn setup(seed: u64, size: &Size, ledger: &mut Ledger) -> Setup {
    let server = Server::new(&ServeOptions::default());
    let mut cold_open_ms = Vec::new();
    for (i, (design, opt)) in COMBOS.iter().enumerate() {
        let rtl_engine = SERVE_ENGINES[i % 2];
        for engine in [rtl_engine, "gate.bitpar"] {
            let t = Instant::now();
            let reply = server.handle_line(&open_line(1, design, engine, *opt));
            cold_open_ms.push((engine.to_owned(), t.elapsed().as_secs_f64() * 1e3));
            let cold = str_field(&reply, "cache") == Some("miss");
            ledger.check(is_ok(&reply, 1) && cold, || {
                format!("cold open of {design}/{engine}: {reply}")
            });
            if let Some(sid) = str_field(&reply, "session") {
                let close = server.handle_line(&format!(
                    "{{\"id\":2,\"op\":\"close\",\"session\":\"{sid}\"}}"
                ));
                ledger.check(is_ok(&close, 2), || format!("close: {close}"));
            }
        }
    }
    Setup {
        server,
        seed,
        warm_cycles: size.warm_cycles,
        rounds: size.serve_rounds,
        item_cycles: size.serve_item_cycles,
        cold_open_ms,
    }
}

/// One timed request.
#[derive(Clone, Copy)]
struct Sample {
    op: usize,
    /// Index into [`SERVE_ENGINES`] of the session's engine.
    engine: usize,
    start: Instant,
    dur: Duration,
    bytes: usize,
    cpu_ns: u64,
}

/// What one client did.
#[derive(Default)]
struct ClientLog {
    /// Engine of the script in progress.
    engine: usize,
    samples: Vec<Sample>,
    attempted: u64,
    failures: Vec<String>,
}

impl ClientLog {
    /// Sends one request, times it, and checks the reply is `ok`.
    fn call(
        &mut self,
        server: &Server,
        op: usize,
        id: u64,
        line: &str,
        cpu: bool,
    ) -> Option<String> {
        let cpu0 = if cpu { process_cpu_ns() } else { 0 };
        let start = Instant::now();
        let reply = server.handle_line(line);
        let dur = start.elapsed();
        let cpu_ns = if cpu {
            process_cpu_ns().saturating_sub(cpu0)
        } else {
            0
        };
        self.samples.push(Sample {
            op,
            engine: self.engine,
            start,
            dur,
            bytes: reply.len(),
            cpu_ns,
        });
        self.attempted += 1;
        if is_ok(&reply, id) {
            Some(reply)
        } else {
            let head: String = reply.chars().take(200).collect();
            self.failures.push(format!("{}: {head}", SERVE_OPS[op]));
            None
        }
    }

    fn fail(&mut self, what: String) {
        self.attempted += 1;
        self.failures.push(what);
    }
}

fn op(name: &str) -> usize {
    SERVE_OPS.iter().position(|o| *o == name).expect("known op")
}

/// One session script; returns `None` once a request fails.
fn script(s: &Setup, rng: &mut Rng, log: &mut ClientLog, cpu: bool) -> Option<()> {
    let (design, opt) = COMBOS[rng.index(COMBOS.len())];
    log.engine = rng.index(SERVE_ENGINES.len());
    let engine = SERVE_ENGINES[log.engine];
    let lanes = engine != "rtl.compiled";
    let mut id = 0u64;
    let mut next = || {
        id += 1;
        id
    };

    let i = next();
    let reply = log.call(
        &s.server,
        op("open_session"),
        i,
        &open_line(i, design, engine, opt),
        cpu,
    )?;
    let sid = str_field(&reply, "session")?.to_owned();

    // Warm: hold the handshake inputs and run the shared prefix.
    for (port, value, width) in [
        ("out_sample_ready", 1, 1),
        ("in_sample_valid", 1, 1),
        ("in_sample", rng.next_u64() & 0xffff, 16),
    ] {
        let i = next();
        let line = format!(
            "{{\"id\":{i},\"op\":\"poke\",\"session\":\"{sid}\",\"port\":\"{port}\",\"value\":{value},\"width\":{width}}}"
        );
        log.call(&s.server, op("poke"), i, &line, cpu)?;
    }
    let i = next();
    let line = format!(
        "{{\"id\":{i},\"op\":\"step\",\"session\":\"{sid}\",\"cycles\":{}}}",
        s.warm_cycles
    );
    log.call(&s.server, op("step"), i, &line, cpu)?;

    let i = next();
    let line = format!("{{\"id\":{i},\"op\":\"snapshot\",\"session\":\"{sid}\"}}");
    let reply = log.call(&s.server, op("snapshot"), i, &line, cpu)?;
    let hex = str_field(&reply, "snapshot")?;
    let restore_id = next();
    let restore = format!(
        "{{\"id\":{restore_id},\"op\":\"restore\",\"session\":\"{sid}\",\"snapshot\":\"{hex}\"}}"
    );

    let items = if lanes { 64 } else { 8 };
    let batch_cycles = if lanes {
        s.item_cycles
    } else {
        items * s.item_cycles
    };
    for _ in 0..s.rounds {
        log.call(&s.server, op("restore"), restore_id, &restore, cpu)?;
        let i = next();
        let body: Vec<String> = (0..items)
            .map(|_| {
                format!(
                    "{{\"pokes\":[{{\"port\":\"in_sample\",\"value\":{},\"width\":16}}],\"cycles\":{}}}",
                    rng.next_u64() & 0xffff,
                    s.item_cycles
                )
            })
            .collect();
        let mode = if lanes { ",\"mode\":\"lanes\"" } else { "" };
        let line = format!(
            "{{\"id\":{i},\"op\":\"step_batch\",\"session\":\"{sid}\"{mode},\"items\":[{}],\"read\":[\"out_sample\",\"out_sample_valid\"]}}",
            body.join(",")
        );
        let reply = log.call(&s.server, op("step_batch"), i, &line, cpu)?;
        // After a restore the engine is back at the warm-up cycle.
        if num_field(&reply, "cycles") != Some(s.warm_cycles + batch_cycles) {
            log.fail(format!(
                "{design}/{engine}: step_batch after restore ran from the wrong cycle"
            ));
            return None;
        }
        let i = next();
        let line =
            format!("{{\"id\":{i},\"op\":\"peek\",\"session\":\"{sid}\",\"port\":\"out_sample\"}}");
        log.call(&s.server, op("peek"), i, &line, cpu)?;
    }
    let i = next();
    let line = format!("{{\"id\":{i},\"op\":\"close\",\"session\":\"{sid}\"}}");
    log.call(&s.server, op("close"), i, &line, cpu)?;
    Some(())
}

/// Requests of one serve pass.
#[derive(Default)]
pub struct Samples {
    /// Client time of each tick, with the host speed around it.
    wall_s: HostSamples,
    samples: Vec<Sample>,
    /// Each client's script generator, carried from tick to tick.
    rngs: Vec<Rng>,
}

impl Samples {
    /// The run's host factor: the median of the serve ticks' mean probe
    /// factors (`None` if every tick had a disturbed probe).
    ///
    /// The ticks are 250 ms each and their number is set by the window
    /// and the workload's share, not by the program's speed, so the
    /// probes behind this factor sample the host evenly over the run.
    pub fn host_factor(&self) -> Option<f64> {
        let factors = self.wall_s.factors();
        (!factors.is_empty()).then(|| median(&factors))
    }

    fn latency_us(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|x| x.dur.as_secs_f64() * 1e6)
            .collect()
    }
}

/// Runs both clients until `budget` is spent (each completes at least
/// one script) and appends their requests to `o`. Returns the index of
/// the first request added.
pub fn tick(s: &Setup, budget: Duration, cpu: bool, ledger: &mut Ledger, o: &mut Samples) -> usize {
    if o.rngs.is_empty() {
        o.rngs = (0..SERVE_CLIENTS)
            .map(|c| rng_for(s.seed, &format!("serve.client{c}")))
            .collect();
    }
    let before = host_probe();
    let start = Instant::now();
    let logs: Vec<(Rng, ClientLog)> = std::thread::scope(|scope| {
        let handles: Vec<_> = std::mem::take(&mut o.rngs)
            .into_iter()
            .map(|mut rng| {
                scope.spawn(move || {
                    let mut log = ClientLog::default();
                    loop {
                        let ok = script(s, &mut rng, &mut log, cpu).is_some();
                        if !ok || start.elapsed() >= budget {
                            break (rng, log);
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("serve client thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    o.wall_s.push(wall, before, host_probe());
    let first = o.samples.len();
    for (rng, log) in logs {
        o.rngs.push(rng);
        ledger.ok_n(log.attempted - log.failures.len() as u64);
        for f in log.failures {
            ledger.check(false, || f);
        }
        o.samples.extend(log.samples);
    }
    o.samples[first..].sort_by_key(|x| x.start);
    first
}

/// End-to-end serve metrics at the reference host speed: rates
/// multiplied, and latencies divided, by the run's host factor `f`.
/// Latencies follow the probes only loosely from one 250 ms tick to the
/// next, so the factor is taken over the run, not per tick.
pub fn end_to_end(o: &Samples, f: f64, v: &mut Values, notes: &mut Vec<String>) {
    let lat = o.latency_us();
    let client_s: f64 = o.wall_s.raw().iter().sum();
    let (rps, p50, p99) = (
        lat.len() as f64 / client_s,
        median(&lat),
        quantile(&lat, 0.99),
    );
    v.set("serve_rps", rps * f);
    v.set("serve_p50_us", p50 / f);
    v.set("serve_p99_us", p99 / f);
    notes.push(format!(
        "serve: {} requests from {SERVE_CLIENTS} clients in {client_s:.3} s of client time; \
         p50 and p99 over {} samples ({} beyond p99)",
        lat.len(),
        lat.len(),
        lat.len() / 100
    ));
    notes.push(format!(
        "  raw: serve_rps {rps:.1}, serve_p50_us {p50:.2}, serve_p99_us {p99:.1}"
    ));
}

/// Median latency, us, of each operation among `xs` (`None` where the
/// operation does not occur).
fn op_p50_us(xs: &[Sample]) -> Vec<Option<f64>> {
    (0..SERVE_OPS.len())
        .map(|i| {
            let lat: Vec<f64> = xs
                .iter()
                .filter(|x| x.op == i)
                .map(|x| x.dur.as_secs_f64() * 1e6)
                .collect();
            (!lat.is_empty()).then(|| median(&lat))
        })
        .collect()
}

/// The traced pass: serve ticks, alternately untraced and traced (the
/// order swapped from pair to pair), for `budget` (at least one pair).
/// The two kinds of tick run the same client scripts, each from its own
/// copy of the seeded generators. Traced requests become spans. Then the
/// per-operation latencies, cold-open latencies and cache counters.
///
/// Tracing adds a fixed cost per request, so the overhead is judged per
/// operation: the median, over pairs and operations, of the ratio of an
/// operation's traced p50 to its untraced p50 in the same pair.
pub fn traced(
    s: &Setup,
    budget: Duration,
    cold_opens: &[(String, f64)],
    tr: &mut Tracer,
    ledger: &mut Ledger,
    v: &mut Values,
) -> Vec<String> {
    let mut o = Samples::default();
    let mut u = Samples::default();
    let mut ratios = Vec::new();
    let start = Instant::now();
    let mut pair = 0;
    while pair == 0 || start.elapsed() < budget {
        let mut p50 = [Vec::new(), Vec::new()];
        for traced in [pair % 2 == 1, pair % 2 == 0] {
            if traced {
                let first = tick(s, SERVE_TICK, true, ledger, &mut o);
                for x in &o.samples[first..] {
                    tr.push_measured(
                        &format!("serve.{}", SERVE_OPS[x.op]),
                        x.start,
                        x.dur,
                        x.cpu_ns,
                    );
                }
                p50[1] = op_p50_us(&o.samples[first..]);
            } else {
                let first = tick(s, SERVE_TICK, false, ledger, &mut u);
                p50[0] = op_p50_us(&u.samples[first..]);
            }
        }
        ratios.extend(
            p50[1]
                .iter()
                .zip(&p50[0])
                .filter_map(|(t, u)| Some((*t)? / (*u)?)),
        );
        pair += 1;
    }
    if !ratios.is_empty() {
        v.set("trace.overhead_pct.serve", 100.0 * (median(&ratios) - 1.0));
    }
    for (i, name) in SERVE_OPS.iter().enumerate() {
        let lat: Vec<f64> = o
            .samples
            .iter()
            .filter(|x| x.op == i)
            .map(|x| x.dur.as_secs_f64() * 1e6)
            .collect();
        let bytes: Vec<f64> = o
            .samples
            .iter()
            .filter(|x| x.op == i)
            .map(|x| x.bytes as f64)
            .collect();
        if lat.is_empty() {
            ledger.check(false, || {
                format!("serve: no `{name}` request in the traced pass")
            });
            continue;
        }
        v.set(&format!("serve.{name}.p50_us"), median(&lat));
        v.set(&format!("serve.{name}.p99_us"), quantile(&lat, 0.99));
        v.set(&format!("serve.{name}.reply_bytes"), median(&bytes));
    }
    for engine in SERVE_ENGINES {
        let cold: Vec<f64> = cold_opens
            .iter()
            .filter(|(e, _)| e == engine)
            .map(|(_, ms)| *ms)
            .collect();
        if !cold.is_empty() {
            v.set(&format!("serve.cold_open_ms.{engine}"), median(&cold));
        }
    }
    let reply = s
        .server
        .handle_line("{\"id\":1,\"op\":\"server_metrics\",\"deterministic\":true}");
    ledger.check(is_ok(&reply, 1), || format!("server_metrics: {reply}"));
    let hits = num_field(&reply, "serve.cache.hits").unwrap_or(0) as f64;
    let misses = num_field(&reply, "serve.cache.misses").unwrap_or(0) as f64;
    v.set("serve.cache.hit_ratio", hits / (hits + misses).max(1.0));
    v.set(
        "serve.cache.compiles",
        num_field(&reply, "serve.cache.compiles").unwrap_or(0) as f64,
    );
    v.set(
        "serve.cache.evictions",
        num_field(&reply, "serve.cache.evictions").unwrap_or(0) as f64,
    );

    let mut notes = vec![format!(
        "serve (traced): {} requests; latency by engine and operation, us (p50 / p99 / count):",
        o.samples.len()
    )];
    for (e, engine) in SERVE_ENGINES.iter().enumerate() {
        let mut line = format!("  {engine:<13}");
        for (i, name) in SERVE_OPS.iter().enumerate() {
            let lat: Vec<f64> = o
                .samples
                .iter()
                .filter(|x| x.op == i && x.engine == e)
                .map(|x| x.dur.as_secs_f64() * 1e6)
                .collect();
            if !lat.is_empty() {
                line.push_str(&format!(
                    " {name} {:.0}/{:.0}/{}",
                    median(&lat),
                    quantile(&lat, 0.99),
                    lat.len()
                ));
            }
        }
        notes.push(line);
    }
    notes
}
