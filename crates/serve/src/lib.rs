//! `scflow-serve`: a concurrent simulation service over the flow's
//! engines.
//!
//! The service speaks a JSON-lines protocol (one request object per
//! line, one reply object per line — see `DESIGN.md` for the grammar)
//! over stdin/stdout or TCP. Each open session owns one deterministic
//! simulation engine on a dedicated worker thread; compiled designs are
//! shared across sessions through a content-addressed cache, so the
//! compile cost of a design is paid once no matter how many sessions
//! open it. Batched stimulus (`step_batch`) goes through the
//! [`Simulation`](scflow_sim_api::Simulation) trait's batch API:
//! every engine runs sequential batches, and the bit-parallel engines
//! (`gate.bitpar`, `rtl.bitpar`) additionally accept lanes-mode
//! batches driving up to 64 independent stimulus tuples through one
//! engine pass. Snapshot-capable engines (`rtl.compiled`,
//! `rtl.bitpar`, `gate.bitpar`) expose `snapshot`/`restore` requests
//! so a client can fork a warmed-up state across scenario sweeps.
//!
//! Determinism contract: a session's replies depend only on its own
//! request sequence. Concurrent sessions on the same design produce
//! byte-identical outputs, coverage maps and (deterministic-mode)
//! metrics to a serial single-session run — the integration tests pin
//! this.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod designs;
pub mod json;
pub mod session;

use std::collections::BTreeMap;
use std::io::{BufRead, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use scflow::prelude::ServeOptions;
use scflow_hwtypes::Bv;
use scflow_obs::{Histogram, MetricValue, MetricsRegistry};
use scflow_sim_api::{SimError, Snapshot, StimulusBatch, StimulusItem};

use cache::CompileCache;
use json::{obj, Json};
use session::{Req, Resp, SessionMgr};

/// Protocol version reported by `ping`. Additive changes (new ops, new
/// optional fields) keep the version; anything that changes the meaning
/// or type of an existing field bumps it.
pub const PROTOCOL_VERSION: i64 = 1;

/// Longest request line the transport reads, newline excluded (4 MiB).
/// The longest request the protocol defines, a `restore` of a
/// lane-diverged 64-lane blob with coverage on, is under 0.5 MB for
/// every catalog design (see DESIGN.md), so no legitimate request comes
/// near the cap, while a line that never ends can no longer grow the
/// server's memory without limit. A longer line answers
/// `request_too_large` and is skipped through its newline.
pub const MAX_REQUEST_BYTES: usize = 4 << 20;

/// The server: session table, compile cache and request counters. All
/// methods take `&self`, so one server can be driven from many
/// connection threads at once.
pub struct Server {
    mgr: SessionMgr,
    cache: Arc<CompileCache>,
    shutdown: AtomicBool,
    /// Per-op wall-clock handling latency in microseconds. Wall clock is
    /// inherently nondeterministic, so these histograms are only
    /// exported by `server_metrics` when `deterministic` is false.
    latency: Mutex<BTreeMap<String, Histogram>>,
    requests: scflow_obs::Counter,
    errors: scflow_obs::Counter,
}

impl Server {
    /// A server configured by `opts`.
    pub fn new(opts: &ServeOptions) -> Self {
        let cache = Arc::new(CompileCache::new(opts.cache_cap));
        Server {
            mgr: SessionMgr::new(opts, cache.clone()),
            cache,
            shutdown: AtomicBool::new(false),
            latency: Mutex::new(BTreeMap::new()),
            requests: scflow_obs::Counter::new(),
            errors: scflow_obs::Counter::new(),
        }
    }

    /// The shared compile cache (tests assert on its counters).
    pub fn cache(&self) -> &CompileCache {
        &self.cache
    }

    /// The session manager.
    pub fn sessions(&self) -> &SessionMgr {
        &self.mgr
    }

    /// `true` once a `shutdown` request has been accepted.
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Handles one request line and returns the reply line (without the
    /// trailing newline). Never panics: malformed input becomes an
    /// `ok:false` reply, and engine panics are caught at the session
    /// boundary.
    pub fn handle_line(&self, line: &str) -> String {
        let start = Instant::now();
        self.requests.inc();
        let (reply, op) = self.dispatch(line);
        let op = op.unwrap_or_else(|| "invalid".to_owned());
        let micros = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.latency
            .lock()
            .expect("latency table")
            .entry(op)
            .or_default()
            .record(micros);
        reply.render()
    }

    /// [`handle_line`](Server::handle_line) for a raw request frame: a
    /// line that is not UTF-8 answers `bad_json` instead of reaching the
    /// parser.
    fn handle_bytes(&self, line: &[u8]) -> String {
        match std::str::from_utf8(line) {
            Ok(text) => self.handle_line(text),
            Err(e) => {
                self.requests.inc();
                let msg = format!("request is not UTF-8 (byte {})", e.valid_up_to());
                self.err(Json::Num(0), "bad_json", &msg).render()
            }
        }
    }

    fn dispatch(&self, line: &str) -> (Json, Option<String>) {
        let req = match json::parse(line) {
            Ok(v) => v,
            Err(e) => {
                return (self.err(Json::Num(0), "bad_json", &e), None);
            }
        };
        let id = req.get("id").cloned().unwrap_or(Json::Num(0));
        let Some(op) = req.get("op").and_then(Json::as_str).map(str::to_owned) else {
            return (
                self.err(id, "bad_request", "missing string field `op`"),
                None,
            );
        };
        let reply = match op.as_str() {
            "ping" => ok(
                id,
                [
                    ("server", Json::Str("scflow-serve".into())),
                    ("protocol", Json::Num(PROTOCOL_VERSION)),
                ],
            ),
            "open_session" => self.op_open(id, &req),
            "poke" => self.op_poke(id, &req),
            "peek" => self.op_session_simple(id, &req, |port| Req::Peek(port)),
            "step" => self.op_step(id, &req),
            "settle" => self.op_no_arg(id, &req, Req::Settle),
            "step_batch" => self.op_step_batch(id, &req),
            "snapshot" => self.op_no_arg(id, &req, Req::Snapshot),
            "restore" => self.op_restore(id, &req),
            "coverage" => self.op_no_arg(id, &req, Req::Coverage),
            "metrics" => self.op_no_arg(id, &req, Req::Metrics),
            "reset" => self.op_no_arg(id, &req, Req::Reset),
            "close" => self.op_close(id, &req),
            "server_metrics" => self.op_server_metrics(id, &req),
            "shutdown" => {
                self.shutdown.store(true, Ordering::SeqCst);
                ok(id, [("closing", Json::Bool(true))])
            }
            _ => self.err(id, "unknown_op", &format!("unknown op `{op}`")),
        };
        (reply, Some(op))
    }

    fn err(&self, id: Json, code: &str, msg: &str) -> Json {
        self.errors.inc();
        obj([
            ("id", id),
            ("ok", Json::Bool(false)),
            (
                "error",
                obj([
                    ("code", Json::Str(code.to_owned())),
                    ("msg", Json::Str(msg.to_owned())),
                ]),
            ),
        ])
    }

    fn op_open(&self, id: Json, req: &Json) -> Json {
        let Some(design) = req.get("design").and_then(Json::as_str) else {
            return self.err(id, "bad_request", "missing string field `design`");
        };
        let Some(engine) = req.get("engine").and_then(Json::as_str) else {
            return self.err(id, "bad_request", "missing string field `engine`");
        };
        let coverage = match optional(req, "coverage", "a boolean", Json::as_bool) {
            Ok(c) => c.unwrap_or(false),
            Err(m) => return self.err(id, "bad_request", &m),
        };
        // Optional pass level (0..=2). Absent, the server-wide
        // `SCFLOW_OPT` knob decides; present, the request wins — so
        // concurrent sessions can run the same design at different
        // levels without touching the environment.
        let passes = match optional(req, "opt", "an integer (0, 1 or 2)", Json::as_i64) {
            Ok(Some(l)) if (0..=2).contains(&l) => scflow_hwtypes::PassConfig::for_level(l as u8),
            Ok(Some(_)) => {
                return self.err(id, "bad_request", "field `opt` must be 0, 1 or 2");
            }
            Ok(None) => scflow_hwtypes::PassConfig::from_env(),
            Err(m) => return self.err(id, "bad_request", &m),
        };
        match self.mgr.open(design, engine, coverage, &passes) {
            Ok((sid, outcome, content_hash)) => ok(
                id,
                [
                    ("session", Json::Str(sid)),
                    ("design", Json::Str(design.to_owned())),
                    ("engine", Json::Str(engine.to_owned())),
                    ("cache", Json::Str(outcome.as_str().to_owned())),
                    ("content_hash", Json::Str(format!("0x{content_hash:016x}"))),
                ],
            ),
            Err((code, msg)) => self.err(id, code, &msg),
        }
    }

    fn session_id<'r>(&self, req: &'r Json) -> Result<&'r str, &'static str> {
        req.get("session")
            .and_then(Json::as_str)
            .ok_or("missing string field `session`")
    }

    fn op_poke(&self, id: Json, req: &Json) -> Json {
        let sid = match self.session_id(req) {
            Ok(s) => s,
            Err(m) => return self.err(id, "bad_request", m),
        };
        let Some(port) = req.get("port").and_then(Json::as_str) else {
            return self.err(id, "bad_request", "missing string field `port`");
        };
        let value = match parse_value(req.get("value"), req.get("width")) {
            Ok(v) => v,
            Err(m) => return self.err(id, "bad_value", &m),
        };
        self.finish(id, self.mgr.request(sid, Req::Poke(port.to_owned(), value)))
    }

    fn op_session_simple(&self, id: Json, req: &Json, mk: impl FnOnce(String) -> Req) -> Json {
        let sid = match self.session_id(req) {
            Ok(s) => s,
            Err(m) => return self.err(id, "bad_request", m),
        };
        let Some(port) = req.get("port").and_then(Json::as_str) else {
            return self.err(id, "bad_request", "missing string field `port`");
        };
        self.finish(id, self.mgr.request(sid, mk(port.to_owned())))
    }

    fn op_step(&self, id: Json, req: &Json) -> Json {
        let sid = match self.session_id(req) {
            Ok(s) => s,
            Err(m) => return self.err(id, "bad_request", m),
        };
        let cycles = match req.get("cycles") {
            None => 1,
            Some(Json::Num(n)) if *n >= 0 => *n as u64,
            Some(_) => {
                return self.err(id, "bad_request", "`cycles` must be a non-negative integer");
            }
        };
        self.finish(id, self.mgr.request(sid, Req::Step(cycles)))
    }

    fn op_no_arg(&self, id: Json, req: &Json, r: Req) -> Json {
        let sid = match self.session_id(req) {
            Ok(s) => s,
            Err(m) => return self.err(id, "bad_request", m),
        };
        self.finish(id, self.mgr.request(sid, r))
    }

    fn op_close(&self, id: Json, req: &Json) -> Json {
        let sid = match self.session_id(req) {
            Ok(s) => s.to_owned(),
            Err(m) => return self.err(id, "bad_request", m),
        };
        match self.mgr.request(&sid, Req::Close) {
            Resp::Done => ok(id, [("closed", Json::Str(sid))]),
            other => self.finish(id, other),
        }
    }

    fn op_step_batch(&self, id: Json, req: &Json) -> Json {
        let sid = match self.session_id(req) {
            Ok(s) => s,
            Err(m) => return self.err(id, "bad_request", m),
        };
        let Some(raw_items) = req.get("items").and_then(Json::as_arr) else {
            return self.err(id, "bad_request", "missing array field `items`");
        };
        let mut items = Vec::with_capacity(raw_items.len());
        for (i, it) in raw_items.iter().enumerate() {
            let cycles = match it.get("cycles") {
                None => 1,
                Some(Json::Num(n)) if *n >= 0 => *n as u64,
                _ => {
                    return self.err(
                        id,
                        "bad_request",
                        &format!("item {i}: `cycles` must be a non-negative integer"),
                    );
                }
            };
            let mut pokes = Vec::new();
            if let Some(raw_pokes) = it.get("pokes") {
                let Some(raw_pokes) = raw_pokes.as_arr() else {
                    return self.err(
                        id,
                        "bad_request",
                        &format!("item {i}: `pokes` must be an array"),
                    );
                };
                for p in raw_pokes {
                    let Some(port) = p.get("port").and_then(Json::as_str) else {
                        return self.err(
                            id,
                            "bad_request",
                            &format!("item {i}: poke missing `port`"),
                        );
                    };
                    match parse_value(p.get("value"), p.get("width")) {
                        Ok(v) => pokes.push((port.to_owned(), v)),
                        Err(m) => {
                            return self.err(id, "bad_value", &format!("item {i}: {m}"));
                        }
                    }
                }
            }
            items.push(StimulusItem { pokes, cycles });
        }
        let read: Vec<String> = match req.get("read") {
            None => Vec::new(),
            Some(Json::Arr(ports)) => {
                let mut out = Vec::with_capacity(ports.len());
                for p in ports {
                    match p.as_str() {
                        Some(s) => out.push(s.to_owned()),
                        None => {
                            return self.err(id, "bad_request", "`read` must hold strings");
                        }
                    }
                }
                out
            }
            Some(_) => return self.err(id, "bad_request", "`read` must be an array"),
        };
        let lanes = match optional(req, "mode", "a string", Json::as_str) {
            Err(m) => return self.err(id, "bad_request", &m),
            Ok(None | Some("sequential")) => false,
            Ok(Some("lanes")) => true,
            Ok(Some(m)) => {
                return self.err(
                    id,
                    "bad_request",
                    &format!("unknown batch mode `{m}` (sequential|lanes)"),
                );
            }
        };
        let batch = StimulusBatch { items, read };
        self.finish(id, self.mgr.request(sid, Req::StepBatch { batch, lanes }))
    }

    fn op_restore(&self, id: Json, req: &Json) -> Json {
        let sid = match self.session_id(req) {
            Ok(s) => s,
            Err(m) => return self.err(id, "bad_request", m),
        };
        let Some(hex) = req.get("snapshot").and_then(Json::as_str) else {
            return self.err(id, "bad_request", "missing string field `snapshot`");
        };
        let blob = match blob_from_hex(hex) {
            Ok(b) => b,
            Err(m) => return self.err(id, "bad_value", &m),
        };
        self.finish(
            id,
            self.mgr
                .request(sid, Req::Restore(Snapshot::from_blob(blob))),
        )
    }

    fn op_server_metrics(&self, id: Json, req: &Json) -> Json {
        let deterministic = match optional(req, "deterministic", "a boolean", Json::as_bool) {
            Ok(d) => d.unwrap_or(false),
            Err(m) => return self.err(id, "bad_request", &m),
        };
        let mut reg = MetricsRegistry::new();
        let cs = self.cache.stats();
        reg.set_counter("serve.cache.hits", cs.hits);
        reg.set_counter("serve.cache.misses", cs.misses);
        reg.set_counter("serve.cache.compiles", cs.compiles);
        reg.set_counter("serve.cache.evictions", cs.evictions);
        reg.set_counter("serve.cache.entries", self.cache.len() as u64);
        let sc = &self.mgr.counters;
        reg.set_counter("serve.sessions.opened", sc.opened.load(Ordering::Relaxed));
        reg.set_counter("serve.sessions.closed", sc.closed.load(Ordering::Relaxed));
        reg.set_counter(
            "serve.sessions.busy_rejections",
            sc.busy_rejections.load(Ordering::Relaxed),
        );
        reg.set_gauge("serve.sessions.active", self.mgr.active() as i64);
        if !deterministic {
            // Wall-clock latency never enters the deterministic view.
            reg.set_counter("serve.requests.total", self.requests.get());
            reg.set_counter("serve.requests.errors", self.errors.get());
            for (op, h) in self.latency.lock().expect("latency table").iter() {
                reg.merge_histogram(&format!("serve.latency.{op}.us"), h);
            }
        }
        ok(id, [("metrics", registry_to_json(&reg))])
    }

    fn finish(&self, id: Json, resp: Resp) -> Json {
        match resp {
            Resp::Done => ok(id, []),
            Resp::Value(v) => ok(id, value_fields(&v)),
            Resp::Cycles(c) => ok(id, [("cycles", num_u64(c))]),
            Resp::Batch { outputs, cycles } => {
                let items: Vec<Json> = outputs
                    .into_iter()
                    .map(|reads| {
                        Json::Obj(vec![(
                            "outputs".to_owned(),
                            Json::Arr(
                                reads
                                    .into_iter()
                                    .map(|(port, v)| {
                                        let mut fields = vec![("port".to_owned(), Json::Str(port))];
                                        for (k, j) in value_fields(&v) {
                                            fields.push((k.to_owned(), j));
                                        }
                                        Json::Obj(fields)
                                    })
                                    .collect(),
                            ),
                        )])
                    })
                    .collect();
                ok(
                    id,
                    [("items", Json::Arr(items)), ("cycles", num_u64(cycles))],
                )
            }
            Resp::Coverage {
                covered_bits,
                total_bits,
                flips,
                samples,
                summary,
                report,
            } => ok(
                id,
                [
                    ("covered_bits", num_u64(covered_bits)),
                    ("total_bits", num_u64(total_bits)),
                    ("flips", num_u64(flips)),
                    ("samples", num_u64(samples)),
                    ("summary", Json::Str(summary)),
                    ("report", Json::Str(report)),
                ],
            ),
            Resp::Snapshot(snap) => ok(id, [("snapshot", Json::Str(blob_to_hex(snap.blob())))]),
            Resp::Metrics(Some(reg)) => ok(id, [("metrics", registry_to_json(&reg))]),
            Resp::Metrics(None) => self.err(id, "unsupported_op", "this engine exports no metrics"),
            Resp::Sim(e) => {
                let code = match &e {
                    SimError::UnknownPort(_) => "unknown_port",
                    SimError::NotAnInput(_) => "not_an_input",
                    SimError::NotAnOutput(_) => "not_an_output",
                    SimError::WidthMismatch { .. } => "width_mismatch",
                };
                self.err(id, code, &e.to_string())
            }
            Resp::Failed(code, msg) => self.err(id, code, &msg),
        }
    }

    /// Serves the JSON-lines protocol over `input`/`output` until EOF
    /// or a `shutdown` request. Lines are read as bytes, at most
    /// [`MAX_REQUEST_BYTES`] each: a longer line answers
    /// `request_too_large` (id `null`) and is discarded through its
    /// newline, and a line that is not UTF-8 answers `bad_json`; neither
    /// ends the transport.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the transport.
    pub fn serve_io(&self, mut input: impl BufRead, mut output: impl Write) -> std::io::Result<()> {
        let mut line = Vec::new();
        loop {
            line.clear();
            let n = (&mut input)
                .take(MAX_REQUEST_BYTES as u64 + 1)
                .read_until(b'\n', &mut line)?;
            if n == 0 {
                break;
            }
            let reply = if line.last() != Some(&b'\n') && line.len() > MAX_REQUEST_BYTES {
                skip_line(&mut input)?;
                self.requests.inc();
                let msg = format!("request line exceeds {MAX_REQUEST_BYTES} bytes");
                self.err(Json::Null, "request_too_large", &msg).render()
            } else {
                let frame = line.strip_suffix(b"\n").unwrap_or(&line);
                let frame = frame.strip_suffix(b"\r").unwrap_or(frame);
                if frame.trim_ascii().is_empty() {
                    continue;
                }
                self.handle_bytes(frame)
            };
            output.write_all(reply.as_bytes())?;
            output.write_all(b"\n")?;
            output.flush()?;
            if self.shutting_down() {
                break;
            }
        }
        Ok(())
    }

    /// Serves over stdin/stdout (the default transport).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the standard streams.
    pub fn serve_stdio(&self) -> std::io::Result<()> {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        self.serve_io(stdin.lock(), stdout.lock())
    }

    /// Binds `addr` and serves each TCP connection on its own thread;
    /// sessions and the compile cache are shared server-wide. Returns
    /// when a `shutdown` request arrives on any connection.
    ///
    /// # Errors
    ///
    /// Propagates bind/accept errors.
    pub fn serve_tcp(&self, addr: &str) -> std::io::Result<()> {
        let listener = std::net::TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        std::thread::scope(|scope| loop {
            if self.shutting_down() {
                return Ok(());
            }
            match listener.accept() {
                Ok((stream, _peer)) => {
                    let _ = stream.set_nodelay(true);
                    scope.spawn(move || {
                        let reader =
                            std::io::BufReader::new(stream.try_clone().expect("clone stream"));
                        let _ = self.serve_io(reader, stream);
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
                Err(e) => return Err(e),
            }
        })
    }
}

/// Discards input through the next newline (or to EOF).
fn skip_line(input: &mut impl BufRead) -> std::io::Result<()> {
    loop {
        let buf = input.fill_buf()?;
        if buf.is_empty() {
            return Ok(());
        }
        if let Some(i) = buf.iter().position(|&b| b == b'\n') {
            input.consume(i + 1);
            return Ok(());
        }
        let n = buf.len();
        input.consume(n);
    }
}

fn ok<const N: usize>(id: Json, fields: [(&str, Json); N]) -> Json {
    let mut all = vec![("id".to_owned(), id), ("ok".to_owned(), Json::Bool(true))];
    for (k, v) in fields {
        all.push((k.to_owned(), v));
    }
    Json::Obj(all)
}

/// Reads an optional request field. An absent field is `Ok(None)`; a
/// present field of the wrong JSON type is an error naming the field
/// and `expected` (never read as if it were absent).
fn optional<'r, T>(
    req: &'r Json,
    field: &str,
    expected: &str,
    get: impl FnOnce(&'r Json) -> Option<T>,
) -> Result<Option<T>, String> {
    match req.get(field) {
        None => Ok(None),
        Some(v) => get(v)
            .map(Some)
            .ok_or_else(|| format!("field `{field}` must be {expected}")),
    }
}

fn num_u64(v: u64) -> Json {
    // Counts that fit JSON integers stay numeric; anything wider would
    // have to travel as a hex string like port values do.
    i64::try_from(v).map_or_else(|_| Json::Str(format!("0x{v:x}")), Json::Num)
}

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Marks a byte that is not a hex digit in [`NIBBLE`].
const NOT_HEX: u8 = 0x10;

/// The value of each hex digit byte (either case), [`NOT_HEX`] for
/// every other byte — a sign included.
const NIBBLE: [u8; 256] = {
    let mut t = [NOT_HEX; 256];
    let mut i = 0;
    while i < 16 {
        t[HEX_DIGITS[i] as usize] = i as u8;
        t[HEX_DIGITS[i].to_ascii_uppercase() as usize] = i as u8;
        i += 1;
    }
    t
};

/// Renders a snapshot blob as lowercase hex (JSON strings cannot carry
/// raw bytes; hex keeps the transcript line-oriented and diffable).
fn blob_to_hex(blob: &[u8]) -> String {
    let mut hex = Vec::with_capacity(blob.len() * 2);
    for &b in blob {
        hex.push(HEX_DIGITS[usize::from(b >> 4)]);
        hex.push(HEX_DIGITS[usize::from(b & 0xf)]);
    }
    String::from_utf8(hex).expect("hex digits are ASCII")
}

/// Parses a hex snapshot blob from a `restore` request. Only the digits
/// `0-9a-fA-F` are accepted, two per byte.
fn blob_from_hex(hex: &str) -> Result<Vec<u8>, String> {
    if hex.len() % 2 != 0 {
        return Err("`snapshot` hex must have even length".to_owned());
    }
    let mut out = Vec::with_capacity(hex.len() / 2);
    for pair in hex.as_bytes().chunks_exact(2) {
        let (hi, lo) = (NIBBLE[usize::from(pair[0])], NIBBLE[usize::from(pair[1])]);
        if (hi | lo) & NOT_HEX != 0 {
            return Err(match std::str::from_utf8(pair) {
                Ok(s) => format!("bad hex `{s}` in `snapshot`"),
                Err(_) => "non-ASCII in `snapshot`".to_owned(),
            });
        }
        out.push((hi << 4) | lo);
    }
    Ok(out)
}

fn value_fields(v: &Bv) -> [(&'static str, Json); 2] {
    [
        ("value", Json::Str(format!("0x{:x}", v.as_u64()))),
        ("width", Json::Num(i64::from(v.width()))),
    ]
}

/// Parses a port value: `value` is a `0x…` hex string (64-bit values do
/// not survive JSON's float-safe integer range) or a small non-negative
/// integer; `width` is the port width in bits (1..=64), required.
fn parse_value(value: Option<&Json>, width: Option<&Json>) -> Result<Bv, String> {
    let width = match width {
        Some(Json::Num(w)) if (1..=64).contains(w) => *w as u32,
        Some(_) => return Err("`width` must be an integer in 1..=64".to_owned()),
        None => return Err("missing integer field `width`".to_owned()),
    };
    let bits = match value {
        Some(Json::Str(s)) => {
            let hex = s
                .strip_prefix("0x")
                .or_else(|| s.strip_prefix("0X"))
                .ok_or_else(|| format!("string value `{s}` must start with 0x"))?;
            // `from_str_radix` takes a leading `+`; a port value is digits only.
            if hex.starts_with('+') {
                return Err(format!("bad hex value `{s}`: a sign is not a hex digit"));
            }
            u64::from_str_radix(hex, 16).map_err(|e| format!("bad hex value `{s}`: {e}"))?
        }
        Some(Json::Num(n)) if *n >= 0 => *n as u64,
        Some(_) => return Err("`value` must be a 0x… string or non-negative integer".to_owned()),
        None => return Err("missing field `value`".to_owned()),
    };
    if width < 64 && bits >= (1u64 << width) {
        return Err(format!("value 0x{bits:x} does not fit {width} bits"));
    }
    Ok(Bv::new(bits, width))
}

/// Renders a registry as a single-line [`Json`] object (sorted names,
/// so byte-deterministic for equal contents).
fn registry_to_json(reg: &MetricsRegistry) -> Json {
    let mut fields = Vec::with_capacity(reg.len());
    for (name, value) in reg.iter() {
        let v = match value {
            MetricValue::Counter(c) => num_u64(*c),
            MetricValue::Gauge(g) => Json::Num(*g),
            MetricValue::Histogram(h) => obj([
                ("count", num_u64(h.count())),
                ("sum", num_u64(h.sum())),
                ("min", num_u64(h.min().unwrap_or(0))),
                ("max", num_u64(h.max().unwrap_or(0))),
                (
                    "buckets",
                    Json::Arr(
                        h.nonzero_buckets()
                            .map(|(b, c)| Json::Arr(vec![Json::Num(b as i64), num_u64(c)]))
                            .collect(),
                    ),
                ),
            ]),
        };
        fields.push((name.to_owned(), v));
    }
    Json::Obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scflow_testkit::prop::{check, ints, vecs};
    use scflow_testkit::prop_assert_eq;

    #[test]
    fn hex_blobs_round_trip() {
        assert_eq!(blob_to_hex(&[]), "");
        assert_eq!(blob_from_hex(""), Ok(Vec::new()));
        assert_eq!(blob_to_hex(&[0x00, 0x0f, 0xa5, 0xff]), "000fa5ff");
        assert_eq!(blob_from_hex("000FA5fF"), Ok(vec![0x00, 0x0f, 0xa5, 0xff]));
        check(
            "hex blobs round-trip",
            &vecs(ints(0u8..=255), 0..=300),
            |blob| {
                let hex = blob_to_hex(blob);
                prop_assert_eq!(hex.len(), 2 * blob.len());
                prop_assert_eq!(blob_from_hex(&hex), Ok(blob.clone()));
                prop_assert_eq!(blob_from_hex(&hex.to_ascii_uppercase()), Ok(blob.clone()));
                Ok(())
            },
        );
    }

    #[test]
    fn hex_blob_rejections_keep_their_messages() {
        let bad = |pair: &str| Err(format!("bad hex `{pair}` in `snapshot`"));
        assert_eq!(
            blob_from_hex("abc"),
            Err("`snapshot` hex must have even length".to_owned())
        );
        for b in (0u8..0x80).filter(|b| !b.is_ascii_hexdigit()) {
            let c = char::from(b);
            assert_eq!(blob_from_hex(&format!("00{c}0")), bad(&format!("{c}0")));
            assert_eq!(blob_from_hex(&format!("0{c}00")), bad(&format!("0{c}")));
        }
        // A sign is not a digit, even where `from_str_radix` would take it.
        assert_eq!(blob_from_hex("+f"), bad("+f"));
        assert_eq!(blob_from_hex("00+0"), bad("+0"));
        // A two-byte character that fills a pair is one bad pair; a
        // character split across pairs leaves a pair that is not UTF-8.
        assert_eq!(blob_from_hex("é00"), bad("é"));
        let split = Err("non-ASCII in `snapshot`".to_owned());
        assert_eq!(blob_from_hex("0é0"), split);
        assert_eq!(blob_from_hex("€0"), split);
    }
}
