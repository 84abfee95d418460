//! Session management: one deterministic engine per session, one worker
//! thread per engine.
//!
//! Every engine in the workspace borrows its compiled structures
//! (`CompiledSim<'p>` borrows the bytecode program, `BitGateSim<'p>`
//! the gate program, …) and the whole workspace forbids unsafe code, so
//! a session cannot be a self-referential "engine plus program" struct.
//! Instead each session runs on a dedicated worker thread that holds
//! the shared [`Arc<Artifact>`](Artifact) on its stack, builds the
//! borrowing engine locally, and then loops over a request channel.
//! The thread *is* the session: its stack pins the artefact (which also
//! pins the cache entry against eviction), and exclusive ownership of
//! the engine gives per-session determinism for free — replies depend
//! only on the session's own request sequence, never on what other
//! sessions do concurrently.
//!
//! The pool is bounded ([`ServeOptions::threads`]); opening a session
//! beyond the bound is refused with `server_busy` instead of queued, so
//! a stalled client can never wedge every worker behind it. Panics are
//! caught per request and surfaced as `engine_panic` error replies —
//! nothing unwinds across the protocol boundary.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use scflow::prelude::ServeOptions;
use scflow_gate::{CellLibrary, GateSim};
use scflow_hwtypes::{Bv, PassConfig};
use scflow_obs::MetricsRegistry;
use scflow_rtl::{Module, RtlSim};
use scflow_sim_api::{SimError, Simulation, Snapshot, StimulusBatch};
use scflow_synth::{synthesize, SynthOptions};

use crate::cache::{Artifact, CompileCache};
use crate::designs::build_design;

/// Number of stimulus lanes the bit-parallel engines are built with —
/// the width of one `step_batch` lanes-mode dispatch.
pub const BATCH_LANES: u32 = 64;

/// The engines a session can run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EngineKind {
    /// Tree-walking RTL interpreter (uncached: it consumes the module
    /// directly and compiles nothing).
    RtlInterp,
    /// Compiled levelized RTL bytecode (cached).
    RtlCompiled,
    /// 64-lane bit-parallel executor over the compiled RTL bytecode
    /// (cached program; accepts lanes-mode batches and snapshots).
    RtlBitpar,
    /// Event-driven four-valued gate simulator (cached netlist).
    GateEvent,
    /// Compiled bit-parallel gate engine on [`BATCH_LANES`] lanes
    /// (cached program; accepts lanes-mode batches and snapshots).
    GateBitpar,
}

impl EngineKind {
    /// Parses a protocol engine name. `gate.fast` and `gate.partitioned`
    /// name retired engines and are kept as protocol-1 aliases of
    /// `gate.bitpar`.
    pub fn parse(name: &str) -> Result<Self, &'static str> {
        match name {
            "rtl.interpreted" => Ok(EngineKind::RtlInterp),
            "rtl.compiled" => Ok(EngineKind::RtlCompiled),
            "rtl.bitpar" => Ok(EngineKind::RtlBitpar),
            "gate.event" => Ok(EngineKind::GateEvent),
            "gate.bitpar" | "gate.fast" | "gate.partitioned" => Ok(EngineKind::GateBitpar),
            _ => Err("unknown engine"),
        }
    }

    /// The protocol name.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::RtlInterp => "rtl.interpreted",
            EngineKind::RtlCompiled => "rtl.compiled",
            EngineKind::RtlBitpar => "rtl.bitpar",
            EngineKind::GateEvent => "gate.event",
            EngineKind::GateBitpar => "gate.bitpar",
        }
    }

    fn needs_gate_artifact(self) -> bool {
        matches!(self, EngineKind::GateEvent | EngineKind::GateBitpar)
    }
}

/// A request to a session worker.
#[derive(Debug)]
pub enum Req {
    /// Drive an input port.
    Poke(String, Bv),
    /// Read an output port.
    Peek(String),
    /// Run clock cycles with inputs held.
    Step(u64),
    /// Settle combinational logic.
    Settle,
    /// Dispatch a batch of stimulus tuples in one pass.
    StepBatch {
        /// The stimulus tuples and batch-wide read list.
        batch: StimulusBatch,
        /// Lanes mode: drive item *i* into bit-parallel lane *i*.
        lanes: bool,
    },
    /// Capture the engine's full simulation state.
    Snapshot,
    /// Restore state captured by an earlier snapshot of this engine
    /// kind and design.
    Restore(Snapshot),
    /// Read the toggle-coverage map.
    Coverage,
    /// Snapshot the engine's metrics registry.
    Metrics,
    /// Return the engine to its power-on state.
    Reset,
    /// Shut the session down.
    Close,
}

/// A session worker's reply.
#[derive(Debug)]
pub enum Resp {
    /// Success with no payload.
    Done,
    /// A port value.
    Value(Bv),
    /// Total completed cycles after the request.
    Cycles(u64),
    /// Per-item output reads of a batch, plus total completed cycles.
    Batch {
        /// `outputs[i]` are item *i*'s `(port, value)` reads.
        outputs: Vec<Vec<(String, Bv)>>,
        /// Total completed cycles after the batch.
        cycles: u64,
    },
    /// The engine's state blob.
    Snapshot(Snapshot),
    /// The coverage map.
    Coverage {
        /// Bits that both rose and fell.
        covered_bits: u64,
        /// Total tracked bits.
        total_bits: u64,
        /// Total transitions.
        flips: u64,
        /// Samples taken (including priming).
        samples: u64,
        /// One-line summary.
        summary: String,
        /// The byte-comparable per-item map.
        report: String,
    },
    /// The engine's metrics registry (`None` if unsupported).
    Metrics(Option<MetricsRegistry>),
    /// A port-level error.
    Sim(SimError),
    /// A service-level error: `(code, message)`.
    Failed(&'static str, String),
}

/// Extracts a readable message from a caught panic payload.
pub fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

type ReqEnvelope = (Req, mpsc::Sender<Resp>);

struct Session {
    tx: mpsc::Sender<ReqEnvelope>,
    join: Option<JoinHandle<()>>,
    design: String,
    kind: EngineKind,
}

/// Monotonic session-lifecycle counters for the server metrics.
#[derive(Debug, Default)]
pub struct SessionCounters {
    /// Sessions opened over the manager's lifetime.
    pub opened: AtomicU64,
    /// Sessions closed.
    pub closed: AtomicU64,
    /// Opens refused because the pool was full.
    pub busy_rejections: AtomicU64,
}

/// The session table plus the bounded worker pool.
pub struct SessionMgr {
    cache: Arc<CompileCache>,
    max_sessions: usize,
    sessions: Mutex<HashMap<String, Session>>,
    next_id: AtomicU64,
    /// Lifecycle counters (exported as `serve.sessions.*`).
    pub counters: SessionCounters,
}

/// What `open_session` reports about the compile cache.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CacheOutcome {
    /// Artefact was already cached (or shared from an in-flight build).
    Hit,
    /// This open compiled the artefact.
    Miss,
    /// The engine does not use the cache (`rtl.interpreted`).
    Uncached,
}

impl CacheOutcome {
    /// The protocol string.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Uncached => "none",
        }
    }
}

impl SessionMgr {
    /// A manager with a bounded pool sharing `cache`.
    pub fn new(opts: &ServeOptions, cache: Arc<CompileCache>) -> Self {
        SessionMgr {
            cache,
            max_sessions: opts.threads,
            sessions: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            counters: SessionCounters::default(),
        }
    }

    /// Live sessions.
    pub fn active(&self) -> usize {
        self.sessions.lock().expect("session table").len()
    }

    /// Opens a session: resolves the design, obtains the compiled
    /// artefact (through the cache for every engine but the
    /// interpreter) and spawns the worker. Returns the session id, the
    /// cache outcome and the artefact's content hash.
    ///
    /// # Errors
    ///
    /// `(code, message)` protocol errors: `unknown_design`,
    /// `unknown_engine` / `unsupported_engine`, `server_busy`,
    /// `compile_error`.
    pub fn open(
        &self,
        design: &str,
        engine: &str,
        coverage: bool,
        passes: &PassConfig,
    ) -> Result<(String, CacheOutcome, u64), (&'static str, String)> {
        let kind = EngineKind::parse(engine).map_err(|msg| {
            if msg.starts_with("unknown") {
                ("unknown_engine", format!("unknown engine `{engine}`"))
            } else {
                ("unsupported_engine", msg.to_owned())
            }
        })?;
        let module = build_design(design)
            .ok_or_else(|| ("unknown_design", format!("unknown design `{design}`")))?
            .map_err(|e| ("compile_error", e))?;
        // Content addresses incorporate the pass configuration: two
        // sessions at different optimization levels must neither share
        // a compiled artefact nor accept each other's snapshots (the
        // engines enforce the latter through the program's
        // `state_identity`; distinct cache keys keep it honest here).
        let module_hash = module.stable_hash_with(passes);

        // Refuse early when the pool is already full — before paying
        // for a compile the session could not use anyway.
        if self.active() >= self.max_sessions {
            self.counters
                .busy_rejections
                .fetch_add(1, Ordering::Relaxed);
            return Err((
                "server_busy",
                format!("session pool full ({} sessions)", self.max_sessions),
            ));
        }

        let (artifact, outcome, content_hash) = match kind {
            EngineKind::RtlInterp => (None, CacheOutcome::Uncached, module_hash),
            EngineKind::RtlCompiled | EngineKind::RtlBitpar => {
                let key = level_key("rtl", module_hash);
                let (art, hit) = self
                    .cache
                    .get_or_compile(key, || {
                        scflow_rtl::CompiledProgram::compile_with(&module, passes)
                            .map(Artifact::Rtl)
                            .map_err(|e| e.to_string())
                    })
                    .map_err(|e| ("compile_error", e))?;
                let outcome = if hit {
                    CacheOutcome::Hit
                } else {
                    CacheOutcome::Miss
                };
                (Some(art), outcome, module_hash)
            }
            _ if kind.needs_gate_artifact() => {
                let key = level_key("gate", module_hash);
                let (art, hit) = self
                    .cache
                    .get_or_compile(key, || {
                        let lib = CellLibrary::generic_025u();
                        let mut netlist = synthesize(&module, &lib, &SynthOptions::default())
                            .map_err(|e| e.to_string())?
                            .netlist;
                        if passes.any() {
                            netlist = scflow_gate::optimize(&netlist, passes)
                                .map_err(|e| e.to_string())?
                                .netlist;
                        }
                        scflow_gate::GateProgram::compile(&netlist)
                            .map(Artifact::Gate)
                            .map_err(|e| e.to_string())
                    })
                    .map_err(|e| ("compile_error", e))?;
                let outcome = if hit {
                    CacheOutcome::Hit
                } else {
                    CacheOutcome::Miss
                };
                let hash = art.gate().expect("gate artifact").content_hash();
                (Some(art), outcome, hash)
            }
            _ => unreachable!("all kinds covered"),
        };

        let (tx, rx) = mpsc::channel::<ReqEnvelope>();
        let module_for_worker = matches!(kind, EngineKind::RtlInterp).then_some(module);
        let join = std::thread::Builder::new()
            .name(format!("scflow-serve-{}", kind.name()))
            .spawn(move || worker(kind, coverage, module_for_worker, artifact, rx))
            .map_err(|e| ("server_busy", format!("cannot spawn worker: {e}")))?;

        let mut table = self.sessions.lock().expect("session table");
        if table.len() >= self.max_sessions {
            // Lost a race for the last slot; unwind the spawn cleanly.
            drop(tx);
            drop(table);
            let _ = join.join();
            self.counters
                .busy_rejections
                .fetch_add(1, Ordering::Relaxed);
            return Err((
                "server_busy",
                format!("session pool full ({} sessions)", self.max_sessions),
            ));
        }
        let id = format!("s{}", self.next_id.fetch_add(1, Ordering::Relaxed));
        table.insert(
            id.clone(),
            Session {
                tx,
                join: Some(join),
                design: design.to_owned(),
                kind,
            },
        );
        self.counters.opened.fetch_add(1, Ordering::Relaxed);
        Ok((id, outcome, content_hash))
    }

    /// The `(design, engine)` pair of a live session.
    pub fn describe(&self, id: &str) -> Option<(String, EngineKind)> {
        let table = self.sessions.lock().expect("session table");
        table.get(id).map(|s| (s.design.clone(), s.kind))
    }

    /// Sends `req` to session `id` and waits for the reply.
    pub fn request(&self, id: &str, req: Req) -> Resp {
        let closing = matches!(req, Req::Close);
        let tx = {
            let table = self.sessions.lock().expect("session table");
            match table.get(id) {
                Some(s) => s.tx.clone(),
                None => {
                    return Resp::Failed("unknown_session", format!("no session `{id}`"));
                }
            }
        };
        let (rtx, rrx) = mpsc::channel();
        let resp = if tx.send((req, rtx)).is_err() {
            Resp::Failed("session_dead", format!("session `{id}` worker is gone"))
        } else {
            rrx.recv().unwrap_or_else(|_| {
                Resp::Failed("session_dead", format!("session `{id}` worker is gone"))
            })
        };
        if closing {
            if let Some(mut s) = self.sessions.lock().expect("session table").remove(id) {
                drop(s.tx);
                if let Some(j) = s.join.take() {
                    let _ = j.join();
                }
                self.counters.closed.fetch_add(1, Ordering::Relaxed);
            }
        }
        resp
    }

    /// Closes every live session (used on server shutdown).
    pub fn close_all(&self) {
        let ids: Vec<String> = {
            let table = self.sessions.lock().expect("session table");
            table.keys().cloned().collect()
        };
        for id in ids {
            let _ = self.request(&id, Req::Close);
        }
    }
}

impl Drop for SessionMgr {
    fn drop(&mut self) {
        self.close_all();
    }
}

/// Namespaces a content hash by refinement level, so an RTL artefact
/// and the gate artefact synthesized from the same module get distinct
/// cache keys.
fn level_key(level: &str, content_hash: u64) -> u64 {
    let mut h = scflow_hwtypes::Fnv64::new();
    h.write_str(level);
    h.write_u64(content_hash);
    h.finish()
}

/// The worker: builds the borrowing engine on this thread's stack
/// (pinning `artifact`), then serves requests until close or hangup.
fn worker(
    kind: EngineKind,
    coverage: bool,
    module: Option<Module>,
    artifact: Option<Arc<Artifact>>,
    rx: mpsc::Receiver<ReqEnvelope>,
) {
    match kind {
        EngineKind::RtlInterp => {
            let module = module.expect("interpreter module");
            let mut sim = RtlSim::new(&module);
            serve_loop(&mut sim, coverage, &rx);
        }
        EngineKind::RtlCompiled => {
            let artifact = artifact.expect("rtl artifact");
            let prog = artifact.rtl().expect("rtl artifact");
            let mut sim = prog.simulator();
            serve_loop(&mut sim, coverage, &rx);
        }
        EngineKind::RtlBitpar => {
            let artifact = artifact.expect("rtl artifact");
            let prog = artifact.rtl().expect("rtl artifact");
            let mut sim = prog.bit_simulator();
            serve_loop(&mut sim, coverage, &rx);
        }
        EngineKind::GateEvent => {
            let artifact = artifact.expect("gate artifact");
            let prog = artifact.gate().expect("gate artifact");
            let lib = CellLibrary::generic_025u();
            let mut sim = GateSim::new(prog.netlist(), &lib);
            serve_loop(&mut sim, coverage, &rx);
        }
        EngineKind::GateBitpar => {
            let artifact = artifact.expect("gate artifact");
            let prog = artifact.gate().expect("gate artifact");
            let mut sim = prog.simulator_lanes(BATCH_LANES);
            serve_loop(&mut sim, coverage, &rx);
        }
    }
}

/// Puts a freshly built or just reset engine into the state a session
/// serves from. Synthesized netlists are scan-stitched; the scan chain
/// is held inactive so functional behaviour matches the RTL (the cosim
/// lockstep driver does the same before clocking a gate DUT). Coverage
/// collection starts here, after the tie-off.
fn prepare(sim: &mut dyn Simulation, coverage: bool) {
    if sim.has_input("scan_en") {
        let _ = sim.try_poke("scan_en", Bv::zero(1));
        let _ = sim.try_poke("scan_in", Bv::zero(1));
    }
    if sim.has_input("test_mode") {
        let _ = sim.try_poke("test_mode", Bv::zero(1));
    }
    if coverage {
        sim.set_coverage(true);
    }
}

fn serve_loop(sim: &mut dyn Simulation, coverage: bool, rx: &mpsc::Receiver<ReqEnvelope>) {
    prepare(sim, coverage);
    while let Ok((req, reply)) = rx.recv() {
        let closing = matches!(req, Req::Close);
        // The engines are all safe code, but a client must never be
        // able to take the whole server down: panics (e.g. a lane index
        // assert) become structured error replies.
        let resp = catch_unwind(AssertUnwindSafe(|| handle(sim, coverage, req)))
            .unwrap_or_else(|p| Resp::Failed("engine_panic", panic_message(&*p)));
        let _ = reply.send(resp);
        if closing {
            break;
        }
    }
}

fn handle(sim: &mut dyn Simulation, coverage: bool, req: Req) -> Resp {
    match req {
        Req::Poke(port, value) => match sim.try_poke(&port, value) {
            Ok(()) => Resp::Done,
            Err(e) => Resp::Sim(e),
        },
        Req::Peek(port) => match sim.try_peek(&port) {
            Ok(v) => Resp::Value(v),
            Err(e) => Resp::Sim(e),
        },
        Req::Step(n) => {
            sim.run_cycles(n);
            Resp::Cycles(sim.cycle())
        }
        Req::Settle => {
            sim.settle();
            Resp::Done
        }
        // Both batch shapes go through the redesigned `Simulation`
        // batch API: the portable sequential default (or an engine's
        // fused override) and the lane-parallel dispatch of the
        // bit-parallel engines. The trait's `BatchError` carries the
        // protocol code and wire message.
        Req::StepBatch { batch, lanes } => {
            let result = if lanes {
                sim.step_batch_lanes(&batch)
            } else {
                sim.step_batch(&batch)
            };
            match result {
                Ok(reply) => Resp::Batch {
                    outputs: reply.outputs,
                    cycles: reply.cycles,
                },
                Err(e) => Resp::Failed(e.code(), e.to_string()),
            }
        }
        Req::Snapshot => match sim.snapshot() {
            Some(snap) => Resp::Snapshot(snap),
            None => Resp::Failed(
                "snapshot_unsupported",
                "this engine does not support snapshots".to_owned(),
            ),
        },
        Req::Restore(snap) => {
            if sim.restore(&snap) {
                Resp::Done
            } else if sim.snapshot().is_none() {
                Resp::Failed(
                    "snapshot_unsupported",
                    "this engine does not support snapshots".to_owned(),
                )
            } else {
                Resp::Failed(
                    "stale_snapshot",
                    "snapshot does not match this session's engine and design".to_owned(),
                )
            }
        }
        Req::Coverage => match sim.coverage() {
            Some(c) => Resp::Coverage {
                covered_bits: c.covered_bits(),
                total_bits: c.total_bits(),
                flips: c.total_flips(),
                samples: c.samples(),
                summary: c.summary(),
                report: c.report(),
            },
            None => Resp::Failed(
                "coverage_disabled",
                "session was opened without coverage".to_owned(),
            ),
        },
        Req::Metrics => Resp::Metrics(sim.metrics()),
        Req::Reset => {
            if sim.reset() {
                // Reset returns the engine to power-on, inputs included;
                // a reset session must match a freshly opened one.
                prepare(sim, coverage);
                Resp::Done
            } else {
                Resp::Failed(
                    "unsupported_op",
                    "this engine does not support in-place reset".to_owned(),
                )
            }
        }
        Req::Close => Resp::Done,
    }
}
