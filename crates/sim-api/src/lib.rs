//! The unified simulation API of the flow.
//!
//! Every cycle-driven engine in the workspace — the interpreted RTL
//! simulator, the compiled levelized RTL engine, the event-driven gate
//! simulator, the compiled bit-parallel gate engine (in single-pattern
//! mode) and the
//! kernel-backed two-process model — implements one trait,
//! [`Simulation`], so testbench
//! harnesses, co-simulation bridges and benchmarks can drive any DUT
//! through one interface instead of one ad-hoc API per engine.
//!
//! The trait mirrors the contract the paper's flow relies on at every
//! refinement level: drive inputs ([`poke`](Simulation::poke)), settle
//! combinational logic ([`settle`](Simulation::settle)), observe outputs
//! ([`peek`](Simulation::peek)), advance the single implicit clock
//! ([`step`](Simulation::step)).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use scflow_hwtypes::Bv;
use std::error::Error;
use std::fmt;

pub use scflow_obs::{MetricsRegistry, ToggleCoverage};

/// A port-level access error raised by the fallible [`Simulation`]
/// accessors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// No port of this name exists on the design.
    UnknownPort(String),
    /// The port exists but is not an input.
    NotAnInput(String),
    /// The port exists but is not an output.
    NotAnOutput(String),
    /// The driven value's width differs from the port's width.
    WidthMismatch {
        /// Port name.
        port: String,
        /// Declared port width in bits.
        port_width: u32,
        /// Width of the offending value in bits.
        value_width: u32,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownPort(p) => write!(f, "no port named `{p}`"),
            SimError::NotAnInput(p) => write!(f, "port `{p}` is not an input"),
            SimError::NotAnOutput(p) => write!(f, "port `{p}` is not an output"),
            SimError::WidthMismatch {
                port,
                port_width,
                value_width,
            } => write!(
                f,
                "width mismatch on `{port}`: port is {port_width} bits, value is {value_width}"
            ),
        }
    }
}

impl Error for SimError {}

/// A pre-resolved port for hot testbench loops.
///
/// Name-based [`poke`](Simulation::poke)/[`peek`](Simulation::peek) pay a
/// string lookup on every call; a harness that accesses the same handful
/// of ports millions of times can resolve them once via
/// [`input_handle`](Simulation::input_handle) /
/// [`output_handle`](Simulation::output_handle) and then use
/// [`poke_handle`](Simulation::poke_handle) /
/// [`peek_handle`](Simulation::peek_handle). A handle is only meaningful
/// on the simulation instance that issued it; direction is validated at
/// resolution time. Engines without an indexed port table simply return
/// `None` from the resolvers and callers fall back to names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PortHandle(u32);

impl PortHandle {
    /// Wraps an engine-specific port index (for engines implementing the
    /// handle accessors).
    #[must_use]
    pub fn new(index: u32) -> Self {
        PortHandle(index)
    }

    /// The engine-specific port index this handle wraps.
    #[must_use]
    pub fn index(self) -> u32 {
        self.0
    }
}

/// Activity counters reported by [`Simulation::stats`].
///
/// Not every engine populates every field: the interpreter counts
/// expression-tree node visits as `evals`, the compiled engine counts
/// executed bytecode instructions as `evals` and gated-off cones as
/// `skipped`, the gate simulators count net `events` and gate `evals`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Clock cycles simulated.
    pub cycles: u64,
    /// Evaluation work performed (engine-specific unit).
    pub evals: u64,
    /// Evaluations avoided by activity gating (engine-specific unit).
    pub skipped: u64,
    /// Net value-change events (event-driven engines).
    pub events: u64,
}

impl EngineStats {
    /// Registers the counters under `prefix` (e.g. `rtl.compiled`) with
    /// the layer-wide names `cycles`/`evals`/`skipped`/`events`.
    pub fn register_into(&self, reg: &mut MetricsRegistry, prefix: &str) {
        reg.set_counter(&format!("{prefix}.cycles"), self.cycles);
        reg.set_counter(&format!("{prefix}.evals"), self.evals);
        reg.set_counter(&format!("{prefix}.skipped"), self.skipped);
        reg.set_counter(&format!("{prefix}.events"), self.events);
    }
}

/// An opaque engine-encoded state snapshot (see
/// [`Simulation::snapshot`]).
///
/// The payload is a versioned, length-prefixed byte blob only
/// meaningful to the engine kind (and compiled design) that produced
/// it — restoring onto a different engine, design or format version
/// fails cleanly instead of corrupting state. Engines build and parse
/// blobs through [`snapblob::SnapshotWriter`] /
/// [`snapblob::SnapshotReader`], which pin the common header layout.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    blob: Vec<u8>,
}

impl Snapshot {
    /// Wraps an engine-encoded state blob.
    #[must_use]
    pub fn from_blob(blob: Vec<u8>) -> Self {
        Snapshot { blob }
    }

    /// The engine-encoded state blob.
    #[must_use]
    pub fn blob(&self) -> &[u8] {
        &self.blob
    }
}

/// The common [`Snapshot`] blob encoding.
///
/// Every engine snapshot starts with the same header — magic, format
/// version, engine tag, a design-identity word — followed by
/// engine-chosen fields written through the typed helpers, and ends
/// with a checksum word over everything before it. All variable-length
/// fields are length-prefixed, so a truncated or mismatched blob is
/// detected (reads return `None`) rather than misinterpreted; the
/// checksum catches a changed byte that would still parse. Integers are
/// little-endian.
///
/// Two field codecs store lane-parallel state compactly. A *stripe*
/// field ([`SnapshotWriter::stripes`]) holds words in groups of one per
/// lane and writes a group whose words all agree once. A *plane* field
/// ([`SnapshotWriter::plane`]) holds words of one bit per lane and
/// writes a word whose bits all agree as one bit. Both sit behind
/// bitmaps, so lanes that have diverged still round-trip exactly; a
/// session warmed up with the same stimulus on every lane costs about
/// what a one-lane session does.
pub mod snapblob {
    use super::Snapshot;

    const MAGIC: &[u8; 4] = b"SCSN";

    /// Bytes of the trailing checksum word.
    const SUM_BYTES: usize = 8;

    /// The checksum word of `body`: a 64-bit FNV fold that takes one
    /// little-endian word per step (the tail zero-padded), seeded with
    /// the length. Each step is a bijection of the running state, so
    /// any single changed byte changes the result.
    fn fold(body: &[u8]) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let step = |h: u64, word: &[u8]| {
            let mut w = [0u8; 8];
            w[..word.len()].copy_from_slice(word);
            (h ^ u64::from_le_bytes(w)).wrapping_mul(PRIME)
        };
        let mut h = (OFFSET ^ body.len() as u64).wrapping_mul(PRIME);
        let mut words = body.chunks_exact(8);
        for w in &mut words {
            h = step(h, w);
        }
        if !words.remainder().is_empty() {
            h = step(h, words.remainder());
        }
        h
    }

    /// Replaces the trailing checksum word of `blob` with the checksum of
    /// the bytes before it. Corruption tests use this to hand the
    /// decoder a damaged blob that passes the checksum.
    #[must_use]
    pub fn reseal(blob: &[u8]) -> Snapshot {
        let body = &blob[..blob.len().saturating_sub(SUM_BYTES)];
        let mut out = body.to_vec();
        out.extend_from_slice(&fold(body).to_le_bytes());
        Snapshot::from_blob(out)
    }

    /// Sets bit `i` of the bitmap starting at `buf[at]`.
    fn set_bit(buf: &mut [u8], at: usize, i: usize) {
        buf[at + i / 8] |= 1 << (i % 8);
    }

    /// Bit `i` of `map`.
    fn bit(map: &[u8], i: usize) -> bool {
        map[i / 8] >> (i % 8) & 1 != 0
    }

    /// `true` if a bitmap of `n` bits has no bit set past the last one.
    fn padding_clear(map: &[u8], n: usize) -> bool {
        n.is_multiple_of(8) || map[n / 8] >> (n % 8) == 0
    }

    /// Serialises one snapshot: header first, then typed fields in the
    /// order the matching reader will consume them.
    pub struct SnapshotWriter {
        buf: Vec<u8>,
    }

    impl SnapshotWriter {
        /// Starts a blob for `engine` (the protocol engine tag), a
        /// format `version` the engine bumps on layout changes, and an
        /// `identity` word tying the blob to one compiled design (a
        /// content hash or equivalent structural fingerprint).
        #[must_use]
        pub fn new(engine: &str, version: u16, identity: u64) -> Self {
            let mut w = SnapshotWriter { buf: Vec::new() };
            w.buf.extend_from_slice(MAGIC);
            w.buf.extend_from_slice(&version.to_le_bytes());
            w.bytes(engine.as_bytes());
            w.u64(identity);
            w
        }

        /// Appends one u64.
        pub fn u64(&mut self, v: u64) {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }

        /// Appends a length-prefixed u64 slice.
        pub fn u64s(&mut self, vs: &[u64]) {
            self.u64(vs.len() as u64);
            for &v in vs {
                self.u64(v);
            }
        }

        /// Appends a length-prefixed byte string.
        pub fn bytes(&mut self, b: &[u8]) {
            self.buf.extend_from_slice(&(b.len() as u32).to_le_bytes());
            self.buf.extend_from_slice(b);
        }

        /// Appends `words` as stripes of `width` words, one per lane: the
        /// stripe count, a bitmap marking each stripe whose words all
        /// agree, then every stripe in order — a marked one as its one
        /// word, any other whole.
        ///
        /// # Panics
        ///
        /// Panics if `width` is 0 or does not divide `words.len()`.
        pub fn stripes(&mut self, words: &[u64], width: usize) {
            assert!(
                width > 0 && words.len().is_multiple_of(width),
                "{} words do not form stripes of {width}",
                words.len()
            );
            let n = words.len() / width;
            self.u64(n as u64);
            let map = self.buf.len();
            self.buf.resize(map + n.div_ceil(8), 0);
            for (i, stripe) in words.chunks_exact(width).enumerate() {
                if stripe.iter().all(|&w| w == stripe[0]) {
                    set_bit(&mut self.buf, map, i);
                    self.u64(stripe[0]);
                } else {
                    for &w in stripe {
                        self.u64(w);
                    }
                }
            }
        }

        /// Appends plane words, bit *l* of each belonging to lane *l*:
        /// the word count, a bitmap marking each word whose 64 bits
        /// agree, a bitmap holding a marked word's bit, then every
        /// unmarked word whole, in order.
        pub fn plane(&mut self, words: &[u64]) {
            let n = words.len();
            self.u64(n as u64);
            let uniform = self.buf.len();
            let ones = uniform + n.div_ceil(8);
            self.buf.resize(ones + n.div_ceil(8), 0);
            for (i, &w) in words.iter().enumerate() {
                if w == 0 || w == u64::MAX {
                    set_bit(&mut self.buf, uniform, i);
                    if w != 0 {
                        set_bit(&mut self.buf, ones, i);
                    }
                } else {
                    self.u64(w);
                }
            }
        }

        /// Finishes the blob: appends the checksum word.
        #[must_use]
        pub fn finish(mut self) -> Snapshot {
            let sum = fold(&self.buf);
            self.buf.extend_from_slice(&sum.to_le_bytes());
            Snapshot::from_blob(self.buf)
        }
    }

    /// Parses a snapshot written by [`SnapshotWriter`]. Construction
    /// validates the checksum and the header; every read returns `None`
    /// on truncation or on a length other than the caller expects, so
    /// engines can treat any `None` as "stale blob" and refuse the
    /// restore without having touched their state.
    pub struct SnapshotReader<'a> {
        rest: &'a [u8],
    }

    impl<'a> SnapshotReader<'a> {
        /// Opens `snap`: checks the checksum over the whole blob first,
        /// then magic, `version`, `engine` tag and design `identity`;
        /// `None` on any mismatch.
        #[must_use]
        pub fn open(snap: &'a Snapshot, engine: &str, version: u16, identity: u64) -> Option<Self> {
            let blob = snap.blob();
            let body_len = blob.len().checked_sub(SUM_BYTES)?;
            let (body, sum) = blob.split_at(body_len);
            let mut want = [0u8; SUM_BYTES];
            want.copy_from_slice(sum);
            if fold(body) != u64::from_le_bytes(want) {
                return None;
            }
            let mut r = SnapshotReader {
                rest: body.strip_prefix(MAGIC.as_slice())?,
            };
            let mut ver = [0u8; 2];
            ver.copy_from_slice(r.take(2)?);
            if u16::from_le_bytes(ver) != version {
                return None;
            }
            if r.bytes()? != engine.as_bytes() {
                return None;
            }
            if r.u64()? != identity {
                return None;
            }
            Some(r)
        }

        fn take(&mut self, n: usize) -> Option<&'a [u8]> {
            if self.rest.len() < n {
                return None;
            }
            let (head, tail) = self.rest.split_at(n);
            self.rest = tail;
            Some(head)
        }

        /// Reads one u64.
        #[must_use]
        pub fn u64(&mut self) -> Option<u64> {
            let mut b = [0u8; 8];
            b.copy_from_slice(self.take(8)?);
            Some(u64::from_le_bytes(b))
        }

        /// Reads a length-prefixed u64 slice that must hold exactly
        /// `len` words (the reader's own count, checked before anything
        /// is allocated); `None` on any other length.
        #[must_use]
        pub fn u64s(&mut self, len: usize) -> Option<Vec<u64>> {
            if self.u64()? != len as u64 || self.rest.len() / 8 < len {
                return None;
            }
            let mut out = Vec::with_capacity(len);
            for _ in 0..len {
                out.push(self.u64()?);
            }
            Some(out)
        }

        /// Reads a length-prefixed byte string.
        #[must_use]
        pub fn bytes(&mut self) -> Option<&'a [u8]> {
            let mut len = [0u8; 4];
            len.copy_from_slice(self.take(4)?);
            self.take(u32::from_le_bytes(len) as usize)
        }

        /// Reads a [`stripes`](SnapshotWriter::stripes) field that must
        /// hold exactly `count` stripes of `width` words. The stored
        /// count, the bitmap and the bytes the bitmap promises are all
        /// checked before the result is allocated.
        #[must_use]
        pub fn stripes(&mut self, count: usize, width: usize) -> Option<Vec<u64>> {
            if width == 0 || self.u64()? != count as u64 {
                return None;
            }
            let map = self.take(count.div_ceil(8))?;
            if !padding_clear(map, count) {
                return None;
            }
            let uniform: usize = map.iter().map(|b| b.count_ones() as usize).sum();
            let stored = (count - uniform).checked_mul(width)?.checked_add(uniform)?;
            let total = count.checked_mul(width)?;
            if self.rest.len() / 8 < stored {
                return None;
            }
            let mut out = Vec::with_capacity(total);
            for i in 0..count {
                if bit(map, i) {
                    let w = self.u64()?;
                    out.resize(out.len() + width, w);
                } else {
                    for _ in 0..width {
                        out.push(self.u64()?);
                    }
                }
            }
            Some(out)
        }

        /// Reads a [`plane`](SnapshotWriter::plane) field that must hold
        /// exactly `count` words, checked as for
        /// [`stripes`](SnapshotReader::stripes). A set bit for a word
        /// not marked uniform is malformed.
        #[must_use]
        pub fn plane(&mut self, count: usize) -> Option<Vec<u64>> {
            if self.u64()? != count as u64 {
                return None;
            }
            let uniform = self.take(count.div_ceil(8))?;
            let ones = self.take(count.div_ceil(8))?;
            if !padding_clear(uniform, count)
                || uniform.iter().zip(ones).any(|(&u, &o)| o & !u != 0)
            {
                return None;
            }
            let marked: usize = uniform.iter().map(|b| b.count_ones() as usize).sum();
            if self.rest.len() / 8 < count - marked {
                return None;
            }
            let mut out = Vec::with_capacity(count);
            for i in 0..count {
                out.push(if !bit(uniform, i) {
                    self.u64()?
                } else if bit(ones, i) {
                    u64::MAX
                } else {
                    0
                });
            }
            Some(out)
        }

        /// `true` once the whole blob has been consumed — engines check
        /// this last so a trailing-garbage blob is refused too.
        #[must_use]
        pub fn done(&self) -> bool {
            self.rest.is_empty()
        }
    }
}

/// One `(poke-set, cycles)` stimulus tuple of a [`StimulusBatch`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StimulusItem {
    /// Input pokes applied before stepping.
    pub pokes: Vec<(String, Bv)>,
    /// Clock cycles to run after the pokes.
    pub cycles: u64,
}

/// A batch of stimulus tuples dispatched through
/// [`Simulation::step_batch`] /
/// [`Simulation::step_batch_lanes`] in one engine pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StimulusBatch {
    /// The stimulus tuples, in dispatch order.
    pub items: Vec<StimulusItem>,
    /// Output ports read after each item.
    pub read: Vec<String>,
}

/// Per-item output reads of a batch, plus the engine's total completed
/// cycle count after it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchReply {
    /// `outputs[i]` are item *i*'s `(port, value)` reads, in the order
    /// of the batch's `read` list.
    pub outputs: Vec<Vec<(String, Bv)>>,
    /// Total completed cycles after the batch.
    pub cycles: u64,
}

/// Why a batch dispatch was refused. Each variant maps onto one
/// protocol error code in the simulation service; [`fmt::Display`]
/// renders the wire message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatchError {
    /// One item's poke or output read failed. `index` names the item
    /// for per-item failures; a bad port in the batch-wide read list
    /// reports without one.
    Item {
        /// Index of the offending item, if the failure is per-item.
        index: Option<usize>,
        /// The port-level failure, already rendered.
        message: String,
    },
    /// Lanes mode on an engine without lane-parallel stimulus.
    LanesUnsupported,
    /// More items than the engine has lanes.
    LanesOverflow {
        /// Items in the batch.
        items: usize,
        /// Lanes the engine was built with.
        lanes: u32,
    },
    /// Differing per-item cycle counts in lanes mode (all lanes share
    /// one clock).
    LanesMismatch,
}

impl BatchError {
    /// Wraps a [`SimError`] raised by item `index`.
    #[must_use]
    pub fn item(index: usize, error: &SimError) -> Self {
        BatchError::Item {
            index: Some(index),
            message: error.to_string(),
        }
    }

    /// The simulation service's stable error code for this failure.
    #[must_use]
    pub fn code(&self) -> &'static str {
        match self {
            BatchError::Item { .. } => "bad_batch_item",
            BatchError::LanesUnsupported => "lanes_unsupported",
            BatchError::LanesOverflow { .. } => "lanes_overflow",
            BatchError::LanesMismatch => "lanes_mismatch",
        }
    }
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchError::Item {
                index: Some(i),
                message,
            } => write!(f, "item {i}: {message}"),
            BatchError::Item {
                index: None,
                message,
            } => write!(f, "{message}"),
            BatchError::LanesUnsupported => write!(
                f,
                "lanes mode needs a lane-parallel session (gate.bitpar or rtl.bitpar)"
            ),
            BatchError::LanesOverflow { items, lanes } => {
                write!(f, "{items} items exceed {lanes} lanes")
            }
            BatchError::LanesMismatch => {
                write!(
                    f,
                    "lanes mode requires every item to run the same cycle count"
                )
            }
        }
    }
}

impl Error for BatchError {}

/// A cycle-driven simulation of a single-clock design.
///
/// Usage pattern per clock cycle:
///
/// 1. [`poke`](Simulation::poke) each input,
/// 2. [`settle`](Simulation::settle) to propagate combinational logic,
/// 3. [`peek`](Simulation::peek) mid-cycle observations,
/// 4. [`step`](Simulation::step) to advance one clock edge.
///
/// [`run_cycles`](Simulation::run_cycles) advances the clock with inputs
/// held. The fallible accessors ([`try_poke`](Simulation::try_poke),
/// [`try_peek`](Simulation::try_peek)) report bad port names or widths as
/// [`SimError`] instead of panicking; the infallible wrappers keep the
/// terse testbench style.
pub trait Simulation {
    /// Advances one clock cycle (settle, sample state, commit, settle).
    fn step(&mut self);

    /// Propagates combinational logic without advancing the clock.
    fn settle(&mut self);

    /// The number of completed clock cycles.
    fn cycle(&self) -> u64;

    /// Drives an input port.
    ///
    /// # Errors
    ///
    /// [`SimError`] on unknown ports, non-inputs, or width mismatches.
    fn try_poke(&mut self, port: &str, value: Bv) -> Result<(), SimError>;

    /// Reads an output port (engines with unknown-value logic read
    /// unknown bits as zero, matching the flow's testbench convention).
    ///
    /// # Errors
    ///
    /// [`SimError`] on unknown ports or non-outputs.
    fn try_peek(&self, port: &str) -> Result<Bv, SimError>;

    /// `true` if the design declares an input port of this name.
    fn has_input(&self, port: &str) -> bool;

    /// Activity counters for the run so far.
    fn stats(&self) -> EngineStats {
        EngineStats::default()
    }

    /// Turns cycle-boundary toggle-coverage collection on or off, if
    /// the engine supports it. Returns `true` when the request took
    /// effect; the default engine supports nothing and returns `false`.
    ///
    /// With collection off (the default) the engines pay one branch per
    /// clock cycle for this feature — see the scflow-obs overhead
    /// contract.
    fn set_coverage(&mut self, _enabled: bool) -> bool {
        false
    }

    /// The toggle-coverage collector, if collection was enabled via
    /// [`set_coverage`](Simulation::set_coverage).
    fn coverage(&self) -> Option<&ToggleCoverage> {
        None
    }

    /// A metrics snapshot for the run so far — engine counters under
    /// stable dot-separated names, plus coverage aggregates when
    /// collection is enabled. `None` for engines without metrics
    /// support. Building the snapshot walks counters the engine keeps
    /// anyway, so calling this costs nothing on the simulation path.
    fn metrics(&self) -> Option<MetricsRegistry> {
        None
    }

    /// Adds a port to the engine's waveform watch list, if it supports
    /// tracing (no-op otherwise).
    fn watch(&mut self, _port: &str) {}

    /// Renders the watched ports' history as a VCD document, if the
    /// engine supports tracing (`None` otherwise). `clock_period_ps`
    /// maps one clock cycle onto the VCD timescale.
    fn trace(&self, _clock_period_ps: u64) -> Option<String> {
        None
    }

    /// Resolves an input port name to a [`PortHandle`] for
    /// [`poke_handle`](Simulation::poke_handle). Engines without an
    /// indexed port table keep the default and return `None`; callers
    /// must then fall back to name-based access.
    fn input_handle(&self, _port: &str) -> Option<PortHandle> {
        None
    }

    /// Resolves an output port name to a [`PortHandle`] for
    /// [`peek_handle`](Simulation::peek_handle) (`None` as above).
    fn output_handle(&self, _port: &str) -> Option<PortHandle> {
        None
    }

    /// Drives an input port through a handle from
    /// [`input_handle`](Simulation::input_handle). Engines overriding the
    /// resolvers must override this too; with the default resolvers no
    /// handle can exist, so the default body is unreachable.
    ///
    /// # Panics
    ///
    /// Panics on a width mismatch, like [`poke`](Simulation::poke).
    fn poke_handle(&mut self, _handle: PortHandle, _value: Bv) {
        unreachable!("poke_handle on an engine that issues no handles");
    }

    /// Reads an output port through a handle from
    /// [`output_handle`](Simulation::output_handle) (see
    /// [`poke_handle`](Simulation::poke_handle) on overriding).
    fn peek_handle(&self, _handle: PortHandle) -> Bv {
        unreachable!("peek_handle on an engine that issues no handles");
    }

    /// Runs `n` clock cycles with the current inputs.
    fn run_cycles(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Drives an input port.
    ///
    /// # Panics
    ///
    /// Panics on unknown ports, non-inputs, or width mismatches; use
    /// [`try_poke`](Simulation::try_poke) to handle these as errors.
    fn poke(&mut self, port: &str, value: Bv) {
        if let Err(e) = self.try_poke(port, value) {
            panic!("{e}");
        }
    }

    /// Reads an output port.
    ///
    /// # Panics
    ///
    /// Panics on unknown ports or non-outputs; use
    /// [`try_peek`](Simulation::try_peek) to handle these as errors.
    fn peek(&self, port: &str) -> Bv {
        match self.try_peek(port) {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }

    /// Returns the engine to its power-on state without rebuilding its
    /// compiled structures, if the engine supports in-place reuse.
    /// Returns `true` when the reset took effect; the default supports
    /// nothing and returns `false`. Engines that support coverage must
    /// also clear and re-prime the coverage collector here, so a
    /// recycled instance never leaks a prior run's map.
    fn reset(&mut self) -> bool {
        false
    }

    /// Captures the engine's full simulation state as an opaque
    /// [`Snapshot`], if the engine supports it. The default supports
    /// nothing and returns `None`. The compiled RTL engines and the
    /// bit-parallel gate engine implement it; the fork-style sweep
    /// helpers (warm up once, snapshot, restore per scenario) and the
    /// simulation service's `snapshot`/`restore` requests build on it.
    fn snapshot(&self) -> Option<Snapshot> {
        None
    }

    /// Restores state captured by [`snapshot`](Simulation::snapshot) on
    /// this engine (or an identically-configured twin). Returns `true`
    /// when the restore took effect; `false` either because the engine
    /// does not implement snapshots or because the blob is stale —
    /// produced by a different engine, design or format version. A
    /// failed restore leaves the engine's state untouched.
    fn restore(&mut self, _snapshot: &Snapshot) -> bool {
        false
    }

    /// Dispatches a batch of stimulus tuples sequentially: each item's
    /// pokes are applied, its cycle count run, and the batch's read
    /// list peeked, before the next item starts. Every engine inherits
    /// this default — it is exactly a fused loop of
    /// [`try_poke`](Simulation::try_poke) /
    /// [`run_cycles`](Simulation::run_cycles) /
    /// [`try_peek`](Simulation::try_peek), amortising dispatch overhead
    /// (one call instead of `items × (pokes + 1)`) without changing
    /// semantics.
    ///
    /// # Errors
    ///
    /// [`BatchError::Item`] on the first failing poke or read; items
    /// before the failing one have already executed (the failing item's
    /// earlier pokes may also have landed), exactly like issuing the
    /// calls by hand.
    fn step_batch(&mut self, batch: &StimulusBatch) -> Result<BatchReply, BatchError> {
        let mut outputs = Vec::with_capacity(batch.items.len());
        for (i, item) in batch.items.iter().enumerate() {
            for (port, value) in &item.pokes {
                self.try_poke(port, *value)
                    .map_err(|e| BatchError::item(i, &e))?;
            }
            self.run_cycles(item.cycles);
            let mut reads = Vec::with_capacity(batch.read.len());
            for port in &batch.read {
                let v = self.try_peek(port).map_err(|e| BatchError::item(i, &e))?;
                reads.push((port.clone(), v));
            }
            outputs.push(reads);
        }
        Ok(BatchReply {
            outputs,
            cycles: self.cycle(),
        })
    }

    /// Dispatches a batch lane-parallel: item *i*'s pokes drive
    /// stimulus lane *i*, the engine runs the (shared) cycle count
    /// once, and item *i*'s outputs are read back from lane *i* — up to
    /// the engine's lane count of independent scenarios per pass. Only
    /// lane-parallel engines override this; the default refuses with
    /// [`BatchError::LanesUnsupported`].
    ///
    /// Overrides validate the whole batch *before* touching any lane,
    /// so a refused batch leaves the engine untouched instead of
    /// half-poked. Output bits unknown in four-valued engines read as
    /// zero, matching [`try_peek`](Simulation::try_peek).
    ///
    /// # Errors
    ///
    /// [`BatchError`] on unknown/mis-sized ports, more items than
    /// lanes, or differing per-item cycle counts.
    fn step_batch_lanes(&mut self, _batch: &StimulusBatch) -> Result<BatchReply, BatchError> {
        Err(BatchError::LanesUnsupported)
    }
}

/// A heap-allocated engine behind the [`Simulation`] vtable, sendable
/// to a worker thread — the form the simulation service's session
/// manager holds its per-session engines in. The lifetime covers
/// whatever compiled program or netlist the engine borrows.
pub type BoxedSimulation<'p> = Box<dyn Simulation + Send + 'p>;

impl<S: Simulation + ?Sized> Simulation for &mut S {
    fn step(&mut self) {
        (**self).step();
    }
    fn settle(&mut self) {
        (**self).settle();
    }
    fn cycle(&self) -> u64 {
        (**self).cycle()
    }
    fn try_poke(&mut self, port: &str, value: Bv) -> Result<(), SimError> {
        (**self).try_poke(port, value)
    }
    fn try_peek(&self, port: &str) -> Result<Bv, SimError> {
        (**self).try_peek(port)
    }
    fn has_input(&self, port: &str) -> bool {
        (**self).has_input(port)
    }
    fn input_handle(&self, port: &str) -> Option<PortHandle> {
        (**self).input_handle(port)
    }
    fn output_handle(&self, port: &str) -> Option<PortHandle> {
        (**self).output_handle(port)
    }
    fn poke_handle(&mut self, handle: PortHandle, value: Bv) {
        (**self).poke_handle(handle, value);
    }
    fn peek_handle(&self, handle: PortHandle) -> Bv {
        (**self).peek_handle(handle)
    }
    fn stats(&self) -> EngineStats {
        (**self).stats()
    }
    fn watch(&mut self, port: &str) {
        (**self).watch(port);
    }
    fn trace(&self, clock_period_ps: u64) -> Option<String> {
        (**self).trace(clock_period_ps)
    }
    fn set_coverage(&mut self, enabled: bool) -> bool {
        (**self).set_coverage(enabled)
    }
    fn coverage(&self) -> Option<&ToggleCoverage> {
        (**self).coverage()
    }
    fn metrics(&self) -> Option<MetricsRegistry> {
        (**self).metrics()
    }
    fn reset(&mut self) -> bool {
        (**self).reset()
    }
    fn snapshot(&self) -> Option<Snapshot> {
        (**self).snapshot()
    }
    fn restore(&mut self, snapshot: &Snapshot) -> bool {
        (**self).restore(snapshot)
    }
    fn step_batch(&mut self, batch: &StimulusBatch) -> Result<BatchReply, BatchError> {
        (**self).step_batch(batch)
    }
    fn step_batch_lanes(&mut self, batch: &StimulusBatch) -> Result<BatchReply, BatchError> {
        (**self).step_batch_lanes(batch)
    }
}

impl<S: Simulation + ?Sized> Simulation for Box<S> {
    fn step(&mut self) {
        (**self).step();
    }
    fn settle(&mut self) {
        (**self).settle();
    }
    fn cycle(&self) -> u64 {
        (**self).cycle()
    }
    fn try_poke(&mut self, port: &str, value: Bv) -> Result<(), SimError> {
        (**self).try_poke(port, value)
    }
    fn try_peek(&self, port: &str) -> Result<Bv, SimError> {
        (**self).try_peek(port)
    }
    fn has_input(&self, port: &str) -> bool {
        (**self).has_input(port)
    }
    fn input_handle(&self, port: &str) -> Option<PortHandle> {
        (**self).input_handle(port)
    }
    fn output_handle(&self, port: &str) -> Option<PortHandle> {
        (**self).output_handle(port)
    }
    fn poke_handle(&mut self, handle: PortHandle, value: Bv) {
        (**self).poke_handle(handle, value);
    }
    fn peek_handle(&self, handle: PortHandle) -> Bv {
        (**self).peek_handle(handle)
    }
    fn stats(&self) -> EngineStats {
        (**self).stats()
    }
    fn watch(&mut self, port: &str) {
        (**self).watch(port);
    }
    fn trace(&self, clock_period_ps: u64) -> Option<String> {
        (**self).trace(clock_period_ps)
    }
    fn set_coverage(&mut self, enabled: bool) -> bool {
        (**self).set_coverage(enabled)
    }
    fn coverage(&self) -> Option<&ToggleCoverage> {
        (**self).coverage()
    }
    fn metrics(&self) -> Option<MetricsRegistry> {
        (**self).metrics()
    }
    fn reset(&mut self) -> bool {
        (**self).reset()
    }
    fn snapshot(&self) -> Option<Snapshot> {
        (**self).snapshot()
    }
    fn restore(&mut self, snapshot: &Snapshot) -> bool {
        (**self).restore(snapshot)
    }
    fn step_batch(&mut self, batch: &StimulusBatch) -> Result<BatchReply, BatchError> {
        (**self).step_batch(batch)
    }
    fn step_batch_lanes(&mut self, batch: &StimulusBatch) -> Result<BatchReply, BatchError> {
        (**self).step_batch_lanes(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Toy {
        cycles: u64,
        value: Bv,
    }

    impl Simulation for Toy {
        fn step(&mut self) {
            self.cycles += 1;
            self.value = self.value.add(Bv::new(1, 8));
        }
        fn settle(&mut self) {}
        fn cycle(&self) -> u64 {
            self.cycles
        }
        fn try_poke(&mut self, port: &str, value: Bv) -> Result<(), SimError> {
            match port {
                "d" if value.width() == 8 => {
                    self.value = value;
                    Ok(())
                }
                "d" => Err(SimError::WidthMismatch {
                    port: port.into(),
                    port_width: 8,
                    value_width: value.width(),
                }),
                _ => Err(SimError::UnknownPort(port.into())),
            }
        }
        fn try_peek(&self, port: &str) -> Result<Bv, SimError> {
            match port {
                "q" => Ok(self.value),
                _ => Err(SimError::UnknownPort(port.into())),
            }
        }
        fn has_input(&self, port: &str) -> bool {
            port == "d"
        }
    }

    #[test]
    fn defaults_drive_the_toy() {
        let mut t = Toy {
            cycles: 0,
            value: Bv::zero(8),
        };
        t.poke("d", Bv::new(5, 8));
        t.run_cycles(3);
        assert_eq!(t.peek("q").as_u64(), 8);
        assert_eq!(t.cycle(), 3);
        assert!(t.has_input("d"));
        assert_eq!(t.stats(), EngineStats::default());
        assert_eq!(t.trace(40_000), None);
        // An engine without an indexed port table issues no handles.
        assert_eq!(t.input_handle("d"), None);
        assert_eq!(t.output_handle("q"), None);
        assert_eq!(PortHandle::new(3).index(), 3);
    }

    #[test]
    fn errors_render() {
        let mut t = Toy {
            cycles: 0,
            value: Bv::zero(8),
        };
        let e = t.try_poke("nope", Bv::bit(false)).unwrap_err();
        assert_eq!(e.to_string(), "no port named `nope`");
        let e = t.try_poke("d", Bv::bit(false)).unwrap_err();
        assert!(e.to_string().contains("width mismatch"));
    }

    #[test]
    fn boxed_forwards() {
        let t = Toy {
            cycles: 0,
            value: Bv::zero(8),
        };
        let mut b: BoxedSimulation<'static> = Box::new(t);
        b.poke("d", Bv::new(1, 8));
        b.step();
        assert_eq!(b.cycle(), 1);
        assert_eq!(b.peek("q").as_u64(), 2);
        // The toy engine opts out of snapshots: the defaults refuse.
        assert_eq!(b.snapshot(), None);
        assert!(!b.restore(&Snapshot::from_blob(vec![1, 2])));
        assert_eq!(Snapshot::from_blob(vec![1, 2]).blob(), &[1, 2]);
        // Batch dispatch forwards through the box too.
        let batch = StimulusBatch {
            items: vec![StimulusItem {
                pokes: vec![("d".into(), Bv::new(7, 8))],
                cycles: 2,
            }],
            read: vec!["q".into()],
        };
        let reply = b.step_batch(&batch).expect("sequential batch");
        assert_eq!(reply.outputs, vec![vec![("q".to_owned(), Bv::new(9, 8))]]);
        assert_eq!(reply.cycles, 3);
        assert_eq!(
            b.step_batch_lanes(&batch),
            Err(BatchError::LanesUnsupported)
        );
    }

    #[test]
    fn mut_ref_forwards() {
        let mut t = Toy {
            cycles: 0,
            value: Bv::zero(8),
        };
        let r: &mut dyn Simulation = &mut t;
        r.step();
        assert_eq!(r.cycle(), 1);
    }

    #[test]
    fn sequential_batch_reports_failing_item() {
        let mut t = Toy {
            cycles: 0,
            value: Bv::zero(8),
        };
        let batch = StimulusBatch {
            items: vec![
                StimulusItem {
                    pokes: vec![("d".into(), Bv::new(1, 8))],
                    cycles: 1,
                },
                StimulusItem {
                    pokes: vec![("nope".into(), Bv::bit(false))],
                    cycles: 1,
                },
            ],
            read: vec![],
        };
        let err = t.step_batch(&batch).unwrap_err();
        assert_eq!(err.code(), "bad_batch_item");
        assert_eq!(err.to_string(), "item 1: no port named `nope`");
        // Item 0 executed before item 1 refused, like hand-issued calls.
        assert_eq!(t.cycle(), 1);
    }

    #[test]
    fn batch_errors_render_wire_messages() {
        assert_eq!(
            BatchError::LanesUnsupported.to_string(),
            "lanes mode needs a lane-parallel session (gate.bitpar or rtl.bitpar)"
        );
        assert_eq!(
            BatchError::LanesOverflow {
                items: 65,
                lanes: 64
            }
            .to_string(),
            "65 items exceed 64 lanes"
        );
        assert_eq!(
            BatchError::LanesMismatch.to_string(),
            "lanes mode requires every item to run the same cycle count"
        );
        assert_eq!(BatchError::LanesMismatch.code(), "lanes_mismatch");
        assert_eq!(
            BatchError::Item {
                index: None,
                message: "no output port `x`".into()
            }
            .to_string(),
            "no output port `x`"
        );
    }

    #[test]
    fn snapblob_round_trips_and_refuses_stale() {
        let mut w = snapblob::SnapshotWriter::new("toy", 3, 0xFEED);
        w.u64(42);
        w.u64s(&[1, 2, 3]);
        w.bytes(b"tail");
        let snap = w.finish();

        let mut r = snapblob::SnapshotReader::open(&snap, "toy", 3, 0xFEED).expect("header");
        assert_eq!(r.u64(), Some(42));
        assert_eq!(r.u64s(3).as_deref(), Some(&[1, 2, 3][..]));
        assert_eq!(r.bytes(), Some(&b"tail"[..]));
        assert!(r.done());

        // Wrong engine, version or identity: refused at open.
        assert!(snapblob::SnapshotReader::open(&snap, "other", 3, 0xFEED).is_none());
        assert!(snapblob::SnapshotReader::open(&snap, "toy", 4, 0xFEED).is_none());
        assert!(snapblob::SnapshotReader::open(&snap, "toy", 3, 0xBEEF).is_none());

        // A truncated blob fails its checksum at open. Re-sealed, the
        // typed reads refuse instead of panicking.
        let cut = &snap.blob()[..snap.blob().len() - 2];
        assert!(snapblob::SnapshotReader::open(
            &Snapshot::from_blob(cut.to_vec()),
            "toy",
            3,
            0xFEED
        )
        .is_none());
        let cut = snapblob::reseal(cut);
        let mut r = snapblob::SnapshotReader::open(&cut, "toy", 3, 0xFEED).expect("header");
        assert_eq!(r.u64(), Some(42));
        assert_eq!(r.u64s(3).as_deref(), Some(&[1, 2, 3][..]));
        assert_eq!(r.bytes(), None);

        // A length prefix other than the reader's own count, or one
        // promising more words than bytes remain.
        let mut w = snapblob::SnapshotWriter::new("toy", 1, 0);
        w.u64s(&[1, 2]);
        let short = w.finish();
        let mut r = snapblob::SnapshotReader::open(&short, "toy", 1, 0).expect("header");
        assert_eq!(r.u64s(3), None);
        let mut w = snapblob::SnapshotWriter::new("toy", 1, 0);
        w.u64(u64::MAX);
        let bad = w.finish();
        let mut r = snapblob::SnapshotReader::open(&bad, "toy", 1, 0).expect("header");
        assert_eq!(r.u64s(usize::MAX), None);
    }

    #[test]
    fn checksum_refuses_every_single_byte_flip() {
        let mut w = snapblob::SnapshotWriter::new("toy", 2, 7);
        w.u64s(&[3, 1, 4, 1, 5]);
        w.bytes(b"odd");
        let snap = w.finish();
        assert!(snapblob::SnapshotReader::open(&snap, "toy", 2, 7).is_some());
        for i in 0..snap.blob().len() {
            for flip in [1u8, 0x80, 0xff] {
                let mut bad = snap.blob().to_vec();
                bad[i] ^= flip;
                let bad = Snapshot::from_blob(bad);
                assert!(
                    snapblob::SnapshotReader::open(&bad, "toy", 2, 7).is_none(),
                    "byte {i} ^ {flip:#x} accepted"
                );
            }
        }
        // Re-sealing a blob leaves it as it was.
        assert_eq!(snapblob::reseal(snap.blob()), snap);
    }

    /// Words of `n` stripes of `width`, where stripe `i` is uniform iff
    /// `uniform(i)`.
    fn striped(n: usize, width: usize, uniform: impl Fn(usize) -> bool) -> Vec<u64> {
        let mut out = Vec::new();
        for i in 0..n {
            for l in 0..width {
                let v = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                out.push(if uniform(i) { v } else { v ^ (l as u64 + 1) });
            }
        }
        out
    }

    #[test]
    fn stripes_round_trip_at_every_width_and_mix() {
        for width in [1usize, 7, 64] {
            for (mix, uniform) in [
                ("all", &(|_| true) as &dyn Fn(usize) -> bool),
                ("none", &|_| false),
                ("some", &|i| i % 3 == 0),
            ] {
                let n = 13;
                let words = striped(n, width, uniform);
                let mut w = snapblob::SnapshotWriter::new("toy", 1, 0);
                w.stripes(&words, width);
                w.u64(99);
                let snap = w.finish();
                let mut r = snapblob::SnapshotReader::open(&snap, "toy", 1, 0).expect("header");
                assert_eq!(
                    r.stripes(n, width).as_ref(),
                    Some(&words),
                    "width {width}, {mix} uniform"
                );
                assert_eq!(r.u64(), Some(99));
                assert!(r.done());
                // A uniform stripe costs one word, whatever its width.
                let stored = (0..n)
                    .map(|i| if width == 1 || uniform(i) { 1 } else { width })
                    .sum::<usize>();
                let header = snapblob::SnapshotWriter::new("toy", 1, 0).finish();
                let field = 8 + n.div_ceil(8) + 8 * stored;
                assert_eq!(snap.blob().len(), header.blob().len() + field + 8);
                // The wrong count or width is refused, never misread.
                let mut r = snapblob::SnapshotReader::open(&snap, "toy", 1, 0).expect("header");
                assert_eq!(r.stripes(n + 1, width), None);
                let mut r = snapblob::SnapshotReader::open(&snap, "toy", 1, 0).expect("header");
                assert_eq!(r.stripes(n, 0), None);
            }
        }
    }

    #[test]
    fn planes_round_trip_with_every_mix() {
        let mixed = |i: usize| (i as u64 + 1).wrapping_mul(0x0123_4567_89AB_CDEF) | 2;
        for (mix, words) in [
            (
                "all",
                (0..70)
                    .map(|i| if i % 2 == 0 { 0 } else { u64::MAX })
                    .collect::<Vec<u64>>(),
            ),
            ("none", (0..70).map(mixed).collect()),
            (
                "some",
                (0..70)
                    .map(|i| match i % 3 {
                        0 => 0,
                        1 => u64::MAX,
                        _ => mixed(i),
                    })
                    .collect(),
            ),
        ] {
            let mut w = snapblob::SnapshotWriter::new("toy", 1, 0);
            w.plane(&words);
            let snap = w.finish();
            let mut r = snapblob::SnapshotReader::open(&snap, "toy", 1, 0).expect("header");
            assert_eq!(r.plane(words.len()).as_ref(), Some(&words), "{mix}");
            assert!(r.done());
            let whole = words.iter().filter(|&&w| w != 0 && w != u64::MAX).count();
            let header = snapblob::SnapshotWriter::new("toy", 1, 0).finish();
            let field = 8 + 2 * words.len().div_ceil(8) + 8 * whole;
            assert_eq!(snap.blob().len(), header.blob().len() + field);
            let mut r = snapblob::SnapshotReader::open(&snap, "toy", 1, 0).expect("header");
            assert_eq!(r.plane(words.len() - 1), None);
        }
    }

    #[test]
    fn malformed_bitmaps_are_refused() {
        // A padding bit past the last stripe, and a one-bit on a plane
        // word not marked uniform, re-sealed so only the decoder sees
        // them.
        let mut w = snapblob::SnapshotWriter::new("toy", 1, 0);
        w.stripes(&[5, 5, 6, 6], 2);
        let snap = w.finish();
        let header = snapblob::SnapshotWriter::new("toy", 1, 0)
            .finish()
            .blob()
            .len()
            - 8;
        let mut bad = snap.blob().to_vec();
        bad[header + 8] |= 0x80;
        let bad = snapblob::reseal(&bad);
        let mut r = snapblob::SnapshotReader::open(&bad, "toy", 1, 0).expect("header");
        assert_eq!(r.stripes(2, 2), None);

        let mut w = snapblob::SnapshotWriter::new("toy", 1, 0);
        w.plane(&[0, 7]);
        let snap = w.finish();
        let mut bad = snap.blob().to_vec();
        bad[header + 9] |= 0b10;
        let bad = snapblob::reseal(&bad);
        let mut r = snapblob::SnapshotReader::open(&bad, "toy", 1, 0).expect("header");
        assert_eq!(r.plane(2), None);
    }
}
