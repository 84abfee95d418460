//! Executor for compiled RTL programs, generic over its lane count.
//!
//! [`RtlExec`] runs the bytecode produced by
//! [`CompiledProgram::compile`](crate::CompiledProgram::compile) over
//! `N` independent stimulus lanes at once. Every slot of the dense `u64`
//! value array is a contiguous `N`-word stripe, `stripe[l]` holding lane
//! *l*'s value. RAMs are laid out the same way, per word; a ROM (a
//! memory without a write port) is program data, read by every lane
//! from the program's one image. Two configurations are named:
//!
//! * [`CompiledSim`] (`N = 1`) — the "compiled C-model" side of the
//!   paper's Fig. 8 gap and a drop-in replacement for
//!   [`RtlSim`](crate::RtlSim): same per-cycle protocol, same port
//!   accessors, bit-identical values, violations and waveforms.
//! * [`BitRtlSim`] (`N = 64`) — one instruction dispatch drives 64
//!   scenarios, for sweeps. The RTL bytecode is two-valued *word*
//!   arithmetic, so the profitable transposition is lane-major stripes
//!   (an unknown plane would be permanently zero and is not kept).
//!
//! The instruction set is written out twice. The per-lane loop runs a
//! range once per lane (stride `N`) and is the only loop `N = 1` takes.
//! With more lanes, jump-free ranges — the vast majority — run
//! lane-parallel: one dispatch, a fixed `N`-element loop per operand,
//! which auto-vectorises. The mux-arm memory reads the compiler lowers
//! to branches can diverge between lanes, so ranges with jumps take the
//! per-lane loop (lane order `0..N`), keeping branch semantics
//! identical.
//!
//! Activity gating is event-driven and shared by all lanes: every value
//! change schedules exactly the dependent cones through the program's
//! precomputed fanout lists, so a settle pass touches only pending cones
//! — and a pass with nothing pending is a single branch. A cone
//! re-evaluates when *any* lane's fanin changed, a conservative superset
//! that recomputes identical values on quiet lanes. Address checking
//! ([`check_addresses`](RtlExec::check_addresses)) disables gating so
//! the out-of-range-access stream matches the interpreter's
//! re-evaluation behaviour exactly.
//!
//! The checking-memory violation stream, toggle coverage, waveform
//! history and VCD bytes are recorded for **lane 0 only**, so lane 0 of
//! every configuration is byte-identical to a [`CompiledSim`] run fed
//! lane 0's stimulus.

use crate::compile::{CompiledProgram, Cone, Inst};
use crate::module::{MemoryId, NetId};
use crate::sim::MemViolation;
use scflow_hwtypes::Bv;
use scflow_obs::ToggleCoverage;
use scflow_sim_api::snapblob::{SnapshotReader, SnapshotWriter};
use scflow_sim_api::Snapshot;
use std::ops::Range;

/// Stimulus lanes of [`BitRtlSim`].
pub const RTL_LANES: u32 = 64;

/// The one-lane executor: the compiled engine of the paper's Fig. 8.
pub type CompiledSim<'p> = RtlExec<'p, 1>;

/// The 64-lane executor for scenario sweeps; lane 0 is byte-identical
/// to [`CompiledSim`].
pub type BitRtlSim<'p> = RtlExec<'p, { RTL_LANES as usize }>;

/// Snapshot blob format version for this engine. Version 2 leaves ROMs
/// out and stores lane stripes through the stripe codec.
const SNAP_VERSION: u16 = 2;

/// Branchless low-`w`-bits mask. The compiler has already validated
/// every width as 1..=64, so unlike [`scflow_hwtypes::mask`] this needs
/// neither the assert nor the `w == 64` special case.
#[inline(always)]
fn mask(w: u32) -> u64 {
    u64::MAX >> (64 - w)
}

/// Sign-extends the low `w` bits (`w` in 1..=64, validated at compile
/// time) without the public helper's range assert.
#[inline(always)]
fn sign_extend(raw: u64, w: u32) -> i64 {
    let shift = 64 - w;
    ((raw << shift) as i64) >> shift
}

/// Loads slot `s`'s lane stripe into a register-friendly array.
#[inline(always)]
fn ld<const N: usize>(slots: &[u64], s: u32) -> [u64; N] {
    let mut o = [0u64; N];
    o.copy_from_slice(&slots[s as usize * N..s as usize * N + N]);
    o
}

/// Stores a lane stripe into slot `s`.
#[inline(always)]
fn st<const N: usize>(slots: &mut [u64], s: u32, v: &[u64; N]) {
    slots[s as usize * N..s as usize * N + N].copy_from_slice(v);
}

/// One write port's sampled edge inputs, all lanes. `en` is a lane
/// bitmask; `addr`/`data` are only meaningful on enabled lanes.
struct WriteSample<const N: usize> {
    en: u64,
    addr: [u64; N],
    data: [u64; N],
}

/// A compiled-RTL simulator instance over a [`CompiledProgram`], with
/// `N` stimulus lanes (1..=64).
///
/// Usage pattern per clock cycle matches [`RtlSim`](crate::RtlSim):
/// [`set_input`](RtlExec::set_input), [`tick`](RtlExec::tick),
/// [`output`](RtlExec::output); [`settle`](RtlExec::settle) for
/// combinational observation without advancing the clock. The plain
/// accessors drive all lanes and read lane 0; the `_lane` accessors
/// address one lane.
pub struct RtlExec<'p, const N: usize> {
    prog: &'p CompiledProgram,
    /// Lane-major stripes: slot `s`, lane `l` at `s * N + l`.
    slots: Vec<u64>,
    /// Per-memory lane-major words: address `a`, lane `l` at `a * N + l`.
    /// Empty for a ROM, which reads the program's image instead.
    mems: Vec<Vec<u64>>,
    /// Bitmask worklist of cones scheduled (via fanout) for the next
    /// settle pass; bit index = cone index.
    comb_pending: Vec<u64>,
    comb_any: bool,
    /// Some write port's fanin changed since the last clock edge (or the
    /// first edge has not happened yet); write sampling runs only then.
    write_pending: bool,
    force_eval: bool,
    cycle: u64,
    /// Lane 0's out-of-range accesses (see `check_addresses`).
    violations: Vec<MemViolation>,
    watched: Vec<u32>,
    history: Vec<(u64, Vec<Bv>)>,
    samples: Vec<WriteSample<N>>,
    evals: u64,
    skipped: u64,
    coverage: Option<Box<ToggleCoverage>>,
    /// Jump counts before each index of the combinational / sequential
    /// instruction arrays, so "does this range branch?" is two loads.
    /// Empty at `N = 1`, which always takes the per-lane loop.
    comb_jumps: Vec<u32>,
    seq_jumps: Vec<u32>,
    /// When `false` (the default, matching plain HDL simulation),
    /// out-of-range accesses wrap silently. Enabling this also disables
    /// activity gating, so lane 0's violation stream is identical to the
    /// interpreter's every-settle re-evaluation.
    pub check_addresses: bool,
}

/// Jump counts before each index of `insts`. Empty at `N = 1`, whose
/// only loop runs every range per lane anyway.
fn jump_prefix<const N: usize>(insts: &[Inst]) -> Vec<u32> {
    if N == 1 {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(insts.len() + 1);
    let mut n = 0u32;
    out.push(0);
    for inst in insts {
        if matches!(inst, Inst::Jmp { .. } | Inst::JmpZero { .. }) {
            n += 1;
        }
        out.push(n);
    }
    out
}

impl<'p, const N: usize> RtlExec<'p, N> {
    /// Engine name: the snapshot-blob tag and the metric prefix.
    pub(crate) const ENGINE: &'static str = if N == 1 { "rtl.compiled" } else { "rtl.bitpar" };

    /// Creates an executor with every lane at the power-on image:
    /// registers at their `init` values, inputs at zero and memories at
    /// their initial contents.
    pub fn new(prog: &'p CompiledProgram) -> Self {
        // Write enables are gathered into one `u64` lane mask.
        const { assert!(N >= 1 && N <= 64, "RtlExec runs 1..=64 lanes") };
        let mut sim = RtlExec {
            prog,
            slots: vec![0; prog.init.len() * N],
            mems: prog
                .mems
                .iter()
                .map(|m| vec![0; if m.rom { 0 } else { m.init.len() * N }])
                .collect(),
            comb_pending: vec![0; prog.cones.len().div_ceil(64)],
            comb_any: false,
            write_pending: true,
            force_eval: true,
            cycle: 0,
            violations: Vec::new(),
            watched: Vec::new(),
            history: Vec::new(),
            samples: prog
                .writes
                .iter()
                .map(|_| WriteSample {
                    en: 0,
                    addr: [0; N],
                    data: [0; N],
                })
                .collect(),
            evals: 0,
            skipped: 0,
            coverage: None,
            comb_jumps: jump_prefix::<N>(&prog.insts),
            seq_jumps: jump_prefix::<N>(&prog.seq_insts),
            check_addresses: false,
        };
        sim.load_power_on_image();
        sim.settle();
        sim
    }

    fn load_power_on_image(&mut self) {
        for (s, &v) in self.prog.init.iter().enumerate() {
            self.slots[s * N..s * N + N].fill(v);
        }
        for (words, m) in self.mems.iter_mut().zip(&self.prog.mems) {
            if !m.rom {
                for (a, &v) in m.init.iter().enumerate() {
                    words[a * N..a * N + N].fill(v);
                }
            }
        }
    }

    /// The program this executor runs.
    pub fn program(&self) -> &'p CompiledProgram {
        self.prog
    }

    /// Stimulus lanes (`N`).
    pub fn lanes(&self) -> u32 {
        N as u32
    }

    /// The number of completed clock cycles (shared by all lanes).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Bytecode dispatches executed so far (one lane-parallel dispatch
    /// covers all lanes; per-lane ranges count once per lane).
    pub fn instructions_executed(&self) -> u64 {
        self.evals
    }

    /// Combinational cones skipped by activity gating so far.
    pub fn cones_skipped(&self) -> u64 {
        self.skipped
    }

    pub(crate) fn port(&self, name: &str) -> Option<&crate::compile::CompiledPort> {
        // Modules have a handful of ports; a linear scan (length check
        // first, then bytes) beats hashing the name on every poke/peek.
        self.prog.ports.iter().find(|p| p.name == name)
    }

    /// Sets an input port's value on **all** lanes for subsequent
    /// evaluation.
    ///
    /// # Errors
    ///
    /// Fails on unknown ports, non-inputs, or width mismatches.
    pub fn try_set_input(&mut self, name: &str, value: Bv) -> Result<(), scflow_sim_api::SimError> {
        use scflow_sim_api::SimError;
        let port = self
            .port(name)
            .ok_or_else(|| SimError::UnknownPort(name.to_string()))?;
        if !port.input {
            return Err(SimError::NotAnInput(name.to_string()));
        }
        if port.width != value.width() {
            return Err(SimError::WidthMismatch {
                port: name.to_string(),
                port_width: port.width,
                value_width: value.width(),
            });
        }
        self.broadcast(port.slot, value.as_u64());
        Ok(())
    }

    /// Sets an input port's value on all lanes.
    ///
    /// # Panics
    ///
    /// Panics if no input port of that name exists or the width differs.
    pub fn set_input(&mut self, name: &str, value: Bv) {
        if let Err(e) = self.try_set_input(name, value) {
            panic!("{e}");
        }
    }

    /// Sets an input port on one lane (callers validate name and width
    /// first, e.g. through the batch API).
    ///
    /// # Panics
    ///
    /// Panics on unknown/non-input ports, width mismatches, or a lane
    /// out of range.
    pub fn set_input_lane(&mut self, name: &str, lane: u32, value: Bv) {
        let port = self
            .port(name)
            .unwrap_or_else(|| panic!("no port named `{name}`"));
        assert!(port.input, "port `{name}` is not an input");
        assert_eq!(port.width, value.width(), "width mismatch on `{name}`");
        assert!((lane as usize) < N, "lane {lane} out of range");
        let slot = port.slot;
        let idx = slot as usize * N + lane as usize;
        if self.slots[idx] != value.as_u64() {
            self.slots[idx] = value.as_u64();
            self.mark(slot);
        }
    }

    fn broadcast(&mut self, slot: u32, value: u64) {
        let stripe = &mut self.slots[slot as usize * N..slot as usize * N + N];
        if stripe.iter().any(|&v| v != value) {
            stripe.fill(value);
            self.mark(slot);
        }
    }

    /// Reads an output port's lane-0 value.
    ///
    /// # Errors
    ///
    /// Fails on unknown ports or non-outputs.
    pub fn try_output(&self, name: &str) -> Result<Bv, scflow_sim_api::SimError> {
        use scflow_sim_api::SimError;
        let port = self
            .port(name)
            .ok_or_else(|| SimError::UnknownPort(name.to_string()))?;
        if port.input {
            return Err(SimError::NotAnOutput(name.to_string()));
        }
        Ok(Bv::new(self.slots[port.slot as usize * N], port.width))
    }

    /// Reads an output port's lane-0 value (after
    /// [`settle`](RtlExec::settle) or [`tick`](RtlExec::tick)).
    ///
    /// # Panics
    ///
    /// Panics if no output port of that name exists.
    pub fn output(&self, name: &str) -> Bv {
        match self.try_output(name) {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }

    /// Reads an output port on one lane.
    ///
    /// # Panics
    ///
    /// Panics on unknown ports, non-outputs, or a lane out of range.
    pub fn output_lane(&self, name: &str, lane: u32) -> Bv {
        let port = self
            .port(name)
            .unwrap_or_else(|| panic!("no port named `{name}`"));
        assert!(!port.input, "port `{name}` is not an output");
        assert!((lane as usize) < N, "lane {lane} out of range");
        Bv::new(
            self.slots[port.slot as usize * N + lane as usize],
            port.width,
        )
    }

    /// `true` if the design declares an input port of this name.
    pub fn module_has_input(&self, name: &str) -> bool {
        self.port(name).is_some_and(|p| p.input)
    }

    /// Resolves an input port name to its port-table index for the
    /// handle-based hot path ([`set_input_at`](RtlExec::set_input_at)).
    pub fn input_index(&self, name: &str) -> Option<u32> {
        self.prog
            .ports
            .iter()
            .position(|p| p.input && p.name == name)
            .map(|i| i as u32)
    }

    /// Resolves an output port name to its port-table index for
    /// [`output_at`](RtlExec::output_at).
    pub fn output_index(&self, name: &str) -> Option<u32> {
        self.prog
            .ports
            .iter()
            .position(|p| !p.input && p.name == name)
            .map(|i| i as u32)
    }

    /// Sets an input port on all lanes by resolved index —
    /// [`set_input`](RtlExec::set_input) without the name scan.
    ///
    /// # Panics
    ///
    /// Panics on a width mismatch or an index not from
    /// [`input_index`](RtlExec::input_index).
    pub fn set_input_at(&mut self, index: u32, value: Bv) {
        let port = &self.prog.ports[index as usize];
        assert!(
            port.input && port.width == value.width(),
            "bad handle write to `{}`: input={} width {} vs {}",
            port.name,
            port.input,
            port.width,
            value.width()
        );
        self.broadcast(port.slot, value.as_u64());
    }

    /// Reads an output port's lane-0 value by resolved index —
    /// [`output`](RtlExec::output) without the name scan.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub fn output_at(&self, index: u32) -> Bv {
        let port = &self.prog.ports[index as usize];
        Bv::new(self.slots[port.slot as usize * N], port.width)
    }

    /// Reads any net's lane-0 value (for white-box tests and
    /// differential checks).
    pub fn peek_net(&self, net: NetId) -> Bv {
        self.peek_net_lane(net, 0)
    }

    /// Reads any net on one lane.
    ///
    /// # Panics
    ///
    /// Panics if the lane is out of range.
    pub fn peek_net_lane(&self, net: NetId, lane: u32) -> Bv {
        assert!((lane as usize) < N, "lane {lane} out of range");
        let i = net.0;
        Bv::new(self.slots[i * N + lane as usize], self.prog.net_widths[i])
    }

    /// Reads a memory word's lane-0 value (for white-box tests).
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn peek_mem(&self, mem: MemoryId, addr: usize) -> Bv {
        self.peek_mem_lane(mem, addr, 0)
    }

    /// Reads a memory word on one lane (for white-box tests).
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn peek_mem_lane(&self, mem: MemoryId, addr: usize, lane: u32) -> Bv {
        assert!((lane as usize) < N, "lane {lane} out of range");
        let m = &self.prog.mems[mem.0];
        let word = if m.rom {
            m.init[addr]
        } else {
            self.mems[mem.0][addr * N + lane as usize]
        };
        Bv::new(word, m.width)
    }

    /// Schedules everything that depends on `slot`: dependent cones (as
    /// pending bits) and the write-sampling flag. Re-marking is idempotent
    /// (bit sets), so no per-net dedup pass is needed.
    fn mark(&mut self, slot: u32) {
        let s = slot as usize;
        let prog = self.prog;
        let lo = prog.net_sched_off[s] as usize;
        let hi = prog.net_sched_off[s + 1] as usize;
        for &(w, m) in &prog.net_sched[lo..hi] {
            self.comb_pending[w as usize] |= m;
        }
        self.comb_any |= hi > lo;
        self.write_pending |= prog.net_schedules_write[s];
    }

    /// [`mark`](RtlExec::mark) for a memory's contents.
    fn mark_mem(&mut self, mem: u32) {
        let m = mem as usize;
        let prog = self.prog;
        let lo = prog.mem_sched_off[m] as usize;
        let hi = prog.mem_sched_off[m + 1] as usize;
        for &(w, mk) in &prog.mem_sched[lo..hi] {
            self.comb_pending[w as usize] |= mk;
        }
        self.comb_any |= hi > lo;
        self.write_pending |= prog.mem_schedules_write[m];
    }

    /// Executes `range` of the combinational (`seq == false`) or
    /// sequential instruction array: lane-parallel when `N > 1` and the
    /// range is jump-free, per lane otherwise. `record0` gates lane-0
    /// violation recording (used to suppress reads inside write-port
    /// address/data blocks whose lane 0 is not enabled, matching the
    /// one-lane engine's lazy evaluation).
    fn exec(&mut self, seq: bool, range: Range<u32>, record0: bool) {
        let prog = self.prog;
        let (insts, jumps) = if seq {
            (&prog.seq_insts[..], &self.seq_jumps[..])
        } else {
            (&prog.insts[..], &self.comb_jumps[..])
        };
        let range = range.start as usize..range.end as usize;
        let check0 = self.check_addresses && record0;
        let (slots, mems, violations) = (&mut self.slots, &mut self.mems, &mut self.violations);
        self.evals += if N > 1 && jumps[range.end] == jumps[range.start] {
            exec_lanes::<N>(
                prog, insts, range, slots, mems, violations, check0, self.cycle,
            )
        } else {
            exec_per_lane::<N>(
                prog, insts, range, slots, mems, violations, check0, self.cycle,
            )
        };
    }

    /// Runs one cone and schedules its dependents if its target changed
    /// on any lane.
    #[inline(always)]
    fn eval_cone(&mut self, cone: &Cone) {
        let old = ld::<N>(&self.slots, cone.target);
        self.exec(false, cone.insts.clone(), true);
        if ld::<N>(&self.slots, cone.target) != old {
            self.mark(cone.target);
        }
    }

    /// Propagates combinational logic to a fixed point (one pass over the
    /// pending cones in the compiled topological order).
    pub fn settle(&mut self) {
        let prog = self.prog;
        if !self.check_addresses && !self.force_eval {
            // Event-driven pass: only cones scheduled by a dependency
            // change run. Dependents sit after their drivers in the
            // topological cone order (cone indices ascend), so a change
            // raised mid-pass only ever sets a bit at or above the
            // current position and is consumed by this same pass.
            if !self.comb_any {
                self.skipped += u64::from(prog.n_active_cones);
                return;
            }
            let mut ran = 0u64;
            for wi in 0..self.comb_pending.len() {
                loop {
                    let word = self.comb_pending[wi];
                    if word == 0 {
                        break;
                    }
                    let bit = word.trailing_zeros();
                    self.comb_pending[wi] = word & (word - 1);
                    self.eval_cone(&prog.cones[wi * 64 + bit as usize]);
                    ran += 1;
                }
            }
            self.skipped += u64::from(prog.n_active_cones).saturating_sub(ran);
            self.comb_any = false;
        } else {
            // Full pass: address checking (and the first settle) must
            // re-evaluate every cone so the out-of-range-access stream
            // matches the interpreter's.
            for cone in &prog.cones {
                if cone.insts.is_empty() {
                    // Fully constant-folded: the target slot was baked
                    // into the initial image and can never change.
                    continue;
                }
                self.eval_cone(cone);
            }
            if self.comb_any {
                self.comb_pending.fill(0);
                self.comb_any = false;
            }
        }
        self.force_eval = false;
    }

    /// Advances one clock cycle on all lanes: settle, sample register
    /// and memory inputs, commit per lane, settle again — the
    /// interpreter's tick, verbatim.
    ///
    /// Write-port sampling is gated: if no port's fanin changed since the
    /// last edge, every enabled port would rewrite the word it wrote last
    /// edge — a no-op on memory contents — so the whole block is skipped.
    /// (Ports are gated all-or-nothing, preserving multi-port commit
    /// order.) Address checking disables this gating along with the rest.
    pub fn tick(&mut self) {
        let prog = self.prog;
        self.settle();

        // Sample every register's next value against the settled slots,
        // in one contiguous instruction run. The sampled values live in
        // private temp slots, so later registers still observe pre-edge
        // state.
        self.exec(true, prog.reg_sample_insts.clone(), true);

        // Sample memory writes. Address/data blocks evaluate when *any*
        // lane is enabled; lane-0 violation recording inside them stays
        // gated on lane 0's own enable, so lane 0's stream is identical
        // to the interpreter's lazy evaluation.
        let sampled = self.check_addresses || self.write_pending;
        if sampled {
            for (wi, w) in prog.writes.iter().enumerate() {
                self.exec(true, w.en_insts.clone(), true);
                let mut en = 0u64;
                for (l, &e) in ld::<N>(&self.slots, w.en_slot).iter().enumerate() {
                    en |= u64::from(e != 0) << l;
                }
                self.samples[wi].en = en;
                if en != 0 {
                    let lane0 = en & 1 != 0;
                    self.exec(true, w.addr_insts.clone(), lane0);
                    self.exec(true, w.data_insts.clone(), lane0);
                    self.samples[wi].addr = ld(&self.slots, w.addr_slot);
                    self.samples[wi].data = ld(&self.slots, w.data_slot);
                }
            }
            self.write_pending = false;
        }

        // Commit registers.
        for r in &prog.regs {
            let v = ld::<N>(&self.slots, r.src);
            if ld::<N>(&self.slots, r.q) != v {
                st(&mut self.slots, r.q, &v);
                self.mark(r.q);
            }
        }
        // Commit memory writes, per lane, ports in declaration order.
        if sampled {
            for (wi, w) in prog.writes.iter().enumerate() {
                let s = &self.samples[wi];
                if s.en == 0 {
                    continue;
                }
                let mi = w.mem as usize;
                let words = (self.mems[mi].len() / N) as u64;
                let mut changed = false;
                for l in 0..N {
                    if s.en & (1 << l) == 0 {
                        continue;
                    }
                    let addr = s.addr[l];
                    let idx = if addr < words {
                        addr as usize
                    } else {
                        if l == 0 && self.check_addresses {
                            self.violations.push(MemViolation {
                                cycle: self.cycle,
                                memory: prog.mems[mi].name.clone(),
                                address: addr,
                                write: true,
                            });
                        }
                        (addr % words) as usize
                    };
                    let word = &mut self.mems[mi][idx * N + l];
                    if *word != s.data[l] {
                        *word = s.data[l];
                        changed = true;
                    }
                }
                if changed {
                    self.mark_mem(w.mem);
                }
            }
        }

        self.cycle += 1;
        self.settle();
        if !self.watched.is_empty() {
            let snapshot = self
                .watched
                .iter()
                .map(|&s| Bv::new(self.slots[s as usize * N], prog.net_widths[s as usize]))
                .collect();
            self.history.push((self.cycle, snapshot));
        }
        self.sample_coverage();
    }

    /// Records lane 0's settled nets into the coverage map, if enabled.
    /// Nets whose driving cone was removed by dead-cone elimination
    /// ([`CompiledProgram::retained_nets`]) are masked out of the
    /// observation (they keep their power-on value).
    fn sample_coverage(&mut self) {
        if let Some(cov) = self.coverage.as_deref_mut() {
            let slots = &self.slots;
            let retained = &self.prog.retained_nets;
            cov.sample_with(|i| (slots[i * N], if retained[i] { u64::MAX } else { 0 }));
        }
    }

    /// Runs `n` clock cycles with the current inputs.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.tick();
        }
    }

    /// Lane 0's out-of-range accesses (only populated while
    /// [`check_addresses`](RtlExec::check_addresses) is enabled).
    pub fn violations(&self) -> &[MemViolation] {
        &self.violations
    }

    /// Turns cycle-boundary toggle-coverage collection on or off, over
    /// the module's nets (slots `0..n_nets` map 1:1 onto module net
    /// ids; compiler temporaries are excluded), sampled from lane 0. It
    /// samples the same settled per-cycle values as the interpreter, so
    /// every engine produces byte-identical maps on lane 0's stimulus.
    /// With collection off, [`tick`](RtlExec::tick) pays one branch for
    /// this feature.
    pub fn set_coverage(&mut self, enabled: bool) {
        if !enabled {
            self.coverage = None;
            return;
        }
        let prog = self.prog;
        self.coverage = Some(Box::new(ToggleCoverage::new(
            prog.net_names
                .iter()
                .zip(&prog.net_widths)
                .map(|(n, &w)| (n.clone(), w)),
        )));
        self.sample_coverage();
    }

    /// The lane-0 per-net toggle-coverage map, if collection is enabled.
    pub fn coverage(&self) -> Option<&ToggleCoverage> {
        self.coverage.as_deref()
    }

    /// Adds a net to the (lane-0) waveform watch list; its value is
    /// sampled after every [`tick`](RtlExec::tick) and can be dumped
    /// with [`waveform_vcd`](RtlExec::waveform_vcd).
    pub fn watch_net(&mut self, net: NetId) {
        self.watched.push(net.0 as u32);
    }

    /// Convenience: watch a port by name.
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist.
    pub fn watch_port(&mut self, name: &str) {
        let port = self
            .port(name)
            .unwrap_or_else(|| panic!("no port named `{name}`"));
        self.watched.push(port.slot);
    }

    /// Renders the watched nets' lane-0 cycle-by-cycle history as a VCD
    /// document (`clock_period_ps` sets the timescale mapping of one
    /// cycle) — byte-identical to the interpreter's for the same watch
    /// list and lane-0 stimulus.
    pub fn waveform_vcd(&self, clock_period_ps: u64) -> String {
        let vars: Vec<(u32, &str)> = self
            .watched
            .iter()
            .map(|&s| {
                (
                    self.prog.net_widths[s as usize],
                    self.prog.net_names[s as usize].as_str(),
                )
            })
            .collect();
        crate::trace::render_vcd(&vars, &self.history, clock_period_ps)
    }

    /// Returns every lane to the power-on image and clears all recorded
    /// run state (cycle count, work counters, violations, waveforms,
    /// coverage observations), keeping the watch list and the
    /// address-checking and coverage configuration — the state of a
    /// freshly built executor so configured.
    pub fn reset(&mut self) {
        self.load_power_on_image();
        self.comb_pending.fill(0);
        self.comb_any = false;
        self.write_pending = true;
        self.force_eval = true;
        self.cycle = 0;
        self.violations.clear();
        self.history.clear();
        self.evals = 0;
        self.skipped = 0;
        // `new` settles before address checking can be switched on, so
        // this settle records no violations either.
        let check = std::mem::replace(&mut self.check_addresses, false);
        self.settle();
        self.check_addresses = check;
        if let Some(cov) = self.coverage.as_deref_mut() {
            cov.clear();
        }
        self.sample_coverage();
    }

    /// Captures the full simulation state as a versioned, checksummed
    /// [`Snapshot`] blob: slots (registers and settled nets), RAM
    /// contents, activity-gating worklist, cycle count, work counters,
    /// violation stream, waveform history and coverage observations.
    /// ROMs are program data and stay out; slot and RAM stripes whose
    /// lanes agree are stored once.
    pub fn snapshot_state(&self) -> Snapshot {
        let mut w = SnapshotWriter::new(Self::ENGINE, SNAP_VERSION, self.prog.state_identity());
        w.u64(u64::from(self.check_addresses));
        let watched: Vec<u64> = self.watched.iter().map(|&s| u64::from(s)).collect();
        w.u64s(&watched);
        w.u64(self.cycle);
        w.stripes(&self.slots, N);
        for (words, m) in self.mems.iter().zip(&self.prog.mems) {
            if !m.rom {
                w.stripes(words, N);
            }
        }
        w.u64s(&self.comb_pending);
        w.u64(
            u64::from(self.comb_any)
                | u64::from(self.write_pending) << 1
                | u64::from(self.force_eval) << 2,
        );
        w.u64(self.evals);
        w.u64(self.skipped);
        w.u64(self.violations.len() as u64);
        for v in &self.violations {
            w.u64(v.cycle);
            w.bytes(v.memory.as_bytes());
            w.u64(v.address);
            w.u64(u64::from(v.write));
        }
        // Widths are not stored: the watch list, which the restorer
        // validates, implies them.
        w.u64(self.history.len() as u64);
        for (cycle, values) in &self.history {
            w.u64(*cycle);
            let words: Vec<u64> = values.iter().map(|v| v.as_u64()).collect();
            w.u64s(&words);
        }
        w.u64(u64::from(self.coverage.is_some()));
        if let Some(cov) = self.coverage.as_deref() {
            w.u64s(&cov.save_state());
        }
        w.finish()
    }

    /// Restores state captured by
    /// [`snapshot_state`](RtlExec::snapshot_state) on this engine or an
    /// identically-configured twin over the same program (same lane
    /// count, watch list, address-checking and coverage configuration).
    /// Returns `false` — leaving the engine untouched — when the blob is
    /// stale (different program, configuration or format version) or
    /// corrupt.
    pub fn restore_state(&mut self, snap: &Snapshot) -> bool {
        let Some(mut r) =
            SnapshotReader::open(snap, Self::ENGINE, SNAP_VERSION, self.prog.state_identity())
        else {
            return false;
        };
        let Some(state) = self.read_state(&mut r) else {
            return false;
        };
        if let (Some(saved), Some(cov)) = (&state.cov_state, self.coverage.as_deref_mut()) {
            if !cov.load_state(saved) {
                return false;
            }
        }
        self.cycle = state.cycle;
        self.slots = state.slots;
        for (mi, words) in state.rams {
            self.mems[mi] = words;
        }
        self.comb_pending = state.comb_pending;
        self.comb_any = state.flags & 1 != 0;
        self.write_pending = state.flags & 2 != 0;
        self.force_eval = state.flags & 4 != 0;
        self.evals = state.evals;
        self.skipped = state.skipped;
        self.violations = state.violations;
        self.history = state.history;
        true
    }

    /// Parses the fields [`snapshot_state`](RtlExec::snapshot_state)
    /// writes, in order, checking each against this engine as it goes:
    /// configuration fields must equal the engine's (a snapshot restores
    /// state, it does not reconfigure what the engine records), and every
    /// length must equal the engine's own slot, RAM, cone, watch-list and
    /// coverage sizes before anything is allocated. `None` on any
    /// mismatch or a truncated, over-long or malformed blob.
    fn read_state(&self, r: &mut SnapshotReader<'_>) -> Option<SavedState> {
        let prog = self.prog;
        if r.u64()? != u64::from(self.check_addresses) {
            return None;
        }
        let watched = r.u64s(self.watched.len())?;
        if !watched
            .iter()
            .zip(&self.watched)
            .all(|(&a, &b)| a == u64::from(b))
        {
            return None;
        }
        let cycle = r.u64()?;
        let slots = r.stripes(self.slots.len() / N, N)?;
        let mut rams = Vec::new();
        for (mi, m) in prog.mems.iter().enumerate() {
            if !m.rom {
                rams.push((mi, r.stripes(m.init.len(), N)?));
            }
        }
        let comb_pending = r.u64s(self.comb_pending.len())?;
        // A pending bit past the last cone would index no cone.
        let tail = prog.cones.len() % 64;
        if tail != 0 && comb_pending.last().is_some_and(|&w| w >> tail != 0) {
            return None;
        }
        let flags = r.u64()?;
        if flags > 7 {
            return None;
        }
        let evals = r.u64()?;
        let skipped = r.u64()?;
        let n = usize::try_from(r.u64()?).ok()?;
        let mut violations = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let cycle = r.u64()?;
            let memory = String::from_utf8(r.bytes()?.to_vec()).ok()?;
            let address = r.u64()?;
            let write = match r.u64()? {
                0 => false,
                1 => true,
                _ => return None,
            };
            violations.push(MemViolation {
                cycle,
                memory,
                address,
                write,
            });
        }
        let n = usize::try_from(r.u64()?).ok()?;
        let mut history = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let cycle = r.u64()?;
            // An entry whose value count does not match the watch list
            // is stale.
            let words = r.u64s(self.watched.len())?;
            let values = words
                .iter()
                .zip(&self.watched)
                .map(|(&v, &s)| Bv::new(v, prog.net_widths[s as usize]))
                .collect();
            history.push((cycle, values));
        }
        let cov_state = match (r.u64()?, self.coverage.as_deref()) {
            (0, None) => None,
            (1, Some(cov)) => Some(r.u64s(cov.state_len())?),
            _ => return None,
        };
        r.done().then_some(SavedState {
            cycle,
            slots,
            rams,
            comb_pending,
            flags,
            evals,
            skipped,
            violations,
            history,
            cov_state,
        })
    }
}

/// A snapshot blob's fields, parsed and checked against the restoring
/// engine.
struct SavedState {
    cycle: u64,
    slots: Vec<u64>,
    /// `(memory index, lane-major words)` per RAM.
    rams: Vec<(usize, Vec<u64>)>,
    comb_pending: Vec<u64>,
    flags: u64,
    evals: u64,
    skipped: u64,
    violations: Vec<MemViolation>,
    history: Vec<(u64, Vec<Bv>)>,
    cov_state: Option<Vec<u64>>,
}

impl<const N: usize> std::fmt::Debug for RtlExec<'_, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RtlExec")
            .field("program", &self.prog.name)
            .field("lanes", &N)
            .field("cycle", &self.cycle)
            .finish()
    }
}

#[inline(always)]
fn un<const N: usize>(slots: &mut [u64], dst: u32, a: u32, f: impl Fn(u64) -> u64) {
    let av = ld::<N>(slots, a);
    let d = &mut slots[dst as usize * N..dst as usize * N + N];
    for l in 0..N {
        d[l] = f(av[l]);
    }
}

#[inline(always)]
fn bin<const N: usize>(slots: &mut [u64], dst: u32, a: u32, b: u32, f: impl Fn(u64, u64) -> u64) {
    let (av, bv) = (ld::<N>(slots, a), ld::<N>(slots, b));
    let d = &mut slots[dst as usize * N..dst as usize * N + N];
    for l in 0..N {
        d[l] = f(av[l], bv[l]);
    }
}

#[inline(always)]
fn tri<const N: usize>(
    slots: &mut [u64],
    dst: u32,
    a: u32,
    b: u32,
    c: u32,
    f: impl Fn(u64, u64, u64) -> u64,
) {
    let (av, bv, cv) = (ld::<N>(slots, a), ld::<N>(slots, b), ld::<N>(slots, c));
    let d = &mut slots[dst as usize * N..dst as usize * N + N];
    for l in 0..N {
        d[l] = f(av[l], bv[l], cv[l]);
    }
}

#[inline(always)]
fn quad<const N: usize>(
    slots: &mut [u64],
    dst: u32,
    a: u32,
    b: u32,
    c: u32,
    e: u32,
    f: impl Fn(u64, u64, u64, u64) -> u64,
) {
    let (av, bv, cv, ev) = (
        ld::<N>(slots, a),
        ld::<N>(slots, b),
        ld::<N>(slots, c),
        ld::<N>(slots, e),
    );
    let d = &mut slots[dst as usize * N..dst as usize * N + N];
    for l in 0..N {
        d[l] = f(av[l], bv[l], cv[l], ev[l]);
    }
}

/// Lane-parallel execution of a jump-free instruction range: one
/// dispatch per instruction, a fixed `N`-element stripe loop per
/// operand. Returns the dispatches executed.
#[allow(clippy::too_many_arguments)]
fn exec_lanes<const N: usize>(
    prog: &CompiledProgram,
    insts: &[Inst],
    range: Range<usize>,
    slots: &mut [u64],
    mems: &mut [Vec<u64>],
    violations: &mut Vec<MemViolation>,
    check0: bool,
    cycle: u64,
) -> u64 {
    for pc in range.clone() {
        match insts[pc] {
            Inst::Copy { dst, a } => {
                let av = ld::<N>(slots, a);
                st(slots, dst, &av);
            }
            Inst::Not { dst, a, w } => un::<N>(slots, dst, a, |x| !x & mask(w)),
            Inst::Neg { dst, a, w } => un::<N>(slots, dst, a, |x| x.wrapping_neg() & mask(w)),
            Inst::RedAnd { dst, a, w } => un::<N>(slots, dst, a, |x| u64::from(x == mask(w))),
            Inst::RedOr { dst, a } => un::<N>(slots, dst, a, |x| u64::from(x != 0)),
            Inst::RedXor { dst, a } => {
                un::<N>(slots, dst, a, |x| u64::from(x.count_ones() % 2 == 1));
            }
            Inst::Add { dst, a, b, w } => {
                bin::<N>(slots, dst, a, b, |x, y| x.wrapping_add(y) & mask(w));
            }
            Inst::Sub { dst, a, b, w } => {
                bin::<N>(slots, dst, a, b, |x, y| x.wrapping_sub(y) & mask(w));
            }
            Inst::Mul { dst, a, b, w } => {
                bin::<N>(slots, dst, a, b, |x, y| x.wrapping_mul(y) & mask(w));
            }
            Inst::MulS { dst, a, b, w } => bin::<N>(slots, dst, a, b, |x, y| {
                (sign_extend(x, w).wrapping_mul(sign_extend(y, w)) as u64) & mask(w)
            }),
            Inst::And { dst, a, b } => bin::<N>(slots, dst, a, b, |x, y| x & y),
            Inst::Or { dst, a, b } => bin::<N>(slots, dst, a, b, |x, y| x | y),
            Inst::Xor { dst, a, b } => bin::<N>(slots, dst, a, b, |x, y| x ^ y),
            Inst::Shl { dst, a, b, w } => bin::<N>(slots, dst, a, b, |x, s| {
                let amt = s.min(64) as u32;
                if amt >= 64 {
                    0
                } else {
                    (x << amt) & mask(w)
                }
            }),
            Inst::Shr { dst, a, b } => bin::<N>(slots, dst, a, b, |x, s| {
                let amt = s.min(64) as u32;
                if amt >= 64 {
                    0
                } else {
                    x >> amt
                }
            }),
            Inst::Sar { dst, a, b, w } => bin::<N>(slots, dst, a, b, |x, s| {
                let amt = s.min(63) as u32;
                ((sign_extend(x, w) >> amt) as u64) & mask(w)
            }),
            Inst::Eq { dst, a, b } => bin::<N>(slots, dst, a, b, |x, y| u64::from(x == y)),
            Inst::Ne { dst, a, b } => bin::<N>(slots, dst, a, b, |x, y| u64::from(x != y)),
            Inst::Ult { dst, a, b } => bin::<N>(slots, dst, a, b, |x, y| u64::from(x < y)),
            Inst::Ule { dst, a, b } => bin::<N>(slots, dst, a, b, |x, y| u64::from(x <= y)),
            Inst::Slt { dst, a, b, w } => bin::<N>(slots, dst, a, b, |x, y| {
                u64::from(sign_extend(x, w) < sign_extend(y, w))
            }),
            Inst::Sle { dst, a, b, w } => bin::<N>(slots, dst, a, b, |x, y| {
                u64::from(sign_extend(x, w) <= sign_extend(y, w))
            }),
            Inst::Mux { dst, c, t, e } => {
                tri::<N>(slots, dst, c, t, e, |c, t, e| if c != 0 { t } else { e });
            }
            Inst::Slice { dst, a, lo, w } => un::<N>(slots, dst, a, |x| (x >> lo) & mask(w)),
            Inst::Concat { dst, a, b, bw } => bin::<N>(slots, dst, a, b, |x, y| (x << bw) | y),
            Inst::Zext { dst, a, w } => un::<N>(slots, dst, a, |x| x & mask(w)),
            Inst::Sext { dst, a, from, to } => {
                un::<N>(slots, dst, a, |x| (sign_extend(x, from) as u64) & mask(to))
            }
            Inst::ReadMem { dst, a, mem, w } => {
                let av = ld::<N>(slots, a);
                let mi = mem as usize;
                let image = &prog.mems[mi];
                let words = image.init.len() as u64;
                let mut d = [0u64; N];
                if image.rom {
                    for l in 0..N {
                        let addr = av[l];
                        d[l] = if addr < words {
                            image.init[addr as usize]
                        } else {
                            image.init[(addr % words) as usize] & mask(w)
                        };
                    }
                } else {
                    let m = &mems[mi];
                    for l in 0..N {
                        let addr = av[l];
                        d[l] = if addr < words {
                            m[addr as usize * N + l]
                        } else {
                            m[(addr % words) as usize * N + l] & mask(w)
                        };
                    }
                }
                if check0 && av[0] >= words {
                    violations.push(MemViolation {
                        cycle,
                        memory: prog.mems[mi].name.clone(),
                        address: av[0],
                        write: false,
                    });
                }
                st(slots, dst, &d);
            }
            Inst::EqMux { dst, a, b, t, e } => {
                quad::<N>(
                    slots,
                    dst,
                    a,
                    b,
                    t,
                    e,
                    |x, y, t, e| if x == y { t } else { e },
                );
            }
            Inst::NeMux { dst, a, b, t, e } => {
                quad::<N>(
                    slots,
                    dst,
                    a,
                    b,
                    t,
                    e,
                    |x, y, t, e| if x != y { t } else { e },
                );
            }
            Inst::UltMux { dst, a, b, t, e } => {
                quad::<N>(
                    slots,
                    dst,
                    a,
                    b,
                    t,
                    e,
                    |x, y, t, e| if x < y { t } else { e },
                );
            }
            Inst::AndMux { dst, a, b, t, e } => {
                quad::<N>(
                    slots,
                    dst,
                    a,
                    b,
                    t,
                    e,
                    |x, y, t, e| {
                        if x & y != 0 {
                            t
                        } else {
                            e
                        }
                    },
                );
            }
            Inst::BitMux { dst, a, lo, t, e } => {
                tri::<N>(
                    slots,
                    dst,
                    a,
                    t,
                    e,
                    |x, t, e| {
                        if (x >> lo) & 1 != 0 {
                            t
                        } else {
                            e
                        }
                    },
                );
            }
            Inst::MulSS { dst, a, b, from, w } => bin::<N>(slots, dst, a, b, |x, y| {
                (sign_extend(x, from).wrapping_mul(sign_extend(y, from)) as u64) & mask(w)
            }),
            Inst::Jmp { .. } | Inst::JmpZero { .. } => {
                unreachable!("jump in a range dispatched as jump-free")
            }
        }
    }
    range.len() as u64
}

/// Per-lane execution of an instruction range, with branches: the range
/// runs once per lane, stride `N`, lane 0 first so its violation stream
/// keeps the instruction order. Returns the instructions executed,
/// summed over lanes.
#[allow(clippy::too_many_arguments)]
fn exec_per_lane<const N: usize>(
    prog: &CompiledProgram,
    insts: &[Inst],
    range: Range<usize>,
    slots: &mut [u64],
    mems: &mut [Vec<u64>],
    violations: &mut Vec<MemViolation>,
    check0: bool,
    cycle: u64,
) -> u64 {
    let mut executed = 0u64;
    for lane in 0..N {
        let check = check0 && lane == 0;
        let mut pc = range.start;
        while pc < range.end {
            let inst = insts[pc];
            pc += 1;
            executed += 1;
            let rd = |s: u32| slots[s as usize * N + lane];
            match inst {
                Inst::Copy { dst, a } => slots[dst as usize * N + lane] = rd(a),
                Inst::Not { dst, a, w } => {
                    slots[dst as usize * N + lane] = !rd(a) & mask(w);
                }
                Inst::Neg { dst, a, w } => {
                    slots[dst as usize * N + lane] = rd(a).wrapping_neg() & mask(w);
                }
                Inst::RedAnd { dst, a, w } => {
                    slots[dst as usize * N + lane] = u64::from(rd(a) == mask(w));
                }
                Inst::RedOr { dst, a } => {
                    slots[dst as usize * N + lane] = u64::from(rd(a) != 0);
                }
                Inst::RedXor { dst, a } => {
                    slots[dst as usize * N + lane] = u64::from(rd(a).count_ones() % 2 == 1);
                }
                Inst::Add { dst, a, b, w } => {
                    slots[dst as usize * N + lane] = rd(a).wrapping_add(rd(b)) & mask(w);
                }
                Inst::Sub { dst, a, b, w } => {
                    slots[dst as usize * N + lane] = rd(a).wrapping_sub(rd(b)) & mask(w);
                }
                Inst::Mul { dst, a, b, w } => {
                    slots[dst as usize * N + lane] = rd(a).wrapping_mul(rd(b)) & mask(w);
                }
                Inst::MulS { dst, a, b, w } => {
                    let x = sign_extend(rd(a), w);
                    let y = sign_extend(rd(b), w);
                    slots[dst as usize * N + lane] = (x.wrapping_mul(y) as u64) & mask(w);
                }
                Inst::And { dst, a, b } => {
                    slots[dst as usize * N + lane] = rd(a) & rd(b);
                }
                Inst::Or { dst, a, b } => {
                    slots[dst as usize * N + lane] = rd(a) | rd(b);
                }
                Inst::Xor { dst, a, b } => {
                    slots[dst as usize * N + lane] = rd(a) ^ rd(b);
                }
                Inst::Shl { dst, a, b, w } => {
                    let amt = rd(b).min(64) as u32;
                    slots[dst as usize * N + lane] = if amt >= 64 {
                        0
                    } else {
                        (rd(a) << amt) & mask(w)
                    };
                }
                Inst::Shr { dst, a, b } => {
                    let amt = rd(b).min(64) as u32;
                    slots[dst as usize * N + lane] = if amt >= 64 { 0 } else { rd(a) >> amt };
                }
                Inst::Sar { dst, a, b, w } => {
                    let amt = rd(b).min(63) as u32;
                    slots[dst as usize * N + lane] =
                        ((sign_extend(rd(a), w) >> amt) as u64) & mask(w);
                }
                Inst::Eq { dst, a, b } => {
                    slots[dst as usize * N + lane] = u64::from(rd(a) == rd(b));
                }
                Inst::Ne { dst, a, b } => {
                    slots[dst as usize * N + lane] = u64::from(rd(a) != rd(b));
                }
                Inst::Ult { dst, a, b } => {
                    slots[dst as usize * N + lane] = u64::from(rd(a) < rd(b));
                }
                Inst::Ule { dst, a, b } => {
                    slots[dst as usize * N + lane] = u64::from(rd(a) <= rd(b));
                }
                Inst::Slt { dst, a, b, w } => {
                    slots[dst as usize * N + lane] =
                        u64::from(sign_extend(rd(a), w) < sign_extend(rd(b), w));
                }
                Inst::Sle { dst, a, b, w } => {
                    slots[dst as usize * N + lane] =
                        u64::from(sign_extend(rd(a), w) <= sign_extend(rd(b), w));
                }
                Inst::Mux { dst, c, t, e } => {
                    slots[dst as usize * N + lane] = if rd(c) != 0 { rd(t) } else { rd(e) };
                }
                Inst::Slice { dst, a, lo, w } => {
                    slots[dst as usize * N + lane] = (rd(a) >> lo) & mask(w);
                }
                Inst::Concat { dst, a, b, bw } => {
                    slots[dst as usize * N + lane] = (rd(a) << bw) | rd(b);
                }
                Inst::Zext { dst, a, w } => {
                    slots[dst as usize * N + lane] = rd(a) & mask(w);
                }
                Inst::Sext { dst, a, from, to } => {
                    slots[dst as usize * N + lane] = (sign_extend(rd(a), from) as u64) & mask(to);
                }
                Inst::ReadMem { dst, a, mem, w } => {
                    let addr = rd(a);
                    let mi = mem as usize;
                    let image = &prog.mems[mi];
                    let words = image.init.len() as u64;
                    let word = |i: u64| {
                        if image.rom {
                            image.init[i as usize]
                        } else {
                            mems[mi][i as usize * N + lane]
                        }
                    };
                    let v = if addr < words {
                        word(addr)
                    } else {
                        if check {
                            violations.push(MemViolation {
                                cycle,
                                memory: image.name.clone(),
                                address: addr,
                                write: false,
                            });
                        }
                        word(addr % words) & mask(w)
                    };
                    slots[dst as usize * N + lane] = v;
                }
                Inst::EqMux { dst, a, b, t, e } => {
                    slots[dst as usize * N + lane] = if rd(a) == rd(b) { rd(t) } else { rd(e) };
                }
                Inst::NeMux { dst, a, b, t, e } => {
                    slots[dst as usize * N + lane] = if rd(a) != rd(b) { rd(t) } else { rd(e) };
                }
                Inst::UltMux { dst, a, b, t, e } => {
                    slots[dst as usize * N + lane] = if rd(a) < rd(b) { rd(t) } else { rd(e) };
                }
                Inst::AndMux { dst, a, b, t, e } => {
                    slots[dst as usize * N + lane] = if rd(a) & rd(b) != 0 { rd(t) } else { rd(e) };
                }
                Inst::BitMux { dst, a, lo, t, e } => {
                    slots[dst as usize * N + lane] =
                        if (rd(a) >> lo) & 1 != 0 { rd(t) } else { rd(e) };
                }
                Inst::MulSS { dst, a, b, from, w } => {
                    let x = sign_extend(rd(a), from);
                    let y = sign_extend(rd(b), from);
                    slots[dst as usize * N + lane] = (x.wrapping_mul(y) as u64) & mask(w);
                }
                Inst::Jmp { to } => pc = to as usize,
                Inst::JmpZero { c, to } => {
                    if rd(c) == 0 {
                        pc = to as usize;
                    }
                }
            }
        }
    }
    executed
}
