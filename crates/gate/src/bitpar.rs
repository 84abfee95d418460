//! Bit-parallel execution of a compiled gate program.
//!
//! [`BitGateSim`] evaluates 64 independent stimulus patterns per
//! instruction: every net holds a **two-plane** `(value, unknown)` pair of
//! `u64` words, where bit *i* of each plane is pattern lane *i*. The
//! encoding is canonical — a lane's value bit is 0 wherever its unknown
//! bit is 1 — so each lane is exactly one of `0 = (0,0)`, `1 = (1,0)`,
//! `X = (0,1)`; `Z` never arises inside a gate netlist (cells drive every
//! net, and [`CellKind`] maps `Z` inputs to `X`). Each cell evaluation is
//! a handful of word-wide boolean operations with full four-valued
//! X-propagation, giving the same settled values per lane as the
//! event-driven engine.
//!
//! RAMs are replicated per lane: the lanes are independent pattern
//! machines whose write streams diverge, so each lane owns a private copy
//! of every RAM. A ROM (a memory without a write port) is program data:
//! every lane reads the netlist's one image, and no simulator, reset,
//! snapshot or fault-simulation record copies it. The **checking memory
//! model** (out-of-range and unknown-address detection) is evaluated per
//! lane, but violations are *recorded* for lane 0 only — in
//! single-pattern mode the stream is byte-identical to
//! [`GateSim`](crate::GateSim)'s.
//!
//! A single stuck-at fault can be forced onto one net
//! ([`BitGateSim::inject_stuck_at`]), which the fault simulator in
//! [`crate::fault`] uses for parallel-pattern single-fault propagation.

use crate::celllib::CellKind;
use crate::compile::{GateProgram, Instr};
use crate::gsim::{GateSimStats, MemAccessViolation};
use crate::netlist::{GNetId, GateMemory, GateNetlist};
use scflow_hwtypes::{Bv, Logic, LogicVec};
use scflow_sim_api::snapblob::{SnapshotReader, SnapshotWriter};
use scflow_sim_api::Snapshot;

const NO_FAULT: u32 = u32::MAX;

/// Snapshot blob format version for this engine. Version 2 leaves ROMs
/// out and stores planes and RAM stripes through the lane codecs.
const SNAP_VERSION: u16 = 2;

/// NOT over two-plane words: unknowns stay unknown.
#[inline(always)]
fn p_not(v: u64, u: u64) -> (u64, u64) {
    (!v & !u, u)
}

/// AND over two-plane words: a controlling 0 on either input dominates X.
#[inline(always)]
fn p_and(av: u64, au: u64, bv: u64, bu: u64) -> (u64, u64) {
    let one = av & bv;
    let zero = (!av & !au) | (!bv & !bu);
    (one, !(one | zero))
}

/// OR over two-plane words: a controlling 1 on either input dominates X.
#[inline(always)]
fn p_or(av: u64, au: u64, bv: u64, bu: u64) -> (u64, u64) {
    let one = av | bv;
    let zero = (!av & !au) & (!bv & !bu);
    (one, !(one | zero))
}

/// Evaluates one cell over two-plane words, lane-parallel.
///
/// Mirrors [`CellKind::eval`] per lane, including the MUX2 pessimism rule
/// (equal known arms dominate an unknown select) and SDFF's stricter one
/// (an unknown scan enable always samples X).
#[inline(always)]
pub(crate) fn eval_gate(
    kind: CellKind,
    av: u64,
    au: u64,
    bv: u64,
    bu: u64,
    cv: u64,
    cu: u64,
) -> (u64, u64) {
    match kind {
        CellKind::Inv => p_not(av, au),
        CellKind::Buf | CellKind::Dff => (av, au),
        CellKind::Nand2 => {
            let (v, u) = p_and(av, au, bv, bu);
            p_not(v, u)
        }
        CellKind::Nor2 => {
            let (v, u) = p_or(av, au, bv, bu);
            p_not(v, u)
        }
        CellKind::And2 => p_and(av, au, bv, bu),
        CellKind::Or2 => p_or(av, au, bv, bu),
        CellKind::Xor2 => {
            let u = au | bu;
            ((av ^ bv) & !u, u)
        }
        CellKind::Xnor2 => {
            let u = au | bu;
            (!(av ^ bv) & !u, u)
        }
        CellKind::Mux2 => {
            let s0 = !cv & !cu;
            let s1 = cv & !cu;
            let sx = cu;
            let val = (s0 & av) | (s1 & bv) | (sx & av & bv);
            let known = (s0 & !au) | (s1 & !bu) | (sx & !au & !bu & !(av ^ bv));
            (val & known, !known)
        }
        CellKind::Aoi21 => {
            let (v1, u1) = p_and(av, au, bv, bu);
            let (v2, u2) = p_or(v1, u1, cv, cu);
            p_not(v2, u2)
        }
        CellKind::Oai21 => {
            let (v1, u1) = p_or(av, au, bv, bu);
            let (v2, u2) = p_and(v1, u1, cv, cu);
            p_not(v2, u2)
        }
        CellKind::Sdff => {
            let s0 = !cv & !cu;
            let s1 = cv & !cu;
            let val = (s0 & av) | (s1 & bv);
            let known = (s0 & !au) | (s1 & !bu);
            (val & known, !known)
        }
    }
}

/// Assembles a lane's value across a net vector; `None` if any bit is
/// unknown in that lane (or the vector is empty / wider than 64 bits,
/// mirroring `LogicVec::to_bv` in the scalar engines).
#[inline]
fn gather_lane(bits: &[GNetId], val: &[u64], unk: &[u64], lane: usize) -> Option<u64> {
    if bits.is_empty() || bits.len() > 64 {
        return None;
    }
    let mut out = 0u64;
    for (i, n) in bits.iter().enumerate() {
        if (unk[n.0] >> lane) & 1 != 0 {
            return None;
        }
        out |= ((val[n.0] >> lane) & 1) << i;
    }
    Some(out)
}

/// One memory's read data in every lane, as `(value, unknown)` planes per
/// data bit: the word at the lane's read address (wrapping modulo the
/// word count), or all-unknown where the address is not fully known.
/// A RAM's `words` hold its contents as `words[addr * lanes + lane]`; a
/// ROM reads its `init` image and ignores `words`.
#[inline]
pub(crate) fn read_port(
    mem: &GateMemory,
    words: &[Bv],
    lanes: usize,
    val: &[u64],
    unk: &[u64],
) -> ([u64; 64], [u64; 64]) {
    let n_words = mem.words() as u64;
    let w = mem.width as usize;
    let mut dv = [0u64; 64];
    let mut du = [0u64; 64];
    for lane in 0..lanes {
        match gather_lane(&mem.raddr, val, unk, lane) {
            Some(addr) => {
                let a = (addr % n_words) as usize;
                let word = if mem.is_rom() {
                    mem.init[a]
                } else {
                    words[a * lanes + lane]
                };
                for (i, acc) in dv.iter_mut().enumerate().take(w) {
                    *acc |= (word.get(i as u32) as u64) << lane;
                }
            }
            None => {
                for acc in du.iter_mut().take(w) {
                    *acc |= 1u64 << lane;
                }
            }
        }
    }
    (dv, du)
}

/// A bit-parallel simulator over a compiled [`GateProgram`].
///
/// With one lane it is a drop-in for the other gate engines (same
/// per-cycle protocol, same settled values, same violation stream); with
/// up to 64 lanes it evaluates that many independent patterns per
/// instruction — the substrate of PPSFP fault simulation.
pub struct BitGateSim<'p> {
    prog: &'p GateProgram,
    lanes: u32,
    /// Value plane per net (bit *i* = lane *i*).
    val: Vec<u64>,
    /// Unknown plane per net; wherever a bit is set the value bit is 0.
    unk: Vec<u64>,
    /// Per-lane RAM contents: `mems[m][addr * lanes + lane]`; empty for
    /// a ROM.
    mems: Vec<Vec<Bv>>,
    /// Net forced by an injected stuck-at fault (`NO_FAULT` when clean).
    fault_net: u32,
    /// Broadcast value plane of the forced net.
    fault_val: u64,
    stats: GateSimStats,
    violations: Vec<MemAccessViolation>,
    /// Set by the input pokes, cleared by [`BitGateSim::settle`]: when
    /// clear, the planes already hold the settled fixed point and
    /// [`BitGateSim::tick`] can skip its leading sweep (testbenches settle
    /// between poking and stepping, which would otherwise sweep twice per
    /// cycle).
    dirty: bool,
    q_buf: Vec<(u32, u64, u64)>,
    mw_buf: Vec<(usize, usize, Bv)>,
    coverage: Option<Box<scflow_obs::ToggleCoverage>>,
}

impl<'p> BitGateSim<'p> {
    pub(crate) fn new(prog: &'p GateProgram, lanes: u32) -> Self {
        assert!(
            (1..=64).contains(&lanes),
            "BitGateSim supports 1..=64 lanes, got {lanes}"
        );
        let nl = &*prog.nl;
        let mems = nl
            .memories()
            .iter()
            .map(|mem| {
                if mem.is_rom() {
                    return Vec::new();
                }
                let mut words = Vec::with_capacity(mem.words() * lanes as usize);
                for w in &mem.init {
                    words.extend(std::iter::repeat_n(*w, lanes as usize));
                }
                words
            })
            .collect();
        let mut sim = BitGateSim {
            prog,
            lanes,
            val: vec![0; nl.net_count()],
            unk: vec![0; nl.net_count()],
            mems,
            fault_net: NO_FAULT,
            fault_val: 0,
            stats: GateSimStats::default(),
            violations: Vec::new(),
            dirty: true,
            q_buf: Vec::new(),
            mw_buf: Vec::new(),
            coverage: None,
        };
        sim.power_on();
        sim
    }

    /// Drives constants and flop power-on values, everything else unknown,
    /// then settles.
    fn power_on(&mut self) {
        let nl = &*self.prog.nl;
        self.val.fill(0);
        self.unk.fill(!0);
        self.val[nl.const0().0] = 0;
        self.unk[nl.const0().0] = 0;
        self.val[nl.const1().0] = !0;
        self.unk[nl.const1().0] = 0;
        for inst in nl.instances() {
            if let Some(init) = inst.init {
                self.val[inst.output.0] = if init { !0 } else { 0 };
                self.unk[inst.output.0] = 0;
            }
        }
        if self.fault_net != NO_FAULT {
            self.val[self.fault_net as usize] = self.fault_val;
            self.unk[self.fault_net as usize] = 0;
        }
        self.sweep();
    }

    /// Returns the simulator to its power-on state — flop outputs at their
    /// init values, RAMs reloaded in every lane, counters, violations
    /// and any injected fault cleared — without recompiling the program.
    pub fn reset(&mut self) {
        let nl = &*self.prog.nl;
        let lanes = self.lanes as usize;
        for (words, mem) in self.mems.iter_mut().zip(nl.memories()) {
            if mem.is_rom() {
                continue;
            }
            for (a, w) in mem.init.iter().enumerate() {
                words[a * lanes..(a + 1) * lanes].fill(*w);
            }
        }
        self.fault_net = NO_FAULT;
        self.fault_val = 0;
        self.stats = GateSimStats::default();
        self.violations.clear();
        self.power_on();
        if let Some(cov) = self.coverage.as_deref_mut() {
            cov.clear();
            let (nl, val, unk) = (&*self.prog.nl, &self.val, &self.unk);
            cov.sample_with(|i| {
                let n = nl.instances()[i].output.0;
                (val[n] & 1, !unk[n] & 1)
            });
        }
    }

    /// The netlist this simulator runs.
    pub fn netlist(&self) -> &'p GateNetlist {
        &self.prog.nl
    }

    /// Number of pattern lanes.
    pub fn lanes(&self) -> u32 {
        self.lanes
    }

    /// Activity counters (`evals` counts executed instructions; `events`
    /// is not tracked by the compiled engine and stays 0).
    pub fn stats(&self) -> GateSimStats {
        self.stats
    }

    /// Recorded memory-access violations (lane 0 only).
    pub fn violations(&self) -> &[MemAccessViolation] {
        &self.violations
    }

    /// Forces the output net of `instance` to `stuck_at` in every lane,
    /// effective immediately and at every subsequent evaluation, then
    /// settles. At most one fault is active; [`BitGateSim::reset`] clears
    /// it.
    ///
    /// # Panics
    ///
    /// Panics if `instance` is out of range.
    pub fn inject_stuck_at(&mut self, instance: usize, stuck_at: bool) {
        let out = self.prog.nl.instances()[instance].output;
        self.fault_net = out.0 as u32;
        self.fault_val = if stuck_at { !0 } else { 0 };
        self.val[out.0] = self.fault_val;
        self.unk[out.0] = 0;
        self.sweep();
    }

    /// Drives an input port identically in every lane, reporting bad names
    /// or widths as errors.
    ///
    /// # Errors
    ///
    /// Fails on unknown ports or width mismatches.
    pub fn try_set_input(&mut self, name: &str, value: Bv) -> Result<(), scflow_sim_api::SimError> {
        use scflow_sim_api::SimError;
        let nl = &*self.prog.nl;
        let bits = nl
            .input_port(name)
            .ok_or_else(|| SimError::UnknownPort(name.to_string()))?;
        if bits.len() as u32 != value.width() {
            return Err(SimError::WidthMismatch {
                port: name.to_string(),
                port_width: bits.len() as u32,
                value_width: value.width(),
            });
        }
        for (i, net) in bits.to_vec().iter().enumerate() {
            let v = if value.get(i as u32) { !0 } else { 0 };
            self.set_net_planes(*net, v, 0);
        }
        Ok(())
    }

    /// Drives an input port identically in every lane.
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist or the width differs.
    pub fn set_input(&mut self, name: &str, value: Bv) {
        if let Err(e) = self.try_set_input(name, value) {
            panic!("{e}");
        }
    }

    /// Drives a single-bit input port with one known bit per lane (bit *i*
    /// of `word` = lane *i*).
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist or is wider than one bit.
    pub fn set_input_word(&mut self, name: &str, word: u64) {
        let nl = &*self.prog.nl;
        let bits = nl
            .input_port(name)
            .unwrap_or_else(|| panic!("no input port `{name}`"));
        assert_eq!(bits.len(), 1, "port `{name}` is not single-bit");
        self.set_net_planes(bits[0], word, 0);
    }

    /// Drives an input port in one lane only, leaving the other lanes
    /// untouched.
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist, the width differs, or `lane` is
    /// out of range.
    pub fn set_input_lane(&mut self, name: &str, lane: u32, value: Bv) {
        assert!(lane < self.lanes, "lane {lane} out of range");
        let nl = &*self.prog.nl;
        let bits = nl
            .input_port(name)
            .unwrap_or_else(|| panic!("no input port `{name}`"));
        assert_eq!(bits.len() as u32, value.width(), "port `{name}` width");
        let mask = 1u64 << lane;
        for (i, net) in bits.to_vec().iter().enumerate() {
            let v = self.val[net.0] & !mask;
            let v = if value.get(i as u32) { v | mask } else { v };
            let u = self.unk[net.0] & !mask;
            if self.val[net.0] != v || self.unk[net.0] != u {
                self.val[net.0] = v;
                self.unk[net.0] = u;
                self.dirty = true;
            }
        }
    }

    /// Writes a net's planes directly (white-box). The caller is
    /// responsible for the canonical form (`val & unk == 0`).
    pub fn set_net_planes(&mut self, net: GNetId, val: u64, unk: u64) {
        let val = val & !unk;
        // A poke that matches the current planes leaves the settled fixed
        // point intact — testbenches re-drive unchanged inputs every
        // cycle, and an unconditional dirty mark would force a full
        // re-sweep each time.
        if self.val[net.0] == val && self.unk[net.0] == unk {
            return;
        }
        self.val[net.0] = val;
        self.unk[net.0] = unk;
        self.dirty = true;
    }

    /// Reads a net's `(value, unknown)` planes (white-box).
    pub fn net_planes(&self, net: GNetId) -> (u64, u64) {
        (self.val[net.0], self.unk[net.0])
    }

    /// Reads a single net in lane 0 (white-box).
    pub fn peek_net(&self, net: GNetId) -> Logic {
        self.peek_net_lane(net, 0)
    }

    /// Reads a single net in one lane (white-box).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn peek_net_lane(&self, net: GNetId, lane: u32) -> Logic {
        assert!(lane < self.lanes, "lane {lane} out of range");
        if (self.unk[net.0] >> lane) & 1 != 0 {
            Logic::X
        } else {
            Logic::from_bool((self.val[net.0] >> lane) & 1 != 0)
        }
    }

    /// Reads a memory word in one lane (white-box).
    pub fn peek_mem_lane(&self, mem: usize, addr: usize, lane: u32) -> Bv {
        let image = &self.prog.nl.memories()[mem];
        if image.is_rom() {
            image.init[addr]
        } else {
            self.mems[mem][addr * self.lanes as usize + lane as usize]
        }
    }

    /// Reads an output port in lane 0; `None` while any bit is unknown.
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist.
    pub fn output(&self, name: &str) -> Option<Bv> {
        self.output_logic(name).to_bv()
    }

    /// Reads an output port in lane 0 as four-valued logic.
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist.
    pub fn output_logic(&self, name: &str) -> LogicVec {
        self.output_logic_lane(name, 0)
    }

    /// Reads an output port in one lane as four-valued logic.
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist or `lane` is out of range.
    pub fn output_logic_lane(&self, name: &str, lane: u32) -> LogicVec {
        let bits = self
            .prog
            .nl
            .output_port(name)
            .unwrap_or_else(|| panic!("no output port `{name}`"));
        bits.iter().map(|&n| self.peek_net_lane(n, lane)).collect()
    }

    /// `true` if the netlist declares an input port of this name.
    pub fn netlist_has_input(&self, name: &str) -> bool {
        self.prog.nl.input_port(name).is_some()
    }

    /// Propagates combinational logic to a fixed point. A no-op unless an
    /// input changed since the last propagation — testbenches settle every
    /// cycle whether or not they drove anything new, and one sweep over
    /// the topologically ordered stream already is the fixed point.
    pub fn settle(&mut self) {
        if self.dirty {
            self.sweep();
        }
    }

    /// One ungated sweep: the full flat instruction stream, or — while the
    /// scan enable is known-1 in every lane — the compiled shift-mode
    /// sub-program, which covers everything that can still reach
    /// architectural state or `scan_out` during a shift cycle (other nets
    /// may go stale until the first non-shift sweep recomputes them; see
    /// [`crate::compile`]).
    fn sweep(&mut self) {
        let prog = self.prog;
        match &prog.scan {
            Some(scan)
                if self.val[scan.en as usize] == !0u64 && self.unk[scan.en as usize] == 0 =>
            {
                self.exec(&scan.instrs);
            }
            _ => self.exec(&prog.instrs),
        }
    }

    /// Executes one topologically ordered instruction stream.
    fn exec(&mut self, instrs: &[Instr]) {
        let fault_net = self.fault_net;
        for instr in instrs {
            match *instr {
                Instr::Gate { kind, a, b, c, out } => {
                    let (mut v, mut u) = eval_gate(
                        kind,
                        self.val[a as usize],
                        self.unk[a as usize],
                        self.val[b as usize],
                        self.unk[b as usize],
                        self.val[c as usize],
                        self.unk[c as usize],
                    );
                    if out == fault_net {
                        v = self.fault_val;
                        u = 0;
                    }
                    self.val[out as usize] = v;
                    self.unk[out as usize] = u;
                }
                Instr::MemRead(m) => self.read_mem(m as usize),
            }
        }
        self.stats.gate_evals += instrs.len() as u64;
        self.dirty = false;
    }

    /// Re-evaluates one memory's read path in every lane.
    fn read_mem(&mut self, mi: usize) {
        let mem = &self.prog.nl.memories()[mi];
        let (dv, du) = read_port(
            mem,
            &self.mems[mi],
            self.lanes as usize,
            &self.val,
            &self.unk,
        );
        for (i, net) in mem.dout.iter().enumerate() {
            self.val[net.0] = dv[i];
            self.unk[net.0] = du[i];
        }
    }

    fn gather_lane(&self, bits: &[GNetId], lane: usize) -> Option<u64> {
        gather_lane(bits, &self.val, &self.unk, lane)
    }

    /// The `(value, unknown)` planes of every net (white-box, for the
    /// fault simulator's capture-frame reference).
    pub(crate) fn planes(&self) -> (&[u64], &[u64]) {
        (&self.val, &self.unk)
    }

    /// Every RAM's per-lane contents, `mems[m][addr * lanes + lane]`
    /// (empty for a ROM; see [`read_port`]).
    pub(crate) fn memories(&self) -> &[Vec<Bv>] {
        &self.mems
    }

    /// One clock cycle: settle, validate read addresses, sample every
    /// flop's input and the memory write ports (per lane), commit, settle
    /// — the same edge semantics as the event-driven engine.
    pub fn tick(&mut self) {
        self.settle();
        let prog = self.prog;
        let nl = &*prog.nl;
        let cycle = self.stats.cycles;
        let lanes = self.lanes as usize;

        // Checking memory model: validate each read port's *settled*
        // address at the edge. Violations are recorded for lane 0.
        for mem in nl.memories() {
            if mem.raddr.is_empty() {
                continue;
            }
            if let Some(a) = self.gather_lane(&mem.raddr, 0) {
                if a >= mem.words() as u64 {
                    self.violations.push(MemAccessViolation {
                        cycle,
                        memory: mem.name.clone(),
                        address: a,
                        write: false,
                    });
                }
            }
        }

        // Rising edge: sample flop data pins simultaneously, all lanes.
        let mut q_buf = std::mem::take(&mut self.q_buf);
        q_buf.clear();
        for &fi in &prog.flops {
            let inst = &nl.instances()[fi as usize];
            let a = inst.inputs[0].0;
            let (mut v, mut u) = match inst.kind {
                CellKind::Dff => (self.val[a], self.unk[a]),
                _ => {
                    let b = inst.inputs[1].0;
                    let c = inst.inputs[2].0;
                    eval_gate(
                        CellKind::Sdff,
                        self.val[a],
                        self.unk[a],
                        self.val[b],
                        self.unk[b],
                        self.val[c],
                        self.unk[c],
                    )
                }
            };
            let out = inst.output.0 as u32;
            if out == self.fault_net {
                v = self.fault_val;
                u = 0;
            }
            q_buf.push((out, v, u));
        }

        // Sample memory write ports, per lane (lane-0 violations only).
        let mut mw_buf = std::mem::take(&mut self.mw_buf);
        mw_buf.clear();
        for (m, mem) in nl.memories().iter().enumerate() {
            let Some(wen) = mem.wen else { continue };
            let wv = self.val[wen.0];
            let wu = self.unk[wen.0];
            if wu & 1 != 0 {
                self.violations.push(MemAccessViolation {
                    cycle,
                    memory: mem.name.clone(),
                    address: u64::MAX,
                    write: true,
                });
            }
            for lane in 0..lanes {
                let bit = 1u64 << lane;
                if wu & bit != 0 || wv & bit == 0 {
                    continue;
                }
                let addr = self.gather_lane(&mem.waddr, lane);
                let data = self.gather_lane(&mem.wdata, lane);
                match (addr, data) {
                    (Some(a), Some(d)) => {
                        let words = mem.words() as u64;
                        if a >= words && lane == 0 {
                            self.violations.push(MemAccessViolation {
                                cycle,
                                memory: mem.name.clone(),
                                address: a,
                                write: true,
                            });
                        }
                        mw_buf.push((
                            m,
                            (a % words) as usize * lanes + lane,
                            Bv::new(d, mem.width),
                        ));
                    }
                    _ => {
                        if lane == 0 {
                            self.violations.push(MemAccessViolation {
                                cycle,
                                memory: mem.name.clone(),
                                address: u64::MAX,
                                write: true,
                            });
                        }
                    }
                }
            }
        }

        // Commit flop outputs and memory writes.
        for &(out, v, u) in &q_buf {
            self.val[out as usize] = v;
            self.unk[out as usize] = u;
        }
        self.q_buf = q_buf;
        for &(m, idx, data) in &mw_buf {
            self.mems[m][idx] = data;
        }
        self.mw_buf = mw_buf;

        self.stats.cycles += 1;
        // The edge changed flop outputs and memory words directly, so
        // this propagation must run regardless of the dirty flag.
        self.sweep();
        if let Some(cov) = self.coverage.as_deref_mut() {
            let (nl, val, unk) = (&*self.prog.nl, &self.val, &self.unk);
            cov.sample_with(|i| {
                let n = nl.instances()[i].output.0;
                (val[n] & 1, !unk[n] & 1)
            });
        }
    }

    /// Runs `n` clock cycles.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.tick();
        }
    }

    /// Turns cycle-boundary toggle-coverage collection over every cell
    /// output (lane 0) on or off. Enabling primes the collector with
    /// the current settled values; disabling drops the collected map.
    /// With collection off, [`tick`](BitGateSim::tick) pays one branch
    /// for this feature.
    pub fn set_coverage(&mut self, enabled: bool) {
        if !enabled {
            self.coverage = None;
            return;
        }
        let mut cov = crate::cov::instance_coverage(&self.prog.nl);
        let (nl, val, unk) = (&*self.prog.nl, &self.val, &self.unk);
        cov.sample_with(|i| {
            let n = nl.instances()[i].output.0;
            (val[n] & 1, !unk[n] & 1)
        });
        self.coverage = Some(Box::new(cov));
    }

    /// The per-cell-output toggle-coverage map (lane 0), if collection
    /// is enabled.
    pub fn coverage(&self) -> Option<&scflow_obs::ToggleCoverage> {
        self.coverage.as_deref()
    }

    /// Captures the full simulation state — both planes of every net,
    /// every lane's RAM contents, the injected fault, counters, the
    /// lane-0 violation stream and coverage observations — as a
    /// versioned, checksummed [`Snapshot`] blob. ROMs are program data
    /// and stay out; a plane word whose lanes agree is stored as one bit
    /// and a RAM stripe whose lanes agree as one word.
    pub fn snapshot_state(&self) -> Snapshot {
        let mut w = SnapshotWriter::new("gate.bitpar", SNAP_VERSION, self.prog.content_hash());
        w.u64(u64::from(self.lanes));
        w.plane(&self.val);
        w.plane(&self.unk);
        let mut words = Vec::new();
        for (m, mem) in self.mems.iter().zip(self.prog.nl.memories()) {
            if !mem.is_rom() {
                words.clear();
                words.extend(m.iter().map(|b| b.as_u64()));
                w.stripes(&words, self.lanes as usize);
            }
        }
        w.u64(u64::from(self.fault_net));
        w.u64(self.fault_val);
        w.u64(self.stats.events);
        w.u64(self.stats.gate_evals);
        w.u64(self.stats.cycles);
        w.u64(u64::from(self.dirty));
        w.u64(self.violations.len() as u64);
        for v in &self.violations {
            w.u64(v.cycle);
            w.bytes(v.memory.as_bytes());
            w.u64(v.address);
            w.u64(u64::from(v.write));
        }
        w.u64(u64::from(self.coverage.is_some()));
        if let Some(cov) = self.coverage.as_deref() {
            w.u64s(&cov.save_state());
        }
        w.finish()
    }

    /// Restores state captured by
    /// [`snapshot_state`](BitGateSim::snapshot_state) on this engine or
    /// an identically-configured twin (same netlist, lane count and
    /// coverage configuration). Returns `false` — leaving the engine
    /// untouched — when the blob is stale or corrupt.
    pub fn restore_state(&mut self, snap: &Snapshot) -> bool {
        let Some(mut r) =
            SnapshotReader::open(snap, "gate.bitpar", SNAP_VERSION, self.prog.content_hash())
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
        let nl = &*self.prog.nl;
        for (mi, words) in state.rams {
            let width = nl.memories()[mi].width;
            for (slot, word) in self.mems[mi].iter_mut().zip(words) {
                *slot = Bv::new(word, width);
            }
        }
        self.val = state.val;
        self.unk = state.unk;
        self.fault_net = state.fault_net;
        self.fault_val = state.fault_val;
        self.stats = state.stats;
        self.dirty = state.dirty;
        self.violations = state.violations;
        true
    }

    /// Parses the fields [`snapshot_state`](BitGateSim::snapshot_state)
    /// writes, in order, checking every length against this engine's
    /// lane, net, RAM and coverage sizes before anything is allocated,
    /// and every value against the engine's invariants (canonical
    /// planes, a fault on a real net). `None` on any mismatch or a
    /// truncated, over-long or malformed blob.
    fn read_state(&self, r: &mut SnapshotReader<'_>) -> Option<SavedState> {
        let nl = &*self.prog.nl;
        if r.u64()? != u64::from(self.lanes) {
            return None;
        }
        let val = r.plane(self.val.len())?;
        let unk = r.plane(self.unk.len())?;
        if val.iter().zip(&unk).any(|(v, u)| v & u != 0) {
            return None;
        }
        let mut rams = Vec::new();
        for (mi, mem) in nl.memories().iter().enumerate() {
            if !mem.is_rom() {
                rams.push((mi, r.stripes(mem.words(), self.lanes as usize)?));
            }
        }
        let fault_net = u32::try_from(r.u64()?).ok()?;
        let fault_val = r.u64()?;
        let fault_ok = if fault_net == NO_FAULT {
            fault_val == 0
        } else {
            (fault_net as usize) < self.val.len() && (fault_val == 0 || fault_val == !0)
        };
        if !fault_ok {
            return None;
        }
        let stats = GateSimStats {
            events: r.u64()?,
            gate_evals: r.u64()?,
            cycles: r.u64()?,
        };
        let dirty = match r.u64()? {
            0 => false,
            1 => true,
            _ => return None,
        };
        let n_viol = usize::try_from(r.u64()?).ok()?;
        let mut violations = Vec::with_capacity(n_viol.min(1024));
        for _ in 0..n_viol {
            let cycle = r.u64()?;
            let memory = String::from_utf8(r.bytes()?.to_vec()).ok()?;
            let address = r.u64()?;
            let write = match r.u64()? {
                0 => false,
                1 => true,
                _ => return None,
            };
            violations.push(MemAccessViolation {
                cycle,
                memory,
                address,
                write,
            });
        }
        let cov_state = match (r.u64()?, self.coverage.as_deref()) {
            (0, None) => None,
            (1, Some(cov)) => Some(r.u64s(cov.state_len())?),
            _ => return None,
        };
        r.done().then_some(SavedState {
            val,
            unk,
            rams,
            fault_net,
            fault_val,
            stats,
            dirty,
            violations,
            cov_state,
        })
    }
}

/// A snapshot blob's fields, parsed and checked against the restoring
/// engine.
struct SavedState {
    val: Vec<u64>,
    unk: Vec<u64>,
    /// `(memory index, lane-major words)` per RAM.
    rams: Vec<(usize, Vec<u64>)>,
    fault_net: u32,
    fault_val: u64,
    stats: GateSimStats,
    dirty: bool,
    violations: Vec<MemAccessViolation>,
    cov_state: Option<Vec<u64>>,
}

impl std::fmt::Debug for BitGateSim<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BitGateSim")
            .field("netlist", &self.prog.nl.name())
            .field("lanes", &self.lanes)
            .field("cycles", &self.stats.cycles)
            .finish()
    }
}
