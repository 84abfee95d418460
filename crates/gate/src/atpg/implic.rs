//! The single-capture-frame circuit model behind the PODEM search.
//!
//! Scan testing reduces sequential ATPG to a combinational problem: with
//! full scan, every flip-flop state is controllable (shifted in) and
//! observable (shifted out), so one scan pattern exercises exactly one
//! *capture frame*. [`Frame`] models that frame over the levelized
//! [`GateProgram`]:
//!
//! * **assignable inputs** — primary-input port bits (minus the scan
//!   controls, which the test protocol owns) and each flop's Q net,
//!   addressed by its scan-chain position;
//! * **two four-valued planes** — the fault-free and faulted circuit are
//!   evaluated side by side with [`CellKind::eval`], the exact function
//!   the simulators use, so every value the frame predicts as known is
//!   reproduced by the engines (unassigned inputs only *refine* `X` to a
//!   known value, and four-valued evaluation is monotone under that
//!   refinement);
//! * **observation points** — the value each flop captures (its D input
//!   through the cell function, with `scan_en` pinned 0) plus the primary
//!   outputs. A fault is frame-detected when some observation is *known*
//!   in both planes and differs: the chain shift-out then exposes it.
//!
//! Memory read ports are modelled exactly: a capture cycle reads the
//! power-on (`init`) image, because [`crate::insert_scan_chain`] gates
//! every RAM write enable with `!scan_en` (shifting cannot clobber
//! contents) and a ROM never changes at all. When the read address is
//! fully known in a plane the frame computes `dout = init[addr % words]`
//! with the same wrap rule as the simulators; a partially-`X` address
//! leaves the read data `X`. The backtrace justifies a wanted read-data
//! bit by picking a word (consistent with the address bits already known)
//! whose stored bit matches, and the D-frontier propagates an address
//! difference through the read port. `Untestable` proofs remain gated on
//! RAM-free netlists: the RAM model is exact only under the write-protect
//! gate, which a hand-built scan netlist may lack, and detection claims
//! are verified by simulation regardless. Faults on flop outputs corrupt
//! the shift-out stream itself; the frame restricts their observation to
//! chain positions at or after the faulted flop (those slots reach
//! `scan_out` without passing through it).

use crate::celllib::CellKind;
use crate::compile::{net_consumers, net_producers, GateProgram, Instr, NetRows};
use crate::fault::FaultSite;
use scflow_hwtypes::Logic;

/// One assignable input of the capture frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum FrameInput {
    /// Bit `bit` of input port `port` (an index into
    /// `netlist.inputs()`), driving `net`.
    Port { port: usize, bit: usize, net: u32 },
    /// The scan-chain flop at position `pos` (its Q output is `net`).
    Chain { pos: usize, net: u32 },
}

impl FrameInput {
    /// The net this input drives.
    pub(crate) fn net(self) -> u32 {
        match self {
            FrameInput::Port { net, .. } | FrameInput::Chain { net, .. } => net,
        }
    }
}

/// The capture-frame model: one per (program, fault list) — cheap to
/// build, shared across every fault targeted on the netlist.
pub(crate) struct Frame<'p> {
    pub(crate) prog: &'p GateProgram,
    /// All assignable inputs, ports first, then chain positions.
    pub(crate) inputs: Vec<FrameInput>,
    /// Net → index into `inputs`, for backtrace termination.
    input_of_net: Vec<Option<u32>>,
    /// Net → the instruction that computes it.
    producer: Vec<Option<u32>>,
    /// Sequential instance indices in chain order (ascending instance
    /// index — the order `insert_scan_chain` stitches them).
    pub(crate) obs_flops: Vec<u32>,
    /// Primary-output bit nets, `scan_out` excluded.
    pub(crate) po_nets: Vec<u32>,
    /// Nets held at constant values during the frame: `const0`/`const1`
    /// and the scan controls (`scan_en`/`scan_in` are 0 at capture).
    pinned: Vec<(u32, Logic)>,
    /// SCOAP-style 0-/1-controllability per net, used to order backtrace
    /// choices (hardest pin first when every pin must be justified,
    /// easiest when any one suffices).
    cc: Ctrl,
    /// Net → consuming instruction indices (gate pins and read
    /// addresses), for the X-path reachability check.
    consumers: NetRows,
    /// Net → chain positions of flops taking it as their D input.
    d_obs: Vec<Vec<u32>>,
    /// Net → is a primary-output bit (`scan_out` excluded).
    po_mask: Vec<bool>,
    /// RAMs make `Untestable` verdicts unsound unless the write-protect
    /// gate is known present; ROM-only netlists are modelled exactly.
    pub(crate) has_rams: bool,
}

/// Per-net controllability estimates (SCOAP CC0/CC1, saturating).
pub(crate) struct Ctrl {
    cc0: Vec<u32>,
    cc1: Vec<u32>,
}

const CC_INF: u32 = u32::MAX / 4;

impl Ctrl {
    /// One topological pass over the levelized stream; frame inputs cost
    /// 1, pinned constants are free on their side and unreachable on the
    /// other, everything else derives from the cell function.
    fn new(prog: &GateProgram, inputs: &[FrameInput], pinned: &[(u32, Logic)]) -> Self {
        let n = prog.netlist().net_count();
        let mut cc0 = vec![CC_INF; n];
        let mut cc1 = vec![CC_INF; n];
        for inp in inputs {
            cc0[inp.net() as usize] = 1;
            cc1[inp.net() as usize] = 1;
        }
        for &(net, v) in pinned {
            let (z, o) = if v == Logic::Zero {
                (0, CC_INF)
            } else {
                (CC_INF, 0)
            };
            cc0[net as usize] = z;
            cc1[net as usize] = o;
        }
        let add = |a: u32, b: u32| a.saturating_add(b).min(CC_INF);
        for instr in &prog.instrs {
            let Instr::Gate { kind, a, b, c, out } = *instr else {
                let Instr::MemRead(m) = *instr else { continue };
                // Approximate: justify the whole read address.
                let mem = &prog.netlist().memories()[m as usize];
                let addr: u32 = mem
                    .raddr
                    .iter()
                    .map(|n| cc0[n.0].min(cc1[n.0]))
                    .fold(1, add);
                for n in &mem.dout {
                    cc0[n.0] = addr;
                    cc1[n.0] = addr;
                }
                continue;
            };
            let (a, b, c) = (a as usize, b as usize, c as usize);
            let o = out as usize;
            let (z, n1) = match kind {
                CellKind::Buf => (add(cc0[a], 1), add(cc1[a], 1)),
                CellKind::Inv => (add(cc1[a], 1), add(cc0[a], 1)),
                CellKind::And2 => (add(cc0[a].min(cc0[b]), 1), add(add(cc1[a], cc1[b]), 1)),
                CellKind::Nand2 => (add(add(cc1[a], cc1[b]), 1), add(cc0[a].min(cc0[b]), 1)),
                CellKind::Or2 => (add(add(cc0[a], cc0[b]), 1), add(cc1[a].min(cc1[b]), 1)),
                CellKind::Nor2 => (add(cc1[a].min(cc1[b]), 1), add(add(cc0[a], cc0[b]), 1)),
                CellKind::Xor2 => (
                    add(add(cc0[a], cc0[b]).min(add(cc1[a], cc1[b])), 1),
                    add(add(cc0[a], cc1[b]).min(add(cc1[a], cc0[b])), 1),
                ),
                CellKind::Xnor2 => (
                    add(add(cc0[a], cc1[b]).min(add(cc1[a], cc0[b])), 1),
                    add(add(cc0[a], cc0[b]).min(add(cc1[a], cc1[b])), 1),
                ),
                CellKind::Mux2 => (
                    add(add(cc0[c], cc0[a]).min(add(cc1[c], cc0[b])), 1),
                    add(add(cc0[c], cc1[a]).min(add(cc1[c], cc1[b])), 1),
                ),
                // out = !((a & b) | c)
                CellKind::Aoi21 => (
                    add(cc1[c].min(add(cc1[a], cc1[b])), 1),
                    add(add(cc0[c], cc0[a].min(cc0[b])), 1),
                ),
                // out = !((a | b) & c)
                CellKind::Oai21 => (
                    add(add(cc1[c], cc1[a].min(cc1[b])), 1),
                    add(cc0[c].min(add(cc0[a], cc0[b])), 1),
                ),
                _ => (CC_INF, CC_INF),
            };
            cc0[o] = z;
            cc1[o] = n1;
        }
        Ctrl { cc0, cc1 }
    }

    /// Cost of driving `net` to `val`.
    fn cost(&self, net: u32, val: bool) -> u32 {
        if val {
            self.cc1[net as usize]
        } else {
            self.cc0[net as usize]
        }
    }
}

/// The two evaluation planes of one fault's frame, together with the
/// decision stack they reflect — the state [`Frame::imply`] carries from
/// one PODEM step to the next.
pub(crate) struct FrameState {
    pub(crate) good: Vec<Logic>,
    pub(crate) faulty: Vec<Logic>,
    /// The decision stack the planes were last brought to.
    applied: Vec<(u32, bool)>,
    /// Per frame input: its value under `applied` (`None` = X).
    value: Vec<Option<bool>>,
    /// Pending re-evaluations, one bit per instruction index.
    dirty: Vec<u64>,
    /// X-path scratch: per-net visit stamps (a net is visited when its
    /// stamp equals `epoch`) and the search stack.
    stamp: Vec<u32>,
    epoch: u32,
    stack: Vec<u32>,
}

impl<'p> Frame<'p> {
    /// Builds the frame model.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has no scan chain (`scan_en` input).
    pub(crate) fn new(prog: &'p GateProgram) -> Self {
        let nl = prog.netlist();
        assert!(
            nl.input_port("scan_en").is_some(),
            "ATPG requires a scan chain; run insert_scan_chain first"
        );
        let mut inputs = Vec::new();
        for (pi, (name, bits)) in nl.inputs().iter().enumerate() {
            if name == "scan_in" || name == "scan_en" {
                continue;
            }
            for (bit, n) in bits.iter().enumerate() {
                inputs.push(FrameInput::Port {
                    port: pi,
                    bit,
                    net: n.0 as u32,
                });
            }
        }
        let obs_flops: Vec<u32> = nl
            .instances()
            .iter()
            .enumerate()
            .filter(|(_, i)| i.kind.is_sequential())
            .map(|(i, _)| i as u32)
            .collect();
        for (pos, &fi) in obs_flops.iter().enumerate() {
            inputs.push(FrameInput::Chain {
                pos,
                net: nl.instances()[fi as usize].output.0 as u32,
            });
        }
        let mut input_of_net = vec![None; nl.net_count()];
        for (idx, inp) in inputs.iter().enumerate() {
            input_of_net[inp.net() as usize] = Some(idx as u32);
        }
        let producer = net_producers(nl, &prog.instrs);
        let po_nets = nl
            .outputs()
            .iter()
            .filter(|(name, _)| name != "scan_out")
            .flat_map(|(_, bits)| bits.iter().map(|n| n.0 as u32))
            .collect();
        let mut pinned = vec![
            (nl.const0().0 as u32, Logic::Zero),
            (nl.const1().0 as u32, Logic::One),
        ];
        for name in ["scan_en", "scan_in"] {
            if let Some(bits) = nl.input_port(name) {
                for n in bits {
                    pinned.push((n.0 as u32, Logic::Zero));
                }
            }
        }
        let cc = Ctrl::new(prog, &inputs, &pinned);
        let consumers = net_consumers(nl, &prog.instrs);
        let mut d_obs: Vec<Vec<u32>> = vec![Vec::new(); nl.net_count()];
        for (pos, &fi) in obs_flops.iter().enumerate() {
            let d = nl.instances()[fi as usize].inputs[0];
            d_obs[d.0].push(pos as u32);
        }
        let mut po_mask = vec![false; nl.net_count()];
        for &n in &po_nets {
            po_mask[n as usize] = true;
        }
        Frame {
            prog,
            inputs,
            input_of_net,
            producer,
            obs_flops,
            po_nets,
            pinned,
            cc,
            consumers,
            d_obs,
            po_mask,
            has_rams: nl.memories().iter().any(|m| m.wen.is_some()),
        }
    }

    /// The fault site's output net.
    pub(crate) fn fault_net(&self, fault: FaultSite) -> u32 {
        self.prog.netlist().instances()[fault.instance].output.0 as u32
    }

    /// `Some(chain position)` when the fault sits on a flop output.
    pub(crate) fn fault_chain_pos(&self, fault: FaultSite) -> Option<usize> {
        self.obs_flops.binary_search(&(fault.instance as u32)).ok()
    }

    /// Evaluates both planes under a partial input assignment (a decision
    /// stack: a later entry for the same input wins): every net starts
    /// `X`, pinned and assigned nets are set, then one sweep of the
    /// levelized stream computes everything downstream. The faulty plane
    /// forces the fault site's output to its stuck value. This is each
    /// search's starting state and the reference [`Frame::imply`] must
    /// reproduce.
    pub(crate) fn eval(&self, fault: FaultSite, assigns: &[(u32, bool)]) -> FrameState {
        let n = self.prog.netlist().net_count();
        let mut good = vec![Logic::X; n];
        for &(net, v) in &self.pinned {
            good[net as usize] = v;
        }
        let mut value = vec![None; self.inputs.len()];
        for &(idx, v) in assigns {
            good[self.inputs[idx as usize].net() as usize] = Logic::from_bool(v);
            value[idx as usize] = Some(v);
        }
        let mut faulty = good.clone();
        if self.fault_chain_pos(fault).is_some() {
            faulty[self.fault_net(fault) as usize] = Logic::from_bool(fault.stuck_at);
        }
        let mut state = FrameState {
            good,
            faulty,
            applied: assigns.to_vec(),
            value,
            dirty: vec![0; self.prog.instrs.len().div_ceil(64)],
            stamp: Vec::new(),
            epoch: 0,
            stack: Vec::new(),
        };
        let fault_instr = self.fault_instr(fault);
        for i in 0..self.prog.instrs.len() {
            self.eval_instr(i, fault_instr, fault.stuck_at, &mut state);
        }
        state
    }

    /// Brings `state` from the decision stack it reflects to `assigns`
    /// without a full sweep: the inputs whose value differs are set, and
    /// only their fan-out is re-evaluated — in instruction (level) order,
    /// from a bitset over instruction indices, following an instruction's
    /// consumers only when one of its outputs changed. Every net whose
    /// operands did not change keeps its value, so the result equals
    /// [`Frame::eval`] of `assigns`. Returns the number of instructions
    /// re-evaluated.
    pub(crate) fn imply(
        &self,
        fault: FaultSite,
        state: &mut FrameState,
        assigns: &[(u32, bool)],
    ) -> u64 {
        let keep = state
            .applied
            .iter()
            .zip(assigns)
            .take_while(|(a, b)| a == b)
            .count();
        let stuck_net = self
            .fault_chain_pos(fault)
            .map(|_| self.fault_net(fault) as usize);
        // Marks the consumers of `net` dirty; `hi` tracks the last mark.
        let fanout = |net: usize, dirty: &mut [u64], hi: &mut usize| {
            for &c in self.consumers.row(net) {
                dirty[c as usize / 64] |= 1 << (c % 64);
                *hi = (*hi).max(c as usize);
            }
        };
        // Only inputs named in the two stacks' differing tails can change.
        let (mut lo, mut hi) = (usize::MAX, 0);
        for &(idx, _) in state.applied[keep..].iter().chain(&assigns[keep..]) {
            let v = assigns.iter().rev().find(|e| e.0 == idx).map(|e| e.1);
            if state.value[idx as usize] == v {
                continue;
            }
            state.value[idx as usize] = v;
            let net = self.inputs[idx as usize].net() as usize;
            let logic = v.map_or(Logic::X, Logic::from_bool);
            state.good[net] = logic;
            if stuck_net != Some(net) {
                state.faulty[net] = logic;
            }
            fanout(net, &mut state.dirty, &mut hi);
            if let Some(&c) = self.consumers.row(net).first() {
                lo = lo.min(c as usize);
            }
        }
        state.applied.clear();
        state.applied.extend_from_slice(assigns);
        let fault_instr = self.fault_instr(fault);
        let nl = self.prog.netlist();
        let mut evals = 0;
        let mut w = lo / 64;
        // Consumers sit later in the levelized stream than their
        // producer, so a mark never lands behind the cursor.
        while w <= hi / 64 {
            let bits = state.dirty[w];
            if bits == 0 {
                w += 1;
                continue;
            }
            state.dirty[w] = bits & (bits - 1);
            let i = w * 64 + bits.trailing_zeros() as usize;
            evals += 1;
            if !self.eval_instr(i, fault_instr, fault.stuck_at, state) {
                continue;
            }
            match self.prog.instrs[i] {
                Instr::Gate { out, .. } => fanout(out as usize, &mut state.dirty, &mut hi),
                Instr::MemRead(m) => {
                    for n in &nl.memories()[m as usize].dout {
                        fanout(n.0, &mut state.dirty, &mut hi);
                    }
                }
            }
        }
        evals
    }

    /// The instruction computing the fault site (`usize::MAX` for a
    /// flop-output fault, whose site is a frame input).
    fn fault_instr(&self, fault: FaultSite) -> usize {
        self.producer[self.fault_net(fault) as usize].map_or(usize::MAX, |x| x as usize)
    }

    /// Evaluates instruction `i` in both planes (forcing the faulty
    /// plane's output to `stuck` at `fault_instr`); returns whether any
    /// output net changed.
    #[inline]
    fn eval_instr(
        &self,
        i: usize,
        fault_instr: usize,
        stuck: bool,
        state: &mut FrameState,
    ) -> bool {
        match self.prog.instrs[i] {
            Instr::Gate { kind, a, b, c, out } => {
                let npins = kind.input_count();
                let operands = [a, b, c];
                let mut pins = [Logic::X; 3];
                let mut plane = |vals: &[Logic]| {
                    for (p, &net) in operands[..npins].iter().enumerate() {
                        pins[p] = vals[net as usize];
                    }
                    kind.eval(&pins[..npins])
                };
                let g = plane(&state.good);
                let f = if i == fault_instr {
                    Logic::from_bool(stuck)
                } else {
                    plane(&state.faulty)
                };
                let o = out as usize;
                let changed = state.good[o] != g || state.faulty[o] != f;
                state.good[o] = g;
                state.faulty[o] = f;
                changed
            }
            // A capture cycle reads the power-on image (ROM contents never
            // change; RAM writes are scan-gated), so a fully known address
            // yields exact read data.
            Instr::MemRead(m) => {
                let mem = &self.prog.netlist().memories()[m as usize];
                let mut changed = false;
                for vals in [&mut state.good, &mut state.faulty] {
                    let addr = gather_addr(&mem.raddr, vals);
                    for (bit, n) in mem.dout.iter().enumerate() {
                        let v = match addr {
                            Some(a) => {
                                let w = &mem.init[(a % mem.words() as u64) as usize];
                                Logic::from_bool(w.get(bit as u32))
                            }
                            None => Logic::X,
                        };
                        changed |= vals[n.0] != v;
                        vals[n.0] = v;
                    }
                }
                changed
            }
        }
    }

    /// Whether `pred` holds for the `(good, faulty)` pair at some valid
    /// observation point: flop capture values (restricted to chain
    /// positions at or after a faulted flop — earlier slots shift
    /// *through* it and are masked), then the primary outputs.
    fn any_observation(
        &self,
        fault: FaultSite,
        state: &FrameState,
        pred: impl Fn(Logic, Logic) -> bool,
    ) -> bool {
        let nl = self.prog.netlist();
        let min_pos = self.fault_chain_pos(fault).unwrap_or(0);
        let capture = |inst: &crate::netlist::Instance, vals: &[Logic]| {
            let mut pins = [Logic::X; 3];
            for (p, n) in inst.inputs.iter().enumerate() {
                pins[p] = vals[n.0];
            }
            inst.kind.eval(&pins[..inst.inputs.len()])
        };
        for &fi in &self.obs_flops[min_pos..] {
            let inst = &nl.instances()[fi as usize];
            let good = capture(inst, &state.good);
            let faulty = if fi as usize == fault.instance {
                // The faulted flop's own slot emerges as the stuck value.
                Logic::from_bool(fault.stuck_at)
            } else {
                capture(inst, &state.faulty)
            };
            if pred(good, faulty) {
                return true;
            }
        }
        self.po_nets
            .iter()
            .any(|&n| pred(state.good[n as usize], state.faulty[n as usize]))
    }

    /// Frame-level detection: some observation point is known in both
    /// planes and differs.
    pub(crate) fn detected(&self, fault: FaultSite, state: &FrameState) -> bool {
        self.any_observation(fault, state, |g, f| g.is_known() && f.is_known() && g != f)
    }

    /// Sound dead-branch test: under four-valued monotonicity, a pair
    /// that is known-equal now stays known-equal under any further input
    /// assignment, so once every observation pair is known-equal (or the
    /// fault can no longer be activated) no extension of this partial
    /// assignment detects the fault.
    pub(crate) fn dead(&self, fault: FaultSite, state: &FrameState) -> bool {
        let site = self.fault_net(fault) as usize;
        let g = state.good[site];
        // A combinational fault needs the opposite value at its site; a
        // flop-output fault does not (its own capture slot can differ
        // even when the loaded Q equals the stuck value).
        if self.fault_chain_pos(fault).is_none()
            && g.is_known()
            && g == Logic::from_bool(fault.stuck_at)
        {
            return true;
        }
        !self.any_observation(fault, state, |g, f| {
            !(g.is_known() && f.is_known() && g == f)
        })
    }

    /// X-path check: can a difference still reach an observation point?
    ///
    /// A net can carry a difference only if its `(good, faulty)` pair is
    /// not already known-equal — known values are frozen under further
    /// input assignment (four-valued monotonicity), so a known-equal net
    /// is a wall. Any detecting extension therefore needs a chain of
    /// carrier nets from the fault site to a primary output or a valid
    /// flop D input; when BFS finds none the branch is hopeless and the
    /// driver backtracks. (Subsumes the weaker all-observations-decided
    /// test: an undecided observation is itself carrier-reachable.)
    pub(crate) fn xpath(&self, fault: FaultSite, state: &mut FrameState) -> bool {
        let min_pos = self.fault_chain_pos(fault).unwrap_or(0) as u32;
        if let Some(j) = self.fault_chain_pos(fault) {
            // The faulted flop's own slot compares the captured good value
            // against the stuck constant: still undecided D keeps the
            // branch alive without any propagation.
            let fi = self.obs_flops[j] as usize;
            let d = self.prog.netlist().instances()[fi].inputs[0].0;
            if !state.good[d].is_known() {
                return true;
            }
        }
        let FrameState {
            good,
            faulty,
            stamp,
            epoch,
            stack,
            ..
        } = state;
        let carrier = |n: u32| {
            let (g, f) = (good[n as usize], faulty[n as usize]);
            !(g.is_known() && f.is_known() && g == f)
        };
        let site = self.fault_net(fault);
        if !carrier(site) {
            return false;
        }
        // A fresh epoch clears every visit mark at once.
        let nl = self.prog.netlist();
        *epoch = epoch.wrapping_add(1);
        if stamp.len() != nl.net_count() || *epoch == 0 {
            stamp.clear();
            stamp.resize(nl.net_count(), 0);
            *epoch = 1;
        }
        let epoch = *epoch;
        let mut visit = |n: u32, stack: &mut Vec<u32>| {
            if stamp[n as usize] != epoch && carrier(n) {
                stamp[n as usize] = epoch;
                stack.push(n);
            }
        };
        stack.clear();
        visit(site, stack);
        while let Some(n) = stack.pop() {
            if self.po_mask[n as usize] {
                return true;
            }
            if self.d_obs[n as usize].iter().any(|&pos| pos >= min_pos) {
                return true;
            }
            for &ii in self.consumers.row(n as usize) {
                match self.prog.instrs[ii as usize] {
                    Instr::Gate { out, .. } => visit(out, stack),
                    Instr::MemRead(m) => {
                        for d in &nl.memories()[m as usize].dout {
                            visit(d.0 as u32, stack);
                        }
                    }
                }
            }
        }
        false
    }

    /// The PODEM objective: a `(net, value)` the good plane should be
    /// driven to next. Before activation that is the fault site at the
    /// non-stuck value; afterwards it is an enabling side-input of a
    /// D-frontier gate (a gate with a propagated difference on some input
    /// whose output difference is still undetermined).
    pub(crate) fn objective(&self, fault: FaultSite, state: &FrameState) -> Option<(u32, bool)> {
        let site = self.fault_net(fault) as usize;
        let g = state.good[site];
        let activated = match self.fault_chain_pos(fault) {
            // Flop-output faults are activated by loading the opposite
            // value — an input assignment, not a justification problem.
            Some(_) => g.is_known(),
            None => g.is_known(),
        };
        if !activated {
            return Some((site as u32, !fault.stuck_at));
        }
        // D-frontier scan, in instruction order for determinism.
        for instr in &self.prog.instrs {
            let Instr::Gate { kind, a, b, c, out } = *instr else {
                let Instr::MemRead(m) = *instr else {
                    continue;
                };
                // An address difference propagates through a read port
                // once the rest of the address is known in both planes.
                let mem = &self.prog.netlist().memories()[m as usize];
                let diff = |n: u32| {
                    let (g, f) = (state.good[n as usize], state.faulty[n as usize]);
                    g.is_known() && f.is_known() && g != f
                };
                let any_diff = mem.raddr.iter().any(|n| diff(n.0 as u32));
                let out_known = mem
                    .dout
                    .iter()
                    .all(|n| state.good[n.0].is_known() && state.faulty[n.0].is_known());
                if any_diff && !out_known {
                    if let Some(n) = mem
                        .raddr
                        .iter()
                        .find(|n| !state.good[n.0].is_known() || !state.faulty[n.0].is_known())
                    {
                        return Some((n.0 as u32, false));
                    }
                }
                continue;
            };
            let npins = kind.input_count();
            let operands = [a, b, c];
            let diff = |n: u32| {
                let (g, f) = (state.good[n as usize], state.faulty[n as usize]);
                g.is_known() && f.is_known() && g != f
            };
            let out_known =
                state.good[out as usize].is_known() && state.faulty[out as usize].is_known();
            if out_known || !operands[..npins].iter().any(|&n| diff(n)) {
                continue;
            }
            if let Some(obj) = frontier_objective(kind, &operands[..npins], state, &diff) {
                return Some(obj);
            }
        }
        None
    }

    /// Backtraces an objective to an unassigned frame input, yielding the
    /// `(input index, value)` decision PODEM branches on. Follows one
    /// X-valued pin per gate with per-kind value rules; through a memory
    /// read port it picks a stored word (consistent with the address bits
    /// already known) whose target bit matches and pursues an unknown
    /// address bit of that word. `None` when no rule applies (the driver
    /// then backtracks).
    pub(crate) fn backtrace(
        &self,
        state: &FrameState,
        mut net: u32,
        mut val: bool,
    ) -> Option<(u32, bool)> {
        for _ in 0..=self.prog.instrs.len() {
            if let Some(idx) = self.input_of_net[net as usize] {
                return Some((idx, val));
            }
            let pi = self.producer[net as usize]?;
            let (n, v) = match self.prog.instrs[pi as usize] {
                Instr::Gate { kind, a, b, c, .. } => {
                    let operands = [a, b, c];
                    let npins = kind.input_count();
                    backtrace_step(kind, &operands[..npins], state, val, &self.cc)?
                }
                Instr::MemRead(m) => {
                    let mem = &self.prog.netlist().memories()[m as usize];
                    mem_backtrace_step(mem, net, val, state)?
                }
            };
            net = n;
            val = v;
        }
        None
    }
}

/// Assembles an address from a plane's net values; `None` if any bit is
/// unknown (or the vector is empty / wider than 64 bits, mirroring the
/// simulators' `gather_lane` / `LogicVec::to_bv` rule).
fn gather_addr(bits: &[crate::netlist::GNetId], vals: &[Logic]) -> Option<u64> {
    if bits.is_empty() || bits.len() > 64 {
        return None;
    }
    let mut out = 0u64;
    for (i, n) in bits.iter().enumerate() {
        out |= (vals[n.0].to_bool()? as u64) << i;
    }
    Some(out)
}

/// Backtrace through a read port: find the stored word that (a) agrees
/// with every address bit already known in the good plane, and (b) holds
/// `val` in the dout bit being justified; the decision is the word's
/// value for the first unknown address bit. `None` when no consistent
/// word stores `val` — the wanted bit is unjustifiable down this path.
fn mem_backtrace_step(
    mem: &crate::netlist::GateMemory,
    net: u32,
    val: bool,
    state: &FrameState,
) -> Option<(u32, bool)> {
    let bit = mem.dout.iter().position(|n| n.0 as u32 == net)? as u32;
    let known: Vec<Option<bool>> = mem
        .raddr
        .iter()
        .map(|n| state.good[n.0].to_bool())
        .collect();
    let words = mem.words() as u64;
    // Addresses beyond the word count wrap (`addr % words` in the
    // simulators), so only in-range words need scanning when the address
    // space is no wider than the memory.
    let span = if mem.raddr.len() >= 64 {
        u64::MAX
    } else {
        (1u64 << mem.raddr.len()).max(words)
    };
    for a in 0..span.min(1 << 16) {
        let consistent = known
            .iter()
            .enumerate()
            .all(|(i, k)| k.is_none_or(|k| k == ((a >> i) & 1 != 0)));
        if !consistent || mem.init[(a % words) as usize].get(bit) != val {
            continue;
        }
        if let Some(i) = known.iter().position(Option::is_none) {
            return Some((mem.raddr[i].0 as u32, (a >> i) & 1 != 0));
        }
        return None; // address fully known: dout should already be known
    }
    None
}

/// Picks the side-input objective that lets a difference through `kind`:
/// the non-controlling value for AND/OR shapes, a known select for muxes,
/// any known value for XOR shapes.
fn frontier_objective(
    kind: CellKind,
    pins: &[u32],
    state: &FrameState,
    diff: &dyn Fn(u32) -> bool,
) -> Option<(u32, bool)> {
    let x = |n: u32| !state.good[n as usize].is_known();
    let want = |n: u32, v: bool| -> Option<(u32, bool)> { x(n).then_some((n, v)) };
    match kind {
        CellKind::And2 | CellKind::Nand2 => pins.iter().find_map(|&n| want(n, true)),
        CellKind::Or2 | CellKind::Nor2 => pins.iter().find_map(|&n| want(n, false)),
        CellKind::Xor2 | CellKind::Xnor2 => pins.iter().find_map(|&n| want(n, false)),
        CellKind::Mux2 => {
            let (a, b, sel) = (pins[0], pins[1], pins[2]);
            if diff(sel) {
                // A select difference needs known, differing arms.
                want(a, false).or_else(|| want(b, true))
            } else if diff(a) {
                want(sel, false)
            } else {
                want(sel, true)
            }
        }
        CellKind::Aoi21 => {
            let (a, b, c) = (pins[0], pins[1], pins[2]);
            if diff(c) {
                // Propagate c: need a&b = 0.
                want(a, false)
                    .or_else(|| want(b, false))
                    .or_else(|| want(c, false))
            } else {
                // Propagate through the AND pair: other pin 1, c = 0.
                want(c, false).or_else(|| {
                    if diff(a) {
                        want(b, true)
                    } else {
                        want(a, true)
                    }
                })
            }
        }
        CellKind::Oai21 => {
            let (a, b, c) = (pins[0], pins[1], pins[2]);
            if diff(c) {
                // Propagate c: need a|b = 1.
                want(a, true)
                    .or_else(|| want(b, true))
                    .or_else(|| want(c, true))
            } else {
                want(c, true).or_else(|| {
                    if diff(a) {
                        want(b, false)
                    } else {
                        want(a, false)
                    }
                })
            }
        }
        _ => None,
    }
}

/// One backtrace step: which X-valued pin to pursue, and with what value,
/// to justify `val` on the output of `kind`. SCOAP controllability orders
/// the choice: when *every* pin must carry the value (AND-side 1, OR-side
/// 0) the hardest X pin goes first — if it cannot be justified the search
/// fails before wasting decisions on the easy pins — and when *any one*
/// pin suffices the cheapest X pin goes first.
fn backtrace_step(
    kind: CellKind,
    pins: &[u32],
    state: &FrameState,
    val: bool,
    cc: &Ctrl,
) -> Option<(u32, bool)> {
    let known = |n: u32| state.good[n as usize].to_bool();
    // All X pins must become `v`: pursue the hardest first.
    let all_of = |v: bool| {
        pins.iter()
            .filter(|&&n| known(n).is_none())
            .max_by_key(|&&n| cc.cost(n, v))
            .map(|&n| (n, v))
    };
    // Any one X pin at `v` suffices: pursue the cheapest.
    let any_of = |v: bool| {
        pins.iter()
            .filter(|&&n| known(n).is_none())
            .min_by_key(|&&n| cc.cost(n, v))
            .map(|&n| (n, v))
    };
    match kind {
        CellKind::Buf => Some((pins[0], val)),
        CellKind::Inv => Some((pins[0], !val)),
        CellKind::And2 => {
            if val {
                all_of(true)
            } else {
                any_of(false)
            }
        }
        CellKind::Nand2 => {
            if val {
                any_of(false)
            } else {
                all_of(true)
            }
        }
        CellKind::Or2 => {
            if val {
                any_of(true)
            } else {
                all_of(false)
            }
        }
        CellKind::Nor2 => {
            if val {
                all_of(false)
            } else {
                any_of(true)
            }
        }
        CellKind::Xor2 | CellKind::Xnor2 => {
            let flip = kind == CellKind::Xnor2;
            let (a, b) = (pins[0], pins[1]);
            match (known(a), known(b)) {
                (Some(ka), None) => Some((b, (val ^ flip) ^ ka)),
                (None, Some(kb)) => Some((a, (val ^ flip) ^ kb)),
                // Both X: settle the harder pin first, on its cheap side.
                (None, None) => {
                    let harder = |n: u32| cc.cost(n, false).min(cc.cost(n, true));
                    let n = if harder(a) >= harder(b) { a } else { b };
                    Some((n, cc.cost(n, false) > cc.cost(n, true)))
                }
                (Some(_), Some(_)) => None,
            }
        }
        CellKind::Mux2 => {
            let (a, b, sel) = (pins[0], pins[1], pins[2]);
            match known(sel) {
                Some(false) => Some((a, val)),
                Some(true) => Some((b, val)),
                None => match (known(a), known(b)) {
                    (Some(ka), _) if ka == val => Some((sel, false)),
                    (_, Some(kb)) if kb == val => Some((sel, true)),
                    (None, None) => {
                        // Steer toward the arm that is cheaper to justify.
                        if cc.cost(a, val) <= cc.cost(b, val) {
                            Some((a, val))
                        } else {
                            Some((b, val))
                        }
                    }
                    (None, _) => Some((a, val)),
                    (_, None) => Some((b, val)),
                    _ => Some((sel, false)),
                },
            }
        }
        CellKind::Aoi21 => {
            // out = !((a & b) | c)
            let (a, b, c) = (pins[0], pins[1], pins[2]);
            if !val {
                // (a&b)|c = 1: the literal or the pair, whichever costs less.
                let pair = cc.cost(a, true).saturating_add(cc.cost(b, true));
                if known(c).is_none() && cc.cost(c, true) <= pair {
                    Some((c, true))
                } else {
                    [a, b]
                        .into_iter()
                        .filter(|&n| known(n).is_none())
                        .max_by_key(|&n| cc.cost(n, true))
                        .map(|n| (n, true))
                        .or_else(|| known(c).is_none().then_some((c, true)))
                }
            } else {
                // (a&b)|c = 0: c must be 0, and one of a/b must be 0.
                if known(c).is_none() {
                    Some((c, false))
                } else {
                    [a, b]
                        .into_iter()
                        .filter(|&n| known(n).is_none())
                        .min_by_key(|&n| cc.cost(n, false))
                        .map(|n| (n, false))
                }
            }
        }
        CellKind::Oai21 => {
            // out = !((a | b) & c)
            let (a, b, c) = (pins[0], pins[1], pins[2]);
            if !val {
                // (a|b)&c = 1: c must be 1, and one of a/b must be 1.
                if known(c).is_none() {
                    Some((c, true))
                } else {
                    [a, b]
                        .into_iter()
                        .filter(|&n| known(n).is_none())
                        .min_by_key(|&n| cc.cost(n, true))
                        .map(|n| (n, true))
                }
            } else {
                // (a|b)&c = 0: the literal or the pair, whichever costs less.
                let pair = cc.cost(a, false).saturating_add(cc.cost(b, false));
                if known(c).is_none() && cc.cost(c, false) <= pair {
                    Some((c, false))
                } else {
                    [a, b]
                        .into_iter()
                        .filter(|&n| known(n).is_none())
                        .max_by_key(|&n| cc.cost(n, false))
                        .map(|n| (n, false))
                        .or_else(|| known(c).is_none().then_some((c, false)))
                }
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::all_fault_sites;
    use crate::gen::{generate, GenKind, GenParams, Redundancy};
    use crate::netlist::{GateNetlist, NetlistBuilder};
    use crate::scan::insert_scan_chain;
    use scflow_testkit::first_divergence;

    /// Random push/flip/pop walks over the frame inputs for each of
    /// `faults`; after every step the incrementally implied state must
    /// equal a full [`Frame::eval`] of the same decision stack. Pushes may
    /// name an already-assigned input, so the later-entry-wins rule is
    /// exercised too. Returns the number of steps that left some memory
    /// read-data net known in the good plane.
    fn check_walks(nl: &GateNetlist, faults: &[FaultSite], steps: usize, seed: u64) -> usize {
        let prog = GateProgram::compile(nl).expect("levelizable");
        let frame = Frame::new(&prog);
        let n_inputs = frame.inputs.len() as u64;
        let mut rng = seed | 1;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut mem_known = 0;
        for &fault in faults {
            let mut stack: Vec<(u32, bool)> = Vec::new();
            let mut state = frame.eval(fault, &[]);
            for step in 0..steps {
                // Pushes outweigh pops, so walks reach dense assignments.
                match next() % 8 {
                    0..=4 if stack.len() < 2 * n_inputs as usize => {
                        stack.push(((next() % n_inputs) as u32, next() & 1 == 1));
                    }
                    5 => {
                        if let Some(top) = stack.last_mut() {
                            top.1 = !top.1;
                        }
                    }
                    6 => {
                        stack.pop();
                    }
                    _ => stack.truncate(stack.len().saturating_sub(1 + (next() % 4) as usize)),
                }
                frame.imply(fault, &mut state, &stack);
                let reference = frame.eval(fault, &stack);
                let div = first_divergence("good", &reference.good, &state.good)
                    .or_else(|| first_divergence("faulty", &reference.faulty, &state.faulty));
                assert!(
                    div.is_none(),
                    "{}: {fault:?} step {step} stack {stack:?}: first diverging net {}",
                    nl.name(),
                    div.unwrap()
                );
                let mut mem_dout = nl.memories().iter().flat_map(|m| &m.dout);
                if mem_dout.any(|n| state.good[n.0].is_known()) {
                    mem_known += 1;
                }
            }
        }
        mem_known
    }

    /// Every `stride`-th fault site plus the first flop-output fault.
    fn sampled_faults(nl: &GateNetlist, stride: usize) -> Vec<FaultSite> {
        let all = all_fault_sites(nl);
        let mut faults: Vec<FaultSite> = all.iter().copied().step_by(stride).collect();
        let flop = all
            .iter()
            .find(|f| nl.instances()[f.instance].kind.is_sequential())
            .expect("scan-inserted netlists have flops");
        faults.push(*flop);
        faults
    }

    #[test]
    fn incremental_implication_matches_full_sweep_on_generated_families() {
        for (k, kind) in [
            GenKind::AdderTree,
            GenKind::MultTree,
            GenKind::Pipeline,
            GenKind::SrcMac,
        ]
        .into_iter()
        .enumerate()
        {
            // A small SrcMac keeps its counter-addressed memories within
            // reach of the walks (3 address bits).
            let gates = if kind == GenKind::SrcMac { 64 } else { 300 };
            let mut p = GenParams::sized(kind, gates, 0x1D1 + k as u64);
            p.redundancy = Redundancy::none();
            let nl = insert_scan_chain(&generate(&p));
            let stride = all_fault_sites(&nl).len() / 5;
            let faults = sampled_faults(&nl, stride);
            let mem_known = check_walks(&nl, &faults, 200, 0xC0FFEE + k as u64);
            if kind == GenKind::SrcMac {
                assert!(mem_known > 0, "walks never made a memory read known");
            }
        }
    }

    #[test]
    fn incremental_implication_matches_full_sweep_on_flop_output_faults() {
        let mut b = NetlistBuilder::new("walk");
        let din = b.input_port("din", 2);
        let q: Vec<_> = (0..3).map(|i| b.net(format!("q{i}"))).collect();
        let x = b.cell(CellKind::Xor2, &[q[2], din[0]]);
        let m = b.cell(CellKind::Mux2, &[q[0], din[1], q[1]]);
        let a = b.cell(CellKind::Aoi21, &[x, m, q[0]]);
        b.dff_onto(x, q[0], false);
        b.dff_onto(a, q[1], false);
        b.dff_onto(m, q[2], true);
        let y = b.cell(CellKind::Nand2, &[a, q[2]]);
        b.output_port("y", &[y]);
        let nl = insert_scan_chain(&b.build());
        let faults = all_fault_sites(&nl);
        assert!(faults
            .iter()
            .any(|f| nl.instances()[f.instance].kind.is_sequential()));
        check_walks(&nl, &faults, 120, 0x5EED);
    }
}
