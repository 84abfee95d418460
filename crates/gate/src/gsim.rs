//! Event-driven gate-level simulation with four-valued logic and
//! per-cell transport delays.

use crate::celllib::CellLibrary;
use crate::netlist::{GNetId, GateNetlist};
use scflow_hwtypes::{Bv, Logic, LogicVec};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// An out-of-range or unknown-address memory access caught by the
/// **checking memory model**.
///
/// The paper's golden-model bug (an invalid ring-buffer access in a corner
/// case) survived every refinement level and was only discovered when the
/// gate-level memory simulation model checked addresses — this type is that
/// check's evidence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemAccessViolation {
    /// Clock cycle of the access.
    pub cycle: u64,
    /// Memory name.
    pub memory: String,
    /// Offending address (`u64::MAX` when the address had unknown bits).
    pub address: u64,
    /// `true` for writes.
    pub write: bool,
}

/// Activity counters for a [`GateSim`] run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GateSimStats {
    /// Net value changes processed.
    pub events: u64,
    /// Individual gate evaluations.
    pub gate_evals: u64,
    /// Clock cycles simulated.
    pub cycles: u64,
}

#[derive(PartialEq, Eq)]
struct Ev {
    time: u64,
    seq: u64,
    net: GNetId,
}

impl Ord for Ev {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Clone, Copy)]
enum Fanout {
    /// Re-evaluate combinational instance `i`.
    Inst(usize),
    /// Re-evaluate memory `m`'s read path.
    MemRead(usize),
}

/// An event-driven simulator over a [`GateNetlist`].
///
/// Per clock cycle: drive inputs with [`set_input`](GateSim::set_input),
/// call [`tick`](GateSim::tick) (samples flops at the rising edge, then
/// propagates through the gate network with per-cell delays until
/// quiescent), then read outputs with [`output`](GateSim::output).
///
/// All memory macros use the checking simulation model: every access with
/// an out-of-range or unknown address is recorded
/// ([`violations`](GateSim::violations)).
pub struct GateSim<'n> {
    nl: &'n GateNetlist,
    delays: Vec<u64>,
    values: Vec<Logic>,
    /// Fanout in CSR form: targets of net `n` are
    /// `fanout_targets[fanout_offsets[n]..fanout_offsets[n+1]]`.
    fanout_offsets: Vec<u32>,
    fanout_targets: Vec<Fanout>,
    queue: BinaryHeap<Reverse<Ev>>,
    /// Inertial-delay bookkeeping: at most one live transition per net.
    /// `pending[net] = (seq, value)`; a popped event whose seq is stale
    /// was superseded by a later evaluation of the same driver.
    pending: Vec<Option<(u64, Logic)>>,
    seq: u64,
    now: u64,
    mems: Vec<Vec<Bv>>,
    stats: GateSimStats,
    violations: Vec<MemAccessViolation>,
    /// Injected stuck-at faults: instance index -> forced output value.
    faults: std::collections::HashMap<usize, Logic>,
    coverage: Option<Box<scflow_obs::ToggleCoverage>>,
    /// Safety cap on events per tick (a quiet netlist never approaches it).
    pub max_events_per_tick: u64,
}

impl<'n> GateSim<'n> {
    /// Creates a simulator: flop outputs at their power-on values,
    /// constants driven, everything else unknown until driven.
    pub fn new(nl: &'n GateNetlist, lib: &CellLibrary) -> Self {
        let delays = nl
            .instances
            .iter()
            .map(|i| lib.delay(i.kind))
            .collect::<Vec<_>>();

        let mut fanout: Vec<Vec<Fanout>> = vec![Vec::new(); nl.net_count()];
        for (idx, inst) in nl.instances.iter().enumerate() {
            if inst.kind.is_sequential() {
                continue; // flop inputs are sampled at the edge, not propagated
            }
            for &i in &inst.inputs {
                fanout[i.0].push(Fanout::Inst(idx));
            }
        }
        for (m, mem) in nl.memories.iter().enumerate() {
            for &a in &mem.raddr {
                fanout[a.0].push(Fanout::MemRead(m));
            }
        }
        // Flatten to CSR so event processing never clones.
        let mut fanout_offsets = Vec::with_capacity(nl.net_count() + 1);
        let mut fanout_targets = Vec::new();
        fanout_offsets.push(0u32);
        for list in &fanout {
            fanout_targets.extend_from_slice(list);
            fanout_offsets.push(fanout_targets.len() as u32);
        }

        let mut sim = GateSim {
            nl,
            delays,
            values: vec![Logic::X; nl.net_count()],
            fanout_offsets,
            fanout_targets,
            queue: BinaryHeap::new(),
            pending: vec![None; nl.net_count()],
            seq: 0,
            now: 0,
            mems: nl.memories.iter().map(|m| m.init.clone()).collect(),
            stats: GateSimStats::default(),
            violations: Vec::new(),
            faults: std::collections::HashMap::new(),
            coverage: None,
            max_events_per_tick: 50_000_000,
        };
        sim.power_on();
        sim
    }

    /// Returns the simulator to its power-on state — flop outputs at their
    /// init values, memories reloaded, everything else unknown, counters,
    /// violations and injected faults cleared — without rebuilding the
    /// fanout tables.
    pub fn reset(&mut self) {
        self.values.fill(Logic::X);
        self.queue.clear();
        self.pending.fill(None);
        self.seq = 0;
        self.now = 0;
        for (m, mem) in self.nl.memories.iter().enumerate() {
            self.mems[m].clone_from(&mem.init);
        }
        self.stats = GateSimStats::default();
        self.violations.clear();
        self.faults.clear();
        self.power_on();
        if let Some(cov) = self.coverage.as_deref_mut() {
            cov.clear();
            let (nl, values) = (self.nl, &self.values);
            cov.sample_with(|i| crate::cov::logic_sample(values[nl.instances[i].output.0]));
        }
    }

    /// Drives constants and power-on flop values into a fresh value array.
    fn power_on(&mut self) {
        let nl = self.nl;
        self.values[nl.const0.0] = Logic::Zero;
        self.values[nl.const1.0] = Logic::One;
        // Power-on flop values, propagated like events so downstream logic
        // observes them.
        for inst in &nl.instances {
            if let Some(init) = inst.init {
                self.schedule(0, inst.output, Logic::from_bool(init));
            }
        }
        // Trigger constant fanout.
        for c in [nl.const0, nl.const1] {
            let range = self.fanout_range(c);
            for i in range {
                let f = self.fanout_targets[i];
                self.eval_target(f, 0);
            }
        }
        self.settle();
    }

    /// The current simulated gate-level time in ps (monotonic).
    pub fn now_ps(&self) -> u64 {
        self.now
    }

    /// The netlist this simulator runs.
    pub fn netlist(&self) -> &'n GateNetlist {
        self.nl
    }

    /// Activity counters.
    pub fn stats(&self) -> GateSimStats {
        self.stats
    }

    /// Recorded memory-access violations.
    pub fn violations(&self) -> &[MemAccessViolation] {
        &self.violations
    }

    /// Injects a single stuck-at fault on an instance output (see
    /// [`crate::fault`]). The forced value applies from the next
    /// evaluation onward.
    ///
    /// # Panics
    ///
    /// Panics if `instance` is out of range.
    pub fn inject_stuck_at(&mut self, instance: usize, stuck_at: bool) {
        assert!(instance < self.nl.instances().len(), "no such instance");
        let v = Logic::from_bool(stuck_at);
        self.faults.insert(instance, v);
        let out = self.nl.instances()[instance].output;
        self.schedule(0, out, v);
        self.settle();
    }

    /// Drives an input port.
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist or the width differs.
    pub fn set_input(&mut self, name: &str, value: Bv) {
        let bits = self
            .nl
            .input_port(name)
            .unwrap_or_else(|| panic!("no input port `{name}`"))
            .to_vec();
        assert_eq!(
            bits.len() as u32,
            value.width(),
            "width mismatch on `{name}`"
        );
        for (i, net) in bits.iter().enumerate() {
            self.schedule(0, *net, Logic::from_bool(value.get(i as u32)));
        }
    }

    /// Reads an output port; `None` while any bit is unknown.
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist.
    pub fn output(&self, name: &str) -> Option<Bv> {
        let bits = self
            .nl
            .output_port(name)
            .unwrap_or_else(|| panic!("no output port `{name}`"));
        let lv: LogicVec = bits.iter().map(|n| self.values[n.0]).collect();
        lv.to_bv()
    }

    /// Reads an output port as four-valued logic.
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist.
    pub fn output_logic(&self, name: &str) -> LogicVec {
        let bits = self
            .nl
            .output_port(name)
            .unwrap_or_else(|| panic!("no output port `{name}`"));
        bits.iter().map(|n| self.values[n.0]).collect()
    }

    /// `true` if the netlist declares an input port of this name.
    pub fn netlist_has_input(&self, name: &str) -> bool {
        self.nl.input_port(name).is_some()
    }

    /// Reads a single net (white-box).
    pub fn peek_net(&self, net: GNetId) -> Logic {
        self.values[net.0]
    }

    /// Propagates all pending events until the network is quiescent.
    ///
    /// Delays are *inertial*: re-evaluating a driver before its pending
    /// output transition fires replaces that transition, so glitch trains
    /// are suppressed as in a real gate-level simulator (pure transport
    /// delay makes multiplier glitching explode combinatorially).
    pub fn settle(&mut self) {
        let mut budget = self.max_events_per_tick;
        while let Some(Reverse(ev)) = self.queue.pop() {
            self.now = self.now.max(ev.time);
            let value = match self.pending[ev.net.0] {
                Some((seq, v)) if seq == ev.seq => v,
                _ => continue, // superseded by a later evaluation
            };
            self.pending[ev.net.0] = None;
            if self.values[ev.net.0] == value {
                continue;
            }
            self.values[ev.net.0] = value;
            self.stats.events += 1;
            budget = budget.checked_sub(1).unwrap_or_else(|| {
                panic!(
                    "event budget exhausted — combinational loop in {}?",
                    self.nl.name()
                )
            });
            let range = self.fanout_range(ev.net);
            for i in range {
                let f = self.fanout_targets[i];
                self.eval_target(f, ev.time);
            }
        }
    }

    /// One clock cycle: sample every flop's input, propagate new Q values
    /// and all resulting activity, commit memory writes.
    pub fn tick(&mut self) {
        self.settle();

        // Checking memory model: validate each read port's *settled*
        // address at the edge, where the read data is consumed.
        let cycle = self.stats.cycles;
        for mem in self.nl.memories.iter() {
            if mem.raddr.is_empty() {
                continue;
            }
            let addr_lv: LogicVec = mem.raddr.iter().map(|n| self.values[n.0]).collect();
            if let Some(addr) = addr_lv.to_bv() {
                let a = addr.as_u64();
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

        // Rising edge: sample flop data pins simultaneously.
        let mut q_updates: Vec<(GNetId, Logic, u64)> = Vec::new();
        for (idx, inst) in self.nl.instances.iter().enumerate() {
            if !inst.kind.is_sequential() {
                continue;
            }
            let ins: Vec<Logic> = inst.inputs.iter().map(|i| self.values[i.0]).collect();
            let newq = match self.faults.get(&idx) {
                Some(&f) => f,
                None => inst.kind.eval(&ins),
            };
            q_updates.push((inst.output, newq, self.delays[idx]));
        }

        // Sample memory write ports.
        let mut mem_writes: Vec<(usize, u64, Bv)> = Vec::new();
        for (m, mem) in self.nl.memories.iter().enumerate() {
            let Some(wen) = mem.wen else { continue };
            match self.values[wen.0] {
                Logic::One => {}
                Logic::Zero => continue,
                _ => {
                    self.violations.push(MemAccessViolation {
                        cycle,
                        memory: mem.name.clone(),
                        address: u64::MAX,
                        write: true,
                    });
                    continue;
                }
            }
            let addr_lv: LogicVec = mem.waddr.iter().map(|n| self.values[n.0]).collect();
            let data_lv: LogicVec = mem.wdata.iter().map(|n| self.values[n.0]).collect();
            match (addr_lv.to_bv(), data_lv.to_bv()) {
                (Some(addr), Some(data)) => {
                    let a = addr.as_u64();
                    if a < mem.words() as u64 {
                        mem_writes.push((m, a, data));
                    } else {
                        self.violations.push(MemAccessViolation {
                            cycle,
                            memory: mem.name.clone(),
                            address: a,
                            write: true,
                        });
                        mem_writes.push((m, a % mem.words() as u64, data));
                    }
                }
                _ => self.violations.push(MemAccessViolation {
                    cycle,
                    memory: mem.name.clone(),
                    address: u64::MAX,
                    write: true,
                }),
            }
        }

        // Commit flop outputs (clk→Q delay) and memory writes.
        for (q, v, d) in q_updates {
            self.schedule(d, q, v);
        }
        let dirty_mems: Vec<usize> = mem_writes.iter().map(|(m, _, _)| *m).collect();
        for (m, a, data) in mem_writes {
            self.mems[m][a as usize] = data;
        }
        for m in dirty_mems {
            self.refresh_mem_read(m, 0);
        }

        self.stats.cycles += 1;
        self.settle();
        if let Some(cov) = self.coverage.as_deref_mut() {
            let (nl, values) = (self.nl, &self.values);
            cov.sample_with(|i| crate::cov::logic_sample(values[nl.instances[i].output.0]));
        }
    }

    /// Runs `n` clock cycles.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.tick();
        }
    }

    /// Turns cycle-boundary toggle-coverage collection over every cell
    /// output on or off. Enabling primes the collector with the current
    /// settled values; disabling drops the collected map. With
    /// collection off, [`tick`](GateSim::tick) pays one branch for this
    /// feature.
    pub fn set_coverage(&mut self, enabled: bool) {
        if !enabled {
            self.coverage = None;
            return;
        }
        let mut cov = crate::cov::instance_coverage(self.nl);
        let (nl, values) = (self.nl, &self.values);
        cov.sample_with(|i| crate::cov::logic_sample(values[nl.instances[i].output.0]));
        self.coverage = Some(Box::new(cov));
    }

    /// The per-cell-output toggle-coverage map, if collection is
    /// enabled.
    pub fn coverage(&self) -> Option<&scflow_obs::ToggleCoverage> {
        self.coverage.as_deref()
    }

    fn schedule(&mut self, delay: u64, net: GNetId, value: Logic) {
        // No change and nothing in flight: nothing to do.
        if self.pending[net.0].is_none() && self.values[net.0] == value {
            return;
        }
        let seq = self.seq;
        self.seq += 1;
        self.pending[net.0] = Some((seq, value));
        self.queue.push(Reverse(Ev {
            time: self.now + delay,
            seq,
            net,
        }));
    }

    fn fanout_range(&self, net: GNetId) -> std::ops::Range<usize> {
        self.fanout_offsets[net.0] as usize..self.fanout_offsets[net.0 + 1] as usize
    }

    fn eval_target(&mut self, f: Fanout, time: u64) {
        match f {
            Fanout::Inst(idx) => {
                let inst = &self.nl.instances[idx];
                let mut buf = [Logic::X; 3];
                let n = inst.inputs.len();
                for (slot, i) in buf.iter_mut().zip(&inst.inputs) {
                    *slot = self.values[i.0];
                }
                let out = match self.faults.get(&idx) {
                    Some(&f) => f,
                    None => inst.kind.eval(&buf[..n]),
                };
                self.stats.gate_evals += 1;
                let (output, delay) = (inst.output, self.delays[idx]);
                // Inertial scheduling relative to the triggering event's
                // time: supersedes any in-flight transition on the output.
                let at = time + delay;
                if self.pending[output.0].is_none() && self.values[output.0] == out {
                    return;
                }
                let seq = self.seq;
                self.seq += 1;
                self.pending[output.0] = Some((seq, out));
                self.queue.push(Reverse(Ev {
                    time: at,
                    seq,
                    net: output,
                }));
            }
            Fanout::MemRead(m) => self.refresh_mem_read(m, time.saturating_sub(self.now)),
        }
    }

    fn refresh_mem_read(&mut self, m: usize, extra_delay: u64) {
        let mem = &self.nl.memories[m];
        let addr_lv: LogicVec = mem.raddr.iter().map(|n| self.values[n.0]).collect();
        let delay = mem.read_delay_ps + extra_delay;
        // Combinational reads wrap silently; the checking model validates
        // the address at the clock edge (see `tick`), when the value is
        // actually consumed — transient glitch addresses are not accesses.
        let word: Option<Bv> = addr_lv.to_bv().map(|addr| {
            let a = addr.as_u64();
            self.mems[m][(a % mem.words() as u64) as usize]
        });
        let dout = mem.dout.clone();
        match word {
            Some(w) => {
                for (i, net) in dout.iter().enumerate() {
                    self.schedule(delay, *net, Logic::from_bool(w.get(i as u32)));
                }
            }
            None => {
                for net in dout {
                    self.schedule(delay, net, Logic::X);
                }
            }
        }
    }

    /// Reads a memory word (white-box).
    pub fn peek_mem(&self, mem: usize, addr: usize) -> Bv {
        self.mems[mem][addr]
    }
}

impl std::fmt::Debug for GateSim<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GateSim")
            .field("netlist", &self.nl.name())
            .field("cycles", &self.stats.cycles)
            .field("events", &self.stats.events)
            .finish()
    }
}
