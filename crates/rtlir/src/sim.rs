//! Interpreted cycle-based RTL simulation.

use crate::expr::{BinOp, Expr, UnaryOp};
use crate::module::{Module, NetId, PortDir};
use scflow_hwtypes::Bv;
use scflow_obs::ToggleCoverage;

/// An out-of-range memory access observed during simulation.
///
/// At RTL, HDL simulators silently wrap or X-out such accesses, which is
/// how the paper's golden-model bug survived down to gate level; recording
/// instead of failing preserves that behaviour while keeping the evidence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemViolation {
    /// Clock cycle at which the access happened.
    pub cycle: u64,
    /// Memory name.
    pub memory: String,
    /// The offending address.
    pub address: u64,
    /// `true` for a write, `false` for a read.
    pub write: bool,
}

/// An interpreted simulator for one [`Module`].
///
/// Usage pattern per clock cycle:
///
/// 1. [`set_input`](RtlSim::set_input) for each input,
/// 2. [`tick`](RtlSim::tick) — settles combinational logic, captures
///    register/memory inputs, commits them, settles again,
/// 3. [`output`](RtlSim::output) to observe results.
///
/// [`settle`](RtlSim::settle) is available separately for combinational
/// observation without advancing the clock.
pub struct RtlSim<'m> {
    module: &'m Module,
    nets: Vec<Bv>,
    mems: Vec<Vec<Bv>>,
    cycle: u64,
    violations: Vec<MemViolation>,
    watched: Vec<NetId>,
    history: Vec<(u64, Vec<Bv>)>,
    coverage: Option<Box<ToggleCoverage>>,
    /// When `false` (the default, matching plain HDL simulation),
    /// out-of-range accesses wrap silently. The gate-level checking memory
    /// model enables this.
    pub check_addresses: bool,
}

impl<'m> RtlSim<'m> {
    /// Creates a simulator with registers at their `init` values, inputs at
    /// zero and memories at their initial contents.
    pub fn new(module: &'m Module) -> Self {
        let mut nets: Vec<Bv> = module.nets.iter().map(|n| Bv::zero(n.width)).collect();
        for r in &module.regs {
            nets[r.q.0] = r.init;
        }
        let mems = module.mems.iter().map(|m| m.init.clone()).collect();
        let mut sim = RtlSim {
            module,
            nets,
            mems,
            cycle: 0,
            violations: Vec::new(),
            watched: Vec::new(),
            history: Vec::new(),
            coverage: None,
            check_addresses: false,
        };
        sim.settle();
        sim
    }

    /// The number of completed clock cycles.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Sets an input port's value for subsequent evaluation.
    ///
    /// # Panics
    ///
    /// Panics if no input port of that name exists or the width differs.
    pub fn set_input(&mut self, name: &str, value: Bv) {
        let port = self
            .module
            .port(name)
            .unwrap_or_else(|| panic!("no port named `{name}`"));
        assert_eq!(port.dir, PortDir::Input, "port `{name}` is not an input");
        assert_eq!(port.width, value.width(), "width mismatch on `{name}`");
        self.nets[port.net.0] = value;
    }

    /// Sets an input port's value, reporting bad names or widths as
    /// errors instead of panicking.
    ///
    /// # Errors
    ///
    /// Fails on unknown ports, non-inputs, or width mismatches.
    pub fn try_set_input(&mut self, name: &str, value: Bv) -> Result<(), scflow_sim_api::SimError> {
        use scflow_sim_api::SimError;
        let port = self
            .module
            .port(name)
            .ok_or_else(|| SimError::UnknownPort(name.to_string()))?;
        if port.dir != PortDir::Input {
            return Err(SimError::NotAnInput(name.to_string()));
        }
        if port.width != value.width() {
            return Err(SimError::WidthMismatch {
                port: name.to_string(),
                port_width: port.width,
                value_width: value.width(),
            });
        }
        self.nets[port.net.0] = value;
        Ok(())
    }

    /// Reads an output port's value, reporting bad names as errors
    /// instead of panicking.
    ///
    /// # Errors
    ///
    /// Fails on unknown ports or non-outputs.
    pub fn try_output(&self, name: &str) -> Result<Bv, scflow_sim_api::SimError> {
        use scflow_sim_api::SimError;
        let port = self
            .module
            .port(name)
            .ok_or_else(|| SimError::UnknownPort(name.to_string()))?;
        if port.dir != PortDir::Output {
            return Err(SimError::NotAnOutput(name.to_string()));
        }
        Ok(self.nets[port.net.0])
    }

    /// Reads an output port's value (after [`settle`](RtlSim::settle) or
    /// [`tick`](RtlSim::tick)).
    ///
    /// # Panics
    ///
    /// Panics if no output port of that name exists.
    pub fn output(&self, name: &str) -> Bv {
        let port = self
            .module
            .port(name)
            .unwrap_or_else(|| panic!("no port named `{name}`"));
        assert_eq!(port.dir, PortDir::Output, "port `{name}` is not an output");
        self.nets[port.net.0]
    }

    /// `true` if the module declares an input port of this name.
    pub fn module_has_input(&self, name: &str) -> bool {
        self.module
            .port(name)
            .is_some_and(|p| p.dir == PortDir::Input)
    }

    /// Reads any net by id (for white-box tests).
    pub fn peek_net(&self, net: NetId) -> Bv {
        self.nets[net.0]
    }

    /// Reads a memory word (for white-box tests).
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn peek_mem(&self, mem: crate::module::MemoryId, addr: usize) -> Bv {
        self.mems[mem.0][addr]
    }

    /// Propagates combinational logic to a fixed point (one pass in
    /// topological order suffices because cycles are rejected at build).
    pub fn settle(&mut self) {
        // Interpretation cost per assign is the "HDL simulator" cost model.
        for &i in &self.module.comb_order {
            let v = self.eval(&self.module.comb_exprs[i]);
            self.nets[self.module.comb_targets[i].0] = v;
        }
    }

    /// Advances one clock cycle: settle, sample register/memory inputs,
    /// commit, settle again.
    pub fn tick(&mut self) {
        self.settle();

        // Sample all register next-values against the settled nets.
        let next: Vec<Bv> = self
            .module
            .regs
            .iter()
            .map(|r| self.eval(&r.next))
            .collect();

        // Sample memory writes.
        let mut writes: Vec<(usize, u64, Bv)> = Vec::new();
        for (mi, m) in self.module.mems.iter().enumerate() {
            for wp in &m.write_ports {
                if self.eval(&wp.enable).any() {
                    let addr = self.eval(&wp.addr).as_u64();
                    let data = self.eval(&wp.data);
                    writes.push((mi, addr, data));
                }
            }
        }

        // Commit.
        for (r, v) in self.module.regs.iter().zip(next) {
            self.nets[r.q.0] = v;
        }
        for (mi, addr, data) in writes {
            let words = self.mems[mi].len() as u64;
            if addr < words {
                self.mems[mi][addr as usize] = data;
            } else {
                if self.check_addresses {
                    self.violations.push(MemViolation {
                        cycle: self.cycle,
                        memory: self.module.mems[mi].name.clone(),
                        address: addr,
                        write: true,
                    });
                }
                let wrapped = (addr % words) as usize;
                self.mems[mi][wrapped] = data;
            }
        }

        self.cycle += 1;
        self.settle();
        if !self.watched.is_empty() {
            let snapshot = self.watched.iter().map(|&n| self.nets[n.0]).collect();
            self.history.push((self.cycle, snapshot));
        }
        if let Some(cov) = self.coverage.as_deref_mut() {
            let nets = &self.nets;
            cov.sample_with(|i| (nets[i].as_u64(), u64::MAX));
        }
    }

    /// Runs `n` clock cycles with the current inputs.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.tick();
        }
    }

    /// Turns cycle-boundary toggle-coverage collection over every
    /// module net on or off. Enabling primes the collector with the
    /// current settled values; disabling drops the collected map. With
    /// collection off, [`tick`](RtlSim::tick) pays one branch for this
    /// feature.
    pub fn set_coverage(&mut self, enabled: bool) {
        if !enabled {
            self.coverage = None;
            return;
        }
        let mut cov =
            ToggleCoverage::new(self.module.nets.iter().map(|n| (n.name.clone(), n.width)));
        let nets = &self.nets;
        cov.sample_with(|i| (nets[i].as_u64(), u64::MAX));
        self.coverage = Some(Box::new(cov));
    }

    /// The per-net toggle-coverage map, if collection is enabled.
    pub fn coverage(&self) -> Option<&ToggleCoverage> {
        self.coverage.as_deref()
    }

    /// Out-of-range accesses recorded so far (only populated while
    /// [`check_addresses`](RtlSim::check_addresses) is enabled).
    pub fn violations(&self) -> &[MemViolation] {
        &self.violations
    }

    /// Adds a net to the waveform watch list; its value is sampled after
    /// every [`tick`](RtlSim::tick) and can be dumped with
    /// [`waveform_vcd`](RtlSim::waveform_vcd).
    pub fn watch_net(&mut self, net: NetId) {
        self.watched.push(net);
    }

    /// Convenience: watch a port by name.
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist.
    pub fn watch_port(&mut self, name: &str) {
        let port = self
            .module
            .port(name)
            .unwrap_or_else(|| panic!("no port named `{name}`"));
        self.watch_net(port.net);
    }

    /// Renders the watched nets' cycle-by-cycle history as a VCD document
    /// (`clock_period_ps` sets the timescale mapping of one cycle).
    pub fn waveform_vcd(&self, clock_period_ps: u64) -> String {
        let vars: Vec<(u32, &str)> = self
            .watched
            .iter()
            .map(|&n| (self.module.net_width(n), self.module.net_name(n)))
            .collect();
        crate::trace::render_vcd(&vars, &self.history, clock_period_ps)
    }

    fn eval(&mut self, expr: &Expr) -> Bv {
        match expr {
            Expr::Const(v) => *v,
            Expr::Net(id, _) => self.nets[id.0],
            Expr::Unary(op, a) => {
                let a = self.eval(a);
                match op {
                    UnaryOp::Not => a.not(),
                    UnaryOp::Neg => a.neg(),
                    UnaryOp::RedAnd => Bv::bit(a.as_u64() == scflow_hwtypes::mask(a.width())),
                    UnaryOp::RedOr => Bv::bit(a.any()),
                    UnaryOp::RedXor => Bv::bit(a.as_u64().count_ones() % 2 == 1),
                }
            }
            Expr::Binary(op, a, b) => {
                let a = self.eval(a);
                let b = self.eval(b);
                match op {
                    BinOp::Add => a.add(b),
                    BinOp::Sub => a.sub(b),
                    BinOp::Mul => a.mul(b),
                    BinOp::MulS => a.mul_signed(b),
                    BinOp::And => a.and(b),
                    BinOp::Or => a.or(b),
                    BinOp::Xor => a.xor(b),
                    BinOp::Shl => a.shl(b.as_u64().min(64) as u32),
                    BinOp::Shr => a.shr(b.as_u64().min(64) as u32),
                    BinOp::Sar => a.sar(b.as_u64().min(64) as u32),
                    BinOp::Eq => Bv::bit(a == b),
                    BinOp::Ne => Bv::bit(a != b),
                    BinOp::Ult => Bv::bit(a.lt(b)),
                    BinOp::Ule => Bv::bit(!b.lt(a)),
                    BinOp::Slt => Bv::bit(a.lt_signed(b)),
                    BinOp::Sle => Bv::bit(!b.lt_signed(a)),
                }
            }
            Expr::Mux(c, t, e) => {
                if self.eval(c).any() {
                    self.eval(t)
                } else {
                    self.eval(e)
                }
            }
            Expr::Slice(a, hi, lo) => self.eval(a).slice(*hi, *lo),
            Expr::Concat(a, b) => {
                let hi = self.eval(a);
                let lo = self.eval(b);
                hi.concat(lo)
            }
            Expr::Zext(a, w) => self.eval(a).zext(*w),
            Expr::Sext(a, w) => self.eval(a).sext(*w),
            Expr::ReadMem(mid, addr, w) => {
                let addr = self.eval(addr).as_u64();
                let words = self.mems[mid.0].len() as u64;
                if addr < words {
                    self.mems[mid.0][addr as usize]
                } else {
                    if self.check_addresses {
                        self.violations.push(MemViolation {
                            cycle: self.cycle,
                            memory: self.module.mems[mid.0].name.clone(),
                            address: addr,
                            write: false,
                        });
                    }
                    self.mems[mid.0][(addr % words) as usize].zext(*w)
                }
            }
        }
    }
}

impl std::fmt::Debug for RtlSim<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RtlSim")
            .field("module", &self.module.name())
            .field("cycle", &self.cycle)
            .finish()
    }
}
