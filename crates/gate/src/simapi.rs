//! [`Simulation`] implementations for the gate-level engines.
//!
//! Both engines follow the same per-cycle protocol as the RTL
//! simulators. Output reads follow the flow's testbench convention:
//! unknown bits read as zero (use
//! [`GateSim::output_logic`](crate::GateSim::output_logic) /
//! [`BitGateSim::output_logic`](crate::BitGateSim::output_logic) when the
//! four-valued view matters). The bit-parallel engine participates as a
//! single-pattern (lane 0) simulator; pokes broadcast to every lane and
//! peeks read lane 0.

use crate::{BitGateSim, GateSim};
use scflow_hwtypes::Bv;
use scflow_sim_api::{
    BatchError, BatchReply, EngineStats, MetricsRegistry, SimError, Simulation, Snapshot,
    StimulusBatch, ToggleCoverage,
};

fn gate_metrics(
    stats: EngineStats,
    prefix: &str,
    coverage: Option<&ToggleCoverage>,
) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    stats.register_into(&mut reg, prefix);
    if let Some(cov) = coverage {
        cov.register_into(&mut reg, "coverage.toggle.gate");
    }
    reg
}

impl GateSim<'_> {
    /// Drives an input port, reporting bad names or widths as errors.
    ///
    /// # Errors
    ///
    /// Fails on unknown ports or width mismatches.
    pub fn try_set_input(&mut self, name: &str, value: Bv) -> Result<(), SimError> {
        let width = self
            .netlist()
            .input_port(name)
            .ok_or_else(|| SimError::UnknownPort(name.to_string()))?
            .len() as u32;
        if width != value.width() {
            return Err(SimError::WidthMismatch {
                port: name.to_string(),
                port_width: width,
                value_width: value.width(),
            });
        }
        self.set_input(name, value);
        Ok(())
    }
}

fn peek_gate(
    bits: Option<&[crate::GNetId]>,
    read: impl Fn(crate::GNetId) -> scflow_hwtypes::Logic,
    name: &str,
) -> Result<Bv, SimError> {
    let bits = bits.ok_or_else(|| SimError::UnknownPort(name.to_string()))?;
    let lv: scflow_hwtypes::LogicVec = bits.iter().map(|&n| read(n)).collect();
    Ok(lv.to_bv().unwrap_or_else(|| Bv::zero(bits.len() as u32)))
}

impl Simulation for GateSim<'_> {
    fn step(&mut self) {
        self.tick();
    }

    fn settle(&mut self) {
        GateSim::settle(self);
    }

    fn cycle(&self) -> u64 {
        self.stats().cycles
    }

    fn try_poke(&mut self, port: &str, value: Bv) -> Result<(), SimError> {
        self.try_set_input(port, value)
    }

    fn try_peek(&self, port: &str) -> Result<Bv, SimError> {
        peek_gate(self.netlist().output_port(port), |n| self.peek_net(n), port)
    }

    fn has_input(&self, port: &str) -> bool {
        self.netlist_has_input(port)
    }

    fn stats(&self) -> EngineStats {
        let s = GateSim::stats(self);
        EngineStats {
            cycles: s.cycles,
            evals: s.gate_evals,
            skipped: 0,
            events: s.events,
        }
    }

    fn reset(&mut self) -> bool {
        GateSim::reset(self);
        true
    }

    fn set_coverage(&mut self, enabled: bool) -> bool {
        GateSim::set_coverage(self, enabled);
        true
    }

    fn coverage(&self) -> Option<&ToggleCoverage> {
        GateSim::coverage(self)
    }

    fn metrics(&self) -> Option<MetricsRegistry> {
        Some(gate_metrics(
            Simulation::stats(self),
            "gate.event",
            GateSim::coverage(self),
        ))
    }
}

impl Simulation for BitGateSim<'_> {
    fn step(&mut self) {
        self.tick();
    }

    fn settle(&mut self) {
        BitGateSim::settle(self);
    }

    fn cycle(&self) -> u64 {
        BitGateSim::stats(self).cycles
    }

    fn try_poke(&mut self, port: &str, value: Bv) -> Result<(), SimError> {
        self.try_set_input(port, value)
    }

    fn try_peek(&self, port: &str) -> Result<Bv, SimError> {
        peek_gate(self.netlist().output_port(port), |n| self.peek_net(n), port)
    }

    fn has_input(&self, port: &str) -> bool {
        self.netlist_has_input(port)
    }

    fn stats(&self) -> EngineStats {
        let s = BitGateSim::stats(self);
        EngineStats {
            cycles: s.cycles,
            evals: s.gate_evals,
            skipped: 0,
            events: s.events,
        }
    }

    fn reset(&mut self) -> bool {
        BitGateSim::reset(self);
        true
    }

    fn set_coverage(&mut self, enabled: bool) -> bool {
        BitGateSim::set_coverage(self, enabled);
        true
    }

    fn coverage(&self) -> Option<&ToggleCoverage> {
        BitGateSim::coverage(self)
    }

    fn metrics(&self) -> Option<MetricsRegistry> {
        Some(gate_metrics(
            Simulation::stats(self),
            "gate.bitpar",
            BitGateSim::coverage(self),
        ))
    }

    fn snapshot(&self) -> Option<Snapshot> {
        Some(self.snapshot_state())
    }

    fn restore(&mut self, snapshot: &Snapshot) -> bool {
        self.restore_state(snapshot)
    }

    /// Item *i* drives stimulus lane *i*; the whole batch runs in one
    /// engine pass. The batch is validated before any lane is poked, so
    /// a refused batch leaves the engine untouched. Output bits unknown
    /// in a lane read as zero, matching [`Simulation::try_peek`].
    fn step_batch_lanes(&mut self, batch: &StimulusBatch) -> Result<BatchReply, BatchError> {
        let lanes = BitGateSim::lanes(self);
        if batch.items.len() > lanes as usize {
            return Err(BatchError::LanesOverflow {
                items: batch.items.len(),
                lanes,
            });
        }
        let cycles = batch.items.first().map_or(0, |it| it.cycles);
        if batch.items.iter().any(|it| it.cycles != cycles) {
            return Err(BatchError::LanesMismatch);
        }
        for (i, item) in batch.items.iter().enumerate() {
            for (port, value) in &item.pokes {
                match self.netlist().input_port(port) {
                    None => {
                        return Err(BatchError::Item {
                            index: Some(i),
                            message: format!("no input port `{port}`"),
                        });
                    }
                    Some(bits) if bits.len() as u32 != value.width() => {
                        return Err(BatchError::Item {
                            index: Some(i),
                            message: format!(
                                "port `{port}` is {} bits, value is {}",
                                bits.len(),
                                value.width()
                            ),
                        });
                    }
                    Some(_) => {}
                }
            }
        }
        for port in &batch.read {
            if self.netlist().output_port(port).is_none() {
                return Err(BatchError::Item {
                    index: None,
                    message: format!("no output port `{port}`"),
                });
            }
        }
        for (i, item) in batch.items.iter().enumerate() {
            for (port, value) in &item.pokes {
                self.set_input_lane(port, i as u32, *value);
            }
        }
        self.run(cycles);
        let outputs = (0..batch.items.len())
            .map(|i| {
                batch
                    .read
                    .iter()
                    .map(|port| {
                        let lv = self.output_logic_lane(port, i as u32);
                        let width = lv.width() as u32;
                        (port.clone(), lv.to_bv().unwrap_or_else(|| Bv::zero(width)))
                    })
                    .collect()
            })
            .collect();
        Ok(BatchReply {
            outputs,
            cycles: BitGateSim::stats(self).cycles,
        })
    }
}
