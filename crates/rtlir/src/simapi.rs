//! [`Simulation`] implementations for the RTL engines.
//!
//! The interpreter and the compiled executor (at any lane count) share
//! the per-cycle protocol the trait codifies, so testbench harnesses,
//! co-simulation bridges and benchmarks can swap the interpreter for the
//! compiled engine (or its 64-lane configuration) without touching
//! driver code.

use crate::{RtlExec, RtlSim};
use scflow_hwtypes::Bv;
use scflow_sim_api::{
    BatchError, BatchReply, EngineStats, MetricsRegistry, PortHandle, SimError, Simulation,
    Snapshot, StimulusBatch, ToggleCoverage,
};

fn rtl_metrics(
    stats: EngineStats,
    prefix: &str,
    coverage: Option<&ToggleCoverage>,
) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    stats.register_into(&mut reg, prefix);
    if let Some(cov) = coverage {
        cov.register_into(&mut reg, "coverage.toggle.rtl");
    }
    reg
}

impl Simulation for RtlSim<'_> {
    fn step(&mut self) {
        self.tick();
    }

    fn settle(&mut self) {
        RtlSim::settle(self);
    }

    fn cycle(&self) -> u64 {
        RtlSim::cycle(self)
    }

    fn try_poke(&mut self, port: &str, value: Bv) -> Result<(), SimError> {
        self.try_set_input(port, value)
    }

    fn try_peek(&self, port: &str) -> Result<Bv, SimError> {
        self.try_output(port)
    }

    fn has_input(&self, port: &str) -> bool {
        self.module_has_input(port)
    }

    fn stats(&self) -> EngineStats {
        EngineStats {
            cycles: RtlSim::cycle(self),
            ..EngineStats::default()
        }
    }

    /// # Panics
    ///
    /// Panics if the port does not exist (same as
    /// [`RtlSim::watch_port`]).
    fn watch(&mut self, port: &str) {
        self.watch_port(port);
    }

    fn trace(&self, clock_period_ps: u64) -> Option<String> {
        Some(self.waveform_vcd(clock_period_ps))
    }

    fn set_coverage(&mut self, enabled: bool) -> bool {
        RtlSim::set_coverage(self, enabled);
        true
    }

    fn coverage(&self) -> Option<&ToggleCoverage> {
        RtlSim::coverage(self)
    }

    fn metrics(&self) -> Option<MetricsRegistry> {
        Some(rtl_metrics(
            Simulation::stats(self),
            "rtl.interp",
            RtlSim::coverage(self),
        ))
    }
}

impl<const N: usize> Simulation for RtlExec<'_, N> {
    fn step(&mut self) {
        self.tick();
    }

    fn settle(&mut self) {
        RtlExec::settle(self);
    }

    fn cycle(&self) -> u64 {
        RtlExec::cycle(self)
    }

    /// Broadcast poke: drives the port on every lane (lane-specific
    /// stimulus goes through
    /// [`step_batch_lanes`](Simulation::step_batch_lanes)).
    fn try_poke(&mut self, port: &str, value: Bv) -> Result<(), SimError> {
        self.try_set_input(port, value)
    }

    /// Lane-0 peek.
    fn try_peek(&self, port: &str) -> Result<Bv, SimError> {
        self.try_output(port)
    }

    fn has_input(&self, port: &str) -> bool {
        self.module_has_input(port)
    }

    fn input_handle(&self, port: &str) -> Option<PortHandle> {
        self.input_index(port).map(PortHandle::new)
    }

    fn output_handle(&self, port: &str) -> Option<PortHandle> {
        self.output_index(port).map(PortHandle::new)
    }

    fn poke_handle(&mut self, handle: PortHandle, value: Bv) {
        self.set_input_at(handle.index(), value);
    }

    fn peek_handle(&self, handle: PortHandle) -> Bv {
        self.output_at(handle.index())
    }

    fn stats(&self) -> EngineStats {
        EngineStats {
            cycles: RtlExec::cycle(self),
            evals: self.instructions_executed(),
            skipped: self.cones_skipped(),
            events: 0,
        }
    }

    /// # Panics
    ///
    /// Panics if the port does not exist (same as
    /// [`RtlExec::watch_port`]).
    fn watch(&mut self, port: &str) {
        self.watch_port(port);
    }

    fn trace(&self, clock_period_ps: u64) -> Option<String> {
        Some(self.waveform_vcd(clock_period_ps))
    }

    fn set_coverage(&mut self, enabled: bool) -> bool {
        RtlExec::set_coverage(self, enabled);
        true
    }

    fn coverage(&self) -> Option<&ToggleCoverage> {
        RtlExec::coverage(self)
    }

    fn metrics(&self) -> Option<MetricsRegistry> {
        Some(rtl_metrics(
            Simulation::stats(self),
            Self::ENGINE,
            RtlExec::coverage(self),
        ))
    }

    fn reset(&mut self) -> bool {
        RtlExec::reset(self);
        true
    }

    fn snapshot(&self) -> Option<Snapshot> {
        Some(self.snapshot_state())
    }

    fn restore(&mut self, snapshot: &Snapshot) -> bool {
        self.restore_state(snapshot)
    }

    /// Item *i* drives stimulus lane *i*; the whole batch runs in one
    /// engine pass. The batch is validated before any lane is poked, so
    /// a refused batch leaves the engine untouched. A one-lane engine
    /// has no lane-parallel stimulus and refuses lanes mode.
    fn step_batch_lanes(&mut self, batch: &StimulusBatch) -> Result<BatchReply, BatchError> {
        if N == 1 {
            return Err(BatchError::LanesUnsupported);
        }
        if batch.items.len() > N {
            return Err(BatchError::LanesOverflow {
                items: batch.items.len(),
                lanes: N as u32,
            });
        }
        let cycles = batch.items.first().map_or(0, |it| it.cycles);
        if batch.items.iter().any(|it| it.cycles != cycles) {
            return Err(BatchError::LanesMismatch);
        }
        for (i, item) in batch.items.iter().enumerate() {
            for (port, value) in &item.pokes {
                match self.port(port) {
                    Some(p) if p.input => {
                        if p.width != value.width() {
                            return Err(BatchError::Item {
                                index: Some(i),
                                message: format!(
                                    "port `{port}` is {} bits, value is {}",
                                    p.width,
                                    value.width()
                                ),
                            });
                        }
                    }
                    _ => {
                        return Err(BatchError::Item {
                            index: Some(i),
                            message: format!("no input port `{port}`"),
                        });
                    }
                }
            }
        }
        for port in &batch.read {
            if !self.port(port).is_some_and(|p| !p.input) {
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
                    .map(|port| (port.clone(), self.output_lane(port, i as u32)))
                    .collect()
            })
            .collect();
        Ok(BatchReply {
            outputs,
            cycles: RtlExec::cycle(self),
        })
    }
}
