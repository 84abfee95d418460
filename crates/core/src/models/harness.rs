//! Shared testbench plumbing for synthesisable SRC modules (RTL and
//! gate level), using the flow's standard port convention:
//! `in_sample[16]` (+`_valid`/`_ready` or `_strobe`) and `out_sample[16]`
//! (+`_valid`/`_ready` or `_strobe`).
//!
//! The harness drives any engine through the unified
//! [`Simulation`] trait — the interpreted RTL simulator, the compiled
//! levelized engine, and both gate-level simulators all qualify, so
//! the same testbench validates every artefact of the flow.

use scflow_hwtypes::Bv;
use scflow_sim_api::{PortHandle, Simulation};

/// Ties off the scan chain if the DUT has one (gate-level netlists do).
fn tie_off_scan(sim: &mut (impl Simulation + ?Sized)) {
    if sim.has_input("scan_en") {
        sim.poke("scan_en", Bv::zero(1));
        sim.poke("scan_in", Bv::zero(1));
    }
    if sim.has_input("test_mode") {
        sim.poke("test_mode", Bv::zero(1));
    }
}

/// A harness-side port reference: a resolved [`PortHandle`] when the
/// engine issues them, the port name otherwise. Resolving once outside
/// the cycle loop keeps string lookups off the hot path for engines with
/// an indexed port table, with no behaviour change for the rest.
#[derive(Clone, Copy)]
struct PortRef<'n> {
    name: &'n str,
    handle: Option<PortHandle>,
}

impl<'n> PortRef<'n> {
    fn input(sim: &(impl Simulation + ?Sized), name: &'n str) -> Self {
        PortRef {
            name,
            handle: sim.input_handle(name),
        }
    }

    fn output(sim: &(impl Simulation + ?Sized), name: &'n str) -> Self {
        PortRef {
            name,
            handle: sim.output_handle(name),
        }
    }

    fn poke(self, sim: &mut (impl Simulation + ?Sized), value: Bv) {
        match self.handle {
            Some(h) => sim.poke_handle(h, value),
            None => sim.poke(self.name, value),
        }
    }

    fn peek(self, sim: &(impl Simulation + ?Sized)) -> Bv {
        match self.handle {
            Some(h) => sim.peek_handle(h),
            None => sim.peek(self.name),
        }
    }
}

/// Runs a handshaked (superstate) SRC DUT: presents `input` beats on
/// `in_sample` as accepted, keeps `out_sample_ready` high, collects
/// `expected` outputs within `max_cycles`.
///
/// Returns `(outputs, cycles_used)`.
pub fn run_handshake(
    sim: &mut (impl Simulation + ?Sized),
    input: &[i16],
    expected: usize,
    max_cycles: u64,
) -> (Vec<i16>, u64) {
    tie_off_scan(sim);
    sim.poke("out_sample_ready", Bv::bit(true));
    let in_sample = PortRef::input(sim, "in_sample");
    let in_valid = PortRef::input(sim, "in_sample_valid");
    let in_ready = PortRef::output(sim, "in_sample_ready");
    let out_valid = PortRef::output(sim, "out_sample_valid");
    let out_sample = PortRef::output(sim, "out_sample");
    let mut outputs = Vec::with_capacity(expected);
    let mut pos = 0usize;
    let mut cycles = 0u64;
    // Drive the inputs only when they change; poking the held value every
    // cycle is redundant (every engine treats an unchanged poke as a
    // no-op, this just skips the port lookup).
    let mut driven_pos: Option<usize> = None;
    let mut driven_valid: Option<bool> = None;
    while cycles < max_cycles && outputs.len() < expected {
        let valid = pos < input.len();
        if valid && driven_pos != Some(pos) {
            in_sample.poke(sim, Bv::from_i64(i64::from(input[pos]), 16));
            driven_pos = Some(pos);
        }
        if driven_valid != Some(valid) {
            in_valid.poke(sim, Bv::bit(valid));
            driven_valid = Some(valid);
        }
        sim.settle();
        let consumed = pos < input.len() && in_ready.peek(sim).any();
        let produced = out_valid.peek(sim).any().then(|| out_sample.peek(sim));
        sim.step();
        cycles += 1;
        if consumed {
            pos += 1;
        }
        if let Some(v) = produced {
            outputs.push(v.as_i64() as i16);
        }
    }
    (outputs, cycles)
}

/// Runs a fixed-cycle (strobed) SRC DUT: supplies the next input sample
/// whenever `in_sample_strobe` fires, samples `out_sample` at
/// `out_sample_strobe`.
pub fn run_fixed(
    sim: &mut (impl Simulation + ?Sized),
    input: &[i16],
    expected: usize,
    max_cycles: u64,
) -> (Vec<i16>, u64) {
    tie_off_scan(sim);
    let in_sample = PortRef::input(sim, "in_sample");
    let in_strobe = PortRef::output(sim, "in_sample_strobe");
    let out_strobe = PortRef::output(sim, "out_sample_strobe");
    let out_sample = PortRef::output(sim, "out_sample");
    let mut outputs = Vec::with_capacity(expected);
    let mut iter = input.iter();
    if let Some(&first) = iter.next() {
        in_sample.poke(sim, Bv::from_i64(i64::from(first), 16));
    }
    let mut cycles = 0u64;
    while cycles < max_cycles && outputs.len() < expected {
        sim.settle();
        let consumed = in_strobe.peek(sim).any();
        let produced = out_strobe.peek(sim).any().then(|| out_sample.peek(sim));
        sim.step();
        cycles += 1;
        if consumed {
            if let Some(&next) = iter.next() {
                in_sample.poke(sim, Bv::from_i64(i64::from(next), 16));
            }
        }
        if let Some(v) = produced {
            outputs.push(v.as_i64() as i16);
        }
    }
    (outputs, cycles)
}
