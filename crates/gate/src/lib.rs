//! Gate-level netlist, standard-cell library and event-driven simulator.
//!
//! This crate is the substrate standing in for the gate-level world of the
//! DATE 2004 paper: the 0.25 µm CMOS standard-cell library targeted by the
//! Synopsys tools, the gate-level Verilog netlists produced by synthesis,
//! and the event-driven HDL simulation of those netlists (the slowest bars
//! of the paper's Figure 9).
//!
//! Contents:
//!
//! * [`CellLibrary`] — a synthetic 0.25 µm-class library with per-cell
//!   area and pin-to-pin delay ([`CellLibrary::generic_025u`]),
//! * [`GateNetlist`] / [`NetlistBuilder`] — single-bit nets and cell
//!   instances, with multi-bit ports mapped to per-bit nets, plus memory
//!   *macro blocks* that stay behavioural (and are excluded from area,
//!   like the paper's `report_area` methodology),
//! * [`GateSim`] — an event-driven four-valued simulator with transport
//!   delays; its per-event cost is what makes gate-level simulation orders
//!   of magnitude slower than higher abstraction levels,
//! * [`GateProgram`] / [`BitGateSim`] — the netlist compiled once into a
//!   flat levelized instruction stream over two-plane `(value, unknown)`
//!   `u64` words: 64 independent stimulus patterns per instruction with
//!   full four-valued X-propagation, or single-pattern mode as the fastest
//!   drop-in cosimulation DUT,
//! * the **checking memory model**: out-of-range accesses are recorded,
//!   reproducing how the paper's golden-model bug was finally caught at
//!   gate level,
//! * [`insert_scan_chain`] — replaces DFFs with scan flops and stitches
//!   the chain (scan is included in the paper's area numbers),
//! * [`longest_path`] — static timing (topological longest path) used to
//!   confirm the 40 ns clock constraint,
//! * [`fault`] — stuck-at fault injection and scan-based test coverage
//!   (what the scan chain's area pays for), measured with parallel-pattern
//!   single-fault propagation (PPSFP) and fault dropping on the
//!   bit-parallel engine, over structurally collapsed fault classes, with
//!   the fault list sharded across worker threads,
//! * [`atpg`] — staged automatic test-pattern generation (random rounds
//!   with fault dropping, then a PODEM-style directed search on the
//!   capture-frame model, then reverse-order compaction) that closes the
//!   coverage loop [`fault`] can only measure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod area;
pub mod atpg;
mod bitpar;
mod celllib;
mod compile;
mod cov;
mod error;
pub mod fault;
pub mod gen;
mod gsim;
mod netlist;
pub mod passes;
mod scan;
mod simapi;
mod timing;
mod verilog;

pub use area::AreaReport;
pub use atpg::{
    generate_tests, AtpgEnvError, AtpgOptions, AtpgResult, AtpgStats, CurvePoint, FaultClass,
};
pub use bitpar::BitGateSim;
pub use celllib::{CellKind, CellLibrary, CellSpec};
pub use compile::GateProgram;
pub use error::GateError;
pub use gsim::{GateSim, GateSimStats, MemAccessViolation};
pub use netlist::{GNetId, GateMemory, GateNetlist, Instance, NetlistBuilder};
pub use passes::{optimize, NetlistStats, OptimizedNetlist, PassStats};
// The unified engine interface every simulator implements.
pub use scan::insert_scan_chain;
pub use scflow_sim_api::{EngineStats, SimError, Simulation};
pub use timing::{longest_path, TimingReport};
