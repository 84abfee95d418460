//! Register-transfer-level intermediate representation and simulator.
//!
//! This crate is the substrate standing in for the RTL HDL world of the
//! DATE 2004 paper (RTL SystemC for modelling, RTL Verilog as the synthesis
//! intermediate, ModelSim for HDL simulation). It provides:
//!
//! * an **RTL IR** — a flat synchronous netlist of typed nets, continuous
//!   (combinational) assignments, clocked registers and memories
//!   ([`Module`], [`Expr`]),
//! * a **builder** with structural validation (single drivers, width
//!   checks, combinational-cycle detection) ([`ModuleBuilder`]),
//! * an **interpreted cycle-based simulator** ([`RtlSim`]) — deliberately
//!   an interpreter, because the compiled-model vs interpreted-HDL
//!   performance gap is the mechanism behind the paper's Figures 8 and 9,
//! * a **compiled levelized engine** ([`CompiledProgram`] /
//!   [`RtlExec`]) — the "compiled C-model" side of that same gap:
//!   one-time lowering to flat bytecode over dense value slots with
//!   constant folding and activity gating. One executor, generic over
//!   its lane count, runs it in two configurations: [`CompiledSim`]
//!   (one lane, bit-identical to [`RtlSim`]) and [`BitRtlSim`] (64
//!   lanes, where one instruction dispatch drives 64 independent
//!   stimulus scenarios for sweeps; lane 0 is byte-identical to
//!   [`CompiledSim`]),
//! * a **Verilog pretty-printer** ([`Module::to_verilog`]) for the "RTL
//!   Verilog from SystemC synthesis" artefact.
//!
//! Designs are kept *flat* (hierarchy is composed at build time by prefix
//! naming) — the same normalisation a synthesis tool performs before
//! optimisation.
//!
//! # Example
//!
//! ```
//! use scflow_rtl::{ModuleBuilder, Expr};
//! use scflow_hwtypes::Bv;
//!
//! // An 8-bit accumulator with enable.
//! let mut b = ModuleBuilder::new("acc");
//! let din = b.input("din", 8);
//! let en = b.input("en", 1);
//! let acc = b.reg("acc", 8, Bv::zero(8));
//! let sum = Expr::net(acc, 8).add(Expr::net(din, 8));
//! b.set_next(acc, Expr::net(en, 1).mux(sum, Expr::net(acc, 8)));
//! b.output("q", Expr::net(acc, 8));
//! let module = b.build()?;
//!
//! let mut sim = scflow_rtl::RtlSim::new(&module);
//! sim.set_input("din", scflow_hwtypes::Bv::new(5, 8));
//! sim.set_input("en", scflow_hwtypes::Bv::new(1, 1));
//! sim.tick();
//! sim.tick();
//! assert_eq!(sim.output("q").as_u64(), 10);
//! # Ok::<(), scflow_rtl::RtlError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod compile;
mod error;
mod exec;
mod expr;
mod module;
mod opt;
mod sim;
mod simapi;
mod trace;
mod verilog;

pub use builder::ModuleBuilder;
pub use compile::CompiledProgram;
pub use error::RtlError;
pub use exec::{BitRtlSim, CompiledSim, RtlExec, RTL_LANES};
pub use expr::{BinOp, Expr, UnaryOp};
pub use module::{
    Memory, MemoryId, Module, Net, NetId, Port, PortDir, Register, RtlStats, WritePort,
};
// The pass-pipeline configuration accepted by [`CompiledProgram::compile_with`].
pub use scflow_hwtypes::PassConfig;
// The unified engine interface every simulator implements.
pub use scflow_sim_api::{EngineStats, SimError, Simulation};
pub use sim::{MemViolation, RtlSim};
