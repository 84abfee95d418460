//! `scflow` — a refinement-driven, SystemC-style design flow, reproduced
//! in Rust on the design the DATE 2004 paper evaluated: an automotive
//! audio **sample-rate converter** (SRC).
//!
//! The paper (*Evaluation of a Refinement-Driven SystemC-Based Design
//! Flow*, Schubert et al., DATE 2004) takes one design through a chain of
//! manual refinements inside a single language, re-validating bit accuracy
//! at every step, and compares simulation performance and synthesised area
//! against a conventional VHDL reference flow. This crate holds that whole
//! chain:
//!
//! | Level | Paper artefact | Here |
//! |---|---|---|
//! | L0 | C++ algorithmic model | [`algo::AlgoSrc`] (ring buffer + polyphase filter + `filter()`) |
//! | L1 | SystemC 2.0 hierarchical channel | [`models::channel`] |
//! | L1b | Refined channel (3 submodules, events, IMC) | [`models::refined`] |
//! | L2 | Synthesisable behavioural SystemC | [`models::beh`] (clocked kernel model + behavioural program) |
//! | L3 | Optimised behavioural | [`models::beh`] optimised variant |
//! | L4 | RTL SystemC | [`models::rtl`] unoptimised variant |
//! | L5 | Optimised RTL | [`models::rtl`] optimised variant |
//! | — | VHDL reference implementation | [`models::vhdl_ref`] |
//! | — | Gate level | via `scflow-synth` on any of the above |
//!
//! The cross-level verification harness lives in [`verify`]; the flow
//! driver that regenerates the paper's Figure 10 table lives in [`flow`].
//!
//! # Quickstart
//!
//! ```
//! use scflow::{SrcConfig, algo::AlgoSrc};
//!
//! // CD (44.1 kHz) to DVD (48 kHz).
//! let cfg = SrcConfig::cd_to_dvd();
//! let mut src = AlgoSrc::new(&cfg);
//! let input: Vec<i16> = (0..441).map(|n| {
//!     let t = n as f64 / 44100.0;
//!     (8000.0 * (2.0 * std::f64::consts::PI * 1000.0 * t).sin()) as i16
//! }).collect();
//! let output = src.process(&input);
//! // ~480 output samples for 441 input samples.
//! assert!((output.len() as i64 - 480).abs() <= 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algo;
mod coeffs;
mod config;
pub mod error;
pub mod flow;
pub mod models;
pub mod stimulus;
pub mod verify;

pub use coeffs::{design_prototype, CoefficientRom};
pub use config::SrcConfig;
pub use error::ScflowError;

/// One-stop imports for driving the flow.
///
/// Pulls in the configuration and driver entry points, the unified
/// [`Simulation`](scflow_sim_api::Simulation) trait with every engine
/// that implements it (interpreted RTL, compiled levelized RTL, event-
/// driven and levelized gate level), and the shared testbench helpers:
///
/// ```
/// use scflow::prelude::*;
///
/// let cfg = SrcConfig::cd_to_dvd();
/// let module = scflow::models::rtl::build_rtl_src(&cfg, scflow::models::rtl::RtlVariant::Optimised).unwrap();
/// let program = CompiledProgram::compile(&module).unwrap();
/// let mut sim = program.simulator();
/// sim.poke("out_sample_ready", Bv::bit(true));
/// sim.settle();
/// assert_eq!(sim.peek("out_sample_valid"), Bv::zero(1));
/// ```
pub mod prelude {
    pub use crate::algo::AlgoSrc;
    pub use crate::error::ScflowError;
    pub use crate::flow::{
        run_area_flow, run_forked_scenarios, validate_all_levels, validate_all_levels_with,
        validate_module, validate_module_with, AreaFigure, ServeOptions, SimEngine, SweepError,
    };
    pub use crate::models::harness::{run_fixed, run_handshake};
    pub use crate::verify::{compare_bit_accurate, GoldenVectors};
    pub use crate::{design_prototype, stimulus, CoefficientRom, SrcConfig};
    pub use scflow_gate::{CellLibrary, GateError, GateSim};
    pub use scflow_hwtypes::Bv;
    pub use scflow_rtl::{CompiledProgram, CompiledSim, Module, RtlError, RtlSim};
    pub use scflow_sim_api::{EngineStats, SimError, Simulation};
}
