//! RTL synthesis: bit-blasting to gates, netlist optimisation, scan,
//! reporting — the Design Compiler analogue.

mod lower;
mod opt;

pub use opt::optimize;

use scflow_gate::{
    insert_scan_chain, longest_path, AreaReport, CellLibrary, GateNetlist, TimingReport,
};
use scflow_rtl::Module;
use std::error::Error;
use std::fmt;

/// Errors reported by RTL synthesis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SynthError {
    /// A construct is outside the supported synthesisable subset.
    Unsupported(String),
}

impl fmt::Display for SynthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthError::Unsupported(m) => write!(f, "unsupported construct: {m}"),
        }
    }
}

impl Error for SynthError {}

/// Knobs for [`synthesize`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SynthOptions {
    /// Run the netlist optimisation passes (constant folding, algebraic
    /// rewrites, CSE, dead-gate sweep). On by default — Design Compiler
    /// always compiles; the paper's "unoptimised" variants differ at the
    /// *source* level, not here.
    pub optimize: bool,
    /// Insert a scan chain after optimisation (the paper includes scan in
    /// every reported area).
    pub insert_scan: bool,
}

impl Default for SynthOptions {
    fn default() -> Self {
        SynthOptions {
            optimize: true,
            insert_scan: true,
        }
    }
}

/// The output of [`synthesize`].
#[derive(Clone, Debug)]
pub struct SynthResult {
    /// The mapped (and optionally optimised, scan-stitched) netlist.
    pub netlist: GateNetlist,
    /// `report_area` equivalent (memories excluded, scan included).
    pub area: AreaReport,
    /// Longest-path timing report.
    pub timing: TimingReport,
}

/// Synthesises an RTL module to a gate-level netlist against `lib`.
///
/// Pipeline: bit-blast ([`lower`](self)) → optimisation passes → scan
/// insertion → area/timing reports.
///
/// # Errors
///
/// Returns [`SynthError::Unsupported`] when the module uses more than one
/// combinational read site per memory (the generated-macro restriction).
pub fn synthesize(
    module: &Module,
    lib: &CellLibrary,
    opts: &SynthOptions,
) -> Result<SynthResult, SynthError> {
    let mapped = lower::lower(module)?;
    let cleaned = if opts.optimize {
        optimize(&mapped)
    } else {
        mapped
    };
    let final_nl = if opts.insert_scan {
        insert_scan_chain(&cleaned)
    } else {
        cleaned
    };
    let area = final_nl.area_report(lib);
    let timing = longest_path(&final_nl, lib);
    Ok(SynthResult {
        netlist: final_nl,
        area,
        timing,
    })
}
