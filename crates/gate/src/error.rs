//! Gate-level error type.

use std::error::Error;
use std::fmt;

/// Errors raised by gate-level construction and levelization.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GateError {
    /// The combinational cells form a cycle, so the netlist cannot be
    /// levelized for compiled (zero-delay) evaluation.
    CombLoop {
        /// Name of the offending netlist.
        netlist: String,
    },
}

impl fmt::Display for GateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateError::CombLoop { netlist } => {
                write!(f, "combinational loop in netlist `{netlist}`")
            }
        }
    }
}

impl Error for GateError {}
