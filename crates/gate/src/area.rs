//! Area reporting (the `report_area` analogue).

use crate::celllib::{CellKind, CellLibrary};
use crate::netlist::GateNetlist;
use std::collections::BTreeMap;
use std::fmt;

/// An area report split into combinational and sequential (non-
/// combinational) contributions, exactly like the Design Compiler
/// `report_area` rows quoted in the paper's Figure 10.
///
/// Memory macros contribute **zero** area: the paper excludes memories
/// "because they are identical for all implementations and do not reflect
/// the quality of the synthesis result".
#[derive(Clone, Debug, PartialEq)]
pub struct AreaReport {
    /// Combinational cell area, µm².
    pub combinational_um2: f64,
    /// Sequential (flip-flop) cell area, µm².
    pub sequential_um2: f64,
    /// Cell population by kind.
    pub cell_counts: BTreeMap<CellKind, usize>,
}

impl AreaReport {
    /// Total cell area (memories excluded).
    pub fn total_um2(&self) -> f64 {
        self.combinational_um2 + self.sequential_um2
    }

    /// Total cell count.
    pub fn cell_count(&self) -> usize {
        self.cell_counts.values().sum()
    }

    /// This report's total as a percentage of a reference report's total
    /// (the Figure 10 normalisation).
    pub fn relative_to(&self, reference: &AreaReport) -> f64 {
        100.0 * self.total_um2() / reference.total_um2()
    }
}

impl fmt::Display for AreaReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Combinational area: {:>12.1} um^2",
            self.combinational_um2
        )?;
        writeln!(
            f,
            "Noncombinational area: {:>9.1} um^2",
            self.sequential_um2
        )?;
        writeln!(f, "Total cell area:    {:>12.1} um^2", self.total_um2())?;
        write!(f, "Cells: {}", self.cell_count())
    }
}

impl GateNetlist {
    /// Computes the area report against a cell library.
    pub fn area_report(&self, lib: &CellLibrary) -> AreaReport {
        let mut comb = 0.0;
        let mut seq = 0.0;
        let mut counts: BTreeMap<CellKind, usize> = BTreeMap::new();
        for inst in self.instances() {
            let a = lib.area(inst.kind);
            if inst.kind.is_sequential() {
                seq += a;
            } else {
                comb += a;
            }
            *counts.entry(inst.kind).or_insert(0) += 1;
        }
        AreaReport {
            combinational_um2: comb,
            sequential_um2: seq,
            cell_counts: counts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::NetlistBuilder;

    #[test]
    fn report_splits_comb_and_seq() {
        let lib = CellLibrary::generic_025u();
        let mut b = NetlistBuilder::new("m");
        let a = b.input_port("a", 1)[0];
        let inv = b.cell(CellKind::Inv, &[a]);
        let q = b.dff(inv, false);
        b.output_port("q", &[q]);
        let n = b.build();
        let r = n.area_report(&lib);
        assert_eq!(r.combinational_um2, lib.area(CellKind::Inv));
        assert_eq!(r.sequential_um2, lib.area(CellKind::Dff));
        assert_eq!(r.cell_count(), 2);
        assert!((r.relative_to(&r) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn memories_do_not_count() {
        let lib = CellLibrary::generic_025u();
        let mut b = NetlistBuilder::new("m");
        let addr = b.input_port("addr", 2);
        let dout = b.memory(
            "rom",
            4,
            (0..4).map(|i| scflow_hwtypes::Bv::new(i, 4)).collect(),
            addr,
            vec![],
            vec![],
            None,
        );
        b.output_port("d", &dout);
        let n = b.build();
        let r = n.area_report(&lib);
        assert_eq!(r.total_um2(), 0.0);
    }
}
