//! Structural Verilog emission for gate netlists.
//!
//! The "gate-level Verilog code" the paper's Figure 9 simulates: one
//! primitive instantiation per cell, memories as behavioural blocks.

use crate::netlist::{GNetId, GateNetlist};
use std::fmt::Write as _;

impl GateNetlist {
    /// Renders the netlist as structural Verilog.
    ///
    /// Cells map to instantiations of library modules (`NAND2`, `DFF`, …)
    /// whose behavioural definitions are appended after the top module, so
    /// the output is self-contained and simulator-ready.
    pub fn to_structural_verilog(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "module {} (", self.name());
        let mut ports: Vec<String> = vec!["  input wire clk".into()];
        for (name, bits) in self.inputs() {
            ports.push(format!("  input wire [{}:0] \\{} ", bits.len() - 1, name));
        }
        for (name, bits) in self.outputs() {
            ports.push(format!("  output wire [{}:0] \\{} ", bits.len() - 1, name));
        }
        let _ = writeln!(out, "{}\n);", ports.join(",\n"));

        // Nets (escaped identifiers keep the generated names legal).
        let net_name = |id: GNetId| format!("n{}", id.0);
        for i in 0..self.net_count() {
            let _ = writeln!(out, "  wire {};", net_name(GNetId(i)));
        }
        let _ = writeln!(out, "  assign n{} = 1'b0;", self.const0().0);
        let _ = writeln!(out, "  assign n{} = 1'b1;", self.const1().0);

        // Port bindings.
        for (name, bits) in self.inputs() {
            for (i, b) in bits.iter().enumerate() {
                let _ = writeln!(out, "  assign {} = \\{} [{}];", net_name(*b), name, i);
            }
        }
        for (name, bits) in self.outputs() {
            for (i, b) in bits.iter().enumerate() {
                let _ = writeln!(out, "  assign \\{} [{}] = {};", name, i, net_name(*b));
            }
        }

        // Instances.
        for inst in self.instances() {
            let pins: Vec<String> = inst
                .inputs
                .iter()
                .enumerate()
                .map(|(i, n)| format!(".i{}({})", i, net_name(*n)))
                .chain(std::iter::once(format!(".o({})", net_name(inst.output))))
                .chain(inst.kind.is_sequential().then(|| ".clk(clk)".to_owned()))
                .collect();
            let _ = writeln!(out, "  {} {} ({});", inst.kind, inst.name, pins.join(", "));
        }

        // Memory macros as behavioural blocks.
        for mem in self.memories() {
            let aw = mem.raddr.len().max(1);
            let _ = writeln!(
                out,
                "  // memory macro {}: {}x{} (behavioural model)",
                mem.name,
                mem.words(),
                mem.width
            );
            let _ = writeln!(
                out,
                "  reg [{}:0] {} [0:{}];",
                mem.width - 1,
                mem.name,
                mem.words() - 1
            );
            let raddr: Vec<String> = mem.raddr.iter().rev().map(|n| net_name(*n)).collect();
            if !mem.dout.is_empty() && !raddr.is_empty() {
                let _ = writeln!(
                    out,
                    "  wire [{}:0] {}_ra = {{{}}};",
                    aw - 1,
                    mem.name,
                    raddr.join(", ")
                );
                for (i, d) in mem.dout.iter().enumerate() {
                    let _ = writeln!(
                        out,
                        "  assign {} = {}[{}_ra][{}];",
                        net_name(*d),
                        mem.name,
                        mem.name,
                        i
                    );
                }
            }
            if let Some(wen) = mem.wen {
                let waddr: Vec<String> = mem.waddr.iter().rev().map(|n| net_name(*n)).collect();
                let wdata: Vec<String> = mem.wdata.iter().rev().map(|n| net_name(*n)).collect();
                let _ = writeln!(
                    out,
                    "  always @(posedge clk) if ({}) {}[{{{}}}] <= {{{}}};",
                    net_name(wen),
                    mem.name,
                    waddr.join(", "),
                    wdata.join(", ")
                );
            }
        }
        let _ = writeln!(out, "endmodule\n");
        out.push_str(PRIMITIVES);
        out
    }
}

/// Behavioural definitions of the library primitives.
const PRIMITIVES: &str = r#"
module INV   (input wire i0, output wire o); assign o = ~i0; endmodule
module BUF   (input wire i0, output wire o); assign o = i0; endmodule
module NAND2 (input wire i0, input wire i1, output wire o); assign o = ~(i0 & i1); endmodule
module NOR2  (input wire i0, input wire i1, output wire o); assign o = ~(i0 | i1); endmodule
module AND2  (input wire i0, input wire i1, output wire o); assign o = i0 & i1; endmodule
module OR2   (input wire i0, input wire i1, output wire o); assign o = i0 | i1; endmodule
module XOR2  (input wire i0, input wire i1, output wire o); assign o = i0 ^ i1; endmodule
module XNOR2 (input wire i0, input wire i1, output wire o); assign o = ~(i0 ^ i1); endmodule
module MUX2  (input wire i0, input wire i1, input wire i2, output wire o); assign o = i2 ? i1 : i0; endmodule
module AOI21 (input wire i0, input wire i1, input wire i2, output wire o); assign o = ~((i0 & i1) | i2); endmodule
module OAI21 (input wire i0, input wire i1, input wire i2, output wire o); assign o = ~((i0 | i1) & i2); endmodule
module DFF   (input wire i0, input wire clk, output reg o); always @(posedge clk) o <= i0; endmodule
module SDFF  (input wire i0, input wire i1, input wire i2, input wire clk, output reg o);
  always @(posedge clk) o <= i2 ? i1 : i0;
endmodule
"#;

#[cfg(test)]
mod tests {
    use crate::celllib::CellKind;
    use crate::netlist::NetlistBuilder;
    use crate::scan::insert_scan_chain;
    use scflow_hwtypes::Bv;

    #[test]
    fn structural_verilog_is_complete() {
        let mut b = NetlistBuilder::new("top");
        let a = b.input_port("a", 2);
        let x = b.cell(CellKind::Nand2, &[a[0], a[1]]);
        let q = b.dff(x, false);
        let rom = b.memory(
            "rom",
            4,
            (0..4u64).map(|v| Bv::new(v, 4)).collect(),
            a.clone(),
            vec![],
            vec![],
            None,
        );
        b.output_port("y", &[q]);
        b.output_port("d", &rom);
        let nl = insert_scan_chain(&b.build());
        let v = nl.to_structural_verilog();
        assert!(v.contains("module top ("));
        assert!(v.contains("NAND2 "));
        assert!(v.contains("SDFF "));
        assert!(v.contains(".clk(clk)"));
        assert!(v.contains("memory macro rom"));
        assert!(v.contains("module SDFF"));
        assert!(v.contains("input wire [0:0] \\scan_in"));
        // every instance appears
        for inst in nl.instances() {
            assert!(v.contains(&format!(" {} (", inst.name)), "{}", inst.name);
        }
    }
}
