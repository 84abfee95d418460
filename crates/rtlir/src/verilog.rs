//! Verilog pretty-printing of RTL modules.
//!
//! The emitted text is the analogue of the "intermediate RTL Verilog code
//! from RTL SystemC synthesis" that the paper simulates in Figure 9. It is
//! synthesisable Verilog-2001 in structure (one `assign` per combinational
//! net, one clocked `always` block for registers and memory writes).

use crate::expr::{BinOp, Expr, UnaryOp};
use crate::module::{Module, PortDir};
use std::fmt::Write as _;

impl Module {
    /// Renders the module as Verilog source text.
    pub fn to_verilog(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "module {} (", self.name);
        let _ = writeln!(out, "  input wire clk,");
        let port_lines: Vec<String> = self
            .ports
            .iter()
            .map(|p| {
                let dir = match p.dir {
                    PortDir::Input => "input wire",
                    PortDir::Output => "output wire",
                };
                if p.width == 1 {
                    format!("  {} {}", dir, p.name)
                } else {
                    format!("  {} [{}:0] {}", dir, p.width - 1, p.name)
                }
            })
            .collect();
        let _ = writeln!(out, "{}", port_lines.join(",\n"));
        let _ = writeln!(out, ");");

        // Internal nets.
        let port_nets: Vec<usize> = self.ports.iter().map(|p| p.net.0).collect();
        for (i, n) in self.nets.iter().enumerate() {
            if port_nets.contains(&i) {
                continue;
            }
            let is_reg = self.regs.iter().any(|r| r.q.0 == i);
            let kind = if is_reg { "reg " } else { "wire" };
            if n.width == 1 {
                let _ = writeln!(out, "  {} {};", kind, n.name);
            } else {
                let _ = writeln!(out, "  {} [{}:0] {};", kind, n.width - 1, n.name);
            }
        }

        // Memories.
        for m in &self.mems {
            let _ = writeln!(
                out,
                "  reg [{}:0] {} [0:{}];",
                m.width - 1,
                m.name,
                m.words() - 1
            );
        }

        // Combinational assigns in topological order.
        for &i in &self.comb_order {
            let t = &self.nets[self.comb_targets[i].0];
            let _ = writeln!(
                out,
                "  assign {} = {};",
                t.name,
                self.expr_to_verilog(&self.comb_exprs[i])
            );
        }

        // Clocked block.
        if !self.regs.is_empty() || self.mems.iter().any(|m| !m.write_ports.is_empty()) {
            let _ = writeln!(out, "  always @(posedge clk) begin");
            for r in &self.regs {
                let _ = writeln!(
                    out,
                    "    {} <= {};",
                    self.nets[r.q.0].name,
                    self.expr_to_verilog(&r.next)
                );
            }
            for m in &self.mems {
                for wp in &m.write_ports {
                    let _ = writeln!(
                        out,
                        "    if ({}) {}[{}] <= {};",
                        self.expr_to_verilog(&wp.enable),
                        m.name,
                        self.expr_to_verilog(&wp.addr),
                        self.expr_to_verilog(&wp.data)
                    );
                }
            }
            let _ = writeln!(out, "  end");
        }

        let _ = writeln!(out, "endmodule");
        out
    }

    fn expr_to_verilog(&self, e: &Expr) -> String {
        match e {
            Expr::Const(v) => format!("{}'h{:x}", v.width(), v.as_u64()),
            Expr::Net(id, _) => self.nets[id.0].name.clone(),
            Expr::Unary(op, a) => {
                let a = self.expr_to_verilog(a);
                match op {
                    UnaryOp::Not => format!("(~{a})"),
                    UnaryOp::Neg => format!("(-{a})"),
                    UnaryOp::RedAnd => format!("(&{a})"),
                    UnaryOp::RedOr => format!("(|{a})"),
                    UnaryOp::RedXor => format!("(^{a})"),
                }
            }
            Expr::Binary(op, a, b) => {
                let a = self.expr_to_verilog(a);
                let b = self.expr_to_verilog(b);
                let sym = match op {
                    BinOp::Add => "+",
                    BinOp::Sub => "-",
                    BinOp::Mul | BinOp::MulS => "*",
                    BinOp::And => "&",
                    BinOp::Or => "|",
                    BinOp::Xor => "^",
                    BinOp::Shl => "<<",
                    BinOp::Shr => ">>",
                    BinOp::Sar => ">>>",
                    BinOp::Eq => "==",
                    BinOp::Ne => "!=",
                    BinOp::Ult | BinOp::Slt => "<",
                    BinOp::Ule | BinOp::Sle => "<=",
                };
                match op {
                    BinOp::MulS | BinOp::Sar | BinOp::Slt | BinOp::Sle => {
                        format!("($signed({a}) {sym} $signed({b}))")
                    }
                    _ => format!("({a} {sym} {b})"),
                }
            }
            Expr::Mux(c, t, el) => format!(
                "({} ? {} : {})",
                self.expr_to_verilog(c),
                self.expr_to_verilog(t),
                self.expr_to_verilog(el)
            ),
            Expr::Slice(a, hi, lo) => {
                let a = self.expr_to_verilog(a);
                if hi == lo {
                    format!("{a}[{hi}]")
                } else {
                    format!("{a}[{hi}:{lo}]")
                }
            }
            Expr::Concat(a, b) => format!(
                "{{{}, {}}}",
                self.expr_to_verilog(a),
                self.expr_to_verilog(b)
            ),
            Expr::Zext(a, w) => format!("{}'(unsigned'({}))", w, self.expr_to_verilog(a)),
            Expr::Sext(a, w) => format!("{}'(signed'({}))", w, self.expr_to_verilog(a)),
            Expr::ReadMem(mid, addr, _) => {
                format!("{}[{}]", self.mems[mid.0].name, self.expr_to_verilog(addr))
            }
        }
    }
}
