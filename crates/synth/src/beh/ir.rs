//! The behavioural IR: variables, ports, memories, statements,
//! expressions, and a builder.

use scflow_hwtypes::Bv;
use scflow_rtl::{BinOp, UnaryOp};

/// Index of a variable within a [`BehProgram`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct VarId(pub usize);

/// Index of an I/O port within a [`BehProgram`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PortId(pub usize);

/// Index of a memory within a [`BehProgram`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MemId(pub usize);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum PortDir {
    In,
    Out,
}

#[derive(Clone, Debug)]
pub(crate) struct BehPort {
    pub name: String,
    pub width: u32,
    pub dir: PortDir,
}

#[derive(Clone, Debug)]
pub(crate) struct BehVar {
    pub name: String,
    pub width: u32,
}

#[derive(Clone, Debug)]
pub(crate) struct BehMem {
    pub name: String,
    pub width: u32,
    pub init: Vec<Bv>,
}

/// A behavioural expression over variables, memories and constants.
///
/// Operator semantics (widths, wrapping, signedness) are identical to the
/// RTL [`scflow_rtl::Expr`]; only the leaves differ (variables instead of
/// nets).
#[derive(Clone, PartialEq, Debug)]
pub enum BExpr {
    /// A constant.
    Const(Bv),
    /// The current value of a variable. The width is recorded.
    Var(VarId, u32),
    /// Unary operation.
    Un(UnaryOp, Box<BExpr>),
    /// Binary operation (same width rules as RTL).
    Bin(BinOp, Box<BExpr>, Box<BExpr>),
    /// `cond ? then : else`.
    Mux(Box<BExpr>, Box<BExpr>, Box<BExpr>),
    /// Bit slice `[hi:lo]`.
    Slice(Box<BExpr>, u32, u32),
    /// Concatenation `{hi, lo}`.
    Concat(Box<BExpr>, Box<BExpr>),
    /// Zero extension / truncation.
    Zext(Box<BExpr>, u32),
    /// Sign extension / truncation.
    Sext(Box<BExpr>, u32),
    /// Combinational memory read.
    MemRead(MemId, Box<BExpr>, u32),
}

macro_rules! bin_method {
    ($(#[$doc:meta])* $name:ident, $op:expr) => {
        $(#[$doc])*
        pub fn $name(self, rhs: BExpr) -> BExpr {
            BExpr::Bin($op, Box::new(self), Box::new(rhs))
        }
    };
}

#[allow(clippy::should_implement_trait)] // fluent HDL-style expression builders
impl BExpr {
    /// The result width in bits.
    pub fn width(&self) -> u32 {
        match self {
            BExpr::Const(v) => v.width(),
            BExpr::Var(_, w) => *w,
            BExpr::Un(op, a) => match op {
                UnaryOp::RedAnd | UnaryOp::RedOr | UnaryOp::RedXor => 1,
                _ => a.width(),
            },
            BExpr::Bin(op, a, _) => {
                if op.is_comparison() {
                    1
                } else {
                    a.width()
                }
            }
            BExpr::Mux(_, t, _) => t.width(),
            BExpr::Slice(_, hi, lo) => hi - lo + 1,
            BExpr::Concat(a, b) => a.width() + b.width(),
            BExpr::Zext(_, w) | BExpr::Sext(_, w) => *w,
            BExpr::MemRead(_, _, w) => *w,
        }
    }

    bin_method!(
        /// Wrapping addition.
        add, BinOp::Add);
    bin_method!(
        /// Wrapping subtraction.
        sub, BinOp::Sub);
    bin_method!(
        /// Unsigned multiplication.
        mul, BinOp::Mul);
    bin_method!(
        /// Signed multiplication.
        mul_signed, BinOp::MulS);
    bin_method!(
        /// Bitwise AND.
        and, BinOp::And);
    bin_method!(
        /// Bitwise OR.
        or, BinOp::Or);
    bin_method!(
        /// Bitwise XOR.
        xor, BinOp::Xor);
    bin_method!(
        /// Logical shift left.
        shl, BinOp::Shl);
    bin_method!(
        /// Logical shift right.
        shr, BinOp::Shr);
    bin_method!(
        /// Arithmetic shift right.
        sar, BinOp::Sar);
    bin_method!(
        /// Equality (1-bit result).
        eq, BinOp::Eq);
    bin_method!(
        /// Inequality (1-bit result).
        ne, BinOp::Ne);
    bin_method!(
        /// Unsigned less-than.
        ult, BinOp::Ult);
    bin_method!(
        /// Unsigned less-or-equal.
        ule, BinOp::Ule);
    bin_method!(
        /// Signed less-than.
        slt, BinOp::Slt);
    bin_method!(
        /// Signed less-or-equal.
        sle, BinOp::Sle);

    /// Bitwise NOT.
    pub fn not(self) -> BExpr {
        BExpr::Un(UnaryOp::Not, Box::new(self))
    }

    /// Two's-complement negation.
    pub fn neg(self) -> BExpr {
        BExpr::Un(UnaryOp::Neg, Box::new(self))
    }

    /// `self ? then : else` (self must be 1 bit).
    pub fn mux(self, then: BExpr, alt: BExpr) -> BExpr {
        BExpr::Mux(Box::new(self), Box::new(then), Box::new(alt))
    }

    /// Bit slice `[hi:lo]`.
    pub fn slice(self, hi: u32, lo: u32) -> BExpr {
        BExpr::Slice(Box::new(self), hi, lo)
    }

    /// Concatenation `{self, low}`.
    pub fn concat(self, low: BExpr) -> BExpr {
        BExpr::Concat(Box::new(self), Box::new(low))
    }

    /// Zero extension / truncation.
    pub fn zext(self, w: u32) -> BExpr {
        BExpr::Zext(Box::new(self), w)
    }

    /// Sign extension / truncation.
    pub fn sext(self, w: u32) -> BExpr {
        BExpr::Sext(Box::new(self), w)
    }

    /// Visits all variables read by this expression.
    pub fn for_each_var(&self, f: &mut impl FnMut(VarId)) {
        match self {
            BExpr::Const(_) => {}
            BExpr::Var(v, _) => f(*v),
            BExpr::Un(_, a) | BExpr::Slice(a, _, _) | BExpr::Zext(a, _) | BExpr::Sext(a, _) => {
                a.for_each_var(f)
            }
            BExpr::Bin(_, a, b) | BExpr::Concat(a, b) => {
                a.for_each_var(f);
                b.for_each_var(f);
            }
            BExpr::Mux(c, t, e) => {
                c.for_each_var(f);
                t.for_each_var(f);
                e.for_each_var(f);
            }
            BExpr::MemRead(_, a, _) => a.for_each_var(f),
        }
    }

    /// Substitutes pending same-state values for variables (operator
    /// chaining / forwarding).
    pub(crate) fn substitute(&self, lookup: &impl Fn(VarId) -> Option<BExpr>) -> BExpr {
        match self {
            BExpr::Const(_) => self.clone(),
            BExpr::Var(v, _) => lookup(*v).unwrap_or_else(|| self.clone()),
            BExpr::Un(op, a) => BExpr::Un(*op, Box::new(a.substitute(lookup))),
            BExpr::Bin(op, a, b) => BExpr::Bin(
                *op,
                Box::new(a.substitute(lookup)),
                Box::new(b.substitute(lookup)),
            ),
            BExpr::Mux(c, t, e) => BExpr::Mux(
                Box::new(c.substitute(lookup)),
                Box::new(t.substitute(lookup)),
                Box::new(e.substitute(lookup)),
            ),
            BExpr::Slice(a, hi, lo) => BExpr::Slice(Box::new(a.substitute(lookup)), *hi, *lo),
            BExpr::Concat(a, b) => BExpr::Concat(
                Box::new(a.substitute(lookup)),
                Box::new(b.substitute(lookup)),
            ),
            BExpr::Zext(a, w) => BExpr::Zext(Box::new(a.substitute(lookup)), *w),
            BExpr::Sext(a, w) => BExpr::Sext(Box::new(a.substitute(lookup)), *w),
            BExpr::MemRead(m, a, w) => BExpr::MemRead(*m, Box::new(a.substitute(lookup)), *w),
        }
    }

    /// Counts resource classes used by this expression:
    /// `(multipliers, adders, memory reads per memory id)`.
    pub(crate) fn resources(&self, muls: &mut usize, adds: &mut usize, mem_reads: &mut Vec<usize>) {
        match self {
            BExpr::Const(_) | BExpr::Var(_, _) => {}
            BExpr::Un(op, a) => {
                if *op == UnaryOp::Neg {
                    *adds += 1;
                }
                a.resources(muls, adds, mem_reads);
            }
            BExpr::Bin(op, a, b) => {
                match op {
                    BinOp::Mul | BinOp::MulS => *muls += 1,
                    BinOp::Add | BinOp::Sub => *adds += 1,
                    _ => {}
                }
                a.resources(muls, adds, mem_reads);
                b.resources(muls, adds, mem_reads);
            }
            BExpr::Mux(c, t, e) => {
                c.resources(muls, adds, mem_reads);
                t.resources(muls, adds, mem_reads);
                e.resources(muls, adds, mem_reads);
            }
            BExpr::Slice(a, _, _) | BExpr::Zext(a, _) | BExpr::Sext(a, _) => {
                a.resources(muls, adds, mem_reads)
            }
            BExpr::Concat(a, b) => {
                a.resources(muls, adds, mem_reads);
                b.resources(muls, adds, mem_reads);
            }
            BExpr::MemRead(m, a, _) => {
                if mem_reads.len() <= m.0 {
                    mem_reads.resize(m.0 + 1, 0);
                }
                mem_reads[m.0] += 1;
                a.resources(muls, adds, mem_reads);
            }
        }
    }

    /// Operator-tree depth (for the chaining limit).
    pub(crate) fn depth(&self) -> usize {
        match self {
            BExpr::Const(_) | BExpr::Var(_, _) => 0,
            BExpr::Un(_, a) | BExpr::Slice(a, _, _) | BExpr::Zext(a, _) | BExpr::Sext(a, _) => {
                a.depth()
            }
            BExpr::Bin(_, a, b) => 1 + a.depth().max(b.depth()),
            BExpr::Mux(c, t, e) => 1 + c.depth().max(t.depth()).max(e.depth()),
            BExpr::Concat(a, b) => a.depth().max(b.depth()),
            BExpr::MemRead(_, a, _) => 1 + a.depth(),
        }
    }
}

/// A behavioural statement.
#[derive(Clone, Debug)]
pub enum Stmt {
    /// `var = expr`.
    Assign(VarId, BExpr),
    /// `mem[addr] = data`.
    MemWrite(MemId, BExpr, BExpr),
    /// Blocking read from an input port into a variable.
    Read(VarId, PortId),
    /// Blocking write of an expression to an output port.
    Write(PortId, BExpr),
    /// `if cond { .. } else { .. }`.
    If(BExpr, Vec<Stmt>, Vec<Stmt>),
    /// `while cond { .. }`.
    While(BExpr, Vec<Stmt>),
}

/// A behavioural program: the synthesisable content of an `SC_THREAD`
/// whose body loops forever.
#[derive(Clone, Debug)]
pub struct BehProgram {
    pub(crate) name: String,
    pub(crate) ports: Vec<BehPort>,
    pub(crate) vars: Vec<BehVar>,
    pub(crate) mems: Vec<BehMem>,
    pub(crate) body: Vec<Stmt>,
}

impl BehProgram {
    /// The program name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of declared variables.
    pub fn var_count(&self) -> usize {
        self.vars.len()
    }

    /// The declared width of a variable.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn var_width(&self, v: VarId) -> u32 {
        self.vars[v.0].width
    }
}

/// Builds a [`BehProgram`].
///
/// Statements are appended in program order with [`assign`], [`read`],
/// [`write`], and the structured [`if_else`]/[`while_loop`] helpers.
///
/// [`assign`]: ProgramBuilder::assign
/// [`read`]: ProgramBuilder::read
/// [`write`]: ProgramBuilder::write
/// [`if_else`]: ProgramBuilder::if_else
/// [`while_loop`]: ProgramBuilder::while_loop
pub struct ProgramBuilder {
    program: BehProgram,
}

impl ProgramBuilder {
    /// Starts a new program.
    pub fn new(name: impl Into<String>) -> Self {
        ProgramBuilder {
            program: BehProgram {
                name: name.into(),
                ports: Vec::new(),
                vars: Vec::new(),
                mems: Vec::new(),
                body: Vec::new(),
            },
        }
    }

    /// Declares an input port.
    pub fn input(&mut self, name: impl Into<String>, width: u32) -> PortId {
        let id = PortId(self.program.ports.len());
        self.program.ports.push(BehPort {
            name: name.into(),
            width,
            dir: PortDir::In,
        });
        id
    }

    /// Declares an output port.
    pub fn output(&mut self, name: impl Into<String>, width: u32) -> PortId {
        let id = PortId(self.program.ports.len());
        self.program.ports.push(BehPort {
            name: name.into(),
            width,
            dir: PortDir::Out,
        });
        id
    }

    /// Declares a variable.
    pub fn var(&mut self, name: impl Into<String>, width: u32) -> VarId {
        let id = VarId(self.program.vars.len());
        self.program.vars.push(BehVar {
            name: name.into(),
            width,
        });
        id
    }

    /// Declares a memory with initial contents.
    ///
    /// # Panics
    ///
    /// Panics if `init` is empty.
    pub fn memory(&mut self, name: impl Into<String>, width: u32, init: Vec<Bv>) -> MemId {
        assert!(!init.is_empty());
        let id = MemId(self.program.mems.len());
        self.program.mems.push(BehMem {
            name: name.into(),
            width,
            init,
        });
        id
    }

    /// A variable-read expression.
    pub fn v(&self, var: VarId) -> BExpr {
        BExpr::Var(var, self.program.vars[var.0].width)
    }

    /// A constant expression.
    pub fn lit(&self, bits: u64, width: u32) -> BExpr {
        BExpr::Const(Bv::new(bits, width))
    }

    /// A memory-read expression.
    pub fn mem_read(&self, mem: MemId, addr: BExpr) -> BExpr {
        BExpr::MemRead(mem, Box::new(addr), self.program.mems[mem.0].width)
    }

    /// Appends `var = expr`.
    ///
    /// # Panics
    ///
    /// Panics if the expression width differs from the variable width.
    pub fn assign(&mut self, var: VarId, expr: BExpr) {
        assert_eq!(
            expr.width(),
            self.program.vars[var.0].width,
            "assign width mismatch on {}",
            self.program.vars[var.0].name
        );
        self.program.body.push(Stmt::Assign(var, expr));
    }

    /// Appends `mem[addr] = data`.
    pub fn mem_write(&mut self, mem: MemId, addr: BExpr, data: BExpr) {
        assert_eq!(data.width(), self.program.mems[mem.0].width);
        self.program.body.push(Stmt::MemWrite(mem, addr, data));
    }

    /// Appends a blocking port read into `var`.
    ///
    /// # Panics
    ///
    /// Panics if widths differ or the port is not an input.
    pub fn read(&mut self, var: VarId, port: PortId) {
        let p = &self.program.ports[port.0];
        assert_eq!(p.dir, PortDir::In, "read from non-input {}", p.name);
        assert_eq!(p.width, self.program.vars[var.0].width);
        self.program.body.push(Stmt::Read(var, port));
    }

    /// Appends a blocking port write.
    ///
    /// # Panics
    ///
    /// Panics if widths differ or the port is not an output.
    pub fn write(&mut self, port: PortId, expr: BExpr) {
        let p = &self.program.ports[port.0];
        assert_eq!(p.dir, PortDir::Out, "write to non-output {}", p.name);
        assert_eq!(p.width, expr.width());
        self.program.body.push(Stmt::Write(port, expr));
    }

    /// Appends an `if`/`else`: the closures build the branches using a
    /// nested builder view.
    pub fn if_else(
        &mut self,
        cond: BExpr,
        then_build: impl FnOnce(&mut ProgramBuilder),
        else_build: impl FnOnce(&mut ProgramBuilder),
    ) {
        let then_body = self.nested(then_build);
        let else_body = self.nested(else_build);
        self.program.body.push(Stmt::If(cond, then_body, else_body));
    }

    /// Appends a `while` loop.
    pub fn while_loop(&mut self, cond: BExpr, body_build: impl FnOnce(&mut ProgramBuilder)) {
        let body = self.nested(body_build);
        self.program.body.push(Stmt::While(cond, body));
    }

    fn nested(&mut self, build: impl FnOnce(&mut ProgramBuilder)) -> Vec<Stmt> {
        let saved = std::mem::take(&mut self.program.body);
        build(self);
        std::mem::replace(&mut self.program.body, saved)
    }

    /// Finalises the program.
    pub fn build(self) -> BehProgram {
        self.program
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_and_building() {
        let mut p = ProgramBuilder::new("t");
        let x = p.var("x", 8);
        let y = p.var("y", 16);
        assert_eq!(p.v(x).width(), 8);
        assert_eq!(p.v(x).sext(16).mul_signed(p.v(y)).width(), 16);
        assert_eq!(p.v(x).eq(p.lit(0, 8)).width(), 1);
        let prog = p.build();
        assert_eq!(prog.var_count(), 2);
        assert_eq!(prog.var_width(y), 16);
    }

    #[test]
    fn nested_blocks_restore_outer_body() {
        let mut p = ProgramBuilder::new("t");
        let x = p.var("x", 4);
        p.assign(x, p.lit(1, 4));
        let cond = p.v(x).eq(p.lit(1, 4));
        let one = p.lit(2, 4);
        let two = p.lit(3, 4);
        p.if_else(
            cond,
            |b| b.assign(x, one.clone()),
            |b| b.assign(x, two.clone()),
        );
        p.assign(x, p.lit(4, 4));
        let prog = p.build();
        assert_eq!(prog.body.len(), 3);
        assert!(matches!(&prog.body[1], Stmt::If(_, t, e) if t.len() == 1 && e.len() == 1));
    }

    #[test]
    fn resource_counting() {
        let mut p = ProgramBuilder::new("t");
        let x = p.var("x", 8);
        let e = p.v(x).mul(p.v(x)).add(p.v(x).mul(p.v(x)));
        let (mut m, mut a, mut r) = (0, 0, Vec::new());
        e.resources(&mut m, &mut a, &mut r);
        assert_eq!((m, a), (2, 1));
        assert_eq!(e.depth(), 2);
    }

    #[test]
    fn substitution_forwards_values() {
        let mut p = ProgramBuilder::new("t");
        let x = p.var("x", 8);
        let y = p.var("y", 8);
        let e = p.v(x).add(p.v(y));
        let xe = p.lit(5, 8);
        let out = e.substitute(&|v| if v == x { Some(xe.clone()) } else { None });
        assert_eq!(out, p.lit(5, 8).add(p.v(y)));
    }
}
