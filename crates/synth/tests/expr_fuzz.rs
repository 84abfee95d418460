//! Property-based equivalence fuzzing of the technology mapper: random
//! combinational expression trees are synthesised to gates (with and
//! without optimisation) and compared against the interpreted RTL
//! semantics on random input vectors.
//!
//! The expression generator is a hand-rolled `scflow_testkit` strategy —
//! recursive structures don't need combinator support, just an impl of
//! `Strategy` whose `shrink` proposes same-width subtrees.

use scflow_gate::{CellLibrary, GateSim};
use scflow_hwtypes::Bv;
use scflow_rtl::{Expr, ModuleBuilder, NetId, RtlSim};
use scflow_synth::rtl::{synthesize, SynthOptions};
use scflow_testkit::prop::{check_with, ints, vecs, Config, Strategy};
use scflow_testkit::{prop_assert, prop_assert_eq, Rng};

/// Input port shapes available to generated expressions.
const INPUTS: [(&str, u32); 5] = [("a", 8), ("b", 8), ("c", 16), ("d", 1), ("e", 4)];

/// A leaf: literal, or an input net adapted to `width`.
fn gen_leaf(rng: &mut Rng, width: u32) -> Expr {
    if rng.bool() {
        Expr::lit(rng.next_u64(), width)
    } else {
        let i = rng.index(INPUTS.len());
        let (_, w) = INPUTS[i];
        let net = Expr::net(NetId(i), w);
        if w >= width {
            net.slice(width - 1, 0)
        } else {
            net.zext(width)
        }
    }
}

fn gen_expr(rng: &mut Rng, width: u32, depth: u32) -> Expr {
    if depth == 0 || rng.chance(0.15) {
        return gen_leaf(rng, width);
    }
    let d = depth - 1;
    match rng.index(21) {
        0 => gen_expr(rng, width, d).add(gen_expr(rng, width, d)),
        1 => gen_expr(rng, width, d).sub(gen_expr(rng, width, d)),
        2 => gen_expr(rng, width, d).mul(gen_expr(rng, width, d)),
        3 => gen_expr(rng, width, d).mul_signed(gen_expr(rng, width, d)),
        4 => gen_expr(rng, width, d).and(gen_expr(rng, width, d)),
        5 => gen_expr(rng, width, d).or(gen_expr(rng, width, d)),
        6 => gen_expr(rng, width, d).xor(gen_expr(rng, width, d)),
        7 => gen_expr(rng, width, d).not(),
        8 => gen_expr(rng, width, d).neg(),
        // comparisons and reductions re-widened to the target width
        9 => gen_expr(rng, width, d)
            .ult(gen_expr(rng, width, d))
            .zext(width),
        10 => gen_expr(rng, width, d)
            .slt(gen_expr(rng, width, d))
            .zext(width),
        11 => gen_expr(rng, width, d)
            .eq(gen_expr(rng, width, d))
            .zext(width),
        12 => gen_expr(rng, width, d)
            .sle(gen_expr(rng, width, d))
            .zext(width),
        13 => gen_expr(rng, width, d).red_or().zext(width),
        14 => gen_expr(rng, width, d).red_xor().zext(width),
        // dynamic shifts (amount from a narrow subtree)
        15 => gen_expr(rng, width, d).shl(gen_expr(rng, 3, d)),
        16 => gen_expr(rng, width, d).shr(gen_expr(rng, 3, d)),
        17 => gen_expr(rng, width, d).sar(gen_expr(rng, 3, d)),
        // mux with a 1-bit condition
        18 => gen_expr(rng, 1, d).mux(gen_expr(rng, width, d), gen_expr(rng, width, d)),
        // width play: extend then slice back
        19 => gen_expr(rng, width, d).sext(width + 4).slice(width - 1, 0),
        _ => gen_expr(rng, 3, d).concat(gen_expr(rng, 5, d)).zext(width),
    }
}

/// Direct subexpressions of a node.
fn children(e: &Expr) -> Vec<&Expr> {
    match e {
        Expr::Const(_) | Expr::Net(_, _) => vec![],
        Expr::Unary(_, a) | Expr::Slice(a, _, _) | Expr::Zext(a, _) | Expr::Sext(a, _) => {
            vec![a]
        }
        Expr::Binary(_, a, b) | Expr::Concat(a, b) => vec![a, b],
        Expr::Mux(c, t, f) => vec![c, t, f],
        Expr::ReadMem(_, a, _) => vec![a],
    }
}

/// Strategy over expression trees of a fixed result width.
struct ExprStrategy {
    width: u32,
    depth: u32,
}

impl Strategy for ExprStrategy {
    type Value = Expr;

    fn generate(&self, rng: &mut Rng) -> Expr {
        gen_expr(rng, self.width, self.depth)
    }

    fn shrink(&self, v: &Expr) -> Vec<Expr> {
        // A failing tree shrinks to any same-width subtree, or to a trivial
        // leaf — enough to cut a counterexample down to the offending op.
        let mut out = vec![Expr::lit(0, self.width)];
        let mut stack = vec![v];
        while let Some(e) = stack.pop() {
            for child in children(e) {
                if child.width() == self.width && child != v {
                    out.push(child.clone());
                }
                stack.push(child);
            }
            if out.len() > 24 {
                break;
            }
        }
        out
    }
}

fn build_module(expr: &Expr) -> scflow_rtl::Module {
    let mut b = ModuleBuilder::new("fuzz");
    for (name, w) in INPUTS {
        b.input(name, w);
    }
    b.output("o", expr.clone());
    b.build().expect("generated module is valid")
}

#[test]
fn synthesized_gates_match_interpreted_rtl() {
    let strategy = (
        ExprStrategy { width: 8, depth: 3 },
        vecs(ints(0u64..=u64::MAX), 20..=20),
    );
    check_with(
        &Config::from_env().with_cases(48),
        "synthesized gates match interpreted RTL",
        &strategy,
        |(expr, flat_vectors)| {
            let module = build_module(expr);
            let lib = CellLibrary::generic_025u();
            for optimize in [false, true] {
                let result = synthesize(
                    &module,
                    &lib,
                    &SynthOptions {
                        optimize,
                        insert_scan: false,
                    },
                )
                .expect("synthesis");
                let mut gate = GateSim::new(&result.netlist, &lib);
                let mut rtl = RtlSim::new(&module);
                for v in flat_vectors.chunks(INPUTS.len()) {
                    for (i, (name, w)) in INPUTS.iter().enumerate() {
                        let bv = Bv::new(v[i], *w);
                        gate.set_input(name, bv);
                        rtl.set_input(name, bv);
                    }
                    gate.settle();
                    rtl.settle();
                    prop_assert_eq!(
                        gate.output("o"),
                        Some(rtl.output("o")),
                        "optimize={} expr={:?}",
                        optimize,
                        expr
                    );
                }
            }
            Ok(())
        },
    );
}

#[test]
fn optimization_preserves_port_shape() {
    check_with(
        &Config::from_env().with_cases(48),
        "optimization preserves port shape",
        &ExprStrategy { width: 8, depth: 2 },
        |expr| {
            let module = build_module(expr);
            let lib = CellLibrary::generic_025u();
            let opt = synthesize(
                &module,
                &lib,
                &SynthOptions {
                    optimize: true,
                    insert_scan: false,
                },
            )
            .expect("synthesis");
            let unopt = synthesize(
                &module,
                &lib,
                &SynthOptions {
                    optimize: false,
                    insert_scan: false,
                },
            )
            .expect("synthesis");
            prop_assert_eq!(opt.netlist.inputs().len(), unopt.netlist.inputs().len());
            prop_assert_eq!(opt.netlist.outputs().len(), unopt.netlist.outputs().len());
            prop_assert!(opt.netlist.instances().len() <= unopt.netlist.instances().len());
            Ok(())
        },
    );
}
