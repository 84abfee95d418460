//! Pass-pipeline differential over the flow's own designs: every SRC
//! variant (behavioural unopt/opt, hand RTL unopt/opt/buggy, VHDL
//! reference) compiled with the passes off (`opt0`) and fully on
//! (`opt2`) must be indistinguishable on both RTL bytecode engines —
//! per-tick output streams on every output port, memory-violation
//! streams and rendered VCD text, byte for byte. The buggy variant is
//! in the matrix on purpose: the passes must preserve *wrong* behaviour
//! just as faithfully as right behaviour, or the refinement flow's bug
//! hunt would be chasing optimizer artefacts.
//!
//! A second test replays the real handshake/fixed testbench protocol at
//! both levels against the golden vectors, so protocol-level timing
//! (ready/valid stalls, consume schedule) is pinned too.

use scflow::models::beh::{synthesize_beh_src, BehVariant};
use scflow::models::harness::{run_fixed, run_handshake};
use scflow::models::rtl::{build_rtl_src, RtlVariant};
use scflow::models::vhdl_ref::build_vhdl_ref;
use scflow::verify::GoldenVectors;
use scflow::{stimulus, SrcConfig};
use scflow_hwtypes::{Bv, PassConfig};
use scflow_rtl::{BitRtlSim, CompiledProgram, CompiledSim, Module, PortDir};
use scflow_testkit::{first_divergence, Rng};

/// The five SRC variants plus the injected-bug one; `fixed` marks the
/// strobed testbench protocol (as in `engine_differential`).
fn variants(cfg: &SrcConfig) -> Vec<(&'static str, Module, bool)> {
    vec![
        (
            "beh_unopt",
            synthesize_beh_src(cfg, BehVariant::Unoptimised)
                .expect("beh unopt")
                .module,
            false,
        ),
        (
            "beh_opt",
            synthesize_beh_src(cfg, BehVariant::Optimised)
                .expect("beh opt")
                .module,
            true,
        ),
        (
            "rtl_unopt",
            build_rtl_src(cfg, RtlVariant::Unoptimised).expect("rtl unopt"),
            false,
        ),
        (
            "rtl_opt",
            build_rtl_src(cfg, RtlVariant::Optimised).expect("rtl opt"),
            false,
        ),
        ("vhdl_ref", build_vhdl_ref(cfg).expect("vhdl ref"), false),
        (
            "rtl_buggy",
            build_rtl_src(cfg, RtlVariant::OptimisedBuggy).expect("rtl buggy"),
            false,
        ),
    ]
}

/// Everything one engine run produces that an observer could compare.
struct RunArtifacts {
    /// Per output port, the value after every tick.
    traces: Vec<(String, Vec<Bv>)>,
    violations: Vec<String>,
    vcd: String,
}

/// Free-running stimulus: seeded noise on every input port each cycle,
/// which exercises the datapath well past what the polite handshake
/// testbench reaches (back-pressure flaps, mid-transfer data changes).
fn stimulus_for(module: &Module, cycle: u64, rng: &mut Rng) -> Vec<(String, Bv)> {
    let _ = cycle;
    module
        .ports()
        .iter()
        .filter(|p| p.dir == PortDir::Input)
        .map(|p| {
            let mask = if p.width >= 64 {
                u64::MAX
            } else {
                (1u64 << p.width) - 1
            };
            (p.name.clone(), Bv::new(rng.next_u64() & mask, p.width))
        })
        .collect()
}

macro_rules! drive_engine {
    ($fn_name:ident, $sim_ty:ty) => {
        fn $fn_name(module: &Module, sim: &mut $sim_ty, cycles: u64) -> RunArtifacts {
            let out_ports: Vec<String> = module
                .ports()
                .iter()
                .filter(|p| p.dir == PortDir::Output)
                .map(|p| p.name.clone())
                .collect();
            for p in &out_ports {
                sim.watch_port(p);
            }
            let mut traces: Vec<(String, Vec<Bv>)> =
                out_ports.iter().map(|p| (p.clone(), Vec::new())).collect();
            let mut rng = Rng::new(0x5E_C0DE);
            for cycle in 0..cycles {
                for (port, val) in stimulus_for(module, cycle, &mut rng) {
                    sim.set_input(&port, val);
                }
                sim.tick();
                for (p, t) in &mut traces {
                    t.push(sim.output(p));
                }
            }
            RunArtifacts {
                violations: sim.violations().iter().map(|v| format!("{v:?}")).collect(),
                vcd: sim.waveform_vcd(1_000),
                traces,
            }
        }
    };
}
drive_engine!(drive_compiled, CompiledSim);
drive_engine!(drive_bit, BitRtlSim);

fn assert_same(name: &str, reference: &RunArtifacts, candidate: &RunArtifacts) {
    for ((port, l), (_, r)) in reference.traces.iter().zip(&candidate.traces) {
        if let Some(d) = first_divergence(port, l, r) {
            panic!("{name}: {d}");
        }
    }
    if let Some(d) = first_divergence("violations", &reference.violations, &candidate.violations) {
        panic!("{name}: {d}");
    }
    assert_eq!(reference.vcd, candidate.vcd, "{name}: VCD text differs");
}

/// 400 cycles of identical noise on {compiled, bit-parallel} × {opt0,
/// opt2}: all four runs must be byte-identical per variant.
#[test]
fn passes_preserve_every_src_variant_on_both_engines() {
    let cfg = SrcConfig::cd_to_dvd();
    let cycles = 400;
    for (name, module, _) in variants(&cfg) {
        let p0 = CompiledProgram::compile_with(&module, &PassConfig::off()).expect("opt0 compiles");
        let p2 = CompiledProgram::compile_with(&module, &PassConfig::for_level(2))
            .expect("opt2 compiles");
        assert!(
            p2.instruction_count() <= p0.instruction_count(),
            "`{name}`: passes must never grow the program \
             ({} -> {} instructions)",
            p0.instruction_count(),
            p2.instruction_count(),
        );

        let reference = drive_compiled(&module, &mut p0.simulator(), cycles);
        assert_same(
            &format!("{name}: compiled opt2 vs opt0"),
            &reference,
            &drive_compiled(&module, &mut p2.simulator(), cycles),
        );
        assert_same(
            &format!("{name}: bitpar opt0 vs compiled opt0"),
            &reference,
            &drive_bit(&module, &mut p0.bit_simulator(), cycles),
        );
        assert_same(
            &format!("{name}: bitpar opt2 vs compiled opt0"),
            &reference,
            &drive_bit(&module, &mut p2.bit_simulator(), cycles),
        );
    }
}

/// The real testbench protocol at both pass levels: same (outputs,
/// cycles) stream, and — for the non-buggy variants — golden-accurate.
#[test]
fn testbench_protocol_is_level_invariant() {
    let cfg = SrcConfig::cd_to_dvd();
    let input = stimulus::noise(240, 16_000, 0xD1FF_5EED);
    let golden = GoldenVectors::generate(&cfg, input);
    let expected = golden.output.len();
    let budget = scflow::flow::cycle_budget(expected);

    for (name, module, fixed) in variants(&cfg) {
        let p0 = CompiledProgram::compile_with(&module, &PassConfig::off()).expect("opt0 compiles");
        let p2 = CompiledProgram::compile_with(&module, &PassConfig::for_level(2))
            .expect("opt2 compiles");
        let mut s0 = p0.simulator();
        let mut s2 = p2.simulator();
        let (r0, r2) = if fixed {
            (
                run_fixed(&mut s0, &golden.input, expected, budget),
                run_fixed(&mut s2, &golden.input, expected, budget),
            )
        } else {
            (
                run_handshake(&mut s0, &golden.input, expected, budget),
                run_handshake(&mut s2, &golden.input, expected, budget),
            )
        };
        assert_eq!(
            r0, r2,
            "`{name}`: pass level changed the (outputs, cycles) stream"
        );
        if name != "rtl_buggy" {
            assert_eq!(
                r2.0, golden.output,
                "`{name}`: optimized run left the golden rail"
            );
        }
    }
}
