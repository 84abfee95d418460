//! Pass-pipeline differential: the compile passes (constant sweep, CSE,
//! DCE, relayout) must be invisible to every observer on every engine.
//! For each generator family — including `SrcMac`, whose checking
//! memories deliberately overrun — the raw netlist simulated on the
//! event-driven reference must match the optimized netlist on both the
//! event-driven and the bit-parallel engine: four-valued output traces,
//! checking-memory violation streams and rendered VCD bytes,
//! byte for byte. Divergences are reported by `first_divergence` so a
//! failure names the first differing sample, not just "mismatch".

use scflow_gate::gen::{generate, GenKind, GenParams};
use scflow_gate::{optimize, BitGateSim, CellLibrary, GateNetlist, GateProgram, GateSim};
use scflow_hwtypes::{Bv, LogicVec, PassConfig};
use scflow_testkit::{first_divergence, Rng};

/// Every generator family at a pinned seed. Width 6 keeps the event
/// reference affordable while still exercising multi-bit carry chains.
fn families() -> Vec<(GenKind, GenParams)> {
    [
        GenKind::AdderTree,
        GenKind::MultTree,
        GenKind::Pipeline,
        GenKind::SrcMac,
    ]
    .into_iter()
    .map(|kind| (kind, GenParams::new(kind, 6, 8, 0xD1FF)))
    .collect()
}

/// The uniform four-valued surface shared by both engines.
trait Dut {
    fn set(&mut self, port: &str, value: Bv);
    fn step(&mut self);
    fn out(&self, port: &str) -> LogicVec;
    fn violation_log(&self) -> Vec<String>;
}

macro_rules! impl_dut {
    ($ty:ty) => {
        impl Dut for $ty {
            fn set(&mut self, port: &str, value: Bv) {
                self.set_input(port, value);
            }
            fn step(&mut self) {
                self.tick();
            }
            fn out(&self, port: &str) -> LogicVec {
                self.output_logic(port)
            }
            fn violation_log(&self) -> Vec<String> {
                self.violations().iter().map(|v| format!("{v:?}")).collect()
            }
        }
    };
}
impl_dut!(GateSim<'_>);
impl_dut!(BitGateSim<'_>);

struct RunArtifacts {
    traces: Vec<(String, Vec<LogicVec>)>,
    violations: Vec<String>,
    vcd: Vec<u8>,
}

/// 200 cycles of seeded noise on the stimulus port; the generated
/// designs keep their own state churning through the LFSR rows, and
/// `SrcMac`'s over-wide address counter walks off the end of both of
/// its checking memories on its own.
fn drive(sim: &mut dyn Dut, width: u32, ports: &[&str]) -> RunArtifacts {
    let mut traces: Vec<(String, Vec<LogicVec>)> = ports
        .iter()
        .map(|p| ((*p).to_owned(), Vec::new()))
        .collect();
    let mut rng = Rng::new(0x0B7_D1FF);
    for _ in 0..200 {
        sim.set("a", Bv::new(rng.next_u64() & ((1 << width) - 1), width));
        sim.step();
        for (p, t) in &mut traces {
            t.push(sim.out(p));
        }
    }
    RunArtifacts {
        vcd: render_vcd(&traces),
        violations: sim.violation_log(),
        traces,
    }
}

/// Same minimal VCD surface as the other differential suites: two
/// engines agree byte-for-byte iff their sampled waveforms do.
fn render_vcd(traces: &[(String, Vec<LogicVec>)]) -> Vec<u8> {
    use std::fmt::Write as _;
    let mut out = String::from("$timescale 1ns $end\n$scope module dut $end\n");
    for (k, (port, t)) in traces.iter().enumerate() {
        let width = t.first().map_or(0, LogicVec::width);
        let _ = writeln!(out, "$var wire {width} s{k} {port} $end");
    }
    out.push_str("$upscope $end\n$enddefinitions $end\n");
    let samples = traces.first().map_or(0, |(_, t)| t.len());
    for i in 0..samples {
        let _ = writeln!(out, "#{i}");
        for (k, (_, t)) in traces.iter().enumerate() {
            let _ = writeln!(out, "b{} s{k}", t[i]);
        }
    }
    out.into_bytes()
}

fn assert_same(name: &str, reference: &RunArtifacts, candidate: &RunArtifacts) {
    for ((port, l), (_, r)) in reference.traces.iter().zip(&candidate.traces) {
        if let Some(d) = first_divergence(port, l, r) {
            panic!("{name}: {d}");
        }
    }
    if let Some(d) = first_divergence("violations", &reference.violations, &candidate.violations) {
        panic!("{name}: {d}");
    }
    assert_eq!(reference.vcd, candidate.vcd, "{name}: VCD bytes differ");
}

fn observed_ports(nl: &GateNetlist) -> Vec<&'static str> {
    if nl.output_port("chk").is_some() {
        vec!["y", "chk"]
    } else {
        vec!["y"]
    }
}

/// The full cross product: {raw, level-1, level-2} netlists on
/// {event, bitpar}, all against the event-driven reference on the raw
/// netlist.
#[test]
fn passes_are_invisible_on_every_engine_for_every_family() {
    let lib = CellLibrary::generic_025u();
    for (kind, params) in families() {
        let nl = generate(&params);
        let ports = observed_ports(&nl);
        let mut ev = GateSim::new(&nl, &lib);
        let reference = drive(&mut ev, params.width, &ports);
        if kind == GenKind::SrcMac {
            assert!(
                !reference.violations.is_empty(),
                "SrcMac's over-wide counter must overrun its memories"
            );
        }

        for level in [1u8, 2] {
            let cfg = PassConfig::for_level(level);
            let opt = optimize(&nl, &cfg).expect("passes run");
            assert!(
                opt.netlist.comb_count() < nl.comb_count(),
                "{kind:?}: redundancy dose must give the passes work \
                 ({} -> {})",
                nl.comb_count(),
                opt.netlist.comb_count(),
            );
            let tag = |engine: &str| format!("{kind:?}/opt{level}/{engine}");

            let mut ev2 = GateSim::new(&opt.netlist, &lib);
            assert_same(
                &tag("event"),
                &reference,
                &drive(&mut ev2, params.width, &ports),
            );

            let prog = GateProgram::compile(&opt.netlist).expect("compiles");
            let mut bp = prog.simulator();
            assert_same(
                &tag("bitpar"),
                &reference,
                &drive(&mut bp, params.width, &ports),
            );
        }
    }
}

/// Toggle coverage is a property of a netlist's nets, so it cannot be
/// compared raw-vs-optimized — but on the *same* optimized netlist
/// every engine must report the identical map.
#[test]
fn engines_agree_on_coverage_of_the_optimized_netlist() {
    let params = GenParams::new(GenKind::Pipeline, 6, 8, 0xD1FF);
    let nl = generate(&params);
    let opt = optimize(&nl, &PassConfig::for_level(2)).expect("passes run");
    let ports = observed_ports(&opt.netlist);

    let cov_drive = |sim: &mut dyn Dut| {
        let mut rng = Rng::new(0x0B7_D1FF);
        for _ in 0..200 {
            sim.set("a", Bv::new(rng.next_u64() & 0x3F, 6));
            sim.step();
            for p in &ports {
                let _ = sim.out(p);
            }
        }
    };

    let lib = CellLibrary::generic_025u();
    let mut ev = GateSim::new(&opt.netlist, &lib);
    ev.set_coverage(true);
    cov_drive(&mut ev);
    let reference = ev.coverage().expect("coverage enabled").report();

    let prog = GateProgram::compile(&opt.netlist).expect("compiles");
    let mut bp = prog.simulator();
    bp.set_coverage(true);
    cov_drive(&mut bp);
    assert_eq!(
        bp.coverage().expect("coverage enabled").report(),
        reference,
        "bitpar coverage map differs from event-driven"
    );
}

/// The `net_map` a pass run returns is a total account: every net is
/// either forwarded into the optimized netlist or reported dropped.
/// Forwarding is many-to-one (CSE folds twins onto one survivor), so
/// the bound is on *distinct* targets, not live entries.
#[test]
fn net_map_accounts_for_every_net() {
    for (kind, params) in families() {
        let nl = generate(&params);
        let opt = optimize(&nl, &PassConfig::for_level(2)).expect("passes run");
        assert_eq!(opt.net_map.len(), nl.net_count(), "{kind:?}: map is total");
        let n_new = opt.netlist.net_count();
        let mut targets: Vec<usize> = opt
            .net_map
            .iter()
            .filter_map(|m| m.as_ref().map(|g| g.0))
            .collect();
        assert!(!targets.is_empty(), "{kind:?}: everything dropped");
        for &t in &targets {
            assert!(t < n_new, "{kind:?}: forwarded past the end");
        }
        targets.sort_unstable();
        targets.dedup();
        assert!(
            targets.len() <= n_new,
            "{kind:?}: {} distinct targets of {n_new} nets",
            targets.len()
        );
    }
}
