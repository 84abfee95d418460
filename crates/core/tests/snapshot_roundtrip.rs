//! Snapshot/fork checkpointing, end to end: every snapshot-capable
//! engine must replay a restored run **byte-identically** — outputs,
//! violation streams, coverage maps, VCD waveforms and rendered
//! METRICS.json all match the straight-through run — and the
//! `run_forked_scenarios` flow helper must make a warmed-up fork
//! indistinguishable from a fresh simulator that was warmed up and
//! given only that scenario.

use scflow::models::rtl::{build_rtl_src, RtlVariant};
use scflow::prelude::{run_forked_scenarios, SweepError};
use scflow::{stimulus, SrcConfig};
use scflow_gate::{CellLibrary, GateProgram};
use scflow_hwtypes::Bv;
use scflow_rtl::{CompiledProgram, Module, RtlSim};
use scflow_sim_api::{Simulation, StimulusBatch, StimulusItem};
use scflow_synth::rtl::{synthesize, SynthOptions};
use scflow_testkit::Rng;

/// The SRC handshake input ports every engine in this suite drives.
const DRIVE_PORTS: [(&str, u32); 3] = [
    ("in_sample", 16),
    ("in_sample_valid", 1),
    ("out_sample_ready", 1),
];

/// Ties off the scan chain if the netlist has one (gate-level sims).
fn tie_off(sim: &mut (impl Simulation + ?Sized)) {
    for port in ["scan_en", "scan_in", "test_mode"] {
        if sim.has_input(port) {
            sim.poke(port, Bv::zero(1));
        }
    }
}

/// Drives `items` deterministic stimulus items (three input pokes, two
/// cycles each) from `rng`.
fn drive(sim: &mut (impl Simulation + ?Sized), rng: &mut Rng, items: usize) {
    for _ in 0..items {
        for (port, width) in DRIVE_PORTS {
            let v = rng.next_u64() & ((1 << width) - 1);
            sim.poke(port, Bv::new(v, width));
        }
        sim.run_cycles(2);
    }
}

/// Everything deterministic a session can hand back. `Eq` on the whole
/// struct is the byte-identity check.
#[derive(Debug, PartialEq, Eq)]
struct Artifacts {
    outputs: Vec<(String, Bv)>,
    cycle: u64,
    violations: String,
    coverage: String,
    vcd: Option<String>,
    metrics: String,
}

fn collect(sim: &(impl Simulation + ?Sized), violations: &str) -> Artifacts {
    let outputs = ["out_sample", "out_sample_valid", "dbg_state"]
        .iter()
        .filter_map(|p| sim.try_peek(p).ok().map(|v| ((*p).to_owned(), v)))
        .collect();
    Artifacts {
        outputs,
        cycle: sim.cycle(),
        violations: violations.to_owned(),
        coverage: sim.coverage().expect("coverage enabled").report(),
        vcd: sim.trace(10_000),
        metrics: scflow_obs::render_metrics_json(&sim.metrics().expect("metrics"), None),
    }
}

/// The round-trip property on one engine: warm up, snapshot, run a
/// tail, restore, rerun the tail — both tails must leave identical
/// artifacts, and restore must rewind the cycle counter.
fn roundtrip<S: Simulation>(name: &str, sim: &mut S, violations: impl Fn(&S) -> String) {
    assert!(sim.set_coverage(true), "{name}: coverage");
    sim.watch("out_sample");
    sim.watch("dbg_state");
    tie_off(sim);

    drive(sim, &mut Rng::new(0x5AFE_2026), 20);
    let snap = sim.snapshot().unwrap_or_else(|| panic!("{name}: snapshot"));
    let at = sim.cycle();

    drive(sim, &mut Rng::new(0xF0_44CD), 15);
    let straight = collect(sim, &violations(sim));

    assert!(sim.restore(&snap), "{name}: own snapshot restores");
    assert_eq!(sim.cycle(), at, "{name}: restore rewinds the cycle counter");
    drive(sim, &mut Rng::new(0xF0_44CD), 15);
    let replayed = collect(sim, &violations(sim));

    assert_eq!(straight, replayed, "{name}: replay is byte-identical");
    assert!(
        straight.vcd.is_none()
            || straight
                .vcd
                .as_deref()
                .unwrap_or("")
                .contains("$enddefinitions"),
        "{name}: VCD rendered"
    );
}

#[test]
fn snapshot_roundtrip_is_byte_identical_on_every_capable_engine() {
    // The buggy RTL variant with address checking on, so the violation
    // stream is a live artifact rather than trivially empty.
    let cfg = SrcConfig::cd_to_dvd();
    let module = build_rtl_src(&cfg, RtlVariant::OptimisedBuggy).expect("rtl buggy");
    let program = CompiledProgram::compile(&module).expect("compiles");

    let mut sim = program.simulator();
    sim.check_addresses = true;
    roundtrip("rtl.compiled", &mut sim, |s| {
        format!("{:?}", s.violations())
    });

    let mut sim = program.bit_simulator();
    sim.check_addresses = true;
    roundtrip("rtl.bitpar", &mut sim, |s| format!("{:?}", s.violations()));

    let opt = build_rtl_src(&cfg, RtlVariant::Optimised).expect("rtl opt");
    let lib = CellLibrary::generic_025u();
    let nl = synthesize(&opt, &lib, &SynthOptions::default())
        .expect("synthesizes")
        .netlist;
    let prog = GateProgram::compile(&nl).expect("compiles");
    let mut sim = prog.simulator_lanes(8);
    roundtrip("gate.bitpar", &mut sim, |s| format!("{:?}", s.violations()));
}

#[test]
fn foreign_snapshots_are_refused_without_corrupting_state() {
    let cfg = SrcConfig::cd_to_dvd();
    let module = build_rtl_src(&cfg, RtlVariant::Optimised).expect("rtl opt");
    let program = CompiledProgram::compile(&module).expect("compiles");

    let mut compiled = program.simulator();
    let mut bit = program.bit_simulator();
    drive(&mut compiled, &mut Rng::new(0xABAD_1DEA), 5);
    drive(&mut bit, &mut Rng::new(0xABAD_1DEA), 5);
    let before = compiled.cycle();

    // Same program, same state layout — but a different engine tag, so
    // the blob must be refused and the session left untouched.
    let foreign = Simulation::snapshot(&bit).expect("bit snapshot");
    assert!(!compiled.restore(&foreign), "cross-engine blob refused");
    assert_eq!(compiled.cycle(), before, "refused restore is a no-op");

    // A design with a different identity is refused even engine-to-engine.
    let other = build_rtl_src(&SrcConfig::dvd_to_cd(), RtlVariant::Optimised).expect("other rtl");
    let other_prog = CompiledProgram::compile(&other).expect("compiles");
    let stale = Simulation::snapshot(&other_prog.simulator()).expect("snapshot");
    assert!(!compiled.restore(&stale), "cross-design blob refused");

    // Truncated bytes never panic, only refuse.
    let own = Simulation::snapshot(&compiled).expect("snapshot");
    for cut in [0, 1, own.blob().len() / 2, own.blob().len() - 1] {
        let trunc = scflow_sim_api::Snapshot::from_blob(own.blob()[..cut].to_vec());
        assert!(!compiled.restore(&trunc), "truncated at {cut} refused");
    }
    assert!(
        compiled.restore(&own),
        "own blob still restores after refusals"
    );
}

/// Builds `n` single-item scenarios, each poking a distinct
/// `in_sample` value and running the same cycle count.
fn scenarios(n: u64, cycles: u64) -> Vec<StimulusBatch> {
    (0..n)
        .map(|i| StimulusBatch {
            items: vec![StimulusItem {
                pokes: vec![
                    ("in_sample".to_owned(), Bv::new((i * 0x0421) & 0xffff, 16)),
                    ("in_sample_valid".to_owned(), Bv::bit(true)),
                    ("out_sample_ready".to_owned(), Bv::bit(true)),
                ],
                cycles,
            }],
            read: vec!["out_sample".to_owned(), "dbg_state".to_owned()],
        })
        .collect()
}

fn warm(sim: &mut (impl Simulation + ?Sized)) {
    tie_off(sim);
    let mut rng = Rng::new(0x0051_CE00);
    drive(sim, &mut rng, 10);
}

#[test]
fn forked_scenarios_match_fresh_runs_per_scenario() {
    let cfg = SrcConfig::cd_to_dvd();
    let module = build_rtl_src(&cfg, RtlVariant::Optimised).expect("rtl opt");
    let program = CompiledProgram::compile(&module).expect("compiles");
    let batches = scenarios(6, 4);

    // Fork helper: warm up once, snapshot, restore per scenario.
    let mut sim = program.simulator();
    let forked = run_forked_scenarios(&mut sim, warm, &batches, false).expect("fork sweep");
    assert_eq!(forked.len(), batches.len());

    // Reference: a fresh simulator warmed up and given one scenario.
    for (i, batch) in batches.iter().enumerate() {
        let mut fresh = program.simulator();
        warm(&mut fresh);
        let reply = fresh.step_batch(batch).expect("fresh batch");
        assert_eq!(forked[i], reply, "scenario {i}: fork == fresh warmed run");
    }

    // Lanes mode on the bit-parallel engine forks per *item*: one
    // 6-item lane batch equals the six sequential fork replies.
    let mut bit = program.bit_simulator();
    let lane_batch = StimulusBatch {
        items: batches
            .iter()
            .flat_map(|b| b.items.iter().cloned())
            .collect(),
        read: batches[0].read.clone(),
    };
    let lanes = run_forked_scenarios(&mut bit, warm, std::slice::from_ref(&lane_batch), true)
        .expect("lane sweep");
    let flat: Vec<_> = forked.iter().flat_map(|r| r.outputs.iter()).collect();
    let lane_flat: Vec<_> = lanes[0].outputs.iter().collect();
    assert_eq!(
        flat, lane_flat,
        "lane fork outputs == sequential fork outputs"
    );
}

#[test]
fn fork_helper_reports_unsupported_engines() {
    let cfg = SrcConfig::cd_to_dvd();
    let module = build_rtl_src(&cfg, RtlVariant::Optimised).expect("rtl opt");
    let mut interp = RtlSim::new(&module);
    let err = run_forked_scenarios(&mut interp, warm, &scenarios(2, 3), false)
        .expect_err("interpreter cannot snapshot");
    assert!(matches!(err, SweepError::SnapshotUnsupported), "{err}");
}

/// Lane-0 of the bit-parallel RTL engine against the compiled scalar
/// engine on **every SRC RTL variant** — full handshake testbench,
/// identical outputs, cycles and violation streams (the buggy variant
/// with address checking enabled on both).
#[test]
fn bit_engine_lane0_matches_compiled_on_every_rtl_variant() {
    let cfg = SrcConfig::cd_to_dvd();
    let input = stimulus::sine(80, 1000.0, f64::from(cfg.in_rate), 9000.0);
    let golden = scflow::verify::GoldenVectors::generate(&cfg, input);
    let budget = scflow::flow::cycle_budget(golden.len());

    for (variant, check) in [
        (RtlVariant::Unoptimised, false),
        (RtlVariant::Optimised, false),
        (RtlVariant::OptimisedBuggy, true),
    ] {
        let module: Module = build_rtl_src(&cfg, variant).expect("builds");
        let program = CompiledProgram::compile(&module).expect("compiles");
        let mut scalar = program.simulator();
        let mut bit = program.bit_simulator();
        scalar.check_addresses = check;
        bit.check_addresses = check;
        let scalar_run = scflow::models::harness::run_handshake(
            &mut scalar,
            &golden.input,
            golden.len(),
            budget,
        );
        let bit_run =
            scflow::models::harness::run_handshake(&mut bit, &golden.input, golden.len(), budget);
        assert_eq!(
            scalar_run, bit_run,
            "{variant:?}: lane-0 (outputs, cycles) match the compiled engine"
        );
        assert_eq!(scalar_run.0, golden.output, "{variant:?}: golden outputs");
        assert_eq!(
            scalar.violations(),
            bit.violations(),
            "{variant:?}: identical violation streams"
        );
        if check {
            assert!(!bit.violations().is_empty(), "buggy variant caught");
        }
    }
}
