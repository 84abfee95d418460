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
use scflow_sim_api::{snapblob, Simulation, Snapshot, StimulusBatch, StimulusItem};
use scflow_synth::rtl::{synthesize, SynthOptions};
use scflow_testkit::prop::{check_with, ints, Config};
use scflow_testkit::{prop_assert, Rng};

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

/// The catalog's `rtl_opt`: the optimised SRC RTL and its synthesized,
/// scan-stitched netlist.
fn rtl_opt() -> (CompiledProgram, GateProgram) {
    let cfg = SrcConfig::cd_to_dvd();
    let module = build_rtl_src(&cfg, RtlVariant::Optimised).expect("rtl opt");
    let program = CompiledProgram::compile(&module).expect("compiles");
    let lib = CellLibrary::generic_025u();
    let nl = synthesize(&module, &lib, &SynthOptions::default())
        .expect("synthesizes")
        .netlist;
    (program, GateProgram::compile(&nl).expect("compiles"))
}

/// Broadcast warm-up: the same pokes on every lane, `cycles` cycles.
fn warm_broadcast(sim: &mut (impl Simulation + ?Sized), cycles: u64) {
    tie_off(sim);
    let mut rng = Rng::new(0x0B0A_DCA5);
    for _ in 0..cycles / 4 {
        for (port, width) in DRIVE_PORTS {
            let v = rng.next_u64() & ((1 << width) - 1);
            sim.poke(port, Bv::new(v, width));
        }
        sim.run_cycles(4);
    }
}

/// 64 distinct lane stimuli, `cycles` cycles each.
fn lane_batch(seed: u64, cycles: u64) -> StimulusBatch {
    let mut rng = Rng::new(seed);
    StimulusBatch {
        items: (0..64)
            .map(|_| StimulusItem {
                pokes: DRIVE_PORTS
                    .iter()
                    .map(|&(port, width)| {
                        (
                            port.to_owned(),
                            Bv::new(rng.next_u64() & ((1 << width) - 1), width),
                        )
                    })
                    .collect(),
                cycles,
            })
            .collect(),
        read: vec!["out_sample".to_owned(), "out_sample_valid".to_owned()],
    }
}

/// The two blob sizes of one 64-lane engine: after a broadcast warm-up,
/// then after a lanes batch of 64 distinct items.
fn blob_sizes(sim: &mut (impl Simulation + ?Sized)) -> (usize, usize) {
    warm_broadcast(sim, 256);
    let uniform = sim.snapshot().expect("snapshot").blob().len();
    sim.step_batch_lanes(&lane_batch(0xD1F_F00D, 16))
        .expect("lanes batch");
    let diverged = sim.snapshot().expect("snapshot").blob().len();
    (uniform, diverged)
}

#[test]
fn blobs_hold_only_mutable_state() {
    let (program, gate) = rtl_opt();
    // The same states took 189 588 (rtl.bitpar) and 189 373 (gate.bitpar)
    // bytes in the version-1 layout, which held 64 copies of every ROM
    // word and stored every lane of every stripe.
    for (name, v1, (uniform, diverged)) in [
        (
            "rtl.bitpar",
            189_588,
            blob_sizes(&mut program.bit_simulator()),
        ),
        (
            "gate.bitpar",
            189_373,
            blob_sizes(&mut gate.simulator_lanes(64)),
        ),
    ] {
        assert!(uniform <= 4_096, "{name}: lane-uniform blob {uniform} B");
        assert!(
            diverged * 100 <= v1 * 35,
            "{name}: lane-diverged blob {diverged} B against {v1} B in v1"
        );
    }
    // One lane: the ROM is gone from the scalar blob too.
    let mut compiled = program.simulator();
    warm_broadcast(&mut compiled, 256);
    let len = compiled.snapshot().expect("snapshot").blob().len();
    assert!(len <= 2_048, "rtl.compiled blob {len} B");
}

/// Coverage, a VCD watch list and (RTL) address checking on, so the
/// continuation check covers every recorded artifact.
fn instrument(sim: &mut (impl Simulation + ?Sized)) {
    assert!(sim.set_coverage(true), "coverage");
    sim.watch("out_sample");
    sim.watch("dbg_state");
}

/// Runs the continuation both engines are compared on: another distinct
/// lanes batch (every lane's outputs), then the recorded artifacts.
fn continue_run<S: Simulation>(
    sim: &mut S,
    violations: impl Fn(&S) -> String,
) -> (scflow_sim_api::BatchReply, Artifacts) {
    let reply = sim
        .step_batch_lanes(&lane_batch(0xC0_471E, 24))
        .expect("lanes batch");
    (reply, collect(sim, &violations(sim)))
}

#[test]
fn a_twin_restored_from_a_diverged_blob_continues_like_the_straight_run() {
    let (program, gate) = rtl_opt();
    let mut straight = program.bit_simulator();
    let mut twin = program.bit_simulator();
    for sim in [&mut straight, &mut twin] {
        sim.check_addresses = true;
        instrument(sim);
    }
    warm_broadcast(&mut straight, 256);
    straight
        .step_batch_lanes(&lane_batch(0xD1F_F00D, 16))
        .expect("lanes batch");
    assert!(twin.restore(&straight.snapshot().expect("snapshot")));
    let a = continue_run(&mut straight, |s| format!("{:?}", s.violations()));
    let b = continue_run(&mut twin, |s| format!("{:?}", s.violations()));
    assert_eq!(a, b, "rtl.bitpar twin diverged");
    let (mut straight, mut twin) = (gate.simulator_lanes(64), gate.simulator_lanes(64));
    instrument(&mut straight);
    instrument(&mut twin);
    warm_broadcast(&mut straight, 256);
    straight
        .step_batch_lanes(&lane_batch(0xD1F_F00D, 16))
        .expect("lanes batch");
    assert!(twin.restore(&straight.snapshot().expect("snapshot")));
    let a = continue_run(&mut straight, |s| format!("{:?}", s.violations()));
    let b = continue_run(&mut twin, |s| format!("{:?}", s.violations()));
    assert_eq!(a, b, "gate.bitpar twin diverged");
}

/// One corruption of a blob: `(kind, position, xor byte, byte count)`.
type Corruption = (u8, u64, u8, u8);

/// Applies a corruption: a truncation, a one-byte flip, a multi-byte
/// flip, or a changed version, engine tag or identity word.
fn corrupt(blob: &[u8], &(kind, pos, xor, n): &Corruption) -> Vec<u8> {
    let len = blob.len();
    let at = (pos % len as u64) as usize;
    let xor = xor.max(1);
    let mut out = blob.to_vec();
    match kind % 4 {
        0 => out.truncate(at),
        1 => out[at] ^= xor,
        2 => {
            for i in 0..usize::from(n.max(2)) {
                let j = (at + i * 977) % len;
                out[j] ^= xor.rotate_left(i as u32);
            }
        }
        _ => {
            // Header: magic (4), version (2), tag length (4), tag, identity.
            let tag = u32::from_le_bytes(out[6..10].try_into().expect("4 bytes")) as usize;
            let field = match pos % 3 {
                0 => 4..6,
                1 => 10..10 + tag,
                _ => 10 + tag..18 + tag,
            };
            let j = field.start + at % field.len();
            out[j] ^= xor;
        }
    }
    out
}

/// The fuzz property on one engine holding one blob: every corruption
/// is refused and leaves the engine as it was; re-sealed with a valid
/// checksum, a corruption is refused (engine unchanged) or accepted,
/// and nothing panics.
fn fuzz_restore<S: Simulation>(name: &str, sim: &mut S, cases: u32) {
    let before = sim.snapshot().expect("snapshot");
    let sim = std::cell::RefCell::new(sim);
    let strategy = (
        ints(0u8..=3),
        ints(0u64..=u64::MAX),
        ints(1u8..=255),
        ints(2u8..=8),
    );
    let cfg = Config::from_env().with_cases(cases);
    check_with(&cfg, name, &strategy, |c| {
        let mut sim = sim.borrow_mut();
        let bad = Snapshot::from_blob(corrupt(before.blob(), c));
        prop_assert!(!sim.restore(&bad), "{name}: corruption {c:?} accepted");
        prop_assert!(
            sim.snapshot().as_ref() == Some(&before),
            "{name}: refused restore changed the engine"
        );
        let resealed = snapblob::reseal(bad.blob());
        if sim.restore(&resealed) {
            // Accepted: the engine must still run, then go back.
            sim.step();
            prop_assert!(sim.restore(&before), "{name}: own blob refused");
        }
        prop_assert!(
            sim.snapshot().as_ref() == Some(&before),
            "{name}: engine not back at its blob"
        );
        Ok(())
    });
}

#[test]
fn corrupt_blobs_are_refused_on_every_engine_and_layout() {
    let (program, gate) = rtl_opt();
    let mut compiled = program.simulator();
    warm_broadcast(&mut compiled, 64);
    fuzz_restore("rtl.compiled", &mut compiled, 48);
    compiled.poke("in_sample", Bv::new(0x1234, 16));
    compiled.run_cycles(8);
    fuzz_restore("rtl.compiled after more cycles", &mut compiled, 48);

    let mut bit = program.bit_simulator();
    bit.set_coverage(true);
    warm_broadcast(&mut bit, 64);
    fuzz_restore("rtl.bitpar lane-uniform", &mut bit, 48);
    bit.step_batch_lanes(&lane_batch(7, 8))
        .expect("lanes batch");
    fuzz_restore("rtl.bitpar lane-diverged", &mut bit, 48);

    let mut lanes = gate.simulator_lanes(64);
    warm_broadcast(&mut lanes, 64);
    fuzz_restore("gate.bitpar lane-uniform", &mut lanes, 48);
    lanes
        .step_batch_lanes(&lane_batch(9, 8))
        .expect("lanes batch");
    fuzz_restore("gate.bitpar lane-diverged", &mut lanes, 48);
}
