//! Scenario-sweep bench for the batched RTL engines: how fast can the
//! flow evaluate 64 independent stimulus scenarios against a warmed-up
//! design? Emits `BENCH_sweep.json`.
//!
//! Three strategies over the same 64 scenarios on the optimised RTL SRC:
//!
//! * `compiled_fresh`    — the naive loop: a fresh scalar `CompiledSim`
//!   per scenario, paying the shared warmup every time.
//! * `compiled_forked`   — the scalar simulator is warmed and
//!   snapshotted **once** (bench setup); each timed sweep restores the
//!   checkpoint per scenario and replays only the scenario tail.
//! * `bitpar_lanes`      — the 64-lane `BitRtlSim` is warmed and
//!   snapshotted once; each timed sweep restores and runs all 64
//!   scenarios as one `step_batch_lanes` pass.
//!
//! The forked rows measure the steady-state sweep cost the checkpoint
//! API exists to buy: a long-lived session (serve worker, regression
//! sweep) pays warmup once and replays scenarios forever after. The
//! per-scenario speedup of `bitpar_lanes` over `compiled_fresh` is the
//! tentpole number; the bench exits non-zero if it drops under the
//! floor (`SCFLOW_SWEEP_MIN`, default 8x).

use scflow::models::rtl::{build_rtl_src, RtlVariant};
use scflow::prelude::run_forked_scenarios;
use scflow::SrcConfig;
use scflow_hwtypes::Bv;
use scflow_rtl::CompiledProgram;
use scflow_sim_api::{Simulation, StimulusBatch, StimulusItem};
use scflow_testkit::Harness;

/// Independent stimulus scenarios — one per bit-parallel lane.
const SCENARIOS: u64 = 64;
/// Clock cycles each scenario runs after the fork point.
const SCENARIO_CYCLES: u64 = 64;
/// Clock cycles of shared warmup before the fork point.
const WARMUP_CYCLES: u64 = 256;

fn scenario_item(i: u64) -> StimulusItem {
    StimulusItem {
        pokes: vec![
            ("in_sample".to_owned(), Bv::new((i * 0x0421) & 0xffff, 16)),
            ("in_sample_valid".to_owned(), Bv::bit(true)),
            ("out_sample_ready".to_owned(), Bv::bit(true)),
        ],
        cycles: SCENARIO_CYCLES,
    }
}

fn read_ports() -> Vec<String> {
    vec!["out_sample".to_owned(), "out_sample_valid".to_owned()]
}

fn warm(sim: &mut (impl Simulation + ?Sized)) {
    sim.poke("in_sample", Bv::new(0x1234, 16));
    sim.poke("in_sample_valid", Bv::bit(true));
    sim.poke("out_sample_ready", Bv::bit(true));
    sim.run_cycles(WARMUP_CYCLES);
}

fn main() {
    let floor = scflow_bench::floor_from_env("SCFLOW_SWEEP_MIN").unwrap_or(8.0);
    let cfg = SrcConfig::cd_to_dvd();
    let module = build_rtl_src(&cfg, RtlVariant::Optimised).expect("rtl opt builds");
    let program = CompiledProgram::compile(&module).expect("compiles");

    // Per-scenario sequential batches, and the same 64 items as one
    // lane batch.
    let seq: Vec<StimulusBatch> = (0..SCENARIOS)
        .map(|i| StimulusBatch {
            items: vec![scenario_item(i)],
            read: read_ports(),
        })
        .collect();
    let lane_batch = StimulusBatch {
        items: (0..SCENARIOS).map(scenario_item).collect(),
        read: read_ports(),
    };

    let mut h = Harness::new("rtl_sweep").with_iters(5).with_warmup(1);

    h.bench_cycles("compiled_fresh", || {
        let mut total = 0;
        for batch in &seq {
            let mut sim = program.simulator();
            warm(&mut sim);
            let reply = sim.step_batch(batch).expect("scenario runs");
            total += reply.cycles; // absolute cycle count: warmup + scenario
            std::hint::black_box(&reply.outputs);
        }
        total
    });

    // Warm + checkpoint once, outside the timed region — the forked
    // rows measure the cost of *replaying scenarios*, not of warmup.
    let mut scalar_sim = program.simulator();
    warm(&mut scalar_sim);
    let scalar_snap = scalar_sim.snapshot().expect("scalar snapshot");
    h.bench_cycles("compiled_forked", || {
        let mut total = 0;
        for batch in &seq {
            assert!(scalar_sim.restore(&scalar_snap), "restore");
            let reply = scalar_sim.step_batch(batch).expect("scenario runs");
            total += SCENARIO_CYCLES;
            std::hint::black_box(&reply.outputs);
        }
        total
    });

    let mut bit_sim = program.bit_simulator();
    warm(&mut bit_sim);
    let bit_snap = Simulation::snapshot(&bit_sim).expect("bit snapshot");
    h.bench_cycles("bitpar_lanes", || {
        assert!(bit_sim.restore(&bit_snap), "restore");
        let reply = bit_sim
            .step_batch_lanes(&lane_batch)
            .expect("lane sweep runs");
        std::hint::black_box(&reply.outputs);
        SCENARIOS * SCENARIO_CYCLES
    });

    // Correctness cross-check alongside the timing: the lane sweep and
    // the forked scalar sweep must agree on every scenario's outputs.
    let mut scalar = program.simulator();
    let forked = run_forked_scenarios(&mut scalar, warm, &seq, false).expect("forked");
    let mut bit = program.bit_simulator();
    let lanes = run_forked_scenarios(&mut bit, warm, std::slice::from_ref(&lane_batch), true)
        .expect("lanes");
    let flat: Vec<_> = forked.iter().flat_map(|r| r.outputs.clone()).collect();
    assert_eq!(
        flat, lanes[0].outputs,
        "lane sweep outputs diverge from the forked scalar sweep"
    );

    let per_scenario = |median_ns: f64| median_ns / SCENARIOS as f64;
    let fresh_ns = per_scenario(h.results[0].median_ns);
    let forked_ns = per_scenario(h.results[1].median_ns);
    let lanes_ns = per_scenario(h.results[2].median_ns);
    let fork_speedup = fresh_ns / forked_ns.max(1e-12);
    let lane_speedup = fresh_ns / lanes_ns.max(1e-12);
    h.metric("scenarios", SCENARIOS as f64);
    h.metric("scenario_cycles", SCENARIO_CYCLES as f64);
    h.metric("warmup_cycles", WARMUP_CYCLES as f64);
    h.metric("per_scenario_ns", lanes_ns);
    h.metric("fork_speedup", fork_speedup);
    h.metric("lane_speedup", lane_speedup);

    print!("{}", h.table());
    println!(
        "\nper-scenario: fresh {:.1} us, forked {:.1} us ({fork_speedup:.1}x), \
         64-lane {:.1} us ({lane_speedup:.1}x)",
        fresh_ns / 1e3,
        forked_ns / 1e3,
        lanes_ns / 1e3
    );

    let path = scflow_bench::bench_output_path("BENCH_sweep.json");
    h.write_json(&path).expect("write BENCH_sweep.json");
    println!("wrote {}", path.display());

    if lane_speedup < floor {
        eprintln!(
            "FAILED: 64-lane sweep is only {lane_speedup:.1}x the naive per-scenario \
             loop (floor {floor:.1}x)"
        );
        std::process::exit(1);
    }
}
