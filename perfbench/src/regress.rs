//! The `regress` workload: long bit-accurate regressions, run on one
//! thread. Synthesis, compilation and passes sit in set-up; the legs
//! measure only the engines and the kernel:
//!
//! * the BEH model on the event kernel (`run_beh_model`),
//! * RTL-opt on the compiled engine (`rtl.compiled`),
//! * the synthesised SRC netlist on the bit-parallel gate engine inside
//!   the kernel co-simulation testbench (Figure 9's SystemC-TB bar),
//! * a lane-parallel scenario sweep through `run_forked_scenarios`,
//! * a generated ~10^5-gate pipeline after level-2 passes.
//!
//! The ~2.8k-cell SRC fits in cache and the generated netlist does not.

use crate::metrics::{median, quantile, Values};
use crate::trace::Tracer;
use crate::{audio_mix, host_probe, rng_for, HostSamples, Ledger, Size};
use scflow::flow::{cycle_budget, run_forked_scenarios};
use scflow::models::beh::run_beh_model;
use scflow::models::harness::run_handshake;
use scflow::models::rtl::{build_rtl_src, RtlVariant};
use scflow::verify::GoldenVectors;
use scflow::SrcConfig;
use scflow_cosim::run_kernel_cosim;
use scflow_gate::gen::{generate, GenKind, GenParams};
use scflow_gate::{optimize, CellLibrary, GateProgram};
use scflow_hwtypes::{Bv, PassConfig};
use scflow_rtl::CompiledProgram;
use scflow_sim_api::{
    BatchReply, EngineStats, PortHandle, SimError, Simulation, StimulusBatch, StimulusItem,
};
use std::time::{Duration, Instant};

/// Seed of the generated netlist: the design is fixed; only its
/// stimulus follows the workload seed.
const BIG_NETLIST_SEED: u64 = 7;

/// Set-up timings and sizes the traced pass reports.
#[derive(Clone, Debug, Default)]
pub struct SetupTimes {
    /// `CompiledProgram::compile` of RTL-opt, ms.
    pub rtl_compile_ms: f64,
    /// Bytecode instructions and value slots of RTL-opt.
    pub rtl_instrs: usize,
    /// Value slots of RTL-opt.
    pub rtl_slots: usize,
    /// Level-2 passes over the generated netlist, ms.
    pub passes_ms: f64,
    /// Share of the generated netlist's cells the passes removed, %.
    pub cells_removed_pct: f64,
    /// `GateProgram::compile` of the optimised generated netlist, ms.
    pub gate_compile_ms: f64,
    /// Its instruction count.
    pub gate_instrs: usize,
}

/// Everything the legs need, built once per set-up.
pub struct Setup {
    cfg: SrcConfig,
    beh: GoldenVectors,
    rtl: GoldenVectors,
    gate: GoldenVectors,
    rtl_prog: CompiledProgram,
    gate_prog: GateProgram,
    big_prog: GateProgram,
    big_a: Bv,
    /// Output ports of the generated netlist (`y`, and `chk`, which
    /// observes the cells the passes rewrite).
    big_outputs: Vec<String>,
    big_cycles: u64,
    warm: Vec<(String, Bv)>,
    warm_cycles: u64,
    sweep: Vec<StimulusBatch>,
    sweep_expect: Vec<BatchReply>,
    /// Set-up timings.
    pub times: SetupTimes,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn warm_up(sim: &mut (impl Simulation + ?Sized), pokes: &[(String, Bv)], cycles: u64) {
    for (port, v) in pokes {
        sim.poke(port, *v);
    }
    sim.run_cycles(cycles);
}

/// Generates the seeded stimuli, compiles every program and checks the
/// inputs the legs rely on (optimised netlist against the original over
/// a prefix; the lane sweep's expected outputs from a scalar sweep).
///
/// # Panics
///
/// Panics if a shipped design fails to build, synthesise or compile.
pub fn setup(seed: u64, size: &Size, ledger: &mut Ledger) -> Setup {
    let cfg = SrcConfig::cd_to_dvd();
    let lib = CellLibrary::generic_025u();
    let mut times = SetupTimes::default();
    let mut rng = rng_for(seed, "regress.stimulus");

    let beh = GoldenVectors::generate(&cfg, audio_mix(&mut rng, size.beh_samples));
    let rtl = GoldenVectors::generate(&cfg, audio_mix(&mut rng, size.rtl_samples));
    let gate = GoldenVectors::generate(&cfg, audio_mix(&mut rng, size.gate_samples));

    let module = build_rtl_src(&cfg, RtlVariant::Optimised).expect("RTL-opt builds");
    let t = Instant::now();
    let rtl_prog = CompiledProgram::compile(&module).expect("RTL-opt compiles");
    times.rtl_compile_ms = ms(t.elapsed());
    times.rtl_instrs = rtl_prog.instruction_count();
    times.rtl_slots = rtl_prog.slot_count();

    let netlist = scflow_synth::rtl::synthesize(&module, &lib, &Default::default())
        .expect("RTL-opt synthesises")
        .netlist;
    let gate_prog = GateProgram::compile(&netlist).expect("SRC netlist compiles");

    // The generated netlist, optimised at level 2 and checked against
    // the original over a prefix before any timing is trusted.
    let big = generate(&GenParams::sized(
        GenKind::Pipeline,
        size.big_gates,
        BIG_NETLIST_SEED,
    ));
    let t = Instant::now();
    let opt = optimize(&big, &PassConfig::for_level(2)).expect("passes run");
    times.passes_ms = ms(t.elapsed());
    times.cells_removed_pct = 100.0 * (opt.stats.cells_before - opt.stats.cells_after) as f64
        / opt.stats.cells_before.max(1) as f64;
    let t = Instant::now();
    let big_prog = GateProgram::compile(&opt.netlist).expect("optimised netlist compiles");
    times.gate_compile_ms = ms(t.elapsed());
    times.gate_instrs = big_prog.instr_count();
    let big_a = Bv::new(rng.next_u64() & 0xff, 8);
    let big_outputs: Vec<String> = big.outputs().iter().map(|(n, _)| n.clone()).collect();
    {
        let orig_prog = GateProgram::compile(&big).expect("generated netlist compiles");
        let (mut a, mut b) = (orig_prog.simulator(), big_prog.simulator());
        a.poke("a", big_a);
        b.poke("a", big_a);
        let mut same = true;
        for _ in 0..size.big_check_cycles {
            a.step();
            b.step();
            same &= big_outputs.iter().all(
                |port| matches!((a.try_peek(port), b.try_peek(port)), (Ok(x), Ok(y)) if x == y),
            );
        }
        ledger.check(same, || {
            "optimised generated netlist differs from the original".into()
        });
    }

    // Sweep scenarios: one shared warm-up, then 64 seeded scenarios per
    // lane batch; the expected outputs come from the same scenarios run
    // one by one on the scalar compiled engine.
    let mut rng = rng_for(seed, "regress.sweep");
    let warm = vec![
        ("in_sample".to_owned(), Bv::new(rng.next_u64() & 0xffff, 16)),
        ("in_sample_valid".to_owned(), Bv::bit(true)),
        ("out_sample_ready".to_owned(), Bv::bit(true)),
    ];
    let read = vec!["out_sample".to_owned(), "out_sample_valid".to_owned()];
    let sweep: Vec<StimulusBatch> = (0..size.sweep_batches)
        .map(|_| StimulusBatch {
            items: (0..64)
                .map(|_| StimulusItem {
                    pokes: vec![
                        ("in_sample".to_owned(), Bv::new(rng.next_u64() & 0xffff, 16)),
                        ("in_sample_valid".to_owned(), Bv::bit(rng.bool())),
                    ],
                    cycles: size.sweep_cycles,
                })
                .collect(),
            read: read.clone(),
        })
        .collect();
    let scalar: Vec<StimulusBatch> = sweep
        .iter()
        .flat_map(|b| {
            b.items.iter().map(|it| StimulusBatch {
                items: vec![it.clone()],
                read: read.clone(),
            })
        })
        .collect();
    let mut sim = rtl_prog.simulator();
    let sweep_expect = match run_forked_scenarios(
        &mut sim,
        |s| warm_up(s, &warm, size.warm_cycles),
        &scalar,
        false,
    ) {
        Ok(replies) => sweep
            .iter()
            .enumerate()
            .map(|(b, batch)| BatchReply {
                outputs: (0..batch.items.len())
                    .map(|i| replies[b * 64 + i].outputs[0].clone())
                    .collect(),
                cycles: size.warm_cycles + size.sweep_cycles,
            })
            .collect(),
        Err(e) => {
            ledger.check(false, || format!("scalar reference sweep: {e}"));
            Vec::new()
        }
    };

    Setup {
        cfg,
        beh,
        rtl,
        gate,
        rtl_prog,
        gate_prog,
        big_prog,
        big_a,
        big_outputs,
        big_cycles: size.big_cycles,
        warm,
        warm_cycles: size.warm_cycles,
        sweep,
        sweep_expect,
        times,
    }
}

/// Work counters of one leg, which must repeat exactly.
#[derive(Clone, Debug, PartialEq)]
enum Work {
    Kernel(u64, scflow_kernel::SimStats),
    Engine(u64, EngineStats),
}

/// Per-leg throughput samples, each with the host speed around it.
#[derive(Default)]
pub struct Samples {
    beh_cps: HostSamples,
    rtl_cps: HostSamples,
    gate_cps: HostSamples,
    big_cps: HostSamples,
    sweep_per_s: HostSamples,
    /// Wall time of one whole iteration, for the tracing overhead.
    iter_s: Vec<f64>,
    work: Option<[Work; 5]>,
    /// The generated netlist's outputs after the first run.
    big_out: Option<Vec<Bv>>,
}

/// Aggregated time spent inside the gate engine while the co-simulation
/// testbench drives it: a pass-through [`Simulation`] that times the
/// evaluating calls.
struct EngineTimer<'s, S: ?Sized> {
    inner: &'s mut S,
    busy: Duration,
}

impl<S: Simulation + ?Sized> EngineTimer<'_, S> {
    fn timed<R>(&mut self, f: impl FnOnce(&mut S) -> R) -> R {
        let t = Instant::now();
        let r = f(self.inner);
        self.busy += t.elapsed();
        r
    }
}

impl<S: Simulation + ?Sized> Simulation for EngineTimer<'_, S> {
    fn step(&mut self) {
        self.timed(|s| s.step());
    }
    fn settle(&mut self) {
        self.timed(|s| s.settle());
    }
    fn cycle(&self) -> u64 {
        self.inner.cycle()
    }
    fn try_poke(&mut self, port: &str, value: Bv) -> Result<(), SimError> {
        self.inner.try_poke(port, value)
    }
    fn try_peek(&self, port: &str) -> Result<Bv, SimError> {
        self.inner.try_peek(port)
    }
    fn has_input(&self, port: &str) -> bool {
        self.inner.has_input(port)
    }
    fn input_handle(&self, port: &str) -> Option<PortHandle> {
        self.inner.input_handle(port)
    }
    fn output_handle(&self, port: &str) -> Option<PortHandle> {
        self.inner.output_handle(port)
    }
    fn poke_handle(&mut self, handle: PortHandle, value: Bv) {
        self.inner.poke_handle(handle, value);
    }
    fn peek_handle(&self, handle: PortHandle) -> Bv {
        self.inner.peek_handle(handle)
    }
    fn poke(&mut self, port: &str, value: Bv) {
        self.inner.poke(port, value);
    }
    fn peek(&self, port: &str) -> Bv {
        self.inner.peek(port)
    }
    fn stats(&self) -> EngineStats {
        self.inner.stats()
    }
}

/// Wall times of one iteration's legs (the traced pass reports them).
pub struct Legs {
    beh: Duration,
    rtl: Duration,
    gate: Duration,
    gate_engine: Duration,
    sweep: Duration,
    big: Duration,
    work: [Work; 5],
}

/// One regression iteration: every leg once, each checked against its
/// golden outputs and its work counters against the first iteration.
/// A [`host_probe`] runs before the first leg and after every leg, so
/// each leg's throughput carries the host speed around it.
pub fn tick(s: &Setup, tr: &mut Tracer, ledger: &mut Ledger, o: &mut Samples) -> Legs {
    let t = Instant::now();
    let p0 = host_probe();
    // BEH model on the event kernel.
    let (run, beh) = tr.span("kernel.run_beh_model", |_| {
        run_beh_model(&s.cfg, &s.beh.input)
    });
    ledger.check(run.outputs == s.beh.output, || {
        "BEH kernel leg: outputs differ from golden".into()
    });
    let beh_work = Work::Kernel(
        run.clock_cycles.unwrap_or(0),
        run.stats.clone().unwrap_or_default(),
    );
    let p1 = host_probe();
    o.beh_cps.push(
        run.clock_cycles.unwrap_or(0) as f64 / beh.as_secs_f64(),
        p0,
        p1,
    );

    // RTL-opt on the compiled engine.
    let mut sim = s.rtl_prog.simulator();
    let ((outs, cycles), rtl) = tr.span("rtlir.run_handshake", |_| {
        run_handshake(
            &mut sim,
            &s.rtl.input,
            s.rtl.len(),
            cycle_budget(s.rtl.len()),
        )
    });
    ledger.check(outs == s.rtl.output, || {
        "RTL leg: outputs differ from golden".into()
    });
    let rtl_work = Work::Engine(cycles, sim.stats());
    let p2 = host_probe();
    o.rtl_cps.push(cycles as f64 / rtl.as_secs_f64(), p1, p2);

    // Synthesised SRC on the bit-parallel gate engine in the kernel
    // co-simulation testbench. Traced, the engine's own share is timed
    // through a pass-through wrapper.
    let mut dut = s.gate_prog.simulator();
    let budget = cycle_budget(s.gate.len());
    let mut gate_engine = Duration::ZERO;
    let (cosim, gate) = if tr.enabled() {
        let mut timed = EngineTimer {
            inner: &mut dut,
            busy: Duration::ZERO,
        };
        let r = tr.span("cosim.run_kernel_cosim", |tr| {
            let start = Instant::now();
            let r = run_kernel_cosim(&mut timed, &s.gate, budget);
            tr.push_measured("gate.bitpar.src", start, timed.busy, 0);
            r
        });
        gate_engine = timed.busy;
        r
    } else {
        tr.span("cosim.run_kernel_cosim", |_| {
            run_kernel_cosim(&mut dut, &s.gate, budget)
        })
    };
    ledger.check(cosim.outputs == s.gate.output, || {
        "gate co-simulation leg: outputs differ from golden".into()
    });
    let gate_work = Work::Engine(cosim.cycles, Simulation::stats(&dut));
    let p3 = host_probe();
    o.gate_cps
        .push(cosim.cycles as f64 / gate.as_secs_f64(), p2, p3);

    // Lane-parallel scenario sweep, forked from one warm-up.
    let mut lanes = s.rtl_prog.bit_simulator();
    let (replies, sweep) = tr.span("rtlir.run_forked_scenarios", |_| {
        run_forked_scenarios(
            &mut lanes,
            |sim| warm_up(sim, &s.warm, s.warm_cycles),
            &s.sweep,
            true,
        )
    });
    let sweep_ok = replies.as_ref().is_ok_and(|r| *r == s.sweep_expect);
    ledger.check(sweep_ok, || {
        "lane sweep: outputs differ from the scalar forked sweep".into()
    });
    let sweep_work = Work::Engine(lanes.cycle(), lanes.stats());
    let p4 = host_probe();
    o.sweep_per_s
        .push((s.sweep.len() * 64) as f64 / sweep.as_secs_f64(), p3, p4);

    // The generated netlist from reset.
    let mut big_sim = s.big_prog.simulator();
    big_sim.poke("a", s.big_a);
    let cycles = s.big_cycles;
    let ((), big) = tr.span("gate.run_cycles.big", |_| big_sim.run_cycles(cycles));
    let out: Vec<Bv> = s.big_outputs.iter().map(|p| big_sim.peek(p)).collect();
    let same_out = o.big_out.get_or_insert_with(|| out.clone()) == &out;
    ledger.check(same_out, || {
        "generated netlist: outputs differ between iterations".into()
    });
    let p5 = host_probe();
    o.big_cps.push(cycles as f64 / big.as_secs_f64(), p4, p5);

    let big_work = Work::Engine(cycles, Simulation::stats(&big_sim));
    let work = [beh_work, rtl_work, gate_work, sweep_work, big_work];
    let same = o.work.get_or_insert_with(|| work.clone()) == &work;
    ledger.check(same, || {
        "simulated cycles or engine work differ between iterations".into()
    });
    o.iter_s.push(t.elapsed().as_secs_f64());
    Legs {
        beh,
        rtl,
        gate,
        gate_engine,
        sweep,
        big,
        work,
    }
}

/// End-to-end regression metrics: the median of each leg's
/// per-iteration throughputs, each first taken to the reference host
/// speed by the probes around it.
///
/// On a shared host the per-iteration throughputs are bimodal: a leg runs
/// at full speed or, while a co-tenant contends for the core's caches, at
/// about half of it, switching within a second. The probes around a leg
/// see the same contention (their time correlates with the leg's at about
/// 0.8), so scaling each sample by them removes most of it.
pub fn end_to_end(o: &Samples, v: &mut Values, notes: &mut Vec<String>) {
    notes.push(format!("regress: {} iterations", o.iter_s.len()));
    if let Some(work) = &o.work {
        notes.push(format!(
            "regress work (repeats exactly for a seed): {work:?}"
        ));
    }
    for (name, xs) in [
        ("beh_cps", &o.beh_cps),
        ("rtl_cps", &o.rtl_cps),
        ("gate_cps", &o.gate_cps),
        ("gate_big_cps", &o.big_cps),
        ("sweep_scen_per_s", &o.sweep_per_s),
    ] {
        let raw = xs.raw();
        let scaled = xs.at_reference(true);
        v.set(name, xs.median_at_reference(true));
        let scaled_note = if scaled.is_empty() {
            "no undisturbed probe, raw median reported".to_owned()
        } else {
            format!(
                "at reference speed, {} samples: q1 {:.0} median {:.0} (reported) q3 {:.0}",
                scaled.len(),
                quantile(&scaled, 0.25),
                median(&scaled),
                quantile(&scaled, 0.75)
            )
        };
        notes.push(format!(
            "  {name}: raw q1 {:.0} median {:.0} q3 {:.0}; {scaled_note}",
            quantile(raw, 0.25),
            median(raw),
            quantile(raw, 0.75),
        ));
    }
}

fn per_cycle(n: u64, cycles: u64) -> f64 {
    n as f64 / cycles.max(1) as f64
}

fn active_ratio(st: &EngineStats) -> f64 {
    st.evals as f64 / (st.evals + st.skipped).max(1) as f64
}

/// The traced pass: iterations, alternately untraced and traced (the
/// order swapped from pair to pair), for `budget` (at least one pair);
/// the snapshot/restore breakdown of the lane engine; and the set-up
/// timings (medians over the run's set-ups). Layer metrics come from the
/// last traced iteration; the tracing overhead is the median ratio of a
/// traced iteration to its untraced partner.
pub fn traced(
    s: &Setup,
    budget: Duration,
    setups: &[SetupTimes],
    tr: &mut Tracer,
    ledger: &mut Ledger,
    v: &mut Values,
) {
    let mut o = Samples::default();
    let mut ratios = Vec::new();
    let start = Instant::now();
    let legs = loop {
        let mut legs = None;
        let mut t = [0.0; 2];
        for traced in [ratios.len() % 2 == 1, ratios.len() % 2 == 0] {
            tr.set_enabled(traced);
            let l = tick(s, tr, ledger, &mut o);
            t[usize::from(traced)] = o.iter_s.last().copied().unwrap_or(0.0);
            if traced {
                legs = Some(l);
            }
        }
        ratios.push(t[1] / t[0]);
        if start.elapsed() >= budget {
            break legs.expect("a traced iteration");
        }
    };
    tr.set_enabled(true);
    v.set(
        "trace.overhead_pct.regress",
        100.0 * (median(&ratios) - 1.0),
    );

    let [Work::Kernel(beh_cycles, k), Work::Engine(_, rtl), Work::Engine(gate_cycles, gate), _, Work::Engine(_, big)] =
        &legs.work
    else {
        return;
    };
    v.set("kernel.beh_s", legs.beh.as_secs_f64());
    v.set(
        "kernel.events_per_cycle",
        per_cycle(k.events_fired, *beh_cycles),
    );
    v.set(
        "kernel.deltas_per_cycle",
        per_cycle(k.delta_cycles, *beh_cycles),
    );
    v.set(
        "kernel.polls_per_cycle",
        per_cycle(k.processes_polled, *beh_cycles),
    );
    v.set("cosim.gate_s", legs.gate.as_secs_f64());
    v.set("cosim.cycles", *gate_cycles as f64);
    v.set("rtlir.exec_s", legs.rtl.as_secs_f64());
    v.set("rtlir.evals_per_cycle", per_cycle(rtl.evals, rtl.cycles));
    v.set("rtlir.active_ratio", active_ratio(rtl));
    v.set("rtlir.lanes_sweep_us", legs.sweep.as_secs_f64() * 1e6);
    v.set("gate.bitpar_s.src", legs.gate_engine.as_secs_f64());
    v.set(
        "gate.evals_per_cycle.src",
        per_cycle(gate.evals, gate.cycles),
    );
    v.set("gate.active_ratio.src", active_ratio(gate));
    v.set("gate.bitpar_s.big", legs.big.as_secs_f64());
    v.set("gate.evals_per_cycle.big", per_cycle(big.evals, big.cycles));
    v.set("gate.active_ratio.big", active_ratio(big));

    // Snapshot and restore of the warmed 64-lane RTL engine (derived:
    // the sweep does one of each per call, too short to time alone).
    let mut lanes = s.rtl_prog.bit_simulator();
    warm_up(&mut lanes, &s.warm, s.warm_cycles);
    let mut snap_us = Vec::new();
    let mut restore_us = Vec::new();
    let mut bytes = 0;
    for _ in 0..16 {
        let (snap, t) = tr.derived("rtlir.snapshot", |_| lanes.snapshot());
        snap_us.push(t.as_secs_f64() * 1e6);
        let Some(snap) = snap else {
            ledger.check(false, || "64-lane RTL engine refused to snapshot".into());
            return;
        };
        bytes = snap.blob().len();
        let (ok, t) = tr.derived("rtlir.restore", |_| lanes.restore(&snap));
        ledger.check(ok, || "64-lane RTL engine refused its own snapshot".into());
        restore_us.push(t.as_secs_f64() * 1e6);
    }
    v.set("rtlir.snapshot_us", median(&snap_us));
    v.set("rtlir.restore_us", median(&restore_us));
    v.set("rtlir.snapshot_bytes", bytes as f64);

    let pick = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    v.set("rtlir.compile_ms", pick(|t| t.rtl_compile_ms));
    v.set("rtlir.instrs", s.times.rtl_instrs as f64);
    v.set("rtlir.slots", s.times.rtl_slots as f64);
    v.set("gate.compile_ms", pick(|t| t.gate_compile_ms));
    v.set("gate.instrs", s.times.gate_instrs as f64);
    v.set("gate.passes_ms", pick(|t| t.passes_ms));
    v.set("gate.passes.cells_removed_pct", s.times.cells_removed_pct);
}
