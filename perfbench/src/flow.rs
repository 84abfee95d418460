//! The `flow` workload: what a designer runs after every change, through
//! the default `scflow::flow` entry points — validation of all six
//! synthesisable levels on the library-default engine, the five
//! Figure 10 syntheses with area and timing, then ATPG with
//! `AtpgOptions::default()` on the pinned fault threads.

use crate::metrics::{median, Values, FIG10, LEVELS};
use crate::trace::{process_cpu_ns, Tracer};
use crate::{audio_mix, host_probe, rng_for, HostSamples, Ledger, Size, FAULT_THREADS};
use scflow::flow::{
    run_area_flow, run_atpg_flow, validate_all_levels, validate_module_with, AreaFigure, SimEngine,
};
use scflow::models::beh::{synthesize_beh_src, BehVariant};
use scflow::models::rtl::{build_rtl_src, RtlVariant};
use scflow::models::vhdl_ref::build_vhdl_ref;
use scflow::verify::GoldenVectors;
use scflow::SrcConfig;
use scflow_gate::fault;
use scflow_gate::{
    insert_scan_chain, longest_path, AtpgOptions, AtpgResult, CellLibrary, FaultClass, GateNetlist,
};
use scflow_rtl::Module;
use scflow_synth::rtl::{synthesize, SynthOptions};
use std::time::Duration;

/// Inputs of the flow.
pub struct Setup {
    cfg: SrcConfig,
    lib: CellLibrary,
    input: Vec<i16>,
}

/// Builds the seeded validation stimulus.
pub fn setup(seed: u64, size: &Size) -> Setup {
    Setup {
        cfg: SrcConfig::cd_to_dvd(),
        lib: CellLibrary::generic_025u(),
        input: audio_mix(&mut rng_for(seed, "flow.validation"), size.flow_samples),
    }
}

/// The Figure 10 rows, reduced to what must repeat exactly.
type AreaKey = Vec<(String, f64, f64, usize, usize, u64)>;

fn area_key(fig: &AreaFigure) -> AreaKey {
    fig.rows
        .iter()
        .map(|r| {
            (
                r.design.clone(),
                r.combinational_um2,
                r.sequential_um2,
                r.flops,
                r.cells,
                r.critical_path_ps,
            )
        })
        .collect()
}

/// Measurements of the flow iterations of one pass.
#[derive(Default)]
pub struct Samples {
    signoff_s: HostSamples,
    atpg_s: Vec<f64>,
    area: Option<AreaKey>,
    atpg: Option<AtpgResult>,
    /// Classes the final patterns detect that ATPG does not credit.
    uncredited: usize,
}

/// Sign-off: validation of every level, then the Figure 10 area flow.
/// The rows must equal those of the first sign-off recorded in `o`.
/// [`host_probe`]s before and after give the host speed around it.
pub fn signoff_tick(s: &Setup, tr: &mut Tracer, ledger: &mut Ledger, o: &mut Samples) {
    let before = host_probe();
    let (valid, t_valid) = tr.span("core.validate_all_levels", |_| {
        validate_all_levels(&s.cfg, &s.input)
    });
    ledger.check(valid.is_ok(), || format!("validate_all_levels: {valid:?}"));
    let (fig, t_area) = tr.span("core.run_area_flow", |_| run_area_flow(&s.cfg, &s.lib));
    match fig {
        Ok(fig) => {
            let key = area_key(&fig);
            let same = o.area.get_or_insert_with(|| key.clone()) == &key;
            ledger.check(same, || "Figure 10 rows differ between iterations".into());
        }
        Err(e) => {
            ledger.check(false, || format!("run_area_flow: {e}"));
        }
    }
    let after = host_probe();
    o.signoff_s
        .push((t_valid + t_area).as_secs_f64(), before, after);
}

/// ATPG with the default options. The result must equal the first one
/// recorded in `o`. Returns the wall time and the process CPU time used.
pub fn atpg_tick(
    s: &Setup,
    tr: &mut Tracer,
    ledger: &mut Ledger,
    o: &mut Samples,
) -> (Duration, u64) {
    let cpu0 = process_cpu_ns();
    let (res, t_atpg) = tr.span("core.run_atpg_flow", |_| {
        run_atpg_flow(&s.cfg, &s.lib, &AtpgOptions::default())
    });
    let cpu = process_cpu_ns().saturating_sub(cpu0);
    match res {
        Ok((_, result)) => match &o.atpg {
            None => o.atpg = Some(result),
            Some(first) => {
                let same = first.classes == result.classes && first.patterns == result.patterns;
                ledger.check(same, || "ATPG result differs between iterations".into());
            }
        },
        Err(e) => {
            ledger.check(false, || format!("run_atpg_flow: {e}"));
        }
    }
    o.atpg_s.push(t_atpg.as_secs_f64());
    (t_atpg, cpu)
}

/// Re-checks the pass's ATPG result by independent fault simulation.
pub fn finish(s: &Setup, o: &mut Samples, ledger: &mut Ledger) {
    if let Some(result) = &o.atpg {
        o.uncredited = check_patterns(s, result, ledger);
    }
}

/// Fault-simulates the generated pattern set on the netlist and fault
/// list `run_atpg_flow` targets, and requires every class ATPG reports
/// detected to be detected by the patterns. Returns how many classes the
/// patterns detect beyond those ATPG credits.
fn check_patterns(s: &Setup, result: &AtpgResult, ledger: &mut Ledger) -> usize {
    let netlist = build_rtl_src(&s.cfg, RtlVariant::Optimised)
        .ok()
        .and_then(|m| synthesize(&m, &s.lib, &SynthOptions::default()).ok());
    let Some(netlist) = netlist.map(|r| r.netlist) else {
        ledger.check(false, || "cannot rebuild the ATPG netlist".into());
        return 0;
    };
    let faults = fault::collapse_faults(&netlist, &fault::all_fault_sites(&netlist)).faults;
    let sim = fault::fault_coverage_with_threads(
        &netlist,
        &s.lib,
        &faults,
        &result.patterns,
        FAULT_THREADS,
    );
    let claimed_hold = faults.len() == result.classes.len()
        && result
            .classes
            .iter()
            .zip(&sim.detected_mask)
            .all(|(c, &hit)| hit || !matches!(c, FaultClass::Detected { .. }));
    ledger.check(claimed_hold, || {
        "a fault ATPG reports detected is not detected by its patterns".into()
    });
    sim.detected.saturating_sub(result.detected())
}

/// End-to-end flow metrics. `signoff_s` is scaled sample by sample, like
/// the regression throughputs: the probes around a sign-off track its
/// time closely. `atpg_s` is the median call divided by the run's host
/// factor `f`: probes at the two ends of a 7 s call on two threads track
/// that call only loosely, but the run's factor tracks whole runs.
pub fn end_to_end(o: &Samples, f: f64, v: &mut Values, notes: &mut Vec<String>) {
    v.set("signoff_s", o.signoff_s.median_at_reference(false));
    v.set("atpg_s", median(&o.atpg_s) / f);
    if let Some(r) = &o.atpg {
        v.set("fault_coverage_pct", r.coverage_pct());
        v.set("test_patterns", r.patterns.len() as f64);
    }
    if let Some(rows) = &o.area {
        v.set("area_um2", rows.iter().map(|r| r.1 + r.2).sum());
    }
    let list = |xs: &[f64]| {
        xs.iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    notes.push(format!(
        "flow: {} sign-offs, {} ATPG calls; {} fault classes detected by the final patterns but not credited by ATPG",
        o.signoff_s.raw().len(),
        o.atpg_s.len(),
        o.uncredited
    ));
    notes.push(format!(
        "  signoff_s samples, raw: {}; at reference speed: {}",
        list(o.signoff_s.raw()),
        list(&o.signoff_s.at_reference(false))
    ));
    notes.push(format!("  atpg_s samples, raw: {}", list(&o.atpg_s)));
}

/// Kind of each fault class, without the pattern index compaction
/// renumbers.
fn kinds(classes: &[FaultClass]) -> Vec<std::mem::Discriminant<FaultClass>> {
    classes.iter().map(std::mem::discriminant).collect()
}

/// Per-design stage times of one synthesis, derived from the
/// `SynthOptions` switches and the public stage functions.
#[derive(Default)]
struct Stages {
    lower: f64,
    opt: f64,
    scan: f64,
    area: f64,
    timing: f64,
    cells_mapped: usize,
    cells_opt: usize,
}

/// Synthesises `module` once as the flow does and once stage by stage,
/// and checks that both give the same area and timing.
fn synth_breakdown(
    s: &Setup,
    design: &str,
    module: &Module,
    tr: &mut Tracer,
    ledger: &mut Ledger,
    v: &mut Values,
    st: &mut Stages,
) -> Option<GateNetlist> {
    let (full, t_full) = tr.derived(&format!("synth.rtl.{design}"), |_| {
        synthesize(module, &s.lib, &SynthOptions::default())
    });
    v.set(&format!("synth.rtl_ms.{design}"), ms(t_full));
    let full = full.ok()?;
    let bare = SynthOptions {
        optimize: false,
        insert_scan: false,
    };
    let (mapped, t_mapped) = tr.derived("synth.map_and_report", |_| {
        synthesize(module, &s.lib, &bare)
    });
    let mapped = mapped.ok()?.netlist;
    let (_, t_marea) = tr.derived("gate.area.mapped", |_| mapped.area_report(&s.lib));
    let (_, t_mtiming) = tr.derived("gate.timing.mapped", |_| longest_path(&mapped, &s.lib));
    let (opt, t_opt) = tr.derived("synth.opt", |_| scflow_synth::rtl::optimize(&mapped));
    let (scanned, t_scan) = tr.derived("gate.scan", |_| insert_scan_chain(&opt));
    let (area, t_area) = tr.derived("gate.area", |_| scanned.area_report(&s.lib));
    let (timing, t_timing) = tr.derived("gate.timing", |_| longest_path(&scanned, &s.lib));
    ledger.check(
        area == full.area
            && timing == full.timing
            && scanned.flop_count() == full.netlist.flop_count(),
        || format!("{design}: staged synthesis differs from synthesize()"),
    );
    st.lower += ms(t_mapped) - ms(t_marea) - ms(t_mtiming);
    st.opt += ms(t_opt);
    st.scan += ms(t_scan);
    st.area += ms(t_area);
    st.timing += ms(t_timing);
    st.cells_mapped += mapped.instances().len();
    st.cells_opt += opt.instances().len();
    v.set(&format!("synth.area_um2.{design}"), full.area.total_um2());
    v.set(
        &format!("synth.flops.{design}"),
        full.netlist.flop_count() as f64,
    );
    Some(full.netlist)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The traced pass: sign-offs and ATPG calls, alternately untraced and
/// traced, for the tracing overhead (the median ratio of each traced call
/// to its untraced partner, with the order swapped from pair to pair);
/// then the derived per-level, per-stage and per-ATPG-stage breakdowns.
/// Every call's results go to `o`, where they must repeat exactly.
/// Returns notes.
pub fn traced(
    s: &Setup,
    pairs: usize,
    tr: &mut Tracer,
    ledger: &mut Ledger,
    o: &mut Samples,
    v: &mut Values,
) -> Vec<String> {
    let mut notes = Vec::new();
    let mut ratios = Vec::new();
    let mut atpg = (Duration::ZERO, 0);
    for pair in 0..=pairs {
        // The last pair is the ATPG pair.
        let is_atpg = pair == pairs;
        let mut t = [0.0; 2];
        for traced in [pair % 2 == 1, pair % 2 == 0] {
            tr.set_enabled(traced);
            t[usize::from(traced)] = if is_atpg {
                let r = atpg_tick(s, tr, ledger, o);
                if traced {
                    atpg = r;
                }
                r.0.as_secs_f64()
            } else {
                signoff_tick(s, tr, ledger, o);
                o.signoff_s.raw().last().copied().unwrap_or(0.0)
            };
        }
        ratios.push(t[1] / t[0]);
    }
    tr.set_enabled(true);
    v.set("trace.overhead_pct.flow", 100.0 * (median(&ratios) - 1.0));
    let Some(full) = o.atpg.clone() else {
        return notes;
    };
    let (t_atpg, atpg_cpu) = atpg;
    v.set(
        "gate.atpg.cpu_util",
        atpg_cpu as f64 * 1e-9 / (t_atpg.as_secs_f64() * FAULT_THREADS as f64),
    );

    // Validation, level by level, as validate_all_levels runs it.
    let (golden, t_golden) = tr.derived("core.golden", |_| {
        GoldenVectors::generate(&s.cfg, s.input.clone())
    });
    v.set("core.golden_ms", ms(t_golden));
    let mut beh_ms = 0.0;
    let mut modules: Vec<(&str, Option<Module>)> = Vec::new();
    for (level, variant) in [
        ("beh_unopt", BehVariant::Unoptimised),
        ("beh_opt", BehVariant::Optimised),
    ] {
        let (m, t) = tr.derived(&format!("synth.beh.{level}"), |_| {
            synthesize_beh_src(&s.cfg, variant)
        });
        beh_ms += ms(t);
        modules.push((level, m.ok().map(|o| o.module)));
    }
    v.set("synth.beh_ms", beh_ms);
    for (level, variant) in [
        ("rtl_unopt", RtlVariant::Unoptimised),
        ("rtl_opt", RtlVariant::Optimised),
        ("rtl_buggy", RtlVariant::OptimisedBuggy),
    ] {
        modules.push((level, build_rtl_src(&s.cfg, variant).ok()));
    }
    modules.push(("vhdl_ref", build_vhdl_ref(&s.cfg).ok()));
    debug_assert_eq!(modules.iter().map(|m| m.0).collect::<Vec<_>>(), LEVELS);
    for (level, m) in &modules {
        let Some(m) = m else {
            ledger.check(false, || format!("{level}: module does not build"));
            continue;
        };
        let (r, t) = tr.derived(&format!("core.validate.{level}"), |_| {
            validate_module_with(SimEngine::default(), level, m, &golden, *level == "beh_opt")
        });
        ledger.check(r.is_ok(), || format!("validate {level}: {r:?}"));
        v.set(&format!("core.validate_ms.{level}"), ms(t));
    }

    // The five Figure 10 syntheses, stage by stage.
    let mut st = Stages::default();
    let mut rtl_opt_netlist = None;
    for design in FIG10 {
        let Some((_, Some(m))) = modules.iter().find(|(l, _)| *l == design) else {
            continue;
        };
        let nl = synth_breakdown(s, design, m, tr, ledger, v, &mut st);
        ledger.check(nl.is_some(), || format!("{design}: synthesis failed"));
        if design == "rtl_opt" {
            rtl_opt_netlist = nl;
        }
    }
    if let Some(rows) = &o.area {
        let same = rows.iter().zip(FIG10).all(|(r, d)| {
            v.get(&format!("synth.area_um2.{d}")) == Some(r.1 + r.2)
                && v.get(&format!("synth.flops.{d}")) == Some(r.3 as f64)
        });
        ledger.check(same && rows.len() == FIG10.len(), || {
            "staged Figure 10 rows differ from run_area_flow".into()
        });
    }
    v.set("synth.lower_ms", st.lower);
    v.set("synth.opt_ms", st.opt);
    v.set(
        "synth.opt.cells_removed_pct",
        100.0 * st.cells_mapped.saturating_sub(st.cells_opt) as f64 / st.cells_mapped.max(1) as f64,
    );
    v.set("gate.scan_ms", st.scan);
    v.set("gate.area_ms", st.area);
    v.set("gate.timing_ms", st.timing);

    // ATPG stages, split by difference over the stage switches.
    let Some(netlist) = rtl_opt_netlist else {
        return notes;
    };
    let ((sites, faults), t_collapse) = tr.derived("gate.fault.collapse", |_| {
        let all = fault::all_fault_sites(&netlist);
        let collapsed = fault::collapse_faults(&netlist, &all).faults;
        (all.len(), collapsed)
    });
    v.set("gate.fault.collapse_ms", ms(t_collapse));
    v.set(
        "gate.fault.classes_per_site",
        faults.len() as f64 / sites.max(1) as f64,
    );
    let random_only = AtpgOptions {
        directed: false,
        compact: false,
        ..AtpgOptions::default()
    };
    let no_compact = AtpgOptions {
        compact: false,
        ..AtpgOptions::default()
    };
    let (r, t_r) = tr.derived("gate.atpg.random", |_| {
        scflow_gate::generate_tests(&netlist, &s.lib, &faults, &random_only)
    });
    let (rd, t_rd) = tr.derived("gate.atpg.random_directed", |_| {
        scflow_gate::generate_tests(&netlist, &s.lib, &faults, &no_compact)
    });
    ledger.check(
        kinds(&rd.classes) == kinds(&full.classes)
            && rd.patterns.len() == full.stats.patterns_before_compaction
            && r.stats.random_detected == full.stats.random_detected,
        || "staged ATPG differs from run_atpg_flow".into(),
    );
    // run_atpg_flow also builds, synthesises and collapses; those parts
    // are measured above and taken out before the compaction difference.
    let prep = v.get("synth.rtl_ms.rtl_opt").unwrap_or(0.0) * 1e-3 + t_collapse.as_secs_f64();
    v.set("gate.atpg.random_s", t_r.as_secs_f64());
    v.set(
        "gate.atpg.directed_s",
        t_rd.as_secs_f64() - t_r.as_secs_f64(),
    );
    v.set(
        "gate.atpg.compact_s",
        t_atpg.as_secs_f64() - prep - t_rd.as_secs_f64(),
    );
    let stats = &full.stats;
    v.set("gate.atpg.random_rounds", stats.random_rounds as f64);
    v.set(
        "gate.atpg.random_yield",
        stats.random_detected as f64 / (64 * stats.random_rounds).max(1) as f64,
    );
    let after_random = stats.directed_detected + full.untestable() + full.aborted();
    v.set(
        "gate.atpg.directed_yield",
        stats.directed_detected as f64 / after_random.max(1) as f64,
    );
    v.set("gate.atpg.decisions", stats.decisions as f64);
    v.set("gate.atpg.backtracks", stats.backtracks as f64);
    v.set("gate.atpg.aborted", full.aborted() as f64);
    v.set(
        "gate.atpg.compaction_keep",
        full.patterns.len() as f64 / stats.patterns_before_compaction.max(1) as f64,
    );
    notes.push(format!(
        "flow (traced): atpg {:.3} s = random {:.3} + directed {:.3} + compact {:.3} + prep {:.3} (derived)",
        t_atpg.as_secs_f64(),
        t_r.as_secs_f64(),
        t_rd.as_secs_f64() - t_r.as_secs_f64(),
        t_atpg.as_secs_f64() - prep - t_rd.as_secs_f64(),
        prep
    ));
    notes
}
