//! The refinement flow's central invariant: **every level is bit-accurate
//! against the golden model** — the check the paper performed after each
//! refinement step.

use scflow::models::beh::{run_beh_model, BehVariant};
use scflow::models::channel::run_channel_model;
use scflow::models::refined::run_refined_model;
use scflow::models::rtl::{build_rtl_src, run_rtl_model, RtlVariant};
use scflow::verify::{compare_bit_accurate, GoldenVectors};
use scflow::{stimulus, SrcConfig};

fn golden(cfg: &SrcConfig, n: usize) -> GoldenVectors {
    let input = stimulus::sine(n, 1000.0, f64::from(cfg.in_rate), 9000.0);
    GoldenVectors::generate(cfg, input)
}

#[test]
fn channel_model_is_bit_accurate_up() {
    let cfg = SrcConfig::cd_to_dvd();
    let g = golden(&cfg, 300);
    let run = run_channel_model(&cfg, &g.input);
    compare_bit_accurate(&g.output, &run.outputs).expect("channel model");
    assert!(run.sim_time.as_ps() > 0);
}

#[test]
fn channel_model_is_bit_accurate_down() {
    let cfg = SrcConfig::dvd_to_cd();
    let g = golden(&cfg, 300);
    let run = run_channel_model(&cfg, &g.input);
    compare_bit_accurate(&g.output, &run.outputs).expect("channel model down");
}

#[test]
fn refined_channel_is_bit_accurate() {
    for cfg in [SrcConfig::cd_to_dvd(), SrcConfig::dvd_to_cd()] {
        let g = golden(&cfg, 300);
        let run = run_refined_model(&cfg, &g.input);
        compare_bit_accurate(&g.output, &run.outputs)
            .unwrap_or_else(|m| panic!("refined model {}->{}: {m}", cfg.in_rate, cfg.out_rate));
    }
}

#[test]
fn clocked_behavioural_model_is_bit_accurate() {
    for cfg in [SrcConfig::cd_to_dvd(), SrcConfig::dvd_to_cd()] {
        let g = golden(&cfg, 120);
        let run = run_beh_model(&cfg, &g.input);
        compare_bit_accurate(&g.output, &run.outputs)
            .unwrap_or_else(|m| panic!("beh model {}->{}: {m}", cfg.in_rate, cfg.out_rate));
        assert!(run.clock_cycles.unwrap() > 0);
    }
}

#[test]
fn clocked_rtl_model_is_bit_accurate() {
    for cfg in [SrcConfig::cd_to_dvd(), SrcConfig::dvd_to_cd()] {
        let g = golden(&cfg, 120);
        let run = run_rtl_model(&cfg, &g.input);
        compare_bit_accurate(&g.output, &run.outputs)
            .unwrap_or_else(|m| panic!("rtl model {}->{}: {m}", cfg.in_rate, cfg.out_rate));
    }
}

#[test]
fn all_synthesisable_levels_validate_up() {
    let cfg = SrcConfig::cd_to_dvd();
    let input = stimulus::sine(150, 1000.0, 44100.0, 9000.0);
    scflow::flow::validate_all_levels(&cfg, &input).expect("all levels bit-accurate");
}

#[test]
fn all_synthesisable_levels_validate_down() {
    let cfg = SrcConfig::dvd_to_cd();
    let input = stimulus::sweep(150, 100.0, 15000.0, 48000.0, 9000.0);
    scflow::flow::validate_all_levels(&cfg, &input).expect("all levels bit-accurate (down)");
}

#[test]
fn rtl_variants_agree_with_each_other() {
    let cfg = SrcConfig::dvd_to_cd();
    let g = golden(&cfg, 200);
    let mut outs = Vec::new();
    for variant in [
        RtlVariant::Unoptimised,
        RtlVariant::Optimised,
        RtlVariant::OptimisedBuggy,
    ] {
        let m = build_rtl_src(&cfg, variant).expect("build");
        let mut sim = scflow_rtl::RtlSim::new(&m);
        let (o, _) = scflow::models::harness::run_handshake(
            &mut sim,
            &g.input,
            g.len(),
            scflow::flow::cycle_budget(g.len()),
        );
        outs.push(o);
    }
    assert_eq!(outs[0], outs[1]);
    assert_eq!(outs[1], outs[2]);
    compare_bit_accurate(&g.output, &outs[0]).expect("rtl vs golden");
}

#[test]
fn kernel_models_report_activity() {
    let cfg = SrcConfig::cd_to_dvd();
    let g = golden(&cfg, 60);
    let ch = run_channel_model(&cfg, &g.input);
    let beh = run_beh_model(&cfg, &g.input);
    let rtl = run_rtl_model(&cfg, &g.input);
    // The refinement cost gradient the paper's Figure 8 rests on:
    // more detailed models burn more kernel activity for the same work.
    let polls = |r: &scflow::models::SimRun| r.stats.as_ref().unwrap().processes_polled;
    assert!(polls(&beh) > polls(&ch) * 3);
    assert!(polls(&rtl) > polls(&beh));
}

#[test]
fn beh_variants_have_decreasing_registers() {
    let cfg = SrcConfig::cd_to_dvd();
    let unopt =
        scflow::models::beh::synthesize_beh_src(&cfg, BehVariant::Unoptimised).expect("beh unopt");
    let opt =
        scflow::models::beh::synthesize_beh_src(&cfg, BehVariant::Optimised).expect("beh opt");
    assert!(
        unopt.report.register_bits > opt.report.register_bits,
        "unopt {} vs opt {}",
        unopt.report.register_bits,
        opt.report.register_bits
    );
    assert!(unopt.report.states >= opt.report.states);
}

#[test]
fn time_quantisation_appears_at_the_clocked_levels() {
    // The paper's Figure 7: event times in the clocked implementation can
    // only fall on clock edges, unlike the continuous-time channel model.
    let cfg = SrcConfig::cd_to_dvd();
    let g = golden(&cfg, 60);
    let period = scflow::models::beh::CLOCK_PERIOD.as_ps();

    let beh = run_beh_model(&cfg, &g.input);
    assert_eq!(beh.output_times.len(), g.len());
    for t in &beh.output_times {
        assert_eq!(
            t.as_ps() % period,
            period / 2,
            "clocked output at {t} is off the rising-edge grid"
        );
    }

    let chan = run_channel_model(&cfg, &g.input);
    assert!(
        chan.output_times
            .iter()
            .any(|t| t.as_ps() % period != period / 2),
        "continuous-time model should not be clock-quantised"
    );
}

#[test]
fn differential_kernel_models_agree_on_seeded_noise() {
    // The paper's per-refinement-step re-validation, run differentially:
    // every kernel model against the golden stream on random stimuli, with
    // the earliest divergence (signal, index, both values) reported.
    use scflow_testkit::diff::first_divergence_multi;
    use scflow_testkit::Rng;

    let cfg = SrcConfig::cd_to_dvd();
    let mut seeds = Rng::new(0xD1FF_0001);
    for _ in 0..3 {
        let seed = seeds.next_u64();
        let g = GoldenVectors::generate(&cfg, stimulus::noise(240, 9_000, seed));
        let chan = run_channel_model(&cfg, &g.input).outputs;
        let refined = run_refined_model(&cfg, &g.input).outputs;
        let beh = run_beh_model(&cfg, &g.input).outputs;
        let rtl = run_rtl_model(&cfg, &g.input).outputs;
        if let Some(d) = first_divergence_multi(&[
            ("channel.out", &g.output, &chan),
            ("refined.out", &g.output, &refined),
            ("beh.out", &g.output, &beh),
            ("rtl.out", &g.output, &rtl),
        ]) {
            panic!("stimulus seed {seed:#x}: {d}");
        }
    }
}

#[test]
fn differential_divergence_reports_the_injected_bug() {
    // Negative control: the deliberately buggy RTL variant must be caught
    // by the same differential harness, with a located first divergence.
    use scflow_testkit::diff::diff_models;

    let cfg = SrcConfig::dvd_to_cd();
    let g = golden(&cfg, 200);
    let run_variant = |variant: RtlVariant, input: &Vec<i16>| {
        let m = build_rtl_src(&cfg, variant).expect("build");
        let mut sim = scflow_rtl::RtlSim::new(&m);
        scflow::models::harness::run_handshake(
            &mut sim,
            input,
            g.len(),
            scflow::flow::cycle_budget(g.len()),
        )
        .0
    };
    // The buggy variant is output-equivalent (the bug is a latent buffer
    // overrun, not a data error), so the differential run must stay clean.
    let agreed = diff_models(
        "rtl.out",
        &g.input,
        |s| run_variant(RtlVariant::Optimised, s),
        |s| run_variant(RtlVariant::OptimisedBuggy, s),
    )
    .expect("output-equivalent variants");
    assert_eq!(agreed, g.len());

    // A genuinely wrong model (off-by-one gain) is located at its first
    // bad sample.
    let d = diff_models(
        "rtl.out",
        &g.input,
        |s| run_variant(RtlVariant::Optimised, s),
        |s| {
            run_variant(RtlVariant::Optimised, s)
                .into_iter()
                .map(|v| v.saturating_add(1))
                .collect()
        },
    )
    .expect_err("perturbed stream must diverge");
    assert_eq!(d.index, 0);
    assert_eq!(d.signal, "rtl.out");
}
