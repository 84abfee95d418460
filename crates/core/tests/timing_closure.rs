//! "The timing goal could be easily achieved by all implementations" —
//! every synthesised variant must meet the paper's 40 ns clock, with
//! comfortable slack.

use scflow::models::beh::{synthesize_beh_src, BehVariant};
use scflow::models::rtl::{build_rtl_src, RtlVariant};
use scflow::models::vhdl_ref::build_vhdl_ref;
use scflow::SrcConfig;
use scflow_gate::CellLibrary;
use scflow_synth::rtl::{synthesize, SynthOptions};

const CLOCK_PS: u64 = 40_000;

fn all_designs(cfg: &SrcConfig) -> Vec<(String, scflow_rtl::Module)> {
    vec![
        ("VHDL-Ref".into(), build_vhdl_ref(cfg).expect("ref")),
        (
            "BEH unopt".into(),
            synthesize_beh_src(cfg, BehVariant::Unoptimised)
                .expect("beh")
                .module,
        ),
        (
            "BEH opt".into(),
            synthesize_beh_src(cfg, BehVariant::Optimised)
                .expect("beh")
                .module,
        ),
        (
            "RTL unopt".into(),
            build_rtl_src(cfg, RtlVariant::Unoptimised).expect("rtl"),
        ),
        (
            "RTL opt".into(),
            build_rtl_src(cfg, RtlVariant::Optimised).expect("rtl"),
        ),
    ]
}

#[test]
fn every_design_meets_the_40ns_clock() {
    let cfg = SrcConfig::cd_to_dvd();
    let lib = CellLibrary::generic_025u();
    for (name, module) in all_designs(&cfg) {
        let r = synthesize(&module, &lib, &SynthOptions::default()).expect("synth");
        assert!(
            r.timing.meets(CLOCK_PS),
            "{name}: critical path {} ps misses the 40 ns clock",
            r.timing.critical_path_ps
        );
        // "easily achieved": at least 40% slack everywhere.
        assert!(
            r.timing.slack_ps(CLOCK_PS) > (CLOCK_PS as i64) * 2 / 5,
            "{name}: slack {} ps is uncomfortably small",
            r.timing.slack_ps(CLOCK_PS)
        );
    }
}

#[test]
fn timing_holds_for_the_downsampling_configuration_too() {
    let cfg = SrcConfig::dvd_to_cd();
    let lib = CellLibrary::generic_025u();
    for (name, module) in all_designs(&cfg) {
        let r = synthesize(&module, &lib, &SynthOptions::default()).expect("synth");
        assert!(r.timing.meets(CLOCK_PS), "{name} misses timing");
    }
}

#[test]
fn scan_insertion_does_not_break_timing() {
    let cfg = SrcConfig::cd_to_dvd();
    let lib = CellLibrary::generic_025u();
    let m = build_rtl_src(&cfg, RtlVariant::Optimised).expect("rtl");
    let with_scan = synthesize(&m, &lib, &SynthOptions::default()).expect("synth");
    let without = synthesize(
        &m,
        &lib,
        &SynthOptions {
            insert_scan: false,
            ..SynthOptions::default()
        },
    )
    .expect("synth");
    assert!(with_scan.timing.meets(CLOCK_PS));
    // The scan mux only changes clk->Q; the only combinational cost is
    // the RAM read bypass (one Mux2 on each read-data path), so the
    // critical path may grow by at most one mux delay.
    use scflow_gate::CellKind;
    let bypass = lib.delay(CellKind::Mux2);
    assert!(
        with_scan.timing.critical_path_ps <= without.timing.critical_path_ps + bypass + 100,
        "scan insertion distorted the data path beyond the read-bypass mux: \
         {} ps with scan vs {} ps without",
        with_scan.timing.critical_path_ps,
        without.timing.critical_path_ps
    );
}
