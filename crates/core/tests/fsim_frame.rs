//! Differential suite for the PPSFP kernel's capture-frame path.
//!
//! `detection_masks` simulates most faults on the capture frame alone
//! and the rest on the full scan protocol. Every mask it returns must
//! equal the protocol's, computed here independently through the public
//! engine API: reset, inject, `apply_pattern_batch`, compare with the
//! fault-free signature. Each netlist is checked for every collapsed
//! fault on one full 64-pattern batch and one partial batch.
//!
//! The protocol reference costs ~150 scan ticks per fault and batch, so
//! unoptimised builds check every 16th fault; verify.sh runs the suite
//! in release, over every fault.

use scflow::models::beh::{synthesize_beh_src, BehVariant};
use scflow::models::rtl::{build_rtl_src, RtlVariant};
use scflow::models::vhdl_ref::build_vhdl_ref;
use scflow::SrcConfig;
use scflow_gate::fault::{
    all_fault_sites, apply_pattern_batch, collapse_faults, detection_masks,
    fault_coverage_instrumented_with_threads, random_patterns, FaultSite, ScanPattern,
};
use scflow_gate::gen::{generate, GenKind, GenParams, Redundancy};
use scflow_gate::{
    insert_scan_chain, CellKind, CellLibrary, GateNetlist, GateProgram, NetlistBuilder,
};
use scflow_hwtypes::Bv;
use scflow_rtl::Module;
use scflow_synth::rtl::{synthesize, SynthOptions};

const STRIDE: usize = if cfg!(debug_assertions) { 16 } else { 1 };

/// Protocol masks from the public engine API, the fault list split over
/// two threads.
fn protocol_masks(prog: &GateProgram, faults: &[FaultSite], batch: &[ScanPattern]) -> Vec<u64> {
    let lane_mask = if batch.len() == 64 {
        !0
    } else {
        (1u64 << batch.len()) - 1
    };
    let mut sim = prog.simulator_lanes(64);
    let golden = apply_pattern_batch(&mut sim, batch);
    let run = |shard: &[FaultSite]| -> Vec<u64> {
        let mut sim = prog.simulator_lanes(64);
        shard
            .iter()
            .map(|f| {
                sim.reset();
                sim.inject_stuck_at(f.instance, f.stuck_at);
                let sig = apply_pattern_batch(&mut sim, batch);
                let diff = sig
                    .iter()
                    .zip(&golden)
                    .fold(0, |m, (s, g)| m | (s.0 ^ g.0) | (s.1 ^ g.1));
                diff & lane_mask
            })
            .collect()
    };
    let half = faults.len().div_ceil(2).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = faults
            .chunks(half)
            .map(|c| s.spawn(move || run(c)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("protocol shard panicked"))
            .collect()
    })
}

/// Frame masks equal protocol masks for every (strided) collapsed fault
/// of `nl`, on a full and a partial batch; returns the kernel's
/// frame-path run count on the full batch.
fn check_netlist(name: &str, nl: &GateNetlist, seed: u64) -> u64 {
    let lib = CellLibrary::generic_025u();
    let prog = GateProgram::compile(nl).expect("levelizable");
    let collapsed = collapse_faults(nl, &all_fault_sites(nl)).faults;
    let faults: Vec<FaultSite> = collapsed.into_iter().step_by(STRIDE).collect();
    let patterns = random_patterns(nl, 64 + 37, seed);
    for batch in [&patterns[..64], &patterns[64..]] {
        let frame = detection_masks(&prog, &faults, batch, 2);
        let protocol = protocol_masks(&prog, &faults, batch);
        if let Some(k) = (0..faults.len()).find(|&k| frame[k] != protocol[k]) {
            panic!(
                "{name}, {}-pattern batch: fault {:?} ({}) frame mask {:#018x} != protocol {:#018x}",
                batch.len(),
                faults[k],
                nl.instances()[faults[k].instance].kind,
                frame[k],
                protocol[k]
            );
        }
    }
    let (_, stats) =
        fault_coverage_instrumented_with_threads(nl, &lib, &faults, &patterns[..64], 1);
    stats.fsim_frame
}

fn src_netlists(cfg: &SrcConfig) -> Vec<(&'static str, Module)> {
    vec![
        (
            "beh_unopt",
            synthesize_beh_src(cfg, BehVariant::Unoptimised)
                .expect("beh unopt")
                .module,
        ),
        (
            "beh_opt",
            synthesize_beh_src(cfg, BehVariant::Optimised)
                .expect("beh opt")
                .module,
        ),
        (
            "rtl_unopt",
            build_rtl_src(cfg, RtlVariant::Unoptimised).expect("rtl unopt"),
        ),
        (
            "rtl_opt",
            build_rtl_src(cfg, RtlVariant::Optimised).expect("rtl opt"),
        ),
        (
            "rtl_buggy",
            build_rtl_src(cfg, RtlVariant::OptimisedBuggy).expect("rtl buggy"),
        ),
        ("vhdl_ref", build_vhdl_ref(cfg).expect("vhdl ref")),
    ]
}

#[test]
fn frame_masks_equal_protocol_masks_on_every_src_netlist() {
    let cfg = SrcConfig::cd_to_dvd();
    let lib = CellLibrary::generic_025u();
    for (k, (name, module)) in src_netlists(&cfg).into_iter().enumerate() {
        let nl = synthesize(&module, &lib, &SynthOptions::default())
            .expect("synth")
            .netlist;
        let frame_runs = check_netlist(name, &nl, 0x5EED + k as u64);
        assert!(frame_runs > 0, "{name}: no fault took the frame path");
    }
}

#[test]
fn frame_masks_equal_protocol_masks_on_generated_families() {
    for kind in [
        GenKind::AdderTree,
        GenKind::MultTree,
        GenKind::Pipeline,
        GenKind::SrcMac,
    ] {
        for seed in [3u64, 0xA11CE] {
            let mut p = GenParams::sized(kind, 400, seed);
            p.redundancy = Redundancy::none();
            let nl = insert_scan_chain(&generate(&p));
            let frame_runs = check_netlist(&format!("{kind:?}/{seed}"), &nl, seed);
            assert!(frame_runs > 0, "{kind:?}: no fault took the frame path");
        }
    }
}

/// A fault outside the shift cone that changes a RAM's write data at the
/// capture edge: the word written differs, and a primary output reads it
/// combinationally after the edge. The post-edge reference holds the
/// fault-free word, so only the protocol can show this — the kernel must
/// notice the write-port change and fall back.
#[test]
fn write_port_change_at_capture_falls_back_to_the_protocol() {
    let mut b = NetlistBuilder::new("wport");
    let d = b.input_port("d", 1)[0];
    let we = b.input_port("we", 1)[0];
    let a = b.input_port("a", 1)[0];
    let q = b.net("q".into());
    let next = b.cell(CellKind::Xor2, &[q, d]);
    b.dff_onto(next, q, false);
    // The write data: a fault here acts only through the memory (and
    // through the read bypass in `test_mode`).
    let wdata = b.cell(CellKind::Xnor2, &[d, q]);
    let dout = b.memory(
        "ram",
        1,
        vec![Bv::zero(1); 2],
        vec![a],
        vec![a],
        vec![wdata],
        Some(we),
    );
    b.output_port("y", &dout);
    let nl = insert_scan_chain(&b.build());
    let site = nl
        .instances()
        .iter()
        .position(|i| i.kind == CellKind::Xnor2)
        .expect("write-data gate");
    let prog = GateProgram::compile(&nl).expect("levelizable");
    let lib = CellLibrary::generic_025u();
    let patterns = random_patterns(&nl, 64, 0xFA11);
    for stuck_at in [false, true] {
        let fault = [FaultSite {
            instance: site,
            stuck_at,
        }];
        let frame = detection_masks(&prog, &fault, &patterns, 1);
        let protocol = protocol_masks(&prog, &fault, &patterns);
        assert_ne!(
            protocol[0], 0,
            "s-a-{}: the write is never observed",
            stuck_at as u8
        );
        assert_eq!(
            frame, protocol,
            "s-a-{}: frame mask differs from the protocol",
            stuck_at as u8
        );
        // Structurally eligible, so a protocol run means the run-time
        // fallback fired.
        let (_, stats) = fault_coverage_instrumented_with_threads(&nl, &lib, &fault, &patterns, 1);
        assert_eq!((stats.fsim_frame, stats.fsim_protocol), (0, 1));
    }
    // Every other fault of the netlist agrees too.
    check_netlist("wport", &nl, 0xFA11);
}

/// A RAM whose write enable, address and data all come from flops near
/// the chain's head, so they carry shifted bits while the chain shifts
/// (the primary inputs stay unknown then). Only the write-protect gate
/// keeps shifting from writing; a fault that opens it (the `scan_en`
/// inverter stuck at 1) corrupts memory before capture, yet leaves every
/// capture-edge net as in the fault-free circuit. That fault must stay on
/// the protocol.
#[test]
fn faults_that_write_while_shifting_stay_on_the_protocol() {
    let mut b = NetlistBuilder::new("shift_write");
    let d = b.input_port("d", 3);
    let a = b.input_port("a", 2);
    let q: Vec<_> = (0..4).map(|i| b.net(format!("q{i}"))).collect();
    for i in 0..3 {
        let next = b.cell(CellKind::Xor2, &[q[i], d[i]]);
        b.dff_onto(next, q[i], false);
    }
    let next = b.cell(CellKind::Xnor2, &[q[3], q[0]]);
    b.dff_onto(next, q[3], false);
    let dout = b.memory(
        "ram",
        1,
        vec![Bv::zero(1); 4],
        a.clone(),
        vec![q[2], q[3]],
        vec![q[0]],
        Some(q[1]),
    );
    b.output_port("y", &dout);
    let nl = insert_scan_chain(&b.build());
    let inv = nl
        .instances()
        .iter()
        .position(|i| i.name == "scan_nen_inv")
        .expect("write-protect inverter");
    let prog = GateProgram::compile(&nl).expect("levelizable");
    let patterns = random_patterns(&nl, 64, 0x5417);
    let fault = [FaultSite {
        instance: inv,
        stuck_at: true,
    }];
    assert_ne!(
        protocol_masks(&prog, &fault, &patterns)[0],
        0,
        "shift-time writes are never observed"
    );
    check_netlist("shift_write", &nl, 0x5417);
}
