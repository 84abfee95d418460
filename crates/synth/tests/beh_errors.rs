//! Error-path tests for behavioural synthesis: the supported-subset
//! boundaries must be rejected with useful messages, and the schedule
//! report must reflect the program structure.

use scflow_synth::beh::{
    schedule_only, synthesize_beh, BehOptions, ProgramBuilder, SchedulingMode,
};
use scflow_synth::SynthError;

#[test]
fn double_mul_in_one_statement_rejected_when_sharing() {
    let mut p = ProgramBuilder::new("twomul");
    let i = p.input("i", 8);
    let o = p.output("o", 8);
    let x = p.var("x", 8);
    p.read(x, i);
    // x*x*x needs two multipliers in one statement.
    let e = p.v(x).mul(p.v(x)).mul(p.v(x));
    p.assign(x, e);
    let out = p.v(x);
    p.write(o, out);
    let err = synthesize_beh(&p.build(), &BehOptions::default());
    match err {
        Err(SynthError::Unsupported(msg)) => {
            assert!(msg.contains("multiplier"), "unexpected message: {msg}")
        }
        other => panic!("expected Unsupported, got {other:?}"),
    }
}

#[test]
fn double_mul_allowed_without_sharing() {
    let mut p = ProgramBuilder::new("twomul");
    let i = p.input("i", 8);
    let o = p.output("o", 8);
    let x = p.var("x", 8);
    p.read(x, i);
    let e = p.v(x).mul(p.v(x)).mul(p.v(x));
    p.assign(x, e);
    let out = p.v(x);
    p.write(o, out);
    let opts = BehOptions {
        share_resources: false,
        ..BehOptions::default()
    };
    let out = synthesize_beh(&p.build(), &opts).expect("unshared multipliers are fine");
    assert!(out.module.stats().ops.mul >= 2);
}

#[test]
fn double_read_of_one_memory_in_one_statement_rejected() {
    let mut p = ProgramBuilder::new("tworead");
    let o = p.output("o", 8);
    let rom = p.memory(
        "rom",
        8,
        (0..4u64).map(|v| scflow_hwtypes::Bv::new(v, 8)).collect(),
    );
    let x = p.var("x", 8);
    let e = p
        .mem_read(rom, p.lit(0, 2))
        .add(p.mem_read(rom, p.lit(1, 2)));
    p.assign(x, e);
    let out = p.v(x);
    p.write(o, out);
    let err = synthesize_beh(&p.build(), &BehOptions::default());
    assert!(matches!(err, Err(SynthError::Unsupported(_))));
}

#[test]
fn error_messages_display_cleanly() {
    let e = SynthError::Unsupported("demo".into());
    assert_eq!(e.to_string(), "unsupported construct: demo");
}

#[test]
fn schedule_report_names_variables_and_io() {
    let mut p = ProgramBuilder::new("rep");
    let i = p.input("audio_in", 8);
    let o = p.output("audio_out", 8);
    let x = p.var("samp", 8);
    p.read(x, i);
    let inc = p.v(x).add(p.lit(1, 8));
    p.assign(x, inc);
    let cond = p.v(x).ult(p.lit(100, 8));
    p.while_loop(cond, |b| {
        let dbl = b.v(x).add(b.v(x));
        b.assign(x, dbl);
    });
    let out = p.v(x);
    p.write(o, out);
    let program = p.build();

    let schedule = schedule_only(&program, &BehOptions::default()).expect("schedules");
    let report = schedule.describe(&program);
    assert!(report.contains("read audio_in -> samp"));
    assert!(report.contains("write audio_out"));
    assert!(report.contains("samp <= ..."));
    assert!(report.contains(" | S"), "branch transition shown: {report}");
    // Every state appears exactly once.
    for s in 0..schedule.len() {
        assert!(
            report.contains(&format!("S{s} ")) || report.contains(&format!("S{s}  ")),
            "state {s} missing from report:\n{report}"
        );
    }
}

#[test]
fn fixed_cycle_schedules_have_no_handshake_dependence() {
    // The same program scheduled both ways has the same state count; only
    // the emitted interface differs.
    let mut p = ProgramBuilder::new("fx");
    let i = p.input("i", 8);
    let o = p.output("o", 8);
    let x = p.var("x", 8);
    p.read(x, i);
    let e = p.v(x).add(p.lit(3, 8));
    p.assign(x, e);
    let out = p.v(x);
    p.write(o, out);
    let program = p.build();

    let a = schedule_only(&program, &BehOptions::default()).expect("s");
    let b = schedule_only(
        &program,
        &BehOptions {
            mode: SchedulingMode::FixedCycle,
            ..BehOptions::default()
        },
    )
    .expect("s");
    assert_eq!(a.len(), b.len());
}
