//! The flow is not SRC-specific: a second design — an 8-tap FIR
//! decimate-by-2 filter — taken through the same refinement chain:
//! software model → behavioural program → behavioural synthesis → RTL
//! synthesis → gates, with bit-accuracy checked at each artefact and the
//! same reports produced.
//!
//! ```text
//! cargo run --release -p scflow --example second_design
//! ```

use scflow::prelude::*;
use scflow_synth::beh::{synthesize_beh, BehOptions, ProgramBuilder};
use scflow_synth::rtl::{synthesize, SynthOptions};

const TAPS: [i16; 8] = [-12, 45, 210, 640, 640, 210, 45, -12]; // Q1.10-ish lowpass
const FRAC: u32 = 10;

/// Software golden model: y[n] = sum taps[k] * x[2n - k].
fn golden(input: &[i16]) -> Vec<i16> {
    let mut hist = [0i16; 8];
    let mut out = Vec::new();
    for (n, &s) in input.iter().enumerate() {
        hist.rotate_right(1);
        hist[0] = s;
        if n % 2 == 1 {
            let acc: i64 = TAPS
                .iter()
                .zip(hist.iter())
                .map(|(&c, &x)| i64::from(c) * i64::from(x))
                .sum();
            out.push((acc >> FRAC) as i16);
        }
    }
    out
}

/// The same filter as a behavioural program (handshaked I/O).
fn decimator_program() -> scflow_synth::beh::BehProgram {
    let mut p = ProgramBuilder::new("fir_decim2");
    let i = p.input("in_sample", 16);
    let o = p.output("out_sample", 16);
    let rom = p.memory(
        "taps",
        16,
        TAPS.iter()
            .map(|&c| Bv::from_i64(i64::from(c), 16))
            .collect(),
    );
    let hist = p.memory("hist", 16, vec![Bv::zero(16); 8]);
    let x = p.var("x", 16);
    let wp = p.var("wp", 3);
    let k = p.var("k", 4);
    let acc = p.var("acc", 30);

    // Consume two input samples per output.
    for _ in 0..2 {
        p.read(x, i);
        p.mem_write(hist, p.v(wp), p.v(x));
        let inc = p.v(wp).add(p.lit(1, 3));
        p.assign(wp, inc);
    }
    // MAC over the 8 most recent samples (newest first).
    p.assign(acc, p.lit(0, 30));
    p.assign(k, p.lit(0, 4));
    let cond = p.v(k).ne(p.lit(8, 4));
    p.while_loop(cond, |b| {
        let addr = b.v(wp).sub(b.lit(1, 3)).sub(b.v(k).slice(2, 0));
        let prod = b
            .mem_read(hist, addr)
            .sext(30)
            .mul_signed(b.mem_read(rom, b.v(k).slice(2, 0)).sext(30));
        let sum = b.v(acc).add(prod);
        b.assign(acc, sum);
        let inc = b.v(k).add(b.lit(1, 4));
        b.assign(k, inc);
    });
    let y = p.v(acc).sar(p.lit(u64::from(FRAC), 4)).slice(15, 0);
    p.write(o, y);
    p.build()
}

fn check(label: &str, got: &[i16], want: &[i16]) {
    assert_eq!(got, want, "{label} diverged");
    println!("  [bit-accurate] {label}");
}

fn main() {
    let input: Vec<i16> = (0..64).map(|n| ((n * 389) % 4001) as i16 - 2000).collect();
    let want = golden(&input);
    println!(
        "== second design: 8-tap FIR decimate-by-2 ({} in -> {} out) ==\n",
        input.len(),
        want.len()
    );

    // Behavioural synthesis -> RTL simulation.
    let beh = synthesize_beh(&decimator_program(), &BehOptions::default()).expect("beh synth");
    println!(
        "behavioural synthesis: {} states, {} registers",
        beh.report.states, beh.report.registers
    );
    let mut rtl_sim = RtlSim::new(&beh.module);
    let (rtl_out, _) = run_handshake(&mut rtl_sim, &input, want.len(), 100_000);
    check("generated RTL", &rtl_out, &want);

    // RTL synthesis -> gate simulation.
    let lib = CellLibrary::generic_025u();
    let result = synthesize(&beh.module, &lib, &SynthOptions::default()).expect("rtl synth");
    println!(
        "gate level: {} cells, {} flops, critical path {} ps (40 ns clock: {})",
        result.area.cell_count(),
        result.netlist.flop_count(),
        result.timing.critical_path_ps,
        if result.timing.meets(40_000) {
            "meets"
        } else {
            "VIOLATES"
        }
    );
    let mut gate_sim = GateSim::new(&result.netlist, &lib);
    gate_sim.poke("scan_en", Bv::zero(1));
    gate_sim.poke("scan_in", Bv::zero(1));
    let (gate_out, _) = run_handshake(&mut gate_sim, &input, want.len(), 200_000);
    check("gate netlist", &gate_out, &want);

    println!("\n{}", result.area);
}
