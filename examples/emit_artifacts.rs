//! Emits the flow's tangible artefacts to `target/scflow-artifacts/`:
//!
//! * the intermediate **RTL Verilog** of the optimised SRC (what the
//!   paper's SystemC Compiler handed to Design Compiler),
//! * the behavioural-synthesis **FSM + datapath Verilog**,
//! * a **VCD trace** of the clocked behavioural model's handshake signals,
//! * a gate-level **area report** per design.
//!
//! ```text
//! cargo run --release -p scflow --example emit_artifacts
//! ```

use scflow::models::beh::{synthesize_beh_src, BehVariant};
use scflow::models::rtl::{build_rtl_src, RtlVariant};
use scflow::{stimulus, SrcConfig};
use scflow_gate::CellLibrary;
use scflow_kernel::{Kernel, SimTime};
use scflow_synth::rtl::{synthesize, SynthOptions};
use std::fs;
use std::path::Path;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out = Path::new("target/scflow-artifacts");
    fs::create_dir_all(out)?;
    let cfg = SrcConfig::cd_to_dvd();
    let lib = CellLibrary::generic_025u();

    // 1. RTL Verilog of the optimised SRC.
    let rtl = build_rtl_src(&cfg, RtlVariant::Optimised)?;
    fs::write(out.join("src_rtl_opt.v"), rtl.to_verilog())?;

    // 2. Behavioural-synthesis output (FSM + datapath) as Verilog.
    let beh = synthesize_beh_src(&cfg, BehVariant::Optimised)?;
    fs::write(out.join("src_beh_opt_fsm.v"), beh.module.to_verilog())?;

    // 3. A VCD of the behavioural model's handshake activity.
    let vcd = trace_handshake(&cfg);
    fs::write(out.join("beh_handshake.vcd"), vcd)?;

    // 4. Gate-level structural Verilog (the Figure 9 artefact) and area
    //    reports.
    let mut report = String::new();
    for (name, module) in [("src_rtl_opt", &rtl), ("src_beh_opt", &beh.module)] {
        let r = synthesize(module, &lib, &SynthOptions::default())?;
        fs::write(
            out.join(format!("{name}_gates.v")),
            r.netlist.to_structural_verilog(),
        )?;
        report.push_str(&format!("== {name} ==\n{}\n\n", r.area));
    }
    fs::write(out.join("area_reports.txt"), &report)?;

    // 5. An RTL waveform of the optimised SRC starting up.
    {
        use scflow::models::harness::run_handshake;
        let mut sim = scflow_rtl::RtlSim::new(&rtl);
        for port in [
            "dbg_state",
            "out_sample",
            "in_sample_ready",
            "out_sample_valid",
        ] {
            sim.watch_port(port);
        }
        let input = stimulus::sine(8, 1000.0, f64::from(cfg.in_rate), 9000.0);
        let _ = run_handshake(&mut sim, &input, 6, 2_000);
        fs::write(out.join("src_rtl_startup.vcd"), sim.waveform_vcd(40_000))?;
    }

    println!("artifacts written to {}:", out.display());
    for entry in fs::read_dir(out)? {
        let e = entry?;
        println!(
            "  {:>8} bytes  {}",
            e.metadata()?.len(),
            e.file_name().to_string_lossy()
        );
    }
    Ok(())
}

/// Runs a short clocked simulation with the handshake signals traced.
fn trace_handshake(cfg: &SrcConfig) -> String {
    let kernel = Kernel::new();
    let trace = kernel.trace();
    let clk = kernel.clock("clk", SimTime::from_ns(40));
    let in_valid = kernel.signal("in_valid", false);
    let in_ready = kernel.signal("in_ready", false);
    let out_valid = kernel.signal("out_valid", false);
    for s in [&in_valid, &in_ready, &out_valid] {
        s.attach_trace(&trace);
    }

    // A miniature handshake episode: producer offers two samples, a toy
    // consumer FSM accepts them with a 3-cycle service time.
    kernel.spawn("producer", {
        let (k, clk, in_valid, in_ready) = (
            kernel.clone(),
            clk.clone(),
            in_valid.clone(),
            in_ready.clone(),
        );
        let input = stimulus::sine(2, 1000.0, f64::from(cfg.in_rate), 9000.0);
        async move {
            for _s in input {
                in_valid.write(true);
                loop {
                    k.wait(clk.posedge()).await;
                    if in_ready.read() {
                        break;
                    }
                }
                in_valid.write(false);
                k.wait(clk.posedge()).await;
            }
        }
    });
    kernel.spawn("server", {
        let (k, clk, in_valid, in_ready, out_valid) = (
            kernel.clone(),
            clk.clone(),
            in_valid.clone(),
            in_ready.clone(),
            out_valid.clone(),
        );
        async move {
            loop {
                in_ready.write(true);
                loop {
                    k.wait(clk.posedge()).await;
                    if in_valid.read() {
                        break;
                    }
                }
                in_ready.write(false);
                for _ in 0..3 {
                    k.wait(clk.posedge()).await;
                }
                out_valid.write(true);
                k.wait(clk.posedge()).await;
                out_valid.write(false);
            }
        }
    });
    kernel.run_for(SimTime::from_ns(40 * 24));
    trace.to_vcd()
}
