//! Quickstart: convert a CD-rate (44.1 kHz) tone to DVD rate (48 kHz)
//! with the algorithmic sample-rate converter and check the signal
//! quality.
//!
//! ```text
//! cargo run --release -p scflow --example quickstart
//! ```

use scflow::prelude::*;

fn main() {
    // 0.5 s of a 1 kHz tone at CD rate.
    let cfg = SrcConfig::cd_to_dvd();
    let input = stimulus::sine(22_050, 1000.0, 44_100.0, 12_000.0);

    let mut src = AlgoSrc::new(&cfg);
    let output = src.process(&input);

    println!(
        "sample-rate conversion {} Hz -> {} Hz",
        cfg.in_rate, cfg.out_rate
    );
    println!("  input samples:  {}", input.len());
    println!("  output samples: {}", output.len());
    println!(
        "  expected ratio: {:.4}, measured: {:.4}",
        f64::from(cfg.out_rate) / f64::from(cfg.in_rate),
        output.len() as f64 / input.len() as f64
    );

    // Quality: fit the 1 kHz tone in the output, report SNR (skip the
    // filter's settling samples).
    let settled = &output[200..];
    let snr = stimulus::snr_db(settled, 1000.0, 48_000.0);
    println!("  output SNR vs ideal 1 kHz tone: {snr:.1} dB");
    assert!(snr > 40.0, "conversion quality should exceed 40 dB");
    println!("done.");
}
