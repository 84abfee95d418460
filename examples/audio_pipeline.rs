//! A car-multimedia audio pipeline — the application domain of the
//! paper's design: stereo material from different sources (CD 44.1 kHz,
//! broadcast 32 kHz) converted to the DVD system rate (48 kHz), each
//! channel through its own SRC core, with signal quality measured at each
//! hop.
//!
//! ```text
//! cargo run --release -p scflow --example audio_pipeline
//! ```

use scflow::algo::{AlgoSrc, StereoSrc};
use scflow::{stimulus, SrcConfig};

fn quality(label: &str, samples: &[i16], freq: f64, rate: f64) {
    // Skip the filter's settling transient, but keep at least half the
    // stream so short workloads still measure something.
    let skip = 300.min(samples.len() / 2);
    let settled = &samples[skip..];
    let snr = stimulus::snr_db(settled, freq, rate);
    println!(
        "  {label:<28} {:>7} samples, SNR {snr:>6.1} dB",
        samples.len()
    );
}

fn main() {
    println!("== car multimedia pipeline: all sources to 48 kHz ==\n");

    // Source 1: CD (44.1 kHz) — stereo test tones, 0.4 s.
    let cd_l = stimulus::sine(17_640, 997.0, 44_100.0, 11_000.0);
    let cd_r = stimulus::sine(17_640, 1_499.0, 44_100.0, 11_000.0);
    let mut cd_src = StereoSrc::new(&SrcConfig::cd_to_dvd());
    let (cd48_l, cd48_r) = cd_src.process(&cd_l, &cd_r);
    println!("CD 44.1 kHz -> 48 kHz");
    quality("left (997 Hz)", &cd48_l, 997.0, 48_000.0);
    quality("right (1499 Hz)", &cd48_r, 1_499.0, 48_000.0);

    // Source 2: broadcast (32 kHz) — mono speech-band tone.
    let dab = stimulus::sine(12_800, 440.0, 32_000.0, 9_000.0);
    let mut dab_src = AlgoSrc::new(&SrcConfig::broadcast_to_dvd());
    let dab48 = dab_src.process(&dab);
    println!("\nbroadcast 32 kHz -> 48 kHz");
    quality("mono (440 Hz)", &dab48, 440.0, 48_000.0);

    // Round trip: DVD -> CD -> DVD, quality after two conversions.
    let dvd = stimulus::sine(19_200, 1_000.0, 48_000.0, 11_000.0);
    let mut down = AlgoSrc::new(&SrcConfig::dvd_to_cd());
    let cd = down.process(&dvd);
    let mut up = AlgoSrc::new(&SrcConfig::cd_to_dvd());
    let back = up.process(&cd);
    println!("\nround trip 48 kHz -> 44.1 kHz -> 48 kHz");
    quality("after downsampling", &cd, 1_000.0, 44_100.0);
    quality("after round trip", &back, 1_000.0, 48_000.0);

    let snr = stimulus::snr_db(&back[300..], 1_000.0, 48_000.0);
    assert!(snr > 35.0, "round-trip SNR degraded too far: {snr:.1} dB");
    println!("\npipeline quality targets met.");
}
