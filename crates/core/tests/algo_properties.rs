//! Property-based tests on the algorithmic SRC and its configuration:
//! rate-ratio conservation, streaming equivalence, phase-accumulator
//! invariants, bug-injection transparency. Runs on the in-repo
//! `scflow-testkit` runner; when a property fails it prints a seed —
//! pin that seed in the `regression_seeds` module below so the case is
//! replayed forever.

use scflow::algo::AlgoSrc;
use scflow::verify::GoldenVectors;
use scflow::SrcConfig;
use scflow_testkit::prop::{
    check_seeded, check_with, ints, vecs, Config, Filter, IntRange, StrategyExt, VecStrategy,
};
use scflow_testkit::{prop_assert, prop_assert_eq};

type RatePair = Filter<(IntRange<u32>, IntRange<u32>), fn(&(u32, u32)) -> bool>;

/// Audio-plausible rate pairs within the supported ratio (< 2x down).
fn rates() -> RatePair {
    (ints(8_000u32..=95_999), ints(8_000u32..=95_999)).filter("ratio limit", |(i, o)| *i < 2 * *o)
}

fn samples(min: usize, max: usize) -> VecStrategy<IntRange<i16>> {
    vecs(ints(i16::MIN..=i16::MAX), min..=max)
}

fn cases(n: u32) -> Config {
    Config::from_env().with_cases(n)
}

fn accumulator_invariants(&(in_rate, out_rate): &(u32, u32)) -> scflow_testkit::TestResult {
    let cfg = SrcConfig::new(in_rate, out_rate);
    let mut acc = 0u32;
    let mut consumed = 0u64;
    let n = 10_000u64;
    for _ in 0..n {
        let (a, c, p) = cfg.advance(acc);
        prop_assert!(c <= 2, "consume {c}");
        prop_assert!(p < SrcConfig::PHASES as u32);
        prop_assert!(a < 1 << SrcConfig::PHASE_FRAC_BITS);
        consumed += u64::from(c);
        acc = a;
    }
    // Long-run consumption tracks the rate ratio to within rounding.
    let expect = n as f64 * f64::from(in_rate) / f64::from(out_rate);
    prop_assert!(
        (consumed as f64 - expect).abs() < 2.0 + expect * 1e-6,
        "consumed {consumed}, expected {expect}"
    );
    Ok(())
}

#[test]
fn accumulator_invariants_hold_for_any_rate_pair() {
    check_with(
        &cases(40),
        "accumulator invariants",
        &rates(),
        accumulator_invariants,
    );
}

fn output_count(&((in_rate, out_rate), n_in): &((u32, u32), usize)) -> scflow_testkit::TestResult {
    let cfg = SrcConfig::new(in_rate, out_rate);
    let input = vec![0i16; n_in];
    let out = AlgoSrc::new(&cfg).process(&input);
    let ratio = f64::from(out_rate) / f64::from(in_rate);
    let expect = n_in as f64 * ratio;
    // Slack: one output per unconsumed tail sample (up to `ratio`
    // outputs can be produced per input) plus accumulator rounding.
    prop_assert!(
        (out.len() as f64 - expect).abs() <= 2.0 + 2.0 * ratio,
        "{} outputs, expected ~{expect}",
        out.len()
    );
    Ok(())
}

#[test]
fn output_count_tracks_ratio() {
    check_with(
        &cases(40),
        "output count tracks ratio",
        &(rates(), ints(100usize..=1_999)),
        output_count,
    );
}

/// Streaming in arbitrary chunks equals batch processing exactly.
fn chunked_equals_batch(
    (samples, chunk_sizes): &(Vec<i16>, Vec<usize>),
) -> scflow_testkit::TestResult {
    let cfg = SrcConfig::dvd_to_cd();
    let batch = AlgoSrc::new(&cfg).process(samples);

    let mut streamed = AlgoSrc::new(&cfg);
    let mut out = Vec::new();
    let mut pos = 0usize;
    let mut k = 0usize;
    while pos < samples.len() {
        let len = chunk_sizes[k % chunk_sizes.len()].min(samples.len() - pos);
        out.extend(streamed.process(&samples[pos..pos + len]));
        pos += len;
        k += 1;
    }
    prop_assert_eq!(out, batch);
    Ok(())
}

#[test]
fn chunked_processing_equals_batch() {
    check_with(
        &cases(64),
        "chunked processing equals batch",
        &(samples(50, 400), vecs(ints(1usize..=39), 1..=19)),
        chunked_equals_batch,
    );
}

/// The injected bug never changes data, for arbitrary input.
fn buffer_bug_transparent(samples: &Vec<i16>) -> scflow_testkit::TestResult {
    let cfg = SrcConfig::dvd_to_cd();
    let clean = AlgoSrc::new(&cfg).process(samples);
    let buggy = AlgoSrc::new(&cfg).with_buffer_bug().process(samples);
    prop_assert_eq!(clean, buggy);
    Ok(())
}

#[test]
fn buffer_bug_is_data_transparent() {
    check_with(
        &cases(64),
        "buffer bug is data transparent",
        &samples(100, 500),
        buffer_bug_transparent,
    );
}

/// Golden vectors: consume schedule sums to the inputs actually used,
/// and replay reproduces the outputs.
fn golden_consistency(samples: &Vec<i16>) -> scflow_testkit::TestResult {
    let cfg = SrcConfig::cd_to_dvd();
    let g = GoldenVectors::generate(&cfg, samples.clone());
    prop_assert_eq!(g.output.len(), g.consume_schedule.len());
    let used: u32 = g.consume_schedule.iter().sum();
    prop_assert!((used as usize) <= g.input.len());
    // Unused tail shorter than the largest consume step.
    prop_assert!(g.input.len() - used as usize <= 2);
    let replay = AlgoSrc::new(&cfg).process(&g.input);
    prop_assert_eq!(replay, g.output);
    Ok(())
}

#[test]
fn golden_vector_consistency() {
    check_with(
        &cases(64),
        "golden vector consistency",
        &samples(50, 300),
        golden_consistency,
    );
}

/// Output magnitude is bounded by input magnitude plus filter headroom
/// (no unexpected overflow in the fixed-point pipeline).
fn no_spurious_overflow(&seed: &u64) -> scflow_testkit::TestResult {
    let cfg = SrcConfig::cd_to_dvd();
    let input = scflow::stimulus::noise(800, 16_000, seed);
    let out = AlgoSrc::new(&cfg).process(&input);
    // Kaiser-sinc overshoot is bounded; half-scale inputs never wrap.
    for &s in &out {
        prop_assert!((i32::from(s)).abs() < 29_000, "sample {s}");
    }
    Ok(())
}

#[test]
fn no_spurious_overflow_for_half_scale_inputs() {
    check_with(
        &cases(64),
        "no spurious overflow",
        &ints(0u64..=u64::MAX),
        no_spurious_overflow,
    );
}

/// Pinned replays of once-failing (or structurally nasty) cases: when a
/// property fails it prints `SCFLOW_PROPTEST_SEED=0x…` — add that seed
/// here so the exact case is regenerated on every future run.
mod regression_seeds {
    use super::*;

    /// Extreme downsampling ratio boundary (in just below 2*out).
    #[test]
    fn accumulator_boundary_ratio() {
        check_seeded(
            "regression: accumulator",
            0x0B5E_55ED_0000_0001,
            &rates(),
            accumulator_invariants,
        );
        // Deliberately adversarial pair near the ratio limit.
        accumulator_invariants(&(95_999, 48_000)).unwrap();
    }

    #[test]
    fn output_count_extremes() {
        check_seeded(
            "regression: output count",
            0x0B5E_55ED_0000_0002,
            &(rates(), ints(100usize..=1_999)),
            output_count,
        );
        output_count(&((8_000, 95_999), 1_999)).unwrap();
    }

    #[test]
    fn chunked_single_sample_chunks() {
        check_seeded(
            "regression: chunking",
            0x0B5E_55ED_0000_0003,
            &(samples(50, 400), vecs(ints(1usize..=39), 1..=19)),
            chunked_equals_batch,
        );
        // All-ones chunk schedule: maximum streaming-state churn.
        let stim: Vec<i16> = (0..200).map(|i| (i * 331 % 17_000) as i16).collect();
        chunked_equals_batch(&(stim, vec![1usize])).unwrap();
    }

    #[test]
    fn buffer_bug_full_scale() {
        check_seeded(
            "regression: buffer bug",
            0x0B5E_55ED_0000_0004,
            &samples(100, 500),
            buffer_bug_transparent,
        );
        buffer_bug_transparent(&vec![i16::MIN; 128]).unwrap();
    }

    #[test]
    fn golden_minimum_length() {
        check_seeded(
            "regression: golden vectors",
            0x0B5E_55ED_0000_0005,
            &samples(50, 300),
            golden_consistency,
        );
        golden_consistency(&vec![i16::MAX; 50]).unwrap();
    }

    #[test]
    fn overflow_seed_zero() {
        // noise(seed=0) degenerates to the `seed | 1` stream — keep it.
        no_spurious_overflow(&0).unwrap();
        no_spurious_overflow(&u64::MAX).unwrap();
    }
}

/// Pin the designed coefficient ROM: any change to the filter design math
/// silently breaks cross-version bit-accuracy of every stored golden
/// vector, so drift must be deliberate.
#[test]
fn coefficient_rom_is_pinned() {
    let rom = scflow::CoefficientRom::design(&SrcConfig::cd_to_dvd());
    let words = rom.words();
    assert_eq!(words.len(), 256);
    // FNV-1a over the raw words via the workspace-wide hasher.
    let mut fnv = scflow_hwtypes::Fnv64::new();
    for &w in words {
        fnv.write_u64((w as u16) as u64);
    }
    let h = fnv.finish();
    let expected = 0x6b0c_70d9_c29d_b208u64;
    assert_eq!(
        h, expected,
        "coefficient design changed (new hash {h:#018x}); if intentional, \
         update this pin and note it in the changelog"
    );
}
