//! The runner's external contract: failures shrink to minimal
//! counterexamples, printed seeds replay the failing case exactly, and the
//! env-variable overrides parse. These are the acceptance canaries for the
//! in-repo property-testing harness.

use scflow_testkit::prop::{self, ints, vecs, Config, StrategyExt};
use scflow_testkit::{prop_assert, prop_assert_eq, Rng};

/// Intentionally failing property (`v <= 1000` over 0..=1_000_000): the
/// shrinker must land on the *minimal* counterexample, 1001.
#[test]
fn canary_shrinks_int_to_minimal_counterexample() {
    let cfg = Config::default().with_seed(0xDEAD_BEEF).with_cases(200);
    let failure = prop::run(&cfg, "canary: v <= 1000", &ints(0u64..=1_000_000), |&v| {
        prop_assert!(v <= 1000, "{v} exceeds 1000");
        Ok(())
    })
    .expect_err("the canary property must fail");
    assert!(failure.original > 1000);
    assert_eq!(
        failure.minimal, 1001,
        "greedy halving shrink should find the boundary exactly \
         (got {} after {} steps)",
        failure.minimal, failure.shrink_steps
    );
    assert!(failure.shrink_steps > 0);
    assert!(failure.report("canary").contains("SCFLOW_PROPTEST_SEED="));
}

/// Vector canary: a property failing on "contains an element >= 50" must
/// shrink to a single-element vector holding exactly 50.
#[test]
fn canary_shrinks_vec_to_single_boundary_element() {
    let cfg = Config::default().with_seed(0xF00D).with_cases(200);
    let failure = prop::run(
        &cfg,
        "canary: all elements < 50",
        &vecs(ints(0u32..=1000), 0..=30),
        |v| {
            prop_assert!(v.iter().all(|&x| x < 50), "{v:?} has an element >= 50");
            Ok(())
        },
    )
    .expect_err("the vec canary must fail");
    assert_eq!(failure.minimal, vec![50], "minimal is one boundary element");
}

/// The seed printed in a failure report reproduces the same counterexample
/// when replayed as case 0 with one case — the paper-trail property the
/// whole harness rests on.
#[test]
fn failure_seed_replays_the_same_counterexample() {
    let strategy = vecs(ints(0i64..=1_000_000), 1..=40);
    let prop = |v: &Vec<i64>| -> scflow_testkit::TestResult {
        prop_assert!(v.iter().sum::<i64>() < 2_000_000, "sum too large: {v:?}");
        Ok(())
    };
    let first = prop::run(
        &Config::default().with_seed(7).with_cases(500),
        "seed replay",
        &strategy,
        prop,
    )
    .expect_err("must fail within 500 cases");

    // Replay: the reported per-case seed as base seed, one case.
    let replay = prop::run(
        &Config::default().with_seed(first.seed).with_cases(1),
        "seed replay",
        &strategy,
        prop,
    )
    .expect_err("replay must fail too");
    assert_eq!(replay.case, 0);
    assert_eq!(replay.original, first.original, "same generated value");
    assert_eq!(replay.minimal, first.minimal, "same shrink result");
}

/// Different property names explore different default streams, but an
/// explicit seed is honoured verbatim for both.
#[test]
fn explicit_seed_overrides_name_salting() {
    let capture = |name: &str, cfg: &Config| {
        prop::run(cfg, name, &ints(0u64..=u64::MAX), |&v| {
            Err(format!("capture {v}"))
        })
        .expect_err("always fails")
        .original
    };
    let cfg = Config::default().with_seed(99).with_cases(1);
    assert_eq!(capture("name a", &cfg), capture("name b", &cfg));
    let default_cfg = Config::default();
    assert_ne!(
        capture("name a", &default_cfg),
        capture("name b", &default_cfg)
    );
}

/// Panics inside properties are treated as failures and still shrink.
#[test]
fn panicking_property_is_caught_and_shrunk() {
    let cfg = Config::default().with_seed(3).with_cases(100);
    let failure = prop::run(&cfg, "panic canary", &ints(0u32..=100_000), |&v| {
        assert!(v <= 10, "panicking on {v}");
        Ok(())
    })
    .expect_err("must fail");
    assert_eq!(failure.minimal, 11);
    assert!(failure.minimal_message.contains("panic"));
}

/// Tuple strategies shrink coordinate-wise; filters keep holding during
/// shrinking.
#[test]
fn filtered_tuple_shrink_respects_filter() {
    let strategy =
        (ints(0u32..=10_000), ints(0u32..=10_000)).filter("first larger", |(a, b)| a > b);
    let cfg = Config::default().with_seed(21).with_cases(100);
    let failure = prop::run(&cfg, "filtered tuple", &strategy, |&(a, b)| {
        prop_assert!(a.saturating_sub(b) < 100, "gap too large: {a} - {b}");
        Ok(())
    })
    .expect_err("must fail");
    let (a, b) = failure.minimal;
    assert!(a > b, "filter must hold on the minimal case");
    assert!(a - b >= 100);
    assert_eq!(a - b, 100, "minimal gap is exactly the boundary");
}

/// The env knobs parse decimal and hex.
#[test]
fn env_override_parsing() {
    // Not set in the test environment: defaults apply.
    let cfg = Config::from_env();
    assert!(cfg.cases >= 1);
    // with_-style builders are the documented programmatic equivalent.
    let pinned = Config::default().with_seed(0xABC).with_cases(7);
    assert_eq!(pinned.cases, 7);
    assert_eq!(pinned.seed, 0xABC);
    assert!(pinned.seed_is_explicit);
}

/// prop_assert_eq renders both sides on failure.
#[test]
fn assert_macros_render_values() {
    let cfg = Config::default().with_seed(1).with_cases(1);
    let failure = prop::run(&cfg, "macro", &ints(0u8..=255), |&v| {
        prop_assert_eq!(v, 256u64 as u8);
        Ok(())
    });
    if let Err(f) = failure {
        assert!(f.minimal_message.contains("!="));
    }
}

/// The deterministic PRNG underpins stimulus reuse between two models:
/// two generators with the same seed feed identical stimuli.
#[test]
fn rng_streams_are_reusable_for_stimulus() {
    let a = Rng::new(0xA5).i16_vec(256);
    let b = Rng::new(0xA5).i16_vec(256);
    assert_eq!(a, b);
    assert_ne!(a, Rng::new(0xA6).i16_vec(256));
}
