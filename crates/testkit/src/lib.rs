//! Hermetic test and benchmark kit for the scflow workspace.
//!
//! The flow's whole verification story — property tests over the
//! refinement models, bit-accuracy differential checks, and the Figure
//! 8/9 simulation-performance measurements — must run with **zero
//! external dependencies** so that `cargo build && cargo test` works
//! offline and recorded seeds reproduce forever. This crate replaces
//! `rand`, `proptest` and `criterion` inside the workspace:
//!
//! * [`rng`] — a deterministic xoshiro256** PRNG seeded from one `u64`.
//! * [`prop`] — a property-test runner with strategies, failure
//!   shrinking, and `SCFLOW_PROPTEST_CASES`/`SCFLOW_PROPTEST_SEED`
//!   overrides.
//! * [`diff`] — differential testing: drive two refinement models from
//!   the same stimulus, report the first divergence (time, signal,
//!   values).
//! * [`bench`] — a micro-benchmark harness (warmup, median/MAD,
//!   simulated-cycles-per-second) with JSON emission for the
//!   `BENCH_*.json` files.
//! * [`metrics`] — delta and name-stability assertions over
//!   `scflow-obs` metrics registries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod diff;
pub mod metrics;
pub mod prop;
pub mod rng;

pub use bench::{BenchResult, Harness};
pub use diff::{diff_models, first_divergence, first_divergence_timed, Divergence};
pub use metrics::{assert_counter_delta, assert_names_stable, counter_delta};
pub use prop::{
    bools, check, check_seeded, check_with, floats, ints, vecs, Config, Strategy, StrategyExt,
    TestResult,
};
pub use rng::Rng;
