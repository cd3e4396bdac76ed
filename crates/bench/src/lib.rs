//! # chronos-bench
//!
//! The experiment harness: scenario builders and Monte-Carlo runners that
//! regenerate every figure of the paper's evaluation (the README's
//! "Paper Map" is the experiment index), plus CSV/console reporting
//! helpers.
//!
//! One binary, `run_all <figure>...`, regenerates the figures
//! ([`figures::FIGURES`]; none named means all) and writes
//! `EXPERIMENTS-data/*.csv`, running each experiment once. The six
//! `bench_*` binaries beside it are the gated benchmarks: each writes
//! or checks a `BENCH_*.json` baseline (see [`cli`] and
//! `scripts/check-bench-regression.sh`).

pub mod adversarial;
pub mod alloc_count;
pub mod cli;
pub mod figures;
pub mod fleet;
pub mod position;
pub mod report;
pub mod scenarios;
pub mod soak;
pub mod throughput;
pub mod tracking;

pub use report::{write_csv, write_json, Table};
pub use scenarios::*;
