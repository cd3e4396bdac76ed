//! The position-tracking benchmark and its CI regression gate.
//!
//! ```sh
//! # Regenerate the checked-in baseline (CI gates a --quick run, so the
//! # baseline must be a --quick run too — epoch-count mismatches fail
//! # the gate explicitly):
//! cargo run --release -p chronos-bench --bin bench_position -- --quick
//!
//! # Gate mode (what scripts/check-bench-regression.sh runs in CI):
//! cargo run --release -p chronos-bench --bin bench_position -- \
//!     --quick --check BENCH_position.json
//! ```
//!
//! Flags: `--quick` (fewer epochs — the CI setting), `--out <path>`
//! (where to write the JSON; default `BENCH_position.json` in the
//! current directory), `--check <baseline>` (compare against a
//! checked-in baseline instead of overwriting it; exits 1 when any cell
//! differs) — the shared flag set parsed by
//! [`chronos_bench::cli::BenchArgs`].
//!
//! The run is fully deterministic, so the gate
//! ([`chronos_bench::cli::check_exact`]) holds every cell exactly: any
//! change is real algorithmic drift, not noise.

use chronos_bench::cli::{check_exact, BenchArgs};
use chronos_bench::position::position_table;
use std::process::ExitCode;

const SEED: u64 = 61;

fn main() -> ExitCode {
    let args = match BenchArgs::parse("BENCH_position.json") {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let epochs = if args.quick { 10 } else { 24 };
    let table = position_table(SEED, epochs);
    args.write_or_check(&table, check_exact)
}
