//! The airtime-capacity benchmark and its CI regression gate: adaptive
//! TRACK subsets against full sweeps on static clients, and the
//! continuous event engine against the epoch barrier on a mixed
//! ACQUIRE/TRACK population, in simulated sweeps per second of airtime
//! (see `docs/TRACKING.md` and `docs/SCHEDULING.md`).
//!
//! ```sh
//! # Regenerate the checked-in baseline:
//! cargo run --release -p chronos-bench --bin bench_capacity
//!
//! # Gate mode (what scripts/check-bench-regression.sh runs in CI):
//! cargo run --release -p chronos-bench --bin bench_capacity -- \
//!     --check BENCH_capacity.json
//! ```
//!
//! Flags are the shared set parsed by [`chronos_bench::cli::BenchArgs`]
//! (`--quick`, `--out`, `--check`). `--quick` changes nothing: the whole
//! run, at the client counts README quotes, takes a few seconds. The
//! run is fully deterministic, so the gate
//! ([`chronos_bench::cli::check_exact`]) holds every cell exactly.

use chronos_bench::cli::{check_exact, BenchArgs};
use chronos_bench::tracking::{capacity_bench_table, capacity_table, mixed_capacity_table};
use std::process::ExitCode;

const SEED: u64 = 42;

fn main() -> ExitCode {
    let args = match BenchArgs::parse("BENCH_capacity.json") {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let table = capacity_bench_table(
        &capacity_table(&[1, 2, 4, 8], 10, SEED),
        &mixed_capacity_table(&[4, 8, 16], SEED),
    );
    args.write_or_check(&table, check_exact)
}
