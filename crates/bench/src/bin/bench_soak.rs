//! The overload-soak benchmark and its CI regression gate: admission,
//! shedding, fairness and honest accuracy at 1x–5x offered load through
//! the bounded ingestion front-end (see `docs/INGESTION.md`).
//!
//! ```sh
//! # Regenerate the checked-in baseline (CI gates a --quick run, so the
//! # baseline must be a --quick run too — window-count mismatches fail
//! # the gate explicitly):
//! cargo run --release -p chronos-bench --bin bench_soak -- --quick
//!
//! # Gate mode (what scripts/check-bench-regression.sh runs in CI):
//! cargo run --release -p chronos-bench --bin bench_soak -- \
//!     --quick --check BENCH_soak.json
//! ```
//!
//! Flags are the shared set parsed by [`chronos_bench::cli::BenchArgs`]
//! (`--quick`, `--out`, `--check`). The run is fully deterministic — the
//! queue sheds as a pure function of the arrival sequence — so the gate
//! ([`chronos_bench::cli::check_exact`]) holds every cell exactly and
//! trips on real scheduling drift, not noise.
//! The load-shedding contract the table pins down: ACQUIRE sheds stay
//! at zero at every load, BACKGROUND absorbs the drops, TRACK absorbs
//! deferrals, and the honest walkers' error grows gracefully rather
//! than collapsing.

use chronos_bench::cli::{check_exact, BenchArgs};
use chronos_bench::soak::soak_table;
use std::process::ExitCode;

const SEED: u64 = 41;

fn main() -> ExitCode {
    let args = match BenchArgs::parse("BENCH_soak.json") {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let (windows, window_ms) = if args.quick { (4, 250) } else { (8, 250) };
    let table = soak_table(SEED, windows, window_ms);
    args.write_or_check(&table, check_exact)
}
