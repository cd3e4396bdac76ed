//! The adversarial-ranging benchmark and its CI regression gate:
//! detection latency versus attack strength for the replay / CSI-inject
//! / band-jam attacker matrix (see `docs/ADVERSARIAL.md`).
//!
//! ```sh
//! # Regenerate the checked-in baseline (CI gates a --quick run, so the
//! # baseline must be a --quick run too — epoch-count mismatches fail
//! # the gate explicitly):
//! cargo run --release -p chronos-bench --bin bench_adversarial -- --quick
//!
//! # Gate mode (what scripts/check-bench-regression.sh runs in CI):
//! cargo run --release -p chronos-bench --bin bench_adversarial -- \
//!     --quick --check BENCH_adversarial.json
//! ```
//!
//! Flags are the shared set parsed by [`chronos_bench::cli::BenchArgs`]
//! (`--quick`, `--out`, `--check`). The run is fully deterministic, so
//! the gate ([`chronos_bench::cli::check_exact`]) holds every cell
//! exactly and trips on real detection drift, not noise. Weak attacks deliberately sit under the innovation gate and
//! report the `999` undetected sentinel — the table documents the
//! detectability gradient, and the gate keeps it from silently eroding.

use chronos_bench::adversarial::adversarial_table;
use chronos_bench::cli::{check_exact, BenchArgs};
use std::process::ExitCode;

const SEED: u64 = 73;

fn main() -> ExitCode {
    let args = match BenchArgs::parse("BENCH_adversarial.json") {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let (epochs, onset) = if args.quick { (17, 5) } else { (28, 8) };
    let table = adversarial_table(SEED, epochs, onset);
    args.write_or_check(&table, check_exact)
}
