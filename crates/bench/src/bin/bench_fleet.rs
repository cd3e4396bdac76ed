//! The fleet capacity benchmark and its CI regression gate:
//! synchronized one-way TDoA versus per-AP round-trip sweeps at 16 APs
//! with 1000 roaming clients, plus the shard-scaling rows for the
//! shard-parallel window driver (see `docs/FLEET.md`).
//!
//! ```sh
//! # Regenerate the checked-in baseline (CI gates a --quick run, so the
//! # baseline must be a --quick run too — window-count mismatches fail
//! # the gate explicitly):
//! cargo run --release -p chronos-bench --bin bench_fleet -- --quick
//!
//! # Gate mode (what scripts/check-bench-regression.sh runs in CI):
//! cargo run --release -p chronos-bench --bin bench_fleet -- \
//!     --quick --check BENCH_fleet.json
//! ```
//!
//! Flags are the shared set parsed by [`chronos_bench::cli::BenchArgs`]
//! (`--quick`, `--out`, `--check`). The run is fully deterministic, and
//! [`chronos_bench::fleet::fleet_table`] asserts the capacity claim
//! (TDoA ≥ 2× fixes/s per client at ≤ 1.5× the error) before any table
//! is written, so a committed baseline always embodies it; the gate
//! ([`chronos_bench::cli::check_exact`]) then holds every numeric cell
//! exactly. The host-timed `speedup_vs_serial` column is informational.

use chronos_bench::alloc_count::CountingAlloc;
use chronos_bench::cli::{check_exact, BenchArgs};
use chronos_bench::fleet::fleet_table;
use std::process::ExitCode;

const SEED: u64 = 47;

// The worker_allocs column counts real allocation events only because
// the benchmark binary routes every allocation through the counter.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

fn main() -> ExitCode {
    let args = match BenchArgs::parse("BENCH_fleet.json") {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    // Let the worker runtime charge counted-item allocations to the
    // per-thread counting allocator, so the worker_allocs column reports
    // true allocation events. A fleet runs its shard windows uncounted
    // and its sweeps inline, so the column pins that no fleet sweep runs
    // as a counted pool item.
    chronos_core::runtime::set_alloc_probe(chronos_bench::alloc_count::thread_allocations);

    let table = fleet_table(SEED, args.quick);
    args.write_or_check(&table, check_exact)
}
