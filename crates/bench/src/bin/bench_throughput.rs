//! The sweep-pipeline throughput benchmark and its CI regression gate.
//!
//! ```sh
//! # Regenerate the checked-in baseline (CI gates a --quick run, so the
//! # baseline must be one too — parameter mismatches fail the gate
//! # explicitly):
//! cargo run --release -p chronos-bench --bin bench_throughput -- --quick
//!
//! # Gate mode (what scripts/check-bench-regression.sh runs in CI):
//! cargo run --release -p chronos-bench --bin bench_throughput -- \
//!     --quick --check BENCH_throughput.json
//! ```
//!
//! Shared flags (`--quick/--out/--check`) are parsed by
//! [`chronos_bench::cli::BenchArgs`]. The gate covers the portable
//! metrics only: `speedup_x` (pipeline vs the transcribed pre-refactor
//! solver; a regression past
//! [`chronos_bench::throughput::SPEEDUP_TOLERANCE`] (20%) or falling
//! below the absolute 3.0× floor fails), `allocs_per_sweep` (any increase fails — including the
//! per-item counters on the `fix_pool` rows), `tiles_per_solve` (the
//! gradient tiles a solve evaluates; any increase fails) and
//! `units_per_solve` (the polyphase partial-sum units a solve builds;
//! any increase fails).
//! Absolute sweeps/s columns are informational — they depend on the
//! host.

use chronos_bench::alloc_count::CountingAlloc;
use chronos_bench::cli::BenchArgs;
use chronos_bench::throughput::{check_throughput_regression, throughput_table};
use std::process::ExitCode;

// The allocs/sweep column counts real allocation events only because the
// benchmark binary routes every allocation through the counter.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

fn main() -> ExitCode {
    let args = match BenchArgs::parse("BENCH_throughput.json") {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    // Let the worker runtime charge item allocations to the per-thread
    // counting allocator on every lane, so the fix_pool rows report true
    // allocation events (the 0-allocs/sweep contract).
    chronos_core::runtime::set_alloc_probe(chronos_bench::alloc_count::thread_allocations);

    let rounds = if args.quick { 4 } else { 12 };
    let table = throughput_table(rounds);
    args.write_or_check(&table, check_throughput_regression)
}
