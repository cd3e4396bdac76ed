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
//!     --quick --check BENCH_fleet.json --tolerance 0.20
//! ```
//!
//! Flags are the shared set parsed by [`chronos_bench::cli::BenchArgs`]
//! (`--quick`, `--out`, `--check`, `--tolerance`). The run is fully
//! deterministic, and [`chronos_bench::fleet::fleet_table`] asserts the
//! capacity claim (TDoA ≥ 2× fixes/s per client at ≤ 1.5× the error)
//! before any table is written, so a committed baseline always embodies
//! it; the gate then holds the margin against drift.

use chronos_bench::alloc_count::CountingAlloc;
use chronos_bench::cli::BenchArgs;
use chronos_bench::fleet::fleet_table;
use chronos_bench::position::check_regression;
use chronos_bench::report::{write_json, Table};
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
    println!("{}", table.render());

    let tolerance = args.tolerance;
    match args.check {
        None => {
            let out = args.out;
            write_json(&table, &out).expect("write BENCH_fleet.json");
            println!("wrote {}", out.display());
            ExitCode::SUCCESS
        }
        Some(baseline_path) => {
            let baseline_src = std::fs::read_to_string(&baseline_path).unwrap_or_else(|e| {
                panic!("cannot read baseline {}: {e}", baseline_path.display())
            });
            let baseline = Table::from_json(&baseline_src)
                .unwrap_or_else(|e| panic!("malformed baseline: {e}"));
            match check_regression(&table, &baseline, tolerance) {
                Ok(()) => {
                    println!(
                        "bench-regression gate: OK (within {:.0}% of {})",
                        tolerance * 100.0,
                        baseline_path.display()
                    );
                    ExitCode::SUCCESS
                }
                Err(failures) => {
                    eprintln!("bench-regression gate: FAILED");
                    for f in &failures {
                        eprintln!("  {f}");
                    }
                    eprintln!(
                        "(baseline {}; intentional changes: re-run without --check and \
                         commit the new baseline)",
                        baseline_path.display()
                    );
                    ExitCode::FAILURE
                }
            }
        }
    }
}
