//! Shared flag parsing and baseline handling for the gated benchmark
//! binaries.
//!
//! Every gated bench binary (`bench_position`, `bench_throughput`,
//! `bench_adversarial`, `bench_soak`, `bench_fleet`, `bench_capacity`)
//! understands the same three flags:
//!
//! * `--quick` — fewer epochs/rounds (the CI setting; baselines must be
//!   generated with the same flag CI checks with; `bench_capacity` runs
//!   the same sizes either way);
//! * `--out <path>` — where to write the JSON baseline (default is the
//!   binary's checked-in baseline name);
//! * `--check <baseline>` — compare against a checked-in baseline
//!   instead of overwriting it (exit 1 on regression).
//!
//! Each binary builds its table with its own seed and sizes, then hands
//! it to [`BenchArgs::write_or_check`] with its regression check: the
//! five deterministic benches share [`check_exact`], and
//! `bench_throughput` has its own for its host-timed ratio. Parsing and
//! the write/check step live here so the binaries cannot drift apart.

use crate::report::{write_json, Table};
use std::path::PathBuf;
use std::process::ExitCode;

/// The parsed common flags.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Run the reduced CI-sized workload.
    pub quick: bool,
    /// Output path for baseline (re)generation.
    pub out: PathBuf,
    /// Baseline to gate against, if any.
    pub check: Option<PathBuf>,
}

impl BenchArgs {
    /// Parses `std::env::args` with the given default `--out` path.
    /// Returns a usage message on an unknown flag or a missing value.
    pub fn parse(default_out: &str) -> Result<BenchArgs, String> {
        Self::parse_from(std::env::args().skip(1), default_out)
    }

    /// [`BenchArgs::parse`] over an explicit argument iterator (tests).
    pub fn parse_from(
        args: impl IntoIterator<Item = String>,
        default_out: &str,
    ) -> Result<BenchArgs, String> {
        let mut parsed = BenchArgs {
            quick: false,
            out: PathBuf::from(default_out),
            check: None,
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => parsed.quick = true,
                "--out" => {
                    parsed.out = PathBuf::from(args.next().ok_or("--out needs a path".to_string())?)
                }
                "--check" => {
                    parsed.check = Some(PathBuf::from(
                        args.next().ok_or("--check needs a path".to_string())?,
                    ))
                }
                other => {
                    return Err(format!("unknown flag {other}; see the crate docs"));
                }
            }
        }
        Ok(parsed)
    }

    /// Prints `table`, then either writes it to `--out` or, under
    /// `--check`, gates it against the baseline with `check` (current,
    /// baseline → the list of failures) and reports OK or FAILED.
    /// Returns the process exit code: failure only when the gate fails.
    /// Panics when the output cannot be written or the baseline cannot
    /// be read or parsed.
    pub fn write_or_check(
        &self,
        table: &Table,
        check: impl FnOnce(&Table, &Table) -> Result<(), Vec<String>>,
    ) -> ExitCode {
        println!("{}", table.render());
        let Some(baseline_path) = &self.check else {
            write_json(table, &self.out)
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", self.out.display()));
            println!("wrote {}", self.out.display());
            return ExitCode::SUCCESS;
        };
        let baseline_src = std::fs::read_to_string(baseline_path)
            .unwrap_or_else(|e| panic!("cannot read baseline {}: {e}", baseline_path.display()));
        let baseline =
            Table::from_json(&baseline_src).unwrap_or_else(|e| panic!("malformed baseline: {e}"));
        match check(table, &baseline) {
            Ok(()) => {
                println!(
                    "bench-regression gate: OK against {}",
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

/// The exact gate of the five deterministic benches (position,
/// adversarial, soak, fleet, capacity): every numeric cell of every
/// baseline row must equal the current run's, in either direction, and a
/// baseline row missing from the current run fails. Rows are matched by
/// their first cell, the key. A non-numeric baseline cell other than the
/// key is informational — today only `BENCH_fleet`'s host-timed
/// `speedup_vs_serial` (rendered with an `x` suffix). The runs are
/// seeded, so any difference is a real change: an intentional one
/// re-records the baseline and says why. Returns every mismatch.
pub fn check_exact(current: &Table, baseline: &Table) -> Result<(), Vec<String>> {
    let mut failures = Vec::new();
    for (bi, brow) in baseline.rows.iter().enumerate() {
        let key = brow.first().cloned().unwrap_or_default();
        let Some(ci) = current.row_by_key(&key) else {
            failures.push(format!("row {key:?} missing from current run"));
            continue;
        };
        for header in baseline.headers.iter().skip(1) {
            let Some(base) = baseline.cell_f64(bi, header) else {
                continue;
            };
            let cur = current.cell_f64(ci, header);
            if cur != Some(base) {
                let cur = cur.map_or("no number".to_string(), |c| c.to_string());
                failures.push(format!("{key}/{header}: {cur} != baseline {base}"));
            }
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Result<BenchArgs, String> {
        BenchArgs::parse_from(args.iter().map(|s| s.to_string()), "BENCH_default.json")
    }

    #[test]
    fn defaults_and_flags() {
        let a = v(&[]).unwrap();
        assert!(!a.quick);
        assert_eq!(a.out, PathBuf::from("BENCH_default.json"));
        assert!(a.check.is_none());

        let a = v(&["--quick", "--out", "x.json", "--check", "b.json"]).unwrap();
        assert!(a.quick);
        assert_eq!(a.out, PathBuf::from("x.json"));
        assert_eq!(a.check, Some(PathBuf::from("b.json")));
    }

    #[test]
    fn errors_reported() {
        assert!(v(&["--frobnicate"]).is_err());
        assert!(v(&["--out"]).is_err());
        assert!(v(&["--check"]).is_err());
        // No flag sets a tolerance: gate 2 keeps its one as a constant.
        assert!(v(&["--tolerance", "0.20"]).is_err());
    }

    #[test]
    fn exact_check_fails_on_any_difference() {
        let headers = ["scenario", "epochs", "median_err_m", "fix_rate", "speedup"];
        let mut base = Table::new("BENCH_x", &headers);
        base.row(&[
            "los".into(),
            "10".into(),
            "0.033".into(),
            "1.000".into(),
            "1.00x".into(),
        ]);
        // An identical run passes.
        assert!(check_exact(&base.clone(), &base).is_ok());
        // A change in either direction fails, on any numeric column.
        for (col, value) in [(1, "11"), (2, "0.034"), (2, "0.032"), (3, "0.999")] {
            let mut changed = base.clone();
            changed.rows[0][col] = value.into();
            let errs = check_exact(&changed, &base).unwrap_err();
            assert!(errs.iter().any(|e| e.contains(headers[col])), "{errs:?}");
        }
        // A numeric cell that stops being a number fails.
        let mut blank = base.clone();
        blank.rows[0][2] = "-".into();
        assert!(check_exact(&blank, &base).is_err());
        // A missing row fails.
        let empty = Table::new("BENCH_x", &headers);
        let errs = check_exact(&empty, &base).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("missing")), "{errs:?}");
        // The non-numeric column is informational.
        let mut faster = base.clone();
        faster.rows[0][4] = "1.80x".into();
        assert!(check_exact(&faster, &base).is_ok());
    }

    /// The non-key cells of `table` that [`check_exact`] skips because
    /// they do not read as numbers.
    fn ungated_cells(table: &Table) -> Vec<String> {
        let mut cells = Vec::new();
        for (r, row) in table.rows.iter().enumerate() {
            for (header, cell) in table.headers.iter().zip(row).skip(1) {
                if table.cell_f64(r, header).is_none() {
                    cells.push(format!("{}/{header}: {cell:?}", row[0]));
                }
            }
        }
        cells
    }

    #[test]
    fn capacity_baseline_cells_are_all_gated() {
        let baseline = Table::from_json(include_str!("../../../BENCH_capacity.json"))
            .expect("BENCH_capacity.json parses");
        assert_eq!(baseline.rows.len(), 7, "README quotes seven rows");
        assert_eq!(ungated_cells(&baseline), Vec::<String>::new());
        // A gain or utilization rendered for the console would escape.
        for (col, cell) in [(4, "2.0x"), (5, "96%")] {
            let mut rendered = baseline.clone();
            rendered.rows[0][col] = cell.into();
            assert_eq!(ungated_cells(&rendered).len(), 1, "{cell}");
        }
    }
}
