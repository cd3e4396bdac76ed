//! Shared flag parsing and baseline handling for the gated benchmark
//! binaries.
//!
//! Every gated bench binary (`bench_position`, `bench_throughput`,
//! `bench_adversarial`, `bench_soak`, `bench_fleet`) understands the
//! same four flags:
//!
//! * `--quick` — fewer epochs/rounds (the CI setting; baselines must be
//!   generated with the same flag CI checks with);
//! * `--out <path>` — where to write the JSON baseline (default is the
//!   binary's checked-in baseline name);
//! * `--check <baseline>` — compare against a checked-in baseline
//!   instead of overwriting it (exit 1 on regression);
//! * `--tolerance <frac>` — relative regression tolerance (default 0.20).
//!
//! Each binary builds its table with its own seed and sizes, then hands
//! it to [`BenchArgs::write_or_check`] with its own regression check.
//! Parsing and the write/check step live here so the binaries cannot
//! drift apart.

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
    /// Relative regression tolerance.
    pub tolerance: f64,
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
            tolerance: 0.20,
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
                "--tolerance" => {
                    parsed.tolerance = args
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or("--tolerance needs a fraction, e.g. 0.20".to_string())?
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
    /// baseline, tolerance → the list of failures) and reports OK or
    /// FAILED. Returns the process exit code: failure only when the gate
    /// fails. Panics when the output cannot be written or the baseline
    /// cannot be read or parsed.
    pub fn write_or_check(
        &self,
        table: &Table,
        check: impl FnOnce(&Table, &Table, f64) -> Result<(), Vec<String>>,
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
        match check(table, &baseline, self.tolerance) {
            Ok(()) => {
                println!(
                    "bench-regression gate: OK (within {:.0}% of {})",
                    self.tolerance * 100.0,
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
        assert!((a.tolerance - 0.20).abs() < 1e-12);

        let a = v(&[
            "--quick",
            "--out",
            "x.json",
            "--check",
            "b.json",
            "--tolerance",
            "0.1",
        ])
        .unwrap();
        assert!(a.quick);
        assert_eq!(a.out, PathBuf::from("x.json"));
        assert_eq!(a.check, Some(PathBuf::from("b.json")));
        assert!((a.tolerance - 0.1).abs() < 1e-12);
    }

    #[test]
    fn errors_reported() {
        assert!(v(&["--frobnicate"]).is_err());
        assert!(v(&["--out"]).is_err());
        assert!(v(&["--check"]).is_err());
        assert!(v(&["--tolerance", "abc"]).is_err());
    }
}
