//! Regenerates the paper's evaluation: every figure named on the command
//! line, or all of them when none is, written to
//! `EXPERIMENTS-data/<table>.csv` (or under `$CHRONOS_DATA_DIR`).
//!
//! ```sh
//! cargo run --release -p chronos-bench --bin run_all                 # every figure
//! cargo run --release -p chronos-bench --bin run_all -- fig07a summary
//! cargo run --release -p chronos-bench --bin run_all -- --pairs 80 fig08b
//! ```
//!
//! Figure names: `fig03`, `fig04`, `fig07a`, `fig07b`, `fig07c`,
//! `fig08a`, `fig08b`, `fig08c`, `fig09a`, `fig09b`, `fig09c`, `fig10a`,
//! `fig10b` and `summary` (the paper's headline claims). `--pairs N`
//! caps each testbed sweep at `N` placements; by default a sweep takes
//! the whole floor (380 placements on floor 42, 383 on floor 43).
//!
//! Each experiment runs at most once per invocation, and every figure
//! that reads it reads the same samples
//! ([`chronos_bench::figures::Experiments`]): the floor-42 sweep feeds
//! Figs. 7a–7c, 8a, 8b and the summary, the floor-43 sweep Fig. 8c and
//! the summary, one hop-time sample Fig. 9a and the summary, and one
//! drone flight Figs. 10a, 10b and the summary. The trials do not
//! depend on the host's core count.

use chronos_bench::figures::{Experiments, Figure, FIGURES};
use chronos_bench::report::{data_dir, write_csv};
use std::process::ExitCode;

/// Parses `[--pairs N] [figure...]` into the placement cap and the
/// figures to run, in the order given (all of them when none is named).
fn parse(mut args: impl Iterator<Item = String>) -> Result<(usize, Vec<Figure>), String> {
    let mut pairs = usize::MAX;
    let mut figures = Vec::new();
    while let Some(arg) = args.next() {
        if arg == "--pairs" {
            pairs = args
                .next()
                .and_then(|n| n.parse().ok())
                .filter(|&n| n > 0)
                .ok_or("--pairs needs a positive placement count")?;
        } else {
            let figure = FIGURES.iter().find(|f| f.0 == arg).ok_or_else(|| {
                let names: Vec<&str> = FIGURES.iter().map(|f| f.0).collect();
                format!("unknown figure {arg}; one of: {}", names.join(" "))
            })?;
            figures.push(*figure);
        }
    }
    if figures.is_empty() {
        figures = FIGURES.to_vec();
    }
    Ok((pairs, figures))
}

fn main() -> ExitCode {
    let (pairs, figures) = match parse(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let experiments = Experiments::new(pairs);
    let dir = data_dir();
    for (name, generate) in figures {
        println!("== {name} ==");
        for table in generate(&experiments) {
            let path = write_csv(&table, &dir).expect("write csv");
            println!("  wrote {}", path.display());
        }
    }
    println!("figures written under {}", dir.display());
    ExitCode::SUCCESS
}
