//! Regenerates every figure of the paper's evaluation in one run and
//! writes all tables to `EXPERIMENTS-data/*.csv`.
//!
//! Usage: `cargo run --release -p chronos-bench --bin run_all [pairs]`
//! where `pairs` scales the Monte-Carlo effort of the testbed experiments
//! (default 60; the measurements quoted in ROADMAP.md use 80).

use chronos_bench::figures;
use chronos_bench::report::{data_dir, write_csv, Table};
use chronos_rf::hardware::AntennaArray;

fn persist(tables: Vec<Table>) {
    let dir = data_dir();
    for t in tables {
        let path = write_csv(&t, &dir).expect("write csv");
        println!("  wrote {}", path.display());
    }
}

fn main() {
    let pairs = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(60);

    println!("== Fig. 3: CRT phase alignment ==");
    persist(figures::fig03());

    println!("== Fig. 4: multipath profile ==");
    persist(figures::fig04());

    println!("== Figs. 7a/7b/7c + 8a: testbed accuracy ({pairs} pairs) ==");
    let trials = figures::accuracy_trials(42, pairs);
    persist(figures::fig07a(&trials));
    persist(figures::fig07b(&trials));
    persist(figures::fig07c(&trials));
    persist(figures::fig08a(&trials));

    println!("== Fig. 8b: localization, 30 cm client array ==");
    persist(figures::fig08_localization(
        "fig08b_localization_client",
        42,
        pairs,
        AntennaArray::laptop(),
        "0.58",
        "1.18",
    ));

    println!("== Fig. 8c: localization, 100 cm AP array ==");
    persist(figures::fig08_localization(
        "fig08c_localization_ap",
        43,
        pairs,
        AntennaArray::access_point(),
        "0.35",
        "0.62",
    ));

    println!("== Fig. 9a: hop time ==");
    persist(figures::fig09a(7, 200));

    println!("== Fig. 9b: video trace ==");
    persist(figures::fig09b(11));

    println!("== Fig. 9c: TCP trace ==");
    persist(figures::fig09c(12));

    println!("== Fig. 10a: drone distance ==");
    persist(figures::fig10a(21, 240));

    println!("== Fig. 10b: drone trajectory ==");
    persist(figures::fig10b(22, 240));

    println!("all figures regenerated under {}", data_dir().display());
}
