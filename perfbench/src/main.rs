//! The benchmark command:
//!
//! ```text
//! perfbench --workload <office_pair|fleet_tdoa> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints every metric with its unit, then, as the last line, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics untraced, the per-layer metrics traced. Exits
//! non-zero when an output check fails.

use perfbench::alloc::{thread_allocations, CountingAlloc};
use perfbench::report::{end_to_end, peak_rss_mb, per_layer, result_line};
use perfbench::rig::RunConfig;
use perfbench::Workload;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct Args {
    workload: Workload,
    cfg: RunConfig,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        cfg: RunConfig {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            traced: trace.unwrap_or(false),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <office_pair|fleet_tdoa> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    // Worker threads report their allocations through the runtime's probe.
    chronos_core::runtime::set_alloc_probe(thread_allocations);

    let name = args.workload.name();
    let result = perfbench::run(args.workload, &args.cfg);
    // Both metric sets are checked in both modes; the traced run's
    // end-to-end figures are only checked, never reported.
    let e2e = end_to_end(&result.samples, peak_rss_mb());
    let layers = per_layer(&result.layers);
    let mut failures = perfbench::check(args.workload, &result, &[&e2e[..], &layers].concat());
    let metrics = if args.cfg.traced { layers } else { e2e };

    println!(
        "{name}: seed {}, {} steps ({} timed), check-prefix digest {:016x}, host scale {:.4}",
        args.cfg.seed,
        result.steps,
        result.samples.step_s.len(),
        result.digest,
        result.samples.nominal_timed_s() / result.samples.step_s.iter().sum::<f64>(),
    );
    for m in &metrics {
        println!("  {:<26} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if let Some(tracer) = &result.tracer {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("{name}-seed{}.jsonl", args.cfg.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!(
                "  spans: {} written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => failures.push(format!("writing spans to {}: {e}", path.display())),
        }
    }
    for f in &failures {
        eprintln!("perfbench: check failed: {f}");
    }
    let correct = failures.is_empty();
    println!(
        "{}",
        result_line(correct, result.steps, result.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
