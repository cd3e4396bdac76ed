//! Multi-client ranging service: one access point localizing a fleet of
//! clients through the shared-plan, arbited-medium service layer.
//!
//! ```sh
//! cargo run --release --example multi_client_service
//! ```
//!
//! Eight Intel 5300 clients join one `ServiceEngine`. Their
//! sweeps share a single `PlanCache` (the NDFT operators, operator
//! norms, lobe tables and spline factorizations are built once, on the
//! first sweep, and reused by everyone) and contend for airtime through
//! the `MediumArbiter` (staggered starts, bounded concurrency, collision
//! loss). Estimation runs on scoped worker threads — one per core.
//! After the epoch rounds, the demo plays a window of **continuous**
//! event-driven operation (`run_until`, `docs/SCHEDULING.md`) with a
//! client leaving mid-run.

use chronos_suite::core::config::ChronosConfig;
use chronos_suite::core::engine::ServiceEngine;
use chronos_suite::core::service::ServiceConfig;
use chronos_suite::link::time::Duration;
use chronos_suite::rf::csi::MeasurementContext;
use chronos_suite::rf::environment::Environment;
use chronos_suite::rf::geometry::Point;
use chronos_suite::rf::hardware::Intel5300;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut service = ServiceEngine::new(ServiceConfig::default());

    // Register eight clients scattered 2–9 m from the access point.
    let n_clients = 8;
    for i in 0..n_clients {
        let angle = i as f64 * std::f64::consts::TAU / n_clients as f64;
        let radius = 2.0 + i as f64;
        let ctx = MeasurementContext::new(
            Environment::free_space(),
            Intel5300::mobile(&mut rng),
            Point::new(radius * angle.cos(), radius * angle.sin()),
            Intel5300::laptop(&mut rng),
            Point::new(0.0, 0.0),
        );
        service.join(ctx, ChronosConfig::default());
    }

    // One-time per-client calibration (paper §7 obs. 2).
    service.calibrate_all(99, 2);

    // Three service rounds.
    for round in 0..3 {
        let report = service.run_epoch(1000 + round);
        println!(
            "epoch {}: {}/{} clients estimated in {:.0} ms of airtime \
             ({:.1} sweeps/s, medium {:.0}% utilized, host wall {:?})",
            round,
            report.completed(),
            report.outcomes.len(),
            report.span().as_millis_f64(),
            report.sweeps_per_sec(),
            100.0 * report.utilization,
            report.wall,
        );
        for o in &report.outcomes {
            match o.distance_m {
                Some(d) => println!(
                    "  client {}: {:5.2} m (truth {:5.2} m, err {:4.2} m) \
                     started +{:.0} ms, {} concurrent peers",
                    o.client,
                    d,
                    o.truth_m,
                    o.error_m.unwrap_or(f64::NAN),
                    o.started.saturating_since(report.started).as_millis_f64(),
                    o.concurrent,
                ),
                None => println!("  client {}: sweep incomplete, no estimate", o.client),
            }
        }
    }

    let stats = service.plans().stats();
    println!(
        "plan cache: {} NDFT plans + {} spline plans built once, \
         {:.1}% of lookups served from cache",
        stats.ndft_entries,
        stats.spline_entries,
        100.0 * stats.hit_rate(),
    );

    // Continuous operation: no epoch barrier — every client re-sweeps as
    // soon as the arbiter grants airtime, and churn is an ordinary event.
    service.leave(0);
    let window = service.run_until(2000, service.clock() + Duration::from_millis(300));
    println!(
        "continuous window ({}): {} sweeps from {} active clients \
         ({:.1} sweeps/s, medium {:.0}% utilized; client 0 left mid-run)",
        window.span(),
        window.completed(),
        service.n_active(),
        window.sweeps_per_sec(),
        100.0 * window.utilization,
    );
    assert!(window.outcomes.iter().all(|o| o.client != 0));
}
