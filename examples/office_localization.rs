//! Device-to-device localization across the 20 m x 20 m office testbed
//! (the paper's Fig. 6 environment): place two laptops at random candidate
//! spots, sweep, localize, compare with ground truth — for several
//! placements, LOS and NLOS.
//!
//! ```sh
//! cargo run --release --example office_localization
//! ```

use chronos_suite::core::config::ChronosConfig;
use chronos_suite::core::pipeline::SweepPipeline;
use chronos_suite::core::session::ChronosSession;
use chronos_suite::link::time::Instant;
use chronos_suite::rf::csi::MeasurementContext;
use chronos_suite::rf::environment::Environment;
use chronos_suite::rf::geometry::Point;
use chronos_suite::rf::hardware::Intel5300;
use chronos_suite::rf::testbed::Testbed;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(99);
    let testbed = Testbed::office(42);
    let pairs = testbed.pairs_within(12.0);

    println!(
        "office testbed: {} candidate placements within 12 m",
        pairs.len()
    );
    println!(
        "{:<10} {:>8} {:>6} {:>10} {:>10}",
        "placement", "dist(m)", "LOS", "est(m)", "locerr(m)"
    );

    // One calibrated device pair reused across placements, as in the paper.
    let ctx = MeasurementContext::new(
        Environment::free_space(),
        Intel5300::mobile(&mut rng),
        Point::new(0.0, 0.0),
        Intel5300::laptop(&mut rng),
        Point::new(2.0, 0.0),
    );
    let mut session = ChronosSession::new(ctx, ChronosConfig::default());
    session.calibrate(&mut rng, 2);
    session.ctx.environment = testbed.environment.clone();

    // One pipeline for every placement: its scratch is reused, not
    // regrown per sweep.
    let mut pipeline = SweepPipeline::new();
    let mut errors = Vec::new();
    for (i, pair) in pairs.iter().step_by(pairs.len() / 8).take(8).enumerate() {
        session.ctx.initiator_pos = pair.a;
        session.ctx.responder_pos = pair.b;
        let t = Instant::from_millis(i as u64 * 100);
        let out = session.sweep_with_pipeline(&session.sweep_cfg, &mut rng, t, &mut pipeline);
        let est = out.mean_distance_m();
        let loc_err = out
            .position
            .as_ref()
            .ok()
            .map(|p| p.point.dist(pair.a.sub(pair.b)));
        println!(
            "{:<10} {:>8.2} {:>6} {:>10} {:>10}",
            format!("#{i}"),
            pair.distance_m,
            if pair.los { "yes" } else { "no" },
            est.map(|d| format!("{d:.2}")).unwrap_or_else(|| "-".into()),
            loc_err
                .map(|e| format!("{e:.2}"))
                .unwrap_or_else(|| "-".into()),
        );
        if let Some(e) = loc_err {
            errors.push(e);
        }
    }
    if !errors.is_empty() {
        println!(
            "\nmedian localization error: {:.2} m over {} placements \
             (paper: 0.58 m LOS / 1.18 m NLOS at 30 cm separation)",
            chronos_suite::math::stats::median(&errors),
            errors.len()
        );
    }
}
