//! Online 2-D position tracking off a single multi-antenna AP (§8).
//!
//! ```sh
//! cargo run --release --example position_tracking
//! ```
//!
//! One access point with the 3-antenna 100 cm array localizes a walker
//! crossing its field of view — straight through the shadow of a
//! concrete wall. Each epoch the sweep yields a time-of-flight per
//! antenna; the distance circles are intersected (NLOS antennas rejected
//! by the triangle-inequality and residual gates) and fused by the
//! 4-state position Kalman filter. Watch the `ant` column drop to 0/3
//! behind the wall: fixes thin out or degrade there, the tracker coasts
//! on its motion prior, and the error stays bounded until the walker
//! re-emerges. See `docs/LOCALIZATION.md` for the design.

use chronos_suite::core::config::ChronosConfig;
use chronos_suite::core::engine::ServiceEngine;
use chronos_suite::core::service::ServiceConfig;
use chronos_suite::core::tracker::{TrackMode, TrackerConfig};
use chronos_suite::rf::csi::MeasurementContext;
use chronos_suite::rf::environment::{Environment, Material};
use chronos_suite::rf::geometry::{Point, Segment};
use chronos_suite::rf::hardware::{ideal_device, AntennaArray};

fn main() {
    let epochs = 14usize;
    let start = Point::new(-2.5, 3.2);
    let end = Point::new(3.5, 3.2);

    // The office: one concrete slab between the walk path and the AP.
    let mut env = Environment::free_space();
    env.add_wall(
        Segment::new(Point::new(-0.8, 1.8), Point::new(1.3, 1.8)),
        Material::Concrete,
    );

    let ap = AntennaArray::access_point();
    let mut ctx = MeasurementContext::new(
        env.clone(),
        ideal_device(AntennaArray::single()),
        start,
        ideal_device(ap.clone()),
        Point::new(0.0, 0.0),
    );
    ctx.snr.snr_at_1m_db = 36.0;

    let tracker = TrackerConfig {
        process_noise_mps2: 4.0,
        measurement_noise_m: 0.08,
        ..TrackerConfig::default()
    };
    let mut service = ServiceEngine::new(ServiceConfig::position(tracker));
    let walker = service.join(ctx, ChronosConfig::ideal());
    service.session_mut(walker).sweep_cfg.medium.loss_prob = 0.0;

    let antennas = ap.world_positions(Point::new(0.0, 0.0));
    println!("epoch  mode     ant  truth            fix              tracked          err");
    for e in 0..epochs {
        let t = e as f64 / (epochs - 1) as f64;
        let truth = start.lerp(end, t);
        service.session_mut(walker).ctx.initiator_pos = truth;
        let los = env
            .los_mask(truth, &antennas)
            .iter()
            .filter(|l| **l)
            .count();

        let report = service.run_epoch(61_000 + e as u64);
        let o = &report.outcomes[0];
        let fmt = |p: Option<Point>| match p {
            Some(p) => format!("({:+5.2}, {:+5.2})", p.x, p.y),
            None => "      --      ".to_string(),
        };
        let mode = match o.mode {
            TrackMode::Acquire => "ACQUIRE",
            TrackMode::Track => "TRACK  ",
        };
        println!(
            "{e:>5}  {mode}  {los}/3  ({:+5.2}, {:+5.2})  {}  {}  {}",
            o.truth_pos.x,
            o.truth_pos.y,
            fmt(o.position),
            fmt(o.tracked_pos),
            o.tracked_pos_error_m
                .map(|err| format!("{err:.2} m"))
                .unwrap_or_else(|| "--".into()),
        );
    }
}
