//! Integration tests for online 2-D position tracking: the LOS bench
//! scenario must be sub-meter, the walled NLOS scenario must degrade
//! gracefully (bounded, reported), and the whole pipeline must be
//! deterministic epoch over epoch.

use chronos_bench::position::{
    run_position, run_position_continuous, PositionRun, PositionScenarioConfig,
};
use chronos_suite::core::config::ChronosConfig;
use chronos_suite::core::engine::ServiceEngine;
use chronos_suite::core::service::{LocalizationMode, ServiceConfig};
use chronos_suite::core::tracker::{PositionTracker, TrackerConfig};
use chronos_suite::link::time::{Duration, Instant};
use chronos_suite::rf::csi::MeasurementContext;
use chronos_suite::rf::environment::Environment;
use chronos_suite::rf::geometry::Point;
use chronos_suite::rf::hardware::{ideal_device, AntennaArray};

#[test]
fn los_walker_is_submeter_median() {
    let run = run_position(&PositionScenarioConfig::los(61, 10));
    assert!(run.fix_rate() > 0.8, "fix rate {}", run.fix_rate());
    let median = run.median_err_m();
    assert!(median < 1.0, "LOS median 2-D error {median} m");
    let rmse = run.pos_rmse_m();
    assert!(rmse < 1.0, "LOS tracked RMSE {rmse} m");
}

#[test]
fn nlos_walker_degrades_gracefully() {
    let cfg = PositionScenarioConfig::nlos_wall(61, 10);
    let run = run_position(&cfg);
    // The wall must actually shadow the array mid-path...
    assert!(
        run.los_antennas.iter().any(|n| *n < 3),
        "scenario never went NLOS: {:?}",
        run.los_antennas
    );
    // ...and the degradation stays bounded and reported: the tracker
    // coasts through the shadow instead of hallucinating.
    let worst = run.worst_tracked_err_m();
    assert!(worst.is_finite(), "no tracked epochs");
    assert!(worst < 1.5, "NLOS worst tracked error {worst} m");
    assert!(
        run.median_err_m() < 1.0,
        "NLOS median {} m",
        run.median_err_m()
    );
}

#[test]
fn continuous_engine_serves_more_position_fixes_at_same_accuracy() {
    // The same LOS walk driven by run_until windows instead of epoch
    // rounds: once the tracker promotes, subset sweeps deliver several
    // fixes per ~100 ms window, and fix quality stays sub-meter.
    let cfg = PositionScenarioConfig::los(61, 8);
    let run = run_position_continuous(&cfg, Duration::from_millis(100));
    assert!(
        run.sweeps() > cfg.epochs + 4,
        "continuous run produced only {} sweeps over {} windows",
        run.sweeps(),
        cfg.epochs
    );
    let median = run.median_err_m();
    assert!(median < 1.0, "continuous LOS median 2-D error {median} m");
}

#[test]
fn position_runs_are_deterministic() {
    let cfg = PositionScenarioConfig::nlos_wall(7, 8);
    let bits = |run: &PositionRun| -> Vec<Option<(u64, u64)>> {
        run.reports
            .iter()
            .map(|r| {
                r.outcomes[0]
                    .tracked_pos
                    .map(|p| (p.x.to_bits(), p.y.to_bits()))
            })
            .collect()
    };
    let a = run_position(&cfg);
    let b = run_position(&cfg);
    assert_eq!(
        bits(&a),
        bits(&b),
        "same seed must reproduce bit-identical tracks"
    );
}

#[test]
fn position_tracker_is_deterministic_across_epochs() {
    // The tracker itself (not just the service) must be a pure function
    // of its observation stream: two trackers fed the same fixes at the
    // same instants stay bitwise identical, epoch after epoch.
    let fixes: Vec<Option<Point>> = (0..30)
        .map(|i| {
            if i % 7 == 3 {
                None // a dropped fix mid-stream
            } else {
                Some(Point::new(1.0 + 0.05 * i as f64, 4.0 - 0.03 * i as f64))
            }
        })
        .collect();
    let mut t1 = PositionTracker::new(TrackerConfig::default());
    let mut t2 = PositionTracker::new(TrackerConfig::default());
    for (i, fix) in fixes.iter().enumerate() {
        let t = Instant::ZERO + Duration::from_millis(90 * i as u64);
        let u1 = t1.observe(t, *fix, true);
        let u2 = t2.observe(t, *fix, true);
        assert_eq!(u1.next_mode, u2.next_mode);
        match (u1.fused, u2.fused) {
            (Some(a), Some(b)) => {
                assert_eq!(a.x.to_bits(), b.x.to_bits());
                assert_eq!(a.y.to_bits(), b.y.to_bits());
            }
            (a, b) => assert_eq!(a.is_some(), b.is_some()),
        }
    }
}

#[test]
fn service_position_mode_tracks_multiple_clients() {
    let mut svc = ServiceEngine::new(ServiceConfig::position(TrackerConfig::default()));
    for p in [
        Point::new(1.5, 3.5),
        Point::new(-2.0, 4.0),
        Point::new(0.5, 5.0),
    ] {
        let mut ctx = MeasurementContext::new(
            Environment::free_space(),
            ideal_device(AntennaArray::single()),
            p,
            ideal_device(AntennaArray::access_point()),
            Point::new(0.0, 0.0),
        );
        ctx.snr.snr_at_1m_db = 55.0;
        let id = svc.join(ctx, ChronosConfig::ideal());
        svc.session_mut(id).sweep_cfg.medium.loss_prob = 0.0;
    }
    assert_eq!(svc.config().localization, LocalizationMode::Position);
    let mut last = None;
    for e in 0..4 {
        last = Some(svc.run_epoch(500 + e));
    }
    let report = last.unwrap();
    for o in &report.outcomes {
        let err = o.pos_error_m.expect("raw fix per client");
        assert!(err < 1.0, "client {} error {err}", o.client);
        assert!(o.tracked_pos.is_some());
        assert!(o.pos_antennas.unwrap_or(0) >= 2);
    }
    assert!(report.pos_rmse_m().unwrap() < 1.0);
    assert!(report.median_pos_error_m().unwrap() < 1.0);
}
