//! Ablation-style integration tests for the adaptive sweep scheduler and
//! the online distance tracker: TRACK-mode subset sweeps must stay within
//! a bounded factor of the full-sweep baseline, track breaks must force
//! re-acquisition, and the arbiter's airtime accounting must charge each
//! variable-length sweep exactly once.

use chronos_suite::core::config::ChronosConfig;
use chronos_suite::core::engine::ServiceEngine;
use chronos_suite::core::service::ServiceConfig;
use chronos_suite::core::tracker::{TrackMode, TrackerConfig};
use chronos_suite::link::arbiter::{ArbiterConfig, MediumArbiter};
use chronos_suite::link::sweep::SweepConfig;
use chronos_suite::link::time::{Duration, Instant};
use chronos_suite::rf::csi::MeasurementContext;
use chronos_suite::rf::environment::Environment;
use chronos_suite::rf::geometry::Point;
use chronos_suite::rf::hardware::{ideal_device, AntennaArray};

fn ideal_ctx(d: f64) -> MeasurementContext {
    let mut ctx = MeasurementContext::new(
        Environment::free_space(),
        ideal_device(AntennaArray::single()),
        Point::new(0.0, 0.0),
        ideal_device(AntennaArray::laptop()),
        Point::new(d, 0.0),
    );
    ctx.snr.snr_at_1m_db = 60.0;
    ctx
}

fn service(adaptive: bool, distances: &[f64]) -> ServiceEngine {
    let cfg = if adaptive {
        ServiceConfig::adaptive(TrackerConfig::default())
    } else {
        ServiceConfig::default()
    };
    let mut svc = ServiceEngine::new(cfg);
    for &d in distances {
        let id = svc.join(ideal_ctx(d), ChronosConfig::ideal());
        svc.session_mut(id).sweep_cfg.medium.loss_prob = 0.0;
    }
    svc
}

/// Static clients: adaptive TRACK-mode error stays within 2x of the
/// full-sweep baseline while throughput at least doubles.
#[test]
fn adaptive_static_error_bounded_and_throughput_doubles() {
    let distances = [2.0, 3.5, 5.0, 6.5];
    let epochs = 10;

    let mut full = service(false, &distances);
    let mut full_errs = Vec::new();
    let mut full_tp = Vec::new();
    for e in 0..epochs {
        let r = full.run_epoch(900 + e);
        full_errs.extend(r.outcomes.iter().filter_map(|o| o.error_m));
        full_tp.push(r.sweeps_per_sec());
    }
    let full_mae = full_errs.iter().sum::<f64>() / full_errs.len() as f64;
    let full_rate = full_tp.iter().sum::<f64>() / full_tp.len() as f64;

    let mut adaptive = service(true, &distances);
    let mut track_errs = Vec::new();
    let mut track_tp = Vec::new();
    for e in 0..epochs {
        let r = adaptive.run_epoch(900 + e);
        let occ = r.mode_occupancy();
        if occ.acquire == 0 && occ.track == distances.len() {
            track_errs.extend(r.outcomes.iter().filter_map(|o| o.error_m));
            track_tp.push(r.sweeps_per_sec());
            assert!(
                r.airtime_saved() > 0.5,
                "airtime saved {}",
                r.airtime_saved()
            );
        }
    }
    assert!(
        track_tp.len() >= epochs as usize - 3,
        "too few steady epochs"
    );
    let track_mae = track_errs.iter().sum::<f64>() / track_errs.len() as f64;
    let track_rate = track_tp.iter().sum::<f64>() / track_tp.len() as f64;

    assert!(
        track_mae <= 2.0 * full_mae + 1e-3,
        "TRACK MAE {track_mae} vs full {full_mae}"
    );
    assert!(
        track_rate >= 2.0 * full_rate,
        "adaptive {track_rate} sweeps/s vs full {full_rate}"
    );
}

/// A walking client: the tracker's fused output follows the motion and
/// the scheduler stays in TRACK (no spurious re-acquisitions).
#[test]
fn adaptive_moving_client_stays_tracked() {
    let mut svc = service(true, &[4.0]);
    let mut prev_span = None;
    let mut worst_tracked_err: f64 = 0.0;
    let mut track_epochs = 0;
    for e in 0..14u64 {
        // 1.2 m/s away from the locator, in simulated time.
        if let Some(span_s) = prev_span {
            let x = svc.session(0).ctx.initiator_pos.x - 1.2 * (span_s + 0.005);
            svc.session_mut(0).ctx.initiator_pos = Point::new(x, 0.0);
        }
        let r = svc.run_epoch(3100 + e);
        prev_span = Some(r.span().as_secs_f64());
        let o = &r.outcomes[0];
        if o.mode == TrackMode::Track {
            track_epochs += 1;
            if let Some(err) = o.tracked_error_m {
                worst_tracked_err = worst_tracked_err.max(err);
            }
        }
    }
    assert!(track_epochs >= 10, "only {track_epochs} TRACK epochs");
    assert!(
        worst_tracked_err < 0.5,
        "worst tracked error {worst_tracked_err}"
    );
    let v = svc.tracker(0).unwrap().filter().velocity().unwrap();
    assert!((v - 1.2).abs() < 0.4, "velocity estimate {v}");
}

/// A teleporting client trips the innovation gate: the service drops it
/// back to ACQUIRE (full sweeps), then re-promotes at the new location.
#[test]
fn teleport_forces_reacquire_then_repromotes() {
    let mut svc = service(true, &[8.0]);
    for e in 0..4 {
        svc.run_epoch(4200 + e);
    }
    assert_eq!(svc.tracker(0).unwrap().mode(), TrackMode::Track);

    // Teleport: the mobile endpoint jumps 5 m closer between epochs.
    svc.session_mut(0).ctx.initiator_pos = Point::new(5.0, 0.0);
    let r = svc.run_epoch(4300);
    let o = &r.outcomes[0];
    assert_eq!(o.mode, TrackMode::Track, "the jump lands on a TRACK epoch");
    assert!(
        o.innovation_sigmas.expect("fix fused or gated") > TrackerConfig::default().gate_sigma,
        "teleport must exceed the gate: {:?}",
        o.innovation_sigmas
    );
    assert_eq!(
        svc.tracker(0).unwrap().mode(),
        TrackMode::Acquire,
        "gate must demote"
    );

    // Full-sweep re-acquisition at the new spot, then back to TRACK.
    let mut modes = Vec::new();
    for e in 0..3 {
        let r = svc.run_epoch(4400 + e);
        modes.push(r.outcomes[0].mode);
    }
    assert_eq!(modes[0], TrackMode::Acquire);
    assert_eq!(
        svc.tracker(0).unwrap().mode(),
        TrackMode::Track,
        "re-promotion after streak"
    );
    let tracked = svc
        .tracker(0)
        .unwrap()
        .filter()
        .predicted_distance()
        .unwrap();
    assert!(
        (tracked - 3.0).abs() < 0.3,
        "re-converged at {tracked}, truth 3.0"
    );
}

/// Variable-length subset plans must be charged their own airtime,
/// exactly once: projections come from the plan's expected duration and
/// completion replaces (never duplicates) the window.
#[test]
fn subset_plans_never_double_count_airtime() {
    // Arbiter-level: mixed-length windows sum exactly.
    let mut arb = MediumArbiter::new(ArbiterConfig::default());
    let full = SweepConfig::standard().expected_duration();
    let mut sub_cfg = SweepConfig::standard();
    sub_cfg.plan.truncate(12);
    let sub = sub_cfg.expected_duration();
    let a = arb.admit(Instant::ZERO, full);
    let b = arb.admit(Instant::ZERO, sub);
    assert_eq!(arb.total_tracked_airtime(), full + sub);
    arb.complete(a.token, a.start + full);
    arb.complete(b.token, b.start + sub);
    arb.complete(b.token, b.start + sub); // idempotent
    assert_eq!(arb.total_tracked_airtime(), full + sub);

    // Service-level: in adaptive steady state the epoch span shrinks to
    // subset scale — impossible if subset sweeps were still charged (or
    // double-charged) full-sweep windows.
    let mut svc = service(true, &[3.0]);
    let mut last = None;
    for e in 0..6 {
        last = Some(svc.run_epoch(5500 + e));
    }
    let r = last.unwrap();
    assert_eq!(r.mode_occupancy().track, 1);
    let span = r.span();
    assert!(
        span < Duration::from_millis(45),
        "steady-state span {span} should be subset-sized (full sweep is ~84 ms)"
    );
    assert!(
        span > Duration::from_millis(15),
        "span {span} suspiciously small"
    );
}

/// The adaptive service remains deterministic: same seeds, same mode
/// transitions, same fused outputs.
#[test]
fn adaptive_service_is_deterministic() {
    let run = || {
        let mut svc = service(true, &[2.5, 6.0]);
        let mut fingerprint = Vec::new();
        for e in 0..6 {
            let r = svc.run_epoch(777 + e);
            for o in &r.outcomes {
                fingerprint.push((
                    o.client,
                    o.mode,
                    o.bands_planned,
                    o.distance_m.map(f64::to_bits),
                    o.tracked_m.map(f64::to_bits),
                ));
            }
        }
        fingerprint
    };
    assert_eq!(run(), run());
}
