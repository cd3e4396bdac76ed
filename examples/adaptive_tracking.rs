//! Adaptive band-subset sweeps + online distance tracking.
//!
//! ```sh
//! cargo run --release --example adaptive_tracking
//! ```
//!
//! One access point serves four clients with the adaptive scheduler
//! enabled: every client starts in **ACQUIRE** (full 35-band sweeps)
//! until its constant-velocity tracker converges, then drops to
//! **TRACK** — 12-band low-ambiguity subset sweeps that cost about a
//! third of the airtime. One client walks away at ~1 m/s (the tracker
//! follows), and mid-run one client *teleports* across the room: its
//! innovation gate trips, the service re-ACQUIREs it with full sweeps,
//! and two fixes later it is back in TRACK at the new spot.
//!
//! Watch the `saved` column: steady-state airtime per fix drops by the
//! subset ratio, which is capacity the AP can spend on more clients
//! (see `docs/TRACKING.md` and `cargo run --release -p chronos-bench
//! --bin bench_capacity`).
//!
//! The demo finishes with a window of **continuous** operation
//! (`run_until`, see `docs/SCHEDULING.md`): the epoch barrier is gone,
//! every TRACK client re-sweeps as soon as its subset airtime allows,
//! and the same half second of airtime yields several fixes per client.

use chronos_suite::core::config::ChronosConfig;
use chronos_suite::core::engine::ServiceEngine;
use chronos_suite::core::service::ServiceConfig;
use chronos_suite::core::tracker::{TrackMode, TrackerConfig};
use chronos_suite::link::time::Duration;
use chronos_suite::rf::csi::MeasurementContext;
use chronos_suite::rf::environment::Environment;
use chronos_suite::rf::geometry::Point;
use chronos_suite::rf::hardware::{ideal_device, AntennaArray};

fn client_ctx(d: f64) -> MeasurementContext {
    let mut ctx = MeasurementContext::new(
        Environment::free_space(),
        ideal_device(AntennaArray::single()),
        Point::new(0.0, 0.0),
        ideal_device(AntennaArray::laptop()),
        Point::new(d, 0.0),
    );
    ctx.snr.snr_at_1m_db = 55.0;
    ctx
}

fn main() {
    let mut service = ServiceEngine::new(ServiceConfig::adaptive(TrackerConfig::default()));
    for d in [2.0, 4.0, 6.0, 8.0] {
        let id = service.join(client_ctx(d), ChronosConfig::ideal());
        service.session_mut(id).sweep_cfg.medium.loss_prob = 0.0;
    }

    let walker = 1; // client 1 walks away at 1 m/s (simulated time)
    let jumper = 3; // client 3 teleports at epoch 8
    let mut prev_span_s: Option<f64> = None;
    println!("epoch  mode-occupancy  airtime  saved  sweeps/s  track-rmse");
    for e in 0..14u64 {
        // Advance the walker by 1 m/s x the simulated time since the last
        // epoch start (epoch k+1 starts one airtime span + gap after
        // epoch k); its mobile endpoint backs away from the locator.
        if let Some(span_s) = prev_span_s {
            let dt_s = span_s + 0.005;
            let x = service.session(walker).ctx.initiator_pos.x - 1.0 * dt_s;
            service.session_mut(walker).ctx.initiator_pos = Point::new(x, 0.0);
        }
        if e == 8 {
            service.session_mut(jumper).ctx.initiator_pos = Point::new(5.0, 0.0);
            println!("       -- client {jumper} teleports: 8 m -> 3 m from its locator --");
        }

        let r = service.run_epoch(7000 + e);
        prev_span_s = Some(r.span().as_secs_f64());
        let occ = r.mode_occupancy();
        println!(
            "{:>5}  A:{} T:{}         {:>5.1}ms  {:>4.0}%  {:>7.1}  {:>9}",
            e,
            occ.acquire,
            occ.track,
            r.span().as_millis_f64(),
            100.0 * r.airtime_saved(),
            r.sweeps_per_sec(),
            r.track_rmse_m()
                .map(|x| format!("{x:.3} m"))
                .unwrap_or_else(|| "-".into()),
        );
        for o in &r.outcomes {
            let gate = o
                .innovation_sigmas
                .map(|s| format!("{s:.1}sigma"))
                .unwrap_or_else(|| "-".into());
            if o.client == jumper && (7..=11).contains(&e) {
                println!(
                    "         client {}: {:?} {} bands, fix {:?}, tracked {:?} (truth {:.2}), innovation {}",
                    o.client, o.mode, o.bands_planned, o.distance_m, o.tracked_m, o.truth_m, gate
                );
            }
        }
    }

    // The walker's tracker learned its radial velocity.
    let t = service.tracker(walker).expect("adaptive service");
    println!(
        "walker: tracked {:.2} m (truth {:.2} m), velocity {:+.2} m/s (truth +1.0 m/s)",
        t.filter().predicted_distance().unwrap_or(f64::NAN),
        service.session(walker).truth_distance_m(),
        t.filter().velocity().unwrap_or(f64::NAN),
    );
    let mode = service.tracker(jumper).map(|t| t.mode());
    println!("jumper: back in {mode:?} after re-acquisition");
    assert_eq!(mode, Some(TrackMode::Track));

    // Continuous mode: half a second of event-driven operation. Every
    // client is in TRACK by now, so subset sweeps pack the medium
    // back-to-back — no barrier, no idling.
    let window = service.run_until(9000, service.clock() + Duration::from_millis(500));
    println!(
        "\ncontinuous window ({}): {} sweeps ({:.1}/s, utilization {:.0}%), airtime saved {:.0}%",
        window.span(),
        window.completed(),
        window.sweeps_per_sec(),
        100.0 * window.utilization,
        100.0 * window.airtime_saved(),
    );
    for c in 0..service.n_slots() {
        let n = window.outcomes.iter().filter(|o| o.client == c).count();
        let err = service
            .tracker(c)
            .and_then(|t| t.filter().predicted_distance())
            .map(|d| (d - service.session(c).truth_distance_m()).abs());
        println!(
            "  client {c}: {n} sweeps this window, tracked error {}",
            err.map(|e| format!("{e:.3} m"))
                .unwrap_or_else(|| "-".into()),
        );
    }
    let per_client = window.completed() / service.n_slots();
    assert!(
        per_client >= 3,
        "continuous engine should fit several subset sweeps per client, got {per_client}"
    );
}
