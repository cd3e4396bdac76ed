//! Integration tests for the multi-AP fleet layer: the TDoA path's
//! error must stay bounded against the per-AP round-trip control, the
//! sync-residual → position-error sensitivity must be monotone, fleet
//! windows must replay bit-identically across worker-thread counts,
//! handoff must conserve sweep accounting, and a `sync_disabled`
//! round-trip fleet must be bit-for-bit identical to N independent
//! single-AP engines (the sharding pin).

use chronos_suite::core::config::ChronosConfig;
use chronos_suite::core::engine::ServiceEngine;
use chronos_suite::core::fleet::{
    client_context, shard_seed, FleetConfig, FleetEngine, FleetRangingMode, FleetWindowReport,
};
use chronos_suite::core::service::ClientOutcome;
use chronos_suite::core::tracker::{TrackMode, TrackerConfig};
use chronos_suite::link::time::Duration;
use chronos_suite::rf::environment::Environment;
use chronos_suite::rf::geometry::Point;
use chronos_suite::rf::testbed::ap_grid;

fn quick_chronos() -> ChronosConfig {
    ChronosConfig {
        max_iters: 120,
        grid_step_ns: 0.5,
        ..ChronosConfig::ideal()
    }
}

fn fleet_cfg(mode: FleetRangingMode) -> FleetConfig {
    let mut cfg = FleetConfig::position(TrackerConfig::default(), mode);
    cfg.chronos = quick_chronos();
    cfg
}

/// Walker `i` after `w` windows: a deterministic diagonal drift across
/// the 3×3 grid, staggered per client so handoffs spread over windows.
fn walker(i: usize, w: usize) -> Point {
    let extent = 40.0;
    let x = (3.0 + 6.9 * i as f64 + 3.2 * w as f64).rem_euclid(extent);
    let y = (5.0 + 4.7 * i as f64 + 2.4 * w as f64).rem_euclid(extent);
    Point::new(x, y)
}

fn run_roaming(mode: FleetRangingMode, threads: usize, windows: usize) -> Vec<FleetWindowReport> {
    let mut cfg = fleet_cfg(mode);
    cfg.service.threads = threads;
    let mut fleet = FleetEngine::new(cfg, Environment::free_space(), ap_grid(9, 20.0));
    for i in 0..6 {
        fleet.add_client(walker(i, 0));
    }
    (0..windows)
        .map(|w| {
            for i in 0..6 {
                fleet.set_client_pos(i, walker(i, w));
            }
            fleet.run_window(9, Duration::from_millis(250))
        })
        .collect()
}

/// The fields that make an outcome's identity for bitwise comparison
/// (float bits, not approximate equality).
fn outcome_key(o: &ClientOutcome) -> (usize, u64, u64, u64, u64, u64, bool) {
    (
        o.client,
        o.sweep,
        o.started.as_nanos(),
        o.finished.as_nanos(),
        o.distance_m.unwrap_or(f64::NAN).to_bits(),
        o.pos_error_m.unwrap_or(f64::NAN).to_bits(),
        o.quarantined,
    )
}

#[test]
fn tdoa_error_bounded_against_round_trip_control() {
    let rt = run_roaming(FleetRangingMode::RoundTrip, 1, 2);
    let td = run_roaming(FleetRangingMode::Tdoa, 1, 2);
    let median = |reports: &[FleetWindowReport]| {
        let mut errs: Vec<f64> = reports.iter().flat_map(|r| r.pos_errors_m()).collect();
        assert!(!errs.is_empty(), "mode produced no fixes");
        errs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        errs[errs.len() / 2]
    };
    let (rt_med, td_med) = (median(&rt), median(&td));
    // The acceptance bound: one-way fixes may cost at most 1.5x the
    // round-trip error (in practice they do better — the round-trip
    // path pays cell-edge staleness the blast cadence doesn't).
    assert!(
        td_med <= 1.5 * rt_med,
        "tdoa median {td_med} m vs round-trip {rt_med} m"
    );
    // And the throughput side of the trade: strictly more fixes from
    // the same population.
    let fixes = |rs: &[FleetWindowReport]| rs.iter().map(|r| r.fixes()).sum::<usize>();
    assert!(
        fixes(&td) >= 2 * fixes(&rt),
        "tdoa {} fixes vs round-trip {}",
        fixes(&td),
        fixes(&rt)
    );
}

#[test]
fn sync_residual_to_position_error_curve_is_monotone() {
    let err_at_jitter = |jitter_ns: f64| {
        let mut cfg = fleet_cfg(FleetRangingMode::Tdoa);
        let clock = cfg.clock.as_mut().unwrap();
        clock.jitter_ns = jitter_ns;
        // Keep fixes flowing at every jitter level: this test measures
        // the error curve, not the eligibility gate.
        cfg.tdoa.residual_threshold_ns = 1e9;
        cfg.tdoa.solver.max_residual_m = 1e9;
        let mut fleet = FleetEngine::new(cfg, Environment::free_space(), ap_grid(4, 20.0));
        for i in 0..3 {
            fleet.add_client(Point::new(5.0 + 4.0 * i as f64, 7.0));
        }
        let report = fleet.run_window(5, Duration::from_millis(400));
        let mut errs = report.pos_errors_m();
        assert!(!errs.is_empty(), "no fixes at jitter {jitter_ns} ns");
        errs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        errs[errs.len() / 2]
    };
    let (tight, loose, broken) = (err_at_jitter(0.1), err_at_jitter(2.0), err_at_jitter(20.0));
    assert!(
        tight < loose && loose < broken,
        "sensitivity curve must be monotone: {tight} / {loose} / {broken}"
    );
    // And the physics scale: ~c x jitter once clock error dominates.
    assert!(broken > 1.0, "20 ns of clock residual is meters of error");
}

#[test]
fn fleet_windows_replay_bit_identically_across_thread_counts() {
    for mode in [FleetRangingMode::RoundTrip, FleetRangingMode::Tdoa] {
        let a = run_roaming(mode, 1, 2);
        let b = run_roaming(mode, 4, 2);
        assert_eq!(a.len(), b.len());
        for (ra, rb) in a.iter().zip(&b) {
            assert_eq!(ra.handoffs, rb.handoffs);
            assert_eq!(ra.handoff_gap_sweeps, rb.handoff_gap_sweeps);
            assert_eq!(ra.sync_rounds, rb.sync_rounds);
            for (sa, sb) in ra.shard_reports.iter().zip(&rb.shard_reports) {
                let ka: Vec<_> = sa.outcomes.iter().map(outcome_key).collect();
                let kb: Vec<_> = sb.outcomes.iter().map(outcome_key).collect();
                assert_eq!(ka, kb, "shard outcomes must not depend on threads");
            }
            let ta: Vec<_> = ra
                .tdoa_outcomes
                .iter()
                .map(|o| {
                    (
                        o.client,
                        o.blast,
                        o.at.as_nanos(),
                        o.pos_error_m.unwrap_or(f64::NAN).to_bits(),
                    )
                })
                .collect();
            let tb: Vec<_> = rb
                .tdoa_outcomes
                .iter()
                .map(|o| {
                    (
                        o.client,
                        o.blast,
                        o.at.as_nanos(),
                        o.pos_error_m.unwrap_or(f64::NAN).to_bits(),
                    )
                })
                .collect();
            assert_eq!(ta, tb, "tdoa outcomes must not depend on threads");
        }
    }
}

/// Everything observable about a window except execution metadata —
/// `shard_reports[..].wall` (host wall clock) — with floats as bits. Two
/// runs are "the same" iff these strings match.
fn report_fingerprint(r: &FleetWindowReport) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    write!(
        s,
        "{}|{}|{}|{}|{}|{}",
        r.started.as_nanos(),
        r.ended.as_nanos(),
        r.handoffs,
        r.handoff_gap_sweeps,
        r.sync_rounds,
        r.n_clients
    )
    .unwrap();
    for sr in &r.shard_reports {
        write!(
            s,
            ";u={:x} hits={} misses={} plans={}/{} bp={} bf={} ing={:?}",
            sr.utilization.to_bits(),
            sr.cache.hits,
            sr.cache.misses,
            sr.cache.ndft_entries,
            sr.cache.spline_entries,
            sr.bands_planned,
            sr.bands_full_sweep,
            sr.ingestion
        )
        .unwrap();
        for o in &sr.outcomes {
            write!(s, " {:?}", outcome_key(o)).unwrap();
        }
    }
    let bits = |x: Option<f64>| x.map(f64::to_bits);
    let point_bits = |p: Point| (p.x.to_bits(), p.y.to_bits());
    for o in &r.tdoa_outcomes {
        write!(
            s,
            "!{} {} {} {} {:?} {:?} {:?} {:?} {:?} {:?} {:?} {:x}",
            o.client,
            o.blast,
            o.at.as_nanos(),
            o.n_anchors,
            o.fix.map(point_bits),
            bits(o.residual_m),
            point_bits(o.truth_pos),
            bits(o.pos_error_m),
            o.tracked_pos.map(point_bits),
            bits(o.tracked_pos_error_m),
            o.mode,
            o.anomaly_score.to_bits()
        )
        .unwrap();
    }
    s
}

/// A roaming run with churn landing mid-sequence: a client joins before
/// window 1 while `walkers` walkers keep crossing cell boundaries, so the
/// windows exercise handoffs and population growth under whatever
/// execution strategy `workers` selects. Windows are longer than the
/// 100 ms sync interval, so a TDoA window also solves blasts at
/// mid-window rounds.
fn run_walkers_with_churn(
    mode: FleetRangingMode,
    walkers: usize,
    workers: Option<usize>,
    windows: usize,
) -> (Vec<FleetWindowReport>, usize) {
    let mut cfg = fleet_cfg(mode);
    cfg.service.threads = 4;
    cfg.workers = workers;
    let mut fleet = FleetEngine::new(cfg, Environment::free_space(), ap_grid(9, 20.0));
    for i in 0..walkers {
        fleet.add_client(walker(i, 0));
    }
    let shard_workers = fleet.shard_workers();
    let reports = (0..windows)
        .map(|w| {
            if w == 1 {
                fleet.add_client(Point::new(1.0, 39.0));
            }
            for i in 0..walkers {
                fleet.set_client_pos(i, walker(i, w));
            }
            fleet.run_window(9, Duration::from_millis(250))
        })
        .collect();
    (reports, shard_workers)
}

#[test]
fn fleet_reports_bitwise_identical_across_worker_counts() {
    // Some(0) is the strictly serial fleet: shard windows one after
    // another, each blast solved as it fires. The parallel widths solve
    // a TDoA window's blasts in client-major batches of 32-client items
    // and must put each outcome back in its blast-order slot, every
    // tracker having seen its own blasts in time order; 240 walkers give
    // several items per lane.
    for (mode, walkers) in [
        (FleetRangingMode::RoundTrip, 6),
        (FleetRangingMode::Tdoa, 240),
    ] {
        let (serial, sw) = run_walkers_with_churn(mode, walkers, Some(0), 2);
        assert_eq!(sw, 0, "Some(0) must run the serial fleet");
        assert!(
            serial.iter().map(|r| r.handoffs).sum::<usize>() >= 1,
            "scenario must exercise handoffs mid-sequence"
        );
        assert!(
            serial.iter().all(|r| r.sync_rounds >= 2),
            "windows must span mid-window sync rounds"
        );
        assert_eq!(
            serial.last().unwrap().n_clients,
            walkers + 1,
            "churn client joined"
        );
        let reference: Vec<String> = serial.iter().map(report_fingerprint).collect();
        for workers in [1usize, 2, 8] {
            let (parallel, sw) = run_walkers_with_churn(mode, walkers, Some(workers), 2);
            assert_eq!(sw, workers, "explicit worker count honored");
            let got: Vec<String> = parallel.iter().map(report_fingerprint).collect();
            assert!(
                got == reference,
                "{mode:?} workers={workers} diverged from serial"
            );
        }
        // The default (auto) strategy must also match, whatever width
        // this host picks.
        let (auto, _) = run_walkers_with_churn(mode, walkers, None, 2);
        let got: Vec<String> = auto.iter().map(report_fingerprint).collect();
        assert!(
            got == reference,
            "{mode:?} auto worker count diverged from serial"
        );
    }
    // Some(0) is strictly serial even over a multi-threaded service: no
    // fleet runtime, and no shard ever builds one for its sweeps.
    let mut cfg = fleet_cfg(FleetRangingMode::RoundTrip);
    cfg.service.threads = 4;
    cfg.workers = Some(0);
    let mut fleet = FleetEngine::new(cfg, Environment::free_space(), ap_grid(9, 20.0));
    for i in 0..6 {
        fleet.add_client(walker(i, 0));
    }
    fleet.run_window(9, Duration::from_millis(250));
    assert!(
        fleet.runtime().is_none() && (0..9).all(|ap| fleet.shard(ap).runtime().is_none()),
        "Some(0) must not build a runtime"
    );
}

#[test]
fn handoff_conserves_sweep_accounting() {
    let mut cfg = fleet_cfg(FleetRangingMode::RoundTrip);
    cfg.service.threads = 1;
    let mut fleet = FleetEngine::new(cfg, Environment::free_space(), ap_grid(4, 20.0));
    // One walker that crosses from AP 0's cell into AP 1's.
    let c = fleet.add_client(Point::new(6.0, 5.0));
    let mut reports = Vec::new();
    for w in 0..4 {
        fleet.set_client_pos(c, Point::new(6.0 + 4.0 * w as f64, 5.0));
        reports.push(fleet.run_window(3, Duration::from_millis(250)));
    }
    let total_handoffs: usize = reports.iter().map(|r| r.handoffs).sum();
    assert_eq!(total_handoffs, 1, "walker must cross exactly one boundary");
    assert_eq!(fleet.serving_ap(c), 1);
    // Sweep conservation: within every (shard, slot) owned by the
    // client, ordinals are gapless from 0 — no sweep double-issued or
    // lost across the migration; each shard's stream restarts at 0.
    for ap in 0..4 {
        let mut expected: std::collections::HashMap<usize, u64> = Default::default();
        for r in &reports {
            for o in &r.shard_reports[ap].outcomes {
                if fleet.client_of_slot(ap, o.client) != c {
                    continue;
                }
                let next = expected.entry(o.client).or_insert(0);
                assert_eq!(o.sweep, *next, "ordinal gap at ap {ap} slot {}", o.client);
                *next += 1;
            }
        }
    }
    // Admission conservation across the boundary: the old shard admits
    // nothing after the handoff instant (an already-admitted in-flight
    // sweep may still *finish* after it, like a frame exchange
    // completing mid-handoff) and the new shard admits nothing before
    // it.
    let handoff_window = reports.iter().position(|r| r.handoffs == 1).unwrap();
    let boundary = reports[handoff_window].started;
    for o in reports.iter().flat_map(|r| &r.shard_reports[0].outcomes) {
        assert!(o.started < boundary, "old AP admitted a sweep post-handoff");
    }
    for o in reports.iter().flat_map(|r| &r.shard_reports[1].outcomes) {
        assert!(o.started >= boundary, "new AP admitted a sweep pre-handoff");
    }
    // Gap accounting is exact: the reported handoff-gap total equals a
    // recomputation from the outcome stream — every post-handoff
    // ACQUIRE sweep at the new AP until its first TRACK, nothing else.
    let mut expected_gap = 0;
    let mut awaiting = true;
    for r in &reports[handoff_window..] {
        for o in &r.shard_reports[1].outcomes {
            if !awaiting {
                break;
            }
            if o.mode == TrackMode::Track {
                awaiting = false;
            } else {
                expected_gap += 1;
            }
        }
    }
    assert_eq!(
        reports.iter().map(|r| r.handoff_gap_sweeps).sum::<usize>(),
        expected_gap,
        "handoff-gap accounting must match the outcome stream"
    );
}

#[test]
fn sync_disabled_fleet_is_bitwise_n_independent_engines() {
    // Static clients, no clock sync, round-trip mode: the fleet is
    // plain sharding and must reproduce standalone engines bit for bit
    // (including across window boundaries).
    let mut cfg = fleet_cfg(FleetRangingMode::RoundTrip);
    cfg.clock = None;
    cfg.service.threads = 1;
    let env = Environment::free_space();
    let aps = ap_grid(4, 20.0);
    let positions = [
        Point::new(4.0, 3.0),
        Point::new(24.0, 6.0),
        Point::new(2.0, 26.0),
        Point::new(23.0, 22.0),
        Point::new(7.0, 2.0),
    ];
    let seed = 11;
    let mut fleet = FleetEngine::new(cfg.clone(), env.clone(), aps.clone());
    for &p in &positions {
        fleet.add_client(p);
    }
    let w1 = fleet.run_window(seed, Duration::from_millis(300));
    let w2 = fleet.run_window(seed, Duration::from_millis(300));

    // Controls: one standalone engine per AP, clients joined in the
    // same order with the identical public context builder.
    let mut controls: Vec<ServiceEngine> = (0..aps.len())
        .map(|_| ServiceEngine::new(cfg.service.clone()))
        .collect();
    for &p in &positions {
        let ap = (0..aps.len())
            .min_by(|&a, &b| p.dist(aps[a]).partial_cmp(&p.dist(aps[b])).unwrap())
            .unwrap();
        controls[ap].join(
            client_context(&env, p, aps[ap], cfg.snr_at_1m_db),
            cfg.chronos.clone(),
        );
    }
    for (window, fleet_report) in [w1, w2].iter().enumerate() {
        let deadline = chronos_suite::link::time::Instant::ZERO
            + Duration::from_millis(300 * (window as u64 + 1));
        for (ap, control) in controls.iter_mut().enumerate() {
            let control_report = control.run_until(shard_seed(seed, ap), deadline);
            let shard = &fleet_report.shard_reports[ap];
            assert_eq!(
                shard.utilization.to_bits(),
                control_report.utilization.to_bits()
            );
            let fleet_keys: Vec<_> = shard.outcomes.iter().map(outcome_key).collect();
            let control_keys: Vec<_> = control_report.outcomes.iter().map(outcome_key).collect();
            assert_eq!(fleet_keys, control_keys, "ap {ap} window {window}");
            // Beyond the key fields: full estimate streams match bit
            // for bit.
            for (f, c) in shard.outcomes.iter().zip(&control_report.outcomes) {
                assert_eq!(
                    f.tracked_pos_error_m.unwrap_or(f64::NAN).to_bits(),
                    c.tracked_pos_error_m.unwrap_or(f64::NAN).to_bits()
                );
                assert_eq!(f.mode, c.mode);
                assert_eq!(f.bands_planned, c.bands_planned);
            }
        }
    }
}

#[test]
fn non_finite_client_position_is_a_miss_not_a_panic() {
    for mode in [FleetRangingMode::RoundTrip, FleetRangingMode::Tdoa] {
        let mut fleet =
            FleetEngine::new(fleet_cfg(mode), Environment::free_space(), ap_grid(4, 20.0));
        let lost = fleet.add_client(Point::new(f64::NAN, 5.0));
        let walker = fleet.add_client(Point::new(6.0, 5.0));
        let r1 = fleet.run_window(4, Duration::from_millis(250));
        // The walker fixes while it is finite, then goes non-finite far
        // from its serving AP: it keeps that AP, and nothing hands off.
        assert!(r1.fixes() > 0, "{mode:?}: the finite walker fixes");
        fleet.set_client_pos(walker, Point::new(f64::INFINITY, f64::NAN));
        let r2 = fleet.run_window(4, Duration::from_millis(250));
        assert_eq!(r2.handoffs, 0, "{mode:?}");
        assert_eq!(fleet.serving_ap(walker), 0, "{mode:?}");
        // Every blast fired, and every sweep admitted, at a non-finite
        // position is a miss (a sweep admitted before the move may still
        // finish in this window with the old geometry).
        let non_finite = |client: usize, at| client == lost || at >= r2.started;
        let finite = |p: Option<Point>| p.is_none_or(|p| p.is_finite());
        for r in [&r1, &r2] {
            for o in &r.tdoa_outcomes {
                if non_finite(o.client, o.at) {
                    assert_eq!(o.n_anchors, 0, "{o:?}");
                    assert!(o.fix.is_none(), "{o:?}");
                }
                assert!(
                    finite(o.tracked_pos) && o.anomaly_score.is_finite(),
                    "{o:?}"
                );
            }
            for (ap, sr) in r.shard_reports.iter().enumerate() {
                for o in &sr.outcomes {
                    if non_finite(fleet.client_of_slot(ap, o.client), o.started) {
                        assert!(o.position.is_none() && o.distance_m.is_none(), "{o:?}");
                    }
                    assert!(
                        finite(o.tracked_pos) && o.tracked_m.is_none_or(f64::is_finite),
                        "{o:?}"
                    );
                }
            }
        }
        if mode == FleetRangingMode::Tdoa {
            assert!(!r2.tdoa_outcomes.is_empty(), "blasts still fire");
            assert!(!fleet.tdoa_tracker(lost).filter().is_initialized());
            assert!(finite(
                fleet.tdoa_tracker(walker).filter().predicted_position()
            ));
        } else {
            assert!(!r2.shard_reports[0].outcomes.is_empty(), "sweeps still run");
        }
    }
}

#[test]
fn tdoa_needs_three_anchors() {
    // A 2-AP fleet can never solve a hyperbolic fix (one range
    // difference, two unknowns): blasts fire, outcomes record the
    // attempt, no fixes appear.
    let cfg = fleet_cfg(FleetRangingMode::Tdoa);
    let mut fleet = FleetEngine::new(cfg, Environment::free_space(), ap_grid(2, 20.0));
    fleet.add_client(Point::new(10.0, 0.5));
    let report = fleet.run_window(2, Duration::from_millis(300));
    assert!(!report.tdoa_outcomes.is_empty());
    assert_eq!(report.fixes(), 0);
}
