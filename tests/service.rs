//! Integration tests for the multi-client ranging service and the shared
//! `PlanCache`: accuracy must survive scale-out, and sharing a cache must
//! be a pure performance optimization (identical outputs).

use chronos_suite::core::config::ChronosConfig;
use chronos_suite::core::engine::ServiceEngine;
use chronos_suite::core::plan::PlanCache;
use chronos_suite::core::service::ServiceConfig;
use chronos_suite::core::session::ChronosSession;
use chronos_suite::core::tof::{genie_product, TofEstimator};
use chronos_suite::core::SweepPipeline;
use chronos_suite::link::time::Instant;
use chronos_suite::rf::bands::band_plan_5ghz;
use chronos_suite::rf::csi::MeasurementContext;
use chronos_suite::rf::environment::Environment;
use chronos_suite::rf::geometry::Point;
use chronos_suite::rf::hardware::{ideal_device, AntennaArray, Intel5300};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

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

/// N clients served concurrently must range as accurately as the same
/// client alone in a quiet medium: contention costs airtime (staggered
/// starts, retransmissions), never accuracy.
#[test]
fn n_client_throughput_matches_single_session_accuracy() {
    // Baselines: each geometry swept by a lone session on its private
    // plan cache.
    let distances = [2.0, 3.5, 5.0, 6.5, 8.0];
    let mut baseline_errs = Vec::new();
    for (i, d) in distances.iter().enumerate() {
        let mut s = ChronosSession::new(ideal_ctx(*d), ChronosConfig::ideal());
        s.sweep_cfg.medium.loss_prob = 0.0;
        let mut rng = StdRng::seed_from_u64(500 + i as u64);
        let est = s
            .sweep(&mut rng, Instant::ZERO)
            .mean_distance_m()
            .expect("baseline");
        baseline_errs.push((est - d).abs());
    }

    // The same geometries as concurrent service clients.
    let mut svc = ServiceEngine::new(ServiceConfig::default());
    for d in distances {
        let id = svc.join(ideal_ctx(d), ChronosConfig::ideal());
        svc.session_mut(id).sweep_cfg.medium.loss_prob = 0.0;
    }
    let report = svc.run_epoch(321);

    assert_eq!(
        report.completed(),
        distances.len(),
        "all clients must estimate"
    );
    for (o, baseline) in report.outcomes.iter().zip(baseline_errs.iter()) {
        let err = o.error_m.expect("service estimate");
        // Service error stays in the same regime as the lone-session
        // error (both are limited by the estimator, not the service).
        assert!(
            err < baseline + 0.1,
            "client {} error {err:.3} m vs baseline {baseline:.3} m",
            o.client
        );
        assert!(err < 0.15, "client {} absolute error {err:.3} m", o.client);
    }

    // Throughput accounting is sane: simulated airtime covers the epoch
    // and at least the single-sweep rate is sustained.
    assert!(
        report.sweeps_per_sec() >= 10.0,
        "{}",
        report.sweeps_per_sec()
    );
    assert!(report.utilization > 0.5);
}

/// An estimator on its private cache (which builds each plan fresh) and
/// one on a shared cache must produce identical results from identical
/// inputs — sharing a PlanCache is a cost optimization, not an
/// approximation. (Acceptance bound: 1e-9; the implementation reuses the
/// exact same arithmetic, so the difference is exactly zero.)
#[test]
fn plan_cache_estimates_are_equivalent() {
    let freqs = band_plan_5ghz();
    let paths = [(9.4, 1.0), (14.1, 0.7), (22.0, 0.4)];
    let products: Vec<_> = freqs
        .iter()
        .map(|b| genie_product(b.center_hz, &paths, 2.0))
        .collect();

    let private = TofEstimator::new(ChronosConfig::ideal());
    let cache = Arc::new(PlanCache::new());
    let cached = TofEstimator::with_cache(ChronosConfig::ideal(), Arc::clone(&cache));

    let a = SweepPipeline::new()
        .estimate_from_products(&private, &products)
        .expect("private-cache estimate");
    // Run the shared-cache estimator twice: the second call exercises
    // the cache-hit path.
    let b1 = SweepPipeline::new()
        .estimate_from_products(&cached, &products)
        .expect("cached estimate");
    let b2 = SweepPipeline::new()
        .estimate_from_products(&cached, &products)
        .expect("cached estimate (hit)");

    for b in [&b1, &b2] {
        assert!(
            (a.tof_ns - b.tof_ns).abs() <= 1e-9,
            "tof mismatch: {} vs {}",
            a.tof_ns,
            b.tof_ns
        );
        assert!((a.distance_m - b.distance_m).abs() <= 1e-9);
        assert_eq!(a.groups.len(), b.groups.len());
        for (ga, gb) in a.groups.iter().zip(b.groups.iter()) {
            assert!((ga.raw_tof_ns - gb.raw_tof_ns).abs() <= 1e-9);
            for (ma, mb) in ga
                .profile
                .magnitudes
                .iter()
                .zip(gb.profile.magnitudes.iter())
            {
                assert!((ma - mb).abs() <= 1e-9, "profile magnitude diverged");
            }
        }
    }
    let stats = cache.stats();
    assert!(
        stats.hits >= 1,
        "second estimate must hit the cache: {stats:?}"
    );
}

/// End-to-end session equivalence: a session on a shared cache must
/// reproduce a session on its private cache bit-for-bit given the same
/// RNG stream.
#[test]
fn cached_session_sweep_is_bitwise_identical() {
    let cache = Arc::new(PlanCache::new());
    let make = |shared: bool| {
        let mut rng = StdRng::seed_from_u64(4242);
        let ctx = MeasurementContext::new(
            Environment::free_space(),
            Intel5300::mobile(&mut rng),
            Point::new(0.0, 0.0),
            Intel5300::laptop(&mut rng),
            Point::new(5.5, 0.0),
        );
        if shared {
            ChronosSession::with_cache(ctx, ChronosConfig::default(), Arc::clone(&cache))
        } else {
            ChronosSession::new(ctx, ChronosConfig::default())
        }
    };
    let mut rng_a = StdRng::seed_from_u64(77);
    let mut rng_b = StdRng::seed_from_u64(77);
    let out_private = make(false).sweep(&mut rng_a, Instant::ZERO);
    let out_shared = make(true).sweep(&mut rng_b, Instant::ZERO);

    assert_eq!(out_private.tofs.len(), out_shared.tofs.len());
    for (a, b) in out_private.tofs.iter().zip(out_shared.tofs.iter()) {
        match (a, b) {
            (Ok(ta), Ok(tb)) => {
                assert_eq!(ta.tof_ns.to_bits(), tb.tof_ns.to_bits());
                assert_eq!(ta.distance_m.to_bits(), tb.distance_m.to_bits());
            }
            (Err(ea), Err(eb)) => assert_eq!(format!("{ea}"), format!("{eb}")),
            other => panic!("private/shared cache disagreement: {other:?}"),
        }
    }
}

/// Continuous windows go through the same shared-plan hot path as epoch
/// rounds: accuracy per sweep stays in the lone-session regime and the
/// plan cache stays warm across windows (no plans are ever rebuilt).
#[test]
fn continuous_windows_reuse_plans_and_preserve_accuracy() {
    use chronos_suite::link::time::Duration;
    let mut svc = ServiceEngine::new(ServiceConfig::default());
    for d in [3.0, 5.5] {
        let id = svc.join(ideal_ctx(d), ChronosConfig::ideal());
        svc.session_mut(id).sweep_cfg.medium.loss_prob = 0.0;
    }
    let first = svc.run_until(51, svc.clock() + Duration::from_millis(250));
    assert!(first.completed() >= 4, "only {} sweeps", first.completed());
    let second = svc.run_until(51, svc.clock() + Duration::from_millis(250));
    assert_eq!(
        second.cache.misses, first.cache.misses,
        "cache went cold across windows"
    );
    // Every sweep looks its plans up in the shared cache: after warm-up
    // each lookup hits, no plan is rebuilt (misses frozen above), and
    // exactly one plan is resident per (bands, grid) — one NDFT plan and
    // one spline plan here.
    assert!(second.cache.hits > first.cache.hits);
    assert_eq!(second.cache.ndft_entries, 1);
    assert_eq!(second.cache.spline_entries, 1);
    for o in first.outcomes.iter().chain(second.outcomes.iter()) {
        let err = o.error_m.expect("estimate");
        assert!(
            err < 0.15,
            "client {} sweep {} error {err}",
            o.client,
            o.sweep
        );
    }
}

/// The service's per-epoch results are reproducible and improve in cache
/// hit rate as epochs accumulate.
#[test]
fn service_epochs_reuse_plans_across_rounds() {
    let mut svc = ServiceEngine::new(ServiceConfig::default());
    for d in [2.5, 4.0, 6.0] {
        let id = svc.join(ideal_ctx(d), ChronosConfig::ideal());
        svc.session_mut(id).sweep_cfg.medium.loss_prob = 0.0;
    }
    let first = svc.run_epoch(9);
    let misses_after_first = first.cache.misses;
    let second = svc.run_epoch(10);
    // Warm cache: no new plans are ever built after round one, and
    // every lookup of round two hits; the reuse contract is frozen
    // misses plus a single resident plan per (bands, grid).
    assert_eq!(second.cache.misses, misses_after_first, "cache went cold");
    assert!(second.cache.hits > first.cache.hits);
    assert_eq!(second.cache.ndft_entries, 1);
    assert_eq!(second.cache.spline_entries, 1);
    assert_eq!(second.completed(), 3);
}
