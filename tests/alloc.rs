//! Allocation-budget tests for the sweep pipeline: the zero-alloc
//! contract of `docs/PIPELINE.md`, enforced with a counting global
//! allocator, plus two bitwise pins: a dirty solver scratch against a
//! fresh one (off-raster and raster plans), and the pipeline's two
//! estimation calls against each other. One budget outside the
//! pipeline rides along: the arbiter's utilization query.
//!
//! The contract under test: once a [`SweepPipeline`]'s scratch arena is
//! warm, the estimation path — products → NDFT/ISTA → profile →
//! first-path selection → CLEAN refinement → fusion, and per-antenna
//! localization — performs **zero heap allocations** for steady-state
//! TRACK subset sweeps, and stays allocation-free (after its own
//! warm-up) for full-plan ACQUIRE sweeps too.

use chronos_bench::alloc_count::{thread_allocations, CountingAlloc};
use chronos_suite::core::config::ChronosConfig;
use chronos_suite::core::ista::{
    debias_into, solve_planned_into, DebiasScratch, IstaConfig, IstaScratch,
};
use chronos_suite::core::localization::{AntennaRange, LocalizerConfig, Position};
use chronos_suite::core::ndft::TauGrid;
use chronos_suite::core::plan::{NdftPlan, PlanCache};
use chronos_suite::core::reciprocity::BandProduct;
use chronos_suite::core::tof::{genie_product, TofEstimator};
use chronos_suite::core::SweepPipeline;
use chronos_suite::math::constants::m_to_ns;
use chronos_suite::math::Complex64;
use chronos_suite::rf::bands::{band_plan, band_plan_5ghz};
use chronos_suite::rf::geometry::Point;
use chronos_suite::rf::hardware::AntennaArray;
use chronos_suite::rf::subset::select_subset;
use proptest::prelude::*;
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

fn track_products(client: usize) -> Vec<BandProduct> {
    let subset = select_subset(&band_plan_5ghz(), 12, 100.0);
    let tau = m_to_ns(2.0 + 0.75 * client as f64);
    subset
        .iter()
        .map(|b| genie_product(b.center_hz, &[(tau, 1.0), (tau + 5.0, 0.4)], 2.0))
        .collect()
}

fn acquire_products(client: usize) -> Vec<BandProduct> {
    // The full Intel-style plan: 5 GHz squared channels at scale 2 plus
    // the quirked 2.4 GHz group at scale 8 — two delay-scale groups, so
    // the ACQUIRE path exercises grouping, both inversions and the
    // cross-check.
    let tau = m_to_ns(2.0 + 0.75 * client as f64);
    band_plan()
        .iter()
        .map(|b| {
            let scale = if b.group.is_2g4() { 8.0 } else { 2.0 };
            genie_product(b.center_hz, &[(tau, 1.0), (tau + 5.0, 0.4)], scale)
        })
        .collect()
}

/// Steady-state TRACK estimation must perform zero heap allocations once
/// the pipeline's scratch arena is warm.
#[test]
fn steady_state_track_estimation_is_allocation_free() {
    let estimator = TofEstimator::with_cache(ChronosConfig::ideal(), Arc::new(PlanCache::new()));
    let products: Vec<Vec<BandProduct>> = (0..8).map(track_products).collect();
    let mut pipeline = SweepPipeline::new();
    // Warm-up: grow every buffer and build the plans.
    for _ in 0..2 {
        for ps in &products {
            pipeline.estimate_fix(&estimator, ps).expect("warmup fix");
        }
    }
    let before = thread_allocations();
    let mut distance = 0.0;
    for _ in 0..5 {
        for ps in &products {
            let fix = pipeline.estimate_fix(&estimator, ps).expect("fix");
            distance += fix.distance_m;
        }
    }
    let allocs = thread_allocations() - before;
    assert_eq!(
        allocs, 0,
        "steady-state TRACK estimation allocated {allocs} times over 40 sweeps"
    );
    assert!(distance > 0.0);
}

/// ACQUIRE (full-plan, two delay-scale groups) sweeps must be bounded:
/// after their own warm-up they are allocation-free as well — the arena
/// simply grows once to the full-plan size.
#[test]
fn acquire_estimation_is_allocation_free_after_warmup() {
    let estimator = TofEstimator::with_cache(ChronosConfig::default(), Arc::new(PlanCache::new()));
    let products: Vec<Vec<BandProduct>> = (0..4).map(acquire_products).collect();
    let mut pipeline = SweepPipeline::new();
    for _ in 0..2 {
        for ps in &products {
            pipeline.estimate_fix(&estimator, ps).expect("warmup fix");
        }
    }
    let before = thread_allocations();
    for _ in 0..3 {
        for ps in &products {
            pipeline.estimate_fix(&estimator, ps).expect("fix");
        }
    }
    let allocs = thread_allocations() - before;
    assert_eq!(
        allocs, 0,
        "warm ACQUIRE estimation allocated {allocs} times over 12 sweeps"
    );
}

/// One warm pipeline alternating between plans of different shape stays
/// allocation-free. The 12-band TRACK subset and the full ACQUIRE plan's
/// 2.4 GHz group factor their adjoints with different numbers of
/// polyphase partial sums (`C P`). Those planes live in the solver
/// scratch, reserved to the grid length, so a scratch warmed on the
/// smaller shape serves the larger one without growing. So does the
/// tile screen's per-tile state, whose size depends only on the grid.
#[test]
fn alternating_subset_and_full_plans_stay_allocation_free() {
    let estimator = TofEstimator::with_cache(ChronosConfig::default(), Arc::new(PlanCache::new()));
    let track: Vec<Vec<BandProduct>> = (0..4).map(track_products).collect();
    let acquire: Vec<Vec<BandProduct>> = (0..4).map(acquire_products).collect();

    // Solver level: the subset's group, then the 2.4 GHz group.
    let grid = TauGrid::span(200.0, 0.25);
    let group = |products: &[BandProduct], scale: f64| {
        let (freqs, h): (Vec<f64>, Vec<Complex64>) = products
            .iter()
            .filter(|p| p.delay_scale == scale)
            .map(|p| (p.freq_hz, p.value))
            .unzip();
        (NdftPlan::new(&freqs, grid, 200.0), h)
    };
    let (subset_plan, subset_h) = group(&track[0], 2.0);
    let (coarse_plan, coarse_h) = group(&acquire[0], 8.0);
    let partial_sums = |plan: &NdftPlan| {
        let (d, c) = plan.ndft.polyphase_shape().expect("on the 200 ns raster");
        c * grid.len / d
    };
    assert!(partial_sums(&subset_plan) < partial_sums(&coarse_plan));
    let cfg = IstaConfig::default();
    let mut scratch = IstaScratch::new();
    solve_planned_into(&subset_plan, &subset_h, &cfg, &mut scratch);
    let before = thread_allocations();
    let stats = solve_planned_into(&coarse_plan, &coarse_h, &cfg, &mut scratch);
    let allocs = thread_allocations() - before;
    assert_eq!(
        allocs, 0,
        "a subset-warmed solver scratch grew {allocs} times"
    );
    // The measured solve screened its gradient tiles.
    assert!(stats.tiles_evaluated < stats.iterations * coarse_plan.ndft.n_tiles());

    // Pipeline level: alternate whole estimates.
    let mut pipeline = SweepPipeline::new();
    let alternate = |pipeline: &mut SweepPipeline| {
        for (t, a) in track.iter().zip(acquire.iter()) {
            pipeline.estimate_fix(&estimator, t).expect("subset fix");
            pipeline.estimate_fix(&estimator, a).expect("full-plan fix");
        }
    };
    for _ in 0..2 {
        alternate(&mut pipeline);
    }
    let before = thread_allocations();
    for _ in 0..3 {
        alternate(&mut pipeline);
    }
    let allocs = thread_allocations() - before;
    assert_eq!(
        allocs, 0,
        "alternating subset/full-plan estimation allocated {allocs} times over 24 sweeps"
    );
}

/// The debias refit ranks only the profile's nonzero bins, in a buffer
/// reserved to the grid length. After a warm-up on a sparse profile, a
/// refit of a profile that is nonzero on every bin allocates nothing:
/// both choose the same number of atoms, so the least-squares system
/// keeps its shape, and the ranking buffer does not grow.
#[test]
fn full_support_refit_after_sparse_warm_up_is_allocation_free() {
    let freqs: Vec<f64> = band_plan_5ghz().iter().map(|b| b.center_hz).collect();
    let plan = NdftPlan::new(&freqs, TauGrid::span(200.0, 0.25), 0.0);
    let m = plan.ndft.n_taus();
    let h: Vec<Complex64> = freqs
        .iter()
        .map(|f| Complex64::cis(-2.0 * std::f64::consts::PI * f * 21e-9))
        .collect();
    let mut sparse = vec![Complex64::ZERO; m];
    for (j, k) in [40, 90, 130, 200, 260, 333, 410, 505].iter().enumerate() {
        sparse[*k] = Complex64::from_polar(1.0 - 0.1 * j as f64, j as f64);
    }
    let full: Vec<Complex64> = (0..m)
        .map(|k| Complex64::from_polar(1.0 + 0.5 * (0.11 * k as f64).cos(), k as f64))
        .collect();
    let (mut ws, mut out) = (DebiasScratch::default(), Vec::new());
    debias_into(&plan.ndft, &h, &sparse, 6, 3, &mut ws, &mut out);
    let before = thread_allocations();
    debias_into(&plan.ndft, &h, &full, 6, 3, &mut ws, &mut out);
    let allocs = thread_allocations() - before;
    assert_eq!(allocs, 0, "a full-support refit allocated {allocs} times");
    assert_eq!(out.iter().filter(|w| **w != Complex64::ZERO).count(), 6);
}

/// The pipeline's two estimation calls run one body. On one warm
/// pipeline, interleaved over TRACK subsets and full ACQUIRE plans (and
/// alternating which call goes first), the allocation-free fix must
/// agree bit for bit with the full estimate that engine and session
/// sweeps use, and its group counters must describe that estimate's
/// groups.
#[test]
fn estimate_fix_matches_estimate_from_products_bitwise() {
    let estimator = TofEstimator::with_cache(ChronosConfig::default(), Arc::new(PlanCache::new()));
    let track: Vec<Vec<BandProduct>> = (0..4).map(track_products).collect();
    let acquire: Vec<Vec<BandProduct>> = (0..4).map(acquire_products).collect();
    let mut pipeline = SweepPipeline::new();
    let mut cross_checked = 0;
    for round in 0..2 {
        for products in track.iter().zip(acquire.iter()).flat_map(|(t, a)| [t, a]) {
            let (fix, est) = if round == 0 {
                let fix = pipeline.estimate_fix(&estimator, products).expect("fix");
                let est = pipeline
                    .estimate_from_products(&estimator, products)
                    .expect("estimate");
                (fix, est)
            } else {
                let est = pipeline
                    .estimate_from_products(&estimator, products)
                    .expect("estimate");
                let fix = pipeline.estimate_fix(&estimator, products).expect("fix");
                (fix, est)
            };
            assert_eq!(fix.tof_ns.to_bits(), est.tof_ns.to_bits());
            assert_eq!(fix.distance_m.to_bits(), est.distance_m.to_bits());
            assert_eq!(fix.cross_check_ok, est.cross_check_ok);
            assert_eq!(fix.n_groups, est.groups.len());
            assert_eq!(fix.primary_bands, est.groups[0].n_bands);
            cross_checked += (fix.n_groups > 1) as usize;
        }
    }
    // Every ACQUIRE sweep inverts both delay-scale groups.
    assert_eq!(cross_checked, 2 * acquire.len());
}

/// A warm pipeline's localization (the Gauss–Newton circle fit) is
/// allocation-free into a reused candidate buffer.
#[test]
fn localization_is_allocation_free_with_warm_scratch() {
    let array = AntennaArray::access_point();
    let tx = Point::new(1.5, 3.0);
    let ranges: Vec<AntennaRange> = array
        .positions()
        .iter()
        .map(|a| AntennaRange {
            antenna: *a,
            distance_m: a.dist(tx),
        })
        .collect();
    let cfg = LocalizerConfig::default();
    let mut pipeline = SweepPipeline::new();
    let mut out: Vec<Position> = Vec::new();
    for _ in 0..2 {
        pipeline
            .locate_all(&ranges, &cfg, &mut out)
            .expect("warmup");
    }
    let before = thread_allocations();
    for _ in 0..20 {
        pipeline
            .locate_all(&ranges, &cfg, &mut out)
            .expect("locate");
    }
    let allocs = thread_allocations() - before;
    assert_eq!(allocs, 0, "warm localization allocated {allocs} times");
    assert!(out[0].point.dist(tx) < 1e-3);
}

/// `MediumArbiter::utilization` allocates nothing over a fleet shard's
/// windows: blasts booked in start order, split into two sorted runs by
/// a sync beacon booked ahead of the blasts that start before it. The
/// sweep walks a merge of the two runs in place.
#[test]
fn arbiter_utilization_merges_two_sorted_runs_without_allocating() {
    use chronos_suite::link::arbiter::{ArbiterConfig, MediumArbiter};
    use chronos_suite::link::time::{Duration, Instant};

    // 3,700 blasts of 100 µs, one every 200 µs, and after the first
    // 1,850 a 100 µs beacon that fills the gap 2.5 ms later: half the
    // span is busy, plus the beacon.
    let mut arb = MediumArbiter::new(ArbiterConfig::default());
    let (n, period_ns, busy) = (3_700, 200_000, Duration::from_micros(100));
    for i in 0..n {
        if i == n / 2 {
            let beacon_at = i * period_ns + 2_500_000;
            arb.book(Instant::from_nanos(beacon_at), busy);
        }
        arb.book(Instant::from_nanos(i * period_ns), busy);
    }
    let to = Instant::from_nanos(n * period_ns);
    for call in 0..2 {
        let before = thread_allocations();
        let u = arb.utilization(Instant::ZERO, to);
        let allocs = thread_allocations() - before;
        assert_eq!(
            allocs, 0,
            "utilization call {call} allocated {allocs} times"
        );
        assert_eq!(u, ((n + 1) * 100_000) as f64 / (n * period_ns) as f64);
    }
}

/// The engine path built on the pipeline: a steady-state continuous
/// window's allocations per sweep stay bounded. (CSI synthesis, the link
/// simulation and report assembly still allocate — the estimator no
/// longer does; this pins the integration at a coarse level so a
/// per-iteration regression anywhere in the sweep path is caught.)
#[test]
fn engine_window_allocations_per_sweep_bounded() {
    use chronos_suite::core::engine::ServiceEngine;
    use chronos_suite::core::service::ServiceConfig;
    use chronos_suite::core::tracker::TrackerConfig;
    use chronos_suite::link::time::Instant;
    use chronos_suite::rf::csi::MeasurementContext;
    use chronos_suite::rf::environment::Environment;
    use chronos_suite::rf::hardware::ideal_device;

    let mut ctx = MeasurementContext::new(
        Environment::free_space(),
        ideal_device(AntennaArray::single()),
        Point::new(0.0, 0.0),
        ideal_device(AntennaArray::laptop()),
        Point::new(3.0, 0.0),
    );
    ctx.snr.snr_at_1m_db = 60.0;
    let mut svc = ServiceEngine::new(ServiceConfig::adaptive(TrackerConfig::default()));
    let coarse = ChronosConfig {
        max_iters: 120,
        grid_step_ns: 0.5,
        ..ChronosConfig::ideal()
    };
    let id = svc.join(ctx, coarse);
    svc.session_mut(id).sweep_cfg.medium.loss_prob = 0.0;
    // Warm window: promote to TRACK, grow the worker pipeline's arena.
    svc.run_until(3, Instant::from_millis(500));
    let before = thread_allocations();
    let w = svc.run_until(3, Instant::from_millis(1500));
    let allocs = thread_allocations() - before;
    assert!(w.completed() >= 10, "window too quiet: {}", w.completed());
    let per_sweep = allocs as f64 / w.completed() as f64;
    assert!(
        per_sweep < 2000.0,
        "{per_sweep:.0} allocs/sweep — the sweep path regressed badly"
    );
}

/// A warm session sweep allocates only what its link simulation does,
/// plus its returned `SweepOutput`: path enumeration, CSI synthesis into
/// the measurement slots, the splice and the estimation run on the
/// pipeline's reused buffers, and every plan lookup hits the cache
/// without allocating. Measured on the walled office floor, with each
/// sweep replayed after a warm-up pass over the same placements and
/// seeds (buffers sized by the data are warm per client shape), for a
/// session over its private cache and one over a shared cache.
#[test]
fn warm_session_sweep_allocates_only_link_and_output() {
    use chronos_suite::core::session::ChronosSession;
    use chronos_suite::link::sweep::run_sweep;
    use chronos_suite::link::time::Instant;
    use chronos_suite::rf::csi::MeasurementContext;
    use chronos_suite::rf::hardware::Intel5300;
    use chronos_suite::rf::testbed::Testbed;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    // The returned output: the `tofs` vector, per antenna one profiles
    // vector and one magnitude plane per delay-scale group (two in the
    // Intel 5300 mode), and the candidates vector.
    const N_RX: u64 = 3;
    const OUTPUT_ALLOCS: u64 = 1 + N_RX * (1 + 2) + 1;

    let testbed = Testbed::office(1);
    let mut rng = StdRng::seed_from_u64(1);
    let ctx = MeasurementContext::new(
        testbed.environment.clone(),
        Intel5300::mobile(&mut rng),
        Point::new(0.0, 0.0),
        Intel5300::device(&mut rng, AntennaArray::laptop()),
        Point::new(2.0, 0.0),
    );
    let pairs: Vec<_> = testbed.pairs_within(15.0).into_iter().take(12).collect();
    let sessions = [
        (
            "private cache",
            ChronosSession::new(ctx.clone(), ChronosConfig::default()),
        ),
        (
            "shared cache",
            ChronosSession::with_cache(ctx, ChronosConfig::default(), Arc::new(PlanCache::new())),
        ),
    ];
    for (name, mut session) in sessions {
        let mut pipeline = SweepPipeline::new();
        let mut fixes = 0;
        for pass in 0..2 {
            for (i, pair) in pairs.iter().enumerate() {
                session.ctx.initiator_pos = pair.a;
                session.ctx.responder_pos = pair.b;
                let seed = 500 + i as u64;
                let before = thread_allocations();
                let link = run_sweep(
                    &session.sweep_cfg,
                    Instant::ZERO,
                    &mut StdRng::seed_from_u64(seed),
                );
                let link_allocs = thread_allocations() - before;
                drop(link);
                let before = thread_allocations();
                let out = session.sweep_with_pipeline(
                    &session.sweep_cfg,
                    &mut StdRng::seed_from_u64(seed),
                    Instant::ZERO,
                    &mut pipeline,
                );
                let sweep_allocs = thread_allocations() - before;
                if pass == 1 {
                    assert!(
                        sweep_allocs <= link_allocs + OUTPUT_ALLOCS,
                        "{name}, placement {i}: the sweep allocated {sweep_allocs} times, \
                         its link simulation {link_allocs}"
                    );
                    fixes += out.position.is_ok() as usize;
                }
            }
        }
        assert!(fixes > 0, "{name}: no sweep produced a fix");
    }
}

/// Calibration runs its sweeps on one pipeline. `calibrate(n)` against
/// `calibrate(1)` from the same session, RNG state and warm plan cache
/// isolates the allocations of sweeps 2..n: they must be exactly those
/// of the same sweeps replayed on one reused pipeline, and fewer than
/// the same sweeps make on a fresh pipeline each, which regrows the
/// whole scratch arena every time (about twice as many). A reused
/// pipeline still grows a little past the first sweep — its spare
/// capture pool in one reservation on the second, and scratch sized by
/// the data (the debias system, the peak list) when a later sweep
/// needs more — so the budget of link simulation plus output holds
/// only once a pipeline has seen the data, as the warm sweep test above
/// pins.
#[test]
fn calibration_sweeps_share_one_pipeline() {
    use chronos_suite::core::session::ChronosSession;
    use chronos_suite::link::time::Instant;
    use chronos_suite::rf::csi::MeasurementContext;
    use chronos_suite::rf::hardware::Intel5300;
    use chronos_suite::rf::testbed::Testbed;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const SWEEPS: usize = 4;

    let testbed = Testbed::office(1);
    let mut rng = StdRng::seed_from_u64(2);
    let ctx = MeasurementContext::new(
        testbed.environment.clone(),
        Intel5300::mobile(&mut rng),
        Point::new(0.0, 0.0),
        Intel5300::device(&mut rng, AntennaArray::laptop()),
        Point::new(2.0, 0.0),
    );
    let session = ChronosSession::new(ctx, ChronosConfig::default());
    let calibrate_allocs = |n: usize| {
        let mut s = session.clone();
        let before = thread_allocations();
        s.calibrate(&mut StdRng::seed_from_u64(9), n);
        thread_allocations() - before
    };
    // Warm the shared plan cache, so both counts below hit it.
    calibrate_allocs(SWEEPS);
    let later_sweeps = calibrate_allocs(SWEEPS) - calibrate_allocs(1);

    let mut rng = StdRng::seed_from_u64(9);
    let mut pipeline = SweepPipeline::new();
    let (mut reused, mut fresh) = (0, 0);
    for i in 0..SWEEPS {
        let t = Instant::from_millis(200 * i as u64);
        let before = thread_allocations();
        drop(session.sweep_with_pipeline(&session.sweep_cfg, &mut rng.clone(), t, &mut pipeline));
        if i > 0 {
            reused += thread_allocations() - before;
            let before = thread_allocations();
            drop(session.sweep(&mut rng.clone(), t));
            fresh += thread_allocations() - before;
        }
        // Advance the RNG past the sweep.
        session.sweep(&mut rng, t);
    }
    assert_eq!(
        later_sweeps, reused,
        "calibration sweeps 2..{SWEEPS} allocated {later_sweeps} times, \
         the same sweeps on one pipeline {reused}"
    );
    assert!(
        later_sweeps < fresh,
        "calibration sweeps 2..{SWEEPS} allocated {later_sweeps} times, \
         on fresh pipelines {fresh}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `solve_planned_into` on a *reused* (dirty) scratch must equal a
    /// solve on a fresh scratch bit for bit — solution, iteration count,
    /// convergence flag and residual — across random band plans, grids
    /// and channels.
    #[test]
    fn solve_planned_into_dirty_scratch_is_bitwise_fresh(
        n_freqs in 5usize..12,
        span_ns in 20.0f64..60.0,
        step_x2 in 1usize..3,
        tau_list in proptest::collection::vec(1.0f64..18.0, 1..4),
        amp_list in proptest::collection::vec(0.1f64..1.0, 3..4),
        accel_bit in 0usize..2,
    ) {
        let taus: Vec<(f64, f64)> = tau_list
            .iter()
            .zip(amp_list.iter().cycle())
            .map(|(t, a)| (*t, *a))
            .collect();
        let accelerated = accel_bit == 1;
        let freqs: Vec<f64> = (0..n_freqs)
            .map(|i| 5.18e9 + i as f64 * 37.3e6 + (i * i) as f64 * 1.1e6)
            .collect();
        let grid = TauGrid::span(span_ns, 0.5 * step_x2 as f64);
        let plan = NdftPlan::new(&freqs, grid, span_ns);
        let h: Vec<Complex64> = freqs
            .iter()
            .map(|f| {
                let mut acc = Complex64::ZERO;
                for (tau, a) in &taus {
                    acc += Complex64::from_polar(
                        *a,
                        -2.0 * std::f64::consts::PI * f * tau * 1e-9,
                    );
                }
                acc
            })
            .collect();
        let cfg = IstaConfig { accelerated, max_iters: 150, ..IstaConfig::default() };

        let mut fresh = IstaScratch::new();
        let reference = solve_planned_into(&plan, &h, &cfg, &mut fresh);
        let mut scratch = IstaScratch::new();
        // Dirty the scratch with a different problem first: reuse must
        // not leak state.
        let other = TauGrid::span(10.0, 1.0);
        let other_plan = NdftPlan::new(&freqs[..5], other, 10.0);
        solve_planned_into(&other_plan, &h[..5], &cfg, &mut scratch);

        let stats = solve_planned_into(&plan, &h, &cfg, &mut scratch);
        prop_assert_eq!(stats.iterations, reference.iterations);
        prop_assert_eq!(stats.converged, reference.converged);
        prop_assert_eq!(stats.residual.to_bits(), reference.residual.to_bits());
        prop_assert_eq!(scratch.solution().len(), fresh.solution().len());
        for (a, b) in scratch.solution().iter().zip(fresh.solution().iter()) {
            prop_assert_eq!(a.re.to_bits(), b.re.to_bits());
            prop_assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
    }

    /// The same pin on raster plans, whose prox steps build only the
    /// polyphase partial sums their live tiles read and leave the rest
    /// of the buffer as it was: the 24-band 5 GHz group (C = 4,
    /// P = 100), the 12-band TRACK subset (C = 2, P = 200) and the
    /// 11-band 2.4 GHz group (C = 4, P = 200), each on a scratch dirtied
    /// by a solve on another of them.
    #[test]
    fn raster_solve_on_dirty_scratch_is_bitwise_fresh(
        plan_idx in 0usize..3,
        dirty_step in 1usize..3,
        tau_list in proptest::collection::vec(1.0f64..90.0, 1..4),
        amp_list in proptest::collection::vec(0.1f64..1.0, 3..4),
        noise in proptest::collection::vec((-0.05f64..0.05, -0.05f64..0.05), 24..25),
        accel_bit in 0usize..2,
    ) {
        let grid = TauGrid::span(200.0, 0.25);
        let group = |want_2g4: bool| -> Vec<f64> {
            band_plan()
                .iter()
                .filter(|b| b.group.is_2g4() == want_2g4)
                .map(|b| b.center_hz)
                .collect()
        };
        let subset: Vec<f64> = select_subset(&band_plan_5ghz(), 12, 100.0)
            .iter()
            .map(|b| b.center_hz)
            .collect();
        let plans = [group(false), subset, group(true)].map(|freqs| NdftPlan::new(&freqs, grid, 0.0));
        let shape = |plan: &NdftPlan| plan.ndft.polyphase_shape().expect("on the 200 ns raster");
        let channel = |plan: &NdftPlan| -> Vec<Complex64> {
            plan.ndft
                .freqs_hz()
                .iter()
                .zip(noise.iter())
                .map(|(f, (nr, ni))| {
                    let mut acc = Complex64::new(*nr, *ni);
                    for (tau, a) in tau_list.iter().zip(amp_list.iter().cycle()) {
                        acc += Complex64::from_polar(*a, -2.0 * std::f64::consts::PI * f * tau * 1e-9);
                    }
                    acc
                })
                .collect()
        };
        let (plan, other) = (&plans[plan_idx], &plans[(plan_idx + dirty_step) % 3]);
        let ((d, c), (d_other, c_other)) = (shape(plan), shape(other));
        prop_assert!((c, grid.len / d) != (c_other, grid.len / d_other));
        let cfg = IstaConfig { accelerated: accel_bit == 1, ..IstaConfig::default() };
        let h = channel(plan);

        let mut fresh = IstaScratch::new();
        let reference = solve_planned_into(plan, &h, &cfg, &mut fresh);
        let mut scratch = IstaScratch::new();
        solve_planned_into(other, &channel(other), &cfg, &mut scratch);
        let stats = solve_planned_into(plan, &h, &cfg, &mut scratch);
        prop_assert_eq!(stats.iterations, reference.iterations);
        prop_assert_eq!(stats.converged, reference.converged);
        prop_assert_eq!(stats.residual.to_bits(), reference.residual.to_bits());
        prop_assert_eq!(stats.tiles_evaluated, reference.tiles_evaluated);
        prop_assert_eq!(stats.units_built, reference.units_built);
        for (a, b) in scratch.solution().iter().zip(fresh.solution().iter()) {
            prop_assert_eq!(a.re.to_bits(), b.re.to_bits());
            prop_assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
    }
}
