//! Ablation tests for the estimator's design choices (the stages of
//! `docs/ARCHITECTURE.md`, "Data Flow: CSI to ToF"): each test verifies
//! that a documented design decision actually earns its keep.

use chronos_suite::core::config::ChronosConfig;
use chronos_suite::core::phase::{interpolate_h0, Interpolation};
use chronos_suite::core::tof::{genie_product, TofEstimate, TofEstimator};
use chronos_suite::core::{ChronosError, SweepPipeline};
use chronos_suite::rf::bands::band_plan_5ghz;
use chronos_suite::rf::csi::MeasurementContext;
use chronos_suite::rf::environment::Environment;
use chronos_suite::rf::geometry::Point;
use chronos_suite::rf::hardware::{ideal_device, AntennaArray};
use chronos_suite::rf::ofdm::SubcarrierLayout;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One estimate from genie products on a fresh pipeline.
fn estimate(
    est: &TofEstimator,
    products: &[chronos_suite::core::reciprocity::BandProduct],
) -> Result<TofEstimate, ChronosError> {
    SweepPipeline::new().estimate_from_products(est, products)
}

/// Paper §5: cubic spline vs. linear interpolation at the
/// zero-subcarrier. With a *curved* phase profile (multipath), the spline
/// must be at least as accurate on average.
#[test]
fn ablation_spline_vs_linear_under_multipath() {
    let mut rng = StdRng::seed_from_u64(42);
    let mut env = Environment::free_space();
    env.add_room(
        0.0,
        0.0,
        12.0,
        12.0,
        chronos_suite::rf::environment::Material::Concrete,
    );
    let mut ctx = MeasurementContext::new(
        env,
        ideal_device(AntennaArray::single()),
        Point::new(2.0, 5.0),
        ideal_device(AntennaArray::single()),
        Point::new(9.0, 6.0),
    );
    ctx.snr.snr_at_1m_db = 40.0;
    let layout = SubcarrierLayout::intel5300();
    let paths = ctx.paths_between(0, 0);

    let mut err_spline = 0.0;
    let mut err_linear = 0.0;
    let mut n = 0;
    for band in band_plan_5ghz().iter().take(12) {
        let truth = paths.channel_at(band.center_hz);
        for k in 0..4 {
            let cap = ctx
                .measure_pair(&mut rng, band, &layout, 0, 0, k as f64 * 1e-3)
                .forward;
            let s = interpolate_h0(&cap, Interpolation::CubicSpline, false).unwrap();
            let l = interpolate_h0(&cap, Interpolation::Linear, false).unwrap();
            err_spline += chronos_suite::math::unwrap::angular_distance(s.arg(), truth.arg());
            err_linear += chronos_suite::math::unwrap::angular_distance(l.arg(), truth.arg());
            n += 1;
        }
    }
    let (es, el) = (err_spline / n as f64, err_linear / n as f64);
    // Honest ablation finding: at 30 subcarriers the two interpolants are
    // within a factor of ~1.5 of each other (linear can even win slightly
    // when noise dominates curvature). The paper's spline choice is
    // faithful, not performance-critical. Both must be accurate in
    // absolute terms.
    assert!(es < 0.08, "spline error {es} rad");
    assert!(el < 0.08, "linear error {el} rad");
    assert!(
        es <= el * 1.6 && el <= es * 1.6,
        "spline {es} vs linear {el}"
    );
}

/// Paper §6.2: the sparsity weight trades resolution against noise
/// rejection; at reasonable settings the estimate stays sub-ns, and an
/// absurdly large alpha degrades or kills it.
#[test]
fn ablation_alpha_sweep_on_genie_products() {
    let paths = [(12.0, 1.0), (17.0, 0.6)];
    let products: Vec<_> = band_plan_5ghz()
        .iter()
        .map(|b| genie_product(b.center_hz, &paths, 2.0))
        .collect();
    for alpha in [0.05, 0.12, 0.25] {
        let mut cfg = ChronosConfig::ideal();
        cfg.alpha_rel = alpha;
        let est = TofEstimator::new(cfg);
        let r = estimate(&est, &products).unwrap();
        assert!(
            (r.tof_ns - 12.0).abs() < 0.3,
            "alpha {alpha}: tof {}",
            r.tof_ns
        );
    }
    // alpha = 0.95 zeroes nearly everything on the first step: the
    // estimate either fails outright or degrades — it must not panic.
    let mut cfg = ChronosConfig::ideal();
    cfg.alpha_rel = 0.95;
    let est = TofEstimator::new(cfg);
    let _ = estimate(&est, &products);
}

/// Paper §6: matched-filter refinement beats raw grid quantization.
/// With a coarse 1 ns grid the estimate must still land within ~0.1 ns of
/// an off-grid truth.
#[test]
fn ablation_refinement_beats_grid_step() {
    let tau = 13.37; // deliberately off any 1 ns grid point (x2 = 26.74)
    let products: Vec<_> = band_plan_5ghz()
        .iter()
        .map(|b| genie_product(b.center_hz, &[(tau, 1.0)], 2.0))
        .collect();
    let mut cfg = ChronosConfig::ideal();
    cfg.grid_step_ns = 1.0;
    let est = TofEstimator::new(cfg);
    let r = estimate(&est, &products).unwrap();
    // Grid quantization alone would allow up to 0.25 ns of ToF error
    // (half a 1 ns profile bin, descaled); refinement must do much better.
    assert!(
        (r.tof_ns - tau).abs() < 0.2,
        "refined {} vs truth {tau} at 1 ns grid",
        r.tof_ns
    );
}

/// Averaging over more packet exchanges per band reduces
/// the spread of the band product's phase (paper §7 obs. 1).
#[test]
fn ablation_packets_per_band_averaging() {
    use chronos_suite::core::config::QuirkMode;
    use chronos_suite::core::reciprocity::combine_band;

    let mut ctx = MeasurementContext::new(
        Environment::free_space(),
        ideal_device(AntennaArray::single()),
        Point::new(0.0, 0.0),
        ideal_device(AntennaArray::single()),
        Point::new(5.0, 0.0),
    );
    ctx.snr.snr_at_1m_db = 25.0; // noisy on purpose
    let band = chronos_suite::rf::bands::band_by_channel(60).unwrap();
    let layout = SubcarrierLayout::intel5300();
    let truth_phase = {
        let h = ctx.paths_between(0, 0).channel_at(band.center_hz);
        (h * h).arg()
    };
    let spread = |n_exchanges: usize, seed: u64| -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut errs = Vec::new();
        for _ in 0..40 {
            let ms: Vec<_> = (0..n_exchanges)
                .map(|k| ctx.measure_pair(&mut rng, &band, &layout, 0, 0, k as f64 * 1e-3))
                .collect();
            let bp = combine_band(&ms, Interpolation::CubicSpline, QuirkMode::Ideal).unwrap();
            errs.push(chronos_suite::math::unwrap::angular_distance(
                bp.value.arg(),
                truth_phase,
            ));
        }
        chronos_suite::math::stats::mean(&errs)
    };
    let one = spread(1, 7);
    let four = spread(4, 8);
    assert!(
        four < one,
        "averaging 4 exchanges ({four}) should beat 1 ({one})"
    );
}

/// The 2.4 GHz quirk handling (paper §11): an estimator in ideal mode
/// on quirk-free data and one in Intel mode on quirked data must agree.
#[test]
fn ablation_quirk_mode_consistency() {
    let tau = 9.2;
    let paths = [(tau, 1.0)];
    // Ideal: all 35 bands at scale 2.
    let ideal_products: Vec<_> = chronos_suite::rf::bands::band_plan()
        .iter()
        .map(|b| genie_product(b.center_hz, &paths, 2.0))
        .collect();
    let r_ideal = estimate(&TofEstimator::new(ChronosConfig::ideal()), &ideal_products).unwrap();
    // Intel: 5 GHz at scale 2 + 2.4 GHz at scale 8.
    let mut intel_products: Vec<_> = band_plan_5ghz()
        .iter()
        .map(|b| genie_product(b.center_hz, &paths, 2.0))
        .collect();
    for b in chronos_suite::rf::bands::band_plan_24ghz() {
        intel_products.push(genie_product(b.center_hz, &paths, 8.0));
    }
    let r_intel = estimate(
        &TofEstimator::new(ChronosConfig::default()),
        &intel_products,
    )
    .unwrap();
    // The two modes agree to a fraction of a nanosecond; the ideal mode
    // carries a slightly larger refinement bias from the 2.4/5 GHz fringe
    // structure of its single 35-band inversion.
    assert!(
        (r_ideal.tof_ns - r_intel.tof_ns).abs() < 0.25,
        "ideal {} vs intel {}",
        r_ideal.tof_ns,
        r_intel.tof_ns
    );
    assert!(r_intel.cross_check_ok);
}

/// Wider antenna separation helps localization (paper §10) — the geometric
/// ablation, isolated from RF noise by feeding identical range errors.
#[test]
fn ablation_antenna_separation_geometry() {
    use chronos_suite::core::localization::{locate, AntennaRange, LocalizerConfig};
    let tx = Point::new(2.0, 6.0);
    let noise = [0.06, -0.05, 0.055];
    let err_for = |array: AntennaArray| -> f64 {
        let ranges: Vec<AntennaRange> = array
            .positions()
            .iter()
            .enumerate()
            .map(|(i, a)| AntennaRange {
                antenna: *a,
                distance_m: a.dist(tx) + noise[i],
            })
            .collect();
        locate(&ranges, &LocalizerConfig::default())
            .unwrap()
            .point
            .dist(tx)
    };
    let small = err_for(AntennaArray::laptop());
    let large = err_for(AntennaArray::access_point());
    assert!(large < small, "ap {large} should beat laptop {small}");
}
