//! Zero-subcarrier channel recovery (paper §5).
//!
//! The measured channel phase at subcarrier `k` of band `i` is
//!
//! ```text
//! angle(h~_{i,k}) = -2 pi f_{i,k} tau  -  2 pi (f_{i,k} - f_{i,0}) delta_i
//! ```
//!
//! The detection-delay term vanishes exactly at `k = 0` — the one
//! subcarrier Wi-Fi never transmits (it collides with the radio's DC
//! offset). Chronos therefore interpolates the measured phase across the
//! populated subcarriers with a cubic spline and reads off the value at
//! subcarrier zero. Magnitude is interpolated the same way.
//!
//! The Intel 5300 complication: at 2.4 GHz the card reports phase modulo
//! pi/2 instead of modulo 2 pi. Ordinary unwrapping breaks on such data,
//! so [`interpolate_h0`] offers a quirk-aware mode that unwraps the phase
//! at 4x scale (where the quirk's jumps become full 2-pi wraps), leaving a
//! *constant* multiple-of-pi/2 offset that downstream code removes with a
//! fourth power (see [`crate::quirk`]).

use crate::error::ChronosError;
use chronos_math::spline::{linear_interp, CubicSpline, SplinePlan, SplineScratch};
use chronos_math::unwrap::unwrap_in_place;
use chronos_math::Complex64;
use chronos_rf::csi::CsiCapture;

/// Interpolation backend for the zero-subcarrier estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interpolation {
    /// Natural cubic spline (the paper's choice, footnote 3).
    CubicSpline,
    /// Piecewise-linear (ablation baseline).
    Linear,
}

/// Estimates the channel at subcarrier 0 of a capture.
///
/// `quirk_aware` must be `true` for captures taken by an Intel 5300 on a
/// 2.4 GHz band; the returned value then carries an unknown constant
/// multiple-of-pi/2 phase offset (magnitude is unaffected).
pub fn interpolate_h0(
    capture: &CsiCapture,
    interpolation: Interpolation,
    quirk_aware: bool,
) -> Result<Complex64, ChronosError> {
    interpolate_h0_planned(capture, interpolation, quirk_aware, None)
}

/// [`interpolate_h0`] with an optional precomputed spline factorization.
///
/// When `plan` is present and was built for exactly this capture's
/// subcarrier abscissae, the per-capture tridiagonal refactorization is
/// skipped; [`SplinePlan::fit`] is bitwise-identical to a fresh
/// [`CubicSpline::fit`], so the result is unchanged. A plan for different
/// knots is ignored (correctness over reuse).
///
/// Allocates its working buffers per call; the estimator splices through
/// the same body on buffers its scratch keeps.
pub fn interpolate_h0_planned(
    capture: &CsiCapture,
    interpolation: Interpolation,
    quirk_aware: bool,
    plan: Option<&SplinePlan>,
) -> Result<Complex64, ChronosError> {
    interpolate_h0_into(
        capture,
        interpolation,
        quirk_aware,
        plan,
        &mut SpliceScratch::default(),
    )
}

/// Working buffers of the zero-subcarrier splice: the subcarrier
/// abscissae, the phase and magnitude tracks, and the fitted spline.
#[derive(Debug, Default)]
pub(crate) struct SpliceScratch {
    xs: Vec<f64>,
    phases: Vec<f64>,
    mags: Vec<f64>,
    spline: CubicSpline,
    fit: SplineScratch,
}

/// [`interpolate_h0_planned`] on reused buffers: no allocation once
/// `scratch` has seen the layout, when `plan` matches it (without a
/// matching plan each spline fit factorizes afresh, as
/// [`CubicSpline::fit`] does). Same arithmetic, same result.
pub(crate) fn interpolate_h0_into(
    capture: &CsiCapture,
    interpolation: Interpolation,
    quirk_aware: bool,
    plan: Option<&SplinePlan>,
    scratch: &mut SpliceScratch,
) -> Result<Complex64, ChronosError> {
    let n = capture.csi.len();
    if n != capture.layout.len() {
        return Err(ChronosError::BadCapture("csi length != layout length"));
    }
    if n < 4 {
        return Err(ChronosError::BadCapture("too few subcarriers"));
    }
    if capture.csi.iter().any(|z| !z.is_finite()) {
        return Err(ChronosError::BadCapture("non-finite CSI values"));
    }

    let SpliceScratch {
        xs,
        phases,
        mags,
        spline,
        fit,
    } = scratch;
    xs.clear();
    xs.extend(capture.layout.indices().iter().map(|k| *k as f64));
    let plan = plan.filter(|p| p.xs() == xs.as_slice());

    // Phase track: unwrap (possibly at 4x scale), then interpolate.
    let scale = if quirk_aware { 4.0 } else { 1.0 };
    phases.clear();
    phases.extend(
        capture
            .csi
            .iter()
            .map(|z| chronos_math::unwrap::wrap_to_pi(z.arg() * scale)),
    );
    unwrap_in_place(phases);
    let phase0 = match interpolation {
        Interpolation::CubicSpline => spline_at_zero(xs, phases, plan, fit, spline)?,
        Interpolation::Linear => linear_interp(xs, phases, 0.0),
    } / scale;

    // Magnitude track.
    mags.clear();
    mags.extend(capture.csi.iter().map(|z| z.abs()));
    let mag0 = match interpolation {
        Interpolation::CubicSpline => spline_at_zero(xs, mags, plan, fit, spline)?,
        Interpolation::Linear => linear_interp(xs, mags, 0.0),
    }
    .max(0.0);

    Ok(Complex64::from_polar(mag0, phase0))
}

/// The natural cubic spline through `(xs, ys)`, fitted into `spline`,
/// at subcarrier zero. `plan`, when given, was built for `xs`.
fn spline_at_zero(
    xs: &[f64],
    ys: &[f64],
    plan: Option<&SplinePlan>,
    fit: &mut SplineScratch,
    spline: &mut CubicSpline,
) -> Result<f64, ChronosError> {
    match plan {
        Some(p) => p.fit_into(ys, fit, spline),
        None => SplinePlan::new(xs).and_then(|p| p.fit_into(ys, fit, spline)),
    }
    .map_err(|_| ChronosError::BadCapture("spline fit failed"))?;
    Ok(spline.eval(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronos_rf::bands::band_by_channel;
    use chronos_rf::csi::MeasurementContext;
    use chronos_rf::environment::Environment;
    use chronos_rf::geometry::Point;
    use chronos_rf::hardware::{ideal_device, AntennaArray};
    use chronos_rf::ofdm::SubcarrierLayout;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::f64::consts::PI;

    fn capture_with(
        distance_m: f64,
        detection_delay_ns: f64,
        channel: u16,
        quirky: bool,
    ) -> CsiCapture {
        let mut rng = StdRng::seed_from_u64(99);
        let mut dev_i = ideal_device(AntennaArray::single());
        let mut dev_r = ideal_device(AntennaArray::single());
        dev_i.detection_delay.median_ns = detection_delay_ns;
        dev_r.detection_delay.median_ns = detection_delay_ns;
        if quirky {
            dev_i.quirk_24ghz = true;
            dev_r.quirk_24ghz = true;
        }
        let mut ctx = MeasurementContext::new(
            Environment::free_space(),
            dev_i,
            Point::new(0.0, 0.0),
            dev_r,
            Point::new(distance_m, 0.0),
        );
        ctx.snr.snr_at_1m_db = 300.0; // noiseless
        let band = band_by_channel(channel).unwrap();
        let layout = SubcarrierLayout::intel5300();
        ctx.measure_pair(&mut rng, &band, &layout, 0, 0, 0.0)
            .forward
    }

    #[test]
    fn h0_phase_matches_center_frequency_channel() {
        // Without detection delay, h0 phase must be -2 pi f0 tau (mod 2pi).
        let d = 3.0;
        let cap = capture_with(d, 0.0, 48, false);
        let h0 = interpolate_h0(&cap, Interpolation::CubicSpline, false).unwrap();
        let tau_s = chronos_math::constants::m_to_ns(d) * 1e-9;
        let expected = chronos_math::unwrap::wrap_to_pi(-2.0 * PI * cap.band.center_hz * tau_s);
        assert!(
            chronos_math::unwrap::angular_distance(h0.arg(), expected) < 1e-4,
            "h0 {} expected {}",
            h0.arg(),
            expected
        );
    }

    #[test]
    fn h0_immune_to_detection_delay() {
        // The whole point of §5: huge detection delay, same h0 phase.
        let d = 5.0;
        let clean = capture_with(d, 0.0, 60, false);
        let delayed = capture_with(d, 250.0, 60, false);
        let h_clean = interpolate_h0(&clean, Interpolation::CubicSpline, false).unwrap();
        let h_delayed = interpolate_h0(&delayed, Interpolation::CubicSpline, false).unwrap();
        assert!(
            chronos_math::unwrap::angular_distance(h_clean.arg(), h_delayed.arg()) < 2e-3,
            "{} vs {}",
            h_clean.arg(),
            h_delayed.arg()
        );
        // Meanwhile a raw edge subcarrier is badly corrupted.
        let edge_clean = clean.csi[0].arg();
        let edge_delayed = delayed.csi[0].arg();
        assert!(chronos_math::unwrap::angular_distance(edge_clean, edge_delayed) > 0.3);
    }

    #[test]
    fn spline_and_linear_agree_on_smooth_phase() {
        let cap = capture_with(4.0, 180.0, 104, false);
        let a = interpolate_h0(&cap, Interpolation::CubicSpline, false).unwrap();
        let b = interpolate_h0(&cap, Interpolation::Linear, false).unwrap();
        assert!(chronos_math::unwrap::angular_distance(a.arg(), b.arg()) < 5e-3);
        assert!((a.abs() - b.abs()).abs() < 0.05 * a.abs().max(1e-12));
    }

    #[test]
    fn quirk_aware_unwrap_recovers_phase_mod_pi_over_2() {
        // 2.4 GHz capture with the quirk: quirk-aware interpolation must
        // produce h0 whose phase matches the true phase modulo pi/2.
        let d = 2.0;
        let cap = capture_with(d, 150.0, 6, true);
        let h0 = interpolate_h0(&cap, Interpolation::CubicSpline, true).unwrap();
        let tau_s = chronos_math::constants::m_to_ns(d) * 1e-9;
        let true_phase = -2.0 * PI * cap.band.center_hz * tau_s;
        // Compare modulo pi/2 by comparing 4x phases modulo 2 pi.
        let a = chronos_math::unwrap::wrap_to_pi(4.0 * h0.arg());
        let b = chronos_math::unwrap::wrap_to_pi(4.0 * true_phase);
        assert!(
            chronos_math::unwrap::angular_distance(a, b) < 5e-3,
            "4x phases: {a} vs {b}"
        );
    }

    #[test]
    fn magnitude_interpolation_positive_and_sane() {
        let cap = capture_with(7.0, 177.0, 149, false);
        let h0 = interpolate_h0(&cap, Interpolation::CubicSpline, false).unwrap();
        let mean_mag = cap.csi.iter().map(|z| z.abs()).sum::<f64>() / cap.csi.len() as f64;
        assert!(h0.abs() > 0.0);
        assert!((h0.abs() - mean_mag).abs() < 0.5 * mean_mag);
    }

    #[test]
    fn planned_interpolation_is_bitwise_identical() {
        let cap = capture_with(4.5, 120.0, 64, false);
        let xs: Vec<f64> = cap.layout.indices().iter().map(|k| *k as f64).collect();
        let plan = SplinePlan::new(&xs).unwrap();
        let direct = interpolate_h0(&cap, Interpolation::CubicSpline, false).unwrap();
        let planned =
            interpolate_h0_planned(&cap, Interpolation::CubicSpline, false, Some(&plan)).unwrap();
        assert_eq!(direct.re.to_bits(), planned.re.to_bits());
        assert_eq!(direct.im.to_bits(), planned.im.to_bits());
        // A plan for the wrong knots is ignored, not misapplied.
        let wrong = SplinePlan::new(&[0.0, 1.0, 2.0, 3.0]).unwrap();
        let guarded =
            interpolate_h0_planned(&cap, Interpolation::CubicSpline, false, Some(&wrong)).unwrap();
        assert_eq!(direct.re.to_bits(), guarded.re.to_bits());
    }

    #[test]
    fn bad_captures_rejected() {
        let mut cap = capture_with(3.0, 0.0, 36, false);
        cap.csi[3] = Complex64::new(f64::NAN, 0.0);
        assert_eq!(
            interpolate_h0(&cap, Interpolation::CubicSpline, false),
            Err(ChronosError::BadCapture("non-finite CSI values"))
        );
        let mut cap2 = capture_with(3.0, 0.0, 36, false);
        cap2.csi.truncate(10);
        assert!(matches!(
            interpolate_h0(&cap2, Interpolation::CubicSpline, false),
            Err(ChronosError::BadCapture(_))
        ));
    }

    #[test]
    fn noise_robustness_via_interpolation() {
        // With realistic noise, h0 phase error should be well under a
        // single-subcarrier phase noise level thanks to the 30-point fit.
        let mut rng = StdRng::seed_from_u64(5);
        let mut ctx = MeasurementContext::new(
            Environment::free_space(),
            ideal_device(AntennaArray::single()),
            Point::new(0.0, 0.0),
            ideal_device(AntennaArray::single()),
            Point::new(2.0, 0.0),
        );
        ctx.snr.snr_at_1m_db = 35.0;
        let band = band_by_channel(40).unwrap();
        let layout = SubcarrierLayout::intel5300();
        let tau_s = chronos_math::constants::m_to_ns(2.0) * 1e-9;
        let expected = -2.0 * PI * band.center_hz * tau_s;
        let mut errs = Vec::new();
        for i in 0..50 {
            let cap = ctx
                .measure_pair(&mut rng, &band, &layout, 0, 0, i as f64 * 1e-3)
                .forward;
            let h0 = interpolate_h0(&cap, Interpolation::CubicSpline, false).unwrap();
            errs.push(chronos_math::unwrap::angular_distance(h0.arg(), expected));
        }
        let mean_err = chronos_math::stats::mean(&errs);
        assert!(mean_err < 0.05, "mean phase error {mean_err}");
    }
}
