//! Carrier-frequency-offset elimination via channel reciprocity (paper §7).
//!
//! A CSI measured at the receiver rotates with the CFO as `e^{+j w t}`;
//! the CSI the transmitter measures for the receiver's ACK rotates with the
//! *opposite* sign, `e^{-j w t}`. Their product therefore cancels the
//! rotation and yields `kappa * h^2` — the squared channel up to a
//! device constant. The pipeline feeds these squared channels to the
//! inverse NDFT; the first profile peak then falls at **twice** the
//! time-of-flight.
//!
//! Residual error: forward and reverse captures are separated by one
//! protocol turnaround (tens of microseconds), leaving a small phase
//! residue `w * dt`. Averaging the product across the exchanges of one
//! band suppresses its jitter (the constant part is removed by the
//! one-time calibration, §7 observation 2).

use crate::config::QuirkMode;
use crate::error::ChronosError;
use crate::phase::{interpolate_h0_into, Interpolation, SpliceScratch};
use chronos_math::spline::SplinePlan;
use chronos_math::Complex64;
use chronos_rf::csi::Measurement;

/// The combined, CFO-free measurement of one band: the complex value the
/// NDFT consumes, plus how many exchanges were averaged.
#[derive(Debug, Clone, Copy)]
pub struct BandProduct {
    /// Center frequency of the band, Hz.
    pub freq_hz: f64,
    /// Averaged forward x reverse zero-subcarrier product. For quirked
    /// 2.4 GHz bands this is the *fourth power* of the per-exchange product
    /// (see [`crate::quirk`]), making its phase quirk-free.
    pub value: Complex64,
    /// Number of exchanges averaged.
    pub exchanges: usize,
    /// Delay scale of this value relative to the true time-of-flight:
    /// 2 for plain products (h^2), 8 for quirked fourth powers (h^8).
    pub delay_scale: f64,
}

/// Combines the forward/reverse exchanges of one band into a [`BandProduct`].
///
/// `measurements` must all belong to the same band and antenna pair. In
/// [`QuirkMode::Intel5300`], 2.4 GHz products are raised to the fourth
/// power *before* averaging (each exchange carries an independent
/// multiple-of-pi/2 offset which the fourth power collapses; averaging
/// first would mix incompatible offsets).
pub fn combine_band(
    measurements: &[Measurement],
    interpolation: Interpolation,
    mode: QuirkMode,
) -> Result<BandProduct, ChronosError> {
    combine_band_into(
        measurements,
        interpolation,
        mode,
        None,
        &mut SpliceScratch::default(),
    )
}

/// [`combine_band`] with an optional shared spline factorization for the
/// zero-subcarrier interpolation (see
/// [`crate::phase::interpolate_h0_planned`]), splicing on reused buffers.
/// Identical results; the plan only skips redundant per-capture
/// refactorization, and the scratch the per-capture allocation.
pub(crate) fn combine_band_into(
    measurements: &[Measurement],
    interpolation: Interpolation,
    mode: QuirkMode,
    spline_plan: Option<&SplinePlan>,
    splice: &mut SpliceScratch,
) -> Result<BandProduct, ChronosError> {
    let first = measurements
        .first()
        .ok_or(ChronosError::TooFewBands { got: 0, need: 1 })?;
    let band = first.forward.band;
    let quirked = mode == QuirkMode::Intel5300 && band.group.is_2g4();

    let mut acc = Complex64::ZERO;
    let mut n = 0usize;
    for m in measurements {
        debug_assert_eq!(m.forward.band.channel, band.channel, "mixed bands");
        let h_f = interpolate_h0_into(&m.forward, interpolation, quirked, spline_plan, splice)?;
        let h_r = interpolate_h0_into(&m.reverse, interpolation, quirked, spline_plan, splice)?;
        let p = h_f * h_r;
        let contribution = if quirked { p.powi(4) } else { p };
        acc += contribution;
        n += 1;
    }
    let value = acc / n as f64;
    Ok(BandProduct {
        freq_hz: band.center_hz,
        value,
        exchanges: n,
        delay_scale: if quirked { 8.0 } else { 2.0 },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronos_rf::bands::band_by_channel;
    use chronos_rf::csi::MeasurementContext;
    use chronos_rf::environment::Environment;
    use chronos_rf::geometry::Point;
    use chronos_rf::hardware::{ideal_device, AntennaArray, Intel5300};
    use chronos_rf::ofdm::SubcarrierLayout;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::f64::consts::PI;

    fn make_ctx(d: f64, with_cfo: bool) -> MeasurementContext {
        let mut di = ideal_device(AntennaArray::single());
        let mut dr = ideal_device(AntennaArray::single());
        if with_cfo {
            di.oscillator_ppm = 8.0;
            dr.oscillator_ppm = -5.0;
        }
        let mut c = MeasurementContext::new(
            Environment::free_space(),
            di,
            Point::new(0.0, 0.0),
            dr,
            Point::new(d, 0.0),
        );
        c.snr.snr_at_1m_db = 300.0;
        c.turnaround_s = 1e-7;
        c.turnaround_jitter_s = 0.0;
        c
    }

    fn exchanges(ctx: &MeasurementContext, channel: u16, n: usize, seed: u64) -> Vec<Measurement> {
        let mut rng = StdRng::seed_from_u64(seed);
        let band = band_by_channel(channel).unwrap();
        let layout = SubcarrierLayout::intel5300();
        (0..n)
            .map(|i| ctx.measure_pair(&mut rng, &band, &layout, 0, 0, 1.0 + i as f64 * 1e-3))
            .collect()
    }

    #[test]
    fn product_phase_is_twice_channel_phase() {
        // No CFO, ideal devices: product phase = 2 * (-2 pi f tau).
        let d = 1.2;
        let ctx = make_ctx(d, false);
        let ms = exchanges(&ctx, 44, 3, 1);
        let bp = combine_band(&ms, Interpolation::CubicSpline, QuirkMode::Ideal).unwrap();
        let tau_s = chronos_math::constants::m_to_ns(d) * 1e-9;
        let expected = chronos_math::unwrap::wrap_to_pi(-4.0 * PI * bp.freq_hz * tau_s);
        assert!(
            chronos_math::unwrap::angular_distance(bp.value.arg(), expected) < 1e-3,
            "{} vs {expected}",
            bp.value.arg()
        );
        assert_eq!(bp.exchanges, 3);
        assert_eq!(bp.delay_scale, 2.0);
    }

    #[test]
    fn cfo_cancelled_by_product() {
        // With CFO the raw forward phase at t=1s is garbage, but the
        // product still matches the CFO-free product phase.
        let d = 2.5;
        let with = make_ctx(d, true);
        let without = make_ctx(d, false);
        let bp_with = combine_band(
            &exchanges(&with, 64, 3, 2),
            Interpolation::CubicSpline,
            QuirkMode::Ideal,
        )
        .unwrap();
        let bp_without = combine_band(
            &exchanges(&without, 64, 3, 3),
            Interpolation::CubicSpline,
            QuirkMode::Ideal,
        )
        .unwrap();
        // Residual from the tiny turnaround (1e-7 s x ~70 kHz) is small.
        assert!(
            chronos_math::unwrap::angular_distance(bp_with.value.arg(), bp_without.value.arg())
                < 0.1,
            "{} vs {}",
            bp_with.value.arg(),
            bp_without.value.arg()
        );
    }

    #[test]
    fn quirked_band_uses_fourth_power() {
        let d = 1.5;
        let mut rng = StdRng::seed_from_u64(4);
        let mut ctx = make_ctx(d, false);
        ctx.initiator = Intel5300::mobile(&mut rng);
        ctx.responder = Intel5300::mobile(&mut rng);
        // Make the 5300s noise-free and delay-free for exactness.
        for dev in [&mut ctx.initiator, &mut ctx.responder] {
            dev.detection_delay.median_ns = 0.0;
            dev.detection_delay.std_ns = 0.0;
            dev.oscillator_ppm = 0.0;
            dev.hw_delay_ns = 0.0;
            dev.kappa = Complex64::ONE;
        }
        let ms = exchanges(&ctx, 6, 2, 5);
        let bp = combine_band(&ms, Interpolation::CubicSpline, QuirkMode::Intel5300).unwrap();
        assert_eq!(bp.delay_scale, 8.0);
        // Phase should match -2 pi f (8 tau) mod 2 pi.
        let tau_s = chronos_math::constants::m_to_ns(d) * 1e-9;
        let expected = chronos_math::unwrap::wrap_to_pi(-2.0 * PI * bp.freq_hz * 8.0 * tau_s);
        assert!(
            chronos_math::unwrap::angular_distance(bp.value.arg(), expected) < 2e-2,
            "{} vs {expected}",
            bp.value.arg()
        );
    }

    #[test]
    fn ideal_mode_keeps_24ghz_at_scale_two() {
        let ctx = make_ctx(2.0, false);
        let ms = exchanges(&ctx, 6, 2, 6);
        let bp = combine_band(&ms, Interpolation::CubicSpline, QuirkMode::Ideal).unwrap();
        assert_eq!(bp.delay_scale, 2.0);
    }

    #[test]
    fn averaging_reduces_noise() {
        let mut ctx = make_ctx(3.0, true);
        ctx.snr.snr_at_1m_db = 30.0;
        let spread = |n: usize, seed: u64| {
            let mut phases = Vec::new();
            for trial in 0..30 {
                let ms = exchanges(&ctx, 52, n, seed + trial);
                let bp = combine_band(&ms, Interpolation::CubicSpline, QuirkMode::Ideal).unwrap();
                phases.push(bp.value.arg());
            }
            chronos_math::stats::std_dev(&phases)
        };
        let one = spread(1, 100);
        let five = spread(5, 200);
        assert!(
            five < one,
            "averaging did not help: 1 -> {one}, 5 -> {five}"
        );
    }

    #[test]
    fn empty_input_rejected() {
        assert!(matches!(
            combine_band(&[], Interpolation::CubicSpline, QuirkMode::Ideal),
            Err(ChronosError::TooFewBands { .. })
        ));
    }

    #[test]
    fn kappa_affects_phase_constantly_across_bands() {
        // Device kappas rotate the product by the same constant on every
        // band — verified here so the "constant phase is harmless to the
        // profile magnitude" argument holds.
        let d = 2.0;
        let mut ctx = make_ctx(d, false);
        ctx.initiator.kappa = Complex64::from_polar(1.0, 0.7);
        ctx.responder.kappa = Complex64::from_polar(1.0, -0.2);
        let clean = make_ctx(d, false);
        let mut diffs = Vec::new();
        for ch in [36u16, 64, 100, 140, 165] {
            let a = combine_band(
                &exchanges(&ctx, ch, 2, 7),
                Interpolation::CubicSpline,
                QuirkMode::Ideal,
            )
            .unwrap();
            let b = combine_band(
                &exchanges(&clean, ch, 2, 8),
                Interpolation::CubicSpline,
                QuirkMode::Ideal,
            )
            .unwrap();
            diffs.push(chronos_math::unwrap::wrap_to_pi(
                a.value.arg() - b.value.arg(),
            ));
        }
        let first = diffs[0];
        for d in &diffs {
            assert!(
                chronos_math::unwrap::angular_distance(*d, first) < 2e-2,
                "kappa phase varies across bands: {diffs:?}"
            );
        }
        // And it equals the sum of the two kappa phases.
        assert!(
            chronos_math::unwrap::angular_distance(first, 0.5) < 2e-2,
            "{first}"
        );
    }
}
