//! Receiver noise: SNR-versus-distance model and complex AWGN on CSI.
//!
//! The paper's Fig. 8(a) attributes the growth of ranging error with
//! distance to "reduced signal-to-noise ratio at further distances"; this
//! module provides that coupling. SNR follows a log-distance model anchored
//! at a reference SNR at 1 m, and CSI samples receive circular complex
//! Gaussian noise with variance set by the per-sample SNR.

use chronos_math::Complex64;
use rand::Rng;

/// Log-distance SNR model.
#[derive(Debug, Clone, Copy)]
pub struct SnrModel {
    /// SNR at the 1 m reference distance, in dB.
    pub snr_at_1m_db: f64,
    /// Path-loss exponent (2.0 = free space; indoor offices run 2.5–3.5).
    pub path_loss_exp: f64,
    /// Hard floor on reported SNR, dB (receiver sensitivity).
    pub floor_db: f64,
}

impl Default for SnrModel {
    fn default() -> Self {
        // Calibrated so links at 15 m retain enough SNR for CSI, matching
        // the paper's ability to range up to 15 m with ~25 cm error.
        SnrModel {
            snr_at_1m_db: 38.0,
            path_loss_exp: 2.4,
            floor_db: -5.0,
        }
    }
}

impl SnrModel {
    /// SNR in dB at `distance_m`.
    pub fn snr_db(&self, distance_m: f64) -> f64 {
        let d = distance_m.max(0.1);
        (self.snr_at_1m_db - 10.0 * self.path_loss_exp * d.log10()).max(self.floor_db)
    }

    /// Linear SNR at `distance_m`.
    pub fn snr_linear(&self, distance_m: f64) -> f64 {
        10f64.powf(self.snr_db(distance_m) / 10.0)
    }

    /// Noise standard deviation (per complex dimension) for a signal of RMS
    /// `signal_rms` at `distance_m`.
    ///
    /// Noise power = signal power / SNR, split evenly across the real and
    /// imaginary components.
    pub fn noise_sigma(&self, signal_rms: f64, distance_m: f64) -> f64 {
        let snr = self.snr_linear(distance_m);
        (signal_rms * signal_rms / snr / 2.0).sqrt()
    }

    /// Absolute receiver noise floor (per-component sigma), anchored so a
    /// unit-amplitude signal at 1 m sees exactly `snr_at_1m_db`.
    ///
    /// The CSI synthesizer uses this form: signal power already falls off
    /// with distance through the path amplitudes (1/d and wall losses), so
    /// the *effective* SNR of an obstructed link correctly drops below the
    /// pure log-distance prediction.
    pub fn floor_sigma(&self) -> f64 {
        sigma_for_snr_db(self.snr_at_1m_db)
    }
}

/// Per-component noise sigma at which a unit-amplitude signal sees exactly
/// `snr_db`: noise power `1/SNR`, split across the two components. Used by
/// the receiver noise floor and by jamming attackers that force an
/// effective SNR on targeted bands.
pub fn sigma_for_snr_db(snr_db: f64) -> f64 {
    let snr = 10f64.powf(snr_db / 10.0);
    (1.0 / snr / 2.0).sqrt()
}

/// Box–Muller's polar pair from two uniforms, drawn in this order: the
/// radius `sqrt(−2 ln u1)` and the angle `2π u2` of two independent
/// standard normals `r cos θ` and `r sin θ` (avoids a dependency on
/// `rand_distr`).
fn box_muller<R: Rng + ?Sized>(rng: &mut R) -> (f64, f64) {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    ((-2.0 * u1.ln()).sqrt(), 2.0 * std::f64::consts::PI * u2)
}

/// Draws one sample of circular complex Gaussian noise with per-component
/// standard deviation `sigma`; draws nothing for `sigma <= 0`.
pub fn complex_gaussian<R: Rng + ?Sized>(rng: &mut R, sigma: f64) -> Complex64 {
    if sigma <= 0.0 {
        return Complex64::ZERO;
    }
    let (r, theta) = box_muller(rng);
    Complex64::new(sigma * r * theta.cos(), sigma * r * theta.sin())
}

/// Draws one real Gaussian sample with standard deviation `sigma`: the
/// real part of [`complex_gaussian`] from the same two uniforms, bit for
/// bit, without the sine of its imaginary part. Leaves `rng` where
/// `complex_gaussian` would, and draws nothing for `sigma <= 0`.
pub fn gaussian<R: Rng + ?Sized>(rng: &mut R, sigma: f64) -> f64 {
    if sigma <= 0.0 {
        return 0.0;
    }
    let (r, theta) = box_muller(rng);
    sigma * r * theta.cos()
}

/// Adds i.i.d. complex Gaussian noise to each element of `signal`.
pub fn add_noise<R: Rng + ?Sized>(rng: &mut R, signal: &mut [Complex64], sigma: f64) {
    for s in signal.iter_mut() {
        *s += complex_gaussian(rng, sigma);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn snr_monotone_decreasing_with_distance() {
        let m = SnrModel::default();
        let mut prev = f64::INFINITY;
        for d in [0.5, 1.0, 2.0, 5.0, 10.0, 15.0, 30.0] {
            let s = m.snr_db(d);
            assert!(s <= prev, "snr not monotone at {d}");
            prev = s;
        }
    }

    #[test]
    fn snr_at_reference_distance() {
        let m = SnrModel::default();
        assert!((m.snr_db(1.0) - m.snr_at_1m_db).abs() < 1e-12);
    }

    #[test]
    fn snr_floor_applies() {
        let m = SnrModel {
            snr_at_1m_db: 10.0,
            path_loss_exp: 3.0,
            floor_db: -5.0,
        };
        assert!((m.snr_db(1e6) + 5.0).abs() < 1e-12);
    }

    #[test]
    fn ten_x_distance_costs_exponent_times_ten_db() {
        let m = SnrModel {
            snr_at_1m_db: 30.0,
            path_loss_exp: 2.0,
            floor_db: -100.0,
        };
        assert!((m.snr_db(1.0) - m.snr_db(10.0) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn sigma_for_snr_matches_floor_sigma() {
        let m = SnrModel::default();
        assert!((sigma_for_snr_db(m.snr_at_1m_db) - m.floor_sigma()).abs() < 1e-15);
        // 0 dB: noise power 1 split over two components.
        assert!((sigma_for_snr_db(0.0) - (0.5f64).sqrt()).abs() < 1e-12);
        // Lower SNR -> more noise.
        assert!(sigma_for_snr_db(-5.0) > sigma_for_snr_db(5.0));
    }

    #[test]
    fn noise_sigma_scales_inverse_sqrt_snr() {
        let m = SnrModel::default();
        let s1 = m.noise_sigma(1.0, 1.0);
        let s2 = m.noise_sigma(1.0, 10.0);
        assert!(s2 > s1);
        // Doubling signal RMS doubles sigma.
        assert!((m.noise_sigma(2.0, 5.0) / m.noise_sigma(1.0, 5.0) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let sigma = 0.3;
        let n = 20_000;
        let mut sum = Complex64::ZERO;
        let mut sum_sq = 0.0;
        for _ in 0..n {
            let z = complex_gaussian(&mut rng, sigma);
            sum += z;
            sum_sq += z.norm_sq();
        }
        let mean = sum / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        // E|z|^2 = 2 sigma^2.
        let var = sum_sq / n as f64;
        assert!((var - 2.0 * sigma * sigma).abs() < 0.01, "var {var}");
    }

    #[test]
    fn zero_sigma_is_noiseless() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(complex_gaussian(&mut rng, 0.0), Complex64::ZERO);
        let mut v = vec![Complex64::ONE; 4];
        add_noise(&mut rng, &mut v, 0.0);
        assert!(v.iter().all(|z| *z == Complex64::ONE));
    }

    #[test]
    fn gaussian_is_the_real_part_of_complex_gaussian_bitwise() {
        for sigma in [1.0, 0.3, 2.5e-9, 0.0, -0.0, -1.0] {
            let mut real = StdRng::seed_from_u64(11);
            let mut complex = StdRng::seed_from_u64(11);
            for _ in 0..1000 {
                assert_eq!(
                    gaussian(&mut real, sigma).to_bits(),
                    complex_gaussian(&mut complex, sigma).re.to_bits(),
                    "sigma {sigma}"
                );
                assert_eq!(real, complex, "sigma {sigma}: the RNG states part");
            }
        }
    }

    #[test]
    fn add_noise_perturbs_all_samples() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut v = vec![Complex64::ONE; 64];
        add_noise(&mut rng, &mut v, 0.1);
        assert!(v.iter().all(|z| *z != Complex64::ONE));
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(complex_gaussian(&mut a, 1.0), complex_gaussian(&mut b, 1.0));
        }
    }
}
