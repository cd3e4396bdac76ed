//! Propagation paths and channel synthesis.
//!
//! A [`Path`] is one ray from transmitter to receiver: a propagation delay
//! and a (real, positive) amplitude. A [`PathSet`] is the collection of rays
//! the environment produced. The channel at frequency `f` is the paper's
//! Eq. 7:
//!
//! ```text
//! h(f) = sum_k  a_k * e^{-j 2 pi f tau_k}
//! ```
//!
//! This module is the single place where geometry turns into complex
//! channel values; every simulated CSI sample in the workspace flows
//! through [`PathSet::channel_at`].

use chronos_math::constants::m_to_ns;
use chronos_math::Complex64;

/// One propagation path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Path {
    /// Propagation delay in nanoseconds.
    pub delay_ns: f64,
    /// Amplitude (field attenuation along the path), dimensionless.
    pub amplitude: f64,
}

impl Path {
    /// Creates a path directly from delay and amplitude.
    pub fn new(delay_ns: f64, amplitude: f64) -> Self {
        Path {
            delay_ns,
            amplitude,
        }
    }

    /// Creates a path from a geometric length in meters.
    pub fn from_length(length_m: f64, amplitude: f64) -> Self {
        Path {
            delay_ns: m_to_ns(length_m),
            amplitude,
        }
    }

    /// The path's geometric length in meters.
    pub fn length_m(&self) -> f64 {
        chronos_math::constants::ns_to_m(self.delay_ns)
    }
}

/// An ordered (by delay) collection of propagation paths.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PathSet {
    paths: Vec<Path>,
}

impl PathSet {
    /// Creates a path set; paths are sorted by ascending delay.
    pub fn new(paths: Vec<Path>) -> Self {
        let mut set = PathSet { paths };
        set.sort_by_delay();
        set
    }

    /// The path list, for this crate's in-place rebuilds
    /// ([`crate::environment::Environment::paths_into`]); the rebuild
    /// ends with [`PathSet::sort_by_delay`].
    pub(crate) fn paths_mut(&mut self) -> &mut Vec<Path> {
        &mut self.paths
    }

    /// Restores the ascending-delay order (a stable sort: equal delays
    /// keep their order).
    pub(crate) fn sort_by_delay(&mut self) {
        self.paths
            .sort_by(|a, b| a.delay_ns.partial_cmp(&b.delay_ns).unwrap());
    }

    /// A single-path (pure line-of-sight) set — the §4 idealization.
    pub fn single(delay_ns: f64, amplitude: f64) -> Self {
        PathSet {
            paths: vec![Path::new(delay_ns, amplitude)],
        }
    }

    /// The paths, ascending by delay.
    pub fn paths(&self) -> &[Path] {
        &self.paths
    }

    /// Number of paths.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// Whether the set is empty (a fully-blocked link).
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// Delay of the shortest path — the true time-of-flight the estimator
    /// must recover.
    pub fn true_tof_ns(&self) -> Option<f64> {
        self.paths.first().map(|p| p.delay_ns)
    }

    /// The channel frequency response at `freq_hz` (paper Eq. 7).
    pub fn channel_at(&self, freq_hz: f64) -> Complex64 {
        let mut h = Complex64::ZERO;
        for p in &self.paths {
            let phase = -2.0 * std::f64::consts::PI * freq_hz * (p.delay_ns * 1e-9);
            h += Complex64::from_polar(p.amplitude, phase);
        }
        h
    }

    /// Channel responses at many frequencies.
    pub fn channels_at(&self, freqs_hz: &[f64]) -> Vec<Complex64> {
        freqs_hz.iter().map(|f| self.channel_at(*f)).collect()
    }

    /// Total received power (sum of squared amplitudes) — the incoherent
    /// power used by the SNR model.
    pub fn total_power(&self) -> f64 {
        self.paths.iter().map(|p| p.amplitude * p.amplitude).sum()
    }

    /// Ratio of direct-path power to total power, in `[0, 1]`. Low values
    /// flag links where the direct path is heavily attenuated (NLOS).
    pub fn direct_power_fraction(&self) -> f64 {
        let total = self.total_power();
        if total == 0.0 {
            return 0.0;
        }
        self.paths
            .first()
            .map(|p| p.amplitude * p.amplitude / total)
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn single_path_phase_matches_eq1() {
        // Paper Eq. 1: h = a e^{-j 2 pi f tau}.
        let tau_ns = 2.0;
        let f = 2.412e9;
        let ps = PathSet::single(tau_ns, 0.7);
        let h = ps.channel_at(f);
        assert!((h.abs() - 0.7).abs() < 1e-12);
        let expected_phase = (-2.0 * PI * f * tau_ns * 1e-9).rem_euclid(2.0 * PI);
        assert!((h.arg().rem_euclid(2.0 * PI) - expected_phase).abs() < 1e-9);
    }

    #[test]
    fn phase_slope_across_frequency_encodes_delay() {
        // d(phase)/df = -2 pi tau: check with a small frequency step.
        let tau_ns = 13.7;
        let ps = PathSet::single(tau_ns, 1.0);
        let f0 = 5.5e9;
        let df = 100e3;
        let p0 = ps.channel_at(f0).arg();
        let p1 = ps.channel_at(f0 + df).arg();
        let mut dphi = p1 - p0;
        while dphi > PI {
            dphi -= 2.0 * PI;
        }
        while dphi < -PI {
            dphi += 2.0 * PI;
        }
        let tau_est_ns = -dphi / (2.0 * PI * df) * 1e9;
        assert!((tau_est_ns - tau_ns).abs() < 1e-6);
    }

    #[test]
    fn superposition_of_paths() {
        let a = PathSet::single(5.2, 1.0);
        let b = PathSet::single(10.0, 0.6);
        let both = PathSet::new(vec![Path::new(5.2, 1.0), Path::new(10.0, 0.6)]);
        let f = 5.18e9;
        let h = both.channel_at(f);
        let sum = a.channel_at(f) + b.channel_at(f);
        assert!(h.approx_eq(sum, 1e-12));
    }

    #[test]
    fn sorted_by_delay_and_true_tof() {
        let ps = PathSet::new(vec![
            Path::new(16.0, 0.2),
            Path::new(5.2, 1.0),
            Path::new(10.0, 0.5),
        ]);
        assert_eq!(ps.true_tof_ns(), Some(5.2));
        let d: Vec<f64> = ps.paths().iter().map(|p| p.delay_ns).collect();
        assert_eq!(d, vec![5.2, 10.0, 16.0]);
    }

    #[test]
    fn empty_set_reports_none() {
        let ps = PathSet::new(vec![]);
        assert!(ps.is_empty());
        assert_eq!(ps.true_tof_ns(), None);
        assert_eq!(ps.channel_at(5e9), Complex64::ZERO);
        assert_eq!(ps.direct_power_fraction(), 0.0);
    }

    #[test]
    fn power_accounting() {
        let ps = PathSet::new(vec![Path::new(5.0, 0.6), Path::new(8.0, 0.8)]);
        assert!((ps.total_power() - 1.0).abs() < 1e-12);
        assert!((ps.direct_power_fraction() - 0.36).abs() < 1e-12);
    }

    #[test]
    fn length_round_trip() {
        let p = Path::from_length(0.6, 1.0);
        assert!((p.delay_ns - 2.0).abs() < 0.01);
        assert!((p.length_m() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn channels_at_matches_pointwise() {
        let ps = PathSet::new(vec![Path::new(5.2, 1.0), Path::new(16.0, 0.4)]);
        let freqs = [2.412e9, 5.18e9, 5.825e9];
        let hs = ps.channels_at(&freqs);
        for (h, f) in hs.iter().zip(freqs.iter()) {
            assert!(h.approx_eq(ps.channel_at(*f), 1e-12));
        }
    }

    #[test]
    fn frequency_selective_fading_from_two_paths() {
        // Two equal paths produce deep nulls at frequencies where they are
        // out of phase — a basic sanity check of Eq. 7's interference.
        let ps = PathSet::new(vec![Path::new(0.0, 1.0), Path::new(10.0, 1.0)]);
        // Delta tau = 10 ns -> null spacing 100 MHz; null when f*tau = k+1/2.
        let f_null = 0.05e9; // 0.5 cycles over 10 ns
        let f_peak = 0.1e9; // 1.0 cycle
        assert!(ps.channel_at(f_null).abs() < 1e-9);
        assert!((ps.channel_at(f_peak).abs() - 2.0).abs() < 1e-9);
    }
}
