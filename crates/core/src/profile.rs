//! Multipath profiles and the first-peak time-of-flight rule (paper §6).
//!
//! The sparse inversion yields a complex profile over the delay grid; its
//! magnitude is the multipath profile of the paper's Fig. 4(b) and Fig.
//! 7(b). Chronos's decision rule: the direct path is the *shortest* path,
//! so the time-of-flight is the delay of the profile's **first dominant
//! peak** — not its strongest.
//!
//! Because the sparse solution concentrates each physical path into one or
//! two grid bins, sub-bin refinement via quadratic interpolation of the
//! sparse spikes is meaningless; instead the profile refines its first
//! peak by maximizing the **matched-filter response** of the raw band
//! measurements in a window around the sparse peak (golden-section
//! search). This is what delivers resolution beyond the grid step.

use crate::error::ChronosError;
use crate::ndft::Ndft;
use chronos_math::peaks::{find_peaks, Peak, PeakConfig};
use chronos_math::Complex64;

/// A multipath profile over a uniform delay grid.
#[derive(Debug, Clone)]
pub struct MultipathProfile {
    /// Grid start, ns.
    pub start_ns: f64,
    /// Grid step, ns.
    pub step_ns: f64,
    /// Magnitude per grid point.
    pub magnitudes: Vec<f64>,
    /// Delay scale of the grid relative to true time-of-flight (2 for
    /// squared channels, 8 for quirked fourth powers, 1 for raw channels).
    pub delay_scale: f64,
}

impl MultipathProfile {
    /// Builds a profile from a sparse complex solution.
    pub fn from_solution(p: &[Complex64], start_ns: f64, step_ns: f64, delay_scale: f64) -> Self {
        MultipathProfile {
            start_ns,
            step_ns,
            magnitudes: p.iter().map(|z| z.abs()).collect(),
            delay_scale,
        }
    }

    /// Converts a Rayleigh resolution width (in profile-domain ns, i.e.
    /// `1 / aperture_bandwidth`) into a minimum peak separation in grid
    /// bins. Peaks closer than a resolution width cannot be two physical
    /// paths — they are the main lobe and its shoulder/sidelobe — so the
    /// peak finder merges them into the stronger one.
    pub fn min_sep_bins(&self, resolution_ns: f64) -> usize {
        min_sep_bins(resolution_ns, self.step_ns)
    }

    /// Dominant peaks in *profile-domain* delays (not descaled). Peaks
    /// closer than `min_sep_bins` grid bins are merged (strongest wins).
    pub fn dominant_peaks(&self, dominance: f64, min_sep_bins: usize) -> Vec<Peak> {
        find_peaks(
            &self.magnitudes,
            self.start_ns,
            self.step_ns,
            &PeakConfig {
                dominance,
                min_separation: min_sep_bins.max(1),
            },
        )
    }

    /// The number of dominant peaks — the sparsity statistic of §12.1
    /// ("mean number of dominant peaks ... 5.05, sd 1.95").
    pub fn peak_count(&self, dominance: f64) -> usize {
        self.dominant_peaks(dominance, 3).len()
    }

    /// First dominant peak in profile-domain delay, or an error if the
    /// profile has no energy above the dominance threshold.
    pub fn first_peak(&self, dominance: f64, min_sep_bins: usize) -> Result<Peak, ChronosError> {
        self.dominant_peaks(dominance, min_sep_bins)
            .into_iter()
            .next()
            .ok_or(ChronosError::NoDominantPath)
    }

    /// First *path* peak with sidelobe rejection.
    ///
    /// Wi-Fi's band plan is spectrally clustered (2.4 GHz and several 5 GHz
    /// chunks), so the point response of the NDFT is a fringe comb: a
    /// single physical path shows a strong main lobe flanked by weaker
    /// fringes within one **cluster resolution** (`1 / largest_cluster_
    /// span`). A weak "peak" that sits less than `veto_radius_ns` before a
    /// much stronger one is therefore a sidelobe of that stronger path,
    /// not an earlier direct path; accepting it causes the characteristic
    /// one-fringe-early error. Candidates are vetoed when their magnitude
    /// is below `veto_ratio` times a stronger peak within the radius.
    ///
    /// A genuinely attenuated direct path survives if it is either farther
    /// than the veto radius ahead of the reflections or at least
    /// `veto_ratio` of their strength — the same regime where the paper's
    /// own first-peak rule is reliable (§6, observation 1).
    pub fn first_path_peak(
        &self,
        dominance: f64,
        min_sep_bins: usize,
        veto_radius_ns: f64,
        veto_ratio: f64,
    ) -> Result<Peak, ChronosError> {
        let peaks = self.dominant_peaks(dominance, min_sep_bins);
        'candidates: for (i, cand) in peaks.iter().enumerate() {
            for later in peaks.iter().skip(i + 1) {
                if later.x - cand.x <= veto_radius_ns
                    && cand.magnitude < veto_ratio * later.magnitude
                {
                    continue 'candidates; // sidelobe of `later`
                }
            }
            return Ok(*cand);
        }
        Err(ChronosError::NoDominantPath)
    }

    /// First dominant peak, refined by maximizing the matched-filter
    /// response of the raw measurements `h` under `ndft` within half a
    /// resolution width around the sparse peak, then **descaled** into a
    /// true time-of-flight in nanoseconds.
    ///
    /// `resolution_ns` is the aperture's Rayleigh width in profile-domain
    /// nanoseconds (`1e9 / span_hz`); it controls both peak merging and
    /// the refinement window.
    pub fn tof_ns(
        &self,
        ndft: &Ndft,
        h: &[Complex64],
        dominance: f64,
        resolution_ns: f64,
    ) -> Result<f64, ChronosError> {
        let min_sep = self.min_sep_bins(resolution_ns);
        let peak = self.first_peak(dominance, min_sep)?;
        let half_window = (0.5 * resolution_ns).max(self.step_ns);
        let refined = golden_max(
            |tau| ndft.matched_filter(h, tau),
            peak.x - half_window,
            peak.x + half_window,
            1e-4,
        );
        Ok(refined / self.delay_scale)
    }
}

/// CLEAN-style refinement of the first peak: subtracts the modeled
/// contribution of every *other* detected atom from the raw measurement,
/// then maximizes the matched filter of the residual in a half-resolution
/// window around the sparse peak. Removing the interference of later
/// (often stronger) paths is what keeps the refined delay unbiased.
///
/// `p` is the (debiased) complex solution on the NDFT grid; `peak` the
/// first dominant peak; `min_sep_bins` the merge radius used to find it.
/// Returns the refined **profile-domain** delay in ns.
pub fn refine_first_peak_clean(
    ndft: &Ndft,
    h: &[Complex64],
    p: &[Complex64],
    peak: &Peak,
    min_sep_bins: usize,
    resolution_ns: f64,
) -> f64 {
    let mut ws = RefineScratch::default();
    refine_first_peak_clean_into(ndft, h, p, peak, min_sep_bins, resolution_ns, &mut ws)
}

/// Reusable buffers for [`refine_first_peak_clean_into`]: the masked
/// model, its forward image, and the CLEANed residual.
#[derive(Debug, Clone, Default)]
pub struct RefineScratch {
    others: Vec<Complex64>,
    predicted: Vec<Complex64>,
    residual: Vec<Complex64>,
}

/// [`refine_first_peak_clean`] over a reusable workspace — identical
/// result, zero heap allocations once the buffers have capacity.
pub fn refine_first_peak_clean_into(
    ndft: &Ndft,
    h: &[Complex64],
    p: &[Complex64],
    peak: &Peak,
    min_sep_bins: usize,
    resolution_ns: f64,
    ws: &mut RefineScratch,
) -> f64 {
    // Model of everything except the first peak's neighborhood.
    ws.others.clear();
    ws.others.extend_from_slice(p);
    let lo = peak.index.saturating_sub(min_sep_bins);
    let hi = (peak.index + min_sep_bins).min(p.len().saturating_sub(1));
    for z in ws.others.iter_mut().take(hi + 1).skip(lo) {
        *z = Complex64::ZERO;
    }
    ndft.forward_into(&ws.others, &mut ws.predicted);
    ws.residual.clear();
    ws.residual
        .extend(h.iter().zip(ws.predicted.iter()).map(|(a, b)| *a - *b));
    let half_window = (0.5 * resolution_ns).max(ndft.grid().step_ns);
    let residual = &ws.residual;
    golden_max(
        |tau| ndft.matched_filter(residual, tau),
        peak.x - half_window,
        peak.x + half_window,
        1e-4,
    )
}

/// The minimum peak separation (grid bins) for a Rayleigh resolution
/// width over a grid step — the single implementation behind
/// [`MultipathProfile::min_sep_bins`] and the scratch pipeline's inlined
/// profile handling (they must agree bit for bit).
pub fn min_sep_bins(resolution_ns: f64, step_ns: f64) -> usize {
    ((resolution_ns / step_ns).ceil() as usize).max(3)
}

/// Rayleigh resolution of an aperture spanning `freqs_hz`, in nanoseconds:
/// `1 / (f_max - f_min)`. Falls back to 2 ns for degenerate spans.
pub fn resolution_ns(freqs_hz: &[f64]) -> f64 {
    let lo = freqs_hz.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = freqs_hz.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = hi - lo;
    if span > 0.0 {
        1e9 / span
    } else {
        2.0
    }
}

/// Strong sidelobe/grating offsets of a band plan's point response.
///
/// Most Wi-Fi band centers share a coarse frequency raster (20 MHz at
/// 5 GHz), so the NDFT's point response repeats quasi-periodically: energy
/// at delay `D` leaks coherent ghosts to `D ± offset` for every offset
/// where the plan's self-response exceeds `threshold`. First-peak
/// selection must treat a candidate with a much stronger peak at one of
/// these offsets *after* it as a suspected ghost.
///
/// Returns positive offsets (ns) up to `max_offset_ns`, excluding the main
/// lobe (within twice the full-aperture resolution).
pub fn strong_lobe_offsets(freqs_hz: &[f64], threshold: f64, max_offset_ns: f64) -> Vec<f64> {
    let n = freqs_hz.len() as f64;
    if freqs_hz.is_empty() {
        return Vec::new();
    }
    let res = resolution_ns(freqs_hz);
    let response = |off_ns: f64| -> f64 {
        let mut acc = Complex64::ZERO;
        for f in freqs_hz {
            acc += Complex64::cis(2.0 * std::f64::consts::PI * f * off_ns * 1e-9);
        }
        acc.abs() / n
    };
    let step = 0.05;
    let mut offsets = Vec::new();
    let mut x = 2.0 * res;
    let mut in_lobe = false;
    let mut lobe_best = (0.0f64, 0.0f64); // (offset, response)
    while x <= max_offset_ns {
        let r = response(x);
        if r > threshold {
            if !in_lobe || r > lobe_best.1 {
                lobe_best = (x, r);
            }
            in_lobe = true;
        } else if in_lobe {
            offsets.push(lobe_best.0);
            in_lobe = false;
            lobe_best = (0.0, 0.0);
        }
        x += step;
    }
    if in_lobe {
        offsets.push(lobe_best.0);
    }
    offsets
}

/// Golden-section search for the maximum of a unimodal function on
/// `[lo, hi]` to absolute tolerance `tol`.
fn golden_max(f: impl Fn(f64) -> f64, lo: f64, hi: f64, tol: f64) -> f64 {
    const INV_PHI: f64 = 0.618_033_988_749_894_8;
    let (mut a, mut b) = (lo.min(hi), lo.max(hi));
    let mut c = b - (b - a) * INV_PHI;
    let mut d = a + (b - a) * INV_PHI;
    let (mut fc, mut fd) = (f(c), f(d));
    while (b - a).abs() > tol {
        if fc >= fd {
            b = d;
            d = c;
            fd = fc;
            c = b - (b - a) * INV_PHI;
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + (b - a) * INV_PHI;
            fd = f(d);
        }
    }
    0.5 * (a + b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ista::{solve, IstaConfig};
    use crate::ndft::TauGrid;
    use chronos_rf::bands::band_plan_5ghz;
    use std::f64::consts::PI;

    fn freqs() -> Vec<f64> {
        band_plan_5ghz().iter().map(|b| b.center_hz).collect()
    }

    fn squared_channel(paths: &[(f64, f64)], freqs: &[f64]) -> Vec<Complex64> {
        // Emulates the reciprocity product: (sum a e^{-j2pi f tau})^2.
        freqs
            .iter()
            .map(|f| {
                let mut h = Complex64::ZERO;
                for (tau_ns, a) in paths {
                    h += Complex64::from_polar(*a, -2.0 * PI * f * tau_ns * 1e-9);
                }
                h * h
            })
            .collect()
    }

    #[test]
    fn profile_from_solution_magnitudes() {
        let p = vec![
            Complex64::from_polar(2.0, 1.0),
            Complex64::ZERO,
            Complex64::from_polar(0.5, -2.0),
        ];
        let prof = MultipathProfile::from_solution(&p, 0.0, 0.5, 2.0);
        assert_eq!(prof.magnitudes.len(), 3);
        assert!((prof.magnitudes[0] - 2.0).abs() < 1e-12);
        assert_eq!(prof.magnitudes[1], 0.0);
    }

    #[test]
    fn end_to_end_single_path_tof_subnanosecond() {
        // Squared channel of a single 10.3 ns path: profile peak at 20.6,
        // descaled ToF at 10.3 — sub-grid via matched filter.
        let f = freqs();
        let grid = TauGrid::span(100.0, 0.25);
        let ndft = Ndft::new(&f, grid);
        let h = squared_channel(&[(10.3, 1.0)], &f);
        let sol = solve(&ndft, &h, &IstaConfig::default());
        let prof = MultipathProfile::from_solution(&sol.p, 0.0, 0.25, 2.0);
        let res = resolution_ns(&f);
        let tof = prof.tof_ns(&ndft, &h, 0.2, res).unwrap();
        assert!((tof - 10.3).abs() < 0.05, "tof {tof}");
    }

    #[test]
    fn first_peak_rule_direct_weaker_than_reflection() {
        // Direct at 8 ns (amp 0.5), reflection at 15 ns (amp 1.0): first
        // peak must still win.
        let f = freqs();
        let grid = TauGrid::span(100.0, 0.25);
        let ndft = Ndft::new(&f, grid);
        let h = squared_channel(&[(8.0, 0.5), (15.0, 1.0)], &f);
        let sol = solve(
            &ndft,
            &h,
            &IstaConfig {
                alpha_rel: 0.06,
                ..Default::default()
            },
        );
        let prof = MultipathProfile::from_solution(&sol.p, 0.0, 0.25, 2.0);
        // The estimator's flow: detect, then CLEAN-refine so the stronger
        // reflection does not bias the direct path's vertex.
        let res = resolution_ns(&f);
        let min_sep = prof.min_sep_bins(res);
        let peak = prof.first_peak(0.1, min_sep).unwrap();
        let refined = refine_first_peak_clean(&ndft, &h, &sol.p, &peak, min_sep, res);
        let tof = refined / 2.0;
        assert!((tof - 8.0).abs() < 0.3, "tof {tof}");
    }

    #[test]
    fn squared_channel_cross_terms_do_not_precede_first_peak() {
        // §7's argument: squaring creates sum-delays, but the smallest
        // remains 2*tau_min.
        let f = freqs();
        let grid = TauGrid::span(100.0, 0.25);
        let ndft = Ndft::new(&f, grid);
        let h = squared_channel(&[(6.0, 1.0), (9.0, 0.8), (14.0, 0.5)], &f);
        let sol = solve(
            &ndft,
            &h,
            &IstaConfig {
                alpha_rel: 0.08,
                ..Default::default()
            },
        );
        let prof = MultipathProfile::from_solution(&sol.p, 0.0, 0.25, 2.0);
        let first = prof
            .first_peak(0.15, prof.min_sep_bins(resolution_ns(&f)))
            .unwrap();
        assert!(first.x >= 2.0 * 6.0 - 0.5, "premature peak at {}", first.x);
        assert!(first.x <= 2.0 * 6.0 + 0.5, "first peak late at {}", first.x);
    }

    #[test]
    fn peak_count_reflects_sparsity() {
        let f = freqs();
        let grid = TauGrid::span(100.0, 0.25);
        let ndft = Ndft::new(&f, grid);
        let h = squared_channel(&[(5.0, 1.0), (9.0, 0.7), (13.0, 0.5)], &f);
        let sol = solve(
            &ndft,
            &h,
            &IstaConfig {
                alpha_rel: 0.08,
                ..Default::default()
            },
        );
        let prof = MultipathProfile::from_solution(&sol.p, 0.0, 0.25, 2.0);
        let count = prof.peak_count(0.15);
        // 3 paths -> up to 6 squared-channel terms, at least 3 visible.
        assert!((3..=8).contains(&count), "count {count}");
    }

    #[test]
    fn empty_profile_errors() {
        let prof = MultipathProfile {
            start_ns: 0.0,
            step_ns: 0.5,
            magnitudes: vec![0.0; 100],
            delay_scale: 2.0,
        };
        assert_eq!(
            prof.first_peak(0.1, 3).unwrap_err(),
            ChronosError::NoDominantPath
        );
    }

    #[test]
    fn golden_max_finds_parabola_vertex() {
        let v = golden_max(|x| -(x - 3.7) * (x - 3.7), 0.0, 10.0, 1e-8);
        assert!((v - 3.7).abs() < 1e-6);
    }

    #[test]
    fn resolution_of_5ghz_plan() {
        let f = freqs();
        // 5.18..5.825 GHz span -> ~1.55 ns.
        let r = resolution_ns(&f);
        assert!((r - 1.55).abs() < 0.01, "{r}");
        // Degenerate span falls back.
        assert_eq!(resolution_ns(&[5e9]), 2.0);
        assert_eq!(resolution_ns(&[]), 2.0);
    }

    #[test]
    fn lobe_offsets_of_5ghz_plan_near_50ns() {
        // 19 of 24 bands share the 20 MHz raster: strong grating lobes
        // cluster around +-50 ns.
        let f = freqs();
        let lobes = strong_lobe_offsets(&f, 0.5, 100.0);
        assert!(!lobes.is_empty());
        assert!(
            lobes.iter().any(|d| (*d - 50.0).abs() < 3.5),
            "no ~50 ns lobe in {lobes:?}"
        );
        // No strong lobes in the mid-range (5..40 ns).
        assert!(lobes.iter().all(|d| *d < 5.0 || *d > 40.0), "{lobes:?}");
    }

    #[test]
    fn lobe_offsets_empty_for_irregular_plan() {
        // Deliberately co-prime-ish spacings: no strong lobes below 100 ns
        // beyond the main-lobe exclusion.
        let f = [5.18e9, 5.253e9, 5.419e9, 5.622e9, 5.801e9];
        let lobes = strong_lobe_offsets(&f, 0.9, 50.0);
        assert!(lobes.is_empty(), "{lobes:?}");
    }

    #[test]
    fn first_path_peak_vetoes_weak_preceding_sidelobe() {
        // A weak bump one cluster-resolution before a strong peak is a
        // sidelobe; first_path_peak must skip it.
        let mut mags = vec![0.0; 200];
        mags[40] = 0.3; // candidate sidelobe at x = 10 (step 0.25)
        mags[56] = 1.0; // strong peak at x = 14
        let prof = MultipathProfile {
            start_ns: 0.0,
            step_ns: 0.25,
            magnitudes: mags,
            delay_scale: 2.0,
        };
        let p = prof.first_path_peak(0.1, 3, 5.0, 0.5).unwrap();
        assert_eq!(p.index, 56);
        // But a strong-enough early peak survives.
        let mut mags2 = vec![0.0; 200];
        mags2[40] = 0.7;
        mags2[56] = 1.0;
        let prof2 = MultipathProfile {
            start_ns: 0.0,
            step_ns: 0.25,
            magnitudes: mags2,
            delay_scale: 2.0,
        };
        let p2 = prof2.first_path_peak(0.1, 3, 5.0, 0.5).unwrap();
        assert_eq!(p2.index, 40);
    }

    #[test]
    fn descaling_uses_delay_scale() {
        let f = freqs();
        let grid = TauGrid::span(100.0, 0.25);
        let ndft = Ndft::new(&f, grid);
        // Same measurement, but declared at scale 8 (quirked group):
        // reported ToF must be 1/4 of the scale-2 answer.
        let h = squared_channel(&[(10.0, 1.0)], &f);
        let sol = solve(&ndft, &h, &IstaConfig::default());
        let p2 = MultipathProfile::from_solution(&sol.p, 0.0, 0.25, 2.0);
        let p8 = MultipathProfile::from_solution(&sol.p, 0.0, 0.25, 8.0);
        let res = resolution_ns(&f);
        let t2 = p2.tof_ns(&ndft, &h, 0.2, res).unwrap();
        let t8 = p8.tof_ns(&ndft, &h, 0.2, res).unwrap();
        assert!((t2 / t8 - 4.0).abs() < 1e-9);
    }
}
