//! Multipath profiles and the refinement half of the first-peak
//! time-of-flight rule (paper §6).
//!
//! The sparse inversion yields a complex profile over the delay grid; its
//! magnitude is the multipath profile of the paper's Fig. 4(b) and Fig.
//! 7(b). Chronos's decision rule: the direct path is the *shortest* path,
//! so the time-of-flight is the delay of the profile's **first dominant
//! peak** — not its strongest. The estimator picks that peak with
//! `tof::select_first_path`, which also vetoes sidelobe and grating
//! ghosts.
//!
//! Because the sparse solution concentrates each physical path into one or
//! two grid bins, sub-bin refinement via quadratic interpolation of the
//! sparse spikes is meaningless; instead [`refine_first_peak_clean_into`]
//! refines the chosen peak by maximizing the **matched-filter response**
//! of the CLEANed band measurements in a window around the sparse peak
//! (golden-section search). This is what delivers resolution beyond the
//! grid step.

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
}

/// Reusable buffers for [`refine_first_peak_clean_into`]: the masked
/// model, its forward image, and the CLEANed residual.
#[derive(Debug, Clone, Default)]
pub struct RefineScratch {
    others: Vec<Complex64>,
    predicted: Vec<Complex64>,
    residual: Vec<Complex64>,
}

/// CLEAN-style refinement of the first peak: subtracts the modeled
/// contribution of every *other* detected atom from the raw measurement,
/// then maximizes the matched filter of the residual in a half-resolution
/// window around the sparse peak. Removing the interference of later
/// (often stronger) paths is what keeps the refined delay unbiased.
///
/// `p` is the (debiased) complex solution on the NDFT grid; `peak` the
/// first dominant peak; `min_sep_bins` the merge radius used to find it.
/// Returns the refined **profile-domain** delay in ns. Runs in a
/// reusable workspace: zero heap allocations once the buffers have
/// capacity.
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
/// width (profile-domain ns, `1 / aperture_bandwidth`) over a grid step.
/// Peaks closer than a resolution width cannot be two physical paths —
/// they are the main lobe and its shoulder/sidelobe — so the peak finder
/// merges them into the stronger one.
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
    use crate::ista::{solve_planned_into, IstaConfig, IstaScratch};
    use crate::ndft::TauGrid;
    use crate::plan::NdftPlan;
    use chronos_rf::bands::band_plan_5ghz;
    use std::f64::consts::PI;

    fn freqs() -> Vec<f64> {
        band_plan_5ghz().iter().map(|b| b.center_hz).collect()
    }

    /// The sparse solution of `h` on `plan`, from a fresh scratch.
    fn solve_fresh(plan: &NdftPlan, h: &[Complex64], cfg: &IstaConfig) -> Vec<Complex64> {
        let mut scratch = IstaScratch::new();
        solve_planned_into(plan, h, cfg, &mut scratch);
        scratch.solution().to_vec()
    }

    /// The squared-channel (scale 2) magnitude profile of `p` on `grid`.
    fn profile(p: &[Complex64], grid: TauGrid) -> MultipathProfile {
        MultipathProfile {
            start_ns: grid.start_ns,
            step_ns: grid.step_ns,
            magnitudes: p.iter().map(|z| z.abs()).collect(),
            delay_scale: 2.0,
        }
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
    fn first_peak_rule_direct_weaker_than_reflection() {
        // Direct at 8 ns (amp 0.5), reflection at 15 ns (amp 1.0): first
        // peak must still win.
        let f = freqs();
        let grid = TauGrid::span(100.0, 0.25);
        let plan = NdftPlan::new(&f, grid, 100.0);
        let h = squared_channel(&[(8.0, 0.5), (15.0, 1.0)], &f);
        let p = solve_fresh(
            &plan,
            &h,
            &IstaConfig {
                alpha_rel: 0.06,
                ..Default::default()
            },
        );
        // The estimator's flow: detect, then CLEAN-refine so the stronger
        // reflection does not bias the direct path's vertex.
        let res = resolution_ns(&f);
        let min_sep = min_sep_bins(res, grid.step_ns);
        let peak = profile(&p, grid).dominant_peaks(0.1, min_sep)[0];
        let mut ws = RefineScratch::default();
        let refined =
            refine_first_peak_clean_into(&plan.ndft, &h, &p, &peak, min_sep, res, &mut ws);
        let tof = refined / 2.0;
        assert!((tof - 8.0).abs() < 0.3, "tof {tof}");
    }

    #[test]
    fn squared_channel_cross_terms_do_not_precede_first_peak() {
        // §7's argument: squaring creates sum-delays, but the smallest
        // remains 2*tau_min.
        let f = freqs();
        let grid = TauGrid::span(100.0, 0.25);
        let h = squared_channel(&[(6.0, 1.0), (9.0, 0.8), (14.0, 0.5)], &f);
        let p = solve_fresh(
            &NdftPlan::new(&f, grid, 100.0),
            &h,
            &IstaConfig {
                alpha_rel: 0.08,
                ..Default::default()
            },
        );
        let first = profile(&p, grid)
            .dominant_peaks(0.15, min_sep_bins(resolution_ns(&f), grid.step_ns))[0];
        assert!(first.x >= 2.0 * 6.0 - 0.5, "premature peak at {}", first.x);
        assert!(first.x <= 2.0 * 6.0 + 0.5, "first peak late at {}", first.x);
    }

    #[test]
    fn peak_count_reflects_sparsity() {
        let f = freqs();
        let grid = TauGrid::span(100.0, 0.25);
        let h = squared_channel(&[(5.0, 1.0), (9.0, 0.7), (13.0, 0.5)], &f);
        let p = solve_fresh(
            &NdftPlan::new(&f, grid, 100.0),
            &h,
            &IstaConfig {
                alpha_rel: 0.08,
                ..Default::default()
            },
        );
        let count = profile(&p, grid).peak_count(0.15);
        // 3 paths -> up to 6 squared-channel terms, at least 3 visible.
        assert!((3..=8).contains(&count), "count {count}");
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
}
