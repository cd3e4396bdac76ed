//! The end-to-end time-of-flight estimator (paper §4–§7 assembled).
//!
//! Input: per-band forward/reverse CSI measurement sets (one set per band,
//! several packet exchanges each). Output: a [`TofEstimate`] carrying the
//! descaled, calibrated time-of-flight and the multipath profiles that
//! produced it.
//!
//! Steps:
//! 1. combine each band's exchanges into a CFO-free [`BandProduct`]
//!    ([`crate::reciprocity`]);
//! 2. split products into delay-scale groups ([`crate::quirk`]);
//! 3. per group: sparse inverse-NDFT ([`crate::ista`]), the first-path
//!    rule (`select_first_path`, the one first-peak rule in the crate),
//!    then matched-filter refinement ([`crate::profile`]);
//! 4. fuse group candidates: the widest (finest-resolution) group wins,
//!    and the coarse 2.4 GHz group, when present and unaliased, must agree
//!    within tolerance or the sample is flagged.

use crate::config::ChronosConfig;
use crate::error::ChronosError;
use crate::ista::{debias_into, solve_planned_into, DebiasScratch, IstaConfig};
use crate::ndft::{Ndft, TauGrid};
use crate::phase::Interpolation;
use crate::pipeline::{EstimatorScratch, PlanMemo, SelectScratch};
use crate::plan::{NdftPlan, PlanCache};
use crate::profile::MultipathProfile;
use crate::quirk::{group_by_scale_into, BandGroupSamples};
use crate::reciprocity::{combine_band_into, BandProduct};
use chronos_math::peaks::PeakConfig;
use chronos_math::spline::SplinePlan;
use chronos_math::Complex64;
use chronos_rf::csi::Measurement;
use std::sync::Arc;

/// Peak dominance threshold: a profile peak counts as a path candidate
/// when it reaches this fraction of the strongest peak.
const PEAK_DOMINANCE: f64 = 0.15;

/// Strength of the sidelobe/ghost model-comparison veto: a candidate
/// with a stronger peak after it is accepted only if the best
/// alternative model (the support without the candidate, alone or plus
/// one seeded ghost-source atom per grating-lobe cluster) leaves at least
/// `1 + SIDELOBE_VETO_RATIO` times the baseline residual energy.
const SIDELOBE_VETO_RATIO: f64 = 0.4;

/// Quiet-zone significance floor: the CLEANed matched-filter response at
/// a candidate (the measurement minus every other atom's model) must
/// reach `ATOM_SNR_MIN` times the median of that response sampled over
/// the quiet zone before the candidate. Suppresses the low-amplitude
/// "garbage collector" atoms the sparse solver places to absorb noise,
/// aliases and unmodeled content.
const ATOM_SNR_MIN: f64 = 3.0;

/// All measurements of one band (the exchanges of one dwell).
#[derive(Debug, Clone, Default)]
pub struct BandSample {
    /// The exchanges captured while dwelling on this band.
    pub measurements: Vec<Measurement>,
}

/// One group's inversion output.
#[derive(Debug, Clone)]
pub struct GroupEstimate {
    /// Delay scale of the group.
    pub delay_scale: f64,
    /// Bands in the group.
    pub n_bands: usize,
    /// The multipath profile (profile-domain delays).
    pub profile: MultipathProfile,
    /// Descaled first-peak delay, ns (before calibration).
    pub raw_tof_ns: f64,
}

/// The estimator's result.
#[derive(Debug, Clone)]
pub struct TofEstimate {
    /// Calibrated time-of-flight, ns.
    pub tof_ns: f64,
    /// Equivalent distance, meters.
    pub distance_m: f64,
    /// Per-group details (primary group first).
    pub groups: Vec<GroupEstimate>,
    /// Whether the coarse 2.4 GHz check (if run) agreed with the primary
    /// estimate.
    pub cross_check_ok: bool,
}

/// The compact, allocation-free estimator result: everything a tracking
/// service needs from a sweep, without the profile payload of
/// [`TofEstimate`]. Produced by
/// [`crate::pipeline::SweepPipeline::estimate_fix`]; scalar fields agree
/// bit for bit with the full estimate's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TofFix {
    /// Calibrated time-of-flight, ns.
    pub tof_ns: f64,
    /// Equivalent distance, meters.
    pub distance_m: f64,
    /// Whether the coarse 2.4 GHz check (if run) agreed with the primary
    /// estimate.
    pub cross_check_ok: bool,
    /// Delay-scale groups that produced a candidate.
    pub n_groups: usize,
    /// Bands in the primary (winning) group.
    pub primary_bands: usize,
}

/// One group's scalar outcome inside the scratch pipeline (the
/// profile-free core of [`GroupEstimate`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct GroupFix {
    pub(crate) delay_scale: f64,
    pub(crate) n_bands: usize,
    pub(crate) raw_tof_ns: f64,
}

/// The configured estimator.
#[derive(Debug, Clone)]
pub struct TofEstimator {
    /// Configuration.
    pub config: ChronosConfig,
    /// Interpolation backend for zero-subcarrier recovery.
    pub interpolation: Interpolation,
    /// Optional shared plan cache. With a cache, NDFT operators, operator
    /// norms, lobe tables and spline factorizations are built once and
    /// reused across every call (and every other estimator holding the
    /// same cache); without one they are rebuilt per estimate. Results
    /// are identical either way.
    pub plans: Option<Arc<PlanCache>>,
}

impl TofEstimator {
    /// Creates an estimator with the given configuration and the paper's
    /// cubic-spline interpolation. Plans are rebuilt per call; use
    /// [`TofEstimator::with_cache`] to share them.
    pub fn new(config: ChronosConfig) -> Self {
        TofEstimator {
            config,
            interpolation: Interpolation::CubicSpline,
            plans: None,
        }
    }

    /// Creates an estimator that reuses plans from a shared [`PlanCache`].
    pub fn with_cache(config: ChronosConfig, plans: Arc<PlanCache>) -> Self {
        TofEstimator {
            config,
            interpolation: Interpolation::CubicSpline,
            plans: Some(plans),
        }
    }

    /// The NDFT plan for one band group: from the shared cache when
    /// present, built fresh otherwise. Both paths construct the plan with
    /// identical arithmetic. The lobe scan uses the configured grid span
    /// (not the grid's rounded-up extent), matching the pre-plan code.
    fn plan_for(&self, freqs_hz: &[f64], grid: TauGrid) -> Arc<NdftPlan> {
        let lobe_span_ns = self.config.grid_span_ns;
        match &self.plans {
            Some(cache) => cache.ndft_plan(freqs_hz, grid, lobe_span_ns),
            None => Arc::new(NdftPlan::new(freqs_hz, grid, lobe_span_ns)),
        }
    }

    /// The spline plan for the capture layout the band samples use, via
    /// the scratch memo (the cache lookup — which builds a hashing key —
    /// is paid once per layout per scratch, not per sweep). Per-call
    /// fitting stays exact without a cache.
    fn spline_plan_memo(
        &self,
        bands: &[BandSample],
        scratch: &mut EstimatorScratch,
    ) -> Option<Arc<SplinePlan>> {
        let cache = self.plans.as_ref()?;
        let first = bands.iter().find_map(|b| b.measurements.first())?;
        scratch.xs.clear();
        scratch
            .xs
            .extend(first.forward.layout.indices().iter().map(|k| *k as f64));
        if let Some((_, plan)) = scratch
            .spline_memo
            .iter()
            .find(|(xs, _)| xs.as_slice() == scratch.xs.as_slice())
        {
            return Some(Arc::clone(plan));
        }
        let plan = cache.spline_plan(&scratch.xs).ok()?;
        // Bound the memo: a worker serving unboundedly many distinct
        // layouts falls back to the shared cache instead of growing (and
        // linearly scanning) forever. Real deployments use a handful of
        // layouts, so the cap is never reached.
        if scratch.spline_memo.len() >= crate::pipeline::PLAN_MEMO_CAP {
            scratch.spline_memo.clear();
        }
        scratch
            .spline_memo
            .push((scratch.xs.clone(), Arc::clone(&plan)));
        Some(plan)
    }

    /// The NDFT plan for one band group via the scratch memo: the shared
    /// cache (or a fresh build) is consulted once per distinct
    /// `(bands, grid)`; every later sweep through the same scratch reuses
    /// the memoized `Arc` without constructing a cache key.
    fn plan_for_memo(
        &self,
        freqs_hz: &[f64],
        grid: TauGrid,
        memo: &mut Vec<PlanMemo>,
    ) -> Arc<NdftPlan> {
        let lobe_span = self.config.grid_span_ns;
        if let Some(e) = memo.iter().find(|e| {
            e.grid == grid
                && e.lobe_span.to_bits() == lobe_span.to_bits()
                && e.freqs.as_slice() == freqs_hz
        }) {
            return Arc::clone(&e.plan);
        }
        let plan = self.plan_for(freqs_hz, grid);
        // Bound the memo (see `spline_plan_memo`): beyond the cap a
        // worker leans on the shared cache rather than growing forever.
        if memo.len() >= crate::pipeline::PLAN_MEMO_CAP {
            memo.clear();
        }
        memo.push(PlanMemo {
            freqs: freqs_hz.to_vec(),
            grid,
            lobe_span,
            plan: Arc::clone(&plan),
        });
        plan
    }

    /// Combines raw band samples into CFO-free products.
    pub fn products(&self, bands: &[BandSample]) -> Result<Vec<BandProduct>, ChronosError> {
        let mut scratch = EstimatorScratch::new();
        let mut out = Vec::new();
        self.products_into(bands, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// [`TofEstimator::products`] into a reusable output buffer, with
    /// spline plans served from the scratch memo. Identical results.
    pub(crate) fn products_into(
        &self,
        bands: &[BandSample],
        scratch: &mut EstimatorScratch,
        out: &mut Vec<BandProduct>,
    ) -> Result<(), ChronosError> {
        let spline_plan = self.spline_plan_memo(bands, scratch);
        out.clear();
        for b in bands.iter().filter(|b| !b.measurements.is_empty()) {
            out.push(combine_band_into(
                &b.measurements,
                self.interpolation,
                self.config.mode,
                spline_plan.as_deref(),
                &mut scratch.splice,
            )?);
        }
        Ok(())
    }

    /// The one estimation body, behind both
    /// [`crate::pipeline::SweepPipeline`] estimation calls. Groups
    /// products by delay scale, inverts each group through the scratch
    /// solver, selects and refines the first physical path, and fuses
    /// the group candidates; every intermediate is borrowed from the
    /// scratch, so the body itself is allocation-free once warm. When
    /// `want_profiles` is set, `scratch.profiles` additionally receives
    /// the per-group [`GroupEstimate`]s (primary first) for
    /// [`TofEstimate`] assembly.
    pub(crate) fn estimate_scaled(
        &self,
        products: &[BandProduct],
        scratch: &mut EstimatorScratch,
        want_profiles: bool,
    ) -> Result<TofFix, ChronosError> {
        let mut groups = std::mem::take(&mut scratch.groups);
        let result = self.estimate_scaled_inner(products, &mut groups, scratch, want_profiles);
        scratch.groups = groups;
        result
    }

    fn estimate_scaled_inner(
        &self,
        products: &[BandProduct],
        groups: &mut Vec<BandGroupSamples>,
        scratch: &mut EstimatorScratch,
        want_profiles: bool,
    ) -> Result<TofFix, ChronosError> {
        // `BandProduct`'s fields are public, so a caller can hand in what
        // no finite capture produces. The grouping sort and the solver
        // assume finite numbers.
        let finite = |p: &BandProduct| {
            p.freq_hz.is_finite() && p.value.is_finite() && p.delay_scale.is_finite()
        };
        if !products.iter().all(finite) {
            return Err(ChronosError::BadCapture("non-finite band product"));
        }
        group_by_scale_into(
            products,
            groups,
            &mut scratch.group_pool,
            &mut scratch.order,
        );
        // Primary group: the one with the most bands (ties: finest scale,
        // which sorts first).
        let primary_idx = groups
            .iter()
            .enumerate()
            .max_by_key(|(_, g)| g.len())
            .map(|(i, _)| i)
            .ok_or(ChronosError::TooFewBands { got: 0, need: 5 })?;
        if groups[primary_idx].len() < 5 {
            return Err(ChronosError::TooFewBands {
                got: groups[primary_idx].len(),
                need: 5,
            });
        }

        let primary_bands = groups[primary_idx].len();
        scratch.fixes.clear();
        scratch.profiles.clear();
        let mut primary_error: Option<ChronosError> = None;
        for g in groups.iter() {
            if g.len() < 5 {
                continue; // not enough bands to invert meaningfully
            }
            let grid = TauGrid::span(self.config.grid_span_ns, self.config.grid_step_ns);
            let plan = self.plan_for_memo(&g.freqs_hz, grid, &mut scratch.plan_memo);
            let ndft = &plan.ndft;
            let ista_cfg = IstaConfig {
                alpha_rel: self.config.alpha_rel,
                max_iters: self.config.max_iters,
                epsilon: self.config.epsilon,
                accelerated: self.config.accelerated,
            };
            solve_planned_into(&plan, &g.values, &ista_cfg, &mut scratch.ista);
            if self.config.debias {
                // Overdetermined refit: at most half as many atoms as bands.
                let max_atoms = (g.len() / 2).max(3);
                debias_into(
                    ndft,
                    &g.values,
                    scratch.ista.solution(),
                    max_atoms,
                    3,
                    &mut scratch.debias,
                    &mut scratch.p_final,
                );
            } else {
                scratch.p_final.clear();
                scratch.p_final.extend_from_slice(scratch.ista.solution());
            }
            chronos_math::cvec::magnitudes_into(&scratch.p_final, &mut scratch.mags);
            let res_ns = crate::profile::resolution_ns(&g.freqs_hz);
            let min_sep = crate::profile::min_sep_bins(res_ns, grid.step_ns);
            // Physical prior: a genuine first peak cannot descale below the
            // calibration constant — that would mean negative distance.
            // (2 ns of margin tolerates calibration error.)
            let min_profile_x = (self.config.calibration_ns - 2.0).max(0.0) * g.delay_scale;
            // Grating-lobe offsets of this group's band plan: content at D
            // leaks coherent ghosts to D - offset, which first-peak
            // selection must suspect. Precomputed in the plan.
            let lobes = &plan.lobe_offsets;
            // A failure of a *secondary* group (e.g. the coarse 2.4 GHz
            // check aliasing outside the grid) must not kill the estimate;
            // only the primary group's failure is fatal.
            let peak = match select_first_path(
                ndft,
                &g.values,
                &scratch.p_final,
                &scratch.mags,
                min_sep,
                min_profile_x,
                lobes,
                &mut scratch.select,
                &mut scratch.debias,
            ) {
                Ok(p) => p,
                Err(e) => {
                    if g.len() == primary_bands {
                        primary_error = Some(e);
                    }
                    continue;
                }
            };
            let refined = crate::profile::refine_first_peak_clean_into(
                ndft,
                &g.values,
                &scratch.p_final,
                &peak,
                min_sep,
                res_ns,
                &mut scratch.refine,
            );
            let raw_tof_ns = refined / g.delay_scale;
            scratch.fixes.push(GroupFix {
                delay_scale: g.delay_scale,
                n_bands: g.len(),
                raw_tof_ns,
            });
            if want_profiles {
                scratch.profiles.push(GroupEstimate {
                    delay_scale: g.delay_scale,
                    n_bands: g.len(),
                    profile: MultipathProfile {
                        start_ns: grid.start_ns,
                        step_ns: grid.step_ns,
                        magnitudes: scratch.mags.clone(),
                        delay_scale: g.delay_scale,
                    },
                    raw_tof_ns,
                });
            }
        }
        if let Some(e) = primary_error {
            return Err(e);
        }
        if scratch.fixes.is_empty() {
            return Err(ChronosError::NoDominantPath);
        }

        // Primary: most bands. (A couple of groups at most — the stable
        // sorts stay in their allocation-free insertion regime.)
        scratch.fixes.sort_by_key(|e| std::cmp::Reverse(e.n_bands));
        if want_profiles {
            scratch
                .profiles
                .sort_by_key(|e| std::cmp::Reverse(e.n_bands));
        }
        let primary = scratch.fixes[0];
        let mut cross_check_ok = true;
        if scratch.fixes.len() > 1 {
            // The coarse group agrees if some alias of its estimate is
            // within tolerance of the primary.
            let coarse = scratch.fixes[1];
            let alias_period = self.config.grid_span_ns / coarse.delay_scale;
            let diff = (primary.raw_tof_ns - coarse.raw_tof_ns).rem_euclid(alias_period);
            let dist = diff.min(alias_period - diff);
            cross_check_ok = dist < 2.5;
        }

        let tof_ns = primary.raw_tof_ns - self.config.calibration_ns;
        Ok(TofFix {
            tof_ns,
            distance_m: chronos_math::constants::ns_to_m(tof_ns),
            cross_check_ok,
            n_groups: scratch.fixes.len(),
            primary_bands: primary.n_bands,
        })
    }
}

/// Whether `CHRONOS_DEBUG_PEAKS` diagnostics are enabled. Read once: an
/// environment lookup allocates on most platforms, which would break the
/// hot path's zero-alloc contract if checked per candidate.
fn debug_peaks() -> bool {
    static FLAG: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *FLAG.get_or_init(|| std::env::var_os("CHRONOS_DEBUG_PEAKS").is_some())
}

/// `||h - F p||^2` with the forward image staged in `fit`.
fn resid_sq(ndft: &Ndft, h: &[Complex64], p: &[Complex64], fit: &mut Vec<Complex64>) -> f64 {
    ndft.forward_into(p, fit);
    fit.iter()
        .zip(h.iter())
        .map(|(a, b)| (*a - *b).norm_sq())
        .sum::<f64>()
}

/// The first-path rule: chooses the first *physical path* among the
/// dominant peaks of one group's profile (`mags`, the magnitudes of the
/// debiased solution `p_final`).
///
/// The Wi-Fi band plan's clustered spectrum gives the NDFT a fringed
/// point response, and its 20 MHz raster gives it grating lobes, so the
/// sparse solution sometimes carries a small artifact atom before a
/// strong peak. Candidates are the peaks reaching [`PEAK_DOMINANCE`] of
/// the strongest, merged within `min_sep` bins, at or after
/// `min_profile_x_ns` (a path cannot descale below the calibration
/// constant). In delay order, each candidate faces two tests, and the
/// first to pass both is returned:
///
/// 1. **Quiet-zone significance.** Every genuine squared-channel term
///    lies at or after the direct term, so the profile before the first
///    real path holds only noise, aliases and solver leakage. The
///    CLEANed matched-filter response at the candidate (the measurement
///    minus the model of every atom outside its neighbourhood) must reach
///    [`ATOM_SNR_MIN`] times the median response sampled over the zone
///    before it. The test is skipped when that zone is too short to
///    sample.
/// 2. **Relative model comparison**, only for a candidate with a
///    stronger peak after it (the strongest peak is always physical).
///    `r_a` is the residual energy of a debiased refit (at most 18
///    atoms) of the whole support. The alternatives drop the candidate's
///    neighbourhood and refit either the rest alone or the rest plus one
///    seeded source atom at a single grating-lobe offset after the
///    candidate, one hypothesis per lobe cluster (`lobe_offsets_ns`
///    merged within 4 ns). With `r_b_best` the smallest alternative
///    residual, the candidate is accepted only if `r_a > 0` and
///    `r_b_best ≥ (1 + SIDELOBE_VETO_RATIO) · r_a`:
///    removing a real path hurts the fit, while an artifact's energy is
///    re-absorbed by the rest of the support or by its ghost source.
///
/// When every candidate is vetoed the strongest peak is returned.
#[allow(clippy::too_many_arguments)]
fn select_first_path(
    ndft: &Ndft,
    h: &[Complex64],
    p_final: &[Complex64],
    mags: &[f64],
    min_sep: usize,
    min_profile_x_ns: f64,
    lobe_offsets_ns: &[f64],
    sel: &mut SelectScratch,
    debias_ws: &mut DebiasScratch,
) -> Result<chronos_math::peaks::Peak, ChronosError> {
    // The one grid every delay index and x-coordinate below refers to —
    // taken from the operator itself so a mismatch is unrepresentable.
    let grid = ndft.grid();

    // Dominant peaks past the physical-prior cutoff (the profile's
    // `dominant_peaks` + filter, over the scratch magnitude buffer).
    chronos_math::peaks::find_peaks_into(
        mags,
        grid.start_ns,
        grid.step_ns,
        &PeakConfig {
            dominance: PEAK_DOMINANCE,
            min_separation: min_sep.max(1),
        },
        &mut sel.peak_cands,
        &mut sel.peaks_all,
    );
    sel.peaks.clear();
    sel.peaks.extend(
        sel.peaks_all
            .iter()
            .filter(|p| p.x >= min_profile_x_ns)
            .copied(),
    );
    if sel.peaks.is_empty() {
        return Err(ChronosError::NoDominantPath);
    }

    'candidates: for i in 0..sel.peaks.len() {
        let cand = sel.peaks[i];
        // CLEANed matched-filter response with the candidate's
        // neighborhood removed from the model.
        sel.model.clear();
        sel.model.extend_from_slice(p_final);
        let lo = cand.index.saturating_sub(min_sep);
        let hi = (cand.index + min_sep).min(sel.model.len().saturating_sub(1));
        for z in sel.model.iter_mut().take(hi + 1).skip(lo) {
            *z = Complex64::ZERO;
        }
        ndft.forward_into(&sel.model, &mut sel.fit);
        sel.residual.clear();
        sel.residual
            .extend(h.iter().zip(sel.fit.iter()).map(|(a, b)| *a - *b));
        let mf_at = ndft.matched_filter(&sel.residual, cand.x);

        // Test 1: quiet-zone significance.
        let zone_hi = cand.x - 2.0 * grid.step_ns * min_sep as f64;
        if zone_hi > 4.0 * grid.step_ns {
            let step = (zone_hi / 24.0).max(grid.step_ns);
            sel.quiet.clear();
            let mut x = 0.0;
            while x < zone_hi {
                sel.quiet.push(ndft.matched_filter(&sel.residual, x));
                x += step;
            }
            if sel.quiet.len() >= 6 {
                let floor = chronos_math::stats::median_inplace(&mut sel.quiet);
                if debug_peaks() {
                    eprintln!(
                        "[peaks] cand x={:.2} mag={:.4} mf={:.4} quiet_floor={:.4}",
                        cand.x, cand.magnitude, mf_at, floor
                    );
                }
                if mf_at < ATOM_SNR_MIN * floor {
                    continue 'candidates; // not significant above leakage
                }
            }
        }

        // Test 2: relative model comparison, for a candidate with a
        // stronger peak after it. A grating ghost's true source may be
        // *absent* from the sparse support (the ghost atom stole its
        // energy), hence the seeded source hypotheses.
        let suspicious = sel
            .peaks
            .iter()
            .skip(i + 1)
            .any(|later| later.magnitude > cand.magnitude);
        if suspicious {
            // A grating ghost has exactly ONE source, one lobe offset away,
            // so each hypothesis seeds a single atom: seeding all offsets
            // at once would hand the alternative an overcomplete basis
            // that can explain *any* atom. The baseline keeps the
            // candidate (same refit budget everywhere, so the comparison
            // is fair).
            debias_into(ndft, h, p_final, 18, 3, debias_ws, &mut sel.debias_out);
            let r_a = resid_sq(ndft, h, &sel.debias_out, &mut sel.fit);

            // Cluster lobe offsets within 4 ns (fringes of one envelope).
            sel.clusters.clear();
            for d in lobe_offsets_ns {
                if sel
                    .clusters
                    .last()
                    .map(|c| (d - c).abs() > 4.0)
                    .unwrap_or(true)
                {
                    sel.clusters.push(*d);
                }
            }

            // `sel.model` already holds the support minus the candidate's
            // neighborhood (built for the CLEANed matched filter above).

            // Hypotheses: no alternative source, or one seed per cluster.
            debias_into(ndft, h, &sel.model, 18, 3, debias_ws, &mut sel.debias_out);
            let mut r_b_best = resid_sq(ndft, h, &sel.debias_out, &mut sel.fit);
            for ci in 0..sel.clusters.len() {
                let d = sel.clusters[ci];
                let x_img = cand.x + d;
                let idx = ((x_img - grid.start_ns) / grid.step_ns).round() as isize;
                if idx < 0 || (idx as usize) >= sel.model.len() {
                    continue;
                }
                sel.hyp.clear();
                let model = &sel.model;
                sel.hyp.extend_from_slice(model);
                if sel.hyp[idx as usize].abs() < 1e-12 {
                    sel.hyp[idx as usize] = Complex64::from_re(cand.magnitude);
                }
                debias_into(ndft, h, &sel.hyp, 18, 3, debias_ws, &mut sel.debias_out);
                let r = resid_sq(ndft, h, &sel.debias_out, &mut sel.fit);
                r_b_best = r_b_best.min(r);
            }
            // Relative, not absolute: an n*|a|^2-scaled threshold fails
            // both ways — too strict in dense multipath where neighbors
            // legitimately absorb part of any atom's footprint, too lax
            // against noise atoms whose removal always costs their own
            // (noise) energy.
            let relative_ok = r_a > 0.0 && r_b_best >= (1.0 + SIDELOBE_VETO_RATIO) * r_a;
            if debug_peaks() {
                eprintln!(
                    "[veto] cand x={:.2} mag={:.4} r_a={:.4} r_b={:.4} rel={}",
                    cand.x, cand.magnitude, r_a, r_b_best, relative_ok
                );
            }
            if !relative_ok {
                continue 'candidates; // artifact: an alternative explains it
            }
        }
        return Ok(cand);
    }
    // Every candidate vetoed: fall back to the strongest peak (a safe,
    // always-physical choice).
    sel.peaks
        .iter()
        .copied()
        .max_by(|a, b| a.magnitude.partial_cmp(&b.magnitude).unwrap())
        .ok_or(ChronosError::NoDominantPath)
}

/// Synthesizes a [`BandProduct`] directly from path delays — a test/ablation
/// helper that bypasses CSI synthesis (genie products).
pub fn genie_product(freq_hz: f64, paths: &[(f64, f64)], delay_scale: f64) -> BandProduct {
    use std::f64::consts::PI;
    let mut h = Complex64::ZERO;
    for (tau_ns, a) in paths {
        h += Complex64::from_polar(*a, -2.0 * PI * freq_hz * tau_ns * 1e-9);
    }
    let value = match delay_scale as u32 {
        2 => h * h,
        8 => (h * h).powi(4),
        _ => h,
    };
    BandProduct {
        freq_hz,
        value,
        exchanges: 1,
        delay_scale,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::SweepPipeline;
    use chronos_rf::bands::{band_plan, band_plan_5ghz};

    /// One estimate on a fresh pipeline.
    fn estimate(est: &TofEstimator, products: &[BandProduct]) -> Result<TofEstimate, ChronosError> {
        SweepPipeline::new().estimate_from_products(est, products)
    }

    fn genie_products_5g(paths: &[(f64, f64)]) -> Vec<BandProduct> {
        band_plan_5ghz()
            .iter()
            .map(|b| genie_product(b.center_hz, paths, 2.0))
            .collect()
    }

    #[test]
    fn single_path_estimate_subnanosecond() {
        let est = TofEstimator::new(ChronosConfig::ideal());
        let tau = 17.3;
        let r = estimate(&est, &genie_products_5g(&[(tau, 1.0)])).unwrap();
        assert!((r.tof_ns - tau).abs() < 0.05, "tof {}", r.tof_ns);
        assert!((r.distance_m - chronos_math::constants::ns_to_m(tau)).abs() < 0.02);
    }

    #[test]
    fn multipath_first_peak_wins() {
        let est = TofEstimator::new(ChronosConfig::ideal());
        let paths = [(10.0, 0.8), (14.0, 1.0), (21.0, 0.6)];
        let r = estimate(&est, &genie_products_5g(&paths)).unwrap();
        assert!((r.tof_ns - 10.0).abs() < 0.25, "tof {}", r.tof_ns);
    }

    #[test]
    fn calibration_shifts_estimate() {
        let mut cfg = ChronosConfig::ideal();
        cfg.calibration_ns = 6.0;
        let est = TofEstimator::new(cfg);
        let r = estimate(&est, &genie_products_5g(&[(16.0, 1.0)])).unwrap();
        assert!((r.tof_ns - 10.0).abs() < 0.05, "tof {}", r.tof_ns);
    }

    #[test]
    fn mixed_groups_fuse_with_cross_check() {
        // 5 GHz at scale 2 plus 2.4 GHz at scale 8, consistent truth.
        let tau = 9.4;
        let mut products = genie_products_5g(&[(tau, 1.0)]);
        for b in band_plan().iter().filter(|b| b.group.is_2g4()) {
            products.push(genie_product(b.center_hz, &[(tau, 1.0)], 8.0));
        }
        let est = TofEstimator::new(ChronosConfig::default());
        let r = estimate(&est, &products).unwrap();
        assert!((r.tof_ns - tau).abs() < 0.1, "tof {}", r.tof_ns);
        assert!(r.cross_check_ok);
        assert_eq!(r.groups.len(), 2);
        assert_eq!(r.groups[0].n_bands, 24); // 5 GHz primary
    }

    #[test]
    fn inconsistent_coarse_group_flags_cross_check() {
        let mut products = genie_products_5g(&[(9.4, 1.0)]);
        // Coarse group sees a *different* (inconsistent) delay.
        for b in band_plan().iter().filter(|b| b.group.is_2g4()) {
            products.push(genie_product(b.center_hz, &[(18.0, 1.0)], 8.0));
        }
        let est = TofEstimator::new(ChronosConfig::default());
        let r = estimate(&est, &products).unwrap();
        assert!(
            (r.tof_ns - 9.4).abs() < 0.2,
            "primary unaffected: {}",
            r.tof_ns
        );
        assert!(!r.cross_check_ok, "cross-check should flag inconsistency");
    }

    #[test]
    fn too_few_bands_rejected() {
        let est = TofEstimator::new(ChronosConfig::ideal());
        let products: Vec<BandProduct> = band_plan_5ghz()
            .iter()
            .take(3)
            .map(|b| genie_product(b.center_hz, &[(5.0, 1.0)], 2.0))
            .collect();
        assert!(matches!(
            estimate(&est, &products),
            Err(ChronosError::TooFewBands { got: 3, need: 5 })
        ));
    }

    #[test]
    fn profile_has_sparse_dominant_peaks() {
        let est = TofEstimator::new(ChronosConfig::ideal());
        let paths = [(8.0, 1.0), (12.5, 0.7), (18.0, 0.5), (26.0, 0.35)];
        let r = estimate(&est, &genie_products_5g(&paths)).unwrap();
        let count = r.groups[0].profile.peak_count(0.15);
        // 4 paths -> up to 10 squared-channel terms; a split atom may add
        // one more. Must stay sparse regardless.
        assert!((3..=12).contains(&count), "count {count}");
    }

    #[test]
    fn close_range_accuracy_paper_example() {
        // The paper's running example: 0.6 m, tau = 2 ns.
        let est = TofEstimator::new(ChronosConfig::ideal());
        let tau = chronos_math::constants::m_to_ns(0.6);
        let r = estimate(&est, &genie_products_5g(&[(tau, 1.0)])).unwrap();
        assert!((r.tof_ns - tau).abs() < 0.05, "tof {}", r.tof_ns);
    }

    #[test]
    fn empty_input_is_error() {
        let est = TofEstimator::new(ChronosConfig::ideal());
        assert!(estimate(&est, &[]).is_err());
        assert!(estimate(&est, &est.products(&[BandSample::default()]).unwrap()).is_err());
    }

    #[test]
    fn all_zero_products_have_no_dominant_path() {
        // A full band set with no energy: the solve, the refit and the
        // profile are all zero, so the first-path rule finds no peak.
        let est = TofEstimator::new(ChronosConfig::ideal());
        let products = genie_products_5g(&[]);
        assert!(products.iter().all(|p| p.value == Complex64::ZERO));
        assert_eq!(
            estimate(&est, &products).unwrap_err(),
            ChronosError::NoDominantPath
        );
    }
}
