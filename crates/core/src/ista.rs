//! Sparse inverse-NDFT by proximal gradient descent — the paper's
//! Algorithm 1 (§6.2).
//!
//! The inversion problem is under-determined (tens of measurements, hundreds
//! of grid delays), so Chronos regularizes it with an L1 penalty that favors
//! profiles with few dominant paths:
//!
//! ```text
//! minimize  || h - F p ||_2^2  +  alpha * || p ||_1
//! ```
//!
//! The solver alternates a gradient step on the smooth term with a complex
//! soft-threshold (the paper's SPARSIFY): magnitudes shrink by the
//! threshold, phases are preserved, and anything below the threshold
//! becomes exactly zero. We also provide FISTA acceleration (Nesterov
//! momentum) as a documented extension — same fixed points, fewer
//! iterations — selectable via [`IstaConfig::accelerated`].

use crate::ndft::Ndft;
use chronos_math::cmatrix::CMat;
use chronos_math::cvec;
use chronos_math::Complex64;

/// Solver settings.
#[derive(Debug, Clone, Copy)]
pub struct IstaConfig {
    /// Sparsity weight relative to `max |F* h|`. 0 disables shrinkage;
    /// 1 zeroes every component on the first step.
    pub alpha_rel: f64,
    /// Iteration cap.
    pub max_iters: usize,
    /// Convergence threshold on `||p_{t+1} - p_t||_2` (the paper's
    /// epsilon), relative to `||p_t||_2 + 1`.
    pub epsilon: f64,
    /// Enable FISTA momentum.
    pub accelerated: bool,
}

impl Default for IstaConfig {
    fn default() -> Self {
        IstaConfig {
            alpha_rel: 0.12,
            max_iters: 400,
            epsilon: 1e-6,
            accelerated: true,
        }
    }
}

/// Complex soft-threshold: shrinks magnitude by `t`, zeroing anything
/// smaller (the paper's SPARSIFY function, generalized to complex values).
pub fn sparsify(p: &mut [Complex64], t: f64) {
    if t <= 0.0 {
        return;
    }
    for z in p.iter_mut() {
        let mag = z.abs();
        if mag <= t {
            *z = Complex64::ZERO;
        } else {
            *z = z.scale((mag - t) / mag);
        }
    }
}

/// Reusable solver buffers: the split planes [`solve_planned_into`]
/// iterates in, and the interleaved iterates, extrapolation point and
/// forward/adjoint images of the scalar reference
/// [`solve_planned_into_scalar`] (untouched by the lane-chunked body).
///
/// Allocated once (typically per engine worker, inside a
/// [`crate::pipeline::SweepPipeline`]); every later solve of any size up
/// to the largest seen reuses the capacity, so steady-state inversions
/// perform **zero heap allocations**.
#[derive(Debug, Clone, Default)]
pub struct IstaScratch {
    /// Current iterate of the scalar reference; holds the solution after
    /// either solve.
    p: Vec<Complex64>,
    /// FISTA extrapolation point.
    y: Vec<Complex64>,
    /// Gradient-step target, swapped with `p` each iteration.
    next: Vec<Complex64>,
    /// Forward image / residual buffer (measurement length).
    fy: Vec<Complex64>,
    /// Adjoint image / gradient buffer (grid length).
    grad: Vec<Complex64>,
    /// Structure-of-arrays mirrors of the iterates for the lane-chunked
    /// solver body.
    split: SplitScratch,
}

/// Split re/im planes of every buffer of [`solve_planned_into`]. The
/// FISTA extrapolation point `y` is never materialized — the fused
/// kernel recomputes it in registers from the current and previous
/// iterates — so the scratch holds the two iterates plus their nonzero
/// index lists instead.
#[derive(Debug, Clone, Default)]
struct SplitScratch {
    p_re: Vec<f64>,
    p_im: Vec<f64>,
    prev_re: Vec<f64>,
    prev_im: Vec<f64>,
    next_re: Vec<f64>,
    next_im: Vec<f64>,
    fy_re: Vec<f64>,
    fy_im: Vec<f64>,
    /// Squared candidate magnitudes of the fused step's shrink pass.
    sq: Vec<f64>,
    /// Polyphase partial sums `S` of a raster plan's adjoint
    /// ([`Ndft::fused_prox_step_split`]), real plane then imaginary:
    /// `2 C P` entries, at most twice the grid length, which every solve
    /// reserves up front.
    sums: Vec<f64>,
    h_re: Vec<f64>,
    h_im: Vec<f64>,
    /// Ascending nonzero indices of `p` / `prev` / `next`.
    supp_p: Vec<u32>,
    supp_prev: Vec<u32>,
    supp_next: Vec<u32>,
}

impl IstaScratch {
    /// Fresh, empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// The sparse profile produced by the most recent
    /// [`solve_planned_into`] (or [`solve_planned_into_scalar`]) call.
    pub fn solution(&self) -> &[Complex64] {
        &self.p
    }
}

/// Scalar outcome of a scratch solve; the profile stays in the scratch.
#[derive(Debug, Clone, Copy)]
pub struct IstaStats {
    /// Iterations performed.
    pub iterations: usize,
    /// Whether the epsilon criterion was met before the cap.
    pub converged: bool,
    /// Final data-fit residual `||h - F p||_2`.
    pub residual: f64,
}

/// The scalar reference for [`solve_planned_into`]: the same algorithm
/// over interleaved complex buffers and the dense scalar
/// [`Ndft::forward_into`]/[`Ndft::adjoint_into`]. No estimate runs it;
/// the solver tests measure the lane-chunked body against it, and
/// `ista::tests::ping_pong_buffers_pin_reference_convergence` pins it
/// bit for bit to the historical per-iteration-allocating loop.
///
/// Proximal gradient with the step size derived from the plan's
/// spectral norm. The FISTA extrapolation ping-pongs `p`/`next` (a
/// pointer swap) instead of cloning the iterate every step; all
/// arithmetic — order included — matches the historical
/// per-iteration-allocating loop exactly.
pub fn solve_planned_into_scalar(
    plan: &crate::plan::NdftPlan,
    h: &[Complex64],
    cfg: &IstaConfig,
    scratch: &mut IstaScratch,
) -> IstaStats {
    let ndft = &plan.ndft;
    let m = ndft.n_taus();
    assert_eq!(
        h.len(),
        ndft.n_freqs(),
        "solve: measurement length mismatch"
    );

    // Step size: 1 / L with L = 2 ||F||^2 (gradient of ||h - Fp||^2 is
    // 2 F*(Fp - h)); power iteration gives ||F||.
    let op_norm = plan.op_norm.max(1e-12);
    let gamma = 1.0 / (2.0 * op_norm * op_norm);

    // Threshold from the adjoint image of the data: alpha_rel = 1 would
    // zero the first iterate entirely.
    ndft.adjoint_into(h, &mut scratch.grad);
    let alpha = cfg.alpha_rel * cvec::norm_inf(&scratch.grad) * 2.0; // matches L scaling
    let thresh = gamma * alpha;

    let IstaScratch {
        p,
        y,
        next,
        fy,
        grad,
        ..
    } = scratch;
    p.clear();
    p.resize(m, Complex64::ZERO);
    y.clear();
    y.resize(m, Complex64::ZERO); // FISTA extrapolation point
    next.clear();
    next.resize(m, Complex64::ZERO);
    let mut t_momentum = 1.0f64;
    let mut iterations = 0;
    let mut converged = false;

    for _ in 0..cfg.max_iters {
        iterations += 1;
        // Gradient step at y: y - gamma * 2 F*(F y - h).
        ndft.forward_into(y, fy);
        for (r, hi) in fy.iter_mut().zip(h.iter()) {
            *r -= *hi;
        }
        ndft.adjoint_into(fy, grad);
        for ((n, yi), gi) in next.iter_mut().zip(y.iter()).zip(grad.iter()) {
            *n = *yi - gi.scale(2.0 * gamma);
        }
        sparsify(next, thresh);

        let delta = cvec::dist2(next, p);
        let scale = cvec::norm2(p) + 1.0;

        if cfg.accelerated {
            let t_next = 0.5 * (1.0 + (1.0 + 4.0 * t_momentum * t_momentum).sqrt());
            let beta = (t_momentum - 1.0) / t_next;
            for ((yi, n), o) in y.iter_mut().zip(next.iter()).zip(p.iter()) {
                *yi = *n + (*n - *o).scale(beta);
            }
            t_momentum = t_next;
        } else {
            y.copy_from_slice(next);
        }
        // `p <- next`; the old iterate's buffer becomes the next target
        // (fully overwritten before it is read again).
        std::mem::swap(p, next);

        if delta < cfg.epsilon * scale {
            converged = true;
            break;
        }
    }

    ndft.forward_into(p, fy);
    for (r, hi) in fy.iter_mut().zip(h.iter()) {
        *r -= *hi;
    }
    let residual = cvec::norm2(fy);

    IstaStats {
        iterations,
        converged,
        residual,
    }
}

/// Sparse inversion of `h` under a precomputed plan (see
/// [`crate::plan::PlanCache`]), which supplies the operator and its
/// spectral norm. Runs in a reusable scratch arena: zero heap
/// allocations once the scratch has seen the problem size, and a dirty
/// scratch gives the same bits as a fresh one (pinned by a proptest in
/// `tests/alloc.rs`). The solution is read from
/// [`IstaScratch::solution`].
///
/// The lane-chunked structure-of-arrays body: the algorithm and
/// iteration structure of [`solve_planned_into_scalar`], with every
/// complex buffer split into re/im planes so the
/// gradient/momentum/threshold loops and the NDFT kernels vectorize, and
/// the polyphase adjoint on raster plans. Reductions use the
/// 4-accumulator lanes of [`chronos_math::lanes`], so the iterates
/// follow the scalar reference within a tolerance (≤ 1e-12 relative per
/// kernel application, the whole solve within 1e-6 of the profile peak)
/// rather than bit for bit; the final solution is published back to the
/// interleaved [`IstaScratch::solution`] buffer.
pub fn solve_planned_into(
    plan: &crate::plan::NdftPlan,
    h: &[Complex64],
    cfg: &IstaConfig,
    scratch: &mut IstaScratch,
) -> IstaStats {
    use chronos_math::lanes;

    let ndft = &plan.ndft;
    let m = ndft.n_taus();
    assert_eq!(
        h.len(),
        ndft.n_freqs(),
        "solve: measurement length mismatch"
    );

    let op_norm = plan.op_norm.max(1e-12);
    let gamma = 1.0 / (2.0 * op_norm * op_norm);

    let SplitScratch {
        p_re,
        p_im,
        prev_re,
        prev_im,
        next_re,
        next_im,
        fy_re,
        fy_im,
        sq,
        sums,
        h_re,
        h_im,
        supp_p,
        supp_prev,
        supp_next,
    } = &mut scratch.split;

    h_re.clear();
    h_re.extend(h.iter().map(|z| z.re));
    h_im.clear();
    h_im.extend(h.iter().map(|z| z.im));

    // Every raster plan on this grid needs `C P <= m` partial sums per
    // plane; reserving both planes' worst case keeps a warm scratch
    // allocation-free across plans of different shape.
    sums.clear();
    sums.reserve(2 * m);
    // The data's adjoint image only sets the threshold, so it borrows
    // the `next` planes, which are zeroed below before the first step.
    ndft.adjoint_split_into(h_re, h_im, sums, next_re, next_im);
    let alpha = cfg.alpha_rel * lanes::norm_inf_split(next_re, next_im) * 2.0;
    let thresh = gamma * alpha;

    for buf in [
        &mut *p_re,
        &mut *p_im,
        &mut *prev_re,
        &mut *prev_im,
        &mut *next_re,
        &mut *next_im,
        &mut *sq,
    ] {
        buf.clear();
        buf.resize(m, 0.0);
    }
    // Support lists hold at most m indices; reserving the worst case up
    // front makes scratch warmth independent of the measurement (a
    // pool-warmed arena stays allocation-free even when a later client's
    // support is larger than the warm-up client's).
    for supp in [&mut *supp_p, &mut *supp_prev, &mut *supp_next] {
        supp.clear();
        supp.reserve(m);
    }
    let g2 = 2.0 * gamma;
    let mut t_momentum = 1.0f64;
    // Momentum coefficient of the *current* extrapolation point:
    // y = p + beta * (p - prev). Zero for the first iteration (y_1 = 0)
    // and permanently zero for plain (non-accelerated) ISTA.
    let mut beta = 0.0f64;
    let mut iterations = 0;
    let mut converged = false;

    for _ in 0..cfg.max_iters {
        iterations += 1;
        // fy = F y - h, with y recomputed on its (tiny) support — then
        // one fused register-tiled pass computes
        // `next = SPARSIFY(y - g2 * F* fy)` together with both
        // convergence reductions and the support of `next`. Neither the
        // extrapolation point nor the gradient ever hits memory as a
        // full-grid buffer (see [`Ndft::fused_prox_step_split`]).
        ndft.forward_extrapolated_split(
            p_re, p_im, prev_re, prev_im, beta, supp_p, supp_prev, fy_re, fy_im,
        );
        for (r, hv) in fy_re.iter_mut().zip(h_re.iter()) {
            *r -= *hv;
        }
        for (r, hv) in fy_im.iter_mut().zip(h_im.iter()) {
            *r -= *hv;
        }
        let (delta2, pnorm2) = ndft.fused_prox_step_split(
            fy_re, fy_im, p_re, p_im, prev_re, prev_im, beta, g2, thresh, next_re, next_im, sq,
            sums, supp_next,
        );
        let delta = delta2.sqrt();
        let scale = pnorm2.sqrt() + 1.0;

        // Momentum coefficient for the next iteration's extrapolation.
        if cfg.accelerated {
            let t_next = 0.5 * (1.0 + (1.0 + 4.0 * t_momentum * t_momentum).sqrt());
            beta = (t_momentum - 1.0) / t_next;
            t_momentum = t_next;
        }
        // Rotate iterates: prev <- p, p <- next (plus their supports).
        std::mem::swap(prev_re, p_re);
        std::mem::swap(prev_im, p_im);
        std::mem::swap(p_re, next_re);
        std::mem::swap(p_im, next_im);
        std::mem::swap(supp_prev, supp_p);
        std::mem::swap(supp_p, supp_next);

        if delta < cfg.epsilon * scale {
            converged = true;
            break;
        }
    }

    // Final residual ||F p - h||: beta = 0 reduces the extrapolated
    // forward to a plain support-restricted `F p`.
    ndft.forward_extrapolated_split(
        p_re, p_im, prev_re, prev_im, 0.0, supp_p, supp_prev, fy_re, fy_im,
    );
    for (r, hv) in fy_re.iter_mut().zip(h_re.iter()) {
        *r -= *hv;
    }
    for (r, hv) in fy_im.iter_mut().zip(h_im.iter()) {
        *r -= *hv;
    }
    let residual = lanes::norm2_split(fy_re, fy_im);

    // Publish the interleaved solution so `IstaScratch::solution()` and
    // everything downstream (debias, profile extraction) see one format.
    scratch.p.clear();
    scratch.p.extend(
        p_re.iter()
            .zip(p_im.iter())
            .map(|(r, i)| Complex64::new(*r, *i)),
    );

    IstaStats {
        iterations,
        converged,
        residual,
    }
}

/// Reusable working storage for [`debias_into`]: support ranking, the
/// atom matrix and the least-squares workspace.
#[derive(Debug, Clone, Default)]
pub struct DebiasScratch {
    idx: Vec<usize>,
    chosen: Vec<usize>,
    atoms: CMat,
    lstsq: chronos_math::cmatrix::CLstsqScratch,
    w: Vec<Complex64>,
}

/// LASSO **debiasing**: refits the amplitudes of the detected support by
/// unpenalized least squares, undoing the soft-threshold's shrinkage bias.
///
/// The L1 penalty that makes support detection work also shrinks every
/// surviving amplitude by roughly the threshold — enough to push a weak
/// direct path below the peak-dominance cut, and to leave spurious sidelobe
/// atoms with inflated relative weight. The standard cure is a two-step
/// estimator: keep ISTA's support, solve `min ||h - F_S w||_2` on it.
///
/// At most `max_atoms` strongest support atoms are refit (the system must
/// stay overdetermined: `max_atoms <= n_freqs / 2` is sensible), separated
/// by at least `min_sep` grid bins to avoid near-collinear columns. The
/// output is zero off the refit support. Runs in a reusable workspace
/// and output buffer: zero heap allocations once the buffers have seen
/// the problem size.
pub fn debias_into(
    ndft: &Ndft,
    h: &[Complex64],
    p: &[Complex64],
    max_atoms: usize,
    min_sep: usize,
    ws: &mut DebiasScratch,
    out: &mut Vec<Complex64>,
) {
    assert_eq!(p.len(), ndft.n_taus(), "debias: profile length mismatch");
    // Rank support by magnitude (ties broken by grid index, which the
    // filter produced in ascending order — the stable-sort order).
    ws.idx.clear();
    ws.idx.extend((0..p.len()).filter(|k| p[*k].abs() > 1e-12));
    ws.idx.sort_unstable_by(|a, b| {
        p[*b]
            .abs()
            .partial_cmp(&p[*a].abs())
            .unwrap()
            .then(a.cmp(b))
    });
    let chosen = &mut ws.chosen;
    chosen.clear();
    for k in ws.idx.iter().copied() {
        if chosen.len() >= max_atoms {
            break;
        }
        if chosen.iter().all(|c| c.abs_diff(k) >= min_sep.max(1)) {
            chosen.push(k);
        }
    }
    if chosen.is_empty() {
        out.clear();
        out.resize(p.len(), Complex64::ZERO);
        return;
    }
    chosen.sort_unstable();

    // Build the atom matrix: columns are steering vectors at the chosen
    // grid delays.
    let grid = ndft.grid();
    ws.atoms.reset(ndft.n_freqs(), chosen.len());
    for (j, k) in chosen.iter().enumerate() {
        let tau_s = grid.tau_at(*k) * 1e-9;
        for (i, f) in ndft.freqs_hz().iter().enumerate() {
            ws.atoms.set(
                i,
                j,
                Complex64::cis(-2.0 * std::f64::consts::PI * f * tau_s),
            );
        }
    }
    // The normal-equations build (`A^H A`, `A^H b`) is lane-chunked;
    // the scalar `lstsq_into` is its reference (refit weights agree to
    // ≤ 1e-12 relative — pinned by `debias_simd_tracks_scalar_reference`
    // and the kernel proptest in `tests/properties.rs`).
    match ws.atoms.lstsq_into_lanes(h, &mut ws.lstsq, &mut ws.w) {
        Ok(()) => {
            out.clear();
            out.resize(p.len(), Complex64::ZERO);
            for (k, wi) in chosen.iter().zip(ws.w.iter()) {
                out[*k] = *wi;
            }
        }
        // Refit can fail for pathological supports; fall back to the
        // biased estimate rather than nothing.
        Err(_) => {
            out.clear();
            out.extend_from_slice(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ndft::TauGrid;
    use crate::plan::NdftPlan;
    use chronos_rf::bands::band_plan_5ghz;
    use std::f64::consts::PI;

    fn freqs() -> Vec<f64> {
        band_plan_5ghz().iter().map(|b| b.center_hz).collect()
    }

    /// The operator and its norm, which is all the solver reads of a
    /// plan (a zero lobe span skips the lobe scan).
    fn solver_plan(freqs: &[f64], grid: TauGrid) -> NdftPlan {
        NdftPlan::new(freqs, grid, 0.0)
    }

    /// One solve on a fresh scratch: the profile and the stats.
    fn solve_fresh(
        plan: &NdftPlan,
        h: &[Complex64],
        cfg: &IstaConfig,
    ) -> (Vec<Complex64>, IstaStats) {
        let mut scratch = IstaScratch::new();
        let stats = solve_planned_into(plan, h, cfg, &mut scratch);
        (scratch.p, stats)
    }

    /// One refit on a fresh workspace.
    fn debias_fresh(
        ndft: &Ndft,
        h: &[Complex64],
        p: &[Complex64],
        max_atoms: usize,
        min_sep: usize,
    ) -> Vec<Complex64> {
        let mut out = Vec::new();
        debias_into(
            ndft,
            h,
            p,
            max_atoms,
            min_sep,
            &mut DebiasScratch::default(),
            &mut out,
        );
        out
    }

    fn channel_for(paths: &[(f64, f64)], freqs: &[f64]) -> Vec<Complex64> {
        freqs
            .iter()
            .map(|f| {
                let mut h = Complex64::ZERO;
                for (tau_ns, a) in paths {
                    h += Complex64::from_polar(*a, -2.0 * PI * f * tau_ns * 1e-9);
                }
                h
            })
            .collect()
    }

    #[test]
    fn sparsify_behaviour() {
        let mut p = vec![
            Complex64::from_polar(1.0, 0.3),
            Complex64::from_polar(0.05, -1.0),
            Complex64::ZERO,
        ];
        sparsify(&mut p, 0.1);
        assert!((p[0].abs() - 0.9).abs() < 1e-12);
        assert!((p[0].arg() - 0.3).abs() < 1e-12, "phase must be preserved");
        assert_eq!(p[1], Complex64::ZERO);
        assert_eq!(p[2], Complex64::ZERO);
        // Zero threshold is a no-op.
        let mut q = vec![Complex64::from_polar(0.5, 1.0)];
        sparsify(&mut q, 0.0);
        assert!((q[0].abs() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn recovers_single_path_on_grid() {
        let f = freqs();
        let grid = TauGrid::span(50.0, 0.5);
        let h = channel_for(&[(10.0, 1.0)], &f);
        let (p, stats) = solve_fresh(&solver_plan(&f, grid), &h, &IstaConfig::default());
        // The largest component must sit at tau = 10 ns (index 20).
        let (idx, _) = p
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).unwrap())
            .unwrap();
        assert_eq!(idx, 20, "peak at {} ns", grid.tau_at(idx));
        assert!(stats.residual < 0.3 * (f.len() as f64).sqrt());
    }

    #[test]
    fn recovers_three_paths_fig4() {
        // The paper's Fig. 4 scenario: 5.2, 10, 16 ns with falling power.
        let f = freqs();
        let grid = TauGrid::span(40.0, 0.2);
        let h = channel_for(&[(5.2, 1.0), (10.0, 0.7), (16.0, 0.4)], &f);
        let (p, _) = solve_fresh(
            &solver_plan(&f, grid),
            &h,
            &IstaConfig {
                alpha_rel: 0.08,
                ..Default::default()
            },
        );
        let mags: Vec<f64> = p.iter().map(|z| z.abs()).collect();
        let peaks = chronos_math::peaks::find_peaks(
            &mags,
            0.0,
            0.2,
            &chronos_math::peaks::PeakConfig {
                dominance: 0.2,
                min_separation: 4,
            },
        );
        assert!(peaks.len() >= 3, "found {} peaks", peaks.len());
        assert!((peaks[0].x - 5.2).abs() < 0.4, "first peak {}", peaks[0].x);
        // Find peaks near 10 and 16.
        assert!(peaks.iter().any(|p| (p.x - 10.0).abs() < 0.5));
        assert!(peaks.iter().any(|p| (p.x - 16.0).abs() < 0.6));
    }

    #[test]
    fn solution_is_sparse() {
        let f = freqs();
        let grid = TauGrid::span(100.0, 0.5);
        let h = channel_for(&[(7.0, 1.0), (22.0, 0.5)], &f);
        let (p, _) = solve_fresh(&solver_plan(&f, grid), &h, &IstaConfig::default());
        let nonzero = p.iter().filter(|z| z.abs() > 1e-9).count();
        // 200 grid points, but only a handful alive.
        assert!(nonzero < 30, "nonzero {nonzero}");
        assert!(nonzero >= 2);
    }

    #[test]
    fn larger_alpha_is_sparser() {
        let f = freqs();
        let grid = TauGrid::span(60.0, 0.5);
        let plan = solver_plan(&f, grid);
        let h = channel_for(&[(5.0, 1.0), (9.0, 0.6), (14.0, 0.3), (20.0, 0.2)], &f);
        let count = |alpha: f64| {
            let (p, _) = solve_fresh(
                &plan,
                &h,
                &IstaConfig {
                    alpha_rel: alpha,
                    ..Default::default()
                },
            );
            p.iter().filter(|z| z.abs() > 1e-9).count()
        };
        assert!(
            count(0.4) <= count(0.05),
            "{} > {}",
            count(0.4),
            count(0.05)
        );
    }

    #[test]
    fn ista_and_fista_agree() {
        let f = freqs();
        let grid = TauGrid::span(50.0, 0.5);
        let plan = solver_plan(&f, grid);
        let h = channel_for(&[(12.0, 1.0), (19.0, 0.5)], &f);
        let (plain_p, plain) = solve_fresh(
            &plan,
            &h,
            &IstaConfig {
                accelerated: false,
                max_iters: 4000,
                epsilon: 1e-9,
                ..Default::default()
            },
        );
        let (fast_p, fast) = solve_fresh(
            &plan,
            &h,
            &IstaConfig {
                accelerated: true,
                max_iters: 4000,
                epsilon: 1e-9,
                ..Default::default()
            },
        );
        // Peak locations agree.
        let argmax = |p: &[Complex64]| {
            p.iter()
                .enumerate()
                .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).unwrap())
                .unwrap()
                .0
        };
        assert_eq!(argmax(&plain_p), argmax(&fast_p));
        // FISTA converges in fewer iterations.
        assert!(
            fast.iterations <= plain.iterations,
            "{} vs {}",
            fast.iterations,
            plain.iterations
        );
    }

    #[test]
    fn noise_does_not_create_spurious_dominant_peaks() {
        let f = freqs();
        let grid = TauGrid::span(60.0, 0.5);
        let mut h = channel_for(&[(8.0, 1.0)], &f);
        // Deterministic pseudo-noise at ~5% amplitude.
        for (i, z) in h.iter_mut().enumerate() {
            *z += Complex64::from_polar(0.05, (i as f64 * 2.399) % (2.0 * PI));
        }
        let (p, _) = solve_fresh(&solver_plan(&f, grid), &h, &IstaConfig::default());
        let mags: Vec<f64> = p.iter().map(|z| z.abs()).collect();
        let peaks = chronos_math::peaks::find_peaks(
            &mags,
            0.0,
            0.5,
            &chronos_math::peaks::PeakConfig {
                dominance: 0.3,
                min_separation: 3,
            },
        );
        assert_eq!(peaks.len(), 1, "spurious peaks: {peaks:?}");
        assert!((peaks[0].x - 8.0).abs() < 0.5);
    }

    #[test]
    fn empty_measurement_panics_cleanly() {
        let plan = solver_plan(&[5e9], TauGrid::span(10.0, 1.0));
        let (p, stats) = solve_fresh(&plan, &[Complex64::ZERO], &IstaConfig::default());
        // All-zero input: all-zero output, converged.
        assert!(p.iter().all(|z| *z == Complex64::ZERO));
        assert!(stats.converged);
    }

    /// A literal transcription of the pre-refactor solver loop (fresh
    /// `Vec` per iteration, `clone()`-based FISTA extrapolation), kept
    /// only to pin the ping-pong rewrite bit for bit.
    fn reference_solve(
        ndft: &Ndft,
        h: &[Complex64],
        cfg: &IstaConfig,
        op_norm: f64,
    ) -> (Vec<Complex64>, IstaStats) {
        let m = ndft.n_taus();
        let op_norm = op_norm.max(1e-12);
        let gamma = 1.0 / (2.0 * op_norm * op_norm);
        let atb = ndft.adjoint(h);
        let alpha = cfg.alpha_rel * chronos_math::cvec::norm_inf(&atb) * 2.0;
        let thresh = gamma * alpha;
        let mut p = vec![Complex64::ZERO; m];
        let mut y = p.clone();
        let mut t_momentum = 1.0f64;
        let mut iterations = 0;
        let mut converged = false;
        for _ in 0..cfg.max_iters {
            iterations += 1;
            let fy = ndft.forward(&y);
            let mut resid = fy;
            for (r, hi) in resid.iter_mut().zip(h.iter()) {
                *r -= *hi;
            }
            let grad = ndft.adjoint(&resid);
            let mut next: Vec<Complex64> = y
                .iter()
                .zip(grad.iter())
                .map(|(yi, gi)| *yi - gi.scale(2.0 * gamma))
                .collect();
            sparsify(&mut next, thresh);
            let delta = chronos_math::cvec::dist2(&next, &p);
            let scale = chronos_math::cvec::norm2(&p) + 1.0;
            if cfg.accelerated {
                let t_next = 0.5 * (1.0 + (1.0 + 4.0 * t_momentum * t_momentum).sqrt());
                let beta = (t_momentum - 1.0) / t_next;
                y = next
                    .iter()
                    .zip(p.iter())
                    .map(|(n, o)| *n + (*n - *o).scale(beta))
                    .collect();
                t_momentum = t_next;
            } else {
                y = next.clone();
            }
            p = next;
            if delta < cfg.epsilon * scale {
                converged = true;
                break;
            }
        }
        let fit = ndft.forward(&p);
        let mut resid = fit;
        for (r, hi) in resid.iter_mut().zip(h.iter()) {
            *r -= *hi;
        }
        let residual = chronos_math::cvec::norm2(&resid);
        (
            p,
            IstaStats {
                iterations,
                converged,
                residual,
            },
        )
    }

    #[test]
    fn ping_pong_buffers_pin_reference_convergence() {
        // The two-buffer FISTA extrapolation of the scalar reference
        // must reproduce the clone-per-iteration loop exactly — same
        // iterates, same iteration count, same residual — for both the
        // accelerated and plain solvers, including a reused scratch.
        // (`solve_planned_into` runs the lane kernels and is measured
        // against this reference by
        // `simd_solver_tracks_scalar_reference`.)
        let f = freqs();
        let grid = TauGrid::span(60.0, 0.5);
        let plan = NdftPlan::new(&f, grid, 60.0);
        let mut scratch = IstaScratch::new();
        for accelerated in [true, false] {
            let cfg = IstaConfig {
                accelerated,
                ..Default::default()
            };
            for paths in [
                vec![(9.0, 1.0), (14.0, 0.5)],
                vec![(5.5, 0.4), (21.0, 1.0), (33.0, 0.3)],
            ] {
                let h = channel_for(&paths, &f);
                let (want_p, want) = reference_solve(&plan.ndft, &h, &cfg, plan.op_norm);
                let stats = solve_planned_into_scalar(&plan, &h, &cfg, &mut scratch);
                assert_eq!(stats.iterations, want.iterations, "acc={accelerated}");
                assert_eq!(stats.converged, want.converged);
                assert_eq!(stats.residual.to_bits(), want.residual.to_bits());
                assert_eq!(scratch.solution().len(), want_p.len());
                for (a, b) in scratch.solution().iter().zip(want_p.iter()) {
                    assert_eq!(a.re.to_bits(), b.re.to_bits());
                    assert_eq!(a.im.to_bits(), b.im.to_bits());
                }
            }
        }
    }

    /// The lane-chunked solver follows the scalar reference closely
    /// enough that the downstream support-based debias refit erases the
    /// difference — same iterate shape, relative solution drift bounded
    /// far below the profile peak scale.
    #[test]
    fn simd_solver_tracks_scalar_reference() {
        let f = freqs();
        let grid = TauGrid::span(60.0, 0.5);
        let plan = NdftPlan::new(&f, grid, 60.0);
        let mut scalar = IstaScratch::new();
        let mut simd = IstaScratch::new();
        for accelerated in [true, false] {
            let cfg = IstaConfig {
                accelerated,
                ..Default::default()
            };
            for paths in [
                vec![(9.0, 1.0), (14.0, 0.5)],
                vec![(5.5, 0.4), (21.0, 1.0), (33.0, 0.3)],
            ] {
                let h = channel_for(&paths, &f);
                let a = solve_planned_into_scalar(&plan, &h, &cfg, &mut scalar);
                let b = solve_planned_into(&plan, &h, &cfg, &mut simd);
                assert_eq!(a.converged, b.converged, "acc={accelerated}");
                let peak = scalar
                    .solution()
                    .iter()
                    .map(|z| z.abs())
                    .fold(0.0f64, f64::max);
                let drift = scalar
                    .solution()
                    .iter()
                    .zip(simd.solution().iter())
                    .map(|(x, y)| (*x - *y).abs())
                    .fold(0.0f64, f64::max);
                assert!(
                    drift <= 1e-6 * peak.max(1e-12),
                    "acc={accelerated} drift {drift:e} vs peak {peak:e}"
                );
                assert!((a.residual - b.residual).abs() <= 1e-6 * a.residual.max(1e-9));
            }
        }
    }

    #[test]
    fn debias_into_warm_scratch_matches_fresh() {
        let f = freqs();
        let grid = TauGrid::span(60.0, 0.5);
        let plan = solver_plan(&f, grid);
        let ndft = &plan.ndft;
        let h = channel_for(&[(10.0, 1.0), (20.0, 0.4)], &f);
        let (p, _) = solve_fresh(&plan, &h, &IstaConfig::default());
        let fresh = debias_fresh(ndft, &h, &p, 6, 3);
        let mut ws = DebiasScratch::default();
        let mut out = Vec::new();
        for _ in 0..3 {
            debias_into(ndft, &h, &p, 6, 3, &mut ws, &mut out);
            assert_eq!(out.len(), fresh.len());
            for (a, b) in out.iter().zip(fresh.iter()) {
                assert_eq!(a.re.to_bits(), b.re.to_bits());
                assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
        }
    }

    /// `debias_into` lane-chunks the normal-equations build.
    /// Re-deriving the support from the lanes output and refitting it
    /// with the scalar `lstsq_into` must reproduce the same weights
    /// within 1e-12 relative.
    #[test]
    fn debias_simd_tracks_scalar_reference() {
        let f = freqs();
        let grid = TauGrid::span(60.0, 0.5);
        let plan = solver_plan(&f, grid);
        let ndft = &plan.ndft;
        let h = channel_for(&[(10.0, 1.0), (20.0, 0.4), (31.0, 0.25)], &f);
        let (p, _) = solve_fresh(&plan, &h, &IstaConfig::default());
        let d = debias_fresh(ndft, &h, &p, 6, 3);
        let chosen: Vec<usize> = (0..d.len()).filter(|k| d[*k] != Complex64::ZERO).collect();
        assert!(!chosen.is_empty());
        let mut atoms = CMat::zeros(ndft.n_freqs(), chosen.len());
        for (j, k) in chosen.iter().enumerate() {
            let tau_s = grid.tau_at(*k) * 1e-9;
            for (i, fc) in ndft.freqs_hz().iter().enumerate() {
                atoms.set(
                    i,
                    j,
                    Complex64::cis(-2.0 * std::f64::consts::PI * fc * tau_s),
                );
            }
        }
        let mut ws = chronos_math::cmatrix::CLstsqScratch::default();
        let mut w = Vec::new();
        atoms.lstsq_into(&h, &mut ws, &mut w).unwrap();
        for (k, scalar) in chosen.iter().zip(w.iter()) {
            let lanes = d[*k];
            assert!(
                (lanes - *scalar).abs() <= 1e-12 * scalar.abs().max(1.0),
                "atom {k}: {lanes} vs {scalar}"
            );
        }
    }

    #[test]
    fn debias_restores_shrunk_amplitudes() {
        // ISTA shrinks every survivor by ~the threshold; the refit must
        // recover the physical amplitudes.
        let f = freqs();
        let grid = TauGrid::span(60.0, 0.5);
        let plan = solver_plan(&f, grid);
        let true_amps = [(10.0, 1.0), (20.0, 0.4)];
        let h = channel_for(&true_amps, &f);
        let (p, _) = solve_fresh(
            &plan,
            &h,
            &IstaConfig {
                alpha_rel: 0.25,
                ..Default::default()
            },
        );
        let biased_max = p.iter().map(|z| z.abs()).fold(0.0, f64::max);
        assert!(biased_max < 1.0, "expected shrinkage, max {biased_max}");
        let d = debias_fresh(&plan.ndft, &h, &p, 6, 3);
        let at = |tau: f64| {
            let idx = (tau / 0.5).round() as usize;
            d[idx.saturating_sub(1)..=(idx + 1).min(d.len() - 1)]
                .iter()
                .map(|z| z.abs())
                .fold(0.0, f64::max)
        };
        assert!((at(10.0) - 1.0).abs() < 0.1, "strong atom {}", at(10.0));
        assert!((at(20.0) - 0.4).abs() < 0.1, "weak atom {}", at(20.0));
    }

    #[test]
    fn debias_zero_off_support() {
        let f = freqs();
        let grid = TauGrid::span(40.0, 0.5);
        let plan = solver_plan(&f, grid);
        let h = channel_for(&[(12.0, 1.0)], &f);
        let (p, _) = solve_fresh(&plan, &h, &IstaConfig::default());
        let d = debias_fresh(&plan.ndft, &h, &p, 5, 3);
        let nonzero = d.iter().filter(|z| z.abs() > 1e-12).count();
        assert!(nonzero <= 5, "nonzero {nonzero}");
    }

    #[test]
    fn debias_respects_max_atoms_and_separation() {
        let f = freqs();
        let grid = TauGrid::span(40.0, 0.5);
        let plan = solver_plan(&f, grid);
        let h = channel_for(&[(8.0, 1.0), (9.0, 0.9), (25.0, 0.5)], &f);
        let (p, _) = solve_fresh(
            &plan,
            &h,
            &IstaConfig {
                alpha_rel: 0.05,
                ..Default::default()
            },
        );
        let d = debias_fresh(&plan.ndft, &h, &p, 2, 4);
        let support: Vec<usize> = (0..d.len()).filter(|k| d[*k].abs() > 1e-12).collect();
        assert!(support.len() <= 2, "support {support:?}");
        for w in support.windows(2) {
            assert!(w[1] - w[0] >= 4, "separation violated: {support:?}");
        }
    }

    #[test]
    fn debias_on_empty_solution_is_zero() {
        let ndft = Ndft::new(&freqs(), TauGrid::span(20.0, 1.0));
        let p = vec![Complex64::ZERO; 20];
        let h = vec![Complex64::ONE; ndft.n_freqs()];
        let d = debias_fresh(&ndft, &h, &p, 5, 2);
        assert!(d.iter().all(|z| *z == Complex64::ZERO));
    }

    #[test]
    fn debias_improves_data_fit() {
        let f = freqs();
        let grid = TauGrid::span(60.0, 0.25);
        let plan = solver_plan(&f, grid);
        let ndft = &plan.ndft;
        let h = channel_for(&[(7.3, 1.0), (15.1, 0.6)], &f);
        let (p, _) = solve_fresh(
            &plan,
            &h,
            &IstaConfig {
                alpha_rel: 0.2,
                ..Default::default()
            },
        );
        let d = debias_fresh(ndft, &h, &p, 8, 3);
        let resid = |p: &[Complex64]| {
            let fit = ndft.forward(p);
            fit.iter()
                .zip(h.iter())
                .map(|(a, b)| (*a - *b).norm_sq())
                .sum::<f64>()
                .sqrt()
        };
        assert!(
            resid(&d) <= resid(&p) + 1e-9,
            "debias worsened fit: {} vs {}",
            resid(&d),
            resid(&p)
        );
    }
}
