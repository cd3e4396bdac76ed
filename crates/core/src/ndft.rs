//! The non-uniform discrete Fourier transform over Wi-Fi band centers
//! (paper §6.1).
//!
//! Measurements live at the scattered band center frequencies
//! `{f_1, ..., f_n}`; the multipath profile lives on a uniform delay grid
//! `{tau_1, ..., tau_m}`. The forward operator is the `n x m` matrix
//! `F[i][k] = e^{-j 2 pi f_i tau_k}` (the paper's Fourier matrix). This
//! module materializes `F`, applies it and its adjoint, and estimates its
//! spectral norm by power iteration — the step size the proximal-gradient
//! solver needs.
//!
//! Two sets of kernels apply `F`. The lane-chunked split-plane kernels
//! ([`Ndft::forward_extrapolated_split`], [`Ndft::fused_prox_step_split`],
//! [`Ndft::adjoint_split_into`]) are the solver's. The scalar
//! [`Ndft::forward_into`]/[`Ndft::adjoint_into`] are the dense reference
//! they are tested against, and serve the off-hot-path callers (profile
//! refinement, first-path selection, [`Ndft::op_norm`]).
//!
//! # The Wi-Fi raster
//!
//! §6.1 treats `F` as a general non-uniform DFT, and the scalar reference
//! keeps it that way. The band centers are not arbitrary, though: every
//! Wi-Fi channel sits on the 5 MHz channel raster, and the default 200 ns
//! grid spans exactly `1 / 5 MHz`. Whenever every offset
//! `m_i = (f_i - f_0) * N * step` is an exact integer (`N` grid points,
//! `f_0` the first band), `F` is a modulated, decimated length-`N` DFT.
//! [`Ndft`] then factors the solver's adjoint in polyphase form. With
//! `rho_i = m_i mod D`, `P = N / D` and `k = j P + k'`:
//!
//! ```text
//! (F* r)_k  = sum_rho T_rho[k] * S_rho[k']
//! S_rho[k'] = sum_{i : rho_i = rho} r_i * b_i * w^(m_i k')
//! T_rho[k]  = c_k * e^(2 pi i rho j / D)
//! b_i = e^(2 pi i f_i start),  c_k = e^(2 pi i f_0 k step),  w = e^(2 pi i / N)
//! ```
//!
//! That costs `P n + N C` complex multiply-adds instead of `n N`, where
//! `C` counts the residue classes; `D` is the divisor of `N` minimizing
//! it. The 24-band 5 GHz group factors with `D = 8, C = 4` (5,600 MACs
//! instead of 19,200), the 11-band 2.4 GHz group with `D = 4, C = 4`
//! (5,400 instead of 8,800). Plans off the raster — the Ideal-mode
//! 35-band group, whose 2.4 GHz centers sit 2 MHz off the 5 GHz raster,
//! spans that are not a multiple of 200 ns, arbitrary tones — keep the
//! dense kernel.

use chronos_math::cvec;
use chronos_math::Complex64;
use std::f64::consts::PI;

/// A uniform delay grid in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TauGrid {
    /// First grid point, ns.
    pub start_ns: f64,
    /// Grid step, ns.
    pub step_ns: f64,
    /// Number of points.
    pub len: usize,
}

impl TauGrid {
    /// Grid covering `[0, span)` with the given step.
    pub fn span(span_ns: f64, step_ns: f64) -> Self {
        assert!(span_ns > 0.0 && step_ns > 0.0, "grid must be positive");
        TauGrid {
            start_ns: 0.0,
            step_ns,
            len: (span_ns / step_ns).ceil() as usize,
        }
    }

    /// The delay at grid index `k`, ns.
    #[inline]
    pub fn tau_at(&self, k: usize) -> f64 {
        self.start_ns + k as f64 * self.step_ns
    }

    /// All grid delays.
    pub fn taus(&self) -> Vec<f64> {
        (0..self.len).map(|k| self.tau_at(k)).collect()
    }
}

/// The materialized NDFT operator.
///
/// The matrix is stored as one contiguous row-major buffer so the
/// forward/adjoint loops — the innermost loops of the whole estimator —
/// stream memory linearly. Construction (and the power iteration for the
/// operator norm) is the expensive part; sessions that sweep the same band
/// plan should build the operator once via a `PlanCache` and share it.
#[derive(Debug, Clone)]
pub struct Ndft {
    freqs_hz: Vec<f64>,
    grid: TauGrid,
    /// Row-major `n x m` matrix entries, row `i` = frequency `i`.
    mat: Vec<Complex64>,
    /// Column-major copy (`m x n`, column `k` contiguous): the forward
    /// transform walks *columns* so it can skip the zero entries of a
    /// sparse profile while streaming memory linearly. Same entries as
    /// `mat`, copied at construction.
    mat_t: Vec<Complex64>,
    /// Structure-of-arrays copies of `mat`/`mat_t` (split re/im planes)
    /// for the solver's lane-chunked kernels. Same entries, copied at
    /// construction.
    split: SplitMats,
}

/// Split re/im planes of the operator for the lane kernels.
#[derive(Debug, Clone, Default)]
struct SplitMats {
    /// Row-major real parts of `mat`; empty on raster plans, whose
    /// adjoint runs through `poly` instead.
    mat_re: Vec<f64>,
    /// Row-major imaginary parts of `mat`; empty on raster plans.
    mat_im: Vec<f64>,
    /// Column-major real parts (`mat_t`).
    mat_t_re: Vec<f64>,
    /// Column-major imaginary parts (`mat_t`).
    mat_t_im: Vec<f64>,
    /// The polyphase adjoint of a raster plan (module docs).
    poly: Option<Polyphase>,
}

/// The polyphase factorization of a raster plan's adjoint (module docs):
/// `(F* r)_k = sum_c T_c[k] * S_c[k mod P]`, where the partial sums `S_c`
/// are rebuilt from the measurements on every application.
#[derive(Debug, Clone)]
struct Polyphase {
    /// Decimation factor `D`, a divisor of the grid length.
    decimation: usize,
    /// Phase length `P = N / D`.
    phase_len: usize,
    /// Residue classes `C` (distinct `m_i mod D`).
    classes: usize,
    /// Measurement rows ordered by class (classes ascend by residue,
    /// rows ascend within a class).
    rows: Vec<usize>,
    /// Class `c` owns `rows[class_start[c]..class_start[c + 1]]`.
    class_start: Vec<usize>,
    /// `k' = c mod P` of every lane tile's first grid point `c`.
    tile_phase: Vec<usize>,
    /// Row-major `n x P` input twiddles `b_i w^(m_i k')` in `rows`
    /// order, real parts.
    w_re: Vec<f64>,
    /// Imaginary parts of the input twiddles.
    w_im: Vec<f64>,
    /// Row-major `C x N` output twiddles `c_k e^(2 pi i rho j / D)`,
    /// real parts.
    t_re: Vec<f64>,
    /// Imaginary parts of the output twiddles.
    t_im: Vec<f64>,
}

impl Polyphase {
    /// The factorization of `freqs_hz` over `grid`: `None` when a band
    /// center is off the grid's DFT raster, or when no decimation makes
    /// fewer multiply-adds than the dense `n N` adjoint.
    fn new(freqs_hz: &[f64], grid: TauGrid) -> Option<Self> {
        let n = freqs_hz.len();
        let big_n = grid.len;
        let span_ns = big_n as f64 * grid.step_ns;
        let f0 = freqs_hz[0];
        // Raster offsets. Integer-Hz centers over a dyadic step make the
        // product exact. The slack admits only rounding-level residuals:
        // a residual `dm` rotates the far end of the grid by `2 pi dm`,
        // the same order as the dense operator's own phase rounding.
        let mut offsets = Vec::with_capacity(n);
        for f in freqs_hz {
            let m = (f - f0) * span_ns / 1e9;
            let slack = 4.0 * f64::EPSILON * m.abs().max(1.0);
            if !m.is_finite() || (m - m.round()).abs() > slack {
                return None;
            }
            offsets.push(m.round() as i64);
        }
        // The divisor minimizing `P n + N C`; strict `<` keeps the
        // smallest `D` on ties.
        let mut residues = Vec::with_capacity(n);
        let mut best: Option<(usize, usize)> = None;
        for d in (1..=big_n).filter(|d| big_n.is_multiple_of(*d)) {
            distinct_residues(&offsets, d, &mut residues);
            let cost = (big_n / d) * n + big_n * residues.len();
            if best.is_none_or(|(c, _)| cost < c) {
                best = Some((cost, d));
            }
        }
        let (cost, decimation) = best?;
        if cost >= n * big_n {
            return None;
        }
        let phase_len = big_n / decimation;
        distinct_residues(&offsets, decimation, &mut residues);
        let residue = |i: usize| offsets[i].rem_euclid(decimation as i64);
        let mut rows: Vec<usize> = (0..n).collect();
        rows.sort_by_key(|i| residue(*i));
        let class_start = residues
            .iter()
            .map(|rho| rows.partition_point(|i| residue(*i) < *rho))
            .chain(std::iter::once(n))
            .collect();

        let tau0_s = grid.start_ns * 1e-9;
        // `e^(2 pi i num / den)` from the exactly reduced ratio.
        let twiddle = |num: i64, den: usize| {
            Complex64::cis(2.0 * PI * num.rem_euclid(den as i64) as f64 / den as f64)
        };
        let mut w_re = Vec::with_capacity(n * phase_len);
        let mut w_im = Vec::with_capacity(n * phase_len);
        for i in rows.iter().copied() {
            let b = Complex64::cis(2.0 * PI * freqs_hz[i] * tau0_s);
            let m_n = offsets[i].rem_euclid(big_n as i64);
            for k in 0..phase_len {
                let w = b * twiddle(m_n * k as i64, big_n);
                w_re.push(w.re);
                w_im.push(w.im);
            }
        }
        let mut t_re = Vec::with_capacity(residues.len() * big_n);
        let mut t_im = Vec::with_capacity(residues.len() * big_n);
        for rho in residues.iter() {
            for k in 0..big_n {
                let c = Complex64::cis(2.0 * PI * f0 * (k as f64 * grid.step_ns * 1e-9));
                let t = c * twiddle(rho * (k / phase_len) as i64, decimation);
                t_re.push(t.re);
                t_im.push(t.im);
            }
        }
        Some(Polyphase {
            decimation,
            phase_len,
            classes: residues.len(),
            rows,
            class_start,
            tile_phase: (0..big_n).step_by(TILE).map(|c| c % phase_len).collect(),
            w_re,
            w_im,
            t_re,
            t_im,
        })
    }

    /// The partial sums `S_c[k'] = sum_{i in c} r_i W_i[k']` into
    /// `sums`: the row-major `C x P` real plane, then the imaginary one
    /// (no allocation once `sums` holds `2 C P <= 2 N` entries). Each
    /// lane tile of `S_c` accumulates its class's rows in registers and
    /// is written once.
    fn partial_sums(&self, r_re: &[f64], r_im: &[f64], sums: &mut Vec<f64>) {
        use chronos_math::lanes::fmadd;
        let p = self.phase_len;
        sums.clear();
        sums.resize(2 * self.classes * p, 0.0);
        let (s_re, s_im) = sums.split_at_mut(self.classes * p);
        let main = p - p % TILE;
        for cls in 0..self.classes {
            let members = self.class_start[cls]..self.class_start[cls + 1];
            let out_re = &mut s_re[cls * p..(cls + 1) * p];
            let out_im = &mut s_im[cls * p..(cls + 1) * p];
            for c in (0..main).step_by(TILE) {
                let mut ar = [0.0f64; TILE];
                let mut ai = [0.0f64; TILE];
                for r in members.clone() {
                    let (hr, hi) = (r_re[self.rows[r]], r_im[self.rows[r]]);
                    let w_re = &self.w_re[r * p + c..r * p + c + TILE];
                    let w_im = &self.w_im[r * p + c..r * p + c + TILE];
                    for l in 0..TILE {
                        ar[l] = fmadd(w_re[l], hr, fmadd(-w_im[l], hi, ar[l]));
                        ai[l] = fmadd(w_re[l], hi, fmadd(w_im[l], hr, ai[l]));
                    }
                }
                out_re[c..c + TILE].copy_from_slice(&ar);
                out_im[c..c + TILE].copy_from_slice(&ai);
            }
            for k in main..p {
                for r in members.clone() {
                    let (hr, hi) = (r_re[self.rows[r]], r_im[self.rows[r]]);
                    let (wr, wi) = (self.w_re[r * p + k], self.w_im[r * p + k]);
                    out_re[k] = fmadd(wr, hr, fmadd(-wi, hi, out_re[k]));
                    out_im[k] = fmadd(wr, hi, fmadd(wi, hr, out_im[k]));
                }
            }
        }
    }
}

/// The distinct values of `offsets mod d`, ascending, into `out`.
fn distinct_residues(offsets: &[i64], d: usize, out: &mut Vec<i64>) {
    out.clear();
    out.extend(offsets.iter().map(|m| m.rem_euclid(d as i64)));
    out.sort_unstable();
    out.dedup();
}

impl Ndft {
    /// Builds the operator for measurement frequencies `freqs_hz` and the
    /// delay grid `grid`.
    ///
    /// # Panics
    /// Panics if `freqs_hz` is empty or the grid has no points.
    pub fn new(freqs_hz: &[f64], grid: TauGrid) -> Self {
        assert!(!freqs_hz.is_empty(), "need at least one frequency");
        assert!(grid.len > 0, "grid must be non-empty");
        let mut mat = Vec::with_capacity(freqs_hz.len() * grid.len);
        for f in freqs_hz {
            for k in 0..grid.len {
                let tau_s = grid.tau_at(k) * 1e-9;
                mat.push(Complex64::cis(-2.0 * PI * f * tau_s));
            }
        }
        let n = freqs_hz.len();
        let m = grid.len;
        let mut mat_t = Vec::with_capacity(n * m);
        for k in 0..m {
            for i in 0..n {
                mat_t.push(mat[i * m + k]);
            }
        }
        // Raster plans skip the row-major split planes: their adjoint is
        // the polyphase factorization, and nothing else reads them.
        let poly = Polyphase::new(freqs_hz, grid);
        let (mat_re, mat_im) = match poly {
            Some(_) => (Vec::new(), Vec::new()),
            None => (
                mat.iter().map(|z| z.re).collect(),
                mat.iter().map(|z| z.im).collect(),
            ),
        };
        let split = SplitMats {
            mat_re,
            mat_im,
            mat_t_re: mat_t.iter().map(|z| z.re).collect(),
            mat_t_im: mat_t.iter().map(|z| z.im).collect(),
            poly,
        };
        Ndft {
            freqs_hz: freqs_hz.to_vec(),
            grid,
            mat,
            mat_t,
            split,
        }
    }

    /// Number of measurement frequencies (rows).
    pub fn n_freqs(&self) -> usize {
        self.freqs_hz.len()
    }

    /// Number of grid delays (columns).
    pub fn n_taus(&self) -> usize {
        self.grid.len
    }

    /// The delay grid.
    pub fn grid(&self) -> TauGrid {
        self.grid
    }

    /// The measurement frequencies.
    pub fn freqs_hz(&self) -> &[f64] {
        &self.freqs_hz
    }

    /// Forward transform: `h = F p` (profile -> measurements).
    ///
    /// Exactly-zero profile entries are skipped: each would contribute a
    /// literal `acc += a * 0`, which leaves every finite accumulator
    /// unchanged (at most the sign of an all-zero row's zero differs, and
    /// IEEE-754 zero signs are value-equal). The proximal-gradient
    /// iterates are sparse after the first few SPARSIFY steps, so this
    /// turns the solver's dense `n x m` forward pass into an
    /// `n x nnz(p)` one — the single largest win of the scratch pipeline.
    pub fn forward(&self, p: &[Complex64]) -> Vec<Complex64> {
        let mut out = Vec::new();
        self.forward_into(p, &mut out);
        out
    }

    /// [`Ndft::forward`] into a caller-provided buffer (no allocation
    /// once `out` has capacity).
    ///
    /// Walks the transposed (column-major) operator so skipping a zero
    /// profile entry skips one contiguous column. For every output row
    /// the surviving terms still accumulate in ascending grid order —
    /// exactly the dense row loop's order with its zero terms removed —
    /// so the result is unchanged.
    pub fn forward_into(&self, p: &[Complex64], out: &mut Vec<Complex64>) {
        assert_eq!(p.len(), self.grid.len, "forward: profile length mismatch");
        let n = self.freqs_hz.len();
        out.clear();
        out.resize(n, Complex64::ZERO);
        for (col, b) in self.mat_t.chunks_exact(n).zip(p.iter()) {
            if b.re == 0.0 && b.im == 0.0 {
                continue;
            }
            for (o, a) in out.iter_mut().zip(col.iter()) {
                *o += *a * *b;
            }
        }
    }

    /// Adjoint transform: `p = F* h` (measurements -> profile domain).
    pub fn adjoint(&self, h: &[Complex64]) -> Vec<Complex64> {
        let mut out = Vec::new();
        self.adjoint_into(h, &mut out);
        out
    }

    /// [`Ndft::adjoint`] into a caller-provided buffer (no allocation
    /// once `out` has capacity).
    pub fn adjoint_into(&self, h: &[Complex64], out: &mut Vec<Complex64>) {
        assert_eq!(
            h.len(),
            self.freqs_hz.len(),
            "adjoint: measurement length mismatch"
        );
        out.clear();
        out.resize(self.grid.len, Complex64::ZERO);
        for (row, hi) in self.mat.chunks_exact(self.grid.len).zip(h.iter()) {
            for (o, a) in out.iter_mut().zip(row.iter()) {
                *o += a.conj() * *hi;
            }
        }
    }

    /// Matched-filter (Bartlett) response at an arbitrary, off-grid delay:
    /// `|sum_i h_i e^{+j 2 pi f_i tau}|`. Used for sub-grid peak
    /// refinement.
    pub fn matched_filter(&self, h: &[Complex64], tau_ns: f64) -> f64 {
        assert_eq!(
            h.len(),
            self.freqs_hz.len(),
            "matched_filter: length mismatch"
        );
        let tau_s = tau_ns * 1e-9;
        let mut acc = Complex64::ZERO;
        for (f, hi) in self.freqs_hz.iter().zip(h.iter()) {
            acc += *hi * Complex64::cis(2.0 * PI * f * tau_s);
        }
        acc.abs()
    }

    /// Estimates the spectral norm `||F||_2` by power iteration on `F* F`.
    pub fn op_norm(&self, iters: usize) -> f64 {
        let m = self.grid.len;
        // Deterministic start vector with mild structure.
        let mut v: Vec<Complex64> = (0..m)
            .map(|k| Complex64::cis(0.37 * k as f64) / (m as f64).sqrt())
            .collect();
        let mut norm = 1.0;
        for _ in 0..iters.max(1) {
            let fv = self.forward(&v);
            let mut w = self.adjoint(&fv);
            norm = cvec::norm2(&w);
            if norm == 0.0 {
                return 0.0;
            }
            cvec::scale_in_place(&mut w, 1.0 / norm);
            v = w;
        }
        // norm approximates the largest eigenvalue of F*F = ||F||^2.
        norm.sqrt()
    }
}

/// The solver's lane-chunked structure-of-arrays kernels: the same
/// forward/adjoint operators over split re/im planes, written so LLVM
/// vectorizes them into packed f64 arithmetic. The scalar
/// [`Ndft::forward_into`]/[`Ndft::adjoint_into`] above are their
/// reference: agreement within 1e-12 relative (1e-11 of `max|F* h|` for
/// the polyphase adjoint), pinned by the tests below and the proptests in
/// `tests/properties.rs` (see `docs/PIPELINE.md`).
impl Ndft {
    /// [`Ndft::forward_into`] over split re/im planes, restricted to the
    /// support and with on-the-fly FISTA extrapolation: `h = F y` where
    /// `y = p + beta * (p - prev)` is never materialized (`beta = 0`
    /// gives a plain `F p`).
    ///
    /// `supp_p`/`supp_prev` are the ascending nonzero index lists of the
    /// two iterates (collected for free by
    /// [`Ndft::fused_prox_step_split`]); `y` can only be nonzero on
    /// their merge, so there is no full-grid zero scan — the pass is
    /// `nnz` contiguous 12-wide axpys and nothing else. A column is
    /// skipped only when both planes of `y` are exactly zero, the scalar
    /// kernel's predicate.
    #[allow(clippy::too_many_arguments)]
    pub fn forward_extrapolated_split(
        &self,
        p_re: &[f64],
        p_im: &[f64],
        prev_re: &[f64],
        prev_im: &[f64],
        beta: f64,
        supp_p: &[u32],
        supp_prev: &[u32],
        out_re: &mut Vec<f64>,
        out_im: &mut Vec<f64>,
    ) {
        use chronos_math::lanes::fmadd;
        let m = self.grid.len;
        assert!(
            p_re.len() == m && p_im.len() == m && prev_re.len() == m && prev_im.len() == m,
            "forward: profile length mismatch"
        );
        let n = self.freqs_hz.len();
        out_re.clear();
        out_re.resize(n, 0.0);
        out_im.clear();
        out_im.resize(n, 0.0);
        // Two-pointer merge of the sorted support lists.
        let (mut a, mut b) = (0usize, 0usize);
        loop {
            let k = match (supp_p.get(a), supp_prev.get(b)) {
                (Some(&x), Some(&y)) => {
                    if x <= y {
                        a += 1;
                        if x == y {
                            b += 1;
                        }
                        x
                    } else {
                        b += 1;
                        y
                    }
                }
                (Some(&x), None) => {
                    a += 1;
                    x
                }
                (None, Some(&y)) => {
                    b += 1;
                    y
                }
                (None, None) => break,
            } as usize;
            let yr = fmadd(beta, p_re[k] - prev_re[k], p_re[k]);
            let yi = fmadd(beta, p_im[k] - prev_im[k], p_im[k]);
            if yr == 0.0 && yi == 0.0 {
                continue;
            }
            let col_re = &self.split.mat_t_re[k * n..(k + 1) * n];
            let col_im = &self.split.mat_t_im[k * n..(k + 1) * n];
            axpy_complex_split(col_re, col_im, yr, yi, out_re, out_im);
        }
    }

    /// The fused proximal-gradient step over split planes: one pass over
    /// the grid computing
    /// `next = soft_thresh((p + beta (p - prev)) - g2 * F* fy)` plus the
    /// convergence sums, returning `(|next - p|_2^2, |p|_2^2)`. The
    /// FISTA extrapolation point `y` is computed in registers from the
    /// two iterates (`beta = 0` degrades to plain ISTA), and the
    /// ascending nonzero index list of `next` is pushed into `supp_next`
    /// so the next iteration's forward pass
    /// ([`Ndft::forward_extrapolated_split`]) touches only the support.
    ///
    /// This is the solver's dominant kernel. Fusing the adjoint GEMV
    /// with the extrapolation, gradient step, SPARSIFY and both
    /// reductions keeps each grid tile in registers for the whole
    /// iteration body: the operator planes stream through once and
    /// `next` is written once, instead of the adjoint
    /// re-reading/re-writing a full-grid gradient buffer per measurement
    /// row and the elementwise ops making four more passes. The work is
    /// split into two passes: pass A is branchless and free of
    /// `sqrt`/divide (the below-threshold zeroing compares *squared*
    /// magnitudes, cached in the caller-provided `sq` scratch plane), so
    /// it vectorizes end to end; pass B applies the shrink scale only to
    /// the handful of bins that survived the threshold and harvests the
    /// support with a predictable scalar branch.
    ///
    /// On raster plans the gradient tiles come from the polyphase
    /// factorization (module docs) instead of the dense row-major
    /// planes: the partial sums `S` are built once per call into the
    /// caller's `sums` buffer (`2 C P <= 2 N` entries, untouched on
    /// off-raster plans), and pass A combines them with the output
    /// twiddles. Both passes are otherwise shared with the dense kernel.
    ///
    /// Reductions are lane-reassociated and the shrink magnitude uses
    /// `sqrt` instead of the scalar reference's `hypot`, so this kernel
    /// agrees with the reference within a tolerance, not bitwise (see
    /// `docs/PIPELINE.md`).
    #[allow(clippy::too_many_arguments)]
    pub fn fused_prox_step_split(
        &self,
        fy_re: &[f64],
        fy_im: &[f64],
        p_re: &[f64],
        p_im: &[f64],
        prev_re: &[f64],
        prev_im: &[f64],
        beta: f64,
        g2: f64,
        thresh: f64,
        next_re: &mut [f64],
        next_im: &mut [f64],
        sq: &mut [f64],
        sums: &mut Vec<f64>,
        supp_next: &mut Vec<u32>,
    ) -> (f64, f64) {
        let n = self.freqs_hz.len();
        let m = self.grid.len;
        assert_eq!(fy_re.len(), n, "fused step: measurement length mismatch");
        assert_eq!(fy_im.len(), n, "fused step: measurement length mismatch");
        assert!(
            p_re.len() == m
                && p_im.len() == m
                && prev_re.len() == m
                && prev_im.len() == m
                && next_re.len() == m
                && next_im.len() == m,
            "fused step: grid length mismatch"
        );
        assert_eq!(sq.len(), m, "fused step: sq scratch length mismatch");
        match &self.split.poly {
            Some(poly) => {
                poly.partial_sums(fy_re, fy_im, sums);
                let grad = PolyAdjoint::new(poly, sums, m);
                prox_pass(
                    &grad, p_re, p_im, prev_re, prev_im, beta, g2, thresh, next_re, next_im, sq,
                    supp_next,
                )
            }
            None => {
                let grad = DenseAdjoint {
                    mat_re: &self.split.mat_re,
                    mat_im: &self.split.mat_im,
                    r_re: fy_re,
                    r_im: fy_im,
                    m,
                };
                prox_pass(
                    &grad, p_re, p_im, prev_re, prev_im, beta, g2, thresh, next_re, next_im, sq,
                    supp_next,
                )
            }
        }
    }

    /// [`Ndft::adjoint_into`] over split re/im slices: `p = F* h`.
    ///
    /// Dense plans run one conjugated 4-lane axpy per row across the
    /// full grid (`n x m` complex MACs). Raster plans build the
    /// polyphase partial sums into `sums` and expand them tile by
    /// tile, the same gradient source as [`Ndft::fused_prox_step_split`].
    pub fn adjoint_split_into(
        &self,
        h_re: &[f64],
        h_im: &[f64],
        sums: &mut Vec<f64>,
        out_re: &mut Vec<f64>,
        out_im: &mut Vec<f64>,
    ) {
        assert_eq!(
            h_re.len(),
            self.freqs_hz.len(),
            "adjoint: measurement length mismatch"
        );
        assert_eq!(
            h_im.len(),
            self.freqs_hz.len(),
            "adjoint: measurement length mismatch"
        );
        let m = self.grid.len;
        out_re.clear();
        out_re.resize(m, 0.0);
        out_im.clear();
        out_im.resize(m, 0.0);
        if let Some(poly) = &self.split.poly {
            poly.partial_sums(h_re, h_im, sums);
            let grad = PolyAdjoint::new(poly, sums, m);
            let main = m - m % TILE;
            for c in (0..main).step_by(TILE) {
                let (gr, gi) = grad.tile(c);
                out_re[c..c + TILE].copy_from_slice(&gr);
                out_im[c..c + TILE].copy_from_slice(&gi);
            }
            for k in main..m {
                (out_re[k], out_im[k]) = grad.at(k);
            }
            return;
        }
        for (i, (hr, hi)) in h_re.iter().zip(h_im.iter()).enumerate() {
            let row_re = &self.split.mat_re[i * m..(i + 1) * m];
            let row_im = &self.split.mat_im[i * m..(i + 1) * m];
            // conj(a) * h = (a_re*h_re + a_im*h_im) + j(a_re*h_im - a_im*h_re)
            axpy_conj_split(row_re, row_im, *hr, *hi, out_re, out_im);
        }
    }

    /// The polyphase shape `(D, C)` of a raster plan's adjoint — the
    /// decimation factor and the number of residue classes — or `None`
    /// when the plan keeps the dense kernel (module docs).
    pub fn polyphase_shape(&self) -> Option<(usize, usize)> {
        self.split
            .poly
            .as_ref()
            .map(|poly| (poly.decimation, poly.classes))
    }
}

/// Grid tile of the fused prox step: two lane chunks per pass-A step.
const TILE: usize = 2 * chronos_math::lanes::LANES;

/// The source of the fused prox step's gradient `F* r`: the dense
/// row-major planes or a raster plan's polyphase factorization.
trait GradSource {
    /// `(F* r)_k` for the grid points `k` in `c..c + TILE`.
    fn tile(&self, c: usize) -> ([f64; TILE], [f64; TILE]);
    /// `(F* r)_k` at one grid point.
    fn at(&self, k: usize) -> (f64, f64);
}

/// The dense adjoint: `sum_i conj(F[i][k]) r_i`, accumulated in
/// registers across all measurement rows.
struct DenseAdjoint<'a> {
    mat_re: &'a [f64],
    mat_im: &'a [f64],
    r_re: &'a [f64],
    r_im: &'a [f64],
    m: usize,
}

impl GradSource for DenseAdjoint<'_> {
    #[inline(always)]
    fn tile(&self, c: usize) -> ([f64; TILE], [f64; TILE]) {
        use chronos_math::lanes::fmadd;
        let m = self.m;
        let mut gr = [0.0f64; TILE];
        let mut gi = [0.0f64; TILE];
        for (i, (hr, hi)) in self.r_re.iter().zip(self.r_im.iter()).enumerate() {
            let row_re = &self.mat_re[i * m + c..i * m + c + TILE];
            let row_im = &self.mat_im[i * m + c..i * m + c + TILE];
            for l in 0..TILE {
                gr[l] = fmadd(row_re[l], *hr, fmadd(row_im[l], *hi, gr[l]));
                gi[l] = fmadd(row_re[l], *hi, fmadd(-row_im[l], *hr, gi[l]));
            }
        }
        (gr, gi)
    }

    #[inline(always)]
    fn at(&self, k: usize) -> (f64, f64) {
        use chronos_math::lanes::fmadd;
        let m = self.m;
        let mut gr = 0.0f64;
        let mut gi = 0.0f64;
        for (i, (hr, hi)) in self.r_re.iter().zip(self.r_im.iter()).enumerate() {
            let ar = self.mat_re[i * m + k];
            let ai = self.mat_im[i * m + k];
            gr = fmadd(ar, *hr, fmadd(ai, *hi, gr));
            gi = fmadd(ar, *hi, fmadd(-ai, *hr, gi));
        }
        (gr, gi)
    }
}

/// The polyphase adjoint: `sum_c T_c[k] S_c[k mod P]` over partial sums
/// already built by [`Polyphase::partial_sums`].
struct PolyAdjoint<'a> {
    poly: &'a Polyphase,
    s_re: &'a [f64],
    s_im: &'a [f64],
    m: usize,
}

impl<'a> PolyAdjoint<'a> {
    /// Reads the partial sums [`Polyphase::partial_sums`] left in `sums`.
    fn new(poly: &'a Polyphase, sums: &'a [f64], m: usize) -> Self {
        let (s_re, s_im) = sums.split_at(sums.len() / 2);
        PolyAdjoint {
            poly,
            s_re,
            s_im,
            m,
        }
    }
}

impl<'a> GradSource for PolyAdjoint<'a> {
    #[inline(always)]
    fn tile(&self, c: usize) -> ([f64; TILE], [f64; TILE]) {
        let (m, p) = (self.m, self.poly.phase_len);
        let k0 = self.poly.tile_phase[c / TILE];
        let mut gr = [0.0f64; TILE];
        let mut gi = [0.0f64; TILE];
        let t = |plane: &'a [f64], cls: usize| lane_tile(&plane[cls * m + c..]);
        if k0 + TILE <= p {
            for cls in 0..self.poly.classes {
                let s = |plane: &'a [f64]| lane_tile(&plane[cls * p + k0..]);
                let (t_re, t_im) = (t(&self.poly.t_re, cls), t(&self.poly.t_im, cls));
                cmac_tile(t_re, t_im, s(self.s_re), s(self.s_im), &mut gr, &mut gi);
            }
        } else {
            // The tile straddles a phase boundary: wrap `k'` per lane.
            let mut lane_phase = [0usize; TILE];
            let mut kp = k0;
            for slot in lane_phase.iter_mut() {
                *slot = kp;
                kp = if kp + 1 == p { 0 } else { kp + 1 };
            }
            for cls in 0..self.poly.classes {
                let s = |plane: &[f64]| lane_phase.map(|kp| plane[cls * p + kp]);
                let (t_re, t_im) = (t(&self.poly.t_re, cls), t(&self.poly.t_im, cls));
                cmac_tile(t_re, t_im, &s(self.s_re), &s(self.s_im), &mut gr, &mut gi);
            }
        }
        (gr, gi)
    }

    #[inline(always)]
    fn at(&self, k: usize) -> (f64, f64) {
        use chronos_math::lanes::fmadd;
        let (m, p) = (self.m, self.poly.phase_len);
        let kp = k % p;
        let mut gr = 0.0f64;
        let mut gi = 0.0f64;
        for cls in 0..self.poly.classes {
            let (tr, ti) = (self.poly.t_re[cls * m + k], self.poly.t_im[cls * m + k]);
            let (sr, si) = (self.s_re[cls * p + kp], self.s_im[cls * p + kp]);
            gr = fmadd(tr, sr, fmadd(-ti, si, gr));
            gi = fmadd(tr, si, fmadd(ti, sr, gi));
        }
        (gr, gi)
    }
}

/// The first [`TILE`] entries of `plane`.
#[inline(always)]
fn lane_tile(plane: &[f64]) -> &[f64; TILE] {
    plane[..TILE].try_into().expect("lane tile in bounds")
}

/// `g += t * s` over one lane tile of split complex planes.
#[inline(always)]
fn cmac_tile(
    t_re: &[f64; TILE],
    t_im: &[f64; TILE],
    s_re: &[f64; TILE],
    s_im: &[f64; TILE],
    g_re: &mut [f64; TILE],
    g_im: &mut [f64; TILE],
) {
    use chronos_math::lanes::fmadd;
    for l in 0..TILE {
        g_re[l] = fmadd(t_re[l], s_re[l], fmadd(-t_im[l], s_im[l], g_re[l]));
        g_im[l] = fmadd(t_re[l], s_im[l], fmadd(t_im[l], s_re[l], g_im[l]));
    }
}

/// The mutable twin of [`lane_tile`].
#[inline(always)]
fn lane_tile_mut(plane: &mut [f64]) -> &mut [f64; TILE] {
    (&mut plane[..TILE])
        .try_into()
        .expect("lane tile in bounds")
}

/// Passes A and B of [`Ndft::fused_prox_step_split`] over any gradient
/// source; returns `(|next - p|_2^2, |p|_2^2)`.
///
/// Pass A walks the seven grid planes in lockstep as fixed-size lane
/// tiles (`chunks_exact(TILE)` viewed as `[f64; TILE]`), so every lane
/// index is in bounds by construction and the tile body compiles to
/// packed arithmetic with no per-lane bounds checks. Pass B walks the
/// planes as zipped iterators.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn prox_pass<G: GradSource>(
    grad: &G,
    p_re: &[f64],
    p_im: &[f64],
    prev_re: &[f64],
    prev_im: &[f64],
    beta: f64,
    g2: f64,
    thresh: f64,
    next_re: &mut [f64],
    next_im: &mut [f64],
    sq: &mut [f64],
    supp_next: &mut Vec<u32>,
) -> (f64, f64) {
    use chronos_math::lanes::fmadd;
    let m = p_re.len();
    supp_next.clear();
    let t2 = thresh * thresh;
    let mut pnorm = [0.0f64; TILE];
    let main = m - m % TILE;
    // Pass A — branchless and sqrt/div-free, so it vectorizes end to
    // end: gradient tile, extrapolation, gradient step, the
    // below-threshold zeroing (a select against the *squared*
    // threshold) and the |p|^2 reduction. Candidate magnitudes land
    // in `sq`, surviving candidates stay un-shrunk in `next` for
    // pass B.
    let tiles = p_re[..main]
        .chunks_exact(TILE)
        .zip(p_im[..main].chunks_exact(TILE))
        .zip(prev_re[..main].chunks_exact(TILE))
        .zip(prev_im[..main].chunks_exact(TILE))
        .zip(next_re[..main].chunks_exact_mut(TILE))
        .zip(next_im[..main].chunks_exact_mut(TILE))
        .zip(sq[..main].chunks_exact_mut(TILE));
    for (c, ((((((pr, pi), qr), qi), nr), ni), sqt)) in (0..main).step_by(TILE).zip(tiles) {
        let (gr, gi) = grad.tile(c);
        let (pr, pi, qr, qi) = (lane_tile(pr), lane_tile(pi), lane_tile(qr), lane_tile(qi));
        let (nr, ni, sqt) = (lane_tile_mut(nr), lane_tile_mut(ni), lane_tile_mut(sqt));
        for l in 0..TILE {
            let yr = fmadd(beta, pr[l] - qr[l], pr[l]);
            let yi = fmadd(beta, pi[l] - qi[l], pi[l]);
            let cr = yr - g2 * gr[l];
            let ci = yi - g2 * gi[l];
            let sq_v = fmadd(cr, cr, ci * ci);
            sqt[l] = sq_v;
            let keep = sq_v > t2;
            nr[l] = if keep { cr } else { 0.0 };
            ni[l] = if keep { ci } else { 0.0 };
            pnorm[l] = fmadd(pr[l], pr[l], fmadd(pi[l], pi[l], pnorm[l]));
        }
    }
    let mut pnorm_tail = 0.0f64;
    for k in main..m {
        let (gr, gi) = grad.at(k);
        let yr = fmadd(beta, p_re[k] - prev_re[k], p_re[k]);
        let yi = fmadd(beta, p_im[k] - prev_im[k], p_im[k]);
        let cr = yr - g2 * gr;
        let ci = yi - g2 * gi;
        let sq_v = fmadd(cr, cr, ci * ci);
        sq[k] = sq_v;
        let keep = sq_v > t2;
        next_re[k] = if keep { cr } else { 0.0 };
        next_im[k] = if keep { ci } else { 0.0 };
        pnorm_tail = fmadd(p_re[k], p_re[k], fmadd(p_im[k], p_im[k], pnorm_tail));
    }
    let pnorm2 = pnorm.iter().sum::<f64>() + pnorm_tail;
    // Pass B — the expensive shrink (sqrt + divide) runs only on the
    // few dozen candidates that survived the threshold, while the
    // support harvest scans the cached squared magnitudes with a
    // predictable branch. The delta reduction is computed as a
    // correction on |p|^2: a zeroed bin contributes |p_k|^2 to
    // |next - p|^2 exactly, so only surviving bins need their
    // |next_k - p_k|^2 - |p_k|^2 adjustment.
    let mut delta2 = pnorm2;
    let bins = sq
        .iter()
        .zip(next_re.iter_mut())
        .zip(next_im.iter_mut())
        .zip(p_re.iter().zip(p_im.iter()));
    for (k, (((&sq_v, nr), ni), (&pr, &pi))) in bins.enumerate() {
        if sq_v <= t2 {
            continue;
        }
        supp_next.push(k as u32);
        let mag = sq_v.sqrt();
        let s = ((mag - thresh) / mag).max(0.0);
        *nr *= s;
        *ni *= s;
        let dr = *nr - pr;
        let di = *ni - pi;
        delta2 += fmadd(dr, dr, di * di) - fmadd(pr, pr, pi * pi);
    }
    // Cancellation in the correction can drive a tiny positive sum
    // fractionally negative; clamp so the caller's sqrt stays real.
    (delta2.max(0.0), pnorm2)
}

/// `out += a * b` over split planes for a complex scalar `b`
/// (`(br, bi)`), 4 lanes at a time.
fn axpy_complex_split(
    a_re: &[f64],
    a_im: &[f64],
    br: f64,
    bi: f64,
    out_re: &mut [f64],
    out_im: &mut [f64],
) {
    use chronos_math::lanes::{fmadd, LANES};
    let n = a_re.len();
    let main = n - n % LANES;
    for c in (0..main).step_by(LANES) {
        for l in 0..LANES {
            let ar = a_re[c + l];
            let ai = a_im[c + l];
            out_re[c + l] = fmadd(ar, br, fmadd(-ai, bi, out_re[c + l]));
            out_im[c + l] = fmadd(ar, bi, fmadd(ai, br, out_im[c + l]));
        }
    }
    for k in main..n {
        let ar = a_re[k];
        let ai = a_im[k];
        out_re[k] = fmadd(ar, br, fmadd(-ai, bi, out_re[k]));
        out_im[k] = fmadd(ar, bi, fmadd(ai, br, out_im[k]));
    }
}

/// `out += conj(a) * h` over split planes for a complex scalar `h`
/// (`(hr, hi)`), 4 lanes at a time.
fn axpy_conj_split(
    a_re: &[f64],
    a_im: &[f64],
    hr: f64,
    hi: f64,
    out_re: &mut [f64],
    out_im: &mut [f64],
) {
    use chronos_math::lanes::{fmadd, LANES};
    let n = a_re.len();
    let main = n - n % LANES;
    for c in (0..main).step_by(LANES) {
        for l in 0..LANES {
            let ar = a_re[c + l];
            let ai = a_im[c + l];
            out_re[c + l] = fmadd(ar, hr, fmadd(ai, hi, out_re[c + l]));
            out_im[c + l] = fmadd(ar, hi, fmadd(-ai, hr, out_im[c + l]));
        }
    }
    for k in main..n {
        let ar = a_re[k];
        let ai = a_im[k];
        out_re[k] = fmadd(ar, hr, fmadd(ai, hi, out_re[k]));
        out_im[k] = fmadd(ar, hi, fmadd(-ai, hr, out_im[k]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronos_rf::bands::band_plan_5ghz;

    fn freqs() -> Vec<f64> {
        band_plan_5ghz().iter().map(|b| b.center_hz).collect()
    }

    #[test]
    fn grid_basics() {
        let g = TauGrid::span(200.0, 0.25);
        assert_eq!(g.len, 800);
        assert_eq!(g.tau_at(0), 0.0);
        assert!((g.tau_at(4) - 1.0).abs() < 1e-12);
        assert_eq!(g.taus().len(), 800);
    }

    #[test]
    fn forward_of_delta_is_steering_vector() {
        let f = freqs();
        let grid = TauGrid::span(50.0, 0.5);
        let ndft = Ndft::new(&f, grid);
        // A delta at grid index 20 (tau = 10 ns).
        let mut p = vec![Complex64::ZERO; grid.len];
        p[20] = Complex64::ONE;
        let h = ndft.forward(&p);
        for (hi, fi) in h.iter().zip(f.iter()) {
            let expected = Complex64::cis(-2.0 * PI * fi * 10e-9);
            assert!(hi.approx_eq(expected, 1e-12));
        }
    }

    #[test]
    fn adjoint_is_true_adjoint() {
        // <F p, h> == <p, F* h> for random-ish vectors.
        let f = vec![2.4e9, 5.18e9, 5.32e9, 5.825e9];
        let grid = TauGrid::span(20.0, 1.0);
        let ndft = Ndft::new(&f, grid);
        let p: Vec<Complex64> = (0..grid.len)
            .map(|k| Complex64::from_polar(1.0 / (k + 1) as f64, k as f64))
            .collect();
        let h: Vec<Complex64> = (0..f.len())
            .map(|i| Complex64::from_polar(1.0, -0.4 * i as f64))
            .collect();
        let lhs = cvec::dot(&ndft.forward(&p), &h);
        let rhs = cvec::dot(&p, &ndft.adjoint(&h));
        assert!(lhs.approx_eq(rhs, 1e-9), "{lhs} vs {rhs}");
    }

    #[test]
    fn matched_filter_peaks_at_true_delay() {
        let f = freqs();
        let grid = TauGrid::span(50.0, 0.25);
        let ndft = Ndft::new(&f, grid);
        let tau_true = 13.37;
        let h: Vec<Complex64> = f
            .iter()
            .map(|fi| Complex64::cis(-2.0 * PI * fi * tau_true * 1e-9))
            .collect();
        let at_true = ndft.matched_filter(&h, tau_true);
        assert!((at_true - f.len() as f64).abs() < 1e-9, "{at_true}");
        // Strictly smaller a little away.
        assert!(ndft.matched_filter(&h, tau_true + 0.3) < at_true);
        assert!(ndft.matched_filter(&h, tau_true - 0.3) < at_true);
    }

    #[test]
    fn op_norm_close_to_bruteforce_for_tiny_case() {
        // For a single frequency, F is a row of unit-modulus entries:
        // ||F||_2 = sqrt(m).
        let grid = TauGrid::span(10.0, 1.0);
        let ndft = Ndft::new(&[5e9], grid);
        let n = ndft.op_norm(50);
        assert!((n - (grid.len as f64).sqrt()).abs() < 1e-6, "{n}");
    }

    #[test]
    fn op_norm_upper_bounds_gain() {
        let f = freqs();
        let grid = TauGrid::span(100.0, 0.5);
        let ndft = Ndft::new(&f, grid);
        let norm = ndft.op_norm(60);
        // Gain on a specific vector never exceeds the norm.
        let p: Vec<Complex64> = (0..grid.len)
            .map(|k| Complex64::cis(1.1 * k as f64))
            .collect();
        let gain = cvec::norm2(&ndft.forward(&p)) / cvec::norm2(&p);
        assert!(gain <= norm * (1.0 + 1e-6), "gain {gain} norm {norm}");
        // And the norm is within the trivial bound sqrt(n * m).
        assert!(norm <= ((f.len() * grid.len) as f64).sqrt() + 1e-9);
    }

    #[test]
    fn sparse_forward_matches_dense_bruteforce() {
        // The zero-skipping forward must equal the dense sum exactly on a
        // sparse profile (skipped terms are exact zeros).
        let f = freqs();
        let grid = TauGrid::span(50.0, 0.5);
        let ndft = Ndft::new(&f, grid);
        let mut p = vec![Complex64::ZERO; grid.len];
        p[7] = Complex64::from_polar(0.8, 1.1);
        p[40] = Complex64::from_polar(0.3, -0.4);
        p[41] = Complex64::from_polar(0.1, 2.0);
        let fast = ndft.forward(&p);
        for (i, out) in fast.iter().enumerate() {
            let mut dense = Complex64::ZERO;
            for (k, pk) in p.iter().enumerate() {
                dense += ndft.mat[i * grid.len + k] * *pk;
            }
            assert_eq!(out.re.to_bits(), dense.re.to_bits(), "row {i}");
            assert_eq!(out.im.to_bits(), dense.im.to_bits(), "row {i}");
        }
        // Into-variants reuse capacity and agree with the Vec-returning ones.
        let mut buf = Vec::new();
        ndft.forward_into(&p, &mut buf);
        assert_eq!(buf, fast);
        let h: Vec<Complex64> = (0..f.len())
            .map(|i| Complex64::cis(0.2 * i as f64))
            .collect();
        let mut adj = Vec::new();
        ndft.adjoint_into(&h, &mut adj);
        assert_eq!(adj, ndft.adjoint(&h));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn forward_length_checked() {
        let ndft = Ndft::new(&[5e9], TauGrid::span(10.0, 1.0));
        let _ = ndft.forward(&[Complex64::ONE; 3]);
    }

    /// The Intel 5300 delay-scale groups: 24 bands at 5 GHz, 11 at 2.4 GHz.
    fn intel_groups() -> (Vec<f64>, Vec<f64>) {
        let plan = chronos_rf::bands::band_plan();
        let centers = |want_2g4: bool| {
            plan.iter()
                .filter(|b| b.group.is_2g4() == want_2g4)
                .map(|b| b.center_hz)
                .collect()
        };
        (centers(false), centers(true))
    }

    fn subset_12() -> Vec<f64> {
        chronos_rf::subset::select_subset(&band_plan_5ghz(), 12, 100.0)
            .iter()
            .map(|b| b.center_hz)
            .collect()
    }

    #[test]
    fn wifi_groups_factor_on_the_200ns_raster() {
        let grid = TauGrid::span(200.0, 0.25);
        let (g5, g24) = intel_groups();
        // 5,600 and 5,400 complex MACs instead of 19,200 and 8,800.
        assert_eq!(Ndft::new(&g5, grid).polyphase_shape(), Some((8, 4)));
        assert_eq!(Ndft::new(&g24, grid).polyphase_shape(), Some((4, 4)));
        assert!(Ndft::new(&subset_12(), grid).polyphase_shape().is_some());
    }

    #[test]
    fn off_raster_plans_stay_dense() {
        let grid = TauGrid::span(200.0, 0.25);
        // Ideal mode's single 35-band group: the 2.4 GHz centers sit
        // 2 MHz off the 5 GHz raster.
        let all: Vec<f64> = chronos_rf::bands::band_plan()
            .iter()
            .map(|b| b.center_hz)
            .collect();
        assert_eq!(Ndft::new(&all, grid).polyphase_shape(), None);
        // 60 ns is not a multiple of 1 / 5 MHz.
        let (g5, _) = intel_groups();
        assert_eq!(
            Ndft::new(&g5, TauGrid::span(60.0, 0.25)).polyphase_shape(),
            None
        );
        // Arbitrary 2-7 GHz tones (a fixed LCG stream).
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..32 {
            let tones: Vec<f64> = (0..12)
                .map(|_| {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    2e9 + 5e9 * ((state >> 11) as f64 / (1u64 << 53) as f64)
                })
                .collect();
            assert_eq!(Ndft::new(&tones, grid).polyphase_shape(), None);
        }
    }

    /// The polyphase adjoint — alone and as the fused step's gradient —
    /// agrees with the scalar dense adjoint within 1e-11 of `max|F* h|`,
    /// at every step over the 200 ns raster (including phase lengths
    /// that are not a multiple of the lane tile).
    #[test]
    fn raster_adjoint_matches_dense_adjoint() {
        let (g5, g24) = intel_groups();
        for step in [0.25, 0.5, 1.0] {
            let grid = TauGrid::span(200.0, step);
            for freqs in [&g5, &g24, &subset_12()] {
                let ndft = Ndft::new(freqs, grid);
                assert!(ndft.polyphase_shape().is_some(), "step {step}");
                let (n, m) = (ndft.n_freqs(), ndft.n_taus());
                let h: Vec<Complex64> = (0..n)
                    .map(|i| Complex64::from_polar(0.3 + 0.2 * (i % 5) as f64, 1.7 * i as f64))
                    .collect();
                let want = ndft.adjoint(&h);
                let peak = want.iter().map(|z| z.abs()).fold(0.0f64, f64::max);
                let h_re: Vec<f64> = h.iter().map(|z| z.re).collect();
                let h_im: Vec<f64> = h.iter().map(|z| z.im).collect();
                let mut sums = Vec::new();
                let (mut out_re, mut out_im) = (Vec::new(), Vec::new());
                ndft.adjoint_split_into(&h_re, &h_im, &mut sums, &mut out_re, &mut out_im);
                // With zero iterates, no threshold and g2 = -1 the fused
                // step's next iterate is exactly its gradient.
                let zeros = vec![0.0; m];
                let (mut next_re, mut next_im, mut sq) = (vec![0.0; m], vec![0.0; m], vec![0.0; m]);
                ndft.fused_prox_step_split(
                    &h_re,
                    &h_im,
                    &zeros,
                    &zeros,
                    &zeros,
                    &zeros,
                    0.0,
                    -1.0,
                    0.0,
                    &mut next_re,
                    &mut next_im,
                    &mut sq,
                    &mut sums,
                    &mut Vec::new(),
                );
                for k in 0..m {
                    for (re, im) in [(out_re[k], out_im[k]), (next_re[k], next_im[k])] {
                        let err = (want[k] - Complex64::new(re, im)).abs();
                        assert!(err <= 1e-11 * peak, "step {step} n {n} k {k}: {err:e}");
                    }
                }
            }
        }
    }

    /// The fused step as a per-bin reference: the gradient from
    /// [`Ndft::adjoint_split_into`], then pass A as an index loop with
    /// the same `TILE` lanes of `|p|^2` and pass B over the cached
    /// squared magnitudes. Returns `(next_re, next_im, sq, support,
    /// delta2, pnorm2)`.
    #[allow(clippy::type_complexity, clippy::too_many_arguments)]
    fn prox_step_per_bin(
        ndft: &Ndft,
        fy_re: &[f64],
        fy_im: &[f64],
        p_re: &[f64],
        p_im: &[f64],
        prev_re: &[f64],
        prev_im: &[f64],
        beta: f64,
        g2: f64,
        thresh: f64,
    ) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<u32>, f64, f64) {
        use chronos_math::lanes::fmadd;
        let (mut g_re, mut g_im) = (Vec::new(), Vec::new());
        ndft.adjoint_split_into(fy_re, fy_im, &mut Vec::new(), &mut g_re, &mut g_im);
        let m = p_re.len();
        let (mut next_re, mut next_im, mut sq) = (vec![0.0; m], vec![0.0; m], vec![0.0; m]);
        let t2 = thresh * thresh;
        let mut pnorm = [0.0f64; TILE];
        let mut pnorm_tail = 0.0f64;
        let main = m - m % TILE;
        for k in 0..m {
            let yr = fmadd(beta, p_re[k] - prev_re[k], p_re[k]);
            let yi = fmadd(beta, p_im[k] - prev_im[k], p_im[k]);
            let cr = yr - g2 * g_re[k];
            let ci = yi - g2 * g_im[k];
            let sq_v = fmadd(cr, cr, ci * ci);
            sq[k] = sq_v;
            let keep = sq_v > t2;
            next_re[k] = if keep { cr } else { 0.0 };
            next_im[k] = if keep { ci } else { 0.0 };
            let acc = if k < main {
                &mut pnorm[k % TILE]
            } else {
                &mut pnorm_tail
            };
            *acc = fmadd(p_re[k], p_re[k], fmadd(p_im[k], p_im[k], *acc));
        }
        let pnorm2 = pnorm.iter().sum::<f64>() + pnorm_tail;
        let mut delta2 = pnorm2;
        let mut support = Vec::new();
        for k in 0..m {
            let sq_v = sq[k];
            if sq_v <= t2 {
                continue;
            }
            support.push(k as u32);
            let mag = sq_v.sqrt();
            let s = ((mag - thresh) / mag).max(0.0);
            let nr = next_re[k] * s;
            let ni = next_im[k] * s;
            next_re[k] = nr;
            next_im[k] = ni;
            let dr = nr - p_re[k];
            let di = ni - p_im[k];
            delta2 += fmadd(dr, dr, di * di) - fmadd(p_re[k], p_re[k], p_im[k] * p_im[k]);
        }
        (next_re, next_im, sq, support, delta2.max(0.0), pnorm2)
    }

    /// The tiled prox step is the per-bin one, bit for bit: every plane,
    /// the support and both sums, with nonzero iterates, momentum and a
    /// threshold that keeps some bins and zeroes others — on the raster
    /// plans (5 GHz, 2.4 GHz, the 12-band subset), a dense off-raster
    /// plan, and grid lengths that are not a multiple of the lane tile.
    #[test]
    fn tiled_prox_step_matches_per_bin_reference() {
        let (g5, g24) = intel_groups();
        let all: Vec<f64> = chronos_rf::bands::band_plan()
            .iter()
            .map(|b| b.center_hz)
            .collect();
        let plans = [
            (g5.clone(), TauGrid::span(200.0, 0.25)),
            (g24, TauGrid::span(200.0, 0.25)),
            (subset_12(), TauGrid::span(200.0, 0.25)),
            (g5, TauGrid::span(200.0, 2.0)),
            (all.clone(), TauGrid::span(200.0, 0.25)),
            (all, TauGrid::span(61.0, 0.25)),
        ];
        let mut covered = (0, 0, 0);
        for (freqs, grid) in &plans {
            let ndft = Ndft::new(freqs, *grid);
            let (n, m) = (ndft.n_freqs(), ndft.n_taus());
            covered.0 += ndft.polyphase_shape().is_some() as usize;
            covered.1 += ndft.polyphase_shape().is_none() as usize;
            covered.2 += (m % TILE != 0) as usize;
            let fy_re: Vec<f64> = (0..n).map(|i| (0.7 * i as f64).cos()).collect();
            let fy_im: Vec<f64> = (0..n).map(|i| (1.3 * i as f64 + 0.2).sin()).collect();
            // Sparse-ish iterates: most bins zero, a few dozen live.
            let plane = |phase: f64| -> Vec<f64> {
                (0..m)
                    .map(|k| {
                        if k % 13 == 0 || k % 29 == 3 {
                            (phase + 0.37 * k as f64).sin()
                        } else {
                            0.0
                        }
                    })
                    .collect()
            };
            let (p_re, p_im, prev_re, prev_im) = (plane(0.1), plane(1.1), plane(2.3), plane(0.7));
            let (beta, g2) = (0.62, 0.031);
            // A threshold at the median candidate magnitude.
            let (_, _, sq0, ..) = prox_step_per_bin(
                &ndft, &fy_re, &fy_im, &p_re, &p_im, &prev_re, &prev_im, beta, g2, 0.0,
            );
            let mut mags: Vec<f64> = sq0.iter().map(|v| v.sqrt()).collect();
            mags.sort_by(|a, b| a.total_cmp(b));
            let thresh = mags[m / 2];
            let (want_re, want_im, want_sq, want_supp, want_delta2, want_pnorm2) =
                prox_step_per_bin(
                    &ndft, &fy_re, &fy_im, &p_re, &p_im, &prev_re, &prev_im, beta, g2, thresh,
                );
            assert!(!want_supp.is_empty() && want_supp.len() < m);
            let (mut next_re, mut next_im, mut sq) = (vec![9.0; m], vec![9.0; m], vec![9.0; m]);
            let (mut sums, mut supp) = (Vec::new(), vec![7u32]);
            let (delta2, pnorm2) = ndft.fused_prox_step_split(
                &fy_re,
                &fy_im,
                &p_re,
                &p_im,
                &prev_re,
                &prev_im,
                beta,
                g2,
                thresh,
                &mut next_re,
                &mut next_im,
                &mut sq,
                &mut sums,
                &mut supp,
            );
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let what = format!("{n} bands, {m} bins");
            assert_eq!(bits(&next_re), bits(&want_re), "{what}");
            assert_eq!(bits(&next_im), bits(&want_im), "{what}");
            assert_eq!(bits(&sq), bits(&want_sq), "{what}");
            assert_eq!(supp, want_supp, "{what}");
            assert_eq!(delta2.to_bits(), want_delta2.to_bits(), "{what}");
            assert_eq!(pnorm2.to_bits(), want_pnorm2.to_bits(), "{what}");
        }
        assert!(
            covered.0 >= 4 && covered.1 >= 2 && covered.2 >= 2,
            "{covered:?}"
        );
    }
}
