//! The non-uniform discrete Fourier transform over Wi-Fi band centers
//! (paper §6.1).
//!
//! Measurements live at the scattered band center frequencies
//! `{f_1, ..., f_n}`; the multipath profile lives on a uniform delay grid
//! `{tau_1, ..., tau_m}`. The forward operator is the `n x m` matrix
//! `F[i][k] = e^{-j 2 pi f_i tau_k}` (the paper's Fourier matrix). This
//! module materializes `F` (column-major, once), applies it and its
//! adjoint, and estimates its spectral norm by power iteration — the step
//! size the proximal-gradient solver needs.
//!
//! Two sets of kernels apply `F`. The lane-chunked split-plane kernels
//! ([`Ndft::forward_extrapolated_split`], `Ndft::fused_prox_step_split`,
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
//!
//! # Safe tile screening
//!
//! After its first iterations a 5 GHz solve keeps a few dozen of its 800
//! bins, yet every prox step used to compute the gradient on all of
//! them. The crate-private `TileScreen` lets the fused prox step skip each
//! lane tile (8 bins) that a bound proves stays zero in the next
//! iterate: no gradient (polyphase expansion or dense adjoint), no pass
//! A, no pass B. The bound rests on every entry of `F` having unit
//! modulus, so `|(F* a)_k - (F* b)_k| <= |a - b|_1`: a tile's gradient
//! moves by at most the 1-norm of the residual's change. The iterates do
//! not change by a bit (`docs/PIPELINE.md` derives the margin that
//! keeps it so). Each step lists its live tiles once, builds only the
//! polyphase partial sums they read, and both passes walk that list, so
//! a step's cost follows the support rather than the grid.

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
/// The matrix is stored as one contiguous column-major buffer so the
/// forward/adjoint loops — the innermost loops of the whole estimator —
/// stream memory linearly. Construction (and the power iteration for the
/// operator norm) is the expensive part; sessions that sweep the same band
/// plan should build the operator once via a `PlanCache` and share it.
#[derive(Debug, Clone)]
pub struct Ndft {
    freqs_hz: Vec<f64>,
    grid: TauGrid,
    /// Column-major `m x n` matrix entries, column `k` = grid delay `k`
    /// (contiguous): the forward transform walks *columns* so it can skip
    /// the zero entries of a sparse profile while streaming memory
    /// linearly, and the scalar adjoint reduces each column to one
    /// output.
    mat_t: Vec<Complex64>,
    /// Structure-of-arrays copies of the operator (split re/im planes)
    /// for the solver's lane-chunked kernels. Same entries, copied at
    /// construction.
    split: SplitMats,
}

/// Split re/im planes of the operator for the lane kernels.
#[derive(Debug, Clone, Default)]
struct SplitMats {
    /// Row-major (`n x m`) real parts; empty on raster plans, whose
    /// adjoint runs through `poly` instead.
    mat_re: Vec<f64>,
    /// Row-major imaginary parts; empty on raster plans.
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
    /// The phase units every lane tile of the main grid reads, with
    /// repeats (unit `u` is phases `u TILE..(u + 1) TILE` of every
    /// class). A tile reads `TILE` phases from `k'`, wrapping at `P`:
    /// at most two units, or three when the window wraps (its two
    /// before `P`, then unit 0).
    tile_units: Vec<[u32; 3]>,
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
        let unit = |k: usize| (k / TILE) as u32;
        let tile_units = (0..big_n / TILE)
            .map(|t| {
                let k0 = t * TILE % phase_len;
                if k0 + TILE <= phase_len {
                    [unit(k0), unit(k0 + TILE - 1), unit(k0)]
                } else {
                    [unit(k0), unit(phase_len - 1), 0]
                }
            })
            .collect();
        Some(Polyphase {
            decimation,
            phase_len,
            classes: residues.len(),
            rows,
            class_start,
            tile_phase: (0..big_n).step_by(TILE).map(|c| c % phase_len).collect(),
            tile_units,
            w_re,
            w_im,
            t_re,
            t_im,
        })
    }

    /// The partial sums `S_c[k'] = sum_{i in c} r_i W_i[k']` into
    /// `sums`: the row-major `C x P` real plane, then the imaginary one
    /// (no allocation once `sums` holds `2 C P <= 2 N` entries).
    ///
    /// Builds the phase units that `units` marks nonzero, or every unit
    /// when it is `None`, and returns how many it built. An unbuilt unit
    /// keeps whatever `sums` held before; the caller reads only the
    /// units it asked for. Every entry of a built unit accumulates its
    /// class's rows in `rows` order from `+0.0` (a full lane tile in
    /// registers) and is written once, so it has the same bits whichever
    /// other units are built.
    fn partial_sums(
        &self,
        r_re: &[f64],
        r_im: &[f64],
        sums: &mut Vec<f64>,
        units: Option<&[u32]>,
    ) -> usize {
        use chronos_math::lanes::fmadd;
        let p = self.phase_len;
        sums.resize(2 * self.classes * p, 0.0);
        let (s_re, s_im) = sums.split_at_mut(self.classes * p);
        let mut built = 0;
        for u in 0..p.div_ceil(TILE) {
            if units.is_some_and(|marks| marks[u] == 0) {
                continue;
            }
            built += 1;
            let c = u * TILE;
            for cls in 0..self.classes {
                let members = self.class_start[cls]..self.class_start[cls + 1];
                let out_re = &mut s_re[cls * p..(cls + 1) * p];
                let out_im = &mut s_im[cls * p..(cls + 1) * p];
                if c + TILE <= p {
                    let mut ar = [0.0f64; TILE];
                    let mut ai = [0.0f64; TILE];
                    for r in members {
                        let (hr, hi) = (r_re[self.rows[r]], r_im[self.rows[r]]);
                        let w_re = lane_tile(&self.w_re[r * p + c..]);
                        let w_im = lane_tile(&self.w_im[r * p + c..]);
                        for l in 0..TILE {
                            ar[l] = fmadd(w_re[l], hr, fmadd(-w_im[l], hi, ar[l]));
                            ai[l] = fmadd(w_re[l], hi, fmadd(w_im[l], hr, ai[l]));
                        }
                    }
                    out_re[c..c + TILE].copy_from_slice(&ar);
                    out_im[c..c + TILE].copy_from_slice(&ai);
                    continue;
                }
                for k in c..p {
                    let (mut ar, mut ai) = (0.0f64, 0.0f64);
                    for r in members.clone() {
                        let (hr, hi) = (r_re[self.rows[r]], r_im[self.rows[r]]);
                        let (wr, wi) = (self.w_re[r * p + k], self.w_im[r * p + k]);
                        ar = fmadd(wr, hr, fmadd(-wi, hi, ar));
                        ai = fmadd(wr, hi, fmadd(wi, hr, ai));
                    }
                    (out_re[k], out_im[k]) = (ar, ai);
                }
            }
        }
        built
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
        let n = freqs_hz.len();
        let m = grid.len;
        let mut mat_t = Vec::with_capacity(n * m);
        for k in 0..m {
            let tau_s = grid.tau_at(k) * 1e-9;
            for f in freqs_hz {
                mat_t.push(Complex64::cis(-2.0 * PI * f * tau_s));
            }
        }
        // Raster plans skip the row-major split planes: their adjoint is
        // the polyphase factorization, and nothing else reads them.
        let poly = Polyphase::new(freqs_hz, grid);
        let (mat_re, mat_im) = match poly {
            Some(_) => (Vec::new(), Vec::new()),
            None => {
                let row_major = |part: fn(&Complex64) -> f64| {
                    (0..n * m)
                        .map(|ik| part(&mat_t[(ik % m) * n + ik / m]))
                        .collect()
                };
                (row_major(|z| z.re), row_major(|z| z.im))
            }
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

    /// Column `k` of the operator: the steering vector
    /// `e^{-j 2 pi f_i tau_k}` of grid delay `k`, one entry per band.
    pub(crate) fn column(&self, k: usize) -> &[Complex64] {
        let n = self.freqs_hz.len();
        &self.mat_t[k * n..(k + 1) * n]
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
    ///
    /// Reduces one column of the column-major operator per output,
    /// accumulating its terms in ascending measurement order from zero:
    /// the order of a row-by-row axpy over a row-major copy, so the bits
    /// are the same without keeping that copy.
    pub fn adjoint_into(&self, h: &[Complex64], out: &mut Vec<Complex64>) {
        let n = self.freqs_hz.len();
        assert_eq!(h.len(), n, "adjoint: measurement length mismatch");
        out.clear();
        out.extend(self.mat_t.chunks_exact(n).map(|col| {
            let mut acc = Complex64::ZERO;
            for (a, hi) in col.iter().zip(h.iter()) {
                acc += a.conj() * *hi;
            }
            acc
        }));
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
    /// `Ndft::fused_prox_step_split`); `y` can only be nonzero on
    /// their merge, so there is no full-grid zero scan. A column is
    /// skipped only when both planes of `y` are exactly zero, the scalar
    /// kernel's predicate.
    ///
    /// The surviving columns are gathered once (up to 64 at a time, on
    /// the stack), and each block of `TILE` measurement rows
    /// then accumulates across all of them in registers, so the output
    /// is read and written once per block instead of once per column.
    /// Every output element still takes its terms in ascending column
    /// order from `+0.0`: the per-column axpy's order, and its bits.
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
        let mut support = merged(supp_p, supp_prev);
        let (mut cols, mut y_re, mut y_im) = ([0usize; GATHER], [0.0f64; GATHER], [0.0f64; GATHER]);
        loop {
            let mut len = 0;
            for k in support.by_ref() {
                let yr = fmadd(beta, p_re[k] - prev_re[k], p_re[k]);
                let yi = fmadd(beta, p_im[k] - prev_im[k], p_im[k]);
                if yr == 0.0 && yi == 0.0 {
                    continue;
                }
                (cols[len], y_re[len], y_im[len]) = (k, yr, yi);
                len += 1;
                if len == GATHER {
                    break;
                }
            }
            self.accumulate_columns(&cols[..len], &y_re[..len], &y_im[..len], out_re, out_im);
            if len < GATHER {
                return;
            }
        }
    }

    /// `out += sum_j F[.][cols_j] y_j` over split planes, one block of
    /// `TILE` rows at a time: a block's accumulators stay in registers
    /// across every column, which it takes in the order of `cols`.
    fn accumulate_columns(
        &self,
        cols: &[usize],
        y_re: &[f64],
        y_im: &[f64],
        out_re: &mut [f64],
        out_im: &mut [f64],
    ) {
        use chronos_math::lanes::fmadd;
        let n = out_re.len();
        let (mat_re, mat_im) = (&self.split.mat_t_re, &self.split.mat_t_im);
        let terms = || cols.iter().zip(y_re).zip(y_im);
        let main = n - n % TILE;
        for r in (0..main).step_by(TILE) {
            let mut acc_re = *lane_tile(&out_re[r..]);
            let mut acc_im = *lane_tile(&out_im[r..]);
            for ((k, yr), yi) in terms() {
                let a_re = lane_tile(&mat_re[k * n + r..]);
                let a_im = lane_tile(&mat_im[k * n + r..]);
                for l in 0..TILE {
                    acc_re[l] = fmadd(a_re[l], *yr, fmadd(-a_im[l], *yi, acc_re[l]));
                    acc_im[l] = fmadd(a_re[l], *yi, fmadd(a_im[l], *yr, acc_im[l]));
                }
            }
            out_re[r..r + TILE].copy_from_slice(&acc_re);
            out_im[r..r + TILE].copy_from_slice(&acc_im);
        }
        for r in main..n {
            let (mut acc_re, mut acc_im) = (out_re[r], out_im[r]);
            for ((k, yr), yi) in terms() {
                let (ar, ai) = (mat_re[k * n + r], mat_im[k * n + r]);
                acc_re = fmadd(ar, *yr, fmadd(-ai, *yi, acc_re));
                acc_im = fmadd(ar, *yi, fmadd(ai, *yr, acc_im));
            }
            (out_re[r], out_im[r]) = (acc_re, acc_im);
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
    /// planes: the partial sums `S` are built into the caller's `sums`
    /// buffer (`2 C P <= 2 N` entries, untouched on off-raster plans),
    /// and pass A combines them with the output twiddles. Both passes
    /// are otherwise shared with the dense kernel.
    ///
    /// `screen` first lists the step's live tiles ([`TileScreen`]),
    /// given the support lists `supp_p`/`supp_prev` of `p`/`prev`: the
    /// tiles either list touches, and the tiles whose bound does not
    /// prove they stay zero. Only the phase units of `S` that live tiles
    /// read are built (all of them when the grid has a ragged tail,
    /// whose bins read any phase), and both passes walk the live list
    /// alone: a skipped tile computes no gradient, neither pass visits
    /// it, and nothing is written to it. That relies on the solver's
    /// rotation: `next` holds the iterate before `prev`, which is zero
    /// on every tile the screen skips (the tile was untouched at the
    /// previous step too). The planes, the support and both sums are
    /// then bitwise those of the all-evaluate step; only `sq` and the
    /// unbuilt units of `sums` keep stale values.
    ///
    /// Reductions are lane-reassociated and the shrink magnitude uses
    /// `sqrt` instead of the scalar reference's `hypot`, so this kernel
    /// agrees with the reference within a tolerance, not bitwise (see
    /// `docs/PIPELINE.md`).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn fused_prox_step_split(
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
        supp_p: &[u32],
        supp_prev: &[u32],
        supp_next: &mut Vec<u32>,
        screen: &mut TileScreen,
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
        assert_eq!(screen.bound.len(), m / TILE, "fused step: screen mismatch");
        screen.plan(supp_p, supp_prev);
        match &self.split.poly {
            Some(poly) => {
                // The tail bins of a ragged grid read any phase.
                let units = m
                    .is_multiple_of(TILE)
                    .then(|| screen.mark_units(&poly.tile_units));
                let built = poly.partial_sums(fy_re, fy_im, sums, units);
                screen.units_built += built;
                let grad = PolyAdjoint::new(poly, sums, m);
                prox_pass(
                    &grad, p_re, p_im, prev_re, prev_im, beta, g2, thresh, next_re, next_im, sq,
                    supp_next, screen,
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
                    supp_next, screen,
                )
            }
        }
    }

    /// [`Ndft::adjoint_into`] over split re/im slices: `p = F* h`.
    ///
    /// Expands the fused prox step's gradient source tile by tile: the
    /// dense planes on dense plans (`n x m` complex MACs), the polyphase
    /// partial sums, built into `sums`, on raster plans.
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
        match &self.split.poly {
            Some(poly) => {
                poly.partial_sums(h_re, h_im, sums, None);
                expand(&PolyAdjoint::new(poly, sums, m), out_re, out_im);
            }
            None => {
                let grad = DenseAdjoint {
                    mat_re: &self.split.mat_re,
                    mat_im: &self.split.mat_im,
                    r_re: h_re,
                    r_im: h_im,
                    m,
                };
                expand(&grad, out_re, out_im);
            }
        }
    }

    /// Lane tiles of the fused prox step on the main grid (`m / 8`; the
    /// last `m % 8` bins form no tile): the unit
    /// [`crate::ista::IstaStats::tiles_evaluated`] counts in.
    pub fn n_tiles(&self) -> usize {
        self.grid.len / TILE
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
/// The forward pass blocks its measurement rows by the same width.
const TILE: usize = 2 * chronos_math::lanes::LANES;

/// Support columns [`Ndft::forward_extrapolated_split`] gathers per
/// batch; a larger support takes several batches.
const GATHER: usize = 64;

/// The ascending union of two ascending index lists.
fn merged<'a>(a: &'a [u32], b: &'a [u32]) -> impl Iterator<Item = usize> + 'a {
    let (mut i, mut j) = (0, 0);
    std::iter::from_fn(move || {
        let k = match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) => {
                i += (x <= y) as usize;
                j += (y <= x) as usize;
                x.min(y)
            }
            (Some(&x), None) => {
                i += 1;
                x
            }
            (None, Some(&y)) => {
                j += 1;
                y
            }
            (None, None) => return None,
        };
        Some(k as usize)
    })
}

/// The source of the fused prox step's gradient `F* r`: the dense
/// row-major planes or a raster plan's polyphase factorization.
trait GradSource {
    /// `(F* r)_k` for the grid points `k` in `c..c + TILE`.
    fn tile(&self, c: usize) -> ([f64; TILE], [f64; TILE]);
    /// `(F* r)_k` at one grid point.
    fn at(&self, k: usize) -> (f64, f64);
}

/// Writes `grad` over the whole grid into `out_re`/`out_im`: lane
/// tiles on the main grid, one point at a time on the ragged tail.
fn expand(grad: &impl GradSource, out_re: &mut [f64], out_im: &mut [f64]) {
    let m = out_re.len();
    let main = m - m % TILE;
    for c in (0..main).step_by(TILE) {
        let (gr, gi) = grad.tile(c);
        out_re[c..c + TILE].copy_from_slice(&gr);
        out_im[c..c + TILE].copy_from_slice(&gi);
    }
    for k in main..m {
        (out_re[k], out_im[k]) = grad.at(k);
    }
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
/// source and the step's live-tile plan ([`TileScreen::plan`]); returns
/// `(|next - p|_2^2, |p|_2^2)`.
///
/// Both passes walk the live list alone, in ascending order. Pass A views
/// each live tile of the seven grid planes as a fixed-size `[f64; TILE]`
/// array, so the tile body has no per-lane bounds checks and compiles to
/// packed arithmetic.
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
    screen: &mut TileScreen,
) -> (f64, f64) {
    use chronos_math::lanes::fmadd;
    let m = p_re.len();
    supp_next.clear();
    let t2 = thresh * thresh;
    let mut pnorm = [0.0f64; TILE];
    let main = m - m % TILE;
    // Pass A — branchless and sqrt/div-free within a tile, so it
    // vectorizes end to end: gradient tile, extrapolation, gradient
    // step, the below-threshold zeroing (a select against the *squared*
    // threshold) and the |p|^2 reduction. Candidate magnitudes land in
    // `sq`, surviving candidates stay un-shrunk in `next` for pass B.
    // A skipped tile adds nothing to the |p|^2 lanes: `p` is zero
    // there, and adding +0 leaves every lane's bits as they are. Its
    // `next` is already the zero the full pass would write: a skip
    // needs a bound recorded untouched, so the previous step found the
    // tile untouched too, and the stale iterate in `next` is the
    // previous step's `prev`.
    debug_assert!(screen.skipped().all(|t| {
        let tile = t * TILE..(t + 1) * TILE;
        next_re[tile.clone()]
            .iter()
            .chain(&next_im[tile])
            .all(|v| v.to_bits() == 0)
    }));
    screen.evaluated += screen.n_live;
    for j in 0..screen.n_live {
        let (t, touched) = ((screen.live[j] >> 1) as usize, screen.live[j] & 1 == 1);
        let c = t * TILE;
        let (gr, gi) = grad.tile(c);
        let (pr, pi) = (lane_tile(&p_re[c..]), lane_tile(&p_im[c..]));
        let (qr, qi) = (lane_tile(&prev_re[c..]), lane_tile(&prev_im[c..]));
        let (nr, ni) = (
            lane_tile_mut(&mut next_re[c..]),
            lane_tile_mut(&mut next_im[c..]),
        );
        let sqt = lane_tile_mut(&mut sq[c..]);
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
        screen.record(t, touched, sqt);
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
    // |next_k - p_k|^2 - |p_k|^2 adjustment. The tiles off the live list
    // hold no survivor, and their `sq` is stale: pass B does not visit
    // them.
    let mut delta2 = pnorm2;
    let mut shrink = |k: usize| {
        let sq_v = sq[k];
        if sq_v <= t2 {
            return;
        }
        supp_next.push(k as u32);
        let mag = sq_v.sqrt();
        let s = ((mag - thresh) / mag).max(0.0);
        next_re[k] *= s;
        next_im[k] *= s;
        let (pr, pi) = (p_re[k], p_im[k]);
        let dr = next_re[k] - pr;
        let di = next_im[k] - pi;
        delta2 += fmadd(dr, dr, di * di) - fmadd(pr, pr, pi * pi);
    };
    for e in &screen.live[..screen.n_live] {
        let c = (e >> 1) as usize * TILE;
        (c..c + TILE).for_each(&mut shrink);
    }
    (main..m).for_each(&mut shrink);
    // Cancellation in the correction can drive a tiny positive sum
    // fractionally negative; clamp so the caller's sqrt stays real.
    (delta2.max(0.0), pnorm2)
}

/// The relative margin `ε` the screen keeps below the threshold: a tile
/// is skipped only when its bound is under `thresh (1 - ε)`. Half of it
/// covers the rounding that scales with the threshold, the other half
/// the rounding that scales with the residual (docs/PIPELINE.md, "Safe
/// tile screening").
const SCREEN_MARGIN: f64 = 1e-9;

/// The safe tile screen of [`Ndft::fused_prox_step_split`]: what one
/// solve knows about the gradient of every lane tile, so that a step can
/// skip the tiles it proves stay zero (docs/PIPELINE.md, "Safe tile
/// screening").
///
/// A tile is *untouched* when neither `p` nor `prev` has support on it.
/// Its extrapolation point is then exactly zero, and its candidates are
/// `c_k = -g2 (F* fy)_k`. Every entry of `F` has unit modulus, so
/// `|(F* a)_k - (F* b)_k| <= |a - b|_1`, and from one step to the next a
/// candidate moves by at most `g2` times the residual's change in the
/// 1-norm. The screen sums those changes into the *drift* `D`. When a
/// step evaluates an untouched tile, the screen records
/// `bound = max_k |c_k|` and `mark = D`. While the tile stays untouched,
/// a later step skips it if `bound + (D - mark) < thresh (1 - ε)`: every
/// candidate is below the threshold, so the full pass would write zeros.
/// A touched tile's bound is `+inf`, and every bound starts there, so the
/// first step evaluates every tile. A NaN anywhere fails the comparison,
/// and that tile is evaluated.
///
/// Each step the screen first lists its live tiles, the touched ones and
/// those it does not skip ([`TileScreen::plan`]), and on raster plans
/// marks the phase units they read ([`TileScreen::mark_units`]). The prox
/// step then builds those units and walks that list alone.
pub(crate) struct TileScreen<'a> {
    /// Per lane tile of the main grid: `max |c_k|` when last evaluated
    /// untouched, `+inf` after a touched evaluation.
    bound: &'a mut [f64],
    /// Per lane tile: the drift at which `bound` was recorded.
    mark: &'a mut [f64],
    /// The previous step's residual, real plane then imaginary.
    last: &'a mut [f64],
    /// `D = g2 sum_t |fy_t - fy_(t-1)|_1`, the 1-norm over the split
    /// planes (which bounds the complex one).
    drift: f64,
    /// The largest `g2 |fy|_1` observed: the gradient's rounding error
    /// is at most `rho` times it.
    scale: f64,
    /// The gradient's rounding bound per unit of `g2 |fy|_1`, at both
    /// ends of a window.
    rho: f64,
    /// Residuals observed.
    steps: usize,
    /// This step's skip limit; `-inf` evaluates every tile.
    limit: f64,
    /// Off for the all-evaluate reference, which never skips.
    screening: bool,
    /// The step's live-tile plan ([`TileScreen::plan`]): its first
    /// `n_live` entries are the live tiles, ascending, each as
    /// `t << 1 | touched`.
    live: &'a mut [u32],
    /// Live tiles this step.
    n_live: usize,
    /// Per phase unit of a raster plan: nonzero when a live tile reads
    /// it ([`TileScreen::mark_units`]).
    units: &'a mut [u32],
    /// Gradient tiles evaluated so far.
    evaluated: usize,
    /// Polyphase partial-sum units built so far.
    units_built: usize,
}

impl<'a> TileScreen<'a> {
    /// A fresh screen for one solve over `ndft`, carved from `state`:
    /// `2 (m / TILE)` per-tile entries, then the previous residual's
    /// `2 n`; and its live-tile plan, carved from `plan`: `m / TILE`
    /// list entries, then `ceil(m / TILE)` unit marks (a plan on this
    /// grid has at most that many phase units). Both buffers are
    /// reserved to their size before they are filled, so warm buffers
    /// do not allocate. With `screening` off the screen never skips:
    /// that is the all-evaluate reference the solver tests compare
    /// against.
    pub(crate) fn new(
        ndft: &Ndft,
        state: &'a mut Vec<f64>,
        plan: &'a mut Vec<u32>,
        screening: bool,
    ) -> Self {
        let (m, n) = (ndft.grid.len, ndft.freqs_hz.len());
        let tiles = m / TILE;
        state.clear();
        state.reserve(2 * tiles + 2 * n);
        state.resize(tiles, f64::INFINITY);
        state.resize(2 * tiles + 2 * n, 0.0);
        let (bound, rest) = state.split_at_mut(tiles);
        let (mark, last) = rest.split_at_mut(tiles);
        plan.clear();
        plan.resize(tiles + m.div_ceil(TILE), 0);
        let (live, units) = plan.split_at_mut(tiles);
        TileScreen {
            bound,
            mark,
            last,
            drift: 0.0,
            scale: 0.0,
            rho: 16.0 * (n as f64 + 2.0) * f64::EPSILON,
            steps: 0,
            limit: f64::NEG_INFINITY,
            screening,
            live,
            n_live: 0,
            units,
            evaluated: 0,
            units_built: 0,
        }
    }

    /// Folds the step's residual `fy` into the drift and sets the step's
    /// skip limit. Screening holds only while the rounding that scales
    /// with the residual (the gradient's, at both ends of a window, and
    /// the drift sum's) fits in half the margin; otherwise this step
    /// evaluates every tile.
    pub(crate) fn observe(&mut self, fy_re: &[f64], fy_im: &[f64], g2: f64, thresh: f64) {
        let (last_re, last_im) = self.last.split_at_mut(fy_re.len());
        let (mut change, mut size) = (0.0f64, 0.0f64);
        let planes = fy_re.iter().zip(fy_im).zip(last_re.iter_mut().zip(last_im));
        for ((r, i), (lr, li)) in planes {
            change += (r - *lr).abs() + (i - *li).abs();
            size += r.abs() + i.abs();
            (*lr, *li) = (*r, *i);
        }
        if self.steps > 0 {
            self.drift += g2 * change;
        }
        self.steps += 1;
        self.scale = self.scale.max(g2 * size);
        let rounding = self.rho * self.scale + 2.0 * f64::EPSILON * self.steps as f64 * self.drift;
        self.limit = if self.screening && rounding <= 0.5 * SCREEN_MARGIN * thresh {
            thresh * (1.0 - SCREEN_MARGIN)
        } else {
            f64::NEG_INFINITY
        };
    }

    /// Gradient tiles the steps have evaluated so far.
    pub(crate) fn evaluated(&self) -> usize {
        self.evaluated
    }

    /// Polyphase partial-sum units the steps have built so far.
    pub(crate) fn units_built(&self) -> usize {
        self.units_built
    }

    /// Whether tile `t` is skipped, given the bound it holds.
    #[inline(always)]
    fn skips(&self, t: usize) -> bool {
        self.bound[t] + (self.drift - self.mark[t]) < self.limit
    }

    /// Lists the step's live tiles, ascending: every tile that
    /// `supp_p` or `supp_prev` touches (flagged touched), and every
    /// other tile whose bound does not skip it. Per tile it is one bound
    /// test, one flag and one branch-free store: the flags are compacted
    /// in place, since the list never runs ahead of the tile it reads.
    fn plan(&mut self, supp_p: &[u32], supp_prev: &[u32]) {
        let tiles = self.live.len();
        for t in 0..tiles {
            self.live[t] = !self.skips(t) as u32;
        }
        for k in supp_p.iter().chain(supp_prev) {
            // Tail bins past the last tile have no entry.
            if let Some(flag) = self.live.get_mut(*k as usize / TILE) {
                *flag = 3;
            }
        }
        let mut n_live = 0;
        for t in 0..tiles {
            let flag = self.live[t];
            self.live[n_live] = (t as u32) << 1 | flag >> 1;
            n_live += (flag != 0) as usize;
        }
        self.n_live = n_live;
    }

    /// Marks the phase units the live tiles read, given each tile's
    /// units (`Polyphase::tile_units`), and returns the marks.
    fn mark_units(&mut self, tile_units: &[[u32; 3]]) -> &[u32] {
        self.units.fill(0);
        for e in &self.live[..self.n_live] {
            for u in tile_units[(e >> 1) as usize] {
                self.units[u as usize] = 1;
            }
        }
        self.units
    }

    /// The tiles of the main grid off the live list, ascending.
    fn skipped(&self) -> impl Iterator<Item = usize> + '_ {
        let mut live = self.live[..self.n_live]
            .iter()
            .map(|e| (e >> 1) as usize)
            .peekable();
        (0..self.live.len()).filter(move |t| live.next_if_eq(t).is_none())
    }

    /// Records evaluated tile `t` with squared candidate magnitudes `sq`.
    #[inline(always)]
    fn record(&mut self, t: usize, touched: bool, sq: &[f64; TILE]) {
        if touched {
            self.bound[t] = f64::INFINITY;
            return;
        }
        // The largest square (none is negative), halving the lanes in
        // log2(TILE) dependent steps. A NaN lane makes the peak NaN, so
        // the tile is never skipped.
        let wider = |a: f64, b: f64| if a > b || a.is_nan() { a } else { b };
        let (mut peak, mut width) = (*sq, TILE);
        while width > 1 {
            width /= 2;
            for l in 0..width {
                peak[l] = wider(peak[l], peak[l + width]);
            }
        }
        self.bound[t] = peak[0].sqrt();
        self.mark[t] = self.drift;
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

    /// The operator as the row-major `n x m` matrix `Ndft` once kept
    /// beside its column-major copy, built by the same expression.
    fn row_major(freqs: &[f64], grid: TauGrid) -> Vec<Complex64> {
        let mut mat = Vec::with_capacity(freqs.len() * grid.len);
        for f in freqs {
            for k in 0..grid.len {
                let tau_s = grid.tau_at(k) * 1e-9;
                mat.push(Complex64::cis(-2.0 * PI * f * tau_s));
            }
        }
        mat
    }

    /// The scalar adjoint as it ran over the row-major matrix: one
    /// conjugated axpy per measurement row.
    fn adjoint_row_major(mat: &[Complex64], m: usize, h: &[Complex64]) -> Vec<Complex64> {
        let mut out = vec![Complex64::ZERO; m];
        for (row, hi) in mat.chunks_exact(m).zip(h.iter()) {
            for (o, a) in out.iter_mut().zip(row.iter()) {
                *o += a.conj() * *hi;
            }
        }
        out
    }

    /// The column-walking scalar adjoint is the row-major one bit for
    /// bit, and so is the power iteration built on it, on raster and
    /// dense plans and grids with a ragged tail. On the dense plans the
    /// split adjoint's tile expansion is the row-by-row loop bit for bit
    /// too: the same `fmadd`s over the rows in order, from `+0.0`.
    #[test]
    fn column_adjoint_matches_row_major_bitwise() {
        let (g5, g24) = intel_groups();
        let all: Vec<f64> = chronos_rf::bands::band_plan()
            .iter()
            .map(|b| b.center_hz)
            .collect();
        let plans = [
            (g5.clone(), TauGrid::span(200.0, 0.25)),
            (g24, TauGrid::span(200.0, 0.25)),
            (subset_12(), TauGrid::span(200.0, 0.25)),
            (all, TauGrid::span(200.0, 0.25)),
            (g5, TauGrid::span(61.0, 0.25)),
            (
                vec![2.4e9, 5.18e9, 5.32e9, 5.825e9],
                TauGrid::span(20.0, 1.0),
            ),
        ];
        for (freqs, grid) in &plans {
            let ndft = Ndft::new(freqs, *grid);
            let mat = row_major(freqs, *grid);
            let m = grid.len;
            let h: Vec<Complex64> = (0..freqs.len())
                .map(|i| Complex64::from_polar(0.2 + 0.1 * (i % 7) as f64, 2.3 * i as f64))
                .collect();
            let bits = |v: &[Complex64]| {
                v.iter()
                    .map(|z| (z.re.to_bits(), z.im.to_bits()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(
                bits(&ndft.adjoint(&h)),
                bits(&adjoint_row_major(&mat, m, &h))
            );
            if ndft.polyphase_shape().is_none() {
                use chronos_math::lanes::fmadd;
                let (mut want_re, mut want_im) = (vec![0.0; m], vec![0.0; m]);
                for (row, hi) in mat.chunks_exact(m).zip(h.iter()) {
                    for (k, a) in row.iter().enumerate() {
                        want_re[k] = fmadd(a.re, hi.re, fmadd(a.im, hi.im, want_re[k]));
                        want_im[k] = fmadd(a.re, hi.im, fmadd(-a.im, hi.re, want_im[k]));
                    }
                }
                let h_re: Vec<f64> = h.iter().map(|z| z.re).collect();
                let h_im: Vec<f64> = h.iter().map(|z| z.im).collect();
                let (mut out_re, mut out_im) = (Vec::new(), Vec::new());
                ndft.adjoint_split_into(&h_re, &h_im, &mut Vec::new(), &mut out_re, &mut out_im);
                let plane = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(plane(&out_re), plane(&want_re), "{} bands", freqs.len());
                assert_eq!(plane(&out_im), plane(&want_im), "{} bands", freqs.len());
            }
            // `op_norm`'s power iteration, with the row-major adjoint.
            let mut v: Vec<Complex64> = (0..m)
                .map(|k| Complex64::cis(0.37 * k as f64) / (m as f64).sqrt())
                .collect();
            let mut norm = 1.0;
            for _ in 0..20 {
                let mut w = adjoint_row_major(&mat, m, &ndft.forward(&v));
                norm = cvec::norm2(&w);
                cvec::scale_in_place(&mut w, 1.0 / norm);
                v = w;
            }
            assert_eq!(ndft.op_norm(20).to_bits(), norm.sqrt().to_bits());
        }
    }

    #[test]
    fn sparse_forward_matches_dense_bruteforce() {
        // The zero-skipping forward must equal the dense sum exactly on a
        // sparse profile (skipped terms are exact zeros).
        let f = freqs();
        let grid = TauGrid::span(50.0, 0.5);
        let ndft = Ndft::new(&f, grid);
        let mat = row_major(&f, grid);
        let mut p = vec![Complex64::ZERO; grid.len];
        p[7] = Complex64::from_polar(0.8, 1.1);
        p[40] = Complex64::from_polar(0.3, -0.4);
        p[41] = Complex64::from_polar(0.1, 2.0);
        let fast = ndft.forward(&p);
        for (i, out) in fast.iter().enumerate() {
            let mut dense = Complex64::ZERO;
            for (k, pk) in p.iter().enumerate() {
                dense += mat[i * grid.len + k] * *pk;
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
                let mut state = Vec::new();
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
                    &[],
                    &[],
                    &mut Vec::new(),
                    &mut TileScreen::new(&ndft, &mut state, &mut Vec::new(), false),
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

    /// The ascending nonzero indices of a split plane pair.
    fn support(re: &[f64], im: &[f64]) -> Vec<u32> {
        (0..re.len())
            .filter(|k| re[*k] != 0.0 || im[*k] != 0.0)
            .map(|k| k as u32)
            .collect()
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
            let (mut sums, mut supp, mut state) = (Vec::new(), vec![7u32], Vec::new());
            let (supp_p, supp_prev) = (support(&p_re, &p_im), support(&prev_re, &prev_im));
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
                &supp_p,
                &supp_prev,
                &mut supp,
                &mut TileScreen::new(&ndft, &mut state, &mut Vec::new(), false),
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

    /// The blocked forward pass is, bit for bit, a per-row loop over the
    /// merged support: ascending columns, every row from `+0.0`, and a
    /// column skipped when both planes of its extrapolated value are
    /// exactly zero. Overlapping and disjoint supports, a support longer
    /// than one gather batch, `beta` = 0 and 0.5, and 11, 12, 24 and 35
    /// rows (not all a multiple of the row block). The zero columns are
    /// NaN in the kernel's copy of the operator, so reading one would
    /// show.
    #[test]
    fn blocked_forward_matches_per_row_loop_bitwise() {
        use chronos_math::lanes::fmadd;
        use std::collections::BTreeSet;
        let (g5, g24) = intel_groups();
        let all: Vec<f64> = chronos_rf::bands::band_plan()
            .iter()
            .map(|b| b.center_hz)
            .collect();
        let grid = TauGrid::span(200.0, 0.25);
        let m = grid.len;
        let supports: [(Vec<u32>, Vec<u32>); 3] = [
            // Overlapping; at bin 250 `prev = 3 p` makes y = 0 at beta 0.5.
            (
                vec![3, 17, 18, 40, 41, 42, 100, 250, 251, 799],
                vec![17, 40, 99, 100, 250, 600],
            ),
            (vec![5, 64, 300], vec![6, 65, 301, 702]),
            (
                (0..150).map(|j| 5 * j + 1).collect(),
                (0..120).map(|j| 6 * j).collect(),
            ),
        ];
        let mut zeros_seen = [0usize; 2];
        for freqs in [&g24, &subset_12(), &g5, &all] {
            let ndft = Ndft::new(freqs, grid);
            let n = ndft.n_freqs();
            for (supp_p, supp_prev) in &supports {
                let (mut p_re, mut p_im) = (vec![0.0; m], vec![0.0; m]);
                let (mut prev_re, mut prev_im) = (vec![0.0; m], vec![0.0; m]);
                for &k in supp_p {
                    let k = k as usize;
                    (p_re[k], p_im[k]) = ((0.3 + 0.01 * k as f64).sin(), (0.7 * k as f64).cos());
                }
                for &k in supp_prev {
                    let k = k as usize;
                    (prev_re[k], prev_im[k]) =
                        ((1.1 * k as f64).cos(), (0.2 + 0.03 * k as f64).sin());
                }
                if supp_p.contains(&250) && supp_prev.contains(&250) {
                    (p_re[250], p_im[250], prev_re[250], prev_im[250]) = (0.25, -0.25, 0.75, -0.75);
                }
                let union: BTreeSet<u32> = supp_p.iter().chain(supp_prev).copied().collect();
                for (b, beta) in [0.0, 0.5].into_iter().enumerate() {
                    let (mut want_re, mut want_im) = (vec![0.0; n], vec![0.0; n]);
                    let mut kernel = ndft.clone();
                    for k in union.iter().map(|k| *k as usize) {
                        let yr = fmadd(beta, p_re[k] - prev_re[k], p_re[k]);
                        let yi = fmadd(beta, p_im[k] - prev_im[k], p_im[k]);
                        if yr == 0.0 && yi == 0.0 {
                            kernel.split.mat_t_re[k * n..(k + 1) * n].fill(f64::NAN);
                            kernel.split.mat_t_im[k * n..(k + 1) * n].fill(f64::NAN);
                            zeros_seen[b] += 1;
                            continue;
                        }
                        for (i, a) in ndft.column(k).iter().enumerate() {
                            want_re[i] = fmadd(a.re, yr, fmadd(-a.im, yi, want_re[i]));
                            want_im[i] = fmadd(a.re, yi, fmadd(a.im, yr, want_im[i]));
                        }
                    }
                    let (mut out_re, mut out_im) = (vec![7.0; 3], Vec::new());
                    kernel.forward_extrapolated_split(
                        &p_re,
                        &p_im,
                        &prev_re,
                        &prev_im,
                        beta,
                        supp_p,
                        supp_prev,
                        &mut out_re,
                        &mut out_im,
                    );
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    let what = format!("{n} bands, {} columns, beta {beta}", union.len());
                    assert_eq!(bits(&out_re), bits(&want_re), "{what}");
                    assert_eq!(bits(&out_im), bits(&want_im), "{what}");
                }
            }
        }
        assert!(zeros_seen.iter().all(|z| *z > 0), "{zeros_seen:?}");
    }

    /// The live-tile plan with screening on. A first step over zero
    /// iterates records a bound on every tile; the second, at a nearby
    /// residual, steps from iterates on chosen tiles, which the plan must
    /// list although their recorded bounds would skip them, and whose
    /// phase units it must build. Cases: support on the first and last
    /// bin of a tile; a tile touched only by `prev`; the 5 GHz tile whose
    /// phase window wraps (`k'` = 96 of P = 100); tail bins of a ragged
    /// raster grid; a dense plan; and a screen that skips every tile but
    /// one. The screened second step's planes, support and sums are the
    /// all-evaluate step's bit for bit, and so is `sq` on the tiles it
    /// evaluated, which are exactly the touched tiles and those whose
    /// bound does not skip them.
    #[test]
    fn live_tile_plan_matches_all_evaluate_bitwise() {
        let (g5, g24) = intel_groups();
        let all: Vec<f64> = chronos_rf::bands::band_plan()
            .iter()
            .map(|b| b.center_hz)
            .collect();
        let full = TauGrid::span(200.0, 0.25);
        // (bands, grid, supp_p, supp_prev, untouched tiles whose bound
        // is over the threshold at the first step).
        let cases = [
            (&g5, full, vec![99, 160, 167], vec![167, 325], 0),
            (&g5, full, vec![], vec![], 1),
            (&g24, full, vec![160, 167, 515], vec![325, 519], 6),
            (&subset_12(), full, vec![0, 7, 799], vec![8, 790], 6),
            (
                &g5,
                TauGrid::span(200.0, 2.0),
                vec![8, 15, 97],
                vec![40, 99],
                2,
            ),
            (&all, full, vec![160, 167], vec![325], 6),
        ];
        for (freqs, grid, supp_p, supp_prev, over) in cases {
            let ndft = Ndft::new(freqs, grid);
            let (n, m, tiles) = (ndft.n_freqs(), ndft.n_taus(), ndft.n_tiles());
            let what = format!("{n} bands, {m} bins, {supp_p:?} / {supp_prev:?}");
            let g2 = 0.031;
            let fy1_re: Vec<f64> = (0..n).map(|i| (0.7 * i as f64).cos()).collect();
            let fy1_im: Vec<f64> = (0..n).map(|i| (1.3 * i as f64 + 0.2).sin()).collect();
            let fy2_re: Vec<f64> = (0..n)
                .map(|i| fy1_re[i] + 1e-7 * (0.9 * i as f64).sin())
                .collect();
            // The threshold sits between the untouched tiles' peaks
            // ranked `over` and `over + 1`.
            let mut peaks: Vec<f64> = {
                let (mut state, mut plan) = (Vec::new(), Vec::new());
                let mut screen = TileScreen::new(&ndft, &mut state, &mut plan, false);
                let mut next = (vec![0.0; m], vec![0.0; m], Vec::new());
                let (.., sq) =
                    untouched_step(&ndft, (&fy1_re, &fy1_im), g2, 1.0, &mut next, &mut screen);
                sq[..tiles * TILE]
                    .chunks_exact(TILE)
                    .map(|t| t.iter().fold(0.0f64, |a, v| a.max(*v)).sqrt())
                    .collect()
            };
            peaks.sort_by(|a, b| b.total_cmp(a));
            let thresh = if over == 0 {
                1.01 * peaks[0]
            } else {
                (peaks[over - 1] * peaks[over]).sqrt()
            };
            let plane = |supp: &[u32], phase: f64| {
                let mut v = vec![0.0; m];
                for k in supp.iter().map(|k| *k as usize) {
                    v[k] = 3.0 * thresh * (phase + 0.37 * k as f64).sin();
                }
                v
            };
            let (p_re, p_im) = (plane(&supp_p, 0.1), plane(&supp_p, 1.1));
            let (prev_re, prev_im) = (plane(&supp_prev, 2.3), plane(&supp_prev, 0.7));
            let touched = |t: usize| {
                let tile = (t * TILE) as u32..((t + 1) * TILE) as u32;
                supp_p.iter().chain(&supp_prev).any(|k| tile.contains(k))
            };
            let run = |screening: bool| {
                // A partial-sum unit read but not built would read NaN.
                let (mut state, mut plan, mut sums) =
                    (Vec::new(), Vec::new(), vec![f64::NAN; 2 * m]);
                let mut screen = TileScreen::new(&ndft, &mut state, &mut plan, screening);
                let mut next = (vec![0.0; m], vec![0.0; m], Vec::new());
                untouched_step(
                    &ndft,
                    (&fy1_re, &fy1_im),
                    g2,
                    thresh,
                    &mut next,
                    &mut screen,
                );
                screen.observe(&fy2_re, &fy1_im, g2, thresh);
                let live: Vec<u32> = (0..tiles)
                    .filter(|t| touched(*t) || !screen.skips(*t))
                    .map(|t| (t as u32) << 1 | touched(t) as u32)
                    .collect();
                let (tiles_before, units_before) = (screen.evaluated, screen.units_built);
                let (mut next_re, mut next_im, mut sq) = (vec![0.0; m], vec![0.0; m], vec![9.0; m]);
                let mut supp = Vec::new();
                let (delta2, pnorm2) = ndft.fused_prox_step_split(
                    &fy2_re,
                    &fy1_im,
                    &p_re,
                    &p_im,
                    &prev_re,
                    &prev_im,
                    0.62,
                    g2,
                    thresh,
                    &mut next_re,
                    &mut next_im,
                    &mut sq,
                    &mut sums,
                    &supp_p,
                    &supp_prev,
                    &mut supp,
                    &mut screen,
                );
                assert_eq!(&screen.live[..screen.n_live], &live[..], "{what}");
                assert_eq!(screen.evaluated - tiles_before, live.len(), "{what}");
                let units = screen.units_built - units_before;
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let sums = (delta2.to_bits(), pnorm2.to_bits());
                (
                    bits(&next_re),
                    bits(&next_im),
                    supp,
                    sums,
                    bits(&sq),
                    live,
                    units,
                )
            };
            let (want, got) = (run(false), run(true));
            assert_eq!(got.0, want.0, "{what}");
            assert_eq!(got.1, want.1, "{what}");
            assert_eq!(got.2, want.2, "{what}");
            assert_eq!(got.3, want.3, "{what}");
            let evaluated = got
                .5
                .iter()
                .map(|e| (e >> 1) as usize * TILE..((e >> 1) as usize + 1) * TILE);
            for bin in evaluated.flatten().chain(tiles * TILE..m) {
                assert_eq!(got.4[bin], want.4[bin], "{what}: sq at bin {bin}");
            }
            assert_eq!(want.5.len(), tiles, "{what}");
            if over <= 1 {
                let touched_tiles = (0..tiles).filter(|t| touched(*t)).count();
                assert_eq!(got.5.len(), touched_tiles + over, "{what}");
            }
            if let Some(poly) = &ndft.split.poly {
                let every = poly.phase_len.div_ceil(TILE);
                assert_eq!(want.6, every, "{what}");
                if m % TILE == 0 {
                    assert!(got.6 < every, "{what}: {} of {every} units", got.6);
                } else {
                    assert_eq!(got.6, every, "{what}: a ragged grid builds every unit");
                }
            }
        }
    }

    /// A recorded bound is the square root of the tile's largest squared
    /// candidate, whichever lane holds it, and `+0.0` for an all-zero
    /// tile. A NaN in any lane makes the bound NaN, which no limit skips.
    #[test]
    fn recorded_bound_is_the_largest_lane_and_nan_is_never_skipped() {
        let ndft = Ndft::new(&freqs(), TauGrid::span(20.0, 1.0));
        let (mut state, mut plan) = (Vec::new(), Vec::new());
        let mut screen = TileScreen::new(&ndft, &mut state, &mut plan, true);
        screen.limit = f64::INFINITY;
        for lane in 0..TILE {
            let mut sq = [0.25, 1.0, 0.0, 0.5, 2.25, 1.5, 0.75, 2.0];
            sq.rotate_right(lane);
            screen.record(0, false, &sq);
            assert_eq!(screen.bound[0].to_bits(), 1.5f64.to_bits(), "lane {lane}");
            sq[lane] = f64::NAN;
            screen.record(0, false, &sq);
            assert!(screen.bound[0].is_nan(), "lane {lane}");
            assert!(!screen.skips(0), "lane {lane}");
        }
        screen.record(0, false, &[0.0; TILE]);
        assert_eq!(screen.bound[0].to_bits(), 0.0f64.to_bits());
    }

    /// One fused step over zero iterates (every tile untouched), so the
    /// candidates are `-g2 F* fy` whatever the threshold. Returns the
    /// planes, the support, both sums and the squared magnitudes.
    #[allow(clippy::type_complexity)]
    fn untouched_step(
        ndft: &Ndft,
        fy: (&[f64], &[f64]),
        g2: f64,
        thresh: f64,
        next: &mut (Vec<f64>, Vec<f64>, Vec<u32>),
        screen: &mut TileScreen,
    ) -> (Vec<u64>, Vec<u64>, Vec<u32>, (u64, u64), Vec<f64>) {
        let m = ndft.n_taus();
        let zeros = vec![0.0; m];
        let mut sq = vec![0.0; m];
        screen.observe(fy.0, fy.1, g2, thresh);
        let (delta2, pnorm2) = ndft.fused_prox_step_split(
            fy.0,
            fy.1,
            &zeros,
            &zeros,
            &zeros,
            &zeros,
            0.0,
            g2,
            thresh,
            &mut next.0,
            &mut next.1,
            &mut sq,
            &mut Vec::new(),
            &[],
            &[],
            &mut next.2,
            screen,
        );
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let sums = (delta2.to_bits(), pnorm2.to_bits());
        (bits(&next.0), bits(&next.1), next.2.clone(), sums, sq)
    }

    /// A residual whose gradient nearly cancels on lane tile `t0`: a
    /// unit-scale LCG vector with its projection on the tile's eight
    /// operator columns removed (Gram-Schmidt, two passes), plus `keep`
    /// times the original. The tile's candidates are then about `keep`
    /// times the others, while the gradient's rounding error still
    /// scales with the whole residual.
    fn near_null_residual(ndft: &Ndft, t0: usize, keep: f64) -> (Vec<f64>, Vec<f64>) {
        let n = ndft.n_freqs();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut draw = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let fy: Vec<Complex64> = (0..n).map(|_| Complex64::new(draw(), draw())).collect();
        let mut basis: Vec<Vec<Complex64>> = Vec::new();
        let mut perp = fy.clone();
        for k in t0 * TILE..(t0 + 1) * TILE {
            let mut v = ndft.column(k).to_vec();
            for _ in 0..2 {
                for q in &basis {
                    let d = cvec::dot(q, &v);
                    v.iter_mut().zip(q).for_each(|(x, y)| *x -= d * *y);
                }
            }
            let norm = cvec::norm2(&v);
            cvec::scale_in_place(&mut v, 1.0 / norm);
            basis.push(v);
        }
        for _ in 0..2 {
            for q in &basis {
                let d = cvec::dot(q, &perp);
                perp.iter_mut().zip(q).for_each(|(x, y)| *x -= d * *y);
            }
        }
        let fy_s: Vec<Complex64> = perp
            .iter()
            .zip(&fy)
            .map(|(p, f)| *p + f.scale(keep))
            .collect();
        (
            fy_s.iter().map(|z| z.re).collect(),
            fy_s.iter().map(|z| z.im).collect(),
        )
    }

    /// Searches one-entry nudges of `fy` (1 to 16 ulps) for a residual
    /// that lifts a computed candidate of tile `t0` above the screen's
    /// own `bound + (drift - mark)` by more than the factor `lift`:
    /// returns the nudged residual and a threshold between the two
    /// whose square is still below the candidate's.
    fn lifting_nudge(
        ndft: &Ndft,
        (fy_re, fy_im): (&[f64], &[f64]),
        g2: f64,
        t0: usize,
        lift: f64,
    ) -> Option<(Vec<f64>, f64)> {
        let m = ndft.n_taus();
        for j in 0..ndft.n_freqs() {
            for ulps in [1u64, 2, 4, 8, 16] {
                let mut nudged = fy_re.to_vec();
                nudged[j] = f64::from_bits(nudged[j].to_bits() + ulps);
                let mut state = Vec::new();
                let mut plan = Vec::new();
                let mut dry = TileScreen::new(ndft, &mut state, &mut plan, false);
                let mut next = (vec![0.0; m], vec![0.0; m], Vec::new());
                untouched_step(ndft, (fy_re, fy_im), g2, 1.0, &mut next, &mut dry);
                let (bound, mark) = (dry.bound[t0], dry.mark[t0]);
                let (.., sq_t) =
                    untouched_step(ndft, (&nudged, fy_im), g2, 1.0, &mut next, &mut dry);
                let held = bound + (dry.drift - mark);
                let thresh = f64::from_bits((held * lift).to_bits() + 1);
                let peak = sq_t[t0 * TILE..(t0 + 1) * TILE]
                    .iter()
                    .fold(0.0f64, |a, v| a.max(*v));
                if peak > thresh * thresh {
                    return Some((nudged, thresh));
                }
            }
        }
        None
    }

    /// Two untouched steps, at `fy` and then at `nudged`, with and
    /// without screening: each run's second-step outputs and whether
    /// the screen could skip at that step.
    #[allow(clippy::type_complexity)]
    fn screened_pair(
        ndft: &Ndft,
        fy: (&[f64], &[f64]),
        nudged: &[f64],
        g2: f64,
        thresh: f64,
    ) -> Vec<((Vec<u64>, Vec<u64>, Vec<u32>, (u64, u64)), bool)> {
        let m = ndft.n_taus();
        [false, true]
            .into_iter()
            .map(|screening| {
                let mut state = Vec::new();
                let mut plan = Vec::new();
                let mut screen = TileScreen::new(ndft, &mut state, &mut plan, screening);
                let mut next = (vec![0.0; m], vec![0.0; m], Vec::new());
                untouched_step(ndft, fy, g2, thresh, &mut next, &mut screen);
                let (re, im, supp, sums, _) =
                    untouched_step(ndft, (nudged, fy.1), g2, thresh, &mut next, &mut screen);
                ((re, im, supp, sums), screen.limit.is_finite())
            })
            .collect()
    }

    /// The screen's margin is needed, and sufficient. On a tile whose
    /// gradient nearly cancels (to 1% of the others), the rounding of
    /// the gradient is large next to its candidates: nudging one residual
    /// entry by a few ulps lifts a computed candidate above the screen's
    /// own `bound + (drift - mark)`, by enough that a threshold fits in
    /// between whose square is still below the candidate's. Without the
    /// margin the screen would skip that tile although the full pass
    /// keeps a bin there. With it the screened steps are the
    /// all-evaluate steps bit for bit, on a raster and a dense plan.
    #[test]
    fn screen_margin_covers_rounding_above_the_bound() {
        let (g5, _) = intel_groups();
        for grid in [TauGrid::span(200.0, 0.25), TauGrid::span(61.0, 0.25)] {
            let ndft = Ndft::new(&g5, grid);
            let t0 = ndft.n_tiles() / 3;
            let g2 = 0.013;
            let (fy_re, fy_im) = near_null_residual(&ndft, t0, 0.01);
            let what = format!("{} bins", grid.len);
            let (nudged, thresh) = lifting_nudge(&ndft, (&fy_re, &fy_im), g2, t0, 1.0)
                .unwrap_or_else(|| panic!("{what}: no nudge lifts the tile"));
            let runs = screened_pair(&ndft, (&fy_re, &fy_im), &nudged, g2, thresh);
            let kept = runs[0].0 .2.iter().any(|k| *k as usize / TILE == t0);
            assert!(kept, "{what}: the full pass keeps a bin of the tile");
            assert!(runs[1].1, "{what}: the screen was screening");
            assert_eq!(runs[1].0, runs[0].0, "{what}");
        }
    }

    /// The margin covers the gradient's rounding only while that
    /// rounding, which scales with the residual, stays under half of it;
    /// beyond, the screen stops skipping. With the tile's gradient
    /// cancelled to 1e-10 of the others, one-ulp nudges lift a candidate
    /// by more than the whole margin above its bound. The screen must
    /// evaluate every tile there and match the all-evaluate steps.
    #[test]
    fn screen_stops_when_rounding_outgrows_the_margin() {
        let (g5, _) = intel_groups();
        for grid in [TauGrid::span(200.0, 0.25), TauGrid::span(61.0, 0.25)] {
            let ndft = Ndft::new(&g5, grid);
            let t0 = ndft.n_tiles() / 3;
            let g2 = 0.013;
            let (fy_re, fy_im) = near_null_residual(&ndft, t0, 1e-10);
            let what = format!("{} bins", grid.len);
            let lift = 1.0 / (1.0 - 2.0 * SCREEN_MARGIN);
            let (nudged, thresh) = lifting_nudge(&ndft, (&fy_re, &fy_im), g2, t0, lift)
                .unwrap_or_else(|| panic!("{what}: no nudge lifts the tile past the margin"));
            let runs = screened_pair(&ndft, (&fy_re, &fy_im), &nudged, g2, thresh);
            let kept = runs[0].0 .2.iter().any(|k| *k as usize / TILE == t0);
            assert!(kept, "{what}: the full pass keeps a bin of the tile");
            assert!(!runs[1].1, "{what}: the screen kept screening");
            assert_eq!(runs[1].0, runs[0].0, "{what}");
        }
    }
}
