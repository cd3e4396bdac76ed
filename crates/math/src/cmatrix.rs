//! Small dense complex matrices: Gaussian elimination and least squares.
//!
//! Used by the LASSO **debiasing** step of the sparse inverse-NDFT: after
//! support detection the amplitudes are refit by unpenalized least squares
//! on the selected atoms, removing the soft-threshold's shrinkage bias.

use crate::complex::Complex64;

/// A dense, row-major complex matrix.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CMat {
    rows: usize,
    cols: usize,
    data: Vec<Complex64>,
}

/// Errors from complex solves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CMatError {
    /// Singular to working precision.
    Singular,
    /// Operand dimensions incompatible.
    DimensionMismatch,
}

impl std::fmt::Display for CMatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CMatError::Singular => write!(f, "complex matrix is singular"),
            CMatError::DimensionMismatch => write!(f, "incompatible dimensions"),
        }
    }
}

impl std::error::Error for CMatError {}

impl CMat {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CMat {
            rows,
            cols,
            data: vec![Complex64::ZERO; rows * cols],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element access.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> Complex64 {
        self.data[i * self.cols + j]
    }

    /// Element mutation.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: Complex64) {
        self.data[i * self.cols + j] = v;
    }

    /// Reshapes this matrix in place to `rows x cols`, zero-filled.
    ///
    /// Retains the data buffer's capacity, so a matrix reused across a
    /// hot loop stops allocating once it has seen its largest shape.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, Complex64::ZERO);
    }

    /// Builds a matrix from column vectors.
    ///
    /// # Panics
    /// Panics on ragged columns or empty input.
    pub fn from_cols(cols: &[Vec<Complex64>]) -> Self {
        assert!(!cols.is_empty(), "from_cols: need at least one column");
        let rows = cols[0].len();
        assert!(
            cols.iter().all(|c| c.len() == rows),
            "from_cols: ragged columns"
        );
        let mut m = CMat::zeros(rows, cols.len());
        for (j, col) in cols.iter().enumerate() {
            for (i, v) in col.iter().enumerate() {
                m.set(i, j, *v);
            }
        }
        m
    }

    /// Conjugate-transpose product `A^H b` for a vector `b`.
    pub fn hermitian_mul_vec(&self, b: &[Complex64]) -> Vec<Complex64> {
        let mut out = Vec::new();
        self.hermitian_mul_vec_into(b, &mut out);
        out
    }

    /// [`CMat::hermitian_mul_vec`] into a caller-provided buffer
    /// (identical arithmetic, no allocation once `out` has capacity).
    pub fn hermitian_mul_vec_into(&self, b: &[Complex64], out: &mut Vec<Complex64>) {
        assert_eq!(b.len(), self.rows, "hermitian_mul_vec: dimension mismatch");
        out.clear();
        out.resize(self.cols, Complex64::ZERO);
        for (i, bi) in b.iter().enumerate() {
            for (j, o) in out.iter_mut().enumerate() {
                *o += self.get(i, j).conj() * *bi;
            }
        }
    }

    /// Gram matrix `A^H A` (Hermitian, positive semi-definite).
    pub fn gram(&self) -> CMat {
        let mut g = CMat::zeros(self.cols, self.cols);
        self.gram_into(&mut g);
        g
    }

    /// [`CMat::gram`] into a caller-provided matrix (identical
    /// arithmetic, no allocation once `g` has capacity).
    pub fn gram_into(&self, g: &mut CMat) {
        g.reset(self.cols, self.cols);
        for j in 0..self.cols {
            for k in j..self.cols {
                let mut acc = Complex64::ZERO;
                for i in 0..self.rows {
                    acc += self.get(i, j).conj() * self.get(i, k);
                }
                g.set(j, k, acc);
                g.set(k, j, acc.conj());
            }
        }
    }

    /// Matrix-vector product `A x`.
    pub fn mul_vec(&self, x: &[Complex64]) -> Vec<Complex64> {
        assert_eq!(x.len(), self.cols, "mul_vec: dimension mismatch");
        let mut out = vec![Complex64::ZERO; self.rows];
        for (i, o) in out.iter_mut().enumerate() {
            let mut acc = Complex64::ZERO;
            for (j, xj) in x.iter().enumerate() {
                acc += self.get(i, j) * *xj;
            }
            *o = acc;
        }
        out
    }

    /// Solves the square system `A x = b` by Gaussian elimination with
    /// partial pivoting (on magnitudes).
    pub fn solve(&self, b: &[Complex64]) -> Result<Vec<Complex64>, CMatError> {
        let mut work = Vec::new();
        let mut x = Vec::new();
        self.solve_into(b, &mut work, &mut x)?;
        Ok(x)
    }

    /// [`CMat::solve`] with caller-provided working storage: `work`
    /// receives the eliminated copy of the matrix, `x` the solution.
    /// Identical arithmetic; no allocation once the buffers have
    /// capacity.
    pub fn solve_into(
        &self,
        b: &[Complex64],
        work: &mut Vec<Complex64>,
        x: &mut Vec<Complex64>,
    ) -> Result<(), CMatError> {
        if self.rows != self.cols || b.len() != self.rows {
            return Err(CMatError::DimensionMismatch);
        }
        let n = self.rows;
        work.clear();
        work.extend_from_slice(&self.data);
        let a = work;
        x.clear();
        x.extend_from_slice(b);
        for col in 0..n {
            // Pivot on the largest magnitude.
            let mut p = col;
            let mut best = a[col * n + col].abs();
            for r in (col + 1)..n {
                let v = a[r * n + col].abs();
                if v > best {
                    best = v;
                    p = r;
                }
            }
            if best < 1e-12 {
                return Err(CMatError::Singular);
            }
            if p != col {
                for j in 0..n {
                    a.swap(col * n + j, p * n + j);
                }
                x.swap(col, p);
            }
            let pivot = a[col * n + col];
            for r in (col + 1)..n {
                let factor = a[r * n + col] / pivot;
                if factor == Complex64::ZERO {
                    continue;
                }
                for j in col..n {
                    let v = a[col * n + j];
                    a[r * n + j] -= factor * v;
                }
                let xc = x[col];
                x[r] -= factor * xc;
            }
        }
        for col in (0..n).rev() {
            let mut sum = x[col];
            for j in (col + 1)..n {
                sum -= a[col * n + j] * x[j];
            }
            x[col] = sum / a[col * n + col];
        }
        Ok(())
    }

    /// Least squares `min ||A x - b||_2` via the (ridged) normal equations
    /// `A^H A x = A^H b`. Suitable for the small, well-separated atom sets
    /// the debias step produces.
    pub fn lstsq(&self, b: &[Complex64]) -> Result<Vec<Complex64>, CMatError> {
        let mut ws = CLstsqScratch::default();
        let mut x = Vec::new();
        self.lstsq_into(b, &mut ws, &mut x)?;
        Ok(x)
    }

    /// [`CMat::lstsq`] with a reusable workspace — identical arithmetic,
    /// no allocation once the workspace has seen the problem size.
    pub fn lstsq_into(
        &self,
        b: &[Complex64],
        ws: &mut CLstsqScratch,
        x: &mut Vec<Complex64>,
    ) -> Result<(), CMatError> {
        if b.len() != self.rows {
            return Err(CMatError::DimensionMismatch);
        }
        let CLstsqScratch {
            gram, rhs, work, ..
        } = ws;
        self.gram_into(gram);
        let g = gram;
        // Small ridge keeps nearly-coherent atom pairs solvable.
        let trace: f64 = (0..g.rows()).map(|i| g.get(i, i).re).sum();
        let ridge = 1e-9 * (trace / g.rows() as f64).max(1e-12);
        for i in 0..g.rows() {
            let d = g.get(i, i);
            g.set(i, i, d + Complex64::from_re(ridge));
        }
        self.hermitian_mul_vec_into(b, rhs);
        g.solve_into(rhs, work, x)
    }

    /// [`CMat::lstsq_into`] with the normal-equations build (`A^H A` and
    /// `A^H b`) lane-chunked over split re/im planes
    /// ([`crate::lanes::dot_conj_split`]).
    ///
    /// The debias refit's solve. [`CMat::lstsq_into`] is its reference:
    /// the four-accumulator reductions reassociate the Gram/RHS sums, so
    /// results agree to ≤ 1e-12 relative rather than bitwise; ridge and
    /// triangular solve are the identical scalar code. The split column
    /// copies live in the workspace, so a warm workspace allocates
    /// nothing.
    pub fn lstsq_into_lanes(
        &self,
        b: &[Complex64],
        ws: &mut CLstsqScratch,
        x: &mut Vec<Complex64>,
    ) -> Result<(), CMatError> {
        if b.len() != self.rows {
            return Err(CMatError::DimensionMismatch);
        }
        let (rows, cols) = (self.rows, self.cols);
        let CLstsqScratch {
            gram,
            rhs,
            work,
            col_re,
            col_im,
            b_re,
            b_im,
        } = ws;
        // Column-major split copy of A: column j occupies
        // [j*rows .. (j+1)*rows] of each plane.
        col_re.clear();
        col_im.clear();
        col_re.resize(rows * cols, 0.0);
        col_im.resize(rows * cols, 0.0);
        for (i, row) in self.data.chunks_exact(cols.max(1)).enumerate() {
            for (j, v) in row.iter().enumerate() {
                col_re[j * rows + i] = v.re;
                col_im[j * rows + i] = v.im;
            }
        }
        b_re.clear();
        b_im.clear();
        b_re.extend(b.iter().map(|z| z.re));
        b_im.extend(b.iter().map(|z| z.im));
        let col = |j: usize| {
            (
                &col_re[j * rows..(j + 1) * rows],
                &col_im[j * rows..(j + 1) * rows],
            )
        };
        gram.reset(cols, cols);
        for j in 0..cols {
            let (jr, ji) = col(j);
            for k in j..cols {
                let (kr, ki) = col(k);
                let (re, im) = crate::lanes::dot_conj_split(jr, ji, kr, ki);
                let v = Complex64::new(re, im);
                gram.set(j, k, v);
                gram.set(k, j, v.conj());
            }
        }
        rhs.clear();
        for j in 0..cols {
            let (jr, ji) = col(j);
            let (re, im) = crate::lanes::dot_conj_split(jr, ji, b_re, b_im);
            rhs.push(Complex64::new(re, im));
        }
        let g = gram;
        // Identical ridge + solve to the scalar path.
        let trace: f64 = (0..g.rows()).map(|i| g.get(i, i).re).sum();
        let ridge = 1e-9 * (trace / g.rows() as f64).max(1e-12);
        for i in 0..g.rows() {
            let d = g.get(i, i);
            g.set(i, i, d + Complex64::from_re(ridge));
        }
        g.solve_into(rhs, work, x)
    }
}

/// Reusable working storage for [`CMat::lstsq_into`] and
/// [`CMat::lstsq_into_lanes`] (the split planes are only touched by the
/// lanes variant).
#[derive(Debug, Clone, Default)]
pub struct CLstsqScratch {
    gram: CMat,
    rhs: Vec<Complex64>,
    work: Vec<Complex64>,
    col_re: Vec<f64>,
    col_im: Vec<f64>,
    b_re: Vec<f64>,
    b_im: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(re: f64, im: f64) -> Complex64 {
        Complex64::new(re, im)
    }

    #[test]
    fn solve_identity() {
        let mut a = CMat::zeros(3, 3);
        for i in 0..3 {
            a.set(i, i, Complex64::ONE);
        }
        let b = vec![c(1.0, 2.0), c(-1.0, 0.0), c(0.0, 3.0)];
        assert_eq!(a.solve(&b).unwrap(), b);
    }

    #[test]
    fn solve_known_complex_system() {
        // A = [[1, i], [-i, 2]]; pick x, compute b = A x, solve back.
        let mut a = CMat::zeros(2, 2);
        a.set(0, 0, c(1.0, 0.0));
        a.set(0, 1, c(0.0, 1.0));
        a.set(1, 0, c(0.0, -1.0));
        a.set(1, 1, c(2.0, 0.0));
        let x_true = vec![c(0.5, -1.0), c(2.0, 0.25)];
        let b = a.mul_vec(&x_true);
        let x = a.solve(&b).unwrap();
        for (u, v) in x.iter().zip(x_true.iter()) {
            assert!(u.approx_eq(*v, 1e-10), "{u} vs {v}");
        }
    }

    #[test]
    fn singular_detected() {
        let mut a = CMat::zeros(2, 2);
        a.set(0, 0, c(1.0, 1.0));
        a.set(0, 1, c(2.0, 2.0));
        a.set(1, 0, c(0.5, 0.5));
        a.set(1, 1, c(1.0, 1.0));
        assert_eq!(
            a.solve(&[Complex64::ONE, Complex64::ONE]),
            Err(CMatError::Singular)
        );
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let mut a = CMat::zeros(2, 2);
        a.set(0, 0, Complex64::ZERO);
        a.set(0, 1, Complex64::ONE);
        a.set(1, 0, Complex64::ONE);
        a.set(1, 1, Complex64::ZERO);
        let x = a.solve(&[c(3.0, 0.0), c(4.0, 0.0)]).unwrap();
        assert!(x[0].approx_eq(c(4.0, 0.0), 1e-12));
        assert!(x[1].approx_eq(c(3.0, 0.0), 1e-12));
    }

    #[test]
    fn lstsq_recovers_amplitudes_of_steering_vectors() {
        // Two "atoms" (complex exponentials) with known complex weights,
        // observed at 8 frequencies: lstsq must recover the weights.
        use std::f64::consts::PI;
        let freqs: Vec<f64> = (0..8).map(|i| 5.0e9 + i as f64 * 40e6).collect();
        let atom = |tau_ns: f64| -> Vec<Complex64> {
            freqs
                .iter()
                .map(|f| Complex64::cis(-2.0 * PI * f * tau_ns * 1e-9))
                .collect()
        };
        let a = CMat::from_cols(&[atom(5.0), atom(13.0)]);
        let w_true = vec![c(0.8, 0.1), c(0.0, -0.5)];
        let b = a.mul_vec(&w_true);
        let w = a.lstsq(&b).unwrap();
        for (u, v) in w.iter().zip(w_true.iter()) {
            assert!(u.approx_eq(*v, 1e-6), "{u} vs {v}");
        }
    }

    #[test]
    fn lstsq_overdetermined_with_noise() {
        let mut a = CMat::zeros(6, 2);
        for i in 0..6 {
            a.set(i, 0, Complex64::cis(0.3 * i as f64));
            a.set(i, 1, Complex64::cis(-0.9 * i as f64));
        }
        let w_true = vec![c(1.0, 0.0), c(0.0, 1.0)];
        let mut b = a.mul_vec(&w_true);
        for (i, v) in b.iter_mut().enumerate() {
            *v += Complex64::from_polar(0.01, i as f64);
        }
        let w = a.lstsq(&b).unwrap();
        assert!(w[0].approx_eq(w_true[0], 0.05));
        assert!(w[1].approx_eq(w_true[1], 0.05));
    }

    #[test]
    fn gram_is_hermitian() {
        let a = CMat::from_cols(&[
            vec![c(1.0, 1.0), c(0.0, -2.0), c(0.5, 0.0)],
            vec![c(0.0, 1.0), c(1.0, 0.0), c(-1.0, 0.5)],
        ]);
        let g = a.gram();
        for i in 0..2 {
            for j in 0..2 {
                assert!(g.get(i, j).approx_eq(g.get(j, i).conj(), 1e-12));
            }
            assert!(g.get(i, i).im.abs() < 1e-12);
            assert!(g.get(i, i).re >= 0.0);
        }
    }

    #[test]
    fn lstsq_into_is_bitwise_identical_and_reusable() {
        let mut a = CMat::zeros(6, 2);
        for i in 0..6 {
            a.set(i, 0, Complex64::cis(0.3 * i as f64));
            a.set(i, 1, Complex64::cis(-0.9 * i as f64));
        }
        let b: Vec<Complex64> = (0..6).map(|i| Complex64::cis(0.11 * i as f64)).collect();
        let fresh = a.lstsq(&b).unwrap();
        let mut ws = CLstsqScratch::default();
        let mut x = Vec::new();
        // A warm (already-sized) workspace must produce the same bits.
        for _ in 0..3 {
            a.lstsq_into(&b, &mut ws, &mut x).unwrap();
            for (u, v) in x.iter().zip(fresh.iter()) {
                assert_eq!(u.re.to_bits(), v.re.to_bits());
                assert_eq!(u.im.to_bits(), v.im.to_bits());
            }
        }
    }

    #[test]
    fn lstsq_lanes_matches_scalar_within_tolerance() {
        // Odd row counts exercise the lane tail; warm reuse must not
        // change the answer.
        let mut ws = CLstsqScratch::default();
        let mut xs = Vec::new();
        for rows in [2usize, 5, 8, 13, 21] {
            let mut a = CMat::zeros(rows, 2);
            for i in 0..rows {
                a.set(i, 0, Complex64::cis(0.3 * i as f64));
                a.set(i, 1, Complex64::cis(-0.9 * i as f64 + 0.2));
            }
            let b: Vec<Complex64> = (0..rows)
                .map(|i| Complex64::from_polar(1.0 + 0.1 * i as f64, 0.11 * i as f64))
                .collect();
            let scalar = a.lstsq(&b).unwrap();
            a.lstsq_into_lanes(&b, &mut ws, &mut xs).unwrap();
            for (u, v) in xs.iter().zip(scalar.iter()) {
                assert!((*u - *v).abs() <= 1e-12 * v.abs().max(1.0), "rows={rows}");
            }
        }
    }

    #[test]
    fn reset_reshapes_and_zeroes() {
        let mut m = CMat::zeros(2, 2);
        m.set(1, 1, c(3.0, -1.0));
        m.reset(3, 2);
        assert_eq!((m.rows(), m.cols()), (3, 2));
        for i in 0..3 {
            for j in 0..2 {
                assert_eq!(m.get(i, j), Complex64::ZERO);
            }
        }
    }

    #[test]
    fn dimension_errors() {
        let a = CMat::zeros(2, 3);
        assert_eq!(
            a.solve(&[Complex64::ZERO; 2]),
            Err(CMatError::DimensionMismatch)
        );
        assert_eq!(
            a.lstsq(&[Complex64::ZERO; 5]),
            Err(CMatError::DimensionMismatch)
        );
    }
}
