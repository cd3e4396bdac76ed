//! Cubic spline and linear interpolation.
//!
//! Chronos cannot measure the wireless channel at the OFDM zero-subcarrier
//! (it coincides with the DC offset of the radio hardware), yet §5 of the
//! paper shows that only that subcarrier is free of packet-detection delay.
//! The fix — paper footnote 3 — is to interpolate the measured phase across
//! the 30 populated subcarriers with a **cubic spline** and read off the
//! value at subcarrier zero. This module implements the natural cubic spline
//! used there, plus plain linear interpolation as the ablation baseline.

/// A natural cubic spline through `(x_i, y_i)` knots.
///
/// "Natural" boundary conditions (second derivative zero at both ends) match
/// the behaviour of MATLAB's `spline` in the interior and are well-behaved
/// for the mildly-curved phase profiles CSI produces.
#[derive(Debug, Clone, Default)]
pub struct CubicSpline {
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// Second derivatives at the knots.
    m: Vec<f64>,
}

/// Errors constructing an interpolant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplineError {
    /// Fewer than two knots were provided.
    TooFewKnots,
    /// Knot abscissae are not strictly increasing.
    NotStrictlyIncreasing,
    /// Input lengths differ.
    LengthMismatch,
}

impl std::fmt::Display for SplineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SplineError::TooFewKnots => write!(f, "need at least two knots"),
            SplineError::NotStrictlyIncreasing => {
                write!(f, "knot x-values must be strictly increasing")
            }
            SplineError::LengthMismatch => write!(f, "xs and ys lengths differ"),
        }
    }
}

impl std::error::Error for SplineError {}

impl CubicSpline {
    /// Fits a natural cubic spline through the given knots.
    ///
    /// One-shot convenience over [`SplinePlan`]: factorizes the
    /// knot-dependent tridiagonal system (Thomas algorithm, natural BCs
    /// `m[0] = m[n-1] = 0`) and solves it in one call. Fitting many
    /// value sets over the *same* knots? Build the [`SplinePlan`] once
    /// and call [`SplinePlan::fit`] — identical results, no repeated
    /// factorization.
    pub fn fit(xs: &[f64], ys: &[f64]) -> Result<Self, SplineError> {
        if xs.len() != ys.len() {
            return Err(SplineError::LengthMismatch);
        }
        SplinePlan::new(xs)?.fit(ys)
    }

    /// Evaluates the spline at `x`.
    ///
    /// Outside the knot range the spline **extrapolates** with the boundary
    /// cubic segment; Chronos relies on this only for the tiny extrapolation
    /// from subcarrier ±1 to subcarrier 0, which is inside the knot hull
    /// anyway for the Intel 5300 layout.
    pub fn eval(&self, x: f64) -> f64 {
        let n = self.xs.len();
        // Locate segment by binary search; clamp to boundary segments.
        let seg = match self.xs.binary_search_by(|v| v.partial_cmp(&x).unwrap()) {
            Ok(i) => i.min(n - 2),
            Err(0) => 0,
            Err(i) if i >= n => n - 2,
            Err(i) => i - 1,
        };
        let (x0, x1) = (self.xs[seg], self.xs[seg + 1]);
        let (y0, y1) = (self.ys[seg], self.ys[seg + 1]);
        let (m0, m1) = (self.m[seg], self.m[seg + 1]);
        let h = x1 - x0;
        let a = (x1 - x) / h;
        let b = (x - x0) / h;
        a * y0 + b * y1 + ((a.powi(3) - a) * m0 + (b.powi(3) - b) * m1) * h * h / 6.0
    }

    /// Evaluates the first derivative at `x`.
    pub fn eval_deriv(&self, x: f64) -> f64 {
        let n = self.xs.len();
        let seg = match self.xs.binary_search_by(|v| v.partial_cmp(&x).unwrap()) {
            Ok(i) => i.min(n - 2),
            Err(0) => 0,
            Err(i) if i >= n => n - 2,
            Err(i) => i - 1,
        };
        let (x0, x1) = (self.xs[seg], self.xs[seg + 1]);
        let (y0, y1) = (self.ys[seg], self.ys[seg + 1]);
        let (m0, m1) = (self.m[seg], self.m[seg + 1]);
        let h = x1 - x0;
        let a = (x1 - x) / h;
        let b = (x - x0) / h;
        (y1 - y0) / h + ((1.0 - 3.0 * a * a) * m0 + (3.0 * b * b - 1.0) * m1) * h / 6.0
    }
}

/// A reusable natural-cubic-spline **plan** for a fixed set of knot
/// abscissae.
///
/// Fitting a spline solves a tridiagonal system whose matrix depends only
/// on the knot positions `xs`, not on the values `ys`. Chronos fits two
/// splines (phase and magnitude) over the *same* subcarrier grid for every
/// capture of every band of every sweep of every client — always the same
/// 30 abscissae — so the Thomas-algorithm factorization is precomputed
/// here once and replayed per fit. [`CubicSpline::fit`] is the one-shot
/// wrapper (`SplinePlan::new(xs)?.fit(ys)`), making plan-reuse
/// **bitwise-identical** to a fresh fit by construction; the plan only
/// removes the redundant refactorization.
///
/// This is one of the shared immutable plans a `PlanCache` (in
/// `chronos-core`) hands out to concurrent ranging sessions.
#[derive(Debug, Clone)]
pub struct SplinePlan {
    xs: Vec<f64>,
    /// Interval widths `h[i] = xs[i+1] - xs[i]`.
    h: Vec<f64>,
    /// Superdiagonal of the interior system (length `n - 2`).
    upper: Vec<f64>,
    /// Forward-elimination multipliers `w[i] = lower[i] / diag'[i-1]`
    /// (index 0 unused, kept for alignment with the textbook loop).
    w: Vec<f64>,
    /// Eliminated diagonal after the forward sweep.
    diag: Vec<f64>,
}

impl SplinePlan {
    /// Factorizes the spline system for the given knot abscissae.
    pub fn new(xs: &[f64]) -> Result<Self, SplineError> {
        let n = xs.len();
        if n < 2 {
            return Err(SplineError::TooFewKnots);
        }
        for win in xs.windows(2) {
            if win[1] <= win[0] {
                return Err(SplineError::NotStrictlyIncreasing);
            }
        }
        let h: Vec<f64> = xs.windows(2).map(|win| win[1] - win[0]).collect();
        let (mut diag, mut upper, mut w) = (Vec::new(), Vec::new(), Vec::new());
        if n > 2 {
            let k = n - 2;
            diag = vec![0.0; k];
            upper = vec![0.0; k];
            let mut lower = vec![0.0; k];
            w = vec![0.0; k];
            for i in 1..=k {
                diag[i - 1] = 2.0 * (h[i - 1] + h[i]);
                lower[i - 1] = h[i - 1];
                upper[i - 1] = h[i];
            }
            // Forward elimination of the matrix alone; the multipliers are
            // saved so each fit can replay them on its right-hand side.
            for i in 1..k {
                w[i] = lower[i] / diag[i - 1];
                diag[i] -= w[i] * upper[i - 1];
            }
        }
        Ok(SplinePlan {
            xs: xs.to_vec(),
            h,
            upper,
            w,
            diag,
        })
    }

    /// The knot abscissae this plan was built for.
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// Number of knots.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Whether the plan is empty (never true for a constructed plan).
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Fits a spline through `(xs, ys)` reusing the precomputed
    /// factorization. Produces bitwise-identical results to
    /// [`CubicSpline::fit`] on the same knots.
    pub fn fit(&self, ys: &[f64]) -> Result<CubicSpline, SplineError> {
        let mut ws = SplineScratch::default();
        let mut out = CubicSpline::default();
        self.fit_into(ys, &mut ws, &mut out)?;
        Ok(out)
    }

    /// [`SplinePlan::fit`] into a caller-provided spline and workspace —
    /// identical arithmetic, no allocation once the buffers have seen the
    /// knot count. The hot-path variant for per-capture interpolation.
    pub fn fit_into(
        &self,
        ys: &[f64],
        ws: &mut SplineScratch,
        out: &mut CubicSpline,
    ) -> Result<(), SplineError> {
        let n = self.xs.len();
        if ys.len() != n {
            return Err(SplineError::LengthMismatch);
        }
        out.m.clear();
        out.m.resize(n, 0.0);
        if n > 2 {
            let k = n - 2;
            let rhs = &mut ws.rhs;
            rhs.clear();
            rhs.resize(k, 0.0);
            for i in 1..=k {
                rhs[i - 1] =
                    6.0 * ((ys[i + 1] - ys[i]) / self.h[i] - (ys[i] - ys[i - 1]) / self.h[i - 1]);
            }
            for i in 1..k {
                rhs[i] -= self.w[i] * rhs[i - 1];
            }
            let sol = &mut ws.sol;
            sol.clear();
            sol.resize(k, 0.0);
            sol[k - 1] = rhs[k - 1] / self.diag[k - 1];
            for i in (0..k - 1).rev() {
                sol[i] = (rhs[i] - self.upper[i] * sol[i + 1]) / self.diag[i];
            }
            out.m[1..=k].copy_from_slice(sol);
        }
        out.xs.clone_from(&self.xs);
        out.ys.clear();
        out.ys.extend_from_slice(ys);
        Ok(())
    }
}

/// Reusable working storage for [`SplinePlan::fit_into`].
#[derive(Debug, Clone, Default)]
pub struct SplineScratch {
    rhs: Vec<f64>,
    sol: Vec<f64>,
}

/// Piecewise-linear interpolation at `x` over strictly-increasing knots.
///
/// Used as the ablation baseline against the cubic spline
/// (`tests/ablations.rs::ablation_spline_vs_linear_under_multipath`).
/// Extrapolates linearly beyond the boundary knots.
pub fn linear_interp(xs: &[f64], ys: &[f64], x: f64) -> f64 {
    assert_eq!(xs.len(), ys.len(), "linear_interp: length mismatch");
    assert!(xs.len() >= 2, "linear_interp: need two knots");
    let n = xs.len();
    let seg = match xs.binary_search_by(|v| v.partial_cmp(&x).unwrap()) {
        Ok(i) => return ys[i],
        Err(0) => 0,
        Err(i) if i >= n => n - 2,
        Err(i) => i - 1,
    };
    let t = (x - xs[seg]) / (xs[seg + 1] - xs[seg]);
    ys[seg] + t * (ys[seg + 1] - ys[seg])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spline_reproduces_knots() {
        let xs = [-3.0, -1.0, 0.5, 2.0, 4.0];
        let ys = [1.0, -2.0, 0.0, 3.0, 3.5];
        let s = CubicSpline::fit(&xs, &ys).unwrap();
        for (x, y) in xs.iter().zip(ys.iter()) {
            assert!((s.eval(*x) - y).abs() < 1e-12);
        }
    }

    #[test]
    fn spline_interpolates_line_exactly() {
        // A line is a cubic spline with zero curvature everywhere.
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x - 2.0).collect();
        let s = CubicSpline::fit(&xs, &ys).unwrap();
        for k in 0..90 {
            let x = k as f64 * 0.1;
            assert!((s.eval(x) - (3.0 * x - 2.0)).abs() < 1e-10);
            assert!((s.eval_deriv(x) - 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn spline_close_on_smooth_function() {
        // Interpolating sin over a dense grid should be accurate mid-segment.
        let xs: Vec<f64> = (0..30).map(|i| i as f64 * 0.25).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x.sin()).collect();
        let s = CubicSpline::fit(&xs, &ys).unwrap();
        for k in 1..100 {
            let x = 0.05 + k as f64 * 0.07;
            if x > 7.0 {
                break;
            }
            assert!((s.eval(x) - x.sin()).abs() < 1e-3, "x={x}");
        }
    }

    #[test]
    fn zero_subcarrier_use_case() {
        // The real use case: phase across subcarriers [-28..28] without 0,
        // linear in subcarrier index; spline at 0 recovers the line value.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        let slope = -0.043;
        let intercept = 1.234;
        for k in (-28i32..=28).filter(|k| *k != 0) {
            xs.push(k as f64);
            ys.push(slope * k as f64 + intercept);
        }
        let s = CubicSpline::fit(&xs, &ys).unwrap();
        assert!((s.eval(0.0) - intercept).abs() < 1e-9);
    }

    #[test]
    fn errors_reported() {
        assert_eq!(
            CubicSpline::fit(&[1.0], &[1.0]).unwrap_err(),
            SplineError::TooFewKnots
        );
        assert_eq!(
            CubicSpline::fit(&[1.0, 1.0], &[1.0, 2.0]).unwrap_err(),
            SplineError::NotStrictlyIncreasing
        );
        assert_eq!(
            CubicSpline::fit(&[1.0, 2.0], &[1.0]).unwrap_err(),
            SplineError::LengthMismatch
        );
    }

    #[test]
    fn two_knot_spline_is_linear() {
        let s = CubicSpline::fit(&[0.0, 2.0], &[1.0, 5.0]).unwrap();
        assert!((s.eval(1.0) - 3.0).abs() < 1e-12);
        assert!((s.eval_deriv(0.5) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn linear_interp_basics() {
        let xs = [0.0, 1.0, 2.0];
        let ys = [0.0, 10.0, 0.0];
        assert!((linear_interp(&xs, &ys, 0.5) - 5.0).abs() < 1e-12);
        assert!((linear_interp(&xs, &ys, 1.0) - 10.0).abs() < 1e-12);
        assert!((linear_interp(&xs, &ys, 1.75) - 2.5).abs() < 1e-12);
        // Extrapolation continues the boundary segment.
        assert!((linear_interp(&xs, &ys, -1.0) + 10.0).abs() < 1e-12);
    }

    #[test]
    fn plan_fit_is_bitwise_identical_to_direct_fit() {
        let xs: Vec<f64> = (-28i32..=28)
            .filter(|k| *k != 0)
            .map(|k| k as f64)
            .collect();
        let plan = SplinePlan::new(&xs).unwrap();
        for trial in 0..5 {
            let ys: Vec<f64> = xs
                .iter()
                .map(|x| (0.3 * x + trial as f64).sin() + 0.01 * x * x)
                .collect();
            let direct = CubicSpline::fit(&xs, &ys).unwrap();
            let planned = plan.fit(&ys).unwrap();
            for (a, b) in direct.m.iter().zip(planned.m.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "second derivatives differ");
            }
            for x in [-27.5, -3.2, 0.0, 1.7, 26.9] {
                assert_eq!(direct.eval(x).to_bits(), planned.eval(x).to_bits());
            }
        }
    }

    #[test]
    fn plan_rejects_bad_inputs() {
        assert_eq!(
            SplinePlan::new(&[1.0]).unwrap_err(),
            SplineError::TooFewKnots
        );
        assert_eq!(
            SplinePlan::new(&[1.0, 1.0]).unwrap_err(),
            SplineError::NotStrictlyIncreasing
        );
        let plan = SplinePlan::new(&[0.0, 1.0, 2.0]).unwrap();
        assert_eq!(
            plan.fit(&[1.0, 2.0]).unwrap_err(),
            SplineError::LengthMismatch
        );
        assert_eq!(plan.len(), 3);
        assert!(!plan.is_empty());
    }

    #[test]
    fn plan_two_knot_fit() {
        let plan = SplinePlan::new(&[0.0, 2.0]).unwrap();
        let s = plan.fit(&[1.0, 5.0]).unwrap();
        assert!((s.eval(1.0) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn deriv_matches_finite_difference() {
        let xs: Vec<f64> = (0..20).map(|i| i as f64 * 0.5).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (0.3 * x).cos() + 0.1 * x * x).collect();
        let s = CubicSpline::fit(&xs, &ys).unwrap();
        for k in 1..40 {
            let x = 0.3 + k as f64 * 0.2;
            if x >= 9.0 {
                break;
            }
            let h = 1e-6;
            let fd = (s.eval(x + h) - s.eval(x - h)) / (2.0 * h);
            assert!((s.eval_deriv(x) - fd).abs() < 1e-6, "x={x}");
        }
    }
}
