//! Operations on complex vectors.
//!
//! These are the primitives the NDFT and the proximal-gradient solver are
//! built from. All functions are allocation-conscious: the hot-path variants
//! write into caller-provided buffers.

use crate::complex::Complex64;

/// Hermitian inner product `<a, b> = sum_i conj(a_i) * b_i`.
///
/// # Panics
/// Panics if the vectors have different lengths.
pub fn dot(a: &[Complex64], b: &[Complex64]) -> Complex64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    let mut acc = Complex64::ZERO;
    for (x, y) in a.iter().zip(b.iter()) {
        acc += x.conj() * *y;
    }
    acc
}

/// Euclidean (L2) norm.
pub fn norm2(v: &[Complex64]) -> f64 {
    v.iter().map(|z| z.norm_sq()).sum::<f64>().sqrt()
}

/// Squared Euclidean norm.
pub fn norm2_sq(v: &[Complex64]) -> f64 {
    v.iter().map(|z| z.norm_sq()).sum::<f64>()
}

/// L1 norm: the sum of magnitudes. This is the sparsity objective of the
/// paper's Eq. 8.
pub fn norm1(v: &[Complex64]) -> f64 {
    v.iter().map(|z| z.abs()).sum::<f64>()
}

/// Infinity norm: the largest magnitude.
pub fn norm_inf(v: &[Complex64]) -> f64 {
    v.iter().map(|z| z.abs()).fold(0.0, f64::max)
}

/// `out = a - b`, element-wise.
///
/// # Panics
/// Panics if lengths differ.
pub fn sub_into(a: &[Complex64], b: &[Complex64], out: &mut [Complex64]) {
    assert!(
        a.len() == b.len() && a.len() == out.len(),
        "sub_into: length mismatch"
    );
    for i in 0..a.len() {
        out[i] = a[i] - b[i];
    }
}

/// `v *= k` for a real scalar.
pub fn scale_in_place(v: &mut [Complex64], k: f64) {
    for z in v.iter_mut() {
        *z = z.scale(k);
    }
}

/// `a += k * b` (complex axpy with real coefficient).
///
/// # Panics
/// Panics if lengths differ.
pub fn axpy(a: &mut [Complex64], k: f64, b: &[Complex64]) {
    assert_eq!(a.len(), b.len(), "axpy: length mismatch");
    for (x, y) in a.iter_mut().zip(b.iter()) {
        *x += y.scale(k);
    }
}

/// Euclidean distance between two vectors: `||a - b||_2`.
///
/// # Panics
/// Panics if lengths differ.
pub fn dist2(a: &[Complex64], b: &[Complex64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dist2: length mismatch");
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| (*x - *y).norm_sq())
        .sum::<f64>()
        .sqrt()
}

/// Element-wise product `out_i = a_i * b_i`.
///
/// # Panics
/// Panics if lengths differ.
pub fn hadamard_into(a: &[Complex64], b: &[Complex64], out: &mut [Complex64]) {
    assert!(
        a.len() == b.len() && a.len() == out.len(),
        "hadamard_into: length mismatch"
    );
    for i in 0..a.len() {
        out[i] = a[i] * b[i];
    }
}

/// Extracts magnitudes into a fresh `Vec<f64>`.
pub fn magnitudes(v: &[Complex64]) -> Vec<f64> {
    let mut out = Vec::new();
    magnitudes_into(v, &mut out);
    out
}

/// [`magnitudes`] into a caller-provided buffer (no allocation once `out`
/// has capacity). An exact zero of either sign gives `+0.0`, the value
/// `hypot` returns, without calling it: sparse profiles are mostly zeros.
pub fn magnitudes_into(v: &[Complex64], out: &mut Vec<f64>) {
    out.clear();
    out.extend(v.iter().map(|z| {
        if z.re == 0.0 && z.im == 0.0 {
            0.0
        } else {
            z.abs()
        }
    }));
}

/// Extracts phases (radians, `(-pi, pi]`) into a fresh `Vec<f64>`.
pub fn phases(v: &[Complex64]) -> Vec<f64> {
    v.iter().map(|z| z.arg()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(re: f64, im: f64) -> Complex64 {
        Complex64::new(re, im)
    }

    #[test]
    fn dot_is_hermitian() {
        let a = vec![c(1.0, 2.0), c(0.0, -1.0)];
        let b = vec![c(3.0, 0.0), c(1.0, 1.0)];
        let ab = dot(&a, &b);
        let ba = dot(&b, &a);
        assert!(ab.approx_eq(ba.conj(), 1e-12));
    }

    #[test]
    fn dot_with_self_is_norm_squared() {
        let a = vec![c(1.0, 2.0), c(-3.0, 0.5)];
        let d = dot(&a, &a);
        assert!((d.re - norm2_sq(&a)).abs() < 1e-12);
        assert!(d.im.abs() < 1e-12);
    }

    #[test]
    fn norms_ordering() {
        // For any vector: norm_inf <= norm2 <= norm1.
        let v = vec![c(1.0, 1.0), c(-2.0, 0.0), c(0.0, 0.5)];
        let (n1, n2, ni) = (norm1(&v), norm2(&v), norm_inf(&v));
        assert!(ni <= n2 + 1e-12);
        assert!(n2 <= n1 + 1e-12);
    }

    #[test]
    fn axpy_and_sub() {
        let mut a = vec![c(1.0, 0.0), c(0.0, 1.0)];
        let b = vec![c(2.0, 2.0), c(-1.0, 0.0)];
        axpy(&mut a, 0.5, &b);
        assert!(a[0].approx_eq(c(2.0, 1.0), 1e-12));
        assert!(a[1].approx_eq(c(-0.5, 1.0), 1e-12));

        let mut out = vec![Complex64::ZERO; 2];
        sub_into(&a, &b, &mut out);
        assert!(out[0].approx_eq(c(0.0, -1.0), 1e-12));
    }

    #[test]
    fn dist2_zero_on_identical() {
        let a = vec![c(1.0, -1.0); 5];
        assert_eq!(dist2(&a, &a), 0.0);
    }

    #[test]
    fn hadamard_elementwise() {
        let a = vec![c(0.0, 1.0), c(2.0, 0.0)];
        let b = vec![c(0.0, 1.0), c(0.5, 0.0)];
        let mut out = vec![Complex64::ZERO; 2];
        hadamard_into(&a, &b, &mut out);
        assert!(out[0].approx_eq(c(-1.0, 0.0), 1e-12));
        assert!(out[1].approx_eq(c(1.0, 0.0), 1e-12));
    }

    #[test]
    fn scale_in_place_halves() {
        let mut v = vec![c(2.0, -4.0)];
        scale_in_place(&mut v, 0.5);
        assert!(v[0].approx_eq(c(1.0, -2.0), 1e-12));
    }

    #[test]
    fn magnitude_phase_extraction() {
        let v = vec![
            Complex64::from_polar(2.0, 0.3),
            Complex64::from_polar(0.5, -1.2),
        ];
        let m = magnitudes(&v);
        let p = phases(&v);
        assert!((m[0] - 2.0).abs() < 1e-12 && (m[1] - 0.5).abs() < 1e-12);
        assert!((p[0] - 0.3).abs() < 1e-12 && (p[1] + 1.2).abs() < 1e-12);
    }

    /// Exact zeros of either sign read `+0.0`, bit for bit what `hypot`
    /// gives them; every other entry is its `hypot`.
    #[test]
    fn magnitudes_of_signed_zeros_are_positive_zero() {
        let v = vec![
            c(0.0, 0.0),
            c(-0.0, 0.0),
            c(0.0, -0.0),
            c(-0.0, -0.0),
            c(-0.0, 3.0),
            c(4.0, -0.0),
            c(1e-300, -0.0),
        ];
        let got = magnitudes(&v);
        for (z, m) in v.iter().zip(got.iter()) {
            assert_eq!(m.to_bits(), z.re.hypot(z.im).to_bits(), "{z:?}");
        }
        assert!(got[..4].iter().all(|m| m.to_bits() == 0.0f64.to_bits()));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        let _ = dot(&[Complex64::ONE], &[Complex64::ONE, Complex64::ONE]);
    }
}
