//! Explicit 4-wide f64 lane helpers for the structure-of-arrays hot
//! loops of `chronos-core`'s sparse solver and debias refit.
//!
//! The workspace targets stable Rust with no SIMD crates, so "SIMD" here
//! means *auto-vectorizer-friendly* code: split re/im slices walked in
//! fixed `[f64; 4]` lane chunks with independent accumulators, which LLVM
//! lowers to packed `mulpd`/`addpd` (and FMA where the target enables
//! it). Everything in this module is plain `f64` arithmetic — it compiles
//! and runs identically on any target; only the instruction selection
//! changes.
//!
//! **Numerical contract:** the reductions here use four independent
//! accumulators folded at the end, which *reassociates* the IEEE-754 sum
//! relative to the sequential loops in [`crate::cvec`]. The sequential
//! loops stay the reference: a lane result agrees with them within a
//! tolerance, not bitwise (see `docs/PIPELINE.md`).

/// Lane width every chunked loop in this module uses.
pub const LANES: usize = 4;

/// Fused multiply-add when the target guarantees an FMA instruction,
/// plain `a * b + c` otherwise.
///
/// Without the `fma` target feature `f64::mul_add` lowers to a libm call
/// — *slower* than the two-op form — so the fallback must not use it.
#[inline(always)]
pub fn fmadd(a: f64, b: f64, c: f64) -> f64 {
    #[cfg(target_feature = "fma")]
    {
        a.mul_add(b, c)
    }
    #[cfg(not(target_feature = "fma"))]
    {
        a * b + c
    }
}

/// Sum of squared magnitudes `Σ re²+im²` of a split complex vector,
/// accumulated over four lanes.
pub fn norm2_sq_split(re: &[f64], im: &[f64]) -> f64 {
    assert_eq!(re.len(), im.len(), "lanes: split length mismatch");
    let mut acc = [0.0f64; LANES];
    let (re_c, re_t) = re.split_at(re.len() - re.len() % LANES);
    let (im_c, im_t) = im.split_at(re_c.len());
    for (r, i) in re_c.chunks_exact(LANES).zip(im_c.chunks_exact(LANES)) {
        for l in 0..LANES {
            acc[l] = fmadd(r[l], r[l], fmadd(i[l], i[l], acc[l]));
        }
    }
    let mut tail = 0.0;
    for (r, i) in re_t.iter().zip(im_t.iter()) {
        tail = fmadd(*r, *r, fmadd(*i, *i, tail));
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// L2 norm of a split complex vector.
pub fn norm2_split(re: &[f64], im: &[f64]) -> f64 {
    norm2_sq_split(re, im).sqrt()
}

/// L2 distance between two split complex vectors.
pub fn dist2_split(a_re: &[f64], a_im: &[f64], b_re: &[f64], b_im: &[f64]) -> f64 {
    assert_eq!(a_re.len(), b_re.len(), "lanes: split length mismatch");
    assert_eq!(a_im.len(), b_im.len(), "lanes: split length mismatch");
    assert_eq!(a_re.len(), a_im.len(), "lanes: split length mismatch");
    let mut acc = [0.0f64; LANES];
    let main = a_re.len() - a_re.len() % LANES;
    for c in (0..main).step_by(LANES) {
        for l in 0..LANES {
            let dr = a_re[c + l] - b_re[c + l];
            let di = a_im[c + l] - b_im[c + l];
            acc[l] = fmadd(dr, dr, fmadd(di, di, acc[l]));
        }
    }
    let mut tail = 0.0;
    for k in main..a_re.len() {
        let dr = a_re[k] - b_re[k];
        let di = a_im[k] - b_im[k];
        tail = fmadd(dr, dr, fmadd(di, di, tail));
    }
    ((acc[0] + acc[1]) + (acc[2] + acc[3]) + tail).sqrt()
}

/// Conjugated dot product `Σ conj(a_k) · b_k` of two split complex
/// vectors, returned as `(re, im)` and accumulated over four lanes.
///
/// This is the kernel of a Gram-matrix entry `(A^H A)[j,k]` and of the
/// normal-equations right-hand side `A^H b`:
/// `re = Σ ar·br + ai·bi`, `im = Σ ar·bi − ai·br`. The four-accumulator
/// fold reassociates the sum relative to the sequential loop in
/// [`crate::cmatrix::CMat::gram_into`], so the two agree within a
/// tolerance, not bitwise.
pub fn dot_conj_split(a_re: &[f64], a_im: &[f64], b_re: &[f64], b_im: &[f64]) -> (f64, f64) {
    assert_eq!(a_re.len(), a_im.len(), "lanes: split length mismatch");
    assert_eq!(b_re.len(), b_im.len(), "lanes: split length mismatch");
    assert_eq!(a_re.len(), b_re.len(), "lanes: split length mismatch");
    let mut acc_re = [0.0f64; LANES];
    let mut acc_im = [0.0f64; LANES];
    let main = a_re.len() - a_re.len() % LANES;
    for c in (0..main).step_by(LANES) {
        for l in 0..LANES {
            let (ar, ai) = (a_re[c + l], a_im[c + l]);
            let (br, bi) = (b_re[c + l], b_im[c + l]);
            acc_re[l] = fmadd(ar, br, fmadd(ai, bi, acc_re[l]));
            acc_im[l] = fmadd(ar, bi, fmadd(-ai, br, acc_im[l]));
        }
    }
    let (mut tail_re, mut tail_im) = (0.0f64, 0.0f64);
    for k in main..a_re.len() {
        let (ar, ai) = (a_re[k], a_im[k]);
        let (br, bi) = (b_re[k], b_im[k]);
        tail_re = fmadd(ar, br, fmadd(ai, bi, tail_re));
        tail_im = fmadd(ar, bi, fmadd(-ai, br, tail_im));
    }
    (
        (acc_re[0] + acc_re[1]) + (acc_re[2] + acc_re[3]) + tail_re,
        (acc_im[0] + acc_im[1]) + (acc_im[2] + acc_im[3]) + tail_im,
    )
}

/// L∞ norm (largest magnitude) of a split complex vector.
///
/// `max` is order-insensitive for finite inputs, so this reduction is
/// *not* tolerance-bearing by itself; the per-element magnitude uses
/// `sqrt(re²+im²)` rather than `hypot`, which is where it departs (by
/// ≤ 1 ulp-ish) from [`crate::cvec::norm_inf`].
pub fn norm_inf_split(re: &[f64], im: &[f64]) -> f64 {
    assert_eq!(re.len(), im.len(), "lanes: split length mismatch");
    let mut best = 0.0f64;
    for (r, i) in re.iter().zip(im.iter()) {
        let sq = fmadd(*r, *r, *i * *i);
        if sq > best {
            best = sq;
        }
    }
    best.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cvec;
    use crate::Complex64;

    fn split(v: &[Complex64]) -> (Vec<f64>, Vec<f64>) {
        (
            v.iter().map(|z| z.re).collect(),
            v.iter().map(|z| z.im).collect(),
        )
    }

    fn vecs(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|k| Complex64::from_polar(0.1 + (k % 7) as f64 * 0.3, 1.7 * k as f64))
            .collect()
    }

    #[test]
    fn norms_match_scalar_within_tolerance() {
        for n in [1usize, 3, 4, 7, 16, 101] {
            let v = vecs(n);
            let (re, im) = split(&v);
            let lane = norm2_split(&re, &im);
            let scalar = cvec::norm2(&v);
            assert!((lane - scalar).abs() <= 1e-12 * scalar.max(1.0), "n={n}");
            let li = norm_inf_split(&re, &im);
            let si = cvec::norm_inf(&v);
            assert!((li - si).abs() <= 1e-12 * si.max(1.0), "n={n}");
        }
    }

    #[test]
    fn dist_matches_scalar_within_tolerance() {
        for n in [1usize, 5, 8, 33] {
            let a = vecs(n);
            let b: Vec<Complex64> = vecs(n).iter().map(|z| z.scale(0.9)).collect();
            let (ar, ai) = split(&a);
            let (br, bi) = split(&b);
            let lane = dist2_split(&ar, &ai, &br, &bi);
            let scalar = cvec::dist2(&a, &b);
            assert!((lane - scalar).abs() <= 1e-12 * scalar.max(1.0), "n={n}");
        }
    }

    #[test]
    fn dot_conj_matches_scalar_within_tolerance() {
        for n in [1usize, 3, 4, 9, 32, 65] {
            let a = vecs(n);
            let b: Vec<Complex64> = vecs(n)
                .iter()
                .enumerate()
                .map(|(k, z)| z.scale(0.7 + 0.01 * k as f64))
                .collect();
            let (ar, ai) = split(&a);
            let (br, bi) = split(&b);
            let (re, im) = dot_conj_split(&ar, &ai, &br, &bi);
            let scalar: Complex64 = a
                .iter()
                .zip(b.iter())
                .map(|(x, y)| x.conj() * *y)
                .fold(Complex64::ZERO, |s, z| s + z);
            let scale = scalar.abs().max(1.0);
            assert!((re - scalar.re).abs() <= 1e-12 * scale, "n={n}");
            assert!((im - scalar.im).abs() <= 1e-12 * scale, "n={n}");
        }
    }

    #[test]
    fn empty_and_zero_are_exact() {
        assert_eq!(norm2_sq_split(&[], &[]), 0.0);
        assert_eq!(norm_inf_split(&[0.0; 5], &[0.0; 5]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn split_lengths_checked() {
        let _ = norm2_sq_split(&[1.0], &[]);
    }
}
