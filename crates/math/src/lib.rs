//! # chronos-math
//!
//! Numerics substrate for the Chronos reproduction.
//!
//! The offline dependency set deliberately excludes numerical crates
//! (`num-complex`, `ndarray`, `nalgebra`, ...), so everything the signal
//! processing pipeline needs is implemented here from scratch.
//!
//! [`complex`] provides double-precision complex arithmetic
//! ([`Complex64`]) with `num-complex`-style operators. Its workhorse is
//! `cis(θ) = e^{iθ}`: every channel model in the workspace is a sum of
//! `a · cis(-2π f τ)` terms (paper Eq. 2).
//!
//! [`cvec`] implements operations on complex vectors — dot products,
//! L2/L∞ norms, distances, in-place scaling — the inner loops of the
//! proximal-gradient solver (paper §6.2).
//!
//! [`cmatrix`] and [`matrix`] carry small dense complex/real matrices
//! with the factorizations the pipeline needs (LU, normal-equation
//! solves); [`lstsq`] builds linear and Gauss–Newton least squares on
//! top, used by LASSO debiasing and the §8 trilateration fit.
//!
//! [`spline`] implements the natural cubic spline Chronos uses to
//! interpolate CSI at the unmeasurable zero-subcarrier (paper §5,
//! footnote 3), plus [`spline::SplinePlan`]: a reusable factorization of
//! the knot-dependent tridiagonal system, bitwise-equivalent to a fresh
//! fit, built once per subcarrier layout and shared by every capture of
//! every client through the `chronos-core` plan cache.
//!
//! [`unwrap`] is 1-D phase unwrapping and wrapped-angle utilities —
//! needed because measured CSI phase arrives modulo 2π (and modulo π/2
//! on quirked 2.4 GHz captures, paper §11).
//!
//! [`crt`] solves noisy real-valued congruence systems by grid voting —
//! the construction behind the paper's Fig. 3, where each band pins the
//! ToF modulo `1/f_i` and the answer is wherever most congruences align
//! (§4). Exact integer CRT is included for tests and intuition.
//!
//! [`peaks`] extracts dominant peaks from magnitude profiles with
//! merge-radius and dominance rules — the substrate of the paper's
//! first-peak decision rule (§6, observation 1).
//!
//! [`stats`] provides the medians, percentiles, CDFs and histograms the
//! §12 evaluation harness reports, and [`constants`] the physical
//! constants (speed of light, ns↔m conversions) everything shares.
//!
//! All routines are deterministic and panic-free for finite inputs unless the
//! documentation explicitly states a precondition.

#![forbid(unsafe_code)]

pub mod cmatrix;
pub mod complex;
pub mod constants;
pub mod crt;
pub mod cvec;
pub mod lanes;
pub mod lstsq;
pub mod matrix;
pub mod peaks;
pub mod spline;
pub mod stats;
pub mod unwrap;

pub use complex::Complex64;
pub use constants::{m_to_ns, ns_to_m, C_M_PER_NS, METERS_PER_NS};
