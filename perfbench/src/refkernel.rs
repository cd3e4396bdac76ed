//! The frozen reference kernel behind host normalization.
//!
//! A shared 2-vCPU host drifts: the same binary's wall throughput moves by
//! about a quarter within minutes, and CPU time tracks wall time, so
//! neither removes the drift. The benchmark therefore times this kernel
//! before every step and every set-up (and once after the last step), and
//! reports each timing as `raw × NOMINAL_PASS_S ÷ (reference level)`:
//! seconds on a nominal host. The reference level of a timed interval is
//! the mean of the passes just before and just after it, so contention
//! that comes and goes within a run is tracked step by step.
//!
//! The kernel is a dense 24×800 complex FISTA block on plain `f64` — the
//! shape of one 5 GHz group inversion, without any of the program's code.
//! This file uses only `std`; a guard test in `tests/guard.rs` fails if it
//! ever imports workspace code, so no change to the program can move it.
//! Change it and every recorded baseline moves: treat it as frozen.

use std::f64::consts::PI;
use std::hint::black_box;
use std::time::Instant;

/// Rows of the dense operator (the 5 GHz group's bands).
pub const ROWS: usize = 24;
/// Columns of the dense operator (an 800-point delay grid).
pub const COLS: usize = 800;
/// FISTA iterations per pass: about 0.6 ms on a quiet host.
pub const ITERS: usize = 16;

/// Timed pass on the nominal host, seconds (about a quiet 2-vCPU cloud
/// host's). Normalized timings are seconds on a host whose pass takes
/// exactly this long.
pub const NOMINAL_PASS_S: f64 = 0.6e-3;

/// Lengths of the kernel's arrays, in buffer order: the operator's real
/// and imaginary planes, the measurement, then the iterates `p`, `y`,
/// `g` and the residual `r`, each as real and imaginary parts.
const LENS: [usize; 12] = [
    ROWS * COLS,
    ROWS * COLS,
    ROWS,
    ROWS,
    COLS,
    COLS,
    COLS,
    COLS,
    COLS,
    COLS,
    ROWS,
    ROWS,
];

/// f64s per 4 KiB page.
const PAGE: usize = 512;

/// Stagger between consecutive arrays' page offsets, f64s (320 bytes: 12
/// arrays get 12 distinct, cache-line-aligned offsets within a page).
const STAGGER: usize = 40;

/// The kernel's buffers, laid out identically in every process: one
/// allocation, each array starting on its own page at a distinct page
/// offset. Where separate allocations land decides which arrays 4K-alias
/// each other; one layout that put two arrays at the same page offset made
/// a pass 60% slower, and the allocator's choice differs per process.
pub struct RefKernel {
    buf: Vec<f64>,
    /// Start of each array in `buf`.
    at: [usize; 12],
}

impl Default for RefKernel {
    fn default() -> Self {
        Self::new()
    }
}

impl RefKernel {
    /// Builds the operator `a[k][j] = exp(-2πi f_k τ_j)` over 24 bands
    /// 20 MHz apart from 5.18 GHz and a 0.25 ns grid, and a measurement
    /// of three atoms on it.
    pub fn new() -> Self {
        let mut at = [0usize; 12];
        let mut end = 0usize;
        for (i, len) in LENS.iter().enumerate() {
            at[i] = end.div_ceil(PAGE) * PAGE + STAGGER * i;
            end = at[i] + len;
        }
        let buf = vec![0.0; end + PAGE];
        // Shift every array so the first one starts on a page boundary.
        let shift = (4096 - buf.as_ptr() as usize % 4096) % 4096 / 8;
        for a in &mut at {
            *a += shift;
        }
        let mut k = RefKernel { buf, at };
        let [a_re, a_im, h_re, h_im, ..]: [&mut [f64]; 12] =
            k.arrays().try_into().expect("twelve arrays");
        for row in 0..ROWS {
            let f_ghz = 5.18 + 0.02 * row as f64;
            for j in 0..COLS {
                let phase = -2.0 * PI * f_ghz * 0.25 * j as f64;
                a_re[row * COLS + j] = phase.cos();
                a_im[row * COLS + j] = phase.sin();
            }
        }
        for (col, amp) in [(40usize, 1.0f64), (97, 0.6), (210, 0.3)] {
            for row in 0..ROWS {
                h_re[row] += amp * a_re[row * COLS + col];
                h_im[row] += amp * a_im[row * COLS + col];
            }
        }
        k
    }

    /// The arrays as disjoint slices, in `LENS` order.
    fn arrays(&mut self) -> Vec<&mut [f64]> {
        let mut rest: &mut [f64] = &mut self.buf;
        let mut consumed = 0;
        let mut out = Vec::with_capacity(LENS.len());
        for (start, len) in self.at.iter().zip(LENS) {
            let (_, tail) = rest.split_at_mut(start - consumed);
            let (array, tail) = tail.split_at_mut(len);
            out.push(array);
            rest = tail;
            consumed = start + len;
        }
        out
    }

    /// One pass: `ITERS` FISTA iterations from a zero iterate. Returns the
    /// solution's energy, so the work cannot be optimized away.
    pub fn pass(&mut self) -> f64 {
        let [a_re, a_im, h_re, h_im, p_re, p_im, y_re, y_im, g_re, g_im, r_re, r_im]: [&mut [f64];
            12] = self.arrays().try_into().expect("twelve arrays");
        // ||A||² ≤ ||A||_F² = ROWS·COLS: a safe, fixed step size.
        let step = 1.0 / (ROWS * COLS) as f64;
        let thresh = step * 0.05 * ROWS as f64;
        p_re.fill(0.0);
        p_im.fill(0.0);
        y_re.fill(0.0);
        y_im.fill(0.0);
        let mut t = 1.0f64;
        for _ in 0..ITERS {
            // r = A y − h
            for k in 0..ROWS {
                let row_re = &a_re[k * COLS..(k + 1) * COLS];
                let row_im = &a_im[k * COLS..(k + 1) * COLS];
                let (mut acc_re, mut acc_im) = (0.0, 0.0);
                for j in 0..COLS {
                    acc_re += row_re[j] * y_re[j] - row_im[j] * y_im[j];
                    acc_im += row_re[j] * y_im[j] + row_im[j] * y_re[j];
                }
                r_re[k] = acc_re - h_re[k];
                r_im[k] = acc_im - h_im[k];
            }
            // g = Aᴴ r
            g_re.fill(0.0);
            g_im.fill(0.0);
            for k in 0..ROWS {
                let row_re = &a_re[k * COLS..(k + 1) * COLS];
                let row_im = &a_im[k * COLS..(k + 1) * COLS];
                let (rr, ri) = (r_re[k], r_im[k]);
                for j in 0..COLS {
                    g_re[j] += row_re[j] * rr + row_im[j] * ri;
                    g_im[j] += row_re[j] * ri - row_im[j] * rr;
                }
            }
            // Proximal step with complex soft threshold, then momentum.
            let t_next = 0.5 * (1.0 + (1.0 + 4.0 * t * t).sqrt());
            let beta = (t - 1.0) / t_next;
            for j in 0..COLS {
                let zr = y_re[j] - step * g_re[j];
                let zi = y_im[j] - step * g_im[j];
                let mag = (zr * zr + zi * zi).sqrt();
                let shrink = if mag > thresh {
                    (mag - thresh) / mag
                } else {
                    0.0
                };
                let (nr, ni) = (zr * shrink, zi * shrink);
                y_re[j] = nr + beta * (nr - p_re[j]);
                y_im[j] = ni + beta * (ni - p_im[j]);
                p_re[j] = nr;
                p_im[j] = ni;
            }
            t = t_next;
        }
        p_re.iter()
            .zip(p_im.iter())
            .map(|(r, i)| r * r + i * i)
            .sum()
    }

    /// Runs the kernel twice back to back and returns the second pass's
    /// wall time, seconds. The untimed first pass restores the kernel's
    /// cache state, so the program's footprint cannot leak into it.
    pub fn timed_pass(&mut self) -> f64 {
        black_box(self.pass());
        let t0 = Instant::now();
        black_box(self.pass());
        t0.elapsed().as_secs_f64()
    }
}

/// Normalizes a raw timing measured at reference level `level_s` (a
/// timed pass, seconds) to seconds on the nominal host.
pub fn nominal(raw_s: f64, level_s: f64) -> f64 {
    raw_s * NOMINAL_PASS_S / level_s
}
