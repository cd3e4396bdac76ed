//! Hyperbolic (TDoA) localization across synchronized access points.
//!
//! The paper's pipeline is round-trip: one AP measures a client's full
//! time-of-flight, so every fix costs that AP an entire band sweep. Once
//! a *fleet* of APs shares a clock (see [`crate::fleet::ClockSync`]),
//! a single client transmission timestamped at N ≥ 3 APs yields N − 1
//! **range differences** — each pair of APs constrains the client to a
//! hyperbola branch, and the branches intersect at the client. No
//! round-trip, no per-AP sweep: the whole fleet localizes the client off
//! one cheap blast.
//!
//! The solver is a damped Gauss–Newton least squares over the two
//! unknowns `p = (x, y)`. Residual `i` is
//!
//! ```text
//!   r_i(p) = (|p − a_i| − |p − a_ref|) − Δd_i
//! ```
//!
//! where `a_ref` is the reference (serving) AP and `Δd_i` the measured
//! range difference `c · (t_i − t_ref)`. Clock residual between an AP
//! pair enters `Δd_i` directly as `c · δ_pair` — which is why the fleet
//! gates TDoA on the pair's synchronization residual bound.
//!
//! Each Jacobian row is analytic — the difference of two unit vectors,
//! `∇r_i(p) = u(p − a_i) − u(p − a_ref)` with `u(v) = v / |v|` — so one
//! pass over the anchors yields the cost, `JᵀJ` (three scalars) and
//! `Jᵀr` (two), and the damped 2×2 normal equations are solved in closed
//! form. No finite-difference re-evaluations, no matrix storage, no heap
//! allocation. The damping policy is [`GaussNewton::minimize_with`]'s:
//! λ starts at 10⁻³, grows ×10 per rejected or singular try (at most 8
//! per iteration) and halves (floor 10⁻¹²) on an accepted step. The fit
//! stops on an accepted step shorter than 1 µm, on an iteration without
//! an accepted step, or at [`TdoaSolverConfig::max_iters`]. A step that
//! short is far below any timestamp noise; converging on to
//! rounding-level steps only bought a final iteration of rejected tries.
//! The unit tests keep the generic finite-difference fit as the
//! reference the solver must agree with.
//!
//! A trial point pays for its Jacobian only once it is accepted. Its
//! cost is summed first, alone, in anchor order — one square root per
//! anchor — and the sum stops as soon as it reaches the cost it must
//! beat: every term is a square, so the partial sums never decrease and
//! the verdict is already known (a NaN term never stops the sum, and
//! the trial is rejected at the end). A fleet blast's fit tries 4.4
//! damped steps on average and rejects 0.4 of them. An accepted trial
//! then builds `JᵀJ` and `Jᵀr` from the ranges its cost pass kept, and
//! the last accepted step — shorter than the tolerance, or in the final
//! iteration — builds none, since only its point and cost are read.
//! Every fit is the one the single-pass formulation gives, bit for bit;
//! the unit tests keep that formulation as a second reference.
//!
//! Hyperbolic cost surfaces are flatter than circles (the gradient along
//! a branch is weak far from the anchors), so a fit can settle far from
//! the client. The solver fits once from the caller's seed (a tracker
//! prediction, when warm) and keeps that fit when its RMS residual passes
//! [`TdoaSolverConfig::max_residual_m`]. Only a seeded fit that fails the
//! gate, or is not finite, pays for a second fit from the anchor
//! centroid, and then the lower-RMS fit of the two is judged.

use crate::error::ChronosError;
use chronos_rf::geometry::Point;

#[cfg(doc)]
use chronos_math::lstsq::GaussNewton;

/// One anchor's range-difference observation against the reference AP.
#[derive(Debug, Clone, Copy)]
pub struct RangeDiff {
    /// Anchor (AP) position, world frame, meters.
    pub anchor: Point,
    /// Measured range difference `|p − anchor| − |p − reference|`,
    /// meters (i.e. `c ·` the arrival-timestamp difference).
    pub diff_m: f64,
}

/// A hyperbolic position fix.
#[derive(Debug, Clone, Copy)]
pub struct TdoaFix {
    /// Estimated transmitter position, world frame.
    pub point: Point,
    /// Root-mean-square range-difference residual at the solution,
    /// meters.
    pub residual_m: f64,
    /// Anchors the fix used, including the reference.
    pub n_anchors: usize,
}

/// Solver knobs.
#[derive(Debug, Clone, Copy)]
pub struct TdoaSolverConfig {
    /// Maximum acceptable RMS range-difference residual before declaring
    /// no consistent position, meters. A fit from the caller's seed that
    /// passes it is the fix; the anchor-centroid fit runs only when it
    /// does not.
    pub max_residual_m: f64,
    /// Gauss–Newton iteration cap.
    pub max_iters: usize,
}

impl Default for TdoaSolverConfig {
    fn default() -> Self {
        TdoaSolverConfig {
            max_residual_m: 2.0,
            max_iters: 200,
        }
    }
}

/// Initial damping.
const LAMBDA0: f64 = 1e-3;
/// Damping floor on accepted steps.
const LAMBDA_MIN: f64 = 1e-12;
/// Damped solves tried per iteration before the fit gives up.
const MAX_TRIES: usize = 8;
/// Convergence threshold on an accepted step's length, meters.
const STEP_TOL: f64 = 1e-6;
/// Relative pivot floor below which the damped system counts as
/// singular (the LU solve's rule).
const PIVOT_TOL: f64 = 1e-12;
/// Anchor ranges a trial's cost pass keeps for its Jacobian pass, which
/// ranges any further anchors again. A 16-AP fleet blast has at most 15.
const KEPT_RANGES: usize = 16;

/// The fit linearized at one point: the cost `Σ r_i²` plus the normal
/// equations `JᵀJ = [[xx, xy], [xy, yy]]` and `Jᵀr = (rx, ry)`.
#[derive(Debug, Clone, Copy)]
struct Linearization {
    p: Point,
    cost: f64,
    xx: f64,
    xy: f64,
    yy: f64,
    rx: f64,
    ry: f64,
}

/// `|p − a|`.
fn range(p: Point, a: Point) -> f64 {
    let (dx, dy) = (p.x - a.x, p.y - a.y);
    (dx * dx + dy * dy).sqrt()
}

/// The unit vector along `p − a`, given `d = |p − a|`. At `p == a`,
/// where the distance has no gradient, it is the zero vector (the
/// minimum-norm subgradient), so a seed on an anchor stays finite.
fn direction(p: Point, a: Point, d: f64) -> (f64, f64) {
    if d > 0.0 {
        ((p.x - a.x) / d, (p.y - a.y) / d)
    } else {
        (0.0, 0.0)
    }
}

/// The cost `Σ r_i²` of a trial at `p`, summed in anchor order from 0 as
/// [`Linearization::at`] sums it, when it is below `bound`; `None` as
/// soon as a partial sum reaches `bound`. The squares make the partial
/// sums non-decreasing, so a stopped sum could only have ended at or
/// above `bound`; a NaN never stops it and fails the final test. The
/// first [`KEPT_RANGES`] anchor ranges land in `kept`. Returns the
/// reference range and the cost.
fn trial_cost(
    p: Point,
    reference: Point,
    diffs: &[RangeDiff],
    bound: f64,
    kept: &mut [f64; KEPT_RANGES],
) -> Option<(f64, f64)> {
    let d_ref = range(p, reference);
    let mut cost = 0.0;
    for (i, rd) in diffs.iter().enumerate() {
        let d = range(p, rd.anchor);
        if let Some(slot) = kept.get_mut(i) {
            *slot = d;
        }
        let r = (d - d_ref) - rd.diff_m;
        cost += r * r;
        if cost >= bound {
            return None;
        }
    }
    (cost < bound).then_some((d_ref, cost))
}

impl Linearization {
    /// Empty sums at `p`, with `cost` already summed.
    fn empty(p: Point, cost: f64) -> Self {
        Linearization {
            p,
            cost,
            xx: 0.0,
            xy: 0.0,
            yy: 0.0,
            rx: 0.0,
            ry: 0.0,
        }
    }

    /// Adds the Jacobian row of the anchor at `a`, `d` from `self.p`
    /// with residual `r`, against the reference direction `u_ref`.
    fn add_row(&mut self, a: Point, d: f64, r: f64, u_ref: (f64, f64)) {
        let (ux, uy) = direction(self.p, a, d);
        let (jx, jy) = (ux - u_ref.0, uy - u_ref.1);
        self.xx += jx * jx;
        self.xy += jx * jy;
        self.yy += jy * jy;
        self.rx += jx * r;
        self.ry += jy * r;
    }

    /// One pass over the anchors at `p`: the cost and the normal
    /// equations.
    fn at(p: Point, reference: Point, diffs: &[RangeDiff]) -> Self {
        let d_ref = range(p, reference);
        let u_ref = direction(p, reference, d_ref);
        let mut l = Self::empty(p, 0.0);
        for rd in diffs {
            let d = range(p, rd.anchor);
            let r = (d - d_ref) - rd.diff_m;
            l.cost += r * r;
            l.add_row(rd.anchor, d, r, u_ref);
        }
        l
    }

    /// The normal equations at an accepted trial point `p`, whose cost
    /// pass summed `cost`, ranged the reference at `d_ref` and kept the
    /// first anchor ranges in `kept`; later anchors are ranged again.
    fn accepted(
        p: Point,
        cost: f64,
        reference: Point,
        d_ref: f64,
        diffs: &[RangeDiff],
        kept: &[f64],
    ) -> Self {
        let u_ref = direction(p, reference, d_ref);
        let mut l = Self::empty(p, cost);
        for (i, rd) in diffs.iter().enumerate() {
            let d = kept.get(i).copied().unwrap_or_else(|| range(p, rd.anchor));
            l.add_row(rd.anchor, d, (d - d_ref) - rd.diff_m, u_ref);
        }
        l
    }

    /// The damped Gauss–Newton step `−(JᵀJ + λI)⁻¹ Jᵀr` by Cramer's
    /// rule, or `None` when the system is singular: its second pivot
    /// `det / a` falls below [`PIVOT_TOL`] of that row's largest entry,
    /// as in the partially pivoted LU solve (which always pivots on the
    /// first row of this positive-definite matrix). Non-finite entries
    /// also read as singular.
    fn step(&self, lambda: f64) -> Option<Point> {
        let (a, b, c) = (self.xx + lambda, self.xy, self.yy + lambda);
        let det = a * c - b * b;
        if det.is_nan() || det <= PIVOT_TOL * a * c.max(b.abs()) {
            return None;
        }
        Some(Point::new(
            (b * self.ry - c * self.rx) / det,
            (b * self.rx - a * self.ry) / det,
        ))
    }
}

/// Damped Gauss–Newton from `seed` under the module-level policy, with
/// cost-first trials; returns the last accepted point and its cost.
fn fit(reference: Point, diffs: &[RangeDiff], seed: Point, max_iters: usize) -> (Point, f64) {
    let mut at = Linearization::at(seed, reference, diffs);
    let mut lambda = LAMBDA0;
    let mut kept = [0.0; KEPT_RANGES];
    for iter in 0..max_iters {
        let mut accepted = None;
        for _ in 0..MAX_TRIES {
            let Some(step) = at.step(lambda) else {
                lambda *= 10.0;
                continue;
            };
            let p = at.p.add(step);
            if let Some((d_ref, cost)) = trial_cost(p, reference, diffs, at.cost, &mut kept) {
                lambda = (lambda * 0.5).max(LAMBDA_MIN);
                accepted = Some((p, d_ref, cost, (step.x * step.x + step.y * step.y).sqrt()));
                break;
            }
            lambda *= 10.0;
        }
        let Some((p, d_ref, cost, step_norm)) = accepted else {
            break;
        };
        match step_norm {
            norm if norm >= STEP_TOL && iter + 1 < max_iters => {
                at = Linearization::accepted(p, cost, reference, d_ref, diffs, &kept);
            }
            // The last accepted step ends the fit: nothing reads its
            // normal equations.
            _ => return (p, cost),
        }
    }
    (at.p, at.cost)
}

/// Solves the hyperbolic fix from range differences against `reference`.
///
/// Needs at least two range differences (three APs total): two unknowns,
/// two hyperbolae. `seed` is the caller's prior — a position-tracker
/// prediction when warm, or any point near the anchors when cold. The
/// fit from `seed` is the fix when it is finite and its RMS residual is
/// at most [`TdoaSolverConfig::max_residual_m`]. Otherwise the anchor
/// centroid seeds a second fit, and the lower-RMS fit of the two must
/// pass the same gate. A fix whose RMS residual exceeds the gate — or is
/// not a finite number, as with a non-finite `diff_m` — is rejected with
/// [`ChronosError::NoConsistentPosition`]; an `Ok` fix is always finite.
///
/// Allocation-free: the whole fit lives in a few scalars and one small
/// array on the stack.
pub fn solve_tdoa(
    reference: Point,
    diffs: &[RangeDiff],
    seed: Point,
    cfg: &TdoaSolverConfig,
) -> Result<TdoaFix, ChronosError> {
    solve_with(reference, diffs, seed, cfg, fit)
}

/// [`solve_tdoa`] over the given fit from one seed, which returns the
/// fitted point and its cost.
fn solve_with(
    reference: Point,
    diffs: &[RangeDiff],
    seed: Point,
    cfg: &TdoaSolverConfig,
    fit: impl Fn(Point, &[RangeDiff], Point, usize) -> (Point, f64),
) -> Result<TdoaFix, ChronosError> {
    if diffs.len() < 2 {
        return Err(ChronosError::NoConsistentPosition);
    }
    let fit_from = |s: Point| {
        let (p, cost) = fit(reference, diffs, s, cfg.max_iters);
        (p.x.is_finite() && p.y.is_finite()).then(|| TdoaFix {
            point: p,
            residual_m: (cost / diffs.len() as f64).sqrt(),
            n_anchors: diffs.len() + 1,
        })
    };
    let passes = |fix: &TdoaFix| fix.residual_m.is_finite() && fix.residual_m <= cfg.max_residual_m;
    let seeded = fit_from(seed);
    if let Some(fix) = seeded.filter(passes) {
        return Ok(fix);
    }
    let mut centroid = reference;
    for rd in diffs {
        centroid = centroid.add(rd.anchor);
    }
    centroid = centroid.scale(1.0 / (diffs.len() + 1) as f64);
    let best = match (seeded, fit_from(centroid)) {
        (Some(s), Some(c)) if c.residual_m < s.residual_m => Some(c),
        (None, c) => c,
        (s, _) => s,
    };
    best.filter(passes)
        .ok_or(ChronosError::NoConsistentPosition)
}

/// Builds the range-difference set for a known geometry plus per-anchor
/// range errors (test/model helper): entry `i` is anchor `i`'s true
/// range difference against `reference`, biased by
/// `err_m[i] − err_ref_m`.
pub fn range_diffs_for(
    tx: Point,
    reference: Point,
    err_ref_m: f64,
    anchors: &[(Point, f64)],
) -> Vec<RangeDiff> {
    anchors
        .iter()
        .map(|&(a, err_m)| RangeDiff {
            anchor: a,
            diff_m: (tx.dist(a) - tx.dist(reference)) + (err_m - err_ref_m),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronos_math::lstsq::{GaussNewton, GnWorkspace, Residuals};
    use chronos_rf::testbed::ap_grid;
    use proptest::prelude::*;

    /// The generic formulation the dedicated solver replaced: the same
    /// residuals through the finite-difference [`GaussNewton`] fit.
    struct HyperbolaResiduals<'a> {
        reference: Point,
        diffs: &'a [RangeDiff],
    }

    impl Residuals for HyperbolaResiduals<'_> {
        fn len(&self) -> usize {
            self.diffs.len()
        }
        fn eval(&self, p: &[f64], out: &mut [f64]) {
            let pt = Point::new(p[0], p[1]);
            let d_ref = pt.dist(self.reference);
            for (i, rd) in self.diffs.iter().enumerate() {
                out[i] = (pt.dist(rd.anchor) - d_ref) - rd.diff_m;
            }
        }
    }

    /// [`solve_tdoa`] on the finite-difference fit: the reference the
    /// analytic solver must agree with. It runs under the same seed
    /// policy, so both sides judge the fit from the same seed first.
    fn reference_solve(
        reference: Point,
        diffs: &[RangeDiff],
        seed: Point,
        cfg: &TdoaSolverConfig,
    ) -> Result<TdoaFix, ChronosError> {
        let finite_difference_fit =
            |reference: Point, diffs: &[RangeDiff], s: Point, max_iters: usize| {
                let gn = GaussNewton {
                    max_iters,
                    ..Default::default()
                };
                let problem = HyperbolaResiduals { reference, diffs };
                let mut ws = GnWorkspace::default();
                let fit = gn.minimize_with(&problem, &[s.x, s.y], &mut ws);
                (Point::new(ws.params[0], ws.params[1]), fit.cost)
            };
        solve_with(reference, diffs, seed, cfg, finite_difference_fit)
    }

    /// The linearization before cost-first trials, written out on its
    /// own: one pass yields the cost and the normal equations.
    fn per_trial_linearization(p: Point, reference: Point, diffs: &[RangeDiff]) -> Linearization {
        let range_and_dir = |a: Point| {
            let (dx, dy) = (p.x - a.x, p.y - a.y);
            let d = (dx * dx + dy * dy).sqrt();
            if d > 0.0 {
                (d, dx / d, dy / d)
            } else {
                (d, 0.0, 0.0)
            }
        };
        let (d_ref, ux_ref, uy_ref) = range_and_dir(reference);
        let mut l = Linearization {
            p,
            cost: 0.0,
            xx: 0.0,
            xy: 0.0,
            yy: 0.0,
            rx: 0.0,
            ry: 0.0,
        };
        for rd in diffs {
            let (d, ux, uy) = range_and_dir(rd.anchor);
            let r = (d - d_ref) - rd.diff_m;
            let (jx, jy) = (ux - ux_ref, uy - uy_ref);
            l.cost += r * r;
            l.xx += jx * jx;
            l.xy += jx * jy;
            l.yy += jy * jy;
            l.rx += jx * r;
            l.ry += jy * r;
        }
        l
    }

    /// The fit before cost-first trials: every trial point is linearized
    /// in full before its verdict, and so is the last accepted one. The
    /// reference [`fit`] must match bit for bit.
    fn per_trial_fit(
        reference: Point,
        diffs: &[RangeDiff],
        seed: Point,
        max_iters: usize,
    ) -> (Point, f64) {
        let mut at = per_trial_linearization(seed, reference, diffs);
        let mut lambda = LAMBDA0;
        for _ in 0..max_iters {
            let mut step_norm = None;
            for _ in 0..MAX_TRIES {
                let Some(step) = at.step(lambda) else {
                    lambda *= 10.0;
                    continue;
                };
                let trial = per_trial_linearization(at.p.add(step), reference, diffs);
                if trial.cost < at.cost {
                    at = trial;
                    lambda = (lambda * 0.5).max(LAMBDA_MIN);
                    step_norm = Some((step.x * step.x + step.y * step.y).sqrt());
                    break;
                }
                lambda *= 10.0;
            }
            match step_norm {
                Some(norm) if norm >= STEP_TOL => {}
                _ => break,
            }
        }
        (at.p, at.cost)
    }

    fn square_aps() -> (Point, Vec<Point>) {
        // Reference at origin, three more anchors on a 20 m square.
        (
            Point::new(0.0, 0.0),
            vec![
                Point::new(20.0, 0.0),
                Point::new(0.0, 20.0),
                Point::new(20.0, 20.0),
            ],
        )
    }

    fn clean_diffs(tx: Point, reference: Point, anchors: &[Point]) -> Vec<RangeDiff> {
        range_diffs_for(
            tx,
            reference,
            0.0,
            &anchors.iter().map(|&a| (a, 0.0)).collect::<Vec<_>>(),
        )
    }

    #[test]
    fn exact_fix_from_clean_range_diffs() {
        let (reference, anchors) = square_aps();
        let tx = Point::new(7.0, 12.5);
        let diffs = clean_diffs(tx, reference, &anchors);
        let fix = solve_tdoa(
            reference,
            &diffs,
            Point::new(10.0, 10.0),
            &TdoaSolverConfig::default(),
        )
        .unwrap();
        assert!(fix.point.dist(tx) < 1e-6, "err {}", fix.point.dist(tx));
        assert!(fix.residual_m < 1e-8);
        assert_eq!(fix.n_anchors, 4);
    }

    #[test]
    fn noisy_fix_stays_sub_meter_inside_the_hull() {
        let (reference, anchors) = square_aps();
        let tx = Point::new(13.0, 6.0);
        let noise = [0.12, -0.09, 0.07];
        let diffs = range_diffs_for(
            tx,
            reference,
            -0.05,
            &anchors
                .iter()
                .zip(noise)
                .map(|(&a, n)| (a, n))
                .collect::<Vec<_>>(),
        );
        let fix = solve_tdoa(
            reference,
            &diffs,
            Point::new(10.0, 10.0),
            &TdoaSolverConfig::default(),
        )
        .unwrap();
        assert!(fix.point.dist(tx) < 1.0, "err {}", fix.point.dist(tx));
    }

    #[test]
    fn cold_seed_far_away_still_converges_via_centroid() {
        let (reference, anchors) = square_aps();
        let tx = Point::new(4.0, 16.0);
        let diffs = clean_diffs(tx, reference, &anchors);
        let fix = solve_tdoa(
            reference,
            &diffs,
            Point::new(500.0, -800.0),
            &TdoaSolverConfig::default(),
        )
        .unwrap();
        assert!(fix.point.dist(tx) < 1e-3, "err {}", fix.point.dist(tx));
    }

    #[test]
    fn under_determined_and_inconsistent_inputs_rejected() {
        let (reference, anchors) = square_aps();
        // One diff (two APs): under-determined.
        let one = vec![RangeDiff {
            anchor: anchors[0],
            diff_m: 1.0,
        }];
        assert!(solve_tdoa(
            reference,
            &one,
            Point::new(5.0, 5.0),
            &TdoaSolverConfig::default(),
        )
        .is_err());
        // Range differences no geometry can satisfy, with a tight cap.
        let broken: Vec<RangeDiff> = anchors
            .iter()
            .map(|&a| RangeDiff {
                anchor: a,
                diff_m: 500.0,
            })
            .collect();
        let cfg = TdoaSolverConfig {
            max_residual_m: 0.05,
            ..Default::default()
        };
        assert!(solve_tdoa(reference, &broken, Point::new(5.0, 5.0), &cfg).is_err());
    }

    #[test]
    fn clock_residual_degrades_error_monotonically() {
        // The fleet's gating rationale in miniature: a shared pair
        // residual of c·δ meters biases every diff; bigger δ, bigger
        // position error.
        let (reference, anchors) = square_aps();
        let tx = Point::new(9.0, 11.0);
        let err_at = |bias_m: f64| {
            let diffs = range_diffs_for(
                tx,
                reference,
                0.0,
                &anchors
                    .iter()
                    .enumerate()
                    .map(|(i, &a)| (a, bias_m * [1.0, -0.6, 0.8][i]))
                    .collect::<Vec<_>>(),
            );
            solve_tdoa(
                reference,
                &diffs,
                Point::new(10.0, 10.0),
                &TdoaSolverConfig::default(),
            )
            .unwrap()
            .point
            .dist(tx)
        };
        let (small, large) = (err_at(0.05), err_at(0.8));
        assert!(small < large, "bias 0.05 m → {small}, bias 0.8 m → {large}");
    }

    /// The contract for any input: a finite fix or a typed rejection,
    /// never a NaN point.
    fn assert_finite_or_rejected(result: Result<TdoaFix, ChronosError>) -> Option<TdoaFix> {
        match result {
            Ok(fix) => {
                assert!(
                    fix.point.x.is_finite() && fix.point.y.is_finite(),
                    "non-finite fix {:?}",
                    fix.point
                );
                assert!(fix.residual_m.is_finite(), "residual {}", fix.residual_m);
                Some(fix)
            }
            Err(e) => {
                assert!(
                    matches!(e, ChronosError::NoConsistentPosition),
                    "unexpected error {e:?}"
                );
                None
            }
        }
    }

    #[test]
    fn seeds_on_the_reference_or_an_anchor_stay_finite_and_converge() {
        let cfg = TdoaSolverConfig::default();
        let (reference, anchors) = square_aps();
        let tx = Point::new(7.0, 12.5);
        let diffs = clean_diffs(tx, reference, &anchors);
        // A cold fleet client's prior is its reference AP.
        for seed in [reference, anchors[0], anchors[2]] {
            let fix = assert_finite_or_rejected(solve_tdoa(reference, &diffs, seed, &cfg))
                .expect("clean, well-posed diffs solve");
            assert!(fix.point.dist(tx) < 1e-6, "seed {seed:?}: {:?}", fix.point);
        }
        // Both seeds degenerate: this cross's centroid is the reference.
        let cross = [
            Point::new(20.0, 0.0),
            Point::new(0.0, 20.0),
            Point::new(-20.0, 0.0),
            Point::new(0.0, -20.0),
        ];
        let tx = Point::new(4.0, -6.0);
        let diffs = clean_diffs(tx, reference, &cross);
        let fix = assert_finite_or_rejected(solve_tdoa(reference, &diffs, reference, &cfg))
            .expect("clean cross solves");
        assert!(fix.point.dist(tx) < 1e-6, "{:?}", fix.point);
        // And here the centroid is anchor 0, with the seed on it too.
        let kite = [
            Point::new(10.0, 0.0),
            Point::new(20.0, 10.0),
            Point::new(10.0, -10.0),
        ];
        let tx = Point::new(12.0, 3.0);
        let diffs = clean_diffs(tx, reference, &kite);
        let fix = assert_finite_or_rejected(solve_tdoa(reference, &diffs, kite[0], &cfg))
            .expect("clean kite solves");
        assert!(fix.point.dist(tx) < 1e-6, "{:?}", fix.point);
        // A cold client 1.5 m from its serving corner AP on the fleet grid,
        // heard by the ten other APs within 60 m: the finite-difference
        // fit rejected this blast from the same seed.
        let corner = Point::new(60.0, 60.0);
        let tx = Point::new(58.25, 58.72);
        let heard: Vec<Point> = ap_grid(16, 20.0)
            .into_iter()
            .filter(|&a| a != corner && a.dist(tx) <= 60.0)
            .collect();
        assert_eq!(heard.len(), 10);
        let diffs = clean_diffs(tx, corner, &heard);
        let fix = assert_finite_or_rejected(solve_tdoa(corner, &diffs, corner, &cfg))
            .expect("a client beside its AP solves cold");
        assert!(fix.point.dist(tx) < 1e-6, "{:?}", fix.point);
    }

    #[test]
    fn duplicated_anchors_stay_finite() {
        let cfg = TdoaSolverConfig::default();
        let (reference, anchors) = square_aps();
        let tx = Point::new(13.0, 6.0);
        // The same AP twice: identical Jacobian rows.
        let twice = [anchors[0], anchors[0], anchors[1], anchors[2]];
        let fix = assert_finite_or_rejected(solve_tdoa(
            reference,
            &clean_diffs(tx, reference, &twice),
            tx,
            &cfg,
        ))
        .expect("a repeated anchor is still well-posed");
        assert!(fix.point.dist(tx) < 1e-6, "{:?}", fix.point);
        // An anchor on the reference: a zero Jacobian row.
        let on_ref = [reference, anchors[0], anchors[1]];
        assert_finite_or_rejected(solve_tdoa(
            reference,
            &clean_diffs(tx, reference, &on_ref),
            reference,
            &cfg,
        ));
        // Every anchor on the reference: no geometry at all.
        let all_ref = [reference, reference];
        for diff_m in [0.0, 3.0] {
            let diffs: Vec<RangeDiff> = all_ref
                .iter()
                .map(|&anchor| RangeDiff { anchor, diff_m })
                .collect();
            assert_finite_or_rejected(solve_tdoa(reference, &diffs, tx, &cfg));
        }
    }

    #[test]
    fn non_finite_range_differences_are_rejected() {
        let cfg = TdoaSolverConfig {
            max_residual_m: f64::INFINITY,
            ..Default::default()
        };
        let (reference, anchors) = square_aps();
        let tx = Point::new(7.0, 12.5);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for i in 0..anchors.len() {
                let mut diffs = clean_diffs(tx, reference, &anchors);
                diffs[i].diff_m = bad;
                for seed in [tx, reference] {
                    let result = solve_tdoa(reference, &diffs, seed, &cfg);
                    assert!(
                        assert_finite_or_rejected(result).is_none(),
                        "diff {i} = {bad} must not yield a fix, even uncapped"
                    );
                }
            }
        }
    }

    /// The seed policy over an injected fit. From the caller's seed,
    /// (3, 4), the fit returns `seed_fit`: its point and RMS residual.
    /// From any other seed, which is the square's centroid (10, 10), it
    /// lands 0.25 m east at `centroid_rms`. Every call records its seed.
    /// Returns the solve and the seeds fitted, in call order.
    fn solve_with_rms(
        seed_fit: (Point, f64),
        centroid_rms: f64,
    ) -> (Result<TdoaFix, ChronosError>, Vec<Point>) {
        let (reference, anchors) = square_aps();
        let diffs = clean_diffs(Point::new(7.0, 12.5), reference, &anchors);
        let seed = Point::new(3.0, 4.0);
        let calls = std::cell::RefCell::new(Vec::new());
        let fit = |_: Point, diffs: &[RangeDiff], s: Point, _: usize| {
            calls.borrow_mut().push(s);
            let (moved, rms) = if s == seed {
                seed_fit
            } else {
                (s.add(Point::new(0.25, 0.0)), centroid_rms)
            };
            (moved, rms * rms * diffs.len() as f64)
        };
        let cfg = TdoaSolverConfig::default();
        let result = solve_with(reference, &diffs, seed, &cfg, fit);
        (result, calls.into_inner())
    }

    #[test]
    fn a_seeded_fit_that_passes_the_gate_is_the_fix_alone() {
        let seeded = Point::new(3.25, 4.0);
        // The centroid fit would cost less, and it would pass too; the
        // seeded fit passes the 2 m gate, so the centroid is never fitted.
        for rms in [0.0, 1.5, 2.0] {
            let (result, calls) = solve_with_rms((seeded, rms), 0.1);
            let fix = result.expect("the seeded fit passes the gate");
            assert_eq!(calls, [Point::new(3.0, 4.0)], "rms {rms}");
            assert_eq!(fix.point, seeded);
            assert!((fix.residual_m - rms).abs() < 1e-12, "{fix:?}");
        }
    }

    #[test]
    fn a_seeded_fit_that_fails_the_gate_or_is_not_finite_gets_the_centroid_fit() {
        let seed = Point::new(3.0, 4.0);
        let centroid = Point::new(10.0, 10.0);
        let centroid_fit = centroid.add(Point::new(0.25, 0.0));
        let failing = [
            (Point::new(3.25, 4.0), 2.5),
            (Point::new(3.25, 4.0), f64::INFINITY),
            (Point::new(f64::NAN, 4.0), 0.1),
            (Point::new(3.25, f64::INFINITY), 0.1),
        ];
        for seed_fit in failing {
            let (result, calls) = solve_with_rms(seed_fit, 1.0);
            assert_eq!(calls, [seed, centroid], "{seed_fit:?}");
            let fix = result.expect("the centroid fit passes the gate");
            assert_eq!(fix.point, centroid_fit, "{seed_fit:?}");
            assert!((fix.residual_m - 1.0).abs() < 1e-12, "{fix:?}");
        }
        // The lower-RMS fit of the two is judged: a seeded fit over the
        // gate beats a worse centroid fit, and the solve is rejected.
        let (result, calls) = solve_with_rms((Point::new(3.25, 4.0), 2.5), 3.0);
        assert_eq!(calls, [seed, centroid]);
        assert!(matches!(result, Err(ChronosError::NoConsistentPosition)));
    }

    /// Bits of a fit: point and cost.
    fn fit_bits((p, cost): (Point, f64)) -> [u64; 3] {
        [p.x.to_bits(), p.y.to_bits(), cost.to_bits()]
    }

    /// Bits of a solve: the fix's point, residual and anchor count, or
    /// the error.
    fn solve_bits(result: Result<TdoaFix, ChronosError>) -> Result<([u64; 3], usize), String> {
        result
            .map(|f| {
                let bits = [f.point.x, f.point.y, f.residual_m].map(f64::to_bits);
                (bits, f.n_anchors)
            })
            .map_err(|e| format!("{e:?}"))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Cost-first trials move no bit: from both seeds the fit returns
        /// the point and cost of the fit that linearizes every trial in
        /// full, and `solve_tdoa` the same verdict, point and residual.
        /// The draws cover 2 diffs, more anchors than the kept-range
        /// buffer, seeds on an anchor or the reference, non-finite range
        /// differences, fits that end on the iteration cap (`max_iters`
        /// 1 and 2) and range errors large enough to reject.
        #[test]
        fn cost_first_fit_matches_per_trial_fit_bitwise(
            n_diffs in prop_oneof![Just(2usize), 3usize..16, 16usize..24],
            anchors in collection::vec((-20.0f64..80.0, -20.0f64..80.0), 25..26),
            tx in (0.0f64..60.0, 0.0f64..60.0),
            err_m in collection::vec(prop_oneof![-0.5f64..0.5, -8.0f64..8.0], 25..26),
            seed_kind in 0usize..4,
            bad in 0usize..400,
            max_iters in prop_oneof![Just(1usize), Just(2), 3usize..40, Just(200)],
        ) {
            let at = |i: usize| Point::new(anchors[i].0, anchors[i].1);
            let tx = Point::new(tx.0, tx.1);
            let reference = at(0);
            let heard: Vec<(Point, f64)> = (1..=n_diffs).map(|i| (at(i), err_m[i])).collect();
            let mut diffs = range_diffs_for(tx, reference, err_m[0], &heard);
            // About one draw in four plants a NaN or an infinity in a diff.
            if let Some(rd) = diffs.get_mut(bad / 10) {
                rd.diff_m = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][bad % 3];
            }
            let seed = match seed_kind {
                0 => tx.add(Point::new(0.7, -1.1)),
                1 => at(1),
                2 => reference,
                _ => Point::new(500.0, -800.0),
            };
            let mut centroid = reference;
            for rd in &diffs {
                centroid = centroid.add(rd.anchor);
            }
            centroid = centroid.scale(1.0 / (diffs.len() + 1) as f64);
            for s in [seed, centroid] {
                prop_assert_eq!(
                    fit_bits(fit(reference, &diffs, s, max_iters)),
                    fit_bits(per_trial_fit(reference, &diffs, s, max_iters)),
                    "seed {:?}, {} diffs, max_iters {}", s, n_diffs, max_iters
                );
            }
            let cfg = TdoaSolverConfig { max_iters, ..Default::default() };
            prop_assert_eq!(
                solve_bits(solve_tdoa(reference, &diffs, seed, &cfg)),
                solve_bits(solve_with(reference, &diffs, seed, &cfg, per_trial_fit)),
                "seed {:?}, {} diffs, max_iters {}", seed, n_diffs, max_iters
            );
        }

        /// The analytic solver reproduces the finite-difference reference
        /// across the fleet's 4×4, 20 m grid: same verdict, same RMS
        /// residual, and the same fix once five or more anchors
        /// over-determine it. (With three or four anchors two minima of
        /// near-equal cost can exist, and the two fits may settle in
        /// different ones.) Both run under the same seed policy, and the
        /// reference keeps [`GaussNewton`]'s 10⁻¹⁰ m step tolerance, so
        /// the bounds also hold what stopping at 1 µm gives up.
        ///
        /// One exception to "same RMS": when the least-squares minimum
        /// sits on an AP, where `|p − a|` has a kink, the analytic fit
        /// reaches the kink while the reference's forward-difference
        /// Jacobian stalls tens of µm short at a higher cost (7.8e-6 m
        /// RMS higher in one n = 16 draw here). There the analytic fit
        /// may be better than the reference, never worse.
        #[test]
        fn analytic_fit_agrees_with_finite_difference_reference(
            tx_x in 0.0f64..60.0,
            tx_y in 0.0f64..60.0,
            n in 3usize..17,
            order in collection::vec(0.0f64..1.0, 16..17),
            stamp_err_m in collection::vec(-0.6f64..0.6, 16..17),
            seed_offset in (0.0f64..2.0, 0.0f64..std::f64::consts::TAU),
        ) {
            let aps = ap_grid(16, 20.0);
            let mut picked: Vec<usize> = (0..aps.len()).collect();
            picked.sort_by(|&a, &b| order[a].total_cmp(&order[b]));
            picked.truncate(n);
            let tx = Point::new(tx_x, tx_y);
            let reference = aps[picked[0]];
            let anchors: Vec<(Point, f64)> =
                picked[1..].iter().map(|&i| (aps[i], stamp_err_m[i])).collect();
            let diffs = range_diffs_for(tx, reference, stamp_err_m[picked[0]], &anchors);
            let (r, theta) = seed_offset;
            let seed = tx.add(Point::new(r * theta.cos(), r * theta.sin()));
            let cfg = TdoaSolverConfig::default();
            let fast = solve_tdoa(reference, &diffs, seed, &cfg);
            let slow = reference_solve(reference, &diffs, seed, &cfg);
            match (fast, slow) {
                (Ok(f), Ok(s)) => {
                    let gap = f.residual_m - s.residual_m;
                    let on_kink = aps.iter().any(|a| a.dist(f.point) < 1e-6);
                    prop_assert!(
                        gap <= 1e-6 && (on_kink || gap >= -1e-6),
                        "rms {} vs {} (n {n}, tx {tx:?})",
                        f.residual_m,
                        s.residual_m
                    );
                    if n >= 5 {
                        prop_assert!(
                            f.point.dist(s.point) <= 1e-3,
                            "fix {:?} vs {:?} (n {n}, tx {tx:?})",
                            f.point,
                            s.point
                        );
                    }
                }
                (Err(_), Err(_)) => {}
                (f, s) => prop_assert!(
                    false,
                    "verdicts differ: {f:?} vs {s:?} (n {n}, tx {tx:?})"
                ),
            }
        }
    }
}
