//! The estimation-throughput benchmark and its CI regression gate
//! (`BENCH_throughput.json`).
//!
//! Measures the sweep pipeline's hot path on a fixed N=8 client
//! population (the engine-scenario distances, TRACK-style 12-band
//! subsets and full-plan ACQUIRE sweeps) in three ways:
//!
//! * `solver_reference` — a literal transcription of the **pre-refactor**
//!   ISTA inner loop: dense forward operator, fresh `Vec`s every
//!   iteration. This is the recorded pre-refactor baseline the pipeline
//!   must beat.
//! * `solver_pipeline` — [`chronos_core::ista::solve_planned_into`] over
//!   a warm scratch (the lane-chunked SoA kernels: support-restricted
//!   forward, fused prox step, the polyphase adjoint on raster plans).
//!   Its `speedup_x` against the reference is the headline acceptance
//!   metric (must stay ≥ 3.0×).
//! * `fix_estimate` / `fix_pipeline` — the end-to-end products → ToF
//!   path through a fresh [`chronos_core::pipeline::SweepPipeline`] per
//!   call vs a warm one; the warm row must report **0 allocs/sweep**.
//! * `fix_pool_w{1,2,4}` — steady-state fix sweeps spread by
//!   [`chronos_core::WorkerRuntime::run`] over 1/2/4 caller-owned
//!   lanes, each a warm [`chronos_core::pipeline::SweepPipeline`]; every
//!   batch runs the caller's lane plus scoped threads for the rest. The
//!   pool rows' alloc column counts the allocation events of the items
//!   themselves, on every lane (via the
//!   [`chronos_core::runtime::set_alloc_probe`] hook), and must stay 0.
//!
//! Wall-clock rates are hardware-dependent, so the regression gate
//! ([`check_throughput_regression`]) gates the *ratios* (`speedup_x`)
//! and the deterministic `allocs_per_sweep` counters; absolute
//! `sweeps_per_sec` columns are informational.
//!
//! Allocation counters only advance when the running binary installs
//! [`crate::alloc_count::CountingAlloc`] as its global allocator (the
//! `bench_throughput` binary does).

use crate::alloc_count::thread_allocations;
use crate::report::Table;
use chronos_core::config::ChronosConfig;
use chronos_core::ista::{solve_planned_into, sparsify, IstaConfig, IstaScratch};
use chronos_core::ndft::TauGrid;
use chronos_core::pipeline::SweepPipeline;
use chronos_core::plan::{NdftPlan, PlanCache};
use chronos_core::reciprocity::BandProduct;
use chronos_core::runtime::WorkerRuntime;
use chronos_core::tof::{genie_product, TofEstimator};
use chronos_math::constants::m_to_ns;
use chronos_math::cvec;
use chronos_math::Complex64;
use chronos_rf::bands::band_plan_5ghz;
use chronos_rf::subset::select_subset;
use std::sync::Arc;
use std::time::Instant;

/// Clients in the fixed population (matches the engine throughput
/// scenario: distances `2.0 + 0.75 i`).
pub const N_CLIENTS: usize = 8;

/// TRACK-mode subset size (the ambiguity knee, see `docs/TRACKING.md`).
pub const SUBSET_BANDS: usize = 12;

/// The headline acceptance floor: the scratch solver must deliver at
/// least this many times the pre-refactor reference's sweeps/s.
/// Re-baselined from 1.2× when the lane-chunked SoA kernels landed.
pub const MIN_SOLVER_SPEEDUP: f64 = 3.0;

/// Headers of the `BENCH_throughput` table, in column order.
pub const THROUGHPUT_HEADERS: [&str; 7] = [
    "case",
    "rounds",
    "clients",
    "workers",
    "sweeps_per_sec",
    "allocs_per_sweep",
    "speedup_x",
];

/// One client's deterministic path set: direct path at the engine
/// distance plus a weaker reflection 5 ns later.
fn client_paths(i: usize) -> [(f64, f64); 2] {
    let tau = m_to_ns(2.0 + 0.75 * i as f64);
    [(tau, 1.0), (tau + 5.0, 0.4)]
}

fn products_for(freqs: &[chronos_rf::bands::Band], i: usize) -> Vec<BandProduct> {
    freqs
        .iter()
        .map(|b| genie_product(b.center_hz, &client_paths(i), 2.0))
        .collect()
}

/// The pre-refactor solver, transcribed: dense forward/adjoint over a
/// locally materialized operator matrix, a fresh `Vec` per intermediate
/// per iteration, `clone()`-based FISTA extrapolation. Kept in the bench
/// crate as the recorded baseline the pipeline is gated against; its
/// solutions are asserted to match the pipeline's within the solver's
/// tolerance contract.
struct DenseReference {
    n: usize,
    m: usize,
    mat: Vec<Complex64>,
}

impl DenseReference {
    fn new(freqs_hz: &[f64], grid: TauGrid) -> Self {
        let mut mat = Vec::with_capacity(freqs_hz.len() * grid.len);
        for f in freqs_hz {
            for k in 0..grid.len {
                let tau_s = grid.tau_at(k) * 1e-9;
                mat.push(Complex64::cis(-2.0 * std::f64::consts::PI * f * tau_s));
            }
        }
        DenseReference {
            n: freqs_hz.len(),
            m: grid.len,
            mat,
        }
    }

    fn forward(&self, p: &[Complex64]) -> Vec<Complex64> {
        self.mat
            .chunks_exact(self.m)
            .map(|row| {
                let mut acc = Complex64::ZERO;
                for (a, b) in row.iter().zip(p.iter()) {
                    acc += *a * *b;
                }
                acc
            })
            .collect()
    }

    fn adjoint(&self, h: &[Complex64]) -> Vec<Complex64> {
        let mut out = vec![Complex64::ZERO; self.m];
        for (row, hi) in self.mat.chunks_exact(self.m).zip(h.iter()) {
            for (o, a) in out.iter_mut().zip(row.iter()) {
                *o += a.conj() * *hi;
            }
        }
        out
    }

    fn solve(&self, h: &[Complex64], cfg: &IstaConfig, op_norm: f64) -> Vec<Complex64> {
        assert_eq!(h.len(), self.n);
        let op_norm = op_norm.max(1e-12);
        let gamma = 1.0 / (2.0 * op_norm * op_norm);
        let atb = self.adjoint(h);
        let alpha = cfg.alpha_rel * cvec::norm_inf(&atb) * 2.0;
        let thresh = gamma * alpha;
        let mut p = vec![Complex64::ZERO; self.m];
        let mut y = p.clone();
        let mut t_momentum = 1.0f64;
        for _ in 0..cfg.max_iters {
            let fy = self.forward(&y);
            let mut resid = fy;
            for (r, hi) in resid.iter_mut().zip(h.iter()) {
                *r -= *hi;
            }
            let grad = self.adjoint(&resid);
            let mut next: Vec<Complex64> = y
                .iter()
                .zip(grad.iter())
                .map(|(yi, gi)| *yi - gi.scale(2.0 * gamma))
                .collect();
            sparsify(&mut next, thresh);
            let delta = cvec::dist2(&next, &p);
            let scale = cvec::norm2(&p) + 1.0;
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
                break;
            }
        }
        p
    }
}

/// One measured case.
#[derive(Debug, Clone)]
pub struct ThroughputCase {
    /// Row key.
    pub name: &'static str,
    /// Total concurrency of the case (1 for the inline rows; the lanes
    /// of the pool rows).
    pub workers: usize,
    /// Completed estimation sweeps per second of wall time.
    pub sweeps_per_sec: f64,
    /// Allocation events per sweep (counting allocator; 0 when the
    /// binary does not install it). Pool rows count the items' own
    /// events on every lane through the runtime's alloc probe instead.
    pub allocs_per_sweep: f64,
    /// Rate relative to this case's baseline counterpart, if any.
    pub speedup_x: Option<f64>,
}

/// Times `sweeps` invocations of `body`, returning (sweeps/s,
/// allocs/sweep).
fn measure(sweeps: usize, mut body: impl FnMut(usize)) -> (f64, f64) {
    let a0 = thread_allocations();
    let t0 = Instant::now();
    for i in 0..sweeps {
        body(i);
    }
    let dt = t0.elapsed().as_secs_f64();
    let allocs = (thread_allocations() - a0) as f64 / sweeps as f64;
    (sweeps as f64 / dt.max(1e-9), allocs)
}

/// Runs every case for `rounds` rounds of the N=8 population and returns
/// them in table order.
pub fn throughput_cases(rounds: usize) -> Vec<ThroughputCase> {
    let plan_5g = band_plan_5ghz();
    let subset = select_subset(&plan_5g, SUBSET_BANDS, 100.0);
    let subset_freqs: Vec<f64> = subset.iter().map(|b| b.center_hz).collect();
    let config = ChronosConfig::ideal();
    let grid = TauGrid::span(config.grid_span_ns, config.grid_step_ns);
    let cache = Arc::new(PlanCache::new());
    let estimator = TofEstimator::with_cache(config.clone(), Arc::clone(&cache));
    let ista_cfg = IstaConfig {
        alpha_rel: config.alpha_rel,
        max_iters: config.max_iters,
        epsilon: config.epsilon,
        accelerated: config.accelerated,
    };

    // Per-client TRACK-subset channels (squared-channel genie products)
    // and the shared NDFT plan, prepared outside every timed region.
    let track_products: Vec<Vec<BandProduct>> =
        (0..N_CLIENTS).map(|i| products_for(&subset, i)).collect();
    let track_channels: Vec<Vec<Complex64>> = track_products
        .iter()
        .map(|ps| ps.iter().map(|p| p.value).collect())
        .collect();
    let acquire_products: Vec<Vec<BandProduct>> =
        (0..N_CLIENTS).map(|i| products_for(&plan_5g, i)).collect();
    let plan: Arc<NdftPlan> = cache.ndft_plan(&subset_freqs, grid, config.grid_span_ns);
    let reference = DenseReference::new(&subset_freqs, grid);
    let mut scratch = IstaScratch::new();

    // The reference must agree with the pipeline solver on every client
    // channel — the baseline is only meaningful if it computes the same
    // solution. The lane kernels reassociate their sums, so agreement
    // is the solver's tolerance contract (docs/PIPELINE.md): within
    // 1e-6 of the profile peak.
    for h in &track_channels {
        let want = reference.solve(h, &ista_cfg, plan.op_norm);
        solve_planned_into(&plan, h, &ista_cfg, &mut scratch);
        assert_eq!(want.len(), scratch.solution().len());
        let peak = want.iter().map(|c| c.abs()).fold(0.0f64, f64::max);
        for (a, b) in want.iter().zip(scratch.solution().iter()) {
            let drift = (*a - *b).abs();
            assert!(
                drift <= 1e-6 * peak.max(1e-12),
                "pipeline solver drifted from reference: {a} vs {b} (drift {drift:.3e})"
            );
        }
    }

    let sweeps = rounds * N_CLIENTS;
    let mut cases = Vec::new();

    // 1 + 2. Pre-refactor solver baseline (dense operator, per-iteration
    // Vecs) vs the warm scratch solver, measured *paired*: the two
    // solvers alternate call-by-call over the same channels, and each
    // (solver, client) pair keeps its *minimum* time over the rounds.
    // Pairing puts bursty host contention (shared CI runners, noisy
    // neighbors) on both sides of the ratio instead of whichever case
    // happened to be in its timing window; the per-pair minimum then
    // discards the bursts a single call absorbed outright, since a
    // burst can't make a deterministic solve *faster*. The headline
    // `speedup_x` stays stable even when the absolute sweeps/s columns
    // (also reported from the minima) wobble with load.
    let mut t_ref_min = [f64::INFINITY; N_CLIENTS];
    let mut t_pipe_min = [f64::INFINITY; N_CLIENTS];
    let mut ref_alloc_events = 0u64;
    let paired_a0 = thread_allocations();
    for i in 0..sweeps {
        let c = i % N_CLIENTS;
        let h = &track_channels[c];
        let a0 = thread_allocations();
        let t0 = Instant::now();
        std::hint::black_box(reference.solve(h, &ista_cfg, plan.op_norm));
        t_ref_min[c] = t_ref_min[c].min(t0.elapsed().as_secs_f64());
        ref_alloc_events += thread_allocations() - a0;
        let t1 = Instant::now();
        std::hint::black_box(solve_planned_into(&plan, h, &ista_cfg, &mut scratch));
        t_pipe_min[c] = t_pipe_min[c].min(t1.elapsed().as_secs_f64());
    }
    let pipe_alloc_events = thread_allocations() - paired_a0 - ref_alloc_events;
    let ref_rate = N_CLIENTS as f64 / t_ref_min.iter().sum::<f64>().max(1e-9);
    let pipe_rate = N_CLIENTS as f64 / t_pipe_min.iter().sum::<f64>().max(1e-9);
    cases.push(ThroughputCase {
        name: "solver_reference",
        workers: 1,
        sweeps_per_sec: ref_rate,
        allocs_per_sweep: ref_alloc_events as f64 / sweeps as f64,
        speedup_x: None,
    });
    cases.push(ThroughputCase {
        name: "solver_pipeline",
        workers: 1,
        sweeps_per_sec: pipe_rate,
        allocs_per_sweep: pipe_alloc_events as f64 / sweeps as f64,
        speedup_x: Some(pipe_rate / ref_rate),
    });

    // 3. End-to-end products → estimate through a fresh pipeline per
    // call (a cold scratch arena every time — what a naive integration
    // pays).
    let (est_rate, est_allocs) = measure(sweeps, |i| {
        let ps = &track_products[i % N_CLIENTS];
        std::hint::black_box(
            SweepPipeline::new()
                .estimate_from_products(&estimator, ps)
                .expect("estimate"),
        );
    });
    cases.push(ThroughputCase {
        name: "fix_estimate",
        workers: 1,
        sweeps_per_sec: est_rate,
        allocs_per_sweep: est_allocs,
        speedup_x: None,
    });

    // 4. End-to-end products → fix through a warm pipeline's
    // allocation-free fix call on TRACK subsets. Must be
    // allocation-free. (No gated speedup on this row: the cold pipeline
    // runs the same scratch solver, so the ratio hovers near 1 and would
    // only gate on timing noise — the allocs column is this row's
    // contract.)
    let mut pipeline = SweepPipeline::new();
    for ps in &track_products {
        pipeline.estimate_fix(&estimator, ps).expect("warmup"); // warm the arena
    }
    let (fix_rate, fix_allocs) = measure(sweeps, |i| {
        let ps = &track_products[i % N_CLIENTS];
        std::hint::black_box(pipeline.estimate_fix(&estimator, ps).expect("fix"));
    });
    cases.push(ThroughputCase {
        name: "fix_pipeline",
        workers: 1,
        sweeps_per_sec: fix_rate,
        allocs_per_sweep: fix_allocs,
        speedup_x: None,
    });

    // 5. ACQUIRE full-plan sweeps through the same warm pipeline (the
    // buffers grow once to the full-plan size, then stay put).
    let acquire_rounds = rounds.div_ceil(2);
    for ps in &acquire_products {
        pipeline.estimate_fix(&estimator, ps).expect("warmup");
    }
    let (acq_rate, acq_allocs) = measure(acquire_rounds * N_CLIENTS, |i| {
        let ps = &acquire_products[i % N_CLIENTS];
        std::hint::black_box(pipeline.estimate_fix(&estimator, ps).expect("fix"));
    });
    cases.push(ThroughputCase {
        name: "acquire_pipeline",
        workers: 1,
        sweeps_per_sec: acq_rate,
        allocs_per_sweep: acq_allocs,
        speedup_x: None,
    });

    // 6. Steady-state fix sweeps spread over 1/2/4 lanes (the
    // worker-scaling column): the same products → ToF path as
    // `fix_pipeline`, run on whichever lane pulls it. The alloc column
    // reads the runtime's probe around every item on every lane: after
    // warm-up each lane owns a grown arena, so it must report 0. No
    // gated speedup — wall-clock scaling is hardware-dependent (CI may
    // pin a single core); the workers column plus sweeps/s documents it.
    let fix = |pipeline: &mut SweepPipeline, products: &Vec<BandProduct>| {
        pipeline
            .estimate_fix(&estimator, products)
            .expect("pool fix")
    };
    for (name, lanes) in [
        ("fix_pool_w1", 1usize),
        ("fix_pool_w2", 2),
        ("fix_pool_w4", 4),
    ] {
        let mut pipelines: Vec<SweepPipeline> = (0..lanes).map(|_| SweepPipeline::new()).collect();
        // Warm every lane's arena on every client shape (peak/grouping
        // scratch is data-dependent), so no one-time growth lands in
        // the timed loop whichever lane pulls which item.
        for pipeline in &mut pipelines {
            for products in &track_products {
                std::hint::black_box(fix(pipeline, products));
            }
        }
        let (rate, allocs) = if lanes == 1 {
            // Inline baseline: the same items on the caller alone.
            measure(sweeps, |i| {
                std::hint::black_box(fix(&mut pipelines[0], &track_products[i % N_CLIENTS]));
            })
        } else {
            let pool = WorkerRuntime::new(lanes - 1);
            let t0 = Instant::now();
            for _ in 0..rounds {
                std::hint::black_box(pool.run(&track_products, &mut pipelines, fix));
            }
            let dt = t0.elapsed().as_secs_f64();
            (
                sweeps as f64 / dt.max(1e-9),
                pool.worker_allocations() as f64 / sweeps as f64,
            )
        };
        cases.push(ThroughputCase {
            name,
            workers: lanes,
            sweeps_per_sec: rate,
            allocs_per_sweep: allocs,
            speedup_x: None,
        });
    }

    cases
}

/// Runs the benchmark and tabulates the regression metrics (the
/// `BENCH_throughput.json` payload).
pub fn throughput_table(rounds: usize) -> Table {
    let mut table = Table::new("BENCH_throughput", &THROUGHPUT_HEADERS);
    for case in throughput_cases(rounds) {
        table.row(&[
            case.name.to_string(),
            format!("{rounds}"),
            format!("{N_CLIENTS}"),
            format!("{}", case.workers),
            format!("{:.1}", case.sweeps_per_sec),
            format!("{:.1}", case.allocs_per_sweep),
            case.speedup_x
                .map(|s| format!("{s:.3}"))
                .unwrap_or_default(),
        ]);
    }
    table
}

/// Compares a fresh `BENCH_throughput` run against the checked-in
/// baseline.
///
/// Wall-clock columns are hardware-dependent, so the gate covers the
/// portable metrics: `speedup_x` must not regress by more than `tol`
/// (and `solver_pipeline`'s must stay above the absolute
/// [`MIN_SOLVER_SPEEDUP`] floor), **any** `allocs_per_sweep` increase
/// fails, and scenario parameters must match exactly. Returns every
/// violated metric.
pub fn check_throughput_regression(
    current: &Table,
    baseline: &Table,
    tol: f64,
) -> Result<(), Vec<String>> {
    let mut failures = Vec::new();
    for (bi, brow) in baseline.rows.iter().enumerate() {
        let key = brow.first().cloned().unwrap_or_default();
        let Some(ci) = current.row_by_key(&key) else {
            failures.push(format!("case {key:?} missing from current run"));
            continue;
        };
        for param in ["rounds", "clients", "workers"] {
            let (base, cur) = (baseline.cell_f64(bi, param), current.cell_f64(ci, param));
            if base != cur {
                failures.push(format!(
                    "{key}/{param}: scenario parameter {cur:?} != baseline {base:?} — \
                     regenerate the baseline with the same settings CI uses \
                     (scripts/check-bench-regression.sh runs --quick)"
                ));
            }
        }
        if let (Some(base), Some(cur)) = (
            baseline.cell_f64(bi, "allocs_per_sweep"),
            current.cell_f64(ci, "allocs_per_sweep"),
        ) {
            if cur > base + 1e-9 {
                failures.push(format!(
                    "{key}/allocs_per_sweep: {cur:.1} exceeds baseline {base:.1} — \
                     the zero-allocation contract regressed"
                ));
            }
        }
        if let (Some(base), Some(cur)) = (
            baseline.cell_f64(bi, "speedup_x"),
            current.cell_f64(ci, "speedup_x"),
        ) {
            if cur < base * (1.0 - tol) {
                failures.push(format!(
                    "{key}/speedup_x: {cur:.3} regressed below baseline {base:.3} (-{:.0}%)",
                    tol * 100.0
                ));
            }
            if key == "solver_pipeline" && cur < MIN_SOLVER_SPEEDUP {
                failures.push(format!(
                    "{key}/speedup_x: {cur:.3} below the absolute {MIN_SOLVER_SPEEDUP}x \
                     acceptance floor"
                ));
            }
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table(speedup: f64, allocs: f64) -> Table {
        let mut t = Table::new("BENCH_throughput", &THROUGHPUT_HEADERS);
        t.row(&[
            "solver_reference".into(),
            "4".into(),
            "8".into(),
            "1".into(),
            "100.0".into(),
            "1600.0".into(),
            String::new(),
        ]);
        t.row(&[
            "solver_pipeline".into(),
            "4".into(),
            "8".into(),
            "1".into(),
            "340.0".into(),
            format!("{allocs:.1}"),
            format!("{speedup:.3}"),
        ]);
        t
    }

    #[test]
    fn regression_checker_directions() {
        let base = sample_table(3.4, 0.0);
        // Identical run passes.
        assert!(check_throughput_regression(&base.clone(), &base, 0.2).is_ok());
        // Speedup collapse fails (relative).
        let errs = check_throughput_regression(&sample_table(2.0, 0.0), &base, 0.2).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("speedup_x")), "{errs:?}");
        // Any alloc increase fails.
        let errs = check_throughput_regression(&sample_table(3.4, 2.0), &base, 0.2).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("allocs_per_sweep")),
            "{errs:?}"
        );
        // Below the absolute floor fails even within relative tolerance.
        let lenient = sample_table(3.05, 0.0);
        let errs = check_throughput_regression(&sample_table(2.9, 0.0), &lenient, 0.2).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("acceptance floor")),
            "{errs:?}"
        );
        // Missing case fails.
        let empty = Table::new("BENCH_throughput", &THROUGHPUT_HEADERS);
        assert!(check_throughput_regression(&empty, &base, 0.2).is_err());
        // Parameter drift fails (rounds and the worker-scaling column).
        let mut drift = sample_table(3.4, 0.0);
        drift.rows[1][1] = "9".into();
        let errs = check_throughput_regression(&drift, &base, 0.2).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("rounds")), "{errs:?}");
        let mut drift = sample_table(3.4, 0.0);
        drift.rows[1][3] = "2".into();
        let errs = check_throughput_regression(&drift, &base, 0.2).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("workers")), "{errs:?}");
    }

    #[test]
    fn quick_cases_run_and_pipeline_is_allocation_free_capable() {
        // Smoke: one tiny round. (Alloc counters read 0 here because the
        // test harness does not install the counting allocator — the
        // real assertions live in tests/alloc.rs and the bench binary.)
        let cases = throughput_cases(1);
        assert_eq!(cases.len(), 8);
        let solver = cases.iter().find(|c| c.name == "solver_pipeline").unwrap();
        assert!(solver.speedup_x.unwrap() > 1.0, "{:?}", solver);
        // The worker-scaling rows cover 1/2/4-way concurrency.
        let pool_workers: Vec<usize> = cases
            .iter()
            .filter(|c| c.name.starts_with("fix_pool_w"))
            .map(|c| c.workers)
            .collect();
        assert_eq!(pool_workers, vec![1, 2, 4]);
    }
}
