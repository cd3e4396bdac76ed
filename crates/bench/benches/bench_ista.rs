//! Algorithm 1 performance and the ISTA-vs-FISTA ablation (paper §6.2).
//!
//! Every solve runs on a prebuilt `NdftPlan` into one reused scratch, as
//! the estimator does, so the plan's operator norm (40 power-iteration
//! passes) is paid once per plan, outside the timed loop.

use chronos_core::ista::{debias_into, solve_planned_into, DebiasScratch, IstaConfig, IstaScratch};
use chronos_core::ndft::TauGrid;
use chronos_core::plan::NdftPlan;
use chronos_math::Complex64;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::f64::consts::PI;

fn freqs() -> Vec<f64> {
    chronos_rf::bands::band_plan_5ghz()
        .iter()
        .map(|b| b.center_hz)
        .collect()
}

fn measurement(freqs: &[f64]) -> Vec<Complex64> {
    let paths = [(10.4, 1.0), (14.8, 0.7), (22.0, 0.4)];
    freqs
        .iter()
        .map(|f| {
            let mut h = Complex64::ZERO;
            for (tau, a) in paths {
                h += Complex64::from_polar(a, -2.0 * PI * f * tau * 1e-9);
            }
            h
        })
        .collect()
}

fn bench_solver(c: &mut Criterion) {
    let f = freqs();
    let h = measurement(&f);
    let mut scratch = IstaScratch::new();
    let mut group = c.benchmark_group("ista");

    // Grid-size scaling.
    for grid_points in [400usize, 800] {
        let grid = TauGrid {
            start_ns: 0.0,
            step_ns: 200.0 / grid_points as f64,
            len: grid_points,
        };
        let plan = NdftPlan::new(&f, grid, 200.0);
        group.bench_with_input(
            BenchmarkId::new("solve_fista", grid_points),
            &grid_points,
            |b, _| {
                b.iter(|| {
                    std::hint::black_box(solve_planned_into(
                        &plan,
                        &h,
                        &IstaConfig {
                            accelerated: true,
                            ..Default::default()
                        },
                        &mut scratch,
                    ))
                })
            },
        );
    }

    // Ablation: plain ISTA vs FISTA at the default grid.
    let grid = TauGrid {
        start_ns: 0.0,
        step_ns: 0.25,
        len: 800,
    };
    let plan = NdftPlan::new(&f, grid, 200.0);
    group.bench_function("ablation_plain_ista", |b| {
        b.iter(|| {
            std::hint::black_box(solve_planned_into(
                &plan,
                &h,
                &IstaConfig {
                    accelerated: false,
                    ..Default::default()
                },
                &mut scratch,
            ))
        })
    });
    group.bench_function("ablation_fista", |b| {
        b.iter(|| {
            std::hint::black_box(solve_planned_into(
                &plan,
                &h,
                &IstaConfig {
                    accelerated: true,
                    ..Default::default()
                },
                &mut scratch,
            ))
        })
    });

    // Debias cost on top of a solve.
    solve_planned_into(&plan, &h, &IstaConfig::default(), &mut scratch);
    let p = scratch.solution().to_vec();
    let mut ws = DebiasScratch::default();
    let mut out = Vec::new();
    group.bench_function("debias", |b| {
        b.iter(|| {
            debias_into(&plan.ndft, &h, &p, 12, 3, &mut ws, &mut out);
            std::hint::black_box(&out);
        })
    });

    // Sparsity-weight ablation: heavier alpha converges faster.
    for alpha in [0.05f64, 0.12, 0.3] {
        group.bench_with_input(
            BenchmarkId::new("ablation_alpha", format!("{alpha}")),
            &alpha,
            |b, alpha| {
                b.iter(|| {
                    std::hint::black_box(solve_planned_into(
                        &plan,
                        &h,
                        &IstaConfig {
                            alpha_rel: *alpha,
                            ..Default::default()
                        },
                        &mut scratch,
                    ))
                })
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_solver
}
criterion_main!(benches);
