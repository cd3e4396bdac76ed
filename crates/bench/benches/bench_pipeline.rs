//! Full time-of-flight pipeline cost: products -> grouping -> sparse
//! inversion -> first peak, per antenna per sweep. Each call runs on a
//! fresh `SweepPipeline` with no plan cache, so it also pays for building
//! its NDFT plans.

use chronos_core::config::ChronosConfig;
use chronos_core::reciprocity::BandProduct;
use chronos_core::tof::{genie_product, TofEstimate, TofEstimator};
use chronos_core::{ChronosError, SweepPipeline};
use criterion::{criterion_group, criterion_main, Criterion};

fn estimate_cold(
    est: &TofEstimator,
    products: &[BandProduct],
) -> Result<TofEstimate, ChronosError> {
    SweepPipeline::new().estimate_from_products(est, products)
}

fn bench_pipeline(c: &mut Criterion) {
    let paths = [(11.0, 1.0), (16.0, 0.6), (24.0, 0.4)];
    let products_5g: Vec<_> = chronos_rf::bands::band_plan_5ghz()
        .iter()
        .map(|b| genie_product(b.center_hz, &paths, 2.0))
        .collect();
    let mut products_full = products_5g.clone();
    for b in chronos_rf::bands::band_plan_24ghz() {
        products_full.push(genie_product(b.center_hz, &paths, 8.0));
    }

    let mut group = c.benchmark_group("pipeline");
    let est = TofEstimator::new(ChronosConfig::default());
    group.bench_function("estimate_5ghz_only", |b| {
        b.iter(|| std::hint::black_box(estimate_cold(&est, &products_5g)))
    });
    group.bench_function("estimate_with_24ghz_check", |b| {
        b.iter(|| std::hint::black_box(estimate_cold(&est, &products_full)))
    });

    let est_ideal = TofEstimator::new(ChronosConfig::ideal());
    let products_ideal: Vec<_> = chronos_rf::bands::band_plan()
        .iter()
        .map(|b| genie_product(b.center_hz, &paths, 2.0))
        .collect();
    group.bench_function("estimate_ideal_35_bands", |b| {
        b.iter(|| std::hint::black_box(estimate_cold(&est_ideal, &products_ideal)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_pipeline
}
criterion_main!(benches);
