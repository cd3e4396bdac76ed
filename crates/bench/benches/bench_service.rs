//! Multi-client ranging service throughput over a shared `PlanCache` and
//! an arbited medium.
//!
//! Reports, per client count N:
//! * `service_shared/N` — one `ServiceEngine` with one warmed
//!   `PlanCache`, single worker thread;
//! * `service_parallel/N` — the same engine with one worker per core
//!   (adds the scoped-thread inversion win).
//!
//! The same estimator arithmetic runs in both; outputs are identical
//! (see `tests/service.rs` for the equivalence assertions). Only the
//! serialization of independent clients differs.
//!
//! A third variant, `service_adaptive/N`, runs the adaptive scheduler
//! (tracker-driven TRACK-mode subset sweeps) in steady state; besides
//! the host-time numbers, the bench prints the **capacity table** —
//! simulated sweeps per second of airtime, full-sweep vs adaptive — that
//! README's "Adaptive tracking" section quotes. Airtime, not host CPU,
//! is what caps clients-per-AP, so that table is the headline.
//!
//! Finally the bench prints the **epoch-vs-event table**: the lock-step
//! `run_epoch` barrier against the continuous `run_until` engine on a
//! mixed ACQUIRE/TRACK population (half the clients pinned cold), at
//! N ∈ {4, 8, 16}. The barrier makes every TRACK client idle until the
//! slowest ACQUIRE sweep of the round lands; the event engine re-admits
//! them as soon as their subset airtime allows. README's "Continuous
//! sweep engine" section quotes this table.

use chronos_bench::tracking::{capacity_table, mixed_capacity_table, mixed_table};
use chronos_core::config::ChronosConfig;
use chronos_core::engine::ServiceEngine;
use chronos_core::service::ServiceConfig;
use chronos_core::tracker::TrackerConfig;
use chronos_rf::csi::MeasurementContext;
use chronos_rf::environment::Environment;
use chronos_rf::geometry::Point;
use chronos_rf::hardware::{ideal_device, AntennaArray};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn client_ctx(i: usize) -> MeasurementContext {
    let mut ctx = MeasurementContext::new(
        Environment::free_space(),
        ideal_device(AntennaArray::single()),
        Point::new(0.0, 0.0),
        ideal_device(AntennaArray::laptop()),
        Point::new(2.0 + 0.7 * i as f64, 0.5 * i as f64),
    );
    ctx.snr.snr_at_1m_db = 55.0;
    ctx
}

fn shared_service(n: usize, threads: usize) -> ServiceEngine {
    let cfg = ServiceConfig {
        threads,
        ..Default::default()
    };
    let mut svc = ServiceEngine::new(cfg);
    for i in 0..n {
        let id = svc.join(client_ctx(i), ChronosConfig::ideal());
        svc.session_mut(id).sweep_cfg.medium.loss_prob = 0.0;
    }
    // Warm the cache once so steady-state throughput is measured (the
    // first epoch pays the one-time plan construction).
    svc.run_epoch(0xC0FFEE);
    svc
}

fn adaptive_service(n: usize) -> ServiceEngine {
    let mut svc = ServiceEngine::new(ServiceConfig::adaptive(TrackerConfig::default()));
    for i in 0..n {
        let id = svc.join(client_ctx(i), ChronosConfig::ideal());
        svc.session_mut(id).sweep_cfg.medium.loss_prob = 0.0;
    }
    // Warm the cache AND converge every tracker into TRACK mode so the
    // bench measures adaptive steady state (subset sweeps).
    for e in 0..3 {
        svc.run_epoch(0xC0FFEE + e);
    }
    svc
}

fn bench_service(c: &mut Criterion) {
    let mut group = c.benchmark_group("service");
    for n in [1usize, 2, 4, 8] {
        let mut svc1 = shared_service(n, 1);
        group.bench_with_input(BenchmarkId::new("service_shared", n), &n, |b, _| {
            b.iter(|| std::hint::black_box(svc1.run_epoch(42).completed()))
        });

        let mut svcp = shared_service(n, 0);
        group.bench_with_input(BenchmarkId::new("service_parallel", n), &n, |b, _| {
            b.iter(|| std::hint::black_box(svcp.run_epoch(42).completed()))
        });

        let mut svca = adaptive_service(n);
        group.bench_with_input(BenchmarkId::new("service_adaptive", n), &n, |b, _| {
            b.iter(|| std::hint::black_box(svca.run_epoch(42).completed()))
        });

        let stats = svcp.plans().stats();
        println!(
            "  [n={n}] plan cache: {} NDFT plans resident, hit rate {:.1}%",
            stats.ndft_entries,
            100.0 * stats.hit_rate()
        );
    }
    group.finish();

    // The capacity figure an AP operator cares about is simulated
    // *airtime* throughput, not host time: print the full-vs-adaptive
    // table (README quotes this).
    println!("\n  capacity (simulated airtime): sweeps/s, full vs adaptive steady state");
    println!(
        "  {:>8} {:>10} {:>10} {:>8} {:>12} {:>12}",
        "clients", "full", "adaptive", "gain", "full MAE", "track MAE"
    );
    for row in capacity_table(&[1, 2, 4, 8], 10, 42) {
        println!(
            "  {:>8} {:>10.1} {:>10.1} {:>7.1}x {:>10.3} m {:>10.3} m",
            row.n_clients,
            row.full_sweeps_per_sec,
            row.adaptive_sweeps_per_sec,
            row.adaptive_sweeps_per_sec / row.full_sweeps_per_sec.max(1e-9),
            row.full_mae_m,
            row.adaptive_mae_m,
        );
    }

    // Epoch barrier vs continuous event engine on a mixed population
    // (half pinned ACQUIRE, half TRACK; 8 interleaved hoppers allowed).
    println!("\n  epoch barrier vs event engine (mixed ACQUIRE/TRACK, sweeps/s of simulated time)");
    println!(
        "{}",
        mixed_table(&mixed_capacity_table(&[4, 8, 16], 42)).render()
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_service
}
criterion_main!(benches);
