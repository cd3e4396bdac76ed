//! Fleet capacity benchmark: synchronized one-way TDoA versus per-AP
//! round-trip sweeps at 16 APs with a roaming population.
//!
//! Backs `bin/bench_fleet`, the checked-in `BENCH_fleet.json` baseline
//! (fifth gate in `scripts/check-bench-regression.sh`) and the capacity
//! table in the README. The scenario: a 4×4 AP grid (20 m cells, one
//! `MediumArbiter` each), a city-size population of 1000 deterministic
//! walkers bouncing across cells, and the *same* population run twice —
//! once in [`FleetRangingMode::RoundTrip`] (every fix is a per-AP band
//! sweep), once in [`FleetRangingMode::Tdoa`] (every fix is one blast
//! timestamped fleet-wide). The `ratio_tdoa_over_roundtrip` row records
//! the headline claim the ISSUE pins: ≥ 2× fixes/s per client at
//! ≤ 1.5× the cross-AP position error. [`fleet_table`] asserts both, so
//! a committed baseline always satisfies them.
//!
//! The `fleet_shard_w{1,2,4}` rows measure the shard-parallel window
//! driver in the PR-9 throughput methodology: paired rounds (every
//! worker config measured once per round) min-filtered per config, with
//! the serial loop (`w1`) as the speedup denominator. Wall-clock
//! speedup is informational — CI hosts vary in core count — but the
//! rows' stats columns and the `worker_allocs = 0` gate are exact, and
//! the table builder asserts every config's reports digest-identical
//! before a baseline can be written. `worker_allocs` reads the fleet
//! runtime's counted items; shard windows run uncounted and shards sweep
//! inline, so the gate pins that no fleet sweep runs as a counted pool
//! item (it does not measure the estimation span inside the sweeps).
//!
//! Determinism: walkers move as a pure function of (index, window);
//! both fleet modes inherit the engine seeding contract, so identical
//! seeds replay identical tables and the regression gate trips on real
//! drift, not noise. Worker counts never change results — only wall
//! clock — per the fleet's one-level parallelism contract
//! (`docs/FLEET.md`).

use crate::report::Table;
use chronos_core::config::ChronosConfig;
use chronos_core::fleet::{FleetConfig, FleetEngine, FleetRangingMode, FleetWindowReport};
use chronos_core::tracker::TrackerConfig;
use chronos_link::time::Duration;
use chronos_rf::environment::Environment;
use chronos_rf::geometry::Point;
use chronos_rf::testbed::ap_grid;

/// APs on the grid (4×4).
pub const FLEET_APS: usize = 16;

/// Grid cell pitch, meters.
pub const AP_SPACING_M: f64 = 20.0;

/// Roaming clients (the ROADMAP's city-size target: ~62 per AP).
pub const FLEET_CLIENTS: usize = 1000;

/// Workers pinned for the headline mode rows (4-way shard concurrency
/// with the fleet driver's own lane). Pinned — not host-auto —
/// so every machine runs the identical execution strategy; reports are
/// bitwise worker-count-invariant anyway, so this only affects wall
/// clock.
pub const FLEET_POOL_WORKERS: usize = 3;

/// Walker ground speed, m/s. High for a pedestrian on purpose: windows
/// are short, and the bench needs cell crossings (handoffs) within a
/// few seconds of simulated time.
pub const WALKER_SPEED_MPS: f64 = 6.0;

/// Table headers; first column is the regression-gate row key. The gate
/// ([`crate::cli::check_exact`]) holds every numeric column to the
/// baseline exactly — which is how `worker_allocs` gates the
/// steady-state shard path at 0 and `workers` pins each row's execution
/// strategy. `speedup_vs_serial` is rendered with an `x` suffix, so the
/// gate skips it (informational: CI hosts vary in core count).
pub const FLEET_HEADERS: [&str; 12] = [
    "scenario",
    "aps",
    "clients",
    "windows",
    "workers",
    "fix_rate_per_client",
    "median_err_m",
    "p90_err_m",
    "handoffs",
    "handoff_gap_sweeps",
    "worker_allocs",
    "speedup_vs_serial",
];

/// The estimator settings fleet round-trip sweeps use: the coarse grid
/// shared with `tests/engine.rs` and the soak bench, so the debug-mode
/// test tier stays fast while release benches measure the same
/// pipeline.
pub fn fleet_chronos() -> ChronosConfig {
    ChronosConfig {
        max_iters: 120,
        grid_step_ns: 0.5,
        ..ChronosConfig::ideal()
    }
}

/// Walker `i`'s position after `windows` completed windows of length
/// `window_s`: a constant-velocity bounce inside the fleet's bounding
/// box. Pure function — both fleet modes see the identical trajectory.
pub fn walker_at(i: usize, windows: usize, window_s: f64) -> Point {
    let extent = ((FLEET_APS as f64).sqrt().ceil() - 1.0) * AP_SPACING_M;
    // Start scattered over the grid, headings spread over the circle.
    let fx = (i as f64 * 0.537_228).fract();
    let fy = (i as f64 * 0.754_878).fract();
    let heading = i as f64 * 2.399_963; // golden-angle spread
    let t = windows as f64 * window_s;
    let bounce = |x0: f64, v: f64| {
        // Reflective boundary on [0, extent] via the triangle wave of
        // the unfolded coordinate.
        let period = 2.0 * extent;
        let u = (x0 + v * t).rem_euclid(period);
        if u <= extent {
            u
        } else {
            period - u
        }
    };
    Point::new(
        bounce(fx * extent, WALKER_SPEED_MPS * heading.cos()),
        bounce(fy * extent, WALKER_SPEED_MPS * heading.sin()),
    )
}

/// Parameters of one fleet comparison run.
#[derive(Debug, Clone, Copy)]
pub struct FleetScenarioConfig {
    /// Master seed.
    pub seed: u64,
    /// Continuous windows to run.
    pub windows: usize,
    /// Length of each window, seconds.
    pub window_s: f64,
}

impl FleetScenarioConfig {
    /// The gate scenario: `--quick` runs 3×200 ms windows, the full
    /// bench 8×250 ms.
    pub fn standard(seed: u64, quick: bool) -> Self {
        if quick {
            FleetScenarioConfig {
                seed,
                windows: 3,
                window_s: 0.2,
            }
        } else {
            FleetScenarioConfig {
                seed,
                windows: 8,
                window_s: 0.25,
            }
        }
    }
}

/// Accumulated metrics of one mode's run.
#[derive(Debug, Clone)]
pub struct FleetRunStats {
    /// Successful raw fixes across all windows.
    pub fixes: usize,
    /// Fixes per second per client over the whole run.
    pub fix_rate_per_client: f64,
    /// Median raw-fix error, meters.
    pub median_err_m: f64,
    /// 90th-percentile raw-fix error, meters.
    pub p90_err_m: f64,
    /// Total handoffs.
    pub handoffs: usize,
    /// Total post-handoff re-ACQUIRE sweeps.
    pub handoff_gap_sweeps: usize,
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// One mode run's full result: folded stats plus the measurement
/// side-channels the scaling rows need.
#[derive(Debug, Clone)]
pub struct FleetModeRun {
    /// Folded per-window metrics.
    pub stats: FleetRunStats,
    /// Host wall clock over the window loop (construction and
    /// population excluded; the first window builds the NDFT plans).
    pub wall_s: f64,
    /// Allocation events of counted runtime items after the first
    /// window — the counter the gate pins at 0 (0 also when the fleet
    /// has no runtime). Always 0 when the bench binary's alloc probe is
    /// not installed (e.g. under `cargo test`).
    pub worker_allocs: u64,
    /// FNV-1a digest of everything deterministic in the window reports
    /// (outcome streams, utilization bits, handoff/sync and plan-cache
    /// accounting; wall clock excluded). Equal digests across worker
    /// counts is the bitwise-identity claim.
    pub digest: u64,
}

/// Folds the deterministic content of a run's reports into one FNV-1a
/// digest (see [`FleetModeRun::digest`]).
fn digest_reports(reports: &[FleetWindowReport]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut put = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for r in reports {
        put(r.started.as_nanos());
        put(r.ended.as_nanos());
        put(r.handoffs as u64);
        put(r.handoff_gap_sweeps as u64);
        put(r.sync_rounds as u64);
        put(r.n_clients as u64);
        for sr in &r.shard_reports {
            put(sr.utilization.to_bits());
            put(sr.cache.hits);
            put(sr.cache.misses);
            put(sr.bands_planned as u64);
            for o in &sr.outcomes {
                put(o.client as u64);
                put(o.sweep);
                put(o.started.as_nanos());
                put(o.finished.as_nanos());
                put(o.distance_m.unwrap_or(f64::NAN).to_bits());
                put(o.pos_error_m.unwrap_or(f64::NAN).to_bits());
            }
        }
        for o in &r.tdoa_outcomes {
            put(o.client as u64);
            put(o.blast);
            put(o.at.as_nanos());
            put(o.pos_error_m.unwrap_or(f64::NAN).to_bits());
        }
    }
    h
}

/// Runs one mode over the standard roaming population with the given
/// [`FleetConfig::workers`] strategy and folds the per-window reports
/// into run-level stats plus wall/alloc/digest measurements.
pub fn run_fleet_mode(
    cfg: &FleetScenarioConfig,
    mode: FleetRangingMode,
    workers: Option<usize>,
) -> FleetModeRun {
    let mut fleet_cfg = FleetConfig::position(TrackerConfig::default(), mode);
    fleet_cfg.chronos = fleet_chronos();
    fleet_cfg.workers = workers;
    let mut fleet = FleetEngine::new(
        fleet_cfg,
        Environment::free_space(),
        ap_grid(FLEET_APS, AP_SPACING_M),
    );
    for i in 0..FLEET_CLIENTS {
        fleet.add_client(walker_at(i, 0, cfg.window_s));
    }
    let pool_allocs = |fleet: &FleetEngine| {
        fleet
            .runtime()
            .map(|rt| rt.worker_allocations())
            .unwrap_or(0)
    };
    let started = std::time::Instant::now();
    let mut allocs_warm = 0u64;
    let mut reports: Vec<FleetWindowReport> = Vec::with_capacity(cfg.windows);
    for w in 0..cfg.windows {
        for i in 0..FLEET_CLIENTS {
            fleet.set_client_pos(i, walker_at(i, w, cfg.window_s));
        }
        reports.push(fleet.run_window(cfg.seed, Duration::from_secs_f64(cfg.window_s)));
        if w == 0 {
            // Window 0 sizes every pipeline's scratch; the steady-state
            // alloc gate starts after it.
            allocs_warm = pool_allocs(&fleet);
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    let worker_allocs = pool_allocs(&fleet).saturating_sub(allocs_warm);
    let fixes: usize = reports.iter().map(|r| r.fixes()).sum();
    let mut errs: Vec<f64> = reports.iter().flat_map(|r| r.pos_errors_m()).collect();
    errs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    assert!(!errs.is_empty(), "fleet run produced no fixes");
    let span_s = cfg.windows as f64 * cfg.window_s;
    FleetModeRun {
        stats: FleetRunStats {
            fixes,
            fix_rate_per_client: fixes as f64 / span_s / FLEET_CLIENTS as f64,
            median_err_m: percentile(&errs, 0.50),
            p90_err_m: percentile(&errs, 0.90),
            handoffs: reports.iter().map(|r| r.handoffs).sum(),
            handoff_gap_sweeps: reports.iter().map(|r| r.handoff_gap_sweeps).sum(),
        },
        wall_s,
        worker_allocs,
        digest: digest_reports(&reports),
    }
}

/// The shard-scaling ladder: row name and the [`FleetConfig::workers`]
/// value it pins. `w1` is the strictly serial shard loop; `wN` means
/// N-way shard concurrency (N−1 workers plus the fleet driver's own
/// lane).
pub const SHARD_SCALING: [(&str, usize); 3] = [
    ("fleet_shard_w1", 0),
    ("fleet_shard_w2", 1),
    ("fleet_shard_w4", 3),
];

/// Builds the `BENCH_fleet` table: one row per mode, the ratio row, and
/// the paired min-filtered shard-scaling rows. Asserts the capacity
/// claim (TDoA ≥ 2× fixes/s per client at ≤ 1.5× the position error)
/// and the shard-parallelism claim (bitwise-identical reports across
/// worker counts) so a generated baseline always embodies both.
pub fn fleet_table(seed: u64, quick: bool) -> Table {
    let cfg = FleetScenarioConfig::standard(seed, quick);
    let rt = run_fleet_mode(&cfg, FleetRangingMode::RoundTrip, Some(FLEET_POOL_WORKERS));
    let td = run_fleet_mode(&cfg, FleetRangingMode::Tdoa, Some(FLEET_POOL_WORKERS));
    let rate_ratio = td.stats.fix_rate_per_client / rt.stats.fix_rate_per_client;
    let err_ratio = td.stats.median_err_m / rt.stats.median_err_m;
    assert!(
        rate_ratio >= 2.0,
        "TDoA fix-rate advantage collapsed: {rate_ratio:.2}x"
    );
    assert!(
        err_ratio <= 1.5,
        "TDoA error exceeded 1.5x round-trip: {err_ratio:.2}x"
    );
    let mut table = Table::new("BENCH_fleet", &FLEET_HEADERS);
    let mut mode_row = |name: &str, r: &FleetModeRun| {
        table.row(&[
            name.into(),
            format!("{FLEET_APS}"),
            format!("{FLEET_CLIENTS}"),
            format!("{}", cfg.windows),
            format!("{FLEET_POOL_WORKERS}"),
            format!("{:.3}", r.stats.fix_rate_per_client),
            format!("{:.3}", r.stats.median_err_m),
            format!("{:.3}", r.stats.p90_err_m),
            format!("{}", r.stats.handoffs),
            format!("{}", r.stats.handoff_gap_sweeps),
            format!("{}", r.worker_allocs),
            "-".into(),
        ]);
    };
    mode_row("roundtrip", &rt);
    mode_row("tdoa", &td);
    table.row(&[
        "ratio_tdoa_over_roundtrip".into(),
        format!("{FLEET_APS}"),
        format!("{FLEET_CLIENTS}"),
        format!("{}", cfg.windows),
        format!("{FLEET_POOL_WORKERS}"),
        format!("{rate_ratio:.3}"),
        format!("{err_ratio:.3}"),
        format!("{:.3}", td.stats.p90_err_m / rt.stats.p90_err_m),
        "0".into(),
        "0".into(),
        "0".into(),
        "-".into(),
    ]);

    // Shard-scaling rows (PR-9 throughput methodology): paired rounds —
    // every config measured once per round, so host noise hits all of
    // them alike — then min-filtered per config. Shorter window count
    // than the mode rows: these rows measure execution strategy, not
    // the capacity claim.
    let scale_cfg = FleetScenarioConfig {
        seed,
        windows: if quick { 2 } else { 3 },
        window_s: cfg.window_s,
    };
    let rounds = if quick { 2 } else { 3 };
    let mut best: Vec<Option<FleetModeRun>> = vec![None; SHARD_SCALING.len()];
    for _round in 0..rounds {
        for (i, (name, workers)) in SHARD_SCALING.iter().enumerate() {
            let run = run_fleet_mode(&scale_cfg, FleetRangingMode::RoundTrip, Some(*workers));
            if let Some(prev) = &best[i] {
                assert_eq!(
                    prev.digest, run.digest,
                    "{name}: fleet run must replay identically across rounds"
                );
            }
            let faster = best[i].as_ref().is_none_or(|b| run.wall_s < b.wall_s);
            let run = FleetModeRun {
                worker_allocs: run
                    .worker_allocs
                    .max(best[i].as_ref().map_or(0, |b| b.worker_allocs)),
                wall_s: if faster {
                    run.wall_s
                } else {
                    best[i].as_ref().unwrap().wall_s
                },
                ..run
            };
            best[i] = Some(run);
        }
    }
    let best: Vec<FleetModeRun> = best.into_iter().map(|r| r.unwrap()).collect();
    // The tentpole's determinism claim, asserted at full bench scale:
    // serial and every parallel width produce identical reports.
    for (run, (name, _)) in best.iter().zip(SHARD_SCALING.iter()).skip(1) {
        assert_eq!(
            best[0].digest, run.digest,
            "{name}: shard-parallel reports diverged from the serial loop"
        );
    }
    let serial_wall = best[0].wall_s;
    for (run, (name, workers)) in best.iter().zip(SHARD_SCALING.iter()) {
        table.row(&[
            (*name).into(),
            format!("{FLEET_APS}"),
            format!("{FLEET_CLIENTS}"),
            format!("{}", scale_cfg.windows),
            format!("{workers}"),
            format!("{:.3}", run.stats.fix_rate_per_client),
            format!("{:.3}", run.stats.median_err_m),
            format!("{:.3}", run.stats.p90_err_m),
            format!("{}", run.stats.handoffs),
            format!("{}", run.stats.handoff_gap_sweeps),
            format!("{}", run.worker_allocs),
            format!("{:.2}x", serial_wall / run.wall_s),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walkers_stay_inside_the_grid_and_actually_roam() {
        let extent = 3.0 * AP_SPACING_M;
        let mut moved = 0;
        for i in (0..FLEET_CLIENTS).step_by(17) {
            let a = walker_at(i, 0, 0.25);
            let b = walker_at(i, 8, 0.25);
            for p in [a, b] {
                assert!(p.x >= 0.0 && p.x <= extent && p.y >= 0.0 && p.y <= extent);
            }
            if a.dist(b) > 1.0 {
                moved += 1;
            }
        }
        assert!(moved >= 10, "walkers must cover ground: {moved}");
    }

    #[test]
    fn walker_trajectory_is_window_consistent() {
        // The position after w windows equals the closed-form point —
        // both modes replay the identical trajectory.
        let a = walker_at(7, 4, 0.2);
        let b = walker_at(7, 4, 0.2);
        assert_eq!(
            (a.x.to_bits(), a.y.to_bits()),
            (b.x.to_bits(), b.y.to_bits())
        );
    }
}
