//! Adaptive-tracking scenarios: full-sweep vs band-subset capacity and
//! accuracy, on static and moving clients.
//!
//! The runners here back `tests/tracking.rs`'s ablation assertions and
//! the `BENCH_capacity` table that `bench_capacity` gates exactly and
//! README, `docs/TRACKING.md` and `docs/SCHEDULING.md` quote.
//! Everything is deterministic given a seed.

use crate::report::Table;
use chronos_core::config::ChronosConfig;
use chronos_core::engine::{ServiceEngine, WindowReport};
use chronos_core::service::{ClientOutcome, ServiceConfig};
use chronos_core::tracker::{TrackMode, TrackerConfig};
use chronos_link::time::Duration;
use chronos_rf::csi::MeasurementContext;
use chronos_rf::environment::Environment;
use chronos_rf::geometry::Point;
use chronos_rf::hardware::{ideal_device, AntennaArray};

/// Parameters of one tracking run.
#[derive(Debug, Clone)]
pub struct TrackingConfig {
    /// Master seed.
    pub seed: u64,
    /// Number of clients.
    pub n_clients: usize,
    /// Epochs to simulate.
    pub epochs: usize,
    /// Radial velocity applied to every client, m/s (0 = static
    /// scenario; positive = walking away from its locator).
    pub velocity_mps: f64,
    /// Adaptive scheduling: `Some` enables per-client trackers.
    pub adaptive: Option<TrackerConfig>,
}

impl Default for TrackingConfig {
    fn default() -> Self {
        TrackingConfig {
            seed: 42,
            n_clients: 4,
            epochs: 12,
            velocity_mps: 0.0,
            adaptive: Some(TrackerConfig::default()),
        }
    }
}

/// Aggregates of one tracking run.
#[derive(Debug, Clone)]
pub struct TrackingRun {
    /// Per-epoch reports, in order.
    pub reports: Vec<WindowReport>,
}

impl TrackingRun {
    /// Epochs in which every scheduled client ran in TRACK mode — the
    /// adaptive scheduler's steady state (empty for non-adaptive runs).
    pub fn steady_state(&self) -> Vec<&WindowReport> {
        self.reports
            .iter()
            .filter(|r| {
                let occ = r.mode_occupancy();
                occ.track > 0 && occ.acquire == 0
            })
            .collect()
    }

    /// The epochs a run's capacity figures average over: the
    /// steady-state epochs, or all of them when none is steady (every
    /// non-adaptive run).
    fn figure_epochs(&self) -> Vec<&WindowReport> {
        let steady = self.steady_state();
        if steady.is_empty() {
            self.reports.iter().collect()
        } else {
            steady
        }
    }

    /// Mean of `metric` over the figure epochs.
    fn mean_over_figure_epochs(&self, metric: impl Fn(&WindowReport) -> f64) -> Option<f64> {
        let pool = self.figure_epochs();
        if pool.is_empty() {
            return None;
        }
        Some(pool.iter().map(|r| metric(r)).sum::<f64>() / pool.len() as f64)
    }

    /// Mean sweeps/s of simulated airtime over the steady-state
    /// (all-TRACK) epochs, or over all epochs when none is steady.
    pub fn throughput(&self) -> Option<f64> {
        self.mean_over_figure_epochs(WindowReport::sweeps_per_sec)
    }

    /// Mean airtime utilization over the same epochs as
    /// [`TrackingRun::throughput`].
    pub fn utilization(&self) -> Option<f64> {
        self.mean_over_figure_epochs(|r| r.utilization)
    }

    /// Mean absolute raw-fix error over epochs scheduled fully in TRACK
    /// mode (or over all epochs when no TRACK epochs exist).
    pub fn mean_abs_error_m(&self) -> Option<f64> {
        let errs: Vec<f64> = self
            .figure_epochs()
            .iter()
            .flat_map(|r| r.outcomes.iter().filter_map(|o| o.error_m))
            .collect();
        if errs.is_empty() {
            None
        } else {
            Some(errs.iter().sum::<f64>() / errs.len() as f64)
        }
    }

    /// Worst per-epoch tracker RMSE across the run's adaptive epochs.
    pub fn worst_track_rmse_m(&self) -> Option<f64> {
        self.reports
            .iter()
            .filter_map(|r| r.track_rmse_m())
            .max_by(|a, b| a.partial_cmp(b).unwrap())
    }

    /// Fraction of (client, epoch) slots spent in TRACK mode.
    pub fn track_occupancy(&self) -> f64 {
        let (mut track, mut total) = (0usize, 0usize);
        for r in &self.reports {
            let occ = r.mode_occupancy();
            track += occ.track;
            total += occ.track + occ.acquire;
        }
        if total == 0 {
            0.0
        } else {
            track as f64 / total as f64
        }
    }
}

/// A high-SNR free-space client `d` meters from its locator.
pub fn tracking_ctx(d: f64) -> MeasurementContext {
    let mut ctx = MeasurementContext::new(
        Environment::free_space(),
        ideal_device(AntennaArray::single()),
        Point::new(0.0, 0.0),
        ideal_device(AntennaArray::laptop()),
        Point::new(d, 0.0),
    );
    ctx.snr.snr_at_1m_db = 55.0;
    ctx
}

/// Runs one tracking scenario: `n_clients` spread over 2–9 m, optionally
/// all receding at `velocity_mps`, for `epochs` service rounds.
pub fn run_tracking(cfg: &TrackingConfig) -> TrackingRun {
    let service_cfg = match cfg.adaptive {
        Some(t) => ServiceConfig::adaptive(t),
        None => ServiceConfig::default(),
    };
    let mut svc = ServiceEngine::new(service_cfg);
    for i in 0..cfg.n_clients {
        let d = 2.0 + 7.0 * i as f64 / cfg.n_clients.max(1) as f64;
        let id = svc.join(tracking_ctx(d), ChronosConfig::ideal());
        svc.session_mut(id).sweep_cfg.medium.loss_prob = 0.0;
    }

    let mut reports = Vec::with_capacity(cfg.epochs);
    let mut prev_span_s: Option<f64> = None;
    for e in 0..cfg.epochs {
        if cfg.velocity_mps != 0.0 {
            // Epoch k+1 starts one airtime span + epoch gap after epoch
            // k; move each mobile endpoint away by v x that interval.
            if let Some(span_s) = prev_span_s {
                let step = cfg.velocity_mps * (span_s + 0.005);
                for i in 0..cfg.n_clients {
                    let x = svc.session(i).ctx.initiator_pos.x - step;
                    svc.session_mut(i).ctx.initiator_pos = Point::new(x, 0.0);
                }
            }
        }
        let r = svc.run_epoch(cfg.seed.wrapping_mul(1000).wrapping_add(e as u64));
        prev_span_s = Some(r.span().as_secs_f64());
        reports.push(r);
    }
    TrackingRun { reports }
}

/// One row of the adaptive-vs-full capacity table (README,
/// `docs/TRACKING.md`).
#[derive(Debug, Clone)]
pub struct CapacityRow {
    /// Client count.
    pub n_clients: usize,
    /// Full-sweep service throughput, sweeps/s of airtime.
    pub full_sweeps_per_sec: f64,
    /// Adaptive steady-state throughput, sweeps/s of airtime.
    pub adaptive_sweeps_per_sec: f64,
    /// Full-sweep airtime utilization, over each round's busy span (the
    /// span its sweeps/s divides by).
    pub full_utilization: f64,
    /// Adaptive steady-state airtime utilization, over the same spans.
    pub adaptive_utilization: f64,
    /// Full-sweep mean absolute error, meters.
    pub full_mae_m: f64,
    /// Adaptive TRACK-mode mean absolute error, meters.
    pub adaptive_mae_m: f64,
}

/// Runs the static-client capacity comparison for each client count.
pub fn capacity_table(client_counts: &[usize], epochs: usize, seed: u64) -> Vec<CapacityRow> {
    client_counts
        .iter()
        .map(|&n| {
            let base = TrackingConfig {
                seed,
                n_clients: n,
                epochs,
                velocity_mps: 0.0,
                adaptive: None,
            };
            let full = run_tracking(&base);
            let adaptive = run_tracking(&TrackingConfig {
                adaptive: Some(TrackerConfig::default()),
                ..base
            });
            CapacityRow {
                n_clients: n,
                full_sweeps_per_sec: full.throughput().unwrap_or(0.0),
                adaptive_sweeps_per_sec: adaptive.throughput().unwrap_or(0.0),
                full_utilization: full.utilization().unwrap_or(0.0),
                adaptive_utilization: adaptive.utilization().unwrap_or(0.0),
                full_mae_m: full.mean_abs_error_m().unwrap_or(f64::NAN),
                adaptive_mae_m: adaptive.mean_abs_error_m().unwrap_or(f64::NAN),
            }
        })
        .collect()
}

/// One row of the epoch-barrier vs continuous-engine comparison on a
/// **mixed** ACQUIRE/TRACK population (half the clients pinned in
/// ACQUIRE — cold joiners, broken tracks — half tracking with subset
/// sweeps). The epoch barrier makes every TRACK client idle until the
/// slowest ACQUIRE sweep of the round finishes; the event engine lets
/// them re-sweep as soon as their subset airtime allows.
#[derive(Debug, Clone)]
pub struct MixedComparison {
    /// Client count (half pinned ACQUIRE, half free to TRACK).
    pub n_clients: usize,
    /// Lock-step `run_epoch` throughput, sweeps/s of simulated time.
    pub epoch_sweeps_per_sec: f64,
    /// Fraction of the epoch phase's simulated time with a sweep on the
    /// air.
    pub epoch_utilization: f64,
    /// Mean absolute TRACK-fix error under the epoch barrier, meters.
    pub epoch_track_mae_m: f64,
    /// Continuous `run_until` throughput, sweeps/s of simulated time.
    pub event_sweeps_per_sec: f64,
    /// Fraction of the continuous window with a sweep on the air.
    pub event_utilization: f64,
    /// Mean absolute TRACK-fix error under the continuous engine, meters.
    pub event_track_mae_m: f64,
}

impl MixedComparison {
    /// Event-engine throughput gain over the epoch barrier.
    pub fn gain(&self) -> f64 {
        self.event_sweeps_per_sec / self.epoch_sweeps_per_sec.max(1e-9)
    }
}

/// Builds the mixed-population service: even-indexed clients pinned in
/// ACQUIRE (per-client tracker override, `acquire_fixes: usize::MAX`),
/// odd-indexed clients free to promote to TRACK. Eight interleaved
/// hoppers are allowed: with the default cap of 4 both schedulers
/// saturate the medium at N ≥ 8 and the comparison would only measure
/// the barrier tail, not the idle-while-waiting cost.
fn mixed_service(n: usize) -> ServiceEngine {
    let mut cfg = ServiceConfig::adaptive(TrackerConfig::default());
    cfg.arbiter.max_concurrent = 8;
    let mut svc = ServiceEngine::new(cfg);
    for i in 0..n {
        let d = 2.0 + 7.0 * i as f64 / n.max(1) as f64;
        let ctx = tracking_ctx(d);
        let id = if i % 2 == 0 {
            svc.join_with_tracker(
                ctx,
                ChronosConfig::ideal(),
                TrackerConfig {
                    acquire_fixes: usize::MAX,
                    ..TrackerConfig::default()
                },
            )
        } else {
            svc.join(ctx, ChronosConfig::ideal())
        };
        svc.session_mut(id).sweep_cfg.medium.loss_prob = 0.0;
    }
    svc
}

/// Mean absolute raw-fix error over complete TRACK-mode sweeps, meters.
/// Incomplete sweeps are excluded on both sides of the comparison: their
/// degraded fixes carry elevated ghost-peak risk and the mode machine
/// never fuses them (see `ClientTracker::observe`), so they are misses,
/// not estimates a deployment would report.
fn track_mae_m(outcomes: &[ClientOutcome]) -> f64 {
    let errs: Vec<f64> = outcomes
        .iter()
        .filter(|o| o.mode == TrackMode::Track && o.link_complete)
        .filter_map(|o| o.error_m)
        .collect();
    if errs.is_empty() {
        f64::NAN
    } else {
        errs.iter().sum::<f64>() / errs.len() as f64
    }
}

/// Runs the epoch-vs-event comparison at one client count. Both
/// variants share the scenario, the warm-up (three epochs, promoting the
/// free half into TRACK) and the arbiter policy; only the scheduler
/// differs. Deterministic given the seed.
pub fn mixed_comparison(
    n_clients: usize,
    seed: u64,
    epochs: usize,
    window: Duration,
) -> MixedComparison {
    const WARM: usize = 3;

    // Epoch barrier: one sweep per client per round.
    let mut svc = mixed_service(n_clients);
    for e in 0..WARM {
        svc.run_epoch(seed.wrapping_add(e as u64));
    }
    let t0 = svc.clock();
    let mut end = t0;
    let mut completed = 0usize;
    let mut busy_s = 0.0;
    let mut outcomes = Vec::new();
    for e in 0..epochs {
        let r = svc.run_epoch(seed.wrapping_add((WARM + e) as u64));
        completed += r.completed();
        busy_s += r.utilization * r.span().as_secs_f64();
        end = r.ended;
        outcomes.extend(r.outcomes);
    }
    let total_s = end.saturating_since(t0).as_secs_f64().max(1e-9);
    let epoch_sweeps_per_sec = completed as f64 / total_s;
    let epoch_utilization = busy_s / total_s;
    let epoch_track_mae_m = track_mae_m(&outcomes);

    // Continuous engine: identical service and warm-up, then one window.
    let mut svc = mixed_service(n_clients);
    for e in 0..WARM {
        svc.run_epoch(seed.wrapping_add(e as u64));
    }
    let w = svc.run_until(seed ^ 0xE7E7_E7E7, svc.clock() + window);

    MixedComparison {
        n_clients,
        epoch_sweeps_per_sec,
        epoch_utilization,
        epoch_track_mae_m,
        event_sweeps_per_sec: w.sweeps_per_sec(),
        event_utilization: w.utilization,
        event_track_mae_m: track_mae_m(&w.outcomes),
    }
}

/// The epoch-vs-event table README quotes: mixed populations at several
/// client counts, one simulated second of continuous operation each.
pub fn mixed_capacity_table(client_counts: &[usize], seed: u64) -> Vec<MixedComparison> {
    client_counts
        .iter()
        .map(|&n| mixed_comparison(n, seed, 8, Duration::from_millis(1000)))
        .collect()
}

/// The `BENCH_capacity` table: one row per client count of each
/// comparison, the baseline scheduler (`base_*`: full sweeps, or the
/// epoch barrier) against the one that beats it (adaptive subsets, or
/// the event engine), at the precision README quotes. Every cell is a
/// plain number (gains without an `x`, utilizations as fractions),
/// because [`crate::cli::check_exact`] skips non-numeric cells.
pub fn capacity_bench_table(capacity: &[CapacityRow], mixed: &[MixedComparison]) -> Table {
    let mut table = Table::new(
        "BENCH_capacity",
        &[
            "scenario",
            "clients",
            "base_sweeps_s",
            "sweeps_s",
            "gain",
            "base_util",
            "util",
            "base_mae_m",
            "mae_m",
        ],
    );
    let mut push = |scenario: &str, n: usize, [base_s, s, base_u, u, base_mae, mae]: [f64; 6]| {
        table.row(&[
            format!("{scenario}_n{n}"),
            n.to_string(),
            format!("{base_s:.1}"),
            format!("{s:.1}"),
            format!("{:.1}", s / base_s.max(1e-9)),
            format!("{base_u:.2}"),
            format!("{u:.2}"),
            format!("{base_mae:.3}"),
            format!("{mae:.3}"),
        ])
    };
    for r in capacity {
        push(
            "full_vs_adaptive",
            r.n_clients,
            [
                r.full_sweeps_per_sec,
                r.adaptive_sweeps_per_sec,
                r.full_utilization,
                r.adaptive_utilization,
                r.full_mae_m,
                r.adaptive_mae_m,
            ],
        );
    }
    for r in mixed {
        push(
            "epoch_vs_event",
            r.n_clients,
            [
                r.epoch_sweeps_per_sec,
                r.event_sweeps_per_sec,
                r.epoch_utilization,
                r.event_utilization,
                r.epoch_track_mae_m,
                r.event_track_mae_m,
            ],
        );
    }
    table
}

/// Convenience: whether a run ever fell back to ACQUIRE after reaching
/// TRACK (used to assert re-acquisition behavior).
pub fn reacquired(run: &TrackingRun, client: usize) -> bool {
    let mut seen_track = false;
    for r in &run.reports {
        if let Some(o) = r.outcomes.iter().find(|o| o.client == client) {
            match o.mode {
                TrackMode::Track => seen_track = true,
                TrackMode::Acquire if seen_track => return true,
                TrackMode::Acquire => {}
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_run_reaches_steady_state_and_saves_airtime() {
        let run = run_tracking(&TrackingConfig::default());
        let steady = run.steady_state();
        assert!(steady.len() >= 8, "only {} steady epochs", steady.len());
        for r in &steady {
            assert!(r.airtime_saved() > 0.5, "saved {}", r.airtime_saved());
        }
        assert!(run.track_occupancy() > 0.7);
        // Static, lossless clients give the gate no reason to fire.
        for client in 0..TrackingConfig::default().n_clients {
            assert!(
                !reacquired(&run, client),
                "client {client} spuriously re-acquired"
            );
        }
    }

    #[test]
    fn capacity_table_shows_at_least_2x() {
        let rows = capacity_table(&[2], 8, 7);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert!(
            r.adaptive_sweeps_per_sec >= 2.0 * r.full_sweeps_per_sec,
            "adaptive {} vs full {}",
            r.adaptive_sweeps_per_sec,
            r.full_sweeps_per_sec
        );
        assert!(r.adaptive_mae_m <= 2.0 * r.full_mae_m + 1e-3);
    }

    #[test]
    fn moving_clients_stay_tracked() {
        let run = run_tracking(&TrackingConfig {
            velocity_mps: 1.2,
            epochs: 14,
            n_clients: 2,
            ..Default::default()
        });
        assert!(
            run.track_occupancy() > 0.5,
            "occupancy {}",
            run.track_occupancy()
        );
        let rmse = run.worst_track_rmse_m().expect("adaptive epochs");
        assert!(rmse < 0.5, "worst RMSE {rmse}");
    }
}
