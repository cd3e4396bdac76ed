//! Position-tracking scenarios: one multi-antenna AP localizing a
//! walking client in 2-D, in the open and behind a concrete wall.
//!
//! These runners back `tests/position.rs`, the `BENCH_position.json`
//! regression baseline (`scripts/check-bench-regression.sh` — CI fails
//! when any cell differs from the baseline) and the numbers quoted in
//! `docs/LOCALIZATION.md`. Everything is deterministic given a seed.

use crate::report::Table;
use chronos_core::config::ChronosConfig;
use chronos_core::engine::{ServiceEngine, WindowReport};
use chronos_core::service::ServiceConfig;
use chronos_core::tracker::TrackerConfig;
use chronos_link::time::Duration;
use chronos_rf::csi::MeasurementContext;
use chronos_rf::environment::{Environment, Material};
use chronos_rf::geometry::{Point, Segment};
use chronos_rf::hardware::{ideal_device, AntennaArray};

/// Parameters of one position-tracking run.
#[derive(Debug, Clone)]
pub struct PositionScenarioConfig {
    /// Scenario name (the regression baseline's row key).
    pub name: &'static str,
    /// Master seed.
    pub seed: u64,
    /// Epochs to simulate (the walker crosses its whole path over these).
    pub epochs: usize,
    /// Walker path start, AP frame (AP array at the origin).
    pub start: Point,
    /// Walker path end.
    pub end: Point,
    /// Walls between the walker and the AP (empty = LOS scenario).
    pub walls: Vec<(Segment, Material)>,
    /// Receiver SNR at 1 m, dB.
    pub snr_at_1m_db: f64,
    /// Position-tracker tuning.
    pub tracker: TrackerConfig,
}

impl PositionScenarioConfig {
    /// The open-floor LOS scenario: a walker crossing the AP's field of
    /// view at ~3.5 m range, nothing in the way. This is the §8/§12.2
    /// regime where fixes must be sub-meter.
    pub fn los(seed: u64, epochs: usize) -> Self {
        PositionScenarioConfig {
            name: "los",
            seed,
            epochs,
            start: Point::new(-2.5, 3.2),
            end: Point::new(3.5, 3.2),
            walls: Vec::new(),
            snr_at_1m_db: 36.0,
            // The walker covers the whole path in `epochs` sweeps (~0.7 m
            // per ~90 ms epoch in the quick run), so the filter needs a
            // generous maneuvering allowance; measurement noise reflects
            // the cm-level accuracy of LOS access-point-array fixes
            // rather than the distance-mode default.
            tracker: TrackerConfig {
                process_noise_mps2: 4.0,
                measurement_noise_m: 0.08,
                ..TrackerConfig::default()
            },
        }
    }

    /// The walled NLOS scenario: same walk, but a concrete slab shadows
    /// the AP mid-path. Fixes may thin out or degrade behind the wall;
    /// the tracker must coast and the error must stay bounded.
    pub fn nlos_wall(seed: u64, epochs: usize) -> Self {
        PositionScenarioConfig {
            walls: vec![(
                Segment::new(Point::new(-0.8, 1.8), Point::new(1.3, 1.8)),
                Material::Concrete,
            )],
            name: "nlos_wall",
            ..Self::los(seed, epochs)
        }
    }
}

/// Where the walker stands at epoch `e` of `epochs`.
pub fn walker_at(cfg: &PositionScenarioConfig, e: usize) -> Point {
    let t = if cfg.epochs <= 1 {
        0.0
    } else {
        e as f64 / (cfg.epochs - 1) as f64
    };
    cfg.start.lerp(cfg.end, t)
}

/// One scenario's outcome: per-epoch reports plus the walker's true path.
#[derive(Debug, Clone)]
pub struct PositionRun {
    /// Per-epoch service reports, in order (one client: the walker).
    pub reports: Vec<WindowReport>,
    /// Walker ground-truth position per epoch, AP frame.
    pub truth: Vec<Point>,
    /// Per-epoch count of AP antennas the walker had line of sight to.
    pub los_antennas: Vec<usize>,
}

impl PositionRun {
    /// Fraction of epochs whose sweep produced a raw position fix.
    pub fn fix_rate(&self) -> f64 {
        let fixed = self
            .reports
            .iter()
            .filter(|r| r.outcomes[0].position.is_some())
            .count();
        fixed as f64 / self.reports.len().max(1) as f64
    }

    /// Raw-fix 2-D errors, meters (epochs with a fix only).
    pub fn raw_errors_m(&self) -> Vec<f64> {
        self.reports
            .iter()
            .filter_map(|r| r.outcomes[0].pos_error_m)
            .collect()
    }

    /// Epochs the tracked-position metrics skip: the filter seeds at zero
    /// velocity, so its first few epochs lag a moving walker while the
    /// velocity states converge. Tracking quality is a steady-state
    /// property; the transient is visible in `reports` for anyone who
    /// wants it.
    pub const WARMUP_EPOCHS: usize = 3;

    /// Tracked-position 2-D errors after warmup, meters (epochs with a
    /// seeded filter).
    pub fn tracked_errors_m(&self) -> Vec<f64> {
        self.reports
            .iter()
            .skip(Self::WARMUP_EPOCHS)
            .filter_map(|r| r.outcomes[0].tracked_pos_error_m)
            .collect()
    }

    /// Median raw-fix error, meters.
    pub fn median_err_m(&self) -> f64 {
        let e = self.raw_errors_m();
        if e.is_empty() {
            f64::NAN
        } else {
            chronos_math::stats::median(&e)
        }
    }

    /// 90th-percentile raw-fix error, meters.
    pub fn p90_err_m(&self) -> f64 {
        let e = self.raw_errors_m();
        if e.is_empty() {
            f64::NAN
        } else {
            chronos_math::stats::percentile(&e, 90.0)
        }
    }

    /// RMS tracked-position error, meters.
    pub fn pos_rmse_m(&self) -> f64 {
        chronos_math::stats::rms(&self.tracked_errors_m())
    }

    /// Worst tracked-position error, meters — the "bounded degradation"
    /// observable for the NLOS scenario.
    pub fn worst_tracked_err_m(&self) -> f64 {
        self.tracked_errors_m().into_iter().fold(f64::NAN, f64::max)
    }
}

/// Runs one position scenario: a single-antenna walker ranged by a
/// 3-antenna access-point array at the origin, position-mode service,
/// adaptive scheduling.
pub fn run_position(cfg: &PositionScenarioConfig) -> PositionRun {
    let mut env = Environment::free_space();
    for (seg, mat) in &cfg.walls {
        env.add_wall(*seg, *mat);
    }
    let ap_array = AntennaArray::access_point();
    let mut ctx = MeasurementContext::new(
        env.clone(),
        ideal_device(AntennaArray::single()),
        walker_at(cfg, 0),
        ideal_device(ap_array.clone()),
        Point::new(0.0, 0.0),
    );
    ctx.snr.snr_at_1m_db = cfg.snr_at_1m_db;

    let mut svc = ServiceEngine::new(ServiceConfig::position(cfg.tracker));
    let id = svc.join(ctx, ChronosConfig::ideal());
    svc.session_mut(id).sweep_cfg.medium.loss_prob = 0.0;

    let ap_antennas = ap_array.world_positions(Point::new(0.0, 0.0));
    let mut reports = Vec::with_capacity(cfg.epochs);
    let mut truth = Vec::with_capacity(cfg.epochs);
    let mut los_antennas = Vec::with_capacity(cfg.epochs);
    for e in 0..cfg.epochs {
        let pos = walker_at(cfg, e);
        svc.session_mut(id).ctx.initiator_pos = pos;
        truth.push(pos);
        los_antennas.push(
            env.los_mask(pos, &ap_antennas)
                .iter()
                .filter(|l| **l)
                .count(),
        );
        reports.push(svc.run_epoch(cfg.seed.wrapping_mul(1000).wrapping_add(e as u64)));
    }
    PositionRun {
        reports,
        truth,
        los_antennas,
    }
}

/// One continuous-engine position run: per-window reports plus the
/// walker's true position at each window boundary.
#[derive(Debug, Clone)]
pub struct PositionWindowRun {
    /// Per-window service reports, in order (one client: the walker).
    pub windows: Vec<WindowReport>,
    /// Walker ground-truth position at each window's start, AP frame.
    pub truth: Vec<Point>,
}

impl PositionWindowRun {
    /// All completed sweeps across the run.
    pub fn sweeps(&self) -> usize {
        self.windows.iter().map(|w| w.outcomes.len()).sum()
    }

    /// Raw-fix 2-D errors across all windows, meters.
    pub fn raw_errors_m(&self) -> Vec<f64> {
        self.windows
            .iter()
            .flat_map(|w| w.outcomes.iter().filter_map(|o| o.pos_error_m))
            .collect()
    }

    /// Median raw-fix error, meters.
    pub fn median_err_m(&self) -> f64 {
        let e = self.raw_errors_m();
        if e.is_empty() {
            f64::NAN
        } else {
            chronos_math::stats::median(&e)
        }
    }
}

/// Runs a position scenario through the **continuous engine**: the same
/// walker and geometry as [`run_position`], but instead of one lock-step
/// sweep per epoch the service plays `run_until` windows of `window`
/// simulated time — once the position tracker promotes to TRACK, subset
/// sweeps deliver several fixes per window. The walker moves at each
/// window boundary (cfg.epochs boundaries span the whole path).
pub fn run_position_continuous(
    cfg: &PositionScenarioConfig,
    window: Duration,
) -> PositionWindowRun {
    let mut env = Environment::free_space();
    for (seg, mat) in &cfg.walls {
        env.add_wall(*seg, *mat);
    }
    let mut ctx = MeasurementContext::new(
        env,
        ideal_device(AntennaArray::single()),
        walker_at(cfg, 0),
        ideal_device(AntennaArray::access_point()),
        Point::new(0.0, 0.0),
    );
    ctx.snr.snr_at_1m_db = cfg.snr_at_1m_db;

    let mut svc = ServiceEngine::new(ServiceConfig::position(cfg.tracker));
    let id = svc.join(ctx, ChronosConfig::ideal());
    svc.session_mut(id).sweep_cfg.medium.loss_prob = 0.0;

    let mut windows = Vec::with_capacity(cfg.epochs);
    let mut truth = Vec::with_capacity(cfg.epochs);
    for e in 0..cfg.epochs {
        let pos = walker_at(cfg, e);
        svc.session_mut(id).ctx.initiator_pos = pos;
        truth.push(pos);
        windows.push(svc.run_until(cfg.seed.wrapping_mul(1000), svc.clock() + window));
    }
    PositionWindowRun { windows, truth }
}

/// Headers of the `BENCH_position` table, in column order.
pub const POSITION_HEADERS: [&str; 7] = [
    "scenario",
    "epochs",
    "fix_rate",
    "median_err_m",
    "p90_err_m",
    "pos_rmse_m",
    "worst_err_m",
];

/// Runs the LOS + walled-NLOS scenarios and tabulates the regression
/// metrics (the `BENCH_position.json` payload).
pub fn position_table(seed: u64, epochs: usize) -> Table {
    let mut table = Table::new("BENCH_position", &POSITION_HEADERS);
    for cfg in [
        PositionScenarioConfig::los(seed, epochs),
        PositionScenarioConfig::nlos_wall(seed, epochs),
    ] {
        let run = run_position(&cfg);
        table.row(&[
            cfg.name.to_string(),
            format!("{}", cfg.epochs),
            format!("{:.3}", run.fix_rate()),
            format!("{:.3}", run.median_err_m()),
            format!("{:.3}", run.p90_err_m()),
            format!("{:.3}", run.pos_rmse_m()),
            format!("{:.3}", run.worst_tracked_err_m()),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walker_spans_the_path() {
        let cfg = PositionScenarioConfig::los(1, 5);
        assert!(walker_at(&cfg, 0).dist(cfg.start) < 1e-12);
        assert!(walker_at(&cfg, 4).dist(cfg.end) < 1e-12);
        let one = PositionScenarioConfig::los(1, 1);
        assert!(walker_at(&one, 0).dist(one.start) < 1e-12);
    }

    #[test]
    fn nlos_scenario_actually_shadows_midpath() {
        let cfg = PositionScenarioConfig::nlos_wall(1, 9);
        let mut env = Environment::free_space();
        for (seg, mat) in &cfg.walls {
            env.add_wall(*seg, *mat);
        }
        let antennas = AntennaArray::access_point().world_positions(Point::new(0.0, 0.0));
        let mid = walker_at(&cfg, 4);
        let blocked = env.los_mask(mid, &antennas).iter().filter(|l| !**l).count();
        assert!(
            blocked >= 2,
            "wall must shadow the array mid-path, blocked={blocked}"
        );
        // Path ends are in the clear.
        assert!(env
            .los_mask(walker_at(&cfg, 0), &antennas)
            .iter()
            .all(|l| *l));
        assert!(env
            .los_mask(walker_at(&cfg, 8), &antennas)
            .iter()
            .all(|l| *l));
    }
}
