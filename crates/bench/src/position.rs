//! Position-tracking scenarios: one multi-antenna AP localizing a
//! walking client in 2-D, in the open and behind a concrete wall.
//!
//! These runners back `tests/position.rs`, the `BENCH_position.json`
//! regression baseline (`scripts/check-bench-regression.sh` — CI fails on
//! a >20% metric regression) and the numbers quoted in
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

/// Compares a fresh `BENCH_position` run against the checked-in baseline.
///
/// Direction is inferred from the header: error-like columns (`*err*`,
/// `*rmse*`) must not grow by more than `tol` (relative, with a 2 cm
/// absolute slack so near-zero baselines don't gate on noise); rate-like
/// columns (`*rate*`) must not shrink by more than `tol`. Any other
/// numeric column (e.g. `epochs`) is a scenario *parameter*: it must
/// match exactly, because metrics from runs with different settings are
/// not comparable — a mismatch means the baseline was generated with a
/// different command than CI runs. Returns every violated metric.
pub fn check_regression(current: &Table, baseline: &Table, tol: f64) -> Result<(), Vec<String>> {
    const ABS_SLACK: f64 = 0.02;
    let mut failures = Vec::new();
    for (bi, brow) in baseline.rows.iter().enumerate() {
        let key = brow.first().cloned().unwrap_or_default();
        let Some(ci) = current.row_by_key(&key) else {
            failures.push(format!("scenario {key:?} missing from current run"));
            continue;
        };
        for header in &baseline.headers {
            let (Some(base), Some(cur)) =
                (baseline.cell_f64(bi, header), current.cell_f64(ci, header))
            else {
                continue;
            };
            let lower_better = header.contains("err")
                || header.contains("rmse")
                || header.contains("detect")
                || header.contains("latency")
                || header.contains("shed")
                || header.contains("fairness")
                || header.contains("deferred")
                || header.contains("gap");
            let higher_better = header.contains("rate");
            if !lower_better && !higher_better {
                if (cur - base).abs() > 1e-9 {
                    failures.push(format!(
                        "{key}/{header}: scenario parameter {cur} != baseline {base} — \
                         regenerate the baseline with the same settings CI uses \
                         (scripts/check-bench-regression.sh runs --quick)"
                    ));
                }
                continue;
            }
            if lower_better && cur > base * (1.0 + tol) + ABS_SLACK {
                failures.push(format!(
                    "{key}/{header}: {cur:.3} regressed past baseline {base:.3} (+{tol:.0}%)",
                    tol = tol * 100.0
                ));
            } else if higher_better && cur < base * (1.0 - tol) - ABS_SLACK {
                failures.push(format!(
                    "{key}/{header}: {cur:.3} regressed below baseline {base:.3} (-{tol:.0}%)",
                    tol = tol * 100.0
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

    #[test]
    fn regression_checker_directions() {
        let mut base = Table::new("BENCH_position", &POSITION_HEADERS);
        base.row(&[
            "los".into(),
            "10".into(),
            "1.000".into(),
            "0.300".into(),
            "0.500".into(),
            "0.250".into(),
            "0.600".into(),
        ]);
        // Identical run passes.
        assert!(check_regression(&base.clone(), &base, 0.2).is_ok());
        // Error regression >20% + slack fails.
        let mut worse = base.clone();
        worse.rows[0][3] = "0.500".into();
        let errs = check_regression(&worse, &base, 0.2).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("median_err_m")), "{errs:?}");
        // Fix-rate collapse fails.
        let mut sparse = base.clone();
        sparse.rows[0][2] = "0.500".into();
        assert!(check_regression(&sparse, &base, 0.2).is_err());
        // Missing scenario fails.
        let empty = Table::new("BENCH_position", &POSITION_HEADERS);
        assert!(check_regression(&empty, &base, 0.2).is_err());
        // Scenario-parameter drift (epoch count) fails even when every
        // metric looks fine — the runs are not comparable.
        let mut longer = base.clone();
        longer.rows[0][1] = "24".into();
        let errs = check_regression(&longer, &base, 0.2).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("epochs")), "{errs:?}");
        // Improvement passes.
        let mut better = base.clone();
        better.rows[0][3] = "0.100".into();
        assert!(check_regression(&better, &base, 0.2).is_ok());
    }

    #[test]
    fn regression_checker_gates_handoff_gap() {
        // Fleet-bench columns: `handoff_gap_sweeps` is lower-is-better
        // (re-ACQUIRE sweeps after a handoff are the cost migration is
        // supposed to eliminate); `handoffs` itself is a deterministic
        // scenario parameter and must match exactly.
        let headers = ["scenario", "handoffs", "handoff_gap_sweeps"];
        let mut base = Table::new("BENCH_fleet", &headers);
        base.row(&["roundtrip".into(), "12".into(), "3".into()]);
        assert!(check_regression(&base.clone(), &base, 0.2).is_ok());
        let mut gappier = base.clone();
        gappier.rows[0][2] = "9".into();
        let errs = check_regression(&gappier, &base, 0.2).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("handoff_gap_sweeps")),
            "{errs:?}"
        );
        let mut tighter = base.clone();
        tighter.rows[0][2] = "0".into();
        assert!(check_regression(&tighter, &base, 0.2).is_ok());
        let mut drifted = base.clone();
        drifted.rows[0][1] = "13".into();
        let errs = check_regression(&drifted, &base, 0.2).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("handoffs")), "{errs:?}");
    }

    #[test]
    fn regression_checker_gates_detection_latency() {
        // Latency columns (BENCH_adversarial) are lower-is-better: a
        // slower detection fails, a faster one passes.
        let headers = ["scenario", "detect_latency_sweeps"];
        let mut base = Table::new("BENCH_adversarial", &headers);
        base.row(&["replay_strong".into(), "2".into()]);
        assert!(check_regression(&base.clone(), &base, 0.2).is_ok());
        let mut slower = base.clone();
        slower.rows[0][1] = "5".into();
        let errs = check_regression(&slower, &base, 0.2).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("detect_latency_sweeps")),
            "{errs:?}"
        );
        let mut faster = base.clone();
        faster.rows[0][1] = "1".into();
        assert!(check_regression(&faster, &base, 0.2).is_ok());
    }

    #[test]
    fn regression_checker_gates_shedding_metrics() {
        // Soak-bench columns: shed counts, deferral counts and the
        // fairness ratio are lower-is-better; admitted-fix rate keeps
        // the higher-is-better `rate` rule.
        let headers = [
            "scenario",
            "shed_acquire",
            "deferred_track",
            "fairness_ratio",
            "admitted_fix_rate",
        ];
        let mut base = Table::new("BENCH_soak", &headers);
        base.row(&[
            "load_3x".into(),
            "0".into(),
            "40".into(),
            "1.300".into(),
            "0.800".into(),
        ]);
        assert!(check_regression(&base.clone(), &base, 0.2).is_ok());
        for (col, worse_val, metric) in [
            (1usize, "5", "shed_acquire"),
            (2, "80", "deferred_track"),
            (3, "2.500", "fairness_ratio"),
            (4, "0.400", "admitted_fix_rate"),
        ] {
            let mut worse = base.clone();
            worse.rows[0][col] = worse_val.into();
            let errs = check_regression(&worse, &base, 0.2).unwrap_err();
            assert!(
                errs.iter().any(|e| e.contains(metric)),
                "{metric}: {errs:?}"
            );
        }
        // Improvements in every direction pass.
        let mut better = base.clone();
        better.rows[0][2] = "10".into();
        better.rows[0][3] = "1.000".into();
        better.rows[0][4] = "0.950".into();
        assert!(check_regression(&better, &base, 0.2).is_ok());
    }
}
