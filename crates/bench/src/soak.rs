//! Overload soak scenarios: offered load 1–5x medium capacity through
//! the bounded ingestion front-end.
//!
//! These runners back `tests/soak.rs`, the `BENCH_soak.json` baseline
//! (`scripts/check-bench-regression.sh` — CI fails when any cell differs
//! from the baseline) and the capacity table in the README. Everything
//! is deterministic given a seed: the
//! admission queue sheds as a pure function of the arrival sequence, so
//! identical seeds replay identical overload behavior.
//!
//! The population per 1x of load: four TRACK walkers (the honest
//! latency-sensitive users, moving so staleness costs accuracy), one
//! ACQUIRE-pinned client (a perpetual cold joiner exercising the
//! priority lane) and one BACKGROUND monitor (the first to be shed).
//! With `max_concurrent = 4` and ~29 ms subset sweeps the four walkers
//! of the 1x population already keep the medium near saturation, so
//! higher multiples are genuine overload, not just more idle clients.

use crate::report::Table;
use chronos_core::config::{ChronosConfig, IngestionConfig};
use chronos_core::engine::{ServiceEngine, WindowReport};
use chronos_core::service::ServiceConfig;
use chronos_core::tracker::TrackerConfig;
use chronos_link::admission::AdmissionConfig;
use chronos_link::time::{Duration, Instant};
use chronos_rf::csi::MeasurementContext;
use chronos_rf::environment::Environment;
use chronos_rf::geometry::Point;
use chronos_rf::hardware::{ideal_device, AntennaArray};

/// Load multiples the full soak matrix runs (1x = near saturation).
pub const SOAK_LOADS: [usize; 4] = [1, 2, 3, 5];

/// TRACK walkers per 1x of load.
pub const WALKERS_PER_LOAD: usize = 4;

/// Walker ground speed, m/s. Fast enough that a stretched TRACK cadence
/// costs visible tracking error (staleness), slow enough that a healthy
/// cadence tracks it tightly.
pub const WALKER_SPEED_MPS: f64 = 0.9;

/// Parameters of one soak run.
#[derive(Debug, Clone)]
pub struct SoakScenarioConfig {
    /// Scenario name (the regression baseline's row key).
    pub name: String,
    /// Master seed.
    pub seed: u64,
    /// Load multiple (population = 6 × `load`).
    pub load: usize,
    /// Continuous windows to run.
    pub windows: usize,
    /// Length of each window.
    pub window_len: Duration,
    /// Worker-thread count (0 = one per core). Results are independent
    /// of this by the engine's seeding contract; `tests/engine.rs`
    /// asserts it stays true with shedding active.
    pub threads: usize,
}

impl SoakScenarioConfig {
    /// The standard scenario at one load multiple.
    pub fn at_load(seed: u64, load: usize, windows: usize, window_ms: u64) -> Self {
        SoakScenarioConfig {
            name: format!("load_{load}x"),
            seed,
            load,
            windows,
            window_len: Duration::from_millis(window_ms),
            threads: 0,
        }
    }

    /// Total clients this scenario runs.
    pub fn clients(&self) -> usize {
        (WALKERS_PER_LOAD + 2) * self.load
    }

    /// Indices of the honest TRACK walkers (joined first).
    pub fn walkers(&self) -> std::ops::Range<usize> {
        0..WALKERS_PER_LOAD * self.load
    }
}

/// The estimator settings soak runs use: the coarse-but-honest grid
/// shared with `tests/engine.rs`, keeping the debug-mode test tier fast
/// while release benches measure the same pipeline.
pub fn soak_chronos() -> ChronosConfig {
    ChronosConfig {
        max_iters: 120,
        grid_step_ns: 0.5,
        ..ChronosConfig::ideal()
    }
}

/// The ingestion policy soak runs use. Sized so the ladder's rungs all
/// show at the matrix's loads: the TRACK lane saturates (deferrals) by
/// 3x, the BACKGROUND lane is tight enough to shed, and the ACQUIRE
/// lane covers every acquire-mode client at the top load — even the
/// cold-start instant where all walkers are still acquiring — while
/// the global margin above `track + background` keeps ACQUIRE
/// admissible when the queue is globally full (displacing background
/// rather than being dropped). A client holds at most one pending op,
/// so "lane depth ≥ client count of that class" is a hard guarantee.
pub fn soak_ingestion() -> IngestionConfig {
    IngestionConfig {
        queue: AdmissionConfig {
            acquire_depth: 32,
            track_depth: 8,
            background_depth: 2,
            global_depth: 36,
        },
        // ~2 subset sweeps of booking ahead; the queue absorbs the rest.
        backlog_limit: Duration::from_millis(60),
        track_stretch_max: 8.0,
        retry_gap: Duration::from_millis(10),
    }
}

/// Builds the soak service at one load multiple: `4 × load` moving
/// TRACK walkers, `load` ACQUIRE-pinned clients and `load` BACKGROUND
/// monitors, all loss-free over an ideal single-antenna link (this
/// bench measures scheduling under pressure, not RF).
pub fn soak_service(cfg: &SoakScenarioConfig) -> ServiceEngine {
    let mut svc = ServiceEngine::new(ServiceConfig {
        threads: cfg.threads,
        ingestion: Some(soak_ingestion()),
        ..ServiceConfig::adaptive(TrackerConfig::default())
    });
    let add = |svc: &mut ServiceEngine, d: f64, tracker: Option<TrackerConfig>| {
        let ctx = soak_ctx(d);
        let id = match tracker {
            Some(t) => svc.join_with_tracker(ctx, soak_chronos(), t),
            None => svc.join(ctx, soak_chronos()),
        };
        svc.session_mut(id).sweep_cfg.medium.loss_prob = 0.0;
        id
    };
    for i in 0..WALKERS_PER_LOAD * cfg.load {
        add(&mut svc, walker_start_m(i), None);
    }
    for j in 0..cfg.load {
        // A perpetual cold joiner: full ACQUIRE sweeps forever.
        add(
            &mut svc,
            3.0 + 0.2 * j as f64,
            Some(TrackerConfig {
                acquire_fixes: usize::MAX,
                ..TrackerConfig::default()
            }),
        );
    }
    for j in 0..cfg.load {
        let id = add(&mut svc, 2.5 + 0.2 * j as f64, None);
        svc.set_background(id, true);
    }
    svc
}

fn soak_ctx(d: f64) -> MeasurementContext {
    let mut ctx = MeasurementContext::new(
        Environment::free_space(),
        ideal_device(AntennaArray::single()),
        Point::new(0.0, 0.0),
        ideal_device(AntennaArray::laptop()),
        Point::new(d, 0.0),
    );
    ctx.snr.snr_at_1m_db = 60.0;
    ctx
}

/// A walker's starting distance from the AP, meters.
pub fn walker_start_m(i: usize) -> f64 {
    2.0 + 0.35 * i as f64
}

/// A walker's true distance at simulated time `t`.
pub fn walker_distance_m(i: usize, t: Instant) -> f64 {
    walker_start_m(i) + WALKER_SPEED_MPS * t.saturating_since(Instant::ZERO).as_secs_f64()
}

/// One soak run's outcome.
#[derive(Debug, Clone)]
pub struct SoakRun {
    /// The scenario parameters the run used.
    pub cfg: SoakScenarioConfig,
    /// Per-window reports, in order.
    pub reports: Vec<WindowReport>,
}

impl SoakRun {
    /// Windows the accuracy metrics skip while filters converge from
    /// their first ACQUIRE fixes.
    pub const WARMUP_WINDOWS: usize = 1;

    /// Sweep requests offered to the front door over the run.
    pub fn offered(&self) -> u64 {
        self.reports
            .iter()
            .map(|r| r.ingestion.offered.total())
            .sum()
    }

    /// Completed fixes (outcomes with a distance estimate) per offered
    /// request — the capacity observable the regression gate rides on.
    pub fn admitted_fix_rate(&self) -> f64 {
        let offered = self.offered();
        if offered == 0 {
            return 0.0;
        }
        let fixes: usize = self.reports.iter().map(|r| r.completed()).sum();
        fixes as f64 / offered as f64
    }

    /// Total shed requests of one class over the run.
    pub fn shed(&self, class: chronos_link::traffic::TrafficClass) -> u64 {
        self.reports
            .iter()
            .map(|r| r.ingestion.shed.get(class))
            .sum()
    }

    /// Total TRACK deferrals over the run.
    pub fn deferred_track(&self) -> u64 {
        self.reports
            .iter()
            .map(|r| r.ingestion.deferred.track)
            .sum()
    }

    /// Peak global queue depth over the run.
    pub fn queue_peak(&self) -> u64 {
        self.reports
            .iter()
            .map(|r| r.ingestion.queue_peak_total)
            .max()
            .unwrap_or(0)
    }

    /// Peak TRACK cadence stretch over the run.
    pub fn stretch_peak(&self) -> f64 {
        self.reports
            .iter()
            .map(|r| r.ingestion.stretch_peak)
            .fold(1.0, f64::max)
    }

    /// Admitted sweeps per honest walker, in walker order.
    pub fn walker_sweeps(&self) -> Vec<usize> {
        self.cfg
            .walkers()
            .map(|c| {
                self.reports
                    .iter()
                    .flat_map(|r| r.outcomes.iter())
                    .filter(|o| o.client == c)
                    .count()
            })
            .collect()
    }

    /// Max/min ratio of admitted sweeps across honest walkers — the
    /// per-client fairness observable (1.0 = perfectly even service).
    pub fn fairness_ratio(&self) -> f64 {
        let counts = self.walker_sweeps();
        let max = counts.iter().copied().max().unwrap_or(0);
        let min = counts.iter().copied().min().unwrap_or(0);
        if min == 0 {
            f64::INFINITY
        } else {
            max as f64 / min as f64
        }
    }

    /// Mean tracked-distance error of the honest walkers over the
    /// post-warmup windows, meters — the graceful-degradation
    /// observable: under overload this grows with cadence staleness but
    /// must stay bounded.
    pub fn honest_err_m(&self) -> f64 {
        let walkers = self.cfg.walkers();
        let errs: Vec<f64> = self
            .reports
            .iter()
            .skip(Self::WARMUP_WINDOWS)
            .flat_map(|r| {
                r.outcomes
                    .iter()
                    .filter(|o| walkers.contains(&o.client))
                    .filter_map(|o| o.tracked_error_m)
            })
            .collect();
        if errs.is_empty() {
            f64::NAN
        } else {
            errs.iter().sum::<f64>() / errs.len() as f64
        }
    }

    /// Mean gap between an honest walker's consecutive fixes, ms — the
    /// latency cost of cadence degradation.
    pub fn fix_latency_ms(&self) -> f64 {
        let span_ms: f64 = self
            .reports
            .iter()
            .map(|r| r.span().as_secs_f64() * 1e3)
            .sum();
        let fixes: usize = self.walker_sweeps().iter().sum();
        let walkers = self.cfg.walkers().len();
        if fixes == 0 {
            f64::INFINITY
        } else {
            span_ms * walkers as f64 / fixes as f64
        }
    }
}

/// Runs one soak scenario: continuous windows with the walkers moved
/// along their ground-truth tracks between windows (the engine scores
/// each sweep against the geometry at execution time).
pub fn run_soak(cfg: &SoakScenarioConfig) -> SoakRun {
    let mut svc = soak_service(cfg);
    let mut reports = Vec::with_capacity(cfg.windows);
    let mut deadline = Instant::ZERO;
    for w in 0..cfg.windows {
        deadline += cfg.window_len;
        let seed = cfg.seed.wrapping_mul(1000).wrapping_add(w as u64);
        reports.push(svc.run_until(seed, deadline));
        for i in cfg.walkers() {
            svc.session_mut(i).ctx.responder_pos = Point::new(walker_distance_m(i, deadline), 0.0);
        }
    }
    SoakRun {
        cfg: cfg.clone(),
        reports,
    }
}

/// Headers of the `BENCH_soak` table, in column order. The gate
/// ([`crate::cli::check_exact`]) holds every column to the baseline
/// exactly: the run is deterministic, and any drift is a real
/// scheduling change that deserves a deliberate re-baseline.
pub const SOAK_HEADERS: [&str; 11] = [
    "scenario",
    "load_x",
    "clients",
    "offered_sweeps",
    "admitted_fix_rate",
    "shed_acquire",
    "shed_background",
    "deferred_track",
    "queue_peak",
    "fairness_ratio",
    "honest_err_m",
];

/// Runs the full load matrix and tabulates the overload regression
/// metrics (the `BENCH_soak.json` payload).
pub fn soak_table(seed: u64, windows: usize, window_ms: u64) -> Table {
    use chronos_link::traffic::TrafficClass;
    let mut table = Table::new("BENCH_soak", &SOAK_HEADERS);
    for load in SOAK_LOADS {
        let cfg = SoakScenarioConfig::at_load(seed, load, windows, window_ms);
        let run = run_soak(&cfg);
        table.row(&[
            cfg.name.clone(),
            format!("{load}"),
            format!("{}", cfg.clients()),
            format!("{}", run.offered()),
            format!("{:.3}", run.admitted_fix_rate()),
            format!("{}", run.shed(TrafficClass::Acquire)),
            format!("{}", run.shed(TrafficClass::Background)),
            format!("{}", run.deferred_track()),
            format!("{}", run.queue_peak()),
            format!("{:.3}", run.fairness_ratio()),
            format!("{:.3}", run.honest_err_m()),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_population_layout() {
        let cfg = SoakScenarioConfig::at_load(1, 3, 4, 250);
        assert_eq!(cfg.clients(), 18);
        assert_eq!(cfg.walkers(), 0..12);
        assert_eq!(cfg.name, "load_3x");
    }

    #[test]
    fn ingestion_sizing_keeps_acquire_admissible() {
        // The structural guarantee behind zero ACQUIRE sheds, at the
        // worst instant (cold start: every walker still in ACQUIRE
        // mode). A client holds at most one pending op, so the lane
        // never class-rejects if its depth covers every possible
        // acquire-mode client; and a globally full queue must imply a
        // background entry to displace, which holds when acquire+track
        // alone cannot reach the global bound.
        let q = soak_ingestion().queue;
        let top_load = *SOAK_LOADS.iter().max().unwrap();
        let max_acquire_clients = (WALKERS_PER_LOAD + 1) * top_load;
        assert!(q.acquire_depth >= max_acquire_clients);
        assert!(q.global_depth > max_acquire_clients + q.track_depth);
        assert!(q.global_depth > q.track_depth + q.background_depth);
        assert!(q.acquire_depth + q.track_depth + q.background_depth > q.global_depth);
    }

    #[test]
    fn walkers_actually_move() {
        let d0 = walker_distance_m(0, Instant::ZERO);
        let d1 = walker_distance_m(0, Instant::from_millis(1000));
        assert!((d1 - d0 - WALKER_SPEED_MPS).abs() < 1e-12);
    }

    #[test]
    fn empty_run_metrics_are_sentinels_not_nan_panics() {
        let run = SoakRun {
            cfg: SoakScenarioConfig::at_load(1, 1, 0, 250),
            reports: Vec::new(),
        };
        assert_eq!(run.offered(), 0);
        assert_eq!(run.admitted_fix_rate(), 0.0);
        assert_eq!(run.queue_peak(), 0);
        assert!(run.fairness_ratio().is_infinite());
        assert!(run.fix_latency_ms().is_infinite());
        assert!(run.honest_err_m().is_nan());
    }
}
