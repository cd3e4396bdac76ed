//! `fleet_tdoa`: the fleet boundary with no CSI estimation.
//!
//! 16 APs on a 4×4 grid of 20 m cells and 1000 seeded walkers bouncing
//! across the cells, in `FleetRangingMode::Tdoa`. The fleet pins two
//! threads — `ServiceConfig::threads = 2` and `FleetConfig::workers =
//! Some(1)` — so nothing reads `available_parallelism`. A step is one
//! 100 ms `FleetEngine::run_window`: sync rounds, about 40 blasts per
//! client-second booked into 16 arbiters, the hyperbolic Gauss-Newton
//! solve and the world-frame tracker, then 16 near-empty shard jobs. The
//! walkers move between windows.
//!
//! The traced step wraps `run_window` in a span and reads the window
//! report and the runtime counters; the stages inside the window are the
//! program's own to ledger.

use crate::alloc::thread_allocations;
use crate::report::Digest;
use crate::rig::{mix, Rig, StepOutcome, PREFIX_STEPS};
use crate::trace::Tracer;
use chronos_core::fleet::{FleetConfig, FleetEngine, FleetRangingMode, FleetWindowReport};
use chronos_core::tracker::TrackerConfig;
use chronos_link::time::Duration;
use chronos_rf::environment::Environment;
use chronos_rf::geometry::Point;
use chronos_rf::testbed::ap_grid;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// APs on the grid.
pub const APS: usize = 16;
/// Grid cell pitch, meters.
pub const AP_SPACING_M: f64 = 20.0;
/// Walkers.
pub const CLIENTS: usize = 1000;
/// Walker ground speed, m/s: fast enough to cross cells (and hand off)
/// within seconds of simulated time.
pub const WALKER_SPEED_MPS: f64 = 6.0;
/// Simulated length of one window (one step), seconds.
pub const WINDOW_S: f64 = 0.1;
/// Windows run in set-up, after population, so the timed windows start
/// with the blast cadence running and the trackers converged.
pub const WARMUP_WINDOWS: usize = 5;
/// Windows whose fixes give the quality metrics.
pub const QUALITY_WINDOWS: usize = 100;

const WALKER_SALT: u64 = 0x3A1C_0000;
const WINDOW_SALT: u64 = 0x5EED_0000;

/// Seeded constant-velocity walkers reflecting off the grid's bounding
/// box. A walker's position is a pure function of time.
#[derive(Debug, Clone)]
pub struct Walkers {
    start: Vec<Point>,
    velocity: Vec<Point>,
    extent: f64,
}

impl Walkers {
    /// `n` walkers with seeded start points and headings.
    pub fn new(seed: u64, n: usize) -> Self {
        let extent = ((APS as f64).sqrt().ceil() - 1.0) * AP_SPACING_M;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut start = Vec::with_capacity(n);
        let mut velocity = Vec::with_capacity(n);
        for _ in 0..n {
            start.push(Point::new(
                rng.gen_range(0.0..extent),
                rng.gen_range(0.0..extent),
            ));
            let heading = rng.gen_range(0.0..std::f64::consts::TAU);
            velocity.push(Point::new(
                WALKER_SPEED_MPS * heading.cos(),
                WALKER_SPEED_MPS * heading.sin(),
            ));
        }
        Walkers {
            start,
            velocity,
            extent,
        }
    }

    /// Walker `i`'s position at time `t_s`.
    pub fn at(&self, i: usize, t_s: f64) -> Point {
        let period = 2.0 * self.extent;
        let bounce = |x0: f64, v: f64| {
            let u = (x0 + v * t_s).rem_euclid(period);
            if u <= self.extent {
                u
            } else {
                period - u
            }
        };
        Point::new(
            bounce(self.start[i].x, self.velocity[i].x),
            bounce(self.start[i].y, self.velocity[i].y),
        )
    }
}

/// Layer counters over the check prefix.
#[derive(Debug, Default, Clone)]
pub struct FleetCounts {
    utilization: f64,
    handoffs: u64,
    sync_rounds: u64,
    blasts: u64,
    anchors: u64,
    batches: u64,
    worker_allocs: u64,
    driver_allocs: u64,
}

/// A built fleet and its walkers.
pub struct FleetRig {
    walkers: Walkers,
    fleet: FleetEngine,
    window_seed: u64,
    windows: usize,
}

impl FleetRig {
    /// Set-up: construction, population and warm-up windows.
    pub fn build(seed: u64) -> Self {
        let walkers = Walkers::new(mix(seed, WALKER_SALT), CLIENTS);
        let mut cfg = FleetConfig::position(TrackerConfig::default(), FleetRangingMode::Tdoa);
        cfg.service.threads = 2;
        cfg.workers = Some(1);
        let mut fleet =
            FleetEngine::new(cfg, Environment::free_space(), ap_grid(APS, AP_SPACING_M));
        for i in 0..CLIENTS {
            fleet.add_client(walkers.at(i, 0.0));
        }
        let mut rig = FleetRig {
            walkers,
            fleet,
            window_seed: mix(seed, WINDOW_SALT),
            windows: 0,
        };
        for _ in 0..WARMUP_WINDOWS {
            rig.move_walkers();
            rig.run_window();
        }
        rig
    }

    fn move_walkers(&mut self) {
        let t = self.windows as f64 * WINDOW_S;
        for i in 0..CLIENTS {
            self.fleet.set_client_pos(i, self.walkers.at(i, t));
        }
    }

    fn run_window(&mut self) -> FleetWindowReport {
        self.windows += 1;
        self.fleet
            .run_window(self.window_seed, Duration::from_secs_f64(WINDOW_S))
    }

    /// The pool's lifetime batch and worker-allocation counters.
    fn runtime_counters(&self) -> (u64, u64) {
        self.fleet
            .runtime()
            .map_or((0, 0), |rt| (rt.batches_run(), rt.worker_allocations()))
    }

    /// Scores a window: fixes over blasts, raw-fix errors, the digest.
    fn score(report: &FleetWindowReport) -> StepOutcome {
        let mut d = Digest::default();
        d.put(report.started.as_nanos());
        d.put(report.ended.as_nanos());
        d.put(report.handoffs as u64);
        d.put(report.sync_rounds as u64);
        d.put(report.n_clients as u64);
        let mut finite = true;
        let mut sweeps = 0u64;
        for sr in &report.shard_reports {
            d.put_f64(sr.utilization);
            finite &= sr.utilization.is_finite();
            sweeps += sr.outcomes.len() as u64;
        }
        for o in &report.tdoa_outcomes {
            d.put(o.client as u64);
            d.put(o.blast);
            d.put(o.at.as_nanos());
            d.put(o.n_anchors as u64);
            d.put_opt(o.pos_error_m);
            d.put_opt(o.tracked_pos_error_m);
        }
        let errors_m = report.pos_errors_m();
        finite &= errors_m.iter().all(|e| e.is_finite());
        StepOutcome {
            digest: d.value(),
            fixes: report.fixes() as u64,
            attempts: sweeps + report.tdoa_outcomes.len() as u64,
            errors_m,
            finite,
        }
    }
}

impl Rig for FleetRig {
    type Counts = FleetCounts;
    const PAIRED: bool = false;

    fn quality_steps(&self) -> usize {
        QUALITY_WINDOWS
    }

    fn step(&mut self, _i: usize) -> (StepOutcome, f64) {
        self.move_walkers();
        let t0 = Instant::now();
        let report = self.run_window();
        let dt = t0.elapsed().as_secs_f64();
        (Self::score(&report), dt)
    }

    fn step_traced(
        &mut self,
        i: usize,
        tracer: &mut Tracer,
        counts: &mut FleetCounts,
    ) -> StepOutcome {
        self.move_walkers();
        let (batches0, worker0) = self.runtime_counters();
        let step = tracer.enter("step", false);
        let allocs0 = thread_allocations();
        let report = self.run_window();
        let driver_allocs = thread_allocations() - allocs0;
        tracer.exit(step);
        if i < PREFIX_STEPS {
            let (batches1, worker1) = self.runtime_counters();
            let c = counts;
            c.batches += batches1 - batches0;
            c.worker_allocs += worker1 - worker0;
            c.driver_allocs += driver_allocs;
            c.utilization += report
                .shard_reports
                .iter()
                .map(|sr| sr.utilization)
                .sum::<f64>()
                / report.shard_reports.len() as f64;
            c.handoffs += report.handoffs as u64;
            c.sync_rounds += report.sync_rounds as u64;
            c.blasts += report.tdoa_outcomes.len() as u64;
            c.anchors += report
                .tdoa_outcomes
                .iter()
                .map(|o| o.n_anchors as u64)
                .sum::<u64>();
        }
        Self::score(&report)
    }

    fn layer_values(c: &FleetCounts, _tracer: &Tracer, _scale: &[f64]) -> Vec<(&'static str, f64)> {
        let prefix = PREFIX_STEPS as f64;
        let per_blast = if c.blasts == 0 {
            0.0
        } else {
            c.anchors as f64 / c.blasts as f64
        };
        vec![
            ("arbiter.utilization", c.utilization / prefix),
            ("fleet.handoffs", c.handoffs as f64 / prefix),
            ("fleet.sync_rounds", c.sync_rounds as f64 / prefix),
            ("tdoa.blasts", c.blasts as f64 / prefix),
            ("tdoa.anchors", per_blast),
            ("runtime.batches", c.batches as f64 / prefix),
            ("runtime.worker_allocs", c.worker_allocs as f64 / prefix),
            ("alloc.driver", c.driver_allocs as f64 / prefix),
        ]
    }
}
