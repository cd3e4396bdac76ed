//! `office_pair`: the paper's device-to-device path, run cold.
//!
//! One calibrated Intel 5300 pair — a single-antenna mobile against a
//! 3-antenna laptop, 50 dB SNR at 1 m — is swept once per placement over
//! the seeded office floor's pairs within 15 m, in a seeded order. A step
//! is one `ChronosSession::sweep_with_pipeline` on a warm
//! `SweepPipeline`, with the default `ChronosConfig` (35-band plan, two
//! delay-scale groups, 800-point grid). One thread, closed loop.
//!
//! The traced step replays `sweep_with_pipeline` as its public calls —
//! `run_sweep`, `measure_pair_at` per exchange, `TofEstimator::products`,
//! `SweepPipeline::estimate_from_products`, `SweepPipeline::locate_all` —
//! and must reproduce the untraced output bit for bit. FISTA and debias
//! are then timed by replaying `solve_planned_into` and `debias_into` on
//! the same groups and plans; those replay spans are not part of the
//! step.

use crate::alloc::thread_allocations;
use crate::report::Digest;
use crate::rig::{mix, Rig, StepOutcome, PREFIX_STEPS};
use crate::trace::Tracer;
use chronos_core::config::ChronosConfig;
use chronos_core::error::ChronosError;
use chronos_core::ista::{debias_into, solve_planned_into, DebiasScratch, IstaConfig, IstaScratch};
use chronos_core::localization::{AntennaRange, Position};
use chronos_core::ndft::TauGrid;
use chronos_core::quirk::group_by_scale;
use chronos_core::session::{ChronosSession, SweepOutput};
use chronos_core::tof::{BandSample, TofEstimate, TofEstimator};
use chronos_core::{PlanCache, SweepPipeline};
use chronos_link::sweep::run_sweep;
use chronos_link::time::Instant as SimInstant;
use chronos_math::Complex64;
use chronos_rf::csi::MeasurementContext;
use chronos_rf::environment::Environment;
use chronos_rf::geometry::Point;
use chronos_rf::hardware::{AntennaArray, Intel5300};
use chronos_rf::testbed::{Testbed, TestbedPair};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

const ORDER_SALT: u64 = 0x0FF1_CE00;
const DEVICE_SALT: u64 = 0xDE71_CE00;
const STEP_SALT: u64 = 0x57E9_0000;
const WARMUP_SALT: u64 = 0xA4A4_0000;

/// Warm-up sweeps in set-up: they size the pipeline's scratch and fill
/// the plan cache for the full band plan.
const WARMUP_STEPS: usize = 2;

/// Layer counters over the check prefix.
#[derive(Debug, Default, Clone)]
pub struct OfficeCounts {
    frames_sent: u64,
    frames_lost: u64,
    csi_allocs: u64,
    tof_allocs: u64,
    tof_attempts: u64,
    tof_failures: u64,
    solves: u64,
    iters: u64,
    capped: u64,
    driver_allocs: u64,
    plan_misses: u64,
}

/// The office floor, its placements and the warm estimation state.
pub struct OfficeRig {
    seed: u64,
    pairs: Vec<TestbedPair>,
    session: ChronosSession,
    estimator: TofEstimator,
    cache: Arc<PlanCache>,
    pipeline: SweepPipeline,
    ista: IstaScratch,
    debias: DebiasScratch,
    debias_out: Vec<Complex64>,
    /// Plan-cache misses when set-up ended.
    misses_after_setup: u64,
}

impl OfficeRig {
    /// Set-up: floor plan, placement order, device draw, calibration at
    /// a known 2 m line-of-sight geometry, then warm-up sweeps.
    pub fn build(seed: u64) -> Self {
        let testbed = Testbed::office(seed);
        let mut pairs = testbed.pairs_within(15.0);
        let mut order_rng = StdRng::seed_from_u64(mix(seed, ORDER_SALT));
        for i in (1..pairs.len()).rev() {
            pairs.swap(i, order_rng.gen_range(0..=i));
        }
        let mut rng = StdRng::seed_from_u64(mix(seed, DEVICE_SALT));
        let initiator = Intel5300::mobile(&mut rng);
        let responder = Intel5300::device(&mut rng, AntennaArray::laptop());
        let mut ctx = MeasurementContext::new(
            Environment::free_space(),
            initiator,
            Point::new(0.0, 0.0),
            responder,
            Point::new(2.0, 0.0),
        );
        ctx.snr.snr_at_1m_db = 50.0;
        let cache = Arc::new(PlanCache::new());
        let mut session = ChronosSession::with_cache(ctx, ChronosConfig::default(), cache.clone());
        session.calibrate(&mut rng, 2);
        session.ctx.environment = testbed.environment;
        let estimator = TofEstimator::with_cache(session.config.clone(), cache.clone());
        let mut rig = OfficeRig {
            seed,
            pairs,
            session,
            estimator,
            cache,
            pipeline: SweepPipeline::new(),
            ista: IstaScratch::new(),
            debias: DebiasScratch::default(),
            debias_out: Vec::new(),
            misses_after_setup: 0,
        };
        for w in 0..WARMUP_STEPS {
            rig.place(w);
            let session = &rig.session;
            let mut rng = StdRng::seed_from_u64(mix(seed, WARMUP_SALT + w as u64));
            session.sweep_with_pipeline(
                &session.sweep_cfg,
                &mut rng,
                SimInstant::ZERO,
                &mut rig.pipeline,
            );
        }
        rig.misses_after_setup = rig.cache.stats().misses;
        rig
    }

    /// Placements on the floor (pairs within 15 m).
    pub fn placements(&self) -> usize {
        self.pairs.len()
    }

    /// Line-of-sight placements.
    pub fn los_placements(&self) -> usize {
        self.pairs.iter().filter(|p| p.los).count()
    }

    /// Moves the device pair to step `i`'s placement.
    fn place(&mut self, i: usize) -> TestbedPair {
        let pair = self.pairs[i % self.pairs.len()];
        self.session.ctx.initiator_pos = pair.a;
        self.session.ctx.responder_pos = pair.b;
        pair
    }

    fn step_rng(&self, i: usize) -> StdRng {
        StdRng::seed_from_u64(mix(self.seed, STEP_SALT + i as u64))
    }

    /// Scores a sweep: per-antenna range errors, the fix, the digest.
    fn score(&self, pair: &TestbedPair, out: &SweepOutput) -> StepOutcome {
        let ant_world = self.session.ctx.responder.antennas.world_positions(pair.b);
        let mut d = Digest::default();
        let mut errors_m = Vec::with_capacity(out.tofs.len());
        let mut finite = true;
        for (k, tof) in out.tofs.iter().enumerate() {
            match tof {
                Ok(t) => {
                    d.put_f64(t.tof_ns);
                    d.put_f64(t.distance_m);
                    d.put(t.cross_check_ok as u64);
                    for g in &t.groups {
                        d.put_f64(g.raw_tof_ns);
                        d.put(g.n_bands as u64);
                    }
                    let err = (t.distance_m - ant_world[k].dist(pair.a)).abs();
                    finite &= err.is_finite();
                    errors_m.push(err);
                }
                Err(e) => {
                    d.put(u64::MAX);
                    for b in format!("{e:?}").bytes() {
                        d.put(b as u64);
                    }
                }
            }
        }
        for p in &out.position_candidates {
            d.put_f64(p.point.x);
            d.put_f64(p.point.y);
            d.put_f64(p.residual_m);
            finite &= p.point.x.is_finite() && p.point.y.is_finite();
        }
        d.put(out.position.is_ok() as u64);
        d.put(out.link.frames_sent as u64);
        d.put(out.link.frames_lost as u64);
        d.put(out.link.complete as u64);
        d.put(out.link.finished.as_nanos());
        StepOutcome {
            digest: d.value(),
            fixes: out.position.is_ok() as u64,
            attempts: 1,
            errors_m,
            finite,
        }
    }

    /// `sweep_with_pipeline` as its public calls, each in a span.
    fn replay_sweep(
        &mut self,
        i: usize,
        tracer: &mut Tracer,
        counts: &mut OfficeCounts,
    ) -> SweepOutput {
        let mut rng = self.step_rng(i);
        let session = &self.session;
        let estimator = &self.estimator;
        let sweep_cfg = &session.sweep_cfg;
        let counting = i < PREFIX_STEPS;
        let step = tracer.enter("step", false);
        let allocs0 = thread_allocations();

        let link = tracer.span("link", || run_sweep(sweep_cfg, SimInstant::ZERO, &mut rng));
        let n_rx = session.ctx.responder.antennas.len();
        let plan = &sweep_cfg.plan;
        let mut per_antenna: Vec<Vec<BandSample>> = (0..n_rx)
            .map(|_| {
                (0..plan.len())
                    .map(|_| BandSample {
                        measurements: Vec::new(),
                    })
                    .collect()
            })
            .collect();
        let mut exchange_idx_per_band = vec![0usize; plan.len()];
        let mut csi_allocs = 0;
        for op in &link.measurements {
            let band = &plan[op.band_index];
            let k = exchange_idx_per_band[op.band_index];
            exchange_idx_per_band[op.band_index] += 1;
            let antenna = k % n_rx;
            let a0 = thread_allocations();
            let m = tracer.span("csi", || {
                session.ctx.measure_pair_at(
                    &mut rng,
                    band,
                    &session.layout,
                    0,
                    antenna,
                    op.t_forward.as_secs_f64(),
                    op.t_reverse.as_secs_f64(),
                )
            });
            csi_allocs += thread_allocations() - a0;
            per_antenna[antenna][op.band_index].measurements.push(m);
        }

        let mut tofs: Vec<Result<TofEstimate, ChronosError>> = Vec::with_capacity(n_rx);
        let mut tof_allocs = 0;
        let mut replay_allocs = 0;
        for bands in &per_antenna {
            let non_empty: Vec<BandSample> = bands
                .iter()
                .filter(|b| !b.measurements.is_empty())
                .cloned()
                .collect();
            if !link.complete && non_empty.len() < 5 {
                tofs.push(Err(ChronosError::SweepIncomplete {
                    measured: non_empty.len(),
                    planned: plan.len(),
                }));
                continue;
            }
            let products = tracer.span("products", || estimator.products(&non_empty));
            let result = match products {
                Ok(products) => {
                    let a0 = thread_allocations();
                    let pipeline = &mut self.pipeline;
                    let r = tracer.span("tof", || {
                        pipeline.estimate_from_products(estimator, &products)
                    });
                    tof_allocs += thread_allocations() - a0;
                    let a0 = thread_allocations();
                    let replay = tracer.enter("replay", true);
                    let solver = replay_solver(
                        estimator.config.clone(),
                        &self.cache,
                        &products,
                        &mut self.ista,
                        &mut self.debias,
                        &mut self.debias_out,
                        tracer,
                    );
                    tracer.exit(replay);
                    replay_allocs += thread_allocations() - a0;
                    if counting {
                        counts.solves += solver.solves;
                        counts.iters += solver.iters;
                        counts.capped += solver.capped;
                    }
                    r
                }
                Err(e) => Err(e),
            };
            tofs.push(result);
        }

        let antenna_positions = session.ctx.responder.antennas.positions();
        let ranges: Vec<AntennaRange> = tofs
            .iter()
            .enumerate()
            .filter_map(|(k, r)| {
                r.as_ref().ok().map(|t| AntennaRange {
                    antenna: antenna_positions[k],
                    distance_m: t.distance_m,
                })
            })
            .collect();
        let mut position_candidates: Vec<Position> = Vec::new();
        let located = if ranges.len() >= 2 {
            let pipeline = &mut self.pipeline;
            tracer.span("localization", || {
                pipeline.locate_all(&ranges, &session.localizer, &mut position_candidates)
            })
        } else {
            Err(ChronosError::NoConsistentPosition)
        };
        let position = match located {
            Ok(()) => Ok(position_candidates[0]),
            Err(e) => {
                position_candidates.clear();
                Err(e)
            }
        };
        let driver_allocs = thread_allocations() - allocs0 - replay_allocs;
        tracer.exit(step);

        if counting {
            let c = counts;
            c.frames_sent += link.frames_sent as u64;
            c.frames_lost += link.frames_lost as u64;
            c.csi_allocs += csi_allocs;
            c.tof_allocs += tof_allocs;
            c.tof_attempts += tofs.len() as u64;
            c.tof_failures += tofs.iter().filter(|t| t.is_err()).count() as u64;
            c.driver_allocs += driver_allocs;
            // Misses since set-up ended, through this step and the
            // untraced run paired with it.
            c.plan_misses = self.cache.stats().misses - self.misses_after_setup;
        }
        SweepOutput {
            tofs,
            position,
            position_candidates,
            link,
        }
    }
}

/// Work of one solver replay.
#[derive(Debug, Default, Clone, Copy)]
struct SolverWork {
    solves: u64,
    iters: u64,
    capped: u64,
}

/// Re-runs FISTA and debias exactly as the estimator does — the
/// delay-scale groups of `products`, each group of at least 5 bands
/// inverted on its cached plan — in `ista` and `debias` spans. The
/// caller wraps it in a replay span.
fn replay_solver(
    config: ChronosConfig,
    cache: &PlanCache,
    products: &[chronos_core::reciprocity::BandProduct],
    ista: &mut IstaScratch,
    debias: &mut DebiasScratch,
    debias_out: &mut Vec<Complex64>,
    tracer: &mut Tracer,
) -> SolverWork {
    let mut work = SolverWork::default();
    let groups = group_by_scale(products);
    if groups.iter().map(|g| g.len()).max().unwrap_or(0) < 5 {
        return work;
    }
    let grid = TauGrid::span(config.grid_span_ns, config.grid_step_ns);
    let ista_cfg = IstaConfig {
        alpha_rel: config.alpha_rel,
        max_iters: config.max_iters,
        epsilon: config.epsilon,
        accelerated: config.accelerated,
    };
    for g in groups.iter().filter(|g| g.len() >= 5) {
        let plan = cache.ndft_plan(&g.freqs_hz, grid, config.grid_span_ns);
        let id = tracer.enter("ista", false);
        let stats = solve_planned_into(&plan, &g.values, &ista_cfg, ista);
        tracer.exit(id);
        work.solves += 1;
        work.iters += stats.iterations as u64;
        work.capped += !stats.converged as u64;
        if config.debias {
            let id = tracer.enter("debias", false);
            debias_into(
                &plan.ndft,
                &g.values,
                ista.solution(),
                (g.len() / 2).max(3),
                3,
                debias,
                debias_out,
            );
            tracer.exit(id);
        }
    }
    work
}

impl Rig for OfficeRig {
    type Counts = OfficeCounts;
    const PAIRED: bool = true;

    /// One pass over every placement.
    fn quality_steps(&self) -> usize {
        self.pairs.len()
    }

    fn step(&mut self, i: usize) -> (StepOutcome, f64) {
        let pair = self.place(i);
        let mut rng = self.step_rng(i);
        let session = &self.session;
        let t0 = Instant::now();
        let out = session.sweep_with_pipeline(
            &session.sweep_cfg,
            &mut rng,
            SimInstant::ZERO,
            &mut self.pipeline,
        );
        let dt = t0.elapsed().as_secs_f64();
        (self.score(&pair, &out), dt)
    }

    fn step_traced(
        &mut self,
        i: usize,
        tracer: &mut Tracer,
        counts: &mut OfficeCounts,
    ) -> StepOutcome {
        let pair = self.place(i);
        let out = self.replay_sweep(i, tracer, counts);
        self.score(&pair, &out)
    }

    fn layer_values(c: &OfficeCounts, tracer: &Tracer, scale: &[f64]) -> Vec<(&'static str, f64)> {
        let totals = tracer.layer_totals(scale);
        let ms = |name: &str| {
            totals
                .get(name)
                .map_or(0.0, |t| t.self_s * 1e3 / scale.len() as f64)
        };
        let prefix = PREFIX_STEPS as f64;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let tof_ms = ms("tof");
        vec![
            ("link.ms", ms("link")),
            ("link.loss_ratio", ratio(c.frames_lost, c.frames_sent)),
            ("csi.ms", ms("csi")),
            ("csi.allocs", c.csi_allocs as f64 / prefix),
            ("products.ms", ms("products")),
            ("tof.ms", tof_ms),
            ("tof.allocs", c.tof_allocs as f64 / prefix),
            ("tof.fail_ratio", ratio(c.tof_failures, c.tof_attempts)),
            ("tof.first_path_ms", tof_ms - ms("ista") - ms("debias")),
            ("ista.ms", ms("ista")),
            ("ista.solves", c.solves as f64 / prefix),
            ("ista.iters", ratio(c.iters, c.solves)),
            ("ista.cap_ratio", ratio(c.capped, c.solves)),
            ("debias.ms", ms("debias")),
            ("localization.ms", ms("localization")),
            ("plan.misses", c.plan_misses as f64),
            ("alloc.driver", c.driver_allocs as f64 / prefix),
        ]
    }
}
