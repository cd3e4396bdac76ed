//! End-to-end Chronos sessions: protocol sweep -> CSI synthesis -> ToF ->
//! localization.
//!
//! A [`ChronosSession`] pairs two simulated devices (paper §11's "two
//! Chronos devices in monitor mode"). Each call to [`ChronosSession::sweep`]
//! runs the channel-hopping protocol over the discrete-event link
//! simulation, synthesizes forward/reverse CSI at the exact instants the
//! protocol captured packets, and pushes everything through the estimation
//! pipeline — once per receive antenna, since localization needs a
//! time-of-flight per antenna (§8).
//!
//! The ACK antenna rotates across the exchanges of a band so every receive
//! antenna collects reciprocal (forward *and* reverse) measurements.
//!
//! Neither device moves while a sweep runs, and the sweep always
//! transmits from antenna 0, so it enumerates **one path set per receive
//! antenna** (and one line-of-sight flag), not one per exchange. Each
//! exchange then sums its **true channel once** for both captures (see
//! [`chronos_rf::csi`]). The exchanges are synthesized straight into the
//! pipeline's per-(antenna, band) measurement slots, whose captures are
//! recycled from sweep to sweep, and each antenna is estimated from its
//! slots. The answers are the ones the per-exchange public calls give
//! (`MeasurementContext::measure_pair_at`, `TofEstimator::products`,
//! `SweepPipeline::estimate_from_products`), bit for bit.

use crate::config::ChronosConfig;
use crate::error::ChronosError;
use crate::localization::{AntennaRange, LocalizerConfig, Position};
use crate::plan::PlanCache;
use crate::tof::{TofEstimate, TofEstimator};
use chronos_link::sweep::{run_sweep, SweepConfig, SweepResult};
use chronos_link::time::Instant;
use chronos_rf::csi::MeasurementContext;
use chronos_rf::ofdm::SubcarrierLayout;
use rand::Rng;
use std::sync::Arc;

/// Output of one localization sweep.
#[derive(Debug, Clone)]
pub struct SweepOutput {
    /// Per-receive-antenna time-of-flight estimates (index = antenna).
    pub tofs: Vec<Result<TofEstimate, ChronosError>>,
    /// The estimated transmitter position in the receiver's frame, when at
    /// least two antennas produced usable distances.
    pub position: Result<Position, ChronosError>,
    /// Every consistent localization candidate, best residual first. One
    /// entry for a well-conditioned 3+-antenna fix; the mirror pair when
    /// only two antennas produced usable ranges (callers with a motion
    /// prior disambiguate — see
    /// [`crate::tracker::PositionTracker::resolve`]). Empty when
    /// localization failed.
    pub position_candidates: Vec<Position>,
    /// Link-layer result (duration, loss counters, busy intervals).
    pub link: SweepResult,
}

impl SweepOutput {
    /// Distance estimate of antenna `idx`, if it succeeded, meters.
    pub fn distance_m(&self, idx: usize) -> Option<f64> {
        self.tofs
            .get(idx)
            .and_then(|r| r.as_ref().ok())
            .map(|t| t.distance_m)
    }

    /// Mean distance across successful antennas, meters.
    pub fn mean_distance_m(&self) -> Option<f64> {
        let ds: Vec<f64> = (0..self.tofs.len())
            .filter_map(|i| self.distance_m(i))
            .collect();
        if ds.is_empty() {
            None
        } else {
            Some(ds.iter().sum::<f64>() / ds.len() as f64)
        }
    }
}

/// A paired-device Chronos session.
#[derive(Debug, Clone)]
pub struct ChronosSession {
    /// Physical measurement context (devices, environment, noise).
    pub ctx: MeasurementContext,
    /// Link-layer sweep configuration.
    pub sweep_cfg: SweepConfig,
    /// Estimator configuration.
    pub config: ChronosConfig,
    /// Localizer configuration.
    pub localizer: LocalizerConfig,
    /// Subcarrier layout reported by the hardware.
    pub layout: SubcarrierLayout,
    /// The plan cache the estimation hot path (NDFT operators, operator
    /// norms, lobe tables, spline plans) reads from: private to the
    /// session (and its clones) after [`ChronosSession::new`], shared
    /// after [`ChronosSession::with_cache`]. Many sessions may share one
    /// cache — see [`crate::service`].
    pub plans: Arc<PlanCache>,
}

impl ChronosSession {
    /// Creates a session with standard sweep and Intel 5300 reporting,
    /// over a private plan cache.
    pub fn new(ctx: MeasurementContext, config: ChronosConfig) -> Self {
        Self::with_cache(ctx, config, Arc::new(PlanCache::new()))
    }

    /// Creates a session whose estimator reads its plans from a shared
    /// [`PlanCache`]. Estimates are identical to a session with a
    /// private cache; only the plans built once per cache are shared.
    pub fn with_cache(
        ctx: MeasurementContext,
        config: ChronosConfig,
        plans: Arc<PlanCache>,
    ) -> Self {
        ChronosSession {
            ctx,
            sweep_cfg: SweepConfig::standard(),
            config,
            localizer: LocalizerConfig::default(),
            layout: SubcarrierLayout::intel5300(),
            plans,
        }
    }

    /// Runs one full localization sweep starting at `t` under the
    /// session's own link configuration, on a fresh pipeline.
    pub fn sweep<R: Rng + ?Sized>(&self, rng: &mut R, t: Instant) -> SweepOutput {
        let mut pipeline = crate::pipeline::SweepPipeline::new();
        self.sweep_with_pipeline(&self.sweep_cfg, rng, t, &mut pipeline)
    }

    /// Runs one sweep under an explicit link configuration (the engine's
    /// arbiter hands each client a contention-adjusted copy of its sweep
    /// config) over a reusable
    /// [`SweepPipeline`](crate::pipeline::SweepPipeline):
    /// CSI synthesis (path sets, measurement slots) and the estimation
    /// hot path (splice → NDFT/ISTA → profile → first path →
    /// localization) borrow every intermediate from the pipeline's
    /// scratch instead of allocating per sweep. Once the pipeline has
    /// swept comparable data, a sweep allocates only in the link
    /// simulation and for the returned [`SweepOutput`]. Before that, the
    /// second sweep also reserves the spare capture pool, in one
    /// allocation, and a sweep whose data needs more debias or peak-list
    /// scratch than any before grows it: on the office floor, one to
    /// three allocations beyond that budget on the second sweep and at
    /// most one on a later one. Results are bitwise identical to a
    /// sweep on a fresh pipeline, which is all [`ChronosSession::sweep`]
    /// is. The engine keeps one pipeline per worker and feeds it every
    /// sweep (see [`crate::pipeline`]).
    pub fn sweep_with_pipeline<R: Rng + ?Sized>(
        &self,
        sweep_cfg: &SweepConfig,
        rng: &mut R,
        t: Instant,
        pipeline: &mut crate::pipeline::SweepPipeline,
    ) -> SweepOutput {
        let link = run_sweep(sweep_cfg, t, rng);
        let n_rx = self.ctx.responder.antennas.len();
        let plan = &sweep_cfg.plan;

        // The sweep transmits from antenna 0 and neither device moves
        // while it runs: one path set per receive antenna, one
        // line-of-sight flag.
        let slots = &mut pipeline.slots;
        slots.reset(n_rx, plan.len());
        for (antenna, paths) in slots.links[..n_rx].iter_mut().enumerate() {
            self.ctx.link_paths_into(0, antenna, paths);
        }
        let truth_los = self.ctx.is_los();

        // Synthesize each exchange into its (antenna, band) slot. The ACK
        // antenna rotates per exchange within each band.
        for op in &link.measurements {
            let k = slots.exchanges[op.band_index];
            slots.exchanges[op.band_index] += 1;
            let antenna = k % n_rx;
            let m = self.ctx.measure_link(
                rng,
                &plan[op.band_index],
                &self.layout,
                &slots.links[antenna],
                truth_los,
                op.t_forward.as_secs_f64(),
                op.t_reverse.as_secs_f64(),
                slots.spare.pop(),
            );
            slots.push(antenna, op.band_index, m);
        }

        // Estimate per antenna, over the pipeline's scratch arena.
        let estimator = TofEstimator::with_cache(self.config.clone(), Arc::clone(&self.plans));
        let tofs: Vec<Result<TofEstimate, ChronosError>> = (0..n_rx)
            .map(|antenna| {
                let measured = pipeline
                    .slots
                    .bands(antenna)
                    .iter()
                    .filter(|b| !b.measurements.is_empty())
                    .count();
                if !link.complete && measured < 5 {
                    return Err(ChronosError::SweepIncomplete {
                        measured,
                        planned: plan.len(),
                    });
                }
                pipeline.estimate_antenna(&estimator, antenna)
            })
            .collect();

        // Localize from per-antenna distances.
        let antenna_positions = self.ctx.responder.antennas.positions();
        let mut ranges = std::mem::take(&mut pipeline.slots.ranges);
        ranges.clear();
        ranges.extend(tofs.iter().enumerate().filter_map(|(i, r)| {
            r.as_ref().ok().map(|t| AntennaRange {
                antenna: antenna_positions[i],
                distance_m: t.distance_m,
            })
        }));
        let mut position_candidates = Vec::new();
        let located = if ranges.len() >= 2 {
            pipeline.locate_all(&ranges, &self.localizer, &mut position_candidates)
        } else {
            Err(ChronosError::NoConsistentPosition)
        };
        pipeline.slots.ranges = ranges;
        let position = match located {
            Ok(()) => Ok(position_candidates[0]),
            Err(e) => {
                position_candidates.clear();
                Err(e)
            }
        };

        SweepOutput {
            tofs,
            position,
            position_candidates,
            link,
        }
    }

    /// One-time constant calibration (paper §7 obs. 2): runs `n` sweeps at
    /// the session's current (known) geometry and sets
    /// `config.calibration_ns` so estimates match the true distance.
    /// Returns the calibration constant.
    ///
    /// The sweeps share one pipeline, so every sweep after the first
    /// allocates only in its link simulation and for its output.
    pub fn calibrate<R: Rng + ?Sized>(&mut self, rng: &mut R, n: usize) -> f64 {
        let true_d = self.ctx.initiator_pos.dist(self.ctx.responder_pos);
        let mut raw = Vec::with_capacity(n * self.ctx.responder.antennas.len());
        self.config.calibration_ns = 0.0;
        let mut pipeline = crate::pipeline::SweepPipeline::new();
        for i in 0..n {
            let t = Instant::from_millis(200 * i as u64);
            let out = self.sweep_with_pipeline(&self.sweep_cfg, rng, t, &mut pipeline);
            for tof in out.tofs.iter().flatten() {
                raw.push(tof.tof_ns);
            }
        }
        let offset = crate::ranging::calibrate_offset(&raw, true_d);
        if offset.is_finite() {
            self.config.calibration_ns = offset;
        }
        self.config.calibration_ns
    }

    /// Ground-truth distance between the device origins (simulation-only;
    /// used by the harness).
    pub fn truth_distance_m(&self) -> f64 {
        self.ctx.initiator_pos.dist(self.ctx.responder_pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronos_rf::environment::Environment;
    use chronos_rf::geometry::Point;
    use chronos_rf::hardware::{ideal_device, AntennaArray, Intel5300};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ideal_session(d: f64) -> ChronosSession {
        let mut ctx = MeasurementContext::new(
            Environment::free_space(),
            ideal_device(AntennaArray::single()),
            Point::new(0.0, 0.0),
            ideal_device(AntennaArray::laptop()),
            Point::new(d, 0.0),
        );
        ctx.snr.snr_at_1m_db = 60.0;
        let mut s = ChronosSession::new(ctx, ChronosConfig::ideal());
        s.sweep_cfg.medium.loss_prob = 0.0;
        s
    }

    fn intel_session(seed: u64, d: f64) -> ChronosSession {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ctx = MeasurementContext::new(
            Environment::free_space(),
            Intel5300::mobile(&mut rng),
            Point::new(0.0, 0.0),
            Intel5300::laptop(&mut rng),
            Point::new(d, 0.0),
        );
        ctx.snr.snr_at_1m_db = 45.0;
        ChronosSession::new(ctx, ChronosConfig::default())
    }

    #[test]
    fn ideal_sweep_recovers_distances() {
        let s = ideal_session(4.0);
        let mut rng = StdRng::seed_from_u64(1);
        let out = s.sweep(&mut rng, Instant::ZERO);
        assert!(out.link.complete);
        for (i, tof) in out.tofs.iter().enumerate() {
            let tof = tof.as_ref().expect("estimate");
            // True distance differs per antenna by the array offsets.
            let ant = s
                .ctx
                .responder
                .antennas
                .world_positions(s.ctx.responder_pos)[i];
            let truth = ant.dist(s.ctx.initiator_pos);
            assert!(
                (tof.distance_m - truth).abs() < 0.15,
                "antenna {i}: {} vs {truth}",
                tof.distance_m
            );
        }
    }

    #[test]
    fn ideal_sweep_localizes() {
        let s = ideal_session(3.0);
        let mut rng = StdRng::seed_from_u64(2);
        let out = s.sweep(&mut rng, Instant::ZERO);
        let pos = out.position.as_ref().expect("position");
        // Truth in the receiver's frame: initiator at -d on x. The
        // transmitter lies almost along the antenna baseline, the worst
        // geometry for lateral resolution, so the tolerance reflects the
        // paper's sub-meter (58 cm median) regime rather than cm-level.
        let truth = s.ctx.initiator_pos.sub(s.ctx.responder_pos);
        assert!(
            pos.point.dist(truth) < 1.2,
            "pos {:?} truth {:?}",
            pos.point,
            truth
        );
        // The raw per-antenna distances are tight even when lateral GDOP
        // smears the position; the position's radial component inherits a
        // little of that smear through the nonlinear fit.
        let md = out.mean_distance_m().unwrap();
        assert!((md - 3.0).abs() < 0.1, "mean distance {md}");
        assert!(
            (pos.point.norm() - 3.0).abs() < 0.4,
            "range {}",
            pos.point.norm()
        );
    }

    #[test]
    fn intel_session_needs_calibration() {
        // Uncalibrated Intel devices carry hardware delays: estimates are
        // biased; after calibrate() the bias is gone.
        let mut s = intel_session(3, 5.0);
        let mut rng = StdRng::seed_from_u64(4);
        let before = s.sweep(&mut rng, Instant::ZERO);
        let d_before = before.mean_distance_m().expect("estimate");
        let bias_before = (d_before - 5.0).abs();
        assert!(
            bias_before > 0.5,
            "expected hardware bias, got {bias_before}"
        );

        let offset = s.calibrate(&mut rng, 3);
        assert!(offset > 0.0, "offset {offset}");
        let after = s.sweep(&mut rng, Instant::from_millis(5000));
        let d_after = after.mean_distance_m().expect("estimate");
        assert!((d_after - 5.0).abs() < 0.3, "calibrated distance {d_after}");
    }

    #[test]
    fn antenna_rotation_covers_all_antennas() {
        let s = ideal_session(2.0);
        let mut rng = StdRng::seed_from_u64(5);
        let out = s.sweep(&mut rng, Instant::ZERO);
        // All three antennas produced estimates (each got 1 exchange per
        // band with measures_per_band = 3).
        assert_eq!(out.tofs.len(), 3);
        assert!(out.tofs.iter().all(|t| t.is_ok()));
    }

    #[test]
    fn output_helpers() {
        let s = ideal_session(2.0);
        let mut rng = StdRng::seed_from_u64(6);
        let out = s.sweep(&mut rng, Instant::ZERO);
        assert!(out.distance_m(0).is_some());
        assert!(out.distance_m(99).is_none());
        let mean = out.mean_distance_m().unwrap();
        assert!((mean - 2.0).abs() < 0.3, "mean {mean}");
    }
}
