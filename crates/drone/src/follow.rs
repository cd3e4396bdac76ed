//! The closed follow loop (paper §12.4): Chronos sweep -> distance ->
//! control step, with exact ground truth standing in for VICON.
//!
//! Every control tick (one band sweep, ~84 ms): the user walks, the drone
//! runs a Chronos sweep against the user's device, feeds the resulting
//! distance into the [`DistanceController`], and steps radially along the
//! drone-user axis. Heading toward the user comes from the device
//! compasses in the paper; here the true bearing plays that role (the
//! paper's drones also know bearing independently of Chronos — Chronos
//! supplies the *distance*).

use crate::controller::{ControllerConfig, DistanceController};
use crate::dynamics::Quadrotor;
use crate::trajectory::WalkTrajectory;
use chronos_core::config::ChronosConfig;
use chronos_core::engine::ServiceEngine;
use chronos_core::service::ServiceConfig;
use chronos_core::session::ChronosSession;
use chronos_core::tracker::{ClientTracker, PositionTracker, TrackerConfig};
use chronos_core::SweepPipeline;
use chronos_link::time::Instant;
use chronos_rf::csi::MeasurementContext;
use chronos_rf::environment::Environment;
use chronos_rf::geometry::Point;
use chronos_rf::hardware::{AntennaArray, Intel5300};
use rand::Rng;

/// What distance estimate feeds the drone's control loop each tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FollowSource {
    /// The paper's §9 pipeline: raw sweep distances through the
    /// controller's sliding window + MAD outlier rejection.
    #[default]
    RawDistance,
    /// Raw distances fused by a [`ClientTracker`] Kalman filter; the
    /// controller consumes the filtered output directly
    /// ([`DistanceController::observe_filtered`]) so the window does not
    /// double-smooth.
    TrackedDistance,
    /// Full 2-D position fixes from the drone's 3-antenna array
    /// (mirror-resolved and fused by a [`PositionTracker`]); the
    /// controller holds the *range to the fix*. Opens §8's localization
    /// as the control observable (§12.4's endgame).
    Position,
    /// Distances come from the **continuous event-driven engine**
    /// ([`ServiceEngine::run_until`]): the drone-side radio ranges the
    /// user at the engine's own tracker-derived cadence — a full
    /// ACQUIRE sweep to converge, then TRACK-mode subset sweeps that
    /// deliver 2–3 fixes per 84 ms control tick instead of one — and
    /// each tick the controller consumes the tracker's latest fused
    /// distance.
    Continuous,
}

/// Follow-simulation settings.
#[derive(Debug, Clone)]
pub struct FollowConfig {
    /// Controller tuning.
    pub controller: ControllerConfig,
    /// Control/sweep period, seconds (84 ms per the paper).
    pub tick_s: f64,
    /// Number of control ticks to simulate.
    pub ticks: usize,
    /// Estimator configuration (defaults tuned for the close-range room).
    pub chronos: ChronosConfig,
    /// Number of calibration sweeps before the run.
    pub calibration_sweeps: usize,
    /// What estimate drives the controller (see [`FollowSource`]).
    pub source: FollowSource,
    /// Tracker tuning for the non-raw sources.
    pub tracker: TrackerConfig,
}

impl Default for FollowConfig {
    fn default() -> Self {
        // Close-range room: a shorter grid keeps per-tick cost low without
        // touching accuracy (paths < 40 ns round the room).
        let chronos = ChronosConfig {
            grid_span_ns: 100.0,
            ..ChronosConfig::default()
        };
        FollowConfig {
            controller: ControllerConfig::default(),
            tick_s: 0.084,
            ticks: 240,
            chronos,
            calibration_sweeps: 2,
            source: FollowSource::RawDistance,
            // Close range, ~10 Hz fixes: trust the fixes, allow maneuvers.
            tracker: TrackerConfig {
                process_noise_mps2: 3.0,
                measurement_noise_m: 0.1,
                ..TrackerConfig::default()
            },
        }
    }
}

impl FollowConfig {
    /// The default configuration with the given control source.
    pub fn with_source(source: FollowSource) -> Self {
        FollowConfig {
            source,
            ..Default::default()
        }
    }
}

/// One tick of recorded ground truth and estimates.
#[derive(Debug, Clone, Copy)]
pub struct FollowRecord {
    /// Simulation time of the tick, seconds.
    pub t_s: f64,
    /// True user position (the "VICON" record).
    pub user: Point,
    /// True drone position.
    pub drone: Point,
    /// True drone-user distance, meters.
    pub true_distance_m: f64,
    /// Chronos raw distance for this tick, if the sweep succeeded.
    pub measured_distance_m: Option<f64>,
    /// The controller's smoothed distance after this tick.
    pub smoothed_distance_m: Option<f64>,
    /// Tracker-fused distance fed to the controller this tick (non-raw
    /// sources only).
    pub tracked_distance_m: Option<f64>,
    /// Mirror-resolved 2-D position fix of the user in the drone's frame
    /// ([`FollowSource::Position`] only).
    pub position_fix: Option<Point>,
    /// Completed ranging sweeps during this control tick: one for the
    /// tick-locked sources, 2–3 in steady state for
    /// [`FollowSource::Continuous`] (subset sweeps outpace the tick).
    pub sweeps_in_tick: usize,
}

/// The closed-loop simulation.
#[derive(Debug)]
pub struct FollowSim {
    cfg: FollowConfig,
    session: ChronosSession,
    drone: Quadrotor,
    user: WalkTrajectory,
    controller: DistanceController,
    dist_tracker: Option<ClientTracker>,
    pos_tracker: Option<PositionTracker>,
    /// One-client continuous ranging engine
    /// ([`FollowSource::Continuous`] only; built in `run()` after
    /// calibration so the engine adopts the calibrated session).
    service: Option<ServiceEngine>,
    /// Seed for the engine's per-sweep RNG streams.
    seed: u64,
}

impl FollowSim {
    /// Builds the §12.4 scenario: a 6 m x 5 m room, an Intel 5300 netbook
    /// on the user, a 3-antenna Intel 5300 on the drone.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, cfg: FollowConfig, seed: u64) -> Self {
        let user = WalkTrajectory::new(seed);
        let user_pos = user.position();
        // Drone starts roughly at target distance from the user.
        let drone_pos = Point::new(
            (user_pos.x + cfg.controller.target_m).min(5.5),
            user_pos.y.clamp(0.5, 4.5),
        );
        let mut ctx = MeasurementContext::new(
            Environment::free_space(), // mocap rooms are kept clear
            Intel5300::mobile(rng),
            user_pos,
            Intel5300::device(rng, AntennaArray::laptop()),
            drone_pos,
        );
        ctx.snr.snr_at_1m_db = 42.0;
        let mut session = ChronosSession::new(ctx, cfg.chronos.clone());
        session.sweep_cfg.medium.loss_prob = 0.005;
        let controller = DistanceController::new(cfg.controller);
        let dist_tracker =
            (cfg.source == FollowSource::TrackedDistance).then(|| ClientTracker::new(cfg.tracker));
        let pos_tracker =
            (cfg.source == FollowSource::Position).then(|| PositionTracker::new(cfg.tracker));
        FollowSim {
            cfg,
            session,
            drone: Quadrotor::new(drone_pos),
            user,
            controller,
            dist_tracker,
            pos_tracker,
            service: None,
            seed,
        }
    }

    /// Runs calibration then the full follow loop, returning the per-tick
    /// records.
    pub fn run<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Vec<FollowRecord> {
        // One-time constant calibration at the known starting geometry
        // (paper §7 obs. 2).
        if self.cfg.calibration_sweeps > 0 {
            self.session.ctx.initiator_pos = self.user.position();
            self.session.ctx.responder_pos = self.drone.position;
            self.session.calibrate(rng, self.cfg.calibration_sweeps);
        }
        if self.cfg.source == FollowSource::Continuous {
            // The continuous engine adopts the calibrated session; the
            // drone-side radio then sweeps at the engine's own cadence
            // rather than once per control tick.
            let mut svc = ServiceEngine::new(ServiceConfig::adaptive(self.cfg.tracker));
            svc.join_session(self.session.clone());
            self.service = Some(svc);
        }

        let mut records = Vec::with_capacity(self.cfg.ticks);
        // Tick-locked sweeps reuse one pipeline for the whole run.
        let mut pipeline = SweepPipeline::new();
        for tick in 0..self.cfg.ticks {
            let t_s = tick as f64 * self.cfg.tick_s;
            // User walks during the tick.
            let user_pos = self.user.step(self.cfg.tick_s);

            let measured;
            let sweeps_in_tick;
            let mut tracked = None;
            let mut position_fix = None;
            if self.cfg.source == FollowSource::Continuous {
                // Geometry update, then run the engine through the tick:
                // it admits as many sweeps as the airtime allows (one
                // ACQUIRE, or 2–3 TRACK subsets) and fuses every fix.
                let svc = self.service.as_mut().expect("continuous service");
                {
                    let s = svc.session_mut(0);
                    s.ctx.initiator_pos = user_pos;
                    s.ctx.responder_pos = self.drone.position;
                }
                let w = svc.run_until(
                    self.seed ^ 0xD05E_F011,
                    Instant::from_secs_f64(t_s + self.cfg.tick_s),
                );
                sweeps_in_tick = w.completed();
                measured = w.outcomes.iter().rev().find_map(|o| o.distance_m);
                tracked = svc.tracker(0).and_then(|t| t.filter().predicted_distance());
            } else {
                // Geometry update, then one tick-locked Chronos sweep.
                self.session.ctx.initiator_pos = user_pos;
                self.session.ctx.responder_pos = self.drone.position;
                let out = self.session.sweep_with_pipeline(
                    &self.session.sweep_cfg,
                    rng,
                    Instant::from_secs_f64(t_s),
                    &mut pipeline,
                );
                measured = out.mean_distance_m();
                sweeps_in_tick = usize::from(measured.is_some());
                match self.cfg.source {
                    FollowSource::RawDistance => {
                        if let Some(d) = measured {
                            self.controller.observe(d);
                        }
                    }
                    FollowSource::TrackedDistance => {
                        let tracker = self.dist_tracker.as_mut().expect("tracked source");
                        let upd = tracker.observe(
                            Instant::from_secs_f64(t_s),
                            measured,
                            out.link.complete,
                        );
                        tracked = upd.fused;
                    }
                    FollowSource::Position => {
                        // The user's position in the drone's frame:
                        // per-antenna ToF circles intersected, mirror
                        // resolved against the tracker's motion prior.
                        // The controller holds the range to the fused fix.
                        let tracker = self.pos_tracker.as_mut().expect("position source");
                        let resolved = tracker.resolve(&out.position_candidates);
                        position_fix = resolved.map(|p| p.point);
                        let upd = tracker.observe(
                            Instant::from_secs_f64(t_s),
                            position_fix,
                            out.link.complete,
                        );
                        tracked = upd.fused.map(Point::norm);
                    }
                    FollowSource::Continuous => unreachable!("handled above"),
                }
            }
            match (self.cfg.source, tracked) {
                (FollowSource::RawDistance, _) => {}
                // Tracker output is already filtered: bypass the §9
                // window so the loop does not smooth twice.
                (_, Some(d)) => self.controller.observe_filtered(d),
                // Tracker not seeded yet (no usable fix so far): fall
                // back to the raw pipeline rather than flying blind.
                (_, None) => {
                    if let Some(d) = measured {
                        self.controller.observe(d);
                    }
                }
            }

            // Control step along the true bearing (compass stand-in).
            let correction = self.controller.correction();
            let bearing = self.drone.position.sub(user_pos).normalized();
            let command = bearing.scale(correction);
            self.drone.step(rng, command, self.cfg.tick_s);

            records.push(FollowRecord {
                t_s,
                user: user_pos,
                drone: self.drone.position,
                true_distance_m: self.drone.position.dist(user_pos),
                measured_distance_m: measured,
                smoothed_distance_m: self.controller.smoothed_distance(),
                tracked_distance_m: tracked,
                position_fix,
                sweeps_in_tick,
            });
        }
        records
    }

    /// Deviation-from-target samples (|true distance − target|), meters,
    /// skipping the first `warmup` ticks — the Fig. 10(a) observable.
    pub fn deviations(records: &[FollowRecord], target_m: f64, warmup: usize) -> Vec<f64> {
        records
            .iter()
            .skip(warmup)
            .map(|r| (r.true_distance_m - target_m).abs())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn quick_cfg(ticks: usize) -> FollowConfig {
        let mut cfg = FollowConfig {
            ticks,
            ..Default::default()
        };
        // Keep unit tests fast.
        cfg.chronos.max_iters = 150;
        cfg.chronos.grid_step_ns = 0.5;
        cfg
    }

    #[test]
    fn follow_loop_runs_and_records() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut sim = FollowSim::new(&mut rng, quick_cfg(20), 1);
        let records = sim.run(&mut rng);
        assert_eq!(records.len(), 20);
        assert!(records.iter().all(|r| r.true_distance_m > 0.0));
        // Most ticks produced a measurement.
        let measured = records
            .iter()
            .filter(|r| r.measured_distance_m.is_some())
            .count();
        assert!(measured >= 15, "only {measured} measured ticks");
    }

    #[test]
    fn drone_converges_toward_target_distance() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut sim = FollowSim::new(&mut rng, quick_cfg(80), 2);
        let records = sim.run(&mut rng);
        let early: Vec<f64> = FollowSim::deviations(&records[..20], 1.4, 0);
        let late: Vec<f64> = FollowSim::deviations(&records, 1.4, 50);
        let early_med = chronos_math::stats::median(&early);
        let late_med = chronos_math::stats::median(&late);
        assert!(
            late_med < early_med.max(0.12) + 0.05,
            "no convergence: early {early_med}, late {late_med}"
        );
        // Steady state holds within tens of centimeters at worst.
        assert!(late_med < 0.30, "late deviation {late_med}");
    }

    #[test]
    fn tracked_source_feeds_filtered_distance_and_converges() {
        let mut cfg = quick_cfg(80);
        cfg.source = FollowSource::TrackedDistance;
        let mut rng = StdRng::seed_from_u64(21);
        let mut sim = FollowSim::new(&mut rng, cfg, 2);
        let records = sim.run(&mut rng);
        // Once the tracker seeds, the controller consumes its output
        // verbatim — no second pass through the averaging window.
        let fed: Vec<&FollowRecord> = records
            .iter()
            .filter(|r| r.tracked_distance_m.is_some())
            .collect();
        assert!(fed.len() > 60, "tracker fed only {} ticks", fed.len());
        for r in &fed {
            assert_eq!(r.smoothed_distance_m, r.tracked_distance_m);
        }
        let late = FollowSim::deviations(&records, 1.4, 50);
        let late_med = chronos_math::stats::median(&late);
        assert!(late_med < 0.30, "late deviation {late_med}");
    }

    #[test]
    fn position_source_holds_target_from_2d_fixes() {
        let mut cfg = quick_cfg(80);
        cfg.source = FollowSource::Position;
        let mut rng = StdRng::seed_from_u64(22);
        let mut sim = FollowSim::new(&mut rng, cfg, 3);
        let records = sim.run(&mut rng);
        let fixes = records.iter().filter(|r| r.position_fix.is_some()).count();
        assert!(fixes > 40, "only {fixes} position fixes");
        // The fused fix's range must agree with true distance once
        // converged (position error folds antenna geometry in, so the
        // tolerance is looser than scalar ranging).
        let late = FollowSim::deviations(&records, 1.4, 50);
        let late_med = chronos_math::stats::median(&late);
        assert!(late_med < 0.40, "late deviation {late_med}");
    }

    #[test]
    fn continuous_source_outpaces_the_tick_and_converges() {
        let mut cfg = quick_cfg(60);
        cfg.source = FollowSource::Continuous;
        let mut rng = StdRng::seed_from_u64(23);
        let mut sim = FollowSim::new(&mut rng, cfg, 4);
        let records = sim.run(&mut rng);
        // Once the engine's tracker promotes to TRACK, subset sweeps
        // outpace the 84 ms control tick: several fixes per tick.
        let busy_ticks = records.iter().filter(|r| r.sweeps_in_tick >= 2).count();
        assert!(busy_ticks >= 20, "only {busy_ticks} multi-sweep ticks");
        let fed = records
            .iter()
            .filter(|r| r.tracked_distance_m.is_some())
            .count();
        assert!(fed > 40, "engine tracker fed only {fed} ticks");
        let late = FollowSim::deviations(&records, 1.4, 40);
        let late_med = chronos_math::stats::median(&late);
        assert!(late_med < 0.35, "late deviation {late_med}");
    }

    #[test]
    fn records_have_consistent_truth() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut sim = FollowSim::new(&mut rng, quick_cfg(10), 3);
        let records = sim.run(&mut rng);
        for r in &records {
            assert!((r.drone.dist(r.user) - r.true_distance_m).abs() < 1e-12);
        }
    }

    #[test]
    fn deviations_helper_skips_warmup() {
        let records = vec![
            FollowRecord {
                t_s: 0.0,
                user: Point::new(0.0, 0.0),
                drone: Point::new(3.0, 0.0),
                true_distance_m: 3.0,
                measured_distance_m: None,
                smoothed_distance_m: None,
                tracked_distance_m: None,
                position_fix: None,
                sweeps_in_tick: 0,
            },
            FollowRecord {
                t_s: 0.1,
                user: Point::new(0.0, 0.0),
                drone: Point::new(1.5, 0.0),
                true_distance_m: 1.5,
                measured_distance_m: None,
                smoothed_distance_m: None,
                tracked_distance_m: None,
                position_fix: None,
                sweeps_in_tick: 0,
            },
        ];
        let d = FollowSim::deviations(&records, 1.4, 1);
        assert_eq!(d.len(), 1);
        assert!((d[0] - 0.1).abs() < 1e-12);
    }
}
