//! Online per-client tracking and the adaptive sweep mode machine.
//!
//! A full Chronos fix sweeps all 35 bands; at service scale that per-fix
//! airtime — not compute — caps how many clients one access point can
//! localize (the airtime ceiling an epoch round's
//! [`crate::engine::WindowReport::sweeps_per_sec`] reports). But a
//! client being ranged every ~100 ms does not *need* a cold-start fix
//! every epoch: its distance is a slowly varying physical quantity, and
//! a constant-velocity filter carries an excellent prior between fixes.
//! With that prior in hand, a **subset** of bands (chosen for low
//! grating-lobe ambiguity, [`chronos_rf::subset`]) suffices to refine
//! the estimate, and the innovation of each fix tells the scheduler when
//! the prior has gone stale and a full re-acquisition is due.
//!
//! The module has two layers:
//!
//! * Two constant-velocity Kalman filters with a white-acceleration
//!   process model, both implementing [`TrackFilter`]:
//!   [`DistanceFilter`] (2-state: distance, radial velocity) for a
//!   client's range, and [`PositionFilter`] (4-state: x, y, vx, vy) for
//!   its 2-D position (paper §8). Each exposes the predicted estimate,
//!   the innovation of a measurement, and that innovation in sigma
//!   units, so the caller can gate outliers.
//! * [`Tracker`] — the one per-client mode machine driving the
//!   scheduler, generic over its filter: **ACQUIRE** (full sweep every
//!   epoch, converging the filter) ⇄ **TRACK** (subset sweeps,
//!   filter-fused output), with transitions on good-fix streaks,
//!   innovation spikes (client moved in a way the model cannot explain
//!   — e.g. picked up and carried), and repeated incomplete sweeps.
//!   [`ClientTracker`] tracks a distance and [`PositionTracker`] a
//!   position; the latter also resolves mirror candidates against its
//!   motion prior and re-frames its track on handoff.
//!
//! Tuning guidance — what the knobs trade off and how to pick them —
//! lives in `docs/TRACKING.md`.

use crate::localization::Position;
use chronos_link::time::Instant;
use chronos_rf::geometry::Point;

/// Which sweep the scheduler should issue for a client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrackMode {
    /// Cold or invalidated prior: sweep the full band plan.
    Acquire,
    /// Converged prior: sweep a low-ambiguity band subset and fuse the
    /// fix into the filter.
    Track,
}

/// Tracker policy knobs. Defaults suit a walking-speed indoor client
/// ranged every ~100 ms; `docs/TRACKING.md` documents the tuning story.
#[derive(Debug, Clone, Copy)]
pub struct TrackerConfig {
    /// White-acceleration process noise, m/s² (standard deviation). The
    /// model's allowance for unmodeled motion: higher tracks maneuvers
    /// faster but trusts single fixes more.
    pub process_noise_mps2: f64,
    /// Per-fix measurement noise, meters (standard deviation of one
    /// sweep's distance estimate; the paper's LOS regime is ~0.1–0.15 m).
    pub measurement_noise_m: f64,
    /// Innovation gate in standard deviations: a fix whose innovation
    /// exceeds `gate_sigma · √S` (S = innovation variance) is treated as
    /// a track break — the filter re-seeds and the mode machine drops to
    /// ACQUIRE.
    pub gate_sigma: f64,
    /// Consecutive successful full-sweep fixes required before leaving
    /// ACQUIRE for TRACK.
    pub acquire_fixes: usize,
    /// Consecutive missed fixes (incomplete sweep or no estimate)
    /// tolerated in TRACK before falling back to ACQUIRE.
    pub max_missed: usize,
    /// TRACK-mode subset size (bands per sweep). Sizes below ~8 trade
    /// steeply rising grating-lobe ambiguity for little extra airtime —
    /// see the subset-selection rationale in `docs/TRACKING.md`.
    pub track_bands: usize,
    /// Per-client anomaly-score accumulation knobs (see
    /// `docs/ADVERSARIAL.md`).
    pub anomaly: AnomalyConfig,
}

impl Default for TrackerConfig {
    fn default() -> Self {
        TrackerConfig {
            process_noise_mps2: 2.0,
            measurement_noise_m: 0.15,
            gate_sigma: 5.0,
            acquire_fixes: 2,
            max_missed: 2,
            track_bands: 12,
            anomaly: AnomalyConfig::default(),
        }
    }
}

/// Knobs for the per-client anomaly score: an EWMA of normalized
/// innovation magnitudes plus a run counter of consecutive gated or
/// missed sweeps. The score is what the service-level quarantine policy
/// thresholds (see `chronos_core::service::QuarantineConfig` and the
/// math in `docs/ADVERSARIAL.md`).
#[derive(Debug, Clone, Copy)]
pub struct AnomalyConfig {
    /// EWMA smoothing factor in `(0, 1]`: the weight of the newest
    /// normalized innovation. Higher reacts faster, lower holds evidence
    /// longer.
    pub ewma_alpha: f64,
    /// Clamp on any single observation's contribution, in sigmas. A
    /// teleport-grade innovation is astronomical in sigma units; the
    /// clamp keeps one sample from saturating the score forever.
    pub sigma_clamp: f64,
    /// Score contribution per element of the current gate-miss run. Each
    /// consecutive gated or missed sweep adds this much on top of the
    /// EWMA term.
    pub miss_weight: f64,
}

impl Default for AnomalyConfig {
    fn default() -> Self {
        AnomalyConfig {
            ewma_alpha: 0.3,
            sigma_clamp: 16.0,
            miss_weight: 1.0,
        }
    }
}

/// Per-client anomaly evidence: the state behind the scalar score.
///
/// Deliberately *not* cleared on re-ACQUIRE: the gate re-seeds the filter
/// at a spoofed fix within one sweep, so any evidence tied to mode
/// transitions would vanish as fast as the attack creates it. Recovery is
/// instead governed by the EWMA decay under clean fixes plus the
/// service's quarantine hysteresis. A client that leaves and rejoins gets
/// a fresh tracker and therefore a zeroed score (tested in
/// `tests/engine.rs`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnomalyScore {
    /// EWMA of clamped normalized innovations, sigmas.
    pub ewma_sigmas: f64,
    /// Consecutive gated-or-missed sweeps ending now.
    pub run: usize,
}

impl AnomalyScore {
    fn fresh() -> Self {
        AnomalyScore {
            ewma_sigmas: 0.0,
            run: 0,
        }
    }

    /// The scalar score the quarantine policy thresholds:
    /// `ewma + miss_weight · run`.
    pub fn value(&self, cfg: &AnomalyConfig) -> f64 {
        self.ewma_sigmas + cfg.miss_weight * self.run as f64
    }

    fn absorb_sigmas(&mut self, cfg: &AnomalyConfig, sigmas: f64) {
        let clamped = sigmas.min(cfg.sigma_clamp);
        self.ewma_sigmas += cfg.ewma_alpha * (clamped - self.ewma_sigmas);
    }

    /// A fix passed the gate and was fused: absorb its (small) innovation
    /// and break any miss run.
    fn observe_fused(&mut self, cfg: &AnomalyConfig, sigmas: f64) {
        self.absorb_sigmas(cfg, sigmas);
        self.run = 0;
    }

    /// A fix tripped the gate: absorb the (clamped) spike and extend the
    /// run.
    fn observe_gated(&mut self, cfg: &AnomalyConfig, sigmas: f64) {
        self.absorb_sigmas(cfg, sigmas);
        self.run += 1;
    }

    /// The sweep produced no fusable fix: extend the run.
    fn observe_miss(&mut self) {
        self.run += 1;
    }
}

/// The Kalman filter a [`Tracker`] drives: [`DistanceFilter`] over a
/// distance, [`PositionFilter`] over a 2-D position. The tracker is
/// generic over it (static dispatch), so both share one mode machine.
pub trait TrackFilter {
    /// One measurement, and the filter's estimate: meters, or a point.
    type Fix: Copy;
    /// One measurement's innovation statistics.
    type Innovation: Copy;

    /// Creates an empty filter with the given noise standard deviations
    /// (process noise in m/s², measurement noise in meters; per axis for
    /// a position).
    fn new(process_noise_mps2: f64, measurement_noise_m: f64) -> Self;

    /// Propagates the state `dt_s` seconds forward under the constant-
    /// velocity model, inflating covariance by the white-acceleration
    /// process noise. No-op before initialization.
    fn predict(&mut self, dt_s: f64);

    /// The innovation a measurement `z` *would* produce right now,
    /// without fusing it — the outlier gate reads this before deciding
    /// whether to call [`TrackFilter::update`]. `None` before
    /// initialization.
    fn innovation(&self, z: Self::Fix) -> Option<Self::Innovation>;

    /// Fuses a measurement. The first call seeds the state at the
    /// measurement with zero velocity and a large velocity variance;
    /// later calls run the standard Kalman update. Returns the
    /// innovation (zero for the seeding fix).
    fn update(&mut self, z: Self::Fix) -> Self::Innovation;

    /// Drops the state (track break): the next update re-seeds.
    fn reset(&mut self);

    /// Current (post-predict) estimate; `None` before initialization.
    fn estimate(&self) -> Option<Self::Fix>;

    /// An innovation's size in standard deviations — what the gate and
    /// the anomaly score read.
    fn sigmas(innovation: &Self::Innovation) -> f64;

    /// Whether a measurement is finite (every coordinate of a point).
    /// [`Tracker::observe`] counts a non-finite fix as a miss.
    fn is_finite(z: Self::Fix) -> bool;
}

/// A 2-state constant-velocity Kalman filter over distance.
///
/// State `x = [d, v]` (meters, meters/second), white-acceleration
/// process noise of density `q²`, scalar distance measurements with
/// noise `r²`. Uninitialized until the first measurement seeds it.
///
/// ```
/// use chronos_core::tracker::{DistanceFilter, TrackFilter};
///
/// let mut f = DistanceFilter::new(2.0, 0.15);
/// f.update(5.0);                      // seed at the first fix
/// for _ in 0..20 {
///     f.predict(0.1);                 // 100 ms between fixes...
///     f.update(5.0 + 0.02);           // ...all near 5.02 m
/// }
/// let d = f.predicted_distance().unwrap();
/// assert!((d - 5.02).abs() < 0.05, "converged to {d}");
/// assert!(f.velocity().unwrap().abs() < 0.2, "static client");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct DistanceFilter {
    /// Process noise (acceleration std), m/s².
    q: f64,
    /// Measurement noise std, m.
    r: f64,
    /// State estimate, present after the first update.
    state: Option<[f64; 2]>,
    /// Covariance [[p00, p01], [p01, p11]].
    p: [f64; 3],
}

/// One measurement's innovation statistics.
#[derive(Debug, Clone, Copy)]
pub struct Innovation {
    /// Measurement minus predicted distance, meters.
    pub nu_m: f64,
    /// Innovation variance `S = P₀₀ + R`, meters².
    pub s_m2: f64,
}

impl Innovation {
    /// The innovation in standard deviations, `|ν| / √S`.
    pub fn sigmas(&self) -> f64 {
        self.nu_m.abs() / self.s_m2.sqrt().max(1e-12)
    }
}

impl TrackFilter for DistanceFilter {
    type Fix = f64;
    type Innovation = Innovation;

    fn new(process_noise_mps2: f64, measurement_noise_m: f64) -> Self {
        DistanceFilter {
            q: process_noise_mps2,
            r: measurement_noise_m,
            state: None,
            p: [0.0; 3],
        }
    }

    fn predict(&mut self, dt_s: f64) {
        let Some(x) = self.state.as_mut() else { return };
        let dt = dt_s.max(0.0);
        x[0] += x[1] * dt;
        let [p00, p01, p11] = self.p;
        let q2 = self.q * self.q;
        // P ← F P Fᵀ + Q, F = [[1, dt], [0, 1]],
        // Q = q² [[dt⁴/4, dt³/2], [dt³/2, dt²]].
        let n00 = p00 + 2.0 * dt * p01 + dt * dt * p11 + q2 * dt.powi(4) / 4.0;
        let n01 = p01 + dt * p11 + q2 * dt.powi(3) / 2.0;
        let n11 = p11 + q2 * dt * dt;
        self.p = [n00, n01, n11];
    }

    fn innovation(&self, z_m: f64) -> Option<Innovation> {
        let x = self.state.as_ref()?;
        Some(Innovation {
            nu_m: z_m - x[0],
            s_m2: self.p[0] + self.r * self.r,
        })
    }

    fn update(&mut self, z_m: f64) -> Innovation {
        match self.state.as_mut() {
            None => {
                self.state = Some([z_m, 0.0]);
                // Confident in position (one fix), agnostic in velocity.
                self.p = [self.r * self.r, 0.0, 4.0];
                Innovation {
                    nu_m: 0.0,
                    s_m2: self.r * self.r,
                }
            }
            Some(x) => {
                let [p00, p01, p11] = self.p;
                let s = p00 + self.r * self.r;
                let nu = z_m - x[0];
                let k0 = p00 / s;
                let k1 = p01 / s;
                x[0] += k0 * nu;
                x[1] += k1 * nu;
                // Joseph-free standard form: P ← (I − K H) P.
                self.p = [(1.0 - k0) * p00, (1.0 - k0) * p01, p11 - k1 * p01];
                Innovation { nu_m: nu, s_m2: s }
            }
        }
    }

    fn reset(&mut self) {
        self.state = None;
        self.p = [0.0; 3];
    }

    fn estimate(&self) -> Option<f64> {
        self.predicted_distance()
    }

    fn sigmas(innovation: &Innovation) -> f64 {
        innovation.sigmas()
    }

    fn is_finite(z_m: f64) -> bool {
        z_m.is_finite()
    }
}

impl DistanceFilter {
    /// Whether the filter holds a state (a first fix has been fused).
    pub fn is_initialized(&self) -> bool {
        self.state.is_some()
    }

    /// Current (post-predict) distance estimate, meters.
    pub fn predicted_distance(&self) -> Option<f64> {
        self.state.map(|x| x[0])
    }

    /// Current radial-velocity estimate, m/s (positive = receding).
    pub fn velocity(&self) -> Option<f64> {
        self.state.map(|x| x[1])
    }

    /// Distance-estimate standard deviation, meters.
    pub fn sigma_m(&self) -> Option<f64> {
        self.state.map(|_| self.p[0].max(0.0).sqrt())
    }

    /// Shifts the distance estimate by `delta_m` without touching
    /// velocity or covariance — a coordinate-frame change, not new
    /// information. No-op before initialization. Used by fleet handoff
    /// to re-express a migrated track in the new serving AP's frame.
    pub fn shift(&mut self, delta_m: f64) {
        if let Some(x) = self.state.as_mut() {
            x[0] += delta_m;
        }
    }
}

/// One 2-D position measurement's innovation statistics.
#[derive(Debug, Clone, Copy)]
pub struct PositionInnovation {
    /// Measurement minus predicted position, meters.
    pub nu: Point,
    /// Innovation variance of the x axis, meters².
    pub s_x_m2: f64,
    /// Innovation variance of the y axis, meters².
    pub s_y_m2: f64,
}

impl PositionInnovation {
    /// The innovation's Mahalanobis distance in standard deviations,
    /// `√(νₓ²/Sₓ + ν_y²/S_y)` — the position-space generalization of
    /// [`Innovation::sigmas`].
    pub fn sigmas(&self) -> f64 {
        let sx = self.s_x_m2.max(1e-12);
        let sy = self.s_y_m2.max(1e-12);
        (self.nu.x * self.nu.x / sx + self.nu.y * self.nu.y / sy).sqrt()
    }
}

/// A 4-state (x, y, vx, vy) constant-velocity Kalman filter over 2-D
/// position — the planar generalization of [`DistanceFilter`].
///
/// Under a white-acceleration process model with isotropic noise and
/// per-axis position measurements, the 4×4 covariance stays block
/// diagonal per axis, so the filter decomposes exactly into two
/// independent [`DistanceFilter`]s sharing their scalar update math.
///
/// ```
/// use chronos_core::tracker::{PositionFilter, TrackFilter};
/// use chronos_rf::geometry::Point;
///
/// let mut f = PositionFilter::new(2.0, 0.2);
/// f.update(Point::new(3.0, 4.0));          // seed at the first fix
/// for _ in 0..20 {
///     f.predict(0.1);                      // 100 ms between fixes...
///     f.update(Point::new(3.0, 4.05));     // ...all near (3, 4.05)
/// }
/// let p = f.predicted_position().unwrap();
/// assert!(p.dist(Point::new(3.0, 4.05)) < 0.05, "converged to {p:?}");
/// assert!(f.velocity().unwrap().norm() < 0.3, "static client");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct PositionFilter {
    x: DistanceFilter,
    y: DistanceFilter,
}

impl TrackFilter for PositionFilter {
    type Fix = Point;
    type Innovation = PositionInnovation;

    fn new(process_noise_mps2: f64, measurement_noise_m: f64) -> Self {
        PositionFilter {
            x: DistanceFilter::new(process_noise_mps2, measurement_noise_m),
            y: DistanceFilter::new(process_noise_mps2, measurement_noise_m),
        }
    }

    fn predict(&mut self, dt_s: f64) {
        self.x.predict(dt_s);
        self.y.predict(dt_s);
    }

    fn innovation(&self, z: Point) -> Option<PositionInnovation> {
        let ix = self.x.innovation(z.x)?;
        let iy = self.y.innovation(z.y)?;
        Some(PositionInnovation {
            nu: Point::new(ix.nu_m, iy.nu_m),
            s_x_m2: ix.s_m2,
            s_y_m2: iy.s_m2,
        })
    }

    fn update(&mut self, z: Point) -> PositionInnovation {
        let ix = self.x.update(z.x);
        let iy = self.y.update(z.y);
        PositionInnovation {
            nu: Point::new(ix.nu_m, iy.nu_m),
            s_x_m2: ix.s_m2,
            s_y_m2: iy.s_m2,
        }
    }

    fn reset(&mut self) {
        self.x.reset();
        self.y.reset();
    }

    fn estimate(&self) -> Option<Point> {
        self.predicted_position()
    }

    fn sigmas(innovation: &PositionInnovation) -> f64 {
        innovation.sigmas()
    }

    fn is_finite(z: Point) -> bool {
        z.is_finite()
    }
}

impl PositionFilter {
    /// Whether the filter holds a state (a first fix has been fused).
    pub fn is_initialized(&self) -> bool {
        self.x.is_initialized()
    }

    /// Current (post-predict) position estimate, meters.
    pub fn predicted_position(&self) -> Option<Point> {
        Some(Point::new(
            self.x.predicted_distance()?,
            self.y.predicted_distance()?,
        ))
    }

    /// Current velocity estimate, m/s.
    pub fn velocity(&self) -> Option<Point> {
        Some(Point::new(self.x.velocity()?, self.y.velocity()?))
    }

    /// Position-estimate standard deviation, meters (RSS of the two axis
    /// sigmas).
    pub fn sigma_m(&self) -> Option<f64> {
        let sx = self.x.sigma_m()?;
        let sy = self.y.sigma_m()?;
        Some(sx.hypot(sy))
    }

    /// Translates the position estimate by `delta` without touching
    /// velocity or covariance — a pure coordinate-frame change (the
    /// client did not move; the origin did). No-op before
    /// initialization.
    pub fn translate(&mut self, delta: Point) {
        self.x.shift(delta.x);
        self.y.shift(delta.y);
    }
}

/// What one sweep's fix did to a client's track.
#[derive(Debug, Clone, Copy)]
pub struct TrackUpdate<F: TrackFilter> {
    /// Mode the sweep was issued under.
    pub mode: TrackMode,
    /// Mode for the *next* sweep, after this fix was absorbed.
    pub next_mode: TrackMode,
    /// Filter prediction for this sweep, before fusing the fix (meters,
    /// or a point).
    pub predicted: Option<F::Fix>,
    /// Fused (post-update) estimate — the tracker's output.
    pub fused: Option<F::Fix>,
    /// Innovation of the fix, when one was fused or gated.
    pub innovation: Option<F::Innovation>,
    /// Whether the fix was rejected by the innovation gate (track break).
    pub gated: bool,
    /// The client's anomaly score after absorbing this sweep.
    pub anomaly_score: f64,
}

/// Per-client tracking state machine: a [`TrackFilter`] plus the
/// ACQUIRE ⇄ TRACK mode logic the adaptive scheduler consults. The
/// [`TrackerConfig`] noise knobs are interpreted per axis for a
/// position, and `gate_sigma` gates [`TrackFilter::sigmas`] — the 2-D
/// Mahalanobis distance for a position.
#[derive(Debug, Clone)]
pub struct Tracker<F> {
    cfg: TrackerConfig,
    filter: F,
    mode: TrackMode,
    /// Consecutive successful fixes in the current ACQUIRE stint.
    good_streak: usize,
    /// Consecutive missed fixes in the current TRACK stint.
    missed: usize,
    /// Simulated time of the last absorbed sweep.
    last_t: Option<Instant>,
    /// Accumulated anomaly evidence (survives re-ACQUIRE by design).
    anomaly: AnomalyScore,
}

/// A [`Tracker`] over a client's distance.
pub type ClientTracker = Tracker<DistanceFilter>;

/// A [`Tracker`] over a client's 2-D position, gating in position space
/// and resolving mirror candidates against the motion prior (paper §8's
/// mobility heuristic, [`PositionTracker::resolve`]).
pub type PositionTracker = Tracker<PositionFilter>;

impl<F: TrackFilter> Tracker<F> {
    /// A fresh tracker in ACQUIRE mode.
    pub fn new(cfg: TrackerConfig) -> Self {
        Tracker {
            filter: F::new(cfg.process_noise_mps2, cfg.measurement_noise_m),
            cfg,
            mode: TrackMode::Acquire,
            good_streak: 0,
            missed: 0,
            last_t: None,
            anomaly: AnomalyScore::fresh(),
        }
    }

    /// The mode the next sweep should be issued under.
    pub fn mode(&self) -> TrackMode {
        self.mode
    }

    /// Consecutive missed fixes in the current TRACK stint.
    pub fn missed(&self) -> usize {
        self.missed
    }

    /// Consecutive successful fixes in the current ACQUIRE stint.
    pub fn good_streak(&self) -> usize {
        self.good_streak
    }

    /// The accumulated anomaly evidence.
    pub fn anomaly(&self) -> AnomalyScore {
        self.anomaly
    }

    /// The scalar anomaly score the quarantine policy thresholds.
    pub fn anomaly_score(&self) -> f64 {
        self.anomaly.value(&self.cfg.anomaly)
    }

    /// Drops back to ACQUIRE, explicitly clearing the mode machine's
    /// transient counters (`good_streak`, `missed`) so they cannot leak
    /// into the next stint. The anomaly evidence is deliberately *not*
    /// cleared here — see [`AnomalyScore`].
    fn reacquire(&mut self) {
        self.mode = TrackMode::Acquire;
        self.good_streak = 0;
        self.missed = 0;
    }

    /// Bands the next sweep should cover: `None` = the full plan
    /// (ACQUIRE), `Some(k)` = a k-band subset (TRACK).
    pub fn requested_bands(&self) -> Option<usize> {
        match self.mode {
            TrackMode::Acquire => None,
            TrackMode::Track => Some(self.cfg.track_bands),
        }
    }

    /// Read access to the underlying filter.
    pub fn filter(&self) -> &F {
        &self.filter
    }

    /// Absorbs one sweep's fix at simulated time `t`: advances the
    /// filter by the elapsed time, applies the innovation gate, fuses or
    /// rejects the measurement, and steps the mode machine.
    ///
    /// `fix` is the sweep's estimate (`None` when the sweep produced no
    /// usable one — no distance, or a localization that failed);
    /// `link_complete` is whether the link-layer sweep covered its whole
    /// plan. A non-finite fix counts as a miss: it is never fused and
    /// never seeds the filter.
    pub fn observe(
        &mut self,
        t: Instant,
        fix: Option<F::Fix>,
        link_complete: bool,
    ) -> TrackUpdate<F> {
        let mode = self.mode;
        let dt_s = self
            .last_t
            .map(|prev| t.saturating_since(prev).as_secs_f64())
            .unwrap_or(0.0);
        self.last_t = Some(t);
        self.filter.predict(dt_s);
        let predicted = self.filter.estimate();

        let mut gated = false;
        let mut innovation = None;
        match fix {
            Some(z) if link_complete && F::is_finite(z) => {
                if let Some(inn) = self.filter.innovation(z) {
                    let sigmas = F::sigmas(&inn);
                    if sigmas > self.cfg.gate_sigma {
                        // Track break: the world moved in a way the model
                        // cannot explain. Re-seed at the new fix so the
                        // next ACQUIRE stint converges there.
                        gated = true;
                        innovation = Some(inn);
                        self.anomaly.observe_gated(&self.cfg.anomaly, sigmas);
                        self.filter.reset();
                        self.filter.update(z);
                        self.reacquire();
                    }
                }
                if !gated {
                    let inn = self.filter.update(z);
                    self.anomaly
                        .observe_fused(&self.cfg.anomaly, F::sigmas(&inn));
                    innovation = Some(inn);
                    self.missed = 0;
                    self.good_streak += 1;
                    if self.mode == TrackMode::Acquire && self.good_streak >= self.cfg.acquire_fixes
                    {
                        self.mode = TrackMode::Track;
                        self.missed = 0;
                    }
                }
            }
            _ => {
                // No fix, a non-finite one (the gate cannot weigh NaN,
                // and one fused NaN would poison every later estimate),
                // or an incomplete sweep: a miss. An incomplete
                // subset sweep can still estimate from the bands that
                // survived, but those degraded fixes carry elevated
                // ghost-peak risk, so they are not fused — repeated
                // incomplete sweeps re-ACQUIRE instead.
                self.anomaly.observe_miss();
                self.good_streak = 0;
                self.missed += 1;
                if self.mode == TrackMode::Track && self.missed >= self.cfg.max_missed {
                    self.reacquire();
                }
            }
        }

        TrackUpdate {
            mode,
            next_mode: self.mode,
            predicted,
            fused: self.filter.estimate(),
            innovation,
            gated,
            anomaly_score: self.anomaly_score(),
        }
    }
}

impl PositionTracker {
    /// Re-expresses the track in a new local frame: `delta` is
    /// `old_origin − new_origin` in world coordinates and is added to
    /// the position estimate. Velocity, covariance, mode machine, and
    /// anomaly evidence are untouched — a handoff is a coordinate
    /// change, not a track break.
    pub fn translate(&mut self, delta: Point) {
        self.filter.translate(delta);
    }

    /// Picks the localization candidate to fuse from a best-first list
    /// (see [`crate::localization::locate_all`]).
    ///
    /// A two-antenna fix is ambiguous between a point and its mirror
    /// across the antenna baseline; once the filter holds a motion prior,
    /// the candidate nearest the predicted position wins (§8's mobility
    /// disambiguation — the true point moves consistently with the prior,
    /// the mirror jumps). Cold trackers fall back to the solver's
    /// best-residual ordering.
    pub fn resolve(&self, candidates: &[Position]) -> Option<Position> {
        if candidates.is_empty() {
            return None;
        }
        match self.filter.predicted_position() {
            None => Some(candidates[0]),
            Some(prior) => candidates
                .iter()
                .min_by(|a, b| {
                    a.point
                        .dist(prior)
                        .partial_cmp(&b.point.dist(prior))
                        .unwrap()
                })
                .copied(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronos_link::time::Duration;

    fn at(epoch: u64) -> Instant {
        Instant::ZERO + Duration::from_millis(100 * epoch)
    }

    /// Fixes on a line: `d` meters as a distance, or as the point
    /// `(d, 0)`, so one generic test body runs on both trackers.
    trait OnLine: TrackFilter {
        fn fix(d_m: f64) -> Self::Fix;
        /// The estimate's coordinate along the line.
        fn along(fix: Self::Fix) -> f64;
    }

    impl OnLine for DistanceFilter {
        fn fix(d_m: f64) -> f64 {
            d_m
        }
        fn along(fix: f64) -> f64 {
            fix
        }
    }

    impl OnLine for PositionFilter {
        fn fix(d_m: f64) -> Point {
            Point::new(d_m, 0.0)
        }
        fn along(fix: Point) -> f64 {
            fix.x
        }
    }

    #[test]
    fn filter_converges_on_static_distance() {
        let mut f = DistanceFilter::new(2.0, 0.15);
        f.update(7.0);
        for i in 0..30 {
            f.predict(0.1);
            // Deterministic ±5 cm dither around 7 m.
            let z = 7.0 + if i % 2 == 0 { 0.05 } else { -0.05 };
            f.update(z);
        }
        assert!((f.predicted_distance().unwrap() - 7.0).abs() < 0.05);
        assert!(f.velocity().unwrap().abs() < 0.1);
        assert!(f.sigma_m().unwrap() < 0.15);
    }

    #[test]
    fn filter_learns_constant_velocity() {
        let mut f = DistanceFilter::new(2.0, 0.1);
        // Client receding at 1.5 m/s, fixed 100 ms cadence.
        for i in 0..40 {
            f.predict(if i == 0 { 0.0 } else { 0.1 });
            f.update(3.0 + 1.5 * 0.1 * i as f64);
        }
        let v = f.velocity().unwrap();
        assert!((v - 1.5).abs() < 0.2, "velocity {v}");
        // Prediction leads the last fix by about one step's motion.
        f.predict(0.1);
        let d = f.predicted_distance().unwrap();
        let expect = 3.0 + 1.5 * 0.1 * 40.0;
        assert!((d - expect).abs() < 0.1, "predicted {d} expected {expect}");
    }

    #[test]
    fn innovation_is_measured_in_sigmas() {
        let mut f = DistanceFilter::new(1.0, 0.1);
        f.update(5.0);
        f.predict(0.1);
        let small = f.innovation(5.02).unwrap();
        let large = f.innovation(9.0).unwrap();
        assert!(small.sigmas() < 1.0);
        assert!(large.sigmas() > 10.0);
        assert!(large.nu_m > 3.9);
    }

    #[test]
    fn tracker_promotes_after_streak_and_requests_subset() {
        let mut t = ClientTracker::new(TrackerConfig::default());
        assert_eq!(t.mode(), TrackMode::Acquire);
        assert_eq!(t.requested_bands(), None);
        let u0 = t.observe(at(0), Some(4.0), true);
        assert_eq!(u0.next_mode, TrackMode::Acquire, "one fix is not a streak");
        let u1 = t.observe(at(1), Some(4.01), true);
        assert_eq!(u1.next_mode, TrackMode::Track);
        assert_eq!(
            t.requested_bands(),
            Some(TrackerConfig::default().track_bands)
        );
    }

    #[test]
    fn innovation_spike_forces_reacquire_and_reseeds() {
        let mut t = ClientTracker::new(TrackerConfig::default());
        for i in 0..4 {
            t.observe(at(i), Some(4.0), true);
        }
        assert_eq!(t.mode(), TrackMode::Track);
        // Teleport: 4 m → 12 m between epochs.
        let u = t.observe(at(4), Some(12.0), true);
        assert!(u.gated, "teleport must trip the gate");
        assert_eq!(u.next_mode, TrackMode::Acquire);
        // Filter re-seeded at the new location.
        assert!((t.filter().predicted_distance().unwrap() - 12.0).abs() < 1e-9);
        // Two good fixes at the new spot re-promote.
        t.observe(at(5), Some(12.0), true);
        let u = t.observe(at(6), Some(12.01), true);
        assert_eq!(u.next_mode, TrackMode::Track);
    }

    #[test]
    fn repeated_misses_force_reacquire() {
        let cfg = TrackerConfig {
            max_missed: 2,
            ..Default::default()
        };
        let mut t = ClientTracker::new(cfg);
        t.observe(at(0), Some(6.0), true);
        t.observe(at(1), Some(6.0), true);
        assert_eq!(t.mode(), TrackMode::Track);
        let u = t.observe(at(2), None, false);
        assert_eq!(u.next_mode, TrackMode::Track, "one miss is tolerated");
        let u = t.observe(at(3), None, false);
        assert_eq!(u.next_mode, TrackMode::Acquire, "second miss demotes");
    }

    #[test]
    fn incomplete_track_sweeps_are_misses_even_with_estimates() {
        // A chronically lossy medium: subset sweeps keep producing
        // estimates from partial band coverage. Those degraded fixes
        // must not be fused, and repeated incomplete sweeps re-ACQUIRE.
        fn check<F: OnLine>() {
            let cfg = TrackerConfig {
                max_missed: 2,
                ..Default::default()
            };
            let mut t = Tracker::<F>::new(cfg);
            t.observe(at(0), Some(F::fix(6.0)), true);
            t.observe(at(1), Some(F::fix(6.0)), true);
            assert_eq!(t.mode(), TrackMode::Track);
            let before = F::along(t.filter().estimate().unwrap());
            let u = t.observe(at(2), Some(F::fix(6.4)), false);
            assert!(u.innovation.is_none(), "degraded fix must not be fused");
            assert_eq!(
                F::along(t.filter().estimate().unwrap()).to_bits(),
                before.to_bits()
            );
            let u = t.observe(at(3), Some(F::fix(6.4)), false);
            assert_eq!(
                u.next_mode,
                TrackMode::Acquire,
                "repeated incomplete sweeps re-acquire"
            );
        }
        check::<DistanceFilter>();
        check::<PositionFilter>();
    }

    #[test]
    fn incomplete_acquire_sweep_does_not_count_toward_streak() {
        fn check<F: OnLine>() {
            let mut t = Tracker::<F>::new(TrackerConfig::default());
            t.observe(at(0), Some(F::fix(5.0)), true);
            // Incomplete sweep in ACQUIRE: estimate (if any) is not trusted.
            let u = t.observe(at(1), Some(F::fix(5.0)), false);
            assert_eq!(u.next_mode, TrackMode::Acquire);
            t.observe(at(2), Some(F::fix(5.0)), true);
            let u = t.observe(at(3), Some(F::fix(5.0)), true);
            assert_eq!(u.next_mode, TrackMode::Track);
        }
        check::<DistanceFilter>();
        check::<PositionFilter>();
    }

    #[test]
    fn non_finite_fix_is_a_miss_and_never_reaches_the_filter() {
        fn check<F: OnLine>() {
            let mut t = Tracker::<F>::new(TrackerConfig::default());
            for i in 0..4 {
                t.observe(at(i), Some(F::fix(4.0)), true);
            }
            assert_eq!(t.mode(), TrackMode::Track);
            let u = t.observe(at(4), Some(F::fix(f64::NAN)), true);
            assert!(!u.gated && u.innovation.is_none(), "NaN must not be fused");
            assert_eq!(t.missed(), 1, "NaN counts as a miss");
            assert_eq!(t.anomaly().run, 1);
            assert!(u.anomaly_score.is_finite());
            for i in 5..9 {
                let u = t.observe(at(i), Some(F::fix(4.0)), true);
                let fused = F::along(u.fused.expect("the track survives"));
                assert!((fused - 4.0).abs() < 1e-6, "fused {fused}");
            }
            assert_eq!(t.mode(), TrackMode::Track);
            assert_eq!(t.missed(), 0);
            // A cold tracker is not seeded by one either.
            let mut cold = Tracker::<F>::new(TrackerConfig::default());
            let u = cold.observe(at(0), Some(F::fix(f64::INFINITY)), true);
            assert!(u.fused.is_none() && cold.filter().estimate().is_none());
            assert_eq!(cold.anomaly().run, 1);
        }
        check::<DistanceFilter>();
        check::<PositionFilter>();
        // One non-finite coordinate is enough.
        let mut t = PositionTracker::new(TrackerConfig::default());
        let u = t.observe(at(0), Some(Point::new(1.0, f64::NAN)), true);
        assert!(u.fused.is_none() && !t.filter().is_initialized());
    }

    #[test]
    fn position_filter_learns_planar_velocity() {
        let mut f = PositionFilter::new(2.0, 0.1);
        // Walker moving at (0.8, -0.6) m/s, fixed 100 ms cadence.
        for i in 0..40 {
            f.predict(if i == 0 { 0.0 } else { 0.1 });
            let t = 0.1 * i as f64;
            f.update(Point::new(1.0 + 0.8 * t, 5.0 - 0.6 * t));
        }
        let v = f.velocity().unwrap();
        assert!((v.x - 0.8).abs() < 0.2, "vx {}", v.x);
        assert!((v.y + 0.6).abs() < 0.2, "vy {}", v.y);
        assert!(f.sigma_m().unwrap() < 0.2);
    }

    #[test]
    fn position_innovation_is_mahalanobis() {
        let mut f = PositionFilter::new(1.0, 0.1);
        f.update(Point::new(2.0, 2.0));
        f.predict(0.1);
        let small = f.innovation(Point::new(2.02, 1.99)).unwrap();
        let large = f.innovation(Point::new(6.0, -1.0)).unwrap();
        assert!(small.sigmas() < 1.0);
        assert!(large.sigmas() > 10.0);
        // Moving on one axis only still registers.
        let one_axis = f.innovation(Point::new(2.0, 5.0)).unwrap();
        assert!(one_axis.sigmas() > 10.0);
    }

    #[test]
    fn position_tracker_promotes_gates_and_reacquires() {
        let mut t = PositionTracker::new(TrackerConfig::default());
        assert_eq!(t.mode(), TrackMode::Acquire);
        assert_eq!(t.requested_bands(), None);
        t.observe(at(0), Some(Point::new(3.0, 1.0)), true);
        let u = t.observe(at(1), Some(Point::new(3.01, 1.0)), true);
        assert_eq!(u.next_mode, TrackMode::Track);
        assert_eq!(
            t.requested_bands(),
            Some(TrackerConfig::default().track_bands)
        );
        // Teleport across the room: gate trips, filter re-seeds.
        let u = t.observe(at(2), Some(Point::new(-5.0, 8.0)), true);
        assert!(u.gated);
        assert_eq!(u.next_mode, TrackMode::Acquire);
        let p = t.filter().predicted_position().unwrap();
        assert!(p.dist(Point::new(-5.0, 8.0)) < 1e-9);
    }

    #[test]
    fn position_tracker_misses_demote() {
        let cfg = TrackerConfig {
            max_missed: 2,
            ..Default::default()
        };
        let mut t = PositionTracker::new(cfg);
        t.observe(at(0), Some(Point::new(1.0, 1.0)), true);
        t.observe(at(1), Some(Point::new(1.0, 1.0)), true);
        assert_eq!(t.mode(), TrackMode::Track);
        t.observe(at(2), None, true);
        let u = t.observe(at(3), None, true);
        assert_eq!(u.next_mode, TrackMode::Acquire);
    }

    #[test]
    fn resolve_prefers_candidate_near_motion_prior() {
        use crate::localization::Position;
        let mk = |x: f64, y: f64, r: f64| Position {
            point: Point::new(x, y),
            residual_m: r,
            n_used: 2,
        };
        let mut t = PositionTracker::new(TrackerConfig::default());
        // Cold tracker: best residual wins regardless of geometry.
        let cold = t
            .resolve(&[mk(1.0, 2.0, 0.01), mk(1.0, -2.0, 0.02)])
            .unwrap();
        assert!(cold.point.dist(Point::new(1.0, 2.0)) < 1e-9);
        assert!(t.resolve(&[]).is_none());
        // Warm tracker near (1, -2): the mirror pair resolves to the
        // candidate consistent with the prior even when its residual ties.
        t.observe(at(0), Some(Point::new(1.0, -2.0)), true);
        t.observe(at(1), Some(Point::new(1.0, -2.0)), true);
        let warm = t
            .resolve(&[mk(1.0, 2.0, 0.01), mk(1.0, -2.0, 0.01)])
            .unwrap();
        assert!(warm.point.dist(Point::new(1.0, -2.0)) < 1e-9);
    }

    #[test]
    fn reacquire_clears_transient_counters_on_gate() {
        // The gated path's counter reset is explicit (`reacquire`) and
        // observable — no stale miss/streak state can leak into the next
        // ACQUIRE stint.
        fn check<F: OnLine>() {
            let mut t = Tracker::<F>::new(TrackerConfig::default());
            for i in 0..4 {
                t.observe(at(i), Some(F::fix(4.0)), true);
            }
            assert_eq!(t.mode(), TrackMode::Track);
            t.observe(at(4), None, false); // bank one miss in TRACK
            assert_eq!(t.missed(), 1);
            let u = t.observe(at(5), Some(F::fix(12.0)), true); // gate trips
            assert!(u.gated);
            assert_eq!(t.missed(), 0, "gate must clear the miss counter");
            assert_eq!(t.good_streak(), 0, "gate must clear the streak");
            // The cleared miss counter means a single TRACK-stint miss
            // from a past life cannot combine with one fresh miss to
            // demote early.
            t.observe(at(6), Some(F::fix(12.0)), true);
            t.observe(at(7), Some(F::fix(12.0)), true);
            assert_eq!(t.mode(), TrackMode::Track);
            let u = t.observe(at(8), None, false);
            assert_eq!(u.next_mode, TrackMode::Track, "fresh stint, fresh budget");
        }
        check::<DistanceFilter>();
        check::<PositionFilter>();
    }

    #[test]
    fn reacquire_clears_counters_on_miss_demotion() {
        let cfg = TrackerConfig {
            max_missed: 2,
            ..Default::default()
        };
        let mut t = ClientTracker::new(cfg);
        t.observe(at(0), Some(6.0), true);
        t.observe(at(1), Some(6.0), true);
        assert_eq!(t.mode(), TrackMode::Track);
        t.observe(at(2), None, false);
        t.observe(at(3), None, false);
        assert_eq!(t.mode(), TrackMode::Acquire);
        assert_eq!(t.missed(), 0, "demotion must reset the miss counter");
        assert_eq!(t.good_streak(), 0);

        // The same machine on a position track.
        let mut p = PositionTracker::new(cfg);
        p.observe(at(0), Some(Point::new(1.0, 1.0)), true);
        p.observe(at(1), Some(Point::new(1.0, 1.0)), true);
        assert_eq!(p.mode(), TrackMode::Track);
        p.observe(at(2), None, true);
        p.observe(at(3), None, true);
        assert_eq!(p.mode(), TrackMode::Acquire);
        assert_eq!(p.missed(), 0);
        assert_eq!(p.good_streak(), 0);
    }

    #[test]
    fn anomaly_score_survives_reacquire_and_decays_clean() {
        let mut t = ClientTracker::new(TrackerConfig::default());
        for i in 0..4 {
            t.observe(at(i), Some(4.0), true);
        }
        let baseline = t.anomaly_score();
        assert!(baseline < 1.0, "clean track must score low: {baseline}");
        // A teleport trips the gate: score jumps and survives the mode
        // drop (the transient counters reset, the evidence does not).
        let u = t.observe(at(4), Some(12.0), true);
        assert!(u.gated);
        assert_eq!(u.next_mode, TrackMode::Acquire);
        let spiked = t.anomaly_score();
        assert!(spiked > 3.0, "gate spike must register: {spiked}");
        assert_eq!(t.anomaly().run, 1);
        assert_eq!(t.missed(), 0, "counters reset, score kept");
        // Clean fixes at the new location decay the EWMA and break the run.
        let mut prev = spiked;
        for i in 5..15 {
            t.observe(at(i), Some(12.0), true);
            assert!(t.anomaly_score() <= prev + 1e-12);
            prev = t.anomaly_score();
        }
        assert_eq!(t.anomaly().run, 0);
        assert!(t.anomaly_score() < 1.0, "score must decay: {}", prev);
    }

    #[test]
    fn anomaly_run_accumulates_misses() {
        fn check<F: OnLine>() {
            let cfg = TrackerConfig::default();
            let mut t = Tracker::<F>::new(cfg);
            t.observe(at(0), Some(F::fix(5.0)), true);
            for i in 1..=4 {
                t.observe(at(i), None, false);
                assert_eq!(t.anomaly().run, i as usize);
            }
            // Each miss adds miss_weight to the score.
            assert!(t.anomaly_score() >= 4.0 * cfg.anomaly.miss_weight);
            // One clean fix breaks the run.
            t.observe(at(5), Some(F::fix(5.0)), true);
            assert_eq!(t.anomaly().run, 0);
        }
        check::<DistanceFilter>();
        check::<PositionFilter>();
    }

    #[test]
    fn position_anomaly_mirrors_distance_semantics() {
        let mut t = PositionTracker::new(TrackerConfig::default());
        for i in 0..4 {
            t.observe(at(i), Some(Point::new(2.0, 3.0)), true);
        }
        assert!(t.anomaly_score() < 1.0);
        let u = t.observe(at(4), Some(Point::new(-6.0, 9.0)), true);
        assert!(u.gated);
        assert!(u.anomaly_score > 3.0);
        assert!(t.anomaly_score() > 3.0);
        // Score is clamped: even an absurd teleport cannot exceed
        // clamp + run contribution.
        let cfg = TrackerConfig::default();
        assert!(t.anomaly_score() <= cfg.anomaly.sigma_clamp + cfg.anomaly.miss_weight);
    }

    #[test]
    fn filter_reset_clears_state() {
        let mut f = DistanceFilter::new(1.0, 0.1);
        f.update(3.0);
        assert!(f.is_initialized());
        f.reset();
        assert!(!f.is_initialized());
        assert!(f.predicted_distance().is_none());
        assert!(f.innovation(3.0).is_none());
    }
}
