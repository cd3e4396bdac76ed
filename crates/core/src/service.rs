//! Multi-client ranging service: one access point localizing many
//! clients concurrently, sharing the numeric hot path.
//!
//! The paper demonstrates one pair of devices. The service layer scales
//! that design out the way a production deployment would:
//!
//! * **Shared plans.** Every client sweeps the same Wi-Fi band plan, so
//!   the NDFT operators, operator norms, lobe tables and spline
//!   factorizations are identical across clients. A single
//!   [`PlanCache`] (built lazily on the first sweep) serves all of them;
//!   per-client estimation borrows immutable `Arc`s instead of
//!   rebuilding the machinery per sweep (see [`crate::plan`]).
//! * **Airtime arbitration.** Sweeps go through a
//!   [`MediumArbiter`], which staggers their starts, caps how many hop
//!   concurrently, and charges each overlapping sweep a collision loss —
//!   so N clients contend for the medium the way real hoppers would,
//!   and reported throughput includes the protocol cost of contention.
//! * **Continuous scheduling.** Sweeps are driven by the event-based
//!   [`ServiceEngine`] (see [`crate::engine`]): each client re-sweeps at
//!   its own cadence instead of marching through a lock-step epoch
//!   barrier. [`RangingService::run_until`] plays an arbitrary window of
//!   continuous operation; [`RangingService::run_epoch`] remains as a
//!   compatibility wrapper that reproduces the legacy one-sweep-per-
//!   client rounds exactly (admission order, RNG seeds and all).
//! * **Parallel inversion.** Per-client profile inversion (the CPU-bound
//!   part: ISTA over the shared NDFT plan) runs on scoped worker
//!   threads; simulation determinism is preserved by giving every sweep
//!   its own seeded generator keyed by the client's monotonic sweep
//!   counter, so results are independent of the thread schedule *and*
//!   the sweep cadence (the seeding contract in [`crate::engine`]).

use crate::config::{ChronosConfig, IngestionConfig};
use crate::engine::{ServiceEngine, WindowReport};
use crate::plan::{CacheStats, PlanCache};
use crate::session::ChronosSession;
use crate::tracker::{ClientTracker, PositionTracker, TrackMode, TrackerConfig};
use chronos_link::admission::IngestionStats;
use chronos_link::arbiter::{ArbiterConfig, MediumArbiter};
use chronos_link::time::{Duration, Instant};
use chronos_link::traffic::TrafficClass;
use chronos_rf::csi::MeasurementContext;
use chronos_rf::geometry::Point;
use std::sync::Arc;

/// What the service reports per client: a scalar distance (the paper's
/// §3–§7 pipeline) or a full 2-D position fix (§8's multi-antenna
/// localization, served online).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LocalizationMode {
    /// Track the scalar transmitter–receiver distance (mean over
    /// antennas). The seed behavior.
    #[default]
    Distance,
    /// Fuse per-antenna ToF circles into a 2-D position in the AP's
    /// frame ([`crate::localization`]) and track it with a
    /// [`PositionTracker`].
    Position,
}

/// Per-client rescheduling policy of the continuous engine: how soon a
/// client is due again after a sweep completes, derived from its tracker
/// mode, and whether cold clients jump the admission queue.
#[derive(Debug, Clone, Copy)]
pub struct CadenceConfig {
    /// Idle gap between a TRACK client's sweep completion and its next
    /// due. Kept near zero so TRACK clients re-sweep as soon as their
    /// subset airtime allows — the arbiter, not a barrier, paces them.
    pub track_gap: Duration,
    /// Idle gap for ACQUIRE clients (cold or re-acquiring tracks).
    pub acquire_gap: Duration,
    /// When several clients fall due at the same instant, admit ACQUIRE
    /// clients first: a cold or broken track benefits most from the
    /// earliest slot the arbiter can grant.
    pub acquire_priority: bool,
}

impl Default for CadenceConfig {
    fn default() -> Self {
        CadenceConfig {
            // A scheduling turnaround, not a pause: one guard interval
            // below the arbiter's stagger so cadence never outruns it.
            track_gap: Duration::from_millis(2),
            acquire_gap: Duration::from_millis(2),
            acquire_priority: true,
        }
    }
}

/// Service-level policy.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Airtime arbitration policy.
    pub arbiter: ArbiterConfig,
    /// Multiplier on a plan's loss-free airtime
    /// ([`chronos_link::sweep::SweepConfig::expected_duration`]) when
    /// projecting its admission window — headroom for retransmissions.
    /// With variable-length plans a fixed projection would overcharge
    /// subset sweeps, so admission scales with each client's actual plan.
    pub admission_headroom: f64,
    /// Threads a same-instant sweep batch spreads over, the engine's own
    /// included; 0 = one per available core. A fleet builds its shards
    /// with 1 and parallelizes shard windows instead (see
    /// [`crate::fleet::FleetConfig::workers`]).
    pub threads: usize,
    /// Idle gap inserted between epochs (the `run_epoch` compatibility
    /// path only; continuous windows use [`CadenceConfig`]).
    pub epoch_gap: Duration,
    /// Adaptive sweep scheduling: when set, every client gets a
    /// [`ClientTracker`] and the service schedules full ACQUIRE sweeps or
    /// TRACK-mode band subsets from its state. `None` preserves the
    /// legacy behavior (full sweep, every client, every round).
    pub adaptive: Option<TrackerConfig>,
    /// What the service tracks per client: scalar distance (default) or
    /// 2-D position. In [`LocalizationMode::Position`] every client gets
    /// a [`PositionTracker`] (configured from `adaptive`, or defaults
    /// when the scheduler is non-adaptive) and the epoch report carries
    /// per-client position fixes, tracked positions and
    /// [`EpochReport::pos_rmse_m`].
    pub localization: LocalizationMode,
    /// Continuous-mode rescheduling policy (see [`CadenceConfig`]).
    pub cadence: CadenceConfig,
    /// Service-level exclusion policy for anomalous clients. When set,
    /// each client's [`crate::tracker::AnomalyScore`] is compared against
    /// the thresholds after every completed sweep: a client whose score
    /// crosses [`QuarantineConfig::threshold`] is demoted to QUARANTINE —
    /// its sweeps keep running (so evidence keeps accumulating) but its
    /// distance/position estimates are withheld from reports until the
    /// score decays below [`QuarantineConfig::release`] for
    /// [`QuarantineConfig::release_dwell`] consecutive sweeps. `None`
    /// (the default) disables the policy entirely. See
    /// `docs/ADVERSARIAL.md`.
    pub quarantine: Option<QuarantineConfig>,
    /// Overload-safe ingestion front-end. When set, continuous-window
    /// sweep dues pass through a bounded class-aware admission queue
    /// with the TRACK-stretch → BACKGROUND-drop → ACQUIRE-reject
    /// shedding ladder (see [`IngestionConfig`] and
    /// `docs/INGESTION.md`). `None` (the default) preserves the
    /// pre-ingestion behavior bit-for-bit: every due books the arbiter
    /// immediately, however far ahead that booking lands.
    pub ingestion: Option<IngestionConfig>,
}

/// Thresholds of the quarantine hysteresis loop (see
/// `docs/ADVERSARIAL.md` for tuning guidance).
#[derive(Debug, Clone, Copy)]
pub struct QuarantineConfig {
    /// Anomaly score at or above which a client enters QUARANTINE.
    pub threshold: f64,
    /// Score at or below which a quarantined client becomes eligible for
    /// release. Kept well below `threshold` so a client oscillating near
    /// the trip point doesn't flap between states.
    pub release: f64,
    /// Consecutive sweeps the score must stay at or below `release`
    /// before the client is re-trusted. Raising this lengthens the
    /// shadow a detected attack casts; see the re-seed caveat in
    /// `docs/ADVERSARIAL.md`.
    pub release_dwell: usize,
    /// Sweeps a fresh client must complete before it can be quarantined
    /// — the first innovations of a cold filter are not evidence.
    pub min_sweeps: u64,
}

impl Default for QuarantineConfig {
    fn default() -> Self {
        QuarantineConfig {
            // One hard-gated sweep (sigma_clamp-clipped EWMA step plus a
            // one-miss run) lands around 5.8 with the default
            // AnomalyConfig; 4.0 trips on that first clear violation
            // while staying above anything a converged clean client
            // produces.
            threshold: 4.0,
            release: 1.5,
            release_dwell: 6,
            // The first fixes of a zero-velocity-seeded filter chasing a
            // coarse ACQUIRE estimate run several sigma hot; clean
            // clients settle well under the threshold by their sixth
            // sweep (`tests/adversarial.rs` pins the control run).
            min_sweeps: 6,
        }
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            arbiter: ArbiterConfig::default(),
            // ~95 ms projected for the standard ~84 ms sweep.
            admission_headroom: 1.13,
            threads: 0,
            epoch_gap: Duration::from_millis(5),
            adaptive: None,
            localization: LocalizationMode::Distance,
            cadence: CadenceConfig::default(),
            quarantine: None,
            ingestion: None,
        }
    }
}

impl ServiceConfig {
    /// The default policy with adaptive tracking enabled.
    pub fn adaptive(tracker: TrackerConfig) -> Self {
        ServiceConfig {
            adaptive: Some(tracker),
            ..Default::default()
        }
    }

    /// The default policy in position mode with adaptive scheduling: full
    /// ACQUIRE sweeps until each client's position filter converges, then
    /// band-subset TRACK sweeps fused into 2-D fixes.
    pub fn position(tracker: TrackerConfig) -> Self {
        ServiceConfig {
            adaptive: Some(tracker),
            localization: LocalizationMode::Position,
            ..Default::default()
        }
    }
}

/// One client's result within an epoch or continuous window.
#[derive(Debug, Clone)]
pub struct ClientOutcome {
    /// Client index within the service.
    pub client: usize,
    /// The client's monotonic sweep ordinal (0 for its first sweep) —
    /// also the key of the sweep's RNG stream, see the seeding contract
    /// in [`crate::engine`].
    pub sweep: u64,
    /// Admitted sweep start.
    pub started: Instant,
    /// Link-layer finish time.
    pub finished: Instant,
    /// Concurrent sweeps at admission.
    pub concurrent: usize,
    /// Contention loss the sweep ran with (added to the base medium
    /// loss).
    pub extra_loss: f64,
    /// Whether the link-layer sweep covered the full plan.
    pub link_complete: bool,
    /// Mean estimated distance across successful antennas, meters.
    pub distance_m: Option<f64>,
    /// Ground-truth device distance, meters.
    pub truth_m: f64,
    /// Absolute ranging error, meters (when an estimate exists).
    pub error_m: Option<f64>,
    /// Mode this client's sweep was scheduled under. Always
    /// [`TrackMode::Acquire`] for a non-adaptive service.
    pub mode: TrackMode,
    /// Bands in the scheduled plan (35 for a full sweep, the subset size
    /// in TRACK mode).
    pub bands_planned: usize,
    /// Tracker prediction for this sweep before the fix was fused,
    /// meters (adaptive services, once the filter is seeded).
    pub predicted_m: Option<f64>,
    /// Tracker output after fusing this sweep's fix, meters — the
    /// distance an adaptive deployment would report.
    pub tracked_m: Option<f64>,
    /// Absolute error of `tracked_m` against ground truth, meters.
    pub tracked_error_m: Option<f64>,
    /// Innovation of this sweep's fix in standard deviations (adaptive
    /// services; `None` when no fix was fused).
    pub innovation_sigmas: Option<f64>,
    /// Raw 2-D position fix in the AP's frame, after mirror-candidate
    /// resolution against the motion prior (position mode only).
    pub position: Option<Point>,
    /// RMS circle residual of the fix, meters (position mode only).
    pub pos_residual_m: Option<f64>,
    /// Antennas the fix used after NLOS/outlier rejection (position mode
    /// only).
    pub pos_antennas: Option<usize>,
    /// Ground-truth client position in the AP's frame.
    pub truth_pos: Point,
    /// Absolute 2-D error of the raw fix, meters.
    pub pos_error_m: Option<f64>,
    /// Position-tracker output after fusing this sweep's fix — the
    /// position a deployment would report (position mode only).
    pub tracked_pos: Option<Point>,
    /// Absolute 2-D error of `tracked_pos` against ground truth, meters.
    pub tracked_pos_error_m: Option<f64>,
    /// Innovation of this sweep's position fix in (Mahalanobis) standard
    /// deviations (position mode; `None` when no fix was fused).
    pub pos_innovation_sigmas: Option<f64>,
    /// The client's anomaly score after this sweep (adaptive services;
    /// see [`crate::tracker::AnomalyScore`]). Reported even while the
    /// client is quarantined — the score is the evidence trail.
    pub anomaly_score: Option<f64>,
    /// Whether the client was under QUARANTINE when this sweep was
    /// reported. Quarantined outcomes carry link/truth/innovation fields
    /// but have their estimate fields (`distance_m`, `tracked_m`,
    /// `position`, `tracked_pos`, ...) withheld as `None`.
    pub quarantined: bool,
    /// The admission class this sweep was offered under: BACKGROUND for
    /// clients flagged via [`RangingService::set_background`], otherwise
    /// derived from the scheduling mode (ACQUIRE/TRACK). Populated
    /// whether or not the ingestion front-end is enabled.
    pub class: TrafficClass,
    /// Times this request was pushed back (deferred, retried after a
    /// displacement, or re-offered after a shed) before the sweep that
    /// produced this outcome was finally admitted. Always 0 with
    /// ingestion disabled.
    pub deferrals: u32,
}

/// The result of one service round.
///
/// **Scope: one service = one AP.** Like
/// [`crate::engine::WindowReport`], every field is
/// per-AP: `outcomes[i].client` is a slot index of *this* service,
/// `utilization` covers this AP's medium, and nothing here aggregates
/// across a fleet. The epoch driver is single-AP-only by design — the
/// multi-AP fleet layer ([`crate::fleet`]) runs its shards through
/// continuous windows (`run_until`), never through epochs, because
/// handoff and clock-sync events are scheduled at window boundaries.
///
/// # Examples
///
/// ```
/// use chronos_core::plan::CacheStats;
/// use chronos_core::service::EpochReport;
/// use chronos_link::time::{Duration, Instant};
///
/// let report = EpochReport {
///     epoch: 3,
///     started: Instant::from_millis(500),
///     airtime_span: Duration::from_millis(84),
///     utilization: 1.0,
///     outcomes: Vec::new(),
///     wall: std::time::Duration::ZERO,
///     cache: CacheStats { hits: 2, misses: 1, ndft_entries: 1, spline_entries: 1 },
///     bands_planned: 35,
///     bands_full_sweep: 35,
/// };
/// assert_eq!(report.airtime_saved(), 0.0); // full sweeps save nothing
/// assert!((report.cache.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct EpochReport {
    /// Epoch counter.
    pub epoch: u64,
    /// Epoch start on the simulated clock.
    pub started: Instant,
    /// Simulated span from epoch start to the last sweep's end.
    pub airtime_span: Duration,
    /// Fraction of the span with at least one sweep on the air.
    pub utilization: f64,
    /// Per-client outcomes, ordered by client index.
    pub outcomes: Vec<ClientOutcome>,
    /// Host wall-clock time spent producing the epoch (sweep simulation
    /// plus estimation across all worker threads).
    pub wall: std::time::Duration,
    /// Plan-cache counters after the epoch.
    pub cache: CacheStats,
    /// Total bands scheduled across all clients this epoch.
    pub bands_planned: usize,
    /// Bands a non-adaptive service would have scheduled (clients × full
    /// plan length) — the denominator of [`EpochReport::airtime_saved`].
    pub bands_full_sweep: usize,
}

/// How many clients ran in each mode during one epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ModeOccupancy {
    /// Clients swept under ACQUIRE (full plan).
    pub acquire: usize,
    /// Clients swept under TRACK (band subset).
    pub track: usize,
}

/// Shared statistics over outcome slices — one implementation behind
/// both [`EpochReport`] and [`WindowReport`].
pub(crate) mod outcome_stats {
    use super::{ClientOutcome, ModeOccupancy, TrackMode};

    pub fn completed(outcomes: &[ClientOutcome]) -> usize {
        outcomes.iter().filter(|o| o.distance_m.is_some()).count()
    }

    pub fn quarantined(outcomes: &[ClientOutcome]) -> usize {
        outcomes.iter().filter(|o| o.quarantined).count()
    }

    pub fn mean_abs_error_m(outcomes: &[ClientOutcome]) -> Option<f64> {
        let errs: Vec<f64> = outcomes.iter().filter_map(|o| o.error_m).collect();
        if errs.is_empty() {
            None
        } else {
            Some(errs.iter().sum::<f64>() / errs.len() as f64)
        }
    }

    pub fn airtime_saved(bands_planned: usize, bands_full_sweep: usize) -> f64 {
        if bands_full_sweep == 0 {
            0.0
        } else {
            1.0 - bands_planned as f64 / bands_full_sweep as f64
        }
    }

    pub fn mode_occupancy(outcomes: &[ClientOutcome]) -> ModeOccupancy {
        let mut occ = ModeOccupancy::default();
        for o in outcomes {
            match o.mode {
                TrackMode::Acquire => occ.acquire += 1,
                TrackMode::Track => occ.track += 1,
            }
        }
        occ
    }

    pub fn track_rmse_m(outcomes: &[ClientOutcome]) -> Option<f64> {
        rmse(outcomes.iter().filter_map(|o| o.tracked_error_m))
    }

    pub fn pos_rmse_m(outcomes: &[ClientOutcome]) -> Option<f64> {
        rmse(outcomes.iter().filter_map(|o| o.tracked_pos_error_m))
    }

    pub fn median_pos_error_m(outcomes: &[ClientOutcome]) -> Option<f64> {
        let errs: Vec<f64> = outcomes.iter().filter_map(|o| o.pos_error_m).collect();
        if errs.is_empty() {
            None
        } else {
            Some(chronos_math::stats::median(&errs))
        }
    }

    fn rmse(errs: impl Iterator<Item = f64>) -> Option<f64> {
        let errs: Vec<f64> = errs.collect();
        if errs.is_empty() {
            None
        } else {
            Some(chronos_math::stats::rms(&errs))
        }
    }
}

impl EpochReport {
    /// Clients whose sweep produced a distance estimate.
    pub fn completed(&self) -> usize {
        outcome_stats::completed(&self.outcomes)
    }

    /// Outcomes reported under QUARANTINE this epoch (estimates
    /// withheld; see [`QuarantineConfig`]).
    pub fn quarantined(&self) -> usize {
        outcome_stats::quarantined(&self.outcomes)
    }

    /// Mean absolute ranging error over completed clients, meters.
    pub fn mean_abs_error_m(&self) -> Option<f64> {
        outcome_stats::mean_abs_error_m(&self.outcomes)
    }

    /// Fraction of per-fix airtime the adaptive scheduler saved this
    /// epoch versus sweeping every client's full plan: `1 −
    /// bands_planned / bands_full_sweep` (band count is an airtime proxy
    /// — dwell cost per band is constant, see
    /// [`chronos_link::sweep::SweepConfig::expected_duration`]). Zero
    /// for a non-adaptive service.
    pub fn airtime_saved(&self) -> f64 {
        outcome_stats::airtime_saved(self.bands_planned, self.bands_full_sweep)
    }

    /// Clients per mode this epoch.
    pub fn mode_occupancy(&self) -> ModeOccupancy {
        outcome_stats::mode_occupancy(&self.outcomes)
    }

    /// Root-mean-square error of the tracker's fused outputs against
    /// ground truth, meters. `None` for non-adaptive services or before
    /// any filter is seeded.
    pub fn track_rmse_m(&self) -> Option<f64> {
        outcome_stats::track_rmse_m(&self.outcomes)
    }

    /// Root-mean-square 2-D error of the position tracker's fused outputs
    /// against ground truth, meters. `None` outside position mode or
    /// before any filter is seeded.
    pub fn pos_rmse_m(&self) -> Option<f64> {
        outcome_stats::pos_rmse_m(&self.outcomes)
    }

    /// Median 2-D error of the *raw* position fixes against ground truth,
    /// meters — the paper's §12.2 localization observable, per epoch.
    pub fn median_pos_error_m(&self) -> Option<f64> {
        outcome_stats::median_pos_error_m(&self.outcomes)
    }

    /// Localization throughput over simulated airtime: completed sweeps
    /// per second of medium time. This is the capacity figure an AP
    /// operator cares about.
    pub fn sweeps_per_sec_airtime(&self) -> f64 {
        let span = self.airtime_span.as_secs_f64();
        if span <= 0.0 {
            0.0
        } else {
            self.completed() as f64 / span
        }
    }
}

/// A pool of [`ChronosSession`]s sharing one [`PlanCache`] and one
/// arbitrated medium — the public facade over the event-driven
/// [`ServiceEngine`].
///
/// [`RangingService::run_epoch`] plays one legacy lock-step round (every
/// client sweeps exactly once); [`RangingService::run_until`] runs the
/// continuous engine to a deadline, letting every client advance at its
/// own cadence. Both may be mixed on one service instance: the engine's
/// clock and the per-client trackers are shared.
#[derive(Debug)]
pub struct RangingService {
    engine: ServiceEngine,
    epoch: u64,
}

impl RangingService {
    /// Creates an empty service with a fresh plan cache.
    pub fn new(cfg: ServiceConfig) -> Self {
        Self::with_cache(cfg, Arc::new(PlanCache::new()))
    }

    /// Creates a service that shares an existing plan cache (e.g. one
    /// warmed by another service instance or process stage).
    pub fn with_cache(cfg: ServiceConfig, plans: Arc<PlanCache>) -> Self {
        RangingService {
            engine: ServiceEngine::with_cache(cfg, plans),
            epoch: 0,
        }
    }

    /// The underlying continuous engine.
    pub fn engine(&self) -> &ServiceEngine {
        &self.engine
    }

    /// The shared plan cache.
    pub fn plans(&self) -> &Arc<PlanCache> {
        self.engine.plans()
    }

    /// The service's policy.
    pub fn config(&self) -> &ServiceConfig {
        self.engine.config()
    }

    /// The airtime arbiter (admission windows and the single-charge
    /// `total_tracked_airtime` accounting).
    pub fn arbiter(&self) -> &MediumArbiter {
        self.engine.arbiter()
    }

    /// The service's virtual clock.
    pub fn clock(&self) -> Instant {
        self.engine.clock()
    }

    /// Adds a client from its physical measurement context; returns its
    /// index. The client's session borrows the service's plan cache.
    pub fn add_client(&mut self, ctx: MeasurementContext, config: ChronosConfig) -> usize {
        self.engine.join(ctx, config)
    }

    /// Adds a client with a per-client tracker policy overriding the
    /// service-wide [`ServiceConfig::adaptive`] setting (e.g. pin a
    /// client in ACQUIRE with `acquire_fixes: usize::MAX`).
    pub fn add_client_with_tracker(
        &mut self,
        ctx: MeasurementContext,
        config: ChronosConfig,
        tracker: TrackerConfig,
    ) -> usize {
        self.engine.join_with_tracker(ctx, config, tracker)
    }

    /// Adopts an existing session as a client (its plan cache is replaced
    /// by the service's shared one).
    pub fn add_session(&mut self, session: ChronosSession) -> usize {
        self.engine.join_session(session)
    }

    /// Deactivates a client. Its index stays valid (never reused); a
    /// sweep already in the air completes and is reported, but nothing
    /// further is scheduled for it. Returns whether the client was
    /// active.
    pub fn remove_client(&mut self, idx: usize) -> bool {
        self.engine.leave(idx)
    }

    /// Whether a client currently participates in scheduling.
    pub fn is_active(&self, idx: usize) -> bool {
        self.engine.is_active(idx)
    }

    /// A client's tracker (adaptive distance-mode services only).
    pub fn tracker(&self, idx: usize) -> Option<&ClientTracker> {
        self.engine.tracker(idx)
    }

    /// A client's position tracker (position-mode services only).
    pub fn position_tracker(&self, idx: usize) -> Option<&PositionTracker> {
        self.engine.position_tracker(idx)
    }

    /// Whether a client is currently under QUARANTINE (see
    /// [`QuarantineConfig`]). Always `false` when the policy is off.
    pub fn is_quarantined(&self, idx: usize) -> bool {
        self.engine.is_quarantined(idx)
    }

    /// A client's current anomaly score (adaptive services; `None` when
    /// the service schedules non-adaptively).
    pub fn anomaly_score(&self, idx: usize) -> Option<f64> {
        self.engine.anomaly_score(idx)
    }

    /// Flags a client as BACKGROUND traffic: its sweeps are offered to
    /// the admission queue in the lowest class — first to be shed under
    /// overload, displaceable by a full-queue ACQUIRE. With ingestion
    /// disabled the flag only annotates [`ClientOutcome::class`].
    pub fn set_background(&mut self, idx: usize, background: bool) {
        self.engine.set_background(idx, background);
    }

    /// Whether a client is flagged as BACKGROUND traffic.
    pub fn is_background(&self, idx: usize) -> bool {
        self.engine.is_background(idx)
    }

    /// Cumulative ingestion-layer accounting since service creation
    /// (`None` when [`ServiceConfig::ingestion`] is off). Per-window
    /// deltas live on [`WindowReport::ingestion`].
    pub fn ingestion_stats(&self) -> Option<IngestionStats> {
        self.engine.ingestion_stats()
    }

    /// Number of client slots ever created (indices run
    /// `0..n_clients()`; departed clients keep their slot).
    pub fn n_clients(&self) -> usize {
        self.engine.n_slots()
    }

    /// Currently active clients.
    pub fn n_active(&self) -> usize {
        self.engine.n_active()
    }

    /// Immutable access to a client session.
    pub fn client(&self, idx: usize) -> &ChronosSession {
        self.engine.session(idx)
    }

    /// Mutable access to a client session (geometry updates, config
    /// tweaks between rounds).
    pub fn client_mut(&mut self, idx: usize) -> &mut ChronosSession {
        self.engine.session_mut(idx)
    }

    /// Calibrates every client at its current (known) geometry with `n`
    /// sweeps each (paper §7 obs. 2). Sequential: calibration is a
    /// one-time setup step.
    pub fn calibrate_all(&mut self, seed: u64, n: usize) {
        self.engine.calibrate_all(seed, n);
    }

    /// Runs one legacy epoch round on the engine: every active client is
    /// scheduled once at the current clock (admission in client order),
    /// sweeps run on the engine's lanes, fixes fuse into the trackers, and
    /// the clock advances past the round's horizon plus the epoch gap.
    ///
    /// This is a thin compatibility wrapper over the continuous engine —
    /// because every client sweeps exactly once per round, the per-client
    /// sweep ordinals coincide with the legacy global epoch index and the
    /// wrapper reproduces pre-engine outcomes exactly (asserted by
    /// `tests/engine.rs`).
    pub fn run_epoch(&mut self, seed: u64) -> EpochReport {
        let epoch = self.epoch;
        self.epoch += 1;
        self.engine.run_epoch_window(seed, epoch)
    }

    /// Runs the continuous engine until `deadline`: every client
    /// re-sweeps at its own tracker-derived cadence (TRACK clients as
    /// soon as their subset airtime allows, ACQUIRE clients with
    /// priority admission) and the window's completed sweeps are
    /// reported. See [`crate::engine`] for the event lifecycle.
    pub fn run_until(&mut self, seed: u64, deadline: Instant) -> WindowReport {
        self.engine.run_until(seed, deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronos_rf::environment::Environment;
    use chronos_rf::geometry::Point;
    use chronos_rf::hardware::{ideal_device, AntennaArray};

    fn ideal_ctx(d: f64) -> MeasurementContext {
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

    fn service_with_cfg(n: usize, cfg: ServiceConfig) -> RangingService {
        let mut svc = RangingService::new(cfg);
        for i in 0..n {
            let id = svc.add_client(ideal_ctx(2.0 + i as f64), ChronosConfig::ideal());
            svc.client_mut(id).sweep_cfg.medium.loss_prob = 0.0;
        }
        svc
    }

    fn service_with(n: usize) -> RangingService {
        service_with_cfg(n, ServiceConfig::default())
    }

    #[test]
    fn epoch_estimates_every_client() {
        let mut svc = service_with(3);
        let report = svc.run_epoch(7);
        assert_eq!(report.outcomes.len(), 3);
        for (i, o) in report.outcomes.iter().enumerate() {
            assert_eq!(o.client, i);
            assert_eq!(o.sweep, 0, "first sweep ordinal");
            let err = o.error_m.expect("estimate");
            assert!(err < 0.3, "client {i} error {err}");
        }
        assert!(report.utilization > 0.0);
        assert!(report.sweeps_per_sec_airtime() > 0.0);
    }

    #[test]
    fn clients_share_one_plan_cache() {
        let mut svc = service_with(4);
        let report = svc.run_epoch(1);
        // Ideal mode, identical grids: every client needs the same NDFT
        // plan, so exactly one is ever built (plus one spline plan). The
        // worker pipelines memoize the plan `Arc`s after the first
        // lookup, so the shared cache sees at most a handful of queries
        // — the sharing contract is "built exactly once", not a hit
        // count.
        assert_eq!(report.cache.ndft_entries, 1);
        assert_eq!(report.cache.spline_entries, 1);
        assert_eq!(report.cache.misses, 2, "{:?}", report.cache);
    }

    #[test]
    fn results_independent_of_thread_count() {
        let run = |threads: usize| {
            let cfg = ServiceConfig {
                threads,
                ..Default::default()
            };
            let mut svc = service_with_cfg(4, cfg);
            let r = svc.run_epoch(3);
            r.outcomes
                .iter()
                .map(|o| o.distance_m.unwrap().to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn epochs_advance_the_clock_and_stay_deterministic() {
        let mut svc = service_with(2);
        let a = svc.run_epoch(5);
        let b = svc.run_epoch(5);
        assert!(b.started > a.started);
        assert_eq!(a.epoch, 0);
        assert_eq!(b.epoch, 1);
        // Same service construction, same seeds => same outcome stream.
        let mut svc2 = service_with(2);
        let a2 = svc2.run_epoch(5);
        for (x, y) in a.outcomes.iter().zip(a2.outcomes.iter()) {
            assert_eq!(
                x.distance_m.map(f64::to_bits),
                y.distance_m.map(f64::to_bits)
            );
        }
    }

    fn position_ctx(p: Point) -> MeasurementContext {
        let mut ctx = MeasurementContext::new(
            Environment::free_space(),
            ideal_device(AntennaArray::single()),
            p,
            ideal_device(AntennaArray::access_point()),
            Point::new(0.0, 0.0),
        );
        ctx.snr.snr_at_1m_db = 60.0;
        ctx
    }

    #[test]
    fn position_mode_reports_submeter_fixes_and_promotes_to_track() {
        let mut svc = RangingService::new(ServiceConfig::position(TrackerConfig::default()));
        let id = svc.add_client(position_ctx(Point::new(1.5, 4.0)), ChronosConfig::ideal());
        svc.client_mut(id).sweep_cfg.medium.loss_prob = 0.0;
        let mut reports = Vec::new();
        for e in 0..4 {
            reports.push(svc.run_epoch(100 + e));
        }
        let last = reports.last().unwrap();
        let o = &last.outcomes[0];
        assert!(o.truth_pos.dist(Point::new(1.5, 4.0)) < 1e-12);
        let err = o.pos_error_m.expect("raw fix");
        assert!(err < 1.0, "raw position error {err}");
        let rmse = last.pos_rmse_m().expect("tracked position");
        assert!(rmse < 1.0, "tracked RMSE {rmse}");
        // The position tracker's mode machine drives subset scheduling.
        assert_eq!(o.mode, TrackMode::Track);
        assert!(o.bands_planned < 35, "subset sweep expected");
        assert!(last.median_pos_error_m().is_some());
        // Distance-tracking fields stay unpopulated in position mode.
        assert!(o.tracked_m.is_none());
    }

    #[test]
    fn non_adaptive_position_mode_full_sweeps_still_fuse() {
        let cfg = ServiceConfig {
            localization: LocalizationMode::Position,
            ..ServiceConfig::default()
        };
        let mut svc = RangingService::new(cfg);
        let id = svc.add_client(position_ctx(Point::new(-2.0, 3.0)), ChronosConfig::ideal());
        svc.client_mut(id).sweep_cfg.medium.loss_prob = 0.0;
        for e in 0..3 {
            let r = svc.run_epoch(7 + e);
            let o = &r.outcomes[0];
            assert_eq!(
                o.bands_planned, 35,
                "non-adaptive service must sweep the full plan"
            );
            assert_eq!(
                o.mode,
                TrackMode::Acquire,
                "reported mode must match the sweep actually issued"
            );
            assert!(o.tracked_pos.is_some());
        }
        assert_eq!(svc.run_epoch(99).mode_occupancy().track, 0);
        assert!(svc.position_tracker(id).is_some());
        assert!(svc.tracker(id).is_none());
    }

    #[test]
    fn ratio_reporters_are_zero_not_nan_on_empty_input() {
        // Every ratio must degrade to 0.0 (never 0/0 = NaN) when its
        // denominator is empty: an empty service round, a zero-length
        // window, a never-queried cache.
        assert_eq!(outcome_stats::airtime_saved(0, 0), 0.0);
        assert!(!outcome_stats::airtime_saved(0, 0).is_nan());
        assert_eq!(outcome_stats::completed(&[]), 0);
        assert_eq!(outcome_stats::quarantined(&[]), 0);
        assert!(outcome_stats::mean_abs_error_m(&[]).is_none());
        assert!(outcome_stats::track_rmse_m(&[]).is_none());
        assert!(outcome_stats::pos_rmse_m(&[]).is_none());
        assert!(outcome_stats::median_pos_error_m(&[]).is_none());
        assert_eq!(outcome_stats::mode_occupancy(&[]), ModeOccupancy::default());

        let mut svc = RangingService::new(ServiceConfig::default());
        // Zero-length window on an empty service: every report ratio is a
        // finite zero.
        let w = svc.run_until(1, Instant::ZERO);
        assert_eq!(w.sweeps_per_sec(), 0.0);
        assert_eq!(w.airtime_saved(), 0.0);
        assert_eq!(w.utilization, 0.0);
        assert_eq!(w.cache.hit_rate(), 0.0);
        assert!(w.mean_abs_error_m().is_none());
        // An epoch round with no clients: same contract.
        let e = svc.run_epoch(1);
        assert_eq!(e.sweeps_per_sec_airtime(), 0.0);
        assert!(!e.sweeps_per_sec_airtime().is_nan());
        assert_eq!(e.airtime_saved(), 0.0);
        assert_eq!(e.utilization, 0.0);
        assert_eq!(e.cache.hit_rate(), 0.0);
    }

    #[test]
    fn contention_reported_for_overlapping_sweeps() {
        let mut svc = service_with(6);
        let report = svc.run_epoch(11);
        // With max_concurrent = 4 and six clients, some sweeps overlap
        // and pay contention; the utilization must reflect real overlap.
        assert!(report.outcomes.iter().any(|o| o.concurrent > 0));
        assert!(report.outcomes.iter().any(|o| o.extra_loss > 0.0));
        assert!(report.airtime_span > Duration::from_millis(80));
    }

    #[test]
    fn removed_client_skips_later_epochs() {
        let mut svc = service_with(3);
        let first = svc.run_epoch(21);
        assert_eq!(first.outcomes.len(), 3);
        assert!(svc.remove_client(1));
        assert!(!svc.remove_client(1), "double-remove reports inactive");
        assert!(!svc.is_active(1));
        assert_eq!(svc.n_clients(), 3, "slot indices stay valid");
        assert_eq!(svc.n_active(), 2);
        let second = svc.run_epoch(22);
        let clients: Vec<usize> = second.outcomes.iter().map(|o| o.client).collect();
        assert_eq!(clients, vec![0, 2]);
        // Remaining clients' sweep ordinals keep advancing.
        assert!(second.outcomes.iter().all(|o| o.sweep == 1));
    }
}
