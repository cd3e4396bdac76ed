//! Multi-client ranging service: the policy and per-client outcome
//! types of one access point localizing many clients concurrently,
//! sharing the numeric hot path.
//!
//! The paper demonstrates one pair of devices. The service layer scales
//! that design out the way a production deployment would, and
//! [`ServiceEngine`] is its one engine:
//!
//! * **Shared plans.** Every client sweeps the same Wi-Fi band plan, so
//!   the NDFT operators, operator norms, lobe tables and spline
//!   factorizations are identical across clients. A single
//!   [`crate::plan::PlanCache`] (built lazily on the first sweep) serves
//!   all of them; per-client estimation borrows immutable `Arc`s instead
//!   of rebuilding the machinery per sweep (see [`crate::plan`]).
//! * **Airtime arbitration.** Sweeps go through a
//!   [`chronos_link::arbiter::MediumArbiter`], which staggers their
//!   starts, caps how many hop concurrently, and charges each overlapping
//!   sweep a collision loss — so N clients contend for the medium the way
//!   real hoppers would, and reported throughput includes the protocol
//!   cost of contention.
//! * **Continuous scheduling.** Sweeps are driven by the event-based
//!   [`ServiceEngine`] (see [`crate::engine`]): each client re-sweeps at
//!   its own cadence instead of marching through a lock-step epoch
//!   barrier. [`ServiceEngine::run_until`] plays an arbitrary window of
//!   continuous operation; [`ServiceEngine::run_epoch`] plays one legacy
//!   one-sweep-per-client round exactly (admission order, RNG seeds and
//!   all). Both return a [`crate::engine::WindowReport`] of
//!   [`ClientOutcome`]s.
//! * **Parallel inversion.** Per-client profile inversion (the CPU-bound
//!   part: ISTA over the shared NDFT plan) runs on scoped worker
//!   threads; simulation determinism is preserved by giving every sweep
//!   its own seeded generator keyed by the client's monotonic sweep
//!   counter, so results are independent of the thread schedule *and*
//!   the sweep cadence (the seeding contract in [`crate::engine`]).

use crate::config::IngestionConfig;
use crate::tracker::{TrackMode, TrackerConfig};
#[cfg(doc)]
use crate::{engine::ServiceEngine, tracker::PositionTracker};
use chronos_link::arbiter::ArbiterConfig;
use chronos_link::time::Instant;
use chronos_link::traffic::TrafficClass;
use chronos_rf::geometry::Point;

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

/// Service-level policy.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Airtime arbitration policy.
    pub arbiter: ArbiterConfig,
    /// Threads a same-instant sweep batch spreads over, the engine's own
    /// included; 0 = one per available core. A fleet builds its shards
    /// with 1 and parallelizes shard windows instead (see
    /// [`crate::fleet::FleetConfig::workers`]).
    pub threads: usize,
    /// Adaptive sweep scheduling: when set, every client gets a
    /// [`crate::tracker::ClientTracker`] and the service schedules full
    /// ACQUIRE sweeps or TRACK-mode band subsets from its state. `None`
    /// preserves the legacy behavior (full sweep, every client, every
    /// round).
    pub adaptive: Option<TrackerConfig>,
    /// What the service tracks per client: scalar distance (default) or
    /// 2-D position. In [`LocalizationMode::Position`] every client gets
    /// a [`PositionTracker`] (configured from `adaptive`, or defaults
    /// when the scheduler is non-adaptive) and the report carries
    /// per-client position fixes, tracked positions and
    /// [`crate::engine::WindowReport::pos_rmse_m`].
    pub localization: LocalizationMode,
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
    /// `docs/INGESTION.md`); epoch rounds bypass it. `None` (the
    /// default) preserves the pre-ingestion behavior bit-for-bit: every
    /// due books the arbiter immediately, however far ahead that booking
    /// lands.
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
            threads: 0,
            adaptive: None,
            localization: LocalizationMode::Distance,
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

/// One client's result within a continuous window or an epoch round.
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
    /// clients flagged via [`ServiceEngine::set_background`], otherwise
    /// derived from the scheduling mode (ACQUIRE/TRACK). Populated
    /// whether or not the ingestion front-end is enabled.
    pub class: TrafficClass,
    /// Times this request was pushed back (deferred, retried after a
    /// displacement, or re-offered after a shed) before the sweep that
    /// produced this outcome was finally admitted. Always 0 with
    /// ingestion disabled.
    pub deferrals: u32,
}

/// How many sweeps of a report ran in each mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ModeOccupancy {
    /// Sweeps under ACQUIRE (full plan).
    pub acquire: usize,
    /// Sweeps under TRACK (band subset).
    pub track: usize,
}
