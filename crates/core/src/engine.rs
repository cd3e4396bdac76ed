//! The continuous, event-driven sweep engine: [`ServiceEngine`] pools
//! one access point's clients over a shared plan cache and one
//! arbitrated medium (the multi-client service of [`crate::service`]).
//!
//! The paper's protocol is inherently asynchronous: each client's band
//! sweep takes exactly as long as its hop plan dictates (§5, §7), so a
//! TRACK-mode client with a 12-band subset is done in ~29 ms while an
//! ACQUIRE client's 35-band sweep holds the air for ~84 ms. The original
//! `run_epoch` loop forced every client through a lock-step barrier —
//! the fast clients idled until the slowest sweep of the round finished.
//! The [`ServiceEngine`] retires that barrier: the service is a
//! discrete-event simulation over virtual time
//! ([`chronos_link::event::EventQueue`]) in which every client advances
//! at its own cadence.
//!
//! ## Event lifecycle
//!
//! ```text
//!   SweepDue(client)                       one event per client cycle
//!        │  batch same-instant dues; ACQUIRE clients admitted first
//!        ▼
//!   MediumArbiter::admit                   airtime admission (stagger,
//!        │                                 concurrency cap, contention
//!        │                                 loss), plan priced per client
//!        ▼
//!   lane-parallel sweep + estimation       host-parallel, per-sweep RNG
//!        │                                 (results schedule-invariant)
//!        ▼
//!   SweepComplete(client)                  fires at the sweep's actual
//!        │                                 link-layer finish time
//!        ▼
//!   tracker fusion → reschedule            SweepDue(client) again at
//!                                          finish + per-mode cadence gap
//! ```
//!
//! `Join`/`Leave` are first-class: clients can enter and exit the pool
//! between windows ([`ServiceEngine::join_session`],
//! [`ServiceEngine::leave`]) without disturbing other clients'
//! schedules or the arbiter's single-charge airtime accounting.
//!
//! ## Windows and epoch rounds
//!
//! [`ServiceEngine::run_until`] advances the simulation to a deadline
//! and returns a [`WindowReport`] over that window. Sweeps still in the
//! air at the deadline simply complete in the next window.
//! [`ServiceEngine::run_epoch`] plays one legacy lock-step round on the
//! same event pump: it schedules every client once at the current clock,
//! drains the queue without rescheduling, and reports the round exactly
//! as the barrier version did (same admission order, same seeds, same
//! outcomes) in the same [`WindowReport`], whose window ends at the
//! round's airtime horizon.
//!
//! ## Seeding contract
//!
//! Every sweep draws its randomness from an RNG seeded by
//! `mix(seed, ordinal + 1, client)` where `ordinal` is the client's own
//! **monotonic sweep counter** — not any global round index. The
//! counter increments at admission, and at most one sweep per client is
//! in flight, so a client's ordinal sequence is a pure function of how
//! many sweeps it has been issued. Consequences, relied on by tests:
//!
//! * results are invariant to worker-thread count and host schedule
//!   (each job owns its RNG);
//! * results are invariant to *cadence* — interleaving other clients,
//!   changing gaps, or splitting a run into different `run_until`
//!   windows never shifts another client's RNG stream;
//! * in an epoch round every client sweeps exactly once, so ordinals
//!   coincide with the legacy global epoch index and rounds reproduce
//!   pre-engine outcomes bit for bit.

use crate::config::{ChronosConfig, IngestionConfig};
use crate::pipeline::{BatchSweep, SweepPipeline};
use crate::plan::{CacheStats, PlanCache};
use crate::runtime::WorkerRuntime;
use crate::service::{ClientOutcome, LocalizationMode, ModeOccupancy, ServiceConfig};
use crate::session::{ChronosSession, SweepOutput};
use crate::tracker::{ClientTracker, PositionTracker, TrackMode, TrackerConfig};
use chronos_link::admission::{AdmissionQueue, IngestionStats, Offer};
use chronos_link::arbiter::{MediumArbiter, SweepGrant};
use chronos_link::event::EventQueue;
use chronos_link::sweep::SweepConfig;
use chronos_link::time::{Duration, Instant};
use chronos_link::traffic::TrafficClass;
use chronos_rf::bands::Band;
use chronos_rf::csi::MeasurementContext;
use chronos_rf::geometry::Point;
use chronos_rf::subset::select_subset;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Delay span scanned when scoring TRACK-subset grating ambiguity. Half
/// the default 200 ns profile span: profiles carry *scaled* delays
/// (scale ≥ 2), so 100 ns of physical delay covers the whole
/// unambiguous range a subset must keep ghost-free.
const SUBSET_AMBIGUITY_SPAN_NS: f64 = 100.0;

/// Idle gap between a TRACK client's sweep completion and its next due
/// in a continuous window. A scheduling turnaround, not a pause: one
/// guard interval below the arbiter's stagger, so TRACK clients re-sweep
/// as soon as their subset airtime allows and the arbiter, not a
/// barrier, paces them.
const TRACK_GAP: Duration = Duration::from_millis(2);

/// Idle gap for ACQUIRE clients (cold or re-acquiring tracks).
const ACQUIRE_GAP: Duration = Duration::from_millis(2);

/// Idle gap between an epoch round's airtime horizon and the clock the
/// next round or window starts at.
const EPOCH_GAP: Duration = Duration::from_millis(5);

/// Multiplier on a plan's loss-free airtime
/// ([`SweepConfig::expected_duration`]) when projecting its admission
/// window — headroom for retransmissions, ~95 ms for the standard ~84 ms
/// sweep. Admission scales with each client's actual plan, so subset
/// sweeps are not overcharged.
const ADMISSION_HEADROOM: f64 = 1.13;

/// Mixes `(seed, ordinal, client)` into an independent RNG stream.
///
/// `ordinal` is the client's own monotonic sweep counter (see the
/// seeding contract in the module docs); the legacy epoch index is the
/// special case where every client sweeps once per round.
pub(crate) fn mix_seed(seed: u64, ordinal: u64, client: usize) -> u64 {
    let mut x = seed ^ ordinal.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= (client as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 30)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The result of one continuous-run window or epoch round
/// (`[started, ended]`).
///
/// A [`ServiceEngine::run_until`] window's outcomes are in
/// sweep-completion order (ties by client index), may contain several
/// sweeps per client (TRACK clients re-sweep as soon as their subset
/// airtime allows) and need not contain every client (a sweep still in
/// the air at the deadline lands in the next window). A
/// [`ServiceEngine::run_epoch`] round reports one fresh sweep per active
/// client, sorted by client, over the round's busy span.
///
/// **Scope: one engine = one AP.** Every field is **per-shard**: in a
/// multi-AP fleet ([`crate::fleet::FleetEngine`]) each AP's engine
/// emits its own `WindowReport`, where `outcomes[i].client` indexes
/// *that shard's* slots (map to fleet client ids via
/// [`crate::fleet::FleetEngine::client_of_slot`]) and `utilization`
/// covers that AP's medium only — including sync-beacon and TDoA-blast
/// airtime the fleet layer charges to the shard's arbiter, which by
/// design appears here as busy air but never as an outcome.
/// **Fleet-aggregated** quantities — TDoA fixes, handoff and
/// handoff-gap counters, sync rounds — never appear in this report;
/// they live on [`crate::fleet::FleetWindowReport`] alongside the
/// per-shard reports it wraps.
///
/// # Examples
///
/// ```
/// use chronos_core::engine::WindowReport;
/// use chronos_core::plan::CacheStats;
/// use chronos_link::time::{Duration, Instant};
///
/// let report = WindowReport {
///     started: Instant::from_millis(100),
///     ended: Instant::from_millis(350),
///     outcomes: Vec::new(),
///     utilization: 0.42,
///     wall: std::time::Duration::ZERO,
///     cache: CacheStats { hits: 2, misses: 1, ndft_entries: 1, spline_entries: 1 },
///     bands_planned: 24,
///     bands_full_sweep: 70,
///     ingestion: Default::default(),
/// };
/// assert_eq!(report.span(), Duration::from_millis(250));
/// assert!((report.airtime_saved() - (1.0 - 24.0 / 70.0)).abs() < 1e-12);
/// assert!((report.cache.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct WindowReport {
    /// Window start on the simulated clock.
    pub started: Instant,
    /// Window end: the `run_until` deadline, or an epoch round's airtime
    /// horizon (the last sweep's end). A round moves the engine's clock
    /// a short idle gap past it, so the next window or round starts a
    /// little after `ended`.
    pub ended: Instant,
    /// Completed-sweep outcomes: in completion order for a window; for
    /// an epoch round, sorted by client — one fresh sweep per active
    /// client, plus any sweep carried over from an earlier window.
    pub outcomes: Vec<ClientOutcome>,
    /// Fraction of the window with at least one sweep on the air.
    pub utilization: f64,
    /// Host wall-clock time spent producing the window.
    pub wall: std::time::Duration,
    /// Plan-cache counters after the window.
    pub cache: CacheStats,
    /// Total bands scheduled across all sweeps admitted this window.
    pub bands_planned: usize,
    /// Bands the same sweeps would have cost as full plans — the
    /// denominator of [`WindowReport::airtime_saved`].
    pub bands_full_sweep: usize,
    /// Ingestion-layer accounting for this window: offered vs. admitted
    /// load, shed/deferral counts per class, queue high-water marks and
    /// the peak TRACK stretch. All-zero (default) when
    /// [`ServiceConfig::ingestion`] is off, and for epoch rounds, which
    /// bypass the admission queue.
    pub ingestion: IngestionStats,
}

impl WindowReport {
    /// The window's length of simulated time (an epoch round's busy
    /// span).
    pub fn span(&self) -> Duration {
        self.ended.saturating_since(self.started)
    }

    /// Sweeps that produced a distance estimate.
    pub fn completed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.distance_m.is_some())
            .count()
    }

    /// Localization throughput: completed sweeps per second of
    /// [`WindowReport::span`]. A window divides by its full length, idle
    /// time included — in continuous operation the medium never drains,
    /// so at steady state this is the airtime rate, but in a sparse
    /// window it is the lower, honest wall-rate. An epoch round divides
    /// by its busy span: the capacity figure an AP operator cares about.
    pub fn sweeps_per_sec(&self) -> f64 {
        let span = self.span().as_secs_f64();
        if span <= 0.0 {
            0.0
        } else {
            self.completed() as f64 / span
        }
    }

    /// Mean absolute ranging error over completed sweeps, meters.
    pub fn mean_abs_error_m(&self) -> Option<f64> {
        let errs: Vec<f64> = self.outcomes.iter().filter_map(|o| o.error_m).collect();
        if errs.is_empty() {
            None
        } else {
            Some(errs.iter().sum::<f64>() / errs.len() as f64)
        }
    }

    /// Fraction of per-fix airtime the adaptive scheduler saved versus
    /// sweeping every client's full plan: `1 − bands_planned /
    /// bands_full_sweep` (band count is an airtime proxy — dwell cost
    /// per band is constant, see [`SweepConfig::expected_duration`]).
    /// Zero for a non-adaptive service.
    pub fn airtime_saved(&self) -> f64 {
        if self.bands_full_sweep == 0 {
            0.0
        } else {
            1.0 - self.bands_planned as f64 / self.bands_full_sweep as f64
        }
    }

    /// Sweeps per mode this window.
    pub fn mode_occupancy(&self) -> ModeOccupancy {
        let mut occ = ModeOccupancy::default();
        for o in &self.outcomes {
            match o.mode {
                TrackMode::Acquire => occ.acquire += 1,
                TrackMode::Track => occ.track += 1,
            }
        }
        occ
    }

    /// RMS error of the distance tracker's fused outputs against ground
    /// truth, meters. `None` for non-adaptive services or before any
    /// filter is seeded.
    pub fn track_rmse_m(&self) -> Option<f64> {
        rms(self.outcomes.iter().filter_map(|o| o.tracked_error_m))
    }

    /// RMS 2-D error of the position tracker's fused outputs against
    /// ground truth, meters. `None` outside position mode or before any
    /// filter is seeded.
    pub fn pos_rmse_m(&self) -> Option<f64> {
        rms(self.outcomes.iter().filter_map(|o| o.tracked_pos_error_m))
    }

    /// Median 2-D error of the raw position fixes against ground truth,
    /// meters — the paper's §12.2 localization observable.
    pub fn median_pos_error_m(&self) -> Option<f64> {
        let errs: Vec<f64> = self.outcomes.iter().filter_map(|o| o.pos_error_m).collect();
        if errs.is_empty() {
            None
        } else {
            Some(chronos_math::stats::median(&errs))
        }
    }

    /// Outcomes reported under QUARANTINE this window (estimates
    /// withheld; see [`crate::service::QuarantineConfig`]).
    pub fn quarantined(&self) -> usize {
        self.outcomes.iter().filter(|o| o.quarantined).count()
    }
}

/// Root mean square of `errs`, `None` when empty.
fn rms(errs: impl Iterator<Item = f64>) -> Option<f64> {
    let errs: Vec<f64> = errs.collect();
    if errs.is_empty() {
        None
    } else {
        Some(chronos_math::stats::rms(&errs))
    }
}

/// Events driving the engine's virtual time.
enum EngineEvent {
    /// A client is due for its next sweep (admission pending).
    SweepDue(usize),
    /// A sweep's link-layer exchange finished; fuse and reschedule.
    SweepComplete(Box<CompletedSweep>),
}

/// Everything a finished sweep carries to its `SweepComplete` event.
struct CompletedSweep {
    client: usize,
    grant: SweepGrant,
    mode: TrackMode,
    class: TrafficClass,
    deferrals: u32,
    bands_planned: usize,
    sweep_index: u64,
    /// Ground truth captured when the sweep *executed* — a caller may
    /// move the client between windows, and a sweep completing across a
    /// window boundary must be scored against the geometry it measured.
    truth_m: f64,
    truth_pos: Point,
    out: SweepOutput,
}

/// One admitted-but-not-yet-executed sweep.
struct Job {
    client: usize,
    grant: SweepGrant,
    sweep_cfg: SweepConfig,
    rng_seed: u64,
    mode: TrackMode,
    class: TrafficClass,
    /// Times the request was pushed back before this admission.
    deferrals: u32,
    sweep_index: u64,
}

/// One client's slot in the engine.
///
/// Slots are never reused: `leave` deactivates a slot but keeps its
/// index (and hence its RNG stream identity) stable forever.
struct Slot {
    session: ChronosSession,
    tracker: Option<ClientTracker>,
    pos_tracker: Option<PositionTracker>,
    /// Whether the mode machine drives band-subset scheduling for this
    /// client (service-wide `adaptive` or a per-client override).
    adaptive: bool,
    /// Monotonic sweep counter — the client's seeding ordinal.
    sweeps: u64,
    /// Whether the client participates in scheduling.
    active: bool,
    /// Whether a `SweepDue` or `SweepComplete` event for this client is
    /// currently queued (at most one sweep per client is ever pending).
    scheduled: bool,
    /// Whether the client is under service-level QUARANTINE: sweeps keep
    /// running (evidence keeps accumulating) but estimates are withheld
    /// from reports (see [`crate::service::QuarantineConfig`]).
    quarantined: bool,
    /// Consecutive completed sweeps with the anomaly score at or below
    /// the release threshold — the hysteresis dwell counter.
    clean_run: usize,
    /// Whether the client is flagged as BACKGROUND traffic (lowest
    /// admission class; first to be shed under overload).
    background: bool,
    /// Deferrals accumulated by the client's *next* sweep request
    /// (retries after a queue rejection or displacement); consumed at
    /// admission into [`Job::deferrals`].
    pending_deferrals: u32,
}

/// A client's portable tracking state, extracted at handoff and
/// implanted into another [`ServiceEngine`] — the fleet layer's
/// mechanism for moving a client between APs **without re-ACQUIRE**.
///
/// What travels: the Kalman tracker (whichever flavor the slot ran),
/// the quarantine verdict with its hysteresis dwell counter, the
/// BACKGROUND flag, and the per-client adaptive override. What does
/// *not* travel: the sweep ordinal — the destination engine issues the
/// client a fresh slot whose ordinal restarts at zero, preserving the
/// seeding contract (a shard's RNG streams are a pure function of its
/// own admission history, never of another shard's).
///
/// Position trackers hold state in the *serving AP's local frame*;
/// call [`MigratedClient::translate`] with `old_ap − new_ap` (world
/// coordinates) before implanting so the estimate lands in the new
/// frame. Distance trackers cannot be re-expressed this way (range to
/// the old AP says nothing about range to the new one), so fleet
/// handoff is a position-mode feature; migrating a distance tracker
/// carries the anomaly evidence but the filter re-seeds on its first
/// fix at the new AP.
#[derive(Debug, Clone)]
pub struct MigratedClient {
    tracker: Option<ClientTracker>,
    pos_tracker: Option<PositionTracker>,
    adaptive: bool,
    quarantined: bool,
    clean_run: usize,
    background: bool,
}

impl MigratedClient {
    /// Re-expresses the position track in the destination AP's frame:
    /// `delta` is `old_ap − new_ap` in world coordinates. No-op for
    /// distance trackers and uninitialized filters.
    pub fn translate(&mut self, delta: Point) {
        if let Some(t) = self.pos_tracker.as_mut() {
            t.translate(delta);
        }
    }

    /// Whether the client was under QUARANTINE at extraction (the
    /// verdict travels with the client — see
    /// [`crate::service::QuarantineConfig`]).
    pub fn is_quarantined(&self) -> bool {
        self.quarantined
    }

    /// The anomaly score carried across the handoff, if the client ran
    /// a tracker.
    pub fn anomaly_score(&self) -> Option<f64> {
        self.tracker
            .as_ref()
            .map(|t| t.anomaly_score())
            .or_else(|| self.pos_tracker.as_ref().map(|t| t.anomaly_score()))
    }

    /// The mode the client's next sweep would run under (TRACK survives
    /// the handoff; that is the point).
    pub fn mode(&self) -> Option<TrackMode> {
        self.tracker
            .as_ref()
            .map(|t| t.mode())
            .or_else(|| self.pos_tracker.as_ref().map(|t| t.mode()))
    }
}

/// Continuous windows periodically release arbiter windows that have
/// fully elapsed (after this many completions), folding their medium
/// coverage into the running utilization — admission cost stays bounded
/// by the in-flight set instead of growing with window length.
const AIRTIME_FLUSH_EVERY: usize = 128;

/// Accumulates one window's (or epoch's) report inputs.
#[derive(Default)]
struct WindowAcc {
    outcomes: Vec<ClientOutcome>,
    bands_planned: usize,
    bands_full_sweep: usize,
    /// Covered medium time already flushed out of the arbiter, ns
    /// (continuous windows only).
    busy_ns: f64,
    /// Start of the not-yet-flushed utilization segment.
    flushed_to: Instant,
    /// Completions since the last airtime flush.
    since_flush: usize,
}

/// Runtime state of the ingestion front-end (present only when
/// [`ServiceConfig::ingestion`] is set).
struct IngestState {
    cfg: IngestionConfig,
    /// The bounded front door; holds client indices whose `SweepDue`
    /// fired but whose admission is pending capacity.
    queue: AdmissionQueue<usize>,
    /// Cumulative counters since engine creation (peak fields hold
    /// all-time maxima, folded in at window boundaries).
    stats: IngestionStats,
    /// Counter snapshot at the start of the current window.
    window_start: IngestionStats,
    /// Peak TRACK stretch factor observed in the current window.
    window_stretch_peak: f64,
}

impl IngestState {
    fn new(cfg: IngestionConfig) -> Self {
        IngestState {
            queue: AdmissionQueue::new(cfg.queue),
            cfg,
            stats: IngestionStats::default(),
            window_start: IngestionStats::default(),
            window_stretch_peak: 1.0,
        }
    }

    /// Current TRACK cadence stretch: 1 at an empty queue (the front
    /// end is transparent under light load), rising linearly with the
    /// queue's global occupancy to [`IngestionConfig::track_stretch_max`]
    /// when full.
    fn stretch(&self) -> f64 {
        let cap = self.cfg.queue.global_depth.max(1) as f64;
        let fill = (self.queue.len() as f64 / cap).min(1.0);
        1.0 + fill * (self.cfg.track_stretch_max.max(1.0) - 1.0)
    }
}

/// The continuous virtual-time sweep engine: a pool of
/// [`ChronosSession`]s sharing one [`PlanCache`] and one arbitrated
/// medium, driven by staged events instead of a lock-step epoch barrier.
///
/// See the module docs for the event lifecycle, the cadence policy and
/// the **seeding contract** (per-client monotonic sweep counters; results
/// invariant to thread count, host schedule and cadence).
pub struct ServiceEngine {
    cfg: ServiceConfig,
    plans: Arc<PlanCache>,
    slots: Vec<Slot>,
    /// TRACK subsets, memoized per (full-plan channels, subset size) —
    /// [`select_subset`] is pure, so every client on the standard plan
    /// shares one entry (and hence one cached NDFT plan downstream).
    subsets: HashMap<(Vec<u16>, usize), Arc<Vec<Band>>>,
    arbiter: MediumArbiter,
    queue: EventQueue<EngineEvent>,
    /// `SweepComplete` events currently queued — sweeps on the air. The
    /// ingestion drain uses this for work conservation: with nothing in
    /// flight and nothing admitted this instant, at least one queued
    /// request is always released regardless of the backlog limit.
    in_flight: usize,
    /// Ingestion front-end state (`None`: dues book the arbiter
    /// directly, pre-ingestion behavior bit for bit).
    ingest: Option<IngestState>,
    clock: Instant,
    /// One scratch pipeline per lane, owned by the engine and reused for
    /// every batch — this is what makes steady-state estimation
    /// allocation-free. Single-sweep batches run inline on the first;
    /// multi-sweep batches spread over all of them. Allocated lazily.
    pipelines: Vec<SweepPipeline>,
    /// Spreads multi-sweep batches over `pipelines`: the engine's thread
    /// plus `threads - 1` scoped threads per batch. Created on the first
    /// multi-sweep batch of a multi-threaded engine and kept for its
    /// counters.
    runtime: Option<Arc<WorkerRuntime>>,
}

impl fmt::Debug for ServiceEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServiceEngine")
            .field("clients", &self.slots.len())
            .field("active", &self.n_active())
            .field("clock", &self.clock)
            .field("pending_events", &self.queue.len())
            .finish()
    }
}

impl ServiceEngine {
    /// Creates an empty engine with a fresh plan cache.
    pub fn new(cfg: ServiceConfig) -> Self {
        Self::with_cache(cfg, Arc::new(PlanCache::new()))
    }

    /// Creates an engine that shares an existing plan cache.
    pub fn with_cache(cfg: ServiceConfig, plans: Arc<PlanCache>) -> Self {
        let arbiter = MediumArbiter::new(cfg.arbiter);
        let ingest = cfg.ingestion.map(IngestState::new);
        ServiceEngine {
            cfg,
            plans,
            slots: Vec::new(),
            subsets: HashMap::new(),
            arbiter,
            queue: EventQueue::new(),
            in_flight: 0,
            ingest,
            clock: Instant::ZERO,
            pipelines: Vec::new(),
            runtime: None,
        }
    }

    /// The shared plan cache.
    pub fn plans(&self) -> &Arc<PlanCache> {
        &self.plans
    }

    /// The engine's policy.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// The airtime arbiter (admission windows, utilization, the
    /// single-charge `total_tracked_airtime` accounting).
    pub fn arbiter(&self) -> &MediumArbiter {
        &self.arbiter
    }

    /// The engine's virtual clock (end of the last window).
    pub fn clock(&self) -> Instant {
        self.clock
    }

    /// Queued events (pending dues and in-flight completions). Zero
    /// means the engine is quiescent.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Adds a client from its physical measurement context; returns its
    /// slot index. The session borrows the engine's plan cache.
    pub fn join(&mut self, ctx: MeasurementContext, config: ChronosConfig) -> usize {
        let session = ChronosSession::with_cache(ctx, config, Arc::clone(&self.plans));
        self.join_session(session)
    }

    /// Adds a client with a per-client tracker policy overriding the
    /// service-wide [`ServiceConfig::adaptive`] setting — e.g. to pin a
    /// client in ACQUIRE (`acquire_fixes: usize::MAX`) or give one
    /// client different filter noise.
    pub fn join_with_tracker(
        &mut self,
        ctx: MeasurementContext,
        config: ChronosConfig,
        tracker: TrackerConfig,
    ) -> usize {
        let session = ChronosSession::with_cache(ctx, config, Arc::clone(&self.plans));
        self.join_session_with(session, Some(tracker))
    }

    /// Adopts an existing session as a client (its plan cache is
    /// replaced by the engine's shared one).
    pub fn join_session(&mut self, session: ChronosSession) -> usize {
        self.join_session_with(session, None)
    }

    /// [`ServiceEngine::join_session`] with an optional per-client
    /// tracker override (see [`ServiceEngine::join_with_tracker`]).
    pub fn join_session_with(
        &mut self,
        mut session: ChronosSession,
        tracker: Option<TrackerConfig>,
    ) -> usize {
        session.plans = Arc::clone(&self.plans);
        let adaptive = self.cfg.adaptive.is_some() || tracker.is_some();
        let tracker_cfg = tracker.or(self.cfg.adaptive);
        let (dist_tracker, pos_tracker) = match self.cfg.localization {
            LocalizationMode::Distance => (tracker_cfg.map(ClientTracker::new), None),
            LocalizationMode::Position => {
                // Position mode always fuses through a tracker; `adaptive`
                // only decides whether its mode machine drives band-subset
                // scheduling.
                (
                    None,
                    Some(PositionTracker::new(tracker_cfg.unwrap_or_default())),
                )
            }
        };
        self.slots.push(Slot {
            session,
            tracker: dist_tracker,
            pos_tracker,
            adaptive,
            sweeps: 0,
            active: true,
            scheduled: false,
            quarantined: false,
            clean_run: 0,
            background: false,
            pending_deferrals: 0,
        });
        self.slots.len() - 1
    }

    /// Deactivates a client immediately. Its slot index stays valid (and
    /// is never reused); a sweep already in the air completes and is
    /// reported, but nothing further is scheduled. Returns whether the
    /// client was active.
    pub fn leave(&mut self, idx: usize) -> bool {
        match self.slots.get_mut(idx) {
            Some(s) if s.active => {
                s.active = false;
                true
            }
            _ => false,
        }
    }

    /// Extracts a client's portable tracking state and deactivates the
    /// slot — the departure half of a fleet handoff. Returns `None` if
    /// the slot is missing or already inactive. A sweep still in the
    /// air completes and is reported here (its outcome belongs to the
    /// old AP); the extracted state is the tracker as of the sweeps
    /// already absorbed.
    pub fn extract_client(&mut self, idx: usize) -> Option<MigratedClient> {
        let slot = self.slots.get(idx)?;
        if !slot.active {
            return None;
        }
        let state = MigratedClient {
            tracker: slot.tracker.clone(),
            pos_tracker: slot.pos_tracker.clone(),
            adaptive: slot.adaptive,
            quarantined: slot.quarantined,
            clean_run: slot.clean_run,
            background: slot.background,
        };
        self.leave(idx);
        Some(state)
    }

    /// The arrival half of a fleet handoff: adds a client whose tracker,
    /// quarantine verdict and flags come from
    /// [`ServiceEngine::extract_client`] on another engine (after
    /// [`MigratedClient::translate`] re-framed a position track). The
    /// new slot's sweep ordinal starts at zero like any other join —
    /// see [`MigratedClient`] for why. The client's first sweep here
    /// runs under the migrated mode: a TRACK arrival schedules a
    /// band-subset sweep immediately, no re-ACQUIRE.
    pub fn join_migrated(
        &mut self,
        ctx: MeasurementContext,
        config: ChronosConfig,
        state: MigratedClient,
    ) -> usize {
        let session = ChronosSession::with_cache(ctx, config, Arc::clone(&self.plans));
        self.slots.push(Slot {
            session,
            tracker: state.tracker,
            pos_tracker: state.pos_tracker,
            adaptive: state.adaptive,
            sweeps: 0,
            active: true,
            scheduled: false,
            quarantined: state.quarantined,
            clean_run: state.clean_run,
            background: state.background,
            pending_deferrals: 0,
        });
        self.slots.len() - 1
    }

    /// Books an externally-timed transmission on this AP's medium — the
    /// fleet layer charges inter-AP sync beacons and TDoA blasts here so
    /// they contend with (and are counted against) the shard's regular
    /// sweep airtime. The transmission is admitted at `not_before` under
    /// the normal arbiter rules (guard bands, concurrency stagger) and
    /// completed immediately at its granted start plus `airtime`.
    /// Returns the granted start.
    pub fn charge_airtime(&mut self, not_before: Instant, airtime: Duration) -> Instant {
        let grant = self.arbiter.admit(not_before, airtime);
        let start = grant.start;
        self.arbiter.complete(grant.token, start + airtime);
        start
    }

    /// Books an *overheard* transmission on this AP's medium at exactly
    /// `[at, at + airtime)` — no admission, no deferral, no stagger
    /// (see [`MediumArbiter::book`]). The fleet layer charges one-way
    /// TDoA blasts here: the client transmits on its own cadence
    /// regardless of this AP's schedule, so the air is busy at the
    /// actual blast instant, and booking is O(1) instead of an
    /// admission scan — at a thousand roaming clients a shard overhears
    /// thousands of blasts per window, and routing them through
    /// [`ServiceEngine::charge_airtime`] made the fleet's blast booking
    /// quadratic in the blast count.
    pub fn charge_airtime_at(&mut self, at: Instant, airtime: Duration) {
        self.arbiter.book(at, airtime);
    }

    /// Forgets the arbiter windows that ended by the engine clock, as
    /// [`ServiceEngine::run_until`] does when it starts: none of them can
    /// affect an admission at or after the clock, or the coming window's
    /// utilization. The fleet calls it before it books a window's
    /// beacons and blasts, so a shard's arbiter holds one window's
    /// bookings rather than two windows' worth.
    pub(crate) fn release_elapsed_airtime(&mut self) {
        self.arbiter.release_before(self.clock);
    }

    /// Whether a slot currently participates in scheduling.
    pub fn is_active(&self, idx: usize) -> bool {
        self.slots.get(idx).map(|s| s.active).unwrap_or(false)
    }

    /// Total slots ever created (indices run `0..n_slots()`).
    pub fn n_slots(&self) -> usize {
        self.slots.len()
    }

    /// Currently active clients.
    pub fn n_active(&self) -> usize {
        self.slots.iter().filter(|s| s.active).count()
    }

    /// Immutable access to a client session.
    pub fn session(&self, idx: usize) -> &ChronosSession {
        &self.slots[idx].session
    }

    /// Mutable access to a client session (geometry updates between
    /// windows).
    pub fn session_mut(&mut self, idx: usize) -> &mut ChronosSession {
        &mut self.slots[idx].session
    }

    /// A client's distance tracker (adaptive distance-mode only).
    pub fn tracker(&self, idx: usize) -> Option<&ClientTracker> {
        self.slots.get(idx).and_then(|s| s.tracker.as_ref())
    }

    /// A client's position tracker (position-mode only).
    pub fn position_tracker(&self, idx: usize) -> Option<&PositionTracker> {
        self.slots.get(idx).and_then(|s| s.pos_tracker.as_ref())
    }

    /// Whether a client is currently under QUARANTINE (see
    /// [`crate::service::QuarantineConfig`]). Always `false` when the
    /// policy is off.
    pub fn is_quarantined(&self, idx: usize) -> bool {
        self.slots.get(idx).map(|s| s.quarantined).unwrap_or(false)
    }

    /// A client's current anomaly score (whichever tracker the slot
    /// runs; `None` for non-adaptive distance clients).
    pub fn anomaly_score(&self, idx: usize) -> Option<f64> {
        self.slots.get(idx).and_then(|s| {
            s.tracker
                .as_ref()
                .map(|t| t.anomaly_score())
                .or_else(|| s.pos_tracker.as_ref().map(|t| t.anomaly_score()))
        })
    }

    /// Flags a client as BACKGROUND traffic: its sweep requests are
    /// offered to the admission queue in the lowest class. With
    /// ingestion disabled the flag only annotates
    /// [`ClientOutcome::class`].
    pub fn set_background(&mut self, idx: usize, background: bool) {
        if let Some(s) = self.slots.get_mut(idx) {
            s.background = background;
        }
    }

    /// Whether a client is flagged as BACKGROUND traffic.
    pub fn is_background(&self, idx: usize) -> bool {
        self.slots.get(idx).map(|s| s.background).unwrap_or(false)
    }

    /// Cumulative ingestion accounting since engine creation (`None`
    /// when the front-end is off). Peak fields report all-time maxima
    /// including the in-progress window.
    pub fn ingestion_stats(&self) -> Option<IngestionStats> {
        self.ingest.as_ref().map(|ing| {
            let mut s = ing.stats;
            let hw = ing.queue.high_water();
            s.queue_peak.acquire = s.queue_peak.acquire.max(hw.acquire);
            s.queue_peak.track = s.queue_peak.track.max(hw.track);
            s.queue_peak.background = s.queue_peak.background.max(hw.background);
            s.queue_peak_total = s.queue_peak_total.max(ing.queue.high_water_total() as u64);
            s.stretch_peak = s.stretch_peak.max(ing.window_stretch_peak);
            s
        })
    }

    /// The admission class of a client's next sweep request.
    fn class_of(&self, client: usize) -> TrafficClass {
        if self.slots[client].background {
            TrafficClass::Background
        } else {
            match self.sched_mode(client).0 {
                TrackMode::Acquire => TrafficClass::Acquire,
                TrackMode::Track => TrafficClass::Track,
            }
        }
    }

    /// Calibrates every client at its current (known) geometry with `n`
    /// sweeps each (paper §7 obs. 2). Sequential: calibration is a
    /// one-time setup step.
    pub fn calibrate_all(&mut self, seed: u64, n: usize) {
        for (i, slot) in self.slots.iter_mut().enumerate() {
            let mut rng = StdRng::seed_from_u64(mix_seed(seed, 0, i));
            slot.session.calibrate(&mut rng, n);
        }
    }

    /// Worker-thread count for this run.
    fn thread_count(&self) -> usize {
        thread_count(self.cfg.threads)
    }

    /// The TRACK-mode subset for one client's full plan, memoized.
    ///
    /// Subsets are drawn from the plan's 5 GHz members: they share one
    /// delay scale (so the estimator inverts a single coherent group)
    /// and avoid the 2.4 ↔ 5 GHz gap, whose extreme spacing contributes
    /// ambiguity rather than aperture. Plans without enough 5 GHz bands
    /// fall back to selecting over the whole plan.
    fn track_subset(&mut self, client: usize, k: usize) -> Arc<Vec<Band>> {
        let full = &self.slots[client].session.sweep_cfg.plan;
        let key: (Vec<u16>, usize) = (full.iter().map(|b| b.channel).collect(), k);
        if let Some(s) = self.subsets.get(&key) {
            return Arc::clone(s);
        }
        let pool: Vec<Band> = full.iter().filter(|b| !b.group.is_2g4()).cloned().collect();
        let pool = if pool.len() >= k.max(5) {
            pool
        } else {
            full.clone()
        };
        let sub = Arc::new(select_subset(&pool, k, SUBSET_AMBIGUITY_SPAN_NS));
        self.subsets.insert(key, Arc::clone(&sub));
        sub
    }

    /// The mode and band request the scheduler reads for a client's next
    /// sweep.
    fn sched_mode(&self, client: usize) -> (TrackMode, Option<usize>) {
        let slot = &self.slots[client];
        if let Some(t) = &slot.pos_tracker {
            // A non-adaptive position service still fuses fixes, but
            // always sweeps the full plan — and reports the sweep it
            // actually issues (ACQUIRE-class), not the fusion machine's
            // internal mode.
            if slot.adaptive {
                (t.mode(), t.requested_bands())
            } else {
                (TrackMode::Acquire, None)
            }
        } else if let Some(t) = &slot.tracker {
            (t.mode(), t.requested_bands())
        } else {
            (TrackMode::Acquire, None)
        }
    }

    /// Admits one client's sweep at `now`: schedule its plan from
    /// tracker state, price the admission window per plan, draw the
    /// sweep's RNG seed from the client's sweep counter.
    fn admit(&mut self, client: usize, now: Instant, seed: u64, acc: &mut WindowAcc) -> Job {
        let mut sweep_cfg = self.slots[client].session.sweep_cfg.clone();
        acc.bands_full_sweep += sweep_cfg.plan.len();
        let (mode, requested) = self.sched_mode(client);
        if let Some(k) = requested {
            sweep_cfg.plan = self.track_subset(client, k).as_ref().clone();
        }
        acc.bands_planned += sweep_cfg.plan.len();
        // A jamming attacker degrades the link itself: project its jammed
        // channels onto the *final* (possibly subset) plan as per-band
        // frame loss. Honest clients keep the empty vector, which draws
        // no extra randomness in the link layer.
        if let Some(attacker) = &self.slots[client].session.ctx.attacker {
            if let Some(loss) = attacker.band_loss(&sweep_cfg.plan) {
                sweep_cfg.band_loss = loss;
            }
        }
        let expected = sweep_cfg.expected_duration().mul_f64(ADMISSION_HEADROOM);
        let grant = self.arbiter.admit(now, expected);
        sweep_cfg.medium.loss_prob = (sweep_cfg.medium.loss_prob + grant.extra_loss).min(0.9);
        let class = self.class_of(client);
        let slot = &mut self.slots[client];
        let sweep_index = slot.sweeps;
        slot.sweeps += 1;
        Job {
            client,
            grant,
            sweep_cfg,
            rng_seed: mix_seed(seed, sweep_index + 1, client),
            mode,
            class,
            deferrals: std::mem::take(&mut slot.pending_deferrals),
            sweep_index,
        }
    }

    /// Runs a batch of admitted sweeps. A single sweep, or any batch of a
    /// single-threaded engine, runs inline on the first pipeline; a
    /// larger batch spreads over one pipeline per thread through the
    /// [`WorkerRuntime`], the engine's thread taking the first. Results
    /// come back in batch (ordinal) order, and each job owns its seeded
    /// RNG, so neither the thread schedule nor the batching can change
    /// any result — the `{1, 2, 8}`-thread bitwise determinism tests
    /// pin this.
    fn execute(&mut self, jobs: &[Job]) -> Vec<SweepOutput> {
        let threads = self.thread_count();
        let slots = self.slots.as_slice();
        let sweeps = jobs.iter().map(|job| BatchSweep {
            session: &slots[job.client].session,
            sweep_cfg: &job.sweep_cfg,
            rng_seed: job.rng_seed,
            start: job.grant.start,
        });
        let run = |pipeline: &mut SweepPipeline, sweep: BatchSweep<'_>| pipeline.run_sweep(&sweep);
        if jobs.len() <= 1 || threads == 1 {
            if self.pipelines.is_empty() {
                self.pipelines.push(SweepPipeline::new());
            }
            let pipeline = &mut self.pipelines[0];
            return sweeps.map(|sweep| run(pipeline, sweep)).collect();
        }
        let runtime = self
            .runtime
            .get_or_insert_with(|| Arc::new(WorkerRuntime::new(threads - 1)));
        self.pipelines
            .resize_with(runtime.workers() + 1, SweepPipeline::new);
        runtime.run(sweeps, &mut self.pipelines, run)
    }

    /// The engine's [`WorkerRuntime`], once a multi-sweep batch of a
    /// multi-threaded engine has created it.
    pub fn runtime(&self) -> Option<&Arc<WorkerRuntime>> {
        self.runtime.as_ref()
    }

    /// Processes one `SweepComplete`: feed the actual finish back, fuse
    /// the fix into the client's tracker, record the outcome, and (in a
    /// continuous window, where `track_stretch` is `Some`) reschedule the
    /// client at its per-mode cadence, TRACK gaps stretched by the
    /// ingestion pressure. An epoch round passes `None`: it never
    /// reschedules.
    fn finish_sweep(
        &mut self,
        done: CompletedSweep,
        now: Instant,
        track_stretch: Option<f64>,
        acc: &mut WindowAcc,
    ) {
        let CompletedSweep {
            client,
            grant,
            mode,
            class,
            deferrals,
            bands_planned,
            sweep_index,
            truth_m,
            truth_pos,
            out,
        } = done;
        let slot = &mut self.slots[client];
        let distance_m = out.mean_distance_m();
        let mut next_mode = TrackMode::Acquire;
        let mut anomaly_score = None;
        let (predicted_m, tracked_m, innovation_sigmas) = match &mut slot.tracker {
            Some(tracker) => {
                let upd = tracker.observe(out.link.started, distance_m, out.link.complete);
                next_mode = upd.next_mode;
                anomaly_score = Some(upd.anomaly_score);
                (upd.predicted, upd.fused, upd.innovation.map(|i| i.sigmas()))
            }
            None => (None, None, None),
        };
        let (position, pos_residual_m, pos_antennas, tracked_pos, pos_innovation_sigmas) =
            match &mut slot.pos_tracker {
                Some(tracker) => {
                    let resolved = tracker.resolve(&out.position_candidates);
                    let fix = resolved.map(|p| p.point);
                    let upd = tracker.observe(out.link.started, fix, out.link.complete);
                    if slot.adaptive {
                        next_mode = upd.next_mode;
                    }
                    anomaly_score = Some(upd.anomaly_score);
                    (
                        fix,
                        resolved.map(|p| p.residual_m),
                        resolved.map(|p| p.n_used),
                        upd.fused,
                        upd.innovation.map(|i| i.sigmas()),
                    )
                }
                None => (None, None, None, None, None),
            };
        // Quarantine hysteresis: entering is immediate (this outcome is
        // already withheld), release requires the score to sit at or
        // below the release threshold for `release_dwell` consecutive
        // sweeps. The sweep itself still ran and its fix still fed the
        // tracker — quarantine withholds the *report*, not the evidence.
        if let (Some(q), Some(score)) = (&self.cfg.quarantine, anomaly_score) {
            if slot.quarantined {
                if score <= q.release {
                    slot.clean_run += 1;
                    if slot.clean_run >= q.release_dwell {
                        slot.quarantined = false;
                        slot.clean_run = 0;
                    }
                } else {
                    slot.clean_run = 0;
                }
            } else if score >= q.threshold && sweep_index + 1 >= q.min_sweeps {
                slot.quarantined = true;
                slot.clean_run = 0;
            }
        }
        let quarantined = slot.quarantined;
        fn serve<T>(quarantined: bool, v: Option<T>) -> Option<T> {
            if quarantined {
                None
            } else {
                v
            }
        }
        acc.outcomes.push(ClientOutcome {
            client,
            sweep: sweep_index,
            started: out.link.started,
            finished: out.link.finished,
            concurrent: grant.concurrent,
            extra_loss: grant.extra_loss,
            link_complete: out.link.complete,
            distance_m: serve(quarantined, distance_m),
            truth_m,
            error_m: serve(quarantined, distance_m).map(|d| (d - truth_m).abs()),
            mode,
            bands_planned,
            predicted_m: serve(quarantined, predicted_m),
            tracked_m: serve(quarantined, tracked_m),
            tracked_error_m: serve(quarantined, tracked_m).map(|d| (d - truth_m).abs()),
            innovation_sigmas,
            position: serve(quarantined, position),
            pos_residual_m: serve(quarantined, pos_residual_m),
            pos_antennas: serve(quarantined, pos_antennas),
            truth_pos,
            pos_error_m: serve(quarantined, position).map(|p| p.dist(truth_pos)),
            tracked_pos: serve(quarantined, tracked_pos),
            tracked_pos_error_m: serve(quarantined, tracked_pos).map(|p| p.dist(truth_pos)),
            pos_innovation_sigmas,
            anomaly_score,
            quarantined,
            class,
            deferrals,
        });
        match track_stretch {
            Some(stretch) if slot.active => {
                let gap = match next_mode {
                    // Cadence degradation: under queue pressure TRACK gaps
                    // stretch (the first rung of the shedding ladder).
                    // `stretch` is exactly 1.0 whenever ingestion is off,
                    // keeping the legacy path bit-for-bit intact.
                    TrackMode::Track if stretch > 1.0 => TRACK_GAP.mul_f64(stretch),
                    TrackMode::Track => TRACK_GAP,
                    TrackMode::Acquire => ACQUIRE_GAP,
                };
                slot.scheduled = true;
                self.queue
                    .schedule(now + gap, EngineEvent::SweepDue(client));
            }
            _ => slot.scheduled = false,
        }
    }

    /// Schedules a `SweepDue` at `at` for every active client that has
    /// no pending event (in slot order — the deterministic tie-break).
    fn schedule_idle_clients(&mut self, at: Instant) {
        for idx in 0..self.slots.len() {
            if self.slots[idx].active && !self.slots[idx].scheduled {
                self.slots[idx].scheduled = true;
                self.queue.schedule(at, EngineEvent::SweepDue(idx));
            }
        }
    }

    /// Folds the medium coverage of `[acc.flushed_to, now)` into the
    /// running window utilization, then releases every arbiter window
    /// that ended by `now` — those can no longer affect any admission
    /// (dues only fire at or after `now`), so the admission scan stays
    /// bounded by the in-flight set even in very long windows.
    fn flush_airtime(&mut self, now: Instant, acc: &mut WindowAcc) {
        let span = now.saturating_since(acc.flushed_to);
        if span > Duration::ZERO {
            acc.busy_ns += self.arbiter.utilization(acc.flushed_to, now) * span.as_nanos() as f64;
        }
        self.arbiter.release_before(now);
        acc.flushed_to = now;
        acc.since_flush = 0;
    }

    /// Reschedules a pushed-back request (deferred, displaced, or shed)
    /// after the ingestion retry gap. The slot's `scheduled` claim
    /// stays held by the retry event.
    fn retry_later(&mut self, client: usize, now: Instant, gap: Duration) {
        self.slots[client].pending_deferrals += 1;
        self.queue
            .schedule(now + gap, EngineEvent::SweepDue(client));
    }

    /// The event loop: processes queued events in virtual-time order
    /// until the next event would fire past `deadline` (a continuous
    /// window) or, without a deadline (an epoch round), until the queue
    /// is empty. Only a window reschedules completed sweeps, admits
    /// ACQUIRE dues first and runs the ingestion front end; a round
    /// keeps the legacy semantics.
    ///
    /// All events firing at one instant are drained together and
    /// processed completions first, then the admission batch —
    /// completions before admissions so same-instant grants see actual
    /// sweep ends, dues last so the ACQUIRE-priority ordering spans
    /// every due of the instant.
    ///
    /// With the ingestion front-end active (continuous windows only),
    /// dues no longer book the arbiter directly: they are *offered* to
    /// the bounded [`AdmissionQueue`] (sheds and deferrals decided
    /// here), and the queue is drained in class-priority order only
    /// while the arbiter's booking horizon stays inside
    /// [`IngestionConfig::backlog_limit`] — with a work-conservation
    /// escape: if nothing is in flight and nothing was admitted this
    /// instant, one request is always released, so a non-empty queue
    /// always implies a pending completion and hence a future drain.
    fn pump(&mut self, seed: u64, deadline: Option<Instant>, acc: &mut WindowAcc) {
        let continuous = deadline.is_some();
        // Taking the front end's state out of `self` lets the loop
        // borrow both freely.
        let mut ingest = if continuous { self.ingest.take() } else { None };
        while let Some(now) = self.queue.peek_time() {
            if deadline.is_some_and(|d| now > d) {
                break;
            }
            // Drain the whole instant (pop order is deterministic).
            let mut completes: Vec<Box<CompletedSweep>> = Vec::new();
            let mut due: Vec<usize> = Vec::new();
            while let Some(event) = self.queue.pop_if_at(now) {
                match event {
                    EngineEvent::SweepComplete(done) => {
                        self.in_flight -= 1;
                        completes.push(done);
                    }
                    EngineEvent::SweepDue(c) => due.push(c),
                }
            }
            // TRACK reschedules of this instant's completions see the
            // queue pressure as it stands *before* this instant's
            // arrivals — the pressure those sweeps actually ran under.
            let track_stretch = match &ingest {
                Some(ing) => ing.stretch(),
                None => 1.0,
            };
            if let Some(ing) = ingest.as_mut() {
                ing.window_stretch_peak = ing.window_stretch_peak.max(track_stretch);
            }
            acc.since_flush += completes.len();
            for done in completes {
                self.finish_sweep(*done, now, continuous.then_some(track_stretch), acc);
            }
            if continuous && acc.since_flush >= AIRTIME_FLUSH_EVERY {
                self.flush_airtime(now, acc);
            }
            // Departed clients' dues dissolve.
            for &c in &due {
                if !self.slots[c].active {
                    self.slots[c].scheduled = false;
                }
            }
            due.retain(|&c| self.slots[c].active);
            let mut jobs = Vec::with_capacity(due.len());
            if let Some(ing) = ingest.as_mut() {
                // Offer this instant's fresh dues to the bounded queue,
                // in due order. The ladder: TRACK rejections defer
                // (cadence keeps degrading), BACKGROUND rejections and
                // displacement victims are shed, ACQUIRE rejections —
                // possible only once displacement finds no background
                // victim — are shed as the last resort.
                for &c in &due {
                    let class = self.class_of(c);
                    ing.stats.offered.add(class, 1);
                    match ing.queue.offer(class, c) {
                        Offer::Enqueued => {}
                        Offer::Displaced(victim) => {
                            ing.stats.shed.add(TrafficClass::Background, 1);
                            self.retry_later(victim, now, ing.cfg.retry_gap);
                        }
                        Offer::Rejected(c) => {
                            if class == TrafficClass::Track {
                                ing.stats.deferred.add(class, 1);
                            } else {
                                ing.stats.shed.add(class, 1);
                            }
                            self.retry_later(c, now, ing.cfg.retry_gap);
                        }
                    }
                }
                // Drain in class-priority order while the arbiter's
                // booking horizon stays inside the backlog limit (each
                // admission pushes the horizon out, tightening the
                // check), with the work-conservation escape described
                // above.
                while let Some(class) = ing.queue.peek_class() {
                    let backlog = self.arbiter.horizon().saturating_since(now);
                    let has_capacity = backlog < ing.cfg.backlog_limit;
                    let work_conserving = self.in_flight == 0 && jobs.is_empty();
                    if !has_capacity && !work_conserving {
                        break;
                    }
                    let (_, c) = ing.queue.pop().expect("peeked class");
                    if !self.slots[c].active {
                        // Departed while queued: the claim dissolves.
                        self.slots[c].scheduled = false;
                        continue;
                    }
                    ing.stats.admitted.add(class, 1);
                    jobs.push(self.admit(c, now, seed, acc));
                }
                // Pressure is what *survives* the drain: requests parked
                // behind the backlog limit, not the transient occupancy
                // of same-instant offer-then-admit churn.
                ing.window_stretch_peak = ing.window_stretch_peak.max(ing.stretch());
            } else {
                if continuous {
                    // When several clients of a continuous window fall
                    // due at the same instant, ACQUIRE clients are
                    // admitted first (stable: ties keep due order) — a
                    // cold or broken track gets the earliest slot the
                    // arbiter can grant. Epoch rounds admit in client
                    // order.
                    due.sort_by_key(|&c| self.sched_mode(c).0 == TrackMode::Track);
                }
                for &c in &due {
                    jobs.push(self.admit(c, now, seed, acc));
                }
            }
            if jobs.is_empty() {
                continue;
            }
            let results = self.execute(&jobs);
            for (job, out) in jobs.into_iter().zip(results) {
                self.arbiter.complete(job.grant.token, out.link.finished);
                let ctx = &self.slots[job.client].session.ctx;
                self.in_flight += 1;
                self.queue.schedule(
                    out.link.finished,
                    EngineEvent::SweepComplete(Box::new(CompletedSweep {
                        client: job.client,
                        grant: job.grant,
                        mode: job.mode,
                        class: job.class,
                        deferrals: job.deferrals,
                        bands_planned: job.sweep_cfg.plan.len(),
                        sweep_index: job.sweep_index,
                        truth_m: ctx.initiator_pos.dist(ctx.responder_pos),
                        truth_pos: ctx.initiator_pos.sub(ctx.responder_pos),
                        out,
                    })),
                );
            }
        }
        if let Some(ing) = ingest {
            self.ingest = Some(ing);
        }
    }

    /// Snapshots the ingestion counters and resets the per-window peak
    /// trackers at a window's start. No-op with the front-end off.
    fn begin_ingest_window(&mut self) {
        if let Some(ing) = self.ingest.as_mut() {
            ing.window_start = ing.stats;
            ing.queue.reset_high_water();
            ing.window_stretch_peak = ing.stretch();
        }
    }

    /// The window's ingestion delta (counters since
    /// [`ServiceEngine::begin_ingest_window`], peaks over the window),
    /// folding the window's peaks into the cumulative all-time maxima.
    /// All-zero with the front-end off.
    fn end_ingest_window(&mut self) -> IngestionStats {
        let Some(ing) = self.ingest.as_mut() else {
            return IngestionStats::default();
        };
        let hw = ing.queue.high_water();
        let hw_total = ing.queue.high_water_total() as u64;
        ing.stats.queue_peak.acquire = ing.stats.queue_peak.acquire.max(hw.acquire);
        ing.stats.queue_peak.track = ing.stats.queue_peak.track.max(hw.track);
        ing.stats.queue_peak.background = ing.stats.queue_peak.background.max(hw.background);
        ing.stats.queue_peak_total = ing.stats.queue_peak_total.max(hw_total);
        ing.stats.stretch_peak = ing.stats.stretch_peak.max(ing.window_stretch_peak);
        let mut w = ing.stats.counters_since(&ing.window_start);
        w.queue_peak = hw;
        w.queue_peak_total = hw_total;
        w.stretch_peak = ing.window_stretch_peak;
        w
    }

    /// Releases everything still waiting in the admission queue as
    /// immediate dues at `at`. Epoch rounds bypass the front door
    /// entirely (legacy semantics), so mixing windows and rounds must
    /// not strand a queued client behind a door nobody is draining.
    fn flush_ingest_to_dues(&mut self, at: Instant) {
        if let Some(ing) = self.ingest.as_mut() {
            while let Some((class, c)) = ing.queue.pop() {
                ing.stats.admitted.add(class, 1);
                self.queue.schedule(at, EngineEvent::SweepDue(c));
            }
        }
    }

    /// Runs the engine continuously until `deadline`: every active
    /// client is (re)scheduled at its own cadence — TRACK clients
    /// re-sweep as soon as their subset airtime allows, ACQUIRE clients
    /// get priority admission — and the window's completed sweeps are
    /// reported. Sweeps still in the air at the deadline complete in the
    /// next window.
    pub fn run_until(&mut self, seed: u64, deadline: Instant) -> WindowReport {
        let started = self.clock;
        let ended = deadline.max(started);
        let wall_start = std::time::Instant::now();
        if ended == started {
            // Zero-length window: a no-op, not a round of admissions.
            return WindowReport {
                started,
                ended,
                outcomes: Vec::new(),
                utilization: 0.0,
                wall: wall_start.elapsed(),
                cache: self.plans.stats(),
                bands_planned: 0,
                bands_full_sweep: 0,
                ingestion: IngestionStats::default(),
            };
        }
        let mut acc = WindowAcc {
            flushed_to: started,
            ..WindowAcc::default()
        };
        // Windows fully behind the last report can no longer overlap any
        // admission; dropping them keeps the arbiter scan bounded.
        self.arbiter.release_before(started);
        self.begin_ingest_window();
        self.schedule_idle_clients(started);
        self.pump(seed, Some(ended), &mut acc);
        let ingestion = self.end_ingest_window();
        // Utilization = periodically flushed coverage plus the tail the
        // arbiter still tracks (the segments are disjoint by
        // construction).
        let tail = ended.saturating_since(acc.flushed_to);
        let busy_ns = acc.busy_ns
            + if tail > Duration::ZERO {
                self.arbiter.utilization(acc.flushed_to, ended) * tail.as_nanos() as f64
            } else {
                0.0
            };
        let span_ns = ended.saturating_since(started).as_nanos();
        let utilization = if span_ns == 0 {
            0.0
        } else {
            busy_ns / span_ns as f64
        };
        self.clock = ended;
        WindowReport {
            started,
            ended,
            outcomes: acc.outcomes,
            utilization,
            wall: wall_start.elapsed(),
            cache: self.plans.stats(),
            bands_planned: acc.bands_planned,
            bands_full_sweep: acc.bands_full_sweep,
            ingestion,
        }
    }

    /// Plays one legacy lock-step epoch round: every active client is
    /// scheduled once at the current clock (admission in client order,
    /// no priority), the queue drains without rescheduling, and the
    /// clock advances past the round's airtime horizon plus a 5 ms idle
    /// gap — exactly the pre-engine semantics, seeds included (see the
    /// module-level seeding contract), so rounds reproduce pre-engine
    /// outcomes bit for bit (asserted by `tests/engine.rs`).
    ///
    /// The report's window ends at the horizon, so its
    /// [`WindowReport::span`] is the round's busy span and
    /// [`WindowReport::sweeps_per_sec`] its airtime throughput. Outcomes
    /// are sorted by client, and `ingestion` is all-zero: rounds bypass
    /// the admission queue, releasing whatever a previous window left
    /// parked there as immediate dues. Events carried over from a
    /// previous window (in-flight completions, cadence dues past its
    /// deadline) are drained first and reported in this round, so every
    /// active client still gets a fresh sweep — a client with a leftover
    /// due may therefore appear twice in the round's outcomes.
    pub fn run_epoch(&mut self, seed: u64) -> WindowReport {
        let started = self.clock;
        let wall_start = std::time::Instant::now();
        let mut acc = WindowAcc::default();
        self.arbiter.release_before(started);
        self.flush_ingest_to_dues(started);
        self.pump(seed, None, &mut acc);
        self.schedule_idle_clients(started);
        self.pump(seed, None, &mut acc);
        let ended = self.arbiter.horizon().max(started);
        let utilization = self.arbiter.utilization(started, ended);
        self.clock = ended + EPOCH_GAP;
        acc.outcomes.sort_by_key(|o| o.client);
        WindowReport {
            started,
            ended,
            outcomes: acc.outcomes,
            utilization,
            wall: wall_start.elapsed(),
            cache: self.plans.stats(),
            bands_planned: acc.bands_planned,
            bands_full_sweep: acc.bands_full_sweep,
            ingestion: IngestionStats::default(),
        }
    }
}

/// Threads for a [`ServiceConfig::threads`] setting: the setting itself,
/// or one per available core when it is 0. The host is read only then.
pub(crate) fn thread_count(threads: usize) -> usize {
    if threads > 0 {
        threads
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
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

    fn engine_with(n: usize, cfg: ServiceConfig) -> ServiceEngine {
        let mut eng = ServiceEngine::new(cfg);
        for i in 0..n {
            let id = eng.join(ideal_ctx(2.0 + i as f64), ChronosConfig::ideal());
            eng.session_mut(id).sweep_cfg.medium.loss_prob = 0.0;
        }
        eng
    }

    #[test]
    fn window_reports_sweeps_and_advances_clock() {
        let mut eng = engine_with(2, ServiceConfig::adaptive(TrackerConfig::default()));
        let w = eng.run_until(7, Instant::from_millis(400));
        assert_eq!(w.started, Instant::ZERO);
        assert_eq!(w.ended, Instant::from_millis(400));
        assert_eq!(eng.clock(), Instant::from_millis(400));
        // Two clients x (~90 ms full sweeps, then ~30 ms subsets): well
        // more than one sweep per client fits in 400 ms.
        assert!(w.completed() > 4, "only {} sweeps", w.completed());
        assert!(w.utilization > 0.5, "utilization {}", w.utilization);
        // Per-client sweep ordinals are monotonic within the window.
        for c in 0..2 {
            let ords: Vec<u64> = w
                .outcomes
                .iter()
                .filter(|o| o.client == c)
                .map(|o| o.sweep)
                .collect();
            for pair in ords.windows(2) {
                assert_eq!(pair[1], pair[0] + 1);
            }
        }
    }

    #[test]
    fn track_clients_resweep_without_waiting_for_acquire() {
        // One client pinned in ACQUIRE, one free to promote: once the
        // free client reaches TRACK it must complete several subset
        // sweeps per ACQUIRE sweep instead of idling at a barrier.
        let mut eng = ServiceEngine::new(ServiceConfig::adaptive(TrackerConfig::default()));
        let pinned = eng.join_with_tracker(
            ideal_ctx(3.0),
            ChronosConfig::ideal(),
            TrackerConfig {
                acquire_fixes: usize::MAX,
                ..TrackerConfig::default()
            },
        );
        let free = eng.join(ideal_ctx(5.0), ChronosConfig::ideal());
        for i in [pinned, free] {
            eng.session_mut(i).sweep_cfg.medium.loss_prob = 0.0;
        }
        // Warm-up window promotes the free client.
        eng.run_until(3, Instant::from_millis(400));
        let w = eng.run_until(3, Instant::from_millis(1000));
        let acquire_sweeps = w.outcomes.iter().filter(|o| o.client == pinned).count();
        let track_sweeps = w
            .outcomes
            .iter()
            .filter(|o| o.client == free && o.mode == TrackMode::Track)
            .count();
        assert!(acquire_sweeps >= 3, "{acquire_sweeps} ACQUIRE sweeps");
        assert!(
            track_sweeps >= 2 * acquire_sweeps,
            "TRACK client made {track_sweeps} sweeps vs {acquire_sweeps} ACQUIRE — still barriered?"
        );
        for o in w.outcomes.iter().filter(|o| o.client == pinned) {
            assert_eq!(o.mode, TrackMode::Acquire, "pinned client must not promote");
            assert_eq!(o.bands_planned, 35);
        }
    }

    #[test]
    fn windows_compose_like_one_long_window() {
        // Cadence invariance of the seeding contract: one 600 ms window
        // and three 200 ms windows produce the same outcome stream.
        let run = |splits: &[u64]| {
            let mut eng = engine_with(3, ServiceConfig::adaptive(TrackerConfig::default()));
            let mut fps = Vec::new();
            for &ms in splits {
                let w = eng.run_until(11, Instant::from_millis(ms));
                for o in &w.outcomes {
                    fps.push((o.client, o.sweep, o.distance_m.map(f64::to_bits)));
                }
            }
            fps
        };
        assert_eq!(run(&[600]), run(&[200, 400, 600]));
    }

    #[test]
    fn long_windows_keep_arbiter_bounded() {
        // One multi-second window must not accumulate an arbiter window
        // per sweep: fully elapsed windows are flushed periodically,
        // folding their coverage into the running utilization. Cheap
        // estimator — this test is about accounting, not accuracy —
        // but not so coarse that ghost fixes trip the innovation gate
        // and stall the client in (slow) ACQUIRE cycles.
        let coarse = ChronosConfig {
            max_iters: 120,
            grid_step_ns: 0.5,
            ..ChronosConfig::ideal()
        };
        let mut eng = ServiceEngine::new(ServiceConfig::adaptive(TrackerConfig::default()));
        let id = eng.join(ideal_ctx(3.0), coarse);
        eng.session_mut(id).sweep_cfg.medium.loss_prob = 0.0;
        let w = eng.run_until(9, Instant::from_millis(6_000));
        assert!(
            w.completed() > AIRTIME_FLUSH_EVERY,
            "window too small to trigger a flush: {} sweeps",
            w.completed()
        );
        // Retained airtime is at most the unflushed tail, not the whole
        // window's worth of sweeps.
        let tracked = eng.arbiter().total_tracked_airtime();
        assert!(
            tracked < Duration::from_millis(4_500),
            "arbiter still tracks {tracked} of airtime after flushes"
        );
        // Flushed coverage still reports as one continuous utilization.
        assert!(w.utilization > 0.8, "utilization {}", w.utilization);
    }

    #[test]
    fn empty_engine_windows_are_empty() {
        let mut eng = ServiceEngine::new(ServiceConfig::default());
        let w = eng.run_until(1, Instant::from_millis(100));
        assert_eq!(w.completed(), 0);
        assert_eq!(w.outcomes.len(), 0);
        assert_eq!(w.utilization, 0.0);
        assert_eq!(w.ingestion, IngestionStats::default());
        assert_eq!(eng.pending_events(), 0);
    }

    #[test]
    fn ingestion_under_light_load_is_transparent() {
        // With the queue never filling (few clients, generous backlog),
        // the front door must change nothing: same admissions, same
        // order, same RNG streams, bit-for-bit the same estimates.
        let run = |ingestion: Option<IngestionConfig>| {
            let cfg = ServiceConfig {
                ingestion,
                ..ServiceConfig::adaptive(TrackerConfig::default())
            };
            let mut eng = engine_with(3, cfg);
            let w = eng.run_until(11, Instant::from_millis(600));
            assert!(w.completed() > 3);
            w.outcomes
                .iter()
                .map(|o| {
                    (
                        o.client,
                        o.sweep,
                        o.started,
                        o.finished,
                        o.distance_m.map(f64::to_bits),
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(None), run(Some(IngestionConfig::default())));
    }

    #[test]
    fn light_load_ingestion_stats_balance_and_never_shed() {
        let cfg = ServiceConfig {
            ingestion: Some(IngestionConfig::default()),
            ..ServiceConfig::adaptive(TrackerConfig::default())
        };
        let mut eng = engine_with(2, cfg);
        let w = eng.run_until(5, Instant::from_millis(500));
        let s = w.ingestion;
        assert!(s.offered.total() > 0);
        assert_eq!(s.shed.total(), 0);
        assert_eq!(s.deferred.total(), 0);
        assert!((s.stretch_peak - 1.0).abs() < 1e-12, "{}", s.stretch_peak);
        // Everything offered is either admitted or still on the air /
        // in the queue at the deadline.
        assert!(s.admitted.total() <= s.offered.total());
        assert!(s.offered.total() - s.admitted.total() <= 2);
        let cum = eng.ingestion_stats().expect("front-end on");
        assert!(cum.offered.total() >= s.offered.total());
    }

    #[test]
    fn outcome_class_annotates_background_without_ingestion() {
        let mut eng = engine_with(2, ServiceConfig::adaptive(TrackerConfig::default()));
        eng.set_background(1, true);
        assert!(eng.is_background(1));
        assert!(!eng.is_background(0));
        assert!(eng.ingestion_stats().is_none(), "front-end off");
        let w = eng.run_until(3, Instant::from_millis(300));
        for o in &w.outcomes {
            assert_eq!(o.deferrals, 0);
            if o.client == 1 {
                assert_eq!(o.class, TrafficClass::Background);
            } else {
                // Honest foreground clients map ACQUIRE/TRACK modes to
                // the matching classes.
                let expect = match o.mode {
                    TrackMode::Acquire => TrafficClass::Acquire,
                    TrackMode::Track => TrafficClass::Track,
                };
                assert_eq!(o.class, expect);
            }
        }
    }

    #[test]
    fn epoch_after_overloaded_window_serves_every_client() {
        // A window under a tight backlog limit leaves requests parked in
        // the admission queue. Epoch rounds bypass that queue, so the
        // round must release them as dues instead of stranding their
        // clients behind a door nobody drains.
        let coarse = ChronosConfig {
            max_iters: 120,
            grid_step_ns: 0.5,
            ..ChronosConfig::ideal()
        };
        let cfg = ServiceConfig {
            ingestion: Some(IngestionConfig {
                backlog_limit: Duration::from_millis(60),
                ..IngestionConfig::default()
            }),
            ..ServiceConfig::adaptive(TrackerConfig::default())
        };
        let mut eng = ServiceEngine::new(cfg);
        for i in 0..8 {
            let id = eng.join(ideal_ctx(2.0 + i as f64), coarse.clone());
            eng.session_mut(id).sweep_cfg.medium.loss_prob = 0.0;
        }
        eng.run_until(5, Instant::from_millis(300));
        let parked = eng.ingest.as_ref().expect("front end on").queue.len();
        assert!(parked > 0, "the window must leave requests queued");
        let round = eng.run_epoch(6);
        for c in 0..8 {
            assert!(
                round.outcomes.iter().any(|o| o.client == c),
                "client {c} stranded"
            );
        }
        assert_eq!(round.ingestion, IngestionStats::default());
    }

    #[test]
    fn epoch_estimates_every_client() {
        let mut eng = engine_with(3, ServiceConfig::default());
        let report = eng.run_epoch(7);
        assert_eq!(report.outcomes.len(), 3);
        for (i, o) in report.outcomes.iter().enumerate() {
            assert_eq!(o.client, i);
            assert_eq!(o.sweep, 0, "first sweep ordinal");
            let err = o.error_m.expect("estimate");
            assert!(err < 0.3, "client {i} error {err}");
        }
        assert!(report.utilization > 0.0);
        assert!(report.sweeps_per_sec() > 0.0);
        // The round's window ends at its airtime horizon; the clock moves
        // a short idle gap past it.
        assert_eq!(eng.clock(), report.ended + EPOCH_GAP);
    }

    #[test]
    fn clients_share_one_plan_cache() {
        let mut eng = engine_with(4, ServiceConfig::default());
        let report = eng.run_epoch(1);
        // Ideal mode, identical grids: every client needs the same NDFT
        // plan, so exactly one is ever built (plus one spline plan), and
        // every other client's lookups hit it.
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
            let mut eng = engine_with(4, cfg);
            let r = eng.run_epoch(3);
            r.outcomes
                .iter()
                .map(|o| o.distance_m.unwrap().to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn epochs_advance_the_clock_and_stay_deterministic() {
        let mut eng = engine_with(2, ServiceConfig::default());
        let a = eng.run_epoch(5);
        let b = eng.run_epoch(5);
        assert!(b.started > a.started);
        // Same engine construction, same seeds => same outcome stream.
        let mut eng2 = engine_with(2, ServiceConfig::default());
        let a2 = eng2.run_epoch(5);
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
        let mut eng = ServiceEngine::new(ServiceConfig::position(TrackerConfig::default()));
        let id = eng.join(position_ctx(Point::new(1.5, 4.0)), ChronosConfig::ideal());
        eng.session_mut(id).sweep_cfg.medium.loss_prob = 0.0;
        let mut reports = Vec::new();
        for e in 0..4 {
            reports.push(eng.run_epoch(100 + e));
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
        let mut eng = ServiceEngine::new(cfg);
        let id = eng.join(position_ctx(Point::new(-2.0, 3.0)), ChronosConfig::ideal());
        eng.session_mut(id).sweep_cfg.medium.loss_prob = 0.0;
        for e in 0..3 {
            let r = eng.run_epoch(7 + e);
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
        assert_eq!(eng.run_epoch(99).mode_occupancy().track, 0);
        assert!(eng.position_tracker(id).is_some());
        assert!(eng.tracker(id).is_none());
    }

    #[test]
    fn ratio_reporters_are_zero_not_nan_on_empty_input() {
        // Every ratio must degrade to 0.0 (never 0/0 = NaN) when its
        // denominator is empty: a zero-length window or an epoch round
        // with no clients, and a never-queried cache.
        let mut eng = ServiceEngine::new(ServiceConfig::default());
        let window = eng.run_until(1, Instant::ZERO);
        let round = eng.run_epoch(1);
        for r in [window, round] {
            assert_eq!(r.span(), Duration::ZERO);
            assert_eq!(r.sweeps_per_sec(), 0.0);
            assert_eq!(r.airtime_saved(), 0.0);
            assert_eq!(r.utilization, 0.0);
            assert_eq!(r.cache.hit_rate(), 0.0);
            assert_eq!(r.completed(), 0);
            assert_eq!(r.quarantined(), 0);
            assert!(r.mean_abs_error_m().is_none());
            assert!(r.track_rmse_m().is_none());
            assert!(r.pos_rmse_m().is_none());
            assert!(r.median_pos_error_m().is_none());
            assert_eq!(r.mode_occupancy(), ModeOccupancy::default());
        }
    }

    #[test]
    fn contention_reported_for_overlapping_sweeps() {
        let mut eng = engine_with(6, ServiceConfig::default());
        let report = eng.run_epoch(11);
        // With max_concurrent = 4 and six clients, some sweeps overlap
        // and pay contention; the utilization must reflect real overlap.
        assert!(report.outcomes.iter().any(|o| o.concurrent > 0));
        assert!(report.outcomes.iter().any(|o| o.extra_loss > 0.0));
        assert!(report.span() > Duration::from_millis(80));
    }

    #[test]
    fn removed_client_skips_later_epochs() {
        let mut eng = engine_with(3, ServiceConfig::default());
        let first = eng.run_epoch(21);
        assert_eq!(first.outcomes.len(), 3);
        assert!(eng.leave(1));
        assert!(!eng.leave(1), "double-leave reports inactive");
        assert!(!eng.is_active(1));
        assert_eq!(eng.n_slots(), 3, "slot indices stay valid");
        assert_eq!(eng.n_active(), 2);
        let second = eng.run_epoch(22);
        let clients: Vec<usize> = second.outcomes.iter().map(|o| o.client).collect();
        assert_eq!(clients, vec![0, 2]);
        // Remaining clients' sweep ordinals keep advancing.
        assert!(second.outcomes.iter().all(|o| o.sweep == 1));
    }
}
