//! Multi-AP fleet layer: N sharded [`ServiceEngine`]s, inter-AP clock
//! sync, one-way TDoA fixes and roaming handoff.
//!
//! The paper's deployment unit is a single AP measuring round-trip
//! time-of-flight, one full band sweep per client per fix. That shape
//! cannot reach the north star ("heavy traffic from millions of users"):
//! every fix costs the serving AP ~29–84 ms of exclusive air, and a
//! client crossing cells restarts ACQUIRE from nothing. The
//! [`FleetEngine`] layers three mechanisms over the single-AP engine to
//! fix that, without touching the per-AP physics:
//!
//! 1. **Sharding** — each AP is its own [`ServiceEngine`] with its own
//!    [`MediumArbiter`] (its own channel/medium). Shards share one
//!    [`PlanCache`]; their RNG streams are disjoint by construction
//!    ([`shard_seed`]), so a fleet run is bit-identical to N
//!    independent single-AP runs when the fleet features are off (the
//!    `sync_disabled` pin in `tests/fleet.rs`).
//! 2. **Clock sync** ([`ClockSync`]) — a reference-broadcast model after
//!    OpenWiFiSync: every `interval` a sync round re-disciplines each
//!    AP's oscillator to residual offset `~N(0, jitter_ns²)` plus a
//!    residual drift `~N(0, drift_ppb²)` that grows the offset until the
//!    next round. Beacon airtime is charged to every shard's arbiter.
//!    The model *advertises* a conservative pair residual bound; TDoA is
//!    gated on that bound, not on the (hidden) truth offsets.
//! 3. **One-way TDoA** — once APs are synchronized below
//!    [`TdoaConfig::residual_threshold_ns`], a client's single
//!    transmission ("blast") timestamped at ≥ 3 APs yields a hyperbolic
//!    fix via [`crate::localization::tdoa`]: fleet fix cost is one
//!    short blast, not a per-AP band sweep, so the fix rate is set by
//!    the blast cadence instead of sweep airtime.
//!
//! Roaming ties the three together: clients move through the shared
//! [`Environment`]; at each window boundary an association policy hands
//! a client off to the nearest AP (with hysteresis), and the client's
//! tracker/anomaly state migrates with it ([`MigratedClient`]) so the
//! first sweep at the new AP runs in TRACK — no re-ACQUIRE. The report
//! counts handoff-gap sweeps (post-handoff ACQUIRE sweeps before the
//! first TRACK) so the migration claim is measurable.
//!
//! See `docs/FLEET.md` for the topology diagram, the clock-sync math
//! and the TDoA vs. round-trip trade-off table.

use crate::config::ChronosConfig;
use crate::engine::{mix_seed, thread_count, ServiceEngine, WindowReport};
use crate::localization::tdoa::{solve_tdoa, RangeDiff, TdoaSolverConfig};
use crate::runtime::WorkerRuntime;
use crate::service::ServiceConfig;
use crate::tracker::{PositionTracker, TrackMode, TrackerConfig};
use chronos_link::event::EventQueue;
use chronos_link::time::{Duration, Instant};
use chronos_math::constants::C_M_PER_NS;
use chronos_rf::csi::MeasurementContext;
use chronos_rf::environment::Environment;
use chronos_rf::geometry::Point;
use chronos_rf::hardware::{ideal_device, AntennaArray};
use chronos_rf::noise::gaussian;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[cfg(doc)]
use crate::engine::MigratedClient;
#[cfg(doc)]
use crate::plan::PlanCache;
#[cfg(doc)]
use chronos_link::arbiter::MediumArbiter;

/// Domain-separation salts keeping the fleet's RNG streams disjoint
/// from each other and from every shard's sweep streams.
const SHARD_SALT: u64 = 0x5ee0_1f1e_e7a9_c0de;
const SYNC_SALT: u64 = 0xc10c_0ffe_7d21_f7aa;
const BLAST_SALT: u64 = 0xb1a5_7b1a_57b1_a570;

/// Clients per item of a window's blast batch: a 1000-client window
/// splits into a few dozen items that balance over the lanes, and each
/// item solves enough blasts that pulling it costs nothing by
/// comparison.
const BLAST_ITEM_CLIENTS: usize = 32;

/// How the fleet localizes its clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetRangingMode {
    /// The paper's path: every client occupies a slot in its serving
    /// AP's [`ServiceEngine`] and gets round-trip sweeps at that AP's
    /// cadence. Fleet features reduce to association + handoff.
    RoundTrip,
    /// One-way blasts timestamped across the fleet, solved
    /// hyperbolically. Clients do not occupy shard slots; shards carry
    /// only sync-beacon (and blast) airtime.
    Tdoa,
}

/// Reference-broadcast synchronization parameters (OpenWiFiSync model).
#[derive(Debug, Clone, Copy)]
pub struct ClockSyncConfig {
    /// Time between sync rounds.
    pub interval: Duration,
    /// Airtime one round's reference broadcast occupies on *each*
    /// shard's medium.
    pub beacon_airtime: Duration,
    /// Post-round residual offset standard deviation per AP, ns.
    pub jitter_ns: f64,
    /// Residual (post-discipline) oscillator drift standard deviation
    /// per AP, parts per billion — grows the offset between rounds.
    pub drift_ppb: f64,
}

impl Default for ClockSyncConfig {
    fn default() -> Self {
        ClockSyncConfig {
            interval: Duration::from_millis(100),
            beacon_airtime: Duration::from_millis(1),
            jitter_ns: 0.4,
            drift_ppb: 0.5,
        }
    }
}

/// The fleet's clock model: truth per-AP offset/drift trajectories plus
/// the advertised residual bound that gates TDoA eligibility.
///
/// Only the latest round's state is kept: every query comes from the
/// fleet's event pump, or from its blast solves, which run before the
/// next round, at or after the latest round (events run in time order
/// and rounds win ties), so older rounds are never read again and each
/// round refills the per-AP buffers in place.
#[derive(Debug, Clone)]
pub struct ClockSync {
    cfg: ClockSyncConfig,
    /// Instant of the latest round; `None` before the first.
    synced_at: Option<Instant>,
    /// Truth residual offset per AP at `synced_at`, ns (hidden from the
    /// estimator — it only biases blast timestamps).
    offsets_ns: Vec<f64>,
    /// Truth residual drift per AP, ppb (grows the offset until the
    /// next round).
    drifts_ppb: Vec<f64>,
    next_round: Instant,
    rounds: u64,
}

impl ClockSync {
    fn new(cfg: ClockSyncConfig, n_aps: usize) -> Self {
        ClockSync {
            cfg,
            synced_at: None,
            offsets_ns: vec![0.0; n_aps],
            drifts_ppb: vec![0.0; n_aps],
            next_round: Instant::ZERO,
            rounds: 0,
        }
    }

    /// Sync rounds completed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Executes one round at `at`: every AP re-disciplines to a fresh
    /// offset/drift draw. RNG streams are keyed by (seed, round, AP) so
    /// the trajectory is invariant to window splits.
    fn run_round(&mut self, seed: u64, at: Instant) {
        for ap in 0..self.offsets_ns.len() {
            let mut rng = StdRng::seed_from_u64(mix_seed(seed ^ SYNC_SALT, self.rounds + 1, ap));
            self.offsets_ns[ap] = self.cfg.jitter_ns * gaussian(&mut rng, 1.0);
            self.drifts_ppb[ap] = self.cfg.drift_ppb * gaussian(&mut rng, 1.0);
        }
        self.synced_at = Some(at);
        self.rounds += 1;
        self.next_round = at + self.cfg.interval;
    }

    /// Nanoseconds from the latest round to `t`; `None` before the first
    /// round or for a `t` earlier than the latest round.
    fn since_round_ns(&self, t: Instant) -> Option<f64> {
        self.synced_at
            .filter(|&at| at <= t)
            .map(|at| t.saturating_since(at).as_nanos() as f64)
    }

    /// Truth clock offset of AP `ap` at time `t`, ns — the post-round
    /// residual plus accumulated residual drift. Answers for `t` at or
    /// after the latest round (the only times the fleet asks about);
    /// infinite (unsynchronized) before the first round and for any
    /// earlier `t`.
    pub fn offset_ns(&self, ap: usize, t: Instant) -> f64 {
        match self.since_round_ns(t) {
            None => f64::INFINITY,
            Some(dt_ns) => self.offsets_ns[ap] + self.drifts_ppb[ap] * 1e-9 * dt_ns,
        }
    }

    /// The *advertised* bound on any AP pair's clock offset at `t`, ns:
    /// twice the per-AP 3-sigma envelope
    /// `3·(jitter_ns + drift_ppb·10⁻⁹·Δt_ns)`. Conservative by
    /// construction — TDoA eligibility thresholds this bound, never the
    /// hidden truth offsets. Answers for `t` at or after the latest
    /// round; infinite before the first round and for any earlier `t`.
    pub fn pair_residual_bound_ns(&self, t: Instant) -> f64 {
        match self.since_round_ns(t) {
            None => f64::INFINITY,
            Some(dt_ns) => 2.0 * 3.0 * (self.cfg.jitter_ns + self.cfg.drift_ppb * 1e-9 * dt_ns),
        }
    }
}

/// One-way blast / TDoA parameters.
#[derive(Debug, Clone, Copy)]
pub struct TdoaConfig {
    /// Per-client blast cadence. This — not sweep airtime — sets the
    /// TDoA fix rate.
    pub cadence: Duration,
    /// Airtime one blast occupies on each receiving AP's medium.
    pub blast_airtime: Duration,
    /// Per-AP arrival-timestamp noise standard deviation, ns
    /// (sampling-edge + detection jitter).
    pub timestamp_noise_ns: f64,
    /// An AP pair participates in TDoA only while
    /// [`ClockSync::pair_residual_bound_ns`] is at or below this, ns.
    pub residual_threshold_ns: f64,
    /// Minimum APs (reference included) that must hear a blast for a
    /// fix attempt.
    pub min_anchors: usize,
    /// APs farther than this from the client do not hear the blast,
    /// meters.
    pub max_range_m: f64,
    /// Hyperbolic solver knobs.
    pub solver: TdoaSolverConfig,
}

impl Default for TdoaConfig {
    fn default() -> Self {
        TdoaConfig {
            cadence: Duration::from_millis(25),
            blast_airtime: Duration::from_micros(500),
            timestamp_noise_ns: 0.5,
            residual_threshold_ns: 5.0,
            min_anchors: 3,
            max_range_m: 60.0,
            solver: TdoaSolverConfig::default(),
        }
    }
}

/// Association / handoff policy.
#[derive(Debug, Clone, Copy)]
pub struct HandoffConfig {
    /// A client hands off only when the nearest AP is closer than the
    /// serving AP by more than this margin, meters (ping-pong damping).
    pub hysteresis_m: f64,
    /// Whether tracker/anomaly state migrates with the client
    /// ([`ServiceEngine::extract_client`] →
    /// [`ServiceEngine::join_migrated`]). Off = the paper's baseline:
    /// every handoff restarts ACQUIRE at the new AP.
    pub migrate_state: bool,
}

impl Default for HandoffConfig {
    fn default() -> Self {
        HandoffConfig {
            hysteresis_m: 2.0,
            migrate_state: true,
        }
    }
}

/// Full fleet configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Per-shard engine policy. Fleet features assume
    /// [`crate::service::LocalizationMode::Position`];
    /// [`FleetConfig::position`] builds the standard shape.
    pub service: ServiceConfig,
    /// Estimator configuration for round-trip sweeps.
    pub chronos: ChronosConfig,
    /// Round-trip sweeps or one-way TDoA.
    pub mode: FleetRangingMode,
    /// Clock-sync model; `None` disables sync entirely (`sync_disabled`:
    /// no beacons, no synchronized pairs, hence no TDoA fixes — and a
    /// round-trip fleet degenerates to N independent engines, bit for
    /// bit).
    pub clock: Option<ClockSyncConfig>,
    /// Blast/TDoA parameters (ignored in round-trip mode).
    pub tdoa: TdoaConfig,
    /// Association policy.
    pub handoff: HandoffConfig,
    /// SNR model anchor shared by every client context (see
    /// [`client_context`]).
    pub snr_at_1m_db: f64,
    /// Threads [`FleetEngine::run_window`] adds to the fleet driver for
    /// its two batches: the window's TDoA blast solves, then the shard
    /// windows. Each batch is one level deep: every shard runs its own
    /// sweeps inline, so [`ServiceConfig::threads`] never starts threads
    /// inside a fleet.
    ///
    /// - `None` (default): auto — `ServiceConfig::threads - 1`, or one
    ///   per available core but the driver's when `threads` is 0. Only
    ///   this setting reads the host's core count.
    /// - `Some(0)`: the strictly serial fleet (the reference the
    ///   parallel widths are compared against): each blast is solved as
    ///   it fires and the shard windows run one after another. No
    ///   runtime exists and no thread is ever started.
    /// - `Some(n)`: up to `n + 1` lanes per batch.
    ///
    /// A single-AP fleet always runs serially. Every strategy produces
    /// bitwise-identical [`FleetWindowReport`]s — see the `run_window`
    /// docs for why — so this knob trades wall clock and core count
    /// only.
    pub workers: Option<usize>,
}

impl FleetConfig {
    /// The standard fleet shape: position-mode adaptive shards, clock
    /// sync on, state-migrating handoff, in the given ranging mode.
    pub fn position(tracker: TrackerConfig, mode: FleetRangingMode) -> Self {
        FleetConfig {
            service: ServiceConfig::position(tracker),
            chronos: ChronosConfig::default(),
            mode,
            clock: Some(ClockSyncConfig::default()),
            tdoa: TdoaConfig::default(),
            handoff: HandoffConfig::default(),
            snr_at_1m_db: 60.0,
            workers: None,
        }
    }
}

/// The per-shard seed: shard `ap` of a fleet run seeded `seed` runs
/// exactly like a standalone [`ServiceEngine`] run seeded
/// `shard_seed(seed, ap)` — the equivalence `tests/fleet.rs` pins.
pub fn shard_seed(seed: u64, ap: usize) -> u64 {
    mix_seed(seed ^ SHARD_SALT, 0, ap)
}

/// Builds the measurement context the fleet gives a client: a
/// single-antenna client device at `client_pos` (world frame) ranging
/// against an AP-array device at `ap_pos`, in the shared environment.
/// Public so tests can construct the *identical* context for standalone
/// control engines.
pub fn client_context(
    env: &Environment,
    client_pos: Point,
    ap_pos: Point,
    snr_at_1m_db: f64,
) -> MeasurementContext {
    let mut ctx = MeasurementContext::new(
        env.clone(),
        ideal_device(AntennaArray::single()),
        client_pos,
        ideal_device(AntennaArray::access_point()),
        ap_pos,
    );
    ctx.snr.snr_at_1m_db = snr_at_1m_db;
    ctx
}

/// One client's fleet-level state.
#[derive(Debug, Clone)]
struct FleetClient {
    /// World position (callers move it via
    /// [`FleetEngine::set_client_pos`]).
    pos: Point,
    /// Distance from `pos` to each AP, in AP order: taken when the
    /// client joins and again at every window boundary, and read by the
    /// handoff policy and by every blast of the window — the position
    /// only moves between windows.
    ap_dists_m: Vec<f64>,
    /// Serving AP index.
    serving: usize,
    /// Slot index in the serving shard (round-trip mode only).
    slot: Option<usize>,
    /// World-frame fused track (TDoA mode only).
    tracker: PositionTracker,
    /// Blast ordinal — the client's TDoA RNG-stream counter (same role
    /// as the engine's sweep ordinal).
    blasts: u64,
    /// Set at handoff; cleared by the first post-handoff TRACK outcome.
    /// ACQUIRE outcomes seen while set count as handoff-gap sweeps.
    awaiting_track: bool,
}

/// The AP nearest a client, from its distance to each AP: the first
/// minimum under `total_cmp` (`Iterator::min_by`'s rule), so AP 0 for a
/// non-finite position, which is equally far from every AP.
fn nearest_ap(dists_m: &[f64]) -> usize {
    let mut nearest = 0;
    for (ap, dist_m) in dists_m.iter().enumerate().skip(1) {
        if dist_m.total_cmp(&dists_m[nearest]).is_lt() {
            nearest = ap;
        }
    }
    nearest
}

/// One TDoA blast's outcome (the one-way analogue of
/// [`crate::service::ClientOutcome`]; all positions world-frame).
#[derive(Debug, Clone)]
pub struct TdoaOutcome {
    /// Fleet client index.
    pub client: usize,
    /// The client's blast ordinal (0 for its first blast).
    pub blast: u64,
    /// Blast time on the fleet clock.
    pub at: Instant,
    /// APs that heard the blast and passed the sync gate (reference
    /// included); 0 when the blast was dropped before solving.
    pub n_anchors: usize,
    /// Hyperbolic fix, when the solver produced one.
    pub fix: Option<Point>,
    /// RMS range-difference residual of the fix, meters.
    pub residual_m: Option<f64>,
    /// Ground-truth client position when the blast fired.
    pub truth_pos: Point,
    /// Absolute 2-D error of the raw fix, meters.
    pub pos_error_m: Option<f64>,
    /// Fused (tracker) position after absorbing this blast.
    pub tracked_pos: Option<Point>,
    /// Absolute 2-D error of the fused position, meters.
    pub tracked_pos_error_m: Option<f64>,
    /// Mode the client's fleet tracker was in when the blast fired.
    pub mode: TrackMode,
    /// Anomaly score after absorbing this blast.
    pub anomaly_score: f64,
}

impl TdoaOutcome {
    /// A fired blast's outcome before its solve: who blasted and when,
    /// no anchors, no fix.
    fn fired(p: &PendingBlast) -> Self {
        TdoaOutcome {
            client: p.client,
            blast: p.blast,
            at: p.at,
            n_anchors: 0,
            fix: None,
            residual_m: None,
            truth_pos: Point::default(),
            pos_error_m: None,
            tracked_pos: None,
            tracked_pos_error_m: None,
            mode: TrackMode::Acquire,
            anomaly_score: 0.0,
        }
    }
}

/// A blast the boundary pump has fired and booked but not yet solved.
#[derive(Debug, Clone, Copy)]
struct PendingBlast {
    /// Blast time on the fleet clock.
    at: Instant,
    /// Fleet client index.
    client: usize,
    /// The client's blast ordinal.
    blast: u64,
    /// Index in blast order among the blasts pending since the last
    /// solve pass.
    seq: usize,
}

/// Scratch a lane reuses across blast solves: the APs that heard the
/// current blast, as (AP, distance to the client in m, timestamp error
/// in m), and their range differences against the reference.
#[derive(Debug, Default)]
struct BlastScratch {
    anchors: Vec<(usize, f64, f64)>,
    diffs: Vec<RangeDiff>,
}

/// Everything a blast solve reads besides its own client: the window
/// seed, the blast parameters, the AP geometry and the clock epoch the
/// blast fired in. Lanes share it read-only.
struct BlastSolver<'a> {
    seed: u64,
    cfg: &'a TdoaConfig,
    aps: &'a [Point],
    sync: Option<&'a ClockSync>,
}

impl<'a> BlastSolver<'a> {
    /// The APs that timestamp a blast client `c` fires at `t`, with
    /// their distances to the client, in AP-index order: every AP in
    /// range that is the serving AP (the TDoA reference) or passes the
    /// sync gate. Geometry and the clock epoch only, no RNG, so the pump
    /// books airtime on this set before the solve draws its noise over
    /// it.
    fn listeners<'c>(
        &self,
        t: Instant,
        c: &'c FleetClient,
    ) -> impl Iterator<Item = (usize, f64)> + 'c {
        let bound_ns = self
            .sync
            .map(|s| s.pair_residual_bound_ns(t))
            .unwrap_or(f64::INFINITY);
        let gate_open = bound_ns <= self.cfg.residual_threshold_ns;
        let (max_range_m, serving) = (self.cfg.max_range_m, c.serving);
        c.ap_dists_m
            .iter()
            .enumerate()
            .filter_map(move |(ap, &dist_m)| {
                (dist_m <= max_range_m && (ap == serving || gate_open)).then_some((ap, dist_m))
            })
    }

    /// Solves one fired blast into `out`, writing no state but the
    /// client's own tracker. Every listener timestamps the arrival with
    /// error = truth clock offset (hidden) + detection noise drawn from
    /// the blast's own (seed, blast, client) stream; the serving AP is
    /// the TDoA reference.
    fn solve(&self, out: &mut TdoaOutcome, c: &mut FleetClient, s: &mut BlastScratch) {
        let cfg = self.cfg;
        let (t, client, blast) = (out.at, out.client, out.blast);
        let (pos, serving) = (c.pos, c.serving);
        out.truth_pos = pos;
        out.mode = c.tracker.mode();
        let mut rng = StdRng::seed_from_u64(mix_seed(self.seed ^ BLAST_SALT, blast + 1, client));
        // Anchors in AP-index order: the RNG draw sequence is a pure
        // function of geometry, so results are schedule-invariant.
        s.anchors.clear();
        let mut d_ref = None;
        for (ap, dist_m) in self.listeners(t, c) {
            let noise_ns = cfg.timestamp_noise_ns * gaussian(&mut rng, 1.0);
            let offset_ns = self
                .sync
                .map(|s| s.offset_ns(ap, t))
                .unwrap_or(f64::INFINITY);
            let err_m = C_M_PER_NS * (offset_ns + noise_ns);
            if ap == serving {
                d_ref = Some((dist_m, err_m));
            }
            s.anchors.push((ap, dist_m, err_m));
        }
        let Some((d_ref, err_ref)) = d_ref.filter(|_| s.anchors.len() >= cfg.min_anchors) else {
            // Not enough fleet to solve (or the serving AP missed the
            // blast): no fix, but the tracker still sees the miss (mode
            // machine + anomaly accounting).
            let upd = c.tracker.observe(t, None, false);
            out.anomaly_score = upd.anomaly_score;
            return;
        };
        out.n_anchors = s.anchors.len();
        let reference = self.aps[serving];
        s.diffs.clear();
        for &(ap, dist_m, err_m) in s.anchors.iter().filter(|a| a.0 != serving) {
            s.diffs.push(RangeDiff {
                anchor: self.aps[ap],
                diff_m: (dist_m - d_ref) + (err_m - err_ref),
            });
        }
        let prior = c.tracker.filter().predicted_position().unwrap_or(reference);
        let fix = solve_tdoa(reference, &s.diffs, prior, &cfg.solver).ok();
        let upd = c.tracker.observe(t, fix.map(|f| f.point), true);
        out.anomaly_score = upd.anomaly_score;
        if let Some(f) = fix {
            out.fix = Some(f.point);
            out.residual_m = Some(f.residual_m);
            out.pos_error_m = Some(f.point.dist(pos));
        }
        out.tracked_pos = upd.fused;
        out.tracked_pos_error_m = upd.fused.map(|p| p.dist(pos));
    }
}

/// One fleet window's result: per-shard [`WindowReport`]s (round-trip
/// sweeps, per-AP utilization including beacon/blast airtime) plus the
/// fleet-level TDoA outcomes and roaming accounting.
#[derive(Debug, Clone)]
pub struct FleetWindowReport {
    /// Window start on the fleet clock.
    pub started: Instant,
    /// Window end.
    pub ended: Instant,
    /// Per-AP shard reports, indexed by AP. `outcomes` hold each
    /// shard's own round-trip sweeps (client indices are *shard slot*
    /// indices — see [`FleetEngine::client_of_slot`]); utilization
    /// includes sync-beacon and blast airtime charged to that shard.
    pub shard_reports: Vec<WindowReport>,
    /// TDoA blast outcomes, in blast order (TDoA mode only).
    pub tdoa_outcomes: Vec<TdoaOutcome>,
    /// Clients handed off at this window's boundary.
    pub handoffs: usize,
    /// Post-handoff ACQUIRE sweeps observed this window before each
    /// migrated client's first TRACK sweep — 0 when state migration is
    /// doing its job (round-trip mode; TDoA clients never re-acquire at
    /// a handoff).
    pub handoff_gap_sweeps: usize,
    /// Sync rounds executed this window.
    pub sync_rounds: usize,
    /// Fleet population at the window's end.
    pub n_clients: usize,
}

impl FleetWindowReport {
    /// The window's length of simulated time.
    pub fn span(&self) -> Duration {
        self.ended.saturating_since(self.started)
    }

    /// Successful position fixes across the fleet this window: raw
    /// round-trip fixes plus solved TDoA blasts.
    pub fn fixes(&self) -> usize {
        let rt: usize = self
            .shard_reports
            .iter()
            .flat_map(|r| &r.outcomes)
            .filter(|o| o.position.is_some())
            .count();
        let td = self
            .tdoa_outcomes
            .iter()
            .filter(|o| o.fix.is_some())
            .count();
        rt + td
    }

    /// Fleet fix throughput normalized per client: fixes per second of
    /// window time, divided by the population.
    pub fn fix_rate_per_client(&self) -> f64 {
        let span = self.span().as_secs_f64();
        if span <= 0.0 || self.n_clients == 0 {
            0.0
        } else {
            self.fixes() as f64 / span / self.n_clients as f64
        }
    }

    /// Raw-fix position errors across both paths, meters (error
    /// magnitudes are frame-invariant, so shard-frame round-trip errors
    /// and world-frame TDoA errors pool directly).
    pub fn pos_errors_m(&self) -> Vec<f64> {
        let mut errs: Vec<f64> = self
            .shard_reports
            .iter()
            .flat_map(|r| &r.outcomes)
            .filter_map(|o| o.pos_error_m)
            .collect();
        errs.extend(self.tdoa_outcomes.iter().filter_map(|o| o.pos_error_m));
        errs
    }

    /// Median raw-fix error, meters.
    pub fn median_pos_error_m(&self) -> Option<f64> {
        percentile(self.pos_errors_m(), 0.50)
    }

    /// 90th-percentile raw-fix error, meters.
    pub fn p90_pos_error_m(&self) -> Option<f64> {
        percentile(self.pos_errors_m(), 0.90)
    }
}

/// Nearest-rank percentile over an unsorted sample.
fn percentile(mut xs: Vec<f64>, q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    xs.sort_by(f64::total_cmp);
    let idx = ((xs.len() as f64 * q).ceil() as usize).clamp(1, xs.len()) - 1;
    Some(xs[idx])
}

/// N sharded [`ServiceEngine`]s under one association policy, clock
/// model and blast scheduler — see the module docs for the design.
pub struct FleetEngine {
    cfg: FleetConfig,
    env: Environment,
    aps: Vec<Point>,
    shards: Vec<ServiceEngine>,
    /// `slot_owner[ap][slot]` = fleet client occupying (or having
    /// occupied) that shard slot.
    slot_owner: Vec<Vec<usize>>,
    clients: Vec<FleetClient>,
    sync: Option<ClockSync>,
    /// Scheduled blasts (TDoA mode), keyed by fleet client index.
    blasts: EventQueue<usize>,
    clock: Instant,
    /// Blasts fired but not yet solved, in blast order (with a runtime
    /// only; the serial fleet solves each blast as it fires).
    pending: Vec<PendingBlast>,
    /// The APs that heard the blast being fired, reused across blasts.
    heard: Vec<usize>,
    /// One blast scratch per lane, kept warm across windows.
    blast_lanes: Vec<BlastScratch>,
    /// Spreads blast solves and shard windows over the driver plus
    /// `workers` scoped threads; `None` runs the serial fleet — see
    /// [`FleetConfig::workers`].
    runtime: Option<WorkerRuntime>,
}

impl FleetEngine {
    /// Builds a fleet of one shard per AP position, all sharing `env`
    /// and one plan cache. Panics if `aps` is empty.
    pub fn new(cfg: FleetConfig, env: Environment, aps: Vec<Point>) -> Self {
        assert!(!aps.is_empty(), "a fleet needs at least one AP");
        // Shard windows are the parallel level, so every shard sweeps
        // inline on its own pipeline.
        let service = ServiceConfig {
            threads: 1,
            ..cfg.service.clone()
        };
        let mut shards = Vec::with_capacity(aps.len());
        let first = ServiceEngine::new(service.clone());
        let plans = std::sync::Arc::clone(first.plans());
        shards.push(first);
        for _ in 1..aps.len() {
            shards.push(ServiceEngine::with_cache(
                service.clone(),
                std::sync::Arc::clone(&plans),
            ));
        }
        let workers = if aps.len() == 1 {
            0
        } else {
            cfg.workers
                .unwrap_or_else(|| thread_count(cfg.service.threads) - 1)
        };
        let runtime = (workers > 0).then(|| WorkerRuntime::new(workers));
        let sync = cfg.clock.map(|c| ClockSync::new(c, aps.len()));
        let blast_lanes = (0..=workers)
            .map(|_| BlastScratch {
                anchors: Vec::with_capacity(aps.len()),
                diffs: Vec::with_capacity(aps.len()),
            })
            .collect();
        FleetEngine {
            shards,
            slot_owner: vec![Vec::new(); aps.len()],
            clients: Vec::new(),
            sync,
            blasts: EventQueue::new(),
            clock: Instant::ZERO,
            pending: Vec::new(),
            heard: Vec::with_capacity(aps.len()),
            blast_lanes,
            runtime,
            cfg,
            env,
            aps,
        }
    }

    /// AP positions, world frame.
    pub fn aps(&self) -> &[Point] {
        &self.aps
    }

    /// Read access to a shard.
    pub fn shard(&self, ap: usize) -> &ServiceEngine {
        &self.shards[ap]
    }

    /// The fleet's population.
    pub fn n_clients(&self) -> usize {
        self.clients.len()
    }

    /// The fleet clock (windows advance it).
    pub fn clock(&self) -> Instant {
        self.clock
    }

    /// The clock-sync model, when enabled.
    pub fn clock_sync(&self) -> Option<&ClockSync> {
        self.sync.as_ref()
    }

    /// The runtime that spreads blast solves and shard windows, when the
    /// fleet runs them in parallel (see [`FleetConfig::workers`]).
    /// Benches read its counters.
    pub fn runtime(&self) -> Option<&WorkerRuntime> {
        self.runtime.as_ref()
    }

    /// Threads added to the driver for blast solves and shard windows;
    /// 0 means [`FleetEngine::run_window`] runs serially.
    pub fn shard_workers(&self) -> usize {
        self.runtime.as_ref().map_or(0, WorkerRuntime::workers)
    }

    /// A client's current serving AP.
    pub fn serving_ap(&self, client: usize) -> usize {
        self.clients[client].serving
    }

    /// A client's current (truth) world position.
    pub fn client_pos(&self, client: usize) -> Point {
        self.clients[client].pos
    }

    /// Resolves a shard outcome's slot index to the fleet client that
    /// owned it (slots are never reused, so the mapping is total).
    pub fn client_of_slot(&self, ap: usize, slot: usize) -> usize {
        self.slot_owner[ap][slot]
    }

    /// The fleet-level world-frame tracker of a TDoA client.
    pub fn tdoa_tracker(&self, client: usize) -> &PositionTracker {
        &self.clients[client].tracker
    }

    /// Adds a client at a world position, associated with the nearest
    /// AP. Round-trip mode gives it a slot in that shard; TDoA mode
    /// schedules its blast cadence. Returns the fleet client index.
    pub fn add_client(&mut self, pos: Point) -> usize {
        let ap_dists_m: Vec<f64> = self.aps.iter().map(|&ap| pos.dist(ap)).collect();
        let serving = nearest_ap(&ap_dists_m);
        let id = self.clients.len();
        let tracker_cfg = self.cfg.service.adaptive.unwrap_or_default();
        let slot = match self.cfg.mode {
            FleetRangingMode::RoundTrip => {
                let ctx = client_context(&self.env, pos, self.aps[serving], self.cfg.snr_at_1m_db);
                let slot = self.shards[serving].join(ctx, self.cfg.chronos.clone());
                debug_assert_eq!(self.slot_owner[serving].len(), slot);
                self.slot_owner[serving].push(id);
                Some(slot)
            }
            FleetRangingMode::Tdoa => {
                // Stagger first blasts across the cadence so a large
                // population doesn't fire in lockstep.
                let phase = Duration::from_nanos(
                    (id as u64).wrapping_mul(97_777_777) % self.cfg.tdoa.cadence.as_nanos().max(1),
                );
                self.blasts.schedule(self.clock + phase, id);
                None
            }
        };
        self.clients.push(FleetClient {
            pos,
            ap_dists_m,
            serving,
            slot,
            tracker: PositionTracker::new(tracker_cfg),
            blasts: 0,
            awaiting_track: false,
        });
        id
    }

    /// Moves a client (truth teleport; walkers call this every window).
    /// Round-trip geometry updates immediately; association is only
    /// re-evaluated at the next window boundary.
    pub fn set_client_pos(&mut self, client: usize, pos: Point) {
        self.clients[client].pos = pos;
        if let Some(slot) = self.clients[client].slot {
            let serving = self.clients[client].serving;
            self.shards[serving].session_mut(slot).ctx.initiator_pos = pos;
        }
    }

    /// Ranges every AP from every client's position, then runs the
    /// association policy over every client: hand off to the nearest AP
    /// when it beats the serving AP by more than the hysteresis margin.
    /// A client at a non-finite position keeps its serving AP. Returns
    /// the number of handoffs.
    fn run_handoffs(&mut self) -> usize {
        let mut handoffs = 0;
        for id in 0..self.clients.len() {
            let c = &mut self.clients[id];
            let (pos, serving) = (c.pos, c.serving);
            c.ap_dists_m.clear();
            c.ap_dists_m.extend(self.aps.iter().map(|&ap| pos.dist(ap)));
            if !pos.is_finite() {
                continue;
            }
            let nearest = nearest_ap(&c.ap_dists_m);
            if nearest == serving
                || c.ap_dists_m[serving] - c.ap_dists_m[nearest] <= self.cfg.handoff.hysteresis_m
            {
                continue;
            }
            handoffs += 1;
            match self.cfg.mode {
                FleetRangingMode::Tdoa => {
                    // The reference AP changes; the world-frame track
                    // is frame-free and just continues.
                    self.clients[id].serving = nearest;
                }
                FleetRangingMode::RoundTrip => {
                    let slot = self.clients[id].slot.expect("round-trip client has a slot");
                    let ctx =
                        client_context(&self.env, pos, self.aps[nearest], self.cfg.snr_at_1m_db);
                    let new_slot = if self.cfg.handoff.migrate_state {
                        let mut state = self.shards[serving]
                            .extract_client(slot)
                            .expect("handoff of an active client");
                        state.translate(self.aps[serving].sub(self.aps[nearest]));
                        self.shards[nearest].join_migrated(ctx, self.cfg.chronos.clone(), state)
                    } else {
                        self.shards[serving].leave(slot);
                        self.shards[nearest].join(ctx, self.cfg.chronos.clone())
                    };
                    debug_assert_eq!(self.slot_owner[nearest].len(), new_slot);
                    self.slot_owner[nearest].push(id);
                    self.clients[id].serving = nearest;
                    self.clients[id].slot = Some(new_slot);
                    self.clients[id].awaiting_track = true;
                }
            }
        }
        handoffs
    }

    /// Processes sync rounds and TDoA blasts due strictly before
    /// `ended`, in time order (rounds win ties so a blast at a round
    /// instant sees the fresh clock state). Beacon and blast airtime is
    /// charged to shard arbiters *before* the shards run their window,
    /// so it lands in their utilization and contends with round-trip
    /// admissions.
    ///
    /// This is the schedule pass: everything that touches shared state
    /// runs here, serially. With a runtime, the blasts it fires are
    /// solved in batches ([`FleetEngine::solve_pending`]) before each
    /// round replaces the clock epoch they read, and at the end.
    fn pump_fleet_events(
        &mut self,
        seed: u64,
        ended: Instant,
        outcomes: &mut Vec<TdoaOutcome>,
    ) -> usize {
        let mut rounds = 0;
        loop {
            let t_sync = self
                .sync
                .as_ref()
                .map(|s| s.next_round)
                .filter(|&t| t < ended);
            let t_blast = self.blasts.peek_time().filter(|&t| t < ended);
            let sync_first = match (t_sync, t_blast) {
                (None, None) => {
                    self.solve_pending(seed, outcomes);
                    return rounds;
                }
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (Some(ts), Some(tb)) => ts <= tb,
            };
            if sync_first {
                self.solve_pending(seed, outcomes);
                let ts = t_sync.expect("sync_first implies a due round");
                let sync = self.sync.as_mut().expect("t_sync implies sync");
                sync.run_round(seed, ts);
                let beacon = sync.cfg.beacon_airtime;
                rounds += 1;
                for shard in &mut self.shards {
                    shard.charge_airtime(ts, beacon);
                }
            } else {
                let (t, client) = self.blasts.pop().expect("peeked");
                self.fire_blast(seed, t, client, outcomes);
                self.blasts.schedule(t + self.cfg.tdoa.cadence, client);
            }
        }
    }

    /// Fires one blast: hands out the client's blast ordinal and, when
    /// the blast will reach the solver, charges
    /// [`TdoaConfig::blast_airtime`] on every AP that hears it. With a
    /// runtime the solve waits for the next batch; the serial fleet
    /// solves the blast right here.
    fn fire_blast(
        &mut self,
        seed: u64,
        t: Instant,
        client: usize,
        outcomes: &mut Vec<TdoaOutcome>,
    ) {
        let cfg = self.cfg.tdoa;
        let c = &mut self.clients[client];
        let fired = PendingBlast {
            at: t,
            client,
            blast: c.blasts,
            seq: self.pending.len(),
        };
        c.blasts += 1;
        let serving = c.serving;
        let solver = BlastSolver {
            seed,
            cfg: &self.cfg.tdoa,
            aps: &self.aps,
            sync: self.sync.as_ref(),
        };
        self.heard.clear();
        self.heard.extend(solver.listeners(t, c).map(|(ap, _)| ap));
        if self.heard.contains(&serving) && self.heard.len() >= cfg.min_anchors {
            for &ap in &self.heard {
                // A blast is overheard, not scheduled: it happens at `t`
                // on the client's cadence no matter what this AP's
                // arbiter thinks, so it books the air at its true instant
                // (O(1)) instead of competing for an admission grant it
                // would ignore anyway.
                self.shards[ap].charge_airtime_at(t, cfg.blast_airtime);
            }
        }
        if self.runtime.is_some() {
            self.pending.push(fired);
        } else {
            let mut out = TdoaOutcome::fired(&fired);
            solver.solve(
                &mut out,
                &mut self.clients[client],
                &mut self.blast_lanes[0],
            );
            outcomes.push(out);
        }
    }

    /// The solve pass: solves every pending blast on the runtime's lanes
    /// and appends the outcomes in blast order.
    ///
    /// A solve writes no state but its own client's tracker, and the
    /// clock epoch it reads holds until the next round, so only each
    /// client's blasts must stay in time order. The batch lays out one
    /// outcome slot per blast, client-major and in time order within a
    /// client; an item is a run of [`BLAST_ITEM_CLIENTS`] clients with
    /// their slots, and one in-place permutation puts the slots back in
    /// blast order.
    fn solve_pending(&mut self, seed: u64, outcomes: &mut Vec<TdoaOutcome>) {
        let Some(rt) = &self.runtime else { return };
        if self.pending.is_empty() {
            return;
        }
        let pending = &mut self.pending;
        pending.sort_unstable_by_key(|p| (p.client, p.seq));
        let base = outcomes.len();
        outcomes.extend(pending.iter().map(TdoaOutcome::fired));
        let solver = BlastSolver {
            seed,
            cfg: &self.cfg.tdoa,
            aps: &self.aps,
            sync: self.sync.as_ref(),
        };
        let mut slots = &mut outcomes[base..];
        let items =
            self.clients
                .chunks_mut(BLAST_ITEM_CLIENTS)
                .enumerate()
                .map(move |(i, clients)| {
                    let first = i * BLAST_ITEM_CLIENTS;
                    let n = slots.partition_point(|o| o.client < first + clients.len());
                    let (item, rest) = std::mem::take(&mut slots).split_at_mut(n);
                    slots = rest;
                    (first, clients, item)
                });
        rt.run_uncounted(
            items,
            &mut self.blast_lanes,
            |lane, (first, clients, slots)| {
                // The lanes' scratch sits side by side in one `Vec`; moving
                // this lane's onto its stack for the item keeps two threads
                // from writing one cache line.
                let mut scratch = std::mem::take(lane);
                for out in slots {
                    solver.solve(out, &mut clients[out.client - first], &mut scratch);
                }
                *lane = scratch;
            },
        );
        // Slot k holds blast `pending[k].seq`: walk each cycle of the
        // permutation, swapping every outcome into its blast-order slot.
        for k in 0..pending.len() {
            while pending[k].seq != k {
                let to = pending[k].seq;
                outcomes.swap(base + k, base + to);
                pending.swap(k, to);
            }
        }
        pending.clear();
    }

    /// Advances the whole fleet by `window`: handoffs at the boundary,
    /// then sync rounds + blasts in time order, then every shard's
    /// round-trip window. `seed` follows the same convention as
    /// [`ServiceEngine::run_until`] — reuse one seed across windows for
    /// a reproducible run; shard `ap` consumes [`shard_seed`]`(seed,
    /// ap)`, so a `sync_disabled` round-trip fleet is bit-identical to
    /// standalone engines run with those seeds.
    ///
    /// ## One level of parallelism, two batches
    ///
    /// Everything that touches fleet-wide state — handoffs, sync rounds,
    /// blast ordinals and rescheduling, airtime pre-charges — runs
    /// serially here at the window boundary, in time order. With a
    /// runtime ([`FleetConfig::workers`]) two kinds of batch spread over
    /// the driver plus scoped threads, one level deep each:
    ///
    /// 1. the blasts fired since the last sync round, solved before the
    ///    next round and at the end of the pump: a solve writes only its
    ///    own client's tracker, draws from its own (seed, blast, client)
    ///    stream and reads a clock epoch that only a round changes, and
    ///    each client's blasts stay in time order, so the outcomes —
    ///    put back in blast order — match the serial fleet's, which
    ///    solves each blast as it fires;
    /// 2. the shard windows, which share no mutable state (each shard
    ///    owns its clients, events, pipeline and RNG stream; the plan
    ///    cache is content-addressed) and run their own sweeps inline.
    ///    Reports come back in shard order.
    ///
    /// So every [`FleetWindowReport`] field is bitwise identical across
    /// worker counts and vs. the serial fleet, except
    /// `shard_reports[..].wall` (host wall clock). The cache counters
    /// are invariant too: every estimate looks its plans up in the
    /// shared cache, so hits and misses count the window's sweeps.
    pub fn run_window(&mut self, seed: u64, window: Duration) -> FleetWindowReport {
        let started = self.clock;
        let ended = started + window;
        let handoffs = self.run_handoffs();
        let mut tdoa_outcomes = Vec::new();
        let sync_rounds = self.pump_fleet_events(seed, ended, &mut tdoa_outcomes);
        let run_shard =
            |(ap, shard): (usize, &mut ServiceEngine)| shard.run_until(shard_seed(seed, ap), ended);
        let shards = self.shards.iter_mut().enumerate();
        let mut shard_reports: Vec<WindowReport> = match &self.runtime {
            Some(rt) => rt.run_uncounted(shards, &mut vec![(); rt.workers() + 1], |_, shard| {
                run_shard(shard)
            }),
            None => shards.map(run_shard).collect(),
        };
        // The plan cache is shared, so mid-run per-shard snapshots of
        // its counters are schedule-dependent. The *post-window* totals
        // are not (each distinct plan is built — and counts a miss —
        // exactly once, and every other lookup of the window's sweeps
        // counts a hit), so stamp one boundary snapshot on every shard
        // report in both execution strategies to keep reports
        // comparable.
        let cache = self.shards[0].plans().stats();
        for report in &mut shard_reports {
            report.cache = cache;
        }
        // Handoff-gap accounting: post-handoff ACQUIRE sweeps at the
        // new AP, until the first TRACK sweep clears the flag.
        let mut handoff_gap_sweeps = 0;
        for (ap, report) in shard_reports.iter().enumerate() {
            for o in &report.outcomes {
                let id = self.slot_owner[ap][o.client];
                let c = &mut self.clients[id];
                if !(c.awaiting_track && c.serving == ap && c.slot == Some(o.client)) {
                    continue;
                }
                if o.mode == TrackMode::Track {
                    c.awaiting_track = false;
                } else {
                    handoff_gap_sweeps += 1;
                }
            }
        }
        self.clock = ended;
        FleetWindowReport {
            started,
            ended,
            shard_reports,
            tdoa_outcomes,
            handoffs,
            handoff_gap_sweeps,
            sync_rounds,
            n_clients: self.clients.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronos_rf::testbed::ap_grid;

    fn quick_chronos() -> ChronosConfig {
        ChronosConfig {
            max_iters: 120,
            grid_step_ns: 0.5,
            ..ChronosConfig::ideal()
        }
    }

    fn small_fleet(mode: FleetRangingMode) -> FleetEngine {
        let mut cfg = FleetConfig::position(TrackerConfig::default(), mode);
        cfg.chronos = quick_chronos();
        FleetEngine::new(cfg, Environment::free_space(), ap_grid(4, 20.0))
    }

    #[test]
    fn clock_sync_bound_tightens_after_a_round_and_grows_with_drift() {
        let mut sync = ClockSync::new(ClockSyncConfig::default(), 4);
        assert!(sync.pair_residual_bound_ns(Instant::ZERO).is_infinite());
        sync.run_round(7, Instant::ZERO);
        let b0 = sync.pair_residual_bound_ns(Instant::ZERO);
        let b1 = sync.pair_residual_bound_ns(Instant::ZERO + Duration::from_millis(90));
        assert!(b0.is_finite() && b0 > 0.0);
        assert!(b1 > b0, "drift grows the bound: {b0} -> {b1}");
        // Offsets are ~sub-ns draws, far inside the 3-sigma advert.
        for ap in 0..4 {
            assert!(sync.offset_ns(ap, Instant::ZERO).abs() <= b0);
        }
    }

    #[test]
    fn clock_sync_trajectory_is_deterministic_per_seed() {
        let mut a = ClockSync::new(ClockSyncConfig::default(), 3);
        let mut b = ClockSync::new(ClockSyncConfig::default(), 3);
        a.run_round(42, Instant::ZERO);
        b.run_round(42, Instant::ZERO);
        let t = Instant::ZERO + Duration::from_millis(10);
        for ap in 0..3 {
            assert_eq!(a.offset_ns(ap, t).to_bits(), b.offset_ns(ap, t).to_bits());
        }
        let mut c = ClockSync::new(ClockSyncConfig::default(), 3);
        c.run_round(43, Instant::ZERO);
        assert_ne!(a.offset_ns(0, t).to_bits(), c.offset_ns(0, t).to_bits());
    }

    #[test]
    fn clock_sync_keeps_one_epoch_over_many_rounds() {
        let cfg = ClockSyncConfig::default();
        let mut sync = ClockSync::new(cfg, 4);
        let buffers = (sync.offsets_ns.as_ptr(), sync.drifts_ppb.as_ptr());
        let mut latest = Instant::ZERO;
        for round in 0..1000u64 {
            latest = Instant::ZERO + Duration::from_nanos(round * cfg.interval.as_nanos());
            sync.run_round(7, latest);
        }
        assert_eq!(sync.rounds(), 1000);
        assert_eq!(sync.synced_at, Some(latest));
        // One epoch's state, refilled in place: same length, same buffers.
        assert_eq!((sync.offsets_ns.len(), sync.drifts_ppb.len()), (4, 4));
        assert_eq!(
            (sync.offsets_ns.as_ptr(), sync.drifts_ppb.as_ptr()),
            buffers
        );
        // The latest round answers exactly like a fresh model's round at
        // the same ordinal would.
        let mut fresh = ClockSync::new(cfg, 4);
        fresh.rounds = 999;
        fresh.run_round(7, latest);
        let t = latest + Duration::from_millis(40);
        for ap in 0..4 {
            assert_eq!(
                sync.offset_ns(ap, t).to_bits(),
                fresh.offset_ns(ap, t).to_bits()
            );
        }
        assert_eq!(
            sync.pair_residual_bound_ns(t).to_bits(),
            fresh.pair_residual_bound_ns(t).to_bits()
        );
    }

    #[test]
    fn non_finite_blast_stamps_never_reach_the_tracker() {
        // No clock sync but an open gate: every AP in range is eligible
        // and stamps with an infinite offset, so every range difference
        // is NaN. The solver must reject each blast.
        let mut cfg = FleetConfig::position(TrackerConfig::default(), FleetRangingMode::Tdoa);
        cfg.chronos = quick_chronos();
        cfg.clock = None;
        cfg.tdoa.residual_threshold_ns = f64::INFINITY;
        cfg.tdoa.solver.max_residual_m = f64::INFINITY;
        let mut fleet = FleetEngine::new(cfg, Environment::free_space(), ap_grid(4, 20.0));
        let c = fleet.add_client(Point::new(8.0, 7.0));
        let report = fleet.run_window(1, Duration::from_secs_f64(0.3));
        assert!(!report.tdoa_outcomes.is_empty(), "blasts still fire");
        for o in &report.tdoa_outcomes {
            assert_eq!(o.n_anchors, 4, "the solver is reached");
            assert!(o.fix.is_none() && o.residual_m.is_none(), "{o:?}");
            assert!(o.tracked_pos.is_none(), "{o:?}");
            assert!(o.anomaly_score.is_finite());
        }
        assert_eq!(report.fixes(), 0);
        assert!(!fleet.tdoa_tracker(c).filter().is_initialized());
    }

    #[test]
    fn tdoa_fleet_produces_sub_meter_fixes_at_blast_cadence() {
        let mut fleet = small_fleet(FleetRangingMode::Tdoa);
        let c0 = fleet.add_client(Point::new(8.0, 7.0));
        let c1 = fleet.add_client(Point::new(14.0, 12.0));
        let report = fleet.run_window(1, Duration::from_secs_f64(0.5));
        assert!(report.sync_rounds >= 4, "rounds: {}", report.sync_rounds);
        let fixes = report.fixes();
        // ~20 blasts per client in 500 ms at the 25 ms default cadence.
        assert!(fixes >= 30, "fixes: {fixes}");
        let med = report.median_pos_error_m().unwrap();
        assert!(med < 1.0, "median error {med} m");
        // Both clients got fixes and their fleet trackers converged.
        for c in [c0, c1] {
            assert!(fleet.tdoa_tracker(c).filter().is_initialized());
        }
        // No round-trip sweeps anywhere: shards carry only beacon/blast
        // airtime.
        for r in &report.shard_reports {
            assert!(r.outcomes.is_empty());
            assert!(r.utilization > 0.0, "beacons+blasts show in utilization");
        }
    }

    #[test]
    fn sync_disabled_tdoa_fleet_yields_no_fixes() {
        let mut cfg = FleetConfig::position(TrackerConfig::default(), FleetRangingMode::Tdoa);
        cfg.chronos = quick_chronos();
        cfg.clock = None;
        let mut fleet = FleetEngine::new(cfg, Environment::free_space(), ap_grid(4, 20.0));
        fleet.add_client(Point::new(8.0, 7.0));
        let report = fleet.run_window(1, Duration::from_secs_f64(0.3));
        assert_eq!(report.sync_rounds, 0);
        assert_eq!(report.fixes(), 0, "unsynchronized pairs are gated out");
        assert!(!report.tdoa_outcomes.is_empty(), "blasts still fire");
    }

    #[test]
    fn percentiles_order_a_nan_error_instead_of_panicking() {
        let fired = |client| PendingBlast {
            at: Instant::ZERO,
            client,
            blast: 0,
            seq: client,
        };
        let tdoa_outcomes = [0.3, f64::NAN, 0.1, 0.2]
            .into_iter()
            .enumerate()
            .map(|(client, err_m)| TdoaOutcome {
                pos_error_m: Some(err_m),
                ..TdoaOutcome::fired(&fired(client))
            })
            .collect();
        let report = FleetWindowReport {
            started: Instant::ZERO,
            ended: Instant::from_millis(100),
            shard_reports: Vec::new(),
            tdoa_outcomes,
            handoffs: 0,
            handoff_gap_sweeps: 0,
            sync_rounds: 0,
            n_clients: 4,
        };
        // `total_cmp` ranks a positive NaN above every number.
        assert_eq!(report.median_pos_error_m(), Some(0.2));
        assert!(report.p90_pos_error_m().unwrap().is_nan());
    }

    #[test]
    fn nearest_ap_is_the_first_minimum_of_min_by() {
        let aps = ap_grid(4, 20.0);
        // Off-grid points, ties between two and four APs, an AP itself,
        // and non-finite positions.
        let points = [
            Point::new(3.0, 17.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 10.0),
            Point::new(20.0, 0.0),
            Point::new(-5.0, 31.0),
            Point::new(f64::NAN, 4.0),
            Point::new(f64::INFINITY, 4.0),
            Point::new(f64::NEG_INFINITY, f64::INFINITY),
        ];
        for pos in points {
            let dists_m: Vec<f64> = aps.iter().map(|&ap| pos.dist(ap)).collect();
            let min_by = (0..aps.len())
                .min_by(|&a, &b| pos.dist(aps[a]).total_cmp(&pos.dist(aps[b])))
                .unwrap();
            assert_eq!(nearest_ap(&dists_m), min_by, "{pos:?}");
        }
    }

    #[test]
    fn roundtrip_fleet_reports_shard_outcomes_and_handoffs() {
        let mut fleet = small_fleet(FleetRangingMode::RoundTrip);
        let c = fleet.add_client(Point::new(5.0, 5.0));
        assert_eq!(fleet.serving_ap(c), 0);
        let r1 = fleet.run_window(1, Duration::from_secs_f64(0.4));
        assert!(r1.shard_reports[0].outcomes.len() > 1, "client swept");
        assert_eq!(r1.handoffs, 0);
        // Walk the client into AP 1's cell; next window hands it off.
        fleet.set_client_pos(c, Point::new(17.0, 5.0));
        let r2 = fleet.run_window(1, Duration::from_secs_f64(0.4));
        assert_eq!(r2.handoffs, 1);
        assert_eq!(fleet.serving_ap(c), 1);
        assert!(
            r2.shard_reports[1]
                .outcomes
                .iter()
                .any(|o| { fleet.client_of_slot(1, o.client) == c && o.position.is_some() }),
            "client ranges at the new AP"
        );
    }
}
