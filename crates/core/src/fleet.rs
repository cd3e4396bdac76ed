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
//! [`Environment`]; at the start of each window an association policy
//! hands a client off to the nearest AP (with hysteresis), and the
//! client's tracker/anomaly state migrates with it ([`MigratedClient`])
//! so the first sweep at the new AP runs in TRACK — no re-ACQUIRE. The
//! report counts handoff-gap sweeps (post-handoff ACQUIRE sweeps before
//! the first TRACK) so the migration claim is measurable.
//!
//! See `docs/FLEET.md` for the topology diagram, the clock-sync math
//! and the TDoA vs. round-trip trade-off table.

use crate::config::ChronosConfig;
use crate::engine::{mix_seed, thread_count, ServiceEngine, WindowReport};
use crate::localization::tdoa::{solve_tdoa, RangeDiff, TdoaSolverConfig};
use crate::runtime::WorkerRuntime;
use crate::service::ServiceConfig;
use crate::tracker::{PositionTracker, TrackMode, TrackerConfig};
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

/// A client hands off only when the nearest AP is closer than the
/// serving AP by more than this margin, meters (ping-pong damping).
const HANDOFF_HYSTERESIS_M: f64 = 2.0;

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
/// A fleet window draws all of its rounds before its first blast fires,
/// so the model keeps the epochs that window's blasts read: the latest
/// round before the window, when there was one, then every round of the
/// window, oldest first. A blast reads the latest of them at or before
/// its own instant. The next window drops all but the latest and refills
/// the same buffers, so the model's memory stays at one window's few
/// epochs however long the fleet runs. The public queries answer from
/// the latest round.
#[derive(Debug, Clone)]
pub struct ClockSync {
    cfg: ClockSyncConfig,
    n_aps: usize,
    /// Instants of the kept rounds, oldest first.
    epochs: Vec<Instant>,
    /// Truth residual offset per kept round and AP, ns, round-major
    /// (hidden from the estimator — it only biases blast timestamps).
    offsets_ns: Vec<f64>,
    /// Truth residual drift per kept round and AP, ppb, round-major
    /// (grows the offset until the next round).
    drifts_ppb: Vec<f64>,
    next_round: Instant,
    rounds: u64,
}

impl ClockSync {
    fn new(cfg: ClockSyncConfig, n_aps: usize) -> Self {
        ClockSync {
            cfg,
            n_aps,
            epochs: Vec::new(),
            offsets_ns: Vec::new(),
            drifts_ppb: Vec::new(),
            next_round: Instant::ZERO,
            rounds: 0,
        }
    }

    /// Sync rounds completed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Starts a window that ends at `ended`: drops every kept round but
    /// the latest, then draws each round due before `ended`. Returns the
    /// number drawn, the last that many of `epochs`.
    fn run_rounds(&mut self, seed: u64, ended: Instant) -> usize {
        if let Some(latest) = self.latest() {
            self.epochs.drain(..latest);
            self.offsets_ns.drain(..latest * self.n_aps);
            self.drifts_ppb.drain(..latest * self.n_aps);
        }
        let kept = self.epochs.len();
        while self.next_round < ended {
            self.run_round(seed, self.next_round);
        }
        self.epochs.len() - kept
    }

    /// Executes one round at `at`: every AP re-disciplines to a fresh
    /// offset/drift draw, kept as the latest epoch. RNG streams are keyed
    /// by (seed, round, AP) so the trajectory is invariant to window
    /// splits.
    fn run_round(&mut self, seed: u64, at: Instant) {
        for ap in 0..self.n_aps {
            let mut rng = StdRng::seed_from_u64(mix_seed(seed ^ SYNC_SALT, self.rounds + 1, ap));
            self.offsets_ns
                .push(self.cfg.jitter_ns * gaussian(&mut rng, 1.0));
            self.drifts_ppb
                .push(self.cfg.drift_ppb * gaussian(&mut rng, 1.0));
        }
        self.epochs.push(at);
        self.rounds += 1;
        self.next_round = at + self.cfg.interval;
    }

    /// The latest kept round; `None` before the first round.
    fn latest(&self) -> Option<usize> {
        self.epochs.len().checked_sub(1)
    }

    /// The kept round a blast at `t` reads: the latest at or before `t`,
    /// so a round at the blast's own instant counts (rounds win ties).
    fn epoch_at(&self, t: Instant) -> Option<usize> {
        self.epochs.partition_point(|&at| at <= t).checked_sub(1)
    }

    /// Kept round `epoch`'s state index base and the nanoseconds from
    /// it to `t`; `None` without a round or for a `t` earlier than it.
    fn since_round(&self, epoch: Option<usize>, t: Instant) -> Option<(usize, f64)> {
        let e = epoch?;
        let at = self.epochs[e];
        (at <= t).then(|| (e * self.n_aps, t.saturating_since(at).as_nanos() as f64))
    }

    /// [`ClockSync::offset_ns`] from a [`ClockSync::since_round`].
    fn offset_since(&self, since: Option<(usize, f64)>, ap: usize) -> f64 {
        match since {
            None => f64::INFINITY,
            Some((base, dt_ns)) => {
                self.offsets_ns[base + ap] + self.drifts_ppb[base + ap] * 1e-9 * dt_ns
            }
        }
    }

    /// [`ClockSync::pair_residual_bound_ns`] from a
    /// [`ClockSync::since_round`].
    fn bound_since(&self, since: Option<(usize, f64)>) -> f64 {
        match since {
            None => f64::INFINITY,
            Some((_, dt_ns)) => {
                2.0 * 3.0 * (self.cfg.jitter_ns + self.cfg.drift_ppb * 1e-9 * dt_ns)
            }
        }
    }

    /// Truth clock offset of AP `ap` at time `t`, ns — the post-round
    /// residual plus accumulated residual drift. Answers from the latest
    /// round, for `t` at or after it; infinite (unsynchronized) before
    /// the first round and for any earlier `t`.
    pub fn offset_ns(&self, ap: usize, t: Instant) -> f64 {
        self.offset_since(self.since_round(self.latest(), t), ap)
    }

    /// The *advertised* bound on any AP pair's clock offset at `t`, ns:
    /// twice the per-AP 3-sigma envelope
    /// `3·(jitter_ns + drift_ppb·10⁻⁹·Δt_ns)`. Conservative by
    /// construction — TDoA eligibility thresholds this bound, never the
    /// hidden truth offsets. Answers from the latest round, for `t` at
    /// or after it; infinite before the first round and for any earlier
    /// `t`.
    pub fn pair_residual_bound_ns(&self, t: Instant) -> f64 {
        self.bound_since(self.since_round(self.latest(), t))
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
    /// SNR model anchor shared by every client context (see
    /// [`client_context`]).
    pub snr_at_1m_db: f64,
    /// Threads [`FleetEngine::run_window`] adds to the fleet driver for
    /// its two batches: the window's TDoA client pass (every client
    /// fires and solves its own blasts), then the shard windows. Each
    /// batch is one level deep: every shard runs its own sweeps inline,
    /// so [`ServiceConfig::threads`] never starts threads inside a fleet.
    ///
    /// - `None` (default): auto — `ServiceConfig::threads - 1`, or one
    ///   per available core but the driver's when `threads` is 0. Only
    ///   this setting reads the host's core count.
    /// - `Some(0)`: the strictly serial fleet (the reference the
    ///   parallel widths are compared against): the same two passes run
    ///   on the driver alone, one item or shard after another. No
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
    /// client joins and again at the start of every window (at the
    /// boundary in round-trip mode, at the head of the client's turn in
    /// the client pass in TDoA mode), and read by the handoff policy and
    /// by every blast of the window — the position only moves between
    /// windows.
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
    /// When the client blasts next (TDoA mode only): it blasts every
    /// [`TdoaConfig::cadence`] from a first blast within one cadence of
    /// joining, so at a window's start this lies within one cadence of
    /// the fleet clock.
    next_blast: Instant,
    /// Set at handoff; cleared by the first post-handoff TRACK outcome.
    /// ACQUIRE outcomes seen while set count as handoff-gap sweeps.
    awaiting_track: bool,
}

impl FleetClient {
    /// Ranges every AP from the client's position, then runs the
    /// association policy: the nearest AP, when it beats the serving AP
    /// by more than the hysteresis margin. A client at a non-finite
    /// position keeps its serving AP.
    fn handoff_target(&mut self, aps: &[Point]) -> Option<usize> {
        let pos = self.pos;
        self.ap_dists_m.clear();
        self.ap_dists_m.extend(aps.iter().map(|&ap| pos.dist(ap)));
        if !pos.is_finite() {
            return None;
        }
        let nearest = nearest_ap(&self.ap_dists_m);
        if nearest == self.serving
            || self.ap_dists_m[self.serving] - self.ap_dists_m[nearest] <= HANDOFF_HYSTERESIS_M
        {
            return None;
        }
        Some(nearest)
    }
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
    fn fired(client: usize, blast: u64, at: Instant) -> Self {
        TdoaOutcome {
            client,
            blast,
            at,
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

/// How long after joining client `id` first blasts: the phases stagger
/// first blasts across the (nonzero) cadence, so a large population
/// does not fire in lockstep.
fn first_blast_phase(id: usize, cadence: Duration) -> Duration {
    Duration::from_nanos((id as u64).wrapping_mul(97_777_777) % cadence.as_nanos())
}

/// Blasts a client whose next blast is due at `next` fires before
/// `ended`, one every `cadence` (nonzero).
fn blasts_due(next: Instant, ended: Instant, cadence: Duration) -> usize {
    if next >= ended {
        return 0;
    }
    let span_ns = ended.saturating_since(next).as_nanos();
    ((span_ns - 1) / cadence.as_nanos() + 1) as usize
}

/// Scratch a lane reuses across blast solves: the APs that heard the
/// current blast, as (AP, distance to the client in m, timestamp error
/// in m), and their range differences against the reference.
#[derive(Debug, Default)]
struct BlastScratch {
    anchors: Vec<(usize, f64, f64)>,
    diffs: Vec<RangeDiff>,
}

/// A blast's place in its window: its instant and client, which order
/// the window's blasts, then its client-major outcome slot.
type BlastKey = (Instant, usize, usize);

/// What the client pass leaves for the merge and the shard pass, in
/// buffers the fleet keeps across windows.
#[derive(Debug, Default)]
struct BlastLog {
    /// Every blast of the window: written per slot by the client pass,
    /// then sorted into blast order by the merge, whose permutation
    /// leaves each key's slot at its own index.
    keys: Vec<BlastKey>,
    /// Each slot's hearing set, `words` words per slot: bit `ap % 64` of
    /// word `ap / 64` is set when AP `ap` books the blast's airtime.
    slot_heard: Vec<u64>,
    /// The same hearing sets in blast order, gathered by the merge.
    heard: Vec<u64>,
    words: usize,
}

impl BlastLog {
    /// Books the window's fleet airtime on shard `ap` in the order it
    /// happened, the order the serial pump booked it in: the beacon of
    /// each of the window's `rounds`, admitted ahead of any blast at its
    /// instant, and, in blast order, every blast AP `ap` heard. The
    /// windows that ended before the window go first.
    fn replay(
        &self,
        ap: usize,
        shard: &mut ServiceEngine,
        rounds: &[Instant],
        beacon: Duration,
        blast_airtime: Duration,
    ) {
        shard.release_elapsed_airtime();
        let (word, bit) = (ap / 64, 1u64 << (ap % 64));
        let mut rounds = rounds.iter().peekable();
        let heard = self.heard.chunks_exact(self.words);
        for (&(t, _, _), heard) in self.keys.iter().zip(heard) {
            while let Some(&ts) = rounds.next_if(|&&ts| ts <= t) {
                shard.charge_airtime(ts, beacon);
            }
            if heard[word] & bit != 0 {
                // A blast is overheard, not scheduled: it happens at `t`
                // on the client's cadence no matter what this AP's
                // arbiter thinks, so it books the air at its true instant
                // (O(1)) instead of competing for an admission grant it
                // would ignore anyway.
                shard.charge_airtime_at(t, blast_airtime);
            }
        }
        for &ts in rounds {
            shard.charge_airtime(ts, beacon);
        }
    }
}

/// One item of the client pass: a run of clients, the first's fleet
/// index, and their blasts' slots from slot `base` on.
struct BlastItem<'a> {
    first: usize,
    base: usize,
    clients: &'a mut [FleetClient],
    outcomes: &'a mut [TdoaOutcome],
    keys: &'a mut [BlastKey],
    heard: &'a mut [u64],
}

/// Everything a blast reads besides its own client: the window seed and
/// end, the blast parameters, the AP geometry and the window's clock
/// epochs. Lanes share it read-only.
struct BlastPass<'a> {
    seed: u64,
    ended: Instant,
    cfg: &'a TdoaConfig,
    aps: &'a [Point],
    sync: Option<&'a ClockSync>,
    words: usize,
}

impl BlastPass<'_> {
    /// Takes the item's clients in turn: each first ranges the APs and
    /// hands off ([`FleetClient::handoff_target`]), then fires, in time
    /// order, every blast it owes before the window's end, each into the
    /// next of the item's slots. Returns the item's handoffs.
    fn fire_item(&self, item: BlastItem<'_>, s: &mut BlastScratch) -> usize {
        let w = self.words;
        let (mut slot, mut handoffs) = (0, 0);
        for (i, c) in item.clients.iter_mut().enumerate() {
            let client = item.first + i;
            // The reference AP changes; the world-frame track is
            // frame-free and just continues.
            if let Some(nearest) = c.handoff_target(self.aps) {
                c.serving = nearest;
                handoffs += 1;
            }
            while c.next_blast < self.ended {
                let t = c.next_blast;
                c.next_blast = t + self.cfg.cadence;
                item.keys[slot] = (t, client, item.base + slot);
                let heard = &mut item.heard[slot * w..(slot + 1) * w];
                self.fire(t, client, c, &mut item.outcomes[slot], heard, s);
                slot += 1;
            }
        }
        debug_assert_eq!(slot, item.outcomes.len(), "the driver counted every blast");
        handoffs
    }

    /// Fires client `client`'s blast at `t` and solves it into `out`,
    /// writing no state but the client's own (ordinal, tracker) and the
    /// blast's `heard` set.
    ///
    /// The listeners are taken once, from the client's AP distances and
    /// the epoch of the latest round at or before `t`: every AP in range
    /// that is the serving AP (the TDoA reference) or passes the sync
    /// gate. The blast is booked and solved only when the serving AP is
    /// among at least `min_anchors` listeners; then `heard` names them,
    /// and each timestamps the arrival with error = truth clock offset
    /// (hidden) + detection noise drawn from the blast's own (seed,
    /// blast, client) stream, in AP-index order, so the draws are a pure
    /// function of geometry and the results are schedule-invariant.
    fn fire(
        &self,
        t: Instant,
        client: usize,
        c: &mut FleetClient,
        out: &mut TdoaOutcome,
        heard: &mut [u64],
        s: &mut BlastScratch,
    ) {
        let cfg = self.cfg;
        let blast = c.blasts;
        c.blasts += 1;
        let (pos, serving) = (c.pos, c.serving);
        *out = TdoaOutcome {
            truth_pos: pos,
            mode: c.tracker.mode(),
            ..TdoaOutcome::fired(client, blast, t)
        };
        let since = self
            .sync
            .and_then(|sync| sync.since_round(sync.epoch_at(t), t));
        let bound_ns = self
            .sync
            .map_or(f64::INFINITY, |sync| sync.bound_since(since));
        let gate_open = bound_ns <= cfg.residual_threshold_ns;
        s.anchors.clear();
        let mut d_ref = None;
        for (ap, &dist_m) in c.ap_dists_m.iter().enumerate() {
            if dist_m <= cfg.max_range_m && (ap == serving || gate_open) {
                if ap == serving {
                    d_ref = Some(dist_m);
                }
                s.anchors.push((ap, dist_m, 0.0));
            }
        }
        let Some(d_ref) = d_ref.filter(|_| s.anchors.len() >= cfg.min_anchors) else {
            // Not enough fleet to solve (or the serving AP missed the
            // blast): nothing booked, no fix, but the tracker still sees
            // the miss (mode machine + anomaly accounting).
            let upd = c.tracker.observe(t, None, false);
            out.anomaly_score = upd.anomaly_score;
            return;
        };
        let mut rng = StdRng::seed_from_u64(mix_seed(self.seed ^ BLAST_SALT, blast + 1, client));
        let mut err_ref = 0.0;
        for (ap, _, err_m) in &mut s.anchors {
            heard[*ap / 64] |= 1 << (*ap % 64);
            let noise_ns = cfg.timestamp_noise_ns * gaussian(&mut rng, 1.0);
            let offset_ns = self
                .sync
                .map_or(f64::INFINITY, |sync| sync.offset_since(since, *ap));
            *err_m = C_M_PER_NS * (offset_ns + noise_ns);
            if *ap == serving {
                err_ref = *err_m;
            }
        }
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
    /// Clients handed off at the start of this window.
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
    clock: Instant,
    /// The window's blast keys and hearing sets (TDoA mode).
    log: BlastLog,
    /// One blast scratch per lane, kept warm across windows.
    blast_lanes: Vec<BlastScratch>,
    /// Spreads the client pass and the shard windows over the driver
    /// plus `workers` scoped threads; `None` runs the serial fleet — see
    /// [`FleetConfig::workers`].
    runtime: Option<WorkerRuntime>,
}

impl FleetEngine {
    /// Builds a fleet of one shard per AP position, all sharing `env`
    /// and one plan cache.
    ///
    /// # Panics
    ///
    /// If `aps` is empty, if clock sync is on with a zero
    /// [`ClockSyncConfig::interval`], or if a TDoA fleet has a zero
    /// [`TdoaConfig::cadence`]: a window would draw rounds or fire a
    /// client's blasts at one instant forever.
    pub fn new(cfg: FleetConfig, env: Environment, aps: Vec<Point>) -> Self {
        assert!(!aps.is_empty(), "a fleet needs at least one AP");
        assert!(
            cfg.clock.is_none_or(|c| c.interval > Duration::ZERO),
            "clock sync needs a nonzero round interval"
        );
        assert!(
            cfg.mode != FleetRangingMode::Tdoa || cfg.tdoa.cadence > Duration::ZERO,
            "a TDoA fleet needs a nonzero blast cadence"
        );
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
            clock: Instant::ZERO,
            log: BlastLog {
                words: aps.len().div_ceil(64),
                ..BlastLog::default()
            },
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

    /// The runtime that spreads the client pass and the shard windows,
    /// when the fleet runs them in parallel (see
    /// [`FleetConfig::workers`]).
    /// Benches read its counters.
    pub fn runtime(&self) -> Option<&WorkerRuntime> {
        self.runtime.as_ref()
    }

    /// Threads added to the driver for the client pass and the shard
    /// windows; 0 means [`FleetEngine::run_window`] runs serially.
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
        let (slot, next_blast) = match self.cfg.mode {
            FleetRangingMode::RoundTrip => {
                let ctx = client_context(&self.env, pos, self.aps[serving], self.cfg.snr_at_1m_db);
                let slot = self.shards[serving].join(ctx, self.cfg.chronos.clone());
                debug_assert_eq!(self.slot_owner[serving].len(), slot);
                self.slot_owner[serving].push(id);
                (Some(slot), self.clock)
            }
            FleetRangingMode::Tdoa => (
                None,
                self.clock + first_blast_phase(id, self.cfg.tdoa.cadence),
            ),
        };
        self.clients.push(FleetClient {
            pos,
            ap_dists_m,
            serving,
            slot,
            tracker: PositionTracker::new(tracker_cfg),
            blasts: 0,
            next_blast,
            awaiting_track: false,
        });
        id
    }

    /// Moves a client (truth teleport; walkers call this every window).
    /// Round-trip geometry updates immediately; association is only
    /// re-evaluated at the start of the next window.
    pub fn set_client_pos(&mut self, client: usize, pos: Point) {
        self.clients[client].pos = pos;
        if let Some(slot) = self.clients[client].slot {
            let serving = self.clients[client].serving;
            self.shards[serving].session_mut(slot).ctx.initiator_pos = pos;
        }
    }

    /// Round-trip mode's boundary: runs the association policy
    /// ([`FleetClient::handoff_target`]) over every client and migrates
    /// each client handed off, tracker and anomaly state included, to a
    /// slot in its new AP's shard. Returns the number of handoffs.
    fn run_handoffs(&mut self) -> usize {
        let mut handoffs = 0;
        for id in 0..self.clients.len() {
            let Some(nearest) = self.clients[id].handoff_target(&self.aps) else {
                continue;
            };
            handoffs += 1;
            let c = &self.clients[id];
            let (pos, serving) = (c.pos, c.serving);
            let slot = c.slot.expect("round-trip client has a slot");
            let ctx = client_context(&self.env, pos, self.aps[nearest], self.cfg.snr_at_1m_db);
            let mut state = self.shards[serving]
                .extract_client(slot)
                .expect("handoff of an active client");
            state.translate(self.aps[serving].sub(self.aps[nearest]));
            let new_slot = self.shards[nearest].join_migrated(ctx, self.cfg.chronos.clone(), state);
            debug_assert_eq!(self.slot_owner[nearest].len(), new_slot);
            self.slot_owner[nearest].push(id);
            let c = &mut self.clients[id];
            c.serving = nearest;
            c.slot = Some(new_slot);
            c.awaiting_track = true;
        }
        handoffs
    }

    /// The client pass: every client ranges the APs and hands off, then
    /// fires and solves, in time order, each blast it owes before
    /// `ended` ([`BlastPass::fire_item`]), in items of
    /// [`BLAST_ITEM_CLIENTS`] clients spread over the runtime's lanes
    /// (over the driver alone without one). Each blast's outcome, key
    /// and hearing set go into the client-major slot counted for it
    /// here; the merge then sorts the keys into blast order and permutes
    /// the outcomes to match, in place. Returns the window's handoffs
    /// and its outcomes in blast order.
    fn run_clients(&mut self, seed: u64, ended: Instant) -> (usize, Vec<TdoaOutcome>) {
        let cadence = self.cfg.tdoa.cadence;
        let due = |c: &FleetClient| blasts_due(c.next_blast, ended, cadence);
        let total: usize = self.clients.iter().map(due).sum();
        let log = &mut self.log;
        let words = log.words;
        log.keys.clear();
        log.keys.resize(total, (Instant::ZERO, 0, 0));
        log.slot_heard.clear();
        log.slot_heard.resize(total * words, 0);
        log.heard.clear();
        let mut outcomes = vec![TdoaOutcome::fired(0, 0, Instant::ZERO); total];
        let pass = BlastPass {
            seed,
            ended,
            cfg: &self.cfg.tdoa,
            aps: &self.aps,
            sync: self.sync.as_ref(),
            words,
        };
        let (mut outs, mut keys, mut heard) = (
            &mut outcomes[..],
            &mut log.keys[..],
            &mut log.slot_heard[..],
        );
        let mut base = 0;
        let items =
            self.clients
                .chunks_mut(BLAST_ITEM_CLIENTS)
                .enumerate()
                .map(move |(i, clients)| {
                    let n: usize = clients.iter().map(due).sum();
                    let (o, rest) = std::mem::take(&mut outs).split_at_mut(n);
                    outs = rest;
                    let (k, rest) = std::mem::take(&mut keys).split_at_mut(n);
                    keys = rest;
                    let (h, rest) = std::mem::take(&mut heard).split_at_mut(n * words);
                    heard = rest;
                    base += n;
                    BlastItem {
                        first: i * BLAST_ITEM_CLIENTS,
                        base: base - n,
                        clients,
                        outcomes: o,
                        keys: k,
                        heard: h,
                    }
                });
        let fire = |lane: &mut BlastScratch, item: BlastItem<'_>| {
            // The lanes' scratch sits side by side in one `Vec`; moving
            // this lane's onto its stack for the item keeps two threads
            // from writing one cache line.
            let mut scratch = std::mem::take(lane);
            let handoffs = pass.fire_item(item, &mut scratch);
            *lane = scratch;
            handoffs
        };
        let handoffs = match &self.runtime {
            Some(rt) => rt
                .run_uncounted(items, &mut self.blast_lanes, fire)
                .into_iter()
                .sum(),
            None => items.map(|item| fire(&mut self.blast_lanes[0], item)).sum(),
        };
        // Blast order is (instant, client): every client blasts on one
        // cadence, and a client joins at the fleet clock with its first
        // blast within one cadence of it, so of two clients blasting at
        // one instant the older, lower id was always scheduled first —
        // the order a time-ordered event queue with insertion-order ties
        // pops them in.
        log.keys.sort_unstable();
        for &(_, _, slot) in &log.keys {
            let heard = &log.slot_heard[slot * words..(slot + 1) * words];
            log.heard.extend_from_slice(heard);
        }
        // Blast `k` sits in slot `keys[k].2`: follow each cycle of the
        // permutation once, moving every outcome one step to its place
        // and marking the place done by pointing it at itself.
        for k in 0..total {
            if log.keys[k].2 == k {
                continue;
            }
            let held = outcomes[k].clone();
            let mut to = k;
            loop {
                let from = std::mem::replace(&mut log.keys[to].2, to);
                if from == k {
                    outcomes[to] = held;
                    break;
                }
                outcomes[to] = outcomes[from].clone();
                to = from;
            }
        }
        (handoffs, outcomes)
    }

    /// The shard pass: every shard books the window's fleet airtime
    /// ([`BlastLog::replay`]) and then runs its window, spread over the
    /// runtime's lanes (one after another without one). `sync_rounds` is
    /// the number of rounds the window drew.
    fn run_shards(&mut self, seed: u64, ended: Instant, sync_rounds: usize) -> Vec<WindowReport> {
        let (rounds, beacon) = match &self.sync {
            Some(s) => (
                &s.epochs[s.epochs.len() - sync_rounds..],
                s.cfg.beacon_airtime,
            ),
            None => (&[][..], Duration::ZERO),
        };
        let (log, blast_airtime) = (&self.log, self.cfg.tdoa.blast_airtime);
        let run_shard = |(ap, shard): (usize, &mut ServiceEngine)| {
            log.replay(ap, shard, rounds, beacon, blast_airtime);
            shard.run_until(shard_seed(seed, ap), ended)
        };
        let shards = self.shards.iter_mut().enumerate();
        match &self.runtime {
            Some(rt) => rt.run_uncounted(shards, &mut vec![(); rt.workers() + 1], |_, shard| {
                run_shard(shard)
            }),
            None => shards.map(run_shard).collect(),
        }
    }

    /// Closes a window: stamps the cache counters on every shard report,
    /// counts handoff-gap sweeps, advances the fleet clock to `ended` and
    /// assembles the report.
    fn close_window(
        &mut self,
        started: Instant,
        ended: Instant,
        handoffs: usize,
        sync_rounds: usize,
        tdoa_outcomes: Vec<TdoaOutcome>,
        mut shard_reports: Vec<WindowReport>,
    ) -> FleetWindowReport {
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

    /// Advances the whole fleet by `window`: the window's sync rounds,
    /// the handoffs (at the boundary in round-trip mode, at each client's
    /// turn in the client pass in TDoA mode), the client pass that fires
    /// and solves every TDoA blast, then every shard's round-trip window.
    /// `seed` follows the same convention as
    /// [`ServiceEngine::run_until`] — reuse one seed across windows for a
    /// reproducible run; shard `ap` consumes [`shard_seed`]`(seed, ap)`,
    /// so a `sync_disabled` round-trip fleet is bit-identical to
    /// standalone engines run with those seeds.
    ///
    /// ## One level of parallelism, two batches
    ///
    /// The driver alone runs a short boundary: the window's sync rounds
    /// (all drawn up front: [`ClockSync`] keeps the epochs the window's
    /// blasts read), the round-trip handoffs, which move clients between
    /// shards, and, after the client pass, the merge into blast order.
    /// Two batches spread over the driver plus the runtime's scoped
    /// threads ([`FleetConfig::workers`]; without a runtime both run on
    /// the driver alone), one level deep each:
    ///
    /// 1. the client pass (TDoA mode): each client ranges the APs and
    ///    hands off, which changes only its own reference AP, then fires,
    ///    in time order, every blast it owes before the window's end. A
    ///    blast reads only its own client (ordinal, AP distances,
    ///    tracker), its own (seed, blast, client) stream and the epoch of
    ///    the latest round at or before it, and writes only its client and
    ///    its own slot, so no lane placement can change it; the merge puts
    ///    the outcomes in blast order;
    /// 2. the shard windows: each shard first books the window's beacon
    ///    and blast airtime in the order the window happened (a round's
    ///    beacon ahead of any blast at its instant), so its arbiter's
    ///    windows, tokens and grants are the ones a time-ordered pump
    ///    would leave, then runs its window. Shards share no mutable
    ///    state (each owns its clients, events, pipeline and RNG stream;
    ///    the plan cache is content-addressed) and run their own sweeps
    ///    inline. Reports come back in shard order.
    ///
    /// So every [`FleetWindowReport`] field is bitwise identical across
    /// worker counts and vs. the serial fleet, except
    /// `shard_reports[..].wall` (host wall clock). The cache counters
    /// are invariant too: every estimate looks its plans up in the
    /// shared cache, so hits and misses count the window's sweeps.
    pub fn run_window(&mut self, seed: u64, window: Duration) -> FleetWindowReport {
        let started = self.clock;
        let ended = started + window;
        let sync_rounds = self.sync.as_mut().map_or(0, |s| s.run_rounds(seed, ended));
        let (handoffs, tdoa_outcomes) = match self.cfg.mode {
            FleetRangingMode::Tdoa => self.run_clients(seed, ended),
            FleetRangingMode::RoundTrip => (self.run_handoffs(), Vec::new()),
        };
        let shard_reports = self.run_shards(seed, ended, sync_rounds);
        self.close_window(
            started,
            ended,
            handoffs,
            sync_rounds,
            tdoa_outcomes,
            shard_reports,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronos_link::event::EventQueue;
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
    fn clock_sync_keeps_one_window_of_epochs_over_many_windows() {
        let cfg = ClockSyncConfig::default();
        let mut sync = ClockSync::new(cfg, 4);
        // Windows of 250 ms draw two or three 100 ms rounds each.
        let window = Duration::from_millis(250);
        let mut ended = Instant::ZERO + window;
        assert_eq!(sync.run_rounds(7, ended), 3);
        assert_eq!(sync.epochs.len(), 3, "no round before the first window");
        let mut drawn = 3;
        let mut buffers = None;
        for w in 1..1000 {
            ended += window;
            let rounds = sync.run_rounds(7, ended);
            drawn += rounds;
            // The latest round before the window, then the window's own.
            assert_eq!(sync.epochs.len(), rounds + 1);
            assert_eq!(sync.offsets_ns.len(), 4 * (rounds + 1));
            assert!(sync.epochs.windows(2).all(|e| e[0] < e[1]));
            // Refilled in place once a window kept four epochs, the most
            // any window keeps.
            let now = (sync.offsets_ns.as_ptr(), sync.drifts_ppb.as_ptr());
            if w > 4 {
                assert_eq!(*buffers.get_or_insert(now), now, "window {w}");
            }
        }
        assert_eq!(sync.rounds(), drawn as u64);
        // The latest round answers exactly like a fresh model's round at
        // the same ordinal would, and a blast picks the latest round at
        // or before it.
        let latest = *sync.epochs.last().unwrap();
        let mut fresh = ClockSync::new(cfg, 4);
        fresh.rounds = sync.rounds - 1;
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
        let last = sync.latest();
        assert_eq!(sync.epoch_at(latest), last, "a round wins its own instant");
        let before = sync.epochs[0];
        assert_eq!(sync.epoch_at(before), Some(0));
        assert_eq!(sync.epoch_at(latest + Duration::from_nanos(1)), last);
        assert_eq!(
            sync.epoch_at(Instant::from_nanos(latest.as_nanos() - 1)),
            last.map(|e| e - 1)
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
        let tdoa_outcomes = [0.3, f64::NAN, 0.1, 0.2]
            .into_iter()
            .enumerate()
            .map(|(client, err_m)| TdoaOutcome {
                pos_error_m: Some(err_m),
                ..TdoaOutcome::fired(client, 0, Instant::ZERO)
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

    #[test]
    #[should_panic(expected = "nonzero blast cadence")]
    fn zero_blast_cadence_is_rejected() {
        let mut cfg = FleetConfig::position(TrackerConfig::default(), FleetRangingMode::Tdoa);
        cfg.tdoa.cadence = Duration::ZERO;
        FleetEngine::new(cfg, Environment::free_space(), ap_grid(4, 20.0));
    }

    #[test]
    #[should_panic(expected = "nonzero round interval")]
    fn zero_sync_interval_is_rejected() {
        let mut cfg = FleetConfig::position(TrackerConfig::default(), FleetRangingMode::RoundTrip);
        cfg.clock.as_mut().unwrap().interval = Duration::ZERO;
        FleetEngine::new(cfg, Environment::free_space(), ap_grid(4, 20.0));
    }

    #[test]
    fn round_trip_fleet_ignores_the_blast_cadence() {
        let mut cfg = FleetConfig::position(TrackerConfig::default(), FleetRangingMode::RoundTrip);
        cfg.chronos = quick_chronos();
        cfg.tdoa.cadence = Duration::ZERO;
        let mut fleet = FleetEngine::new(cfg, Environment::free_space(), ap_grid(4, 20.0));
        fleet.add_client(Point::new(5.0, 5.0));
        let report = fleet.run_window(1, Duration::from_millis(30));
        assert!(report.tdoa_outcomes.is_empty());
    }

    /// The serial event pump the client pass replaced, kept as the
    /// reference it must match: sync rounds and blasts popped from one
    /// time-ordered queue (rounds win ties, and blasts at one instant pop
    /// in insertion order), each blast's airtime booked on its listeners
    /// and the blast solved as it fires against the latest round, then
    /// every shard's window, one after another.
    struct SerialFleet {
        fleet: FleetEngine,
        blasts: EventQueue<usize>,
    }

    impl SerialFleet {
        fn new(mut cfg: FleetConfig, aps: Vec<Point>) -> Self {
            cfg.workers = Some(0);
            SerialFleet {
                fleet: FleetEngine::new(cfg, Environment::free_space(), aps),
                blasts: EventQueue::new(),
            }
        }

        fn add_client(&mut self, pos: Point) -> usize {
            let id = self.fleet.add_client(pos);
            if self.fleet.cfg.mode == FleetRangingMode::Tdoa {
                let first = self.fleet.clients[id].next_blast;
                self.blasts.schedule(first, id);
            }
            id
        }

        fn run_window(&mut self, seed: u64, window: Duration) -> FleetWindowReport {
            let f = &mut self.fleet;
            let started = f.clock;
            let ended = started + window;
            let handoffs = match f.cfg.mode {
                FleetRangingMode::RoundTrip => f.run_handoffs(),
                // The reference hands off at the boundary; the client
                // pass does it at the head of each client's turn.
                FleetRangingMode::Tdoa => {
                    let mut handoffs = 0;
                    for c in &mut f.clients {
                        if let Some(nearest) = c.handoff_target(&f.aps) {
                            c.serving = nearest;
                            handoffs += 1;
                        }
                    }
                    handoffs
                }
            };
            let mut outcomes = Vec::new();
            let mut rounds = 0;
            loop {
                let t_sync = f.sync.as_ref().map(|s| s.next_round).filter(|&t| t < ended);
                let t_blast = self.blasts.peek_time().filter(|&t| t < ended);
                let sync_first = match (t_sync, t_blast) {
                    (None, None) => break,
                    (Some(_), None) => true,
                    (None, Some(_)) => false,
                    (Some(ts), Some(tb)) => ts <= tb,
                };
                if sync_first {
                    let ts = t_sync.unwrap();
                    let sync = f.sync.as_mut().unwrap();
                    sync.run_round(seed, ts);
                    rounds += 1;
                    let beacon = sync.cfg.beacon_airtime;
                    for shard in &mut f.shards {
                        shard.charge_airtime(ts, beacon);
                    }
                } else {
                    let (t, client) = self.blasts.pop().unwrap();
                    outcomes.push(serial_blast(f, seed, t, client));
                    self.blasts.schedule(t + f.cfg.tdoa.cadence, client);
                }
            }
            let reports = f
                .shards
                .iter_mut()
                .enumerate()
                .map(|(ap, shard)| shard.run_until(shard_seed(seed, ap), ended))
                .collect();
            f.close_window(started, ended, handoffs, rounds, outcomes, reports)
        }
    }

    /// Fires and solves one blast as the serial pump did: ordinal,
    /// listeners against the latest round, airtime on every listener of
    /// a blast that reaches the solver, then the solve, which draws every
    /// listener's stamp noise.
    fn serial_blast(f: &mut FleetEngine, seed: u64, t: Instant, client: usize) -> TdoaOutcome {
        let cfg = f.cfg.tdoa;
        let sync = f.sync.as_ref();
        let c = &mut f.clients[client];
        let mut out = TdoaOutcome::fired(client, c.blasts, t);
        c.blasts += 1;
        let (pos, serving) = (c.pos, c.serving);
        let bound_ns = sync.map_or(f64::INFINITY, |s| s.pair_residual_bound_ns(t));
        let gate_open = bound_ns <= cfg.residual_threshold_ns;
        let listeners: Vec<(usize, f64)> = c
            .ap_dists_m
            .iter()
            .copied()
            .enumerate()
            .filter(|&(ap, d)| d <= cfg.max_range_m && (ap == serving || gate_open))
            .collect();
        if listeners.iter().any(|l| l.0 == serving) && listeners.len() >= cfg.min_anchors {
            for &(ap, _) in &listeners {
                f.shards[ap].charge_airtime_at(t, cfg.blast_airtime);
            }
        }
        out.truth_pos = pos;
        out.mode = c.tracker.mode();
        let mut rng = StdRng::seed_from_u64(mix_seed(seed ^ BLAST_SALT, out.blast + 1, client));
        let mut anchors = Vec::new();
        let mut d_ref = None;
        for &(ap, dist_m) in &listeners {
            let noise_ns = cfg.timestamp_noise_ns * gaussian(&mut rng, 1.0);
            let offset_ns = sync.map_or(f64::INFINITY, |s| s.offset_ns(ap, t));
            let err_m = C_M_PER_NS * (offset_ns + noise_ns);
            if ap == serving {
                d_ref = Some((dist_m, err_m));
            }
            anchors.push((ap, dist_m, err_m));
        }
        let Some((d_ref, err_ref)) = d_ref.filter(|_| anchors.len() >= cfg.min_anchors) else {
            out.anomaly_score = c.tracker.observe(t, None, false).anomaly_score;
            return out;
        };
        out.n_anchors = anchors.len();
        let reference = f.aps[serving];
        let diffs: Vec<RangeDiff> = anchors
            .iter()
            .filter(|a| a.0 != serving)
            .map(|&(ap, dist_m, err_m)| RangeDiff {
                anchor: f.aps[ap],
                diff_m: (dist_m - d_ref) + (err_m - err_ref),
            })
            .collect();
        let prior = c.tracker.filter().predicted_position().unwrap_or(reference);
        let fix = solve_tdoa(reference, &diffs, prior, &cfg.solver).ok();
        let upd = c.tracker.observe(t, fix.map(|f| f.point), true);
        out.anomaly_score = upd.anomaly_score;
        if let Some(f) = fix {
            out.fix = Some(f.point);
            out.residual_m = Some(f.residual_m);
            out.pos_error_m = Some(f.point.dist(pos));
        }
        out.tracked_pos = upd.fused;
        out.tracked_pos_error_m = upd.fused.map(|p| p.dist(pos));
        out
    }

    /// Every field of a report but the host's `wall` clock, with each
    /// float printed so that it reads back to the same bits.
    fn fingerprint(r: &FleetWindowReport) -> String {
        let mut r = r.clone();
        for sr in &mut r.shard_reports {
            sr.wall = std::time::Duration::ZERO;
        }
        format!("{r:?}")
    }

    /// Walker `i` after `w` windows: a diagonal drift across a 40 m
    /// square, so clients cross cells and hand off; walker 31 stands at
    /// a non-finite position.
    fn walker(i: usize, w: usize) -> Point {
        if i == 31 {
            return Point::new(f64::NAN, 5.0);
        }
        let x = (3.0 + 6.9 * i as f64 + 5.2 * w as f64).rem_euclid(40.0);
        let y = (5.0 + 4.7 * i as f64 + 3.4 * w as f64).rem_euclid(40.0);
        Point::new(x, y)
    }

    /// Runs `windows` on the client pass at `workers` 0, 1 and 3 and on
    /// the serial pump, with walkers moving between windows and clients
    /// joining per `joins`, and asserts every report field but `wall`,
    /// and every shard's arbiter, equal after each window. Returns the
    /// serial pump's reports.
    fn pin_against_serial_pump(
        case: &str,
        cfg: &FleetConfig,
        aps: &[Point],
        walkers: usize,
        joins: fn(usize) -> usize,
        windows: &[Duration],
    ) -> Vec<FleetWindowReport> {
        let mut reports = Vec::new();
        for workers in [0, 1, 3] {
            reports.clear();
            let mut serial = SerialFleet::new(cfg.clone(), aps.to_vec());
            let mut fleet = FleetEngine::new(
                FleetConfig {
                    workers: Some(workers),
                    ..cfg.clone()
                },
                Environment::free_space(),
                aps.to_vec(),
            );
            assert_eq!(fleet.shard_workers(), workers);
            for i in 0..walkers {
                serial.add_client(walker(i, 0));
                fleet.add_client(walker(i, 0));
            }
            for (w, &window) in windows.iter().enumerate() {
                for _ in 0..joins(w) {
                    let i = fleet.n_clients();
                    assert_eq!(serial.add_client(walker(i, w)), i);
                    fleet.add_client(walker(i, w));
                }
                for i in 0..fleet.n_clients() {
                    serial.fleet.set_client_pos(i, walker(i, w));
                    fleet.set_client_pos(i, walker(i, w));
                }
                let want = serial.run_window(5, window);
                let got = fleet.run_window(5, window);
                assert!(
                    fingerprint(&got) == fingerprint(&want),
                    "{case}: workers {workers}, window {w} differs from the serial pump"
                );
                for ap in 0..aps.len() {
                    assert_eq!(
                        format!("{:?}", fleet.shard(ap).arbiter()),
                        format!("{:?}", serial.fleet.shard(ap).arbiter()),
                        "{case}: workers {workers}, window {w}, shard {ap}"
                    );
                }
                reports.push(want);
            }
        }
        reports
    }

    /// Whether some instant holds blasts of two clients, one of them
    /// `joiner` or later and one older.
    fn joiner_ties_an_older_client(reports: &[FleetWindowReport], joiner: usize) -> bool {
        reports.iter().any(|r| {
            r.tdoa_outcomes
                .windows(2)
                .any(|o| o[0].at == o[1].at && o[0].client < joiner && o[1].client >= joiner)
        })
    }

    /// Whether some blast fired at a sync round's instant (every
    /// `interval` from 0).
    fn blast_at_a_round(reports: &[FleetWindowReport], interval: Duration) -> bool {
        let interval = interval.as_nanos();
        let at_round = |o: &TdoaOutcome| o.at.as_nanos().is_multiple_of(interval);
        reports.iter().any(|r| r.tdoa_outcomes.iter().any(at_round))
    }

    fn ms(v: &[u64]) -> Vec<Duration> {
        v.iter().map(|&m| Duration::from_millis(m)).collect()
    }

    fn no_joins(_: usize) -> usize {
        0
    }

    fn tdoa_cfg() -> FleetConfig {
        let mut cfg = FleetConfig::position(TrackerConfig::default(), FleetRangingMode::Tdoa);
        cfg.chronos = quick_chronos();
        cfg
    }

    #[test]
    fn client_pass_matches_serial_pump_over_odd_windows_and_round_counts() {
        // 100 ms rounds, 25 ms cadence: windows that divide neither, with
        // no round ([37, 98), [461, 468), [468, 500)), one, or two; client 0
        // blasts on the 25 ms grid, so it ties a round at every 100 ms.
        let cfg = tdoa_cfg();
        let windows = ms(&[37, 61, 100, 13, 250, 7, 32]);
        let reports = pin_against_serial_pump(
            "odd windows",
            &cfg,
            &ap_grid(9, 20.0),
            70,
            no_joins,
            &windows,
        );
        let rounds: Vec<usize> = reports.iter().map(|r| r.sync_rounds).collect();
        assert_eq!(rounds, [1, 0, 1, 1, 2, 0, 0]);
        assert!(blast_at_a_round(&reports, Duration::from_millis(100)));
        assert!(reports.iter().any(|r| r.handoffs > 0));
        // A 20 ms interval draws a dozen rounds per 250 ms window, and
        // 20 ms blasts tie every round.
        let mut cfg = tdoa_cfg();
        cfg.clock.as_mut().unwrap().interval = Duration::from_millis(20);
        cfg.tdoa.cadence = Duration::from_millis(20);
        let windows = ms(&[250, 3, 41, 250]);
        let reports = pin_against_serial_pump(
            "many rounds",
            &cfg,
            &ap_grid(9, 20.0),
            40,
            no_joins,
            &windows,
        );
        assert!(reports[3].sync_rounds >= 12);
        assert!(blast_at_a_round(&reports, Duration::from_millis(20)));
        // A 1 s cadence staggers 12 first blasts 98 ms apart from 0, so
        // only the first 10 ms window fires one; the walkers still move
        // 6 m a window, and every client hands off in its turn of the
        // client pass as the serial pump does at the boundary.
        let mut cfg = tdoa_cfg();
        cfg.tdoa.cadence = Duration::from_millis(1000);
        let reports = pin_against_serial_pump(
            "no blast due",
            &cfg,
            &ap_grid(9, 20.0),
            12,
            no_joins,
            &ms(&[10, 10, 10, 10]),
        );
        let blasts: Vec<usize> = reports.iter().map(|r| r.tdoa_outcomes.len()).collect();
        assert_eq!(blasts, [1, 0, 0, 0]);
        assert!(reports[1..].iter().any(|r| r.handoffs > 0));
    }

    #[test]
    fn client_pass_matches_serial_pump_without_sync_or_anchors() {
        let anchors = |reports: &[FleetWindowReport]| {
            let mut n: Vec<usize> = reports
                .iter()
                .flat_map(|r| r.tdoa_outcomes.iter().map(|o| o.n_anchors))
                .collect();
            n.sort_unstable();
            n.dedup();
            n
        };
        let mut cfg = tdoa_cfg();
        cfg.clock = None;
        let reports = pin_against_serial_pump(
            "sync off",
            &cfg,
            &ap_grid(4, 20.0),
            12,
            no_joins,
            &ms(&[90, 45]),
        );
        assert!(reports.iter().all(|r| r.sync_rounds == 0 && r.fixes() == 0));
        // A 24 m range leaves clients between APs on a 20 m grid with
        // too few listeners; a cap above the AP count books nothing.
        let mut cfg = tdoa_cfg();
        cfg.tdoa.max_range_m = 24.0;
        let reports = pin_against_serial_pump(
            "short range",
            &cfg,
            &ap_grid(9, 20.0),
            40,
            no_joins,
            &ms(&[120, 77]),
        );
        let n = anchors(&reports);
        assert!(n.len() > 2 && n[0] == 0 && n[1] == 3, "{n:?}");
        let mut cfg = tdoa_cfg();
        cfg.tdoa.min_anchors = 10;
        let reports = pin_against_serial_pump(
            "no anchors",
            &cfg,
            &ap_grid(9, 20.0),
            12,
            no_joins,
            &ms(&[120, 77]),
        );
        assert_eq!(anchors(&reports), [0]);
    }

    #[test]
    fn client_pass_matches_serial_pump_with_late_joiners_on_ties() {
        // Before windows 2 to 4 a client joins at an odd clock, picked so
        // its blasts land on an older client's instants (on client 0's
        // 25 ms grid, on the 100 ms rounds too). Client 31 stands at a
        // non-finite position, so no AP hears its blasts.
        fn tie_joins(w: usize) -> usize {
            usize::from((2..=4).contains(&w))
        }
        let cfg = tdoa_cfg();
        let cadence = cfg.tdoa.cadence.as_nanos();
        // Windows 1 to 3 end where the client joining after them, 30 to
        // 32, first blasts on an instant of client 0, 7 or 14.
        let mut windows = ms(&[41]);
        let mut clock = 41_000_000u64;
        let mut next: Vec<u64> = (0..30)
            .map(|i| first_blast_phase(i, cfg.tdoa.cadence).as_nanos())
            .collect();
        for w in 1..=3 {
            let (joiner, older) = (29 + w, (w - 1) * 7);
            let phase = first_blast_phase(joiner, cfg.tdoa.cadence).as_nanos();
            // Pick the next window's end `e` (> clock + 1 ms) with
            // `e + phase ≡ next[older] (mod cadence)`.
            let target = next[older] % cadence;
            let lo = clock + 1_000_000;
            let e = lo + (target + 2 * cadence - (lo + phase) % cadence) % cadence;
            windows.push(Duration::from_nanos(e - clock));
            clock = e;
            next.push(e + phase);
            assert_eq!((e + phase) % cadence, next[older] % cadence);
        }
        windows.extend(ms(&[100, 250]));
        let reports = pin_against_serial_pump(
            "late joiners",
            &cfg,
            &ap_grid(9, 20.0),
            30,
            tie_joins,
            &windows,
        );
        assert_eq!(reports.last().unwrap().n_clients, 33);
        assert!(joiner_ties_an_older_client(&reports, 30));
        assert!(blast_at_a_round(&reports[2..], Duration::from_millis(100)));
    }

    #[test]
    fn client_pass_matches_serial_pump_in_round_trip_mode() {
        let mut cfg = FleetConfig::position(TrackerConfig::default(), FleetRangingMode::RoundTrip);
        cfg.chronos = quick_chronos();
        let reports = pin_against_serial_pump(
            "round trip",
            &cfg,
            &ap_grid(4, 20.0),
            3,
            no_joins,
            &ms(&[130, 95]),
        );
        let rounds: Vec<usize> = reports.iter().map(|r| r.sync_rounds).collect();
        assert_eq!(rounds, [2, 1]);
        assert!(reports[1]
            .shard_reports
            .iter()
            .any(|r| !r.outcomes.is_empty()));
    }

    #[test]
    fn client_pass_matches_serial_pump_over_more_than_64_aps() {
        // 70 APs 5 m apart: hearing sets take two words per blast, and
        // APs 64 to 69 stand among the walkers.
        let aps = ap_grid(70, 5.0);
        assert!(aps[64..].iter().all(|a| a.x <= 40.0 && a.y <= 40.0));
        let cfg = tdoa_cfg();
        let reports = pin_against_serial_pump("70 APs", &cfg, &aps, 20, no_joins, &ms(&[60, 45]));
        let booked_high =
            |r: &FleetWindowReport| r.shard_reports[64..].iter().any(|s| s.utilization > 0.0);
        assert!(reports.iter().all(booked_high), "APs past 64 book blasts");
    }
}
