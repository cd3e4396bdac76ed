//! # chronos-core
//!
//! The paper's contribution: sub-nanosecond time-of-flight on commodity
//! Wi-Fi, rebuilt end to end — plus the service layer that scales it
//! from one device pair to a pool of concurrently ranged clients.
//!
//! ## The pipeline, in measurement order
//!
//! [`phase`] cleans each CSI capture and interpolates the channel at the
//! **zero-subcarrier** — the one OFDM frequency Wi-Fi never transmits,
//! and the only one whose phase is untouched by packet-detection delay
//! (paper §5, footnote 3). A natural cubic spline over the 30 measured
//! subcarriers is read off at zero; the spline's factorization is
//! reusable across captures via [`chronos_math::spline::SplinePlan`].
//!
//! [`reciprocity`] multiplies forward and reverse zero-subcarrier
//! channels from one packet exchange. Carrier frequency offset rotates
//! the two captures in *opposite* directions, so the product cancels it
//! exactly (paper §7, Eq. 11–13), leaving the squared channel; exchanges
//! within a band dwell are averaged.
//!
//! [`quirk`] absorbs the Intel 5300's 2.4 GHz firmware bug — phase
//! reported modulo π/2 (paper §11, footnote 5) — by raising 2.4 GHz
//! products to the fourth power, and keeps band groups whose delay
//! scales now differ (2× vs 8×) apart for separate inversion.
//!
//! [`ndft`] + [`ista`] recover multipath: measurements at the scattered
//! swept band centers are a **non-uniform DFT** of the delay-domain
//! profile, inverted under an L1 sparsity prior with the paper's
//! proximal-gradient Algorithm 1 (§6.2), plus FISTA acceleration and
//! LASSO debiasing as documented extensions.
//!
//! [`profile`] holds the recovered multipath profile and refines the
//! time-of-flight peak below the grid step by CLEANed matched-filter
//! maximization. The direct path is the **first dominant peak**, not the
//! strongest (§6, observation 1).
//!
//! [`tof`] runs the per-group chain: it picks that first peak with its
//! one first-path rule, which vetoes sidelobe and grating ghosts, then
//! fuses the per-group candidates (the widest aperture wins; the coarse
//! 2.4 GHz group cross-checks), undoes delay scaling, and applies the
//! one-time calibration constant (§7, observation 2).
//!
//! [`ranging`] + [`localization`] turn per-antenna ToFs into distances
//! and intersect the per-antenna circles into a position (§8).
//!
//! [`session`] is the per-pair driver: one [`ChronosSession`] runs the
//! link-layer band sweep, synthesizes CSI at the protocol's exact
//! capture instants, and estimates per receive antenna (§4, §11).
//!
//! ## Scaling beyond the paper
//!
//! [`plan`] extracts everything an estimate computes that depends only
//! on the band plan and grid — NDFT operators, spectral norms, lobe
//! tables, spline factorizations — into immutable plans served by a
//! thread-safe [`PlanCache`], the only way plans reach the estimator.
//! Each estimator or session gets a private cache unless it is handed a
//! shared one; estimates are bit-identical either way, and sharing only
//! removes the redundant construction.
//!
//! [`service`] is the multi-client layer's policy and outcome types:
//! one [`ServiceEngine`] pools sessions over one shared `PlanCache`,
//! admits their sweeps through the airtime arbiter in
//! [`chronos_link::arbiter`] so N hoppers contend realistically, and
//! runs per-client inversion on scoped worker threads with
//! schedule-independent results.
//!
//! [`engine`] holds that engine: a discrete-event [`ServiceEngine`] over
//! virtual time in which every client re-sweeps at its own
//! tracker-derived cadence (`SweepDue` → arbiter admission → lane
//! execution → `SweepComplete` → tracker fusion → reschedule), with
//! client join/leave as first-class events.
//! [`ServiceEngine::run_until`] runs it continuously to a deadline;
//! [`ServiceEngine::run_epoch`] plays one legacy lock-step round. Both
//! return a [`WindowReport`] (see `docs/SCHEDULING.md`).
//!
//! [`tracker`] closes the loop *across* epochs: a per-client
//! constant-velocity Kalman filter fuses each fix, and one mode machine
//! ([`tracker::Tracker`]) switches clients between full ACQUIRE sweeps
//! and cheap TRACK-mode band-subset sweeps ([`chronos_rf::subset`]),
//! re-acquiring on innovation spikes or repeated misses. The machine is
//! generic over its filter ([`tracker::TrackFilter`]): a
//! [`tracker::ClientTracker`] tracks a distance
//! ([`tracker::DistanceFilter`]), a [`tracker::PositionTracker`] a 2-D
//! position ([`tracker::PositionFilter`]). The service schedules
//! per-client plans from tracker state and reports the airtime saved
//! (see `docs/TRACKING.md`).
//!
//! [`pipeline`] is the zero-allocation hot path underneath all of it: a
//! per-worker scratch arena (ISTA iterates, NDFT images, debias and
//! Gauss–Newton workspaces, peak and group buffers) wrapped by a
//! [`pipeline::SweepPipeline`]. Its two estimation calls are the public
//! way to estimate: [`SweepPipeline::estimate_from_products`] returns
//! the full [`TofEstimate`] with its profiles, and
//! [`SweepPipeline::estimate_fix`] the compact [`TofFix`] with zero heap
//! allocations once warm. A warm pipeline stays bitwise identical to a
//! fresh one (see `docs/PIPELINE.md`).
//!
//! ## Support modules
//!
//! [`crt`] implements the Chinese-remainder view of §4 (the Fig. 3
//! construction) used for single-path fast paths, cross-checks and
//! tests. [`delay`] estimates per-packet detection delay by the §5 slope
//! method for the Fig. 7(c) analysis. [`config`] carries the estimator's
//! knobs with paper-matched defaults, and [`error`] the pipeline's
//! failure taxonomy.

#![forbid(unsafe_code)]

pub mod config;
pub mod crt;
pub mod delay;
pub mod engine;
pub mod error;
pub mod fleet;
pub mod ista;
pub mod localization;
pub mod ndft;
pub mod phase;
pub mod pipeline;
pub mod plan;
pub mod profile;
pub mod quirk;
pub mod ranging;
pub mod reciprocity;
pub mod runtime;
pub mod service;
pub mod session;
pub mod tof;
pub mod tracker;

pub use config::{ChronosConfig, IngestionConfig, QuirkMode};
pub use engine::{ServiceEngine, WindowReport};
pub use error::ChronosError;
pub use pipeline::SweepPipeline;
pub use plan::{CacheStats, NdftPlan, PlanCache};
pub use profile::MultipathProfile;
pub use runtime::WorkerRuntime;
pub use service::{QuarantineConfig, ServiceConfig};
pub use session::{ChronosSession, SweepOutput};
pub use tof::{BandSample, TofEstimate, TofEstimator, TofFix};
pub use tracker::{
    AnomalyConfig, AnomalyScore, ClientTracker, DistanceFilter, TrackFilter, TrackMode,
    TrackerConfig,
};
