//! Estimator configuration, plus the ingestion front-end policy
//! ([`IngestionConfig`]) shared by service and engine.

use chronos_link::admission::AdmissionConfig;
use chronos_link::time::Duration;

/// Policy of the overload-safe ingestion front-end (see
/// `docs/INGESTION.md`).
///
/// When set on [`crate::service::ServiceConfig::ingestion`], sweep-due
/// events stop booking the [`chronos_link::arbiter::MediumArbiter`]
/// directly and instead pass through a bounded
/// [`chronos_link::admission::AdmissionQueue`]: requests are classed
/// (ACQUIRE > TRACK > BACKGROUND), queued within per-class and global
/// depth bounds, and drained in priority order only while the arbiter's
/// booking horizon stays within [`IngestionConfig::backlog_limit`].
/// Under pressure the engine degrades deliberately — the shedding
/// ladder stretches TRACK cadence first, drops BACKGROUND next, and
/// rejects ACQUIRE only when nothing else is left to give.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IngestionConfig {
    /// Depth bounds of the admission queue (per class and global).
    pub queue: AdmissionConfig,
    /// How far ahead of "now" the arbiter may be booked before the
    /// engine stops draining the queue. This is the knob that separates
    /// "bounded queue" from "unbounded promise backlog": without it,
    /// every admitted request books medium time arbitrarily far into
    /// the future and the queue never fills. Sized in units of sweep
    /// airtime (~84 ms full / ~30 ms subset): 250 ms keeps roughly a
    /// handful of sweeps in flight per concurrency lane.
    pub backlog_limit: Duration,
    /// Ceiling on the TRACK cadence stretch factor. The engine scales
    /// its 2 ms TRACK gap by `1 + fill * (track_stretch_max - 1)` where
    /// `fill` is the queue's global occupancy fraction, so a full queue
    /// spaces TRACK sweeps at `track_stretch_max *` that gap. The
    /// ladder's "TRACK slack is exhausted" point.
    pub track_stretch_max: f64,
    /// Delay before a deferred or shed request is offered again. Short
    /// enough that freed capacity is reclaimed promptly, long enough
    /// that a saturated queue is not hammered every event-loop instant.
    pub retry_gap: Duration,
}

impl Default for IngestionConfig {
    fn default() -> Self {
        IngestionConfig {
            queue: AdmissionConfig::default(),
            backlog_limit: Duration::from_millis(250),
            track_stretch_max: 8.0,
            retry_gap: Duration::from_millis(25),
        }
    }
}

/// How the estimator treats the Intel 5300's 2.4 GHz phase quirk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuirkMode {
    /// No firmware quirk: all 35 bands feed one inversion on the squared
    /// (reciprocity-product) channels. Used with idealized radios and in
    /// ablations.
    Ideal,
    /// Intel 5300 behaviour: 2.4 GHz CSI phase arrives modulo pi/2. The
    /// 5 GHz group (24 bands) runs on the reciprocity product (profile
    /// peaks at 2x delay); the 2.4 GHz group runs on the product's fourth
    /// power (peaks at 8x delay) and serves as a coarse cross-check.
    Intel5300,
}

/// Configuration of the time-of-flight estimator.
#[derive(Debug, Clone)]
pub struct ChronosConfig {
    /// Quirk handling mode.
    pub mode: QuirkMode,
    /// Inverse-NDFT grid step in the *profile* domain, nanoseconds.
    /// The profile domain carries scaled delays (2x or 8x the ToF), so the
    /// effective ToF resolution is finer by the group's delay scale.
    pub grid_step_ns: f64,
    /// Extent of the profile-domain grid, nanoseconds. 200 ns matches the
    /// paper's unambiguous range over 5 MHz-rastered Wi-Fi centers.
    pub grid_span_ns: f64,
    /// Sparsity weight, relative to `max |F* h|` (the smallest weight that
    /// zeroes everything). Typical: 0.05–0.3.
    pub alpha_rel: f64,
    /// Maximum proximal-gradient iterations.
    pub max_iters: usize,
    /// Convergence threshold on the iterate change (paper's epsilon).
    pub epsilon: f64,
    /// Use FISTA acceleration instead of plain ISTA (extension; the paper
    /// uses plain proximal gradient).
    pub accelerated: bool,
    /// Refit support amplitudes by least squares after the sparse solve
    /// (LASSO debiasing). Removes shrinkage bias so weak direct paths keep
    /// their physical dominance in the profile.
    pub debias: bool,
    /// Calibration constant subtracted from the raw (descaled) delay
    /// estimate, nanoseconds. Captures hardware chain delays and the fixed
    /// part of the protocol turnaround-CFO coupling (paper §7 obs. 2).
    pub calibration_ns: f64,
}

impl Default for ChronosConfig {
    fn default() -> Self {
        ChronosConfig {
            mode: QuirkMode::Intel5300,
            grid_step_ns: 0.25,
            grid_span_ns: 200.0,
            alpha_rel: 0.12,
            max_iters: 400,
            epsilon: 1e-6,
            accelerated: true,
            debias: true,
            calibration_ns: 0.0,
        }
    }
}

impl ChronosConfig {
    /// An idealized configuration for unit tests and genie ablations.
    pub fn ideal() -> Self {
        ChronosConfig {
            mode: QuirkMode::Ideal,
            ..Default::default()
        }
    }

    /// Number of grid points of the profile-domain grid.
    pub fn grid_len(&self) -> usize {
        (self.grid_span_ns / self.grid_step_ns).ceil() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_intel_mode() {
        let c = ChronosConfig::default();
        assert_eq!(c.mode, QuirkMode::Intel5300);
        assert!(c.alpha_rel > 0.0 && c.alpha_rel < 1.0);
    }

    #[test]
    fn grid_len_consistent() {
        let c = ChronosConfig {
            grid_step_ns: 0.5,
            grid_span_ns: 100.0,
            ..Default::default()
        };
        assert_eq!(c.grid_len(), 200);
    }

    #[test]
    fn ideal_constructor() {
        assert_eq!(ChronosConfig::ideal().mode, QuirkMode::Ideal);
    }

    #[test]
    fn ingestion_defaults_are_sane() {
        let c = IngestionConfig::default();
        assert!(c.track_stretch_max >= 1.0);
        assert!(c.backlog_limit > Duration::ZERO);
        assert!(c.retry_gap > Duration::ZERO);
        // Per-class depths must sum above the global bound so the global
        // bound binds first under mixed load.
        let q = c.queue;
        assert!(q.acquire_depth + q.track_depth + q.background_depth > q.global_depth);
    }
}
