//! The zero-allocation sweep pipeline: a per-worker scratch arena for the
//! estimation hot path.
//!
//! PR 4's event engine issues sweeps continuously, which made per-sweep
//! allocation the dominant self-inflicted cost of the estimator: every
//! call re-allocated its way through splice → NDFT/ISTA → profile →
//! first-peak → localization (fresh `Vec`s per FISTA iteration, per-call
//! buffers in `tof`/`profile`, a fresh Gauss–Newton workspace per fix).
//! The crate-private `EstimatorScratch` owns every one of those
//! intermediates; a [`SweepPipeline`] wraps the scratch and is allocated
//! **once per engine worker**. Its two estimation calls share one body:
//! [`SweepPipeline::estimate_from_products`] returns the full
//! [`TofEstimate`] and [`SweepPipeline::estimate_fix`] the compact
//! [`TofFix`], which performs **zero heap allocations** once warm
//! (asserted by the counting-allocator tests in `tests/alloc.rs`, which
//! also pin the two calls' scalars bit for bit). A warm pipeline's
//! outputs stay **bitwise identical** to a fresh one's (the golden
//! capture in `tests/engine.rs` and a proptest pin this).
//!
//! The session sweep's CSI synthesis runs on the pipeline too: the
//! crate-private `SweepSlots` hold each receive antenna's path set and one
//! measurement slot per (antenna, band), whose captures are recycled
//! rather than freed, and the splice reuses the scratch's buffers. A warm
//! session sweep therefore allocates only in its link simulation and for
//! the output it returns (`tests/alloc.rs`).
//!
//! The scratch holds no plans: every estimate looks its NDFT and spline
//! plans up in the estimator's [`crate::plan::PlanCache`], and a warm
//! lookup allocates nothing.
//!
//! See `docs/PIPELINE.md` for the scratch lifecycle, the batching story
//! and the exact boundary of the zero-alloc contract.

use crate::error::ChronosError;
use crate::ista::{DebiasScratch, IstaScratch};
use crate::localization::{AntennaRange, LocalizerConfig, LocateScratch, Position};
use crate::phase::SpliceScratch;
use crate::profile::RefineScratch;
use crate::quirk::BandGroupSamples;
use crate::reciprocity::BandProduct;
use crate::session::{ChronosSession, SweepOutput};
use crate::tof::{BandSample, GroupEstimate, GroupFix, TofEstimate, TofEstimator, TofFix};
use chronos_link::sweep::SweepConfig;
use chronos_link::time::Instant;
use chronos_math::peaks::Peak;
use chronos_math::Complex64;
use chronos_rf::csi::{LinkPaths, Measurement};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Working buffers of the first-path selector (`tof::select_first_path`):
/// the CLEANed models, ghost hypotheses, matched-filter residuals and
/// peak lists.
#[derive(Debug, Clone, Default)]
pub(crate) struct SelectScratch {
    /// Forward-image buffer for residual-energy evaluations.
    pub(crate) fit: Vec<Complex64>,
    /// Masked model (candidate neighborhood zeroed).
    pub(crate) model: Vec<Complex64>,
    /// Ghost-source hypothesis model.
    pub(crate) hyp: Vec<Complex64>,
    /// CLEANed measurement residual.
    pub(crate) residual: Vec<Complex64>,
    /// Quiet-zone matched-filter samples.
    pub(crate) quiet: Vec<f64>,
    /// Clustered grating-lobe offsets.
    pub(crate) clusters: Vec<f64>,
    /// Debias output buffer for the model-comparison refits.
    pub(crate) debias_out: Vec<Complex64>,
    /// Peak-finder candidate working storage.
    pub(crate) peak_cands: Vec<Peak>,
    /// All dominant peaks of the profile.
    pub(crate) peaks_all: Vec<Peak>,
    /// Dominant peaks past the physical-prior cutoff.
    pub(crate) peaks: Vec<Peak>,
}

/// Every intermediate buffer of the estimation hot path — unwrap/splice
/// products, NDFT/ISTA iterates, profile magnitudes and peaks,
/// first-path selection models, CLEAN refinement, Gauss–Newton
/// localization workspaces — allocated once and reused across sweeps.
///
/// Buffers grow to the largest problem seen (an ACQUIRE full-plan sweep)
/// and then stop allocating; TRACK-mode subset sweeps always fit inside
/// warm ACQUIRE capacity.
#[derive(Debug, Default)]
pub(crate) struct EstimatorScratch {
    pub(crate) ista: IstaScratch,
    pub(crate) debias: DebiasScratch,
    pub(crate) p_final: Vec<Complex64>,
    pub(crate) mags: Vec<f64>,
    pub(crate) refine: RefineScratch,
    pub(crate) select: SelectScratch,
    pub(crate) groups: Vec<BandGroupSamples>,
    pub(crate) group_pool: Vec<BandGroupSamples>,
    pub(crate) order: Vec<usize>,
    pub(crate) fixes: Vec<GroupFix>,
    pub(crate) profiles: Vec<GroupEstimate>,
    pub(crate) products: Vec<BandProduct>,
    pub(crate) splice: SpliceScratch,
    pub(crate) xs: Vec<f64>,
    pub(crate) locate: LocateScratch,
}

impl EstimatorScratch {
    /// Fresh, empty scratch; buffers grow on first use.
    pub(crate) fn new() -> Self {
        Self::default()
    }
}

/// The session sweep's measurement state, reused sweep after sweep: the
/// path sets of each receive antenna's link, and one measurement slot per
/// (antenna, band) whose captures are recycled rather than freed.
#[derive(Debug, Default)]
pub(crate) struct SweepSlots {
    /// One link per receive antenna; the first `n_rx` are in use.
    pub(crate) links: Vec<LinkPaths>,
    /// Antenna-major `(antenna, band)` slots; the first `n_rx * n_bands`
    /// are in use, and every slot is empty between sweeps.
    slots: Vec<BandSample>,
    /// Emptied measurements, refilled by the next sweep's exchanges.
    pub(crate) spare: Vec<Measurement>,
    /// Exchanges so far per band: the ACK-antenna rotation.
    pub(crate) exchanges: Vec<usize>,
    /// The usable per-antenna ranges handed to localization.
    pub(crate) ranges: Vec<AntennaRange>,
    n_bands: usize,
}

impl SweepSlots {
    /// Empties every slot into the spare pool and sizes the state for
    /// `n_rx` antennas over `n_bands` bands. The pool is reserved once
    /// for all the slots' captures, not grown a slot at a time, so it
    /// allocates at most once, and not at all once the largest sweep
    /// shape has been seen.
    pub(crate) fn reset(&mut self, n_rx: usize, n_bands: usize) {
        let captures = self.slots.iter().map(|s| s.measurements.len()).sum();
        self.spare.reserve(captures);
        for slot in &mut self.slots {
            self.spare.append(&mut slot.measurements);
        }
        if self.slots.len() < n_rx * n_bands {
            self.slots.resize_with(n_rx * n_bands, BandSample::default);
        }
        if self.links.len() < n_rx {
            self.links.resize_with(n_rx, LinkPaths::default);
        }
        self.exchanges.clear();
        self.exchanges.resize(n_bands, 0);
        self.n_bands = n_bands;
    }

    /// Files one exchange's measurement under `(antenna, band)`.
    pub(crate) fn push(&mut self, antenna: usize, band: usize, m: Measurement) {
        self.slots[antenna * self.n_bands + band]
            .measurements
            .push(m);
    }

    /// Antenna `antenna`'s band slots, in plan order (unmeasured bands
    /// are empty).
    pub(crate) fn bands(&self, antenna: usize) -> &[BandSample] {
        &self.slots[antenna * self.n_bands..(antenna + 1) * self.n_bands]
    }
}

/// One admitted sweep, handed to [`SweepPipeline::run_sweep`].
#[derive(Debug)]
pub struct BatchSweep<'a> {
    /// The client session to sweep.
    pub session: &'a ChronosSession,
    /// The (possibly contention-adjusted) link configuration.
    pub sweep_cfg: &'a SweepConfig,
    /// Seed of the sweep's own RNG stream (see the engine's seeding
    /// contract).
    pub rng_seed: u64,
    /// Admitted start instant.
    pub start: Instant,
}

/// A reusable estimation pipeline: one scratch arena driving the full
/// products → ToF → localization path.
///
/// Allocate one per lane (the engine keeps one per thread) and
/// feed it sweeps forever; results are bitwise identical to a fresh
/// pipeline's, and localization to [`crate::localization::locate_all`].
#[derive(Debug, Default)]
pub struct SweepPipeline {
    scratch: EstimatorScratch,
    pub(crate) slots: SweepSlots,
}

impl SweepPipeline {
    /// Creates an empty pipeline; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The allocation-free fix call: products in, a compact [`TofFix`]
    /// out. After warm-up it performs no heap allocations at all (pinned
    /// by `tests/alloc.rs`, for TRACK subsets and full ACQUIRE plans).
    /// Its scalars agree bit for bit with
    /// [`SweepPipeline::estimate_from_products`], which runs the same
    /// body and also returns the profiles. Both calls reject a product
    /// with a non-finite frequency, value or delay scale as
    /// [`ChronosError::BadCapture`].
    pub fn estimate_fix(
        &mut self,
        estimator: &TofEstimator,
        products: &[BandProduct],
    ) -> Result<TofFix, ChronosError> {
        estimator.estimate_scaled(products, &mut self.scratch, false)
    }

    /// The estimator's profile-returning call: products in, a full
    /// [`TofEstimate`] out. Every engine and session sweep estimates
    /// through it once its band samples are spliced into products. The
    /// solver runs allocation-free; only the returned estimate
    /// (per-group profiles included) is freshly allocated.
    pub fn estimate_from_products(
        &mut self,
        estimator: &TofEstimator,
        products: &[BandProduct],
    ) -> Result<TofEstimate, ChronosError> {
        estimate_products(&mut self.scratch, estimator, products)
    }

    /// Estimation for one receive antenna from the band samples the
    /// session sweep synthesized into its slots (splice → products →
    /// inversion), the session sweep's call. Unmeasured bands are
    /// skipped, as [`TofEstimator::products`] skips empty samples.
    pub(crate) fn estimate_antenna(
        &mut self,
        estimator: &TofEstimator,
        antenna: usize,
    ) -> Result<TofEstimate, ChronosError> {
        let scratch = &mut self.scratch;
        let mut products = std::mem::take(&mut scratch.products);
        let combined = estimator.products_into(self.slots.bands(antenna), scratch, &mut products);
        let result = match combined {
            Ok(()) => estimate_products(scratch, estimator, &products),
            Err(e) => Err(e),
        };
        scratch.products = products;
        result
    }

    /// Zero-allocation localization: ranges in, candidates appended to
    /// `out` (cleared first), best residual first.
    pub fn locate_all(
        &mut self,
        ranges: &[AntennaRange],
        cfg: &LocalizerConfig,
        out: &mut Vec<Position>,
    ) -> Result<(), ChronosError> {
        crate::localization::locate_all_into(ranges, cfg, &mut self.scratch.locate, out)
    }

    /// Runs one admitted sweep over this pipeline's scratch — the unit of
    /// work the engine spreads over its lanes with
    /// [`crate::runtime::WorkerRuntime::run`]. Every estimation buffer is
    /// amortized across sweeps; each sweep owns its seeded RNG, so
    /// results are independent of which pipeline (or thread) runs it and
    /// bitwise identical to the same sweep on a fresh pipeline.
    pub fn run_sweep(&mut self, job: &BatchSweep<'_>) -> SweepOutput {
        let mut rng = StdRng::seed_from_u64(job.rng_seed);
        job.session
            .sweep_with_pipeline(job.sweep_cfg, &mut rng, job.start, self)
    }
}

/// [`SweepPipeline::estimate_from_products`] over a scratch: the full
/// estimate, profiles included.
fn estimate_products(
    scratch: &mut EstimatorScratch,
    estimator: &TofEstimator,
    products: &[BandProduct],
) -> Result<TofEstimate, ChronosError> {
    let fix = estimator.estimate_scaled(products, scratch, true)?;
    Ok(TofEstimate {
        tof_ns: fix.tof_ns,
        distance_m: fix.distance_m,
        groups: std::mem::take(&mut scratch.profiles),
        cross_check_ok: fix.cross_check_ok,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronos_rf::bands::default_band;
    use chronos_rf::csi::CsiCapture;
    use chronos_rf::ofdm::SubcarrierLayout;

    fn capture() -> CsiCapture {
        CsiCapture {
            band: default_band(),
            layout: SubcarrierLayout::intel5300(),
            csi: Vec::new(),
            timestamp_s: 0.0,
            truth_detection_delay_ns: 0.0,
        }
    }

    /// Files three exchanges per band on each of `n_rx` antennas, taking
    /// each measurement from the spare pool first, as a sweep does.
    fn fill(slots: &mut SweepSlots, n_rx: usize, n_bands: usize) {
        for antenna in 0..n_rx {
            for band in 0..n_bands {
                for _ in 0..3 {
                    let m = slots.spare.pop().unwrap_or_else(|| Measurement {
                        tx_antenna: 0,
                        rx_antenna: antenna,
                        forward: capture(),
                        reverse: capture(),
                        truth_tof_ns: 0.0,
                        truth_los: true,
                    });
                    slots.push(antenna, band, m);
                }
            }
        }
    }

    #[test]
    fn spare_pool_is_reserved_once_and_reused() {
        let (n_rx, n_bands) = (3, 35);
        let mut slots = SweepSlots::default();
        slots.reset(n_rx, n_bands);
        fill(&mut slots, n_rx, n_bands);
        // The second reset pools the first sweep's 315 captures in one
        // reservation.
        slots.reset(n_rx, n_bands);
        assert_eq!(slots.spare.len(), 3 * n_rx * n_bands);
        let pool = (slots.spare.as_ptr(), slots.spare.capacity());
        assert_eq!(pool.1, slots.spare.len(), "reserved exactly once");
        fill(&mut slots, n_rx, n_bands);
        assert!(slots.spare.is_empty());
        // The third reset pools as many into the same buffer.
        slots.reset(n_rx, n_bands);
        assert_eq!(slots.spare.len(), 3 * n_rx * n_bands);
        assert_eq!((slots.spare.as_ptr(), slots.spare.capacity()), pool);
    }
}
