//! Shared, immutable estimation plans — build the hot numeric machinery
//! once, reuse it across every client and sweep.
//!
//! Profiling the estimator shows that a large slice of each estimate
//! ([`crate::pipeline::SweepPipeline::estimate_from_products`]) is spent
//! on work that depends only on the *band plan and grid*, not on the
//! measurements:
//!
//! * materializing the NDFT matrix (`n_bands x n_taus` complex
//!   exponentials, [`crate::ndft::Ndft::new`]);
//! * the power iteration estimating its spectral norm, which sets the
//!   proximal-gradient step size ([`crate::ndft::Ndft::op_norm`], 40
//!   forward+adjoint passes);
//! * the grating-lobe offset table used by first-peak ghost vetoing
//!   ([`crate::profile::strong_lobe_offsets`], a dense scan of the plan's
//!   self-response);
//! * the cubic-spline factorization over the subcarrier layout used to
//!   interpolate the zero-subcarrier
//!   ([`chronos_math::spline::SplinePlan`]).
//!
//! A single client repeats this work for every antenna of every sweep; a
//! ranging service with hundreds of clients on the *same* Wi-Fi band plan
//! repeats it hundreds of times per sweep round. [`PlanCache`] memoizes
//! all of it behind `Arc`s so N clients and M sweeps share one copy, and
//! [`NdftPlan`] packages the per-(bands, grid) precomputation. Cached and
//! uncached estimation run the *same* floating-point operations — the
//! cache changes cost, never results (covered by equivalence tests).
//!
//! Concurrency: the cache is a read-mostly table guarded by `RwLock`s.
//! After the first sweep warms it, all lookups take the read path, so
//! parallel per-client inversions (see `service`) contend only on an
//! `RwLock` read acquisition.

use crate::ndft::{Ndft, TauGrid};
use chronos_math::spline::{SplineError, SplinePlan};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Everything precomputable about inverting one band group on one grid.
///
/// Immutable after construction; share it with `Arc` (usually via
/// [`PlanCache::ndft_plan`]).
#[derive(Debug, Clone)]
pub struct NdftPlan {
    /// The materialized forward/adjoint operator.
    pub ndft: Ndft,
    /// Spectral norm `||F||_2` from 40 power iterations, which sets the
    /// step size of [`crate::ista::solve_planned_into`].
    pub op_norm: f64,
    /// Strong grating-lobe offsets of the band plan's point response
    /// (threshold 0.5, scanned to the grid's span), consumed by the
    /// first-peak ghost veto in [`crate::tof`].
    pub lobe_offsets: Vec<f64>,
}

/// Power-iteration count of a plan's operator norm. The norm sets the
/// solver's step size, so changing the count changes every answer.
const OP_NORM_ITERS: usize = 40;

/// Self-response threshold above which an offset counts as a strong lobe.
pub(crate) const LOBE_THRESHOLD: f64 = 0.5;

impl NdftPlan {
    /// Builds the full plan for a band group: operator, norm, lobe table.
    ///
    /// `lobe_span_ns` is how far to scan for grating lobes — the
    /// estimator passes its configured grid span, which can be slightly
    /// less than the grid's rounded-up extent (`len * step`).
    pub fn new(freqs_hz: &[f64], grid: TauGrid, lobe_span_ns: f64) -> Self {
        let ndft = Ndft::new(freqs_hz, grid);
        let op_norm = ndft.op_norm(OP_NORM_ITERS);
        let lobe_offsets =
            crate::profile::strong_lobe_offsets(freqs_hz, LOBE_THRESHOLD, lobe_span_ns);
        NdftPlan {
            ndft,
            op_norm,
            lobe_offsets,
        }
    }
}

/// Cache keys quantize `f64`s by bit pattern: two plans are "the same"
/// exactly when every frequency and grid parameter is bit-identical,
/// which is the right notion for deterministic simulation configs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct NdftKey {
    freq_bits: Vec<u64>,
    grid_start: u64,
    grid_step: u64,
    grid_len: usize,
    lobe_span: u64,
}

impl NdftKey {
    fn new(freqs_hz: &[f64], grid: TauGrid, lobe_span_ns: f64) -> Self {
        NdftKey {
            freq_bits: freqs_hz.iter().map(|f| f.to_bits()).collect(),
            grid_start: grid.start_ns.to_bits(),
            grid_step: grid.step_ns.to_bits(),
            grid_len: grid.len,
            lobe_span: lobe_span_ns.to_bits(),
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct SplineKey {
    x_bits: Vec<u64>,
}

/// Cache hit/miss/occupancy counters (a point-in-time snapshot).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to build a plan.
    pub misses: u64,
    /// Resident NDFT plans.
    pub ndft_entries: usize,
    /// Resident spline plans.
    pub spline_entries: usize,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]` (0 when the cache was never queried).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A shared, thread-safe cache of immutable estimation plans.
///
/// One `PlanCache` (behind an `Arc`) serves any number of
/// [`crate::session::ChronosSession`]s and the multi-client
/// [`crate::engine::ServiceEngine`]: the first estimate on a given
/// (band plan, grid) pays for plan construction, every later estimate —
/// any client, any sweep, any thread — reuses it.
///
/// ```
/// use chronos_core::ndft::TauGrid;
/// use chronos_core::plan::PlanCache;
/// use std::sync::Arc;
///
/// let cache = Arc::new(PlanCache::new());
/// let freqs = [5.18e9, 5.2e9, 5.24e9, 5.28e9, 5.32e9];
/// let grid = TauGrid::span(200.0, 0.25);
///
/// // First lookup builds the plan...
/// let a = cache.ndft_plan(&freqs, grid, 200.0);
/// // ...the second is answered from the cache with the same object.
/// let b = cache.ndft_plan(&freqs, grid, 200.0);
/// assert!(Arc::ptr_eq(&a, &b));
///
/// let stats = cache.stats();
/// assert_eq!((stats.hits, stats.misses), (1, 1));
/// assert!(a.op_norm > 0.0);
/// ```
#[derive(Debug, Default)]
pub struct PlanCache {
    ndft: RwLock<HashMap<NdftKey, Arc<NdftPlan>>>,
    spline: RwLock<HashMap<SplineKey, Arc<SplinePlan>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the shared NDFT plan for `(freqs_hz, grid, lobe_span_ns)`,
    /// building it on first use. `lobe_span_ns` bounds the grating-lobe
    /// scan (the estimator passes its configured grid span).
    pub fn ndft_plan(&self, freqs_hz: &[f64], grid: TauGrid, lobe_span_ns: f64) -> Arc<NdftPlan> {
        let key = NdftKey::new(freqs_hz, grid, lobe_span_ns);
        if let Some(plan) = self.ndft.read().expect("plan cache poisoned").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(plan);
        }
        // Double-checked: build under the write lock so concurrent cold
        // misses on the same key do exactly one construction (a cold
        // stampede of N workers would otherwise throw away N-1 expensive
        // power iterations). Other keys briefly queue behind the build —
        // acceptable, since each key is built once per process.
        let mut table = self.ndft.write().expect("plan cache poisoned");
        if let Some(plan) = table.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(plan);
        }
        let built = Arc::new(NdftPlan::new(freqs_hz, grid, lobe_span_ns));
        table.insert(key, Arc::clone(&built));
        self.misses.fetch_add(1, Ordering::Relaxed);
        built
    }

    /// Returns the shared spline plan for the knot abscissae `xs`
    /// (typically a subcarrier layout), building it on first use.
    pub fn spline_plan(&self, xs: &[f64]) -> Result<Arc<SplinePlan>, SplineError> {
        let key = SplineKey {
            x_bits: xs.iter().map(|x| x.to_bits()).collect(),
        };
        if let Some(plan) = self.spline.read().expect("plan cache poisoned").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(plan));
        }
        let mut table = self.spline.write().expect("plan cache poisoned");
        if let Some(plan) = table.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(plan));
        }
        let built = Arc::new(SplinePlan::new(xs)?);
        table.insert(key, Arc::clone(&built));
        self.misses.fetch_add(1, Ordering::Relaxed);
        Ok(built)
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            ndft_entries: self.ndft.read().expect("plan cache poisoned").len(),
            spline_entries: self.spline.read().expect("plan cache poisoned").len(),
        }
    }

    /// Drops every cached plan (counters are kept).
    pub fn clear(&self) {
        self.ndft.write().expect("plan cache poisoned").clear();
        self.spline.write().expect("plan cache poisoned").clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronos_rf::bands::band_plan_5ghz;

    fn freqs() -> Vec<f64> {
        band_plan_5ghz().iter().map(|b| b.center_hz).collect()
    }

    #[test]
    fn ndft_plan_matches_per_call_computation() {
        let f = freqs();
        let grid = TauGrid::span(200.0, 0.25);
        let plan = NdftPlan::new(&f, grid, 200.0);
        let direct = Ndft::new(&f, grid);
        assert_eq!(
            plan.op_norm.to_bits(),
            direct.op_norm(OP_NORM_ITERS).to_bits()
        );
        let lobes = crate::profile::strong_lobe_offsets(&f, LOBE_THRESHOLD, 200.0);
        assert_eq!(plan.lobe_offsets, lobes);
    }

    #[test]
    fn cache_deduplicates_and_counts() {
        let cache = PlanCache::new();
        let f = freqs();
        let grid = TauGrid::span(100.0, 0.5);
        let a = cache.ndft_plan(&f, grid, 100.0);
        let b = cache.ndft_plan(&f, grid, 100.0);
        assert!(Arc::ptr_eq(&a, &b));
        // A different grid is a different plan.
        let c = cache.ndft_plan(&f, TauGrid::span(100.0, 0.25), 100.0);
        assert!(!Arc::ptr_eq(&a, &c));
        let s = cache.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        assert_eq!(s.ndft_entries, 2);
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn spline_plans_shared_and_validated() {
        let cache = PlanCache::new();
        let xs: Vec<f64> = (-28i32..=28)
            .filter(|k| *k != 0)
            .map(|k| k as f64)
            .collect();
        let a = cache.spline_plan(&xs).unwrap();
        let b = cache.spline_plan(&xs).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(cache.spline_plan(&[1.0]).is_err());
        assert_eq!(cache.stats().spline_entries, 1);
    }

    #[test]
    fn concurrent_lookups_converge_to_one_plan() {
        let cache = Arc::new(PlanCache::new());
        let f = freqs();
        let grid = TauGrid::span(50.0, 0.5);
        let plans: Vec<Arc<NdftPlan>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    let f = f.clone();
                    scope.spawn(move || cache.ndft_plan(&f, grid, 50.0))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("thread"))
                .collect()
        });
        // Double-checked locking: exactly one plan is ever built, and
        // every racer holds it.
        let resident = cache.ndft_plan(&f, grid, 50.0);
        for p in &plans {
            assert!(Arc::ptr_eq(p, &resident));
        }
        let stats = cache.stats();
        assert_eq!(stats.ndft_entries, 1);
        assert_eq!(stats.misses, 1, "cold stampede built more than one plan");
    }

    #[test]
    fn hit_rate_zero_lookups_is_zero_not_nan() {
        // A never-queried cache must report 0.0, not 0/0 = NaN.
        let empty = PlanCache::new().stats();
        assert_eq!(empty.hits + empty.misses, 0);
        assert_eq!(empty.hit_rate(), 0.0);
        assert!(!empty.hit_rate().is_nan());
    }

    #[test]
    fn clear_empties_tables() {
        let cache = PlanCache::new();
        cache.ndft_plan(&freqs(), TauGrid::span(10.0, 1.0), 10.0);
        assert_eq!(cache.stats().ndft_entries, 1);
        cache.clear();
        assert_eq!(cache.stats().ndft_entries, 0);
    }
}
