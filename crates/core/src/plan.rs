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
//! [`NdftPlan`] packages the per-(bands, grid) precomputation. Every
//! estimator reads its plans from a cache, private or shared; either way
//! each plan is built by the same constructor, so sharing changes cost,
//! never results (covered by equivalence tests). A warm hit allocates
//! nothing.
//!
//! Concurrency: the cache is a read-mostly table guarded by `RwLock`s.
//! After the first sweep warms it, all lookups take the read path, so
//! parallel per-client inversions (see `service`) contend only on an
//! `RwLock` read acquisition.

use crate::ndft::{Ndft, TauGrid};
use chronos_math::spline::{SplineError, SplinePlan};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::convert::Infallible;
use std::hash::{Hash, Hasher};
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
    /// How far the lobe scan reached, ns: the span the plan was built
    /// with, which the cache compares on lookup.
    pub lobe_span_ns: f64,
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
            lobe_span_ns,
        }
    }
}

/// Whether two slices hold the same bit patterns: two plans are "the
/// same" exactly when every frequency, knot and grid parameter is
/// bit-identical, which is the right notion for deterministic
/// simulation configs.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A hash of the bit patterns of `parts`.
fn hash_bits(parts: &[&[f64]]) -> u64 {
    let mut state = DefaultHasher::new();
    for part in parts {
        part.len().hash(&mut state);
        part.iter().for_each(|v| v.to_bits().hash(&mut state));
    }
    state.finish()
}

/// One plan table: plans bucketed by the hash of their inputs' bit
/// patterns (a bucket holds more than one plan only on a collision).
type Table<P> = RwLock<HashMap<u64, Vec<Arc<P>>>>;

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
    ndft: Table<NdftPlan>,
    spline: Table<SplinePlan>,
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
        let scalars = [grid.start_ns, grid.step_ns, grid.len as f64, lobe_span_ns];
        let matches = |plan: &NdftPlan| {
            let g = plan.ndft.grid();
            same_bits(
                &[g.start_ns, g.step_ns, g.len as f64, plan.lobe_span_ns],
                &scalars,
            ) && same_bits(plan.ndft.freqs_hz(), freqs_hz)
        };
        let build = || Ok::<_, Infallible>(NdftPlan::new(freqs_hz, grid, lobe_span_ns));
        let Ok(plan) = self.lookup(&self.ndft, hash_bits(&[freqs_hz, &scalars]), matches, build);
        plan
    }

    /// Returns the shared spline plan for the knot abscissae `xs`
    /// (typically a subcarrier layout), building it on first use.
    pub fn spline_plan(&self, xs: &[f64]) -> Result<Arc<SplinePlan>, SplineError> {
        let matches = |plan: &SplinePlan| same_bits(plan.xs(), xs);
        let build = || SplinePlan::new(xs);
        self.lookup(&self.spline, hash_bits(&[xs]), matches, build)
    }

    /// The one lookup body of both tables: the plan in `table` under
    /// `hash` that `matches` the inputs, or a new one from `build`.
    ///
    /// Double-checked: a miss on the read path builds under the write
    /// lock, so concurrent cold misses on the same inputs do exactly one
    /// construction (a cold stampede of N workers would otherwise throw
    /// away N-1 expensive power iterations). Other keys briefly queue
    /// behind the build — acceptable, since each key is built once per
    /// cache. A failed build is neither a hit nor a miss.
    fn lookup<P, E>(
        &self,
        table: &Table<P>,
        hash: u64,
        matches: impl Fn(&P) -> bool,
        build: impl FnOnce() -> Result<P, E>,
    ) -> Result<Arc<P>, E> {
        let find = |t: &HashMap<u64, Vec<Arc<P>>>| {
            t.get(&hash)?.iter().find(|p| matches(p)).map(Arc::clone)
        };
        if let Some(plan) = find(&table.read().expect("plan cache poisoned")) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(plan);
        }
        let mut t = table.write().expect("plan cache poisoned");
        if let Some(plan) = find(&t) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(plan);
        }
        let built = Arc::new(build()?);
        t.entry(hash).or_default().push(Arc::clone(&built));
        self.misses.fetch_add(1, Ordering::Relaxed);
        Ok(built)
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            ndft_entries: entries(&self.ndft),
            spline_entries: entries(&self.spline),
        }
    }

    /// Drops every cached plan (counters are kept).
    pub fn clear(&self) {
        self.ndft.write().expect("plan cache poisoned").clear();
        self.spline.write().expect("plan cache poisoned").clear();
    }
}

/// Resident plans of one table.
fn entries<P>(table: &Table<P>) -> usize {
    let t = table.read().expect("plan cache poisoned");
    t.values().map(Vec::len).sum()
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
        // A different grid is a different plan, and so is a different
        // lobe span or a different band set.
        let c = cache.ndft_plan(&f, TauGrid::span(100.0, 0.25), 100.0);
        assert!(!Arc::ptr_eq(&a, &c));
        let d = cache.ndft_plan(&f, grid, 50.0);
        assert!(!Arc::ptr_eq(&a, &d));
        assert_eq!(d.lobe_span_ns, 50.0);
        let e = cache.ndft_plan(&f[1..], grid, 100.0);
        assert!(!Arc::ptr_eq(&a, &e));
        let s = cache.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 4);
        assert_eq!(s.ndft_entries, 4);
        assert!((s.hit_rate() - 1.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn colliding_hashes_keep_plans_apart() {
        // Two knot sets forced into one bucket: every lookup compares its
        // inputs in full, so each set gets its own plan.
        let cache = PlanCache::new();
        let get = |xs: &[f64]| {
            let matches = |plan: &SplinePlan| same_bits(plan.xs(), xs);
            let plan = cache.lookup(&cache.spline, 7, matches, || SplinePlan::new(xs));
            plan.unwrap()
        };
        let (a, b) = (get(&[0.0, 1.0, 2.0]), get(&[0.0, 1.0, 3.0]));
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(Arc::ptr_eq(&get(&[0.0, 1.0, 2.0]), &a));
        assert!(Arc::ptr_eq(&get(&[0.0, 1.0, 3.0]), &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.spline_entries), (2, 2, 2));
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
