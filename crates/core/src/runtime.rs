//! One level of host parallelism: [`WorkerRuntime::run`] spreads a batch
//! of items over caller-owned lanes on scoped threads.
//!
//! The calling thread is lane 0; up to [`WorkerRuntime::workers`]
//! `std::thread::scope` threads take the other lanes for the length of
//! one batch. Lanes pull items in order from one `Mutex`-guarded cursor
//! that also hands out each item's output slot, so results come back in
//! item order whichever lane ran what. Each lane is state the caller
//! keeps between batches — the engine passes its `SweepPipeline`s — so
//! scratch stays warm without a persistent pool.
//!
//! Each run is exactly one level deep: a `ServiceEngine` spreads its
//! same-instant sweeps; a `FleetEngine` runs two batches per window,
//! its TDoA client pass (each client firing and solving its own
//! blasts) and then its shard windows, and each shard runs its own
//! sweeps inline. No item waits on
//! another batch, so there is no queue, no nesting and nothing to
//! deadlock.
//!
//! See `docs/SCHEDULING.md` for how the engine and the fleet use it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// A hook letting the bench harness observe per-thread allocation
/// deltas around each counted item (see `chronos-bench/src/alloc_count.rs`).
/// Returns the calling thread's allocation counter.
pub type AllocProbe = fn() -> u64;

static ALLOC_PROBE: OnceLock<AllocProbe> = OnceLock::new();

/// Installs the thread-local allocation probe (first caller wins). The
/// bench harness points this at its counting allocator so
/// [`WorkerRuntime::worker_allocations`] reports true per-item
/// allocations on every lane.
pub fn set_alloc_probe(probe: AllocProbe) {
    let _ = ALLOC_PROBE.set(probe);
}

/// Spreads batches over the calling thread plus up to `workers` scoped
/// threads. It holds no threads between batches: only its width and
/// two lifetime counters.
#[derive(Debug, Default)]
pub struct WorkerRuntime {
    workers: usize,
    batches: AtomicU64,
    worker_allocs: AtomicU64,
}

impl WorkerRuntime {
    /// A runtime that adds up to `workers` threads to the caller's own
    /// lane per batch.
    pub fn new(workers: usize) -> Self {
        WorkerRuntime {
            workers,
            ..Self::default()
        }
    }

    /// Threads a batch may add to the calling thread.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Batches run over the runtime's lifetime.
    pub fn batches_run(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Heap allocations made while running items of
    /// [`WorkerRuntime::run`] batches, on any lane, summed over the
    /// runtime's lifetime. Items of
    /// [`WorkerRuntime::run_uncounted`] batches are not probed. This is
    /// the counter behind the allocs-stay-zero gates in
    /// `BENCH_throughput.json` and `BENCH_fleet.json`; it stays 0
    /// unless the bench probe is installed ([`set_alloc_probe`]).
    pub fn worker_allocations(&self) -> u64 {
        self.worker_allocs.load(Ordering::Relaxed)
    }

    /// Runs `f(lane, item)` for every item and returns the outputs in
    /// item order.
    ///
    /// The batch takes `min(lanes.len(), workers + 1, items)` lanes: the
    /// caller runs the first, one scoped thread runs each other, and
    /// all of them pull from the same in-order cursor until it runs
    /// dry. If an item panics, the panic re-raises here once every lane
    /// has finished; the runtime and the lanes stay usable for the next
    /// batch. Each item's allocations count toward
    /// [`WorkerRuntime::worker_allocations`].
    ///
    /// Panics if `lanes` is empty.
    pub fn run<I, L, R, F>(&self, items: I, lanes: &mut [L], f: F) -> Vec<R>
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator + Send,
        L: Send,
        R: Send,
        F: Fn(&mut L, I::Item) -> R + Sync,
    {
        self.spread(items, lanes, f, ALLOC_PROBE.get().copied())
    }

    /// [`WorkerRuntime::run`] without the allocation probe, for items
    /// that allocate by design: a fleet shard's whole window builds
    /// event queues and its report, the same in serial and parallel.
    /// A fleet's client pass runs here too.
    pub fn run_uncounted<I, L, R, F>(&self, items: I, lanes: &mut [L], f: F) -> Vec<R>
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator + Send,
        L: Send,
        R: Send,
        F: Fn(&mut L, I::Item) -> R + Sync,
    {
        self.spread(items, lanes, f, None)
    }

    fn spread<I, L, R, F>(
        &self,
        items: I,
        lanes: &mut [L],
        f: F,
        probe: Option<AllocProbe>,
    ) -> Vec<R>
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator + Send,
        L: Send,
        R: Send,
        F: Fn(&mut L, I::Item) -> R + Sync,
    {
        assert!(!lanes.is_empty(), "a batch needs at least one lane");
        let items = items.into_iter();
        let mut outs: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
        let width = lanes.len().min(self.workers + 1).min(outs.len());
        let cursor = Mutex::new(items.zip(outs.iter_mut()));
        let lane = |state: &mut L| {
            let mut allocs = 0;
            loop {
                // A `let`, not `while let`: the guard drops here, so no
                // item runs under the lock.
                let next = cursor
                    .lock()
                    .expect("no item runs under the cursor lock")
                    .next();
                let Some((item, out)) = next else { break };
                let before = probe.map_or(0, |p| p());
                *out = Some(f(state, item));
                allocs += probe.map_or(0, |p| p() - before);
            }
            self.worker_allocs.fetch_add(allocs, Ordering::Relaxed);
        };
        if let Some((first, rest)) = lanes[..width].split_first_mut() {
            let lane = &lane;
            std::thread::scope(|s| {
                for state in rest {
                    s.spawn(move || lane(state));
                }
                lane(first);
            });
        }
        drop(cursor); // ends its borrow of `outs`
        self.batches.fetch_add(1, Ordering::Relaxed);
        outs.into_iter()
            .map(|out| out.expect("every item ran"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, AtomicUsize};

    #[test]
    fn outputs_arrive_in_item_order_at_every_width() {
        for workers in [0usize, 1, 3] {
            let rt = WorkerRuntime::new(workers);
            let mut lanes = vec![(); workers + 1];
            // Fewer items than lanes, as many, and many more.
            for n in [0u64, 1, 2, 4, 257] {
                let items: Vec<u64> = (0..n).collect();
                let outs = rt.run(&items, &mut lanes, |_, v| v * v);
                let expect: Vec<u64> = (0..n).map(|v| v * v).collect();
                assert_eq!(outs, expect, "width {} with {n} items", workers + 1);
            }
            assert_eq!(rt.batches_run(), 5);
        }
    }

    #[test]
    fn lane_state_persists_across_batches() {
        let rt = WorkerRuntime::new(3);
        // Each lane records every item it ran; the caller keeps the
        // lanes, so the second batch appends to the first's records.
        let mut lanes: Vec<Vec<u32>> = vec![Vec::new(); 4];
        for round in 0..2u32 {
            let items: Vec<u32> = (round * 100..round * 100 + 40).collect();
            rt.run(&items, &mut lanes, |seen, v| seen.push(*v));
        }
        let mut all: Vec<u32> = lanes.iter().flatten().copied().collect();
        all.sort_unstable();
        let expect: Vec<u32> = (0..40).chain(100..140).collect();
        assert_eq!(all, expect, "every item ran exactly once, on some lane");
        for seen in &lanes {
            assert!(seen.windows(2).all(|w| w[0] < w[1]), "lanes pull in order");
        }
    }

    #[test]
    fn panic_reraises_after_every_lane_finishes_and_runtime_stays_usable() {
        let rt = WorkerRuntime::new(2);
        let mut lanes = vec![0usize; 3];
        let panicked = AtomicBool::new(false);
        let done = AtomicUsize::new(0);
        let items: Vec<u32> = (0..12).collect();
        let res = catch_unwind(AssertUnwindSafe(|| {
            rt.run(&items, &mut lanes, |runs, v| {
                *runs += 1;
                match v {
                    0 => {
                        panicked.store(true, Ordering::SeqCst);
                        panic!("boom");
                    }
                    // Item 1 runs on another lane (item 0's lane stops at
                    // its panic) and can only finish after that panic.
                    1 => {
                        while !panicked.load(Ordering::SeqCst) {
                            std::thread::yield_now();
                        }
                    }
                    _ => {}
                }
                done.fetch_add(1, Ordering::SeqCst);
            })
        }));
        assert!(res.is_err(), "a panicking item must re-raise");
        assert_eq!(
            done.load(Ordering::SeqCst),
            11,
            "the panic surfaced before the other lanes finished"
        );
        // The same runtime and lanes run the next batch.
        let outs = rt.run(&items, &mut lanes, |runs, v| {
            *runs += 1;
            v + 1
        });
        assert_eq!(outs, (1..13).collect::<Vec<u32>>());
        assert_eq!(lanes.iter().sum::<usize>(), 24);
        assert_eq!(rt.batches_run(), 1, "only the finished batch counts");
    }
}
