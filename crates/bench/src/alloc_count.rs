//! A counting global allocator for allocation-budget tests and the
//! `bench_throughput` allocs/sweep metric.
//!
//! [`CountingAlloc`] forwards every request to the [`System`] allocator
//! and counts allocation *events* (alloc, alloc_zeroed, realloc —
//! dealloc is free and not counted) per thread, so a measurement is
//! immune to allocations made by other test threads running
//! concurrently.
//!
//! Install it as the global allocator in a binary or test crate:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: chronos_bench::alloc_count::CountingAlloc = CountingAlloc::new();
//! ```
//!
//! Counters only advance when the program's global allocator is a
//! `CountingAlloc`; library code calling [`thread_allocations`] under a
//! different allocator reads a frozen counter (deltas are zero).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Allocation-counting wrapper around the system allocator.
pub struct CountingAlloc;

impl CountingAlloc {
    /// A new counting allocator (const, for `#[global_allocator]`).
    pub const fn new() -> Self {
        CountingAlloc
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        Self::new()
    }
}

#[inline]
fn record() {
    // `try_with` keeps us safe during thread teardown, when the TLS slot
    // may already be destroyed but late allocations still happen.
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: pure pass-through to `System`; the counters have no effect on
// the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record();
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocation events recorded on the *current thread* since it started.
/// Take a delta around the measured region.
pub fn thread_allocations() -> u64 {
    THREAD_ALLOCS.try_with(|c| c.get()).unwrap_or(0)
}
