//! A counting global allocator, so the benchmark's `*.allocs` counters and
//! `runtime.worker_allocs` count real heap allocations.
//!
//! `main.rs` installs [`CountingAlloc`] as the global allocator and
//! points `chronos_core::runtime::set_alloc_probe` at
//! [`thread_allocations`]. Allocation events (alloc, alloc_zeroed,
//! realloc; never dealloc) are counted per thread, so a delta taken around
//! a call counts that call's allocations and nothing another thread did.
//! Without the allocator installed (as under `cargo test`) the counter
//! stays frozen and every delta reads zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Allocation-counting pass-through to the system allocator.
pub struct CountingAlloc;

#[inline]
fn record() {
    // `try_with`: late allocations during thread teardown find the slot
    // already destroyed.
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter has no effect on the memory returned.
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

/// Allocation events on the current thread since it started.
pub fn thread_allocations() -> u64 {
    THREAD_ALLOCS.try_with(|c| c.get()).unwrap_or(0)
}
