//! A global allocator that counts, for the allocation- and memory-budget
//! binaries. Each installs it with `#[global_allocator]` and holds a
//! single test: nothing else may allocate while a count is taken.
//!
//! It counts allocations, and the heap bytes live — requested and not
//! yet freed — with the most that have been live at once; a reallocation
//! counts as its new block taken before its old one is given back, as
//! when it moves. The byte counts are exact and repeat run to run, unlike
//! a resident set, which moves with the allocator's layout and the host.

// Each binary reads the counts it budgets.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

pub struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// Allocations and reallocations since the process started.
pub fn allocations() -> u64 {
    ALLOCS.load(Relaxed)
}

/// Heap bytes allocated and not yet freed.
pub fn live_bytes() -> u64 {
    LIVE.load(Relaxed)
}

/// The most heap bytes live at once since the last [`reset_peak`] (or
/// since the process started).
pub fn peak_live_bytes() -> u64 {
    PEAK.load(Relaxed)
}

/// Starts a new peak from what is live now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are statistics and
// publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller's obligations are passed through as-is.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller's obligations are passed through as-is.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            grew(new_size);
            shrank(layout.size());
        }
        moved
    }
}
