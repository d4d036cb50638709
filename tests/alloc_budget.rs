//! Allocation budget of the serial explorer.
//!
//! Timing on a shared one-core host is noise; heap-allocation counts are
//! exact and repeat run to run. This binary installs a counting global
//! allocator (which is why it is its own test binary with a single test:
//! nothing else may allocate while the count is taken) and pins the cost
//! of one asynchronous transition in `explore_traced_observed` — successor
//! generation, encoding, store and frontier growth, trail table — at no
//! more than 1.1 heap allocations. The one allocation in the budget is the
//! successor's `remotes` vector; home slice, environments, links and
//! buffers are inline (see DESIGN.md, "State layout").

use ccr_core::refine::{refine, RefineOptions};
use ccr_core::text::parse_validated;
use ccr_mc::search::{Budget, SearchObserver};
use ccr_mc::trace::explore_traced_observed;
use ccr_runtime::asynch::{AsyncConfig, AsyncSystem};
use ccr_trace::NullSink;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a statistic and
// publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller's obligations are passed through as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller's obligations are passed through as-is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn serial_explore_stays_within_the_allocation_budget() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("specs/invalidate.ccp");
    let spec = parse_validated(&std::fs::read_to_string(path).expect("read spec")).expect("parse");
    let refined = refine(&spec, &RefineOptions::default()).expect("refine");
    let sys = AsyncSystem::new(&refined, 2, AsyncConfig::default());
    let mut null = NullSink;
    let mut obs = SearchObserver::new(&mut null);

    let before = ALLOCS.load(Relaxed);
    let report = explore_traced_observed(&sys, &Budget::default(), |_| None, true, &mut obs);
    let allocs = ALLOCS.load(Relaxed) - before;

    assert!(report.outcome.is_complete(), "{:?}", report.outcome);
    assert_eq!((report.states, report.transitions), (9_304, 20_996));
    let per_transition = allocs as f64 / report.transitions as f64;
    eprintln!("{allocs} allocations / {} transitions = {per_transition:.3}", report.transitions);
    assert!(
        per_transition <= 1.1,
        "{allocs} allocations over {} transitions = {per_transition:.2} per transition (budget 1.1)",
        report.transitions
    );
}
