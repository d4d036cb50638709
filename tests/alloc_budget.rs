//! Allocation budget of the serial explorer.
//!
//! Timing on a shared one-core host is noise; heap-allocation counts are
//! exact and repeat run to run. This binary installs a counting global
//! allocator (which is why it is its own test binary with a single test:
//! nothing else may allocate while the count is taken) and pins the cost
//! of one asynchronous transition of a traced serial exploration —
//! successor generation, encoding, store and frontier growth, trail table
//! — at no more than 0.02 heap allocations. A transition allocates
//! nothing: the successor is written into the sweep's one scratch state
//! and encoded straight into the store, and a pending state is an index
//! (DESIGN.md, "What the sweep holds"). What is counted is the doubling
//! of the store's arena and tables, the frontier and the trail vector —
//! a few dozen allocations a run. One `clone()` per successor on this
//! path is one allocation per transition (the `remotes` vector) and fails
//! the test fifty times over.
//!
//! The same run under [`Reduced`] gets 0.12: a successor's key is derived
//! from its parent's orbit, or canonicalized with one sort and one encode,
//! into the store's slot, from per-thread buffers that stop growing after
//! the first few states (a derived key counts as a canonicalization), and
//! the pending states' concrete
//! snapshots go through one reused buffer into one byte queue — but the
//! space is a twentieth the size, so the same few dozen weigh more.

use ccr_core::refine::{refine, RefineOptions};
use ccr_core::text::parse_validated;
use ccr_mc::search::{Budget, Search, SearchObserver};
use ccr_mc::Reduced;
use ccr_runtime::asynch::{AsyncConfig, AsyncSystem};
use ccr_runtime::TransitionSystem;
use ccr_trace::NullSink;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocations, Counting};

#[global_allocator]
static GLOBAL: Counting = Counting;

fn load(name: &str) -> ccr_core::refine::RefinedProtocol {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("specs").join(name);
    let spec = parse_validated(&std::fs::read_to_string(path).expect("read spec")).expect("parse");
    refine(&spec, &RefineOptions::default()).expect("refine")
}

/// Explores `sys` with trails and asserts the counts and the allocations
/// spent per transition.
fn assert_budget<T>(sys: &T, counts: (usize, usize), budget: f64, what: &str)
where
    T: TransitionSystem + Sync,
    T::State: Send,
{
    let mut null = NullSink;
    let mut obs = SearchObserver::new(&mut null);
    let search = Search { check_deadlock: true, trails: true, ..Search::default() };

    let before = allocations();
    let report = search.explore(sys, &Budget::default(), None, &mut obs);
    let allocs = allocations() - before;

    assert!(report.outcome.is_complete(), "{what}: {:?}", report.outcome);
    assert_eq!((report.states, report.transitions), counts, "{what}");
    let per_transition = allocs as f64 / report.transitions as f64;
    eprintln!(
        "{what}: {allocs} allocations / {} transitions = {per_transition:.3}",
        report.transitions
    );
    assert!(
        per_transition <= budget,
        "{what}: {allocs} allocations over {} transitions = {per_transition:.2} per transition \
         (budget {budget})",
        report.transitions
    );
}

// One test, two measurements in sequence: a second `#[test]` would run
// on another thread and allocate into the first one's count.
#[test]
fn serial_explore_stays_within_the_allocation_budget() {
    let invalidate = load("invalidate.ccp");
    let sys = AsyncSystem::new(&invalidate, 2, AsyncConfig::default());
    assert_budget(&sys, (9_304, 20_996), 0.02, "invalidate n=2");

    let migratory = load("migratory.ccp");
    let sys = AsyncSystem::new(&migratory, 4, AsyncConfig::default());
    let reduced = Reduced::new(&sys);
    assert!(reduced.active());
    assert_budget(&reduced, (1_095, 4_050), 0.12, "migratory n=4 reduced");
    assert_eq!(reduced.canon_total(), 4_051, "one canonicalization per transition + the root");
}
