//! Memory budget of `ccr verify`'s sweep.
//!
//! Which Table 3 cells finish is decided by memory per state, and a
//! resident set moves with the allocator and the host; the heap bytes a
//! run has live at once do not. This binary installs a counting global
//! allocator (its own binary, with a single test: nothing else may
//! allocate while the count is taken) and pins the most heap bytes live
//! at once while [`Search::verify`] answers all three questions on one
//! concrete sweep of migratory's asynchronous level at four remotes, and
//! the progress graph is checked.
//!
//! The sweep holds the visited set (about 21 B a state: a state's tuple
//! of segment ids, five bytes or so, lives in its eight-byte entry), the
//! frontier and the progress graph — its targets as zigzag LEB128 deltas,
//! about 2.4 bytes a transition, four bytes an expanded state, one bit a
//! state — and no parent table: a passing run needs no trail. The check
//! judges the graph by its strongly connected components, with no
//! reverse graph beside it. The budget is 10 % over what that measures.
//! A `u32` per transition does not fit in it: the forward CSR with one,
//! checked by a reverse CSR, peaks at 1,697,712 bytes. Nor do an
//! eight-byte `(parent, ordinal)` per state and an eight-byte
//! `(dst, src)` pair per transition (2,779,168 bytes), or a copy of every
//! tuple in the arena behind its entry (1,828,896 bytes, with the CSR).
//!
//! The counting allocator charges a reallocation as a move — the new
//! block live before the old one is given back — so a probe table that
//! doubles in place is charged as much as one built beside the old. The
//! resident set saves that copy (the allocator moves a large block's
//! pages); this test pins only what the entries save.

use ccr_core::refine::{refine, RefineOptions};
use ccr_core::text::parse_validated;
use ccr_mc::search::{Budget, Search, SearchObserver};
use ccr_runtime::asynch::{AsyncConfig, AsyncSystem};
use ccr_runtime::rendezvous::RendezvousSystem;
use ccr_trace::NullSink;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{live_bytes, peak_live_bytes, reset_peak, Counting};

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The most heap bytes live at once above the start, as measured; the
/// budget is 10 % over it.
const MEASURED: u64 = 1_275_824;

#[test]
fn verify_stays_within_the_memory_budget() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("specs/migratory.ccp");
    let spec = parse_validated(&std::fs::read_to_string(path).expect("read spec")).expect("parse");
    let refined = refine(&spec, &RefineOptions::default()).expect("refine");
    let asys = AsyncSystem::new(&refined, 4, AsyncConfig::default());
    let rv = RendezvousSystem::new(&spec, 4);
    let mut null = NullSink;
    let mut obs = SearchObserver::new(&mut null);
    // What `ccr verify --symmetry off` asks of the asynchronous level.
    let search = Search { check_deadlock: true, trails: true, ..Search::default() };

    let base = live_bytes();
    reset_peak();
    let completes = |l: &ccr_runtime::Label| l.completes.is_some();
    let (report, equation1, graph) =
        search.verify(&asys, &asys, &rv, &Budget::default(), completes, &mut obs);
    let progress = graph.check(&asys, &mut obs);
    let peak = peak_live_bytes() - base;

    assert!(report.outcome.is_complete() && equation1.holds() && progress.holds());
    assert_eq!((report.states, report.transitions), (20_800, 75_880));
    let budget = MEASURED + MEASURED / 10;
    eprintln!(
        "migratory n=4 concrete: {peak} bytes live at most over {} states = {:.1} B/state \
         (budget {budget})",
        report.states,
        peak as f64 / report.states as f64
    );
    assert!(peak <= budget, "{peak} bytes live at most, budget {budget}");
}
