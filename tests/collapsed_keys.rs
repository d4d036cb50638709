//! Differential harness for the collapsed visited set
//! (`ccr_mc::store::Visited`): the sweep stores a state as the tuple of
//! its key's interned segments, and a successor takes the segments its
//! step did not write straight from its parent's tuple. Nothing of that
//! may show:
//!
//! * every key the sweep stores or finds reads back, tuple expanded into
//!   its segments, as the system's plain encoding of the state that
//!   reached it ([`KeyAudit`], a hook of [`Search`]);
//! * states, transitions, outcome and trail equal those of a reference
//!   breadth-first search over whole byte keys in a `HashMap` ([`plain`]).
//!
//! Both hold on every shipped spec at n ∈ {2, 3}, at both protocol
//! levels, with symmetry reduction off and on, without threads and at 2,
//! spilling under a tiny memory budget, and resumed after a crash — and
//! on 250 zoo specs. Sweeps are capped, in a debug build more tightly:
//! a prefix of the space is as good a witness as the whole of it.

use ccr_core::refine::{refine, RefineOptions};
use ccr_core::text::parse_validated;
use ccr_core::zoo::ZooSpec;
use ccr_mc::search::{PersistOpts, Search, Telemetry};
use ccr_mc::store::KeyAudit;
use ccr_mc::{Budget, Outcome, Reduced, SearchObserver, SearchReport, Symmetric};
use ccr_metrics::Registry;
use ccr_runtime::asynch::{AsyncConfig, AsyncSystem};
use ccr_runtime::rendezvous::RendezvousSystem;
use ccr_runtime::{Label, TransitionSystem};
use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::time::Duration;

const SPECS: [&str; 6] = [
    "invalidate.ccp",
    "migratory.ccp",
    "migratory_broken.ccp",
    "migratory_gated.ccp",
    "token.ccp",
    "update.ccp",
];

/// States a sweep in memory may store.
const MAX_STATES: usize = if cfg!(debug_assertions) { 1_000 } else { 40_000 };
/// States a persisted sweep may store. Under a spill budget of a few
/// tuples most stored tuples have left memory and every lookup that
/// meets one reads the log, so these stay small.
const PERSISTED_STATES: usize = if cfg!(debug_assertions) { 1_000 } else { 3_000 };
/// States stored before the crash of a sweep that checkpoints at every
/// expansion, at most.
const CRASH_AT: usize = 80;

fn load(name: &str) -> ccr_core::process::ProtocolSpec {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("specs").join(name);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    parse_validated(&text).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// What a sweep reports that a plain one must match.
#[derive(Debug, PartialEq)]
struct Sweep {
    states: usize,
    transitions: usize,
    outcome: Outcome,
    trail: Option<Vec<Label>>,
}

impl From<SearchReport> for Sweep {
    fn from(r: SearchReport) -> Self {
        Sweep { states: r.states, transitions: r.transitions, outcome: r.outcome, trail: r.trail }
    }
}

/// The reference: breadth-first search with the deadlock check and
/// trails on, every state keyed by its whole `encode` bytes in a
/// `HashMap`, stopping where the sweep's state budget stops it.
fn plain<T: TransitionSystem>(sys: &T, max_states: usize) -> Sweep {
    let mut seen: HashMap<Vec<u8>, u32> = HashMap::new();
    let mut parents: Vec<Option<(u32, Label)>> = vec![None];
    let mut queue = VecDeque::from([(sys.initial(), 0u32)]);
    seen.insert(sys.encoded(&sys.initial()), 0);
    let trail_to = |parents: &[Option<(u32, Label)>], mut at: u32| {
        let mut labels = Vec::new();
        while let Some((up, label)) = &parents[at as usize] {
            labels.push(label.clone());
            at = *up;
        }
        labels.reverse();
        labels
    };
    let (mut transitions, mut succs) = (0, Vec::new());
    while let Some((state, idx)) = queue.pop_front() {
        sys.successors(&state, &mut succs).expect("shipped specs step");
        if succs.is_empty() {
            let trail = Some(trail_to(&parents, idx));
            return Sweep { states: seen.len(), transitions, outcome: Outcome::Deadlock, trail };
        }
        for (label, next) in succs.drain(..) {
            transitions += 1;
            let key = sys.encoded(&next);
            if seen.contains_key(&key) {
                continue;
            }
            let nidx = seen.len() as u32;
            seen.insert(key, nidx);
            parents.push(Some((idx, label)));
            if seen.len() >= max_states {
                let outcome = Outcome::Unfinished;
                return Sweep { states: seen.len(), transitions, outcome, trail: None };
            }
            queue.push_back((next, nidx));
        }
    }
    Sweep { states: seen.len(), transitions, outcome: Outcome::Complete, trail: None }
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ccr-collapsed-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One audited sweep of `sys` storing at most `max_states`: `search` with
/// the deadlock check, trails and the audit on, stopping the first time
/// `stop` says so of the number of states stored so far (a panic, which
/// unwinds through the sweep without concluding it). Returns the sweep
/// and the evictions its spill tier made.
fn audited<T>(
    sys: &T,
    search: Search<'_>,
    max_states: usize,
    context: &str,
    stop: Option<usize>,
) -> (Sweep, u64)
where
    T: TransitionSystem + Sync,
    T::State: Send,
{
    let audit = KeyAudit::new();
    let mut null = ccr_trace::NullSink;
    let reg = Registry::new();
    let telemetry = Telemetry { registry: reg.clone(), ..Telemetry::off() };
    let mut obs = SearchObserver::for_phase(&mut null, &telemetry, "");
    let search = Search { check_deadlock: true, trails: true, audit: Some(&audit), ..search };
    let stored = AtomicUsize::new(0);
    let invariant = |_: &T::State| {
        let now = stored.fetch_add(1, Relaxed) + 1;
        assert!(Some(now) != stop, "crash at {now} states");
        None
    };
    let report = search.explore(sys, &Budget::states(max_states), Some(&invariant), &mut obs);
    let seen = audit.report();
    assert_eq!(seen.mismatch, None, "{context}");
    assert!(seen.keys > 0, "{context}: nothing audited");
    assert!(!report.restored, "{context}: a finished run was restored");
    let evictions = reg.counter_nondet("mc_persist_evictions_total", "").get();
    (report.into(), evictions)
}

/// Every configuration of the sweep over `sys` against the plain search.
/// `reduced` says `sys` is a symmetry quotient.
fn check<T>(sys: &T, reduced: bool, context: &str)
where
    T: TransitionSystem + Sync,
    T::State: Send,
{
    let expected = plain(sys, MAX_STATES);
    let (inline, _) = audited(sys, Search::default(), MAX_STATES, context, None);
    assert_eq!(inline, expected, "{context}: serial");
    let threads = Search { threads: 2, ..Search::default() };
    assert_eq!(
        audited(sys, threads, MAX_STATES, context, None).0,
        expected,
        "{context}: 2 threads"
    );
    let expected = plain(sys, PERSISTED_STATES);

    // Spilling: every tuple goes to the log, and the arena to disk each
    // time it passes 16 bytes, a few tuples.
    let dir = tmp(&format!("{}-spill", context.replace(' ', "-")));
    let opts = PersistOpts { evict_at: 16, ..PersistOpts::default() };
    let spilled = Search { persist: Some((&dir, &opts)), ..Search::default() };
    let (spill, evictions) = audited(sys, spilled, PERSISTED_STATES, context, None);
    assert_eq!(spill, expected, "{context}: spill");
    assert!(evictions >= 1, "{context}: the spill run never evicted");
    let _ = std::fs::remove_dir_all(&dir);

    // A crash early in a sweep checkpointed at every expansion,
    // then the resume, keeping the tuples in memory and evicting them
    // past 8 bytes, every tuple or two: the recovered segments and
    // tuples are read back and found like any others. A resumed sweep
    // has no trail.
    if expected.states >= 4 {
        let dir = tmp(&format!("{}-crash", context.replace(' ', "-")));
        for evict_at in [0, 8] {
            let _ = std::fs::remove_dir_all(&dir);
            let opts = PersistOpts { interval: Duration::ZERO, evict_at, ..PersistOpts::default() };
            let leg = Search { persist: Some((&dir, &opts)), ..Search::default() };
            let crash = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let crash_at = (expected.states / 2).min(CRASH_AT);
                audited(sys, leg, PERSISTED_STATES, context, Some(crash_at))
            }));
            assert!(crash.is_err(), "{context}: the first leg must crash");
            let opts = PersistOpts { resume: true, ..opts };
            let leg = Search { persist: Some((&dir, &opts)), ..Search::default() };
            let (resumed, evictions) = audited(sys, leg, PERSISTED_STATES, context, None);
            assert_eq!(resumed.trail, None, "{context}: a resumed sweep kept a trail");
            assert_eq!(evictions >= 1, evict_at > 0, "{context}: resumed (evict_at {evict_at})");
            let want = Sweep { trail: None, ..plain(sys, PERSISTED_STATES) };
            if reduced && want.outcome == Outcome::Unfinished {
                // A known gap, older than the collapsed store: a resumed
                // quotient sweep expands the recovered pending states as
                // their orbits' representatives, not as the members first
                // reached, so a state budget can cut it after another
                // number of transitions. States and outcome still agree.
                let cut = |s: &Sweep| (s.states, s.outcome.clone());
                assert_eq!(cut(&resumed), cut(&want), "{context}: resumed (evict_at {evict_at})");
                continue;
            }
            assert_eq!(resumed, want, "{context}: resumed (evict_at {evict_at})");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `sys` and its symmetry quotient.
fn check_both<T>(sys: &T, context: &str)
where
    T: Symmetric + Sync,
    T::State: Send,
{
    check(sys, false, &format!("{context} sym off"));
    let red = Reduced::new(sys);
    check(&red, red.active(), &format!("{context} sym on"));
}

#[test]
fn collapsed_keys_are_the_plain_keys_on_every_shipped_spec() {
    // The crash legs panic on purpose; their reports would bury a real one.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|info| {
        if !info.to_string().contains("crash at") {
            eprintln!("{info}");
        }
    }));
    for name in SPECS {
        let spec = load(name);
        let refined = refine(&spec, &RefineOptions::default()).expect("refines");
        for n in [2u32, 3] {
            check_both(&RendezvousSystem::new(&spec, n), &format!("{name} rv n={n}"));
            let sys = AsyncSystem::new(&refined, n, AsyncConfig::default());
            check_both(&sys, &format!("{name} async n={n}"));
        }
    }
    std::panic::set_hook(hook);
}

/// The same, without persistence, on 250 specs of the CI zoo stream at
/// three remotes.
#[test]
fn collapsed_keys_are_the_plain_keys_on_the_zoo() {
    let budget = 300;
    let mut audited_keys = 0;
    for index in 0..250 {
        let Ok(spec) = ZooSpec::generate(1998, index).build() else { continue };
        let Ok(refined) = refine(&spec, &RefineOptions::default()) else { continue };
        let sys = AsyncSystem::new(&refined, 3, AsyncConfig::default());
        let red = Reduced::new(&sys);
        for reduce in [false, true] {
            let audit = KeyAudit::new();
            let mut null = ccr_trace::NullSink;
            let mut obs = SearchObserver::new(&mut null);
            let search = Search {
                check_deadlock: true,
                trails: true,
                audit: Some(&audit),
                ..Search::default()
            };
            let (report, expected) = if reduce {
                (search.explore(&red, &Budget::states(budget), None, &mut obs), plain(&red, budget))
            } else {
                (search.explore(&sys, &Budget::states(budget), None, &mut obs), plain(&sys, budget))
            };
            let context = format!("zoo_1998_{index} reduce={reduce}");
            let seen = audit.report();
            assert_eq!(seen.mismatch, None, "{context}");
            audited_keys += seen.keys;
            assert_eq!(Sweep::from(report), expected, "{context}");
        }
    }
    assert!(audited_keys > 0, "no zoo spec was swept");
}
