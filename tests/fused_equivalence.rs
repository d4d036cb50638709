//! Riders are invisible: Equation 1 and the progress check riding the
//! exploration's sweep (`Search::verify`) report what each reports on a
//! sweep of its own — whole reports, field for field — on every shipped
//! spec, with and without threads, complete or cut by a budget; and the
//! exploration reports what it reports alone, whatever rode along. On the
//! symmetry quotient the exploration and the progress check report what
//! their quotient sweeps do, and Equation 1 — which has no quotient sweep
//! of its own to be compared with — reaches the concrete verdict on every
//! permutable shipped spec, sound or made unsound. The cases a healthy
//! spec never reaches are pinned separately: a deadlock that ends the
//! sweep under its riders, a livelock witness, and an unsound refinement
//! whose violating edge is latched while the sweep goes on. A sweep that
//! takes its steps from the local-step table reports what the walking
//! sweep does, and every step the table hands out is the walk's; every
//! image Equation 1's memo hands out on the concrete space is `abs` of
//! the state.

use ccr_core::process::ProtocolSpec;
use ccr_core::refine::{refine, RefineOptions};
use ccr_core::text::parse_validated;
use ccr_core::zoo::ZooSpec;
use ccr_mc::search::{Budget, Search, SearchObserver};
use ccr_mc::simrel::check_simulation;
use ccr_mc::{
    inject_unsound, replay_trail, spec_permutable, ImageAudit, Outcome, ProgressReport, Reduced,
    SearchReport, SimRelReport, StepAudit,
};
use ccr_runtime::asynch::{AsyncConfig, AsyncState, AsyncSystem};
use ccr_runtime::rendezvous::RendezvousSystem;
use ccr_runtime::{Label, TransitionSystem};
use std::path::Path;
use std::time::Duration;

const SPECS: [&str; 8] = [
    "invalidate",
    "migratory",
    "migratory_broken",
    "migratory_gated",
    "token",
    "update",
    "zoo_chain",
    "zoo_unsound_pair",
];

/// What a "complete" run may visit: spaces past it (invalidate and update
/// at n=3) are compared on this prefix instead, which keeps the debug
/// build inside a tier-1 time budget.
const CAP: usize = 20_000;

fn load(name: &str) -> ProtocolSpec {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("specs/{name}.ccp"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    parse_validated(&text).unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn completes(l: &Label) -> bool {
    l.completes.is_some()
}

fn timeless(report: SearchReport) -> SearchReport {
    SearchReport { elapsed: Duration::ZERO, ..report }
}

/// `ccr verify`'s search: deadlock check (unless a test wants the riders
/// to see past one) and trails on.
fn search(check_deadlock: bool, threads: usize) -> Search<'static> {
    Search { check_deadlock, trails: true, threads, ..Search::default() }
}

/// The exploration and the progress check, each on a sweep of its own.
fn separate<T>(
    sys: &T,
    budget: &Budget,
    check_deadlock: bool,
    is_progress: impl Fn(&Label) -> bool + Sync,
) -> (SearchReport, ProgressReport)
where
    T: TransitionSystem + Sync,
    T::State: Send,
{
    let mut null = ccr_trace::NullSink;
    let mut obs = SearchObserver::new(&mut null);
    let alone = search(check_deadlock, 0);
    (
        timeless(alone.explore(sys, budget, None, &mut obs)),
        alone.progress(sys, budget, is_progress, &mut obs),
    )
}

/// All three on one sweep of `sys`: `asys` itself or its quotient.
fn fused<T>(
    sys: &T,
    asys: &AsyncSystem<'_>,
    rv: &RendezvousSystem<'_>,
    budget: &Budget,
    check_deadlock: bool,
    threads: usize,
    is_progress: impl Fn(&Label) -> bool + Sync,
) -> (SearchReport, SimRelReport, ProgressReport)
where
    T: TransitionSystem<State = AsyncState> + Sync,
{
    let mut null = ccr_trace::NullSink;
    let mut obs = SearchObserver::new(&mut null);
    let (a, equation1, graph) =
        search(check_deadlock, threads).verify(sys, asys, rv, budget, is_progress, &mut obs);
    // The witness is replayed on the concrete system: on a quotient the
    // sweep's states and steps are real ones.
    (timeless(a), equation1, graph.check(asys, &mut obs))
}

/// Whether the exploration ended its sweep the way sweeps of the riders'
/// own end: out of states, budget or executor — not on a finding.
fn rode_it_all(a: &SearchReport) -> bool {
    !matches!(a.outcome, Outcome::Deadlock | Outcome::InvariantViolated(_))
}

/// Whether the exploration swept on until the space or the executor ran
/// out: then every edge a rider could judge was shown to it.
fn swept_to_end(a: &SearchReport) -> bool {
    matches!(a.outcome, Outcome::Complete | Outcome::RuntimeFailure(_))
}

/// What an Equation 1 report concludes: whether it holds, whether it
/// found a violation, whether it finished.
fn verdict(s: &SimRelReport) -> (bool, bool, bool) {
    (s.holds(), s.violation.is_some(), s.complete)
}

#[test]
fn fused_reports_equal_the_three_separate_ones_on_every_shipped_spec() {
    let (mut triples, mut pairs, mut verdicts, mut cut_short) = (0, 0, 0, 0);
    for name in SPECS {
        let spec = load(name);
        let refined = refine(&spec, &RefineOptions::default())
            .unwrap_or_else(|e| panic!("{name}: refine: {e}"));
        for n in [2u32, 3] {
            let rv = RendezvousSystem::new(&spec, n);
            let asys = AsyncSystem::new(&refined, n, AsyncConfig::default());
            let full = separate(&asys, &Budget::states(CAP), false, completes).0.states;
            for budget in [CAP, (full / 2).max(2)].map(Budget::states) {
                let equation1 = check_simulation(&asys, &rv, &budget);
                for check_deadlock in [true, false] {
                    let (a, progress) = separate(&asys, &budget, check_deadlock, completes);
                    let red = Reduced::new(&asys);
                    let on_quotient = spec_permutable(&spec)
                        .then(|| separate(&red, &budget, check_deadlock, completes));
                    for threads in [0usize, 2] {
                        let context = format!(
                            "{name} n={n} k={} deadlock={check_deadlock} t={threads}",
                            budget.max_states
                        );
                        let (fa, fequation1, fprogress) =
                            fused(&asys, &asys, &rv, &budget, check_deadlock, threads, completes);
                        assert_eq!(fa, a, "{context}");
                        if rode_it_all(&a) {
                            assert_eq!(fequation1, equation1, "{context}");
                            assert_eq!(fprogress, progress, "{context}");
                            triples += 1;
                        } else {
                            // Nothing that rode a sweep cut short may
                            // pass for a verdict.
                            assert!(!fequation1.holds() && !fprogress.holds(), "{context}");
                            cut_short += 1;
                        }
                        // `--symmetry on`: all three share the quotient
                        // sweep.
                        let Some((ra, rprogress)) = &on_quotient else { continue };
                        let (fa, requation1, rfprogress) =
                            fused(&red, &asys, &rv, &budget, check_deadlock, threads, completes);
                        assert_eq!(&fa, ra, "{context} sym");
                        if rode_it_all(ra) {
                            assert_eq!(&rfprogress, rprogress, "{context} sym");
                            pairs += 1;
                        }
                        if swept_to_end(&a) && swept_to_end(ra) {
                            assert_eq!(verdict(&requation1), verdict(&fequation1), "{context} sym");
                            verdicts += 1;
                        }
                    }
                }
            }
        }
    }
    assert!(
        triples > 100 && pairs > 50 && verdicts > 30 && cut_short > 0,
        "{triples} {pairs} {verdicts} {cut_short}"
    );
}

/// `ccr verify`'s default shape: Equation 1 riding the quotient sweep
/// reaches the verdict the concrete fused run reaches — holds, violated,
/// finished — on every permutable shipped spec at n in {2, 3, 4}, as
/// derived and with one acked send made fire-and-forget, with and without
/// threads. The deadlock check is off so that every sweep runs on to the
/// end of its space or of the executor.
#[test]
fn equation_1_on_the_quotient_reaches_the_concrete_verdict() {
    let (mut compared, mut violated) = (0, 0);
    for name in SPECS {
        let spec = load(name);
        if !spec_permutable(&spec) {
            continue;
        }
        for inject in [false, true] {
            let mut refined = refine(&spec, &RefineOptions::default())
                .unwrap_or_else(|e| panic!("{name}: refine: {e}"));
            if inject && !inject_unsound(&mut refined) {
                continue;
            }
            for n in [2u32, 3, 4] {
                let rv = RendezvousSystem::new(&spec, n);
                let asys = AsyncSystem::new(&refined, n, AsyncConfig::default());
                let red = Reduced::new(&asys);
                for threads in [0usize, 2] {
                    let context = format!("{name} n={n} inject={inject} t={threads}");
                    let search = search(false, threads);
                    let budget = Budget::default();
                    let mut null = ccr_trace::NullSink;
                    let mut obs = SearchObserver::new(&mut null);
                    let (a, concrete, _) =
                        search.verify(&asys, &asys, &rv, &budget, completes, &mut obs);
                    let (ra, quotient, _) =
                        search.verify(&red, &asys, &rv, &budget, completes, &mut obs);
                    assert!(swept_to_end(&a) && swept_to_end(&ra), "{context}");
                    assert_eq!(verdict(&quotient), verdict(&concrete), "{context}");
                    assert!(quotient.async_states <= concrete.async_states, "{context}");
                    compared += 1;
                    violated += usize::from(concrete.violation.is_some());
                }
            }
        }
    }
    assert!(compared >= 48 && violated >= 12, "{compared} {violated}");
}

/// `migratory_broken` deadlocks at the asynchronous level too. The
/// deadlock ends the sweep under its riders: the exploration's report —
/// trail included — is the one it gives alone, and what the riders saw is
/// a prefix that claims nothing.
#[test]
fn a_deadlock_ends_the_sweep_and_leaves_the_riders_nothing_to_report() {
    let spec = load("migratory_broken");
    let refined = refine(&spec, &RefineOptions::default()).expect("refines");
    let rv = RendezvousSystem::new(&spec, 2);
    let asys = AsyncSystem::new(&refined, 2, AsyncConfig::default());
    let budget = Budget::default();
    let (a, _) = separate(&asys, &budget, true, completes);
    assert_eq!(a.outcome, Outcome::Deadlock);
    for threads in [0usize, 2] {
        let (fa, equation1, progress) = fused(&asys, &asys, &rv, &budget, true, threads, completes);
        assert_eq!(fa, a, "t={threads}");
        let end = replay_trail(&asys, fa.trail.as_deref().expect("trail")).expect("replays");
        let mut succs = Vec::new();
        asys.successors(&end, &mut succs).expect("successors");
        assert!(succs.is_empty(), "t={threads}: the trail ends in the deadlock");
        assert!(!equation1.complete && equation1.violation.is_none(), "{equation1:?}");
        assert!(!progress.complete, "{progress:?}");
        assert!(equation1.async_states <= a.states && progress.states <= a.states);
    }
}

/// A protocol that never deadlocks but can lose the ability to complete
/// `m`: once the home has taken `trap` it serves `ping` forever.
const TRAP: &str = "
protocol trap {
  messages m, trap, ping;
  home {
    state H0 init {
      r(*) ? m -> H0;
      r(*) ? trap -> H1;
    }
    state H1 {
      r(*) ? ping -> H1;
    }
  }
  remote {
    state R0 init {
      tau #work -> M;
      tau #quit -> T;
    }
    state M {
      h ! m -> R0;
    }
    state T {
      h ! trap -> R1;
    }
    state R1 {
      h ! ping -> R1;
    }
  }
}";

#[test]
fn a_livelock_witness_rides_as_it_sweeps_alone() {
    let spec = parse_validated(TRAP).expect("parses");
    let refined = refine(&spec, &RefineOptions::default()).expect("refines");
    let m = spec.msg_by_name("m").expect("message m");
    let completes_m = |l: &Label| l.completes.is_some_and(|(_, msg)| msg == m);
    let rv = RendezvousSystem::new(&spec, 2);
    let asys = AsyncSystem::new(&refined, 2, AsyncConfig::default());
    let budget = Budget::default();
    let (a, progress) = separate(&asys, &budget, true, completes_m);
    assert_eq!(a.outcome, Outcome::Complete, "deadlock-free");
    assert_eq!(progress.witness_outcome, Some(Outcome::Livelock));
    assert!(progress.livelocked_states > 0 && progress.deadlocked_states == 0);
    let equation1 = check_simulation(&asys, &rv, &budget);
    assert!(equation1.holds(), "{equation1:?}");
    for threads in [0usize, 2] {
        let (fa, fequation1, fprogress) =
            fused(&asys, &asys, &rv, &budget, true, threads, completes_m);
        assert_eq!((&fa, &fequation1), (&a, &equation1), "t={threads}");
        assert_eq!(fprogress, progress, "t={threads}: counts, witness and trail");
        let trail = fprogress.witness.as_deref().expect("witness");
        assert!(!trail.is_empty(), "the initial state can still complete m");
        replay_trail(&asys, trail).expect("the witness replays");
    }
    // The same on the quotient: the progress check reports what its
    // quotient sweep does, and Equation 1 still holds.
    assert!(spec_permutable(&spec));
    let red = Reduced::new(&asys);
    let (ra, rprogress) = separate(&red, &budget, true, completes_m);
    let (fa, requation1, fprogress) = fused(&red, &asys, &rv, &budget, true, 2, completes_m);
    assert_eq!(fa, ra);
    assert_eq!(fprogress, rprogress);
    assert!(requation1.holds(), "{requation1:?}");
    assert_eq!(rprogress.witness_outcome, Some(Outcome::Livelock));
}

/// An unsound refinement (`migratory` with one acked send made
/// fire-and-forget, the way `migratory_broken` is broken): the violating
/// edge is latched — its text and the counts as they stood are
/// `check_simulation`'s — and the sweep goes on, to wherever the
/// exploration alone gets (here: the executor trapping on the ack nobody
/// awaits).
#[test]
fn an_equation_1_violation_is_latched_and_the_sweep_goes_on() {
    let spec = load("migratory");
    let mut refined = refine(&spec, &RefineOptions::default()).expect("refines");
    assert!(inject_unsound(&mut refined));
    for n in [2u32, 3] {
        let rv = RendezvousSystem::new(&spec, n);
        let asys = AsyncSystem::new(&refined, n, AsyncConfig::default());
        let budget = Budget::default();
        let equation1 = check_simulation(&asys, &rv, &budget);
        let violation = equation1.violation.as_deref().expect("the injection is unsound");
        assert!(violation.contains("maps to an impossible rendezvous step"), "{violation}");
        // Without the deadlock check the exploration runs on past the
        // violating edge.
        let (a, progress) = separate(&asys, &budget, false, completes);
        assert!(rode_it_all(&a), "{:?}", a.outcome);
        assert!(a.states > equation1.async_states && a.transitions > equation1.transitions_checked);
        for threads in [0usize, 2] {
            let (fa, fequation1, fprogress) =
                fused(&asys, &asys, &rv, &budget, false, threads, completes);
            assert_eq!(fequation1, equation1, "n={n} t={threads}");
            assert_eq!((fa, fprogress), (a.clone(), progress.clone()), "n={n} t={threads}");
        }
    }
}

/// States an audited table sweep may visit: every step it takes from the
/// table is walked again, so the debug build visits fewer.
const AUDITED: usize = if cfg!(debug_assertions) { 3_000 } else { 100_000 };

/// The exploration of `asys` by the local-step table, every rule group it
/// answers walked again at the state itself, against the walking
/// exploration (an invariant reads states, so the sweep walks): whole
/// reports, and no step of the table's other than the walk's. Returns the
/// groups the table answered.
fn table_against_walk(asys: &AsyncSystem<'_>, budget: &Budget, context: &str) -> u64 {
    let audit = StepAudit::new();
    let mut null = ccr_trace::NullSink;
    let mut obs = SearchObserver::new(&mut null);
    let tabled = Search { step_audit: Some(&audit), ..search(true, 0) };
    let tabled = timeless(tabled.explore(asys, budget, None, &mut obs));
    let seen = audit.report();
    assert_eq!((seen.disagreements, seen.first), (0, None), "{context}");
    let walked = search(true, 0).explore(asys, budget, Some(&|_: &AsyncState| None), &mut obs);
    assert_eq!(tabled, timeless(walked), "{context}");
    seen.hits
}

#[test]
fn the_local_step_table_gives_the_walks_steps_on_every_shipped_spec_and_the_zoo() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("specs");
    let mut shipped: Vec<String> = std::fs::read_dir(&dir)
        .expect("specs/")
        .filter_map(|e| e.ok()?.path().file_stem()?.to_str().map(str::to_string))
        .collect();
    shipped.sort();
    assert_eq!(shipped.len(), 12, "every shipped spec: {shipped:?}");
    let mut hits = 0;
    for name in &shipped {
        let spec = load(name);
        let refined = refine(&spec, &RefineOptions::default())
            .unwrap_or_else(|e| panic!("{name}: refine: {e}"));
        for n in [2u32, 3] {
            let asys = AsyncSystem::new(&refined, n, AsyncConfig::default());
            hits += table_against_walk(&asys, &Budget::states(AUDITED), &format!("{name} n={n}"));
        }
    }
    let zoo_budget = Budget::states(if cfg!(debug_assertions) { 300 } else { 3_000 });
    let mut swept = 0;
    for index in 0..200 {
        let Ok(spec) = ZooSpec::generate(1998, index).build() else { continue };
        let Ok(refined) = refine(&spec, &RefineOptions::default()) else { continue };
        let asys = AsyncSystem::new(&refined, 3, AsyncConfig::default());
        hits += table_against_walk(&asys, &zoo_budget, &format!("zoo_1998_{index}"));
        swept += 1;
    }
    assert!(swept >= 150 && hits > 0, "{swept} zoo specs swept, {hits} groups from the table");
}

/// `ccr verify`'s sweep of `asys` with every image Equation 1's memo
/// hands out held to `abs` of the state read back, against the unaudited
/// sweep: whole reports, and no image other than `abs`'s. Returns the
/// images audited.
fn memo_against_abs(
    asys: &AsyncSystem<'_>,
    rv: &RendezvousSystem<'_>,
    budget: &Budget,
    context: &str,
) -> u64 {
    let audit = ImageAudit::new();
    let audited = Search { image_audit: Some(&audit), ..search(false, 0) };
    let (a, equation1, progress) = fused(asys, asys, rv, budget, false, 0, completes);
    let mut null = ccr_trace::NullSink;
    let mut obs = SearchObserver::new(&mut null);
    let (aa, aequation1, agraph) = audited.verify(asys, asys, rv, budget, completes, &mut obs);
    let seen = audit.report();
    assert_eq!((seen.disagreements, seen.first), (0, None), "{context}");
    assert_eq!((timeless(aa), aequation1), (a, equation1), "{context}");
    assert_eq!(agraph.check(asys, &mut obs), progress, "{context}");
    seen.images
}

#[test]
fn the_image_memo_gives_abs_on_every_shipped_spec_and_the_zoo() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("specs");
    let mut shipped: Vec<String> = std::fs::read_dir(&dir)
        .expect("specs/")
        .filter_map(|e| e.ok()?.path().file_stem()?.to_str().map(str::to_string))
        .collect();
    shipped.sort();
    assert_eq!(shipped.len(), 12, "every shipped spec: {shipped:?}");
    let mut images = 0;
    for name in &shipped {
        let spec = load(name);
        let refined = refine(&spec, &RefineOptions::default())
            .unwrap_or_else(|e| panic!("{name}: refine: {e}"));
        for n in [2u32, 3] {
            let rv = RendezvousSystem::new(&spec, n);
            let asys = AsyncSystem::new(&refined, n, AsyncConfig::default());
            images +=
                memo_against_abs(&asys, &rv, &Budget::states(AUDITED), &format!("{name} n={n}"));
        }
    }
    let zoo_budget = Budget::states(if cfg!(debug_assertions) { 300 } else { 3_000 });
    let mut swept = 0;
    for index in 0..200 {
        let Ok(spec) = ZooSpec::generate(1998, index).build() else { continue };
        let Ok(refined) = refine(&spec, &RefineOptions::default()) else { continue };
        let rv = RendezvousSystem::new(&spec, 3);
        let asys = AsyncSystem::new(&refined, 3, AsyncConfig::default());
        images += memo_against_abs(&asys, &rv, &zoo_budget, &format!("zoo_1998_{index}"));
        swept += 1;
    }
    assert!(swept >= 150 && images > 0, "{swept} zoo specs swept, {images} images audited");
}
