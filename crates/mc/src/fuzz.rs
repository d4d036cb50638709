//! Derivation fuzzing: the differential pipeline behind `ccr fuzz`.
//!
//! Each spec from the [`ccr_core::zoo`] generator runs through the whole
//! derivation stack as one property:
//!
//! 1. **build + validate** — the shape lowers to a §2.4-valid spec;
//! 2. **text round-trip** — `parse(print(spec)) == spec` through
//!    [`ccr_core::text`];
//! 3. **refine** (both with and without the req/repl optimization), the
//!    **inplace** check — successors built in the sweep's scratch state
//!    must be the owned ones, the scratch state must come back as it
//!    was, a fired step must leave the rule groups it does not flag as
//!    they were, and the per-process shares of the rules must compose to
//!    the whole ([`inplace_divergence`]) — and the **Equation 1** check: no reachable asynchronous transition may fall
//!    outside the stuttering simulation — and the **fused** re-check:
//!    Equation 1 and the progress check riding the exploration's sweep
//!    ([`Search::verify`]) must report what the three report on sweeps of
//!    their own, with and without threads, whether or not the refinement
//!    is sound, every image Equation 1's memo hands out being `abs` of its
//!    state ([`ImageAudit`]) — and on the symmetry quotient's sweep
//!    Equation 1 must reach the concrete verdict;
//! 4. **serial model-check** of the rendezvous and asynchronous systems
//!    (safety: no executor runtime failure; deadlock/livelock are allowed —
//!    random protocols block all the time — but must be *reported*, not
//!    crashed on), every key the sweeps store or find read back from the
//!    visited set's tuple of segments and held to the plain encoding
//!    ([`KeyAudit`]), and the **local-steps** re-check: the asynchronous
//!    exploration by the local-step table must report what the walking
//!    sweep did, and every rule group the table answers, walked again at
//!    the state, must give the table's steps ([`StepAudit`]);
//! 5. **threaded re-check** at 2 and 4 threads — states, transitions and
//!    outcome must equal the serial run's on every outcome, violating and
//!    unfinished runs included, and so must the whole progress report;
//! 6. **symmetry re-check** — when the spec passes the scalarset test, the
//!    reduced system must report the same with and without threads and
//!    agree with the full system on the verdict, and every key its serial
//!    sweep derives from a parent's orbit must be the full
//!    canonicalization's ([`Reduced::audited`]) and read back from its
//!    tuple as itself;
//! 7. **bounded fault-closure** — the serial and the threaded closure
//!    reports must be equal.
//!
//! A spec *fails* when any stage errors, Equation 1 is violated, a
//! threaded run differs from its serial twin, or an executor assertion
//! trips. Failures feed the
//! [`shrink_failing`] greedy shrinker, which walks
//! [`ZooSpec::shrink_candidates`] until no strictly smaller shape still
//! fails.
//!
//! For shrinker tests and CI's negative case there is [`FuzzConfig::inject`]:
//! after refinement it marks one acked remote send as fire-and-forget (a
//! `migratory_broken`-shaped unsoundness — the completion protocol is
//! desynchronized), which the pipeline must then catch.

use crate::faultmode::check_fault_closure;
use crate::progress::check_progress_default;
use crate::report::{ExploreReport, Outcome, SearchReport, SimRelReport};
use crate::search::{Budget, Search, SearchObserver};
use crate::simrel::{check_simulation, ImageAudit};
use crate::steps::StepAudit;
use crate::store::{KeyAudit, StateStore};
use crate::symmetry::{spec_permutable, Reduced};
use ccr_core::ids::{ProcessId, RemoteId};
use ccr_core::process::{CommAction, ProtocolSpec};
use ccr_core::refine::{refine, BranchKey, RefineOptions, RefinedProtocol, ReqRepMode};
use ccr_core::text::{parse_validated, to_text};
use ccr_core::zoo::ZooSpec;
use ccr_runtime::asynch::{AsyncConfig, AsyncState, AsyncSystem};
use ccr_runtime::rendezvous::RendezvousSystem;
use ccr_runtime::wire::Link;
use ccr_runtime::{FaultClosure, Label, RuntimeError, TransitionSystem};
use ccr_trace::NullSink;
use std::collections::VecDeque;
use std::fmt;
use std::ops::ControlFlow;
use std::time::Duration;

/// Tuning for one fuzzing run. Everything here is part of the reproducible
/// fingerprint: the same config + seed must give the same verdicts.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Remote process count for every built system.
    pub n: u32,
    /// State budget per exploration stage (an `Unfinished` stage is not a
    /// failure, it just bounds the differential claim to the prefix).
    pub budget_states: usize,
    /// Thread counts for the threaded re-checks.
    pub threads: Vec<usize>,
    /// Fault budget for the closure stage; 0 disables it.
    pub fault_budget: u32,
    /// Deterministically inject a `migratory_broken`-shaped unsoundness
    /// after refinement (see [`inject_unsound`]). Test/CI hook.
    pub inject: bool,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            n: 2,
            budget_states: 20_000,
            threads: vec![2, 4],
            fault_budget: 1,
            inject: false,
        }
    }
}

/// Why a spec failed the pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FuzzFailure {
    /// The shape did not lower to a valid spec (never expected from
    /// `generate`; shrink candidates may hit it and are skipped).
    Build(String),
    /// `parse(print(spec))` errored or produced a different spec.
    RoundTrip(String),
    /// The refinement procedure itself errored.
    Refine(String),
    /// Equation 1 violated (the derived protocol is unsound).
    Soundness {
        /// Which req/repl mode was being checked.
        mode: &'static str,
        /// The violating edge, as reported by the simulation check.
        detail: String,
    },
    /// An executor assertion tripped during exploration.
    Runtime {
        /// Which stage tripped it.
        stage: &'static str,
        /// The runtime error message.
        detail: String,
    },
    /// Two runs that must agree (serial and threaded, full and reduced)
    /// did not.
    Mismatch {
        /// Which pair disagreed.
        what: String,
        /// Both sides, rendered.
        detail: String,
    },
}

impl fmt::Display for FuzzFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FuzzFailure::Build(e) => write!(f, "build: {e}"),
            FuzzFailure::RoundTrip(e) => write!(f, "round-trip: {e}"),
            FuzzFailure::Refine(e) => write!(f, "refine: {e}"),
            FuzzFailure::Soundness { mode, detail } => {
                write!(f, "soundness[{mode}]: {detail}")
            }
            FuzzFailure::Runtime { stage, detail } => write!(f, "runtime[{stage}]: {detail}"),
            FuzzFailure::Mismatch { what, detail } => write!(f, "mismatch[{what}]: {detail}"),
        }
    }
}

impl FuzzFailure {
    /// Short classification tag for tables and metrics.
    pub fn kind(&self) -> &'static str {
        match self {
            FuzzFailure::Build(_) => "build",
            FuzzFailure::RoundTrip(_) => "roundtrip",
            FuzzFailure::Refine(_) => "refine",
            FuzzFailure::Soundness { .. } => "soundness",
            FuzzFailure::Runtime { .. } => "runtime",
            FuzzFailure::Mismatch { .. } => "mismatch",
        }
    }
}

/// Verdict for one spec through the whole pipeline.
#[derive(Debug, Clone)]
pub struct SpecVerdict {
    /// Spec name (`zoo_<seed>_<index>` for generated specs).
    pub name: String,
    /// Did the spec pass the scalarset check (symmetry stage active)?
    pub permutable: bool,
    /// Rendezvous states explored (serial).
    pub rv_states: usize,
    /// Asynchronous states explored (serial, Auto mode).
    pub async_states: usize,
    /// Asynchronous transitions explored (serial, Auto mode).
    pub async_transitions: usize,
    /// Serial asynchronous outcome (None if the pipeline failed earlier).
    pub outcome: Option<Outcome>,
    /// Whether §2.5 progress held on the async system.
    pub progress_holds: Option<bool>,
    /// Whether the bounded fault closure held (None when disabled or
    /// skipped).
    pub fault_holds: Option<bool>,
    /// The first failure, if any.
    pub failure: Option<FuzzFailure>,
}

impl SpecVerdict {
    /// True when every stage passed (deadlock/livelock outcomes count as
    /// passes: arbitrary protocols may block, they must not be unsound).
    pub fn passed(&self) -> bool {
        self.failure.is_none()
    }

    fn failed(name: &str, failure: FuzzFailure) -> SpecVerdict {
        SpecVerdict {
            name: name.to_string(),
            permutable: false,
            rv_states: 0,
            async_states: 0,
            async_transitions: 0,
            outcome: None,
            progress_holds: None,
            fault_holds: None,
            failure: Some(failure),
        }
    }
}

/// Deterministically breaks a refined protocol the way `migratory_broken`
/// is broken: the first remote send branch that still awaits an ack is
/// marked fire-and-forget, so the home's ack arrives at a remote that no
/// longer expects one. Returns `false` (protocol unchanged) when every
/// remote send is already completion-free — such specs cannot host this
/// injection and a shrinker driving it will not adopt them.
pub fn inject_unsound(refined: &mut RefinedProtocol) -> bool {
    let mut keys: Vec<BranchKey> = Vec::new();
    for (si, st) in refined.spec.remote.states.iter().enumerate() {
        for (bi, br) in st.branches.iter().enumerate() {
            if let CommAction::Send { .. } = br.action {
                let key = (ccr_core::ids::StateId(si as u32), bi as u32);
                if !refined.remote_fire_forget.contains(&key)
                    && !refined.remote_reply.contains_key(&key)
                {
                    keys.push(key);
                }
            }
        }
    }
    match keys.first() {
        Some(&key) => {
            refined.remote_fire_forget.insert(key);
            true
        }
        None => false,
    }
}

/// The `inplace` stage, over at most `max_states` states of `sys` in
/// breadth-first order. At each one the reference is what
/// [`TransitionSystem::fire`] makes of it at every `(group, ordinal)`,
/// each fired from a fresh copy. Against it, the walk over every group
/// ([`TransitionSystem::for_each_successor_in`]) must show those
/// successors — the same labels on the same states, in the same order —
/// and end as they do, leaving its scratch state equal to the state
/// expanded; so must the rule groups, walked one at a time, each
/// successor said to be of the group walked; every group a fired step
/// does not flag must list at the new state the labels it listed before
/// the step; and the system's per-process shares, if it has any, must
/// compose to it ([`Shares::shares_check`]). Where the reference ends in
/// an error, a walk must end in it too, after showing the reference's
/// successors and at most one more: the one whose rule failed once it
/// was built. Returns the first divergence, described.
pub fn inplace_divergence<T: Shares>(sys: &T, max_states: usize) -> Option<String> {
    let mut shares = sys.shares_check();
    let mut seen = StateStore::new();
    let mut queue = VecDeque::from([sys.initial()]);
    let mut key = Vec::new();
    sys.encode(&queue[0], &mut key);
    seen.insert(&key);
    let mut expanded = 0usize;
    while let Some(s) = queue.pop_front() {
        let at = format!("state #{expanded} ({:02x?})", sys.encoded(&s));
        let mut fired = match fire_all(sys, &s) {
            Ok(fired) => fired,
            Err(divergence) => return Some(format!("{at}: {divergence}")),
        };
        let ended = fired.ended(None);
        let mut scratch = s.clone();
        let walked = walk(sys, &s, &mut scratch, &|_| true, &fired.owned);
        let divergence = if scratch != s {
            Some("the scratch state was not put back".to_string())
        } else if !walked.shows(fired.owned.len(), &ended) {
            Some(format!("fired {:?} ({ended:?}), {walked}", rules(&fired.owned)))
        } else {
            group_divergence(sys, &s, &mut scratch, &fired)
        };
        // What a fired step leaves clean, and how the shares compose, is
        // left open on a state whose enumeration failed (a simulator
        // enumerates first and stops there).
        let divergence = divergence.or_else(|| {
            ended.is_ok().then(|| clean_divergence(sys, &mut scratch, &fired)).flatten()
        });
        let divergence =
            divergence.or_else(|| ended.is_ok().then(|| shares(&s, &fired.owned)).flatten());
        if let Some(divergence) = divergence {
            return Some(format!("{at}: {divergence}"));
        }
        expanded += 1;
        for (_, next) in fired.owned.drain(..) {
            sys.encode(&next, &mut key);
            if seen.len() < max_states && seen.insert(&key).1 {
                queue.push_back(next);
            }
        }
    }
    None
}

/// What [`TransitionSystem::fire`] makes of a state: its successors in
/// group order, each with its group and the groups its step flagged, up
/// to the error the walk of a group met, if one did.
struct Fired<T: TransitionSystem> {
    owned: Vec<(Label, T::State)>,
    of: Vec<(usize, Vec<bool>)>,
    /// The group whose walk failed, and how.
    failed: Option<(usize, RuntimeError)>,
}

impl<T: TransitionSystem> Fired<T> {
    /// How the walk of group `group` — of every group, if `None` — ends.
    fn ended(&self, group: Option<usize>) -> ccr_runtime::Result<()> {
        match &self.failed {
            Some((g, e)) if group.is_none_or(|group| group == *g) => Err(e.clone()),
            _ => Ok(()),
        }
    }
}

/// The rules of the transitions in `list`.
fn rules<S>(list: &[(Label, S)]) -> Vec<&'static str> {
    list.iter().map(|(l, _)| l.rule).collect()
}

/// Fires `s` at every `(group, ordinal)`, each from a fresh copy: up to
/// one past each group's last, which must write nothing and flag nothing,
/// or to the first error, which must leave both states and the flags as
/// they were. Every step must leave the scratch state equal to the state
/// it wrote.
fn fire_all<T: TransitionSystem>(sys: &T, s: &T::State) -> Result<Fired<T>, String> {
    let mut fired = Fired { owned: Vec::new(), of: Vec::new(), failed: None };
    let (mut from, mut scratch) = (s.clone(), s.clone());
    let mut dirty = vec![false; sys.groups()];
    for group in 0..dirty.len() {
        for ordinal in 0.. {
            dirty.fill(false);
            let step = sys.fire(&mut from, &mut scratch, group, ordinal, &mut dirty);
            let at = format!("fire({group}, {ordinal})");
            let Ok(Some(label)) = step else {
                if from != *s || scratch != *s || dirty.contains(&true) {
                    return Err(format!(
                        "{at} gave {step:?}, yet wrote a state or flagged {dirty:?}"
                    ));
                }
                if let Err(e) = step {
                    fired.failed = Some((group, e));
                    return Ok(fired);
                }
                break;
            };
            if scratch != from {
                return Err(format!(
                    "{at} by {:?}: state {:02x?}, scratch {:02x?}",
                    label.rule,
                    sys.encoded(&from),
                    sys.encoded(&scratch)
                ));
            }
            fired.owned.push((label, std::mem::replace(&mut from, s.clone())));
            fired.of.push((group, dirty.clone()));
            scratch.clone_from(s);
        }
    }
    Ok(fired)
}

/// What a walk showed, each label with the group it was said to be of;
/// how many of those came as the reference it was held to has them,
/// label and state; and how it ended.
struct Walked {
    shown: Vec<(usize, Label)>,
    alike: usize,
    ended: ccr_runtime::Result<()>,
}

impl Walked {
    /// Whether this is a reference of `len` successors that ended as
    /// `ended`: the same successors and ending — or, where that is an
    /// error, the same error after those successors and at most one more.
    fn shows(&self, len: usize, ended: &ccr_runtime::Result<()>) -> bool {
        let extra = usize::from(ended.is_err());
        self.ended == *ended && self.alike == len && self.shown.len() <= len + extra
    }
}

impl fmt::Display for Walked {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rules: Vec<_> = self.shown.iter().map(|(g, l)| (g, l.rule)).collect();
        write!(f, "walked {rules:?} ({:?}), the first {} alike", self.ended, self.alike)
    }
}

/// The walk of the groups `wanted` selects, held to `reference`.
/// (`wanted` is a trait object so that the three callers share one
/// instance of the walk.)
fn walk<T: TransitionSystem>(
    sys: &T,
    s: &T::State,
    scratch: &mut T::State,
    wanted: &dyn Fn(usize) -> bool,
    reference: &Listed<T>,
) -> Walked {
    let (mut shown, mut alike) = (Vec::new(), 0);
    let ended = sys.for_each_successor_in(s, scratch, wanted, |g, label, next, _| {
        if reference.get(shown.len()).is_some_and(|(l, n)| *l == label && n == next) {
            alike += 1;
        }
        shown.push((g, label));
        ControlFlow::Continue(())
    });
    Walked { shown, alike, ended }
}

/// The rule groups of `s`, which `scratch` equals, walked one at a time
/// up to the one that fails: each must show what `fired` has of it,
/// every successor said to be of the group walked, and give `scratch`
/// back.
fn group_divergence<T: TransitionSystem>(
    sys: &T,
    s: &T::State,
    scratch: &mut T::State,
    fired: &Fired<T>,
) -> Option<String> {
    let mut listed = 0;
    for g in 0..sys.groups() {
        let mine = fired.of[listed..].iter().take_while(|(of, _)| *of == g).count();
        let reference = &fired.owned[listed..listed + mine];
        let ended = fired.ended(Some(g));
        let walked = walk(sys, s, scratch, &|of| of == g, reference);
        let tagged = walked.shown.iter().all(|(of, _)| *of == g);
        if !tagged || *scratch != *s || !walked.shows(mine, &ended) {
            return Some(format!("group {g}: fired {:?} ({ended:?}), {walked}", rules(reference)));
        }
        if ended.is_err() {
            break;
        }
        listed += mine;
    }
    None
}

/// For every successor in `fired`, of a state whose walk did not fail:
/// every group the step did not flag must list at the new state, which
/// `scratch` is made equal to, the labels it listed before, and not fail.
fn clean_divergence<T: TransitionSystem>(
    sys: &T,
    scratch: &mut T::State,
    fired: &Fired<T>,
) -> Option<String> {
    for ((label, next), (group, dirty)) in fired.owned.iter().zip(&fired.of) {
        scratch.clone_from(next);
        let after = walk(sys, next, scratch, &|g| !dirty[g], &[]);
        let before = fired.owned.iter().zip(&fired.of).filter(|(_, (g, _))| !dirty[*g]);
        let before = before.map(|((l, _), (g, _))| (*g, l));
        if after.ended.is_err() || !before.eq(after.shown.iter().map(|(g, l)| (*g, l))) {
            return Some(format!(
                "fire({group}) by {:?} flags {dirty:?}, but the groups it leaves clean list: {after}",
                label.rule
            ));
        }
    }
    None
}

/// A system [`inplace_divergence`] can walk. One whose rules are also run
/// a process at a time, each node of a machine stepping its own share
/// ([`AsyncSystem::restricted_to`]), says here what makes the whole
/// system the composition of those shares.
pub trait Shares: TransitionSystem {
    /// A check to run at every visited state, given the state and its
    /// successors: the first way, described, in which the shares fail to
    /// compose to them. The default, for a system that has no shares,
    /// finds nothing.
    fn shares_check(&self) -> impl FnMut(&Self::State, &Listed<Self>) -> Option<String> + '_ {
        |_, _| None
    }
}

/// A state's successors, as [`TransitionSystem::successors`] lists them.
type Listed<T> = [(Label, <T as TransitionSystem>::State)];

impl Shares for RendezvousSystem<'_> {}
impl Shares for FaultClosure<'_> {}

/// The three facts that make the nodes of a machine, each holding its own
/// slice and its ends of the links, the system itself (DESIGN.md, "Three
/// emitters, one set of rules"): **partition** — a share's walk is the
/// whole walk's successors with its process as the actor, in their order
/// there; **write-locality** — a step changes its process's slice, pops
/// links that end at the process, pushes links that start at it, and
/// nothing else; **read-locality** — with every slice the process does
/// not own blanked (as it was initially, which is how a node holds it),
/// its share shows the same labels and writes the same.
impl Shares for AsyncSystem<'_> {
    fn shares_check(&self) -> impl FnMut(&AsyncState, &Listed<Self>) -> Option<String> + '_ {
        let nodes: Vec<_> = std::iter::once(ProcessId::Home)
            .chain((0..self.n()).map(|i| ProcessId::Remote(RemoteId(i))))
            .map(|who| (who, self.clone().restricted_to(who)))
            .collect();
        // A node holds every slice it does not own as it was initially.
        let blank = self.initial();
        let (mut own, mut blind) = (Vec::new(), Vec::new());
        move |s, all| {
            nodes.iter().find_map(|&(who, ref node)| {
                let walked = node.successors(s, &mut own);
                if walked.is_err() || !own.iter().eq(all.iter().filter(|(l, _)| l.actor == who)) {
                    let rules: Vec<_> = own.iter().map(|(l, _)| l.rule).collect();
                    return Some(format!("{who}'s share is {rules:?} ({walked:?})"));
                }
                for (label, next) in &own {
                    let mut kept = next.clone();
                    graft(who, s, &mut kept);
                    let links_kept = ends(who, s).zip(ends(who, next)).all(|(was, is)| {
                        let popped = was.0.len().saturating_sub(is.0.len());
                        is.0.iter().eq(was.0.iter().skip(popped))
                            && was.1.iter().eq(is.1.iter().take(was.1.len()))
                    });
                    if kept != *next || !links_kept {
                        return Some(format!("{who}'s {:?} wrote what is not its own", label.rule));
                    }
                }
                let mut blanked = s.clone();
                graft(who, &blank, &mut blanked);
                let walked = node.successors(&blanked, &mut blind);
                blind.iter_mut().for_each(|(_, next)| graft(who, s, next));
                (walked.is_err() || blind != own).then(|| {
                    let rules: Vec<_> = blind.iter().map(|(l, _)| l.rule).collect();
                    format!(
                        "{who}'s share reads what is not its own: blind, {rules:?} ({walked:?})"
                    )
                })
            })
        }
    }
}

/// `who`'s ends of the links of `s`, a pair for each remote slice that
/// holds any: the link it receives on, the link it sends on.
fn ends(who: ProcessId, s: &AsyncState) -> impl Iterator<Item = (&Link, &Link)> {
    s.remotes.iter().enumerate().filter_map(move |(i, r)| match who {
        ProcessId::Home => Some((&r.to_home, &r.to_remote)),
        ProcessId::Remote(own) => (own.index() == i).then_some((&r.to_remote, &r.to_home)),
    })
}

/// Copies every slice that `who` does not own from `from` onto `onto`:
/// for the home each remote's control state, variables and buffer, for a
/// remote the home and every other remote with its links.
fn graft(who: ProcessId, from: &AsyncState, onto: &mut AsyncState) {
    match who {
        ProcessId::Home => {
            for (a, b) in from.remotes.iter().zip(&mut onto.remotes) {
                (b.phase, b.buf) = (a.phase, a.buf);
                b.env.clone_from(&a.env);
            }
        }
        ProcessId::Remote(r) => {
            onto.home.clone_from(&from.home);
            for (j, (a, b)) in from.remotes.iter().zip(&mut onto.remotes).enumerate() {
                if j != r.index() {
                    b.clone_from(a);
                }
            }
        }
    }
}

/// Threads are invisible: `threaded` must be `serial`, field for field.
fn cmp_threaded<R: PartialEq + fmt::Debug>(
    what: String,
    serial: &R,
    threaded: &R,
) -> Option<FuzzFailure> {
    (serial != threaded).then(|| FuzzFailure::Mismatch {
        detail: format!("serial {serial:?} vs {what} {threaded:?}"),
        what,
    })
}

/// [`inplace_divergence`] as a stage of the pipeline.
fn inplace_mismatch(
    asys: &AsyncSystem<'_>,
    mode: &'static str,
    cfg: &FuzzConfig,
) -> Option<FuzzFailure> {
    inplace_divergence(asys, cfg.budget_states)
        .map(|detail| FuzzFailure::Mismatch { what: format!("inplace-{mode}"), detail })
}

/// Everything a report says but its wall time.
fn key_of(r: &ExploreReport) -> (usize, usize, usize, usize, &Outcome) {
    (r.states, r.transitions, r.store_bytes, r.peak_frontier, &r.outcome)
}

/// The `fused` stage. The exploration, Equation 1 (`sim`, already
/// checked alone) and the progress check on one sweep of `asys` must
/// report what each reports on a sweep of its own — with the deadlock
/// check off, so that the riders see the whole space, and on, where a
/// deadlock ends the sweep and only the exploration is comparable. On one
/// sweep of the symmetry quotient the exploration and the progress check
/// must report what their quotient sweeps do, and Equation 1 must reach
/// the concrete verdict wherever both sweeps ran to their end.
fn fused_mismatch(
    asys: &AsyncSystem<'_>,
    rv: &RendezvousSystem<'_>,
    sim: &SimRelReport,
    budget: &Budget,
    cfg: &FuzzConfig,
    permutable: bool,
) -> Option<FuzzFailure> {
    let mut null = NullSink;
    let mut obs = SearchObserver::new(&mut null);
    let timeless = |r: SearchReport| SearchReport { elapsed: Duration::ZERO, ..r };
    let completes = |l: &ccr_runtime::Label| l.completes.is_some();
    // Whether a sweep the exploration ended this way showed its riders
    // what sweeps of their own would have seen.
    let rode_it_all = |o: &Outcome| !matches!(o, Outcome::Deadlock | Outcome::InvariantViolated(_));
    // Whether it swept on until the space or the executor ran out.
    let swept_to_end = |o: &Outcome| matches!(o, Outcome::Complete | Outcome::RuntimeFailure(_));
    let verdict = |s: &SimRelReport| (s.holds(), s.violation.is_some(), s.complete);
    let prog = check_progress_default(asys, budget);
    let red = Reduced::new(asys);
    let red_prog = permutable.then(|| check_progress_default(&red, budget));
    // Every image the concrete sweeps' memo hands out, held to `abs`.
    let images = ImageAudit::new();
    for check_deadlock in [false, true] {
        let alone = Search { check_deadlock, trails: true, ..Search::default() };
        let a = timeless(alone.explore(asys, budget, None, &mut obs));
        let red_a = permutable.then(|| timeless(alone.explore(&red, budget, None, &mut obs)));
        for threads in std::iter::once(0).chain(cfg.threads.first().copied()) {
            let search = Search { threads, ..alone };
            let what = |on: &str| format!("fused-{on}-{threads}t");
            let audited = Search { image_audit: Some(&images), ..search };
            let (fa, fsim, graph) = audited.verify(asys, asys, rv, budget, completes, &mut obs);
            let fa = timeless(fa);
            let mut failure = cmp_threaded(what("explore"), &a, &fa);
            if rode_it_all(&a.outcome) {
                let fprog = graph.check(asys, &mut obs);
                failure = failure
                    .or_else(|| cmp_threaded(what("equation1"), sim, &fsim))
                    .or_else(|| cmp_threaded(what("progress"), &prog, &fprog));
            }
            if let (Some(red_a), Some(red_prog)) = (&red_a, &red_prog) {
                let (ra, rsim, graph) = search.verify(&red, asys, rv, budget, completes, &mut obs);
                failure =
                    failure.or_else(|| cmp_threaded(what("sym-explore"), red_a, &timeless(ra)));
                if rode_it_all(&red_a.outcome) {
                    let fprog = graph.check(&red, &mut obs);
                    failure =
                        failure.or_else(|| cmp_threaded(what("sym-progress"), red_prog, &fprog));
                }
                if swept_to_end(&a.outcome) && swept_to_end(&red_a.outcome) {
                    failure = failure.or_else(|| {
                        cmp_threaded(what("sym-equation1"), &verdict(&fsim), &verdict(&rsim))
                    });
                }
            }
            if failure.is_some() {
                return failure;
            }
            if let Some(detail) = images.report().first {
                return Some(FuzzFailure::Mismatch { what: what("image-memo"), detail });
            }
        }
    }
    None
}

/// Runs one spec through the full differential pipeline.
pub fn run_spec(spec: &ProtocolSpec, cfg: &FuzzConfig) -> SpecVerdict {
    let budget = Budget::states(cfg.budget_states);
    let name = spec.name.clone();

    // Stage 2: text round-trip.
    match parse_validated(&to_text(spec)) {
        Err(e) => return SpecVerdict::failed(&name, FuzzFailure::RoundTrip(e.to_string())),
        Ok(back) if &back != spec => {
            return SpecVerdict::failed(
                &name,
                FuzzFailure::RoundTrip("parse(print(spec)) != spec".to_string()),
            )
        }
        Ok(_) => {}
    }

    // Stage 3a: refinement with the req/repl detector off is checked for
    // Equation 1 only — it shares the executor with Auto mode, so the
    // differential battery below would be redundant work.
    let rv = RendezvousSystem::new(spec, cfg.n);
    let permutable = spec_permutable(spec);
    match refine(spec, &RefineOptions { reqrep: ReqRepMode::Off }) {
        Err(e) => return SpecVerdict::failed(&name, FuzzFailure::Refine(e.to_string())),
        Ok(mut refined) => {
            if cfg.inject {
                inject_unsound(&mut refined);
            }
            let asys = AsyncSystem::new(&refined, cfg.n, AsyncConfig::default());
            if let Some(f) = inplace_mismatch(&asys, "off", cfg) {
                return SpecVerdict::failed(&name, f);
            }
            let sim = check_simulation(&asys, &rv, &budget);
            if let Some(f) = fused_mismatch(&asys, &rv, &sim, &budget, cfg, permutable) {
                return SpecVerdict::failed(&name, f);
            }
            if let Some(v) = sim.violation {
                return SpecVerdict::failed(
                    &name,
                    FuzzFailure::Soundness { mode: "off", detail: v },
                );
            }
        }
    }

    // Stage 3b: the Auto-mode refinement carries the full battery.
    let mut refined = match refine(spec, &RefineOptions { reqrep: ReqRepMode::Auto }) {
        Ok(r) => r,
        Err(e) => return SpecVerdict::failed(&name, FuzzFailure::Refine(e.to_string())),
    };
    if cfg.inject {
        inject_unsound(&mut refined);
    }
    let asys = AsyncSystem::new(&refined, cfg.n, AsyncConfig::default());
    if let Some(f) = inplace_mismatch(&asys, "auto", cfg) {
        return SpecVerdict::failed(&name, f);
    }

    let sim = check_simulation(&asys, &rv, &budget);
    if let Some(f) = fused_mismatch(&asys, &rv, &sim, &budget, cfg, permutable) {
        return SpecVerdict::failed(&name, f);
    }
    if let Some(v) = sim.violation {
        return SpecVerdict::failed(&name, FuzzFailure::Soundness { mode: "auto", detail: v });
    }

    // Stage 4: serial model checks, every key their sweeps store or find
    // read back from its tuple of segments and held to the plain encoding.
    let audit = KeyAudit::new();
    let audited = Search { check_deadlock: true, audit: Some(&audit), ..Search::default() };
    let mut null = NullSink;
    let mut obs = SearchObserver::new(&mut null);
    let rv_serial = audited.explore(&rv, &budget, None, &mut obs).explore_report();
    let a_serial = audited.explore(&asys, &budget, None, &mut obs).explore_report();
    let mut verdict = SpecVerdict {
        name: name.clone(),
        permutable,
        rv_states: rv_serial.states,
        async_states: a_serial.states,
        async_transitions: a_serial.transitions,
        outcome: Some(a_serial.outcome.clone()),
        progress_holds: None,
        fault_holds: None,
        failure: None,
    };
    for (stage, rep) in [("rendezvous", &rv_serial), ("async", &a_serial)] {
        if let Outcome::RuntimeFailure(e) = &rep.outcome {
            verdict.failure = Some(FuzzFailure::Runtime { stage, detail: e.to_string() });
            return verdict;
        }
    }
    if let Some(detail) = audit.report().mismatch {
        verdict.failure = Some(FuzzFailure::Mismatch { what: "collapsed-keys".into(), detail });
        return verdict;
    }
    // The same exploration by the local-step table (the key audit above
    // keeps that sweep walking), every step it takes from the table
    // walked again.
    let steps = StepAudit::new();
    let tabled = Search { check_deadlock: true, step_audit: Some(&steps), ..Search::default() };
    let t_serial = tabled.explore(&asys, &budget, None, &mut obs).explore_report();
    if let Some(detail) = steps.report().first {
        verdict.failure = Some(FuzzFailure::Mismatch { what: "local-steps".into(), detail });
        return verdict;
    }
    if let Some(f) = cmp_threaded("local-steps".into(), &key_of(&a_serial), &key_of(&t_serial)) {
        verdict.failure = Some(f);
        return verdict;
    }

    // Stage 5: threaded re-checks, exploration and progress.
    let threaded = |threads| Search { check_deadlock: true, threads, ..Search::default() };
    for &t in &cfg.threads {
        let fed = threaded(t).explore(&asys, &budget, None, &mut obs).explore_report();
        if let Some(f) = cmp_threaded(format!("async-{t}t"), &key_of(&a_serial), &key_of(&fed)) {
            verdict.failure = Some(f);
            return verdict;
        }
    }
    let prog = check_progress_default(&asys, &budget);
    verdict.progress_holds = Some(prog.holds());
    if let Some(&t) = cfg.threads.first() {
        let fed = threaded(t).progress(&asys, &budget, |l| l.completes.is_some(), &mut obs);
        if let Some(f) = cmp_threaded(format!("progress-{t}t"), &prog, &fed) {
            verdict.failure = Some(f);
            return verdict;
        }
    }

    // Stage 6: symmetry. The reduced system must report the same with and
    // without threads; against the full system only the verdict is
    // comparable (orbit counts differ by construction), and only when
    // both finished. The serial sweep audits the keys it derives.
    if permutable {
        let red = Reduced::audited(&asys);
        let r_serial = audited.explore(&red, &budget, None, &mut obs).explore_report();
        if let Some(detail) = red.audit().and_then(|a| a.mismatch) {
            verdict.failure = Some(FuzzFailure::Mismatch { what: "sym-derived".into(), detail });
            return verdict;
        }
        if let Some(detail) = audit.report().mismatch {
            verdict.failure = Some(FuzzFailure::Mismatch { what: "collapsed-keys".into(), detail });
            return verdict;
        }
        if let Some(&t) = cfg.threads.first() {
            let fed = threaded(t).explore(&red, &budget, None, &mut obs).explore_report();
            if let Some(f) = cmp_threaded(format!("sym-{t}t"), &key_of(&r_serial), &key_of(&fed)) {
                verdict.failure = Some(f);
                return verdict;
            }
        }
        let finished = !matches!(r_serial.outcome, Outcome::Unfinished)
            && !matches!(a_serial.outcome, Outcome::Unfinished);
        if finished && r_serial.outcome != a_serial.outcome {
            verdict.failure = Some(FuzzFailure::Mismatch {
                what: "sym-vs-full".to_string(),
                detail: format!(
                    "full outcome {:?} vs reduced outcome {:?}",
                    a_serial.outcome, r_serial.outcome
                ),
            });
            return verdict;
        }
        if r_serial.states > a_serial.states {
            verdict.failure = Some(FuzzFailure::Mismatch {
                what: "sym-blowup".to_string(),
                detail: format!(
                    "reduced explored {} states > full {}",
                    r_serial.states, a_serial.states
                ),
            });
            return verdict;
        }
    }

    // Stage 7: bounded fault closure, serial vs threaded.
    if cfg.fault_budget > 0 {
        let fc = check_fault_closure(&asys, cfg.fault_budget, &budget, |_| None);
        verdict.fault_holds = Some(fc.holds());
        if let Outcome::RuntimeFailure(e) = &fc.explore.outcome {
            verdict.failure =
                Some(FuzzFailure::Runtime { stage: "fault-closure", detail: e.to_string() });
            return verdict;
        }
        if let Some(&t) = cfg.threads.first() {
            let closure = FaultClosure::new(asys.clone(), cfg.fault_budget);
            let search = Search { trails: true, ..threaded(t) };
            let fed = (
                search.explore(&closure, &budget, None, &mut obs).traced_report(),
                search.progress(&closure, &budget, |l| l.completes.is_some(), &mut obs),
            );
            let serial = (fc.explore, fc.progress);
            if let Some(f) = cmp_threaded(format!("fault-{t}t"), &serial, &fed) {
                verdict.failure = Some(f);
                return verdict;
            }
        }
    }

    verdict
}

/// Generates and runs the `index`-th spec of stream `seed`.
pub fn fuzz_one(seed: u64, index: u64, cfg: &FuzzConfig) -> (ZooSpec, SpecVerdict) {
    let shape = ZooSpec::generate(seed, index);
    let verdict = run_shape(&shape, cfg);
    (shape, verdict)
}

/// Builds and runs a shape; build failures become `FuzzFailure::Build`.
pub fn run_shape(shape: &ZooSpec, cfg: &FuzzConfig) -> SpecVerdict {
    match shape.build() {
        Ok(spec) => run_spec(&spec, cfg),
        Err(e) => SpecVerdict::failed(&shape.name, FuzzFailure::Build(e.to_string())),
    }
}

/// Result of greedy shrinking.
#[derive(Debug, Clone)]
pub struct ShrinkResult {
    /// The smallest still-failing shape found (the input itself when no
    /// candidate still fails — in particular, when the input *passes*,
    /// shrinking is a no-op with `steps == 0`).
    pub shape: ZooSpec,
    /// Verdict of the final shape.
    pub verdict: SpecVerdict,
    /// Number of accepted shrink steps.
    pub steps: usize,
}

/// Greedy shrink: repeatedly adopt the first strictly smaller candidate
/// that still fails the pipeline, until none does (or `max_steps` is hit).
/// Deterministic: candidate order is fixed by
/// [`ZooSpec::shrink_candidates`].
pub fn shrink_failing(shape: &ZooSpec, cfg: &FuzzConfig, max_steps: usize) -> ShrinkResult {
    let mut current = shape.clone();
    let mut verdict = run_shape(&current, cfg);
    let mut steps = 0;
    if verdict.passed() {
        return ShrinkResult { shape: current, verdict, steps };
    }
    'outer: while steps < max_steps {
        for cand in current.shrink_candidates() {
            if cand.build().is_err() {
                continue;
            }
            let v = run_shape(&cand, cfg);
            if !v.passed() {
                current = cand;
                verdict = v;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    ShrinkResult { shape: current, verdict, steps }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_smoke_on_first_specs() {
        let cfg = FuzzConfig { budget_states: 4_000, fault_budget: 0, ..FuzzConfig::default() };
        for i in 0..6 {
            let (shape, v) = fuzz_one(1, i, &cfg);
            assert!(v.passed(), "spec {i} failed: {:?}\nshape {shape:?}", v.failure);
        }
    }

    #[test]
    fn injection_is_detected_on_migratory_shape() {
        // A remote that sends-and-awaits: marking it fire-and-forget must
        // be caught by the pipeline as a soundness/runtime failure.
        let spec = ccr_core::text::parse_validated(
            &std::fs::read_to_string(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../../specs/migratory.ccp"
            ))
            .unwrap(),
        )
        .unwrap();
        let cfg = FuzzConfig { inject: true, fault_budget: 0, ..FuzzConfig::default() };
        let v = run_spec(&spec, &cfg);
        assert!(!v.passed(), "injected unsoundness went undetected: {v:?}");
    }
}
