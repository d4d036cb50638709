//! The Equation 1 soundness check (paper §4).
//!
//! The paper argues refinement correctness via an abstraction function
//! `abs` from asynchronous to rendezvous configurations satisfying
//!
//! ```text
//! ∀ ql, ql' :  ql →l ql'  ⇒  abs(ql) = abs(ql')  ∨  abs(ql) →h abs(ql')
//! ```
//!
//! — every asynchronous step is either invisible at the rendezvous level
//! (*stutter*) or corresponds to exactly one rendezvous step. We verify
//! this over the entire reachable asynchronous state space: a machine-
//! checked instance of the paper's hand proof, run per protocol and per
//! configuration by the test suite and the soundness benchmark.
//!
//! `abs` is computed once per stored asynchronous state, not once per
//! edge: the images are few (at most the rendezvous states: 120 for the
//! 181,700 asynchronous states of migratory at n=5), so each is interned
//! to a small id by its rendezvous encoding, and an edge is judged on
//! ids — equal for a stutter, else a member of the source image's
//! successor ids, which are generated once per distinct rendezvous state.
//! The memo is keyed by stored index, which identifies a state because
//! the visited set compares full encodings and [`AsyncSystem`]'s is
//! injective; it would not under [`crate::symmetry::Reduced`], where an
//! index is an orbit and `abs` of its members differ by a renaming — the
//! checker is therefore one of [`AsyncSystem`] sweeps only
//! (`docs/symmetry.md`).

use crate::report::{Outcome, SimRelReport};
use crate::search::{record_search_run, Budget, Checker, Riding, Search, SearchObserver};
use crate::store::StateStore;
use ccr_runtime::abstraction::abs_into;
use ccr_runtime::asynch::{AsyncState, AsyncSystem};
use ccr_runtime::rendezvous::{RendezvousSystem, RvState};
use ccr_runtime::{Label, RuntimeError, TransitionSystem};
use ccr_trace::NullSink;

/// Equation 1 as a checker on the sweep: every edge must map to a
/// stutter or to a rendezvous step. A failing edge is an
/// [`Outcome::InvariantViolated`] carrying its description — the end of
/// a sweep this checker has to itself, a latched verdict on one it rides
/// ([`crate::search::Search::verify`]). It counts for itself, so its
/// report reads the same either way: states stored before the violating
/// edge's target, transitions up to and including that edge.
pub(crate) struct Equation1<'a, 's> {
    async_sys: &'a AsyncSystem<'s>,
    rv_sys: &'a RendezvousSystem<'s>,
    /// `image[i]` is the id of `abs` of stored state `i`.
    image: Vec<u32>,
    /// The rendezvous states met so far — images, and successors of
    /// images — interned by encoding; an id indexes the two tables below.
    ids: StateStore,
    rv_states: Vec<RvState>,
    /// `steps[a]`: the ids of `a`'s rendezvous successors, generated when
    /// an edge out of an `a`-state first fails to stutter.
    steps: Vec<Option<Vec<u32>>>,
    // Reused across the whole sweep: one allocation each.
    rv_succs: Vec<(Label, RvState)>,
    /// `abs` of the state being judged, written in place; cloned into
    /// `rv_states` only when it is a new image.
    abs_buf: Option<RvState>,
    buf: Vec<u8>,
    transitions: usize,
    stutters: usize,
    mapped_steps: usize,
    #[cfg(test)]
    abs_calls: usize,
}

fn violated(edge: String) -> Option<Outcome> {
    Some(Outcome::InvariantViolated(edge))
}

impl<'a, 's> Equation1<'a, 's> {
    pub(crate) fn new(async_sys: &'a AsyncSystem<'s>, rv_sys: &'a RendezvousSystem<'s>) -> Self {
        Equation1 {
            async_sys,
            rv_sys,
            image: Vec::new(),
            ids: StateStore::new(),
            rv_states: Vec::new(),
            steps: Vec::new(),
            rv_succs: Vec::new(),
            abs_buf: None,
            buf: Vec::new(),
            transitions: 0,
            stutters: 0,
            mapped_steps: 0,
            #[cfg(test)]
            abs_calls: 0,
        }
    }

    fn intern(&mut self, rv: &RvState) -> u32 {
        self.rv_sys.encode(rv, &mut self.buf);
        let (id, is_new) = self.ids.insert(&self.buf);
        if is_new {
            self.rv_states.push(rv.clone());
            self.steps.push(None);
        }
        id
    }

    /// The id of `abs(q)` — the one call of `abs` per stored state.
    fn image_of(&mut self, q: &AsyncState) -> Result<u32, RuntimeError> {
        #[cfg(test)]
        {
            self.abs_calls += 1;
        }
        let mut image = self.abs_buf.take().unwrap_or_else(|| self.rv_sys.initial());
        let id = abs_into(self.async_sys, q, &mut image).map(|()| self.intern(&image));
        self.abs_buf = Some(image);
        id
    }

    /// Whether `a ->h a2` is a rendezvous step.
    fn steps_to(&mut self, a: u32, a2: u32) -> Result<bool, RuntimeError> {
        if self.steps[a as usize].is_none() {
            let mut succs = std::mem::take(&mut self.rv_succs);
            self.rv_sys.successors(&self.rv_states[a as usize], &mut succs)?;
            let ids = succs.drain(..).map(|(_, r)| self.intern(&r)).collect();
            self.rv_succs = succs;
            self.steps[a as usize] = Some(ids);
        }
        Ok(self.steps[a as usize].as_ref().is_some_and(|ids| ids.contains(&a2)))
    }

    /// The report of a sweep that `ended` this way, as far as this
    /// checker is concerned: its own verdict, or how the sweep ran out.
    pub(crate) fn report(&self, ended: Outcome) -> SimRelReport {
        let (complete, violation) = ending(ended);
        SimRelReport {
            async_states: self.image.len(),
            transitions_checked: self.transitions,
            stutters: self.stutters,
            mapped_steps: self.mapped_steps,
            complete,
            violation,
        }
    }
}

/// How a sweep's ending reads in a [`SimRelReport`]: `(complete,
/// violation)`.
fn ending(ended: Outcome) -> (bool, Option<String>) {
    let complete = ended != Outcome::Unfinished;
    let violation = match ended {
        Outcome::InvariantViolated(edge) => Some(edge),
        Outcome::RuntimeFailure(_) => Some("async successor generation failed".into()),
        _ => None,
    };
    (complete, violation)
}

impl Riding<Equation1<'_, '_>> {
    /// The report of a rider on a sweep whose exploration ended as
    /// `explored`: the latched verdict if there is one, else the sweep's
    /// own ending — where a sweep the exploration cut short on a finding
    /// of its own is one Equation 1 did not finish.
    pub(crate) fn report(self, explored: &Outcome) -> SimRelReport {
        let ended = self.verdict.unwrap_or_else(|| match explored {
            swept @ (Outcome::Complete | Outcome::RuntimeFailure(_)) => swept.clone(),
            _ => Outcome::Unfinished,
        });
        self.checker.report(ended)
    }
}

impl<'s> Checker<AsyncSystem<'s>> for Equation1<'_, 's> {
    const CHECKS: bool = true;

    /// The root's image. Every other state's is computed by the edge that
    /// discovers it, which has the rule to name if `abs` fails.
    fn on_new(&mut self, state: &AsyncState, idx: u32) -> Option<Outcome> {
        if idx != 0 {
            return None;
        }
        match self.image_of(state) {
            Ok(a) => {
                self.image.push(a);
                None
            }
            Err(e) => {
                // Stored all the same.
                self.image.push(u32::MAX);
                violated(format!("abs failed on source state: {e}"))
            }
        }
    }

    fn on_edge(
        &mut self,
        src: u32,
        state: &AsyncState,
        label: &Label,
        dst: u32,
        next: &AsyncState,
        is_new: bool,
    ) -> Option<Outcome> {
        self.transitions += 1;
        let a = self.image[src as usize];
        let a2 = if is_new {
            match self.image_of(next) {
                Ok(a2) => a2,
                Err(e) => return violated(format!("abs failed after rule {}: {e}", label.rule)),
            }
        } else {
            self.image[dst as usize]
        };
        if a == a2 {
            self.stutters += 1;
        } else {
            // Must be a single rendezvous step abs(q) ->h abs(q').
            match self.steps_to(a, a2) {
                Ok(true) => self.mapped_steps += 1,
                Ok(false) => {
                    return violated(format!(
                        "async rule {} (actor {}) maps to an impossible rendezvous step:\n  abs(q)  = {:?}\n  abs(q') = {:?}\n  async q = {:?}\n  async q' = {:?}",
                        label.rule,
                        label.actor,
                        self.rv_states[a as usize],
                        self.rv_states[a2 as usize],
                        state,
                        next
                    ))
                }
                Err(_) => return violated("rendezvous successor generation failed".into()),
            }
        }
        // Judged first, stored second: a violating edge's target is not
        // among the states examined.
        if is_new {
            self.image.push(a2);
        }
        None
    }
}

/// Checks Equation 1 over the reachable states of `async_sys`, mapping into
/// `rv_sys` (which must be built over the same spec and remote count), on
/// a sweep of its own, unobserved.
pub fn check_simulation(
    async_sys: &AsyncSystem<'_>,
    rv_sys: &RendezvousSystem<'_>,
    budget: &Budget,
) -> SimRelReport {
    let mut null = NullSink;
    check_simulation_observed(async_sys, rv_sys, budget, &mut SearchObserver::new(&mut null))
}

/// [`check_simulation`] with heartbeats, status snapshots and timeline
/// samples to `obs` while it sweeps, and the sweep folded into its
/// metrics. Nothing is concluded on the sink: the verdict is the report.
pub fn check_simulation_observed(
    async_sys: &AsyncSystem<'_>,
    rv_sys: &RendezvousSystem<'_>,
    budget: &Budget,
    obs: &mut SearchObserver<'_>,
) -> SimRelReport {
    let mut checker = Equation1::new(async_sys, rv_sys);
    let run = Search::default().sweep(async_sys, budget, &mut checker, false, obs, None);
    let reg = &obs.telemetry().registry;
    record_search_run(reg, run.store.len(), run.transitions, run.peak_frontier, &run.store);
    checker.report(run.outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::inject_unsound;
    use crate::search::{drive, Inline};
    use ccr_core::builder::ProtocolBuilder;
    use ccr_core::expr::Expr;
    use ccr_core::ids::RemoteId;
    use ccr_core::process::ProtocolSpec;
    use ccr_core::refine::{refine, RefineOptions, ReqRepMode};
    use ccr_core::value::Value;
    use ccr_core::zoo::ZooSpec;
    use ccr_runtime::abstraction::abs;
    use ccr_runtime::asynch::AsyncConfig;

    /// Equation 1 as it was checked before the memo, kept as the
    /// reference the memoised checker must agree with: `abs` of the
    /// source once per expansion, `abs` of the target once per edge, the
    /// rendezvous successors regenerated for every edge that is not a
    /// stutter, everything compared by encoding.
    struct PerEdge<'a, 's> {
        async_sys: &'a AsyncSystem<'s>,
        rv_sys: &'a RendezvousSystem<'s>,
        a: Option<RvState>,
        rv_succs: Vec<(Label, RvState)>,
        a_buf: Vec<u8>,
        a2_buf: Vec<u8>,
        r_buf: Vec<u8>,
        stored: usize,
        transitions: usize,
        stutters: usize,
        mapped_steps: usize,
        abs_calls: usize,
    }

    impl<'s> Checker<AsyncSystem<'s>> for PerEdge<'_, 's> {
        fn on_new(&mut self, _state: &AsyncState, _idx: u32) -> Option<Outcome> {
            self.stored += 1;
            None
        }

        fn on_expand(&mut self, state: &AsyncState, _idx: u32) -> Option<Outcome> {
            self.abs_calls += 1;
            match abs(self.async_sys, state) {
                Ok(a) => {
                    self.rv_sys.encode(&a, &mut self.a_buf);
                    self.a = Some(a);
                    None
                }
                Err(e) => violated(format!("abs failed on source state: {e}")),
            }
        }

        fn on_edge(
            &mut self,
            _src: u32,
            state: &AsyncState,
            label: &Label,
            _dst: u32,
            next: &AsyncState,
            _is_new: bool,
        ) -> Option<Outcome> {
            self.transitions += 1;
            self.abs_calls += 1;
            let a = self.a.as_ref().expect("on_expand precedes the state's edges");
            let a2 = match abs(self.async_sys, next) {
                Ok(a2) => a2,
                Err(e) => return violated(format!("abs failed after rule {}: {e}", label.rule)),
            };
            self.rv_sys.encode(&a2, &mut self.a2_buf);
            if self.a_buf == self.a2_buf {
                self.stutters += 1;
                return None;
            }
            if self.rv_sys.successors(a, &mut self.rv_succs).is_err() {
                return violated("rendezvous successor generation failed".into());
            }
            let (rv_sys, r_buf, want) = (self.rv_sys, &mut self.r_buf, &self.a2_buf);
            if !self.rv_succs.iter().any(|(_, r)| {
                rv_sys.encode(r, r_buf);
                r_buf == want
            }) {
                return violated(format!(
                    "async rule {} (actor {}) maps to an impossible rendezvous step:\n  abs(q)  = {:?}\n  abs(q') = {:?}\n  async q = {:?}\n  async q' = {:?}",
                    label.rule, label.actor, a, a2, state, next
                ));
            }
            self.mapped_steps += 1;
            None
        }
    }

    /// The reference's report and how often it called `abs`.
    fn per_edge(
        async_sys: &AsyncSystem<'_>,
        rv_sys: &RendezvousSystem<'_>,
        budget: &Budget,
    ) -> (SimRelReport, usize) {
        let mut checker = PerEdge {
            async_sys,
            rv_sys,
            a: None,
            rv_succs: Vec::new(),
            a_buf: Vec::new(),
            a2_buf: Vec::new(),
            r_buf: Vec::new(),
            stored: 0,
            transitions: 0,
            stutters: 0,
            mapped_steps: 0,
            abs_calls: 0,
        };
        let mut null = NullSink;
        let mut obs = SearchObserver::new(&mut null);
        let src = Inline::new(async_sys, false);
        let run = drive(async_sys, budget, &mut checker, src, false, &mut obs, None);
        // A violating edge's target was stored by the sweep, but is not
        // among the states examined.
        let (complete, violation) = ending(run.outcome);
        let report = SimRelReport {
            async_states: checker.stored,
            transitions_checked: checker.transitions,
            stutters: checker.stutters,
            mapped_steps: checker.mapped_steps,
            complete,
            violation,
        };
        (report, checker.abs_calls)
    }

    /// What bounds a comparison: the spaces past it (invalidate and
    /// update at n=3) are compared on this prefix.
    const CAP: usize = 20_000;

    /// Memoised ≡ reference on `spec` as derived, and with the derivation
    /// broken the way `migratory_broken` is — so that the first violation
    /// and the counts it is reported with are compared too.
    fn assert_memo_is_the_reference(spec: &ProtocolSpec, n: u32) -> usize {
        let rv = RendezvousSystem::new(spec, n);
        let mut violations = 0;
        for inject in [false, true] {
            let mut refined = refine(spec, &RefineOptions::default()).unwrap();
            if inject && !inject_unsound(&mut refined) {
                continue;
            }
            let asys = AsyncSystem::new(&refined, n, AsyncConfig::default());
            let memoised = check_simulation(&asys, &rv, &Budget::states(CAP));
            let (reference, _) = per_edge(&asys, &rv, &Budget::states(CAP));
            assert_eq!(memoised, reference, "{} n={n} inject={inject}", spec.name);
            violations += usize::from(memoised.violation.is_some());
        }
        violations
    }

    fn shipped(name: &str) -> ProtocolSpec {
        let path = format!("{}/../../specs/{name}.ccp", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        ccr_core::text::parse_validated(&text).unwrap_or_else(|e| panic!("{name}: {e}"))
    }

    #[test]
    fn memoised_abs_agrees_with_the_per_edge_reference_on_every_shipped_spec() {
        let mut violations = 0;
        for name in [
            "invalidate",
            "migratory",
            "migratory_broken",
            "migratory_gated",
            "token",
            "update",
            "zoo_chain",
            "zoo_unsound_pair",
        ] {
            let spec = shipped(name);
            for n in [2, 3] {
                violations += assert_memo_is_the_reference(&spec, n);
            }
        }
        assert!(violations > 0, "no comparison reached a violation");
    }

    #[test]
    fn memoised_abs_agrees_with_the_per_edge_reference_on_the_zoo() {
        let mut violations = 0;
        for index in 0..250 {
            let spec = ZooSpec::generate(1998, index).build().expect("zoo specs build");
            violations += assert_memo_is_the_reference(&spec, 2);
        }
        assert!(violations > 0, "no comparison reached a violation");
    }

    #[test]
    fn abs_is_called_once_per_stored_state() {
        let spec = shipped("migratory");
        let refined = refine(&spec, &RefineOptions::default()).unwrap();
        let rv = RendezvousSystem::new(&spec, 3);
        let asys = AsyncSystem::new(&refined, 3, AsyncConfig::default());
        let mut checker = Equation1::new(&asys, &rv);
        let mut null = NullSink;
        let mut obs = SearchObserver::new(&mut null);
        let run =
            Search::default().sweep(&asys, &Budget::default(), &mut checker, false, &mut obs, None);
        let report = checker.report(run.outcome);
        assert!(report.holds(), "{report:?}");
        assert_eq!(checker.abs_calls, run.store.len());
        assert_eq!(report.async_states, run.store.len());
        // The reference calls it once per expansion and once per edge.
        let (reference, calls) = per_edge(&asys, &rv, &Budget::default());
        assert_eq!(reference, report);
        assert_eq!(calls, report.async_states + report.transitions_checked);
        // Few images, each with its successors generated at most once.
        assert!(checker.rv_states.len() < report.async_states / 10, "{}", checker.rv_states.len());
        assert!(checker.steps.iter().flatten().count() <= checker.rv_states.len());
    }

    fn token_spec() -> ccr_core::process::ProtocolSpec {
        let mut b = ProtocolBuilder::new("token");
        let req = b.msg("req");
        let gr = b.msg("gr");
        let rel = b.msg("rel");
        let o = b.home_var("o", Value::Node(RemoteId(0)));
        let f = b.home_state("F");
        let g1 = b.home_state("G1");
        let e = b.home_state("E");
        b.home(f).recv_any(req).bind_sender(o).goto(g1);
        b.home(g1).send_to(Expr::Var(o), gr).goto(e);
        b.home(e).recv_exact(rel, Expr::Var(o)).goto(f);
        let i = b.remote_state("I");
        let w = b.remote_state("W");
        let v = b.remote_state("V");
        b.remote(i).send(req).goto(w);
        b.remote(w).recv(gr).goto(v);
        b.remote(v).send(rel).goto(i);
        b.finish().unwrap()
    }

    #[test]
    fn equation_one_holds_for_token_optimized() {
        let spec = token_spec();
        let refined = refine(&spec, &RefineOptions::default()).unwrap();
        let rv = RendezvousSystem::new(&spec, 2);
        let asys = AsyncSystem::new(&refined, 2, AsyncConfig::default());
        let r = check_simulation(&asys, &rv, &Budget::default());
        assert!(r.holds(), "{r:?}");
        assert!(r.stutters > 0);
        assert!(r.mapped_steps > 0);
    }

    #[test]
    fn equation_one_holds_for_token_unoptimized() {
        let spec = token_spec();
        let refined = refine(&spec, &RefineOptions { reqrep: ReqRepMode::Off }).unwrap();
        let rv = RendezvousSystem::new(&spec, 2);
        let asys = AsyncSystem::new(&refined, 2, AsyncConfig::default());
        let r = check_simulation(&asys, &rv, &Budget::default());
        assert!(r.holds(), "{r:?}");
    }

    #[test]
    fn budget_limits_mark_incomplete() {
        let spec = token_spec();
        let refined = refine(&spec, &RefineOptions::default()).unwrap();
        let rv = RendezvousSystem::new(&spec, 2);
        let asys = AsyncSystem::new(&refined, 2, AsyncConfig::default());
        let r = check_simulation(&asys, &rv, &Budget::states(5));
        assert!(!r.complete);
        assert!(!r.holds());
    }

    #[test]
    fn larger_buffer_also_satisfies_equation_one() {
        let spec = token_spec();
        let refined = refine(&spec, &RefineOptions::default()).unwrap();
        let rv = RendezvousSystem::new(&spec, 2);
        let asys = AsyncSystem::new(&refined, 2, AsyncConfig::with_home_buffer(4));
        let r = check_simulation(&asys, &rv, &Budget::default());
        assert!(r.holds(), "{r:?}");
    }
}
