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

use crate::report::{Outcome, SimRelReport};
use crate::search::{drive, Budget, Checker, Inline, SearchObserver};
use ccr_runtime::abstraction::abs;
use ccr_runtime::asynch::{AsyncState, AsyncSystem};
use ccr_runtime::rendezvous::{RendezvousSystem, RvState};
use ccr_runtime::{EncodeBuf, Label, TransitionSystem};
use ccr_trace::NullSink;

/// Equation 1 as a checker on the sweep: `abs` of the state being
/// expanded is computed once, and every edge out of it must map to a
/// stutter or to a rendezvous step. A failing edge ends the sweep as an
/// [`Outcome::InvariantViolated`] carrying its description.
struct Equation1<'a, 's> {
    async_sys: &'a AsyncSystem<'s>,
    rv_sys: &'a RendezvousSystem<'s>,
    /// `abs` of the state being expanded.
    a: Option<RvState>,
    rv_succs: Vec<(Label, RvState)>,
    // Reused across the whole sweep: one allocation each, not one per
    // transition (`encoded()` would allocate a fresh Vec every time).
    a_buf: EncodeBuf,
    a2_buf: EncodeBuf,
    r_buf: EncodeBuf,
    stutters: usize,
    mapped_steps: usize,
}

impl<'s> Checker<AsyncSystem<'s>> for Equation1<'_, 's> {
    fn on_expand(&mut self, state: &AsyncState, _idx: u32) -> Option<Outcome> {
        match abs(self.async_sys, state) {
            Ok(a) => {
                self.a_buf.fill(self.rv_sys, &a);
                self.a = Some(a);
                None
            }
            Err(e) => Some(Outcome::InvariantViolated(format!("abs failed on source state: {e}"))),
        }
    }

    fn on_edge(&mut self, state: &AsyncState, label: &Label, next: &AsyncState) -> Option<Outcome> {
        let a = self.a.as_ref().expect("on_expand precedes the state's edges");
        let a2 = match abs(self.async_sys, next) {
            Ok(a2) => a2,
            Err(e) => {
                return Some(Outcome::InvariantViolated(format!(
                    "abs failed after rule {}: {e}",
                    label.rule
                )))
            }
        };
        self.a2_buf.fill(self.rv_sys, &a2);
        if self.a_buf.bytes() == self.a2_buf.bytes() {
            self.stutters += 1;
            return None;
        }
        // Must be a single rendezvous step abs(q) ->h abs(q').
        if self.rv_sys.successors(a, &mut self.rv_succs).is_err() {
            return Some(Outcome::InvariantViolated(
                "rendezvous successor generation failed".into(),
            ));
        }
        let (rv_sys, r_buf, want) = (self.rv_sys, &mut self.r_buf, self.a2_buf.bytes());
        if !self.rv_succs.iter().any(|(_, r)| r_buf.fill(rv_sys, r) == want) {
            return Some(Outcome::InvariantViolated(format!(
                "async rule {} (actor {}) maps to an impossible rendezvous step:\n  abs(q)  = {:?}\n  abs(q') = {:?}\n  async q = {:?}\n  async q' = {:?}",
                label.rule, label.actor, a, a2, state, next
            )));
        }
        self.mapped_steps += 1;
        None
    }
}

/// Checks Equation 1 over the reachable states of `async_sys`, mapping into
/// `rv_sys` (which must be built over the same spec and remote count).
pub fn check_simulation(
    async_sys: &AsyncSystem<'_>,
    rv_sys: &RendezvousSystem<'_>,
    budget: &Budget,
) -> SimRelReport {
    let mut checker = Equation1 {
        async_sys,
        rv_sys,
        a: None,
        rv_succs: Vec::new(),
        a_buf: EncodeBuf::new(),
        a2_buf: EncodeBuf::new(),
        r_buf: EncodeBuf::new(),
        stutters: 0,
        mapped_steps: 0,
    };
    let mut null = NullSink;
    let mut obs = SearchObserver::new(&mut null);
    let src = Inline::new(async_sys, false);
    let run = drive(async_sys, budget, &mut checker, src, false, &mut obs, None);
    SimRelReport {
        async_states: run.store.len(),
        transitions_checked: run.transitions,
        stutters: checker.stutters,
        mapped_steps: checker.mapped_steps,
        complete: run.outcome != Outcome::Unfinished,
        violation: match run.outcome {
            Outcome::InvariantViolated(edge) => Some(edge),
            Outcome::RuntimeFailure(_) => Some("async successor generation failed".into()),
            _ => None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccr_core::builder::ProtocolBuilder;
    use ccr_core::expr::Expr;
    use ccr_core::ids::RemoteId;
    use ccr_core::refine::{refine, RefineOptions, ReqRepMode};
    use ccr_core::value::Value;
    use ccr_runtime::asynch::AsyncConfig;

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
