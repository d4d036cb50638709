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

use crate::report::SimRelReport;
use crate::search::{insert_state, Budget};
use crate::store::StateStore;
use ccr_runtime::abstraction::abs;
use ccr_runtime::asynch::{AsyncState, AsyncSystem};
use ccr_runtime::rendezvous::RendezvousSystem;
use ccr_runtime::{EncodeBuf, TransitionSystem};
use std::collections::VecDeque;
use std::time::Instant;

/// Checks Equation 1 over the reachable states of `async_sys`, mapping into
/// `rv_sys` (which must be built over the same spec and remote count).
pub fn check_simulation(
    async_sys: &AsyncSystem<'_>,
    rv_sys: &RendezvousSystem<'_>,
    budget: &Budget,
) -> SimRelReport {
    let started = Instant::now();
    let mut store = StateStore::new();
    let mut frontier: VecDeque<AsyncState> = VecDeque::new();
    let mut succs = Vec::new();
    let mut rv_succs = Vec::new();
    let mut enc = Vec::new();
    // Reused across the whole sweep: one allocation each, not one per
    // transition (`encoded()` would allocate a fresh Vec every time).
    let mut a_buf = EncodeBuf::new();
    let mut a2_buf = EncodeBuf::new();
    let mut r_buf = EncodeBuf::new();

    let mut report = SimRelReport {
        async_states: 0,
        transitions_checked: 0,
        stutters: 0,
        mapped_steps: 0,
        violation: None,
        complete: true,
    };

    let fast_cap = async_sys.max_encoded_len();
    let init = async_sys.initial();
    insert_state(async_sys, &init, fast_cap, &mut store, &mut enc);
    frontier.push_back(init);

    'outer: while let Some(state) = frontier.pop_front() {
        let a = match abs(async_sys, &state) {
            Ok(a) => a,
            Err(e) => {
                report.violation = Some(format!("abs failed on source state: {e}"));
                break;
            }
        };
        a_buf.fill(rv_sys, &a);
        if async_sys.successors(&state, &mut succs).is_err() {
            report.violation = Some("async successor generation failed".into());
            break;
        }
        for (label, next) in succs.drain(..) {
            report.transitions_checked += 1;
            let a2 = match abs(async_sys, &next) {
                Ok(a2) => a2,
                Err(e) => {
                    report.violation = Some(format!("abs failed after rule {}: {e}", label.rule));
                    break 'outer;
                }
            };
            a2_buf.fill(rv_sys, &a2);
            if a_buf.bytes() == a2_buf.bytes() {
                report.stutters += 1;
            } else {
                // Must be a single rendezvous step abs(q) ->h abs(q').
                if rv_sys.successors(&a, &mut rv_succs).is_err() {
                    report.violation = Some("rendezvous successor generation failed".into());
                    break 'outer;
                }
                let matched = rv_succs.iter().any(|(_, r)| r_buf.fill(rv_sys, r) == a2_buf.bytes());
                if !matched {
                    report.violation = Some(format!(
                        "async rule {} (actor {}) maps to an impossible rendezvous step:\n  abs(q)  = {:?}\n  abs(q') = {:?}\n  async q = {:?}\n  async q' = {:?}",
                        label.rule, label.actor, a, a2, state, next
                    ));
                    break 'outer;
                }
                report.mapped_steps += 1;
            }
            let (_, is_new) = insert_state(async_sys, &next, fast_cap, &mut store, &mut enc);
            if is_new {
                if store.len() >= budget.max_states
                    || store.approx_bytes() >= budget.max_bytes
                    || budget.max_time.map(|t| started.elapsed() >= t).unwrap_or(false)
                {
                    report.complete = false;
                    break 'outer;
                }
                frontier.push_back(next);
            }
        }
    }

    report.async_states = store.len();
    report
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
