//! Fault-closure verification: safety and progress under ≤ f wire faults.
//!
//! The paper proves its refinement correct over a reliable FIFO network
//! (§2.2). [`ccr_runtime::FaultClosure`] weakens that assumption into an
//! adversary with a bounded budget of drop/duplicate faults plus an
//! always-available recovery transition (retransmission into the original
//! FIFO position). This module runs the standard exploration and progress
//! machinery over that closure, on one sweep, and packages the result:
//!
//! * **Safety**: the user invariant holds in every reachable base
//!   configuration, no matter where the adversary spends its budget;
//! * **Recovery**: from every reachable state a rendezvous completion is
//!   still reachable — faults delay the protocol but cannot wedge it,
//!   because once the budget is spent and the lost frames are
//!   retransmitted the network has quiesced.

use crate::progress::ForwardGraph;
use crate::report::{ExploreReport, Outcome, ProgressReport};
use crate::search::{explored, Budget, Explore, Search, SearchObserver};
use crate::trace::TracedReport;
use ccr_runtime::asynch::{AsyncState, AsyncSystem};
use ccr_runtime::{FaultClosure, FaultState, Label};
use ccr_trace::NullSink;
use serde::Serialize;

/// Outcome of verifying an asynchronous protocol under a fault budget.
#[derive(Debug, Clone, Serialize)]
pub struct FaultClosureReport {
    /// The adversary's fault budget `f`.
    pub budget_faults: u32,
    /// Reachability + invariant + deadlock result over the closure.
    pub explore: TracedReport,
    /// Progress (§2.5) over the closure: completions stay reachable
    /// through and after faults.
    pub progress: ProgressReport,
}

impl FaultClosureReport {
    /// True when safety held everywhere and progress survives the faults.
    pub fn holds(&self) -> bool {
        matches!(self.explore.outcome, Outcome::Complete) && self.progress.holds()
    }
}

/// Explores the fault closure of `sys` with budget `faults` on the
/// calling thread, checking `invariant` on every reachable base configuration
/// (and deadlock freedom, with a counterexample trail), and progress
/// over the same closure: [`prove`] with deadlock checks and trails on.
pub fn check_fault_closure(
    sys: &AsyncSystem<'_>,
    faults: u32,
    budget: &Budget,
    invariant: impl FnMut(&AsyncState) -> Option<String>,
) -> FaultClosureReport {
    let closure = FaultClosure::new(sys.clone(), faults);
    let search = Search { check_deadlock: true, trails: true, ..Search::default() };
    let mut null = NullSink;
    prove(&search, &closure, budget, invariant, &mut SearchObserver::new(&mut null)).0
}

/// Safety and progress of `closure` on one sweep: `search` explores it,
/// checking `invariant` on every reachable base configuration, and the
/// progress check (progress = a completed rendezvous) records its graph
/// on the same sweep, as in [`Search::verify`]. The exploration's report
/// comes back beside the closure's, for its terminal counts.
///
/// A graph is only judged when the exploration ran out of states or of
/// budget: an invariant, deadlock or executor failure stops the sweep
/// with a prefix of the graph, and the progress check then sweeps alone.
pub fn prove(
    search: &Search<'_>,
    closure: &FaultClosure<'_>,
    budget: &Budget,
    mut invariant: impl FnMut(&AsyncState) -> Option<String>,
    obs: &mut SearchObserver<'_>,
) -> (FaultClosureReport, ExploreReport) {
    let is_progress = |l: &Label| l.completes.is_some();
    let invariant: &mut dyn FnMut(&FaultState) -> Option<String> = &mut |s| invariant(&s.base);
    let explore = Explore { invariant: Some(invariant), check_deadlock: search.check_deadlock };
    let mut checker = (explore, ForwardGraph::new(is_progress));
    let run = search.sweep(closure, budget, &mut checker, obs, None);
    let explored = explored(closure, run, search.trails, obs, None);
    let progress = match explored.outcome {
        Outcome::Complete | Outcome::Unfinished => {
            checker.1.swept(explored.outcome.is_complete()).check(closure, obs)
        }
        _ => search.progress(closure, budget, is_progress, obs),
    };
    let report = FaultClosureReport {
        budget_faults: closure.budget(),
        explore: explored.traced_report(),
        progress,
    };
    (report, explored.explore_report())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::Search;
    use ccr_core::builder::ProtocolBuilder;
    use ccr_core::expr::Expr;
    use ccr_core::ids::RemoteId;
    use ccr_core::refine::{refine, RefineOptions};
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
    fn token_protocol_survives_two_faults() {
        let spec = token_spec();
        let refined = refine(&spec, &RefineOptions::default()).unwrap();
        let sys = AsyncSystem::new(&refined, 2, AsyncConfig::default());
        let report = check_fault_closure(&sys, 2, &Budget::states(2_000_000), |_| None);
        assert!(
            report.holds(),
            "token closure must stay safe and live: {:?} / livelocked {} deadlocked {}",
            report.explore.outcome,
            report.progress.livelocked_states,
            report.progress.deadlocked_states
        );
        // A budget of 2 strictly grows the state space over budget 0.
        let base = check_fault_closure(&sys, 0, &Budget::states(2_000_000), |_| None);
        assert!(report.explore.states > base.explore.states);
    }

    #[test]
    fn parallel_closure_matches_serial() {
        let spec = token_spec();
        let refined = refine(&spec, &RefineOptions::default()).unwrap();
        let sys = AsyncSystem::new(&refined, 2, AsyncConfig::default());
        let serial = check_fault_closure(&sys, 1, &Budget::states(2_000_000), |_| None);
        assert!(serial.holds());
        let closure = FaultClosure::new(sys.clone(), 1);
        for threads in [2usize, 4] {
            let mut null = NullSink;
            let mut obs = SearchObserver::new(&mut null);
            let search =
                Search { check_deadlock: true, trails: true, threads, ..Search::default() };
            let budget = Budget::states(2_000_000);
            let par = FaultClosureReport {
                budget_faults: 1,
                explore: search.explore(&closure, &budget, None, &mut obs).traced_report(),
                progress: search.progress(&closure, &budget, |l| l.completes.is_some(), &mut obs),
            };
            assert!(par.holds(), "t={threads}");
            assert_eq!(par.explore.states, serial.explore.states, "t={threads}");
            assert_eq!(par.progress.states, serial.progress.states, "t={threads}");
            assert_eq!(
                par.progress.livelocked_states, serial.progress.livelocked_states,
                "t={threads}"
            );
            assert_eq!(
                par.progress.deadlocked_states, serial.progress.deadlocked_states,
                "t={threads}"
            );
        }
    }

    #[test]
    fn invariant_violations_surface_with_a_trail() {
        let spec = token_spec();
        let refined = refine(&spec, &RefineOptions::default()).unwrap();
        let sys = AsyncSystem::new(&refined, 2, AsyncConfig::default());
        // A deliberately false invariant: no message may ever be in flight.
        let report = check_fault_closure(&sys, 1, &Budget::states(100_000), |s: &AsyncState| {
            (s.in_flight() > 0).then(|| "message in flight".to_string())
        });
        assert!(!report.holds());
        assert!(matches!(report.explore.outcome, Outcome::InvariantViolated(_)));
        assert!(report.explore.trail.is_some(), "counterexample trail expected");
    }
}
