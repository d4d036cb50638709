//! Result structures produced by the checking algorithms.

use ccr_runtime::{Label, RuntimeError};
use serde::Serialize;
use std::time::Duration;

/// How a search ended.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum Outcome {
    /// The full reachable state space was explored.
    Complete,
    /// The state or byte budget was exhausted first — the paper's
    /// "Unfinished" entries in Table 3.
    Unfinished,
    /// An invariant was violated; carries a human-readable description.
    InvariantViolated(String),
    /// A deadlock (state with no successors) was found.
    Deadlock,
    /// A livelock was found: a reachable state from which no rendezvous
    /// completion remains reachable (the §2.5 progress criterion fails).
    Livelock,
    /// The executor reported an error (a refinement-assumption violation).
    RuntimeFailure(RuntimeError),
    /// The persistence layer failed (I/O error, corrupt log or manifest);
    /// carries the diagnostic with the offending path. Counts computed
    /// before the failure are not trustworthy, so the search aborts with
    /// this instead of reporting them.
    PersistFailure(String),
}

impl Outcome {
    /// True for [`Outcome::Complete`].
    pub fn is_complete(&self) -> bool {
        matches!(self, Outcome::Complete)
    }

    /// The bare variant name, for trace events.
    pub fn name(&self) -> &'static str {
        match self {
            Outcome::Complete => "Complete",
            Outcome::Unfinished => "Unfinished",
            Outcome::InvariantViolated(_) => "InvariantViolated",
            Outcome::Deadlock => "Deadlock",
            Outcome::Livelock => "Livelock",
            Outcome::RuntimeFailure(_) => "RuntimeFailure",
            Outcome::PersistFailure(_) => "PersistFailure",
        }
    }

    /// The violation description or failure message, when any.
    pub fn detail(&self) -> Option<String> {
        match self {
            Outcome::InvariantViolated(d) => Some(d.clone()),
            Outcome::RuntimeFailure(e) => Some(e.to_string()),
            Outcome::PersistFailure(d) => Some(d.clone()),
            _ => None,
        }
    }
}

/// Statistics of a reachability run — the columns of Table 3.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ExploreReport {
    /// Distinct states visited.
    pub states: usize,
    /// Transitions traversed.
    pub transitions: usize,
    /// Wall time of the search.
    pub elapsed: Duration,
    /// Approximate memory used by the visited set, in bytes.
    pub store_bytes: usize,
    /// Maximum BFS frontier size.
    pub peak_frontier: usize,
    /// How the run ended.
    pub outcome: Outcome,
}

impl ExploreReport {
    /// Formats a Table 3-style cell: `states/seconds` or `Unfinished`.
    pub fn table_cell(&self) -> String {
        match &self.outcome {
            Outcome::Complete => {
                format!("{}/{:.2}", self.states, self.elapsed.as_secs_f64())
            }
            Outcome::Unfinished => "Unfinished".to_string(),
            Outcome::InvariantViolated(d) => format!("Violated({d})"),
            Outcome::Deadlock => "Deadlock".to_string(),
            Outcome::Livelock => "Livelock".to_string(),
            Outcome::RuntimeFailure(e) => format!("Error({e})"),
            Outcome::PersistFailure(d) => format!("PersistFailure({d})"),
        }
    }
}

/// What one exploration reports, at whatever thread count — the single
/// result type of [`crate::search::Search::explore`]. The two serialised
/// shapes the `--json` documents embed are views of it:
/// [`SearchReport::explore_report`] (a `ccr table` row) and
/// [`SearchReport::traced_report`] (a `ccr verify` level).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchReport {
    /// Distinct states visited.
    pub states: usize,
    /// Transitions traversed.
    pub transitions: usize,
    /// Wall time of the search, summed over the legs of a resumed run.
    pub elapsed: Duration,
    /// Approximate memory used by the visited set, in bytes.
    pub store_bytes: usize,
    /// Maximum BFS frontier size.
    pub peak_frontier: usize,
    /// How the run ended.
    pub outcome: Outcome,
    /// With trails on, for a violating outcome: the labels along a
    /// shortest path from the initial state to the offending state, in
    /// firing order. Replays under [`crate::trace::replay_trail`].
    pub trail: Option<Vec<Label>>,
    /// True when nothing was searched: the persisted phase had already
    /// finished and the counts come from its terminal manifest.
    pub restored: bool,
}

impl SearchReport {
    /// A zero-count report for a persistence context that could not be
    /// opened or attached.
    pub(crate) fn persist_failure(e: &crate::persist::PersistError) -> Self {
        SearchReport {
            states: 0,
            transitions: 0,
            elapsed: Duration::ZERO,
            store_bytes: 0,
            peak_frontier: 0,
            outcome: Outcome::PersistFailure(e.to_string()),
            trail: None,
            restored: false,
        }
    }

    /// The Table 3-shaped view of this report.
    pub fn explore_report(&self) -> ExploreReport {
        ExploreReport {
            states: self.states,
            transitions: self.transitions,
            elapsed: self.elapsed,
            store_bytes: self.store_bytes,
            peak_frontier: self.peak_frontier,
            outcome: self.outcome.clone(),
        }
    }

    /// The trail-carrying view of this report.
    pub fn traced_report(&self) -> crate::trace::TracedReport {
        crate::trace::TracedReport {
            states: self.states,
            transitions: self.transitions,
            outcome: self.outcome.clone(),
            trail: self.trail.clone(),
        }
    }

    /// Formats the trail as SPIN-like numbered lines (`actor rule`), or a
    /// note that none exists.
    pub fn trail_text(&self) -> String {
        crate::trace::trail_text(self.trail.as_deref())
    }
}

/// Result of the Equation 1 stuttering-simulation check.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SimRelReport {
    /// Asynchronous states examined.
    pub async_states: usize,
    /// Asynchronous transitions checked against Equation 1.
    pub transitions_checked: usize,
    /// Transitions that mapped to a stutter (`abs(q) == abs(q')`).
    pub stutters: usize,
    /// Transitions that mapped to a rendezvous step.
    pub mapped_steps: usize,
    /// First violation found, if any: description of the failing edge.
    pub violation: Option<String>,
    /// True when the underlying exploration finished within budget.
    pub complete: bool,
}

impl SimRelReport {
    /// True when no violation was found and exploration completed.
    pub fn holds(&self) -> bool {
        self.violation.is_none() && self.complete
    }
}

/// Result of the forward-progress (livelock) check.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ProgressReport {
    /// Reachable states examined.
    pub states: usize,
    /// States from which no completion is reachable (livelock witnesses).
    pub livelocked_states: usize,
    /// Deadlocked states (no successors at all).
    pub deadlocked_states: usize,
    /// True when the underlying exploration finished within budget.
    pub complete: bool,
    /// Shortest transition trail from the initial state to the first
    /// stuck (deadlocked or livelocked) state, when the check fails.
    pub witness: Option<Vec<Label>>,
    /// What the witness trail leads to: [`Outcome::Deadlock`] or
    /// [`Outcome::Livelock`].
    pub witness_outcome: Option<Outcome>,
}

impl ProgressReport {
    /// The §2.5 criterion: from every reachable state, some rendezvous
    /// completion remains possible.
    pub fn holds(&self) -> bool {
        self.complete && self.livelocked_states == 0 && self.deadlocked_states == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_cell_formats() {
        let mut r = ExploreReport {
            states: 54,
            transitions: 100,
            elapsed: Duration::from_millis(100),
            store_bytes: 1024,
            peak_frontier: 10,
            outcome: Outcome::Complete,
        };
        assert_eq!(r.table_cell(), "54/0.10");
        r.outcome = Outcome::Unfinished;
        assert_eq!(r.table_cell(), "Unfinished");
        r.outcome = Outcome::Deadlock;
        assert_eq!(r.table_cell(), "Deadlock");
        r.outcome = Outcome::InvariantViolated("two owners".into());
        assert!(r.table_cell().contains("two owners"));
        assert!(!r.outcome.is_complete());
    }

    #[test]
    fn outcome_name_and_detail() {
        assert_eq!(Outcome::Complete.name(), "Complete");
        assert_eq!(Outcome::Complete.detail(), None);
        let v = Outcome::InvariantViolated("two owners".into());
        assert_eq!(v.name(), "InvariantViolated");
        assert_eq!(v.detail().as_deref(), Some("two owners"));
    }

    #[test]
    fn reports_serialize_to_valid_json() {
        let r = ExploreReport {
            states: 54,
            transitions: 100,
            elapsed: Duration::from_millis(100),
            store_bytes: 1024,
            peak_frontier: 10,
            outcome: Outcome::InvariantViolated("two owners".into()),
        };
        let json = serde::json::to_string(&r);
        assert!(ccr_metrics::jsonval::Json::parse(&json).is_ok(), "{json}");
        assert!(json.contains("\"InvariantViolated\":\"two owners\""), "{json}");
        assert!(json.contains("\"states\":54"), "{json}");
    }

    #[test]
    fn simrel_holds_logic() {
        let mut r = SimRelReport {
            async_states: 10,
            transitions_checked: 20,
            stutters: 15,
            mapped_steps: 5,
            violation: None,
            complete: true,
        };
        assert!(r.holds());
        r.violation = Some("edge".into());
        assert!(!r.holds());
    }

    #[test]
    fn progress_holds_logic() {
        let mut r = ProgressReport {
            states: 5,
            livelocked_states: 0,
            deadlocked_states: 0,
            complete: true,
            witness: None,
            witness_outcome: None,
        };
        assert!(r.holds());
        r.livelocked_states = 1;
        assert!(!r.holds());
    }
}
