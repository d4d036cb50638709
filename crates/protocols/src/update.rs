//! A write-update protocol — an extension beyond the paper's two subjects.
//!
//! The paper's framework claims to cover "large classes of DSM protocols";
//! invalidation-based designs are only one family. This protocol keeps all
//! read copies *live* on writes: a writer (which must hold a copy) sends
//! the new value to the home (`upd`) and immediately resumes reading; the
//! home pushes the value to every other sharer one at a time (`push`).
//! Update protocols shine when sharers re-read hot data frequently — the
//! complementary regime to write-invalidate.
//!
//! A design note that *demonstrates the paper's methodology*: the first
//! version of this protocol made writers block until the home confirmed
//! the update round. The rendezvous-level model checker found the deadlock
//! immediately (two simultaneous writers: the home cannot push to a blocked
//! writer, and the writer cannot unblock until pushed) — in a handful of
//! states, before any asynchronous machinery existed. The fix is the
//! classic update-protocol one: writes never block, and the home's `PUSH`
//! state *absorbs* competing `upd`s by restarting the round with the newest
//! value (last-writer-wins within a round).
//!
//! Refinement pairs `rreq/gr` only; the mid-push races (a sharer evicting or
//! writing during a push) fall to migratory's `inv`/`LR` transient states.

use ccr_core::process::ProtocolSpec;
use ccr_core::refine::{refine, RefineOptions, RefinedProtocol};
use ccr_core::value::Value;
use ccr_runtime::rendezvous::RvState;

/// The rendezvous write-update specification, `specs/update.ccp`, with
/// data tracked modulo 2: sharers agreeing on the pushed value is the
/// coherence property. In `PUSH` a competing `upd` restarts the round with
/// the newer value (without it the two-writer deadlock above reappears).
pub fn update() -> ProtocolSpec {
    crate::load(include_str!("../../../specs/update.ccp"))
}

/// The update protocol refined with automatic request/reply detection.
pub fn update_refined() -> RefinedProtocol {
    refine(&update(), &RefineOptions::default()).expect("update refines under the default options")
}

/// Rendezvous-level coherence invariant: whenever the home is quiescent
/// (`F` or `S`), every sharer agrees with the home's data value, and the
/// sharer mask covers every remote holding a copy.
pub fn update_rv_invariant(spec: &ProtocolSpec) -> impl FnMut(&RvState) -> Option<String> {
    let sh = spec.remote.state_by_name("Sh").expect("remote Sh");
    let f = spec.home.state_by_name("F").expect("home F");
    let s_state = spec.home.state_by_name("S").expect("home S");
    let s_var = spec.home.vars.iter().position(|v| v.name == "s").expect("mask");
    let d_var = spec.home.vars.iter().position(|v| v.name == "d");
    let data_var = spec.remote.vars.iter().position(|v| v.name == "data");
    move |st: &RvState| {
        let quiescent = st.home.state == f || st.home.state == s_state;
        let sharers: Vec<usize> =
            st.remotes.iter().enumerate().filter(|(_, r)| r.state == sh).map(|(i, _)| i).collect();
        if let Some(Value::Mask(mask)) = st.home.env.get(s_var) {
            for &i in &sharers {
                if mask & (1 << i) == 0 {
                    return Some(format!("r{i} holds a copy outside the sharer mask"));
                }
            }
            if st.home.state == f && mask != 0 {
                return Some("home Free with a non-empty sharer mask".into());
            }
        }
        if quiescent {
            if let (Some(dv), Some(rv)) = (d_var, data_var) {
                if let Some(home_d) = st.home.env.get(dv) {
                    for &i in &sharers {
                        if st.remotes[i].env.get(rv) != Some(home_d) {
                            return Some(format!("sharer r{i} disagrees with the committed value"));
                        }
                    }
                }
            }
        }
        None
    }
}
