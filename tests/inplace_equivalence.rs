//! The in-place successors, and the one fired, against the owned ones.
//!
//! `ccr_mc`'s sweep never holds a successor: it lends the rules of
//! Tables 1–2 one scratch state through
//! `TransitionSystem::for_each_successor` and gets it back as it was. The
//! simulator enumerates a state the same way and then takes the step it
//! chose through `TransitionSystem::fire`, which builds that one successor
//! and no other. The rest — the `--threads` workers, trail replay — call
//! `successors()` and own what they get. All three are the same rule
//! bodies behind three emitters, and this suite pins that on every
//! shipped spec: same labels, same targets, same order, at every
//! reachable state, the scratch state equal to the parent after every
//! expansion, and `fire` landing on each successor in turn and on nothing
//! past the last (`ccr fuzz` runs the same comparison over the zoo as its
//! `inplace` stage).

use ccr_core::refine::{refine, RefineOptions, ReqRepMode};
use ccr_mc::inplace_divergence;
use ccr_runtime::asynch::{AsyncConfig, AsyncSystem};
use ccr_runtime::rendezvous::RendezvousSystem;
use ccr_runtime::{FaultClosure, TransitionSystem};
use std::ops::ControlFlow;

#[path = "support/specs.rs"]
mod specs;
use specs::shipped_specs;

/// States walked per configuration, breadth-first. An optimized build —
/// CI's release smoke job — walks every space whole but invalidate and
/// update at n = 3 (636,456 and more than two million states), and goes
/// a quarter of a million states into those; a debug build stops at a
/// prefix of anything larger than migratory.
const MAX_STATES: usize = if cfg!(debug_assertions) { 15_000 } else { 250_000 };

#[test]
fn in_place_successors_are_the_owned_ones_on_every_shipped_spec() {
    for (name, spec) in shipped_specs() {
        for reqrep in [ReqRepMode::Off, ReqRepMode::Auto] {
            let options = RefineOptions { reqrep };
            let refined = refine(&spec, &options).expect("refine");
            for n in [2, 3] {
                let sys = AsyncSystem::new(&refined, n, AsyncConfig::default());
                if let Some(divergence) = inplace_divergence(&sys, MAX_STATES) {
                    panic!("{name} n={n} {options:?}: {divergence}");
                }
            }
        }
    }
}

/// Systems without an in-place generator answer through `successors`:
/// the default enumeration must show the same sequence and never touch
/// the scratch state, and the default `fire` keep the right one of the
/// list.
#[test]
fn the_default_goes_through_successors() {
    let (_, spec) =
        shipped_specs().into_iter().find(|(n, _)| n == "migratory.ccp").expect("migratory");
    let refined = refine(&spec, &RefineOptions::default()).expect("refine");
    let rv = RendezvousSystem::new(&spec, 3);
    assert_eq!(inplace_divergence(&rv, MAX_STATES), None);
    let asys = AsyncSystem::new(&refined, 2, AsyncConfig::default());
    assert_eq!(inplace_divergence(&FaultClosure::new(asys, 1), MAX_STATES), None);
}

#[test]
fn a_visitor_that_breaks_sees_no_more_and_gets_its_scratch_state_back() {
    let (_, spec) =
        shipped_specs().into_iter().find(|(n, _)| n == "invalidate.ccp").expect("invalidate");
    let refined = refine(&spec, &RefineOptions::default()).expect("refine");
    let sys = AsyncSystem::new(&refined, 3, AsyncConfig::default());
    let s = sys.initial();
    let mut all = Vec::new();
    sys.successors(&s, &mut all).expect("successors");
    assert!(all.len() > 2, "the initial state has a successor per remote");
    let mut scratch = s.clone();
    let mut seen = 0;
    sys.for_each_successor(&s, &mut scratch, |label, next, _| {
        assert_eq!((&label, next), (&all[seen].0, &all[seen].1));
        seen += 1;
        if seen == 2 {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    })
    .expect("for_each_successor");
    assert_eq!(seen, 2);
    assert_eq!(scratch, s);
}
