//! The simulator's step against the algorithm it replaced.
//!
//! `Simulator::step_observed` used to own the whole successor list of the
//! current state: `successors()`, `retain(filter)`, `pick`, `swap_remove`.
//! It now keeps the labels of each rule group, enumerates in place only
//! the groups the last step may have changed, and fires the chosen
//! transition in a scratch state (`TransitionSystem::fire`). The reference
//! stepper below *is* the old algorithm, written out; the two must agree
//! on every step — label, state, counters, and the `None` of a quiet step
//! — on every shipped spec, under every scheduler, with a filter that
//! draws from its random generator on every call (so showing a label to
//! the filter twice, or in another order, would send the two runs apart:
//! that is the property the workloads' bit-exact benchmark outputs rest
//! on). So must they on what else `dsm_sim` and the nodes run: the hand
//! baseline's executor configuration, a node's share of the rules with the
//! rest of the system moving its state between steps, and a protocol that
//! fails, which must fail at the same step with the same error — and
//! again at the next, the failing group not taken for listed.
//!
//! A seeded fault walk steps a simulator over the fault closure, whose
//! one rule group is re-walked after every step; that path is pinned by a
//! `ccr verify --faults` report.

use ccr_core::ids::{ProcessId, RemoteId};
use ccr_core::refine::{refine, RefineOptions, ReqRepMode};
use ccr_mc::inject_unsound;
use ccr_protocols::hand::{hand_async_config, migratory_hand};
use ccr_protocols::migratory::MigratoryOptions;
use ccr_runtime::asynch::{AsyncConfig, AsyncState, AsyncSystem};
use ccr_runtime::sched::{BiasedSched, RandomSched, RoundRobinSched, Scheduler};
use ccr_runtime::sim::Simulator;
use ccr_runtime::stats::MsgStats;
use ccr_runtime::{Label, TransitionSystem};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::process::Command;

#[path = "support/specs.rs"]
mod specs;
use specs::shipped_specs;

const STEPS: usize = 5_000;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The stepping algorithm `Simulator` had: the owned successor list,
/// filtered, one entry kept.
struct Reference<'s, 'a> {
    sys: &'s AsyncSystem<'a>,
    state: AsyncState,
    stats: MsgStats,
}

impl Reference<'_, '_> {
    /// One step, and how many transitions the state had before the
    /// filter.
    fn step(
        &mut self,
        sched: &mut dyn Scheduler,
        mut filter: impl FnMut(&Label) -> bool,
    ) -> ccr_runtime::Result<(Option<Label>, usize)> {
        let mut succs = Vec::new();
        self.sys.successors(&self.state, &mut succs)?;
        let fanout = succs.len();
        succs.retain(|(l, _)| filter(l));
        let actors: Vec<ProcessId> = succs.iter().map(|(l, _)| l.actor).collect();
        let Some(idx) = sched.pick(&actors).filter(|&idx| idx < succs.len()) else {
            return Ok((None, fanout));
        };
        let (label, next) = succs.swap_remove(idx);
        self.stats.record(&label);
        self.state = next;
        for m in label.emissions() {
            if let Some(occ) = self.sys.link_occupancy(&self.state, m.from, m.to) {
                self.stats.record_occupancy(m.from, m.to, occ);
            }
        }
        Ok((Some(label), fanout))
    }
}

/// A filter that spends one draw per label whatever it decides, and lets
/// about four in five through.
fn drawing(rng: &mut StdRng) -> impl FnMut(&Label) -> bool + '_ {
    move |_| rng.random_bool(0.8)
}

fn schedulers(n: u32, seed: u64) -> Vec<(&'static str, Box<dyn Scheduler>)> {
    vec![
        ("random", Box::new(RandomSched::new(seed))),
        ("round-robin", Box::new(RoundRobinSched::new(n))),
        ("biased", Box::new(BiasedSched::new(vec![RemoteId(0)], seed))),
    ]
}

/// What the lockstep runs met between them.
#[derive(Default)]
struct Met {
    compared: usize,
    quiet: usize,
    errors: usize,
}

/// Steps the reference and a simulator over `sys` side by side for up to
/// `steps` steps, each under a scheduler from `schedulers`, until both
/// fail. Before each step, `env` may move the state by a step of its own,
/// which both then take.
fn lockstep(
    at: &str,
    sys: &AsyncSystem<'_>,
    seed: u64,
    steps: usize,
    mut env: impl FnMut(&AsyncState) -> Option<AsyncState>,
    met: &mut Met,
) {
    let n = sys.n();
    for ((sched_name, mut sched_ref), (_, mut sched_sim)) in
        schedulers(n, seed).into_iter().zip(schedulers(n, seed))
    {
        let at = format!("{at} {sched_name}");
        let mut reference = Reference { sys, state: sys.initial(), stats: MsgStats::new() };
        let mut sim = Simulator::new(sys);
        let (mut rng_ref, mut rng_sim) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
        for step in 0..steps {
            if let Some(moved) = env(&reference.state) {
                sim.state_mut().clone_from(&moved);
                reference.state = moved;
            }
            let want = reference.step(sched_ref.as_mut(), drawing(&mut rng_ref));
            let got = sim.step_filtered(sched_sim.as_mut(), drawing(&mut rng_sim));
            let (label, fanout) = match (want, got) {
                (Ok((label, fanout)), Ok(got)) => {
                    assert_eq!(got, label, "{at}: step {step}");
                    (label, fanout)
                }
                (Err(want), Err(got)) => {
                    assert_eq!(got, want, "{at}: step {step}");
                    let again = sim.step_filtered(sched_sim.as_mut(), |_| true);
                    assert_eq!(again, Err(want), "{at}: step {step}, stepped again");
                    met.errors += 1;
                    break;
                }
                (want, got) => panic!("{at}: step {step}: {want:?} vs {got:?}"),
            };
            assert_eq!(sim.last_fanout(), fanout, "{at}: step {step}: fan-out");
            assert_eq!(
                sys.encoded(sim.state()),
                sys.encoded(&reference.state),
                "{at}: step {step}: state"
            );
            assert_eq!(sim.stats(), &reference.stats, "{at}: step {step}: counters");
            met.compared += 1;
            met.quiet += usize::from(label.is_none());
        }
    }
}

#[test]
fn the_simulator_steps_as_the_owned_list_did() {
    let mut met = Met::default();
    for (name, spec) in shipped_specs() {
        for reqrep in [ReqRepMode::Auto, ReqRepMode::Off] {
            let options = RefineOptions { reqrep };
            let refined = refine(&spec, &options).expect("refine");
            for n in 1..=4u32 {
                let sys = AsyncSystem::new(&refined, n, AsyncConfig::default());
                let at = format!("{name} {options:?} n={n}");
                lockstep(&at, &sys, 1998 + u64::from(n), STEPS, |_| None, &mut met);
            }
        }
    }
    // Both kinds of step were met, in number.
    let Met { compared, quiet, .. } = met;
    assert!(compared > 500_000 && quiet > 1_000, "{compared} steps, {quiet} quiet");
}

/// The hand baseline runs with an unacknowledged allowance in the home
/// buffer and drops the home requests it cannot match, rules no derived
/// protocol reaches.
#[test]
fn the_hand_baseline_steps_as_the_owned_list_did() {
    let hand = migratory_hand(&MigratoryOptions::default());
    let mut met = Met::default();
    for n in 1..=4u32 {
        let sys = AsyncSystem::new(&hand, n, hand_async_config(n));
        lockstep(&format!("hand n={n}"), &sys, 7 + u64::from(n), STEPS, |_| None, &mut met);
    }
    let Met { compared, errors, .. } = met;
    assert!(compared > 50_000 && errors == 0, "{compared} steps, {errors} errors");
}

/// A node steps its share of the rules while the rest of the system moves
/// the state under it — about every other step, through `state_mut`, as a
/// node's deliveries do.
#[test]
fn a_node_steps_as_its_owned_list_did() {
    let mut met = Met::default();
    for (name, spec) in shipped_specs() {
        for reqrep in [ReqRepMode::Auto, ReqRepMode::Off] {
            let options = RefineOptions { reqrep };
            let refined = refine(&spec, &options).expect("refine");
            for n in [2u32, 3] {
                let sys = AsyncSystem::new(&refined, n, AsyncConfig::default());
                let processes = std::iter::once(ProcessId::Home)
                    .chain((0..n).map(|i| ProcessId::Remote(RemoteId(i))));
                for who in processes {
                    let node = sys.clone().restricted_to(who);
                    let mut rng = StdRng::seed_from_u64(u64::from(n));
                    let mut others = Vec::new();
                    let env = |s: &AsyncState| {
                        if !rng.random_bool(0.5) {
                            return None;
                        }
                        sys.successors(s, &mut others).ok()?;
                        others.retain(|(l, _)| l.actor != who);
                        if others.is_empty() {
                            return None;
                        }
                        Some(others.swap_remove(rng.random_range(0..others.len())).1)
                    };
                    let at = format!("{name} {options:?} n={n} {who}'s node");
                    lockstep(&at, &node, 5 + u64::from(n), 1_000, env, &mut met);
                }
            }
        }
    }
    let Met { compared, quiet, .. } = met;
    assert!(compared > 100_000 && quiet > 1_000, "{compared} steps, {quiet} quiet");
}

/// A refinement doctored as `ccr fuzz --inject-broken` doctors one — a
/// remote request that awaits an ack marked fire-and-forget — fails, and
/// the simulator reports the reference's error at the reference's step.
#[test]
fn a_doctored_protocol_fails_at_the_same_step() {
    let mut met = Met::default();
    for (name, spec) in shipped_specs() {
        for reqrep in [ReqRepMode::Auto, ReqRepMode::Off] {
            let options = RefineOptions { reqrep };
            let mut refined = refine(&spec, &options).expect("refine");
            if !inject_unsound(&mut refined) {
                continue;
            }
            for n in 1..=3u32 {
                let sys = AsyncSystem::new(&refined, n, AsyncConfig::default());
                let at = format!("doctored {name} {options:?} n={n}");
                lockstep(&at, &sys, 3 + u64::from(n), STEPS, |_| None, &mut met);
            }
        }
    }
    // The error path was taken, and not once by luck.
    assert!(met.errors > 20, "{} errors in {} steps", met.errors, met.compared);
}

/// `ccr verify --faults` walks a simulator over the fault closure, its
/// drops, duplicates, reorderings and retransmissions fired as the
/// closure's own transitions. The report — every counter of three
/// 20,000-poll walks, the protocol error the reordering provokes in the
/// end and the failing walk's trail — was written by the binary of the
/// commit that made the walk a path of the closure; the harness it
/// replaced reported the same error, with the counts EXPERIMENTS.md
/// puts beside these.
#[test]
fn a_faulted_walk_reports_what_the_parent_commit_reported() {
    let out = Command::new(env!("CARGO_BIN_EXE_ccr"))
        .args(["verify", "specs/migratory.ccp", "-n", "3", "--seed", "7", "--json"])
        .args(["--faults", "drop=0.05,dup=0.02,reorder=0.01"])
        .current_dir(root())
        .output()
        .expect("run ccr");
    let golden = std::fs::read(root().join("tests/golden/migratory_n3_fault_walk_seed7.json"))
        .expect("golden");
    assert_eq!(String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&golden));
}
