//! The simulator's step against the algorithm it replaced.
//!
//! `Simulator::step_observed` used to own the whole successor list of the
//! current state: `successors()`, `retain(filter)`, `pick`, `swap_remove`.
//! It now enumerates labels in place and fires the chosen ordinal in a
//! scratch state (`TransitionSystem::fire`). The reference stepper below
//! *is* the old algorithm, written out; the two must agree on every step —
//! label, state, counters, and the `None` of a quiet step — on every
//! shipped spec, under every scheduler, with a filter that draws from its
//! random generator on every call (so showing a label to the filter
//! twice, or in another order, would send the two runs apart: that is the
//! property the workloads' bit-exact benchmark outputs rest on).
//!
//! The fault harness writes to the simulator's state between steps, which
//! the scratch state has to follow; that path is pinned by a `ccr verify
//! --faults` report written by the commit before the change.

use ccr_core::ids::RemoteId;
use ccr_core::refine::{refine, RefineOptions, ReqRepMode};
use ccr_runtime::asynch::{AsyncConfig, AsyncSystem};
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
    state: <AsyncSystem<'a> as TransitionSystem>::State,
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
        let labels: Vec<Label> = succs.iter().map(|(l, _)| l.clone()).collect();
        let Some(idx) = sched.pick(&labels).filter(|&idx| idx < succs.len()) else {
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

#[test]
fn the_simulator_steps_as_the_owned_list_did() {
    let mut compared = 0usize;
    let mut quiet = 0usize;
    for (name, spec) in shipped_specs() {
        for reqrep in [ReqRepMode::Auto, ReqRepMode::Off] {
            let options = RefineOptions { reqrep };
            let refined = refine(&spec, &options).expect("refine");
            for n in 1..=4u32 {
                let sys = AsyncSystem::new(&refined, n, AsyncConfig::default());
                let seed = 1998 + u64::from(n);
                for ((sched_name, mut sched_ref), (_, mut sched_sim)) in
                    schedulers(n, seed).into_iter().zip(schedulers(n, seed))
                {
                    let at = format!("{name} {options:?} n={n} {sched_name}");
                    let mut reference =
                        Reference { sys: &sys, state: sys.initial(), stats: MsgStats::new() };
                    let mut sim = Simulator::new(&sys);
                    let (mut rng_ref, mut rng_sim) =
                        (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                    for step in 0..STEPS {
                        let want = reference.step(sched_ref.as_mut(), drawing(&mut rng_ref));
                        let got = sim.step_filtered(sched_sim.as_mut(), drawing(&mut rng_sim));
                        let (label, fanout) = match (want, got) {
                            (Ok((label, fanout)), Ok(got)) => {
                                assert_eq!(got, label, "{at}: step {step}");
                                (label, fanout)
                            }
                            (Err(want), Err(got)) => {
                                assert_eq!(got, want, "{at}: step {step}");
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
                        compared += 1;
                        quiet += usize::from(label.is_none());
                    }
                }
            }
        }
    }
    // Both kinds of step were met, in number.
    assert!(compared > 500_000 && quiet > 1_000, "{compared} steps, {quiet} quiet");
}

/// `ccr verify --faults` walks the simulator through the fault harness,
/// whose drops, duplicates and reorderings are written into the current
/// state behind the simulator's back. The report — every counter of three
/// 20,000-step walks, and the protocol error the reordering provokes in
/// the end — was written by the binary of the parent commit.
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
