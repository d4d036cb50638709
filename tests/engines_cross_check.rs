//! Cross-validation of the per-node runner against the verified global
//! executor. A node of the deployed machine (`ccr_dsm::threaded::Node`)
//! steps the share of `ccr-runtime::asynch`'s rules that names it as the
//! actor. Here the home and every remote run as such nodes on one thread,
//! joined by in-memory FIFO queues, under a seeded choice of which node
//! steps and of what the network has delivered by then, while the global
//! simulator fires the same labels beside them: after every step the
//! nodes' own slices and link ends, with the queues between them, must be
//! the global configuration. The real threads are then held to the
//! protocol's message economy, to a deadline, and to ending on an error.

use ccr_core::ids::{ProcessId, RemoteId};
use ccr_core::process::ProtocolSpec;
use ccr_core::refine::{refine, RefineOptions, RefinedProtocol, ReqRepMode};
use ccr_dsm::threaded::{run_threaded, Node, ThreadedConfig};
use ccr_protocols::invalidate::{invalidate, InvalidateOptions};
use ccr_protocols::migratory::{migratory, migratory_refined, MigratoryOptions};
use ccr_protocols::token::token;
use ccr_protocols::update::update;
use ccr_runtime::asynch::{AsyncConfig, AsyncSystem};
use ccr_runtime::sched::RandomSched;
use ccr_runtime::sim::Simulator;
use ccr_runtime::wire::Wire;
use ccr_runtime::{RuntimeError, TransitionSystem};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, VecDeque};

/// Steps fired per configuration.
const STEPS: usize = 5_000;

/// Runs `refined` over `n` remotes as `n + 1` nodes in lockstep with the
/// global simulator for [`STEPS`] steps, and adds the rules fired to
/// `rules`.
fn lockstep(refined: &RefinedProtocol, n: u32, seed: u64, rules: &mut BTreeSet<&'static str>) {
    let sys = AsyncSystem::new(refined, n, AsyncConfig::default());
    let shares: Vec<_> = std::iter::once(ProcessId::Home)
        .chain((0..n).map(|i| ProcessId::Remote(RemoteId(i))))
        .map(|who| sys.clone().restricted_to(who))
        .collect();
    let mut nodes: Vec<_> = shares.iter().map(Node::new).collect();
    let mut scheds: Vec<_> = (0..=n).map(|p| RandomSched::new(seed + u64::from(p))).collect();
    // The network: per remote, what is in flight towards the home and
    // towards the remote.
    let mut to_home = vec![VecDeque::<Wire>::new(); n as usize];
    let mut to_remote = to_home.clone();
    let mut global = Simulator::new(&sys);
    let mut any = RandomSched::new(0);
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut fired, mut polls) = (0, 0);
    while fired < STEPS {
        polls += 1;
        assert!(polls < 100 * STEPS, "{fired} steps in {polls} polls: the nodes are wedged");
        let p = rng.random_range(0..nodes.len());
        let (inbound, outbound) =
            if p == 0 { (&mut to_home, &mut to_remote) } else { (&mut to_remote, &mut to_home) };
        for i in nodes[p].slices() {
            if rng.random_bool(0.5) {
                if let Some(w) = inbound[i].pop_front() {
                    nodes[p].deliver(i, w);
                }
            }
        }
        let stepped = nodes[p].step(&mut scheds[p], |_| true, |i, w| outbound[i].push_back(w));
        let Some(label) = stepped.expect("a node's step") else { continue };
        fired += 1;
        rules.insert(label.rule);

        // The global executor has that transition.
        let same = global.step_filtered(&mut any, |l| *l == label).expect("a global step");
        assert_eq!(same.as_ref(), Some(&label), "step {fired}");

        let mut composed = nodes[0].state().clone();
        for i in 0..n as usize {
            let own = &nodes[i + 1].state().remotes[i];
            let slice = &mut composed.remotes[i];
            assert!(slice.to_remote.is_empty() && own.to_home.is_empty(), "sent and not drained");
            (slice.phase, slice.buf) = (own.phase, own.buf);
            slice.env.clone_from(&own.env);
            to_home[i].iter().for_each(|w| slice.to_home.push(*w));
            slice.to_remote.clone_from(&own.to_remote);
            to_remote[i].iter().for_each(|w| slice.to_remote.push(*w));
        }
        let at = format!("after step {fired}, {:?} by {}", label.rule, label.actor);
        assert_eq!(sys.encoded(&composed), sys.encoded(global.state()), "{at}");
    }
}

/// The lockstep over `n` = 1..=4 in the given modes; returns the rules
/// the walks fired between them.
fn lockstep_matrix(spec: &ProtocolSpec, modes: &[ReqRepMode]) -> BTreeSet<&'static str> {
    let mut rules = BTreeSet::new();
    for reqrep in modes {
        let refined = refine(spec, &RefineOptions { reqrep: reqrep.clone() }).expect("refine");
        for n in 1..=4 {
            lockstep(&refined, n, 1998 + u64::from(n), &mut rules);
        }
    }
    rules
}

/// A matrix that saw no nack and no §3.3 reply would have gone vacuous.
fn saw_nacks_and_replies(rules: &BTreeSet<&'static str>) {
    assert!(rules.contains("T6") || rules.contains("C3/nack"), "no nack among {rules:?}");
    assert!(rules.iter().any(|r| r.ends_with("/reply")), "no reply among {rules:?}");
}

#[test]
fn token_engines_run_forever() {
    saw_nacks_and_replies(&lockstep_matrix(&token(), &[ReqRepMode::Auto]));
}

#[test]
fn token_engines_run_unoptimized_too() {
    let rules = lockstep_matrix(&token(), &[ReqRepMode::Off]);
    assert!(rules.contains("T6"), "no nack among {rules:?}");
}

#[test]
fn migratory_engines_run() {
    let spec = migratory(&MigratoryOptions::default());
    saw_nacks_and_replies(&lockstep_matrix(&spec, &[ReqRepMode::Auto, ReqRepMode::Off]));
}

#[test]
fn invalidate_engines_run() {
    let spec = invalidate(&InvalidateOptions::Data2);
    saw_nacks_and_replies(&lockstep_matrix(&spec, &[ReqRepMode::Auto, ReqRepMode::Off]));
}

#[test]
fn update_engines_run() {
    let spec = update();
    saw_nacks_and_replies(&lockstep_matrix(&spec, &[ReqRepMode::Auto, ReqRepMode::Off]));
}

/// The real threads complete `target` operations well inside the
/// deadline, without an error.
fn reaches_target(refined: &RefinedProtocol, n: u32, target: u64) -> Vec<u64> {
    let config = ThreadedConfig { n, target_ops: target, ..Default::default() };
    let report = run_threaded(refined, &config);
    assert!(report.error.is_none(), "{:?}", report.error);
    assert!(report.reached_target && report.ops >= target, "{report:?}");
    report.per_remote
}

#[test]
fn threaded_token_reaches_target() {
    reaches_target(&refine(&token(), &RefineOptions::default()).unwrap(), 2, 200);
}

#[test]
fn threaded_migratory_reaches_target() {
    let refined = migratory_refined(&MigratoryOptions::GatedData2);
    let per_remote = reaches_target(&refined, 4, 500);
    // Every remote should have completed something under the fair-ish
    // random workload.
    assert!(per_remote.iter().filter(|&&c| c > 0).count() >= 3);
}

/// A refinement doctored the way `ccr_mc::inject_unsound` doctors one —
/// the remote's `req` is marked fire-and-forget, so the home's ack or
/// nack finds a remote that awaits none — traps on a remote thread. That error is
/// the run's, and it ends the run: the home is not left polling for
/// operations that cannot arrive until the time limit.
#[test]
fn a_failing_remote_ends_the_run_with_its_error() {
    let spec = token();
    let mut refined = refine(&spec, &RefineOptions { reqrep: ReqRepMode::Off }).unwrap();
    let requesting = spec.remote.state_by_name("RQ").expect("RQ");
    refined.remote_fire_forget.insert((requesting, 0));
    let config = ThreadedConfig { n: 2, target_ops: u64::MAX, ..Default::default() };
    let report = run_threaded(&refined, &config);
    assert!(
        matches!(
            report.error,
            Some(RuntimeError::UnexpectedResponse { who: ProcessId::Remote(_), .. })
        ),
        "{report:?}"
    );
    assert!(report.elapsed < config.time_limit / 4, "{:?}", report.elapsed);
}

#[test]
fn threaded_matches_machine_msgs_per_op_roughly() {
    // The threaded nodes and the verified global machine run the same
    // tables, so they share the protocol's static message economy: under
    // *any* schedule an acquisition costs at least the `req`/`gr` round
    // `refine` prices (one message each: the pair's ack is elided), and
    // whatever else the home sees — revocations, nacks, retries — only
    // adds to it. How much it adds depends on thread timing, so only the
    // deterministic machine is also held to a ceiling; the threaded run's
    // own liveness under a deadline is `threaded_migratory_reaches_target`.
    use ccr_dsm::machine::{Machine, MachineConfig};
    use ccr_dsm::workload::Migrating;

    let refined = migratory_refined(&MigratoryOptions::default());
    let cost = |name: &str| refined.message_cost(refined.spec.msg_by_name(name).expect(name));
    let floor = f64::from(cost("req") + cost("gr"));
    assert_eq!(floor, 2.0, "migratory's acquisition is a request/reply pair");

    let config = MachineConfig::standard(&refined, 4, 100_000);
    let machine = Machine::new(&refined, config);
    let mut wl = Migrating::new(5, 0.5, 0.5);
    let mut sched = RandomSched::new(6);
    let report = machine.run("derived", &mut wl, &mut sched).unwrap();
    let machine_mpo = report.msgs_per_op.unwrap();
    // Seeded, hence exact run to run: an acquisition plus the `inv`/`ID`
    // round that revokes the line from its holder is the static price of
    // a migration; nacked retries may at most double it.
    let migration = floor + f64::from(cost("inv") + cost("ID"));
    assert!(machine_mpo >= floor, "machine {machine_mpo:.2} below the static floor {floor}");
    assert!(machine_mpo < 2.0 * migration, "machine {machine_mpo:.2} vs static {migration}");

    let tconfig = ThreadedConfig { n: 4, target_ops: 2_000, ..Default::default() };
    let treport = run_threaded(&refined, &tconfig);
    assert!(treport.error.is_none(), "{:?}", treport.error);
    assert!(
        treport.home_messages as f64 >= floor * treport.ops as f64,
        "threaded: {} messages for {} operations, below the static floor {floor}",
        treport.home_messages,
        treport.ops
    );
}
