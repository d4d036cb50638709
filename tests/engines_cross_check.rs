//! Cross-validation of the two implementations of Tables 1 and 2: the
//! verified global executor (`ccr-runtime::asynch`) and the deployment
//! per-role engines (`ccr-dsm::engine`). We drive a complete single-remote
//! lockstep bridge — every wire message produced by an engine is delivered
//! into the other — and require the engines to traverse exactly the
//! control states the global executor would.

use ccr_core::ids::RemoteId;
use ccr_core::refine::{refine, RefineOptions, ReqRepMode};
use ccr_dsm::engine::{HomeEngine, Phase, RemoteEngine};
use ccr_dsm::threaded::{run_threaded, ThreadedConfig};
use ccr_protocols::invalidate::{invalidate_refined, InvalidateOptions};
use ccr_protocols::migratory::{migratory_refined, MigratoryOptions};
use ccr_protocols::token::token;
use ccr_runtime::wire::Wire;

/// Run a one-remote system purely through the engines until `target`
/// completions, checking it never wedges.
fn engine_lockstep(refined: &ccr_core::refine::RefinedProtocol, target: u64) {
    let mut home = HomeEngine::new(refined, 1, 2, 0);
    let mut remote = RemoteEngine::new(refined, RemoteId(0));
    let mut to_home: Vec<Wire> = Vec::new();
    let mut to_remote: Vec<(RemoteId, Wire)> = Vec::new();
    let mut always = |_: &str| true;
    let mut rounds = 0u64;
    while home.completions.total() + remote.completions.total() < target {
        rounds += 1;
        assert!(
            rounds < 100_000,
            "engines wedged: home {:?} remote {:?}",
            home.phase(),
            remote.phase()
        );
        let mut progressed = false;
        // Deliver pending traffic.
        for w in to_home.drain(..) {
            home.handle(RemoteId(0), w, &mut to_remote).unwrap();
            progressed = true;
        }
        let drain = std::mem::take(&mut to_remote);
        for (_, w) in drain {
            remote.handle(w, &mut to_home).unwrap();
            progressed = true;
        }
        progressed |= home.poll(&mut to_remote).unwrap();
        progressed |= remote.poll(&mut always, &mut to_home).unwrap();
        assert!(progressed || !to_home.is_empty() || !to_remote.is_empty(), "no progress possible");
    }
}

#[test]
fn token_engines_run_forever() {
    let refined = refine(&token(), &RefineOptions::default()).unwrap();
    engine_lockstep(&refined, 200);
}

#[test]
fn token_engines_run_unoptimized_too() {
    let refined = refine(&token(), &RefineOptions { reqrep: ReqRepMode::Off }).unwrap();
    engine_lockstep(&refined, 200);
}

#[test]
fn migratory_engines_run() {
    let refined = migratory_refined(&MigratoryOptions::default());
    engine_lockstep(&refined, 200);
}

#[test]
fn invalidate_engines_run() {
    let refined = invalidate_refined(&InvalidateOptions { data_domain: Some(4) });
    engine_lockstep(&refined, 200);
}

#[test]
fn engine_states_match_spec_states() {
    // After any number of completed cycles the remote engine must sit at a
    // state of the original spec (never a phantom state).
    let refined = migratory_refined(&MigratoryOptions::default());
    let mut remote = RemoteEngine::new(&refined, RemoteId(0));
    let mut out = Vec::new();
    let mut always = |_: &str| true;
    for _ in 0..10 {
        let _ = remote.poll(&mut always, &mut out).unwrap();
        match remote.phase() {
            Phase::At(s) | Phase::Awaiting { state: s, .. } => {
                assert!(refined.spec.remote.state(s).is_some());
            }
        }
        // Feed nacks back so requests retry rather than block forever.
        if matches!(remote.phase(), Phase::Awaiting { .. }) {
            remote.handle(Wire::Nack, &mut out).unwrap();
        }
        out.clear();
    }
}

#[test]
fn threaded_matches_machine_msgs_per_op_roughly() {
    // The threaded engines and the verified global machine run the same
    // tables, so they share the protocol's static message economy: under
    // *any* schedule an acquisition costs at least the `req`/`gr` round
    // `refine` prices (one message each: the pair's ack is elided), and
    // whatever else the home sees — revocations, nacks, retries — only
    // adds to it. How much it adds depends on thread timing, so only the
    // deterministic machine is also held to a ceiling; the threaded run's
    // own liveness under a deadline is `ccr-dsm`'s
    // `threaded_migratory_reaches_target`.
    use ccr_dsm::machine::{Machine, MachineConfig};
    use ccr_dsm::workload::Migrating;
    use ccr_runtime::sched::RandomSched;

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
