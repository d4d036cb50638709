//! What refinement derives from each shipped protocol: the request/reply
//! pairs the paper names, the transient states of its figures, the static
//! message costs, and the state inventories.

use ccr_core::process::ProtocolSpec;
use ccr_core::refine::{refine, PairDirection, RefineOptions, RefinedProtocol, ReqRepMode};
use ccr_protocols::invalidate::{invalidate, invalidate_refined, InvalidateOptions};
use ccr_protocols::migratory::{migratory, migratory_refined, MigratoryOptions};
use ccr_protocols::token::token;
use ccr_protocols::update::update_refined;

/// The detected pairs as `(request, reply, direction)` names, sorted.
fn pair_names(refined: &RefinedProtocol) -> Vec<(String, String, PairDirection)> {
    let spec: &ProtocolSpec = &refined.spec;
    let mut names: Vec<_> = refined
        .pairs
        .iter()
        .map(|p| (spec.msg_name(p.req).to_string(), spec.msg_name(p.repl).to_string(), p.direction))
        .collect();
    names.sort();
    names
}

fn pair(req: &str, repl: &str, direction: PairDirection) -> (String, String, PairDirection) {
    (req.to_string(), repl.to_string(), direction)
}

#[test]
fn migratory_detects_exactly_the_papers_two_pairs() {
    for opts in [MigratoryOptions::CpuGated, MigratoryOptions::GatedData2] {
        assert_eq!(
            pair_names(&migratory_refined(&opts)),
            vec![
                pair("inv", "ID", PairDirection::HomeRequests),
                pair("req", "gr", PairDirection::RemoteRequests),
            ],
            "{opts:?}: req/gr and inv/ID"
        );
    }
}

#[test]
fn migratory_lr_is_a_plain_rendezvous_in_the_derived_protocol() {
    let refined = migratory_refined(&MigratoryOptions::default());
    let lr = refined.spec.msg_by_name("LR").unwrap();
    assert_eq!(refined.message_cost(lr), 2, "LR costs req+ack when derived");
    assert!(refined.unacked.is_empty());
}

#[test]
fn migratory_transient_counts_match_figures_4_and_5() {
    // Figure 5 shows two transient states on the remote (for req and
    // LR); ID is fire-and-forget so it gets none.
    let refined = migratory_refined(&MigratoryOptions::default());
    assert_eq!(refined.remote.transient_count(), 2);
    // Figure 4 shows one transient on the home (for inv); gr sends are
    // fire-and-forget replies.
    assert_eq!(refined.home.transient_count(), 1);
}

#[test]
fn migratory_state_names_match_figures_2_and_3() {
    let spec = migratory(&MigratoryOptions::default());
    for name in ["F", "G1", "E", "I1", "I2", "I3"] {
        assert!(spec.home.state_by_name(name).is_some(), "missing {name}");
    }
    for name in ["I", "RQ", "W", "V", "IDS", "LRS"] {
        assert!(spec.remote.state_by_name(name).is_some(), "missing {name}");
    }
    let checking = migratory(&MigratoryOptions::Checking);
    assert!(checking.remote.state_by_name("I").is_none(), "no idle state when ungated");
    assert!(checking.remote.state_by_name("RQ").is_some());
}

#[test]
fn migratory_static_cost_with_and_without_optimization() {
    let spec = migratory(&MigratoryOptions::default());
    let derived = migratory_refined(&MigratoryOptions::default());
    let unopt = refine(&spec, &RefineOptions { reqrep: ReqRepMode::Off }).unwrap();
    // 5 distinct sent messages: req, gr, LR, inv, ID.
    // Optimized: req(1)+gr(1)+LR(2)+inv(1)+ID(1) = 6.
    // Unoptimized: 5 * 2 = 10.
    assert_eq!(derived.total_static_cost(), 6);
    assert_eq!(unopt.total_static_cost(), 10);
}

#[test]
fn invalidate_detects_three_pairs() {
    assert_eq!(
        pair_names(&invalidate_refined(&InvalidateOptions::default())),
        vec![
            pair("inv", "ID", PairDirection::HomeRequests),
            pair("rreq", "gr", PairDirection::RemoteRequests),
            pair("wreq", "grx", PairDirection::RemoteRequests),
        ]
    );
}

#[test]
fn invalidate_plain_messages_cost_two() {
    let refined = invalidate_refined(&InvalidateOptions::default());
    for name in ["invs", "rel", "wb"] {
        let m = refined.spec.msg_by_name(name).unwrap();
        assert_eq!(refined.message_cost(m), 2, "{name} should be unoptimized");
    }
}

#[test]
fn invalidate_state_inventory() {
    let spec = invalidate(&InvalidateOptions::default());
    assert_eq!(spec.home.states.len(), 12);
    assert_eq!(spec.remote.states.len(), 10);
}

#[test]
fn update_detects_only_rreq_gr() {
    let refined = update_refined();
    assert_eq!(pair_names(&refined), vec![pair("rreq", "gr", PairDirection::RemoteRequests)]);
    // upd, push and rel stay plain.
    for m in ["upd", "push", "rel"] {
        let mt = refined.spec.msg_by_name(m).unwrap();
        assert_eq!(refined.message_cost(mt), 2, "{m}");
    }
}

#[test]
fn token_optimizes_req_gr() {
    let refined = refine(&token(), &RefineOptions::default()).unwrap();
    assert_eq!(pair_names(&refined), vec![pair("req", "gr", PairDirection::RemoteRequests)]);
}
