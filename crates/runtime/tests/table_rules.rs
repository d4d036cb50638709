//! Direct tests of the individual rows of the paper's Tables 1 and 2,
//! driven through hand-picked transition sequences of the asynchronous
//! executor. Each test walks the global system to a configuration where
//! exactly the rule under test is enabled and checks its effect.

use ccr_core::builder::ProtocolBuilder;
use ccr_core::expr::Expr;
use ccr_core::ids::{ProcessId, RemoteId};
use ccr_core::process::ProtocolSpec;
use ccr_core::refine::{refine, RefineOptions, RefinedProtocol, ReqRepMode};
use ccr_core::value::Value;
use ccr_runtime::asynch::{AsyncConfig, AsyncState, AsyncSystem, HomePhase, RemotePhase};
use ccr_runtime::system::{Label, TransitionSystem};

/// Token protocol *without* request/reply optimization, so every rendezvous
/// uses the plain request/ack scheme and all table rows are reachable.
fn plain_token() -> RefinedProtocol {
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
    let spec: ProtocolSpec = b.finish().unwrap();
    refine(&spec, &RefineOptions { reqrep: ReqRepMode::Off }).unwrap()
}

/// Fires the first enabled transition whose label satisfies `pred`,
/// panicking (with the available rules listed) if none does.
fn fire(
    sys: &AsyncSystem<'_>,
    s: &AsyncState,
    pred: impl Fn(&Label) -> bool,
    what: &str,
) -> (Label, AsyncState) {
    let mut succs = Vec::new();
    sys.successors(s, &mut succs).unwrap();
    let available: Vec<String> =
        succs.iter().map(|(l, _)| format!("{}:{}", l.actor, l.rule)).collect();
    succs
        .into_iter()
        .find(|(l, _)| pred(l))
        .unwrap_or_else(|| panic!("no transition for {what}; available: {available:?}"))
}

fn by_rule<'a>(actor: ProcessId, rule: &'a str) -> impl Fn(&Label) -> bool + 'a {
    move |l: &Label| l.actor == actor && l.rule == rule
}

const R0: ProcessId = ProcessId::Remote(RemoteId(0));
const R1: ProcessId = ProcessId::Remote(RemoteId(1));
const H: ProcessId = ProcessId::Home;

#[test]
fn remote_c1_sends_request_and_enters_transient() {
    let refined = plain_token();
    let sys = AsyncSystem::new(&refined, 2, AsyncConfig::default());
    let s0 = sys.initial();
    let (label, s1) = fire(&sys, &s0, by_rule(R0, "C1"), "remote C1");
    assert!(label.emissions().any(|m| m.msg.is_some()));
    assert!(matches!(s1.remotes[0].phase, RemotePhase::Awaiting { .. }));
    assert_eq!(s1.remotes[0].to_home.len(), 1);
}

#[test]
fn home_buffers_request_then_c1_acks_it() {
    let refined = plain_token();
    let sys = AsyncSystem::new(&refined, 2, AsyncConfig::default());
    let s0 = sys.initial();
    let (_, s1) = fire(&sys, &s0, by_rule(R0, "C1"), "remote C1");
    // Delivery into the home buffer (T4/T5 depending on occupancy).
    let (label, s2) = fire(
        &sys,
        &s1,
        |l| l.actor == H && l.kind == ccr_runtime::LabelKind::Deliver,
        "home buffering",
    );
    assert!(label.rule == "T4" || label.rule == "T5", "{}", label.rule);
    assert_eq!(s2.home.buf.len(), 1);
    // Home C1: consume + ack.
    let (label, s3) = fire(&sys, &s2, by_rule(H, "C1"), "home C1");
    assert!(label.emissions().any(|m| m.is_ack));
    assert!(label.completes.is_some());
    assert!(s3.home.buf.is_empty());
    assert_eq!(s3.remotes[0].to_remote.len(), 1);
    // Remote T1: ack completes the rendezvous.
    let (label, s4) = fire(&sys, &s3, by_rule(R0, "T1"), "remote T1");
    assert!(label.completes.is_some());
    let w = refined.spec.remote.state_by_name("W").unwrap();
    assert_eq!(s4.remotes[0].phase, RemotePhase::At(w));
}

#[test]
fn home_c2_reserves_ack_buffer_and_t6_nacks_overflow() {
    let refined = plain_token();
    // k = 2: after one buffered request and an ack-buffer reservation,
    // nothing else fits.
    let sys = AsyncSystem::new(&refined, 3, AsyncConfig::default());
    let s0 = sys.initial();
    // r0 requests; home consumes via C1 path up to granting (C2 send of gr).
    let (_, s) = fire(&sys, &s0, by_rule(R0, "C1"), "r0 request");
    let (_, s) =
        fire(&sys, &s, |l| l.actor == H && l.kind == ccr_runtime::LabelKind::Deliver, "buffer r0");
    let (_, s) = fire(&sys, &s, by_rule(H, "C1"), "consume req");
    // Home now at G1 whose only branch is the gr send -> C2.
    let (label, s) = fire(&sys, &s, by_rule(H, "C2"), "home C2 sends gr");
    assert!(matches!(s.home.phase, HomePhase::Awaiting { .. }));
    assert!(label.emissions().any(|m| m.msg.is_some()));
    // While awaiting, two competitor requests arrive; k=2 minus the ack
    // reservation leaves only the progress slot, and `gr`-state has no
    // input guards, so both are nacked (T6).
    let (_, s) = fire(&sys, &s, by_rule(R1, "C1"), "r1 requests");
    let (label, s) = fire(&sys, &s, |l| l.actor == H && l.rule == "T6", "nack r1");
    assert!(label.emissions().any(|m| m.is_nack));
    // r1 must retransmit after its nack (T2 then C1 again).
    let (_, s) = fire(&sys, &s, by_rule(R1, "T2"), "r1 gets nack");
    assert!(matches!(s.remotes[1].phase, RemotePhase::At(_)));
    let _ = s;
}

/// Table 2 row C2 with a full buffer: the oldest ordinary request is
/// nacked to make room for the ack. No shipped spec reaches it at n ≤ 3
/// — the progress buffer admits nothing a `gr`-state could not consume —
/// so the configuration is built by hand. It is the one rule that writes
/// two remotes (the victim's link and the target's), which the in-place
/// emitter has to put back both.
#[test]
fn home_c2_nacks_a_victim_and_restores_both_links_in_place() {
    use ccr_runtime::asynch::BufEntry;
    use std::ops::ControlFlow;
    let refined = plain_token();
    let sys = AsyncSystem::new(&refined, 3, AsyncConfig::default());
    let req = refined.spec.msg_by_name("req").unwrap();
    let mut s = sys.initial();
    s.home.phase = HomePhase::At(refined.spec.home.state_by_name("G1").unwrap());
    for from in [RemoteId(1), RemoteId(2)] {
        s.home.buf.push(BufEntry { from, msg: req, val: None });
    }
    let (label, next) = fire(&sys, &s, by_rule(H, "C2"), "home C2 with a full buffer");
    let sent: Vec<_> = label.emissions().map(|m| (m.to, m.is_nack)).collect();
    assert_eq!(sent, [(R1, true), (R0, false)], "nack the oldest, then request");
    assert_eq!(next.home.buf.len(), 1);
    assert_eq!((next.remotes[0].to_remote.len(), next.remotes[1].to_remote.len()), (1, 1));

    let mut owned = Vec::new();
    sys.successors(&s, &mut owned).unwrap();
    let mut scratch = s.clone();
    let (mut lent, mut written) = (Vec::new(), Vec::new());
    sys.for_each_successor(&s, &mut scratch, |label, next, wrote| {
        lent.push((label, next.clone()));
        written.push(wrote);
        ControlFlow::Continue(())
    })
    .unwrap();
    assert_eq!(lent, owned);
    assert_eq!(scratch, s);
    // The visitor hears what the rule wrote: the home, then the victim's
    // link, then the target's.
    assert!(written[0].home());
    assert_eq!(written[0].remotes(), Some(&[1, 0][..]));

    // Fired — the home's own step, its first successor — it flags every
    // rule group that reads the home, r0 or r1: all but r2's own, which
    // lists what it listed.
    let r2_group = |state: &AsyncState, scratch: &mut AsyncState| {
        let mut wanted = vec![false; sys.groups()];
        wanted[6] = true;
        let mut rules = Vec::new();
        sys.for_each_successor_in(state, scratch, &wanted, |_, label, _| {
            rules.push(label.rule);
            ControlFlow::Continue(())
        })
        .unwrap();
        rules
    };
    let before = r2_group(&s, &mut scratch);
    let (mut from, mut dirty) = (s.clone(), vec![false; sys.groups()]);
    let fired = sys.fire(&mut from, &mut scratch, 0, 0, &mut dirty).unwrap();
    assert_eq!((fired.as_ref(), &from, &scratch), (Some(&label), &next, &next));
    assert_eq!(dirty, [true, true, true, true, true, true, false]);
    assert_eq!(r2_group(&from, &mut scratch), before);
}

#[test]
fn remote_t3_ignores_home_request_and_home_t3_implicit_nacks() {
    // Use an *optimized* migratory protocol (inlined here since
    // ccr-protocols depends on this crate) to reach the inv/LR crossing:
    // the owner evicts while the home invalidates.
    let refined = {
        let mut b = ProtocolBuilder::new("migratory");
        let req = b.msg("req");
        let gr = b.msg("gr");
        let lr = b.msg("LR");
        let inv = b.msg("inv");
        let id = b.msg("ID");
        let o = b.home_var("o", Value::Node(RemoteId(0)));
        let j = b.home_var("j", Value::Node(RemoteId(0)));
        let f = b.home_state("F");
        let g1 = b.home_state("G1");
        let e = b.home_state("E");
        let i1 = b.home_state("I1");
        let i2 = b.home_state("I2");
        let i3 = b.home_state("I3");
        b.home(f).recv_any(req).bind_sender(j).goto(g1);
        b.home(g1).send_to(Expr::Var(j), gr).assign(o, Expr::Var(j)).goto(e);
        b.home(e).recv_any(req).bind_sender(j).goto(i1);
        b.home(e).recv_exact(lr, Expr::Var(o)).goto(f);
        b.home(i1).send_to(Expr::Var(o), inv).goto(i2);
        b.home(i1).recv_exact(lr, Expr::Var(o)).goto(i3);
        b.home(i2).recv_exact(id, Expr::Var(o)).goto(i3);
        b.home(i2).recv_exact(lr, Expr::Var(o)).goto(i3);
        b.home(i3).send_to(Expr::Var(j), gr).assign(o, Expr::Var(j)).goto(e);
        let rq = b.remote_state("RQ");
        let w = b.remote_state("W");
        let v = b.remote_state("V");
        let ids = b.remote_state("IDS");
        let lrs = b.remote_state("LRS");
        b.remote(rq).send(req).goto(w);
        b.remote(w).recv(gr).goto(v);
        b.remote(v).recv(inv).goto(ids);
        b.remote(v).tau().tag("evict").goto(lrs);
        b.remote(ids).send(id).goto(rq);
        b.remote(lrs).send(lr).goto(rq);
        refine(&b.finish().unwrap(), &RefineOptions::default()).unwrap()
    };
    let sys = AsyncSystem::new(&refined, 2, AsyncConfig::default());
    let s = sys.initial();
    // r0 acquires the line.
    let (_, s) = fire(&sys, &s, by_rule(R0, "C1"), "r0 req");
    let (_, s) = fire(&sys, &s, |l| l.actor == H, "home buffers r0 req");
    let (_, s) = fire(&sys, &s, by_rule(H, "C1"), "home consumes req (noack)");
    let (_, s) = fire(&sys, &s, by_rule(H, "C2/reply"), "home replies gr");
    let (_, s) = fire(&sys, &s, by_rule(R0, "T1/reply"), "r0 gets gr");
    let v = refined.spec.remote.state_by_name("V").unwrap();
    assert_eq!(s.remotes[0].phase, RemotePhase::At(v));
    // r1 wants the line; home starts revoking r0.
    let (_, s) = fire(&sys, &s, by_rule(R1, "C1"), "r1 req");
    let (_, s) =
        fire(&sys, &s, |l| l.actor == H && l.kind == ccr_runtime::LabelKind::Deliver, "buffer r1");
    let (_, s) = fire(&sys, &s, by_rule(H, "C1"), "consume r1 req");
    let (_, s) = fire(&sys, &s, by_rule(H, "C2"), "home sends inv to r0");
    assert!(matches!(s.home.phase, HomePhase::Awaiting { .. }));
    // Concurrently r0 evicts: tau to LRS, then sends LR (deleting the
    // buffered inv per remote C2) and awaits its ack.
    let (_, s) =
        fire(&sys, &s, |l| l.actor == R0 && l.tag.as_deref() == Some("evict"), "r0 evicts");
    let (label, s) = fire(
        &sys,
        &s,
        |l| l.actor == R0 && l.kind == ccr_runtime::LabelKind::Request,
        "r0 sends LR",
    );
    // The rule is C1 or C2 depending on whether inv was already delivered
    // into r0's buffer; both are legal.
    assert!(label.rule == "C1" || label.rule == "C2", "{}", label.rule);
    // If the inv is still in flight toward r0, deliver it: remote T3
    // ignores it.
    if !s.remotes[0].to_remote.is_empty() {
        let (label, s2) = fire(&sys, &s, |l| l.actor == R0 && l.rule == "T3", "r0 ignores inv");
        assert_eq!(label.kind, ccr_runtime::LabelKind::Deliver);
        // Home then receives LR as an implicit nack (T3) and buffers it.
        let (_, s3) = fire(&sys, &s2, by_rule(H, "T3"), "home implicit nack");
        assert!(matches!(s3.home.phase, HomePhase::At(_)));
        assert!(s3.home.buf.iter().any(|e| e.from == RemoteId(0)));
        // From the communication state, C1 consumes the LR and acks it.
        let (label, _) = fire(&sys, &s3, by_rule(H, "C1"), "home consumes LR");
        assert!(label.emissions().any(|m| m.is_ack));
    }
}

#[test]
fn t5_progress_buffer_admits_only_satisfying_requests() {
    let refined = plain_token();
    let sys = AsyncSystem::new(&refined, 3, AsyncConfig::default());
    // Drive: r0 granted (home at E, owner r0); r1 and r2 both request.
    let s = sys.initial();
    let (_, s) = fire(&sys, &s, by_rule(R0, "C1"), "r0 req");
    let (_, s) = fire(&sys, &s, |l| l.actor == H, "buffer r0");
    let (_, s) = fire(&sys, &s, by_rule(H, "C1"), "consume r0 req");
    let (_, s) = fire(&sys, &s, by_rule(H, "C2"), "send gr");
    let (_, s) = fire(&sys, &s, by_rule(R0, "T1"), "r0 sees req ack");
    let (_, s) = fire(&sys, &s, by_rule(R0, "buf"), "r0 buffers gr");
    let (_, s) = fire(&sys, &s, by_rule(R0, "C3"), "r0 accepts gr");
    let (_, s) = fire(&sys, &s, by_rule(H, "T1"), "home sees gr ack");
    // Home at E. Its guards accept only rel from r0. A req from r1 is
    // buffered while free >= 2...
    let (_, s) = fire(&sys, &s, by_rule(R1, "C1"), "r1 req");
    let (label, s) =
        fire(&sys, &s, |l| l.actor == H && l.kind == ccr_runtime::LabelKind::Deliver, "admit r1");
    assert_eq!(label.rule, "T4");
    // ...but with one slot left (the progress buffer) a second req that
    // satisfies no guard at E is nacked (T6), while r0's rel (which does
    // satisfy E) is admitted via T5.
    let (_, s) =
        fire(&sys, &s, |l| l.actor == ProcessId::Remote(RemoteId(2)) && l.rule == "C1", "r2 req");
    let (label, s) =
        fire(&sys, &s, |l| l.actor == H && (l.rule == "T6" || l.rule == "T5"), "r2 admission");
    assert_eq!(label.rule, "T6", "non-satisfying request must be nacked from the progress slot");
    let (_, s) = fire(&sys, &s, by_rule(R0, "C1"), "r0 releases");
    let (label, _) =
        fire(&sys, &s, |l| l.actor == H && l.kind == ccr_runtime::LabelKind::Deliver, "admit rel");
    assert_eq!(label.rule, "T5", "the satisfying rel takes the progress buffer");
}

#[test]
fn cursor_cycles_output_guards_after_nack() {
    // A home with two output guards to different remotes; the first target
    // ignores requests forever (it is itself awaiting), so the home must
    // cycle to the second guard after the implicit nack.
    let mut b = ProtocolBuilder::new("cycle");
    let ping0 = b.msg("p0");
    let ping1 = b.msg("p1");
    let hello = b.msg("hello");
    let h0 = b.home_state("H0");
    let h1 = b.home_state("H1");
    b.home(h0).send_to(Expr::node(RemoteId(0)), ping0).goto(h1);
    b.home(h0).send_to(Expr::node(RemoteId(1)), ping1).goto(h1);
    b.home(h1).recv_any(hello).goto(h1);
    let r = b.remote_state("R");
    let r2 = b.remote_state("R2");
    b.remote(r).recv(ping0).goto(r2);
    b.remote(r).recv(ping1).goto(r2);
    b.remote(r).tau().tag("go").goto(r2);
    b.remote(r2).send(hello).goto(r2);
    let spec = b.finish().unwrap();
    let refined = refine(&spec, &RefineOptions { reqrep: ReqRepMode::Off }).unwrap();
    let sys = AsyncSystem::new(&refined, 2, AsyncConfig::default());

    let s = sys.initial();
    // Home C2 picks guard 0 (cursor starts at 0) -> requests p0 from r0.
    let (label, s) = fire(&sys, &s, by_rule(H, "C2"), "first C2");
    assert_eq!(label.emissions().next().unwrap().to, ProcessId::Remote(RemoteId(0)));
    match s.home.phase {
        HomePhase::Awaiting { branch, target, .. } => {
            assert_eq!(branch, 0);
            assert_eq!(target, RemoteId(0));
        }
        _ => panic!("should await"),
    }
    // r0 autonomously moves to R2 and sends hello — crossing the ping.
    let (_, s) = fire(&sys, &s, |l| l.actor == R0 && l.tag.as_deref() == Some("go"), "r0 go");
    let (_, s) =
        fire(&sys, &s, |l| l.actor == R0 && l.kind == ccr_runtime::LabelKind::Request, "r0 hello");
    // Home receives hello from r0 = implicit nack; cursor moves past 0.
    let (_, s) = fire(&sys, &s, by_rule(H, "T3"), "implicit nack");
    assert_eq!(s.home.cursor, 1);
    // Next C2 must try guard 1 (target r1), not retry guard 0.
    let (label, _) = fire(&sys, &s, by_rule(H, "C2"), "second C2");
    assert_eq!(label.emissions().next().unwrap().to, ProcessId::Remote(RemoteId(1)));
}
