//! Construction of the explicit asynchronous automata from a spec plus
//! request/reply annotations.

use super::automaton::{AEdge, AEdgeKind, ANode, ANodeKind, AsyncAutomaton, Role};
use super::BranchKey;
use crate::ids::{MsgType, StateId};
use crate::process::{CommAction, Peer, Process, ProtocolSpec, StateKind};
use crate::text::{render_expr, var_name};
use std::collections::{HashMap, HashSet};

/// Borrowed view of the annotation tables while building.
pub(super) struct Annotations<'a> {
    pub remote_fire_forget: &'a HashSet<BranchKey>,
    pub home_fire_forget: &'a HashSet<BranchKey>,
    pub remote_reply: &'a HashMap<BranchKey, MsgType>,
    pub home_reply: &'a HashMap<BranchKey, MsgType>,
    pub home_noack: &'a HashSet<MsgType>,
    pub remote_noack: &'a HashSet<MsgType>,
}

impl<'a> Annotations<'a> {
    fn fire_forget(&self, role: Role, key: BranchKey) -> bool {
        match role {
            Role::Home => self.home_fire_forget.contains(&key),
            Role::Remote => self.remote_fire_forget.contains(&key),
        }
    }

    fn reply_of(&self, role: Role, key: BranchKey) -> Option<MsgType> {
        match role {
            Role::Home => self.home_reply.get(&key).copied(),
            Role::Remote => self.remote_reply.get(&key).copied(),
        }
    }

    fn noack_recv(&self, role: Role, msg: MsgType) -> bool {
        match role {
            Role::Home => self.home_noack.contains(&msg),
            Role::Remote => self.remote_noack.contains(&msg),
        }
    }
}

/// The peer of an edge label, named in `p` as the `.ccp` printer names it.
fn peer_label(role: Role, p: &Process, peer: &Peer) -> String {
    match (role, peer) {
        (Role::Remote, _) | (Role::Home, Peer::Home) => "h".to_string(),
        (Role::Home, Peer::Remote(e)) => format!("r({})", render_expr(p, e)),
        (Role::Home, Peer::AnyRemote { bind: Some(v) }) => format!("r({})", var_name(p, *v)),
        (Role::Home, Peer::AnyRemote { bind: None }) => "r(*)".to_string(),
    }
}

/// Builds the asynchronous automaton of one role.
pub(super) fn build_automaton(
    spec: &ProtocolSpec,
    role: Role,
    ann: &Annotations<'_>,
) -> AsyncAutomaton {
    let proc_: &Process = match role {
        Role::Home => &spec.home,
        Role::Remote => &spec.remote,
    };

    let mut states: Vec<ANode> = Vec::new();
    let mut edges: Vec<AEdge> = Vec::new();

    // One node per spec state, in order, so spec StateId == node index here.
    for (si, st) in proc_.states.iter().enumerate() {
        let kind = match st.kind {
            StateKind::Communication => ANodeKind::Comm(StateId(si as u32)),
            StateKind::Internal => ANodeKind::Internal(StateId(si as u32)),
        };
        states.push(ANode { name: st.name.clone(), kind });
    }

    for (si, st) in proc_.states.iter().enumerate() {
        let sid = StateId(si as u32);
        for (bi, br) in st.branches.iter().enumerate() {
            let key: BranchKey = (sid, bi as u32);
            match &br.action {
                CommAction::Tau => {
                    edges.push(AEdge {
                        from: si,
                        to: br.target.index(),
                        label: "tau".into(),
                        kind: AEdgeKind::Tau,
                    });
                }
                CommAction::Recv { from, msg, .. } => {
                    let pl = peer_label(role, proc_, from);
                    let mname = spec.msg_name(*msg);
                    if ann.noack_recv(role, *msg) {
                        edges.push(AEdge {
                            from: si,
                            to: br.target.index(),
                            label: format!("{pl}??{mname}"),
                            kind: AEdgeKind::RecvReqNoAck,
                        });
                    } else {
                        edges.push(AEdge {
                            from: si,
                            to: br.target.index(),
                            label: format!("{pl}??{mname} / {pl}!!ack"),
                            kind: AEdgeKind::RecvReqAck,
                        });
                    }
                }
                CommAction::Send { to, msg, .. } => {
                    let pl = peer_label(role, proc_, to);
                    let mname = spec.msg_name(*msg);
                    if ann.fire_forget(role, key) {
                        // Reply sends complete immediately.
                        edges.push(AEdge {
                            from: si,
                            to: br.target.index(),
                            label: format!("{pl}!!{mname}"),
                            kind: AEdgeKind::SendReq,
                        });
                        continue;
                    }
                    // Materialize the transient state.
                    let tname = format!("{}~{}", st.name, mname);
                    let tnode = states.len();
                    states.push(ANode {
                        name: tname,
                        kind: ANodeKind::Transient { origin: sid, branch: bi as u32 },
                    });
                    edges.push(AEdge {
                        from: si,
                        to: tnode,
                        label: format!("{pl}!!{mname}"),
                        kind: AEdgeKind::SendReq,
                    });
                    edges.push(AEdge {
                        from: tnode,
                        to: si,
                        label: format!("{pl}??nack"),
                        kind: AEdgeKind::RecvNack,
                    });
                    if let Some(repl) = ann.reply_of(role, key) {
                        // Completion arrives as the optimized reply: it also
                        // consumes the follow-up input of the target state.
                        let rname = spec.msg_name(repl);
                        let land = reply_landing(proc_, br.target, repl);
                        edges.push(AEdge {
                            from: tnode,
                            to: land.index(),
                            label: format!("{pl}??{rname}"),
                            kind: AEdgeKind::RecvReply,
                        });
                    } else {
                        edges.push(AEdge {
                            from: tnode,
                            to: br.target.index(),
                            label: format!("{pl}??ack"),
                            kind: AEdgeKind::RecvAck,
                        });
                    }
                    match role {
                        Role::Remote => {
                            // Table 1 row T3: ignore home requests while
                            // transient (the `h??*` self-loop of Figure 5).
                            edges.push(AEdge {
                                from: tnode,
                                to: tnode,
                                label: "h??*".into(),
                                kind: AEdgeKind::Ignore,
                            });
                        }
                        Role::Home => {
                            // Table 2 row T3: a request from the awaited
                            // remote is an implicit nack.
                            edges.push(AEdge {
                                from: tnode,
                                to: si,
                                label: format!("{pl}??* [implicit nack]"),
                                kind: AEdgeKind::ImplicitNack,
                            });
                            // Rows T4–T6: requests from other remotes are
                            // buffered or nacked; represented as a self-loop.
                            edges.push(AEdge {
                                from: tnode,
                                to: tnode,
                                label: "r(*)??* / buffer|nack".into(),
                                kind: AEdgeKind::SendNack,
                            });
                        }
                    }
                }
            }
        }
    }

    AsyncAutomaton { role, states, edges, initial: proc_.initial.index() }
}

/// Where an optimized reply lands: consuming the unguarded `repl` input of
/// the request branch's target state. Falls back to the target itself if the
/// input is missing (the reqrep safety check prevents this for accepted
/// pairs).
fn reply_landing(proc_: &Process, target: StateId, repl: MsgType) -> StateId {
    if let Some(st) = proc_.state(target) {
        for br in &st.branches {
            if br.guard.is_none() {
                if let CommAction::Recv { msg, .. } = &br.action {
                    if *msg == repl {
                        return br.target;
                    }
                }
            }
        }
    }
    target
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProtocolBuilder;
    use crate::expr::Expr;
    use crate::ids::RemoteId;
    use crate::refine::{refine, RefineOptions, ReqRepMode};
    use crate::value::Value;

    fn token_spec() -> ProtocolSpec {
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
    fn optimized_remote_has_one_transient_for_rel_only() {
        let refined = refine(&token_spec(), &RefineOptions::default()).unwrap();
        // req is optimized: its transient expects the reply `gr`.
        // rel is a plain rendezvous: its transient expects ack/nack.
        assert_eq!(refined.remote.transient_count(), 2);
        assert_eq!(refined.remote.count_edges(AEdgeKind::RecvReply), 1);
        assert_eq!(refined.remote.count_edges(AEdgeKind::RecvAck), 1);
        // Home: gr is fire-and-forget, so no transient at all.
        assert_eq!(refined.home.transient_count(), 0);
    }

    #[test]
    fn unoptimized_remote_has_plain_transients() {
        let refined = refine(&token_spec(), &RefineOptions { reqrep: ReqRepMode::Off }).unwrap();
        assert_eq!(refined.remote.transient_count(), 2);
        assert_eq!(refined.remote.count_edges(AEdgeKind::RecvReply), 0);
        assert_eq!(refined.remote.count_edges(AEdgeKind::RecvAck), 2);
        // Every remote transient carries the `h??*` ignore loop.
        assert_eq!(refined.remote.count_edges(AEdgeKind::Ignore), 2);
        // Home still has no output guards in this protocol except gr.
        assert_eq!(refined.home.transient_count(), 1);
        assert_eq!(refined.home.count_edges(AEdgeKind::ImplicitNack), 1);
    }

    #[test]
    fn reply_lands_past_the_follow_up_input() {
        let refined = refine(&token_spec(), &RefineOptions::default()).unwrap();
        let spec = &refined.spec;
        let i = spec.remote.state_by_name("I").unwrap();
        let v = spec.remote.state_by_name("V").unwrap();
        let t = refined.remote.transient_of(i, 0).expect("transient for req");
        let reply_edge =
            refined.remote.edges_from(t).find(|e| e.kind == AEdgeKind::RecvReply).unwrap();
        // Receiving gr lands directly in V, skipping the waiting state W.
        assert_eq!(reply_edge.to, v.index());
    }

    #[test]
    fn node_names_mark_transients() {
        let refined = refine(&token_spec(), &RefineOptions::default()).unwrap();
        assert!(refined.remote.states.iter().any(|s| s.name == "I~req"));
        assert!(refined.remote.states.iter().any(|s| s.name == "V~rel"));
    }
}
