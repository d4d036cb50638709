//! Graphviz/DOT rendering of rendezvous specs and refined automata.
//!
//! `dot_spec` reproduces the style of the paper's Figures 2 and 3 (solid
//! circles, rendezvous labels); `dot_automaton` reproduces Figures 4 and 5
//! (transient states drawn dotted, `!!`/`??` labels). Every label is in
//! the `.ccp` notation of [`crate::text`].

use crate::process::{Process, ProtocolSpec, StateKind};
use crate::refine::{ANodeKind, AsyncAutomaton};
use crate::text::render_branch;
use std::fmt::Write as _;

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Renders one process of a rendezvous spec as a DOT digraph. Each edge
/// is labelled with its branch as [`crate::text::to_text`] writes it, up
/// to the ` -> target;` the edge draws.
pub fn dot_process(spec: &ProtocolSpec, p: &Process, title: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}\" {{", esc(title));
    let _ = writeln!(out, "  rankdir=LR;");
    let _ = writeln!(out, "  node [shape=circle fontsize=11];");
    for (si, st) in p.states.iter().enumerate() {
        let shape = match st.kind {
            StateKind::Communication => "circle",
            StateKind::Internal => "box",
        };
        let peripheries = if si == p.initial.index() { 2 } else { 1 };
        let _ = writeln!(
            out,
            "  s{si} [label=\"{}\" shape={shape} peripheries={peripheries}];",
            esc(&st.name)
        );
    }
    for (si, st) in p.states.iter().enumerate() {
        for br in &st.branches {
            let label = esc(&render_branch(spec, p, br));
            let _ = writeln!(out, "  s{si} -> s{} [label=\"{label}\"];", br.target.index());
        }
    }
    let _ = writeln!(out, "}}");
    out
}

/// Renders both processes of a spec (two digraphs concatenated).
pub fn dot_spec(spec: &ProtocolSpec) -> String {
    let mut out = dot_process(spec, &spec.home, &format!("{} home", spec.name));
    out.push('\n');
    out.push_str(&dot_process(spec, &spec.remote, &format!("{} remote", spec.name)));
    out
}

/// Renders a refined asynchronous automaton as a DOT digraph. Transient
/// states are drawn with dotted borders, as in the paper's Figures 4 and 5.
pub fn dot_automaton(a: &AsyncAutomaton, title: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}\" {{", esc(title));
    let _ = writeln!(out, "  rankdir=LR;");
    let _ = writeln!(out, "  node [shape=circle fontsize=11];");
    for (i, n) in a.states.iter().enumerate() {
        let style = match n.kind {
            ANodeKind::Transient { .. } => "dotted",
            ANodeKind::Internal(_) => "dashed",
            ANodeKind::Comm(_) => "solid",
        };
        let peripheries = if i == a.initial { 2 } else { 1 };
        let _ = writeln!(
            out,
            "  n{i} [label=\"{}\" style={style} peripheries={peripheries}];",
            esc(&n.name)
        );
    }
    for e in &a.edges {
        let _ = writeln!(out, "  n{} -> n{} [label=\"{}\"];", e.from, e.to, esc(&e.label));
    }
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProtocolBuilder;
    use crate::expr::Expr;
    use crate::ids::RemoteId;
    use crate::refine::{refine, RefineOptions};
    use crate::value::Value;

    fn spec() -> ProtocolSpec {
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
    fn dot_spec_contains_both_digraphs() {
        let s = spec();
        let d = dot_spec(&s);
        assert!(d.contains("digraph \"token home\""));
        assert!(d.contains("digraph \"token remote\""));
        assert!(d.contains("label=\"h ! req\""));
        assert!(d.matches("digraph").count() == 2);
    }

    #[test]
    fn dot_automaton_marks_transients_dotted() {
        let s = spec();
        let r = refine(&s, &RefineOptions::default()).unwrap();
        let d = dot_automaton(&r.remote, "token remote (refined)");
        assert!(d.contains("style=dotted"));
        assert!(d.contains("h!!rel"));
        assert!(d.contains("h??nack"));
    }

    #[test]
    fn dot_escapes_quotes() {
        assert_eq!(esc("a\"b"), "a\\\"b");
    }
}
