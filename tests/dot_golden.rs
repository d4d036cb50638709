//! The diagrams are pinned, and drawn in the spec's own notation.
//!
//! `tests/golden/dot/<spec>.dot` holds `ccr dot` followed by
//! `ccr dot --refined` for every shipped spec — Figures 2–5 for
//! `migratory` — so a change to a diagram is a diff a reviewer sees. After
//! a deliberate change, regenerate them with
//!
//! ```text
//! for f in specs/*.ccp; do g=tests/golden/dot/$(basename "$f" .ccp).dot
//!   { ccr dot "$f"; echo; ccr dot "$f" --refined; } > "$g"; done
//! ```
//!
//! What the goldens rest on is checked apart from them: every edge label
//! of a rendezvous digraph is its branch's line of the `.ccp` printer,
//! less the ` -> target;` the edge draws, and no label of either digraph
//! shows a raw variable id.

#[path = "support/specs.rs"]
mod specs;

use ccr_core::dot::{dot_automaton, dot_spec};
use ccr_core::process::ProtocolSpec;
use ccr_core::refine::{refine, RefineOptions};
use ccr_core::text::to_text;
use ccr_core::zoo::ZooSpec;
use std::path::Path;
use std::process::Command;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn ccr_dot(spec: &str, refined: bool) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ccr"));
    cmd.args(["dot", &format!("specs/{spec}")]).current_dir(root());
    if refined {
        cmd.arg("--refined");
    }
    let out = cmd.output().expect("run ccr dot");
    assert!(out.status.success(), "{spec}: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("utf-8")
}

#[test]
fn every_shipped_spec_draws_its_golden_diagrams() {
    let specs = specs::shipped_specs();
    assert_eq!(specs.len(), 12, "one golden per shipped spec");
    for (name, _) in specs {
        let drawn = format!("{}\n{}", ccr_dot(&name, false), ccr_dot(&name, true));
        let path = root().join("tests/golden/dot").join(name.replace(".ccp", ".dot"));
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!("{}: {e} (regenerate: see this file's header)", path.display())
        });
        assert!(drawn == golden, "{name}: `ccr dot` drew another diagram than {}", path.display());
    }
}

/// The edges of DOT `text`, in order: (target node, label with DOT's
/// escapes undone).
fn edges(text: &str) -> Vec<(String, String)> {
    text.lines()
        .filter_map(|l| {
            let (ends, rest) = l.trim().split_once(" [label=\"")?;
            let (_, to) = ends.split_once(" -> ")?;
            let label = rest.strip_suffix("\"];")?.replace("\\\"", "\"").replace("\\\\", "\\");
            Some((to.to_string(), label))
        })
        .collect()
}

/// Whether `label` shows a variable by its raw id: `?v3` (an id the
/// process does not declare) or a `v3` token (`VarId`'s own display).
fn raw_id(label: &str) -> bool {
    let b = label.as_bytes();
    label.contains("?v")
        || (0..b.len().saturating_sub(1)).any(|i| {
            let starts = i == 0 || !(b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_');
            starts && b[i] == b'v' && b[i + 1].is_ascii_digit()
        })
}

/// Every edge of `dot_spec` is labelled with its branch exactly as
/// `to_text` writes it, up to ` -> target;`; no label of it or of the
/// refined automata names a variable by its id.
fn labels_are_the_printers(ctx: &str, spec: &ProtocolSpec) {
    let text = to_text(spec);
    let mut lines = text.lines().filter_map(|l| l.strip_prefix("      "));
    let drawn = dot_spec(spec);
    let digraphs: Vec<&str> = drawn.split("\n\n").collect();
    assert_eq!(digraphs.len(), 2, "{ctx}: home and remote");
    for (p, digraph) in [&spec.home, &spec.remote].into_iter().zip(digraphs) {
        for (to, label) in edges(digraph) {
            let to = to.strip_prefix('s').and_then(|t| t.parse::<usize>().ok()).expect("s<i>");
            let line = format!("{label} -> {};", p.states[to].name);
            assert_eq!(Some(line.as_str()), lines.next(), "{ctx}: the edge's branch line\n{text}");
            assert!(!raw_id(&label), "{ctx}: {label}");
        }
    }
    assert_eq!(lines.next(), None, "{ctx}: a branch with no edge\n{text}");
    if let Ok(refined) = refine(spec, &RefineOptions::default()) {
        for a in [&refined.home, &refined.remote] {
            for (_, label) in edges(&dot_automaton(a, "refined")) {
                assert!(!raw_id(&label), "{ctx} (refined): {label}");
            }
        }
    }
}

#[test]
fn shipped_edge_labels_are_their_spec_lines() {
    for (name, spec) in specs::shipped_specs() {
        labels_are_the_printers(&name, &spec);
    }
}

#[test]
fn zoo_edge_labels_are_their_spec_lines() {
    let mut checked = 0;
    for index in 0..200 {
        if let Ok(spec) = ZooSpec::generate(1998, index).build() {
            labels_are_the_printers(&format!("zoo 1998/{index}"), &spec);
            checked += 1;
        }
    }
    assert!(checked >= 100, "only {checked} zoo specs built");
}

#[test]
fn the_raw_id_probe_bites() {
    assert!(raw_id("r(v2)??rreq") && raw_id("when empty(v0) tau") && raw_id("h ! m (?v1)"));
    assert!(
        !raw_id("r(o) ? inv")
            && !raw_id("h ! invs")
            && !raw_id("r(j) ! gr (d) { s := madd(s, j); }")
    );
}
