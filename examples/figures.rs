//! Regenerates the paper's figures as Graphviz DOT files:
//!
//! * Figure 2 — migratory home node (rendezvous)
//! * Figure 3 — migratory remote node (rendezvous)
//! * Figure 4 — refined migratory home node (transients dotted)
//! * Figure 5 — refined migratory remote node
//! * plus the invalidate protocol, which the paper only tabulates.
//!
//! Run: `cargo run --release --example figures [out_dir]`
//! Render: `dot -Tpdf out/figure2_migratory_home.dot -o figure2.pdf`

use ccr_core::dot::{dot_automaton, dot_process};
use coherence_refinement::prelude::*;
use std::fs;
use std::path::PathBuf;

fn main() {
    let out: PathBuf =
        std::env::args().nth(1).map(PathBuf::from).unwrap_or_else(|| PathBuf::from("figures-out"));
    fs::create_dir_all(&out).expect("create output directory");

    let opts = MigratoryOptions::Checking;
    let spec = migratory(&opts);
    let refined = migratory_refined(&opts);

    let files = [
        ("figure2_migratory_home.dot", dot_process(&spec, &spec.home, "Figure 2: migratory home")),
        (
            "figure3_migratory_remote.dot",
            dot_process(&spec, &spec.remote, "Figure 3: migratory remote"),
        ),
        (
            "figure4_refined_home.dot",
            dot_automaton(&refined.home, "Figure 4: refined migratory home"),
        ),
        (
            "figure5_refined_remote.dot",
            dot_automaton(&refined.remote, "Figure 5: refined migratory remote"),
        ),
    ];
    for (name, contents) in files {
        let path = out.join(name);
        fs::write(&path, contents).expect("write dot file");
        println!("wrote {}", path.display());
    }

    let inv = invalidate(&InvalidateOptions::default());
    let inv_refined = invalidate_refined(&InvalidateOptions::default());
    for (name, contents) in [
        ("invalidate_home.dot", dot_process(&inv, &inv.home, "invalidate home")),
        ("invalidate_remote.dot", dot_process(&inv, &inv.remote, "invalidate remote")),
        (
            "invalidate_refined_home.dot",
            dot_automaton(&inv_refined.home, "invalidate home (refined)"),
        ),
        (
            "invalidate_refined_remote.dot",
            dot_automaton(&inv_refined.remote, "invalidate remote (refined)"),
        ),
    ] {
        let path = out.join(name);
        fs::write(&path, contents).expect("write dot file");
        println!("wrote {}", path.display());
    }

    println!();
    println!(
        "Structure check — refined migratory: home has {} transient state(s) \
         (Figure 4 shows 1, for inv), remote has {} (Figure 5 shows 2, for req and LR).",
        refined.home.transient_count(),
        refined.remote.transient_count()
    );
}
