//! The two ops with no `ccr` verb, run as `ccr-benchmark op <workload>`
//! children so they are timed exactly as the `ccr` children are. Each
//! prints one JSON line, built by the functions below; the traced run
//! builds the same line in process and compares.
//!
//! Input generation for `derive_zoo` is a child too (`op zoo_bundle`):
//! Linux reports a spawned child's peak resident set as no less than its
//! parent's at the time of the spawn, so the measuring driver must stay
//! smaller than every op it measures. So is the host-speed calibration
//! (`op calib`, see `calib.rs`).

use crate::layers::{self, DeriveTotals, DsmRun, BUNDLE_SEPARATOR};
use crate::parsed;
use crate::spans::Tracer;
use crate::stats::geomean;
use serde::Serializer;
use std::path::Path;

/// The spec files shipped under `specs/`, which `derive_zoo` refines
/// after the generated ones.
pub const SHIPPED_SPECS: [&str; 8] = [
    "specs/invalidate.ccp",
    "specs/migratory.ccp",
    "specs/migratory_broken.ccp",
    "specs/migratory_gated.ccp",
    "specs/token.ccp",
    "specs/update.ccp",
    "specs/zoo_chain.ccp",
    "specs/zoo_unsound_pair.ccp",
];

/// How far apart the derived and the hand-written migratory protocol may
/// be in messages per acquisition and still count as "about equal"
/// (EXPERIMENTS.md E3 measures gaps of 2–8%).
const HAND_GAP: f64 = 0.15;

/// The `derive_zoo` op over the bundle at `bundle` plus the shipped
/// specs.
pub fn derive_zoo(bundle: &Path, t: &mut Tracer) -> Result<DeriveTotals, String> {
    let generated = std::fs::read_to_string(bundle)
        .map_err(|e| format!("cannot read {}: {e}", bundle.display()))?;
    let shipped: Vec<String> = SHIPPED_SPECS
        .iter()
        .map(|p| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}")))
        .collect::<Result<_, _>>()?;
    let texts = generated.split(BUNDLE_SEPARATOR).chain(shipped.iter().map(String::as_str));
    Ok(layers::derive(texts, t))
}

/// Writes `texts` as one bundle file.
pub fn write_bundle(texts: &[String], path: &Path) -> Result<(), String> {
    std::fs::write(path, texts.join(&BUNDLE_SEPARATOR.to_string()))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// The output line of a `derive_zoo` op.
pub fn derive_zoo_json(tot: &DeriveTotals) -> String {
    let mut s = Serializer::new();
    let mut m = s.begin_map();
    m.entry("specs", &tot.specs);
    m.entry("bytes", &tot.bytes);
    m.entry("parse_failures", &tot.parse_failures);
    m.entry("refine_failures", &tot.refine_failures);
    m.entry("transient_states", &tot.transient_states);
    m.entry("pairs_found", &tot.pairs_found);
    m.entry("static_msgs", &tot.static_msgs);
    m.entry("static_msgs_off", &tot.static_msgs_off);
    m.end();
    s.into_string()
}

/// Simulated message cost of the migratory protocol over `runs`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MessageCost {
    /// Geometric mean over n of derived messages per acquisition.
    pub msgs_per_op: f64,
    /// 1 − derived / derived-noopt, same mean: the §3.3 saving.
    pub reqrep_saving: f64,
}

/// Message cost of the migratory rows of `runs`.
pub fn message_cost(runs: &[DsmRun]) -> MessageCost {
    let mean = |variant: &str| {
        let v: Vec<f64> = runs
            .iter()
            .filter(|r| r.protocol == "migratory" && r.variant == variant)
            .map(DsmRun::msgs_per_op)
            .collect();
        geomean(&v)
    };
    let derived = mean("derived");
    MessageCost { msgs_per_op: derived, reqrep_saving: 1.0 - derived / mean("derived-noopt") }
}

/// Seed-independent properties of a `dsm_sim` op: no deadlock, every
/// machine completed acquisitions, and the migratory rows keep the shape
/// of EXPERIMENTS.md E3 (derived-noopt > derived ≈ hand).
pub fn dsm_property_failures(runs: &[DsmRun]) -> Vec<String> {
    let mut out = Vec::new();
    for r in runs {
        let id = format!("{}-{}-n{}", r.protocol, r.variant, r.report.n);
        if r.report.deadlocked {
            out.push(format!("{id}: deadlocked"));
        }
        if r.report.ops == 0 {
            out.push(format!("{id}: no acquisition completed"));
        }
    }
    for n in [2u32, 4, 8] {
        let of = |variant: &str| {
            runs.iter()
                .find(|r| r.protocol == "migratory" && r.variant == variant && r.report.n == n)
                .map(DsmRun::msgs_per_op)
        };
        match (of("derived"), of("derived-noopt"), of("hand")) {
            (Some(d), Some(noopt), Some(hand)) => {
                if noopt <= d {
                    out.push(format!("n={n}: derived-noopt {noopt} is not above derived {d}"));
                }
                if (d - hand).abs() > HAND_GAP * hand {
                    out.push(format!("n={n}: derived {d} is not within {HAND_GAP} of hand {hand}"));
                }
            }
            _ => out.push(format!("n={n}: a migratory variant is missing")),
        }
    }
    out
}

/// The output line of a `dsm_sim` op.
pub fn dsm_sim_json(runs: &[DsmRun]) -> String {
    let cost = message_cost(runs);
    let failures = dsm_property_failures(runs);
    let mut s = Serializer::new();
    let mut m = s.begin_map();
    m.entry("property_failures", &failures);
    m.entry("msgs_per_op", &cost.msgs_per_op);
    m.entry("reqrep_saving", &cost.reqrep_saving);
    m.entry_with("runs", |ser| {
        let mut by_id = ser.begin_map();
        for r in runs {
            let id = format!("{}-{}-{}-n{}", r.protocol, r.variant, r.workload, r.report.n);
            by_id.entry_with(&id, |ser| {
                let mut e = ser.begin_map();
                e.entry("steps", &r.report.steps);
                e.entry("ops", &r.report.ops);
                e.entry("messages", &r.report.messages);
                e.entry("nacks", &r.report.nacks);
                e.entry("msgs_per_op", &r.msgs_per_op());
                e.entry("fairness", &r.report.fairness);
                e.entry("max_link_occupancy", &r.report.max_link_occupancy);
                e.entry("deadlocked", &r.report.deadlocked);
                e.end();
            });
        }
        by_id.end();
    });
    m.end();
    s.into_string()
}

/// `ccr-benchmark op <workload> …`: runs one op and prints its line.
pub fn main(args: &[String]) -> Result<(), String> {
    let mut off = Tracer::new(false);
    match args.first().map(String::as_str) {
        Some("derive_zoo") => {
            let bundle: String = parsed(args, "--bundle", None)?;
            println!("{}", derive_zoo_json(&derive_zoo(Path::new(&bundle), &mut off)?));
            Ok(())
        }
        Some("dsm_sim") => {
            let seed = parsed(args, "--seed", None)?;
            println!("{}", dsm_sim_json(&layers::dsm_sim(seed, &mut off)?));
            Ok(())
        }
        Some("calib") => {
            crate::calib::kernel();
            Ok(())
        }
        Some("zoo_bundle") => {
            let out: String = parsed(args, "--out", None)?;
            let texts = layers::zoo_texts(
                parsed(args, "--seed", None)?,
                parsed(args, "--count", None)?,
                &mut off,
            )?;
            write_bundle(&texts, Path::new(&out))
        }
        other => Err(format!("unknown op {other:?}")),
    }
}
