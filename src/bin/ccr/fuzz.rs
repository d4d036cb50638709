//! `ccr fuzz`: differential derivation fuzzing over the seeded spec zoo.

use crate::flags::Parsed;
use crate::telemetry::write_metrics;
use ccr_core::text::to_text;
use ccr_metrics::Registry;
use serde::Serializer;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// `ccr fuzz`: generate `--count` specs from the seeded zoo stream and run
/// each through the differential derivation pipeline (round-trip → refine →
/// in-place vs owned successors → Equation 1 → serial/2t/4t/symmetry
/// cross-check → fault closure). Exits
/// nonzero iff any spec fails; `--shrink` minimizes failures and writes
/// them as `.ccp`. Fully deterministic for a given seed and config.
pub fn run(p: &Parsed) -> Result<ExitCode, String> {
    let seed = p.num("--seed");
    let count = p.num("--count");
    let n = p.num("-n") as u32;
    let budget = p.num("--budget") as usize;
    let fault_budget = p.num("--fault-budget") as u32;
    let shrink = p.on("--shrink");
    let corpus = p.text("--corpus").map(PathBuf::from);
    let inject = p.on("--inject-broken");
    let json = p.on("--json");
    let metrics = p.text("--metrics");
    let cfg =
        ccr_mc::FuzzConfig { n, budget_states: budget, threads: vec![2, 4], fault_budget, inject };
    if let Some(dir) = &corpus {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let save = |path: &Path, text: &str| {
        std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
    };
    let registry = if metrics.is_some() { Registry::new() } else { Registry::disabled() };
    let mut rows: Vec<(u64, ccr_mc::SpecVerdict)> = Vec::new();
    let mut shrunk: Vec<(String, String, usize)> = Vec::new();
    let mut failed = 0u64;
    let mut permutable = 0u64;
    let bool_cell = |b: Option<bool>| match b {
        Some(true) => "yes",
        Some(false) => "no",
        None => "-",
    };
    if !json {
        println!(
            "{:>5}  {:<14} {:>4} {:>8} {:>8} {:>9}  {:<11} {:>5} {:>5}  verdict",
            "idx", "name", "sym", "rv", "async", "trans", "outcome", "prog", "fault"
        );
    }
    for idx in 0..count {
        let (shape, verdict) = ccr_mc::fuzz_one(seed, idx, &cfg);
        if let (Some(dir), Ok(spec)) = (&corpus, shape.build()) {
            save(&dir.join(format!("{}.ccp", verdict.name)), &to_text(&spec))?;
        }
        if verdict.permutable {
            permutable += 1;
        }
        registry
            .counter("fuzz_rv_states_total", "Rendezvous states explored across the fuzz run")
            .add(verdict.rv_states as u64);
        registry
            .counter("fuzz_async_states_total", "Asynchronous states explored across the fuzz run")
            .add(verdict.async_states as u64);
        if !verdict.passed() {
            failed += 1;
            let kind = verdict.failure.as_ref().map(|f| f.kind()).unwrap_or("unknown");
            registry.counter(&format!("fuzz_fail_{kind}_total"), "Fuzz failures by kind").inc();
            if shrink {
                let sr = ccr_mc::shrink_failing(&shape, &cfg, 256);
                registry
                    .counter("fuzz_shrink_steps_total", "Accepted shrink steps across the run")
                    .add(sr.steps as u64);
                if let Ok(spec) = sr.shape.build() {
                    let text = to_text(&spec);
                    let fname = format!("{}.fail.ccp", verdict.name);
                    if let Some(dir) = &corpus {
                        let path = dir.join(&fname);
                        save(&path, &text)?;
                        shrunk.push((fname, path.display().to_string(), sr.steps));
                    } else {
                        if !json {
                            eprintln!(
                                "shrunk counterexample for {} ({} steps):\n{text}",
                                verdict.name, sr.steps
                            );
                        }
                        shrunk.push((fname, "-".to_string(), sr.steps));
                    }
                }
            }
        }
        if !json {
            let (verdict_cell, detail) = match &verdict.failure {
                None => ("pass".to_string(), None),
                Some(f) => (format!("FAIL[{}]", f.kind()), Some(f.to_string())),
            };
            println!(
                "{:>5}  {:<14} {:>4} {:>8} {:>8} {:>9}  {:<11} {:>5} {:>5}  {}",
                idx,
                verdict.name,
                if verdict.permutable { "yes" } else { "no" },
                verdict.rv_states,
                verdict.async_states,
                verdict.async_transitions,
                verdict.outcome.as_ref().map(|o| o.name()).unwrap_or("-"),
                bool_cell(verdict.progress_holds),
                bool_cell(verdict.fault_holds),
                verdict_cell,
            );
            if let Some(d) = detail {
                println!("       ^ {d}");
            }
        }
        rows.push((idx, verdict));
    }
    registry.counter("fuzz_specs_total", "Specs generated and checked").add(count);
    registry.counter("fuzz_failed_total", "Specs that failed the pipeline").add(failed);
    registry
        .counter("fuzz_permutable_total", "Specs that passed the scalarset symmetry check")
        .add(permutable);
    registry
        .counter("fuzz_shrunk_specs_total", "Failing specs minimized by the shrinker")
        .add(shrunk.len() as u64);
    if json {
        let mut s = Serializer::new();
        {
            let mut m = s.begin_map();
            m.entry("seed", &seed);
            m.entry("count", &count);
            m.entry("n", &n);
            m.entry("budget_states", &budget);
            m.entry("fault_budget", &fault_budget);
            m.entry("inject_broken", &inject);
            m.entry("failed", &failed);
            m.entry("permutable", &permutable);
            m.entry_with("specs", |ser| {
                let mut seq = ser.begin_seq();
                for (idx, v) in &rows {
                    seq.elem_with(|ser| {
                        let mut sm = ser.begin_map();
                        sm.entry("index", idx);
                        sm.entry("name", v.name.as_str());
                        sm.entry("permutable", &v.permutable);
                        sm.entry("rv_states", &v.rv_states);
                        sm.entry("async_states", &v.async_states);
                        sm.entry("async_transitions", &v.async_transitions);
                        sm.entry("outcome", &v.outcome.as_ref().map(|o| o.name()));
                        sm.entry("progress_holds", &v.progress_holds);
                        sm.entry("fault_holds", &v.fault_holds);
                        sm.entry("failure", &v.failure.as_ref().map(|f| f.to_string()));
                        sm.end();
                    });
                }
                seq.end();
            });
            m.entry_with("shrunk", |ser| {
                let mut seq = ser.begin_seq();
                for (name, path, steps) in &shrunk {
                    seq.elem_with(|ser| {
                        let mut sm = ser.begin_map();
                        sm.entry("name", name.as_str());
                        sm.entry("path", path.as_str());
                        sm.entry("steps", steps);
                        sm.end();
                    });
                }
                seq.end();
            });
            m.end();
        }
        println!("{}", s.into_string());
    } else {
        println!(
            "\n{} specs: {} passed, {failed} failed, {permutable} permutable (seed {seed}, n {n}, budget {budget})",
            count,
            count - failed,
        );
        for (name, path, steps) in &shrunk {
            println!("  shrunk {name} ({steps} steps) -> {path}");
        }
    }
    if let Some(path) = &metrics {
        let prometheus = p.text("--metrics-format").as_deref() == Some("prometheus");
        if let Err(code) = write_metrics(path, prometheus, &registry) {
            return Ok(code);
        }
    }
    Ok(if failed > 0 { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}
