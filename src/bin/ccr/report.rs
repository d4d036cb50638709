//! `ccr report`: merge a run directory's artifacts into one document.

use crate::flags::Parsed;
use crate::telemetry::{profile_entry, sync_overhead_share, worker_rows};
use crate::timeline::render_analysis;
use crate::watch::render_status;
use ccr_metrics::jsonval::Json;
use ccr_metrics::profile::{parse_folded, ProfileAgg};
use ccr_metrics::timeseries::{Status, Timeline};
use serde::Serializer;
use std::process::ExitCode;

/// Reads and jsonval-validates one run-dir JSON artifact; `None` when
/// the file is absent, an error string when present but invalid.
fn read_artifact(dir: &str, name: &str) -> Result<Option<(String, Json)>, String> {
    let path = format!("{dir}/{name}");
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(_) => return Ok(None),
    };
    let json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok(Some((text.trim_end().to_string(), json)))
}

/// `ccr report <run-dir> [--json]`: merges a run's artifacts
/// (verify.json, metrics.json, profile.folded, status.json,
/// trace.jsonl, timeline.jsonl — whichever exist) into one
/// self-contained report. Every JSON artifact is validated with the
/// shipped `jsonval` parser, as is the emitted JSON document itself.
pub fn run(p: &Parsed) -> Result<ExitCode, String> {
    let dir = p.positionals[0].as_str();
    let verify = read_artifact(dir, "verify.json")?;
    let metrics = read_artifact(dir, "metrics.json")?;
    let status = read_artifact(dir, "status.json")?;
    let status_doc = match &status {
        Some((_, json)) => Some(Status::from_json(json).map_err(|e| format!("status.json: {e}"))?),
        None => None,
    };
    let profile = match std::fs::read_to_string(format!("{dir}/profile.folded")) {
        Ok(text) => Some(
            parse_folded(&text)
                .and_then(|e| ProfileAgg::from_folded(&e))
                .map_err(|e| format!("profile.folded: {e}"))?,
        ),
        Err(_) => None,
    };
    // Trace summary: events per variant (externally tagged JSONL).
    let mut trace_counts: Vec<(String, u64)> = Vec::new();
    if let Ok(text) = std::fs::read_to_string(format!("{dir}/trace.jsonl")) {
        for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
            let ev = Json::parse(line).map_err(|e| format!("trace.jsonl line {}: {e}", i + 1))?;
            let variant = ev
                .as_object()
                .and_then(|o| o.first())
                .map(|(k, _)| k.clone())
                .unwrap_or_else(|| "?".to_string());
            match trace_counts.iter_mut().find(|(k, _)| *k == variant) {
                Some((_, n)) => *n += 1,
                None => trace_counts.push((variant, 1)),
            }
        }
    }
    // Flight-recorder timeline, when the run wrote one.
    let timeline = match std::fs::read_to_string(format!("{dir}/timeline.jsonl")) {
        Ok(text) => {
            let t = Timeline::parse(&text).map_err(|e| format!("timeline.jsonl: {e}"))?;
            t.validate().map_err(|e| format!("timeline.jsonl: {e}"))?;
            Some(t.analyze())
        }
        Err(_) => None,
    };
    if verify.is_none() && metrics.is_none() && status.is_none() && profile.is_none() {
        return Err(format!("no run artifacts found under {dir}"));
    }

    if p.on("--json") {
        let mut s = Serializer::new();
        {
            let mut m = s.begin_map();
            m.entry("run_dir", dir);
            for (key, artifact) in [("verify", &verify), ("metrics", &metrics), ("status", &status)]
            {
                match artifact {
                    Some((raw, _)) => m.entry_with(key, |ser| ser.serialize_raw(raw)),
                    None => m.entry(key, &None::<u32>),
                }
            }
            match &profile {
                Some(agg) => profile_entry(&mut m, agg),
                None => m.entry("profile", &None::<u32>),
            }
            m.entry_with("trace_events", |ser| {
                let mut t = ser.begin_map();
                for (k, n) in &trace_counts {
                    t.entry(k, n);
                }
                t.end();
            });
            match &timeline {
                Some(an) => m.entry_with("timeline", |ser| an.serialize_into(ser)),
                None => m.entry("timeline", &None::<u32>),
            }
            m.end();
        }
        let doc = s.into_string();
        Json::parse(&doc).map_err(|e| format!("emitted JSON failed validation: {e}"))?;
        println!("{doc}");
        return Ok(ExitCode::SUCCESS);
    }

    // Markdown rendering.
    let spec = match (&status_doc, &verify) {
        (Some(st), _) => st.spec.clone(),
        (None, Some((_, v))) => v.get("spec").and_then(Json::as_str).unwrap_or("?").to_string(),
        (None, None) => "?".to_string(),
    };
    println!("# Run report: {spec}");
    println!("\nArtifacts: `{dir}`");
    if let Some((_, v)) = &verify {
        println!("\n## Verification\n");
        let b = |k: &str| v.get(k).and_then(Json::as_bool);
        if let Some(holds) = b("holds") {
            println!("- holds: **{holds}**");
        }
        for key in ["rendezvous", "asynchronous"] {
            if let Some(r) = v.get(key).filter(|r| !matches!(r, Json::Null)) {
                let states = r.get("states").and_then(Json::as_u64).unwrap_or(0);
                let outcome = r
                    .path("outcome.outcome")
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .or_else(|| r.get("outcome").and_then(Json::as_str).map(str::to_string))
                    .unwrap_or_else(|| "?".to_string());
                println!("- {key}: {states} states, {outcome}");
            }
        }
    }
    if let Some(st) = &status_doc {
        println!("\n## Final status\n");
        println!("```\n{}\n```", render_status(st));
    }
    if let Some((_, mjson)) = &metrics {
        if let Some(phases) = mjson.get("phases").and_then(Json::as_object) {
            println!("\n## Phases\n");
            println!("| phase | calls | seconds |");
            println!("|---|---|---|");
            for (name, v) in phases {
                let calls = v.get("calls").and_then(Json::as_u64).unwrap_or(0);
                if let Some(nanos) = v.get("nanos").and_then(Json::as_u64) {
                    println!("| {name} | {calls} | {:.4} |", nanos as f64 / 1e9);
                }
            }
        }
    }
    if let Some(agg) = &profile {
        println!("\n## Profile\n");
        println!("| worker | secs | breakdown |");
        println!("|---|---|---|");
        for (worker, secs, cells) in worker_rows(agg) {
            println!("| {worker} | {secs:.4} | {cells} |");
        }
        println!(
            "\nShip + drain + barrier-wait share of worker time: \
             **{:.1}%**",
            sync_overhead_share(agg) * 100.0
        );
    }
    if let Some(an) = &timeline {
        println!("\n## Timeline\n");
        render_analysis(an);
    }
    if !trace_counts.is_empty() {
        println!("\n## Trace\n");
        for (k, n) in &trace_counts {
            println!("- {k}: {n}");
        }
    }
    Ok(ExitCode::SUCCESS)
}
