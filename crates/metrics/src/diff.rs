//! `ccr bench diff` — the metrics-snapshot comparator.
//!
//! Compares two `ccr --metrics` snapshots (JSON documents with a
//! top-level `"counters"` key, written by [`crate::Snapshot::to_json`]):
//! every metric *not* tagged in either file's `nondeterministic` list
//! must match exactly — counters, gauges, and histogram bucket counts
//! alike. Phases are wall-clock and are ignored. Timings are not this
//! tool's business: benchmark reports (`benchmark/run.sh --out`) are
//! compared by `ccr-benchmark compare`.
//!
//! [`diff_strs`] is the library entry; [`run`] is `ccr bench diff`
//! behind the binary's flag parser (exit 0 clean, 1 on regression, 2 on
//! unreadable, unparsable or non-snapshot input).

use crate::jsonval::Json;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Outcome of a comparison: hard regressions plus informational notes
/// (entries present on only one side, skipped nondeterministic metrics).
#[derive(Debug, Default)]
pub struct DiffReport {
    /// Deterministic metrics that differ — any entry here fails the gate.
    pub regressions: Vec<String>,
    /// Observations that do not fail the gate.
    pub notes: Vec<String>,
}

impl DiffReport {
    /// True when no regression was found.
    pub fn ok(&self) -> bool {
        self.regressions.is_empty()
    }

    /// Human-readable summary, one line per finding.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.regressions {
            let _ = writeln!(out, "REGRESSION: {r}");
        }
        for n in &self.notes {
            let _ = writeln!(out, "note: {n}");
        }
        if self.ok() {
            let _ = writeln!(out, "ok: no regressions");
        }
        out
    }
}

/// Compares two metrics snapshots. Errors on unparsable input and on a
/// document that is not a snapshot.
pub fn diff_strs(old: &str, new: &str) -> Result<DiffReport, String> {
    let snapshot = |which: &str, text: &str| {
        let doc = Json::parse(text).map_err(|e| format!("{which} file: {e}"))?;
        if doc.get("counters").is_some() {
            Ok(doc)
        } else if doc.get("bench").is_some() {
            Err(format!(
                "{which} file is a bench report, not a --metrics snapshot: \
                 compare benchmark reports with `ccr-benchmark compare` (benchmark/README.md)"
            ))
        } else {
            Err(format!("{which} file: not a --metrics snapshot (no top-level \"counters\" key)"))
        }
    };
    Ok(diff_snapshot(&snapshot("old", old)?, &snapshot("new", new)?))
}

fn diff_snapshot(old: &Json, new: &Json) -> DiffReport {
    let mut rep = DiffReport::default();
    let nondet: BTreeSet<&str> = [old, new]
        .iter()
        .filter_map(|j| j.get("nondeterministic").and_then(Json::as_array))
        .flatten()
        .filter_map(Json::as_str)
        .collect();
    for family in ["counters", "gauges"] {
        let old_m = old.get(family).and_then(Json::as_object).unwrap_or(&[]);
        let new_m = new.get(family).and_then(Json::as_object).unwrap_or(&[]);
        let names: BTreeSet<&str> = old_m.iter().chain(new_m).map(|(k, _)| k.as_str()).collect();
        for name in names {
            if nondet.contains(name) {
                rep.notes.push(format!("{name}: nondeterministic, skipped"));
                continue;
            }
            let get = |m: &[(String, Json)]| {
                m.iter().find(|(k, _)| k == name).and_then(|(_, v)| v.as_u64())
            };
            match (get(old_m), get(new_m)) {
                (Some(o), Some(n)) if o != n => rep.regressions.push(format!(
                    "{name}: deterministic {family} changed {o} -> {n} ({:+.2}%)",
                    (n as f64 / o.max(1) as f64 - 1.0) * 100.0
                )),
                (Some(_), Some(_)) => {}
                (Some(o), None) => {
                    rep.regressions
                        .push(format!("{name}: deterministic {family} disappeared (was {o})"));
                }
                (None, Some(_)) => rep.notes.push(format!("{name}: new {family}")),
                (None, None) => {}
            }
        }
    }
    let old_h = old.get("histograms").and_then(Json::as_object).unwrap_or(&[]);
    let new_h = new.get("histograms").and_then(Json::as_object).unwrap_or(&[]);
    let names: BTreeSet<&str> = old_h.iter().chain(new_h).map(|(k, _)| k.as_str()).collect();
    for name in names {
        if nondet.contains(name) {
            rep.notes.push(format!("{name}: nondeterministic, skipped"));
            continue;
        }
        let shape = |m: &[(String, Json)]| {
            m.iter().find(|(k, _)| k == name).map(|(_, v)| {
                let nums = |key: &str| -> Vec<u64> {
                    v.get(key)
                        .and_then(Json::as_array)
                        .map(|a| a.iter().filter_map(Json::as_u64).collect())
                        .unwrap_or_default()
                };
                (nums("counts"), v.get("sum").and_then(Json::as_u64))
            })
        };
        match (shape(old_h), shape(new_h)) {
            (Some(o), Some(n)) if o != n => {
                let fmt_sum =
                    |s: Option<u64>| s.map(|v| v.to_string()).unwrap_or_else(|| "-".to_string());
                rep.regressions.push(format!(
                    "{name}: deterministic histogram changed \
                     (sum {} -> {}, counts {:?} -> {:?})",
                    fmt_sum(o.1),
                    fmt_sum(n.1),
                    o.0,
                    n.0
                ));
            }
            (Some(_), Some(_)) => {}
            (Some(o), None) => {
                rep.regressions.push(format!(
                    "{name}: deterministic histogram disappeared (sum was {})",
                    o.1.map(|v| v.to_string()).unwrap_or_else(|| "-".to_string())
                ));
            }
            (None, Some(_)) => rep.notes.push(format!("{name}: new histogram")),
            (None, None) => {}
        }
    }
    if old.get("phases").and_then(Json::as_object).map(|p| !p.is_empty()).unwrap_or(false)
        || new.get("phases").and_then(Json::as_object).map(|p| !p.is_empty()).unwrap_or(false)
    {
        rep.notes.push("phases: wall-clock timings, not compared".into());
    }
    rep
}

/// `ccr bench diff <old.json> <new.json>` once the command line is
/// parsed: reads both files, compares them and prints the findings.
pub fn run(old_path: &str, new_path: &str) -> std::process::ExitCode {
    use std::process::ExitCode;
    let read = |path: &str| {
        std::fs::read_to_string(path).map_err(|e| {
            eprintln!("ccr bench diff: cannot read {path}: {e}");
        })
    };
    let (Ok(old), Ok(new)) = (read(old_path), read(new_path)) else {
        return ExitCode::from(2);
    };
    match diff_strs(&old, &new) {
        Ok(rep) => {
            print!("{}", rep.render());
            if rep.ok() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("ccr bench diff: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn snapshot_deterministic_drift_fails_and_nondet_is_skipped() {
        let reg = Registry::new();
        reg.counter("mc_states_total", "states").add(10);
        reg.counter_nondet("mc_batches_flushed_total", "batches").add(3);
        let old = reg.snapshot().to_json();
        reg.counter("mc_states_total", "states").add(1);
        let drifted = reg.snapshot().to_json();
        let rep = diff_strs(&old, &old).unwrap();
        assert!(rep.ok());
        let rep = diff_strs(&old, &drifted).unwrap();
        assert!(rep.regressions.iter().any(|r| r.contains("mc_states_total")), "{rep:?}");
        // The nondet counter may drift freely.
        reg.counter_nondet("mc_batches_flushed_total", "batches").add(99);
        let nondet_only = {
            let reg2 = Registry::new();
            reg2.counter("mc_states_total", "states").add(11);
            reg2.counter_nondet("mc_batches_flushed_total", "batches").add(500);
            reg2.snapshot().to_json()
        };
        let rep = diff_strs(&drifted, &nondet_only).unwrap();
        assert!(rep.ok(), "{:?}", rep.regressions);
    }

    #[test]
    fn bench_reports_and_garbage_error() {
        let bench = r#"{"bench":"recorder","workloads":[]}"#;
        let snap = Registry::new().snapshot().to_json();
        let err = diff_strs(bench, &snap).unwrap_err();
        assert!(err.contains("ccr-benchmark compare"), "{err}");
        assert!(diff_strs(&snap, bench).is_err());
        assert!(diff_strs("not json", &snap).is_err());
        assert!(diff_strs("{}", "{}").is_err());
    }
}
