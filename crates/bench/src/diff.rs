//! `ccr bench diff` — the perf-regression comparator.
//!
//! Compares two JSON files of the same kind and reports regressions:
//!
//! * **Bench reports** (`BENCH_mc.json`, anything with a top-level
//!   `"bench"` key): workloads are matched by name; `states`,
//!   `transitions` and `encoded_len_bytes` must match exactly (the state
//!   space is deterministic — any drift is a correctness bug, not
//!   noise), throughput (`states_per_sec`, serial and per thread count)
//!   may drop by at most `tolerance`, `store.arena_bytes_per_state` may
//!   grow by at most `bytes_tolerance`, per-phase wall times may
//!   grow by at most `tolerance` (with a small absolute floor so
//!   microsecond phases don't flap), and the flight-recorder
//!   `sampler.overhead_share` may grow by at most 2 percentage points
//!   over the baseline (the "<2% sampling overhead" claim).
//!   `--counts-only` drops every timing- and memory-based threshold and
//!   gates the exact counts alone — for workloads too short to time reliably, such as the
//!   symmetry-reduced orbit spaces. `--min-engine-overhead R` asserts
//!   the new report's 1-thread `engine_overhead` ratio stays at or
//!   above `R` — a same-host ratio, so it holds up even under
//!   `--counts-only` on hosts too noisy for absolute-rate gates.
//! * **Metrics snapshots** (`ccr --metrics` output, anything with a
//!   top-level `"counters"` key): every metric *not* tagged in either
//!   file's `nondeterministic` list must match exactly — counters,
//!   gauges, and histogram bucket counts alike. Phases are wall-clock
//!   and are ignored.
//!
//! `diff_strs` is the library entry; [`run`] is `ccr bench diff` behind
//! the binary's flag parser (exit 0 clean, 1 on regression, 2 on
//! unreadable or unparsable input).

use ccr_metrics::jsonval::Json;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Relative-tolerance thresholds for [`diff_strs`].
#[derive(Debug, Clone)]
pub struct DiffOptions {
    /// Maximum allowed relative throughput drop / phase-time growth.
    pub tolerance: f64,
    /// Maximum allowed relative growth in bytes per state.
    pub bytes_tolerance: f64,
    /// Compare only the deterministic counts (`states`, `transitions`,
    /// `encoded_len_bytes`) and skip every timing- and memory-based
    /// threshold. For gating workloads whose wall time is too short to
    /// measure reliably — e.g. the symmetry-reduced orbit spaces, where
    /// the counts *are* the result being pinned.
    pub counts_only: bool,
    /// Absolute floor on the **new** report's 1-thread `engine_overhead`
    /// ratio (parallel-at-1-thread throughput over serial throughput).
    /// Unlike the relative thresholds this does not compare against the
    /// old report — it asserts the overhead gap itself never regresses
    /// past a fixed line, and it applies even under `counts_only`
    /// (a ratio of two same-host runs is far more stable than either
    /// absolute rate, so it survives hosts too noisy for `tolerance`).
    pub min_engine_overhead: Option<f64>,
}

impl Default for DiffOptions {
    fn default() -> Self {
        Self { tolerance: 0.1, bytes_tolerance: 0.1, counts_only: false, min_engine_overhead: None }
    }
}

/// Outcome of a comparison: hard regressions plus informational notes
/// (entries present on only one side, skipped nondeterministic metrics).
#[derive(Debug, Default)]
pub struct DiffReport {
    /// Violations of the thresholds — any entry here fails the gate.
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

/// Compares two JSON documents (both bench reports or both metrics
/// snapshots). Errors on unparsable input or mismatched kinds.
pub fn diff_strs(old: &str, new: &str, opts: &DiffOptions) -> Result<DiffReport, String> {
    let old = Json::parse(old).map_err(|e| format!("old file: {e}"))?;
    let new = Json::parse(new).map_err(|e| format!("new file: {e}"))?;
    let kind = |j: &Json| {
        if j.get("bench").is_some() {
            Some("bench")
        } else if j.get("counters").is_some() {
            Some("snapshot")
        } else {
            None
        }
    };
    match (kind(&old), kind(&new)) {
        (Some("bench"), Some("bench")) => Ok(diff_bench(&old, &new, opts)),
        (Some("snapshot"), Some("snapshot")) => Ok(diff_snapshot(&old, &new)),
        (Some(a), Some(b)) => Err(format!("cannot compare a {a} report against a {b} report")),
        _ => Err("unrecognized report: expected a top-level \"bench\" or \"counters\" key".into()),
    }
}

fn workload_map(doc: &Json) -> Vec<(&str, &Json)> {
    doc.get("workloads")
        .and_then(Json::as_array)
        .map(|ws| {
            ws.iter().filter_map(|w| w.get("name").and_then(Json::as_str).map(|n| (n, w))).collect()
        })
        .unwrap_or_default()
}

fn diff_bench(old: &Json, new: &Json, opts: &DiffOptions) -> DiffReport {
    let mut rep = DiffReport::default();
    let old_ws = workload_map(old);
    let new_ws = workload_map(new);
    for (name, _) in &old_ws {
        if !new_ws.iter().any(|(n, _)| n == name) {
            rep.notes.push(format!("workload {name} only in old report"));
        }
    }
    for (name, nw) in &new_ws {
        let Some((_, ow)) = old_ws.iter().find(|(n, _)| n == name) else {
            rep.notes.push(format!("workload {name} only in new report"));
            continue;
        };
        diff_workload(name, ow, nw, opts, &mut rep);
    }
    rep
}

fn diff_workload(name: &str, old: &Json, new: &Json, opts: &DiffOptions, rep: &mut DiffReport) {
    // The state space is deterministic: exact equality, no tolerance.
    for key in ["states", "transitions", "encoded_len_bytes"] {
        match (old.get(key).and_then(Json::as_u64), new.get(key).and_then(Json::as_u64)) {
            (Some(o), Some(n)) if o != n => {
                rep.regressions.push(format!(
                    "{name}: {key} changed {o} -> {n} ({:+.2}%, must be exact)",
                    (n as f64 / o.max(1) as f64 - 1.0) * 100.0
                ));
            }
            (Some(_), Some(_)) => {}
            _ => rep.notes.push(format!("{name}: {key} missing on one side")),
        }
    }
    // Engine overhead: an absolute floor on the new report's 1-thread
    // ratio, asserted regardless of `counts_only` (see `DiffOptions`).
    if let Some(floor) = opts.min_engine_overhead {
        let one_t = new
            .get("parallel")
            .and_then(Json::as_array)
            .and_then(|par| par.iter().find(|e| e.get("threads").and_then(Json::as_u64) == Some(1)))
            .and_then(|e| e.get("engine_overhead"))
            .and_then(Json::as_f64);
        match one_t {
            Some(ratio) if ratio < floor => rep.regressions.push(format!(
                "{name}: 1-thread engine_overhead {ratio:.2} below the {floor:.2} floor"
            )),
            Some(_) => {}
            None => rep.notes.push(format!("{name}: no 1-thread engine_overhead sample")),
        }
    }
    if opts.counts_only {
        return;
    }
    // Throughput: one-sided relative drop.
    let rate = |w: &Json, path: &str| w.path(path).and_then(Json::as_f64);
    check_rate(
        rep,
        opts.tolerance,
        format!("{name}: serial states_per_sec"),
        rate(old, "serial.states_per_sec"),
        rate(new, "serial.states_per_sec"),
    );
    let threads_of = |e: &Json| e.get("threads").and_then(Json::as_u64);
    let old_par = old.get("parallel").and_then(Json::as_array).unwrap_or(&[]);
    let new_par = new.get("parallel").and_then(Json::as_array).unwrap_or(&[]);
    for ne in new_par {
        let Some(t) = threads_of(ne) else { continue };
        let Some(oe) = old_par.iter().find(|e| threads_of(e) == Some(t)) else {
            rep.notes.push(format!("{name}: {t}-thread sample only in new report"));
            continue;
        };
        check_rate(
            rep,
            opts.tolerance,
            format!("{name}: {t}-thread states_per_sec"),
            oe.get("states_per_sec").and_then(Json::as_f64),
            ne.get("states_per_sec").and_then(Json::as_f64),
        );
    }
    // Memory: one-sided relative growth.
    match (rate(old, "store.arena_bytes_per_state"), rate(new, "store.arena_bytes_per_state")) {
        (Some(o), Some(n)) if o > 0.0 && n > o * (1.0 + opts.bytes_tolerance) => {
            rep.regressions.push(format!(
                "{name}: arena_bytes_per_state grew {o:.1} -> {n:.1} ({:+.1}% > {:.0}% tolerance)",
                (n / o - 1.0) * 100.0,
                opts.bytes_tolerance * 100.0
            ));
        }
        _ => {}
    }
    // Phase wall times: one-sided growth with a 20 ms absolute floor so
    // sub-millisecond phases don't flap on scheduler noise.
    let old_ph = phase_entries(old);
    for (key, n) in phase_entries(new) {
        let Some(&(_, o)) = old_ph.iter().find(|(k, _)| *k == key) else {
            rep.notes.push(format!("{name}: phase {key} only in new report"));
            continue;
        };
        if n > o * (1.0 + opts.tolerance) && n - o > 0.02 {
            rep.regressions.push(format!(
                "{name}: phase {key} slowed {o:.3}s -> {n:.3}s ({:+.1}% > {:.0}% tolerance)",
                (n / o - 1.0) * 100.0,
                opts.tolerance * 100.0
            ));
        }
    }
    // Flight-recorder cost: the new `sampler.overhead_share` may exceed
    // the old one by at most 2 percentage points — an absolute band, not
    // a ratio, because the share itself hovers near zero and a ratio
    // would flap on noise. This is the "<2% sampling overhead" claim:
    // a baseline share of ~0 caps the new share at ~0.02.
    match (rate(old, "sampler.overhead_share"), rate(new, "sampler.overhead_share")) {
        (Some(o), Some(n)) if n > o.max(0.0) + 0.02 => {
            rep.regressions.push(format!(
                "{name}: sampler overhead_share grew {o:.4} -> {n:.4} \
                 (+{:.1} points > 2.0-point band)",
                (n - o.max(0.0)) * 100.0
            ));
        }
        _ => {}
    }
}

fn check_rate(rep: &mut DiffReport, tolerance: f64, label: String, o: Option<f64>, n: Option<f64>) {
    match (o, n) {
        (Some(o), Some(n)) if o > 0.0 && n < o * (1.0 - tolerance) => {
            rep.regressions.push(format!(
                "{label} dropped {o:.0} -> {n:.0} states/sec ({:+.1}% > {:.0}% tolerance)",
                (n / o - 1.0) * 100.0,
                tolerance * 100.0
            ));
        }
        (Some(_), Some(_)) => {}
        _ => rep.notes.push(format!("{label} missing on one side")),
    }
}

fn phase_entries(w: &Json) -> Vec<(&str, f64)> {
    w.get("phases")
        .and_then(Json::as_object)
        .map(|o| o.iter().filter_map(|(k, v)| v.as_f64().map(|f| (k.as_str(), f))).collect())
        .unwrap_or_default()
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
/// parsed: reads both files, compares them under `opts` and prints the
/// findings.
pub fn run(old_path: &str, new_path: &str, opts: &DiffOptions) -> std::process::ExitCode {
    use std::process::ExitCode;
    let read = |path: &str| {
        std::fs::read_to_string(path).map_err(|e| {
            eprintln!("ccr bench diff: cannot read {path}: {e}");
        })
    };
    let (Ok(old), Ok(new)) = (read(old_path), read(new_path)) else {
        return ExitCode::from(2);
    };
    match diff_strs(&old, &new, opts) {
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

    fn bench_doc(states: u64, serial_rate: f64, bytes_per_state: f64, explore_secs: f64) -> String {
        format!(
            r#"{{"bench":"mc_perf","workloads":[{{"name":"w1","states":{states},
              "transitions":10,"encoded_len_bytes":16,
              "serial":{{"secs":1.0,"states_per_sec":{serial_rate}}},
              "parallel":[{{"threads":4,"secs":1.0,"states_per_sec":{serial_rate},"speedup":1.0}}],
              "store":{{"arena_bytes_per_state":{bytes_per_state}}},
              "phases":{{"explore_secs":{explore_secs}}}}}]}}"#
        )
    }

    #[test]
    fn identical_bench_reports_pass() {
        let doc = bench_doc(100, 5000.0, 20.0, 1.0);
        let rep = diff_strs(&doc, &doc, &DiffOptions::default()).unwrap();
        assert!(rep.ok(), "{:?}", rep.regressions);
    }

    #[test]
    fn throughput_drop_beyond_tolerance_fails() {
        let old = bench_doc(100, 5000.0, 20.0, 1.0);
        let new = bench_doc(100, 4000.0, 20.0, 1.0);
        let rep = diff_strs(&old, &new, &DiffOptions::default()).unwrap();
        assert!(!rep.ok());
        assert!(rep.regressions.iter().any(|r| r.contains("states_per_sec")), "{rep:?}");
        // The same drop passes under a looser gate.
        let loose = DiffOptions { tolerance: 0.25, ..DiffOptions::default() };
        assert!(diff_strs(&old, &new, &loose).unwrap().ok());
    }

    #[test]
    fn state_count_drift_fails_exactly() {
        let old = bench_doc(100, 5000.0, 20.0, 1.0);
        let new = bench_doc(101, 5000.0, 20.0, 1.0);
        let rep = diff_strs(&old, &new, &DiffOptions::default()).unwrap();
        assert!(rep.regressions.iter().any(|r| r.contains("states changed")), "{rep:?}");
    }

    #[test]
    fn bytes_growth_and_phase_slowdown_fail() {
        let old = bench_doc(100, 5000.0, 20.0, 1.0);
        let fat = bench_doc(100, 5000.0, 25.0, 1.0);
        let rep = diff_strs(&old, &fat, &DiffOptions::default()).unwrap();
        assert!(rep.regressions.iter().any(|r| r.contains("arena_bytes_per_state")), "{rep:?}");
        let slow = bench_doc(100, 5000.0, 20.0, 1.5);
        let rep = diff_strs(&old, &slow, &DiffOptions::default()).unwrap();
        assert!(rep.regressions.iter().any(|r| r.contains("explore_secs")), "{rep:?}");
        // Faster is never a regression.
        let fast = bench_doc(100, 5000.0, 20.0, 0.5);
        assert!(diff_strs(&old, &fast, &DiffOptions::default()).unwrap().ok());
    }

    #[test]
    fn counts_only_ignores_timing_but_still_pins_counts() {
        let opts = DiffOptions { counts_only: true, ..DiffOptions::default() };
        let old = bench_doc(100, 5000.0, 20.0, 1.0);
        // Half the throughput, fatter store, slower phase: all ignored.
        let noisy = bench_doc(100, 2500.0, 30.0, 2.0);
        assert!(diff_strs(&old, &noisy, &opts).unwrap().ok());
        // State-count drift still fails exactly.
        let drifted = bench_doc(99, 5000.0, 20.0, 1.0);
        let rep = diff_strs(&old, &drifted, &opts).unwrap();
        assert!(rep.regressions.iter().any(|r| r.contains("states changed")), "{rep:?}");
    }

    fn bench_doc_with_sampler(share: f64) -> String {
        format!(
            r#"{{"bench":"mc_perf","workloads":[{{"name":"w1","states":100,
              "transitions":10,"encoded_len_bytes":16,
              "serial":{{"secs":1.0,"states_per_sec":5000.0}},
              "parallel":[{{"threads":4,"secs":1.0,"states_per_sec":5000.0,"speedup":1.0}}],
              "store":{{"arena_bytes_per_state":20.0}},
              "phases":{{"explore_secs":1.0}},
              "sampler":{{"interval_ms":50,"off_secs":1.0,"on_secs":{},
                "overhead_share":{share},"samples":20}}}}]}}"#,
            1.0 + share
        )
    }

    #[test]
    fn sampler_overhead_gated_within_two_points() {
        let old = bench_doc_with_sampler(0.005);
        // Inside the 2-point band: clean.
        let near = bench_doc_with_sampler(0.024);
        assert!(diff_strs(&old, &near, &DiffOptions::default()).unwrap().ok());
        // Past it: regression.
        let heavy = bench_doc_with_sampler(0.03);
        let rep = diff_strs(&old, &heavy, &DiffOptions::default()).unwrap();
        assert!(rep.regressions.iter().any(|r| r.contains("overhead_share")), "{rep:?}");
        // counts_only skips the sampler gate like every timing gate.
        let lax = DiffOptions { counts_only: true, ..DiffOptions::default() };
        assert!(diff_strs(&old, &heavy, &lax).unwrap().ok());
        // A report without a sampler entry (pre-recorder baseline) is
        // not a regression.
        let legacy = bench_doc(100, 5000.0, 20.0, 1.0);
        assert!(diff_strs(&legacy, &heavy, &DiffOptions::default()).unwrap().ok());
    }

    fn bench_doc_with_overhead(overhead: f64) -> String {
        format!(
            r#"{{"bench":"mc_perf","workloads":[{{"name":"w1","states":100,
              "transitions":10,"encoded_len_bytes":16,
              "serial":{{"secs":1.0,"states_per_sec":5000.0}},
              "parallel":[
                {{"threads":1,"secs":1.0,"states_per_sec":{},"engine_overhead":{overhead}}},
                {{"threads":4,"secs":1.0,"states_per_sec":5000.0,"speedup":1.0}}],
              "store":{{"arena_bytes_per_state":20.0}},
              "phases":{{"explore_secs":1.0}}}}]}}"#,
            5000.0 * overhead
        )
    }

    #[test]
    fn engine_overhead_floor_gates_the_one_thread_ratio() {
        let old = bench_doc_with_overhead(0.60);
        let opts = DiffOptions {
            counts_only: true,
            min_engine_overhead: Some(0.50),
            ..DiffOptions::default()
        };
        // At or above the floor: clean, even though counts_only skips
        // every other timing gate.
        let good = bench_doc_with_overhead(0.55);
        assert!(diff_strs(&old, &good, &opts).unwrap().ok());
        // Below the floor: regression, despite counts_only.
        let bad = bench_doc_with_overhead(0.45);
        let rep = diff_strs(&old, &bad, &opts).unwrap();
        assert!(rep.regressions.iter().any(|r| r.contains("engine_overhead")), "{rep:?}");
        // A report without a 1-thread sample notes the absence instead
        // of failing (old reports predate the field).
        let legacy = bench_doc(100, 5000.0, 20.0, 1.0);
        let rep = diff_strs(&old, &legacy, &opts).unwrap();
        assert!(rep.ok(), "{:?}", rep.regressions);
        assert!(rep.notes.iter().any(|n| n.contains("engine_overhead")), "{rep:?}");
        // Without the flag the ratio is not gated at all.
        let lax = DiffOptions { counts_only: true, ..DiffOptions::default() };
        assert!(diff_strs(&old, &bad, &lax).unwrap().ok());
    }

    #[test]
    fn every_violation_reports_workload_values_and_delta() {
        let old = bench_doc(100, 5000.0, 20.0, 1.0);
        // Drifted counts, slower throughput (serial and 4-thread), fatter
        // store, slower phase — every violation class at once.
        let bad = bench_doc(101, 4000.0, 25.0, 1.5);
        let rep = diff_strs(&old, &bad, &DiffOptions::default()).unwrap();
        assert!(rep.regressions.len() >= 5, "{rep:?}");
        for r in &rep.regressions {
            assert!(r.contains("w1:"), "missing workload name: {r}");
            assert!(r.contains("->"), "missing old -> new values: {r}");
            assert!(r.contains('%'), "missing relative delta: {r}");
        }
    }

    #[test]
    fn snapshot_deterministic_drift_fails_and_nondet_is_skipped() {
        let reg = ccr_metrics::Registry::new();
        reg.counter("mc_states_total", "states").add(10);
        reg.counter_nondet("mc_batches_flushed_total", "batches").add(3);
        let old = reg.snapshot().to_json();
        reg.counter("mc_states_total", "states").add(1);
        let drifted = reg.snapshot().to_json();
        let rep = diff_strs(&old, &old, &DiffOptions::default()).unwrap();
        assert!(rep.ok());
        let rep = diff_strs(&old, &drifted, &DiffOptions::default()).unwrap();
        assert!(rep.regressions.iter().any(|r| r.contains("mc_states_total")), "{rep:?}");
        // The nondet counter may drift freely.
        reg.counter_nondet("mc_batches_flushed_total", "batches").add(99);
        let nondet_only = {
            let reg2 = ccr_metrics::Registry::new();
            reg2.counter("mc_states_total", "states").add(11);
            reg2.counter_nondet("mc_batches_flushed_total", "batches").add(500);
            reg2.snapshot().to_json()
        };
        let rep = diff_strs(&drifted, &nondet_only, &DiffOptions::default()).unwrap();
        assert!(rep.ok(), "{:?}", rep.regressions);
    }

    #[test]
    fn mismatched_kinds_and_garbage_error() {
        let bench = bench_doc(1, 1.0, 1.0, 1.0);
        let snap = ccr_metrics::Registry::new().snapshot().to_json();
        assert!(diff_strs(&bench, &snap, &DiffOptions::default()).is_err());
        assert!(diff_strs("not json", &snap, &DiffOptions::default()).is_err());
        assert!(diff_strs("{}", "{}", &DiffOptions::default()).is_err());
    }
}
