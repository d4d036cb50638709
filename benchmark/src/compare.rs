//! `ccr-benchmark compare <a.json> <b.json>`: two `run.sh --out` reports,
//! metric by metric and workload by workload.
//!
//! An end-to-end metric fails when `b` is worse than `a` by more than
//! the metric's bound; a deterministic count fails when it differs at
//! all. Timings of single layers are shown and never fail.

use crate::layers::Json;
use crate::metrics::{self, Better};

/// One compared metric of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Value in the first report.
    pub a: f64,
    /// Value in the second report.
    pub b: f64,
    /// How much worse `b` is than `a`, as a share of `a`; negative when
    /// `b` is better.
    pub worse_by: f64,
    /// What the row is held to.
    pub gate: Gate,
    /// Whether the row is outside its bound.
    pub failed: bool,
}

/// What a compared metric is held to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// An end-to-end metric: may worsen by this share of `a`.
    Share(f64),
    /// A deterministic count: must not differ.
    Exact,
    /// A layer timing: shown, never failed.
    Ungated,
}

fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    let change = if a == 0.0 { b - a } else { (b - a) / a.abs() };
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

fn values(report: &Json, workload: &str, section: &str) -> Vec<(String, f64)> {
    report
        .path(&format!("workloads.{workload}"))
        .and_then(|w| w.get(section))
        .and_then(Json::as_object)
        .map(|members| {
            members
                .iter()
                .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
                .collect()
        })
        .unwrap_or_default()
}

/// Compares two parsed reports. A workload or metric present in `a` and
/// absent from `b` is an error.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    let workloads =
        a.get("workloads").and_then(Json::as_object).ok_or("first report has no workloads")?;
    for (workload, _) in workloads {
        for section in ["end_to_end", "per_layer"] {
            let theirs = values(b, workload, section);
            for (metric, va) in values(a, workload, section) {
                let vb = theirs
                    .iter()
                    .find(|(name, _)| *name == metric)
                    .map(|(_, v)| *v)
                    .ok_or_else(|| format!("second report lacks {metric} on {workload}"))?;
                let (better, gate) =
                    match (metrics::end_to_end(&metric), metrics::per_layer(&metric)) {
                        (Some(m), _) => (m.better, Gate::Share(m.bound)),
                        (None, Some(m)) if m.exact => (m.better, Gate::Exact),
                        (None, Some(m)) => (m.better, Gate::Ungated),
                        (None, None) => return Err(format!("unknown metric {metric}")),
                    };
                let worse_by = worse_by(va, vb, better);
                let failed = match gate {
                    Gate::Share(bound) => worse_by > bound,
                    Gate::Exact => va != vb,
                    Gate::Ungated => false,
                };
                rows.push(Row {
                    workload: workload.clone(),
                    metric,
                    a: va,
                    b: vb,
                    worse_by,
                    gate,
                    failed,
                });
            }
        }
    }
    Ok(rows)
}

/// Reads both reports, prints every row, and says whether all passed.
pub fn main(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("usage: ccr-benchmark compare <a.json> <b.json>".into());
    };
    let read = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let rows = compare(&read(a)?, &read(b)?)?;
    println!(
        "{:<14} {:<36} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    for r in &rows {
        let bound = match r.gate {
            Gate::Share(b) => format!("{:.0}%", b * 100.0),
            Gate::Exact => "exact".to_string(),
            Gate::Ungated => "-".to_string(),
        };
        println!(
            "{:<14} {:<36} {:>14.6} {:>14.6} {:>8.1}% {:>7}{}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            bound,
            if r.failed { "  FAILED" } else { "" }
        );
    }
    let failed = rows.iter().filter(|r| r.failed).count();
    println!("{} rows compared, {failed} outside their bound", rows.len());
    Ok(failed == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(op_s: f64, states: u64) -> Json {
        Json::parse(&format!(
            r#"{{"workloads":{{"explore_large":{{
                "end_to_end":{{"op_s":{{"value":{op_s},"unit":"s"}}}},
                "per_layer":{{"mc.search.states":{{"value":{states},"unit":"count"}},
                              "mc.search.async_s":{{"value":{op_s},"unit":"s"}}}}}}}}}}"#
        ))
        .unwrap()
    }

    fn failed(a: &Json, b: &Json) -> Vec<String> {
        compare(a, b).unwrap().into_iter().filter(|r| r.failed).map(|r| r.metric).collect()
    }

    #[test]
    fn an_op_s_change_a_point_past_its_bound_fails_and_one_a_point_short_passes() {
        let bound = metrics::end_to_end("op_s").unwrap().bound;
        let base = report(2.0, 636_456);
        assert_eq!(failed(&base, &report(2.0 * (1.01 + bound), 636_456)), vec!["op_s"]);
        assert!(failed(&base, &report(2.0 * (0.99 + bound), 636_456)).is_empty());
        // Getting faster is never a failure, and layer timings are not gated.
        assert!(failed(&base, &report(1.0, 636_456)).is_empty());
    }

    #[test]
    fn a_count_that_differs_at_all_fails() {
        assert_eq!(failed(&report(2.0, 636_456), &report(2.0, 636_457)), vec!["mc.search.states"]);
    }

    #[test]
    fn a_metric_missing_from_the_second_report_is_an_error() {
        let b = Json::parse(r#"{"workloads":{"explore_large":{"end_to_end":{}}}}"#).unwrap();
        assert!(compare(&report(2.0, 1), &b).is_err());
    }
}
