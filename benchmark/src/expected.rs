//! `expected.json`: the exit code and the output values every op must
//! produce, written by hand.
//!
//! Each workload names an `exit` code and a `stdout` map from a dotted
//! path into the op's JSON output to the value that must be there. A
//! `stdout_at_seed` map holds values that are pinned only for the file's
//! `seed`; on any other seed those workloads are checked by the
//! seed-independent `stdout` properties alone.

use crate::layers::Json;
use crate::metrics::WORKLOADS;
use std::path::Path;

/// What one op must produce.
#[derive(Debug, Clone)]
pub struct ExpectedOp {
    /// Process exit code.
    pub exit: i32,
    /// Dotted path into the op's JSON output → required value.
    pub stdout: Vec<(String, Json)>,
    /// As `stdout`, but binding only when the run's seed is the file's.
    pub stdout_at_seed: Vec<(String, Json)>,
}

/// The canary: an op that must fail, so a checker that passes
/// everything is caught.
#[derive(Debug, Clone)]
pub struct Canary {
    /// Spec file the canary verifies.
    pub spec: String,
    /// `-n`.
    pub n: u32,
    /// What it must produce.
    pub op: ExpectedOp,
}

/// The parsed file.
#[derive(Debug, Clone)]
pub struct Expected {
    /// The seed `stdout_at_seed` values were recorded at.
    pub seed: u64,
    /// The must-fail op.
    pub canary: Canary,
    workloads: Vec<(String, ExpectedOp)>,
}

fn pairs(node: Option<&Json>, what: &str) -> Result<Vec<(String, Json)>, String> {
    match node {
        None => Ok(Vec::new()),
        Some(j) => j
            .as_object()
            .map(<[_]>::to_vec)
            .ok_or_else(|| format!("expected.json: {what} is not an object")),
    }
}

fn op(node: &Json, what: &str) -> Result<ExpectedOp, String> {
    let exit = node
        .get("exit")
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("expected.json: {what} has no exit code"))?;
    Ok(ExpectedOp {
        exit: exit as i32,
        stdout: pairs(node.get("stdout"), &format!("{what}.stdout"))?,
        stdout_at_seed: pairs(node.get("stdout_at_seed"), &format!("{what}.stdout_at_seed"))?,
    })
}

impl Expected {
    /// Parses the file's text; every workload of the benchmark must be
    /// present.
    pub fn parse(text: &str) -> Result<Expected, String> {
        let doc = Json::parse(text).map_err(|e| format!("expected.json: {e}"))?;
        let seed = doc.get("seed").and_then(Json::as_u64).ok_or("expected.json: no seed")?;
        let c = doc.get("canary").ok_or("expected.json: no canary")?;
        let canary = Canary {
            spec: c
                .get("spec")
                .and_then(Json::as_str)
                .ok_or("expected.json: canary has no spec")?
                .to_string(),
            n: c.get("n").and_then(Json::as_u64).ok_or("expected.json: canary has no n")? as u32,
            op: op(c, "canary")?,
        };
        let listed = doc.get("workloads").ok_or("expected.json: no workloads")?;
        let mut workloads = Vec::new();
        for w in &WORKLOADS {
            let node = listed
                .get(w.name)
                .ok_or_else(|| format!("expected.json: workload {} is missing", w.name))?;
            workloads.push((w.name.to_string(), op(node, w.name)?));
        }
        Ok(Expected { seed, canary, workloads })
    }

    /// Reads and parses `path`.
    pub fn load(path: &Path) -> Result<Expected, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Expected::parse(&text)
    }

    /// What an op of `workload` must produce.
    pub fn workload(&self, workload: &str) -> &ExpectedOp {
        &self.workloads.iter().find(|(n, _)| n == workload).expect("parse checked every name").1
    }
}

impl ExpectedOp {
    /// Every way `exit` and `stdout` differ from what is expected; empty
    /// when the op is correct. `pinned` says whether the run's seed is the
    /// one `stdout_at_seed` was recorded at.
    pub fn mismatches(&self, exit: Option<i32>, stdout: &str, pinned: bool) -> Vec<String> {
        let mut out = Vec::new();
        if exit != Some(self.exit) {
            out.push(format!("exit {exit:?}, expected {}", self.exit));
        }
        let doc = match Json::parse(stdout.trim()) {
            Ok(doc) => doc,
            Err(e) => {
                out.push(format!("output is not JSON: {e}"));
                return out;
            }
        };
        let pinned = if pinned { self.stdout_at_seed.as_slice() } else { &[] };
        for (path, want) in self.stdout.iter().chain(pinned) {
            match doc.path(path) {
                Some(got) if got == want => {}
                Some(got) => out.push(format!("{path} = {got:?}, expected {want:?}")),
                None => out.push(format!("{path} is missing, expected {want:?}")),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_shipped_file_loads() {
        let e = Expected::parse(include_str!("../expected.json")).unwrap();
        assert_eq!(e.canary.op.exit, 1);
        assert!(!e.workload("explore_large").stdout.is_empty());
        assert!(!e.workload("dsm_sim").stdout_at_seed.is_empty());
    }

    #[test]
    fn a_missing_workload_is_rejected() {
        let text =
            include_str!("../expected.json").replacen("\"explore_sym\"", "\"explore_sim\"", 1);
        let err = Expected::parse(&text).unwrap_err();
        assert!(err.contains("explore_sym is missing"), "{err}");
    }

    #[test]
    fn mismatches_name_the_path_and_respect_the_seed() {
        let op = ExpectedOp {
            exit: 0,
            stdout: vec![("a.states".into(), Json::Num(7.0))],
            stdout_at_seed: vec![("total".into(), Json::Num(3.0))],
        };
        let good = r#"{"a":{"states":7},"total":3}"#;
        let other_seed = r#"{"a":{"states":7},"total":4}"#;
        assert!(op.mismatches(Some(0), good, true).is_empty());
        assert!(op.mismatches(Some(0), other_seed, false).is_empty());
        assert_eq!(op.mismatches(Some(0), other_seed, true).len(), 1);
        assert_eq!(op.mismatches(Some(1), r#"{"a":{"states":8}}"#, false).len(), 2);
        assert_eq!(op.mismatches(None, "not json", false).len(), 2);
    }
}
