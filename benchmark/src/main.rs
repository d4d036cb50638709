//! `ccr-benchmark`: the repository's benchmark. `README.md` beside this
//! crate says what is measured and why; `run.sh` builds and calls this.
//!
//! ```text
//! ccr-benchmark run --ccr BIN --workload W --seed N --seconds S --trace 0|1
//! ccr-benchmark all --ccr BIN [--seed S] [--seconds S] [--out FILE]
//! ccr-benchmark op <derive_zoo|dsm_sim|calib> … one op, as a child
//! ccr-benchmark compare <a.json> <b.json>
//! ccr-benchmark schema                          prints BENCHMARK.json
//! ```
//!
//! All of them run from the repository root.

mod calib;
mod child;
mod compare;
mod expected;
mod layers;
mod metrics;
mod ops;
mod spans;
mod stats;
mod workloads;

use metrics::{END_TO_END, PER_LAYER};
use serde::{MapSer, Serializer};
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Ctx, Measured, Traced, Workload};

/// Seed of a run that names none: the paper's year.
const DEFAULT_SEED: u64 = 1998;

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn parsed<T: std::str::FromStr>(
    args: &[String],
    name: &str,
    default: Option<T>,
) -> Result<T, String> {
    match flag(args, name) {
        Some(text) => text.parse().map_err(|_| format!("{name} {text}: not a valid value")),
        None => default.ok_or_else(|| format!("{name} is required")),
    }
}

fn ctx(args: &[String]) -> Result<Ctx, String> {
    let ccr = PathBuf::from(flag(args, "--ccr").ok_or("--ccr BIN is required")?);
    if !ccr.is_file() {
        return Err(format!(
            "{}: no such binary (run benchmark/run.sh, which builds it)",
            ccr.display()
        ));
    }
    let me = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    Ok(Ctx {
        ccr,
        me,
        expected: PathBuf::from("benchmark/expected.json"),
        out: PathBuf::from(format!("benchmark/out/run-{}", std::process::id())),
        seed: parsed(args, "--seed", Some(DEFAULT_SEED))?,
    })
}

fn trace_file(w: Workload) -> PathBuf {
    PathBuf::from(format!("benchmark/out/trace-{}.jsonl", w.name()))
}

fn metric_entry(m: &mut MapSer<'_>, name: &str, value: f64, unit: &str) {
    m.entry_with(name, |ser| {
        let mut e = ser.begin_map();
        e.entry("value", &value);
        e.entry("unit", unit);
        e.end();
    });
}

/// The one-line result the driver reads.
fn result_line(checks: workloads::Checks, metrics: &[(&str, f64, &str)]) -> String {
    let mut s = Serializer::new();
    let mut m = s.begin_map();
    m.entry("correct", &(checks.failed == 0));
    m.entry("attempted", &checks.attempted);
    m.entry("failed", &checks.failed);
    m.entry_with("metrics", |ser| {
        let mut inner = ser.begin_map();
        for (name, value, unit) in metrics {
            metric_entry(&mut inner, name, *value, unit);
        }
        inner.end();
    });
    m.end();
    s.into_string()
}

fn end_to_end_rows(measured: &Measured) -> Vec<(&'static str, f64, &'static str)> {
    END_TO_END.iter().zip(measured.end_to_end()).map(|(m, v)| (m.name, v, m.unit)).collect()
}

fn per_layer_rows(traced: &Traced) -> Vec<(&'static str, f64, &'static str)> {
    PER_LAYER.iter().map(|m| (m.name, traced.metrics[m.name], m.unit)).collect()
}

/// The op count, the quartiles of `op_s`, and what it was made from.
fn describe_ops(measured: &Measured) -> String {
    let (q1, q3) = measured.op_quartiles();
    let (wall_s, host) = measured.as_measured();
    format!(
        "op_s over {} ops, quartiles {q1:.4} .. {q3:.4} s; as measured {wall_s:.4} s on a host at {host:.3} of the reference time",
        measured.ops.len()
    )
}

fn describe_checks(to: &mut dyn std::io::Write, w: Workload, measured: &Measured) {
    let how = if measured.pinned || !matches!(w, Workload::DeriveZoo | Workload::DsmSim) {
        "every output checked against the values pinned in expected.json"
    } else {
        "seed is not the one expected.json pins: outputs checked by their properties only"
    };
    let c = measured.checks;
    let _ = writeln!(to, "  {} ops checked, {} failed; {how}", c.attempted, c.failed);
}

/// `run`: one workload, as the driver calls it.
fn run(args: &[String]) -> Result<bool, String> {
    let ctx = ctx(args)?;
    let name = flag(args, "--workload").ok_or("--workload NAME is required")?;
    let w = Workload::from_name(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seconds: f64 = parsed(args, "--seconds", None)?;
    let traced: u8 = parsed(args, "--trace", None)?;
    let outcome = if traced == 1 {
        workloads::trace(&ctx, w, &trace_file(w)).map(|t| (t.checks, per_layer_rows(&t)))
    } else {
        workloads::measure(&ctx, w, seconds).map(|measured| {
            eprintln!("{name}: {}", describe_ops(&measured));
            describe_checks(&mut std::io::stderr(), w, &measured);
            (measured.checks, end_to_end_rows(&measured))
        })
    };
    let _ = std::fs::remove_dir_all(&ctx.out);
    let (checks, rows) = outcome?;
    println!("{}", result_line(checks, &rows));
    Ok(checks.failed == 0)
}

/// `all`: every workload untraced, then traced; prints every metric by
/// name with its unit and writes the report `compare` reads.
fn all(args: &[String]) -> Result<bool, String> {
    let ctx = ctx(args)?;
    let seconds: f64 = parsed(args, "--seconds", Some(10.0))?;
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    println!("ccr-benchmark: seed {}, {seconds} s per workload, {cores} cores", ctx.seed);
    let mut failed = 0;
    let mut measured = Vec::new();
    for w in Workload::ALL {
        println!("\n== {} (untraced: closed loop, one client)", w.name());
        let m = workloads::measure(&ctx, w, seconds);
        let _ = std::fs::remove_dir_all(&ctx.out);
        let m = m?;
        for (name, value, unit) in end_to_end_rows(&m) {
            println!("  {name:<14} {value:>12.4} {unit}");
        }
        println!("  {}", describe_ops(&m));
        println!(
            "  error_rate     {:>12.4} ratio",
            m.checks.failed as f64 / m.checks.attempted as f64
        );
        describe_checks(&mut std::io::stdout(), w, &m);
        failed += m.checks.failed;
        measured.push(m);
    }
    let mut traced = Vec::new();
    for w in Workload::ALL {
        println!("\n== {} (traced; spans in {})", w.name(), trace_file(w).display());
        let t = workloads::trace(&ctx, w, &trace_file(w));
        let _ = std::fs::remove_dir_all(&ctx.out);
        let t = t?;
        for p in PER_LAYER.iter().filter(|p| p.home == w.name() || p.home == "*") {
            let exact = if p.exact { "  (exact)" } else { "" };
            println!("  {:<38} {:>16.4} {}{exact}", p.name, t.metrics[p.name], p.unit);
        }
        failed += t.checks.failed;
        traced.push(t);
    }
    println!("\n{failed} failed checks in all");
    if let Some(out) = flag(args, "--out") {
        let report = report(&ctx, seconds, &measured, &traced);
        std::fs::write(out, report + "\n").map_err(|e| format!("cannot write {out}: {e}"))?;
        println!("report written to {out}");
    }
    Ok(failed == 0)
}

/// The `--out` report: per workload, its end-to-end metrics and the
/// per-layer metrics its traced run measures.
fn report(ctx: &Ctx, seconds: f64, measured: &[Measured], traced: &[Traced]) -> String {
    let mut s = Serializer::new();
    let mut top = s.begin_map();
    top.entry("seed", &ctx.seed);
    top.entry("seconds", &seconds);
    top.entry_with("workloads", |ser| {
        let mut by_name = ser.begin_map();
        for ((w, m), t) in Workload::ALL.iter().zip(measured).zip(traced) {
            by_name.entry_with(w.name(), |ser| {
                let mut e = ser.begin_map();
                e.entry("ops", &m.ops.len());
                e.entry("attempted", &(m.checks.attempted + t.checks.attempted));
                e.entry("failed", &(m.checks.failed + t.checks.failed));
                e.entry_with("end_to_end", |ser| {
                    let mut inner = ser.begin_map();
                    for (name, value, unit) in end_to_end_rows(m) {
                        metric_entry(&mut inner, name, value, unit);
                    }
                    inner.end();
                });
                e.entry_with("per_layer", |ser| {
                    let mut inner = ser.begin_map();
                    for p in PER_LAYER.iter().filter(|p| p.home == w.name() || p.home == "*") {
                        metric_entry(&mut inner, p.name, t.metrics[p.name], p.unit);
                    }
                    inner.end();
                });
                e.end();
            });
        }
        by_name.end();
    });
    top.end();
    s.into_string()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run(rest),
        Some("all") => all(rest),
        Some("op") => ops::main(rest).map(|()| true),
        Some("compare") => compare::main(rest),
        Some("schema") => {
            print!("{}", metrics::benchmark_json());
            Ok(true)
        }
        _ => {
            Err("usage: ccr-benchmark <run|all|op|compare|schema> … (see benchmark/README.md)"
                .into())
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ccr-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::Tracer;

    #[test]
    fn the_same_seed_gives_the_same_zoo_texts_and_another_seed_gives_others() {
        let texts = |seed| layers::zoo_texts(seed, 50, &mut Tracer::new(false)).unwrap();
        assert_eq!(texts(1998), texts(1998));
        assert_ne!(texts(1998), texts(7));
    }

    #[test]
    fn the_same_seed_gives_the_same_simulated_stats() {
        let line =
            |seed| ops::dsm_sim_json(&layers::dsm_sim(seed, &mut Tracer::new(false)).unwrap());
        assert_eq!(line(3), line(3));
        assert_ne!(line(3), line(4));
    }

    #[test]
    fn a_result_line_has_exactly_the_four_keys() {
        let checks = workloads::Checks { attempted: 3, failed: 1 };
        let line = result_line(checks, &[("op_s", 1.25, "s")]);
        assert_eq!(
            line,
            r#"{"correct":false,"attempted":3,"failed":1,"metrics":{"op_s":{"value":1.25,"unit":"s"}}}"#
        );
    }
}
