//! `ccr timeline`: analyze a flight-recorder timeline.

use crate::flags::Parsed;
use ccr_metrics::jsonval::Json;
use ccr_metrics::timeseries::{sparkline, Analysis, Timeline};
use std::path::Path;
use std::process::ExitCode;

/// Human rendering of a timeline analysis: per-phase rate statistics
/// with sparklines, detected rate shifts, and stall diagnostics.
/// Shared by `ccr timeline` and the `## Timeline` report section.
pub fn render_analysis(an: &Analysis) {
    println!(
        "{} samples over {:.1}s at {}ms interval ({})",
        an.samples,
        an.duration_ms as f64 / 1e3,
        an.interval_ms,
        an.outcome.as_deref().unwrap_or("no end record")
    );
    for p in &an.phases {
        let spark = sparkline(&p.rates, 32);
        println!(
            "- {}: {} samples, {} states; {:.0}/s mean, {:.0}/s peak  {}",
            p.name, p.samples, p.states, p.mean_states_per_sec, p.peak_states_per_sec, spark
        );
        for sh in &p.shifts {
            println!(
                "  - rate shift at {:.1}s: {:.0}/s -> {:.0}/s",
                sh.t_ms as f64 / 1e3,
                sh.before,
                sh.after
            );
        }
    }
    for st in &an.stalls {
        println!(
            "- stall at {:.1}s: no progress for {} intervals at {} states \
             (frontier {}, queues {:?})",
            st.t_ms as f64 / 1e3,
            st.intervals,
            st.states,
            st.frontier,
            st.queues
        );
        for (w, span, s) in &st.workers {
            println!("  - worker {w}: {span} {:.0}%", s * 100.0);
        }
    }
    if let Some(rss) = an.peak_rss_bytes {
        println!("- peak rss: {:.1} MiB", rss as f64 / (1024.0 * 1024.0));
    }
    if an.spill_bytes > 0 {
        println!(
            "- spill: {:.1} MiB appended, {:.1} MiB compacted",
            an.spill_bytes as f64 / (1024.0 * 1024.0),
            an.compacted_bytes as f64 / (1024.0 * 1024.0)
        );
    }
}

/// `ccr timeline <run-dir|timeline.jsonl> [--json]`: parses and
/// validates a flight-recorder timeline, runs phase/rate analysis,
/// writes the machine summary next to the source as `timeline.json`
/// (self-validated with the shipped `jsonval` parser), and prints the
/// human summary (or the JSON document with `--json`).
pub fn run(p: &Parsed) -> Result<ExitCode, String> {
    let target = Path::new(&p.positionals[0]);
    let path = if target.is_dir() { target.join("timeline.jsonl") } else { target.to_path_buf() };
    let timeline = Timeline::read(&path)?;
    timeline.validate().map_err(|e| format!("{}: {e}", path.display()))?;
    let analysis = timeline.analyze();
    let doc = analysis.to_json();
    Json::parse(&doc).map_err(|e| format!("emitted JSON failed validation: {e}"))?;
    let out = path.with_file_name("timeline.json");
    std::fs::write(&out, format!("{doc}\n"))
        .map_err(|e| format!("write {}: {e}", out.display()))?;
    if p.on("--json") {
        println!("{doc}");
    } else {
        println!("# Timeline: {}", analysis.spec);
        println!();
        render_analysis(&analysis);
        println!("\nSummary written to {}", out.display());
    }
    Ok(ExitCode::SUCCESS)
}
