//! `ccr watch`: follow a live run's status file.

use crate::flags::Parsed;
use ccr_metrics::jsonval::Json;
use ccr_metrics::timeseries::{sparkline, Status};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// Renders one status document as a watch line.
pub fn render_status(st: &Status) -> String {
    let s = &st.sample;
    let eta = match st.eta_ms {
        Some(ms) => format!("{:.1}s", ms as f64 / 1e3),
        None => "-".to_string(),
    };
    let spans = if s.spans.is_empty() {
        String::new()
    } else {
        let cells: Vec<String> =
            s.spans.iter().map(|(name, share)| format!("{name} {:.0}%", share * 100.0)).collect();
        format!(" | {}", cells.join(" "))
    };
    format!(
        "[{:>7} ms] {} {}: {} states, {} transitions, frontier {}, \
         {:.0} st/s, {} KB, eta {}{}{}",
        s.t_ms,
        st.spec,
        st.phase,
        s.states,
        s.transitions,
        s.frontier,
        s.states_per_sec,
        s.store_bytes / 1024,
        eta,
        spans,
        match &st.outcome {
            Some(outcome) => format!(" | finished: {outcome}"),
            None => String::new(),
        }
    )
}

/// `ccr watch <status-file> [--once] [--interval SECS] [--timeout SECS]
/// [--stale-timeout SECS]`: tails a live status file (the recorder's
/// latest sample, written by `--status`/`--run-dir`), printing a line — with a
/// sparkline of the recent exploration-rate history — whenever the
/// snapshot advances, until the run reports `finished` (or immediately
/// with `--once`). A watcher started before the run is a normal race,
/// not an error: the file is polled until the first snapshot appears,
/// and only a `--timeout` (default 30 s) with no snapshot at all fails
/// the command. A document this build cannot read (another version)
/// fails it at once.
///
/// A run that *died* — snapshot not `finished`, `seq` frozen, and the
/// writing pid gone beyond `--stale-timeout` (default 30 s) — fails the
/// watch with a diagnostic instead of polling forever.
pub fn run(p: &Parsed) -> ExitCode {
    let path = p.positionals[0].as_str();
    let once = p.on("--once");
    let interval = p.secs("--interval");
    let timeout = p.secs("--timeout");
    let stale_timeout = p.secs("--stale-timeout");
    let started = Instant::now();
    let mut seen_any = false;
    let mut last_seq = 0u64;
    let mut last_advance = Instant::now();
    let mut rate_history: Vec<f64> = Vec::new();
    loop {
        // Absent or half-written (by a writer that does not rename) is
        // normal while the watched run is alive; the timeout only gates
        // the wait for the *first* snapshot. A whole document this build
        // cannot read will not get better.
        let read = std::fs::read_to_string(path).map_err(|e| e.to_string());
        match read.and_then(|text| Json::parse(&text)) {
            Ok(doc) => {
                let st = match Status::from_json(&doc) {
                    Ok(st) => st,
                    Err(e) => {
                        eprintln!("ccr: watch {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                seen_any = true;
                if st.seq != last_seq {
                    rate_history.push(st.sample.states_per_sec);
                    let spark = sparkline(&rate_history, 24);
                    if spark.chars().count() > 1 {
                        println!("{}  {spark}", render_status(&st));
                    } else {
                        println!("{}", render_status(&st));
                    }
                    last_seq = st.seq;
                    last_advance = Instant::now();
                }
                if once || st.outcome.is_some() {
                    return ExitCode::SUCCESS;
                }
                // Dead-run detection: the snapshot stopped advancing and
                // its writer is gone. A *stalled but alive* run keeps
                // bumping `seq` (status writes ride the heartbeat, not
                // forward progress), so this fires only when the process
                // truly died between snapshots.
                if last_advance.elapsed() > stale_timeout
                    && !Path::new(&format!("/proc/{}", st.pid)).exists()
                {
                    eprintln!(
                        "ccr: watch {path}: run died without finished snapshot \
                         (seq {} frozen for {:.0}s, pid {} gone)",
                        st.seq,
                        last_advance.elapsed().as_secs_f64(),
                        st.pid
                    );
                    return ExitCode::FAILURE;
                }
            }
            Err(e) => {
                if !seen_any && started.elapsed() > timeout {
                    eprintln!(
                        "ccr: watch {path}: no status snapshot after {:.0}s: {e}",
                        timeout.as_secs_f64()
                    );
                    return ExitCode::FAILURE;
                }
            }
        }
        std::thread::sleep(interval);
    }
}
