//! `ccr watch`: follow a live run's status file.

use crate::flags::Parsed;
use ccr_metrics::status::RunStatus;
use ccr_metrics::timeseries::sparkline;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Renders one status snapshot as a watch line.
pub fn render_status(st: &RunStatus) -> String {
    let eta = match st.eta_ms {
        Some(ms) => format!("{:.1}s", ms as f64 / 1e3),
        None => "-".to_string(),
    };
    let depth = st.depth.map(|d| d.to_string()).unwrap_or_else(|| "-".to_string());
    let spans = if st.spans.is_empty() {
        String::new()
    } else {
        let total: f64 = st.spans.iter().map(|(_, s)| s).sum();
        let cells: Vec<String> = st
            .spans
            .iter()
            .map(|(name, secs)| format!("{name} {:.0}%", secs * 100.0 / total.max(1e-12)))
            .collect();
        format!(" | {}", cells.join(" "))
    };
    format!(
        "[{:>7} ms] {} {}: {} states, {} transitions, frontier {}, depth {}, \
         {:.0} st/s, {} KB, eta {}{}{}",
        st.elapsed_ms,
        st.spec,
        st.phase,
        st.states,
        st.transitions,
        st.frontier,
        depth,
        st.states_per_sec,
        st.store_bytes / 1024,
        eta,
        spans,
        if st.finished {
            format!(" | finished: {}", st.outcome.as_deref().unwrap_or("?"))
        } else {
            String::new()
        }
    )
}

/// Age of a file's last modification, when the filesystem can tell.
fn mtime_age(path: &str) -> Option<Duration> {
    std::fs::metadata(path).ok()?.modified().ok()?.elapsed().ok()
}

/// Whether the process that wrote a status snapshot is still alive
/// (`/proc/<pid>` present). `None` when the snapshot carries no pid or
/// procfs is unavailable — the caller falls back to mtime staleness.
fn writer_alive(st: &RunStatus) -> Option<bool> {
    let pid = st.pid?;
    let proc_dir = format!("/proc/{pid}");
    Path::new(&proc_dir).exists().then_some(true).or(Some(false))
}

/// `ccr watch <status-file> [--once] [--interval SECS] [--timeout SECS]
/// [--stale-timeout SECS]`: tails a live status file (atomic-rename
/// JSON written by `--status`/`--run-dir`), printing a line — with a
/// sparkline of the recent exploration-rate history — whenever the
/// snapshot advances, until the run reports `finished` (or immediately
/// with `--once`). A watcher started before the run is a normal race,
/// not an error: the file is polled until the first snapshot appears,
/// and only a `--timeout` (default 30 s) with no snapshot at all fails
/// the command.
///
/// A run that *died* — snapshot not `finished`, `seq` frozen, and the
/// writing pid gone (or, lacking a pid, the file mtime stale) beyond
/// `--stale-timeout` (default 30 s) — fails the watch with a diagnostic
/// instead of polling forever.
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
        match RunStatus::read(Path::new(path)) {
            Ok(st) => {
                seen_any = true;
                if st.seq != last_seq {
                    rate_history.push(st.states_per_sec);
                    let spark = sparkline(&rate_history, 24);
                    if spark.chars().count() > 1 {
                        println!("{}  {spark}", render_status(&st));
                    } else {
                        println!("{}", render_status(&st));
                    }
                    last_seq = st.seq;
                    last_advance = Instant::now();
                }
                if once || st.finished {
                    return ExitCode::SUCCESS;
                }
                // Dead-run detection: the snapshot stopped advancing and
                // the writer is provably gone (pid vanished) or silent
                // past the staleness threshold. A *stalled but alive*
                // run keeps bumping `seq` (status writes ride the
                // heartbeat, not forward progress), so this fires only
                // when the process truly died between snapshots.
                if last_advance.elapsed() > stale_timeout {
                    let dead = match writer_alive(&st) {
                        Some(alive) => !alive,
                        None => mtime_age(path).is_some_and(|age| age > stale_timeout),
                    };
                    if dead {
                        eprintln!(
                            "ccr: watch {path}: run died without finished snapshot \
                             (seq {} frozen for {:.0}s{})",
                            st.seq,
                            last_advance.elapsed().as_secs_f64(),
                            match st.pid {
                                Some(pid) => format!(", pid {pid} gone"),
                                None => ", file stale".to_string(),
                            }
                        );
                        return ExitCode::FAILURE;
                    }
                }
            }
            // Absent, mid-rename, or mid-write snapshots are all normal
            // while the watched run is alive; the timeout only gates the
            // wait for the *first* snapshot.
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
