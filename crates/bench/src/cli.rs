//! Shared command-line parsing for the report binaries, so every
//! `--trace`/`--seed`/`--threads` flag behaves the same across `table3`,
//! `scaling`, `messages`, `buffers`, and `mc_perf`.

use ccr_trace::{JsonlSink, NullSink, TraceSink};

/// `--trace <file>` from the command line, as a boxed sink (`NullSink`
/// when absent).
pub fn sink_from_args() -> Box<dyn TraceSink> {
    let args: Vec<String> = std::env::args().collect();
    match args.iter().position(|a| a == "--trace") {
        Some(i) => {
            let path = args.get(i + 1).unwrap_or_else(|| {
                eprintln!("--trace requires a file argument");
                std::process::exit(2);
            });
            Box::new(JsonlSink::create(path).unwrap_or_else(|e| {
                eprintln!("cannot create {path}: {e}");
                std::process::exit(2);
            }))
        }
        None => Box::new(NullSink),
    }
}

/// `--seed <N>` from the command line (0 when absent: the canonical run).
pub fn seed_from_args() -> u64 {
    let args: Vec<String> = std::env::args().collect();
    match args.iter().position(|a| a == "--seed") {
        Some(i) => args.get(i + 1).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
            eprintln!("--seed requires an integer argument");
            std::process::exit(2);
        }),
        None => 0,
    }
}

/// `--threads <N>` from the command line, as [`ccr_mc::search::Search`]
/// takes it: 0 when absent (successors generated inline, exactly as
/// before the flag existed), otherwise by `N >= 1` worker threads.
/// Every run reports the same either way, so tables stay comparable
/// across thread counts.
pub fn threads_from_args() -> usize {
    let args: Vec<String> = std::env::args().collect();
    match args.iter().position(|a| a == "--threads") {
        Some(i) => {
            args.get(i + 1).and_then(|s| s.parse().ok()).filter(|&t: &usize| t >= 1).unwrap_or_else(
                || {
                    eprintln!("--threads requires an integer argument >= 1");
                    std::process::exit(2);
                },
            )
        }
        None => 0,
    }
}
