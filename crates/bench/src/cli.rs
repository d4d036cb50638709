//! Shared command-line parsing for the report binaries, so every
//! `--trace`/`--seed`/`--threads` flag behaves the same across `table3`,
//! `scaling`, `messages` and `buffers`.

use ccr_trace::{JsonlSink, NullSink, TraceSink};

/// The word after `flag` on the command line, `None` when the flag is
/// absent. A flag given last, without its value, is misuse.
fn value_of(flag: &str) -> Option<String> {
    let mut args = std::env::args().skip_while(|a| a != flag);
    args.next()?;
    Some(args.next().unwrap_or_else(|| misuse(&format!("{flag} requires an argument"))))
}

/// Ends the process the way every report binary diagnoses its flags.
fn misuse(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// `--trace <file>` from the command line, as a boxed sink (`NullSink`
/// when absent).
pub fn sink_from_args() -> Box<dyn TraceSink> {
    match value_of("--trace") {
        Some(path) => Box::new(
            JsonlSink::create(&path)
                .unwrap_or_else(|e| misuse(&format!("cannot create {path}: {e}"))),
        ),
        None => Box::new(NullSink),
    }
}

/// Ends a run traced through [`sink_from_args`]: flushes the sink, and
/// if a write to the `--trace` file failed on the way, fails the process
/// (exit 1) naming the file, as `ccr` does. Call it once every table is
/// printed.
pub fn finish_trace(sink: &mut dyn TraceSink) {
    sink.flush();
    if let (Some(path), Some(e)) = (value_of("--trace"), sink.take_error()) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }
}

/// `--seed <N>` from the command line (0 when absent: the canonical run).
pub fn seed_from_args() -> u64 {
    value_of("--seed")
        .map_or(0, |s| s.parse().unwrap_or_else(|_| misuse("--seed requires an integer argument")))
}

/// `--threads <N>` from the command line, as [`ccr_mc::search::Search`]
/// takes it: 0 when absent (successors generated inline, exactly as
/// before the flag existed), otherwise by `N >= 1` worker threads.
/// Every run reports the same either way, so tables stay comparable
/// across thread counts.
pub fn threads_from_args() -> usize {
    value_of("--threads").map_or(0, |s| {
        s.parse()
            .ok()
            .filter(|&t| t >= 1)
            .unwrap_or_else(|| misuse("--threads requires an integer argument >= 1"))
    })
}
