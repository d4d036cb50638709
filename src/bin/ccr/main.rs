//! `ccr` — the command-line front end for the refinement pipeline.
//!
//! ```text
//! ccr fmt     <spec.ccp>                  canonical formatting
//! ccr check   <spec.ccp>                  validate the §2.4 restrictions
//! ccr refine  <spec.ccp> [--no-opt]       show pairs, costs, automata sizes
//! ccr dot     <spec.ccp> [--refined]      Graphviz to stdout
//! ccr verify  <spec.ccp> [-n N] [--budget S] [--no-opt] [--threads T]
//!             [--symmetry on|off|auto] [--trace FILE] [--progress]
//!             [--json] [--faults SPEC] [--seed N] [--fault-budget F]
//!             [--spill-dir DIR] [--spill-bytes B]
//!             [--checkpoint-interval SECS]
//!                                         full pipeline: reachability both
//!                                         levels, safety (deadlock),
//!                                         Equation 1, forward progress,
//!                                         and (opt-in) fault tolerance
//! ccr verify  --resume DIR [flags]        restart a `--spill-dir DIR` run
//!                                         from its last checkpoint; the
//!                                         spec and engine shape replay
//!                                         from DIR/meta.json
//! ccr table   <spec.ccp> [-n N..] [--threads T] [--symmetry on|off|auto]
//!             [--trace FILE] [--progress] [--json]
//!                                         per-N reachability comparison
//! ccr watch   <status-file> [--once] [--interval SECS] [--timeout SECS]
//!             [--stale-timeout SECS]      tail a live run's status file
//!                                         (fails if the run died)
//! ccr report  <run-dir> [--json]          merge a run's trace, metrics,
//!                                         profile, status and timeline
//!                                         into one Markdown (or JSON)
//!                                         report
//! ccr timeline <run-dir|timeline.jsonl> [--json]
//!                                         analyze a flight-recorder
//!                                         timeline: phase rates, rate
//!                                         shifts, stalls, sparklines
//! ccr fuzz    [--seed S] [--count N] [-n N] [--budget S]
//!             [--fault-budget F] [--shrink] [--corpus DIR]
//!             [--inject-broken] [--json] [--metrics PATH|-]
//!             [--metrics-format json|prometheus]
//!                                         differential derivation fuzzing
//!                                         over the seeded spec zoo
//! ccr bench diff <old.json> <new.json>   compare two --metrics snapshots:
//!                                         every deterministic metric
//!                                         must be equal (timings are
//!                                         `ccr-benchmark compare`'s)
//! ccr <verb> --help                       the verb's generated usage
//!                                         (also -h; `ccr --help` lists
//!                                         the verbs)
//! ```
//!
//! Every flag is a row of the table in `flags.rs`: its value kind and
//! range, its default, the verbs that take it and its help line. The one
//! parser over that table generates `--help` and every misuse message
//! (exit code 2); `tests/cli_flags.rs` checks this header against it.
//!
//! `--threads T` (verify/table) has `T` worker threads generate and
//! encode successors ahead of the sweep, for the explorations and the
//! checks riding them — see `docs/parallel_checking.md`. The sweep
//! itself stays on one thread, so every count, outcome, trail, witness
//! and checkpoint is the one a run without the flag reports. Only under
//! `--spill-dir`/`--resume`, where nothing rides, do Equation 1 and the
//! progress check sweep alone, Equation 1 without workers.
//!
//! `--symmetry on|off|auto` (verify/table, default `auto`) dedupes
//! permutation-equivalent global states — the remotes are identical, so
//! states differing only in which remote plays which role form one orbit
//! and only a canonical representative is stored (see
//! `docs/symmetry.md`). `auto` turns the reduction on for `verify`
//! unless a fault flag is present (fault phases track per-link fault
//! ledgers that break the symmetry, so `auto` falls back to `off` and
//! says so), and leaves `table` unreduced for faithful Table 3 counts.
//! Specs that fail the scalarset check — order-sensitive primitives
//! such as `first(mask)`, as in `invalidate.ccp`/`update.ccp` — are
//! never reduced, even under `on`: the reduction would be unsound.
//! Equation 1 rides the reduced sweep too, with the concrete verdict:
//! the abstraction function commutes with renaming the remotes.
//! Counterexample trails stay concrete executions and replay on the
//! unreduced engine.
//!
//! Observability flags (verify/table):
//!
//! * `--trace FILE` — write a JSONL event stream to FILE: each search's
//!   `Outcome` and, on a violation, the full counterexample replayed as
//!   `Step`/`Send`/`Recv`/... events before it (the schema is documented
//!   in `docs/observability.md`). The stream is deterministic: the same
//!   bytes at every `--progress-interval` and `--threads`.
//! * `--progress` — print each flight-recorder sample (elapsed ms since
//!   the run began, states, frontier, store KB, rate) to stderr.
//! * `--json` — emit the reports as a single machine-readable JSON
//!   document on stdout instead of the human tables (suitable for
//!   `docs/results/`).
//! * `--metrics PATH|-` — collect pipeline metrics (counters, gauges,
//!   histograms, per-phase wall times) in the `ccr-metrics` registry and
//!   write the snapshot to PATH (`-` = stdout, as the final line). With
//!   the flag absent the registry is null and the pipeline records
//!   nothing.
//! * `--metrics-format json|prometheus` — snapshot encoding (default
//!   `json`; `prometheus` writes text exposition format 0.0.4).
//! * `--profile PATH|-` — record per-worker span timelines
//!   (compute/encode/insert/ship/drain/barrier-wait/progress) and write them as
//!   folded stacks to PATH (`-` = stdout), plus an attribution summary
//!   (human output and the `profile` key of the JSON report). See
//!   docs/observability.md, "Profiling and live runs".
//! * `--progress-interval SECS` — the flight recorder's wall-clock
//!   sampling interval for `--progress`, `--status` and `--timeline`
//!   (fractional seconds, default 1.0).
//! * `--status PATH` — maintain a live status file (atomic-rename JSON)
//!   that `ccr watch PATH` can follow from another process.
//! * `--timeline PATH` — flight recorder: append one delta-encoded
//!   JSONL sample per sampling interval (rates, frontier, store and
//!   spill bytes, per-worker span shares, checkpoint seq, process RSS)
//!   to PATH, for `ccr timeline` analysis. Off by default; when off the
//!   run is byte-identical to one without the flag.
//! * `--stall-after K` — stall watchdog threshold: with `--timeline`,
//!   emit a stall diagnostic record (per-worker span states, chunk
//!   queue and frontier depths) after K sampling intervals with no
//!   forward progress (default 5).
//! * `--inject-stall-ms MS` (verify) — fault-injection test hook: with
//!   `--threads`, each worker sleeps MS milliseconds once before its
//!   first chunk, so CI can provoke the stall watchdog
//!   deterministically.
//! * `--run-dir DIR` — shorthand: write trace.jsonl, metrics.json,
//!   profile.folded, status.json, timeline.jsonl and verify.json under
//!   DIR (creating it), ready for `ccr report DIR`. Explicit flags win
//!   over the shorthand paths.
//! * `--async` (verify) — async-level-only mode: skip the rendezvous
//!   level, Equation 1, progress and fault phases; explore only the
//!   refined asynchronous level. This is the profiling loop: one
//!   phase, one state space.
//!
//! Persistence flags (verify only, see `docs/persistence.md`):
//!
//! * `--spill-dir DIR` — checkpoint the two reachability sweeps into
//!   per-phase subdirectories of DIR (`rendezvous/`, `async/`): an
//!   append-only state log (recovery re-reads it; there is no index
//!   file), a writer lock, and an atomically renamed manifest, plus a `meta.json` recording the
//!   engine shape for `--resume`. A killed run restarts from its last
//!   checkpoint and finishes with byte-identical counts.
//! * `--spill-bytes B` — in-memory byte budget for each sweep's visited
//!   set; past it, state payloads are evicted to the log and re-read on
//!   demand (0, the default, keeps everything in RAM: crash-safe but
//!   not RAM-capped).
//! * `--checkpoint-interval SECS` — wall-clock checkpoint cadence
//!   (default 1.0; 0 checkpoints at every opportunity).
//! * `--resume DIR` — resume a `--spill-dir DIR` run. Takes the place
//!   of the spec positional: the spec path and engine shape come from
//!   `DIR/meta.json` (flags after `--resume` still override). Phases
//!   whose manifest is terminal are restored without re-searching;
//!   corrupt or truncated-below-manifest logs fail with a diagnostic.
//! * `--crash-after-states N` — test hook for the crash-recovery
//!   harness: abort the process (as kill -9) after N newly inserted
//!   states.
//!
//! Fault-injection flags (verify only, see `docs/fault_injection.md`):
//!
//! * `--faults SPEC` — after the clean pipeline passes, run seeded walks
//!   of the fault closure, the rates deciding which faults a walk takes.
//!   SPEC is comma-separated `kind=rate` pairs, e.g. `drop=0.05,dup=0.02`;
//!   kinds are `drop`, `dup`, `reorder`, `delay`. A failing walk prints
//!   its trail.
//! * `--seed N` — base seed for the fault walks (default 0); the same
//!   spec + seed reproduces the same faults byte for byte.
//! * `--fault-budget F` — model-check the fault closure: prove safety and
//!   progress under every placement of up to `F` drop/duplicate faults.
//!
//! Specs are written in the textual form of `ccr_core::text` — see the
//! bundled files under `specs/`.

use ccr_core::dot::{dot_automaton, dot_spec};
use ccr_core::process::ProtocolSpec;
use ccr_core::refine::{refine, RefineOptions, RefinedProtocol, ReqRepMode};
use ccr_core::text::{parse_validated, to_text};
use ccr_metrics::Registry;
use flags::{Misuse, Parsed, Verb};
use std::process::ExitCode;

/// Writes to standard output for the `print!`/`println!` of this binary.
/// A reader that went away (`ccr report <run-dir> | head -1`) is not an
/// error of ours: the process ends quietly, as a tool killed by SIGPIPE
/// would, instead of panicking the way the standard macros do.
fn print_or_end(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("failed printing to stdout: {e}");
    }
}

/// Shadows the standard macro for every module below: same output,
/// closed-pipe handling of [`print_or_end`].
macro_rules! print {
    ($($arg:tt)*) => { crate::print_or_end(format_args!($($arg)*)) };
}

/// Shadows the standard macro for every module below, like [`print!`].
macro_rules! println {
    () => { crate::print_or_end(format_args!("\n")) };
    ($($arg:tt)*) => { crate::print_or_end(format_args!("{}\n", format_args!($($arg)*))) };
}

mod flags;
mod fuzz;
mod report;
mod table;
mod telemetry;
mod timeline;
mod verify;
mod watch;

/// A misuse that is a rule between flags rather than a row of the table.
fn misuse(msg: &str) -> ExitCode {
    eprintln!("ccr: {msg}");
    ExitCode::from(2)
}

/// Worker count handed to the searches: 0 — `--threads` absent —
/// generates successors inline. Any explicit `T`, including 1, moves that
/// to `T` worker threads: a 1-worker run is how the hand-off overhead
/// (ship/drain/barrier-wait spans) is measured against the inline
/// baseline.
fn engine_threads(p: &Parsed) -> usize {
    p.count("--threads").unwrap_or(0) as usize
}

/// Refines `spec` as `--no-opt` says (timed as the `refine` phase),
/// printing the failure when there is one.
fn refined(
    p: &Parsed,
    spec: &ProtocolSpec,
    registry: &Registry,
) -> Result<RefinedProtocol, ExitCode> {
    let _p = registry.phase("refine");
    let reqrep = if p.on("--no-opt") { ReqRepMode::Off } else { ReqRepMode::Auto };
    refine(spec, &RefineOptions { reqrep }).map_err(|e| {
        eprintln!("ccr: refinement failed: {e}");
        ExitCode::FAILURE
    })
}

/// The six verbs that take a spec: read and validate the spec, then run
/// the verb. Each verb's flags are the rows of the table that name it;
/// what is left here are the rules between `verify`'s persistence flags.
fn spec_verb(mut p: Parsed) -> Result<ExitCode, ExitCode> {
    if p.verb == Verb::Verify {
        let persists = p.given("--resume") || p.given("--spill-dir");
        if p.given("--resume") && p.given("--spill-dir") {
            return Err(misuse(
                "--spill-dir conflicts with --resume (the resume directory is the spill directory)",
            ));
        }
        if p.given("--crash-after-states") && !persists {
            return Err(misuse(
                "--crash-after-states needs --spill-dir (it exercises the crash-recovery harness)",
            ));
        }
        if let Some(dir) = p.text("--resume") {
            verify::replay_meta(&mut p, &dir)?;
        }
    }
    let p = &p;
    // One registry for the whole invocation: real when `--metrics` asked
    // for a snapshot, null (every record a no-op) otherwise. Only the
    // verbs that search take the artifact flags.
    let mut registry = Registry::disabled();
    if p.takes("--run-dir") {
        if let Some(dir) = p.text("--run-dir") {
            std::fs::create_dir_all(&dir).map_err(|e| telemetry::io_failure("create", &dir, e))?;
        }
        if telemetry::artifact(p, "--metrics", "metrics.json").is_some() {
            registry = Registry::new();
        }
    }
    let parse_phase = registry.phase("parse");
    let file = &p.positionals[0];
    let src = std::fs::read_to_string(file).map_err(|e| telemetry::io_failure("read", file, e))?;
    let spec = parse_validated(&src).map_err(|e| {
        eprintln!("ccr: {file}: {e}");
        ExitCode::FAILURE
    })?;
    drop(parse_phase);
    match p.verb {
        Verb::Fmt => print!("{}", to_text(&spec)),
        // parse_validated already ran the checks.
        Verb::Check => println!(
            "ok: {} ({} home states, {} remote states, {} messages)",
            spec.name,
            spec.home.states.len(),
            spec.remote.states.len(),
            spec.msgs.len()
        ),
        Verb::Refine => {
            let r = refined(p, &spec, &registry)?;
            println!("protocol {}", spec.name);
            if r.pairs.is_empty() {
                println!("  request/reply pairs: none");
            }
            for p in &r.pairs {
                println!(
                    "  pair: {} answered by {} ({:?})",
                    spec.msg_name(p.req),
                    spec.msg_name(p.repl),
                    p.direction
                );
            }
            for (name, a) in [("home", &r.home), ("remote", &r.remote)] {
                println!(
                    "  {name} automaton: {} states ({} transient), {} edges",
                    a.states.len(),
                    a.transient_count(),
                    a.edges.len()
                );
            }
            println!(
                "  static cost of one round of every rendezvous: {} messages",
                r.total_static_cost()
            );
        }
        Verb::Dot if p.on("--refined") => {
            let r = refined(p, &spec, &registry)?;
            print!("{}", dot_automaton(&r.home, &format!("{} home (refined)", spec.name)));
            println!();
            print!("{}", dot_automaton(&r.remote, &format!("{} remote (refined)", spec.name)));
        }
        Verb::Dot => print!("{}", dot_spec(&spec)),
        Verb::Verify => return verify::run(p, &spec, registry),
        Verb::Table => return table::run(p, &spec, registry),
        _ => unreachable!("not a spec verb"),
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((verb, rest)) = flags::verb_of(&argv) else {
        if matches!(argv.first().map(String::as_str), Some("--help" | "-h")) {
            print!("{}", flags::global_usage());
            return ExitCode::SUCCESS;
        }
        if let Some(word) = argv.first() {
            eprintln!("ccr: unknown verb `{word}`");
        }
        eprint!("{}", flags::global_usage());
        return ExitCode::from(2);
    };
    let p = match flags::parse(verb, rest) {
        Ok(p) => p,
        Err(Misuse::Help) => {
            print!("{}", flags::usage(verb));
            return ExitCode::SUCCESS;
        }
        Err(Misuse::Error(msg)) => {
            let name = verb.row().name;
            eprintln!("ccr: {msg}\n     (`ccr {name} --help` lists its flags)");
            return ExitCode::from(2);
        }
    };
    match verb {
        Verb::Watch => watch::run(&p),
        Verb::Report | Verb::Timeline | Verb::Fuzz => {
            let done = match verb {
                Verb::Report => report::run(&p),
                Verb::Timeline => timeline::run(&p),
                _ => fuzz::run(&p),
            };
            // These verbs report a failure as text: `ccr: <verb>: <why>`.
            done.unwrap_or_else(|why| {
                eprintln!("ccr: {}: {why}", verb.row().name);
                ExitCode::FAILURE
            })
        }
        Verb::BenchDiff => ccr_metrics::diff::run(&p.positionals[0], &p.positionals[1]),
        _ => spec_verb(p).unwrap_or_else(|code| code),
    }
}
