//! The `ccr` front end against its own flag table (`src/bin/ccr/flags.rs`,
//! included here as a module so the rows themselves drive the tests):
//!
//! * a misuse matrix over every row — missing, malformed and out-of-range
//!   values, unknown flags, missing positionals and the rules between
//!   flags — each of which must exit 2 with a diagnosis on stderr, nothing
//!   on stdout, and never a panic (exit 101);
//! * a drift guard: every flag of the table is documented in the binary's
//!   `//!` header and listed by `--help` of each verb that takes it, and
//!   nothing is documented that the table lacks;
//! * `SearchObserver::new` is `SearchObserver::for_phase` with
//!   `Telemetry::off()`.

#[allow(dead_code)]
#[path = "../src/bin/ccr/flags.rs"]
mod flags;

use ccr_mc::search::{Budget, Search, SearchObserver, Telemetry};
use ccr_protocols::migratory::{migratory_refined, MigratoryOptions};
use ccr_runtime::asynch::{AsyncConfig, AsyncSystem};
use ccr_trace::RingSink;
use flags::{Kind, Verb, FLAGS, VERBS};
use std::collections::BTreeSet;
use std::path::Path;
use std::process::{Command, Output};

fn ccr(args: &[String]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ccr"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("run ccr")
}

/// `ccr <verb> <well-formed positionals>`, ready for flags to be appended.
/// The positionals need not exist: misuse is diagnosed before any file is
/// opened.
fn base(verb: Verb) -> Vec<String> {
    let row = verb.row();
    let mut argv: Vec<String> = row.name.split(' ').map(str::to_string).collect();
    argv.extend(row.positionals.iter().map(|p| match *p {
        "<spec.ccp>" => "specs/migratory.ccp".to_string(),
        other => format!("/nonexistent/{}", other.trim_matches(|c| c == '<' || c == '>')),
    }));
    argv
}

/// Asserts the misuse contract on one invocation.
fn assert_misuse(argv: &[String]) {
    let out = ccr(argv);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "panicked: ccr {argv:?}\n{stderr}");
    assert_eq!(out.status.code(), Some(2), "ccr {argv:?}\n{stderr}");
    assert!(out.stdout.is_empty(), "ccr {argv:?} wrote to stdout on misuse");
    let first = stderr.lines().next().unwrap_or("");
    assert!(first.starts_with("ccr:") || first.starts_with("usage:"), "ccr {argv:?}: {stderr}");
}

/// Values the row's kind must refuse.
fn bad_values(kind: Kind) -> Vec<String> {
    let words = |ws: &[&str]| ws.iter().map(|w| w.to_string()).collect::<Vec<_>>();
    match kind {
        Kind::Switch | Kind::Text => Vec::new(),
        Kind::Choice(_) => words(&["neither", ""]),
        Kind::Count(min, max) => {
            let mut bad = words(&["-1", "1.5", "many", "", "99999999999999999999999"]);
            if min > 0 {
                bad.push((min - 1).to_string());
            }
            if max < u64::MAX {
                bad.push((max + 1).to_string());
            }
            bad
        }
        Kind::Seconds(min) => {
            let mut bad = words(&["-1", "-0.5", "NaN", "inf", "-inf", "1e30", "soon", ""]);
            if min > 0.0 {
                bad.push((min / 2.0).to_string());
            }
            bad
        }
    }
}

#[test]
fn every_row_refuses_missing_malformed_and_out_of_range_values() {
    for verb in VERBS.iter().map(|r| r.verb) {
        for flag in FLAGS.iter().filter(|f| f.takes(verb) && f.kind != Kind::Switch) {
            let mut argv = base(verb);
            argv.push(flag.name.to_string());
            assert_misuse(&argv);
            for bad in bad_values(flag.kind) {
                let mut argv = base(verb);
                argv.extend([flag.name.to_string(), bad]);
                assert_misuse(&argv);
            }
        }
    }
}

#[test]
fn table_defaults_pass_their_own_check() {
    for verb in VERBS.iter().map(|r| r.verb) {
        let p = flags::parse(verb, &base(verb)[verb.row().name.split(' ').count()..])
            .unwrap_or_else(|e| panic!("{}: {e:?}", verb.row().name));
        for flag in FLAGS.iter().filter(|f| f.takes(verb)) {
            // Callers read every seconds flag without an `Option`.
            assert!(flag.default.is_some() || !matches!(flag.kind, Kind::Seconds(_)));
            if flag.default.is_none() {
                continue;
            }
            // Each accessor re-checks the default through the row's kind.
            match flag.kind {
                Kind::Count(..) => assert!(p.count(flag.name).is_some()),
                Kind::Seconds(min) => assert!(p.secs(flag.name).as_secs_f64() >= min),
                _ => assert!(p.text(flag.name).is_some()),
            }
        }
    }
}

#[test]
fn structural_misuse_and_the_rules_between_flags_exit_2() {
    let s = |words: &[&str]| words.iter().map(|w| w.to_string()).collect::<Vec<_>>();
    for verb in VERBS.iter().map(|r| r.verb) {
        let mut argv = base(verb);
        argv.push("--no-such-flag".to_string());
        assert_misuse(&argv);
        let mut argv = base(verb);
        argv.push("surplus".to_string());
        assert_misuse(&argv);
        if !verb.row().positionals.is_empty() {
            let words: Vec<String> = verb.row().name.split(' ').map(str::to_string).collect();
            assert_misuse(&words);
        }
        // A flag of another verb is refused by name, not taken silently.
        let foreign = FLAGS.iter().find(|f| !f.takes(verb) && f.kind == Kind::Switch).unwrap();
        let mut argv = base(verb);
        argv.push(foreign.name.to_string());
        assert_misuse(&argv);
    }
    assert_misuse(&[]);
    assert_misuse(&s(&["frobnicate", "specs/migratory.ccp"]));
    assert_misuse(&s(&["bench"]));
    assert_misuse(&s(&["verify", "--resume", "/tmp/r", "--spill-dir", "/tmp/s"]));
    assert_misuse(&s(&["verify", "--spill-dir", "/tmp/s", "--resume", "/tmp/r"]));
    for verb in ["fmt", "check", "refine", "dot", "table"] {
        assert_misuse(&s(&[verb, "specs/token.ccp", "--spill-dir", "/tmp/s"]));
        assert_misuse(&s(&[verb, "specs/token.ccp", "--crash-after-states", "5"]));
        assert_misuse(&s(&[verb, "--resume", "/tmp/r"]));
    }
    // Each spec verb takes the flags its own run reads and no other's: a
    // flag that used to be accepted and ignored is now refused by name.
    let run_dir = std::env::temp_dir().join(format!("ccr-cli-flags-{}", std::process::id()));
    let run_dir = run_dir.to_str().expect("utf-8 path");
    for foreign in [
        &["fmt", "specs/token.ccp", "--run-dir", run_dir, "--faults", "bogus", "--threads", "4"][..],
        &["check", "specs/token.ccp", "--metrics", "-"],
        &["refine", "specs/token.ccp", "--json"],
        &["dot", "specs/token.ccp", "-n", "3"],
        &["table", "specs/token.ccp", "-n", "1", "--faults", "bogus=1"],
        &["table", "specs/token.ccp", "-n", "1", "--fault-budget", "2"],
        &["table", "specs/token.ccp", "-n", "1", "--spill-bytes", "10"],
        &["verify", "specs/token.ccp", "--refined"],
    ] {
        assert_misuse(&s(foreign));
        let stderr = String::from_utf8_lossy(&ccr(&s(foreign)).stderr).into_owned();
        assert!(stderr.contains("is not a flag of `ccr "), "{foreign:?}: {stderr}");
    }
    assert!(!Path::new(run_dir).exists(), "a refused `fmt --run-dir` must create nothing");
    assert!(!flags::usage(Verb::Fmt).contains("--spill-dir"));
    assert_eq!(
        flags_in(&flags::usage(Verb::BenchDiff)),
        BTreeSet::from(["--help".to_string(), "-h".to_string()])
    );
    assert_misuse(&s(&["verify", "specs/token.ccp", "--crash-after-states", "5"]));
    assert_misuse(&s(&["verify", "specs/migratory.ccp", "--faults", "drop=2"]));
    assert_misuse(&s(&["verify", "specs/migratory.ccp", "--faults", "melt=0.1"]));
}

#[test]
fn the_formerly_panicking_seconds_are_diagnosed() {
    let s = |words: &[&str]| words.iter().map(|w| w.to_string()).collect::<Vec<_>>();
    for (argv, flag) in [
        (
            s(&["verify", "specs/migratory.ccp", "--progress-interval", "NaN"]),
            "--progress-interval",
        ),
        (
            s(&["verify", "specs/migratory.ccp", "--checkpoint-interval", "inf"]),
            "--checkpoint-interval",
        ),
        (
            s(&["verify", "specs/migratory.ccp", "--progress-interval", "1e30"]),
            "--progress-interval",
        ),
        (s(&["watch", "f", "--timeout", "inf"]), "--timeout"),
        (s(&["watch", "f", "--stale-timeout", "1e30"]), "--stale-timeout"),
    ] {
        assert_misuse(&argv);
        let stderr = String::from_utf8_lossy(&ccr(&argv).stderr).into_owned();
        assert!(stderr.starts_with(&format!("ccr: {flag}: ")), "{stderr}");
    }
}

#[test]
fn help_is_the_generated_usage_on_stdout_with_exit_0() {
    for row in VERBS {
        for help in ["--help", "-h"] {
            let mut argv: Vec<String> = row.name.split(' ').map(str::to_string).collect();
            argv.push(help.to_string());
            let out = ccr(&argv);
            assert_eq!(out.status.code(), Some(0), "ccr {argv:?}");
            assert!(out.stderr.is_empty(), "ccr {argv:?}");
            assert_eq!(String::from_utf8_lossy(&out.stdout), flags::usage(row.verb));
        }
    }
    let out = ccr(&["--help".to_string()]);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(String::from_utf8_lossy(&out.stdout), flags::global_usage());
}

/// The flag-shaped words of `text`: `--lower-case-words`, and the two
/// short flags.
fn flags_in(text: &str) -> BTreeSet<String> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .filter(|w| {
            let long = w.strip_prefix("--").is_some_and(|rest| {
                rest.starts_with(|c: char| c.is_ascii_lowercase())
                    && rest.chars().all(|c| c.is_ascii_lowercase() || c == '-')
            });
            long || *w == "-n" || *w == "-h"
        })
        .map(str::to_string)
        .collect()
}

#[test]
fn header_usage_and_table_list_the_same_flags() {
    let main_rs = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin/ccr/main.rs");
    let header: String = std::fs::read_to_string(main_rs)
        .expect("read main.rs")
        .lines()
        .take_while(|l| l.starts_with("//!"))
        .collect::<Vec<_>>()
        .join("\n");
    let documented = flags_in(&header);
    let mut table: BTreeSet<String> = FLAGS.iter().map(|f| f.name.to_string()).collect();
    for f in FLAGS {
        assert!(documented.contains(f.name), "{} is missing from the //! header", f.name);
        assert!(!f.help.is_empty(), "{} has no help line", f.name);
        assert_eq!(f.metavar.is_empty(), f.kind == Kind::Switch, "{}: metavar", f.name);
    }
    table.insert("-h".to_string());
    let undocumented: Vec<_> = documented.difference(&table).collect();
    assert!(
        undocumented.is_empty(),
        "the //! header names flags the table lacks: {undocumented:?}"
    );
    for row in VERBS {
        let listed = flags_in(&flags::usage(row.verb));
        for name in &table {
            let takes = FLAGS.iter().any(|f| f.name == name && f.takes(row.verb)) || name == "-h";
            assert_eq!(
                listed.contains(name),
                takes,
                "`ccr {} --help` and the table disagree on {name}",
                row.name
            );
        }
    }
    // One row per (flag, verb): a verb never sees two rows for one name.
    for row in VERBS {
        let mut seen = BTreeSet::new();
        for f in FLAGS.iter().filter(|f| f.takes(row.verb)) {
            assert!(seen.insert(f.name), "`ccr {}` has two rows for {}", row.name, f.name);
        }
    }
}

#[test]
fn new_is_for_phase_with_telemetry_off() {
    let refined = migratory_refined(&MigratoryOptions::default());
    let sys = AsyncSystem::new(&refined, 2, AsyncConfig::default());
    let search = Search { check_deadlock: true, trails: true, ..Search::default() };
    let run = |plain: bool| {
        let mut sink = RingSink::new(64);
        let report = {
            let mut obs = if plain {
                SearchObserver::new(&mut sink)
            } else {
                SearchObserver::for_phase(&mut sink, &Telemetry::off(), "x")
            };
            search.explore(&sys, &Budget::default(), None, &mut obs)
        };
        let events: Vec<String> = sink.into_events().iter().map(|e| e.to_json()).collect();
        (report.states, report.transitions, report.outcome, report.trail, events)
    };
    let (a, b) = (run(true), run(false));
    assert_eq!(a, b);
    // Telemetry off leaves nothing but the run's ending in the sink.
    assert_eq!(a.4.len(), 1, "{:?}", a.4);
    assert!(a.4[0].starts_with("{\"Outcome\""), "{:?}", a.4);
    // ... and with a disabled sink the sink stays empty.
    let mut null = ccr_trace::NullSink;
    let mut obs = SearchObserver::for_phase(&mut null, &Telemetry::off(), "x");
    let quiet = search.explore(&sys, &Budget::default(), None, &mut obs);
    assert_eq!((quiet.states, quiet.transitions), (a.0, a.1));
}
