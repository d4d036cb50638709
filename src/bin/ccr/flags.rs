//! The one flag table of the `ccr` binary and the one parser over it.
//!
//! Every flag any verb takes is a row of [`FLAGS`]: its name, the kind
//! of value it takes (with the range that kind is checked against), its
//! default, the verbs that accept it and one help line. [`parse`] is the
//! only loop over `argv`; [`usage`] and every misuse message are
//! generated from the rows, so neither can drift from what is accepted.
//! `tests/cli_flags.rs` includes this file to drive a misuse matrix over
//! the rows and to check the binary's `//!` header against them.
//!
//! Exit codes, fixed here for every verb: 0 success (and `--help`), 1 the
//! run failed (a property does not hold, an artifact cannot be read or
//! written), 2 misuse — a diagnosis starting `ccr:` on stderr, nothing
//! on stdout, nothing run.

use std::time::Duration;

/// The verbs of the binary, in the order `ccr --help` lists them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verb {
    Fmt,
    Check,
    Refine,
    Dot,
    Verify,
    Table,
    Watch,
    Report,
    Timeline,
    Fuzz,
    BenchDiff,
}

impl Verb {
    const fn bit(self) -> u16 {
        1 << self as u16
    }

    /// The row of [`VERBS`] describing this verb.
    pub fn row(self) -> &'static VerbRow {
        VERBS.iter().find(|r| r.verb == self).expect("every verb has a row")
    }
}

/// One verb: the words that select it, its positionals, one help line.
pub struct VerbRow {
    pub verb: Verb,
    pub name: &'static str,
    pub positionals: &'static [&'static str],
    pub help: &'static str,
}

#[rustfmt::skip]
pub const VERBS: &[VerbRow] = &[
    VerbRow { verb: Verb::Fmt, name: "fmt", positionals: &["<spec.ccp>"],
        help: "canonical formatting" },
    VerbRow { verb: Verb::Check, name: "check", positionals: &["<spec.ccp>"],
        help: "validate the §2.4 restrictions" },
    VerbRow { verb: Verb::Refine, name: "refine", positionals: &["<spec.ccp>"],
        help: "show request/reply pairs, static costs and automata sizes" },
    VerbRow { verb: Verb::Dot, name: "dot", positionals: &["<spec.ccp>"],
        help: "Graphviz of the spec (or, with --refined, of the refined automata)" },
    VerbRow { verb: Verb::Verify, name: "verify", positionals: &["<spec.ccp>"],
        help: "full pipeline: reachability at both levels, deadlock, Equation 1, progress, faults" },
    VerbRow { verb: Verb::Table, name: "table", positionals: &["<spec.ccp>"],
        help: "per-N reachability comparison (the paper's Table 3)" },
    VerbRow { verb: Verb::Watch, name: "watch", positionals: &["<status-file>"],
        help: "tail a live run's status file (fails if the run died)" },
    VerbRow { verb: Verb::Report, name: "report", positionals: &["<run-dir>"],
        help: "merge a run's artifacts into one Markdown (or JSON) report" },
    VerbRow { verb: Verb::Timeline, name: "timeline", positionals: &["<run-dir|timeline.jsonl>"],
        help: "analyze a flight-recorder timeline: phase rates, rate shifts, stalls" },
    VerbRow { verb: Verb::Fuzz, name: "fuzz", positionals: &[],
        help: "differential derivation fuzzing over the seeded spec zoo" },
    VerbRow { verb: Verb::BenchDiff, name: "bench diff", positionals: &["<old.json>", "<new.json>"],
        help: "compare two metrics snapshots: every deterministic metric must be equal" },
];

/// What a flag takes, and the range its value is checked against.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kind {
    /// No value: present or absent.
    Switch,
    /// A whole number in `min..=max`.
    Count(u64, u64),
    /// Finite fractional seconds, at least the floor, that fit a
    /// [`Duration`].
    Seconds(f64),
    /// A path or other free text.
    Text,
    /// One of the listed words.
    Choice(&'static [&'static str]),
}

/// One row of the flag table.
pub struct Flag {
    pub name: &'static str,
    /// Placeholder for the value in usage text (empty for a switch).
    pub metavar: &'static str,
    pub kind: Kind,
    /// Value when the flag is absent, in the flag's own syntax.
    pub default: Option<&'static str>,
    /// Bit set of the verbs that take the flag (see [`Flag::takes`]).
    verbs: u16,
    pub help: &'static str,
}

impl Flag {
    pub fn takes(&self, verb: Verb) -> bool {
        self.verbs & verb.bit() != 0
    }
}

const fn flag(
    name: &'static str,
    metavar: &'static str,
    kind: Kind,
    default: Option<&'static str>,
    verbs: u16,
    help: &'static str,
) -> Flag {
    Flag { name, metavar, kind, default, verbs, help }
}

// Each verb takes exactly the flags its `run` reads, so a flag of
// another verb is the parser's "not a flag of" misuse rather than a value
// nobody looks at.
const VERIFY: u16 = Verb::Verify.bit();
/// The verbs that search, and so take the engine and artifact flags.
const SEARCH: u16 = VERIFY | Verb::Table.bit();
/// The verbs that refine the spec.
const REFINE: u16 = SEARCH | Verb::Refine.bit() | Verb::Dot.bit();
const DOT: u16 = Verb::Dot.bit();
const WATCH: u16 = Verb::Watch.bit();
const FUZZ: u16 = Verb::Fuzz.bit();
const JSON: u16 = SEARCH | FUZZ | Verb::Report.bit() | Verb::Timeline.bit();
const ALL: u16 = u16::MAX;

const ANY: u64 = u64::MAX;
const U32: u64 = u32::MAX as u64;
const USIZE: u64 = usize::MAX as u64;
use Kind::{Choice, Count, Seconds, Switch, Text};

#[rustfmt::skip]
pub const FLAGS: &[Flag] = &[
    flag("--help", "", Switch, None, ALL,
        "print this verb's usage and exit (also -h)"),
    flag("-n", "N", Count(0, U32), Some("2"), SEARCH | FUZZ,
        "number of remote nodes (table: sweep 1..=N)"),
    flag("--budget", "STATES", Count(0, USIZE), Some("2000000"), SEARCH,
        "state budget per search; exceeding it reports Unfinished"),
    flag("--budget", "STATES", Count(0, USIZE), Some("20000"), FUZZ,
        "state budget per search of each generated spec"),
    flag("--no-opt", "", Switch, None, REFINE,
        "refine without the §3.3 request/reply optimisation"),
    flag("--refined", "", Switch, None, DOT,
        "dot: draw the refined home and remote automata"),
    flag("--threads", "T", Count(1, USIZE), None, SEARCH,
        "generate successors on T worker threads ahead of the one sweep (same results; absent: inline)"),
    flag("--symmetry", "MODE", Choice(&["on", "off", "auto"]), Some("auto"), SEARCH,
        "dedupe states equal up to renaming the remotes (docs/symmetry.md)"),
    flag("--async", "", Switch, None, VERIFY,
        "verify: explore only the refined asynchronous level"),
    flag("--json", "", Switch, None, JSON,
        "one machine-readable JSON document on stdout instead of the human rendering"),
    flag("--trace", "FILE", Text, None, SEARCH,
        "write each search's outcome and any counterexample as a JSONL event stream"),
    flag("--progress", "", Switch, None, SEARCH,
        "print each flight-recorder sample (elapsed, states, frontier, rate) to stderr"),
    flag("--progress-interval", "SECS", Seconds(0.0), Some("1.0"), SEARCH,
        "wall-clock sampling cadence of --progress, --status and --timeline"),
    flag("--metrics", "PATH|-", Text, None, SEARCH | FUZZ,
        "collect pipeline metrics and write the snapshot (- = stdout, as the final line)"),
    flag("--metrics-format", "FORMAT", Choice(&["json", "prometheus"]), Some("json"), SEARCH | FUZZ,
        "snapshot encoding (prometheus = text exposition format 0.0.4)"),
    flag("--profile", "PATH|-", Text, None, SEARCH,
        "record per-worker span timelines and write them as folded stacks"),
    flag("--status", "PATH", Text, None, SEARCH,
        "maintain a live status file for `ccr watch`"),
    flag("--timeline", "PATH", Text, None, SEARCH,
        "flight recorder: append one JSONL sample per interval for `ccr timeline`"),
    flag("--stall-after", "K", Count(1, U32), Some("5"), SEARCH,
        "with --timeline, record a stall diagnostic after K intervals without progress"),
    flag("--inject-stall-ms", "MS", Count(0, ANY), Some("0"), VERIFY,
        "test hook: with --threads, each worker sleeps MS ms before its first chunk"),
    flag("--run-dir", "DIR", Text, None, SEARCH,
        "write trace, metrics, profile, status, timeline and verify.json under DIR"),
    flag("--spill-dir", "DIR", Text, None, VERIFY,
        "verify: checkpoint both reachability sweeps under DIR (docs/persistence.md)"),
    flag("--spill-bytes", "B", Count(0, USIZE), Some("0"), VERIFY,
        "in-memory budget of each sweep's visited set before spilling (0 = keep all)"),
    flag("--checkpoint-interval", "SECS", Seconds(0.0), Some("1.0"), VERIFY,
        "wall-clock checkpoint cadence (0 = at every opportunity)"),
    flag("--resume", "DIR", Text, None, VERIFY,
        "verify: restart a --spill-dir run; takes the place of <spec.ccp>"),
    flag("--crash-after-states", "N", Count(0, ANY), None, VERIFY,
        "test hook: abort as by kill -9 after N newly inserted states"),
    flag("--faults", "SPEC", Text, None, VERIFY,
        "verify: seeded random walks under wire faults, e.g. drop=0.05,dup=0.02"),
    flag("--seed", "N", Count(0, ANY), Some("0"), VERIFY,
        "base seed of the fault walks"),
    flag("--seed", "S", Count(0, ANY), Some("1"), FUZZ,
        "seed of the spec stream"),
    flag("--fault-budget", "F", Count(0, U32), None, VERIFY,
        "verify: model-check safety and progress under up to F drop/duplicate faults"),
    flag("--fault-budget", "F", Count(0, U32), Some("1"), FUZZ,
        "fault budget of each spec's fault-closure check"),
    flag("--once", "", Switch, None, WATCH,
        "print one snapshot and exit"),
    flag("--interval", "SECS", Seconds(0.01), Some("0.5"), WATCH,
        "poll cadence"),
    flag("--timeout", "SECS", Seconds(0.0), Some("30"), WATCH,
        "how long to wait for the first snapshot"),
    flag("--stale-timeout", "SECS", Seconds(0.0), Some("30"), WATCH,
        "declare the run dead when its snapshot stops advancing this long and its writer is gone"),
    flag("--count", "N", Count(0, ANY), Some("50"), FUZZ,
        "number of specs to generate and check"),
    flag("--shrink", "", Switch, None, FUZZ,
        "minimise each failing spec and emit it as .ccp"),
    flag("--corpus", "DIR", Text, None, FUZZ,
        "write every generated spec (and shrunk failures) under DIR"),
    flag("--inject-broken", "", Switch, None, FUZZ,
        "break one refinement annotation per spec; the sweep must then fail"),
];

/// A checked flag value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    On,
    Count(u64),
    Seconds(Duration),
    Text(String),
}

impl Flag {
    /// The one place a flag's text becomes a value: every kind is
    /// checked against its range here, for command lines and table
    /// defaults alike.
    fn check(&self, raw: &str) -> Result<Value, String> {
        let bad = |want: String| format!("{}: expected {want}, got `{raw}`", self.name);
        match self.kind {
            Switch => Ok(Value::On),
            Text => Ok(Value::Text(raw.to_string())),
            Choice(words) if words.contains(&raw) => Ok(Value::Text(raw.to_string())),
            Choice(words) => Err(bad(format!("one of {}", words.join("|")))),
            Count(min, max) => match raw.parse::<u64>() {
                Ok(n) if (min..=max).contains(&n) => Ok(Value::Count(n)),
                _ if max == ANY => Err(bad(format!("a whole number >= {min}"))),
                _ => Err(bad(format!("a whole number in {min}..={max}"))),
            },
            Seconds(min) => raw
                .parse::<f64>()
                .ok()
                .filter(|s| *s >= min)
                .and_then(|s| Duration::try_from_secs_f64(s).ok())
                .map(Value::Seconds)
                .ok_or_else(|| bad(format!("a finite number of seconds >= {min}"))),
        }
    }
}

/// The row for `name` among the flags `verb` takes.
fn row(verb: Verb, name: &str) -> Option<&'static Flag> {
    FLAGS.iter().find(|f| f.name == name && f.takes(verb))
}

/// Why [`parse`] did not return values.
#[derive(Debug, PartialEq)]
pub enum Misuse {
    /// `--help` / `-h`: print [`usage`] on stdout, exit 0.
    Help,
    /// A one-line diagnosis for stderr (`ccr: …`), exit 2.
    Error(String),
}

/// A verb's command line, checked against the table.
#[derive(Debug)]
pub struct Parsed {
    pub verb: Verb,
    pub positionals: Vec<String>,
    given: Vec<(&'static str, Value)>,
}

/// Selects the verb from the leading words of `argv` and returns it with
/// the arguments that follow.
pub fn verb_of(argv: &[String]) -> Option<(Verb, &[String])> {
    VERBS.iter().find_map(|r| {
        let words = r.name.split(' ').count();
        let head = argv.get(..words)?;
        r.name.split(' ').eq(head.iter().map(String::as_str)).then(|| (r.verb, &argv[words..]))
    })
}

/// The only walk over `argv`: flags are looked up in the rows `verb`
/// takes and their values checked by kind; everything else is a
/// positional. A repeated flag keeps its last value.
pub fn parse(verb: Verb, argv: &[String]) -> Result<Parsed, Misuse> {
    let name = verb.row().name;
    let mut out = Parsed { verb, positionals: Vec::new(), given: Vec::new() };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with('-') || arg == "-" {
            out.positionals.push(arg.clone());
            continue;
        }
        let arg = if arg == "-h" { "--help" } else { arg.as_str() };
        let Some(flag) = row(verb, arg) else {
            return Err(Misuse::Error(format!("`{arg}` is not a flag of `ccr {name}`")));
        };
        if flag.name == "--help" {
            return Err(Misuse::Help);
        }
        let value = match flag.kind {
            Switch => Value::On,
            _ => match it.next() {
                Some(raw) => flag.check(raw).map_err(Misuse::Error)?,
                None => {
                    return Err(Misuse::Error(format!("{arg}: missing {}", flag.metavar)));
                }
            },
        };
        out.given.retain(|(n, _)| *n != flag.name);
        out.given.push((flag.name, value));
    }
    // `--resume DIR` stands in for the spec positional: the spec path
    // replays from DIR/meta.json.
    let wanted: &[&str] = if out.given("--resume") { &[] } else { verb.row().positionals };
    match out.positionals.len() {
        n if n < wanted.len() => Err(Misuse::Error(format!("{name}: missing {}", wanted[n]))),
        n if n > wanted.len() => {
            Err(Misuse::Error(format!("{name}: unexpected argument `{}`", out.positionals[n - 1])))
        }
        _ => Ok(out),
    }
}

impl Parsed {
    /// Whether the verb takes the flag at all: asking a verb for the
    /// value of a flag that is not its own is a bug, so shared code asks
    /// this first.
    pub fn takes(&self, name: &str) -> bool {
        row(self.verb, name).is_some()
    }

    /// Whether the flag was on the command line or [`Parsed::record`]ed
    /// (as opposed to taking its table default).
    pub fn given(&self, name: &str) -> bool {
        self.given.iter().any(|(n, _)| *n == name)
    }

    /// Puts `value` where the flag was not given: how `--resume` replays
    /// a recorded engine shape beneath the command line.
    pub fn record(&mut self, name: &'static str, value: Value) {
        if !self.given(name) {
            self.given.push((name, value));
        }
    }

    /// The flag's value: from the command line, else the table default.
    fn value(&self, name: &str) -> Option<Value> {
        if let Some((_, v)) = self.given.iter().find(|(n, _)| *n == name) {
            return Some(v.clone());
        }
        let flag = row(self.verb, name)
            .unwrap_or_else(|| panic!("{name} is not a flag of {}", self.verb.row().name));
        flag.default.map(|d| flag.check(d).expect("table defaults are in range"))
    }

    pub fn on(&self, name: &str) -> bool {
        self.value(name).is_some()
    }

    /// The value through `pick`, which accepts the kind of value the
    /// caller asks for; asking a flag for another kind is a bug here.
    fn get<T>(&self, name: &str, pick: impl Fn(&Value) -> Option<T>) -> Option<T> {
        let v = self.value(name)?;
        Some(pick(&v).unwrap_or_else(|| panic!("{name} holds {v:?}, not what was asked for")))
    }

    pub fn count(&self, name: &str) -> Option<u64> {
        self.get(name, |v| if let Value::Count(n) = v { Some(*n) } else { None })
    }

    /// A count whose row has a default.
    pub fn num(&self, name: &str) -> u64 {
        self.count(name).unwrap_or_else(|| panic!("{name} has no default"))
    }

    /// Seconds; every seconds row has a default.
    pub fn secs(&self, name: &str) -> Duration {
        self.get(name, |v| if let Value::Seconds(d) = v { Some(*d) } else { None })
            .unwrap_or_else(|| panic!("{name} has no default"))
    }

    pub fn text(&self, name: &str) -> Option<String> {
        self.get(name, |v| if let Value::Text(s) = v { Some(s.clone()) } else { None })
    }
}

/// `ccr <verb> <positionals> [flags]`.
fn synopsis(r: &VerbRow) -> String {
    let mut words = vec!["ccr", r.name];
    words.extend(r.positionals);
    words.push("[flags]");
    words.join(" ")
}

/// The generated usage of one verb: synopsis, what it does, and one
/// line per flag it takes with its range and default.
pub fn usage(verb: Verb) -> String {
    let r = verb.row();
    let mut out = format!("usage: {}\n\n{}\n\nflags:\n", synopsis(r), r.help);
    for f in FLAGS.iter().filter(|f| f.takes(verb)) {
        let head = format!("{} {}", f.name, f.metavar);
        let range = match f.kind {
            Count(min, ANY) if min > 0 => format!(" (at least {min})"),
            Seconds(min) if min > 0.0 => format!(" (at least {min})"),
            Choice(words) => format!(" ({})", words.join("|")),
            _ => String::new(),
        };
        let default = f.default.map(|d| format!(" [default {d}]")).unwrap_or_default();
        out.push_str(&format!("  {head:<28} {}{range}{default}\n", f.help));
    }
    out
}

/// The usage of the binary: one synopsis line per verb.
pub fn global_usage() -> String {
    let mut out =
        String::from("usage: ccr <verb> … (`ccr <verb> --help` lists the verb's flags)\n\n");
    for r in VERBS {
        out.push_str(&format!("  {:<52} {}\n", synopsis(r), r.help));
    }
    out
}
