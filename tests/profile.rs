//! Profiler guarantees (see docs/observability.md, "Profiling and live
//! runs"):
//!
//! * profiling off is free *and invisible*: byte-identical traces and
//!   identical deterministic metrics snapshots either way;
//! * span *counts* are deterministic: compute counts states, encode and
//!   insert count transitions, so they match the serial engine at every
//!   thread count on every shipped spec (timings are wall-clock and
//!   schedule-dependent — only the counts are pinned);
//! * the `check` span is the riders': a sweep that carries Equation 1 or
//!   the progress check laps it once per edge, so their work is not
//!   charged to `encode`, and a plain exploration has no such row;
//! * the folded-stack encoding round-trips, and `ccr report` refuses a
//!   hostile one whose totals leave `u64`.

use ccr_core::refine::{refine, RefineOptions};
use ccr_core::text::parse_validated;
use ccr_mc::search::{Budget, Search, SearchObserver, Telemetry};
use ccr_metrics::diff::diff_strs;
use ccr_metrics::profile::{parse_folded, ProfileAgg, Profiler, SpanKind};
use ccr_metrics::Registry;
use ccr_runtime::asynch::{AsyncConfig, AsyncSystem};
use ccr_runtime::rendezvous::RendezvousSystem;
use ccr_trace::JsonlSink;
use std::path::Path;

/// Every spec shipped under `specs/`. All of them — including the
/// deliberately broken one — explore their full reachable set when no
/// invariant or deadlock check is armed, so the deterministic span
/// counts are comparable across engines on each.
const SHIPPED_SPECS: [&str; 6] = [
    "invalidate.ccp",
    "migratory.ccp",
    "migratory_broken.ccp",
    "migratory_gated.ccp",
    "token.ccp",
    "update.ccp",
];

fn spec_text(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("specs").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// One traced, metered exploration of the migratory rendezvous space,
/// with or without a live profiler. Returns (trace bytes, snapshot
/// JSON).
fn traced_metered_run(profile: bool) -> (Vec<u8>, String) {
    let spec = parse_validated(&spec_text("migratory.ccp")).expect("parse");
    let sys = RendezvousSystem::new(&spec, 3);
    let telemetry = Telemetry {
        registry: Registry::new(),
        profiler: if profile { Profiler::new() } else { Profiler::disabled() },
        ..Telemetry::off()
    };
    let mut sink = JsonlSink::new(Vec::new());
    let report = {
        let mut obs = SearchObserver::for_phase(&mut sink, &telemetry, "explore");
        Search::default().explore(&sys, &Budget::default(), None, &mut obs)
    };
    telemetry
        .finish(
            &report.outcome,
            report.states as u64,
            report.transitions as u64,
            report.store_bytes as u64,
        )
        .expect("nothing to fail without a recorder");
    (sink.into_inner().expect("vec sink"), telemetry.registry.snapshot().to_json())
}

#[test]
fn profiling_off_is_invisible_in_traces_and_deterministic_snapshots() {
    let (trace_off, snap_off) = traced_metered_run(false);
    let (trace_on, snap_on) = traced_metered_run(true);
    let text = std::str::from_utf8(&trace_off).expect("utf-8");
    assert!(ccr_trace::events(text).expect("a versioned trace").count() > 0);
    assert_eq!(trace_off, trace_on, "profiling must not perturb the trace stream byte for byte");
    // The profiler publishes only nondeterministic-tagged counters, so
    // the deterministic view of the two snapshots must be identical
    // (`ccr bench diff` skips nondet-tagged metrics).
    let rep = diff_strs(&snap_off, &snap_on).expect("comparable");
    assert!(rep.ok(), "deterministic snapshot drifted with profiling on: {:?}", rep.regressions);
    let rep = diff_strs(&snap_on, &snap_off).expect("comparable");
    assert!(rep.ok(), "deterministic snapshot drifted with profiling off: {:?}", rep.regressions);
}

/// Deterministic span counts of one profiled run:
/// (compute, encode, insert).
fn span_counts(sys: &RendezvousSystem<'_>, threads: usize) -> (u64, u64, u64) {
    let telemetry = Telemetry { profiler: Profiler::new(), ..Telemetry::off() };
    let mut null = ccr_trace::NullSink;
    {
        let mut obs = SearchObserver::for_phase(&mut null, &telemetry, "explore");
        let search = Search { threads, ..Search::default() };
        search.explore(sys, &Budget::default(), None, &mut obs);
    }
    let agg = telemetry.profiler.aggregate();
    (
        agg.kind(SpanKind::Compute).count,
        agg.kind(SpanKind::Encode).count,
        agg.kind(SpanKind::Insert).count,
    )
}

#[test]
fn deterministic_span_counts_match_serial_at_every_thread_count() {
    for name in SHIPPED_SPECS {
        let spec = parse_validated(&spec_text(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
        let sys = RendezvousSystem::new(&spec, 2);
        let serial = span_counts(&sys, 0);
        assert!(serial.0 > 0, "{name}: empty exploration");
        for threads in [1, 2, 4] {
            let parallel = span_counts(&sys, threads);
            assert_eq!(
                serial, parallel,
                "{name}: (compute, encode, insert) span counts diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn the_check_span_is_lapped_once_per_edge_for_riders_and_never_for_a_plain_exploration() {
    let spec = parse_validated(&spec_text("migratory.ccp")).expect("parse");
    let refined = refine(&spec, &RefineOptions::default()).expect("refine");
    let rv = RendezvousSystem::new(&spec, 3);
    let asys = AsyncSystem::new(&refined, 3, AsyncConfig::default());
    let budget = Budget::default();
    /// (check laps, check nanos, encode laps) of one profiled run.
    fn profiled(run: impl FnOnce(&mut SearchObserver<'_>)) -> (u64, u64, u64) {
        let telemetry = Telemetry { profiler: Profiler::new(), ..Telemetry::off() };
        let mut null = ccr_trace::NullSink;
        run(&mut SearchObserver::for_phase(&mut null, &telemetry, "explore"));
        let agg = telemetry.profiler.aggregate();
        let check = agg.kind(SpanKind::Check);
        (check.count, check.nanos, agg.kind(SpanKind::Encode).count)
    }
    let completes = |l: &ccr_runtime::Label| l.completes.is_some();
    for threads in [0usize, 2] {
        let search = Search { threads, ..Search::default() };
        let plain = profiled(|obs| {
            search.explore(&asys, &budget, None, obs);
        });
        assert_eq!((plain.0, plain.1), (0, 0), "t={threads}: no row, no lap");
        let transitions = plain.2;
        assert!(transitions > 0);
        let ridden = profiled(|obs| {
            search.verify(&asys, &asys, &rv, &budget, completes, obs);
        });
        assert_eq!((ridden.0, ridden.2), (transitions, transitions), "t={threads}");
        assert!(ridden.1 > 0, "t={threads}: the riders' time has a row of its own");
        let alone = profiled(|obs| {
            search.progress(&asys, &budget, completes, obs);
        });
        assert_eq!((alone.0, alone.2), (transitions, transitions), "t={threads}");
    }
}

#[test]
fn folded_stacks_round_trip_through_the_parser() {
    let spec = parse_validated(&spec_text("migratory.ccp")).expect("parse");
    let sys = RendezvousSystem::new(&spec, 2);
    let telemetry = Telemetry { profiler: Profiler::new(), ..Telemetry::off() };
    let profiler = &telemetry.profiler;
    let mut null = ccr_trace::NullSink;
    {
        let mut obs = SearchObserver::for_phase(&mut null, &telemetry, "explore");
        let search = Search { threads: 2, ..Search::default() };
        search.explore(&sys, &Budget::default(), None, &mut obs);
    }
    let agg = profiler.aggregate();
    let folded = profiler.folded();
    assert!(!folded.is_empty());
    let reparsed =
        ProfileAgg::from_folded(&parse_folded(&folded).expect("parse")).expect("aggregate");
    assert_eq!(agg.workers.len(), reparsed.workers.len());
    for (a, b) in agg.workers.iter().zip(&reparsed.workers) {
        assert_eq!(a.worker, b.worker);
        for kind in SpanKind::ALL {
            assert_eq!(
                a.kind(kind).nanos,
                b.kind(kind).nanos,
                "worker {} {} nanos drifted through the folded encoding",
                a.worker,
                kind.name()
            );
        }
    }
}

/// A folded profile whose totals leave `u64` (the same kind twice, or two
/// kinds of one worker) is refused by `ccr report` with exit 1 and the
/// offending stack, never a panic or a wrapped `0.0000 s` total.
#[test]
fn report_refuses_a_profile_whose_totals_leave_u64() {
    let dir = std::env::temp_dir().join(format!("ccr-profile-overflow-{}", std::process::id()));
    for second in ["worker0;compute 2", "worker0;encode 2"] {
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let folded = format!("worker0;compute {}\n{second}\n", u64::MAX);
        std::fs::write(dir.join("profile.folded"), folded).expect("write profile");
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_ccr"))
            .arg("report")
            .arg(&dir)
            .output()
            .expect("run report");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{second}: {err}");
        let stack = second.split(' ').next().unwrap();
        assert!(err.contains(&format!("profile.folded: stack `{stack}`")), "{err}");
    }
}
