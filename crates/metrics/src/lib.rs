//! Unified metrics registry for the coherence-refinement pipeline.
//!
//! Where `ccr-trace` answers *what happened* (an ordered event stream),
//! this crate answers *how much and how fast*: monotonic counters,
//! gauges, fixed-bucket histograms — all plain relaxed atomics on the
//! hot path — plus hierarchical wall-clock phase timers for the
//! parse → refine → explore → progress-check → report pipeline.
//!
//! The design mirrors `ccr-trace`'s `NullSink` pattern: a [`Registry`]
//! is either *enabled* (backed by shared state) or *null*
//! ([`Registry::default`] / [`Registry::disabled`]), and every handle
//! obtained from a null registry is a no-op whose record methods cost
//! one branch on an `Option` that is always `None`. Code under
//! measurement therefore never pays for metrics it does not emit.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap clones of
//! an `Arc` around the underlying atomics: registration takes a lock
//! once, after which recording is lock-free and wait-free.
//!
//! # Determinism
//!
//! Snapshots serialize with sorted keys, so two runs that record the
//! same values produce byte-identical JSON. Metrics whose values depend
//! on thread scheduling (work-stealing batch counts, probe lengths under
//! parallel insertion order, …) are registered through the `_nondet`
//! constructors and listed in [`Snapshot::nondeterministic`];
//! [`Snapshot::deterministic`] strips them (and the wall-clock phase
//! timings) so comparators can require exact equality on what remains.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod diff;
pub mod jsonval;
pub mod profile;
pub mod promcheck;
pub mod timeseries;

use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

// ---- cells -----------------------------------------------------------------

#[derive(Default)]
struct CounterCell {
    value: AtomicU64,
}

#[derive(Default)]
struct GaugeCell {
    value: AtomicU64,
}

struct HistogramCell {
    /// Inclusive upper bounds (`le`), strictly increasing. `counts` has
    /// one extra slot at the end for values above the last bound (+Inf).
    bounds: Vec<u64>,
    counts: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

enum Metric {
    Counter(Arc<CounterCell>),
    Gauge(Arc<GaugeCell>),
    Histogram(Arc<HistogramCell>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

struct Entry {
    metric: Metric,
    help: String,
    nondet: bool,
}

#[derive(Default, Clone, Copy)]
struct PhaseTotals {
    calls: u64,
    nanos: u64,
}

#[derive(Default)]
struct PhaseState {
    stack: Vec<String>,
    recorded: BTreeMap<String, PhaseTotals>,
}

#[derive(Default)]
struct Inner {
    metrics: Mutex<BTreeMap<String, Entry>>,
    phases: Mutex<PhaseState>,
}

// ---- registry --------------------------------------------------------------

/// Handle to a metrics store, or the null registry when metrics are off.
///
/// Clones share the same underlying store. The null registry (from
/// [`Registry::default`] or [`Registry::disabled`]) hands out no-op
/// handles and produces empty snapshots.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Option<Arc<Inner>>,
}

/// Is `name` a valid Prometheus metric name (`[a-zA-Z_:][a-zA-Z0-9_:]*`)?
fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

impl Registry {
    /// An enabled registry with an empty store.
    pub fn new() -> Self {
        Registry { inner: Some(Arc::new(Inner::default())) }
    }

    /// The null registry: every handle is a no-op, snapshots are empty.
    pub fn disabled() -> Self {
        Registry { inner: None }
    }

    /// Whether this registry actually records anything.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn register<C, H>(
        &self,
        name: &str,
        help: &str,
        nondet: bool,
        make: impl FnOnce() -> Metric,
        pick: impl FnOnce(&Metric) -> Option<Arc<C>>,
        wrap: impl FnOnce(Option<Arc<C>>) -> H,
    ) -> H {
        let Some(inner) = &self.inner else { return wrap(None) };
        assert!(valid_metric_name(name), "invalid metric name `{name}`");
        let mut metrics = inner.metrics.lock().unwrap();
        let entry = metrics.entry(name.to_string()).or_insert_with(|| Entry {
            metric: make(),
            help: help.to_string(),
            nondet,
        });
        entry.nondet |= nondet;
        match pick(&entry.metric) {
            Some(cell) => wrap(Some(cell)),
            None => panic!("metric `{name}` already registered as a {}", entry.metric.kind()),
        }
    }

    /// Register (or look up) a monotonic counter. Re-registering the same
    /// name returns a handle to the same cell; the first registration
    /// fixes the help text, and the metric is nondeterministic once any
    /// registration says so.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_tagged(name, help, false)
    }

    /// A counter whose value depends on thread scheduling (e.g. batches
    /// flushed): excluded from [`Snapshot::deterministic`].
    pub fn counter_nondet(&self, name: &str, help: &str) -> Counter {
        self.counter_tagged(name, help, true)
    }

    fn counter_tagged(&self, name: &str, help: &str, nondet: bool) -> Counter {
        self.register(
            name,
            help,
            nondet,
            || Metric::Counter(Arc::new(CounterCell::default())),
            |m| match m {
                Metric::Counter(c) => Some(c.clone()),
                _ => None,
            },
            |cell| Counter { cell },
        )
    }

    /// Register (or look up) a gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_tagged(name, help, false)
    }

    /// A gauge whose value depends on thread scheduling: excluded from
    /// [`Snapshot::deterministic`].
    pub fn gauge_nondet(&self, name: &str, help: &str) -> Gauge {
        self.gauge_tagged(name, help, true)
    }

    fn gauge_tagged(&self, name: &str, help: &str, nondet: bool) -> Gauge {
        self.register(
            name,
            help,
            nondet,
            || Metric::Gauge(Arc::new(GaugeCell::default())),
            |m| match m {
                Metric::Gauge(g) => Some(g.clone()),
                _ => None,
            },
            |cell| Gauge { cell },
        )
    }

    /// Register (or look up) a histogram with the given inclusive upper
    /// bucket bounds (`le` in Prometheus terms), which must be strictly
    /// increasing. A final +Inf bucket is implicit. Bounds are fixed at
    /// first registration.
    pub fn histogram(&self, name: &str, help: &str, bounds: &[u64]) -> Histogram {
        self.histogram_tagged(name, help, bounds, false)
    }

    /// A histogram whose distribution depends on thread scheduling (e.g.
    /// probe lengths under parallel insertion order): excluded from
    /// [`Snapshot::deterministic`].
    pub fn histogram_nondet(&self, name: &str, help: &str, bounds: &[u64]) -> Histogram {
        self.histogram_tagged(name, help, bounds, true)
    }

    fn histogram_tagged(&self, name: &str, help: &str, bounds: &[u64], nondet: bool) -> Histogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        self.register(
            name,
            help,
            nondet,
            || {
                Metric::Histogram(Arc::new(HistogramCell {
                    bounds: bounds.to_vec(),
                    counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                    sum: AtomicU64::new(0),
                    count: AtomicU64::new(0),
                }))
            },
            |m| match m {
                Metric::Histogram(h) => Some(h.clone()),
                _ => None,
            },
            |cell| Histogram { cell },
        )
    }

    /// Start a named phase timer. Phases nest: a guard taken while
    /// another is live records under the joined path (`"verify/explore"`).
    /// The guard records cumulative wall time and a call count when
    /// dropped. Guards are expected to drop in LIFO order and the stack
    /// lives in the registry, so phases are for the coordinating thread,
    /// not for per-worker timing (use histograms for that).
    pub fn phase(&self, name: &str) -> PhaseGuard {
        match &self.inner {
            None => PhaseGuard { inner: None, path: String::new(), started: Instant::now() },
            Some(inner) => {
                let path = {
                    let mut phases = inner.phases.lock().unwrap();
                    phases.stack.push(name.to_string());
                    phases.stack.join("/")
                };
                PhaseGuard { inner: Some(inner.clone()), path, started: Instant::now() }
            }
        }
    }

    /// A point-in-time copy of every registered metric and phase total.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        let Some(inner) = &self.inner else { return snap };
        let metrics = inner.metrics.lock().unwrap();
        for (name, entry) in metrics.iter() {
            snap.helps.insert(name.clone(), entry.help.clone());
            if entry.nondet {
                snap.nondeterministic.push(name.clone());
            }
            match &entry.metric {
                Metric::Counter(c) => {
                    snap.counters.insert(name.clone(), c.value.load(Relaxed));
                }
                Metric::Gauge(g) => {
                    snap.gauges.insert(name.clone(), g.value.load(Relaxed));
                }
                Metric::Histogram(h) => {
                    snap.histograms.insert(
                        name.clone(),
                        HistogramSnapshot {
                            bounds: h.bounds.clone(),
                            counts: h.counts.iter().map(|c| c.load(Relaxed)).collect(),
                            sum: h.sum.load(Relaxed),
                            count: h.count.load(Relaxed),
                        },
                    );
                }
            }
        }
        drop(metrics);
        let phases = inner.phases.lock().unwrap();
        for (path, totals) in phases.recorded.iter() {
            snap.phases
                .insert(path.clone(), PhaseSnapshot { calls: totals.calls, nanos: totals.nanos });
        }
        snap
    }
}

// ---- handles ---------------------------------------------------------------

/// Handle to a monotonic counter; a no-op when obtained from a null
/// registry.
#[derive(Clone, Default)]
pub struct Counter {
    cell: Option<Arc<CounterCell>>,
}

impl Counter {
    /// Add `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.cell {
            cell.value.fetch_add(n, Relaxed);
        }
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (0 for a null handle).
    pub fn get(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| c.value.load(Relaxed))
    }
}

/// Handle to a gauge; a no-op when obtained from a null registry.
#[derive(Clone, Default)]
pub struct Gauge {
    cell: Option<Arc<GaugeCell>>,
}

impl Gauge {
    /// Set the gauge to `v`.
    #[inline]
    pub fn set(&self, v: u64) {
        if let Some(cell) = &self.cell {
            cell.value.store(v, Relaxed);
        }
    }

    /// Raise the gauge to `v` if `v` exceeds the current value
    /// (a high-water mark).
    #[inline]
    pub fn record_max(&self, v: u64) {
        if let Some(cell) = &self.cell {
            cell.value.fetch_max(v, Relaxed);
        }
    }

    /// Current value (0 for a null handle).
    pub fn get(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| c.value.load(Relaxed))
    }
}

/// Handle to a fixed-bucket histogram; a no-op when obtained from a
/// null registry.
#[derive(Clone, Default)]
pub struct Histogram {
    cell: Option<Arc<HistogramCell>>,
}

impl Histogram {
    /// Record one observation of `v`.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.observe_n(v, 1);
    }

    /// Record `times` observations of `v` at once.
    #[inline]
    pub fn observe_n(&self, v: u64, times: u64) {
        if times == 0 {
            return;
        }
        if let Some(cell) = &self.cell {
            // First bucket whose inclusive bound covers v; the slot past
            // the last bound is the implicit +Inf bucket.
            let idx = cell.bounds.partition_point(|&b| b < v);
            cell.counts[idx].fetch_add(times, Relaxed);
            cell.sum.fetch_add(v.saturating_mul(times), Relaxed);
            cell.count.fetch_add(times, Relaxed);
        }
    }

    /// Total number of observations (0 for a null handle).
    pub fn count(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| c.count.load(Relaxed))
    }

    /// Sum of all observed values (0 for a null handle).
    pub fn sum(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| c.sum.load(Relaxed))
    }
}

/// RAII guard for one timed phase; records on drop.
pub struct PhaseGuard {
    inner: Option<Arc<Inner>>,
    path: String,
    started: Instant,
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if let Some(inner) = &self.inner {
            let elapsed = self.started.elapsed();
            let mut phases = inner.phases.lock().unwrap();
            phases.stack.pop();
            let totals = phases.recorded.entry(std::mem::take(&mut self.path)).or_default();
            totals.calls += 1;
            totals.nanos += u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        }
    }
}

// ---- snapshot --------------------------------------------------------------

/// Point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct HistogramSnapshot {
    /// Inclusive upper bucket bounds (`le`), strictly increasing.
    pub bounds: Vec<u64>,
    /// Per-bucket observation counts; one longer than `bounds`, the last
    /// slot counting values above every bound (+Inf).
    pub counts: Vec<u64>,
    /// Sum of all observed values.
    pub sum: u64,
    /// Total number of observations.
    pub count: u64,
}

/// Cumulative totals for one phase path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct PhaseSnapshot {
    /// How many times the phase ran.
    pub calls: u64,
    /// Total wall-clock nanoseconds across all calls.
    pub nanos: u64,
}

impl PhaseSnapshot {
    /// Total wall-clock seconds across all calls.
    pub fn secs(&self) -> f64 {
        self.nanos as f64 / 1e9
    }
}

/// A point-in-time copy of a [`Registry`]: sorted maps, so JSON output
/// is deterministic for deterministic values.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Phase totals by `/`-joined path.
    pub phases: BTreeMap<String, PhaseSnapshot>,
    /// Names (sorted) of metrics whose values depend on thread
    /// scheduling; comparators must not require equality on these.
    pub nondeterministic: Vec<String>,
    /// Help text by metric name.
    pub helps: BTreeMap<String, String>,
}

impl Snapshot {
    /// Render as a JSON object (sorted keys; no trailing newline).
    pub fn to_json(&self) -> String {
        serde::json::to_string(self)
    }

    /// A copy with every nondeterministic metric and all wall-clock
    /// phase timings removed: what remains must match exactly between
    /// runs that explore the same state space.
    pub fn deterministic(&self) -> Snapshot {
        let nondet: std::collections::BTreeSet<&str> =
            self.nondeterministic.iter().map(String::as_str).collect();
        let keep = |name: &String| !nondet.contains(name.as_str());
        Snapshot {
            counters: self
                .counters
                .iter()
                .filter(|(k, _)| keep(k))
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .filter(|(k, _)| keep(k))
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .filter(|(k, _)| keep(k))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
            phases: BTreeMap::new(),
            nondeterministic: Vec::new(),
            helps: self
                .helps
                .iter()
                .filter(|(k, _)| keep(k))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }

    /// Render in the Prometheus text exposition format (version 0.0.4):
    /// `# HELP`/`# TYPE` per family, cumulative `_bucket{le="…"}` series
    /// plus `_sum`/`_count` for histograms, and phase totals as
    /// `ccr_phase_seconds`/`ccr_phase_calls` with a `phase` label.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let header = |out: &mut String, name: &str, kind: &str, help: Option<&String>| {
            if let Some(help) = help {
                out.push_str(&format!("# HELP {name} {}\n", escape_help(help)));
            }
            out.push_str(&format!("# TYPE {name} {kind}\n"));
        };
        for (name, value) in &self.counters {
            header(&mut out, name, "counter", self.helps.get(name));
            out.push_str(&format!("{name} {value}\n"));
        }
        for (name, value) in &self.gauges {
            header(&mut out, name, "gauge", self.helps.get(name));
            out.push_str(&format!("{name} {value}\n"));
        }
        for (name, hist) in &self.histograms {
            header(&mut out, name, "histogram", self.helps.get(name));
            let mut cumulative = 0u64;
            for (i, bound) in hist.bounds.iter().enumerate() {
                cumulative += hist.counts.get(i).copied().unwrap_or(0);
                out.push_str(&format!("{name}_bucket{{le=\"{bound}\"}} {cumulative}\n"));
            }
            out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", hist.count));
            out.push_str(&format!("{name}_sum {}\n", hist.sum));
            out.push_str(&format!("{name}_count {}\n", hist.count));
        }
        if !self.phases.is_empty() {
            out.push_str(
                "# HELP ccr_phase_seconds Cumulative wall-clock seconds per pipeline phase\n",
            );
            out.push_str("# TYPE ccr_phase_seconds counter\n");
            for (path, totals) in &self.phases {
                out.push_str(&format!(
                    "ccr_phase_seconds{{phase=\"{}\"}} {}\n",
                    escape_label(path),
                    totals.secs()
                ));
            }
            out.push_str("# HELP ccr_phase_calls Number of completed runs per pipeline phase\n");
            out.push_str("# TYPE ccr_phase_calls counter\n");
            for (path, totals) in &self.phases {
                out.push_str(&format!(
                    "ccr_phase_calls{{phase=\"{}\"}} {}\n",
                    escape_label(path),
                    totals.calls
                ));
            }
        }
        out
    }
}

/// Escape a HELP text (`\` and newline per the exposition format).
fn escape_help(text: &str) -> String {
    text.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escape a label value (`\`, `"`, and newline per the exposition format).
fn escape_label(text: &str) -> String {
    text.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_registry_handles_are_noops() {
        let reg = Registry::disabled();
        assert!(!reg.enabled());
        let c = reg.counter("x_total", "x");
        let g = reg.gauge("g", "g");
        let h = reg.histogram("h", "h", &[1, 2]);
        c.add(5);
        g.record_max(9);
        h.observe(1);
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0);
        assert_eq!(h.count(), 0);
        let snap = reg.snapshot();
        assert!(snap.counters.is_empty() && snap.gauges.is_empty() && snap.histograms.is_empty());
        // Phases are no-ops too.
        drop(reg.phase("p"));
        assert!(reg.snapshot().phases.is_empty());
    }

    #[test]
    fn counters_gauges_histograms_record() {
        let reg = Registry::new();
        let c = reg.counter("jobs_total", "jobs");
        c.inc();
        c.add(4);
        // Re-registration returns the same cell.
        assert_eq!(reg.counter("jobs_total", "ignored").get(), 5);

        let g = reg.gauge("depth", "depth");
        g.record_max(3);
        g.record_max(2);
        assert_eq!(g.get(), 3);
        g.set(1);
        assert_eq!(g.get(), 1);

        let h = reg.histogram("len", "lengths", &[1, 4, 16]);
        for v in [0, 1, 2, 5, 100] {
            h.observe(v);
        }
        let snap = reg.snapshot();
        let hs = &snap.histograms["len"];
        assert_eq!(hs.counts, vec![2, 1, 1, 1]); // le=1: {0,1}; le=4: {2}; le=16: {5}; +Inf: {100}
        assert_eq!(hs.sum, 108);
        assert_eq!(hs.count, 5);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.counter("m", "m");
        reg.gauge("m", "m");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_name_panics() {
        Registry::new().counter("bad-name", "x");
    }

    #[test]
    fn phases_nest_and_accumulate() {
        let reg = Registry::new();
        {
            let _outer = reg.phase("verify");
            let _inner = reg.phase("explore");
        }
        {
            let _outer = reg.phase("verify");
            let _inner = reg.phase("explore");
        }
        let snap = reg.snapshot();
        assert_eq!(snap.phases["verify"].calls, 2);
        assert_eq!(snap.phases["verify/explore"].calls, 2);
        assert!(snap.phases["verify"].nanos >= snap.phases["verify/explore"].nanos);
    }

    #[test]
    fn snapshot_json_is_sorted_and_stable() {
        let reg = Registry::new();
        reg.counter("b_total", "b").inc();
        reg.counter("a_total", "a").add(2);
        let one = reg.snapshot().to_json();
        let two = reg.snapshot().to_json();
        assert_eq!(one, two);
        assert!(one.find("a_total").unwrap() < one.find("b_total").unwrap());
        // Parses back as JSON with the values we put in.
        let parsed = jsonval::Json::parse(&one).unwrap();
        let counters = parsed.get("counters").unwrap();
        assert_eq!(counters.get("a_total").and_then(|v| v.as_u64()), Some(2));
        assert_eq!(counters.get("b_total").and_then(|v| v.as_u64()), Some(1));
    }

    #[test]
    fn deterministic_view_strips_nondet_and_phases() {
        let reg = Registry::new();
        reg.counter("states_total", "det").add(10);
        reg.counter_nondet("flushes_total", "nondet").add(3);
        reg.histogram_nondet("probe", "nondet", &[1]).observe(0);
        // One nondeterministic contribution taints the whole metric, in
        // whichever order the registrations come.
        reg.counter("orbits_total", "det so far").add(4);
        reg.counter_nondet("orbits_total", "and now not").add(1);
        drop(reg.phase("explore"));
        let snap = reg.snapshot();
        assert_eq!(snap.nondeterministic, vec!["flushes_total", "orbits_total", "probe"]);
        assert_eq!(snap.counters["orbits_total"], 5);
        let det = snap.deterministic();
        assert!(det.counters.contains_key("states_total"));
        assert!(!det.counters.contains_key("flushes_total"));
        assert!(det.histograms.is_empty());
        assert!(det.phases.is_empty());
        assert!(det.nondeterministic.is_empty());
        assert!(!det.helps.contains_key("probe"));
    }

    #[test]
    fn prometheus_exposition_validates() {
        let reg = Registry::new();
        reg.counter("mc_states_total", "Distinct states stored").add(42);
        reg.gauge("mc_store_bytes", "Store footprint").set(1024);
        let h = reg.histogram("mc_state_bytes", "Encoded state length", &[8, 16, 32]);
        for v in [4, 9, 40, 12] {
            h.observe(v);
        }
        {
            let _p = reg.phase("verify");
            let _q = reg.phase("explore");
        }
        let text = reg.snapshot().to_prometheus();
        promcheck::validate(&text).unwrap();
        assert!(text.contains("# TYPE mc_states_total counter"));
        assert!(text.contains("mc_state_bytes_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("ccr_phase_seconds{phase=\"verify/explore\"}"));
    }

    #[test]
    fn handles_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Registry>();
        assert_send_sync::<Counter>();
        assert_send_sync::<Gauge>();
        assert_send_sync::<Histogram>();
    }
}
