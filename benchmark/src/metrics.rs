//! The metric and workload tables. `BENCHMARK.json` repeats them for
//! the driver; a unit test keeps the two in step.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of `ccr` would see, measured on every workload.
pub struct EndToEnd {
    /// Name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the baseline by which the metric may worsen before the
    /// change counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics, in printing order. The three timings are in
/// seconds of the reference host (`calib.rs`). Their bounds are as wide
/// as a bound may be: the hosts the benchmark runs on are shared and run
/// the same op at speeds up to 30% apart, calibration takes most of that
/// out, and what is left (interquartile range over median of ten runs:
/// 2–8% here) is still too much for a tighter bound to tell from a
/// regression.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd { name: "op_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "cpu_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Better::Lower, bound: 0.05 },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
];

/// A metric of one layer, from the traced run.
pub struct PerLayer {
    /// Name: `<crate>.<module>.<what>`.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// A deterministic count: two runs of one seed must agree exactly.
    pub exact: bool,
    /// The workload whose traced run measures it; it reads 0 elsewhere.
    /// `*` marks a metric every traced run measures for its own op.
    pub home: &'static str,
}

const fn timing(
    name: &'static str,
    unit: &'static str,
    better: Better,
    home: &'static str,
) -> PerLayer {
    PerLayer { name, unit, better, exact: false, home }
}

const fn count(
    name: &'static str,
    unit: &'static str,
    better: Better,
    home: &'static str,
) -> PerLayer {
    PerLayer { name, unit, better, exact: true, home }
}

use Better::{Higher, Lower};

/// The per-layer metrics, grouped by layer.
pub const PER_LAYER: [PerLayer; 65] = [
    // ccr-core: text front end, zoo generator, refinement.
    timing("core.text.parse_us", "us", Lower, "derive_zoo"),
    timing("core.text.parse_mb_per_s", "MB/s", Higher, "derive_zoo"),
    timing("core.text.print_us", "us", Lower, "derive_zoo"),
    timing("core.validate.us", "us", Lower, "derive_zoo"),
    timing("core.zoo.build_us", "us", Lower, "derive_zoo"),
    timing("core.refine.off_us", "us", Lower, "derive_zoo"),
    timing("core.refine.auto_us", "us", Lower, "derive_zoo"),
    count("core.refine.transient_states", "count", Lower, "derive_zoo"),
    count("core.refine.pairs_found", "count", Higher, "derive_zoo"),
    count("core.refine.static_msgs", "count", Lower, "derive_zoo"),
    // ccr-runtime: the two executors and the simulator.
    timing("runtime.rendezvous.successors_ns", "ns", Lower, "explore_large"),
    timing("runtime.asynch.successors_ns", "ns", Lower, "explore_large"),
    count("runtime.asynch.fanout", "count", Lower, "explore_large"),
    timing("runtime.asynch.encode_ns", "ns", Lower, "explore_large"),
    count("runtime.asynch.encoded_len", "B", Lower, "explore_large"),
    timing("runtime.sim.step_ns", "ns", Lower, "dsm_sim"),
    // ccr-mc: search, store, Equation 1, progress, engines.
    timing("mc.search.rv_s", "s", Lower, "verify_full"),
    timing("mc.search.async_s", "s", Lower, "*"),
    timing("mc.search.states_per_s", "1/s", Higher, "*"),
    count("mc.search.states", "count", Lower, "*"),
    count("mc.search.transitions", "count", Lower, "*"),
    timing("mc.search.tiny_run_us", "us", Lower, "derive_zoo"),
    timing("mc.store.insert_ns", "ns", Lower, "explore_large"),
    timing("mc.store.hit_ns", "ns", Lower, "explore_large"),
    count("mc.store.bytes_per_state", "B", Lower, "explore_large"),
    timing("mc.simrel.s", "s", Lower, "verify_full"),
    timing("mc.simrel.transitions_per_s", "1/s", Higher, "verify_full"),
    timing("mc.progress.s", "s", Lower, "verify_full"),
    timing("mc.progress.vs_explore", "ratio", Lower, "verify_full"),
    timing("mc.parallel.t1_s", "s", Lower, "explore_par1"),
    timing("mc.parallel.engine_overhead", "ratio", Higher, "explore_par1"),
    timing("mc.parallel.t2_s", "s", Lower, "explore_par1"),
    timing("mc.parallel.speedup_t2", "ratio", Higher, "explore_par1"),
    timing("mc.symmetry.explore_s", "s", Lower, "explore_sym"),
    count("mc.symmetry.orbits", "count", Lower, "explore_sym"),
    timing("mc.symmetry.canon_ns", "ns", Lower, "explore_sym"),
    timing("mc.symmetry.canon_share", "ratio", Lower, "explore_sym"),
    timing("mc.persist.spill_s", "s", Lower, "explore_spill"),
    timing("mc.persist.overhead_ratio", "ratio", Lower, "explore_spill"),
    count("mc.persist.log_bytes", "B", Lower, "explore_spill"),
    timing("mc.persist.restore_s", "s", Lower, "explore_spill"),
    timing("mc.faultmode.closure_s", "s", Lower, "derive_zoo"),
    count("mc.faultmode.states", "count", Lower, "derive_zoo"),
    timing("mc.fuzz.specs_per_s", "1/s", Higher, "derive_zoo"),
    // ccr-dsm: the machine under its workload generators.
    timing("dsm.machine.derived_steps_per_s", "1/s", Higher, "dsm_sim"),
    timing("dsm.machine.noopt_steps_per_s", "1/s", Higher, "dsm_sim"),
    timing("dsm.machine.hand_steps_per_s", "1/s", Higher, "dsm_sim"),
    timing("dsm.machine.msgs_per_s", "1/s", Higher, "dsm_sim"),
    timing("dsm.workload.migrating_steps_per_s", "1/s", Higher, "dsm_sim"),
    timing("dsm.workload.readmostly_steps_per_s", "1/s", Higher, "dsm_sim"),
    timing("dsm.workload.writeheavy_steps_per_s", "1/s", Higher, "dsm_sim"),
    count("dsm.machine.msgs_per_op", "msgs/acq", Lower, "dsm_sim"),
    count("dsm.machine.reqrep_saving", "ratio", Higher, "dsm_sim"),
    count("dsm.machine.nack_rate", "ratio", Lower, "dsm_sim"),
    count("dsm.machine.max_link_occupancy", "count", Lower, "dsm_sim"),
    count("dsm.machine.fairness", "ratio", Higher, "dsm_sim"),
    // The `ccr` process around the layers.
    timing("ccr.process.startup_ms", "ms", Lower, "derive_zoo"),
    timing("ccr.verify.report_ms", "ms", Lower, "*"),
    timing("ccr.verify.unattributed_share", "ratio", Lower, "*"),
    // Telemetry on-cost: wall with the flag over wall without, minus 1.
    timing("metrics.registry.on_cost", "ratio", Lower, "explore_large"),
    timing("metrics.profile.on_cost", "ratio", Lower, "explore_large"),
    timing("metrics.timeseries.on_cost", "ratio", Lower, "explore_large"),
    timing("metrics.status.on_cost", "ratio", Lower, "explore_large"),
    timing("trace.jsonl.on_cost", "ratio", Lower, "explore_large"),
    // The benchmark's own spans.
    timing("bench.trace_overhead_share", "ratio", Lower, "*"),
];

/// One workload: a set of inputs the benchmark runs.
pub struct WorkloadInfo {
    /// Name, as `--workload` takes it.
    pub name: &'static str,
    /// Why it is in the benchmark, in one line.
    pub why: &'static str,
    /// Whether `BENCHMARK.json` lists it. The driver that reads that file
    /// allots a fixed time to all its runs together, and runs long enough
    /// to be steady on a shared host leave room for four workloads; the
    /// other three run under `run.sh` and by name all the same.
    pub listed: bool,
}

/// The workloads, in running order.
pub const WORKLOADS: [WorkloadInfo; 7] = [
    WorkloadInfo {
        name: "verify_full",
        why: "ccr verify migratory n=5: explore, Equation 1 and progress each carry about a third, so a gain in any one shows here",
        listed: true,
    },
    WorkloadInfo {
        name: "explore_large",
        why: "serial engine alone on invalidate n=3 (636,456 states, store far larger than cache): successors, encode and store do all the work",
        listed: true,
    },
    WorkloadInfo {
        name: "explore_par1",
        why: "the same space through the sharded engine with one worker: the engine_overhead gap as a user-visible time",
        listed: false,
    },
    WorkloadInfo {
        name: "explore_sym",
        why: "migratory n=7 under symmetry reduction: canonical_encode dominates and the store is tiny, the reverse of explore_large",
        listed: true,
    },
    WorkloadInfo {
        name: "explore_spill",
        why: "token n=5 with a 64 KiB in-memory budget: the persist log/idx/evict path does most of the work",
        listed: false,
    },
    WorkloadInfo {
        name: "derive_zoo",
        why: "parse, validate and refine (Off, Auto) thousands of generated specs: the only workload where ccr-core works and ccr-mc does not",
        listed: false,
    },
    WorkloadInfo {
        name: "dsm_sim",
        why: "the generated protocol at run time: Machine::run single-steps runtime.asynch under a scheduler, no model checker",
        listed: true,
    },
];

/// Looks up an end-to-end metric by name.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Looks up a per-layer metric by name.
pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// Seconds one run measures, as the driver passes to `--seconds`.
pub const RUN_SECONDS: u32 = 25;

/// The text of the repository's `BENCHMARK.json`, which repeats the
/// tables above for the driver (`ccr-benchmark schema` prints it).
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .filter(|w| w.listed)
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.word(),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.word()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_repeats_these_tables() {
        assert_eq!(include_str!("../../BENCHMARK.json"), benchmark_json());
    }

    #[test]
    fn names_units_and_whys_fit_the_schema() {
        let ok = |s: &str, extra: &str, max: usize| {
            s.len() <= max && s.chars().all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut seen = std::collections::HashSet::new();
        for w in &WORKLOADS {
            assert!(ok(w.name, "_.-", 64) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains(['"', '\\', '\n']), "{}", w.name);
        }
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(ok(name, "_.-", 64) && seen.insert(name), "{name}");
            assert!(ok(unit, "_/%.-", 16), "{name}: unit {unit}");
        }
        for m in &PER_LAYER {
            assert!(m.home == "*" || WORKLOADS.iter().any(|w| w.name == m.home), "{}", m.name);
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }
}
