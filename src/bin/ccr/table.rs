//! `ccr table`: the per-N reachability comparison of the paper's Table 3.

use crate::flags::Parsed;
use crate::telemetry::Run;
use crate::verify::NOT_PERMUTABLE;
use crate::{engine_threads, refined};
use ccr_core::process::ProtocolSpec;
use ccr_mc::search::{Budget, Search};
use ccr_metrics::Registry;
use ccr_runtime::asynch::{AsyncConfig, AsyncSystem};
use ccr_runtime::rendezvous::RendezvousSystem;
use serde::Serializer;
use std::process::ExitCode;

pub fn run(p: &Parsed, spec: &ProtocolSpec, registry: Registry) -> Result<ExitCode, ExitCode> {
    let budget = Budget::states(p.num("--budget") as usize);
    let refined = refined(p, spec, &registry)?;
    let mut run = Run::start(p, registry)?;
    let json = p.on("--json");
    // `table` reproduces the paper's Table 3, so `auto` keeps the
    // concrete (unreduced) counts; only an explicit `--symmetry on`
    // switches the cells to orbit counts (and only when the spec passes
    // the scalarset check).
    let asked_on = p.text("--symmetry").as_deref() == Some("on");
    let reduce = asked_on && ccr_mc::spec_permutable(spec);
    if !json {
        if asked_on && !reduce {
            println!("symmetry: on -> off ({NOT_PERMUTABLE})");
        } else if reduce {
            println!("symmetry: on (cells count orbits, not concrete states)");
        }
        println!("| {:>3} | {:>18} | {:>18} |", "N", "asynchronous", "rendezvous");
    }
    let search = Search { threads: engine_threads(p), ..Search::default() };
    let mut rows = Vec::new();
    for n in 1..=p.num("-n") as u32 {
        let rv = RendezvousSystem::new(spec, n);
        let rv = run.explore(&search, &rv, reduce, "explore/rendezvous", &budget).explore_report();
        let asy = AsyncSystem::new(&refined, n, AsyncConfig::default());
        let asy = run.explore(&search, &asy, reduce, "explore/async", &budget).explore_report();
        if !json {
            println!("| {:>3} | {:>18} | {:>18} |", n, asy.table_cell(), rv.table_cell());
        }
        rows.push((n, asy, rv));
    }
    if json {
        let _p = run.telemetry.registry.phase("report");
        let mut s = Serializer::new();
        {
            let mut m = s.begin_map();
            m.entry("spec", spec.name.as_str());
            m.entry("command", "table");
            m.entry("budget_states", &budget.max_states);
            m.entry("symmetry", if reduce { "on" } else { "off" });
            m.entry_with("rows", |ser| {
                let mut seq = ser.begin_seq();
                for (n, asy, rv) in &rows {
                    seq.elem_with(|ser| {
                        let mut row = ser.begin_map();
                        row.entry("n", n);
                        row.entry("asynchronous", asy);
                        row.entry("rendezvous", rv);
                        row.end();
                    });
                }
                seq.end();
            });
            m.end();
        }
        println!("{}", s.into_string());
    }
    run.profile_out(!json)?;
    run.finish(rows.last().map(|(_, asy, _)| asy.clone()))?;
    Ok(ExitCode::SUCCESS)
}
