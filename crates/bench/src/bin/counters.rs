//! Future-work study: alternative hardware counters for `lt_hwctr`
//! (Section VI-B: "Experiments with different hardware counters and
//! combinations of hardware counters might lead to a better model").
//!
//! Compares three virtual counters on MiniFE-1 and LULESH-2:
//! instructions (the paper's), memory traffic, and a combined model.

use nrlt_bench::{header, Harness};
use nrlt_core::measure_config_for;
use nrlt_core::measure_sys::HwCounterSource;
use nrlt_core::prelude::*;

fn options() -> ExperimentOptions {
    ExperimentOptions { repetitions: 3, ..Default::default() }
}

fn main() {
    let mut h = Harness::from_env("counters");
    let sources = [
        ("instructions", HwCounterSource::Instructions),
        ("mem_traffic", HwCounterSource::MemoryTraffic),
        ("combined", HwCounterSource::Combined { bytes_weight: 0.4 }),
    ];

    for instance in [minife_1(), lulesh_2()] {
        header(&format!("hwctr counter study on {}", instance.name));
        let tsc = h.run_mode(&instance, measure_config_for(&instance, ClockMode::Tsc), &options());
        let tsc_map = tsc.mean.map_mc();
        println!(
            "{:<14} {:>9} {:>9} | {:>7} {:>7} {:>7}",
            "counter", "J vs tsc", "r2r J", "comp", "nxn", "ls"
        );
        println!(
            "{:<14} {:>9} {:>9} | {:>7.1} {:>7.1} {:>7.1}",
            "(tsc itself)",
            "1.00",
            format!("{:.3}", tsc.min_run_to_run_jaccard()),
            tsc.mean.pct_t(Metric::Comp),
            tsc.mean.pct_t(Metric::WaitNxN),
            tsc.mean.pct_t(Metric::LateSender),
        );
        for (name, source) in sources {
            let mut mcfg = measure_config_for(&instance, ClockMode::LtHwctr);
            mcfg.effort.hwctr_source = source;
            let res = h.run_mode(&instance, mcfg, &options());
            println!(
                "{:<14} {:>9.3} {:>9.3} | {:>7.1} {:>7.1} {:>7.1}",
                name,
                jaccard(&tsc_map, &res.mean.map_mc()),
                res.min_run_to_run_jaccard(),
                res.mean.pct_t(Metric::Comp),
                res.mean.pct_t(Metric::WaitNxN),
                res.mean.pct_t(Metric::LateSender),
            );
        }
        println!();
    }
    println!("The traffic counter is exactly repeatable (no spin ticks) but loses");
    println!("the extrinsic waits that made instructions interesting; the combined");
    println!("counter trades between the two — the design space the paper sketches.");
    h.finish();
}
