//! Resource observatory: watch the simulated machine underneath a
//! measured run.
//!
//! Runs MiniFE-1 under realistic noise with the `nrlt-observe` layer
//! attached, then answers the observatory's three questions from the
//! recorded bundle: which resource is most contended in each program
//! phase, how much noise each channel injected, and — for the most
//! severe wait state the analysis found — the causal chain of events
//! and the share of injected noise inside its causal window.
//!
//! Run with: `cargo run --release --example resource_observatory`

use nrlt::observe::export::ObserveBundle;
use nrlt::observe::query::{dominant_wait, noise_shares, top_contended};
use nrlt::observe::Observe;
use nrlt::prelude::*;
use nrlt::run_mode_with_instrumented;

fn main() {
    let instance = minife_1();
    let options = ExperimentOptions {
        noise: NoiseConfig::realistic(),
        repetitions: 1,
        base_seed: 4242,
        modes: vec![ClockMode::Tsc],
        jobs: 0,
        trace_budget: None,
    };

    // One physical-clock run with the observatory attached.
    let obs = Observe::new();
    let mcfg = nrlt::measure_config_for(&instance, ClockMode::Tsc);
    run_mode_with_instrumented(&instance, mcfg, &options, None, Some(&obs), None);
    let bundle = ObserveBundle::from_observe(&obs);
    let run_name = format!("{}:tsc:rep0", instance.name);
    let data = &bundle.runs[&run_name];

    println!("observed run: {run_name}");

    // Progress watermarks are nanosecond-valued and would drown the
    // occupancy/depth counters in a by-mean ranking; skip them here.
    println!("\ntop contended resource per phase (by mean sample):");
    for (phase, rows) in top_contended(data, 64) {
        let label = if phase.is_empty() { "(outside phases)".into() } else { phase };
        if let Some(c) = rows.iter().find(|c| !c.series.ends_with(".progress_ns")) {
            println!(
                "  {:<16} {:<28} mean {:>10.1}  max {:>8}  over {} samples",
                label, c.series, c.mean, c.max, c.count
            );
        }
    }

    println!("\nnoise injected per channel (all ranks, all phases):");
    let mut channels: std::collections::BTreeMap<&str, (u64, u64)> = Default::default();
    for ((kind, _, _), agg) in &data.noise_aggs {
        let e = channels.entry(kind.name()).or_default();
        e.0 += agg.count;
        e.1 += agg.delay_ns;
    }
    for (name, (count, delay)) in channels {
        println!("  {name:<12} {count:>7} draws  {delay:>14} ns of injected delay");
    }

    if let Some((name, wait)) = dominant_wait(data) {
        println!("\ndominant wait state: {name}");
        println!(
            "  {} waited {} ns at {} (loc {})",
            wait.metric, wait.severity, wait.waiter_path, wait.waiter_loc
        );
        println!("  released by {} (loc {})", wait.delayer_path, wait.delayer_loc);
        let share = if wait.severity == 0 {
            0.0
        } else {
            100.0 * wait.noise_ns as f64 / wait.severity as f64
        };
        println!(
            "  injected noise inside its causal window: {} ns ({share:.1}% of the wait)",
            wait.noise_ns
        );
        println!("  causal chain (oldest first):");
        for link in &wait.chain {
            println!(
                "    {:<8} loc {:<3} [{:>12} .. {:>12}]  {}",
                link.what, link.loc, link.start, link.end, link.path
            );
        }
    }

    // The same decomposition per metric cell, over every wait the
    // analysis found (not just the retained provenance records).
    println!("\nnoise share per wait-metric cell (top 5 by severity):");
    for s in noise_shares(data).into_iter().take(5) {
        println!(
            "  {:<24} {:<40} severity {:>12}  noise share {:>5.1}%",
            s.metric, s.path, s.severity, s.share_pct
        );
    }
}
