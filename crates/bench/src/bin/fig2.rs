//! Figure 2: MiniFE-2 matrix-structure-generation run time — the five
//! repetitions and their mean, per measurement method.

use nrlt_bench::{header, modes, paper_options, Harness};
use nrlt_core::measure_config_for;
use nrlt_core::prelude::*;

fn main() {
    let mut h = Harness::from_env("fig2");
    header("Fig 2: MiniFE-2 run-time for matrix structure generation");
    let instance = minife_2();
    let options = paper_options();
    // Reference repetitions.
    let res = h.run_experiment(&instance, &ExperimentOptions { modes: vec![], ..options.clone() });
    let ref_times: Vec<f64> = res
        .reference
        .iter()
        .map(|r| {
            let id = res.phase_names.iter().position(|p| p == "structure_gen").unwrap();
            r.phase_max(nrlt_core::prog::PhaseId(id as u32)).as_secs_f64()
        })
        .collect();
    print_row("reference", &ref_times);
    for mode in modes() {
        let m = h.run_mode(&instance, measure_config_for(&instance, mode), &options);
        let times: Vec<f64> =
            m.phase_times.iter().map(|p| p["structure_gen"].as_secs_f64()).collect();
        print_row(mode.name(), &times);
    }
    println!("\n(each column one repetition; mean in the last column — logical modes");
    println!(" without hardware-counter reads run once, as in the paper's protocol)");
    h.finish();
}

fn print_row(label: &str, times: &[f64]) {
    let mean: f64 = times.iter().sum::<f64>() / times.len() as f64;
    print!("{label:<10}");
    for t in times {
        print!(" {t:>7.3}s");
    }
    println!("  | mean {mean:>7.3}s");
}
