//! Integration tests for the extension analyses: critical path,
//! combined physical+logical classification, and post-processed clocks
//! — run on real mini-app configurations.

use nrlt::analysis::{assign_lamport_postprocess, combine, critical_path};
use nrlt::miniapps::{LuleshConfig, LuleshCosts, MiniFeConfig, MiniFeCosts};
use nrlt::prelude::*;

fn minife_small() -> BenchmarkInstance {
    MiniFeConfig {
        nx: 120,
        ranks: 4,
        threads_per_rank: 4,
        imbalance_pct: 50,
        cg_iters: 20,
        costs: MiniFeCosts::default(),
    }
    .build()
}

#[test]
fn critical_path_agrees_across_clocks_on_the_top_routine() {
    let instance = minife_small();
    let cfg = ExecConfig::jureca(1, instance.layout.clone(), 11);
    let mut tops = Vec::new();
    for mode in [ClockMode::Tsc, ClockMode::LtStmt] {
        let (trace, _) = measure(&instance.program, &cfg, &MeasureConfig::new(mode));
        let cp = critical_path(&trace);
        assert!(cp.length > 0);
        assert!(
            cp.attributed_fraction() > 0.25,
            "{mode}: a substantial share of the path is attributable ({:.2})",
            cp.attributed_fraction()
        );
        // The path must spend most of its time on the heavy ranks' code.
        let (top, _) = cp.by_callpath()[0];
        tops.push(cp.call_tree.path_string(top, |r| trace.defs.region(r).name.clone()));
    }
    // Both clocks agree on the dominant routine class (assembly/matvec).
    for t in &tops {
        assert!(
            t.contains("assemble") || t.contains("matvec") || t.contains("structure"),
            "unexpected top of critical path: {t}"
        );
    }
}

#[test]
fn combined_analysis_classifies_lulesh2_as_extrinsic() {
    let instance = LuleshConfig {
        ranks: 27,
        threads_per_rank: 4,
        edge: 30,
        steps: 10,
        imbalance: 0.0,
        spread_placement: true,
        nodes: 1,
        costs: LuleshCosts::default(),
    }
    .build();
    let cfg = ExecConfig::jureca(1, instance.layout.clone(), 21);
    let (pt, _) = measure(&instance.program, &cfg, &MeasureConfig::new(ClockMode::Tsc));
    let (lt, _) = measure(&instance.program, &cfg, &MeasureConfig::new(ClockMode::LtStmt));
    let report = combine(&analyze(&pt), &analyze(&lt));
    assert!(
        report.extrinsic_total() > report.intrinsic_total() * 3.0,
        "balanced work on uneven NUMA must be classified extrinsic: \
         intrinsic {:.2} vs extrinsic {:.2}",
        report.intrinsic_total(),
        report.extrinsic_total()
    );
    assert!(!report.extrinsic_hotspots(0.05).is_empty());
}

#[test]
fn postprocessed_lamport_matches_online_lt1_structure() {
    // Ravel-style post-processing of a physical trace yields timestamps
    // that satisfy the clock condition, like the online lt_1.
    let instance = minife_small();
    let cfg = ExecConfig::jureca(1, instance.layout.clone(), 41);
    let (trace, _) = measure(&instance.program, &cfg, &MeasureConfig::new(ClockMode::Tsc));
    let stamps = assign_lamport_postprocess(&trace);
    for (loc, stream) in stamps.iter().enumerate() {
        for w in stream.windows(2) {
            assert!(w[0] < w[1], "location {loc}: post-processed stamps must increase");
        }
    }
}
