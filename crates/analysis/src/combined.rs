//! Combined physical + logical analysis.
//!
//! The paper's discussion (Section VI) points out that "using the
//! combined results from a physical and a logical measurement, it is
//! possible to differentiate intrinsic wait states caused by uneven work
//! distribution from extrinsic wait states due to uneven resource
//! distribution" — and names such an analysis as future work. This
//! module implements it.
//!
//! The idea: normalise both profiles to fractions of their total effort.
//! A wait state that appears under the logical clock reflects an
//! *algorithmic* (intrinsic) imbalance — the effort model alone predicts
//! it. Wait time that only the physical clock sees must come from
//! *extrinsic* sources: resource contention, noise, system interference.
//! Per (wait metric, call path) cell:
//!
//! ```text
//! intrinsic  = min(physical, logical)
//! extrinsic  = max(0, physical − logical)
//! masked     = max(0, logical − physical)   // logical-only artefacts
//! ```
//!
//! `masked` is the honesty term: effort models also *over*-predict waits
//! (e.g. `lt_loop`'s late senders in MiniFE-1, which the paper calls
//! misleading); those cells are reported instead of being silently
//! folded into "intrinsic".

use nrlt_profile::{CallPathId, Metric, Profile};
use std::collections::HashMap;

/// Wait-state metrics subject to the intrinsic/extrinsic split.
pub const WAIT_METRICS: [Metric; 4] =
    [Metric::LateSender, Metric::LateReceiver, Metric::WaitNxN, Metric::OmpBarrierWait];

/// One classified wait cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CombinedCell {
    /// Wait metric.
    pub metric: Metric,
    /// Call path (valid in both profiles — see [`combine`]).
    pub path: CallPathId,
    /// Rendered call path.
    pub path_string: String,
    /// Physical severity, %_T of the physical profile.
    pub physical: f64,
    /// Logical severity, %_T of the logical profile.
    pub logical: f64,
    /// Wait fraction predicted by both: algorithmic imbalance.
    pub intrinsic: f64,
    /// Wait fraction only the physical clock sees: resource contention,
    /// noise, interference.
    pub extrinsic: f64,
    /// Wait fraction only the effort model predicts: a bias of the
    /// logical model, to be distrusted.
    pub masked: f64,
}

/// The combined analysis result.
#[derive(Debug, Clone, Default)]
pub struct CombinedReport {
    /// Per-cell classification, sorted by descending physical severity.
    pub cells: Vec<CombinedCell>,
}

impl CombinedReport {
    /// Total intrinsic wait, %_T.
    pub fn intrinsic_total(&self) -> f64 {
        self.cells.iter().map(|c| c.intrinsic).sum()
    }

    /// Total extrinsic wait, %_T.
    pub fn extrinsic_total(&self) -> f64 {
        self.cells.iter().map(|c| c.extrinsic).sum()
    }

    /// Total logical-only (model-bias) wait, %_T.
    pub(crate) fn masked_total(&self) -> f64 {
        self.cells.iter().map(|c| c.masked).sum()
    }

    /// The dominant extrinsic cells (above `min_pct` %_T).
    pub fn extrinsic_hotspots(&self, min_pct: f64) -> Vec<&CombinedCell> {
        let mut v: Vec<&CombinedCell> =
            self.cells.iter().filter(|c| c.extrinsic >= min_pct).collect();
        v.sort_by(|a, b| b.extrinsic.partial_cmp(&a.extrinsic).unwrap());
        v
    }

    /// Render as a table.
    pub fn render(&self, min_pct: f64) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<16} {:<48} {:>8} {:>8} {:>9} {:>9} {:>7}",
            "metric", "call path", "phys%_T", "log%_T", "intrinsic", "extrinsic", "masked"
        );
        for c in &self.cells {
            if c.physical.max(c.logical) < min_pct {
                continue;
            }
            let path = if c.path_string.len() > 46 {
                format!("…{}", &c.path_string[c.path_string.len() - 45..])
            } else {
                c.path_string.clone()
            };
            let _ = writeln!(
                out,
                "{:<16} {:<48} {:>8.2} {:>8.2} {:>9.2} {:>9.2} {:>7.2}",
                c.metric.name(),
                path,
                c.physical,
                c.logical,
                c.intrinsic,
                c.extrinsic,
                c.masked
            );
        }
        let _ = writeln!(
            out,
            "totals: intrinsic {:.2}%_T, extrinsic {:.2}%_T, model-bias {:.2}%_T",
            self.intrinsic_total(),
            self.extrinsic_total(),
            self.masked_total()
        );
        out
    }
}

/// Combine a physical-clock profile with a logical-clock profile of the
/// same configuration.
///
/// Both profiles must come from the same program structure (same regions
/// and call-path ids — guaranteed when they were measured from the same
/// `Program`). Panics if the call trees have different shapes.
pub fn combine(physical: &Profile, logical: &Profile) -> CombinedReport {
    assert_eq!(
        physical.call_tree.len(),
        logical.call_tree.len(),
        "profiles must come from the same program"
    );
    let pt = physical.total_time();
    let lt = logical.total_time();
    assert!(pt > 0.0 && lt > 0.0, "profiles must be non-empty");

    let mut cells = Vec::new();
    for metric in WAIT_METRICS {
        // Per-call-path severities, normalised to %_T of each profile.
        let mut keys: HashMap<CallPathId, (f64, f64)> = HashMap::new();
        for path in physical.call_tree.iter() {
            let p = physical.excl(metric, path) / pt * 100.0;
            let l = logical.excl(metric, path) / lt * 100.0;
            if p > 1e-9 || l > 1e-9 {
                keys.insert(path, (p, l));
            }
        }
        for (path, (p, l)) in keys {
            cells.push(CombinedCell {
                metric,
                path,
                path_string: physical.path_string(path),
                physical: p,
                logical: l,
                intrinsic: p.min(l),
                extrinsic: (p - l).max(0.0),
                masked: (l - p).max(0.0),
            });
        }
    }
    cells.sort_by(|a, b| {
        b.physical.partial_cmp(&a.physical).unwrap().then_with(|| a.path_string.cmp(&b.path_string))
    });
    CombinedReport { cells }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrlt_profile::CallTree;
    use nrlt_trace::{LocationDef, RegionDef, RegionRef, RegionRole};

    fn profile(name: &str, comp: f64, nxn: f64, ls: f64) -> Profile {
        let regions = vec![
            RegionDef { name: "main".into(), role: RegionRole::Function },
            RegionDef { name: "MPI_Allreduce".into(), role: RegionRole::MpiApi },
            RegionDef { name: "MPI_Recv".into(), role: RegionRole::MpiApi },
        ];
        let mut ct = CallTree::new();
        let root = ct.intern(None, RegionRef(0));
        let ar = ct.intern(Some(root), RegionRef(1));
        let rv = ct.intern(Some(root), RegionRef(2));
        let locations = vec![LocationDef { rank: 0, thread: 0, core: 0 }];
        let mut p = Profile::new(name.into(), regions, ct, locations);
        p.add(Metric::Comp, root, 0, comp);
        p.add(Metric::WaitNxN, ar, 0, nxn);
        p.add(Metric::LateSender, rv, 0, ls);
        p
    }

    #[test]
    fn intrinsic_extrinsic_split() {
        // Physical: 60 comp, 25 nxn, 15 ls. Logical: 80 comp, 20 nxn, 0 ls.
        let phys = profile("tsc", 60.0, 25.0, 15.0);
        let log = profile("lt_stmt", 80.0, 20.0, 0.0);
        let rep = combine(&phys, &log);
        // nxn: phys 25%, log 20% → intrinsic 20, extrinsic 5.
        let nxn = rep.cells.iter().find(|c| c.metric == Metric::WaitNxN).unwrap();
        assert!((nxn.intrinsic - 20.0).abs() < 1e-9);
        assert!((nxn.extrinsic - 5.0).abs() < 1e-9);
        assert_eq!(nxn.masked, 0.0);
        // ls: only physical → fully extrinsic.
        let ls = rep.cells.iter().find(|c| c.metric == Metric::LateSender).unwrap();
        assert_eq!(ls.intrinsic, 0.0);
        assert!((ls.extrinsic - 15.0).abs() < 1e-9);
        assert!((rep.extrinsic_total() - 20.0).abs() < 1e-9);
        assert!((rep.intrinsic_total() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn model_bias_is_reported_as_masked() {
        // The logical model invents a late sender the physical run lacks
        // (lt_loop in MiniFE-1).
        let phys = profile("tsc", 90.0, 10.0, 0.0);
        let log = profile("lt_loop", 84.0, 10.0, 6.0);
        let rep = combine(&phys, &log);
        let ls = rep.cells.iter().find(|c| c.metric == Metric::LateSender).unwrap();
        assert!((ls.masked - 6.0).abs() < 1e-9);
        assert_eq!(ls.extrinsic, 0.0);
        assert!((rep.masked_total() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn render_contains_totals() {
        let rep = combine(&profile("tsc", 50.0, 50.0, 0.0), &profile("lt_bb", 50.0, 50.0, 0.0));
        let s = rep.render(0.1);
        assert!(s.contains("intrinsic 50.00%_T"), "{s}");
        assert!(s.contains("wait_nxn"), "{s}");
    }

    #[test]
    fn hotspots_sorted_by_extrinsic() {
        let phys = profile("tsc", 40.0, 30.0, 30.0);
        let log = profile("lt_stmt", 90.0, 10.0, 0.0);
        let rep = combine(&phys, &log);
        let hs = rep.extrinsic_hotspots(1.0);
        assert_eq!(hs.len(), 2);
        assert!(hs[0].extrinsic >= hs[1].extrinsic);
        assert_eq!(hs[0].metric, Metric::LateSender);
    }

    #[test]
    #[should_panic(expected = "same program")]
    fn mismatched_profiles_rejected() {
        let phys = profile("tsc", 50.0, 50.0, 0.0);
        let regions = vec![RegionDef { name: "m".into(), role: RegionRole::Function }];
        let mut ct = CallTree::new();
        ct.intern(None, RegionRef(0));
        let log = Profile::new(
            "lt".into(),
            regions,
            ct,
            vec![LocationDef { rank: 0, thread: 0, core: 0 }],
        );
        combine(&phys, &log);
    }
}
