//! Text rendering of profiles — the terminal stand-in for the Cube
//! browser's metric/call-path views.

use crate::cube::Profile;
use crate::metric::Metric;
use std::fmt::Write;

/// Render the metric tree with inclusive `%_T` values ("Own root
/// percent" view in Cube). Metrics below `min_pct` are skipped.
pub fn metric_table(profile: &Profile, min_pct: f64) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "metric view ({} clock), values in %_T", profile.clock_name);
    fn rec(p: &Profile, m: Metric, depth: usize, min_pct: f64, out: &mut String) {
        let pct = p.pct_t(m);
        if pct >= min_pct || m == Metric::Time {
            let _ =
                writeln!(out, "{:indent$}{:<22} {:>7.2}", "", m.name(), pct, indent = depth * 2);
        }
        for &c in m.children() {
            rec(p, c, depth + 1, min_pct, out);
        }
    }
    rec(profile, Metric::Time, 0, min_pct, &mut out);
    out
}

/// Render the call paths contributing to `metric` ("Metric selection
/// percent" view), sorted descending, skipping entries below `min_pct`.
pub fn callpath_table(profile: &Profile, metric: Metric, min_pct: f64) -> String {
    let mut rows: Vec<(f64, String)> = profile
        .map_c(metric)
        .into_iter()
        .filter(|(_, v)| *v >= min_pct)
        .map(|(c, v)| (v, profile.path_string(c)))
        .collect();
    rows.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
    let mut out = String::new();
    let _ = writeln!(out, "call paths for metric `{}`, values in %_M", metric.name());
    for (v, path) in rows {
        let _ = writeln!(out, "  {v:>7.2}  {path}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calltree::CallTree;
    use nrlt_trace::{LocationDef, RegionDef, RegionRef, RegionRole};

    fn mk() -> Profile {
        let regions = vec![
            RegionDef { name: "main".into(), role: RegionRole::Function },
            RegionDef { name: "kernel".into(), role: RegionRole::Function },
        ];
        let mut ct = CallTree::new();
        let root = ct.intern(None, RegionRef(0));
        let k = ct.intern(Some(root), RegionRef(1));
        let locations = vec![LocationDef { rank: 0, thread: 0, core: 0 }];
        let mut p = Profile::new("tsc".into(), regions, ct, locations);
        p.add(Metric::Comp, k, 0, 80.0);
        p.add(Metric::WaitNxN, root, 0, 20.0);
        p
    }

    #[test]
    fn metric_table_contains_values() {
        let s = metric_table(&mk(), 0.1);
        assert!(s.contains("time"), "{s}");
        assert!(s.contains("comp"), "{s}");
        assert!(s.contains("80.00"), "{s}");
        assert!(s.contains("wait_nxn"), "{s}");
    }

    #[test]
    fn callpath_table_sorted() {
        let s = callpath_table(&mk(), Metric::Comp, 0.0);
        assert!(s.contains("main/kernel"), "{s}");
        assert!(s.contains("100.00"), "{s}");
    }
}
