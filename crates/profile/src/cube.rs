//! The profile cube: severity values over (metric, call path, location).
//!
//! The Cube analog. Severities are stored exclusively in both the metric
//! and call-path dimensions; inclusive views aggregate over subtrees.
//! Values are in the trace's own unit (virtual nanoseconds or logical
//! ticks) — the normalised views (`%_T`, `%_M`) divide them away, which
//! is how the paper compares measurements taken with different clocks.

use crate::calltree::{CallPathId, CallTree};
use crate::metric::Metric;
use nrlt_trace::{LocationDef, RegionDef, RegionRef};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A measurement profile.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Clock that produced the underlying trace (`tsc`, `lt_bb`, …).
    pub clock_name: String,
    /// Region definitions (names for call-path rendering), shared with
    /// the trace that produced the profile (and its sibling repetitions).
    pub regions: Arc<Vec<RegionDef>>,
    /// The call-path tree.
    pub call_tree: CallTree,
    /// Location definitions, shared like [`Profile::regions`].
    pub locations: Arc<Vec<LocationDef>>,
    /// Exclusive severities: `(metric, call path) → per-location values`.
    /// Ordered so sums over cells accumulate in one fixed order.
    sev: BTreeMap<(Metric, CallPathId), Vec<f64>>,
}

impl Profile {
    /// Empty profile over the given definition tables.
    pub fn new(
        clock_name: String,
        regions: impl Into<Arc<Vec<RegionDef>>>,
        call_tree: CallTree,
        locations: impl Into<Arc<Vec<LocationDef>>>,
    ) -> Self {
        Profile {
            clock_name,
            regions: regions.into(),
            call_tree,
            locations: locations.into(),
            sev: BTreeMap::new(),
        }
    }

    /// Number of locations.
    pub fn n_locations(&self) -> usize {
        self.locations.len()
    }

    /// Add `value` to the exclusive severity of `(metric, path, location)`.
    pub fn add(&mut self, metric: Metric, path: CallPathId, location: usize, value: f64) {
        debug_assert!(value >= 0.0, "severities are non-negative ({metric:?}: {value})");
        debug_assert!(location < self.locations.len());
        let cell =
            self.sev.entry((metric, path)).or_insert_with(|| vec![0.0; self.locations.len()]);
        cell[location] += value;
    }

    /// Exclusive severity of one cell.
    pub fn get(&self, metric: Metric, path: CallPathId, location: usize) -> f64 {
        self.sev.get(&(metric, path)).map_or(0.0, |v| v[location])
    }

    /// Exclusive severity summed over locations.
    pub fn excl(&self, metric: Metric, path: CallPathId) -> f64 {
        self.sev.get(&(metric, path)).map_or(0.0, |v| v.iter().sum())
    }

    /// Exclusive severity of a metric summed over call paths and
    /// locations.
    pub fn metric_excl_total(&self, metric: Metric) -> f64 {
        self.sev.iter().filter(|((m, _), _)| *m == metric).map(|(_, v)| v.iter().sum::<f64>()).sum()
    }

    /// Inclusive severity of a metric (its whole subtree), summed over
    /// call paths and locations. This is the number behind "`5 %_T` in
    /// MPI".
    pub fn metric_incl_total(&self, metric: Metric) -> f64 {
        metric.subtree().into_iter().map(|m| self.metric_excl_total(m)).sum()
    }

    /// Total reported effort: inclusive `time`.
    pub fn total_time(&self) -> f64 {
        self.metric_incl_total(Metric::Time)
    }

    /// A metric's inclusive total as a percentage of total time (`%_T`).
    pub fn pct_t(&self, metric: Metric) -> f64 {
        let total = self.total_time();
        if total == 0.0 {
            0.0
        } else {
            100.0 * self.metric_incl_total(metric) / total
        }
    }

    /// Inclusive severity of `metric` at `path` including the call-path
    /// subtree, summed over locations.
    pub fn incl_at(&self, metric: Metric, path: CallPathId) -> f64 {
        let mut total = 0.0;
        let mut stack = vec![path];
        while let Some(p) = stack.pop() {
            for m in metric.subtree() {
                total += self.excl(m, p);
            }
            stack.extend_from_slice(self.call_tree.children(p));
        }
        total
    }

    /// The `(metric, call path) → %_T` mapping over the time hierarchy,
    /// used for the paper's J_(M,C) score. Exclusive in both dimensions;
    /// zero cells are omitted.
    pub fn map_mc(&self) -> BTreeMap<(Metric, CallPathId), f64> {
        let total = self.total_time();
        if total == 0.0 {
            return BTreeMap::new();
        }
        let mut out = BTreeMap::new();
        for (&(m, c), v) in &self.sev {
            if !m.is_time_metric() {
                continue;
            }
            let s: f64 = v.iter().sum();
            if s > 0.0 {
                out.insert((m, c), 100.0 * s / total);
            }
        }
        out
    }

    /// The `call path → %_M` mapping for one metric (inclusive over the
    /// metric subtree, exclusive per call path), used for the paper's
    /// J_C^metric score and the stacked-bar figures.
    pub fn map_c(&self, metric: Metric) -> BTreeMap<CallPathId, f64> {
        let mut raw: BTreeMap<CallPathId, f64> = BTreeMap::new();
        for m in metric.subtree() {
            for (&(mm, c), v) in &self.sev {
                if mm == m {
                    let s: f64 = v.iter().sum();
                    if s > 0.0 {
                        *raw.entry(c).or_insert(0.0) += s;
                    }
                }
            }
        }
        let total: f64 = raw.values().sum();
        if total == 0.0 {
            return BTreeMap::new();
        }
        raw.into_iter().map(|(c, v)| (c, 100.0 * v / total)).collect()
    }

    /// Sum a metric (inclusive) over one location.
    pub fn metric_at_location(&self, metric: Metric, location: usize) -> f64 {
        metric
            .subtree()
            .into_iter()
            .map(|m| {
                self.sev
                    .iter()
                    .filter(|((mm, _), _)| *mm == m)
                    .map(|(_, v)| v[location])
                    .sum::<f64>()
            })
            .sum()
    }

    /// Render a call-path id as `a/b/c`.
    pub fn path_string(&self, path: CallPathId) -> String {
        let regions = &self.regions;
        self.call_tree.path_string(path, |r: RegionRef| regions[r.0 as usize].name.clone())
    }

    /// Find a call path by rendered string.
    pub fn find_path(&self, s: &str) -> Option<CallPathId> {
        let regions = &self.regions;
        self.call_tree.find_by_string(s, |r: RegionRef| regions[r.0 as usize].name.clone())
    }

    /// Find the first call path ending in a region with the given name.
    pub fn find_path_by_region(&self, region_name: &str) -> Option<CallPathId> {
        self.call_tree
            .iter()
            .find(|&id| self.regions[self.call_tree.region(id).0 as usize].name == region_name)
    }

    /// Cell-wise arithmetic mean of several same-shape profiles (the
    /// paper averages five repetitions). Panics on shape mismatch.
    pub fn mean(profiles: &[Profile]) -> Profile {
        assert!(!profiles.is_empty(), "mean of zero profiles");
        let first = &profiles[0];
        for p in profiles {
            assert_eq!(p.call_tree.len(), first.call_tree.len(), "call-tree shape mismatch");
            assert_eq!(p.locations.len(), first.locations.len(), "location mismatch");
        }
        let mut out = Profile::new(
            first.clock_name.clone(),
            first.regions.clone(),
            first.call_tree.clone(),
            first.locations.clone(),
        );
        let n = profiles.len() as f64;
        for p in profiles {
            for (&(m, c), v) in &p.sev {
                let cell =
                    out.sev.entry((m, c)).or_insert_with(|| vec![0.0; first.locations.len()]);
                for (o, x) in cell.iter_mut().zip(v) {
                    *o += x / n;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrlt_trace::RegionRole;

    fn mk() -> Profile {
        let regions = vec![
            RegionDef { name: "main".into(), role: RegionRole::Function },
            RegionDef { name: "solve".into(), role: RegionRole::Function },
            RegionDef { name: "MPI_Allreduce".into(), role: RegionRole::MpiApi },
        ];
        let mut ct = CallTree::new();
        let root = ct.intern(None, RegionRef(0));
        let solve = ct.intern(Some(root), RegionRef(1));
        let ar = ct.intern(Some(solve), RegionRef(2));
        let locations = vec![
            LocationDef { rank: 0, thread: 0, core: 0 },
            LocationDef { rank: 1, thread: 0, core: 16 },
        ];
        let mut p = Profile::new("tsc".into(), regions, ct, locations);
        p.add(Metric::Comp, root, 0, 10.0);
        p.add(Metric::Comp, solve, 0, 50.0);
        p.add(Metric::Comp, solve, 1, 70.0);
        p.add(Metric::WaitNxN, ar, 0, 30.0);
        p.add(Metric::MpiCollective, ar, 1, 10.0);
        let _ = (root, solve, ar);
        p
    }

    #[test]
    fn totals_and_percentages() {
        let p = mk();
        assert_eq!(p.total_time(), 170.0);
        assert_eq!(p.metric_incl_total(Metric::Comp), 130.0);
        assert_eq!(p.metric_incl_total(Metric::Mpi), 40.0);
        assert_eq!(p.metric_excl_total(Metric::MpiCollective), 10.0);
        assert!((p.pct_t(Metric::Mpi) - 100.0 * 40.0 / 170.0).abs() < 1e-9);
    }

    #[test]
    fn inclusive_at_path_includes_children() {
        let p = mk();
        let root = p.find_path("main").unwrap();
        let solve = p.find_path("main/solve").unwrap();
        assert_eq!(p.incl_at(Metric::Time, root), 170.0);
        assert_eq!(p.incl_at(Metric::Time, solve), 160.0);
        assert_eq!(p.incl_at(Metric::Comp, solve), 120.0);
    }

    #[test]
    fn map_mc_normalises_to_pct_t() {
        let p = mk();
        let mc = p.map_mc();
        let total: f64 = mc.values().sum();
        assert!((total - 100.0).abs() < 1e-9, "exclusive cells must cover 100%: {total}");
    }

    #[test]
    fn map_c_normalises_per_metric() {
        let p = mk();
        let c = p.map_c(Metric::Comp);
        let total: f64 = c.values().sum();
        assert!((total - 100.0).abs() < 1e-9);
        let solve = p.find_path("main/solve").unwrap();
        assert!((c[&solve] - 100.0 * 120.0 / 130.0).abs() < 1e-9);
    }

    #[test]
    fn per_location_view() {
        let p = mk();
        assert_eq!(p.metric_at_location(Metric::Time, 0), 90.0);
        assert_eq!(p.metric_at_location(Metric::Time, 1), 80.0);
    }

    #[test]
    fn mean_averages_cells() {
        let a = mk();
        let mut b = mk();
        let solve = b.find_path("main/solve").unwrap();
        b.add(Metric::Comp, solve, 0, 100.0);
        let m = Profile::mean(&[a.clone(), b]);
        let solve = m.find_path("main/solve").unwrap();
        assert!((m.get(Metric::Comp, solve, 0) - 100.0).abs() < 1e-9); // (50+150)/2
        assert!((m.get(Metric::Comp, solve, 1) - 70.0).abs() < 1e-9);
        let _ = a;
    }

    #[test]
    fn find_by_region_name() {
        let p = mk();
        assert_eq!(p.find_path_by_region("MPI_Allreduce"), p.find_path("main/solve/MPI_Allreduce"));
        assert_eq!(p.find_path_by_region("nope"), None);
    }
}
