//! System-dimension views: the third Cube axis.
//!
//! Scalasca's system tree runs job → node → rank → thread; the
//! per-location imbalance summary of a metric lives here.

use crate::cube::Profile;
use crate::metric::Metric;

/// Distribution summary of a metric across locations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocationSpread {
    /// Smallest per-location inclusive value.
    pub min: f64,
    /// Mean per-location inclusive value.
    pub mean: f64,
    /// Largest per-location inclusive value.
    pub max: f64,
    /// Location index holding the maximum.
    pub argmax: usize,
    /// Imbalance ratio `max / mean` (1 = perfectly balanced; the classic
    /// "percent imbalance" is `(ratio − 1) × 100`).
    pub imbalance: f64,
}

/// Summarise `metric` (inclusive) across all locations.
pub fn location_spread(profile: &Profile, metric: Metric) -> LocationSpread {
    let n = profile.n_locations().max(1);
    let values: Vec<f64> = (0..n).map(|l| profile.metric_at_location(metric, l)).collect();
    let min = values.iter().cloned().fold(f64::MAX, f64::min);
    let max = values.iter().cloned().fold(f64::MIN, f64::max);
    let argmax = values
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .map(|(i, _)| i)
        .unwrap_or(0);
    let mean = values.iter().sum::<f64>() / n as f64;
    LocationSpread { min, mean, max, argmax, imbalance: if mean > 0.0 { max / mean } else { 1.0 } }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calltree::CallTree;
    use nrlt_trace::{LocationDef, RegionDef, RegionRef, RegionRole};

    fn profile() -> Profile {
        let regions = vec![RegionDef { name: "main".into(), role: RegionRole::Function }];
        let mut ct = CallTree::new();
        let root = ct.intern(None, RegionRef(0));
        let locations = vec![
            LocationDef { rank: 0, thread: 0, core: 0 },
            LocationDef { rank: 0, thread: 1, core: 1 },
            LocationDef { rank: 1, thread: 0, core: 16 },
            LocationDef { rank: 1, thread: 1, core: 17 },
        ];
        let mut p = Profile::new("tsc".into(), regions, ct, locations);
        p.add(Metric::Comp, root, 0, 10.0);
        p.add(Metric::Comp, root, 1, 20.0);
        p.add(Metric::Comp, root, 2, 30.0);
        p.add(Metric::Comp, root, 3, 60.0);
        p
    }

    #[test]
    fn spread_statistics() {
        let s = location_spread(&profile(), Metric::Comp);
        assert_eq!(s.min, 10.0);
        assert_eq!(s.max, 60.0);
        assert_eq!(s.mean, 30.0);
        assert_eq!(s.argmax, 3);
        assert!((s.imbalance - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_metric_is_balanced() {
        let s = location_spread(&profile(), Metric::WaitNxN);
        assert_eq!(s.imbalance, 1.0);
        assert_eq!(s.mean, 0.0);
    }
}
