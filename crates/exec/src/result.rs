//! Execution results: application-level timings.
//!
//! The mini-apps report their own phase timings (MiniFE's init/solve
//! split, the total time to completion) through zero-overhead virtual
//! stopwatches. These are the reference numbers overhead percentages are
//! computed against (Table I / Table II of the paper).

use nrlt_prog::PhaseId;
use nrlt_sim::{VirtualDuration, VirtualTime};
use std::collections::BTreeMap;

/// Timings of one engine run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecResult {
    /// Per-rank accumulated stopwatch durations.
    pub phase_times: Vec<BTreeMap<PhaseId, VirtualDuration>>,
    /// Per-rank completion time of the last action.
    pub rank_end: Vec<VirtualTime>,
    /// Job run time: the latest completion over all locations.
    pub total: VirtualDuration,
    /// Engine events dispatched to produce this result — the
    /// numerator of the events-per-second throughput KPI (wall time
    /// comes from the caller).
    pub events: u64,
}

impl ExecResult {
    /// Maximum accumulated duration of `phase` over all ranks — the
    /// number an application would print for a globally synchronised
    /// phase.
    pub fn phase_max(&self, phase: PhaseId) -> VirtualDuration {
        self.phase_times
            .iter()
            .filter_map(|m| m.get(&phase))
            .copied()
            .max()
            .unwrap_or(VirtualDuration::ZERO)
    }

    /// Mean accumulated duration of `phase` over the ranks that ran it.
    pub fn phase_mean(&self, phase: PhaseId) -> VirtualDuration {
        let values: Vec<VirtualDuration> =
            self.phase_times.iter().filter_map(|m| m.get(&phase)).copied().collect();
        if values.is_empty() {
            return VirtualDuration::ZERO;
        }
        let sum: u64 = values.iter().map(|d| d.nanos()).sum();
        VirtualDuration::from_nanos(sum / values.len() as u64)
    }
}

/// Relative overhead of an instrumented run against a reference, in
/// percent: `100 × (instrumented − reference) / reference`.
///
/// Can be negative — the paper observes instrumentation *speeding up*
/// memory-bound phases through thread desynchronisation (Section V-A).
pub fn overhead_percent(reference: VirtualDuration, instrumented: VirtualDuration) -> f64 {
    if reference.nanos() == 0 {
        return 0.0;
    }
    100.0 * (instrumented.as_secs_f64() - reference.as_secs_f64()) / reference.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_signs() {
        let r = VirtualDuration::from_millis(100);
        assert!((overhead_percent(r, VirtualDuration::from_millis(150)) - 50.0).abs() < 1e-9);
        assert!((overhead_percent(r, VirtualDuration::from_millis(90)) + 10.0).abs() < 1e-9);
        assert_eq!(overhead_percent(VirtualDuration::ZERO, r), 0.0);
    }

    #[test]
    fn phase_aggregates() {
        let p = PhaseId(0);
        let mut a = BTreeMap::new();
        a.insert(p, VirtualDuration::from_millis(10));
        let mut b = BTreeMap::new();
        b.insert(p, VirtualDuration::from_millis(30));
        let r = ExecResult {
            phase_times: vec![a, b, BTreeMap::new()],
            rank_end: vec![],
            total: VirtualDuration::ZERO,
            events: 0,
        };
        assert_eq!(r.phase_max(p), VirtualDuration::from_millis(30));
        assert_eq!(r.phase_mean(p), VirtualDuration::from_millis(20));
        assert_eq!(r.phase_max(PhaseId(9)), VirtualDuration::ZERO);
    }
}
