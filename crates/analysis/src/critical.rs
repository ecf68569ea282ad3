//! Critical-path analysis.
//!
//! Scalasca's companion to the wait-state analysis: the *critical path*
//! is the chain of activities that determines the program's run time —
//! shortening anything on it shortens the run; shortening anything off
//! it only grows somebody's wait. This implementation walks the trace's
//! happens-before structure backwards from the last event, at every
//! blocking completion jumping to the partner that determined its time,
//! and attributes the traversed computation spans to their call paths.
//!
//! Works on physical *and* logical traces: under a logical clock the
//! result is the critical path of the *effort model's* virtual schedule,
//! which is exactly how the paper's noise-resilient lens would rank
//! optimisation targets.

use crate::causality::{happens_before_edges, EventId};
use crate::delay::{profile_into_hinted, SpanCursor};
use crate::replay::replay;
use nrlt_profile::{CallPathId, CallTree};
use nrlt_trace::Trace;
use std::collections::{BTreeMap, HashMap};

/// The critical path of a trace.
#[derive(Debug, Clone)]
pub struct CriticalPath {
    /// Total length in trace ticks (last event − first event).
    pub length: u64,
    /// Ticks attributed to each (call path, location) along the path.
    pub contributions: Vec<(CallPathId, usize, u64)>,
    /// The walked events, in execution order.
    pub events: Vec<EventId>,
    /// Call-path tree (for rendering).
    pub call_tree: CallTree,
}

impl CriticalPath {
    /// Per-call-path totals (summed over locations), sorted descending.
    pub fn by_callpath(&self) -> Vec<(CallPathId, u64)> {
        // Ordered map + stable sort: equal shares keep call-path order,
        // so the ranking never depends on hash iteration order.
        let mut map: BTreeMap<CallPathId, u64> = BTreeMap::new();
        for &(p, _, v) in &self.contributions {
            *map.entry(p).or_default() += v;
        }
        let mut out: Vec<_> = map.into_iter().collect();
        out.sort_by_key(|&(_, v)| std::cmp::Reverse(v));
        out
    }

    /// Share of the path length attributed to computation spans (the
    /// rest is transfer/runtime time between the walked events).
    pub fn attributed_fraction(&self) -> f64 {
        if self.length == 0 {
            return 0.0;
        }
        let attributed: u64 = self.contributions.iter().map(|&(_, _, v)| v).sum();
        attributed as f64 / self.length as f64
    }
}

/// Compute the critical path of `trace`.
pub fn critical_path(trace: &Trace) -> CriticalPath {
    let (tree, locals) = replay(trace);
    // Dense span-walk buffers and one pair of span cursors per location.
    let mut acc = vec![0u64; tree.len()];
    let mut touched: Vec<u32> = Vec::new();
    let mut cursors: Vec<SpanCursor> = vec![[0; 2]; locals.len()];

    // Incoming cross-location edges per event.
    let mut incoming: HashMap<EventId, Vec<EventId>> = HashMap::new();
    for e in happens_before_edges(trace) {
        incoming.entry(e.to).or_default().push(e.from);
    }

    // Start from the globally last event.
    let mut current: Option<EventId> = trace
        .streams
        .iter()
        .enumerate()
        .filter(|(_, s)| !s.is_empty())
        .max_by_key(|(l, s)| (s.last().unwrap().time, *l))
        .map(|(l, s)| (l, s.len() - 1));
    let end_time = current.map_or(0u64, |(l, i)| trace.streams[l].time(i));
    let start_time = trace.start_time();

    let mut contributions: Vec<(CallPathId, usize, u64)> = Vec::new();
    let mut events = Vec::new();
    let ts = |e: EventId| trace.streams[e.0].time(e.1);

    while let Some(cur) = current {
        events.push(cur);
        let t_cur = ts(cur);
        // Candidate predecessors: the previous event on the same
        // location, and the latest cross-location cause.
        let local = if cur.1 > 0 { Some((cur.0, cur.1 - 1)) } else { None };
        let cross = incoming.get(&cur).and_then(|v| v.iter().copied().max_by_key(|&e| (ts(e), e)));
        let next = match (local, cross) {
            (Some(l), Some(c)) => {
                // The later predecessor determined this event's time: a
                // blocked completion waits for its cross cause; a busy
                // span follows its local predecessor.
                if ts(c) > ts(l) {
                    Some(c)
                } else {
                    Some(l)
                }
            }
            (Some(l), None) => Some(l),
            (None, c) => c,
        };
        if let Some(prev) = next {
            if prev.0 == cur.0 {
                // Local move: attribute the busy span to its call paths.
                profile_into_hinted(
                    &locals[cur.0],
                    ts(prev),
                    t_cur,
                    &mut acc,
                    &mut touched,
                    &mut cursors[cur.0],
                );
                for p in touched.drain(..) {
                    let ticks = std::mem::take(&mut acc[p as usize]);
                    contributions.push((CallPathId(p), cur.0, ticks));
                }
            }
            // Cross moves carry transfer/collective time, attributed to
            // nothing (it is genuine communication on the path).
        }
        current = next;
        if events.len() > trace.total_events() + 1 {
            unreachable!("critical-path walk failed to terminate");
        }
    }
    events.reverse();
    // Stable: one walk step yields each path once, so equal keys keep
    // walk order.
    contributions.sort_by_key(|&(p, l, _)| (p, l));

    CriticalPath {
        length: end_time.saturating_sub(start_time),
        contributions,
        events,
        call_tree: tree,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrlt_trace::{
        ClockKind, CollectiveOp, Definitions, Event, EventKind, LocationDef, RegionDef, RegionRef,
        RegionRole, NO_ROOT,
    };

    /// Two ranks: rank 1 computes 80 ticks, rank 0 computes 10 and waits
    /// at the allreduce. The critical path must run through rank 1's
    /// compute region.
    fn imbalanced_trace() -> Trace {
        let defs = Definitions {
            regions: std::sync::Arc::new(vec![
                RegionDef { name: "main".into(), role: RegionRole::Function },
                RegionDef { name: "light".into(), role: RegionRole::Function },
                RegionDef { name: "heavy".into(), role: RegionRole::Function },
                RegionDef { name: "MPI_Allreduce".into(), role: RegionRole::MpiApi },
            ]),
            locations: std::sync::Arc::new(vec![
                LocationDef { rank: 0, thread: 0, core: 0 },
                LocationDef { rank: 1, thread: 0, core: 1 },
            ]),
            threads_per_rank: 1,
            clock: ClockKind::Physical,
        };
        let r = RegionRef;
        let coll = |t| {
            Event::new(
                t,
                EventKind::CollectiveEnd { op: CollectiveOp::Allreduce, bytes: 8, root: NO_ROOT },
            )
        };
        let s0 = vec![
            Event::new(0, EventKind::Enter { region: r(0) }),
            Event::new(1, EventKind::Enter { region: r(1) }),
            Event::new(11, EventKind::Leave { region: r(1) }),
            Event::new(12, EventKind::Enter { region: r(3) }),
            coll(85),
            Event::new(86, EventKind::Leave { region: r(3) }),
            Event::new(90, EventKind::Leave { region: r(0) }),
        ];
        let s1 = vec![
            Event::new(0, EventKind::Enter { region: r(0) }),
            Event::new(2, EventKind::Enter { region: r(2) }),
            Event::new(82, EventKind::Leave { region: r(2) }),
            Event::new(83, EventKind::Enter { region: r(3) }),
            coll(85),
            Event::new(86, EventKind::Leave { region: r(3) }),
            Event::new(88, EventKind::Leave { region: r(0) }),
        ];
        Trace { defs, streams: vec![s0.into(), s1.into()] }
    }

    #[test]
    fn path_runs_through_the_heavy_rank() {
        let t = imbalanced_trace();
        let cp = critical_path(&t);
        assert_eq!(cp.length, 90);
        let by_path = cp.by_callpath();
        let heavy_total: u64 = by_path
            .iter()
            .filter(|(p, _)| {
                cp.call_tree.path_string(*p, |r| t.defs.region(r).name.clone()).contains("heavy")
            })
            .map(|&(_, v)| v)
            .sum();
        let light_total: u64 = by_path
            .iter()
            .filter(|(p, _)| {
                cp.call_tree.path_string(*p, |r| t.defs.region(r).name.clone()).contains("light")
            })
            .map(|&(_, v)| v)
            .sum();
        assert!(heavy_total >= 80, "heavy region dominates the path: {heavy_total}");
        assert_eq!(light_total, 0, "the waiting rank's work is off the path");
        // The walked path visits both locations (it ends on rank 0, which
        // finishes last, but came through rank 1's collective arrival).
        let locs: std::collections::HashSet<usize> = cp.events.iter().map(|e| e.0).collect();
        assert_eq!(locs.len(), 2);
    }

    #[test]
    fn attribution_is_bounded_by_length() {
        let t = imbalanced_trace();
        let cp = critical_path(&t);
        let attributed: u64 = cp.contributions.iter().map(|&(_, _, v)| v).sum();
        assert!(attributed <= cp.length);
        assert!(cp.attributed_fraction() > 0.8, "{}", cp.attributed_fraction());
    }

    #[test]
    fn empty_trace_is_fine() {
        let t = Trace {
            defs: Definitions {
                regions: std::sync::Arc::new(vec![]),
                locations: std::sync::Arc::new(vec![]),
                threads_per_rank: 1,
                clock: ClockKind::Physical,
            },
            streams: vec![],
        };
        let cp = critical_path(&t);
        assert_eq!(cp.length, 0);
        assert!(cp.contributions.is_empty());
    }
}
