//! Per-location trace replay.
//!
//! Walks each location's event stream once, maintaining the call stack,
//! and produces the raw material of the wait-state analysis: exclusive
//! time segments classified by role, MPI call instances with their
//! communication records, barrier instances, synchronisation points and
//! visit counts. Everything downstream (pattern detection, delay costs,
//! idle-thread accounting) works on these structures, never on raw
//! events again.

use nrlt_profile::{CallPathId, CallTree};
use nrlt_trace::{
    CollectiveOp, Definitions, Event, EventKind, RegionRef, RegionRole, Trace, TraceView,
};

/// Classification of an exclusive segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegClass {
    /// User computation (functions, loop bodies, single/master/critical).
    Comp,
    /// OpenMP fork/join management.
    Management,
}

/// One exclusive time segment on a location.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Call path the time belongs to.
    pub path: CallPathId,
    /// Classification.
    pub class: SegClass,
    /// Segment start (trace clock).
    pub start: u64,
    /// Segment end.
    pub end: u64,
    /// True when inside an OpenMP parallel region.
    pub in_parallel: bool,
}

impl Segment {
    /// Segment duration.
    pub(crate) fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// A send recorded inside an MPI instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SendRec {
    /// Destination rank.
    pub peer: u32,
    /// Tag.
    pub tag: u32,
    /// Bytes.
    pub bytes: u64,
    /// Post timestamp.
    pub ts: u64,
    /// Index into the location's `mpi_instances`.
    pub instance: usize,
}

/// A receive post recorded inside an MPI instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecvPostRec {
    /// Source rank.
    pub peer: u32,
    /// Tag.
    pub tag: u32,
    /// Post timestamp.
    pub ts: u64,
}

/// A receive completion recorded inside an MPI instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecvCompleteRec {
    /// Source rank.
    pub peer: u32,
    /// Tag.
    pub tag: u32,
    /// Completion timestamp.
    pub ts: u64,
    /// Index into the location's `mpi_instances`.
    pub instance: usize,
}

/// One MPI API call instance on a location.
#[derive(Debug, Clone, PartialEq)]
pub struct MpiInstance {
    /// Call path of the MPI region.
    pub path: CallPathId,
    /// Enter timestamp.
    pub enter: u64,
    /// Leave timestamp.
    pub leave: u64,
    /// Completed collective, if this instance was one.
    pub collective: Option<(CollectiveOp, u64)>,
    /// Timestamp of the collective-completion record inside the
    /// instance.
    pub collective_end_ts: Option<u64>,
    /// Number of receive completions inside (filled during replay).
    pub n_completes: u32,
    /// Number of sends posted inside.
    pub n_sends: u32,
}

impl MpiInstance {
    /// Instance duration.
    pub(crate) fn dur(&self) -> u64 {
        self.leave - self.enter
    }
}

/// One barrier passage of one thread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BarrierRec {
    /// Barrier region.
    pub region: RegionRef,
    /// Call path of the barrier.
    pub path: CallPathId,
    /// Arrival (enter) timestamp.
    pub enter: u64,
    /// Release (leave) timestamp.
    pub leave: u64,
}

/// Replay result for one location.
#[derive(Debug, Clone, Default)]
pub struct LocalReplay {
    /// Exclusive computation/management segments, in time order.
    pub segments: Vec<Segment>,
    /// MPI call instances, in time order.
    pub mpi_instances: Vec<MpiInstance>,
    /// Sends in stream order (FIFO per channel is implied).
    pub sends: Vec<SendRec>,
    /// Receive posts in stream order.
    pub recv_posts: Vec<RecvPostRec>,
    /// Receive completions in stream order.
    pub recv_completes: Vec<RecvCompleteRec>,
    /// Barrier passages in stream order.
    pub barriers: Vec<BarrierRec>,
    /// Synchronisation points (recv completions, collective ends,
    /// barrier releases), sorted ascending.
    pub syncs: Vec<u64>,
    /// Global synchronisation points only (collective completions): the
    /// horizon for rank-level delay analysis. Neither intra-team barriers
    /// nor point-to-point completions clip it — a barrier only syncs the
    /// team, and a receive only syncs a pair *partially*: a late rank
    /// stays late through its halo exchange, so its excess must remain
    /// attributable at the next collective (the transitive, "long-term"
    /// component of Scalasca's delay analysis, approximated here by the
    /// longer horizon).
    pub mpi_syncs: Vec<u64>,
    /// Spans of OpenMP parallel regions on this location.
    pub parallel_spans: Vec<(u64, u64)>,
    /// Visit counts per call path.
    pub visits: Vec<(CallPathId, u64)>,
    /// First event timestamp (u64::MAX when empty).
    pub first_ts: u64,
    /// Last event timestamp.
    pub last_ts: u64,
}

/// Replay every location of `trace`, interning call paths into a shared
/// tree. Returns the tree and one [`LocalReplay`] per location.
pub fn replay(trace: &Trace) -> (CallTree, Vec<LocalReplay>) {
    replay_view(&TraceView::Resident(trace))
}

/// [`replay`] over a [`TraceView`] — the streaming entry point. A
/// resident view iterates in-memory columns; a spilled view decodes
/// segment chunks through a bounded cursor, so peak memory stays
/// O(locations × chunk) however many events the trace holds. Either way
/// the produced structures are identical.
pub(crate) fn replay_view(view: &TraceView<'_>) -> (CallTree, Vec<LocalReplay>) {
    let mut tree = CallTree::new();
    let defs = view.defs();
    let mut out = Vec::with_capacity(view.n_locations());
    for loc in 0..view.n_locations() {
        out.push(replay_events(defs, view.events(loc), &mut tree));
    }
    (tree, out)
}

fn replay_events(
    defs: &Definitions,
    events: impl Iterator<Item = Event>,
    tree: &mut CallTree,
) -> LocalReplay {
    let mut r = LocalReplay { first_ts: u64::MAX, ..Default::default() };
    // (path, role, enter_ts)
    let mut stack: Vec<(CallPathId, RegionRole, u64)> = Vec::new();
    let mut last_ts = 0u64;
    let mut parallel_depth = 0u32;
    let mut parallel_enter = 0u64;
    // Index of the currently open MPI instance (MPI calls do not nest).
    let mut open_mpi: Option<usize> = None;
    // Running collective sequence number on this location.
    let mut n_collectives = 0u64;

    let role_of = |region: RegionRef| defs.region(region).role;

    for ev in events {
        let ts = ev.time;
        r.first_ts = r.first_ts.min(ts);
        r.last_ts = r.last_ts.max(ts);
        match ev.kind {
            EventKind::Enter { region } => {
                // Time since the previous event belongs to the parent.
                flush_segment(&mut r, &stack, last_ts, ts, parallel_depth > 0);
                let parent = stack.last().map(|&(p, _, _)| p);
                let path = tree.intern(parent, region);
                let role = role_of(region);
                stack.push((path, role, ts));
                r.visits.push((path, 1));
                match role {
                    RegionRole::MpiApi => {
                        debug_assert!(open_mpi.is_none(), "MPI calls do not nest");
                        open_mpi = Some(r.mpi_instances.len());
                        r.mpi_instances.push(MpiInstance {
                            path,
                            enter: ts,
                            leave: ts,
                            collective: None,
                            collective_end_ts: None,
                            n_completes: 0,
                            n_sends: 0,
                        });
                    }
                    RegionRole::OmpParallel => {
                        parallel_depth += 1;
                        if parallel_depth == 1 {
                            parallel_enter = ts;
                        }
                    }
                    _ => {}
                }
                last_ts = ts;
            }
            EventKind::Leave { region } => {
                let (path, role, enter) =
                    stack.pop().expect("unbalanced trace (run check_consistency)");
                debug_assert_eq!(tree.region(path), region);
                flush_segment_for(&mut r, path, role, last_ts, ts, parallel_depth > 0);
                match role {
                    RegionRole::MpiApi => {
                        let idx = open_mpi.take().expect("leave of unopened MPI region");
                        r.mpi_instances[idx].leave = ts;
                    }
                    RegionRole::OmpParallel => {
                        parallel_depth -= 1;
                        if parallel_depth == 0 {
                            r.parallel_spans.push((parallel_enter, ts));
                        }
                    }
                    RegionRole::OmpImplicitBarrier | RegionRole::OmpBarrier => {
                        r.barriers.push(BarrierRec { region, path, enter, leave: ts });
                        r.syncs.push(ts);
                    }
                    _ => {}
                }
                last_ts = ts;
            }
            EventKind::CallBurst { region, count, start } => {
                // Parent keeps the time before the burst; the callee gets
                // the burst span.
                flush_segment(&mut r, &stack, last_ts, start, parallel_depth > 0);
                let parent = stack.last().map(|&(p, _, _)| p);
                let path = tree.intern(parent, region);
                if ts > start {
                    r.segments.push(Segment {
                        path,
                        class: SegClass::Comp,
                        start,
                        end: ts,
                        in_parallel: parallel_depth > 0,
                    });
                }
                r.visits.push((path, count));
                last_ts = ts;
            }
            EventKind::SendPost { peer, tag, bytes } => {
                let instance = open_mpi.expect("send outside an MPI region");
                r.mpi_instances[instance].n_sends += 1;
                r.sends.push(SendRec { peer, tag, bytes, ts, instance });
            }
            EventKind::RecvPost { peer, tag, .. } => {
                r.recv_posts.push(RecvPostRec { peer, tag, ts });
            }
            EventKind::RecvComplete { peer, tag, .. } => {
                let instance = open_mpi.expect("completion outside an MPI region");
                r.mpi_instances[instance].n_completes += 1;
                r.recv_completes.push(RecvCompleteRec { peer, tag, ts, instance });
                r.syncs.push(ts);
            }
            EventKind::CollectiveEnd { op, .. } => {
                let instance = open_mpi.expect("collective end outside an MPI region");
                let seq = n_collectives;
                n_collectives += 1;
                r.mpi_instances[instance].collective = Some((op, seq));
                r.mpi_instances[instance].collective_end_ts = Some(ts);
                r.syncs.push(ts);
                r.mpi_syncs.push(ts);
            }
        }
    }
    debug_assert!(stack.is_empty(), "unbalanced trace");
    if r.first_ts == u64::MAX {
        r.first_ts = 0;
    }
    r.syncs.sort_unstable();
    r.mpi_syncs.sort_unstable();
    r
}

/// Flush exclusive time of the current stack top.
fn flush_segment(
    r: &mut LocalReplay,
    stack: &[(CallPathId, RegionRole, u64)],
    from: u64,
    to: u64,
    in_parallel: bool,
) {
    if let Some(&(path, role, _)) = stack.last() {
        flush_segment_for(r, path, role, from, to, in_parallel);
    }
}

fn flush_segment_for(
    r: &mut LocalReplay,
    path: CallPathId,
    role: RegionRole,
    from: u64,
    to: u64,
    in_parallel: bool,
) {
    if to <= from {
        return;
    }
    let class = match role {
        RegionRole::Function
        | RegionRole::OmpParallel
        | RegionRole::OmpLoop
        | RegionRole::OmpSingle
        | RegionRole::OmpMaster
        | RegionRole::OmpCritical => SegClass::Comp,
        RegionRole::OmpFork => SegClass::Management,
        // MPI and barrier time is accounted through instances.
        RegionRole::MpiApi | RegionRole::OmpImplicitBarrier | RegionRole::OmpBarrier => return,
    };
    r.segments.push(Segment { path, class, start: from, end: to, in_parallel });
}

/// The last synchronisation point on a location strictly before `t`
/// (0 when none).
pub(crate) fn prev_sync(r: &LocalReplay, t: u64) -> u64 {
    prev_in(&r.syncs, t)
}

/// The last *inter-process* synchronisation point strictly before `t`.
pub(crate) fn prev_mpi_sync(r: &LocalReplay, t: u64) -> u64 {
    prev_in(&r.mpi_syncs, t)
}

fn prev_in(syncs: &[u64], t: u64) -> u64 {
    let i = syncs.partition_point(|&x| x < t);
    if i == 0 {
        0
    } else {
        syncs[i - 1]
    }
}

/// [`prev_sync`]/[`prev_mpi_sync`] with a rolling cursor: `hint` is the
/// lower-bound index of the previous query, and the search gallops out
/// from it — O(log distance) instead of O(log n) when consecutive
/// queries land near each other, as the delay analysis's per-location
/// wait streams do. Returns exactly what [`prev_sync`]/[`prev_mpi_sync`]
/// return and updates `hint` for the next call.
pub(crate) fn prev_sync_hinted(
    r: &LocalReplay,
    t: u64,
    inter_process: bool,
    hint: &mut usize,
) -> u64 {
    let syncs: &[u64] = if inter_process { &r.mpi_syncs } else { &r.syncs };
    let i = lower_bound_from(syncs, t, *hint);
    *hint = i;
    if i == 0 {
        0
    } else {
        syncs[i - 1]
    }
}

/// First index `j` with `xs[j] >= t` (the `partition_point` of `< t`),
/// located by galloping out from `hint` instead of bisecting the whole
/// slice. Exact: returns the same index for any `hint`.
pub(crate) fn lower_bound_from(xs: &[u64], t: u64, hint: usize) -> usize {
    let n = xs.len();
    let h = hint.min(n);
    if h < n && xs[h] < t {
        // Boundary is to the right of the hint: widen the bracket
        // exponentially, then bisect the final window.
        let mut lo = h; // xs[lo] < t
        let mut hi = h + 1;
        let mut step = 1usize;
        while hi < n && xs[hi] < t {
            lo = hi;
            hi = (hi + step).min(n);
            step <<= 1;
        }
        lo + 1 + xs[lo + 1..hi.min(n)].partition_point(|&x| x < t)
    } else {
        // Boundary is at or left of the hint.
        let mut hi = h; // all of xs[h..] are >= t (or h == n)
        let mut step = 1usize;
        let mut lo = h;
        while lo > 0 && xs[lo - 1] >= t {
            hi = lo - 1;
            lo = lo.saturating_sub(step);
            step <<= 1;
        }
        lo + xs[lo..hi].partition_point(|&x| x < t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrlt_trace::{ClockKind, Definitions, Event, LocationDef, RegionDef};

    fn defs() -> Definitions {
        Definitions {
            regions: std::sync::Arc::new(vec![
                RegionDef { name: "main".into(), role: RegionRole::Function },
                RegionDef { name: "MPI_Recv".into(), role: RegionRole::MpiApi },
                RegionDef { name: "leaf".into(), role: RegionRole::Function },
            ]),
            locations: std::sync::Arc::new(vec![LocationDef { rank: 0, thread: 0, core: 0 }]),
            threads_per_rank: 1,
            clock: ClockKind::Physical,
        }
    }

    fn ev(time: u64, kind: EventKind) -> Event {
        Event { time, kind }
    }

    #[test]
    fn exclusive_segments_and_mpi_instances() {
        let r0 = RegionRef(0);
        let r1 = RegionRef(1);
        let trace = Trace {
            defs: defs(),
            streams: vec![vec![
                ev(0, EventKind::Enter { region: r0 }),
                ev(10, EventKind::Enter { region: r1 }),
                ev(10, EventKind::RecvPost { peer: 1, tag: 0, bytes: 8 }),
                ev(40, EventKind::RecvComplete { peer: 1, tag: 0, bytes: 8 }),
                ev(42, EventKind::Leave { region: r1 }),
                ev(50, EventKind::Leave { region: r0 }),
            ]
            .into()],
        };
        let (tree, locals) = replay(&trace);
        let r = &locals[0];
        // main gets exclusive 0..10 and 42..50.
        assert_eq!(r.segments.len(), 2);
        assert_eq!(r.segments[0].dur(), 10);
        assert_eq!(r.segments[1].dur(), 8);
        assert_eq!(r.mpi_instances.len(), 1);
        let mi = &r.mpi_instances[0];
        assert_eq!((mi.enter, mi.leave), (10, 42));
        assert_eq!(mi.n_completes, 1);
        assert_eq!(r.recv_completes[0].ts, 40);
        assert_eq!(r.syncs, vec![40]);
        assert_eq!(tree.len(), 2);
        assert_eq!(prev_sync(r, 45), 40);
        assert_eq!(prev_sync(r, 40), 0);
        assert_eq!(prev_sync(r, 5), 0);
    }

    #[test]
    fn burst_attributes_span_to_callee() {
        let r0 = RegionRef(0);
        let r2 = RegionRef(2);
        let trace = Trace {
            defs: defs(),
            streams: vec![vec![
                ev(0, EventKind::Enter { region: r0 }),
                ev(30, EventKind::CallBurst { region: r2, count: 5, start: 10 }),
                ev(50, EventKind::Leave { region: r0 }),
            ]
            .into()],
        };
        let (tree, locals) = replay(&trace);
        let r = &locals[0];
        // main: 0..10 and 30..50; leaf burst: 10..30.
        assert_eq!(r.segments.len(), 3);
        assert_eq!(r.segments[1].dur(), 20);
        let leaf_path = r.segments[1].path;
        assert_eq!(tree.region(leaf_path), r2);
        // Visits: main 1, leaf 5.
        let total: u64 = r.visits.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 6);
    }

    #[test]
    fn collective_sequence_numbers() {
        let r0 = RegionRef(0);
        let r1 = RegionRef(1); // reuse MPI role region
        let mk_coll = |t_enter: u64| {
            vec![
                ev(t_enter, EventKind::Enter { region: r1 }),
                ev(
                    t_enter + 5,
                    EventKind::CollectiveEnd {
                        op: CollectiveOp::Allreduce,
                        bytes: 8,
                        root: u32::MAX,
                    },
                ),
                ev(t_enter + 6, EventKind::Leave { region: r1 }),
            ]
        };
        let mut stream = vec![ev(0, EventKind::Enter { region: r0 })];
        stream.extend(mk_coll(10));
        stream.extend(mk_coll(30));
        stream.push(ev(50, EventKind::Leave { region: r0 }));
        let trace = Trace { defs: defs(), streams: vec![stream.into()] };
        let (_, locals) = replay(&trace);
        let colls: Vec<u64> =
            locals[0].mpi_instances.iter().filter_map(|i| i.collective.map(|(_, s)| s)).collect();
        assert_eq!(colls, vec![0, 1]);
    }

    #[test]
    fn lower_bound_from_is_exact_for_any_hint() {
        let xs = [5u64, 5, 10, 10, 10, 20, 35];
        for t in 0..40u64 {
            let want = xs.partition_point(|&x| x < t);
            for hint in 0..=xs.len() + 2 {
                assert_eq!(lower_bound_from(&xs, t, hint), want, "t={t} hint={hint}");
            }
        }
        assert_eq!(lower_bound_from(&[], 7, 0), 0);
        assert_eq!(lower_bound_from(&[], 7, 3), 0);
    }

    #[test]
    fn hinted_prev_sync_matches_unhinted() {
        let r = LocalReplay {
            syncs: vec![3, 9, 9, 14, 30],
            mpi_syncs: vec![9, 30],
            ..Default::default()
        };
        for t in 0..35u64 {
            for hint0 in 0..7usize {
                let mut hint = hint0;
                assert_eq!(prev_sync_hinted(&r, t, false, &mut hint), prev_sync(&r, t));
                let mut hint = hint0;
                assert_eq!(prev_sync_hinted(&r, t, true, &mut hint), prev_mpi_sync(&r, t));
            }
        }
    }
}
