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

/// One exclusive time segment on a location. At most 24 bytes: replay
/// keeps one per stretch of exclusive time.
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

const _: () = assert!(std::mem::size_of::<Segment>() <= 24);

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

/// One MPI API call instance on a location. At most 48 bytes: replay
/// keeps one per MPI call, so it holds only what the analysis reads.
#[derive(Debug, Clone, PartialEq)]
pub struct MpiInstance {
    /// Call path of the MPI region.
    pub path: CallPathId,
    /// Enter timestamp.
    pub enter: u64,
    /// Leave timestamp.
    pub leave: u64,
    /// Completed collective, if this instance was one: the operation,
    /// its sequence number on the location and the timestamp of the
    /// collective-completion record inside the instance.
    pub collective: Option<(CollectiveOp, u64, u64)>,
}

const _: () = assert!(std::mem::size_of::<MpiInstance>() <= 48);

impl MpiInstance {
    /// Instance duration.
    pub(crate) fn dur(&self) -> u64 {
        self.leave - self.enter
    }
}

/// One barrier passage of one thread. At most 24 bytes: there is one per
/// thread and barrier, so the barrier region is read from the call tree
/// (`CallTree::region(path)`) rather than stored.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BarrierRec {
    /// Call path of the barrier.
    pub path: CallPathId,
    /// How many of the location's [`LocalReplay::syncs`] lie strictly
    /// before `enter`. Recorded during replay, so the barrier's causal
    /// window ([`LocalReplay::barrier_window`]) needs no search.
    pub syncs_before: u32,
    /// Arrival (enter) timestamp.
    pub enter: u64,
    /// Release (leave) timestamp.
    pub leave: u64,
}

const _: () = assert!(std::mem::size_of::<BarrierRec>() <= 24);

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
    /// Visit counts per call path, each path once, in the order of its
    /// first visit.
    pub visits: Vec<(CallPathId, u64)>,
    /// First event timestamp (u64::MAX when empty).
    pub first_ts: u64,
    /// Last event timestamp.
    pub last_ts: u64,
}

impl LocalReplay {
    /// Drop every list's growth slack: the lists live for the whole
    /// analysis.
    fn shrink_to_fit(&mut self) {
        self.segments.shrink_to_fit();
        self.mpi_instances.shrink_to_fit();
        self.sends.shrink_to_fit();
        self.recv_posts.shrink_to_fit();
        self.recv_completes.shrink_to_fit();
        self.barriers.shrink_to_fit();
        self.syncs.shrink_to_fit();
        self.mpi_syncs.shrink_to_fit();
        self.parallel_spans.shrink_to_fit();
        self.visits.shrink_to_fit();
    }

    /// The causal window of `b`, one of this location's (`loc`) barrier
    /// passages: what [`CausalWindow::before`] gives for its enter over
    /// [`LocalReplay::syncs`].
    pub(crate) fn barrier_window(&self, loc: usize, b: &BarrierRec) -> CausalWindow {
        CausalWindow::after(loc, &self.syncs[..b.syncs_before as usize], b.enter)
    }
}

/// Replay every location of `trace`, interning call paths into a shared
/// tree. Returns the tree and one [`LocalReplay`] per location.
pub fn replay(trace: &Trace) -> (CallTree, Vec<LocalReplay>) {
    replay_view(&TraceView::Resident(trace))
}

/// [`replay`] over a [`TraceView`] — the streaming entry point. A
/// resident view iterates in-memory event rows; a spilled view decodes
/// segment chunks through a bounded cursor, so peak memory stays
/// O(locations × chunk) however many events the trace holds. Either way
/// the produced structures are identical.
pub(crate) fn replay_view(view: &TraceView<'_>) -> (CallTree, Vec<LocalReplay>) {
    let mut tree = CallTree::new();
    let defs = view.defs();
    let mut visit_slots = VisitSlots::default();
    let mut out = Vec::with_capacity(view.n_locations());
    for loc in 0..view.n_locations() {
        out.push(replay_events(defs, view.events(loc), &mut tree, &mut visit_slots));
    }
    (tree, out)
}

/// The path → slot table that folds one location's visits into one
/// count per call path: `slot[path]` is the path's index in
/// [`LocalReplay::visits`], or `u32::MAX` before its first visit.
/// Reused across locations; only the slots a location wrote are reset.
#[derive(Default)]
struct VisitSlots {
    slot: Vec<u32>,
}

impl VisitSlots {
    /// Add `count` visits of `path` to `visits`.
    fn add(&mut self, visits: &mut Vec<(CallPathId, u64)>, path: CallPathId, count: u64) {
        let p = path.0 as usize;
        if p >= self.slot.len() {
            self.slot.resize(p + 1, u32::MAX);
        }
        match self.slot[p] {
            u32::MAX => {
                self.slot[p] = visits.len() as u32;
                visits.push((path, count));
            }
            i => visits[i as usize].1 += count,
        }
    }

    /// Forget the slots of `visits`, the location just folded.
    fn reset(&mut self, visits: &[(CallPathId, u64)]) {
        for &(path, _) in visits {
            self.slot[path.0 as usize] = u32::MAX;
        }
    }
}

fn replay_events(
    defs: &Definitions,
    events: impl Iterator<Item = Event>,
    tree: &mut CallTree,
    visit_slots: &mut VisitSlots,
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
                visit_slots.add(&mut r.visits, path, 1);
                match role {
                    RegionRole::MpiApi => {
                        debug_assert!(open_mpi.is_none(), "MPI calls do not nest");
                        open_mpi = Some(r.mpi_instances.len());
                        r.mpi_instances.push(MpiInstance {
                            path,
                            enter: ts,
                            leave: ts,
                            collective: None,
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
                        // Timestamps are monotone per location, so the
                        // sync points so far are sorted and every later
                        // one is at or after `enter`.
                        let syncs_before = u32::try_from(syncs_before(&r.syncs, enter))
                            .expect("fewer than 2^32 sync points per location");
                        r.barriers.push(BarrierRec { path, syncs_before, enter, leave: ts });
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
                visit_slots.add(&mut r.visits, path, count);
                last_ts = ts;
            }
            EventKind::SendPost { peer, tag, bytes } => {
                let instance = open_mpi.expect("send outside an MPI region");
                r.sends.push(SendRec { peer, tag, bytes, ts, instance });
            }
            EventKind::RecvPost { peer, tag, .. } => {
                r.recv_posts.push(RecvPostRec { peer, tag, ts });
            }
            EventKind::RecvComplete { peer, tag, .. } => {
                let instance = open_mpi.expect("completion outside an MPI region");
                r.recv_completes.push(RecvCompleteRec { peer, tag, ts, instance });
                r.syncs.push(ts);
            }
            EventKind::CollectiveEnd { op, .. } => {
                let instance = open_mpi.expect("collective end outside an MPI region");
                let seq = n_collectives;
                n_collectives += 1;
                r.mpi_instances[instance].collective = Some((op, seq, ts));
                r.syncs.push(ts);
                r.mpi_syncs.push(ts);
            }
        }
    }
    debug_assert!(stack.is_empty(), "unbalanced trace");
    visit_slots.reset(&r.visits);
    if r.first_ts == u64::MAX {
        r.first_ts = 0;
    }
    r.syncs.sort_unstable();
    r.mpi_syncs.sort_unstable();
    r.shrink_to_fit();
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

/// A wait's causal window on one location: from the location's last
/// synchronisation point strictly before `to` (0 when none) up to `to`,
/// the enter of its side of the wait. Computed once where the wait is
/// detected; the delay costs and the provenance chain both read it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CausalWindow {
    /// The location.
    pub(crate) loc: usize,
    /// Window start: the previous synchronisation point.
    pub(crate) from: u64,
    /// Window end (exclusive).
    pub(crate) to: u64,
}

impl CausalWindow {
    /// The window of an MPI wait state on `loc` that ends at `to`: only
    /// collective completions ([`LocalReplay::mpi_syncs`]) clip it. An
    /// OpenMP barrier's window, which any [`LocalReplay::syncs`] point
    /// clips, is recorded during replay ([`LocalReplay::barrier_window`]).
    pub(crate) fn before(locals: &[LocalReplay], loc: usize, to: u64) -> CausalWindow {
        let syncs = &locals[loc].mpi_syncs;
        CausalWindow::after(loc, &syncs[..syncs_before(syncs, to)], to)
    }

    /// The window on `loc` that ends at `to`, given `prior`, the
    /// location's sync points strictly before `to`: it starts at the
    /// last of them, or at 0 when there is none.
    fn after(loc: usize, prior: &[u64], to: u64) -> CausalWindow {
        CausalWindow { loc, from: prior.last().copied().unwrap_or(0), to }
    }
}

#[cfg(test)]
impl CausalWindow {
    /// The window on `loc` that ends at `to` over every sync point
    /// ([`LocalReplay::syncs`]): the oracle of the barrier windows
    /// replay records.
    pub(crate) fn before_any_sync(locals: &[LocalReplay], loc: usize, to: u64) -> CausalWindow {
        let syncs = &locals[loc].syncs;
        CausalWindow::after(loc, &syncs[..syncs_before(syncs, to)], to)
    }
}

/// How many of the ascending sync points `syncs` lie strictly before
/// `to`.
fn syncs_before(syncs: &[u64], to: u64) -> usize {
    syncs.partition_point(|&x| x < to)
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
                RegionDef { name: "barrier".into(), role: RegionRole::OmpBarrier },
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
        assert_eq!(r.recv_completes.len(), 1);
        assert_eq!((r.recv_completes[0].ts, r.recv_completes[0].instance), (40, 0));
        assert_eq!(r.syncs, vec![40]);
        assert_eq!(tree.len(), 2);
        let from = |to| CausalWindow::before_any_sync(&locals, 0, to).from;
        assert_eq!(from(45), 40);
        assert_eq!(from(40), 0);
        assert_eq!(from(5), 0);
    }

    /// A sync point at a barrier's enter does not open its window (the
    /// rule is "strictly before"), whether it is a receive completion or
    /// the previous barrier's release.
    #[test]
    fn barrier_window_start_is_recorded_at_replay() {
        let (main, mpi, barrier) = (RegionRef(0), RegionRef(1), RegionRef(3));
        let trace = Trace {
            defs: defs(),
            streams: vec![vec![
                ev(0, EventKind::Enter { region: main }),
                ev(5, EventKind::Enter { region: mpi }),
                ev(10, EventKind::RecvComplete { peer: 1, tag: 0, bytes: 8 }),
                ev(10, EventKind::Leave { region: mpi }),
                ev(10, EventKind::Enter { region: barrier }),
                ev(20, EventKind::Leave { region: barrier }),
                ev(20, EventKind::Enter { region: barrier }),
                ev(30, EventKind::Leave { region: barrier }),
                ev(35, EventKind::Enter { region: barrier }),
                ev(40, EventKind::Leave { region: barrier }),
                ev(50, EventKind::Leave { region: main }),
            ]
            .into()],
        };
        let (_, locals) = replay(&trace);
        let r = &locals[0];
        assert_eq!(r.syncs, vec![10, 20, 30, 40]);
        let starts: Vec<u64> = r.barriers.iter().map(|b| r.barrier_window(0, b).from).collect();
        assert_eq!(starts, [0, 10, 30]);
        for b in &r.barriers {
            assert_eq!(r.barrier_window(0, b), CausalWindow::before_any_sync(&locals, 0, b.enter));
        }
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
        assert_eq!(r.visits, [(r.segments[0].path, 1), (leaf_path, 5)]);
    }

    /// The visits replay folds per location equal a count over the raw
    /// events, with one entry per call path, in first-visit order.
    /// Returns the number of call bursts counted.
    fn check_visits_match_raw_count(instance: nrlt_miniapps::BenchmarkInstance) -> u64 {
        use nrlt_exec::ExecConfig;
        use nrlt_measure::{measure, ClockMode, FilterRules, MeasureConfig};
        let cfg = ExecConfig::jureca(instance.nodes, instance.layout.clone(), 1000);
        let mcfg = MeasureConfig::new(ClockMode::Tsc)
            .with_filter(FilterRules::from_rules(instance.filter_rules.iter().cloned()));
        let (trace, _) = measure(&instance.program, &cfg, &mcfg);
        let (tree, locals) = replay(&trace);
        let mut bursts = 0u64;
        for (loc, r) in locals.iter().enumerate() {
            // Re-interning into a copy of the finished tree gives every
            // path the id replay gave it.
            let mut tree = tree.clone();
            let mut stack: Vec<CallPathId> = Vec::new();
            let mut want: Vec<(CallPathId, u64)> = Vec::new();
            let mut visit =
                |path: CallPathId, count: u64| match want.iter_mut().find(|(p, _)| *p == path) {
                    Some(v) => v.1 += count,
                    None => want.push((path, count)),
                };
            for ev in trace.streams[loc].iter() {
                match ev.kind {
                    EventKind::Enter { region } => {
                        let path = tree.intern(stack.last().copied(), region);
                        stack.push(path);
                        visit(path, 1);
                    }
                    EventKind::Leave { .. } => {
                        stack.pop();
                    }
                    EventKind::CallBurst { region, count, .. } => {
                        bursts += 1;
                        visit(tree.intern(stack.last().copied(), region), count);
                    }
                    _ => {}
                }
            }
            assert_eq!(r.visits, want, "{} location {loc}", instance.name);
            assert!(!r.visits.is_empty(), "{} location {loc}", instance.name);
        }
        bursts
    }

    #[test]
    fn visits_match_a_raw_count_on_minife_2() {
        // MiniFE's filtered leaves fold into bursts, so `count` adds too.
        assert!(check_visits_match_raw_count(nrlt_miniapps::minife_2()) > 0);
    }

    #[test]
    fn visits_match_a_raw_count_on_lulesh_2() {
        check_visits_match_raw_count(nrlt_miniapps::lulesh_2());
    }

    #[test]
    fn visits_match_a_raw_count_on_tealeaf_1() {
        check_visits_match_raw_count(nrlt_miniapps::tealeaf_1());
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
        let colls: Vec<u64> = locals[0]
            .mpi_instances
            .iter()
            .filter_map(|i| i.collective.map(|(_, s, _)| s))
            .collect();
        assert_eq!(colls, vec![0, 1]);
        let ends: Vec<u64> = locals[0]
            .mpi_instances
            .iter()
            .filter_map(|i| i.collective.map(|(_, _, t)| t))
            .collect();
        assert_eq!(ends, vec![15, 35]);
    }

    #[test]
    fn lower_bound_from_is_exact_for_any_hint() {
        // Repeated and empty sync lists: the window start is the last sync
        // strictly before its end for every end, on both horizons.
        for xs in [vec![5u64, 5, 10, 10, 10, 20, 35], vec![]] {
            let locals = vec![LocalReplay {
                syncs: xs.clone(),
                mpi_syncs: xs.clone(),
                ..Default::default()
            }];
            for to in 0..40u64 {
                let want = xs.iter().copied().filter(|&x| x < to).max().unwrap_or(0);
                for w in [
                    CausalWindow::before(&locals, 0, to),
                    CausalWindow::before_any_sync(&locals, 0, to),
                ] {
                    assert_eq!(w.from, want, "to={to} {xs:?}");
                }
            }
        }
    }

    #[test]
    fn hinted_prev_sync_matches_unhinted() {
        // Different intra- and inter-process sync lists: each horizon
        // reads its own.
        let locals = vec![LocalReplay {
            syncs: vec![3, 9, 9, 14, 30],
            mpi_syncs: vec![9, 30],
            ..Default::default()
        }];
        let r = &locals[0];
        for to in 0..35u64 {
            let want = |syncs: &[u64]| {
                let from = syncs.iter().copied().filter(|&x| x < to).max().unwrap_or(0);
                CausalWindow { loc: 0, from, to }
            };
            assert_eq!(CausalWindow::before(&locals, 0, to), want(&r.mpi_syncs), "to={to}");
            assert_eq!(CausalWindow::before_any_sync(&locals, 0, to), want(&r.syncs), "to={to}");
        }
        // A window ending on a sync point starts at the one before it.
        assert_eq!(CausalWindow::before_any_sync(&locals, 0, 9).from, 3);
        assert_eq!(CausalWindow::before(&locals, 0, 30).from, 9);
        assert_eq!(CausalWindow::before_any_sync(&locals, 0, 0).from, 0);
    }
}
