//! Delay-cost analysis: root causes of wait states.
//!
//! For every wait state, Scalasca's delay analysis asks *who* made the
//! waiter wait and *what that location was doing* in the interval since
//! the previous synchronisation point. This implementation performs the
//! single-step (short-term) attribution: the waiter's severity is
//! distributed over the call paths in which the delaying location spent
//! more time than the waiter did since their respective last
//! synchronisation points. Transitive (long-term) propagation of delay
//! through chains of wait states is not modelled; DESIGN.md records this
//! simplification.
//!
//! Including the delayer's MPI spans in the interval profile is what
//! reproduces the paper's `lt_hwctr` observation that delay costs can
//! point *into* `MPI_Waitall`: under the instruction counter, spinning
//! inflates exactly those spans.

use crate::replay::{CausalWindow, LocalReplay, MpiInstance, Segment};
use nrlt_profile::CallPathId;

/// A location's span cursors: the lower-bound index of the previous
/// query into its segments and into its MPI instances.
pub(crate) type SpanCursor = [usize; 2];

/// Time per call path overlapping `[start, end)` on the location `r`,
/// accumulated into dense scratch: `acc[path]` grows by the overlap,
/// and a path whose slot was 0 is recorded in `touched` on its first
/// overlap (so the caller can reset only what was written).
///
/// The spans are the location's segments and MPI instances, read in
/// place: each list is in time order and free of overlaps, so each is
/// walked on its own, and `touched` lists the paths new to the
/// segments before those new to the MPI instances. `cursor` holds one
/// lower-bound index per list from the previous query on this
/// location, and each search starts from it instead of bisecting the
/// whole list. Exact for any cursor value; the delay workers'
/// per-location wait streams are roughly time-ordered, so consecutive
/// queries land a few spans apart.
pub(crate) fn profile_into_hinted(
    r: &LocalReplay,
    start: u64,
    end: u64,
    acc: &mut [u64],
    touched: &mut Vec<u32>,
    cursor: &mut SpanCursor,
) {
    if end <= start {
        return;
    }
    let segment = |s: &Segment| (s.start, s.end, s.path);
    walk_spans(&r.segments, segment, start, end, acc, touched, &mut cursor[0]);
    let mpi = |m: &MpiInstance| (m.enter, m.leave, m.path);
    walk_spans(&r.mpi_instances, mpi, start, end, acc, touched, &mut cursor[1]);
}

/// [`profile_into_hinted`] over one time-ordered, non-overlapping span
/// list, from the lower bound `hint`.
fn walk_spans<T>(
    items: &[T],
    span: impl Fn(&T) -> (u64, u64, CallPathId),
    start: u64,
    end: u64,
    acc: &mut [u64],
    touched: &mut Vec<u32>,
    hint: &mut usize,
) {
    // First span that could overlap: the one before the first span
    // starting at/after `start` (every earlier one ends at or before
    // that one's start). Walk forward from the hint (queries mostly move
    // forward a few spans; long jumps are rare) or bisect the prefix
    // before it.
    let starts_before = |x: &T| span(x).0 < start;
    let mut lb = (*hint).min(items.len());
    if lb < items.len() && starts_before(&items[lb]) {
        while lb < items.len() && starts_before(&items[lb]) {
            lb += 1;
        }
    } else {
        lb = items[..lb].partition_point(starts_before);
    }
    *hint = lb;
    for item in &items[lb.saturating_sub(1)..] {
        let (s, e, path) = span(item);
        if s >= end {
            break;
        }
        let overlap = e.min(end).saturating_sub(s.max(start));
        if overlap > 0 {
            let slot = &mut acc[path.0 as usize];
            if *slot == 0 {
                touched.push(path.0);
            }
            *slot += overlap;
        }
    }
}

/// One delay attribution target: call path + location + cost.
pub type DelayContribution = (CallPathId, usize, f64);

/// Reusable dense state for one delay worker: interval profiles indexed
/// by call-path id plus touched-path lists for sparse reset. Replaces a
/// pair of per-wait `HashMap` allocations in the hottest analysis loop.
#[derive(Debug, Clone)]
pub struct DelayScratch {
    w: Vec<u64>,
    d: Vec<u64>,
    w_touched: Vec<u32>,
    d_touched: Vec<u32>,
    /// The delayer window whose profile `d` currently holds. Every
    /// waiter of one barrier/collective instance shares the same
    /// delayer window, so consecutive waits hit this memo and skip the
    /// delayer's span walk entirely. The profile is a pure function of
    /// the window, so reuse is exact.
    d_key: Option<CausalWindow>,
    /// Per-location span cursors: the `cursor` of
    /// [`profile_into_hinted`]. Purely an access hint.
    cursors: Vec<SpanCursor>,
}

impl DelayScratch {
    /// Scratch for `n_paths` call paths (the call tree's size) and
    /// `n_locs` locations.
    pub(crate) fn new(n_paths: usize, n_locs: usize) -> DelayScratch {
        DelayScratch {
            w: vec![0; n_paths],
            d: vec![0; n_paths],
            w_touched: Vec::new(),
            d_touched: Vec::new(),
            d_key: None,
            cursors: vec![[0; 2]; n_locs],
        }
    }

    fn reset_waiter(&mut self) {
        for &p in &self.w_touched {
            self.w[p as usize] = 0;
        }
        self.w_touched.clear();
    }

    fn reset_delayer(&mut self) {
        for &p in &self.d_touched {
            self.d[p as usize] = 0;
        }
        self.d_touched.clear();
        self.d_key = None;
    }
}

/// Distribute `severity` (the waiter's wait time) over the call paths
/// in which the delayer spent more time in its causal window than the
/// waiter did in its own, in proportion to that excess.
///
/// Appends the contributions in ascending call-path order into
/// caller-owned scratch and output buffers, with zero allocation once
/// the buffers are warm. Appends nothing when the delayer shows no
/// excess anywhere (e.g. the wait was caused by timing noise only — a
/// case the paper flags as invisible to logical clocks).
pub(crate) fn delay_for_wait_into(
    locals: &[LocalReplay],
    waiter: CausalWindow,
    delayer: CausalWindow,
    severity: u64,
    scratch: &mut DelayScratch,
    out: &mut Vec<DelayContribution>,
) {
    if severity == 0 || waiter.loc == delayer.loc {
        return;
    }
    profile_into_hinted(
        &locals[waiter.loc],
        waiter.from,
        waiter.to,
        &mut scratch.w,
        &mut scratch.w_touched,
        &mut scratch.cursors[waiter.loc],
    );
    if scratch.d_key != Some(delayer) {
        scratch.reset_delayer();
        profile_into_hinted(
            &locals[delayer.loc],
            delayer.from,
            delayer.to,
            &mut scratch.d,
            &mut scratch.d_touched,
            &mut scratch.cursors[delayer.loc],
        );
        // Contributions are emitted in ascending call-path order.
        scratch.d_touched.sort_unstable();
        scratch.d_key = Some(delayer);
    }
    let mut total = 0u64;
    for &p in &scratch.d_touched {
        total += scratch.d[p as usize].saturating_sub(scratch.w[p as usize]);
    }
    if total > 0 {
        for &p in &scratch.d_touched {
            let e = scratch.d[p as usize].saturating_sub(scratch.w[p as usize]);
            if e > 0 {
                out.push((CallPathId(p), delayer.loc, severity as f64 * e as f64 / total as f64));
            }
        }
    }
    scratch.reset_waiter();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::SegClass;
    use std::collections::BTreeMap;

    fn seg(path: u32, start: u64, end: u64) -> Segment {
        Segment { path: CallPathId(path), class: SegClass::Comp, start, end, in_parallel: false }
    }

    fn mpi(path: u32, enter: u64, leave: u64) -> MpiInstance {
        MpiInstance { path: CallPathId(path), enter, leave, collective: None }
    }

    /// One past the largest call-path id in `locals`' spans.
    fn n_paths(locals: &[LocalReplay]) -> usize {
        let segs = locals.iter().flat_map(|r| r.segments.iter().map(|s| s.path.0));
        let mpis = locals.iter().flat_map(|r| r.mpi_instances.iter().map(|m| m.path.0));
        segs.chain(mpis).map(|p| p as usize + 1).max().unwrap_or(0)
    }

    /// [`delay_for_wait_into`] with fresh scratch and output buffers,
    /// over the inter-process windows ending at the two enters.
    fn delay_for_wait(
        locals: &[LocalReplay],
        (waiter_loc, waiter_enter): (usize, u64),
        (delayer_loc, delayer_enter): (usize, u64),
        severity: u64,
    ) -> Vec<DelayContribution> {
        let mut scratch = DelayScratch::new(n_paths(locals), locals.len());
        let mut out = Vec::new();
        delay_for_wait_into(
            locals,
            CausalWindow::before(locals, waiter_loc, waiter_enter),
            CausalWindow::before(locals, delayer_loc, delayer_enter),
            severity,
            &mut scratch,
            &mut out,
        );
        out
    }

    /// [`profile_into_hinted`] from `cursor` on fresh buffers, as a
    /// `path → ticks` map.
    fn profile(r: &LocalReplay, start: u64, end: u64, cursor: SpanCursor) -> BTreeMap<u32, u64> {
        let mut acc = vec![0u64; n_paths(std::slice::from_ref(r))];
        let mut touched = Vec::new();
        let mut cursor = cursor;
        profile_into_hinted(r, start, end, &mut acc, &mut touched, &mut cursor);
        let map: BTreeMap<u32, u64> = touched.iter().map(|&p| (p, acc[p as usize])).collect();
        assert_eq!(map.len(), touched.len(), "a path was touched twice");
        map
    }

    /// The `path → ticks` overlap of `[start, end)` with each span of
    /// `spans`, summed by brute force.
    fn overlap_map(spans: &[(u64, u64, CallPathId)], start: u64, end: u64) -> BTreeMap<u32, u64> {
        let mut want = BTreeMap::new();
        for &(s, e, path) in spans {
            let overlap = e.min(end).saturating_sub(s.max(start));
            if overlap > 0 {
                *want.entry(path.0).or_default() += overlap;
            }
        }
        want
    }

    /// The location's spans as the walk used to read them: its segments
    /// and MPI instances of positive length, concatenated and sorted by
    /// start.
    fn sorted_spans(r: &LocalReplay) -> Vec<(u64, u64, CallPathId)> {
        let mut spans: Vec<(u64, u64, CallPathId)> = r
            .segments
            .iter()
            .map(|s| (s.start, s.end, s.path))
            .chain(r.mpi_instances.iter().map(|m| (m.enter, m.leave, m.path)))
            .filter(|&(s, e, _)| e > s)
            .collect();
        spans.sort_by_key(|&(s, _, _)| s);
        spans
    }

    /// Segments with a gap, and MPI instances in and around it: one of
    /// zero length, one sharing a path with a segment.
    fn fixture() -> LocalReplay {
        LocalReplay {
            segments: vec![seg(0, 0, 10), seg(2, 10, 30), seg(0, 40, 50), seg(5, 55, 60)],
            mpi_instances: vec![mpi(3, 30, 38), mpi(3, 38, 38), mpi(2, 50, 55)],
            ..Default::default()
        }
    }

    #[test]
    fn span_profile_clips_overlaps() {
        let r = LocalReplay {
            segments: vec![seg(0, 0, 10), seg(1, 10, 30), seg(0, 40, 50)],
            mpi_instances: vec![mpi(2, 30, 40)],
            ..Default::default()
        };
        let p = profile(&r, 5, 45, [0; 2]);
        assert_eq!(p[&0], 5 + 5);
        assert_eq!(p[&1], 20);
        assert_eq!(p[&2], 10);
        assert_eq!(profile(&r, 35, 36, [0; 2]), BTreeMap::from([(2, 1)]));
        assert!(profile(&r, 100, 200, [0; 2]).is_empty());
        assert!(profile(&r, 20, 20, [0; 2]).is_empty());
    }

    #[test]
    fn attribution_proportional_to_excess() {
        let locals = vec![
            LocalReplay { segments: vec![seg(0, 0, 10)], ..Default::default() },
            LocalReplay { segments: vec![seg(0, 0, 40), seg(1, 40, 70)], ..Default::default() },
        ];
        let contributions = delay_for_wait(&locals, (0, 10), (1, 70), 60);
        // excess: path0 = 30, path1 = 30 → 30/30 each of 60.
        assert_eq!(contributions.len(), 2);
        for &(_, loc, v) in &contributions {
            assert_eq!(loc, 1);
            assert!((v - 30.0).abs() < 1e-9);
        }
    }

    #[test]
    fn no_excess_no_attribution() {
        let locals = vec![
            LocalReplay { segments: vec![seg(0, 0, 100)], ..Default::default() },
            LocalReplay { segments: vec![seg(0, 0, 50)], ..Default::default() },
        ];
        assert!(delay_for_wait(&locals, (0, 100), (1, 50), 10).is_empty());
    }

    /// One dense buffer and one cursor reused across queries, drained after
    /// each as the critical-path walk drains them, give the brute-force
    /// overlap map every time and end all-zero.
    #[test]
    fn dense_profile_matches_map_profile() {
        let r = fixture();
        let spans = sorted_spans(&r);
        let mut acc = vec![0u64; 6];
        let mut touched = Vec::new();
        let mut cursor = [0; 2];
        for &(start, end) in &[(5u64, 45u64), (0, 100), (20, 20), (100, 200), (12, 57), (33, 52)] {
            profile_into_hinted(&r, start, end, &mut acc, &mut touched, &mut cursor);
            let mut got = BTreeMap::new();
            for p in touched.drain(..) {
                assert!(got.insert(p, std::mem::take(&mut acc[p as usize])).is_none());
            }
            assert_eq!(got, overlap_map(&spans, start, end), "[{start},{end})");
        }
        assert!(acc.iter().all(|&t| t == 0));
    }

    /// Every pair of cursors gives the overlap sums of a brute-force walk
    /// over the raw spans, empty windows included.
    #[test]
    fn hinted_profile_is_exact_for_any_hint() {
        let r = fixture();
        let spans = sorted_spans(&r);
        let windows = [(5u64, 45u64), (0, 100), (20, 20), (100, 200), (12, 57), (41, 42), (37, 39)];
        for &(start, end) in &windows {
            let want = overlap_map(&spans, start, end);
            for seg_hint in 0..6usize {
                for mpi_hint in 0..5usize {
                    let got = profile(&r, start, end, [seg_hint, mpi_hint]);
                    assert_eq!(got, want, "[{start},{end}) cursor [{seg_hint}, {mpi_hint}]");
                }
            }
        }
    }

    #[test]
    fn scratch_attribution_matches_map_attribution_and_resets() {
        let locals = vec![
            LocalReplay { segments: vec![seg(0, 0, 5)], ..Default::default() },
            LocalReplay {
                segments: vec![seg(1, 0, 40), seg(2, 40, 70), seg(1, 70, 80)],
                ..Default::default()
            },
        ];
        let mut scratch = DelayScratch::new(n_paths(&locals), locals.len());
        let mut out = Vec::new();
        let waiter = CausalWindow::before(&locals, 0, 10);
        let delayer = CausalWindow::before(&locals, 1, 80);
        // Run the same wait twice through the shared scratch: a dirty
        // scratch would change the second result.
        for _ in 0..2 {
            out.clear();
            delay_for_wait_into(&locals, waiter, delayer, 60, &mut scratch, &mut out);
            let reference = delay_for_wait(&locals, (0, 10), (1, 80), 60);
            assert_eq!(out, reference);
            assert!(!out.is_empty());
        }
    }

    #[test]
    fn delay_for_wait_uses_sync_points() {
        // Waiter did nothing, delayer computed 0..80 in path 1; both
        // synced at 0.
        let locals = vec![
            LocalReplay { syncs: vec![], ..Default::default() },
            LocalReplay { segments: vec![seg(1, 0, 80)], syncs: vec![], ..Default::default() },
        ];
        let c = delay_for_wait(&locals, (0, 10), (1, 80), 70);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].0, CallPathId(1));
        assert!((c[0].2 - 70.0).abs() < 1e-9);
        // Zero severity or self-delay: nothing.
        assert!(delay_for_wait(&locals, (0, 10), (1, 80), 0).is_empty());
        assert!(delay_for_wait(&locals, (1, 10), (1, 80), 5).is_empty());
    }

    /// Deterministic generator (splitmix64, no external crates).
    struct SplitMix64(u64);

    impl SplitMix64 {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    /// On the replayed traces of a hybrid run (`tsc`, noisy) and a
    /// logical one, the in-place walk gives the brute-force overlap over
    /// the sorted concatenation of each location's spans: for the windows
    /// between consecutive sync points, walked in order with one carried
    /// cursor, and for random windows from random cursors.
    fn check_walk_matches_sorted_spans(instance: nrlt_miniapps::BenchmarkInstance) {
        use nrlt_exec::ExecConfig;
        use nrlt_measure::{measure, ClockMode, FilterRules, MeasureConfig};
        let mut rng = SplitMix64(0x5eed);
        for mode in [ClockMode::Tsc, ClockMode::LtStmt] {
            let cfg = ExecConfig::jureca(instance.nodes, instance.layout.clone(), 1000);
            let mcfg = MeasureConfig::new(mode)
                .with_filter(FilterRules::from_rules(instance.filter_rules.iter().cloned()));
            let (trace, _) = measure(&instance.program, &cfg, &mcfg);
            let (tree, locals) = crate::replay::replay(&trace);
            let mut acc = vec![0u64; tree.len()];
            let mut touched = Vec::new();
            for (loc, r) in locals.iter().enumerate() {
                let spans = sorted_spans(r);
                assert!(!spans.is_empty());
                assert!(spans.windows(2).all(|w| w[0].1 <= w[1].0), "spans overlap");
                let mut check = |start: u64, end: u64, cursor: &mut SpanCursor| {
                    profile_into_hinted(r, start, end, &mut acc, &mut touched, cursor);
                    let got: BTreeMap<u32, u64> = touched
                        .drain(..)
                        .map(|p| (p, std::mem::take(&mut acc[p as usize])))
                        .collect();
                    let want = overlap_map(&spans, start, end);
                    assert_eq!(
                        got, want,
                        "{} {mode} location {loc} [{start}, {end})",
                        instance.name
                    );
                };
                // Sample the sync windows evenly: the oracle is linear in
                // the location's spans per window.
                let step = (r.syncs.len() / 64).max(1);
                let mut cursor = [0; 2];
                let first = r.syncs.first().map(|&to| [0, to]);
                for w in first.iter().map(|w| &w[..]).chain(r.syncs.windows(2).step_by(step)) {
                    check(w[0], w[1], &mut cursor);
                }
                let last = r.last_ts + 1;
                for _ in 0..32 {
                    let (a, b) = (rng.next() % last, rng.next() % last);
                    let mut cursor = [
                        (rng.next() % (r.segments.len() as u64 + 2)) as usize,
                        (rng.next() % (r.mpi_instances.len() as u64 + 2)) as usize,
                    ];
                    check(a.min(b), a.max(b), &mut cursor);
                }
            }
        }
    }

    #[test]
    fn merged_spans_match_a_sort_on_minife_2() {
        check_walk_matches_sorted_spans(nrlt_miniapps::minife_2());
    }

    #[test]
    fn merged_spans_match_a_sort_on_lulesh_2() {
        check_walk_matches_sorted_spans(nrlt_miniapps::lulesh_2());
    }
}
