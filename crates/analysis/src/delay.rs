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

use crate::replay::{CausalWindow, LocalReplay};
use nrlt_profile::CallPathId;

/// Per-location interval index over (comp + management + MPI) spans.
#[derive(Debug, Clone, Default)]
pub struct SpanIndex {
    /// Non-overlapping `(start, end, path)` in time order, per location.
    spans: Vec<Vec<(u64, u64, CallPathId)>>,
    /// One past the largest call-path id appearing in any span (sizes the
    /// dense [`DelayScratch`] arrays).
    n_paths: usize,
}

impl SpanIndex {
    /// Build the index from the replay data.
    pub(crate) fn build(locals: &[LocalReplay]) -> SpanIndex {
        let spans: Vec<Vec<(u64, u64, CallPathId)>> = locals.iter().map(merged_spans).collect();
        let n_paths = spans
            .iter()
            .flat_map(|v| v.iter().map(|&(_, _, p)| p.0 as usize + 1))
            .max()
            .unwrap_or(0);
        SpanIndex { spans, n_paths }
    }

    /// One past the largest call-path id this index can produce.
    pub(crate) fn n_paths(&self) -> usize {
        self.n_paths
    }

    /// Time per call path overlapping `[start, end)` on `loc`,
    /// accumulated into dense scratch: `acc[path]` grows by the overlap,
    /// and a path whose slot was 0 is recorded in `touched` on its first
    /// overlap (so the caller can reset only what was written).
    ///
    /// `hint` is the lower-bound span index of the previous query on
    /// this location, and the search starts from it instead of bisecting
    /// the whole span list. Exact for any hint value; the delay workers'
    /// per-location wait streams are roughly time-ordered, so
    /// consecutive queries land a few spans apart.
    pub(crate) fn profile_into_hinted(
        &self,
        loc: usize,
        start: u64,
        end: u64,
        acc: &mut [u64],
        touched: &mut Vec<u32>,
        hint: &mut usize,
    ) {
        if end <= start {
            return;
        }
        let spans = &self.spans[loc];
        // First span that could overlap: the one before the first span
        // starting at/after `start`. Walk forward from the hint (queries
        // mostly move forward a few spans; long jumps are rare) or bisect
        // the prefix before it.
        let mut lb = (*hint).min(spans.len());
        if lb < spans.len() && spans[lb].0 < start {
            while lb < spans.len() && spans[lb].0 < start {
                lb += 1;
            }
        } else {
            lb = spans[..lb].partition_point(|&(s, _, _)| s < start);
        }
        *hint = lb;
        let mut i = lb.saturating_sub(1);
        while i < spans.len() {
            let (s, e, path) = spans[i];
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
            i += 1;
        }
    }
}

/// One location's spans in time order: its segments and MPI instances
/// of positive length. Each list is already in time order and no two
/// spans overlap, so a two-way merge gives the order a sort by start
/// would, in linear time.
fn merged_spans(r: &LocalReplay) -> Vec<(u64, u64, CallPathId)> {
    let positive = |&(s, e, _): &(u64, u64, CallPathId)| e > s;
    let mut segs = r.segments.iter().map(|s| (s.start, s.end, s.path)).filter(positive).peekable();
    let mut mpi =
        r.mpi_instances.iter().map(|m| (m.enter, m.leave, m.path)).filter(positive).peekable();
    let mut out = Vec::with_capacity(r.segments.len() + r.mpi_instances.len());
    loop {
        let next = match (segs.peek(), mpi.peek()) {
            (Some(a), Some(b)) if b.0 < a.0 => mpi.next(),
            (Some(_), _) => segs.next(),
            (None, _) => mpi.next(),
        };
        match next {
            Some(span) => out.push(span),
            None => break,
        }
    }
    debug_assert!(out.windows(2).all(|w| w[0].0 < w[1].0), "spans overlap");
    out
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
    /// Per-location span cursors: the `hint` of
    /// [`SpanIndex::profile_into_hinted`]. Purely an access hint.
    span_hints: Vec<usize>,
}

impl DelayScratch {
    /// Scratch sized for every call path and location of `index`.
    pub(crate) fn new(index: &SpanIndex) -> DelayScratch {
        DelayScratch {
            w: vec![0; index.n_paths],
            d: vec![0; index.n_paths],
            w_touched: Vec::new(),
            d_touched: Vec::new(),
            d_key: None,
            span_hints: vec![0; index.spans.len()],
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
    index: &SpanIndex,
    waiter: CausalWindow,
    delayer: CausalWindow,
    severity: u64,
    scratch: &mut DelayScratch,
    out: &mut Vec<DelayContribution>,
) {
    if severity == 0 || waiter.loc == delayer.loc {
        return;
    }
    index.profile_into_hinted(
        waiter.loc,
        waiter.from,
        waiter.to,
        &mut scratch.w,
        &mut scratch.w_touched,
        &mut scratch.span_hints[waiter.loc],
    );
    if scratch.d_key != Some(delayer) {
        scratch.reset_delayer();
        index.profile_into_hinted(
            delayer.loc,
            delayer.from,
            delayer.to,
            &mut scratch.d,
            &mut scratch.d_touched,
            &mut scratch.span_hints[delayer.loc],
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
    use crate::replay::{SegClass, Segment};
    use std::collections::BTreeMap;

    fn seg(path: u32, start: u64, end: u64) -> Segment {
        Segment { path: CallPathId(path), class: SegClass::Comp, start, end, in_parallel: false }
    }

    /// [`delay_for_wait_into`] with fresh scratch and output buffers,
    /// over the inter-process windows ending at the two enters.
    fn delay_for_wait(
        index: &SpanIndex,
        locals: &[LocalReplay],
        (waiter_loc, waiter_enter): (usize, u64),
        (delayer_loc, delayer_enter): (usize, u64),
        severity: u64,
    ) -> Vec<DelayContribution> {
        let mut scratch = DelayScratch::new(index);
        let mut out = Vec::new();
        delay_for_wait_into(
            index,
            CausalWindow::before(locals, waiter_loc, waiter_enter, true),
            CausalWindow::before(locals, delayer_loc, delayer_enter, true),
            severity,
            &mut scratch,
            &mut out,
        );
        out
    }

    /// [`SpanIndex::profile_into_hinted`] from `hint` on fresh buffers,
    /// as a `path → ticks` map.
    fn profile(
        idx: &SpanIndex,
        loc: usize,
        start: u64,
        end: u64,
        hint: usize,
    ) -> BTreeMap<u32, u64> {
        let mut acc = vec![0u64; idx.n_paths()];
        let mut touched = Vec::new();
        let mut hint = hint;
        idx.profile_into_hinted(loc, start, end, &mut acc, &mut touched, &mut hint);
        let map: BTreeMap<u32, u64> = touched.iter().map(|&p| (p, acc[p as usize])).collect();
        assert_eq!(map.len(), touched.len(), "a path was touched twice");
        map
    }

    /// The `path → ticks` overlap of `[start, end)` with each raw segment,
    /// summed by brute force.
    fn overlap_map(segments: &[Segment], start: u64, end: u64) -> BTreeMap<u32, u64> {
        let mut want = BTreeMap::new();
        for s in segments {
            let overlap = s.end.min(end).saturating_sub(s.start.max(start));
            if overlap > 0 {
                *want.entry(s.path.0).or_default() += overlap;
            }
        }
        want
    }

    #[test]
    fn span_profile_clips_overlaps() {
        let locals = vec![LocalReplay {
            segments: vec![seg(0, 0, 10), seg(1, 10, 30), seg(0, 40, 50)],
            ..Default::default()
        }];
        let idx = SpanIndex::build(&locals);
        let p = profile(&idx, 0, 5, 45, 0);
        assert_eq!(p[&0], 5 + 5);
        assert_eq!(p[&1], 20);
        assert!(profile(&idx, 0, 100, 200, 0).is_empty());
        assert!(profile(&idx, 0, 20, 20, 0).is_empty());
    }

    #[test]
    fn attribution_proportional_to_excess() {
        let locals = vec![
            LocalReplay { segments: vec![seg(0, 0, 10)], ..Default::default() },
            LocalReplay { segments: vec![seg(0, 0, 40), seg(1, 40, 70)], ..Default::default() },
        ];
        let idx = SpanIndex::build(&locals);
        let contributions = delay_for_wait(&idx, &locals, (0, 10), (1, 70), 60);
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
        let idx = SpanIndex::build(&locals);
        assert!(delay_for_wait(&idx, &locals, (0, 100), (1, 50), 10).is_empty());
    }

    /// One dense buffer and one cursor reused across queries, drained after
    /// each as the critical-path walk drains them, give the brute-force
    /// overlap map every time and end all-zero.
    #[test]
    fn dense_profile_matches_map_profile() {
        let locals = vec![LocalReplay {
            segments: vec![seg(0, 0, 10), seg(2, 10, 30), seg(0, 40, 50), seg(5, 55, 60)],
            ..Default::default()
        }];
        let idx = SpanIndex::build(&locals);
        assert_eq!(idx.n_paths(), 6);
        let mut acc = vec![0u64; idx.n_paths()];
        let mut touched = Vec::new();
        let mut hint = 0;
        for &(start, end) in &[(5u64, 45u64), (0, 100), (20, 20), (100, 200), (12, 57)] {
            idx.profile_into_hinted(0, start, end, &mut acc, &mut touched, &mut hint);
            let mut got = BTreeMap::new();
            for p in touched.drain(..) {
                assert!(got.insert(p, std::mem::take(&mut acc[p as usize])).is_none());
            }
            assert_eq!(got, overlap_map(&locals[0].segments, start, end), "[{start},{end})");
        }
        assert!(acc.iter().all(|&t| t == 0));
    }

    /// Every hint gives the overlap sums of a brute-force walk over the
    /// raw segments, empty windows included.
    #[test]
    fn hinted_profile_is_exact_for_any_hint() {
        let locals = vec![LocalReplay {
            segments: vec![seg(0, 0, 10), seg(2, 10, 30), seg(0, 40, 50), seg(5, 55, 60)],
            ..Default::default()
        }];
        let idx = SpanIndex::build(&locals);
        let windows = [(5u64, 45u64), (0, 100), (20, 20), (100, 200), (12, 57), (41, 42)];
        for &(start, end) in &windows {
            let want = overlap_map(&locals[0].segments, start, end);
            for hint in 0..6usize {
                assert_eq!(profile(&idx, 0, start, end, hint), want, "[{start},{end}) hint {hint}");
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
        let idx = SpanIndex::build(&locals);
        let mut scratch = DelayScratch::new(&idx);
        let mut out = Vec::new();
        let waiter = CausalWindow::before(&locals, 0, 10, true);
        let delayer = CausalWindow::before(&locals, 1, 80, true);
        // Run the same wait twice through the shared scratch: a dirty
        // scratch would change the second result.
        for _ in 0..2 {
            out.clear();
            delay_for_wait_into(&idx, waiter, delayer, 60, &mut scratch, &mut out);
            let reference = delay_for_wait(&idx, &locals, (0, 10), (1, 80), 60);
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
        let idx = SpanIndex::build(&locals);
        let c = delay_for_wait(&idx, &locals, (0, 10), (1, 80), 70);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].0, CallPathId(1));
        assert!((c[0].2 - 70.0).abs() < 1e-9);
        // Zero severity or self-delay: nothing.
        assert!(delay_for_wait(&idx, &locals, (0, 10), (1, 80), 0).is_empty());
        assert!(delay_for_wait(&idx, &locals, (1, 10), (1, 80), 5).is_empty());
    }

    /// The merged index equals a sort of the concatenated spans on the
    /// replayed traces of a hybrid run (`tsc`, noisy) and a logical one.
    fn check_merge_matches_sort(instance: nrlt_miniapps::BenchmarkInstance) {
        use nrlt_exec::ExecConfig;
        use nrlt_measure::{measure, ClockMode, FilterRules, MeasureConfig};
        for mode in [ClockMode::Tsc, ClockMode::LtStmt] {
            let cfg = ExecConfig::jureca(instance.nodes, instance.layout.clone(), 1000);
            let mcfg = MeasureConfig::new(mode)
                .with_filter(FilterRules::from_rules(instance.filter_rules.iter().cloned()));
            let (trace, _) = measure(&instance.program, &cfg, &mcfg);
            let (_, locals) = crate::replay::replay(&trace);
            let index = SpanIndex::build(&locals);
            for (loc, r) in locals.iter().enumerate() {
                let mut sorted: Vec<(u64, u64, CallPathId)> = r
                    .segments
                    .iter()
                    .map(|s| (s.start, s.end, s.path))
                    .chain(r.mpi_instances.iter().map(|m| (m.enter, m.leave, m.path)))
                    .filter(|&(s, e, _)| e > s)
                    .collect();
                sorted.sort_by_key(|&(s, _, _)| s);
                assert!(!sorted.is_empty());
                assert_eq!(index.spans[loc], sorted, "{} {mode} location {loc}", instance.name);
            }
        }
    }

    #[test]
    fn merged_spans_match_a_sort_on_minife_2() {
        check_merge_matches_sort(nrlt_miniapps::minife_2());
    }

    #[test]
    fn merged_spans_match_a_sort_on_lulesh_2() {
        check_merge_matches_sort(nrlt_miniapps::lulesh_2());
    }
}
