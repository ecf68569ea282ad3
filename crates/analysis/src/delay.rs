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

use crate::replay::{prev_sync_hinted, LocalReplay};
use nrlt_profile::CallPathId;
use std::collections::HashMap;

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
        let spans: Vec<Vec<(u64, u64, CallPathId)>> = locals
            .iter()
            .map(|r| {
                let mut v: Vec<(u64, u64, CallPathId)> = r
                    .segments
                    .iter()
                    .map(|s| (s.start, s.end, s.path))
                    .chain(r.mpi_instances.iter().map(|m| (m.enter, m.leave, m.path)))
                    .filter(|&(s, e, _)| e > s)
                    .collect();
                v.sort_unstable_by_key(|&(s, _, _)| s);
                v
            })
            .collect();
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

    /// [`profile`](Self::profile) into reusable dense scratch: time per
    /// call path overlapping `[start, end)` on `loc` is accumulated into
    /// `acc[path]`, with each first-touched path recorded in `touched`
    /// (so the caller can reset only what was written).
    ///
    /// `hint` is the lower-bound span index of the previous query on
    /// this location, and the search gallops out from it instead of
    /// bisecting the whole span list. Exact for any hint value; the
    /// delay workers' per-location wait streams are roughly
    /// time-ordered, so consecutive queries land a few spans apart.
    fn profile_into_hinted(
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
        // starting at/after `start`.
        let lb = {
            let h = *hint;
            let n = spans.len();
            // Gallop on the start column without materialising it: the
            // comparisons below mirror `lower_bound_from`.
            let mut j = h.min(n);
            if j < n && spans[j].0 < start {
                while j < n && spans[j].0 < start {
                    j += 1;
                }
                // Long forward jumps are rare (group boundaries); the
                // linear walk amortises over the in-order common case.
                j
            } else {
                spans[..j].partition_point(|&(s, _, _)| s < start)
            }
        };
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

    /// Time per call path overlapping `[start, end)` on `loc`.
    pub(crate) fn profile(&self, loc: usize, start: u64, end: u64) -> HashMap<CallPathId, u64> {
        let mut out = HashMap::new();
        if end <= start {
            return out;
        }
        let spans = &self.spans[loc];
        // First span that could overlap: the one before the first span
        // starting at/after `start`.
        let mut i = spans.partition_point(|&(s, _, _)| s < start);
        i = i.saturating_sub(1);
        while i < spans.len() {
            let (s, e, path) = spans[i];
            if s >= end {
                break;
            }
            let overlap = e.min(end).saturating_sub(s.max(start));
            if overlap > 0 {
                *out.entry(path).or_insert(0) += overlap;
            }
            i += 1;
        }
        out
    }
}

/// One delay attribution target: call path + location + cost.
pub type DelayContribution = (CallPathId, usize, f64);

/// Reusable dense state for one delay worker: interval profiles indexed
/// by call-path id plus touched-path lists for sparse reset. Replaces a
/// pair of per-wait `HashMap` allocations in the hottest analysis loop.
#[derive(Debug, Clone, Default)]
pub struct DelayScratch {
    w: Vec<u64>,
    d: Vec<u64>,
    w_touched: Vec<u32>,
    d_touched: Vec<u32>,
    /// `(delayer_loc, from, to)` of the delayer profile currently held in
    /// `d`. Every waiter of one barrier/collective instance shares the
    /// same delayer, so consecutive waits hit this memo and skip the
    /// delayer's sync search and span walk entirely. The profile is a
    /// pure function of the key, so reuse is exact.
    d_key: Option<(usize, u64, u64)>,
    /// Per-location rolling cursors for the span and sync searches,
    /// lazily sized to the location count. Purely an access hint — every
    /// hinted search returns the same result for any hint value.
    hints: Vec<LocHints>,
}

/// Rolling search cursors for one location (see [`DelayScratch`]).
#[derive(Debug, Clone, Copy, Default)]
struct LocHints {
    /// Lower-bound span index of the last `profile_into_hinted` query.
    span: usize,
    /// Lower-bound index of the last intra-process sync search.
    sync: usize,
    /// Lower-bound index of the last inter-process sync search.
    mpi_sync: usize,
}

impl DelayScratch {
    /// Scratch sized for `n_paths` call paths ([`SpanIndex::n_paths`]).
    pub(crate) fn new(n_paths: usize) -> DelayScratch {
        DelayScratch {
            w: vec![0; n_paths],
            d: vec![0; n_paths],
            w_touched: Vec::new(),
            d_touched: Vec::new(),
            d_key: None,
            hints: Vec::new(),
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
/// in which the delayer spent more time than the waiter since their
/// respective last synchronisation points, in proportion to that excess.
///
/// `inter_process` selects the synchronisation horizon: true for MPI
/// wait states (only recv/collective completions clip the interval),
/// false for OpenMP barrier waits (any sync point does).
///
/// Appends the contributions in ascending call-path order into
/// caller-owned scratch and output buffers, with zero allocation once
/// the buffers are warm. Appends nothing when the delayer shows no
/// excess anywhere (e.g. the wait was caused by timing noise only — a
/// case the paper flags as invisible to logical clocks).
#[allow(clippy::too_many_arguments)]
pub(crate) fn delay_for_wait_into(
    index: &SpanIndex,
    locals: &[LocalReplay],
    waiter_loc: usize,
    waiter_enter: u64,
    delayer_loc: usize,
    delayer_enter: u64,
    severity: u64,
    inter_process: bool,
    scratch: &mut DelayScratch,
    out: &mut Vec<DelayContribution>,
) {
    if severity == 0 || waiter_loc == delayer_loc {
        return;
    }
    if scratch.hints.len() < locals.len() {
        scratch.hints.resize(locals.len(), LocHints::default());
    }
    let w_hints = &mut scratch.hints[waiter_loc];
    let w_from = prev_sync_hinted(
        &locals[waiter_loc],
        waiter_enter,
        inter_process,
        if inter_process { &mut w_hints.mpi_sync } else { &mut w_hints.sync },
    );
    index.profile_into_hinted(
        waiter_loc,
        w_from,
        waiter_enter,
        &mut scratch.w,
        &mut scratch.w_touched,
        &mut scratch.hints[waiter_loc].span,
    );
    // The delayer profile is keyed only by (loc, from, to); reuse it
    // across the waiters of the same instance.
    let d_hints = &mut scratch.hints[delayer_loc];
    let d_from = prev_sync_hinted(
        &locals[delayer_loc],
        delayer_enter,
        inter_process,
        if inter_process { &mut d_hints.mpi_sync } else { &mut d_hints.sync },
    );
    let d_key = (delayer_loc, d_from, delayer_enter);
    if scratch.d_key != Some(d_key) {
        scratch.reset_delayer();
        index.profile_into_hinted(
            delayer_loc,
            d_from,
            delayer_enter,
            &mut scratch.d,
            &mut scratch.d_touched,
            &mut scratch.hints[delayer_loc].span,
        );
        // Contributions are emitted in ascending call-path order.
        scratch.d_touched.sort_unstable();
        scratch.d_key = Some(d_key);
    }
    let mut total = 0u64;
    for &p in &scratch.d_touched {
        total += scratch.d[p as usize].saturating_sub(scratch.w[p as usize]);
    }
    if total > 0 {
        for &p in &scratch.d_touched {
            let e = scratch.d[p as usize].saturating_sub(scratch.w[p as usize]);
            if e > 0 {
                out.push((CallPathId(p), delayer_loc, severity as f64 * e as f64 / total as f64));
            }
        }
    }
    scratch.reset_waiter();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::{SegClass, Segment};

    fn seg(path: u32, start: u64, end: u64) -> Segment {
        Segment { path: CallPathId(path), class: SegClass::Comp, start, end, in_parallel: false }
    }

    /// [`delay_for_wait_into`] with fresh scratch and output buffers.
    #[allow(clippy::too_many_arguments)]
    fn delay_for_wait(
        index: &SpanIndex,
        locals: &[LocalReplay],
        waiter_loc: usize,
        waiter_enter: u64,
        delayer_loc: usize,
        delayer_enter: u64,
        severity: u64,
        inter_process: bool,
    ) -> Vec<DelayContribution> {
        let mut scratch = DelayScratch::new(index.n_paths());
        let mut out = Vec::new();
        delay_for_wait_into(
            index,
            locals,
            waiter_loc,
            waiter_enter,
            delayer_loc,
            delayer_enter,
            severity,
            inter_process,
            &mut scratch,
            &mut out,
        );
        out
    }

    #[test]
    fn span_profile_clips_overlaps() {
        let locals = vec![LocalReplay {
            segments: vec![seg(0, 0, 10), seg(1, 10, 30), seg(0, 40, 50)],
            ..Default::default()
        }];
        let idx = SpanIndex::build(&locals);
        let p = idx.profile(0, 5, 45);
        assert_eq!(p[&CallPathId(0)], 5 + 5);
        assert_eq!(p[&CallPathId(1)], 20);
        assert!(idx.profile(0, 100, 200).is_empty());
        assert!(idx.profile(0, 20, 20).is_empty());
    }

    #[test]
    fn attribution_proportional_to_excess() {
        let locals = vec![
            LocalReplay { segments: vec![seg(0, 0, 10)], ..Default::default() },
            LocalReplay { segments: vec![seg(0, 0, 40), seg(1, 40, 70)], ..Default::default() },
        ];
        let idx = SpanIndex::build(&locals);
        let contributions = delay_for_wait(&idx, &locals, 0, 10, 1, 70, 60, true);
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
        assert!(delay_for_wait(&idx, &locals, 0, 100, 1, 50, 10, true).is_empty());
    }

    #[test]
    fn dense_profile_matches_map_profile() {
        let locals = vec![LocalReplay {
            segments: vec![seg(0, 0, 10), seg(2, 10, 30), seg(0, 40, 50), seg(5, 55, 60)],
            ..Default::default()
        }];
        let idx = SpanIndex::build(&locals);
        assert_eq!(idx.n_paths(), 6);
        for &(start, end) in &[(5u64, 45u64), (0, 100), (20, 20), (100, 200), (12, 57)] {
            let map = idx.profile(0, start, end);
            let mut acc = vec![0u64; idx.n_paths()];
            let mut touched = Vec::new();
            let mut hint = 0;
            idx.profile_into_hinted(0, start, end, &mut acc, &mut touched, &mut hint);
            assert_eq!(touched.len(), map.len(), "[{start},{end}) touched set mismatch");
            for &p in &touched {
                assert_eq!(acc[p as usize], map[&CallPathId(p)], "[{start},{end}) path {p}");
            }
        }
    }

    #[test]
    fn hinted_profile_is_exact_for_any_hint() {
        let locals = vec![LocalReplay {
            segments: vec![seg(0, 0, 10), seg(2, 10, 30), seg(0, 40, 50), seg(5, 55, 60)],
            ..Default::default()
        }];
        let idx = SpanIndex::build(&locals);
        for &(start, end) in &[(5u64, 45u64), (0, 100), (12, 57), (41, 42), (100, 200)] {
            let map = idx.profile(0, start, end);
            for hint0 in 0..6usize {
                let mut acc = vec![0u64; idx.n_paths()];
                let mut touched = Vec::new();
                let mut hint = hint0;
                idx.profile_into_hinted(0, start, end, &mut acc, &mut touched, &mut hint);
                assert_eq!(touched.len(), map.len(), "[{start},{end}) hint {hint0}");
                for &p in &touched {
                    assert_eq!(
                        acc[p as usize],
                        map[&CallPathId(p)],
                        "[{start},{end}) hint {hint0}"
                    );
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
        let idx = SpanIndex::build(&locals);
        let mut scratch = DelayScratch::new(idx.n_paths());
        let mut out = Vec::new();
        // Run the same wait twice through the shared scratch: a dirty
        // scratch would change the second result.
        for _ in 0..2 {
            out.clear();
            delay_for_wait_into(&idx, &locals, 0, 10, 1, 80, 60, true, &mut scratch, &mut out);
            let reference = delay_for_wait(&idx, &locals, 0, 10, 1, 80, 60, true);
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
        let c = delay_for_wait(&idx, &locals, 0, 10, 1, 80, 70, true);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].0, CallPathId(1));
        assert!((c[0].2 - 70.0).abs() < 1e-9);
        // Zero severity or self-delay: nothing.
        assert!(delay_for_wait(&idx, &locals, 0, 10, 1, 80, 0, true).is_empty());
        assert!(delay_for_wait(&idx, &locals, 1, 10, 1, 80, 5, true).is_empty());
    }
}
