//! Causality checking and post-processed clocks.
//!
//! The paper relies on the original Lamport clock computed *during*
//! measurement; it cites Ravel (Isaacs et al.), which assigns logical
//! time in post-processing. This module provides the causal graph, the
//! clock-condition check over it, and that post-processed clock:
//!
//! * `happens_before_edges` — the trace's causal graph: program order,
//!   message edges (send → receive completion), and collective edges
//!   (every member's entry → every member's completion).
//! * [`verify_clock_condition`] — checks Lamport's condition
//!   `a → b ⇒ C(a) < C(b)` for the trace's own timestamps. Used as a
//!   test oracle over every logical trace the measurement system emits.
//! * [`assign_lamport_postprocess`] — Ravel-style Lamport timestamps
//!   assigned from the causal graph alone.

use crate::replay::replay;
use nrlt_trace::Trace;
use std::collections::HashMap;

/// Identifies an event as (location index, index within the stream).
pub type EventId = (usize, usize);

/// One happens-before edge between events of different locations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Cause.
    pub from: EventId,
    /// Effect.
    pub to: EventId,
}

/// Find the stream indices of communication events per location.
fn comm_indices(trace: &Trace) -> Vec<HashMap<u64, usize>> {
    // Map timestamps of send/recv/collective events to stream indices.
    // Timestamps are unique per location for logical clocks (strictly
    // increasing); for physical clocks ties are broken by first match.
    trace
        .streams
        .iter()
        .map(|stream| {
            let mut m = HashMap::new();
            for (i, ev) in stream.iter().enumerate() {
                m.entry(ev.time).or_insert(i);
            }
            m
        })
        .collect()
}

/// Cross-location happens-before edges of a trace: matched messages and
/// collective instances. Program order within a stream is implicit.
pub(crate) fn happens_before_edges(trace: &Trace) -> Vec<Edge> {
    let tpr = trace.defs.threads_per_rank;
    let (_, locals) = replay(trace);
    let ts_index = comm_indices(trace);
    let mut edges = Vec::new();

    // Message edges: k-th send on a channel → k-th completion.
    let messages = crate::patterns::match_messages(&locals, tpr);
    for m in &messages {
        let from_idx = ts_index[m.send_loc].get(&m.send_ts);
        let to_idx = ts_index[m.recv_loc].get(&m.complete_ts);
        if let (Some(&f), Some(&t)) = (from_idx, to_idx) {
            edges.push(Edge { from: (m.send_loc, f), to: (m.recv_loc, t) });
        }
    }

    // Collective edges: every member's enter → every member's end.
    let collectives = crate::patterns::gather_collectives(&locals, tpr);
    for inst in &collectives {
        let enters: Vec<EventId> = inst
            .members
            .iter()
            .filter_map(|&(loc, idx)| {
                let mi: &crate::replay::MpiInstance = &locals[loc].mpi_instances[idx];
                ts_index[loc].get(&mi.enter).map(|&i| (loc, i))
            })
            .collect();
        let ends: Vec<EventId> = inst
            .members
            .iter()
            .filter_map(|&(loc, idx)| {
                let mi = &locals[loc].mpi_instances[idx];
                let end_ts = mi.collective_end_ts.unwrap_or(mi.leave);
                ts_index[loc].get(&end_ts).map(|&i| (loc, i))
            })
            .collect();
        for &from in &enters {
            for &to in &ends {
                if from.0 != to.0 {
                    edges.push(Edge { from, to });
                }
            }
        }
    }

    // Barrier edges within each team.
    let n_ranks = trace.defs.n_ranks();
    for rank in 0..n_ranks {
        for inst in crate::patterns::gather_barriers(&locals, rank, tpr) {
            let recs: Vec<(usize, &crate::replay::BarrierRec)> =
                inst.members.iter().map(|&(loc, i)| (loc, &locals[loc].barriers[i])).collect();
            for &(floc, f) in &recs {
                for &(tloc, t) in &recs {
                    if floc != tloc {
                        if let (Some(&fi), Some(&ti)) =
                            (ts_index[floc].get(&f.enter), ts_index[tloc].get(&t.leave))
                        {
                            edges.push(Edge { from: (floc, fi), to: (tloc, ti) });
                        }
                    }
                }
            }
        }
    }
    edges
}

/// Verify Lamport's clock condition on the trace's own timestamps:
/// for every happens-before edge, `C(cause) < C(effect)`; and per
/// stream, timestamps are non-decreasing. Returns the violations.
pub fn verify_clock_condition(trace: &Trace) -> Vec<String> {
    let mut violations = Vec::new();
    for (loc, stream) in trace.streams.iter().enumerate() {
        for w in stream.times().windows(2) {
            if w[1] < w[0] {
                violations.push(format!(
                    "location {loc}: program order violated ({} after {})",
                    w[1], w[0]
                ));
            }
        }
    }
    for edge in happens_before_edges(trace) {
        let c_from = trace.streams[edge.from.0].time(edge.from.1);
        let c_to = trace.streams[edge.to.0].time(edge.to.1);
        if c_from >= c_to {
            violations.push(format!(
                "edge {:?} -> {:?}: C(cause)={} >= C(effect)={}",
                edge.from, edge.to, c_from, c_to
            ));
        }
    }
    violations
}

/// Ravel-style post-processing: assign fresh Lamport timestamps to a
/// trace from its causal structure alone, ignoring the recorded times.
/// Returns per-location timestamp vectors with increment 1 per event.
pub fn assign_lamport_postprocess(trace: &Trace) -> Vec<Vec<u64>> {
    let n = trace.streams.len();
    let mut incoming: HashMap<EventId, Vec<EventId>> = HashMap::new();
    for e in happens_before_edges(trace) {
        incoming.entry(e.to).or_default().push(e.from);
    }
    let mut out: Vec<Vec<u64>> = trace.streams.iter().map(|s| vec![0; s.len()]).collect();
    let mut order: Vec<EventId> =
        (0..n).flat_map(|l| (0..trace.streams[l].len()).map(move |i| (l, i))).collect();
    order.sort_by_key(|&(l, i)| (trace.streams[l].time(i), l, i));
    for (l, i) in order {
        let mut c = if i > 0 { out[l][i - 1] } else { 0 };
        if let Some(sources) = incoming.get(&(l, i)) {
            for &(sl, si) in sources {
                c = c.max(out[sl][si]);
            }
        }
        out[l][i] = c + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrlt_trace::{
        ClockKind, Definitions, Event, EventKind, LocationDef, RegionDef, RegionRef, RegionRole,
        Trace,
    };

    /// Two ranks, one message 0 → 1, logical timestamps.
    fn msg_trace(send_ts: u64, recv_complete_ts: u64) -> Trace {
        let defs = Definitions {
            regions: std::sync::Arc::new(vec![
                RegionDef { name: "main".into(), role: RegionRole::Function },
                RegionDef { name: "MPI_Send".into(), role: RegionRole::MpiApi },
                RegionDef { name: "MPI_Recv".into(), role: RegionRole::MpiApi },
            ]),
            locations: std::sync::Arc::new(vec![
                LocationDef { rank: 0, thread: 0, core: 0 },
                LocationDef { rank: 1, thread: 0, core: 1 },
            ]),
            threads_per_rank: 1,
            clock: ClockKind::Logical { model: "lt_1".into() },
        };
        let r = |i| RegionRef(i);
        let s0 = vec![
            Event::new(1, EventKind::Enter { region: r(0) }),
            Event::new(2, EventKind::Enter { region: r(1) }),
            Event::new(send_ts, EventKind::SendPost { peer: 1, tag: 0, bytes: 8 }),
            Event::new(send_ts + 1, EventKind::Leave { region: r(1) }),
            Event::new(send_ts + 2, EventKind::Leave { region: r(0) }),
        ];
        let s1 = vec![
            Event::new(1, EventKind::Enter { region: r(0) }),
            Event::new(2, EventKind::Enter { region: r(2) }),
            Event::new(3, EventKind::RecvPost { peer: 0, tag: 0, bytes: 8 }),
            Event::new(recv_complete_ts, EventKind::RecvComplete { peer: 0, tag: 0, bytes: 8 }),
            Event::new(recv_complete_ts + 1, EventKind::Leave { region: r(2) }),
            Event::new(recv_complete_ts + 2, EventKind::Leave { region: r(0) }),
        ];
        Trace { defs, streams: vec![s0.into(), s1.into()] }
    }

    #[test]
    fn valid_trace_passes() {
        let t = msg_trace(3, 7);
        assert!(verify_clock_condition(&t).is_empty());
    }

    #[test]
    fn clock_violation_detected() {
        // Receive completion stamped before the send.
        let t = msg_trace(10, 5);
        let v = verify_clock_condition(&t);
        assert!(!v.is_empty());
        assert!(v[0].contains("C(cause)"), "{v:?}");
    }

    #[test]
    fn postprocessed_lamport_satisfies_the_condition() {
        let t = msg_trace(3, 7);
        let ts = assign_lamport_postprocess(&t);
        // Program order strictly increasing.
        for stream in &ts {
            for w in stream.windows(2) {
                assert!(w[0] < w[1]);
            }
        }
        // Message edge respected: recv completion after send post.
        assert!(ts[1][3] > ts[0][2]);
    }
}
