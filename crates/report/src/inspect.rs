//! Span statistics over a telemetry bundle.
//!
//! Reconstructs the span nesting (per track, from each record's depth),
//! splits every span's duration into self time and child time, and
//! aggregates per span name: count, total, self total, and a self-time
//! distribution digested through the log-scale [`Histogram`] — which is
//! where the p50/p90/p99 columns of the inspector table come from.

use nrlt_telemetry::{Histogram, SpanRecord};
use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::bundle::Bundle;

/// Aggregated statistics of one span name.
#[derive(Debug, Clone)]
pub struct SpanStats {
    /// Span name.
    pub name: String,
    /// Number of spans with this name.
    pub count: u64,
    /// Sum of inclusive durations.
    pub total_ns: u64,
    /// Sum of self times (inclusive minus nested children).
    pub self_ns: u64,
    /// Distribution of per-span self times.
    pub self_hist: Histogram,
}

/// Self time of every span: its duration minus the durations of its
/// direct children, clamped at zero. Children are found per track via
/// the recorded depths: a span at depth `d` is a child of the most
/// recent unfinished span at depth `d - 1` on the same track.
pub fn self_times(spans: &[SpanRecord]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    let mut by_track: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        by_track.entry(s.track).or_default().push(i);
    }
    for idx in by_track.into_values() {
        let mut idx = idx;
        // Open order within a track is start order; records from a
        // bundle keep file order, but sort defensively so hand-built
        // span sets behave too.
        idx.sort_by_key(|&i| (spans[i].start_ns, spans[i].depth, i));
        let mut stack: Vec<usize> = Vec::new();
        for i in idx {
            stack.truncate(spans[i].depth as usize);
            if let Some(&parent) = stack.last() {
                child_ns[parent] = child_ns[parent].saturating_add(spans[i].dur_ns);
            }
            stack.push(i);
        }
    }
    spans.iter().zip(&child_ns).map(|(s, &c)| s.dur_ns.saturating_sub(c)).collect()
}

/// Per-name aggregation of a span list, sorted by descending self time
/// (name as the tie-break).
pub fn span_stats(spans: &[SpanRecord]) -> Vec<SpanStats> {
    let selfs = self_times(spans);
    let mut by_name: BTreeMap<&str, SpanStats> = BTreeMap::new();
    for (s, &self_ns) in spans.iter().zip(&selfs) {
        let e = by_name.entry(&s.name).or_insert_with(|| SpanStats {
            name: s.name.clone(),
            count: 0,
            total_ns: 0,
            self_ns: 0,
            self_hist: Histogram::new(),
        });
        e.count += 1;
        e.total_ns = e.total_ns.saturating_add(s.dur_ns);
        e.self_ns = e.self_ns.saturating_add(self_ns);
        e.self_hist.observe(self_ns);
    }
    let mut out: Vec<SpanStats> = by_name.into_values().collect();
    out.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then_with(|| a.name.cmp(&b.name)));
    out
}

/// Render the inspector view of a bundle: the span-statistics table
/// (count, total, self, self-time percentiles), then counters, then
/// histogram digests.
pub fn inspect_text(bundle: &Bundle) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "=== telemetry inspector: {} ===", bundle.name);

    let stats = span_stats(&bundle.spans);
    if !stats.is_empty() {
        let total_self: u64 = stats.iter().map(|s| s.self_ns).sum();
        let _ = writeln!(out, "spans ({} records, {} names)", bundle.spans.len(), stats.len());
        let _ = writeln!(
            out,
            "  {:<32} {:>7} {:>11} {:>11} {:>6}  {:>9} {:>9} {:>9}",
            "span", "count", "total", "self", "self%", "p50", "p90", "p99"
        );
        for s in &stats {
            let pct =
                if total_self == 0 { 0.0 } else { 100.0 * s.self_ns as f64 / total_self as f64 };
            let _ = writeln!(
                out,
                "  {:<32} {:>7} {:>11} {:>11} {:>6.1}  {:>9} {:>9} {:>9}",
                s.name,
                s.count,
                fmt_ns(s.total_ns),
                fmt_ns(s.self_ns),
                pct,
                fmt_ns(s.self_hist.percentile(0.50)),
                fmt_ns(s.self_hist.percentile(0.90)),
                fmt_ns(s.self_hist.percentile(0.99)),
            );
        }
        let _ = writeln!(out);
    }

    if !bundle.counters.is_empty() {
        let _ = writeln!(out, "counters");
        for (name, value) in &bundle.counters {
            let _ = writeln!(out, "  {name:<44} {value:>16}");
        }
        let _ = writeln!(out);
    }

    if !bundle.hists.is_empty() {
        let _ = writeln!(out, "histograms");
        for (name, h) in &bundle.hists {
            let _ = writeln!(
                out,
                "  {:<44} n={} min={} mean={:.1} p50={} p99={} max={}",
                name,
                h.count,
                if h.is_empty() { 0 } else { h.min },
                h.mean(),
                h.percentile(0.50),
                h.percentile(0.99),
                h.max
            );
        }
    }

    out
}

/// Approximate duration formatting (log-scale buckets make sub-ns detail
/// meaningless anyway).
fn fmt_ns(ns: u64) -> String {
    if ns >= 10_000_000_000 {
        format!("{:.1} s", ns as f64 / 1e9)
    } else if ns >= 10_000_000 {
        format!("{:.1} ms", ns as f64 / 1e6)
    } else if ns >= 10_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, track: u32, depth: u32, start: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            name: name.into(),
            cat: "pipeline".into(),
            track,
            depth,
            start_ns: start,
            dur_ns: dur,
            closed: true,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0, 100) → a [10, 40) → b [15, 25); root's self excludes
        // only a (b is a grandchild, already inside a's duration).
        let spans = [span("root", 0, 0, 0, 100), span("a", 0, 1, 10, 30), span("b", 0, 2, 15, 10)];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![70, 20, 10]);
    }

    #[test]
    fn sibling_tracks_do_not_interfere() {
        let spans = [span("w", 1, 0, 0, 50), span("w", 2, 0, 0, 80), span("inner", 2, 1, 10, 30)];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![50, 50, 30]);
    }

    #[test]
    fn self_times_conserve_root_inclusive_time() {
        // Two tracks, properly nested spans: self times add up to the
        // root spans' inclusive durations.
        let spans = [
            span("root", 0, 0, 0, 100),
            span("a", 0, 1, 10, 30),
            span("b", 0, 1, 50, 40),
            span("c", 0, 2, 55, 5),
            span("w", 1, 0, 0, 250),
            span("wa", 1, 1, 10, 240),
        ];
        let total: u64 = self_times(&spans).iter().sum();
        let roots: u64 = spans.iter().filter(|s| s.depth == 0).map(|s| s.dur_ns).sum();
        assert_eq!(total, roots);
        assert_eq!(total, 350);
    }

    #[test]
    fn stats_aggregate_by_name() {
        let spans =
            [span("mode", 1, 0, 0, 100), span("mode", 2, 0, 0, 300), span("analyze", 1, 1, 10, 40)];
        let stats = span_stats(&spans);
        assert_eq!(stats[0].name, "mode");
        assert_eq!(stats[0].count, 2);
        assert_eq!(stats[0].total_ns, 400);
        assert_eq!(stats[0].self_ns, 360); // 60 + 300
        assert_eq!(stats[1].name, "analyze");
        assert_eq!(stats[1].self_hist.count, 1);
        // Percentile of a single 40 ns self time reports exactly 40.
        assert_eq!(stats[1].self_hist.percentile(0.5), 40);
    }

    #[test]
    fn inspector_renders_all_sections() {
        let mut b = Bundle { name: "t".into(), ..Default::default() };
        b.spans = vec![span("measure", 0, 0, 0, 2_000_000)];
        b.counters.insert("engine.events".into(), 7);
        let mut h = Histogram::new();
        h.observe(12);
        b.hists.insert("depth".into(), h);
        let s = inspect_text(&b);
        assert!(s.contains("measure"), "{s}");
        assert!(s.contains("engine.events"), "{s}");
        assert!(s.contains("depth"), "{s}");
        assert!(s.contains("p99"), "{s}");
    }

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(999), "999 ns");
        assert_eq!(fmt_ns(25_000), "25.0 µs");
        assert_eq!(fmt_ns(25_000_000), "25.0 ms");
        assert_eq!(fmt_ns(25_000_000_000), "25.0 s");
    }
}
