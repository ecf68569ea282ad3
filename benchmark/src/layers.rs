//! Per-layer metrics from the traced run's spans.
//!
//! Each traced pass opens a root span and, inside it, one span per layer
//! call (see [`crate::pipeline::span`]). A layer's time is the self time
//! of its spans — duration minus direct children, per track — summed over
//! the pass; each metric is then the median over passes.

use crate::metrics::PER_LAYER;
use crate::pipeline::{count, self_times, span, SpanRecord, Telemetry, BYTES_PER_EVENT};
use crate::record::Metric;
use crate::stats::Summary;
use std::collections::BTreeMap;
use std::ops::Range;

/// The spans and counts one pass recorded.
#[derive(Debug, Clone)]
pub struct PassSpans {
    /// Indices of the pass's spans in the telemetry's span list; the
    /// first is the pass's root.
    range: Range<usize>,
    /// Event counts added during the pass.
    counts: BTreeMap<&'static str, u64>,
}

const COUNTS: [&str; 3] = [count::REFERENCE_EVENTS, count::MEASURE_EVENTS, count::TRACE_EVENTS];

fn counts(spans: &Telemetry) -> BTreeMap<&'static str, u64> {
    COUNTS.iter().map(|&c| (c, spans.counter(c).unwrap_or(0))).collect()
}

impl PassSpans {
    /// Run `f` under a root span named `root` and note what it recorded.
    pub fn record<R>(spans: &Telemetry, root: &str, f: impl FnOnce() -> R) -> (R, PassSpans) {
        let before = counts(spans);
        let start = spans.spans().len();
        let out = {
            let _root = spans.span(root);
            f()
        };
        let range = start..spans.spans().len();
        let counts = counts(spans).into_iter().map(|(c, v)| (c, v - before[c])).collect();
        (out, PassSpans { range, counts })
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The layer values of one pass that need no other pass.
fn layer_values(
    all: &[SpanRecord],
    selfs: &[u64],
    pass: &PassSpans,
) -> BTreeMap<&'static str, f64> {
    let self_s = |name: &str| {
        pass.range.clone().filter(|&i| all[i].name == name).map(|i| selfs[i]).sum::<u64>() as f64
            / 1e9
    };
    let root = pass.range.start;
    let wall = all[root].dur_ns as f64 / 1e9;
    let ref_events = pass.counts[count::REFERENCE_EVENTS] as f64;
    let measure_events = pass.counts[count::MEASURE_EVENTS] as f64;
    let trace_events = pass.counts[count::TRACE_EVENTS] as f64;
    let reference_s = self_s(span::REFERENCE);
    let measure_s = self_s(span::MEASURE);
    let analysis_s = self_s(span::ANALYSIS);
    let exec_ns = ratio(reference_s * 1e9, ref_events);
    BTreeMap::from([
        ("pass.wall_s", wall),
        ("miniapps.build_s", self_s(span::BUILD)),
        ("measure.prepare_s", self_s(span::PREPARE)),
        ("exec.reference_s", reference_s),
        ("exec.reference_events", ref_events),
        ("exec.ns_per_event", exec_ns),
        ("measure.run_s", measure_s),
        ("measure.events", measure_events),
        ("measure.ns_per_event", ratio(measure_s * 1e9, measure_events)),
        // An estimate: the measured run's time beyond what the engine
        // alone would take for its events at the reference rate; 0 when
        // the pass has no reference run to take the rate from.
        (
            "measure.observer_s",
            if ref_events == 0.0 { 0.0 } else { measure_s - measure_events * exec_ns / 1e9 },
        ),
        ("trace.events", trace_events),
        ("trace.record_ratio", ratio(trace_events, measure_events)),
        // Computed from the event count, not measured.
        ("trace.resident_mib", trace_events * BYTES_PER_EVENT as f64 / f64::from(1u32 << 20)),
        ("trace.merge_s", self_s(span::TRACE_MERGE)),
        ("analysis.run_s", analysis_s),
        ("analysis.ns_per_event", ratio(analysis_s * 1e9, trace_events)),
        ("profile.merge_s", self_s(span::PROFILE)),
        ("report.render_s", self_s(span::RENDER)),
        ("probes.export_s", self_s(span::EXPORT)),
        ("pass.unaccounted_frac", ratio(selfs[root] as f64 / 1e9, wall)),
    ])
}

/// One sample per traced pass holding every per-layer metric. `passes`
/// pairs each pass with the plain twin the observed workload runs after
/// it; `timed_total` is the set-up plus wall time of an untraced pass of
/// the same work.
pub fn pass_samples(
    all: &[SpanRecord],
    passes: &[(PassSpans, Option<PassSpans>)],
    timed_total: f64,
) -> Vec<BTreeMap<String, f64>> {
    let selfs = self_times(all);
    passes
        .iter()
        .map(|(main, twin)| {
            let v = layer_values(all, &selfs, main);
            let mut sample: BTreeMap<String, f64> =
                v.iter().map(|(k, x)| ((*k).to_owned(), *x)).collect();
            sample.insert(
                "pass.tracing_overhead_frac".into(),
                ratio(v["pass.wall_s"], timed_total) - 1.0,
            );
            let (overhead, measure_extra, analysis_extra) = match twin {
                Some(twin) => {
                    let t = layer_values(all, &selfs, twin);
                    (
                        ratio(v["pass.wall_s"], t["pass.wall_s"]) - 1.0,
                        v["measure.run_s"] - t["measure.run_s"],
                        v["analysis.run_s"] - t["analysis.run_s"],
                    )
                }
                None => (0.0, 0.0, 0.0),
            };
            sample.insert("probes.overhead_frac".into(), overhead);
            sample.insert("probes.measure_extra_s".into(), measure_extra);
            sample.insert("probes.analysis_extra_s".into(), analysis_extra);
            sample
        })
        .collect()
}

/// The per-layer metrics: each declared metric's median over passes.
pub fn summarize(samples: &[BTreeMap<String, f64>]) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let values: Vec<f64> = samples.iter().map(|s| s[name]).collect();
            Metric {
                name: name.to_owned(),
                unit: unit.to_owned(),
                summary: Summary::of(&values).expect("a traced run has at least one pass"),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &str, track: u32, depth: u32, start: u64, dur: u64) -> SpanRecord {
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

    fn pass(range: Range<usize>, reference: u64, measured: u64, traced: u64) -> PassSpans {
        let counts = BTreeMap::from([
            (count::REFERENCE_EVENTS, reference),
            (count::MEASURE_EVENTS, measured),
            (count::TRACE_EVENTS, traced),
        ]);
        PassSpans { range, counts }
    }

    /// A 10 s pass on two workers: 1 s build, 8 s fan-out holding two
    /// cells (a 3 s reference, a 6 s measured-and-analysed cell), 0.5 s
    /// render; 0.5 s of the root is in no layer.
    fn two_worker_pass() -> Vec<SpanRecord> {
        const S: u64 = 1_000_000_000;
        vec![
            rec(span::PASS, 0, 0, 0, 10 * S),
            rec(span::BUILD, 0, 1, 0, S),
            rec(span::FANOUT, 0, 1, S, 8 * S),
            rec(span::CELL, 1, 0, S, 3 * S),
            rec(span::REFERENCE, 1, 1, S, 3 * S),
            rec(span::CELL, 2, 0, S, 6 * S),
            rec(span::MEASURE, 2, 1, S, 4 * S),
            rec(span::ANALYSIS, 2, 1, 5 * S, 2 * S),
            rec(span::RENDER, 0, 1, 9 * S, S / 2),
        ]
    }

    #[test]
    fn layers_split_one_pass() {
        let all = two_worker_pass();
        let selfs = self_times(&all);
        let v = layer_values(&all, &selfs, &pass(0..all.len(), 3_000, 2_000, 1_000));
        assert_eq!(v["pass.wall_s"], 10.0);
        assert_eq!(v["miniapps.build_s"], 1.0);
        assert_eq!(v["exec.reference_s"], 3.0);
        assert_eq!(v["exec.ns_per_event"], 1e6);
        assert_eq!(v["measure.run_s"], 4.0);
        // 2000 events at the reference's 1 ms/event take 2 s of the 4 s.
        assert_eq!(v["measure.observer_s"], 2.0);
        assert_eq!(v["trace.record_ratio"], 0.5);
        assert_eq!(v["analysis.ns_per_event"], 2e6);
        assert_eq!(v["pass.unaccounted_frac"], 0.05);
    }

    #[test]
    fn traced_run_reports_exactly_the_per_layer_metrics() {
        let mut all = two_worker_pass();
        let n = all.len();
        // A twin pass after the first, half as long in measurement.
        all.extend(two_worker_pass().into_iter().map(|mut s| {
            s.start_ns += 20_000_000_000;
            if s.name == span::MEASURE {
                s.dur_ns /= 2;
            }
            s
        }));
        let passes = [(pass(0..n, 3_000, 2_000, 1_000), Some(pass(n..2 * n, 3_000, 2_000, 1_000)))];
        let samples = pass_samples(&all, &passes, 8.0);
        assert_eq!(samples[0]["pass.tracing_overhead_frac"], 0.25);
        assert_eq!(samples[0]["probes.measure_extra_s"], 2.0);
        let metrics = summarize(&samples);
        let names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
        let declared: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, declared);
    }
}
