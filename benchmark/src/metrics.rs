//! The metrics the benchmark reports, as declared in `BENCHMARK.json`.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (throughput).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of a figure binary sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// Median wall time of one pass, set-up excluded.
pub const WALL_S: &str = "wall_s";
/// Engine events per pass divided by the pass wall time.
pub const EVENTS_PER_S: &str = "events_per_s";
/// User + system CPU time of the process during one pass.
pub const CPU_S: &str = "cpu_s";
/// Time to build the instances (and the probes) for one pass.
pub const SETUP_S: &str = "setup_s";
/// Peak resident set of the workload's process.
pub const PEAK_RSS_MIB: &str = "peak_rss_mib";

/// End-to-end metrics, reported by every run without tracing.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: WALL_S, unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: EVENTS_PER_S, unit: "events/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: CPU_S, unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: SETUP_S, unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: PEAK_RSS_MIB, unit: "MiB", better: Better::Lower, bound: 0.10 },
];

/// Per-layer metrics of the traced run, `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 23] = [
    ("miniapps.build_s", "s"),
    ("measure.prepare_s", "s"),
    ("exec.reference_s", "s"),
    ("exec.reference_events", "count"),
    ("exec.ns_per_event", "ns/event"),
    ("measure.run_s", "s"),
    ("measure.events", "count"),
    ("measure.ns_per_event", "ns/event"),
    ("measure.observer_s", "s"),
    ("trace.events", "count"),
    ("trace.record_ratio", "ratio"),
    ("trace.resident_mib", "MiB"),
    ("trace.merge_s", "s"),
    ("analysis.run_s", "s"),
    ("analysis.ns_per_event", "ns/event"),
    ("profile.merge_s", "s"),
    ("report.render_s", "s"),
    ("probes.overhead_frac", "ratio"),
    ("probes.measure_extra_s", "s"),
    ("probes.analysis_extra_s", "s"),
    ("probes.export_s", "s"),
    ("pass.unaccounted_frac", "ratio"),
    ("pass.tracing_overhead_frac", "ratio"),
];

/// Position of `name` among the declared metrics (end-to-end first),
/// for printing in declaration order.
pub fn position(name: &str) -> usize {
    END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(PER_LAYER.iter().map(|(n, _)| *n))
        .position(|n| n == name)
        .unwrap_or(usize::MAX)
}

/// The end-to-end declaration of `name`.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;
    use nrlt_core::telemetry::json::{self, Value};

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
    }

    fn field<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key).and_then(Value::as_str).unwrap_or_else(|| panic!("missing {key}"))
    }

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|(n, _)| *n));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");
    }

    #[test]
    fn end_to_end_matches_benchmark_json() {
        let doc = benchmark_json();
        let declared = doc.get("end_to_end").and_then(Value::as_arr).expect("end_to_end");
        assert_eq!(declared.len(), END_TO_END.len());
        for (d, m) in declared.iter().zip(&END_TO_END) {
            assert_eq!(field(d, "name"), m.name);
            assert_eq!(field(d, "unit"), m.unit);
            assert_eq!(field(d, "better"), m.better.name());
            assert_eq!(d.get("bound").and_then(Value::as_f64), Some(m.bound), "{}", m.name);
            assert!(m.bound <= 0.25);
        }
        assert!(END_TO_END.iter().any(|m| m.name == SETUP_S && m.unit == "s"));
    }

    #[test]
    fn default_run_length_matches_benchmark_json() {
        let doc = benchmark_json();
        assert_eq!(doc.get("run_seconds").and_then(Value::as_f64), Some(crate::DEFAULT_SECONDS));
    }

    #[test]
    fn per_layer_matches_benchmark_json() {
        let doc = benchmark_json();
        let declared = doc.get("per_layer").and_then(Value::as_arr).expect("per_layer");
        let got: Vec<(&str, &str)> =
            declared.iter().map(|d| (field(d, "name"), field(d, "unit"))).collect();
        assert_eq!(got, PER_LAYER.to_vec());
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let doc = benchmark_json();
        let declared = doc.get("workloads").and_then(Value::as_arr).expect("workloads");
        let got: Vec<(&str, &str)> =
            declared.iter().map(|d| (field(d, "name"), field(d, "why"))).collect();
        let want: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(got, want);
    }
}
