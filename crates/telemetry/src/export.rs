//! The machine-readable JSON-lines metrics exporter. Its human-readable
//! rendering is read-side: `nrlt-report inspect` over the same file.

use crate::json;
use crate::Telemetry;
use std::fmt::Write as _;

/// All counters, histograms, and spans as JSON lines — one self-contained
/// JSON object per line, each tagged with a `"kind"` field
/// (`counter` / `histogram` / `span`). Suited to `grep`/`jq`-style
/// post-processing and append-friendly aggregation across runs.
pub fn metrics_jsonl(tel: &Telemetry) -> String {
    let mut out = String::new();
    for (name, value) in tel.counters() {
        let _ = writeln!(
            out,
            "{{\"kind\":\"counter\",\"name\":{},\"value\":{}}}",
            json::string(&name),
            value
        );
    }
    for (name, h) in tel.histograms() {
        let buckets: Vec<String> = h
            .nonzero_buckets()
            .iter()
            .map(|(_, lo, hi, c)| format!("{{\"lo\":{lo},\"hi\":{hi},\"count\":{c}}}"))
            .collect();
        let min = if h.is_empty() { 0 } else { h.min };
        let _ = writeln!(
            out,
            "{{\"kind\":\"histogram\",\"name\":{},\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\"buckets\":[{}]}}",
            json::string(&name),
            h.count,
            h.sum,
            min,
            h.max,
            json::number(h.mean()),
            buckets.join(",")
        );
    }
    for s in tel.spans() {
        let _ = writeln!(
            out,
            "{{\"kind\":\"span\",\"name\":{},\"cat\":{},\"track\":{},\"depth\":{},\"start_ns\":{},\"dur_ns\":{},\"closed\":{}}}",
            json::string(&s.name),
            json::string(&s.cat),
            s.track,
            s.depth,
            s.start_ns,
            s.dur_ns,
            s.closed
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_lines_each_parse() {
        let t = Telemetry::new();
        t.add("engine.events", 42);
        t.observe("depth", 3);
        t.observe("depth", 900);
        {
            let _s = t.span("measure");
        }
        let dump = metrics_jsonl(&t);
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in lines {
            let v = json::parse(line).expect("line is valid JSON");
            assert!(v.get("kind").is_some());
            assert!(v.get("name").is_some());
        }
    }

    #[test]
    fn empty_handle_exports_cleanly() {
        let t = Telemetry::new();
        assert_eq!(metrics_jsonl(&t), "");
    }
}
