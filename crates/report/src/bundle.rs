//! Loading a telemetry bundle back into memory.
//!
//! A `--telemetry <dir>` bundle stores its machine-readable state in
//! `metrics.jsonl` — one self-contained JSON object per line, tagged
//! with a `"kind"` field. This module parses that file (with the
//! in-repo JSON parser; the workspace stays dependency-free) back into
//! counters, [`Histogram`]s, and [`SpanRecord`]s for the inspector.
//!
//! The file comes from disk, so every number is checked: a count or a
//! duration must be a non-negative integer no larger than 2^53 (the
//! largest the `f64`-backed parser holds exactly), and a track or depth
//! must fit a `u32`. A value outside those ranges is an error naming
//! its line, never a silent clamp or wrap.

use nrlt_telemetry::json::{self, Value};
use nrlt_telemetry::{Histogram, SpanRecord};
use std::collections::BTreeMap;
use std::path::Path;

/// An in-memory telemetry bundle.
#[derive(Debug, Clone, Default)]
pub struct Bundle {
    /// Label for rendering (the directory name when loaded from disk).
    pub name: String,
    /// Counter and gauge values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histograms by name.
    pub hists: BTreeMap<String, Histogram>,
    /// Span records in file order.
    pub spans: Vec<SpanRecord>,
}

impl Bundle {
    /// Load `dir/metrics.jsonl`. The directory name becomes the bundle
    /// label.
    pub fn load(dir: &Path) -> Result<Bundle, String> {
        let path = dir.join("metrics.jsonl");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let mut b = Bundle::from_jsonl(&text)?;
        b.name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| dir.display().to_string());
        Ok(b)
    }

    /// Parse the contents of a `metrics.jsonl` export. Unknown kinds are
    /// ignored (forward compatibility); malformed lines are errors.
    pub fn from_jsonl(text: &str) -> Result<Bundle, String> {
        let mut bundle = Bundle::default();
        for (i, line) in text.lines().enumerate() {
            if !line.trim().is_empty() {
                bundle.parse_line(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            }
        }
        Ok(bundle)
    }

    fn parse_line(&mut self, line: &str) -> Result<(), String> {
        let v = json::parse(line)?;
        match v.get("kind").and_then(Value::as_str).unwrap_or("") {
            "counter" => {
                self.counters.insert(str_field(&v, "name")?, u64_field(&v, "value")?);
            }
            "histogram" => {
                self.hists.insert(str_field(&v, "name")?, parse_hist(&v)?);
            }
            "span" => self.spans.push(SpanRecord {
                name: str_field(&v, "name")?,
                cat: str_field(&v, "cat")?,
                track: u32_field(&v, "track")?,
                depth: u32_field(&v, "depth")?,
                start_ns: u64_field(&v, "start_ns")?,
                dur_ns: u64_field(&v, "dur_ns")?,
                closed: matches!(v.get("closed"), Some(Value::Bool(true))),
            }),
            _ => {}
        }
        Ok(())
    }
}

fn str_field(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

/// A `u64` field: a non-negative integer no larger than 2^53, above
/// which the `f64`-backed parser no longer holds every integer exactly.
fn u64_field(v: &Value, key: &str) -> Result<u64, String> {
    const MAX_EXACT: f64 = (1u64 << 53) as f64;
    let f = v
        .get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing numeric field {key:?}"))?;
    if !(0.0..=MAX_EXACT).contains(&f) || f.fract() != 0.0 {
        return Err(format!("field {key:?} is {f}, not an integer in [0, 2^53]"));
    }
    Ok(f as u64)
}

/// A `u32` field (a span's track or depth).
fn u32_field(v: &Value, key: &str) -> Result<u32, String> {
    let n = u64_field(v, key)?;
    u32::try_from(n).map_err(|_| format!("field {key:?} is {n}, above u32::MAX"))
}

/// Rebuild a [`Histogram`] from its exported digest: bucket counts slot
/// back in by each bucket's lower bound.
fn parse_hist(v: &Value) -> Result<Histogram, String> {
    let mut h = Histogram::new();
    h.count = u64_field(v, "count")?;
    h.sum = u64_field(v, "sum")?;
    h.max = u64_field(v, "max")?;
    h.min = if h.count == 0 { u64::MAX } else { u64_field(v, "min")? };
    if let Some(buckets) = v.get("buckets").and_then(Value::as_arr) {
        for b in buckets {
            let lo = u64_field(b, "lo")?;
            let count = u64_field(b, "count")?;
            h.buckets[Histogram::bucket_index(lo)] = count;
        }
    }
    Ok(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrlt_telemetry::{export, Telemetry};

    #[test]
    fn roundtrips_an_export() {
        let t = Telemetry::new();
        t.add("engine.events", 42);
        t.set("jobs", 4);
        t.observe("depth", 3);
        t.observe("depth", 900);
        {
            let _outer = t.span("measure");
            let _inner = t.span_cat("analyze", "analysis");
        }
        let b = Bundle::from_jsonl(&export::metrics_jsonl(&t)).unwrap();
        assert_eq!(b.counters.get("engine.events"), Some(&42));
        assert_eq!(b.counters.get("jobs"), Some(&4));
        let h = &b.hists["depth"];
        assert_eq!(h.count, 2);
        assert_eq!(h.min, 3);
        assert_eq!(h.max, 900);
        assert_eq!(h.sum, 903);
        assert_eq!(b.spans.len(), 2);
        assert_eq!(b.spans[0].name, "measure");
        assert_eq!(b.spans[1].cat, "analysis");
        assert_eq!(b.spans[1].depth, 1);
        assert!(b.spans.iter().all(|s| s.closed));
    }

    #[test]
    fn empty_and_blank_lines_are_fine() {
        let b = Bundle::from_jsonl("\n\n").unwrap();
        assert!(b.counters.is_empty() && b.spans.is_empty());
    }

    #[test]
    fn malformed_lines_are_reported_with_their_number() {
        let err = Bundle::from_jsonl("{\"kind\":\"counter\",\"name\":\"a\",\"value\":1}\nnot json")
            .unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn unknown_kinds_are_skipped() {
        let b = Bundle::from_jsonl("{\"kind\":\"future-thing\",\"name\":\"x\"}").unwrap();
        assert!(b.counters.is_empty() && b.hists.is_empty() && b.spans.is_empty());
    }

    #[test]
    fn out_of_range_numbers_are_rejected_with_their_line() {
        let span = |track: &str, depth: &str, dur: &str| {
            format!(
                "{{\"kind\":\"span\",\"name\":\"s\",\"cat\":\"c\",\"track\":{track},\
                 \"depth\":{depth},\"start_ns\":0,\"dur_ns\":{dur}}}"
            )
        };
        let ok = span("0", "0", "5");
        assert_eq!(Bundle::from_jsonl(&ok).unwrap().spans[0].dur_ns, 5);
        for (field, line) in [
            ("dur_ns", span("0", "0", "-3")),
            ("dur_ns", span("0", "0", "1.9")),
            ("dur_ns", span("0", "0", "9007199254740994")),
            ("depth", span("0", "4294967297", "5")),
            ("track", span("4294967296", "0", "5")),
            ("value", "{\"kind\":\"counter\",\"name\":\"a\",\"value\":-1}".to_owned()),
        ] {
            let err = Bundle::from_jsonl(&format!("{ok}\n{line}")).unwrap_err();
            assert!(err.starts_with("line 2:") && err.contains(field), "{line}: {err}");
        }
        // Non-finite numbers never reach the field check: the parser
        // rejects them, still on their line.
        let err = Bundle::from_jsonl(&format!("{ok}\n{}", span("0", "0", "1e400"))).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        // The largest exact values still load.
        let edge =
            format!("{}\n{}", span("0", "0", "9007199254740992"), span("0", "4294967295", "5"));
        let b = Bundle::from_jsonl(&edge).unwrap();
        assert_eq!((b.spans[0].dur_ns, b.spans[1].depth), (1 << 53, u32::MAX));
    }
}
