//! One run of one workload, as written to `<out>/<file>.json` and passed
//! from the workload's child process to the parent.

use crate::stats::Summary;
use nrlt_core::telemetry::json::{self, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A reported metric: its unit and the summary of its per-pass samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Median (the reported value), quartiles, range and sample count.
    pub summary: Summary,
}

/// Everything one run measured and checked.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// True for a `--trace 1` run (per-layer metrics).
    pub traced: bool,
    /// Host parallelism the run saw.
    pub nproc: usize,
    /// Wall-clock start, milliseconds since the Unix epoch: orders runs
    /// for `compare`'s alternating pairs.
    pub started_unix_ms: u64,
    /// Output checks attempted.
    pub attempted: u64,
    /// Output checks failed.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Per-pass samples, sample name → value.
    pub passes: Vec<BTreeMap<String, f64>>,
    /// Every timed set-up round (on a warm heap, three after each pass).
    pub setup_samples: Vec<f64>,
    /// Reported metrics in declaration order.
    pub metrics: Vec<Metric>,
}

/// Shortest round-trip rendering of a finite `f64` (`0` otherwise).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_owned()
    }
}

impl RunRecord {
    /// True when every attempted check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The full record as one line of JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\": {}, \"seed\": {}, \"traced\": {}, \"nproc\": {}, \
             \"started_unix_ms\": {}, \"attempted\": {}, \"failed\": {}, \
             \"failures\": [{}], \"passes\": [",
            json::string(&self.workload),
            self.seed,
            self.traced,
            self.nproc,
            self.started_unix_ms,
            self.attempted,
            self.failed,
            self.failures.iter().map(|f| json::string(f)).collect::<Vec<_>>().join(", "),
        );
        let passes: Vec<String> = self
            .passes
            .iter()
            .map(|p| {
                let fields: Vec<String> =
                    p.iter().map(|(k, v)| format!("{}: {}", json::string(k), num(*v))).collect();
                format!("{{{}}}", fields.join(", "))
            })
            .collect();
        out.push_str(&passes.join(", "));
        let setup: Vec<String> = self.setup_samples.iter().map(|&v| num(v)).collect();
        let _ = write!(out, "], \"setup_samples\": [{}], \"metrics\": {{", setup.join(", "));
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let s = &m.summary;
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}, \"n\": {}, \"q1\": {}, \"q3\": {}, \
                     \"min\": {}, \"max\": {}}}",
                    json::string(&m.name),
                    num(s.median),
                    json::string(&m.unit),
                    s.n,
                    num(s.q1),
                    num(s.q3),
                    num(s.min),
                    num(s.max)
                )
            })
            .collect();
        out.push_str(&metrics.join(", "));
        out.push_str("}}");
        out
    }

    /// The result line the benchmark contract asks for: `correct`,
    /// `attempted`, `failed` and each metric's value and unit.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::string(&m.name),
                    num(m.summary.median),
                    json::string(&m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Parse a record written by [`RunRecord::to_json`].
    pub fn from_json(text: &str) -> Result<RunRecord, String> {
        let v = json::parse(text)?;
        let num = |key: &str| v.get(key).and_then(Value::as_f64).ok_or(format!("missing {key}"));
        let obj = |v: Option<&Value>| match v {
            Some(Value::Obj(m)) => Ok(m.clone()),
            _ => Err("expected an object".to_owned()),
        };
        let passes = v
            .get("passes")
            .and_then(Value::as_arr)
            .ok_or("missing passes")?
            .iter()
            .map(|p| {
                obj(Some(p))?
                    .into_iter()
                    .map(|(k, x)| x.as_f64().map(|x| (k, x)).ok_or("non-numeric sample".into()))
                    .collect()
            })
            .collect::<Result<_, String>>()?;
        let mut metrics: Vec<Metric> = obj(v.get("metrics"))?
            .into_iter()
            .map(|(name, m)| {
                let f =
                    |key: &str| m.get(key).and_then(Value::as_f64).ok_or(format!("{name}.{key}"));
                Ok(Metric {
                    unit: m.get("unit").and_then(Value::as_str).unwrap_or_default().to_owned(),
                    summary: Summary {
                        n: f("n")? as usize,
                        median: f("value")?,
                        q1: f("q1")?,
                        q3: f("q3")?,
                        min: f("min")?,
                        max: f("max")?,
                    },
                    name,
                })
            })
            .collect::<Result<_, String>>()?;
        metrics.sort_by_key(|m| crate::metrics::position(&m.name));
        Ok(RunRecord {
            workload: v.get("workload").and_then(Value::as_str).ok_or("missing workload")?.into(),
            seed: num("seed")? as u64,
            traced: v.get("traced") == Some(&Value::Bool(true)),
            nproc: num("nproc")? as usize,
            started_unix_ms: num("started_unix_ms")? as u64,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            failures: v
                .get("failures")
                .and_then(Value::as_arr)
                .unwrap_or_default()
                .iter()
                .filter_map(|f| f.as_str().map(str::to_owned))
                .collect(),
            passes,
            setup_samples: v
                .get("setup_samples")
                .and_then(Value::as_arr)
                .unwrap_or_default()
                .iter()
                .filter_map(Value::as_f64)
                .collect(),
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_json() {
        let summary = Summary::of(&[1.25, 1.5, 1.0]).unwrap();
        let rec = RunRecord {
            workload: "omp-only".into(),
            seed: 4242,
            traced: false,
            nproc: 2,
            started_unix_ms: 1_700_000_000_123,
            attempted: 9,
            failed: 1,
            failures: vec!["golden \"x\" differs".into()],
            passes: vec![BTreeMap::from([("wall_s".to_owned(), 1.25)])],
            setup_samples: vec![0.5, 0.25],
            metrics: vec![Metric { name: "wall_s".into(), unit: "s".into(), summary }],
        };
        let back = RunRecord::from_json(&rec.to_json()).unwrap();
        assert_eq!(back, rec);
        let line = json::parse(&rec.result_line()).unwrap();
        assert_eq!(line.get("correct"), Some(&Value::Bool(false)));
        let wall = line.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(wall.get("value").and_then(Value::as_f64), Some(1.25));
        assert_eq!(wall.get("unit").and_then(Value::as_str), Some("s"));
    }
}
