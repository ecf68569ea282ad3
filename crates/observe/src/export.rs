//! Deterministic bundle export and re-import.
//!
//! An `--observe <dir>` bundle holds two files:
//!
//! * `observe.jsonl` — one kind-tagged JSON object per line, every
//!   value an integer or an escaped string. Runs are written in sorted
//!   name order and each run's records in a fixed section order, so the
//!   file is byte-identical across repeats and worker counts.
//! * `observe.trace.json` — Chrome counter tracks (`ph:"C"`) for the
//!   sampled timelines, one process per (run, axis): the *virtual
//!   time* axis in microseconds and the *event order* axis in engine
//!   sequence numbers. Counter names go through the same escaping path
//!   as span names.
//!
//! Unknown kinds are ignored on re-import (forward compatibility);
//! malformed lines are errors.

use crate::{
    ChainLink, NoiseAgg, NoiseDraw, NoiseKind, Observe, RunData, Sample, SeriesAgg, WaitAgg,
    WaitProvenance,
};
use nrlt_telemetry::chrome;
use nrlt_telemetry::json::{self, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// An in-memory observe bundle: named runs, sorted by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObserveBundle {
    /// Run data keyed by run name.
    pub runs: BTreeMap<String, RunData>,
}

impl ObserveBundle {
    /// Snapshot an [`Observe`] sink into a bundle.
    pub fn from_observe(obs: &Observe) -> ObserveBundle {
        ObserveBundle { runs: obs.runs() }
    }

    /// Load `dir/observe.jsonl`.
    pub fn load(dir: &Path) -> Result<ObserveBundle, String> {
        let path = dir.join("observe.jsonl");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        ObserveBundle::from_jsonl(&text)
    }

    /// Serialize to the JSONL form.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, data) in &self.runs {
            let run = json::string(name);
            let _ = writeln!(out, "{{\"kind\":\"run\",\"name\":{run}}}");
            for s in &data.samples {
                let _ = writeln!(
                    out,
                    "{{\"kind\":\"sample\",\"run\":{run},\"series\":{},\"phase\":{},\"t_ns\":{},\"seq\":{},\"value\":{}}}",
                    json::string(&s.series),
                    json::string(&s.phase),
                    s.t_ns,
                    s.seq,
                    s.value
                );
            }
            for ((series, phase), a) in &data.series_aggs {
                let _ = writeln!(
                    out,
                    "{{\"kind\":\"series_agg\",\"run\":{run},\"series\":{},\"phase\":{},\"count\":{},\"sum\":{},\"max\":{}}}",
                    json::string(series),
                    json::string(phase),
                    a.count,
                    a.sum,
                    a.max
                );
            }
            for d in &data.draws {
                let _ = writeln!(
                    out,
                    "{{\"kind\":\"noise\",\"run\":{run},\"channel\":{},\"rank\":{},\"core\":{},\"instance\":{},\"phase\":{},\"t_ns\":{},\"magnitude_ns\":{}}}",
                    json::string(d.kind.name()),
                    d.rank,
                    d.core,
                    d.instance,
                    json::string(&d.phase),
                    d.t_ns,
                    d.magnitude_ns
                );
            }
            for ((kind, rank, phase), a) in &data.noise_aggs {
                let _ = writeln!(
                    out,
                    "{{\"kind\":\"noise_agg\",\"run\":{run},\"channel\":{},\"rank\":{},\"phase\":{},\"count\":{},\"total_ns\":{},\"delay_ns\":{}}}",
                    json::string(kind.name()),
                    rank,
                    json::string(phase),
                    a.count,
                    a.total_ns,
                    a.delay_ns
                );
            }
            for w in &data.waits {
                let chain: Vec<String> = w
                    .chain
                    .iter()
                    .map(|l| {
                        format!(
                            "{{\"what\":{},\"path\":{},\"loc\":{},\"start\":{},\"end\":{}}}",
                            json::string(&l.what),
                            json::string(&l.path),
                            l.loc,
                            l.start,
                            l.end
                        )
                    })
                    .collect();
                let _ = writeln!(
                    out,
                    "{{\"kind\":\"wait\",\"run\":{run},\"metric\":{},\"waiter_loc\":{},\"waiter_path\":{},\"waiter_enter\":{},\"severity\":{},\"delayer_loc\":{},\"delayer_path\":{},\"delayer_enter\":{},\"noise_ns\":{},\"chain\":[{}]}}",
                    json::string(&w.metric),
                    w.waiter_loc,
                    json::string(&w.waiter_path),
                    w.waiter_enter,
                    w.severity,
                    w.delayer_loc,
                    json::string(&w.delayer_path),
                    w.delayer_enter,
                    w.noise_ns,
                    chain.join(",")
                );
            }
            for ((metric, path), a) in &data.wait_aggs {
                let _ = writeln!(
                    out,
                    "{{\"kind\":\"wait_agg\",\"run\":{run},\"metric\":{},\"path\":{},\"count\":{},\"severity\":{},\"noise_ns\":{}}}",
                    json::string(metric),
                    json::string(path),
                    a.count,
                    a.severity,
                    a.noise_ns
                );
            }
            if data.dropped_samples + data.dropped_draws + data.dropped_waits > 0 {
                let _ = writeln!(
                    out,
                    "{{\"kind\":\"dropped\",\"run\":{run},\"samples\":{},\"draws\":{},\"waits\":{}}}",
                    data.dropped_samples, data.dropped_draws, data.dropped_waits
                );
            }
        }
        out
    }

    /// Parse the contents of an `observe.jsonl` export. Every number
    /// goes through the strict field readers on [`Value`]; an error
    /// names its line.
    pub fn from_jsonl(text: &str) -> Result<ObserveBundle, String> {
        let mut bundle = ObserveBundle::default();
        for (i, line) in text.lines().enumerate() {
            if !line.trim().is_empty() {
                bundle.parse_line(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            }
        }
        Ok(bundle)
    }

    fn parse_line(&mut self, line: &str) -> Result<(), String> {
        let v = json::parse(line)?;
        let kind = v.get("kind").and_then(Value::as_str).unwrap_or("");
        if kind == "run" {
            self.runs.entry(v.str_field("name")?).or_default();
            return Ok(());
        }
        let run = match v.get("run").and_then(Value::as_str) {
            Some(r) => r.to_owned(),
            None => return Ok(()), // unknown kinds without a run: skip
        };
        let data = self.runs.entry(run).or_default();
        match kind {
            "sample" => data.samples.push(Sample {
                series: v.str_field("series")?,
                phase: v.str_field("phase")?,
                t_ns: v.u64_field("t_ns")?,
                seq: v.u64_field("seq")?,
                value: v.i64_field("value")?,
            }),
            "series_agg" => {
                data.series_aggs.insert(
                    (v.str_field("series")?, v.str_field("phase")?),
                    SeriesAgg {
                        count: v.u64_field("count")?,
                        sum: v.i64_field("sum")?,
                        max: v.i64_field("max")?,
                    },
                );
            }
            "noise" => data.draws.push(NoiseDraw {
                kind: noise_kind(&v)?,
                rank: v.u32_field("rank")?,
                core: v.u64_field("core")?,
                instance: v.u64_field("instance")?,
                phase: v.str_field("phase")?,
                t_ns: v.u64_field("t_ns")?,
                magnitude_ns: v.i64_field("magnitude_ns")?,
            }),
            "noise_agg" => {
                data.noise_aggs.insert(
                    (noise_kind(&v)?, v.u32_field("rank")?, v.str_field("phase")?),
                    NoiseAgg {
                        count: v.u64_field("count")?,
                        total_ns: v.i64_field("total_ns")?,
                        delay_ns: v.u64_field("delay_ns")?,
                    },
                );
            }
            "wait" => {
                let chain = match v.get("chain") {
                    Some(c) => parse_chain(c)?,
                    None => Vec::new(),
                };
                data.waits.push(WaitProvenance {
                    metric: v.str_field("metric")?,
                    waiter_loc: v.u64_field("waiter_loc")? as usize,
                    waiter_path: v.str_field("waiter_path")?,
                    waiter_enter: v.u64_field("waiter_enter")?,
                    severity: v.u64_field("severity")?,
                    delayer_loc: v.u64_field("delayer_loc")? as usize,
                    delayer_path: v.str_field("delayer_path")?,
                    delayer_enter: v.u64_field("delayer_enter")?,
                    noise_ns: v.u64_field("noise_ns")?,
                    chain,
                });
            }
            "wait_agg" => {
                data.wait_aggs.insert(
                    (v.str_field("metric")?, v.str_field("path")?),
                    WaitAgg {
                        count: v.u64_field("count")?,
                        severity: v.u64_field("severity")?,
                        noise_ns: v.u64_field("noise_ns")?,
                    },
                );
            }
            "dropped" => {
                data.dropped_samples = v.u64_field("samples")?;
                data.dropped_draws = v.u64_field("draws")?;
                data.dropped_waits = v.u64_field("waits")?;
            }
            _ => {} // forward compatibility
        }
        Ok(())
    }

    /// Render the counter timelines as a Chrome trace document. Each
    /// run becomes two processes: the virtual-time axis (µs) and the
    /// event-order axis (engine sequence numbers rendered as µs).
    pub fn to_chrome(&self) -> String {
        let mut events: Vec<String> = Vec::new();
        for (i, (name, data)) in self.runs.iter().enumerate() {
            let pid_time = (2 * i) as u32;
            let pid_seq = (2 * i + 1) as u32;
            events.push(chrome::process_meta(pid_time, &format!("{name} (virtual time)")));
            events.push(chrome::process_meta(pid_seq, &format!("{name} (event order)")));
            for s in &data.samples {
                events.push(chrome::counter_event(
                    &s.series,
                    "resource",
                    &chrome::ns_to_us(s.t_ns),
                    pid_time,
                    0,
                    s.value,
                ));
                events.push(chrome::counter_event(
                    &s.series,
                    "resource",
                    &format!("{}", s.seq),
                    pid_seq,
                    0,
                    s.value,
                ));
            }
        }
        chrome::document(events)
    }

    /// Write `observe.jsonl` and `observe.trace.json` into `dir`.
    pub fn write(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join("observe.jsonl"), self.to_jsonl())?;
        std::fs::write(dir.join("observe.trace.json"), self.to_chrome())
    }
}

fn parse_chain(v: &Value) -> Result<Vec<ChainLink>, String> {
    let arr = v.as_arr().ok_or("chain is not an array")?;
    arr.iter()
        .map(|l| {
            Ok(ChainLink {
                what: l.str_field("what")?,
                path: l.str_field("path")?,
                loc: l.u64_field("loc")? as usize,
                start: l.u64_field("start")?,
                end: l.u64_field("end")?,
            })
        })
        .collect()
}

fn noise_kind(v: &Value) -> Result<NoiseKind, String> {
    let name = v.str_field("channel")?;
    NoiseKind::from_name(&name).ok_or_else(|| format!("unknown noise channel {name:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunObserve;

    fn bundle() -> ObserveBundle {
        let obs = Observe::new();
        let run = RunObserve::new("MiniFE-1:tsc:rep0");
        run.sample_id(run.series("numa0.bw_threads"), run.phase("cg"), 1_500, 7, 16);
        run.sample_id(run.series("net.wire_ns"), run.phase(""), 2_000, 9, 840);
        run.noise_id(NoiseKind::OsDetour, 0, 3, 12, run.phase("cg"), 1_400, 95_000);
        run.wait(WaitProvenance {
            metric: "delay_mpi_latesender".into(),
            waiter_loc: 4,
            waiter_path: "main/cg/MPI_Recv".into(),
            waiter_enter: 5_000,
            severity: 1_200,
            delayer_loc: 0,
            delayer_path: "main/cg/MPI_Send".into(),
            delayer_enter: 6_000,
            noise_ns: 95_000,
            chain: vec![ChainLink {
                what: "comp".into(),
                path: "main/cg/spmv".into(),
                loc: 0,
                start: 100,
                end: 5_900,
            }],
        });
        obs.attach(run);
        ObserveBundle::from_observe(&obs)
    }

    #[test]
    fn jsonl_roundtrip_is_lossless() {
        let b = bundle();
        let text = b.to_jsonl();
        let parsed = ObserveBundle::from_jsonl(&text).expect("parses");
        assert_eq!(parsed, b);
        // And a second serialization is byte-identical.
        assert_eq!(parsed.to_jsonl(), text);
    }

    #[test]
    fn unknown_kinds_are_ignored() {
        let text = format!(
            "{}{}\n",
            bundle().to_jsonl(),
            "{\"kind\":\"future_thing\",\"run\":\"MiniFE-1:tsc:rep0\",\"x\":1}"
        );
        let parsed = ObserveBundle::from_jsonl(&text).expect("parses");
        assert_eq!(parsed, bundle());
    }

    #[test]
    fn out_of_range_numbers_are_rejected_with_their_line() {
        let text = bundle().to_jsonl();
        let sample = |t_ns: &str| {
            format!(
                "{{\"kind\":\"sample\",\"run\":\"r\",\"series\":\"s\",\"phase\":\"\",\
                 \"t_ns\":{t_ns},\"seq\":1,\"value\":2}}"
            )
        };
        assert!(ObserveBundle::from_jsonl(&format!("{text}{}", sample("5"))).is_ok());
        let line = text.lines().count() + 1;
        for t_ns in ["-3", "1e30", "2.5"] {
            let err = ObserveBundle::from_jsonl(&format!("{text}{}", sample(t_ns))).unwrap_err();
            assert!(err.starts_with(&format!("line {line}:")) && err.contains("t_ns"), "{err}");
        }
    }

    #[test]
    fn chrome_export_is_valid_json_with_both_axes() {
        let doc = bundle().to_chrome();
        let v = json::parse(&doc).expect("valid JSON");
        let evs = v.get("traceEvents").unwrap().as_arr().unwrap();
        let counters: Vec<_> =
            evs.iter().filter(|e| e.get("ph").and_then(Value::as_str) == Some("C")).collect();
        // Two samples, each on the time axis (pid 0) and the event axis
        // (pid 1).
        assert_eq!(counters.len(), 4);
        let pids: Vec<f64> =
            counters.iter().filter_map(|e| e.get("pid").and_then(Value::as_f64)).collect();
        assert!(pids.contains(&0.0) && pids.contains(&1.0));
    }
}
