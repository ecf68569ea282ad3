//! Chrome trace-event exporter.
//!
//! Emits the JSON object format understood by `chrome://tracing` and
//! [Perfetto](https://ui.perfetto.dev): `{"traceEvents": [...]}` with
//! `ph` = `B`/`E` (nested begin/end), `C` (counter), `i` (instant) and
//! `M` (metadata) records, timestamps in microseconds.
//!
//! [`pipeline_trace_json`] renders the *host-side* telemetry of a run —
//! the pipeline spans recorded through a [`Telemetry`] handle; the
//! builders below it let other layers emit documents in the same form.

use crate::json;
use crate::Telemetry;

/// Render the host-side pipeline spans and counters of a run as a Chrome
/// trace document. Spans become `B`/`E` pairs on their track's tid;
/// counters are attached as `args` of a final instant event so they show
/// up in the UI without needing counter tracks.
pub fn pipeline_trace_json(tel: &Telemetry) -> String {
    let mut events: Vec<String> = Vec::new();
    events.push(meta_event(0, 0, "process_name", "nrlt pipeline"));

    let spans = tel.spans();
    let mut tracks: Vec<u32> = spans.iter().map(|s| s.track).collect();
    tracks.sort_unstable();
    tracks.dedup();
    for &track in &tracks {
        let name = if track == 0 { "pipeline".to_owned() } else { format!("worker {}", track - 1) };
        events.push(meta_event(0, track, "thread_name", &name));
    }

    for s in &spans {
        let start_us = ns_to_us(s.start_ns);
        events.push(format!(
            "{{\"name\":{},\"cat\":{},\"ph\":\"B\",\"ts\":{},\"pid\":0,\"tid\":{}}}",
            json::string(&s.name),
            json::string(&s.cat),
            start_us,
            s.track
        ));
        events.push(format!(
            "{{\"name\":{},\"cat\":{},\"ph\":\"E\",\"ts\":{},\"pid\":0,\"tid\":{}}}",
            json::string(&s.name),
            json::string(&s.cat),
            ns_to_us(s.start_ns + s.dur_ns),
            s.track
        ));
    }

    // B/E pairs interleave across tracks; the viewer pairs them per tid,
    // but keeping the document globally time-sorted is tidier.
    let counters = tel.counters();
    if !counters.is_empty() {
        let args: Vec<String> =
            counters.iter().map(|(k, v)| format!("{}:{}", json::string(k), v)).collect();
        events.push(format!(
            "{{\"name\":\"counters\",\"cat\":\"pipeline\",\"ph\":\"i\",\"s\":\"g\",\"ts\":{},\"pid\":0,\"tid\":0,\"args\":{{{}}}}}",
            ns_to_us(tel.elapsed_ns()),
            args.join(",")
        ));
        // Each counter additionally becomes its own counter track, so
        // final values render as bars. Counter-track names pass through
        // the same escaping path as span names (`json::string`).
        for (k, v) in &counters {
            events.push(counter_event(k, "pipeline", &ns_to_us(tel.elapsed_ns()), 0, 0, *v as i64));
        }
    }

    wrap(events)
}

/// Assemble trace events into a complete Chrome trace document.
pub fn document(events: Vec<String>) -> String {
    wrap(events)
}

/// One `ph:"C"` counter event. The name goes through the same escaping
/// path as span names, so counter series named after arbitrary strings
/// (regions, phases) can never corrupt the document.
pub fn counter_event(name: &str, cat: &str, ts: &str, pid: u32, tid: u32, value: i64) -> String {
    format!(
        "{{\"name\":{},\"cat\":{},\"ph\":\"C\",\"ts\":{},\"pid\":{},\"tid\":{},\"args\":{{\"value\":{}}}}}",
        json::string(name),
        json::string(cat),
        ts,
        pid,
        tid,
        value
    )
}

/// A `process_name` metadata event for process `pid`.
pub fn process_meta(pid: u32, name: &str) -> String {
    meta_event(pid, 0, "process_name", name)
}

fn wrap(events: Vec<String>) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    out.push_str(&events.join(",\n"));
    out.push_str("\n]}\n");
    out
}

fn meta_event(pid: u32, tid: u32, kind: &str, name: &str) -> String {
    format!(
        "{{\"name\":{},\"ph\":\"M\",\"pid\":{},\"tid\":{},\"args\":{{\"name\":{}}}}}",
        json::string(kind),
        pid,
        tid,
        json::string(name)
    )
}

/// Nanoseconds → microseconds with sub-µs precision preserved.
pub fn ns_to_us(ns: u64) -> String {
    let whole = ns / 1_000;
    let frac = ns % 1_000;
    if frac == 0 {
        format!("{whole}")
    } else {
        format!("{whole}.{frac:03}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_to_us_preserves_sub_microsecond() {
        assert_eq!(ns_to_us(0), "0");
        assert_eq!(ns_to_us(1_000), "1");
        assert_eq!(ns_to_us(1_500), "1.500");
        assert_eq!(ns_to_us(999), "0.999");
        assert_eq!(ns_to_us(1_234_567), "1234.567");
    }

    #[test]
    fn pipeline_export_is_valid_json() {
        let t = Telemetry::new();
        {
            let _s = t.span("phase \"one\"");
        }
        t.incr("events");
        let doc = pipeline_trace_json(&t);
        let v = json::parse(&doc).expect("valid JSON");
        let evs = v.get("traceEvents").unwrap().as_arr().unwrap();
        // process_name + thread_name + B + E + counters instant + one
        // counter track per counter.
        assert_eq!(evs.len(), 6);
        assert!(evs.iter().any(|e| e.get("ph").and_then(|p| p.as_str()) == Some("C")));
    }

    #[test]
    fn span_and_category_names_are_escaped() {
        let nasty = "quote \" slash \\ newline \n tab \t ctrl \u{1} end";
        let t = Telemetry::new();
        {
            let _s = t.span_cat(nasty, nasty);
        }
        t.add(nasty, 3);
        let doc = pipeline_trace_json(&t);
        let v = json::parse(&doc).expect("escaped names still parse");
        let evs = v.get("traceEvents").unwrap().as_arr().unwrap();
        // The B event round-trips the name and category exactly.
        let b = evs
            .iter()
            .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("B"))
            .expect("has a B event");
        assert_eq!(b.get("name").unwrap().as_str(), Some(nasty));
        assert_eq!(b.get("cat").unwrap().as_str(), Some(nasty));
        // The counter name survives as an args key of the instant event.
        let i = evs
            .iter()
            .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("i"))
            .expect("has an instant event");
        assert!(i.get("args").unwrap().get(nasty).is_some());
        // Counter-track names take the same escaping path as span names:
        // the C event round-trips the nasty name exactly.
        let c = evs
            .iter()
            .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("C"))
            .expect("has a counter event");
        assert_eq!(c.get("name").unwrap().as_str(), Some(nasty));
        assert_eq!(c.get("args").unwrap().get("value").and_then(|v| v.as_f64()), Some(3.0));
    }

    #[test]
    fn counter_event_builder_escapes_names() {
        let nasty = "numa\"0\\ bw\n";
        let ev = counter_event(nasty, nasty, "12.5", 3, 1, -7);
        let v = json::parse(&ev).expect("counter event parses");
        assert_eq!(v.get("name").unwrap().as_str(), Some(nasty));
        assert_eq!(v.get("cat").unwrap().as_str(), Some(nasty));
        assert_eq!(v.get("ph").unwrap().as_str(), Some("C"));
        assert_eq!(v.get("args").unwrap().get("value").and_then(|x| x.as_f64()), Some(-7.0));
    }
}
