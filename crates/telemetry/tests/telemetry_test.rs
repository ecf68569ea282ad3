//! Integration tests for the telemetry crate: JSON-lines validity and
//! the Chrome-trace round trip on a small two-rank trace, under both
//! the physical and the logical clock.

use nrlt_telemetry::json;
use nrlt_telemetry::{chrome, export, Telemetry};
use nrlt_trace::{
    ClockKind, Definitions, Event, EventKind, LocationDef, RegionDef, RegionRef, RegionRole, Trace,
};
use std::collections::BTreeMap;

fn two_rank_trace(clock: ClockKind) -> Trace {
    let main = RegionRef(0);
    let send = RegionRef(1);
    let recv = RegionRef(2);
    Trace {
        defs: Definitions {
            regions: std::sync::Arc::new(vec![
                RegionDef { name: "main".into(), role: RegionRole::Function },
                RegionDef { name: "MPI_Send".into(), role: RegionRole::MpiApi },
                RegionDef { name: "MPI_Recv".into(), role: RegionRole::MpiApi },
            ]),
            locations: std::sync::Arc::new(vec![
                LocationDef { rank: 0, thread: 0, core: 0 },
                LocationDef { rank: 1, thread: 0, core: 16 },
            ]),
            threads_per_rank: 1,
            clock,
        },
        streams: vec![
            vec![
                Event::new(0, EventKind::Enter { region: main }),
                Event::new(10, EventKind::Enter { region: send }),
                Event::new(12, EventKind::SendPost { peer: 1, tag: 7, bytes: 64 }),
                Event::new(20, EventKind::Leave { region: send }),
                Event::new(35, EventKind::CallBurst { region: main, count: 4, start: 25 }),
                Event::new(40, EventKind::Leave { region: main }),
            ]
            .into(),
            vec![
                Event::new(0, EventKind::Enter { region: main }),
                Event::new(5, EventKind::Enter { region: recv }),
                Event::new(6, EventKind::RecvPost { peer: 0, tag: 7, bytes: 64 }),
                Event::new(22, EventKind::RecvComplete { peer: 0, tag: 7, bytes: 64 }),
                Event::new(23, EventKind::Leave { region: recv }),
                Event::new(41, EventKind::Leave { region: main }),
            ]
            .into(),
        ],
    }
}

/// Collect (tid → timestamps in document order) from a parsed trace,
/// ignoring metadata events (which carry no ts).
fn timestamps_per_tid(doc: &json::Value) -> BTreeMap<i64, Vec<f64>> {
    let mut per_tid: BTreeMap<i64, Vec<f64>> = BTreeMap::new();
    for ev in doc.get("traceEvents").unwrap().as_arr().unwrap() {
        let ph = ev.get("ph").unwrap().as_str().unwrap();
        if ph == "M" {
            continue;
        }
        let tid = ev.get("tid").unwrap().as_f64().unwrap() as i64;
        let ts = ev.get("ts").unwrap().as_f64().unwrap();
        per_tid.entry(tid).or_default().push(ts);
    }
    per_tid
}

fn thread_names(doc: &json::Value) -> BTreeMap<i64, String> {
    let mut names = BTreeMap::new();
    for ev in doc.get("traceEvents").unwrap().as_arr().unwrap() {
        if ev.get("ph").unwrap().as_str() == Some("M")
            && ev.get("name").unwrap().as_str() == Some("thread_name")
        {
            let tid = ev.get("tid").unwrap().as_f64().unwrap() as i64;
            let name = ev.get("args").unwrap().get("name").unwrap().as_str().unwrap();
            names.insert(tid, name.to_owned());
        }
    }
    names
}

#[test]
fn physical_trace_roundtrip() {
    let trace = two_rank_trace(ClockKind::Physical);
    let doc = chrome::trace_to_chrome(&trace);
    let v = json::parse(&doc).expect("chrome export is well-formed JSON");

    // One named track per location.
    let names = thread_names(&v);
    assert_eq!(names.len(), 2);
    assert_eq!(names[&0], "rank 0 thread 0 (core 0)");
    assert_eq!(names[&1], "rank 1 thread 0 (core 16)");

    // Timestamps are non-decreasing within every track.
    let per_tid = timestamps_per_tid(&v);
    assert_eq!(per_tid.len(), 2);
    for (tid, times) in &per_tid {
        assert!(!times.is_empty(), "track {tid} has events");
        for w in times.windows(2) {
            assert!(w[0] <= w[1], "track {tid}: ts went backwards ({} > {})", w[0], w[1]);
        }
    }
}

#[test]
fn logical_trace_renders_lamport_time_as_is() {
    let trace = two_rank_trace(ClockKind::Logical { model: "lt_bb".into() });
    let doc = chrome::trace_to_chrome(&trace);
    let v = json::parse(&doc).expect("chrome export is well-formed JSON");

    // The process name advertises the logical clock.
    let mut process_name = None;
    for ev in v.get("traceEvents").unwrap().as_arr().unwrap() {
        if ev.get("ph").unwrap().as_str() == Some("M")
            && ev.get("name").unwrap().as_str() == Some("process_name")
        {
            process_name = ev
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(|n| n.as_str())
                .map(str::to_owned);
        }
    }
    assert!(process_name.unwrap().contains("lt_bb"));

    // Lamport counter values appear verbatim (no ns→µs division): the
    // send posts at Lamport time 12, and 12 must be an emitted ts.
    let per_tid = timestamps_per_tid(&v);
    assert!(per_tid[&0].contains(&12.0));
    assert!(per_tid[&1].contains(&22.0));
    for times in per_tid.values() {
        for w in times.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }
}

#[test]
fn physical_timestamps_are_microseconds() {
    let mut trace = two_rank_trace(ClockKind::Physical);
    // 2_500 ns must appear as 2.5 µs.
    trace.streams[0].set_time(1, 2_500);
    trace.streams[0].set_time(2, 2_500);
    trace.streams[0].set_time(3, 2_500);
    let doc = chrome::trace_to_chrome(&trace);
    let v = json::parse(&doc).unwrap();
    let per_tid = timestamps_per_tid(&v);
    assert!(per_tid[&0].iter().any(|&t| (t - 2.5).abs() < 1e-9));
}

#[test]
fn metrics_jsonl_is_line_delimited_json() {
    let tel = Telemetry::new();
    tel.add("engine.events", 123);
    tel.observe("engine.ready_queue_depth", 4);
    tel.observe("engine.ready_queue_depth", 17);
    {
        let _outer = tel.span("experiment");
        let _inner = tel.span("measure:tsc");
    }
    let dump = export::metrics_jsonl(&tel);
    assert!(dump.ends_with('\n'));
    let mut kinds = BTreeMap::new();
    for line in dump.lines() {
        let v = json::parse(line).expect("every line parses alone");
        let kind = v.get("kind").unwrap().as_str().unwrap().to_owned();
        *kinds.entry(kind).or_insert(0u32) += 1;
    }
    assert_eq!(kinds["counter"], 1);
    assert_eq!(kinds["histogram"], 1);
    assert_eq!(kinds["span"], 2);
}

#[test]
fn write_exports_produces_the_bundle() {
    let tel = Telemetry::new();
    tel.incr("runs");
    {
        let _s = tel.span("phase");
    }
    let mut manifest = nrlt_telemetry::Manifest::new("telemetry-test");
    manifest.wall_seconds = 0.5;
    manifest.runs.push(nrlt_telemetry::RunInfo {
        name: "unit".into(),
        config: "n/a".into(),
        seed: 1,
        repetitions: 1,
    });

    let dir = std::env::temp_dir().join(format!("nrlt-telemetry-test-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    nrlt_telemetry::write_exports(&dir, &tel, &manifest).unwrap();
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    files.sort();
    assert_eq!(files, ["manifest.json", "metrics.jsonl", "pipeline.trace.json"]);
    let manifest_doc =
        json::parse(&std::fs::read_to_string(dir.join("manifest.json")).unwrap()).unwrap();
    assert_eq!(manifest_doc.get("bin").unwrap().as_str(), Some("telemetry-test"));
    let trace_doc =
        json::parse(&std::fs::read_to_string(dir.join("pipeline.trace.json")).unwrap()).unwrap();
    assert!(trace_doc.get("traceEvents").is_some());
    std::fs::remove_dir_all(&dir).ok();
}
