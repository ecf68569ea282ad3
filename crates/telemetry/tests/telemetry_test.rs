//! Integration tests for the telemetry crate: JSON-lines validity and
//! the on-disk bundle `write_exports` produces.

use nrlt_telemetry::json;
use nrlt_telemetry::{export, Telemetry};
use std::collections::BTreeMap;

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
