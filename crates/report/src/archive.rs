//! Loader and subsetting for archived `report.json` severity documents.
//!
//! The harness's `--report <dir>` flag writes `report.json` — the
//! machine-readable twin of the severity explorer (metric tree ×
//! clock-mode columns, diagnostics, top-N hotspot cells per run). This
//! module reads such a document back and carves run-/top-N-subsets out
//! of it: the archive is parsed once into a [`Value`] and every query
//! renders a filtered view of the tree.
//!
//! Rendering goes through [`nrlt_telemetry::json::render`], so a given
//! subset is byte-deterministic.

use std::collections::BTreeMap;
use std::path::Path;

use nrlt_telemetry::json::{self, Value};

/// Load and structurally validate an archived `report.json`.
///
/// Errors carry the path and the parse/shape problem; a corrupt or
/// truncated archive must surface as `Err`, never a panic.
pub fn load_report_doc(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: invalid JSON: {e}", path.display()))?;
    let runs = doc
        .get("runs")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{}: missing \"runs\" array", path.display()))?;
    for (i, run) in runs.iter().enumerate() {
        if run.get("name").and_then(Value::as_str).is_none() {
            return Err(format!("{}: runs[{i}] has no \"name\" string", path.display()));
        }
    }
    Ok(doc)
}

/// The run names of an archived severity document, in document order.
pub fn run_names(doc: &Value) -> Vec<String> {
    doc.get("runs")
        .and_then(Value::as_arr)
        .map(|runs| {
            runs.iter()
                .filter_map(|r| r.get("name").and_then(Value::as_str))
                .map(str::to_owned)
                .collect()
        })
        .unwrap_or_default()
}

/// Subset an archived severity document: keep only `run` (all runs when
/// `None`) and truncate each run's hotspot list to `top` entries
/// (`None` keeps everything). Returns a new document sharing nothing
/// mutable with the input, ready for [`json::render`].
///
/// Errors with a not-found message when `run` names no run.
pub fn severity_subset(
    doc: &Value,
    run: Option<&str>,
    top: Option<usize>,
) -> Result<Value, String> {
    let runs = doc.get("runs").and_then(Value::as_arr).unwrap_or(&[]);
    let mut kept = Vec::new();
    for r in runs {
        let name = r.get("name").and_then(Value::as_str).unwrap_or("");
        if run.is_none_or(|want| want == name) {
            kept.push(truncate_hotspots(r, top));
        }
    }
    if kept.is_empty() {
        return Err(match run {
            Some(want) => format!("no run named {want:?} in the archive"),
            None => "the archive contains no runs".to_owned(),
        });
    }
    let mut out = BTreeMap::new();
    if let Some(bin) = doc.get("bin") {
        out.insert("bin".to_owned(), bin.clone());
    }
    out.insert("runs".to_owned(), Value::Arr(kept));
    Ok(Value::Obj(out))
}

fn truncate_hotspots(run: &Value, top: Option<usize>) -> Value {
    let (Value::Obj(members), Some(n)) = (run, top) else {
        return run.clone();
    };
    let mut out = members.clone();
    if let Some(Value::Arr(hotspots)) = out.get_mut("hotspots") {
        hotspots.truncate(n);
    }
    Value::Obj(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{
        "bin": "fig3",
        "runs": [
            {"name": "A-1", "modes": ["tsc"], "hotspots": [{"p": 1}, {"p": 2}, {"p": 3}]},
            {"name": "B-1", "modes": ["tsc"], "hotspots": [{"p": 9}]}
        ]
    }"#;

    #[test]
    fn subsets_by_run_and_top() {
        let doc = json::parse(DOC).unwrap();
        assert_eq!(run_names(&doc), vec!["A-1", "B-1"]);

        let all = severity_subset(&doc, None, None).unwrap();
        assert_eq!(run_names(&all), vec!["A-1", "B-1"]);

        let only_a = severity_subset(&doc, Some("A-1"), Some(2)).unwrap();
        let runs = only_a.get("runs").unwrap().as_arr().unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].get("hotspots").unwrap().as_arr().unwrap().len(), 2);
        // Original untouched.
        let orig = doc.get("runs").unwrap().as_arr().unwrap();
        assert_eq!(orig[0].get("hotspots").unwrap().as_arr().unwrap().len(), 3);

        assert!(severity_subset(&doc, Some("C-1"), None).unwrap_err().contains("no run named"));
    }

    #[test]
    fn subset_rendering_is_deterministic() {
        let doc = json::parse(DOC).unwrap();
        let a = json::render(&severity_subset(&doc, Some("A-1"), Some(1)).unwrap());
        let b = json::render(&severity_subset(&doc, Some("A-1"), Some(1)).unwrap());
        assert_eq!(a, b);
        assert!(a.starts_with("{\"bin\":\"fig3\",\"runs\":["));
    }

    #[test]
    fn corrupt_archives_are_errors_with_path_context() {
        let dir = std::env::temp_dir().join("nrlt_archive_corrupt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");

        std::fs::write(&path, "{\"bin\": \"x\", \"runs\": [{\"name\": ").unwrap();
        let err = load_report_doc(&path).unwrap_err();
        assert!(err.contains("report.json") && err.contains("invalid JSON"), "{err}");

        std::fs::write(&path, "{\"bin\": \"x\"}").unwrap();
        assert!(load_report_doc(&path).unwrap_err().contains("missing \"runs\""));

        std::fs::write(&path, "{\"runs\": [{\"modes\": []}]}").unwrap();
        assert!(load_report_doc(&path).unwrap_err().contains("runs[0] has no \"name\""));

        let missing = dir.join("nope.json");
        assert!(load_report_doc(&missing).unwrap_err().contains("cannot read"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
