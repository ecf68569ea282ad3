//! The query layer behind the `nrlt-report` CLI: each helper loads an
//! artifact and renders a view of it, with errors that distinguish
//! *whose fault it is*:
//!
//! * [`QueryError::NotFound`] — the artifact is fine but the request
//!   names a run / wait state / key that isn't in it,
//! * [`QueryError::Artifact`] — the artifact on disk is corrupt,
//!   truncated, or unreadable. Messages carry path/line context from
//!   the loaders.
//!
//! The CLI exits with status 2 on any of them.

use std::fmt;
use std::path::Path;

use crate::archive::{load_report_doc, severity_subset};
use crate::{engine_text, load_engine_bundle, observe_text, read_history, trend_text};
use nrlt_observe::export::ObserveBundle;
use nrlt_telemetry::json;

/// Why a query failed, classified by fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The request names something the artifact doesn't contain.
    NotFound(String),
    /// The artifact on disk is corrupt, truncated, or unreadable.
    Artifact(String),
}

impl QueryError {
    /// The human-readable message, independent of classification.
    pub fn message(&self) -> &str {
        match self {
            QueryError::NotFound(m) | QueryError::Artifact(m) => m,
        }
    }
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.message())
    }
}

fn artifact(path: &Path) -> impl FnOnce(String) -> QueryError + '_ {
    move |e| {
        if e.contains(&path.display().to_string()) {
            QueryError::Artifact(e)
        } else {
            QueryError::Artifact(format!("{}: {e}", path.display()))
        }
    }
}

/// The resource-observatory view over an `--observe` bundle directory.
pub fn observe_query(
    dir: &Path,
    run: Option<&str>,
    top: usize,
    wait: Option<&str>,
) -> Result<String, QueryError> {
    let bundle = ObserveBundle::load(dir).map_err(|e| artifact(dir)(e.to_string()))?;
    observe_text(&bundle, run, top, wait).map_err(QueryError::NotFound)
}

/// The engine-introspection view over an `--engine-prof` bundle
/// directory.
pub fn engine_query(dir: &Path, run: Option<&str>, top: usize) -> Result<String, QueryError> {
    let bundle = load_engine_bundle(dir).map_err(artifact(dir))?;
    engine_text(&bundle, run, top).map_err(QueryError::NotFound)
}

/// The severity view over an archived `report.json`, subset by run and
/// hotspot count, rendered back to compact deterministic JSON.
pub fn severity_query(
    report_json: &Path,
    run: Option<&str>,
    top: Option<usize>,
) -> Result<String, QueryError> {
    let doc = load_report_doc(report_json).map_err(QueryError::Artifact)?;
    let subset = severity_subset(&doc, run, top).map_err(QueryError::NotFound)?;
    Ok(json::render(&subset))
}

/// The per-key trend view over a history ledger.
pub fn trend_query(ledger: &Path, key: Option<&str>) -> Result<String, QueryError> {
    let records = read_history(ledger).map_err(|e| artifact(ledger)(e.to_string()))?;
    Ok(trend_text(&records, key))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn corrupt_observe_bundle_is_an_artifact_error_not_a_panic() {
        let dir = tmpdir("nrlt_query_corrupt_observe");
        std::fs::write(dir.join("observe.jsonl"), "{\"kind\": \"sample\", truncated").unwrap();
        let err = observe_query(&dir, None, 5, None).unwrap_err();
        assert!(matches!(err, QueryError::Artifact(_)), "{err}");
        assert!(err.message().contains("nrlt_query_corrupt_observe"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_engine_bundle_is_an_artifact_error() {
        let dir = tmpdir("nrlt_query_corrupt_engine");
        std::fs::write(dir.join("engineprof.json"), "{\"runs\": [").unwrap();
        let err = engine_query(&dir, None, 5).unwrap_err();
        assert!(matches!(err, QueryError::Artifact(_)), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_run_is_not_found_once_the_artifact_loads() {
        let dir = tmpdir("nrlt_query_notfound");
        let doc = "{\"bin\": \"x\", \"runs\": [{\"name\": \"A-1\", \"hotspots\": []}]}";
        let path = dir.join("report.json");
        std::fs::write(&path, doc).unwrap();
        assert!(severity_query(&path, Some("A-1"), None).is_ok());
        let err = severity_query(&path, Some("missing"), None).unwrap_err();
        assert!(matches!(err, QueryError::NotFound(_)), "{err}");

        std::fs::write(&path, "not json at all").unwrap();
        let err = severity_query(&path, None, None).unwrap_err();
        assert!(matches!(err, QueryError::Artifact(_)), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trend_query_reads_the_ledger() {
        let dir = tmpdir("nrlt_query_trend");
        let ledger = dir.join("history.jsonl");
        let err = trend_query(&ledger, None).unwrap_err();
        assert!(matches!(err, QueryError::Artifact(_)), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
