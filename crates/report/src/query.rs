//! The query layer behind the `nrlt-report` CLI: each helper loads an
//! artifact and renders a view of it. Every failure — a corrupt,
//! truncated or unreadable artifact, or a request naming a run or wait
//! state the artifact does not contain — is an `Err` message (artifact
//! errors carry the path); the CLI prints it and exits with status 2.

use std::path::Path;

use crate::engine::engine_text;
use crate::load_engine_bundle;
use crate::observe::observe_text;
use nrlt_observe::export::ObserveBundle;

/// Prefix a load error with `path` unless the loader already named it.
fn with_path(path: &Path, e: String) -> String {
    let shown = path.display().to_string();
    if e.contains(&shown) {
        e
    } else {
        format!("{shown}: {e}")
    }
}

/// The resource-observatory view over an `--observe` bundle directory.
pub fn observe_query(
    dir: &Path,
    run: Option<&str>,
    top: usize,
    wait: Option<&str>,
) -> Result<String, String> {
    let bundle = ObserveBundle::load(dir).map_err(|e| with_path(dir, e))?;
    observe_text(&bundle, run, top, wait)
}

/// The engine-introspection view over an `--engine-prof` bundle
/// directory.
pub fn engine_query(dir: &Path, run: Option<&str>, top: usize) -> Result<String, String> {
    let bundle = load_engine_bundle(dir).map_err(|e| with_path(dir, e))?;
    engine_text(&bundle, run, top)
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
        assert!(err.contains("nrlt_query_corrupt_observe"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_engine_bundle_is_an_artifact_error() {
        let dir = tmpdir("nrlt_query_corrupt_engine");
        std::fs::write(dir.join("engineprof.json"), "{\"runs\": [").unwrap();
        let err = engine_query(&dir, None, 5).unwrap_err();
        assert!(err.contains("nrlt_query_corrupt_engine"), "{err}");
        std::fs::write(dir.join("engineprof.json"), "{\"runs\": [{\"events\": 1}]}").unwrap();
        let err = engine_query(&dir, None, 5).unwrap_err();
        assert!(err.contains("nrlt_query_corrupt_engine"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_run_is_not_found_once_the_artifact_loads() {
        let dir = tmpdir("nrlt_query_notfound");
        let doc = "{\"runs\": [{\"run\": \"A-1\", \"events\": 3, \"kinds\": []}]}";
        std::fs::write(dir.join("engineprof.json"), doc).unwrap();
        assert!(engine_query(&dir, Some("A-1"), 5).is_ok());
        let err = engine_query(&dir, Some("missing"), 5).unwrap_err();
        assert!(err.contains("no run named \"missing\""), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
