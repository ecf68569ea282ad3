//! Run manifests and the on-disk export bundle.
//!
//! A manifest records what a benchmark binary actually ran: the binary
//! name, command line, git revision, start time, wall-clock duration,
//! and one [`RunInfo`] row per experiment (configuration, seed,
//! repetitions). [`write_exports`] writes the full bundle the
//! `--telemetry <dir>` flag promises: `manifest.json`, `metrics.jsonl`
//! and `pipeline.trace.json`. `nrlt-report inspect` renders
//! `metrics.jsonl` for humans; Perfetto opens the trace.

use crate::{chrome, export, json, Telemetry};
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// One experiment executed by the run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RunInfo {
    /// Experiment / benchmark name (e.g. `"fig2:sweep3d"`).
    pub name: String,
    /// Human-readable configuration summary (ranks, threads, noise, …).
    pub config: String,
    /// Base RNG seed.
    pub seed: u64,
    /// Number of repetitions.
    pub repetitions: u32,
}

/// The run manifest written as `manifest.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Binary name (e.g. `"fig2"`).
    pub bin: String,
    /// Full command line as invoked.
    pub argv: Vec<String>,
    /// Git revision of the working tree, or `"unknown"`.
    pub git_rev: String,
    /// Unix timestamp (seconds) when the run started.
    pub started_unix: u64,
    /// Total wall-clock duration of the run in seconds.
    pub wall_seconds: f64,
    /// One row per experiment executed.
    pub runs: Vec<RunInfo>,
}

impl Manifest {
    /// A manifest for `bin`, capturing argv and the current time; the
    /// caller fills `runs` and `wall_seconds` before exporting.
    pub fn new(bin: &str) -> Manifest {
        Manifest {
            bin: bin.to_owned(),
            argv: std::env::args().collect(),
            git_rev: git_rev(),
            started_unix: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
            wall_seconds: 0.0,
            runs: Vec::new(),
        }
    }

    /// Render as a JSON document.
    pub fn to_json(&self) -> String {
        let argv: Vec<String> = self.argv.iter().map(|a| json::string(a)).collect();
        let runs: Vec<String> = self
            .runs
            .iter()
            .map(|r| {
                format!(
                    "{{\"name\":{},\"config\":{},\"seed\":{},\"repetitions\":{}}}",
                    json::string(&r.name),
                    json::string(&r.config),
                    r.seed,
                    r.repetitions
                )
            })
            .collect();
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"bin\": {},", json::string(&self.bin));
        let _ = writeln!(out, "  \"argv\": [{}],", argv.join(", "));
        let _ = writeln!(out, "  \"git_rev\": {},", json::string(&self.git_rev));
        let _ = writeln!(out, "  \"started_unix\": {},", self.started_unix);
        let _ = writeln!(out, "  \"wall_seconds\": {},", json::number(self.wall_seconds));
        let _ = writeln!(out, "  \"runs\": [{}]", runs.join(", "));
        let _ = writeln!(out, "}}");
        out
    }
}

/// The current git revision (short hash, `-dirty` suffix when the tree
/// has modifications), or `"unknown"` when git is unavailable.
pub fn git_rev() -> String {
    let rev = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned());
    let Some(rev) = rev else {
        return "unknown".to_owned();
    };
    let dirty = std::process::Command::new("git")
        .args(["status", "--porcelain"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| !o.stdout.is_empty())
        .unwrap_or(false);
    if dirty {
        format!("{rev}-dirty")
    } else {
        rev
    }
}

/// Write the telemetry bundle to `dir` (created if needed):
/// `manifest.json`, `metrics.jsonl` and `pipeline.trace.json`.
pub fn write_exports(dir: &Path, tel: &Telemetry, manifest: &Manifest) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("manifest.json"), manifest.to_json())?;
    std::fs::write(dir.join("metrics.jsonl"), export::metrics_jsonl(tel))?;
    std::fs::write(dir.join("pipeline.trace.json"), chrome::pipeline_trace_json(tel))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_json_parses() {
        let mut m = Manifest::new("test-bin");
        m.wall_seconds = 1.25;
        m.runs.push(RunInfo {
            name: "fig2:sweep3d".into(),
            config: "4 ranks × 2 threads".into(),
            seed: 1000,
            repetitions: 5,
        });
        let v = json::parse(&m.to_json()).expect("manifest is valid JSON");
        assert_eq!(v.get("bin").unwrap().as_str(), Some("test-bin"));
        assert_eq!(v.get("wall_seconds").unwrap().as_f64(), Some(1.25));
        let runs = v.get("runs").unwrap().as_arr().unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].get("seed").unwrap().as_f64(), Some(1000.0));
    }

    #[test]
    fn git_rev_is_nonempty() {
        assert!(!git_rev().is_empty());
    }
}
