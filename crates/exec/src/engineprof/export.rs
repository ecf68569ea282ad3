//! Bundle serialization for `--engine-prof <dir>`: one file,
//! `engineprof.json`, holding per-run event counts, per-kind counts and
//! virtual nanoseconds, gauge aggregates, high-water marks and
//! allocation counts. Every field is deterministic, so the file is
//! byte-identical across `--jobs` widths and repeats; CI diffs it.
//! `nrlt-report engine` parses it back with the shared
//! `nrlt_telemetry::json` parser.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

use nrlt_telemetry::json::string;

use super::{EngineProf, EventKind, ProfData};

/// Schema version stamped into the bundle.
pub const BUNDLE_VERSION: u32 = 1;

/// A snapshot of every attached run, ready to serialize.
#[derive(Debug, Clone, Default)]
pub struct ProfBundle {
    /// Per-run data, keyed (and serialized) by run name.
    pub runs: BTreeMap<String, ProfData>,
}

impl ProfBundle {
    /// Snapshot `prof`'s attached runs.
    pub fn from_prof(prof: &EngineProf) -> Self {
        ProfBundle { runs: prof.runs() }
    }

    /// The `engineprof.json` document. Byte-identical for byte-identical
    /// runs.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"version\": {BUNDLE_VERSION},");
        let _ = writeln!(out, "  \"runs\": [");
        let n = self.runs.len();
        for (i, (name, d)) in self.runs.iter().enumerate() {
            let _ = writeln!(out, "    {{");
            let _ = writeln!(out, "      \"run\": {},", string(name));
            let _ = writeln!(out, "      \"events\": {},", d.events);
            let _ = writeln!(out, "      \"kinds\": [");
            for (j, kind) in EventKind::ALL.iter().enumerate() {
                let s = &d.kinds[kind.index()];
                let _ = writeln!(
                    out,
                    "        {{\"event\": \"{}\", \"count\": {}, \"virtual_ns\": {}}}{}",
                    kind.name(),
                    s.count,
                    s.virtual_ns,
                    comma(j, EventKind::ALL.len())
                );
            }
            let _ = writeln!(out, "      ],");
            let _ = writeln!(out, "      \"gauges\": [");
            let cells: Vec<_> = d
                .gauges
                .iter()
                .flat_map(|(series, by_phase)| {
                    by_phase.iter().map(move |(phase, g)| (series, phase, g))
                })
                .collect();
            for (j, (series, phase, g)) in cells.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "        {{\"series\": {}, \"phase\": {}, \"count\": {}, \"sum\": {}, \"max\": {}}}{}",
                    string(series),
                    string(phase),
                    g.count,
                    g.sum,
                    g.max,
                    comma(j, cells.len())
                );
            }
            let _ = writeln!(out, "      ],");
            let _ = writeln!(out, "      \"hwm\": [");
            for (j, (name, v)) in d.hwms.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "        {{\"name\": {}, \"value\": {}}}{}",
                    string(name),
                    v,
                    comma(j, d.hwms.len())
                );
            }
            let _ = writeln!(out, "      ],");
            let _ = writeln!(out, "      \"allocs\": [");
            for (j, (site, v)) in d.allocs.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "        {{\"site\": {}, \"count\": {}}}{}",
                    string(site),
                    v,
                    comma(j, d.allocs.len())
                );
            }
            let _ = writeln!(out, "      ]");
            let _ = writeln!(out, "    }}{}", comma(i, n));
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        out
    }

    /// Write `engineprof.json` under `dir`, creating it if needed.
    pub fn write(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join("engineprof.json"), self.to_json())
    }
}

fn comma(i: usize, n: usize) -> &'static str {
    if i + 1 < n {
        ","
    } else {
        ""
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engineprof::RunProf;

    fn sample_sink() -> EngineProf {
        let sink = EngineProf::new();
        for name in ["b:rep0", "a:rep0"] {
            let run = RunProf::new(name);
            run.enter(EventKind::KernelAdvance);
            run.leave(EventKind::KernelAdvance, 500);
            run.gauge("matcher.queued_sends", "main", 2);
            run.hwm("engine.worklist", 3);
            run.alloc("rank.pending", 1);
            run.set_events(4);
            let (n, d) = run.finish();
            sink.attach(n, d);
        }
        sink
    }

    #[test]
    fn deterministic_json_is_stable_and_sorted() {
        let a = ProfBundle::from_prof(&sample_sink()).to_json();
        let b = ProfBundle::from_prof(&sample_sink()).to_json();
        assert_eq!(a, b, "same data must serialize identically");
        let ia = a.find("\"a:rep0\"").unwrap();
        let ib = a.find("\"b:rep0\"").unwrap();
        assert!(ia < ib, "runs must serialize in name order");
        assert!(a.contains("\"event\": \"kernel_advance\", \"count\": 1, \"virtual_ns\": 500"));
        assert!(!a.contains("wall"), "deterministic file must not leak wall readings");
    }

    #[test]
    fn write_creates_only_the_deterministic_file() {
        let dir = std::env::temp_dir().join(format!("engineprof-test-{}", std::process::id()));
        let bundle = ProfBundle::from_prof(&sample_sink());
        bundle.write(&dir).unwrap();
        let files: Vec<_> =
            std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert_eq!(files, ["engineprof.json"]);
        assert_eq!(std::fs::read_to_string(dir.join("engineprof.json")).unwrap(), bundle.to_json());
        std::fs::remove_dir_all(&dir).ok();
    }
}
