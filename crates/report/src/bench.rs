//! The `BENCH_pipeline.json` perf-baseline format and the `bench-check`
//! regression gate.
//!
//! The baseline records wall time per experiment at each worker count,
//! merged across invocations. The file is written and read only by this
//! module (the bench harness writes through it, the gate reads through
//! it), which keeps the format deliberately line-oriented — one entry
//! object per line — so it can be merged without a general JSON parser.
//! Entries are keyed by `(bin, run, jobs)`; re-running an experiment
//! replaces its entry, a new combination appends.
//!
//! Every entry also records the **host parallelism** it was measured
//! under. The original baseline had `fig3 LULESH-1` at `--jobs 4`
//! recording 20.07 s against 13.10 s at `--jobs 1` — slower *with more
//! workers* — because the host had a single core and the four workers
//! were pure oversubscription. Carrying `host_parallelism` per entry
//! makes that visible in the data, and [`merge_and_write`] warns
//! whenever an entry's `jobs` exceeds the parallelism of the host that
//! measured it, so oversubscribed numbers can't silently become the
//! baseline again.

use std::fmt::Write as _;
use std::path::Path;

/// One timed experiment of the perf baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Binary that ran the experiment (e.g. `fig3`).
    pub bin: String,
    /// Run name from the manifest (e.g. `MiniFE-2`).
    pub run: String,
    /// Effective worker count the cells fanned out over.
    pub jobs: usize,
    /// `available_parallelism` of the host that measured the entry
    /// (0 = unknown, for entries written before the field existed).
    pub host_parallelism: usize,
    /// Wall-clock seconds of the experiment call.
    pub wall_seconds: f64,
    /// Engine events the experiment dispatched (0 = unknown, for
    /// entries written before the field existed).
    pub events: u64,
    /// Engine throughput: `events / wall_seconds` (0 = unknown).
    pub events_per_sec: f64,
    /// Wall-time overhead in percent against the entry's comparison
    /// twin. For instrumented runs (run names carrying a `:observe`,
    /// `:engineprof`, or `:sampleprof` suffix) the twin is the plain
    /// entry with the same bin, base run, and jobs — the explicit
    /// cost-of-observability KPI. For plain runs at `jobs > 1` the twin
    /// is the `jobs = 1` sibling, so the value reads as the (usually
    /// negative) parallel speedup rather than a misleading `0.0`.
    /// `None` (serialized as `null`) means no twin exists in the
    /// baseline; plain `jobs = 1` entries are their own twin at
    /// `Some(0.0)`. Recomputed on every [`merge_and_write`], never
    /// gated; instrumented overheads above [`OVERHEAD_WARN_PCT`] warn
    /// on stderr.
    pub overhead_vs_plain_pct: Option<f64>,
    /// Peak resident-set size of the measuring process, in bytes
    /// (`VmHWM` from `/proc/self/status`; 0 = unknown, e.g. non-Linux
    /// hosts or entries written before the field existed). The HWM is
    /// process-wide and monotone across an invocation, so entries
    /// recorded later in one invocation inherit the peaks of earlier
    /// runs — comparable across invocations of one binary, honest
    /// rather than per-run.
    pub peak_rss_bytes: u64,
}

/// Instrumented-run overhead (percent vs the plain twin) above which
/// [`merge_and_write`] warns. Warn-only by design: instrumentation cost
/// is tracked, not gated — full tracing legitimately costs tens of
/// percent.
pub const OVERHEAD_WARN_PCT: f64 = 40.0;

impl BenchEntry {
    /// The `(bin, run, jobs)` merge/gate key, rendered.
    pub fn key(&self) -> String {
        format!("{} {} jobs={}", self.bin, self.run, self.jobs)
    }

    /// True when the entry was measured with more workers than the host
    /// had cores — its wall time includes oversubscription, not speedup.
    pub fn oversubscribed(&self) -> bool {
        self.host_parallelism > 0 && self.jobs > self.host_parallelism
    }

    /// Throughput recomputed from the entry's own fields, or the stored
    /// value when the event count is unknown.
    pub fn throughput(&self) -> f64 {
        if self.events > 0 && self.wall_seconds > 0.0 {
            self.events as f64 / self.wall_seconds
        } else {
            self.events_per_sec
        }
    }
}

/// `available_parallelism` of this host.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Peak resident-set size of this process in bytes: `VmHWM` from
/// `/proc/self/status` (kilobytes, scaled). Returns 0 where the file or
/// the field is unavailable (non-Linux hosts) — callers treat 0 as
/// "unknown", never as "zero memory".
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// Best-effort reset of the kernel's peak-RSS high-water mark for this
/// process: writes `5` to `/proc/self/clear_refs` (Linux ≥ 4.0). After
/// a successful reset [`peak_rss_bytes`] reports the peak *since the
/// reset*, which lets a long-lived sweep attribute a peak to each
/// individual run instead of every later entry inheriting the largest
/// earlier one. Returns whether the reset took; on `false` (non-Linux,
/// restricted procfs) the HWM keeps its process-monotone semantics.
pub fn reset_peak_rss() -> bool {
    // The kernel floors the reset HWM at *current* RSS, and glibc
    // retains freed heap pages on its free lists — without a trim, a
    // run that follows a large one would still inherit hundreds of MiB
    // of retained-but-free pages in its "peak". `malloc_trim` is part
    // of the already-linked libc, not a new dependency.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        unsafe {
            malloc_trim(0);
        }
    }
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Merge `new_entries` into the baseline at `path` (replacing same-key
/// entries, appending the rest) and rewrite the file. Warns on stderr
/// for every oversubscribed entry being recorded.
pub fn merge_and_write(path: &Path, new_entries: &[BenchEntry]) -> std::io::Result<()> {
    let mut entries = match std::fs::read_to_string(path) {
        Ok(text) => parse_entries(&text),
        Err(_) => Vec::new(),
    };
    for new in new_entries {
        if new.oversubscribed() {
            eprintln!(
                "warning: {} ran {} workers on a host with parallelism {} — \
                 its wall time measures oversubscription, not speedup",
                new.key(),
                new.jobs,
                new.host_parallelism
            );
        }
        match entries
            .iter_mut()
            .find(|e| e.bin == new.bin && e.run == new.run && e.jobs == new.jobs)
        {
            Some(existing) => *existing = new.clone(),
            None => entries.push(new.clone()),
        }
    }
    entries.sort_by(|a, b| (&a.bin, &a.run, a.jobs).cmp(&(&b.bin, &b.run, b.jobs)));
    annotate_overheads(&mut entries);

    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"host_parallelism\": {},", host_parallelism());
    let _ = writeln!(out, "  \"entries\": [");
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        let overhead = match e.overhead_vs_plain_pct {
            Some(pct) => format!("{pct:.1}"),
            None => "null".to_owned(),
        };
        let _ = writeln!(
            out,
            "    {{\"bin\": {}, \"run\": {}, \"jobs\": {}, \"host_parallelism\": {}, \"wall_seconds\": {:.3}, \"events\": {}, \"events_per_sec\": {:.1}, \"overhead_vs_plain_pct\": {overhead}, \"peak_rss_bytes\": {}}}{comma}",
            json_string(&e.bin),
            json_string(&e.run),
            e.jobs,
            e.host_parallelism,
            e.wall_seconds,
            e.events,
            e.events_per_sec,
            e.peak_rss_bytes,
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, out)
}

/// Fill `overhead_vs_plain_pct` for every entry from its comparison
/// twin, and reset it to `None` where no twin exists — the field is
/// derived, so a stale value never survives a re-merge. Instrumented
/// entries (run name `base:suffix`) compare against the plain
/// `(bin, base, jobs)` twin and warn on stderr above
/// [`OVERHEAD_WARN_PCT`]; plain entries at `jobs > 1` compare against
/// their `jobs = 1` sibling (so the column reads as parallel speedup,
/// never a misleading `0.0`); plain `jobs = 1` entries are their own
/// twin at `Some(0.0)`.
fn annotate_overheads(entries: &mut [BenchEntry]) {
    let plain: Vec<(String, String, usize, f64)> = entries
        .iter()
        .filter(|e| !e.run.contains(':'))
        .map(|e| (e.bin.clone(), e.run.clone(), e.jobs, e.wall_seconds))
        .collect();
    let twin_wall = |bin: &str, run: &str, jobs: usize| {
        plain
            .iter()
            .find(|(b, r, j, wall)| b == bin && r == run && *j == jobs && *wall > 0.0)
            .map(|(_, _, _, wall)| *wall)
    };
    for e in entries.iter_mut() {
        e.overhead_vs_plain_pct = match e.run.split_once(':') {
            // Instrumented: against the same-jobs plain twin.
            Some((base_run, _suffix)) => twin_wall(&e.bin, base_run, e.jobs).map(|plain_wall| {
                let pct = (e.wall_seconds / plain_wall - 1.0) * 100.0;
                if pct > OVERHEAD_WARN_PCT {
                    eprintln!(
                        "warning: {} costs {pct:.1}% over its uninstrumented twin \
                         (warn threshold {OVERHEAD_WARN_PCT:.0}%) — instrumentation \
                         overhead is tracked, not gated",
                        e.key(),
                    );
                }
                pct
            }),
            // Plain at jobs=1: its own twin by definition.
            None if e.jobs == 1 => Some(0.0),
            // Plain at jobs>1: against the serial sibling.
            None => twin_wall(&e.bin, &e.run, 1)
                .map(|serial_wall| (e.wall_seconds / serial_wall - 1.0) * 100.0),
        };
    }
}

/// Read and parse a baseline file.
pub fn read_entries(path: &Path) -> std::io::Result<Vec<BenchEntry>> {
    Ok(parse_entries(&std::fs::read_to_string(path)?))
}

/// Parse the entry lines of a baseline previously written by
/// [`merge_and_write`]. Lines that do not carry the required fields are
/// ignored, so a corrupted file degrades to "start fresh" rather than an
/// error. `host_parallelism` is optional (0 when absent) for baselines
/// written before the field existed.
pub fn parse_entries(text: &str) -> Vec<BenchEntry> {
    text.lines().filter_map(parse_entry_line).collect()
}

fn parse_entry_line(line: &str) -> Option<BenchEntry> {
    Some(BenchEntry {
        bin: field_string(line, "bin")?,
        run: field_string(line, "run")?,
        jobs: field_raw(line, "jobs")?.parse().ok()?,
        host_parallelism: field_raw(line, "host_parallelism")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0),
        wall_seconds: field_raw(line, "wall_seconds")?.parse().ok()?,
        events: field_raw(line, "events").and_then(|v| v.parse().ok()).unwrap_or(0),
        events_per_sec: field_raw(line, "events_per_sec")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0),
        overhead_vs_plain_pct: field_raw(line, "overhead_vs_plain_pct")
            .filter(|v| v != "null")
            .and_then(|v| v.parse().ok()),
        peak_rss_bytes: field_raw(line, "peak_rss_bytes").and_then(|v| v.parse().ok()).unwrap_or(0),
    })
}

/// The raw token after `"key": `, up to the next `,` or `}`.
fn field_raw(line: &str, key: &str) -> Option<String> {
    let marker = format!("\"{key}\":");
    let start = line.find(&marker)? + marker.len();
    let rest = line[start..].trim_start();
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().to_owned())
}

/// A JSON string field value, unescaped.
fn field_string(line: &str, key: &str) -> Option<String> {
    let raw = field_raw(line, key)?;
    let inner = raw.strip_prefix('"')?.strip_suffix('"')?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some(other) => out.push(other),
                None => break,
            }
        } else {
            out.push(c);
        }
    }
    Some(out)
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ---- the regression gate -----------------------------------------------

/// One gate comparison: a `(bin, run, jobs)` key present in both the
/// baseline and the current measurement.
#[derive(Debug, Clone)]
pub struct GateRow {
    /// Rendered `(bin, run, jobs)` key.
    pub key: String,
    /// Baseline wall seconds.
    pub baseline: f64,
    /// Current wall seconds.
    pub current: f64,
    /// `current / baseline`.
    pub ratio: f64,
    /// True when the ratio exceeds the allowed factor.
    pub regressed: bool,
    /// Baseline events/sec (0 = not recorded; throughput not gated).
    pub baseline_eps: f64,
    /// Current events/sec (0 = not recorded).
    pub current_eps: f64,
    /// Throughput slowdown `baseline_eps / current_eps` (0 when either
    /// side is unknown).
    pub eps_ratio: f64,
    /// True when throughput dropped beyond the allowed factor.
    pub eps_regressed: bool,
    /// Baseline peak RSS in bytes (0 = not recorded; RSS not gated).
    pub baseline_rss: u64,
    /// Current peak RSS in bytes (0 = not recorded).
    pub current_rss: u64,
    /// Peak-RSS growth `current_rss / baseline_rss` (0 when either side
    /// is unknown).
    pub rss_ratio: f64,
    /// True when peak RSS grew beyond the allowed factor.
    pub rss_regressed: bool,
}

/// The result of a [`bench_check`] run.
#[derive(Debug, Clone)]
pub struct GateReport {
    /// Per-key comparisons.
    pub rows: Vec<GateRow>,
    /// Current keys with no usable baseline (missing, or baseline ≤ 0).
    pub unmatched: Vec<String>,
    /// Current keys measured with more workers than the host has cores:
    /// warned about, never gated — oversubscribed wall time measures
    /// scheduler contention, not the engine.
    pub skipped_oversubscribed: Vec<String>,
    /// The allowed slowdown factor.
    pub max_regress: f64,
}

impl GateReport {
    /// True when any key regressed beyond the allowed factor — in wall
    /// time, in engine throughput, or in peak RSS.
    pub fn failed(&self) -> bool {
        self.rows.iter().any(|r| r.regressed || r.eps_regressed || r.rss_regressed)
    }

    /// Render the gate outcome as a table plus a verdict line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ =
            writeln!(out, "=== bench-check (max allowed slowdown {:.2}x) ===", self.max_regress);
        let _ = writeln!(
            out,
            "  {:<40} {:>10} {:>10} {:>7} {:>12} {:>7} {:>10} {:>7}  verdict",
            "key", "baseline", "current", "ratio", "events/s", "eps-x", "rss", "rss-x"
        );
        for r in &self.rows {
            let eps = if r.current_eps > 0.0 {
                format!("{:>12.0} {:>6.2}x", r.current_eps, r.eps_ratio)
            } else {
                format!("{:>12} {:>7}", "-", "-")
            };
            let rss = if r.rss_ratio > 0.0 {
                format!("{:>9}M {:>6.2}x", r.current_rss >> 20, r.rss_ratio)
            } else {
                format!("{:>10} {:>7}", "-", "-")
            };
            let verdict = if r.regressed {
                "REGRESSED"
            } else if r.eps_regressed {
                "REGRESSED (throughput)"
            } else if r.rss_regressed {
                "REGRESSED (peak RSS)"
            } else {
                "ok"
            };
            let _ = writeln!(
                out,
                "  {:<40} {:>9.3}s {:>9.3}s {:>6.2}x {eps} {rss}  {verdict}",
                r.key, r.baseline, r.current, r.ratio,
            );
        }
        for key in &self.skipped_oversubscribed {
            let _ = writeln!(out, "  {key:<40} (oversubscribed on this host — not gated)");
        }
        for key in &self.unmatched {
            let _ = writeln!(out, "  {key:<40} (no baseline entry — not gated)");
        }
        let _ = writeln!(
            out,
            "verdict: {}",
            if self.failed() {
                "FAIL — wall-time, throughput, or peak-RSS regression"
            } else {
                "pass"
            }
        );
        out
    }
}

/// Compare `current` against `baseline`: every current entry whose
/// `(bin, run, jobs)` key has a positive baseline wall time is gated at
/// `current / baseline ≤ max_regress` — and, when both sides recorded a
/// positive engine throughput, at
/// `baseline_eps / current_eps ≤ max_regress` too. Current entries
/// without a usable baseline are listed but never fail the gate (a new
/// experiment must be able to land before its baseline exists), and
/// entries measured with more workers than the measuring host has cores
/// are skipped with a warning — their wall time measures scheduler
/// contention, not the engine.
pub fn bench_check(
    baseline: &[BenchEntry],
    current: &[BenchEntry],
    max_regress: f64,
) -> GateReport {
    let mut rows = Vec::new();
    let mut unmatched = Vec::new();
    let mut skipped_oversubscribed = Vec::new();
    let mut current: Vec<&BenchEntry> = current.iter().collect();
    current.sort_by(|a, b| (&a.bin, &a.run, a.jobs).cmp(&(&b.bin, &b.run, b.jobs)));
    for cur in current {
        if cur.oversubscribed() {
            skipped_oversubscribed.push(cur.key());
            continue;
        }
        let base = baseline
            .iter()
            .find(|e| e.bin == cur.bin && e.run == cur.run && e.jobs == cur.jobs)
            .filter(|e| e.wall_seconds > 0.0);
        match base {
            Some(base) => {
                let ratio = cur.wall_seconds / base.wall_seconds;
                let (baseline_eps, current_eps) = (base.throughput(), cur.throughput());
                let eps_ratio = if baseline_eps > 0.0 && current_eps > 0.0 {
                    baseline_eps / current_eps
                } else {
                    0.0
                };
                let rss_ratio = if base.peak_rss_bytes > 0 && cur.peak_rss_bytes > 0 {
                    cur.peak_rss_bytes as f64 / base.peak_rss_bytes as f64
                } else {
                    0.0
                };
                rows.push(GateRow {
                    key: cur.key(),
                    baseline: base.wall_seconds,
                    current: cur.wall_seconds,
                    ratio,
                    regressed: ratio > max_regress,
                    baseline_eps,
                    current_eps,
                    eps_ratio,
                    eps_regressed: eps_ratio > max_regress,
                    baseline_rss: base.peak_rss_bytes,
                    current_rss: cur.peak_rss_bytes,
                    rss_ratio,
                    rss_regressed: rss_ratio > max_regress,
                });
            }
            None => unmatched.push(cur.key()),
        }
    }
    GateReport { rows, unmatched, skipped_oversubscribed, max_regress }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn entry(bin: &str, run: &str, jobs: usize, wall: f64) -> BenchEntry {
        BenchEntry {
            bin: bin.into(),
            run: run.into(),
            jobs,
            host_parallelism: 4,
            wall_seconds: wall,
            events: 0,
            events_per_sec: 0.0,
            overhead_vs_plain_pct: None,
            peak_rss_bytes: 0,
        }
    }

    #[test]
    fn roundtrips_and_merges() {
        let dir = std::env::temp_dir().join("nrlt-report-bench-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_pipeline.json");
        let _ = std::fs::remove_file(&path);

        merge_and_write(&path, &[entry("fig3", "MiniFE-2", 1, 27.5)]).unwrap();
        merge_and_write(&path, &[entry("fig3", "MiniFE-2", 4, 8.25)]).unwrap();
        // Same key again: replaces, does not duplicate.
        merge_and_write(&path, &[entry("fig3", "MiniFE-2", 1, 27.125)]).unwrap();

        let entries = read_entries(&path).unwrap();
        // The overhead column is derived on merge: the serial entry is
        // its own twin, the jobs=4 sibling reads as speedup vs serial.
        let mut serial = entry("fig3", "MiniFE-2", 1, 27.125);
        serial.overhead_vs_plain_pct = Some(0.0);
        let mut fanned = entry("fig3", "MiniFE-2", 4, 8.25);
        fanned.overhead_vs_plain_pct = Some(-69.6);
        assert_eq!(entries, vec![serial, fanned]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn escaped_names_survive() {
        let e = entry("tab2", "odd \"name\"\twith\nescapes", 2, 1.0);
        let dir = std::env::temp_dir().join("nrlt-report-bench-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("escapes.json");
        merge_and_write(&path, std::slice::from_ref(&e)).unwrap();
        let entries = read_entries(&path).unwrap();
        assert_eq!(entries, vec![e]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn garbage_lines_are_ignored() {
        assert!(parse_entries("not json\n{\"bin\": \"x\"}\n").is_empty());
    }

    #[test]
    fn legacy_entries_without_host_parallelism_still_parse() {
        let legacy = r#"    {"bin": "fig3", "run": "LULESH-1", "jobs": 4, "wall_seconds": 20.071}"#;
        let entries = parse_entries(legacy);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].host_parallelism, 0);
        assert!(!entries[0].oversubscribed(), "unknown host parallelism is not flagged");
    }

    #[test]
    fn oversubscription_is_flagged() {
        let mut e = entry("fig3", "LULESH-1", 4, 20.0);
        e.host_parallelism = 1;
        assert!(e.oversubscribed());
        e.host_parallelism = 4;
        assert!(!e.oversubscribed());
        e.jobs = 1;
        e.host_parallelism = 1;
        assert!(!e.oversubscribed());
    }

    #[test]
    fn gate_fails_on_a_2x_slowdown() {
        let baseline = [entry("fig3", "MiniFE-1", 2, 1.0), entry("fig3", "MiniFE-2", 2, 4.0)];
        let slowed = [entry("fig3", "MiniFE-1", 2, 2.0), entry("fig3", "MiniFE-2", 2, 4.1)];
        let report = bench_check(&baseline, &slowed, 1.5);
        assert!(report.failed());
        assert_eq!(report.rows.len(), 2);
        assert!(report.rows[0].regressed, "the 2x run trips the gate");
        assert!(!report.rows[1].regressed, "the unchanged run passes");
        let text = report.render();
        assert!(text.contains("REGRESSED"), "{text}");
        assert!(text.contains("FAIL"), "{text}");
    }

    #[test]
    fn gate_passes_within_threshold_and_on_improvements() {
        let baseline = [entry("fig3", "MiniFE-1", 2, 1.0)];
        let current = [entry("fig3", "MiniFE-1", 2, 0.4)];
        let report = bench_check(&baseline, &current, 1.5);
        assert!(!report.failed());
        assert!(report.render().contains("pass"));
    }

    #[test]
    fn unmatched_keys_never_fail_the_gate() {
        let baseline = [entry("fig3", "MiniFE-1", 2, 1.0)];
        let current = [entry("fig9", "new-run", 2, 100.0)];
        let report = bench_check(&baseline, &current, 1.5);
        assert!(!report.failed());
        assert_eq!(report.unmatched, vec!["fig9 new-run jobs=2"]);
        assert!(report.render().contains("not gated"), "{}", report.render());
    }

    #[test]
    fn events_per_sec_roundtrips_and_legacy_defaults_to_zero() {
        let mut e = entry("fig3", "MiniFE-1", 1, 2.0);
        e.events = 1_000_000;
        e.events_per_sec = 500_000.0;
        let dir = std::env::temp_dir().join("nrlt-report-bench-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("eps.json");
        let _ = std::fs::remove_file(&path);
        merge_and_write(&path, std::slice::from_ref(&e)).unwrap();
        let entries = read_entries(&path).unwrap();
        e.overhead_vs_plain_pct = Some(0.0); // derived: serial plain is its own twin
        assert_eq!(entries, vec![e]);
        std::fs::remove_file(&path).unwrap();

        let legacy = r#"    {"bin": "fig3", "run": "X", "jobs": 1, "wall_seconds": 1.0}"#;
        let parsed = parse_entries(legacy);
        assert_eq!(parsed[0].events, 0);
        assert_eq!(parsed[0].events_per_sec, 0.0);
        assert_eq!(parsed[0].throughput(), 0.0);
        assert_eq!(parsed[0].overhead_vs_plain_pct, None);
        assert_eq!(parsed[0].peak_rss_bytes, 0);
    }

    #[test]
    fn throughput_regression_trips_the_gate() {
        let mut base = entry("fig3", "MiniFE-1", 1, 1.0);
        base.events = 1_000_000;
        let mut cur = base.clone();
        // Same wall time, but the engine dispatched far fewer events per
        // second (e.g. a new per-event cost): throughput gate catches it.
        cur.events = 100_000;
        let report = bench_check(&[base.clone()], &[cur], 3.0);
        assert!(report.failed(), "10x throughput drop must fail");
        assert!(report.rows[0].eps_regressed);
        assert!(!report.rows[0].regressed, "wall time itself is unchanged");
        assert!(report.render().contains("REGRESSED (throughput)"));

        // Legacy baselines without event counts never eps-gate.
        let mut legacy = entry("fig3", "MiniFE-1", 1, 1.0);
        legacy.events = 0;
        let mut cur2 = entry("fig3", "MiniFE-1", 1, 1.0);
        cur2.events = 100_000;
        let report = bench_check(&[legacy], &[cur2], 3.0);
        assert!(!report.failed());
        assert_eq!(report.rows[0].eps_ratio, 0.0);
    }

    #[test]
    fn oversubscribed_entries_are_skipped_not_gated() {
        let base = entry("fig3", "MiniFE-1", 4, 1.0);
        let mut cur = entry("fig3", "MiniFE-1", 4, 50.0);
        cur.host_parallelism = 1; // 4 workers on a 1-core host
        let report = bench_check(&[base], &[cur], 1.5);
        assert!(!report.failed(), "oversubscribed wall time must never gate");
        assert!(report.rows.is_empty());
        assert_eq!(report.skipped_oversubscribed, vec!["fig3 MiniFE-1 jobs=4"]);
        assert!(report.render().contains("oversubscribed"), "{}", report.render());
    }

    #[test]
    fn instrumented_entries_record_overhead_vs_plain() {
        let dir = std::env::temp_dir().join("nrlt-report-bench-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("overhead.json");
        let _ = std::fs::remove_file(&path);

        // Plain twin and its 50%-slower engineprof run, plus an
        // instrumented run with no twin (null, never warns).
        merge_and_write(
            &path,
            &[
                entry("fig3", "LULESH-1", 1, 10.0),
                entry("fig3", "LULESH-1:engineprof", 1, 15.0),
                entry("fig3", "Orphan-1:observe", 1, 5.0),
            ],
        )
        .unwrap();
        let entries = read_entries(&path).unwrap();
        let by_run = |run: &str| entries.iter().find(|e| e.run == run).unwrap();
        assert_eq!(by_run("LULESH-1").overhead_vs_plain_pct, Some(0.0));
        let prof = by_run("LULESH-1:engineprof").overhead_vs_plain_pct.unwrap();
        assert!((prof - 50.0).abs() < 1e-6);
        assert_eq!(by_run("Orphan-1:observe").overhead_vs_plain_pct, None);

        // The field is derived: a faster re-run of the instrumented
        // entry re-computes rather than keeping the stale 50%.
        merge_and_write(&path, &[entry("fig3", "LULESH-1:engineprof", 1, 11.0)]).unwrap();
        let entries = read_entries(&path).unwrap();
        let e = entries.iter().find(|e| e.run == "LULESH-1:engineprof").unwrap();
        let pct = e.overhead_vs_plain_pct.unwrap();
        assert!((pct - 10.0).abs() < 1e-6, "{pct}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn plain_entries_at_many_jobs_compare_against_serial_or_null() {
        let dir = std::env::temp_dir().join("nrlt-report-bench-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plain-jobs.json");
        let _ = std::fs::remove_file(&path);

        // A jobs=2 plain entry with no serial sibling must emit null,
        // not a misleading 0.0.
        merge_and_write(&path, &[entry("fig3", "MiniFE-1", 2, 5.0)]).unwrap();
        let entries = read_entries(&path).unwrap();
        assert_eq!(entries[0].overhead_vs_plain_pct, None);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"overhead_vs_plain_pct\": null"), "{text}");

        // Once the serial sibling lands, the jobs=2 entry reads as the
        // speedup against it.
        merge_and_write(&path, &[entry("fig3", "MiniFE-1", 1, 10.0)]).unwrap();
        let entries = read_entries(&path).unwrap();
        let fanned = entries.iter().find(|e| e.jobs == 2).unwrap();
        let pct = fanned.overhead_vs_plain_pct.unwrap();
        assert!((pct - -50.0).abs() < 1e-6, "{pct}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn peak_rss_roundtrips_and_gates() {
        let dir = std::env::temp_dir().join("nrlt-report-bench-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rss.json");
        let _ = std::fs::remove_file(&path);
        let mut e = entry("scale", "MiniFE-weak-10000", 1, 2.0);
        e.peak_rss_bytes = 512 << 20;
        merge_and_write(&path, std::slice::from_ref(&e)).unwrap();
        let entries = read_entries(&path).unwrap();
        assert_eq!(entries[0].peak_rss_bytes, 512 << 20);

        // 3x RSS growth at unchanged wall time trips the gate.
        let mut cur = e.clone();
        cur.peak_rss_bytes = 1536 << 20;
        let report = bench_check(&entries, &[cur], 1.5);
        assert!(report.failed(), "3x peak-RSS growth must fail");
        assert!(report.rows[0].rss_regressed);
        assert!(!report.rows[0].regressed);
        assert!(report.render().contains("REGRESSED (peak RSS)"));

        // Unknown RSS on either side never gates.
        let mut legacy = e.clone();
        legacy.peak_rss_bytes = 0;
        let report = bench_check(&entries, &[legacy], 1.5);
        assert!(!report.failed());
        assert_eq!(report.rows[0].rss_ratio, 0.0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn this_process_reports_a_peak_rss() {
        // Linux CI and dev hosts have /proc; the helper must return a
        // plausible nonzero HWM there (and 0, never garbage, elsewhere).
        let rss = peak_rss_bytes();
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(rss > 1 << 20, "VmHWM under 1 MiB is implausible: {rss}");
        }
    }

    #[test]
    fn zero_baseline_is_unmatched_not_infinite() {
        let baseline = [entry("fig3", "MiniFE-1", 2, 0.0)];
        let current = [entry("fig3", "MiniFE-1", 2, 1.0)];
        let report = bench_check(&baseline, &current, 1.5);
        assert!(!report.failed());
        assert_eq!(report.unmatched.len(), 1);
    }
}
