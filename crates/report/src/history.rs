//! The cross-run perf ledger (`results/history.jsonl`), its trend view,
//! and the EWMA-baseline regression gate.
//!
//! `BENCH_pipeline.json` is a *snapshot*: re-running an experiment
//! replaces its entry, so the baseline has no memory of whether a PR
//! moved the needle. The ledger is the *trajectory*: every bench or
//! regenerate invocation appends one schema-versioned record — git rev,
//! host parallelism, the invocation's bench entries, the sampling
//! profiler's top folded stacks, and an engineprof KPI digest — and
//! never rewrites old lines. `nrlt-report trend` renders per-key
//! trajectories (sparkline, first/last/best, EWMA), and
//! `bench-check --history` gates the current measurement against the
//! EWMA of the ledger instead of a single frozen snapshot, which is how
//! pipeit-style KPI gating keeps one lucky (or unlucky) run from
//! becoming the reference.
//!
//! Determinism contract: appending is wall-clock data by nature, but
//! *rendering* is pure — `trend_text` depends only on ledger bytes, so
//! the same ledger renders byte-identically (CI-diffable).

use crate::bench::{bench_check, BenchEntry, GateReport};
use nrlt_telemetry::json;
use std::fmt::Write as _;
use std::path::Path;

/// Version stamped into every ledger record. Readers skip records with
/// a *newer* schema (they were written by a future version) instead of
/// misparsing them; absent or older versions parse best-effort.
pub const HISTORY_SCHEMA_VERSION: u64 = 1;

/// EWMA smoothing factor for the trend baseline: weight of the newest
/// observation (pipeit uses the same neighbourhood — responsive to real
/// shifts, robust to one noisy run).
pub const EWMA_ALPHA: f64 = 0.3;

/// One appended ledger record: everything one bench/regenerate
/// invocation learned about performance.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryRecord {
    /// Schema version the record was written with.
    pub schema: u64,
    /// Seconds since the Unix epoch at append time.
    pub unix_time: u64,
    /// Short git revision of the tree that ran (may carry `-dirty`).
    pub git_rev: String,
    /// `available_parallelism` of the measuring host.
    pub host_parallelism: usize,
    /// Binary that ran (e.g. `fig3`).
    pub bin: String,
    /// The invocation's timed experiments.
    pub entries: Vec<BenchEntry>,
    /// Sampling profiler's top folded stacks (`a;b;c`, sample count),
    /// count-descending. Empty when sampling was off.
    pub top_stacks: Vec<(String, u64)>,
    /// Engineprof KPI digest: (run name, engine events/sec). Empty when
    /// the engine profiler was off.
    pub engineprof_eps: Vec<(String, f64)>,
}

/// Serialize one record as a single JSON line (no trailing newline).
pub fn record_line(r: &HistoryRecord) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"schema\": {}, \"unix_time\": {}, \"git_rev\": {}, \"host_parallelism\": {}, \"bin\": {}, \"entries\": [",
        r.schema,
        r.unix_time,
        json::string(&r.git_rev),
        r.host_parallelism,
        json::string(&r.bin),
    );
    for (i, e) in r.entries.iter().enumerate() {
        let comma = if i + 1 < r.entries.len() { ", " } else { "" };
        let overhead = match e.overhead_vs_plain_pct {
            Some(pct) => json::number(pct),
            None => "null".to_owned(),
        };
        let _ = write!(
            out,
            "{{\"bin\": {}, \"run\": {}, \"jobs\": {}, \"host_parallelism\": {}, \"wall_seconds\": {}, \"events\": {}, \"events_per_sec\": {}, \"overhead_vs_plain_pct\": {overhead}, \"peak_rss_bytes\": {}}}{comma}",
            json::string(&e.bin),
            json::string(&e.run),
            e.jobs,
            e.host_parallelism,
            json::number(e.wall_seconds),
            e.events,
            json::number(e.events_per_sec),
            e.peak_rss_bytes,
        );
    }
    let _ = write!(out, "], \"top_stacks\": [");
    for (i, (stack, n)) in r.top_stacks.iter().enumerate() {
        let comma = if i + 1 < r.top_stacks.len() { ", " } else { "" };
        let _ = write!(out, "[{}, {n}]{comma}", json::string(stack));
    }
    let _ = write!(out, "], \"engineprof_eps\": [");
    for (i, (run, eps)) in r.engineprof_eps.iter().enumerate() {
        let comma = if i + 1 < r.engineprof_eps.len() { ", " } else { "" };
        let _ = write!(out, "[{}, {}]{comma}", json::string(run), json::number(*eps));
    }
    let _ = write!(out, "]}}");
    out
}

/// Append one record to the ledger at `path`, creating parents and the
/// file as needed. Existing lines are never touched.
pub fn append_record(path: &Path, r: &HistoryRecord) -> std::io::Result<()> {
    use std::io::Write as _;
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    writeln!(file, "{}", record_line(r))
}

/// Parse one ledger line. `None` for malformed lines and for records
/// written by a newer schema.
pub fn parse_record(line: &str) -> Option<HistoryRecord> {
    let v = json::parse(line.trim()).ok()?;
    let schema = v.get("schema").and_then(|s| s.as_f64()).unwrap_or(0.0) as u64;
    if schema > HISTORY_SCHEMA_VERSION {
        return None;
    }
    let entries = v
        .get("entries")
        .and_then(|e| e.as_arr())
        .map(|arr| arr.iter().filter_map(parse_entry).collect())
        .unwrap_or_default();
    let top_stacks = v
        .get("top_stacks")
        .and_then(|e| e.as_arr())
        .map(|arr| {
            arr.iter()
                .filter_map(|pair| {
                    let p = pair.as_arr()?;
                    Some((p.first()?.as_str()?.to_owned(), p.get(1)?.as_f64()? as u64))
                })
                .collect()
        })
        .unwrap_or_default();
    let engineprof_eps = v
        .get("engineprof_eps")
        .and_then(|e| e.as_arr())
        .map(|arr| {
            arr.iter()
                .filter_map(|pair| {
                    let p = pair.as_arr()?;
                    Some((p.first()?.as_str()?.to_owned(), p.get(1)?.as_f64()?))
                })
                .collect()
        })
        .unwrap_or_default();
    Some(HistoryRecord {
        schema,
        unix_time: v.get("unix_time").and_then(|t| t.as_f64()).unwrap_or(0.0) as u64,
        git_rev: v.get("git_rev").and_then(|g| g.as_str()).unwrap_or("").to_owned(),
        host_parallelism: v.get("host_parallelism").and_then(|h| h.as_f64()).unwrap_or(0.0)
            as usize,
        bin: v.get("bin").and_then(|b| b.as_str()).unwrap_or("").to_owned(),
        entries,
        top_stacks,
        engineprof_eps,
    })
}

fn parse_entry(v: &json::Value) -> Option<BenchEntry> {
    Some(BenchEntry {
        bin: v.get("bin")?.as_str()?.to_owned(),
        run: v.get("run")?.as_str()?.to_owned(),
        jobs: v.get("jobs")?.as_f64()? as usize,
        host_parallelism: v.get("host_parallelism").and_then(|h| h.as_f64()).unwrap_or(0.0)
            as usize,
        wall_seconds: v.get("wall_seconds")?.as_f64()?,
        events: v.get("events").and_then(|e| e.as_f64()).unwrap_or(0.0) as u64,
        events_per_sec: v.get("events_per_sec").and_then(|e| e.as_f64()).unwrap_or(0.0),
        overhead_vs_plain_pct: v.get("overhead_vs_plain_pct").and_then(|e| e.as_f64()),
        peak_rss_bytes: v.get("peak_rss_bytes").and_then(|e| e.as_f64()).unwrap_or(0.0) as u64,
    })
}

/// Load every parseable record from a ledger file, in file order.
pub fn read_history(path: &Path) -> std::io::Result<Vec<HistoryRecord>> {
    Ok(std::fs::read_to_string(path)?.lines().filter_map(parse_record).collect())
}

/// Exponentially weighted moving average with [`EWMA_ALPHA`]: seeded on
/// the first value, each later value folded in at weight α. 0 for an
/// empty series.
pub fn ewma(values: &[f64]) -> f64 {
    let mut it = values.iter();
    let Some(&first) = it.next() else { return 0.0 };
    it.fold(first, |acc, &v| acc + EWMA_ALPHA * (v - acc))
}

/// Eight-level Unicode sparkline over `values`, min–max normalised. A
/// flat series renders as all-middle bars.
pub fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let (min, max) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    values
        .iter()
        .map(|&v| {
            if max <= min {
                BARS[3]
            } else {
                let t = (v - min) / (max - min);
                BARS[((t * 7.0).round() as usize).min(7)]
            }
        })
        .collect()
}

/// [`sparkline`] over an optionally-gapped series: present values
/// min–max normalise as usual, absent slots (records that did not
/// measure the key) render as `·` so the bar positions stay aligned
/// with the ledger's record indices.
pub fn sparkline_gaps(values: &[Option<f64>]) -> String {
    let present: Vec<f64> = values.iter().copied().flatten().collect();
    let bars = sparkline(&present);
    let mut it = bars.chars();
    values.iter().map(|v| if v.is_some() { it.next().unwrap_or('·') } else { '·' }).collect()
}

/// One key's trajectory across the ledger: one slot per ledger record,
/// in record order. `None` marks a record that did not measure the key
/// — the trend view renders those as `·` gaps instead of silently
/// dropping the column (which used to misalign a series against the
/// record index list whenever a run was skipped for one invocation).
struct Series {
    key: String,
    walls: Vec<Option<f64>>,
    eps: Vec<Option<f64>>,
    rss: Vec<Option<f64>>,
    oversubscribed: bool,
}

impl Series {
    fn present_walls(&self) -> Vec<f64> {
        self.walls.iter().copied().flatten().collect()
    }
}

/// Group bench entries by `(bin, run, jobs)` key across records. Keys
/// appear in first-seen order; every series is padded to one slot per
/// record so trajectories stay aligned with the record index; an entry
/// that was ever measured oversubscribed marks the whole series
/// (skipped by the gate, flagged by the trend view).
fn series(records: &[HistoryRecord], key_filter: Option<&str>) -> Vec<Series> {
    let mut out: Vec<Series> = Vec::new();
    for (i, r) in records.iter().enumerate() {
        for e in &r.entries {
            let key = e.key();
            if let Some(f) = key_filter {
                if !key.contains(f) {
                    continue;
                }
            }
            let s = match out.iter_mut().find(|s| s.key == key) {
                Some(s) => s,
                None => {
                    out.push(Series {
                        key,
                        walls: vec![None; i],
                        eps: vec![None; i],
                        rss: vec![None; i],
                        oversubscribed: false,
                    });
                    out.last_mut().expect("just pushed")
                }
            };
            if s.walls.len() > i {
                continue; // duplicate key within one record: keep the first
            }
            s.walls.push(Some(e.wall_seconds));
            s.eps.push((e.throughput() > 0.0).then(|| e.throughput()));
            s.rss.push((e.peak_rss_bytes > 0).then_some(e.peak_rss_bytes as f64));
            s.oversubscribed |= e.oversubscribed();
        }
        for s in out.iter_mut() {
            if s.walls.len() == i {
                s.walls.push(None);
                s.eps.push(None);
                s.rss.push(None);
            }
        }
    }
    out
}

/// Render the ledger's per-key trajectories: a record index, then one
/// row per `(bin, run, jobs)` key with sparkline, first/last/best wall
/// seconds, the last-vs-first delta, the EWMA baseline the gate would
/// use, the latest engine throughput, and the peak-RSS trajectory (sparkline + latest value; `-` for series
/// that never recorded one). Records that skipped a key render as `·`
/// gaps, keeping every sparkline aligned with the record index list.
/// Output depends only on the ledger bytes (and the filter), so the
/// same ledger renders byte-identically.
pub fn trend_text(records: &[HistoryRecord], key_filter: Option<&str>) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "=== perf trend ({} ledger records) ===", records.len());
    for (i, r) in records.iter().enumerate() {
        let _ = writeln!(
            out,
            "  [{i:>2}] {} {} host_parallelism={} entries={}",
            r.git_rev,
            r.bin,
            r.host_parallelism,
            r.entries.len()
        );
    }
    let all = series(records, key_filter);
    if all.is_empty() {
        let _ = writeln!(out, "no bench entries match");
        return out;
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "  {:<42} {:<12} {:>9} {:>9} {:>9} {:>8} {:>9} {:>11} {:<12} {:>9}",
        "key", "wall trend", "first", "last", "best", "Δ%", "ewma", "events/s", "rss trend", "rss"
    );
    for s in &all {
        let walls = s.present_walls();
        let first = *walls.first().expect("a series has at least one measurement");
        let last = *walls.last().expect("a series has at least one measurement");
        let best = walls.iter().copied().fold(f64::INFINITY, f64::min);
        let delta = if first > 0.0 { (last / first - 1.0) * 100.0 } else { 0.0 };
        let last_eps = s.eps.iter().copied().flatten().last();
        let eps = match last_eps {
            Some(v) => format!("{v:>11.0}"),
            None => format!("{:>11}", "-"),
        };
        // RSS: only records that measured one (0 = unknown host/legacy).
        let (rss_trend, rss_last) = match s.rss.iter().copied().flatten().last() {
            Some(latest) => {
                (sparkline_gaps(&s.rss), format!("{:>8.1}M", latest / (1 << 20) as f64))
            }
            None => (String::new(), format!("{:>9}", "-")),
        };
        let flag = if s.oversubscribed { " (oversubscribed)" } else { "" };
        let _ = writeln!(
            out,
            "  {:<42} {:<12} {:>8.3}s {:>8.3}s {:>8.3}s {:>+7.1}% {:>8.3}s {eps} {rss_trend:<12} {rss_last}{flag}",
            s.key,
            sparkline_gaps(&s.walls),
            first,
            last,
            best,
            delta,
            ewma(&walls),
        );
    }
    // Latest sampled hot stacks, when the newest record carries any —
    // the wall-clock "where does the time go" answer next to the trend.
    if let Some(r) = records.iter().rev().find(|r| !r.top_stacks.is_empty()) {
        let _ = writeln!(out);
        let _ = writeln!(out, "  latest sampled hot stacks ({} {}):", r.git_rev, r.bin);
        for (stack, n) in r.top_stacks.iter().take(10) {
            let _ = writeln!(out, "    {n:>8}  {stack}");
        }
    }
    out
}

/// Synthetic baseline from the ledger: per key, wall time and
/// throughput are the EWMA over the non-oversubscribed history.
/// Feeding this to [`bench_check`] gives `bench-check --history` —
/// same gate semantics (unmatched keys never fail, oversubscribed
/// current entries skipped), trend-calibrated thresholds.
pub fn ewma_baseline(records: &[HistoryRecord]) -> Vec<BenchEntry> {
    series(records, None)
        .into_iter()
        .filter(|s| !s.oversubscribed)
        .map(|s| {
            // key() is "{bin} {run} jobs={jobs}"; rebuild fields from the
            // first record that carries the key instead of re-parsing.
            let probe = records
                .iter()
                .flat_map(|r| r.entries.iter())
                .find(|e| e.key() == s.key)
                .expect("series key came from these records");
            let eps: Vec<f64> = s.eps.iter().copied().flatten().collect();
            let rss: Vec<f64> = s.rss.iter().copied().flatten().collect();
            BenchEntry {
                bin: probe.bin.clone(),
                run: probe.run.clone(),
                jobs: probe.jobs,
                host_parallelism: probe.host_parallelism,
                wall_seconds: ewma(&s.present_walls()),
                events: 0,
                events_per_sec: ewma(&eps),
                overhead_vs_plain_pct: None,
                peak_rss_bytes: ewma(&rss) as u64,
            }
        })
        .collect()
}

/// Gate `current` against the ledger's EWMA baseline.
pub fn history_gate(
    records: &[HistoryRecord],
    current: &[BenchEntry],
    max_regress: f64,
) -> GateReport {
    bench_check(&ewma_baseline(records), current, max_regress)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(run: &str, jobs: usize, wall: f64, eps: f64) -> BenchEntry {
        BenchEntry {
            bin: "fig3".into(),
            run: run.into(),
            jobs,
            host_parallelism: 4,
            wall_seconds: wall,
            events: 0,
            events_per_sec: eps,
            overhead_vs_plain_pct: None,
            peak_rss_bytes: 0,
        }
    }

    fn record(rev: &str, entries: Vec<BenchEntry>) -> HistoryRecord {
        HistoryRecord {
            schema: HISTORY_SCHEMA_VERSION,
            unix_time: 1_700_000_000,
            git_rev: rev.into(),
            host_parallelism: 4,
            bin: "fig3".into(),
            entries,
            top_stacks: vec![("experiment.mode_cell;measure.run;engine.run".into(), 412)],
            engineprof_eps: vec![("LULESH-1:tsc:rep0".into(), 4_500_000.0)],
        }
    }

    #[test]
    fn record_lines_round_trip() {
        let mut e = entry("LULESH-1", 1, 10.5, 4_700_000.0);
        e.overhead_vs_plain_pct = Some(12.5);
        e.peak_rss_bytes = 768 << 20;
        let r = record("abc1234-dirty", vec![e, entry("LULESH-1:observe", 1, 14.0, 0.0)]);
        let line = record_line(&r);
        assert!(!line.contains('\n'), "one record = one line");
        assert!(line.contains("\"overhead_vs_plain_pct\": null"), "{line}");
        assert_eq!(parse_record(&line), Some(r));
    }

    #[test]
    fn newer_schema_and_garbage_lines_are_skipped() {
        assert_eq!(parse_record("not json"), None);
        assert_eq!(parse_record(""), None);
        let mut r = record("abc", vec![]);
        r.schema = HISTORY_SCHEMA_VERSION + 1;
        assert_eq!(parse_record(&record_line(&r)), None, "future schema must be skipped");
    }

    #[test]
    fn append_accumulates_and_reads_back_in_order() {
        let dir = std::env::temp_dir().join("nrlt-history-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("history.jsonl");
        let _ = std::fs::remove_file(&path);
        let r1 = record("rev1", vec![entry("LULESH-1", 1, 10.0, 0.0)]);
        let r2 = record("rev2", vec![entry("LULESH-1", 1, 9.0, 0.0)]);
        append_record(&path, &r1).unwrap();
        append_record(&path, &r2).unwrap();
        let back = read_history(&path).unwrap();
        assert_eq!(back, vec![r1, r2]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn ewma_tracks_but_smooths() {
        assert_eq!(ewma(&[]), 0.0);
        assert_eq!(ewma(&[5.0]), 5.0);
        let drifting = ewma(&[10.0, 10.0, 20.0]);
        assert!(drifting > 10.0 && drifting < 20.0, "{drifting}");
        // One outlier moves the baseline less than the outlier itself.
        assert!(ewma(&[10.0, 10.0, 10.0, 40.0]) < 20.0);
    }

    #[test]
    fn sparkline_is_monotone_and_total() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[1.0, 1.0]), "▄▄");
        let s = sparkline(&[1.0, 2.0, 3.0]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.starts_with('▁') && s.ends_with('█'), "{s}");
    }

    #[test]
    fn trend_text_is_deterministic_and_flags_oversubscription() {
        let mut over = entry("LULESH-1", 8, 20.0, 0.0);
        over.host_parallelism = 1;
        let records = vec![
            record("rev1", vec![entry("LULESH-1", 1, 10.0, 0.0), over.clone()]),
            record("rev2", vec![entry("LULESH-1", 1, 9.0, 0.0), over]),
        ];
        let a = trend_text(&records, None);
        let b = trend_text(&records, None);
        assert_eq!(a, b, "same ledger must render byte-identically");
        assert!(a.contains("fig3 LULESH-1 jobs=1"), "{a}");
        assert!(a.contains("(oversubscribed)"), "{a}");
        assert!(a.contains("latest sampled hot stacks"), "{a}");
        assert!(a.contains("-10.0%"), "wall went 10.0 -> 9.0: {a}");
        let filtered = trend_text(&records, Some("jobs=1"));
        assert!(!filtered.contains("jobs=8"), "{filtered}");
    }

    #[test]
    fn trend_renders_peak_rss_trajectories() {
        let mut lean = entry("MiniFE-weak-10000", 1, 5.0, 2_000_000.0);
        lean.peak_rss_bytes = 256 << 20;
        let mut fat = lean.clone();
        fat.peak_rss_bytes = 512 << 20;
        let records = vec![record("rev1", vec![lean]), record("rev2", vec![fat])];
        let text = trend_text(&records, None);
        assert!(text.contains("rss trend"), "{text}");
        assert!(text.contains("512.0M"), "latest peak RSS rendered in MiB: {text}");
        assert!(text.contains("2000000"), "latest events/s rendered: {text}");
        // A series that never measured RSS renders `-`, not 0.0M.
        let bare = vec![record("rev1", vec![entry("LULESH-1", 1, 10.0, 0.0)])];
        let text = trend_text(&bare, None);
        assert!(text.contains('-'), "{text}");
        assert!(!text.contains("0.0M"), "{text}");
    }

    #[test]
    fn missing_keys_render_as_gaps_not_dropped_columns() {
        // LULESH-1 is measured in records 0 and 2 but skipped in record
        // 1 (e.g. `--only MiniFE-1` for one invocation): its sparkline
        // must show a `·` gap at index 1, and MiniFE-1 (first seen in
        // record 1) must lead with a gap — both stay 3 columns wide.
        let records = vec![
            record("rev1", vec![entry("LULESH-1", 1, 10.0, 0.0)]),
            record("rev2", vec![entry("MiniFE-1", 1, 3.0, 0.0)]),
            record("rev3", vec![entry("LULESH-1", 1, 20.0, 0.0), entry("MiniFE-1", 1, 4.0, 0.0)]),
        ];
        let text = trend_text(&records, None);
        assert!(text.contains("▁·█"), "gap in the middle of LULESH-1: {text}");
        assert!(text.contains("·▁█"), "leading gap for MiniFE-1: {text}");
        assert_eq!(sparkline_gaps(&[None, Some(1.0), None]), "·▄·");
        assert_eq!(sparkline_gaps(&[]), "");
    }

    #[test]
    fn history_gate_fails_on_synthetic_regression() {
        let records = vec![
            record("rev1", vec![entry("LULESH-1", 1, 10.0, 1_000_000.0)]),
            record("rev2", vec![entry("LULESH-1", 1, 10.2, 1_000_000.0)]),
            record("rev3", vec![entry("LULESH-1", 1, 9.8, 1_000_000.0)]),
        ];
        // Injected regression: 4x the EWMA baseline.
        let slow = [entry("LULESH-1", 1, 40.0, 250_000.0)];
        let report = history_gate(&records, &slow, 3.0);
        assert!(report.failed(), "4x the EWMA must trip the gate");
        // The same run at historical speed passes.
        let fine = [entry("LULESH-1", 1, 10.1, 1_000_000.0)];
        assert!(!history_gate(&records, &fine, 3.0).failed());
        // Keys with no history never fail.
        let new = [entry("Brand-New", 2, 100.0, 0.0)];
        let report = history_gate(&records, &new, 3.0);
        assert!(!report.failed());
        assert_eq!(report.unmatched.len(), 1);
    }

    #[test]
    fn oversubscribed_history_is_excluded_from_the_baseline() {
        let mut over = entry("LULESH-1", 8, 2.0, 0.0);
        over.host_parallelism = 1;
        let records = vec![record("rev1", vec![entry("LULESH-1", 1, 10.0, 0.0), over])];
        let baseline = ewma_baseline(&records);
        assert_eq!(baseline.len(), 1);
        assert_eq!(baseline[0].jobs, 1);
    }
}
