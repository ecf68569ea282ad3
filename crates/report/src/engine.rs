//! The `nrlt-report engine` view: KPI rollup over an `--engine-prof`
//! bundle, plus a diff between two bundles.
//!
//! `engineprof.json` carries the engine profiler's deterministic
//! accounting (per-kind counts and virtual nanoseconds, gauge
//! aggregates, high-water marks, allocation counts; see
//! `nrlt_exec::engineprof::export`). Wall time comes from the sampling
//! profiler: when a `samples.folded` sits next to it (a bin run with
//! `--engine-prof D --sample-prof D`), each kind's `engine.<kind>`
//! frame is counted in the sampled stacks, exclusively (the kind is the
//! leaf) and inclusively (anywhere in the stack). This module renders:
//!
//! * a bundle-level KPI table: total events and per-event-kind cost
//!   ranked by exclusive samples (virtual cost as the tiebreak, so the
//!   ranking still works on `engineprof.json` alone),
//! * the top queue-pressure `(series, phase)` cells by mean depth,
//! * hot-loop allocation sites and high-water marks,
//! * a per-run event table,
//! * `diff`: per-kind count/virtual deltas between two bundles.

use nrlt_core::engineprof::EventKind;
use nrlt_telemetry::json::{parse, Value};
use nrlt_telemetry::sample::frames;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::flame::parse_folded;

/// One event-kind row of a run (or of the bundle rollup).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KindRow {
    /// Event kind name (e.g. `kernel_advance`).
    pub event: String,
    /// Times the engine dispatched this kind.
    pub count: u64,
    /// Virtual nanoseconds the kind accounted for.
    pub virtual_ns: u64,
    /// Sampled wall time inside the kind (zero without samples).
    pub samples: KindSamples,
}

/// Sampler hits on one kind's `engine.<kind>` frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindSamples {
    /// Stacks containing the frame, nested kinds included.
    pub inclusive: u64,
    /// Stacks whose leaf is the frame.
    pub exclusive: u64,
}

/// One `(series, phase)` gauge aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeRow {
    /// Gauge series (e.g. `matcher.queued_sends`).
    pub series: String,
    /// Program phase the samples were taken under.
    pub phase: String,
    /// Number of samples.
    pub count: u64,
    /// Sum of samples (mean = sum / count).
    pub sum: i64,
    /// Largest sample.
    pub max: i64,
}

impl GaugeRow {
    /// Mean sample value.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// One run of an engine-profile bundle.
#[derive(Debug, Clone, Default)]
pub struct EngineRun {
    /// Run name (`{instance}:{mode}:rep{rep}`).
    pub name: String,
    /// Engine events the run dispatched.
    pub events: u64,
    /// Per-kind accounting, in bundle order.
    pub kinds: Vec<KindRow>,
    /// Gauge aggregates, in bundle order.
    pub gauges: Vec<GaugeRow>,
    /// High-water marks (name, value).
    pub hwm: Vec<(String, u64)>,
    /// Hot-loop allocation counts (site, count).
    pub allocs: Vec<(String, u64)>,
}

/// A parsed `--engine-prof` bundle.
#[derive(Debug, Clone, Default)]
pub struct EngineBundle {
    /// Runs in bundle (name-sorted) order.
    pub runs: Vec<EngineRun>,
    /// Per-kind samples keyed by event name, from the `samples.folded`
    /// next to `engineprof.json`; `None` without one. The sampler
    /// aggregates over the whole process, so these are not per run.
    pub samples: Option<BTreeMap<String, KindSamples>>,
}

/// Load `engineprof.json` (required) and `samples.folded` (optional)
/// from `dir`.
pub fn load_engine_bundle(dir: &Path) -> Result<EngineBundle, String> {
    let det_path = dir.join("engineprof.json");
    let text = std::fs::read_to_string(&det_path)
        .map_err(|e| format!("cannot read {}: {e}", det_path.display()))?;
    let det = parse(&text).map_err(|e| format!("{}: {e}", det_path.display()))?;
    let mut runs = Vec::new();
    for run in arr(&det, "runs")? {
        runs.push(parse_run(run)?);
    }
    let samples = std::fs::read_to_string(dir.join("samples.folded"))
        .ok()
        .map(|doc| kind_samples(&parse_folded(&doc)));
    Ok(EngineBundle { runs, samples })
}

/// Count each kind's `engine.<kind>` frame over sampled stacks.
fn kind_samples(stacks: &[(Vec<String>, u64)]) -> BTreeMap<String, KindSamples> {
    let mut out = BTreeMap::new();
    for kind in EventKind::ALL {
        let frame = frames::name(kind.frame());
        let mut s = KindSamples::default();
        for (stack, n) in stacks {
            if stack.iter().any(|f| f == frame) {
                s.inclusive += n;
            }
            if stack.last().is_some_and(|f| f == frame) {
                s.exclusive += n;
            }
        }
        out.insert(kind.name().to_owned(), s);
    }
    out
}

fn parse_run(run: &Value) -> Result<EngineRun, String> {
    let mut out = EngineRun {
        name: str_field(run, "run").ok_or("run entry without a name")?,
        events: u64_field(run, "events"),
        ..EngineRun::default()
    };
    for kind in arr(run, "kinds")? {
        out.kinds.push(KindRow {
            event: str_field(kind, "event").ok_or("kind without an event name")?,
            count: u64_field(kind, "count"),
            virtual_ns: u64_field(kind, "virtual_ns"),
            samples: KindSamples::default(),
        });
    }
    for gauge in arr(run, "gauges").unwrap_or(&[]) {
        out.gauges.push(GaugeRow {
            series: str_field(gauge, "series").unwrap_or_default(),
            phase: str_field(gauge, "phase").unwrap_or_default(),
            count: u64_field(gauge, "count"),
            sum: i64_field(gauge, "sum"),
            max: i64_field(gauge, "max"),
        });
    }
    for h in arr(run, "hwm").unwrap_or(&[]) {
        out.hwm.push((str_field(h, "name").unwrap_or_default(), u64_field(h, "value")));
    }
    for a in arr(run, "allocs").unwrap_or(&[]) {
        out.allocs.push((str_field(a, "site").unwrap_or_default(), u64_field(a, "count")));
    }
    Ok(out)
}

fn arr<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    v.get(key).and_then(Value::as_arr).ok_or_else(|| format!("missing array {key:?}"))
}

fn str_field(v: &Value, key: &str) -> Option<String> {
    v.get(key).and_then(Value::as_str).map(str::to_owned)
}

fn u64_field(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(Value::as_f64).map(|f| f.max(0.0) as u64).unwrap_or(0)
}

fn i64_field(v: &Value, key: &str) -> i64 {
    v.get(key).and_then(Value::as_f64).map(|f| f as i64).unwrap_or(0)
}

/// Sum per-kind rows across runs (kinds matched by event name, order of
/// first appearance preserved — the export writes a fixed kind order,
/// so this is the canonical order).
fn rollup_kinds(runs: &[&EngineRun]) -> Vec<KindRow> {
    let mut out: Vec<KindRow> = Vec::new();
    for run in runs {
        for k in &run.kinds {
            match out.iter_mut().find(|o| o.event == k.event) {
                Some(o) => {
                    o.count += k.count;
                    o.virtual_ns += k.virtual_ns;
                }
                None => out.push(k.clone()),
            }
        }
    }
    out
}

/// Rank kinds most-expensive first: by exclusive samples, virtual cost
/// as the deterministic tiebreak, then count. Kinds that never fired
/// sort last.
fn rank_kinds(kinds: &mut [KindRow]) {
    kinds.sort_by(|a, b| {
        (b.samples.exclusive, b.virtual_ns, b.count, &a.event).cmp(&(
            a.samples.exclusive,
            a.virtual_ns,
            a.count,
            &b.event,
        ))
    });
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.2}", ns as f64 / 1e6)
}

/// Render the KPI report for `bundle`.
///
/// * `run_filter` restricts to one named run (`None` = roll up all
///   runs, joined with the bundle's samples, plus a per-run event
///   table). Samples are not split by run, so a filtered view ranks by
///   virtual cost.
/// * `top` bounds the queue-pressure and allocation tables.
///
/// Errors when the filter matches nothing or the bundle is empty.
pub fn engine_text(
    bundle: &EngineBundle,
    run_filter: Option<&str>,
    top: usize,
) -> Result<String, String> {
    let runs: Vec<&EngineRun> =
        bundle.runs.iter().filter(|r| run_filter.is_none_or(|f| f == r.name)).collect();
    if runs.is_empty() {
        return Err(match run_filter {
            Some(f) => format!("no run named {f:?} in the bundle"),
            None => "the bundle contains no runs".to_owned(),
        });
    }
    let mut out = String::new();
    let scope = match run_filter {
        Some(f) => format!("run {f}"),
        None => format!("{} runs", runs.len()),
    };
    let _ = writeln!(out, "=== engine profile ({scope}) ===");

    let events: u64 = runs.iter().map(|r| r.events).sum();
    let samples = bundle.samples.as_ref().filter(|_| run_filter.is_none());
    let _ = writeln!(out, "events: {events}");

    let mut kinds = rollup_kinds(&runs);
    if let Some(samples) = samples {
        for k in &mut kinds {
            k.samples = samples.get(&k.event).copied().unwrap_or_default();
        }
    }
    rank_kinds(&mut kinds);
    let excl_total: u64 = kinds.iter().map(|k| k.samples.exclusive).sum();
    let ranking = if excl_total > 0 {
        "exclusive samples"
    } else if samples.is_none() && bundle.samples.is_some() {
        "virtual cost; samples are not split by run"
    } else {
        "virtual cost; no engine kind samples"
    };
    let _ = writeln!(out, "\nper-event-kind cost (ranked by {ranking}):");
    let _ = writeln!(
        out,
        "  {:<16} {:>12} {:>12} {:>10} {:>10} {:>6}",
        "kind", "count", "virtual(ms)", "incl(smp)", "excl(smp)", "excl%"
    );
    for k in &kinds {
        let (incl, excl, pct) = if excl_total > 0 {
            (
                k.samples.inclusive.to_string(),
                k.samples.exclusive.to_string(),
                format!("{:.1}", 100.0 * k.samples.exclusive as f64 / excl_total as f64),
            )
        } else {
            ("-".to_owned(), "-".to_owned(), "-".to_owned())
        };
        let _ = writeln!(
            out,
            "  {:<16} {:>12} {:>12} {:>10} {:>10} {:>6}",
            k.event,
            k.count,
            fmt_ms(k.virtual_ns),
            incl,
            excl,
            pct
        );
    }

    // Queue pressure: merge (series, phase) cells across runs, rank by
    // mean depth (max depth as the tiebreak).
    let mut cells: Vec<GaugeRow> = Vec::new();
    for run in &runs {
        for g in &run.gauges {
            match cells.iter_mut().find(|c| c.series == g.series && c.phase == g.phase) {
                Some(c) => {
                    c.count += g.count;
                    c.sum += g.sum;
                    c.max = c.max.max(g.max);
                }
                None => cells.push(g.clone()),
            }
        }
    }
    cells.sort_by(|a, b| {
        (b.mean(), b.max, &a.series, &a.phase)
            .partial_cmp(&(a.mean(), a.max, &b.series, &b.phase))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    if !cells.is_empty() {
        let _ = writeln!(out, "\ntop queue pressure (by mean depth):");
        let _ = writeln!(
            out,
            "  {:<28} {:<14} {:>10} {:>8} {:>8}",
            "series", "phase", "samples", "mean", "max"
        );
        for c in cells.iter().take(top) {
            let _ = writeln!(
                out,
                "  {:<28} {:<14} {:>10} {:>8.2} {:>8}",
                c.series,
                c.phase,
                c.count,
                c.mean(),
                c.max
            );
        }
    }

    // Hot-loop allocations and high-water marks, summed across runs.
    let mut allocs: Vec<(String, u64)> = Vec::new();
    let mut hwm: Vec<(String, u64)> = Vec::new();
    for run in &runs {
        for (site, n) in &run.allocs {
            match allocs.iter_mut().find(|(s, _)| s == site) {
                Some((_, total)) => *total += n,
                None => allocs.push((site.clone(), *n)),
            }
        }
        for (name, v) in &run.hwm {
            match hwm.iter_mut().find(|(s, _)| s == name) {
                Some((_, m)) => *m = (*m).max(*v),
                None => hwm.push((name.clone(), *v)),
            }
        }
    }
    allocs.sort_by(|a, b| (b.1, &a.0).cmp(&(a.1, &b.0)));
    if !allocs.is_empty() {
        let _ = writeln!(out, "\nhot-loop allocations:");
        for (site, n) in allocs.iter().take(top) {
            let _ = writeln!(out, "  {site:<28} {n:>10}");
        }
    }
    if !hwm.is_empty() {
        let _ = writeln!(out, "\nhigh-water marks:");
        for (name, v) in &hwm {
            let _ = writeln!(out, "  {name:<28} {v:>10}");
        }
    }

    // Per-run event table only in the rollup view.
    if run_filter.is_none() && runs.len() > 1 {
        let _ = writeln!(out, "\nper-run events:");
        for r in &runs {
            let _ = writeln!(out, "  {:<40} {:>12}", r.name, r.events);
        }
    }
    Ok(out)
}

/// Render the deterministic diff between two bundles: per-kind count
/// and virtual-cost deltas of the rollups, plus events and run-set
/// changes. Samples are deliberately excluded — they differ between
/// any two real runs.
pub fn engine_diff(a: &EngineBundle, b: &EngineBundle) -> String {
    let ra: Vec<&EngineRun> = a.runs.iter().collect();
    let rb: Vec<&EngineRun> = b.runs.iter().collect();
    let ka = rollup_kinds(&ra);
    let kb = rollup_kinds(&rb);
    let ea: u64 = ra.iter().map(|r| r.events).sum();
    let eb: u64 = rb.iter().map(|r| r.events).sum();
    let mut out = String::new();
    let _ = writeln!(out, "=== engine profile diff (A → B) ===");
    let _ = writeln!(out, "events: {ea} → {eb} ({:+})", eb as i64 - ea as i64);
    let _ = writeln!(
        out,
        "  {:<16} {:>12} {:>12} {:>12} {:>14}",
        "kind", "count A", "count B", "Δcount", "Δvirtual(ms)"
    );
    let mut events: Vec<&str> = ka.iter().map(|k| k.event.as_str()).collect();
    for k in &kb {
        if !events.contains(&k.event.as_str()) {
            events.push(&k.event);
        }
    }
    for event in events {
        let za = KindRow::default();
        let a = ka.iter().find(|k| k.event == event).unwrap_or(&za);
        let b = kb.iter().find(|k| k.event == event).unwrap_or(&za);
        let _ = writeln!(
            out,
            "  {:<16} {:>12} {:>12} {:>12} {:>14}",
            event,
            a.count,
            b.count,
            format!("{:+}", b.count as i64 - a.count as i64),
            format!("{:+.2}", (b.virtual_ns as f64 - a.virtual_ns as f64) / 1e6),
        );
    }
    let names_a: Vec<&str> = a.runs.iter().map(|r| r.name.as_str()).collect();
    let names_b: Vec<&str> = b.runs.iter().map(|r| r.name.as_str()).collect();
    let only_a: Vec<&str> = names_a.iter().copied().filter(|n| !names_b.contains(n)).collect();
    let only_b: Vec<&str> = names_b.iter().copied().filter(|n| !names_a.contains(n)).collect();
    let shared = names_a.len() - only_a.len();
    let _ = writeln!(
        out,
        "run coverage: {shared} shared, {} only in A, {} only in B",
        only_a.len(),
        only_b.len()
    );
    if !only_a.is_empty() {
        let _ = writeln!(out, "runs only in A (missing in B):");
        for name in &only_a {
            let _ = writeln!(out, "  {name}");
        }
    }
    if !only_b.is_empty() {
        let _ = writeln!(out, "runs only in B (missing in A):");
        for name in &only_b {
            let _ = writeln!(out, "  {name}");
        }
    }
    if shared == 0 && (!only_a.is_empty() || !only_b.is_empty()) {
        let _ = writeln!(
            out,
            "note: no run name appears in both bundles — the per-kind deltas above \
             compare disjoint run sets, not the same workload"
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(name: &str, events: u64, kernel: (u64, u64)) -> EngineRun {
        EngineRun {
            name: name.into(),
            events,
            kinds: vec![
                KindRow {
                    event: "kernel_advance".into(),
                    count: kernel.0,
                    virtual_ns: kernel.1,
                    ..KindRow::default()
                },
                KindRow { event: "noise_draw".into(), count: 2, ..KindRow::default() },
            ],
            gauges: vec![GaugeRow {
                series: "matcher.queued_sends".into(),
                phase: "solve".into(),
                count: 4,
                sum: 8,
                max: 5,
            }],
            hwm: vec![("matcher.channel_depth".into(), 3)],
            allocs: vec![("rank.pending".into(), 7)],
        }
    }

    fn bundle(runs: Vec<EngineRun>) -> EngineBundle {
        EngineBundle { runs, samples: None }
    }

    /// Samples where noise draws dominate although kernels carry all
    /// the virtual time.
    fn noisy_samples() -> BTreeMap<String, KindSamples> {
        kind_samples(&parse_folded(
            "engine.run;engine.rank;engine.kernel_advance 10\n\
             engine.run;engine.rank;engine.kernel_advance;engine.noise_draw 30\n\
             engine.run;engine.rank 7\n",
        ))
    }

    #[test]
    fn text_ranks_kinds_by_exclusive_cost_and_reports_throughput() {
        let mut b =
            bundle(vec![run("x:tsc:rep0", 100, (5, 1000)), run("x:ref:rep0", 50, (3, 500))]);
        b.samples = Some(noisy_samples());
        let text = engine_text(&b, None, 5).unwrap();
        assert!(text.contains("events: 150"), "{text}");
        assert!(text.contains("ranked by exclusive samples"), "{text}");
        // noise_draw holds most exclusive samples and must rank first.
        let kernel = text.find("kernel_advance").unwrap();
        let noise = text.find("noise_draw").unwrap();
        assert!(noise < kernel, "{text}");
        assert!(text.contains("75.0"), "noise_draw's exclusive share: {text}");
        assert!(text.contains("matcher.queued_sends"), "{text}");
        assert!(text.contains("rank.pending"), "{text}");
        assert!(text.contains("per-run events"), "{text}");
    }

    #[test]
    fn run_filter_selects_and_unknown_run_errors() {
        let mut b = bundle(vec![run("x:tsc:rep0", 100, (5, 1000))]);
        b.samples = Some(noisy_samples());
        let text = engine_text(&b, Some("x:tsc:rep0"), 5).unwrap();
        assert!(text.contains("run x:tsc:rep0"), "{text}");
        assert!(text.contains("samples are not split by run"), "{text}");
        assert!(engine_text(&b, Some("nope"), 5).is_err());
    }

    #[test]
    fn ranking_falls_back_to_virtual_cost_without_wall_data() {
        let mut kinds = vec![
            KindRow { event: "a".into(), count: 1, virtual_ns: 10, ..KindRow::default() },
            KindRow { event: "b".into(), count: 9, virtual_ns: 500, ..KindRow::default() },
        ];
        rank_kinds(&mut kinds);
        assert_eq!(kinds[0].event, "b");
        let text = engine_text(&bundle(vec![run("x:tsc:rep0", 1, (1, 1))]), None, 5).unwrap();
        assert!(text.contains("ranked by virtual cost; no engine kind samples"), "{text}");
    }

    #[test]
    fn diff_reports_count_deltas() {
        let a = bundle(vec![run("x:tsc:rep0", 100, (5, 1000))]);
        let b = bundle(vec![run("x:tsc:rep0", 120, (8, 1500)), run("y:tsc:rep0", 1, (1, 1))]);
        let text = engine_diff(&a, &b);
        assert!(text.contains("events: 100 → 121"), "{text}");
        assert!(text.contains("+4"), "{text}"); // kernel count 5 → 9 across rollup
        assert!(text.contains("run coverage: 1 shared, 0 only in A, 1 only in B"), "{text}");
        assert!(text.contains("runs only in B (missing in A):\n  y:tsc:rep0"), "{text}");
    }

    #[test]
    fn diff_of_non_overlapping_bundles_lists_missing_runs_per_side() {
        let a = bundle(vec![run("left:tsc:rep0", 10, (1, 1))]);
        let b = bundle(vec![run("right:tsc:rep0", 20, (2, 2))]);
        let text = engine_diff(&a, &b);
        assert!(text.contains("run coverage: 0 shared, 1 only in A, 1 only in B"), "{text}");
        assert!(text.contains("runs only in A (missing in B):\n  left:tsc:rep0"), "{text}");
        assert!(text.contains("runs only in B (missing in A):\n  right:tsc:rep0"), "{text}");
        assert!(text.contains("no run name appears in both bundles"), "{text}");
        // Identical run sets: coverage line only, no missing sections.
        let text = engine_diff(&a, &a);
        assert!(text.contains("run coverage: 1 shared, 0 only in A, 0 only in B"), "{text}");
        assert!(!text.contains("missing in"), "{text}");
    }

    #[test]
    fn bundle_roundtrips_through_the_exporter() {
        use nrlt_core::engineprof::{EngineProf, ProfBundle, RunProf};
        let sink = EngineProf::new();
        let r = RunProf::new("it:tsc:rep0");
        r.enter(EventKind::KernelAdvance);
        r.leave(EventKind::KernelAdvance, 1234);
        r.enter(EventKind::NoiseDraw);
        r.leave(EventKind::NoiseDraw, 0);
        r.gauge("matcher.queued_sends", "main", 3);
        r.hwm("matcher.channel_depth", 2);
        r.alloc("rank.pending", 1);
        r.set_events(9);
        let (n, d) = r.finish();
        sink.attach(n, d);
        let dir = std::env::temp_dir().join(format!("nrlt-engine-view-{}", std::process::id()));
        ProfBundle::from_prof(&sink).write(&dir).unwrap();
        let plain = load_engine_bundle(&dir).unwrap();
        std::fs::write(
            dir.join("samples.folded"),
            "engine.run;engine.rank;engine.kernel_advance 2\n\
             engine.run;engine.rank;engine.kernel_advance;engine.noise_draw 6\n",
        )
        .unwrap();
        let joined = load_engine_bundle(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();

        assert!(plain.samples.is_none());
        assert_eq!(plain.runs.len(), 1);
        let run = &plain.runs[0];
        assert_eq!(run.name, "it:tsc:rep0");
        assert_eq!(run.events, 9);
        let kernel = run.kinds.iter().find(|k| k.event == "kernel_advance").unwrap();
        assert_eq!((kernel.count, kernel.virtual_ns), (1, 1234));
        let text = engine_text(&plain, None, 5).unwrap();
        assert!(text.find("kernel_advance") < text.find("noise_draw"), "{text}");

        // The folded join ranks kinds by exclusive samples, overriding
        // the virtual-cost order.
        let samples = joined.samples.as_ref().unwrap();
        assert_eq!(samples["kernel_advance"], KindSamples { inclusive: 8, exclusive: 2 });
        assert_eq!(samples["noise_draw"], KindSamples { inclusive: 6, exclusive: 6 });
        assert_eq!(samples["barrier"], KindSamples::default());
        let text = engine_text(&joined, None, 5).unwrap();
        assert!(text.contains("ranked by exclusive samples"), "{text}");
        assert!(text.find("noise_draw") < text.find("kernel_advance"), "{text}");
    }
}
