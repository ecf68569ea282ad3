//! The CUBE-style severity explorer.
//!
//! Renders an [`ExperimentResult`] — the per-mode mean profiles the
//! analysis produced — as a metric × call-tree × location severity
//! report: the metric tree with inclusive `%_T` per mode side by side,
//! a top-N ranking of exclusive hotspot cells, per-location imbalance
//! of those hotspots, and the paper's mode diagnostics (overhead,
//! Jaccard vs `tsc`, run-to-run stability). A machine-readable JSON
//! twin carries the same data for scripted comparison.
//!
//! Every number comes from the deterministic analysis profiles, and
//! every iteration walks a `BTreeMap` or a fixed tree order, so the
//! rendered report of a noise-free run is byte-identical across worker
//! counts and repeats.

use nrlt_core::{ExperimentResult, ModeResult};
use nrlt_profile::{Metric, Profile};
use nrlt_telemetry::json;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One ranked hotspot cell: an exclusive (metric, call path) severity
/// with its per-mode `%_T` values and per-location spread under the
/// ranking mode.
#[derive(Debug, Clone)]
pub struct Hotspot {
    /// The metric of the cell.
    pub metric: Metric,
    /// Rendered call path (`main/solve/MPI_Allreduce`).
    pub path: String,
    /// `%_T` of the cell per measured mode (aligned with the result's
    /// mode order); 0.0 where a mode has no such cell.
    pub pct_by_mode: Vec<f64>,
    /// Smallest per-location severity under the ranking mode.
    pub loc_min: f64,
    /// Mean per-location severity under the ranking mode.
    pub loc_mean: f64,
    /// Largest per-location severity under the ranking mode.
    pub loc_max: f64,
}

impl Hotspot {
    /// Imbalance factor max/mean (1.0 = perfectly balanced; 0.0 when the
    /// mean is zero).
    pub(crate) fn imbalance(&self) -> f64 {
        if self.loc_mean == 0.0 {
            0.0
        } else {
            self.loc_max / self.loc_mean
        }
    }
}

/// `%_T` cells of one mode keyed by (metric, rendered call path) — the
/// rendered path is the join key across modes, whose call trees are
/// interned independently.
fn mode_cells(profile: &Profile) -> BTreeMap<(Metric, String), f64> {
    profile.map_mc().into_iter().map(|((m, c), v)| ((m, profile.path_string(c)), v)).collect()
}

/// The top-`n` exclusive (metric, call path) cells ranked by `%_T` under
/// the first measured mode, with all modes' values attached.
pub(crate) fn hotspots(result: &ExperimentResult, n: usize) -> Vec<Hotspot> {
    let Some(ranking) = result.modes.first() else {
        return Vec::new();
    };
    let per_mode: Vec<BTreeMap<(Metric, String), f64>> =
        result.modes.iter().map(|m| mode_cells(&m.mean)).collect();

    let mut ranked: Vec<(f64, Metric, String)> =
        per_mode[0].iter().map(|((m, p), &v)| (v, *m, p.clone())).collect();
    // Descending by severity; name/path tie-break keeps equal cells in
    // one deterministic order.
    ranked.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| (a.1, &a.2).cmp(&(b.1, &b.2))));
    ranked.truncate(n);

    ranked
        .into_iter()
        .map(|(_, metric, path)| {
            let pct_by_mode = per_mode
                .iter()
                .map(|cells| cells.get(&(metric, path.clone())).copied().unwrap_or(0.0))
                .collect();
            let (loc_min, loc_mean, loc_max) = location_spread(&ranking.mean, metric, &path);
            Hotspot { metric, path, pct_by_mode, loc_min, loc_mean, loc_max }
        })
        .collect()
}

/// Per-location `%_T` spread of one exclusive cell.
fn location_spread(profile: &Profile, metric: Metric, path: &str) -> (f64, f64, f64) {
    let total = profile.total_time();
    let Some(id) = profile.find_path(path) else {
        return (0.0, 0.0, 0.0);
    };
    if total == 0.0 || profile.n_locations() == 0 {
        return (0.0, 0.0, 0.0);
    }
    let values: Vec<f64> =
        (0..profile.n_locations()).map(|l| 100.0 * profile.get(metric, id, l) / total).collect();
    let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = values.iter().cloned().fold(0.0, f64::max);
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    (min, mean, max)
}

/// The metric tree in display order as `(metric, depth)` rows.
fn metric_rows() -> Vec<(Metric, usize)> {
    let mut rows = Vec::new();
    fn rec(m: Metric, depth: usize, out: &mut Vec<(Metric, usize)>) {
        out.push((m, depth));
        for &c in m.children() {
            rec(c, depth + 1, out);
        }
    }
    rec(Metric::Time, 0, &mut rows);
    rows
}

/// True when `tsc` was measured (the Jaccard-vs-tsc column exists).
fn has_tsc(result: &ExperimentResult) -> bool {
    result.modes.iter().any(|m| m.mode == nrlt_measure::ClockMode::Tsc)
}

/// Render the full severity report of one experiment as text.
pub fn severity_text(result: &ExperimentResult, top_n: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "=== severity: {} ===", result.name);
    if result.modes.is_empty() {
        let _ = writeln!(out, "no modes measured");
        return out;
    }
    let _ = writeln!(
        out,
        "reference time {:.6} s (virtual), ranked on {}",
        result.reference_time().as_secs_f64(),
        result.modes[0].mode.name()
    );
    let _ = writeln!(out);

    // Metric tree × mode, inclusive %_T.
    let _ = writeln!(out, "metric tree, inclusive %_T per mode");
    let _ = write!(out, "  {:<26}", "metric");
    for m in &result.modes {
        let _ = write!(out, " {:>8}", m.mode.name());
    }
    let _ = writeln!(out);
    for (metric, depth) in metric_rows() {
        let _ = write!(
            out,
            "  {:indent$}{:<width$}",
            "",
            metric.name(),
            indent = depth * 2,
            width = 26usize.saturating_sub(depth * 2)
        );
        for m in &result.modes {
            let _ = write!(out, " {:>8.2}", m.mean.pct_t(metric));
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(out);

    // Mode diagnostics: overhead, similarity, stability.
    let _ = writeln!(out, "mode diagnostics");
    let _ = write!(out, "  {:<26}", "overhead_pct");
    for m in &result.modes {
        let _ = write!(out, " {:>8.2}", result.overhead_total(m.mode));
    }
    let _ = writeln!(out);
    if has_tsc(result) {
        let _ = write!(out, "  {:<26}", "j_mc_vs_tsc");
        for m in &result.modes {
            let _ = write!(out, " {:>8.2}", result.jaccard_vs_tsc(m.mode));
        }
        let _ = writeln!(out);
    }
    let _ = write!(out, "  {:<26}", "min_run_to_run_j");
    for m in &result.modes {
        let _ = write!(out, " {:>8.2}", m.min_run_to_run_jaccard());
    }
    let _ = writeln!(out);
    let _ = writeln!(out);

    // Top-N hotspot cells, per-mode side by side.
    let hs = hotspots(result, top_n);
    let _ = writeln!(
        out,
        "top {} hotspot cells, exclusive %_T (ranked on {})",
        hs.len(),
        result.modes[0].mode.name()
    );
    let _ = write!(out, "   # {:<26}", "metric");
    for m in &result.modes {
        let _ = write!(out, " {:>8}", m.mode.name());
    }
    let _ = writeln!(out, "  call path");
    for (i, h) in hs.iter().enumerate() {
        let _ = write!(out, "  {:>2} {:<26}", i + 1, h.metric.name());
        for v in &h.pct_by_mode {
            let _ = write!(out, " {v:>8.2}");
        }
        let _ = writeln!(out, "  {}", h.path);
    }
    let _ = writeln!(out);

    // Location dimension: imbalance of the hotspot cells.
    let _ = writeln!(
        out,
        "location spread of the hotspots ({}), %_T min/mean/max, imb = max/mean",
        result.modes[0].mode.name()
    );
    for (i, h) in hs.iter().enumerate() {
        let _ = writeln!(
            out,
            "  {:>2} {:<26} {:>6.2} /{:>6.2} /{:>6.2}  imb {:>5.2}  {}",
            i + 1,
            h.metric.name(),
            h.loc_min,
            h.loc_mean,
            h.loc_max,
            h.imbalance(),
            h.path
        );
    }
    out
}

/// Render the severity report of one experiment as a JSON document with
/// the same content as [`severity_text`]. Arrays are aligned with the
/// `modes` array.
pub fn severity_json(result: &ExperimentResult, top_n: usize) -> String {
    let modes: Vec<String> = result.modes.iter().map(|m| json::string(m.mode.name())).collect();
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"name\": {},", json::string(&result.name));
    let _ = writeln!(out, "  \"modes\": [{}],", modes.join(", "));
    let _ = writeln!(
        out,
        "  \"reference_seconds\": {},",
        json::number(result.reference_time().as_secs_f64())
    );

    let nums = |values: Vec<f64>| -> String {
        values.into_iter().map(json::number).collect::<Vec<_>>().join(", ")
    };

    let metric_lines: Vec<String> = metric_rows()
        .into_iter()
        .map(|(metric, depth)| {
            format!(
                "    {{\"metric\": {}, \"depth\": {}, \"pct_t\": [{}]}}",
                json::string(metric.name()),
                depth,
                nums(result.modes.iter().map(|m| m.mean.pct_t(metric)).collect())
            )
        })
        .collect();
    let _ = writeln!(out, "  \"metrics\": [\n{}\n  ],", metric_lines.join(",\n"));

    let _ = writeln!(out, "  \"diagnostics\": {{");
    let _ = writeln!(
        out,
        "    \"overhead_pct\": [{}],",
        nums(result.modes.iter().map(|m| result.overhead_total(m.mode)).collect())
    );
    if has_tsc(result) {
        let _ = writeln!(
            out,
            "    \"jaccard_vs_tsc\": [{}],",
            nums(result.modes.iter().map(|m| result.jaccard_vs_tsc(m.mode)).collect())
        );
    } else {
        let _ = writeln!(out, "    \"jaccard_vs_tsc\": null,");
    }
    let _ = writeln!(
        out,
        "    \"min_run_to_run_jaccard\": [{}]",
        nums(result.modes.iter().map(ModeResult::min_run_to_run_jaccard).collect())
    );
    let _ = writeln!(out, "  }},");

    let hotspot_lines: Vec<String> = hotspots(result, top_n)
        .iter()
        .map(|h| {
            format!(
                "    {{\"metric\": {}, \"path\": {}, \"pct_t\": [{}], \"locations\": {{\"min\": {}, \"mean\": {}, \"max\": {}, \"imbalance\": {}}}}}",
                json::string(h.metric.name()),
                json::string(&h.path),
                nums(h.pct_by_mode.clone()),
                json::number(h.loc_min),
                json::number(h.loc_mean),
                json::number(h.loc_max),
                json::number(h.imbalance())
            )
        })
        .collect();
    if hotspot_lines.is_empty() {
        let _ = writeln!(out, "  \"hotspots\": []");
    } else {
        let _ = writeln!(out, "  \"hotspots\": [\n{}\n  ]", hotspot_lines.join(",\n"));
    }
    let _ = writeln!(out, "}}");
    out
}

/// Single-mode severity section for binaries that drive
/// [`run_mode`](nrlt_core::run_mode) directly (no experiment-level
/// reference runs or cross-mode columns available).
pub fn mode_text(result: &ModeResult, top_n: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "=== severity (single mode): {} ===", result.mode.name());
    let _ = writeln!(
        out,
        "mean run time {:.6} s (virtual), min run-to-run J_(M,C) {:.2}",
        result.mean_run_time().as_secs_f64(),
        result.min_run_to_run_jaccard()
    );
    out.push_str(&nrlt_profile::metric_table(&result.mean, 0.01));
    let cells = mode_cells(&result.mean);
    let mut ranked: Vec<(f64, Metric, String)> =
        cells.iter().map(|((m, p), &v)| (v, *m, p.clone())).collect();
    ranked.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| (a.1, &a.2).cmp(&(b.1, &b.2))));
    ranked.truncate(top_n);
    let _ = writeln!(out, "top {} hotspot cells, exclusive %_T", ranked.len());
    for (i, (v, m, p)) in ranked.iter().enumerate() {
        let _ = writeln!(out, "  {:>2} {:<26} {:>8.2}  {}", i + 1, m.name(), v, p);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrlt_profile::CallTree;
    use nrlt_telemetry::json::parse;

    // Unit coverage of the pieces that don't need a full experiment; the
    // end-to-end determinism contract lives in tests/report_test.rs.

    #[test]
    fn metric_rows_cover_the_time_tree_in_order() {
        let rows = metric_rows();
        assert_eq!(rows.len(), 14);
        assert_eq!(rows[0], (Metric::Time, 0));
        // Children always directly follow an ancestor one level up.
        for w in rows.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1);
        }
    }

    fn tiny_profile(clock: &str, heavy: f64) -> Profile {
        use nrlt_trace::{LocationDef, RegionDef, RegionRef, RegionRole};
        let regions = vec![
            RegionDef { name: "main".into(), role: RegionRole::Function },
            RegionDef { name: "solve".into(), role: RegionRole::Function },
        ];
        let mut ct = CallTree::new();
        let root = ct.intern(None, RegionRef(0));
        let solve = ct.intern(Some(root), RegionRef(1));
        let locations = vec![
            LocationDef { rank: 0, thread: 0, core: 0 },
            LocationDef { rank: 1, thread: 0, core: 1 },
        ];
        let mut p = Profile::new(clock.into(), regions, ct, locations);
        p.add(Metric::Comp, solve, 0, heavy);
        p.add(Metric::Comp, solve, 1, 10.0);
        p.add(Metric::WaitNxN, root, 1, 5.0);
        p
    }

    #[test]
    fn mode_cells_key_on_rendered_paths() {
        let p = tiny_profile("tsc", 85.0);
        let cells = mode_cells(&p);
        assert!(cells.contains_key(&(Metric::Comp, "main/solve".into())));
        assert!(cells.contains_key(&(Metric::WaitNxN, "main".into())));
        let total: f64 = cells.values().sum();
        assert!((total - 100.0).abs() < 1e-9);
    }

    #[test]
    fn location_spread_reports_min_mean_max() {
        let p = tiny_profile("tsc", 85.0);
        let (min, mean, max) = location_spread(&p, Metric::Comp, "main/solve");
        assert!((min - 10.0).abs() < 1e-9);
        assert!((max - 85.0).abs() < 1e-9);
        assert!((mean - 47.5).abs() < 1e-9);
        assert_eq!(location_spread(&p, Metric::Comp, "nope"), (0.0, 0.0, 0.0));
    }

    #[test]
    fn single_mode_text_ranks_hotspots() {
        use nrlt_measure::ClockMode;
        let p = tiny_profile("lt_1", 85.0);
        let mr = ModeResult {
            mode: ClockMode::Lt1,
            profiles: vec![p.clone()],
            mean: p,
            run_times: vec![nrlt_core::sim::VirtualDuration::from_millis(5)],
            phase_times: vec![Default::default()],
            events: 0,
        };
        let s = mode_text(&mr, 5);
        assert!(s.contains("severity (single mode): lt_1"), "{s}");
        let comp = s.find("comp").unwrap();
        assert!(s.contains("main/solve"), "{s}");
        // The dominant cell is ranked first.
        let first_row = s.lines().find(|l| l.trim_start().starts_with("1 ")).unwrap();
        assert!(first_row.contains("comp") && first_row.contains("main/solve"), "{first_row}");
        let _ = comp;
    }

    #[test]
    fn json_parses_even_when_empty() {
        // A result with no modes renders a valid, if boring, document.
        let r = ExperimentResult {
            name: "empty".into(),
            reference: vec![],
            phase_names: vec![],
            modes: vec![],
            events: 0,
        };
        let doc = severity_json(&r, 5);
        let v = parse(&doc).expect("valid JSON");
        assert_eq!(v.get("name").unwrap().as_str(), Some("empty"));
        assert_eq!(v.get("hotspots").unwrap().as_arr().unwrap().len(), 0);
        assert!(severity_text(&r, 5).contains("no modes"));
    }
}
