//! Textual explorer over an `--observe` bundle: the three query
//! families of the resource observatory, rendered per run.
//!
//! 1. Top-k contended resources per phase, from the exact
//!    per-(series, phase) aggregates.
//! 2. Noise share per wait-metric cell, plus the per-channel noise
//!    totals the shares decompose into.
//! 3. Provenance of a named wait state (`metric#i`), or of the
//!    dominant one when no name is given.
//!
//! Everything renders from exact aggregates and the deterministic
//! bundle order, so output is byte-identical across repeats and worker
//! counts.

use nrlt_observe::export::ObserveBundle;
use nrlt_observe::query::{dominant_wait, named_wait, noise_shares, top_contended};
use nrlt_observe::{RunData, WaitProvenance};
use std::fmt::Write as _;

/// Render the full observatory report for `bundle`.
///
/// * `run_filter` restricts to one named run (`None` = all runs).
/// * `top_k` bounds the per-phase contention table.
/// * `wait` names a specific wait state (`metric#i`) whose provenance
///   to print instead of each run's dominant one.
///
/// Errors when the filter or the wait name matches nothing.
pub(crate) fn observe_text(
    bundle: &ObserveBundle,
    run_filter: Option<&str>,
    top_k: usize,
    wait: Option<&str>,
) -> Result<String, String> {
    let runs: Vec<(&String, &RunData)> = bundle
        .runs
        .iter()
        .filter(|(name, _)| run_filter.is_none_or(|f| f == name.as_str()))
        .collect();
    if runs.is_empty() {
        return Err(match run_filter {
            Some(f) => format!("no run named {f:?} in the bundle"),
            None => "the bundle contains no runs".to_owned(),
        });
    }
    let mut out = String::new();
    let mut wait_found = false;
    for (name, data) in &runs {
        let _ = writeln!(out, "== run {name} ==");
        render_contention(&mut out, data, top_k);
        render_noise(&mut out, data);
        match wait {
            Some(w) => {
                if let Some(p) = named_wait(data, w) {
                    wait_found = true;
                    let _ = writeln!(out, "\nwait state {w}:");
                    render_provenance(&mut out, p);
                } else {
                    let _ = writeln!(out, "\nwait state {w}: not recorded in this run");
                }
            }
            None => {
                if let Some((dom, p)) = dominant_wait(data) {
                    let _ = writeln!(out, "\ndominant wait state {dom}:");
                    render_provenance(&mut out, p);
                }
            }
        }
        let _ = writeln!(out);
    }
    if let Some(w) = wait {
        if !wait_found {
            return Err(format!("wait state {w:?} not found in any selected run"));
        }
    }
    Ok(out)
}

fn render_contention(out: &mut String, data: &RunData, k: usize) {
    // Per-location progress watermarks are nanosecond-valued and would
    // drown every occupancy/depth counter in a by-mean ranking, so they
    // get their own spread table instead of contention rows.
    let top = top_contended(data, usize::MAX);
    if top.is_empty() {
        let _ = writeln!(out, "\nno counter samples recorded");
        return;
    }
    let _ = writeln!(out, "\ntop contended resources per phase (by mean sample):");
    for (phase, rows) in &top {
        let picked: Vec<_> = rows.iter().filter(|c| !is_watermark(&c.series)).take(k).collect();
        if picked.is_empty() {
            continue;
        }
        let label = if phase.is_empty() { "(outside phases)" } else { phase };
        let _ = writeln!(out, "  phase {label}:");
        for c in picked {
            let _ = writeln!(
                out,
                "    {:<28} mean {:>12.1}  max {:>10}  samples {:>8}",
                c.series, c.mean, c.max, c.count
            );
        }
    }
    let mut spreads = Vec::new();
    for (phase, rows) in &top {
        let marks: Vec<i64> =
            rows.iter().filter(|c| is_watermark(&c.series)).map(|c| c.max).collect();
        if marks.len() > 1 {
            let (lo, hi) = (marks.iter().min().unwrap(), marks.iter().max().unwrap());
            spreads.push((phase, marks.len(), hi - lo));
        }
    }
    if !spreads.is_empty() {
        let _ = writeln!(out, "\nprogress watermark spread per phase (slowest - fastest):");
        for (phase, n, spread) in spreads {
            let label = if phase.is_empty() { "(outside phases)" } else { phase };
            let _ = writeln!(out, "    {label:<16} {spread:>14} ns across {n} locations");
        }
    }
}

fn is_watermark(series: &str) -> bool {
    series.ends_with(".progress_ns")
}

fn render_noise(out: &mut String, data: &RunData) {
    // Per-channel totals from the exact aggregates, summed over
    // (rank, phase) — BTreeMap order keeps the rows stable.
    let mut channels: std::collections::BTreeMap<&str, (u64, i64, u64)> = Default::default();
    for ((kind, _, _), a) in &data.noise_aggs {
        let e = channels.entry(kind.name()).or_default();
        e.0 += a.count;
        e.1 += a.total_ns;
        e.2 += a.delay_ns;
    }
    if !channels.is_empty() {
        let _ = writeln!(out, "\nnoise injected per channel:");
        for (name, (count, total, delay)) in channels {
            let _ = writeln!(
                out,
                "    {name:<12} draws {count:>8}  net {total:>14} ns  delay {delay:>14} ns"
            );
        }
    }
    let shares = noise_shares(data);
    if shares.is_empty() {
        return;
    }
    let _ = writeln!(out, "\nnoise share per wait-metric cell (by severity):");
    for s in shares {
        let _ = writeln!(
            out,
            "    {:<24} {:<44} n {:>5}  severity {:>12}  noise {:>12} ns  share {:>5.1}%",
            s.metric, s.path, s.count, s.severity, s.noise_ns, s.share_pct
        );
    }
}

fn render_provenance(out: &mut String, w: &WaitProvenance) {
    let _ = writeln!(
        out,
        "  waiter  loc {:<4} {}  enter {}  severity {}",
        w.waiter_loc, w.waiter_path, w.waiter_enter, w.severity
    );
    let _ = writeln!(
        out,
        "  delayer loc {:<4} {}  enter {}",
        w.delayer_loc, w.delayer_path, w.delayer_enter
    );
    let _ = writeln!(out, "  injected noise in causal window: {} ns", w.noise_ns);
    if w.chain.is_empty() {
        return;
    }
    let _ = writeln!(out, "  causal chain (oldest first):");
    for link in &w.chain {
        let _ = writeln!(
            out,
            "    {:<8} loc {:<4} [{:>12} .. {:>12}]  {}",
            link.what, link.loc, link.start, link.end, link.path
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrlt_observe::{ChainLink, NoiseKind, Observe, RunObserve};

    fn bundle() -> ObserveBundle {
        let obs = Observe::new();
        let run = RunObserve::new("App:tsc:rep0");
        for i in 0..8 {
            run.sample_id(
                run.series("numa0.bw_threads"),
                run.phase("cg"),
                10 * i,
                i,
                12 + i as i64,
            );
            run.sample_id(run.series("mpi.match_queue_sends"), run.phase("halo"), 10 * i, i, 3);
        }
        run.noise_id(NoiseKind::OsDetour, 0, 5, 1, run.phase("cg"), 40, 900);
        run.noise_id(NoiseKind::NetJitter, 1, 0, 2, run.phase("halo"), 55, -120);
        run.wait(WaitProvenance {
            metric: "delay_mpi_latesender".into(),
            waiter_loc: 2,
            waiter_path: "main/halo/MPI_Recv".into(),
            waiter_enter: 70,
            severity: 500,
            delayer_loc: 0,
            delayer_path: "main/halo/MPI_Send".into(),
            delayer_enter: 40,
            noise_ns: 250,
            chain: vec![ChainLink {
                what: "comp".into(),
                path: "main/cg".into(),
                loc: 0,
                start: 10,
                end: 40,
            }],
        });
        obs.attach(run);
        ObserveBundle::from_observe(&obs)
    }

    #[test]
    fn renders_all_three_query_families() {
        let b = bundle();
        let text = observe_text(&b, None, 5, None).unwrap();
        assert!(text.contains("== run App:tsc:rep0 =="));
        assert!(text.contains("phase cg:"));
        assert!(text.contains("numa0.bw_threads"));
        assert!(text.contains("os_detour"));
        assert!(text.contains("net_jitter"));
        assert!(text.contains("dominant wait state delay_mpi_latesender#0:"));
        assert!(text.contains("main/halo/MPI_Recv"));
        assert!(text.contains("causal chain"));
    }

    #[test]
    fn named_wait_and_filters() {
        let b = bundle();
        let text =
            observe_text(&b, Some("App:tsc:rep0"), 1, Some("delay_mpi_latesender#0")).unwrap();
        assert!(text.contains("wait state delay_mpi_latesender#0:"));
        assert!(observe_text(&b, Some("nope"), 1, None).is_err());
        assert!(observe_text(&b, None, 1, Some("delay_mpi_latesender#9")).is_err());
    }
}
