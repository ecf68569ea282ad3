//! The three query families an observe bundle answers:
//!
//! 1. **Top-k contended resources per phase** — from the exact
//!    per-(series, phase) aggregates.
//! 2. **Noise share per metric cell** — from the exact per-(metric,
//!    call path) wait totals: how much of the accumulated wait severity
//!    is covered by noise injected into the causal windows.
//! 3. **Provenance of a named wait state** — wait states are named
//!    `metric#i` with `i` indexing that metric's records in descending
//!    severity order.

use crate::{RunData, WaitProvenance};
use std::collections::BTreeMap;

/// One contended resource in a phase.
#[derive(Debug, Clone, PartialEq)]
pub struct Contention {
    /// Counter series name.
    pub series: String,
    /// Mean sample value over the phase.
    pub mean: f64,
    /// Maximum sample value over the phase.
    pub max: i64,
    /// Number of samples.
    pub count: u64,
}

/// Top-`k` contended resources per phase, phases sorted by name (the
/// empty phase — samples outside any program phase — sorts first).
/// Resources rank by mean sample value, ties by name.
pub fn top_contended(data: &RunData, k: usize) -> Vec<(String, Vec<Contention>)> {
    let mut by_phase: BTreeMap<&str, Vec<Contention>> = BTreeMap::new();
    for ((series, phase), agg) in &data.series_aggs {
        if agg.count == 0 {
            continue;
        }
        by_phase.entry(phase).or_default().push(Contention {
            series: series.clone(),
            mean: agg.sum as f64 / agg.count as f64,
            max: agg.max,
            count: agg.count,
        });
    }
    by_phase
        .into_iter()
        .map(|(phase, mut rows)| {
            rows.sort_by(|a, b| {
                b.mean.partial_cmp(&a.mean).unwrap().then_with(|| a.series.cmp(&b.series))
            });
            rows.truncate(k);
            (phase.to_owned(), rows)
        })
        .collect()
}

/// Noise share of one (metric, call path) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseShare {
    /// Wait metric name.
    pub metric: String,
    /// Waiter call path.
    pub path: String,
    /// Wait instances in the cell.
    pub count: u64,
    /// Accumulated severity (trace clock units).
    pub severity: u64,
    /// Injected noise in the causal windows, nanoseconds.
    pub noise_ns: u64,
    /// `noise_ns / severity`, percent (0 when severity is 0 — e.g. on
    /// logical-clock runs, whose windows carry no commensurable noise).
    pub share_pct: f64,
}

/// Noise share per metric cell, descending by severity.
pub fn noise_shares(data: &RunData) -> Vec<NoiseShare> {
    let mut rows: Vec<NoiseShare> = data
        .wait_aggs
        .iter()
        .map(|((metric, path), a)| NoiseShare {
            metric: metric.clone(),
            path: path.clone(),
            count: a.count,
            severity: a.severity,
            noise_ns: a.noise_ns,
            share_pct: if a.severity == 0 {
                0.0
            } else {
                100.0 * a.noise_ns as f64 / a.severity as f64
            },
        })
        .collect();
    rows.sort_by(|a, b| {
        b.severity.cmp(&a.severity).then_with(|| (&a.metric, &a.path).cmp(&(&b.metric, &b.path)))
    });
    rows
}

/// The retained wait records of `metric`, descending by severity (ties
/// by record order) — the order behind `metric#i` names.
fn waits_by_severity<'a>(data: &'a RunData, metric: &str) -> Vec<&'a WaitProvenance> {
    let mut waits: Vec<(usize, &WaitProvenance)> =
        data.waits.iter().enumerate().filter(|(_, w)| w.metric == metric).collect();
    waits.sort_by_key(|&(i, w)| (std::cmp::Reverse(w.severity), i));
    waits.into_iter().map(|(_, w)| w).collect()
}

/// Resolve a wait name of the form `metric#i` (e.g.
/// `delay_mpi_latesender#0`).
pub fn named_wait<'a>(data: &'a RunData, name: &str) -> Option<&'a WaitProvenance> {
    let (metric, idx) = name.rsplit_once('#')?;
    let idx: usize = idx.parse().ok()?;
    waits_by_severity(data, metric).get(idx).copied()
}

/// The most severe retained wait state of the run, with its name.
pub fn dominant_wait(data: &RunData) -> Option<(String, &WaitProvenance)> {
    let mut best: Option<(String, &WaitProvenance)> = None;
    for metric in
        data.waits.iter().map(|w| w.metric.as_str()).collect::<std::collections::BTreeSet<_>>()
    {
        if let Some(w) = waits_by_severity(data, metric).first() {
            let better = match &best {
                None => true,
                Some((_, b)) => {
                    (w.severity, std::cmp::Reverse(metric))
                        > (b.severity, std::cmp::Reverse(b.metric.as_str()))
                }
            };
            if better {
                best = Some((format!("{metric}#0"), w));
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunObserve;

    fn data() -> RunData {
        let run = RunObserve::new("r");
        for i in 0..10 {
            run.sample_id(run.series("numa0.bw_threads"), run.phase("cg"), i, i, 16);
            run.sample_id(
                run.series("socket0.l3_dram_permille"),
                run.phase("cg"),
                i,
                i,
                50 + i as i64,
            );
            run.sample_id(run.series("mpi.match_queue"), run.phase("halo"), i, i, 2);
        }
        for (i, sev) in [(0u64, 500u64), (1, 900), (2, 100)] {
            run.wait(WaitProvenance {
                metric: "delay_mpi_latesender".into(),
                waiter_loc: 0,
                waiter_path: "main/halo/MPI_Recv".into(),
                waiter_enter: i,
                severity: sev,
                delayer_loc: 1,
                delayer_path: "main/halo/MPI_Send".into(),
                delayer_enter: i,
                noise_ns: sev / 2,
                chain: Vec::new(),
            });
        }
        let (_, d) = run.finish();
        d
    }

    #[test]
    fn top_contended_ranks_by_mean() {
        let d = data();
        let top = top_contended(&d, 1);
        assert_eq!(top.len(), 2); // phases cg and halo
        assert_eq!(top[0].0, "cg");
        assert_eq!(top[0].1[0].series, "socket0.l3_dram_permille");
        assert_eq!(top[1].0, "halo");
        assert_eq!(top[1].1[0].series, "mpi.match_queue");
    }

    #[test]
    fn noise_share_is_exact() {
        let d = data();
        let rows = noise_shares(&d);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].count, 3);
        assert_eq!(rows[0].severity, 1500);
        assert_eq!(rows[0].noise_ns, 250 + 450 + 50);
        assert!((rows[0].share_pct - 50.0).abs() < 0.01);
    }

    #[test]
    fn named_wait_indexes_by_severity() {
        let d = data();
        let w0 = named_wait(&d, "delay_mpi_latesender#0").unwrap();
        assert_eq!(w0.severity, 900);
        let w2 = named_wait(&d, "delay_mpi_latesender#2").unwrap();
        assert_eq!(w2.severity, 100);
        assert!(named_wait(&d, "delay_mpi_latesender#3").is_none());
        assert!(named_wait(&d, "nonsense").is_none());
        let (name, dom) = dominant_wait(&d).unwrap();
        assert_eq!(name, "delay_mpi_latesender#0");
        assert_eq!(dom.severity, 900);
    }
}
