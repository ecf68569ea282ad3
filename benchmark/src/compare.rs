//! `compare A/ B/`: two sets of timed runs, metric by metric.
//!
//! For every (workload, end-to-end metric) the report gives each side's
//! median and quartiles over its runs, the relative change of the
//! medians, and a verdict against the metric's bound. `--claim` applies
//! the rule for claiming a gain to one pairing: B wins at least nine
//! tenths of the alternating (A, B) pairs, over at least ten pairs, and
//! the medians differ by more than A's interquartile range.

use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::record::RunRecord;
use crate::stats::Summary;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Fewest alternating pairs a claim rests on.
const MIN_CLAIM_PAIRS: usize = 10;

/// How B compares with A on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound either way.
    Same,
    /// Better than A by more than the bound.
    Better,
    /// Worse than A by more than the bound.
    Worse,
    /// A side's own spread exceeds the bound and not every B run beats
    /// every A run: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// True when `x` is strictly better than `y`.
fn beats(x: f64, y: f64, better: Better) -> bool {
    match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    }
}

/// By how much B's median is worse than A's, as a share of A's
/// (negative when B is better).
fn worsening(a: &Summary, b: &Summary, better: Better) -> f64 {
    let change = if a.median == 0.0 { 0.0 } else { (b.median - a.median) / a.median.abs() };
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// The verdict for samples `a` and `b` of a metric with `bound`.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (Some(sa), Some(sb)) = (Summary::of(a), Summary::of(b)) else {
        return Verdict::Unresolved;
    };
    let all_beat = b.iter().all(|&y| a.iter().all(|&x| beats(y, x, better)));
    if sa.rel_iqr().max(sb.rel_iqr()) > bound && !all_beat {
        return Verdict::Unresolved;
    }
    let worse = worsening(&sa, &sb, better);
    if worse > bound {
        Verdict::Worse
    } else if worse < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// The outcome of the claim rule on one pairing.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// Alternating pairs compared.
    pub pairs: usize,
    /// Pairs B won (ties count for neither side).
    pub wins: usize,
    /// B's median minus A's, in the direction of improvement.
    pub gain: f64,
    /// A's interquartile range.
    pub a_iqr: f64,
    /// Whether the claim holds.
    pub met: bool,
}

/// Apply the claim rule to runs `a` and `b`, each in run order; pair `i`
/// is `(a[i], b[i])`.
pub fn claim(a: &[f64], b: &[f64], better: Better) -> Claim {
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|&(&x, &y)| beats(y, x, better)).count();
    let (gain, a_iqr) = match (Summary::of(a), Summary::of(b)) {
        (Some(sa), Some(sb)) => {
            let diff = sb.median - sa.median;
            (if better == Better::Lower { -diff } else { diff }, sa.q3 - sa.q1)
        }
        _ => (0.0, 0.0),
    };
    let met = pairs >= MIN_CLAIM_PAIRS && wins * 10 >= pairs * 9 && gain > a_iqr;
    Claim { pairs, wins, gain, a_iqr, met }
}

/// Timed run records in `dir`, in run order.
fn load(dir: &Path) -> Result<Vec<RunRecord>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut runs = Vec::new();
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_none_or(|x| x != "json") {
            continue;
        }
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let run = RunRecord::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if !run.traced {
            runs.push(run);
        }
    }
    runs.sort_by_key(|r| r.started_unix_ms);
    Ok(runs)
}

/// Each (workload, metric)'s values over `runs`, in run order.
fn values(runs: &[RunRecord]) -> BTreeMap<(String, &'static str), Vec<f64>> {
    let mut out: BTreeMap<(String, &'static str), Vec<f64>> = BTreeMap::new();
    for run in runs {
        for m in &END_TO_END {
            if let Some(got) = run.metrics.iter().find(|x| x.name == m.name) {
                out.entry((run.workload.clone(), m.name)).or_default().push(got.summary.median);
            }
        }
    }
    out
}

/// A named pairing to apply the claim rule to: `metric@workload`.
pub struct ClaimTarget {
    metric: &'static EndToEnd,
    workload: String,
}

impl ClaimTarget {
    /// Parse `metric@workload`.
    pub fn parse(s: &str) -> Result<ClaimTarget, String> {
        let (metric, workload) =
            s.split_once('@').ok_or(format!("--claim takes metric@workload, got {s}"))?;
        let metric = crate::metrics::end_to_end(metric)
            .ok_or(format!("--claim: {metric} is not an end-to-end metric"))?;
        Ok(ClaimTarget { metric, workload: workload.to_owned() })
    }
}

/// The comparison report of the runs in `a_dir` against `b_dir`, and
/// whether any pairing came out worse or unresolved.
pub fn compare(
    a_dir: &Path,
    b_dir: &Path,
    target: Option<&ClaimTarget>,
) -> Result<(String, bool), String> {
    let (a, b) = (values(&load(a_dir)?), values(&load(b_dir)?));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<18} {:<13} {:>4} {:>13} {:>23} {:>4} {:>13} {:>23} {:>8} {:>6} {:>6}  verdict",
        "workload",
        "metric",
        "nA",
        "median A",
        "q1..q3 A",
        "nB",
        "median B",
        "q1..q3 B",
        "change",
        "better",
        "bound"
    );
    let mut flagged = false;
    for ((workload, name), av) in &a {
        let Some(bv) = b.get(&(workload.clone(), *name)) else {
            let _ = writeln!(out, "{workload:<18} {name:<13} only in A");
            continue;
        };
        let m = crate::metrics::end_to_end(name).expect("values holds declared metrics");
        let (sa, sb) = (Summary::of(av).expect("non-empty"), Summary::of(bv).expect("non-empty"));
        let v = verdict(av, bv, m.better, m.bound);
        flagged |= matches!(v, Verdict::Worse | Verdict::Unresolved);
        let change = if sa.median == 0.0 { 0.0 } else { sb.median / sa.median - 1.0 };
        let _ = writeln!(
            out,
            "{workload:<18} {name:<13} {:>4} {:>13.6} {:>11.6}..{:<11.6} {:>4} {:>13.6} \
             {:>11.6}..{:<11.6} {:>+7.2}% {:>6} {:>5.0}%  {}",
            sa.n,
            sa.median,
            sa.q1,
            sa.q3,
            sb.n,
            sb.median,
            sb.q1,
            sb.q3,
            100.0 * change,
            m.better.name(),
            100.0 * m.bound,
            v.name()
        );
    }
    for (workload, name) in b.keys().filter(|k| !a.contains_key(*k)) {
        let _ = writeln!(out, "{workload:<18} {name:<13} only in B");
    }
    if let Some(t) = target {
        let key = (t.workload.clone(), t.metric.name);
        let (av, bv) = (a.get(&key), b.get(&key));
        let (av, bv) = av
            .zip(bv)
            .ok_or(format!("--claim: no {}@{} runs on both sides", t.metric.name, t.workload))?;
        let c = claim(av, bv, t.metric.better);
        let _ = writeln!(
            out,
            "\nclaim {}@{}: B wins {}/{} alternating pairs (needs 9/10 of at least {}), \
             median gain {:.6} vs A's IQR {:.6}: {}",
            t.metric.name,
            t.workload,
            c.wins,
            c.pairs,
            MIN_CLAIM_PAIRS,
            c.gain,
            c.a_iqr,
            if c.met { "met" } else { "not met" }
        );
    }
    Ok((out, flagged))
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: [f64; 5] = [10.0, 10.1, 9.9, 10.05, 9.95];

    fn scaled(k: f64) -> Vec<f64> {
        A.iter().map(|x| x * k).collect()
    }

    #[test]
    fn equal_samples_are_same() {
        assert_eq!(verdict(&A, &A, Better::Lower, 0.10), Verdict::Same);
        assert_eq!(verdict(&A, &scaled(1.03), Better::Lower, 0.10), Verdict::Same);
    }

    #[test]
    fn direction_decides_worse_and_better() {
        // 20 % slower, with overlapping samples impossible at this spread.
        assert_eq!(verdict(&A, &scaled(1.2), Better::Lower, 0.10), Verdict::Worse);
        assert_eq!(verdict(&A, &scaled(1.2), Better::Higher, 0.10), Verdict::Better);
        assert_eq!(verdict(&A, &scaled(0.8), Better::Higher, 0.10), Verdict::Worse);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_b_beats_every_a() {
        let noisy = [5.0, 10.0, 15.0, 8.0, 12.0];
        assert_eq!(verdict(&noisy, &noisy, Better::Lower, 0.10), Verdict::Unresolved);
        let all_faster = [1.0, 2.0, 4.0, 3.0, 1.5];
        assert_eq!(verdict(&noisy, &all_faster, Better::Lower, 0.10), Verdict::Better);
        // Every B run beats every A run, but by less than the bound.
        let skewed = [5.0, 5.01, 5.02, 5.6, 5.7];
        let barely = [4.99, 4.98, 4.97, 4.99, 4.985];
        assert_eq!(verdict(&skewed, &barely, Better::Lower, 0.10), Verdict::Same);
    }

    #[test]
    fn claim_needs_nine_tenths_and_more_than_the_iqr() {
        let a: Vec<f64> = (0..10).map(|i| 10.0 + 0.01 * f64::from(i)).collect();
        let faster: Vec<f64> = a.iter().map(|x| x * 0.9).collect();
        let c = claim(&a, &faster, Better::Lower);
        assert!(c.met, "{c:?}");
        assert_eq!((c.pairs, c.wins), (10, 10));
        // Two lost pairs out of ten: 8/10 < 9/10.
        let mut mixed = faster.clone();
        mixed[0] = 11.0;
        mixed[1] = 11.0;
        assert!(!claim(&a, &mixed, Better::Lower).met);
        // Wins every pair by less than A's interquartile range.
        let barely: Vec<f64> = a.iter().map(|x| x - 0.001).collect();
        let c = claim(&a, &barely, Better::Lower);
        assert_eq!(c.wins, 10);
        assert!(!c.met, "{c:?}");
        // Too few pairs.
        assert!(!claim(&a[..5], &faster[..5], Better::Lower).met);
    }

    #[test]
    fn claim_targets_parse() {
        let t = ClaimTarget::parse("wall_s@omp-only").unwrap();
        assert_eq!((t.metric.name, t.workload.as_str()), ("wall_s", "omp-only"));
        assert!(ClaimTarget::parse("wall_s").is_err());
        assert!(ClaimTarget::parse("nope@omp-only").is_err());
    }
}
