//! Order statistics of a sample: median, quartiles, min and max.
//!
//! Quartiles follow the "exclusive" method of Python's
//! `statistics.quantiles(values, n=4)`, so the spreads this crate
//! reports are the ones a reader recomputes from the per-run JSON.

/// Median, quartiles and range of one sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of values.
    pub n: usize,
    /// Middle value (mean of the two middle values for even `n`).
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
}

impl Summary {
    /// Summarise `values`; `None` for an empty sample.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let (&min, &max) = (v.first()?, v.last()?);
        let median = if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 };
        let (q1, q3) = if n == 1 { (min, min) } else { (quantile(&v, 1), quantile(&v, 3)) };
        Some(Summary { n, median, q1, q3, min, max })
    }

    /// Interquartile range as a share of the median (0 for a zero median).
    pub fn rel_iqr(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The `i`-th of the three cut points splitting sorted `v` (at least two
/// values) into quarters, by Python's exclusive method: positions are
/// taken on `n + 1` and clamped to the sample.
fn quantile(v: &[f64], i: usize) -> f64 {
    let n = v.len();
    let m = n + 1;
    let j = (i * m / 4).clamp(1, n - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_value() {
        let s = Summary::of(&[2.5]).unwrap();
        assert_eq!((s.n, s.median, s.q1, s.q3, s.min, s.max), (1, 2.5, 2.5, 2.5, 2.5, 2.5));
        assert_eq!(s.rel_iqr(), 0.0);
    }

    #[test]
    fn odd_count_matches_python() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]).unwrap();
        assert_eq!((s.median, s.q1, s.q3), (3.0, 1.5, 4.5));
        assert_eq!((s.min, s.max), (1.0, 5.0));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let s = Summary::of(&[4.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.median, s.q1, s.q3), (2.0, 1.0, 4.0));
    }

    #[test]
    fn even_count_matches_python() {
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        let s = Summary::of(&[4.0, 3.0, 2.0, 1.0]).unwrap();
        assert_eq!((s.median, s.q1, s.q3), (2.5, 1.25, 3.75));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let s = Summary::of(&[20.0, 10.0]).unwrap();
        assert_eq!((s.median, s.q1, s.q3), (15.0, 7.5, 22.5));
        // Ten values: one set of ten runs, as the bounds are checked on.
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.median, s.q1, s.q3), (5.5, 2.75, 8.25));
        assert!((s.rel_iqr() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_sample_has_no_summary() {
        assert!(Summary::of(&[]).is_none());
    }
}
