//! Quartiles of small samples, by the method of Python's
//! `statistics.quantiles(values, n=4)` (its default, "exclusive"), so the
//! spreads printed here are the ones the driver computes from the same values.

/// First quartile, median and third quartile of `values`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quartiles {
    pub p25: f64,
    pub median: f64,
    pub p75: f64,
}

impl Quartiles {
    /// `None` for fewer than two values, as in Python.
    pub fn of(values: &[f64]) -> Option<Self> {
        let n = values.len();
        if n < 2 {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let cut = |i: usize| {
            // Position i·(n+1)/4 on a 1-based scale, clamped to the sample.
            let j = (i * (n + 1) / 4).clamp(1, n - 1);
            let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Some(Self {
            p25: cut(1),
            median: cut(2),
            p75: cut(3),
        })
    }

    /// Quartiles of a sample that may hold a single value.
    pub fn of_any(values: &[f64]) -> Self {
        Self::of(values).unwrap_or_else(|| {
            let x = values.first().copied().unwrap_or(0.0);
            Self {
                p25: x,
                median: x,
                p75: x,
            }
        })
    }

    /// Interquartile range as a share of the median: the spread the driver
    /// holds against a metric's bound.
    pub fn iqr_over_median(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.p75 - self.p25) / self.median.abs()
        }
    }
}

/// A sample is flagged `noisy` when its spread exceeds this share.
pub const NOISY_ABOVE: f64 = 0.15;

/// Median of an integer sample (upper median for even sizes).
pub fn median_u64(values: &[u64]) -> u64 {
    let mut v = values.to_vec();
    v.sort_unstable();
    v.get(v.len() / 2).copied().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn matches_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let q = Quartiles::of(&[5.0, 1.0, 4.0, 2.0, 3.0]).unwrap();
        assert!(close(q.p25, 1.5) && close(q.median, 3.0) && close(q.p75, 4.5));
        // statistics.quantiles([10, 20, 30, 40], n=4) == [12.5, 25.0, 37.5]
        let q = Quartiles::of(&[10.0, 20.0, 30.0, 40.0]).unwrap();
        assert!(close(q.p25, 12.5) && close(q.median, 25.0) && close(q.p75, 37.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = Quartiles::of(&[1.0, 2.0]).unwrap();
        assert!(close(q.p25, 0.75) && close(q.median, 1.5) && close(q.p75, 2.25));
        // Ten values, as the driver takes them:
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = Quartiles::of(&v).unwrap();
        assert!(close(q.p25, 2.75) && close(q.median, 5.5) && close(q.p75, 8.25));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let q = Quartiles::of(&[10.0, 20.0, 30.0, 40.0]).unwrap();
        assert!(close(q.iqr_over_median(), 1.0));
        assert!(q.iqr_over_median() > NOISY_ABOVE);
        let steady = Quartiles::of(&[100.0, 101.0, 100.5, 100.2, 100.8]).unwrap();
        assert!(steady.iqr_over_median() < NOISY_ABOVE);
    }

    #[test]
    fn single_values_and_empty_samples_do_not_panic() {
        assert_eq!(Quartiles::of(&[3.0]), None);
        assert_eq!(Quartiles::of_any(&[3.0]).median, 3.0);
        assert_eq!(Quartiles::of_any(&[]).iqr_over_median(), 0.0);
        assert_eq!(median_u64(&[5, 1, 3]), 3);
        assert_eq!(median_u64(&[]), 0);
    }
}
