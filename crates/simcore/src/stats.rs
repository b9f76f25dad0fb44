//! Measurement containers used by the experiment harnesses: timestamped
//! series (latency over time, throughput per second) and
//! summary statistics (mean / peak / percentiles / stddev across runs).

use crate::time::{SimTime, MICROS_PER_SEC};

/// A `(time, value)` series, e.g. end-to-end latency samples at sink arrival
/// times, or cumulative suspension over time.
#[derive(Default, Clone)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Create an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a sample. Times need not be strictly increasing (multiple
    /// sinks may record at the same instant) but should be non-decreasing.
    pub fn push(&mut self, t: SimTime, v: f64) {
        self.points.push((t, v));
    }

    /// All samples.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Samples with `lo <= t < hi`.
    pub fn window(&self, lo: SimTime, hi: SimTime) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.points
            .iter()
            .copied()
            .filter(move |&(t, _)| t >= lo && t < hi)
    }

    /// Maximum value in `[lo, hi)`, or `None` if no samples fall there.
    pub fn peak(&self, lo: SimTime, hi: SimTime) -> Option<f64> {
        self.window(lo, hi).map(|(_, v)| v).fold(None, |m, v| {
            Some(match m {
                None => v,
                Some(m) => m.max(v),
            })
        })
    }

    /// Mean value in `[lo, hi)`, or `None` if no samples fall there.
    pub fn mean(&self, lo: SimTime, hi: SimTime) -> Option<f64> {
        let mut n = 0u64;
        let mut sum = 0.0;
        for (_, v) in self.window(lo, hi) {
            n += 1;
            sum += v;
        }
        (n > 0).then(|| sum / n as f64)
    }

    /// Bucket the series into per-second averages (used to render the
    /// latency-over-time and throughput-over-time figures as text).
    pub fn per_second_mean(&self) -> Vec<(u64, f64)> {
        let mut out: Vec<(u64, f64, u64)> = Vec::new();
        for &(t, v) in &self.points {
            let s = t / MICROS_PER_SEC;
            match out.last_mut() {
                Some((sec, sum, n)) if *sec == s => {
                    *sum += v;
                    *n += 1;
                }
                _ => out.push((s, v, 1)),
            }
        }
        out.into_iter()
            .map(|(s, sum, n)| (s, sum / n as f64))
            .collect()
    }

    /// The earliest time `t0 >= from` such that every sample in
    /// `[t0, t0 + hold)` is `<= limit`; used by the paper's scaling-period
    /// detector ("latency keeps within 110% of pre-scaling level for 100 s").
    ///
    /// Returns `None` if the series never stabilizes within its extent.
    pub fn stabilize_time(&self, from: SimTime, limit: f64, hold: SimTime) -> Option<SimTime> {
        let pts: Vec<(SimTime, f64)> = self
            .points
            .iter()
            .copied()
            .filter(|&(t, _)| t >= from)
            .collect();
        if pts.is_empty() {
            return None;
        }
        let end = pts.last().expect("non-empty").0;
        let mut candidate: Option<SimTime> = None;
        for &(t, v) in &pts {
            if v > limit {
                candidate = None;
            } else if candidate.is_none() {
                candidate = Some(t);
            }
            if let Some(c) = candidate {
                if t >= c + hold {
                    return Some(c);
                }
            }
        }
        // A trailing quiet stretch that reaches the end of the data also
        // counts if it is long enough.
        candidate.filter(|&c| end >= c + hold)
    }
}

/// Simple sample-set summary.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    /// Number of samples.
    pub n: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Population standard deviation.
    pub std: f64,
}

impl Summary {
    /// Summarize a slice of samples. Empty input yields all zeros.
    pub fn of(xs: &[f64]) -> Self {
        if xs.is_empty() {
            return Self::default();
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        Self {
            n: xs.len() as u64,
            mean,
            min: xs.iter().copied().fold(f64::INFINITY, f64::min),
            max: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            std: var.sqrt(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::MICROS_PER_SEC as SEC;

    #[test]
    fn series_window_peak_mean() {
        let mut s = TimeSeries::new();
        s.push(10, 1.0);
        s.push(20, 5.0);
        s.push(30, 3.0);
        assert_eq!(s.peak(0, 25), Some(5.0));
        assert_eq!(s.peak(25, 100), Some(3.0));
        assert_eq!(s.mean(0, 100), Some(3.0));
        assert_eq!(s.mean(100, 200), None);
    }

    #[test]
    fn per_second_buckets() {
        let mut s = TimeSeries::new();
        s.push(0, 2.0);
        s.push(SEC / 2, 4.0);
        s.push(SEC + 1, 10.0);
        let b = s.per_second_mean();
        assert_eq!(b, vec![(0, 3.0), (1, 10.0)]);
    }

    #[test]
    fn stabilize_detects_quiet_stretch() {
        let mut s = TimeSeries::new();
        // Noisy until t=100s, quiet afterwards until 260s.
        for i in 0..100 {
            s.push(i * SEC, 100.0);
        }
        for i in 100..260 {
            s.push(i * SEC, 1.0);
        }
        let t = s.stabilize_time(0, 10.0, 100 * SEC);
        assert_eq!(t, Some(100 * SEC));
    }

    #[test]
    fn stabilize_rejects_short_quiet() {
        let mut s = TimeSeries::new();
        for i in 0..10 {
            s.push(i * SEC, 100.0);
        }
        for i in 10..20 {
            s.push(i * SEC, 1.0);
        }
        assert_eq!(s.stabilize_time(0, 10.0, 100 * SEC), None);
    }

    #[test]
    fn stabilize_resets_on_spike() {
        let mut s = TimeSeries::new();
        for i in 0..50 {
            s.push(i * SEC, 1.0);
        }
        s.push(50 * SEC, 100.0); // spike resets the candidate
        for i in 51..200 {
            s.push(i * SEC, 1.0);
        }
        assert_eq!(s.stabilize_time(0, 10.0, 100 * SEC), Some(51 * SEC));
    }

    #[test]
    fn summary_basic() {
        let s = Summary::of(&[1.0, 2.0, 3.0]);
        assert_eq!(s.n, 3);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert!((s.std - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }
}
