//! Run-level measurement: end-to-end latency (via markers), source
//! throughput, cumulative suspension, and the paper's scaling-period
//! detector.

use simcore::stats::{Histogram, TimeSeries};
use simcore::time::{as_ms, SimTime, MICROS_PER_SEC};

/// All measurements collected during a run.
#[derive(Default)]
pub struct Metrics {
    /// End-to-end latency samples `(sink arrival time, latency µs)`.
    pub latency: TimeSeries,
    /// Latency distribution (all samples, whole run).
    pub latency_hist: Histogram,
    /// Records emitted by sources, bucketed per second.
    pub source_counts: Vec<(u64, u64)>,
    /// Cumulative suspension time across scaled-operator instances,
    /// sampled periodically: `(time, cumulative µs)`.
    pub suspension: TimeSeries,
    /// Checkpoint completions `(time, checkpoint id)`: one sample each
    /// time a sink instance completes a checkpoint.
    pub checkpoints: TimeSeries,
    /// Total records delivered to sinks.
    pub sink_records: u64,
}

impl Metrics {
    /// Record a marker latency sample.
    pub fn record_latency(&mut self, at: SimTime, latency: SimTime) {
        self.latency.push(at, latency as f64);
        self.latency_hist.record(latency);
    }

    /// Latency quantile over the whole run, in milliseconds.
    pub fn latency_quantile_ms(&self, q: f64) -> Option<f64> {
        self.latency_hist.quantile(q).map(as_ms)
    }

    /// Count source emissions at time `at`.
    pub fn count_source(&mut self, at: SimTime, n: u64) {
        let sec = at / MICROS_PER_SEC;
        match self.source_counts.last_mut() {
            Some((s, c)) if *s == sec => *c += n,
            _ => self.source_counts.push((sec, n)),
        }
    }

    /// Source throughput as a `(second, records/s)` series.
    pub fn throughput(&self) -> Vec<(u64, f64)> {
        self.source_counts
            .iter()
            .map(|&(s, c)| (s, c as f64))
            .collect()
    }

    /// Mean source throughput over `[lo, hi)` seconds.
    pub fn mean_throughput(&self, lo: u64, hi: u64) -> f64 {
        mean_per_second(
            self.source_counts.iter().map(|&(s, c)| (s, c as f64)),
            lo,
            hi,
        )
    }

    /// Peak and mean latency (ms) over `[lo, hi)` µs.
    pub fn latency_stats_ms(&self, lo: SimTime, hi: SimTime) -> (f64, f64) {
        let peak = self.latency.peak(lo, hi).unwrap_or(0.0);
        let mean = self.latency.mean(lo, hi).unwrap_or(0.0);
        (as_ms(peak as SimTime), as_ms(mean as SimTime))
    }

    /// The paper's scaling-period end: the first time ≥ `scale_start` at
    /// which latency stays within `factor` × the pre-scale mean for `hold`.
    pub fn scaling_period_end(
        &self,
        scale_start: SimTime,
        pre_window: SimTime,
        factor: f64,
        hold: SimTime,
    ) -> Option<SimTime> {
        let pre = self
            .latency
            .mean(scale_start.saturating_sub(pre_window), scale_start)?;
        self.latency.stabilize_time(scale_start, pre * factor, hold)
    }
}

/// Mean of a per-second `(second, value)` series over `[lo, hi)` seconds,
/// **counting empty seconds as 0** (the denominator is the wall-clock
/// window, not the sample count). This is the single definition of the
/// windowed-throughput rule: [`Metrics::mean_throughput`] uses it on the
/// live counters, and `bench`'s `RunReport` uses it on the serialized
/// series, so the two can never diverge.
pub fn mean_per_second(series: impl Iterator<Item = (u64, f64)>, lo: u64, hi: u64) -> f64 {
    let mut any = false;
    let mut sum = 0.0;
    for (s, v) in series {
        if s >= lo && s < hi {
            any = true;
            sum += v;
        }
    }
    if any {
        sum / (hi - lo) as f64
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::time::secs;

    #[test]
    fn throughput_buckets_per_second() {
        let mut m = Metrics::default();
        m.count_source(100, 10);
        m.count_source(200, 5);
        m.count_source(MICROS_PER_SEC + 1, 7);
        assert_eq!(m.throughput(), vec![(0, 15.0), (1, 7.0)]);
        assert!((m.mean_throughput(0, 2) - 11.0).abs() < 1e-9);
    }

    #[test]
    fn latency_quantiles_from_hist() {
        let mut m = Metrics::default();
        for i in 1..=100u64 {
            m.record_latency(secs(1), i * 1000);
        }
        let p50 = m.latency_quantile_ms(0.5).expect("data");
        let p99 = m.latency_quantile_ms(0.99).expect("data");
        assert!((30.0..=80.0).contains(&p50), "p50={p50}");
        assert!(p99 >= p50);
        assert_eq!(Metrics::default().latency_quantile_ms(0.5), None);
    }

    #[test]
    fn latency_stats_window() {
        let mut m = Metrics::default();
        m.record_latency(secs(1), 10_000);
        m.record_latency(secs(2), 30_000);
        m.record_latency(secs(10), 500_000);
        let (peak, mean) = m.latency_stats_ms(0, secs(5));
        assert!((peak - 30.0).abs() < 1e-9);
        assert!((mean - 20.0).abs() < 1e-9);
    }

    #[test]
    fn scaling_period_detection() {
        let mut m = Metrics::default();
        // Pre-scale: steady 10 ms.
        for s in 0..100 {
            m.record_latency(secs(s), 10_000);
        }
        // Scale at 100 s: spike until 150 s, then quiet for 150 s.
        for s in 100..150 {
            m.record_latency(secs(s), 200_000);
        }
        for s in 150..310 {
            m.record_latency(secs(s), 10_500);
        }
        let end = m.scaling_period_end(secs(100), secs(50), 1.10, secs(100));
        assert_eq!(end, Some(secs(150)));
    }

    #[test]
    fn mean_throughput_counts_gaps_as_zero() {
        let mut m = Metrics::default();
        m.count_source(0, 100);
        // seconds 1..10 produce nothing
        assert!((m.mean_throughput(0, 10) - 10.0).abs() < 1e-9);
    }
}
