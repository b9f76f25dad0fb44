//! Run-level measurement: end-to-end latency (via markers), source
//! throughput, cumulative suspension, the sink-content hash, and the
//! paper's scaling-period detector.

use simcore::stats::TimeSeries;
use simcore::time::{as_ms, SimTime, MICROS_PER_SEC};

use crate::record::Record;

/// All measurements collected during a run.
#[derive(Default)]
pub struct Metrics {
    /// End-to-end latency samples `(sink arrival time, latency µs)`.
    pub latency: TimeSeries,
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
    /// The sink content as a multiset hash: the wrapping sum, over every
    /// data record a sink absorbed, of its `(key, value, event_time)` mix
    /// times its `count` ([`Self::hash_sunk`]). Equal sink multisets give
    /// equal hashes in any order. Reported next to the digest, never
    /// hashed into it.
    pub sink_hash: u64,
}

impl Metrics {
    /// Record a marker latency sample.
    pub fn record_latency(&mut self, at: SimTime, latency: SimTime) {
        self.latency.push(at, latency as f64);
    }

    /// Fold one data record a sink absorbed into [`Self::sink_hash`]: one
    /// multiply and one xor-shift mix its fields, and `count` copies of
    /// the record add `count` times the mix.
    // checker:hot-path
    #[inline]
    pub fn hash_sunk(&mut self, rec: &Record) {
        let fields = rec.key ^ (rec.value as u64).rotate_left(21) ^ rec.event_time.rotate_left(42);
        let x = fields.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mix = x ^ (x >> 29);
        self.sink_hash = self
            .sink_hash
            .wrapping_add(mix.wrapping_mul(rec.count as u64));
    }

    /// The nearest-rank `q` quantile of every latency sample of the run,
    /// in milliseconds (`None` before the first sample).
    pub fn latency_quantile_ms(&self, q: f64) -> Option<f64> {
        let mut samples: Vec<f64> = self.latency.points().iter().map(|&(_, v)| v).collect();
        if samples.is_empty() {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * samples.len() as f64).ceil() as usize).max(1);
        let (_, v, _) = samples.select_nth_unstable_by(rank - 1, f64::total_cmp);
        Some(*v / 1_000.0)
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
    fn latency_quantiles_are_nearest_rank_samples() {
        // 1..=200 ms, recorded out of order.
        let mut m = Metrics::default();
        for i in (1..=200u64).rev() {
            m.record_latency(secs(1), i * 1_000);
        }
        let q = |q| m.latency_quantile_ms(q).expect("data");
        assert_eq!((q(0.5), q(0.99), q(1.0)), (100.0, 198.0, 200.0));
        assert_eq!(q(0.0), 1.0, "rank 1 is the minimum");
        // An exact sample, not a bucket edge: 18.207 ms stays 18.207 ms.
        let mut one = Metrics::default();
        one.record_latency(secs(1), 18_207);
        assert_eq!(one.latency_quantile_ms(0.99), Some(18.207));
        assert_eq!(Metrics::default().latency_quantile_ms(0.5), None);
    }

    #[test]
    fn sink_hash_is_a_multiset_hash() {
        // `(key, value, event_time, count)` of each sunk record.
        let hash = |recs: &[(u64, i64, u64, u32)]| {
            let mut m = Metrics::default();
            for &(key, value, t, count) in recs {
                m.hash_sunk(&Record {
                    count,
                    ..Record::data(key, value, t)
                });
            }
            m.sink_hash
        };
        let (a, b, c) = ((1, 10, 100, 1), (2, -3, 100, 1), (1, 10, 200, 3));
        let base = hash(&[a, b, c]);
        // Any order, and `count` copies fold like `count` records of one ...
        assert_eq!(hash(&[c, a, b]), base);
        assert_eq!(hash(&[(1, 10, 200, 1), b, a, (1, 10, 200, 2)]), base);
        // ... while a multiplicity change moves it, and so does each field.
        for moved in [
            (1, 10, 200, 2),
            (3, 10, 200, 3),
            (1, 11, 200, 3),
            (1, 10, 201, 3),
        ] {
            assert_ne!(hash(&[a, b, moved]), base, "{moved:?}");
        }
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
