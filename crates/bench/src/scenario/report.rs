//! [`RunReport`] — the typed result of one scenario run, which the figures
//! render from instead of poking `sim.world.metrics.*` fields. Every field
//! is a deterministic function of the spec, so two runs of one spec give
//! `==` reports.

use simcore::stats::TimeSeries;
use simcore::time::{as_ms, SimTime};
use streamflow::world::Sim;
use streamflow::OpId;

use super::ScenarioSpec;

/// Everything a single scenario run produced.
#[derive(Clone, Debug, PartialEq)]
pub struct RunReport {
    /// Registry name of the scenario (`group/detail...`).
    pub scenario: String,
    /// Mechanism display label (`DRRS`, `Meces`, ...).
    pub mechanism: String,
    /// Engine seed the run used.
    pub seed: u64,
    /// When the scale was requested (0 when the spec has no scale).
    pub scale_at: SimTime,
    /// Run horizon.
    pub horizon: SimTime,
    /// Simulated events dispatched.
    pub events: u64,
    /// Records delivered to sinks.
    pub sink_records: u64,
    /// The sink-content hash (`Metrics::sink_hash`), which the digest does
    /// not cover: equal for two runs whose sinks absorbed equal multisets.
    pub sink_hash: u64,
    /// The deterministic metrics digest (same spec ⇒ same digest).
    pub digest: u64,
    /// Execution-order violations observed.
    pub violations: u64,
    /// Cumulative propagation delay `Lp`, ms.
    pub lp_ms: f64,
    /// Average dependency overhead `Ld`, ms.
    pub ld_ms: f64,
    /// Total suspension across the scaled operator's instances, ms.
    pub suspension_ms: f64,
    /// Bytes moved over migration links.
    pub bytes_transferred: u64,
    /// Migration completion time, if reached.
    pub migration_done: Option<SimTime>,
    /// The paper's scaling-period end, if the system re-stabilized.
    pub scaling_period_end: Option<SimTime>,
    /// Key-group moves in the scale plan (0 when no plan was made).
    pub planned_moves: u64,
    /// Planned moves whose state actually settled at the destination.
    pub settled_moves: u64,
    /// Mean migrations per state unit (Meces back-and-forth counting).
    pub churn_avg: f64,
    /// Max migrations of any single state unit.
    pub churn_max: u32,
    /// Events dispatched per scheduler region (one entry per region;
    /// `[events]` for a single-region run).
    pub region_events: Vec<u64>,
    /// Region-scheduler dispatched runs (one pop = a run of one).
    pub sync_runs: u64,
    /// Runs whose same-instant events spanned regions and were merged.
    pub merged_runs: u64,
    /// Advances granted by the global-minimum rule alone (would have
    /// blocked under pure neighbor-clock + lookahead CMB).
    pub min_rule_grants: u64,
    /// Null messages a message-passing CMB runtime would have needed.
    pub null_msgs: u64,
    /// Bus events published, each one in the log (0 under the `Null`
    /// sink).
    pub bus_published: u64,
    /// End-to-end latency samples `(sink arrival µs, latency µs)`.
    pub latency: Vec<(SimTime, f64)>,
    /// Cumulative suspension samples `(time µs, cumulative µs)`.
    pub suspension_series: Vec<(SimTime, f64)>,
    /// Source throughput `(second, records/s)`.
    pub throughput: Vec<(u64, f64)>,
}

impl RunReport {
    /// Harvest a report from a finished simulation. Must only be called
    /// after `run_until(spec.horizon)` — it reads clocks and instance
    /// suspension "as of now".
    pub fn harvest(spec: &ScenarioSpec, sim: &Sim, op: OpId) -> Self {
        let w = &sim.world;
        let scale_at = spec.scale.map(|s| s.at).unwrap_or(0);
        let hold = if crate::quick() {
            simcore::time::secs(20)
        } else {
            simcore::time::secs(100)
        };
        let suspension_total: u64 = w.ops[op.0 as usize]
            .instances
            .iter()
            .map(|&i| w.insts[i.0 as usize].suspension_as_of(w.now()))
            .sum();
        let (planned_moves, settled_moves) = match w.scale.plan.as_ref() {
            Some(plan) => (
                plan.moves.len() as u64,
                plan.moves
                    .iter()
                    .filter(|m| w.insts[m.to.0 as usize].state.holds_group(m.kg))
                    .count() as u64,
            ),
            None => (0, 0),
        };
        let (churn_avg, churn_max) = w.scale.metrics.migration_churn();
        let region_events = (0..w.region_map.k())
            .map(|r| w.q.region_processed(r))
            .collect();
        let sync = w.q.region_sync_stats();
        Self {
            scenario: spec.name.clone(),
            mechanism: spec.mechanism.label().to_string(),
            seed: spec.seed,
            scale_at,
            horizon: spec.horizon,
            events: w.q.processed(),
            sink_records: w.metrics.sink_records,
            sink_hash: w.metrics.sink_hash,
            digest: w.metrics_digest(),
            violations: w.semantics.violations(),
            lp_ms: as_ms(w.scale.metrics.cumulative_propagation_delay()),
            ld_ms: w.scale.metrics.avg_dependency_overhead() / 1_000.0,
            suspension_ms: as_ms(suspension_total),
            bytes_transferred: w.scale.metrics.bytes_transferred,
            migration_done: w.scale.metrics.migration_done,
            scaling_period_end: w.metrics.scaling_period_end(
                scale_at,
                simcore::time::secs(50),
                1.10,
                hold,
            ),
            planned_moves,
            settled_moves,
            churn_avg,
            churn_max,
            region_events,
            sync_runs: sync.runs,
            merged_runs: sync.merged_runs,
            min_rule_grants: sync.min_rule_grants,
            null_msgs: sync.null_msgs,
            bus_published: w.bus.summary().published,
            latency: w.metrics.latency.points().to_vec(),
            suspension_series: w.metrics.suspension.points().to_vec(),
            throughput: w.metrics.throughput(),
        }
    }

    /// The latency samples as a [`TimeSeries`] (for windowed statistics
    /// with the exact semantics the engine's `Metrics` uses).
    fn latency_series(&self) -> TimeSeries {
        let mut ts = TimeSeries::new();
        for &(t, v) in &self.latency {
            ts.push(t, v);
        }
        ts
    }

    /// Peak/mean latency (ms) over `[lo, hi)` µs — same computation as
    /// `Metrics::latency_stats_ms`.
    pub fn latency_ms(&self, lo: SimTime, hi: SimTime) -> (f64, f64) {
        let ts = self.latency_series();
        let peak = ts.peak(lo, hi).unwrap_or(0.0);
        let mean = ts.mean(lo, hi).unwrap_or(0.0);
        (as_ms(peak as SimTime), as_ms(mean as SimTime))
    }

    /// The nearest-rank `q` quantile of every latency sample, ms — the
    /// rule of `Metrics::latency_quantile_ms`.
    pub fn latency_quantile_ms(&self, q: f64) -> Option<f64> {
        streamflow::metrics::quantile_ms(&self.latency, q)
    }

    /// The latency series as per-second means in `(second, ms)`.
    pub fn latency_series_ms(&self) -> Vec<(u64, f64)> {
        self.latency_series()
            .per_second_mean()
            .into_iter()
            .map(|(s, v)| (s, v / 1_000.0))
            .collect()
    }

    /// The cumulative-suspension series in `(second, ms)`.
    pub fn suspension_series_ms(&self) -> Vec<(u64, f64)> {
        self.suspension_series
            .iter()
            .map(|&(t, v)| (t / 1_000_000, v / 1_000.0))
            .collect()
    }

    /// Mean source throughput over `[lo, hi)` seconds — literally the
    /// engine's windowed-throughput rule (`metrics::mean_per_second`), so
    /// report-side statistics cannot drift from `Metrics::mean_throughput`.
    pub fn mean_throughput(&self, lo: u64, hi: u64) -> f64 {
        streamflow::metrics::mean_per_second(self.throughput.iter().copied(), lo, hi)
    }

    /// Migration completion as seconds after the scale request (`NaN` if
    /// the migration never finished).
    pub fn migration_secs(&self) -> f64 {
        self.migration_done
            .map(|t| t as f64 / 1e6 - self.scale_at as f64 / 1e6)
            .unwrap_or(f64::NAN)
    }

    /// Fraction of the planned migration that settled, in percent
    /// (100 when nothing was planned).
    pub fn settled_pct(&self) -> u64 {
        (self.settled_moves * 100)
            .checked_div(self.planned_moves)
            .unwrap_or(100)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        RunReport {
            scenario: "fig15/DRRS/skew0.5/gb5/tps5000".into(),
            mechanism: "DRRS".into(),
            seed: 15,
            scale_at: 40_000_000,
            horizon: 170_000_000,
            events: 123_456,
            sink_records: 777,
            sink_hash: 0x5eed,
            digest: 0xc1221c2392952504,
            violations: 0,
            lp_ms: 1.5,
            ld_ms: 0.25,
            suspension_ms: 10.125,
            bytes_transferred: 1_000_000,
            migration_done: Some(55_000_001),
            scaling_period_end: None,
            planned_moves: 229,
            settled_moves: 229,
            churn_avg: 1.0,
            churn_max: 1,
            region_events: vec![100_000, 23_456],
            sync_runs: 4_000,
            merged_runs: 17,
            min_rule_grants: 3,
            null_msgs: 9,
            bus_published: 1_234,
            latency: vec![(100, 2.0), (200, 3.0625)],
            suspension_series: vec![(500_000, 1234.0)],
            throughput: vec![(0, 4999.0), (1, 5001.0)],
        }
    }

    #[test]
    fn windowed_helpers_match_metrics_semantics() {
        let r = sample();
        // mean_throughput counts empty seconds in the denominator.
        assert!((r.mean_throughput(0, 4) - (4999.0 + 5001.0) / 4.0).abs() < 1e-9);
        assert_eq!(r.mean_throughput(10, 20), 0.0);
        assert_eq!(r.settled_pct(), 100);
        let (peak, mean) = r.latency_ms(0, 1_000);
        assert!(peak >= mean && peak > 0.0);
    }
}
