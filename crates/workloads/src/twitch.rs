//! The Twitch viewer-engagement workload (paper §V-A).
//!
//! The paper uses a one-fifth subset of the Rappaz et al. live-streaming
//! dataset — ~4 M events compressed into a 1,000-second window — through a
//! seven-operator pipeline computing per-channel loyalty scores. The
//! dataset itself is not redistributable, so [`TwitchGen`] synthesizes a
//! trace with the same macro characteristics: Zipf-skewed channel
//! popularity, a heavy-tailed user activity distribution, diurnal-style
//! rate waves, and cumulative state reaching ≈500 MB at the 300-second
//! scale point.
//!
//! Pipeline (7 operators): `source → parse → sessionize(user) →
//! engagement(user) → loyalty(channel) → smooth → sink`, with the loyalty
//! aggregation as the scaling operator.

use simcore::time::SimTime;
use simcore::{DetRng, Zipf};
use streamflow::graph::{EdgeKind, JobBuilder};
use streamflow::instance::SourceGen;
use streamflow::operator::{KeyedAgg, KeyedTouch, ReKeyByValue, Relay};
use streamflow::{EngineConfig, OpId, World};

/// Synthetic Twitch-like trace generator.
pub struct TwitchGen {
    base_tps: f64,
    users: Zipf,
    channels: Zipf,
    rng: DetRng,
    limit: u64,
    batch: u32,
}

impl TwitchGen {
    /// `events` total events over `duration_s` seconds (per source
    /// instance), matching the paper's 4 M-events / 1000 s compression.
    pub fn new(events: u64, duration_s: u64, seed: u64, batch: u32) -> Self {
        Self {
            base_tps: events as f64 / duration_s as f64,
            users: Zipf::new(100_000, 1.1),
            channels: Zipf::new(5_000, 1.0),
            rng: DetRng::seed(seed),
            limit: events,
            batch,
        }
    }
}

impl SourceGen for TwitchGen {
    fn rate(&self, t: SimTime) -> f64 {
        // Diurnal-style wave: ±30% around the base rate, 200 s period.
        let phase = (t as f64 / 200_000_000.0) * std::f64::consts::TAU;
        self.base_tps * (1.0 + 0.3 * phase.sin())
    }
    fn next(&mut self, _t: SimTime) -> (u64, i64) {
        let user = self.users.sample(&mut self.rng) as u64;
        let channel = self.channels.sample(&mut self.rng) as i64;
        (user, channel)
    }
    fn limit(&self) -> Option<u64> {
        Some(self.limit)
    }
    fn batch(&self) -> u32 {
        self.batch
    }
}

/// Parameters for the Twitch pipeline.
#[derive(Clone, Debug, PartialEq)]
pub struct TwitchParams {
    /// Total events across sources (paper: ~4 M).
    pub events: u64,
    /// Trace duration the events are compressed into (paper: 1000 s).
    pub duration_s: u64,
    /// Loyalty-stage parallelism before scaling (paper: 8).
    pub parallelism: usize,
    /// Batch multiplicity.
    pub batch: u32,
}

impl Default for TwitchParams {
    fn default() -> Self {
        Self {
            events: 4_000_000,
            duration_s: 1_000,
            parallelism: 8,
            batch: 2,
        }
    }
}

/// Engine configuration for the Twitch runs.
pub fn twitch_engine_config(seed: u64) -> EngineConfig {
    EngineConfig {
        max_key_groups: 128,
        seed,
        ..EngineConfig::default()
    }
}

/// Build the seven-operator Twitch pipeline. Returns the world and the
/// scaling operator (the loyalty aggregation, keyed by channel).
pub fn twitch(cfg: EngineConfig, p: &TwitchParams) -> (World, OpId) {
    let mut b = JobBuilder::new(cfg);
    let sources = 2;
    let per_src = p.events / sources as u64;
    let (dur, batch) = (p.duration_s, p.batch);
    let src = b.source(
        "events",
        sources,
        Box::new(move |i| Box::new(TwitchGen::new(per_src, dur, 0x7017C4 + i as u64, batch))),
    );
    let parse = b.operator("parse", 2, Box::new(|| Box::new(Relay { service: 20 })));
    // Per-user session state (small keys, many of them).
    let sessionize = b.operator(
        "sessionize",
        4,
        Box::new(|| {
            Box::new(KeyedTouch {
                service: 60,
                bytes_per_key: 256,
                bytes_per_record: 0,
            })
        }),
    );
    // Engagement scoring re-keys user → channel (the value field).
    let engagement = b.operator(
        "engagement",
        4,
        Box::new(|| Box::new(ReKeyByValue { service: 40 })),
    );
    // Loyalty aggregation: the scaling operator. State accumulates with the
    // stream (paper: ≈500 MB when scaling begins at 300 s):
    // 4K tps × 300 s × ~420 B ≈ 500 MB.
    let loyalty = b.operator(
        "loyalty",
        p.parallelism,
        Box::new(|| {
            Box::new(KeyedAgg {
                // The hottest channel draws ≈11% of traffic (Zipf 1.0), so
                // the instance owning it runs at ≈0.9 utilization at 8
                // instances and 4K tps — the bottleneck the paper scales.
                service: 1_000,
                bytes_per_key: 4_096,
                bytes_per_record: 410,
                emit_every: 1,
            })
        }),
    );
    let smooth = b.operator("smooth", 2, Box::new(|| Box::new(Relay { service: 15 })));
    let sink = b.sink("sink", 1);
    b.connect(src, parse, EdgeKind::Rebalance);
    b.connect(parse, sessionize, EdgeKind::Keyed);
    b.connect(sessionize, engagement, EdgeKind::Rebalance);
    b.connect(engagement, loyalty, EdgeKind::Keyed);
    b.connect(loyalty, smooth, EdgeKind::Rebalance);
    b.connect(smooth, sink, EdgeKind::Rebalance);
    let w = b.build();
    (w, loyalty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::time::secs;
    use streamflow::world::Sim;
    use streamflow::NoScale;

    #[test]
    fn pipeline_has_seven_operators() {
        let (w, loyalty) = twitch(twitch_engine_config(1), &TwitchParams::default());
        assert_eq!(w.ops.len(), 7);
        assert_eq!(w.ops[loyalty.0 as usize].name, "loyalty");
    }

    #[test]
    fn state_reaches_paper_scale_point() {
        let (w, loyalty) = twitch(twitch_engine_config(2), &TwitchParams::default());
        let mut sim = Sim::new(w, Box::new(NoScale));
        sim.run_until(secs(300));
        let bytes = sim.world.op_state_bytes(loyalty);
        assert!(
            (300_000_000..800_000_000).contains(&bytes),
            "loyalty state at 300 s: {bytes} bytes"
        );
    }

    #[test]
    fn trace_is_skewed_toward_hot_channels() {
        let mut g = TwitchGen::new(100_000, 100, 3, 1);
        let mut hot = 0u64;
        for _ in 0..10_000 {
            let (_, ch) = g.next(0);
            if ch < 10 {
                hot += 1;
            }
        }
        // Zipf(1.0) over 5000 channels: top-10 get ~30% of traffic.
        assert!(hot > 1_500, "top-10 channels drew only {hot}/10000");
    }

    #[test]
    fn generator_respects_event_limit() {
        let (w, _) = twitch(
            twitch_engine_config(4),
            &TwitchParams {
                events: 50_000,
                duration_s: 10,
                parallelism: 2,
                batch: 1,
            },
        );
        let mut sim = Sim::new(w, Box::new(NoScale));
        sim.run_until(secs(30));
        let emitted: u64 = sim
            .world
            .insts
            .iter()
            .filter_map(|i| i.source.as_ref())
            .map(|s| s.generated)
            .sum();
        assert!(emitted <= 50_000 + 100, "generated {emitted}");
        assert!(emitted >= 49_000, "generated {emitted}");
    }

    #[test]
    fn records_flow_through_all_stages() {
        let (w, _) = twitch(
            twitch_engine_config(5),
            &TwitchParams {
                events: 100_000,
                duration_s: 50,
                parallelism: 4,
                batch: 1,
            },
        );
        let mut sim = Sim::new(w, Box::new(NoScale));
        sim.run_until(secs(20));
        assert!(sim.world.metrics.sink_records > 10_000);
        assert_eq!(sim.world.semantics.violations(), 0);
    }
}
