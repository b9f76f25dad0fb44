//! Helpers shared by unit tests across modules (and by downstream crates'
//! tests). Not part of the stable API.

use super::*;
use crate::graph::JobBuilder;
use crate::instance::SourceGen;
use crate::operator::KeyedAgg;

/// Constant-rate generator emitting keys round-robin over a universe.
pub struct FixedGen {
    rate: f64,
    universe: u64,
    next_key: u64,
}

impl FixedGen {
    /// `rate` records/s over `universe` keys.
    pub fn new(rate: f64, universe: u64) -> Self {
        Self {
            rate,
            universe,
            next_key: 0,
        }
    }
}

impl SourceGen for FixedGen {
    fn rate(&self, _t: SimTime) -> f64 {
        self.rate
    }
    fn next(&mut self, _t: SimTime) -> (u64, i64) {
        let k = self.next_key;
        self.next_key = (self.next_key + 1) % self.universe;
        (k, 1)
    }
}

/// The reference semantics of [`Sim::run_until`]: pop one event at a
/// time and hand it to the plain per-element [`World::dispatch`]. Tests
/// drive this against the production loop and require equal digests.
pub fn run_until_one_at_a_time(sim: &mut Sim, t: SimTime) {
    while let Some((_, ev)) = sim.world.q.pop_at_most(t) {
        sim.world.dispatch(&mut *sim.plugin, ev);
    }
    sim.world.q.advance_clock_to(t);
}

/// Build a tiny source → keyed-agg → sink job for tests.
pub fn tiny_job(cfg: EngineConfig, rate: f64, universe: u64, par: usize) -> (World, OpId) {
    let mut b = JobBuilder::new(cfg);
    let src = b.source(
        "src",
        1,
        Box::new(move |_| Box::new(FixedGen::new(rate, universe))),
    );
    let agg = b.operator(
        "agg",
        par,
        Box::new(|| {
            Box::new(KeyedAgg {
                service: 50,
                bytes_per_key: 1_000,
                bytes_per_record: 0,
                emit_every: 1,
            })
        }),
    );
    let sink = b.sink("sink", 1);
    b.connect(src, agg, EdgeKind::Keyed);
    b.connect(agg, sink, EdgeKind::Rebalance);
    let w = b.build();
    (w, agg)
}

/// Build `pipes` fully disjoint source → keyed-agg → sink pipelines in
/// one job. The region partitioner keeps connected components whole,
/// so with `cfg.regions >= pipes` every pipeline gets its own region
/// and zero channels cross a region boundary (infinite lookahead) —
/// the best case for region-partitioned execution.
pub fn twin_jobs(cfg: EngineConfig, rate: f64, universe: u64, par: usize, pipes: usize) -> World {
    let mut b = JobBuilder::new(cfg);
    for p in 0..pipes {
        let src = b.source(
            &format!("src{p}"),
            1,
            Box::new(move |_| Box::new(FixedGen::new(rate, universe))),
        );
        let agg = b.operator(
            &format!("agg{p}"),
            par,
            Box::new(|| {
                Box::new(KeyedAgg {
                    service: 50,
                    bytes_per_key: 1_000,
                    bytes_per_record: 0,
                    emit_every: 1,
                })
            }),
        );
        let sink = b.sink(&format!("sink{p}"), 1);
        b.connect(src, agg, EdgeKind::Keyed);
        b.connect(agg, sink, EdgeKind::Rebalance);
    }
    b.build()
}
