//! Scale-in (contraction): the engine supports shrinking an operator; the
//! DRRS machinery is direction-agnostic — key-groups migrate from draining
//! instances to survivors, and a drained instance retires: its channels are
//! unwired, so it leaves the topology and no watermark, barrier or
//! alignment waits on it.

use drrs_repro::baselines::{megaphone, otfs_fluid, MecesPlugin, StopRestartPlugin};
use drrs_repro::drrs::{FlexScaler, MechanismConfig};
use drrs_repro::engine::graph::{EdgeKind, JobBuilder};
use drrs_repro::engine::instance::{Life, SourceGen};
use drrs_repro::engine::operator::KeyedAgg;
use drrs_repro::engine::world::tests_support::tiny_job;
use drrs_repro::engine::world::Sim;
use drrs_repro::engine::{BusEventKind, BusSinkKind, EngineConfig, KeyGroup, ScalePlugin};
use drrs_repro::sim::time::{ms, secs, SimTime};

#[test]
fn drrs_scale_in_4_to_2() {
    let (mut w, agg) = tiny_job(EngineConfig::test(), 4_000.0, 512, 4);
    w.schedule_scale(secs(2), agg, 2);
    let mut sim = Sim::new(w, Box::new(FlexScaler::drrs()));
    sim.run_until(secs(15));
    let w = &sim.world;
    assert!(!w.scale.in_progress, "scale-in migration incomplete");
    assert_eq!(w.semantics.violations(), 0);
    // The operator shrank to 2 live instances.
    assert_eq!(
        w.ops[agg.0 as usize].instances.len(),
        2,
        "retiring instances not removed"
    );
    assert!(
        w.insts.iter().all(|i| i.life != Life::Draining),
        "instances stuck draining"
    );
    // The two retired instances left the topology: the sink's inputs are
    // the survivors' channels alone.
    let retired: Vec<_> = w.insts.iter().filter(|i| i.life == Life::Retired).collect();
    assert_eq!(retired.len(), 2);
    assert!(retired
        .iter()
        .all(|i| i.in_channels.is_empty() && i.out_channels.is_empty()));
    let sink = w.insts.last().expect("the sink");
    assert_eq!(sink.in_channels.len(), 2);
    // Every key-group is owned exactly once, by a survivor.
    for g in 0..w.cfg.max_key_groups {
        let holders: Vec<_> = w.ops[agg.0 as usize]
            .instances
            .iter()
            .filter(|&&i| w.insts[i.0 as usize].state.holds_group(KeyGroup(g)))
            .collect();
        assert_eq!(holders.len(), 1, "key-group {g}: {holders:?}");
    }
    // The pipeline kept flowing throughout.
    assert!(w.metrics.sink_records > 20_000);
}

#[test]
fn scale_in_then_out_round_trip() {
    let (mut w, agg) = tiny_job(EngineConfig::test(), 3_000.0, 256, 3);
    w.schedule_scale(secs(2), agg, 2);
    w.schedule_scale(secs(8), agg, 4);
    let mut sim = Sim::new(w, Box::new(FlexScaler::drrs()));
    sim.run_until(secs(20));
    let w = &sim.world;
    assert!(!w.scale.in_progress);
    assert_eq!(w.semantics.violations(), 0);
    assert_eq!(w.ops[agg.0 as usize].instances.len(), 4);
    for g in 0..w.cfg.max_key_groups {
        let holders = w.ops[agg.0 as usize]
            .instances
            .iter()
            .filter(|&&i| w.insts[i.0 as usize].state.holds_group(KeyGroup(g)))
            .count();
        assert_eq!(holders, 1, "key-group {g} held {holders} times");
    }
}

/// Round-robin keys at a constant rate until `limit` records, then end of
/// stream (watermarks, markers and barriers keep flowing).
struct Bounded {
    rate: f64,
    next_key: u64,
    limit: u64,
}

impl SourceGen for Bounded {
    fn rate(&self, _t: SimTime) -> f64 {
        self.rate
    }
    fn next(&mut self, _t: SimTime) -> (u64, i64) {
        self.next_key = (self.next_key + 1) % 1_024;
        (self.next_key, 1)
    }
    fn limit(&self) -> Option<u64> {
        Some(self.limit)
    }
}

#[test]
fn a_long_run_of_plans_in_and_out_leaves_nothing_behind() {
    // Eight plans alternating out and in, on a job with two sources, under
    // every order-preserving mechanism plus Meces, with checkpoints on and
    // off. Every second plan drains instances.
    let plans = [4, 2, 5, 3, 4, 2, 3, 2];
    let stop = secs(13);
    // 8 ms past a 10 ms source-tick boundary (ticks are jittered by under
    // 1 ms): nothing is in flight, so the arena must be empty.
    let horizon = stop + secs(3) + ms(8);
    let mechanisms = [
        "DRRS",
        "DR",
        "Schedule",
        "Subscale",
        "OTFS",
        "Megaphone",
        "Stop-Restart",
        "Meces",
    ];
    for name in mechanisms {
        for checkpoints in [false, true] {
            let plugin: Box<dyn ScalePlugin> = match name {
                "DRRS" => Box::new(FlexScaler::drrs()),
                "DR" => Box::new(FlexScaler::new(MechanismConfig::dr_only())),
                "Schedule" => Box::new(FlexScaler::new(MechanismConfig::schedule_only())),
                "Subscale" => Box::new(FlexScaler::new(MechanismConfig::subscale_only())),
                "OTFS" => Box::new(otfs_fluid()),
                "Megaphone" => Box::new(megaphone(1)),
                "Stop-Restart" => {
                    let mut p = StopRestartPlugin::new();
                    p.restart_overhead = ms(300);
                    Box::new(p)
                }
                _ => Box::new(MecesPlugin::new()),
            };
            let case = format!("{name}, checkpoints {checkpoints}");
            let mut cfg = EngineConfig::test();
            cfg.max_key_groups = 32;
            cfg.checkpoint_interval = checkpoints.then_some(ms(700));
            cfg.bus_sink = BusSinkKind::Mem;
            let mut b = JobBuilder::new(cfg);
            let src = b.source(
                "src",
                2,
                Box::new(move |i| {
                    let rate = [1_000.0, 2_000.0][i];
                    Box::new(Bounded {
                        rate,
                        next_key: i as u64 * 512,
                        limit: (rate * stop as f64 / 1e6) as u64,
                    })
                }),
            );
            let agg = b.operator(
                "agg",
                2,
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
            let mut w = b.build();
            for (k, &to) in plans.iter().enumerate() {
                w.schedule_scale(secs(1) + ms(1_400) * k as SimTime, agg, to);
            }
            let mut sim = Sim::new(w, plugin);

            // Step in sample intervals (retirement happens at a sample) and
            // note each instance's processed count and watermark when it
            // retired: neither may move after.
            let mut retired_at: Vec<Option<(u64, SimTime)>> = Vec::new();
            let mut sink_at = [0; 2];
            let mut t = 0;
            while t < horizon {
                t = (t + ms(100)).min(horizon);
                sim.run_until(t);
                if t == stop - secs(1) || t == stop {
                    sink_at[(t == stop) as usize] = sim.world.metrics.sink_records;
                }
                let w = &sim.world;
                retired_at.resize(w.insts.len(), None);
                for (i, at) in w.insts.iter().zip(retired_at.iter_mut()) {
                    if i.life == Life::Retired && at.is_none() {
                        *at = Some((i.processed, i.watermark));
                    }
                    if let Some(p) = *at {
                        assert_eq!(
                            (i.processed, i.watermark),
                            p,
                            "{case}: retired {} ran",
                            i.id
                        );
                    }
                }
            }
            let w = &mut sim.world;
            assert_eq!(
                w.scale.epoch as usize,
                plans.len(),
                "{case}: a plan never started"
            );
            assert!(!w.scale.in_progress, "{case}: the last plan never finished");
            assert_eq!(w.ops[agg.0 as usize].instances.len(), 2, "{case}");
            let retired = retired_at.iter().filter(|r| r.is_some()).count();
            assert_eq!(retired, 2 + 2 + 2 + 1, "{case}: drained instances left");
            assert_eq!(w.semantics.violations(), 0, "{case}");
            let generated: u64 = w
                .insts
                .iter()
                .filter_map(|i| i.source.as_ref())
                .map(|s| s.generated)
                .sum();
            assert_eq!(w.metrics.sink_records, generated, "{case}: records lost");
            assert!(
                sink_at[1] > sink_at[0],
                "{case}: the sink received nothing in the last second before the sources stopped"
            );
            assert_eq!(w.arena.len(), 0, "{case}: elements parked at the horizon");
            // The sources' watermark is the last one they emitted.
            let sources_wm = w
                .insts
                .iter()
                .filter_map(|i| i.source.as_ref())
                .map(|s| s.next_watermark - w.cfg.watermark_interval)
                .min()
                .expect("sources");
            let sink_wm = w.insts[w.ops[sink.0 as usize].instances[0].0 as usize].watermark;
            assert!(
                sink_wm + secs(1) >= sources_wm,
                "{case}: sink watermark {sink_wm} behind the sources' {sources_wm}"
            );
            let (mut started, mut done, mut planned) = (Vec::new(), Vec::new(), vec![2]);
            for e in w.bus.take_log() {
                match e.kind {
                    BusEventKind::CheckpointStart { id } => started.push(id),
                    BusEventKind::CheckpointDone { id } => done.push(id),
                    BusEventKind::ScalePlanned {
                        old_par, new_par, ..
                    } => {
                        assert_eq!(planned.last(), Some(&(old_par as usize)), "{case}");
                        planned.push(new_par as usize);
                    }
                    _ => {}
                }
            }
            assert_eq!(planned[1..], plans, "{case}: plans as published");
            assert_eq!(started.is_empty(), !checkpoints, "{case}");
            assert_eq!(done, started, "{case}: checkpoints completed");
        }
    }
}
