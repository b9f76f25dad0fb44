//! Determinism regression tests guarding the hot-path data structures.
//!
//! The simulator's value is bit-reproducibility: identical seeds must
//! produce identical metrics, byte for byte. Every PR that swaps a queue,
//! hasher, or state-backend layout must keep these green — a digest
//! mismatch means iteration order (and therefore the event interleaving)
//! leaked into observable behavior.
//!
//! The scenarios under test are **named registry specs** — the same
//! `bench::scenario::registry` entries the golden digest file pins on
//! full timelines — so these tests and the cross-build pin can never drift
//! apart on what a scenario means. Horizons are shortened with the spec builders to keep
//! the suite fast; everything else (rates, universes, parallelism, seeds,
//! scale plans) is the registry's word.

use drrs_repro::baselines::{otfs_fluid, MecesPlugin, StopRestartPlugin, UnboundPlugin};
use drrs_repro::bench::scenario::{registry, MechanismSpec, ScenarioSpec};
use drrs_repro::drrs::FlexScaler;
use drrs_repro::engine::world::tests_support::{run_until_one_at_a_time, tiny_job};
use drrs_repro::engine::world::Sim;
use drrs_repro::engine::{EngineConfig, NoScale, ScalePlugin};
use drrs_repro::sim::time::{ms, secs};

/// Fetch a named perf scenario (full variant) from the registry.
fn perf_spec(name: &str) -> ScenarioSpec {
    registry::find(name, false).unwrap_or_else(|| panic!("{name} not in the registry"))
}

#[test]
fn same_seed_same_digest_steady_state() {
    let spec = perf_spec("perf/steady_50k").with_horizon(secs(5));
    let a = spec.run().digest;
    let b = spec.run().digest;
    assert_eq!(a, b, "steady-state run diverged between two identical runs");
}

#[test]
fn same_seed_same_digest_with_mid_run_scale() {
    // The scale event exercises the rewritten paths end to end: dense
    // backend extraction/installation, routing-table updates, cached
    // predecessor lists, re-routed records and the migration links.
    let spec = perf_spec("perf/drrs_rescale_4_to_6").with_horizon(secs(6));
    let a = spec.run().digest;
    let b = spec.run().digest;
    assert_eq!(a, b, "scaling run diverged between two identical runs");
}

#[test]
fn same_seed_same_digest_meces() {
    // Regression: Meces' background pump used to iterate a std HashMap
    // (random SipHash order) to pick which units migrate per pump, making
    // same-seed Meces runs diverge. The pump now sorts into canonical
    // unit order. Meces has no perf scenario of its own, so it rides the
    // registry's rescale spec with the mechanism swapped.
    let spec = perf_spec("perf/drrs_rescale_4_to_6")
        .with_mechanism(MechanismSpec::Meces)
        .with_horizon(secs(6));
    let a = spec.run().digest;
    let b = spec.run().digest;
    assert_eq!(a, b, "Meces run diverged between two identical runs");
}

#[test]
fn same_seed_same_digest_overload_backpressure() {
    // The arena path under sustained backpressure: the operator saturates
    // (120K/s into a ~40K/s pipeline), so backlogs fill to the block
    // watermark, senders stall, and every pump cycle recycles arena slots
    // through the free list. Any nondeterminism in handle recycling or the
    // index queues would change the interleaving and split these digests.
    let spec = perf_spec("perf/overload_backpressure")
        .with_seed(0xBEEF)
        .with_horizon(secs(6));
    let a = spec.run().digest;
    let b = spec.run().digest;
    assert_eq!(a, b, "overload run diverged between two identical runs");
}

#[test]
fn arena_slots_are_reclaimed_in_steady_state() {
    // The record arena must plateau: live elements are bounded by channel
    // credits plus bounded backlogs, so its slot count after warm-up must
    // not grow over a 5x longer run — monotonic growth means consumed
    // elements are leaking slots. (Runs the world directly: the probe
    // needs mid-run arena inspection, which a finished RunReport cannot
    // provide.)
    let mut cfg = EngineConfig::test();
    cfg.seed = 42;
    let (w, _) = tiny_job(cfg, 5_000.0, 256, 2);
    let mut sim = Sim::new(w, Box::new(NoScale));
    sim.run_until(secs(2));
    let warm = sim.world.arena.slot_count();
    sim.run_until(secs(10));
    let end = sim.world.arena.slot_count();
    assert_eq!(
        warm, end,
        "arena slots grew in steady state: {warm} -> {end}"
    );
    // And the live element count stays within the credit bound.
    let slack = drrs_repro::engine::channel::BACKLOG_INITIAL_BUFFERS;
    let credit_bound: usize = sim.world.chans.iter().map(|c| c.capacity + slack).sum();
    assert!(
        sim.world.arena.len() <= credit_bound,
        "live elements {} exceed the credit bound {credit_bound}",
        sim.world.arena.len()
    );
}

#[test]
fn jsonl_bus_sink_streams_with_flat_memory_and_deterministic_loss() {
    // The streaming-sink memory contract on a 10x-horizon run: with a
    // writer attached nothing stages in process memory — the bounded
    // channels plateau at their caps (lag high-water), the bounded ring
    // feeds the worker, and the file absorbs the stream. The wide job
    // (18 instances x 8 samples per drain > the 64-slot metrics channel)
    // makes the drop-oldest policy fire for real, and the loss accounting
    // must be byte-reproducible: same counters, same file, every run.
    use drrs_repro::engine::{BusClass, BusSinkKind};
    let dir = std::env::temp_dir();
    let run = |tag: &str, horizon| {
        let path = dir.join(format!("drrs_bus_flatmem_{tag}.jsonl"));
        let mut cfg = EngineConfig::test();
        cfg.seed = 7;
        cfg.bus_sink = BusSinkKind::Jsonl;
        let (w, _) = tiny_job(cfg, 20_000.0, 256, 16);
        let mut sim = Sim::new(w, Box::new(NoScale));
        sim.world
            .bus
            .attach_jsonl(&path)
            .expect("attach sink worker");
        sim.run_until(horizon);
        let lines = sim.world.bus.finish().expect("flush sink worker");
        assert!(
            sim.world.bus.take_log().is_empty(),
            "writer-attached bus staged events in memory"
        );
        let bytes = std::fs::read(&path).expect("read stream back");
        let _ = std::fs::remove_file(&path);
        (
            lines,
            sim.world.bus.summary(),
            sim.world.metrics_digest(),
            bytes,
        )
    };
    let short = run("short", secs(1));
    let long = run("long", secs(10));
    // Flat memory: the channel high-water plateaus at the bounded caps —
    // 10x more simulated time must not deepen any queue.
    assert_eq!(
        short.1.lag_max, long.1.lag_max,
        "channel lag grew with the horizon"
    );
    assert!(long.1.lag_max <= 128, "lag exceeds the largest channel cap");
    // The stream went to disk, not memory: ~10x the events, all on file.
    assert!(
        long.0 > 5 * short.0,
        "long run did not stream ({} vs {})",
        long.0,
        short.0
    );
    // Honest loss: the high-rate metrics class dropped, deterministically.
    assert!(
        long.1.dropped > 0,
        "wide job should overflow the metrics channel"
    );
    assert!(long.1.class_drops[BusClass::Metrics as usize] > 0);
    let again = run("again", secs(10));
    assert_eq!(again.1, long.1, "bus accounting not reproducible");
    assert_eq!(again.0, long.0, "line count not reproducible");
    assert_eq!(again.3, long.3, "JSONL stream bytes not reproducible");
    assert_eq!(again.2, long.2, "digest perturbed by the streaming sink");
}

#[test]
fn run_report_surfaces_deterministic_bus_counters() {
    // The RunReport side of the loss accounting: a lossy JSONL scenario
    // run says so through `bus_dropped`/`bus_lag_max`, identically on
    // every rerun (and the counters survive the JSON round trip).
    let dir = std::env::temp_dir();
    let run = |tag: &str| {
        let path = dir.join(format!("drrs_bus_report_{tag}.jsonl"));
        let report = perf_spec("perf/steady_50k")
            .with_horizon(secs(3))
            .with_events_path(path.display().to_string())
            .run();
        let _ = std::fs::remove_file(&path);
        report
    };
    let a = run("a");
    let b = run("b");
    assert!(a.bus_published > 0, "enabled bus published nothing");
    assert!(a.bus_lag_max > 0);
    assert_eq!(
        (
            a.bus_published,
            a.bus_dropped,
            a.bus_lag_max,
            a.bus_class_drops.clone()
        ),
        (
            b.bus_published,
            b.bus_dropped,
            b.bus_lag_max,
            b.bus_class_drops.clone()
        ),
        "bus counters diverged across reruns"
    );
    assert_eq!(a.digest, b.digest);
    let back = drrs_repro::bench::scenario::RunReport::parse(&a.to_json("")).expect("round trip");
    assert_eq!(back.bus_published, a.bus_published);
    assert_eq!(back.bus_class_drops, a.bus_class_drops);
    // And the default-spec report is honest about the bus being off.
    let off = perf_spec("perf/steady_50k").with_horizon(secs(1)).run();
    assert_eq!(off.bus_published, 0, "Null sink must publish nothing");
    assert_eq!(off.bus_lag_max, 0);
}

#[test]
fn massed_same_instant_runs_digest_identically_popped_one_at_a_time() {
    // The run-drain stress shape: at 50K records/s the 10 ms source-tick
    // granularity emits ~500 records per tick, all `send`s share the same
    // channel latency, so hundreds of deliveries mass at single instants —
    // one `Deliver` burst per run of back-to-back sends, in exactly the
    // runs `pop_run_at_most` drains in one cursor walk. Draining a run and
    // fusing its deliveries (`Sim::run_until`) instead of popping its
    // events one by one into the plain `World::dispatch` must not change
    // the interleaving: byte-identical digest and logical event count, on
    // a run that also crosses a mid-flight DRRS rescale so boxed
    // control/priority events ride inside the massed traffic.
    use drrs_repro::bench::scenario::WorkloadSpec;
    let mut spec = perf_spec("perf/drrs_rescale_4_to_6")
        .with_seed(0x5EED)
        .with_horizon(secs(4));
    // Narrow the key universe so deliveries mass harder per instant.
    spec.workload = WorkloadSpec::TinyJob {
        rate: 50_000.0,
        universe: 1_024,
        par: 4,
    };
    let (mut sim, _) = spec.build_sim();
    run_until_one_at_a_time(&mut sim, spec.horizon);
    let reference = (sim.world.metrics_digest(), sim.world.q.processed());
    assert!(
        reference.1 > 100_000,
        "scenario too small to mass deliveries"
    );
    let r = spec.run();
    assert_eq!(
        (r.digest, r.events),
        reference,
        "the dispatch loop diverged from one-at-a-time popping"
    );
}

#[test]
fn regions_without_resume_latency_report_as_the_sequential_run() {
    // The `scenario` binary rejects `--regions K` without a resume latency;
    // the library stays lenient and builds the sequential engine, so a
    // spec that asks for regions alone reports the sequential run: same
    // digest and events, one region's worth of accounting.
    let spec = perf_spec("perf/drrs_rescale_4_to_6").with_horizon(secs(4));
    let seq = spec.run();
    let r2 = spec.with_regions(2).run();
    assert_eq!((r2.digest, r2.events), (seq.digest, seq.events));
    assert_eq!(r2.region_events, vec![seq.events]);
    assert_eq!((r2.sync_runs, r2.merged_runs, r2.null_msgs), (0, 0, 0));
}

#[test]
fn world_paths_outside_the_golden_file_keep_their_digests() {
    // The golden file runs NoScale, DRRS, Megaphone and Q7, always with
    // checkpoints off. These rows pin the engine paths none of those reach:
    // checkpoint barriers with the `CheckpointTick` deferral during a scale
    // (scale-out only: a retired instance stalls later barriers), the
    // stop-restart halt/resume, Meces' fetch path, OTFS and Unbound. The
    // values are `(digest, events, sink_records)`; a behaviour-preserving
    // change must not move them.
    let rows: [(&str, bool, (u64, u64, u64)); 5] = [
        ("DRRS+ckpt", true, (8943720978993937719, 42134, 18000)),
        ("Meces", false, (14522126647641908098, 42101, 18000)),
        ("Stop-Restart", false, (4677760609724557460, 41537, 18000)),
        ("OTFS", false, (9558195888704112742, 42078, 18000)),
        ("Unbound", false, (5591056667909817358, 42032, 18000)),
    ];
    for (name, ckpt, want) in rows {
        let plugin: Box<dyn ScalePlugin> = match name {
            "DRRS+ckpt" => Box::new(FlexScaler::drrs()),
            "Meces" => Box::new(MecesPlugin::new()),
            "Stop-Restart" => {
                // Resume inside the horizon so `resume_all` runs too.
                let mut p = StopRestartPlugin::new();
                p.restart_overhead = ms(300);
                Box::new(p)
            }
            "OTFS" => Box::new(otfs_fluid()),
            _ => Box::new(UnboundPlugin::new()),
        };
        let mut cfg = EngineConfig::test();
        cfg.seed = 0xC0FFEE;
        if ckpt {
            cfg.checkpoint_interval = Some(ms(400));
        }
        let (mut w, agg) = tiny_job(cfg, 6_000.0, 512, 4);
        w.schedule_scale(ms(1_200), agg, 6);
        let mut sim = Sim::new(w, plugin);
        sim.run_until(secs(3));
        let w = &sim.world;
        let got = (w.metrics_digest(), w.q.processed(), w.metrics.sink_records);
        assert_eq!(got, want, "{name}: the run moved");
    }
}

#[test]
fn different_seeds_differ() {
    // Digest sanity: the digest must actually observe the run (two seeds
    // colliding would make the equality tests above vacuous).
    let spec = perf_spec("perf/drrs_rescale_4_to_6").with_horizon(secs(5));
    let a = spec.clone().with_seed(1).run().digest;
    let b = spec.with_seed(2).run().digest;
    assert_ne!(a, b, "digest is insensitive to the seed");
}

#[test]
fn digest_stable_across_horizons_prefix() {
    // Running longer must change the digest (it ingests more events) —
    // guards against the digest accidentally hashing only static topology.
    let spec = perf_spec("perf/steady_50k").with_seed(7);
    let a = spec.clone().with_horizon(secs(3)).run().digest;
    let b = spec.with_horizon(secs(5)).run().digest;
    assert_ne!(a, b);
}
