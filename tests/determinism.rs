//! Determinism regression tests guarding the hot-path data structures.
//!
//! The simulator's value is bit-reproducibility: identical seeds must
//! produce identical metrics, byte for byte. Every PR that swaps a queue,
//! hasher, or state-backend layout must keep these green — a digest
//! mismatch means iteration order (and therefore the event interleaving)
//! leaked into observable behavior.
//!
//! The scenarios under test are **named registry specs** — the same
//! `bench::scenario::registry` entries the pin store
//! (`crates/bench/golden/`) pins on full timelines — so these tests and
//! the store can never drift apart on what a scenario means; the store's
//! hand-built and Q7 fire rows are checked here, through its checker.
//! Horizons are shortened with the spec builders to keep the suite fast;
//! everything else (rates, universes, parallelism, seeds, scale plans) is
//! the registry's word.

use drrs_repro::baselines::MecesPlugin;
use drrs_repro::bench::scenario::{golden, registry, MechanismSpec, ScenarioSpec};
use drrs_repro::drrs::FlexScaler;
use drrs_repro::engine::world::tests_support::{run_until_one_at_a_time, tiny_job};
use drrs_repro::engine::world::Sim;
use drrs_repro::engine::{EngineConfig, NoScale, ScalePlugin};
use drrs_repro::sim::time::secs;

/// The pin store's file of hand-built and Q7 fire runs.
const PINS: &str = include_str!("../crates/bench/golden/pins.txt");

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
fn mem_bus_log_is_lossless_ordered_and_deterministic() {
    // A wide job (18 instances ticking every sample) on a 10 s horizon:
    // the log holds every published event, in time order, the serialized
    // log is byte-reproducible, and the bus-off run has the same digest.
    use drrs_repro::engine::{BusEvent, BusSinkKind};
    let run = |sink| {
        let mut cfg = EngineConfig::test();
        cfg.seed = 7;
        cfg.bus_sink = sink;
        let (w, _) = tiny_job(cfg, 20_000.0, 256, 16);
        let mut sim = Sim::new(w, Box::new(NoScale));
        sim.run_until(secs(10));
        let log: Vec<BusEvent> = sim.world.bus.take_log();
        let mut bytes = Vec::new();
        for ev in &log {
            ev.write_jsonl(&mut bytes).expect("serialize to memory");
        }
        (
            sim.world.bus.summary(),
            sim.world.metrics_digest(),
            log,
            bytes,
        )
    };
    let on = run(BusSinkKind::Mem);
    assert!(on.0.published > 0, "enabled bus published nothing");
    assert_eq!(on.2.len() as u64, on.0.published, "the log lost events");
    if let Some(w) = on.2.windows(2).find(|w| w[1].at < w[0].at) {
        panic!("the log goes back in time: {:?} then {:?}", w[0], w[1]);
    }
    let again = run(BusSinkKind::Mem);
    assert_eq!(again.0, on.0, "bus counters not reproducible");
    assert_eq!(again.3, on.3, "serialized log bytes not reproducible");
    let off = run(BusSinkKind::Null);
    assert_eq!(on.1, off.1, "digest perturbed by the bus");
}

#[test]
fn run_report_surfaces_deterministic_bus_counters() {
    // The RunReport side: a scenario run with the bus on reports how many
    // events it published, identically on every rerun.
    let run = || {
        perf_spec("perf/steady_50k")
            .with_horizon(secs(3))
            .with_bus_sink(drrs_repro::engine::BusSinkKind::Mem)
            .run()
    };
    let a = run();
    let b = run();
    assert!(a.bus_published > 0, "enabled bus published nothing");
    assert_eq!(
        a.bus_published, b.bus_published,
        "bus counters diverged across reruns"
    );
    assert_eq!(a.digest, b.digest);
    // And the default-spec report is honest about the bus being off.
    let off = perf_spec("perf/steady_50k").with_horizon(secs(1)).run();
    assert_eq!(off.bus_published, 0, "Null sink must publish nothing");
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
fn dispatch_loop_matches_one_at_a_time_popping_under_drrs_and_meces() {
    // The engine's own `dispatch_loop_matches_one_at_a_time_popping` drives
    // `NoScale`, the one plugin the engine crate can name. Here the same
    // check runs under real mechanisms, scaling 4 -> 6 mid-run: DRRS
    // (run-level admission outside its scaling operator, per-record
    // admission and Record Scheduling inside it) and Meces (per-record
    // admission everywhere, with fetches on a miss). Fused bulk delivery
    // and run-level admission must leave the digest and the logical event
    // count where one-event-at-a-time popping puts them.
    for name in ["DRRS", "Meces"] {
        let run = |one_at_a_time: bool| {
            let plugin: Box<dyn ScalePlugin> = match name {
                "DRRS" => Box::new(FlexScaler::drrs()),
                _ => Box::new(MecesPlugin::new()),
            };
            let mut cfg = EngineConfig::test();
            cfg.seed = 0xBA7C;
            let (mut w, agg) = tiny_job(cfg, 8_000.0, 256, 4);
            w.schedule_scale(secs(1), agg, 6);
            let mut sim = Sim::new(w, plugin);
            if one_at_a_time {
                run_until_one_at_a_time(&mut sim, secs(4));
            } else {
                sim.run_until(secs(4));
            }
            assert!(
                sim.world.scale.metrics.migration_done.is_some(),
                "{name}: the scale did not finish"
            );
            (sim.world.metrics_digest(), sim.world.q.processed())
        };
        assert_eq!(
            run(true),
            run(false),
            "{name}: the dispatch loop changed the event interleaving"
        );
    }
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
    // The hand-built `pins/world/` runs of the pin store: checkpoint
    // barriers during a scale, checkpoint alignment beside the coupled
    // scaling barriers, stop-restart, Meces' fetch path (over one and two
    // plans), OTFS and Unbound, each with the last plan's Lp, Ld bits and
    // migration churn, which the digest does not hash.
    let held = golden::check(PINS, "pins/world/").unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(held.len(), 9);
}

#[test]
fn q7_fired_window_values_keep_their_hash() {
    // The metrics digest counts sink records and latencies, not the values
    // a window fires. Every fired `(key, value, end)` of a Q7 DRRS 8 → 12
    // run reaches the sink as one record, so the rows' `sink_hash` pins
    // them, through firing, eviction and migrated window state, at Q7's
    // 500 ms slide and at slide = size (tumbling, one slot per window).
    let held = golden::check(PINS, "pins/q7_fire/").unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(held.len(), 2);
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
