//! Quickstart: build a small stateful job, rescale it on the fly with DRRS,
//! and inspect what happened — all through `drrs_repro::prelude`.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use drrs_repro::prelude::*;

// A tiny deterministic source: 5K records/s over 1000 keys.
struct MySource {
    rng: DetRng,
}

impl SourceGen for MySource {
    fn rate(&self, _t: SimTime) -> f64 {
        5_000.0
    }
    fn next(&mut self, _t: SimTime) -> (u64, i64) {
        (self.rng.below(1_000), 1)
    }
}

fn main() {
    // 1. Describe the job: source → keyed aggregation → sink.
    let cfg = EngineConfig {
        max_key_groups: 128,
        check_semantics: true,
        ..EngineConfig::default()
    };
    let mut b = JobBuilder::new(cfg);
    let src = b.source(
        "numbers",
        1,
        Box::new(|i| {
            Box::new(MySource {
                rng: DetRng::seed(7 + i as u64),
            })
        }),
    );
    let agg = b.operator(
        "running-sum",
        2,
        Box::new(|| {
            Box::new(KeyedAgg {
                service: 150,          // µs per record
                bytes_per_key: 50_000, // 1000 keys → ~50 MB of keyed state
                bytes_per_record: 0,
                emit_every: 1,
            })
        }),
    );
    let sink = b.sink("sink", 1);
    b.connect(src, agg, EdgeKind::Keyed);
    b.connect(agg, sink, EdgeKind::Rebalance);
    let mut world = b.build();

    // 2. Ask for an on-the-fly scale-out 2 → 4 instances at t = 10 s.
    world.schedule_scale(secs(10), agg, 4);

    // 3. Run under the DRRS mechanism.
    let mut sim = Sim::new(world, Box::new(FlexScaler::drrs()));
    sim.run_until(secs(25));

    // 4. Inspect.
    let w = &sim.world;
    println!("records delivered to sink : {}", w.metrics.sink_records);
    println!("order violations          : {}", w.semantics.violations());
    println!(
        "state moved               : {} key-groups, {:.1} MB",
        w.scale.plan.as_ref().map(|p| p.moves.len()).unwrap_or(0),
        w.scale.metrics.bytes_transferred as f64 / 1e6
    );
    println!(
        "migration finished at     : {:.1} s",
        w.scale
            .metrics
            .migration_done
            .map(|t| t as f64 / 1e6)
            .unwrap_or(f64::NAN)
    );
    println!(
        "propagation delay (Lp)    : {:.2} ms",
        as_ms(w.scale.metrics.cumulative_propagation_delay())
    );
    println!(
        "dependency overhead (Ld)  : {:.2} ms",
        w.scale.metrics.avg_dependency_overhead() / 1_000.0
    );
    let (peak, avg) = w.metrics.latency_stats_ms(secs(10), secs(20));
    println!("latency during scaling    : peak {peak:.1} ms, avg {avg:.1} ms");

    assert_eq!(
        w.semantics.violations(),
        0,
        "DRRS preserves execution semantics"
    );
    assert!(w.scale.metrics.migration_done.is_some(), "scale completed");
    println!("\nOK: scaled 2 → 4 on the fly with zero order violations.");

    // 5. The same experiment as a declarative, nameable unit: any run can
    //    also be expressed as a ScenarioSpec (this is what
    //    `scenario --figure` is built on).
    let spec = ScenarioSpec {
        name: "example/quickstart".into(),
        engine: EngineProfile::Perf,
        check_semantics: false,
        seed: 7,
        workload: WorkloadSpec::TinyJob {
            rate: 5_000.0,
            universe: 1_000,
            par: 2,
        },
        mechanism: MechanismSpec::Flex(MechanismConfig::drrs()),
        scale: Some(ScaleSpec {
            at: secs(10),
            to: 4,
        }),
        horizon: secs(25),
        regions: 1,
        resume_latency: 0,
        bus_sink: Default::default(),
    };
    let report: RunReport = spec.run();
    println!(
        "as a scenario             : {} events, digest 0x{:016x}",
        report.events, report.digest
    );
}
