//! NEXMark Q7 under rescaling: run the paper's headline workload with any
//! of the mechanisms and compare them head-to-head.
//!
//! ```bash
//! cargo run --release --example nexmark_rescale            # all mechanisms
//! cargo run --release --example nexmark_rescale -- DRRS    # one mechanism
//! ```

use drrs_repro::baselines::{megaphone, MecesPlugin};
use drrs_repro::drrs::FlexScaler;
use drrs_repro::engine::world::Sim;
use drrs_repro::engine::ScalePlugin;
use drrs_repro::sim::time::secs;
use drrs_repro::workloads::nexmark::{nexmark_engine_config, q7, Q7Params};

fn plugin(name: &str) -> Box<dyn ScalePlugin> {
    match name {
        "DRRS" => Box::new(FlexScaler::drrs()),
        "Meces" => Box::new(MecesPlugin::new()),
        "Megaphone" => Box::new(megaphone(1)),
        other => panic!("unknown mechanism {other} (try DRRS, Meces, Megaphone)"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mechanisms: Vec<&str> = if args.is_empty() {
        vec!["DRRS", "Meces", "Megaphone"]
    } else {
        args.iter().map(|s| s.as_str()).collect()
    };

    // A compressed Q7: 10K tps, scale 8 → 12 at t = 60 s.
    let params = Q7Params {
        tps: 10_000.0,
        ..Default::default()
    };
    println!(
        "NEXMark Q7 @ {} tps, scaling 8 -> 12 instances at 60 s\n",
        params.tps
    );
    println!(
        "{:<12} {:>10} {:>10} {:>12} {:>12} {:>10}",
        "mechanism", "peak(ms)", "avg(ms)", "Lp(ms)", "Ld(ms)", "done(s)"
    );
    for mech in mechanisms {
        let (mut world, op) = q7(nexmark_engine_config(11), &params);
        world.schedule_scale(secs(60), op, 12);
        let mut sim = Sim::new(world, plugin(mech));
        sim.run_until(secs(180));
        let (peak, avg) = sim.world.metrics.latency_stats_ms(secs(60), secs(180));
        let m = &sim.world.scale.metrics;
        println!(
            "{:<12} {:>10.0} {:>10.0} {:>12.1} {:>12.1} {:>10.0}",
            mech,
            peak,
            avg,
            m.cumulative_propagation_delay() as f64 / 1e3,
            m.avg_dependency_overhead() / 1e3,
            m.migration_done.map(|t| t as f64 / 1e6).unwrap_or(f64::NAN),
        );
    }
    println!(
        "\n(The full-protocol comparison lives in `cargo run --release -p bench --bin scenario -- --figure fig10_11`.)"
    );
}
