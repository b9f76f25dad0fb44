//! A miniature sensitivity sweep (the full grid is `scenario --figure fig15`):
//! how does throughput deviation during scaling respond to workload
//! skewness for DRRS vs Megaphone?
//!
//! ```bash
//! cargo run --release --example sensitivity_sweep
//! ```

use drrs_repro::baselines::megaphone;
use drrs_repro::drrs::FlexScaler;
use drrs_repro::engine::world::Sim;
use drrs_repro::engine::ScalePlugin;
use drrs_repro::sim::time::secs;
use drrs_repro::workloads::custom::{cluster_engine_config, custom, CustomParams};

fn main() {
    let skews = [0.0, 0.5, 1.0, 1.5];
    println!("custom 3-op workload: 10K tps, 5 GB state, scaling 25 -> 30 at 40 s");
    println!("throughput deviation over [40, 160] s (records/s; lower is better)\n");
    println!("{:>6} {:>12} {:>12}", "skew", "DRRS", "Megaphone");
    for skew in skews {
        let mut row = Vec::new();
        for mech in ["DRRS", "Megaphone"] {
            let p = CustomParams {
                tps: 10_000.0,
                total_state_bytes: 5_000_000_000,
                skew,
                ..Default::default()
            };
            let (mut world, op) = custom(cluster_engine_config(5), &p);
            world.schedule_scale(secs(40), op, 30);
            let plugin: Box<dyn ScalePlugin> = match mech {
                "DRRS" => Box::new(FlexScaler::drrs()),
                _ => Box::new(megaphone(1)),
            };
            let mut sim = Sim::new(world, plugin);
            sim.run_until(secs(160));
            let measured = sim.world.metrics.mean_throughput(40, 160);
            row.push((p.tps - measured).max(0.0));
        }
        println!("{:>6.1} {:>12.0} {:>12.0}", skew, row[0], row[1]);
    }
    println!("\nExpected shape: deviation grows with skew; DRRS stays at or below Megaphone.");
}
