//! The seven-operator Twitch viewer-engagement pipeline with a mid-run
//! DRRS rescale, demonstrating subscale scheduling on a realistic DAG
//! (stateless parsing, two keyed stages, a re-key, and the bottleneck
//! loyalty aggregation).
//!
//! ```bash
//! cargo run --release --example twitch_pipeline
//! ```

use drrs_repro::drrs::{FlexScaler, MechanismConfig};
use drrs_repro::engine::world::Sim;
use drrs_repro::sim::time::secs;
use drrs_repro::workloads::twitch::{twitch, twitch_engine_config, TwitchParams};

fn main() {
    let params = TwitchParams {
        events: 1_500_000,
        duration_s: 360,
        parallelism: 8,
        batch: 2,
    };
    let mut cfg = twitch_engine_config(77);
    cfg.check_semantics = true;
    let (mut world, loyalty) = twitch(cfg, &params);
    println!("pipeline operators:");
    for op in &world.ops {
        println!("  {:<12} x{} ({:?})", op.name, op.instances.len(), op.role);
    }

    // Scale the loyalty stage 8 → 12 at t = 90 s with 8 subscales.
    world.schedule_scale(secs(90), loyalty, 12);
    let mech = MechanismConfig {
        subscale_count: 8,
        ..MechanismConfig::drrs()
    };
    let mut sim = Sim::new(world, Box::new(FlexScaler::new(mech)));

    // Watch the scale proceed.
    for t in [80u64, 95, 100, 110, 130, 180] {
        sim.run_until(secs(t));
        let w = &sim.world;
        let units = w.scale.metrics.units.rows();
        let installed = units.iter().filter(|r| r.installed.is_some()).count();
        let planned = w.scale.plan.as_ref().map(|p| p.moves.len()).unwrap_or(0);
        let (_, avg) = w
            .metrics
            .latency_stats_ms(secs(t.saturating_sub(5)), secs(t));
        println!(
            "t={t:>3}s  migrated {installed:>3}/{planned:>3} key-groups  \
             latency≈{avg:>7.1} ms  suspension={:>6.0} ms",
            w.ops[loyalty.0 as usize]
                .instances
                .iter()
                .map(|&i| w.insts[i.0 as usize].suspension_as_of(w.now()))
                .sum::<u64>() as f64
                / 1e3,
        );
    }

    let w = &sim.world;
    println!(
        "\nscale finished at {:?} s",
        w.scale.metrics.migration_done.map(|t| t / 1_000_000)
    );
    println!(
        "bytes migrated: {:.1} MB",
        w.scale.metrics.bytes_transferred as f64 / 1e6
    );
    println!("order violations: {}", w.semantics.violations());
    assert_eq!(w.semantics.violations(), 0);
}
