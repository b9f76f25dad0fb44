//! `drrs-sim` — a small CLI for running any workload × mechanism × scale
//! combination and printing a full report. The tool a downstream user
//! reaches for before wiring the library into their own harness.
//!
//! ```bash
//! cargo run --release -p bench --bin drrs_sim -- \
//!     --workload q7 --mechanism drrs --rate 10000 \
//!     --from 8 --to 12 --scale-at 60 --horizon 180 --seed 1
//! ```

use baselines::{
    megaphone, otfs_all_at_once, otfs_fluid, MecesPlugin, StopRestartPlugin, UnboundPlugin,
};
use drrs_core::{FlexScaler, MechanismConfig};
use simcore::time::secs;
use streamflow::world::Sim;
use streamflow::{NoScale, OpId, ScalePlugin, World};
use workloads::custom::{cluster_engine_config, custom, CustomParams};
use workloads::nexmark::{nexmark_engine_config, q7, q8, Q7Params, Q8Params};
use workloads::twitch::{twitch, twitch_engine_config, TwitchParams};

struct Args {
    workload: String,
    mechanism: String,
    rate: f64,
    from: usize,
    to: usize,
    scale_at: u64,
    horizon: u64,
    seed: u64,
    skew: f64,
    state_gb: u64,
}

const USAGE: &str = "usage: drrs_sim [--workload q7|q8|twitch|custom] \
     [--mechanism drrs|dr|schedule|subscale|otfs|otfs-aao|megaphone|meces|unbound|stop-restart|none] \
     [--rate N] [--from N] [--to N] [--scale-at S] [--horizon S] \
     [--seed N] [--skew F] [--state-gb N]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: "q7".into(),
        mechanism: "drrs".into(),
        rate: 10_000.0,
        from: 8,
        to: 12,
        scale_at: 60,
        horizon: 180,
        seed: 1,
        skew: 0.0,
        state_gb: 5,
    };
    let mut i = 0;
    while i < argv.len() {
        let key = argv[i].as_str();
        match key {
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            "--workload" | "--mechanism" | "--rate" | "--from" | "--to" | "--scale-at"
            | "--horizon" | "--seed" | "--skew" | "--state-gb" => {
                let val = bench::flag_value(argv, i)?;
                match key {
                    "--workload" => a.workload = val.to_string(),
                    "--mechanism" => a.mechanism = val.to_string(),
                    "--rate" => a.rate = bench::parse_value(key, val)?,
                    "--from" => a.from = bench::parse_value(key, val)?,
                    "--to" => a.to = bench::parse_value(key, val)?,
                    "--scale-at" => a.scale_at = bench::parse_value(key, val)?,
                    "--horizon" => a.horizon = bench::parse_value(key, val)?,
                    "--seed" => a.seed = bench::parse_value(key, val)?,
                    "--skew" => a.skew = bench::parse_value(key, val)?,
                    _ => a.state_gb = bench::parse_value(key, val)?,
                }
                i += 1;
            }
            other => return Err(format!("unknown flag {other}")),
        }
        i += 1;
    }
    Ok(a)
}

fn build_workload(a: &Args) -> Result<(World, OpId), String> {
    Ok(match a.workload.as_str() {
        "q7" => {
            let mut cfg = nexmark_engine_config(a.seed);
            cfg.check_semantics = true;
            q7(
                cfg,
                &Q7Params {
                    tps: a.rate,
                    parallelism: a.from,
                    ..Default::default()
                },
            )
        }
        "q8" => {
            let mut cfg = nexmark_engine_config(a.seed);
            cfg.check_semantics = true;
            q8(
                cfg,
                &Q8Params {
                    tps: a.rate,
                    parallelism: a.from,
                    ..Default::default()
                },
            )
        }
        "twitch" => {
            let mut cfg = twitch_engine_config(a.seed);
            cfg.check_semantics = true;
            twitch(
                cfg,
                &TwitchParams {
                    events: (a.rate * a.horizon as f64) as u64,
                    duration_s: a.horizon,
                    parallelism: a.from,
                    batch: 2,
                },
            )
        }
        "custom" => {
            let mut cfg = cluster_engine_config(a.seed);
            cfg.check_semantics = true;
            custom(
                cfg,
                &CustomParams {
                    tps: a.rate,
                    total_state_bytes: a.state_gb * 1_000_000_000,
                    skew: a.skew,
                    parallelism: a.from,
                    ..Default::default()
                },
            )
        }
        other => return Err(format!("unknown workload {other:?}")),
    })
}

fn build_mechanism(name: &str) -> Result<Box<dyn ScalePlugin>, String> {
    Ok(match name {
        "drrs" => Box::new(FlexScaler::drrs()),
        "dr" => Box::new(FlexScaler::new(MechanismConfig::dr_only())),
        "schedule" => Box::new(FlexScaler::new(MechanismConfig::schedule_only())),
        "subscale" => Box::new(FlexScaler::new(MechanismConfig::subscale_only())),
        "otfs" => Box::new(otfs_fluid()),
        "otfs-aao" => Box::new(otfs_all_at_once()),
        "megaphone" => Box::new(megaphone(1)),
        "meces" => Box::new(MecesPlugin::new()),
        "unbound" => Box::new(UnboundPlugin::new()),
        "stop-restart" => Box::new(StopRestartPlugin::new()),
        "none" => Box::new(NoScale),
        other => return Err(format!("unknown mechanism {other:?}")),
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Flags, values, workload and mechanism names: all rejected before a run.
    let (plugin, (mut world, op), a) = parse_args(&argv)
        .and_then(|a| Ok((build_mechanism(&a.mechanism)?, build_workload(&a)?, a)))
        .unwrap_or_else(|e| {
            eprintln!("drrs_sim: {e}\n{USAGE}");
            std::process::exit(2);
        });
    if a.mechanism != "none" && a.to != a.from {
        world.schedule_scale(secs(a.scale_at), op, a.to);
    }
    let mut sim = Sim::new(world, plugin);
    sim.run_until(secs(a.horizon));

    let w = &sim.world;
    let sm = &w.scale.metrics;
    println!("== drrs-sim report ==");
    println!(
        "workload {} · mechanism {} · {} -> {} instances at {} s · seed {}",
        a.workload,
        sim.plugin.name(),
        a.from,
        a.to,
        a.scale_at,
        a.seed
    );
    println!();
    println!("sink records            : {}", w.metrics.sink_records);
    let (peak, avg) = w
        .metrics
        .latency_stats_ms(secs(a.scale_at), secs(a.horizon));
    println!("latency (scaling window): peak {peak:.1} ms, avg {avg:.1} ms");
    for q in [0.5, 0.9, 0.99] {
        if let Some(v) = w.metrics.latency_quantile_ms(q) {
            println!("latency p{:<4}           : {v:.1} ms", (q * 100.0) as u32);
        }
    }
    if a.mechanism != "none" {
        println!(
            "migration               : {} key-groups, {:.1} MB, done at {:?} s",
            w.scale.plan.as_ref().map(|p| p.moves.len()).unwrap_or(0),
            sm.bytes_transferred as f64 / 1e6,
            sm.migration_done.map(|t| t / 1_000_000)
        );
        println!(
            "propagation delay  (Lp) : {:.1} ms",
            sm.cumulative_propagation_delay() as f64 / 1e3
        );
        println!(
            "dependency overhead(Ld) : {:.1} ms",
            sm.avg_dependency_overhead() / 1e3
        );
        let susp: u64 = w.ops[op.0 as usize]
            .instances
            .iter()
            .map(|&i| w.insts[i.0 as usize].suspension_as_of(w.now()))
            .sum();
        println!("suspension         (Ls) : {:.1} ms", susp as f64 / 1e3);
        let (churn_avg, churn_max) = sm.migration_churn();
        if churn_max > 1 {
            println!("migration churn         : avg {churn_avg:.2}x, max {churn_max}x");
        }
    }
    println!("order violations        : {}", w.semantics.violations());
}
