//! `drrs-sim` — a small CLI for running any workload × mechanism × scale
//! combination and printing a full report. The tool a downstream user
//! reaches for before wiring the library into their own harness. The flags
//! become a `ScenarioSpec` with the semantics checker on; mechanism names
//! are `MechanismSpec::parse`'s. Every number printed is read from the
//! run's `RunReport`, including the sink-content hash (`sink hash`), equal
//! to `ScenarioSpec::run().sink_hash` for the same spec.
//!
//! ```bash
//! cargo run --release -p bench --bin drrs_sim -- \
//!     --workload q7 --mechanism drrs --rate 10000 \
//!     --from 8 --to 12 --scale-at 60 --horizon 180 --seed 1
//! ```

use bench::scenario::{
    EngineProfile, MechanismSpec, RunReport, ScaleSpec, ScenarioSpec, WorkloadSpec,
};
use simcore::time::secs;
use workloads::custom::CustomParams;
use workloads::nexmark::{Q7Params, Q8Params};
use workloads::twitch::TwitchParams;

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
     [--mechanism drrs|dr|schedule|subscale|otfs|megaphone|meces|unbound|stop-restart|none] \
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
                    "--rate" => {
                        a.rate = checked(key, val, "a finite number > 0", |r: &f64| {
                            r.is_finite() && *r > 0.0
                        })?
                    }
                    "--from" => a.from = checked(key, val, "at least 1", |&n: &usize| n >= 1)?,
                    "--to" => a.to = checked(key, val, "at least 1", |&n: &usize| n >= 1)?,
                    "--scale-at" => {
                        a.scale_at = checked(key, val, "at most 18446744073709", fits_sim_time)?
                    }
                    "--horizon" => {
                        a.horizon = checked(key, val, "between 1 and 18446744073709", |s| {
                            *s >= 1 && fits_sim_time(s)
                        })?
                    }
                    "--seed" => a.seed = bench::parse_value(key, val)?,
                    "--skew" => {
                        a.skew = checked(key, val, "a finite number >= 0", |k: &f64| {
                            k.is_finite() && *k >= 0.0
                        })?
                    }
                    _ => {
                        a.state_gb = checked(
                            key,
                            val,
                            "at most 18446744073 (bytes fit in u64)",
                            |g: &u64| g.checked_mul(BYTES_PER_GB).is_some(),
                        )?
                    }
                }
                i += 1;
            }
            other => return Err(format!("unknown flag {other}")),
        }
        i += 1;
    }
    Ok(a)
}

const BYTES_PER_GB: u64 = 1_000_000_000;

/// Do `s` seconds fit in a [`SimTime`](simcore::SimTime)?
fn fits_sim_time(s: &u64) -> bool {
    s.checked_mul(secs(1)).is_some()
}

/// `val` parsed as `flag`'s value, refused unless `ok` holds (`need` says
/// what it requires): a non-finite or out-of-range number would otherwise
/// run a degenerate timeline or panic inside the engine.
fn checked<T: std::str::FromStr>(
    flag: &str,
    val: &str,
    need: &str,
    ok: impl Fn(&T) -> bool,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let v = bench::parse_value(flag, val)?;
    if ok(&v) {
        Ok(v)
    } else {
        Err(format!("{flag} {val:?}: must be {need}"))
    }
}

/// The run the flags describe, with the semantics checker on.
fn scenario(a: &Args) -> Result<ScenarioSpec, String> {
    let mechanism = MechanismSpec::parse(&a.mechanism)?;
    let (engine, workload) = match a.workload.as_str() {
        "q7" => (
            EngineProfile::Nexmark,
            WorkloadSpec::Q7(Q7Params {
                tps: a.rate,
                parallelism: a.from,
                ..Default::default()
            }),
        ),
        "q8" => (
            EngineProfile::Nexmark,
            WorkloadSpec::Q8(Q8Params {
                tps: a.rate,
                parallelism: a.from,
                ..Default::default()
            }),
        ),
        "twitch" => (
            EngineProfile::Twitch,
            WorkloadSpec::Twitch(TwitchParams {
                events: (a.rate * a.horizon as f64) as u64,
                duration_s: a.horizon,
                parallelism: a.from,
                batch: 2,
            }),
        ),
        "custom" => (
            EngineProfile::Cluster,
            WorkloadSpec::Custom(CustomParams {
                tps: a.rate,
                total_state_bytes: a.state_gb * BYTES_PER_GB,
                skew: a.skew,
                parallelism: a.from,
                ..Default::default()
            }),
        ),
        other => return Err(format!("unknown workload {other:?}")),
    };
    let scale = (a.mechanism != "none" && a.to != a.from).then(|| ScaleSpec {
        at: secs(a.scale_at),
        to: a.to,
    });
    if scale.is_some() && a.scale_at >= a.horizon {
        return Err(format!(
            "--scale-at {} is not before --horizon {}: the scale plan would never fire",
            a.scale_at, a.horizon
        ));
    }
    Ok(ScenarioSpec {
        name: format!("drrs_sim/{}/{}", a.workload, a.mechanism),
        engine,
        check_semantics: true,
        seed: a.seed,
        workload,
        mechanism,
        scale,
        horizon: secs(a.horizon),
        regions: 1,
        resume_latency: 0,
        bus_sink: Default::default(),
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Flags, values, workload and mechanism names, and the engine config
    // the spec builds: all rejected before a run.
    let (spec, a) = parse_args(&argv)
        .and_then(|a| {
            let spec = scenario(&a)?;
            spec.engine_config().validate().map_err(|e| e.to_string())?;
            Ok((spec, a))
        })
        .unwrap_or_else(|e| {
            eprintln!("drrs_sim: {e}\n{USAGE}");
            std::process::exit(2);
        });
    let (mut sim, op) = spec.build_sim();
    sim.run_until(spec.horizon);
    let r = RunReport::harvest(&spec, &sim, op);

    println!("== drrs-sim report ==");
    let scale = match spec.scale {
        Some(_) => format!("{} -> {} instances at {} s", a.from, a.to, a.scale_at),
        None => format!("{} instances, no scale", a.from),
    };
    println!(
        "workload {} · mechanism {} · {scale} · seed {}",
        a.workload,
        sim.plugin.name(),
        a.seed
    );
    println!();
    println!("sink records            : {}", r.sink_records);
    println!("sink hash               : 0x{:016x}", r.sink_hash);
    let (peak, avg) = r.latency_ms(secs(a.scale_at), r.horizon);
    println!("latency (scaling window): peak {peak:.1} ms, avg {avg:.1} ms");
    for q in [0.5, 0.9, 0.99] {
        if let Some(v) = r.latency_quantile_ms(q) {
            println!("latency p{:<4}           : {v:.1} ms", (q * 100.0) as u32);
        }
    }
    if spec.scale.is_some() {
        println!(
            "migration               : {} key-groups, {:.1} MB, done at {:?} s",
            r.planned_moves,
            r.bytes_transferred as f64 / 1e6,
            r.migration_done.map(|t| t / 1_000_000)
        );
        println!("propagation delay  (Lp) : {:.1} ms", r.lp_ms);
        println!("dependency overhead(Ld) : {:.1} ms", r.ld_ms);
        println!("suspension         (Ls) : {:.1} ms", r.suspension_ms);
        if r.churn_max > 1 {
            println!(
                "migration churn         : avg {:.2}x, max {}x",
                r.churn_avg, r.churn_max
            );
        }
    }
    println!("order violations        : {}", r.violations);
}
