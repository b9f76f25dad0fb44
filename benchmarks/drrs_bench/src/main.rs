//! `drrs_bench` — the repository's one performance yardstick: five named
//! workloads, end-to-end and per-layer metrics, and a traced run.
//!
//! Three ways in (see `benchmarks/README.md`):
//!
//! * `benchmarks/run.sh [--seed N] [--rounds R] [--smoke] [--strict]` — the
//!   whole suite: interleaved timed rounds of every workload, then a traced
//!   run and a verification pass each; prints every metric and writes
//!   `benchmarks/out/latest.json` and `benchmarks/out/trace-<workload>.json`.
//! * `benchmarks/run.sh --workload W --seed N --seconds S --trace 0|1` — one
//!   run of one workload, whose last line of output is one JSON object; this
//!   is the form `BENCHMARK.json` names.
//! * `--rep W` and `--layers W --base …` — internal: one untraced rep, or the
//!   traced run and verification pass, in this process, reported on stdout
//!   in the line protocols of [`rep`] and [`layers`].

mod gen;
mod host;
mod kernels;
mod layers;
mod metrics;
mod rep;
mod report;
mod run;
mod stats;
mod trace;
mod workloads;

use std::process::{Command, ExitCode};

use layers::{Baseline, LayerReport};
use rep::RepResult;
use report::{Summary, WorkloadReport};

/// The documented default seed, and the one held out: nothing in the
/// benchmark was tuned on the second, so a claim must also hold there.
pub const DEFAULT_SEED: u64 = 1;
pub const HELD_OUT_SEED: u64 = 7919;

/// Rounds of the full suite. Never fewer than [`MIN_ROUNDS`] outside smoke
/// mode: quartiles of fewer values say little.
const DEFAULT_ROUNDS: usize = 9;
const MIN_ROUNDS: usize = 7;

/// Untraced reps a `--trace 1` run takes first, as the base of its shares.
const TRACE_BASE_REPS: usize = 3;

/// How long one `--trace 0` run measures, in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 15;

const OUT_DIR: &str = "benchmarks/out";

enum Mode {
    Suite {
        seed: u64,
        rounds: usize,
        smoke: bool,
        strict: bool,
    },
    One {
        workload: String,
        seed: u64,
        seconds: u64,
        trace: bool,
    },
    Rep {
        workload: String,
        seed: u64,
        smoke: bool,
    },
    Layers {
        workload: String,
        seed: u64,
        smoke: bool,
        base: Baseline,
    },
    PrintBenchmarkJson,
}

fn usage() -> String {
    format!(
        "usage: benchmarks/run.sh [--seed N] [--rounds R] [--smoke] [--strict]\n\
         \x20      benchmarks/run.sh --workload W --seed N --seconds S --trace 0|1\n\
         workloads: {}\n\
         default seed {DEFAULT_SEED}, held-out seed {HELD_OUT_SEED}; \
         --rounds at least {MIN_ROUNDS}; --smoke: 1 round, 1/10 horizons",
        workloads::NAMES.join(" ")
    )
}

fn parse(args: &[String]) -> Result<Mode, String> {
    let mut seed = DEFAULT_SEED;
    let mut rounds = None;
    let (mut smoke, mut strict, mut print) = (false, false, false);
    let (mut workload, mut rep, mut seconds, mut trace) = (None, None, None, None);
    let (mut layers, mut base) = (None, None);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{a} takes {what}"))
                .map(String::as_str)
        };
        let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{a} {v:?}: {e}"));
        let known = |w: &str| {
            if workloads::NAMES.contains(&w) {
                Ok(w.to_string())
            } else {
                Err(format!("unknown workload {w:?}"))
            }
        };
        match a.as_str() {
            "--seed" => seed = number(value("a number")?)?,
            "--rounds" => rounds = Some(number(value("a number")?)? as usize),
            "--seconds" => seconds = Some(number(value("a number")?)?),
            "--trace" => {
                trace = Some(match value("0 or 1")? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other:?}: expected 0 or 1")),
                })
            }
            "--workload" => workload = Some(known(value("a workload name")?)?),
            "--rep" => rep = Some(known(value("a workload name")?)?),
            "--layers" => layers = Some(known(value("a workload name")?)?),
            "--base" => base = Some(Baseline::from_arg(value("a baseline")?)?),
            "--smoke" => smoke = true,
            "--strict" => strict = true,
            "--print-benchmark-json" => print = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if print {
        return Ok(Mode::PrintBenchmarkJson);
    }
    if let Some(workload) = rep {
        return Ok(Mode::Rep {
            workload,
            seed,
            smoke,
        });
    }
    if let Some(workload) = layers {
        return Ok(Mode::Layers {
            workload,
            seed,
            smoke,
            base: base.ok_or("--layers needs --base")?,
        });
    }
    if let Some(workload) = workload {
        let seconds = seconds.ok_or("--workload needs --seconds")?;
        if !(1..=60).contains(&seconds) {
            return Err(format!("--seconds {seconds}: expected 1 to 60"));
        }
        return Ok(Mode::One {
            workload,
            seed,
            seconds,
            trace: trace.ok_or("--workload needs --trace")?,
        });
    }
    if seconds.is_some() || trace.is_some() {
        return Err("--seconds and --trace go with --workload".into());
    }
    let rounds = match (rounds, smoke) {
        (None, true) => 1,
        (None, false) => DEFAULT_ROUNDS,
        (Some(r), true) if r >= 1 => r,
        (Some(r), false) if r >= MIN_ROUNDS => r,
        (Some(r), _) => {
            return Err(format!(
                "--rounds {r}: at least {MIN_ROUNDS} (1 with --smoke)"
            ))
        }
    };
    Ok(Mode::Suite {
        seed,
        rounds,
        smoke,
        strict,
    })
}

/// Run this binary again with `args` in a child process, wait for it, and
/// return what it printed.
fn spawn(what: &str, args: &[&str]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .output()
        .map_err(|e| format!("starting {what}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{what} ended with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

/// One untraced rep of `workload` in a process of its own.
fn spawn_rep(workload: &str, seed: u64, smoke: bool) -> Result<RepResult, String> {
    let what = format!("a rep of {workload} (seed {seed})");
    let seed = seed.to_string();
    let mut args = vec!["--rep", workload, "--seed", &seed];
    if smoke {
        args.push("--smoke");
    }
    RepResult::parse(&spawn(&what, &args)?).map_err(|e| format!("{what}: {e}"))
}

/// The traced run and verification pass of `workload` in a process of its
/// own; the child writes the trace file itself.
fn spawn_layers(
    workload: &str,
    seed: u64,
    smoke: bool,
    base: Baseline,
) -> Result<LayerReport, String> {
    let what = format!("the traced run of {workload} (seed {seed})");
    let (seed, base) = (seed.to_string(), base.to_arg());
    let mut args = vec!["--layers", workload, "--seed", &seed, "--base", &base];
    if smoke {
        args.push("--smoke");
    }
    LayerReport::parse(&spawn(&what, &args)?).map_err(|e| format!("{what}: {e}"))
}

fn write_out(name: &str, text: &str) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let path = format!("{OUT_DIR}/{name}");
    std::fs::write(&path, text).map_err(|e| format!("{path}: {e}"))
}

/// Traced run + verification pass of one workload on top of its timed reps.
fn with_layers(
    workload: &str,
    seed: u64,
    smoke: bool,
    reps: Vec<RepResult>,
) -> Result<WorkloadReport, String> {
    let summary = Summary::of(seed, reps);
    let layer = spawn_layers(workload, seed, smoke, summary.baseline())?;
    Ok(WorkloadReport::new(workload, summary, Some(layer)))
}

fn one(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<bool, String> {
    let mut reps = Vec::new();
    let report = if trace {
        for _ in 0..TRACE_BASE_REPS {
            reps.push(spawn_rep(workload, seed, false)?);
        }
        with_layers(workload, seed, false, reps)?
    } else {
        // Measure for `seconds` of timed work, in whole reps.
        let budget = seconds * 1_000_000_000;
        let mut used = 0;
        while used < budget || reps.len() < 3 {
            let r = spawn_rep(workload, seed, false)?;
            used += r.wall_ns;
            reps.push(r);
        }
        WorkloadReport::new(workload, Summary::of(seed, reps), None)
    };
    report.print_failed_checks();
    println!("{}", report.contract_line(trace));
    Ok(report.failed() == 0)
}

fn suite(seed: u64, rounds: usize, smoke: bool, strict: bool) -> Result<bool, String> {
    let load1_start = host::load1();
    let mut reps: Vec<Vec<RepResult>> = workloads::NAMES.iter().map(|_| Vec::new()).collect();
    // Round-robin: a burst of host noise lands on one rep of every workload,
    // not on all reps of one.
    for round in 0..rounds {
        for (w, name) in workloads::NAMES.iter().enumerate() {
            eprintln!("round {}/{rounds}: {name}", round + 1);
            reps[w].push(spawn_rep(name, seed, smoke)?);
        }
    }
    let mut reports = Vec::new();
    for (name, reps) in workloads::NAMES.iter().zip(reps) {
        eprintln!("traced run and verification pass: {name}");
        reports.push(with_layers(name, seed, smoke, reps)?);
    }
    for r in &reports {
        r.print();
    }
    let failed: u64 = reports.iter().map(|r| r.failed()).sum();
    let attempted: u64 = reports.iter().map(|r| r.attempted()).sum();
    println!(
        "seed {seed}: {attempted} checks attempted, {failed} failed; checks_failed_share {:?}",
        metrics::ratio(failed as f64, attempted as f64)
    );
    write_out(
        "latest.json",
        &report::suite_json(seed, rounds, smoke, load1_start, &reports),
    )?;
    println!("wrote {OUT_DIR}/latest.json and {OUT_DIR}/trace-<workload>.json");
    Ok(failed == 0 || !strict)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match parse(&args) {
        Err(e) => {
            eprintln!("drrs_bench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
        Ok(Mode::PrintBenchmarkJson) => {
            print!("{}", report::benchmark_json());
            Ok(true)
        }
        Ok(Mode::Rep {
            workload,
            seed,
            smoke,
        }) => {
            print!("{}", rep::run_rep(&workload, seed, smoke).to_lines());
            Ok(true)
        }
        Ok(Mode::Layers {
            workload,
            seed,
            smoke,
            base,
        }) => {
            let (report, trace) = layers::layers(&workload, seed, smoke, &base);
            print!("{}", report.to_lines());
            write_out(&format!("trace-{workload}.json"), &trace).map(|()| true)
        }
        Ok(Mode::One {
            workload,
            seed,
            seconds,
            trace,
        }) => one(&workload, seed, seconds, trace),
        Ok(Mode::Suite {
            seed,
            rounds,
            smoke,
            strict,
        }) => suite(seed, rounds, smoke, strict),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("drrs_bench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_contract_command_line_parses() {
        match parse(&args("--workload steady --seed 42 --seconds 10 --trace 1")).unwrap() {
            Mode::One {
                workload,
                seed,
                seconds,
                trace,
            } => assert_eq!(
                (workload.as_str(), seed, seconds, trace),
                ("steady", 42, 10, true)
            ),
            _ => panic!("expected a single run"),
        }
    }

    #[test]
    fn suite_defaults_and_smoke() {
        match parse(&[]).unwrap() {
            Mode::Suite {
                seed,
                rounds,
                smoke,
                strict,
            } => assert_eq!(
                (seed, rounds, smoke, strict),
                (DEFAULT_SEED, DEFAULT_ROUNDS, false, false)
            ),
            _ => panic!("expected the suite"),
        }
        match parse(&args("--smoke --strict --seed 7919")).unwrap() {
            Mode::Suite {
                rounds,
                smoke,
                strict,
                seed,
            } => {
                assert_eq!(
                    (seed, rounds, smoke, strict),
                    (HELD_OUT_SEED, 1, true, true)
                )
            }
            _ => panic!("expected the suite"),
        }
    }

    #[test]
    fn bad_command_lines_are_errors_not_panics() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload steady --seed 1 --trace 0",
            "--workload steady --seed 1 --seconds 0 --trace 0",
            "--workload steady --seed 1 --seconds 61 --trace 0",
            "--workload steady --seed 1 --seconds 5 --trace 2",
            "--seed",
            "--seed x",
            "--rounds 3",
            "--seconds 5",
            "--frobnicate",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad}");
        }
    }
}
