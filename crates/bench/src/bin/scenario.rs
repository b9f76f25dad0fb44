//! `scenario` — the registry/runner CLI: list, run, and digest-check named
//! scenarios without going through a figure binary.
//!
//! ```bash
//! scenario --list                      # every registered name
//! scenario --run perf/steady_50k       # one run; prints a digest line
//! scenario --run NAME --emit report.json   # also write the RunReport JSON
//! scenario --group perf                # run a whole group, one line each
//! scenario --group perf --threads 4    # pin the worker pool to 4 threads
//! scenario --run NAME --regions 2 --resume-latency 100 --threads 2
//!                                      # thread-per-region parallel PDES run
//! scenario --run NAME --sync-stats     # also print region/sync accounting
//! scenario --group perf --check crates/bench/golden/perf_digests.txt
//!                                      # the cross-build digest pin
//! ```
//!
//! The digest lines on stdout are fully deterministic (`name digest events
//! sink_records`), so `scenario --group perf` run twice and diffed is a
//! process-level determinism smoke — CI's `digest-stability` job uses
//! exactly that. `--regions K` (K > 1) partitions the graph for PDES and
//! therefore needs a positive `--resume-latency`; without one the request
//! is rejected (exit 2) instead of quietly running the sequential engine.
//! Unknown flags, missing values and unparsable values are rejected the
//! same way. With `--run`, `--threads N` (N > 1)
//! executes on the thread-per-region parallel engine instead — the digest
//! line keeps the same format (events = merged processed count), so CI
//! diffs a threaded run directly against the sequential run at the same
//! `--regions`/`--resume-latency`. With `--group`, `--threads N` pins the
//! sweep worker pool (first-class form of the `SWEEP_THREADS` env var,
//! which stays as the fallback); each worker still runs one sequential sim.
//! `--sync-stats` appends a second, equally deterministic line per run with
//! the per-region event counts, the region-scheduler (sequential) or
//! epoch (parallel) synchronization counters, and the bus lag/drop
//! accounting — every number on it is reproducible, so two `--sync-stats`
//! runs diff clean. `--events FILE` turns on the event bus and writes the
//! published stream as JSONL: sequential runs stream through the attached
//! sink-worker thread; `--threads N` runs buffer per region and write the
//! `(at, region)`-merged stream after the join. Each engine's stream is
//! byte-deterministic across reruns (the two engines publish different —
//! but each individually reproducible — telemetry: the parallel executor
//! samples per-epoch sync counters and region-0 metrics ticks only).
//! `QUICK=1` compresses the grids as everywhere else.
//!
//! `--group PREFIX --check FILE` runs the group on its full timelines
//! against a golden digest file (`bench::scenario::golden`), PDES rows on
//! both engines: exit 1 names the scenario that differs with its expected
//! and actual digest; exit 2 is a file the checker refuses (malformed,
//! duplicate, unknown or missing row). The rows carry their own partition,
//! so `--check` takes no other flag. A scenario with a scale plan cannot
//! run in PDES mode and is rejected up front (`--group`: the first one).

use bench::quick;
use bench::scenario::{golden, registry, RunReport, Runner, ScenarioSpec};

const USAGE: &str =
    "usage: scenario --list | --run NAME [--emit FILE] [--events FILE] | --group PREFIX\n\
     \x20       [--regions K --resume-latency MICROS] [--threads N] [--sync-stats]\n\
     \x20      scenario --group PREFIX --check GOLDEN_FILE\n\
     (QUICK=1 in the environment compresses timelines)";

/// Reject a malformed request: message, usage, exit 2.
fn usage_exit(msg: &str) -> ! {
    eprintln!("scenario: {msg}\n{USAGE}");
    std::process::exit(2);
}

/// The engine asserts on a scale plan in PDES mode; refuse the request
/// here, naming the first scenario that carries one.
fn reject_scale_under_pdes(specs: &[ScenarioSpec]) {
    if let Some(s) = specs.iter().find(|s| s.scales_under_pdes()) {
        usage_exit(&format!(
            "{} has a scale plan, which PDES mode (--regions K > 1 with a positive \
             --resume-latency) cannot execute",
            s.name
        ));
    }
}

#[derive(Default)]
struct Opts {
    list: bool,
    run: Option<String>,
    group: Option<String>,
    emit: Option<String>,
    events: Option<String>,
    check: Option<String>,
    regions: Option<usize>,
    threads: Option<usize>,
    resume_latency: Option<u64>,
    sync_stats: bool,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts::default();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--list" => o.list = true,
            "--sync-stats" => o.sync_stats = true,
            "--run" | "--group" | "--emit" | "--events" | "--check" | "--regions" | "--threads"
            | "--resume-latency" => {
                let v = bench::flag_value(args, i)?;
                match flag {
                    "--run" => o.run = Some(v.to_string()),
                    "--group" => o.group = Some(v.to_string()),
                    "--emit" => o.emit = Some(v.to_string()),
                    "--events" => o.events = Some(v.to_string()),
                    "--check" => o.check = Some(v.to_string()),
                    "--regions" => o.regions = Some(bench::parse_value(flag, v)?),
                    "--threads" => o.threads = Some(bench::parse_value(flag, v)?),
                    _ => o.resume_latency = Some(bench::parse_value(flag, v)?),
                }
                i += 1;
            }
            other => return Err(format!("unknown flag {other}")),
        }
        i += 1;
    }
    if o.regions.is_some_and(|k| k > 1) && o.resume_latency.unwrap_or(0) == 0 {
        return Err(
            "--regions K (K > 1) partitions for PDES and needs a positive \
             --resume-latency; without one the engine has a single region"
                .into(),
        );
    }
    if o.check.is_some() {
        // Exactly `--group PREFIX --check FILE`, in either order.
        if o.group.is_none() || args.len() != 4 {
            return Err(
                "--check FILE goes with --group PREFIX and nothing else: the file's \
                 rows carry their own regions and resume latency"
                    .into(),
            );
        }
        if quick() {
            return Err("--check compares full-timeline digests; unset QUICK".into());
        }
    }
    Ok(o)
}

/// `--group PREFIX --check FILE`: exit 0 when every row holds, 1 on a run
/// that differs, 2 on a file that cannot be read or that the checker refuses.
fn check_group(prefix: &str, path: &str) -> ! {
    let group: Vec<_> = registry::all(false)
        .into_iter()
        .filter(|s| s.name.starts_with(prefix))
        .collect();
    let held = std::fs::read_to_string(path)
        .map_err(|e| golden::GoldenError::Refused(format!("unreadable: {e}")))
        .and_then(|text| golden::check(&text, &group));
    match &held {
        Ok(rows) => println!("scenario: all {rows} rows of {path} hold"),
        Err(e) => eprintln!("scenario: {path}: {e}"),
    }
    std::process::exit(match held {
        Ok(_) => 0,
        Err(golden::GoldenError::Mismatch { .. }) => 1,
        Err(golden::GoldenError::Refused(_)) => 2,
    });
}

/// The deterministic digest line of one sequential run, plus the
/// region/sync/bus accounting line under `--sync-stats`.
fn print_report(r: &RunReport, sync_stats: bool) {
    println!(
        "{} digest 0x{:016x} events {} sink_records {}",
        r.scenario, r.digest, r.events, r.sink_records
    );
    if sync_stats {
        println!(
            "{} region_events {:?} sync_runs {} merged_runs {} \
             min_rule_grants {} null_msgs {} bus_published {} \
             bus_dropped {} bus_lag_max {}",
            r.scenario,
            r.region_events,
            r.sync_runs,
            r.merged_runs,
            r.min_rule_grants,
            r.null_msgs,
            r.bus_published,
            r.bus_dropped,
            r.bus_lag_max
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = parse_args(&args).unwrap_or_else(|e| usage_exit(&e));
    let (regions, threads, resume_latency) = (o.regions, o.threads, o.resume_latency);
    let (sync_stats, events_path) = (o.sync_stats, o.events);

    if o.list {
        for s in registry::all(quick()) {
            println!("{}", s.name);
        }
        return;
    }

    if let Some(name) = o.run {
        let Some(mut spec) = registry::find(&name, quick()) else {
            eprintln!("scenario: unknown scenario {name:?} (see --list)");
            std::process::exit(2);
        };
        if let Some(r) = regions {
            spec = spec.with_regions(r);
        }
        if let Some(rl) = resume_latency {
            spec = spec.with_resume_latency(rl);
        }
        if let Some(p) = &events_path {
            spec = spec.with_events_path(p.clone());
        }
        reject_scale_under_pdes(std::slice::from_ref(&spec));
        if threads.map(|t| t > 1).unwrap_or(false) {
            // Thread-per-region parallel execution. There is no merged
            // World to harvest a full RunReport from, so --emit has
            // nothing faithful to write — reject it instead of emitting
            // a partial report.
            if o.emit.is_some() {
                eprintln!(
                    "scenario: --emit is not supported with --threads > 1 \
                     (no merged RunReport exists; drop --threads or --emit)"
                );
                std::process::exit(2);
            }
            let (report, _wall) = spec.run_threaded();
            if let Some(path) = &events_path {
                // Each replica buffered its own region's events; write the
                // (at, region)-merged stream serially — byte-identical to
                // what a sequential run streams through the sink worker.
                let file =
                    std::fs::File::create(path).unwrap_or_else(|e| panic!("creating {path}: {e}"));
                let mut out = std::io::BufWriter::new(file);
                for ev in &report.bus_events {
                    ev.write_jsonl(&mut out)
                        .unwrap_or_else(|e| panic!("writing {path}: {e}"));
                }
                use std::io::Write as _;
                out.flush()
                    .unwrap_or_else(|e| panic!("flushing {path}: {e}"));
                eprintln!(
                    "scenario: wrote {path} ({} events)",
                    report.bus_events.len()
                );
            }
            println!(
                "{} digest 0x{:016x} events {} sink_records {}",
                spec.name,
                report.digest(),
                report.obs.processed,
                report.obs.sink_records
            );
            if sync_stats {
                println!(
                    "{} threads {} region_events {:?} epochs {} busy_epochs {} \
                     msgs_sent {} msgs_overflowed {} bus_published {} bus_dropped {} \
                     bus_lag_max {}",
                    spec.name,
                    report.threads,
                    report.per_region_events,
                    report.stats.epochs,
                    report.stats.busy_epochs,
                    report.stats.msgs_sent,
                    report.stats.msgs_overflowed,
                    report.bus.published,
                    report.bus.dropped,
                    report.bus.lag_max
                );
            }
            return;
        }
        let report = spec.run();
        if let Some(path) = o.emit {
            std::fs::write(&path, report.to_json(""))
                .unwrap_or_else(|e| panic!("writing {path}: {e}"));
            eprintln!("scenario: wrote {path}");
        }
        print_report(&report, sync_stats);
        return;
    }

    if let Some(prefix) = o.group {
        if let Some(path) = &o.check {
            check_group(&prefix, path);
        }
        if events_path.is_some() {
            eprintln!(
                "scenario: --events needs a single run (the group's streams \
                 would clobber one file); use --run NAME --events FILE"
            );
            std::process::exit(2);
        }
        let specs: Vec<_> = registry::all(quick())
            .into_iter()
            .filter(|s| s.name.starts_with(&prefix))
            .map(|s| {
                let s = match regions {
                    Some(r) => s.with_regions(r),
                    None => s,
                };
                match resume_latency {
                    Some(rl) => s.with_resume_latency(rl),
                    None => s,
                }
            })
            .collect();
        if specs.is_empty() {
            eprintln!("scenario: no scenarios match prefix {prefix:?} (see --list)");
            std::process::exit(2);
        }
        reject_scale_under_pdes(&specs);
        let reports = Runner::in_process().with_threads(threads).run(&specs);
        for r in &reports {
            print_report(r, sync_stats);
        }
        return;
    }

    eprintln!("{USAGE}");
    std::process::exit(2);
}
