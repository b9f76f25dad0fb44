//! `scenario` — the registry/runner CLI: list, run and digest-check named
//! scenarios, and render the paper's figures from them.
//!
//! ```bash
//! scenario --list                      # every registered name
//! scenario --run perf/steady_50k       # one run; prints a digest line
//! scenario --group perf                # run a whole group, one line each
//! scenario --group perf --threads 4    # pin the worker pool to 4 threads
//! scenario --run NAME --regions 2 --resume-latency 100 --threads 2
//!                                      # thread-per-region parallel PDES run
//! scenario --run NAME --sync-stats     # also print region/sync accounting
//! scenario --group perf --check crates/bench/golden/perf_digests.txt
//!                                      # the cross-build digest pin
//! scenario --figure fig15 --threads 2  # run a figure's grid and render it
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
//! `--regions`/`--resume-latency`. With `--group` or `--figure`,
//! `--threads N` pins the worker pool (default: one worker per available
//! CPU); each worker still runs one sequential sim.
//! `--sync-stats` appends a second, equally deterministic line per run with
//! the per-region event counts, the region-scheduler (sequential) or
//! epoch (parallel) synchronization counters, and the number of events
//! the bus published (`bus_published`, 0 without `--events`) — every
//! number on it is reproducible, so two `--sync-stats` runs diff clean.
//! `--events FILE` turns on the event bus's in-memory sink and, after the
//! run, writes its log as JSONL, one event a line and every published
//! event once: the sequential engine's log in publish order (its `at`
//! never decreases), or a `--threads N` run's `(at, region)`-merged
//! per-region logs. Both engines print `wrote FILE (N events)` on stderr,
//! and a write error exits 2 naming the file. Each engine's stream is
//! byte-deterministic across reruns. The two engines agree on every
//! backpressure, scale and checkpoint event and on region-0 instances'
//! metrics ticks; the parallel executor ticks region-0 instances only, and
//! its `sync_epoch` events carry epoch counters where the sequential
//! engine's carry region-scheduler counters.
//! `QUICK=1` compresses the grids as everywhere else.
//!
//! `--group PREFIX --check FILE` runs the group on its full timelines
//! against a golden digest file (`bench::scenario::golden`), PDES rows on
//! both engines: exit 1 names the scenario that differs with its expected
//! and actual digest; exit 2 is a file the checker refuses (malformed,
//! duplicate, unknown or missing row). The rows carry their own partition,
//! so `--check` takes no other flag. A scenario with a scale plan cannot
//! run in PDES mode and is rejected up front (`--group`: the first one).
//!
//! `--figure NAME` runs the grid of one of the paper's figures (the
//! registry groups `fig02`, `fig10_11`, `fig12_13`, `fig14`, `fig15` and
//! `ablation`; see `bench::scenario::figures`) and prints the figure,
//! byte-identically at every `--threads N`. The QUICK text of each figure
//! is pinned in `crates/bench/golden/figures/NAME.txt`.

use bench::quick;
use bench::scenario::{figures, golden, registry, run_all, RunReport, ScenarioSpec};
use streamflow::{BusEvent, BusSinkKind};

const USAGE: &str = "usage: scenario --list | --run NAME [--events FILE] | --group PREFIX\n\
     \x20       [--regions K --resume-latency MICROS] [--threads N] [--sync-stats]\n\
     \x20      scenario --group PREFIX --check GOLDEN_FILE\n\
     \x20      scenario --figure NAME [--threads N]\n\
     (figures: fig02 fig10_11 fig12_13 fig14 fig15 ablation;\n\
     \x20QUICK=1 in the environment compresses timelines)";

/// Refuse a run that cannot go ahead: message, exit 2.
fn fail(msg: &str) -> ! {
    eprintln!("scenario: {msg}");
    std::process::exit(2);
}

/// Reject a malformed request: message, usage, exit 2.
fn usage_exit(msg: &str) -> ! {
    fail(&format!("{msg}\n{USAGE}"));
}

/// Write a run's bus events to its `--events` file, one JSON line each.
fn write_events(path: &str, file: std::fs::File, events: &[BusEvent]) {
    use std::io::Write as _;
    let mut out = std::io::BufWriter::new(file);
    events
        .iter()
        .try_for_each(|ev| ev.write_jsonl(&mut out))
        .and_then(|()| out.flush())
        .unwrap_or_else(|e| fail(&format!("--events {path}: {e}")));
    eprintln!("scenario: wrote {path} ({} events)", events.len());
}

/// Refuse, before any run, a spec whose engine config does not
/// validate, naming the scenario and the field. Registry specs validate
/// as written (a test checks every one); `--regions` can break that.
fn reject_invalid_configs(specs: &[ScenarioSpec]) {
    for s in specs {
        if let Err(e) = s.engine_config().validate() {
            usage_exit(&format!("{}: {e}", s.name));
        }
    }
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
    figure: Option<String>,
    events: Option<String>,
    check: Option<String>,
    regions: Option<usize>,
    threads: Option<usize>,
    resume_latency: Option<u64>,
    sync_stats: bool,
}

impl Opts {
    /// `spec` on the requested `--regions` and `--resume-latency`.
    fn partition(&self, spec: ScenarioSpec) -> ScenarioSpec {
        let regions = self.regions.unwrap_or(spec.regions);
        let resume_latency = self.resume_latency.unwrap_or(spec.resume_latency);
        spec.with_regions(regions)
            .with_resume_latency(resume_latency)
    }
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts::default();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--list" => o.list = true,
            "--sync-stats" => o.sync_stats = true,
            "--run" | "--group" | "--figure" | "--events" | "--check" | "--regions"
            | "--threads" | "--resume-latency" => {
                let v = bench::flag_value(args, i)?;
                match flag {
                    "--run" => o.run = Some(v.to_string()),
                    "--group" => o.group = Some(v.to_string()),
                    "--figure" => o.figure = Some(v.to_string()),
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
    if let Some(name) = o.figure.as_deref().filter(|n| !figures::NAMES.contains(n)) {
        return Err(format!(
            "unknown figure {name:?}: the figures are the registry groups {} (see --list)",
            figures::NAMES.join(", ")
        ));
    }
    if o.figure.is_some() {
        let other_mode = o.list || o.run.is_some() || o.group.is_some();
        let per_run = o.events.is_some() || o.regions.is_some() || o.resume_latency.is_some();
        if other_mode || per_run || o.sync_stats {
            return Err("--figure NAME takes only --threads N".into());
        }
    }
    if o.events.is_some() && o.group.is_some() {
        return Err("--events needs a single run (the group's streams \
             would clobber one file); use --run NAME --events FILE"
            .into());
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
             min_rule_grants {} null_msgs {} bus_published {}",
            r.scenario,
            r.region_events,
            r.sync_runs,
            r.merged_runs,
            r.min_rule_grants,
            r.null_msgs,
            r.bus_published
        );
    }
}

/// `--figure NAME`: run the figure's grid and render it.
fn run_figure(name: &str, o: &Opts) {
    let figure = figures::figure(name, quick()).expect("parse_args knows the name");
    figure.render(&run_all(&figure.specs(), o.threads));
}

/// `--run NAME`: one run, sequential or (`--threads N > 1`) on the
/// thread-per-region parallel engine.
fn run_one(name: &str, o: &Opts) {
    let Some(spec) = registry::find(name, quick()) else {
        fail(&format!("unknown scenario {name:?} (see --list)"));
    };
    let mut spec = o.partition(spec);
    if o.events.is_some() {
        spec = spec.with_bus_sink(BusSinkKind::Mem);
    }
    reject_invalid_configs(std::slice::from_ref(&spec));
    reject_scale_under_pdes(std::slice::from_ref(&spec));
    // Created before the run, so a bad path costs no run.
    let events = o.events.as_deref().map(|p| {
        let file = std::fs::File::create(p);
        (
            p,
            file.unwrap_or_else(|e| fail(&format!("--events {p}: {e}"))),
        )
    });
    if o.threads.is_some_and(|t| t > 1) {
        let report = spec.run_threaded();
        if let Some((path, file)) = events {
            write_events(path, file, &report.bus_events);
        }
        println!(
            "{} digest 0x{:016x} events {} sink_records {}",
            spec.name,
            report.digest(),
            report.obs.processed,
            report.obs.sink_records
        );
        if o.sync_stats {
            println!(
                "{} threads {} region_events {:?} epochs {} busy_epochs {} \
                 msgs_sent {} msgs_overflowed {} bus_published {}",
                spec.name,
                report.threads,
                report.per_region_events,
                report.stats.epochs,
                report.stats.busy_epochs,
                report.stats.msgs_sent,
                report.stats.msgs_overflowed,
                report.bus.published
            );
        }
        return;
    }
    let (report, log) = spec.run_logged();
    if let Some((path, file)) = events {
        write_events(path, file, &log);
    }
    print_report(&report, o.sync_stats);
}

/// `--group PREFIX`: run every matching scenario, one digest line each.
fn run_group(prefix: &str, o: &Opts) {
    let specs: Vec<_> = registry::all(quick())
        .into_iter()
        .filter(|s| s.name.starts_with(prefix))
        .map(|s| o.partition(s))
        .collect();
    if specs.is_empty() {
        fail(&format!(
            "no scenarios match prefix {prefix:?} (see --list)"
        ));
    }
    reject_invalid_configs(&specs);
    reject_scale_under_pdes(&specs);
    for r in &run_all(&specs, o.threads) {
        print_report(r, o.sync_stats);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = parse_args(&args).unwrap_or_else(|e| usage_exit(&e));
    if o.list {
        for s in registry::all(quick()) {
            println!("{}", s.name);
        }
    } else if let Some(name) = &o.figure {
        run_figure(name, &o);
    } else if let Some(name) = &o.run {
        run_one(name, &o);
    } else if let Some(prefix) = &o.group {
        match &o.check {
            Some(path) => check_group(prefix, path),
            None => run_group(prefix, &o),
        }
    } else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
}
