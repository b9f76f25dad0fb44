//! `perf_report` — the PR-over-PR performance trajectory harness.
//!
//! Runs a fixed scenario matrix (steady-state pipeline, DRRS rescale in
//! progress, Megaphone-style baseline rescale, high-skew overload) and
//! writes a JSON report with, per scenario:
//!
//! * simulated events dispatched and wall-clock time,
//! * events/second of simulated pipeline (the headline number) — events
//!   are *logical*: the engine ships deliveries through the scheduler in
//!   bursts (one entry per send burst, see `Ev::Deliver`), but
//!   `q.processed()` counts every delivered element, so `events` and
//!   events/sec stay comparable with the whole `BENCH_PR*.json` history,
//! * the deterministic metrics digest (same seed ⇒ same digest — any
//!   divergence between two builds signals a semantics change, not just a
//!   perf change),
//! * a peak-RSS proxy (`VmHWM` from `/proc/self/status`, 0 where absent).
//!
//! Usage: `perf_report [--out FILE] [--baseline FILE] [--quick] [--reps N]
//!                     [--sink null|mem|jsonl]
//!                     [--require-digest-match] [--no-parallel]`
//!
//! Anything else on the command line — an unknown flag, a flag missing its
//! value, a value that does not parse — prints the usage and exits 2: a
//! stale invocation must fail, not quietly time something else.
//!
//! The scenario matrix is not private to this binary: it is the `perf/`
//! group of `bench::scenario::registry`, the same named specs the digest
//! tests consume — this binary only owns the timing logic on top.
//! `--require-digest-match` turns the baseline digest comparison into a
//! hard failure (exit 1), which CI uses to pin the current build's
//! scenario digests to the recorded `BENCH_PRn.json` trajectory.
//!
//! Every scenario runs on the sequential engine (one event queue,
//! `resume_latency = 0`) — the engine has one scheduler and one dispatch
//! loop, so there is no grid to sweep. `--reps N` repeats each scenario N
//! times and reports the median events/sec; the process **hard-fails** if
//! a scenario's digest differs between two repetitions.
//!
//! With `--baseline`, the report embeds the baseline's events/sec and the
//! relative improvement, so `BENCH_PRn.json` carries the before/after pair
//! measured on the same machine. Because the scenario matrix grows over
//! PRs, the raw aggregate ratio can compare different scenario sets; the
//! report therefore also emits `comparable_improvement`, computed only
//! over the intersection of scenario names present in both the current
//! run and the baseline (summed events/sec on each side), which is the
//! honest PR-over-PR number. Baselines written by earlier revisions carry
//! extra keys (per-cell A/B figures); the reader ignores them.
//!
//! The report additionally carries the thread-per-region **parallel A/B
//! axis** (disable with `--no-parallel`): the fixed-parallelism 100k
//! scenarios run at `resume_latency = 100 µs` on regions ∈ {2, 4}, once
//! on the sequential PDES engine and once on `run_threaded` (one OS
//! thread per region over the SPSC rings), interleaved. The two engines
//! are required to produce identical digests — a mismatch is a hard
//! failure — and the measured seq/par events/sec pair plus `host_cpus`
//! are recorded as-is: on a single-core host the parallel engine is
//! expected to *lose* (barrier + ring traffic with no extra cores), and
//! the report records that honestly rather than hiding the axis.
//!
//! `--sink null|mem|jsonl` selects the engine event-bus sink for every
//! run (default `null` — bus disabled). Digests are required to be
//! sink-independent, so `--sink mem --require-digest-match` against a
//! `--sink null` baseline is the perf-scale digest-neutrality check, and
//! the events/sec delta against a null-sink report is the measured bus
//! overhead. `jsonl` streams each timed run's events to a temp file
//! through the sink-worker thread (the file is deleted after the run; the
//! point is to pay the real streaming cost, not to keep the stream).

use std::fmt::Write as _;
use std::time::Instant;

use bench::scenario::{registry, ScenarioSpec};
use simcore::time::secs;
use streamflow::BusSinkKind;

/// One timed run of one scenario.
struct RunSample {
    events: u64,
    wall_secs: f64,
    sink_records: u64,
    digest: u64,
}

/// Aggregated per-scenario result: medians over the repetitions.
struct ScenarioResult {
    name: String,
    events: u64,
    wall_secs: f64,
    events_per_sec: f64,
    sink_records: u64,
    digest: u64,
}

fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n.is_multiple_of(2) {
        // True midpoint for even lengths: picking one middle element
        // would let wall_secs and events_per_sec medians come from
        // different runs and stop multiplying out.
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    } else {
        v[n / 2]
    }
}

fn time_run(spec: &ScenarioSpec) -> RunSample {
    let (mut sim, _) = spec.build_sim();
    // A JSONL-sink run pays the real streaming cost: attach the
    // sink-worker thread on a throwaway temp file for the timed window.
    let jsonl_path = (spec.bus_sink == BusSinkKind::Jsonl).then(|| {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "perf_report_bus_{}_{}.jsonl",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        sim.world
            .bus
            .attach_jsonl(&path)
            .unwrap_or_else(|e| panic!("attaching bus sink {}: {e}", path.display()));
        path
    });
    let start = Instant::now();
    sim.run_until(spec.horizon);
    let wall = start.elapsed().as_secs_f64();
    if let Some(path) = jsonl_path {
        sim.world.bus.finish().expect("flush bus sink");
        let _ = std::fs::remove_file(path);
    }
    RunSample {
        events: sim.world.q.processed(),
        wall_secs: wall,
        sink_records: sim.world.metrics.sink_records,
        digest: sim.world.metrics_digest(),
    }
}

/// Run one scenario `reps` times. Hard-fails the process on any digest
/// divergence across repetitions — that breaks the determinism contract.
fn run_scenario(spec: &ScenarioSpec, reps: usize) -> ScenarioResult {
    let name = spec.short_name();
    // One warmup run (page in code, warm the allocator).
    spec.build_sim().0.run_until(secs(1));
    let samples: Vec<RunSample> = (0..reps).map(|_| time_run(spec)).collect();
    let reference = &samples[0];
    for s in &samples {
        if s.digest != reference.digest || s.events != reference.events {
            eprintln!(
                "perf_report: FATAL: scenario {name} digest drifted across repetitions: \
                 0x{:016x} ({} events) vs 0x{:016x} ({} events) — determinism bug, not noise",
                s.digest, s.events, reference.digest, reference.events
            );
            std::process::exit(1);
        }
    }
    let walls: Vec<f64> = samples.iter().map(|s| s.wall_secs).collect();
    let rates: Vec<f64> = samples
        .iter()
        .map(|s| s.events as f64 / s.wall_secs.max(1e-9))
        .collect();
    ScenarioResult {
        name: name.to_string(),
        events: reference.events,
        wall_secs: median(&walls),
        events_per_sec: median(&rates),
        sink_records: reference.sink_records,
        digest: reference.digest,
    }
}

fn scenario_matrix(quick: bool, reps: usize, sink: BusSinkKind) -> Vec<ScenarioResult> {
    registry::perf_scenarios(quick)
        .into_iter()
        .map(|spec| run_scenario(&spec.with_bus_sink(sink), reps))
        .collect()
}

#[derive(Default)]
struct Baseline {
    total_events_per_sec: f64,
    digests: Vec<(String, u64)>,
    /// Per-scenario headline events/sec, keyed by scenario name — feeds
    /// `comparable_improvement` over the name intersection.
    events_per_sec: Vec<(String, f64)>,
}

/// Minimal field extraction from our own JSON (no serde in the offline
/// container): finds `"name": ..., "events_per_sec": ..., "digest": ...`
/// triples in document order plus the top-level aggregate; every other
/// key (including the per-cell A/B figures older reports carry) is
/// skipped. The parallel A/B entries deliberately key their scenario as
/// `"scenario"` (not `"name"`) so their PDES-mode digests and seq/par
/// rates never shadow the sequential trajectory parsed here.
fn parse_baseline(text: &str) -> Baseline {
    let mut b = Baseline::default();
    let grab_num = |line: &str| -> Option<f64> {
        line.split(':')
            .nth(1)?
            .trim()
            .trim_end_matches(',')
            .parse()
            .ok()
    };
    let grab_str = |line: &str| -> Option<String> {
        Some(
            line.split(':')
                .nth(1)?
                .trim()
                .trim_matches(|c| c == ',' || c == '"')
                .to_string(),
        )
    };
    let mut cur_name: Option<String> = None;
    for line in text.lines() {
        let t = line.trim();
        if t.starts_with("\"aggregate_events_per_sec\"") {
            b.total_events_per_sec = grab_num(t).unwrap_or(0.0);
        } else if t.starts_with("\"name\"") {
            cur_name = grab_str(t);
        } else if t.starts_with("\"events_per_sec\"") {
            if let (Some(n), Some(v)) = (cur_name.clone(), grab_num(t)) {
                b.events_per_sec.push((n, v));
            }
        } else if t.starts_with("\"digest\"") {
            if let (Some(n), Some(d)) = (cur_name.take(), grab_str(t)) {
                if let Ok(d) = u64::from_str_radix(d.trim_start_matches("0x"), 16) {
                    b.digests.push((n, d));
                }
            }
        }
    }
    b
}

/// Resume latency (µs) used by the parallel A/B axis: enough reverse-edge
/// lookahead for real epochs without distorting the workload timeline.
const PARALLEL_RESUME_LATENCY: u64 = 100;

/// One (scenario × region count) row of the parallel A/B axis: the
/// sequential PDES engine vs the thread-per-region executor at the same
/// `resume_latency`, digest-checked against each other.
struct ParallelResult {
    name: String,
    regions: usize,
    threads: usize,
    events: u64,
    seq_events_per_sec: f64,
    par_events_per_sec: f64,
    digest: u64,
}

/// Run the parallel A/B axis: the fixed-parallelism (no mid-run rescale)
/// 100k scenarios at `resume_latency = 100 µs`, regions ∈ {2, 4}, each
/// rep one sequential run immediately followed by one threaded run (so
/// machine-load drift hits both engines equally). Hard-fails on any
/// seq/par digest or event-count divergence — the thread-per-region
/// executor is required to be an exact rewrite of the sequential PDES
/// loop, proven per rep, not assumed.
fn parallel_axis(quick: bool, reps: usize, sink: BusSinkKind) -> Vec<ParallelResult> {
    let names = ["perf/cut_pipeline_100k", "perf/twin_pipelines_100k"];
    let mut out = Vec::new();
    for name in names {
        let Some(base) = registry::find(name, quick) else {
            continue;
        };
        for k in [2usize, 4] {
            // The parallel A/B never attaches a writer — under `jsonl`
            // both engines stage to the in-memory log, which still
            // exercises publish/drain symmetrically on both sides.
            let spec = base
                .clone()
                .with_regions(k)
                .with_resume_latency(PARALLEL_RESUME_LATENCY)
                .with_bus_sink(sink);
            // Warm both engines on a shortened horizon (page in code,
            // spawn threads once) before any timed rep.
            {
                let w = spec.clone().with_horizon(secs(1));
                let _ = w.run();
                let _ = w.run_threaded();
            }
            let mut seq_eps = Vec::new();
            let mut par_eps = Vec::new();
            let mut threads = 0;
            let mut reference: Option<(u64, u64)> = None;
            for _rep in 0..reps {
                // Sequential side timed symmetrically with run_threaded:
                // both include building the Sim(s) inside the window.
                let start = Instant::now();
                let (mut sim, _) = spec.build_sim();
                sim.run_until(spec.horizon);
                let seq_wall = start.elapsed().as_secs_f64();
                let seq_events = sim.world.q.processed();
                let seq_digest = sim.world.metrics_digest();
                drop(sim);
                let (par, par_wall) = spec.run_threaded();
                if par.digest() != seq_digest || par.obs.processed != seq_events {
                    eprintln!(
                        "perf_report: FATAL: parallel A/B {name} r{k}: threaded run gave \
                         0x{:016x} ({} events) vs sequential 0x{seq_digest:016x} ({seq_events} events)",
                        par.digest(),
                        par.obs.processed,
                    );
                    eprintln!(
                        "perf_report: the thread-per-region executor is required to be \
                         digest-exact against the sequential PDES engine — correctness bug"
                    );
                    std::process::exit(1);
                }
                if let Some((e, d)) = reference {
                    if (seq_events, seq_digest) != (e, d) {
                        eprintln!(
                            "perf_report: FATAL: parallel A/B {name} r{k}: digest drifted \
                             across repetitions (determinism bug)"
                        );
                        std::process::exit(1);
                    }
                } else {
                    reference = Some((seq_events, seq_digest));
                }
                threads = par.threads;
                seq_eps.push(seq_events as f64 / seq_wall.max(1e-9));
                par_eps.push(par.obs.processed as f64 / par_wall.max(1e-9));
            }
            let (events, digest) = reference.expect("reps >= 1");
            out.push(ParallelResult {
                name: base.short_name().to_string(),
                regions: k,
                threads,
                events,
                seq_events_per_sec: median(&seq_eps),
                par_events_per_sec: median(&par_eps),
                digest,
            });
        }
    }
    out
}

const USAGE: &str = "usage: perf_report [--out FILE] [--baseline FILE] [--quick] [--reps N]\n\
    \x20                  [--sink null|mem|jsonl] [--require-digest-match] [--no-parallel]\n\
    (QUICK=1 in the environment implies --quick)";

struct Opts {
    out_path: String,
    baseline_path: Option<String>,
    quick: bool,
    reps: usize,
    bus_sink: BusSinkKind,
    require_digest_match: bool,
    no_parallel: bool,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        // Deliberately NOT a BENCH_PRn.json name: a bare run must never
        // overwrite the committed perf-trajectory artifacts.
        out_path: "perf_report.json".to_string(),
        baseline_path: None,
        quick: bench::quick(),
        reps: 1,
        bus_sink: BusSinkKind::Null,
        require_digest_match: false,
        no_parallel: false,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--quick" => o.quick = true,
            "--require-digest-match" => o.require_digest_match = true,
            "--no-parallel" => o.no_parallel = true,
            "--out" | "--baseline" | "--reps" | "--sink" => {
                let v = bench::flag_value(args, i)?;
                match flag {
                    "--out" => o.out_path = v.to_string(),
                    "--baseline" => o.baseline_path = Some(v.to_string()),
                    "--reps" => {
                        o.reps = v
                            .parse()
                            .ok()
                            .filter(|&n| n >= 1)
                            .ok_or(format!("--reps {v:?}: want a count >= 1"))?
                    }
                    _ => {
                        o.bus_sink = BusSinkKind::parse(v)
                            .ok_or(format!("--sink {v:?}: want null|mem|jsonl"))?
                    }
                }
                i += 1;
            }
            other => return Err(format!("unknown flag {other}")),
        }
        i += 1;
    }
    Ok(o)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("perf_report: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let (quick, reps, bus_sink, out_path) = (o.quick, o.reps, o.bus_sink, o.out_path);

    eprintln!(
        "perf_report: running scenario matrix (quick={quick}, reps={reps}, sink={})...",
        bus_sink.name()
    );
    let results = scenario_matrix(quick, reps, bus_sink);

    let parallel = if o.no_parallel {
        Vec::new()
    } else {
        eprintln!(
            "perf_report: running parallel A/B axis (resume_latency={PARALLEL_RESUME_LATENCY}us, \
             regions 2 and 4, seq vs threaded)..."
        );
        parallel_axis(quick, reps, bus_sink)
    };
    let host_cpus = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);

    let total_events: u64 = results.iter().map(|r| r.events).sum();
    let total_wall: f64 = results.iter().map(|r| r.wall_secs).sum();
    let aggregate = total_events as f64 / total_wall.max(1e-9);

    let baseline = o.baseline_path.as_deref().and_then(|p| {
        let Ok(text) = std::fs::read_to_string(p) else {
            eprintln!("perf_report: warning: baseline {p} unreadable — skipping comparison");
            return None;
        };
        let b = parse_baseline(&text);
        if b.total_events_per_sec <= 0.0 {
            eprintln!("perf_report: warning: baseline {p} has no aggregate_events_per_sec — skipping comparison");
            return None;
        }
        Some(b)
    });

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"report\": \"drrs-repro perf trajectory\",");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(json, "  \"bus_sink\": \"{}\",", bus_sink.name());
    let _ = writeln!(json, "  \"aggregate_events_per_sec\": {aggregate:.0},");
    let _ = writeln!(json, "  \"total_simulated_events\": {total_events},");
    let _ = writeln!(json, "  \"total_wall_secs\": {total_wall:.3},");
    let _ = writeln!(json, "  \"peak_rss_kb\": {},", peak_rss_kb());
    let _ = writeln!(json, "  \"host_cpus\": {host_cpus},");
    if let Some(b) = &baseline {
        let improvement = if b.total_events_per_sec > 0.0 {
            aggregate / b.total_events_per_sec - 1.0
        } else {
            0.0
        };
        let digest_match = results.iter().all(|r| {
            b.digests
                .iter()
                .find(|(n, _)| *n == r.name)
                .is_none_or(|(_, d)| *d == r.digest)
        });
        let _ = writeln!(
            json,
            "  \"baseline_events_per_sec\": {:.0},",
            b.total_events_per_sec
        );
        let _ = writeln!(json, "  \"improvement_over_baseline\": {improvement:.4},");
        // Apples-to-apples PR-over-PR number: summed headline events/sec
        // over only the scenarios present in BOTH reports, so growing the
        // matrix can never inflate (or dilute) the trajectory.
        let shared: Vec<(f64, f64)> = results
            .iter()
            .filter_map(|r| {
                b.events_per_sec
                    .iter()
                    .find(|(n, _)| *n == r.name)
                    .map(|(_, base_eps)| (r.events_per_sec, *base_eps))
            })
            .collect();
        if !shared.is_empty() {
            let cur: f64 = shared.iter().map(|(eps, _)| *eps).sum();
            let base: f64 = shared.iter().map(|(_, base)| *base).sum();
            let comparable = cur / base.max(1e-9) - 1.0;
            let _ = writeln!(json, "  \"comparable_scenarios\": {},", shared.len());
            let _ = writeln!(json, "  \"comparable_improvement\": {comparable:.4},");
            eprintln!(
                "perf_report: comparable improvement over {} shared scenarios: {:+.1}%",
                shared.len(),
                comparable * 100.0
            );
        }
        let _ = writeln!(json, "  \"digest_match_with_baseline\": {digest_match},");
        eprintln!(
            "perf_report: {:.0} ev/s vs baseline {:.0} ev/s ({:+.1}%), digests match: {}",
            aggregate,
            b.total_events_per_sec,
            improvement * 100.0,
            digest_match
        );
    }
    if !parallel.is_empty() {
        let _ = writeln!(
            json,
            "  \"parallel_resume_latency_us\": {PARALLEL_RESUME_LATENCY},"
        );
        let _ = writeln!(json, "  \"parallel\": [");
        for (i, p) in parallel.iter().enumerate() {
            let comma = if i + 1 < parallel.len() { "," } else { "" };
            let speedup = p.par_events_per_sec / p.seq_events_per_sec.max(1e-9);
            let _ = writeln!(json, "    {{");
            let _ = writeln!(json, "      \"scenario\": \"{}\",", p.name);
            let _ = writeln!(json, "      \"regions\": {},", p.regions);
            let _ = writeln!(json, "      \"threads\": {},", p.threads);
            let _ = writeln!(json, "      \"events\": {},", p.events);
            let _ = writeln!(
                json,
                "      \"events_per_sec_seq\": {:.0},",
                p.seq_events_per_sec
            );
            let _ = writeln!(
                json,
                "      \"events_per_sec_par\": {:.0},",
                p.par_events_per_sec
            );
            let _ = writeln!(json, "      \"parallel_speedup\": {speedup:.4},");
            let _ = writeln!(json, "      \"digest_match\": true,");
            let _ = writeln!(json, "      \"digest\": \"0x{:016x}\"", p.digest);
            let _ = writeln!(json, "    }}{comma}");
            eprintln!(
                "perf_report: parallel A/B {} r{}: seq {:.0} ev/s vs par {:.0} ev/s \
                 ({speedup:.2}x on {} threads, host_cpus={host_cpus}), digests identical",
                p.name, p.regions, p.seq_events_per_sec, p.par_events_per_sec, p.threads
            );
        }
        let _ = writeln!(json, "  ],");
    }
    let _ = writeln!(json, "  \"scenarios\": [");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        let eps = r.events_per_sec;
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"name\": \"{}\",", r.name);
        let _ = writeln!(json, "      \"events\": {},", r.events);
        let _ = writeln!(json, "      \"wall_secs\": {:.4},", r.wall_secs);
        let _ = writeln!(json, "      \"events_per_sec\": {eps:.0},");
        let _ = writeln!(json, "      \"sink_records\": {},", r.sink_records);
        let _ = writeln!(json, "      \"digest\": \"0x{:016x}\"", r.digest);
        let _ = writeln!(json, "    }}{comma}");
        eprintln!(
            "  {:<26} {:>12} events  {eps:>11.0} ev/s  digest 0x{:016x}",
            r.name, r.events, r.digest
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");

    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    eprintln!("perf_report: wrote {out_path}");

    if o.require_digest_match {
        // Strict mode for CI: every scenario must be present in the
        // baseline AND digest-equal — the port/refactor under test is
        // required to be behavior-preserving against the recorded
        // trajectory, proven, not assumed.
        let Some(b) = &baseline else {
            eprintln!("perf_report: FATAL: --require-digest-match needs a readable --baseline");
            std::process::exit(1);
        };
        let mut ok = true;
        for r in &results {
            match b.digests.iter().find(|(n, _)| *n == r.name) {
                Some((_, d)) if *d == r.digest => {}
                Some((_, d)) => {
                    eprintln!(
                        "perf_report: FATAL: scenario {} digest 0x{:016x} != baseline 0x{d:016x}",
                        r.name, r.digest
                    );
                    ok = false;
                }
                None => {
                    eprintln!(
                        "perf_report: FATAL: scenario {} missing from the baseline",
                        r.name
                    );
                    ok = false;
                }
            }
        }
        if !ok {
            std::process::exit(1);
        }
        eprintln!(
            "perf_report: all {} scenario digests byte-identical to the baseline",
            results.len()
        );
    }
}
