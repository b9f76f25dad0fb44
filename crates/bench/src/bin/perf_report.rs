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
//! Usage: `perf_report [--out FILE] [--baseline FILE] [--quick]
//!                     [--backend heap|calendar|both]
//!                     [--dispatch single|batch|both]
//!                     [--regions 1|2|K|both] [--reps N]
//!                     [--sink null|mem|jsonl]
//!                     [--require-digest-match] [--no-parallel]`
//!
//! The scenario matrix is not private to this binary: it is the `perf/`
//! group of `bench::scenario::registry`, the same named specs the digest
//! tests consume — this binary only owns the timing/A-B logic on top.
//! `--require-digest-match` turns the baseline digest comparison into a
//! hard failure (exit 1), which CI uses to pin the current build's
//! scenario digests to the recorded `BENCH_PRn.json` trajectory.
//!
//! By default every scenario runs on the full {scheduler backend} ×
//! {dispatch mode} × {region count} grid — binary heap and calendar queue,
//! single-pop and batch drain, sequential (regions=1) and region-partitioned
//! (regions=2) scheduling — interleaved (so machine-load drift hits every
//! cell equally), and the process **hard-fails** if any scenario's digest
//! differs between any two cells: the calendar queue, batch dispatch and
//! region partitioning are all required to be behavior-preserving rewrites,
//! proven by digests, not assumed. `--reps N` repeats each cell N times and
//! reports the median events/sec (used for the recorded `BENCH_PRn.json`
//! A/Bs). `--backend` / `--dispatch` / `--regions` restrict the grid to one
//! axis value (used by CI's per-cell digest-stability job); `--regions both`
//! is the default `{1, 2}` pair, any integer `K` pins that region count.
//! The headline cell stays the sequential engine (regions=1) — the region
//! A/B is reported alongside, never silently substituted.
//!
//! With `--baseline`, the report embeds the baseline's events/sec and the
//! relative improvement, so `BENCH_PRn.json` carries the before/after pair
//! measured on the same machine. Because the scenario matrix grows over
//! PRs, the raw aggregate ratio can compare different scenario sets; the
//! report therefore also emits `comparable_improvement`, computed only
//! over the intersection of scenario names present in both the current
//! run and the baseline (summed events/sec on each side), which is the
//! honest PR-over-PR number.
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
use simcore::SchedulerBackend;
use streamflow::{BusSinkKind, DispatchMode};

/// One cell of the measurement grid.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Cell {
    backend: SchedulerBackend,
    dispatch: DispatchMode,
    regions: usize,
}

impl Cell {
    fn label(self) -> String {
        format!(
            "{}/{}/r{}",
            self.backend.name(),
            self.dispatch.name(),
            self.regions
        )
    }
}

/// One timed run of one scenario on one cell.
struct RunSample {
    events: u64,
    wall_secs: f64,
    sink_records: u64,
    digest: u64,
}

/// Aggregated per-scenario result: medians per cell, shared digest.
struct ScenarioResult {
    name: String,
    events: u64,
    /// Median wall seconds per cell, keyed like the `cells` slice.
    wall_secs: Vec<f64>,
    events_per_sec: Vec<f64>,
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

fn time_run(spec: &ScenarioSpec, cell: Cell) -> RunSample {
    let (mut sim, _) = spec
        .clone()
        .with_cell(cell.backend, cell.dispatch)
        .with_regions(cell.regions)
        .build_sim();
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

/// Run one scenario `reps` times per grid cell, interleaved across cells.
/// Hard-fails the process on any digest divergence (across cells or across
/// repetitions — either breaks the determinism contract).
fn run_scenario(spec: &ScenarioSpec, cells: &[Cell], reps: usize) -> ScenarioResult {
    let name = spec.short_name();
    // One warmup run per cell (page in code, warm the allocator).
    for &c in cells {
        let (mut sim, _) = spec
            .clone()
            .with_cell(c.backend, c.dispatch)
            .with_regions(c.regions)
            .build_sim();
        sim.run_until(secs(1));
    }
    let mut samples: Vec<Vec<RunSample>> = cells.iter().map(|_| Vec::new()).collect();
    for _rep in 0..reps {
        for (i, &c) in cells.iter().enumerate() {
            samples[i].push(time_run(spec, c));
        }
    }
    let reference = &samples[0][0];
    for (i, &c) in cells.iter().enumerate() {
        for s in &samples[i] {
            if s.digest != reference.digest || s.events != reference.events {
                eprintln!(
                    "perf_report: FATAL: scenario {name} digest mismatch: \
                     {} run gave 0x{:016x} ({} events) vs reference 0x{:016x} ({} events)",
                    c.label(),
                    s.digest,
                    s.events,
                    reference.digest,
                    reference.events
                );
                eprintln!(
                    "perf_report: scheduler backends and dispatch modes are required \
                     to be behavior-identical — this is a correctness bug, not noise"
                );
                std::process::exit(1);
            }
        }
    }
    ScenarioResult {
        name: name.to_string(),
        events: reference.events,
        wall_secs: samples
            .iter()
            .map(|runs| median(&runs.iter().map(|s| s.wall_secs).collect::<Vec<_>>()))
            .collect(),
        events_per_sec: samples
            .iter()
            .map(|runs| {
                median(
                    &runs
                        .iter()
                        .map(|s| s.events as f64 / s.wall_secs.max(1e-9))
                        .collect::<Vec<_>>(),
                )
            })
            .collect(),
        sink_records: reference.sink_records,
        digest: reference.digest,
    }
}

fn scenario_matrix(
    quick: bool,
    cells: &[Cell],
    reps: usize,
    sink: BusSinkKind,
) -> Vec<ScenarioResult> {
    registry::perf_scenarios(quick)
        .into_iter()
        .map(|spec| run_scenario(&spec.with_bus_sink(sink), cells, reps))
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
/// triples in document order plus the top-level aggregate. The parallel
/// A/B entries deliberately key their scenario as `"scenario"` (not
/// `"name"`) so their PDES-mode digests and seq/par rates never shadow
/// the sequential trajectory parsed here.
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

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| args.iter().position(|a| a == name);
    let out_path = flag("--out")
        .and_then(|i| args.get(i + 1).cloned())
        // Deliberately NOT a BENCH_PRn.json name: a bare run must never
        // overwrite the committed perf-trajectory artifacts.
        .unwrap_or_else(|| "perf_report.json".to_string());
    let baseline_path = flag("--baseline").and_then(|i| args.get(i + 1).cloned());
    let quick = flag("--quick").is_some() || bench::quick();
    let reps = flag("--reps")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(1usize)
        .max(1);
    let require_digest_match = flag("--require-digest-match").is_some();
    let no_parallel = flag("--no-parallel").is_some();
    let backend_arg = flag("--backend").and_then(|i| args.get(i + 1).cloned());
    let backends: Vec<SchedulerBackend> = match backend_arg.as_deref() {
        None | Some("both") => vec![SchedulerBackend::BinaryHeap, SchedulerBackend::Calendar],
        Some(s) => match SchedulerBackend::parse(s) {
            Some(b) => vec![b],
            None => {
                eprintln!("perf_report: unknown --backend {s} (want heap|calendar|both)");
                std::process::exit(2);
            }
        },
    };
    let dispatch_arg = flag("--dispatch").and_then(|i| args.get(i + 1).cloned());
    let dispatches: Vec<DispatchMode> = match dispatch_arg.as_deref() {
        None | Some("both") => vec![DispatchMode::SinglePop, DispatchMode::Batch],
        Some(s) => match DispatchMode::parse(s) {
            Some(m) => vec![m],
            None => {
                eprintln!("perf_report: unknown --dispatch {s} (want single|batch|both)");
                std::process::exit(2);
            }
        },
    };
    let sink_arg = flag("--sink").and_then(|i| args.get(i + 1).cloned());
    let bus_sink = match sink_arg.as_deref() {
        None => BusSinkKind::Null,
        Some(s) => match BusSinkKind::parse(s) {
            Some(k) => k,
            None => {
                eprintln!("perf_report: unknown --sink {s} (want null|mem|jsonl)");
                std::process::exit(2);
            }
        },
    };
    let regions_arg = flag("--regions").and_then(|i| args.get(i + 1).cloned());
    let region_counts: Vec<usize> = match regions_arg.as_deref() {
        None | Some("both") => vec![1, 2],
        Some(s) => match s.parse::<usize>() {
            Ok(k) if k >= 1 => vec![k],
            _ => {
                eprintln!("perf_report: unknown --regions {s} (want 1|2|K|both)");
                std::process::exit(2);
            }
        },
    };
    // The grid, backend-major so repetitions interleave across backends
    // first (the historically noisier axis).
    let mut cells: Vec<Cell> = Vec::new();
    for &backend in &backends {
        for &dispatch in &dispatches {
            for &regions in &region_counts {
                cells.push(Cell {
                    backend,
                    dispatch,
                    regions,
                });
            }
        }
    }
    let cells = cells;
    // The report's headline numbers come from the engine's defaults
    // (calendar queue, batch dispatch, sequential regions=1) when they're
    // in the grid; on a restricted grid, from the cell closest to the
    // defaults — a `--backend heap` run must still headline batch dispatch
    // (and emit the batch-vs-single A/B), not silently fall back to the
    // first cell. The region-partitioned cells never headline: regions=1
    // stays the reference engine.
    let find = |b: SchedulerBackend, d: DispatchMode, r: usize| {
        cells
            .iter()
            .position(|c| c.backend == b && c.dispatch == d && c.regions == r)
    };
    let headline = find(SchedulerBackend::default(), DispatchMode::default(), 1)
        .or_else(|| {
            cells
                .iter()
                .position(|c| c.dispatch == DispatchMode::default() && c.regions == 1)
        })
        .or_else(|| {
            cells
                .iter()
                .position(|c| c.backend == SchedulerBackend::default() && c.regions == 1)
        })
        .or_else(|| cells.iter().position(|c| c.regions == 1))
        .unwrap_or(0);
    // Reference cells for the three A/B axes, when present.
    let heap_ref = find(
        SchedulerBackend::BinaryHeap,
        cells[headline].dispatch,
        cells[headline].regions,
    );
    let single_ref = find(
        cells[headline].backend,
        DispatchMode::SinglePop,
        cells[headline].regions,
    )
    .filter(|_| cells[headline].dispatch == DispatchMode::Batch);
    // The region A/B compares the headline (sequential) cell against the
    // largest partitioned region count sharing its backend/dispatch.
    let regions_ref = region_counts
        .iter()
        .copied()
        .filter(|&r| r > cells[headline].regions)
        .max()
        .and_then(|r| find(cells[headline].backend, cells[headline].dispatch, r));

    eprintln!(
        "perf_report: running scenario matrix (quick={quick}, reps={reps}, sink={}, cells={})...",
        bus_sink.name(),
        cells
            .iter()
            .map(|c| c.label())
            .collect::<Vec<_>>()
            .join(",")
    );
    let results = scenario_matrix(quick, &cells, reps, bus_sink);

    let parallel = if no_parallel {
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
    let aggregate_for = |cell_idx: usize| {
        let wall: f64 = results.iter().map(|r| r.wall_secs[cell_idx]).sum();
        total_events as f64 / wall.max(1e-9)
    };
    let aggregate = aggregate_for(headline);

    let baseline = baseline_path.as_deref().and_then(|p| {
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
    let _ = writeln!(
        json,
        "  \"scheduler\": \"{}\",",
        cells[headline].backend.name()
    );
    let _ = writeln!(
        json,
        "  \"dispatch\": \"{}\",",
        cells[headline].dispatch.name()
    );
    let _ = writeln!(json, "  \"regions\": {},", cells[headline].regions);
    let _ = writeln!(json, "  \"bus_sink\": \"{}\",", bus_sink.name());
    let _ = writeln!(json, "  \"aggregate_events_per_sec\": {aggregate:.0},");
    if let Some(h) = heap_ref.filter(|&h| h != headline) {
        let agg_heap = aggregate_for(h);
        let gain = aggregate / agg_heap.max(1e-9) - 1.0;
        let _ = writeln!(json, "  \"aggregate_events_per_sec_heap\": {agg_heap:.0},");
        let _ = writeln!(json, "  \"calendar_vs_heap_improvement\": {gain:.4},");
        eprintln!(
            "perf_report: scheduler A/B ({} dispatch): calendar {:.0} ev/s vs heap {:.0} ev/s ({:+.1}%), digests identical",
            cells[headline].dispatch.name(),
            aggregate,
            agg_heap,
            gain * 100.0
        );
    }
    if let Some(s) = single_ref {
        let agg_single = aggregate_for(s);
        let gain = aggregate / agg_single.max(1e-9) - 1.0;
        let _ = writeln!(
            json,
            "  \"aggregate_events_per_sec_single_pop\": {agg_single:.0},"
        );
        let _ = writeln!(json, "  \"batch_dispatch_improvement\": {gain:.4},");
        eprintln!(
            "perf_report: dispatch A/B ({} backend): batch {:.0} ev/s vs single-pop {:.0} ev/s ({:+.1}%), digests identical",
            cells[headline].backend.name(),
            aggregate,
            agg_single,
            gain * 100.0
        );
    }
    if let Some(rr) = regions_ref {
        let agg_regions = aggregate_for(rr);
        let gain = agg_regions / aggregate.max(1e-9) - 1.0;
        let k = cells[rr].regions;
        let _ = writeln!(
            json,
            "  \"aggregate_events_per_sec_regions{k}\": {agg_regions:.0},"
        );
        let _ = writeln!(json, "  \"region_partitioning_improvement\": {gain:.4},");
        eprintln!(
            "perf_report: regions A/B ({}/{}): {k} regions {:.0} ev/s vs sequential {:.0} ev/s ({:+.1}%), digests identical",
            cells[headline].backend.name(),
            cells[headline].dispatch.name(),
            agg_regions,
            aggregate,
            gain * 100.0
        );
    }
    if cells.len() > 1 {
        let _ = writeln!(json, "  \"cross_cell_digests_match\": true,");
    }
    let _ = writeln!(json, "  \"total_simulated_events\": {total_events},");
    let _ = writeln!(
        json,
        "  \"total_wall_secs\": {:.3},",
        results.iter().map(|r| r.wall_secs[headline]).sum::<f64>()
    );
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
                    .map(|(_, base_eps)| (r.events_per_sec[headline], *base_eps))
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
        let eps = r.events_per_sec[headline];
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"name\": \"{}\",", r.name);
        let _ = writeln!(json, "      \"events\": {},", r.events);
        let _ = writeln!(json, "      \"wall_secs\": {:.4},", r.wall_secs[headline]);
        let _ = writeln!(json, "      \"events_per_sec\": {eps:.0},");
        if let Some(h) = heap_ref.filter(|&h| h != headline) {
            let heap_eps = r.events_per_sec[h];
            let gain = eps / heap_eps.max(1e-9) - 1.0;
            let _ = writeln!(json, "      \"events_per_sec_heap\": {heap_eps:.0},");
            let _ = writeln!(json, "      \"calendar_vs_heap\": {gain:.4},");
        }
        if let Some(s) = single_ref {
            let single_eps = r.events_per_sec[s];
            let gain = eps / single_eps.max(1e-9) - 1.0;
            let _ = writeln!(
                json,
                "      \"events_per_sec_single_pop\": {single_eps:.0},"
            );
            let _ = writeln!(json, "      \"batch_vs_single\": {gain:.4},");
        }
        if let Some(rr) = regions_ref {
            let region_eps = r.events_per_sec[rr];
            let gain = region_eps / eps.max(1e-9) - 1.0;
            let k = cells[rr].regions;
            let _ = writeln!(
                json,
                "      \"events_per_sec_regions{k}\": {region_eps:.0},"
            );
            let _ = writeln!(json, "      \"regions_vs_sequential\": {gain:.4},");
        }
        let _ = writeln!(json, "      \"sink_records\": {},", r.sink_records);
        let _ = writeln!(json, "      \"digest\": \"0x{:016x}\"", r.digest);
        let _ = writeln!(json, "    }}{comma}");
        let mut line = format!("  {:<26} {:>12} events ", r.name, r.events);
        for (ci, c) in cells.iter().enumerate() {
            let _ = write!(line, " {} {:>11.0} ev/s ", c.label(), r.events_per_sec[ci]);
        }
        let _ = write!(line, " digest 0x{:016x}", r.digest);
        eprintln!("{line}");
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");

    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    eprintln!("perf_report: wrote {out_path}");

    if require_digest_match {
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
