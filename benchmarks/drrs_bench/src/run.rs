//! Running one simulation of a workload and harvesting what the benchmark
//! reports and checks, through public fields and functions only.

use std::time::Instant;

use simcore::stats::TimeSeries;
use simcore::time::{as_ms, SimTime};
use streamflow::parallel::EpochStats;
use streamflow::record::{Record, RecordKind};
use streamflow::world::{Observables, Sim, World};
use streamflow::{run_parallel, BusSummary, OpId, ParallelReport};

use crate::trace::Tracer;
use crate::workloads::Plan;

/// How a scale plan ended, read when its segment of the run is over.
#[derive(Clone, Debug)]
pub struct PlanOutcome {
    pub requested_at: SimTime,
    pub migration_done: Option<SimTime>,
    pub planned_moves: u64,
    pub settled_moves: u64,
    pub in_progress: bool,
    pub subscales: u64,
    pub bytes_transferred: u64,
    pub lp_ms: f64,
    pub ld_ms: f64,
}

impl PlanOutcome {
    fn harvest(w: &World, at: SimTime) -> Self {
        let m = &w.scale.metrics;
        let (planned, settled) = match w.scale.plan.as_ref() {
            Some(plan) => (
                plan.moves.len() as u64,
                plan.moves
                    .iter()
                    .filter(|m| w.insts[m.to.0 as usize].state.holds_group(m.kg))
                    .count() as u64,
            ),
            None => (0, 0),
        };
        Self {
            requested_at: m.requested_at.unwrap_or(at),
            migration_done: m.migration_done,
            planned_moves: planned,
            settled_moves: settled,
            in_progress: w.scale.in_progress,
            subscales: m.injected.len() as u64,
            bytes_transferred: m.bytes_transferred,
            lp_ms: as_ms(m.cumulative_propagation_delay()),
            ld_ms: m.avg_dependency_overhead() / 1_000.0,
        }
    }

    /// All state landed and nothing is still moving.
    pub fn settled(&self) -> bool {
        !self.in_progress && self.settled_moves == self.planned_moves
    }
}

/// The two sides of one correctness check; it passes when they are equal.
#[derive(Clone, Debug)]
pub struct Check {
    pub name: &'static str,
    pub left: u64,
    pub right: u64,
}

impl Check {
    pub fn passed(&self) -> bool {
        self.left == self.right
    }
}

/// Every check there is. Results cross process boundaries as text; a name
/// read back must be one of these.
const CHECK_NAMES: [&str; 9] = [
    "digest_equal_across_rounds",
    "record_conservation",
    "plans_settled",
    "traced_digest_equals_untraced",
    "bus_digest_equals_untraced",
    "threaded_digest_equals_sequential",
    "order_violations",
    "state_keys_equal_no_scale_twin",
    "state_bytes_equal_no_scale_twin",
];

pub fn check_name(name: &str) -> Result<&'static str, String> {
    CHECK_NAMES
        .iter()
        .find(|n| **n == name)
        .copied()
        .ok_or_else(|| format!("unknown check {name:?}"))
}

/// Everything harvested from one finished simulation.
pub struct SimOutcome {
    /// Host time inside `run_until` / `run_parallel`.
    pub wall_ns: u64,
    /// Events popped off the future-event list.
    pub events: u64,
    pub sink_records: u64,
    /// Data records the sources generated.
    pub generated: u64,
    pub digest: u64,
    pub latency: TimeSeries,
    pub plans: Vec<PlanOutcome>,
    /// Total suspension over the scaled operator's instances, µs.
    pub suspension_us: u64,
    pub violations: u64,
    /// Keyed state held by the scaled operator at the end.
    pub state_keys: u64,
    pub state_bytes: u64,
    /// Record conservation at the horizon.
    pub conservation: Check,
    pub arena_live_end: u64,
    pub arena_slots: u64,
    pub bus: BusSummary,
    /// Region-scheduler accounting of a sequential multi-region run.
    pub merged_runs: u64,
    pub null_msgs: u64,
    pub cut_channels: u64,
    /// Epoch accounting and thread count, when the run went through
    /// `run_parallel`.
    pub parallel: Option<(EpochStats, usize)>,
}

/// Records still inside the job, by multiplicity: in the sources' pending
/// queues and in the receiver queues and sender backlogs of the channels
/// `into` selects. Markers count once each unless `data_only`.
fn parked(w: &World, data_only: bool, into: impl Fn(OpId) -> bool) -> u64 {
    let counted = |r: &Record| {
        // `u32::MAX` and 0 are the watermark and barrier carriers.
        let carrier = r.count == u32::MAX || r.count == 0;
        !(carrier || data_only && r.kind == RecordKind::Marker)
    };
    let pending: u64 = w
        .insts
        .iter()
        .filter_map(|i| i.source.as_ref())
        .flat_map(|s| s.pending.iter())
        .filter(|r| counted(r))
        .map(|r| r.count as u64)
        .sum();
    let channels: u64 = w
        .chans
        .iter()
        .filter(|c| into(w.insts[c.to.0 as usize].op))
        .flat_map(|c| c.queue.iter().chain(c.backlog.iter()))
        .filter_map(|&r| w.arena[r].as_record())
        .filter(|r| counted(r))
        .map(|r| r.count as u64)
        .sum();
    pending + channels
}

/// Latency markers the sources have injected so far.
fn markers_injected(w: &World) -> u64 {
    let interval = w.cfg.marker_interval;
    w.insts
        .iter()
        .filter_map(|i| {
            let src = i.source.as_ref()?;
            let par = w.ops[i.op.0 as usize].instances.len() as SimTime;
            let first = i.local_idx as SimTime * interval / par.max(1);
            Some((src.next_marker - first) / interval)
        })
        .sum()
}

/// Record conservation, one equality per simulation. The sources stop before
/// the horizon and no marker is on the wire at it, so nothing is in service
/// or in flight: a record is at the sink, or parked in a queue that can be
/// read from outside.
fn conservation_check(w: &World, plan: &Plan) -> Check {
    let sources = || w.insts.iter().filter_map(|i| i.source.as_ref());
    let generated: u64 = sources().map(|s| s.generated).sum();
    let (left, right) = if plan.one_to_one {
        // generated = sunk + pending + backlog + queued, over the whole job.
        (
            generated,
            w.metrics.sink_records + parked(w, true, |_| true),
        )
    } else if plan.scales.is_empty() {
        // The operator is not one-to-one: count over its input hop, with
        // `processed`, which counts markers too.
        let applied: u64 = w
            .insts
            .iter()
            .filter(|i| i.op == plan.op)
            .map(|i| i.processed)
            .sum();
        (
            generated + markers_injected(w),
            applied + parked(w, false, |op| op == plan.op),
        )
    } else {
        // `processed` counts a record twice when DRRS re-routes it out of a
        // quantum already under way, so under a scale plan only the source
        // half can be an equality; the no-scale twin covers the hop.
        (
            generated + markers_injected(w),
            sources().map(|s| s.emitted).sum::<u64>() + parked(w, false, |_| false),
        )
    };
    Check {
        name: "record_conservation",
        left,
        right,
    }
}

fn series(points: &[(SimTime, f64)]) -> TimeSeries {
    let mut ts = TimeSeries::new();
    for &(t, v) in points {
        ts.push(t, v);
    }
    ts
}

fn from_world(sim: &Sim, plan: &Plan, wall_ns: u64, plans: Vec<PlanOutcome>) -> SimOutcome {
    let w = &sim.world;
    let scaled = || w.insts.iter().filter(|i| i.op == plan.op);
    let sync = w.q.region_sync_stats();
    SimOutcome {
        wall_ns,
        events: w.q.processed(),
        sink_records: w.metrics.sink_records,
        generated: w
            .insts
            .iter()
            .filter_map(|i| i.source.as_ref())
            .map(|s| s.generated)
            .sum(),
        digest: w.metrics_digest(),
        latency: w.metrics.latency.clone(),
        plans,
        suspension_us: scaled().map(|i| i.suspension_as_of(w.now())).sum(),
        violations: w.semantics.violations(),
        state_keys: scaled().map(|i| i.state.total_keys() as u64).sum(),
        state_bytes: scaled().map(|i| i.state.total_bytes()).sum(),
        conservation: conservation_check(w, plan),
        arena_live_end: w.arena.len() as u64,
        arena_slots: w.arena.slot_count() as u64,
        bus: w.bus.summary(),
        merged_runs: sync.merged_runs,
        null_msgs: sync.null_msgs,
        cut_channels: w.region_map.cut_channels() as u64,
        parallel: None,
    }
}

fn from_parallel(report: ParallelReport, wall_ns: u64) -> SimOutcome {
    let obs: &Observables = &report.obs;
    // The worlds lived and died on the worker threads; only the merged
    // observables remain. The sources' per-second counts hold data and
    // markers alike, and every marker has reached a sink by the horizon.
    let emitted: u64 = obs.source_counts.iter().map(|&(_, c)| c).sum();
    SimOutcome {
        wall_ns,
        events: obs.processed,
        sink_records: obs.sink_records,
        generated: emitted - obs.latency.len() as u64,
        digest: obs.digest(),
        latency: series(&obs.latency),
        plans: Vec::new(),
        suspension_us: obs.per_inst.iter().map(|i| i.suspended_total).sum(),
        violations: obs.violations,
        state_keys: obs.per_inst.iter().map(|i| i.state_keys).sum(),
        state_bytes: obs.per_inst.iter().map(|i| i.state_bytes).sum(),
        conservation: Check {
            name: "record_conservation",
            left: emitted,
            right: obs.sink_records + obs.latency.len() as u64,
        },
        arena_live_end: 0,
        arena_slots: 0,
        bus: report.bus,
        merged_runs: 0,
        null_msgs: 0,
        cut_channels: 0,
        parallel: Some((report.stats, report.threads)),
    }
}

/// Run `plan` to its horizon. `sim` is the world built during set-up
/// (ignored by the threaded executor, which builds one replica per thread
/// inside its own, timed, call). With a tracer the benchmark's traced loop
/// drives the simulation in place of `Sim::run_until`.
pub fn run_plan(plan: &Plan, sim: Sim, mut tracer: Option<&mut Tracer>) -> SimOutcome {
    if plan.threaded {
        drop(sim);
        let t0 = Instant::now();
        let report = run_parallel(plan.factory(), plan.horizon);
        return from_parallel(report, t0.elapsed().as_nanos() as u64);
    }
    let mut sim = sim;
    let mut wall_ns = 0;
    let mut plans = Vec::new();
    // One segment per scale request: a plan is judged, and the next one
    // requested, when the next request is due.
    let segments = plan.scales.len().max(1);
    for k in 0..segments {
        let until = plan.scales.get(k + 1).map_or(plan.horizon, |s| s.0);
        let t0 = Instant::now();
        match tracer.as_deref_mut() {
            Some(tr) => tr.run_until(&mut sim, until),
            None => sim.run_until(until),
        }
        wall_ns += t0.elapsed().as_nanos() as u64;
        if let Some(&(at, _)) = plan.scales.get(k) {
            plans.push(PlanOutcome::harvest(&sim.world, at));
        }
        if let Some(&(at, to)) = plan.scales.get(k + 1) {
            sim.world.schedule_scale(at, plan.op, to);
        }
    }
    from_world(&sim, plan, wall_ns, plans)
}

/// Simulated metrics of one simulation, as the paper defines them.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimMetrics {
    pub latency_peak_ms: f64,
    pub latency_mean_ms: f64,
    pub scaling_duration_ms: f64,
    pub suspension_ms: f64,
}

impl SimMetrics {
    /// Marker latency over the scaling period on a rescale workload and over
    /// the whole run elsewhere; the period ends where the paper's detector
    /// says latency re-stabilised, else where migration finished.
    pub fn of(plan: &Plan, o: &SimOutcome) -> Self {
        let (lo, hi, duration) = match (plan.scales.first(), plan.period_detector) {
            (None, _) => (0, plan.horizon, 0),
            (Some(&(at, _)), Some((pre, hold))) => {
                let metrics = streamflow::metrics::Metrics {
                    latency: o.latency.clone(),
                    ..Default::default()
                };
                let end = metrics
                    .scaling_period_end(at, pre, 1.10, hold)
                    .or(o.plans[0].migration_done)
                    .unwrap_or(plan.horizon);
                (at, end, end - at)
            }
            (Some(&(at, _)), None) => {
                // Plans follow each other too closely for the detector:
                // the period is first request to horizon, the duration is
                // the mean request-to-migration-done time.
                let total: SimTime = o
                    .plans
                    .iter()
                    .map(|p| p.migration_done.unwrap_or(plan.horizon) - p.requested_at)
                    .sum();
                (at, plan.horizon, total / o.plans.len().max(1) as SimTime)
            }
        };
        Self {
            latency_peak_ms: as_ms(o.latency.peak(lo, hi).unwrap_or(0.0) as SimTime),
            latency_mean_ms: o.latency.mean(lo, hi).unwrap_or(0.0) / 1_000.0,
            scaling_duration_ms: as_ms(duration),
            suspension_ms: as_ms(o.suspension_us),
        }
    }
}
