//! The traced run and the verification pass: everything `--trace 1` reports.
//!
//! Counts come from the traced run's own counters and from public counters of
//! the engine, and repeat exactly; times come from the traced run's sampled
//! spans or from the kernels in [`crate::kernels`].

use streamflow::ids::key_group_of;
use streamflow::world::Sim;
use streamflow::BusSinkKind;

use crate::host;
use crate::kernels;
use crate::metrics::{ratio, Values, PER_LAYER};
use crate::rep::{fold_digests, mean_sim_metrics, sim_checks};
use crate::run::{check_name, run_plan, Check, SimMetrics, SimOutcome};
use crate::trace::{Boundary, Tracer};
use crate::workloads::{setup, Engine, Mechanism, Plan, Variant};

/// What the timed, untraced reps of this workload and seed measured: the
/// base every share and overhead here is taken against.
#[derive(Clone, Copy, Debug)]
pub struct Baseline {
    /// Fast quartile of the untraced wall time at the reference clock, ns.
    pub wall_p25_ns: f64,
    pub iqr_over_median: f64,
    pub digest: u64,
    pub sim: SimMetrics,
    pub calib_ns: u64,
}

impl Baseline {
    /// The baseline as one command-line argument for the child process
    /// that runs [`layers`].
    pub fn to_arg(self) -> String {
        format!(
            "{:?},{:?},{},{:?},{:?},{:?},{:?},{}",
            self.wall_p25_ns,
            self.iqr_over_median,
            self.digest,
            self.sim.latency_peak_ms,
            self.sim.latency_mean_ms,
            self.sim.scaling_duration_ms,
            self.sim.suspension_ms,
            self.calib_ns
        )
    }

    pub fn from_arg(arg: &str) -> Result<Self, String> {
        let f: Vec<&str> = arg.split(',').collect();
        let [wall, iqr, digest, peak, mean, duration, suspension, calib] = f[..] else {
            return Err(format!("--base {arg:?}: expected 8 fields"));
        };
        let float = |v: &str| v.parse::<f64>().map_err(|e| format!("--base {v:?}: {e}"));
        let int = |v: &str| v.parse::<u64>().map_err(|e| format!("--base {v:?}: {e}"));
        Ok(Self {
            wall_p25_ns: float(wall)?,
            iqr_over_median: float(iqr)?,
            digest: int(digest)?,
            sim: SimMetrics {
                latency_peak_ms: float(peak)?,
                latency_mean_ms: float(mean)?,
                scaling_duration_ms: float(duration)?,
                suspension_ms: float(suspension)?,
            },
            calib_ns: int(calib)?,
        })
    }
}

/// What the traced run and the verification pass of one workload found.
/// They run in a process of their own, like a rep, so that page faults and
/// RSS growth are this workload's and not left over from the one before;
/// the report travels back in the same kind of line protocol.
pub struct LayerReport {
    /// One value per entry of [`PER_LAYER`] except `checks_failed_share`,
    /// which the caller adds once it has every check.
    pub values: Values,
    pub checks: Vec<Check>,
}

impl LayerReport {
    pub fn to_lines(&self) -> String {
        let mut s = String::new();
        for (name, v) in &self.values {
            s.push_str(&format!("value\t{name}\t{v:?}\n"));
        }
        for c in &self.checks {
            s.push_str(&format!("check\t{}\t{}\t{}\n", c.name, c.left, c.right));
        }
        s
    }

    pub fn parse(text: &str) -> Result<Self, String> {
        let mut report = LayerReport {
            values: Vec::new(),
            checks: Vec::new(),
        };
        for line in text.lines().filter(|l| !l.is_empty()) {
            let f: Vec<&str> = line.split('\t').collect();
            match f[..] {
                ["value", name, v] => {
                    let m = PER_LAYER
                        .iter()
                        .find(|m| m.name == name)
                        .ok_or_else(|| format!("unknown per-layer metric {name:?}"))?;
                    let v = v.parse().map_err(|e| format!("{name}: {e}"))?;
                    report.values.push((m.name, v));
                }
                ["check", name, left, right] => report.checks.push(Check {
                    name: check_name(name)?,
                    left: left.parse().map_err(|e| format!("check {name}: {e}"))?,
                    right: right.parse().map_err(|e| format!("check {name}: {e}"))?,
                }),
                _ => return Err(format!("malformed layer line {line:?}")),
            }
        }
        Ok(report)
    }
}

/// Generate the inputs and build the worlds of one variant of `workload`.
fn build(workload: &str, seed: u64, smoke: bool, v: Variant) -> (Vec<Plan>, Vec<Sim>) {
    let plans = setup(workload, seed, smoke, v);
    let sims = plans.iter().map(Plan::build).collect();
    (plans, sims)
}

fn run_all(
    workload: &str,
    plans: &[Plan],
    sims: Vec<Sim>,
    mut tracer: Option<&mut Tracer>,
) -> Vec<SimOutcome> {
    plans
        .iter()
        .zip(sims)
        .enumerate()
        .map(|(i, (plan, sim))| {
            if let Some(tr) = tracer.as_deref_mut() {
                tr.begin_sim(&format!("{workload}#{i}"), plan.horizon);
            }
            let o = run_plan(plan, sim, tracer.as_deref_mut());
            if let Some(tr) = tracer.as_deref_mut() {
                tr.end_sim();
            }
            o
        })
        .collect()
}

/// One untraced run of a variant: its plans, its outcomes, and the host time
/// inside its timed calls at the reference clock.
fn run_variant(
    workload: &str,
    seed: u64,
    smoke: bool,
    v: Variant,
) -> (Vec<Plan>, Vec<SimOutcome>, f64) {
    let (plans, sims) = build(workload, seed, smoke, v);
    let (outcomes, factor) = host::at_reference_clock(|| run_all(workload, &plans, sims, None));
    let wall = total(&outcomes, |o| o.wall_ns) * factor;
    (plans, outcomes, wall)
}

/// A kernel's unit cost at the reference clock.
fn kernel(f: impl FnOnce() -> f64) -> f64 {
    let (ns, factor) = host::at_reference_clock(f);
    ns * factor
}

fn total(outcomes: &[SimOutcome], f: impl Fn(&SimOutcome) -> u64) -> f64 {
    outcomes.iter().map(f).sum::<u64>() as f64
}

fn mean(outcomes: &[SimOutcome], f: impl Fn(&SimOutcome) -> u64) -> f64 {
    ratio(total(outcomes, f), outcomes.len() as f64)
}

/// Share of a key table that falls into its most loaded key-group.
fn hot_keygroup_share(table: &[u32]) -> f64 {
    let mut per_group = [0u64; 128];
    for &k in table {
        per_group[key_group_of(k as u64, 128).0 as usize] += 1;
    }
    ratio(
        per_group.iter().copied().max().unwrap_or(0) as f64,
        table.len() as f64,
    )
}

/// Run the traced rep and the verification pass of `workload`; returns the
/// report and the trace as JSON.
pub fn layers(workload: &str, seed: u64, smoke: bool, base: &Baseline) -> (LayerReport, String) {
    let rescale = matches!(workload, "q7_rescale" | "rescale_churn");
    let pdes = workload == "pdes_twin";
    let mut v: Values = Vec::with_capacity(PER_LAYER.len());
    let mut checks = Vec::new();
    let load1_start = host::load1();

    // --- Traced rep. The threaded executor owns its dispatch loops, so
    // `pdes_twin` is traced on the sequential PDES engine, whose digest the
    // threaded run must equal anyway.
    let traced_variant = Variant {
        engine: if pdes {
            Engine::SeqPdes
        } else {
            Engine::Threaded
        },
        ..Variant::TIMED
    };
    let mut tracer = Tracer::new();
    let (plans, sims) = build(workload, seed, smoke, traced_variant);
    let (faults0, rss0) = (host::minor_faults(), host::vm_rss_kb());
    // `clock` takes the traced run's host times to the reference clock.
    let (traced, clock) =
        host::at_reference_clock(|| run_all(workload, &plans, sims, Some(&mut tracer)));
    let (faults1, rss1) = (host::minor_faults(), host::vm_rss_kb());
    checks.push(Check {
        name: "traced_digest_equals_untraced",
        left: fold_digests(traced.iter().map(|o| o.digest)),
        right: base.digest,
    });
    checks.extend(traced.iter().flat_map(sim_checks));
    let traced_wall = total(&traced, |o| o.wall_ns) * clock;

    // --- Verification pass, `pdes_twin`: the same run on the sequential
    // PDES engine and on one region, for the digest check and the two
    // speed-up bases.
    let mut untraced_wall = base.wall_p25_ns;
    let (mut seq_wall, mut r1_wall) = (0.0, 0.0);
    let mut seq: Vec<SimOutcome> = Vec::new();
    if pdes {
        let seq_variant = Variant {
            engine: Engine::SeqPdes,
            ..Variant::TIMED
        };
        (_, seq, seq_wall) = run_variant(workload, seed, smoke, seq_variant);
        checks.push(Check {
            name: "threaded_digest_equals_sequential",
            left: base.digest,
            right: fold_digests(seq.iter().map(|o| o.digest)),
        });
        checks.extend(seq.iter().flat_map(sim_checks));
        let r1_variant = Variant {
            engine: Engine::SingleRegion,
            ..Variant::TIMED
        };
        r1_wall = run_variant(workload, seed, smoke, r1_variant).2;
        // The traced loop is compared with the engine it replaced.
        untraced_wall = seq_wall;
    }

    // --- One more rep with the bus feeding the in-memory sink.
    let bus_variant = Variant {
        bus: BusSinkKind::Mem,
        ..Variant::TIMED
    };
    let (_, bus, bus_wall) = run_variant(workload, seed, smoke, bus_variant);
    checks.push(Check {
        name: "bus_digest_equals_untraced",
        left: fold_digests(bus.iter().map(|o| o.digest)),
        right: base.digest,
    });

    // --- Scheduler.
    let events = tracer.events() as f64;
    let pop = tracer.totals[Boundary::Pop as usize];
    let kind = |b: Boundary| tracer.totals[b as usize];
    let dispatch_ns: u64 = [
        Boundary::SourceTick,
        Boundary::Deliver,
        Boundary::ProcDone,
        Boundary::Control,
        Boundary::Housekeeping,
        Boundary::Mixed,
    ]
    .iter()
    .map(|&b| kind(b).busy_ns())
    .sum();
    let spans_ns = (pop.busy_ns() + dispatch_ns) as f64;
    let mut depth = std::mem::take(&mut tracer.depth);
    depth.sort_unstable();
    let depth_p50 = depth.get(depth.len() / 2).copied().unwrap_or(0);
    let events_per_run = ratio(events, pop.runs as f64);
    let queue_kernel =
        kernel(|| kernels::queue_hold(depth_p50 as usize, events_per_run.round() as usize));
    v.push(("simcore.queue.pops", events));
    v.push(("simcore.queue.runs", pop.runs as f64));
    v.push((
        "simcore.queue.events_per_run",
        ratio(events, pop.runs as f64),
    ));
    v.push(("simcore.queue.depth_p50", depth_p50 as f64));
    v.push((
        "simcore.queue.depth_max",
        depth.last().copied().unwrap_or(0) as f64,
    ));
    v.push((
        "simcore.queue.pop_ns_per_event",
        ratio(pop.busy_ns() as f64 * clock, events),
    ));
    v.push((
        "simcore.queue.pop_share",
        ratio(pop.busy_ns() as f64, spans_ns),
    ));
    v.push(("simcore.queue.kernel_ns_per_op", queue_kernel));

    // --- Dispatch. A kind's unit cost comes from the runs that held only
    // that kind; its event count is exact whatever run an event came in.
    let generated = total(&traced, |o| o.generated);
    let unit = |b: Boundary| ratio(kind(b).busy_ns() as f64 * clock, kind(b).events as f64);
    let count = |b: Boundary| tracer.kind_events[b as usize] as f64;
    v.push((
        "engine.dispatch.ns_per_event",
        ratio(dispatch_ns as f64 * clock, events),
    ));
    v.push(("engine.dispatch.share", ratio(dispatch_ns as f64, spans_ns)));
    v.push((
        "engine.dispatch.source_tick_ns_per_event",
        unit(Boundary::SourceTick),
    ));
    v.push((
        "engine.dispatch.deliver_ns_per_event",
        unit(Boundary::Deliver),
    ));
    v.push((
        "engine.dispatch.proc_done_ns_per_event",
        unit(Boundary::ProcDone),
    ));
    v.push((
        "engine.dispatch.control_ns_per_event",
        unit(Boundary::Control),
    ));
    v.push((
        "engine.dispatch.mixed_run_share",
        ratio(kind(Boundary::Mixed).runs as f64, pop.runs as f64),
    ));
    v.push((
        "engine.dispatch.source_tick_events",
        count(Boundary::SourceTick),
    ));
    v.push(("engine.dispatch.deliver_events", count(Boundary::Deliver)));
    v.push((
        "engine.dispatch.proc_done_events",
        count(Boundary::ProcDone),
    ));
    v.push(("engine.dispatch.control_events", count(Boundary::Control)));
    v.push((
        "engine.dispatch.housekeeping_events",
        count(Boundary::Housekeeping),
    ));
    v.push((
        "engine.dispatch.events_per_record",
        ratio(events, generated),
    ));
    v.push((
        "engine.dispatch.scale_phase_share",
        ratio(tracer.scale_phase_ns as f64 * clock, traced_wall),
    ));
    v.push((
        "engine.dispatch.scale_phase_ns_per_event",
        ratio(
            tracer.scale_phase_ns as f64 * clock,
            tracer.scale_phase_events as f64,
        ),
    ));

    // --- Arena.
    let slab_kernel = kernel(|| kernels::slab_churn(tracer.arena_live_max as usize));
    v.push(("engine.arena.live_max", tracer.arena_live_max as f64));
    v.push(("engine.arena.live_end", mean(&traced, |o| o.arena_live_end)));
    v.push((
        "engine.arena.slots",
        traced.iter().map(|o| o.arena_slots).max().unwrap_or(0) as f64,
    ));
    v.push(("simcore.slab.kernel_ns_per_op", slab_kernel));

    // --- The blocked path.
    let mut backlog = std::mem::take(&mut tracer.channels.backlog);
    backlog.sort_unstable();
    v.push((
        "engine.channel.backlog_p50",
        backlog.get(backlog.len() / 2).copied().unwrap_or(0) as f64,
    ));
    v.push((
        "engine.channel.backlog_max",
        backlog.last().copied().unwrap_or(0) as f64,
    ));
    v.push((
        "engine.channel.zero_credit_sample_share",
        ratio(tracer.channels.zero_credit as f64, backlog.len() as f64),
    ));
    v.push((
        "engine.source.pending_max",
        tracer.channels.pending_max as f64,
    ));

    // --- Keyed state, routing, windows.
    let table = &plans[0].tables[0];
    let q7 = workload == "q7_rescale";
    let state_kernel = kernel(|| kernels::state_update(table));
    let route_kernel = kernel(|| kernels::route(table, plans[0].par));
    let pane_kernel = if q7 { kernel(kernels::pane_add) } else { 0.0 };
    v.push(("engine.state.keys_end", mean(&traced, |o| o.state_keys)));
    v.push(("engine.state.bytes_end", mean(&traced, |o| o.state_bytes)));
    v.push(("engine.state.update_ns_per_op", state_kernel));
    v.push((
        "engine.state.extract_install_ns_per_group",
        if rescale {
            kernel(|| kernels::extract_install(table))
        } else {
            0.0
        },
    ));
    v.push(("engine.keygroup.route_ns_per_op", route_kernel));
    v.push(("engine.window.pane_ns_per_op", pane_kernel));

    // --- The mechanism under test.
    let scale_plans: Vec<_> = traced.iter().flat_map(|o| o.plans.iter()).collect();
    let n_plans = scale_plans.len() as f64;
    let planned: u64 = scale_plans.iter().map(|p| p.planned_moves).sum();
    v.push(("core.planned_moves", planned as f64));
    v.push((
        "core.settled_moves",
        scale_plans.iter().map(|p| p.settled_moves).sum::<u64>() as f64,
    ));
    v.push((
        "core.subscales",
        scale_plans.iter().map(|p| p.subscales).sum::<u64>() as f64,
    ));
    v.push((
        "core.bytes_transferred",
        scale_plans.iter().map(|p| p.bytes_transferred).sum::<u64>() as f64,
    ));
    v.push((
        "core.lp_ms",
        ratio(scale_plans.iter().map(|p| p.lp_ms).sum(), n_plans),
    ));
    v.push((
        "core.ld_ms",
        ratio(scale_plans.iter().map(|p| p.ld_ms).sum(), n_plans),
    ));
    v.push((
        "core.control_events",
        tracer.scale_phase_control_events as f64,
    ));
    v.push((
        "core.planner_ns_per_plan",
        if rescale {
            let moves = ratio(planned as f64, n_plans) as usize;
            let to = plans[0].scales[0].1;
            kernel(|| kernels::planner(moves, plans[0].par, to.abs_diff(plans[0].par)))
        } else {
            0.0
        },
    ));

    // --- Verification pass, rescale pair: per-key order with the checker
    // on, the no-scale twin's state, and the paper's comparison systems in
    // place of DRRS.
    let mut baseline_metrics = [(SimMetrics::default(), 0.0); 2];
    if rescale {
        let checked = Variant {
            check_semantics: true,
            ..Variant::TIMED
        };
        let checked = run_variant(workload, seed, smoke, checked).1;
        checks.push(Check {
            name: "order_violations",
            left: checked.iter().map(|o| o.violations).sum(),
            right: 0,
        });
        let twin = Variant {
            mech: Mechanism::NoScale,
            ..Variant::TIMED
        };
        let twin = run_variant(workload, seed, smoke, twin).1;
        checks.extend(twin.iter().flat_map(sim_checks));
        checks.push(Check {
            name: "state_keys_equal_no_scale_twin",
            left: traced.iter().map(|o| o.state_keys).sum(),
            right: twin.iter().map(|o| o.state_keys).sum(),
        });
        checks.push(Check {
            name: "state_bytes_equal_no_scale_twin",
            left: traced.iter().map(|o| o.state_bytes).sum(),
            right: twin.iter().map(|o| o.state_bytes).sum(),
        });
        for (slot, mech) in [Mechanism::Megaphone, Mechanism::Meces]
            .into_iter()
            .enumerate()
        {
            let variant = Variant {
                mech,
                ..Variant::TIMED
            };
            let (p, o, wall) = run_variant(workload, seed, smoke, variant);
            baseline_metrics[slot] = (
                mean_sim_metrics(&p, &o),
                ratio(wall, total(&o, |o| o.events)),
            );
        }
    }
    let [(mega, mega_ns), (meces, meces_ns)] = baseline_metrics;
    v.push((
        "baselines.megaphone.sim_latency_peak_ms",
        mega.latency_peak_ms,
    ));
    v.push((
        "baselines.megaphone.sim_scaling_duration_ms",
        mega.scaling_duration_ms,
    ));
    v.push(("baselines.megaphone.sim_suspension_ms", mega.suspension_ms));
    v.push(("baselines.megaphone.host_ns_per_event", mega_ns));
    v.push(("baselines.meces.sim_latency_peak_ms", meces.latency_peak_ms));
    v.push((
        "baselines.meces.sim_scaling_duration_ms",
        meces.scaling_duration_ms,
    ));
    v.push(("baselines.meces.sim_suspension_ms", meces.suspension_ms));
    v.push(("baselines.meces.host_ns_per_event", meces_ns));
    let drrs = base.sim;
    v.push((
        "core.drrs.peak_latency_vs_megaphone",
        ratio(drrs.latency_peak_ms, mega.latency_peak_ms),
    ));
    v.push((
        "core.drrs.peak_latency_vs_meces",
        ratio(drrs.latency_peak_ms, meces.latency_peak_ms),
    ));
    v.push((
        "core.drrs.scaling_duration_vs_megaphone",
        ratio(drrs.scaling_duration_ms, mega.scaling_duration_ms),
    ));
    v.push((
        "core.drrs.scaling_duration_vs_meces",
        ratio(drrs.scaling_duration_ms, meces.scaling_duration_ms),
    ));

    // --- Input generation.
    let table_records: usize = plans
        .iter()
        .flat_map(|p| p.tables.iter())
        .map(|t| t.len())
        .sum();
    v.push((
        "workloads.gen_ns_per_record",
        ratio(
            plans.iter().map(|p| p.gen_ns).sum::<u64>() as f64,
            table_records as f64,
        ),
    ));
    v.push(("workloads.hot_keygroup_share", hot_keygroup_share(table)));

    // --- Event bus.
    v.push(("engine.bus.published", total(&bus, |o| o.bus.published)));
    v.push(("engine.bus.dropped", total(&bus, |o| o.bus.dropped)));
    v.push((
        "engine.bus.lag_max",
        bus.iter().map(|o| o.bus.lag_max).max().unwrap_or(0) as f64,
    ));
    v.push((
        "engine.bus.overhead_share",
        ratio(bus_wall, base.wall_p25_ns) - 1.0,
    ));

    // --- Thread-per-region execution (the bus rep ran threaded).
    let (stats, threads) = bus.first().and_then(|o| o.parallel).unwrap_or_default();
    let threads = threads.max(1) as f64;
    v.push(("engine.parallel.epochs", stats.epochs as f64));
    v.push((
        "engine.parallel.busy_epoch_share",
        ratio(stats.busy_epochs as f64, stats.epochs as f64 * threads),
    ));
    v.push((
        "engine.parallel.events_per_epoch",
        if pdes {
            ratio(events, stats.epochs as f64)
        } else {
            0.0
        },
    ));
    v.push(("engine.parallel.msgs_sent", stats.msgs_sent as f64));
    v.push((
        "engine.parallel.msgs_overflowed",
        stats.msgs_overflowed as f64,
    ));
    v.push((
        "engine.parallel.speedup_vs_seq_pdes",
        ratio(seq_wall, base.wall_p25_ns),
    ));
    v.push((
        "engine.parallel.speedup_vs_r1",
        ratio(r1_wall, base.wall_p25_ns),
    ));
    v.push((
        "engine.region.cut_channels",
        total(&seq, |o| o.cut_channels),
    ));
    v.push(("simcore.region.merged_runs", total(&seq, |o| o.merged_runs)));
    v.push(("simcore.region.null_msgs", total(&seq, |o| o.null_msgs)));
    v.push((
        "simcore.spsc.ring_ns_per_msg",
        if pdes {
            kernel(kernels::spsc_ring)
        } else {
            0.0
        },
    ));
    v.push((
        "simcore.spsc.barrier_ns_per_cycle",
        if pdes {
            kernel(kernels::epoch_barrier)
        } else {
            0.0
        },
    ));

    // --- Host and the benchmark's own accuracy. The model: every pop at the
    // scheduler kernel's cost, every delivery an arena insert + remove, every
    // element one route and one state (and, on Q7, pane) update.
    let elements = ratio(generated, plans[0].batch as f64);
    let modelled = events * queue_kernel
        + count(Boundary::Deliver) * slab_kernel
        + elements * (route_kernel + state_kernel + pane_kernel);
    v.push(("host.minor_faults_timed", (faults1 - faults0) as f64));
    v.push((
        "host.minor_faults_second_half",
        tracer.second_half_faults as f64,
    ));
    v.push((
        "host.rss_growth_timed_mb",
        (rss1 as f64 - rss0 as f64) / 1024.0,
    ));
    v.push(("host.cpus", host::cpus() as f64));
    v.push(("host.load1_start", load1_start));
    v.push(("host.load1_end", host::load1()));
    v.push(("host.calib_ns", base.calib_ns as f64));
    v.push(("host.iqr_over_median", base.iqr_over_median));
    v.push((
        "bench.tracing_overhead",
        ratio(traced_wall, untraced_wall) - 1.0,
    ));
    v.push((
        "bench.model_residual_share",
        1.0 - ratio(modelled, untraced_wall),
    ));
    v.push(("sim_latency_peak_ms", drrs.latency_peak_ms));
    v.push(("sim_latency_mean_ms", drrs.latency_mean_ms));
    v.push(("sim_scaling_duration_ms", drrs.scaling_duration_ms));
    v.push(("sim_suspension_ms", drrs.suspension_ms));

    let report = LayerReport { values: v, checks };
    (report, tracer.to_json(workload, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_and_report_round_trip_between_processes() {
        let base = Baseline {
            wall_p25_ns: 1.23456789e9,
            iqr_over_median: 0.1 + 0.2,
            digest: u64::MAX - 1,
            sim: SimMetrics {
                latency_peak_ms: 8.992,
                latency_mean_ms: 6.6182605,
                scaling_duration_ms: 0.0,
                suspension_ms: 1e-3,
            },
            calib_ns: 22_000_123,
        };
        let back = Baseline::from_arg(&base.to_arg()).unwrap();
        assert_eq!(back.wall_p25_ns.to_bits(), base.wall_p25_ns.to_bits());
        assert_eq!(
            back.iqr_over_median.to_bits(),
            base.iqr_over_median.to_bits()
        );
        assert_eq!((back.digest, back.calib_ns), (base.digest, base.calib_ns));
        assert_eq!(back.sim.latency_mean_ms, base.sim.latency_mean_ms);
        assert!(Baseline::from_arg("1,2,3").is_err());

        let report = LayerReport {
            values: vec![
                ("simcore.queue.pops", 2.0e7),
                ("bench.tracing_overhead", -0.01),
            ],
            checks: vec![Check {
                name: "order_violations",
                left: 0,
                right: 0,
            }],
        };
        let back = LayerReport::parse(&report.to_lines()).unwrap();
        assert_eq!(back.values, report.values);
        assert_eq!(back.checks[0].name, "order_violations");
        assert!(LayerReport::parse("value\tnot.a.metric\t1\n").is_err());
        assert!(LayerReport::parse("panicked at src/layers.rs\n").is_err());
    }
}
