//! The five workloads. Every parameter that shapes a run is pinned in this
//! file; worlds are assembled from the layers' own constructors
//! (`EngineConfig::test()` / `nexmark_engine_config` plus field assignment,
//! `JobBuilder`, the operators, `Sim::new`), never looked up by registry
//! name, so a change to the registry cannot silently change what is measured.

use std::sync::Arc;
use std::time::Instant;

use baselines::{megaphone, MecesPlugin};
use drrs_core::FlexScaler;
use simcore::time::{ms, secs, SimTime};
use streamflow::graph::{EdgeKind, JobBuilder};
use streamflow::operator::{KeyedAgg, WindowAgg};
use streamflow::window::Agg;
use streamflow::world::Sim;
use streamflow::{BusSinkKind, EngineConfig, NoScale, OpId, ScalePlugin};
use workloads::nexmark::{nexmark_engine_config, Q7Params};

use crate::gen::{key_table, Keys, Rate, TableGen, Value, TABLE_LEN};

/// Workload names, in report order. Names are final: later issues quote them.
pub const NAMES: [&str; 5] = [
    "steady",
    "bursty_backpressure",
    "q7_rescale",
    "rescale_churn",
    "pdes_twin",
];

/// One sentence per workload on why it exists (also `BENCHMARK.json`'s `why`).
pub fn why(name: &str) -> &'static str {
    match name {
        "steady" => "constant 50k rps at 62% utilisation, no scaling: only the data plane (scheduler, dispatch, operator, route/send, arena) works",
        "bursty_backpressure" => "square-wave 1.5x/0.3x capacity with Zipf keys: the same data plane on its blocked path (credits exhausted, backlog block/resume, source pending)",
        "q7_rescale" => "the paper's Fig. 10 cell, NEXMark Q7 scaled 8 to 12 by DRRS: window panes, state backend and operator logic dominate",
        "rescale_churn" => "16 short sims with four DRRS plans over large keyed state: scaling control (planner, extract/install, re-routing, barriers) has its largest share",
        "pdes_twin" => "two disjoint 60k rps pipelines on the 2-thread PDES executor: the only workload where engine::parallel, spsc and region sync do work",
        _ => unreachable!("unknown workload {name}"),
    }
}

/// Which rescaling mechanism drives the two rescale workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mechanism {
    Drrs,
    Megaphone,
    Meces,
    /// The no-scale twin: same job and inputs, but the operator has the
    /// parallelism of the last plan from the start and no plan is requested.
    NoScale,
}

/// Which executor runs `pdes_twin` (ignored by the other workloads).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// `run_parallel`, one thread per region.
    Threaded,
    /// The same PDES configuration on the sequential reference engine.
    SeqPdes,
    /// `regions = 1`, `resume_latency = 0`: the plain sequential engine.
    SingleRegion,
}

/// The axes the traced and verification passes vary; the timed rounds always
/// use [`Variant::TIMED`].
#[derive(Clone, Copy, Debug)]
pub struct Variant {
    pub mech: Mechanism,
    pub check_semantics: bool,
    pub bus: BusSinkKind,
    pub engine: Engine,
}

impl Variant {
    pub const TIMED: Variant = Variant {
        mech: Mechanism::Drrs,
        check_semantics: false,
        bus: BusSinkKind::Null,
        engine: Engine::Threaded,
    };
}

/// One simulation, inputs already generated: everything but the world.
pub struct Plan {
    pub horizon: SimTime,
    /// `(at, new parallelism)` of each scale request, ascending.
    pub scales: Vec<(SimTime, usize)>,
    /// The operator fed by the sources: the one that scales, and the hop
    /// over which record conservation is counted.
    pub op: OpId,
    /// Every input record yields exactly one sink record.
    pub one_to_one: bool,
    /// Run through `run_parallel` instead of `Sim::run_until`.
    pub threaded: bool,
    /// Window of the paper's scaling-period detector (`pre`, `hold`), or
    /// `None` where plans are too close together for it to apply.
    pub period_detector: Option<(SimTime, SimTime)>,
    /// Same-key records fused into one stream element by the sources.
    pub batch: u32,
    /// Parallelism of `op` before any scaling.
    pub par: usize,
    /// The key tables the sources cycle through.
    pub tables: Vec<Arc<[u32]>>,
    /// Host time spent drawing `tables`.
    pub gen_ns: u64,
    build: Box<dyn Fn() -> Sim + Send + Sync>,
}

impl Plan {
    /// Build the world and pair it with the mechanism. The first scale
    /// request is already scheduled; later ones are requested by the runner
    /// when the previous segment ends, so each sees the true parallelism.
    pub fn build(&self) -> Sim {
        (self.build)()
    }

    /// The sim factory, for `run_parallel`.
    pub fn factory(&self) -> &(dyn Fn() -> Sim + Send + Sync) {
        &*self.build
    }
}

fn plugin(mech: Mechanism) -> Box<dyn ScalePlugin> {
    match mech {
        Mechanism::Drrs => Box::new(FlexScaler::drrs()),
        Mechanism::Megaphone => Box::new(megaphone(1)),
        Mechanism::Meces => Box::new(MecesPlugin::new()),
        Mechanism::NoScale => Box::new(NoScale),
    }
}

/// The measurement profile of the keyed-aggregate workloads: the small test
/// deployment with the paper's 128 key-groups.
fn keyed_cfg(seed: u64, v: Variant) -> EngineConfig {
    let mut cfg = EngineConfig::test();
    cfg.max_key_groups = 128;
    cfg.check_semantics = v.check_semantics;
    cfg.bus_sink = v.bus;
    cfg.seed = seed;
    cfg
}

/// Sources stop this long before the horizon, so every record has left the
/// pipeline when the run ends and conservation is an equality.
fn drain_time(horizon: SimTime) -> SimTime {
    (horizon / 20).min(secs(2))
}

/// A source that emits fewer records than a full table holds gets a table
/// just long enough, so short simulations do not pay for keys they never use.
fn table_len(limit: u64) -> usize {
    (limit.next_power_of_two() as usize).min(TABLE_LEN)
}

/// One keyed-aggregate workload: `pipes` disjoint
/// `src → keyed-agg × par → sink` pipelines.
struct KeyedJob {
    cfg: EngineConfig,
    pipes: usize,
    par: usize,
    rate: Rate,
    keys: Keys,
    bytes_per_key: u64,
    horizon: SimTime,
    scales: Vec<(SimTime, usize)>,
    threaded: bool,
}

fn keyed_sim(
    job: &KeyedJob,
    tables: &[Arc<[u32]>],
    limit: u64,
    mech: Mechanism,
    first_scale: Option<(SimTime, usize)>,
) -> Sim {
    let mut b = JobBuilder::new(job.cfg.clone());
    let mut first_agg = None;
    for (p, table) in tables.iter().enumerate() {
        let (table, rate) = (Arc::clone(table), job.rate);
        let src = b.source(
            &format!("src{p}"),
            1,
            Box::new(move |_| {
                Box::new(TableGen {
                    table: Arc::clone(&table),
                    pos: 0,
                    rate,
                    value: Value::One,
                    batch: 1,
                    limit,
                })
            }),
        );
        let bytes_per_key = job.bytes_per_key;
        let agg = b.operator(
            &format!("agg{p}"),
            job.par,
            Box::new(move || {
                Box::new(KeyedAgg {
                    service: 50,
                    bytes_per_key,
                    bytes_per_record: 0,
                    emit_every: 1,
                })
            }),
        );
        let sink = b.sink(&format!("sink{p}"), 1);
        b.connect(src, agg, EdgeKind::Keyed);
        b.connect(agg, sink, EdgeKind::Rebalance);
        first_agg.get_or_insert(agg);
    }
    let mut w = b.build();
    if let Some((at, to)) = first_scale {
        w.schedule_scale(at, first_agg.expect("at least one pipeline"), to);
    }
    Sim::new(w, plugin(mech))
}

fn keyed_plan(mut job: KeyedJob, seed: u64, mech: Mechanism) -> Plan {
    let limit = job
        .rate
        .records_until(job.horizon - drain_time(job.horizon));
    let t0 = Instant::now();
    let tables: Vec<Arc<[u32]>> = (0..job.pipes)
        .map(|p| {
            key_table(
                job.keys,
                seed.wrapping_add(0x9E37 * p as u64),
                table_len(limit),
            )
        })
        .collect();
    let gen_ns = t0.elapsed().as_nanos() as u64;
    let mut scales = std::mem::take(&mut job.scales);
    if mech == Mechanism::NoScale {
        job.par = scales.last().map_or(job.par, |s| s.1);
        scales.clear();
    }
    let first = scales.first().copied();
    let build_tables = tables.clone();
    Plan {
        horizon: job.horizon,
        scales,
        op: OpId(1),
        one_to_one: true,
        threaded: job.threaded,
        period_detector: None,
        batch: 1,
        par: job.par,
        tables,
        gen_ns,
        build: Box::new(move || keyed_sim(&job, &build_tables, limit, mech, first)),
    }
}

/// Generate the inputs of `name` from `seed` and return its simulations.
/// `smoke` shrinks every horizon to a tenth (CI hook; numbers not comparable).
pub fn setup(name: &str, seed: u64, smoke: bool, v: Variant) -> Vec<Plan> {
    let scale = |t: SimTime| if smoke { t / 10 } else { t };
    match name {
        "steady" => {
            let job = KeyedJob {
                cfg: keyed_cfg(seed, v),
                pipes: 1,
                par: 4,
                rate: Rate::Constant(50_000.0),
                keys: Keys::Uniform(4_096),
                bytes_per_key: 1_000,
                horizon: scale(secs(200)),
                scales: Vec::new(),
                threaded: false,
            };
            vec![keyed_plan(job, seed, Mechanism::NoScale)]
        }
        "bursty_backpressure" => {
            let job = KeyedJob {
                cfg: keyed_cfg(seed, v),
                pipes: 1,
                // Two instances serve 2 / 50 µs = 40k rps.
                par: 2,
                rate: Rate::Square {
                    hi: 60_000.0,
                    lo: 12_000.0,
                    half_period: secs(1),
                },
                keys: Keys::Zipf(1_024, 1.0),
                bytes_per_key: 1_000,
                horizon: scale(secs(120)),
                scales: Vec::new(),
                threaded: false,
            };
            vec![keyed_plan(job, seed, Mechanism::NoScale)]
        }
        "q7_rescale" => vec![q7_plan(seed, scale(secs(300)), scale(secs(620)), smoke, v)],
        "rescale_churn" => {
            let sims = if smoke { 2 } else { 16 };
            (0..sims)
                .map(|i| {
                    let seed = seed.wrapping_add(i);
                    let job = KeyedJob {
                        cfg: keyed_cfg(seed, v),
                        pipes: 1,
                        par: 4,
                        rate: Rate::Constant(20_000.0),
                        keys: Keys::Uniform(65_536),
                        // 65,536 keys × 4 kB = 256 MB of keyed state: tuned
                        // once (from 1 kB) so that the scale phase takes over
                        // 40 % of host time, then frozen.
                        bytes_per_key: 4_000,
                        horizon: secs(10),
                        scales: vec![(secs(4), 6), (ms(5_500), 3), (secs(7), 8), (ms(8_500), 4)],
                        threaded: false,
                    };
                    keyed_plan(job, seed, v.mech)
                })
                .collect()
        }
        "pdes_twin" => {
            let mut cfg = keyed_cfg(seed, v);
            if v.engine != Engine::SingleRegion {
                cfg.regions = 2;
                cfg.resume_latency = 100;
            }
            let job = KeyedJob {
                cfg,
                pipes: 2,
                par: 4,
                rate: Rate::Constant(60_000.0),
                keys: Keys::Uniform(8_192),
                bytes_per_key: 1_000,
                horizon: scale(secs(100)),
                scales: Vec::new(),
                threaded: v.engine == Engine::Threaded,
            };
            vec![keyed_plan(job, seed, Mechanism::NoScale)]
        }
        _ => unreachable!("unknown workload {name}"),
    }
}

/// NEXMark Q7 as `workloads::nexmark::q7` builds it (two bid sources, the
/// sliding-window maximum, one sink; `Q7Params::default()` throughout), but
/// fed by the benchmark's own generator so that `--seed` changes the bids.
fn q7_plan(seed: u64, scale_at: SimTime, horizon: SimTime, smoke: bool, v: Variant) -> Plan {
    let p = Q7Params::default();
    let sources = 2;
    let rate = Rate::Constant(p.tps / sources as f64);
    let limit = rate.records_until(horizon - drain_time(horizon));
    let mut cfg = nexmark_engine_config(seed);
    cfg.check_semantics = v.check_semantics;
    cfg.bus_sink = v.bus;
    let t0 = Instant::now();
    let tables: Vec<Arc<[u32]>> = (0..sources)
        .map(|i| {
            key_table(
                Keys::Zipf(4_000, 0.2),
                seed.wrapping_add(0x0B1D + i as u64),
                table_len(limit),
            )
        })
        .collect();
    let gen_ns = t0.elapsed().as_nanos() as u64;
    const SCALE_TO: usize = 12;
    let (scales, par) = if v.mech == Mechanism::NoScale {
        (Vec::new(), SCALE_TO)
    } else {
        (vec![(scale_at, SCALE_TO)], p.parallelism)
    };
    let first = scales.first().copied();
    let (build_tables, mech) = (tables.clone(), v.mech);
    Plan {
        horizon,
        scales,
        op: OpId(1),
        one_to_one: false,
        threaded: false,
        // The paper's detector: latency back within 1.10 × the mean of the
        // 50 s before the request, and staying there for 100 s.
        period_detector: Some(if smoke {
            (secs(5), secs(10))
        } else {
            (secs(50), secs(100))
        }),
        batch: p.batch,
        par,
        tables,
        gen_ns,
        build: Box::new(move || {
            let mut b = JobBuilder::new(cfg.clone());
            let tables = build_tables.clone();
            let batch = p.batch;
            let src = b.source(
                "bids",
                sources,
                Box::new(move |i| {
                    Box::new(TableGen {
                        table: Arc::clone(&tables[i]),
                        pos: 0,
                        rate,
                        value: Value::Bid,
                        batch,
                        limit,
                    })
                }),
            );
            let (window, slide) = (p.window, p.slide);
            let agg = b.operator(
                "window-max",
                par,
                Box::new(move || Box::new(WindowAgg::new(window, slide, Agg::Max, 330, 4_000))),
            );
            let sink = b.sink("sink", 1);
            b.connect(src, agg, EdgeKind::Keyed);
            b.connect(agg, sink, EdgeKind::Rebalance);
            let mut w = b.build();
            if let Some((at, to)) = first {
                w.schedule_scale(at, agg, to);
            }
            Sim::new(w, plugin(mech))
        }),
    }
}
