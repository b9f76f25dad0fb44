//! The central scenario registry: **every run used anywhere in the repo
//! has a unique name here** — the eight `perf/` scenarios, the two Q7
//! fire pins, every fig02–fig15 row, and the ablation cells — and the
//! catalog of [`Pinned`] runs, which adds the hand-built worlds the pin
//! store holds rows for.
//!
//! Names are hierarchical (`group/detail...`) and stable; they are the
//! identity of a run (`scenario --run NAME`). The figures ([`super::figures`]) are the
//! `*_plan` structs, which carry the rendering axes — rates, seeds,
//! windows — next to the grid, so the figure layout and the grid can never
//! drift apart; tests pull individual specs with [`find`].
//!
//! Every function takes `quick: bool` explicitly — quick mode compresses
//! timelines and grids exactly the way the pre-registry binaries did, so
//! the same name resolves to the quick or full variant of the same row.

use baselines::{otfs_fluid, MecesPlugin, StopRestartPlugin, UnboundPlugin};
use simcore::time::{ms, secs, SimTime};
use streamflow::graph::{EdgeKind, JobBuilder};
use streamflow::operator::KeyedAgg;
use streamflow::world::tests_support::{tiny_job, FixedGen};
use streamflow::world::{Sim, World};
use streamflow::{EngineConfig, OpId, ScalePlugin};
use workloads::custom::CustomParams;
use workloads::nexmark::{Q7Params, Q8Params};
use workloads::twitch::TwitchParams;

use super::golden::Outcome;
use super::{EngineProfile, MechanismSpec, ScaleSpec, ScenarioSpec, WorkloadSpec};
use drrs_core::{FlexScaler, MechanismConfig, SchedStats};

fn spec(
    name: String,
    engine: EngineProfile,
    seed: u64,
    workload: WorkloadSpec,
    mechanism: MechanismSpec,
    scale: Option<ScaleSpec>,
    horizon: SimTime,
) -> ScenarioSpec {
    ScenarioSpec {
        name,
        engine,
        check_semantics: false,
        seed,
        workload,
        mechanism,
        scale,
        horizon,
        regions: 1,
        resume_latency: 0,
        bus_sink: Default::default(),
    }
}

/// Full DRRS, the mechanism most rows run.
fn drrs() -> MechanismSpec {
    MechanismSpec::Flex(MechanismConfig::drrs())
}

/// The eight `perf/` scenarios. Digests of these runs on the full
/// timelines are the cross-build behavior contract, pinned by the pin
/// store's `crates/bench/golden/perf_digests.txt` (see [`super::golden`]).
pub fn perf_scenarios(quick: bool) -> Vec<ScenarioSpec> {
    let horizon = secs(if quick { 4 } else { 10 });
    let tiny = |rate, universe, par| WorkloadSpec::TinyJob {
        rate,
        universe,
        par,
    };
    let perf = |name: &str, workload, mechanism, scale| {
        spec(
            format!("perf/{name}"),
            EngineProfile::Perf,
            0xD225,
            workload,
            mechanism,
            scale,
            horizon,
        )
    };
    vec![
        perf(
            "steady_50k",
            tiny(50_000.0, 4_096, 4),
            MechanismSpec::NoScale,
            None,
        ),
        perf(
            "drrs_rescale_4_to_6",
            tiny(50_000.0, 4_096, 4),
            drrs(),
            Some(ScaleSpec { at: secs(2), to: 6 }),
        ),
        perf(
            "megaphone_rescale_4_to_6",
            tiny(50_000.0, 4_096, 4),
            MechanismSpec::Flex(MechanismConfig::megaphone(1)),
            Some(ScaleSpec { at: secs(2), to: 6 }),
        ),
        perf(
            "drrs_scale_in_6_to_3",
            tiny(30_000.0, 4_096, 6),
            drrs(),
            Some(ScaleSpec { at: secs(2), to: 3 }),
        ),
        perf(
            "overload_backpressure",
            tiny(120_000.0, 1_024, 2),
            MechanismSpec::NoScale,
            None,
        ),
        // The two region-stress scenarios (PR 7), sized to mass ~100k
        // pending events when every record was its own scheduler entry;
        // with burst deliveries they hold under 30, and what they stress
        // is the region partition. `cut_pipeline_100k` has a data cut edge
        // for the partitioner to find; `twin_pipelines_100k` has zero cut
        // channels and infinite lookahead (the PDES best case).
        perf(
            "cut_pipeline_100k",
            tiny(400_000.0, 16_384, 8),
            MechanismSpec::NoScale,
            None,
        ),
        perf(
            "twin_pipelines_100k",
            WorkloadSpec::TwinPipes {
                rate: 200_000.0,
                universe: 8_192,
                par: 4,
                pipes: 2,
            },
            MechanismSpec::NoScale,
            None,
        ),
        // The one row that runs a window operator: Q7's sliding-window max
        // fires, evicts and migrates window state, so a change to the pane
        // layout or the firing path moves this digest.
        spec(
            "perf/q7_drrs_rescale_8_to_12".into(),
            EngineProfile::Nexmark,
            0xD225,
            WorkloadSpec::Q7(Q7Params::default()),
            drrs(),
            Some(ScaleSpec {
                at: secs(if quick { 10 } else { 30 }),
                to: 12,
            }),
            secs(if quick { 20 } else { 60 }),
        ),
    ]
}

/// The quick-mode Twitch trace used by several figures (events compressed
/// into a shorter window).
fn twitch_params(quick: bool) -> TwitchParams {
    if quick {
        TwitchParams {
            events: 1_200_000,
            duration_s: 300,
            ..Default::default()
        }
    } else {
        TwitchParams::default()
    }
}

/// Fig. 2 — overhead decomposition (Unbound vs OTFS vs No Scale on Twitch).
pub struct Fig02Plan {
    /// When the scale is requested.
    pub scale_at: SimTime,
    /// End of the paper's measurement window.
    pub end: SimTime,
    /// The three rows, in print order: Unbound, OTFS, No Scale.
    pub specs: Vec<ScenarioSpec>,
}

/// Build the fig. 2 plan.
pub fn fig02_plan(quick: bool) -> Fig02Plan {
    let (scale_at, end) = if quick {
        (secs(60), secs(140))
    } else {
        (secs(250), secs(450))
    };
    let horizon = end + secs(30);
    let params = if quick {
        TwitchParams {
            events: 800_000,
            duration_s: 200,
            ..TwitchParams::default()
        }
    } else {
        TwitchParams::default()
    };
    // Fig. 2 counts order violations as part of its story.
    let row = |name: &str, mechanism, scale| ScenarioSpec {
        check_semantics: true,
        ..spec(
            format!("fig02/{name}"),
            EngineProfile::Twitch,
            42,
            WorkloadSpec::Twitch(params.clone()),
            mechanism,
            scale,
            horizon,
        )
    };
    let out = ScaleSpec {
        at: scale_at,
        to: 12,
    };
    Fig02Plan {
        scale_at,
        end,
        specs: vec![
            row("unbound", MechanismSpec::Unbound, Some(out)),
            row(
                "otfs",
                MechanismSpec::Flex(MechanismConfig::otfs_fluid()),
                Some(out),
            ),
            row("noscale", MechanismSpec::NoScale, None),
        ],
    }
}

/// The three comparison mechanisms of figs. 10–13, in print order.
fn comparison_mechs() -> Vec<(&'static str, MechanismSpec)> {
    vec![
        ("DRRS", drrs()),
        ("Meces", MechanismSpec::Meces),
        (
            "Megaphone",
            MechanismSpec::Flex(MechanismConfig::megaphone(1)),
        ),
    ]
}

fn latency_workload(wname: &str, quick: bool) -> (EngineProfile, WorkloadSpec) {
    match wname {
        "Q7" => {
            let p = if quick {
                Q7Params {
                    tps: 10_000.0,
                    ..Default::default()
                }
            } else {
                Q7Params::default()
            };
            (EngineProfile::Nexmark, WorkloadSpec::Q7(p))
        }
        "Q8" => (
            EngineProfile::Nexmark,
            WorkloadSpec::Q8(Q8Params::default()),
        ),
        _ => (
            EngineProfile::Twitch,
            WorkloadSpec::Twitch(twitch_params(quick)),
        ),
    }
}

/// Fig. 10 + Fig. 11 — latency/throughput during scaling on Q7/Q8/Twitch.
pub struct Fig1011Plan {
    /// When the scale is requested.
    pub scale_at: SimTime,
    /// Per-seed repetition of every (workload, mechanism) row.
    pub seeds: Vec<u64>,
    /// `(workload name, horizon)`, in print order.
    pub workloads: Vec<(&'static str, SimTime)>,
    /// Mechanism names, in print order.
    pub mechs: Vec<&'static str>,
    /// All rows, workload-major, then mechanism, then seed.
    pub specs: Vec<ScenarioSpec>,
}

/// Build the fig. 10/11 plan.
pub fn fig10_11_plan(quick: bool) -> Fig1011Plan {
    let scale_at = if quick { secs(60) } else { secs(300) };
    let seeds: Vec<u64> = if quick { vec![1] } else { vec![1, 2] };
    let workloads: Vec<(&'static str, SimTime)> = if quick {
        vec![("Q7", secs(200)), ("Twitch", secs(200))]
    } else {
        vec![("Q7", secs(620)), ("Q8", secs(900)), ("Twitch", secs(650))]
    };
    let mut specs = Vec::new();
    for &(wname, horizon) in &workloads {
        for (mname, mech) in comparison_mechs() {
            for &seed in &seeds {
                let (engine, workload) = latency_workload(wname, quick);
                specs.push(spec(
                    format!("fig10_11/{wname}/{mname}/seed{seed}"),
                    engine,
                    seed,
                    workload,
                    mech.clone(),
                    Some(ScaleSpec {
                        at: scale_at,
                        to: 12,
                    }),
                    horizon,
                ));
            }
        }
    }
    Fig1011Plan {
        scale_at,
        seeds,
        workloads,
        mechs: comparison_mechs().into_iter().map(|(n, _)| n).collect(),
        specs,
    }
}

/// Fig. 12 + Fig. 13 — Lp/Ld decomposition and cumulative suspension.
pub struct Fig1213Plan {
    /// When the scale is requested.
    pub scale_at: SimTime,
    /// `(workload name, horizon)`, in print order.
    pub workloads: Vec<(&'static str, SimTime)>,
    /// Mechanism names, in print order.
    pub mechs: Vec<&'static str>,
    /// All rows, workload-major, then mechanism.
    pub specs: Vec<ScenarioSpec>,
}

/// Build the fig. 12/13 plan.
pub fn fig12_13_plan(quick: bool) -> Fig1213Plan {
    let scale_at = if quick { secs(60) } else { secs(300) };
    let workloads: Vec<(&'static str, SimTime)> = if quick {
        vec![("Q7", secs(150)), ("Twitch", secs(150))]
    } else {
        vec![("Q7", secs(620)), ("Q8", secs(900)), ("Twitch", secs(650))]
    };
    let mut specs = Vec::new();
    for &(wname, horizon) in &workloads {
        for (mname, mech) in comparison_mechs() {
            let (engine, workload) = latency_workload(wname, quick);
            specs.push(spec(
                format!("fig12_13/{wname}/{mname}"),
                engine,
                7,
                workload,
                mech,
                Some(ScaleSpec {
                    at: scale_at,
                    to: 12,
                }),
                horizon,
            ));
        }
    }
    Fig1213Plan {
        scale_at,
        workloads,
        mechs: comparison_mechs().into_iter().map(|(n, _)| n).collect(),
        specs,
    }
}

/// Fig. 14 — DRRS mechanism ablation on Twitch.
pub struct Fig14Plan {
    /// When the scale is requested.
    pub scale_at: SimTime,
    /// End of the measurement window.
    pub window_end: SimTime,
    /// The four variants: DRRS, DR, Schedule, Subscale.
    pub specs: Vec<ScenarioSpec>,
}

/// Build the fig. 14 plan.
pub fn fig14_plan(quick: bool) -> Fig14Plan {
    let (scale_at, window_end) = if quick {
        (secs(60), secs(140))
    } else {
        (secs(300), secs(475))
    };
    let horizon = window_end + secs(60);
    let params = twitch_params(quick);
    let specs = [
        MechanismConfig::drrs(),
        MechanismConfig::dr_only(),
        MechanismConfig::schedule_only(),
        MechanismConfig::subscale_only(),
    ]
    .into_iter()
    .map(|cfg| {
        spec(
            format!("fig14/{}", cfg.name),
            EngineProfile::Twitch,
            14,
            WorkloadSpec::Twitch(params.clone()),
            MechanismSpec::Flex(cfg),
            Some(ScaleSpec {
                at: scale_at,
                to: 12,
            }),
            horizon,
        )
    })
    .collect();
    Fig14Plan {
        scale_at,
        window_end,
        specs,
    }
}

/// Fig. 15 — the sensitivity grid (mechanism × skew × state × rate): 192
/// mutually independent cells on the full timelines, the largest grid
/// `run_all` spreads over its workers.
pub struct Fig15Plan {
    /// Input rates (tps), in print order.
    pub rates: Vec<f64>,
    /// Total state sizes (GB), in print order.
    pub sizes_gb: Vec<u64>,
    /// Zipf skewness values, in print order.
    pub skews: Vec<f64>,
    /// Mechanism names, in print order.
    pub mechs: Vec<&'static str>,
    /// When the scale is requested.
    pub scale_at: SimTime,
    /// Throughput collection window length.
    pub measure: SimTime,
    /// All cells, canonical order: mechanism, skew, GB, tps — exactly the
    /// figure's print order, so results join by running index.
    pub specs: Vec<ScenarioSpec>,
}

/// Build the fig. 15 plan.
pub fn fig15_plan(quick: bool) -> Fig15Plan {
    let (rates, sizes_gb, skews): (Vec<f64>, Vec<u64>, Vec<f64>) = if quick {
        (vec![5_000.0, 20_000.0], vec![5, 30], vec![0.0, 1.5])
    } else {
        (
            vec![5_000.0, 10_000.0, 15_000.0, 20_000.0],
            vec![5, 10, 20, 30],
            vec![0.0, 0.5, 1.0, 1.5],
        )
    };
    let (scale_at, measure) = if quick {
        (secs(40), secs(120))
    } else {
        (secs(120), secs(600))
    };
    let horizon = scale_at + measure + secs(10);
    let mechs = vec!["DRRS", "Megaphone", "Meces"];
    let mut specs = Vec::new();
    for &mech in &mechs {
        for &skew in &skews {
            for &gb in &sizes_gb {
                for &tps in &rates {
                    let mechanism = match mech {
                        "DRRS" => drrs(),
                        "Megaphone" => MechanismSpec::Flex(MechanismConfig::megaphone(1)),
                        _ => MechanismSpec::Meces,
                    };
                    specs.push(spec(
                        format!("fig15/{mech}/skew{skew}/gb{gb}/tps{}", tps as u64),
                        EngineProfile::Cluster,
                        15,
                        WorkloadSpec::Custom(CustomParams {
                            tps,
                            total_state_bytes: gb * 1_000_000_000,
                            skew,
                            ..Default::default()
                        }),
                        mechanism,
                        Some(ScaleSpec {
                            at: scale_at,
                            to: 30,
                        }),
                        horizon,
                    ));
                }
            }
        }
    }
    Fig15Plan {
        rates,
        sizes_gb,
        skews,
        mechs,
        scale_at,
        measure,
        specs,
    }
}

/// One ablation section: a titled group of rows sharing a print format.
pub struct AblationSection {
    /// Stable section key (`subscale`, `concurrency`, ...).
    pub key: &'static str,
    /// Section heading, as printed.
    pub title: &'static str,
    /// Row labels, aligned with `specs`.
    pub labels: Vec<String>,
    /// The rows.
    pub specs: Vec<ScenarioSpec>,
}

/// The design-choice ablations (beyond fig. 14).
pub struct AblationPlan {
    /// When the scale is requested.
    pub scale_at: SimTime,
    /// End of the measurement window.
    pub window_end: SimTime,
    /// The sections, in print order.
    pub sections: Vec<AblationSection>,
}

/// Build the ablation plan.
pub fn ablation_plan(quick: bool) -> AblationPlan {
    let (scale_at, window_end) = if quick {
        (secs(60), secs(140))
    } else {
        (secs(300), secs(475))
    };
    let horizon = window_end + secs(40);
    let params = twitch_params(quick);
    let twitch_row = |name: String, cfg: MechanismConfig| {
        spec(
            name,
            EngineProfile::Twitch,
            99,
            WorkloadSpec::Twitch(params.clone()),
            MechanismSpec::Flex(cfg),
            Some(ScaleSpec {
                at: scale_at,
                to: 12,
            }),
            horizon,
        )
    };

    let subscales = [1usize, 2, 4, 8, 16, 32];
    let subscale = AblationSection {
        key: "subscale",
        title: "=== Ablation A: subscale count (concurrency 2) ===",
        labels: subscales.iter().map(|n| format!("subscales={n}")).collect(),
        specs: subscales
            .iter()
            .map(|&n| {
                twitch_row(
                    format!("ablation/subscale/{n}"),
                    MechanismConfig {
                        subscale_count: n,
                        ..MechanismConfig::drrs()
                    },
                )
            })
            .collect(),
    };

    let limits = [1usize, 2, 4, 64];
    let concurrency = AblationSection {
        key: "concurrency",
        title: "\n=== Ablation B: concurrency threshold (8 subscales) ===",
        labels: limits.iter().map(|l| format!("concurrency={l}")).collect(),
        specs: limits
            .iter()
            .map(|&limit| {
                twitch_row(
                    format!("ablation/concurrency/{limit}"),
                    MechanismConfig {
                        concurrency_limit: limit,
                        ..MechanismConfig::drrs()
                    },
                )
            })
            .collect(),
    };

    let strategies: [(&str, usize, SimTime); 3] = [
        ("capacity=1 (immediate)", 1, ms(50)),
        ("capacity=32, timeout=5ms (default)", 32, ms(5)),
        ("capacity=256, timeout=50ms (lazy)", 256, ms(50)),
    ];
    let reroute = AblationSection {
        key: "reroute",
        title: "\n=== Ablation C: Re-route Manager strategy ===",
        labels: strategies.iter().map(|(l, _, _)| l.to_string()).collect(),
        specs: strategies
            .iter()
            .map(|&(_, batch, timeout)| {
                twitch_row(
                    format!("ablation/reroute/capacity{batch}"),
                    MechanismConfig {
                        reroute_batch: batch,
                        reroute_timeout: timeout,
                        ..MechanismConfig::drrs()
                    },
                )
            })
            .collect(),
    };

    let windows: [(&str, &str, SimTime); 2] = [
        ("sliding", "sliding 500ms (paper)", ms(500)),
        ("tumbling", "tumbling (slide=size)", secs(10)),
    ];
    let window = AblationSection {
        key: "window",
        title: "\n=== Ablation D: sliding vs tumbling windows under scaling (Q7) ===",
        labels: windows.iter().map(|(_, l, _)| l.to_string()).collect(),
        specs: windows
            .iter()
            .map(|&(key, _, slide)| {
                spec(
                    format!("ablation/window/{key}"),
                    EngineProfile::Nexmark,
                    77,
                    WorkloadSpec::Q7(Q7Params {
                        tps: if quick { 10_000.0 } else { 20_000.0 },
                        slide,
                        ..Default::default()
                    }),
                    drrs(),
                    Some(ScaleSpec {
                        at: scale_at,
                        to: 12,
                    }),
                    horizon,
                )
            })
            .collect(),
    };

    AblationPlan {
        scale_at,
        window_end,
        sections: vec![subscale, concurrency, reroute, window],
    }
}

/// The two Q7 runs whose sink content pins every value a window fires,
/// through firing, eviction and migrated window state: NEXMark's profile
/// on seed 1, Q7 at its default 20 k tps, DRRS scaling the window 8 → 12
/// at 16 s, run to 32 s, at Q7's 500 ms slide and at slide = size
/// (tumbling, one slot per window). Every fired `(key, value, end)`
/// reaches the sink as one record, so the row's `sink_hash` covers them.
/// No mode compresses them.
pub fn q7_fire_pins() -> Vec<ScenarioSpec> {
    [("slide500ms", ms(500)), ("tumbling", secs(10))]
        .into_iter()
        .map(|(key, slide)| {
            spec(
                format!("pins/q7_fire/{key}"),
                EngineProfile::Nexmark,
                1,
                WorkloadSpec::Q7(Q7Params {
                    slide,
                    ..Default::default()
                }),
                drrs(),
                Some(ScaleSpec {
                    at: secs(16),
                    to: 12,
                }),
                secs(32),
            )
        })
        .collect()
}

/// Every registered scenario, across all groups. Names are globally unique
/// (enforced by test).
pub fn all(quick: bool) -> Vec<ScenarioSpec> {
    let mut out = perf_scenarios(quick);
    out.extend(q7_fire_pins());
    out.extend(fig02_plan(quick).specs);
    out.extend(fig10_11_plan(quick).specs);
    out.extend(fig12_13_plan(quick).specs);
    out.extend(fig14_plan(quick).specs);
    out.extend(fig15_plan(quick).specs);
    out.extend(
        ablation_plan(quick)
            .sections
            .into_iter()
            .flat_map(|s| s.specs),
    );
    out
}

/// Look up one scenario by its registry name.
pub fn find(name: &str, quick: bool) -> Option<ScenarioSpec> {
    all(quick).into_iter().find(|s| s.name == name)
}

/// A run the pin store ([`super::golden`]) holds a row for.
#[derive(Clone, Debug)]
pub enum Pinned {
    /// A registry scenario, run at the partition its row names; a PDES
    /// row runs on the sequential and the thread-per-region engine.
    Spec(ScenarioSpec),
    /// A world built by hand and run sequentially: one of the nine
    /// `pins/world/` engine paths no scenario reaches, or Record
    /// Scheduling's cost job, `pins/sched_cost/`.
    World(&'static str),
}

/// Record Scheduling's cost job ([`sched_cost`]).
const SCHED_COST: &str = "pins/sched_cost/drrs_4_to_6_to_3";

/// [`SCHED_COST`]'s columns: the sink hash, [`SchedStats`] after the
/// scale-out (`out_…`) and after the scale-in, the records processed
/// under a plan and the most events the future-event list held.
const SCHED_COLUMNS: [&str; 13] = [
    "sink_hash",
    "out_selects",
    "out_scans",
    "out_scan_positions",
    "out_hint_resumes",
    "out_bypass_runs",
    "selects",
    "scans",
    "scan_positions",
    "hint_resumes",
    "bypass_runs",
    "while_active",
    "pending_high_water",
];

impl Pinned {
    /// The run's registry name, which its row carries.
    pub fn name(&self) -> &str {
        match self {
            Self::Spec(s) => &s.name,
            Self::World(name) => name,
        }
    }

    /// The named columns the run reports after its three counts, in row
    /// order.
    pub fn columns(&self) -> &'static [&'static str] {
        match self {
            Self::Spec(_) => &["sink_hash"],
            Self::World(SCHED_COST) => &SCHED_COLUMNS,
            Self::World(_) => &["sink_hash", "lp", "ld_bits", "churn_avg_bits", "churn_max"],
        }
    }

    /// Why the run cannot take a partition of `regions` (> 1 is PDES
    /// mode), if it cannot: PDES mode cannot execute a scale plan, and a
    /// hand-built world runs sequentially only.
    pub(crate) fn refuses(&self, regions: usize) -> Option<String> {
        match self {
            _ if regions == 1 => None,
            Self::Spec(s) if s.scale.is_none() => None,
            Self::Spec(s) => Some(format!(
                "{} has a scale plan, which PDES mode cannot execute",
                s.name
            )),
            Self::World(name) => Some(format!("{name} is built by hand: `1 0` only")),
        }
    }

    /// Run at `regions resume_latency` (which [`Self::refuses`] accepts),
    /// returning what each engine that ran it produced, by engine name.
    pub(crate) fn run(
        &self,
        regions: usize,
        resume_latency: SimTime,
    ) -> Vec<(&'static str, Outcome)> {
        let spec = match self {
            Self::World(SCHED_COST) => return vec![("sequential", sched_cost())],
            Self::World(name) => return vec![("sequential", world_path(name))],
            Self::Spec(s) => s
                .clone()
                .with_regions(regions)
                .with_resume_latency(resume_latency),
        };
        let r = spec.run();
        let seq = Outcome::new(
            (r.digest, r.events, r.sink_records),
            [("sink_hash", r.sink_hash)],
        );
        let mut out = vec![("sequential", seq)];
        if spec.pdes() {
            let par = spec.run_threaded();
            let obs = &par.obs;
            let counts = (par.digest(), obs.processed, obs.sink_records);
            out.push((
                "threaded",
                Outcome::new(counts, [("sink_hash", obs.sink_hash)]),
            ));
        }
        out
    }
}

/// Every pinned run: the `perf/` scenarios on their full timelines, the
/// Q7 fire runs, the hand-built world paths and Record Scheduling's cost
/// job.
pub fn pinned() -> Vec<Pinned> {
    let specs = perf_scenarios(false).into_iter().chain(q7_fire_pins());
    let worlds = WORLD_PATHS.into_iter().chain([SCHED_COST]);
    specs
        .map(Pinned::Spec)
        .chain(worlds.map(Pinned::World))
        .collect()
}

/// The engine paths the `perf/` rows (NoScale, DRRS, Megaphone and Q7,
/// always with checkpoints off) never reach, each a world built by
/// [`world_path`]: checkpoint barriers with the `CheckpointTick` deferral
/// during a scale (scale-out; `scale_in`'s long run checks checkpoints
/// across scale-ins), checkpoint alignment beside the coupled scaling
/// barriers' (Megaphone injects them at the predecessors, OTFS at the
/// sources), the stop-restart pause/resume, Meces' fetch path (once more
/// over two back-to-back scale-outs at sub-group fanout 4, so unit
/// locations outlive a plan), OTFS and Unbound.
const WORLD_PATHS: [&str; 9] = [
    "pins/world/drrs_ckpt",
    "pins/world/meces",
    "pins/world/meces_two_plans",
    "pins/world/stop_restart",
    "pins/world/otfs",
    "pins/world/unbound",
    "pins/world/megaphone_ckpt",
    "pins/world/otfs_ckpt",
    "pins/world/megaphone_ckpt_two_sources",
];

/// Run the world path `name` of [`WORLD_PATHS`], which says what it
/// builds: the mechanism that scales `tiny_job`'s aggregator 4 → 6 at
/// 1.2 s; `_ckpt`, aligned checkpoints every 400 ms; `_two_plans`, a
/// second plan to 8 at 2.4 s; `_two_sources`, [`two_source_job`] (the one
/// row whose barrier hold delays data). Besides the counts and the sink
/// hash it reports the last plan's Lp, Ld bits and migration churn, which
/// the digest does not hash.
fn world_path(name: &str) -> Outcome {
    let plugin: Box<dyn ScalePlugin> = match name.trim_start_matches("pins/world/") {
        "drrs_ckpt" => Box::new(FlexScaler::drrs()),
        "meces" | "meces_two_plans" => Box::new(MecesPlugin::new()),
        "stop_restart" => {
            // Resume inside the horizon so `World::resume` runs too.
            let mut p = StopRestartPlugin::new();
            p.restart_overhead = ms(300);
            Box::new(p)
        }
        "otfs" | "otfs_ckpt" => Box::new(otfs_fluid()),
        "unbound" => Box::new(UnboundPlugin::new()),
        _ => Box::new(FlexScaler::new(MechanismConfig::megaphone(1))),
    };
    let plans: &[(SimTime, usize)] = if name.ends_with("_two_plans") {
        &[(ms(1_200), 6), (ms(2_400), 8)]
    } else {
        &[(ms(1_200), 6)]
    };
    let mut cfg = EngineConfig::test();
    cfg.seed = 0xC0FFEE;
    if name.contains("_ckpt") {
        cfg.checkpoint_interval = Some(ms(400));
    }
    if plans.len() > 1 {
        // Meces' hierarchical state: four units per key-group.
        cfg.sub_group_fanout = 4;
    }
    let (mut w, agg) = if name.ends_with("_two_sources") {
        two_source_job(cfg)
    } else {
        tiny_job(cfg, 6_000.0, 512, 4)
    };
    for &(at, par) in plans {
        w.schedule_scale(at, agg, par);
    }
    let mut sim = Sim::new(w, plugin);
    sim.run_until(plans[plans.len() - 1].0 + ms(1_800));
    let w = &sim.world;
    assert_eq!(
        w.scale.epoch as usize,
        plans.len(),
        "{name}: a plan never started"
    );
    let m = &w.scale.metrics;
    let (churn_avg, churn_max) = m.migration_churn();
    Outcome::new(
        (w.metrics_digest(), w.q.processed(), w.metrics.sink_records),
        [
            ("sink_hash", w.metrics.sink_hash),
            ("lp", m.cumulative_propagation_delay()),
            ("ld_bits", m.avg_dependency_overhead().to_bits()),
            ("churn_avg_bits", churn_avg.to_bits()),
            ("churn_max", churn_max.into()),
        ],
    )
}

/// `tiny_job` with two source instances, at 2,000 and 10,000 records/s,
/// so each of the four aggregators has two inputs whose barriers arrive
/// at different times.
fn two_source_job(cfg: EngineConfig) -> (World, OpId) {
    let mut b = JobBuilder::new(cfg);
    let src = b.source(
        "src",
        2,
        Box::new(|i| Box::new(FixedGen::new([2_000.0, 10_000.0][i], 512))),
    );
    let agg = b.operator(
        "agg",
        4,
        Box::new(|| {
            Box::new(KeyedAgg {
                service: 50,
                bytes_per_key: 1_000,
                bytes_per_record: 0,
                emit_every: 1,
            })
        }),
    );
    let sink = b.sink("sink", 1);
    b.connect(src, agg, EdgeKind::Keyed);
    b.connect(agg, sink, EdgeKind::Rebalance);
    (b.build(), agg)
}

/// Records processed so far by the instances `op` ever had.
fn processed_by(w: &World, op: OpId) -> u64 {
    w.insts
        .iter()
        .filter(|i| i.op == op)
        .map(|i| i.processed)
        .sum()
}

/// The production dispatch loop (`Sim::dispatch_until`) around a concrete
/// `FlexScaler`, so its counters stay readable. Returns how many records
/// `op` processed while the mechanism was active, and raises
/// `pending_high_water` to the most events the future-event list held (the
/// just-drained run included).
fn run_flex_until(
    w: &mut World,
    p: &mut FlexScaler,
    op: OpId,
    t: SimTime,
    pending_high_water: &mut usize,
) -> u64 {
    let mut buf = Vec::new();
    let mut while_active = 0;
    while w.q.pop_run_at_most(t, &mut buf).is_some() {
        *pending_high_water = (*pending_high_water).max(w.q.len() + buf.len());
        let (active, before) = (p.active(), processed_by(w, op));
        w.dispatch_run(p, &mut buf);
        if active || p.active() {
            while_active += processed_by(w, op) - before;
        }
    }
    w.q.advance_clock_to(t);
    while_active
}

/// [`SCHED_COST`]: DRRS scales a 60 k records/s `tiny_job` 4 → 6 at
/// 2 s and 6 → 3 at 5 s. 64 MB of keyed state behind a 150 B/µs migration
/// path keeps state in transit for a few hundred milliseconds per plan
/// while the operator runs at 75 % utilisation, so records do wait in
/// scheduling buffers.
fn sched_cost() -> Outcome {
    let mut cfg = EngineConfig::test();
    cfg.max_key_groups = 128;
    cfg.ser_bytes_per_us = 150.0;
    let (mut w, agg) = tiny_job(cfg, 60_000.0, 65_536, 4);
    let mut p = FlexScaler::drrs();

    w.schedule_scale(secs(2), agg, 6);
    let mut pending_high_water = 0;
    let mut while_active = run_flex_until(&mut w, &mut p, agg, secs(5), &mut pending_high_water);
    assert!(p.finished(), "scale-out did not finish");
    let out = p.sched_stats();

    w.schedule_scale(secs(5), agg, 3);
    while_active += run_flex_until(&mut w, &mut p, agg, secs(9), &mut pending_high_water);
    assert!(p.finished(), "scale-in did not finish");
    let total = p.sched_stats();

    assert_eq!(w.semantics.violations(), 0);
    assert_eq!(w.ops[agg.0 as usize].instances.len(), 3);
    let counts = |s: SchedStats| [s.selects, s.scans, s.scan_positions, s.hint_resumes];
    let counts = |s: SchedStats| counts(s).into_iter().chain([s.bypass_runs]);
    let values = std::iter::once(w.metrics.sink_hash)
        .chain(counts(out))
        .chain(counts(total))
        .chain([while_active, pending_high_water as u64]);
    Outcome::new(
        (w.metrics_digest(), w.q.processed(), w.metrics.sink_records),
        SCHED_COLUMNS.into_iter().zip(values),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perf_group_matches_the_recorded_trajectory_names() {
        let names: Vec<String> = perf_scenarios(false).into_iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            vec![
                "perf/steady_50k",
                "perf/drrs_rescale_4_to_6",
                "perf/megaphone_rescale_4_to_6",
                "perf/drrs_scale_in_6_to_3",
                "perf/overload_backpressure",
                "perf/cut_pipeline_100k",
                "perf/twin_pipelines_100k",
                "perf/q7_drrs_rescale_8_to_12",
            ]
        );
    }

    #[test]
    fn fig15_grid_is_mech_skew_gb_tps_major() {
        let plan = fig15_plan(false);
        assert_eq!(
            plan.specs.len(),
            plan.mechs.len() * plan.skews.len() * plan.sizes_gb.len() * plan.rates.len()
        );
        assert_eq!(plan.specs[0].name, "fig15/DRRS/skew0/gb5/tps5000");
        assert_eq!(plan.specs[1].name, "fig15/DRRS/skew0/gb5/tps10000");
        let per_mech = plan.specs.len() / plan.mechs.len();
        assert!(plan.specs[per_mech].name.starts_with("fig15/Megaphone/"));
    }

    #[test]
    fn find_resolves_quick_and_full_variants() {
        let q = find("perf/steady_50k", true).expect("quick");
        let f = find("perf/steady_50k", false).expect("full");
        assert!(q.horizon < f.horizon);
        assert_eq!(q.workload, f.workload);
        assert!(find("perf/nonexistent", false).is_none());
    }
}
