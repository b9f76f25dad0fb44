//! The central scenario registry: **every run used anywhere in the repo
//! has a unique name here** — the eight `perf/` scenarios, every
//! fig02–fig15 row, and the ablation cells.
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

use simcore::time::{ms, secs, SimTime};
use workloads::custom::CustomParams;
use workloads::nexmark::{Q7Params, Q8Params};
use workloads::twitch::TwitchParams;

use super::{EngineProfile, MechanismSpec, ScaleSpec, ScenarioSpec, WorkloadSpec};
use drrs_core::MechanismConfig;

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
/// timelines are the cross-build behavior contract, pinned by
/// `crates/bench/golden/perf_digests.txt` (see [`super::golden`]).
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

/// Every registered scenario, across all groups. Names are globally unique
/// (enforced by test).
pub fn all(quick: bool) -> Vec<ScenarioSpec> {
    let mut out = perf_scenarios(quick);
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
