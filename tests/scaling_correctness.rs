//! Cross-crate integration tests: every mechanism on a full pipeline, with
//! the invariants the paper claims (semantics preservation, state
//! conservation, completion).

use std::sync::{Arc, Mutex};

use drrs_repro::baselines::{megaphone, otfs_fluid, MecesPlugin, StopRestartPlugin, UnboundPlugin};
use drrs_repro::drrs::{FlexScaler, MechanismConfig};
use drrs_repro::engine::graph::{EdgeKind, JobBuilder};
use drrs_repro::engine::operator::{OpCtx, OperatorLogic, WindowAgg, WmCtx};
use drrs_repro::engine::record::Record;
use drrs_repro::engine::window::Agg;
use drrs_repro::engine::world::tests_support::tiny_job;
use drrs_repro::engine::world::Sim;
use drrs_repro::engine::{EngineConfig, Key, NoScale, ScalePlugin};
use drrs_repro::sim::time::{ms, secs, SimTime};
use drrs_repro::workloads::nexmark::{nexmark_engine_config, BidGen};

fn scaled_run(plugin: Box<dyn ScalePlugin>, horizon: u64) -> Sim {
    let (mut w, agg) = tiny_job(EngineConfig::test(), 4_000.0, 512, 2);
    w.schedule_scale(secs(2), agg, 4);
    let mut sim = Sim::new(w, plugin);
    sim.run_until(secs(horizon));
    sim
}

fn semantic_mechanisms() -> Vec<(&'static str, Box<dyn ScalePlugin>)> {
    vec![
        ("DRRS", Box::new(FlexScaler::drrs())),
        ("DR", Box::new(FlexScaler::new(MechanismConfig::dr_only()))),
        (
            "Schedule",
            Box::new(FlexScaler::new(MechanismConfig::schedule_only())),
        ),
        (
            "Subscale",
            Box::new(FlexScaler::new(MechanismConfig::subscale_only())),
        ),
        ("OTFS", Box::new(otfs_fluid())),
        ("Megaphone", Box::new(megaphone(1))),
        ("Stop-Restart", Box::new(StopRestartPlugin::new())),
    ]
}

#[test]
fn all_semantic_mechanisms_preserve_order_and_complete() {
    for (name, plugin) in semantic_mechanisms() {
        let sim = scaled_run(plugin, 25);
        assert!(
            !sim.world.scale.in_progress,
            "{name}: migration incomplete at horizon"
        );
        assert_eq!(
            sim.world.semantics.violations(),
            0,
            "{name}: order violations {:?}",
            sim.world.semantics.samples()
        );
    }
}

#[test]
fn all_mechanisms_conserve_state_units() {
    // No key-group may be lost or duplicated, whatever the mechanism.
    let mut all: Vec<(&str, Box<dyn ScalePlugin>)> = semantic_mechanisms();
    all.push(("Meces", Box::new(MecesPlugin::new())));
    for (name, plugin) in all {
        let sim = scaled_run(plugin, 30);
        let w = &sim.world;
        let agg_op = w.scale.plan.as_ref().expect("plan").op;
        for g in 0..w.cfg.max_key_groups {
            let holders: Vec<_> = w.ops[agg_op.0 as usize]
                .instances
                .iter()
                .filter(|&&i| {
                    w.insts[i.0 as usize]
                        .state
                        .holds_group(drrs_repro::engine::KeyGroup(g))
                })
                .collect();
            assert_eq!(
                holders.len(),
                1,
                "{name}: key-group {g} held by {holders:?}"
            );
        }
    }
}

#[test]
fn meces_completes_but_may_reorder() {
    let sim = scaled_run(Box::new(MecesPlugin::new()), 40);
    assert!(!sim.world.scale.in_progress, "Meces incomplete");
    // Violations may be zero at low load; the dedicated baseline test
    // exercises the overload case. Here we only require conservation +
    // completion (asserted above) and that the sink kept receiving.
    assert!(sim.world.metrics.sink_records > 50_000);
}

#[test]
fn unbound_total_counts_match_sink() {
    let sim = scaled_run(Box::new(UnboundPlugin::new()), 20);
    let w = &sim.world;
    let agg_op = w.scale.plan.as_ref().expect("plan").op;
    let total: u64 = w.ops[agg_op.0 as usize]
        .instances
        .iter()
        .map(|&i| {
            w.insts[i.0 as usize]
                .state
                .snapshot_counts()
                .values()
                .sum::<u64>()
        })
        .sum();
    assert_eq!(total, w.metrics.sink_records);
}

#[test]
fn scaling_rebalances_load() {
    // After a 2→4 DRRS scale, new instances end up owning state and doing work.
    let sim = scaled_run(Box::new(FlexScaler::drrs()), 25);
    let w = &sim.world;
    let agg_op = w.scale.plan.as_ref().expect("plan").op;
    for &i in &w.ops[agg_op.0 as usize].instances {
        let inst = &w.insts[i.0 as usize];
        assert!(
            inst.state.total_keys() > 0,
            "{i} owns no keys after rescale"
        );
        assert!(inst.processed > 0, "{i} processed nothing after rescale");
    }
}

#[test]
fn back_to_back_scales_supersede_cleanly() {
    // Scale 2→3, then 3→4 after the first completes.
    let (mut w, agg) = tiny_job(EngineConfig::test(), 3_000.0, 256, 2);
    w.schedule_scale(secs(2), agg, 3);
    w.schedule_scale(secs(6), agg, 4);
    let mut sim = Sim::new(w, Box::new(FlexScaler::drrs()));
    sim.run_until(secs(12));
    assert_eq!(sim.world.ops[agg.0 as usize].instances.len(), 4);
    assert!(!sim.world.scale.in_progress, "second scale incomplete");
    assert_eq!(sim.world.semantics.violations(), 0);
}

/// Run `sim` to `t` one dispatched run at a time, checking the single-owner
/// rule after every run: each unit the ledger tracks is held by its holder
/// alone unless it is in transit, when no state backend holds it, except
/// for the copies the ledger marks fabricated (Unbound's universal keys).
/// Returns how many `(unit, run)` pairs were checked and how many of them
/// were in transit.
fn run_checking_owners(name: &str, sim: &mut Sim, t: SimTime) -> (u64, u64) {
    let (mut checked, mut in_transit) = (0, 0);
    let mut buf = Vec::new();
    while sim.world.q.pop_run_at_most(t, &mut buf).is_some() {
        sim.world.dispatch_run(&mut *sim.plugin, &mut buf);
        let w = &sim.world;
        let units = &w.scale.metrics.units;
        for u in 0..units.rows().len() {
            let (kg, sub, row) = units.at(u);
            let Some(holder) = row.holder else {
                continue; // no plan has moved this unit yet
            };
            let owner = if row.transit.is_some() {
                in_transit += 1;
                None
            } else {
                Some(holder)
            };
            let mut owners = w
                .insts
                .iter()
                .filter(|i| i.state.holds(kg, sub) && !units.is_fabricated(kg, sub, i.id));
            let (first, more) = (owners.next().map(|i| i.id), owners.count());
            assert!(
                first == owner && more == 0,
                "{name}: unit {kg}/{sub} at t={} is held by {first:?} (+{more} more), \
                 the ledger has {row:?}",
                w.now()
            );
            checked += 1;
        }
    }
    sim.world.q.advance_clock_to(t);
    (checked, in_transit)
}

#[test]
fn every_moved_unit_has_exactly_one_owner() {
    // DRRS through `rescale_churn`'s plan shape (4 → 6 → 3 → 8 → 4),
    // Megaphone (sequential key-group batches), Meces at sub-group fanout 4
    // (fetches move single sub-groups back and forth), stop-restart and
    // Unbound (universal keys fabricate copies beside the real units). Every
    // row but stop-restart must catch a unit in transit between runs; a
    // restore sends and installs at one instant, so its row must catch none.
    let churn = [(4_000, 6), (5_500, 3), (7_000, 8), (8_500, 4)];
    let out = [(2_000, 4)];
    // (mechanism, plugin, sub-group fanout, parallelism, plans, horizon s,
    // a unit is seen in transit)
    let cases: [(_, Box<dyn ScalePlugin>, _, _, &[_], _, _); 5] = [
        ("DRRS", Box::new(FlexScaler::drrs()), 1, 4, &churn, 10, true),
        ("Megaphone", Box::new(megaphone(1)), 1, 2, &out, 10, true),
        ("Meces", Box::new(MecesPlugin::new()), 4, 2, &out, 8, true),
        (
            "Stop-Restart",
            Box::new(StopRestartPlugin::new()),
            1,
            2,
            &out,
            10,
            false,
        ),
        (
            "Unbound",
            Box::new(UnboundPlugin::new()),
            1,
            2,
            &out,
            6,
            true,
        ),
    ];
    for (name, plugin, fanout, par, plans, horizon, expect_transit) in cases {
        let mut cfg = EngineConfig::test();
        cfg.sub_group_fanout = fanout;
        let (mut w, agg) = tiny_job(cfg, 4_000.0, 512, par);
        for &(at, par) in plans {
            w.schedule_scale(ms(at), agg, par);
        }
        let mut sim = Sim::new(w, plugin);
        let (checked, in_transit) = run_checking_owners(name, &mut sim, secs(horizon));
        assert_eq!(
            in_transit > 0,
            expect_transit,
            "{name}: {in_transit} in transit"
        );
        let w = &sim.world;
        assert_eq!(
            w.scale.epoch as usize,
            plans.len(),
            "{name}: a plan never started"
        );
        assert!(!w.scale.in_progress, "{name}: the last plan never finished");
        assert!(checked > 0, "{name}: no unit was tracked");
        // Every unit of the last plan was sent and installed at its
        // destination.
        let units = &w.scale.metrics.units;
        for m in &w.scale.plan.as_ref().expect("plan").moves {
            for r in (0..fanout).map(|sub| units.row(m.kg, sub)) {
                let settled = r.holder == Some(m.to) && r.transit.is_none() && r.migrations > 0;
                assert!(settled, "{name}: {m:?} ended with {r:?}");
            }
        }
        assert_eq!(units.outstanding(), 0, "{name}: units left outstanding");
    }
}

/// Wraps a [`WindowAgg`] and collects every `(key, end, value)` it fires
/// with an end at or before `cut`, across all subtasks.
struct FireTap {
    inner: WindowAgg,
    cut: SimTime,
    fired: Arc<Mutex<Vec<(Key, SimTime, i64)>>>,
}

impl OperatorLogic for FireTap {
    fn on_record(&mut self, ctx: &mut OpCtx<'_>, rec: &Record) {
        self.inner.on_record(ctx, rec);
    }
    fn on_watermark(&mut self, ctx: &mut WmCtx<'_>) {
        let before = ctx.out.len();
        self.inner.on_watermark(ctx);
        let mut fired = self.fired.lock().expect("tap lock");
        let new = ctx.out[before..]
            .iter()
            .filter(|r| r.event_time <= self.cut);
        fired.extend(new.map(|r| (r.key, r.event_time, r.value)));
    }
    fn service_time(&self) -> SimTime {
        self.inner.service_time()
    }
    fn watermark_cost(&self) -> SimTime {
        self.inner.watermark_cost()
    }
}

/// A Q7-shaped job: two bid sources at 5 k tps each, a 10 s / 500 ms
/// window maximum at parallelism 8 behind a [`FireTap`], and a sink. With
/// `scale` the window goes 8 → 12 at 16 s under `plugin`. Runs to 45 s and
/// returns the windows fired with ends at or before 40 s, sorted.
fn q7_firings(plugin: Box<dyn ScalePlugin>, scale: bool) -> Vec<(Key, SimTime, i64)> {
    let fired = Arc::new(Mutex::new(Vec::new()));
    let mut b = JobBuilder::new(nexmark_engine_config(1));
    let src = b.source(
        "bids",
        2,
        Box::new(|i| Box::new(BidGen::new(5_000.0, 4_000, 0x0B1D + i as u64, 4))),
    );
    let tap = fired.clone();
    let window = b.operator(
        "window-max",
        8,
        Box::new(move || {
            Box::new(FireTap {
                inner: WindowAgg::new(secs(10), ms(500), Agg::Max, 330, 4_000),
                cut: secs(40),
                fired: tap.clone(),
            })
        }),
    );
    let sink = b.sink("sink", 1);
    b.connect(src, window, EdgeKind::Keyed);
    b.connect(window, sink, EdgeKind::Rebalance);
    let mut w = b.build();
    if scale {
        w.schedule_scale(secs(16), window, 12);
    }
    Sim::new(w, plugin).run_until(secs(45));
    let mut fired = std::mem::take(&mut *fired.lock().expect("tap lock"));
    fired.sort_unstable();
    fired
}

#[test]
fn every_window_fires_exactly_once_under_every_mechanism() {
    // A window's firing progress is window state and moves with its
    // sub-group, so under every mechanism each `(key, end)` fires at most
    // once, and only if the no-scale twin fires it too. Megaphone and
    // Meces also fire every window with the twin's value.
    let window = |&(key, end, _): &(Key, SimTime, i64)| (key, end);
    let twice = |fired: &[(Key, SimTime, i64)]| {
        let pairs = fired.windows(2);
        pairs.filter(|p| window(&p[0]) == window(&p[1])).count()
    };
    let twin = q7_firings(Box::new(NoScale), false);
    assert_eq!(twice(&twin), 0, "no-scale: windows fired twice");
    let mut all = semantic_mechanisms();
    all.push(("Meces", Box::new(MecesPlugin::new())));
    for (name, plugin) in all {
        let fired = q7_firings(plugin, true);
        let extra = fired
            .iter()
            .filter(|&f| twin.binary_search_by_key(&window(f), window).is_err())
            .count();
        assert_eq!(
            (twice(&fired), extra),
            (0, 0),
            "{name}: windows fired twice, windows the no-scale twin never fires"
        );
        if matches!(name, "Megaphone" | "Meces") {
            let differ = twin.iter().filter(|t| fired.binary_search(t).is_err());
            assert_eq!(
                differ.count(),
                0,
                "{name}: windows missing or unlike the twin's"
            );
        }
    }
}
