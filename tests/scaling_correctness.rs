//! Cross-crate integration tests: every mechanism on a full pipeline, with
//! the invariants the paper claims (semantics preservation, state
//! conservation, completion).

use drrs_repro::baselines::{
    megaphone, otfs_all_at_once, otfs_fluid, MecesPlugin, StopRestartPlugin, UnboundPlugin,
};
use drrs_repro::drrs::{FlexScaler, MechanismConfig};
use drrs_repro::engine::world::tests_support::tiny_job;
use drrs_repro::engine::world::Sim;
use drrs_repro::engine::{EngineConfig, ScalePlugin};
use drrs_repro::sim::time::{ms, secs, SimTime};

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
        ("OTFS-AAO", Box::new(otfs_all_at_once())),
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
