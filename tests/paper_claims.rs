//! Integration tests pinning the paper's *qualitative* claims — the shape
//! results the reproduction must preserve (see `benchmarks/README.md`
//! §Findings for the numbers until ROADMAP 3(d) writes `EXPERIMENTS.md`).

use drrs_repro::baselines::{megaphone, otfs_fluid, MecesPlugin, UnboundPlugin};
use drrs_repro::drrs::FlexScaler;
use drrs_repro::engine::world::tests_support::tiny_job;
use drrs_repro::engine::world::Sim;
use drrs_repro::engine::{EngineConfig, ScalePlugin};
use drrs_repro::sim::time::secs;

struct Outcome {
    suspension_us: u64,
    lp_us: u64,
    ld_us: f64,
    done_at: Option<u64>,
}

fn measure(plugin: Box<dyn ScalePlugin>) -> Outcome {
    let (mut w, agg) = tiny_job(EngineConfig::test(), 8_000.0, 512, 2);
    w.schedule_scale(secs(2), agg, 4);
    let mut sim = Sim::new(w, plugin);
    sim.run_until(secs(25));
    let now = sim.world.now();
    let suspension_us = sim.world.ops[agg.0 as usize]
        .instances
        .iter()
        .map(|&i| sim.world.insts[i.0 as usize].suspension_as_of(now))
        .sum();
    Outcome {
        suspension_us,
        lp_us: sim.world.scale.metrics.cumulative_propagation_delay(),
        ld_us: sim.world.scale.metrics.avg_dependency_overhead(),
        done_at: sim.world.scale.metrics.migration_done,
    }
}

#[test]
fn claim_drrs_minimizes_suspension() {
    // §III-B / Fig. 13: Record Scheduling proactively prevents suspensions.
    let drrs = measure(Box::new(FlexScaler::drrs()));
    let otfs = measure(Box::new(otfs_fluid()));
    let meces = measure(Box::new(MecesPlugin::new()));
    assert!(
        drrs.suspension_us < otfs.suspension_us,
        "DRRS {} vs OTFS {}",
        drrs.suspension_us,
        otfs.suspension_us
    );
    assert!(
        drrs.suspension_us < meces.suspension_us,
        "DRRS {} vs Meces {}",
        drrs.suspension_us,
        meces.suspension_us
    );
}

#[test]
fn claim_megaphone_worst_dependency_overhead() {
    // Fig. 12b: the strict linear dependency of naive division dominates.
    let drrs = measure(Box::new(FlexScaler::drrs()));
    let mega = measure(Box::new(megaphone(1)));
    assert!(
        mega.ld_us > 2.0 * drrs.ld_us,
        "Megaphone Ld {} should dwarf DRRS {}",
        mega.ld_us,
        drrs.ld_us
    );
    // And its scaling takes far longer end to end.
    assert!(mega.done_at.expect("mega done") > drrs.done_at.expect("drrs done"));
}

#[test]
fn claim_decoupled_signals_cut_propagation_delay() {
    // §III-A / Fig. 12a: trigger barriers bypass in-flight data.
    let drrs = measure(Box::new(FlexScaler::drrs()));
    let otfs = measure(Box::new(otfs_fluid()));
    let per_signal_drrs = drrs.lp_us as f64 / 8.0; // 8 subscales
    assert!(
        per_signal_drrs < otfs.lp_us as f64,
        "per-signal Lp: DRRS {per_signal_drrs} vs OTFS {}",
        otfs.lp_us
    );
}

#[test]
fn claim_unbound_eliminates_suspension_but_not_correctness() {
    // §II-B / Fig. 2: Unbound has no Ls at all, at the price of order.
    let unb = measure(Box::new(UnboundPlugin::new()));
    assert_eq!(unb.suspension_us, 0);

    let (mut w, agg) = tiny_job(EngineConfig::test(), 60_000.0, 512, 2);
    w.schedule_scale(secs(2), agg, 4);
    let mut sim = Sim::new(w, Box::new(UnboundPlugin::new()));
    sim.run_until(secs(8));
    assert!(
        sim.world.semantics.violations() > 0,
        "Unbound under overload must reorder"
    );
}

#[test]
fn minimal_moves_strategy_shortens_migration() {
    // Related-work planner policy (paper §VI [27,53,54]): fewer moved
    // units → less to migrate → faster scale, same correctness.
    use drrs_repro::engine::keygroup::Repartition;
    let run_with = |strategy: Repartition| {
        let mut ecfg = EngineConfig::test();
        ecfg.ser_bytes_per_us = 2.0; // slow migration so duration is visible
        let (mut w, agg) = tiny_job(ecfg, 4_000.0, 512, 2);
        w.schedule_scale_with(secs(2), agg, 4, strategy);
        let mut sim = Sim::new(w, Box::new(FlexScaler::drrs()));
        sim.run_until(secs(20));
        assert!(!sim.world.scale.in_progress, "{strategy:?} incomplete");
        assert_eq!(sim.world.semantics.violations(), 0);
        let moves = sim.world.scale.plan.as_ref().expect("plan").moves.len();
        let done = sim.world.scale.metrics.migration_done.expect("done");
        (moves, done)
    };
    let (uni_moves, uni_done) = run_with(Repartition::Uniform);
    let (min_moves, min_done) = run_with(Repartition::MinimalMoves);
    assert!(
        min_moves < uni_moves,
        "minimal {min_moves} vs uniform {uni_moves}"
    );
    assert!(
        min_done < uni_done,
        "minimal {min_done} vs uniform {uni_done}"
    );
}

#[test]
fn claim_meces_back_and_forth_churn() {
    // §V-B: fetch-on-demand moves hot units repeatedly. Needs enough load
    // that the old instances still hold queued records when routing flips.
    let (mut w, agg) = tiny_job(EngineConfig::test(), 48_000.0, 512, 2);
    w.schedule_scale(secs(2), agg, 4);
    let mut sim = Sim::new(w, Box::new(MecesPlugin::new()));
    sim.run_until(secs(30));
    let (avg, max) = sim.world.scale.metrics.migration_churn();
    assert!(avg >= 1.0);
    assert!(
        max >= 2,
        "expected at least one unit to bounce (avg {avg}, max {max})"
    );
}
