//! `baselines` — every comparison mechanism from the paper's evaluation:
//!
//! * [`otfs_fluid`] — the generalized on-the-fly scaling framework
//!   (§II-B, Fig. 1): source-injected coupled barriers with alignment,
//!   fluid migration (the paper's Fig. 2 OTFS baseline).
//! * [`megaphone`] — Megaphone (VLDB '19) as ported in §V-A: predecessor
//!   injection, coupled barriers, timestamp-driven naive division
//!   (sequential batches), fluid migration, 200-record buffer.
//! * [`meces::MecesPlugin`] — Meces (ATC '22): single synchronization,
//!   fetch-on-demand with hierarchical sub-key-groups, back-and-forth
//!   migration pathology included.
//! * [`unbound::UnboundPlugin`] — the correctness-free "Unbound" probe from
//!   the paper's Fig. 2 overhead-decomposition experiment.
//! * [`stop_restart::StopRestartPlugin`] — mainstream Stop-Checkpoint-Restart,
//!   the traditional all-at-once move.
//!
//! The barrier-based baselines (OTFS, Megaphone) are expressed as
//! configurations of `drrs_core`'s [`FlexScaler`] — the same single-fork
//! methodology the paper uses for fair comparison.

pub mod meces;
pub mod stop_restart;
pub mod unbound;

pub use meces::MecesPlugin;
pub use stop_restart::StopRestartPlugin;
pub use unbound::UnboundPlugin;

use drrs_core::{FlexScaler, MechanismConfig};

/// Generalized OTFS with fluid migration (the paper's Fig. 2 baseline).
pub fn otfs_fluid() -> FlexScaler {
    FlexScaler::new(MechanismConfig::otfs_fluid())
}

/// Megaphone with `batch_kgs` key-groups per sequential batch (1 = the
/// paper's key-group-granular configuration).
pub fn megaphone(batch_kgs: usize) -> FlexScaler {
    FlexScaler::new(MechanismConfig::megaphone(batch_kgs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::time::secs;
    use streamflow::world::tests_support::tiny_job;
    use streamflow::world::Sim;
    use streamflow::EngineConfig;

    #[test]
    fn meces_completes_and_violates_order() {
        let mut cfg = EngineConfig::test();
        cfg.sub_group_fanout = 4; // hierarchical state organization
        let (mut w, agg) = tiny_job(cfg, 6_000.0, 512, 2);
        w.schedule_scale(secs(2), agg, 4);
        let mut sim = Sim::new(w, Box::new(MecesPlugin::new()));
        sim.run_until(secs(20));
        // All units settle at their destinations eventually.
        assert!(!sim.world.scale.in_progress, "Meces migration unfinished");
        let plan = sim.world.scale.plan.as_ref().expect("plan").clone();
        for m in &plan.moves {
            assert!(
                sim.world.insts[m.to.0 as usize].state.holds_group(m.kg),
                "{} not settled at {}",
                m.kg,
                m.to
            );
        }
        // Fetch conflicts: at least one unit moved more than once.
        let (avg, max) = sim.world.scale.metrics.migration_churn();
        assert!(avg >= 1.0);
        assert!(max >= 1, "churn: avg {avg}, max {max}");
    }

    #[test]
    fn meces_lowest_propagation_delay() {
        let run = |plugin: Box<dyn streamflow::ScalePlugin>| {
            let (mut w, agg) = tiny_job(EngineConfig::test(), 4_000.0, 512, 2);
            w.schedule_scale(secs(2), agg, 4);
            let mut sim = Sim::new(w, plugin);
            sim.run_until(secs(15));
            sim.world.scale.metrics.cumulative_propagation_delay()
        };
        let meces = run(Box::<MecesPlugin>::default());
        let otfs = run(Box::new(otfs_fluid()));
        assert!(
            meces < otfs,
            "Meces Lp {meces} µs should undercut OTFS {otfs} µs"
        );
    }

    #[test]
    fn unbound_never_suspends_and_breaks_order() {
        // Overload (2 instances × 50 µs/record cap 40K/s, driven at 60K/s)
        // so the old instances hold standing queues when routing flips:
        // that is the window in which reordering manifests.
        let (mut w, agg) = tiny_job(EngineConfig::test(), 60_000.0, 512, 2);
        w.schedule_scale(secs(2), agg, 4);
        let mut sim = Sim::new(w, Box::new(UnboundPlugin::new()));
        sim.run_until(secs(10));
        let suspension: u64 = sim.world.ops[agg.0 as usize]
            .instances
            .iter()
            .map(|&i| sim.world.insts[i.0 as usize].suspension_as_of(sim.world.now()))
            .sum();
        assert_eq!(suspension, 0, "Unbound must eliminate Ls entirely");
        // Correctness is sacrificed: records of migrated keys processed at
        // both old and new instances out of order.
        assert!(
            sim.world.semantics.violations() > 0,
            "Unbound should violate execution order"
        );
    }

    #[test]
    fn unbound_conserves_total_counts() {
        // Universal keys split state across instances, but commutative
        // aggregates still conserve the total.
        let (mut w, agg) = tiny_job(EngineConfig::test(), 2_000.0, 128, 2);
        w.schedule_scale(secs(2), agg, 3);
        let mut sim = Sim::new(w, Box::new(UnboundPlugin::new()));
        sim.run_until(secs(6));
        let total: u64 = sim.world.ops[agg.0 as usize]
            .instances
            .iter()
            .map(|&i| {
                sim.world.insts[i.0 as usize]
                    .state
                    .snapshot_counts()
                    .values()
                    .sum::<u64>()
            })
            .sum();
        // Sink saw the same number of data records as were counted.
        assert!(total > 0);
        assert_eq!(total, sim.world.metrics.sink_records);
    }

    #[test]
    fn stop_restart_halts_then_completes() {
        let (mut w, agg) = tiny_job(EngineConfig::test(), 2_000.0, 256, 2);
        w.schedule_scale(secs(2), agg, 3);
        let mut sim = Sim::new(w, Box::new(StopRestartPlugin::new()));
        // During the halt no records reach the sink.
        sim.run_until(secs(3));
        let mid = sim.world.metrics.sink_records;
        sim.run_until(secs(4));
        assert_eq!(
            mid, sim.world.metrics.sink_records,
            "halted system delivered records"
        );
        sim.run_until(secs(20));
        assert!(!sim.world.scale.in_progress);
        assert!(sim.world.metrics.sink_records > mid, "system never resumed");
        assert_eq!(sim.world.semantics.violations(), 0);
        // Restart causes a visible latency cliff.
        let (peak, _) = sim.world.metrics.latency_stats_ms(secs(2), secs(15));
        assert!(
            peak > 5_000.0,
            "expected multi-second restart spike, saw {peak} ms"
        );
    }
}
