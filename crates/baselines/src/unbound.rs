//! Unbound (paper §II-B): the "extreme" correctness-free scaling solution
//! used to validate the overhead hypothesis `L = Lp + Ls + Ld + Lo`.
//!
//! Unbound updates routing tables and triggers state migration
//! independently (no signals → no `Lp`), and converts record keys into
//! "universal keys" so any local state can process any record (no
//! suspensions → no `Ls`, and `Ld` never manifests as latency). Its output
//! is **not** equivalent to a non-scaled execution — the semantics checker
//! is expected to flag violations, which `fig02` reports.

use streamflow::events::PriorityMsg;
use streamflow::ids::{InstId, SubscaleId};
use streamflow::record::Record;
use streamflow::scaling::{ScalePlan, ScalePlugin};
use streamflow::world::World;

/// The Unbound pseudo-mechanism.
#[derive(Default)]
pub struct UnboundPlugin;

impl UnboundPlugin {
    /// Create the mechanism.
    pub fn new() -> Self {
        Self
    }
}

impl ScalePlugin for UnboundPlugin {
    fn name(&self) -> &'static str {
        "Unbound"
    }

    fn on_scale_start(&mut self, w: &mut World, plan: &ScalePlan) {
        let now = w.now();
        w.scale.metrics.inject_plan(&plan.moves, now);
        // Independent routing update + migration trigger, no signals.
        w.reroute_plan(plan);
        for m in &plan.moves {
            w.migrate_group(m.from, m.to, m.kg, SubscaleId(0));
        }
    }

    fn on_priority(&mut self, w: &mut World, inst: InstId, msg: PriorityMsg) {
        // A copy fabricated here before the chunk arrived takes the unit
        // by fold (`install_unit`).
        if let PriorityMsg::Chunk { unit, .. } = msg {
            w.install_unit(inst, *unit, true);
        }
    }

    fn admits_whole_run(&self, _w: &World, _inst: InstId) -> bool {
        true
    }

    fn on_orphan_record(&mut self, w: &mut World, inst: InstId, rec: &Record) -> bool {
        // Universal keys: process against fresh local state.
        let kg = w.kg_of(rec.key);
        w.fabricate_group(inst, kg);
        w.apply_record_basic(inst, rec.clone());
        true
    }
}
