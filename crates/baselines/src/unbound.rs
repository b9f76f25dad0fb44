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
use streamflow::ids::{ChannelId, InstId, OpId, SubscaleId};
use streamflow::record::Record;
use streamflow::scaling::{ScalePlan, ScalePlugin};
use streamflow::world::World;

/// The Unbound pseudo-mechanism.
#[derive(Default)]
pub struct UnboundPlugin {
    op: Option<OpId>,
    started: bool,
}

impl UnboundPlugin {
    /// Create the mechanism.
    pub fn new() -> Self {
        Self::default()
    }

    /// Does `inst` run on universal keys (the scale started and `inst`
    /// belongs to the scaled operator)?
    fn universal(&self, w: &World, inst: InstId) -> bool {
        self.started && self.op == Some(w.insts[inst.0 as usize].op)
    }
}

impl ScalePlugin for UnboundPlugin {
    fn name(&self) -> &'static str {
        "Unbound"
    }

    fn active(&self) -> bool {
        false // never interferes with input selection
    }

    fn on_scale_start(&mut self, w: &mut World, plan: &ScalePlan) {
        self.op = Some(plan.op);
        self.started = true;
        let now = w.now();
        w.scale.metrics.inject_plan(&plan.moves, now);
        // Independent routing update + migration trigger, no signals.
        w.reroute_plan(plan);
        for m in &plan.moves {
            w.migrate_group(m.from, m.to, m.kg, SubscaleId(0));
        }
    }

    fn on_priority(&mut self, w: &mut World, inst: InstId, msg: PriorityMsg) {
        let PriorityMsg::Chunk { unit, .. } = msg else {
            return;
        };
        let unit = *unit;
        // Merge into whatever local state exists: the instance may already
        // have created a universal-key group for these keys.
        let kg = unit.kg;
        if w.insts[inst.0 as usize].state.holds(kg, unit.sub) {
            // Fold entries into the existing group (commutative merge).
            let bytes = unit.state.nominal_bytes;
            let panes = unit.state.panes;
            let some_key = unit.state.entries.keys().next().copied();
            let some_key = some_key.or_else(|| panes.as_ref().and_then(|p| p.keys().next()));
            let state = &mut w.insts[inst.0 as usize].state;
            for (k, v) in unit.state.entries {
                let slot = state.entry_or(kg, k, || zero_like(&v));
                merge_value(slot, &v);
            }
            // Window keys are registered and their panes dropped: merging
            // panes is not modelled, and no scenario runs Unbound on a
            // window operator (the paper's Fig. 2 uses aggregations).
            for k in panes.iter().flat_map(|p| p.keys()) {
                state.panes_mut(kg, k).insert_key(k);
            }
            if let Some(k) = some_key {
                state.add_bytes(kg, k, bytes as i64);
            }
            w.wake(inst);
        } else {
            w.install_unit(inst, unit, true);
        }
    }

    fn admit(&mut self, w: &mut World, inst: InstId, _ch: ChannelId, rec: &Record) -> bool {
        // Universal keys: fabricate local state if it is missing.
        if self.universal(w, inst) {
            let kg = w.kg_of(rec.key);
            if !w.insts[inst.0 as usize].state.holds_group(kg) {
                w.insts[inst.0 as usize].state.ensure_group(kg);
            }
        }
        true
    }

    // Outside `universal`, `admit` returns `true` with no side effect.
    fn admits_whole_run(&self, w: &World, inst: InstId) -> bool {
        !self.universal(w, inst)
    }

    fn on_orphan_record(&mut self, w: &mut World, inst: InstId, rec: &Record) -> bool {
        // Mid-quantum extraction: process against fresh universal state.
        let kg = w.kg_of(rec.key);
        w.insts[inst.0 as usize].state.ensure_group(kg);
        w.apply_record_basic(inst, rec.clone());
        true
    }
}

fn zero_like(v: &streamflow::state::StateValue) -> streamflow::state::StateValue {
    use streamflow::state::StateValue as SV;
    match v {
        SV::Count(_) => SV::Count(0),
        SV::Sum { .. } => SV::Sum { count: 0, sum: 0 },
        SV::Lists(_) => SV::Lists(Vec::new()),
    }
}

fn merge_value(acc: &mut streamflow::state::StateValue, v: &streamflow::state::StateValue) {
    use streamflow::state::StateValue as SV;
    match (acc, v) {
        (SV::Count(a), SV::Count(b)) => *a += b,
        (SV::Sum { count, sum }, SV::Sum { count: c2, sum: s2 }) => {
            *count += c2;
            *sum += s2;
        }
        (SV::Lists(l1), SV::Lists(l2)) => l1.extend_from_slice(l2),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamflow::state::StateValue as SV;

    // Join lists: a person at `t` is `t`, an auction at `t` is `!t`.

    #[test]
    fn zero_like_keeps_the_shape_and_empties_it() {
        for (v, zero) in [
            (SV::Count(7), SV::Count(0)),
            (SV::Sum { count: 3, sum: -9 }, SV::Sum { count: 0, sum: 0 }),
            (SV::Lists(vec![10, !20, 40]), SV::Lists(vec![])),
        ] {
            assert_eq!(zero_like(&v), zero);
            assert_eq!(zero_like(&v).count(), 0);
        }
    }

    #[test]
    fn merge_value_folds_like_shapes() {
        let mut c = SV::Count(3);
        merge_value(&mut c, &SV::Count(4));
        assert_eq!(c, SV::Count(7));

        let mut s = SV::Sum { count: 2, sum: 5 };
        merge_value(&mut s, &SV::Sum { count: 1, sum: -8 });
        assert_eq!(s, SV::Sum { count: 3, sum: -3 });

        let mut l = SV::Lists(vec![10, !20]);
        merge_value(&mut l, &SV::Lists(vec![30, !40, !50]));
        assert_eq!(l, SV::Lists(vec![10, !20, 30, !40, !50]));
        assert_eq!(l.count(), 5);

        // A zeroed value merged with the original is the original.
        let orig = SV::Lists(vec![1, 2, !3]);
        let mut z = zero_like(&orig);
        merge_value(&mut z, &orig);
        assert_eq!(z, orig);
    }

    #[test]
    fn merge_value_ignores_mismatched_shapes() {
        let mut c = SV::Count(3);
        merge_value(&mut c, &SV::Sum { count: 1, sum: 1 });
        assert_eq!(c, SV::Count(3));
    }
}
