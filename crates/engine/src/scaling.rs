//! The scaling plugin API and the engine-side scaling context.
//!
//! All rescaling mechanisms — DRRS, Megaphone, Meces, generalized OTFS,
//! Unbound, Stop-Checkpoint-Restart — implement [`ScalePlugin`]. The engine
//! owns the generic machinery every mechanism needs (deployment, migration
//! links, per-unit metrics, suspension accounting) and calls the plugin at
//! a small set of decision points.

use std::collections::HashMap;
use std::collections::VecDeque;

use simcore::SimTime;

use crate::ids::{ChannelId, InstId, KeyGroup, OpId, SubscaleId};
use crate::keygroup::KgMove;
use crate::record::{Record, ScaleSignal};
use crate::state::StateUnit;
use crate::world::World;

/// A scaling plan: which operator scales and which key-groups move where.
#[derive(Clone, Debug)]
pub struct ScalePlan {
    /// The scaling operator.
    pub op: OpId,
    /// Parallelism before scaling.
    pub old_parallelism: usize,
    /// Parallelism after scaling.
    pub new_parallelism: usize,
    /// Re-partitioning strategy (Scale Planner C0 policy).
    pub strategy: crate::keygroup::Repartition,
    /// Key-group moves (filled in by the engine at deploy time using the
    /// planner's repartitioning strategy).
    pub moves: Vec<KgMove>,
}

/// What an instance's input selection decided.
pub enum Selection {
    /// A control element popped from `ch` that the engine must now handle
    /// (watermark, checkpoint barrier, in-band scale signal).
    Control(ChannelId, crate::record::StreamElement),
    /// A run of data records (already popped) to process as one quantum.
    Run {
        /// Records in processing order.
        records: Vec<Record>,
        /// Total busy time for the quantum.
        service: SimTime,
    },
    /// Inputs exist but none is admissible — the instance suspends.
    Suspend,
    /// Nothing to do.
    Idle,
}

/// A pluggable rescaling mechanism.
///
/// Methods take `&mut World` — the plugin is held outside the world by the
/// simulation driver, so there is no aliasing.
pub trait ScalePlugin {
    /// Mechanism name (for reports).
    fn name(&self) -> &'static str;

    /// The deployment finished; the mechanism takes over. `plan.moves` is
    /// final. This is where signals get injected (or scheduled).
    fn on_scale_start(&mut self, w: &mut World, plan: &ScalePlan);

    /// An in-band scale signal was consumed at `inst` from channel `ch`.
    fn on_signal(&mut self, w: &mut World, inst: InstId, ch: ChannelId, sig: ScaleSignal);

    /// A priority (out-of-band) signal arrived at `inst`.
    fn on_priority_signal(&mut self, _w: &mut World, _inst: InstId, _sig: ScaleSignal) {}

    /// A migrated state unit arrived at `inst`.
    fn on_chunk(
        &mut self,
        w: &mut World,
        inst: InstId,
        unit: StateUnit,
        subscale: SubscaleId,
        from: InstId,
    );

    /// Re-routed records arrived at `inst` (DRRS-style mechanisms).
    fn on_rerouted_records(
        &mut self,
        _w: &mut World,
        _inst: InstId,
        _from: InstId,
        _records: Vec<Record>,
    ) {
    }

    /// A re-routed confirm barrier arrived at `inst`.
    fn on_rerouted_confirm(
        &mut self,
        _w: &mut World,
        _inst: InstId,
        _from: InstId,
        _sig: ScaleSignal,
    ) {
    }

    /// A fetch request arrived at `inst` (Meces).
    fn on_fetch(
        &mut self,
        _w: &mut World,
        _inst: InstId,
        _kg: KeyGroup,
        _sub: u8,
        _requester: InstId,
    ) {
    }

    /// A plugin timer (scheduled via [`World::schedule_plugin`]) fired.
    fn on_control(&mut self, _w: &mut World, _tag: u64) {}

    /// Does this plugin currently override input selection at `inst`?
    /// When `false`, the engine's default (active-channel) selection runs
    /// with [`ScalePlugin::admit`] as the admission filter.
    fn selects(&self, _w: &World, _inst: InstId) -> bool {
        false
    }

    /// Custom input selection for `inst` (only called when
    /// [`ScalePlugin::selects`] returns true).
    fn select(&mut self, _w: &mut World, _inst: InstId) -> Selection {
        Selection::Idle
    }

    /// May this data record be processed at `inst` right now? The default
    /// filter admits everything (non-scaling operation). Implementations may
    /// have side effects: Meces issues a fetch on a miss, Unbound creates
    /// the missing state group. [`World::build_run`] calls it while the
    /// instance's operator logic is taken out of the instance.
    fn admit(&mut self, _w: &mut World, _inst: InstId, _ch: ChannelId, _rec: &Record) -> bool {
        true
    }

    /// Would every [`ScalePlugin::admit`] call of the quantum about to be
    /// assembled at `inst` return `true` with no side effect? When this
    /// returns `true`, [`World::build_run`] skips the per-record `admit`
    /// call for the whole run. Nothing `build_run` does between records
    /// can reach the plugin, so the answer must only hold for the world
    /// as it is at the call.
    ///
    /// The default `false` keeps per-record admission, which is always
    /// exact; a plugin whose `admit` fetches or creates state (Meces,
    /// Unbound) keeps it.
    fn admits_whole_run(&self, _w: &World, _inst: InstId) -> bool {
        false
    }

    /// A record reached application but its state sub-group is not locally
    /// present (it was extracted between admission and quantum completion,
    /// or the mechanism tolerates missing state). Return `true` if the
    /// plugin consumed the record (re-routed / buffered / fetched);
    /// returning `false` lets the engine treat it as a hard error.
    ///
    /// Unbound implements its "universal keys" here by creating an empty
    /// local group and returning `false` so processing proceeds.
    fn on_orphan_record(&mut self, _w: &mut World, _inst: InstId, _rec: &Record) -> bool {
        false
    }

    /// Is a scaling operation still in progress? Used by run loops that end
    /// when scaling completes.
    fn active(&self) -> bool {
        false
    }
}

/// A no-op plugin for non-scaling runs (the paper's "No Scale" line).
pub struct NoScale;

impl ScalePlugin for NoScale {
    fn name(&self) -> &'static str {
        "no-scale"
    }
    fn on_scale_start(&mut self, _w: &mut World, _plan: &ScalePlan) {}
    fn on_signal(&mut self, _w: &mut World, _inst: InstId, _ch: ChannelId, _sig: ScaleSignal) {}
    fn on_chunk(&mut self, _w: &mut World, _i: InstId, _u: StateUnit, _s: SubscaleId, _f: InstId) {}
    fn admits_whole_run(&self, _w: &World, _inst: InstId) -> bool {
        true
    }
}

/// State of one migration link (one per sending instance: the container NIC
/// serializes outgoing chunks).
#[derive(Default)]
pub struct LinkState {
    /// Chunks waiting to be serialized+sent: `(dest, unit, subscale)`.
    pub queue: VecDeque<(InstId, StateUnit, SubscaleId)>,
    /// Is a chunk currently on the wire?
    pub busy: bool,
}

/// Timing metrics for the paper's three overhead classes plus bookkeeping.
#[derive(Default)]
pub struct ScaleMetrics {
    /// When the harness requested the scale.
    pub requested_at: Option<SimTime>,
    /// When the new containers became operational.
    pub deployed_at: Option<SimTime>,
    /// Per subscale: signal injection time.
    pub injected: HashMap<SubscaleId, SimTime>,
    /// Per subscale: first chunk send start (propagation delay end point).
    pub first_migration: HashMap<SubscaleId, SimTime>,
    /// Per state unit `(kg, sub)`: governing signal injection time.
    pub unit_injected: HashMap<(u16, u8), SimTime>,
    /// Per state unit: install time at the destination.
    pub unit_installed: HashMap<(u16, u8), SimTime>,
    /// Per state unit: number of times it has been migrated (Meces
    /// back-and-forth counting; 1 for everyone else).
    pub unit_migrations: HashMap<(u16, u8), u32>,
    /// When every planned move had been installed at its final destination.
    pub migration_done: Option<SimTime>,
    /// Total bytes transferred over migration links.
    pub bytes_transferred: u64,
}

impl ScaleMetrics {
    /// Cumulative propagation delay `Lp`: Σ over signals of
    /// (first migration − injection). Units: µs.
    pub fn cumulative_propagation_delay(&self) -> SimTime {
        self.injected
            .iter()
            .filter_map(|(ss, &inj)| {
                self.first_migration
                    .get(ss)
                    .map(|&fm| fm.saturating_sub(inj))
            })
            .sum()
    }

    /// Average dependency-related overhead `Ld`: mean over state units of
    /// (install − injection). Units: µs.
    pub fn avg_dependency_overhead(&self) -> f64 {
        let mut n = 0u64;
        let mut sum = 0u64;
        for (unit, &inst_t) in &self.unit_installed {
            if let Some(&inj) = self.unit_injected.get(unit) {
                n += 1;
                sum += inst_t.saturating_sub(inj);
            }
        }
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64
        }
    }

    /// `(average, max)` migrations per state unit (Meces fetch conflicts).
    pub fn migration_churn(&self) -> (f64, u32) {
        if self.unit_migrations.is_empty() {
            return (0.0, 0);
        }
        let total: u64 = self.unit_migrations.values().map(|&c| c as u64).sum();
        let max = self.unit_migrations.values().copied().max().unwrap_or(0);
        (total as f64 / self.unit_migrations.len() as f64, max)
    }
}

/// The set of instances being retired by a scale-in. Membership is probed
/// once per routed record on rebalance/broadcast edges while a scale-in
/// drains, so the test is a fixed-size bitset read keyed by the (dense)
/// instance index — O(1) instead of the former `Vec` scan, which mattered
/// once operators with hundreds of instances became a target. The ordered
/// list is kept alongside for the (cold) retirement sweep.
#[derive(Default)]
pub struct RetiringSet {
    /// Retiring instances in retirement order (cold-path iteration).
    list: Vec<InstId>,
    /// Bitset over dense instance indices (hot-path membership).
    bits: Vec<u64>,
}

impl RetiringSet {
    /// Is `i` retiring? One word read + mask — the per-routed-record probe.
    #[inline]
    pub fn contains(&self, i: InstId) -> bool {
        self.bits
            .get((i.0 / 64) as usize)
            .is_some_and(|w| w & (1u64 << (i.0 % 64)) != 0)
    }

    /// Replace the whole set (scale-in start). The bitset is sized once to
    /// cover the highest instance index and never grows mid-drain.
    pub fn assign(&mut self, ids: &[InstId]) {
        self.clear();
        for &i in ids {
            self.insert(i);
        }
    }

    /// Add one instance.
    pub fn insert(&mut self, i: InstId) {
        if self.contains(i) {
            return;
        }
        let w = (i.0 / 64) as usize;
        if self.bits.len() <= w {
            self.bits.resize(w + 1, 0);
        }
        self.bits[w] |= 1u64 << (i.0 % 64);
        self.list.push(i);
    }

    /// Remove one instance (it finished draining and was halted).
    pub fn remove(&mut self, i: InstId) {
        if let Some(w) = self.bits.get_mut((i.0 / 64) as usize) {
            *w &= !(1u64 << (i.0 % 64));
        }
        self.list.retain(|&x| x != i);
    }

    /// Drop everything.
    pub fn clear(&mut self) {
        self.list.clear();
        self.bits.iter_mut().for_each(|w| *w = 0);
    }

    /// No instance is retiring.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// Retiring instances in retirement order.
    pub fn iter(&self) -> impl Iterator<Item = InstId> + '_ {
        self.list.iter().copied()
    }
}

/// Engine-side scaling context shared by all mechanisms.
#[derive(Default)]
pub struct ScaleContext {
    /// Monotonic scale-operation counter.
    pub epoch: u32,
    /// The plan currently deploying or active.
    pub plan: Option<ScalePlan>,
    /// Instances created by the current scale.
    pub new_instances: Vec<InstId>,
    /// Instances being removed by the current scale-in (they stop receiving
    /// new traffic immediately and are halted once drained).
    pub retiring: RetiringSet,
    /// Migration link per sending instance.
    pub links: HashMap<InstId, LinkState>,
    /// Location registry of moving state units (Meces fetch-on-demand and
    /// conservation checks): `(kg, sub) → (holder, in_transit_to)`.
    pub unit_loc: HashMap<(u16, u8), (InstId, Option<InstId>)>,
    /// Metrics for the current (or last) scale.
    pub metrics: ScaleMetrics,
    /// True between `StartScale` and migration completion.
    pub in_progress: bool,
}

impl ScaleContext {
    /// Key-groups moving in the current plan, with their source/destination.
    pub fn moving(&self) -> impl Iterator<Item = &KgMove> + '_ {
        self.plan.iter().flat_map(|p| p.moves.iter())
    }

    /// Is this key-group part of the current plan?
    pub fn is_moving(&self, kg: KeyGroup) -> bool {
        self.moving().any(|m| m.kg == kg)
    }

    /// The move entry for a key-group, if it is moving.
    pub fn move_of(&self, kg: KeyGroup) -> Option<&KgMove> {
        self.plan.as_ref()?.moves.iter().find(|m| m.kg == kg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lp_sums_per_signal() {
        let mut m = ScaleMetrics::default();
        m.injected.insert(SubscaleId(0), 100);
        m.injected.insert(SubscaleId(1), 200);
        m.first_migration.insert(SubscaleId(0), 150);
        m.first_migration.insert(SubscaleId(1), 290);
        assert_eq!(m.cumulative_propagation_delay(), 50 + 90);
    }

    #[test]
    fn lp_ignores_signals_without_migration() {
        let mut m = ScaleMetrics::default();
        m.injected.insert(SubscaleId(0), 100);
        assert_eq!(m.cumulative_propagation_delay(), 0);
    }

    #[test]
    fn ld_averages_units() {
        let mut m = ScaleMetrics::default();
        m.unit_injected.insert((1, 0), 100);
        m.unit_injected.insert((2, 0), 100);
        m.unit_installed.insert((1, 0), 200);
        m.unit_installed.insert((2, 0), 400);
        assert!((m.avg_dependency_overhead() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn churn_reports_avg_and_max() {
        let mut m = ScaleMetrics::default();
        m.unit_migrations.insert((1, 0), 1);
        m.unit_migrations.insert((2, 0), 7);
        let (avg, max) = m.migration_churn();
        assert!((avg - 4.0).abs() < 1e-9);
        assert_eq!(max, 7);
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)]
    fn context_move_lookup() {
        let mut ctx = ScaleContext::default();
        ctx.plan = Some(ScalePlan {
            op: OpId(1),
            old_parallelism: 2,
            new_parallelism: 3,
            strategy: Default::default(),
            moves: vec![KgMove {
                kg: KeyGroup(5),
                from: InstId(1),
                to: InstId(9),
            }],
        });
        assert!(ctx.is_moving(KeyGroup(5)));
        assert!(!ctx.is_moving(KeyGroup(6)));
        assert_eq!(ctx.move_of(KeyGroup(5)).map(|m| m.to), Some(InstId(9)));
    }
}
