//! The scaling plugin API and the engine-side scaling context.
//!
//! All rescaling mechanisms — DRRS, Megaphone, Meces, generalized OTFS,
//! Unbound, Stop-Checkpoint-Restart — implement [`ScalePlugin`]. The engine
//! owns the generic machinery every mechanism needs (deployment, migration
//! links, the [`UnitLedger`] of state units, suspension accounting) and
//! calls the plugin at a small set of decision points.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use simcore::SimTime;

use crate::events::PriorityMsg;
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
/// simulation driver, so there is no aliasing. Only [`Self::name`] and
/// [`Self::on_scale_start`] are required; every other method's provided
/// body is what a mechanism that does not use the hook needs.
pub trait ScalePlugin {
    /// Mechanism name (for reports).
    fn name(&self) -> &'static str;

    /// The deployment finished; the mechanism takes over. `plan.moves` is
    /// final. This is where signals get injected (or scheduled).
    fn on_scale_start(&mut self, w: &mut World, plan: &ScalePlan);

    /// An in-band scale signal was consumed at `inst` from channel `ch`.
    fn on_signal(&mut self, _w: &mut World, _inst: InstId, _ch: ChannelId, _sig: ScaleSignal) {}

    /// A priority (out-of-band) message arrived at `to`; right after this
    /// returns, the engine tries to start work at `to`.
    ///
    /// Every priority message reaches the mechanism here and only here.
    /// Who sends which [`PriorityMsg`], and so who must handle it:
    ///
    /// * `Signal` — DRRS-style decoupled trigger barriers
    ///   (`drrs_core::FlexScaler`, which sends them itself);
    /// * `Chunk` — a migrated state unit off a migration link, for every
    ///   mechanism that migrates through [`World::migrate_group`] or
    ///   [`World::migrate_unit`] (`FlexScaler`, Meces, Unbound); the
    ///   handler must install it with [`World::install_unit`], the one
    ///   arrival path the unit ledger sees;
    /// * `ReroutedRecords` — `FlexScaler`'s re-routed epoch-`Ep` records
    ///   and Meces' forwarded records;
    /// * `ReroutedConfirm` — `FlexScaler`'s re-routed confirm barriers;
    /// * `Fetch` — Meces' fetch-on-demand requests.
    ///
    /// The provided body ignores every message.
    fn on_priority(&mut self, _w: &mut World, _to: InstId, _msg: PriorityMsg) {}

    /// A plugin timer (scheduled via [`World::schedule_plugin`]) fired.
    fn on_control(&mut self, _w: &mut World, _tag: u64) {}

    /// Input selection at `inst`. `None` — the provided answer — hands
    /// selection to the engine's default (active-channel) discipline, with
    /// [`ScalePlugin::admit`] as its admission filter; `Some` is the
    /// plugin's own decision (a plugin that assembles a run with
    /// [`World::build_run`] passes itself, so its `admit` filters it).
    fn select(&mut self, _w: &mut World, _inst: InstId) -> Option<Selection> {
        None
    }

    /// May this data record be processed at `inst` right now? The default
    /// filter admits everything (non-scaling operation). Where
    /// [`Self::admits_whole_run`] holds, debug builds call it for the
    /// contract check alone, so it must have no side effect there.
    fn admit(&mut self, _w: &mut World, _inst: InstId, _ch: ChannelId, _rec: &Record) -> bool {
        true
    }

    /// Would every [`ScalePlugin::admit`] call of the quantum about to be
    /// assembled at `inst` return `true` with no side effect? When this
    /// returns `true`, release builds of [`World::build_run`] skip the
    /// per-record `admit` call for the whole run. Nothing `build_run` does
    /// between records can reach the plugin, so the answer must only hold
    /// for the world as it is at the call.
    ///
    /// The default `false` keeps per-record admission, which is always
    /// exact. Debug builds check the declaration: `build_run` still calls
    /// `admit` on every data record of a whole run and asserts that it
    /// accepts, on the engine's selection and on the runs plugins assemble
    /// with [`World::build_run`] alike.
    fn admits_whole_run(&self, _w: &World, _inst: InstId) -> bool {
        false
    }

    /// A record reached application but its state sub-group is not locally
    /// present (it was extracted between admission and quantum completion,
    /// or the mechanism tolerates missing state). Return `true` if the
    /// plugin consumed the record (re-routed / buffered / fetched);
    /// returning `false` lets the engine treat it as a hard error.
    ///
    /// Unbound implements its "universal keys" here: it creates an empty
    /// local copy of the group ([`World::fabricate_group`]) and applies the
    /// record itself.
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
    fn admits_whole_run(&self, _w: &World, _inst: InstId) -> bool {
        true
    }
}

/// One migration link (one per sending instance: the container NIC
/// serializes outgoing chunks): `(dest, unit, subscale)` in send order, the
/// front one on the wire.
pub type LinkQueue = VecDeque<(InstId, StateUnit, SubscaleId)>;

/// Timing metrics for the paper's three overhead classes plus bookkeeping.
/// Everything but the ledger's persistent columns resets when a plan
/// starts ([`ScaleMetrics::begin_plan`]).
#[derive(Default)]
pub struct ScaleMetrics {
    /// When the harness requested the scale.
    pub requested_at: Option<SimTime>,
    /// When the new containers became operational.
    pub deployed_at: Option<SimTime>,
    /// Per subscale: signal injection time.
    pub injected: BTreeMap<SubscaleId, SimTime>,
    /// Per subscale: first chunk send start (propagation delay end point).
    pub first_migration: BTreeMap<SubscaleId, SimTime>,
    /// Every state unit's location and this plan's per-unit timing.
    pub units: UnitLedger,
    /// When every planned move had been installed at its final destination.
    pub migration_done: Option<SimTime>,
    /// Total bytes transferred over migration links.
    pub bytes_transferred: u64,
}

impl ScaleMetrics {
    /// A plan was requested at `now`: reset this plan's metrics, keeping
    /// the units' locations.
    pub fn begin_plan(&mut self, now: SimTime) {
        let mut units = std::mem::take(&mut self.units);
        units.begin_plan();
        *self = Self {
            requested_at: Some(now),
            units,
            ..Self::default()
        };
    }

    /// One signal governs the whole plan: it and every unit of each move
    /// count as injected at `now`.
    pub fn inject_plan(&mut self, moves: &[KgMove], now: SimTime) {
        self.injected.insert(SubscaleId(0), now);
        for m in moves {
            self.units.inject(m.kg, now);
        }
    }

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
        for r in &self.units.rows {
            if let (Some(inst_t), Some(inj)) = (r.installed, r.injected) {
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
        let (mut n, mut total, mut max) = (0u64, 0u64, 0);
        for r in self.units.rows.iter().filter(|r| r.migrations > 0) {
            n += 1;
            total += r.migrations as u64;
            max = max.max(r.migrations);
        }
        if n == 0 {
            (0.0, 0)
        } else {
            (total as f64 / n as f64, max)
        }
    }
}

/// One state unit's row in the [`UnitLedger`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UnitRow {
    /// The holder (the sender while in transit); `None` until a plan moves it.
    pub holder: Option<InstId>,
    /// The destination while in transit.
    pub transit: Option<InstId>,
    /// This plan: the destination of the move that carries the unit.
    pub planned: Option<InstId>,
    /// This plan: the governing signal's injection time.
    pub injected: Option<SimTime>,
    /// This plan: the install time at the destination.
    pub installed: Option<SimTime>,
    /// This plan: installs (Meces' back-and-forth; 1 for everyone else).
    pub migrations: u32,
}

/// Every state unit's location and per-plan timing, one dense row per
/// `(key-group, sub-group)` unit, the atom subscale division migrates.
///
/// Rows are indexed `kg * fanout + sub`, like
/// [`crate::state::StateBackend`]'s slots: no hashing, and iteration is
/// unit order by construction. `holder` and `transit` persist across plans
/// (a unit stays where the last plan left it); `planned`, `injected`,
/// `installed` and `migrations` describe the current plan and are cleared
/// when the next one starts.
///
/// Every hand-off of a unit is a [`Self::send`] and then an
/// [`Self::install`], both recorded by `World`: a migration link, a
/// restore from the checkpoint store (both at one instant) or a fold into
/// a fabricated copy. The two debug-assert the ledger's half of the
/// single-owner rule: a unit leaves only its holder, is never sent twice,
/// and is installed only where it was sent.
///
/// The ledger also counts the plan's outstanding units, those not
/// installed at their planned destination: [`Self::plan`] adds every unit
/// of a move, a send away from the destination adds one (Meces' fetches),
/// and an install there takes one off. The plan is complete when the count
/// is 0.
///
/// A copy of a key-group created where its units are not held (Unbound's
/// universal keys, [`Self::fabricate`]) is a state of its own: it is not
/// the units' holder, so an owner scan tells it from the real one, and the
/// unit installed later at that instance folds into it.
#[derive(Debug, Default)]
pub struct UnitLedger {
    fanout: usize,
    rows: Vec<UnitRow>,
    /// This plan's units not installed at their destination.
    outstanding: usize,
    /// Fabricated copies, as `(row index, instance)`.
    fabricated: BTreeSet<(usize, InstId)>,
}

impl UnitLedger {
    /// An untracked ledger over `max_key_groups × fanout` units.
    pub fn new(max_key_groups: u16, fanout: u8) -> Self {
        let fanout = fanout.max(1) as usize;
        let rows = vec![UnitRow::default(); max_key_groups as usize * fanout];
        Self {
            fanout,
            rows,
            ..Self::default()
        }
    }

    /// Every row, in unit order.
    pub fn rows(&self) -> &[UnitRow] {
        &self.rows
    }

    /// The unit at row index `i`, with its row.
    pub fn at(&self, i: usize) -> (KeyGroup, u8, UnitRow) {
        let (kg, sub) = (i / self.fanout, i % self.fanout);
        (KeyGroup(kg as u16), sub as u8, self.rows[i])
    }

    /// The row of unit `(kg, sub)`.
    pub fn row(&self, kg: KeyGroup, sub: u8) -> UnitRow {
        self.rows[self.index(kg, sub)]
    }

    fn index(&self, kg: KeyGroup, sub: u8) -> usize {
        kg.0 as usize * self.fanout + sub as usize
    }

    /// The rows of key-group `kg`'s units.
    fn group(&mut self, kg: KeyGroup) -> &mut [UnitRow] {
        let first = self.index(kg, 0);
        &mut self.rows[first..][..self.fanout]
    }

    /// The plan moves `kg` from `from` to `to`: every unit of it is at
    /// `from` and outstanding.
    pub fn plan(&mut self, kg: KeyGroup, from: InstId, to: InstId) {
        for r in self.group(kg) {
            (r.holder, r.transit, r.planned) = (Some(from), None, Some(to));
        }
        self.outstanding += self.fanout;
    }

    /// The signal governing every unit of `kg` was injected at `t`.
    pub fn inject(&mut self, kg: KeyGroup, t: SimTime) {
        self.group(kg).iter_mut().for_each(|r| r.injected = Some(t));
    }

    /// Unit `(kg, sub)` left `from` for `to`.
    pub fn send(&mut self, kg: KeyGroup, sub: u8, from: InstId, to: InstId) {
        let i = self.index(kg, sub);
        let r = &mut self.rows[i];
        debug_assert!(
            r.transit.is_none() && r.holder.is_none_or(|h| h == from),
            "{kg}/{sub} extracted at {from}, but the ledger has {r:?}"
        );
        if r.planned == Some(from) {
            self.outstanding += 1;
        }
        (r.holder, r.transit) = (Some(from), Some(to));
    }

    /// Unit `(kg, sub)` was installed at `inst` at `t`. Returns whether
    /// `inst` held a fabricated copy of it, which the unit folds into (and
    /// which is then the real one).
    pub fn install(&mut self, kg: KeyGroup, sub: u8, inst: InstId, t: SimTime) -> bool {
        let i = self.index(kg, sub);
        let r = &mut self.rows[i];
        debug_assert!(
            r.transit == Some(inst),
            "{kg}/{sub} installed at {inst}, but the ledger has {r:?}"
        );
        if r.planned == Some(inst) {
            self.outstanding -= 1;
        }
        (r.holder, r.transit, r.installed) = (Some(inst), None, Some(t));
        r.migrations += 1;
        self.fabricated.remove(&(i, inst))
    }

    /// An empty copy of every unit of `kg` was created at `inst`, which
    /// held none of them.
    pub fn fabricate(&mut self, kg: KeyGroup, inst: InstId) {
        for sub in 0..self.fanout as u8 {
            self.fabricated.insert((self.index(kg, sub), inst));
        }
    }

    /// Does `inst` hold a fabricated copy of unit `(kg, sub)`?
    pub fn is_fabricated(&self, kg: KeyGroup, sub: u8, inst: InstId) -> bool {
        self.fabricated.contains(&(self.index(kg, sub), inst))
    }

    /// This plan's units not yet installed at their destination.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Clear the per-plan columns.
    pub fn begin_plan(&mut self) {
        for r in &mut self.rows {
            (r.planned, r.injected, r.installed, r.migrations) = (None, None, None, 0);
        }
        self.outstanding = 0;
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
    /// Migration link per sending instance, by `InstId.0` (grown on an
    /// instance's first send).
    pub links: Vec<LinkQueue>,
    /// Metrics for the current (or last) scale, with the unit ledger.
    pub metrics: ScaleMetrics,
    /// True between `StartScale` and migration completion.
    pub in_progress: bool,
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
        let mut m = ScaleMetrics {
            units: UnitLedger::new(4, 1),
            ..Default::default()
        };
        m.units.inject(KeyGroup(1), 100);
        m.units.inject(KeyGroup(2), 100);
        for (kg, t) in [(1, 200), (2, 400), (3, 900)] {
            m.units.send(KeyGroup(kg), 0, InstId(0), InstId(3));
            m.units.install(KeyGroup(kg), 0, InstId(3), t);
        }
        // Key-group 3 was installed without an injection: not a dependency
        // sample.
        assert!((m.avg_dependency_overhead() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn churn_reports_avg_and_max() {
        let mut m = ScaleMetrics {
            units: UnitLedger::new(4, 2),
            ..Default::default()
        };
        m.units.send(KeyGroup(1), 0, InstId(1), InstId(0));
        m.units.install(KeyGroup(1), 0, InstId(0), 10);
        for t in 0..7 {
            let to = InstId(t % 2);
            m.units.send(KeyGroup(2), 1, InstId(1 - to.0), to);
            m.units.install(KeyGroup(2), 1, to, t as SimTime);
        }
        let (avg, max) = m.migration_churn();
        assert!((avg - 4.0).abs() < 1e-9);
        assert_eq!(max, 7);
    }

    #[test]
    fn a_new_plan_keeps_locations_and_clears_timing() {
        let mut m = ScaleMetrics {
            units: UnitLedger::new(4, 2),
            ..Default::default()
        };
        m.units.plan(KeyGroup(2), InstId(0), InstId(1));
        m.units.inject(KeyGroup(2), 5);
        m.units.send(KeyGroup(2), 0, InstId(0), InstId(1));
        m.units.send(KeyGroup(2), 1, InstId(0), InstId(1));
        m.units.install(KeyGroup(2), 0, InstId(1), 9);
        assert_eq!(m.units.outstanding(), 1);
        m.injected.insert(SubscaleId(0), 5);
        m.begin_plan(50);
        assert_eq!(m.requested_at, Some(50));
        assert!(m.injected.is_empty());
        assert_eq!(m.units.outstanding(), 0);
        assert!(m.units.rows().iter().all(|r| r.installed.is_none()));
        let kept = |holder, transit| UnitRow {
            holder: Some(InstId(holder)),
            transit,
            ..Default::default()
        };
        assert_eq!(m.units.row(KeyGroup(2), 0), kept(1, None));
        assert_eq!(m.units.row(KeyGroup(2), 1), kept(0, Some(InstId(1))));
        // Rows are unit order: row 5 is key-group 2, sub-group 1.
        assert_eq!(m.units.at(5).0, KeyGroup(2));
        assert_eq!(m.units.at(5).1, 1);
    }

    #[test]
    fn outstanding_units_reach_zero_at_the_last_planned_install() {
        // Fanout 2: key-group 1 moves a -> c and key-group 3 moves b -> c,
        // where a universal key fabricated a copy of key-group 3.
        let (a, b, c) = (InstId(0), InstId(1), InstId(2));
        let (g1, g3) = (KeyGroup(1), KeyGroup(3));
        let mut l = UnitLedger::new(4, 2);
        l.plan(g1, a, c);
        l.plan(g3, b, c);
        l.fabricate(g3, c);
        // (unit, from, to, outstanding after the install)
        let hops = [
            ((g1, 0), a, c, 3),
            ((g1, 1), a, c, 2),
            // Away from the destination and back (a Meces fetch).
            ((g1, 1), c, a, 3),
            ((g1, 1), a, c, 2),
            ((g3, 0), b, c, 1),
            ((g3, 1), b, c, 0),
        ];
        for (t, ((kg, sub), from, to, left)) in hops.into_iter().enumerate() {
            assert_ne!(l.outstanding(), 0, "before install {t}");
            l.send(kg, sub, from, to);
            assert_eq!(l.install(kg, sub, to, t as SimTime), kg == g3, "fold");
            assert_eq!(l.outstanding(), left, "after install {t}");
        }
        assert_eq!(l.row(g1, 1).migrations, 3);
        assert!(!l.is_fabricated(g3, 0, c) && l.row(g3, 0).holder == Some(c));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "installed at")]
    fn an_install_without_a_matching_send_is_a_debug_panic() {
        let mut l = UnitLedger::new(4, 1);
        l.plan(KeyGroup(1), InstId(0), InstId(1));
        l.install(KeyGroup(1), 0, InstId(1), 3);
    }
}
