//! Meces (USENIX ATC '22): latency-efficient rescaling via prioritized state
//! migration, re-implemented as in the paper's §V-A port:
//!
//! * **single synchronization** — routing tables flip immediately at scale
//!   start (lowest propagation delay of all mechanisms),
//! * **fetch-on-demand** — an instance that needs absent state issues a
//!   priority fetch to the current holder; in-flight records at the *old*
//!   instance fetch state *back*, producing the back-and-forth migration
//!   pathology the paper quantifies (§V-B: on Q7 one sub-key-group moved
//!   6.25× on average, up to 46×),
//! * **hierarchical state organization** — sub-key-group granularity
//!   (configure `EngineConfig::sub_group_fanout > 1`),
//! * **background migration** — units not demanded are migrated gradually
//!   so scaling eventually completes,
//! * **no scheduling buffer** (per the paper: the buffer makes Meces fetch
//!   more aggressively and regress).
//!
//! Fetch-on-demand does not preserve execution semantics (paper §II-B): the
//! old and new instances may interleave a key's records out of emission
//! order. The semantics checker counts these violations.

use std::collections::{HashMap, HashSet};

use simcore::time::{ms, SimTime};
use streamflow::events::PriorityMsg;
use streamflow::ids::{ChannelId, InstId, KeyGroup, OpId, SubscaleId};
use streamflow::record::{Record, RecordKind, StreamElement};
use streamflow::scaling::{ScalePlan, ScalePlugin, Selection};
use streamflow::state::StateUnit;
use streamflow::world::World;

const TAG_BG: u64 = 11;
/// Period of the background migration pump.
const BACKGROUND_INTERVAL: SimTime = ms(40);
/// Units migrated per background pump.
const BACKGROUND_BATCH: usize = 1;
/// Minimum residence time before a unit can be fetched away again.
const FETCH_HOLDOFF: SimTime = ms(100);
/// After this many fetch-backs of a unit, the old instance stops pulling
/// state and *forwards* its records to the new owner instead — Meces'
/// record-forwarding path, which is where its execution-order guarantee
/// breaks (paper §II-B).
const MAX_FETCH_BACK: u32 = 6;
/// High bit marks a deferred-fetch timer; the low bits encode the request.
const TAG_FETCH: u64 = 1 << 63;

fn encode_fetch(kg: u16, sub: u8, requester: InstId) -> u64 {
    TAG_FETCH | ((kg as u64) << 40) | ((sub as u64) << 32) | requester.0 as u64
}

fn decode_fetch(tag: u64) -> (KeyGroup, u8, InstId) {
    (
        KeyGroup(((tag >> 40) & 0xFFFF) as u16),
        ((tag >> 32) & 0xFF) as u8,
        InstId((tag & 0xFFFF_FFFF) as u32),
    )
}

/// The Meces mechanism.
pub struct MecesPlugin {
    op: Option<OpId>,
    started: bool,
    done: bool,
    /// Outstanding fetch requests: (requester, unit).
    requested: HashSet<(InstId, (u16, u8))>,
    /// Records orphaned mid-quantum, replayed when their unit returns.
    orphans: HashMap<InstId, Vec<Record>>,
    /// When each unit last arrived at its current holder. A freshly arrived
    /// unit is held for [`FETCH_HOLDOFF`] before a competing fetch may take
    /// it away, giving the holder time to drain its pending records —
    /// without this the hot units ping-pong forever without progress.
    arrived_at: HashMap<(u16, u8), SimTime>,
    /// How many times each unit has been fetched *back* by a non-final
    /// holder (the back-and-forth counter).
    fetch_back: HashMap<(u16, u8), u32>,
    timer_armed: bool,
}

impl Default for MecesPlugin {
    fn default() -> Self {
        Self::new()
    }
}

impl MecesPlugin {
    /// Meces with the paper's configuration.
    pub fn new() -> Self {
        Self {
            op: None,
            started: false,
            done: false,
            requested: HashSet::new(),
            orphans: HashMap::new(),
            arrived_at: HashMap::new(),
            fetch_back: HashMap::new(),
            timer_armed: false,
        }
    }

    /// Units (kg, sub) of a key under the world's hierarchy config.
    fn unit_of(w: &World, inst: InstId, key: u64) -> (KeyGroup, u8) {
        let kg = w.kg_of(key);
        let sub = w.insts[inst.0 as usize].state.sub_of(key);
        (kg, sub)
    }

    fn issue_fetch(&mut self, w: &mut World, requester: InstId, kg: KeyGroup, sub: u8) {
        let unit = (kg.0, sub);
        if self.requested.contains(&(requester, unit)) {
            return;
        }
        let row = w.scale.metrics.units.row(kg, sub);
        let Some(holder) = row.holder else {
            return;
        };
        if row.transit.is_some() || holder == requester {
            return; // already on the move (or arriving here): wait
        }
        if row.planned != Some(requester) {
            // A non-final holder pulling state back: back-and-forth.
            *self.fetch_back.entry(unit).or_insert(0) += 1;
        }
        self.requested.insert((requester, unit));
        w.send_priority(holder, PriorityMsg::Fetch { kg, sub, requester });
    }

    /// May `inst` still pull this unit back, or must it forward records?
    fn may_fetch_back(&self, w: &World, inst: InstId, kg: KeyGroup, sub: u8) -> bool {
        w.scale.metrics.units.row(kg, sub).planned == Some(inst)
            || self.fetch_back.get(&(kg.0, sub)).copied().unwrap_or(0) < MAX_FETCH_BACK
    }

    fn replay_orphans(&mut self, w: &mut World, inst: InstId) {
        let Some(buf) = self.orphans.get_mut(&inst) else {
            return;
        };
        if buf.is_empty() {
            return;
        }
        let pending = std::mem::take(buf);
        let mut still = Vec::new();
        for rec in pending {
            let (kg, sub) = Self::unit_of(w, inst, rec.key);
            if w.insts[inst.0 as usize].state.holds(kg, sub) {
                w.apply_record_basic(inst, rec);
            } else {
                still.push(rec);
            }
        }
        for rec in &still {
            let (kg, sub) = Self::unit_of(w, inst, rec.key);
            self.issue_fetch(w, inst, kg, sub);
        }
        self.orphans.insert(inst, still);
    }

    fn background_pump(&mut self, w: &mut World) {
        let mut moved = 0;
        // The ledger's rows are in unit order, so the units this pump
        // migrates never depend on anything but the run itself.
        for i in 0..w.scale.metrics.units.rows().len() {
            if moved >= BACKGROUND_BATCH {
                break;
            }
            let (kg, sub, row) = w.scale.metrics.units.at(i);
            let (Some(holder), None, Some(dest)) = (row.holder, row.transit, row.planned) else {
                continue;
            };
            if holder != dest && w.migrate_unit(holder, dest, kg, sub, SubscaleId(0)) {
                moved += 1;
            }
        }
    }

    fn serve_fetch(
        &mut self,
        w: &mut World,
        inst: InstId,
        kg: KeyGroup,
        sub: u8,
        requester: InstId,
    ) {
        // Serve the fetch if we still hold the unit; otherwise the requester
        // re-fetches when it observes the next install. A unit that only
        // just arrived is held briefly so the holder can make progress.
        if !w.insts[inst.0 as usize].state.holds(kg, sub) {
            return;
        }
        let now = w.now();
        let arrived = self.arrived_at.get(&(kg.0, sub)).copied().unwrap_or(0);
        let release_at = arrived + FETCH_HOLDOFF;
        if now < release_at {
            w.schedule_plugin(release_at - now, encode_fetch(kg.0, sub, requester));
            return;
        }
        w.migrate_unit(inst, requester, kg, sub, SubscaleId(0));
    }

    /// Does Meces select input at `inst` (a plan is active and `inst`
    /// belongs to the scaling operator)?
    fn selecting(&self, w: &World, inst: InstId) -> bool {
        self.active() && self.op == Some(w.insts[inst.0 as usize].op)
    }

    /// A migrated unit arrived at `inst`.
    fn on_chunk(&mut self, w: &mut World, inst: InstId, unit: StateUnit) {
        let key = (unit.kg.0, unit.sub);
        self.arrived_at.insert(key, w.now());
        w.install_unit(inst, unit, true);
        self.requested.retain(|&(_, u)| u != key);
        self.replay_orphans(w, inst);
        // Wake every scaling-operator instance: suspended peers may now
        // re-issue fetches for units that were in transit.
        if let Some(op) = self.op {
            for i in w.ops[op.0 as usize].instances.clone() {
                w.wake(i);
            }
        }
        self.check_done(w);
    }

    /// Records another instance forwarded to `inst`.
    fn on_rerouted_records(&mut self, w: &mut World, inst: InstId, records: Vec<Record>) {
        for rec in records {
            let (kg, sub) = Self::unit_of(w, inst, rec.key);
            if w.insts[inst.0 as usize].state.holds(kg, sub) {
                // Applied out-of-band relative to the instance's own queue:
                // this is where per-key order can break.
                w.apply_record_basic(inst, rec);
            } else {
                self.issue_fetch(w, inst, kg, sub);
                self.orphans.entry(inst).or_default().push(rec);
            }
        }
        w.wake(inst);
    }

    fn check_done(&mut self, w: &mut World) {
        if self.done || !self.started {
            return;
        }
        let settled = w.scale.metrics.units.outstanding() == 0;
        let orphans_empty = self.orphans.values().all(|v| v.is_empty());
        if settled && orphans_empty {
            self.done = true;
        }
    }
}

impl ScalePlugin for MecesPlugin {
    fn name(&self) -> &'static str {
        "Meces"
    }

    fn active(&self) -> bool {
        self.started && !self.done
    }

    fn on_scale_start(&mut self, w: &mut World, plan: &ScalePlan) {
        self.op = Some(plan.op);
        self.started = true;
        self.done = false;
        // Single synchronization: flip every predecessor's routing at once.
        w.reroute_plan(plan);
        let now = w.now();
        w.scale.metrics.inject_plan(&plan.moves, now);
        if !self.timer_armed {
            self.timer_armed = true;
            w.schedule_plugin(BACKGROUND_INTERVAL, TAG_BG);
        }
    }

    fn on_control(&mut self, w: &mut World, tag: u64) {
        if tag & TAG_FETCH != 0 {
            // A deferred fetch matured: serve it if we still hold the unit.
            let (kg, sub, requester) = decode_fetch(tag);
            let row = w.scale.metrics.units.row(kg, sub);
            if let (Some(holder), None) = (row.holder, row.transit) {
                if holder != requester {
                    self.serve_fetch(w, holder, kg, sub, requester);
                }
            }
            return;
        }
        if tag != TAG_BG {
            return;
        }
        if self.done {
            self.timer_armed = false;
            return;
        }
        self.background_pump(w);
        self.check_done(w);
        if !self.done {
            w.schedule_plugin(BACKGROUND_INTERVAL, TAG_BG);
        } else {
            self.timer_armed = false;
        }
    }

    fn on_priority(&mut self, w: &mut World, to: InstId, msg: PriorityMsg) {
        match msg {
            PriorityMsg::Chunk { unit, .. } => self.on_chunk(w, to, *unit),
            PriorityMsg::ReroutedRecords { records, .. } => {
                self.on_rerouted_records(w, to, records)
            }
            PriorityMsg::Fetch { kg, sub, requester } => {
                self.serve_fetch(w, to, kg, sub, requester)
            }
            PriorityMsg::Signal(_) | PriorityMsg::ReroutedConfirm { .. } => {}
        }
    }

    fn admit(&mut self, w: &mut World, inst: InstId, _ch: ChannelId, rec: &Record) -> bool {
        // Outside its selection Meces admits everything; its own runs take
        // only records whose unit is held here.
        if !self.selecting(w, inst) {
            return true;
        }
        let (kg, sub) = Self::unit_of(w, inst, rec.key);
        w.insts[inst.0 as usize].state.holds(kg, sub)
    }

    // Outside `selecting`, `admit` returns `true` with no side effect.
    fn admits_whole_run(&self, w: &World, inst: InstId) -> bool {
        !self.selecting(w, inst)
    }

    /// Active-channel selection (no scheduling buffer, per the paper), with
    /// Meces' record-forwarding path for units that exhausted their
    /// fetch-back budget.
    // See FlexScaler::select: the peek borrow must not span the body.
    #[allow(clippy::while_let_loop)]
    fn select(&mut self, w: &mut World, inst: InstId) -> Option<Selection> {
        if !self.selecting(w, inst) {
            return None;
        }
        let (n, start) = {
            let i = &w.insts[inst.0 as usize];
            (i.in_channels.len(), i.active_ch)
        };
        if n == 0 {
            return Some(Selection::Idle);
        }
        for k in 0..n {
            let idx = (start + k) % n;
            let ch = w.insts[inst.0 as usize].in_channels[idx];
            if w.chans[ch.0 as usize].holds > 0 {
                continue;
            }
            loop {
                // Copy the classification fields out of the peek so the
                // arena borrow ends before `w` is mutated below.
                let head = w
                    .chan_front(ch)
                    .map(|e| e.as_record().map(|r| (r.kind, r.key)));
                let Some(head) = head else {
                    break;
                };
                match head {
                    Some((kind, key)) => {
                        w.insts[inst.0 as usize].active_ch = idx;
                        let (kg, sub) = Self::unit_of(w, inst, key);
                        if kind == RecordKind::Marker
                            || w.insts[inst.0 as usize].state.holds(kg, sub)
                        {
                            return Some(w.build_run(self, inst, ch));
                        }
                        if let Some(dest) = w.scale.metrics.units.row(kg, sub).planned {
                            if self.may_fetch_back(w, inst, kg, sub) {
                                self.issue_fetch(w, inst, kg, sub);
                                return Some(Selection::Suspend);
                            }
                            // Forward to the owner (order no longer
                            // guaranteed — the Meces semantics gap).
                            let Some(StreamElement::Record(rec)) = w.chan_pop(ch) else {
                                unreachable!("front was a record")
                            };
                            w.send_priority(
                                dest,
                                PriorityMsg::ReroutedRecords {
                                    from: inst,
                                    records: vec![rec],
                                },
                            );
                            continue;
                        }
                        return Some(Selection::Suspend);
                    }
                    None => {
                        w.insts[inst.0 as usize].active_ch = idx;
                        let elem = w.chan_pop(ch).expect("non-empty");
                        return Some(Selection::Control(ch, elem));
                    }
                }
            }
        }
        Some(Selection::Idle)
    }

    fn on_orphan_record(&mut self, w: &mut World, inst: InstId, rec: &Record) -> bool {
        // The unit left between admission and application.
        let (kg, sub) = Self::unit_of(w, inst, rec.key);
        if self.may_fetch_back(w, inst, kg, sub) {
            // Buffer and fetch the state back — the back-and-forth path.
            self.orphans.entry(inst).or_default().push(rec.clone());
            self.issue_fetch(w, inst, kg, sub);
        } else if let Some(dest) = w.scale.metrics.units.row(kg, sub).planned {
            w.send_priority(
                dest,
                PriorityMsg::ReroutedRecords {
                    from: inst,
                    records: vec![rec.clone()],
                },
            );
        }
        true
    }
}
