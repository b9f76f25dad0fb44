//! The mechanism engine: a single [`FlexScaler`] implements DRRS, its three
//! ablation variants, generalized OTFS and Megaphone, differing only in
//! [`MechanismConfig`] axes — mirroring how the paper implements all
//! mechanisms inside one Flink fork for fair comparison.
//!
//! The DRRS-specific machinery (paper §III):
//!
//! * **Decoupling & Re-routing** — trigger barriers travel as priority
//!   messages straight to the old instance and start migration immediately;
//!   confirm barriers jump the sender's output backlog (records of moving
//!   key-groups bypassed there are redirected, order-preserved, onto the new
//!   instance's channel = epoch `Ef`), then travel in-order; the old
//!   instance re-routes post-extraction records (`Ep`) and finally the
//!   confirm itself to the new instance, giving implicit alignment with no
//!   input blocking.
//! * **Record Scheduling** — inter-channel switching plus intra-channel
//!   bypass within a bounded buffer, never crossing watermarks, checkpoint
//!   barriers or scale signals; one scan of a channel returns one run.
//! * **Subscale Division** — independent subscales scheduled greedily with a
//!   per-instance concurrency threshold.
//!
//! # Cost model
//!
//! Record Scheduling runs on every record while a plan is active, so it is
//! O(1) amortised per record and hashes nothing.
//!
//! **One scan per channel.** A selection at an instance of the scaling
//! operator scans its input channels in turn, each once, from the head or
//! from behind the channel's hold hint (below). The scan buffers `Reroute`
//! records, takes `Process` records in queue order into one run and, with
//! Record Scheduling (`sched_buffer > 0`), skips `Hold` records. It stops
//! at both quantum caps, at the end of the `sched_buffer` window and at
//! the first fence. §III-B's scheduler picks processable records out of a
//! bounded buffer; that one decision yields a run of them rather than a
//! single record is the simulator's choice, and it pays one quantum's
//! per-run cost for the lot. Per-key order holds: a classification is per
//! (instance, sender, key-group) and nothing changes it within one scan,
//! so no record is taken past a held one of its key. Without Record
//! Scheduling a held head suspends the instance and a run ends at its
//! first record that is not `Process`.
//!
//! **What `class_of` reads.** The record's kind and key; the per-plan
//! tables `kg2sub`, the subscale's phase and endpoints, `pred_mask`; the
//! instance's `StateBackend::holds_group` (changed only by extraction and
//! installation, both driven from here); the inbox count `inbox_kg` of
//! `(instance, key-group)`; and the subscale's confirm bookkeeping. It
//! reads no `World::scale` field. All of them are arrays indexed by
//! `InstId.0`, by key-group or by `inst * max_key_groups + kg`, sized when
//! the plan starts and grown on demand. `select` answers for instances of
//! other operators before touching any of them.
//!
//! **The epochs.** A record is `Hold` only at its subscale's destination,
//! and only while the subscale is launched and the destination lacks the
//! key-group's state, has re-routed records of it in its inbox or (when
//! decoupled) misses a confirm. Each instance has an epoch, bumped at the
//! three transitions that can end one of those there: a unit installed
//! (`on_chunk`), records leaving its inbox and a re-routed confirm
//! arriving. A plan starting drops every hint. Every other transition (a
//! launch, an extraction, records entering an inbox, a subscale or the
//! scale finishing, an alignment completing) can only turn records into
//! `Hold` or change records that are not, so between two bumps of an
//! instance's epoch every record `class_of` held there stays held.
//!
//! **What a hold hint certifies.** The scan remembers, per input channel,
//! the length `len` of the queue prefix it has proven to be data records
//! all classified `Hold` (hence free of fences), the receiving instance's
//! epoch it proved that under, and the arena handles at positions `0` and
//! `len - 1`. The next scan of that channel resumes at `len` instead of 0
//! when the epoch is unchanged and both handles are still where they were.
//! Identity at the two ends suffices because a receiver queue is only ever
//! appended to at the back and popped/removed from inside: arena handles
//! are generational, so a live handle names one element and occurs once;
//! any removal at a position below `len` shifts the element at `len - 1`
//! down (or off the queue), so finding it in place proves nothing below it
//! left, and appends beyond `len` are exactly what the resumed scan goes on
//! to classify. A fence stops the scan and is never covered by a hint. In
//! debug builds every scan re-classifies the prefix it leaves a hint over
//! from position 0 and asserts it: a scan that never resumes, kept as the
//! always-on test oracle.

use std::collections::VecDeque;

use simcore::SimTime;
use streamflow::events::PriorityMsg;
use streamflow::ids::{ChannelId, InstId, KeyGroup, OpId, SubscaleId};
use streamflow::record::{Record, RecordKind, RecordRef, ScaleSignal, SignalKind, StreamElement};
use streamflow::scaling::{ScalePlan, ScalePlugin, Selection};
use streamflow::state::StateUnit;
use streamflow::world::{BarrierKey, World};

use crate::config::{Injection, MechanismConfig};
use crate::planner::{divide_subscales, greedy_pick, ActiveCounts, SubscaleSpec};

const TAG_FLUSH: u64 = 1;

/// `kg2sub` entry of a key-group the current plan leaves where it is.
const NO_SUB: u32 = u32::MAX;

#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
enum Phase {
    #[default]
    Pending,
    Launched,
    Done,
}

/// Run-time state of one subscale; its [`SubscaleSpec`] sits at the same
/// index of `FlexScaler::specs`.
#[derive(Default)]
struct Sub {
    phase: Phase,
    /// Decoupled: first trigger barrier already acted on.
    triggered: bool,
    /// Key-groups awaiting extraction, pumped one at a time.
    mig_queue: VecDeque<KeyGroup>,
    /// Key-groups fully installed at the destination.
    installed: usize,
    /// Decoupled: per predecessor (`InstId.0`), confirms still to be
    /// re-routed. Empty for coupled mechanisms.
    confirms_pending: Vec<u32>,
    /// Sum of `confirms_pending`.
    confirms_left: u32,
    /// Per predecessor (`InstId.0`): its confirms have fully arrived at the
    /// destination (per-channel epoch switching = "fluid confirmation").
    confirmed: Vec<bool>,
}

/// How a data record at a scaling-operator instance is classified.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    /// Locally processable right now.
    Process,
    /// State migrated out: forward to the new owner (DRRS re-routing).
    Reroute(InstId),
    /// Not yet processable at the new owner (state or confirm missing).
    Hold,
}

/// What the last scan of one input channel proved (see the
/// module docs, "Cost model").
#[derive(Clone, Copy)]
struct HoldHint {
    /// The instance's epoch the prefix was classified under.
    epoch: u64,
    /// Queue positions `0..len` are data records classified `Hold`.
    len: usize,
    /// Arena handle at position 0.
    first: RecordRef,
    /// Arena handle at position `len - 1`.
    last: RecordRef,
}

/// Deterministic cost counters of Record Scheduling, cumulative over the
/// plugin's lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Input selections made for instances of the scaling operator.
    pub selects: u64,
    /// Channel scans whose head record was held (resumed behind a hint or
    /// classified `Hold`): the intra-channel bypasses, each of which
    /// leaves a hold hint.
    pub scans: u64,
    /// Queue positions channel scans examined: the records they classified
    /// plus the fences that stopped them.
    pub scan_positions: u64,
    /// Scans that resumed behind a still-valid hold hint.
    pub hint_resumes: u64,
    /// Runs that took a record past a held one.
    pub bypass_runs: u64,
}

/// `table[i]`, first growing the table with `fill` if `i` is past its end.
fn slot<T: Clone>(table: &mut Vec<T>, i: usize, fill: T) -> &mut T {
    if i >= table.len() {
        table.resize(i + 1, fill);
    }
    &mut table[i]
}

/// The configurable scaling mechanism. See module docs.
pub struct FlexScaler {
    /// Active configuration.
    pub cfg: MechanismConfig,
    op: Option<OpId>,
    started: bool,
    done: bool,
    /// The plan's subscales as the planner divided them.
    specs: Vec<SubscaleSpec>,
    /// Their run-time state, index for index.
    subs: Vec<Sub>,
    /// Key-group → index of the subscale moving it, or [`NO_SUB`].
    kg2sub: Vec<u32>,
    pending: Vec<usize>,
    active_cnt: ActiveCounts,
    /// By `InstId.0`: feeds a keyed input of the scaling operator.
    pred_mask: Vec<bool>,
    /// Re-route Manager buffers, one per `(old, new)` pair ever used, kept
    /// in key order (the canonical flush order).
    rbuf: Vec<((InstId, InstId), Vec<Record>)>,
    /// By `InstId.0`: new-instance inbox of re-routed `Ep` records.
    inbox: Vec<VecDeque<Record>>,
    /// By `inst * max_key_groups + kg`: outstanding inbox records — gates
    /// `Ef`.
    inbox_kg: Vec<u32>,
    timer_armed: bool,
    /// By `InstId.0`: bumped whenever a record held at the instance may be
    /// held no longer (module docs, "The epochs").
    epochs: Vec<u64>,
    /// By `ChannelId.0`: what the last scan of the channel proved.
    hints: Vec<Option<HoldHint>>,
    stats: SchedStats,
}

impl FlexScaler {
    /// Create a mechanism with the given configuration.
    pub fn new(cfg: MechanismConfig) -> Self {
        Self {
            cfg,
            op: None,
            started: false,
            done: false,
            specs: Vec::new(),
            subs: Vec::new(),
            kg2sub: Vec::new(),
            pending: Vec::new(),
            active_cnt: ActiveCounts::new(),
            pred_mask: Vec::new(),
            rbuf: Vec::new(),
            inbox: Vec::new(),
            inbox_kg: Vec::new(),
            timer_armed: false,
            epochs: Vec::new(),
            hints: Vec::new(),
            stats: SchedStats::default(),
        }
    }

    /// Full DRRS with defaults.
    pub fn drrs() -> Self {
        Self::new(MechanismConfig::drrs())
    }

    /// Has the scale finished end to end (all subscales done, re-route
    /// buffers and inboxes drained)?
    pub fn finished(&self) -> bool {
        self.done
    }

    /// The Record Scheduling cost counters so far.
    pub fn sched_stats(&self) -> SchedStats {
        self.stats
    }

    fn sub_of_kg(&self, kg: KeyGroup) -> Option<usize> {
        match self.kg2sub.get(kg.0 as usize) {
            Some(&si) if si != NO_SUB => Some(si as usize),
            _ => None,
        }
    }

    fn is_pred(&self, inst: InstId) -> bool {
        self.pred_mask.get(inst.0 as usize) == Some(&true)
    }

    /// A record `class_of` held at `inst` may be held no longer: every
    /// hold hint of a channel into `inst` is stale.
    fn bump_epoch(&mut self, inst: InstId) {
        *slot(&mut self.epochs, inst.0 as usize, 0) += 1;
    }

    fn epoch_of(&self, inst: InstId) -> u64 {
        self.epochs.get(inst.0 as usize).copied().unwrap_or(0)
    }

    // ------------------------------------------------------------------
    // Launching
    // ------------------------------------------------------------------

    fn launch_ready(&mut self, w: &mut World) {
        while !self.pending.is_empty() {
            let si = if self.cfg.sequential {
                // One subscale at a time, in plan order.
                if self.subs.iter().any(|s| s.phase == Phase::Launched) {
                    break;
                }
                self.pending.remove(0)
            } else {
                let held = |i: InstId| w.insts[i.0 as usize].state.total_keys();
                let Some(si) = greedy_pick(
                    &self.pending,
                    &self.specs,
                    &held,
                    &self.active_cnt,
                    self.cfg.concurrency_limit,
                ) else {
                    break;
                };
                self.pending.retain(|&x| x != si);
                si
            };
            self.launch(w, si);
        }
    }

    fn launch(&mut self, w: &mut World, si: usize) {
        let now = w.now();
        let op = self.op.expect("launch after start");
        self.subs[si].phase = Phase::Launched;
        let spec = &self.specs[si];
        *self.active_cnt.entry(spec.from).or_insert(0) += 1;
        *self.active_cnt.entry(spec.to).or_insert(0) += 1;
        w.scale.metrics.injected.insert(SubscaleId(si as u32), now);
        if !self.cfg.sequential {
            for &kg in &spec.kgs {
                w.scale.metrics.units.inject(kg, now);
            }
        }
        match self.cfg.injection {
            Injection::Predecessor => self.inject_at_preds(w, op, si),
            Injection::Source => self.inject_at_sources(w, op, si),
        }
    }

    fn signal(&self, si: usize, kind: SignalKind, pred: InstId) -> ScaleSignal {
        ScaleSignal {
            subscale: SubscaleId(si as u32),
            kind,
            from_pred: pred,
        }
    }

    fn inject_at_preds(&mut self, w: &mut World, op: OpId, si: usize) {
        let (from, to) = (self.specs[si].from, self.specs[si].to);
        // Copy the cached edge list: the loop below mutates routing state.
        let edges = w.keyed_in_edges(op).to_vec();
        for e in edges {
            let from_op = w.edges[e.0 as usize].from;
            let pred_insts = w.ops[from_op.0 as usize].instances.clone();
            for pred in pred_insts {
                // Routing confirmation point: future emissions go to `to`.
                w.reroute_groups(op, pred, &self.specs[si].kgs, to);
                let Some(ch_old) = w.channel_between(e, pred, from) else {
                    continue;
                };
                let ch_new = w
                    .channel_between(e, pred, to)
                    .expect("channel to new instance wired at deploy");
                if self.cfg.decouple {
                    // Confirm barrier is priority *in the output cache*: the
                    // moving-key-group records it bypasses are redirected to
                    // the new instance's channel, order preserved (epoch Ef).
                    // Redirection concludes at any in-flight checkpoint
                    // barrier (paper Fig. 9a) to keep snapshot consistency.
                    // Only arena handles move between the two backlogs.
                    let mut moved = Vec::new();
                    w.chans[ch_old.0 as usize].drain_backlog_matching_until(
                        &w.arena,
                        |el| {
                            el.as_record().is_some_and(|r| {
                                r.kind == RecordKind::Data
                                    && self.sub_of_kg(w_kg(r.key, &w.cfg)) == Some(si)
                            })
                        },
                        |el| matches!(el, StreamElement::CheckpointBarrier(_)),
                        &mut moved,
                    );
                    for el in moved {
                        w.chans[ch_new.0 as usize].backlog.push_back(el);
                    }
                    w.pump(ch_new);
                    w.pump(ch_old);
                    // Trigger barrier: priority end-to-end.
                    let trig = self.signal(si, SignalKind::Trigger, pred);
                    w.send_priority(from, PriorityMsg::Signal(trig));
                    // Confirm barrier: skips the backlog, in-order on the
                    // wire and at the receiver.
                    let conf = self.signal(si, SignalKind::Confirm, pred);
                    w.send_uncredited(ch_old, StreamElement::Scale(conf));
                    let s = &mut self.subs[si];
                    *slot(&mut s.confirms_pending, pred.0 as usize, 0) += 1;
                    s.confirms_left += 1;
                } else {
                    // Coupled barrier: strictly in-band (through the backlog).
                    let sig = self.signal(si, SignalKind::Coupled, pred);
                    w.send(ch_old, StreamElement::Scale(sig));
                }
            }
        }
    }

    fn inject_at_sources(&mut self, w: &mut World, op: OpId, si: usize) {
        // Conventional source injection: barriers ride the dataflow from the
        // sources, aligned and forwarded at every intermediate operator.
        let to = self.specs[si].to;
        let source_insts: Vec<InstId> = w
            .insts
            .iter()
            .filter(|i| i.source.is_some())
            .map(|i| i.id)
            .collect();
        for srci in source_insts {
            // A source that directly feeds the scaling operator acts as the
            // predecessor: flip routing when the barrier is emitted.
            if self.is_pred(srci) {
                w.reroute_groups(op, srci, &self.specs[si].kgs, to);
            }
            let sig = self.signal(si, SignalKind::Coupled, srci);
            for ch in w.insts[srci.0 as usize].out_channels.clone() {
                w.send(ch, StreamElement::Scale(sig));
            }
        }
    }

    // ------------------------------------------------------------------
    // Migration pump (one key-group in flight per subscale)
    // ------------------------------------------------------------------

    fn pump_migration(&mut self, w: &mut World, si: usize) {
        let Some(next) = self.subs[si].mig_queue.pop_front() else {
            return;
        };
        let (from, to) = (self.specs[si].from, self.specs[si].to);
        if self.cfg.sequential {
            // Megaphone's timestamp-driven plan announces every unit at the
            // start; record the governing injection lazily at first touch.
            // Every unit of a key-group is injected together, so its first
            // unit answers for all of them.
            if w.scale.metrics.units.row(next, 0).injected.is_none() {
                let t = w.scale.metrics.deployed_at.unwrap_or_else(|| w.now());
                w.scale.metrics.units.inject(next, t);
            }
        }
        w.migrate_group(from, to, next, SubscaleId(si as u32));
    }

    fn start_migration(&mut self, w: &mut World, si: usize) {
        self.subs[si].mig_queue = self.specs[si].kgs.iter().copied().collect();
        self.pump_migration(w, si);
    }

    // ------------------------------------------------------------------
    // Re-route Manager (paper component B4)
    // ------------------------------------------------------------------

    // checker:hot-path
    fn buffer_reroute(&mut self, w: &mut World, old: InstId, to: InstId, rec: Record) {
        let i = self.rbuf_slot(old, to);
        let buf = &mut self.rbuf[i].1;
        buf.push(rec);
        if buf.len() >= self.cfg.reroute_batch {
            self.flush_rbuf_at(w, i);
        }
    }

    /// Index of the `(old, to)` buffer in `rbuf`, opened (empty, in key
    /// order) by the first record ever re-routed between the pair.
    fn rbuf_slot(&mut self, old: InstId, to: InstId) -> usize {
        match self.rbuf.binary_search_by_key(&(old, to), |e| e.0) {
            Ok(i) => i,
            Err(i) => {
                self.rbuf.insert(i, ((old, to), Vec::new()));
                i
            }
        }
    }

    fn flush_rbuf_at(&mut self, w: &mut World, i: usize) {
        let ((old, to), buf) = &mut self.rbuf[i];
        if buf.is_empty() {
            return;
        }
        let records = std::mem::take(buf);
        w.send_priority(
            *to,
            PriorityMsg::ReroutedRecords {
                from: *old,
                records,
            },
        );
    }

    fn flush_rbuf(&mut self, w: &mut World, old: InstId, to: InstId) {
        if let Ok(i) = self.rbuf.binary_search_by_key(&(old, to), |e| e.0) {
            self.flush_rbuf_at(w, i);
        }
    }

    /// Flush every buffer, in `(old, new)` order: the priority sends
    /// scheduled here tie-break FIFO in the event queue, so the order is
    /// part of the interleaving (same-seed reproducibility).
    fn flush_all(&mut self, w: &mut World) {
        for i in 0..self.rbuf.len() {
            self.flush_rbuf_at(w, i);
        }
    }

    // ------------------------------------------------------------------
    // Classification
    // ------------------------------------------------------------------

    /// How `rec`, which came from `ch_from`, is classified at `inst`.
    // checker:hot-path
    #[inline]
    fn class_of(&self, w: &World, inst: InstId, ch_from: InstId, rec: &Record) -> Class {
        if rec.kind == RecordKind::Marker {
            return Class::Process;
        }
        let kg = w.kg_of(rec.key);
        let Some(si) = self.sub_of_kg(kg) else {
            return Class::Process; // not a moving key-group
        };
        let s = &self.subs[si];
        if s.phase == Phase::Pending {
            return Class::Process; // not yet launched: state is where it was
        }
        let spec = &self.specs[si];
        let held = w.insts[inst.0 as usize].state.holds_group(kg);
        if inst == spec.to {
            if !held {
                return Class::Hold;
            }
            // Inbox ordering: re-routed Ep records of this key-group must
            // drain before Ef records are admitted.
            let in_inbox = inst.0 as usize * w.cfg.max_key_groups as usize + kg.0 as usize;
            if self.inbox_kg.get(in_inbox).is_some_and(|&n| n > 0) {
                return Class::Hold;
            }
            if self.cfg.decouple {
                // Implicit alignment: per-channel epoch switch when Record
                // Scheduling is on ("fluid confirmation"), strict otherwise.
                let ok = if self.cfg.sched_buffer > 0 {
                    s.confirmed.get(ch_from.0 as usize) == Some(&true) || !self.is_pred(ch_from)
                } else {
                    s.confirms_left == 0
                };
                if !ok {
                    return Class::Hold;
                }
            }
            Class::Process
        } else if inst == spec.from {
            if held {
                Class::Process // still awaiting its migration turn (Fig. 4b)
            } else {
                Class::Reroute(spec.to)
            }
        } else {
            Class::Process
        }
    }

    // ------------------------------------------------------------------
    // Selection (Record Scheduling)
    // ------------------------------------------------------------------

    // checker:hot-path
    fn take_inbox_run(&mut self, w: &mut World, inst: InstId) -> Option<Selection> {
        let q = self.inbox.get_mut(inst.0 as usize)?;
        let kgs = w.cfg.max_key_groups as usize;
        let price = w.service_of(inst);
        let mut run: Option<Vec<Record>> = None;
        let mut service: SimTime = 0;
        while let Some(front) = q.front() {
            let kg = w.kg_of(front.key);
            if !w.insts[inst.0 as usize].state.holds_group(kg) {
                break; // state still in transit: inbox is strictly FIFO
            }
            let taken = run.as_ref().map_or(0, Vec::len);
            if taken >= w.cfg.quantum_records || service >= w.cfg.quantum_time {
                break;
            }
            let rec = q.pop_front().expect("non-empty");
            if let Some(c) = self.inbox_kg.get_mut(inst.0 as usize * kgs + kg.0 as usize) {
                *c = c.saturating_sub(1);
            }
            service += rec.service(price);
            run.get_or_insert_with(|| w.take_run_buf()).push(rec);
        }
        let records = run?;
        self.bump_epoch(inst);
        Some(Selection::Run { records, service })
    }

    // checker:hot-path
    fn flex_select(&mut self, w: &mut World, inst: InstId) -> Selection {
        self.stats.selects += 1;
        // Re-routed records are special events, exempt from suspension.
        if let Some(run) = self.take_inbox_run(w, inst) {
            return run;
        }
        let (n, start) = {
            let i = &w.insts[inst.0 as usize];
            (i.in_channels.len(), i.active_ch)
        };
        let mut held = false;
        for k in 0..n {
            let idx = (start + k) % n;
            let ch = w.insts[inst.0 as usize].in_channels[idx];
            if w.chans[ch.0 as usize].holds > 0 {
                continue;
            }
            match self.scan(w, inst, ch, &mut held) {
                Some(sel) => {
                    w.insts[inst.0 as usize].active_ch = idx;
                    return sel;
                }
                // Active-channel discipline without Record Scheduling: a
                // held head suspends. With it, try the next channel
                // (inter-channel switching).
                None if held && self.cfg.sched_buffer == 0 => return Selection::Suspend,
                None => {}
            }
        }
        if held {
            Selection::Suspend
        } else {
            Selection::Idle
        }
    }

    /// One selection scan of `ch` (module docs, "Cost model"): from the
    /// head, or behind the channel's hold hint while it is valid, buffer
    /// `Reroute` records and take `Process` records in queue order into
    /// one run, up to both quantum caps and never past a fence. With
    /// Record Scheduling it skips `Hold` records within the first
    /// `sched_buffer` positions and leaves a hint over them; without, a
    /// run ends at its first record that is not `Process`. Returns the
    /// run, or the control element at the head, or `None` when it took
    /// neither; sets `held` when the head is a held record.
    // checker:hot-path
    fn scan(
        &mut self,
        w: &mut World,
        inst: InstId,
        ch: ChannelId,
        held: &mut bool,
    ) -> Option<Selection> {
        let from = w.chans[ch.0 as usize].from;
        let bypass = self.cfg.sched_buffer > 0;
        let (window, mut pos) = if bypass {
            (self.cfg.sched_buffer, self.resume_pos(w, inst, ch))
        } else {
            (usize::MAX, 0)
        };
        let (max_records, max_time) = (w.cfg.quantum_records, w.cfg.quantum_time);
        let price = w.service_of(inst);
        let mut run: Option<Vec<Record>> = None;
        let mut service: SimTime = 0;
        let mut bypassed = false;
        loop {
            let queue = &w.chans[ch.0 as usize].queue;
            let taken = run.as_ref().map_or(0, Vec::len);
            if pos >= window.min(queue.len()) || taken >= max_records || service >= max_time {
                break;
            }
            self.stats.scan_positions += 1;
            // Watermarks, checkpoint barriers and scale signals are
            // scheduling fences (paper §III-B).
            let StreamElement::Record(r) = &w.arena[queue[pos]] else {
                if pos == 0 && run.is_none() {
                    return w.chan_pop(ch).map(|el| Selection::Control(ch, el));
                }
                break;
            };
            match self.class_of(w, inst, from, r) {
                Class::Process => {
                    let Some(StreamElement::Record(rec)) = w.chan_remove_at(ch, pos) else {
                        unreachable!("checked record")
                    };
                    service += rec.service(price);
                    bypassed |= pos > 0;
                    run.get_or_insert_with(|| w.take_run_buf()).push(rec);
                }
                // Without Record Scheduling a run ends at its first record
                // that is not `Process`.
                Class::Reroute(_) if !bypass && run.is_some() => break,
                Class::Reroute(to) => {
                    let Some(StreamElement::Record(rec)) = w.chan_remove_at(ch, pos) else {
                        unreachable!("checked record")
                    };
                    self.buffer_reroute(w, inst, to, rec);
                }
                Class::Hold => {
                    pos += 1;
                    if !bypass {
                        break;
                    }
                }
            }
        }
        *held |= pos > 0;
        if bypass {
            self.stats.scans += u64::from(pos > 0);
            self.leave_hint(w, inst, ch, pos);
            if cfg!(debug_assertions) {
                self.assert_prefix_holds(w, inst, ch, pos);
            }
        }
        let records = run?;
        self.stats.bypass_runs += u64::from(bypassed);
        Some(Selection::Run { records, service })
    }

    /// Where the scan of `ch` starts: behind the prefix its hint certifies,
    /// or at the head.
    // checker:hot-path
    #[inline]
    fn resume_pos(&mut self, w: &World, inst: InstId, ch: ChannelId) -> usize {
        let queue = &w.chans[ch.0 as usize].queue;
        match self.hints.get(ch.0 as usize) {
            Some(Some(h))
                if h.epoch == self.epoch_of(inst)
                    && queue.front() == Some(&h.first)
                    && queue.get(h.len - 1) == Some(&h.last) =>
            {
                self.stats.hint_resumes += 1;
                h.len
            }
            _ => 0,
        }
    }

    /// Record that positions `0..len` of `ch` are records classified `Hold`
    /// under `inst`'s current epoch (no hint when `len` is 0).
    // checker:hot-path
    #[inline]
    fn leave_hint(&mut self, w: &World, inst: InstId, ch: ChannelId, len: usize) {
        let queue = &w.chans[ch.0 as usize].queue;
        let hint = (len > 0).then(|| HoldHint {
            epoch: self.epoch_of(inst),
            len,
            first: queue[0],
            last: queue[len - 1],
        });
        *slot(&mut self.hints, ch.0 as usize, None) = hint;
    }

    /// The hint's oracle: classify positions `0..len` of `ch` from scratch
    /// and require records, all `Hold`.
    fn assert_prefix_holds(&self, w: &World, inst: InstId, ch: ChannelId, len: usize) {
        let from = w.chans[ch.0 as usize].from;
        for pos in 0..len {
            let class = w
                .chan_peek(ch, pos)
                .and_then(StreamElement::as_record)
                .map(|r| self.class_of(w, inst, from, r));
            assert_eq!(
                class,
                Some(Class::Hold),
                "hold hint wrong at position {pos} of {len} on {ch:?} at {inst} (epoch {})",
                self.epoch_of(inst)
            );
        }
    }

    // ------------------------------------------------------------------
    // Completion
    // ------------------------------------------------------------------

    fn maybe_finish_subscale(&mut self, w: &mut World, si: usize) {
        let s = &mut self.subs[si];
        if s.phase != Phase::Launched || s.installed < self.specs[si].kgs.len() {
            return;
        }
        s.phase = Phase::Done;
        for end in [self.specs[si].from, self.specs[si].to] {
            if let Some(c) = self.active_cnt.get_mut(&end) {
                *c = c.saturating_sub(1);
            }
        }
        self.launch_ready(w);
        self.check_done(w);
    }

    fn check_done(&mut self, w: &mut World) {
        if self.done || !self.started {
            return;
        }
        let subs_done = self.subs.iter().all(|s| s.phase == Phase::Done);
        let confirms_done = self.subs.iter().all(|s| s.confirms_left == 0);
        let buffers_empty =
            self.rbuf.iter().all(|b| b.1.is_empty()) && self.inbox.iter().all(|q| q.is_empty());
        if subs_done && confirms_done && buffers_empty && !w.scale.in_progress {
            self.done = true;
            // Wake everything once so suspended instances re-evaluate under
            // the engine's default selection.
            let ids: Vec<InstId> = self
                .op
                .map(|op| w.ops[op.0 as usize].instances.clone())
                .unwrap_or_default();
            for i in ids {
                w.wake(i);
            }
        }
    }
}

impl ScalePlugin for FlexScaler {
    fn name(&self) -> &'static str {
        self.cfg.name
    }

    fn active(&self) -> bool {
        self.started && !self.done
    }

    fn on_scale_start(&mut self, w: &mut World, plan: &ScalePlan) {
        debug_assert!(
            !(self.cfg.decouple && self.cfg.injection == Injection::Source),
            "decoupled signals require predecessor injection"
        );
        self.op = Some(plan.op);
        self.started = true;
        self.done = false;
        self.hints.clear();
        // Every instance the plan touches exists by now: the engine creates
        // the new ones before it announces the deployment.
        self.pred_mask.clear();
        self.pred_mask.resize(w.insts.len(), false);
        for &p in w.predecessors(plan.op) {
            *slot(&mut self.pred_mask, p.0 as usize, false) = true;
        }
        self.specs = divide_subscales(&plan.moves, self.cfg.subscale_count);
        self.subs = self.specs.iter().map(|_| Sub::default()).collect();
        self.kg2sub.clear();
        self.kg2sub.resize(w.cfg.max_key_groups as usize, NO_SUB);
        for (i, spec) in self.specs.iter().enumerate() {
            for kg in &spec.kgs {
                *slot(&mut self.kg2sub, kg.0 as usize, NO_SUB) = i as u32;
            }
        }
        self.pending = (0..self.subs.len()).collect();
        self.active_cnt.clear();
        if self.subs.is_empty() {
            self.done = true;
            return;
        }
        if !self.timer_armed {
            self.timer_armed = true;
            let t = self.cfg.reroute_timeout;
            w.schedule_plugin(t, TAG_FLUSH);
        }
        self.launch_ready(w);
    }

    fn on_control(&mut self, w: &mut World, tag: u64) {
        if tag == TAG_FLUSH {
            if self.done {
                self.timer_armed = false;
                return;
            }
            self.flush_all(w);
            let t = self.cfg.reroute_timeout;
            w.schedule_plugin(t, TAG_FLUSH);
        }
    }

    fn on_priority(&mut self, w: &mut World, to: InstId, msg: PriorityMsg) {
        match msg {
            PriorityMsg::Signal(sig) => self.on_trigger(w, to, sig),
            PriorityMsg::Chunk { unit, subscale, .. } => self.on_chunk(w, to, *unit, subscale),
            PriorityMsg::ReroutedRecords { records, .. } => {
                self.on_rerouted_records(w, to, records)
            }
            PriorityMsg::ReroutedConfirm { signal, .. } => self.on_rerouted_confirm(w, to, signal),
            PriorityMsg::Fetch { .. } => {}
        }
    }

    fn on_signal(&mut self, w: &mut World, inst: InstId, ch: ChannelId, sig: ScaleSignal) {
        let si = sig.subscale.0 as usize;
        match sig.kind {
            SignalKind::Confirm => {
                // Arrived in-order at the *old* instance: all Ep records
                // from this predecessor are already consumed. Flush the
                // re-route buffer, then re-route the confirm itself.
                if si < self.subs.len() && inst == self.specs[si].from {
                    let to = self.specs[si].to;
                    self.flush_rbuf(w, inst, to);
                    w.send_priority(
                        to,
                        PriorityMsg::ReroutedConfirm {
                            from: inst,
                            signal: sig,
                        },
                    );
                }
            }
            SignalKind::Coupled => self.on_coupled(w, inst, ch, sig),
            // A trigger is sent only as a priority message (`on_priority`).
            SignalKind::Trigger => unreachable!("in-band trigger barrier"),
        }
    }

    fn on_orphan_record(&mut self, w: &mut World, inst: InstId, rec: &Record) -> bool {
        // A run took this record before its key-group was extracted
        // (triggers bypass in-flight work). Re-route it like any other Ep
        // record.
        let kg = w.kg_of(rec.key);
        if let Some(si) = self.sub_of_kg(kg) {
            if inst == self.specs[si].from {
                let to = self.specs[si].to;
                self.buffer_reroute(w, inst, to, rec.clone());
                return true;
            }
        }
        false
    }

    fn select(&mut self, w: &mut World, inst: InstId) -> Option<Selection> {
        self.selecting(w, inst).then(|| self.flex_select(w, inst))
    }
}

impl FlexScaler {
    /// Does the scaler select input at `inst` (a plan is active and `inst`
    /// belongs to the scaling operator)?
    fn selecting(&self, w: &World, inst: InstId) -> bool {
        self.started && !self.done && self.op == Some(w.insts[inst.0 as usize].op)
    }

    /// A trigger barrier arrived at `inst` as a priority message: the
    /// subscale's source starts migrating.
    fn on_trigger(&mut self, w: &mut World, inst: InstId, sig: ScaleSignal) {
        debug_assert_eq!(sig.kind, SignalKind::Trigger);
        let si = sig.subscale.0 as usize;
        if si < self.subs.len() && !self.subs[si].triggered && inst == self.specs[si].from {
            self.subs[si].triggered = true;
            self.start_migration(w, si);
        }
    }

    /// Re-routed `Ep` records arrived at the new instance `inst`.
    fn on_rerouted_records(&mut self, w: &mut World, inst: InstId, records: Vec<Record>) {
        let kgs = w.cfg.max_key_groups as usize;
        let inbox = slot(&mut self.inbox, inst.0 as usize, VecDeque::new());
        for rec in records {
            let kg = w.kg_of(rec.key);
            *slot(&mut self.inbox_kg, inst.0 as usize * kgs + kg.0 as usize, 0) += 1;
            inbox.push_back(rec);
        }
        w.wake(inst);
    }

    /// A re-routed confirm barrier arrived at the new instance `inst`.
    fn on_rerouted_confirm(&mut self, w: &mut World, inst: InstId, sig: ScaleSignal) {
        let si = sig.subscale.0 as usize;
        if si >= self.subs.len() {
            return;
        }
        let pred = sig.from_pred.0 as usize;
        let s = &mut self.subs[si];
        let c = slot(&mut s.confirms_pending, pred, 0);
        if *c > 0 {
            *c -= 1;
            s.confirms_left -= 1;
        }
        if *c == 0 {
            *slot(&mut s.confirmed, pred, false) = true;
        }
        self.bump_epoch(inst);
        w.wake(inst);
        self.check_done(w);
    }

    /// A migrated unit of `subscale` arrived at `inst`.
    fn on_chunk(&mut self, w: &mut World, inst: InstId, unit: StateUnit, subscale: SubscaleId) {
        let si = subscale.0 as usize;
        let kg = unit.kg;
        w.install_unit(inst, unit, true);
        self.bump_epoch(inst);
        if si < self.subs.len() {
            let fully = w.insts[inst.0 as usize].state.holds_group(kg);
            if fully {
                self.subs[si].installed += 1;
                self.pump_migration(w, si);
                self.maybe_finish_subscale(w, si);
            }
        }
        self.check_done(w);
    }

    fn on_coupled(&mut self, w: &mut World, inst: InstId, ch: ChannelId, sig: ScaleSignal) {
        let si = sig.subscale.0 as usize;
        if si >= self.subs.len() {
            return;
        }
        let op = self.op.expect("signal during scale");
        let key = BarrierKey::Subscale(sig.subscale);
        if w.insts[inst.0 as usize].op == op {
            // At the scaling operator.
            if inst != self.specs[si].from {
                return; // new instances / uninvolved siblings just consume it
            }
            // Alignment with input blocking (paper Fig. 1a / Fig. 7a).
            let expected = w.insts[inst.0 as usize]
                .in_channels
                .iter()
                .filter(|&&c| self.is_pred(w.chans[c.0 as usize].from))
                .count();
            let Some(freed) = w.align(inst, key, ch, expected) else {
                return;
            };
            for _ in freed {
                w.wake(inst);
            }
            self.start_migration(w, si);
        } else {
            // Intermediate operator: align, update routing if predecessor,
            // then forward.
            let expected = w.insts[inst.0 as usize].in_channels.len();
            let Some(freed) = w.align(inst, key, ch, expected) else {
                return;
            };
            if self.is_pred(inst) {
                // The barrier itself is the routing confirmation in
                // coupled mode; no separate confirm bookkeeping.
                let spec = &self.specs[si];
                w.reroute_groups(op, inst, &spec.kgs, spec.to);
            }
            for out in w.insts[inst.0 as usize].out_channels.clone() {
                w.send(out, StreamElement::Scale(sig));
            }
            for _ in freed {
                w.wake(inst);
            }
        }
    }
}

fn w_kg(key: u64, cfg: &streamflow::EngineConfig) -> KeyGroup {
    streamflow::ids::key_group_of(key, cfg.max_key_groups)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::time::ms;
    use streamflow::state::SubState;
    use streamflow::world::tests_support::tiny_job;
    use streamflow::EngineConfig;

    /// A DRRS plan 2 → 4 stopped mid-migration, with one input channel of a
    /// new instance under the test's control.
    struct Frozen {
        w: World,
        p: FlexScaler,
        /// A new instance, and the channel its (only) predecessor feeds.
        to: InstId,
        ch: ChannelId,
        /// A launched subscale into `to`, and two of its key-groups whose
        /// state has not arrived.
        si: usize,
        kg_a: KeyGroup,
        kg_b: KeyGroup,
    }

    fn frozen() -> Frozen {
        let mut cfg = EngineConfig::test();
        cfg.max_key_groups = 64;
        // A chunk takes longer than any test runs: state stays in transit.
        cfg.ser_bytes_per_us = 1e-6;
        let (mut w, agg) = tiny_job(cfg, 2_000.0, 512, 2);
        w.schedule_scale(ms(300), agg, 4);
        let mut p = FlexScaler::drrs();
        let mut buf = Vec::new();
        // Request + deploy delay + trigger latency, with room to spare.
        while w.q.pop_run_at_most(ms(420), &mut buf).is_some() {
            w.dispatch_run(&mut p, &mut buf);
        }
        let to = w.scale.new_instances[0];
        let ch = w.insts[to.0 as usize].in_channels[0];
        let si = (0..p.subs.len())
            .find(|&i| {
                p.specs[i].to == to
                    && p.subs[i].phase == Phase::Launched
                    && !p.subs[i].mig_queue.is_empty()
            })
            .expect("a launched subscale into the new instance, still migrating");
        // `kg_b` is the next key-group to be extracted, so the tests can
        // send it on its way (`extract_b`) before its chunk arrives.
        let kg_b = p.subs[si].mig_queue[0];
        let kg_a = p.specs[si]
            .kgs
            .iter()
            .copied()
            .find(|&kg| kg != kg_b && !w.insts[to.0 as usize].state.holds_group(kg))
            .expect("plan too small: a second key-group still to arrive");
        while w.chan_pop(ch).is_some() {}
        Frozen {
            kg_a,
            kg_b,
            w,
            p,
            to,
            ch,
            si,
        }
    }

    impl Frozen {
        fn push(&mut self, el: StreamElement) {
            let r = self.w.arena.insert(el);
            self.w.chans[self.ch.0 as usize].queue.push_back(r);
        }

        /// Queue a data record of `kg` on the channel.
        fn push_rec(&mut self, kg: KeyGroup) {
            let rec = self.rec(kg);
            self.push(StreamElement::Record(rec));
        }

        fn rec(&self, kg: KeyGroup) -> Record {
            let key = (0..).find(|&k| self.w.kg_of(k) == kg).expect("a key");
            Record::data(key, 1, 0)
        }

        /// The `nth` key-group the plan does not move: always processable.
        fn still_kg(&self, nth: usize) -> KeyGroup {
            (0..self.w.cfg.max_key_groups)
                .map(KeyGroup)
                .filter(|&kg| self.p.sub_of_kg(kg).is_none())
                .nth(nth)
                .expect("half the key-groups stay")
        }

        /// Extract `kg_b` at its source: its units leave through the
        /// ledger and are in transit to `to`, so a chunk of it may arrive.
        fn extract_b(&mut self) {
            assert_eq!(self.p.subs[self.si].mig_queue.front(), Some(&self.kg_b));
            self.p.pump_migration(&mut self.w, self.si);
        }

        /// The chunk of `kg_b`'s unit arrives at `to`.
        fn install_b(&mut self) {
            let unit = StateUnit {
                kg: self.kg_b,
                sub: 0,
                state: SubState::default(),
            };
            self.p
                .on_chunk(&mut self.w, self.to, unit, SubscaleId(self.si as u32));
        }

        /// One selection scan of the channel.
        fn scan(&mut self) -> Option<Selection> {
            let mut held = false;
            self.p.scan(&mut self.w, self.to, self.ch, &mut held)
        }

        /// The keys of the run one scan takes (empty if it takes none).
        fn scan_keys(&mut self) -> Vec<u64> {
            match self.scan() {
                Some(Selection::Run { records, .. }) => records.iter().map(|r| r.key).collect(),
                Some(_) => panic!("the scan returned a control element"),
                None => Vec::new(),
            }
        }

        fn queue_len(&self) -> usize {
            self.w.chans[self.ch.0 as usize].queue.len()
        }

        fn hint_len(&self) -> Option<usize> {
            self.p.hints[self.ch.0 as usize].map(|h| h.len)
        }

        /// `(scan positions examined, scans resumed)` by `f`.
        fn cost(&mut self, f: impl FnOnce(&mut Self)) -> (u64, u64) {
            let before = self.p.sched_stats();
            f(self);
            let after = self.p.sched_stats();
            (
                after.scan_positions - before.scan_positions,
                after.hint_resumes - before.hint_resumes,
            )
        }

        /// Five held records, scanned once (so a hint covers them), then
        /// `transition`; returns what the next scan cost and the queue
        /// length it found.
        fn rescan_after(mut self, transition: impl FnOnce(&mut Self)) -> ((u64, u64), u64) {
            for _ in 0..5 {
                self.push_rec(self.kg_a);
            }
            assert_eq!(self.cost(|f| assert!(f.scan().is_none())), (5, 0));
            assert_eq!(self.cost(|f| assert!(f.scan().is_none())), (0, 1));
            transition(&mut self);
            let left = self.queue_len() as u64;
            (self.cost(|f| assert!(f.scan().is_none())), left)
        }

        /// After `transition` the next scan must start over from the head.
        fn assert_drops_hint(self, transition: impl FnOnce(&mut Self)) {
            let (cost, left) = self.rescan_after(transition);
            assert_eq!(cost, (left, 0), "the scan trusted a stale hint");
        }

        /// `transition` releases no held record, so the hint stays valid.
        fn assert_keeps_hint(self, transition: impl FnOnce(&mut Self)) {
            let (cost, _) = self.rescan_after(transition);
            assert_eq!(cost, (0, 1), "the scan started over needlessly");
        }
    }

    #[test]
    fn one_scan_takes_every_processable_record_in_queue_order() {
        let mut f = frozen();
        let (s1, s2, s3) = (f.still_kg(0), f.still_kg(1), f.still_kg(2));
        f.push_rec(f.kg_a);
        f.push_rec(s1);
        f.push_rec(f.kg_b);
        f.push_rec(s2);
        f.push_rec(f.kg_a);
        f.push(StreamElement::Watermark(1));
        f.push_rec(s3);
        let bypass_runs = f.p.sched_stats().bypass_runs;
        let mut keys = Vec::new();
        // Six positions: three held, two taken, and the fence, which
        // keeps S3 out of reach.
        assert_eq!(f.cost(|f| keys = f.scan_keys()), (6, 0));
        assert_eq!(keys, vec![f.rec(s1).key, f.rec(s2).key], "S1, S2 in order");
        assert_eq!(f.queue_len(), 5);
        assert_eq!(f.hint_len(), Some(3), "the hint covers the three held");
        // The next scan looks at the fence again, and only at it.
        assert_eq!(f.cost(|f| assert!(f.scan().is_none())), (1, 1));
        assert_eq!(f.p.sched_stats().bypass_runs, bypass_runs + 1);
    }

    #[test]
    fn hint_survives_tail_appends_and_taking_past_it() {
        let mut f = frozen();
        for _ in 0..5 {
            f.push_rec(f.kg_a);
        }
        assert_eq!(f.cost(|f| assert!(f.scan().is_none())), (5, 0));
        // Nothing changed: the whole window is known to be held.
        assert_eq!(f.cost(|f| assert!(f.scan().is_none())), (0, 1));
        // Appends are classified once each, the prefix not again ...
        f.push_rec(f.kg_b);
        let still = f.still_kg(0);
        f.push_rec(still);
        f.push_rec(f.kg_b);
        let mut keys = Vec::new();
        assert_eq!(f.cost(|f| keys = f.scan_keys()), (3, 1));
        assert_eq!(keys, vec![f.rec(still).key]);
        // ... and taking one out leaves the hint over every held record.
        assert_eq!(f.hint_len(), Some(7));
        f.push_rec(f.kg_a);
        assert_eq!(f.cost(|f| assert!(f.scan().is_none())), (1, 1));
        assert_eq!(f.hint_len(), Some(8));
    }

    #[test]
    fn a_quantum_records_cap_ends_a_run_mid_window() {
        let mut f = frozen();
        f.w.cfg.quantum_records = 2;
        let still = f.still_kg(0);
        f.push_rec(f.kg_a);
        for _ in 0..3 {
            f.push_rec(still);
        }
        f.push_rec(f.kg_a);
        // The held head and two taken: the third is left for the next run.
        assert_eq!(f.cost(|f| assert_eq!(f.scan_keys().len(), 2)), (3, 0));
        assert_eq!(f.queue_len(), 3);
        assert_eq!(f.hint_len(), Some(1));
        assert_eq!(f.cost(|f| assert_eq!(f.scan_keys().len(), 1)), (2, 1));
        assert_eq!(f.hint_len(), Some(2));
    }

    #[test]
    fn without_record_scheduling_a_held_record_stops_the_scan() {
        let mut f = frozen();
        f.p.cfg.sched_buffer = 0;
        let bypass_runs = f.p.sched_stats().bypass_runs;
        let still = f.still_kg(0);
        // A held head: nothing is taken, and the selection suspends.
        f.push_rec(f.kg_a);
        f.push_rec(still);
        let mut held = false;
        assert!(f.p.scan(&mut f.w, f.to, f.ch, &mut held).is_none());
        assert!(held);
        assert_eq!(f.queue_len(), 2);
        assert!(matches!(
            f.p.flex_select(&mut f.w, f.to),
            Selection::Suspend
        ));
        // A processable head: the run stops at the first held record.
        while f.w.chan_pop(f.ch).is_some() {}
        f.push_rec(still);
        f.push_rec(still);
        f.push_rec(f.kg_a);
        f.push_rec(still);
        let cost = f.cost(|f| assert_eq!(f.scan_keys().len(), 2));
        assert_eq!(cost, (3, 0), "two taken, one held, no hint read");
        assert_eq!(f.queue_len(), 2);
        assert_eq!(f.p.sched_stats().bypass_runs, bypass_runs);
    }

    #[test]
    fn install_drops_the_hint() {
        let mut f = frozen();
        f.extract_b();
        f.assert_drops_hint(Frozen::install_b);
    }

    #[test]
    fn extract_keeps_the_hint() {
        // Extraction turns records at the source into re-routes; nothing
        // held at the destination becomes processable.
        frozen().assert_keeps_hint(|f| {
            let queued = f.p.subs[f.si].mig_queue.len();
            f.p.pump_migration(&mut f.w, f.si);
            assert_eq!(f.p.subs[f.si].mig_queue.len(), queued - 1);
        });
    }

    #[test]
    fn rerouted_confirm_drops_the_hint() {
        frozen().assert_drops_hint(|f| {
            let pred = f.w.chans[f.ch.0 as usize].from;
            let sig = f.p.signal(f.si, SignalKind::Confirm, pred);
            f.p.on_rerouted_confirm(&mut f.w, f.to, sig);
        });
    }

    #[test]
    fn inbox_push_keeps_the_hint() {
        // A fuller inbox can only hold more.
        frozen().assert_keeps_hint(|f| {
            let rec = f.rec(f.kg_b);
            f.p.on_rerouted_records(&mut f.w, f.to, vec![rec]);
        });
    }

    #[test]
    fn inbox_pop_drops_the_hint() {
        let mut f = frozen();
        // An inbox record whose state is present can leave the inbox.
        f.extract_b();
        f.install_b();
        let rec = f.rec(f.kg_b);
        f.p.on_rerouted_records(&mut f.w, f.to, vec![rec]);
        f.assert_drops_hint(|f| {
            assert!(f.p.take_inbox_run(&mut f.w, f.to).is_some());
        });
    }

    #[test]
    fn popping_the_channel_drops_the_hint() {
        frozen().assert_drops_hint(|f| {
            f.w.chan_pop(f.ch);
        });
    }

    #[test]
    fn removing_inside_the_window_drops_the_hint() {
        frozen().assert_drops_hint(|f| {
            f.w.chan_remove_at(f.ch, 2);
        });
    }

    #[test]
    fn a_fence_is_never_covered_by_a_hint() {
        let mut f = frozen();
        for _ in 0..3 {
            f.push_rec(f.kg_a);
        }
        f.push(StreamElement::Watermark(1));
        let still = f.still_kg(0);
        f.push_rec(still);
        // Positions 0 to 2 are held, position 3 is the fence: the
        // processable record behind it must not be reached.
        assert_eq!(f.cost(|f| assert!(f.scan().is_none())), (4, 0));
        assert_eq!(f.hint_len(), Some(3));
        // The resumed scan looks at the fence again, and only at it.
        assert_eq!(f.cost(|f| assert!(f.scan().is_none())), (1, 1));
        assert_eq!(f.hint_len(), Some(3));
    }
}
