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
//!   barriers or scale signals.
//! * **Subscale Division** — independent subscales scheduled greedily with a
//!   per-instance concurrency threshold.
//!
//! # Cost model
//!
//! Record Scheduling runs on every record while a plan is active, so it is
//! O(1) amortised per record and hashes nothing.
//!
//! **What `classify` reads.** The record's kind and key; the per-plan
//! tables `kg2sub`, the subscale's phase and endpoints, `pred_mask`; the
//! instance's `StateBackend::holds_group` (changed only by extraction and
//! installation, both driven from here); the inbox count `inbox_kg` of
//! `(instance, key-group)`; the subscale's confirm bookkeeping; and, for
//! non-fluid configurations only, `World::scale.in_progress`. All of them
//! are arrays indexed by `InstId.0`, by key-group or by
//! `inst * max_key_groups + kg`, sized when the plan starts and grown on
//! demand. `admit` answers for instances of other operators before touching
//! any of them.
//!
//! **The epoch.** One plugin-wide counter is bumped at every transition
//! that can change any of those inputs: a plan starting, a subscale
//! launching, a key-group extracted (`pump_migration`), a unit installed
//! (`on_chunk`), a subscale finishing, re-routed records entering an inbox,
//! records leaving an inbox, a re-routed confirm arriving, a coupled
//! barrier completing its alignment, the scale completing, and — checked
//! at the top of `select`, because the world flips it — a change of
//! `scale.in_progress` under a non-fluid configuration. Between two bumps
//! `classify` is a pure function of `(instance, sending instance, record)`.
//!
//! **What a hold hint certifies.** The intra-channel scan remembers, per
//! input channel, the length `len` of the queue prefix it has proven to be
//! data records all classified `Hold` (hence free of fences), the epoch it
//! proved that under, and the arena handles at positions `0` and
//! `len - 1`. The next scan of that channel resumes at `len` instead of 1
//! when the epoch is unchanged and both handles are still where they were.
//! Identity at the two ends suffices because a receiver queue is only ever
//! appended to at the back and popped/removed from inside: arena handles
//! are generational, so a live handle names one element and occurs once;
//! any removal at a position below `len` shifts the element at `len - 1`
//! down (or off the queue), so finding it in place proves nothing below it
//! left, and appends beyond `len` are exactly what the resumed scan goes on
//! to classify. A fence stops the scan and is never covered by a hint. In
//! debug builds every scan that skipped work re-classifies the whole prefix
//! from position 1 and asserts it — the scan this replaced, kept as the
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
    /// Key-groups awaiting extraction (fluid migration pumps them serially).
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

/// What the last intra-channel scan of one input channel proved (see the
/// module docs, "Cost model").
#[derive(Clone, Copy)]
struct HoldHint {
    /// `FlexScaler::epoch` the prefix was classified under.
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
    /// Records classified, wherever from (queue heads, admission, scans).
    pub classified: u64,
    /// Intra-channel scans started.
    pub scans: u64,
    /// Queue positions scans examined: the records they classified plus
    /// the fences that stopped them.
    pub scan_positions: u64,
    /// Scans that resumed behind a still-valid hold hint.
    pub hint_resumes: u64,
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
    /// Bumped whenever an input of `classify` may have changed.
    epoch: u64,
    /// Non-fluid only: the `scale.in_progress` the epoch last saw.
    seen_in_progress: bool,
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
            epoch: 0,
            seen_in_progress: false,
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

    /// An input of `classify` may have changed: every hold hint is stale.
    fn bump_epoch(&mut self) {
        self.epoch += 1;
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
        self.bump_epoch();
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

    fn signal(&self, si: usize, kind: SignalKind, pred: InstId, now: SimTime) -> ScaleSignal {
        ScaleSignal {
            scale_epoch: 0,
            subscale: SubscaleId(si as u32),
            kind,
            from_pred: pred,
            injected_at: now,
        }
    }

    fn inject_at_preds(&mut self, w: &mut World, op: OpId, si: usize) {
        let now = w.now();
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
                    let trig = self.signal(si, SignalKind::Trigger, pred, now);
                    w.send_priority(from, PriorityMsg::Signal(trig));
                    // Confirm barrier: skips the backlog, in-order on the
                    // wire and at the receiver.
                    let conf = self.signal(si, SignalKind::Confirm, pred, now);
                    w.send_uncredited(ch_old, StreamElement::Scale(conf));
                    let s = &mut self.subs[si];
                    *slot(&mut s.confirms_pending, pred.0 as usize, 0) += 1;
                    s.confirms_left += 1;
                } else {
                    // Coupled barrier: strictly in-band (through the backlog).
                    let sig = self.signal(si, SignalKind::Coupled, pred, now);
                    w.send(ch_old, StreamElement::Scale(sig));
                }
            }
        }
    }

    fn inject_at_sources(&mut self, w: &mut World, op: OpId, si: usize) {
        // Conventional source injection: barriers ride the dataflow from the
        // sources, aligned and forwarded at every intermediate operator.
        let now = w.now();
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
            let sig = self.signal(si, SignalKind::Coupled, srci, now);
            for ch in w.insts[srci.0 as usize].out_channels.clone() {
                w.send(ch, StreamElement::Scale(sig));
            }
        }
    }

    // ------------------------------------------------------------------
    // Migration pump (fluid: one key-group in flight per subscale)
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
        self.bump_epoch();
    }

    fn start_migration(&mut self, w: &mut World, si: usize) {
        self.subs[si].mig_queue = self.specs[si].kgs.iter().copied().collect();
        if self.cfg.fluid {
            self.pump_migration(w, si);
        } else {
            // All-at-once: extract and enqueue the lot in one batch.
            while !self.subs[si].mig_queue.is_empty() {
                self.pump_migration(w, si);
            }
        }
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

    // checker:hot-path
    fn classify(&mut self, w: &World, inst: InstId, ch_from: InstId, rec: &Record) -> Class {
        self.stats.classified += 1;
        self.class_of(w, inst, ch_from, rec)
    }

    /// `classify` without the counter (the debug oracle re-classifies).
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
            if !self.cfg.fluid && w.scale.in_progress {
                // All-at-once: resume only once the entire migration landed.
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
                let ok = if self.cfg.scheduling {
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
        self.bump_epoch();
        Some(Selection::Run { records, service })
    }

    // `loop` + let-else keeps the queue-front borrow scoped to the peek;
    // `while let` would hold it across the mutating body.
    // checker:hot-path
    #[allow(clippy::while_let_loop)]
    fn flex_select(&mut self, w: &mut World, inst: InstId) -> Selection {
        self.stats.selects += 1;
        if !self.cfg.fluid && self.seen_in_progress != w.scale.in_progress {
            self.seen_in_progress = w.scale.in_progress;
            self.bump_epoch();
        }
        // Re-routed records are special events, exempt from suspension.
        if let Some(run) = self.take_inbox_run(w, inst) {
            return run;
        }
        let (n, start) = {
            let i = &w.insts[inst.0 as usize];
            (i.in_channels.len(), i.active_ch)
        };
        if n == 0 {
            return Selection::Idle;
        }
        let mut saw_unprocessable = false;
        for k in 0..n {
            let idx = (start + k) % n;
            let ch = w.insts[inst.0 as usize].in_channels[idx];
            if w.chans[ch.0 as usize].holds > 0 {
                continue;
            }
            // Drain any front-of-queue re-routable records, then examine.
            loop {
                let Some(front) = w.chan_front(ch) else {
                    break;
                };
                match front {
                    StreamElement::Record(r) => {
                        let from = w.chans[ch.0 as usize].from;
                        match self.classify(w, inst, from, r) {
                            Class::Process => {
                                w.insts[inst.0 as usize].active_ch = idx;
                                return w.build_run(self, inst, ch);
                            }
                            Class::Reroute(to) => {
                                let Some(StreamElement::Record(rec)) = w.chan_pop(ch) else {
                                    unreachable!("front was a record")
                                };
                                self.buffer_reroute(w, inst, to, rec);
                                continue; // re-examine the new front
                            }
                            Class::Hold => {
                                saw_unprocessable = true;
                                if self.cfg.scheduling {
                                    // Intra-channel: bypass unprocessable
                                    // records within the bounded buffer,
                                    // never crossing control elements.
                                    if let Some(sel) = self.intra_scan(w, inst, ch) {
                                        return sel;
                                    }
                                    break; // inter-channel: try next channel
                                } else {
                                    // Active-channel discipline: suspend.
                                    return Selection::Suspend;
                                }
                            }
                        }
                    }
                    _ => {
                        w.insts[inst.0 as usize].active_ch = idx;
                        let elem = w.chan_pop(ch).expect("non-empty");
                        return Selection::Control(ch, elem);
                    }
                }
            }
        }
        if saw_unprocessable {
            Selection::Suspend
        } else {
            Selection::Idle
        }
    }

    /// Scan past the unprocessable head of `ch` (the caller just classified
    /// position 0 as `Hold`) for the first processable record within the
    /// scheduling buffer; stop at any control element. Resumes behind the
    /// channel's hold hint when it is still valid and leaves a new one.
    // checker:hot-path
    fn intra_scan(&mut self, w: &mut World, inst: InstId, ch: ChannelId) -> Option<Selection> {
        self.stats.scans += 1;
        let from = w.chans[ch.0 as usize].from;
        let mut pos = self.resume_pos(w, ch);
        // Did the scan rely on anything but its own classifications?
        let mut skipped = pos > 1;
        let found = loop {
            let queue = &w.chans[ch.0 as usize].queue;
            if pos >= self.cfg.sched_buffer.min(queue.len()) {
                break None;
            }
            self.stats.scan_positions += 1;
            // Watermarks, checkpoint barriers and scale signals are
            // scheduling fences (paper §III-B).
            let StreamElement::Record(r) = &w.arena[queue[pos]] else {
                break None;
            };
            match self.classify(w, inst, from, r) {
                Class::Hold => pos += 1,
                Class::Process => break w.chan_remove_at(ch, pos),
                Class::Reroute(to) => {
                    let Some(StreamElement::Record(rec)) = w.chan_remove_at(ch, pos) else {
                        unreachable!("checked record")
                    };
                    self.buffer_reroute(w, inst, to, rec);
                    // The next element slid into `pos`; what lies before it
                    // is as it was.
                    skipped = true;
                }
            }
        };
        self.leave_hint(w, ch, pos);
        if skipped && cfg!(debug_assertions) {
            self.assert_prefix_holds(w, inst, ch, pos);
        }
        let Some(StreamElement::Record(rec)) = found else {
            return None;
        };
        let service = rec.service(w.service_of(inst));
        let mut records = w.take_run_buf();
        records.push(rec);
        Some(Selection::Run { records, service })
    }

    /// Where the scan of `ch` starts: behind the prefix its hint certifies,
    /// or at position 1.
    // checker:hot-path
    #[inline]
    fn resume_pos(&mut self, w: &World, ch: ChannelId) -> usize {
        let queue = &w.chans[ch.0 as usize].queue;
        match self.hints.get(ch.0 as usize) {
            Some(Some(h))
                if h.epoch == self.epoch
                    && queue.front() == Some(&h.first)
                    && queue.get(h.len - 1) == Some(&h.last) =>
            {
                self.stats.hint_resumes += 1;
                h.len
            }
            _ => 1,
        }
    }

    /// Record that positions `0..len` of `ch` are records classified `Hold`
    /// under the current epoch.
    // checker:hot-path
    #[inline]
    fn leave_hint(&mut self, w: &World, ch: ChannelId, len: usize) {
        let queue = &w.chans[ch.0 as usize].queue;
        let hint = match (queue.front(), queue.get(len - 1)) {
            (Some(&first), Some(&last)) => Some(HoldHint {
                epoch: self.epoch,
                len,
                first,
                last,
            }),
            _ => None,
        };
        *slot(&mut self.hints, ch.0 as usize, None) = hint;
    }

    /// The scan this one replaced, as its oracle: classify positions
    /// `1..len` of `ch` from scratch and require records, all `Hold`.
    fn assert_prefix_holds(&self, w: &World, inst: InstId, ch: ChannelId, len: usize) {
        let from = w.chans[ch.0 as usize].from;
        for pos in 1..len {
            let class = w
                .chan_peek(ch, pos)
                .and_then(StreamElement::as_record)
                .map(|r| self.class_of(w, inst, from, r));
            assert_eq!(
                class,
                Some(Class::Hold),
                "hold hint wrong at position {pos} of {len} on {ch:?} at {inst} (epoch {})",
                self.epoch
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
        self.bump_epoch();
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
            self.bump_epoch();
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
        self.bump_epoch();
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
            SignalKind::Trigger | SignalKind::ConfirmRerouted => {
                // Triggers normally travel out-of-band; tolerate in-band.
                self.on_trigger(w, inst, sig);
            }
        }
    }

    fn on_orphan_record(&mut self, w: &mut World, inst: InstId, rec: &Record) -> bool {
        // A quantum admitted this record before its key-group was extracted
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

    // checker:hot-path
    fn admit(&mut self, w: &mut World, inst: InstId, ch: ChannelId, rec: &Record) -> bool {
        // Only instances of the scaling operator hold moving state.
        if !self.selecting(w, inst) {
            return true;
        }
        let from = w.chans[ch.0 as usize].from;
        self.classify(w, inst, from, rec) == Class::Process
    }

    // Outside `selecting`, `admit` returns `true` before touching
    // anything, and nothing `build_run` does between records reaches
    // `selecting`'s inputs (the scaler's own flags and the instance's
    // operator).
    fn admits_whole_run(&self, w: &World, inst: InstId) -> bool {
        !self.selecting(w, inst)
    }
}

impl FlexScaler {
    /// Does the scaler select input at `inst` (a plan is active and `inst`
    /// belongs to the scaling operator)?
    fn selecting(&self, w: &World, inst: InstId) -> bool {
        self.started && !self.done && self.op == Some(w.insts[inst.0 as usize].op)
    }

    /// A trigger barrier arrived at `inst` (out-of-band, or tolerated
    /// in-band): the subscale's source starts migrating.
    fn on_trigger(&mut self, w: &mut World, inst: InstId, sig: ScaleSignal) {
        if sig.kind == SignalKind::Trigger {
            let si = sig.subscale.0 as usize;
            if si < self.subs.len() && !self.subs[si].triggered && inst == self.specs[si].from {
                self.subs[si].triggered = true;
                self.start_migration(w, si);
            }
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
        self.bump_epoch();
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
        self.bump_epoch();
        w.wake(inst);
        self.check_done(w);
    }

    /// A migrated unit of `subscale` arrived at `inst`.
    fn on_chunk(&mut self, w: &mut World, inst: InstId, unit: StateUnit, subscale: SubscaleId) {
        let si = subscale.0 as usize;
        let kg = unit.kg;
        w.install_unit(inst, unit, true);
        self.bump_epoch();
        if si < self.subs.len() {
            let fully = w.insts[inst.0 as usize].state.holds_group(kg);
            if fully {
                self.subs[si].installed += 1;
                if self.cfg.fluid {
                    self.pump_migration(w, si);
                }
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
            self.bump_epoch();
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

        /// A key-group the plan does not move: always processable.
        fn still_kg(&self) -> KeyGroup {
            (0..self.w.cfg.max_key_groups)
                .map(KeyGroup)
                .find(|&kg| self.p.sub_of_kg(kg).is_none())
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

        fn scan(&mut self) -> Option<Selection> {
            self.p.intra_scan(&mut self.w, self.to, self.ch)
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
        /// `transition`; the next scan must start over from position 1.
        fn assert_drops_hint(mut self, transition: impl FnOnce(&mut Self)) {
            for _ in 0..5 {
                self.push_rec(self.kg_a);
            }
            assert_eq!(self.cost(|f| assert!(f.scan().is_none())), (4, 0));
            assert_eq!(self.cost(|f| assert!(f.scan().is_none())), (0, 1));
            transition(&mut self);
            let left = self.w.chans[self.ch.0 as usize].queue.len() as u64;
            assert_eq!(
                self.cost(|f| assert!(f.scan().is_none())),
                (left - 1, 0),
                "the scan after the transition trusted a stale hint"
            );
        }
    }

    #[test]
    fn hint_survives_tail_appends_and_its_own_bypass() {
        let mut f = frozen();
        for _ in 0..5 {
            f.push_rec(f.kg_a);
        }
        assert_eq!(f.cost(|f| assert!(f.scan().is_none())), (4, 0));
        // Nothing changed: the whole window is known to be held.
        assert_eq!(f.cost(|f| assert!(f.scan().is_none())), (0, 1));
        // Appends are classified once each, the prefix not again.
        for _ in 0..3 {
            f.push_rec(f.kg_b);
        }
        assert_eq!(f.cost(|f| assert!(f.scan().is_none())), (3, 1));
        // A processable record behind the held ones is bypassed to ...
        let still = f.still_kg();
        f.push_rec(still);
        f.push_rec(f.kg_a);
        let still_key = f.rec(still).key;
        let (cost, run) = {
            let mut run = None;
            let cost = f.cost(|f| run = f.scan());
            (cost, run)
        };
        assert_eq!(cost, (1, 1));
        match run {
            Some(Selection::Run { records, .. }) => {
                assert_eq!(records.len(), 1);
                assert_eq!(records[0].key, still_key);
            }
            _ => panic!("the processable record was not selected"),
        }
        // ... and taking it out leaves the hint on the prefix before it.
        assert_eq!(f.cost(|f| assert!(f.scan().is_none())), (1, 1));
        assert_eq!(f.w.chans[f.ch.0 as usize].queue.len(), 9);
    }

    #[test]
    fn install_drops_the_hint() {
        let mut f = frozen();
        f.extract_b();
        f.assert_drops_hint(Frozen::install_b);
    }

    #[test]
    fn extract_drops_the_hint() {
        frozen().assert_drops_hint(|f| {
            let queued = f.p.subs[f.si].mig_queue.len();
            f.p.pump_migration(&mut f.w, f.si);
            assert_eq!(f.p.subs[f.si].mig_queue.len(), queued - 1);
        });
    }

    #[test]
    fn rerouted_confirm_drops_the_hint() {
        frozen().assert_drops_hint(|f| {
            let pred = f.w.chans[f.ch.0 as usize].from;
            let sig =
                f.p.signal(f.si, SignalKind::ConfirmRerouted, pred, f.w.now());
            f.p.on_rerouted_confirm(&mut f.w, f.to, sig);
        });
    }

    #[test]
    fn inbox_push_drops_the_hint() {
        frozen().assert_drops_hint(|f| {
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
        let still = f.still_kg();
        f.push_rec(still);
        // Positions 1 and 2 are held, position 3 is the fence: the
        // processable record behind it must not be reached.
        assert_eq!(f.cost(|f| assert!(f.scan().is_none())), (3, 0));
        assert_eq!(f.p.hints[f.ch.0 as usize].map(|h| h.len), Some(3));
        // The resumed scan looks at the fence again, and only at it.
        assert_eq!(f.cost(|f| assert!(f.scan().is_none())), (1, 1));
        assert_eq!(f.p.hints[f.ch.0 as usize].map(|h| h.len), Some(3));
    }

    #[test]
    fn all_at_once_configs_track_the_worlds_in_progress_flag() {
        let mut f = frozen();
        f.p.cfg.fluid = false;
        assert!(f.w.scale.in_progress);
        let e0 = f.p.epoch;
        let _ = f.p.flex_select(&mut f.w, f.to);
        assert_eq!(f.p.epoch, e0 + 1, "first sight of in_progress = true");
        let _ = f.p.flex_select(&mut f.w, f.to);
        assert_eq!(f.p.epoch, e0 + 1, "unchanged flag, unchanged epoch");
        f.w.scale.in_progress = false;
        let _ = f.p.flex_select(&mut f.w, f.to);
        assert_eq!(f.p.epoch, e0 + 2, "the world cleared the flag");
    }
}
