//! The executable world: instances, channels, the event loop, emission and
//! routing, backpressure, alignment, migration links, and the scaling
//! control plane.
//!
//! # Hot-path discipline
//!
//! The dispatch path (`Deliver` → `try_start` → `build_run` → `ProcDone` →
//! `apply_record` → `emit_records` → `route_record` → `send`) is
//! allocation-free and hash-free in steady state:
//!
//! * stream elements live exactly once in the world's [`RecordArena`];
//!   `send` parks the payload and everything downstream — sender backlog,
//!   the in-flight leg of `Ev::Deliver`, the receiver queue — moves 8-byte
//!   [`RecordRef`](crate::record::RecordRef) handles until `chan_pop`
//!   takes the element out,
//! * the wire carries *bursts*: consecutive sends that nothing could sort
//!   between share one scheduler entry, their handles parked in a
//!   slot-recycled [`BurstStore`] (contract on [`Ev::Deliver`]),
//! * edge routing is dense: per-edge compacted (from, to) slots index a
//!   flat channel matrix and per-sender routing tables ([`EdgeRt`]),
//!   rebuilt only on scale events — no per-record map lookup remains,
//! * per-operator topology (`keyed_in_edges`, `pred_insts`) is cached on
//!   [`OperatorRt`] at build time and refreshed only on scale events,
//! * operator output goes through a reused `emit_scratch` buffer,
//! * quantum record buffers are recycled through `run_buf_pool`,
//! * round-robin routing scans the destination list in place instead of
//!   collecting eligible instances, cursors are dense per-edge slots, and
//!   the scale-in retiring probe is a bitset read,
//! * channel queues, the arena and the future-event list are pre-sized at
//!   build time.
//!
//! Keep it that way: if a change needs a temporary collection on any of
//! those paths, reuse a scratch buffer on `World` instead of allocating.

use simcore::time::{transfer_time, SimTime};

const MICROS_PER_SEC_DEFER: SimTime = 1_000_000;
use simcore::{DetRng, FutureEventList};

use crate::bus::{Bus, BusEventKind};
use crate::channel::Channel;
use crate::config::EngineConfig;
use crate::events::{BurstStore, ControlMsg, ControlStore, Ev, PriorityMsg, WireElem};
use crate::graph::{EdgeKind, EdgeRt, OperatorRt};
use crate::ids::{key_group_of, ChannelId, EdgeId, InstId, KeyGroup, OpId, SubscaleId};
use crate::instance::{CkptAlign, Instance, SourceState, TICK};
use crate::keygroup::{uniform_repartition, RoutingTable};
use crate::metrics::Metrics;
use crate::operator::{OpCtx, OpRole, WmCtx};
use crate::record::{Record, RecordArena, RecordKind, RecordRef, StreamElement};
use crate::scaling::{ScaleContext, ScalePlan, ScalePlugin, Selection};
use crate::semantics::SemanticsChecker;
use crate::state::{StateBackend, StateUnit};

/// Region-crossing event keys carry this bit (PDES mode). Cross events are
/// keyed explicitly — `CROSS_BIT | src_region << 48 | per-link counter` —
/// instead of drawing from the queue's global `seq` mint, so the
/// sequential reference engine and the thread-per-region replicas assign
/// the *same* key to the same message. Local mints stay far below this
/// bit, so at one instant inside one region all local events order before
/// all cross arrivals, identically in both engines.
pub const CROSS_BIT: u64 = 1 << 63;

/// How region-crossing deliveries travel in PDES mode
/// (`resume_latency > 0`, `regions > 1`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrossMode {
    /// Push cross events straight into this world's own (multi-region)
    /// event list. This is the sequential PDES reference engine: one
    /// thread, one world, region-major pop order — the digest every
    /// parallel run is checked against.
    Inline,
    /// Stage cross events in [`World::take_outbox`] as plain-data
    /// [`CrossMsg`]s. The thread-per-region executor
    /// ([`crate::parallel`]) drains the outbox after each epoch slice and
    /// ships the messages over SPSC rings to the owning replica.
    Outbox,
}

/// A region-crossing message staged for the parallel executor. Plain data
/// (`Send`): the stream element travels **by value** between per-thread
/// world replicas — arena handles never cross a thread boundary.
#[derive(Debug)]
pub struct CrossMsg {
    /// Destination region.
    pub dst: usize,
    /// Absolute arrival time.
    pub at: SimTime,
    /// Explicit event key (see [`CROSS_BIT`]).
    pub key: u64,
    /// What arrives.
    pub payload: CrossPayload,
}

/// Payload of a [`CrossMsg`].
#[derive(Debug)]
pub enum CrossPayload {
    /// An element coming off the wire of a cut channel.
    Deliver {
        /// Target channel.
        ch: ChannelId,
        /// The element itself (re-parked in the receiving replica's arena).
        elem: StreamElement,
    },
    /// Credits returning to a cut channel's sender region.
    Credit {
        /// The cut channel whose sender gets the credits.
        ch: ChannelId,
        /// Number of credits returned.
        n: u32,
    },
}

/// The simulation world. Holds every entity; scaling mechanisms manipulate
/// it through the methods in the `impl` blocks below.
pub struct World {
    /// Engine configuration.
    pub cfg: EngineConfig,
    /// Future event list.
    pub q: FutureEventList<Ev>,
    /// Logical operators.
    pub ops: Vec<OperatorRt>,
    /// Physical instances.
    pub insts: Vec<Instance>,
    /// Channels.
    pub chans: Vec<Channel>,
    /// Every stream element currently queued, backlogged or on the wire
    /// lives here exactly once; channels and delivery bursts carry handles.
    pub arena: RecordArena,
    /// Edges.
    pub edges: Vec<EdgeRt>,
    /// Scaling context.
    pub scale: ScaleContext,
    /// Run metrics.
    pub metrics: Metrics,
    /// Operator/instance → scheduler-region assignment plus the lookahead
    /// matrix. A real partition only in PDES mode; every other world
    /// carries the trivial single-region map (see [`Self::pdes`]).
    pub region_map: crate::region::RegionMap,
    /// Per-key order checker (enabled via config).
    pub semantics: SemanticsChecker,
    /// Deterministic randomness.
    pub rng: DetRng,
    /// Scratch: records of the quantum each busy instance is executing.
    pending_runs: Vec<Vec<Record>>,
    /// Scratch: reusable operator-output buffer (`apply_record_basic`,
    /// watermark firing). Always drained back to empty after use.
    emit_scratch: Vec<Record>,
    /// Recycled quantum buffers: `build_run` pops, `on_proc_done` returns.
    run_buf_pool: Vec<Vec<Record>>,
    /// Next checkpoint id.
    next_ckpt: u64,
    /// Suspension series tracks instances of this op (set at scale time;
    /// defaults to all Transform ops).
    suspension_op: Option<OpId>,
    /// Is PDES mode active, i.e. is the world partitioned
    /// (`region_map.k() > 1`)? Frozen at build time. When false, nothing
    /// in the cut-channel credit machinery runs: this is the single-queue
    /// sequential engine.
    pdes: bool,
    /// Where region-crossing events go in PDES mode (see [`CrossMode`]).
    cross_mode: CrossMode,
    /// Per ordered region pair `(src, dst)` counters minting cross-event
    /// keys (row-major `k × k`). Sender handlers run in the same relative
    /// order in every engine, so these counters — and thus the keys —
    /// agree between the sequential reference and the parallel replicas.
    cross_seq: Vec<u64>,
    /// Per-region RNG stripes for PDES mode: region-local draws (latency
    /// marker keys) must not share one global stream, or the draw order
    /// would depend on cross-region interleaving. Seeded from `cfg.seed`
    /// per region; unused when `pdes` is false.
    rngs: Vec<DetRng>,
    /// Staged outgoing cross messages (only in [`CrossMode::Outbox`]).
    outbox: Vec<CrossMsg>,
    /// Low-rate control side-channel: the rare, large
    /// `PriorityMsg`/`ControlMsg` payloads park here (slots recycled
    /// through a free list) while the queue-borne `Ev::Priority` /
    /// `Ev::Control` events carry only `u32` handles — no per-control-
    /// event allocation, and `Ev` stays at hot-variant size.
    pub ctrl: ControlStore,
    /// Elements on the wire, one slot per pending `Ev::Deliver` burst.
    bursts: BurstStore,
    /// The event/metrics bus (see [`crate::bus`]). Default `Null` sink =
    /// disabled: publishing is a single branch and nothing is allocated.
    pub bus: Bus,
}

/// The predecessor list of `op`: all upstream instances feeding its keyed
/// inputs, deduped in discovery order. Single source of truth for the
/// `pred_insts` cache — build-time seeding and scale-time refresh must
/// never diverge.
fn compute_pred_insts(op: &OperatorRt, ops: &[OperatorRt], edges: &[EdgeRt]) -> Vec<InstId> {
    let mut preds: Vec<InstId> = Vec::new();
    for &e in &op.keyed_in_edges {
        let from_op = edges[e.0 as usize].from;
        for &fi in &ops[from_op.0 as usize].instances {
            if !preds.contains(&fi) {
                preds.push(fi);
            }
        }
    }
    preds
}

impl World {
    /// Lower builder output into a wired world. Called by
    /// [`JobBuilder::build`](crate::graph::JobBuilder::build).
    pub fn from_builder(
        cfg: EngineConfig,
        mut ops: Vec<OperatorRt>,
        edge_defs: Vec<(OpId, OpId, EdgeKind)>,
    ) -> Self {
        let mut rng = DetRng::seed(cfg.seed);
        let mut insts: Vec<Instance> = Vec::new();

        // Create instances.
        for op in ops.iter_mut() {
            let par = op.instances.len();
            for li in 0..par {
                let id = InstId(insts.len() as u32);
                let mut inst = Instance::new(
                    id,
                    op.id,
                    li,
                    StateBackend::new(cfg.max_key_groups, cfg.sub_group_fanout),
                );
                match op.role {
                    OpRole::Source => {
                        let gen = (op.source_factory.as_ref().expect("source factory"))(li);
                        let offset = (li as SimTime) * cfg.marker_interval / par.max(1) as SimTime;
                        let mut src = SourceState::new(gen, offset);
                        src.next_checkpoint = cfg.checkpoint_interval;
                        inst.source = Some(src);
                    }
                    OpRole::Transform => {
                        inst.logic = Some((op.logic_factory.as_ref().expect("logic factory"))());
                    }
                    OpRole::Sink => {}
                }
                op.instances[li] = id;
                insts.push(inst);
            }
        }

        // Create edges + channels.
        let mut edges: Vec<EdgeRt> = Vec::new();
        let mut chans: Vec<Channel> = Vec::new();
        for (from, to, kind) in edge_defs {
            let eid = EdgeId(edges.len() as u32);
            let mut edge = EdgeRt::new(eid, from, to, kind);
            let from_insts = ops[from.0 as usize].instances.clone();
            let to_insts = ops[to.0 as usize].instances.clone();
            for &fi in &from_insts {
                for &ti in &to_insts {
                    let cid = ChannelId(chans.len() as u32);
                    chans.push(Channel::new(
                        cid,
                        fi,
                        ti,
                        cfg.channel_capacity,
                        cfg.net_latency,
                    ));
                    edge.add_channel(fi, ti, cid);
                    insts[fi.0 as usize].out_channels.push(cid);
                    insts[ti.0 as usize].in_channels.push(cid);
                }
            }
            edge.rebuild_index(insts.len());
            if kind == EdgeKind::Keyed {
                for &fi in &from_insts {
                    edge.set_table(fi, RoutingTable::uniform(cfg.max_key_groups, &to_insts));
                }
            }
            ops[from.0 as usize].out_edges.push(eid);
            ops[to.0 as usize].in_edges.push(eid);
            if kind == EdgeKind::Keyed {
                ops[to.0 as usize].stateful = true;
            }
            // Seed initial key-group ownership at the downstream instances.
            if kind == EdgeKind::Keyed {
                let table = RoutingTable::uniform(cfg.max_key_groups, &to_insts);
                for g in 0..cfg.max_key_groups {
                    let owner = table.route(KeyGroup(g));
                    insts[owner.0 as usize].state.ensure_group(KeyGroup(g));
                }
            }
            edges.push(edge);
        }

        // Freeze the topology caches. Keyed in-edge lists never change
        // after lowering; predecessor lists are refreshed on scale events.
        for op in ops.iter_mut() {
            op.keyed_in_edges = op
                .in_edges
                .iter()
                .copied()
                .filter(|&e| edges[e.0 as usize].kind == EdgeKind::Keyed)
                .collect();
        }
        let pred_lists: Vec<Vec<InstId>> = ops
            .iter()
            .map(|op| compute_pred_insts(op, &ops, &edges))
            .collect();
        for (op, preds) in ops.iter_mut().zip(pred_lists) {
            op.pred_insts = preds;
        }

        // Dense per-edge round-robin cursors (edge count is now final).
        for inst in insts.iter_mut() {
            inst.rr_cursor = vec![0; edges.len()];
        }

        // Partition the operator graph into scheduler regions before the
        // event list exists — source ticks below are already tagged. Only
        // a nonzero resume latency makes a partition worth having (see
        // `EngineConfig::regions`); everything else is one region.
        let region_map = if cfg.regions > 1 && cfg.resume_latency > 0 {
            crate::region::RegionMap::compute(
                cfg.regions,
                &ops,
                &edges,
                &chans,
                insts.len(),
                cfg.ctrl_latency,
                cfg.resume_latency,
            )
        } else {
            crate::region::RegionMap::single()
        };

        // PDES mode: a real partition. Cut channels switch to the
        // sender-owned credit protocol, same-instant pop order is
        // region-major, and randomness is striped per region — all chosen
        // so the sequential PDES engine and the thread-per-region replicas
        // produce identical digests.
        let pdes = region_map.k() > 1;
        if pdes {
            assert!(
                cfg.checkpoint_interval.is_none(),
                "PDES mode (resume_latency > 0, regions > 1) does not support \
                 periodic checkpointing: barrier alignment across cut channels \
                 is not wired into the credit protocol yet"
            );
            for c in chans.iter_mut() {
                if region_map.inst(c.from) != region_map.inst(c.to) {
                    c.cut = true;
                }
            }
        }

        // Pre-size the future-event list: in steady state it holds at most
        // a few events per instance (ticks, quanta) plus in-flight elements
        // bounded by per-channel credits.
        let mut q =
            FutureEventList::with_regions(insts.len() * 8 + chans.len() * 4 + 64, region_map.k());
        q.set_region_lookahead(region_map.lookahead());
        // Arm source ticks (jittered so they do not all fire in lockstep).
        for inst in insts.iter() {
            if inst.source.is_some() {
                let r = region_map.inst(inst.id);
                q.schedule_tagged(r, rng.below(1_000), Ev::SourceTick { inst: inst.id });
            }
        }
        q.schedule(cfg.sample_interval, Ev::Sample);
        let mut ctrl = ControlStore::new();
        if let Some(iv) = cfg.checkpoint_interval {
            let slot = ctrl.put_control(ControlMsg::CheckpointTick);
            q.schedule(iv, Ev::Control { slot });
        }

        let n = insts.len();
        let k = region_map.k();
        // Region-striped RNGs (PDES mode): splitmix-style per-region seeds
        // derived from the run seed.
        let rngs = (0..k)
            .map(|r| DetRng::seed(cfg.seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(r as u64 + 1)))
            .collect();
        // Pre-size the arena to the steady-state bound: live elements are
        // capped by per-channel credits plus modest backlogs.
        let arena = RecordArena::with_capacity(chans.len() * (cfg.channel_capacity + 4) + 64);
        let bus = Bus::new(cfg.bus_sink);
        World {
            cfg,
            q,
            ops,
            insts,
            chans,
            arena,
            edges,
            scale: ScaleContext::default(),
            metrics: Metrics::default(),
            region_map,
            semantics: SemanticsChecker::new(),
            rng,
            pending_runs: (0..n).map(|_| Vec::new()).collect(),
            emit_scratch: Vec::with_capacity(16),
            run_buf_pool: Vec::new(),
            next_ckpt: 0,
            suspension_op: None,
            pdes,
            cross_mode: CrossMode::Inline,
            cross_seq: vec![0; k * k],
            rngs,
            outbox: Vec::new(),
            ctrl,
            bursts: BurstStore::new(),
            bus,
        }
    }

    /// Is PDES mode active (`resume_latency > 0` and a partition of more
    /// than one region)?
    #[inline]
    pub fn pdes(&self) -> bool {
        self.pdes
    }

    /// Select where region-crossing events go (PDES mode only — see
    /// [`CrossMode`]). The thread-per-region executor flips its replicas
    /// to [`CrossMode::Outbox`] before running.
    pub fn set_cross_mode(&mut self, mode: CrossMode) {
        debug_assert!(
            self.pdes || mode == CrossMode::Inline,
            "cross mode is meaningless outside PDES mode"
        );
        self.cross_mode = mode;
    }

    /// Take the staged outgoing cross messages (see [`CrossMode::Outbox`]).
    /// Returns the internal buffer by value; hand the (drained) vector
    /// back via [`Self::put_outbox_scratch`] to avoid reallocating.
    pub fn take_outbox(&mut self) -> Vec<CrossMsg> {
        std::mem::take(&mut self.outbox)
    }

    /// Return a drained outbox buffer so its allocation is reused. Only
    /// installs the buffer when no new messages were staged in between
    /// (the executor takes/puts around a dispatch-free drain, so this is
    /// always the case there).
    pub fn put_outbox_scratch(&mut self, mut scratch: Vec<CrossMsg>) {
        scratch.clear();
        if self.outbox.is_empty() && self.outbox.capacity() < scratch.capacity() {
            self.outbox = scratch;
        }
    }

    /// Apply a cross message shipped from another replica: re-park the
    /// element (or credit notice) in this world under its explicit key.
    /// Counterpart of the [`CrossMode::Outbox`] send side.
    pub fn apply_cross_msg(&mut self, m: CrossMsg) {
        match m.payload {
            CrossPayload::Deliver { ch, elem } => {
                let r = self.arena.insert(elem);
                self.deliver_keyed(m.dst, m.at, m.key, ch, r);
            }
            CrossPayload::Credit { ch, n } => {
                self.q
                    .push_keyed(m.dst, m.at, m.key, Ev::CutCredit { ch, n });
            }
        }
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.q.now()
    }

    /// Scheduler region of an instance (0 on a single-region world).
    #[inline]
    fn reg(&self, inst: InstId) -> usize {
        self.region_map.inst(inst)
    }

    /// The operator an instance belongs to.
    pub fn op_of(&self, inst: InstId) -> &OperatorRt {
        &self.ops[self.insts[inst.0 as usize].op.0 as usize]
    }

    /// Key-group of a key under this world's configuration.
    #[inline]
    pub fn kg_of(&self, key: u64) -> KeyGroup {
        key_group_of(key, self.cfg.max_key_groups)
    }

    /// Keyed input edges of an operator (cached at build time — edges are
    /// fixed after lowering).
    #[inline]
    pub fn keyed_in_edges(&self, op: OpId) -> &[EdgeId] {
        &self.ops[op.0 as usize].keyed_in_edges
    }

    /// Wrap a priority message into its queue-borne event: the payload
    /// parks in the control side-channel, the event carries the slot.
    // checker:hot-path
    #[inline]
    fn ev_priority(&mut self, to: InstId, msg: PriorityMsg) -> Ev {
        Ev::Priority {
            to,
            slot: self.ctrl.put_priority(msg),
        }
    }

    /// Wrap a control command into its queue-borne event (see
    /// [`ev_priority`](Self::ev_priority)).
    // checker:hot-path
    #[inline]
    fn ev_control(&mut self, cmd: ControlMsg) -> Ev {
        Ev::Control {
            slot: self.ctrl.put_control(cmd),
        }
    }

    /// Schedule a plugin timer.
    pub fn schedule_plugin(&mut self, delay: SimTime, tag: u64) {
        let ev = self.ev_control(ControlMsg::Plugin(tag));
        self.q.schedule(delay, ev);
    }

    /// Schedule a generic instance wake-up.
    pub fn wake(&mut self, inst: InstId) {
        let r = self.reg(inst);
        self.q.schedule_tagged(r, 0, Ev::Wake { inst });
    }

    /// Request a rescale of `op` to `new_parallelism` at time `at`, with the
    /// paper's default uniform re-partitioning.
    pub fn schedule_scale(&mut self, at: SimTime, op: OpId, new_parallelism: usize) {
        self.schedule_scale_with(
            at,
            op,
            new_parallelism,
            crate::keygroup::Repartition::Uniform,
        );
    }

    /// Request a rescale with an explicit re-partitioning strategy.
    pub fn schedule_scale_with(
        &mut self,
        at: SimTime,
        op: OpId,
        new_parallelism: usize,
        strategy: crate::keygroup::Repartition,
    ) {
        let old = self.ops[op.0 as usize].instances.len();
        let ev = self.ev_control(ControlMsg::StartScale(ScalePlan {
            op,
            old_parallelism: old,
            new_parallelism,
            strategy,
            moves: Vec::new(),
        }));
        self.q.schedule_at(at, ev);
    }

    // -----------------------------------------------------------------
    // Channel primitives
    // -----------------------------------------------------------------

    /// Send an element over a channel, respecting credits and backlog. The
    /// element is parked in the arena here — its single resting place until
    /// consumption — and only its handle moves through backlog, wire and
    /// receiver queue.
    pub fn send(&mut self, ch: ChannelId, elem: StreamElement) {
        if self.pdes && self.chans[ch.0 as usize].cut {
            self.send_cut(ch, elem);
            return;
        }
        let r = self.arena.insert(elem);
        let c = &mut self.chans[ch.0 as usize];
        if c.backlog.is_empty() && c.has_credit() {
            c.in_flight += 1;
            self.put_on_wire(ch, r, true);
        } else {
            c.backlog.push_back(r);
            if c.backlog.len() >= self.cfg.backlog_block {
                let from = c.from;
                if !self.insts[from.0 as usize].blocked_out {
                    self.insts[from.0 as usize].blocked_out = true;
                    let reg = self.reg(from) as u8;
                    self.bus.publish(
                        self.q.now(),
                        reg,
                        BusEventKind::BackpressureBlock { inst: from.0 },
                    );
                }
            }
        }
    }

    /// Send a control element bypassing the backlog and credits (used for
    /// barriers that are "priority in the output cache"). On a cut channel
    /// in PDES mode the element still travels as a keyed cross delivery —
    /// uncredited in both engines, so credit accounting is untouched
    /// either way.
    pub fn send_uncredited(&mut self, ch: ChannelId, elem: StreamElement) {
        let r = self.arena.insert(elem);
        if self.pdes && self.chans[ch.0 as usize].cut {
            self.cross_deliver_ref(ch, r);
            return;
        }
        self.put_on_wire(ch, r, false);
    }

    /// Put one arena-parked element on the wire of a channel the engine
    /// delivers itself (every channel but a cut one in PDES mode): extend
    /// the open burst when the four conditions on [`Ev::Deliver`] hold,
    /// else open a new one and schedule its event. Deliveries dispatch in
    /// the *receiver's* region.
    // checker:hot-path
    #[inline]
    fn put_on_wire(&mut self, ch: ChannelId, elem: RecordRef, credited: bool) {
        let c = &self.chans[ch.0 as usize];
        let at = self.q.now().saturating_add(c.latency);
        let reg = self.region_map.inst(c.to);
        let seq = self.q.next_seq();
        let e = WireElem { ch, elem, credited };
        if !self.bursts.extend_open(at, reg, seq, e) {
            let burst = self.bursts.open(at, reg, seq, e);
            self.q.schedule_at_tagged(reg, at, Ev::Deliver { burst });
        }
    }

    /// `send` for a cut channel in PDES mode: the sender-owned credit pool
    /// replaces `has_credit()`'s receiver-side reads, so this path touches
    /// no receiver state at all — the property that lets the two channel
    /// endpoints live on different threads.
    fn send_cut(&mut self, ch: ChannelId, elem: StreamElement) {
        let r = self.arena.insert(elem);
        let c = &mut self.chans[ch.0 as usize];
        if c.backlog.is_empty() && c.cut_credits > 0 {
            c.cut_credits -= 1;
            self.cross_deliver_ref(ch, r);
        } else {
            c.backlog.push_back(r);
            if c.backlog.len() >= self.cfg.backlog_block {
                let from = c.from;
                if !self.insts[from.0 as usize].blocked_out {
                    self.insts[from.0 as usize].blocked_out = true;
                    let reg = self.reg(from) as u8;
                    self.bus.publish(
                        self.q.now(),
                        reg,
                        BusEventKind::BackpressureBlock { inst: from.0 },
                    );
                }
            }
        }
    }

    /// Put one arena-parked element on the wire of a cut channel: mint the
    /// explicit cross key and either push it into this world's own queue
    /// (sequential reference) or stage a by-value [`CrossMsg`] for the
    /// executor (see [`CrossMode`]). Always uncredited — cut channels
    /// account credits on the sender side only.
    fn cross_deliver_ref(&mut self, ch: ChannelId, r: RecordRef) {
        let (lat, src, dst) = {
            let c = &self.chans[ch.0 as usize];
            (
                c.latency,
                self.region_map.inst(c.from),
                self.region_map.inst(c.to),
            )
        };
        let at = self.now() + lat;
        let key = self.mint_cross_key(src, dst);
        match self.cross_mode {
            CrossMode::Inline => self.deliver_keyed(dst, at, key, ch, r),
            CrossMode::Outbox => {
                let elem = self.arena.remove(r);
                self.outbox.push(CrossMsg {
                    dst,
                    at,
                    key,
                    payload: CrossPayload::Deliver { ch, elem },
                });
            }
        }
    }

    /// Schedule a cut-channel delivery in region `dst` under its explicit
    /// cross key: an uncredited burst of one that no send can extend (the
    /// key is per element).
    fn deliver_keyed(&mut self, dst: usize, at: SimTime, key: u64, ch: ChannelId, elem: RecordRef) {
        let burst = self.bursts.single(WireElem {
            ch,
            elem,
            credited: false,
        });
        self.q.push_keyed(dst, at, key, Ev::Deliver { burst });
    }

    /// Receiver side of the cut-credit protocol: after popping an element
    /// off a cut channel, notify the *sender's* region that one credit is
    /// free — after `resume_latency`, as a resume notice would take in a
    /// real deployment. This latency is exactly the reverse-edge lookahead
    /// in the region matrix.
    fn return_cut_credit(&mut self, ch: ChannelId) {
        let (src, dst) = {
            let c = &self.chans[ch.0 as usize];
            (self.region_map.inst(c.to), self.region_map.inst(c.from))
        };
        let at = self.now() + self.cfg.resume_latency;
        let key = self.mint_cross_key(src, dst);
        match self.cross_mode {
            CrossMode::Inline => {
                self.q.push_keyed(dst, at, key, Ev::CutCredit { ch, n: 1 });
            }
            CrossMode::Outbox => {
                self.outbox.push(CrossMsg {
                    dst,
                    at,
                    key,
                    payload: CrossPayload::Credit { ch, n: 1 },
                });
            }
        }
    }

    /// Mint the next cross-event key for the ordered region pair
    /// `(src, dst)` (see [`CROSS_BIT`]).
    #[inline]
    fn mint_cross_key(&mut self, src: usize, dst: usize) -> u64 {
        let k = self.region_map.k();
        let ctr = &mut self.cross_seq[src * k + dst];
        let key = CROSS_BIT | ((src as u64) << 48) | *ctr;
        *ctr += 1;
        key
    }

    /// Send a priority message out-of-band to an instance.
    pub fn send_priority(&mut self, to: InstId, msg: PriorityMsg) {
        let lat = self.cfg.ctrl_latency;
        let reg = self.reg(to);
        let ev = self.ev_priority(to, msg);
        self.q.schedule_tagged(reg, lat, ev);
    }

    /// Move backlog elements onto the wire while credit allows, and unblock
    /// the sender if all its backlogs drained below the resume watermark.
    pub fn pump(&mut self, ch: ChannelId) {
        loop {
            let c = &mut self.chans[ch.0 as usize];
            if c.backlog.is_empty() || !c.has_credit() {
                break;
            }
            let r = c.backlog.pop_front().expect("non-empty");
            c.in_flight += 1;
            self.put_on_wire(ch, r, true);
        }
        // Hysteresis: unblock the sender when every outgoing backlog is low.
        let from = self.chans[ch.0 as usize].from;
        if self.insts[from.0 as usize].blocked_out {
            let resume = self.cfg.backlog_resume;
            let clear = self.insts[from.0 as usize]
                .out_channels
                .iter()
                .all(|&oc| self.chans[oc.0 as usize].backlogged() < resume);
            if clear {
                self.insts[from.0 as usize].blocked_out = false;
                let reg = self.reg(from) as u8;
                self.bus.publish(
                    self.q.now(),
                    reg,
                    BusEventKind::BackpressureResume { inst: from.0 },
                );
                self.wake(from);
            }
        }
    }

    /// Pop the front element of a channel, refilling from the backlog. The
    /// element leaves the arena here — the single payload move on the
    /// consume side.
    pub fn chan_pop(&mut self, ch: ChannelId) -> Option<StreamElement> {
        match self.chans[ch.0 as usize].queue.pop_front() {
            Some(r) => {
                self.after_chan_pop(ch);
                Some(self.arena.remove(r))
            }
            None => None,
        }
    }

    /// Remove the element at queue position `idx` (intra-channel
    /// scheduling). Position 0 is the front.
    pub fn chan_remove_at(&mut self, ch: ChannelId, idx: usize) -> Option<StreamElement> {
        match self.chans[ch.0 as usize].queue.remove(idx) {
            Some(r) => {
                self.after_chan_pop(ch);
                Some(self.arena.remove(r))
            }
            None => None,
        }
    }

    /// A receiver-queue slot just freed: refill the channel. On a cut
    /// channel in PDES mode the freed credit travels back to the sender's
    /// region as a latency-bearing `CutCredit` event; everywhere else the
    /// synchronous `pump` runs as before.
    #[inline]
    fn after_chan_pop(&mut self, ch: ChannelId) {
        if self.pdes && self.chans[ch.0 as usize].cut {
            self.return_cut_credit(ch);
        } else {
            self.pump(ch);
        }
    }

    /// Peek the element at the front of a channel's receiver queue.
    #[inline]
    pub fn chan_front(&self, ch: ChannelId) -> Option<&StreamElement> {
        self.chans[ch.0 as usize]
            .queue
            .front()
            .map(|&r| &self.arena[r])
    }

    /// Peek the element at receiver-queue position `idx` (0 = front).
    #[inline]
    pub fn chan_peek(&self, ch: ChannelId, idx: usize) -> Option<&StreamElement> {
        self.chans[ch.0 as usize]
            .queue
            .get(idx)
            .map(|&r| &self.arena[r])
    }

    /// Channel between two instances on an edge.
    pub fn channel_between(&self, edge: EdgeId, from: InstId, to: InstId) -> Option<ChannelId> {
        self.edges[edge.0 as usize].channel(from, to)
    }

    // -----------------------------------------------------------------
    // Emission & routing
    // -----------------------------------------------------------------

    /// Emit records produced by `inst` onto all its out edges, draining the
    /// buffer (its capacity is preserved so callers can reuse it).
    pub fn emit_records(&mut self, inst: InstId, records: &mut Vec<Record>) {
        let mut taken = std::mem::take(records);
        for rec in taken.drain(..) {
            self.emit_one(inst, rec);
        }
        // Hand the (empty, capacity-preserving) allocation back.
        *records = taken;
    }

    /// Emit one record produced by `inst` (stamps the origin sequence).
    pub fn emit_one(&mut self, inst: InstId, mut rec: Record) {
        let seq = self.insts[inst.0 as usize].next_seq();
        rec.origin = (inst, seq);
        self.fan_out(inst, rec);
    }

    /// Route an already-stamped record onto every out edge of `inst`,
    /// cloning only for all-but-the-last edge (single-edge operators — the
    /// common case — move the record straight through).
    fn fan_out(&mut self, inst: InstId, rec: Record) {
        let opi = self.insts[inst.0 as usize].op.0 as usize;
        let n = self.ops[opi].out_edges.len();
        for k in 0..n {
            let e = self.ops[opi].out_edges[k];
            if k + 1 == n {
                self.route_record(inst, e, rec);
                return;
            }
            self.route_record(inst, e, rec.clone());
        }
    }

    fn route_record(&mut self, from: InstId, eid: EdgeId, rec: Record) {
        let edge = &self.edges[eid.0 as usize];
        let kind = edge.kind;
        match kind {
            EdgeKind::Keyed if rec.kind == RecordKind::Data => {
                let kg = key_group_of(rec.key, self.cfg.max_key_groups);
                let dest = edge
                    .table(from)
                    .unwrap_or_else(|| panic!("no routing table for {from} on edge {}", eid.0))
                    .route(kg);
                let ch = edge.channel_of(from, dest);
                self.send(ch, StreamElement::Record(rec));
            }
            _ => {
                // Rebalance, broadcast, and all markers: markers round-robin
                // over operational destinations so they sample every path.
                if kind == EdgeKind::Broadcast && rec.kind == RecordKind::Data {
                    let toi = edge.to.0 as usize;
                    let n = self.ops[toi].instances.len();
                    for k in 0..n {
                        let ti = self.ops[toi].instances[k];
                        let ch = self.edges[eid.0 as usize].channel_of(from, ti);
                        if k + 1 == n {
                            self.send(ch, StreamElement::Record(rec));
                            return;
                        }
                        self.send(ch, StreamElement::Record(rec.clone()));
                    }
                    return;
                }
                // Round-robin only over operational, non-retiring
                // destinations: freshly deployed instances must not swallow
                // traffic (or markers) while their container is still
                // initializing, and retiring instances receive nothing new.
                // Two in-place scans (count, then pick) keep this
                // allocation-free; destination lists are a handful of
                // instances, and the retiring probe is a bitset read.
                let now = self.now();
                let toi = self.edges[eid.0 as usize].to.0 as usize;
                let eligible = |w: &World, i: InstId| {
                    w.insts[i.0 as usize].operational_at <= now && !w.scale.retiring.contains(i)
                };
                let mut count = 0usize;
                for k in 0..self.ops[toi].instances.len() {
                    let i = self.ops[toi].instances[k];
                    if eligible(self, i) {
                        count += 1;
                    }
                }
                if count == 0 {
                    return;
                }
                let cursor = {
                    let c = &mut self.insts[from.0 as usize].rr_cursor[eid.0 as usize];
                    *c += 1;
                    *c
                };
                let pick = cursor % count;
                let mut seen = 0usize;
                for k in 0..self.ops[toi].instances.len() {
                    let i = self.ops[toi].instances[k];
                    if eligible(self, i) {
                        if seen == pick {
                            let ch = self.edges[eid.0 as usize].channel_of(from, i);
                            self.send(ch, StreamElement::Record(rec));
                            return;
                        }
                        seen += 1;
                    }
                }
                unreachable!("pick < count");
            }
        }
    }

    /// Broadcast a watermark from `inst` on every out channel.
    pub fn broadcast_watermark(&mut self, inst: InstId, wm: SimTime) {
        let n = self.insts[inst.0 as usize].out_channels.len();
        for k in 0..n {
            let ch = self.insts[inst.0 as usize].out_channels[k];
            self.send(ch, StreamElement::Watermark(wm));
        }
    }

    fn broadcast_ckpt(&mut self, inst: InstId, id: u64) {
        let n = self.insts[inst.0 as usize].out_channels.len();
        for k in 0..n {
            let ch = self.insts[inst.0 as usize].out_channels[k];
            self.send(ch, StreamElement::CheckpointBarrier(id));
        }
    }

    // -----------------------------------------------------------------
    // Routing-table updates (used by scaling mechanisms)
    // -----------------------------------------------------------------

    /// Update one predecessor's routing for a set of key-groups on every
    /// keyed input edge of the scaling operator. (The touched edges are
    /// exactly [`Self::keyed_in_edges`]; callers that need them can read
    /// the cache directly.)
    pub fn reroute_groups(&mut self, op: OpId, pred: InstId, kgs: &[KeyGroup], to: InstId) {
        let n = self.ops[op.0 as usize].keyed_in_edges.len();
        for k in 0..n {
            let e = self.ops[op.0 as usize].keyed_in_edges[k];
            if let Some(t) = self.edges[e.0 as usize].table_mut(pred) {
                for &kg in kgs {
                    t.set(kg, to);
                }
            }
        }
    }

    /// All upstream instances feeding the keyed inputs of `op` (cached;
    /// refreshed whenever an upstream instance list changes).
    #[inline]
    pub fn predecessors(&self, op: OpId) -> &[InstId] {
        &self.ops[op.0 as usize].pred_insts
    }

    /// Rebuild the cached predecessor lists of every operator downstream
    /// of `op`. Must be called whenever `op`'s instance list changes
    /// (scale-out instance creation, retirement removal).
    fn refresh_pred_caches_after(&mut self, op: OpId) {
        let outs = self.ops[op.0 as usize].out_edges.clone();
        for e in outs {
            let to = self.edges[e.0 as usize].to;
            let preds = compute_pred_insts(&self.ops[to.0 as usize], &self.ops, &self.edges);
            self.ops[to.0 as usize].pred_insts = preds;
        }
    }

    // -----------------------------------------------------------------
    // Migration links
    // -----------------------------------------------------------------

    /// Extract a whole key-group at `from` and enqueue its units for
    /// migration to `to` under `subscale`.
    pub fn migrate_group(&mut self, from: InstId, to: InstId, kg: KeyGroup, subscale: SubscaleId) {
        let units = self.insts[from.0 as usize].state.extract_group(kg);
        for u in units {
            self.enqueue_unit(from, to, u, subscale);
        }
    }

    /// Extract a single sub-group and enqueue it.
    pub fn migrate_unit(
        &mut self,
        from: InstId,
        to: InstId,
        kg: KeyGroup,
        sub: u8,
        subscale: SubscaleId,
    ) -> bool {
        match self.insts[from.0 as usize].state.extract(kg, sub) {
            Some(u) => {
                self.enqueue_unit(from, to, u, subscale);
                true
            }
            None => false,
        }
    }

    fn enqueue_unit(&mut self, from: InstId, to: InstId, unit: StateUnit, subscale: SubscaleId) {
        self.scale
            .unit_loc
            .insert((unit.kg.0, unit.sub), (from, Some(to)));
        let link = self.scale.links.entry(from).or_default();
        link.queue.push_back((to, unit, subscale));
        if !link.busy {
            self.link_start(from);
        }
    }

    fn link_start(&mut self, from: InstId) {
        let now = self.now();
        let Some(link) = self.scale.links.get_mut(&from) else {
            return;
        };
        let Some((_to, unit, ss)) = link.queue.front() else {
            link.busy = false;
            return;
        };
        link.busy = true;
        let bytes = unit.bytes();
        let ss = *ss;
        let dur = (bytes as f64 / self.cfg.ser_bytes_per_us).ceil() as SimTime
            + transfer_time(bytes, self.cfg.migration_gbps)
            + 1;
        self.scale.metrics.first_migration.entry(ss).or_insert(now);
        self.scale.metrics.bytes_transferred += bytes;
        let reg = self.reg(from);
        self.q.schedule_tagged(reg, dur, Ev::LinkSendDone { from });
    }

    /// Install a migrated unit at `inst`. `active = false` keeps the
    /// key-group present-but-inactive (DRRS implicit alignment).
    pub fn install_unit(&mut self, inst: InstId, unit: StateUnit, active: bool) {
        let key = (unit.kg.0, unit.sub);
        let now = self.now();
        self.scale.metrics.unit_installed.insert(key, now);
        *self.scale.metrics.unit_migrations.entry(key).or_insert(0) += 1;
        self.scale.unit_loc.insert(key, (inst, None));
        self.insts[inst.0 as usize].state.install(unit, active);
        self.check_scale_complete();
        self.wake(inst);
    }

    fn check_scale_complete(&mut self) {
        if !self.scale.in_progress {
            return;
        }
        let done = self
            .scale
            .plan
            .as_ref()
            .map(|p| {
                p.moves
                    .iter()
                    .all(|m| self.insts[m.to.0 as usize].state.holds_group(m.kg))
            })
            .unwrap_or(false);
        if done {
            self.scale.in_progress = false;
            self.scale.metrics.migration_done = Some(self.now());
        }
    }

    // -----------------------------------------------------------------
    // Alignment-style channel blocking (checkpoints + coupled barriers)
    // -----------------------------------------------------------------

    /// Block consumption from a channel at its receiver.
    pub fn block_channel(&mut self, ch: ChannelId) {
        let to = self.chans[ch.0 as usize].to;
        self.insts[to.0 as usize].blocked_channels.insert(ch);
    }

    /// Unblock a channel and wake the receiver.
    pub fn unblock_channel(&mut self, ch: ChannelId) {
        let to = self.chans[ch.0 as usize].to;
        self.insts[to.0 as usize].blocked_channels.remove(&ch);
        self.wake(to);
    }

    // -----------------------------------------------------------------
    // Stop-restart support
    // -----------------------------------------------------------------

    /// Halt every instance (global stop). Sources keep *generating* (the
    /// Kafka backlog grows) but nothing is drained or processed.
    pub fn halt_all(&mut self) {
        for i in &mut self.insts {
            i.halted = true;
        }
    }

    /// Resume every instance after a halt.
    pub fn resume_all(&mut self) {
        let ids: Vec<InstId> = self.insts.iter().map(|i| i.id).collect();
        for i in &mut self.insts {
            i.halted = false;
        }
        for id in ids {
            self.wake(id);
        }
    }

    /// A deterministic digest of the run's observable state: metrics,
    /// per-instance progress, state sizes and watermarks. Two runs with the
    /// same seed and timeline must produce identical digests — the
    /// regression guard for every hot-path data-structure swap.
    /// Delegates to [`Observables::digest`] so a sequential world and a
    /// merge of parallel replicas hash the exact same serialization.
    pub fn metrics_digest(&self) -> u64 {
        self.observables().digest()
    }

    /// Snapshot everything [`Self::metrics_digest`] hashes into a
    /// plain-data, `Send` value. The thread-per-region executor collects
    /// one per replica and [`Observables::merge`]s them into the view the
    /// sequential engine would have produced.
    pub fn observables(&self) -> Observables {
        Observables {
            sink_records: self.metrics.sink_records,
            processed: self.q.processed(),
            latency: self.metrics.latency.points().to_vec(),
            source_counts: self.metrics.source_counts.clone(),
            violations: self.semantics.violations(),
            per_inst: self
                .insts
                .iter()
                .map(|i| InstObservables {
                    processed: i.processed,
                    watermark: i.watermark,
                    state_bytes: i.state.total_bytes(),
                    state_keys: i.state.total_keys() as u64,
                    suspended_total: i.suspended_total,
                })
                .collect(),
            inst_regions: self
                .insts
                .iter()
                .map(|i| self.region_map.inst(i.id) as u8)
                .collect(),
            bytes_transferred: self.scale.metrics.bytes_transferred,
            now: self.now(),
        }
    }

    /// Total nominal state bytes across instances of an operator.
    pub fn op_state_bytes(&self, op: OpId) -> u64 {
        self.ops[op.0 as usize]
            .instances
            .iter()
            .map(|&i| self.insts[i.0 as usize].state.total_bytes())
            .sum()
    }
}

// ---------------------------------------------------------------------
// Event dispatch
// ---------------------------------------------------------------------

impl World {
    /// Handle one event. The driver ([`Sim`]) owns the plugin.
    pub fn dispatch(&mut self, plugin: &mut dyn ScalePlugin, ev: Ev) {
        match ev {
            Ev::SourceTick { inst } => self.on_source_tick(inst),
            Ev::Deliver { burst } => {
                let mut elems = self.take_burst(burst);
                for WireElem { ch, elem, credited } in elems.drain(..) {
                    let c = &mut self.chans[ch.0 as usize];
                    if credited {
                        // A credited delivery without a matching in-flight
                        // element is a credit-accounting bug — surface it
                        // loudly in debug builds instead of silently
                        // clamping.
                        debug_assert!(
                            c.in_flight > 0,
                            "credited Deliver on {:?} with in_flight == 0",
                            c.id
                        );
                        c.in_flight = c.in_flight.saturating_sub(1);
                    }
                    c.queue.push_back(elem);
                    let to = c.to;
                    self.try_start(plugin, to);
                }
                self.bursts.give_back(burst, elems);
            }
            Ev::Priority { to, slot } => {
                let msg = self.ctrl.take_priority(slot);
                self.on_priority(plugin, to, msg)
            }
            Ev::ProcDone { inst, gen } => self.on_proc_done(plugin, inst, gen),
            Ev::LinkSendDone { from } => self.on_link_done(plugin, from),
            Ev::Control { slot } => {
                let cmd = self.ctrl.take_control(slot);
                self.on_control(plugin, cmd)
            }
            Ev::CutCredit { ch, n } => self.on_cut_credit(ch, n),
            Ev::Sample => self.on_sample(),
            Ev::Wake { inst } => self.try_start(plugin, inst),
        }
    }

    /// Take a burst's elements for dispatch (closing it to further sends)
    /// and count all but the first as processed in the burst's region: the
    /// pop counted the event, the logical count is per element.
    // checker:hot-path
    #[inline]
    fn take_burst(&mut self, burst: u32) -> Vec<WireElem> {
        let elems = self.bursts.take(burst);
        if elems.len() > 1 {
            let reg = self.region_map.inst(self.chans[elems[0].ch.0 as usize].to);
            self.q.note_coalesced(reg, elems.len() as u64 - 1);
        }
        elems
    }

    /// Credits returned to a cut channel's sender (PDES mode): grow the
    /// sender-owned pool, drain backlog onto the wire while credit lasts,
    /// and apply the same hysteresis unblock `pump` uses.
    fn on_cut_credit(&mut self, ch: ChannelId, n: u32) {
        self.chans[ch.0 as usize].cut_credits += n as usize;
        loop {
            let c = &mut self.chans[ch.0 as usize];
            if c.backlog.is_empty() || c.cut_credits == 0 {
                break;
            }
            c.cut_credits -= 1;
            let r = c.backlog.pop_front().expect("non-empty");
            self.cross_deliver_ref(ch, r);
        }
        let from = self.chans[ch.0 as usize].from;
        if self.insts[from.0 as usize].blocked_out {
            let resume = self.cfg.backlog_resume;
            let clear = self.insts[from.0 as usize]
                .out_channels
                .iter()
                .all(|&oc| self.chans[oc.0 as usize].backlogged() < resume);
            if clear {
                self.insts[from.0 as usize].blocked_out = false;
                let reg = self.reg(from) as u8;
                self.bus.publish(
                    self.q.now(),
                    reg,
                    BusEventKind::BackpressureResume { inst: from.0 },
                );
                self.wake(from);
            }
        }
    }

    /// Dispatch a whole same-instant run (drained by `pop_run_at_most`).
    ///
    /// **Bursts.** A `Deliver` event stands for a whole send burst (the
    /// contract, with its four extension conditions, is on
    /// [`Ev::Deliver`]). Its elements are taken out of the [`BurstStore`]
    /// when the event's turn comes — not when the run was drained — so a
    /// send made by an earlier event of this very run may still have
    /// extended it; once taken, a burst is closed and any further send
    /// opens a new one, which pops as a later run. The elements are then
    /// walked one at a time, exactly as if each had been an event of its
    /// own: scheduled that way they would have carried consecutive `seq`s
    /// at this instant in this region, nothing could have sorted between
    /// two of them (an explicit-key `push_keyed` mints no `seq`, and
    /// `CROSS_BIT` keys sort after every minted one), so the order of
    /// every side effect is unchanged. `dispatch` walks the same elements
    /// with the plain per-element body; both count them as processed.
    ///
    /// **Fusing.** Across the elements of a burst and across consecutive
    /// `Deliver` events: while deliveries target the same channel and the
    /// receiver provably cannot start work, the per-element `try_start` is
    /// skipped and the credit decrement is batched into one channel borrow
    /// per (channel, streak).
    ///
    /// **Exactness of the fusing.** Single-pop semantics per delivery are
    /// `in_flight -= 1; queue.push_back; try_start(to)`. `try_start`
    /// returns without any side effect when the receiver is halted, busy,
    /// not yet operational, or output-blocked (for a source,
    /// `drain_source` breaks immediately on `blocked_out`) — and none of
    /// those guard fields can change while we only push handles and count
    /// credits, so skipping those calls is observationally identical. The
    /// moment a delivery's `try_start` is *not* provably a no-op, the
    /// deferred credits are flushed first — `try_start → build_run →
    /// chan_pop → pump` reads `has_credit()`, which must see the exact
    /// sequential `in_flight`. Deliveries are still pushed strictly one
    /// at a time before their own `try_start` (batching the pushes would
    /// let the first quantum see later records). The tests that drive the
    /// one-event-at-a-time loop by hand against `Sim::dispatch_until`
    /// enforce all of this.
    pub fn dispatch_run(&mut self, plugin: &mut dyn ScalePlugin, buf: &mut Vec<Ev>) {
        // Deferred credit decrements for the current Deliver streak.
        let mut cur: Option<(ChannelId, usize)> = None;
        macro_rules! flush {
            () => {
                if let Some((ch, credits)) = cur.take() {
                    if credits > 0 {
                        let c = &mut self.chans[ch.0 as usize];
                        debug_assert!(
                            c.in_flight >= credits,
                            "batched credit underflow on {:?}",
                            c.id
                        );
                        c.in_flight = c.in_flight.saturating_sub(credits);
                    }
                }
            };
        }
        for ev in buf.drain(..) {
            if let Ev::Deliver { burst } = ev {
                let mut elems = self.take_burst(burst);
                for WireElem { ch, elem, credited } in elems.drain(..) {
                    match &mut cur {
                        Some((c, credits)) if *c == ch => *credits += credited as usize,
                        _ => {
                            flush!();
                            cur = Some((ch, credited as usize));
                        }
                    }
                    let to = self.chans[ch.0 as usize].to;
                    let noop = {
                        let i = &self.insts[to.0 as usize];
                        i.halted || i.busy || self.q.now() < i.operational_at || i.blocked_out
                    };
                    self.chans[ch.0 as usize].queue.push_back(elem);
                    if !noop {
                        flush!();
                        self.try_start(plugin, to);
                    }
                }
                self.bursts.give_back(burst, elems);
            } else {
                // Any other event may observe channel credit (wakes,
                // control, proc-done all can reach `pump`): settle first.
                flush!();
                self.dispatch(plugin, ev);
            }
        }
        flush!();
    }

    fn on_priority(&mut self, plugin: &mut dyn ScalePlugin, to: InstId, msg: PriorityMsg) {
        match msg {
            PriorityMsg::Signal(sig) => plugin.on_priority_signal(self, to, sig),
            PriorityMsg::Chunk {
                unit,
                subscale,
                from,
            } => plugin.on_chunk(self, to, *unit, subscale, from),
            PriorityMsg::ReroutedRecords { from, records } => {
                plugin.on_rerouted_records(self, to, from, records)
            }
            PriorityMsg::ReroutedConfirm { from, signal } => {
                plugin.on_rerouted_confirm(self, to, from, signal)
            }
            PriorityMsg::Fetch { kg, sub, requester } => {
                plugin.on_fetch(self, to, kg, sub, requester)
            }
        }
        self.try_start(plugin, to);
    }

    fn on_link_done(&mut self, plugin: &mut dyn ScalePlugin, from: InstId) {
        let Some(link) = self.scale.links.get_mut(&from) else {
            return;
        };
        let Some((to, unit, ss)) = link.queue.pop_front() else {
            return;
        };
        link.busy = false;
        let lat = self.cfg.net_latency;
        let reg = self.reg(to);
        let ev = self.ev_priority(
            to,
            PriorityMsg::Chunk {
                unit: Box::new(unit),
                subscale: ss,
                from,
            },
        );
        self.q.schedule_tagged(reg, lat, ev);
        self.link_start(from);
        let _ = plugin;
    }

    fn on_control(&mut self, plugin: &mut dyn ScalePlugin, cmd: ControlMsg) {
        match cmd {
            ControlMsg::StartScale(plan) => self.start_scale(plan),
            ControlMsg::DeployDone { epoch } => {
                if epoch == self.scale.epoch {
                    self.scale.metrics.deployed_at = Some(self.now());
                    self.bus
                        .publish(self.now(), 0, BusEventKind::ScaleDeployed { epoch });
                    let plan = self.scale.plan.clone().expect("deploying plan");
                    plugin.on_scale_start(self, &plan);
                }
            }
            ControlMsg::Plugin(tag) => plugin.on_control(self, tag),
            ControlMsg::CheckpointTick => {
                // The paper (§IV-C) prevents concurrent fault tolerance and
                // scaling: defer the checkpoint until migration completes.
                if self.scale.in_progress {
                    let ev = self.ev_control(ControlMsg::CheckpointTick);
                    self.q.schedule(MICROS_PER_SEC_DEFER, ev);
                    return;
                }
                self.next_ckpt += 1;
                let id = self.next_ckpt;
                self.bus
                    .publish(self.now(), 0, BusEventKind::CheckpointStart { id });
                for i in 0..self.insts.len() {
                    if let Some(src) = self.insts[i].source.as_mut() {
                        src.pending.push_back(Record {
                            key: id,
                            value: 0,
                            event_time: self.q.now(),
                            created: self.q.now(),
                            kind: RecordKind::Data,
                            origin: (InstId(i as u32), 0),
                            count: 0, // sentinel: count==0 marks a barrier carrier
                        });
                    }
                }
                if let Some(iv) = self.cfg.checkpoint_interval {
                    let ev = self.ev_control(ControlMsg::CheckpointTick);
                    self.q.schedule(iv, ev);
                }
            }
        }
    }

    fn start_scale(&mut self, mut plan: ScalePlan) {
        assert!(
            !self.pdes,
            "scaling operations are not supported in PDES mode \
             (resume_latency > 0, regions > 1): migration links and \
             re-routing cross regions without credit/lookahead accounting"
        );
        // Concurrent scaling requests (paper §IV-B scenario 1): the newer
        // request supersedes the older one. We realize this as deferral —
        // re-present the request once in-flight migrations have landed, so
        // no state unit is ever in two plans at once.
        if self.scale.in_progress {
            let ev = self.ev_control(ControlMsg::StartScale(plan));
            self.q.schedule(MICROS_PER_SEC_DEFER / 2, ev);
            return;
        }
        let now = self.now();
        self.scale.epoch += 1;
        let epoch = self.scale.epoch;
        let op = plan.op;
        self.suspension_op = Some(op);

        // Create the new instances (scale-out), or mark the tail instances
        // retiring (scale-in: they keep draining but receive no new traffic
        // and are halted once empty).
        let old_insts = self.ops[op.0 as usize].instances.clone();
        let mut all_insts = old_insts.clone();
        self.scale.new_instances.clear();
        self.scale.retiring.clear();
        if plan.new_parallelism < old_insts.len() {
            self.scale
                .retiring
                .assign(&old_insts[plan.new_parallelism..]);
            all_insts.truncate(plan.new_parallelism);
        }
        for li in old_insts.len()..plan.new_parallelism {
            let id = InstId(self.insts.len() as u32);
            let mut inst = Instance::new(
                id,
                op,
                li,
                StateBackend::new(self.cfg.max_key_groups, self.cfg.sub_group_fanout),
            );
            inst.operational_at = now + self.cfg.deploy_delay;
            inst.logic = Some((self.ops[op.0 as usize]
                .logic_factory
                .as_ref()
                .expect("scaling a transform operator"))());
            inst.rr_cursor = vec![0; self.edges.len()];
            self.insts.push(inst);
            self.pending_runs.push(Vec::new());
            self.ops[op.0 as usize].instances.push(id);
            self.scale.new_instances.push(id);
            all_insts.push(id);

            // Wire channels: predecessors → new instance.
            for eid in self.ops[op.0 as usize].in_edges.clone() {
                let from_op = self.edges[eid.0 as usize].from;
                for fi in self.ops[from_op.0 as usize].instances.clone() {
                    let cid = ChannelId(self.chans.len() as u32);
                    self.chans.push(Channel::new(
                        cid,
                        fi,
                        id,
                        self.cfg.channel_capacity,
                        self.cfg.net_latency,
                    ));
                    self.edges[eid.0 as usize].add_channel(fi, id, cid);
                    self.insts[fi.0 as usize].out_channels.push(cid);
                    self.insts[id.0 as usize].in_channels.push(cid);
                }
            }
            // New instance → successors.
            for eid in self.ops[op.0 as usize].out_edges.clone() {
                let to_op = self.edges[eid.0 as usize].to;
                for ti in self.ops[to_op.0 as usize].instances.clone() {
                    let cid = ChannelId(self.chans.len() as u32);
                    self.chans.push(Channel::new(
                        cid,
                        id,
                        ti,
                        self.cfg.channel_capacity,
                        self.cfg.net_latency,
                    ));
                    self.edges[eid.0 as usize].add_channel(id, ti, cid);
                    self.insts[id.0 as usize].out_channels.push(cid);
                    // Initialize the successor's view of this channel's
                    // watermark to its current one so downstream windows do
                    // not stall on the fresh channel.
                    let cur = self.insts[ti.0 as usize].watermark;
                    self.chans[cid.0 as usize].rx_watermark = cur;
                    self.insts[ti.0 as usize].in_channels.push(cid);
                }
            }
        }

        // Fold the freshly wired channels into the dense per-edge indices —
        // the one (cold) rebuild point; per-record routing never re-indexes.
        let n_insts = self.insts.len();
        for eid in self.ops[op.0 as usize]
            .in_edges
            .iter()
            .chain(self.ops[op.0 as usize].out_edges.iter())
            .copied()
            .collect::<Vec<_>>()
        {
            self.edges[eid.0 as usize].rebuild_index(n_insts);
        }

        // The scaled operator's instance list changed: downstream operators'
        // cached predecessor lists must see the new instances.
        self.refresh_pred_caches_after(op);

        // Compute the moves with the uniform re-partitioning strategy.
        let base = self
            .keyed_in_edges(op)
            .first()
            .map(|&e| {
                let edge = &self.edges[e.0 as usize];
                let any_pred = self.ops[edge.from.0 as usize].instances[0];
                edge.table(any_pred)
                    .expect("predecessor routing table on keyed edge")
                    .clone()
            })
            .expect("scaling operator must have a keyed input");
        plan.moves = match plan.strategy {
            crate::keygroup::Repartition::Uniform => uniform_repartition(&base, &all_insts),
            crate::keygroup::Repartition::MinimalMoves => {
                crate::keygroup::minimal_repartition(&base, &all_insts)
            }
        };

        self.scale.plan = Some(plan);
        self.scale.in_progress = true;
        self.scale.metrics = Default::default();
        self.scale.metrics.requested_at = Some(now);
        {
            let p = self.scale.plan.as_ref().expect("just set");
            self.bus.publish(
                now,
                0,
                BusEventKind::ScalePlanned {
                    op: op.0,
                    old_par: p.old_parallelism as u32,
                    new_par: p.new_parallelism as u32,
                    moves: p.moves.len() as u64,
                    epoch,
                },
            );
        }
        // Seed the unit location registry.
        let fanout = self.cfg.sub_group_fanout.max(1);
        let moves = self.scale.plan.as_ref().expect("just set").moves.clone();
        for m in &moves {
            for s in 0..fanout {
                self.scale.unit_loc.insert((m.kg.0, s), (m.from, None));
            }
        }
        let delay = self.cfg.deploy_delay;
        let ev = self.ev_control(ControlMsg::DeployDone { epoch });
        self.q.schedule(delay, ev);
    }

    fn on_sample(&mut self) {
        let now = self.now();
        self.maybe_retire();
        if let Some(op) = self.suspension_op {
            let total: SimTime = self.ops[op.0 as usize]
                .instances
                .iter()
                .map(|&i| self.insts[i.0 as usize].suspension_as_of(now))
                .sum();
            self.metrics.suspension.push(now, total as f64);
        }
        if self.bus.enabled() {
            // Per-instance progress ticks. `Ev::Sample` is pinned to
            // region 0, so under the thread-per-region executor (Outbox
            // mode) the sampler sees other regions' instance state frozen
            // at replica-pruning time — tick only the instances this
            // replica owns; whole-fleet snapshots come from
            // `Observables::merge`. The sequential engine ticks everyone.
            let outbox = self.cross_mode == CrossMode::Outbox;
            for i in 0..self.insts.len() {
                let reg = self.region_map.inst(self.insts[i].id) as u8;
                if outbox && reg != 0 {
                    continue;
                }
                let tick = BusEventKind::MetricsTick {
                    inst: self.insts[i].id.0,
                    processed: self.insts[i].processed,
                    state_bytes: self.insts[i].state.total_bytes(),
                    watermark: self.insts[i].watermark,
                };
                self.bus.publish(now, reg, tick);
            }
            // Sequential PDES runs surface the region scheduler's
            // cumulative sync accounting here; the parallel executor
            // publishes its own per-epoch `SyncEpoch` events instead.
            if self.pdes && !outbox {
                let s = self.q.region_sync_stats();
                let ev = BusEventKind::SyncEpoch {
                    epochs: s.runs,
                    dispatched: self.q.processed(),
                    merged: s.merged_runs,
                    grants: s.min_rule_grants,
                };
                self.bus.publish(now, 0, ev);
            }
        }
        self.bus.on_sample();
        let iv = self.cfg.sample_interval;
        self.q.schedule(iv, Ev::Sample);
    }

    /// Halt retiring instances once their migration finished and their
    /// queues drained, and remove them from the operator's instance list.
    fn maybe_retire(&mut self) {
        if self.scale.in_progress || self.scale.retiring.is_empty() {
            return;
        }
        let ready: Vec<InstId> = self
            .scale
            .retiring
            .iter()
            .filter(|&i| {
                let inst = &self.insts[i.0 as usize];
                !inst.busy
                    && inst
                        .in_channels
                        .iter()
                        .all(|&c| self.chans[c.0 as usize].occupancy() == 0)
            })
            .collect();
        let mut changed_op = None;
        for i in ready {
            self.insts[i.0 as usize].halted = true;
            self.scale.retiring.remove(i);
            if let Some(plan) = self.scale.plan.as_ref() {
                let op = plan.op;
                self.ops[op.0 as usize].instances.retain(|&x| x != i);
                changed_op = Some(op);
            }
        }
        if let Some(op) = changed_op {
            self.refresh_pred_caches_after(op);
        }
    }

    // -----------------------------------------------------------------
    // Sources
    // -----------------------------------------------------------------

    // checker:hot-path
    fn on_source_tick(&mut self, inst: InstId) {
        let now = self.now();
        let reg = self.reg(inst);
        let pdes = self.pdes;
        {
            let i = &mut self.insts[inst.0 as usize];
            let src = i.source.as_mut().expect("source tick on non-source");
            // Generate records for this tick.
            let rate = src.gen.rate(now);
            let mut due = rate * TICK as f64 / 1_000_000.0 + src.carry;
            let limit_hit = src.gen.limit().map(|l| src.generated >= l).unwrap_or(false);
            if limit_hit {
                due = 0.0;
            }
            let n = due as u64;
            src.carry = due - n as f64;
            let batch = src.gen.batch().max(1) as u64;
            src.pending.push_tick(now, n, batch, || src.gen.next(now));
            src.generated += n;
            // Latency markers. In PDES mode the key draw comes from the
            // region's own RNG stripe: a single global stream would make
            // the draw order depend on how source ticks across regions
            // interleave, which the parallel replicas cannot reproduce.
            while src.next_marker <= now {
                src.next_marker += self.cfg.marker_interval;
                let key = if pdes {
                    self.rngs[reg].below(u32::MAX as u64)
                } else {
                    self.rng.below(u32::MAX as u64)
                };
                let mut m = Record::data(key, 0, now);
                m.kind = RecordKind::Marker;
                m.created = now;
                src.pending.push_back(m);
            }
            // Watermarks ride in pending too (in-order with the data).
            while src.next_watermark <= now {
                src.next_watermark += self.cfg.watermark_interval;
                let mut wm = Record::data(0, 0, now);
                wm.count = u32::MAX; // sentinel: watermark carrier
                src.pending.push_back(wm);
            }
        }
        self.drain_source(inst);
        self.q.schedule_tagged(reg, TICK, Ev::SourceTick { inst });
    }

    // checker:hot-path
    fn drain_source(&mut self, inst: InstId) {
        let now = self.now();
        loop {
            let rec = {
                let i = &mut self.insts[inst.0 as usize];
                if i.halted || i.blocked_out {
                    break;
                }
                match i.source.as_mut().and_then(|s| s.pending.pop_front()) {
                    Some(rec) => rec,
                    None => break,
                }
            };
            if rec.count == u32::MAX {
                // Watermark carrier.
                self.broadcast_watermark(inst, rec.event_time);
            } else if rec.count == 0 {
                // Checkpoint barrier carrier.
                self.broadcast_ckpt(inst, rec.key);
            } else {
                let n = rec.count as u64;
                self.emit_one(inst, rec);
                self.metrics.count_source(now, n);
                if let Some(src) = self.insts[inst.0 as usize].source.as_mut() {
                    src.emitted += n;
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // Instance processing
    // -----------------------------------------------------------------

    /// Attempt to start work at an instance. Safe to call at any time.
    pub fn try_start(&mut self, plugin: &mut dyn ScalePlugin, inst: InstId) {
        loop {
            {
                let i = &self.insts[inst.0 as usize];
                if i.halted || i.busy || self.now() < i.operational_at {
                    return;
                }
                if i.source.is_some() {
                    break;
                }
                if i.blocked_out {
                    return;
                }
            }
            let sel = if plugin.selects(self, inst) {
                plugin.select(self, inst)
            } else {
                self.default_select(plugin, inst)
            };
            match sel {
                Selection::Control(ch, elem) => {
                    self.handle_control_elem(plugin, inst, ch, elem);
                    // Loop: look for more work at the same instant.
                }
                Selection::Run { records, service } => {
                    let now = self.now();
                    let i = &mut self.insts[inst.0 as usize];
                    i.leave_suspend(now);
                    i.busy = true;
                    i.proc_gen += 1;
                    let gen = i.proc_gen;
                    // The slot holds an empty Vec (drained by the previous
                    // `on_proc_done`); dropping it frees nothing.
                    self.pending_runs[inst.0 as usize] = records;
                    let reg = self.reg(inst);
                    self.q
                        .schedule_tagged(reg, service.max(1), Ev::ProcDone { inst, gen });
                    return;
                }
                Selection::Suspend => {
                    let now = self.now();
                    self.insts[inst.0 as usize].enter_suspend(now);
                    return;
                }
                Selection::Idle => {
                    let now = self.now();
                    self.insts[inst.0 as usize].leave_suspend(now);
                    return;
                }
            }
        }
        // Sources fall through to draining.
        self.drain_source(inst);
    }

    /// Engine-default input selection: active-channel discipline with the
    /// plugin's admission filter (the generalized-OTFS behaviour from the
    /// paper's Fig. 6 — suspend when the active channel's head is
    /// unprocessable, even if other channels have processable records).
    pub fn default_select(&mut self, plugin: &mut dyn ScalePlugin, inst: InstId) -> Selection {
        let (n, start) = {
            let i = &self.insts[inst.0 as usize];
            (i.in_channels.len(), i.active_ch)
        };
        if n == 0 {
            return Selection::Idle;
        }
        for k in 0..n {
            let idx = (start + k) % n;
            let ch = self.insts[inst.0 as usize].in_channels[idx];
            if self.insts[inst.0 as usize].blocked_channels.contains(&ch) {
                continue;
            }
            if self.chans[ch.0 as usize].queue.is_empty() {
                continue;
            }
            // First non-empty unblocked channel becomes the active channel.
            self.insts[inst.0 as usize].active_ch = idx;
            let is_record = self.chan_front(ch).map(|e| e.is_record()).unwrap_or(false);
            if !is_record {
                let elem = self.chan_pop(ch).expect("non-empty");
                return Selection::Control(ch, elem);
            }
            // Peek admission for the head record.
            let rec = self
                .chan_front(ch)
                .and_then(|e| e.as_record())
                .cloned()
                .expect("checked record");
            let admissible = rec.kind == RecordKind::Marker || plugin.admit(self, inst, ch, &rec);
            if !admissible {
                return Selection::Suspend;
            }
            return self.build_run(plugin, inst, ch);
        }
        Selection::Idle
    }

    /// An empty quantum buffer from the recycling pool (`on_proc_done`
    /// returns every finished quantum's buffer to it). Selections that
    /// assemble their own `Selection::Run` take their `records` from here,
    /// so a run costs no allocation once the pool is warm.
    #[inline]
    pub fn take_run_buf(&mut self) -> Vec<Record> {
        let buf = self.run_buf_pool.pop().unwrap_or_default();
        debug_assert!(buf.is_empty());
        buf
    }

    /// Pop a run of admissible records from `ch` bounded by the quantum.
    pub fn build_run(
        &mut self,
        plugin: &mut dyn ScalePlugin,
        inst: InstId,
        ch: ChannelId,
    ) -> Selection {
        let mut records = self.take_run_buf();
        let mut service: SimTime = 0;
        loop {
            if records.len() >= self.cfg.quantum_records || service >= self.cfg.quantum_time {
                break;
            }
            let Some(front) = self.chan_front(ch) else {
                break;
            };
            let Some(rec) = front.as_record() else { break };
            let rec = rec.clone();
            if rec.kind != RecordKind::Marker && !plugin.admit(self, inst, ch, &rec) {
                break;
            }
            service += self.service_of(inst, &rec);
            let popped = self.chan_pop(ch).expect("non-empty");
            match popped {
                StreamElement::Record(r) => records.push(r),
                _ => unreachable!("front was a record"),
            }
        }
        if records.is_empty() {
            self.run_buf_pool.push(records);
            Selection::Suspend
        } else {
            Selection::Run { records, service }
        }
    }

    /// Service time of one element at an instance.
    pub fn service_of(&self, inst: InstId, rec: &Record) -> SimTime {
        if rec.kind == RecordKind::Marker {
            return 0;
        }
        let i = &self.insts[inst.0 as usize];
        match self.ops[i.op.0 as usize].role {
            OpRole::Sink => self.ops[i.op.0 as usize].sink_service * rec.count as SimTime,
            _ => i
                .logic
                .as_ref()
                .map(|l| l.service_time(rec) * rec.count as SimTime)
                .unwrap_or(1),
        }
    }

    fn on_proc_done(&mut self, plugin: &mut dyn ScalePlugin, inst: InstId, gen: u64) {
        if self.insts[inst.0 as usize].proc_gen != gen {
            return;
        }
        self.insts[inst.0 as usize].busy = false;
        let mut records = std::mem::take(&mut self.pending_runs[inst.0 as usize]);
        for rec in records.drain(..) {
            self.apply_record(plugin, inst, rec);
        }
        // Recycle the (now empty, capacity-preserving) buffer. Bound the
        // pool so pathological plugins cannot hoard memory through it.
        if self.run_buf_pool.len() < 64 {
            self.run_buf_pool.push(records);
        }
        self.try_start(plugin, inst);
    }

    /// Apply one record at an instance (logic + emission + metrics). Public
    /// because plugins processing re-routed records call it directly.
    pub fn apply_record(&mut self, plugin: &mut dyn ScalePlugin, inst: InstId, rec: Record) {
        let now = self.now();
        let role = self.op_of(inst).role;
        self.insts[inst.0 as usize].processed += rec.count as u64;
        match role {
            OpRole::Sink => {
                if rec.kind == RecordKind::Marker {
                    self.metrics
                        .record_latency(now, now.saturating_sub(rec.created));
                } else {
                    self.metrics.sink_records += rec.count as u64;
                }
            }
            _ => {
                if rec.kind == RecordKind::Marker {
                    // Markers bypass operator logic entirely (origin is
                    // already stamped; forward as-is).
                    self.fan_out(inst, rec);
                    return;
                }
                let kg = self.kg_of(rec.key);
                // Guard (stateful operators): the sub-group may have been
                // extracted between admission and quantum completion
                // (trigger barriers bypass in-flight work). Hand such
                // records to the mechanism.
                if self.op_of(inst).stateful {
                    let sub = self.insts[inst.0 as usize].state.sub_of(rec.key);
                    if !self.insts[inst.0 as usize].state.holds(kg, sub) {
                        if plugin.on_orphan_record(self, inst, &rec) {
                            return;
                        }
                        panic!(
                            "record for absent state {kg}/{sub} at {inst} not handled by {}",
                            plugin.name()
                        );
                    }
                }
                self.apply_record_basic(inst, rec.clone());
                plugin.after_record(self, inst, &rec);
            }
        }
    }

    /// Apply a data record's logic at a transform instance without the
    /// orphan guard or plugin hooks. Plugins use this to replay records they
    /// buffered themselves (Meces orphan replay, Unbound universal keys);
    /// semantics checking still applies.
    pub fn apply_record_basic(&mut self, inst: InstId, rec: Record) {
        let now = self.now();
        let kg = self.kg_of(rec.key);
        // Per-key order is only a guarantee of keyed (hash-partitioned)
        // edges; rebalance edges interleave keys across instances by design.
        if self.cfg.check_semantics && rec.origin.0 != InstId(u32::MAX) && self.op_of(inst).stateful
        {
            let op = self.insts[inst.0 as usize].op;
            self.semantics
                .observe(op, rec.key, rec.origin.0, rec.origin.1);
        }
        let mut logic = self.insts[inst.0 as usize]
            .logic
            .take()
            .expect("transform logic");
        // Reuse the world's emission scratch: one operator invocation runs
        // at a time on this path, and `emit_records` drains it back to
        // empty before we return it.
        let mut out = std::mem::take(&mut self.emit_scratch);
        debug_assert!(out.is_empty());
        {
            let i = &mut self.insts[inst.0 as usize];
            let mut ctx = OpCtx {
                now,
                watermark: i.watermark,
                kg,
                state: &mut i.state,
                out: &mut out,
                max_key_groups: self.cfg.max_key_groups,
            };
            logic.on_record(&mut ctx, &rec);
        }
        self.insts[inst.0 as usize].logic = Some(logic);
        if !out.is_empty() {
            self.emit_records(inst, &mut out);
        }
        self.emit_scratch = out;
    }

    /// Handle a popped control element (public: plugin selections reuse it).
    pub fn handle_control_elem(
        &mut self,
        plugin: &mut dyn ScalePlugin,
        inst: InstId,
        ch: ChannelId,
        elem: StreamElement,
    ) {
        match elem {
            StreamElement::Watermark(wm) => self.on_watermark(inst, ch, wm),
            StreamElement::CheckpointBarrier(id) => self.on_ckpt_barrier(inst, ch, id),
            StreamElement::Scale(sig) => plugin.on_signal(self, inst, ch, sig),
            StreamElement::Record(_) => unreachable!("records are not control elements"),
        }
    }

    fn on_watermark(&mut self, inst: InstId, ch: ChannelId, wm: SimTime) {
        {
            let c = &mut self.chans[ch.0 as usize];
            c.rx_watermark = c.rx_watermark.max(wm);
        }
        // The operator watermark is the min across input channels; the
        // per-channel value lives on the channel itself (plain indexed
        // reads, no map lookups on this per-watermark path).
        let mut min = SimTime::MAX;
        {
            let i = &self.insts[inst.0 as usize];
            for &ic in &i.in_channels {
                min = min.min(self.chans[ic.0 as usize].rx_watermark);
            }
            if i.in_channels.is_empty() {
                min = 0;
            }
        }
        let advanced = {
            let i = &mut self.insts[inst.0 as usize];
            if min > i.watermark {
                i.watermark = min;
                true
            } else {
                false
            }
        };
        if !advanced {
            return;
        }
        let role = self.op_of(inst).role;
        if role == OpRole::Transform {
            let now = self.now();
            let new_wm = self.insts[inst.0 as usize].watermark;
            let mut logic = self.insts[inst.0 as usize]
                .logic
                .take()
                .expect("transform logic");
            let mut out = std::mem::take(&mut self.emit_scratch);
            debug_assert!(out.is_empty());
            {
                let i = &mut self.insts[inst.0 as usize];
                let mut ctx = WmCtx {
                    now,
                    watermark: new_wm,
                    state: &mut i.state,
                    out: &mut out,
                };
                logic.on_watermark(&mut ctx);
            }
            let cost = logic.watermark_cost();
            self.insts[inst.0 as usize].logic = Some(logic);
            if !out.is_empty() {
                self.emit_records(inst, &mut out);
            }
            self.emit_scratch = out;
            // Charge firing cost as a busy period.
            if cost > 0 {
                let i = &mut self.insts[inst.0 as usize];
                i.busy = true;
                i.proc_gen += 1;
                let gen = i.proc_gen;
                let reg = self.reg(inst);
                self.q
                    .schedule_tagged(reg, cost, Ev::ProcDone { inst, gen });
            }
            let wm_out = self.insts[inst.0 as usize].watermark;
            self.broadcast_watermark(inst, wm_out);
        } else if role == OpRole::Sink {
            // Terminal: nothing to forward.
        }
    }

    fn on_ckpt_barrier(&mut self, inst: InstId, ch: ChannelId, id: u64) {
        let role = self.op_of(inst).role;
        let (aligned, snapshot_bytes) = {
            let i = &mut self.insts[inst.0 as usize];
            if i.ckpt.is_none() {
                i.ckpt = Some(CkptAlign {
                    id,
                    arrived: Default::default(),
                });
            }
            let all = i.in_channels.len();
            let ck = i.ckpt.as_mut().expect("just set");
            if ck.id == id {
                ck.arrived.insert(ch);
            }
            i.blocked_channels.insert(ch);
            if ck.arrived.len() >= all {
                let bytes = i.state.total_bytes();
                (true, bytes)
            } else {
                (false, 0)
            }
        };
        if aligned {
            {
                let i = &mut self.insts[inst.0 as usize];
                i.ckpt = None;
                // `blocked_channels` only ever holds this instance's input
                // channels, so dropping them all is exactly the old
                // per-channel removal.
                i.blocked_channels.clear();
            }
            // Synchronous snapshot part.
            let cost = (snapshot_bytes / 1_000_000) * self.cfg.snapshot_us_per_mb;
            if cost > 0 && role == OpRole::Transform {
                let i = &mut self.insts[inst.0 as usize];
                i.busy = true;
                i.proc_gen += 1;
                let gen = i.proc_gen;
                let reg = self.reg(inst);
                self.q
                    .schedule_tagged(reg, cost, Ev::ProcDone { inst, gen });
            }
            if role == OpRole::Sink {
                let now = self.now();
                self.metrics.checkpoints.push(now, id as f64);
                let reg = self.reg(inst) as u8;
                self.bus
                    .publish(now, reg, BusEventKind::CheckpointDone { id });
            } else {
                self.broadcast_ckpt(inst, id);
            }
            self.wake(inst);
        }
    }
}

/// Per-instance slice of [`Observables`]: exactly the five values
/// `metrics_digest` hashes per instance, in hash order.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InstObservables {
    /// Records processed.
    pub processed: u64,
    /// Operator watermark.
    pub watermark: SimTime,
    /// Nominal state bytes.
    pub state_bytes: u64,
    /// Distinct keys held.
    pub state_keys: u64,
    /// Cumulative suspension time.
    pub suspended_total: SimTime,
}

/// A plain-data (`Send`) snapshot of everything
/// [`World::metrics_digest`] hashes, in the exact serialization order the
/// digest consumes. Exists so the thread-per-region executor can collect
/// one snapshot per replica, [`merge`](Self::merge) them, and compare
/// [`digest`](Self::digest) against the sequential engine — byte-for-byte
/// the same hash function over byte-for-byte the same serialization.
#[derive(Clone, Debug)]
pub struct Observables {
    /// Records absorbed by sinks.
    pub sink_records: u64,
    /// Events popped off the future-event list.
    pub processed: u64,
    /// Latency samples `(t, µs)` in recording order.
    pub latency: Vec<(SimTime, f64)>,
    /// Per-second source emission counts `(second, records)`, ascending.
    pub source_counts: Vec<(u64, u64)>,
    /// Per-key order violations observed.
    pub violations: u64,
    /// Per-instance progress, indexed by `InstId`.
    pub per_inst: Vec<InstObservables>,
    /// Region owning each instance (identical across replicas; drives the
    /// per-instance and latency merges).
    pub inst_regions: Vec<u8>,
    /// Migration bytes moved by the scaling mechanism.
    pub bytes_transferred: u64,
    /// The clock when the snapshot was taken.
    pub now: SimTime,
}

impl Observables {
    /// FNV-1a over the canonical serialization — the digest
    /// [`World::metrics_digest`] has always produced.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut put = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        put(self.sink_records);
        put(self.processed);
        put(self.latency.len() as u64);
        for &(t, v) in &self.latency {
            put(t);
            put(v.to_bits());
        }
        for &(s, c) in &self.source_counts {
            put(s);
            put(c);
        }
        put(self.violations);
        for i in &self.per_inst {
            put(i.processed);
            put(i.watermark);
            put(i.state_bytes);
            put(i.state_keys);
            put(i.suspended_total);
        }
        put(self.bytes_transferred);
        h
    }

    /// Merge per-replica snapshots (one per region, indexed by region)
    /// into the view the sequential PDES engine would have produced:
    ///
    /// * counters (`sink_records`, `processed`, `violations`,
    ///   `bytes_transferred`) sum — each replica only ever touches its own
    ///   region's share;
    /// * latency samples k-way merge by `(t, region)` — exactly the
    ///   sequential recording order, because region-major pop order breaks
    ///   same-instant ties by ascending region;
    /// * per-second source counts merge-sum per bucket;
    /// * each instance's row comes from the replica that owns its region
    ///   (the only replica that ever advanced it).
    pub fn merge(replicas: &[Observables]) -> Observables {
        assert!(!replicas.is_empty(), "nothing to merge");
        let inst_regions = replicas[0].inst_regions.clone();
        let mut latency: Vec<(SimTime, u8, f64)> = Vec::new();
        for (r, o) in replicas.iter().enumerate() {
            latency.extend(o.latency.iter().map(|&(t, v)| (t, r as u8, v)));
        }
        latency.sort_by_key(|&(t, r, _)| (t, r));
        let mut source_counts: Vec<(u64, u64)> = Vec::new();
        for o in replicas {
            for &(s, c) in &o.source_counts {
                match source_counts.binary_search_by_key(&s, |e| e.0) {
                    Ok(i) => source_counts[i].1 += c,
                    Err(i) => source_counts.insert(i, (s, c)),
                }
            }
        }
        let per_inst = inst_regions
            .iter()
            .enumerate()
            .map(|(i, &r)| replicas[r as usize].per_inst[i])
            .collect();
        Observables {
            sink_records: replicas.iter().map(|o| o.sink_records).sum(),
            processed: replicas.iter().map(|o| o.processed).sum(),
            latency: latency.into_iter().map(|(t, _, v)| (t, v)).collect(),
            source_counts,
            violations: replicas.iter().map(|o| o.violations).sum(),
            per_inst,
            inst_regions,
            bytes_transferred: replicas.iter().map(|o| o.bytes_transferred).sum(),
            now: replicas.iter().map(|o| o.now).max().unwrap_or(0),
        }
    }
}

/// The simulation driver: a world plus the rescaling mechanism under test.
pub struct Sim {
    /// The world.
    pub world: World,
    /// The mechanism.
    pub plugin: Box<dyn ScalePlugin>,
    /// Scratch buffer for the dispatch loop. Owned by the driver — the
    /// future-event list only ever borrows it per `pop_run_at_most` call —
    /// and reused across runs, so the dispatch loop allocates nothing in
    /// steady state (the buffer grows to the largest same-instant run and
    /// stays there).
    batch: Vec<Ev>,
}

impl Sim {
    /// Pair a world with a mechanism.
    pub fn new(world: World, plugin: Box<dyn ScalePlugin>) -> Self {
        Self {
            world,
            plugin,
            batch: Vec::new(),
        }
    }

    /// Run until simulated time `t`. On return the clock is *at* `t`: the
    /// simulation has observed that nothing else happens in `(last event,
    /// t]`, so anything the caller schedules relative to `now()` afterwards
    /// is relative to the horizon, not to whenever the queue happened to
    /// drain (scheduling against a stale clock used to land in the past
    /// and get past-clamped).
    pub fn run_until(&mut self, t: SimTime) {
        self.dispatch_until(t);
        self.world.q.advance_clock_to(t);
    }

    /// Dispatch every pending event with `at <= t` *without* advancing the
    /// clock to `t` afterwards. The thread-per-region executor drives each
    /// epoch slice through this (the epoch cap is not the horizon — the
    /// clock must stay on the last dispatched event so the next slice's
    /// cross arrivals are still in the future); [`Self::run_until`] is
    /// this plus the final clock advance.
    ///
    /// This is the engine's one dispatch loop: drain each same-instant run
    /// with a single `pop_run_at_most` (one clock update and one scheduler
    /// cursor walk per run) and hand it to [`World::dispatch_run`]. Its
    /// reference semantics are the one-event-at-a-time loop
    /// `while let Some((_, ev)) = q.pop_at_most(t) { world.dispatch(plugin,
    /// ev) }` — both halves are public, and the tests drive exactly that
    /// loop by hand and require identical digests.
    pub fn dispatch_until(&mut self, t: SimTime) {
        // Hoisted out of the loop: one plugin re-borrow per call.
        let plugin = &mut *self.plugin;
        let buf = &mut self.batch;
        // Events scheduled while a run is being dispatched (at the run's
        // own instant or later) are never part of the drained buffer: they
        // pop as a later run, exactly where one-at-a-time popping would
        // put them, because their sequence numbers are larger than
        // everything already drained.
        while self.world.q.pop_run_at_most(t, buf).is_some() {
            self.world.dispatch_run(plugin, buf);
        }
    }
}

/// Helpers shared by unit tests across modules (and by downstream crates'
/// tests). Not part of the stable API.
pub mod tests_support {
    use super::*;
    use crate::instance::SourceGen;

    /// Constant-rate generator emitting keys round-robin over a universe.
    pub struct FixedGen {
        rate: f64,
        universe: u64,
        next_key: u64,
    }

    impl FixedGen {
        /// `rate` records/s over `universe` keys.
        pub fn new(rate: f64, universe: u64) -> Self {
            Self {
                rate,
                universe,
                next_key: 0,
            }
        }
    }

    impl SourceGen for FixedGen {
        fn rate(&self, _t: SimTime) -> f64 {
            self.rate
        }
        fn next(&mut self, _t: SimTime) -> (u64, i64) {
            let k = self.next_key;
            self.next_key = (self.next_key + 1) % self.universe;
            (k, 1)
        }
    }

    /// The reference semantics of [`Sim::run_until`]: pop one event at a
    /// time and hand it to the plain per-element [`World::dispatch`]. Tests
    /// drive this against the production loop and require equal digests.
    pub fn run_until_one_at_a_time(sim: &mut Sim, t: SimTime) {
        while let Some((_, ev)) = sim.world.q.pop_at_most(t) {
            sim.world.dispatch(&mut *sim.plugin, ev);
        }
        sim.world.q.advance_clock_to(t);
    }

    /// Build a tiny source → keyed-agg → sink job for tests.
    pub fn tiny_job(cfg: EngineConfig, rate: f64, universe: u64, par: usize) -> (World, OpId) {
        use crate::graph::{EdgeKind, JobBuilder};
        use crate::operator::KeyedAgg;
        let mut b = JobBuilder::new(cfg);
        let src = b.source(
            "src",
            1,
            Box::new(move |_| Box::new(FixedGen::new(rate, universe))),
        );
        let agg = b.operator(
            "agg",
            par,
            Box::new(|| {
                Box::new(KeyedAgg {
                    service: 50,
                    bytes_per_key: 1_000,
                    bytes_per_record: 0,
                    emit_every: 1,
                })
            }),
        );
        let sink = b.sink("sink", 1);
        b.connect(src, agg, EdgeKind::Keyed);
        b.connect(agg, sink, EdgeKind::Rebalance);
        let w = b.build();
        (w, agg)
    }

    /// Build `pipes` fully disjoint source → keyed-agg → sink pipelines in
    /// one job. The region partitioner keeps connected components whole,
    /// so with `cfg.regions >= pipes` every pipeline gets its own region
    /// and zero channels cross a region boundary (infinite lookahead) —
    /// the best case for region-partitioned execution.
    pub fn twin_jobs(
        cfg: EngineConfig,
        rate: f64,
        universe: u64,
        par: usize,
        pipes: usize,
    ) -> World {
        use crate::graph::{EdgeKind, JobBuilder};
        use crate::operator::KeyedAgg;
        let mut b = JobBuilder::new(cfg);
        for p in 0..pipes {
            let src = b.source(
                &format!("src{p}"),
                1,
                Box::new(move |_| Box::new(FixedGen::new(rate, universe))),
            );
            let agg = b.operator(
                &format!("agg{p}"),
                par,
                Box::new(|| {
                    Box::new(KeyedAgg {
                        service: 50,
                        bytes_per_key: 1_000,
                        bytes_per_record: 0,
                        emit_every: 1,
                    })
                }),
            );
            let sink = b.sink(&format!("sink{p}"), 1);
            b.connect(src, agg, EdgeKind::Keyed);
            b.connect(agg, sink, EdgeKind::Rebalance);
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::*;
    use super::*;
    use crate::scaling::NoScale;
    use simcore::time::secs;

    #[test]
    fn records_flow_source_to_sink() {
        let (w, _agg) = tiny_job(EngineConfig::test(), 1000.0, 64, 2);
        let mut sim = Sim::new(w, Box::new(NoScale));
        sim.run_until(secs(5));
        assert!(
            sim.world.metrics.sink_records > 3_000,
            "{}",
            sim.world.metrics.sink_records
        );
        // Latency markers made it through.
        assert!(sim.world.metrics.latency.len() > 50);
        // No order violations without scaling.
        assert_eq!(sim.world.semantics.violations(), 0);
    }

    #[test]
    fn latency_is_low_without_load() {
        let (w, _) = tiny_job(EngineConfig::test(), 100.0, 16, 2);
        let mut sim = Sim::new(w, Box::new(NoScale));
        sim.run_until(secs(5));
        let (peak, mean) = sim.world.metrics.latency_stats_ms(0, secs(5));
        assert!(mean < 50.0, "mean latency {mean} ms");
        assert!(peak < 200.0, "peak latency {peak} ms");
    }

    #[test]
    fn state_accumulates_per_key() {
        let (w, agg) = tiny_job(EngineConfig::test(), 1000.0, 8, 2);
        let mut sim = Sim::new(w, Box::new(NoScale));
        sim.run_until(secs(3));
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
        // All data records that reached the agg are counted.
        assert!(total > 2_000, "{total}");
        // 8 keys → 8 KB nominal state.
        assert_eq!(sim.world.op_state_bytes(agg), 8_000);
    }

    #[test]
    fn overload_creates_backpressure_and_latency() {
        // Service 50 µs/record at parallelism 1 → capacity 20K/s; drive 30K/s.
        let (w, _) = tiny_job(EngineConfig::test(), 30_000.0, 64, 1);
        let mut sim = Sim::new(w, Box::new(NoScale));
        sim.run_until(secs(5));
        let (peak, _mean) = sim.world.metrics.latency_stats_ms(secs(3), secs(5));
        assert!(
            peak > 500.0,
            "expected growing latency under overload, peak={peak} ms"
        );
    }

    #[test]
    fn watermarks_advance_at_operators() {
        let (w, agg) = tiny_job(EngineConfig::test(), 500.0, 16, 2);
        let mut sim = Sim::new(w, Box::new(NoScale));
        sim.run_until(secs(3));
        for &i in &sim.world.ops[agg.0 as usize].instances {
            assert!(
                sim.world.insts[i.0 as usize].watermark > secs(1),
                "watermark stalled at {}",
                sim.world.insts[i.0 as usize].watermark
            );
        }
    }

    #[test]
    fn scale_deploys_new_instances() {
        let (mut w, agg) = tiny_job(EngineConfig::test(), 500.0, 64, 2);
        w.schedule_scale(secs(1), agg, 3);
        let mut sim = Sim::new(w, Box::new(NoScale));
        sim.run_until(secs(3));
        assert_eq!(sim.world.ops[agg.0 as usize].instances.len(), 3);
        let plan = sim.world.scale.plan.as_ref().expect("plan");
        assert!(!plan.moves.is_empty());
        // NoScale never migrates: scale stays in progress.
        assert!(sim.world.scale.in_progress);
        // New instance wired: has inputs and outputs.
        let new = *sim.world.scale.new_instances.first().expect("new instance");
        assert!(!sim.world.insts[new.0 as usize].in_channels.is_empty());
        assert!(!sim.world.insts[new.0 as usize].out_channels.is_empty());
    }

    #[test]
    fn backpressure_blocks_and_unblocks_sources() {
        // Overload, then watch the source block; after the input rate is
        // relieved the backlog must drain and unblock.
        struct BurstGen {
            n: u64,
        }
        impl crate::instance::SourceGen for BurstGen {
            fn rate(&self, t: SimTime) -> f64 {
                if t < secs(2) {
                    60_000.0
                } else {
                    1_000.0
                }
            }
            fn next(&mut self, _t: SimTime) -> (u64, i64) {
                self.n += 1;
                (self.n % 64, 1)
            }
        }
        use crate::graph::JobBuilder;
        use crate::operator::KeyedAgg;
        let mut b = JobBuilder::new(EngineConfig::test());
        let src = b.source("src", 1, Box::new(|_| Box::new(BurstGen { n: 0 })));
        let agg = b.operator(
            "agg",
            1,
            Box::new(|| {
                Box::new(KeyedAgg {
                    service: 50,
                    bytes_per_key: 10,
                    bytes_per_record: 0,
                    emit_every: 1,
                })
            }),
        );
        let sink = b.sink("sink", 1);
        b.connect(src, agg, crate::graph::EdgeKind::Keyed);
        b.connect(agg, sink, crate::graph::EdgeKind::Rebalance);
        let mut sim = Sim::new(b.build(), Box::new(NoScale));
        sim.run_until(secs(1));
        let src_inst = sim.world.ops[src.0 as usize].instances[0];
        assert!(
            sim.world.insts[src_inst.0 as usize].blocked_out,
            "60K/s into a 20K/s operator must block the source"
        );
        sim.run_until(secs(10));
        assert!(
            !sim.world.insts[src_inst.0 as usize].blocked_out,
            "source still blocked after relief"
        );
        let pending = sim.world.insts[src_inst.0 as usize]
            .source
            .as_ref()
            .expect("source")
            .pending
            .len();
        assert!(pending < 1_000, "Kafka backlog not drained: {pending}");
    }

    #[test]
    fn watermark_is_min_across_channels() {
        // An instance fed by two sources only advances to the slower one.
        struct SlowWmGen;
        impl crate::instance::SourceGen for SlowWmGen {
            fn rate(&self, _t: SimTime) -> f64 {
                100.0
            }
            fn next(&mut self, _t: SimTime) -> (u64, i64) {
                (1, 1)
            }
        }
        use crate::graph::JobBuilder;
        use crate::operator::KeyedAgg;
        let mut b = JobBuilder::new(EngineConfig::test());
        let s1 = b.source("s1", 1, Box::new(|_| Box::new(SlowWmGen)));
        let s2 = b.source("s2", 1, Box::new(|_| Box::new(SlowWmGen)));
        let agg = b.operator(
            "agg",
            1,
            Box::new(|| {
                Box::new(KeyedAgg {
                    service: 10,
                    bytes_per_key: 0,
                    bytes_per_record: 0,
                    emit_every: 1,
                })
            }),
        );
        let sink = b.sink("sink", 1);
        b.connect(s1, agg, crate::graph::EdgeKind::Keyed);
        b.connect(s2, agg, crate::graph::EdgeKind::Keyed);
        b.connect(agg, sink, crate::graph::EdgeKind::Rebalance);
        let mut w = b.build();
        // Halt source 2: its watermarks stop flowing.
        let s2i = w.ops[s2.0 as usize].instances[0];
        w.insts[s2i.0 as usize].halted = true;
        let mut sim = Sim::new(w, Box::new(NoScale));
        sim.run_until(secs(3));
        let aggi = sim.world.ops[agg.0 as usize].instances[0];
        assert_eq!(
            sim.world.insts[aggi.0 as usize].watermark, 0,
            "watermark advanced past a silent channel"
        );
        // Un-halt: the watermark catches up.
        sim.world.insts[s2i.0 as usize].halted = false;
        sim.world.wake(s2i);
        sim.run_until(secs(6));
        assert!(sim.world.insts[aggi.0 as usize].watermark > secs(3));
    }

    #[test]
    fn markers_measure_latency_through_the_pipeline() {
        let (w, _) = tiny_job(EngineConfig::test(), 1_000.0, 64, 2);
        let mut sim = Sim::new(w, Box::new(NoScale));
        sim.run_until(secs(3));
        let m = &sim.world.metrics;
        assert!(m.latency.len() > 30);
        // Quantiles are available and ordered.
        let p50 = m.latency_quantile_ms(0.5).expect("samples");
        let p99 = m.latency_quantile_ms(0.99).expect("samples");
        assert!(p99 >= p50);
    }

    #[test]
    fn suspension_series_is_sampled() {
        let (mut w, agg) = tiny_job(EngineConfig::test(), 4_000.0, 128, 2);
        w.schedule_scale(secs(1), agg, 3);
        let mut sim = Sim::new(w, Box::new(NoScale));
        sim.run_until(secs(3));
        // NoScale never migrates: new instance suspends nothing, but the
        // series itself must tick once a scale nominated the operator.
        assert!(sim.world.metrics.suspension.len() > 5);
    }

    #[test]
    fn checkpoints_complete_end_to_end() {
        let mut cfg = EngineConfig::test();
        cfg.checkpoint_interval = Some(simcore::time::ms(500));
        let (w, _) = tiny_job(cfg, 500.0, 16, 2);
        let mut sim = Sim::new(w, Box::new(NoScale));
        sim.run_until(secs(4));
        assert!(
            sim.world.metrics.checkpoints.len() >= 3,
            "checkpoints completed: {}",
            sim.world.metrics.checkpoints.len()
        );
    }

    #[test]
    fn halt_and_resume_pause_the_pipeline() {
        let (w, _) = tiny_job(EngineConfig::test(), 1000.0, 16, 2);
        let mut sim = Sim::new(w, Box::new(NoScale));
        sim.run_until(secs(1));
        let before = sim.world.metrics.sink_records;
        sim.world.halt_all();
        sim.run_until(secs(2));
        let during = sim.world.metrics.sink_records;
        assert_eq!(before, during, "halted pipeline must not deliver");
        sim.world.resume_all();
        sim.run_until(secs(3));
        assert!(sim.world.metrics.sink_records > during);
    }

    #[test]
    fn migration_links_transfer_state() {
        let (mut w, agg) = tiny_job(EngineConfig::test(), 2000.0, 512, 2);
        w.schedule_scale(secs(1), agg, 3);
        let mut sim = Sim::new(w, Box::new(NoScale));
        // Run past deployment.
        sim.run_until(secs(2));
        let plan_moves = sim.world.scale.plan.as_ref().expect("plan").moves.clone();
        // Halt processing first: NoScale never updates routing, so records
        // for extracted groups would otherwise hit the old instances' (by
        // design) missing-state panic.
        sim.world.halt_all();
        for m in &plan_moves {
            sim.world.migrate_group(m.from, m.to, m.kg, SubscaleId(0));
        }
        // The chunk events call plugin.on_chunk (NoScale drops them), so
        // verify the links dispatched, bytes were counted and the sources
        // no longer hold the groups.
        sim.run_until(secs(3));
        assert!(sim.world.scale.metrics.bytes_transferred > 0);
        for m in &plan_moves {
            assert!(!sim.world.insts[m.from.0 as usize].state.holds_group(m.kg));
        }
    }

    #[test]
    fn run_until_leaves_the_clock_at_the_horizon() {
        // Regression: `run_until(t)` used to leave the clock at the last
        // dispatched event. With a 10 ms source-tick granularity, an
        // off-grid horizon almost always falls in an event gap, so
        // `now()` came back short of `t` — and anything the caller then
        // scheduled relative to `now()` (a follow-up scale, a plugin
        // timer) landed before the horizon it had just run to, or in the
        // past outright once the queue had drained. The driver now
        // advances the clock to the exhausted horizon.
        let horizon = secs(1) + 4_321; // deliberately off every event grid
        let (w, agg) = tiny_job(EngineConfig::test(), 2_000.0, 64, 2);
        let mut sim = Sim::new(w, Box::new(NoScale));
        sim.run_until(horizon);
        assert_eq!(
            sim.world.now(),
            horizon,
            "run_until must advance the clock to the horizon it exhausted"
        );
        // The original symptom: relative scheduling after the call is now
        // anchored at the horizon.
        let delay = 2_500;
        sim.world.schedule_scale(sim.world.now() + delay, agg, 3);
        sim.run_until(horizon + delay);
        assert!(
            sim.world.scale.in_progress || sim.world.scale.epoch > 0,
            "scale scheduled relative to now() after run_until never fired"
        );
        // Repeated runs to the same horizon are idempotent on the clock.
        sim.run_until(horizon + delay);
        assert_eq!(sim.world.now(), horizon + delay);
    }

    #[test]
    fn dispatch_loop_matches_one_at_a_time_popping() {
        // Draining a same-instant run in one scheduler call (and fusing its
        // deliveries) must not change the event interleaving — on the
        // sequential engine with a mid-run scale (boxed priority/control
        // events in the mix), and on the sequential PDES engine.
        let digest = |regions: usize, resume_latency: SimTime, one_at_a_time: bool| {
            let mut cfg = EngineConfig::test();
            cfg.seed = 0xBA7C;
            cfg.regions = regions;
            cfg.resume_latency = resume_latency;
            let (mut w, agg) = tiny_job(cfg, 8_000.0, 256, 2);
            if !w.pdes() {
                w.schedule_scale(secs(1), agg, 4);
            }
            let mut sim = Sim::new(w, Box::new(NoScale));
            if one_at_a_time {
                run_until_one_at_a_time(&mut sim, secs(4));
            } else {
                sim.run_until(secs(4));
            }
            (sim.world.metrics_digest(), sim.world.q.processed())
        };
        for (regions, rl) in [(1, 0), (2, 100), (3, 100)] {
            assert_eq!(
                digest(regions, rl, true),
                digest(regions, rl, false),
                "regions={regions} resume_latency={rl}: the dispatch loop changed \
                 the event interleaving"
            );
        }
    }

    #[test]
    fn regions_without_resume_latency_build_the_sequential_engine() {
        // `regions` means PDES partition only: with no resume latency there
        // is no lookahead to run a partition on, so the world is the
        // single-queue engine — same digest, same logical event count, a
        // mid-run rescale included (refused under PDES, fine here) — and
        // the thread-per-region executor runs it on the calling thread.
        let build = |regions: usize| {
            let mut cfg = EngineConfig::test();
            cfg.seed = 0x7E91;
            cfg.regions = regions;
            let (mut w, agg) = tiny_job(cfg, 8_000.0, 256, 2);
            assert!(!w.pdes());
            assert_eq!(w.q.regions(), 1);
            assert_eq!(w.region_map.k(), 1);
            assert!(w.chans.iter().all(|c| !c.cut));
            w.schedule_scale(secs(1), agg, 4);
            Sim::new(w, Box::new(NoScale))
        };
        let run = |regions: usize| {
            let mut sim = build(regions);
            sim.run_until(secs(4));
            let w = &sim.world;
            assert!(w.insts.iter().all(|i| w.region_map.inst(i.id) == 0));
            assert_eq!(
                (0..regions).map(|r| w.q.region_processed(r)).sum::<u64>(),
                w.q.processed()
            );
            (w.metrics_digest(), w.q.processed())
        };
        let reference = run(1);
        assert_eq!(run(2), reference);
        assert_eq!(run(3), reference);
        let par = crate::parallel::run_parallel(|| build(2), secs(4));
        assert_eq!(par.threads, 1, "fallback must stay sequential");
        assert_eq!((par.digest(), par.obs.processed), reference);
        assert_eq!(par.per_region_events, vec![reference.1]);
    }

    #[test]
    fn disjoint_pipelines_have_no_cut() {
        let mut cfg = EngineConfig::test();
        cfg.regions = 2;
        cfg.resume_latency = 100;
        let w = twin_jobs(cfg, 4_000.0, 128, 2, 2);
        assert!(w.pdes());
        assert_eq!(
            w.region_map.cut_channels(),
            0,
            "disjoint pipelines must not be split across a cut"
        );
    }

    // -----------------------------------------------------------------
    // Delivery bursts (the contract on `Ev::Deliver`)
    // -----------------------------------------------------------------

    fn wm(t: SimTime) -> StreamElement {
        StreamElement::Watermark(t)
    }

    /// The watermarks sitting in `ch`'s receiver queue, front first.
    fn queued_wms(w: &World, ch: ChannelId) -> Vec<SimTime> {
        (0..w.chans[ch.0 as usize].queue.len())
            .map(|i| match w.chan_peek(ch, i) {
                Some(StreamElement::Watermark(t)) => *t,
                other => panic!("not a watermark: {other:?}"),
            })
            .collect()
    }

    /// A silent tiny job plus its source's first out channel, with that
    /// channel's receiver optionally halted so delivered elements stay
    /// queued where a test can read them.
    fn burst_fixture(net_latency: SimTime, halt_receiver: bool) -> (World, ChannelId) {
        let mut cfg = EngineConfig::test();
        cfg.net_latency = net_latency;
        let (mut w, _) = tiny_job(cfg, 0.0, 16, 2);
        let ch = w.insts[0].out_channels[0];
        let to = w.chans[ch.0 as usize].to;
        w.insts[to.0 as usize].halted = halt_receiver;
        (w, ch)
    }

    /// Which of the two public dispatch entry points a burst test drives:
    /// the plain per-element `dispatch` (the reference) or the fused
    /// `dispatch_run` the engine's loop uses.
    #[derive(Clone, Copy, Debug)]
    enum Via {
        Dispatch,
        DispatchRun,
    }

    const MODES: [Via; 2] = [Via::Dispatch, Via::DispatchRun];

    fn dispatch_via(w: &mut World, plugin: &mut dyn ScalePlugin, ev: Ev, mode: Via) {
        match mode {
            Via::Dispatch => w.dispatch(plugin, ev),
            Via::DispatchRun => w.dispatch_run(plugin, &mut vec![ev]),
        }
    }

    /// Pop everything due by `t`, dispatching only the `Deliver` events
    /// (one at a time or as one-event runs) and dropping the rest. Returns
    /// `(deliver events, other events)` popped.
    fn deliver_until(
        w: &mut World,
        plugin: &mut dyn ScalePlugin,
        t: SimTime,
        mode: Via,
    ) -> (u64, u64) {
        let (mut delivers, mut others) = (0, 0);
        while let Some((_, ev)) = w.q.pop_at_most(t) {
            if !matches!(ev, Ev::Deliver { .. }) {
                others += 1;
                continue;
            }
            delivers += 1;
            dispatch_via(w, plugin, ev, mode);
        }
        (delivers, others)
    }

    #[test]
    fn burst_extends_only_while_no_seq_was_minted_in_between() {
        for mode in MODES {
            let (mut w, ch) = burst_fixture(200, true);
            let pending = w.q.len();
            w.send(ch, wm(1));
            w.send(ch, wm(2));
            assert_eq!(w.q.len(), pending + 1, "back-to-back sends share a burst");
            w.wake(InstId(0));
            w.send(ch, wm(3));
            assert_eq!(w.q.len(), pending + 3, "a wake in between closes the burst");
            w.schedule_plugin(10, 7);
            w.send(ch, wm(4));
            w.send(ch, wm(5));
            assert_eq!(w.q.len(), pending + 5, "so does a plugin timer");
            assert_eq!(w.bursts.pending(), 3);

            let before = w.q.processed();
            let (delivers, others) = deliver_until(&mut w, &mut NoScale, 200, mode);
            assert_eq!(delivers, 3, "{mode:?}");
            assert_eq!(queued_wms(&w, ch), vec![1, 2, 3, 4, 5], "{mode:?}");
            assert_eq!(
                w.q.processed() - before,
                others + 5,
                "{mode:?}: processed counts elements, not bursts"
            );
            assert_eq!(w.bursts.pending(), 0);
        }
    }

    #[test]
    fn credited_and_uncredited_elements_share_a_burst() {
        for mode in MODES {
            let (mut w, ch) = burst_fixture(200, true);
            let pending = w.q.len();
            w.send(ch, wm(1));
            w.send_uncredited(ch, wm(2));
            w.send(ch, wm(3));
            assert_eq!(w.q.len(), pending + 1);
            assert_eq!(w.chans[ch.0 as usize].in_flight, 2);
            deliver_until(&mut w, &mut NoScale, 200, mode);
            assert_eq!(w.chans[ch.0 as usize].in_flight, 0, "{mode:?}");
            assert_eq!(queued_wms(&w, ch), vec![1, 2, 3], "{mode:?}");
        }
    }

    /// Sends from inside event handlers: one uncredited watermark on `ch`
    /// the first time the engine asks it to select input — i.e. from
    /// inside the walk of whichever burst woke the receiver — and one
    /// credited watermark (carrying the tag) per plugin timer.
    struct SendingPlugin {
        ch: ChannelId,
        sent_on_select: bool,
    }

    impl ScalePlugin for SendingPlugin {
        fn name(&self) -> &'static str {
            "sending"
        }
        fn on_scale_start(&mut self, _w: &mut World, _plan: &ScalePlan) {}
        fn on_signal(
            &mut self,
            _w: &mut World,
            _i: InstId,
            _c: ChannelId,
            _s: crate::record::ScaleSignal,
        ) {
        }
        fn on_chunk(
            &mut self,
            _w: &mut World,
            _i: InstId,
            _u: StateUnit,
            _s: SubscaleId,
            _f: InstId,
        ) {
        }
        fn on_control(&mut self, w: &mut World, tag: u64) {
            w.send(self.ch, wm(tag));
        }
        fn selects(&self, _w: &World, _inst: InstId) -> bool {
            true
        }
        fn select(&mut self, w: &mut World, _inst: InstId) -> Selection {
            if !self.sent_on_select {
                self.sent_on_select = true;
                w.send_uncredited(self.ch, wm(99));
            }
            Selection::Idle
        }
    }

    #[test]
    fn a_burst_taken_for_dispatch_is_never_appended_to() {
        // Zero latency: the send made while the burst is being walked has
        // the burst's own arrival instant and region, and nothing was
        // minted since — only "taken" keeps it out. Appended to the taken
        // burst it would be lost (or walked in the current run); it must
        // pop as a later event instead.
        for mode in MODES {
            let (mut w, ch) = burst_fixture(0, false);
            let mut plugin = SendingPlugin {
                ch,
                sent_on_select: false,
            };
            w.send(ch, wm(1));
            w.send(ch, wm(2));
            let pending = w.q.len();
            let (_, ev) = w.q.pop().expect("the burst is due first");
            assert!(matches!(ev, Ev::Deliver { .. }));
            dispatch_via(&mut w, &mut plugin, ev, mode);
            assert!(plugin.sent_on_select);
            assert_eq!(queued_wms(&w, ch), vec![1, 2], "{mode:?}");
            assert_eq!(
                w.q.len(),
                pending,
                "{mode:?}: the late send is its own event"
            );
            assert_eq!(w.bursts.pending(), 1);
            assert_eq!(deliver_until(&mut w, &mut plugin, 0, mode).0, 1);
            assert_eq!(queued_wms(&w, ch), vec![1, 2, 99], "{mode:?}");
            assert_eq!(w.arena.len(), 3, "{mode:?}: delivered exactly once");
        }
    }

    #[test]
    fn a_send_landing_in_a_still_pending_burst_of_its_own_run_is_delivered_once() {
        // Zero latency again. The timer sorts before the burst at the same
        // instant, so the dispatch loop drains both into one run; the
        // timer's send extends the burst while its event already sits in
        // the drained buffer. It must come out once, after the burst's own
        // element — where its own event would have popped.
        for mode in MODES {
            let (mut w, ch) = burst_fixture(0, true);
            w.schedule_plugin(0, 2);
            w.send(ch, wm(1));
            let plugin = SendingPlugin {
                ch,
                sent_on_select: false,
            };
            let mut sim = Sim::new(w, Box::new(plugin));
            match mode {
                Via::Dispatch => run_until_one_at_a_time(&mut sim, 0),
                Via::DispatchRun => sim.run_until(0),
            }
            let w = &sim.world;
            assert_eq!(queued_wms(w, ch), vec![1, 2], "{mode:?}");
            assert_eq!(w.arena.len(), 2, "{mode:?}");
            assert_eq!(w.chans[ch.0 as usize].in_flight, 0, "{mode:?}");
            assert_eq!(w.bursts.pending(), 0, "{mode:?}");
            assert_eq!(w.bursts.high_water(), 1, "{mode:?}: one burst carried both");
        }
    }

    #[test]
    fn burst_pool_plateaus_at_the_pending_high_water_mark() {
        let (w, _) = tiny_job(EngineConfig::test(), 8_000.0, 256, 2);
        let mut sim = Sim::new(w, Box::new(NoScale));
        sim.run_until(secs(1));
        let warm = sim.world.bursts.high_water();
        sim.run_until(secs(10));
        let w = &sim.world;
        assert_eq!(
            w.bursts.high_water(),
            warm,
            "burst slots kept growing past warm-up"
        );
        assert!(w.bursts.pending() <= warm);
        assert!(
            (warm as u64) * 1_000 < w.q.processed(),
            "{warm} slots for {} events: not recycling",
            w.q.processed()
        );
    }

    #[test]
    fn region_sync_stats_account_conservative_progress() {
        let mut cfg = EngineConfig::test();
        cfg.regions = 2;
        cfg.resume_latency = 100;
        let (w, _) = tiny_job(cfg, 4_000.0, 128, 2);
        let mut sim = Sim::new(w, Box::new(NoScale));
        sim.run_until(secs(2));
        let stats = sim.world.q.region_sync_stats();
        assert!(stats.runs > 0, "no runs were accounted");
        // The cut's lookahead (ctrl/resume latency) is far below the 10 ms
        // source-tick gap, so some pops must have exceeded a region's
        // pure-lookahead bound.
        assert!(
            stats.min_rule_grants > 0,
            "a cut pipeline cannot advance on lookahead alone"
        );
        // Both regions made progress.
        assert!(sim.world.q.region_clock(0) > 0);
        assert!(sim.world.q.region_clock(1) > 0);
    }
}
