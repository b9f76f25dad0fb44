//! The executable world: instances, channels, the event loop, emission and
//! routing, backpressure, alignment, migration links, and the scaling
//! control plane.
//!
//! One [`World`] holds every entity. Its behaviour is split by concern,
//! one file each, all sharing the struct below:
//!
//! * `data_plane` — `send`, the wire, `pump`, channel pops, emission and
//!   routing;
//! * `process` — source ticks, input selection, quanta, operator
//!   invocation and busy periods;
//! * `scale_ctl` — scale requests, deployment, re-routing, migration links,
//!   retirement and stop-restart;
//! * `align` — watermarks, and the one alignment primitive that holds input
//!   channels for checkpoint and coupled scaling barriers;
//! * `cross` — PDES region-crossing traffic (PDES is the region-partitioned
//!   parallel mode);
//! * `observe` — the digest, [`Observables`] and the periodic sampler;
//! * `sim` — event dispatch and the [`Sim`] driver.
//!
//! # Hot-path discipline
//!
//! The dispatch path (`Deliver` → `try_start` → `build_run` → `ProcDone` →
//! `apply_run` → `emit_all` → `emit_one` → `route_record` → `send`) is
//! allocation-free and hash-free in steady state:
//!
//! * stream elements live exactly once in the world's [`RecordArena`];
//!   `send` parks the payload and everything downstream — sender backlog,
//!   the in-flight leg of `Ev::Deliver`, the receiver queue — moves 8-byte
//!   [`RecordRef`] handles until `chan_pop`
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
//! It also pays per run, not per element: each of its three per-element
//! stages below reads once per run what cannot change within that run,
//! and keeps every send, `seq` mint and state update in the per-element
//! order.
//!
//! * *Quantum assembly* (`build_run`) reads the quantum bounds, the
//!   instance's role, its sink service and its logic once. It skips the
//!   per-record `admit` call only when the plugin declares, through
//!   [`ScalePlugin::admits_whole_run`], that every call would admit with no
//!   side effect; then each record leaves the arena with one move.
//! * *Quantum apply* (`apply_run`) reads the operator's `stateful` flag,
//!   the semantics switch and the logic box once, and applies each data
//!   record through `apply_data`, the one per-record apply rule (plugins
//!   replay through it too, via `apply_record_basic`); the orphan guard
//!   hands its record to the plugin with the world as a per-record apply
//!   leaves it. A sink's run (`sink_run`) folds to counts and marker
//!   latencies.
//! * *Firing emission* (`emit_rebalanced`): a callback's output of two or
//!   more records onto a single Rebalance edge resolves the eligible
//!   destinations' channels once per batch; the origin `seq` and the
//!   edge's `rr_cursor` still advance per record.
//!
//! Keep it that way: if a change needs a temporary collection on any of
//! those paths, reuse a scratch buffer on `World` instead of allocating.
//! A helper that replaces inline code on these paths is `#[inline]` and
//! allocation-free; the functions that carry the `checker` lint's hot-path
//! marker comment are checked for allocation (rule H1).

// The submodules below split one type's `impl` by concern; they share
// this import list through `use super::*`.
use simcore::time::{transfer_time, SimTime};
use simcore::{DetRng, FutureEventList};

use crate::bus::{Bus, BusEventKind};
use crate::channel::Channel;
use crate::config::EngineConfig;
use crate::events::{BurstStore, ControlMsg, ControlStore, Ev, PriorityMsg, WireElem};
use crate::graph::{EdgeKind, EdgeRt, OperatorRt};
use crate::ids::{key_group_of, ChannelId, EdgeId, InstId, KeyGroup, OpId, SubscaleId};
use crate::instance::{Instance, SourceState, TICK};
use crate::keygroup::{uniform_repartition, Repartition, RoutingTable};
use crate::metrics::Metrics;
use crate::operator::{OpCtx, OpRole, OperatorLogic, WmCtx};
use crate::record::{Record, RecordArena, RecordKind, RecordRef, StreamElement};
use crate::scaling::{ScaleContext, ScalePlan, ScalePlugin, Selection, UnitLedger};
use crate::semantics::SemanticsChecker;
use crate::state::{StateBackend, StateUnit};

mod align;
mod cross;
mod data_plane;
mod observe;
mod process;
mod scale_ctl;
mod sim;
pub mod tests_support;

pub use align::BarrierKey;
pub use cross::{CrossMode, CrossMsg, CrossPayload, CROSS_BIT};
pub use observe::{InstObservables, Observables};
pub use sim::Sim;

/// The simulation world. Holds every entity; scaling mechanisms manipulate
/// it through its methods.
///
/// The `pub` fields are the inspection surface: tests, figures and the
/// benchmark package read them directly (`drrs_bench` reads `q`, `chans`,
/// `arena`, `insts`, `scale`, `metrics` and `bus`), so they keep their
/// names and types. The private fields are the engine's own scratch and
/// PDES bookkeeping.
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
    /// Scratch: reusable operator-output buffer (`invoke`). Always drained
    /// back to empty after use.
    emit_scratch: Vec<Record>,
    /// Recycled quantum buffers: `build_run` pops, `on_proc_done` returns.
    run_buf_pool: Vec<Vec<Record>>,
    /// Scratch: the eligible destinations' channels of one batched
    /// Rebalance emission (`emit_rebalanced`). Always cleared after use.
    dest_scratch: Vec<ChannelId>,
    /// Alignments in progress, one per `(instance, barrier)` ([`Self::align`]).
    aligning: Vec<align::Alignment>,
    /// Next checkpoint id.
    next_ckpt: u64,
    /// Suspension series tracks instances of this op (set at scale time;
    /// defaults to all Transform ops).
    suspension_op: Option<OpId>,
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
    /// per region; unused outside PDES mode.
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

/// A fresh instance `li` of `op` with its own state backend, plus the
/// source generator or operator logic its role needs. The builder and
/// scale-out both create instances here, so a deployed instance starts
/// exactly like a built one.
fn spawn_instance(cfg: &EngineConfig, op: &OperatorRt, li: usize, id: InstId) -> Instance {
    let state = StateBackend::new(cfg.max_key_groups, cfg.sub_group_fanout);
    let mut inst = Instance::new(id, op.id, li, state);
    match op.role {
        OpRole::Source => {
            let gen = (op.source_factory.as_ref().expect("source factory"))(li);
            let par = op.instances.len().max(1) as SimTime;
            let mut src = SourceState::new(gen, (li as SimTime) * cfg.marker_interval / par);
            src.next_checkpoint = cfg.checkpoint_interval;
            inst.source = Some(src);
        }
        OpRole::Transform => {
            inst.logic = Some((op.logic_factory.as_ref().expect("logic factory"))());
        }
        OpRole::Sink => {}
    }
    inst
}

/// Create the channel `from → to` on `edge` and register it with both
/// endpoints. The caller rebuilds the edge's dense index once all of the
/// edge's new channels exist.
fn wire_channel(
    cfg: &EngineConfig,
    chans: &mut Vec<Channel>,
    insts: &mut [Instance],
    edge: &mut EdgeRt,
    from: InstId,
    to: InstId,
) -> ChannelId {
    let cid = ChannelId(chans.len() as u32);
    chans.push(Channel::new(
        cid,
        from,
        to,
        cfg.channel_capacity,
        cfg.net_latency,
    ));
    edge.add_channel(from, to, cid);
    insts[from.0 as usize].out_channels.push(cid);
    insts[to.0 as usize].in_channels.push(cid);
    cid
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
            for li in 0..op.instances.len() {
                let id = InstId(insts.len() as u32);
                insts.push(spawn_instance(&cfg, op, li, id));
                op.instances[li] = id;
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
                    wire_channel(&cfg, &mut chans, &mut insts, &mut edge, fi, ti);
                }
            }
            edge.rebuild_index(insts.len());
            ops[from.0 as usize].out_edges.push(eid);
            ops[to.0 as usize].in_edges.push(eid);
            if kind == EdgeKind::Keyed {
                ops[to.0 as usize].stateful = true;
                // Every sender routes uniformly, and the downstream
                // instances own the key-groups that routing sends them.
                let table = RoutingTable::uniform(cfg.max_key_groups, &to_insts);
                for &fi in &from_insts {
                    edge.set_table(fi, table.clone());
                }
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
        // produce identical digests. `Channel::cut` is set only here.
        if region_map.k() > 1 {
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
        let mut scale = ScaleContext::default();
        scale.metrics.units = UnitLedger::new(cfg.max_key_groups, cfg.sub_group_fanout);
        World {
            cfg,
            q,
            ops,
            insts,
            chans,
            arena,
            edges,
            scale,
            metrics: Metrics::default(),
            region_map,
            semantics: SemanticsChecker::new(),
            rng,
            pending_runs: (0..n).map(|_| Vec::new()).collect(),
            emit_scratch: Vec::with_capacity(16),
            run_buf_pool: Vec::new(),
            dest_scratch: Vec::new(),
            aligning: Vec::new(),
            next_ckpt: 0,
            suspension_op: None,
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
    /// than one region)? When false, nothing in the cut-channel credit
    /// machinery runs: this is the single-queue sequential engine.
    #[inline]
    pub fn pdes(&self) -> bool {
        self.region_map.k() > 1
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
    fn op_of(&self, inst: InstId) -> &OperatorRt {
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

    /// Send a priority message out-of-band to an instance.
    pub fn send_priority(&mut self, to: InstId, msg: PriorityMsg) {
        let lat = self.cfg.ctrl_latency;
        let reg = self.reg(to);
        let ev = self.ev_priority(to, msg);
        self.q.schedule_tagged(reg, lat, ev);
    }
}
