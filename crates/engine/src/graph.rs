//! Job graph construction: logical operators, edges, and the builder that
//! lowers them into an executable [`World`](crate::world::World).

use simcore::SimTime;

use crate::config::EngineConfig;
use crate::ids::{ChannelId, EdgeId, InstId, OpId};
use crate::instance::SourceGen;
use crate::keygroup::RoutingTable;
use crate::operator::{OpRole, OperatorLogic};

/// How records are partitioned across an edge.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EdgeKind {
    /// Hash-partitioned by key via key-groups and routing tables.
    Keyed,
    /// Round-robin.
    Rebalance,
    /// Every record to every instance (not used by the stock workloads but
    /// supported for completeness).
    Broadcast,
}

/// Factory producing per-subtask operator logic.
pub type LogicFactory = Box<dyn Fn() -> Box<dyn OperatorLogic>>;
/// Factory producing per-subtask source generators (arg = subtask index).
pub type SourceFactory = Box<dyn Fn(usize) -> Box<dyn SourceGen>>;

/// Runtime descriptor of a logical operator.
pub struct OperatorRt {
    /// Operator id.
    pub id: OpId,
    /// Human-readable name.
    pub name: String,
    /// Role.
    pub role: OpRole,
    /// Current instances, in subtask order.
    pub instances: Vec<InstId>,
    /// Incoming edges.
    pub in_edges: Vec<EdgeId>,
    /// Outgoing edges.
    pub out_edges: Vec<EdgeId>,
    /// Cached: the keyed subset of `in_edges`. Edges are fixed at build
    /// time, so this never changes after lowering; computing it per call
    /// allocated on the dispatch path.
    pub keyed_in_edges: Vec<EdgeId>,
    /// Cached: all upstream instances feeding the keyed inputs (deduped, in
    /// discovery order). Refreshed by the world whenever an upstream
    /// operator's instance list changes (scale-out/retirement).
    pub pred_insts: Vec<InstId>,
    /// Logic factory (Transform only).
    pub logic_factory: Option<LogicFactory>,
    /// Source factory (Source only).
    pub source_factory: Option<SourceFactory>,
    /// Per-record service time at sinks.
    pub sink_service: SimTime,
    /// Does this operator have a keyed input (and therefore keyed state)?
    /// Set during lowering.
    pub stateful: bool,
}

/// Sentinel for "no channel wired between this (from, to) pair".
const NO_CHANNEL: ChannelId = ChannelId(u32::MAX);
/// Sentinel for "this instance has no slot on this edge".
const NO_SLOT: u32 = u32::MAX;

/// Runtime descriptor of an edge.
///
/// Per-record lookups — routing table of the sender, channel of a
/// `(from, to)` pair — are two dense index reads plus one matrix read, no
/// hashing. The dense index is derived from a wiring log and rebuilt only
/// on scale events (build time, scale-out wiring, retirement unwiring), so
/// sender/receiver slots are compacted per edge.
pub struct EdgeRt {
    /// Edge id.
    pub id: EdgeId,
    /// Upstream operator.
    pub from: OpId,
    /// Downstream operator.
    pub to: OpId,
    /// Partitioning.
    pub kind: EdgeKind,
    /// Wiring log: every wired `(from, to, channel)` on this edge, in
    /// creation order. Source of truth for rebuilds.
    wiring: Vec<(InstId, InstId, ChannelId)>,
    /// Global `InstId` → compacted sender slot (`NO_SLOT` = not a sender).
    from_slot: Vec<u32>,
    /// Global `InstId` → compacted receiver slot.
    to_slot: Vec<u32>,
    /// Receiver-slot count (stride of the channel matrix).
    to_len: usize,
    /// Sender-slot-major channel matrix; `NO_CHANNEL` where unwired.
    chan: Vec<ChannelId>,
    /// Keyed edges: per sender slot, that predecessor's private routing
    /// table (paper §II-A — scaling mechanisms update copies individually).
    tables: Vec<Option<RoutingTable>>,
}

impl EdgeRt {
    /// A fresh, unwired edge.
    pub fn new(id: EdgeId, from: OpId, to: OpId, kind: EdgeKind) -> Self {
        Self {
            id,
            from,
            to,
            kind,
            wiring: Vec::new(),
            from_slot: Vec::new(),
            to_slot: Vec::new(),
            to_len: 0,
            chan: Vec::new(),
            tables: Vec::new(),
        }
    }

    /// Record a newly created channel. The dense index does NOT see it
    /// until [`Self::rebuild_index`] runs — callers wire a batch of
    /// channels (build, scale-out) and rebuild once.
    pub fn add_channel(&mut self, from: InstId, to: InstId, ch: ChannelId) {
        self.wiring.push((from, to, ch));
    }

    /// Forget an unwired channel, if it is on this edge, and rebuild.
    pub fn remove_channel(&mut self, ch: ChannelId, n_insts: usize) {
        self.wiring.retain(|&(_, _, c)| c != ch);
        self.rebuild_index(n_insts);
    }

    /// Recompute the compacted slots and channel matrix from the wiring
    /// log. `n_insts` is the world's current instance count (slot vectors
    /// are indexed by global `InstId`). Slot assignment follows wiring
    /// discovery order, and each sender's routing table moves with it to
    /// its new slot; a sender left with no channel loses its slot and its
    /// table.
    pub fn rebuild_index(&mut self, n_insts: usize) {
        // Remember which instance owned each sender slot, to carry tables.
        let mut old_slot_inst: Vec<Option<InstId>> = vec![None; self.tables.len()];
        for (inst, &slot) in self.from_slot.iter().enumerate() {
            if slot != NO_SLOT {
                old_slot_inst[slot as usize] = Some(InstId(inst as u32));
            }
        }
        self.from_slot = vec![NO_SLOT; n_insts];
        self.to_slot = vec![NO_SLOT; n_insts];
        let mut from_len = 0u32;
        let mut to_len = 0u32;
        for &(f, t, _) in &self.wiring {
            if self.from_slot[f.0 as usize] == NO_SLOT {
                self.from_slot[f.0 as usize] = from_len;
                from_len += 1;
            }
            if self.to_slot[t.0 as usize] == NO_SLOT {
                self.to_slot[t.0 as usize] = to_len;
                to_len += 1;
            }
        }
        self.to_len = to_len as usize;
        self.chan = vec![NO_CHANNEL; from_len as usize * self.to_len];
        for &(f, t, c) in &self.wiring {
            let fs = self.from_slot[f.0 as usize] as usize;
            let ts = self.to_slot[t.0 as usize] as usize;
            self.chan[fs * self.to_len + ts] = c;
        }
        let mut tables = vec![None; from_len as usize];
        for (old_slot, inst) in old_slot_inst.into_iter().enumerate() {
            let new_slot = inst.map_or(NO_SLOT, |i| self.from_slot[i.0 as usize]);
            if new_slot != NO_SLOT {
                tables[new_slot as usize] = self.tables[old_slot].take();
            }
        }
        self.tables = tables;
    }

    /// Channel between two instances, if wired.
    #[inline]
    pub fn channel(&self, from: InstId, to: InstId) -> Option<ChannelId> {
        let fs = *self.from_slot.get(from.0 as usize)?;
        let ts = *self.to_slot.get(to.0 as usize)?;
        if fs == NO_SLOT || ts == NO_SLOT {
            return None;
        }
        let c = self.chan[fs as usize * self.to_len + ts as usize];
        (c != NO_CHANNEL).then_some(c)
    }

    /// Hot-path channel lookup: both endpoints must be wired on this edge
    /// (routing only ever targets wired destinations). Two dense reads and
    /// one matrix read — no hashing, no branching beyond debug asserts.
    #[inline]
    pub fn channel_of(&self, from: InstId, to: InstId) -> ChannelId {
        let fs = self.from_slot[from.0 as usize] as usize;
        let ts = self.to_slot[to.0 as usize] as usize;
        debug_assert!(fs != NO_SLOT as usize && ts != NO_SLOT as usize);
        let c = self.chan[fs * self.to_len + ts];
        debug_assert_ne!(c, NO_CHANNEL, "unwired channel on the hot path");
        c
    }

    /// The routing table of a sender instance (keyed edges).
    #[inline]
    pub fn table(&self, from: InstId) -> Option<&RoutingTable> {
        let fs = *self.from_slot.get(from.0 as usize)?;
        if fs == NO_SLOT {
            return None;
        }
        self.tables[fs as usize].as_ref()
    }

    /// Mutable routing-table access (scaling mechanisms re-point groups).
    #[inline]
    pub fn table_mut(&mut self, from: InstId) -> Option<&mut RoutingTable> {
        let fs = *self.from_slot.get(from.0 as usize)?;
        if fs == NO_SLOT {
            return None;
        }
        self.tables[fs as usize].as_mut()
    }

    /// Install (or replace) a sender's routing table. The sender must
    /// already hold a slot, i.e. its channels were wired and the index
    /// rebuilt.
    pub fn set_table(&mut self, from: InstId, table: RoutingTable) {
        let fs = self.from_slot[from.0 as usize];
        assert_ne!(fs, NO_SLOT, "routing table for unwired sender {from}");
        self.tables[fs as usize] = Some(table);
    }

    /// All `(sender, routing table)` pairs on this edge, in ascending
    /// sender-instance order (cold path: assertions, planners).
    pub fn tables(&self) -> impl Iterator<Item = (InstId, &RoutingTable)> + '_ {
        self.from_slot
            .iter()
            .enumerate()
            .filter(|&(_, &slot)| slot != NO_SLOT)
            .filter_map(|(inst, &slot)| {
                self.tables[slot as usize]
                    .as_ref()
                    .map(|t| (InstId(inst as u32), t))
            })
    }
}

/// Builder for a streaming job.
pub struct JobBuilder {
    cfg: EngineConfig,
    ops: Vec<OperatorRt>,
    edges: Vec<(OpId, OpId, EdgeKind)>,
}

impl JobBuilder {
    /// Start building with the given engine configuration.
    pub fn new(cfg: EngineConfig) -> Self {
        Self {
            cfg,
            ops: Vec::new(),
            edges: Vec::new(),
        }
    }

    fn push_op(
        &mut self,
        name: &str,
        role: OpRole,
        parallelism: usize,
        logic_factory: Option<LogicFactory>,
        source_factory: Option<SourceFactory>,
    ) -> OpId {
        assert!(parallelism > 0, "operator {name} needs parallelism >= 1");
        let id = OpId(self.ops.len() as u32);
        self.ops.push(OperatorRt {
            id,
            name: name.to_string(),
            role,
            instances: Vec::with_capacity(parallelism),
            in_edges: Vec::new(),
            out_edges: Vec::new(),
            keyed_in_edges: Vec::new(),
            pred_insts: Vec::new(),
            logic_factory,
            source_factory,
            sink_service: 1,
            stateful: false,
        });
        // Record requested parallelism by pre-sizing: world build fills ids.
        self.ops.last_mut().expect("just pushed").instances = vec![InstId(u32::MAX); parallelism];
        id
    }

    /// Add a source operator.
    pub fn source(&mut self, name: &str, parallelism: usize, factory: SourceFactory) -> OpId {
        self.push_op(name, OpRole::Source, parallelism, None, Some(factory))
    }

    /// Add a transform operator.
    pub fn operator(&mut self, name: &str, parallelism: usize, factory: LogicFactory) -> OpId {
        self.push_op(name, OpRole::Transform, parallelism, Some(factory), None)
    }

    /// Add a sink operator.
    pub fn sink(&mut self, name: &str, parallelism: usize) -> OpId {
        self.push_op(name, OpRole::Sink, parallelism, None, None)
    }

    /// Connect two operators.
    pub fn connect(&mut self, from: OpId, to: OpId, kind: EdgeKind) {
        assert_ne!(from, to, "self-loops unsupported");
        self.edges.push((from, to, kind));
    }

    /// Lower into an executable world.
    pub fn build(self) -> crate::world::World {
        crate::world::World::from_builder(self.cfg, self.ops, self.edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::KeyGroup;
    use crate::keygroup::RoutingTable;
    use crate::operator::Relay;

    #[test]
    fn builder_assigns_sequential_op_ids() {
        let mut b = JobBuilder::new(EngineConfig::test());
        let s = b.source(
            "src",
            1,
            Box::new(|_| Box::new(crate::world::tests_support::FixedGen::new(10.0, 4))),
        );
        let t = b.operator("map", 2, Box::new(|| Box::new(Relay { service: 10 })));
        let k = b.sink("sink", 1);
        assert_eq!(s, OpId(0));
        assert_eq!(t, OpId(1));
        assert_eq!(k, OpId(2));
    }

    #[test]
    fn removing_channels_keeps_the_other_slots_and_tables() {
        // Senders 0 and 1, receivers 2 and 3, channel ids 10 + 2 * from + to.
        let mut e = EdgeRt::new(EdgeId(0), OpId(0), OpId(1), EdgeKind::Keyed);
        let (senders, receivers) = ([InstId(0), InstId(1)], [InstId(2), InstId(3)]);
        let id = |f: InstId, t: InstId| ChannelId(10 + 2 * f.0 + t.0);
        for f in senders {
            for t in receivers {
                e.add_channel(f, t, id(f, t));
            }
        }
        e.rebuild_index(4);
        let table = |to: InstId| RoutingTable::uniform(4, &[to]);
        e.set_table(senders[0], table(receivers[0]));
        e.set_table(senders[1], table(receivers[1]));
        // Sender 0 loses all its channels: its slot and table go.
        for t in receivers {
            e.remove_channel(id(senders[0], t), 4);
        }
        assert_eq!(e.channel(senders[0], receivers[0]), None);
        assert!(e.table(senders[0]).is_none());
        let kept = e.table(senders[1]).expect("table moved with its sender");
        assert_eq!(kept.route(KeyGroup(0)), receivers[1]);
        // Receiver 2 loses its last channel; receiver 3 keeps its own.
        e.remove_channel(id(senders[1], receivers[0]), 4);
        assert_eq!(e.channel(senders[1], receivers[0]), None);
        let last = (senders[1], receivers[1]);
        assert_eq!(e.channel_of(last.0, last.1), id(last.0, last.1));
        assert_eq!(e.tables().count(), 1);
    }

    #[test]
    #[should_panic(expected = "parallelism")]
    fn zero_parallelism_rejected() {
        let mut b = JobBuilder::new(EngineConfig::test());
        b.sink("sink", 0);
    }
}
