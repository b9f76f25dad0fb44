//! Operator-graph partitioning for PDES.
//!
//! [`RegionMap`] assigns every operator (and therefore every instance —
//! instances inherit their operator's region) to one of `k` scheduler
//! regions, and derives the lookahead matrix that paces the
//! thread-per-region executor's epochs (`crate::parallel`) and feeds the
//! event list's region accounting (`RegionSync`, see `simcore::region`). The world
//! partitions only in PDES mode (`regions > 1` and `resume_latency > 0`);
//! every other world carries the trivial [`RegionMap::single`].
//!
//! # Partitioning
//!
//! The cut is chosen over the *operator* graph, not per instance: all
//! instances of one operator share a scheduler region, so an operator's
//! internal events (`ProcDone`, `Wake`, source ticks) never cross regions
//! and the only cut traffic is edge traffic the dense [`EdgeRt`] matrix
//! can enumerate. The algorithm is deterministic (same graph → same cut):
//!
//! 1. Split the graph into weakly-connected components. Disjoint
//!    pipelines are the best possible cut — no edge crosses, lookahead is
//!    infinite — so components are never split while whole ones can be
//!    balanced across regions instead.
//! 2. If there are fewer components than regions, repeatedly split the
//!    heaviest (most instances) splittable group by a **topological
//!    prefix min-cut**: among all prefix/suffix splits of the group's
//!    topo order, pick the one crossing the fewest channels (edge weight
//!    = wired channel count), tie-broken toward instance balance. A DAG
//!    edge always points forward in topo order, so a prefix split cuts
//!    only forward edges and the familiar sources-upstream /
//!    sinks-downstream K=2 cut falls out naturally.
//! 3. Groups become regions in topo order of their earliest operator, so
//!    region 0 is always the most upstream — control events
//!    (`Ev::Sample`, `Ev::Control`) are pinned there by the world.
//!
//! # Lookahead
//!
//! `lookahead[a * k + b]` is the minimum delay of any event a region-`a`
//! handler can schedule into region `b`:
//!
//! * a cut data channel `a → b` contributes its wire latency (a `Deliver`
//!   is scheduled `c.latency` ahead),
//! * priority messages ride existing edge directions at `ctrl_latency`
//!   (migration chunks and fetches stay inside the scaled operator's own
//!   region; rerouted-record and confirm traffic follows predecessor
//!   edges), so any edge `a → b` also caps the entry at `ctrl_latency`,
//! * a cut channel `a → b` bounds the **reverse** entry `b → a` by the
//!   engine's `resume_latency`: credit returns cross the cut as
//!   latency-bearing `CutCredit` events, so the reverse edge has exactly
//!   that much lookahead. (At `resume_latency = 0` the receiver's `pump`
//!   would wake a blocked sender at delay 0 — a zero-lookahead feedback
//!   loop no epoch can be cut on — which is why such a world is not
//!   partitioned at all.)
//!
//! Pairs with no connecting edge keep `SimTime::MAX` — fully independent
//! pipelines never constrain each other.

use simcore::SimTime;

use crate::channel::Channel;
use crate::graph::{EdgeRt, OperatorRt};
use crate::ids::{InstId, OpId};

/// The operator → region assignment plus the derived lookahead matrix.
#[derive(Clone, Debug)]
pub struct RegionMap {
    k: usize,
    /// Region of each operator, indexed by `OpId` (empty on the single
    /// map: everything is region 0).
    op_region: Vec<u8>,
    /// Region of each instance, indexed by `InstId` (instances inherit
    /// their operator's region). Empty on the single map, so instances a
    /// scale-out adds later — possible only there, `start_scale` refuses
    /// under PDES — are region 0 without any bookkeeping.
    inst_region: Vec<u8>,
    /// Row-major `k × k` lookahead matrix (see module docs).
    lookahead: Vec<SimTime>,
    /// Number of wired channels whose endpoints sit in different regions.
    cut_channels: usize,
}

impl RegionMap {
    /// The trivial single-region map (the sequential engine).
    pub fn single() -> Self {
        Self {
            k: 1,
            op_region: Vec::new(),
            inst_region: Vec::new(),
            lookahead: vec![0],
            cut_channels: 0,
        }
    }

    /// Partition the operator graph into (at most) `k` regions and derive
    /// the lookahead matrix. `k` is clamped to the operator count; `k <= 1`
    /// yields [`Self::single`].
    pub fn compute(
        k: usize,
        ops: &[OperatorRt],
        edges: &[EdgeRt],
        chans: &[Channel],
        n_insts: usize,
        ctrl_latency: SimTime,
        resume_latency: SimTime,
    ) -> Self {
        let k = k.min(ops.len()).max(1);
        if k == 1 {
            return Self::single();
        }

        let topo = topo_order(ops, edges);
        let groups = partition(k, ops, edges, &topo);
        let k = groups.len(); // may come out below the request

        // Order groups by their most-upstream operator so region ids are
        // stable and region 0 holds the earliest topo position.
        let mut pos_of_op = vec![0usize; ops.len()];
        for (p, &op) in topo.iter().enumerate() {
            pos_of_op[op.0 as usize] = p;
        }
        let mut ordered: Vec<Vec<OpId>> = groups;
        ordered.sort_by_key(|g| g.iter().map(|o| pos_of_op[o.0 as usize]).min());

        let mut op_region = vec![0u8; ops.len()];
        for (r, g) in ordered.iter().enumerate() {
            for &op in g {
                op_region[op.0 as usize] = r as u8;
            }
        }
        let mut inst_region = vec![0u8; n_insts];
        for op in ops {
            for &i in &op.instances {
                inst_region[i.0 as usize] = op_region[op.id.0 as usize];
            }
        }

        let region_of = |i: InstId| inst_region[i.0 as usize] as usize;
        let mut la = vec![SimTime::MAX; k * k];
        for r in 0..k {
            la[r * k + r] = 0;
        }
        // Priority traffic follows edge directions (module docs).
        for e in edges {
            let (a, b) = (
                op_region[e.from.0 as usize] as usize,
                op_region[e.to.0 as usize] as usize,
            );
            if a != b {
                la[a * k + b] = la[a * k + b].min(ctrl_latency);
            }
        }
        let mut cut_channels = 0usize;
        for c in chans {
            let (a, b) = (region_of(c.from), region_of(c.to));
            if a != b {
                cut_channels += 1;
                la[a * k + b] = la[a * k + b].min(c.latency);
                // Reverse edge: the credit-return CutCredit is the
                // earliest reverse event.
                la[b * k + a] = la[b * k + a].min(resume_latency);
            }
        }
        Self {
            k,
            op_region,
            inst_region,
            lookahead: la,
            cut_channels,
        }
    }

    /// Number of regions.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Region of an operator.
    #[inline]
    pub fn op(&self, op: OpId) -> usize {
        self.op_region.get(op.0 as usize).map_or(0, |&r| r as usize)
    }

    /// Region of an instance.
    #[inline]
    pub fn inst(&self, inst: InstId) -> usize {
        self.inst_region
            .get(inst.0 as usize)
            .map_or(0, |&r| r as usize)
    }

    /// The row-major `k × k` lookahead matrix.
    pub fn lookahead(&self) -> &[SimTime] {
        &self.lookahead
    }

    /// Wired channels crossing a region boundary.
    pub fn cut_channels(&self) -> usize {
        self.cut_channels
    }
}

/// Deterministic topological order of the operator DAG (Kahn's algorithm,
/// ready set kept in ascending `OpId` order).
fn topo_order(ops: &[OperatorRt], edges: &[EdgeRt]) -> Vec<OpId> {
    let mut indeg = vec![0usize; ops.len()];
    for e in edges {
        indeg[e.to.0 as usize] += 1;
    }
    let mut ready: Vec<OpId> = ops
        .iter()
        .filter(|o| indeg[o.id.0 as usize] == 0)
        .map(|o| o.id)
        .collect();
    let mut out = Vec::with_capacity(ops.len());
    while !ready.is_empty() {
        // Smallest OpId first: determinism without a heap.
        let (pos, _) = ready
            .iter()
            .enumerate()
            .min_by_key(|(_, o)| o.0)
            .expect("non-empty");
        let op = ready.swap_remove(pos);
        out.push(op);
        for e in edges.iter().filter(|e| e.from == op) {
            indeg[e.to.0 as usize] -= 1;
            if indeg[e.to.0 as usize] == 0 {
                ready.push(e.to);
            }
        }
    }
    debug_assert_eq!(out.len(), ops.len(), "operator graph has a cycle");
    out
}

/// Instance count of an operator group.
fn group_weight(g: &[OpId], ops: &[OperatorRt]) -> usize {
    g.iter().map(|&o| ops[o.0 as usize].instances.len()).sum()
}

/// Edge weight: how many channels a cut of this edge severs.
fn edge_weight(e: &EdgeRt, ops: &[OperatorRt]) -> usize {
    ops[e.from.0 as usize].instances.len() * ops[e.to.0 as usize].instances.len()
}

/// Partition operators into at most `k` groups (see module docs). Returns
/// between 1 and `k` non-empty groups.
fn partition(k: usize, ops: &[OperatorRt], edges: &[EdgeRt], topo: &[OpId]) -> Vec<Vec<OpId>> {
    // Weakly-connected components, discovered in ascending-OpId order.
    let mut comp = vec![usize::MAX; ops.len()];
    let mut n_comps = 0usize;
    for start in 0..ops.len() {
        if comp[start] != usize::MAX {
            continue;
        }
        let id = n_comps;
        n_comps += 1;
        let mut stack = vec![start];
        comp[start] = id;
        while let Some(o) = stack.pop() {
            for e in edges {
                let (f, t) = (e.from.0 as usize, e.to.0 as usize);
                for n in [(f == o).then_some(t), (t == o).then_some(f)]
                    .into_iter()
                    .flatten()
                {
                    if comp[n] == usize::MAX {
                        comp[n] = id;
                        stack.push(n);
                    }
                }
            }
        }
    }
    let mut groups: Vec<Vec<OpId>> = vec![Vec::new(); n_comps];
    // Keep each group's ops in topo order — prefix splits depend on it.
    for &op in topo {
        groups[comp[op.0 as usize]].push(op);
    }

    if groups.len() >= k {
        // More components than regions: bin-pack whole components into k
        // groups, heaviest first, always into the lightest bin.
        let mut order: Vec<usize> = (0..groups.len()).collect();
        order.sort_by_key(|&g| (usize::MAX - group_weight(&groups[g], ops), g));
        let mut bins: Vec<Vec<OpId>> = vec![Vec::new(); k];
        for g in order {
            let lightest = (0..k)
                .min_by_key(|&b| (group_weight(&bins[b], ops), b))
                .expect("k >= 1");
            bins[lightest].extend(groups[g].iter().copied());
        }
        bins.retain(|b| !b.is_empty());
        return bins;
    }

    // Fewer components than regions: split the heaviest splittable group
    // by topo-prefix min-cut until we have k groups (or nothing splits).
    while groups.len() < k {
        let Some(gi) = (0..groups.len())
            .filter(|&g| groups[g].len() > 1)
            .max_by_key(|&g| (group_weight(&groups[g], ops), usize::MAX - g))
        else {
            break;
        };
        let g = &groups[gi];
        let in_group = |op: OpId| g.contains(&op);
        let total_w = group_weight(g, ops);
        // Evaluate every prefix split; a DAG edge inside the group always
        // runs forward in topo order, so only prefix → suffix edges cut.
        let mut best: Option<(usize, usize, usize)> = None; // (cut, imbalance, i)
        for i in 1..g.len() {
            let prefix = &g[..i];
            let cut: usize = edges
                .iter()
                .filter(|e| {
                    in_group(e.from)
                        && in_group(e.to)
                        && prefix.contains(&e.from)
                        && !prefix.contains(&e.to)
                })
                .map(|e| edge_weight(e, ops))
                .sum();
            let pw = group_weight(prefix, ops);
            let imbalance = pw.abs_diff(total_w - pw);
            let cand = (cut, imbalance, i);
            if best.map(|b| cand < b).unwrap_or(true) {
                best = Some(cand);
            }
        }
        let (_, _, i) = best.expect("group has > 1 op");
        let suffix = groups[gi].split_off(i);
        groups.push(suffix);
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::graph::{EdgeKind, JobBuilder};
    use crate::operator::Relay;
    use crate::world::tests_support::FixedGen;

    fn pipeline_world(par: usize) -> crate::world::World {
        let mut b = JobBuilder::new(EngineConfig::test());
        let src = b.source("src", 1, Box::new(|_| Box::new(FixedGen::new(100.0, 8))));
        let map = b.operator("map", par, Box::new(|| Box::new(Relay { service: 10 })));
        let sink = b.sink("sink", 1);
        b.connect(src, map, EdgeKind::Keyed);
        b.connect(map, sink, EdgeKind::Rebalance);
        b.build()
    }

    #[test]
    fn single_map_is_all_region_zero() {
        let w = pipeline_world(2);
        let m = RegionMap::compute(1, &w.ops, &w.edges, &w.chans, w.insts.len(), 50, 30);
        assert_eq!(m.k(), 1);
        assert!(w.insts.iter().all(|i| m.inst(i.id) == 0));
        assert_eq!(m.cut_channels(), 0);
    }

    #[test]
    fn pipeline_splits_at_the_narrowest_edge() {
        // src(1) → map(4) → sink(1): cutting src→map severs 4 channels,
        // cutting map→sink severs 4 too, but balance prefers the middle...
        // with par=4 both cuts weigh 4; the src|rest split is less balanced
        // (1 vs 5) than src+map|sink (5 vs 1)? Equal — the earlier split
        // index wins the tie deterministically.
        let w = pipeline_world(4);
        let m = RegionMap::compute(2, &w.ops, &w.edges, &w.chans, w.insts.len(), 50, 30);
        assert_eq!(m.k(), 2);
        // All instances of one operator share a region.
        for op in &w.ops {
            let r = m.op(op.id);
            for &i in &op.instances {
                assert_eq!(m.inst(i), r);
            }
        }
        // Exactly one edge is cut (4 channels), and region 0 is upstream.
        assert_eq!(m.cut_channels(), 4);
        assert_eq!(m.op(w.ops[0].id), 0, "source is most upstream");
    }

    #[test]
    fn lookahead_matrix_has_forward_latency_and_resume_latency_reverse() {
        let w = pipeline_world(2);
        let m = RegionMap::compute(2, &w.ops, &w.edges, &w.chans, w.insts.len(), 50, 30);
        assert_eq!(m.k(), 2);
        // Region 0 is upstream. Forward: capped by ctrl_latency (50 < net
        // 200). Reverse: the credit-return path.
        assert_eq!(m.lookahead(), &[0, 50, 30, 0]);
    }

    #[test]
    fn disjoint_pipelines_land_in_disjoint_regions_with_infinite_lookahead() {
        let mut b = JobBuilder::new(EngineConfig::test());
        for p in 0..2 {
            let src = b.source(
                &format!("src{p}"),
                1,
                Box::new(|_| Box::new(FixedGen::new(100.0, 8))),
            );
            let map = b.operator(
                &format!("map{p}"),
                2,
                Box::new(|| Box::new(Relay { service: 10 })),
            );
            let sink = b.sink(&format!("sink{p}"), 1);
            b.connect(src, map, EdgeKind::Keyed);
            b.connect(map, sink, EdgeKind::Rebalance);
        }
        let w = b.build();
        let m = RegionMap::compute(2, &w.ops, &w.edges, &w.chans, w.insts.len(), 50, 30);
        assert_eq!(m.k(), 2);
        assert_eq!(m.cut_channels(), 0, "components must never be split");
        let la = m.lookahead();
        assert_eq!(la[1], SimTime::MAX);
        assert_eq!(la[2], SimTime::MAX);
        // Each pipeline's three ops share one region.
        for p in 0..2 {
            let r = m.op(w.ops[3 * p].id);
            assert_eq!(m.op(w.ops[3 * p + 1].id), r);
            assert_eq!(m.op(w.ops[3 * p + 2].id), r);
        }
        assert_ne!(m.op(w.ops[0].id), m.op(w.ops[3].id));
    }

    #[test]
    fn k_clamps_to_operator_count() {
        let w = pipeline_world(2);
        let m = RegionMap::compute(64, &w.ops, &w.edges, &w.chans, w.insts.len(), 50, 30);
        assert!(m.k() <= 3, "three ops cannot make more than three regions");
        assert!(m.k() >= 2);
    }
}
