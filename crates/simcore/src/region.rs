//! Region-partitioned scheduling — the PDES layout of one
//! [`FutureEventList`](crate::queue::FutureEventList).
//!
//! # What a region is
//!
//! A *region* is a partition class of the simulation's event producers
//! (for the engine: a connected group of operators chosen by a min-cut
//! over the dataflow graph; the engine partitions only when every cut edge
//! has positive latency in both directions, i.e. in PDES mode). Each
//! region owns its own `(at, seq)` min-heap — its private future-event
//! list — plus a *local clock*: the timestamp of the last event dispatched
//! from it. The shell state (global clock, schedule-order `seq` minting,
//! past-clamp, processed counter) stays in the owning `FutureEventList`,
//! shared by all regions.
//!
//! # Region-major order
//!
//! Every pop takes the earliest pending instant across the per-region
//! heap tops (an O(1) read-only peek each); ties at one instant break by
//! **ascending region index**, and inside a region by `(at, seq)`.
//! Sequence numbers are therefore never compared across regions, which is
//! what lets the PDES engines — one shared multi-region list (the
//! sequential reference) or one pruned
//! replica list per thread (`RegionScheduler::retain_region`)
//! — mint local `seq` values independently per region yet pop each
//! region's events in the identical order. A run drained with
//! `pop_run_at_most` that spans several regions is the concatenation of
//! each contributing region's same-instant run, lowest region first.
//!
//! # Accounting
//!
//! The scheduler pops in shared memory, so nothing here ever *blocks* on a
//! neighbour. What a message-passing Chandy–Misra–Bryant deployment of the
//! same region graph would have needed is kept as accounting instead:
//! per-region clocks, the lookahead matrix (`lookahead[from][to]` = minimum
//! latency of any event a `from`-region handler can schedule into `to`),
//! and [`SyncStats`] — how many advances exceeded the region's
//! pure-lookahead bound (`min_rule_grants`) and how many null messages
//! those would have cost (`null_msgs`). The counters never influence
//! dispatch order; they feed the bus `SyncEpoch` events and the run
//! reports.

use crate::queue::{MinQueue, Scheduled};
use crate::time::SimTime;

/// Conservative-synchronization accounting, maintained per pop. All
/// counters describe what a message-passing CMB deployment of the same
/// region graph would have done; they never influence dispatch order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SyncStats {
    /// Dispatched runs (a single pop counts as a run of one).
    pub runs: u64,
    /// Runs whose same-instant events spanned more than one region.
    pub merged_runs: u64,
    /// Advances granted by the global-minimum rule alone: the dispatched
    /// timestamp exceeded the region's pure-lookahead bound, so neighbor
    /// clocks + lookahead would have blocked.
    pub min_rule_grants: u64,
    /// Null messages a message-passing runtime would have needed: for
    /// every min-rule grant, one per neighbor whose clock + lookahead
    /// still sat below the dispatched timestamp.
    pub null_msgs: u64,
}

/// K per-region heaps popped in region-major order, with
/// conservative-PDES clock/lookahead accounting. See the module docs;
/// construct via
/// [`FutureEventList::with_regions`](crate::queue::FutureEventList::with_regions).
pub struct RegionScheduler<E> {
    queues: Vec<MinQueue<E>>,
    /// Per-region local clock: timestamp of the last event popped from the
    /// region (0 before the first pop). Monotone per region because pops
    /// never go back in time.
    clocks: Vec<SimTime>,
    /// Row-major `k × k` lookahead matrix: `lookahead[from * k + to]` is
    /// the minimum latency of any event a `from`-region handler can
    /// schedule into `to`. Defaults to all zeros (fully conservative).
    lookahead: Vec<SimTime>,
    stats: SyncStats,
    /// Events popped out of each region (single pops and run drains both
    /// count per event) — the per-region load-balance view.
    pops: Vec<u64>,
}

impl<E> RegionScheduler<E> {
    /// `regions` queues, pre-sized for about `cap` pending events total.
    /// Requires `regions >= 2` (a single region is just a plain list — the
    /// `FutureEventList` constructor handles that degradation).
    pub(crate) fn new(cap: usize, regions: usize) -> Self {
        assert!(regions >= 2, "RegionScheduler needs at least two regions");
        assert!(
            regions <= 64,
            "region count is a partition fan-out, not a thread pool"
        );
        let per = cap / regions + 1;
        Self {
            queues: (0..regions).map(|_| MinQueue::with_capacity(per)).collect(),
            clocks: vec![0; regions],
            lookahead: vec![0; regions * regions],
            stats: SyncStats::default(),
            pops: vec![0; regions],
        }
    }

    /// Number of regions (K).
    #[inline]
    pub fn regions(&self) -> usize {
        self.queues.len()
    }

    /// Total pending events across all regions.
    #[inline]
    pub fn len(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    /// Whether every region's queue is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Install the lookahead matrix (row-major `k × k`). Pure accounting —
    /// see the module docs.
    pub fn set_lookahead(&mut self, la: &[SimTime]) {
        let k = self.regions();
        assert_eq!(la.len(), k * k, "lookahead matrix must be k x k");
        self.lookahead.copy_from_slice(la);
    }

    /// The local clock of `region`.
    #[inline]
    pub fn clock(&self, region: usize) -> SimTime {
        self.clocks[region]
    }

    /// Accounting counters so far.
    #[inline]
    pub fn sync_stats(&self) -> SyncStats {
        self.stats
    }

    /// Events popped out of `region` so far (single pops and run drains
    /// both count per event).
    #[inline]
    pub fn region_pops(&self, region: usize) -> u64 {
        self.pops[region]
    }

    /// Count `extra` more events as popped out of `region` (clamped like
    /// [`push`](Self::push)); see `FutureEventList::note_coalesced`.
    #[inline]
    pub(crate) fn note_coalesced(&mut self, region: usize, extra: u64) {
        let r = region.min(self.regions() - 1);
        self.pops[r] += extra;
    }

    /// Drop every region's pending events except `keep`'s. Used by the
    /// thread-per-region executor: each replica builds the full world,
    /// then prunes to the one region it owns. Clocks, stats, and the
    /// lookahead matrix are left untouched.
    pub(crate) fn retain_region(&mut self, keep: usize) {
        for (r, q) in self.queues.iter_mut().enumerate() {
            if r != keep {
                *q = MinQueue::with_capacity(0);
            }
        }
    }

    /// Insert an entry into `region` (clamped to the last region).
    #[inline]
    pub(crate) fn push(&mut self, region: usize, s: Scheduled<E>) {
        let r = region.min(self.regions() - 1);
        self.queues[r].push(s);
    }

    /// The earliest pending instant and the lowest-indexed region holding
    /// it (the strict `<` keeps the first-seen head on a tie).
    fn min_head(&self) -> Option<(usize, SimTime)> {
        let mut best: Option<(usize, SimTime)> = None;
        for (r, q) in self.queues.iter().enumerate() {
            if let Some(at) = q.peek_time() {
                if best.is_none_or(|(_, bat)| at < bat) {
                    best = Some((r, at));
                }
            }
        }
        best
    }

    /// Conservative-sync accounting for dispatching timestamp `at` out of
    /// `region`, then the clock update. Must run *before* the clock moves.
    /// The region's pure-lookahead bound is `min over r' != region of
    /// clock(r') + lookahead(r' → region)`; a dispatch beyond it is a
    /// min-rule grant costing one null message per neighbor still below
    /// `at`.
    fn account_advance(&mut self, region: usize, at: SimTime) {
        let k = self.regions();
        let behind = (0..k)
            .filter(|&r| {
                r != region && self.clocks[r].saturating_add(self.lookahead[r * k + region]) < at
            })
            .count() as u64;
        if behind > 0 {
            self.stats.min_rule_grants += 1;
            self.stats.null_msgs += behind;
        }
        debug_assert!(at >= self.clocks[region], "region clock went backwards");
        self.clocks[region] = at;
    }

    /// Pop the earliest entry (lowest region on a tie) if due at or before
    /// `t`.
    pub(crate) fn pop_at_most(&mut self, t: SimTime) -> Option<Scheduled<E>> {
        let (r, at) = self.min_head()?;
        if at > t {
            return None;
        }
        let s = self.queues[r].pop_at_most(t).expect("head said due");
        debug_assert_eq!(s.at, at);
        self.stats.runs += 1;
        self.pops[r] += 1;
        self.account_advance(r, at);
        Some(s)
    }

    /// Drain the whole earliest-instant run (if due by `t`) into `buf`:
    /// every region holding that instant contributes its same-instant run,
    /// in ascending region index, each internally `(at, seq)`-ordered.
    pub(crate) fn pop_run_at_most(
        &mut self,
        t: SimTime,
        buf: &mut Vec<E>,
    ) -> Option<(SimTime, usize)> {
        let (_, at) = self.min_head()?;
        if at > t {
            return None;
        }
        let (mut n, mut contributors) = (0usize, 0u32);
        for r in 0..self.regions() {
            // `at` is the global minimum, so a region is due by `at` exactly
            // when its head is `at`.
            if let Some((got_at, got_n)) = self.queues[r].pop_run_at_most(at, buf) {
                debug_assert_eq!(got_at, at);
                n += got_n;
                contributors += 1;
                self.pops[r] += got_n as u64;
                self.account_advance(r, at);
            }
        }
        self.stats.runs += 1;
        self.stats.merged_runs += (contributors > 1) as u64;
        Some((at, n))
    }

    /// Timestamp of the earliest pending entry.
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.min_head().map(|(_, at)| at)
    }
}

#[cfg(test)]
mod tests {
    use crate::queue::FutureEventList;
    use crate::time::SimTime;

    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    #[test]
    fn one_region_degrades_to_single_list() {
        let q: FutureEventList<u32> = FutureEventList::with_regions(64, 1);
        assert_eq!(q.regions(), 1);
        let q: FutureEventList<u32> = FutureEventList::with_regions(64, 0);
        assert_eq!(q.regions(), 1);
    }

    #[test]
    fn pops_in_at_region_seq_order_for_any_region_tagging() {
        // The ordering contract: a K-region list pops in (at, region, seq)
        // order — checked against a min-scanned Vec model over random
        // schedules, random tags, interleaved single pops, batch drains
        // and horizon probes, for several K.
        for k in [2usize, 3, 5] {
            for seed in 1u64..=4 {
                let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                let mut q = FutureEventList::with_regions(0, k);
                // (at, region, seq == id): ids are minted in schedule order.
                let mut model: Vec<(SimTime, usize, u64)> = Vec::new();
                let mut buf: Vec<u64> = Vec::new();
                let mut id = 0u64;
                let pop_min = |model: &mut Vec<(SimTime, usize, u64)>| {
                    let i = (0..model.len()).min_by_key(|&i| model[i])?;
                    Some(model.swap_remove(i))
                };
                for _ in 0..8_000u64 {
                    match xorshift(&mut x) % 8 {
                        0..=3 => {
                            // Mixed-horizon schedule; heavy massing.
                            let d = match xorshift(&mut x) % 10 {
                                0..=5 => xorshift(&mut x) % 40,
                                6..=8 => xorshift(&mut x) % 5_000,
                                _ => 500_000 + xorshift(&mut x) % 2_000_000,
                            };
                            let r = (xorshift(&mut x) as usize) % k;
                            q.schedule_tagged(r, d, id);
                            model.push((q.now() + d, r, id));
                            id += 1;
                        }
                        4 | 5 => {
                            let want = pop_min(&mut model).map(|(at, _, e)| (at, e));
                            assert_eq!(q.pop(), want, "k {k}");
                        }
                        6 => {
                            let t = q.now() + xorshift(&mut x) % 1_000;
                            let due = model.iter().map(|m| m.0).min().filter(|&at| at <= t);
                            assert_eq!(q.pop_run_at_most(t, &mut buf), due, "k {k}");
                            let mut run = Vec::new();
                            while model.iter().any(|m| Some(m.0) == due) {
                                run.push(pop_min(&mut model).expect("non-empty").2);
                            }
                            assert_eq!(buf, run, "k {k}");
                        }
                        _ => {
                            assert_eq!(q.peek_time(), model.iter().map(|m| m.0).min());
                        }
                    }
                    assert_eq!(q.len(), model.len());
                }
                while let Some((at, _, e)) = pop_min(&mut model) {
                    assert_eq!(q.pop(), Some((at, e)));
                }
                assert!(q.is_empty());
                let per_region: u64 = (0..k).map(|r| q.region_processed(r)).sum();
                assert_eq!(per_region, q.processed());
            }
        }
    }

    #[test]
    fn same_instant_runs_drain_region_by_region() {
        let mut q = FutureEventList::with_regions(0, 3);
        // Interleave schedule order across regions at one instant.
        for i in 0..90u64 {
            q.schedule_at_tagged((i % 3) as usize, 500, i);
        }
        let mut buf = Vec::new();
        assert_eq!(q.pop_run_at_most(SimTime::MAX, &mut buf), Some(500));
        let want: Vec<u64> = (0..3u64)
            .flat_map(|r| (0..90).filter(move |i| i % 3 == r))
            .collect();
        assert_eq!(buf, want, "ascending region, FIFO inside each");
        assert_eq!(q.region_sync_stats().merged_runs, 1);
        assert_eq!(q.region_sync_stats().runs, 1);
    }

    #[test]
    fn retain_region_keeps_only_that_regions_pending_events() {
        let mut q = FutureEventList::with_regions(0, 3);
        for i in 0..30u64 {
            q.schedule_at_tagged((i % 3) as usize, 100 + i, i);
        }
        q.retain_region(1);
        assert_eq!(q.len(), 10);
        assert_eq!(q.next_seq(), 30, "the seq mint is untouched");
        let mut got = Vec::new();
        while let Some((_, e)) = q.pop() {
            got.push(e);
        }
        assert_eq!(got, (0..30).filter(|i| i % 3 == 1).collect::<Vec<_>>());
        assert_eq!(q.region_processed(1), 10);
        assert_eq!(q.region_processed(0) + q.region_processed(2), 0);
    }

    #[test]
    fn region_clocks_advance_with_pops_and_stay_monotone() {
        let mut q = FutureEventList::with_regions(0, 2);
        q.schedule_tagged(0, 10, "a");
        q.schedule_tagged(1, 20, "b");
        q.schedule_tagged(0, 30, "c");
        assert_eq!(q.region_clock(0), 0);
        q.pop();
        assert_eq!((q.region_clock(0), q.region_clock(1)), (10, 0));
        q.pop();
        assert_eq!((q.region_clock(0), q.region_clock(1)), (10, 20));
        q.pop();
        assert_eq!((q.region_clock(0), q.region_clock(1)), (30, 20));
    }

    #[test]
    fn lookahead_bounds_and_null_message_accounting() {
        // A 2-region pipeline: forward lookahead L (cut-edge latency),
        // reverse 0.
        let l: SimTime = 200;
        let mut q = FutureEventList::with_regions(0, 2);
        q.set_region_lookahead(&[0, l, 0, 0]);
        q.schedule_tagged(0, 1_000, "up");
        q.schedule_tagged(1, 1_100, "down");
        // "up" at 1_000 exceeds region 0's bound clock(1) + 0 = 0: a
        // min-rule grant costing one null message from region 1.
        q.pop();
        // "down" at 1_100 is within clock(0) + L = 1_200: lookahead grants
        // it, no null message needed.
        q.pop();
        let stats = q.region_sync_stats();
        assert_eq!(stats.runs, 2);
        assert_eq!(stats.min_rule_grants, 1);
        assert_eq!(stats.null_msgs, 1);
    }

    #[test]
    fn infinite_lookahead_needs_no_null_messages() {
        let mut q = FutureEventList::with_regions(0, 2);
        q.set_region_lookahead(&[SimTime::MAX; 4]);
        for i in 0..200u64 {
            q.schedule_tagged((i % 2) as usize, (i * 37) % 500, i);
        }
        while q.pop().is_some() {}
        let stats = q.region_sync_stats();
        assert_eq!(stats.min_rule_grants, 0);
        assert_eq!(stats.null_msgs, 0);
    }

    #[test]
    fn untagged_schedules_land_in_region_zero_and_stay_correct() {
        let mut single = FutureEventList::new();
        let mut multi = FutureEventList::with_regions(0, 2);
        for i in 0..100u64 {
            single.schedule((i * 13) % 64, i);
            multi.schedule((i * 13) % 64, i); // untagged → region 0
        }
        loop {
            let (s, m) = (single.pop(), multi.pop());
            assert_eq!(s, m);
            if s.is_none() {
                break;
            }
        }
        assert_eq!(multi.region_clock(1), 0, "region 1 never saw an event");
    }
}
