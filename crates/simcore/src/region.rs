//! Region-partitioned scheduling — conservative PDES inside one
//! [`FutureEventList`](crate::queue::FutureEventList).
//!
//! # What a region is
//!
//! A *region* is a partition class of the simulation's event producers
//! (for the engine: a connected group of operators chosen by a min-cut
//! over the dataflow graph). Each region owns its own
//! [`BackendQueue`](crate::queue::BackendQueue) — its private future-event
//! list — plus a *local clock*: the timestamp of the last event dispatched
//! from it. The shell state (global clock, schedule-order `seq` minting,
//! past-clamp, processed counter) stays in the owning `FutureEventList`,
//! shared by all regions.
//!
//! # Exactness by construction
//!
//! Classic conservative synchronization (Chandy–Misra–Bryant) lets region
//! `r` advance to `min over r' of (clock(r') + lookahead(r' → r))`, where
//! the lookahead is the minimum latency of any event a handler in `r'`
//! can schedule into `r` — for the engine, the cut-edge channel latency.
//! That bound alone cannot reproduce this simulator's digests: the FIFO
//! tie-break among same-instant events is *global* schedule order, and the
//! engine's credit-return path (a receiver-side `pump` waking a blocked
//! sender in the upstream region at delay 0) makes the reverse lookahead
//! zero, collapsing pure CMB to lockstep.
//!
//! The scheduler therefore merges regions under the globally-unique
//! `(at, seq)` key: every pop takes the global minimum across the
//! per-region heads, and same-instant runs drained from several regions
//! are merged back into `seq` order. The popped sequence is byte-identical
//! to a single-queue list **for any region assignment** — region tagging
//! is purely a performance decision. The shared-memory merge *is* the CMB
//! fixed point (each head read is the neighbor clock + pending-event
//! information a null message would carry), so the conservative machinery
//! is kept as first-class accounting rather than as a gate: per-region
//! clocks, the lookahead matrix, [`RegionScheduler::safe_until`] /
//! [`RegionScheduler::grants`], and [`SyncStats`] counting how many
//! advances pure lookahead would *not* have granted (`min_rule_grants`)
//! and how many null messages a message-passing deployment would have
//! needed (`null_msgs`). The `region_sync` micro-bench and the
//! deadlock-freedom tests drive exactly this accounting; a distributed
//! runtime would swap the head reads for
//! [`spsc`](crate::spsc) rings without touching dispatch semantics.
//!
//! # Why partitioning is a perf win at all
//!
//! Two effects, both measured by `perf_report --regions both`:
//!
//! * **Population splitting** — each backend holds only its region's
//!   pending events: shallower heaps, smaller bucket sorts, and hot
//!   structures that stay cache-resident at pending-set sizes where one
//!   merged queue spills.
//! * **Geometry separation** — the calendar backend tunes its bucket
//!   width from the gaps of *its own* population. A source region's
//!   ~10 ms tick train no longer poisons the µs-scale delivery gaps of a
//!   downstream region (and massed delivery runs no longer dirty buckets
//!   that interleave with another region's traffic, forcing re-sorts).

use crate::queue::{BackendQueue, Scheduled, SchedulerBackend};
use crate::time::SimTime;

/// Conservative-synchronization accounting, maintained per pop. All
/// counters describe what a message-passing CMB deployment of the same
/// region graph would have done; they never influence dispatch order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SyncStats {
    /// Dispatched runs (a single pop counts as a run of one).
    pub runs: u64,
    /// Runs whose same-instant events spanned more than one region and
    /// were merged back into global `seq` order.
    pub merged_runs: u64,
    /// Advances granted by the global-minimum rule alone: the dispatched
    /// timestamp exceeded the region's pure-lookahead bound
    /// (`safe_until`), so neighbor clocks + lookahead would have blocked.
    pub min_rule_grants: u64,
    /// Null messages a message-passing runtime would have needed: for
    /// every min-rule grant, one per neighbor whose clock + lookahead
    /// still sat below the dispatched timestamp.
    pub null_msgs: u64,
}

/// Cached minimum key of one region's queue. Kept exact across pushes
/// (a push below the cached minimum *is* the new minimum, because `seq`
/// values only grow); only a pop invalidates it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Head {
    /// Unknown — refresh via `peek_key` before use.
    Stale,
    /// The region's queue is empty.
    Empty,
    /// The exact minimum `(at, seq)` of the region's queue.
    Key(SimTime, u64),
}

/// K per-region backend queues merged under the owning list's global
/// `(at, seq)` order, with conservative-PDES clock/lookahead accounting.
/// See the module docs; construct via
/// [`FutureEventList::with_backend_regions`](crate::queue::FutureEventList::with_backend_regions).
pub struct RegionScheduler<E> {
    queues: Vec<BackendQueue<E>>,
    heads: Vec<Head>,
    /// Per-region local clock: timestamp of the last event popped from the
    /// region (0 before the first pop). Monotone per region because pops
    /// follow the global `(at, seq)` order.
    clocks: Vec<SimTime>,
    /// Row-major `k × k` lookahead matrix: `lookahead[from * k + to]` is
    /// the minimum latency of any event a `from`-region handler can
    /// schedule into `to`. Defaults to all zeros (fully conservative).
    lookahead: Vec<SimTime>,
    stats: SyncStats,
    /// Reusable buffer for multi-region same-instant merges: contributor
    /// runs are drained keyed into it, sorted by `seq`, and handed out.
    merge_scratch: Vec<Scheduled<E>>,
    /// Region-major ordering (see [`Self::set_region_major`]): same-instant
    /// ties across regions break by ascending region index instead of by
    /// global `seq`, and multi-region runs drain region by region without
    /// the merge sort. Local `seq` values are then never compared across
    /// regions — the property the PDES engines rely on, because each
    /// engine mints local sequence numbers independently per region.
    region_major: bool,
    /// Events popped out of each region (single pops and run drains both
    /// count per event) — the per-region load-balance view.
    pops: Vec<u64>,
}

impl<E> RegionScheduler<E> {
    /// `regions` queues on `kind`, pre-sized for about `cap` pending
    /// events total. Requires `regions >= 2` (a single region is just a
    /// plain list — the `FutureEventList` constructor handles that
    /// degradation).
    pub(crate) fn new(kind: SchedulerBackend, cap: usize, regions: usize) -> Self {
        assert!(regions >= 2, "RegionScheduler needs at least two regions");
        assert!(
            regions <= 64,
            "region count is a partition fan-out, not a thread pool"
        );
        let per = cap / regions + 1;
        Self {
            queues: (0..regions).map(|_| BackendQueue::new(kind, per)).collect(),
            heads: vec![Head::Empty; regions],
            clocks: vec![0; regions],
            lookahead: vec![0; regions * regions],
            stats: SyncStats::default(),
            merge_scratch: Vec::new(),
            region_major: false,
            pops: vec![0; regions],
        }
    }

    pub(crate) fn kind(&self) -> SchedulerBackend {
        self.queues[0].kind()
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

    /// Conservative bound for `region` from neighbor clocks + lookahead
    /// alone: `min over r' != region of clock(r') + lookahead(r' →
    /// region)`.
    pub fn safe_until(&self, region: usize) -> SimTime {
        let k = self.regions();
        let mut safe = SimTime::MAX;
        for r in 0..k {
            if r == region {
                continue;
            }
            safe = safe.min(self.clocks[r].saturating_add(self.lookahead[r * k + region]));
        }
        safe
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

    /// Switch same-instant ordering to *region-major*: ties at one instant
    /// across regions break by ascending region index instead of by the
    /// globally-minted `seq`, and multi-region runs drain region by region
    /// (each region's run internally `(at, seq)`-ordered) without the
    /// global merge sort. In this mode local sequence numbers are never
    /// compared across regions, which is what lets the PDES engines — one
    /// shared queue or one replica queue per thread — mint local `seq`
    /// values independently per region yet pop identically. Only the PDES
    /// mode (`resume_latency > 0`) enables this; the default remains the
    /// merged-exact global FIFO.
    pub fn set_region_major(&mut self, on: bool) {
        self.region_major = on;
    }

    /// Drop every region's pending events except `keep`'s. Used by the
    /// thread-per-region executor: each replica builds the full world,
    /// then prunes to the one region it owns. Clocks, stats, and the
    /// lookahead matrix are left untouched.
    pub(crate) fn retain_region(&mut self, keep: usize) {
        let kind = self.kind();
        for r in 0..self.queues.len() {
            if r != keep {
                self.queues[r] = BackendQueue::new(kind, 1);
                self.heads[r] = Head::Empty;
            }
        }
    }

    /// Insert an entry into `region` (clamped to the last region). The
    /// head cache stays exact: a key below the cached minimum *is* the new
    /// minimum (its `seq` is the largest ever minted, so it can never tie).
    #[inline]
    pub(crate) fn push(&mut self, region: usize, s: Scheduled<E>) {
        let r = region.min(self.regions() - 1);
        match self.heads[r] {
            Head::Empty => self.heads[r] = Head::Key(s.at, s.seq),
            Head::Key(at, seq) if (s.at, s.seq) < (at, seq) => {
                self.heads[r] = Head::Key(s.at, s.seq)
            }
            _ => {}
        }
        self.queues[r].push(s);
    }

    /// Re-derive any stale head from its queue.
    fn refresh_heads(&mut self) {
        for r in 0..self.queues.len() {
            if self.heads[r] == Head::Stale {
                self.heads[r] = match self.queues[r].peek_key() {
                    Some((at, seq)) => Head::Key(at, seq),
                    None => Head::Empty,
                };
            }
        }
    }

    /// The region holding the global minimum and its key. Unique: `seq`
    /// values are globally unique (default mode); in region-major mode a
    /// same-instant tie goes to the lowest region index (the strict `<`
    /// on `at` keeps the first-seen head).
    fn min_head(&self) -> Option<(usize, SimTime, u64)> {
        let mut best: Option<(usize, SimTime, u64)> = None;
        for (r, h) in self.heads.iter().enumerate() {
            if let Head::Key(at, seq) = *h {
                debug_assert_ne!(*h, Head::Stale);
                let better = if self.region_major {
                    best.is_none_or(|(_, bat, _)| at < bat)
                } else {
                    best.is_none_or(|(_, bat, bseq)| (at, seq) < (bat, bseq))
                };
                if better {
                    best = Some((r, at, seq));
                }
            }
        }
        best
    }

    /// Mark `region`'s head unknown after a pop (or exactly empty, which a
    /// length read proves for free).
    #[inline]
    fn invalidate_head(&mut self, region: usize) {
        self.heads[region] = if self.queues[region].len() == 0 {
            Head::Empty
        } else {
            Head::Stale
        };
    }

    /// Conservative-sync accounting for dispatching timestamp `at` out of
    /// `region`, then the clock update. Must run *before* the clock moves.
    fn account_advance(&mut self, region: usize, at: SimTime) {
        let safe = self.safe_until(region);
        if at > safe {
            self.stats.min_rule_grants += 1;
            let k = self.regions();
            for r in 0..k {
                if r != region && self.clocks[r].saturating_add(self.lookahead[r * k + region]) < at
                {
                    self.stats.null_msgs += 1;
                }
            }
        }
        debug_assert!(at >= self.clocks[region], "region clock went backwards");
        self.clocks[region] = at;
    }

    /// Pop the global-minimum entry if due at or before `t`.
    pub(crate) fn pop_at_most(&mut self, t: SimTime) -> Option<Scheduled<E>> {
        self.refresh_heads();
        let (r, at, _) = self.min_head()?;
        if at > t {
            return None;
        }
        let s = self.queues[r].pop_at_most(t).expect("head said due");
        debug_assert_eq!(s.at, at);
        self.stats.runs += 1;
        self.pops[r] += 1;
        self.account_advance(r, at);
        self.invalidate_head(r);
        Some(s)
    }

    /// Drain the whole earliest-instant run (if due by `t`) into `buf` in
    /// global `seq` order. Single-region runs (the common case) drain
    /// straight from that region's queue; runs spanning regions drain each
    /// contributor's same-instant prefix and k-way merge by `seq`.
    pub(crate) fn pop_run_at_most(
        &mut self,
        t: SimTime,
        buf: &mut Vec<E>,
    ) -> Option<(SimTime, usize)> {
        self.refresh_heads();
        let (r0, at, _) = self.min_head()?;
        if at > t {
            return None;
        }
        let multi = self
            .heads
            .iter()
            .enumerate()
            .any(|(r, h)| r != r0 && matches!(*h, Head::Key(hat, _) if hat == at));
        if !multi {
            let (got_at, n) = self.queues[r0]
                .pop_run_at_most(t, buf)
                .expect("head said due");
            debug_assert_eq!(got_at, at);
            self.stats.runs += 1;
            self.pops[r0] += n as u64;
            self.account_advance(r0, at);
            self.invalidate_head(r0);
            return Some((at, n));
        }
        let k = self.regions();
        if self.region_major {
            // Region-major merge: drain contributors in ascending region
            // index, each run already internally `(at, seq)`-ordered. No
            // cross-region seq comparison happens — see set_region_major.
            let mut n = 0usize;
            for r in 0..k {
                if matches!(self.heads[r], Head::Key(hat, _) if hat == at) {
                    let (got_at, got_n) = self.queues[r]
                        .pop_run_at_most(t, buf)
                        .expect("head said due");
                    debug_assert_eq!(got_at, at);
                    n += got_n;
                    self.pops[r] += got_n as u64;
                    self.account_advance(r, at);
                    self.invalidate_head(r);
                }
            }
            self.stats.runs += 1;
            self.stats.merged_runs += 1;
            return Some((at, n));
        }
        // Same instant pending in several regions: drain each contributor's
        // run keyed into one buffer, then restore the global FIFO order by
        // sorting on `seq` (contributor runs are each seq-sorted already;
        // the sort is a cheap merge of a handful of sorted slices, and
        // multi-region instants are the rare case).
        let mut scratch = std::mem::take(&mut self.merge_scratch);
        scratch.clear();
        let mut n = 0usize;
        for r in 0..k {
            if matches!(self.heads[r], Head::Key(hat, _) if hat == at) {
                let (got_at, got_n) = self.queues[r]
                    .pop_run_keyed_at_most(t, &mut scratch)
                    .expect("head said due");
                debug_assert_eq!(got_at, at);
                n += got_n;
                self.pops[r] += got_n as u64;
                self.account_advance(r, at);
                self.invalidate_head(r);
            }
        }
        self.stats.runs += 1;
        self.stats.merged_runs += 1;
        scratch.sort_unstable_by_key(|s| s.seq);
        buf.extend(scratch.drain(..).map(|s| s.event));
        self.merge_scratch = scratch;
        Some((at, n))
    }

    /// Timestamp of the global-minimum entry.
    pub(crate) fn peek_time(&mut self) -> Option<SimTime> {
        self.refresh_heads();
        self.min_head().map(|(_, at, _)| at)
    }

    /// For each region: may it dispatch its head right now? True when the
    /// head is within the region's pure-lookahead bound, or when the head
    /// is the global minimum (the rule that makes conservative execution
    /// deadlock-free: the globally earliest event can always fire, even on
    /// cyclic region graphs with zero lookahead).
    pub fn grants(&mut self, out: &mut Vec<bool>) {
        self.refresh_heads();
        out.clear();
        let min = self.min_head();
        for (r, h) in self.heads.iter().enumerate() {
            let g = match *h {
                Head::Key(at, seq) => {
                    at <= self.safe_until(r)
                        || min.is_some_and(|(mr, mat, mseq)| (mr, mat, mseq) == (r, at, seq))
                }
                _ => false,
            };
            out.push(g);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::queue::{FutureEventList, SchedulerBackend};
    use crate::time::SimTime;

    const BACKENDS: [SchedulerBackend; 2] =
        [SchedulerBackend::BinaryHeap, SchedulerBackend::Calendar];

    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    #[test]
    fn one_region_degrades_to_single_list() {
        for b in BACKENDS {
            let q: FutureEventList<u32> = FutureEventList::with_backend_regions(b, 64, 1);
            assert_eq!(q.regions(), 1);
            let q: FutureEventList<u32> = FutureEventList::with_backend_regions(b, 64, 0);
            assert_eq!(q.regions(), 1);
        }
    }

    #[test]
    fn merged_pop_order_is_identical_to_single_for_any_region_tagging() {
        // The exactness contract: for EVERY region assignment, a K-region
        // list pops the byte-identical (time, event) sequence of a
        // single-queue list fed the same schedule calls. Random schedules,
        // random tags, interleaved single pops and batch drains, both
        // backends, several K.
        for b in BACKENDS {
            for k in [2usize, 3, 5] {
                for seed in 1u64..=4 {
                    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                    let mut single = FutureEventList::with_backend(b, 0);
                    let mut multi = FutureEventList::with_backend_regions(b, 0, k);
                    let mut sbuf: Vec<u64> = Vec::new();
                    let mut mbuf: Vec<u64> = Vec::new();
                    for i in 0..8_000u64 {
                        match xorshift(&mut x) % 8 {
                            0..=3 => {
                                // Mixed-horizon schedule; heavy massing.
                                let d = match xorshift(&mut x) % 10 {
                                    0..=5 => xorshift(&mut x) % 40,
                                    6..=8 => xorshift(&mut x) % 5_000,
                                    _ => 500_000 + xorshift(&mut x) % 2_000_000,
                                };
                                let r = (xorshift(&mut x) as usize) % k;
                                single.schedule(d, i);
                                multi.schedule_tagged(r, d, i);
                            }
                            4 | 5 => {
                                assert_eq!(single.pop(), multi.pop(), "backend {b:?} k {k}");
                            }
                            6 => {
                                let t = single.now() + xorshift(&mut x) % 1_000;
                                let sa = single.pop_run_at_most(t, &mut sbuf);
                                let ma = multi.pop_run_at_most(t, &mut mbuf);
                                assert_eq!(sa, ma, "backend {b:?} k {k}");
                                assert_eq!(sbuf, mbuf, "backend {b:?} k {k}");
                            }
                            _ => {
                                assert_eq!(single.peek_time(), multi.peek_time());
                            }
                        }
                        assert_eq!(single.len(), multi.len());
                        assert_eq!(single.now(), multi.now());
                        assert_eq!(single.processed(), multi.processed());
                    }
                    loop {
                        let (s, m) = (
                            single.pop_run_at_most(SimTime::MAX, &mut sbuf),
                            multi.pop_run_at_most(SimTime::MAX, &mut mbuf),
                        );
                        assert_eq!(s, m);
                        assert_eq!(sbuf, mbuf);
                        if s.is_none() {
                            break;
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn same_instant_runs_merge_across_regions_in_global_fifo_order() {
        for b in BACKENDS {
            let mut q = FutureEventList::with_backend_regions(b, 0, 3);
            // Interleave schedule order across regions at one instant.
            for i in 0..90u64 {
                q.schedule_at_tagged((i % 3) as usize, 500, i);
            }
            let mut buf = Vec::new();
            assert_eq!(q.pop_run_at_most(SimTime::MAX, &mut buf), Some(500));
            assert_eq!(buf, (0..90).collect::<Vec<_>>(), "backend {b:?}");
            assert_eq!(q.region_sync_stats().merged_runs, 1);
        }
    }

    #[test]
    fn region_clocks_advance_with_pops_and_stay_monotone() {
        let mut q = FutureEventList::with_backend_regions(SchedulerBackend::Calendar, 0, 2);
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
        // reverse 0 (the credit-return wake path).
        let l: SimTime = 200;
        let mut q = FutureEventList::with_backend_regions(SchedulerBackend::Calendar, 0, 2);
        q.set_region_lookahead(&[0, l, 0, 0]);
        q.schedule_tagged(0, 1_000, "up");
        q.schedule_tagged(1, 1_100, "down");
        // Region 1 may advance to clock(0) + L = 200 on lookahead alone;
        // its head (1_100) is beyond that, so only region 0 (the global
        // minimum) is grantable.
        assert_eq!(q.region_safe_until(1), l);
        let mut grants = Vec::new();
        q.region_grants(&mut grants);
        assert_eq!(grants, vec![true, false]);
        q.pop(); // "up" at 1_000: global min, within safe_until(0)? ...
                 // Popping "down" at 1_100 needs the min-rule (safe_until(1) =
                 // 1_000 + 200 = 1_200 >= 1_100 — lookahead grants it, no null
                 // message needed).
        q.pop();
        let stats = q.region_sync_stats();
        assert_eq!(stats.runs, 2);
        assert_eq!(
            stats.null_msgs, 1,
            "the first pop exceeded region 0's zero-lookahead bound and \
             needed one null message from region 1"
        );
    }

    #[test]
    fn zero_lookahead_cycles_always_grant_some_region() {
        // Deadlock freedom: on a cyclic region graph with zero lookahead
        // everywhere (the worst case: pure CMB would deadlock without null
        // messages), the global-minimum rule must always grant at least
        // one region while events are pending.
        for b in BACKENDS {
            for k in [2usize, 3, 4] {
                let mut x = 0xD225u64 | 1;
                let mut q: FutureEventList<u64> = FutureEventList::with_backend_regions(b, 0, k);
                // Lookahead stays all-zero (the constructor default).
                for i in 0..500u64 {
                    let r = (xorshift(&mut x) as usize) % k;
                    q.schedule_tagged(r, xorshift(&mut x) % 10_000, i);
                }
                let mut grants = Vec::new();
                while !q.is_empty() {
                    q.region_grants(&mut grants);
                    assert!(
                        grants.iter().any(|&g| g),
                        "backend {b:?} k {k}: no region grantable with {} pending",
                        q.len()
                    );
                    q.pop().expect("pending events");
                }
                q.region_grants(&mut grants);
                assert!(
                    grants.iter().all(|&g| !g),
                    "empty regions cannot be granted"
                );
                // Fully conservative matrix => every pop beyond another
                // region's clock was a min-rule grant.
                assert!(q.region_sync_stats().min_rule_grants > 0);
            }
        }
    }

    #[test]
    fn infinite_lookahead_needs_no_null_messages() {
        let mut q = FutureEventList::with_backend_regions(SchedulerBackend::Calendar, 0, 2);
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
        for b in BACKENDS {
            let mut single = FutureEventList::with_backend(b, 0);
            let mut multi = FutureEventList::with_backend_regions(b, 0, 2);
            for i in 0..100u64 {
                single.schedule((i * 13) % 64, i);
                multi.schedule((i * 13) % 64, i); // untagged → region 0
            }
            loop {
                let (s, m) = (single.pop(), multi.pop());
                assert_eq!(s, m, "backend {b:?}");
                if s.is_none() {
                    break;
                }
            }
            assert_eq!(multi.region_clock(1), 0, "region 1 never saw an event");
        }
    }
}
