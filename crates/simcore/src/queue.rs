//! The future-event list.
//!
//! [`FutureEventList`] is the simulator's scheduler subsystem: it owns the
//! monotonic clock, the schedule-order sequence numbers and the past-clamp
//! semantics, and stores every pending event in one binary min-heap
//! (`MinQueue`) keyed `(at, region, seq)`. A list built with one region
//! tags everything region 0, so its key is `(at, seq)`; a PDES-partitioned
//! list ([`crate::region`]) pops the same heap in region-major order.
//!
//! The contract:
//!
//! 1. events pop in non-decreasing timestamp order,
//! 2. events scheduled for the same instant pop in the order they were
//!    scheduled (FIFO by sequence number) within a region, lowest region
//!    first — that stability is essential for determinism: two runs with
//!    the same seed must interleave identically,
//! 3. scheduling in the past clamps to "now" — the clock never goes
//!    backwards.
//!
//! `(at, region, seq)` keys are unique, so pop order is a property of the
//! key alone. PRs 3–17 kept an adaptive calendar queue here, tuned for
//! hundreds of pending events; burst deliveries (PR 12) left at most ~50
//! pending on every benchmark workload, where the heap measured no slower
//! end to end (PR 18).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::region::{RegionSync, SyncStats};
use crate::time::SimTime;

/// A timestamped event with its region and schedule-order sequence number.
/// Ordered by `(at, region, seq)`, so same-instant events drain region by
/// region and keep FIFO order inside each. [`FutureEventList`] mints these
/// (the `seq` values must be unique per list and region).
///
/// Equality and ordering deliberately compare the `(at, region, seq)` key
/// only and **ignore the payload**: the key identifies the entry, and `E`
/// need not be `Eq`/`Ord`. Don't use `==` to compare payloads.
pub struct Scheduled<E> {
    /// Absolute firing time.
    pub at: SimTime,
    /// Schedule-order sequence number (unique per list and region).
    pub seq: u64,
    /// The region the event belongs to (0 on a one-region list).
    pub region: u32,
    /// The event payload.
    pub event: E,
}

impl<E> Scheduled<E> {
    #[inline]
    fn key(&self) -> (SimTime, u32, u64) {
        (self.at, self.region, self.seq)
    }
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// The pending set: a binary min-heap over the `(at, region, seq)` key. It
/// requires only that pushes carry unique keys; [`FutureEventList`] (clock,
/// minting, past-clamp, region accounting) is its user.
pub(crate) struct MinQueue<E>(BinaryHeap<Reverse<Scheduled<E>>>);

impl<E> MinQueue<E> {
    /// An empty queue with room for `cap` pending events.
    pub(crate) fn with_capacity(cap: usize) -> Self {
        Self(BinaryHeap::with_capacity(cap))
    }

    /// Number of pending events.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// Insert an event.
    // checker:hot-path
    #[inline]
    pub(crate) fn push(&mut self, s: Scheduled<E>) {
        self.0.push(Reverse(s));
    }

    /// Pop the earliest event by `(at, region, seq)` if it is due at or
    /// before `t`.
    // checker:hot-path
    #[inline]
    pub(crate) fn pop_at_most(&mut self, t: SimTime) -> Option<Scheduled<E>> {
        if self.peek_time()? > t {
            return None;
        }
        self.0.pop().map(|Reverse(s)| s)
    }

    /// Drain one region's share of the run at instant `at`: while the head
    /// is due exactly at `at` and in the head's region, append its payload
    /// to `out` (in `seq` order). Returns `(region, count)`, or `None` once
    /// nothing is left at `at`. Called until `None`, it drains the whole
    /// run region by region, lowest region first.
    // checker:hot-path
    pub(crate) fn pop_region_run(&mut self, at: SimTime, out: &mut Vec<E>) -> Option<(u32, usize)> {
        let region = self.0.peek().filter(|Reverse(s)| s.at == at)?.0.region;
        let mut n = 0usize;
        while self
            .0
            .peek()
            .is_some_and(|Reverse(s)| s.at == at && s.region == region)
        {
            let Reverse(s) = self.0.pop().expect("peeked");
            out.push(s.event);
            n += 1;
        }
        Some((region, n))
    }

    /// Timestamp of the earliest pending event.
    #[inline]
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.0.peek().map(|Reverse(s)| s.at)
    }

    /// Keep only the events of `region`.
    pub(crate) fn retain_region(&mut self, region: u32) {
        self.0.retain(|Reverse(s)| s.region == region);
    }
}

/// A deterministic future-event list.
///
/// `E` is the simulation's event type; the list never inspects it. The
/// clock (`now`), the FIFO tie-break sequence, the past-clamp and the
/// region tag live here; the heap underneath only ever sees fully-formed
/// [`Scheduled`] entries and returns them in `(at, region, seq)` order.
pub struct FutureEventList<E> {
    heap: MinQueue<E>,
    sync: RegionSync,
    now: SimTime,
    seq: u64,
    processed: u64,
}

impl<E> Default for FutureEventList<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> FutureEventList<E> {
    /// Create an empty list with the clock at zero.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Create an empty list with pre-allocated storage for about `cap`
    /// pending events. Sized from the world's entity counts at build time,
    /// this keeps the future-event list from re-allocating during the
    /// simulation's warm-up ramp.
    pub fn with_capacity(cap: usize) -> Self {
        Self::with_regions(cap, 1)
    }

    /// Create an empty list whose pending events are tagged with one of
    /// `regions` regions and popped in region-major order (PDES; see
    /// [`crate::region`]). `regions <= 1` is the plain list: every event
    /// is region 0 and no sync accounting is recorded. Events are assigned
    /// to regions via [`schedule_tagged`](Self::schedule_tagged) /
    /// [`schedule_at_tagged`](Self::schedule_at_tagged); the untagged
    /// `schedule` / `schedule_at` land in region 0.
    pub fn with_regions(cap: usize, regions: usize) -> Self {
        Self {
            heap: MinQueue::with_capacity(cap),
            sync: RegionSync::new(regions),
            now: 0,
            seq: 0,
            processed: 0,
        }
    }

    /// Number of regions events are tagged with (1 for a plain list).
    pub fn regions(&self) -> usize {
        self.sync.regions()
    }

    /// Current simulated time: the timestamp of the most recently popped
    /// event (0 before the first pop).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events popped so far, plus everything reported through
    /// [`note_coalesced`](Self::note_coalesced) — the *logical* event
    /// count.
    #[inline]
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// The sequence number the next `schedule*` call will mint. A caller
    /// that remembers the `seq` of an entry it scheduled can tell from this
    /// whether anything else was minted since ([`push_keyed`](Self::push_keyed)
    /// mints nothing).
    #[inline]
    pub fn next_seq(&self) -> u64 {
        self.seq
    }

    /// Count `extra` more logical events as processed out of `region`: the
    /// caller coalesced `extra + 1` logical events into one scheduled entry
    /// and has just popped it. Keeps [`processed`](Self::processed) and
    /// [`region_processed`](Self::region_processed) in logical events, so
    /// they do not depend on how a caller packs its entries.
    // checker:hot-path
    #[inline]
    pub fn note_coalesced(&mut self, region: usize, extra: u64) {
        self.processed += extra;
        self.sync.note_coalesced(region, extra);
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedule `event` to fire `delay` after the current time.
    #[inline]
    pub fn schedule(&mut self, delay: SimTime, event: E) {
        self.schedule_at(self.now.saturating_add(delay), event);
    }

    /// Schedule `event` at an absolute time. Times in the past are clamped to
    /// "now" — the simulator never travels backwards.
    #[inline]
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        self.schedule_at_tagged(0, at, event);
    }

    /// Schedule `event` `delay` after the current time, assigning it to
    /// `region` (clamped to the last region, so always 0 on a one-region
    /// list).
    #[inline]
    pub fn schedule_tagged(&mut self, region: usize, delay: SimTime, event: E) {
        self.schedule_at_tagged(region, self.now.saturating_add(delay), event);
    }

    /// Schedule `event` at an absolute time in `region`. See
    /// [`schedule_tagged`](Self::schedule_tagged).
    #[inline]
    pub fn schedule_at_tagged(&mut self, region: usize, at: SimTime, event: E) {
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.push_keyed(region, at, seq, event);
    }

    /// Schedule `event` at absolute time `at` in `region` under a
    /// caller-supplied ordering key, bypassing both sequence minting and
    /// the past-clamp. Expert API for the PDES engines: cross-region
    /// events (cut-channel deliveries and credit returns) must carry the
    /// *same* key in the sequential reference engine and in every
    /// thread-per-region replica, so the key is computed by the caller
    /// (from per-link counters) instead of minted here. The caller owns
    /// key uniqueness and must keep `at >= now()`; the global `seq`
    /// counter is not advanced.
    // checker:hot-path
    #[inline]
    pub fn push_keyed(&mut self, region: usize, at: SimTime, seq: u64, event: E) {
        debug_assert!(at >= self.now, "keyed push into the past");
        let region = self.sync.clamp(region);
        self.heap.push(Scheduled {
            at,
            seq,
            region,
            event,
        });
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_at_most(SimTime::MAX)
    }

    /// Pop the next event only if it is due at or before `t`, advancing
    /// the clock to its timestamp. Events beyond `t` stay queued. The
    /// engine's dispatch loop drains whole runs
    /// ([`pop_run_at_most`](Self::pop_run_at_most)); popping one event at
    /// a time is the reference order that loop is tested against.
    // checker:hot-path
    pub fn pop_at_most(&mut self, t: SimTime) -> Option<(SimTime, E)> {
        let s = self.heap.pop_at_most(t)?;
        debug_assert!(s.at >= self.now, "event queue time went backwards");
        self.sync.advance(s.region, s.at, 1);
        self.sync.end_run();
        self.now = s.at;
        self.processed += 1;
        Some((s.at, s.event))
    }

    /// Drain the entire run of events sharing the earliest pending instant
    /// (if that instant is at or before `t`) into `buf` — region by region,
    /// lowest first, in schedule (FIFO) order inside each — and advance
    /// the clock to that instant, once for the whole run. Returns the
    /// run's instant, or `None` (leaving `buf` empty) if nothing is due by
    /// `t`.
    ///
    /// This is the batch form of [`pop_at_most`](Self::pop_at_most): the
    /// driver pays one horizon check, one clock update and one dispatch
    /// hand-off per *instant* instead of per *event*.
    ///
    /// Contract notes (see also the batch-drain section of `CHANGES.md`):
    /// `buf` is cleared first — the caller owns the buffer and is expected
    /// to reuse it across calls to keep the loop allocation-free; events
    /// scheduled *while the caller processes the run* (including more
    /// events at the same instant — the clock makes them clamp to it) are
    /// never part of the already-drained run, they form a later run exactly
    /// as they would pop after the run under single-event popping, because
    /// their sequence numbers are larger.
    pub fn pop_run_at_most(&mut self, t: SimTime, buf: &mut Vec<E>) -> Option<SimTime> {
        buf.clear();
        let at = self.heap.peek_time().filter(|&at| at <= t)?;
        debug_assert!(at >= self.now, "event queue time went backwards");
        while let Some((region, n)) = self.heap.pop_region_run(at, buf) {
            self.sync.advance(region, at, n as u64);
        }
        self.sync.end_run();
        self.now = at;
        self.processed += buf.len() as u64;
        Some(at)
    }

    /// Advance the clock to `t` without dispatching anything (no-op if the
    /// clock is already at or past `t`). Drivers call this when a
    /// `run_until(t)` horizon is exhausted: the simulation has observed
    /// that no event happens in `(now, t]`, so time *has* passed — leaving
    /// the clock at the last dispatched event would make anything later
    /// scheduled relative to `now()` land in the past and get past-clamped.
    ///
    /// The advance is clamped to the earliest still-pending event: the
    /// clock can never jump over an undispatched event (which would make
    /// the next pop move time backwards). In the driver's exhausted-horizon
    /// case everything pending is beyond `t`, so the clamp is a no-op
    /// there; it exists to make direct misuse fail safe instead of
    /// silently breaking monotonicity.
    pub fn advance_clock_to(&mut self, t: SimTime) {
        let t = match self.peek_time() {
            Some(at) => t.min(at),
            None => t,
        };
        if t > self.now {
            self.now = t;
        }
    }

    /// Timestamp of the next pending event without popping it.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek_time()
    }

    // -----------------------------------------------------------------
    // Region accounting (PDES; see `crate::region`). None of it is
    // recorded on a one-region list.
    // -----------------------------------------------------------------

    /// Install the region lookahead matrix (row-major `k × k`;
    /// `la[from][to]` = minimum latency of any event a `from`-region
    /// handler can schedule into `to`). No-op on a one-region list.
    pub fn set_region_lookahead(&mut self, la: &[SimTime]) {
        self.sync.set_lookahead(la);
    }

    /// The local clock of `region`: the timestamp of the last event popped
    /// from it (0 before the first pop). A one-region list reports the
    /// global clock.
    pub fn region_clock(&self, region: usize) -> SimTime {
        self.sync.clock(region).unwrap_or(self.now)
    }

    /// Conservative-sync accounting counters (zeroes on a one-region
    /// list).
    pub fn region_sync_stats(&self) -> SyncStats {
        self.sync.stats()
    }

    /// Events popped out of `region` so far. A one-region list attributes
    /// everything to region 0.
    pub fn region_processed(&self, region: usize) -> u64 {
        self.sync
            .pops(region)
            .unwrap_or(if region == 0 { self.processed } else { 0 })
    }

    /// Drop every pending event outside region `keep`. Used by the
    /// thread-per-region executor: each replica builds the full world
    /// identically, then prunes its queue to the one region it owns. The
    /// clock, the `seq` counter, the processed count and the accounting
    /// are untouched. `keep` is clamped to the last region like a tag, so
    /// a one-region list keeps everything.
    pub fn retain_region(&mut self, keep: usize) {
        self.heap.retain_region(self.sync.clamp(keep));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = FutureEventList::new();
        q.schedule(30, "c");
        q.schedule(10, "a");
        q.schedule(20, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_in_schedule_order() {
        let mut q = FutureEventList::new();
        for i in 0..100 {
            q.schedule(5, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((5, i)));
        }
    }

    #[test]
    fn clock_is_monotonic_and_past_is_clamped() {
        let mut q = FutureEventList::new();
        q.schedule(100, "later");
        assert_eq!(q.pop(), Some((100, "later")));
        // Scheduling "in the past" clamps to now.
        q.schedule_at(50, "past");
        assert_eq!(q.pop(), Some((100, "past")));
        assert_eq!(q.now(), 100);
    }

    #[test]
    fn relative_schedule_uses_current_clock() {
        let mut q = FutureEventList::new();
        q.schedule(10, 1);
        q.pop();
        q.schedule(5, 2);
        assert_eq!(q.pop(), Some((15, 2)));
    }

    #[test]
    fn counts_processed() {
        let mut q = FutureEventList::new();
        q.schedule(1, ());
        q.schedule(2, ());
        q.pop();
        q.pop();
        assert_eq!(q.processed(), 2);
        assert!(q.is_empty());
    }

    #[test]
    fn coalesced_entries_count_as_logical_events_in_their_region() {
        for regions in [1usize, 2] {
            let mut q = FutureEventList::with_regions(0, regions);
            assert_eq!(q.next_seq(), 0);
            q.schedule_tagged(regions - 1, 5, "burst of three");
            assert_eq!(q.next_seq(), 1);
            // An explicit key mints nothing.
            q.push_keyed(0, 6, 1 << 63, "keyed");
            assert_eq!(q.next_seq(), 1);
            assert_eq!(q.pop(), Some((5, "burst of three")));
            q.note_coalesced(regions - 1, 2);
            assert_eq!(q.pop(), Some((6, "keyed")));
            assert_eq!(q.processed(), 4);
            let per_region: u64 = (0..regions).map(|r| q.region_processed(r)).sum();
            assert_eq!(per_region, 4, "{regions} regions");
            assert_eq!(
                q.region_processed(regions - 1),
                if regions == 1 { 4 } else { 3 }
            );
        }
    }

    #[test]
    fn pop_at_most_respects_horizon() {
        let mut q = FutureEventList::new();
        q.schedule(10, "a");
        q.schedule(30, "b");
        assert_eq!(q.pop_at_most(5), None);
        assert_eq!(q.pop_at_most(10), Some((10, "a")));
        assert_eq!(q.pop_at_most(29), None);
        assert_eq!(q.len(), 1, "unpopped event must stay queued");
        assert_eq!(q.pop_at_most(SimTime::MAX), Some((30, "b")));
    }

    #[test]
    fn pop_run_drains_exactly_the_earliest_instant_run_in_fifo_order() {
        let mut q = FutureEventList::new();
        // Two massed runs plus a straggler between them.
        for i in 0..300u64 {
            q.schedule_at(50, i);
        }
        q.schedule_at(75, 1_000);
        for i in 0..10u64 {
            q.schedule_at(90, 2_000 + i);
        }
        let mut buf = Vec::new();
        assert_eq!(q.pop_run_at_most(SimTime::MAX, &mut buf), Some(50));
        assert_eq!(buf, (0..300).collect::<Vec<_>>());
        assert_eq!(q.now(), 50);
        assert_eq!(q.processed(), 300);
        assert_eq!(q.len(), 11, "later instants must stay queued");
        assert_eq!(q.pop_run_at_most(SimTime::MAX, &mut buf), Some(75));
        assert_eq!(buf, vec![1_000]);
        assert_eq!(q.pop_run_at_most(SimTime::MAX, &mut buf), Some(90));
        assert_eq!(buf, (2_000..2_010).collect::<Vec<_>>());
        assert_eq!(q.pop_run_at_most(SimTime::MAX, &mut buf), None);
        assert!(buf.is_empty(), "a dry drain must leave the buffer empty");
    }

    #[test]
    fn pop_run_respects_horizon_and_clears_stale_buffer() {
        let mut q = FutureEventList::new();
        q.schedule_at(40, "early");
        q.schedule_at(80, "late");
        let mut buf = vec!["stale"];
        assert_eq!(q.pop_run_at_most(30, &mut buf), None);
        assert!(buf.is_empty(), "dry horizon probe must clear the buffer");
        assert_eq!(q.pop_run_at_most(40, &mut buf), Some(40));
        assert_eq!(buf, vec!["early"]);
        assert_eq!(q.pop_run_at_most(79, &mut buf), None);
        assert_eq!(q.len(), 1, "beyond-horizon event must stay queued");
        assert_eq!(q.pop_run_at_most(80, &mut buf), Some(80));
        assert_eq!(buf, vec!["late"]);
    }

    #[test]
    fn pop_run_matches_single_pop_sequence() {
        // Batch drains must yield exactly the single-pop event sequence,
        // run boundaries included — the contract the engine's dispatch
        // loop rides on.
        let mut x = 0x0005_DEEC_E66D_1531_u64;
        let mut step = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut single = FutureEventList::new();
        let mut batch = FutureEventList::new();
        for i in 0..2_000u64 {
            // Heavy massing: few distinct instants.
            let at = step() % 97;
            single.schedule_at(at, i);
            batch.schedule_at(at, i);
        }
        let mut got_single = Vec::new();
        while let Some((at, id)) = single.pop() {
            got_single.push((at, id));
        }
        let mut got_batch = Vec::new();
        let mut buf = Vec::new();
        while let Some(at) = batch.pop_run_at_most(SimTime::MAX, &mut buf) {
            for &id in &buf {
                got_batch.push((at, id));
            }
        }
        assert_eq!(got_single, got_batch);
        assert_eq!(single.processed(), batch.processed());
        assert_eq!(single.now(), batch.now());
    }

    #[test]
    fn advance_clock_to_reaches_horizon_after_queue_drains() {
        // Regression: `run_until(t)` used to leave the clock at the last
        // dispatched event when the queue drained before `t`, so anything
        // scheduled relative to `now()` afterwards landed in the past and
        // got past-clamped. The driver now advances the clock to the
        // exhausted horizon via `advance_clock_to`.
        let mut q = FutureEventList::new();
        q.schedule_at(10, "only");
        while q.pop_at_most(100).is_some() {}
        // Pre-fix behavior, preserved at the pop level: the clock sits
        // at the last event.
        assert_eq!(q.now(), 10);
        q.advance_clock_to(100);
        assert_eq!(q.now(), 100);
        // Relative scheduling is now relative to the horizon...
        q.schedule(5, "after");
        assert_eq!(q.pop(), Some((105, "after")));
        // ...and the clock never moves backwards.
        q.advance_clock_to(50);
        assert_eq!(q.now(), 105);
    }

    #[test]
    fn advance_clock_to_cannot_jump_over_pending_events() {
        // Misuse guard: advancing past a still-pending event would make
        // the next pop move simulated time backwards (silently, in release
        // builds). The advance clamps to the earliest pending instant.
        let mut q = FutureEventList::new();
        q.schedule_at(50, "pending");
        q.advance_clock_to(100);
        assert_eq!(q.now(), 50, "clock jumped a pending event");
        assert_eq!(q.pop(), Some((50, "pending")));
        assert_eq!(q.now(), 50);
        q.advance_clock_to(100);
        assert_eq!(q.now(), 100, "empty queue: advance reaches the horizon");
    }

    #[test]
    fn peek_matches_pop_interleaved() {
        let mut q = FutureEventList::new();
        for i in 0..200u64 {
            q.schedule((i * 37) % 101, i);
        }
        while let Some(t) = q.peek_time() {
            // Scheduling after a peek, behind the peeked time but at or
            // after now, must not be lost or reordered — the next peek
            // must see it.
            if q.processed() == 50 {
                q.schedule_at(q.now(), 10_000);
                let t2 = q.peek_time().expect("just scheduled");
                assert!(t2 <= t);
                let (at, _) = q.pop().expect("peeked");
                assert_eq!(at, t2);
                continue;
            }
            let (at, _) = q.pop().expect("peeked");
            assert_eq!(at, t);
        }
        assert!(q.is_empty());
    }

    fn push(q: &mut MinQueue<u64>, at: SimTime, seq: u64) {
        q.push(Scheduled {
            at,
            seq,
            region: 0,
            event: seq,
        });
    }

    fn drain(q: &mut MinQueue<u64>) -> Vec<(SimTime, u64)> {
        let mut out = Vec::new();
        while let Some(s) = q.pop_at_most(SimTime::MAX) {
            out.push((s.at, s.seq));
        }
        out
    }

    #[test]
    fn adversarial_differential_fuzz_with_batch_drains_and_dry_jumps() {
        // The list's whole contract, checked against an independent
        // sorted-Vec reference of `(at, region, seq)` keys: single pops,
        // run drains, horizon probes of both kinds that come back dry,
        // pushes at earlier-but-still-future instants right after a dry
        // probe, massed same-instant runs and far-future pushes, with the
        // population swinging widely. Region tags are drawn from `0..k + 2`,
        // so out-of-range tags exercise the clamp to the last region.
        for k in [1usize, 3] {
            for seed in 1u64..=8 {
                let mut q = FutureEventList::with_regions(0, k);
                // `seq` is the payload: the list mints it in schedule order.
                let mut reference: Vec<(SimTime, usize, u64)> = Vec::new();
                let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                let mut step = || {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x
                };
                let mut batch: Vec<u64> = Vec::new();
                let schedule = |q: &mut FutureEventList<u64>,
                                reference: &mut Vec<(SimTime, usize, u64)>,
                                tag: u64,
                                at: SimTime| {
                    let (tag, seq) = (tag as usize % (k + 2), q.next_seq());
                    q.schedule_at_tagged(tag, at, seq);
                    reference.push((at, tag.min(k - 1), seq));
                };
                // Drain the reference's earliest run, as the list must.
                let ref_run = |reference: &mut Vec<(SimTime, usize, u64)>, at: SimTime| {
                    reference.sort_unstable();
                    let n = reference.iter().take_while(|m| m.0 == at).count();
                    reference.drain(..n).map(|m| m.2).collect::<Vec<_>>()
                };
                for _ in 0..60_000u64 {
                    let now = q.now();
                    match step() % 10 {
                        0 | 1 => {
                            // Single pop.
                            reference.sort_unstable();
                            let want = (!reference.is_empty()).then(|| reference.remove(0));
                            assert_eq!(q.pop(), want.map(|m| (m.0, m.2)), "k {k} seed {seed}");
                        }
                        2 | 3 => {
                            // Batch drain of the earliest run, full horizon.
                            reference.sort_unstable();
                            let due = reference.first().map(|m| m.0);
                            assert_eq!(q.pop_run_at_most(SimTime::MAX, &mut batch), due);
                            if let Some(at) = due {
                                assert_eq!(
                                    batch,
                                    ref_run(&mut reference, at),
                                    "k {k} seed {seed}: run out of (region, seq) order"
                                );
                            }
                            assert!(due.is_some() || batch.is_empty());
                        }
                        4 => {
                            // Dry-or-not horizon probe (single).
                            let horizon = now + step() % 3_000;
                            reference.sort_unstable();
                            let want = reference
                                .first()
                                .filter(|m| m.0 <= horizon)
                                .map(|m| (m.0, m.2));
                            assert_eq!(q.pop_at_most(horizon), want, "k {k} seed {seed}");
                            if want.is_some() {
                                reference.remove(0);
                            }
                        }
                        5 => {
                            // Dry-or-not horizon probe (batch).
                            let horizon = now + step() % 3_000;
                            reference.sort_unstable();
                            let due = reference.first().map(|m| m.0).filter(|&at| at <= horizon);
                            assert_eq!(
                                q.pop_run_at_most(horizon, &mut batch),
                                due,
                                "k {k} seed {seed}: dry batch probe"
                            );
                            match due {
                                Some(at) => assert_eq!(batch, ref_run(&mut reference, at)),
                                None => assert!(batch.is_empty()),
                            }
                        }
                        6 => {
                            // Push at an earlier-but-still-future instant,
                            // below whatever the last dry probe peeked.
                            let at = now + 1 + step() % 64;
                            schedule(&mut q, &mut reference, step(), at);
                        }
                        7 => {
                            // Massed tie burst at one future instant, tags
                            // mixed.
                            let at = now + step() % 2_000;
                            for _ in 0..1 + step() % 40 {
                                schedule(&mut q, &mut reference, step(), at);
                            }
                        }
                        _ => {
                            // Mixed-horizon pushes (short / mid / far future).
                            let at = now
                                + match step() % 10 {
                                    0..=6 => step() % 500,
                                    7 | 8 => step() % 30_000,
                                    _ => 600_000 + step() % 5_000_000,
                                };
                            schedule(&mut q, &mut reference, step(), at);
                        }
                    }
                    assert_eq!(
                        q.len(),
                        reference.len(),
                        "k {k} seed {seed}: length diverged"
                    );
                    assert_eq!(q.peek_time(), reference.iter().map(|m| m.0).min());
                }
                reference.sort_unstable();
                let mut drained = Vec::new();
                while let Some((at, seq)) = q.pop() {
                    drained.push((at, seq));
                }
                let want: Vec<(SimTime, u64)> = reference.iter().map(|m| (m.0, m.2)).collect();
                assert_eq!(drained, want, "k {k} seed {seed}: final drain diverged");
                let per_region: u64 = (0..k).map(|r| q.region_processed(r)).sum();
                assert_eq!(per_region, q.processed(), "k {k} seed {seed}");
            }
        }
    }

    #[test]
    fn timestamps_near_u64_max_terminate() {
        let mut q = MinQueue::with_capacity(0);
        push(&mut q, SimTime::MAX - 3, 0);
        push(&mut q, SimTime::MAX, 1);
        push(&mut q, 100, 2);
        assert_eq!(
            drain(&mut q),
            vec![(100, 2), (SimTime::MAX - 3, 0), (SimTime::MAX, 1)]
        );
    }
}
