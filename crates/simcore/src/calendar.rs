//! A hierarchical calendar queue — the O(1) priority queue under the
//! [`FutureEventList`](crate::queue::FutureEventList).
//!
//! # Structure
//!
//! Pending events live in one of two tiers:
//!
//! * **Buckets (the calendar):** `nbuckets` (a power of two) day-buckets of
//!   `width = 2^shift` microseconds each. The calendar is a *rolling
//!   window* of `nbuckets` consecutive days starting at the scan cursor's
//!   day: an event due within the window lands in bucket
//!   `(at >> shift) & (nbuckets - 1)` and each bucket is kept sorted by
//!   `(at, seq)`. Because events arrive mostly in near-future order, the
//!   sorted insert is an append in the common case, and `pop` is a cursor
//!   scan that takes the front of the current day's bucket — O(1)
//!   amortized for the short-horizon events (sub-millisecond deliveries,
//!   ~10 ms source ticks) that dominate this simulator's load. The
//!   power-of-two width keeps the hot path free of divisions.
//! * **Overflow (the hierarchy):** events due beyond the window's end
//!   (deploy delays, checkpoint ticks, far-future timers) wait in a
//!   `(at, seq)`-ordered binary heap. As the cursor advances, overflow
//!   events whose day enters the window migrate into the buckets — lazily,
//!   checked with a single heap-peek comparison before each scan, so
//!   steady-state short-horizon traffic never touches the heap.
//!
//! # Bucket-width tuning rule
//!
//! The geometry adapts on occupancy-driven resizes, rate-limited to one
//! per `nbuckets` ops:
//!
//! * **Grow** (pending > 2 × nbuckets): double the buckets **and retune
//!   the width** — grows fire mid-burst, when the pending set is at its
//!   most representative. The rule: `width = next_power_of_two(3 ×
//!   lower-quartile gap between distinct pending instants)`, floored at
//!   1 µs and capped at 256 µs (see [`tune_shift`]'s docs for why the
//!   rule counts instants rather than events, biases narrow, and is
//!   capped). It aims at a few *instants* per day, so a pop rarely
//!   crosses an empty bucket and an insert is almost always an in-order
//!   append.
//! * **Shrink** (peak pending over a whole observation window
//!   < nbuckets / 8, never below the construction-time size): halve the
//!   buckets but **keep the width** — shrinks fire in lulls, whose gaps
//!   say nothing about the traffic that resumes after.
//!
//! All inputs to both rules are queue contents and op counts, so tuning
//! is deterministic.
//!
//! # Determinism contract (see `ROADMAP.md`, hot-path invariants #3/#4)
//!
//! Within one timestamp, events pop **FIFO by their schedule-order `seq`**:
//! buckets are sorted by `(at, seq)`, the overflow heap is ordered by
//! `(at, seq)`, and same-timestamp events can never be popped from
//! different tiers out of order (an overflow event migrates into the
//! buckets before the cursor can reach its day). Every structural
//! decision — bucket geometry, resize points, width retuning, migration —
//! is a pure function of the scheduled contents, so two lists fed the same
//! schedule sequence pop byte-identical `(time, event)` sequences. The
//! engine's event interleaving (and therefore every metrics digest) is
//! downstream of this property; treat any change here like a semantics
//! change and re-verify with `perf_report --baseline BENCH_PR8.json
//! --require-digest-match`.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::queue::Scheduled;
use crate::time::SimTime;

/// Smallest bucket count; also the initial count for empty queues.
const MIN_BUCKETS: usize = 32;
/// Largest bucket count the resize rule will grow to.
const MAX_BUCKETS: usize = 1 << 17;
/// log2 of the day width before the first retune (16 µs). Chosen for the
/// simulator's typical event gaps (a few µs under load); the first resize
/// replaces it.
const DEFAULT_SHIFT: u32 = 4;
/// Largest permitted width exponent: day width caps at 2^8 = 256 µs.
/// The simulator's hot events (deliveries, service quanta, wakes) live at
/// µs-to-sub-ms gaps; a day wider than this can only collide distinct
/// instants into one bucket (forcing re-sorts on interleaved inserts),
/// while everything slower — ticks, checkpoints, deploy delays — is
/// exactly what the overflow tier absorbs. Tuning samples taken during
/// startup or rescale lulls see only sparse timers and would otherwise
/// pick multi-ms days that poison the geometry for resumed traffic.
const MAX_SHIFT: u32 = 8;
/// Fewest pending events the tuning rule will draw conclusions from.
/// Transient lulls (e.g. a rescale quiescing sources) leave a handful of
/// far-apart control timers — tuning the width from those poisons the
/// geometry for the traffic that resumes after.
const TUNE_MIN_SAMPLE: usize = 16;

/// One day's events. Kept sorted by `(at, seq)` while small; large buckets
/// accept unsorted appends (`dirty`) and are sorted once when the scan
/// cursor reaches them — O(1) insert, amortized O(log B) per event to
/// sort, and no per-insert memmove even when a day holds hundreds of
/// events (dense populations where the 1 µs width floor binds).
struct Bucket<E> {
    q: VecDeque<Scheduled<E>>,
    dirty: bool,
}

impl<E> Bucket<E> {
    fn new() -> Self {
        Self {
            q: VecDeque::new(),
            dirty: false,
        }
    }

    /// Restore sorted order if unsorted appends accumulated.
    #[inline]
    fn ensure_sorted(&mut self) {
        if self.dirty {
            self.q
                .make_contiguous()
                .sort_unstable_by_key(|e| (e.at, e.seq));
            self.dirty = false;
        }
    }
}

/// Buckets at most this long keep sorted order by binary-insert; longer
/// ones switch to append-and-sort-lazily.
const SMALL_SORTED_LEN: usize = 16;

/// A hierarchical calendar queue ordered by `(at, seq)`.
///
/// Use it through [`FutureEventList`](crate::queue::FutureEventList), which
/// owns the clock, the sequence numbers and the past-clamp. The queue itself
/// only requires that pushes carry unique `seq` values and that no push is
/// earlier than the last popped `at` (the clamp upholds both).
pub struct CalendarQueue<E> {
    /// Day buckets (see [`Bucket`] for the intra-bucket ordering regime).
    buckets: Vec<Bucket<E>>,
    /// `nbuckets - 1`; bucket index of day `d` is `d & mask`.
    mask: u64,
    /// Day width is `1 << shift` µs.
    shift: u32,
    /// Scan cursor: no pending bucketed event has `at >> shift < cur_day`.
    /// Pushing an earlier-day event pulls the cursor back.
    cur_day: u64,
    /// Number of events currently in buckets.
    in_buckets: usize,
    /// Far-future tier, min-ordered by `(at, seq)`: events pushed while
    /// their day was at least `nbuckets` days past the cursor.
    overflow: BinaryHeap<Reverse<Scheduled<E>>>,
    /// Push/pop ops since the last resize. A resize is O(pending), so it
    /// is only allowed after at least `nbuckets` ops — without this, a
    /// population oscillating across a threshold re-buckets everything
    /// every few events.
    ops_since_resize: u64,
    /// The construction-time bucket count: the shrink floor. The builder
    /// sizes the queue from the world's entity counts; shrinking below
    /// that only un-does pre-sizing and causes grow/shrink churn around
    /// bursty steady-state populations.
    floor_nb: usize,
    /// Largest `len()` seen since the last resize (or peak reset). The
    /// shrink rule keys off this, not the instantaneous length: a bursty
    /// population (500 pending at a tick, 4 between ticks) must not
    /// grow/shrink every cycle.
    peak_len: usize,
    /// `ops_since_resize` value at which `peak_len` decays to the current
    /// length, so a population that genuinely collapsed can still shrink.
    peak_reset_at: u64,
}

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl<E> CalendarQueue<E> {
    /// An empty queue sized for about `cap` pending events.
    pub fn with_capacity(cap: usize) -> Self {
        let nb = cap.next_power_of_two().clamp(MIN_BUCKETS, MAX_BUCKETS);
        Self {
            buckets: (0..nb).map(|_| Bucket::new()).collect(),
            mask: (nb - 1) as u64,
            shift: DEFAULT_SHIFT,
            cur_day: 0,
            in_buckets: 0,
            overflow: BinaryHeap::new(),
            ops_since_resize: 0,
            floor_nb: nb,
            peak_len: 0,
            peak_reset_at: 16 * nb as u64,
        }
    }

    /// Number of pending events across both tiers.
    #[inline]
    pub fn len(&self) -> usize {
        self.in_buckets + self.overflow.len()
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn nbuckets(&self) -> usize {
        self.buckets.len()
    }

    /// First day past the rolling window: events due on or after this day
    /// belong in the overflow tier.
    #[inline]
    fn window_end_day(&self) -> u64 {
        self.cur_day.saturating_add(self.nbuckets() as u64)
    }

    /// Insert an event. `s.seq` must be unique and `s.at` must be at or
    /// after the last popped timestamp (the [`FutureEventList`] clamp
    /// guarantees both).
    ///
    /// [`FutureEventList`]: crate::queue::FutureEventList
    // checker:hot-path
    #[inline]
    pub fn push(&mut self, s: Scheduled<E>) {
        let day = s.at >> self.shift;
        if day >= self.window_end_day() {
            self.overflow.push(Reverse(s));
        } else {
            if day < self.cur_day {
                // An event behind the scan cursor (legal: the cursor may
                // have skipped ahead over empty days while peeking). Walk
                // the cursor back so the scan can't miss it.
                self.cur_day = day;
            }
            self.insert_bucket(s);
        }
        self.ops_since_resize += 1;
        if self.len() > self.peak_len {
            self.peak_len = self.len();
        }
        if self.len() > 2 * self.nbuckets()
            && self.nbuckets() < MAX_BUCKETS
            && self.ops_since_resize >= self.nbuckets() as u64
        {
            // Growing mid-burst: the population is at its most
            // representative, so this is also when the width retunes.
            self.resize(self.nbuckets() * 2, true);
        }
    }

    /// Sorted insert into the event's day bucket (append in the common
    /// near-future-order case).
    #[inline]
    fn insert_bucket(&mut self, s: Scheduled<E>) {
        let b = ((s.at >> self.shift) & self.mask) as usize;
        let bucket = &mut self.buckets[b];
        let key = (s.at, s.seq);
        if bucket.q.back().is_none_or(|e| (e.at, e.seq) < key) {
            bucket.q.push_back(s);
        } else if !bucket.dirty && bucket.q.len() <= SMALL_SORTED_LEN {
            let pos = bucket.q.partition_point(|e| (e.at, e.seq) < key);
            bucket.q.insert(pos, s);
        } else {
            bucket.q.push_back(s);
            bucket.dirty = true;
        }
        self.in_buckets += 1;
    }

    /// Pop the earliest event by `(at, seq)`.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        self.pop_at_most(SimTime::MAX)
    }

    /// Pop the earliest event only if it is due at or before `t` — the
    /// dispatch loop's "run until the horizon" step, positioning the
    /// cursor exactly once per dispatched event.
    // checker:hot-path
    pub fn pop_at_most(&mut self, t: SimTime) -> Option<Scheduled<E>> {
        let at = self.position_cursor()?;
        if at > t {
            return None;
        }
        let b = (self.cur_day & self.mask) as usize;
        let s = self.buckets[b].q.pop_front().expect("positioned");
        self.in_buckets -= 1;
        self.ops_since_resize += 1;
        self.maybe_decay_peak();
        Some(s)
    }

    /// Drain the whole run of events due exactly at the earliest pending
    /// instant (if that instant is ≤ `t`) into `out`, appending payloads in
    /// `(at, seq)` order, and return `(instant, count)`. The batch
    /// counterpart of [`pop_at_most`](Self::pop_at_most): the cursor is
    /// positioned once (overflow migration included) and the run is the
    /// sorted prefix of the current day's bucket — same-instant events can
    /// never live anywhere else, because an instant maps to exactly one day
    /// and [`position_cursor`](Self::position_cursor) has already migrated
    /// every overflow event whose day entered the window, sorted the
    /// bucket, and proven its front the global minimum.
    pub fn pop_run_at_most(&mut self, t: SimTime, out: &mut Vec<E>) -> Option<(SimTime, usize)> {
        let at = self.position_cursor()?;
        if at > t {
            return None;
        }
        let b = (self.cur_day & self.mask) as usize;
        let bucket = &mut self.buckets[b];
        let mut n = 0usize;
        while bucket.q.front().is_some_and(|e| e.at == at) {
            out.push(bucket.q.pop_front().expect("checked front").event);
            n += 1;
        }
        debug_assert!(n > 0, "positioned cursor must yield at least one event");
        self.in_buckets -= n;
        self.ops_since_resize += n as u64;
        self.maybe_decay_peak();
        Some((at, n))
    }

    /// Close the peak-observation window if it is over, and shrink if the
    /// whole window stayed sparse. Called after every pop (single or
    /// batch); pushes don't need it because a growing population can't
    /// satisfy the shrink rule.
    #[inline]
    fn maybe_decay_peak(&mut self) {
        if self.ops_since_resize >= self.peak_reset_at {
            // Judge shrinking on the completed window's peak, not the
            // instantaneous length: a bursty population (500 pending at a
            // tick, 4 between ticks) must not shrink in every lull and
            // re-grow at every burst.
            let window_peak = self.peak_len;
            self.peak_len = self.len();
            self.peak_reset_at = self.ops_since_resize + 16 * self.nbuckets() as u64;
            if self.nbuckets() > self.floor_nb && window_peak < self.nbuckets() / 8 {
                // Shrinks fire when the population is low, i.e. least
                // representative — re-bucket but do NOT retune the width
                // from a lull sample (that poisons the geometry for the
                // traffic that resumes; only grows retune).
                self.resize(self.nbuckets() / 2, false);
            }
        }
    }

    /// Timestamp of the earliest pending event. Advances the scan cursor
    /// over empty days (the work is reused by the next `pop`); logically
    /// the queue is unchanged.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.position_cursor()
    }

    /// Advance the cursor until the current day's bucket front is the
    /// global minimum, migrating overflow events whose day has entered the
    /// rolling window. Returns the minimum's timestamp, or `None` if the
    /// queue is empty.
    fn position_cursor(&mut self) -> Option<SimTime> {
        loop {
            // Pull in every overflow event the window has reached. In
            // steady state this is one heap-peek comparison.
            let wend = self.window_end_day();
            while self
                .overflow
                .peek()
                .is_some_and(|Reverse(e)| (e.at >> self.shift) < wend)
            {
                let Reverse(e) = self.overflow.pop().expect("peeked");
                let day = e.at >> self.shift;
                if day < self.cur_day {
                    // Migration can land behind the cursor: a lap-guard
                    // jump_to_min may have re-anchored the cursor on the
                    // bucketed minimum's day, skipping the per-advance
                    // migration checks in between — and the overflow head
                    // can precede that bucketed minimum. Pull the cursor
                    // back exactly as push does, or the scan would pop a
                    // later bucketed event first (time going backwards).
                    self.cur_day = day;
                }
                self.insert_bucket(e);
            }
            if self.in_buckets == 0 {
                // Calendar dry: jump the window to the earliest overflow
                // event (the next loop iteration migrates it), or report
                // empty.
                let head_day = self.overflow.peek().map(|Reverse(e)| e.at >> self.shift)?;
                self.cur_day = head_day;
                continue;
            }
            let mut scanned = 0usize;
            loop {
                let b = (self.cur_day & self.mask) as usize;
                self.buckets[b].ensure_sorted();
                if let Some(front) = self.buckets[b].q.front() {
                    // The front may belong to a later day that collides
                    // mod nbuckets (possible after a cursor pull-back);
                    // only a front due *this* day is the proven minimum.
                    // Compare day indices, not `at < day_end`: a day-end
                    // bound computed in timestamp space overflows for days
                    // near u64::MAX (and can never exceed u64::MAX, so an
                    // event at the very end of time would fail a strict
                    // comparison forever).
                    if front.at >> self.shift == self.cur_day {
                        return Some(front.at);
                    }
                }
                self.cur_day += 1;
                scanned += 1;
                if self
                    .overflow
                    .peek()
                    .is_some_and(|Reverse(e)| (e.at >> self.shift) < self.window_end_day())
                {
                    // The advancing window reached an overflow event that
                    // may precede everything bucketed — migrate first.
                    break;
                }
                if scanned > self.nbuckets() {
                    // A full lap found nothing: every bucketed event hides
                    // behind a mod-collision. Locate the minimum directly
                    // and re-anchor the cursor on its day.
                    self.jump_to_min();
                    break;
                }
            }
        }
    }

    /// Point the cursor at the day of the smallest `(at, seq)` among
    /// bucket fronts (sorted first where needed — each sorted front is its
    /// bucket's minimum).
    fn jump_to_min(&mut self) {
        let mut best: Option<(SimTime, u64)> = None;
        for b in 0..self.buckets.len() {
            self.buckets[b].ensure_sorted();
            if let Some(e) = self.buckets[b].q.front() {
                if best.is_none_or(|k| (e.at, e.seq) < k) {
                    best = Some((e.at, e.seq));
                }
            }
        }
        if let Some((at, _)) = best {
            self.cur_day = at >> self.shift;
        }
    }

    /// Re-bucket everything into `new_nb` buckets; when `retune` is set,
    /// also re-run the width tuning rule over the pending events (see the
    /// module docs for the rule and for why only grows retune).
    fn resize(&mut self, new_nb: usize, retune: bool) {
        self.ops_since_resize = 0;
        let new_nb = new_nb.clamp(MIN_BUCKETS, MAX_BUCKETS);
        let old_pos = self
            .cur_day
            .checked_mul(1u64 << self.shift)
            .unwrap_or(SimTime::MAX);
        let mut all: Vec<Scheduled<E>> = Vec::with_capacity(self.len());
        for bucket in &mut self.buckets {
            all.extend(bucket.q.drain(..));
            bucket.dirty = false;
        }
        while let Some(Reverse(e)) = self.overflow.pop() {
            all.push(e);
        }
        all.sort_unstable_by_key(|e| (e.at, e.seq));
        if retune {
            if let Some(s) = tune_shift(&all) {
                self.shift = s;
            }
        }
        if new_nb != self.nbuckets() {
            self.buckets = (0..new_nb).map(|_| Bucket::new()).collect();
            self.mask = (new_nb - 1) as u64;
        }
        self.in_buckets = 0;
        self.peak_len = all.len();
        self.peak_reset_at = 16 * new_nb as u64;
        // Anchor the window at the earliest pending event (or keep the
        // cursor's position, converted to the new width, when empty).
        self.cur_day = match all.first() {
            Some(e) => e.at >> self.shift,
            None => old_pos >> self.shift,
        };
        let wend = self.window_end_day();
        for e in all {
            if e.at >> self.shift >= wend {
                self.overflow.push(Reverse(e));
            } else {
                // Sorted order: each insert appends to its bucket.
                self.insert_bucket(e);
            }
        }
    }
}

/// Brown's width rule over the sorted pending set, made robust for bursty
/// populations: 3 × the **lower-quartile** gap between *distinct
/// instants* across the whole pending set, rounded up to a power of two
/// (returned as the exponent), floored at 1 µs.
///
/// * Per distinct instant, not per event: massed same-timestamp events
///   cost a bucket nothing (their seq-ordered appends stay sorted and pop
///   contiguously), so a bucket should hold a few *instants*, not a few
///   events — and a fixed-size sample prefix can sit entirely inside one
///   massed instant, so the rule reads the full set (it is only run
///   inside a resize, which already drained and sorted everything).
/// * Lower quartile, not the mean or median: the cost of a too-wide day
///   (whole instants colliding in one bucket that re-sorts on every
///   interleaved insert) far exceeds the cost of a too-narrow day (a
///   cheap empty-bucket skip), and a burst-structured population contains
///   giant inter-burst gaps that would otherwise swamp the µs-scale
///   intra-burst gaps the width must isolate — so the rule biases narrow.
/// * `None` keeps the current width when fewer than `TUNE_MIN_SAMPLE`
///   events (or no distinct gaps) are pending — a transient lull's gaps
///   say nothing about the traffic that resumes after it.
fn tune_shift<E>(sorted: &[Scheduled<E>]) -> Option<u32> {
    if sorted.len() < TUNE_MIN_SAMPLE {
        return None;
    }
    let mut gaps: Vec<SimTime> = sorted
        .windows(2)
        .filter(|w| w[1].at != w[0].at)
        .map(|w| w[1].at - w[0].at)
        .collect();
    if gaps.is_empty() {
        return None;
    }
    gaps.sort_unstable();
    let quartile = gaps[gaps.len() / 4];
    let width = (quartile * 3).max(1).next_power_of_two();
    Some(width.trailing_zeros().min(MAX_SHIFT))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push(q: &mut CalendarQueue<u64>, at: SimTime, seq: u64) {
        q.push(Scheduled {
            at,
            seq,
            event: seq,
        });
    }

    fn drain(q: &mut CalendarQueue<u64>) -> Vec<(SimTime, u64)> {
        let mut out = Vec::new();
        while let Some(s) = q.pop() {
            out.push((s.at, s.seq));
        }
        out
    }

    #[test]
    fn pops_sorted_by_time_then_seq() {
        let mut q = CalendarQueue::with_capacity(0);
        push(&mut q, 30, 0);
        push(&mut q, 10, 1);
        push(&mut q, 10, 2);
        push(&mut q, 20, 3);
        assert_eq!(drain(&mut q), vec![(10, 1), (10, 2), (20, 3), (30, 0)]);
    }

    #[test]
    fn massed_ties_stay_fifo() {
        let mut q = CalendarQueue::with_capacity(0);
        for seq in 0..1_000 {
            push(&mut q, 5_000, seq);
        }
        let popped = drain(&mut q);
        assert_eq!(popped.len(), 1_000);
        for (i, &(at, seq)) in popped.iter().enumerate() {
            assert_eq!((at, seq), (5_000, i as u64));
        }
    }

    #[test]
    fn far_future_goes_through_overflow_and_back() {
        let mut q = CalendarQueue::with_capacity(0);
        // Far beyond the initial window (32 buckets × 16 µs = 512 µs).
        push(&mut q, 3_000_000, 0);
        push(&mut q, 100, 1);
        push(&mut q, 2_999_999, 2);
        assert!(q.overflow.len() >= 2, "far events must overflow");
        assert_eq!(
            drain(&mut q),
            vec![(100, 1), (2_999_999, 2), (3_000_000, 0)]
        );
    }

    #[test]
    fn overflow_event_reached_by_a_rolling_window_precedes_later_buckets() {
        // Regression shape for the rolling-window migration: an event goes
        // to overflow because it's beyond the window *at push time*; the
        // cursor then advances and a later event is pushed bucketed beyond
        // it. The overflow event must still pop first.
        let mut q = CalendarQueue::with_capacity(0);
        push(&mut q, 10, 0);
        push(&mut q, 10_000, 1); // beyond the initial 512 µs window
        assert_eq!(q.overflow.len(), 1);
        assert_eq!(q.pop().map(|s| (s.at, s.seq)), Some((10, 0)));
        // Cursor is near day(10); window now covers 10_000's day, so this
        // lands bucketed even though 10_000 sits in overflow.
        push(&mut q, 10_500, 2);
        assert_eq!(drain(&mut q), vec![(10_000, 1), (10_500, 2)]);
    }

    #[test]
    fn push_behind_the_peeked_cursor_is_not_lost() {
        let mut q = CalendarQueue::with_capacity(0);
        push(&mut q, 400, 0);
        // Peek walks the cursor up to day(400).
        assert_eq!(q.peek_time(), Some(400));
        // A later push for an earlier (but still future) time must pull
        // the cursor back.
        push(&mut q, 50, 1);
        assert_eq!(drain(&mut q), vec![(50, 1), (400, 0)]);
    }

    #[test]
    fn grows_shrinks_and_retunes_without_losing_events() {
        let mut q = CalendarQueue::with_capacity(0);
        // Push enough to force several grows (threshold: 2 × nbuckets).
        let n = 10_000u64;
        for seq in 0..n {
            push(&mut q, (seq * 7) % 50_000, seq);
        }
        assert!(q.nbuckets() > MIN_BUCKETS, "grow never triggered");
        let peak = q.nbuckets();
        let popped = drain(&mut q);
        assert_eq!(popped.len(), n as usize);
        for w in popped.windows(2) {
            assert!(w[0] <= w[1], "out of order: {:?} then {:?}", w[0], w[1]);
        }
        // Now churn a tiny population long enough to cross pressure
        // windows: the occupancy rule must shrink the oversized calendar
        // back down (the cooldown spreads this over many ops).
        let mut at = 60_000u64;
        let mut seq = n;
        for i in 0..4u64 {
            push(&mut q, at + i, seq);
            seq += 1;
        }
        for _ in 0..peak as u64 * 40 {
            let s = q.pop().expect("churn population");
            at = s.at + 10;
            push(&mut q, at, seq);
            seq += 1;
        }
        assert!(q.nbuckets() < peak, "shrink never triggered");
    }

    #[test]
    fn interleaved_push_pop_matches_reference() {
        // Reference: an unsorted Vec min-scanned per pop.
        let mut q = CalendarQueue::with_capacity(0);
        let mut reference: Vec<(SimTime, u64)> = Vec::new();
        let mut x = 0x9E37_79B9u64;
        let mut step = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut now = 0;
        for seq in 0..20_000u64 {
            let op = step() % 8;
            if op == 0 || op == 1 {
                if let Some(s) = q.pop() {
                    let min = reference
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, &k)| k)
                        .map(|(i, _)| i)
                        .expect("reference non-empty");
                    assert_eq!((s.at, s.seq), reference.swap_remove(min));
                    now = s.at;
                }
            } else if op == 2 {
                // Cursor-advancing peek: must report the reference min
                // without disturbing subsequent ordering.
                let want = reference.iter().map(|&(at, _)| at).min();
                assert_eq!(q.peek_time(), want);
            } else if op == 3 {
                // Horizon-limited pop: advances the cursor even when it
                // returns nothing (the precondition for the pull-back and
                // overflow-migration edge cases).
                let horizon = now + step() % 2_000;
                let min = reference
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &k)| k)
                    .map(|(i, _)| i);
                match q.pop_at_most(horizon) {
                    Some(s) => {
                        let min = min.expect("reference non-empty");
                        assert!(s.at <= horizon);
                        assert_eq!((s.at, s.seq), reference.swap_remove(min));
                        now = s.at;
                    }
                    None => {
                        assert!(min.is_none_or(|i| reference[i].0 > horizon));
                    }
                }
            } else {
                // Mixture of horizons, clamped to now like the FEL does.
                let at = now
                    + match step() % 10 {
                        0..=6 => step() % 300,                // short horizon
                        7 | 8 => step() % 20_000,             // mid
                        _ => 1_000_000 + step() % 10_000_000, // far future
                    };
                push(&mut q, at, seq);
                reference.push((at, seq));
            }
        }
        while let Some(s) = q.pop() {
            let min = reference
                .iter()
                .enumerate()
                .min_by_key(|(_, &k)| k)
                .map(|(i, _)| i)
                .expect("reference non-empty");
            assert_eq!((s.at, s.seq), reference.swap_remove(min));
        }
        assert!(reference.is_empty());
    }

    #[test]
    fn overflow_migration_behind_jumped_cursor_pulls_cursor_back() {
        // Regression (found by adversarial fuzzing in review): with the
        // default geometry (32 buckets × 16 µs), a pop_at_most dry-jump
        // anchors the cursor far ahead; pull-back pushes then shrink the
        // window so a mid-range event overflows; after draining the near
        // events, the scan's lap guard jumps straight to the far bucketed
        // day — past the overflow head — and the subsequent migration
        // inserted the overflow event *behind* the cursor without pulling
        // it back, popping 29927 before 23198 (time going backwards).
        let mut q = CalendarQueue::with_capacity(0);
        push(&mut q, 19_445, 0);
        assert_eq!(q.pop().map(|s| s.at), Some(19_445));
        push(&mut q, 29_927, 1); // beyond the window -> overflow
        assert!(q.pop_at_most(20_857).is_none()); // dry-jump migrates it
        push(&mut q, 20_002, 2); // pulls the cursor back
        push(&mut q, 19_445, 3); // massed with the popped instant
        push(&mut q, 23_198, 4); // beyond the pulled-back window -> overflow
        assert_eq!(q.pop().map(|s| (s.at, s.seq)), Some((19_445, 3)));
        assert_eq!(q.pop().map(|s| s.at), Some(20_002));
        assert_eq!(q.pop().map(|s| s.at), Some(23_198));
        assert_eq!(q.pop().map(|s| s.at), Some(29_927));
        assert!(q.is_empty());
    }

    #[test]
    fn adversarial_differential_fuzz_with_batch_drains_and_dry_jumps() {
        // Differential check against a sorted-Vec reference over an op mix
        // weighted toward the edge cases that have historically broken the
        // geometry: dry-jump probes (horizon pops/batch-pops that return
        // nothing but advance the cursor and migrate overflow), pushes at
        // earlier-but-still-future instants right after a dry jump, massed
        // same-instant runs, and enough population swing to cross grow and
        // shrink resizes repeatedly.
        for seed in 1u64..=8 {
            let mut q = CalendarQueue::with_capacity(0);
            let mut reference: Vec<(SimTime, u64)> = Vec::new();
            let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut step = || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let mut now: SimTime = 0;
            let mut seq = 0u64;
            let mut batch: Vec<u64> = Vec::new();
            for _ in 0..60_000u64 {
                match step() % 10 {
                    0 | 1 => {
                        // Single pop.
                        if let Some(s) = q.pop() {
                            reference.sort_unstable();
                            assert_eq!((s.at, s.seq), reference.remove(0), "seed {seed}");
                            now = s.at;
                        }
                    }
                    2 | 3 => {
                        // Batch drain of the earliest run, full horizon.
                        match q.pop_run_at_most(SimTime::MAX, &mut batch) {
                            Some((at, n)) => {
                                reference.sort_unstable();
                                assert_eq!(n, batch.len());
                                assert!(n >= 1);
                                let run: Vec<(SimTime, u64)> = reference.drain(..n).collect();
                                assert!(
                                    run.iter().all(|&(t, _)| t == at),
                                    "seed {seed}: drained run crosses instants: {run:?}"
                                );
                                assert_eq!(
                                    batch,
                                    run.iter().map(|&(_, s)| s).collect::<Vec<_>>(),
                                    "seed {seed}: run out of FIFO order"
                                );
                                assert!(
                                    reference.first().map(|&(t, _)| t) != Some(at),
                                    "seed {seed}: drain left same-instant events behind"
                                );
                                now = at;
                            }
                            None => assert!(reference.is_empty(), "seed {seed}"),
                        }
                        batch.clear();
                    }
                    4 => {
                        // Dry-or-not horizon probe (single).
                        let horizon = now + step() % 3_000;
                        reference.sort_unstable();
                        match q.pop_at_most(horizon) {
                            Some(s) => {
                                assert!(s.at <= horizon);
                                assert_eq!((s.at, s.seq), reference.remove(0));
                                now = s.at;
                            }
                            None => {
                                assert!(
                                    reference.first().is_none_or(|&(t, _)| t > horizon),
                                    "seed {seed}: dry probe hid a due event"
                                );
                            }
                        }
                    }
                    5 => {
                        // Dry-or-not horizon probe (batch).
                        let horizon = now + step() % 3_000;
                        reference.sort_unstable();
                        match q.pop_run_at_most(horizon, &mut batch) {
                            Some((at, n)) => {
                                assert!(at <= horizon);
                                let run: Vec<(SimTime, u64)> = reference.drain(..n).collect();
                                assert!(run.iter().all(|&(t, _)| t == at));
                                assert_eq!(batch, run.iter().map(|&(_, s)| s).collect::<Vec<_>>());
                                now = at;
                            }
                            None => {
                                assert!(
                                    reference.first().is_none_or(|&(t, _)| t > horizon),
                                    "seed {seed}: dry batch probe hid a due event"
                                );
                            }
                        }
                        batch.clear();
                    }
                    6 => {
                        // Push at an earlier-but-still-future instant: lands
                        // behind wherever the last dry jump left the cursor.
                        let at = now + 1 + step() % 64;
                        push(&mut q, at, seq);
                        reference.push((at, seq));
                        seq += 1;
                    }
                    7 => {
                        // Massed tie burst at one future instant.
                        let at = now + step() % 2_000;
                        let burst = 1 + step() % 40;
                        for _ in 0..burst {
                            push(&mut q, at, seq);
                            reference.push((at, seq));
                            seq += 1;
                        }
                    }
                    _ => {
                        // Mixed-horizon pushes (short / mid / overflow-far).
                        let at = now
                            + match step() % 10 {
                                0..=6 => step() % 500,
                                7 | 8 => step() % 30_000,
                                _ => 600_000 + step() % 5_000_000,
                            };
                        push(&mut q, at, seq);
                        reference.push((at, seq));
                        seq += 1;
                    }
                }
                assert_eq!(q.len(), reference.len(), "seed {seed}: length diverged");
            }
            reference.sort_unstable();
            let drained = drain(&mut q);
            assert_eq!(drained, reference, "seed {seed}: final drain diverged");
        }
    }

    #[test]
    fn timestamps_near_u64_max_terminate() {
        // Regression: day_end computed with checked_shl wrapped for days
        // near u64::MAX (shl only guards the shift amount, not value
        // overflow), so the scan never found the event and pop() hung.
        let mut q = CalendarQueue::with_capacity(0);
        push(&mut q, SimTime::MAX - 3, 0);
        push(&mut q, SimTime::MAX, 1);
        push(&mut q, 100, 2);
        assert_eq!(
            drain(&mut q),
            vec![(100, 2), (SimTime::MAX - 3, 0), (SimTime::MAX, 1)]
        );
    }

    #[test]
    fn resize_mid_window_reanchors_the_peak_decay_point() {
        // The shrink rule works in observation windows of 16 × nbuckets
        // ops, anchored at the last resize: `ops_since_resize` restarts at
        // 0 and `peak_reset_at` must be re-derived from the *new* bucket
        // count. A resize landing mid-window must not leave the old
        // window's anchor in place (decay firing at a stale op count —
        // too early for a grow, or pinned beyond reach so a collapsed
        // population never shrinks). This drives a grow mid-window and
        // pins the exact op count of the next decay.
        let mut q: CalendarQueue<u64> = CalendarQueue::with_capacity(0);
        assert_eq!(q.nbuckets(), MIN_BUCKETS);
        assert_eq!(q.peak_reset_at, 16 * MIN_BUCKETS as u64);
        // Burn ~a third of the first observation window without resizing:
        // push/pop pairs at a tiny population.
        let mut seq = 0u64;
        let mut at = 100u64;
        while q.ops_since_resize < (16 * MIN_BUCKETS as u64) / 3 {
            push(&mut q, at, seq);
            seq += 1;
            at = q.pop().expect("just pushed").at + 3;
        }
        assert_eq!(q.nbuckets(), MIN_BUCKETS, "no resize yet");
        // Now force a grow mid-window: distinct instants so the population
        // exceeds 2 × nbuckets.
        while q.nbuckets() == MIN_BUCKETS {
            push(&mut q, at + seq * 5, seq);
            seq += 1;
        }
        let nb = q.nbuckets();
        assert_eq!(nb, 2 * MIN_BUCKETS, "exactly one grow");
        // The decay window must be re-anchored at the resize: a full
        // 16 × new_nbuckets ops measured from ops_since_resize == 0, not
        // the stale pre-resize anchor.
        assert_eq!(q.ops_since_resize, 0, "resize re-anchors the op counter");
        assert_eq!(
            q.peak_reset_at,
            16 * nb as u64,
            "resize must re-anchor the peak-decay point to the new window"
        );
        // And the decay really fires exactly when the re-anchored window
        // closes: drain to a tiny population (peak_len stays at the burst
        // high-water until the window ends), then churn pop/push pairs and
        // watch peak_len decay at precisely ops_since_resize ==
        // peak_reset_at.
        let high_water = q.peak_len;
        assert!(high_water > 2 * MIN_BUCKETS);
        while q.len() > 2 {
            q.pop().expect("draining");
        }
        let target = q.peak_reset_at;
        while q.ops_since_resize < target - 1 {
            assert_eq!(
                q.peak_len, high_water,
                "peak decayed early, at op {} of {}",
                q.ops_since_resize, target
            );
            let next_at = at + 1_000_000 + q.ops_since_resize * 7;
            push(&mut q, next_at, seq);
            seq += 1;
            q.pop().expect("churn population");
        }
        // The next op crosses the anchor: the window closes and the peak
        // collapses to the current (tiny) population.
        q.pop().expect("non-empty");
        assert!(
            q.peak_len <= 3,
            "window close must decay peak_len to the live population, got {}",
            q.peak_len
        );
    }

    #[test]
    fn len_counts_both_tiers() {
        let mut q = CalendarQueue::with_capacity(0);
        push(&mut q, 10, 0);
        push(&mut q, 99_000_000, 1);
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        q.pop();
        q.pop();
        assert!(q.is_empty());
    }
}
