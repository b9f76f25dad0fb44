//! Sliding-window panes.
//!
//! Sliding windows are implemented with the standard pane decomposition: a
//! pane covers one slide interval; a window aggregates `size / slide`
//! consecutive panes. The paper's Q7 uses 10 s windows with 0.5 s slides
//! (20 panes), Q8 40 s with 5 s slides (8 panes).
//!
//! # Row layout
//!
//! A window operator keeps one [`PaneRows`] per sub-group, not a pane list
//! per key. Its state is **time-major**: one row per slide interval (slot
//! `event_time / slide`), slot-ascending, and each row holds 16-byte cells
//! — a key's dense id, a record count and their partial aggregate. The
//! rows are shared by every key of the sub-group, as the slices of
//! slice-based aggregation are (Li et al., "No pane, no gain", SIGMOD
//! Record 2005; Traub et al., "Scotty", ICDE 2018).
//!
//! - *Why time-major.* A firing reads only rows it has not read before
//!   (see "Firing partials" below), writes each window into a per-id
//!   accumulator ([`FireScratch`]), and evicts by popping whole rows off
//!   the front.
//!   With one pane list per key, Q7's firing paid a dependent cache miss
//!   on the first touch of each of 4,000 separate buffers, and at a firing
//!   a key held 17.3 live panes, 7.7 of them past the fired end. An add is
//!   one id probe, a short search from the back for its row (event time
//!   mostly advances) and a push; before, 73 % of adds inserted a pane
//!   into the middle of a key's list.
//! - *Why sparse.* Only slide intervals holding a record have a row, so
//!   memory stays O(records). A dense ring of one row per slot from the
//!   oldest would allocate a row per slide between the rest and one record
//!   far from them in event time.
//! - *Why merge into the key's last cell.* The key's map entry remembers
//!   where its newest cell is, so a record in the same slide interval
//!   folds into that cell without searching the row; any other record
//!   starts a cell. The cells then grow with the times a key's records
//!   switch slide interval, not with records. One cell per record was
//!   cheap on Q7's 500 ms slides (1.36 records per pane) but not on its
//!   tumbling variant (slide = size = 10 s, 12.4 records per pane): there
//!   it held 2.0 MB more at peak than the per-key panes. Merged, Q7 makes
//!   1.11 cells per pane (peak 219.7 k live cells against 213.2 k panes)
//!   and the tumbling variant 2.16 (43.7 k against 30.0 k), where records
//!   from sources at different event times interleave. A cell is 16
//!   bytes, a pane 24 plus its share of its key's `Vec` slack (capacity
//!   54 for 17 live panes).
//!
//! Firing emits key by key in key order, ends ascending within a key —
//! the sequence the per-key layout produced — and the freed records are
//! returned once per sub-group for the backend to settle (see
//! `StateBackend::for_each_panes_mut`). On `q7_rescale` (2-vCPU Xeon,
//! seed 1) the layout raised records/s by 14 % and cut peak RSS by
//! 1.7 MB. It costs where firing was already cheap: Q7's tumbling
//! variant, one pane per key per window, runs 6 % longer at equal peak
//! RSS, since an add loads the boxed store and the row deque as well.
//!
//! # Firing progress
//!
//! Each [`PaneRows`] keeps the last end it fired, and [`PaneRows::fire`]
//! fires from there to the watermark. The cursor moves with the rows, as
//! Flink's event-time timers move with their key-group (Carbone et al.,
//! "State Management in Apache Flink", VLDB 2017), so a migrated sub-group
//! neither re-fires nor skips an end, and its ends only advance.
//! `nominal_bytes` does not count it.
//!
//! # Firing partials
//!
//! Folding every row of every fired window reads each cell once per window
//! holding it, W = ⌈size / slide⌉ times (20 on Q7). Instead each
//! [`PaneRows`] keeps two-stack partials over its dense ids (Tangwongsan,
//! Hirzel & Schneider, "General Incremental Sliding-Window Aggregation",
//! VLDB 2015), on top of the rows, so a cell is folded about twice.
//!
//! - *What is derived.* Three slots `f ≤ m ≤ h` and three per-id arrays:
//!   the front stack holds, for each slot `j` in `[f, m)`, the aggregate
//!   of the slots `j..m` (a suffix); the back stack the aggregate of
//!   `[m, h)`; `last` one past each id's newest folded slot, in place of
//!   seen flags. A window of the slots `[lo, hi)` with `f ≤ lo < m` and
//!   `h ≤ hi` folds the rows `[h, hi)` into the back stack and is then
//!   `merge(front[lo], back)` per id; an id is in it exactly when
//!   `last > lo`.
//! - *When it rebuilds.* Every other window rebuilds the front stack over
//!   `[lo, hi)` from the rows and empties the back: the first firing, the
//!   flip when `lo` reaches `m`, and dropped partials. An add into a slot
//!   below `h` drops them (the record path's one compare), and so does a
//!   new key (checked at firing, as a changed id count). Eviction raises
//!   `f` past the rows it pops. Since a sub-group's ends only advance (see
//!   "Firing progress"), a window never starts below `f` nor ends at or
//!   below `h`; debug builds assert both. Rebuilding is the only way
//!   partials are made, so they are a pure function of the rows, the ids
//!   and `f`, `m`, `h`: they move with the rows on `extract`/`install`,
//!   and `nominal_bytes` does not count them.
//! - *Memory.* At most (W + 2) × ids × 8 bytes per sub-group (W suffixes,
//!   the back stack, `last`), at exact capacity. On Q7, with about 31 ids
//!   in each of 128 sub-groups, that is about 700 kB.
//! - *Measured* on `q7_rescale` (seed 1): 94.6 % of the 157,516
//!   sub-group windows come from the partials without a rebuild; 7,724
//!   rebuilds are flips and 72 follow a late add. `WindowAgg::on_watermark`
//!   takes 42 % fewer cycles. At W = 1 (the tumbling ablation) every end
//!   rebuilds over one row, and the run is no slower.
//!
//! [`PaneSet`], one key's pane list, is the reference: the test oracle of
//! the row layout and the subject of `drrs_bench`'s pane kernel.

use std::collections::VecDeque;
use std::ops::Range;

use simcore::{FxHashMap, SimTime};

use crate::ids::Key;

/// Aggregation applied inside a pane / across panes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Agg {
    /// Maximum of values.
    Max,
    /// Sum of values.
    Sum,
    /// Count of records.
    Count,
}

/// One pane: partial aggregate of the records whose event time falls in
/// `[start, start + slide)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pane {
    /// Pane start (event time).
    pub start: SimTime,
    /// Partial aggregate value.
    pub agg: i64,
    /// Records folded in.
    pub count: u64,
}

/// The pane list for one key: panes in ascending `start` order, one per
/// slide interval that has seen a record. `add` keeps the order, the other
/// methods rely on it. The reference layout (see the module docs).
#[derive(Clone, Debug, PartialEq, Default)]
pub struct PaneSet {
    panes: Vec<Pane>,
}

impl PaneSet {
    /// Fold a record into the pane owning `event_time`.
    // checker:hot-path
    pub fn add(&mut self, event_time: SimTime, value: i64, count: u64, slide: SimTime, agg: Agg) {
        let start = (event_time / slide) * slide;
        // Event time mostly advances, so the owning pane is the newest one
        // or a new one right behind it: look from the back.
        let at = match self.panes.iter().rposition(|p| p.start <= start) {
            Some(i) if self.panes[i].start == start => i,
            older => {
                let at = older.map_or(0, |i| i + 1);
                self.panes.insert(
                    at,
                    Pane {
                        start,
                        agg: initial(agg),
                        count: 0,
                    },
                );
                at
            }
        };
        let pane = &mut self.panes[at];
        pane.agg = combine(agg, pane.agg, value, count);
        pane.count += count;
    }

    /// Aggregate the window ending at `window_end` (exclusive) of length
    /// `size`. Returns `None` if no pane overlaps.
    pub fn window_agg(&self, window_end: SimTime, size: SimTime, agg: Agg) -> Option<(i64, u64)> {
        let lo = window_end.saturating_sub(size);
        let first = self.panes.partition_point(|p| p.start < lo);
        let mut acc: Option<i64> = None;
        let mut n = 0u64;
        for p in self.panes[first..]
            .iter()
            .take_while(|p| p.start < window_end)
        {
            acc = Some(match acc {
                None => p.agg,
                Some(a) => merge(agg, a, p.agg),
            });
            n += p.count;
        }
        acc.map(|a| (a, n))
    }

    /// Drop panes entirely before `horizon` (no window can need them).
    /// Returns the number of records evicted (for state-size accounting).
    pub fn evict_before(&mut self, horizon: SimTime) -> u64 {
        let n = self.panes.partition_point(|p| p.start < horizon);
        self.panes.drain(..n).map(|p| p.count).sum()
    }

    /// Records currently buffered across panes.
    pub fn total_count(&self) -> u64 {
        self.panes.iter().map(|p| p.count).sum()
    }

    /// Number of live panes.
    pub fn len(&self) -> usize {
        self.panes.len()
    }

    /// No live panes?
    pub fn is_empty(&self) -> bool {
        self.panes.is_empty()
    }
}

/// One key's partial aggregate in a [`PaneRows`] row.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Cell {
    /// The key's dense id within its [`PaneRows`].
    id: u32,
    /// Records folded in.
    count: u32,
    /// Partial aggregate of those records.
    agg: i64,
}

/// A key's dense id and the position of its newest cell, so the key's
/// next record in the same slide interval folds into that cell.
#[derive(Clone, Copy, Debug)]
struct KeyCell {
    id: u32,
    /// Index of the cell within the row of `slot`. A position gone stale
    /// (the row evicted and made again) fails the cell's id check.
    cell: u32,
    slot: u64,
}

/// The records of one slide interval.
#[derive(Clone, Debug)]
struct Row {
    /// `event_time / slide` of every record in the row.
    slot: u64,
    /// Records in the row (the cells' counts summed).
    total: u64,
    cells: Vec<Cell>,
}

/// The window state of one sub-group in time-major rows (see the module
/// docs): a key → dense-id map, the ids in key order, the sparse,
/// slot-ascending rows, the firing partials derived from them, and the
/// firing progress.
#[derive(Clone, Debug, Default)]
pub struct PaneRows {
    ids: FxHashMap<Key, KeyCell>,
    /// `(key, id)` for every key, ascending by key: the firing order.
    order: Vec<(Key, u32)>,
    rows: VecDeque<Row>,
    parts: Partials,
    /// The last window end fired, 0 before the first firing (see the
    /// module docs' "Firing progress").
    fired: SimTime,
}

/// Two-stack partials over a [`PaneRows`]' key ids (see the module docs'
/// "Firing partials"): a pure function of the rows, the id count and the
/// slots `f`, `m` and `h`, so a copy of the rows can always rebuild them.
#[derive(Clone, Debug, Default)]
struct Partials {
    /// Lowest slot whose front suffix holds only live rows: eviction raises
    /// it past the rows it pops.
    f: u64,
    /// One past the front stack's last slot; the back stack's first slot.
    m: u64,
    /// One past the back stack's last slot: rows `[m, h)` are in `back`.
    /// Zero while the partials are dropped (a built `h` is a fired end's
    /// slot, at least 1).
    h: u64,
    /// Front stack, per slot `j` in `[f, m)` from `m - 1` down: the per-id
    /// aggregate of the slots `j..m`, at `(m - 1 - j) * ids`.
    front: Vec<i64>,
    /// Back stack: the per-id aggregate of the slots `[m, h)`. Its length
    /// is the id count the partials were built for.
    back: Vec<i64>,
    /// Per id, one past its newest slot folded into either stack (0 for
    /// none): an id has a cell in `[lo, h)` exactly when `last > lo`.
    last: Vec<u64>,
}

/// Per-subtask scratch for [`PaneRows::fire`]: one accumulator and one
/// seen flag per (fired end, key id). Kept for its capacity; between
/// firings every flag is clear, and an accumulator is read only while its
/// flag is set.
#[derive(Debug, Default)]
pub struct FireScratch {
    acc: Vec<i64>,
    seen: Vec<bool>,
}

impl PaneRows {
    /// Fold a record of `key` into its cell in the row of slot
    /// `event_time / slide`.
    // checker:hot-path
    pub fn add(
        &mut self,
        key: Key,
        event_time: SimTime,
        value: i64,
        count: u32,
        slide: SimTime,
        agg: Agg,
    ) {
        let order = &mut self.order;
        let at = self.ids.entry(key).or_insert_with(|| new_key(order, key));
        let slot = event_time / slide;
        if slot < self.parts.h {
            // A row the partials have folded changes: drop them.
            self.parts.h = 0;
        }
        // Event time mostly advances, so the row is the newest one or a new
        // one right behind it: look from the back.
        let row = match self.rows.iter().rposition(|r| r.slot <= slot) {
            Some(i) if self.rows[i].slot == slot => &mut self.rows[i],
            older => new_row(&mut self.rows, older.map_or(0, |i| i + 1), slot),
        };
        row.total += count as u64;
        if at.slot == slot {
            let id = at.id;
            if let Some(c) = row.cells.get_mut(at.cell as usize).filter(|c| c.id == id) {
                if let Some(n) = c.count.checked_add(count) {
                    c.count = n;
                    c.agg = combine(agg, c.agg, value, count as u64);
                    return;
                }
            }
        }
        at.slot = slot;
        at.cell = row.cells.len() as u32;
        row.cells.push(Cell {
            id: at.id,
            count,
            agg: combine(agg, initial(agg), value, count as u64),
        });
    }

    /// Register `key` with no records (a no-op if it is known).
    pub fn insert_key(&mut self, key: Key) {
        let order = &mut self.order;
        self.ids.entry(key).or_insert_with(|| new_key(order, key));
    }

    /// Fire the windows (each of length `size`) ending after the last
    /// fired end and at most at `watermark`, calling `emit(key, value,
    /// end)` for every (key, window) holding a record — key by key in key
    /// order, ends ascending — then evict the rows no later window can
    /// need (those starting before the last end minus `size`). Returns the
    /// number of records evicted. Each window comes from the firing
    /// partials, not from its rows.
    // checker:hot-path
    pub fn fire(
        &mut self,
        watermark: SimTime,
        slide: SimTime,
        size: SimTime,
        agg: Agg,
        scratch: &mut FireScratch,
        mut emit: impl FnMut(Key, i64, SimTime),
    ) -> u64 {
        let (first_end, last_end) = (self.fired + slide, watermark / slide * slide);
        if first_end > last_end {
            return 0;
        }
        self.fired = last_end;
        // Only ends after the first row's start and at most `size` past the
        // last row's start can see a row.
        if let (Some(front), Some(back)) = (self.rows.front(), self.rows.back()) {
            let lo_end = first_end.max((front.slot + 1) * slide);
            let hi_end = last_end.min((back.slot * slide + size) / slide * slide);
            if lo_end <= hi_end {
                let ends = ((hi_end - lo_end) / slide + 1) as usize;
                let n = self.order.len();
                scratch.fit(ends * n);
                let identity = initial(agg);
                for e in 0..ends {
                    // The window's rows: slots `[lo, hi)`.
                    let end = lo_end + e as u64 * slide;
                    let (lo, hi) = (end.saturating_sub(size).div_ceil(slide), end / slide);
                    if lo < hi {
                        let (rows, parts) = (&self.rows, &mut self.parts);
                        let acc = &mut scratch.acc[e * n..(e + 1) * n];
                        let seen = &mut scratch.seen[e * n..(e + 1) * n];
                        // One loop per merge function, so the folds do not
                        // branch on `agg` per cell.
                        match agg {
                            Agg::Max => parts.window(rows, lo..hi, acc, seen, identity, i64::max),
                            Agg::Sum | Agg::Count => {
                                parts.window(rows, lo..hi, acc, seen, identity, |a, b| a + b)
                            }
                        }
                    }
                }
                for &(key, id) in &self.order {
                    for e in 0..ends {
                        let i = e * n + id as usize;
                        if scratch.seen[i] {
                            scratch.seen[i] = false;
                            emit(key, scratch.acc[i], lo_end + e as u64 * slide);
                        }
                    }
                }
            }
        }
        let horizon = last_end.saturating_sub(size);
        let mut evicted = 0;
        while let Some(row) = self.rows.front().filter(|r| r.slot * slide < horizon) {
            evicted += row.total;
            self.rows.pop_front();
        }
        // Every row below the horizon's slot is gone, so no front suffix
        // from below it may serve a window again.
        self.parts.f = self.parts.f.max(horizon.div_ceil(slide));
        evicted
    }

    /// Keys held, in key order.
    pub fn keys(&self) -> impl Iterator<Item = Key> + '_ {
        self.order.iter().map(|&(k, _)| k)
    }

    /// Number of keys held (including keys whose records were evicted).
    pub fn key_count(&self) -> usize {
        self.order.len()
    }

    /// `(key, records buffered)` for every key, in key order.
    pub fn counts(&self) -> impl Iterator<Item = (Key, u64)> + '_ {
        let mut per_id = vec![0u64; self.order.len()];
        for c in self.rows.iter().flat_map(|r| &r.cells) {
            per_id[c.id as usize] += c.count as u64;
        }
        self.order
            .iter()
            .map(move |&(k, id)| (k, per_id[id as usize]))
    }
}

#[cold]
fn new_key(order: &mut Vec<(Key, u32)>, key: Key) -> KeyCell {
    let id = order.len() as u32;
    let at = order.partition_point(|&(k, _)| k < key);
    order.insert(at, (key, id));
    KeyCell {
        id,
        cell: u32::MAX,
        slot: u64::MAX,
    }
}

#[cold]
fn new_row(rows: &mut VecDeque<Row>, at: usize, slot: u64) -> &mut Row {
    let row = Row {
        slot,
        total: 0,
        cells: Vec::new(),
    };
    rows.insert(at, row);
    &mut rows[at]
}

impl FireScratch {
    /// Make room for `len` (end, id) slots, all unseen.
    fn fit(&mut self, len: usize) {
        if self.seen.len() < len {
            self.acc.resize(len, 0);
            self.seen.resize(len, false);
        }
    }
}

impl Partials {
    /// Write the window of the rows in `slots` into `acc` and `seen`, one
    /// entry each per id. Advances the back stack over the rows it has not
    /// folded when the window starts in the front stack; rebuilds
    /// otherwise. Windows come in advancing order: a later one starts no
    /// lower and ends higher.
    #[inline(always)]
    fn window(
        &mut self,
        rows: &VecDeque<Row>,
        slots: Range<u64>,
        acc: &mut [i64],
        seen: &mut [bool],
        identity: i64,
        merge: impl Fn(i64, i64) -> i64 + Copy,
    ) {
        let (lo, hi, n) = (slots.start, slots.end, acc.len());
        debug_assert!(
            lo >= self.f && hi > self.h,
            "a sub-group's ends only advance"
        );
        let built = self.h > 0 && self.back.len() == n;
        if !built || lo >= self.m {
            self.rebuild(rows, slots, n, identity, merge);
        } else {
            // The rows not folded yet are the newest ones: look from the
            // back, where the record path keeps the rows warm.
            let first = rows
                .iter()
                .rposition(|r| r.slot < self.h)
                .map_or(0, |i| i + 1);
            let new = rows.range(first..).take_while(|r| r.slot < hi);
            fold_rows(new, &mut self.back, &mut self.last, merge);
            self.h = hi;
        }
        let k = (self.m - 1 - lo) as usize;
        let front = &self.front[k * n..(k + 1) * n];
        for (a, (&x, &y)) in acc.iter_mut().zip(front.iter().zip(&self.back)) {
            *a = merge(x, y);
        }
        for (s, &l) in seen.iter_mut().zip(&self.last) {
            *s = l > lo;
        }
    }

    /// Build the front stack over `slots`, one suffix per slot from the
    /// newest down, and empty the back stack. Allocates only while the
    /// stacks grow past their capacity.
    // checker:hot-path
    #[inline(never)]
    fn rebuild(
        &mut self,
        rows: &VecDeque<Row>,
        slots: Range<u64>,
        n: usize,
        identity: i64,
        merge: impl Fn(i64, i64) -> i64,
    ) {
        let (lo, hi) = (slots.start, slots.end);
        let w = (hi - lo) as usize;
        // Exact capacities: a sub-group's stacks stay at (W + 2) × ids.
        self.front.clear();
        self.front.reserve_exact(w * n);
        self.front.resize(n, identity);
        self.back.clear();
        self.back.reserve_exact(n);
        self.back.resize(n, identity);
        self.last.clear();
        self.last.reserve_exact(n);
        self.last.resize(n, 0);
        let (first, end) = (
            rows.partition_point(|r| r.slot < lo),
            rows.partition_point(|r| r.slot < hi),
        );
        let mut window = rows.range(first..end).rev().peekable();
        for k in 0..w {
            if k > 0 {
                self.front.extend_from_within((k - 1) * n..k * n);
            }
            if let Some(row) = window.next_if(|r| r.slot == hi - 1 - k as u64) {
                let suffix = &mut self.front[k * n..];
                fold_rows(std::iter::once(row), suffix, &mut self.last, &merge);
            }
        }
        (self.f, self.m, self.h) = (lo, hi, hi);
    }
}

/// Fold every cell of `rows` into its id's accumulator with `merge`, and
/// raise the id's `last` past the cell's slot.
#[inline(always)]
fn fold_rows<'a>(
    rows: impl Iterator<Item = &'a Row>,
    acc: &mut [i64],
    last: &mut [u64],
    merge: impl Fn(i64, i64) -> i64,
) {
    for r in rows {
        for c in &r.cells {
            let i = c.id as usize;
            acc[i] = merge(acc[i], c.agg);
            last[i] = last[i].max(r.slot + 1);
        }
    }
}

fn initial(agg: Agg) -> i64 {
    match agg {
        Agg::Max => i64::MIN,
        Agg::Sum | Agg::Count => 0,
    }
}

fn combine(agg: Agg, acc: i64, value: i64, count: u64) -> i64 {
    match agg {
        Agg::Max => acc.max(value),
        Agg::Sum => acc + value * count as i64,
        Agg::Count => acc + count as i64,
    }
}

fn merge(agg: Agg, a: i64, b: i64) -> i64 {
    match agg {
        Agg::Max => a.max(b),
        Agg::Sum | Agg::Count => a + b,
    }
}

/// Names a failing test case: prints its context when the test panics
/// while the guard lives, so a panic inside the engine (an index out of
/// range, an overflow), not only a failed assertion, says which seed to
/// replay.
#[cfg(test)]
pub(crate) struct OnPanic(pub String);

#[cfg(test)]
impl Drop for OnPanic {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("failing case: {}", self.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panes_partition_by_slide() {
        let mut p = PaneSet::default();
        p.add(0, 5, 1, 100, Agg::Max);
        p.add(50, 9, 1, 100, Agg::Max);
        p.add(100, 3, 1, 100, Agg::Max);
        assert_eq!(p.len(), 2);
        assert_eq!(p.window_agg(200, 200, Agg::Max), Some((9, 3)));
        assert_eq!(p.window_agg(200, 100, Agg::Max), Some((3, 1)));
    }

    #[test]
    fn sum_and_count_aggs() {
        let mut p = PaneSet::default();
        p.add(0, 2, 3, 10, Agg::Sum); // 3 records of value 2
        p.add(10, 4, 1, 10, Agg::Sum);
        assert_eq!(p.window_agg(20, 20, Agg::Sum), Some((10, 4)));

        let mut c = PaneSet::default();
        c.add(0, 0, 7, 10, Agg::Count);
        assert_eq!(c.window_agg(10, 10, Agg::Count), Some((7, 7)));
    }

    #[test]
    fn eviction_frees_old_panes() {
        let mut p = PaneSet::default();
        for t in 0..10 {
            p.add(t * 100, 1, 1, 100, Agg::Count);
        }
        assert_eq!(p.len(), 10);
        let evicted = p.evict_before(500);
        assert_eq!(evicted, 5);
        assert_eq!(p.len(), 5);
        assert_eq!(p.total_count(), 5);
    }

    #[test]
    fn late_adds_land_in_order() {
        // Out-of-order event times: an older pane is created between (and
        // before) existing ones, and an existing older pane is found again.
        let mut p = PaneSet::default();
        for t in [500, 200, 900, 0, 250, 520] {
            p.add(t, t as i64, 1, 100, Agg::Max);
        }
        let starts: Vec<SimTime> = p.panes.iter().map(|x| x.start).collect();
        assert_eq!(starts, vec![0, 200, 500, 900]);
        assert_eq!(p.total_count(), 6);
        // [200, 600) sees panes 200 (records 200, 250) and 500 (500, 520).
        assert_eq!(p.window_agg(600, 400, Agg::Max), Some((520, 4)));
        // A window between panes sees nothing.
        assert_eq!(p.window_agg(500, 200, Agg::Max), None);
    }

    #[test]
    fn evicting_nothing_and_everything() {
        let mut p = PaneSet::default();
        assert_eq!(p.evict_before(1_000), 0);
        for t in 3..6 {
            p.add(t * 100, 1, 2, 100, Agg::Count);
        }
        // A horizon at (or before) the oldest pane's start evicts nothing.
        assert_eq!(p.evict_before(300), 0);
        assert_eq!(p.len(), 3);
        // A horizon past the newest pane evicts every record.
        assert_eq!(p.evict_before(501), 6);
        assert!(p.is_empty());
        assert_eq!(p.total_count(), 0);
        // The emptied set takes new panes again.
        p.add(50, 1, 1, 100, Agg::Count);
        assert_eq!(p.window_agg(100, 100, Agg::Count), Some((1, 1)));
    }

    #[test]
    fn sliding_windows_overlap() {
        // size 40, slide 10: the window [0,40) and [10,50) share panes.
        let mut p = PaneSet::default();
        p.add(5, 10, 1, 10, Agg::Max);
        p.add(45, 20, 1, 10, Agg::Max);
        assert_eq!(p.window_agg(40, 40, Agg::Max), Some((10, 1)));
        // Window [10, 50): only the t=45 record's pane is inside.
        assert_eq!(p.window_agg(50, 40, Agg::Max), Some((20, 1)));
        // Window [0, 50) via size 50 sees both panes.
        assert_eq!(p.window_agg(50, 50, Agg::Max), Some((20, 2)));
    }

    #[test]
    fn empty_window_is_none() {
        let p = PaneSet::default();
        assert_eq!(p.window_agg(100, 50, Agg::Sum), None);
    }

    #[test]
    fn rows_fire_key_major_and_evict_whole_rows() {
        // size 300, slide 100; keys 9 and 4 (ids 0 and 1), rows 0..=9 with
        // a late record landing in an older row: ends 400, 500, 600 fire.
        let mut rows = PaneRows::default();
        for t in 0..10 {
            rows.add(9, t * 100 + 7, t as i64, 1, 100, Agg::Sum);
        }
        rows.add(4, 250, 5, 2, 100, Agg::Sum);
        rows.add(4, 790, 1, 1, 100, Agg::Sum);
        rows.add(4, 240, -1, 1, 100, Agg::Sum);
        assert_eq!(rows.keys().collect::<Vec<_>>(), vec![4, 9]);
        assert_eq!(rows.counts().collect::<Vec<_>>(), vec![(4, 4), (9, 10)]);
        let mut scratch = FireScratch::default();
        let mut fired = Vec::new();
        let mut fire = |rows: &mut PaneRows, wm, fired: &mut Vec<_>| {
            rows.fire(wm, 100, 300, Agg::Sum, &mut scratch, |k, v, end| {
                fired.push((k, v, end))
            })
        };
        // Watermark 300 fires the ends 100, 200 and 300 and evicts nothing.
        assert_eq!(fire(&mut rows, 300, &mut fired), 0);
        assert_eq!(
            fired,
            vec![(4, 9, 300), (9, 0, 100), (9, 1, 200), (9, 3, 300)]
        );
        fired.clear();
        // Watermark 650 fires 400, 500 and 600, never 300 again. Key 4
        // first: [100, 400) and [200, 500) hold 5*2 - 1; [300, 600)
        // nothing. Key 9: 1+2+3, 2+3+4, 3+4+5.
        let evicted = fire(&mut rows, 650, &mut fired);
        let expected = vec![
            (4, 9, 400),
            (4, 9, 500),
            (9, 6, 400),
            (9, 9, 500),
            (9, 12, 600),
        ];
        assert_eq!(fired, expected);
        // Rows 0, 100 and 200 go: three records of key 9, three of key 4.
        assert_eq!(evicted, 6);
        assert_eq!(rows.counts().collect::<Vec<_>>(), vec![(4, 1), (9, 7)]);
        // A watermark short of the next end fires and evicts nothing.
        assert_eq!(fire(&mut rows, 699, &mut fired), 0);
        assert_eq!(fired.len(), 5);
        fired.clear();
        // A watermark past every row fires the ends that still see one
        // (up to 900 + 300) and evicts everything; the keys stay
        // registered.
        let evicted = fire(&mut rows, 2_000, &mut fired);
        let expected = vec![
            (4, 1, 800),
            (4, 1, 900),
            (4, 1, 1_000),
            (9, 15, 700),
            (9, 18, 800),
            (9, 21, 900),
            (9, 24, 1_000),
            (9, 17, 1_100),
            (9, 9, 1_200),
        ];
        assert_eq!((evicted, &fired), (8, &expected));
        assert_eq!(rows.counts().collect::<Vec<_>>(), vec![(4, 0), (9, 0)]);
        assert!(
            scratch.seen.iter().all(|&s| !s),
            "flags clear between firings"
        );
    }

    #[test]
    fn rows_merge_a_keys_records_per_slide() {
        // Tumbling-shaped load: two keys interleaved, many records each in
        // one slide interval, hold one cell per key.
        let mut rows = PaneRows::default();
        for t in 0..12 {
            rows.add(1, t, t as i64, 1, 100, Agg::Max);
            rows.add(2, t, -(t as i64), 2, 100, Agg::Max);
        }
        assert_eq!(rows.rows.len(), 1);
        assert_eq!(rows.rows[0].cells.len(), 2);
        assert_eq!(rows.counts().collect::<Vec<_>>(), vec![(1, 12), (2, 24)]);
        // A late record for an older interval gets its own cell, and so
        // does the key's next record back in the newer interval.
        rows.add(1, 250, 7, 1, 100, Agg::Max);
        rows.add(1, 50, 99, 1, 100, Agg::Max);
        rows.add(1, 260, 3, 1, 100, Agg::Max);
        assert_eq!(rows.rows[0].cells.len(), 3);
        assert_eq!(rows.rows[1].cells.len(), 2);
        // A count past `u32::MAX` starts a new cell instead of wrapping.
        rows.add(2, 70, 0, u32::MAX, 100, Agg::Max);
        assert_eq!(rows.rows[0].cells.len(), 4);
        let mut scratch = FireScratch::default();
        let mut fired = Vec::new();
        let evicted = rows.fire(300, 100, 100, Agg::Max, &mut scratch, |k, v, end| {
            fired.push((k, v, end))
        });
        assert_eq!(fired, vec![(1, 99, 100), (1, 7, 300), (2, 0, 100)]);
        assert_eq!(evicted, (12 + 1) + (24 + u32::MAX as u64));
        // Slot 0's row is gone, and key 2's position in it with it. A new
        // row for slot 0, filled by other keys first, must not take key
        // 2's record into another key's cell.
        for k in [1, 3, 4, 5] {
            rows.add(k, 10, k as i64, 1, 100, Agg::Max);
        }
        rows.add(2, 30, 6, 1, 100, Agg::Max);
        rows.add(2, 40, 8, 1, 100, Agg::Max);
        let cells: Vec<(u32, i64)> = rows.rows[0].cells.iter().map(|c| (c.id, c.agg)).collect();
        assert_eq!(cells, vec![(0, 1), (2, 3), (3, 4), (4, 5), (1, 8)]);
    }

    /// One [`PaneRows`] and its oracle, a [`PaneSet`] per key, fed the same
    /// records and the same watermarks.
    struct Twin {
        rows: PaneRows,
        oracle: std::collections::BTreeMap<Key, PaneSet>,
        /// The oracle's last fired end.
        oracle_fired: SimTime,
        scratch: FireScratch,
        slide: SimTime,
        size: SimTime,
        agg: Agg,
        /// Firings after which the front stack moved (`m` changed).
        flips: u32,
    }

    impl Twin {
        fn new(slide: SimTime, size: SimTime, agg: Agg) -> Self {
            Twin {
                rows: PaneRows::default(),
                oracle: Default::default(),
                oracle_fired: 0,
                scratch: FireScratch::default(),
                slide,
                size,
                agg,
                flips: 0,
            }
        }

        fn add(&mut self, key: Key, t: SimTime, value: i64, count: u32) {
            let (slide, agg) = (self.slide, self.agg);
            self.rows.add(key, t, value, count, slide, agg);
            let p = self.oracle.entry(key).or_default();
            p.add(t, value, count as u64, slide, agg);
        }

        /// Advance both to `watermark`: the ends it passes after the last
        /// fired one fire, and every `(key, value, end)` must match the
        /// oracle's fresh fold, in order.
        fn fire(&mut self, watermark: SimTime, ctx: &str) {
            let (slide, size, agg) = (self.slide, self.size, self.agg);
            let m = self.rows.parts.m;
            let mut fired = Vec::new();
            self.rows
                .fire(watermark, slide, size, agg, &mut self.scratch, |k, v, e| {
                    fired.push((k, v, e))
                });
            self.flips += u32::from(self.rows.parts.m != m);
            let (first_end, last_end) = (self.oracle_fired + slide, watermark / slide * slide);
            let mut expected = Vec::new();
            if first_end <= last_end {
                self.oracle_fired = last_end;
                for (&key, p) in &mut self.oracle {
                    for end in (first_end..=last_end).step_by(slide as usize) {
                        if let Some((v, _)) = p.window_agg(end, size, agg) {
                            expected.push((key, v, end));
                        }
                    }
                    p.evict_before(last_end.saturating_sub(size));
                }
            }
            assert_eq!(fired, expected, "{ctx}: fired at watermark {watermark}");
        }
    }

    #[test]
    fn rows_partials_match_a_fresh_fold() {
        // W = 20 (Q7's 10 s / 500 ms, scaled) and W = 1 (tumbling), both
        // merge functions. Each shape runs: single-slide firings with
        // records arriving ahead of the watermark (several flips), late
        // adds into a front and a back slot, a multi-end firing, a new
        // key between firings, a watermark that passes no end, and one
        // between two slides.
        for (slide, w) in [(10, 20), (100, 1)] {
            for agg in [Agg::Max, Agg::Sum] {
                let seed = slide ^ w;
                let ctx = format!("seed {seed}: slide {slide}, W = {w}, {agg:?}");
                let _case = OnPanic(ctx.clone());
                let mut rng = simcore::DetRng::seed(seed);
                let mut t = Twin::new(slide, slide * w, agg);
                let value = |rng: &mut simcore::DetRng| rng.below(100) as i64 - 50;
                // Records for keys 1..=4 over the first 2W slots.
                let horizon = 2 * w * slide;
                for time in (0..horizon).step_by(slide as usize / 2) {
                    let v = value(&mut rng);
                    t.add(1 + rng.below(4), time, v, 1 + rng.below(3) as u32);
                }
                // Single-slide firings, records arriving two slides ahead.
                let mut end = slide;
                for _ in 0..4 * w + 3 {
                    let ahead = end + 2 * slide + rng.below(slide);
                    let v = value(&mut rng);
                    t.add(1 + rng.below(4), ahead, v, 1);
                    t.fire(end, &format!("{ctx}, single end {end}"));
                    end += slide;
                }
                assert!(t.flips >= 3, "{ctx}: {} flips", t.flips);
                // A late add into a front slot the next window still
                // needs, and one into a back slot: both drop the partials.
                let p = &t.rows.parts;
                let (front_slot, back_slot) = (p.m - 1, p.h - 1);
                if w > 1 {
                    assert!(p.f < front_slot && p.m <= back_slot, "{ctx}: {p:?}");
                }
                t.add(2, front_slot * slide, 99, 1);
                assert_eq!(t.rows.parts.h, 0, "{ctx}: a front add drops the partials");
                t.fire(end, &format!("{ctx}, after a front add"));
                end += slide;
                t.add(3, back_slot * slide + 1, 99, 1);
                assert_eq!(t.rows.parts.h, 0, "{ctx}: a back add drops the partials");
                t.fire(end, &format!("{ctx}, after a back add"));
                end += slide;
                // One multi-end firing.
                t.fire(end + 6 * slide, &format!("{ctx}, multi-end"));
                end += 7 * slide;
                // A new key between firings.
                t.add(77, end - slide / 2, 60, 2);
                t.fire(end + slide, &format!("{ctx}, after a new key"));
                end += 2 * slide;
                // A watermark short of the next end fires nothing, and one
                // between two slides fires up to the slide below it.
                t.fire(end - 1, &format!("{ctx}, no end passed"));
                t.fire(
                    end + 3 * slide + slide / 2,
                    &format!("{ctx}, between slides"),
                );
            }
        }
    }

    #[test]
    fn rows_stay_sparse() {
        // Records far apart in event time make two rows, not one per slot
        // in between.
        let mut rows = PaneRows::default();
        rows.add(1, 5, 1, 1, 10, Agg::Max);
        rows.add(1, 1_000_005, 1, 1, 10, Agg::Max);
        rows.add(2, 500, 1, 1, 10, Agg::Max);
        assert_eq!(rows.rows.len(), 3);
        let slots: Vec<u64> = rows.rows.iter().map(|r| r.slot).collect();
        assert_eq!(slots, vec![0, 50, 100_000]);
    }
}
