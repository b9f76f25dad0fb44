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
//! - *Why time-major.* A firing reads only the rows inside each fired
//!   window, front to back, folding cells into a per-id accumulator
//!   ([`FireScratch`]), and evicts by popping whole rows off the front.
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
//! [`PaneSet`], one key's pane list, is the reference: the test oracle of
//! the row layout and the subject of `drrs_bench`'s pane kernel.

use std::collections::VecDeque;

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
/// docs): a key → dense-id map, the ids in key order, and the sparse,
/// slot-ascending rows.
#[derive(Clone, Debug, Default)]
pub struct PaneRows {
    ids: FxHashMap<Key, KeyCell>,
    /// `(key, id)` for every key, ascending by key: the firing order.
    order: Vec<(Key, u32)>,
    rows: VecDeque<Row>,
}

/// Per-subtask scratch for [`PaneRows::fire`]: one accumulator and one
/// seen flag per (fired end, key id). Kept for its capacity; between
/// firings every flag is clear and every accumulator holds the
/// aggregation's identity.
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

    /// Fire the windows ending at `first_end, first_end + slide, ..=
    /// last_end` (each of length `size`, every end a multiple of `slide`),
    /// calling `emit(key, value, end)` for every (key, window) holding a
    /// record — key by key in key order, ends ascending — then evict the
    /// rows no window ending after `last_end` can need (those starting
    /// before `last_end - size`). Returns the number of records evicted.
    // checker:hot-path
    #[allow(clippy::too_many_arguments)]
    pub fn fire(
        &mut self,
        first_end: SimTime,
        last_end: SimTime,
        slide: SimTime,
        size: SimTime,
        agg: Agg,
        scratch: &mut FireScratch,
        mut emit: impl FnMut(Key, i64, SimTime),
    ) -> u64 {
        // Only ends after the first row's start and at most `size` past the
        // last row's start can see a row.
        if let (Some(front), Some(back)) = (self.rows.front(), self.rows.back()) {
            let lo_end = first_end.max((front.slot + 1) * slide);
            let hi_end = last_end.min((back.slot * slide + size) / slide * slide);
            if lo_end <= hi_end {
                let ends = ((hi_end - lo_end) / slide + 1) as usize;
                let n = self.order.len();
                scratch.fit(ends * n, agg);
                for e in 0..ends {
                    let end = lo_end + e as u64 * slide;
                    let lo = end.saturating_sub(size);
                    let acc = &mut scratch.acc[e * n..(e + 1) * n];
                    let seen = &mut scratch.seen[e * n..(e + 1) * n];
                    let window = self
                        .rows
                        .iter()
                        .skip_while(|r| r.slot * slide < lo)
                        .take_while(|r| r.slot * slide < end);
                    // One loop per merge function, so the fold does not
                    // branch on `agg` per cell.
                    match agg {
                        Agg::Max => fold_cells(window, acc, seen, i64::max),
                        Agg::Sum | Agg::Count => fold_cells(window, acc, seen, |a, b| a + b),
                    }
                }
                let identity = initial(agg);
                for &(key, id) in &self.order {
                    for e in 0..ends {
                        let i = e * n + id as usize;
                        if scratch.seen[i] {
                            scratch.seen[i] = false;
                            let acc = std::mem::replace(&mut scratch.acc[i], identity);
                            emit(key, acc, lo_end + e as u64 * slide);
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
    /// Make room for `len` (end, id) slots, all unseen, with accumulators
    /// at `agg`'s identity. A scratch serves one operator, so one `agg`.
    fn fit(&mut self, len: usize, agg: Agg) {
        if self.seen.len() < len {
            self.acc.resize(len, initial(agg));
            self.seen.resize(len, false);
        }
    }
}

/// Fold every cell of `rows` into its id's accumulator with `merge`,
/// flagging the id seen.
#[inline(always)]
fn fold_cells<'a>(
    rows: impl Iterator<Item = &'a Row>,
    acc: &mut [i64],
    seen: &mut [bool],
    merge: impl Fn(i64, i64) -> i64,
) {
    for c in rows.flat_map(|r| &r.cells) {
        let i = c.id as usize;
        acc[i] = merge(acc[i], c.agg);
        seen[i] = true;
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
        let evicted = rows.fire(400, 600, 100, 300, Agg::Sum, &mut scratch, |k, v, end| {
            fired.push((k, v, end))
        });
        // Key 4 first: [100, 400) and [200, 500) hold 5*2 - 1; [300, 600)
        // nothing. Key 9: 1+2+3, 2+3+4, 3+4+5.
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
        assert!(
            scratch.seen.iter().all(|&s| !s),
            "flags clear between firings"
        );
        // An end past every row emits nothing and evicts everything; the
        // keys stay registered.
        let mut any = false;
        let evicted = rows.fire(2_000, 2_000, 100, 300, Agg::Sum, &mut scratch, |_, _, _| {
            any = true
        });
        assert_eq!((evicted, any), (8, false));
        assert_eq!(rows.counts().collect::<Vec<_>>(), vec![(4, 0), (9, 0)]);
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
        let evicted = rows.fire(100, 300, 100, 100, Agg::Max, &mut scratch, |k, v, end| {
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
