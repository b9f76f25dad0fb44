//! Sliding-window panes.
//!
//! Sliding windows are implemented with the standard pane decomposition: a
//! pane covers one slide interval; a window aggregates `size / slide`
//! consecutive panes. The paper's Q7 uses 10 s windows with 0.5 s slides
//! (20 panes), Q8 40 s with 5 s slides (8 panes).
//!
//! # Firing cost
//!
//! A watermark fires the window ends `first_end, first_end + slide, ..=
//! last_end` for every key, and [`PaneSet::fire`] does that in one forward
//! pass over the key's panes: per end it moves a head index past the panes
//! no later window can read (`start < end - size`, counting their records),
//! folds the panes from the head up to `end`, and after the last end drains
//! the skipped prefix once. The window-start bound `end - size` only grows
//! across ends, so the head never moves back, and it stops at the last
//! end's bound — the eviction horizon. A Q7 firing is one end over ~17
//! panes: one skip, one fold, one drain per key, no search and no second
//! visit. Freed bytes go back to the caller, which settles them once per
//! sub-group (see `StateBackend::for_each_entry_mut`).

use simcore::SimTime;

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

/// The pane ring for one key: panes in ascending `start` order, one per
/// slide interval that has seen a record. `add` keeps the order, the other
/// methods rely on it.
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

    /// Fire the windows ending at `first_end, first_end + slide, ..=
    /// last_end` (each of length `size`), calling `emit(end, value)` for
    /// every window that holds a pane, then evict the panes no window ending
    /// after `last_end` can need (those starting before `last_end - size`).
    /// Returns the number of records evicted. One pass: see the module docs.
    // checker:hot-path
    pub fn fire(
        &mut self,
        first_end: SimTime,
        last_end: SimTime,
        slide: SimTime,
        size: SimTime,
        agg: Agg,
        mut emit: impl FnMut(SimTime, i64),
    ) -> u64 {
        let mut head = 0;
        let mut evicted = 0;
        let mut end = first_end;
        while end <= last_end {
            let lo = end.saturating_sub(size);
            while let Some(p) = self.panes.get(head).filter(|p| p.start < lo) {
                evicted += p.count;
                head += 1;
            }
            let mut window = self.panes[head..].iter().take_while(|p| p.start < end);
            if let Some(first) = window.next() {
                emit(end, window.fold(first.agg, |a, p| merge(agg, a, p.agg)));
            }
            end += slide;
        }
        self.panes.drain(..head);
        evicted
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
    fn fire_folds_every_end_before_evicting_to_the_last_horizon() {
        // size 300, slide 100, panes at 0..=900: ends 400, 500, 600 fire.
        let mut p = PaneSet::default();
        for t in 0..10 {
            p.add(t * 100 + 7, t as i64, 1, 100, Agg::Sum);
        }
        let mut reference = p.clone();
        let mut fired = Vec::new();
        let evicted = p.fire(400, 600, 100, 300, Agg::Sum, |end, v| fired.push((end, v)));
        // [100, 400) = 1+2+3, [200, 500) = 2+3+4, [300, 600) = 3+4+5.
        assert_eq!(fired, vec![(400, 6), (500, 9), (600, 12)]);
        assert_eq!(evicted, reference.evict_before(300));
        assert_eq!(p, reference);
        // Nothing left to evict at the same horizon; an end past every pane
        // emits nothing and evicts everything.
        assert_eq!(p.fire(600, 600, 100, 300, Agg::Sum, |_, _| {}), 0);
        let mut any = false;
        assert_eq!(
            p.fire(2_000, 2_000, 100, 300, Agg::Sum, |_, _| any = true),
            7
        );
        assert!(!any && p.is_empty());
    }

    #[test]
    fn empty_window_is_none() {
        let p = PaneSet::default();
        assert_eq!(p.window_agg(100, 50, Agg::Sum), None);
    }
}
