//! The keyed state backend.
//!
//! State is partitioned into key-groups; each key-group is further split
//! into `fanout` sub-groups to support Meces' hierarchical state
//! organization (fanout 1 for everyone else). State values are *real*
//! (counts/sums/join lists/window panes) so that output equivalence can be
//! verified, while `nominal_bytes` carries the migration-cost model so that
//! totals can match the paper's 0.5–30 GB without materializing gigabytes.
//!
//! # Layout
//!
//! The backend is **dense**: sub-group slots live in one flat
//! `Vec<Option<SubState>>` indexed by `kg * fanout + sub`, and the per-group
//! inactive flags in a parallel `Vec<bool>`. `max_key_groups` is small (128
//! or 256 in every paper configuration), so the dense table costs a few KB
//! per instance and turns every state access on the per-record hot path into
//! two array indexings — no hashing, no map lookups, and iteration order is
//! the key-group order by construction, which keeps runs deterministic.
//! Per-key entries inside a sub-group live in a [`simcore::KeyMap`]: groups
//! of eight inline `(key, value)` slots behind eight tag bytes, in one
//! allocation, with no removal (a key leaves only with its sub-group). A
//! table grows when 7/8 full: below 256 slots it doubles, from there on by
//! a quarter, so a table of a few hundred keys stays at 70–87.5 % load.
//! Simulator keys are trusted `u64`s, hashed with Fx.
//!
//! A key-group is "locally present" iff at least one of its sub-group slots
//! is occupied; extracting the last sub-group of a group also clears its
//! inactive flag, matching the previous map-based semantics where the
//! group's entry was removed.
//!
//! A window operator's keys do not live in `entries`: each sub-group keeps
//! its window state in one [`PaneRows`] (time-major rows, see
//! [`crate::window`]), behind `SubState::panes`. The store is boxed and
//! allocated on the first windowed record, so keyed operators pay 8 bytes
//! per sub-group and allocate nothing. Unboxed, its map, key list and row
//! deque widen every sub-group slot by 80 bytes, and `rescale_churn`'s
//! peak RSS rose 27.9 → 29.1 MB. The store moves with the sub-group on
//! `extract`/`install`, and `total_keys`/`snapshot_counts` count its keys
//! and their buffered records as they count `entries`.
//!
//! # Entry size
//!
//! Every per-key slot is an `Option<(Key, StateValue)>` of 32 bytes (the
//! empty slot lives in `StateValue`'s niche), plus its tag byte, and
//! `state_value_fits_in_24_bytes` pins it. With the window panes out of
//! `StateValue`, one `Vec` variant is left and the enum's tag hides in that
//! `Vec`'s capacity niche; while a second `Vec` variant held panes the entry
//! was 40 bytes. The widest variant sets the width of every entry of every
//! workload, so the Q8 join keeps both sides in one inline list in arrival
//! order ([`StateValue::Lists`]): a person
//! at time `t` as `t`, an auction as `!t`. Its predicates read only which
//! times a side holds, never the order between sides. Two `Vec`s made
//! `StateValue` 48 bytes and the entry 56. Boxing the pair
//! (`Box<[Vec<i64>; 2]>`) also shrinks the enum, but adds a pointer chase
//! per key to every watermark sweep. On a 2-vCPU Xeon, `scenario --run
//! fig10_11/Q8/DRRS/seed1` took 7.40 s with two lists, 8.59 s boxed and
//! 5.92 s with the one list (one heap buffer per key instead of two; mean
//! of 3 alternating runs).
//!
//! The footprint is slot bytes times slots per key. `rescale_churn`'s
//! ~62 k live keys sit ~484 to a sub-group. A hash map that doubles gave
//! each 1,024 buckets of 33 bytes (47 % load, 70 bytes per key, 4.3 MB in
//! all, twice a 2 MB L2 per core); a `KeyMap` gives each 616 slots of 33
//! bytes (79 % load, 42 bytes per key, 2.6 MB).
//! `large_keyed_state_stays_dense` pins the slots per key on that shape,
//! and the workload's peak RSS fell by ~1.5 MB with it.

use std::collections::HashMap;

use simcore::KeyMap;

use crate::ids::{sub_group_of, Key, KeyGroup};
use crate::window::PaneRows;

/// A single key's state.
#[derive(Clone, Debug, PartialEq)]
pub enum StateValue {
    /// Running count.
    Count(u64),
    /// Running count + sum.
    Sum { count: u64, sum: i64 },
    /// Both sides of a windowed join in one list, in arrival order: a
    /// side-A element at time `t` is stored as `t`, a side-B element as
    /// `!t` (negative). See the module docs' "Entry size".
    Lists(Vec<i64>),
}

impl StateValue {
    /// Running count, where meaningful (testing/verification helper).
    pub fn count(&self) -> u64 {
        match self {
            StateValue::Count(c) => *c,
            StateValue::Sum { count, .. } => *count,
            StateValue::Lists(l) => l.len() as u64,
        }
    }

    /// Fold `other` into `self`: counts and sums add, lists concatenate.
    /// The fold is commutative up to list order; unlike shapes leave
    /// `self` as it is.
    pub fn merge(&mut self, other: &StateValue) {
        match (self, other) {
            (StateValue::Count(a), StateValue::Count(b)) => *a += b,
            (StateValue::Sum { count, sum }, StateValue::Sum { count: c2, sum: s2 }) => {
                *count += c2;
                *sum += s2;
            }
            (StateValue::Lists(l1), StateValue::Lists(l2)) => l1.extend_from_slice(l2),
            _ => {}
        }
    }
}

/// State of one sub-group (the migration atom under hierarchical
/// organization; the whole key-group when `fanout == 1`).
#[derive(Clone, Debug, Default)]
pub struct SubState {
    /// Per-key values, in a dense table with no removal: a key leaves
    /// only with its whole sub-group (see the module docs' "Layout").
    pub entries: KeyMap<StateValue>,
    /// A window operator's panes for this sub-group's keys, allocated on
    /// the first windowed record (see the module docs' "Layout").
    pub panes: Option<Box<PaneRows>>,
    /// Modeled serialized size of this sub-group's state.
    pub nominal_bytes: u64,
}

/// A migratable unit of state extracted from a backend.
#[derive(Clone, Debug)]
pub struct StateUnit {
    /// Owning key-group.
    pub kg: KeyGroup,
    /// Sub-group index within the key-group.
    pub sub: u8,
    /// The state itself.
    pub state: SubState,
}

impl StateUnit {
    /// Serialized size used by the migration cost model.
    pub fn bytes(&self) -> u64 {
        self.state.nominal_bytes
    }
}

/// Per-instance keyed state store (dense layout, see module docs).
#[derive(Debug)]
pub struct StateBackend {
    max_key_groups: u16,
    fanout: u8,
    /// Flat sub-group table: index `kg * fanout + sub`.
    slots: Vec<Option<SubState>>,
    /// Per-group "arrived but awaiting alignment" flag (DRRS). Meaningful
    /// only while the group is present.
    inactive: Vec<bool>,
    /// Scratch for `for_each_entry_mut`'s sorted key list (kept for its
    /// capacity; empty between calls).
    key_scratch: Vec<Key>,
}

impl StateBackend {
    /// Create an empty backend.
    pub fn new(max_key_groups: u16, fanout: u8) -> Self {
        let fanout = fanout.max(1);
        let k = max_key_groups as usize;
        let mut slots = Vec::new();
        slots.resize_with(k * fanout as usize, || None);
        Self {
            max_key_groups,
            fanout,
            slots,
            inactive: vec![false; k],
            key_scratch: Vec::new(),
        }
    }

    #[inline]
    fn slot_idx(&self, kg: KeyGroup, sub: u8) -> usize {
        debug_assert!(kg.0 < self.max_key_groups, "key-group {kg} out of range");
        debug_assert!(sub < self.fanout, "sub-group {sub} out of range");
        kg.0 as usize * self.fanout as usize + sub as usize
    }

    #[inline]
    fn group_slots(&self, kg: KeyGroup) -> &[Option<SubState>] {
        let base = kg.0 as usize * self.fanout as usize;
        &self.slots[base..base + self.fanout as usize]
    }

    /// Sub-group index of a key.
    #[inline]
    pub fn sub_of(&self, key: Key) -> u8 {
        sub_group_of(key, self.max_key_groups, self.fanout)
    }

    /// Is the sub-group holding `key` locally present?
    #[inline]
    pub fn holds(&self, kg: KeyGroup, sub: u8) -> bool {
        self.slots[self.slot_idx(kg, sub)].is_some()
    }

    /// Are *all* sub-groups of `kg` locally present?
    #[inline]
    pub fn holds_group(&self, kg: KeyGroup) -> bool {
        self.group_slots(kg).iter().all(|s| s.is_some())
    }

    /// Is any sub-group of `kg` locally present?
    #[inline]
    fn group_exists(&self, kg: KeyGroup) -> bool {
        self.group_slots(kg).iter().any(|s| s.is_some())
    }

    /// Mark a key-group inactive (arrived but awaiting alignment).
    pub fn set_inactive(&mut self, kg: KeyGroup, inactive: bool) {
        self.inactive[kg.0 as usize] = inactive;
    }

    /// Is the key-group active (present groups default to active)?
    #[inline]
    pub fn is_active(&self, kg: KeyGroup) -> bool {
        !self.inactive[kg.0 as usize]
    }

    /// Ensure a key-group exists locally with all sub-groups (used when an
    /// instance is the initial owner).
    pub fn ensure_group(&mut self, kg: KeyGroup) {
        if self.group_exists(kg) {
            return;
        }
        let base = kg.0 as usize * self.fanout as usize;
        for s in &mut self.slots[base..base + self.fanout as usize] {
            *s = Some(SubState::default());
        }
    }

    /// Access the value for `key`, creating it with `default` if absent.
    /// Panics if the sub-group is not locally present — admission control
    /// must have checked [`Self::holds`] first.
    // checker:hot-path
    #[inline]
    pub fn entry_or(
        &mut self,
        kg: KeyGroup,
        key: Key,
        default: impl FnOnce() -> StateValue,
    ) -> &mut StateValue {
        let sub = self.sub_of(key);
        let idx = self.slot_idx(kg, sub);
        let s = self.slots[idx]
            .as_mut()
            .unwrap_or_else(|| panic!("state access to absent sub-group {kg}/{sub}"));
        s.entries.get_or_insert_with(key, default)
    }

    /// The window panes of `key`'s sub-group, created empty if absent.
    /// Panics if the sub-group is not locally present, like
    /// [`Self::entry_or`].
    // checker:hot-path
    #[inline]
    pub fn panes_mut(&mut self, kg: KeyGroup, key: Key) -> &mut PaneRows {
        let sub = self.sub_of(key);
        let idx = self.slot_idx(kg, sub);
        let s = self.slots[idx]
            .as_mut()
            .unwrap_or_else(|| panic!("state access to absent sub-group {kg}/{sub}"));
        s.panes.get_or_insert_with(new_panes)
    }

    /// Add to a sub-group's modeled serialized size (operators call this as
    /// their state grows).
    // checker:hot-path
    #[inline]
    pub fn add_bytes(&mut self, kg: KeyGroup, key: Key, bytes: i64) {
        let sub = self.sub_of(key);
        let idx = self.slot_idx(kg, sub);
        if let Some(s) = self.slots[idx].as_mut() {
            s.nominal_bytes = (s.nominal_bytes as i64 + bytes).max(0) as u64;
        }
    }

    /// Extract (remove) one sub-group for migration.
    pub fn extract(&mut self, kg: KeyGroup, sub: u8) -> Option<StateUnit> {
        let idx = self.slot_idx(kg, sub);
        let state = self.slots[idx].take()?;
        if !self.group_exists(kg) {
            self.inactive[kg.0 as usize] = false;
        }
        Some(StateUnit { kg, sub, state })
    }

    /// Extract all sub-groups of a key-group (key-group-granular migration).
    pub fn extract_group(&mut self, kg: KeyGroup) -> Vec<StateUnit> {
        (0..self.fanout)
            .filter_map(|s| self.extract(kg, s))
            .collect()
    }

    /// Install a migrated unit.
    pub fn install(&mut self, unit: StateUnit, active: bool) {
        let idx = self.slot_idx(unit.kg, unit.sub);
        debug_assert!(
            self.slots[idx].is_none(),
            "double-install of {}/{}",
            unit.kg,
            unit.sub
        );
        self.slots[idx] = Some(unit.state);
        self.set_inactive(unit.kg, !active);
    }

    /// Fold a migrated unit into the copy of its sub-group already present
    /// here (a copy fabricated for Unbound's universal keys): each key's
    /// value [merges](StateValue::merge) into the local one or is inserted,
    /// and the modeled bytes add up. Window keys are registered and their
    /// panes dropped: merging panes is not modelled, and no scenario folds
    /// window state. The group's active flag is left as it is.
    pub fn fold(&mut self, unit: StateUnit) {
        let (kg, sub) = (unit.kg, unit.sub);
        let idx = self.slot_idx(kg, sub);
        let s = self.slots[idx]
            .as_mut()
            .unwrap_or_else(|| panic!("fold into absent sub-group {kg}/{sub}"));
        for (k, v) in unit.state.entries {
            match s.entries.get_mut(k) {
                Some(a) => a.merge(&v),
                None => {
                    s.entries.insert(k, v);
                }
            }
        }
        for k in unit.state.panes.iter().flat_map(|p| p.keys()) {
            s.panes.get_or_insert_with(new_panes).insert_key(k);
        }
        s.nominal_bytes += unit.state.nominal_bytes;
    }

    /// Total modeled bytes held locally.
    pub fn total_bytes(&self) -> u64 {
        self.slots.iter().flatten().map(|s| s.nominal_bytes).sum()
    }

    /// Total number of keys held locally.
    pub fn total_keys(&self) -> usize {
        self.slots
            .iter()
            .flatten()
            .map(|s| s.entries.len() + s.panes.as_ref().map_or(0, |p| p.key_count()))
            .sum()
    }

    /// Bytes held for one key-group.
    pub fn group_bytes(&self, kg: KeyGroup) -> u64 {
        self.group_slots(kg)
            .iter()
            .flatten()
            .map(|s| s.nominal_bytes)
            .sum()
    }

    /// Fold all per-key values into `(key, count)` pairs — used by output
    /// equivalence tests.
    pub fn snapshot_counts(&self) -> HashMap<Key, u64> {
        let mut out = HashMap::new();
        for s in self.slots.iter().flatten() {
            for (k, v) in s.entries.iter() {
                *out.entry(k).or_insert(0) += v.count();
            }
            for (k, n) in s.panes.iter().flat_map(|p| p.counts()) {
                *out.entry(k).or_insert(0) += n;
            }
        }
        out
    }

    /// Sub-group fanout.
    pub fn fanout(&self) -> u8 {
        self.fanout
    }

    /// Visit every locally present `(key, value)` pair mutably (window
    /// firing). `f` returns the nominal bytes it freed from that key's
    /// state; they are taken off the key's sub-group once, after its last
    /// key. Iteration order is deterministic (sorted by key-group then key)
    /// so runs stay reproducible.
    // checker:hot-path
    pub fn for_each_entry_mut(&mut self, mut f: impl FnMut(Key, &mut StateValue) -> u64) {
        let mut keys = std::mem::take(&mut self.key_scratch);
        for s in self.slots.iter_mut().flatten() {
            keys.clear();
            keys.extend(s.entries.keys());
            keys.sort_unstable();
            let mut freed = 0;
            for &k in &keys {
                let v = s.entries.get_mut(k).expect("key listed");
                freed += f(k, v);
            }
            s.settle(freed);
        }
        keys.clear();
        self.key_scratch = keys;
    }

    /// Visit the window panes of every locally present sub-group mutably
    /// (window firing), in key-group then sub-group order. `f` returns the
    /// nominal bytes it freed; they are taken off the sub-group at once.
    // checker:hot-path
    pub fn for_each_panes_mut(&mut self, mut f: impl FnMut(&mut PaneRows) -> u64) {
        for s in self.slots.iter_mut().flatten() {
            if let Some(p) = s.panes.as_deref_mut() {
                let freed = f(p);
                s.settle(freed);
            }
        }
    }
}

impl SubState {
    /// Take `freed` bytes off the modeled size. Every delta of a sweep is a
    /// decrease, so one clamp of the sum equals a clamp after each key; a
    /// sum past the balance is an accounting bug, not a state to clamp
    /// silently.
    fn settle(&mut self, freed: u64) {
        debug_assert!(
            freed <= self.nominal_bytes,
            "freed {freed} of {} nominal bytes",
            self.nominal_bytes
        );
        self.nominal_bytes = self.nominal_bytes.saturating_sub(freed);
    }
}

#[cold]
fn new_panes() -> Box<PaneRows> {
    Box::default()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn backend() -> StateBackend {
        let mut b = StateBackend::new(16, 1);
        b.ensure_group(KeyGroup(3));
        b
    }

    #[test]
    fn state_value_fits_in_24_bytes() {
        // Every key of every workload pays for the widest variant: a map
        // entry is `(Key, StateValue)`, and the per-record probe's cache
        // misses scale with it. A new wide variant is a silent tax on the
        // whole state layer — box its payload or rethink it, and treat a
        // regression here like a perf bug, not a style nit. With one `Vec`
        // variant the tag hides in the `Vec`'s capacity niche; a second
        // one (window panes did that) takes it back to 32.
        assert_eq!(std::mem::size_of::<StateValue>(), 24);
        assert_eq!(std::mem::size_of::<(Key, StateValue)>(), 32);
        // A `KeyMap` slot: the empty slot lives in the same niche.
        assert_eq!(std::mem::size_of::<Option<(Key, StateValue)>>(), 32);
    }

    #[test]
    fn window_cells_and_sub_states_stay_small() {
        // About one cell per live (key, slide interval): Q7 holds ~220 k
        // at peak.
        assert_eq!(std::mem::size_of::<crate::window::Cell>(), 16);
        // Every sub-group of every operator pays for the pane store's
        // handle: boxed it is 8 bytes, unboxed 88 (see the module docs).
        // The key table is one boxed slice and a length.
        assert!(std::mem::size_of::<SubState>() <= 40);
    }

    #[test]
    fn large_keyed_state_stays_dense() {
        // `rescale_churn`'s shape: 65,536 uniform keys over 128 key-groups,
        // ~512 keys per table. Every table is past the doubling regime, so
        // it holds at most 1.43 slots per key (load >= 0.7); a hash map that
        // doubles holds 2 at this size. This is the deterministic side of
        // the workload's peak-RSS figure.
        let mut b = StateBackend::new(128, 1);
        for kg in 0..128 {
            b.ensure_group(KeyGroup(kg));
        }
        for key in 0..65_536 {
            let kg = crate::ids::key_group_of(key, 128);
            b.entry_or(kg, key, || StateValue::Count(0));
        }
        assert_eq!(b.total_keys(), 65_536);
        for s in b.slots.iter().flatten() {
            let (cap, len) = (s.entries.capacity(), s.entries.len());
            assert!(cap * 100 <= len * 143, "{cap} slots for {len} keys");
        }
    }

    #[test]
    fn entry_updates_and_counts() {
        let mut b = backend();
        match b.entry_or(KeyGroup(3), 77, || StateValue::Count(0)) {
            StateValue::Count(c) => *c += 5,
            _ => unreachable!(),
        }
        assert_eq!(b.snapshot_counts()[&77], 5);
        assert_eq!(b.total_keys(), 1);
    }

    #[test]
    fn extract_install_round_trip() {
        let mut b = backend();
        *b.entry_or(KeyGroup(3), 1, || StateValue::Count(0)) = StateValue::Count(9);
        b.add_bytes(KeyGroup(3), 1, 1024);
        let units = b.extract_group(KeyGroup(3));
        assert_eq!(units.len(), 1);
        assert!(!b.holds_group(KeyGroup(3)));
        assert_eq!(b.total_bytes(), 0);

        let mut b2 = StateBackend::new(16, 1);
        for u in units {
            assert_eq!(u.bytes(), 1024);
            b2.install(u, true);
        }
        assert!(b2.holds_group(KeyGroup(3)));
        assert_eq!(b2.snapshot_counts()[&1], 9);
    }

    #[test]
    fn fold_merges_like_values_adds_bytes_and_keeps_the_active_flag() {
        use StateValue::{Count, Lists};
        let (kg, sum) = (KeyGroup(3), |count, sum| StateValue::Sum { count, sum });
        let (mut b, mut src) = (backend(), backend());
        b.set_inactive(kg, true);
        // Join lists: a person at `t` is `t`, an auction at `t` is `!t`.
        for (key, here, there) in [
            (1, Count(2), Count(5)),
            (2, sum(2, 5), sum(1, -8)),
            (3, Lists(vec![10, !20]), Lists(vec![!40])),
            (4, Count(3), sum(1, 1)), // unlike shapes: kept
        ] {
            b.entry_or(kg, key, || here);
            src.entry_or(kg, key, || there);
        }
        src.entry_or(kg, 5, || Count(7));
        b.add_bytes(kg, 1, 100);
        src.add_bytes(kg, 1, 300);
        b.fold(src.extract(kg, 0).expect("present"));
        assert_eq!(b.entry_or(kg, 2, || unreachable!()), &sum(3, -3));
        assert_eq!(
            b.entry_or(kg, 3, || unreachable!()),
            &Lists(vec![10, !20, !40])
        );
        let counts = HashMap::from([(1, 7), (2, 3), (3, 3), (4, 3), (5, 7)]);
        assert_eq!(b.snapshot_counts(), counts);
        assert_eq!(b.total_bytes(), 400);
        assert!(!b.is_active(kg), "a fold keeps the active flag");
    }

    #[test]
    fn inactive_flag() {
        let mut b = backend();
        assert!(b.is_active(KeyGroup(3)));
        b.set_inactive(KeyGroup(3), true);
        assert!(!b.is_active(KeyGroup(3)));
        b.set_inactive(KeyGroup(3), false);
        assert!(b.is_active(KeyGroup(3)));
    }

    #[test]
    fn extracting_last_sub_clears_inactive_flag() {
        // Dense-backend equivalent of the old "remove the map entry removes
        // the flag": once a group is fully extracted, a later re-install
        // must not inherit a stale inactive flag unless asked for.
        let mut b = backend();
        *b.entry_or(KeyGroup(3), 1, || StateValue::Count(0)) = StateValue::Count(1);
        b.set_inactive(KeyGroup(3), true);
        let unit = b.extract(KeyGroup(3), 0).expect("present");
        assert!(!b.holds(KeyGroup(3), 0));
        assert!(
            b.is_active(KeyGroup(3)),
            "flag must reset on full extraction"
        );
        b.install(unit, true);
        assert!(b.is_active(KeyGroup(3)));
    }

    #[test]
    fn hierarchical_extract_is_partial() {
        let mut b = StateBackend::new(16, 4);
        b.ensure_group(KeyGroup(2));
        // Find keys for two different sub-groups of kg 2.
        let mut keys_by_sub: HashMap<u8, Key> = HashMap::new();
        for k in 0..100_000u64 {
            if crate::ids::key_group_of(k, 16) == KeyGroup(2) {
                keys_by_sub.entry(b.sub_of(k)).or_insert(k);
                if keys_by_sub.len() >= 2 {
                    break;
                }
            }
        }
        let subs: Vec<(u8, Key)> = keys_by_sub.into_iter().collect();
        assert!(subs.len() >= 2);
        for &(_, k) in &subs {
            *b.entry_or(KeyGroup(2), k, || StateValue::Count(0)) = StateValue::Count(1);
        }
        let (s0, k0) = subs[0];
        let unit = b.extract(KeyGroup(2), s0).expect("present");
        assert!(unit.state.entries.keys().any(|k| k == k0));
        assert!(!b.holds(KeyGroup(2), s0));
        assert!(!b.holds_group(KeyGroup(2)));
        // The other sub-group is still present.
        assert!(b.holds(KeyGroup(2), subs[1].0));
    }

    #[test]
    fn bytes_never_negative() {
        let mut b = backend();
        b.add_bytes(KeyGroup(3), 1, 100);
        b.add_bytes(KeyGroup(3), 1, -500);
        assert_eq!(b.total_bytes(), 0);
    }
}
