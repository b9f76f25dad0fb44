//! [`KeyMap`]: a dense open-addressing table keyed by `u64`.
//!
//! The keyed state backend holds one table per sub-group, and a large
//! keyed operator holds hundreds of keys in each. A general hash map sizes
//! itself in powers of two, so after a doubling a table sits under half
//! load: `rescale_churn`'s ~484 keys per table took 1,024 buckets of 33
//! bytes. `KeyMap` keeps what that use needs and nothing else:
//!
//! * **Inline slots.** A slot is an `Option<(u64, V)>`. Where `V` has a
//!   niche (the state backend's `StateValue` hides one in its `Vec`'s
//!   capacity) the empty slot costs no tag, so a slot is a plain
//!   `(key, value)` pair, 32 bytes for `StateValue`.
//! * **Groups of eight slots behind eight tag bytes.** A tag is 7 bits of
//!   a full slot's hash, or a mark for an empty slot. A probe reads a
//!   group's tags as one `u64`, finds the matching and the empty bytes with
//!   a few word operations and compares a key only where its tag matches,
//!   so a lookup rarely takes a branch it cannot predict. One tag byte per
//!   slot makes a slot cost 33 bytes, all in one allocation.
//! * **Any capacity.** The home group is the high half of the 128-bit
//!   product of the key's Fx hash and the number of groups (multiply-shift
//!   range reduction, Lemire, "Fast Random Integer Generation in an
//!   Interval", ACM TOMACS 2019), so that number need not be a power of
//!   two. A key lives in the first group from its home on (wrapping at the
//!   end) that had an empty slot when it arrived.
//! * **Two growth regimes, chosen by size.** A table grows when 7/8 of its
//!   slots are full. Below [`DENSE_FROM`] slots it doubles, as a general
//!   hash map does, so a table of a few dozen keys costs what it did there.
//!   From [`DENSE_FROM`] slots on it grows by a quarter, so a large table
//!   stays between 70 % and 87.5 % load.
//! * **No removal.** A key leaves only with its whole table (the state
//!   backend moves a sub-group as a unit), so there are no tombstones, and
//!   a probe ends at the first group with an empty slot.
//!
//! Iteration is in slot order, which depends only on the insertion
//! sequence: deterministic, but not sorted. Callers that need an order
//! sort the keys.

use crate::hash::SEED64;

/// Number of slots from which a full table grows by a quarter instead of
/// doubling.
pub const DENSE_FROM: usize = 256;

/// Slots per group: one `u64` of tags.
const GROUP: usize = 8;

/// The tag of an empty slot. A full slot's tag is 7 bits of its key's
/// hash, so its top bit is clear.
const EMPTY: u8 = 0x80;

/// `0x01` and `0x80` in every byte of a group's tag word.
const LO: u64 = u64::from_le_bytes([0x01; GROUP]);
const HI: u64 = u64::from_le_bytes([0x80; GROUP]);

/// An open-addressing `u64 → V` table with inline slots, a tag byte per
/// slot and no removal (see the module docs).
#[derive(Clone)]
pub struct KeyMap<V> {
    groups: Box<[Group<V>]>,
    len: usize,
}

/// Eight slots and their tags.
#[derive(Clone)]
struct Group<V> {
    tags: [u8; GROUP],
    slots: [Option<(u64, V)>; GROUP],
}

impl<V> Group<V> {
    fn empty() -> Self {
        Self {
            tags: [EMPTY; GROUP],
            slots: std::array::from_fn(|_| None),
        }
    }
}

/// Where a probe for a key ended: a group and a slot in it.
enum Probe {
    /// The key's slot.
    Found(usize, usize),
    /// The first empty slot on the key's probe path (`(0, 0)` in an empty
    /// table, which has no slot).
    Vacant(usize, usize),
}

/// `key`'s Fx hash: what `FxHasher` computes for one `u64` word.
#[inline]
fn hash(key: u64) -> u64 {
    key.wrapping_mul(SEED64)
}

/// The home of hash `h` among `groups` groups: the high half of
/// `h * groups`. The top bits of `h` choose it, so the tag takes lower
/// ones.
#[inline]
fn home(h: u64, groups: usize) -> usize {
    ((h as u128 * groups as u128) >> 64) as usize
}

/// The tag of hash `h`: 7 bits below those that choose the home.
#[inline]
fn tag_of(h: u64) -> u8 {
    (h >> 32) as u8 & 0x7f
}

/// The most keys a table of `groups` groups holds before it grows: 7/8
/// of its slots.
#[inline]
fn max_len(groups: usize) -> usize {
    groups * (GROUP - 1)
}

/// The number of groups a table of `groups` groups grows to.
fn grown(groups: usize) -> usize {
    match groups {
        0 => 1,
        g if g * GROUP < DENSE_FROM => 2 * g,
        g => g + g / 4,
    }
}

impl<V> Default for KeyMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> KeyMap<V> {
    /// An empty table; it allocates on its first insert.
    pub fn new() -> Self {
        Self {
            groups: Box::default(),
            len: 0,
        }
    }

    /// Number of keys.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table holds no key.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of slots allocated.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.groups.len() * GROUP
    }

    /// Find `key`: scan its probe path a group at a time. Bytes whose tag
    /// matches are candidates (the word trick also flags a few bytes above
    /// a match, which the key comparison rejects); the first group with an
    /// empty slot ends the path, because no key is ever removed. A table
    /// never fills, so the loop ends.
    #[inline(always)]
    fn probe(&self, key: u64) -> Probe {
        let n = self.groups.len();
        if n == 0 {
            return Probe::Vacant(0, 0);
        }
        let h = hash(key);
        let wanted = LO * tag_of(h) as u64;
        let mut g = home(h, n);
        loop {
            let group = &self.groups[g];
            let tags = u64::from_le_bytes(group.tags);
            let x = tags ^ wanted;
            let mut hits = x.wrapping_sub(LO) & !x & HI;
            while hits != 0 {
                let j = hits.trailing_zeros() as usize / 8;
                if matches!(&group.slots[j], Some((k, _)) if *k == key) {
                    return Probe::Found(g, j);
                }
                hits &= hits - 1;
            }
            let empty = tags & HI;
            if empty != 0 {
                return Probe::Vacant(g, empty.trailing_zeros() as usize / 8);
            }
            g += 1;
            if g == n {
                g = 0;
            }
        }
    }

    /// The first empty slot on the probe path of hash `h` (its key is
    /// absent), as a group and a slot in it.
    fn vacant(&self, h: u64) -> (usize, usize) {
        let n = self.groups.len();
        let mut g = home(h, n);
        loop {
            let empty = u64::from_le_bytes(self.groups[g].tags) & HI;
            if empty != 0 {
                return (g, empty.trailing_zeros() as usize / 8);
            }
            g += 1;
            if g == n {
                g = 0;
            }
        }
    }

    /// The value of `key` mutably, if present.
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        match self.probe(key) {
            Probe::Found(g, j) => self.groups[g].slots[j].as_mut().map(|(_, v)| v),
            Probe::Vacant(..) => None,
        }
    }

    /// The value of `key`, inserted from `default` if absent.
    #[inline]
    pub fn get_or_insert_with(&mut self, key: u64, default: impl FnOnce() -> V) -> &mut V {
        let (g, j) = match self.probe(key) {
            Probe::Found(g, j) => (g, j),
            Probe::Vacant(g, j) => self.fill((g, j), key, default()),
        };
        match &mut self.groups[g].slots[j] {
            Some((_, v)) => v,
            None => unreachable!("slot {j} of group {g} was just found or filled"),
        }
    }

    /// Insert `value` under `key`; returns the value it replaced.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        match self.probe(key) {
            Probe::Found(g, j) => self.groups[g].slots[j]
                .as_mut()
                .map(|(_, v)| std::mem::replace(v, value)),
            Probe::Vacant(g, j) => {
                self.fill((g, j), key, value);
                None
            }
        }
    }

    /// Put a new key into the vacant slot `at` its probe ended at, growing
    /// first if the table is full; returns the key's slot.
    #[inline]
    fn fill(&mut self, mut at: (usize, usize), key: u64, value: V) -> (usize, usize) {
        if self.len >= max_len(self.groups.len()) {
            self.grow();
            at = self.vacant(hash(key));
        }
        self.put(at, key, value);
        self.len += 1;
        debug_assert!(
            self.len <= max_len(self.groups.len()),
            "over the load bound"
        );
        at
    }

    /// Write `(key, value)` and its tag into the empty slot `(g, j)`.
    #[inline]
    fn put(&mut self, (g, j): (usize, usize), key: u64, value: V) {
        let group = &mut self.groups[g];
        group.tags[j] = tag_of(hash(key));
        group.slots[j] = Some((key, value));
    }

    /// Move every key into a table of the next size.
    #[cold]
    #[inline(never)]
    fn grow(&mut self) {
        let n = grown(self.groups.len());
        let new = (0..n).map(|_| Group::empty()).collect();
        let old = std::mem::replace(&mut self.groups, new);
        for (k, v) in old.into_vec().into_iter().flat_map(|g| g.slots).flatten() {
            let at = self.vacant(hash(k));
            self.put(at, k, v);
        }
        self.debug_check();
    }

    /// The invariants only debug builds check: every full slot carries its
    /// key's tag and every empty one `EMPTY`, the full slots number
    /// `len`, and `len` is within the load bound.
    fn debug_check(&self) {
        if cfg!(debug_assertions) {
            for (g, group) in self.groups.iter().enumerate() {
                for (j, s) in group.slots.iter().enumerate() {
                    let tag = s.as_ref().map_or(EMPTY, |(k, _)| tag_of(hash(*k)));
                    assert_eq!(group.tags[j], tag, "tag of slot {j} of group {g}");
                }
            }
            assert_eq!(self.iter().count(), self.len, "full slots");
            let n = self.groups.len();
            assert!(self.len <= max_len(n), "{} keys in {n} groups", self.len);
        }
    }

    /// Every `(key, value)`, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> + '_ {
        self.groups
            .iter()
            .flat_map(|g| g.slots.iter().flatten())
            .map(|(k, v)| (*k, v))
    }

    /// Every key, in slot order.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.iter().map(|(k, _)| k)
    }
}

/// The slots of one group, taken out of it.
type GroupSlots<V> = [Option<(u64, V)>; GROUP];

/// Every slot of a table, group by group.
type AllSlots<V> =
    std::iter::FlatMap<std::vec::IntoIter<Group<V>>, GroupSlots<V>, fn(Group<V>) -> GroupSlots<V>>;

/// A [`KeyMap`]'s `(key, value)` pairs by value, in slot order.
pub struct IntoIter<V>(std::iter::Flatten<AllSlots<V>>);

impl<V> Iterator for IntoIter<V> {
    type Item = (u64, V);

    #[inline]
    fn next(&mut self) -> Option<(u64, V)> {
        self.0.next()
    }
}

impl<V> IntoIterator for KeyMap<V> {
    type Item = (u64, V);
    type IntoIter = IntoIter<V>;

    fn into_iter(self) -> IntoIter<V> {
        let slots: fn(Group<V>) -> GroupSlots<V> = |g| g.slots;
        IntoIter(self.groups.into_vec().into_iter().flat_map(slots).flatten())
    }
}

impl<V: std::fmt::Debug> std::fmt::Debug for KeyMap<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The inverse of `SEED64` modulo 2^64 (Newton's iteration; `SEED64` is
    /// odd): `key(p) = p * INV` has Fx product `p`.
    fn seed_inverse() -> u64 {
        let mut inv = SEED64;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(SEED64.wrapping_mul(inv)));
        }
        assert_eq!(SEED64.wrapping_mul(inv), 1);
        inv
    }

    /// Keys whose Fx products are `0..n` (key 0 among them) share home
    /// group 0, and keys whose products are `u64::MAX - i` share the last
    /// group, so they overflow it and wrap to the front: at every number of
    /// groups below 2^40 or so. Each set shares one tag too. The
    /// differential test (`tests/keymap.rs`) builds the same keys.
    fn forced_keys(n: u64) -> (Vec<u64>, Vec<u64>) {
        let inv = seed_inverse();
        let first = (0..n).map(|p| p.wrapping_mul(inv)).collect();
        let last = (0..n).map(|i| (u64::MAX - i).wrapping_mul(inv)).collect();
        (first, last)
    }

    #[test]
    fn a_state_sized_slot_is_a_bare_pair() {
        // `Vec`'s capacity niche holds the empty slot: no tag inside the
        // slot, no padding; a group is its 8 tag bytes and 8 bare pairs.
        assert_eq!(std::mem::size_of::<Option<(u64, Vec<u8>)>>(), 32);
        assert_eq!(std::mem::size_of::<Group<Vec<u8>>>(), 8 + 8 * 32);
        assert_eq!(std::mem::size_of::<KeyMap<Vec<u8>>>(), 24);
    }

    #[test]
    fn forced_keys_share_a_home_slot() {
        let (first, last) = forced_keys(64);
        for groups in [1, 2, 16, 32, 77, 1 << 20] {
            assert!(first.iter().all(|&k| home(hash(k), groups) == 0));
            assert!(last.iter().all(|&k| home(hash(k), groups) == groups - 1));
        }
        assert!(first.contains(&0));
        let tags = |keys: &[u64]| keys.iter().map(|&k| tag_of(hash(k))).collect::<Vec<_>>();
        assert!(tags(&first).iter().all(|&t| t == 0));
        assert!(tags(&last).iter().all(|&t| t == 0x7f));
    }

    #[test]
    fn capacities_follow_both_regimes() {
        let mut m = KeyMap::new();
        assert_eq!(m.capacity(), 0, "an empty table allocates nothing");
        let mut caps = Vec::new();
        for k in 0..1_000u64 {
            m.insert(k, ());
            if caps.last() != Some(&m.capacity()) {
                caps.push(m.capacity());
            }
        }
        assert_eq!(
            caps,
            [8, 16, 32, 64, 128, 256, 320, 400, 496, 616, 768, 960, 1200]
        );
        // Right after a dense growth the load is just over 70 %.
        for g in [32, 40, 50, 62, 77, 96, 120, 150, 1 << 20] {
            assert!((max_len(g) + 1) * 10 >= grown(g) * GROUP * 7, "{g} groups");
        }
    }
}
