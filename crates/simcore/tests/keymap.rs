//! `KeyMap` against `std::collections::HashMap`: random sequences of
//! insert-or-update, insert, lookups and updates through `get_mut`,
//! iteration (compared as sorted multisets) and clone, then `into_iter`, in
//! both growth regimes. A failure names its seed, and `replay(seed)` reruns
//! it.

use std::collections::HashMap;
use std::hash::BuildHasher;

use proptest::prelude::*;
use simcore::keymap::DENSE_FROM;
use simcore::{DetRng, FxBuildHasher, KeyMap};

/// Keys whose Fx hashes are `0..n` (key 0 among them) share the first home
/// group of every table, and keys whose hashes are `u64::MAX - i` share the
/// last one, so they overflow it and wrap to the front. The Fx hash of a
/// `u64` key is `key * M` for an odd `M`, the hash of 1; `p * M^-1` (mod
/// 2^64) hashes to `p`.
fn forced_keys(n: u64) -> (Vec<u64>, Vec<u64>) {
    let m = FxBuildHasher::default().hash_one(1u64);
    let mut inv = m;
    for _ in 0..6 {
        // Newton's iteration doubles the correct low bits each step.
        inv = inv.wrapping_mul(2u64.wrapping_sub(m.wrapping_mul(inv)));
    }
    assert_eq!(m.wrapping_mul(inv), 1);
    let first = (0..n).map(|p| p.wrapping_mul(inv)).collect();
    let last = (0..n).map(|i| (u64::MAX - i).wrapping_mul(inv)).collect();
    (first, last)
}

/// One differential run. Even seeds draw from 80 keys (the doubling
/// regime), odd seeds from 1,550 (the dense one); every pool
/// holds 0, `u64::MAX` and 24 keys forced onto each of the first and the
/// last home group. After every operation the load is checked: at most 7/8,
/// and at least 70 % above [`DENSE_FROM`] slots.
fn replay(seed: u64) -> Result<(), String> {
    let _case = OnPanic(seed);
    let mut rng = DetRng::seed(seed);
    let (first, last) = forced_keys(24);
    let mut pool = vec![0, u64::MAX];
    pool.extend(first);
    pool.extend(last);
    let extra = if seed & 1 == 0 { 30 } else { 1_500 };
    pool.extend((0..extra).map(|i| match i % 3 {
        0 => i,
        _ => rng.next_u64(),
    }));
    let ops = 200 + rng.below(4 * pool.len() as u64) as usize;
    let mut m: KeyMap<Vec<u32>> = KeyMap::new();
    let mut model: HashMap<u64, Vec<u32>> = HashMap::new();
    let sorted = |it: &mut dyn Iterator<Item = (u64, Vec<u32>)>| {
        let mut v: Vec<_> = it.collect();
        v.sort();
        v
    };
    for op in 0..ops {
        let key = pool[rng.below(pool.len() as u64) as usize];
        let x = rng.below(1_000) as u32;
        let ctx = || format!("seed {seed}, op {op}, key {key:#x}");
        match rng.below(64) {
            0..=31 => {
                m.get_or_insert_with(key, Vec::new).push(x);
                model.entry(key).or_default().push(x);
            }
            32..=41 => {
                let old = m.insert(key, vec![x]);
                if old != model.insert(key, vec![x]) {
                    return Err(format!("{}: insert returned {old:?}", ctx()));
                }
            }
            42..=51 => {
                let got = m.get_mut(key).cloned();
                if got.as_ref() != model.get(&key) {
                    return Err(format!("{}: get_mut {got:?}", ctx()));
                }
            }
            52..=61 => {
                if let Some(v) = m.get_mut(key) {
                    v.push(x);
                }
                if let Some(v) = model.get_mut(&key) {
                    v.push(x);
                }
            }
            62 => {
                let got = sorted(&mut m.iter().map(|(k, v)| (k, v.clone())));
                let want = sorted(&mut model.iter().map(|(&k, v)| (k, v.clone())));
                if got != want {
                    return Err(format!("{}: iteration differs", ctx()));
                }
                if !m.keys().eq(m.iter().map(|(k, _)| k)) {
                    return Err(format!("{}: keys differ from iter", ctx()));
                }
            }
            _ => {
                let c = m.clone();
                if c.capacity() != m.capacity() || !c.iter().eq(m.iter()) {
                    return Err(format!("{}: clone differs", ctx()));
                }
                // Carry on with the clone; the original is dropped.
                m = c;
            }
        }
        let (len, cap) = (m.len(), m.capacity());
        if len != model.len() {
            return Err(format!("{}: len {len}, model {}", ctx(), model.len()));
        }
        let load_ok = 8 * len <= 7 * cap && (cap <= DENSE_FROM || 10 * len >= 7 * cap);
        if !load_ok {
            return Err(format!("{}: {len} keys in {cap} slots", ctx()));
        }
    }
    let got = sorted(&mut m.into_iter());
    let want = sorted(&mut model.into_iter());
    if got != want {
        return Err(format!("seed {seed}: into_iter differs"));
    }
    Ok(())
}

/// Names the seed of a case that panics (a debug invariant included).
struct OnPanic(u64);

impl Drop for OnPanic {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("failing case: replay({})", self.0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn keymap_matches_std_hashmap(seed in any::<u64>()) {
        let run = replay(seed);
        prop_assert!(run.is_ok(), "{}", run.unwrap_err());
    }
}
