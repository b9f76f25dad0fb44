//! A fast, deterministic hasher for hot-path hash maps.
//!
//! `std::collections::HashMap` defaults to SipHash-1-3 with per-process
//! random keys: robust against HashDoS, but (a) several times slower than
//! needed for trusted `u64` keys, and (b) randomized, which makes map
//! iteration order differ between runs — poison for a simulator whose whole
//! value is bit-reproducibility.
//!
//! [`FxHasher`] is the FxHash function used by rustc: one multiply, one
//! rotate and one xor per 8-byte word. Keys here are simulator-internal
//! (`u64` record keys, channel ids), never attacker-controlled, so DoS
//! resistance is not required.
//!
//! The build hasher is a unit struct, so two identically-populated maps
//! hash — and iterate — identically across runs.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

const ROTATE: u32 = 5;
pub(crate) const SEED64: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The rustc FxHash function: fast multiplicative hashing for trusted keys.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED64);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Deterministic build hasher (unit struct — no per-process randomness).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn stable_across_instances() {
        for k in [0u64, 1, 42, u64::MAX] {
            assert_eq!(hash_of(&k), hash_of(&k));
        }
        assert_ne!(hash_of(&1u64), hash_of(&2u64));
    }

    #[test]
    fn byte_and_word_paths_cover_all_lengths() {
        for len in 0..=17 {
            let bytes: Vec<u8> = (0..len as u8).collect();
            let a = hash_of(&bytes);
            let b = hash_of(&bytes);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for k in 0..1_000u64 {
            m.insert(k, k * 2);
        }
        assert_eq!(m.len(), 1_000);
        for k in 0..1_000u64 {
            assert_eq!(m[&k], k * 2);
        }
    }

    #[test]
    fn spreads_sequential_keys() {
        // Sequential keys must not collide in the low bits (the map uses
        // the hash's low bits for bucketing).
        let mut low: FxHashSet<u64> = FxHashSet::default();
        for k in 0..256u64 {
            low.insert(hash_of(&k) & 0xFF);
        }
        assert!(low.len() > 128, "only {} distinct low bytes", low.len());
    }
}
