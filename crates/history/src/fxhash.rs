//! A minimal FxHash-style hasher.
//!
//! The consistency checkers memoize millions of `(down-set, state)`
//! keys; `std`'s SipHash is measurably slower on these small integer
//! keys. This is the classic Firefox/rustc "Fx" multiply-rotate mix in
//! ~40 lines, avoiding an extra dependency.

use std::hash::{BuildHasherDefault, Hasher};

/// 64-bit Fx mixing constant (golden-ratio derived).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The FxHash hasher state.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.add_to_hash(n as u64);
        self.add_to_hash((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(t: &T) -> u64 {
        FxBuildHasher::default().hash_one(t)
    }

    #[test]
    fn deterministic() {
        assert_eq!(hash_of(&12345u64), hash_of(&12345u64));
        assert_eq!(hash_of(&"abc"), hash_of(&"abc"));
    }

    #[test]
    fn distinguishes_nearby_keys() {
        assert_ne!(hash_of(&1u64), hash_of(&2u64));
        assert_ne!(hash_of(&(1u32, 2u32)), hash_of(&(2u32, 1u32)));
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<u128, usize> = FxHashMap::default();
        for i in 0..1000u128 {
            m.insert(i << 3, i as usize);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&(999u128 << 3)], 999);
    }
}
