//! The key → slot-number index of a shard's arena
//! ([`Shard`](crate::store)): an open-addressing table of `u32`s.
//!
//! Each entry is a slot number (the high 24 bits) beside 8 bits of its
//! key's hash (the tag), so a probe reads a slot only where the tags
//! match, and compares the key on the slot: the table keeps no keys,
//! the arena does, and the table asks it for them (`key_of`). Keys are
//! never removed, so the table needs no tombstones, a probe stops at
//! the first empty entry, and the table always lists exactly the slots
//! `0..n` of an arena of `n`. An entry is 4 bytes, and the table is at
//! most three quarters full: a shard of 512 keys holds 1024 entries,
//! 4 KiB.

use crate::store::Key;

/// An entry listing no slot.
const EMPTY: u32 = u32::MAX;

/// The table's length once it holds a key.
const MIN_LEN: usize = 8;

/// The key's hash: the 64-bit finalizer of MurmurHash3, so that every
/// bit depends on every bit of the key. The shards split the keys by
/// their `FxHasher` hash modulo the shard count, so the keys of one
/// shard share that hash's low bits.
fn hash(key: Key) -> u64 {
    let mut h = key;
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// The tag of a hash: its top 8 bits.
fn tag(h: u64) -> u32 {
    (h >> 56) as u32
}

/// Key → slot number; see the [module docs](self).
#[derive(Clone, Debug, Default)]
pub(crate) struct SlotIndex {
    /// A power of two long, or empty.
    table: Vec<u32>,
}

impl SlotIndex {
    /// The slot listed for `key`, if any; `key_of(at)` is slot `at`'s
    /// key.
    pub(crate) fn get(&self, key: Key, key_of: impl Fn(u32) -> Key) -> Option<u32> {
        let mask = self.table.len().checked_sub(1)?;
        let h = hash(key);
        let mut i = h as usize & mask;
        loop {
            let entry = self.table[i];
            if entry == EMPTY {
                return None;
            }
            if entry & 0xff == tag(h) && key_of(entry >> 8) == key {
                return Some(entry >> 8);
            }
            i = (i + 1) & mask;
        }
    }

    /// List slot `at`, the arena's newest, whose key no slot has yet;
    /// `key_of` is as for [`SlotIndex::get`]. The table doubles, and
    /// lists the older slots again, when `at` would fill it past three
    /// quarters.
    ///
    /// # Panics
    ///
    /// When `at` does not fit beside a tag (2^24 − 1 slots and up).
    pub(crate) fn push(&mut self, at: u32, key_of: impl Fn(u32) -> Key) {
        assert!(at < EMPTY >> 8, "a shard numbers its slots in 24 bits");
        if (at as usize + 1) * 4 > self.table.len() * 3 {
            self.table = vec![EMPTY; (self.table.len() * 2).max(MIN_LEN)];
            for old in 0..at {
                self.place(old, key_of(old));
            }
        }
        self.place(at, key_of(at));
    }

    fn place(&mut self, at: u32, key: Key) {
        let mask = self.table.len() - 1;
        let h = hash(key);
        let mut i = h as usize & mask;
        while self.table[i] != EMPTY {
            i = (i + 1) & mask;
        }
        self.table[i] = at << 8 | tag(h);
    }

    /// Bytes the table takes: every entry, listed or empty.
    pub(crate) fn bytes(&self) -> usize {
        self.table.len() * std::mem::size_of::<u32>()
    }

    /// Slots listed.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.table.iter().filter(|&&entry| entry != EMPTY).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// A table over an arena of keys, beside the `HashMap` it must
    /// agree with.
    #[derive(Default)]
    struct Both {
        arena: Vec<Key>,
        index: SlotIndex,
        map: HashMap<Key, u32>,
    }

    impl Both {
        fn get(&self, key: Key) -> Option<u32> {
            self.index.get(key, |at| self.arena[at as usize])
        }

        fn push(&mut self, key: Key) {
            assert_eq!(self.get(key), None, "key {key} listed before its push");
            let at = self.arena.len() as u32;
            self.arena.push(key);
            let arena = &self.arena;
            self.index.push(at, |at| arena[at as usize]);
            self.map.insert(key, at);
        }

        /// Every listed key finds its slot, and each of `absent` none.
        fn agree(&self, absent: impl IntoIterator<Item = Key>) {
            assert_eq!(self.index.len(), self.map.len());
            assert!(self.index.len() * 4 <= self.index.table.len() * 3);
            for (&key, &at) in &self.map {
                assert_eq!(self.get(key), Some(at), "key {key}");
            }
            for key in absent {
                assert_eq!(self.get(key), self.map.get(&key).copied(), "key {key}");
            }
        }
    }

    /// The first `n` keys at or above `from` whose hashes agree with
    /// `hash(from)` under `mask`.
    fn colliding(from: Key, mask: u64, n: usize) -> Vec<Key> {
        let want = hash(from) & mask;
        (from..)
            .filter(|&k| hash(k) & mask == want)
            .take(n)
            .collect()
    }

    #[test]
    fn an_empty_table_lists_nothing_and_holds_nothing() {
        let index = SlotIndex::default();
        assert_eq!(index.get(7, |_| unreachable!("no slot to read")), None);
        assert_eq!(index.bytes(), 0);
    }

    #[test]
    fn keys_sharing_their_low_hash_bits_and_tag_probe_past_each_other() {
        // Same start position at every length up to 256, same tag: every
        // lookup walks the run and reads each slot it passes.
        let keys = colliding(1, 0xff00_0000_0000_00ff, 40);
        let mut both = Both::default();
        for (n, &key) in keys.iter().enumerate() {
            both.push(key);
            both.agree(keys[n + 1..].iter().copied());
        }
        assert_eq!(both.index.table.len(), 64);
    }

    #[test]
    fn a_shards_keys_share_low_fx_bits_and_spread_over_the_table() {
        // The keys one of 8 shards receives, as `shard_index` routes
        // them: their `FxHasher` hashes share three low bits.
        let shard = crate::store::shard_index(0, 8);
        let keys: Vec<Key> = (0..40_000)
            .filter(|&k| crate::store::shard_index(k, 8) == shard)
            .collect();
        let mut both = Both::default();
        for &key in &keys[..keys.len() / 2] {
            both.push(key);
        }
        both.agree(keys[keys.len() / 2..].iter().copied());
    }

    #[test]
    fn growth_through_several_doublings_agrees_at_every_step() {
        // Low 8 bits shared by half the keys, the rest spread: runs of
        // collisions move whole when the table doubles.
        let mut keys = colliding(1 << 40, 0xff, 600);
        keys.extend((0..600u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
        keys.sort_unstable();
        keys.dedup();
        let mut both = Both::default();
        let mut lengths = vec![];
        for (n, &key) in keys.iter().enumerate() {
            both.push(key);
            if lengths.last() != Some(&both.index.table.len()) {
                lengths.push(both.index.table.len());
                both.agree(keys[n + 1..].iter().copied().chain([u64::MAX, 0]));
            }
        }
        both.agree((0..64).map(|k| k * 1_000_003));
        assert_eq!(lengths, [8, 16, 32, 64, 128, 256, 512, 1024, 2048]);
    }
}
