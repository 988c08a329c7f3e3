//! Inputs, made from the `--seed` just before the epoch that uses them
//! and dropped after it. The program under test receives only these.

use crate::cluster::Upd;
use uc_core::store::Key;
use uc_sim::{SplitMix64, Zipf};
use uc_spec::SetUpdate;

/// Zipf exponent of the key popularity.
const KEY_ALPHA: f64 = 0.99;
/// Elements of each set object.
const DOMAIN: u64 = 64;
/// Share of inserts among updates.
const INSERT_RATIO: f64 = 0.7;
/// Elements a preloaded set holds: `INSERT_RATIO` of the domain.
const PRELOAD_PER_KEY: usize = 45;

pub struct Inputs {
    rng: SplitMix64,
    zipf: Zipf,
    keys: u64,
}

impl Inputs {
    pub fn new(seed: u64, keys: usize) -> Self {
        Inputs {
            rng: SplitMix64::new(seed),
            zipf: Zipf::new(keys, KEY_ALPHA),
            keys: keys as u64,
        }
    }

    pub fn key(&mut self) -> Key {
        self.zipf.sample(&mut self.rng) as Key
    }

    fn update_of(&mut self, key: Key) -> (Key, Upd) {
        let elem = self.rng.next_below(DOMAIN) as u32;
        let u = if self.rng.next_f64() < INSERT_RATIO {
            SetUpdate::Insert(elem)
        } else {
            SetUpdate::Delete(elem)
        };
        (key, u)
    }

    pub fn update(&mut self) -> (Key, Upd) {
        let key = self.key();
        self.update_of(key)
    }

    pub fn updates(&mut self, n: usize) -> Vec<(Key, Upd)> {
        (0..n).map(|_| self.update()).collect()
    }

    pub fn keys(&mut self, n: usize) -> Vec<Key> {
        (0..n).map(|_| self.key()).collect()
    }

    /// The preload: every key is filled with a random
    /// `PRELOAD_PER_KEY`-subset of the domain, which is what a set
    /// holds once the 70/30 stream has run on it for long. Epochs then
    /// do the same work from the first one on (reads of a set cost by
    /// its size), every replica holds the same key set from the start,
    /// and `peak_rss_mb` does not depend on which keys a seed draws.
    pub fn preload(&mut self) -> Vec<(Key, Upd)> {
        let mut domain: Vec<u32> = (0..DOMAIN as u32).collect();
        let mut out = Vec::with_capacity(self.keys as usize * PRELOAD_PER_KEY);
        for key in 0..self.keys {
            self.rng.shuffle(&mut domain);
            out.extend(
                domain[..PRELOAD_PER_KEY]
                    .iter()
                    .map(|e| (key, SetUpdate::Insert(*e))),
            );
        }
        out
    }

    /// A seed for a helper that draws its own stream.
    pub fn split_seed(&mut self) -> u64 {
        self.rng.next_u64()
    }
}
