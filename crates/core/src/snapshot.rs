//! **Epoch-published snapshots**: the cell behind the pool's snapshot
//! reads, one short `RwLock` read that never waits behind a repair.
//!
//! A [`Published<T>`] is a single-writer, multi-reader cell holding
//! an `(epoch, Arc<T>)` pair behind one `RwLock`. A reader read-locks
//! it and clones the pair; the writer (a pool worker, after a repair)
//! write-locks it and replaces the pair. Either lock is held across a
//! pointer-sized copy and a refcount bump, never computation: the
//! repair that *produced* the value happens entirely before, and a
//! reader that already *holds* an `Arc` holds no lock and delays
//! nobody. A reader can wait only for a publication's replace.
//!
//! A publish lets go of the previous generation, so whoever handed it
//! over gets its buffer back as soon as the last reader drops it (the
//! pool's [`StableGc`](crate::gc::StableGc) rotation advances that
//! buffer into the next publication instead of copying a state).
//!
//! Epochs are chosen by the writer and must be strictly increasing;
//! readers use them for monotonic-read checks (a reader that saw
//! epoch `e` never again observes `e' < e`).

use std::sync::{Arc, RwLock};

/// What the cell holds: `(epoch, value)`.
type Pair<T> = (u64, Arc<T>);

/// A single-writer multi-reader epoch-published value. See the
/// [module docs](self).
pub struct Published<T> {
    pair: RwLock<Option<Pair<T>>>,
}

impl<T> Default for Published<T> {
    fn default() -> Self {
        Published::new()
    }
}

impl<T> Published<T> {
    /// An empty cell (readers get `None` until the first publish).
    pub fn new() -> Self {
        Published {
            pair: RwLock::new(None),
        }
    }

    /// Snapshot read: the latest published `(epoch, value)`, or `None`
    /// before the first publish. One short `RwLock` read, never behind
    /// a repair; it may wait for a publication's replace.
    pub fn load(&self) -> Option<Pair<T>> {
        self.pair
            .read()
            .expect("snapshot cell never poisoned")
            .clone()
    }

    /// The latest epoch, or 0 before the first publish.
    pub fn epoch(&self) -> u64 {
        self.load().map_or(0, |(e, _)| e)
    }

    /// Install a new snapshot. **Single-writer**: concurrent publishes
    /// on one cell are a protocol violation (the pool guarantees it —
    /// each key's cell is written only by the worker owning its
    /// shard). `epoch` must exceed every previously published epoch.
    /// When this returns the cell no longer holds the previous value.
    pub fn publish(&self, epoch: u64, value: Arc<T>) {
        // The evicted value is dropped after the lock is released.
        let evicted = self
            .pair
            .write()
            .expect("snapshot cell never poisoned")
            .replace((epoch, value));
        drop(evicted);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_then_publish_then_load() {
        let cell: Published<u32> = Published::new();
        assert!(cell.load().is_none());
        cell.publish(1, Arc::new(7));
        assert_eq!(cell.load().map(|(e, v)| (e, *v)), Some((1, 7)));
        cell.publish(2, Arc::new(8));
        assert_eq!(cell.load().map(|(e, v)| (e, *v)), Some((2, 8)));
        assert_eq!(cell.epoch(), 2);
    }

    #[test]
    fn a_held_value_outlives_its_slot_and_never_delays_the_writer() {
        let cell: Published<u32> = Published::new();
        cell.publish(1, Arc::new(7));
        let (epoch, held) = cell.load().expect("published");
        assert_eq!(Arc::strong_count(&held), 2, "the cell and the reader");
        // One more publish replaces the pair `held` was cloned from. On
        // this one thread a lock kept by the reader would hang it.
        cell.publish(2, Arc::new(8));
        assert_eq!((epoch, *held), (1, 7));
        assert_eq!(Arc::strong_count(&held), 1, "the cell let go of it");
        assert_eq!(cell.load().map(|(e, v)| (e, *v)), Some((2, 8)));
    }

    #[test]
    fn readers_observe_monotone_epochs_under_publish_storm() {
        let cell: Arc<Published<u64>> = Arc::new(Published::new());
        cell.publish(1, Arc::new(1));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let cell = Arc::clone(&cell);
                std::thread::spawn(move || {
                    let mut last = 0;
                    for _ in 0..20_000 {
                        let (e, v) = cell.load().expect("published");
                        assert_eq!(e, *v, "epoch/value pair torn");
                        assert!(e >= last, "epoch went backwards: {last} -> {e}");
                        last = e;
                    }
                })
            })
            .collect();
        for e in 2..=5_000u64 {
            cell.publish(e, Arc::new(e));
        }
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(cell.epoch(), 5_000);
    }
}
