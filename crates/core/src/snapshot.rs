//! **Epoch-published snapshots**: the RCU-style cell behind the
//! pool's snapshot reads, two short `RwLock` reads that never wait
//! behind a repair.
//!
//! A [`Published<T>`] is a single-writer, multi-reader cell holding
//! an `(epoch, Arc<T>)` pair. The writer (a pool worker, after a
//! repair) installs a new snapshot without ever blocking readers of
//! the current one, and readers take a consistent snapshot without
//! ever waiting behind the writer's repair work:
//!
//! ```text
//!          current ──┐ (atomic slot index)
//!                    ▼
//!        slot 0        slot 1
//!      [epoch 42]    [epoch 42]      after a publish returns
//!      [epoch 42]    [epoch 43]      during publish(43): written first…
//!         ▲             ▲ readers    …then `current` moves…
//!      [epoch 43]    [epoch 43]      …then the slot it left catches up
//! ```
//!
//! * **Reader**: load `current`, shared-acquire that slot, re-check
//!   `current` (retry if a publish moved it — bounded, with a
//!   consistent newest-or-equal escape hatch), clone the `Arc`. The
//!   shared acquisition is one atomic increment; readers of the
//!   current slot run fully in parallel and are *never* blocked by a
//!   publish, because a publish only ever writes a non-current slot.
//! * **Writer**: exclusive-acquire the non-current slot, install the
//!   pair, move `current` onto it, then install the same pair in
//!   the slot `current` just left. Either acquire waits only for a
//!   straggler still cloning an `Arc` out of that slot — nanoseconds;
//!   a reader that already *holds* an `Arc` holds no lock and delays
//!   nobody. The repair that *produced* the value happens entirely
//!   before, outside any lock.
//!
//! **Two slots, one generation.** The second slot is not a place to
//! keep the previous generation: it is where the next one is written
//! while readers are still on the first. Once `current` has moved, the
//! slot it left is overwritten with the new pair too, so when
//! `publish` returns the ring holds the newest generation twice and
//! the previous one not at all — whoever handed it over gets its
//! buffer back as soon as the last reader drops it (the pool's
//! [`StableGc`](crate::gc::StableGc) rotation advances that buffer
//! into the next publication instead of copying a state). The
//! protocol needs nothing from a kept previous generation: a reader
//! stalled between its `current` load and its slot acquire either
//! fails the re-check and retries, or finds `current` back on its slot
//! — and then the slot holds the newest pair, which it reads whole
//! under the lock; and the escape hatch reads a slot that once was
//! current, which since then has only been overwritten with newer
//! pairs.
//!
//! Epochs are chosen by the writer and must be strictly increasing;
//! readers use them for monotonic-read checks (a reader that saw
//! epoch `e` never again observes `e' < e` — the slot contents only
//! ever move forward and `current` always points at the newest).
//!
//! The workspace forbids `unsafe`, so the cell is built from a slot
//! ring of `RwLock`s plus an atomic index instead of the classic
//! hazard-pointer/epoch-reclamation scheme; the locks are only ever
//! held across pointer-sized copies, never computation.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

/// Ring size: the current slot and the write target (see the module
/// docs for what the second slot is for).
const SLOTS: usize = 2;

/// What a slot holds: `(epoch, value)`.
type Pair<T> = (u64, Arc<T>);

/// One slot of the ring.
type Slot<T> = RwLock<Option<Pair<T>>>;

/// A single-writer multi-reader epoch-published value. See the
/// [module docs](self).
pub struct Published<T> {
    current: AtomicUsize,
    slots: [Slot<T>; SLOTS],
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
            current: AtomicUsize::new(0),
            slots: std::array::from_fn(|_| RwLock::new(None)),
        }
    }

    /// Snapshot read: the latest published `(epoch, value)`, or `None`
    /// before the first publish. A short `RwLock` read, never behind a
    /// repair and never behind a publish of the current value; it may
    /// wait for a publication's pointer swap on a straggler slot, and
    /// retries at most 8 times (see module docs).
    pub fn load(&self) -> Option<Pair<T>> {
        for _ in 0..8 {
            let i = self.current.load(Ordering::SeqCst);
            if let Some(pair) = self.read_if_current(i) {
                return pair;
            }
            // A publish moved `current` mid-acquire; retry for the
            // freshest value.
        }
        // Escape hatch under a publish storm: whatever the (then-)
        // current slot holds is a whole pair and at least as new as
        // anything this reader saw before.
        self.read_slot(self.current.load(Ordering::SeqCst))
    }

    /// The second half of a read that loaded `current == i` some time
    /// ago: slot `i`'s pair, or `None` when `current` is elsewhere by
    /// the time the slot is held. `current == i` under the lock means
    /// no publish is writing the slot (a publish writes a slot only
    /// while `current` is on the other one), so the pair is whole and
    /// the newest — also when `current` left `i` and came back in
    /// between.
    fn read_if_current(&self, i: usize) -> Option<Option<Pair<T>>> {
        let guard = self.slots[i].read().expect("snapshot slot never poisoned");
        (self.current.load(Ordering::SeqCst) == i).then(|| guard.clone())
    }

    /// The escape hatch's half of such a read: slot `i`'s pair
    /// wherever `current` is by now. The slot was written before
    /// `current` first pointed at it and has only been overwritten with
    /// newer pairs since, so this is never `None` after a first
    /// publish and never older than what `current` pointed at when the
    /// reader loaded it.
    fn read_slot(&self, i: usize) -> Option<Pair<T>> {
        self.slots[i]
            .read()
            .expect("snapshot slot never poisoned")
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
    /// When this returns the ring no longer holds the previous value.
    pub fn publish(&self, epoch: u64, value: Arc<T>) {
        let cur = self.current.load(Ordering::SeqCst);
        let next = (cur + 1) % SLOTS;
        self.write_slot(next, (epoch, Arc::clone(&value)));
        self.current.store(next, Ordering::SeqCst);
        // Let go of the previous generation: the slot `current` left
        // is a non-current slot now, and may be written.
        self.write_slot(cur, (epoch, value));
    }

    fn write_slot(&self, i: usize, pair: Pair<T>) {
        // The evicted value is dropped after the lock is released.
        let evicted = self.slots[i]
            .write()
            .expect("snapshot slot never poisoned")
            .replace(pair);
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
        assert_eq!(Arc::strong_count(&held), 3, "both slots and the reader");
        // One more publish overwrites both slots `held` could have been
        // cloned from. On this one thread a lock kept by the reader
        // would hang it.
        cell.publish(2, Arc::new(8));
        assert_eq!((epoch, *held), (1, 7));
        assert_eq!(Arc::strong_count(&held), 1, "the ring let go of it");
        assert_eq!(cell.load().map(|(e, v)| (e, *v)), Some((2, 8)));
    }

    #[test]
    fn a_reader_stalled_before_its_slot_acquire_retries_or_reads_the_newer_pair() {
        let cell: Published<u64> = Published::new();
        cell.publish(1, Arc::new(10));
        // The reader loads `current` and stalls before the acquire.
        let stale = cell.current.load(Ordering::SeqCst);
        let whole = |e: u64| Some((e, e * 10));
        let read = |pair: Option<Pair<u64>>| pair.map(|(e, v)| (e, *v));
        // One publish meanwhile: `current` left its slot — refused, not
        // returned. Without the re-check (the escape hatch) it reads a
        // whole pair, newer than the one it stalled on.
        cell.publish(2, Arc::new(20));
        assert!(cell.read_if_current(stale).is_none());
        assert_eq!(read(cell.read_slot(stale)), whole(2));
        // A second one brings `current` back to the reader's slot: what
        // the reader finds there, either way, is the newest pair.
        cell.publish(3, Arc::new(30));
        assert_eq!(cell.current.load(Ordering::SeqCst), stale);
        let pair = cell.read_if_current(stale).expect("current again");
        assert_eq!(read(pair), whole(3));
        assert_eq!(read(cell.read_slot(stale)), whole(3));
    }

    #[test]
    fn no_slot_trails_current_once_a_publish_returned() {
        let cell: Published<u64> = Published::new();
        for i in 0..SLOTS {
            assert!(cell.read_slot(i).is_none(), "empty before a publish");
        }
        for e in 1..=5u64 {
            cell.publish(e, Arc::new(e * 10));
            let newest = cell.load().map(|(e, v)| (e, *v));
            assert_eq!(newest, Some((e, e * 10)));
            // The escape hatch reads a slot without the re-check:
            // whichever it lands on, it is the newest pair.
            for i in 0..SLOTS {
                let got = cell.read_slot(i).map(|(e, v)| (e, *v));
                assert_eq!(got, newest, "slot {i} after publish {e}");
            }
        }
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
