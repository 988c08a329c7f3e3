//! **Epoch-published snapshots**: the RCU-style cell behind the
//! pool's wait-free reads.
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
//!      [epoch 41]    [epoch 42]
//!         ▲             ▲ readers
//!         └ the writer overwrites only the NON-current slot,
//!           then moves `current` onto it
//! ```
//!
//! * **Reader**: load `current`, shared-acquire that slot, re-check
//!   `current` (retry if a publish moved it — bounded, with a
//!   consistent-but-one-stale escape hatch), clone the `Arc`. The
//!   shared acquisition is one atomic increment; readers of the
//!   current slot run fully in parallel and are *never* blocked by a
//!   publish, because publishes only ever write the non-current slot.
//! * **Writer**: exclusive-acquire the non-current slot (waits only
//!   for a straggler still cloning the previous generation's `Arc`
//!   out of it — nanoseconds; a reader that already *holds* an `Arc`
//!   holds no lock and delays nobody), install `(epoch, value)`, then
//!   move `current`. The repair that *produced* the value happens
//!   entirely before, outside any lock.
//!
//! **Two slots, not three.** A third slot would spare the writer that
//! rare wait on a straggler, and it was paid for with a third copy of
//! every hot key's state: the value a publish overwrites — and frees,
//! when no reader holds it — was two generations old and long out of
//! cache. With two slots the retired value is the previous
//! generation, still warm when it is dropped, and a third of the
//! snapshot memory is gone. The protocol needs nothing from the
//! spare: a reader stalled between its `current` load and its slot
//! acquire either fails the re-check and retries, or finds `current`
//! back on its slot — and then the slot holds the newest pair, which
//! it reads whole under the lock.
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
/// docs for why there is no spare).
const SLOTS: usize = 2;

/// One `(epoch, value)` slot of the ring.
type Slot<T> = RwLock<Option<(u64, Arc<T>)>>;

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

    /// Wait-free snapshot read: the latest published `(epoch, value)`,
    /// or `None` before the first publish. Never blocks behind a
    /// publish of the current value; may briefly share a straggler
    /// slot with the writer (see module docs).
    pub fn load(&self) -> Option<(u64, Arc<T>)> {
        for _ in 0..8 {
            let i = self.current.load(Ordering::SeqCst);
            if let Some(pair) = self.read_if_current(i) {
                return pair;
            }
            // A publish moved `current` mid-acquire; retry for the
            // freshest value.
        }
        // Escape hatch under a publish storm: whatever the (then-)
        // current slot holds is a consistent pair and at least as new
        // as anything this reader saw before.
        let i = self.current.load(Ordering::SeqCst);
        self.slots[i]
            .read()
            .expect("snapshot slot never poisoned")
            .clone()
    }

    /// The second half of a read that loaded `current == i` some time
    /// ago: slot `i`'s pair, or `None` when `current` is elsewhere by
    /// the time the slot is held. `current == i` under the lock means
    /// no publish is writing the slot (a publish writes the
    /// non-current one), so the pair is whole and the newest — also
    /// when `current` left `i` and came back in between.
    fn read_if_current(&self, i: usize) -> Option<Option<(u64, Arc<T>)>> {
        let guard = self.slots[i].read().expect("snapshot slot never poisoned");
        (self.current.load(Ordering::SeqCst) == i).then(|| guard.clone())
    }

    /// The latest epoch, or 0 before the first publish.
    pub fn epoch(&self) -> u64 {
        self.load().map_or(0, |(e, _)| e)
    }

    /// Install a new snapshot. **Single-writer**: concurrent publishes
    /// on one cell are a protocol violation (the pool guarantees it —
    /// each key's cell is written only by the worker owning its
    /// shard). `epoch` must exceed every previously published epoch.
    pub fn publish(&self, epoch: u64, value: Arc<T>) {
        let cur = self.current.load(Ordering::SeqCst);
        let next = (cur + 1) % SLOTS;
        *self.slots[next]
            .write()
            .expect("snapshot slot never poisoned") = Some((epoch, value));
        self.current.store(next, Ordering::SeqCst);
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
        // Two more publishes: the second overwrites the slot `held`
        // was cloned from. On this one thread a lock kept by the
        // reader would hang it.
        cell.publish(2, Arc::new(8));
        assert_eq!(
            Arc::strong_count(&held),
            2,
            "the previous generation is kept"
        );
        cell.publish(3, Arc::new(9));
        assert_eq!((epoch, *held), (1, 7));
        assert_eq!(Arc::strong_count(&held), 1, "the ring let go of it");
        assert_eq!(cell.load().map(|(e, v)| (e, *v)), Some((3, 9)));
    }

    #[test]
    fn a_reader_stalled_before_its_slot_acquire_retries_or_reads_the_newer_pair() {
        let cell: Published<u64> = Published::new();
        cell.publish(1, Arc::new(1));
        let stale = cell.current.load(Ordering::SeqCst);
        // One publish while the reader is stalled: `current` left its
        // slot, which still holds the old pair — refused, not returned.
        cell.publish(2, Arc::new(2));
        assert!(cell.read_if_current(stale).is_none());
        // A second one lands in the reader's slot and brings `current`
        // back to it: what the reader finds there is the newest pair.
        cell.publish(3, Arc::new(3));
        assert_eq!(cell.current.load(Ordering::SeqCst), stale);
        let pair = cell.read_if_current(stale).expect("current again");
        assert_eq!(pair.map(|(e, v)| (e, *v)), Some((3, 3)));
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
