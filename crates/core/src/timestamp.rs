//! Lamport timestamps (§VII-B): the total order Algorithm 1 builds
//! over updates.
//!
//! A logical Lamport clock is only a pre-total order (distinct events
//! may share a time), so events are stamped with the pair
//! `(clock, pid)` compared lexicographically — process ids are unique
//! and totally ordered, making the pair order total. The clock
//! contains the happened-before relation, so the timestamp order
//! respects program order and message causality.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// A `(clock, pid)` Lamport timestamp, ordered lexicographically.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Timestamp {
    /// The logical time.
    pub clock: u64,
    /// The issuing process (tie-breaker).
    pub pid: u32,
}

impl Timestamp {
    /// Build a timestamp.
    pub fn new(clock: u64, pid: u32) -> Self {
        Timestamp { clock, pid }
    }

    /// Encoded size in bytes of the pair, for the §VII-C message-size
    /// accounting: both components are varint-sized, growing
    /// logarithmically with the number of operations and processes.
    pub fn wire_size(&self) -> u64 {
        fn varint(mut x: u64) -> u64 {
            let mut n = 1;
            while x >= 0x80 {
                x >>= 7;
                n += 1;
            }
            n
        }
        varint(self.clock) + varint(self.pid as u64)
    }
}

impl fmt::Debug for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.clock, self.pid)
    }
}

/// A process-local Lamport clock (lines 2, 5, 9, 13 of Algorithm 1),
/// backed by an `AtomicU64` so a pool's reader threads may tick it and
/// its peer-burst submitters merge into it beside the one thread that
/// stamps, without a lock. Only one thread stamps a replica's updates
/// (its owner): a process is sequential, and the stability floor
/// relies on the replica's own stamps arriving in stamp order.
///
/// `tick` is a single unconditional `fetch_add` — the degenerate,
/// always-succeeding compare-and-swap, so stamping is *wait-free* —
/// and `merge` is a `fetch_max` (a bounded CAS retry under
/// contention, lock-free). Two concurrent `tick`s can never return
/// the same value, so `(clock, pid)` pairs stamped through a shared
/// clock are unique by construction; [`ReplicaEngine`] re-asserts
/// this when the stamp reaches the log (a duplicate would silently
/// dedup away at peers and diverge the cluster).
///
/// The methods take `&self`; single-owner call sites that used to
/// hold `&mut` compile unchanged.
///
/// [`ReplicaEngine`]: crate::engine::ReplicaEngine
#[derive(Debug, Default)]
pub struct LamportClock {
    current: AtomicU64,
}

impl LamportClock {
    /// A clock at 0.
    pub fn new() -> Self {
        LamportClock {
            current: AtomicU64::new(0),
        }
    }

    /// A clock starting at `value` (recovery from a persisted floor).
    pub fn at(value: u64) -> Self {
        LamportClock {
            current: AtomicU64::new(value),
        }
    }

    /// Current value.
    pub fn now(&self) -> u64 {
        self.current.load(Ordering::SeqCst)
    }

    /// `clock ← clock + 1` (performed on every update *and* query in
    /// Algorithm 1), returning the new value. Wait-free: one atomic
    /// increment, unique per caller even under contention.
    pub fn tick(&self) -> u64 {
        self.current.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// `clock ← max(clock, observed)` (line 9, on message receipt).
    /// Lock-free running max.
    pub fn merge(&self, observed: u64) {
        self.current.fetch_max(observed, Ordering::SeqCst);
    }
}

/// Clones observe the current value; the copies tick independently
/// afterwards (exactly the old non-atomic semantics).
impl Clone for LamportClock {
    fn clone(&self) -> Self {
        LamportClock::at(self.now())
    }
}

impl PartialEq for LamportClock {
    fn eq(&self, other: &Self) -> bool {
        self.now() == other.now()
    }
}

impl Eq for LamportClock {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexicographic_order() {
        assert!(Timestamp::new(1, 5) < Timestamp::new(2, 0));
        assert!(Timestamp::new(2, 0) < Timestamp::new(2, 1));
        assert_eq!(Timestamp::new(3, 3), Timestamp::new(3, 3));
    }

    #[test]
    fn tick_is_strictly_increasing() {
        let c = LamportClock::new();
        let a = c.tick();
        let b = c.tick();
        assert!(b > a);
    }

    #[test]
    fn merge_takes_max() {
        let c = LamportClock::new();
        c.tick();
        c.merge(10);
        assert_eq!(c.now(), 10);
        c.merge(3);
        assert_eq!(c.now(), 10);
    }

    #[test]
    fn happened_before_is_respected() {
        // Receive at 10, then local tick: local events stamp > 10.
        let c = LamportClock::new();
        c.merge(10);
        assert!(c.tick() > 10);
    }

    #[test]
    fn concurrent_ticks_are_unique() {
        use std::collections::BTreeSet;
        use std::sync::Arc;
        let clock = Arc::new(LamportClock::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let clock = Arc::clone(&clock);
                std::thread::spawn(move || (0..1000).map(|_| clock.tick()).collect::<Vec<u64>>())
            })
            .collect();
        let mut seen = BTreeSet::new();
        for t in threads {
            for v in t.join().unwrap() {
                assert!(seen.insert(v), "duplicate stamp {v}");
            }
        }
        assert_eq!(clock.now(), 4000);
    }

    #[test]
    fn wire_size_grows_logarithmically() {
        assert_eq!(Timestamp::new(1, 1).wire_size(), 2);
        assert_eq!(Timestamp::new(300, 1).wire_size(), 3);
        assert!(Timestamp::new(u64::MAX, 1).wire_size() <= 11);
    }
}
