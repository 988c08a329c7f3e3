//! **Algorithm 2** — the update-consistent shared memory.
//!
//! The memory object specialises Algorithm 1: because an overwritten
//! register value can never be read again, the log degenerates to the
//! last `(timestamp, value)` per register — last-writer-wins with the
//! same `(clock, pid)` order Algorithm 1 uses globally. Both reads and
//! writes are O(log #registers) map operations (the paper says
//! "constant computation time" counting state work), and memory grows
//! with the number of *registers*, not the number of operations —
//! the claims measured by experiment E9.

use crate::message::UpdateMsg;
use crate::replica::Replica;
use crate::timestamp::{LamportClock, Timestamp};
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::hash::Hash;
use uc_spec::{MemoryAdt, MemoryQuery, MemoryUpdate, UqAdt};

/// The wire message of Algorithm 2, line 6: `(clock, pid, x, v)`.
pub type MemWrite<X, V> = UpdateMsg<MemoryUpdate<X, V>>;

/// A replica of the shared memory object running Algorithm 2.
#[derive(Clone, Debug)]
pub struct UcMemory<X, V>
where
    X: Clone + Debug + Eq + Ord + Hash,
    V: Clone + Debug + Eq + Hash,
{
    adt: MemoryAdt<X, V>,
    pid: u32,
    clock: LamportClock,
    /// Per-register `(timestamp, value)` — `mem_i` in the paper.
    mem: BTreeMap<X, (Timestamp, V)>,
}

impl<X, V> UcMemory<X, V>
where
    X: Clone + Debug + Eq + Ord + Hash,
    V: Clone + Debug + Eq + Hash,
{
    /// A fresh replica for process `pid`; registers start at `v0`.
    pub fn new(v0: V, pid: u32) -> Self {
        UcMemory {
            adt: MemoryAdt::new(v0),
            pid,
            clock: LamportClock::new(),
            mem: BTreeMap::new(),
        }
    }

    /// `write(x, v)` — lines 4–7.
    pub fn write(&mut self, x: X, v: V) -> MemWrite<X, V> {
        let ts = Timestamp::new(self.clock.tick(), self.pid);
        // The local replica receives its own broadcast instantly; the
        // local timestamp is the largest known, so it always wins.
        self.store(ts, x.clone(), v.clone());
        UpdateMsg {
            ts,
            update: MemoryUpdate {
                register: x,
                value: v,
            },
        }
    }

    /// Receive a peer's write — lines 8–14 (keep the newer timestamp).
    pub fn on_deliver(&mut self, msg: MemWrite<X, V>) {
        self.clock.merge(msg.ts.clock);
        self.store(msg.ts, msg.update.register, msg.update.value);
    }

    fn store(&mut self, ts: Timestamp, x: X, v: V) {
        match self.mem.get(&x) {
            Some((existing, _)) if *existing >= ts => {}
            _ => {
                self.mem.insert(x, (ts, v));
            }
        }
    }

    /// `read(x)` — lines 15–18: O(1) state work, no clock tick.
    pub fn read(&self, x: &X) -> V {
        match self.mem.get(x) {
            Some((_, v)) => v.clone(),
            None => self.adt.initial_value().clone(),
        }
    }

    /// Number of registers ever written (the memory footprint).
    pub fn registers(&self) -> usize {
        self.mem.len()
    }
}

impl<X, V> Replica<MemoryAdt<X, V>> for UcMemory<X, V>
where
    X: Clone + Debug + Eq + Ord + Hash,
    V: Clone + Debug + Eq + Hash,
{
    fn pid(&self) -> u32 {
        self.pid
    }

    fn local_update(&mut self, u: MemoryUpdate<X, V>) -> MemWrite<X, V> {
        self.write(u.register, u.value)
    }

    fn on_message(&mut self, msg: MemWrite<X, V>) {
        self.on_deliver(msg);
    }

    fn query(&mut self, q: &MemoryQuery<X>) -> V {
        self.read(&q.0)
    }

    fn materialize(&mut self) -> <MemoryAdt<X, V> as UqAdt>::State {
        // Canonical MemoryAdt state: v0-valued registers are implicit.
        self.mem
            .iter()
            .filter(|(_, (_, v))| v != self.adt.initial_value())
            .map(|(x, (_, v))| (x.clone(), v.clone()))
            .collect()
    }

    fn log_len(&self) -> usize {
        self.mem.len()
    }

    fn clock(&self) -> u64 {
        self.clock.now()
    }

    /// Last-writer timestamps per register — all Algorithm 2 retains.
    fn known_timestamps(&self) -> Vec<Timestamp> {
        self.mem.values().map(|(ts, _)| *ts).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type M = UcMemory<&'static str, i32>;

    #[test]
    fn reads_default_to_v0() {
        let m: M = UcMemory::new(0, 0);
        assert_eq!(m.read(&"x"), 0);
    }

    #[test]
    fn local_write_read_roundtrip() {
        let mut m: M = UcMemory::new(0, 0);
        m.write("x", 7);
        assert_eq!(m.read(&"x"), 7);
    }

    #[test]
    fn last_writer_wins_across_replicas() {
        let mut a: M = UcMemory::new(0, 0);
        let mut b: M = UcMemory::new(0, 1);
        let wa = a.write("x", 1); // ts (1,0)
        let wb = b.write("x", 2); // ts (1,1) — wins the tie on pid
        a.on_deliver(wb);
        b.on_deliver(wa);
        assert_eq!(a.read(&"x"), 2);
        assert_eq!(b.read(&"x"), 2);
    }

    #[test]
    fn stale_write_does_not_regress() {
        let mut a: M = UcMemory::new(0, 0);
        let mut b: M = UcMemory::new(0, 1);
        let w1 = b.write("x", 1); // (1,1)
        a.write("y", 0); // ticks a's clock to 1
        a.on_deliver(w1.clone()); // a learns (1,1)
        let w2 = a.write("x", 9); // (2,0) > (1,1)
        b.on_deliver(w2);
        b.on_deliver(w1); // duplicate/stale redelivery
        assert_eq!(b.read(&"x"), 9);
    }

    #[test]
    fn registers_are_independent() {
        let mut a: M = UcMemory::new(0, 0);
        let mut b: M = UcMemory::new(0, 1);
        let wa = a.write("x", 1);
        let wb = b.write("y", 2);
        a.on_deliver(wb);
        b.on_deliver(wa);
        for m in [&a, &b] {
            assert_eq!(m.read(&"x"), 1);
            assert_eq!(m.read(&"y"), 2);
        }
    }

    #[test]
    fn memory_is_bounded_by_register_count() {
        let mut a: M = UcMemory::new(0, 0);
        for i in 0..10_000 {
            a.write("x", i);
        }
        assert_eq!(a.registers(), 1, "old values are never retained");
    }

    #[test]
    fn materialize_is_canonical() {
        let mut a: M = UcMemory::new(0, 0);
        a.write("x", 5);
        a.write("x", 0); // back to v0 — canonical state drops it
        let s = {
            use crate::replica::Replica;
            a.materialize()
        };
        assert!(s.is_empty());
    }

    #[test]
    fn convergence_under_any_interleaving() {
        // 3 replicas, interleaved writes to 2 registers, delivered in
        // different orders — all replicas agree pointwise.
        let mut r: Vec<M> = (0..3).map(|p| UcMemory::new(0, p)).collect();
        let mut msgs = Vec::new();
        for round in 0..5 {
            for (p, rep) in r.iter_mut().enumerate() {
                let reg = if (round + p) % 2 == 0 { "x" } else { "y" };
                let w = rep.write(reg, (round * 3 + p) as i32);
                msgs.push((p, w));
            }
        }
        // Deliver to each replica in a different order.
        for (i, rep) in r.iter_mut().enumerate() {
            let mut order = msgs.clone();
            if i == 1 {
                order.reverse();
            }
            if i == 2 {
                order.rotate_left(7);
            }
            for (src, w) in &order {
                if *src != i {
                    rep.on_deliver(w.clone());
                }
            }
        }
        let x: Vec<i32> = r.iter().map(|m| m.read(&"x")).collect();
        let y: Vec<i32> = r.iter().map(|m| m.read(&"y")).collect();
        assert!(x.windows(2).all(|w| w[0] == w[1]), "x diverged: {x:?}");
        assert!(y.windows(2).all(|w| w[0] == w[1]), "y diverged: {y:?}");
    }
}
