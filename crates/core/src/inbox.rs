//! A **lock-free claim-pattern inbox**: the mailbox primitive behind
//! the [`IngestPool`](crate::pool::IngestPool)'s shard workers.
//!
//! The idiom (after the *atomic-try-update* claim pattern): producers
//! CAS-push nodes onto a Treiber stack; the single owning consumer
//! *claims the entire stack in one swap*, walks it off-line, and
//! processes the items sequentially. Contention is confined to two
//! word-sized CAS loops (the pending-stack head and the free-list
//! head); no producer ever takes a lock, and the consumer never
//! blocks a producer while draining.
//!
//! ```text
//!   producers                                   consumer (owner)
//!   ──────────                                  ────────────────
//!   pop free slot   (CAS on `free`)             claim: swap `head`→∅
//!   write payload   (exclusively owned slot)    walk chain newest→oldest
//!   push pending    (CAS on `head`)             reverse ⇒ FIFO batch
//!   unpark sleeper                              recycle slots → `free`
//! ```
//!
//! Because the workspace forbids `unsafe`, the stack links are **slot
//! indices, not pointers**: all slots live in one fixed array, and
//! the two stack heads are packed `(generation, index)` words — the
//! 48-bit generation is bumped on every successful CAS, which defuses
//! the classic ABA hazard of index recycling. Payload cells are
//! `Mutex<Option<T>>`, but the protocol guarantees a slot is owned by
//! exactly one thread between free-list pop and consumer take, so the
//! lock is *never contended* — it costs one uncontended atomic
//! exchange, and exists only to give safe interior mutability.
//!
//! The fixed slot array doubles as the **bounded-depth backpressure**:
//! an empty free list *is* the full condition, and the pool's
//! producer parks until a slot frees.
//!
//! FIFO: pushes are linearized by the head CAS; one claim reverses
//! its chain, so items come out in push order, and items pushed
//! during a claim land on the fresh stack (a later batch). A single
//! producer therefore observes strict FIFO, which is what the pool's
//! determinism argument (pool ≡ sequential) rests on.
//!
//! Shutdown is race-free via a **gate counter**: the low bit is the
//! closed flag, and every in-flight push holds `+2` while between
//! gate-entry and gate-exit. [`Inbox::close`] sets the bit and waits
//! for the count to drain, after which one final claim is guaranteed
//! to observe every push that ever succeeded.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread::Thread;
use std::time::Duration;

/// Index sentinel: the empty list. Slot indices are 16-bit, so
/// capacities up to 65535 (far above any sane queue depth).
const NIL: u64 = 0xFFFF;

/// Pack a `(generation, index)` word: low 16 bits index, high 48 bits
/// generation. The generation wraps after 2^48 successful CASes on
/// one head — unreachable in practice, and a wrap is only harmful if
/// it collides with a stalled compare of the *same* index.
fn pack(generation: u64, idx: u64) -> u64 {
    (generation << 16) | idx
}

fn idx_of(word: u64) -> u64 {
    word & 0xFFFF
}

fn gen_of(word: u64) -> u64 {
    word >> 16
}

/// Why a push was refused. The item is handed back so the caller can
/// retry (park) without cloning.
#[derive(Debug)]
pub enum PushError<T> {
    /// Every slot is in use: the queue is at its bounded depth.
    Full(T),
    /// [`Inbox::close`] ran; the consumer is draining or gone.
    Closed(T),
}

/// One payload cell plus its stack link. The `next` field serves
/// whichever stack (pending or free) the slot currently sits on.
struct Slot<T> {
    next: AtomicU64,
    /// See the module docs: never contended, safe interior mutability
    /// only.
    item: Mutex<Option<T>>,
}

/// A bounded multi-producer single-consumer claim-pattern inbox. See
/// the [module docs](self).
pub struct Inbox<T> {
    slots: Box<[Slot<T>]>,
    /// Treiber stack of pushed-but-unclaimed items.
    head: AtomicU64,
    /// Treiber stack of recycled slots.
    free: AtomicU64,
    /// `in_flight_pushes * 2 + closed`.
    gate: AtomicU64,
    /// Consumer's declared intent to park (Dekker flag).
    sleeping: AtomicBool,
    /// The consumer thread, for unparking; set once at registration.
    consumer: OnceLock<Thread>,
}

impl<T> Inbox<T> {
    /// An inbox with `capacity` slots (clamped to `1..=65535`).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.clamp(1, NIL as usize);
        let slots: Box<[Slot<T>]> = (0..capacity)
            .map(|i| Slot {
                // Chain the free list 0 → 1 → … → NIL up front.
                next: AtomicU64::new(if i + 1 < capacity { i as u64 + 1 } else { NIL }),
                item: Mutex::new(None),
            })
            .collect();
        Inbox {
            slots,
            head: AtomicU64::new(pack(0, NIL)),
            free: AtomicU64::new(pack(0, 0)),
            gate: AtomicU64::new(0),
            sleeping: AtomicBool::new(false),
            consumer: OnceLock::new(),
        }
    }

    /// Bounded depth.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Nothing pushed and unclaimed? (Racy by nature; exact only for
    /// the consumer between claims.)
    pub fn is_empty(&self) -> bool {
        idx_of(self.head.load(Ordering::SeqCst)) == NIL
    }

    /// Record the consumer thread so producers can unpark it. Call
    /// once, from the consumer, before its first [`Inbox::wait`].
    pub fn register_consumer(&self, thread: Thread) {
        let _ = self.consumer.set(thread);
    }

    /// Lock-free push. On success the item is owned by the inbox; on
    /// refusal it comes back in the error.
    pub fn push(&self, item: T) -> Result<(), PushError<T>> {
        // Gate entry: hold +2 so `close` can wait out in-flight
        // pushes instead of racing them.
        let g = self.gate.fetch_add(2, Ordering::SeqCst);
        if g & 1 == 1 {
            self.gate.fetch_sub(2, Ordering::SeqCst);
            return Err(PushError::Closed(item));
        }
        // Pop a free slot (CAS loop; generation defuses ABA).
        let idx = loop {
            let f = self.free.load(Ordering::SeqCst);
            if idx_of(f) == NIL {
                self.gate.fetch_sub(2, Ordering::SeqCst);
                return Err(PushError::Full(item));
            }
            // `next` may be stale if another producer wins the slot —
            // then the generation moved and the CAS below fails.
            let next = self.slots[idx_of(f) as usize].next.load(Ordering::SeqCst);
            if self
                .free
                .compare_exchange(
                    f,
                    pack(gen_of(f) + 1, next),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                )
                .is_ok()
            {
                break idx_of(f) as usize;
            }
        };
        // The slot is exclusively ours until the consumer takes it.
        *self.slots[idx]
            .item
            .lock()
            .expect("slot lock never poisoned") = Some(item);
        // Treiber push onto the pending stack.
        loop {
            let h = self.head.load(Ordering::SeqCst);
            self.slots[idx].next.store(idx_of(h), Ordering::SeqCst);
            if self
                .head
                .compare_exchange(
                    h,
                    pack(gen_of(h) + 1, idx as u64),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                )
                .is_ok()
            {
                break;
            }
        }
        self.gate.fetch_sub(2, Ordering::SeqCst);
        // Dekker partner of `wait`: the push above and this load are
        // both SeqCst, so either the consumer's re-check sees the
        // item or this sees `sleeping` and unparks.
        if self.sleeping.load(Ordering::SeqCst) {
            if let Some(t) = self.consumer.get() {
                t.unpark();
            }
        }
        Ok(())
    }

    /// Claim the entire pending stack in one swap and append the
    /// items to `out` in FIFO order. Consumer-side.
    pub fn claim(&self, out: &mut Vec<T>) {
        let claimed = loop {
            let h = self.head.load(Ordering::SeqCst);
            if idx_of(h) == NIL {
                return;
            }
            if self
                .head
                .compare_exchange(
                    h,
                    pack(gen_of(h) + 1, NIL),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                )
                .is_ok()
            {
                break h;
            }
        };
        let start = out.len();
        let mut i = idx_of(claimed);
        while i != NIL {
            let slot = &self.slots[i as usize];
            let item = slot
                .item
                .lock()
                .expect("slot lock never poisoned")
                .take()
                .expect("claimed slot holds an item");
            // Read the link *before* recycling — `free_push` reuses it.
            let next = slot.next.load(Ordering::SeqCst);
            self.free_push(i as usize);
            out.push(item);
            i = next;
        }
        // Chain order is newest→oldest; flip to FIFO.
        out[start..].reverse();
    }

    /// Return a drained slot to the free list (unblocks producers
    /// parked on `Full`).
    fn free_push(&self, idx: usize) {
        loop {
            let f = self.free.load(Ordering::SeqCst);
            self.slots[idx].next.store(idx_of(f), Ordering::SeqCst);
            if self
                .free
                .compare_exchange(
                    f,
                    pack(gen_of(f) + 1, idx as u64),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                )
                .is_ok()
            {
                break;
            }
        }
    }

    /// Consumer-side: park until a push arrives or the inbox closes.
    /// The `sleeping`/re-check/park sequence pairs with `push`'s
    /// publish/check/unpark (both SeqCst) so a wakeup is never lost;
    /// the timeout is a belt-and-braces bound, not a correctness
    /// requirement.
    pub fn wait(&self) {
        self.sleeping.store(true, Ordering::SeqCst);
        if !self.is_empty() || self.is_closed() {
            self.sleeping.store(false, Ordering::SeqCst);
            return;
        }
        std::thread::park_timeout(Duration::from_millis(50));
        self.sleeping.store(false, Ordering::SeqCst);
    }

    /// Refuse new pushes, wait out in-flight ones, and wake the
    /// consumer. After `close` returns, one claim observes every push
    /// that ever succeeded. Idempotent.
    pub fn close(&self) {
        self.gate.fetch_or(1, Ordering::SeqCst);
        while self.gate.load(Ordering::SeqCst) != 1 {
            std::thread::yield_now();
        }
        if let Some(t) = self.consumer.get() {
            t.unpark();
        }
    }

    /// Has [`Inbox::close`] run (possibly still waiting out pushes)?
    pub fn is_closed(&self) -> bool {
        self.gate.load(Ordering::SeqCst) & 1 == 1
    }

    /// Closed *and* no push is still in flight: a claim now is final.
    pub fn closed_and_drained(&self) -> bool {
        self.gate.load(Ordering::SeqCst) == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_claim_fifo_single_producer() {
        let inbox: Inbox<u32> = Inbox::new(8);
        for i in 0..5 {
            inbox.push(i).unwrap();
        }
        let mut out = Vec::new();
        inbox.claim(&mut out);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        assert!(inbox.is_empty());
    }

    #[test]
    fn full_returns_item_and_drains_after_claim() {
        let inbox: Inbox<u32> = Inbox::new(2);
        inbox.push(1).unwrap();
        inbox.push(2).unwrap();
        let Err(PushError::Full(3)) = inbox.push(3) else {
            panic!("third push must report Full with the item");
        };
        let mut out = Vec::new();
        inbox.claim(&mut out);
        assert_eq!(out, vec![1, 2]);
        inbox.push(3).unwrap();
        out.clear();
        inbox.claim(&mut out);
        assert_eq!(out, vec![3]);
    }

    #[test]
    fn closed_refuses_pushes() {
        let inbox: Inbox<u32> = Inbox::new(4);
        inbox.push(1).unwrap();
        inbox.close();
        assert!(inbox.closed_and_drained());
        let Err(PushError::Closed(2)) = inbox.push(2) else {
            panic!("push after close must report Closed");
        };
        let mut out = Vec::new();
        inbox.claim(&mut out);
        assert_eq!(out, vec![1], "close never drops queued items");
    }

    #[test]
    fn concurrent_producers_lose_nothing_and_keep_per_producer_fifo() {
        let inbox: Arc<Inbox<(usize, u32)>> = Arc::new(Inbox::new(64));
        let producers = 4;
        let per = 2_000u32;
        let consumer = {
            let inbox = Arc::clone(&inbox);
            std::thread::spawn(move || {
                inbox.register_consumer(std::thread::current());
                let mut got: Vec<(usize, u32)> = Vec::new();
                let mut batch = Vec::new();
                loop {
                    inbox.claim(&mut batch);
                    if batch.is_empty() {
                        if inbox.closed_and_drained() {
                            inbox.claim(&mut batch);
                            got.append(&mut batch);
                            break;
                        }
                        inbox.wait();
                        continue;
                    }
                    got.append(&mut batch);
                }
                got
            })
        };
        let handles: Vec<_> = (0..producers)
            .map(|p| {
                let inbox = Arc::clone(&inbox);
                std::thread::spawn(move || {
                    for i in 0..per {
                        let mut item = (p, i);
                        loop {
                            match inbox.push(item) {
                                Ok(()) => break,
                                Err(PushError::Full(it)) => {
                                    item = it;
                                    std::thread::yield_now();
                                }
                                Err(PushError::Closed(_)) => panic!("closed mid-test"),
                            }
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        inbox.close();
        let got = consumer.join().unwrap();
        assert_eq!(
            got.len(),
            producers * per as usize,
            "no item lost or duplicated"
        );
        let mut next = vec![0u32; producers];
        for (p, i) in got {
            assert_eq!(i, next[p], "producer {p} out of FIFO order");
            next[p] += 1;
        }
    }
}
