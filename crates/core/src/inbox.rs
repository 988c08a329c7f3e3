//! A pool worker's **inbox**: std's bounded channel
//! ([`sync_channel`]) behind a close gate.
//!
//! Producers push with the channel's blocking `send`: a full inbox
//! parks its producer until the consumer takes an item, and drops
//! nothing. The one consumer claims everything queued with `try_recv`
//! and blocks in `recv` when idle. A single producer's pushes come out
//! in push order, which is what the pool's determinism argument
//! (pool ≡ sequential) rests on.
//!
//! What std lacks is a close that every producer sees: the pool's
//! handles share one sender, and a channel ends only when its last
//! sender goes. That is the **gate**, a read-write lock around the
//! sender (its reader count is the pushes in flight, its writer the
//! close): a push holds a read lock across its `send`, and
//! [`Inbox::close`] takes the write lock, which waits out the pushes in
//! flight and refuses later ones, and drops the sender. Closed is then
//! the channel's own state: the consumer receives every accepted item
//! and then `Disconnected`, so there is no wake-up to lose and no
//! drained count to read.
//!
//! A consumer that gives up (a dying worker) drops its receiver
//! *before* it closes the gate: that fails every push parked on a full
//! channel, so the close's wait for in-flight pushes ends.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{PoisonError, RwLock};

/// The producers' side of one bounded inbox: the channel's sender
/// behind the close gate. See the [module docs](self).
pub struct Inbox<T> {
    /// `None` once closed.
    tx: RwLock<Option<SyncSender<T>>>,
}

/// An inbox of `depth` slots (at least one) and the consumer's end of
/// it, which reads `Disconnected` once the inbox is closed and empty.
pub fn bounded<T>(depth: usize) -> (Inbox<T>, Receiver<T>) {
    let (tx, rx) = sync_channel(depth.max(1));
    let tx = RwLock::new(Some(tx));
    (Inbox { tx }, rx)
}

impl<T> Inbox<T> {
    /// Queue `item`, parking while the inbox is full. The item comes
    /// back if the inbox is closed or its consumer is gone.
    pub fn push(&self, item: T) -> Result<(), T> {
        // No code panics under the gate, so a poisoned one is intact.
        match &*self.tx.read().unwrap_or_else(PoisonError::into_inner) {
            Some(tx) => tx.send(item).map_err(|e| e.0),
            None => Err(item),
        }
    }

    /// Wait out in-flight pushes, refuse new ones, and let the
    /// consumer's `recv` end once it has taken what is queued.
    /// Idempotent.
    pub fn close(&self) {
        drop(
            self.tx
                .write()
                .unwrap_or_else(PoisonError::into_inner)
                .take(),
        );
    }

    /// Has [`Inbox::close`] completed?
    pub fn is_closed(&self) -> bool {
        self.tx
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn claim<T>(rx: &Receiver<T>) -> Vec<T> {
        rx.try_iter().collect()
    }

    #[test]
    fn push_claim_fifo_single_producer() {
        let (inbox, rx) = bounded(8);
        for i in 0..5 {
            inbox.push(i).unwrap();
        }
        assert_eq!(claim(&rx), vec![0, 1, 2, 3, 4]);
        assert!(claim(&rx).is_empty());
    }

    #[test]
    fn a_full_inbox_parks_its_producer_until_a_claim() {
        let (inbox, rx) = bounded(2);
        let inbox = Arc::new(inbox);
        inbox.push(1).unwrap();
        inbox.push(2).unwrap();
        let producer = {
            let inbox = Arc::clone(&inbox);
            std::thread::spawn(move || inbox.push(3))
        };
        // The third push stays parked until a slot frees.
        assert_eq!(rx.recv(), Ok(1));
        producer.join().unwrap().unwrap();
        assert_eq!(claim(&rx), vec![2, 3]);
    }

    #[test]
    fn closed_refuses_pushes() {
        let (inbox, rx) = bounded(4);
        inbox.push(1).unwrap();
        inbox.close();
        assert!(inbox.is_closed());
        assert_eq!(
            inbox.push(2),
            Err(2),
            "push after close hands the item back"
        );
        assert_eq!(claim(&rx), vec![1], "close never drops queued items");
        assert!(rx.recv().is_err(), "then the consumer reads the close");
    }

    #[test]
    fn close_ends_a_consumer_blocked_in_recv() {
        let (inbox, rx) = bounded::<u32>(1);
        let consumer = std::thread::spawn(move || rx.recv());
        inbox.close();
        assert!(consumer.join().unwrap().is_err());
    }

    #[test]
    fn a_gone_consumer_releases_a_producer_parked_on_a_full_inbox() {
        let (inbox, rx) = bounded(1);
        let inbox = Arc::new(inbox);
        inbox.push(1).unwrap();
        let producer = {
            let inbox = Arc::clone(&inbox);
            std::thread::spawn(move || inbox.push(2))
        };
        // The push holds the gate's read lock: parked, or about to be.
        while inbox.tx.try_write().is_ok() {
            std::thread::yield_now();
        }
        // The order a dying consumer keeps: disconnect, then close.
        drop(rx);
        inbox.close();
        assert_eq!(producer.join().unwrap(), Err(2));
    }

    #[test]
    fn concurrent_producers_lose_nothing_and_keep_per_producer_fifo() {
        let (inbox, rx) = bounded::<(usize, u32)>(64);
        let inbox = Arc::new(inbox);
        let producers = 4;
        let per = 2_000u32;
        // Blocks in `recv` when idle and ends at the close.
        let consumer = std::thread::spawn(move || rx.iter().collect::<Vec<_>>());
        let handles: Vec<_> = (0..producers)
            .map(|p| {
                let inbox = Arc::clone(&inbox);
                std::thread::spawn(move || {
                    for i in 0..per {
                        inbox.push((p, i)).expect("open while producing");
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
