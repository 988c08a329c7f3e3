//! The replica abstraction shared by Algorithm 1, its optimised
//! variants, and Algorithm 2.

use crate::message::UpdateMsg;
use uc_spec::UqAdt;

/// A wait-free replica of a UQ-ADT object.
///
/// The contract mirrors Algorithm 1's interface:
/// * [`Replica::local_update`] performs an update locally (applying it
///   to the replica's own knowledge immediately — the sender receives
///   its broadcast instantaneously) and returns the message to
///   reliably broadcast to every other process;
/// * [`Replica::on_message`] ingests a peer's message;
/// * [`Replica::query`] answers from local knowledge only (it may
///   mutate caches and the Lamport clock, hence `&mut`);
/// * nothing ever waits: both operations complete synchronously.
pub trait Replica<A: UqAdt> {
    /// This replica's process id.
    fn pid(&self) -> u32;

    /// Apply an update locally; returns the stamped update to
    /// broadcast to every other process.
    fn local_update(&mut self, u: A::Update) -> UpdateMsg<A::Update>;

    /// Ingest a message from a peer; the runtimes hand it over by
    /// value.
    fn on_message(&mut self, msg: UpdateMsg<A::Update>);

    /// Ingest a whole burst of peer messages at once. The default is a
    /// per-message loop; replicas built on the
    /// [`ReplicaEngine`](crate::engine::ReplicaEngine) override it to
    /// merge the batch into the log with a **single**
    /// rollback-and-refold, moving the updates in, which is the
    /// batching hot path both `uc-sim` runtimes flush through.
    fn on_batch(&mut self, msgs: Vec<UpdateMsg<A::Update>>) {
        for m in msgs {
            self.on_message(m);
        }
    }

    /// Answer a query from local knowledge.
    fn query(&mut self, q: &A::QueryIn) -> A::QueryOut;

    /// Periodic maintenance (a compacting strategy's sweep); sends
    /// nothing.
    fn tick(&mut self) {}

    /// The state this replica would converge to if no further message
    /// arrived — the full fold of its known updates.
    fn materialize(&mut self) -> A::State;

    /// Number of retained log entries (memory-footprint metric for the
    /// §VII-C storage experiments).
    fn log_len(&self) -> usize;

    /// Current Lamport clock value.
    fn clock(&self) -> u64;

    /// Timestamps of the updates this replica currently knows — the
    /// visible-update set used to extract strong-update-consistency
    /// witnesses (Proposition 4). Replicas that discard history
    /// (Algorithm 2's per-register map) return only what they retain;
    /// witness tracing requires a full-log replica.
    fn known_timestamps(&self) -> Vec<crate::timestamp::Timestamp>;
}

/// Hash a state canonically (used for convergence digests).
pub fn state_digest<S: std::hash::Hash>(state: &S) -> u64 {
    use std::hash::{BuildHasher, BuildHasherDefault};
    use uc_history::fxhash::FxHasher;
    BuildHasherDefault::<FxHasher>::default().hash_one(state)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_distinguishes_states() {
        let a = state_digest(&vec![1, 2, 3]);
        let b = state_digest(&vec![1, 2, 3]);
        let c = state_digest(&vec![3, 2, 1]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
