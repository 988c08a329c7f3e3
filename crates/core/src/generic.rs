//! **Algorithm 1** — the universal strong-update-consistent
//! construction, expressed as the [`NaiveReplay`] strategy on the
//! shared [`ReplicaEngine`].
//!
//! Each replica keeps a Lamport clock and the set of all timestamped
//! updates it knows (`updates_i`). An update ticks the clock and
//! broadcasts `(clock, pid, u)`; a receipt merges the clock and
//! inserts the update; a query ticks the clock and **replays the whole
//! sorted log from `s0`** (lines 12–19). Naive replay makes queries
//! `O(|log|)` — by design: this variant is the paper's proof artifact,
//! and the measured baseline for the §VII-C optimisation strategies
//! ([`crate::cached::CheckpointRepair`], [`crate::undo::UndoRepair`],
//! [`crate::gc::StableGc`]).

use crate::backend::LogBackend;
use crate::engine::{RepairStrategy, ReplicaEngine};
use crate::log::UpdateLog;
use uc_spec::UqAdt;

/// The no-maintenance strategy: keep nothing, replay the sorted log
/// on every query. Insertions (single or batched) are free; queries
/// cost `O(|log|)` state transitions.
#[derive(Clone, Debug)]
pub struct NaiveReplay<A: UqAdt> {
    /// Scratch buffer holding the most recent replay (so
    /// [`RepairStrategy::current_state`] can hand out a reference).
    scratch: A::State,
}

impl<A: UqAdt> NaiveReplay<A> {
    /// A fresh strategy.
    pub fn new(adt: &A) -> Self {
        NaiveReplay {
            scratch: adt.initial(),
        }
    }
}

impl<A: UqAdt> RepairStrategy<A> for NaiveReplay<A> {
    fn on_insert<B: LogBackend<A>>(&mut self, _adt: &A, _log: &mut UpdateLog<A, B>, _pos: usize) {
        // Nothing is cached, so nothing needs repair.
    }

    /// No cached state means no rollback cost: the engine may deliver
    /// small bursts per message instead of paying for a batch merge
    /// that has no repair to amortize.
    fn insert_is_free(&self) -> bool {
        true
    }

    fn current_state<B: LogBackend<A>>(&mut self, adt: &A, log: &UpdateLog<A, B>) -> &A::State {
        self.scratch = adt.run_updates(log.iter().map(|(_, u)| u));
        &self.scratch
    }
}

/// A replica running Algorithm 1 with naive query-time replay.
pub type GenericReplica<A> = ReplicaEngine<A, NaiveReplay<A>>;

impl<A: UqAdt> GenericReplica<A> {
    /// A fresh replica for process `pid`.
    pub fn new(adt: A, pid: u32) -> Self {
        let strategy = NaiveReplay::new(&adt);
        ReplicaEngine::with_strategy(adt, pid, strategy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use uc_spec::{SetAdt, SetQuery, SetUpdate};

    type R = GenericReplica<SetAdt<u32>>;

    fn pair() -> (R, R) {
        (
            GenericReplica::new(SetAdt::new(), 0),
            GenericReplica::new(SetAdt::new(), 1),
        )
    }

    #[test]
    fn local_update_visible_immediately() {
        let (mut a, _) = pair();
        a.update(SetUpdate::Insert(1));
        assert_eq!(a.do_query(&SetQuery::Read), BTreeSet::from([1]));
    }

    #[test]
    fn concurrent_updates_converge_in_any_delivery_order() {
        let (mut a, mut b) = pair();
        let ma = a.update(SetUpdate::Insert(1));
        let mb = b.update(SetUpdate::Delete(1));
        a.on_deliver(mb);
        b.on_deliver(ma);
        assert_eq!(a.do_query(&SetQuery::Read), b.do_query(&SetQuery::Read));
    }

    #[test]
    fn tie_broken_by_pid_consistently() {
        // Both updates get clock 1; pid 0 orders first, so Delete(1)
        // by pid 1 lands last → element absent everywhere.
        let (mut a, mut b) = pair();
        let ma = a.update(SetUpdate::Insert(1));
        let mb = b.update(SetUpdate::Delete(1));
        assert_eq!(ma.ts.clock, mb.ts.clock);
        a.on_deliver(mb);
        b.on_deliver(ma);
        assert_eq!(a.do_query(&SetQuery::Read), BTreeSet::new());
        assert_eq!(b.do_query(&SetQuery::Read), BTreeSet::new());
    }

    #[test]
    fn late_message_rewrites_history() {
        // a hears about an old remote insert only after local deletes:
        // the replay repositions it before them (the "rewrite the
        // history a posteriori" of §VII-B).
        let (mut a, mut b) = pair();
        let mb = b.update(SetUpdate::Insert(7)); // ts (1,1)
        a.update(SetUpdate::Insert(7)); // ts (1,0)
        a.update(SetUpdate::Delete(7)); // ts (2,0)
        a.on_deliver(mb); // late: orders between (1,0) and (2,0)
        assert_eq!(a.do_query(&SetQuery::Read), BTreeSet::new());
    }

    #[test]
    fn queries_tick_the_clock() {
        // Line 13: queries advance the clock too, so an update issued
        // after a query is ordered after everything the query saw.
        let (mut a, _) = pair();
        a.update(SetUpdate::Insert(1));
        let before = a.clock();
        a.do_query(&SetQuery::Read);
        assert_eq!(a.clock(), before + 1);
    }

    #[test]
    fn clock_absorbs_received_timestamps() {
        let (mut a, mut b) = pair();
        for i in 0..5 {
            let m = b.update(SetUpdate::Insert(i));
            a.on_deliver(m);
        }
        // a's next update must order after everything b sent.
        let m = a.update(SetUpdate::Delete(4));
        assert!(m.ts.clock > 5 - 1);
        assert_eq!(a.log_len(), 6);
    }

    #[test]
    fn pairwise_convergence_under_permuted_deliveries() {
        // All six orderings of three updates delivered to a fresh
        // replica yield the same state.
        let mut seed = GenericReplica::<SetAdt<u32>>::new(SetAdt::new(), 0);
        let msgs = [
            seed.update(SetUpdate::Insert(1)),
            seed.update(SetUpdate::Insert(2)),
            seed.update(SetUpdate::Delete(1)),
        ];
        let expect = seed.materialize();
        let perms = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        for p in perms {
            let mut r = GenericReplica::<SetAdt<u32>>::new(SetAdt::new(), 9);
            for i in p {
                r.on_deliver(msgs[i].clone());
            }
            assert_eq!(r.materialize(), expect, "permutation {p:?}");
        }
    }
}
