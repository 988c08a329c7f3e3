//! The **undo-based repositioning** strategy (§VII-C, after Karsenty &
//! Beaudouin-Lafon's ICDCS'93 groupware algorithm): each update `u`
//! has an inverse, so a late message at position `p` is integrated by
//! undoing the suffix `log[p..]` (LIFO), applying the newcomer, and
//! replaying the suffix — "which saves computation time" relative to
//! replaying from `s0`, at the cost of requiring an
//! [`UndoableUqAdt`] and storing one undo token per entry. A batch of
//! late messages pays the undo/redo of the shared suffix **once**
//! (see [`crate::engine::ReplicaEngine::on_deliver_batch`]).

use crate::backend::LogBackend;
use crate::engine::{RepairStrategy, ReplicaEngine};
use crate::log::UpdateLog;
use uc_spec::UndoableUqAdt;

/// Fully folded state plus a LIFO stack of undo tokens, one per log
/// entry (`tokens[i]` undoes `log[i]` from the state it was applied
/// in).
#[derive(Clone, Debug)]
pub struct UndoRepair<A: UndoableUqAdt> {
    state: A::State,
    tokens: Vec<A::UndoToken>,
    repair_steps: u64,
    repair_events: u64,
}

impl<A: UndoableUqAdt> UndoRepair<A> {
    /// A fresh strategy.
    pub fn new(adt: &A) -> Self {
        UndoRepair {
            state: adt.initial(),
            tokens: Vec::new(),
            repair_steps: 0,
            repair_events: 0,
        }
    }

    /// Undo down to `pos`, then redo the (already updated) log suffix
    /// capturing fresh tokens — the single repair primitive.
    fn repair_from<B: LogBackend<A>>(&mut self, adt: &A, log: &UpdateLog<A, B>, pos: usize) {
        if pos < self.tokens.len() {
            self.repair_events += 1;
        }
        while self.tokens.len() > pos {
            let tok = self.tokens.pop().expect("suffix token");
            adt.undo(&mut self.state, &tok);
            self.repair_steps += 1;
        }
        for i in pos..log.len() {
            let (_, u) = log.get(i).expect("in range");
            let tok = adt.apply_with_undo(&mut self.state, u);
            self.tokens.push(tok);
            self.repair_steps += 1;
        }
    }
}

impl<A: UndoableUqAdt> RepairStrategy<A> for UndoRepair<A> {
    fn on_insert<B: LogBackend<A>>(&mut self, adt: &A, log: &mut UpdateLog<A, B>, pos: usize) {
        self.repair_from(adt, log, pos);
    }

    fn current_state<B: LogBackend<A>>(&mut self, _adt: &A, log: &UpdateLog<A, B>) -> &A::State {
        debug_assert_eq!(self.tokens.len(), log.len(), "state must be fully folded");
        &self.state
    }

    fn repair_steps(&self) -> u64 {
        self.repair_steps
    }

    fn repair_events(&self) -> u64 {
        self.repair_events
    }
}

/// Algorithm 1 with undo-based late-message integration; queries are
/// O(1).
pub type UndoReplica<A> = ReplicaEngine<A, UndoRepair<A>>;

impl<A: UndoableUqAdt> UndoReplica<A> {
    /// A fresh replica for process `pid`.
    pub fn new(adt: A, pid: u32) -> Self {
        let strategy = UndoRepair::new(&adt);
        ReplicaEngine::with_strategy(adt, pid, strategy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generic::GenericReplica;
    use crate::replica::Replica;
    use std::collections::BTreeSet;
    use uc_spec::{SetAdt, SetQuery, SetUpdate};

    type U = UndoReplica<SetAdt<u32>>;
    type G = GenericReplica<SetAdt<u32>>;

    #[test]
    fn agrees_with_naive_replay() {
        let mut u: U = UndoReplica::new(SetAdt::new(), 0);
        let mut g: G = GenericReplica::new(SetAdt::new(), 0);
        for i in 0..60u32 {
            let op = if i % 4 == 0 {
                SetUpdate::Delete(i % 7)
            } else {
                SetUpdate::Insert(i % 7)
            };
            u.update(op);
            g.update(op);
        }
        assert_eq!(u.do_query(&SetQuery::Read), g.do_query(&SetQuery::Read));
    }

    #[test]
    fn late_message_repositions_correctly() {
        let mut peer: G = GenericReplica::new(SetAdt::new(), 1);
        let late = peer.update(SetUpdate::Delete(5)); // ts (1,1)

        let mut u: U = UndoReplica::new(SetAdt::new(), 0);
        let mut g: G = GenericReplica::new(SetAdt::new(), 0);
        for i in 0..20u32 {
            u.update(SetUpdate::Insert(i % 8));
            g.update(SetUpdate::Insert(i % 8));
        }
        u.on_deliver(late.clone());
        g.on_deliver(late);
        // The delete is repositioned near the beginning, so 5 was
        // re-inserted afterwards and must be present.
        let got = u.do_query(&SetQuery::Read);
        assert_eq!(got, g.do_query(&SetQuery::Read));
        assert!(got.contains(&5));
    }

    #[test]
    fn repair_cost_proportional_to_suffix() {
        let mut peer: G = GenericReplica::new(SetAdt::new(), 1);
        for _ in 0..98 {
            peer.update(SetUpdate::Insert(0));
        }
        let near_tail = peer.update(SetUpdate::Insert(1)); // clock 99

        let mut u: U = UndoReplica::new(SetAdt::new(), 0);
        for i in 0..100u32 {
            u.update(SetUpdate::Insert(i % 3));
        }
        let before = u.repair_steps();
        u.on_deliver(near_tail); // (99,1) sorts after (99,0), before (100,0)
        let cost = u.repair_steps() - before;
        assert!(cost <= 3, "near-tail integration cost {cost}");
    }

    #[test]
    fn duplicate_deliveries_ignored() {
        let mut peer: G = GenericReplica::new(SetAdt::new(), 1);
        let m = peer.update(SetUpdate::Insert(3));
        let mut u: U = UndoReplica::new(SetAdt::new(), 0);
        u.on_deliver(m.clone());
        u.on_deliver(m);
        assert_eq!(u.log_len(), 1);
        assert_eq!(u.do_query(&SetQuery::Read), BTreeSet::from([3]));
    }

    #[test]
    fn interleaved_remote_streams_converge() {
        let mut a: U = UndoReplica::new(SetAdt::new(), 0);
        let mut b: G = GenericReplica::new(SetAdt::new(), 1);
        let mut msgs_a = Vec::new();
        let mut msgs_b = Vec::new();
        for i in 0..10u32 {
            msgs_a.push(a.update(SetUpdate::Insert(i)));
            msgs_b.push(b.update(SetUpdate::Delete(i / 2)));
        }
        // Cross-deliver in reverse order (maximally late).
        for m in msgs_b.iter().rev() {
            a.on_deliver(m.clone());
        }
        for m in msgs_a.iter().rev() {
            b.on_deliver(m.clone());
        }
        assert_eq!(Replica::materialize(&mut a), Replica::materialize(&mut b));
    }
}
