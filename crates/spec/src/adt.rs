//! The UQ-ADT trait (Definition 1 of the paper).

use std::fmt::Debug;
use std::hash::Hash;

/// An update–query abstract data type
/// `O = (U, Qi, Qo, S, s0, T, G)` (Definition 1).
///
/// * [`UqAdt::Update`] is the update alphabet `U`;
/// * [`UqAdt::QueryIn`] / [`UqAdt::QueryOut`] are the query input and
///   output alphabets `Qi` / `Qo`;
/// * [`UqAdt::State`] is the (countable, possibly unbounded) state set
///   `S`, with [`UqAdt::initial`] as `s0`;
/// * [`UqAdt::apply`] is the transition function `T : S × U → S`;
/// * [`UqAdt::observe`] is the output function `G : S × Qi → Qo`.
///
/// Implementations carry the *parameters* of the type (for example the
/// initial value of every register in [`crate::memory::MemoryAdt`]), so
/// the methods take `&self`.
///
/// The bounds are those needed by the history checkers in downstream
/// crates: states are hashed to memoize linearization search, and every
/// alphabet must be comparable and printable for verdict reporting.
pub trait UqAdt {
    /// The update alphabet `U`.
    type Update: Clone + Debug + Eq + Hash;
    /// The query input alphabet `Qi`.
    type QueryIn: Clone + Debug + Eq + Hash;
    /// The query output alphabet `Qo`.
    type QueryOut: Clone + Debug + Eq + Hash;
    /// The state set `S`.
    type State: Clone + Debug + Eq + Hash;

    /// The initial state `s0`.
    fn initial(&self) -> Self::State;

    /// The transition function `T`: applies `update` to `state` in
    /// place. Updates are total: every update is applicable in every
    /// state (as in the paper, where e.g. deleting an absent element
    /// leaves the set unchanged).
    fn apply(&self, state: &mut Self::State, update: &Self::Update);

    /// The output function `G`: the value returned by query `query` in
    /// `state`. Queries are read-only.
    fn observe(&self, state: &Self::State, query: &Self::QueryIn) -> Self::QueryOut;

    /// [`UqAdt::observe`] of a state the caller no longer needs. A
    /// query whose answer is the state itself (a set's or a register's
    /// read) returns it instead of cloning it. Must equal
    /// `self.observe(&state, query)`; the default is exactly that.
    fn observe_owned(&self, state: Self::State, query: &Self::QueryIn) -> Self::QueryOut {
        self.observe(&state, query)
    }

    /// Convenience: fold a sequence of updates over the initial state.
    fn run_updates<'a, I>(&self, updates: I) -> Self::State
    where
        Self::Update: 'a,
        I: IntoIterator<Item = &'a Self::Update>,
    {
        let mut s = self.initial();
        for u in updates {
            self.apply(&mut s, u);
        }
        s
    }

    /// Convenience: fold a sequence of updates over an explicit state.
    fn run_updates_from<'a, I>(&self, mut state: Self::State, updates: I) -> Self::State
    where
        Self::Update: 'a,
        I: IntoIterator<Item = &'a Self::Update>,
    {
        for u in updates {
            self.apply(&mut state, u);
        }
        state
    }

    /// Does `state` answer query `qi` with `qo`? (One step of the
    /// recognition relation for query letters.)
    fn answers(&self, state: &Self::State, qi: &Self::QueryIn, qo: &Self::QueryOut) -> bool {
        &self.observe(state, qi) == qo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set::{SetAdt, SetUpdate};
    use std::collections::BTreeSet;

    #[test]
    fn run_updates_folds_in_order() {
        let adt: SetAdt<u32> = SetAdt::new();
        let word = [
            SetUpdate::Insert(1),
            SetUpdate::Insert(2),
            SetUpdate::Delete(1),
        ];
        let s = adt.run_updates(&word);
        assert_eq!(s, BTreeSet::from([2]));
    }

    #[test]
    fn run_updates_from_continues_a_state() {
        let adt: SetAdt<u32> = SetAdt::new();
        let s1 = adt.run_updates(&[SetUpdate::Insert(7)]);
        let s2 = adt.run_updates_from(s1, &[SetUpdate::Insert(8), SetUpdate::Delete(7)]);
        assert_eq!(s2, BTreeSet::from([8]));
    }

    #[test]
    fn answers_matches_observe() {
        let adt: SetAdt<u32> = SetAdt::new();
        let s = adt.run_updates(&[SetUpdate::Insert(3)]);
        assert!(adt.answers(&s, &crate::set::SetQuery::Read, &BTreeSet::from([3])));
        assert!(!adt.answers(&s, &crate::set::SetQuery::Read, &BTreeSet::new()));
    }
}
