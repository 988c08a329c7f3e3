//! The grow-only set (G-Set) — §VI and §VII-C's canonical *pure CRDT*:
//! all updates commute, so every linearization reaches the same state
//! and a naive apply-on-delivery implementation is already update
//! consistent.

use crate::abduce::StateAbduction;
use crate::adt::UqAdt;
use crate::invert::UndoableUqAdt;
use crate::set::SetQuery;
use std::collections::BTreeSet;
use std::fmt::Debug;
use std::hash::Hash;
use std::marker::PhantomData;

/// Update alphabet of the grow-only set: insertions only.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct GrowInsert<V>(pub V);

impl<V: Debug> Debug for GrowInsert<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "I({:?})", self.0)
    }
}

/// The grow-only set UQ-ADT.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GrowSetAdt<V> {
    _marker: PhantomData<fn() -> V>,
}

impl<V> GrowSetAdt<V> {
    /// A grow-only set with empty initial state.
    pub fn new() -> Self {
        GrowSetAdt {
            _marker: PhantomData,
        }
    }
}

impl<V> UqAdt for GrowSetAdt<V>
where
    V: Clone + Debug + Eq + Ord + Hash,
{
    type Update = GrowInsert<V>;
    type QueryIn = SetQuery;
    type QueryOut = BTreeSet<V>;
    type State = BTreeSet<V>;

    fn initial(&self) -> Self::State {
        BTreeSet::new()
    }

    fn apply(&self, state: &mut Self::State, update: &Self::Update) {
        state.insert(update.0.clone());
    }

    fn observe(&self, state: &Self::State, _query: &Self::QueryIn) -> Self::QueryOut {
        state.clone()
    }

    fn observe_owned(&self, state: Self::State, _query: &Self::QueryIn) -> Self::QueryOut {
        state
    }
}

impl<V> StateAbduction for GrowSetAdt<V>
where
    V: Clone + Debug + Eq + Ord + Hash,
{
    fn abduce(&self, obs: &[(Self::QueryIn, Self::QueryOut)]) -> Option<Self::State> {
        let mut candidate: Option<&BTreeSet<V>> = None;
        for (_read, out) in obs {
            match candidate {
                None => candidate = Some(out),
                Some(c) if c == out => {}
                Some(_) => return None,
            }
        }
        Some(candidate.cloned().unwrap_or_default())
    }
}

impl<V> UndoableUqAdt for GrowSetAdt<V>
where
    V: Clone + Debug + Eq + Ord + Hash,
{
    /// `Some(v)` if the insertion actually added `v`.
    type UndoToken = Option<V>;

    fn apply_with_undo(&self, state: &mut Self::State, update: &Self::Update) -> Self::UndoToken {
        if state.insert(update.0.clone()) {
            Some(update.0.clone())
        } else {
            None
        }
    }

    fn undo(&self, state: &mut Self::State, token: &Self::UndoToken) {
        if let Some(v) = token {
            state.remove(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insertions_commute() {
        let adt: GrowSetAdt<u32> = GrowSetAdt::new();
        let a = adt.run_updates(&[GrowInsert(1), GrowInsert(2), GrowInsert(3)]);
        let b = adt.run_updates(&[GrowInsert(3), GrowInsert(1), GrowInsert(2)]);
        assert_eq!(a, b);
    }

    #[test]
    fn undo_only_removes_fresh_inserts() {
        let adt: GrowSetAdt<u32> = GrowSetAdt::new();
        let mut s = BTreeSet::from([1]);
        let t1 = adt.apply_with_undo(&mut s, &GrowInsert(1)); // already there
        let t2 = adt.apply_with_undo(&mut s, &GrowInsert(2)); // fresh
        adt.undo(&mut s, &t2);
        adt.undo(&mut s, &t1);
        assert_eq!(s, BTreeSet::from([1]));
    }
}
