//! The replicated set `S_Val` of Example 1 — the paper's running
//! example.
//!
//! Updates are `I(v)` (insert) and `D(v)` (delete); the single query
//! `R` returns the whole current content. The state set is
//! `P_<∞(Val)`, the finite subsets of the support.

use crate::abduce::StateAbduction;
use crate::adt::UqAdt;
use crate::invert::UndoableUqAdt;
use std::collections::BTreeSet;
use std::fmt::Debug;
use std::hash::Hash;
use std::marker::PhantomData;

/// Update alphabet of the set: `U = {I(v), D(v) : v ∈ Val}`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub enum SetUpdate<V> {
    /// `I(v)` — insert `v`.
    Insert(V),
    /// `D(v)` — delete `v`.
    Delete(V),
}

impl<V: Debug> Debug for SetUpdate<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SetUpdate::Insert(v) => write!(f, "I({v:?})"),
            SetUpdate::Delete(v) => write!(f, "D({v:?})"),
        }
    }
}

impl<V> SetUpdate<V> {
    /// The element this update touches.
    pub fn element(&self) -> &V {
        match self {
            SetUpdate::Insert(v) | SetUpdate::Delete(v) => v,
        }
    }

    /// Is this an insertion?
    pub fn is_insert(&self) -> bool {
        matches!(self, SetUpdate::Insert(_))
    }
}

/// Query alphabet of the set: the single read `R` with no parameter.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub enum SetQuery {
    /// `R` — read the whole content.
    Read,
}

impl Debug for SetQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "R")
    }
}

/// The set UQ-ADT `S_Val` (Example 1).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SetAdt<V> {
    _marker: PhantomData<fn() -> V>,
}

impl<V> SetAdt<V> {
    /// A set over support `V` with empty initial state.
    pub fn new() -> Self {
        SetAdt {
            _marker: PhantomData,
        }
    }
}

impl<V> UqAdt for SetAdt<V>
where
    V: Clone + Debug + Eq + Ord + Hash,
{
    type Update = SetUpdate<V>;
    type QueryIn = SetQuery;
    type QueryOut = BTreeSet<V>;
    type State = BTreeSet<V>;

    fn initial(&self) -> Self::State {
        BTreeSet::new()
    }

    fn apply(&self, state: &mut Self::State, update: &Self::Update) {
        match update {
            SetUpdate::Insert(v) => {
                state.insert(v.clone());
            }
            SetUpdate::Delete(v) => {
                state.remove(v);
            }
        }
    }

    fn observe(&self, state: &Self::State, _query: &Self::QueryIn) -> Self::QueryOut {
        // The only query is `R`, which returns the whole content.
        state.clone()
    }

    fn observe_owned(&self, state: Self::State, _query: &Self::QueryIn) -> Self::QueryOut {
        state
    }
}

impl<V> StateAbduction for SetAdt<V>
where
    V: Clone + Debug + Eq + Ord + Hash,
{
    fn abduce(&self, obs: &[(Self::QueryIn, Self::QueryOut)]) -> Option<Self::State> {
        // `R` reveals the entire state, so all observations must agree.
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

/// Undo evidence for a set update: whether the update actually changed
/// membership of its element.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SetUndo<V> {
    element: V,
    /// `true` if the element must be re-inserted to undo, `false` if it
    /// must be removed, `None`-like no-op encoded by `changed = false`.
    was_present: bool,
    changed: bool,
}

impl<V> UndoableUqAdt for SetAdt<V>
where
    V: Clone + Debug + Eq + Ord + Hash,
{
    type UndoToken = SetUndo<V>;

    fn apply_with_undo(&self, state: &mut Self::State, update: &Self::Update) -> Self::UndoToken {
        let element = update.element().clone();
        let was_present = state.contains(&element);
        self.apply(state, update);
        let now_present = state.contains(&element);
        SetUndo {
            element,
            was_present,
            changed: was_present != now_present,
        }
    }

    fn undo(&self, state: &mut Self::State, token: &Self::UndoToken) {
        if token.changed {
            if token.was_present {
                state.insert(token.element.clone());
            } else {
                state.remove(&token.element);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Op;
    use crate::recognize::recognizes;

    type S = SetAdt<u32>;

    #[test]
    fn insert_then_delete_yields_absence() {
        let adt: S = SetAdt::new();
        let mut s = adt.initial();
        adt.apply(&mut s, &SetUpdate::Insert(4));
        adt.apply(&mut s, &SetUpdate::Delete(4));
        assert!(s.is_empty());
    }

    #[test]
    fn delete_of_absent_is_noop() {
        let adt: S = SetAdt::new();
        let mut s = BTreeSet::from([1]);
        adt.apply(&mut s, &SetUpdate::Delete(2));
        assert_eq!(s, BTreeSet::from([1]));
    }

    #[test]
    fn double_insert_is_idempotent() {
        let adt: S = SetAdt::new();
        let mut s = adt.initial();
        adt.apply(&mut s, &SetUpdate::Insert(1));
        adt.apply(&mut s, &SetUpdate::Insert(1));
        assert_eq!(s, BTreeSet::from([1]));
    }

    #[test]
    fn read_reveals_state() {
        let adt: S = SetAdt::new();
        let s = BTreeSet::from([3, 5]);
        assert_eq!(adt.observe(&s, &SetQuery::Read), s);
    }

    #[test]
    fn paper_example_language_membership() {
        // The three consistent final states of Fig. 1b's updates, as
        // listed in §V: I(1)·I(2)·D(1)·D(2) → ∅,
        // I(2)·D(1)·I(1)·D(2) → {1}, I(1)·D(2)·I(2)·D(1) → {2}.
        let adt: S = SetAdt::new();
        let cases: [(&[SetUpdate<u32>], &[u32]); 3] = [
            (
                &[
                    SetUpdate::Insert(1),
                    SetUpdate::Insert(2),
                    SetUpdate::Delete(1),
                    SetUpdate::Delete(2),
                ],
                &[],
            ),
            (
                &[
                    SetUpdate::Insert(2),
                    SetUpdate::Delete(1),
                    SetUpdate::Insert(1),
                    SetUpdate::Delete(2),
                ],
                &[1],
            ),
            (
                &[
                    SetUpdate::Insert(1),
                    SetUpdate::Delete(2),
                    SetUpdate::Insert(2),
                    SetUpdate::Delete(1),
                ],
                &[2],
            ),
        ];
        for (word, expect) in cases {
            let mut ops: Vec<Op<S>> = word.iter().copied().map(Op::Update).collect();
            ops.push(Op::query(SetQuery::Read, expect.iter().copied().collect()));
            assert!(
                recognizes(&adt, &ops),
                "word {word:?} should reach {expect:?}"
            );
        }
    }

    #[test]
    fn update_debug_matches_paper_notation() {
        assert_eq!(format!("{:?}", SetUpdate::Insert(1u32)), "I(1)");
        assert_eq!(format!("{:?}", SetUpdate::Delete(2u32)), "D(2)");
    }
}
