//! A set with a *partial-information* query alphabet: besides the
//! paper's whole-state read `R`, it answers membership probes
//! `contains(v)`. Definition 1 allows any countable query alphabet;
//! this type exercises the corner the plain set cannot: state
//! abduction from incomplete observations (a group of `contains`
//! answers constrains the state pointwise instead of pinning it),
//! which makes the SEC/EC checkers genuinely search a state space.

use crate::abduce::StateAbduction;
use crate::adt::UqAdt;
use crate::invert::UndoableUqAdt;
use crate::set::{SetAdt, SetUpdate};
use std::collections::BTreeSet;
use std::fmt::Debug;
use std::hash::Hash;

/// Query alphabet: whole-state read or membership probe.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum RichSetQuery<V> {
    /// `R` — read the whole content.
    Read,
    /// `contains(v)` — membership probe.
    Contains(V),
}

impl<V: Debug> Debug for RichSetQuery<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RichSetQuery::Read => write!(f, "R"),
            RichSetQuery::Contains(v) => write!(f, "has({v:?})"),
        }
    }
}

/// Query outputs.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum RichSetOut<V: Ord> {
    /// Output of [`RichSetQuery::Read`].
    Elems(BTreeSet<V>),
    /// Output of [`RichSetQuery::Contains`].
    Bool(bool),
}

impl<V: Ord + Debug> Debug for RichSetOut<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RichSetOut::Elems(s) => write!(f, "{s:?}"),
            RichSetOut::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// The set UQ-ADT with membership probes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RichSetAdt<V> {
    inner: SetAdt<V>,
}

impl<V> RichSetAdt<V> {
    /// A rich set over support `V` with empty initial state.
    pub fn new() -> Self {
        RichSetAdt {
            inner: SetAdt::new(),
        }
    }
}

impl<V> UqAdt for RichSetAdt<V>
where
    V: Clone + Debug + Eq + Ord + Hash,
{
    type Update = SetUpdate<V>;
    type QueryIn = RichSetQuery<V>;
    type QueryOut = RichSetOut<V>;
    type State = BTreeSet<V>;

    fn initial(&self) -> Self::State {
        BTreeSet::new()
    }

    fn apply(&self, state: &mut Self::State, update: &Self::Update) {
        self.inner.apply(state, update);
    }

    fn observe(&self, state: &Self::State, query: &Self::QueryIn) -> Self::QueryOut {
        match query {
            RichSetQuery::Read => RichSetOut::Elems(state.clone()),
            RichSetQuery::Contains(v) => RichSetOut::Bool(state.contains(v)),
        }
    }

    fn observe_owned(&self, state: Self::State, query: &Self::QueryIn) -> Self::QueryOut {
        match query {
            RichSetQuery::Read => RichSetOut::Elems(state),
            RichSetQuery::Contains(v) => RichSetOut::Bool(state.contains(v)),
        }
    }
}

impl<V> StateAbduction for RichSetAdt<V>
where
    V: Clone + Debug + Eq + Ord + Hash,
{
    fn abduce(&self, obs: &[(Self::QueryIn, Self::QueryOut)]) -> Option<Self::State> {
        // A full read pins the state; `contains` answers constrain it
        // pointwise. Start from the read (if any), then apply and
        // cross-check the probes.
        let mut pinned: Option<BTreeSet<V>> = None;
        for (qi, qo) in obs {
            if let (RichSetQuery::Read, RichSetOut::Elems(s)) = (qi, qo) {
                match &pinned {
                    None => pinned = Some(s.clone()),
                    Some(p) if p == s => {}
                    Some(_) => return None,
                }
            }
        }
        let mut must_in: BTreeSet<V> = BTreeSet::new();
        let mut must_out: BTreeSet<V> = BTreeSet::new();
        for (qi, qo) in obs {
            match (qi, qo) {
                (RichSetQuery::Contains(v), RichSetOut::Bool(true)) => {
                    must_in.insert(v.clone());
                }
                (RichSetQuery::Contains(v), RichSetOut::Bool(false)) => {
                    must_out.insert(v.clone());
                }
                (RichSetQuery::Read, RichSetOut::Elems(_)) => {}
                // Shape mismatches (a Read answered with a Bool or
                // vice versa) can never be produced by `G`.
                _ => return None,
            }
        }
        if must_in.intersection(&must_out).next().is_some() {
            return None;
        }
        match pinned {
            Some(s) => {
                if must_in.iter().all(|v| s.contains(v)) && must_out.iter().all(|v| !s.contains(v))
                {
                    Some(s)
                } else {
                    None
                }
            }
            // No read: the minimal satisfying state.
            None => Some(must_in),
        }
    }
}

impl<V> UndoableUqAdt for RichSetAdt<V>
where
    V: Clone + Debug + Eq + Ord + Hash,
{
    type UndoToken = <SetAdt<V> as UndoableUqAdt>::UndoToken;

    fn apply_with_undo(&self, state: &mut Self::State, update: &Self::Update) -> Self::UndoToken {
        self.inner.apply_with_undo(state, update)
    }

    fn undo(&self, state: &mut Self::State, token: &Self::UndoToken) {
        self.inner.undo(state, token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type R = RichSetAdt<u32>;

    #[test]
    fn contains_observes_membership() {
        let adt: R = RichSetAdt::new();
        let s = adt.run_updates(&[SetUpdate::Insert(3)]);
        assert_eq!(
            adt.observe(&s, &RichSetQuery::Contains(3)),
            RichSetOut::Bool(true)
        );
        assert_eq!(
            adt.observe(&s, &RichSetQuery::Contains(4)),
            RichSetOut::Bool(false)
        );
    }

    #[test]
    fn abduce_from_probes_only() {
        let adt: R = RichSetAdt::new();
        let s = adt
            .abduce_checked(&[
                (RichSetQuery::Contains(1), RichSetOut::Bool(true)),
                (RichSetQuery::Contains(2), RichSetOut::Bool(false)),
                (RichSetQuery::Contains(3), RichSetOut::Bool(true)),
            ])
            .expect("satisfiable");
        assert!(s.contains(&1) && s.contains(&3) && !s.contains(&2));
    }

    #[test]
    fn abduce_detects_probe_contradiction() {
        let adt: R = RichSetAdt::new();
        assert!(adt
            .abduce_checked(&[
                (RichSetQuery::Contains(1), RichSetOut::Bool(true)),
                (RichSetQuery::Contains(1), RichSetOut::Bool(false)),
            ])
            .is_none());
    }

    #[test]
    fn abduce_crosschecks_read_and_probes() {
        let adt: R = RichSetAdt::new();
        let read = (
            RichSetQuery::Read,
            RichSetOut::Elems(BTreeSet::from([1, 2])),
        );
        assert!(adt
            .abduce_checked(&[
                read.clone(),
                (RichSetQuery::Contains(1), RichSetOut::Bool(true)),
            ])
            .is_some());
        assert!(adt
            .abduce_checked(&[read, (RichSetQuery::Contains(1), RichSetOut::Bool(false)),])
            .is_none());
    }

    #[test]
    fn shape_mismatch_is_unsatisfiable() {
        let adt: R = RichSetAdt::new();
        assert!(adt
            .abduce_checked(&[(RichSetQuery::Read, RichSetOut::Bool(true))])
            .is_none());
    }
}
