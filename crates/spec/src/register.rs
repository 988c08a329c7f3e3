//! A single read/write register — the one-cell special case of the
//! shared memory object of Algorithm 2.

use crate::abduce::StateAbduction;
use crate::adt::UqAdt;
use crate::invert::UndoableUqAdt;
use std::fmt::Debug;
use std::hash::Hash;

/// Update alphabet of the register: writes.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Write<V>(pub V);

impl<V: Debug> Debug for Write<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "w({:?})", self.0)
    }
}

/// Query alphabet of the register: the parameterless read.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegRead;

impl Debug for RegRead {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r")
    }
}

/// The register UQ-ADT, parameterised by its initial value `v0`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RegisterAdt<V> {
    initial: V,
}

impl<V> RegisterAdt<V> {
    /// A register with initial value `v0`.
    pub fn new(v0: V) -> Self {
        RegisterAdt { initial: v0 }
    }
}

impl<V> UqAdt for RegisterAdt<V>
where
    V: Clone + Debug + Eq + Hash,
{
    type Update = Write<V>;
    type QueryIn = RegRead;
    type QueryOut = V;
    type State = V;

    fn initial(&self) -> Self::State {
        self.initial.clone()
    }

    fn apply(&self, state: &mut Self::State, update: &Self::Update) {
        *state = update.0.clone();
    }

    fn observe(&self, state: &Self::State, _query: &Self::QueryIn) -> Self::QueryOut {
        state.clone()
    }

    fn observe_owned(&self, state: Self::State, _query: &Self::QueryIn) -> Self::QueryOut {
        state
    }
}

impl<V> StateAbduction for RegisterAdt<V>
where
    V: Clone + Debug + Eq + Hash,
{
    fn abduce(&self, obs: &[(Self::QueryIn, Self::QueryOut)]) -> Option<Self::State> {
        let mut candidate: Option<&V> = None;
        for (_read, out) in obs {
            match candidate {
                None => candidate = Some(out),
                Some(c) if c == out => {}
                Some(_) => return None,
            }
        }
        Some(candidate.cloned().unwrap_or_else(|| self.initial.clone()))
    }
}

impl<V> UndoableUqAdt for RegisterAdt<V>
where
    V: Clone + Debug + Eq + Hash,
{
    /// The overwritten value.
    type UndoToken = V;

    fn apply_with_undo(&self, state: &mut Self::State, update: &Self::Update) -> Self::UndoToken {
        std::mem::replace(state, update.0.clone())
    }

    fn undo(&self, state: &mut Self::State, token: &Self::UndoToken) {
        *state = token.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_write_wins_sequentially() {
        let adt = RegisterAdt::new(0u32);
        let s = adt.run_updates(&[Write(1), Write(2), Write(3)]);
        assert_eq!(s, 3);
    }

    #[test]
    fn initial_value_is_parameter() {
        let adt = RegisterAdt::new(7u32);
        assert_eq!(adt.initial(), 7);
        assert_eq!(adt.observe(&adt.initial(), &RegRead), 7);
    }

    #[test]
    fn abduce_defaults_to_initial() {
        let adt = RegisterAdt::new(7u32);
        assert_eq!(adt.abduce_checked(&[]), Some(7));
        assert_eq!(adt.abduce_checked(&[(RegRead, 3)]), Some(3));
        assert_eq!(adt.abduce_checked(&[(RegRead, 3), (RegRead, 4)]), None);
    }

    #[test]
    fn undo_restores_overwritten_value() {
        let adt = RegisterAdt::new(0u32);
        let mut s = 5;
        let t = adt.apply_with_undo(&mut s, &Write(9));
        assert_eq!(s, 9);
        adt.undo(&mut s, &t);
        assert_eq!(s, 5);
    }
}
