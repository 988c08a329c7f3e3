//! An append-only log (sequence) — the substrate of collaborative
//! editing examples (§I cites intention preservation in collaborative
//! editors as a motivation) and of the "banks keep all operations"
//! storage argument of §VII-C.

use crate::abduce::StateAbduction;
use crate::adt::UqAdt;
use crate::invert::UndoableUqAdt;
use std::fmt::Debug;
use std::hash::Hash;
use std::marker::PhantomData;

/// Update alphabet of the log: appends.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Append<E>(pub E);

impl<E: Debug> Debug for Append<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "app({:?})", self.0)
    }
}

/// Query alphabet of the log.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub enum LogQuery {
    /// Read the full sequence.
    Read,
    /// Read the number of entries.
    Len,
}

impl Debug for LogQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogQuery::Read => write!(f, "R"),
            LogQuery::Len => write!(f, "len"),
        }
    }
}

/// Query outputs of the log.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum LogOut<E> {
    /// Output of [`LogQuery::Read`].
    Entries(Vec<E>),
    /// Output of [`LogQuery::Len`].
    Len(usize),
}

impl<E: Debug> Debug for LogOut<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogOut::Entries(es) => write!(f, "{es:?}"),
            LogOut::Len(n) => write!(f, "{n}"),
        }
    }
}

/// The append-only log UQ-ADT.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LogAdt<E> {
    _marker: PhantomData<fn() -> E>,
}

impl<E> LogAdt<E> {
    /// An initially empty log.
    pub fn new() -> Self {
        LogAdt {
            _marker: PhantomData,
        }
    }
}

impl<E> UqAdt for LogAdt<E>
where
    E: Clone + Debug + Eq + Hash,
{
    type Update = Append<E>;
    type QueryIn = LogQuery;
    type QueryOut = LogOut<E>;
    type State = Vec<E>;

    fn initial(&self) -> Self::State {
        Vec::new()
    }

    fn apply(&self, state: &mut Self::State, update: &Self::Update) {
        state.push(update.0.clone());
    }

    fn observe(&self, state: &Self::State, query: &Self::QueryIn) -> Self::QueryOut {
        match query {
            LogQuery::Read => LogOut::Entries(state.clone()),
            LogQuery::Len => LogOut::Len(state.len()),
        }
    }

    fn observe_owned(&self, state: Self::State, query: &Self::QueryIn) -> Self::QueryOut {
        match query {
            LogQuery::Read => LogOut::Entries(state),
            LogQuery::Len => LogOut::Len(state.len()),
        }
    }
}

impl<E> StateAbduction for LogAdt<E>
where
    E: Clone + Debug + Eq + Hash,
{
    fn abduce(&self, obs: &[(Self::QueryIn, Self::QueryOut)]) -> Option<Self::State> {
        let mut entries: Option<&Vec<E>> = None;
        let mut len: Option<usize> = None;
        for (qi, qo) in obs {
            match (qi, qo) {
                (LogQuery::Read, LogOut::Entries(es)) => match entries {
                    None => entries = Some(es),
                    Some(prev) if prev == es => {}
                    Some(_) => return None,
                },
                (LogQuery::Len, LogOut::Len(n)) => match len {
                    None => len = Some(*n),
                    Some(prev) if prev == *n => {}
                    Some(_) => return None,
                },
                // A query paired with the other query's output shape
                // can never be produced by G.
                _ => return None,
            }
        }
        match (entries, len) {
            (Some(es), Some(n)) if es.len() != n => None,
            (Some(es), _) => Some(es.clone()),
            (None, Some(n)) => {
                // No Read observed: any sequence of length n works, but
                // we can only materialise one if n == 0 (elements are
                // otherwise unconstrained and E may be uninhabited by
                // default values). n > 0 with no Read is satisfiable
                // exactly when E is inhabited; we conservatively fail,
                // and callers that need it pair Len with Read.
                if n == 0 {
                    Some(Vec::new())
                } else {
                    None
                }
            }
            (None, None) => Some(Vec::new()),
        }
    }
}

impl<E> UndoableUqAdt for LogAdt<E>
where
    E: Clone + Debug + Eq + Hash,
{
    type UndoToken = ();

    fn apply_with_undo(&self, state: &mut Self::State, update: &Self::Update) -> Self::UndoToken {
        state.push(update.0.clone());
    }

    fn undo(&self, state: &mut Self::State, _token: &Self::UndoToken) {
        state.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type L = LogAdt<&'static str>;

    #[test]
    fn appends_preserve_order() {
        let adt: L = LogAdt::new();
        let s = adt.run_updates(&[Append("a"), Append("b")]);
        assert_eq!(
            adt.observe(&s, &LogQuery::Read),
            LogOut::Entries(vec!["a", "b"])
        );
        assert_eq!(adt.observe(&s, &LogQuery::Len), LogOut::Len(2));
    }

    #[test]
    fn abduce_crosschecks_len_and_read() {
        let adt: L = LogAdt::new();
        let ok = adt.abduce_checked(&[
            (LogQuery::Read, LogOut::Entries(vec!["a"])),
            (LogQuery::Len, LogOut::Len(1)),
        ]);
        assert_eq!(ok, Some(vec!["a"]));
        let bad = adt.abduce_checked(&[
            (LogQuery::Read, LogOut::Entries(vec!["a"])),
            (LogQuery::Len, LogOut::Len(2)),
        ]);
        assert_eq!(bad, None);
    }

    #[test]
    fn undo_pops() {
        let adt: L = LogAdt::new();
        let mut s = vec!["a"];
        adt.apply_with_undo(&mut s, &Append("b"));
        adt.undo(&mut s, &());
        assert_eq!(s, vec!["a"]);
    }
}
