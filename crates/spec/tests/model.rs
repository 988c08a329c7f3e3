//! Model-based property tests: each UQ-ADT's transition system agrees
//! with the obvious std-collection model on random operation words,
//! every undoable ADT satisfies the undo law on random words, and every
//! ADT's `observe_owned` answers as its `observe` does.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use uc_spec::gset::GrowInsert;
use uc_spec::log::{Append, LogQuery};
use uc_spec::queue::QueueOut;
use uc_spec::register::{RegRead, Write};
use uc_spec::stack::{StackOut, StackQuery};
use uc_spec::{
    CounterAdt, CounterQuery, CounterUpdate, GrowSetAdt, LogAdt, MemoryAdt, MemoryQuery,
    MemoryUpdate, QueueAdt, QueueQuery, QueueUpdate, RegisterAdt, RichSetAdt, RichSetQuery, SetAdt,
    SetQuery, SetUpdate, StackAdt, StackUpdate, UndoableUqAdt, UqAdt,
};

#[derive(Clone, Copy, Debug)]
enum SetCmd {
    Ins(u8),
    Del(u8),
}

fn set_cmd() -> impl Strategy<Value = SetCmd> {
    prop_oneof![
        (0u8..8).prop_map(SetCmd::Ins),
        (0u8..8).prop_map(SetCmd::Del)
    ]
}

/// `observe_owned(s.clone(), q) == observe(&s, q)` for every query of
/// `queries`, in the initial state and after every update of `word`.
fn owned_answers_as_observe<A: UqAdt>(
    adt: &A,
    word: impl IntoIterator<Item = A::Update>,
    queries: &[A::QueryIn],
) {
    let mut state = adt.initial();
    let mut word = word.into_iter();
    loop {
        for q in queries {
            prop_assert_eq!(
                adt.observe_owned(state.clone(), q),
                adt.observe(&state, q),
                "query {:?} in {:?}",
                q,
                state
            );
        }
        let Some(u) = word.next() else {
            return;
        };
        adt.apply(&mut state, &u);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every ADT answers an owned state as it answers a borrowed one,
    /// on random update words and every query.
    #[test]
    fn observe_owned_answers_as_observe(
        word in proptest::collection::vec((any::<bool>(), 0u8..8), 0..24)
    ) {
        let sets = || word.iter().map(|&(insert, v)| match insert {
            true => SetUpdate::Insert(v),
            false => SetUpdate::Delete(v),
        });
        let values = || word.iter().map(|&(_, v)| v);
        owned_answers_as_observe(&SetAdt::new(), sets(), &[SetQuery::Read]);
        let rich: Vec<_> = (0..8).map(RichSetQuery::Contains).chain([RichSetQuery::Read]).collect();
        owned_answers_as_observe(&RichSetAdt::new(), sets(), &rich);
        owned_answers_as_observe(&GrowSetAdt::new(), values().map(GrowInsert), &[SetQuery::Read]);
        owned_answers_as_observe(&RegisterAdt::new(0u8), values().map(Write), &[RegRead]);
        owned_answers_as_observe(
            &LogAdt::new(),
            values().map(Append),
            &[LogQuery::Read, LogQuery::Len],
        );
        owned_answers_as_observe(
            &CounterAdt,
            sets().map(|u| match u {
                SetUpdate::Insert(v) => CounterUpdate::Add(i64::from(v)),
                SetUpdate::Delete(v) => CounterUpdate::Add(-i64::from(v)),
            }),
            &[CounterQuery::Read],
        );
        owned_answers_as_observe(
            &QueueAdt::new(),
            sets().map(|u| match u {
                SetUpdate::Insert(v) => QueueUpdate::Enqueue(v),
                SetUpdate::Delete(_) => QueueUpdate::Pop,
            }),
            &[QueueQuery::Front, QueueQuery::Len],
        );
        owned_answers_as_observe(
            &StackAdt::new(),
            sets().map(|u| match u {
                SetUpdate::Insert(v) => StackUpdate::Push(v),
                SetUpdate::Delete(_) => StackUpdate::DeleteTop,
            }),
            &[StackQuery::Top, StackQuery::Depth],
        );
        let probes: Vec<_> = (0..4).map(MemoryQuery).collect();
        owned_answers_as_observe(
            &MemoryAdt::new(0u8),
            values().map(|v| MemoryUpdate { register: v % 4, value: v }),
            &probes,
        );
    }

    /// The set ADT is the BTreeSet model.
    #[test]
    fn set_matches_btreeset_model(cmds in proptest::collection::vec(set_cmd(), 0..40)) {
        let adt: SetAdt<u8> = SetAdt::new();
        let mut state = adt.initial();
        let mut model: BTreeSet<u8> = BTreeSet::new();
        for c in cmds {
            match c {
                SetCmd::Ins(v) => {
                    adt.apply(&mut state, &SetUpdate::Insert(v));
                    model.insert(v);
                }
                SetCmd::Del(v) => {
                    adt.apply(&mut state, &SetUpdate::Delete(v));
                    model.remove(&v);
                }
            }
            prop_assert_eq!(&adt.observe(&state, &SetQuery::Read), &model);
        }
    }

    /// The counter ADT is i64 addition.
    #[test]
    fn counter_matches_sum(deltas in proptest::collection::vec(-100i64..100, 0..40)) {
        let adt = CounterAdt;
        let mut state = adt.initial();
        let mut model = 0i64;
        for d in deltas {
            adt.apply(&mut state, &CounterUpdate::Add(d));
            model = model.wrapping_add(d);
            prop_assert_eq!(state, model);
        }
    }

    /// The queue ADT is the VecDeque model.
    #[test]
    fn queue_matches_vecdeque_model(
        cmds in proptest::collection::vec(
            prop_oneof![(0u8..10).prop_map(Some), Just(None)], 0..40
        )
    ) {
        let adt: QueueAdt<u8> = QueueAdt::new();
        let mut state = adt.initial();
        let mut model: VecDeque<u8> = VecDeque::new();
        for c in cmds {
            match c {
                Some(v) => {
                    adt.apply(&mut state, &QueueUpdate::Enqueue(v));
                    model.push_back(v);
                }
                None => {
                    adt.apply(&mut state, &QueueUpdate::Pop);
                    model.pop_front();
                }
            }
            prop_assert_eq!(
                adt.observe(&state, &QueueQuery::Front),
                QueueOut::Front(model.front().copied())
            );
            prop_assert_eq!(
                adt.observe(&state, &QueueQuery::Len),
                QueueOut::Len(model.len())
            );
        }
    }

    /// The stack ADT is the Vec model.
    #[test]
    fn stack_matches_vec_model(
        cmds in proptest::collection::vec(
            prop_oneof![(0u8..10).prop_map(Some), Just(None)], 0..40
        )
    ) {
        let adt: StackAdt<u8> = StackAdt::new();
        let mut state = adt.initial();
        let mut model: Vec<u8> = Vec::new();
        for c in cmds {
            match c {
                Some(v) => {
                    adt.apply(&mut state, &StackUpdate::Push(v));
                    model.push(v);
                }
                None => {
                    adt.apply(&mut state, &StackUpdate::DeleteTop);
                    model.pop();
                }
            }
            prop_assert_eq!(
                adt.observe(&state, &StackQuery::Top),
                StackOut::Top(model.last().copied())
            );
        }
    }

    /// The memory ADT is the BTreeMap model (with v0 default).
    #[test]
    fn memory_matches_btreemap_model(
        writes in proptest::collection::vec((0u8..6, 0u16..100), 0..40)
    ) {
        let adt: MemoryAdt<u8, u16> = MemoryAdt::new(0);
        let mut state = adt.initial();
        let mut model: BTreeMap<u8, u16> = BTreeMap::new();
        for (x, v) in writes {
            adt.apply(&mut state, &MemoryUpdate { register: x, value: v });
            model.insert(x, v);
            for probe in 0..6u8 {
                prop_assert_eq!(
                    adt.observe(&state, &MemoryQuery(probe)),
                    model.get(&probe).copied().unwrap_or(0)
                );
            }
        }
    }

    /// LIFO undo of any word restores the initial state — the law the
    /// Karsenty-style variant relies on (set).
    #[test]
    fn set_undo_law(cmds in proptest::collection::vec(set_cmd(), 0..30)) {
        let adt: SetAdt<u8> = SetAdt::new();
        let mut state = adt.initial();
        let mut toks = Vec::new();
        for c in &cmds {
            let u = match c {
                SetCmd::Ins(v) => SetUpdate::Insert(*v),
                SetCmd::Del(v) => SetUpdate::Delete(*v),
            };
            toks.push(adt.apply_with_undo(&mut state, &u));
        }
        for t in toks.iter().rev() {
            adt.undo(&mut state, t);
        }
        prop_assert_eq!(state, adt.initial());
    }

    /// Same undo law for the memory ADT.
    #[test]
    fn memory_undo_law(writes in proptest::collection::vec((0u8..6, 0u16..10), 0..30)) {
        let adt: MemoryAdt<u8, u16> = MemoryAdt::new(0);
        let mut state = adt.initial();
        let mut toks = Vec::new();
        for (x, v) in &writes {
            toks.push(adt.apply_with_undo(
                &mut state,
                &MemoryUpdate { register: *x, value: *v },
            ));
        }
        for t in toks.iter().rev() {
            adt.undo(&mut state, t);
        }
        prop_assert_eq!(state, adt.initial());
    }

    /// Undo applied mid-word restores exactly the pre-suffix state
    /// (the actual pattern UndoReplica uses).
    #[test]
    fn set_partial_undo_restores_prefix_state(
        prefix in proptest::collection::vec(set_cmd(), 0..15),
        suffix in proptest::collection::vec(set_cmd(), 0..15),
    ) {
        let adt: SetAdt<u8> = SetAdt::new();
        let mut state = adt.initial();
        for c in &prefix {
            let u = match c {
                SetCmd::Ins(v) => SetUpdate::Insert(*v),
                SetCmd::Del(v) => SetUpdate::Delete(*v),
            };
            adt.apply(&mut state, &u);
        }
        let checkpoint = state.clone();
        let mut toks = Vec::new();
        for c in &suffix {
            let u = match c {
                SetCmd::Ins(v) => SetUpdate::Insert(*v),
                SetCmd::Del(v) => SetUpdate::Delete(*v),
            };
            toks.push(adt.apply_with_undo(&mut state, &u));
        }
        for t in toks.iter().rev() {
            adt.undo(&mut state, t);
        }
        prop_assert_eq!(state, checkpoint);
    }
}
