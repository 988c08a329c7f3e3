//! Witness-soundness properties: every positive verdict's witness
//! must itself satisfy the definition it certifies — the checkers are
//! not trusted, their evidence is re-validated independently.
//!
//! A brute-force reference also decides SC, PC and UC from their
//! definitions, by enumerating every linearization of the criterion's
//! scope, so a negative verdict is checked too: wherever a checker
//! answers at all (not `Unsupported`), it must agree.

use proptest::prelude::*;
use std::collections::BTreeSet;
use std::ops::ControlFlow;
use uc_criteria::{check_pc, check_sc, check_suc, check_uc, SucWitness, Verdict, Witness};
use uc_history::downset::Mask;
use uc_history::{chains, linearize, EventId, History, HistoryBuilder};
use uc_spec::recognize::Runner;
use uc_spec::{Op, SetAdt, SetQuery, SetUpdate, UqAdt};

#[derive(Clone, Debug)]
enum OpSpec {
    Ins(u32),
    Del(u32),
    Read(u8),
}

fn op_spec() -> impl Strategy<Value = OpSpec> {
    prop_oneof![
        (1u32..=2).prop_map(OpSpec::Ins),
        (1u32..=2).prop_map(OpSpec::Del),
        (0u8..4).prop_map(OpSpec::Read),
    ]
}

fn mask_to_set(m: u8) -> BTreeSet<u32> {
    let mut s = BTreeSet::new();
    if m & 1 != 0 {
        s.insert(1);
    }
    if m & 2 != 0 {
        s.insert(2);
    }
    s
}

fn build(procs: &[(Vec<OpSpec>, Option<u8>)]) -> History<SetAdt<u32>> {
    let mut b = HistoryBuilder::new(SetAdt::<u32>::new());
    for (ops, omega) in procs {
        let p = b.process();
        for op in ops {
            match op {
                OpSpec::Ins(v) => {
                    b.update(p, SetUpdate::Insert(*v));
                }
                OpSpec::Del(v) => {
                    b.update(p, SetUpdate::Delete(*v));
                }
                OpSpec::Read(m) => {
                    b.query(p, SetQuery::Read, mask_to_set(*m));
                }
            }
        }
        if let Some(m) = omega {
            b.omega_query(p, SetQuery::Read, mask_to_set(*m));
        }
    }
    b.build().unwrap()
}

fn proc_strategy() -> impl Strategy<Value = (Vec<OpSpec>, Option<u8>)> {
    (
        proptest::collection::vec(op_spec(), 0..3),
        proptest::option::of(0u8..4),
    )
}

/// Is some linearization of `scope` in `L(O)`, with every ω-query,
/// once placed, answering the state after each later update (its
/// infinitely many repetitions interleave with them), and with a final
/// state `at_end` accepts?
fn some_linearization(
    h: &History<SetAdt<u32>>,
    scope: Mask,
    at_end: impl Fn(&BTreeSet<u32>) -> bool,
) -> bool {
    let adt = h.adt();
    linearize::for_each(h, scope, |order| {
        let mut state = adt.initial();
        let mut placed: Vec<EventId> = Vec::new();
        for &e in order {
            let ok = match h.label(e) {
                Op::Update(u) => {
                    adt.apply(&mut state, u);
                    placed.iter().all(|&w| {
                        let q = h.query_of(w);
                        adt.answers(&state, &q.input, &q.output)
                    })
                }
                Op::Query(q) => adt.answers(&state, &q.input, &q.output),
            };
            if !ok {
                return ControlFlow::Continue(());
            }
            if h.event(e).omega {
                placed.push(e);
            }
        }
        if at_end(&state) {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    })
    .is_some()
}

/// SC (§VIII): some linearization of every event is in `L(O)`.
fn reference_sc(h: &History<SetAdt<u32>>) -> bool {
    some_linearization(h, h.all_mask(), |_| true)
}

/// PC (Definition 7): for every maximal chain `p`, some linearization
/// of `U_H ∪ p` is in `L(O)`.
fn reference_pc(h: &History<SetAdt<u32>>) -> bool {
    chains::maximal_chains(h, usize::MAX)
        .expect("no cap")
        .iter()
        .all(|p| some_linearization(h, h.updates_mask() | chains::chain_mask(p), |_| true))
}

/// UC (Definition 8, no ω-update): with every finite query removed,
/// some linearization of `U_H` ends in a state that answers each
/// ω-query's infinitely many repetitions.
fn reference_uc(h: &History<SetAdt<u32>>) -> bool {
    let omegas: Vec<EventId> = h.query_ids().filter(|&q| h.event(q).omega).collect();
    some_linearization(h, h.updates_mask(), |state| {
        omegas.iter().all(|&w| {
            let q = h.query_of(w);
            h.adt().answers(state, &q.input, &q.output)
        })
    })
}

/// Does `verdict` agree with the reference, wherever it answers?
fn agrees(verdict: &Verdict, reference: bool) -> bool {
    matches!(verdict, Verdict::Unsupported(_)) || verdict.holds() == reference
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `check_uc` decides what the brute-force reference decides.
    #[test]
    fn uc_agrees_with_brute_force(procs in proptest::collection::vec(proc_strategy(), 2..=3)) {
        let h = build(&procs);
        let v = check_uc(&h);
        prop_assert!(agrees(&v, reference_uc(&h)), "{:?} on {:?}", v, procs);
    }

    /// `check_pc` decides what the brute-force reference decides.
    #[test]
    fn pc_agrees_with_brute_force(procs in proptest::collection::vec(proc_strategy(), 2..=2)) {
        let h = build(&procs);
        let v = check_pc(&h);
        prop_assert!(agrees(&v, reference_pc(&h)), "{:?} on {:?}", v, procs);
    }

    /// `check_sc` decides what the brute-force reference decides.
    #[test]
    fn sc_agrees_with_brute_force(procs in proptest::collection::vec(proc_strategy(), 2..=2)) {
        let h = build(&procs);
        let v = check_sc(&h);
        prop_assert!(agrees(&v, reference_sc(&h)), "{:?} on {:?}", v, procs);
    }

    /// A UC witness is a genuine update linearization whose final
    /// state answers every ω query.
    #[test]
    fn uc_witness_is_sound(procs in proptest::collection::vec(proc_strategy(), 2..=3)) {
        let h = build(&procs);
        if let Verdict::Holds(Witness::UpdateLinearization { order, .. }) = check_uc(&h) {
            prop_assert!(linearize::is_linearization(&h, h.updates_mask(), &order));
            let adt = h.adt();
            let mut state = adt.initial();
            for e in &order {
                adt.apply(&mut state, h.update_of(*e));
            }
            for q in h.query_ids() {
                if h.event(q).omega {
                    let query = h.query_of(q);
                    prop_assert!(
                        adt.answers(&state, &query.input, &query.output),
                        "final state {:?} fails ω query {:?}",
                        state,
                        query
                    );
                }
            }
        }
    }

    /// A PC witness linearization replays in L(O) for its finite part
    /// and is a linearization of updates ∪ chain.
    #[test]
    fn pc_witness_is_sound(procs in proptest::collection::vec(proc_strategy(), 2..=2)) {
        let h = build(&procs);
        if let Verdict::Holds(Witness::PerChain(ws)) = check_pc(&h) {
            for w in &ws {
                let scope = h.updates_mask()
                    | w.chain
                        .iter()
                        .fold(0u128, |m, e| m | (1u128 << e.idx()));
                prop_assert!(linearize::is_linearization(&h, scope, &w.linearization));
                // Finite replay check (ω-tail interleavings are checked
                // by the search itself; the finite prefix must
                // recognise).
                let labels: Vec<Op<SetAdt<u32>>> = w
                    .linearization
                    .iter()
                    .map(|&e| h.label(e).clone())
                    .collect();
                prop_assert!(
                    Runner::new(h.adt()).run(labels.iter()).is_ok(),
                    "chain witness does not replay"
                );
            }
        }
    }

    /// A SUC witness passes the independent polynomial verifier.
    #[test]
    fn suc_witness_is_sound(procs in proptest::collection::vec(proc_strategy(), 2..=2)) {
        let h = build(&procs);
        if let Verdict::Holds(Witness::VisibilityAndOrder { visibility, order }) = check_suc(&h) {
            let w = SucWitness {
                update_order: order,
                visible: visibility.visible,
            };
            prop_assert_eq!(uc_criteria::verify_witness(&h, &w), Ok(()));
        }
    }

    /// An SC witness is a full-history linearization recognised by the
    /// ADT (finite prefix; ω constraints were enforced in-search).
    #[test]
    fn sc_witness_is_sound(procs in proptest::collection::vec(proc_strategy(), 2..=2)) {
        let h = build(&procs);
        if let Verdict::Holds(Witness::FullLinearization(order)) = check_sc(&h) {
            prop_assert!(linearize::is_linearization(&h, h.all_mask(), &order));
            let labels: Vec<Op<SetAdt<u32>>> =
                order.iter().map(|&e| h.label(e).clone()).collect();
            prop_assert!(Runner::new(h.adt()).run(labels.iter()).is_ok());
        }
    }
}
