//! Experiment E6 — the §VI case study: on conflict workloads the
//! eventually consistent sets disagree with each other and with the
//! update-consistent set, each according to its documented policy.

use std::collections::BTreeSet;
use update_consistency::core::GenericReplica;
use update_consistency::crdt::{CSet, LwwSet, OrSet, PnSet, SetReplica, TwoPhaseSet};
use update_consistency::spec::{SetAdt, SetUpdate};

/// Drive the Fig. 1b schedule (`p0: I(1)·D(2)`, `p1: I(2)·D(1)`,
/// cross-delivery after both finish) through any [`SetReplica`].
fn fig1b_schedule<S: SetReplica<u32>>(mut p0: S, mut p1: S) -> (BTreeSet<u32>, BTreeSet<u32>) {
    let a1 = p0.insert(1);
    let a2 = p0.delete(2);
    let b1 = p1.insert(2);
    let b2 = p1.delete(1);
    p0.on_message(&b1);
    p0.on_message(&b2);
    p1.on_message(&a1);
    p1.on_message(&a2);
    (p0.read(), p1.read())
}

#[test]
fn or_set_converges_to_the_non_uc_state() {
    // §VI: "the insertions will win and the OR-set will converge to
    // {1,2}" — the state Fig. 1b proves unreachable sequentially.
    let (s0, s1) = fig1b_schedule(OrSet::new(0), OrSet::new(1));
    assert_eq!(s0, s1);
    assert_eq!(s0, BTreeSet::from([1, 2]));
}

#[test]
fn update_consistent_set_reaches_a_sequentially_explicable_state() {
    // Algorithm 1 on the same schedule: the converged state must be
    // one of the three states §V lists as reachable by linearizing
    // the four updates (∅, {1}, {2}) — never {1,2}.
    let mut p0: GenericReplica<SetAdt<u32>> = GenericReplica::new(SetAdt::new(), 0);
    let mut p1: GenericReplica<SetAdt<u32>> = GenericReplica::new(SetAdt::new(), 1);
    let a1 = p0.update(SetUpdate::Insert(1));
    let a2 = p0.update(SetUpdate::Delete(2));
    let b1 = p1.update(SetUpdate::Insert(2));
    let b2 = p1.update(SetUpdate::Delete(1));
    p0.on_deliver(b1);
    p0.on_deliver(b2);
    p1.on_deliver(a1);
    p1.on_deliver(a2);
    let s0 = p0.materialize();
    let s1 = p1.materialize();
    assert_eq!(s0, s1);
    let legal: [BTreeSet<u32>; 3] = [BTreeSet::new(), BTreeSet::from([1]), BTreeSet::from([2])];
    assert!(
        legal.contains(&s0),
        "state {s0:?} is not reachable by any linearization of the updates"
    );
    assert_ne!(s0, BTreeSet::from([1, 2]));
}

#[test]
fn two_phase_set_lets_removes_win() {
    let (s0, s1) = fig1b_schedule(TwoPhaseSet::new(), TwoPhaseSet::new());
    assert_eq!(s0, s1);
    // D(1) and D(2) tombstone both elements forever.
    assert!(s0.is_empty(), "2P-Set: {s0:?}");
}

#[test]
fn counting_sets_follow_their_counters() {
    let (s0, s1) = fig1b_schedule(PnSet::new(), PnSet::new());
    assert_eq!(s0, s1);
    // Each element: one insert (+1), one delete (−1) → count 0 → absent.
    assert!(s0.is_empty(), "PN-Set: {s0:?}");

    let (c0, c1) = fig1b_schedule(CSet::new(), CSet::new());
    assert_eq!(c0, c1);
    // The deletes observed nothing locally (compensation delta 0), so
    // the inserts' +1s survive: C-Set keeps both elements.
    assert_eq!(c0, BTreeSet::from([1, 2]), "C-Set: {c0:?}");
}

#[test]
fn lww_set_resolves_by_timestamps() {
    let (s0, s1) = fig1b_schedule(LwwSet::new(0), LwwSet::new(1));
    assert_eq!(s0, s1);
    // Stamps: I(1)=(1,0), D(2)=(2,0), I(2)=(1,1), D(1)=(2,1):
    // element 1: add (1,0) < del (2,1) → absent;
    // element 2: add (1,1) < del (2,0) → absent.
    assert!(s0.is_empty(), "LWW-Set: {s0:?}");
}

#[test]
fn all_five_policies_are_documented_and_distinct_somewhere() {
    // One schedule on which at least three distinct final states
    // appear across implementations — the §VI point that "all these
    // sets have a different behavior when used in distributed
    // programs".
    let outcomes: Vec<(&str, BTreeSet<u32>)> = vec![
        ("or", fig1b_schedule(OrSet::new(0), OrSet::new(1)).0),
        (
            "2p",
            fig1b_schedule(TwoPhaseSet::new(), TwoPhaseSet::new()).0,
        ),
        ("pn", fig1b_schedule(PnSet::new(), PnSet::new()).0),
        ("c", fig1b_schedule(CSet::new(), CSet::new()).0),
        ("lww", fig1b_schedule(LwwSet::new(0), LwwSet::new(1)).0),
    ];
    let distinct: BTreeSet<&BTreeSet<u32>> = outcomes.iter().map(|(_, s)| s).collect();
    assert!(
        distinct.len() >= 2,
        "expected divergent policies, got {outcomes:?}"
    );
}

#[test]
fn footprints_reflect_retention_policies() {
    // 100 insert/delete cycles of one element.
    let mut or: OrSet<u32> = OrSet::new(0);
    let mut lww: LwwSet<u32> = LwwSet::new(0);
    let mut tp: TwoPhaseSet<u32> = TwoPhaseSet::new();
    for _ in 0..100 {
        or.insert(7);
        or.delete(7);
        lww.insert(7);
        lww.delete(7);
        tp.insert(7);
        tp.delete(7);
    }
    assert_eq!(or.footprint(), 100, "OR-Set keeps every tombstoned tag");
    assert_eq!(lww.footprint(), 1, "LWW keeps latest stamps only");
    assert_eq!(tp.footprint(), 2, "2P keeps one white + one black entry");
}
