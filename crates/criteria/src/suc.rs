//! Strong update consistency (Definition 9).
//!
//! `H` is SUC if there are (1) an acyclic reflexive `vis ⊇ ↦` and
//! (2) a total order `≤ ⊇ vis` such that eventual delivery and growth
//! hold and — *strong sequential convergence* — every query is
//! answered by replaying exactly its visible updates in `≤` order from
//! the initial state.
//!
//! The decision procedure enumerates linearizations `τ` of the update
//! events (any total `≤` restricted to updates is one, and queries'
//! positions in `≤` are irrelevant beyond `u vis→ q ⇒ u ≤ q`, which
//! acyclicity of `vis ∪ ↦ ∪ τ` captures), and for each `τ` runs the
//! visibility search with a per-query replay admission check.
//!
//! The module also provides [`verify_witness`]: given an explicit
//! witness (as produced by Algorithm 1's replicas, whose timestamp
//! order *is* `≤` and whose received-log *is* `vis`), SUC is verified
//! in polynomial time — this is how Proposition 4 is validated on
//! traces too large for search.

use crate::config::{Budget, CheckConfig, Search};
use crate::verdict::{Verdict, VisibilityWitness, Witness};
use crate::vis::{is_acyclic, witness_pairs, VisAssignment, VisEnum};
use std::ops::ControlFlow;
use uc_history::downset::{self, Mask};
use uc_history::{linearize, EventId, History};
use uc_spec::UqAdt;

/// Decide strong update consistency with the default budget.
pub fn check_suc<A: UqAdt>(h: &History<A>) -> Verdict {
    check_suc_with(h, &CheckConfig::default())
}

/// Decide strong update consistency with an explicit budget.
pub fn check_suc_with<A: UqAdt>(h: &History<A>, cfg: &CheckConfig) -> Verdict {
    if h.has_omega_update() {
        return Verdict::Unsupported(
            "strong update consistency with ω-updates is outside the decision procedure".into(),
        );
    }
    let mut budget = Budget::new(cfg);
    let found = linearize::for_each(h, h.updates_mask(), |tau| {
        match try_tau(h, tau, &mut budget) {
            Search::Found(a) => ControlFlow::Break(Search::Found((tau.to_vec(), a))),
            Search::Exhausted => ControlFlow::Continue(()),
            Search::OutOfBudget => ControlFlow::Break(Search::OutOfBudget),
        }
    });
    match found.unwrap_or(Search::Exhausted) {
        Search::Found((tau, assignment)) => Verdict::Holds(Witness::VisibilityAndOrder {
            visibility: VisibilityWitness {
                visible: witness_pairs(h, &assignment),
            },
            order: tau,
        }),
        Search::Exhausted => Verdict::Fails(
            "no update order and visibility assignment satisfy strong sequential convergence"
                .into(),
        ),
        Search::OutOfBudget => Verdict::Unsupported("SUC search budget exceeded".into()),
    }
}

fn try_tau<A: UqAdt>(
    h: &History<A>,
    tau: &[EventId],
    budget: &mut Budget,
) -> Search<VisAssignment> {
    // Position of each update in τ, for sorting visible sets.
    let mut pos = vec![usize::MAX; h.len()];
    for (i, &u) in tau.iter().enumerate() {
        pos[u.idx()] = i;
    }
    VisEnum::new(h).search(
        budget,
        |e, v| !h.event(e).is_query() || replay_answers(h, &pos, v, e),
        |assignment| is_acyclic(h, assignment, Some(tau)),
    )
}

/// Does replaying the visible updates `v` in τ order answer query `q`?
fn replay_answers<A: UqAdt>(h: &History<A>, pos: &[usize], v: Mask, q: EventId) -> bool {
    let mut vis_updates: Vec<EventId> = downset::iter(v).map(|i| EventId(i as u32)).collect();
    vis_updates.sort_by_key(|u| pos[u.idx()]);
    debug_assert!(vis_updates.iter().all(|u| pos[u.idx()] != usize::MAX));
    let mut state = h.adt().initial();
    for u in &vis_updates {
        h.adt().apply(&mut state, h.update_of(*u));
    }
    let query = h.query_of(q);
    h.adt().answers(&state, &query.input, &query.output)
}

/// An explicit SUC witness for polynomial-time verification: the total
/// update order and, per query event, the visible update set.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SucWitness {
    /// All update events in the claimed `≤` order.
    pub update_order: Vec<EventId>,
    /// `(event, visible updates)` pairs. Every query of the history
    /// must appear; update events may also appear (replica logs at
    /// update time), and any update event left unlisted is completed
    /// to the minimal growth-consistent set.
    pub visible: Vec<(EventId, Vec<EventId>)>,
}

/// Verify Definition 9 against an explicit witness (polynomial).
///
/// Checks:
/// 1. `update_order` is a linearization of the update events w.r.t.
///    `↦`;
/// 2. visibility contains `↦` and is *grown* (monotone along `↦`) and
///    excludes `↦`-future updates (acyclicity of `vis ∪ ↦ ∪ τ` for the
///    threshold-shaped relations produced by replicas);
/// 3. eventual delivery: ω queries see every update;
/// 4. strong sequential convergence: each query's visible set, sorted
///    by the order, replays to its recorded output.
pub fn verify_witness<A: UqAdt>(h: &History<A>, w: &SucWitness) -> Result<(), String> {
    if !linearize::is_linearization(h, h.updates_mask(), &w.update_order) {
        return Err("update_order is not a linearization of U_H".into());
    }
    let mut pos = vec![usize::MAX; h.len()];
    for (i, &u) in w.update_order.iter().enumerate() {
        pos[u.idx()] = i;
    }
    // Assemble per-event masks. Listed events (all queries, and
    // optionally updates, e.g. replica logs at update time) come from
    // the witness; unlisted update events are completed to the minimal
    // growth-consistent set in topological order.
    let mut listed: Vec<Option<Mask>> = vec![None; h.len()];
    let mut covered: Mask = 0;
    for (e, vis) in &w.visible {
        if h.event(*e).is_query() {
            covered |= downset::bit(e.idx());
        }
        listed[e.idx()] = Some(vis.iter().fold(0, |m, u| m | downset::bit(u.idx())));
    }
    if covered != h.queries_mask() {
        return Err("witness does not cover every query".into());
    }
    let mut topo: Vec<EventId> = h.ids().collect();
    topo.sort_by_key(|e| h.before_mask(*e).count_ones());
    let mut visible: Vec<Mask> = vec![0; h.len()];
    for e in topo {
        visible[e.idx()] = match listed[e.idx()] {
            Some(m) => m,
            None => {
                debug_assert!(h.event(e).is_update());
                let mut m = (h.updates_mask() & h.before_mask(e)) | downset::bit(e.idx());
                for p in downset::iter(h.before_mask(e)) {
                    m |= visible[p];
                }
                m
            }
        };
    }
    let assignment = VisAssignment { visible };
    // (2) containment, growth, delivery.
    for e in h.ids() {
        let v = assignment.visible[e.idx()];
        let forced = h.updates_mask() & h.before_mask(e);
        if forced & !v != 0 {
            return Err(format!("visibility at {e:?} misses ↦-predecessor updates"));
        }
        for p in downset::iter(h.before_mask(e)) {
            if assignment.visible[p] & !v != 0 {
                return Err(format!("growth violated between e{p} and {e:?}"));
            }
        }
        if h.event(e).omega && v != h.updates_mask() {
            return Err(format!("eventual delivery violated at ω event {e:?}"));
        }
        if v & h.updates_mask() & h.after_mask(e) != 0 {
            return Err(format!("{e:?} sees a ↦-future update"));
        }
    }
    if !is_acyclic(h, &assignment, Some(&w.update_order)) {
        return Err("vis ∪ ↦ ∪ ≤ is cyclic".into());
    }
    // (4) replay.
    for q in h.query_ids() {
        if !replay_answers(h, &pos, assignment.visible[q.idx()], q) {
            return Err(format!("strong sequential convergence violated at {q:?}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use uc_history::paper;
    use uc_history::HistoryBuilder;
    use uc_spec::{SetAdt, SetQuery, SetUpdate};

    #[test]
    fn paper_figures_classified() {
        for fig in paper::all_figures() {
            let got = check_suc(&fig.history);
            assert_eq!(
                got.holds(),
                fig.expected.suc,
                "{}: expected SUC={}, got {:?}",
                fig.name,
                fig.expected.suc,
                got
            );
        }
    }

    #[test]
    fn fig1d_witness_verifies() {
        let fig = paper::fig1d();
        let Verdict::Holds(Witness::VisibilityAndOrder { visibility, order }) =
            check_suc(&fig.history)
        else {
            panic!("fig1d must be SUC");
        };
        let w = SucWitness {
            update_order: order,
            visible: visibility.visible,
        };
        assert_eq!(verify_witness(&fig.history, &w), Ok(()));
    }

    #[test]
    fn fig1c_read_empty_after_own_insert_breaks_suc() {
        let fig = paper::fig1c();
        assert!(check_suc(&fig.history).fails());
    }

    #[test]
    fn verify_witness_rejects_wrong_order() {
        let fig = paper::fig1d();
        let Verdict::Holds(Witness::VisibilityAndOrder { visibility, order }) =
            check_suc(&fig.history)
        else {
            panic!()
        };
        let mut bad = SucWitness {
            update_order: order,
            visible: visibility.visible,
        };
        bad.update_order.reverse(); // violates ↦ (I(1) before I(2) on p0)
        assert!(verify_witness(&fig.history, &bad).is_err());
    }

    #[test]
    fn verify_witness_rejects_missing_delivery() {
        let mut b = HistoryBuilder::new(SetAdt::<u32>::new());
        let [p0, p1] = b.processes();
        let u = b.update(p0, SetUpdate::Insert(1));
        let q = b.omega_query(p1, SetQuery::Read, BTreeSet::from([1]));
        let h = b.build().unwrap();
        let w = SucWitness {
            update_order: vec![u],
            visible: vec![(q, vec![])], // ω query must see u
        };
        let err = verify_witness(&h, &w).unwrap_err();
        assert!(err.contains("eventual delivery"), "{err}");
    }

    #[test]
    fn verify_witness_rejects_bad_replay() {
        let mut b = HistoryBuilder::new(SetAdt::<u32>::new());
        let [p0, p1] = b.processes();
        let u = b.update(p0, SetUpdate::Insert(1));
        let q = b.query(p1, SetQuery::Read, BTreeSet::from([2]));
        let h = b.build().unwrap();
        let w = SucWitness {
            update_order: vec![u],
            visible: vec![(q, vec![u])],
        };
        let err = verify_witness(&h, &w).unwrap_err();
        assert!(err.contains("strong sequential convergence"), "{err}");
    }

    #[test]
    fn suc_implies_paper_hierarchy_on_figures() {
        // Prop. 2 on the concrete figures: whenever SUC holds, SEC and
        // UC hold (cross-checked through the other checkers).
        for fig in paper::all_figures() {
            if check_suc(&fig.history).holds() {
                assert!(crate::sec::check_sec(&fig.history).holds(), "{}", fig.name);
                assert!(crate::uc::check_uc(&fig.history).holds(), "{}", fig.name);
            }
        }
    }

    #[test]
    fn budget_exhaustion_unsupported() {
        // Too few nodes to even assign all six events once.
        let fig = paper::fig1d();
        let cfg = CheckConfig {
            max_nodes: 4,
            max_chains: 64,
        };
        let v = check_suc_with(&fig.history, &cfg);
        assert!(matches!(v, Verdict::Unsupported(_)));
    }
}
