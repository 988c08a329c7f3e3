//! Strong eventual consistency (Definition 6).
//!
//! `H` is SEC if some acyclic reflexive visibility relation `vis ⊇ ↦`
//! satisfies *eventual delivery*, *growth*, and *strong convergence*:
//! queries that see the same set of updates can be answered by a
//! single common state. Note the absence of any sequential-execution
//! constraint — the common state need not be *reachable*; this is
//! exactly the gap update consistency closes, and why Fig. 1b (which
//! converges to the sequentially unreachable `{1,2}`) is SEC but not
//! UC.

use crate::config::{Budget, CheckConfig, Search};
use crate::verdict::{Verdict, VisibilityWitness, Witness};
use crate::vis::{is_acyclic, witness_pairs, VisAssignment, VisEnum};
use uc_history::downset::Mask;
use uc_history::fxhash::FxHashMap;
use uc_history::History;
use uc_spec::StateAbduction;

/// Decide strong eventual consistency with the default budget.
pub fn check_sec<A: StateAbduction>(h: &History<A>) -> Verdict {
    check_sec_with(h, &CheckConfig::default())
}

/// Decide strong eventual consistency with an explicit budget.
pub fn check_sec_with<A: StateAbduction>(h: &History<A>, cfg: &CheckConfig) -> Verdict {
    if h.has_omega_update() {
        return Verdict::Unsupported(
            "strong eventual consistency with ω-updates is outside the decision procedure".into(),
        );
    }
    let mut budget = Budget::new(cfg);
    let vis_enum = VisEnum::new(h);
    let outcome = vis_enum.search(
        &mut budget,
        |_, _| true,
        |assignment| strong_convergence(h, assignment) && is_acyclic(h, assignment, None),
    );
    match outcome {
        Search::Found(a) => Verdict::Holds(Witness::Visibility(VisibilityWitness {
            visible: witness_pairs(h, &a),
        })),
        Search::Exhausted => Verdict::Fails(
            "no visibility assignment groups the queries into state-consistent classes".into(),
        ),
        Search::OutOfBudget => Verdict::Unsupported("visibility search budget exceeded".into()),
    }
}

/// Strong convergence: group queries by visible set and abduce a state
/// per group.
pub(crate) fn strong_convergence<A: StateAbduction>(
    h: &History<A>,
    assignment: &VisAssignment,
) -> bool {
    type Groups<A> = FxHashMap<
        Mask,
        Vec<(
            <A as uc_spec::UqAdt>::QueryIn,
            <A as uc_spec::UqAdt>::QueryOut,
        )>,
    >;
    let mut groups: Groups<A> = FxHashMap::default();
    for q in h.query_ids() {
        let query = h.query_of(q);
        groups
            .entry(assignment.visible[q.idx()])
            .or_default()
            .push((query.input.clone(), query.output.clone()));
    }
    groups
        .values()
        .all(|obs| h.adt().abduce_checked(obs).is_some())
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
            let got = check_sec(&fig.history);
            assert_eq!(
                got.holds(),
                fig.expected.sec,
                "{}: expected SEC={}, got {:?}",
                fig.name,
                fig.expected.sec,
                got
            );
        }
    }

    #[test]
    fn fig1b_witnesses_unreachable_common_state() {
        // SEC accepts {1,2} even though no linearization reaches it.
        let fig = paper::fig1b();
        let v = check_sec(&fig.history);
        assert!(v.holds());
        let Some(Witness::Visibility(w)) = v.witness() else {
            panic!()
        };
        // Both ω queries see all four updates.
        for (_, seen) in &w.visible {
            assert_eq!(seen.len(), 4);
        }
    }

    #[test]
    fn ignoring_all_updates_is_sec() {
        // The paper's remark: an implementation that answers the
        // initial state forever is SEC — here both processes read ∅
        // despite updates... but eventual delivery still forces ω
        // queries to SEE the updates; the common state just has to be
        // abduced, and ∅ is a legal set state.
        let mut b = HistoryBuilder::new(SetAdt::<u32>::new());
        let [p0, p1] = b.processes();
        b.update(p0, SetUpdate::Insert(1));
        b.omega_query(p0, SetQuery::Read, BTreeSet::new());
        b.update(p1, SetUpdate::Insert(2));
        b.omega_query(p1, SetQuery::Read, BTreeSet::new());
        let h = b.build().unwrap();
        assert!(check_sec(&h).holds());
    }

    #[test]
    fn same_visible_set_different_outputs_fails() {
        // Two ω queries (same full visible set by delivery) with
        // different outputs cannot share a state.
        let mut b = HistoryBuilder::new(SetAdt::<u32>::new());
        let [p0, p1] = b.processes();
        b.omega_query(p0, SetQuery::Read, BTreeSet::from([1]));
        b.omega_query(p1, SetQuery::Read, BTreeSet::from([2]));
        let h = b.build().unwrap();
        assert!(check_sec(&h).fails());
    }

    #[test]
    fn growth_forces_own_updates_into_view() {
        // Fig. 1a's core argument in miniature: p0's queries must all
        // see I(1), leaving two possible groups but three outputs.
        let fig = paper::fig1a();
        assert!(check_sec(&fig.history).fails());
    }

    #[test]
    fn budget_exhaustion_unsupported() {
        // Too few nodes to even assign all six events once.
        let fig = paper::fig1b();
        let cfg = CheckConfig {
            max_nodes: 4,
            max_chains: 64,
        };
        let v = check_sec_with(&fig.history, &cfg);
        assert!(matches!(v, Verdict::Unsupported(_)));
    }
}
