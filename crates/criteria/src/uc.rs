//! Update consistency (Definition 8).
//!
//! `H` is update consistent if `U_H` is infinite, or a finite set of
//! queries `Q'` can be removed so that some linearization of the rest
//! is in `L(O)`.
//!
//! With ω-events the decision reduces to: *is there a linearization of
//! the update events (respecting the program order restricted to
//! updates — note that order constraints transiting through removed
//! queries survive, because `↦` is transitively closed) whose final
//! state answers every ω-query?* All non-ω queries go into `Q'`;
//! the infinitely repeated instances of each ω-query are placed after
//! the last update, where they must all observe the converged state.
//!
//! That is one `config::linearize` over `U_H` whose final state must
//! answer every ω-query (no query is in scope, so none is placed on
//! the way).

use crate::config::{linearize, Budget, CheckConfig, Search};
use crate::verdict::{Verdict, Witness};
use uc_history::downset;
use uc_history::{EventId, History};
use uc_spec::UqAdt;

/// Decide update consistency with the default budget.
pub fn check_uc<A: UqAdt>(h: &History<A>) -> Verdict {
    check_uc_with(h, &CheckConfig::default())
}

/// Decide update consistency with an explicit budget.
pub fn check_uc_with<A: UqAdt>(h: &History<A>, cfg: &CheckConfig) -> Verdict {
    if h.has_omega_update() {
        return Verdict::Holds(Witness::Trivial(
            "U_H is infinite (ω-update present)".into(),
        ));
    }
    // Observations every candidate final state must satisfy.
    let omegas = h.omegas_mask() & h.queries_mask();
    let converged = |state: &A::State| {
        downset::iter(omegas).all(|w| {
            let q = h.query_of(EventId(w as u32));
            h.adt().answers(state, &q.input, &q.output)
        })
    };
    let scope = h.updates_mask();
    match linearize(h, scope, &mut Budget::new(cfg), converged) {
        Search::Found((order, state)) => Verdict::Holds(Witness::UpdateLinearization {
            order,
            final_state: format!("{state:?}"),
        }),
        Search::Exhausted => Verdict::Fails(format!(
            "no linearization of the {} update(s) satisfies the {} ω-query observation(s)",
            downset::iter(scope).len(),
            omegas.count_ones()
        )),
        Search::OutOfBudget => {
            Verdict::Unsupported("update-linearization search budget exceeded".into())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use uc_history::paper;
    use uc_history::HistoryBuilder;
    use uc_spec::{CounterAdt, CounterQuery, CounterUpdate, SetAdt, SetQuery, SetUpdate};

    #[test]
    fn paper_figures_classified() {
        for fig in paper::all_figures() {
            let got = check_uc(&fig.history);
            assert_eq!(
                got.holds(),
                fig.expected.uc,
                "{}: expected UC={}, got {:?}",
                fig.name,
                fig.expected.uc,
                got
            );
        }
    }

    #[test]
    fn witness_is_a_valid_linearization() {
        let fig = paper::fig1c();
        let Verdict::Holds(Witness::UpdateLinearization { order, final_state }) =
            check_uc(&fig.history)
        else {
            panic!("fig1c must be UC");
        };
        assert!(uc_history::linearize::is_linearization(
            &fig.history,
            fig.history.updates_mask(),
            &order
        ));
        assert_eq!(final_state, "{1, 2}");
    }

    #[test]
    fn fig1b_fails_because_last_update_deletes() {
        let fig = paper::fig1b();
        assert!(check_uc(&fig.history).fails());
    }

    #[test]
    fn commutative_updates_memoize() {
        // 10 concurrent counter increments: 10! orders but one state
        // per down-set; must finish instantly within a small budget.
        let mut b = HistoryBuilder::new(CounterAdt);
        for i in 0..10 {
            let p = b.process();
            b.update(p, CounterUpdate::Add(i));
            if i == 0 {
                b.omega_query(p, CounterQuery::Read, 45);
            }
        }
        // ω-query must be on its own process *after* an update —
        // rebuild properly: one process queries, ten update.
        let h = b.build();
        // builder disallows events after ω on same process; here the ω
        // was added right after p0's update, making p0's chain end in ω.
        let h = h.unwrap();
        let v = check_uc_with(
            &h,
            &CheckConfig {
                max_nodes: 20_000,
                max_chains: 64,
            },
        );
        assert!(v.holds(), "{v:?}");
    }

    #[test]
    fn no_omega_queries_trivially_uc() {
        let mut b = HistoryBuilder::new(SetAdt::<u32>::new());
        let p = b.process();
        b.update(p, SetUpdate::Insert(1));
        b.query(p, SetQuery::Read, BTreeSet::from([2])); // wrong but removable
        let h = b.build().unwrap();
        assert!(check_uc(&h).holds());
    }

    #[test]
    fn budget_exhaustion_reports_unsupported() {
        let mut b = HistoryBuilder::new(SetAdt::<u32>::new());
        for i in 0..8 {
            let p = b.process();
            b.update(p, SetUpdate::Insert(i));
            if i == 0 {
                b.omega_query(p, SetQuery::Read, BTreeSet::new()); // unsatisfiable
            }
        }
        let h = b.build().unwrap();
        let v = check_uc_with(&h, &CheckConfig::tiny());
        assert_eq!(
            v,
            Verdict::Unsupported("update-linearization search budget exceeded".into())
        );
    }

    #[test]
    fn program_order_constrains_linearizations() {
        // p0: I(1) then D(1); p1: ω-read {1} — impossible, since D(1)
        // must follow I(1), and a final I from elsewhere doesn't exist.
        let mut b = HistoryBuilder::new(SetAdt::<u32>::new());
        let [p0, p1] = b.processes();
        b.update(p0, SetUpdate::Insert(1));
        b.update(p0, SetUpdate::Delete(1));
        b.omega_query(p1, SetQuery::Read, BTreeSet::from([1]));
        let h = b.build().unwrap();
        assert!(check_uc(&h).fails());
    }

    #[test]
    fn concurrent_insert_delete_both_outcomes_reachable() {
        // p0: I(1); p1: D(1). Final state may be {1} or {} depending on
        // the linearization → either ω expectation is UC.
        for (expect, _) in [
            (BTreeSet::from([1]), "insert last"),
            (BTreeSet::new(), "delete last"),
        ] {
            let mut b = HistoryBuilder::new(SetAdt::<u32>::new());
            let [p0, p1, p2] = b.processes();
            b.update(p0, SetUpdate::Insert(1));
            b.update(p1, SetUpdate::Delete(1));
            b.omega_query(p2, SetQuery::Read, expect.clone());
            let h = b.build().unwrap();
            assert!(check_uc(&h).holds(), "expectation {expect:?}");
        }
    }
}
