//! Sequential consistency — the strong criterion the paper positions
//! update consistency *below* ("stronger than eventual consistency and
//! weaker than sequential consistency", §VIII). Provided for
//! calibration of the hierarchy experiments.
//!
//! `H` is sequentially consistent if some linearization of **all**
//! events is in `L(O)`: `config::linearize` over `h.all_mask()`,
//! accepting any final state. Several processes' ω-tails may
//! interleave; once an ω-query has been placed, every later state must
//! keep answering it.

use crate::config::{linearize, Budget, CheckConfig, Search};
use crate::verdict::{Verdict, Witness};
use uc_history::History;
use uc_spec::UqAdt;

/// Decide sequential consistency with the default budget.
pub fn check_sc<A: UqAdt>(h: &History<A>) -> Verdict {
    check_sc_with(h, &CheckConfig::default())
}

/// Decide sequential consistency with an explicit budget.
pub fn check_sc_with<A: UqAdt>(h: &History<A>, cfg: &CheckConfig) -> Verdict {
    if h.has_omega_update() {
        return Verdict::Unsupported(
            "sequential consistency with ω-updates is outside the decision procedure".into(),
        );
    }
    match linearize(h, h.all_mask(), &mut Budget::new(cfg), |_| true) {
        Search::Found((order, _)) => Verdict::Holds(Witness::FullLinearization(order)),
        Search::Exhausted => Verdict::Fails("no linearization of all events is in L(O)".into()),
        Search::OutOfBudget => {
            Verdict::Unsupported("sequential-consistency search budget exceeded".into())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use uc_history::paper;
    use uc_history::HistoryBuilder;
    use uc_spec::{SetAdt, SetQuery, SetUpdate};

    fn set(vals: &[u32]) -> BTreeSet<u32> {
        vals.iter().copied().collect()
    }

    #[test]
    fn none_of_the_paper_figures_is_sc() {
        // All five figures exhibit weak behaviours; SC must reject
        // every one of them.
        for fig in paper::all_figures() {
            assert!(check_sc(&fig.history).fails(), "{}", fig.name);
        }
    }

    #[test]
    fn a_genuinely_sequential_history_is_sc() {
        let mut b = HistoryBuilder::new(SetAdt::<u32>::new());
        let [p0, p1] = b.processes();
        b.update(p0, SetUpdate::Insert(1));
        b.query(p1, SetQuery::Read, set(&[])); // ordered before the insert
        b.query(p1, SetQuery::Read, set(&[1]));
        b.omega_query(p0, SetQuery::Read, set(&[1]));
        let h = b.build().unwrap();
        let v = check_sc(&h);
        assert!(v.holds(), "{v:?}");
        let Some(Witness::FullLinearization(order)) = v.witness() else {
            panic!()
        };
        assert!(uc_history::linearize::is_linearization(
            &h,
            h.all_mask(),
            order
        ));
    }

    #[test]
    fn sc_implies_suc_on_small_histories() {
        // SC is stronger than SUC: sanity-check on a tiny history.
        let mut b = HistoryBuilder::new(SetAdt::<u32>::new());
        let [p0, p1] = b.processes();
        b.update(p0, SetUpdate::Insert(1));
        b.omega_query(p1, SetQuery::Read, set(&[1]));
        let h = b.build().unwrap();
        assert!(check_sc(&h).holds());
        assert!(crate::suc::check_suc(&h).holds());
    }

    #[test]
    fn interleaved_omega_tails() {
        // Two ω-tails with the same converged output are fine.
        let mut b = HistoryBuilder::new(SetAdt::<u32>::new());
        let [p0, p1] = b.processes();
        b.update(p0, SetUpdate::Insert(1));
        b.omega_query(p0, SetQuery::Read, set(&[1]));
        b.omega_query(p1, SetQuery::Read, set(&[1]));
        let h = b.build().unwrap();
        assert!(check_sc(&h).holds());
        // Diverging ω outputs are impossible.
        let mut b = HistoryBuilder::new(SetAdt::<u32>::new());
        let [p0, p1] = b.processes();
        b.update(p0, SetUpdate::Insert(1));
        b.omega_query(p0, SetQuery::Read, set(&[1]));
        b.omega_query(p1, SetQuery::Read, set(&[]));
        let h = b.build().unwrap();
        assert!(check_sc(&h).fails());
    }

    #[test]
    fn updates_after_omega_entry_must_preserve_output() {
        // p1's ω-read ∅ can be placed before I(1)… but then the later
        // insert breaks it; placing it after reads {1} — also wrong.
        let mut b = HistoryBuilder::new(SetAdt::<u32>::new());
        let [p0, p1] = b.processes();
        b.update(p0, SetUpdate::Insert(1));
        b.omega_query(p1, SetQuery::Read, set(&[]));
        let h = b.build().unwrap();
        assert!(check_sc(&h).fails());
    }
}
