//! Strong eventual consistency **for the Insert-wins set**
//! (Definition 10) — the concurrent specification of the OR-set.
//!
//! On top of SEC for the set `S_Val` (same visibility relation!), the
//! visibility must explain every read `R/s` by the insert-wins rule:
//!
//! > `x ∈ s ⟺ ∃u ∈ vis(q, I(x)) ∀u′ ∈ vis(q, D(x)) : ¬(u vis→ u′)`
//!
//! i.e. an element is present iff some visible insertion of it is not
//! itself visible at (hence not "observed by") any visible deletion.
//! Because the rule mentions `u vis→ u′` between *updates*, this
//! checker enumerates visibility at update events too — the extra
//! degree of freedom the paper exploits when it notes the OR-set run
//! of Fig. 1b converges to `{1,2}`.

use crate::config::{Budget, CheckConfig, Search};
use crate::sec::strong_convergence;
use crate::verdict::{Verdict, VisibilityWitness, Witness};
use crate::vis::{is_acyclic, witness_pairs, VisAssignment, VisEnum};
use std::collections::BTreeSet;
use std::fmt::Debug;
use std::hash::Hash;
use uc_history::downset;
use uc_history::History;
use uc_spec::{SetAdt, SetUpdate};

/// Decide SEC-for-the-Insert-wins-set with the default budget.
pub fn check_insert_wins<V>(h: &History<SetAdt<V>>) -> Verdict
where
    V: Clone + Debug + Eq + Ord + Hash,
{
    check_insert_wins_with(h, &CheckConfig::default())
}

/// Decide SEC-for-the-Insert-wins-set with an explicit budget.
pub fn check_insert_wins_with<V>(h: &History<SetAdt<V>>, cfg: &CheckConfig) -> Verdict
where
    V: Clone + Debug + Eq + Ord + Hash,
{
    if h.has_omega_update() {
        return Verdict::Unsupported(
            "insert-wins checking with ω-updates is outside the decision procedure".into(),
        );
    }
    let mut budget = Budget::new(cfg);
    let mut vis_enum = VisEnum::new(h);
    vis_enum.enumerate_update_visibility = true;
    let outcome = vis_enum.search(
        &mut budget,
        |e, v| {
            // Early admission: the insert-wins rule can be evaluated as
            // soon as the query's visible set is chosen, except that
            // `u vis→ u′` for updates u′ chosen *later* in topo order
            // is not yet known — but topo order guarantees all
            // ↦-predecessors are fixed, and vis(q,·) only references
            // updates visible at q, whose mutual visibility may involve
            // later-fixed entries. So defer to `complete`.
            let _ = (e, v);
            true
        },
        |assignment| {
            strong_convergence(h, assignment)
                && insert_wins_rule(h, assignment)
                && is_acyclic(h, assignment, None)
        },
    );
    match outcome {
        Search::Found(a) => Verdict::Holds(Witness::Visibility(VisibilityWitness {
            visible: witness_pairs(h, &a),
        })),
        Search::Exhausted => Verdict::Fails(
            "no visibility assignment satisfies the insert-wins concurrent specification".into(),
        ),
        Search::OutOfBudget => Verdict::Unsupported("insert-wins search budget exceeded".into()),
    }
}

/// Definition 10's membership rule, evaluated on a full assignment.
fn insert_wins_rule<V>(h: &History<SetAdt<V>>, assignment: &VisAssignment) -> bool
where
    V: Clone + Debug + Eq + Ord + Hash,
{
    // Universe: every element touched by an update. Elements never
    // inserted visibly can only be absent, which the rule enforces.
    let mut universe: BTreeSet<&V> = BTreeSet::new();
    for u in h.update_ids() {
        universe.insert(h.update_of(u).element());
    }
    for q in h.query_ids() {
        let query = h.query_of(q);
        let s = &query.output;
        let vis_q = assignment.visible[q.idx()];
        for &x in &universe {
            let mut present = false;
            // ∃ visible insert of x not visible at any visible delete
            // of x.
            'ins: for ui in downset::iter(vis_q) {
                let u = uc_history::EventId(ui as u32);
                match h.update_of(u) {
                    SetUpdate::Insert(v) if v == x => {}
                    _ => continue,
                }
                for di in downset::iter(vis_q) {
                    let d = uc_history::EventId(di as u32);
                    match h.update_of(d) {
                        SetUpdate::Delete(v) if v == x => {}
                        _ => continue,
                    }
                    // u vis→ d ⇔ u visible at event d
                    if downset::contains(assignment.visible[d.idx()], ui) {
                        continue 'ins; // this insert was observed by a delete
                    }
                }
                present = true;
                break;
            }
            if present != s.contains(x) {
                return false;
            }
        }
        // Elements outside the universe may not appear in s.
        if !s.iter().all(|x| universe.contains(x)) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use uc_history::paper;
    use uc_history::HistoryBuilder;
    use uc_spec::SetQuery;

    fn set(vals: &[u32]) -> BTreeSet<u32> {
        vals.iter().copied().collect()
    }

    #[test]
    fn fig1b_is_insert_wins() {
        // The paper: concurrent I/D pairs with insertions winning
        // converge to {1,2} on an OR-set — Fig. 1b is exactly that run.
        let fig = paper::fig1b();
        assert!(check_insert_wins(&fig.history).holds());
    }

    #[test]
    fn fig1a_is_not_insert_wins() {
        // Not even SEC.
        let fig = paper::fig1a();
        assert!(check_insert_wins(&fig.history).fails());
    }

    #[test]
    fn fig1c_is_not_insert_wins() {
        // R/∅ after a visible I(1) with no deletes contradicts the
        // membership rule.
        let fig = paper::fig1c();
        assert!(check_insert_wins(&fig.history).fails());
    }

    #[test]
    fn fig1d_is_insert_wins() {
        // Prop. 3: SUC ⇒ SEC-for-Insert-wins; Fig. 1d is SUC.
        let fig = paper::fig1d();
        assert!(check_insert_wins(&fig.history).holds());
    }

    #[test]
    fn observed_delete_removes() {
        // Sequential I(1) then D(1) on one process: the delete observes
        // the insert, so reads of {1} afterwards are illegal and ∅ is
        // required.
        let mut b = HistoryBuilder::new(SetAdt::<u32>::new());
        let p = b.process();
        b.update(p, SetUpdate::Insert(1));
        b.update(p, SetUpdate::Delete(1));
        b.omega_query(p, SetQuery::Read, set(&[]));
        let h = b.build().unwrap();
        assert!(check_insert_wins(&h).holds());

        let mut b = HistoryBuilder::new(SetAdt::<u32>::new());
        let p = b.process();
        b.update(p, SetUpdate::Insert(1));
        b.update(p, SetUpdate::Delete(1));
        b.omega_query(p, SetQuery::Read, set(&[1]));
        let h = b.build().unwrap();
        assert!(check_insert_wins(&h).fails());
    }

    #[test]
    fn concurrent_insert_beats_delete() {
        // p0: I(1); p1: D(1) concurrently; both converge to {1} —
        // insert wins exactly when the delete did not observe it.
        let mut b = HistoryBuilder::new(SetAdt::<u32>::new());
        let [p0, p1] = b.processes();
        b.update(p0, SetUpdate::Insert(1));
        b.omega_query(p0, SetQuery::Read, set(&[1]));
        b.update(p1, SetUpdate::Delete(1));
        b.omega_query(p1, SetQuery::Read, set(&[1]));
        let h = b.build().unwrap();
        assert!(check_insert_wins(&h).holds());
    }

    #[test]
    fn phantom_elements_rejected() {
        // A read containing an element never inserted cannot be
        // explained.
        let mut b = HistoryBuilder::new(SetAdt::<u32>::new());
        let p = b.process();
        b.update(p, SetUpdate::Insert(1));
        b.omega_query(p, SetQuery::Read, set(&[1, 99]));
        let h = b.build().unwrap();
        assert!(check_insert_wins(&h).fails());
    }
}
