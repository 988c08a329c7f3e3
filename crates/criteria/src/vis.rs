//! Shared search over visibility relations (Definitions 6, 9, 10).
//!
//! All three "strong" criteria quantify over an acyclic, reflexive
//! relation `vis ⊇ ↦` satisfying *eventual delivery* and *growth*.
//! The searches here represent `vis` by the per-event set of visible
//! updates `V(e) = {u ∈ U_H : u vis→ e}` (a [`Mask`]), which is
//! complete because:
//!
//! * only `update → event` edges beyond `↦` influence the criteria
//!   (strong convergence and insert-wins conditions read `V(q)`; the
//!   insert-wins condition additionally reads `V(u')` for update
//!   events, which is why visibility at updates can optionally be
//!   enumerated too);
//! * growth makes `V` monotone along `↦`, so it suffices to choose
//!   each `V(e)` ⊇ the union of its `↦`-predecessors' sets;
//! * eventual delivery forces `V(e) = U_H` at ω events;
//! * acyclicity is a property of the induced graph `↦ ∪ {u→e}` and is
//!   validated per assignment (long mixed cycles through several vis
//!   edges cannot be excluded locally).

use crate::config::{Budget, Search};
use uc_history::downset::{self, Mask};
use uc_history::{EventId, History};
use uc_spec::UqAdt;

/// A complete visibility assignment: `visible[e.idx()]` is the mask of
/// update events visible at `e`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VisAssignment {
    /// Per-event visible update masks.
    pub visible: Vec<Mask>,
}

/// Parameters of a visibility enumeration.
pub struct VisEnum<'h, A: UqAdt> {
    h: &'h History<A>,
    /// Events in a topological order of `↦`.
    topo: Vec<EventId>,
    /// Should visibility at update events be enumerated (needed for
    /// insert-wins) or fixed to its minimum (sufficient for SEC/SUC)?
    pub enumerate_update_visibility: bool,
}

impl<'h, A: UqAdt> VisEnum<'h, A> {
    /// Prepare an enumeration over `h`'s visibility assignments.
    pub fn new(h: &'h History<A>) -> Self {
        let mut topo: Vec<EventId> = h.ids().collect();
        // |before(e)| strictly increases along ↦, so sorting by it is a
        // topological order.
        topo.sort_by_key(|e| h.before_mask(*e).count_ones());
        VisEnum {
            h,
            topo,
            enumerate_update_visibility: false,
        }
    }

    /// Enumerate assignments. `admit(e, V)` filters partial choices
    /// (e.g. the SUC replay check); `complete` validates a full
    /// assignment (group abduction, acyclicity) and returns `true` to
    /// accept it and stop.
    pub fn search(
        &self,
        budget: &mut Budget,
        mut admit: impl FnMut(EventId, Mask) -> bool,
        mut complete: impl FnMut(&VisAssignment) -> bool,
    ) -> Search<VisAssignment> {
        let mut visible = vec![0 as Mask; self.h.len()];
        self.go(0, &mut visible, budget, &mut admit, &mut complete)
    }

    fn go(
        &self,
        i: usize,
        visible: &mut Vec<Mask>,
        budget: &mut Budget,
        admit: &mut impl FnMut(EventId, Mask) -> bool,
        complete: &mut impl FnMut(&VisAssignment) -> bool,
    ) -> Search<VisAssignment> {
        if !budget.spend() {
            return Search::OutOfBudget;
        }
        if i == self.topo.len() {
            let assignment = VisAssignment {
                visible: visible.clone(),
            };
            return if complete(&assignment) {
                Search::Found(assignment)
            } else {
                Search::Exhausted
            };
        }
        let h = self.h;
        let e = self.topo[i];
        let all_updates = h.updates_mask();
        // Growth: V(e) ⊇ V(e') for every e' ↦ e; plus ↦-forced updates
        // and reflexivity for update events.
        let mut forced: Mask = all_updates & h.before_mask(e);
        for p in downset::iter(h.before_mask(e)) {
            forced |= visible[p];
        }
        if h.event(e).is_update() {
            forced |= downset::bit(e.idx());
        }
        // Acyclicity (local part): an update strictly after e cannot be
        // visible at e. Longer cycles are caught by `complete`.
        let forbidden: Mask = all_updates & h.after_mask(e);
        if forced & forbidden != 0 {
            return Search::Exhausted;
        }
        let choices: Vec<Mask> = if h.event(e).omega {
            // Eventual delivery: ω events see every update.
            let v = all_updates & !forbidden;
            if v != all_updates {
                return Search::Exhausted; // some update can never be delivered
            }
            vec![all_updates]
        } else if h.event(e).is_update() && !self.enumerate_update_visibility {
            vec![forced]
        } else {
            subsets_between(forced, all_updates & !forbidden)
        };
        for v in choices {
            if !admit(e, v) {
                continue;
            }
            visible[e.idx()] = v;
            match self.go(i + 1, visible, budget, admit, complete) {
                Search::Exhausted => {}
                out => return out,
            }
        }
        visible[e.idx()] = 0;
        Search::Exhausted
    }
}

/// All masks `m` with `lo ⊆ m ⊆ hi`, smallest first.
fn subsets_between(lo: Mask, hi: Mask) -> Vec<Mask> {
    debug_assert_eq!(lo & !hi, 0, "lo must be within hi");
    let free = hi & !lo;
    let k = free.count_ones();
    let mut out = Vec::with_capacity(1usize << k.min(24));
    // Iterate subsets of `free` via the standard sub-mask walk.
    let mut s: Mask = 0;
    loop {
        out.push(lo | s);
        if s == free {
            break;
        }
        s = (s.wrapping_sub(free)) & free; // next subset
    }
    out
}

/// Is the relation `↦ ∪ {u→e : u ∈ V(e), u ≠ e}` (plus, optionally,
/// the edges of a total update order `τ`) acyclic?
pub fn is_acyclic<A: UqAdt>(
    h: &History<A>,
    assignment: &VisAssignment,
    tau: Option<&[EventId]>,
) -> bool {
    let n = h.len();
    // Successor masks: PO closure + vis edges + τ edges.
    let mut succ: Vec<Mask> = (0..n).map(|e| h.after_mask(EventId(e as u32))).collect();
    for (e, &v) in assignment.visible.iter().enumerate() {
        for u in downset::iter(v & !downset::bit(e)) {
            succ[u] |= downset::bit(e);
        }
    }
    if let Some(order) = tau {
        for w in order.windows(2) {
            succ[w[0].idx()] |= downset::bit(w[1].idx());
        }
    }
    // Iterative three-colour DFS.
    #[derive(Clone, Copy, PartialEq)]
    enum C {
        White,
        Grey,
        Black,
    }
    let mut colour = vec![C::White; n];
    for root in 0..n {
        if colour[root] != C::White {
            continue;
        }
        let mut stack: Vec<(usize, downset::BitIter)> = vec![(root, downset::iter(succ[root]))];
        colour[root] = C::Grey;
        while let Some((node, iter)) = stack.last_mut() {
            match iter.next() {
                Some(next) => match colour[next] {
                    C::Grey => return false,
                    C::White => {
                        colour[next] = C::Grey;
                        stack.push((next, downset::iter(succ[next])));
                    }
                    C::Black => {}
                },
                None => {
                    colour[*node] = C::Black;
                    stack.pop();
                }
            }
        }
    }
    true
}

/// Extract the `(query, visible updates)` witness pairs from an
/// assignment.
pub fn witness_pairs<A: UqAdt>(
    h: &History<A>,
    assignment: &VisAssignment,
) -> Vec<(EventId, Vec<EventId>)> {
    h.query_ids()
        .map(|q| {
            (
                q,
                downset::iter(assignment.visible[q.idx()])
                    .map(|i| EventId(i as u32))
                    .collect(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CheckConfig;
    use std::collections::BTreeSet;
    use uc_history::HistoryBuilder;
    use uc_spec::{SetAdt, SetQuery, SetUpdate};

    type S = SetAdt<u32>;

    #[test]
    fn subsets_between_enumerates_lattice_interval() {
        let subs = subsets_between(0b001, 0b101);
        assert_eq!(subs, vec![0b001, 0b101]);
        let subs = subsets_between(0, 0b11);
        assert_eq!(subs.len(), 4);
        let subs = subsets_between(0b10, 0b10);
        assert_eq!(subs, vec![0b10]);
    }

    fn sample() -> uc_history::History<S> {
        let mut b = HistoryBuilder::new(S::new());
        let [p0, p1] = b.processes();
        b.update(p0, SetUpdate::Insert(1)); // e0
        b.query(p0, SetQuery::Read, BTreeSet::from([1])); // e1
        b.update(p1, SetUpdate::Insert(2)); // e2
        b.build().unwrap()
    }

    #[test]
    fn forced_visibility_contains_program_order() {
        let h = sample();
        let v = VisEnum::new(&h);
        let mut budget = Budget::new(&CheckConfig::default());
        let out = v.search(&mut budget, |_, _| true, |_| true);
        let Search::Found(a) = out else {
            panic!("must find an assignment");
        };
        // e1 must see its own process's earlier update e0.
        assert!(downset::contains(a.visible[1], 0));
    }

    #[test]
    fn omega_forces_full_visibility() {
        let mut b = HistoryBuilder::new(S::new());
        let [p0, p1] = b.processes();
        b.update(p0, SetUpdate::Insert(1));
        b.omega_query(p1, SetQuery::Read, BTreeSet::from([1]));
        let h = b.build().unwrap();
        let v = VisEnum::new(&h);
        let mut budget = Budget::new(&CheckConfig::default());
        let Search::Found(a) = v.search(&mut budget, |_, _| true, |_| true) else {
            panic!()
        };
        assert_eq!(a.visible[1], h.updates_mask());
    }

    #[test]
    fn acyclicity_rejects_mutual_visibility_cycles() {
        // u1 vis→ q1 ↦ u2, u2 vis→ q2 ↦ u1 — a 4-cycle.
        let mut b = HistoryBuilder::new(S::new());
        let [p0, p1] = b.processes();
        let _q1 = b.query(p0, SetQuery::Read, BTreeSet::new()); // e0
        let _u2 = b.update(p0, SetUpdate::Insert(2)); // e1
        let _q2 = b.query(p1, SetQuery::Read, BTreeSet::new()); // e2
        let _u1 = b.update(p1, SetUpdate::Insert(1)); // e3
        let h = b.build().unwrap();
        let mut visible = vec![0 as Mask; 4];
        visible[0] = downset::bit(3); // u1 (e3) visible at q1 (e0)
        visible[2] = downset::bit(1); // u2 (e1) visible at q2 (e2)
        visible[1] = downset::bit(1);
        visible[3] = downset::bit(3);
        let a = VisAssignment { visible };
        assert!(!is_acyclic(&h, &a, None));
        // Removing one vis edge breaks the cycle.
        let mut ok = a.clone();
        ok.visible[0] = 0;
        assert!(is_acyclic(&h, &ok, None));
    }

    #[test]
    fn tau_edges_participate_in_cycles() {
        let h = sample();
        let a = VisAssignment {
            visible: vec![
                downset::bit(0),
                downset::bit(0) | downset::bit(2),
                downset::bit(2),
            ],
        };
        assert!(is_acyclic(&h, &a, Some(&[EventId(0), EventId(2)])));
        // τ saying e2 ≤ e0 combined with e0's chain edge is still fine
        // (no path back from e1/e0 to e2)...
        assert!(is_acyclic(&h, &a, Some(&[EventId(2), EventId(0)])));
        // ...but making e2 see... give e2 visibility of itself only and
        // order e0 before e2 while e2's update is visible at e0:
        let b = VisAssignment {
            visible: vec![
                downset::bit(0) | downset::bit(2), // e2 visible at e0
                downset::bit(0) | downset::bit(2),
                downset::bit(2),
            ],
        };
        // vis edge e2→e0 plus τ edge e0→e2 forms a cycle.
        assert!(!is_acyclic(&h, &b, Some(&[EventId(0), EventId(2)])));
    }

    #[test]
    fn budget_propagates() {
        let h = sample();
        let v = VisEnum::new(&h);
        let mut budget = Budget::new(&CheckConfig {
            max_nodes: 1,
            max_chains: 1,
        });
        let out = v.search(&mut budget, |_, _| true, |_| false);
        assert_eq!(out, Search::OutOfBudget);
    }

    #[test]
    fn exhaustion_when_complete_rejects_all() {
        let h = sample();
        let v = VisEnum::new(&h);
        let mut budget = Budget::new(&CheckConfig::default());
        let out = v.search(&mut budget, |_, _| true, |_| false);
        assert_eq!(out, Search::Exhausted);
    }
}
