//! Search budgets, the outcome every budgeted search returns, and the
//! one linearization search behind SC, PC and UC.
//!
//! Deciding the search-based criteria is NP-hard in general (they
//! quantify over linearizations or visibility relations), so every
//! checker carries a node budget and reports
//! [`crate::Verdict::Unsupported`] instead of running away when a
//! pathological history exceeds it.

use uc_history::downset::{self, Mask};
use uc_history::fxhash::FxHashSet;
use uc_history::{EventId, History};
use uc_spec::{Op, UqAdt};

/// Budget and limits shared by the checkers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckConfig {
    /// Maximum number of search nodes (partial linearizations /
    /// visibility assignments) a single check may explore.
    pub max_nodes: u64,
    /// Maximum number of maximal chains enumerated for pipelined
    /// consistency.
    pub max_chains: usize,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            max_nodes: 4_000_000,
            max_chains: 4_096,
        }
    }
}

impl CheckConfig {
    /// A tight budget, for tests that exercise the budget path.
    pub fn tiny() -> Self {
        CheckConfig {
            max_nodes: 16,
            max_chains: 2,
        }
    }
}

/// Node counter handed down the recursive searches (public because
/// the reusable visibility enumeration in [`crate::vis`] takes one).
#[derive(Debug)]
pub struct Budget {
    remaining: u64,
}

impl Budget {
    /// A budget holding `cfg.max_nodes` nodes.
    pub fn new(cfg: &CheckConfig) -> Self {
        Budget {
            remaining: cfg.max_nodes,
        }
    }

    /// Spend one node; `false` once exhausted.
    #[inline]
    pub fn spend(&mut self) -> bool {
        if self.remaining == 0 {
            false
        } else {
            self.remaining -= 1;
            true
        }
    }
}

/// Outcome of a budgeted search.
#[derive(Debug, PartialEq, Eq)]
pub enum Search<T> {
    /// A witness was found.
    Found(T),
    /// The space was exhausted without success.
    Exhausted,
    /// The node budget ran out.
    OutOfBudget,
}

/// Search for a linearization of the events in `scope` that is in
/// `L(O)` and whose final state `at_end` accepts; found, it returns
/// the order and that final state.
///
/// Sequential, pipelined and update consistency are all "some
/// linearization of a chosen set of events is in `L(O)`" (§VIII,
/// Definitions 7 and 8): they differ only in `scope` (every event; one
/// maximal chain and every update; the updates alone) and in `at_end`.
/// Each placed query must answer the state it is placed in, and an
/// ω-query, once placed, every state after each later update: between
/// any two of them there are infinitely many repetitions of it.
///
/// The search walks the down-set lattice of `scope`, memoizing
/// `(down-set, state)` pairs: the placed ω-queries are a function of
/// the down-set, so the pair is a sound key, and permutations reaching
/// the same intermediate state are explored once — for commutative
/// objects this collapses the factorial search to one path per
/// down-set.
pub(crate) fn linearize<A: UqAdt>(
    h: &History<A>,
    scope: Mask,
    budget: &mut Budget,
    at_end: impl Fn(&A::State) -> bool,
) -> Search<(Vec<EventId>, A::State)> {
    let mut walk = Walk {
        h,
        scope,
        at_end,
        budget,
        seen: FxHashSet::default(),
        order: Vec::new(),
    };
    walk.dfs(0, &mut h.adt().initial())
}

struct Walk<'a, A: UqAdt, F> {
    h: &'a History<A>,
    scope: Mask,
    at_end: F,
    budget: &'a mut Budget,
    seen: FxHashSet<(Mask, A::State)>,
    order: Vec<EventId>,
}

impl<A: UqAdt, F: Fn(&A::State) -> bool> Walk<'_, A, F> {
    fn dfs(&mut self, done: Mask, state: &mut A::State) -> Search<(Vec<EventId>, A::State)> {
        if !self.budget.spend() {
            return Search::OutOfBudget;
        }
        let h = self.h;
        if done == self.scope {
            return if (self.at_end)(state) {
                Search::Found((std::mem::take(&mut self.order), state.clone()))
            } else {
                Search::Exhausted
            };
        }
        if !self.seen.insert((done, state.clone())) {
            return Search::Exhausted;
        }
        for i in downset::iter(h.ready(self.scope, done)) {
            let e = EventId(i as u32);
            let saved = state.clone();
            let ok = match &h.event(e).op {
                Op::Update(u) => {
                    h.adt().apply(state, u);
                    let placed = done & h.omegas_mask() & h.queries_mask();
                    downset::iter(placed).all(|w| {
                        let q = h.query_of(EventId(w as u32));
                        h.adt().answers(state, &q.input, &q.output)
                    })
                }
                Op::Query(q) => h.adt().answers(state, &q.input, &q.output),
            };
            if ok {
                self.order.push(e);
                match self.dfs(done | downset::bit(i), state) {
                    Search::Exhausted => {
                        self.order.pop();
                    }
                    out => return out,
                }
            }
            *state = saved;
        }
        Search::Exhausted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_generous() {
        let c = CheckConfig::default();
        assert!(c.max_nodes >= 1_000_000);
    }

    #[test]
    fn budget_exhausts() {
        let mut b = Budget::new(&CheckConfig {
            max_nodes: 2,
            max_chains: 1,
        });
        assert!(b.spend());
        assert!(b.spend());
        assert!(!b.spend());
    }
}
