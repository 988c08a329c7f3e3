//! Pipelined consistency (Definition 7) — PRAM extended to all
//! UQ-ADTs.
//!
//! `H` is pipelined consistent if for every *maximal chain* `p` of the
//! program order, `lin(H_{U_H ∪ p}) ∩ L(O) ≠ ∅`: the chain's own
//! events, interleaved with **all** updates of the computation, must
//! admit a sequential explanation.
//!
//! Each chain is one `config::linearize` over `U_H ∪ p`, accepting any
//! final state. The chain's ω-query (at most one: an ω event is
//! maximal) is handled per its infinite-repetition semantics: once it
//! is placed, the remaining updates may still be interleaved into the
//! ω-tail, but every state reached from then on must keep answering
//! it — between any two of those updates there are infinitely many
//! repetitions of the query.

use crate::config::{linearize, Budget, CheckConfig, Search};
use crate::verdict::{ChainWitness, Verdict, Witness};
use uc_history::{chains, History};
use uc_spec::UqAdt;

/// Decide pipelined consistency with the default budget.
pub fn check_pc<A: UqAdt>(h: &History<A>) -> Verdict {
    check_pc_with(h, &CheckConfig::default())
}

/// Decide pipelined consistency with an explicit budget.
pub fn check_pc_with<A: UqAdt>(h: &History<A>, cfg: &CheckConfig) -> Verdict {
    if h.has_omega_update() {
        return Verdict::Unsupported(
            "pipelined consistency with ω-updates is outside the decision procedure".into(),
        );
    }
    let Some(maximal) = chains::maximal_chains(h, cfg.max_chains) else {
        return Verdict::Unsupported(format!("more than {} maximal chains", cfg.max_chains));
    };
    // One budget for the whole check: `max_nodes` bounds the check,
    // not each of its chains.
    let mut budget = Budget::new(cfg);
    let mut witnesses = Vec::with_capacity(maximal.len());
    for chain in maximal {
        let scope = h.updates_mask() | chains::chain_mask(&chain);
        match linearize(h, scope, &mut budget, |_| true) {
            Search::Found((linearization, _)) => witnesses.push(ChainWitness {
                chain,
                linearization,
            }),
            Search::Exhausted => {
                return Verdict::Fails(format!(
                    "chain {chain:?} admits no linearization with all updates in L(O)"
                ))
            }
            Search::OutOfBudget => {
                return Verdict::Unsupported("pipelined-consistency search budget exceeded".into())
            }
        }
    }
    Verdict::Holds(Witness::PerChain(witnesses))
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
            let got = check_pc(&fig.history);
            assert_eq!(
                got.holds(),
                fig.expected.pc,
                "{}: expected PC={}, got {:?}",
                fig.name,
                fig.expected.pc,
                got
            );
        }
    }

    #[test]
    fn fig2_witness_matches_w1_w2_shape() {
        // Fig. 2 prints w1 and w2; our checker must find *some* valid
        // interleavings — verify they replay in L(O).
        let fig = paper::fig2();
        let Verdict::Holds(Witness::PerChain(ws)) = check_pc(&fig.history) else {
            panic!("fig2 must be PC");
        };
        assert_eq!(ws.len(), 2);
        for w in &ws {
            let labels: Vec<_> = w
                .linearization
                .iter()
                .map(|&e| fig.history.label(e).clone())
                .collect();
            // Strip ω semantics: the finite prefix must be recognised.
            assert!(uc_spec::recognize::recognizes(
                fig.history.adt(),
                labels.iter()
            ));
        }
    }

    #[test]
    fn local_reads_must_see_own_writes() {
        // p0: I(1) then R/∅ — not PC (PRAM forbids losing your own
        // update).
        let mut b = HistoryBuilder::new(SetAdt::<u32>::new());
        let p0 = b.process();
        b.update(p0, SetUpdate::Insert(1));
        b.query(p0, SetQuery::Read, BTreeSet::new());
        let h = b.build().unwrap();
        assert!(check_pc(&h).fails());
    }

    #[test]
    fn different_processes_may_order_concurrent_updates_differently() {
        // The signature PRAM behaviour: p0 sees I(1) before I(2), p1
        // sees the reverse — fine for PC (it is Fig. 1d's p1 read,
        // without the joint convergence constraint).
        let mut b = HistoryBuilder::new(SetAdt::<u32>::new());
        let [p0, p1] = b.processes();
        b.update(p0, SetUpdate::Insert(1));
        b.query(p0, SetQuery::Read, BTreeSet::from([1]));
        b.update(p1, SetUpdate::Insert(2));
        b.query(p1, SetQuery::Read, BTreeSet::from([2]));
        let h = b.build().unwrap();
        assert!(check_pc(&h).holds());
    }

    #[test]
    fn omega_tail_blocks_late_state_changes() {
        // p0: ω-read ∅ ; p1: I(1). The insert cannot be placed before
        // the tail (read would be {1}... actually it can be placed
        // before: then the ω reads ∅ is wrong) nor inside the tail
        // (state changes to {1}) → not PC.
        let mut b = HistoryBuilder::new(SetAdt::<u32>::new());
        let [p0, p1] = b.processes();
        b.omega_query(p0, SetQuery::Read, BTreeSet::new());
        b.update(p1, SetUpdate::Insert(1));
        let h = b.build().unwrap();
        assert!(check_pc(&h).fails());
    }

    #[test]
    fn omega_tail_allows_idempotent_updates() {
        // p0: I(1) · ω-read {1} ; p1: I(1). The duplicate insert can
        // land inside the ω-tail without changing the state → PC.
        let mut b = HistoryBuilder::new(SetAdt::<u32>::new());
        let [p0, p1] = b.processes();
        b.update(p0, SetUpdate::Insert(1));
        b.omega_query(p0, SetQuery::Read, BTreeSet::from([1]));
        b.update(p1, SetUpdate::Insert(1));
        let h = b.build().unwrap();
        assert!(check_pc(&h).holds());
    }

    /// The least node budget that linearizes one chain of `h` with
    /// all its updates.
    fn nodes_for_chain<A: UqAdt>(h: &History<A>, chain: &[uc_history::EventId]) -> u64 {
        let scope = h.updates_mask() | chains::chain_mask(chain);
        (1..)
            .find(|&max_nodes| {
                let cfg = CheckConfig {
                    max_nodes,
                    max_chains: 64,
                };
                matches!(
                    linearize(h, scope, &mut Budget::new(&cfg), |_| true),
                    Search::Found(_)
                )
            })
            .expect("a PC chain linearizes")
    }

    #[test]
    fn the_budget_bounds_the_whole_check_not_each_chain() {
        // Fig. 2's two chains each fit in the larger one's budget, but
        // not both in it: the check spends one budget over its chains.
        let fig = paper::fig2();
        let h = &fig.history;
        let costs: Vec<u64> = chains::maximal_chains(h, 64)
            .expect("two chains")
            .iter()
            .map(|chain| nodes_for_chain(h, chain))
            .collect();
        let (max, sum) = (*costs.iter().max().unwrap(), costs.iter().sum::<u64>());
        assert!(costs.len() == 2 && max < sum, "chain costs {costs:?}");
        let with = |max_nodes| {
            check_pc_with(
                h,
                &CheckConfig {
                    max_nodes,
                    max_chains: 64,
                },
            )
        };
        assert!(matches!(with(max), Verdict::Unsupported(_)), "{costs:?}");
        assert!(matches!(with(sum - 1), Verdict::Unsupported(_)));
        assert!(with(sum).holds(), "{costs:?}");
    }

    #[test]
    fn tiny_budget_reports_unsupported() {
        let fig = paper::fig2();
        let v = check_pc_with(
            &fig.history,
            &CheckConfig {
                max_nodes: 3,
                max_chains: 64,
            },
        );
        assert!(matches!(v, Verdict::Unsupported(_)));
    }
}
