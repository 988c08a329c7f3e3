//! The example histories of the paper, exactly as drawn in Fig. 1 and
//! Fig. 2, together with the classifications the paper states for
//! them. These are the specification artifacts the checker suite in
//! `uc-criteria` must regenerate (experiments E1/E2: `uc-bench`'s
//! `figures` binary).
//!
//! All histories are over the set of integers `S_N` (Example 1); the
//! arrows of the figures are the per-process program order; `ω`
//! superscripts become [`crate::event::Event::omega`] flags.

use crate::builder::HistoryBuilder;
use crate::history::History;
use std::collections::BTreeSet;
use uc_spec::{SetAdt, SetQuery, SetUpdate};

/// The set ADT of the figures.
pub type FigSet = SetAdt<u32>;

/// The classification the paper states (or implies via the criterion
/// hierarchy) for one of its example histories.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Expected {
    /// Eventually consistent (Definition 5)?
    pub ec: bool,
    /// Strong eventually consistent (Definition 6)?
    pub sec: bool,
    /// Pipelined consistent (Definition 7)?
    pub pc: bool,
    /// Update consistent (Definition 8)?
    pub uc: bool,
    /// Strong update consistent (Definition 9)?
    pub suc: bool,
}

/// A named paper history with its expected classification.
pub struct PaperHistory {
    /// Figure label, e.g. `"Fig. 1a"`.
    pub name: &'static str,
    /// The paper's caption for the figure.
    pub caption: &'static str,
    /// The history itself.
    pub history: History<FigSet>,
    /// The expected classification.
    pub expected: Expected,
}

fn set(vals: &[u32]) -> BTreeSet<u32> {
    vals.iter().copied().collect()
}

/// Fig. 1a — "EC but not SEC nor UC".
///
/// ```text
/// p0: I(1) · R/{2} · R/{1} · R/∅^ω
/// p1: I(2) · R/{1} · R/{2} · R/∅^ω
/// ```
///
/// Both processes converge to `∅`, so the history is eventually
/// consistent; but `∅` is not reachable by any linearization of
/// `{I(1), I(2)}`, so it is not update consistent, and the first
/// process reads three different states while only two visible-update
/// sets are possible, so it is not strong eventually consistent.
/// It is not pipelined consistent either: `I(1) ↦ R/{2}` forces `1`
/// into every read of `p0`.
pub fn fig1a() -> PaperHistory {
    let mut b = HistoryBuilder::new(FigSet::new());
    let [p0, p1] = b.processes();
    b.update(p0, SetUpdate::Insert(1));
    b.query(p0, SetQuery::Read, set(&[2]));
    b.query(p0, SetQuery::Read, set(&[1]));
    b.omega_query(p0, SetQuery::Read, set(&[]));
    b.update(p1, SetUpdate::Insert(2));
    b.query(p1, SetQuery::Read, set(&[1]));
    b.query(p1, SetQuery::Read, set(&[2]));
    b.omega_query(p1, SetQuery::Read, set(&[]));
    PaperHistory {
        name: "Fig. 1a",
        caption: "EC but not SEC nor UC",
        history: b.build().expect("fig1a builds"),
        expected: Expected {
            ec: true,
            sec: false,
            pc: false,
            uc: false,
            suc: false,
        },
    }
}

/// Fig. 1b — "SEC but not UC".
///
/// ```text
/// p0: I(1) · D(2) · R/{1,2}^ω
/// p1: I(2) · D(1) · R/{1,2}^ω
/// ```
///
/// The converged state `{1,2}` is what an insert-wins (OR-set) replica
/// reaches, and it satisfies strong eventual consistency; but every
/// linearization of the four updates ends with a deletion, so `{1,2}`
/// is not reachable sequentially: not update consistent.
pub fn fig1b() -> PaperHistory {
    let mut b = HistoryBuilder::new(FigSet::new());
    let [p0, p1] = b.processes();
    b.update(p0, SetUpdate::Insert(1));
    b.update(p0, SetUpdate::Delete(2));
    b.omega_query(p0, SetQuery::Read, set(&[1, 2]));
    b.update(p1, SetUpdate::Insert(2));
    b.update(p1, SetUpdate::Delete(1));
    b.omega_query(p1, SetQuery::Read, set(&[1, 2]));
    PaperHistory {
        name: "Fig. 1b",
        caption: "SEC but not UC",
        history: b.build().expect("fig1b builds"),
        expected: Expected {
            ec: true,
            sec: true,
            pc: false,
            uc: false,
            suc: false,
        },
    }
}

/// Fig. 1c — "SEC and UC but not SUC".
///
/// ```text
/// p0: I(1) · R/∅ · R/{1,2}^ω
/// p1: I(2) · R/{1,2}^ω
/// ```
///
/// `I(1)·I(2)` explains the converged state `{1,2}` (update
/// consistent), and grouping by visible updates satisfies strong
/// eventual consistency; but after `I(1)` no linearization of a
/// visible set containing `I(1)` can return `∅`, so the `R/∅` breaks
/// strong update consistency.
pub fn fig1c() -> PaperHistory {
    let mut b = HistoryBuilder::new(FigSet::new());
    let [p0, p1] = b.processes();
    b.update(p0, SetUpdate::Insert(1));
    b.query(p0, SetQuery::Read, set(&[]));
    b.omega_query(p0, SetQuery::Read, set(&[1, 2]));
    b.update(p1, SetUpdate::Insert(2));
    b.omega_query(p1, SetQuery::Read, set(&[1, 2]));
    PaperHistory {
        name: "Fig. 1c",
        caption: "SEC and UC but not SUC",
        history: b.build().expect("fig1c builds"),
        expected: Expected {
            ec: true,
            sec: true,
            pc: false,
            uc: true,
            suc: false,
        },
    }
}

/// Fig. 1d — "SUC but not PC".
///
/// ```text
/// p0: I(1) · R/{1} · I(2) · R/{1,2}^ω
/// p1: R/{2} · R/{1,2}^ω
/// ```
///
/// Nothing prevents the second process from seeing `I(2)` before
/// `I(1)` (strong update consistent with the order `I(2) ≤ I(1)`...
/// more precisely with visibility `{I(2)}` at `R/{2}`); but pipelined
/// consistency fails: `I(1) ↦ I(2)` forces `1` to be present whenever
/// `2` is, contradicting `R/{2}`.
pub fn fig1d() -> PaperHistory {
    let mut b = HistoryBuilder::new(FigSet::new());
    let [p0, p1] = b.processes();
    b.update(p0, SetUpdate::Insert(1));
    b.query(p0, SetQuery::Read, set(&[1]));
    b.update(p0, SetUpdate::Insert(2));
    b.omega_query(p0, SetQuery::Read, set(&[1, 2]));
    b.query(p1, SetQuery::Read, set(&[2]));
    b.omega_query(p1, SetQuery::Read, set(&[1, 2]));
    PaperHistory {
        name: "Fig. 1d",
        caption: "SUC but not PC",
        history: b.build().expect("fig1d builds"),
        expected: Expected {
            ec: true,
            sec: true,
            pc: false,
            uc: true,
            suc: true,
        },
    }
}

/// Fig. 2 — "PC but not EC" (the history driving Proposition 1).
///
/// ```text
/// p0: I(1) · I(3) · R/{1,3} · R/{1,2,3} · R/{1,2}^ω
/// p1: I(2) · D(3) · R/{2} · R/{1,2} · R/{1,2,3}^ω
/// ```
///
/// The words `w1`/`w2` printed in the figure witness pipelined
/// consistency, but the processes converge to different states
/// (`{1,2}` vs `{1,2,3}`), so no criterion implying convergence holds.
pub fn fig2() -> PaperHistory {
    let mut b = HistoryBuilder::new(FigSet::new());
    let [p0, p1] = b.processes();
    b.update(p0, SetUpdate::Insert(1));
    b.update(p0, SetUpdate::Insert(3));
    b.query(p0, SetQuery::Read, set(&[1, 3]));
    b.query(p0, SetQuery::Read, set(&[1, 2, 3]));
    b.omega_query(p0, SetQuery::Read, set(&[1, 2]));
    b.update(p1, SetUpdate::Insert(2));
    b.update(p1, SetUpdate::Delete(3));
    b.query(p1, SetQuery::Read, set(&[2]));
    b.query(p1, SetQuery::Read, set(&[1, 2]));
    b.omega_query(p1, SetQuery::Read, set(&[1, 2, 3]));
    PaperHistory {
        name: "Fig. 2",
        caption: "PC but not EC",
        history: b.build().expect("fig2 builds"),
        expected: Expected {
            ec: false,
            sec: false,
            pc: true,
            uc: false,
            suc: false,
        },
    }
}

/// All five paper histories, in figure order.
pub fn all_figures() -> Vec<PaperHistory> {
    vec![fig1a(), fig1b(), fig1c(), fig1d(), fig2()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figures_build_and_validate() {
        for fig in all_figures() {
            assert!(fig.history.validate().is_ok(), "{} invalid", fig.name);
            assert_eq!(fig.history.n_processes(), 2, "{}", fig.name);
        }
    }

    #[test]
    fn fig_shapes_match_paper() {
        let a = fig1a();
        assert_eq!(a.history.len(), 8);
        assert_eq!(a.history.update_ids().count(), 2);
        let b = fig1b();
        assert_eq!(b.history.len(), 6);
        assert_eq!(b.history.update_ids().count(), 4);
        let c = fig1c();
        assert_eq!(c.history.len(), 5);
        let d = fig1d();
        assert_eq!(d.history.len(), 6);
        let f2 = fig2();
        assert_eq!(f2.history.len(), 10);
        assert_eq!(f2.history.update_ids().count(), 4);
    }

    #[test]
    fn omega_tails_flagged() {
        for fig in all_figures() {
            // Every process ends with an ω query in all five figures.
            for chain in fig.history.process_chains() {
                let last = *chain.last().unwrap();
                assert!(fig.history.event(last).omega, "{}", fig.name);
            }
        }
    }

    #[test]
    fn expected_classifications_respect_hierarchy() {
        // Prop. 2 invariants must hold within the expectations
        // themselves: SUC ⊆ SEC ∩ UC, UC ⊆ EC.
        for fig in all_figures() {
            let e = fig.expected;
            if e.suc {
                assert!(e.sec && e.uc, "{}", fig.name);
            }
            if e.uc {
                assert!(e.ec, "{}", fig.name);
            }
        }
    }
}
