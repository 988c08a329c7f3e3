//! Helpers shared by the differential test suites.

// Each suite uses only some of these helpers.
#![allow(dead_code)]

use uc_core::{NaiveReplay, StrategyFactory, UndoRepair};
use uc_sim::SplitMix64;
use uc_spec::{UndoableUqAdt, UqAdt};

/// Per-key engines that replay their log on every query ([`NaiveReplay`],
/// Algorithm 1 verbatim). No product replica runs it in a store; the
/// suites run a store over it to check that the store's per-key
/// bookkeeping holds for a strategy that neither caches nor compacts.
#[derive(Clone, Copy, Debug)]
pub struct NaiveEngines;

impl<A: UqAdt> StrategyFactory<A> for NaiveEngines {
    type Strategy = NaiveReplay<A>;

    fn make(&self, adt: &A) -> NaiveReplay<A> {
        NaiveReplay::new(adt)
    }
}

/// Per-key engines that repair by undo/redo ([`UndoRepair`], §VII-C
/// repositioning), run in a store for the same reason as
/// [`NaiveEngines`].
#[derive(Clone, Copy, Debug)]
pub struct UndoEngines;

impl<A: UndoableUqAdt> StrategyFactory<A> for UndoEngines {
    type Strategy = UndoRepair<A>;

    fn make(&self, adt: &A) -> UndoRepair<A> {
        UndoRepair::new(adt)
    }
}

/// Shuffle a delivery schedule and duplicate ~20% of it (reliable
/// broadcast is at-least-once from a defensive replica's point of
/// view). Deterministic in the PRNG state, so failures replay.
pub fn shuffle_with_dups<T: Clone>(rng: &mut SplitMix64, mut sched: Vec<T>) -> Vec<T> {
    let dups = sched.len() / 5;
    for _ in 0..dups {
        let i = (rng.next_u64() % sched.len() as u64) as usize;
        sched.push(sched[i].clone());
    }
    // Fisher–Yates.
    for i in (1..sched.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        sched.swap(i, j);
    }
    sched
}
