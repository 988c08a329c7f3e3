//! Helpers shared by the differential test suites.

// Each suite uses only some of these helpers.
#![allow(dead_code)]

use uc_core::{IngestPool, NaiveReplay, PoolConfig, StrategyFactory, UcStore, UndoRepair};
use uc_sim::{Pid, SplitMix64};
use uc_spec::{UndoableUqAdt, UqAdt};

/// A fresh sequential replica of `adt` in `shards` shards.
pub fn sequential<A: UqAdt + Clone, F: StrategyFactory<A>>(
    adt: &A,
    factory: &F,
    pid: Pid,
    shards: usize,
) -> UcStore<A, F> {
    UcStore::new(adt.clone(), pid, shards, factory.clone())
}

/// The same replica, its shards on `workers` worker threads.
pub fn pooled<A, F>(
    adt: &A,
    factory: &F,
    pid: Pid,
    shards: usize,
    workers: usize,
) -> IngestPool<A, F>
where
    A: UqAdt + Clone + Send + 'static,
    A::Update: Send,
    A::QueryIn: Send,
    A::QueryOut: Send,
    A::State: Send + Sync,
    F: StrategyFactory<A> + Send + 'static,
    F::Strategy: Send + 'static,
{
    sequential(adt, factory, pid, shards).into_pool(PoolConfig {
        workers,
        ..PoolConfig::default()
    })
}

/// Run `$body(make, args…)` once per node kind — the store, and pools
/// of one and of two workers — `make(pid)` building a fresh replica of
/// that kind: `$adt` in `$shards` shards over `$factory`.
#[allow(unused_macros)]
macro_rules! on_every_node_kind {
    ($body:ident, $adt:expr, $factory:expr, $shards:expr $(, $arg:expr)*) => {{
        let (adt, factory, shards) = ($adt, $factory, $shards);
        $body(|pid| $crate::common::sequential(&adt, &factory, pid, shards) $(, $arg)*);
        $body(|pid| $crate::common::pooled(&adt, &factory, pid, shards, 1) $(, $arg)*);
        $body(|pid| $crate::common::pooled(&adt, &factory, pid, shards, 2) $(, $arg)*);
    }};
}
#[allow(unused_imports)]
pub(crate) use on_every_node_kind;

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
