//! **Stability-based garbage collection** (§VII-C: "after some time
//! old messages can be garbage collected"), as the [`StableGc`]
//! strategy on the shared [`ReplicaEngine`](crate::engine::ReplicaEngine).
//!
//! An update is *stable* once no future message can order before it.
//! Per-sender Lamport clocks are strictly increasing and links are
//! FIFO, so once every process (oneself included) is known to have
//! passed clock `c`, every future update carries a timestamp with
//! clock `> c` — entries with `ts.clock ≤ c` are final and their
//! prefix can be folded into a base state and dropped from the log.
//! That `c` is the replica's **stability floor**, and the strategy
//! keeps none of the knowledge behind it: whoever does hands it over
//! through [`raise_floor`](crate::engine::RepairStrategy::raise_floor)
//! and the strategy drains through it at its next compaction. The
//! strategy's [`bound`](StableGc::stability_bound) is the floor it
//! last drained through.
//!
//! Under a [`UcStore`](crate::store::UcStore) or an
//! [`IngestPool`](crate::pool::IngestPool) the floor is kept once per
//! shard set — the minimum of the clocks heard from every pid, capped
//! by the retention pin — and rises on heartbeats, on the replica's
//! own stamps and ticks, and on every update a sender's FIFO link
//! delivers (a stamp `c` from `p` says what a heartbeat `(p, c)`
//! says). Every insertion hands its key the floor, so the insertion's
//! own compaction drains what is stable; a heartbeat or tick that
//! raised the floor since the last sweep hands it to the keys whose
//! log holds entries. A key whose log is empty sits the sweeps out: it
//! has nothing to drain, and its next insertion brings it the floor. A
//! single object under GC is a store with one key, so this floor is the
//! only one there is.
//!
//! A drain does not reach a persistent backend at once: the engine
//! hands it the base at its next flush, once however many drains moved
//! it since ([`RepairStrategy::persist_base`]).
//!
//! Reads of a long log do not refold: the strategy keeps the fold of
//! base and retained log and advances it by what arrived since — the
//! cold/warm contract and its three invalidation rules are on
//! [`StableGc`]. A read of a short log with no fold kept folds base
//! and log into a state of its own and answers with it (a *fresh
//! fold*): replaying a few entries is cheaper than keeping a second
//! state that the next compaction may overtake. [`StableGc`] also
//! says what changes once the fold is shared with readers (a pool's
//! published snapshots): it lives behind an `Arc`, two buffers take
//! turns under it, a publication copies nothing, and the base is a
//! view of those buffers, so compaction applies nothing the fold
//! already holds — a published update is applied twice, once per
//! buffer.
//!
//! Silent processes block stability (the floor stays at the last
//! clock heard from them), so replicas send periodic clock heartbeats
//! ([`StoreMsg::Heartbeat`](crate::store::StoreMsg::Heartbeat)) — the
//! practical reading of the paper's "after some time". One crashed process
//! freezes collection forever, which is the honest cost of stability
//! tracking in a wait-free system and is measured by the E10
//! experiment.

use crate::backend::LogBackend;
use crate::engine::{CutError, RepairStrategy};
use crate::log::UpdateLog;
use crate::timestamp::Timestamp;
use std::sync::Arc;
use uc_spec::UqAdt;

/// A kept fold over a stability-compacted log: the stable prefix is
/// folded into `base` and dropped; queries over a long retained log
/// keep the fold of `base` and the retained log and advance it by what
/// arrived since.
///
/// # Which fold a read takes
///
/// A kept fold pays where a log stays long — a pinned outage, a silent
/// peer — and costs where it does not: most logs hold a few entries
/// between two heartbeats, each compaction that overtakes the fold
/// sends it cold (rule 3 below), and the cold read then copied `base`
/// into the kept fold and the answer out of it again. So a read
/// ([`RepairStrategy::answer`]) takes one of four paths:
///
/// * a **shared fold** (see *A shared fold*) answers from `front`;
/// * an **empty log** answers from `base`;
/// * the **kept fold**, while it is warm or once the retained log
///   holds at least `KEPT_FOLD_MIN` (8) entries: a warm read applies
///   the tail, a cold one builds the fold;
/// * otherwise a **fresh fold**: clone `base`, replay the retained log
///   into the clone and answer with it by [`UqAdt::observe_owned`] —
///   one copy of the state, not two. No fold is kept.
///
/// [`current_state`](RepairStrategy::current_state) (a materialization,
/// a cut read covering the whole log, a monitor's check) always takes
/// the kept fold.
///
/// # The kept fold
///
/// The kept fold lives in a box of its own (`kept`), which a key holds
/// only while it keeps a fold. The cache is **cold** (no fold is kept)
/// or **warm** (it folds every update this replica ever held stamped
/// at or below `folded`, compacted or retained). A warm read
/// applies only the log's tail above `folded`; a cold read clones
/// `base` and replays the whole retained log; a read of an empty log
/// answers from `base` and leaves the cache as it was. The cache
/// starts cold, and three events send it cold again, dropping its box:
///
/// 1. an insertion stamped at or below `folded` — the late message of
///    §VII-C, the only arrival that reorders what was folded;
/// 2. [`install_base`](RepairStrategy::install_base) — recovery
///    replaces the history under the cache;
/// 3. a compaction that drains an entry stamped above `folded` —
///    `base` would then hold an update the fold lacks and the tail no
///    longer carries. Compaction never builds a fold, so a key
///    nobody reads keeps one copy of its state and no box.
///
/// # A shared fold
///
/// The first [`shared_state`](RepairStrategy::shared_state) call moves
/// the kept fold into an `Arc` and hands that out — a publication is a
/// refcount bump, not a copy. From then on the key's box holds two
/// buffers taking turns (the rotation), cold or warm: `front`, the
/// kept fold; `back`, the generation before it; and `owed`, the
/// updates that take `back` to `front`. An advance writes `front` in
/// place while nobody else holds it; when somebody does (the pool's
/// [`Published`](crate::snapshot::Published) cell holds the newest
/// publication), it writes `back` instead — replays `owed`, applies
/// the tail — and the two swap roles. That works whenever the previous
/// generation has been let go, which the cell does on every publish;
/// only when it has not — the first advance after the first share, a
/// reader still holding the previous generation, a `back` dropped
/// because `owed` outgrew `OWED_MAX`, or a cold rebuild — is
/// a state copied, which is what every publication cost before.
/// `Arc::get_mut` is the only way a buffer is ever written, so a state
/// somebody holds never changes under them.
///
/// The base of a shared fold is mostly not a state of its own but a
/// *view* of the two buffers: `front` itself once a drain has taken
/// everything the fold holds (the common case: the heartbeat that
/// makes a burst stable), or `back` advanced by the first `n` owed
/// updates once `front` has moved on over entries not yet stable. A
/// drain under a view applies nothing — each update is applied twice,
/// once per buffer — and `base` holds `adt.initial()`. The view is
/// *materialized* (one copy into `base`) only where the buffers are
/// about to stop holding it — a swap that writes `back` past it,
/// `OWED_MAX` dropping `back`, an in-place advance with no `back`, a
/// late insertion that sends the fold cold — or where a state is
/// needed and the view sits inside `owed`: a cut below the log's end,
/// a persisted base. A view of a whole buffer is read where it is. For
/// a shared fold the rules above read:
///
/// * rules 1 and 2 hold as they are, except that they keep the box:
///   `folded` goes `None`. Rule 1 materializes a viewed base
///   first; rule 2 replaces the base, so its view is forgotten. The
///   cold rebuild starts a new `front` (one copy of `base`) and forgets
///   `back`: nothing relates the old generation to the new one;
/// * rule 3 does not fire: a compaction first advances the warm fold
///   over the entries it is about to drain, so compaction overtaking
///   publication costs those entries' fold a little earlier and never
///   a refold — and a drain that then takes all the fold holds leaves
///   the base at `front`, whatever it was before, so the advance keeps
///   no view and materializes nothing. (A cold fold stays cold; it
///   drains into a base of its own and is rebuilt from it.) Such a key
///   holds its state twice — `front` and `back` — where it used to be
///   four times: `base`, a private fold and the two copies in the cell;
/// * a read of an empty log answers `front` — there is no `Arc` of
///   `base` to hand out. Warm, `front` already equals the base (its
///   view is `front`); cold, it is rebuilt from `base` once. Either way
///   it is then folded through `(bound, u32::MAX)`: everything at or
///   below the bound is in it and nothing else is held.
///
/// `Clone` shares both buffers with the original, and copies `owed`
/// and the view. That is safe for the reason publication is: either
/// engine writes a buffer only while it is the sole holder, so the
/// first advance on either side finds `front` and `back` held and
/// copies, and a view of a shared `back` is materialized into a copy,
/// never by replaying into `back`.
#[derive(Clone, Debug)]
pub struct StableGc<A: UqAdt> {
    /// Fold of the compacted stable prefix — `adt.initial()` while a
    /// shared fold's view says where in its buffers that fold is.
    base: A::State,
    /// The kept fold, while the key keeps one; boxed, so that a key
    /// that keeps none grows by one pointer. A private fold is dropped
    /// when it goes cold; a shared one stays, cold or warm.
    kept: Option<Box<Kept<A>>>,
    /// Updates folded for reads: by a fresh fold, a refold or a tail
    /// apply.
    fold_steps: u64,
    /// Number of updates folded into `base`.
    compacted: u64,
    /// The stability bound: every entry with clock ≤ bound has been
    /// drained into the base.
    bound: u64,
    /// The floor last handed over
    /// ([`RepairStrategy::raise_floor`]); the next compaction drains
    /// through it.
    floor: u64,
}

/// A key's kept fold — see *The kept fold* and *A shared fold* on
/// [`StableGc`].
#[derive(Clone, Debug)]
enum Kept<A: UqAdt> {
    /// The warm fold of a key that was never shared: `state` folds
    /// every update this replica ever held stamped at or below
    /// `folded`.
    Own { state: A::State, folded: Timestamp },
    /// The fold of a key that was shared, warm or cold.
    Shared(Rotation<A>),
}

/// The longest `owed` a key keeps. Past it `back` is dropped instead
/// and the next swap copies: replaying that many updates is no longer
/// clearly cheaper than copying a state, and a key that is written
/// and never published again must not collect them for ever. Far
/// above what one burst brings a hot key between two publications.
const OWED_MAX: usize = 1024;

/// The retained log length from which a cold read builds the kept fold
/// instead of folding afresh (*Which fold a read takes* on
/// [`StableGc`]). Folding afresh at every length halved the read rate
/// of `e2e`'s `partition-heal`, whose pinned outages keep logs of
/// hundreds of entries; a cutover of 16 read 2.85 fold steps per
/// update there, against 1.98 at 8.
const KEPT_FOLD_MIN: usize = 8;

/// The two buffers of a shared fold — see *A shared fold* on
/// [`StableGc`].
#[derive(Clone, Debug)]
struct Rotation<A: UqAdt> {
    /// The kept fold, handed out by refcount bump.
    front: Arc<A::State>,
    /// Highest timestamp folded into `front`; `None` = cold.
    folded: Option<Timestamp>,
    /// The generation before `front`; `None` when there is none worth
    /// keeping.
    back: Option<Arc<A::State>>,
    /// The updates that take `back` to `front`, in order; empty without
    /// a `back`.
    owed: Vec<A::Update>,
    /// Where the base is, when it is not `StableGc::base` itself.
    view: Option<View>,
    /// Was a whole state copied since the fold was last handed out?
    copied: bool,
}

/// A shared fold's base as a place in its buffers — see *A shared
/// fold* on [`StableGc`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum View {
    /// The base is `front`.
    Front,
    /// The base is `back` advanced by the first `n` owed updates
    /// (`n < owed.len()`: at `owed.len()` it is `Front`).
    Back(usize),
}

impl<A: UqAdt> Rotation<A> {
    /// Apply `tail` to the kept fold; returns how many owed updates
    /// were replayed on the way. A viewed base the advance would leave
    /// behind is materialized into `base` first. Out of line, like
    /// [`StableGc::shared_fold`]: compaction calls it, and compaction
    /// runs for every key.
    #[inline(never)]
    fn advance(&mut self, adt: &A, tail: &[(Timestamp, A::Update)], base: &mut A::State) -> usize {
        if tail.is_empty() {
            return 0;
        }
        let in_place = Arc::get_mut(&mut self.front).is_some();
        // What `back` will trail by, and whether that is still worth
        // keeping: in place, `back` stays and trails by the tail as
        // well; a swap makes the present `front` the new `back`.
        let trails = if in_place { self.owed.len() } else { 0 };
        let keep = (self.back.is_some() || !in_place) && trails + tail.len() <= OWED_MAX;
        let mut replayed = 0;
        match self.view {
            Some(View::Front) if keep => self.view = Some(View::Back(trails)),
            Some(View::Back(_)) if keep && in_place => {}
            _ => replayed += self.materialize(adt, base),
        }
        if in_place {
            let front = Arc::get_mut(&mut self.front).expect("checked above");
            for (_, u) in tail {
                adt.apply(front, u);
            }
        } else {
            // `front` is held (by the cell, a reader, an engine clone):
            // bring the previous generation up to date instead, if it
            // has been let go.
            let reused = self.back.take().and_then(|mut back| {
                let state = Arc::get_mut(&mut back)?;
                for u in &self.owed {
                    adt.apply(state, u);
                }
                Some(back)
            });
            replayed += reused.as_ref().map_or(0, |_| self.owed.len());
            let mut next = reused.unwrap_or_else(|| {
                self.copied = true;
                Arc::new(A::State::clone(&self.front))
            });
            let state = Arc::get_mut(&mut next).expect("sole holder: let go or just made");
            for (_, u) in tail {
                adt.apply(state, u);
            }
            self.back = Some(std::mem::replace(&mut self.front, next));
            // One long burst must not size a key's `owed` for good.
            self.owed.clear();
            self.owed.shrink_to(4 * tail.len());
        }
        if keep {
            self.owed.extend(tail.iter().map(|(_, u)| u.clone()));
        } else {
            self.back = None;
            self.owed = Vec::new();
        }
        replayed
    }

    /// Where a base that trails `front` by `lag` updates sits, if the
    /// buffers hold it.
    fn view_at(&self, lag: usize) -> Option<View> {
        match lag {
            0 => Some(View::Front),
            _ if self.back.is_some() && lag <= self.owed.len() => {
                Some(View::Back(self.owed.len() - lag))
            }
            _ => None,
        }
    }

    /// Give a viewed base a state of its own in `base`: one copy.
    /// Returns how many owed updates were replayed on the way — into
    /// `back` itself when nobody else holds it, so that the next swap
    /// does not replay them again.
    fn materialize(&mut self, adt: &A, base: &mut A::State) -> usize {
        let Some(view) = self.view.take() else {
            return 0;
        };
        self.copied = true;
        let View::Back(n) = view else {
            *base = A::State::clone(&self.front);
            return 0;
        };
        let back = self.back.as_mut().expect("a view of `back`");
        if let Some(state) = Arc::get_mut(back) {
            for u in self.owed.drain(..n) {
                adt.apply(state, &u);
            }
            *base = state.clone();
        } else {
            *base = A::State::clone(back);
            for u in &self.owed[..n] {
                adt.apply(base, u);
            }
        }
        n
    }

    /// Start over from a freshly folded `state`.
    fn restart(&mut self, state: A::State) {
        debug_assert!(self.view.is_none(), "a cold fold's base is its own");
        self.front = Arc::new(state);
        self.back = None;
        self.owed = Vec::new();
        self.copied = true;
    }
}

impl<A: UqAdt> StableGc<A> {
    /// A fresh strategy: nothing drained, no floor handed over yet.
    pub fn new(adt: &A) -> Self {
        StableGc {
            base: adt.initial(),
            kept: None,
            fold_steps: 0,
            compacted: 0,
            bound: 0,
            floor: 0,
        }
    }

    /// Number of updates folded into the base state.
    pub fn compacted(&self) -> u64 {
        self.compacted
    }

    /// The current stability bound: the floor the strategy last
    /// drained through.
    pub fn stability_bound(&self) -> u64 {
        self.bound
    }

    /// Cumulative updates folded for reads: one step per update,
    /// whether a fresh fold replayed it, a cold read rebuilt the kept
    /// fold with it or a warm read applied it from the tail. A read of
    /// a short log with no fold kept costs the log's length every
    /// time. Once the fold is kept, the count stays flat across
    /// repeated queries of an unchanged log, grows by one per in-order
    /// arrival read, and by the retained log's length after a late
    /// one. A shared fold pays a second step per update, when the
    /// buffer that sat out an advance catches up — and those two are
    /// all an update costs it: a drain whose prefix the buffers hold
    /// applies nothing to the base (the owed updates a materialization
    /// replays count here too).
    pub fn query_fold_steps(&self) -> u64 {
        self.fold_steps
    }

    /// [`RepairStrategy::current_state`] of a shared fold. Out of line:
    /// a key that was never shared runs the code it always ran.
    #[inline(never)]
    fn shared_fold<B: LogBackend<A>>(&mut self, adt: &A, log: &UpdateLog<A, B>) -> &A::State {
        let Some(Kept::Shared(rotation)) = self.kept.as_deref_mut() else {
            unreachable!("a shared fold");
        };
        // Over an empty log all that is held is in `base`, which folds
        // through the bound.
        let newest = log
            .last_timestamp()
            .unwrap_or(Timestamp::new(self.bound, u32::MAX));
        match rotation.folded {
            Some(folded) if folded == newest => {}
            Some(folded) => {
                let (tail, _) = log.suffix_window(0, Some(folded), usize::MAX);
                let replayed = rotation.advance(adt, tail, &mut self.base);
                self.fold_steps += (tail.len() + replayed) as u64;
            }
            None => {
                self.fold_steps += log.len() as u64;
                let updates = log.iter().map(|(_, u)| u);
                rotation.restart(adt.run_updates_from(self.base.clone(), updates));
            }
        }
        rotation.folded = Some(newest);
        &rotation.front
    }

    /// The base as a state: `base` itself, or the whole buffer a shared
    /// fold's view names; a view inside `owed` is materialized first.
    fn base_state(&mut self, adt: &A) -> &A::State {
        let Some(Kept::Shared(rotation)) = self.kept.as_deref_mut() else {
            return &self.base;
        };
        match rotation.view {
            Some(View::Front) => &rotation.front,
            Some(View::Back(0)) => rotation.back.as_deref().expect("a view of `back`"),
            Some(View::Back(_)) => {
                self.fold_steps += rotation.materialize(adt, &mut self.base) as u64;
                &self.base
            }
            None => &self.base,
        }
    }

    fn try_compact<B: LogBackend<A>>(&mut self, adt: &A, log: &mut UpdateLog<A, B>) {
        self.bound = self.bound.max(self.floor);
        if let Some(Kept::Shared(Rotation {
            folded: Some(folded),
            ..
        })) = self.kept.as_deref()
        {
            return self.compact_shared(adt, log, *folded);
        }
        let (base, compacted) = (&mut self.base, &mut self.compacted);
        let Some(last) = log.drain_stable_prefix(self.bound, |u| {
            adt.apply(base, u);
            *compacted += 1;
        }) else {
            return;
        };
        if matches!(self.kept.as_deref(), Some(Kept::Own { folded, .. }) if last > *folded) {
            self.kept = None;
        }
    }

    /// [`StableGc::try_compact`] of a warm shared fold: the fold goes
    /// ahead of the drain (rule 3 never fires), and the drained prefix
    /// is a view of the buffers wherever they hold it. Out of line: a
    /// key that was never shared runs the code it always ran.
    #[inline(never)]
    fn compact_shared<B: LogBackend<A>>(
        &mut self,
        adt: &A,
        log: &mut UpdateLog<A, B>,
        folded: Timestamp,
    ) {
        let Some(Kept::Shared(rotation)) = self.kept.as_deref_mut() else {
            unreachable!("a shared fold");
        };
        let (tail, _) = log.suffix_window(0, Some(folded), usize::MAX);
        let held = log.len() - tail.len();
        debug_assert!(
            rotation.view.is_none() || rotation.view == rotation.view_at(held),
            "a view trails `front` by the retained entries the fold holds"
        );
        let stable = &tail[..tail.partition_point(|(ts, _)| ts.clock <= self.bound)];
        // What the base trails `front` by once the fold has taken
        // `stable` and the drain its prefix: the entries the fold then
        // holds that the drain leaves.
        let lag = held + stable.len() - log.prefix_len(self.bound);
        let real = rotation.view.is_none();
        if let Some((last, _)) = stable.last() {
            // The drain takes all the fold will hold (`lag` is 0): the
            // base is about to be `front`, so no view of it is kept
            // through the advance, and none is materialized.
            rotation.view = None;
            rotation.folded = Some(*last);
            let replayed = rotation.advance(adt, stable, &mut self.base);
            self.fold_steps += (stable.len() + replayed) as u64;
        }
        let view = rotation.view_at(lag);
        debug_assert!(real || view.is_some(), "a drain never loses a view");
        let (base, compacted) = (&mut self.base, &mut self.compacted);
        let drained = log.drain_stable_prefix(self.bound, |u| {
            if view.is_none() {
                adt.apply(base, u);
            }
            *compacted += 1;
        });
        if drained.is_none() {
            return;
        }
        if real && view.is_some() {
            *base = adt.initial();
        }
        rotation.view = view;
    }
}

impl<A: UqAdt> RepairStrategy<A> for StableGc<A> {
    fn on_insert<B: LogBackend<A>>(&mut self, adt: &A, log: &mut UpdateLog<A, B>, pos: usize) {
        debug_assert!(
            log.get(pos)
                .map(|(ts, _)| ts.clock > self.bound)
                .unwrap_or(true),
            "stability violated: insert at or below bound {}",
            self.bound
        );
        if let Some(&(ts, _)) = log.get(pos) {
            match self.kept.as_deref_mut() {
                Some(Kept::Own { folded, .. }) if ts <= *folded => self.kept = None,
                Some(Kept::Shared(rotation)) if rotation.folded.is_some_and(|f| ts <= f) => {
                    rotation.folded = None;
                    // The rebuild replaces both buffers: a base they
                    // hold needs a state of its own first.
                    self.fold_steps += rotation.materialize(adt, &mut self.base) as u64;
                }
                _ => {}
            }
        }
        self.try_compact(adt, log);
    }

    /// The floor of the moment, capped by any pin: a lower floor than
    /// the last one handed over holds the next drain back to it, and
    /// never undoes one.
    fn raise_floor(&mut self, floor: u64) {
        self.floor = floor;
    }

    /// LSM-style persistence: the base that the drains since the last
    /// flush moved, with the retained suffix as the live tail (a no-op
    /// on the in-memory backend). A shared fold's base inside `owed`
    /// is materialized for it.
    fn persist_base<B: LogBackend<A>>(&mut self, adt: &A, log: &mut UpdateLog<A, B>) {
        log.persist_base(self.bound, self.base_state(adt));
    }

    fn maintain<B: LogBackend<A>>(&mut self, adt: &A, log: &mut UpdateLog<A, B>) {
        self.try_compact(adt, log);
    }

    fn current_state<B: LogBackend<A>>(&mut self, adt: &A, log: &UpdateLog<A, B>) -> &A::State {
        if let Some(Kept::Shared(_)) = self.kept.as_deref() {
            return self.shared_fold(adt, log);
        }
        let Some(newest) = log.last_timestamp() else {
            return &self.base;
        };
        let kept = self.kept.get_or_insert_with(|| {
            self.fold_steps += log.len() as u64;
            let state = adt.run_updates_from(self.base.clone(), log.iter().map(|(_, u)| u));
            Box::new(Kept::Own {
                state,
                folded: newest,
            })
        });
        let Kept::Own { state, folded } = &mut **kept else {
            unreachable!("a shared fold answered above");
        };
        if *folded != newest {
            let (tail, _) = log.suffix_window(0, Some(*folded), usize::MAX);
            self.fold_steps += tail.len() as u64;
            for (_, u) in tail {
                adt.apply(state, u);
            }
            *folded = newest;
        }
        state
    }

    /// A read on one of the four paths of *Which fold a read takes* on
    /// [`StableGc`]; all but the fresh fold observe
    /// [`current_state`](RepairStrategy::current_state).
    fn answer<B: LogBackend<A>>(
        &mut self,
        adt: &A,
        log: &UpdateLog<A, B>,
        q: &A::QueryIn,
    ) -> A::QueryOut {
        let fresh = self.kept.is_none() && (1..KEPT_FOLD_MIN).contains(&log.len());
        if !fresh {
            return adt.observe(self.current_state(adt, log), q);
        }
        self.fold_steps += log.len() as u64;
        let state = adt.run_updates_from(self.base.clone(), log.iter().map(|(_, u)| u));
        adt.observe_owned(state, q)
    }

    fn holds_fold(&self) -> bool {
        self.kept.is_some()
    }

    /// The kept fold itself, by refcount bump — see *A shared fold* on
    /// [`StableGc`] for when a copy still happens (the flag).
    fn shared_state<B: LogBackend<A>>(
        &mut self,
        adt: &A,
        log: &UpdateLog<A, B>,
    ) -> (Arc<A::State>, bool) {
        if !matches!(self.kept.as_deref(), Some(Kept::Shared(_))) {
            // A warm fold moves along; a cold one is rebuilt.
            let (front, folded) = match self.kept.take().map(|kept| *kept) {
                Some(Kept::Own { state, folded }) => (state, Some(folded)),
                _ => (adt.initial(), None),
            };
            self.kept = Some(Box::new(Kept::Shared(Rotation {
                front: Arc::new(front),
                folded,
                back: None,
                owed: Vec::new(),
                view: None,
                copied: false,
            })));
        }
        self.shared_fold(adt, log);
        let Some(Kept::Shared(rotation)) = self.kept.as_deref_mut() else {
            unreachable!("made above");
        };
        let copied = std::mem::take(&mut rotation.copied);
        (Arc::clone(&rotation.front), copied)
    }

    /// Cut queries over a compacted log: the base already folds every
    /// update with `clock ≤ bound`, so a cut below the bound is
    /// unanswerable ([`CutError`]) and a cut at or above it folds only
    /// the retained prefix `(bound, cut]` over the base (a shared
    /// fold's viewed base too, see *A shared fold*). When the cut
    /// covers the whole retained log this *is* the current state, so
    /// the cached query fold is reused — such a cut costs only the
    /// unfolded tail while the cache is warm.
    fn state_at_cut<B: LogBackend<A>>(
        &mut self,
        adt: &A,
        log: &UpdateLog<A, B>,
        cut: u64,
    ) -> Result<A::State, CutError> {
        if cut < self.bound {
            return Err(CutError {
                cut,
                bound: self.bound,
            });
        }
        let plen = log.prefix_len(cut);
        if plen == log.len() {
            return Ok(self.current_state(adt, log).clone());
        }
        self.fold_steps += plen as u64;
        let base = self.base_state(adt).clone();
        Ok(adt.run_updates_from(base, log.prefix_at(cut).map(|(_, u)| u)))
    }

    /// Recovery: adopt a base persisted by an earlier run's
    /// compaction. The floor is *not* persisted, so the bound cannot
    /// advance until a floor above it is handed over again —
    /// conservative, never unsound (the restored bound still blocks
    /// re-compaction below it, and entries at or below it were already
    /// folded).
    fn install_base(&mut self, _adt: &A, bound: u64, state: A::State) -> bool {
        self.base = state;
        self.bound = bound;
        match self.kept.as_deref_mut() {
            Some(Kept::Shared(rotation)) => {
                rotation.folded = None;
                rotation.view = None;
            }
            _ => self.kept = None,
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ReplicaEngine;
    use crate::message::UpdateMsg;
    use crate::store::{GcFactory, StoreMsg, UcStore};
    use std::collections::BTreeSet;
    use uc_spec::{SetAdt, SetQuery, SetUpdate};

    impl<A: UqAdt> StableGc<A> {
        /// Highest timestamp the kept fold folds; `None` = cold.
        fn folded(&self) -> Option<Timestamp> {
            match self.kept.as_deref()? {
                Kept::Own { folded, .. } => Some(*folded),
                Kept::Shared(rotation) => rotation.folded,
            }
        }

        /// The kept fold, if it was shared.
        fn rotation(&self) -> Option<&Rotation<A>> {
            match self.kept.as_deref()? {
                Kept::Own { .. } => None,
                Kept::Shared(rotation) => Some(rotation),
            }
        }
    }

    #[test]
    fn a_key_that_keeps_no_fold_pays_one_pointer_for_it() {
        assert!(std::mem::size_of::<StableGc<SetAdt<u32>>>() <= 64);
    }

    /// A single object under GC: a store with one key, 0.
    type R = UcStore<SetAdt<u32>, GcFactory>;
    type Msg = StoreMsg<SetUpdate<u32>>;

    /// Replica `pid` of a cluster of `n`.
    fn replica(pid: u32, n: usize) -> R {
        UcStore::new(SetAdt::new(), pid, 1, GcFactory { n })
    }

    fn update(r: &mut R, u: SetUpdate<u32>) -> Msg {
        r.update(0, u)
    }

    fn read(r: &mut R) -> BTreeSet<u32> {
        r.query(0, &SetQuery::Read)
    }

    fn deliver(r: &mut R, from: u32, msg: Msg) {
        let Ok(_) = r.apply_message_from(from, msg);
    }

    /// A heartbeat: count the replica's own clock, compact, and
    /// announce the clock.
    fn tick(r: &mut R) -> Msg {
        r.tick_maintenance();
        r.heartbeat()
    }

    fn strategy(r: &R) -> &StableGc<SetAdt<u32>> {
        r.engine(0).expect("key 0 was written").strategy()
    }

    fn compacted(r: &R) -> u64 {
        strategy(r).compacted()
    }

    fn fold_steps(r: &R) -> u64 {
        strategy(r).query_fold_steps()
    }

    /// Fully connect two replicas: deliver every produced message to
    /// the other, then exchange heartbeats.
    fn exchange(a: &mut R, b: &mut R, msgs_a: Vec<Msg>, msgs_b: Vec<Msg>) {
        for m in msgs_a {
            deliver(b, a.pid(), m);
        }
        for m in msgs_b {
            deliver(a, b.pid(), m);
        }
        let ha = tick(a);
        let hb = tick(b);
        deliver(b, a.pid(), ha);
        deliver(a, b.pid(), hb);
    }

    #[test]
    fn compaction_preserves_semantics() {
        let mut a = replica(0, 2);
        let mut b = replica(1, 2);
        let mut ma = Vec::new();
        let mut mb = Vec::new();
        for i in 0..20u32 {
            ma.push(update(&mut a, SetUpdate::Insert(i)));
            if i % 2 == 0 {
                mb.push(update(&mut b, SetUpdate::Delete(i)));
            }
        }
        exchange(&mut a, &mut b, ma, mb);
        assert_eq!(a.materialize_key(0), b.materialize_key(0));
        assert!(compacted(&a) > 0, "stable prefix must have been folded");
        // Odd elements were never deleted and must survive compaction.
        assert!(a.materialize_key(0).contains(&1));
    }

    #[test]
    fn log_shrinks_after_heartbeats() {
        let mut a = replica(0, 2);
        let mut b = replica(1, 2);
        let msgs: Vec<_> = (0..50u32)
            .map(|i| update(&mut a, SetUpdate::Insert(i)))
            .collect();
        for m in msgs {
            deliver(&mut b, 0, m);
        }
        assert_eq!(
            b.total_log_len(),
            50,
            "no stability before hearing from everyone"
        );
        // b announces its clock to a, and vice versa.
        let hb = tick(&mut b);
        deliver(&mut a, 1, hb);
        let ha = tick(&mut a);
        deliver(&mut b, 0, ha);
        assert!(a.total_log_len() < 50, "a retained {}", a.total_log_len());
        assert!(b.total_log_len() < 50, "b retained {}", b.total_log_len());
        assert_eq!(a.materialize_key(0), b.materialize_key(0));
    }

    #[test]
    fn queries_reflect_base_plus_suffix() {
        let mut a = replica(0, 1); // alone: self-stable
        for i in 0..10u32 {
            update(&mut a, SetUpdate::Insert(i));
        }
        assert!(compacted(&a) > 0);
        assert_eq!(read(&mut a), (0..10).collect::<BTreeSet<u32>>());
    }

    #[test]
    fn repeated_queries_reuse_the_cached_fold() {
        // Regression: `current_state` used to refold the whole
        // unstable suffix from `base` on every query.
        let mut a = replica(0, 2);
        for i in 0..32u32 {
            update(&mut a, SetUpdate::Insert(i));
        }
        let _ = read(&mut a);
        let after_first = fold_steps(&a);
        assert!(after_first > 0, "first query folds the suffix");
        for _ in 0..10 {
            let _ = read(&mut a);
        }
        assert_eq!(
            fold_steps(&a),
            after_first,
            "repeated queries of an unchanged log must do zero extra fold steps"
        );
        // A new insertion is folded in by the next query.
        update(&mut a, SetUpdate::Insert(99));
        let _ = read(&mut a);
        assert!(fold_steps(&a) > after_first);
    }

    #[test]
    fn in_order_appends_cost_one_fold_step_each() {
        // Peer 1 stays silent, so nothing compacts: the log grows to N
        // and a refold per read would cost 1 + 2 + … + N = 2080.
        const N: u32 = 64;
        let mut a = replica(0, 2);
        for i in 0..N {
            update(&mut a, SetUpdate::Insert(i));
            assert_eq!(read(&mut a).len(), i as usize + 1);
        }
        // Fresh folds of 1..=7 entries, the kept fold built at 8, then
        // one step per arrival: 28 + 8 + 56.
        assert_eq!(fold_steps(&a), 92);
    }

    /// A replica whose silent peer pins `len` entries in its log.
    fn pinned(len: u32) -> R {
        let mut a = replica(0, 2);
        for i in 0..len {
            update(&mut a, SetUpdate::Insert(i));
        }
        assert_eq!(a.total_log_len(), len as usize);
        a
    }

    #[test]
    fn a_short_log_is_folded_afresh_by_every_read() {
        let len = KEPT_FOLD_MIN as u32 - 1;
        let mut a = pinned(len);
        for reads in 1..=3 {
            assert_eq!(read(&mut a), (0..len).collect::<BTreeSet<u32>>());
            let s = strategy(&a);
            assert_eq!(s.folded(), None, "no fold kept");
            assert!(s.kept.is_none(), "a fresh fold kept a state");
            assert!(!s.holds_fold());
            assert_eq!(fold_steps(&a), reads * u64::from(len));
        }
    }

    #[test]
    fn a_log_at_the_cutover_keeps_its_fold() {
        let len = KEPT_FOLD_MIN as u32;
        let mut a = pinned(len);
        for _ in 0..3 {
            assert_eq!(read(&mut a), (0..len).collect::<BTreeSet<u32>>());
            assert_eq!(fold_steps(&a), u64::from(len), "built once");
        }
        let s = strategy(&a);
        assert!(s.folded().is_some() && s.holds_fold());
        let Some(Kept::Own { state, .. }) = s.kept.as_deref() else {
            panic!("a private fold");
        };
        assert_eq!(state.len(), len as usize);
    }

    #[test]
    fn a_late_insert_costs_exactly_one_full_refold() {
        // Process 2 stays silent, so the retained log is the full log.
        let mut a = replica(0, 3);
        for i in 0..16u32 {
            update(&mut a, SetUpdate::Insert(i));
        }
        let _ = read(&mut a);
        assert_eq!(fold_steps(&a), 16);
        // Stamped below the folded point: the cache goes cold.
        let late = UpdateMsg {
            ts: Timestamp::new(3, 1),
            update: SetUpdate::Delete(2),
        };
        deliver(&mut a, 1, StoreMsg::Update { key: 0, msg: late });
        assert!(!read(&mut a).contains(&2));
        assert_eq!(fold_steps(&a), 16 + 17);
        let _ = read(&mut a);
        // Warm again: the next in-order arrival is one step.
        update(&mut a, SetUpdate::Insert(99));
        let _ = read(&mut a);
        assert_eq!(fold_steps(&a), 16 + 17 + 1);
    }

    #[test]
    fn an_empty_log_answers_from_the_base_for_free() {
        // Alone in its cluster a replica is self-stable: every update
        // compacts on insertion and the log is always empty.
        let mut a = replica(0, 1);
        for i in 0..10u32 {
            update(&mut a, SetUpdate::Insert(i));
            assert_eq!(read(&mut a).len(), i as usize + 1);
        }
        assert_eq!(a.total_log_len(), 0);
        assert_eq!(fold_steps(&a), 0);
    }

    #[test]
    fn a_key_nobody_reads_keeps_one_copy_of_its_state() {
        let mut a = replica(0, 2);
        for i in 0..16u32 {
            update(&mut a, SetUpdate::Insert(i));
        }
        deliver(&mut a, 1, StoreMsg::Heartbeat { pid: 1, clock: 12 });
        assert_eq!(compacted(&a), 12);
        let s = strategy(&a);
        assert_eq!(s.fold_steps, 0);
        assert_eq!(s.folded(), None);
        assert!(s.kept.is_none(), "compaction kept a fold");
        assert!(s.rotation().is_none(), "never shared, never rotated");
    }

    #[test]
    fn compaction_overtaking_the_cache_sends_it_cold() {
        let mut a = replica(0, 2);
        for i in 0..8u32 {
            update(&mut a, SetUpdate::Insert(i));
        }
        let _ = read(&mut a); // folded up to clock 8, query ticks to 9
        for i in 8..16u32 {
            update(&mut a, SetUpdate::Insert(i)); // clocks 10..=17, unfolded
        }
        // Drains clocks 1..=12: three entries the cache never folded.
        deliver(&mut a, 1, StoreMsg::Heartbeat { pid: 1, clock: 12 });
        assert_eq!(strategy(&a).folded(), None);
        assert_eq!(read(&mut a), (0..16).collect::<BTreeSet<u32>>());
    }

    #[test]
    fn install_base_sends_the_cache_cold() {
        let adt = SetAdt::<u32>::new();
        let mut log: UpdateLog<SetAdt<u32>> = UpdateLog::new();
        let mut s = StableGc::new(&adt);
        let pos = log
            .insert(UpdateMsg {
                ts: Timestamp::new(9, 0),
                update: SetUpdate::Insert(1),
            })
            .expect("fresh");
        s.on_insert(&adt, &mut log, pos);
        assert_eq!(s.current_state(&adt, &log), &BTreeSet::from([1]));
        assert!(s.install_base(&adt, 4, BTreeSet::from([7])));
        assert_eq!(s.current_state(&adt, &log), &BTreeSet::from([1, 7]));
    }

    #[test]
    fn compaction_between_queries_keeps_the_cache_correct() {
        // Compaction moves stable entries into the base without
        // changing the fold; a query answered from the cache after a
        // compaction must still be right.
        let mut a = replica(0, 2);
        let mut b = replica(1, 2);
        let msgs: Vec<_> = (0..16u32)
            .map(|i| update(&mut a, SetUpdate::Insert(i)))
            .collect();
        for m in msgs {
            deliver(&mut b, 0, m);
        }
        let expect = read(&mut a);
        // Heartbeats trigger compaction on `a` with no new entries.
        let hb = tick(&mut b);
        deliver(&mut a, 1, hb);
        a.tick_maintenance();
        assert!(compacted(&a) > 0, "compaction must have happened");
        assert_eq!(read(&mut a), expect);
    }

    #[test]
    fn silent_process_blocks_collection() {
        // Three processes; process 2 never speaks → the floor stays 0.
        let mut a = replica(0, 3);
        for i in 0..30u32 {
            update(&mut a, SetUpdate::Insert(i));
        }
        deliver(&mut a, 1, StoreMsg::Heartbeat { pid: 1, clock: 30 });
        a.tick_maintenance();
        assert_eq!(compacted(&a), 0, "silent third process must freeze GC");
        assert_eq!(strategy(&a).stability_bound(), 0);
        assert_eq!(a.total_log_len(), 30);
        assert_eq!(read(&mut a), (0..30).collect::<BTreeSet<u32>>());
    }

    #[test]
    fn heartbeat_from_unknown_pid_is_ignored_not_panicking() {
        // Regression: hearing a clock used to index the per-pid table
        // unchecked, so a heartbeat from a pid ≥ n panicked the
        // replica. Out-of-cluster clocks must be ignored: the peer's
        // clock 5 holds the floor, whatever pid 7 announces.
        let mut a = replica(0, 2);
        deliver(&mut a, 1, StoreMsg::Heartbeat { pid: 1, clock: 5 });
        update(&mut a, SetUpdate::Insert(1));
        deliver(&mut a, 7, StoreMsg::Heartbeat { pid: 7, clock: 99 });
        a.tick_maintenance();
        assert_eq!(
            strategy(&a).stability_bound(),
            5,
            "stray clock must not advance GC"
        );
        assert_eq!(compacted(&a), 0);
        assert_eq!(a.total_log_len(), 1);
        assert_eq!(read(&mut a), BTreeSet::from([1]));
    }

    #[test]
    fn update_from_unknown_pid_is_ingested_without_panic() {
        // The same out-of-bounds path is reachable through a plain
        // update delivery whose timestamp carries a foreign pid.
        let mut a = replica(0, 2);
        let msg = UpdateMsg {
            ts: Timestamp::new(4, 9),
            update: SetUpdate::Insert(4),
        };
        deliver(&mut a, 9, StoreMsg::Update { key: 0, msg });
        assert_eq!(read(&mut a), BTreeSet::from([4]));
        assert_eq!(strategy(&a).stability_bound(), 0);
        assert_eq!(a.total_log_len(), 1);
    }

    #[test]
    fn batched_gc_messages_match_sequential_delivery() {
        let mut producer = replica(1, 2);
        let mut msgs: Vec<_> = (0..20u32)
            .map(|i| update(&mut producer, SetUpdate::Insert(i)))
            .collect();
        msgs.push(StoreMsg::Heartbeat { pid: 1, clock: 20 });

        let mut seq = replica(0, 2);
        for m in msgs.clone() {
            deliver(&mut seq, 1, m);
        }
        let mut bat = replica(0, 2);
        bat.apply_batch_owned(msgs);
        assert_eq!(seq.materialize_key(0), bat.materialize_key(0));
        // Neither has spoken itself, so stability is identical too;
        // each one's own tick then makes all of it stable.
        assert_eq!(
            strategy(&seq).stability_bound(),
            strategy(&bat).stability_bound()
        );
        seq.tick_maintenance();
        bat.tick_maintenance();
        assert_eq!((compacted(&seq), compacted(&bat)), (20, 20));
    }

    /// The shared fold: two buffers taking turns under a
    /// [`Published`] cell, as a pool worker drives them.
    mod rotation {
        use super::*;
        use crate::generic::GenericReplica;
        use crate::snapshot::Published;
        use std::cell::Cell;

        thread_local! {
            /// Whole-state copies made on this test's thread.
            static COPIES: Cell<u64> = const { Cell::new(0) };
            /// Updates applied to any state on this test's thread.
            static APPLIES: Cell<u64> = const { Cell::new(0) };
        }

        fn copies() -> u64 {
            COPIES.with(Cell::get)
        }

        fn applies() -> u64 {
            APPLIES.with(Cell::get)
        }

        #[derive(Debug, PartialEq, Eq, Hash)]
        struct Counted(BTreeSet<u32>);

        impl Clone for Counted {
            fn clone(&self) -> Self {
                COPIES.with(|c| c.set(c.get() + 1));
                Counted(self.0.clone())
            }
        }

        /// A set whose state counts its copies, and that counts what it
        /// applies.
        #[derive(Clone, Debug)]
        struct CountedSet;

        impl UqAdt for CountedSet {
            type Update = SetUpdate<u32>;
            type QueryIn = ();
            type QueryOut = usize;
            type State = Counted;

            fn initial(&self) -> Counted {
                Counted(BTreeSet::new())
            }

            fn apply(&self, state: &mut Counted, update: &SetUpdate<u32>) {
                APPLIES.with(|c| c.set(c.get() + 1));
                SetAdt::new().apply(&mut state.0, update);
            }

            fn observe(&self, state: &Counted, _: &()) -> usize {
                state.0.len()
            }
        }

        type Engine = ReplicaEngine<CountedSet, StableGc<CountedSet>>;

        fn engine() -> Engine {
            ReplicaEngine::with_strategy(CountedSet, 0, StableGc::new(&CountedSet))
        }

        /// The peer's heartbeat at `clock` reaching an engine whose own
        /// stamps are at or above it: the floor, and the compaction.
        fn stable_through<A: UqAdt>(e: &mut ReplicaEngine<A, StableGc<A>>, clock: u64) {
            e.raise_floor(clock);
            e.tick_maintenance();
        }

        /// Four in-order updates, the peer's heartbeat compacting them
        /// under the fold, then the share a publication takes.
        fn burst(e: &mut Engine, n: u32) -> (Arc<Counted>, bool) {
            for i in 0..4 {
                e.update(SetUpdate::Insert(4 * n + i));
            }
            stable_through(e, e.clock());
            assert_eq!(e.log_len(), 0, "the burst compacted");
            let (state, copied) = e.shared_state();
            assert_eq!(state.0.len() as u32, 4 * (n + 1));
            (state, copied)
        }

        #[test]
        fn steady_publication_copies_at_bootstrap_only() {
            let mut e = engine();
            let cell = Published::new();
            let mut flagged = 0;
            let mut steady = 0;
            for n in 0..50 {
                let before = applies();
                let (state, copied) = burst(&mut e, n);
                if n >= 2 {
                    steady += applies() - before;
                }
                flagged += u64::from(copied);
                // The cell lets go of the previous generation here.
                cell.publish(u64::from(n) + 1, state);
                if n == 1 {
                    assert_eq!(copies(), 2, "the cold first share, the first swap");
                }
            }
            assert_eq!(copies(), 2, "a publication costs its tail, not a state");
            assert_eq!(flagged, 2, "and says so");
            assert_eq!(steady, 2 * 4 * 48, "one apply per buffer, none into `base`");
            let strategy = e.strategy();
            assert!(strategy.folded().is_some(), "compaction never sent it cold");
            let rotation = strategy.rotation().expect("shared");
            assert_eq!(rotation.view, Some(View::Front), "the base is `front`");
            assert_eq!(strategy.base, CountedSet.initial());
            // Each update folded once per buffer (the first four went
            // into `base` before the fold existed).
            assert_eq!(strategy.query_fold_steps(), 2 * 4 * 49 - 4);
        }

        #[test]
        fn a_reader_sitting_on_snapshots_costs_a_copy_each_and_none_once_gone() {
            let mut e = engine();
            let cell = Published::new();
            let mut epoch = 0;
            let mut publish = |e: &mut Engine, n: u32| {
                let (state, copied) = burst(e, n);
                epoch += 1;
                cell.publish(epoch, state);
                copied
            };
            for n in 0..4 {
                publish(&mut e, n);
            }
            // A reader two publications behind: whenever a buffer's
            // turn comes round it is still held.
            let mut held = std::collections::VecDeque::new();
            for n in 4..12 {
                held.push_back(cell.load().expect("published"));
                if held.len() > 2 {
                    held.pop_front();
                }
                let before = copies();
                let copied = publish(&mut e, n);
                let expect = u64::from(held.len() == 2);
                assert_eq!(copies() - before, expect, "publication {n}");
                assert_eq!(copied, expect == 1);
            }
            // What it holds is what it loaded, whatever was written since.
            for (epoch, state) in &held {
                assert_eq!(state.0.len() as u64, 4 * epoch);
            }
            drop(held);
            let before = copies();
            for n in 12..20 {
                assert!(!publish(&mut e, n));
            }
            assert_eq!(copies(), before, "nobody holds a buffer back any more");
        }

        type Set = ReplicaEngine<SetAdt<u32>, StableGc<SetAdt<u32>>>;

        /// An engine whose peers stay silent: nothing compacts.
        fn set_engine() -> Set {
            let adt = SetAdt::new();
            ReplicaEngine::with_strategy(adt, 0, StableGc::new(&adt))
        }

        #[test]
        fn the_buffer_that_sat_out_replays_what_it_owes_before_the_tail() {
            // Peer 1 stays silent: nothing compacts, every advance is a
            // read's. `back` trails by Insert(1) when Delete(1) arrives.
            let mut e = set_engine();
            let cell = Published::new();
            let steps = [
                (SetUpdate::Insert(7), BTreeSet::from([7])),
                (SetUpdate::Insert(1), BTreeSet::from([1, 7])),
                (SetUpdate::Delete(1), BTreeSet::from([7])),
                (SetUpdate::Insert(1), BTreeSet::from([1, 7])),
            ];
            for (epoch, (update, expect)) in steps.into_iter().enumerate() {
                e.update(update);
                let (state, _) = e.shared_state();
                assert_eq!(*state, expect);
                cell.publish(epoch as u64 + 1, state);
            }
        }

        #[test]
        fn a_late_arrival_forgets_the_previous_generation() {
            // The peers stay silent, so the retained log is the full log.
            let mut e = set_engine();
            let cell = Published::new();
            let mut epoch = 0;
            let mut publish = |e: &mut Set| {
                let (state, copied) = e.shared_state();
                let value = BTreeSet::clone(&state);
                epoch += 1;
                cell.publish(epoch, state);
                (value, copied)
            };
            for i in 0..3 {
                e.update(SetUpdate::Insert(i));
                publish(&mut e);
            }
            // Stamped below everything folded: cold, one rebuild.
            e.on_deliver(UpdateMsg {
                ts: Timestamp::new(1, 1),
                update: SetUpdate::Insert(9),
            });
            let (state, copied) = publish(&mut e);
            assert!(copied, "a cold rebuild is a copy");
            assert_eq!(state, BTreeSet::from([0, 1, 2, 9]));
            // The generation before the rebuild lacks the late update:
            // the next swap must not build on it.
            e.update(SetUpdate::Insert(3));
            let (state, copied) = publish(&mut e);
            assert!(copied, "no previous generation to advance");
            assert_eq!(state, BTreeSet::from([0, 1, 2, 3, 9]));
            e.update(SetUpdate::Insert(4));
            let (state, copied) = publish(&mut e);
            assert!(!copied, "warm again");
            assert_eq!(state, BTreeSet::from([0, 1, 2, 3, 4, 9]));
        }

        #[test]
        fn a_shared_fold_over_an_empty_log_answers_front() {
            // Alone in its cluster: every update compacts on insertion,
            // its own stamp the floor.
            let mut e = set_engine();
            let alone = |e: &mut Set, v| {
                e.raise_floor(e.clock() + 1);
                e.update(SetUpdate::Insert(v));
            };
            alone(&mut e, 1);
            let (first, copied) = e.shared_state();
            assert!(copied, "cold: rebuilt from the base once");
            let (again, copied) = e.shared_state();
            assert!(!copied && Arc::ptr_eq(&first, &again));
            // The insertion's own compaction advances the fold first.
            alone(&mut e, 2);
            assert_eq!(e.log_len(), 0);
            let (next, _) = e.shared_state();
            assert_eq!(
                (&*first, &*next),
                (&BTreeSet::from([1]), &BTreeSet::from([1, 2]))
            );
            assert_eq!(e.strategy().folded(), Some(Timestamp::new(2, u32::MAX)));
        }

        #[test]
        fn an_engine_clone_shares_the_buffers_and_writes_neither() {
            let mut e = set_engine();
            e.update(SetUpdate::Insert(1));
            let (held, _) = e.shared_state();
            let mut twin = e.clone();
            let (same, copied) = twin.shared_state();
            assert!(!copied && Arc::ptr_eq(&held, &same));
            twin.update(SetUpdate::Insert(2));
            e.update(SetUpdate::Insert(3));
            assert_eq!(twin.materialize(), BTreeSet::from([1, 2]));
            assert_eq!(e.materialize(), BTreeSet::from([1, 3]));
            assert_eq!(*held, BTreeSet::from([1]));
        }

        #[test]
        fn held_snapshots_never_change_under_a_swapping_writer() {
            let (_, copies) = swapping_writer(false);
            assert!(copies > 2, "sitting readers force the copy path");
        }

        #[test]
        fn held_snapshots_never_change_while_the_writer_materializes_its_base() {
            let (epochs, copies) = swapping_writer(true);
            assert!(
                copies >= epochs / 2,
                "every publication without a heartbeat materializes: {copies} of {epochs}"
            );
        }

        /// A writer publishing into a cell while readers sit on what they
        /// loaded; returns the publications and those that copied a
        /// state. With `unstable`, each heartbeat lags the writer's newest
        /// update and every other publication goes without one, so that
        /// update outlives two publications and the second swap
        /// materializes the base while readers hold snapshots.
        fn swapping_writer(unstable: bool) -> (u64, u64) {
            use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
            const READERS: usize = 3;
            let cell: Arc<Published<BTreeSet<u32>>> = Arc::new(Published::new());
            let done = Arc::new(AtomicBool::new(false));
            // Snapshots each reader has sat on and let go of.
            let kept: Arc<Vec<AtomicU64>> = Arc::new((0..READERS).map(|_| 0.into()).collect());
            // After publication `e` the set holds marker `1000 + e` and
            // no other: a buffer that skipped or reordered what it owed
            // would show an old marker.
            let marker = |epoch: u64| 1000 + epoch as u32;
            let readers: Vec<_> = (0..READERS)
                .map(|r| {
                    let (cell, done, kept) = (cell.clone(), done.clone(), kept.clone());
                    std::thread::spawn(move || {
                        while !done.load(Ordering::SeqCst) {
                            let Some((epoch, held)) = cell.load() else {
                                std::thread::yield_now();
                                continue;
                            };
                            let first_seen = BTreeSet::clone(&held);
                            let markers: Vec<u32> = first_seen.range(1000..).copied().collect();
                            assert_eq!(markers, [marker(epoch)], "epoch {epoch}");
                            // Sit on it across `r + 1` further publishes:
                            // from the second on, its buffer's turn has
                            // come and the writer had to copy.
                            let until = epoch + r as u64;
                            while cell.epoch() <= until && !done.load(Ordering::SeqCst) {
                                std::thread::yield_now();
                            }
                            assert_eq!(*held, first_seen, "held since epoch {epoch}");
                            kept[r].fetch_add(1, Ordering::SeqCst);
                        }
                    })
                })
                .collect();
            let mut e = set_engine();
            let (mut epoch, mut copies) = (0u64, 0u64);
            while kept.iter().any(|k| k.load(Ordering::SeqCst) < 32) {
                assert!(epoch < 50_000_000, "the readers never ran");
                epoch += 1;
                e.update(SetUpdate::Insert(marker(epoch)));
                e.update(SetUpdate::Delete(marker(epoch - 1)));
                e.update(SetUpdate::Insert(epoch as u32 % 16));
                e.update(SetUpdate::Delete((epoch as u32 + 5) % 16));
                if !unstable || epoch % 2 == 0 {
                    let clock = e.clock() - u64::from(unstable);
                    stable_through(&mut e, clock);
                }
                let (state, copied) = e.shared_state();
                copies += u64::from(copied);
                cell.publish(epoch, state);
            }
            done.store(true, Ordering::SeqCst);
            for r in readers {
                r.join().expect("reader");
            }
            (epoch, copies)
        }

        #[test]
        fn a_key_written_and_never_shared_again_stops_collecting_what_it_owes() {
            let mut e = set_engine();
            e.update(SetUpdate::Insert(0));
            let (first, _) = e.shared_state();
            e.update(SetUpdate::Insert(1));
            let (second, _) = e.shared_state();
            drop((first, second));
            // `front` is nobody else's now: reads advance it in place,
            // and `back` trails by more and more.
            for i in 2..2 * OWED_MAX as u32 {
                e.update(SetUpdate::Insert(i));
                assert_eq!(e.do_query(&SetQuery::Read).len() as u32, i + 1);
            }
            let rotation = e.strategy().rotation().expect("shared once");
            assert!(rotation.back.is_none() && rotation.owed.is_empty());
        }

        /// A published key beside a full-log replica fed the same
        /// updates: what every base and publication is checked against.
        struct Tracked {
            e: Engine,
            naive: GenericReplica<SetAdt<u32>>,
            cell: Published<Counted>,
            epoch: u64,
        }

        impl Tracked {
            /// Three bursts, each published: `front` is the cell's,
            /// `back` nobody else's, and the base is `front`.
            fn steady() -> Tracked {
                let mut k = Tracked {
                    e: engine(),
                    naive: GenericReplica::new(SetAdt::new(), 0),
                    cell: Published::new(),
                    epoch: 0,
                };
                for n in 0..3 {
                    for i in 0..4 {
                        k.update(4 * n + i);
                    }
                    let clock = k.e.clock();
                    stable_through(&mut k.e, clock);
                    k.publish();
                }
                assert_eq!(k.view(), Some(View::Front));
                k
            }

            fn update(&mut self, v: u32) {
                let m = self.e.update(SetUpdate::Insert(v));
                self.naive.on_deliver(m);
            }

            /// Publish the key; whether that copied a state.
            fn publish(&mut self) -> bool {
                let (state, copied) = self.e.shared_state();
                assert_eq!(state.0, self.naive.materialize());
                self.epoch += 1;
                self.cell.publish(self.epoch, state);
                copied
            }

            fn view(&self) -> Option<View> {
                self.e.strategy().rotation().expect("shared").view
            }

            fn bound(&self) -> u64 {
                self.e.strategy().stability_bound()
            }

            /// The fold of every update at or below the bound.
            fn expected_base(&mut self) -> BTreeSet<u32> {
                let bound = self.bound();
                self.naive.state_at_cut(bound).expect("a full log")
            }

            fn assert_materialized(&mut self) {
                assert_eq!(self.view(), None, "a base of its own");
                let expect = self.expected_base();
                assert_eq!(self.e.strategy().base.0, expect);
            }
        }

        #[test]
        fn a_swap_past_a_base_inside_owed_replays_its_prefix_then_copies_once() {
            let mut k = Tracked::steady();
            // Nobody holds `front` any more: a read advances it in place
            // and the base stays where `front` was, four owed updates in.
            k.cell = Published::new();
            k.update(100);
            let _ = k.e.do_query(&());
            assert_eq!(k.view(), Some(View::Back(4)));
            assert!(!k.publish());
            k.update(101);
            let (copies0, applies0) = (copies(), applies());
            assert!(k.publish(), "the swap copies the base out of `back`");
            assert_eq!(copies() - copies0, 1);
            // Four owed updates into `back`, the copy, the fifth owed
            // update and the tail: nothing is replayed twice.
            assert_eq!(applies() - applies0, 4 + 1 + 1);
            k.assert_materialized();
        }

        #[test]
        fn owed_outgrowing_its_cap_under_a_view_copies_the_base_once() {
            let mut k = Tracked::steady();
            k.cell = Published::new();
            let before = copies();
            for v in 0..OWED_MAX as u32 {
                k.update(100 + v);
                let _ = k.e.do_query(&());
            }
            assert_eq!(copies() - before, 1, "the base, as `back` was dropped");
            let rotation = k.e.strategy().rotation().expect("shared");
            assert!(rotation.back.is_none());
            k.assert_materialized();
        }

        #[test]
        fn a_late_arrival_under_a_view_copies_the_base_once_before_the_rebuild() {
            let mut k = Tracked::steady();
            let bound = k.bound();
            // Not stable yet: the swap leaves the base in `back`.
            k.update(100);
            k.update(101);
            assert!(!k.publish());
            assert_eq!(k.view(), Some(View::Back(0)));
            // Between the two, above the bound: the fold goes cold, and
            // the heard clock compacts the first of them.
            let late = UpdateMsg {
                ts: Timestamp::new(bound + 1, 1),
                update: SetUpdate::Insert(102),
            };
            let before = copies();
            // The sender's floor, heard with its update.
            k.e.raise_floor(bound + 1);
            k.e.on_deliver(late.clone());
            k.naive.on_deliver(late);
            assert_eq!(
                copies() - before,
                1,
                "the base, before anything drained into it"
            );
            assert_eq!(k.bound(), bound + 1);
            k.assert_materialized();
            assert!(k.publish(), "the rebuild");
            assert_eq!(copies() - before, 2);
        }

        #[test]
        fn a_cut_below_the_log_end_materializes_a_base_inside_owed_only() {
            // The base is `back` itself: the cut copies its answer off it.
            let mut k = Tracked::steady();
            k.update(100);
            assert!(!k.publish());
            assert_eq!(k.view(), Some(View::Back(0)));
            let before = copies();
            let cut = k.e.state_at_cut(k.bound()).expect("at the bound");
            assert_eq!(cut.0, k.expected_base());
            assert_eq!(copies() - before, 1, "the answer, and no base");
            assert_eq!(k.view(), Some(View::Back(0)));
            // The base is four owed updates into `back`: it is
            // materialized first, and the answer copied off it.
            let mut k = Tracked::steady();
            k.cell = Published::new();
            k.update(100);
            let _ = k.e.do_query(&());
            assert_eq!(k.view(), Some(View::Back(4)));
            let before = copies();
            let cut = k.e.state_at_cut(k.bound()).expect("at the bound");
            assert_eq!(cut.0, k.expected_base());
            assert_eq!(copies() - before, 2, "the base, then the answer");
            k.assert_materialized();
        }

        #[test]
        fn install_base_under_a_view_replaces_it_without_a_copy() {
            let adt = CountedSet;
            let mut log: UpdateLog<CountedSet> = UpdateLog::new();
            let mut s = StableGc::new(&adt);
            for clock in 1..=2 {
                let msg = UpdateMsg {
                    ts: Timestamp::new(clock, 0),
                    update: SetUpdate::Insert(clock as u32),
                };
                let pos = log.insert(msg).expect("fresh");
                s.on_insert(&adt, &mut log, pos);
            }
            let _ = s.shared_state(&adt, &log);
            s.raise_floor(2);
            s.maintain(&adt, &mut log);
            assert_eq!(s.rotation().expect("shared").view, Some(View::Front));
            assert_eq!(s.base, adt.initial());
            let before = copies();
            assert!(s.install_base(&adt, 5, Counted(BTreeSet::from([7]))));
            assert_eq!(copies(), before, "the base is replaced, not materialized");
            assert_eq!(s.rotation().expect("shared").view, None);
            let (state, copied) = s.shared_state(&adt, &log);
            assert!(copied, "the rebuild");
            assert_eq!(copies() - before, 1);
            assert_eq!(state.0, BTreeSet::from([7]));
        }

        #[test]
        fn an_engine_clone_copies_a_shared_back_to_materialize() {
            let mut k = Tracked::steady();
            let bound = k.bound();
            k.update(100);
            k.update(101);
            k.publish();
            assert_eq!(k.view(), Some(View::Back(0)));
            let mut twin = k.e.clone();
            let mut naive = k.naive.clone();
            let late = UpdateMsg {
                ts: Timestamp::new(bound + 1, 1),
                update: SetUpdate::Insert(102),
            };
            let before = copies();
            twin.raise_floor(bound + 1);
            twin.on_deliver(late.clone());
            naive.on_deliver(late);
            assert_eq!(copies() - before, 1, "the base, out of the shared `back`");
            let strategy = twin.strategy();
            assert_eq!(strategy.rotation().expect("shared").view, None);
            let twin_bound = strategy.stability_bound();
            assert_eq!(
                strategy.base.0,
                naive.state_at_cut(twin_bound).expect("full")
            );
            // The original's view and buffers are as they were.
            assert_eq!(k.view(), Some(View::Back(0)));
            assert_eq!(
                k.e.state_at_cut(bound).expect("at the bound").0,
                k.expected_base()
            );
            // Its next swap finds both buffers held by the twin: the base
            // and the new `front` are copies.
            k.update(103);
            let before = copies();
            assert!(k.publish());
            assert_eq!(copies() - before, 2);
            k.assert_materialized();
        }
    }
}
