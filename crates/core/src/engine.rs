//! The unified **Algorithm 1 engine**: one replica core, pluggable
//! repair strategies, batched delivery.
//!
//! # Why an engine
//!
//! Algorithm 1 is a single protocol: a Lamport clock, a
//! timestamp-sorted update log, and a rule for answering queries from
//! the sorted log. The paper's §VII-C optimisations (checkpointing,
//! undo-based repositioning, stability-based GC) do not change the
//! protocol — they change only *how the replica maintains a state
//! equivalent to replaying the sorted log* when a late message lands
//! in the middle of it. Implementing each optimisation as a full
//! replica forked the pid/clock/log plumbing four ways; the
//! [`ReplicaEngine`] owns that plumbing once and delegates state
//! maintenance to a [`RepairStrategy`].
//!
//! ```text
//!                 ReplicaEngine<A, S>
//!   update/on_deliver ──► LamportClock ── UpdateLog (sorted by ts)
//!                              │                │ insert pos
//!                              ▼                ▼
//!                       S: RepairStrategy  (hooks: on_insert,
//!                       raise_floor, maintain, current_state)
//! ```
//!
//! The four shipped strategies reproduce the historical variants and
//! keep their public names as aliases/wrappers:
//!
//! | strategy | former type | repair on a late message |
//! |----------|-------------|--------------------------|
//! | [`NaiveReplay`](crate::generic::NaiveReplay) | [`GenericReplica`](crate::generic::GenericReplica) | none — every query replays the log |
//! | [`CheckpointRepair`](crate::cached::CheckpointRepair) | [`CachedReplica`](crate::cached::CachedReplica) | roll back to nearest checkpoint ≤ pos, refold |
//! | [`UndoRepair`](crate::undo::UndoRepair) | [`UndoReplica`](crate::undo::UndoReplica) | undo suffix (LIFO), apply, redo |
//! | [`StableGc`](crate::gc::StableGc) | [`GcReplica`](crate::gc::GcReplica) | none on insertion — a read of a short retained log folds base + log afresh; over a long one the kept fold advances by the tail, refolds only after a late message |
//!
//! # Batched delivery
//!
//! The hot path this refactor unlocks:
//! [`ReplicaEngine::on_deliver_batch`] ingests `K` messages with **one**
//! repair. Messages are deduplicated and merged into the log in a
//! single pass, the minimum insertion position is computed, and the
//! strategy is asked to repair once from there
//! ([`RepairStrategy::on_insert`] at that position) — one rollback +
//! one refold instead of up to `K` of each. Delivering each message separately
//! costs `O(K · s)` state transitions for a suffix of length `s`;
//! the batch costs `O(s + K log K)`. The [`crate::replica::Replica`]
//! trait exposes this as [`Replica::on_batch`]
//! (default: a per-message loop), and the runtimes flush message
//! bursts through it.
//!
//! Delivery takes its messages by value, at every layer: the runtimes
//! hand frames over owned, so a delivered update moves from the wire
//! into the log and is never cloned. The one copy on the ingest side
//! is a local update's, which the log keeps while the caller
//! broadcasts the stamped message ([`UpdateLog::push_newest`]).
//!
//! # Writing a strategy
//!
//! A strategy observes every mutation of the log through its hooks and
//! must uphold one invariant: after any hook returns,
//! [`RepairStrategy::current_state`] equals the fold of the log (over
//! the strategy's compacted base, if it has one). The engine calls:
//!
//! * [`raise_floor`](RepairStrategy::raise_floor) — the replica's
//!   stability floor, whoever keeps it (a store's shard set, a
//!   [`GcReplica`](crate::gc::GcReplica)); a compacting strategy
//!   drains through it at its next compaction;
//! * [`on_insert`](RepairStrategy::on_insert) — after the log gained
//!   entries, with the earliest position that became dirty;
//! * [`maintain`](RepairStrategy::maintain) — periodic housekeeping
//!   (compaction), from [`ReplicaEngine::tick_maintenance`];
//! * [`current_state`](RepairStrategy::current_state) — to answer
//!   queries and [`ReplicaEngine::materialize`]; queries go through
//!   [`answer`](RepairStrategy::answer), which observes it unless the
//!   strategy answers otherwise.

use crate::backend::{LogBackend, MemBackend};
use crate::log::UpdateLog;
use crate::message::UpdateMsg;
use crate::replica::Replica;
use crate::timestamp::{LamportClock, Timestamp};
use std::sync::Arc;
use uc_spec::UqAdt;

/// A snapshot cut predates compacted history: the requested timestamp
/// is below the strategy's stability bound, so the updates needed to
/// reconstruct the state at that cut were already folded into a base
/// and drained from the log.
///
/// Returned by [`RepairStrategy::state_at_cut`] /
/// [`ReplicaEngine::state_at_cut`]; callers either retry with a more
/// recent cut (`≥ bound`) or fall back to a live query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CutError {
    /// The requested cut timestamp.
    pub cut: u64,
    /// The oldest cut the replica can still answer: its compaction
    /// bound (every update with `clock ≤ bound` has been folded away).
    pub bound: u64,
}

impl std::fmt::Display for CutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cut {} predates compacted history (oldest answerable cut: {})",
            self.cut, self.bound
        )
    }
}

impl std::error::Error for CutError {}

/// How a replica keeps (or reconstructs) the state equivalent to
/// folding its sorted update log — the pluggable part of Algorithm 1.
///
/// See the [module docs](self) for the contract and the shipped
/// implementations.
pub trait RepairStrategy<A: UqAdt> {
    /// The log gained entries, the earliest at `pos` (already
    /// inserted): one delivery, or a whole batch merged at once, which
    /// must cost one repair of the dirty suffix. Repair whatever
    /// cached state the strategy maintains. `log` is mutable
    /// so compacting strategies can shrink it. Generic over the log's
    /// [`LogBackend`] — repair logic is storage-agnostic; a compacting
    /// strategy persists its base at the next flush
    /// ([`RepairStrategy::persist_base`]).
    fn on_insert<B: LogBackend<A>>(&mut self, adt: &A, log: &mut UpdateLog<A, B>, pos: usize);

    /// The replica's stability floor is `floor`: every process is
    /// known to have passed that clock, so no update stamped at or
    /// below it is still to come. It takes effect at the strategy's
    /// next compaction — the repair after an insertion, or
    /// [`maintain`](RepairStrategy::maintain) — and never lowers what
    /// was drained. Whoever keeps the floor caps it by any retention
    /// pin first. Default: ignore — only compacting strategies
    /// ([`crate::gc::StableGc`]) ever discard log entries.
    fn raise_floor(&mut self, floor: u64) {
        let _ = floor;
    }

    /// Hand the log's backend the base compacted since the last flush
    /// ([`UpdateLog::persist_base`]); called by
    /// [`ReplicaEngine::flush_backend`] only when the log drained
    /// since. Default: nothing — a strategy that never drains has no
    /// base to persist.
    fn persist_base<B: LogBackend<A>>(&mut self, adt: &A, log: &mut UpdateLog<A, B>) {
        let _ = (adt, log);
    }

    /// Does an insertion cost this strategy *nothing* beyond the log
    /// mutation itself — no rollback, no refold, no cache repair?
    /// Strategies that answer queries by replaying the log from
    /// scratch ([`crate::generic::NaiveReplay`]) return `true`; for
    /// them the engine's batched delivery cuts over to the per-message
    /// insert path on small bursts, where `k` binary-searched memmoves
    /// beat rebuilding the dirty suffix (the batch merge exists to
    /// amortize *repair*, and there is none to amortize). Default:
    /// `false` — incremental strategies always want the single-repair
    /// batch path.
    fn insert_is_free(&self) -> bool {
        false
    }

    /// Periodic housekeeping (e.g. compaction after new stability
    /// knowledge). Default: nothing.
    fn maintain<B: LogBackend<A>>(&mut self, adt: &A, log: &mut UpdateLog<A, B>) {
        let _ = (adt, log);
    }

    /// The state equivalent to folding the full log (over the
    /// strategy's base, if it compacts). Must be cheap for strategies
    /// that maintain state incrementally; replaying strategies may
    /// recompute into a scratch buffer.
    fn current_state<B: LogBackend<A>>(&mut self, adt: &A, log: &UpdateLog<A, B>) -> &A::State;

    /// The answer to query `q` in the
    /// [`current_state`](RepairStrategy::current_state). The default
    /// observes exactly that; a strategy that need not keep the state
    /// it folds for a read ([`crate::gc::StableGc`] over a short log)
    /// folds a state of its own and answers by
    /// [`UqAdt::observe_owned`].
    fn answer<B: LogBackend<A>>(
        &mut self,
        adt: &A,
        log: &UpdateLog<A, B>,
        q: &A::QueryIn,
    ) -> A::QueryOut {
        adt.observe(self.current_state(adt, log), q)
    }

    /// [`current_state`](RepairStrategy::current_state) for a holder
    /// that outlives the call (a published snapshot), and whether
    /// serving it took a copy of the whole state. The default copies
    /// every time; a strategy that keeps its fold behind an `Arc`
    /// ([`crate::gc::StableGc`]) hands that out and reports the copies
    /// it could not avoid.
    fn shared_state<B: LogBackend<A>>(
        &mut self,
        adt: &A,
        log: &UpdateLog<A, B>,
    ) -> (Arc<A::State>, bool) {
        (Arc::new(self.current_state(adt, log).clone()), true)
    }

    /// The state at a snapshot **cut**: the fold of exactly the
    /// updates stamped `clock ≤ cut`, in `(clock, pid)` order. Because
    /// a clock cut is downward-closed in the timestamp total order, the
    /// result is a prefix of the log — the default folds
    /// [`UpdateLog::prefix_at`] from `s0`, which is exact for every
    /// strategy that retains the full log. Compacting strategies
    /// ([`crate::gc::StableGc`]) override it to start from their base
    /// and to return [`CutError`] when `cut` predates the compaction
    /// bound (the needed prefix no longer exists).
    fn state_at_cut<B: LogBackend<A>>(
        &mut self,
        adt: &A,
        log: &UpdateLog<A, B>,
        cut: u64,
    ) -> Result<A::State, CutError> {
        Ok(adt.run_updates(log.prefix_at(cut).map(|(_, u)| u)))
    }

    /// Recovery: adopt a base snapshot persisted by an earlier run —
    /// `state` is the fold of every update with `ts.clock ≤ bound`.
    /// Returns whether the strategy can host a base; the default
    /// (`false`) makes [`ReplicaEngine::recover`] reject snapshots for
    /// strategies that fold from `s0` (only compacting strategies —
    /// [`crate::gc::StableGc`] — ever wrote one).
    fn install_base(&mut self, adt: &A, bound: u64, state: A::State) -> bool {
        let _ = (adt, bound, state);
        false
    }

    /// Does the strategy hold a query fold beside its log — a second
    /// state kept for reads ([`crate::gc::StableGc`]'s kept or shared
    /// fold)? Counted by the `uc_store_kept_folds` gauge. Default:
    /// `false`.
    fn holds_fold(&self) -> bool {
        false
    }

    /// Cumulative state-transition steps spent repairing (undo, redo,
    /// and fold steps) — the E8 observability metric. Strategies that
    /// do no incremental maintenance report 0.
    fn repair_steps(&self) -> u64 {
        0
    }

    /// Number of *repair events* (rollback-and-refold episodes, not
    /// steps). [`ReplicaEngine::on_deliver_batch`] performs at most
    /// one per batch — the acceptance criterion for batching.
    fn repair_events(&self) -> u64 {
        0
    }
}

/// The unified Algorithm 1 replica: owns the process id, the Lamport
/// clock, and the timestamp-sorted update log; delegates state
/// maintenance to a [`RepairStrategy`] and durability to the log's
/// [`LogBackend`] (default: the no-op [`MemBackend`]).
///
/// The historical variant types are aliases or thin wrappers of this
/// engine — see the [module docs](self) for the table.
#[derive(Clone, Debug)]
pub struct ReplicaEngine<A: UqAdt, S, B = MemBackend> {
    adt: A,
    pid: u32,
    clock: LamportClock,
    log: UpdateLog<A, B>,
    strategy: S,
}

impl<A: UqAdt, S: RepairStrategy<A>> ReplicaEngine<A, S> {
    /// Assemble an engine from its parts, over the in-memory
    /// [`MemBackend`] (the path every pre-refactor caller takes;
    /// pinning the backend type here keeps those call sites
    /// inference-clean).
    pub fn with_strategy(adt: A, pid: u32, strategy: S) -> Self {
        Self::with_backend(adt, pid, strategy, MemBackend)
    }
}

impl<A: UqAdt, S: RepairStrategy<A>, B: LogBackend<A>> ReplicaEngine<A, S, B> {
    /// Assemble an engine over an explicit storage backend.
    pub fn with_backend(adt: A, pid: u32, strategy: S, backend: B) -> Self {
        ReplicaEngine {
            adt,
            pid,
            clock: LamportClock::new(),
            log: UpdateLog::with_backend(backend),
            strategy,
        }
    }

    /// Rebuild an engine from a persistent backend: install the
    /// compacted base (if one was ever written), replay the journaled
    /// tail through the normal delivery path — `fold(base) +
    /// replay(tail)` — and restore the Lamport clock to
    /// `max(watermark, tail timestamps)`: what the engine's own entries
    /// brought it to by its last flush. The base's bound is a replica's
    /// floor, which may be above every entry the key ever held, so it
    /// moves the clock no more than it did while the engine ran; it
    /// stays the log's floor ([`UpdateLog::floor`]), which whoever
    /// stamps the key's next update must pass (a store restores its
    /// clock above every recovered floor). Journaling is suspended
    /// during the replay (the entries are already durable).
    ///
    /// # Panics
    ///
    /// If the backend holds a base snapshot but `strategy` cannot host
    /// one ([`RepairStrategy::install_base`] returns `false`) — e.g. a
    /// log compacted under [`crate::gc::StableGc`] reopened under a
    /// fold-from-`s0` strategy would silently lose the folded prefix.
    pub fn recover(adt: A, pid: u32, strategy: S, mut backend: B) -> Self {
        let base = backend.load_base();
        let tail = backend.scan_suffix();
        let watermark = backend.clock_watermark();
        let mut engine = Self::with_backend(adt, pid, strategy, backend);
        engine.log.set_journaling(false);
        if let Some((bound, state)) = base {
            assert!(
                engine.strategy.install_base(&engine.adt, bound, state),
                "backend holds a base snapshot but the strategy cannot host one"
            );
            engine.log.raise_floor(bound);
        }
        engine.on_deliver_batch(
            tail.into_iter()
                .map(|(ts, update)| UpdateMsg { ts, update })
                .collect(),
        );
        engine.clock.merge(watermark);
        engine.log.set_journaling(true);
        engine
    }

    /// Flush the storage backend, persisting the base the strategy
    /// compacted since the last flush, if any, and the current clock
    /// as the recovery watermark. A no-op on [`MemBackend`] engines.
    pub fn flush_backend(&mut self) {
        self.persist_base();
        let clock = self.clock.now();
        self.log.flush_backend(clock);
    }

    /// [`ReplicaEngine::flush_backend`] with the durability left to
    /// the next flush of a backend of the same shard
    /// ([`LogBackend::stage_flush`]): what a shard's flush walk calls
    /// on every key but its last.
    pub fn stage_backend_flush(&mut self) {
        self.persist_base();
        let clock = self.clock.now();
        self.log.stage_backend_flush(clock);
    }

    /// A base is persisted once per flush, however many drains moved
    /// it since: drains happen at insertions, and a backend call per
    /// drain would put one on every delivery.
    fn persist_base(&mut self) {
        if self.log.base_moved() {
            self.strategy.persist_base(&self.adt, &mut self.log);
        }
    }

    /// Perform update `u`: tick, apply to the local log (the sender
    /// receives its broadcast instantaneously), repair, and return the
    /// message for the other replicas.
    pub fn update(&mut self, u: A::Update) -> UpdateMsg<A::Update> {
        let ts = Timestamp::new(self.clock.tick(), self.pid);
        self.local_update_at(ts, u)
    }

    /// Perform a local update whose timestamp was issued by an
    /// **external** clock owner — the multi-object store
    /// ([`crate::store::UcStore`]) ticks one per-replica Lamport clock
    /// and stamps updates for all of its per-key engines from it. The
    /// timestamp must carry this engine's pid and must be fresh (the
    /// external clock is strictly increasing, so it always is); the
    /// engine's own clock is advanced to match so mixed use stays
    /// monotone.
    pub fn local_update_at(&mut self, ts: Timestamp, u: A::Update) -> UpdateMsg<A::Update> {
        debug_assert_eq!(ts.pid, self.pid, "local timestamps carry the replica pid");
        self.clock.merge(ts.clock);
        let msg = UpdateMsg { ts, update: u };
        let pos = self
            .log
            .push_newest(&msg)
            .expect("locally issued timestamps are unique");
        self.strategy.on_insert(&self.adt, &mut self.log, pos);
        msg
    }

    /// Receive a peer's update message (Algorithm 1 lines 8–11): the
    /// update moves into the log. Duplicate timestamps (re-deliveries)
    /// are ignored.
    pub fn on_deliver(&mut self, msg: UpdateMsg<A::Update>) {
        self.clock.merge(msg.ts.clock);
        if let Some(pos) = self.log.insert(msg) {
            self.strategy.on_insert(&self.adt, &mut self.log, pos);
        }
    }

    /// Below this burst size (inclusive), a strategy with free
    /// insertions ([`RepairStrategy::insert_is_free`]) delivers per
    /// message: `k` binary-searched memmove insertions into a
    /// contiguous `Vec` beat the batch merge's allocation and
    /// element-by-element rebuild of the dirty suffix when the burst
    /// scatters across it and there is no repair cost for the merge
    /// to amortize. Measured on an 8192-entry log (`BENCH_batching`,
    /// naive strategy): scattered k=16 favours per-message (~0.6×
    /// merge), scattered k=64 favours the merge (~1.9×), and bursts
    /// that land in one run (the `head` pattern) favour the merge at
    /// every size thanks to its bulk-extend fast path — so the
    /// threshold protects the one shape that regresses.
    const SMALL_BATCH_CUTOVER: usize = 16;

    /// Receive a whole burst of peer messages with **one** repair: the
    /// batch is deduplicated and merged into the log in a single pass
    /// (the updates move in, never cloned) and the strategy repairs
    /// once from the earliest insertion position, instead of once per
    /// message. (For strategies with no repair cost, small bursts
    /// adaptively fall back to the per-message path — see
    /// [`RepairStrategy::insert_is_free`].)
    pub fn on_deliver_batch(&mut self, msgs: Vec<UpdateMsg<A::Update>>) {
        let k = msgs.len();
        if k <= 1 || (self.strategy.insert_is_free() && k <= Self::SMALL_BATCH_CUTOVER) {
            for m in msgs {
                self.on_deliver(m);
            }
            return;
        }
        let max_clock = msgs.iter().map(|m| m.ts.clock).max().unwrap_or(0);
        self.clock.merge(max_clock);
        if let Some(min_pos) = self.log.insert_batch(msgs) {
            self.strategy.on_insert(&self.adt, &mut self.log, min_pos);
        }
    }

    /// Hand the strategy the replica's stability floor — see
    /// [`RepairStrategy::raise_floor`]. Moves no clock: it takes effect
    /// at the next compaction, the repair of the next insertion or
    /// [`ReplicaEngine::tick_maintenance`].
    pub fn raise_floor(&mut self, floor: u64) {
        self.strategy.raise_floor(floor);
    }

    /// Advance the Lamport clock past `clock`, a clock heard without
    /// an entry (a [`GcReplica`](crate::gc::GcReplica)'s heartbeat).
    pub(crate) fn merge_clock(&mut self, clock: u64) {
        self.clock.merge(clock);
    }

    /// Answer a query from local knowledge (lines 12–19: ticks the
    /// clock, then observes the state equivalent to replaying the
    /// sorted log).
    pub fn do_query(&mut self, q: &A::QueryIn) -> A::QueryOut {
        self.clock.tick();
        self.answer(q)
    }

    /// Answer a query from the state as it stands, moving no clock: a
    /// store ticks its own clock for the read (line 13), and a key's
    /// engine clock moves only with its entries.
    pub(crate) fn answer(&mut self, q: &A::QueryIn) -> A::QueryOut {
        self.strategy.answer(&self.adt, &self.log, q)
    }

    /// The state this replica would converge to if no further message
    /// arrived.
    pub fn materialize(&mut self) -> A::State {
        self.strategy.current_state(&self.adt, &self.log).clone()
    }

    /// [`ReplicaEngine::materialize`] behind an `Arc`, and whether it
    /// took a copy of the whole state — see
    /// [`RepairStrategy::shared_state`].
    pub fn shared_state(&mut self) -> (Arc<A::State>, bool) {
        self.strategy.shared_state(&self.adt, &self.log)
    }

    /// The state at snapshot cut `cut`: the fold of exactly the
    /// delivered updates stamped `clock ≤ cut`, in timestamp order.
    /// Does not advance the clock — a cut read is a read of history,
    /// not a new event. Errors when `cut` predates the strategy's
    /// compaction bound (see [`CutError`]).
    pub fn state_at_cut(&mut self, cut: u64) -> Result<A::State, CutError> {
        self.strategy.state_at_cut(&self.adt, &self.log, cut)
    }

    /// The read primitive of chunked heal streaming: up to `limit`
    /// retained entries stamped strictly above `since` and (when set)
    /// strictly after the resume cursor `after`, as broadcast messages
    /// in timestamp order, plus whether more remain. The backend is
    /// flushed first: a heal is a durability point, and the flush
    /// makes what the window streams durable here before a peer holds
    /// it. The window is read from the in-memory sorted log, which
    /// always holds the whole retained suffix: one contiguous window
    /// of it is cloned ([`UpdateLog::suffix_window`], O(`limit`) after
    /// a binary search), so peak memory is O(`limit`).
    ///
    /// Completeness leans on stability: a compacting strategy's bound
    /// can only advance past `since` once *every* peer's clock
    /// exceeds it, and a peer that has been unreachable since `since`
    /// froze its observed clock at or below it — so while that peer
    /// is down, or its heal session pins retention at `since`, no
    /// entry above `since` is folded away, between windows included.
    pub fn suffix_since_window(
        &mut self,
        since: u64,
        after: Option<Timestamp>,
        limit: usize,
    ) -> (Vec<UpdateMsg<A::Update>>, bool) {
        self.flush_backend();
        let (window, more) = self.log.suffix_window(since, after, limit);
        (
            window
                .iter()
                .map(|(ts, update)| UpdateMsg {
                    ts: *ts,
                    update: update.clone(),
                })
                .collect(),
            more,
        )
    }

    /// Fold the retained suffix above `since` into a digest visitor
    /// (`f(ts, entry_hash)`) without cloning any payload — the
    /// digest-exchange primitive of the chunked heal path. Served
    /// from the in-memory sorted log on every backend: the log always
    /// holds the full retained suffix, so no storage round-trip is
    /// needed to hash it.
    pub fn digest_suffix(&mut self, since: u64, mut f: impl FnMut(Timestamp, u64)) {
        self.log
            .for_suffix(since, |ts, u| f(ts, crate::heal::entry_hash(ts, u)));
    }

    /// Let the strategy compact on the floor it was handed
    /// ([`RepairStrategy::maintain`]); called by the periodic
    /// [`Replica::tick`] and by a store's sweeps.
    pub fn tick_maintenance(&mut self) {
        self.strategy.maintain(&self.adt, &mut self.log);
    }

    /// This replica's process id.
    pub fn pid(&self) -> u32 {
        self.pid
    }

    /// Current Lamport clock value. It moves with the engine's own
    /// entries only — its stamps, its deliveries, recovery — and with
    /// a standalone engine's reads ([`ReplicaEngine::do_query`]). A
    /// store's key engines never read that way: heard clocks and reads
    /// move the store's clock, not theirs.
    pub fn clock(&self) -> u64 {
        self.clock.now()
    }

    /// Retained log length (compacted entries excluded).
    pub fn log_len(&self) -> usize {
        self.log.len()
    }

    /// Access the underlying log (ablation benches, witness tracing).
    pub fn log(&self) -> &UpdateLog<A, B> {
        &self.log
    }

    /// The log, mutable: a shard moves empty buffers between its keys'
    /// logs ([`UpdateLog::take_buffer`], [`UpdateLog::lend_buffer`]).
    pub(crate) fn log_mut(&mut self) -> &mut UpdateLog<A, B> {
        &mut self.log
    }

    /// The timestamps currently retained — the visible-update set used
    /// to build strong-update-consistency witnesses (Proposition 4).
    pub fn known_timestamps(&self) -> Vec<Timestamp> {
        self.log.timestamps().collect()
    }

    /// The strategy, for variant-specific observability
    /// (checkpoint counts, compaction totals, …).
    pub fn strategy(&self) -> &S {
        &self.strategy
    }

    /// Cumulative repair steps performed by the strategy (E8 metric).
    pub fn repair_steps(&self) -> u64 {
        self.strategy.repair_steps()
    }

    /// Number of rollback-and-refold episodes performed by the
    /// strategy. A batch delivery contributes at most one.
    pub fn repair_events(&self) -> u64 {
        self.strategy.repair_events()
    }
}

/// Every engine whose wire format is the plain [`UpdateMsg`] is a
/// wait-free [`Replica`]. (The GC variant speaks
/// [`GcMsg`](crate::message::GcMsg) and wraps the engine instead —
/// see [`crate::gc::GcReplica`].)
impl<A: UqAdt, S: RepairStrategy<A>, B: LogBackend<A>> Replica<A> for ReplicaEngine<A, S, B> {
    type Msg = UpdateMsg<A::Update>;

    fn pid(&self) -> u32 {
        ReplicaEngine::pid(self)
    }

    fn local_update(&mut self, u: A::Update) -> Vec<Self::Msg> {
        vec![self.update(u)]
    }

    fn on_message(&mut self, msg: Self::Msg) {
        self.on_deliver(msg);
    }

    fn on_batch(&mut self, msgs: Vec<Self::Msg>) {
        self.on_deliver_batch(msgs);
    }

    fn query(&mut self, q: &A::QueryIn) -> A::QueryOut {
        self.do_query(q)
    }

    fn tick(&mut self) -> Vec<Self::Msg> {
        self.tick_maintenance();
        Vec::new()
    }

    fn materialize(&mut self) -> A::State {
        ReplicaEngine::materialize(self)
    }

    fn log_len(&self) -> usize {
        ReplicaEngine::log_len(self)
    }

    fn clock(&self) -> u64 {
        ReplicaEngine::clock(self)
    }

    fn known_timestamps(&self) -> Vec<Timestamp> {
        ReplicaEngine::known_timestamps(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cached::{CachedReplica, CheckpointRepair};
    use crate::generic::GenericReplica;
    use crate::undo::UndoReplica;
    use std::collections::BTreeSet;
    use uc_spec::{SetAdt, SetQuery, SetUpdate};

    /// Produce `k` messages from a remote peer whose timestamps all
    /// order *before* a local history of length `n`.
    fn late_stream(k: usize) -> Vec<UpdateMsg<SetUpdate<u32>>> {
        let mut peer: GenericReplica<SetAdt<u32>> = GenericReplica::new(SetAdt::new(), 7);
        (0..k)
            .map(|i| peer.update(SetUpdate::Insert(100 + i as u32)))
            .collect()
    }

    #[test]
    fn batch_equals_per_message_delivery() {
        let msgs = late_stream(10);
        let build = || {
            let mut r: CachedReplica<SetAdt<u32>> =
                CachedReplica::with_checkpoint_every(SetAdt::new(), 0, 4);
            for i in 0..50 {
                r.update(SetUpdate::Insert(i));
            }
            r
        };
        let mut per_msg = build();
        for m in &msgs {
            per_msg.on_deliver(m.clone());
        }
        let mut batched = build();
        batched.on_deliver_batch(msgs);
        assert_eq!(per_msg.materialize(), batched.materialize());
        assert_eq!(per_msg.log_len(), batched.log_len());
        assert_eq!(per_msg.known_timestamps(), batched.known_timestamps());
    }

    #[test]
    fn batch_performs_at_most_one_repair_event() {
        let msgs = late_stream(16);
        let mut r: CachedReplica<SetAdt<u32>> =
            CachedReplica::with_checkpoint_every(SetAdt::new(), 0, 8);
        for i in 0..64 {
            r.update(SetUpdate::Insert(i));
        }
        let events_before = r.repair_events();
        r.on_deliver_batch(msgs.clone());
        assert!(
            r.repair_events() - events_before <= 1,
            "batch must repair at most once, did {}",
            r.repair_events() - events_before
        );

        // Per-message delivery of the same stream repairs K times.
        let mut s: CachedReplica<SetAdt<u32>> =
            CachedReplica::with_checkpoint_every(SetAdt::new(), 0, 8);
        for i in 0..64 {
            s.update(SetUpdate::Insert(i));
        }
        let events_before = s.repair_events();
        for m in &msgs {
            s.on_deliver(m.clone());
        }
        assert_eq!(s.repair_events() - events_before, 16);
        assert_eq!(r.materialize(), s.materialize());
    }

    #[test]
    fn batch_repair_steps_beat_per_message_delivery() {
        let msgs = late_stream(16);
        let setup = |every| {
            let mut r: CachedReplica<SetAdt<u32>> =
                CachedReplica::with_checkpoint_every(SetAdt::new(), 0, every);
            for i in 0..128 {
                r.update(SetUpdate::Insert(i));
            }
            r
        };
        let mut batched = setup(8);
        let base = batched.repair_steps();
        batched.on_deliver_batch(msgs.clone());
        let batched_cost = batched.repair_steps() - base;

        let mut seq = setup(8);
        let base = seq.repair_steps();
        for m in &msgs {
            seq.on_deliver(m.clone());
        }
        let seq_cost = seq.repair_steps() - base;
        assert!(
            batched_cost < seq_cost / 4,
            "batch {batched_cost} steps vs per-message {seq_cost}"
        );
    }

    #[test]
    fn batch_with_duplicates_and_local_overlap() {
        let msgs = late_stream(5);
        let mut r: GenericReplica<SetAdt<u32>> = GenericReplica::new(SetAdt::new(), 0);
        r.update(SetUpdate::Insert(1));
        r.on_deliver(msgs[2].clone()); // one already delivered singly
        let mut doubled = msgs.clone();
        doubled.extend(msgs.iter().cloned()); // and the batch repeats itself
        r.on_deliver_batch(doubled);
        assert_eq!(r.log_len(), 6);
        let expect: BTreeSet<u32> = [1, 100, 101, 102, 103, 104].into();
        assert_eq!(r.do_query(&SetQuery::Read), expect);
    }

    #[test]
    fn undo_strategy_batches_with_single_repair() {
        let msgs = late_stream(12);
        let mut u: UndoReplica<SetAdt<u32>> = UndoReplica::new(SetAdt::new(), 0);
        for i in 0..40 {
            u.update(SetUpdate::Insert(i));
        }
        let before = u.repair_events();
        u.on_deliver_batch(msgs.clone());
        assert!(u.repair_events() - before <= 1);

        let mut g: GenericReplica<SetAdt<u32>> = GenericReplica::new(SetAdt::new(), 0);
        for i in 0..40 {
            g.update(SetUpdate::Insert(i));
        }
        g.on_deliver_batch(msgs);
        assert_eq!(u.materialize(), g.materialize());
    }

    #[test]
    fn empty_and_singleton_batches() {
        let mut r: GenericReplica<SetAdt<u32>> = GenericReplica::new(SetAdt::new(), 0);
        r.on_deliver_batch(vec![]);
        assert_eq!(r.log_len(), 0);
        let msgs = late_stream(1);
        r.on_deliver_batch(msgs);
        assert_eq!(r.log_len(), 1);
    }

    #[test]
    fn custom_strategy_composes_with_engine() {
        // A deliberately silly strategy: replay, but count inserts.
        #[derive(Clone, Debug)]
        struct Counting {
            scratch: BTreeSet<u32>,
            inserts: u64,
        }
        impl RepairStrategy<SetAdt<u32>> for Counting {
            fn on_insert<B: LogBackend<SetAdt<u32>>>(
                &mut self,
                _adt: &SetAdt<u32>,
                _log: &mut UpdateLog<SetAdt<u32>, B>,
                _pos: usize,
            ) {
                self.inserts += 1;
            }
            fn current_state<B: LogBackend<SetAdt<u32>>>(
                &mut self,
                adt: &SetAdt<u32>,
                log: &UpdateLog<SetAdt<u32>, B>,
            ) -> &BTreeSet<u32> {
                self.scratch = adt.run_updates(log.iter().map(|(_, u)| u));
                &self.scratch
            }
        }
        let mut e = ReplicaEngine::with_strategy(
            SetAdt::<u32>::new(),
            0,
            Counting {
                scratch: BTreeSet::new(),
                inserts: 0,
            },
        );
        e.update(SetUpdate::Insert(3));
        e.update(SetUpdate::Delete(3));
        assert_eq!(e.strategy().inserts, 2);
        assert_eq!(e.do_query(&SetQuery::Read), BTreeSet::new());
    }

    #[test]
    fn checkpoint_strategy_is_reusable_outside_aliases() {
        // The strategy type is public API: engines can be assembled
        // with explicit strategies (the extension point future
        // variants use).
        let adt = SetAdt::<u32>::new();
        let strat = CheckpointRepair::with_spacing(&adt, 2);
        let mut e = ReplicaEngine::with_strategy(adt, 3, strat);
        for i in 0..10 {
            e.update(SetUpdate::Insert(i));
        }
        assert_eq!(e.materialize().len(), 10);
        assert_eq!(e.pid(), 3);
    }
}
