//! **Pluggable log storage**: the [`LogBackend`] trait behind which a
//! replica's update log and GC base state are persisted.
//!
//! Algorithm 1 keeps the whole update log in memory, and so did every
//! layer built on it — [`UpdateLog`](crate::log::UpdateLog),
//! [`ReplicaEngine`](crate::engine::ReplicaEngine),
//! [`UcStore`](crate::store::UcStore),
//! [`IngestPool`](crate::pool::IngestPool). That means stores die with
//! the process and memory grows with cold keys. This module splits the
//! log in two:
//!
//! ```text
//!   UpdateLog<A, B>  =  in-memory sorted index  +  B: LogBackend<A>
//!                       (Vec<(ts, update)> —         (durable journal +
//!                        the query/repair hot path)    compacted base)
//! ```
//!
//! The in-memory index is unchanged — queries, repairs, and the
//! batched sort-then-merge ingest all run against the sorted `Vec`
//! exactly as before. The backend is a *write-behind journal*: every
//! fresh entry is appended in arrival order, and when the
//! [`StableGc`](crate::gc::StableGc) strategy folds a stable prefix
//! into its base state, the key's next flush hands the backend that
//! base, which it persists, and may drop the journal entries it covers (LSM-style compaction — the stable
//! prefix is exactly the part that is safe to fold away, cf. the
//! causal-consistency generalization in arXiv:1802.00706).
//!
//! Two families of implementations exist:
//!
//! * [`MemBackend`] — the zero-regression default: every operation is
//!   a no-op, so a `MemBackend` log is byte-for-byte today's
//!   `Vec`-backed `UpdateLog` (the sorted index *is* the store);
//! * `SegmentBackend` (crate `uc-storage`) — one key's handle on its
//!   shard's on-disk journal: CRC-framed, key-tagged update, base and
//!   watermark records appended to one file per shard, and crash
//!   recovery that rebuilds a key's engine as
//!   `fold(base) + replay(tail)`.
//!
//! [`BackendFactory`] is the store-level companion: it opens one
//! backend per `(shard, key)` (engines are created lazily on first
//! touch; a factory is free to back a shard's keys by one shared
//! file) and enumerates persisted keys on
//! [`UcStore::reopen`](crate::store::UcStore::reopen).
//!
//! # Durability contract
//!
//! Appends are journaled immediately but only guaranteed *durable*
//! after [`LogBackend::flush`] — a backend may write some of them
//! earlier, and recovery must then accept any prefix of the journal
//! (the runtimes hang flushing off their periodic
//! maintenance tick, `Protocol::on_tick`; the ingest pool flushes before
//! every worker join, including the poison path). `flush` also
//! persists the owning engine's Lamport-clock watermark, so a reopened
//! replica's clock is `max(watermark, base bound, tail timestamps)` —
//! identical to the pre-crash clock whenever the crash happened after
//! a flush.
//!
//! The store flushes a shard at a time, and a factory is free to back
//! a shard's keys by one file, so the walk has a commit boundary:
//! [`LogBackend::stage_flush`] on every key of the shard that is owed
//! a flush but the last, `flush` on the last. `stage_flush` promises
//! what `flush` does, later: its entries and watermark are durable
//! once the next `flush` of any backend *the same factory opened for
//! the same shard* has returned (nothing is promised across shards or
//! factories). Its default body is `flush`, so a backend that shares
//! no storage with its neighbours, and a wrapper that forwards only
//! the methods it knows, keep the per-key durability point. Only a
//! backend whose `flush` commits everything its shard has staged may
//! override it. A crash between the staging calls and the commit
//! loses at most what a crash just before the walk would have lost:
//! recovery accepts any prefix of the journal.

use crate::store::Key;
use crate::timestamp::Timestamp;
use uc_spec::UqAdt;

/// Where one replica's update log (and its compacted base state)
/// lives. See the [module docs](self) for the architecture and the
/// durability contract.
///
/// The trait is parameterized by the whole ADT (not just the update
/// type) because compaction persists a *state*: the fold of the stable
/// prefix. `MemBackend` implements it for every ADT with no bounds;
/// persistent backends typically require the update and state types to
/// be encodable.
pub trait LogBackend<A: UqAdt> {
    /// Journal one fresh entry. Entries arrive in *delivery* order,
    /// not timestamp order — the journal is a log of arrivals, and
    /// recovery re-sorts by replaying through the normal insert path.
    fn append(&mut self, ts: Timestamp, u: &A::Update);

    /// Journal a deduplicated batch of fresh entries (the batched
    /// ingest hot path). Default: per-entry [`LogBackend::append`].
    fn append_batch(&mut self, entries: &[(Timestamp, A::Update)]) {
        for (ts, u) in entries {
            self.append(*ts, u);
        }
    }

    /// Compaction: `state` is the fold of every update with
    /// `ts.clock <= bound`; `tail` is the complete retained suffix
    /// (everything above the bound, in timestamp order). A persistent
    /// backend records the base and is then free to drop what it
    /// journaled at or below the bound. It need not record every base
    /// it is handed: the last one it did record plus the journal
    /// above *that* bound recover the same state.
    fn truncate_to_base(&mut self, bound: u64, state: &A::State, tail: &[(Timestamp, A::Update)]);

    /// Durability point: everything journaled so far must survive a
    /// process kill. `clock` is the owning engine's current Lamport
    /// clock, persisted as the recovery watermark.
    fn flush(&mut self, clock: u64);

    /// [`LogBackend::flush`] with the durability deferred: the same
    /// bookkeeping (the clock watermark is recorded), but what this
    /// backend journaled need only be durable once the next `flush`
    /// of *any* backend the same factory opened for the same shard
    /// returns. The store's flush walk calls this on every key of a
    /// shard but the last and `flush` on the last, so a factory that
    /// backs a shard's keys by one file pays one commit per shard.
    ///
    /// The default is `flush` itself, which is always a correct
    /// answer: a backend that shares nothing with its shard's other
    /// keys — or a wrapper that does not forward this method — stays
    /// durable per key.
    fn stage_flush(&mut self, clock: u64) {
        self.flush(clock);
    }

    /// Recovery: the most recent durable base snapshot, if any
    /// compaction ever ran — `(bound, fold of the stable prefix)`.
    fn load_base(&mut self) -> Option<(u64, A::State)>;

    /// Recovery: every journaled entry above the bound of the base
    /// [`LogBackend::load_base`] returns, in journal order (may
    /// contain duplicates; replay deduplicates by timestamp).
    fn scan_suffix(&mut self) -> Vec<(Timestamp, A::Update)>;

    /// Recovery: the highest clock watermark persisted by
    /// [`LogBackend::flush`]. Default: 0 (no watermark support).
    fn clock_watermark(&self) -> u64 {
        0
    }

    /// Anti-entropy heal path: re-read the durable suffix stamped
    /// strictly above `since` from storage, in timestamp order and
    /// deduplicated — *without* going through the in-memory log.
    /// `None` means the backend cannot serve the request (nothing
    /// durable to stream, or part of the requested range was already
    /// folded into a base snapshot); callers fall back to filtering
    /// the in-memory sorted log. Unlike [`LogBackend::scan_suffix`]
    /// (a one-shot recovery drain), this may be called repeatedly on
    /// a live backend. Callers flush first so the journal covers
    /// every accepted entry. (Nothing in the workspace calls it since
    /// the one-shot heal burst went; it stays declared while the
    /// end-to-end benchmark's backend wrapper forwards it.)
    fn stream_suffix(&mut self, since: u64) -> Option<Vec<(Timestamp, A::Update)>> {
        let _ = since;
        None
    }

    /// Bounded-window form of [`LogBackend::stream_suffix`], for
    /// chunked heal streaming: up to `limit` durable entries stamped
    /// strictly above `since` — and, when `after` is set, strictly
    /// after `after` (the resume cursor) — in timestamp order and
    /// deduplicated, plus whether more remain beyond the window.
    /// Implementations must bound their working memory by O(`limit`),
    /// never by the suffix length — that is the whole point of the
    /// chunked path. `None` falls back to the in-memory log, same as
    /// [`LogBackend::stream_suffix`]. A spuriously-true "more" flag
    /// is tolerated (callers terminate on the next empty window);
    /// a false "more" with entries remaining is not. (Nothing in the
    /// workspace calls it: a heal window reads the in-memory log. It
    /// stays declared while the end-to-end benchmark's backend wrapper
    /// forwards it.)
    #[allow(clippy::type_complexity)]
    fn stream_suffix_window(
        &mut self,
        since: u64,
        after: Option<Timestamp>,
        limit: usize,
    ) -> Option<(Vec<(Timestamp, A::Update)>, bool)> {
        let _ = (since, after, limit);
        None
    }
}

/// The in-memory "backend": every operation is a no-op because the
/// [`UpdateLog`](crate::log::UpdateLog)'s sorted index *is* the store.
/// This is the zero-regression default — a `MemBackend` log compiles
/// to exactly the pre-refactor `Vec`-backed log.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemBackend;

impl<A: UqAdt> LogBackend<A> for MemBackend {
    #[inline]
    fn append(&mut self, _ts: Timestamp, _u: &A::Update) {}

    #[inline]
    fn append_batch(&mut self, _entries: &[(Timestamp, A::Update)]) {}

    #[inline]
    fn truncate_to_base(
        &mut self,
        _bound: u64,
        _state: &A::State,
        _tail: &[(Timestamp, A::Update)],
    ) {
    }

    #[inline]
    fn flush(&mut self, _clock: u64) {}

    fn load_base(&mut self) -> Option<(u64, A::State)> {
        None
    }

    fn scan_suffix(&mut self) -> Vec<(Timestamp, A::Update)> {
        Vec::new()
    }
}

/// Builds one [`LogBackend`] per `(shard, key)` — the store-level
/// entry point for pluggable persistence. A
/// [`UcStore`](crate::store::UcStore) carries a factory and opens a
/// backend lazily on first touch of a key;
/// [`UcStore::reopen`](crate::store::UcStore::reopen) asks the factory
/// which keys survive on disk and rebuilds one engine per key as
/// `fold(base) + replay(tail)`.
pub trait BackendFactory<A: UqAdt>: Clone {
    /// The backend this factory produces.
    type Backend: LogBackend<A>;

    /// Open (or create) the backend for one key's engine.
    fn open(&self, shard: usize, key: Key) -> Self::Backend;

    /// The keys with persisted state in `shard` (recovery
    /// enumeration). Default: none — ephemeral factories recover
    /// nothing.
    fn list_keys(&self, shard: usize) -> Vec<Key> {
        let _ = shard;
        Vec::new()
    }

    /// Open every persisted key of `shard` at once — the recovery bulk
    /// path. Persistent factories override this to enumerate the
    /// shard's storage once instead of once per key; the default
    /// composes [`BackendFactory::list_keys`] with per-key
    /// [`BackendFactory::open`].
    fn open_all(&self, shard: usize) -> Vec<(Key, Self::Backend)> {
        self.list_keys(shard)
            .into_iter()
            .map(|key| (key, self.open(shard, key)))
            .collect()
    }

    /// Record — or validate against the recorded — replica
    /// configuration. Called once per store construction
    /// ([`UcStore::with_persistence`](crate::store::UcStore::with_persistence)
    /// passes `fresh = true`,
    /// [`UcStore::reopen`](crate::store::UcStore::reopen) `false`):
    /// the shard count decides `hash(key) % shards` routing and the
    /// pid stamps every update, so reopening a store under a
    /// different configuration would silently split or misattribute
    /// keys. Persistent factories persist `(pid, shards)` on first
    /// bind, refuse a mismatch afterwards, and refuse `fresh` binds
    /// of an already-bound root outright — constructing a *new* store
    /// over surviving state would restart the clock and silently lose
    /// whichever run's updates deduplicate away on the next reopen.
    /// Default: accept anything (ephemeral state dies with the
    /// process).
    fn bind_replica(&self, pid: u32, shards: usize, fresh: bool) {
        let _ = (pid, shards, fresh);
    }

    /// The store-wide Lamport-clock watermark persisted by the last
    /// [`BackendFactory::persist_store_clock`]. Default: 0.
    fn load_store_clock(&self) -> u64 {
        0
    }

    /// Persist the store-wide Lamport clock (called from
    /// [`UcStore::flush_backends`](crate::store::UcStore::flush_backends)).
    /// Default: no-op.
    fn persist_store_clock(&self, clock: u64) {
        let _ = clock;
    }
}

/// The factory of [`MemBackend`]s — the zero-cost default every
/// existing store uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemFactory;

impl<A: UqAdt> BackendFactory<A> for MemFactory {
    type Backend = MemBackend;

    fn open(&self, _shard: usize, _key: Key) -> MemBackend {
        MemBackend
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uc_spec::SetAdt;

    #[test]
    fn mem_backend_recovers_nothing() {
        let mut b = MemBackend;
        LogBackend::<SetAdt<u32>>::append(
            &mut b,
            Timestamp::new(1, 0),
            &uc_spec::SetUpdate::Insert(1u32),
        );
        LogBackend::<SetAdt<u32>>::flush(&mut b, 5);
        assert_eq!(LogBackend::<SetAdt<u32>>::load_base(&mut b), None);
        assert!(LogBackend::<SetAdt<u32>>::scan_suffix(&mut b).is_empty());
        assert_eq!(LogBackend::<SetAdt<u32>>::clock_watermark(&b), 0);
    }

    #[test]
    fn mem_factory_lists_no_keys() {
        let f = MemFactory;
        assert!(BackendFactory::<SetAdt<u32>>::list_keys(&f, 0).is_empty());
        assert_eq!(BackendFactory::<SetAdt<u32>>::load_store_clock(&f), 0);
    }
}
