//! The timestamp-sorted update log (`updates_i` in Algorithm 1),
//! split into an **in-memory sorted index** plus a pluggable
//! [`LogBackend`].
//!
//! Algorithm 1 keeps the set of known updates sorted by `(cl, j)`; the
//! interesting operation is *insertion of a late message* — an update
//! whose timestamp orders before entries that are already present.
//! The position returned by [`UpdateLog::insert`] tells the caching
//! and undo variants how much suffix they must repair.
//!
//! Since the storage refactor, every mutation is mirrored into the
//! log's backend: fresh entries are journaled in arrival order
//! ([`LogBackend::append`] / [`LogBackend::append_batch`] — exactly
//! the deduplicated set, borrowed to encode, so an update that moves
//! into the log is never copied),
//! and [`UpdateLog::persist_base`] forwards a GC compaction to
//! [`LogBackend::truncate_to_base`]. The default [`MemBackend`]
//! compiles all of that to nothing, preserving the pre-refactor
//! `Vec`-only hot path.

use crate::backend::{LogBackend, MemBackend};
use crate::message::UpdateMsg;
use crate::timestamp::Timestamp;
use uc_spec::UqAdt;

/// A log's entry buffer.
pub(crate) type Buffer<U> = Vec<(Timestamp, U)>;

/// A timestamp-ordered log of updates: in-memory sorted index +
/// durability backend. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct UpdateLog<A: UqAdt, B = MemBackend> {
    entries: Buffer<A::Update>,
    backend: B,
    /// Highest stability bound ever drained
    /// ([`UpdateLog::drain_stable_prefix`]). Entries at or below it
    /// were folded into a strategy base and no longer exist in the
    /// index, so an arriving message stamped `clock ≤ floor` can only
    /// be a duplicate of a folded entry (stability guarantees no
    /// *fresh* update below the bound is ever produced) — every insert
    /// path rejects it instead of re-admitting it below the base.
    /// Overlapping anti-entropy repair bursts rely on this: the second
    /// burst's redelivered entries may arrive after a compaction
    /// already folded the first burst's copies.
    ///
    /// Soundness precondition: per-sender clock observations must not
    /// overtake that sender's still-undelivered updates, i.e. delivery
    /// is **per-link FIFO**. The rejection is silent, so a fresh
    /// update sneaking in below an already-advanced bound would
    /// diverge the replica permanently. Each delivery layer upholds
    /// this differently: `uc-sim`'s `ReliableLink` releases payloads
    /// to the protocol strictly in per-channel sequence order (lossy /
    /// reordering / duplicating links notwithstanding); heal-replay
    /// redeliveries are covered by the retention cap pinning the bound
    /// for the outage's duration and, on the healed side, until the
    /// inbound stream has landed; and retry-queue sheds — the one path
    /// that skips sequence numbers — are only repaired if the shed
    /// window falls inside a recorded `peer_down` watermark (the
    /// `queue_cap` sizing contract in `uc_sim::reliable`).
    floor: u64,
    /// `false` only while recovery replays journaled entries — the
    /// entries are already on disk and must not be re-appended.
    journaling: bool,
    /// Has [`UpdateLog::drain_stable_prefix`] drained anything since
    /// the last [`UpdateLog::persist_base`]?
    base_moved: bool,
}

/// Log equality is *index* equality: two logs with the same sorted
/// entries are the same log regardless of where they persist.
impl<A: UqAdt, B> PartialEq for UpdateLog<A, B> {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries
    }
}

impl<A: UqAdt, B> Eq for UpdateLog<A, B> {}

impl<A: UqAdt, B: Default> Default for UpdateLog<A, B> {
    fn default() -> Self {
        UpdateLog {
            entries: Vec::new(),
            backend: B::default(),
            journaling: true,
            floor: 0,
            base_moved: false,
        }
    }
}

impl<A: UqAdt, B: LogBackend<A>> UpdateLog<A, B> {
    /// An empty log over a default-constructed backend.
    pub fn new() -> Self
    where
        B: Default,
    {
        Self::default()
    }

    /// An empty log over an explicit backend (the persistent path).
    pub fn with_backend(backend: B) -> Self {
        UpdateLog {
            entries: Vec::new(),
            backend,
            journaling: true,
            floor: 0,
            base_moved: false,
        }
    }

    /// Suspend / resume journaling. Recovery replays entries that are
    /// already durable; re-appending them would double the journal.
    pub(crate) fn set_journaling(&mut self, on: bool) {
        self.journaling = on;
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the log empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries the log's buffer holds room for: what it keeps allocated
    /// whatever its length (`uc_store_log_capacity`). A log keeps its
    /// buffer when it empties, until its shard takes it
    /// ([`UpdateLog::take_buffer`]) to lend to another key.
    pub(crate) fn capacity(&self) -> usize {
        self.entries.capacity()
    }

    /// An empty log's buffer, if it has one; the log is left with none.
    pub(crate) fn take_buffer(&mut self) -> Option<Buffer<A::Update>> {
        (self.entries.is_empty() && self.entries.capacity() > 0)
            .then(|| std::mem::take(&mut self.entries))
    }

    /// Install an empty `buffer` into a log that holds none, so its
    /// next entries need not allocate.
    pub(crate) fn lend_buffer(&mut self, buffer: Buffer<A::Update>) {
        debug_assert!(self.entries.capacity() == 0 && buffer.is_empty());
        self.entries = buffer;
    }

    /// Insert a timestamped update, keeping timestamp order: the
    /// update moves into the log. Returns the insertion position, or
    /// `None` if the timestamp was already present (reliable broadcast
    /// delivers once, but being defensive costs one comparison) or at
    /// or below the compaction floor (a redelivered duplicate of an
    /// already-folded entry).
    pub fn insert(&mut self, msg: UpdateMsg<A::Update>) -> Option<usize> {
        if msg.ts.clock <= self.floor {
            return None;
        }
        match self.entries.binary_search_by(|(ts, _)| ts.cmp(&msg.ts)) {
            Ok(_) => None,
            Err(pos) => {
                if self.journaling {
                    self.backend.append(msg.ts, &msg.update);
                }
                self.entries.insert(pos, (msg.ts, msg.update));
                Some(pos)
            }
        }
    }

    /// Append an update known to carry the largest timestamp (the
    /// common in-order fast path), keeping a copy: the caller still
    /// broadcasts `msg`. Falls back to sorted insertion if
    /// the claim is wrong. Returns the insertion position, or `None`
    /// if the timestamp was already present — callers must not
    /// confuse a rejected duplicate with a valid position (a duplicate
    /// used to be reported as `entries.len()`, which repair logic
    /// would happily treat as an in-order insert).
    pub fn push_newest(&mut self, msg: &UpdateMsg<A::Update>) -> Option<usize> {
        if msg.ts.clock <= self.floor {
            return None;
        }
        match self.entries.last() {
            Some((last, _)) if *last >= msg.ts => self.insert(msg.clone()),
            _ => {
                if self.journaling {
                    self.backend.append(msg.ts, &msg.update);
                }
                self.entries.push((msg.ts, msg.update.clone()));
                Some(self.entries.len() - 1)
            }
        }
    }

    /// Merge a whole batch of messages in one pass: deduplicate
    /// (against the log *and* within the batch), then splice the fresh
    /// entries in with a single sort-then-merge sweep over the dirty
    /// suffix; the fresh updates move into the log. Returns the
    /// earliest insertion position — the single point a repair
    /// strategy must roll back to — or `None` if every message was a
    /// duplicate.
    ///
    /// Cost: `O(k log k + k log n + s + k)` for `k` new messages and a
    /// dirty suffix of length `s` (sort the batch, binary-search the
    /// log once per message for dedup, merge the two sorted runs),
    /// versus `O(k·(log n + n))` worst case for `k` separate
    /// [`UpdateLog::insert`] calls (each may memmove the tail) and
    /// `O(s log s)` for the previous sort-the-suffix merge. Runs that
    /// straddle the end (the batch all-newer, or the suffix exhausted
    /// mid-merge) are moved with a bulk `extend` instead of per-entry
    /// pushes.
    pub fn insert_batch(&mut self, msgs: Vec<UpdateMsg<A::Update>>) -> Option<usize> {
        let mut fresh: Vec<(Timestamp, A::Update)> = Vec::with_capacity(msgs.len());
        for m in msgs {
            if m.ts.clock > self.floor
                && self
                    .entries
                    .binary_search_by(|(ts, _)| ts.cmp(&m.ts))
                    .is_err()
            {
                fresh.push((m.ts, m.update));
            }
        }
        fresh.sort_unstable_by_key(|(ts, _)| *ts);
        fresh.dedup_by_key(|(ts, _)| *ts);
        let min_ts = fresh.first()?.0;
        if self.journaling {
            // Journaled *before* the merge consumes the batch: exactly
            // the fresh set, and the backend only borrows to encode.
            self.backend.append_batch(&fresh);
        }
        let min_pos = self.entries.partition_point(|(ts, _)| *ts < min_ts);
        if min_pos == self.entries.len() {
            // Pure append: the whole batch is newer than the log.
            self.entries.extend(fresh);
            return Some(min_pos);
        }
        let tail = self.entries.split_off(min_pos);
        self.entries.reserve(tail.len() + fresh.len());
        let mut tail = tail.into_iter().peekable();
        let mut fresh = fresh.into_iter().peekable();
        // Two sorted runs with no timestamp in common (fresh was
        // deduplicated against the log above), so `<` is total here.
        while let (Some((t_ts, _)), Some((f_ts, _))) = (tail.peek(), fresh.peek()) {
            if t_ts < f_ts {
                self.entries.extend(tail.next());
            } else {
                self.entries.extend(fresh.next());
            }
        }
        self.entries.extend(tail);
        self.entries.extend(fresh);
        Some(min_pos)
    }

    /// The entries in timestamp order.
    pub fn iter(&self) -> impl Iterator<Item = &(Timestamp, A::Update)> {
        self.entries.iter()
    }

    /// Entry at a position.
    pub fn get(&self, pos: usize) -> Option<&(Timestamp, A::Update)> {
        self.entries.get(pos)
    }

    /// All timestamps, in order.
    pub fn timestamps(&self) -> impl Iterator<Item = Timestamp> + '_ {
        self.entries.iter().map(|(ts, _)| *ts)
    }

    /// The newest retained timestamp, `None` over an empty log.
    pub fn last_timestamp(&self) -> Option<Timestamp> {
        self.entries.last().map(|(ts, _)| *ts)
    }

    /// A bounded window of the retained suffix: up to `limit` entries
    /// stamped strictly above `since` — and, when `after` is set,
    /// strictly after `after` (the resume cursor of a chunked heal) —
    /// in timestamp order, plus whether more remain beyond the
    /// window. O(log n + limit): both bounds are downward-closed in
    /// the `(clock, pid)` sort order, so the window is one
    /// `partition_point` and a contiguous slice.
    pub fn suffix_window(
        &self,
        since: u64,
        after: Option<Timestamp>,
        limit: usize,
    ) -> (&[(Timestamp, A::Update)], bool) {
        let start = match after {
            Some(a) => self.entries.partition_point(|(ts, _)| *ts <= a),
            None => self.entries.partition_point(|(ts, _)| ts.clock <= since),
        };
        // `usize::MAX` is a caller's "no limit".
        let end = start.saturating_add(limit).min(self.entries.len());
        (&self.entries[start..end], end < self.entries.len())
    }

    /// Visit every retained entry stamped strictly above `since`, in
    /// timestamp order, without cloning — the digest-exchange fold of
    /// the chunked heal path.
    pub fn for_suffix(&self, since: u64, mut f: impl FnMut(Timestamp, &A::Update)) {
        let start = self.entries.partition_point(|(ts, _)| ts.clock <= since);
        for (ts, u) in &self.entries[start..] {
            f(*ts, u);
        }
    }

    /// Remove the prefix of entries with `ts.clock ≤ bound` — the
    /// stable prefix for garbage collection — handing each to `fold`
    /// in timestamp order before it is dropped. Returns the last
    /// timestamp drained, `None` when nothing was stable. Callers
    /// that folded the prefix into a base owe the backend that base
    /// ([`UpdateLog::persist_base`]) at the next flush — once, however
    /// many drains came before it; [`UpdateLog::base_moved`] says
    /// whether one is owed.
    pub fn drain_stable_prefix(
        &mut self,
        bound: u64,
        mut fold: impl FnMut(&A::Update),
    ) -> Option<Timestamp> {
        self.floor = self.floor.max(bound);
        let cut = self.entries.partition_point(|(ts, _)| ts.clock <= bound);
        let mut last = None;
        for (ts, u) in self.entries.drain(..cut) {
            fold(&u);
            last = Some(ts);
        }
        self.base_moved |= last.is_some();
        last
    }

    /// Did a drain move the base since it was last persisted?
    pub fn base_moved(&self) -> bool {
        self.base_moved
    }

    /// The duplicate-rejection floor: the highest bound drained
    /// through, or installed by recovery. Nothing at or below it is
    /// accepted again, so a key's next update must be stamped above it.
    pub fn floor(&self) -> u64 {
        self.floor
    }

    /// Raise the duplicate-rejection floor without draining —
    /// recovery installs a persisted base whose prefix was compacted
    /// in an earlier run, and the reopened log must keep refusing
    /// redeliveries below that bound.
    pub(crate) fn raise_floor(&mut self, bound: u64) {
        self.floor = self.floor.max(bound);
    }

    /// Number of entries with `ts.clock ≤ cut` — the length of the
    /// log's prefix below a snapshot cut. Because entries are kept
    /// sorted by `(clock, pid)` and `clock ≤ cut` is downward-closed in
    /// that order, the counted entries always form a contiguous prefix.
    pub fn prefix_len(&self, cut: u64) -> usize {
        self.entries.partition_point(|(ts, _)| ts.clock <= cut)
    }

    /// Iterate the entries with `ts.clock ≤ cut`, oldest first — the
    /// exact update sequence a snapshot query at `cut` must fold.
    pub fn prefix_at(&self, cut: u64) -> impl Iterator<Item = &(Timestamp, A::Update)> {
        self.entries[..self.prefix_len(cut)].iter()
    }

    /// Persist a compacted base: `state` is the fold of every update
    /// with `ts.clock ≤ bound` (all of which have been drained); the
    /// retained entries are handed to the backend as the live tail.
    /// A compacting strategy calls it at the flush after its drains
    /// ([`RepairStrategy::persist_base`](crate::engine::RepairStrategy::persist_base)),
    /// not at every drain: the entries drained between two flushes
    /// reach the backend as one base.
    pub fn persist_base(&mut self, bound: u64, state: &A::State) {
        self.base_moved = false;
        if self.journaling {
            self.backend.truncate_to_base(bound, state, &self.entries);
        }
    }

    /// Flush the backend, persisting `clock` as the recovery
    /// watermark. A no-op for [`MemBackend`].
    pub fn flush_backend(&mut self, clock: u64) {
        self.backend.flush(clock);
    }

    /// [`UpdateLog::flush_backend`] with the durability left to the
    /// shard's next flush ([`LogBackend::stage_flush`]).
    pub fn stage_backend_flush(&mut self, clock: u64) {
        self.backend.stage_flush(clock);
    }

    /// Direct backend access (recovery and tests).
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal UQ-ADT over `&'static str` updates, so the log can be
    /// unit-tested without dragging in a real state machine.
    #[derive(Clone, Debug)]
    struct StrAdt;

    impl UqAdt for StrAdt {
        type Update = &'static str;
        type QueryIn = ();
        type QueryOut = ();
        type State = ();

        fn initial(&self) -> Self::State {}
        fn apply(&self, _state: &mut Self::State, _update: &Self::Update) {}
        fn observe(&self, _state: &Self::State, _query: &Self::QueryIn) -> Self::QueryOut {}
    }

    type Log = UpdateLog<StrAdt>;

    fn msg(clock: u64, pid: u32, u: &'static str) -> UpdateMsg<&'static str> {
        UpdateMsg {
            ts: Timestamp::new(clock, pid),
            update: u,
        }
    }

    #[test]
    fn insert_keeps_order() {
        let mut log = Log::new();
        assert_eq!(log.insert(msg(2, 0, "b")), Some(0));
        assert_eq!(log.insert(msg(1, 0, "a")), Some(0)); // late message
        assert_eq!(log.insert(msg(3, 0, "c")), Some(2));
        let order: Vec<&str> = log.iter().map(|(_, u)| *u).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn duplicate_timestamps_rejected() {
        let mut log = Log::new();
        assert!(log.insert(msg(1, 0, "a")).is_some());
        assert!(log.insert(msg(1, 0, "a")).is_none());
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn pid_breaks_clock_ties() {
        let mut log = Log::new();
        log.insert(msg(1, 1, "one"));
        log.insert(msg(1, 0, "zero"));
        let order: Vec<&str> = log.iter().map(|(_, u)| *u).collect();
        assert_eq!(order, vec!["zero", "one"]);
    }

    #[test]
    fn push_newest_fast_path_and_fallback() {
        let mut log = Log::new();
        assert_eq!(log.push_newest(&msg(1, 0, "a")), Some(0));
        assert_eq!(log.push_newest(&msg(2, 0, "b")), Some(1));
        // wrong claim: older than the last entry → sorted insertion
        assert_eq!(log.push_newest(&msg(1, 1, "mid")), Some(1));
        let order: Vec<&str> = log.iter().map(|(_, u)| *u).collect();
        assert_eq!(order, vec!["a", "mid", "b"]);
    }

    #[test]
    fn push_newest_reports_duplicates_as_none() {
        let mut log = Log::new();
        assert_eq!(log.push_newest(&msg(1, 0, "a")), Some(0));
        assert_eq!(log.push_newest(&msg(1, 0, "a")), None);
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn insert_batch_merges_and_reports_min_position() {
        let mut log = Log::new();
        log.insert(msg(2, 0, "b"));
        log.insert(msg(5, 0, "e"));
        log.insert(msg(9, 0, "i"));
        // Batch straddles existing entries, out of order, with an
        // internal duplicate and one already-present timestamp.
        let batch = vec![
            msg(7, 0, "g"),
            msg(3, 0, "c"),
            msg(5, 0, "e"), // already in the log
            msg(3, 0, "c"), // duplicate within the batch
        ];
        assert_eq!(log.insert_batch(batch), Some(1));
        let order: Vec<&str> = log.iter().map(|(_, u)| *u).collect();
        assert_eq!(order, vec!["b", "c", "e", "g", "i"]);
    }

    #[test]
    fn insert_batch_of_duplicates_is_none() {
        let mut log = Log::new();
        log.insert(msg(1, 0, "a"));
        assert_eq!(log.insert_batch(vec![msg(1, 0, "a"), msg(1, 0, "a")]), None);
        assert_eq!(log.insert_batch(Vec::new()), None);
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn insert_batch_all_newer_appends() {
        let mut log = Log::new();
        log.insert(msg(1, 0, "a"));
        assert_eq!(
            log.insert_batch(vec![msg(3, 1, "c"), msg(2, 1, "b")]),
            Some(1)
        );
        let order: Vec<&str> = log.iter().map(|(_, u)| *u).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn insert_batch_interleaved_runs_merge_in_order() {
        // Fresh entries alternate with retained ones, so the merge
        // must interleave (neither bulk-extend fast path applies).
        let mut log = Log::new();
        for c in [2u64, 4, 6, 8] {
            log.insert(msg(c, 0, "old"));
        }
        let batch = vec![msg(5, 0, "n5"), msg(3, 0, "n3"), msg(9, 0, "n9")];
        assert_eq!(log.insert_batch(batch), Some(1));
        let clocks: Vec<u64> = log.timestamps().map(|ts| ts.clock).collect();
        assert_eq!(clocks, vec![2, 3, 4, 5, 6, 8, 9]);
    }

    #[test]
    fn drain_stable_prefix_cuts_by_clock() {
        let mut log = Log::new();
        log.insert(msg(1, 0, "a"));
        log.insert(msg(2, 1, "b"));
        log.insert(msg(5, 0, "c"));
        let mut stable = Vec::new();
        let last = log.drain_stable_prefix(2, |u| stable.push(*u));
        assert_eq!(stable, vec!["a", "b"]);
        assert_eq!(last, Some(Timestamp::new(2, 1)));
        assert_eq!(log.len(), 1);
        assert_eq!(log.get(0).unwrap().1, "c");
        assert_eq!(
            log.drain_stable_prefix(4, |_| panic!("nothing is stable")),
            None
        );
    }

    #[test]
    fn suffix_window_takes_usize_max_as_no_limit() {
        // Regression: `start + limit` overflowed (debug panic; in
        // release `end` wrapped below `start` and the slice panicked).
        let mut log = Log::new();
        for c in 1..=4u64 {
            log.insert(msg(c, 0, "x"));
        }
        let (all, more) = log.suffix_window(1, None, usize::MAX);
        assert_eq!(all.len(), 3);
        assert!(!more);
        let (rest, more) = log.suffix_window(0, Some(Timestamp::new(3, 0)), usize::MAX);
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].0, Timestamp::new(4, 0));
        assert!(!more);
    }

    /// A backend that records what it was asked to journal, so the
    /// mirroring contract is testable without disk.
    #[derive(Clone, Debug, Default)]
    struct Recording {
        appended: Vec<(Timestamp, &'static str)>,
        bases: Vec<(u64, usize)>, // (bound, tail length)
        flushes: Vec<u64>,
    }

    impl LogBackend<StrAdt> for Recording {
        fn append(&mut self, ts: Timestamp, u: &&'static str) {
            self.appended.push((ts, u));
        }

        fn truncate_to_base(
            &mut self,
            bound: u64,
            _state: &(),
            tail: &[(Timestamp, &'static str)],
        ) {
            self.bases.push((bound, tail.len()));
        }

        fn flush(&mut self, clock: u64) {
            self.flushes.push(clock);
        }

        fn load_base(&mut self) -> Option<(u64, ())> {
            None
        }

        fn scan_suffix(&mut self) -> Vec<(Timestamp, &'static str)> {
            Vec::new()
        }
    }

    #[test]
    fn backend_sees_exactly_the_fresh_entries() {
        let mut log: UpdateLog<StrAdt, Recording> = UpdateLog::with_backend(Recording::default());
        log.insert(msg(2, 0, "b"));
        log.insert(msg(2, 0, "b")); // duplicate: not journaled
        log.push_newest(&msg(5, 0, "e"));
        // Batch with one in-log duplicate and one internal duplicate:
        // only the two genuinely fresh entries reach the journal.
        log.insert_batch(vec![
            msg(3, 0, "c"),
            msg(5, 0, "e"),
            msg(3, 0, "c"),
            msg(7, 0, "g"),
        ]);
        let journaled: Vec<&str> = log.backend_mut().appended.iter().map(|(_, u)| *u).collect();
        assert_eq!(journaled, vec!["b", "e", "c", "g"]);
    }

    #[test]
    fn journaling_can_be_suspended_for_recovery_replay() {
        let mut log: UpdateLog<StrAdt, Recording> = UpdateLog::with_backend(Recording::default());
        log.set_journaling(false);
        log.insert(msg(1, 0, "a"));
        log.insert_batch(vec![msg(2, 0, "b")]);
        assert!(log.backend_mut().appended.is_empty());
        log.set_journaling(true);
        log.insert(msg(3, 0, "c"));
        assert_eq!(log.backend_mut().appended.len(), 1);
    }

    #[test]
    fn persist_base_hands_bound_and_tail_to_backend() {
        let mut log: UpdateLog<StrAdt, Recording> = UpdateLog::with_backend(Recording::default());
        for c in 1..=5u64 {
            log.insert(msg(c, 0, "x"));
        }
        let mut drained = 0;
        log.drain_stable_prefix(3, |_| drained += 1);
        assert_eq!(drained, 3);
        log.persist_base(3, &());
        log.flush_backend(9);
        let b = log.backend_mut();
        assert_eq!(b.bases, vec![(3, 2)]);
        assert_eq!(b.flushes, vec![9]);
    }
}
