//! The **persistent shard-worker ingest pool**: long-lived worker
//! threads, each owning a fixed set of a store's shards, fed by
//! bounded FIFO inboxes, with epoch-published snapshots for reads
//! that never wait behind a repair.
//!
//! [`UcStore::apply_batch_owned`] ingests a burst's shards one after the
//! other on the calling thread. The pool ingests them side by side,
//! on threads it pays for once, at [`IngestPool::spawn`]:
//!
//! ```text
//!    IngestPool (&mut, the one stamper: update/tick/heartbeat, owns join)
//!    PoolHandle (Clone, &self: query/submit_batch/cuts/flush)
//!          │ shard = hash(key) % S,  worker = shard % W
//!          ▼
//!   ┌ inbox 0 ─▶ Worker 0 {shards 0, W, 2W, …}   (long-lived thread)
//!   ├ inbox 1 ─▶ Worker 1 {shards 1, W+1, …}          │ between
//!   └ inbox W-1 ▶ …                                   ▼ claims
//!     std sync_channel(queue_depth)        epoch-published snapshots
//!     + a close gate                       (query_snapshot: two short
//!                                           RwLock reads: registry, cell)
//! ```
//!
//! * **bounded ingest** — the owner stamps (one `fetch_add` on the
//!   atomic clock), handles submit peer bursts, and each sends onto
//!   the owning worker's [`Inbox`]: std's bounded channel, whose
//!   `send` parks a producer that meets a full inbox until the worker
//!   takes a job. Nothing is dropped: a peer burst reaches the pool
//!   after the link below it has delivered it, so a burst dropped here
//!   would never be resent;
//! * **determinism** — every key lives in exactly one shard, every
//!   shard on exactly one worker, and a single producer's pushes are
//!   FIFO through the channel, so per-key delivery order equals
//!   submission order: pool results are identical to the
//!   sequential [`UcStore::apply_batch_owned`] path (states *and* repair
//!   event/step counts — the differential tests assert both). Each
//!   claimed job is processed separately, never coalesced, for the
//!   same reason;
//! * **reads that never wait behind a repair** — the worker
//!   republishes the post-repair state of every written key into its
//!   [`Published`] cell (one `RwLock`), as *background* work: after a
//!   claimed batch it publishes one key at a time and looks at its
//!   inbox between keys; when a job is waiting it moves the job into
//!   its batch, leaves the rest listed, and resumes afterwards (ingest
//!   first, publish in the gaps — a slow publication never holds the
//!   bounded inbox shut, so an `update()` never waits for readers'
//!   snapshots). The shards list what is owed: each insertion into a
//!   backfilled shard lists its key's slot number on the shard, unless
//!   it is listed already, so a key written many times before its turn
//!   is published once, and the worker reaches the key's engine and
//!   snapshot cell by that number — no sort, search or hash per key.
//!   A pass opens with the key one shard has listed longest (the
//!   shards take that turn in rotation), then takes the keys listed
//!   last first, whose engines the claimed jobs left in cache. What
//!   is published is the strategy's own `Arc` of the state
//!   ([`RepairStrategy::shared_state`]):
//!   under [`StableGc`](crate::gc::StableGc) that is the key's kept
//!   fold itself, advanced by the new entries — no refold, and no copy
//!   either: the cell lets go of the previous publication as it takes
//!   the new one, and the strategy advances that buffer into the next
//!   (two buffers taking turns, see *A shared fold* there). A state is
//!   still copied for a key's first two publications, after a late
//!   message sent the fold cold, when a reader still holds the key's
//!   previous snapshot as the next is due, when the key's base — a
//!   view of the two buffers — must become a state of its own (a key
//!   published twice over an update the heartbeat has not reached
//!   yet), and on every publication under a strategy that keeps no
//!   fold to share;
//!   [`WorkerStats::snapshot_copies`]
//!   (`uc_pool_snapshot_copies_total`) counts those publications
//!   beside [`WorkerStats::snapshots_published`] — flat in a steady
//!   run, and the price of readers that sit on snapshots when it is
//!   not. A key's first publication inserts its cell into its shard's
//!   key → cell registry, where readers find it from then on.
//!   [`PoolHandle::query_snapshot`] is then two short `RwLock` reads
//!   (the registry, then the cell) that never wait behind a repair or
//!   a queued burst (and never ticks the clock — it is a *weak* read
//!   of the latest **published** state: between flushes it may miss
//!   updates the worker has applied and not yet republished — see
//!   *starvation* below; the strong FIFO read-your-writes read is
//!   [`PoolHandle::query`]).
//!   Publishing is armed **per shard** by the first snapshot read
//!   touching it; an [`IngestPool::flush`] after arming backfills the
//!   armed shards' keys (untouched shards pay nothing);
//! * **starvation** — the price of ingest-first: under an inbox that
//!   is never empty, ingest wins. Publication still moves (at least
//!   one key per claim), a shard lists a key at most once — the lists
//!   are bounded by the worker's distinct keys, not by messages — and
//!   a key listed behind `k` others waits `k + 1` rounds of passes at
//!   most (each pass opens with the oldest of one shard), but a
//!   snapshot read may trail the applied state for as long as the
//!   pressure lasts. [`WorkerStats::publish_backlog`] and
//!   [`WorkerStats::publish_yields`] (`uc_pool_publish_backlog`,
//!   `uc_pool_publish_yields_total`) make it visible; the remedy is a
//!   flush (see *fences*);
//! * **cut snapshots** — [`PoolHandle::snapshot_at`] pushes a fence
//!   to every worker whose call folds the worker's keys' log prefixes
//!   stamped `≤ cut`, without stopping ingest, and the handle
//!   reassembles a multi-key [`StoreSnapshot`] that is un-torn at the
//!   cut. This is the multi-key view; the published reads are per
//!   key;
//! * **fences** — [`IngestPool::flush`] pushes a fence with an empty
//!   call to every worker and waits for all answers; because a
//!   producer's pushes are FIFO, a completed flush has observed every
//!   prior submission. Before it makes a fence's call a worker runs
//!   publication to completion, whatever is queued behind it: after a
//!   flush the published snapshots cover every earlier submission, and
//!   [`WorkerStats::publish_backlog`] reads zero;
//! * **drain-on-drop** — dropping the handle closes the inboxes;
//!   workers finish every queued job — and every owed publication —
//!   before exiting, so submitted bursts are never silently discarded
//!   and surviving handles keep reading the final states.
//!   [`IngestPool::finish`] additionally reassembles and returns the
//!   [`UcStore`];
//! * **poisoning** — a panic anywhere in a worker's work (e.g. a
//!   panicking ADT fold, whether a job, a publication pass or an arming
//!   backfill first folds it) is caught once, around everything the
//!   worker thread does, and recorded in a lock-free `OnceLock`, so the
//!   per-call poison check is a plain load; the worker drops its end of
//!   the inbox, which fails any producer parked on it, then closes the
//!   inbox, and every subsequent operation surfaces the [`PoolError`]
//!   instead of deadlocking;
//! * **one stamper** — as in the paper's model, a replica is one
//!   sequential process: only the owner (`&mut IngestPool`) stamps
//!   local updates, ticks maintenance and announces the clock in a
//!   heartbeat, so the replica's own stamps reach every worker, and
//!   leave in its broadcasts, in stamp order. The stability floor
//!   counts the replica's own pid at each stamp it inserts and at a
//!   tick's clock; a second stamper could move it past a stamp still
//!   on its way to the inbox, and that update would then be refused
//!   here and dropped below the floor at a peer. A [`PoolHandle`]
//!   reads, cuts, flushes and submits peer bursts: it moves the clock
//!   up and never stamps;
//! * **crash soundness** — stamping composes with the persisted
//!   clock-floor lease the store keeps too (`ClockLease`, handed over
//!   by [`UcStore::into_pool`] and back by [`IngestPool::finish`],
//!   held by the owner): the floor is written *before* the stamp it
//!   covers can be broadcast, once per `CLOCK_LEASE` stamps, and it
//!   collapses to the clock at each [`IngestPool::flush_backends`] and
//!   at finish or drop, as a store's does.
//!
//! The pool is the same replica as the sequential [`UcStore`], above
//! the shards and at them: [`IngestPool`] is the [`Workers`]
//! instantiation of [`Node`], so the partition posture, the heal
//! dialogue, the health and metrics accessors and the
//! [`Protocol`](uc_sim::Protocol) impl — it runs unchanged under
//! `uc-runtime`'s `EventCluster` (real ingest concurrency) and the
//! deterministic simulator — are the store's own code, and each
//! worker's shards are a `ShardSet`, the store's data plane dealt out
//! by stride. A job is a call into the worker's `ShardSet`, the method
//! the store calls inline: a boxed closure that carries its arguments
//! and, where it answers, the channel the answer goes back through.
//! Only the three data jobs (a burst, a frame, a local update) are
//! spelled out: the worker counts their bursts and messages, and a
//! frame's stamp is heard before its insertion. Publication does not
//! need them spelled out: the shards list what every insertion wrote,
//! whichever job made it. A read of what the shards report (keys,
//! live keys, log length, repair totals, the monitor's counters) is
//! one call per worker, answered behind everything queued before it on
//! that worker's FIFO inbox: quiesced, with no flush. What is the pool's
//! alone is what crosses threads: the inboxes, the published
//! snapshots, and the relaxed throughput counters (`SharedCounters`).

use crate::backend::{BackendFactory, LogBackend, MemFactory};
use crate::engine::{CutError, RepairStrategy, ReplicaEngine};
use crate::heal::{HealDigest, RANGES};
use crate::inbox::{self, Inbox};
use crate::message::UpdateMsg;
use crate::node::{Executor, Node};
use crate::snapshot::Published;
use crate::store::{
    shard_index, split_by_shard, Bucket, ClockLease, Inline, Key, ShardSet, StoreMsg,
    StoreSnapshot, StrategyFactory, Summary, UcStore,
};
use crate::timestamp::{LamportClock, Timestamp};
use std::any::Any;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::BuildHasherDefault;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, TryRecvError};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};
use std::thread::JoinHandle;
use uc_criteria::online::MonitorConfig;
use uc_history::fxhash::FxHasher;
use uc_obs::Registry;
use uc_sim::harness::panic_message;
use uc_sim::Pid;
use uc_spec::UqAdt;

/// How an [`IngestPool`] is sized.
#[derive(Clone, Copy, Debug)]
pub struct PoolConfig {
    /// Worker threads; `0` means one per unit of available hardware
    /// parallelism. Capped at the store's shard count (an idle worker
    /// with no shards would be pure overhead).
    pub workers: usize,
    /// Bounded depth of each worker's job inbox: a submission beyond
    /// it parks its producer until a slot frees, instead of growing
    /// memory without bound. Nothing is ever dropped.
    pub queue_depth: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            workers: 0,
            queue_depth: 64,
        }
    }
}

/// Sentinel message for "the pool was shut down, not poisoned" (a
/// handle outliving [`IngestPool::finish`]/drop).
const POOL_CLOSED: &str = "pool closed (finish or drop already ran)";

/// A worker thread died mid-job (the pool is poisoned and every
/// subsequent operation reports this error), or the pool was already
/// shut down under a still-live [`PoolHandle`].
#[derive(Clone, Debug)]
pub struct PoolError {
    /// Index of the worker that panicked (or refused the job).
    pub worker: usize,
    /// The panic payload, if it was a string.
    pub message: String,
}

impl PoolError {
    fn closed(worker: usize) -> Self {
        PoolError {
            worker,
            message: POOL_CLOSED.into(),
        }
    }
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.message == POOL_CLOSED {
            write!(f, "ingest pool closed: worker {} is gone", self.worker)
        } else {
            write!(
                f,
                "ingest pool poisoned: worker {} panicked: {}",
                self.worker, self.message
            )
        }
    }
}

impl std::error::Error for PoolError {}

/// Why a barrier-cut snapshot ([`PoolHandle::snapshot_at`] /
/// [`PoolHandle::consistent_snapshot`]) could not be taken.
#[derive(Clone, Debug)]
pub enum SnapshotError {
    /// The pool is poisoned or closed — the underlying [`PoolError`].
    Pool(PoolError),
    /// The requested cut predates a key's compacted history.
    Cut(CutError),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Pool(e) => write!(f, "snapshot failed: {e}"),
            SnapshotError::Cut(e) => write!(f, "snapshot failed: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Pool(e) => Some(e),
            SnapshotError::Cut(e) => Some(e),
        }
    }
}

/// Point-in-time counters for one worker.
#[derive(Clone, Debug, Default)]
pub struct WorkerStats {
    /// Ingest jobs (bursts) this worker has processed.
    pub batches: u64,
    /// Update messages ingested across those bursts.
    pub messages: u64,
    /// High-water mark of enqueued-but-unfinished jobs — how far
    /// submitters ran ahead of this worker. Counts the job being
    /// processed and in-flight push attempts, so it can read slightly
    /// above [`PoolConfig::queue_depth`].
    pub queue_high_water: usize,
    /// Key states epoch-published for snapshot reads. The
    /// per-shard arming fix bounds this: arming one shard backfills
    /// only that shard's keys, not the whole store (the 10k-key
    /// first-query latency test asserts the bound).
    pub snapshots_published: u64,
    /// Publications that had to copy a whole state instead of handing
    /// out the strategy's kept fold (see *A shared fold* on
    /// [`StableGc`](crate::gc::StableGc)): a key's first publications,
    /// a cold rebuild after a late arrival, a reader still holding the
    /// key's previous snapshot when the next one is due, a base
    /// materialized out of the buffers since the key's last publication
    /// — and every publication under a strategy that keeps no
    /// shareable fold. Flat in a steady run but for the
    /// materializations, a small share of publications; rising with
    /// [`WorkerStats::snapshots_published`] means readers sitting on
    /// snapshots, or a stream of late messages, are costing the worker
    /// a state copy per publication.
    pub snapshot_copies: u64,
    /// Keys written and not yet republished (a gauge, as of the end of
    /// the worker's last publication pass): what its shards list,
    /// non-zero while a pass is suspended for queued jobs, zero after
    /// every [`IngestPool::flush`]. Bounded by the worker's distinct
    /// keys — a shard lists a key once however often it is written.
    pub publish_backlog: usize,
    /// Publication passes suspended with keys still pending because a
    /// job was waiting in the inbox (ingest first, publish in the
    /// gaps). Rising together with a [`WorkerStats::publish_backlog`]
    /// that never returns to zero means snapshot readers are being
    /// starved by ingest; a flush forces publication to completion.
    pub publish_yields: u64,
}

/// Point-in-time counters for the whole pool (observability and the
/// pool benchmark's queue-depth metrics).
#[derive(Clone, Debug, Default)]
pub struct PoolStats {
    /// Per-worker counters, indexed by worker.
    pub workers: Vec<WorkerStats>,
}

impl PoolStats {
    /// Total bursts processed across workers.
    pub fn total_batches(&self) -> u64 {
        self.workers.iter().map(|w| w.batches).sum()
    }

    /// Total update messages ingested across workers.
    pub fn total_messages(&self) -> u64 {
        self.workers.iter().map(|w| w.messages).sum()
    }

    /// Deepest queue observed on any worker.
    pub fn max_queue_high_water(&self) -> usize {
        self.workers
            .iter()
            .map(|w| w.queue_high_water)
            .max()
            .unwrap_or(0)
    }

    /// A pool never sheds; kept until the e2e read is dropped.
    pub fn total_shed(&self) -> u64 {
        0
    }

    /// Total key states epoch-published across workers.
    pub fn total_snapshots_published(&self) -> u64 {
        self.workers.iter().map(|w| w.snapshots_published).sum()
    }

    /// Total publications that copied a state, across workers.
    pub fn total_snapshot_copies(&self) -> u64 {
        self.workers.iter().map(|w| w.snapshot_copies).sum()
    }
}

/// Counters shared between the handles and one worker.
#[derive(Default)]
struct SharedCounters {
    depth: AtomicUsize,
    high_water: AtomicUsize,
    batches: AtomicU64,
    messages: AtomicU64,
    snaps_published: AtomicU64,
    snap_copies: AtomicU64,
    publish_backlog: AtomicUsize,
    publish_yields: AtomicU64,
}

impl SharedCounters {
    fn on_enqueue(&self) {
        let d = self.depth.fetch_add(1, Ordering::SeqCst) + 1;
        self.high_water.fetch_max(d, Ordering::SeqCst);
    }

    fn on_done(&self) {
        self.depth.fetch_sub(1, Ordering::SeqCst);
    }

    fn stats(&self) -> WorkerStats {
        WorkerStats {
            batches: self.batches.load(Ordering::Relaxed),
            messages: self.messages.load(Ordering::Relaxed),
            queue_high_water: self.high_water.load(Ordering::Relaxed),
            snapshots_published: self.snaps_published.load(Ordering::Relaxed),
            snapshot_copies: self.snap_copies.load(Ordering::Relaxed),
            publish_backlog: self.publish_backlog.load(Ordering::Relaxed),
            publish_yields: self.publish_yields.load(Ordering::Relaxed),
        }
    }
}

/// A burst split per shard, tagged with global shard indices.
type ShardBuckets<A> = Vec<(usize, Bucket<A>)>;

/// A call into a worker's [`ShardSet`] (the same one a [`UcStore`]
/// calls inline): its arguments and, where it answers, the channel the
/// answer goes back through are what the closure captured.
type Call<A, F, P> = Box<dyn FnOnce(&mut ShardSet<A, F, P>) + Send>;

/// How a call is queued: [`Job::Call`] or [`Job::Fence`].
type CallKind<A, F, P> = fn(Call<A, F, P>) -> Job<A, F, P>;

/// One unit of work on a worker's inbox. The three data jobs are
/// spelled out for the worker's counters (bursts, messages) and for a
/// frame's rule that its stamp is heard before its insertion; what
/// their insertions owe publication the shards list themselves.
enum Job<A: UqAdt, F: StrategyFactory<A>, P: BackendFactory<A>> {
    /// [`ShardSet::ingest`]: per-shard buckets of one submitted burst
    /// (global shard index).
    Ingest(ShardBuckets<A>),
    /// A peer's update frame delivered on its own: its stamp is heard
    /// ([`ShardSet::delivered`]) before its insertion
    /// ([`ShardSet::insert_remote`]), as on a sequential store.
    Deliver {
        /// Global shard index of `key`.
        shard: usize,
        key: Key,
        msg: UpdateMsg<A::Update>,
    },
    /// [`ShardSet::insert_local`]: a locally issued update, already
    /// stamped by the shared clock.
    Update {
        /// Global shard index of `key`.
        shard: usize,
        key: Key,
        msg: UpdateMsg<A::Update>,
    },
    /// Any other call. An insertion it makes is listed for publication
    /// like any other.
    Call(Call<A, F, P>),
    /// A call made once publication has run to completion, whatever is
    /// queued behind it: a flush or a cut covers every earlier
    /// submission in the published snapshots too.
    Fence(Call<A, F, P>),
}

/// One key's epoch-published snapshot: its post-repair state — the
/// strategy's own `Arc` of it, see
/// [`RepairStrategy::shared_state`].
type SnapCell<A> = Published<<A as UqAdt>::State>;

/// The key → snapshot-cell registry for one shard, behind one
/// `RwLock` in [`PoolCore::snaps`]. Its one writer is the shard's
/// owning worker, which inserts a key's cell at the cell's first
/// publication; readers look keys up under the read lock. Hashed like
/// the shard's own key map (`FxHasher`): a published read is one
/// lookup here plus the cell's load.
type SnapMap<A> = HashMap<Key, Arc<SnapCell<A>>, BuildHasherDefault<FxHasher>>;

/// State shared by every [`PoolHandle`], the [`IngestPool`], and the
/// workers. Strategy and backend state live in each worker's
/// [`ShardSet`]; the core names their types only because a job is a
/// call into it.
struct PoolCore<A: UqAdt, F: StrategyFactory<A>, P: BackendFactory<A>> {
    pid: u32,
    clock: LamportClock,
    num_shards: usize,
    inboxes: Vec<Inbox<Job<A, F, P>>>,
    counters: Vec<SharedCounters>,
    /// Per shard, its key → cell registry.
    snaps: Vec<RwLock<SnapMap<A>>>,
    /// First worker panic wins; the per-call check is a plain load.
    poison: OnceLock<PoolError>,
    /// Per-shard snapshot arming, set by the first snapshot read of a
    /// key in that shard. Workers backfill and publish only armed
    /// shards, so the first snapshot query on a huge store pays for
    /// one shard's keys, not all of them.
    armed: Vec<AtomicBool>,
    /// Per sender, the highest stamp of its frames delivered on their
    /// own: heard by the worker that inserted each, owed to the rest,
    /// who get it with the handle's next burst, tick or summary. One
    /// job per frame, not one per worker.
    owed: Mutex<Vec<(u32, u64)>>,
}

impl<A: UqAdt, F: StrategyFactory<A>, P: BackendFactory<A>> PoolCore<A, F, P> {
    fn worker_of(&self, shard: usize) -> usize {
        shard % self.inboxes.len()
    }
}

/// One owned shard's snapshot cells by the shard's slot numbers: how
/// the worker reaches a key's cell, with no hash lookup. The same cells
/// by key are the shard's registry in [`PoolCore::snaps`].
struct Mirror<A: UqAdt> {
    /// The shard's global index.
    shard: usize,
    by_slot: Vec<Option<Arc<SnapCell<A>>>>,
}

/// Worker-local snapshot publisher: each owned shard's cells by slot
/// number, and the per-worker epoch sequence. Each cell and each
/// registry has exactly one writer (this worker), which is what
/// [`Published::publish`]'s single-writer contract needs.
///
/// What is owed a publication the shards list themselves: once a shard
/// is backfilled, each insertion lists its key's slot number there,
/// unless it is listed already, so one publication covers however many
/// writes came before it. A pass takes first the slot one shard has
/// listed longest, the shards taking that turn in rotation, and then
/// the slots listed last first: the keys the claimed jobs have just
/// written, whose engines are still in cache. A key listed behind `k`
/// others in its shard is therefore published within `k + 1` rounds of
/// passes, one pass per owned shard a round, however busy the inbox.
struct SnapPublisher<A: UqAdt> {
    /// One per owned shard, in [`ShardSet::slot`] order.
    mirrors: Vec<Mirror<A>>,
    seq: u64,
    /// The mirror whose shard opens the next pass.
    turn: usize,
}

impl<A: UqAdt> SnapPublisher<A> {
    fn new(owned_shards: impl Iterator<Item = usize>) -> Self {
        SnapPublisher {
            mirrors: owned_shards
                .map(|shard| Mirror {
                    shard,
                    by_slot: Vec::new(),
                })
                .collect(),
            seq: 0,
            turn: 0,
        }
    }

    /// Publish a listed slot; false when no shard lists one. The
    /// `oldest` is the one its shard has listed longest, the shards
    /// taking that turn in rotation; any other is the one listed last
    /// in the first shard that lists one.
    fn publish_next<F, P>(
        &mut self,
        snaps: &[RwLock<SnapMap<A>>],
        shards: &mut ShardSet<A, F, P>,
        oldest: bool,
        tally: &mut PublishTally,
    ) -> bool
    where
        F: StrategyFactory<A>,
        P: BackendFactory<A>,
    {
        let n = self.mirrors.len();
        for i in 0..n {
            let m = if oldest { (self.turn + i) % n } else { i };
            if let Some((at, key, engine)) = shards.shard_at_mut(m).take_unpublished(oldest) {
                if oldest {
                    self.turn = (m + 1) % n;
                }
                self.publish_slot(snaps, m, at, key, engine, tally);
                return true;
            }
        }
        false
    }

    /// Publish the current state of `key`, slot `at` of mirror `m`'s
    /// shard, and tally it. A key's first publication also inserts its
    /// cell into the shard's registry, so readers find it from then on.
    fn publish_slot<S, B>(
        &mut self,
        snaps: &[RwLock<SnapMap<A>>],
        m: usize,
        at: u32,
        key: Key,
        engine: &mut ReplicaEngine<A, S, B>,
        tally: &mut PublishTally,
    ) where
        S: RepairStrategy<A>,
        B: LogBackend<A>,
    {
        let (snapshot, copied) = engine.shared_state();
        tally.published += 1;
        tally.copies += u64::from(copied);
        self.seq += 1;
        let mirror = &mut self.mirrors[m];
        let at = at as usize;
        if at >= mirror.by_slot.len() {
            mirror.by_slot.resize(at + 1, None);
        }
        match &mirror.by_slot[at] {
            Some(cell) => cell.publish(self.seq, snapshot),
            None => {
                let cell = Arc::new(Published::new());
                cell.publish(self.seq, snapshot);
                snaps[mirror.shard]
                    .write()
                    .expect("snapshot registry never poisoned")
                    .insert(key, Arc::clone(&cell));
                mirror.by_slot[at] = Some(cell);
            }
        }
    }
}

/// What one publication pass adds to the worker's counters.
#[derive(Default)]
struct PublishTally {
    published: u64,
    copies: u64,
}

/// What one [`Worker::turn`] came to.
#[derive(Debug, PartialEq, Eq)]
enum Turn {
    /// Jobs ran or snapshots were published: take another turn.
    Worked,
    /// Nothing queued and nothing owed: block until a push or a close.
    Idle,
    /// The inbox is closed and drained and nothing is owed: hand the
    /// shards back.
    Done,
}

/// One worker thread's world: its stride of the replica's shards, the
/// receiving end of its inbox (whose senders and close gate the shared
/// core keeps, by index) and its snapshot publisher.
struct Worker<A: UqAdt, F: StrategyFactory<A>, P: BackendFactory<A>> {
    shards: ShardSet<A, F, P>,
    core: Arc<PoolCore<A, F, P>>,
    widx: usize,
    inbox: Receiver<Job<A, F, P>>,
    publisher: SnapPublisher<A>,
    /// Claimed and not yet run.
    batch: Vec<Job<A, F, P>>,
}

impl<A, F, P> Worker<A, F, P>
where
    A: UqAdt + Clone,
    F: StrategyFactory<A>,
    P: BackendFactory<A>,
{
    fn new(
        shards: ShardSet<A, F, P>,
        core: Arc<PoolCore<A, F, P>>,
        widx: usize,
        inbox: Receiver<Job<A, F, P>>,
    ) -> Self {
        let publisher = SnapPublisher::new(shards.indices());
        Worker {
            shards,
            core,
            widx,
            inbox,
            publisher,
            batch: Vec::new(),
        }
    }

    /// Run one job. A call that answers sends into a channel it
    /// captured; a dead one (the caller gave up on a poisoned pool) is
    /// not this worker's problem.
    fn run(&mut self, job: Job<A, F, P>) {
        let counters = &self.core.counters[self.widx];
        let shards = &mut self.shards;
        match job {
            Job::Ingest(buckets) => {
                counters.batches.fetch_add(1, Ordering::Relaxed);
                let taken = shards.ingest(buckets);
                counters.messages.fetch_add(taken, Ordering::Relaxed);
            }
            Job::Deliver { shard, key, msg } => {
                counters.batches.fetch_add(1, Ordering::Relaxed);
                counters.messages.fetch_add(1, Ordering::Relaxed);
                shards.delivered(msg.ts.pid, msg.ts.clock);
                shards.insert_remote(shard, key, msg);
            }
            Job::Update { shard, key, msg } => {
                counters.messages.fetch_add(1, Ordering::Relaxed);
                shards.insert_local(shard, key, msg.ts, msg.update);
            }
            Job::Call(call) | Job::Fence(call) => call(shards),
        }
    }

    fn any_armed(&self) -> bool {
        self.shards
            .indices()
            .any(|idx| self.core.armed[idx].load(Ordering::SeqCst))
    }

    /// Publish snapshot work that is owed, **per armed shard**: shards
    /// backfilled earlier publish the keys they list, each once however
    /// often it was written; once nothing is listed, a shard observed
    /// armed for the first time gets a one-off backfill of its keys and
    /// starts listing; unarmed shards list and publish nothing (arming
    /// them later triggers their own backfill).
    ///
    /// Publication is the worker's *background* work. Unless `force`d
    /// the pass looks at the inbox between keys (`try_recv`) and, when
    /// a job is waiting, moves it into the batch and stops where it is
    /// — after at least one key, so a
    /// producer that never lets the inbox run empty slows publication
    /// down to a key per claim but cannot stop it. What is left stays
    /// listed for the next call. `force` is for the points that promise
    /// coverage: before a fence's call, so a completed
    /// [`IngestPool::flush`] guarantees the published snapshots cover
    /// every earlier submission.
    fn publish(&mut self, force: bool) {
        let Worker {
            shards,
            core,
            widx,
            inbox,
            publisher,
            batch,
        } = self;
        let core: &PoolCore<A, F, P> = core;
        let counters = &core.counters[*widx];
        let mut tally = PublishTally::default();
        let mut oldest = true;
        let drained = loop {
            if !publisher.publish_next(&core.snaps, shards, oldest, &mut tally) {
                break true;
            }
            oldest = false;
            if !force {
                if let Ok(job) = inbox.try_recv() {
                    batch.push(job);
                    break shards.unpublished() == 0;
                }
            }
        };
        if drained {
            for m in 0..publisher.mirrors.len() {
                // A shard starts publishing once its arming backfill has
                // run, and stops only when the worker hands it back.
                let shard = shards.shard_at_mut(m);
                if !shard.publishing()
                    && core.armed[publisher.mirrors[m].shard].load(Ordering::SeqCst)
                {
                    // Incremental by construction: other owned shards
                    // pay nothing until a snapshot read arms them too.
                    // In creation order, so slot numbers count up from 0.
                    for (at, (key, engine)) in shard.engines_mut().enumerate() {
                        publisher.publish_slot(&core.snaps, m, at as u32, key, engine, &mut tally);
                    }
                    shard.start_publishing();
                }
            }
        } else {
            counters.publish_yields.fetch_add(1, Ordering::Relaxed);
        }
        counters
            .snaps_published
            .fetch_add(tally.published, Ordering::Relaxed);
        counters
            .snap_copies
            .fetch_add(tally.copies, Ordering::Relaxed);
        counters
            .publish_backlog
            .store(shards.unpublished(), Ordering::Relaxed);
    }

    /// Run the claimed batch, each job separately (identical repair
    /// accounting to the sequential path), then publish in the gap
    /// before the next claim.
    fn run_claimed(&mut self) {
        let mut batch = std::mem::take(&mut self.batch);
        for job in batch.drain(..) {
            if matches!(job, Job::Fence(_)) && self.any_armed() {
                self.publish(true);
            }
            self.run(job);
            self.core.counters[self.widx].on_done();
        }
        self.batch = batch;
        if self.any_armed() {
            self.publish(false);
        }
    }

    /// The one way a worker fails: record the panic as the pool's
    /// poison; flush the backends, guarded against a second panic (the
    /// journal is valid, only the in-memory fold is suspect, and
    /// recovery refolds from the journal); drop the receiver, which
    /// drops what is queued (releasing the callers waiting on it) and
    /// fails every producer parked on the full inbox; then close the
    /// inbox, whose wait for in-flight pushes those failures end. The
    /// poison is set before the inbox closes, which is what those
    /// callers wait for ([`PoolHandle::wait_for`]).
    fn poison(mut self, payload: Box<dyn Any + Send>) {
        let _ = self.core.poison.set(PoolError {
            worker: self.widx,
            message: panic_message(payload.as_ref()),
        });
        let _ = catch_unwind(AssertUnwindSafe(|| self.shards.flush_backends()));
        let Worker {
            core, widx, inbox, ..
        } = self;
        drop(inbox);
        core.inboxes[widx].close();
    }

    /// Block until a job arrives or the inbox closes; the next turn's
    /// claim reads the close.
    fn wait(&mut self) {
        if let Ok(job) = self.inbox.recv() {
            self.batch.push(job);
        }
    }

    /// Move everything queued into the batch. True once the inbox is
    /// closed and every push it accepted has been claimed.
    fn claim(&mut self) -> bool {
        loop {
            match self.inbox.try_recv() {
                Ok(job) => self.batch.push(job),
                Err(e) => return e == TryRecvError::Disconnected,
            }
        }
    }

    /// One step of the worker loop: ingest first, publish in the gaps,
    /// park only with nothing queued *and* nothing owed.
    fn turn(&mut self) -> Turn {
        let closed = self.claim();
        if self.batch.is_empty() {
            if self.shards.unpublished() > 0 {
                // Owed keys and an empty inbox: this is a gap. (A pass
                // suspends only for a waiting job and the next claim
                // takes that job, so no pass is left like this today;
                // the park and exit rules do not lean on it.)
                self.publish(false);
                return Turn::Worked;
            }
            return if closed { Turn::Done } else { Turn::Idle };
        }
        self.run_claimed();
        Turn::Worked
    }
}

/// Worker main loop: claim-and-drain the inbox until it is closed and
/// drained (finish/drop), flush every owned backend, then hand the
/// shards back through the join handle.
///
/// **Ingest first, publish in the gaps.** After a claimed batch the
/// worker republishes the written keys' snapshots one key at a time
/// and looks at its inbox between keys; when a job is waiting it
/// takes it, leaves the rest listed, and resumes after the next batch
/// (at least one key per resumed pass). It blocks in `recv` only when
/// the inbox is empty *and* nothing is owed, and it exits only then
/// too, so the shards it hands back have every snapshot published. A
/// slow publication therefore never holds the bounded inbox shut: an
/// `update()` waits for ingest at most, never for readers' snapshots.
///
/// **Starvation.** The other side of that choice: under an inbox that
/// is never empty, ingest wins. Publication still moves (a key per
/// claim), a shard lists a key at most once so the lists are bounded
/// by the worker's distinct keys, not by messages, and
/// [`WorkerStats::publish_backlog`] / [`WorkerStats::publish_yields`]
/// show it happening — but a [`PoolHandle::query_snapshot`] may trail
/// the applied state for as long as the pressure lasts. The remedy is
/// [`IngestPool::flush`]: before a fence's call the worker runs
/// publication to completion whatever is queued behind it.
///
/// **Panics.** One `catch_unwind` holds all of the worker's work —
/// every job, publication pass and arming backfill, and the exit
/// path — and hands a panic to [`Worker::poison`]. The shards may then hold a half-repaired engine,
/// so they are abandoned rather than handed back to `finish`.
fn worker_loop<A, F, P>(mut worker: Worker<A, F, P>) -> Option<ShardSet<A, F, P>>
where
    A: UqAdt + Clone,
    F: StrategyFactory<A>,
    P: BackendFactory<A>,
{
    let work = catch_unwind(AssertUnwindSafe(|| {
        loop {
            match worker.turn() {
                Turn::Worked => {}
                Turn::Idle => worker.wait(),
                Turn::Done => break,
            }
        }
        // Drain-on-drop / finish: everything queued has been applied
        // and, by the exit rule, published. The shards go home listing
        // nothing, so an inline insertion lists nothing either; make it
        // all durable before the join completes.
        worker.shards.stop_publishing();
        worker.shards.flush_backends();
    }));
    match work {
        Ok(()) => Some(worker.shards),
        Err(payload) => {
            worker.poison(payload);
            None
        }
    }
}

/// A cloneable, `&self` handle to a pooled store: strong reads, cuts,
/// flushes and peer-burst ingest, and snapshot reads that never wait
/// behind a repair, from any number of threads. It never stamps: the
/// [`IngestPool`] itself is the replica's one stamper (see the
/// [module docs](self)).
pub struct PoolHandle<A: UqAdt, F: StrategyFactory<A>, P: BackendFactory<A> = MemFactory> {
    core: Arc<PoolCore<A, F, P>>,
    adt: A,
}

impl<A, F, P> Clone for PoolHandle<A, F, P>
where
    A: UqAdt + Clone,
    F: StrategyFactory<A>,
    P: BackendFactory<A>,
{
    fn clone(&self) -> Self {
        PoolHandle {
            core: Arc::clone(&self.core),
            adt: self.adt.clone(),
        }
    }
}

impl<A, F, P> PoolHandle<A, F, P>
where
    A: UqAdt + Clone + Send + 'static,
    A::Update: Send,
    A::QueryIn: Send,
    A::QueryOut: Send,
    A::State: Send,
    F: StrategyFactory<A> + 'static,
    P: BackendFactory<A> + 'static,
{
    fn err_for(&self, worker: usize) -> PoolError {
        self.core
            .poison
            .get()
            .cloned()
            .unwrap_or_else(|| PoolError::closed(worker))
    }

    /// Push a job, parking while the inbox is full.
    fn push_job(&self, worker: usize, job: Job<A, F, P>) -> Result<(), PoolError> {
        let core = &*self.core;
        if let Some(e) = core.poison.get() {
            return Err(e.clone());
        }
        // Count the job *before* it becomes visible: the worker may
        // claim and finish it (decrementing the depth) before a
        // post-push increment would land, wrapping the counter.
        core.counters[worker].on_enqueue();
        core.inboxes[worker].push(job).map_err(|_| {
            core.counters[worker].on_done();
            self.err_for(worker)
        })
    }

    /// `f` as a call that sends its answer back. A dead channel (the
    /// caller gave up on a poisoned pool) is not the worker's problem.
    fn answered<R: Send + 'static>(
        f: impl FnOnce(&mut ShardSet<A, F, P>) -> R + Send + 'static,
    ) -> (Call<A, F, P>, Receiver<R>) {
        let (reply, answer) = channel();
        let call: Call<A, F, P> = Box::new(move |s| {
            let _ = reply.send(f(s));
        });
        (call, answer)
    }

    /// Wait for `worker`'s answer. Only a panic leaves a call
    /// unanswered, and its channel closes as the panic unwinds, before
    /// [`Worker::poison`] runs: so wait for the inbox to close, which
    /// the poison path does after recording the panic. (A call racing
    /// [`IngestPool::finish`], which closes the inboxes first, may read
    /// the close instead; `finish` reports the panic.)
    fn wait_for<R>(&self, worker: usize, answer: Receiver<R>) -> Result<R, PoolError> {
        answer.recv().map_err(|_| {
            let inbox = &self.core.inboxes[worker];
            while !inbox.is_closed() {
                std::thread::yield_now();
            }
            self.err_for(worker)
        })
    }

    /// Run `f` on `worker`'s shard set, behind everything pushed there
    /// before (parking on a full inbox), and wait for its answer.
    fn call<R: Send + 'static>(
        &self,
        worker: usize,
        f: impl FnOnce(&mut ShardSet<A, F, P>) -> R + Send + 'static,
    ) -> Result<R, PoolError> {
        let (call, answer) = Self::answered(f);
        self.push_job(worker, Job::Call(call))?;
        self.wait_for(worker, answer)
    }

    /// Push a call of `f`, queued as `kind`, to every worker (parking
    /// on a full inbox), then wait for all the answers, in worker
    /// order. A worker's FIFO inbox orders its call after every
    /// earlier submission from this handle.
    fn scatter<R: Send + 'static>(
        &self,
        kind: CallKind<A, F, P>,
        f: impl FnOnce(&mut ShardSet<A, F, P>) -> R + Clone + Send + 'static,
    ) -> Result<Vec<R>, PoolError> {
        let workers = self.core.inboxes.len();
        let mut answers = Vec::with_capacity(workers);
        for worker in 0..workers {
            let (call, answer) = Self::answered(f.clone());
            self.push_job(worker, kind(call))?;
            answers.push(answer);
        }
        answers
            .into_iter()
            .enumerate()
            .map(|(worker, answer)| self.wait_for(worker, answer))
            .collect()
    }

    /// Push a call of `f` to every worker, parking on a full inbox;
    /// nothing waits for it.
    fn broadcast(
        &self,
        f: impl FnOnce(&mut ShardSet<A, F, P>) + Clone + Send + 'static,
    ) -> Result<(), PoolError> {
        for worker in 0..self.core.inboxes.len() {
            self.push_job(worker, Job::Call(Box::new(f.clone())))?;
        }
        Ok(())
    }

    /// Strong read: round-trips through the owning worker, whose FIFO
    /// inbox guarantees the answer reflects every earlier submission
    /// from this handle touching the key (read-your-writes). Ticks
    /// the clock (Algorithm 1 line 13). For the weak read that never
    /// waits behind a repair, see [`PoolHandle::query_snapshot`].
    pub fn query(&self, key: Key, q: &A::QueryIn) -> Result<A::QueryOut, PoolError> {
        self.core.clock.tick();
        let shard = shard_index(key, self.core.num_shards);
        let q = q.clone();
        self.call(self.core.worker_of(shard), move |s| s.query(shard, key, &q))
    }

    /// Arm snapshot publication for `shard`. Test-then-set: the flag
    /// only ever goes up, and the worker polls its cache line once per
    /// drain and per barrier, so a read of an armed shard must not
    /// write to it.
    fn arm(&self, shard: usize) {
        let armed = &self.core.armed[shard];
        if !armed.load(Ordering::SeqCst) {
            armed.store(true, Ordering::SeqCst);
        }
    }

    /// Weak read: a load of the latest epoch-published post-repair
    /// snapshot. Takes two `RwLock` reads (the shard's registry, then
    /// the key's cell), each held across one `Arc` clone, so it can
    /// wait only for a publication's replace in the cell, or for a new
    /// key's insertion into the shard's registry (once per key, and it
    /// may grow the map); never blocks behind a repair, a queued burst,
    /// or a poisoned pool; never ticks the clock. Keys without a
    /// published snapshot yet (including everything before the first
    /// flush after arming) answer from the ADT's initial state.
    ///
    /// Snapshot publication is *armed* per shard by the first call
    /// touching it; follow with [`IngestPool::flush`] (or any flush
    /// barrier) to backfill that shard's already-materialized keys —
    /// other shards pay nothing until a snapshot read arms them too.
    /// Epochs are per-worker monotone: a reader never observes a key's
    /// state regress (see [`PoolHandle::query_snapshot_versioned`]).
    pub fn query_snapshot(&self, key: Key, q: &A::QueryIn) -> A::QueryOut {
        self.query_snapshot_versioned(key, q).1
    }

    /// [`PoolHandle::query_snapshot`], plus the snapshot's epoch
    /// (0 = answered from the initial state). Epochs for one key only
    /// ever increase — the monotonic-read regression tests assert it.
    /// The registry's read lock is held across the lookup and the
    /// cell's `Arc` clone only; the cell is loaded after it is dropped.
    pub fn query_snapshot_versioned(&self, key: Key, q: &A::QueryIn) -> (u64, A::QueryOut) {
        let shard = shard_index(key, self.core.num_shards);
        self.arm(shard);
        let cell = self.core.snaps[shard]
            .read()
            .expect("snapshot registry never poisoned")
            .get(&key)
            .cloned();
        if let Some((epoch, state)) = cell.and_then(|cell| cell.load()) {
            return (epoch, self.adt.observe(&state, q));
        }
        (0, self.adt.observe_owned(self.adt.initial(), q))
    }

    /// Barrier-cut snapshot at `cut`: push a fence to every worker, and
    /// assemble the per-key states each worker's call folded from
    /// its logs' prefixes stamped `≤ cut` — workers keep ingesting
    /// around the cut (only the cut's own FIFO position orders it).
    /// Every key's state reflects exactly the updates stamped `≤ cut`
    /// that its worker had delivered when the cut job ran; submissions
    /// older than the cut job on the same handle are always covered
    /// (FIFO). Ticks the shared clock, so updates issued after the
    /// snapshot order after everything it could observe. Errors when
    /// `cut` predates a key's compaction bound, or when the pool is
    /// poisoned/closed.
    pub fn snapshot_at(&self, cut: u64) -> Result<StoreSnapshot<A>, SnapshotError> {
        self.core.clock.tick();
        self.snapshot_no_tick(cut)
    }

    /// A snapshot at the current clock, preceded by a full flush: every
    /// submission made before this call is applied, then the cut is
    /// taken strictly above every stamp issued so far — always
    /// answerable (never a [`CutError`]) and inclusive of everything
    /// flushed.
    pub fn consistent_snapshot(&self) -> Result<StoreSnapshot<A>, SnapshotError> {
        self.flush().map_err(SnapshotError::Pool)?;
        let cut = self.core.clock.tick();
        self.snapshot_no_tick(cut)
    }

    fn snapshot_no_tick(&self, cut: u64) -> Result<StoreSnapshot<A>, SnapshotError> {
        let parts = self
            .scatter(Job::Fence, move |s| s.cut(cut))
            .map_err(SnapshotError::Pool)?;
        let mut states = BTreeMap::new();
        for part in parts {
            states.extend(part.map_err(SnapshotError::Cut)?);
        }
        Ok(StoreSnapshot::new(self.adt.clone(), cut, states))
    }

    /// Ingest a whole peer burst: updates are bucketed by shard and
    /// pushed to their owning workers as one job each; each sender's
    /// highest update stamp and the heartbeats, collapsed, are
    /// broadcast to every worker afterwards (exactly the sequential
    /// [`UcStore::apply_batch_owned`] order, so results are
    /// identical). A full inbox parks the caller: the link below has
    /// already delivered the burst, so it is never dropped.
    pub fn submit_batch(&self, msgs: Vec<StoreMsg<A::Update>>) -> Result<(), PoolError> {
        // Same routing helper as `UcStore::apply_batch_owned`, so shard
        // assignment and clock accounting cannot drift between the
        // sequential and pooled ingest paths.
        self.settle_owed()?;
        let split = split_by_shard(msgs, self.core.num_shards);
        self.core.clock.merge(split.max_clock);
        let workers = self.core.inboxes.len();
        let mut jobs: Vec<ShardBuckets<A>> = (0..workers).map(|_| Vec::new()).collect();
        for (shard, bucket) in split.buckets.into_iter().enumerate() {
            if !bucket.is_empty() {
                jobs[self.core.worker_of(shard)].push((shard, bucket));
            }
        }
        for (worker, job) in jobs.into_iter().enumerate() {
            if !job.is_empty() {
                self.push_job(worker, Job::Ingest(job))?;
            }
        }
        // Every worker keeps the floor: the senders' stamps go to all
        // of them, behind the burst, as its heartbeats do.
        for (pid, clock) in split.delivered {
            self.broadcast(move |s| s.delivered(pid, clock))?;
        }
        for (pid, clock) in split.heartbeats {
            self.broadcast(move |s| s.heartbeat(pid, clock))?;
        }
        Ok(())
    }

    /// Deliver one peer update frame: one job, to its key's worker,
    /// which hears the stamp before the insertion. The other workers
    /// are owed it ([`PoolCore::owed`]); it is noted only once the
    /// frame is queued, so no worker hears it ahead of the frames its
    /// sender sent before.
    fn deliver_update(&self, key: Key, msg: UpdateMsg<A::Update>) -> Result<(), PoolError> {
        let core = &*self.core;
        core.clock.merge(msg.ts.clock);
        let (pid, clock) = (msg.ts.pid, msg.ts.clock);
        let shard = shard_index(key, core.num_shards);
        self.push_job(core.worker_of(shard), Job::Deliver { shard, key, msg })?;
        if pid != core.pid {
            let mut owed = core.owed.lock().unwrap_or_else(PoisonError::into_inner);
            match owed.iter_mut().find(|(owed, _)| *owed == pid) {
                Some((_, high)) => *high = (*high).max(clock),
                None => owed.push((pid, clock)),
            }
        }
        Ok(())
    }

    /// Hand every worker the stamps owed to it, behind everything
    /// submitted so far.
    fn settle_owed(&self) -> Result<(), PoolError> {
        let owed = std::mem::take(
            &mut *self
                .core
                .owed
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        for (pid, clock) in owed {
            self.broadcast(move |s| s.delivered(pid, clock))?;
        }
        Ok(())
    }

    /// Barrier: block until every submission made before this call
    /// has been fully applied by its worker (and, if snapshot reads
    /// are armed, its post-repair state published).
    pub fn flush(&self) -> Result<(), PoolError> {
        self.scatter(Job::Fence, |_| ()).map(drop)
    }

    /// The per-worker queue/throughput counters.
    fn stats(&self) -> PoolStats {
        PoolStats {
            workers: self
                .core
                .counters
                .iter()
                .map(SharedCounters::stats)
                .collect(),
        }
    }

    /// This replica's process id.
    pub fn pid(&self) -> u32 {
        self.core.pid
    }

    /// The shared Lamport clock's current value.
    pub fn clock(&self) -> u64 {
        self.core.clock.now()
    }
}

/// A pooled store: a [`UcStore`]'s shards on persistent worker
/// threads, fed through bounded FIFO inboxes. The [`Workers`]
/// instantiation of [`Node`], which holds what every replica shares;
/// cheap cloneable `&self` access for other threads comes from
/// [`IngestPool::handle`], and [`IngestPool::finish`] reassembles the
/// store. Generic over the store's [`BackendFactory`], so pooled
/// stores persist exactly like sequential ones (to reopen a persistent
/// pooled store, use [`UcStore::reopen`] and pool the result). See the
/// [module docs](self).
pub type IngestPool<A, F, P = MemFactory> = Node<Workers<A, F, P>>;

/// The pooled [`Executor`]: each operation is a call into the owning
/// worker's shard set, or every worker's, and an answer back. A
/// worker's FIFO inbox runs this handle's jobs in push order, which is
/// the ordering the [`Executor`] contract asks for.
pub struct Workers<A: UqAdt, F: StrategyFactory<A>, P: BackendFactory<A>> {
    handle: PoolHandle<A, F, P>,
    /// Where the persisted clock floor goes.
    persist: P,
    /// The clock floor: only the owner stamps, ticks and flushes.
    lease: ClockLease,
    /// One per worker; a poisoned worker's returns no shards (they
    /// are abandoned).
    threads: Vec<JoinHandle<Option<ShardSet<A, F, P>>>>,
}

/// Take `store` apart into the owner, with no thread yet, and one
/// [`Worker`] per worker thread (shard `i` pins to worker
/// `i % workers`) — the pool before any thread runs.
#[allow(clippy::type_complexity)]
fn assemble<A, F, P>(
    store: Inline<A, F, P>,
    cfg: PoolConfig,
) -> (Workers<A, F, P>, Vec<Worker<A, F, P>>)
where
    A: UqAdt + Clone,
    F: StrategyFactory<A>,
    P: BackendFactory<A>,
{
    let Inline {
        clock,
        lease,
        shards,
        ..
    } = store;
    let (adt, pid, persist) = (shards.adt.clone(), shards.pid, shards.persist.clone());
    let num_shards = shards.len();
    let hw = std::thread::available_parallelism().map_or(1, |p| p.get());
    let workers = if cfg.workers == 0 { hw } else { cfg.workers }
        .min(num_shards)
        .max(1);
    let (inboxes, receivers): (Vec<_>, Vec<_>) = (0..workers)
        .map(|_| inbox::bounded(cfg.queue_depth))
        .unzip();
    let core = Arc::new(PoolCore {
        pid,
        clock,
        num_shards,
        inboxes,
        counters: (0..workers).map(|_| SharedCounters::default()).collect(),
        snaps: (0..num_shards).map(|_| RwLock::default()).collect(),
        poison: OnceLock::new(),
        armed: (0..num_shards).map(|_| AtomicBool::new(false)).collect(),
        owed: Mutex::new(Vec::new()),
    });
    let workers = shards
        .split(workers)
        .into_iter()
        .zip(receivers)
        .enumerate()
        .map(|(widx, (shards, rx))| Worker::new(shards, Arc::clone(&core), widx, rx))
        .collect();
    let owner = Workers {
        handle: PoolHandle { core, adt },
        persist,
        lease,
        threads: Vec::new(),
    };
    (owner, workers)
}

impl<A, F, P> IngestPool<A, F, P>
where
    A: UqAdt + Clone + Send + 'static,
    A::Update: Send,
    A::QueryIn: Send,
    A::QueryOut: Send,
    A::State: Send,
    F: StrategyFactory<A> + 'static,
    P: BackendFactory<A> + 'static,
{
    /// Move `store`'s shards onto `cfg.workers` long-lived threads
    /// (shard `i` pins to worker `i % workers`); the store's partition
    /// posture and heal state come along.
    pub fn spawn(store: UcStore<A, F, P>, cfg: PoolConfig) -> Self
    where
        A::State: Sync,
        F: Send,
        F::Strategy: Send + 'static,
        P: Send + Sync,
        P::Backend: Send + 'static,
    {
        let (mut exec, workers) = assemble(store.exec, cfg);
        exec.threads = workers
            .into_iter()
            .map(|worker| std::thread::spawn(move || worker_loop(worker)))
            .collect();
        Node {
            heal: store.heal,
            exec,
        }
    }

    /// A cloneable `&self` handle for readers and peer-burst
    /// submitters on other threads. It cannot stamp: the pool is the
    /// replica's one stamper, so local updates, ticks and heartbeats
    /// go through `&mut self`. Handles stay valid (but error on
    /// submission) after [`IngestPool::finish`]/drop; their snapshot
    /// reads keep answering from the last published state.
    pub fn handle(&self) -> PoolHandle<A, F, P> {
        self.exec.handle.clone()
    }

    /// Perform a local update on `key`: tick the clock, persist a new
    /// clock floor first when the stamp passes the lease (once per
    /// 4096 stamps), push the update onto the owning worker's inbox
    /// and return the broadcast message, without waiting for the
    /// worker (a full inbox parks the caller).
    pub fn update(&mut self, key: Key, u: A::Update) -> Result<StoreMsg<A::Update>, PoolError> {
        self.exec.update(key, u)
    }

    /// Strong read through the owning worker (see
    /// [`PoolHandle::query`]).
    pub fn query(&mut self, key: Key, q: &A::QueryIn) -> Result<A::QueryOut, PoolError> {
        self.exec.handle.query(key, q)
    }

    /// Weak read of the latest published snapshot, two short `RwLock`
    /// reads never behind a repair (see [`PoolHandle::query_snapshot`]).
    pub fn query_snapshot(&self, key: Key, q: &A::QueryIn) -> A::QueryOut {
        self.exec.handle.query_snapshot(key, q)
    }

    /// Barrier-cut multi-key snapshot at `cut` (see
    /// [`PoolHandle::snapshot_at`]).
    pub fn snapshot_at(&mut self, cut: u64) -> Result<StoreSnapshot<A>, SnapshotError> {
        self.exec.handle.snapshot_at(cut)
    }

    /// Flush, then snapshot at the current clock (see
    /// [`PoolHandle::consistent_snapshot`]).
    pub fn consistent_snapshot(&mut self) -> Result<StoreSnapshot<A>, SnapshotError> {
        self.exec.handle.consistent_snapshot()
    }

    /// Ingest a whole peer burst (see [`PoolHandle::submit_batch`]).
    pub fn submit_batch(&mut self, msgs: Vec<StoreMsg<A::Update>>) -> Result<(), PoolError> {
        self.exec.handle.submit_batch(msgs)
    }

    /// Barrier: block until every prior submission has been applied.
    pub fn flush(&mut self) -> Result<(), PoolError> {
        self.exec.handle.flush()
    }

    /// Run per-key maintenance (compaction) on every worker's engines.
    pub fn tick_maintenance(&mut self) -> Result<(), PoolError> {
        self.exec.tick_maintenance()
    }

    /// Flush every worker's storage backends and collapse the
    /// persisted clock floor to the clock, as a store's flush does.
    /// Asynchronous — the job lands in FIFO order behind all prior
    /// submissions; follow with [`IngestPool::flush`] to wait for
    /// durability. (Both worker-exit paths — drain-on-drop and
    /// poisoning — also flush, so dropping the handle never leaves an
    /// unsynced segment.) The collapse needs no quiescence: the pool
    /// is the replica's one stamper, so the clock it reads here bounds
    /// every stamp it ever issued.
    pub fn flush_backends(&mut self) -> Result<(), PoolError> {
        self.exec.flush_backends()
    }

    /// Number of worker threads.
    pub fn num_workers(&self) -> usize {
        self.exec.threads.len()
    }

    /// Snapshot the per-worker queue/throughput counters.
    pub fn stats(&self) -> PoolStats {
        self.exec.handle.stats()
    }

    /// Drain every inbox, stop the workers, and reassemble the
    /// [`UcStore`] (its clock reflecting everything the pool stamped
    /// or ingested), partition posture and heal state included. Fails
    /// if any worker panicked.
    pub fn finish(self) -> Result<UcStore<A, F, P>, PoolError> {
        let Node { heal, mut exec } = self;
        let parts = exec
            .stop()
            .into_iter()
            .enumerate()
            // A poisoned worker hands back no shards; surface the
            // recorded error.
            .map(|(worker, shards)| shards.ok_or_else(|| exec.handle.err_for(worker)))
            .collect::<Result<_, _>>()?;
        Ok(Node {
            heal,
            exec: Inline {
                clock: exec.handle.core.clock.clone(),
                // The floor `stop` collapsed to.
                lease: exec.lease.clone(),
                trace: None,
                shards: ShardSet::join(parts),
            },
        })
    }
}

impl<A: UqAdt, F: StrategyFactory<A>, P: BackendFactory<A>> Workers<A, F, P> {
    /// Close every inbox (each worker finishes its backlog and flushes
    /// its backends before exiting), join every thread, then collapse
    /// the clock floor to the exact clock, which the joins make cover
    /// every issued stamp. Each worker's shards, in worker order; `None`
    /// from a poisoned one. A second call joins nothing.
    fn stop(&mut self) -> Vec<Option<ShardSet<A, F, P>>> {
        let core = &self.handle.core;
        for inbox in &core.inboxes {
            inbox.close();
        }
        let parts = self
            .threads
            .drain(..)
            .map(|thread| thread.join().ok().flatten())
            .collect();
        let persist = &self.persist;
        self.lease
            .collapse(core.clock.now(), |floor| persist.persist_store_clock(floor));
        parts
    }
}

impl<A, F, P> Workers<A, F, P>
where
    A: UqAdt + Clone + Send + 'static,
    A::Update: Send,
    A::QueryIn: Send,
    A::QueryOut: Send,
    A::State: Send,
    F: StrategyFactory<A> + 'static,
    P: BackendFactory<A> + 'static,
{
    /// See [`IngestPool::tick_maintenance`].
    fn tick_maintenance(&mut self) -> Result<(), PoolError> {
        self.handle.settle_owed()?;
        let clock = self.handle.core.clock.now();
        self.handle.broadcast(move |s| s.maintain(clock))
    }

    /// See [`IngestPool::flush_backends`].
    fn flush_backends(&mut self) -> Result<(), PoolError> {
        self.handle.broadcast(ShardSet::flush_backends)?;
        let persist = &self.persist;
        self.lease.collapse(self.handle.core.clock.now(), |floor| {
            persist.persist_store_clock(floor)
        });
        Ok(())
    }
}

/// Drain-on-drop: `Workers::stop`, so no worker thread outlives the
/// owning handle. A worker's panic is swallowed — `Drop` must not
/// double-panic.
impl<A: UqAdt, F: StrategyFactory<A>, P: BackendFactory<A>> Drop for Workers<A, F, P> {
    fn drop(&mut self) {
        self.stop();
    }
}

impl<A, F, P> Executor for Workers<A, F, P>
where
    A: UqAdt + Clone + Send + 'static,
    A::Update: Send,
    A::QueryIn: Send,
    A::QueryOut: Send,
    A::State: Send,
    F: StrategyFactory<A> + 'static,
    P: BackendFactory<A> + 'static,
{
    type Adt = A;
    type Error = PoolError;
    const METRICS: &'static str = "uc_pool";

    fn pid(&self) -> Pid {
        self.handle.core.pid
    }

    fn clock_now(&self) -> u64 {
        self.handle.core.clock.now()
    }

    fn num_shards(&self) -> usize {
        self.handle.core.num_shards
    }

    /// See [`IngestPool::update`].
    fn update(&mut self, key: Key, u: A::Update) -> Result<StoreMsg<A::Update>, PoolError> {
        let core = &*self.handle.core;
        let ts = Timestamp::new(core.clock.tick(), core.pid);
        let persist = &self.persist;
        self.lease
            .reserve(ts.clock, |floor| persist.persist_store_clock(floor));
        let shard = shard_index(key, core.num_shards);
        let msg = UpdateMsg { ts, update: u };
        let job = Job::Update {
            shard,
            key,
            msg: msg.clone(),
        };
        self.handle.push_job(core.worker_of(shard), job)?;
        Ok(StoreMsg::Update { key, msg })
    }

    fn query(&mut self, key: Key, q: &A::QueryIn) -> Result<A::QueryOut, PoolError> {
        self.handle.query(key, q)
    }

    fn consistent_snapshot(&mut self) -> Result<StoreSnapshot<A>, PoolError> {
        self.handle.consistent_snapshot().map_err(|e| match e {
            SnapshotError::Pool(e) => e,
            SnapshotError::Cut(e) => unreachable!("a cut at the current clock: {e}"),
        })
    }

    fn deliver(&mut self, msg: StoreMsg<A::Update>) -> Result<(), PoolError> {
        match msg {
            StoreMsg::Update { key, msg } => self.handle.deliver_update(key, msg),
            msg => self.handle.submit_batch(vec![msg]),
        }
    }

    fn ingest(&mut self, burst: Vec<StoreMsg<A::Update>>) -> Result<(), PoolError> {
        self.handle.submit_batch(burst)
    }

    /// Enqueue a compaction sweep plus a backend flush on every
    /// worker, behind everything submitted so far.
    fn maintain_and_flush(&mut self) -> Result<(), PoolError> {
        self.tick_maintenance()?;
        self.flush_backends()
    }

    fn attach_monitor(&mut self, cfg: MonitorConfig) -> Result<(), PoolError> {
        self.handle.broadcast(move |s| s.attach_monitor(cfg))
    }

    /// One summary call per worker, merged: each answers behind every
    /// job queued before it, so the read is quiesced.
    fn summary(&self) -> Result<Summary, PoolError> {
        self.handle.settle_owed()?;
        let parts = self.handle.scatter(Job::Call, |s| s.summary())?;
        Ok(parts.into_iter().reduce(Summary::merge).unwrap_or_default())
    }

    /// Each worker folds its disjoint shard set; the slot arrays
    /// merge exactly (xor commutes and counts add), so the result is
    /// independent of worker layout.
    fn digest_suffix(
        &mut self,
        since: u64,
        exclude: Pid,
        groups: u32,
    ) -> Result<Vec<HealDigest>, PoolError> {
        let parts = self
            .handle
            .scatter(Job::Call, move |s| s.digest_suffix(since, exclude, groups))?;
        let mut slots = vec![HealDigest::default(); groups as usize * RANGES as usize];
        for part in parts {
            for (slot, d) in slots.iter_mut().zip(part) {
                slot.count += d.count;
                slot.xor ^= d.xor;
            }
        }
        Ok(slots)
    }

    fn heal_candidates(&mut self, since: u64) -> Result<Vec<(usize, Key)>, PoolError> {
        let parts = self
            .handle
            .scatter(Job::Call, move |s| s.heal_candidates(since))?;
        let mut out: Vec<(usize, Key)> = parts.into_iter().flatten().collect();
        out.sort_unstable();
        Ok(out)
    }

    fn collect_window(
        &mut self,
        shard: usize,
        key: Key,
        since: u64,
        after: Option<Timestamp>,
        limit: usize,
    ) -> Result<(Vec<UpdateMsg<A::Update>>, bool), PoolError> {
        let worker = self.handle.core.worker_of(shard);
        self.handle.call(worker, move |s| {
            s.collect_window(shard, key, since, after, limit)
        })
    }

    fn set_retention(&mut self, cap: Option<u64>) -> Result<(), PoolError> {
        self.handle.broadcast(move |s| s.set_retention(cap))
    }

    fn export_metrics(&self, reg: &Registry) {
        let stats = self.handle.stats();
        let sum = |f: fn(&WorkerStats) -> u64| stats.workers.iter().map(f).sum::<u64>();
        reg.counter("uc_pool_batches_total")
            .set(stats.total_batches());
        reg.counter("uc_pool_messages_total")
            .set(stats.total_messages());
        reg.counter("uc_pool_snapshots_published_total")
            .set(stats.total_snapshots_published());
        reg.counter("uc_pool_snapshot_copies_total")
            .set(stats.total_snapshot_copies());
        reg.gauge("uc_pool_publish_backlog")
            .set(sum(|w| w.publish_backlog as u64) as i64);
        reg.counter("uc_pool_publish_yields_total")
            .set(sum(|w| w.publish_yields));
        reg.gauge("uc_pool_queue_high_water")
            .set(stats.max_queue_high_water() as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heal::{CHUNK, WINDOW};
    use crate::store::CheckpointFactory;
    use std::collections::BTreeSet;
    use uc_spec::{SetAdt, SetQuery, SetUpdate};

    type Store = UcStore<SetAdt<u32>, CheckpointFactory>;

    fn store(pid: u32, shards: usize) -> Store {
        UcStore::new(SetAdt::new(), pid, shards, CheckpointFactory { every: 4 })
    }

    fn cfg(workers: usize) -> PoolConfig {
        PoolConfig {
            workers,
            queue_depth: 8,
        }
    }

    #[test]
    fn pooled_ingest_matches_sequential() {
        let mut producer = store(1, 1);
        let msgs: Vec<_> = (0..500u64)
            .map(|i| producer.update(i % 13, SetUpdate::Insert(i as u32)))
            .collect();
        let mut seq = store(0, 4);
        for chunk in msgs.chunks(37) {
            seq.apply_batch_owned(chunk.to_vec());
        }
        let mut pool = store(0, 4).into_pool(cfg(3));
        for chunk in msgs.chunks(37) {
            pool.submit_batch(chunk.to_vec()).unwrap();
        }
        let mut pooled = pool.finish().unwrap();
        assert_eq!(seq.keys(), pooled.keys());
        for k in seq.keys() {
            assert_eq!(seq.materialize_key(k), pooled.materialize_key(k), "key {k}");
        }
        assert_eq!(seq.clock(), pooled.clock());
        assert_eq!(seq.total_repair_steps(), pooled.total_repair_steps());
        assert_eq!(seq.total_repair_events(), pooled.total_repair_events());
    }

    #[test]
    fn pool_updates_and_queries_round_trip() {
        let mut pool = store(0, 4).into_pool(cfg(2));
        let m = pool.update(7, SetUpdate::Insert(1)).unwrap();
        assert!(matches!(m, StoreMsg::Update { key: 7, .. }));
        pool.update(7, SetUpdate::Insert(2)).unwrap();
        // FIFO per shard: the query observes both updates.
        assert_eq!(
            pool.query(7, &SetQuery::Read).unwrap(),
            BTreeSet::from([1, 2])
        );
        // Untouched key answers from the initial state.
        assert_eq!(pool.query(99, &SetQuery::Read).unwrap(), BTreeSet::new());
        let s = pool.finish().unwrap();
        assert_eq!(s.key_count(), 1, "queries alone do not materialize keys");
    }

    #[test]
    fn a_pooled_idle_key_is_handed_the_floor_by_its_next_insertion() {
        use crate::store::GcFactory;
        // Replica 0 of 3; key 7 takes one entry from peer 1, which
        // compacts away: the key is idle at stability bound 1.
        let gc = GcFactory { n: 3 };
        let mut peer: UcStore<SetAdt<u32>, GcFactory> = UcStore::new(SetAdt::new(), 1, 2, gc);
        let store: UcStore<SetAdt<u32>, GcFactory> = UcStore::new(SetAdt::new(), 0, 2, gc);
        let mut pool = store.into_pool(cfg(2));
        let hb = |pid, clock| StoreMsg::Heartbeat { pid, clock };
        pool.submit_batch(vec![peer.update(7, SetUpdate::Insert(1))])
            .unwrap();
        assert_eq!(pool.live_keys(), 1);
        pool.tick_maintenance().unwrap();
        pool.submit_batch(vec![hb(1, 1), hb(2, 1)]).unwrap();
        assert_eq!(pool.live_keys(), 0);
        let reg = Registry::new();
        pool.export_metrics(&reg);
        let scrape = reg.snapshot();
        assert_eq!(scrape.gauge("uc_store_live_keys"), Some(0));
        assert_eq!(scrape.gauge("uc_store_clock"), Some(pool.clock() as i64));
        assert_eq!(scrape.gauge("uc_store_stability_floor"), Some(1));
        assert!(pool.clock() >= 1, "the burst's stamps reached the clock");

        // Two heartbeats and a tick pass the idle key by ...
        pool.submit_batch(vec![hb(1, 100), hb(2, 100)]).unwrap();
        pool.tick_maintenance().unwrap();
        let mut idle = pool.finish().unwrap();
        let engine = idle.engine(7).unwrap();
        assert_eq!(engine.clock(), 1, "an idle key is not visited");
        assert_eq!(engine.strategy().stability_bound(), 1);
        assert_eq!(idle.materialize_key(7), BTreeSet::from([1]));

        // ... and the floor they raised is handed to it with its next
        // local update, whose own compaction makes it the bound.
        let mut pool = idle.into_pool(cfg(2));
        let StoreMsg::Update { msg, .. } = pool.update(7, SetUpdate::Insert(2)).unwrap() else {
            unreachable!("an update")
        };
        assert_eq!(pool.live_keys(), 1);
        let woken = pool.finish().unwrap();
        let engine = woken.engine(7).unwrap();
        assert_eq!(engine.strategy().stability_bound(), 100);
        assert_eq!(
            engine.clock(),
            msg.ts.clock,
            "its clock moved with its stamp"
        );
        assert_eq!(engine.log_len(), 1, "stamped above 100");
    }

    #[test]
    fn a_pool_exports_the_store_gauges_its_finished_store_exports() {
        // Local updates first, then a peer burst stamped below them:
        // every key repairs, and no flush precedes either scrape.
        let mut producer = store(1, 1);
        let burst: Vec<_> = (0..40u64)
            .map(|i| producer.update(i % 10, SetUpdate::Insert(i as u32)))
            .collect();
        let mut pool = store(0, 4).into_pool(cfg(2));
        for i in 0..40u64 {
            pool.update(i % 10, SetUpdate::Delete(i as u32)).unwrap();
        }
        pool.submit_batch(burst).unwrap();
        let scrape = |export: &dyn Fn(&Registry)| {
            let reg = Registry::new();
            export(&reg);
            let s = reg.snapshot();
            let gauges = [
                "uc_store_keys",
                "uc_store_log_len",
                "uc_store_live_keys",
                "uc_store_log_capacity",
                "uc_store_kept_folds",
                "uc_store_slot_bytes",
                "uc_store_index_bytes",
                "uc_store_stability_floor",
            ];
            let counters = [
                "uc_store_repair_events_total",
                "uc_store_repair_steps_total",
            ];
            let gauges = gauges.map(|g| s.gauge(g).expect(g) as u64);
            (gauges, counters.map(|c| s.counter(c).expect(c)))
        };
        let pooled = scrape(&|reg| pool.export_metrics(reg));
        let store = pool.finish().unwrap();
        assert_eq!(pooled, scrape(&|reg| store.export_metrics(reg)));
        assert_eq!(pooled.0[..3], [10, 80, 10]);
        assert!(pooled.0[3] >= 80, "capacity {} under length", pooled.0[3]);
        assert_eq!(pooled.1[0], 10, "one repair per key");
    }

    #[test]
    fn worker_count_is_capped_by_shards() {
        let pool = store(0, 2).into_pool(cfg(16));
        assert_eq!(pool.num_workers(), 2);
        assert_eq!(pool.num_shards(), 2);
        drop(pool);
    }

    #[test]
    fn stats_count_batches_and_messages() {
        let mut producer = store(1, 1);
        let msgs: Vec<_> = (0..64u64)
            .map(|i| producer.update(i % 8, SetUpdate::Insert(i as u32)))
            .collect();
        let mut pool = store(0, 4).into_pool(cfg(2));
        pool.submit_batch(msgs).unwrap();
        pool.flush().unwrap();
        let stats = pool.stats();
        assert_eq!(stats.total_messages(), 64);
        assert!(stats.total_batches() >= 1);
        assert!(stats.max_queue_high_water() >= 1);
        pool.finish().unwrap();
    }

    #[test]
    fn heartbeats_reach_every_worker() {
        use crate::store::GcFactory;
        let mut a: UcStore<SetAdt<u32>, GcFactory> =
            UcStore::new(SetAdt::new(), 1, 4, GcFactory { n: 2 });
        let msgs: Vec<_> = (0..30u64)
            .map(|i| a.update(i % 6, SetUpdate::Insert(i as u32)))
            .collect();
        let mut pool =
            UcStore::<SetAdt<u32>, GcFactory>::new(SetAdt::new(), 0, 4, GcFactory { n: 2 })
                .into_pool(cfg(2));
        pool.submit_batch(msgs).unwrap();
        pool.flush().unwrap();
        // Both cluster clocks announce, then maintenance compacts.
        let hb = pool.heartbeat();
        pool.submit_batch(vec![hb, a.heartbeat()]).unwrap();
        pool.tick_maintenance().unwrap();
        let mut s = pool.finish().unwrap();
        assert!(s.total_log_len() < 30, "retained {}", s.total_log_len());
        for k in 0..6u64 {
            assert_eq!(
                s.materialize_key(k),
                a.materialize_key(k),
                "gc semantics survived pooling, key {k}"
            );
        }
    }

    /// A delivered peer burst is never dropped: the link below the
    /// pool has already delivered it, so nothing would resend it.
    #[test]
    fn a_full_inbox_parks_peer_bursts_and_loses_none() {
        let mut producer = store(1, 1);
        let msgs: Vec<_> = (0..512u64)
            .map(|i| producer.update(i % 4, SetUpdate::Insert(i as u32)))
            .collect();
        let mut seq = store(0, 1);
        seq.apply_batch_owned(msgs.clone());
        let mut pool = store(0, 1).into_pool(PoolConfig {
            workers: 1,
            queue_depth: 1,
        });
        // A burst per message against a depth-1 inbox: the producer
        // parks on every full inbox instead of dropping the burst.
        for m in msgs {
            pool.submit_batch(vec![m]).unwrap();
        }
        pool.flush().unwrap();
        assert_eq!(pool.stats().total_messages(), 512, "every burst ingested");
        let mut pooled = pool.finish().unwrap();
        assert_eq!(seq.keys(), pooled.keys());
        for k in seq.keys() {
            assert_eq!(seq.materialize_key(k), pooled.materialize_key(k), "key {k}");
        }
    }

    #[test]
    fn snapshot_reads_are_published_after_flush() {
        let mut pool = store(0, 4).into_pool(cfg(2));
        let reader = pool.handle();
        // Arm snapshots, then write and flush: the barrier backfills.
        assert_eq!(reader.query_snapshot(7, &SetQuery::Read), BTreeSet::new());
        pool.update(7, SetUpdate::Insert(1)).unwrap();
        pool.update(7, SetUpdate::Insert(2)).unwrap();
        pool.flush().unwrap();
        let (epoch, out) = reader.query_snapshot_versioned(7, &SetQuery::Read);
        assert_eq!(out, BTreeSet::from([1, 2]));
        assert!(epoch > 0, "published snapshot must carry an epoch");
        // Snapshot reads never tick the clock.
        let before = pool.clock();
        let _ = reader.query_snapshot(7, &SetQuery::Read);
        assert_eq!(pool.clock(), before);
        // A burst that writes six keys five times each is one job per
        // worker, so one drain: each key is published once, and what
        // is published is what the key holds.
        let mut producer = store(1, 1);
        let burst: Vec<_> = (0..30u64)
            .map(|i| producer.update(100 + i % 6, SetUpdate::Insert(i as u32)))
            .collect();
        for k in 100..106 {
            let _ = reader.query_snapshot(k, &SetQuery::Read);
        }
        pool.flush().unwrap(); // every touched shard armed and backfilled
        let published = pool.stats().total_snapshots_published();
        pool.submit_batch(burst).unwrap();
        pool.flush().unwrap();
        assert_eq!(pool.stats().total_snapshots_published() - published, 6);
        // A completed flush leaves nothing owed, and the scrape says so.
        let reg = Registry::new();
        pool.export_metrics(&reg);
        let scrape = reg.snapshot();
        assert_eq!(scrape.gauge("uc_pool_publish_backlog"), Some(0));
        assert!(scrape.counter("uc_pool_publish_yields_total").is_some());
        // A checkpointing strategy keeps no fold it could hand out:
        // every publication copies a state, and the scrape says so.
        let published = scrape.counter("uc_pool_snapshots_published_total");
        assert_eq!(published, Some(pool.stats().total_snapshots_published()));
        assert_eq!(scrape.counter("uc_pool_snapshot_copies_total"), published);
        // A pool that never healed exports the heal metrics at zero,
        // the monotone totals as counters.
        assert_eq!(scrape.counter("uc_pool_heal_replay_bytes_total"), Some(0));
        assert_eq!(scrape.counter("uc_pool_heal_chunks_total"), Some(0));
        assert_eq!(scrape.gauge("uc_pool_heal_sessions"), Some(0));
        // Handles survive finish; snapshots keep answering.
        let mut finished = pool.finish().unwrap();
        for k in (100..106).chain([7]) {
            assert_eq!(
                reader.query_snapshot(k, &SetQuery::Read),
                finished.materialize_key(k),
                "key {k}"
            );
        }
        assert_eq!(finished.materialize_key(7), BTreeSet::from([1, 2]));
        let err = reader.flush().expect_err("a flush after finish must fail");
        assert!(err.to_string().contains("closed"));
    }

    type HandWorker = Worker<SetAdt<u32>, CheckpointFactory, MemFactory>;
    type HandOwner = Workers<SetAdt<u32>, CheckpointFactory, MemFactory>;

    /// A one-worker, one-shard pool taken apart before any thread
    /// runs — the tests below take the worker's turns by hand, so what
    /// sits in the inbox at each step is theirs to decide — with keys
    /// 0..6 and 9 written, armed and backfilled.
    fn hand_worker() -> (HandOwner, HandWorker) {
        let (mut owner, mut workers) = assemble(store(0, 1).exec, cfg(1));
        let mut worker = workers.remove(0);
        assert_eq!(worker.turn(), Turn::Idle);
        for key in (0..6).chain([9]) {
            assert!(owner.handle.query_snapshot(key, &SetQuery::Read).is_empty());
            owner.update(key, SetUpdate::Insert(0)).unwrap();
        }
        assert_eq!(worker.turn(), Turn::Worked);
        let w = stats_of(&worker);
        assert_eq!((w.snapshots_published, w.publish_backlog), (7, 0));
        (owner, worker)
    }

    fn stats_of(worker: &HandWorker) -> WorkerStats {
        worker.core.counters[worker.widx].stats()
    }

    /// Claim a burst that writes keys 0..6 five times each, let one
    /// more job arrive (a local update of key 9), and run the claimed
    /// burst: its publication pass meets a non-empty inbox.
    fn suspend_a_pass(owner: &mut HandOwner, worker: &mut HandWorker) {
        let mut producer = store(1, 1);
        let burst: Vec<_> = (0..30u64)
            .map(|i| producer.update(i % 6, SetUpdate::Insert(1 + i as u32)))
            .collect();
        owner.handle.submit_batch(burst).unwrap();
        worker.claim();
        owner.update(9, SetUpdate::Insert(100)).unwrap();
        worker.run_claimed();
    }

    /// Claim what is queued and run it without the publication pass
    /// that would follow: the keys it writes stay listed.
    fn run_unpublished(worker: &mut HandWorker) {
        worker.claim();
        for job in std::mem::take(&mut worker.batch) {
            worker.run(job);
            worker.core.counters[worker.widx].on_done();
        }
    }

    fn read<F: StrategyFactory<SetAdt<u32>> + 'static>(
        handle: &PoolHandle<SetAdt<u32>, F>,
        key: Key,
    ) -> BTreeSet<u32> {
        handle.query_snapshot(key, &SetQuery::Read)
    }

    /// The burst's keys whose snapshot shows the burst, and those
    /// whose snapshot does not yet.
    fn burst_keys_by_publication(
        handle: &PoolHandle<SetAdt<u32>, CheckpointFactory>,
    ) -> (Vec<Key>, Vec<Key>) {
        let (shown, owed): (Vec<Key>, Vec<Key>) = (0..6).partition(|&k| read(handle, k).len() == 6);
        assert!(owed.iter().all(|&k| read(handle, k) == BTreeSet::from([0])));
        (shown, owed)
    }

    #[test]
    fn a_waiting_job_suspends_the_pass_after_one_key_and_a_barrier_forces_the_rest() {
        let (mut owner, mut worker) = hand_worker();
        suspend_a_pass(&mut owner, &mut worker);
        let w = stats_of(&worker);
        assert_eq!(w.snapshots_published, 7 + 1, "one key, whoever is waiting");
        assert_eq!((w.publish_yields, w.publish_backlog), (1, 5));
        // Between flushes a snapshot read is a read of the latest
        // *published* state: one key shows the burst, five not yet.
        let (shown, owed) = burst_keys_by_publication(&owner.handle);
        assert_eq!((shown.len(), owed.len()), (1, 5));

        // A fence behind the waiting update, and one more job behind
        // the fence: its call still waits for the whole backlog.
        let (reply, ack) = channel();
        let fence = Job::Fence(Box::new(move |_| {
            let _ = reply.send(());
        }));
        owner.handle.push_job(0, fence).unwrap();
        worker.claim();
        owner.update(9, SetUpdate::Insert(101)).unwrap();
        worker.run_claimed();
        assert!(ack.try_recv().is_ok());
        // The update behind the fence is still queued, not run.
        worker.claim();
        assert_eq!(worker.batch.len(), 1);
        let w = stats_of(&worker);
        // The five the pass left, and key 9, each once.
        assert_eq!(w.snapshots_published, 7 + 1 + 5 + 1);
        assert_eq!((w.publish_yields, w.publish_backlog), (1, 0));
        for key in 0..6 {
            assert_eq!(read(&owner.handle, key).len(), 6, "key {key}");
        }
        assert_eq!(read(&owner.handle, 9), BTreeSet::from([0, 100]));
    }

    #[test]
    fn keys_touched_under_a_suspended_pass_are_merged_and_published_once() {
        let (mut owner, mut worker) = hand_worker();
        suspend_a_pass(&mut owner, &mut worker);
        assert_eq!(stats_of(&worker).publish_backlog, 5);
        // One key has been published by the suspended pass and is owed
        // another; one is still listed; key 9, written twice, is new.
        let (shown, owed) = burst_keys_by_publication(&owner.handle);
        let (published, listed) = (shown[0], owed[0]);
        owner.update(published, SetUpdate::Insert(100)).unwrap();
        owner.update(listed, SetUpdate::Insert(100)).unwrap();
        owner.update(9, SetUpdate::Insert(101)).unwrap();
        assert_eq!(worker.turn(), Turn::Worked);
        let w = stats_of(&worker);
        // Seven keys, each published once.
        assert_eq!(w.snapshots_published, 7 + 1 + 7);
        assert_eq!((w.publish_yields, w.publish_backlog), (1, 0));
        assert_eq!(read(&owner.handle, published).len(), 7);
        assert_eq!(read(&owner.handle, listed).len(), 7);
        assert_eq!(read(&owner.handle, 9), BTreeSet::from([0, 100, 101]));
        assert_eq!(worker.turn(), Turn::Idle);
    }

    #[test]
    fn a_new_key_is_readable_once_its_own_publication_ran() {
        let (mut owner, mut worker) = hand_worker();
        for key in [7, 8] {
            owner.update(key, SetUpdate::Insert(1)).unwrap();
        }
        worker.claim();
        owner.update(9, SetUpdate::Insert(100)).unwrap();
        worker.run_claimed();
        let w = stats_of(&worker);
        assert_eq!((w.publish_yields, w.publish_backlog), (1, 1));
        // The pass published key 7 and suspended before key 8: key 7's
        // cell is in the registry already, not at the next whole pass.
        let shown: Vec<Key> = [7, 8]
            .into_iter()
            .filter(|&k| read(&owner.handle, k) == BTreeSet::from([1]))
            .collect();
        assert_eq!(shown, [7]);
    }

    #[test]
    fn a_pass_cut_short_publishes_the_key_listed_longest() {
        let (mut owner, mut worker) = hand_worker();
        suspend_a_pass(&mut owner, &mut worker);
        assert_eq!(burst_keys_by_publication(&owner.handle).0, [0]);
        // A producer that never lets the inbox run empty cuts every
        // pass to one key, and writes a new key each time: the burst's
        // keys, listed first, are still published one a pass, in the
        // order they were listed, not passed over by the newer keys.
        for round in 1..6 {
            worker.claim();
            owner.update(20 + round, SetUpdate::Insert(100)).unwrap();
            worker.run_claimed();
            let shown: Vec<Key> = (0..=round).collect();
            assert_eq!(burst_keys_by_publication(&owner.handle).0, shown);
        }
        let w = stats_of(&worker);
        assert_eq!((w.publish_yields, w.publish_backlog), (6, 5));
    }

    #[test]
    fn a_worker_with_a_backlog_neither_parks_nor_exits() {
        let (mut owner, mut worker) = hand_worker();
        // An empty inbox and keys owed a publication, however the last
        // pass was left: the turn publishes, the next one may park.
        owner.update(2, SetUpdate::Insert(100)).unwrap();
        owner.update(4, SetUpdate::Insert(100)).unwrap();
        run_unpublished(&mut worker);
        assert_eq!(worker.shards.unpublished(), 2);
        assert_eq!(worker.turn(), Turn::Worked);
        let w = stats_of(&worker);
        assert_eq!((w.snapshots_published, w.publish_backlog), (7 + 2, 0));
        assert_eq!(worker.turn(), Turn::Idle);
        // The same at the exit: a closed and drained inbox ends the
        // worker only once nothing is owed.
        owner.update(5, SetUpdate::Insert(100)).unwrap();
        run_unpublished(&mut worker);
        worker.core.inboxes[worker.widx].close();
        assert_eq!(worker.turn(), Turn::Worked);
        assert_eq!(stats_of(&worker).snapshots_published, 7 + 3);
        assert_eq!(worker.turn(), Turn::Done);
        assert_eq!(worker.shards.unpublished(), 0);
        assert_eq!(read(&owner.handle, 5), BTreeSet::from([0, 100]));
        // What the exit hands back lists nothing from here on.
        worker.shards.stop_publishing();
    }

    #[test]
    fn a_steady_run_of_bursts_over_published_keys_copies_no_state() {
        use crate::store::GcFactory;
        let gc_store = |pid| UcStore::new(SetAdt::<u32>::new(), pid, 1, GcFactory { n: 2 });
        let (mut owner, mut workers) = assemble(gc_store(0).exec, cfg(1));
        let handle = owner.handle.clone();
        let mut worker = workers.remove(0);
        let mut producer = gc_store(1);
        let mut sequential = gc_store(0);
        for key in 0..6 {
            assert!(read(&handle, key).is_empty()); // arms the shard
        }
        // A burst writing six keys three times each, closed by the
        // peer's heartbeat, a local update and the maintenance tick:
        // compaction runs ahead of publication in every round. The
        // local update outlives the tick (the heartbeat lags it) and
        // is folded by the next round's. With `twice`, the same key
        // takes a second local update and is published again before
        // that heartbeat: the swap passes a base the buffers hold.
        let mut round = |n: u32, twice: bool| {
            let mut burst: Vec<_> = (0..18u64)
                .map(|i| producer.update(i % 6, SetUpdate::Insert(18 * n + i as u32)))
                .collect();
            burst.push(producer.heartbeat());
            sequential.apply_batch_owned(burst.clone());
            handle.submit_batch(burst).unwrap();
            let mut published = Vec::new();
            for v in [1000, 2000].into_iter().take(1 + usize::from(twice)) {
                let local = owner
                    .update(u64::from(n) % 6, SetUpdate::Insert(v + n))
                    .unwrap();
                // The peer hears it, so that its next burst is stamped above.
                producer.apply_batch_owned(vec![local.clone()]);
                sequential.apply_batch_owned(vec![local]);
                let clock = handle.clock();
                handle.broadcast(move |s| s.maintain(clock)).unwrap();
                while worker.turn() == Turn::Worked {
                    let w = worker.core.counters[worker.widx].stats();
                    published.push((w.snapshots_published, w.snapshot_copies));
                }
            }
            for key in 0..6 {
                assert_eq!(read(&handle, key), sequential.materialize_key(key));
            }
            published
        };
        // Bootstrap: the cold first share of each key, then the first
        // swap (there is no previous generation to advance yet).
        assert_eq!(round(0, false).last(), Some(&(6, 6)));
        assert_eq!(round(1, false).last(), Some(&(12, 12)));
        for n in 2..10u32 {
            let turns = round(n, false);
            assert!(
                turns.iter().all(|(_, copies)| *copies == 12),
                "round {n}: {turns:?}"
            );
            assert_eq!(turns.last().map(|t| t.0), Some(6 * (u64::from(n) + 1)));
        }
        // A reader sitting on a snapshot is what costs a copy again.
        let cell = Arc::clone(&handle.core.snaps[0].read().unwrap()[&3]);
        let (_, held) = cell.load().expect("published");
        let loaded = BTreeSet::clone(&held);
        round(10, false);
        assert_eq!(round(11, false).last(), Some(&(72, 13)));
        assert_eq!(*held, loaded, "and keeps what it loaded");
        drop(held);
        assert_eq!(round(12, false).last(), Some(&(78, 13)));
        // So does a key published twice over an update the heartbeat
        // has not reached: one copy, the base it materializes — and
        // the rounds after it are flat again.
        let mut copies = 13;
        for n in (13..21u32).step_by(2) {
            let turns = round(n, true);
            assert_eq!(turns.first().map(|t| t.1), Some(copies), "round {n}");
            copies += 1;
            assert_eq!(turns.last().map(|t| t.1), Some(copies), "round {n}");
            let turns = round(n + 1, false);
            assert!(
                turns.iter().all(|t| t.1 == copies),
                "round {}: {turns:?}",
                n + 1
            );
        }
    }

    #[test]
    fn the_owner_stamps_in_program_order_beside_ticking_readers() {
        // Strong reads on other threads tick the clock between the
        // owner's stamps: the stamps still rise in the order the
        // owner issued them, and every tick and stamp is counted once.
        const READS: u64 = 250;
        let mut pool = store(0, 4).into_pool(cfg(2));
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let h = pool.handle();
                std::thread::spawn(move || {
                    for i in 0..READS {
                        h.query(i % 8, &SetQuery::Read).unwrap();
                    }
                })
            })
            .collect();
        let stamps: Vec<_> = (0..1000u64)
            .map(|i| match pool.update(i % 8, SetUpdate::Insert(i as u32)) {
                Ok(StoreMsg::Update { msg, .. }) => msg.ts,
                other => panic!("update returns an update message, got {other:?}"),
            })
            .collect();
        for r in readers {
            r.join().unwrap();
        }
        assert!(
            stamps.windows(2).all(|w| w[0] < w[1]),
            "stamps out of program order"
        );
        assert_eq!(pool.clock(), 1000 + 2 * READS);
        let mut finished = pool.finish().unwrap();
        let all: BTreeSet<u32> = (0..8).flat_map(|k| finished.materialize_key(k)).collect();
        assert_eq!(all, (0..1000).collect());
    }

    #[test]
    fn pooled_chunked_heal_streams_digest_guided_chunks() {
        // Drive a full digest-guided chunked heal from a pool to a
        // sequential healed peer by ping-ponging the protocol frames,
        // beside a sequential healer holding the same log: the pooled
        // executor must stream exactly what the inline one streams.
        let mut seq = store(0, 4);
        let mut pool = store(0, 4).into_pool(cfg(2));
        let mut peer = store(1, 4);
        seq.peer_down(1);
        pool.peer_down(1).unwrap();
        let watermark = seq.clock();
        assert_eq!(pool.partition().down_peers().next(), Some((1, watermark)));
        // More than a full window of chunks.
        let n = WINDOW * CHUNK + CHUNK / 2;
        for i in 0..n as u64 {
            // Stamped once, mirrored into the pool by the peer-ingest
            // path: both healers hold identical timestamps.
            let m = seq.update(i % 5, SetUpdate::Insert(i as u32));
            pool.submit_batch(vec![m]).unwrap();
        }
        let opener = pool
            .peer_up(1)
            .unwrap()
            .expect("divergence opens a session");
        assert!(matches!(opener, StoreMsg::DigestRequest { .. }));
        let mut streamed = Vec::new();
        let mut chunks = 0u64;
        let mut to_peer = vec![opener];
        while !to_peer.is_empty() {
            let mut to_pool = Vec::new();
            for m in to_peer.drain(..) {
                if let StoreMsg::RepairChunk { updates, .. } = &m {
                    chunks += 1;
                    streamed.extend(updates.iter().map(|(key, m)| (*key, m.ts)));
                }
                let Ok(replies) = peer.apply_message_from(0, m);
                to_pool.extend(replies.into_iter().map(|(_, m)| m));
            }
            for m in to_pool {
                to_peer.extend(
                    pool.apply_message_from(1, m)
                        .unwrap()
                        .into_iter()
                        .map(|(_, m)| m),
                );
            }
        }
        let needed = n.div_ceil(CHUNK) as u64;
        assert!(
            chunks >= needed,
            "{n} entries need ≥ {needed} chunks, got {chunks}"
        );
        assert_eq!(pool.heal_chunks(), chunks);
        assert_eq!(pool.heal_bytes_in_flight(), 0, "all chunks acked");
        assert!(
            pool.heal_sessions().next().is_none(),
            "session completes on the last ack"
        );
        assert_eq!(pool.partition().down_count(), 0);
        // The scrape carries the heal under the same names as the
        // sequential store's, `uc_pool_`-prefixed.
        let reg = Registry::new();
        pool.export_metrics(&reg);
        let scrape = reg.snapshot();
        assert_eq!(scrape.counter("uc_pool_heal_chunks_total"), Some(chunks));
        assert_eq!(
            scrape.counter("uc_pool_heal_replay_bytes_total"),
            Some(pool.heal_replay_bytes())
        );
        assert!(scrape.counter("uc_pool_heal_digest_skips_total").is_some());
        assert_eq!(scrape.gauge("uc_pool_heal_bytes_in_flight"), Some(0));
        assert_eq!(scrape.gauge("uc_pool_heal_sessions"), Some(0));
        assert_eq!(scrape.gauge("uc_pool_heal_replay_bytes"), None);
        // Pooled == sequential, entry for entry.
        let mut seq_peer = store(1, 4);
        let mut seq_streamed = Vec::new();
        let Ok(opener) = seq.peer_up(1);
        let mut to_peer: Vec<_> = opener.into_iter().collect();
        while !to_peer.is_empty() {
            let mut to_seq = Vec::new();
            for m in to_peer.drain(..) {
                if let StoreMsg::RepairChunk { updates, .. } = &m {
                    seq_streamed.extend(updates.iter().map(|(key, m)| (*key, m.ts)));
                }
                let Ok(replies) = seq_peer.apply_message_from(0, m);
                to_seq.extend(replies);
            }
            for (_, m) in to_seq {
                let Ok(replies) = seq.apply_message_from(1, m);
                to_peer.extend(replies.into_iter().map(|(_, m)| m));
            }
        }
        streamed.sort_unstable();
        seq_streamed.sort_unstable();
        assert_eq!(streamed.len(), n);
        assert_eq!(streamed, seq_streamed);
        assert_eq!(pool.heal_replay_bytes(), seq.heal_replay_bytes());
        // One-shot: with nothing new above the next watermark a second
        // heal opens no session.
        pool.peer_down(1).unwrap();
        assert!(pool.peer_up(1).unwrap().is_none(), "heal is one-shot");
        let mut healer = pool.finish().unwrap();
        for k in 0..5u64 {
            assert_eq!(
                healer.materialize_key(k),
                peer.materialize_key(k),
                "key {k}"
            );
        }
    }
}
