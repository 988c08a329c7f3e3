//! The **sharded multi-object store**: many independent UQ-ADT
//! objects multiplexed over one replica.
//!
//! Algorithm 1 replicates a *single* object. A production replica
//! serves millions of keys, each an independent object, as in the
//! partitionable-systems follow-up (Perrin et al., *Update Consistency
//! in Partitionable Systems*) — availability and convergence are
//! per-object properties, so the store can run one Algorithm 1
//! instance per key. [`UcStore`] does exactly that:
//!
//! ```text
//!                UcStore<A, F>           (one per replica)
//!   update(key,u)/query(key,q) ── LamportClock (shared: stamps, `now`)
//!          │ hash(key) % shards
//!          ▼
//!   ShardSet ── pid · engine factories · monitor   (the data plane)
//!   Shard 0        Shard 1        …      Shard S-1
//!   {key → ReplicaEngine<A, F::Strategy>}   (per-key log + repair)
//! ```
//!
//! * **one clock, one pid** — every keyed update is stamped from the
//!   store's single Lamport clock ([`ReplicaEngine::local_update_at`]),
//!   so timestamps are unique across keys and cross-key causality is
//!   preserved (an update issued after a query on another key orders
//!   after everything that query saw);
//! * **per-key engines** — each key has its own timestamp-sorted log
//!   and [`RepairStrategy`], so a late message repairs only its own
//!   key's suffix (*repair locality*: an out-of-order burst on a hot
//!   key never refolds cold keys);
//! * **shard map** — keys are grouped `hash(key) % shards`
//!   (`FxHasher`); shards are the unit of batched delivery and of
//!   parallel ingest (an [`IngestPool`](crate::pool::IngestPool)
//!   worker owns whole shards), so hot keys don't serialize cold ones;
//! * **one data plane** — everything done *at* the shards (insert,
//!   batched ingest, query, heartbeat, maintenance, cut, heal digests
//!   and windows, retention, flush, every monitor hook) is a method of
//!   the crate-private `ShardSet`, written once. The store holds one
//!   set owning every shard and calls it on the caller's thread; each
//!   pool worker holds one set owning its stride of the shards and
//!   calls the same methods from its job loop;
//! * **per-shard batched delivery** — [`UcStore::apply_batch_owned`]
//!   splits a burst by shard, groups each shard's sub-batch by key
//!   (stable-sorted, so per-sender FIFO within a key survives), and
//!   moves each key's run through
//!   [`ReplicaEngine::on_deliver_batch`] /
//!   [`UpdateLog::insert_batch`](crate::log::UpdateLog::insert_batch)
//!   — one repair per key per burst, no update cloned;
//! * **one stability floor, handed to every insertion** — the
//!   replica's stability floor (the minimum of the clocks heard from
//!   every pid, kept once per shard set) rises on heartbeats, on the
//!   replica's own stamps and ticks, and on every update a sender's
//!   FIFO link delivers. Every insertion hands its key the floor, so
//!   the insertion's own compaction drains what is stable. A backend
//!   flush, and a heartbeat or maintenance tick that finds the floor
//!   above the last sweep's, visit only the keys whose log still holds
//!   un-compacted entries (each shard's *live list*, slot numbers into
//!   the shard's engine arena, walked without hashing a key); a
//!   heartbeat or tick that leaves the floor where it was visits no
//!   key, so a pinned partition costs none per heartbeat. A key with an
//!   empty log has nothing to drain and sits the sweeps out, so what a
//!   tick costs follows the unstable keys, not the key count
//!   ([`UcStore::live_keys`]);
//! * **one replica type** — [`UcStore`] is the [`Inline`]
//!   instantiation of [`Node`], the replica written once: what it
//!   does as a [`Protocol`](uc_sim::Protocol) node —
//!   answer invocations, take frames, bursts and ticks, track
//!   partitions and heal peers — is [`node`](crate::node) and
//!   [`heal`](crate::heal), and what that code does to the shards is
//!   the shard set's. The inline executor adds the clock, the persisted
//!   clock floor and the trace ring, and calls the set directly where
//!   the [`IngestPool`](crate::pool::IngestPool)'s workers take a job.
//!
//! Strategies are chosen per store through a [`StrategyFactory`]
//! (engines are created lazily on first touch of a key): a replica runs
//! §VII-C's stability collection, [`GcFactory`]; [`CheckpointFactory`]
//! keeps every update, for a full-log reference store or a replica
//! that never compacts. The other Algorithm 1 variants run as single
//! engines ([`NaiveReplay`](crate::generic::NaiveReplay),
//! [`UndoRepair`](crate::undo::UndoRepair)).

use crate::backend::{BackendFactory, LogBackend, MemFactory};
use crate::engine::{CutError, RepairStrategy, ReplicaEngine};
use crate::gc::StableGc;
use crate::heal::{digest_slot, HealDigest, Healer, RANGES};
use crate::log::Buffer;
use crate::message::UpdateMsg;
use crate::node::{Executor, Node};
use crate::slots::SlotIndex;
use crate::timestamp::{LamportClock, Timestamp};
use std::collections::VecDeque;
use std::convert::Infallible;
use std::fmt;
use std::hash::Hasher;
use uc_criteria::online::{MonitorConfig, MonitorStats, OnlineMonitor};
use uc_history::fxhash::FxHasher;
use uc_obs::{TraceKind, TraceRing};
use uc_sim::Pid;
use uc_spec::UqAdt;

/// Object identifier within a store.
pub type Key = u64;

/// Builds one [`RepairStrategy`] per key, on first touch. Factories
/// carry the strategy's configuration (checkpoint spacing, cluster
/// size, …) so a store can be generic over how its objects repair.
pub trait StrategyFactory<A: UqAdt>: Clone {
    /// The strategy this factory produces.
    type Strategy: RepairStrategy<A>;

    /// Build a fresh strategy for one key's engine.
    fn make(&self, adt: &A) -> Self::Strategy;

    /// The cluster size stability is taken over, for a strategy that
    /// compacts what every process's clock has passed: the store then
    /// keeps the replica's stability floor, visits its live keys only
    /// when a heartbeat or tick raises it, and refuses a pid outside
    /// the cluster ([`UcStore::new`]). Default `None`: the replica's
    /// floor stays 0, and no heartbeat or tick visits a key.
    fn cluster_size(&self) -> Option<usize> {
        None
    }
}

/// Per-key engines keep checkpoints every `every` updates (§VII-C
/// caching).
#[derive(Clone, Copy, Debug)]
pub struct CheckpointFactory {
    /// Checkpoint spacing.
    pub every: usize,
}

impl<A: UqAdt> StrategyFactory<A> for CheckpointFactory {
    type Strategy = crate::cached::CheckpointRepair<A>;

    fn make(&self, adt: &A) -> Self::Strategy {
        crate::cached::CheckpointRepair::with_spacing(adt, self.every)
    }
}

/// Per-key engines compact their stable prefix (§VII-C garbage
/// collection) for a cluster of `n` replicas.
#[derive(Clone, Copy, Debug)]
pub struct GcFactory {
    /// Cluster size (stability needs everyone's clock).
    pub n: usize,
}

impl<A: UqAdt> StrategyFactory<A> for GcFactory {
    type Strategy = StableGc<A>;

    fn make(&self, adt: &A) -> Self::Strategy {
        StableGc::new(adt)
    }

    fn cluster_size(&self) -> Option<usize> {
        Some(self.n)
    }
}

/// Wire message of the store: a keyed Algorithm 1 update, or a clock
/// heartbeat advancing every key's stability knowledge at once.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum StoreMsg<U> {
    /// A timestamped update of one object.
    Update {
        /// The object the update targets.
        key: Key,
        /// The Algorithm 1 broadcast for that object.
        msg: UpdateMsg<U>,
    },
    /// A clock announcement with no payload (one heartbeat covers all
    /// keys — the clock is shared).
    Heartbeat {
        /// The announcing replica.
        pid: u32,
        /// Its clock at send time.
        clock: u64,
    },
    /// Keyed updates a healed peer missed while unreachable, in bulk:
    /// the carrier a [`StoreMsg::RepairChunk`]'s payload is ingested
    /// as. Delivery is idempotent — receivers ingest through the
    /// normal deduplicating batch path, so repair bursts may overlap
    /// retransmissions or each other freely.
    Repair {
        /// The missed keyed updates, in timestamp order.
        updates: Vec<(Key, UpdateMsg<U>)>,
    },
    /// Chunked-heal opener: the healing side's per-(group, key-range)
    /// digests of everything it would stream above the outage
    /// watermark. The healed peer compares against its own view and
    /// answers [`StoreMsg::DigestResponse`] with the slots that
    /// differ; matching slots are skipped entirely, so converged
    /// peers exchange O(groups) bytes instead of O(suffix). See
    /// [`heal`](crate::heal).
    DigestRequest {
        /// Session id (echoed by every reply; stale sessions ignore
        /// replies carrying another id).
        session: u64,
        /// The outage-start watermark the digests cover (`clock >
        /// since`).
        since: u64,
        /// Digest group count — the *sender's* shard count; the
        /// receiver evaluates slots with it regardless of its own
        /// sharding.
        groups: u32,
        /// `groups * RANGES` digest slots, flattened as
        /// `group * RANGES + range` ([`RANGES`]).
        digests: Vec<crate::heal::HealDigest>,
    },
    /// The healed peer's verdict on a [`StoreMsg::DigestRequest`]:
    /// the flat slot indices whose digests differ from its own view
    /// (computed over the same watermark, excluding its own updates).
    /// Only these slots are streamed.
    DigestResponse {
        /// Echoed session id.
        session: u64,
        /// Echoed watermark.
        since: u64,
        /// Flat indices of the differing digest slots, ascending.
        mismatched: Vec<u32>,
    },
    /// One bounded chunk of a heal stream: updates stamped above the
    /// outage-start watermark, the receiver's own excluded. Receivers
    /// ingest the payload through the deduplicating batch path (so
    /// redelivered or overlapping chunks are no-ops) and acknowledge
    /// with [`StoreMsg::RepairAck`]; the sender keeps at most
    /// [`WINDOW`](crate::heal::WINDOW) chunks unacknowledged. A chunk
    /// is one link frame of at most [`CHUNK`](crate::heal::CHUNK)
    /// entries, so a heal puts at most `WINDOW` frames in a
    /// `ReliableLink`'s queue toward its peer.
    RepairChunk {
        /// Echoed session id.
        session: u64,
        /// Session-local chunk sequence number (1-based).
        seq: u64,
        /// True on the session's final chunk; its ack completes the
        /// heal on the sending side.
        last: bool,
        /// The chunk payload, in streaming-plan order.
        updates: Vec<(Key, UpdateMsg<U>)>,
    },
    /// Flow-control acknowledgement of one [`StoreMsg::RepairChunk`];
    /// each ack reopens the sender's window by one chunk.
    RepairAck {
        /// Echoed session id.
        session: u64,
        /// The acknowledged chunk's sequence number.
        seq: u64,
    },
}

impl<U: fmt::Debug> fmt::Debug for StoreMsg<U> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreMsg::Update { key, msg } => write!(f, "k{key}:{msg:?}"),
            StoreMsg::Heartbeat { pid, clock } => write!(f, "hb(p{pid},{clock})"),
            StoreMsg::Repair { updates } => write!(f, "repair[{}]", updates.len()),
            StoreMsg::DigestRequest {
                session,
                since,
                groups,
                ..
            } => write!(f, "digest-req(s{session},>{since},{groups})"),
            StoreMsg::DigestResponse {
                session,
                mismatched,
                ..
            } => write!(f, "digest-resp(s{session},{} slots)", mismatched.len()),
            StoreMsg::RepairChunk {
                session,
                seq,
                last,
                updates,
            } => write!(
                f,
                "chunk(s{session},#{seq}{},{})",
                if *last { ",last" } else { "" },
                updates.len()
            ),
            StoreMsg::RepairAck { session, seq } => write!(f, "chunk-ack(s{session},#{seq})"),
        }
    }
}

/// Application-level invocation against a store.
pub enum StoreInput<A: UqAdt> {
    /// Update one object.
    Update(Key, A::Update),
    /// Query one object.
    Query(Key, A::QueryIn),
    /// Query several objects from one consistent cut at the current
    /// clock — the multi-key read that can never be torn (see
    /// [`UcStore::consistent_snapshot`]).
    Snapshot(Vec<(Key, A::QueryIn)>),
    /// Failure-detector verdict: `peer` became unreachable. The store
    /// records its clock watermark at this moment — everything stamped
    /// above it is the divergence the peer must be repaired with on
    /// heal. Answered with [`StoreOutput::Membership`].
    PeerDown(Pid),
    /// `peer` is reachable again: reconcile-on-heal. The store opens
    /// the chunked heal dialogue with the peer (a
    /// [`StoreMsg::DigestRequest`], when it holds anything the peer
    /// missed).
    PeerUp(Pid),
}

impl<A: UqAdt> Clone for StoreInput<A> {
    fn clone(&self) -> Self {
        match self {
            StoreInput::Update(k, u) => StoreInput::Update(*k, u.clone()),
            StoreInput::Query(k, q) => StoreInput::Query(*k, q.clone()),
            StoreInput::Snapshot(reqs) => StoreInput::Snapshot(reqs.clone()),
            StoreInput::PeerDown(p) => StoreInput::PeerDown(*p),
            StoreInput::PeerUp(p) => StoreInput::PeerUp(*p),
        }
    }
}

impl<A: UqAdt> fmt::Debug for StoreInput<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreInput::Update(k, u) => write!(f, "k{k}:{u:?}"),
            StoreInput::Query(k, q) => write!(f, "k{k}:{q:?}?"),
            StoreInput::Snapshot(reqs) => {
                write!(f, "snap?")?;
                for (k, q) in reqs {
                    write!(f, " k{k}:{q:?}")?;
                }
                Ok(())
            }
            StoreInput::PeerDown(p) => write!(f, "down(p{p})"),
            StoreInput::PeerUp(p) => write!(f, "up(p{p})"),
        }
    }
}

/// A failure detector ([`uc_sim::HeartbeatDetector`]) can drive the
/// store's membership verdicts directly from missed heartbeats.
impl<A: UqAdt> uc_sim::MembershipInput for StoreInput<A> {
    fn peer_down(peer: Pid) -> Self {
        StoreInput::PeerDown(peer)
    }
    fn peer_up(peer: Pid) -> Self {
        StoreInput::PeerUp(peer)
    }
}

/// Application-level response from a store.
pub enum StoreOutput<A: UqAdt> {
    /// Update acknowledged with its assigned timestamp.
    Ack {
        /// The updated object.
        key: Key,
        /// Timestamp the store assigned.
        ts: Timestamp,
    },
    /// Query answered from local knowledge.
    Value {
        /// The queried object.
        key: Key,
        /// The query output.
        out: A::QueryOut,
    },
    /// Multi-key snapshot answered from one consistent cut.
    Snapshot {
        /// The cut timestamp every answer reflects.
        cut: u64,
        /// Per-key query outputs, in request order.
        outs: Vec<(Key, A::QueryOut)>,
    },
    /// Acknowledges a [`StoreInput::PeerDown`] / [`StoreInput::PeerUp`]
    /// membership report.
    Membership {
        /// The reported peer.
        peer: Pid,
        /// Whether the peer is now considered down.
        down: bool,
    },
}

impl<A: UqAdt> Clone for StoreOutput<A> {
    fn clone(&self) -> Self {
        match self {
            StoreOutput::Ack { key, ts } => StoreOutput::Ack { key: *key, ts: *ts },
            StoreOutput::Value { key, out } => StoreOutput::Value {
                key: *key,
                out: out.clone(),
            },
            StoreOutput::Snapshot { cut, outs } => StoreOutput::Snapshot {
                cut: *cut,
                outs: outs.clone(),
            },
            StoreOutput::Membership { peer, down } => StoreOutput::Membership {
                peer: *peer,
                down: *down,
            },
        }
    }
}

impl<A: UqAdt> fmt::Debug for StoreOutput<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreOutput::Ack { key, ts } => write!(f, "k{key}:ack{ts:?}"),
            StoreOutput::Value { key, out } => write!(f, "k{key}:{out:?}"),
            StoreOutput::Snapshot { cut, outs } => {
                write!(f, "snap@{cut}")?;
                for (k, out) in outs {
                    write!(f, " k{k}:{out:?}")?;
                }
                Ok(())
            }
            StoreOutput::Membership { peer, down } => {
                write!(f, "p{peer}:{}", if *down { "down" } else { "up" })
            }
        }
    }
}

/// Per-replica partition bookkeeping: which peers the failure
/// detector reported down, and the local clock watermark frozen at
/// each outage start (the lower bound of the divergence window to
/// replay on heal). Reads never consult it: every replica answers
/// from local knowledge, minority side included (wait-free, §VII-A).
#[derive(Clone, Debug, Default)]
pub struct PartitionTracker {
    /// peer → local clock watermark when it was first reported down.
    down: std::collections::BTreeMap<Pid, u64>,
}

impl PartitionTracker {
    /// Is `peer` currently considered down?
    pub fn is_down(&self, peer: Pid) -> bool {
        self.down.contains_key(&peer)
    }

    /// `peer`'s outage-start watermark, if it is down.
    pub fn watermark(&self, peer: Pid) -> Option<u64> {
        self.down.get(&peer).copied()
    }

    /// Number of peers currently considered down.
    pub fn down_count(&self) -> usize {
        self.down.len()
    }

    /// The down peers with their outage-start clock watermarks.
    pub fn down_peers(&self) -> impl Iterator<Item = (Pid, u64)> + '_ {
        self.down.iter().map(|(p, w)| (*p, *w))
    }

    /// Record `peer` down at local clock `watermark`. A repeated
    /// report keeps the original (earliest) watermark — the divergence
    /// window only ever grows while the peer stays down.
    pub(crate) fn mark_down(&mut self, peer: Pid, watermark: u64) {
        self.down.entry(peer).or_insert(watermark);
    }

    /// Clear `peer`'s down record, returning the outage-start
    /// watermark if it was down.
    pub(crate) fn mark_up(&mut self, peer: Pid) -> Option<u64> {
        self.down.remove(&peer)
    }
}

/// An immutable multi-key view of a store at one cut timestamp,
/// returned by [`UcStore::snapshot_at`] and the pool's barrier-cut
/// snapshot. **Provably un-torn**: every key's state is the fold of
/// exactly the delivered updates stamped `clock ≤ cut`, and because
/// the `(clock, pid)` total order on updates makes a clock cut
/// downward-closed, no pair of keys can ever expose a later update
/// while missing an earlier one.
pub struct StoreSnapshot<A: UqAdt> {
    adt: A,
    cut: u64,
    states: std::collections::BTreeMap<Key, A::State>,
}

impl<A: UqAdt> StoreSnapshot<A> {
    pub(crate) fn new(adt: A, cut: u64, states: std::collections::BTreeMap<Key, A::State>) -> Self {
        StoreSnapshot { adt, cut, states }
    }

    /// The cut timestamp every state in this view reflects.
    pub fn cut(&self) -> u64 {
        self.cut
    }

    /// The state of `key` at the cut; `None` for keys with no engine
    /// at snapshot time (their state is the ADT's initial state —
    /// see [`StoreSnapshot::query`], which answers them uniformly).
    pub fn state(&self, key: Key) -> Option<&A::State> {
        self.states.get(&key)
    }

    /// Answer a query for `key` against the snapshot. Untouched keys
    /// answer from the initial state, mirroring [`UcStore::query`].
    pub fn query(&self, key: Key, q: &A::QueryIn) -> A::QueryOut {
        match self.states.get(&key) {
            Some(state) => self.adt.observe(state, q),
            None => self.adt.observe_owned(self.adt.initial(), q),
        }
    }

    /// Keys captured in this snapshot, sorted.
    pub fn keys(&self) -> impl Iterator<Item = Key> + '_ {
        self.states.keys().copied()
    }

    /// Number of keys captured.
    pub fn key_count(&self) -> usize {
        self.states.len()
    }
}

impl<A: UqAdt + Clone> Clone for StoreSnapshot<A> {
    fn clone(&self) -> Self {
        StoreSnapshot {
            adt: self.adt.clone(),
            cut: self.cut,
            states: self.states.clone(),
        }
    }
}

impl<A: UqAdt> fmt::Debug for StoreSnapshot<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StoreSnapshot")
            .field("cut", &self.cut)
            .field("states", &self.states)
            .finish()
    }
}

/// Collapse a burst's heartbeats to one per announcing pid (the max
/// clock). Heard clocks are a running max, so the end state is
/// identical — but each applied heartbeat that raises the stability
/// floor sweeps every live engine (one holding un-compacted entries)
/// in every shard, so a burst carrying several heartbeats of one peer
/// could otherwise repeat that sweep for each.
fn collapse_heartbeats(mut hbs: Vec<(u32, u64)>) -> Vec<(u32, u64)> {
    hbs.sort_unstable();
    hbs.dedup_by(|later, earlier| {
        // Sorted ascending, so within a pid the max clock is last;
        // keep it by overwriting the earlier entry.
        if later.0 == earlier.0 {
            earlier.1 = later.1;
            true
        } else {
            false
        }
    });
    hbs
}

/// One key's engine, with its key (for the arena walks that report
/// keys) and its membership in its shard's three work lists kept
/// beside it: the insertion path tests a flag on the slot it already
/// holds instead of probing a side set.
#[derive(Clone, Debug)]
struct Slot<A: UqAdt, S, B> {
    key: Key,
    engine: ReplicaEngine<A, S, B>,
    /// On [`Shard::live`].
    live: bool,
    /// On [`Shard::unflushed`].
    unflushed: bool,
    /// On [`Shard::unpublished`].
    unpublished: bool,
    /// The size class ([`class`]) of the buffer the key held when it
    /// last went idle: a buffer it borrows is of this class or smaller.
    /// A new key's is the largest.
    class: u8,
    /// On one of [`Shard::lenders`].
    offered: bool,
}

impl<A: UqAdt, S, B> Slot<A, S, B> {
    /// A new key's slot, on no list.
    fn new(key: Key, engine: ReplicaEngine<A, S, B>) -> Self {
        Slot {
            key,
            engine,
            live: false,
            unflushed: false,
            unpublished: false,
            class: CLASSES as u8 - 1,
            offered: false,
        }
    }
}

/// One shard: the keys (and their engines) that hash to it, plus its
/// own global index (the coordinate backend factories open per-key
/// storage under). Crate visibility: shards are the unit of ownership
/// the [`IngestPool`](crate::pool::IngestPool) hands to its persistent
/// workers.
///
/// The engines sit in one arena, `slots`, in creation order, behind a
/// key → slot-number index ([`SlotIndex`]). Keys are never removed, so
/// a slot number stays valid for the shard's life; the work lists hold
/// slot numbers, and only the key-addressed calls (insertions, reads,
/// adoption) go through the index. An index entry is 4 bytes, the slot
/// number and a tag, where a slot is 136 (a `StableGc` key's, its kept
/// fold boxed apart), so the table's empty entries cost little, and
/// the arena's unused tail is never written.
///
/// Sweeps and flushes visit the **live** keys only — those whose log
/// still holds un-compacted entries. A sweep runs when a heartbeat or
/// tick finds the replica's stability floor ([`Stability`]) above the
/// last sweep's, and hands each live engine the floor. An engine whose
/// log has emptied has nothing to compact and answers queries from its
/// base, so it sits the sweeps out; its next insertion hands it the
/// floor of the moment, as every insertion does
/// ([`Shard::insert_into`]).
///
/// A pool worker publishes its keys' states for snapshot reads, two
/// short `RwLock` reads never behind a repair (see
/// [`IngestPool`](crate::pool::IngestPool)). Once it has backfilled a
/// shard it switches the shard's `publishing` on, and from then on each
/// insertion lists its slot on `unpublished`; the worker takes the
/// slots off either end of the list and reaches each engine by its
/// slot number, with no key lookup. A store that runs inline never
/// switches it on, and a worker switches it off when it hands its
/// shards back, so an inline insertion lists nothing.
///
/// Each work list holds a slot at most once (the slot flags), so it is
/// bounded by the key count however often a key is written.
///
/// An idle key offers its emptied log buffer to the shard if the
/// buffer is small ([`LEND_LIMIT`]), and a key that wakes holding none
/// borrows one before its insertion: most keys sit idle most of the
/// time, and they need not each keep a buffer. A key that wakes with
/// its buffer still there uses it, so only keys that lost theirs move
/// one. Offers are kept by size class, and a key borrows one of the
/// class it last held, or of the largest smaller class: a buffer only
/// grows, so one that passed between keys of any size would end up the
/// size of the largest. A borrowed buffer grows only when its key needs
/// more than it last held, or its class ran out.
#[derive(Clone, Debug)]
pub(crate) struct Shard<A: UqAdt, S, B = crate::backend::MemBackend> {
    pub(crate) idx: usize,
    /// Key → its slot's number in `slots`.
    index: SlotIndex,
    /// Every key's slot, in creation order.
    slots: Vec<Slot<A, S, B>>,
    /// Slots whose log held entries when last looked at. A log that an
    /// insertion's own compaction emptied stays listed until the next
    /// sweep finds it so.
    live: Vec<u32>,
    /// Slots that journaled or moved their clock while off the live
    /// list since the last [`Shard::flush_backends`]: they were idle
    /// when an insertion began, or they left the live list.
    unflushed: Vec<u32>,
    /// Slots inserted into since their state was last published, in the
    /// order they were listed; empty unless `publishing`.
    unpublished: VecDeque<u32>,
    /// Does an insertion list its slot on `unpublished`? On from a pool
    /// worker's backfill of the shard until the worker hands it back.
    publishing: bool,
    /// Highest update-timestamp clock this shard has ingested or
    /// issued — the per-shard divergence high-water mark. Heal skips
    /// shards whose high water never passed the outage-start
    /// watermark (nothing there can be missing on the healed peer).
    pub(crate) high_water: u64,
    /// Idle slots offering an empty log buffer of at most
    /// [`LEND_LIMIT`] bytes, by the buffer's size class when listed. A
    /// slot is on one list at most (its `offered` flag), and stays
    /// listed when it wakes and uses the buffer itself: the borrower
    /// that pops it then skips it.
    lenders: [Vec<u32>; CLASSES],
}

/// The largest log buffer, in bytes, that an idle key offers to its
/// shard. Buffers only grow, and a lent one passes between keys, so
/// without a limit the lent buffers ratchet up to the hot keys' size;
/// the large buffers of hot keys stay with them, as before lending.
const LEND_LIMIT: usize = 1024;

/// Size classes of lendable buffers: class `c` holds capacities in
/// `[2^c, 2^(c+1))`, and a lendable buffer holds at most 64 entries
/// (an entry is at least its 16-byte timestamp).
const CLASSES: usize = 7;
const _: () = assert!(LEND_LIMIT / std::mem::size_of::<Timestamp>() < 1 << CLASSES);

/// Is `capacity` entries' worth of buffer small enough to lend?
fn lendable<U>(capacity: usize) -> bool {
    capacity * std::mem::size_of::<(Timestamp, U)>() <= LEND_LIMIT
}

/// The size class of a buffer of `capacity` entries, `capacity > 0`.
fn class(capacity: usize) -> usize {
    capacity.ilog2() as usize
}

impl<A: UqAdt, S, B> Shard<A, S, B> {
    pub(crate) fn empty(idx: usize) -> Self {
        Shard {
            idx,
            index: SlotIndex::default(),
            slots: Vec::new(),
            live: Vec::new(),
            unflushed: Vec::new(),
            unpublished: VecDeque::new(),
            publishing: false,
            high_water: 0,
            lenders: Default::default(),
        }
    }

    /// Raise the divergence high-water mark to cover `clock`.
    pub(crate) fn note_clock(&mut self, clock: u64) {
        self.high_water = self.high_water.max(clock);
    }

    /// Number of keys with engines.
    pub(crate) fn key_count(&self) -> usize {
        self.slots.len()
    }

    /// Bytes the arena's slots take, each key's engine inline.
    pub(crate) fn slot_bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<Slot<A, S, B>>()
    }

    /// Bytes the key index's table takes.
    pub(crate) fn index_bytes(&self) -> usize {
        self.index.bytes()
    }

    /// The keys with engines, in creation order.
    pub(crate) fn keys(&self) -> impl Iterator<Item = Key> + '_ {
        self.slots.iter().map(|slot| slot.key)
    }

    /// `key`'s slot number, if it has a slot.
    fn find(&self, key: Key) -> Option<u32> {
        self.index.get(key, |at| self.slots[at as usize].key)
    }

    /// `key`'s slot, if it has one.
    fn slot_mut(&mut self, key: Key) -> Option<&mut Slot<A, S, B>> {
        let at = self.find(key)?;
        Some(&mut self.slots[at as usize])
    }

    /// `key`'s engine, if it has one.
    pub(crate) fn engine(&self, key: Key) -> Option<&ReplicaEngine<A, S, B>> {
        let at = self.find(key)?;
        Some(&self.slots[at as usize].engine)
    }

    /// `key`'s engine for a read (query, cut, suffix window): reads
    /// never create an engine and move no clock of it.
    pub(crate) fn engine_mut(&mut self, key: Key) -> Option<&mut ReplicaEngine<A, S, B>> {
        self.slot_mut(key).map(|slot| &mut slot.engine)
    }

    /// Every engine, for the store-wide reads (cuts, heal digests and
    /// suffixes, counters).
    pub(crate) fn engines(&self) -> impl Iterator<Item = &ReplicaEngine<A, S, B>> {
        self.slots.iter().map(|slot| &slot.engine)
    }

    /// [`Shard::engines`], keyed and mutable.
    pub(crate) fn engines_mut(
        &mut self,
    ) -> impl Iterator<Item = (Key, &mut ReplicaEngine<A, S, B>)> {
        self.slots
            .iter_mut()
            .map(|slot| (slot.key, &mut slot.engine))
    }

    /// Start listing the slots insertions touch for publication: the
    /// pool worker has just published every key of the shard.
    pub(crate) fn start_publishing(&mut self) {
        self.publishing = true;
    }

    /// Is the shard listing slots for publication?
    pub(crate) fn publishing(&self) -> bool {
        self.publishing
    }

    /// Stop listing: the pool worker hands the shard back.
    ///
    /// # Panics
    ///
    /// When a slot is still owed its publication.
    pub(crate) fn stop_publishing(&mut self) {
        assert!(
            self.unpublished.is_empty(),
            "shard {} handed back with {} slots unpublished",
            self.idx,
            self.unpublished.len()
        );
        self.publishing = false;
    }

    /// Slots owed a publication.
    pub(crate) fn unpublished(&self) -> usize {
        self.unpublished.len()
    }

    /// Take a slot off the unpublished list, the one listed longest if
    /// `oldest`, else the one listed last: its number, key and engine.
    pub(crate) fn take_unpublished(
        &mut self,
        oldest: bool,
    ) -> Option<(u32, Key, &mut ReplicaEngine<A, S, B>)> {
        let at = if oldest {
            self.unpublished.pop_front()
        } else {
            self.unpublished.pop_back()
        }?;
        let slot = &mut self.slots[at as usize];
        slot.unpublished = false;
        Some((at, slot.key, &mut slot.engine))
    }

    /// Keys on the live list — how many keys hold unstable entries
    /// (a few may have been emptied by their last insertion's own
    /// compaction and not been swept since).
    pub(crate) fn live_keys(&self) -> usize {
        self.live.len()
    }

    /// Panic unless the index, the arena and the work lists agree:
    /// every key maps to the slot holding it, the work lists (and the
    /// lender lists taken together) hold a slot at most once and
    /// exactly when the slot's flag says so, nothing is listed for
    /// publication while the shard is not publishing, and every idle
    /// slot keeping a buffer it could lend offers it.
    #[cfg(test)]
    fn check_invariants(&self)
    where
        S: RepairStrategy<A>,
        B: LogBackend<A>,
    {
        assert_eq!(self.index.len(), self.slots.len(), "one slot per key");
        for (at, slot) in self.slots.iter().enumerate() {
            assert_eq!(self.find(slot.key), Some(at as u32), "slot {at}");
        }
        let listed = |list: &[u32], flag: fn(&Slot<A, S, B>) -> bool, name: &str| {
            let mut seen = vec![false; self.slots.len()];
            for &at in list {
                assert!(
                    !std::mem::replace(&mut seen[at as usize], true),
                    "{name}: slot {at} twice"
                );
            }
            for (at, slot) in self.slots.iter().enumerate() {
                assert_eq!(seen[at], flag(slot), "{name}: slot {at} listed iff flagged");
            }
        };
        listed(&self.live, |slot| slot.live, "live");
        listed(&self.unflushed, |slot| slot.unflushed, "unflushed");
        let unpublished = Vec::from(self.unpublished.clone());
        listed(&unpublished, |slot| slot.unpublished, "unpublished");
        assert!(
            self.publishing || unpublished.is_empty(),
            "unpublished: listed while not publishing"
        );
        listed(&self.lenders.concat(), |slot| slot.offered, "lenders");
        for (at, slot) in self.slots.iter().enumerate() {
            let kept = slot.engine.log().capacity();
            assert!(
                slot.live || slot.offered || kept == 0 || !lendable::<A::Update>(kept),
                "idle slot {at} keeps a buffer of {kept} entries unoffered"
            );
        }
    }
}

/// List slot `at`, just gone or left idle, as a lender of its emptied
/// log buffer if the buffer is small enough, and note its class.
fn offer<A: UqAdt, S: RepairStrategy<A>, B: LogBackend<A>>(
    lenders: &mut [Vec<u32>; CLASSES],
    slot: &mut Slot<A, S, B>,
    at: u32,
) {
    let capacity = slot.engine.log().capacity();
    if capacity == 0 || !lendable::<A::Update>(capacity) {
        return;
    }
    slot.class = class(capacity) as u8;
    if !slot.offered {
        slot.offered = true;
        lenders[slot.class as usize].push(at);
    }
}

/// Take a buffer of class `class` or smaller from an idle lender.
fn borrow<A: UqAdt, S: RepairStrategy<A>, B: LogBackend<A>>(
    lenders: &mut [Vec<u32>; CLASSES],
    slots: &mut [Slot<A, S, B>],
    class: u8,
) -> Option<Buffer<A::Update>> {
    for list in lenders[..=class as usize].iter_mut().rev() {
        while let Some(at) = list.pop() {
            let lender = &mut slots[at as usize];
            lender.offered = false;
            let log = lender.engine.log_mut();
            if !lender.live && lendable::<A::Update>(log.capacity()) {
                if let Some(buffer) = log.take_buffer() {
                    return Some(buffer);
                }
            }
        }
    }
    None
}

impl<A: UqAdt + Clone, S: RepairStrategy<A>, B: LogBackend<A>> Shard<A, S, B> {
    /// Run an insertion `f` against `key`'s engine, created on first
    /// touch, after handing it the replica's stability `floor`: the
    /// insertion's own compaction drains through it
    /// ([`RepairStrategy::raise_floor`]). An engine that sat out the
    /// sweeps needs nothing else — the floor is all they would have
    /// handed it — and rejoins the live list if the insertion left
    /// entries in its log. An idle engine that holds no log buffer
    /// borrows one first, and offers its buffer if the insertion left
    /// its log empty. While the shard is publishing, the slot is listed
    /// as owed a publication (once, however often it is written before
    /// its turn).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn insert_into<F, P, R>(
        &mut self,
        key: Key,
        adt: &A,
        pid: u32,
        factory: &F,
        persist: &P,
        floor: u64,
        f: impl FnOnce(&mut ReplicaEngine<A, S, B>) -> R,
    ) -> R
    where
        F: StrategyFactory<A, Strategy = S>,
        P: BackendFactory<A, Backend = B>,
    {
        let Shard {
            idx,
            index,
            slots,
            live,
            unflushed,
            unpublished,
            publishing,
            lenders,
            ..
        } = self;
        let at = match index.get(key, |at| slots[at as usize].key) {
            Some(at) => at,
            None => {
                let engine = ReplicaEngine::with_backend(
                    adt.clone(),
                    pid,
                    factory.make(adt),
                    persist.open(*idx, key),
                );
                slots.push(Slot::new(key, engine));
                let at = slots.len() as u32 - 1;
                index.push(at, |at| slots[at as usize].key);
                at
            }
        };
        let slot = &slots[at as usize];
        if !slot.live && slot.engine.log().capacity() == 0 {
            // Holding no buffer, the slot is on no lender list:
            // `borrow` cannot hand it its own.
            let class = slot.class;
            if let Some(buffer) = borrow(lenders, slots, class) {
                slots[at as usize].engine.log_mut().lend_buffer(buffer);
            }
        }
        let slot = &mut slots[at as usize];
        slot.engine.raise_floor(floor);
        if !slot.live {
            // Owed a flush from here on, whatever `f` does: a fold
            // that panics after journaling must leave the entries
            // where the pool's poison-path flush finds them.
            if !slot.unflushed {
                slot.unflushed = true;
                unflushed.push(at);
            }
        }
        if *publishing && !slot.unpublished {
            slot.unpublished = true;
            unpublished.push_back(at);
        }
        let out = f(&mut slot.engine);
        if !slot.live {
            if slot.engine.log_len() > 0 {
                slot.live = true;
                live.push(at);
            } else {
                offer(lenders, slot, at);
            }
        }
        out
    }

    /// Adopt an engine rebuilt by [`UcStore::reopen`] for a key that
    /// has none yet; one that recovered a non-empty tail is live, and
    /// one that did not offers its buffer.
    pub(crate) fn adopt(&mut self, key: Key, engine: ReplicaEngine<A, S, B>) {
        assert!(self.find(key).is_none(), "key {key} adopted twice");
        let at = self.slots.len() as u32;
        self.slots.push(Slot::new(key, engine));
        let slots = &self.slots;
        self.index.push(at, |at| slots[at as usize].key);
        let slot = &mut self.slots[at as usize];
        if slot.engine.log_len() > 0 {
            slot.live = true;
            self.live.push(at);
        } else {
            offer(&mut self.lenders, slot, at);
        }
    }

    /// Ingest one shard's sub-batch: stable-sort by key (preserving
    /// arrival order within a key, hence per-sender FIFO), then hand
    /// each key's contiguous run to its engine as **one** owned batch
    /// — one repair per key per burst, with the updates moved (never
    /// cloned) into the key's log via `UpdateLog::insert_batch` — and a
    /// run of one as the single message it is.
    pub(crate) fn ingest<F, P>(
        &mut self,
        mut bucket: Vec<(Key, UpdateMsg<A::Update>)>,
        adt: &A,
        pid: u32,
        factory: &F,
        persist: &P,
        floor: u64,
    ) where
        F: StrategyFactory<A, Strategy = S>,
        P: BackendFactory<A, Backend = B>,
    {
        for (_, m) in &bucket {
            self.high_water = self.high_water.max(m.ts.clock);
        }
        bucket.sort_by_key(|(k, _)| *k);
        let mut iter = bucket.into_iter().peekable();
        while let Some((key, first)) = iter.next() {
            // A run of one, the usual case, needs no batch.
            if iter.peek().is_none_or(|(k, _)| *k != key) {
                self.insert_into(key, adt, pid, factory, persist, floor, |engine| {
                    engine.on_deliver(first)
                });
                continue;
            }
            let mut msgs = vec![first];
            while let Some((_, m)) = iter.next_if(|(k, _)| *k == key) {
                msgs.push(m);
            }
            self.insert_into(key, adt, pid, factory, persist, floor, |engine| {
                engine.on_deliver_batch(msgs)
            });
        }
    }

    /// Retained log entries, summed over the live keys (every other
    /// log is empty).
    pub(crate) fn live_log_len(&self) -> usize {
        self.live
            .iter()
            .map(|&at| self.slots[at as usize].engine.log_len())
            .sum()
    }

    /// Fold this shard's retained suffix above `since` (less
    /// `exclude`'s own updates) into the digest `slots`, straight off
    /// each engine's in-memory sorted log. A shard whose high water
    /// never passed `since` contributes nothing without touching its
    /// engines.
    pub(crate) fn fold_digest(
        &mut self,
        since: u64,
        exclude: Pid,
        groups: u32,
        slots: &mut [HealDigest],
    ) {
        if self.high_water <= since {
            return;
        }
        for (key, engine) in self.engines_mut() {
            let slot = digest_slot(key, groups) as usize;
            engine.digest_suffix(since, |ts, hash| {
                if ts.pid != exclude {
                    slots[slot].fold(hash);
                }
            });
        }
    }

    /// This shard's keys as heal-plan candidates, if its high water
    /// passed `since` — the same pre-filter as [`Shard::fold_digest`].
    pub(crate) fn heal_candidates(&self, since: u64, out: &mut Vec<(usize, Key)>) {
        if self.high_water > since {
            out.extend(self.keys().map(|k| (self.idx, k)));
        }
    }

    /// One bounded-window suffix read of `key` (the chunk reader).
    #[allow(clippy::type_complexity)]
    pub(crate) fn suffix_window(
        &mut self,
        key: Key,
        since: u64,
        after: Option<Timestamp>,
        limit: usize,
    ) -> (Vec<UpdateMsg<A::Update>>, bool) {
        match self.engine_mut(key) {
            Some(engine) => engine.suffix_since_window(since, after, limit),
            // The key vanished mid-plan (cannot happen while the
            // session pins retention, but stay total).
            None => (Vec::new(), false),
        }
    }

    /// Hand every live engine the stability `floor` and let it
    /// compact; one whose log that emptied leaves the live list, owing
    /// one last flush, and offers its buffer.
    fn sweep(&mut self, floor: u64) {
        let Shard {
            slots,
            live,
            unflushed,
            lenders,
            ..
        } = self;
        live.retain(|&at| {
            let slot = &mut slots[at as usize];
            slot.engine.raise_floor(floor);
            slot.engine.tick_maintenance();
            if slot.engine.log_len() > 0 {
                return true;
            }
            slot.live = false;
            offer(lenders, slot, at);
            if !slot.unflushed {
                slot.unflushed = true;
                unflushed.push(at);
            }
            false
        });
    }

    /// Flush the storage backend of every engine that can have
    /// journaled or moved its clock since the last flush: the live
    /// ones and the unflushed idle ones (durability point). One
    /// commit for the shard: every key but the walk's last only
    /// stages its flush ([`LogBackend::stage_flush`]), and the last
    /// key's `flush` makes all of them durable.
    pub(crate) fn flush_backends(&mut self) {
        let Shard {
            slots,
            live,
            unflushed,
            ..
        } = self;
        // A slot back on the live list since it was listed is flushed
        // with the live ones.
        unflushed.retain(|&at| {
            let slot = &mut slots[at as usize];
            slot.unflushed = false;
            !slot.live
        });
        // Staged flushes are durable only because the walk's last key
        // runs `flush`.
        let walk = live.len() + unflushed.len();
        for (nth, &at) in live.iter().chain(unflushed.iter()).enumerate() {
            let engine = &mut slots[at as usize].engine;
            if nth + 1 == walk {
                engine.flush_backend();
            } else {
                engine.stage_backend_flush();
            }
        }
        unflushed.clear();
    }
}

/// One shard's slice of a burst: `(key, message)` pairs bound for
/// that shard's per-key engines.
pub(crate) type Bucket<A> = Vec<(Key, UpdateMsg<<A as UqAdt>::Update>)>;

/// A replica's stability knowledge, kept once per [`ShardSet`] — the
/// only place it is kept: the highest clock heard from each of the
/// cluster's pids ([`StrategyFactory::cluster_size`]), the retention
/// pin, the floor and the floor of the last sweep.
///
/// The **floor** is the minimum, over the cluster's pids, of the
/// clocks heard, capped by the pin; it is 0 until every pid has been
/// heard, and always 0 for a factory that names no cluster, whose keys
/// no heartbeat or tick visits. Peers enter by heartbeat, and by every
/// update their FIFO link delivers: a stamp `c` from `p` over `p`'s
/// link says what a heartbeat `(p, c)` says — a frame on its own before
/// its insertion, a burst's highest stamp per sender after the whole
/// burst is in. An update carried by a heal (`Repair`, `RepairChunk`)
/// is another replica's, out of its send order, and enters nothing. The
/// replica's own pid enters by its own stamps and by the tick's clock
/// only: a clock that the replica merged is not progress of its own,
/// and a read is none either. Every insertion hands its key the floor;
/// a sweep hands it to every live engine and compacts it, so afterwards
/// no live key holds an entry at or below it. A heartbeat or tick that
/// finds the floor where the last sweep put it visits no key.
///
/// A pool's workers keep one `Stability` each. A frame delivered on
/// its own goes to its key's worker alone, which hears the stamp
/// before the insertion, as here; the other workers are handed it with
/// the pool's next burst, tick or summary. A burst's stamps go to every
/// worker behind the burst's ingest jobs. A worker may hear a stamp
/// late, never ahead of the frames its sender sent before it.
///
/// The pin needs no engine's help: a key drains through the floor it
/// is handed, and the floor is capped already.
#[derive(Clone, Debug)]
pub(crate) struct Stability {
    /// Highest clock heard from each of the cluster's pids, by pid
    /// (the replica's own included); empty without a cluster.
    heard: Vec<u64>,
    /// The compaction pin while peers are down or heals are landing
    /// ([`Executor::set_retention`]).
    cap: Option<u64>,
    /// The minimum of `heard`, capped by `cap`; 0 without a cluster.
    floor: u64,
    /// The floor of the last sweep.
    swept: u64,
}

impl Stability {
    fn new(cluster: Option<usize>) -> Self {
        Stability {
            heard: vec![0; cluster.unwrap_or(0)],
            cap: None,
            floor: 0,
            swept: 0,
        }
    }

    /// Raise `pid`'s heard clock to `clock`. A pid outside the cluster
    /// is not kept: it cannot move the floor.
    fn hear(&mut self, pid: u32, clock: u64) {
        if let Some(heard) = self.heard.get_mut(pid as usize) {
            if clock > *heard {
                *heard = clock;
                self.settle();
            }
        }
    }

    /// Pin the floor at `cap`, or release it.
    fn pin(&mut self, cap: Option<u64>) {
        self.cap = cap;
        self.settle();
    }

    fn settle(&mut self) {
        let heard = self.heard.iter().copied().min().unwrap_or(0);
        self.floor = heard.min(self.cap.unwrap_or(u64::MAX));
    }

    /// Has the floor risen above the last sweep's? If so, the sweep
    /// about to run is recorded at it.
    fn sweep_due(&mut self) -> bool {
        let due = self.floor > self.swept;
        if due {
            self.swept = self.floor;
        }
        due
    }

    /// Take in what another part of the same replica knows (the pool's
    /// drain joins its workers' sets): every clock at its highest, the
    /// last sweep at the lowest floor either swept to.
    fn join(&mut self, other: &Stability) {
        for (heard, &theirs) in self.heard.iter_mut().zip(&other.heard) {
            *heard = (*heard).max(theirs);
        }
        self.swept = self.swept.min(other.swept);
        self.settle();
    }
}

/// A replica's **data plane**: a group of shards, what engine creation
/// needs on first touch of a key, and the streaming monitor watching
/// those shards' keys. Every shard-level operation is written here,
/// once; the two executors differ only in who calls it. A [`UcStore`]
/// holds one set owning every shard and calls it on the caller's
/// thread; each [`IngestPool`](crate::pool::IngestPool) worker holds
/// one set owning its stride of the shards ([`ShardSet::split`]) and
/// calls it from its job loop. The set owns no clock: stamps and `now`
/// come from whoever holds the replica's Lamport clock, and shards are
/// named by their global index (`hash(key) % shards` over the whole
/// replica).
#[derive(Clone)]
pub(crate) struct ShardSet<A: UqAdt, F: StrategyFactory<A>, P: BackendFactory<A>> {
    /// Ascending by global index, one every `stride`: shard `g` sits
    /// in slot `g / stride`.
    shards: Vec<Shard<A, F::Strategy, P::Backend>>,
    stride: usize,
    pub(crate) adt: A,
    pub(crate) pid: u32,
    factory: F,
    pub(crate) persist: P,
    /// What the replica has heard, and when its shards were last
    /// swept: one per set, so a heartbeat costs one floor check here,
    /// not one per shard.
    stability: Stability,
    /// Streaming consistency monitor over this set's keys
    /// ([`ShardSet::attach_monitor`]). Sets own disjoint shards, hence
    /// disjoint keys, so per-set counters sum exactly.
    monitor: Option<OnlineMonitor<A>>,
}

impl<A: UqAdt, F: StrategyFactory<A>, P: BackendFactory<A>> ShardSet<A, F, P> {
    /// Number of shards in this set.
    pub(crate) fn len(&self) -> usize {
        self.shards.len()
    }

    /// Number of keys with engines.
    fn key_count(&self) -> usize {
        self.shards.iter().map(|s| s.key_count()).sum()
    }

    /// The shard at position `slot` of this set ([`ShardSet::slot`]).
    pub(crate) fn shard_at_mut(&mut self, slot: usize) -> &mut Shard<A, F::Strategy, P::Backend> {
        &mut self.shards[slot]
    }

    /// Slots owed a publication, over this set's shards
    /// ([`Shard::unpublished`]).
    pub(crate) fn unpublished(&self) -> usize {
        self.shards.iter().map(|s| s.unpublished()).sum()
    }
}

impl<A, F, P> ShardSet<A, F, P>
where
    A: UqAdt + Clone,
    F: StrategyFactory<A>,
    P: BackendFactory<A>,
{
    fn new(adt: A, pid: u32, shards: usize, factory: F, persist: P) -> Self {
        ShardSet {
            shards: (0..shards).map(Shard::empty).collect(),
            stride: 1,
            adt,
            pid,
            stability: Stability::new(factory.cluster_size()),
            factory,
            persist,
            monitor: None,
        }
    }

    /// Deal a whole replica's shards out to `parts` sets, shard `g` to
    /// set `g % parts`, each knowing what the replica heard. The
    /// monitor stays behind: it watched keys that now live in
    /// different sets.
    pub(crate) fn split(self, parts: usize) -> Vec<Self> {
        debug_assert_eq!(self.stride, 1, "only a whole replica's set is split");
        let mut out: Vec<Self> = (0..parts)
            .map(|_| ShardSet {
                shards: Vec::new(),
                stride: parts,
                adt: self.adt.clone(),
                pid: self.pid,
                factory: self.factory.clone(),
                persist: self.persist.clone(),
                stability: self.stability.clone(),
                monitor: None,
            })
            .collect();
        for shard in self.shards {
            out[shard.idx % parts].shards.push(shard);
        }
        out
    }

    /// Undo [`ShardSet::split`], joining what the parts heard. The
    /// parts' monitors are dropped with the executor that attached
    /// them.
    ///
    /// # Panics
    ///
    /// When the parts are not every part of one split.
    pub(crate) fn join(parts: Vec<Self>) -> Self {
        let mut parts = parts.into_iter();
        let mut whole = parts.next().expect("a replica has at least one shard");
        for part in parts {
            whole.stability.join(&part.stability);
            whole.shards.extend(part.shards);
        }
        whole.shards.sort_unstable_by_key(|shard| shard.idx);
        assert!(
            whole.shards.iter().enumerate().all(|(i, s)| s.idx == i),
            "every shard returned by exactly one part"
        );
        whole.stride = 1;
        whole.monitor = None;
        whole
    }

    /// Where shard `shard` (global index) sits in this set: shards are
    /// dealt out round-robin in ascending order, so no search.
    pub(crate) fn slot(&self, shard: usize) -> usize {
        // A 64-bit divide costs tens of cycles; a whole replica's set
        // (the store's, a one-worker pool's) sits on the per-update
        // path and skips it.
        let slot = if self.stride == 1 {
            shard
        } else {
            shard / self.stride
        };
        debug_assert_eq!(self.shards[slot].idx, shard, "shard routed to its set");
        slot
    }

    /// Shard `shard` (global index) of this set.
    pub(crate) fn shard(&self, shard: usize) -> &Shard<A, F::Strategy, P::Backend> {
        &self.shards[self.slot(shard)]
    }

    /// The global indices of this set's shards, ascending.
    pub(crate) fn indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.shards.iter().map(|shard| shard.idx)
    }

    /// `key`'s engine in shard `shard` for a read, if it has one.
    pub(crate) fn engine_mut(
        &mut self,
        shard: usize,
        key: Key,
    ) -> Option<&mut ReplicaEngine<A, F::Strategy, P::Backend>> {
        let slot = self.slot(shard);
        self.shards[slot].engine_mut(key)
    }

    /// Switch every shard's publication listing off
    /// ([`Shard::stop_publishing`]): the set leaves its pool worker.
    pub(crate) fn stop_publishing(&mut self) {
        for shard in &mut self.shards {
            shard.stop_publishing();
        }
    }

    /// Rebuild every key the backend factory knows about as
    /// `fold(base) + replay(tail)` ([`ReplicaEngine::recover`]);
    /// returns the highest clock a recovered engine had reached or a
    /// recovered base was drained through. A base's bound is the
    /// replica's floor, which can sit above every entry of its key, and
    /// a flush commits the shard journals before the store clock: were
    /// the process to die between the two, the store clock read back
    /// could be below a base, and the key's next stamp inside it.
    fn recover(&mut self) -> u64 {
        let mut clock = 0;
        for shard in &mut self.shards {
            for (key, backend) in self.persist.open_all(shard.idx) {
                let strategy = self.factory.make(&self.adt);
                let engine = ReplicaEngine::recover(self.adt.clone(), self.pid, strategy, backend);
                clock = clock.max(engine.clock()).max(engine.log().floor());
                shard.adopt(key, engine);
            }
        }
        clock
    }

    /// Show the monitor the updates an insertion is about to apply:
    /// one branch when none is attached, whatever the burst's size.
    fn observe_updates<'a>(
        &mut self,
        updates: impl IntoIterator<Item = (Key, Timestamp, &'a A::Update)>,
    ) where
        A::Update: 'a,
    {
        if let Some(mon) = &mut self.monitor {
            for (key, ts, update) in updates {
                mon.observe_update(key, ts.clock, ts.pid, update);
            }
        }
    }

    /// Run an insertion against `key`'s engine (created, handed the
    /// floor and listed live as needed — see [`Shard::insert_into`]),
    /// noting its clock on the shard.
    fn insert_into<R>(
        &mut self,
        shard: usize,
        key: Key,
        clock: u64,
        f: impl FnOnce(&mut ReplicaEngine<A, F::Strategy, P::Backend>) -> R,
    ) -> R {
        let slot = self.slot(shard);
        let shard = &mut self.shards[slot];
        shard.note_clock(clock);
        shard.insert_into(
            key,
            &self.adt,
            self.pid,
            &self.factory,
            &self.persist,
            self.stability.floor,
            f,
        )
    }

    /// Apply a locally issued update, already stamped `ts` by the
    /// replica's clock; the broadcast message. The stamp is the
    /// replica's own progress toward the stability floor.
    pub(crate) fn insert_local(
        &mut self,
        shard: usize,
        key: Key,
        ts: Timestamp,
        u: A::Update,
    ) -> UpdateMsg<A::Update> {
        self.observe_updates([(key, ts, &u)]);
        self.stability.hear(self.pid, ts.clock);
        self.insert_into(shard, key, ts.clock, |engine| engine.local_update_at(ts, u))
    }

    /// Apply one peer update (Algorithm 1 lines 8–11; redelivery is a
    /// no-op), moving it into the key's log. Hears no clock: a frame's
    /// sender is heard by [`ShardSet::delivered`], a heal's payload not
    /// at all.
    pub(crate) fn insert_remote(&mut self, shard: usize, key: Key, msg: UpdateMsg<A::Update>) {
        self.observe_updates([(key, msg.ts, &msg.update)]);
        self.insert_into(shard, key, msg.ts.clock, |engine| engine.on_deliver(msg));
    }

    /// Ingest a burst already split per shard (global index, bucket):
    /// one repair per key per burst ([`Shard::ingest`]). Returns the
    /// number of messages taken.
    pub(crate) fn ingest(&mut self, buckets: impl IntoIterator<Item = (usize, Bucket<A>)>) -> u64 {
        let mut taken = 0;
        for (shard, bucket) in buckets {
            taken += bucket.len() as u64;
            self.observe_updates(bucket.iter().map(|(key, m)| (*key, m.ts, &m.update)));
            let slot = self.slot(shard);
            self.shards[slot].ingest(
                bucket,
                &self.adt,
                self.pid,
                &self.factory,
                &self.persist,
                self.stability.floor,
            );
        }
        taken
    }

    /// `pid`'s FIFO link delivered its update stamped `clock`: what a
    /// heartbeat `(pid, clock)` says of the floor ([`Stability`]), but
    /// no heartbeat for the monitor, and no sweep — the keys the floor
    /// now drains are drained by their next insertion or the next
    /// heartbeat's or tick's sweep. An echo of the replica's own update
    /// is not its progress.
    pub(crate) fn delivered(&mut self, pid: u32, clock: u64) {
        if pid != self.pid {
            self.stability.hear(pid, clock);
        }
    }

    /// Answer a query on `key`; the caller has ticked the replica's
    /// clock for it. It moves no clock of the key and not the floor.
    /// An untouched key answers from the initial state without
    /// instantiating an engine.
    pub(crate) fn query(&mut self, shard: usize, key: Key, q: &A::QueryIn) -> A::QueryOut {
        let slot = self.slot(shard);
        let mut engine = self.shards[slot].engine_mut(key);
        let out = match engine.as_mut() {
            Some(engine) => engine.answer(q),
            None => self.adt.observe_owned(self.adt.initial(), q),
        };
        // Sampled keys verify the served state against the monitor's
        // shadow fold (the online UC check); unsampled keys pay one
        // branch.
        if let Some(mon) = self.monitor.as_mut().filter(|mon| mon.sampled(key)) {
            let state = engine.map_or_else(|| self.adt.initial(), |engine| engine.materialize());
            mon.check_query_state(key, &state);
        }
        out
    }

    /// A peer announced its clock: remember it, and sweep if it raised
    /// the stability floor.
    pub(crate) fn heartbeat(&mut self, pid: u32, clock: u64) {
        if let Some(mon) = &mut self.monitor {
            mon.observe_heartbeat(pid, clock);
        }
        self.stability.hear(pid, clock);
        self.sweep();
    }

    /// If the stability floor rose since the last sweep, hand every
    /// live engine the floor and compact it.
    fn sweep(&mut self) {
        if self.stability.sweep_due() {
            for shard in &mut self.shards {
                shard.sweep(self.stability.floor);
            }
        }
    }

    /// One maintenance tick at the replica's clock `clock`, the
    /// replica's own progress: compact every live key's stable prefix
    /// if that raised the stability floor, then roll the monitor's
    /// window — fold our own progress into its stability watermark,
    /// compact its finalized prefixes, and compare every sampled key's
    /// state against its shadow fold (the online EC check).
    pub(crate) fn maintain(&mut self, clock: u64) {
        // Compaction first: the sweep then judges the states this tick
        // leaves behind, so a fold compaction corrupts is flagged now,
        // not a tick later.
        self.stability.hear(self.pid, clock);
        self.sweep();
        let Some(mon) = &mut self.monitor else {
            return;
        };
        mon.observe_heartbeat(self.pid, clock);
        mon.tick();
        for shard in &mut self.shards {
            for (key, engine) in shard.engines_mut() {
                if mon.sampled(key) {
                    mon.check_tick_state(key, &engine.materialize());
                }
            }
        }
    }

    /// Every key's state at cut `cut`: the fold of exactly the
    /// delivered updates stamped `clock ≤ cut`, or the first
    /// [`CutError`] hit.
    #[allow(clippy::type_complexity)]
    pub(crate) fn cut(&mut self, cut: u64) -> Result<Vec<(Key, A::State)>, CutError> {
        let mut states = Vec::new();
        for shard in &mut self.shards {
            for (key, engine) in shard.engines_mut() {
                states.push((key, engine.state_at_cut(cut)?));
            }
        }
        // Online SNAP check: every sampled key's recorded state must
        // equal the shadow fold of the prefix ≤ cut (a torn cut
        // surfaces here within the same call).
        if let Some(mon) = &mut self.monitor {
            for (key, state) in &states {
                mon.observe_cut(cut, *key, state);
            }
        }
        Ok(states)
    }

    /// [`Executor::digest_suffix`] over this set's shards.
    pub(crate) fn digest_suffix(
        &mut self,
        since: u64,
        exclude: Pid,
        groups: u32,
    ) -> Vec<HealDigest> {
        let mut slots = vec![HealDigest::default(); groups as usize * RANGES as usize];
        for shard in &mut self.shards {
            shard.fold_digest(since, exclude, groups, &mut slots);
        }
        slots
    }

    /// [`Executor::heal_candidates`] over this set's shards, in
    /// shard order.
    pub(crate) fn heal_candidates(&self, since: u64) -> Vec<(usize, Key)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            shard.heal_candidates(since, &mut out);
        }
        out
    }

    /// [`Executor::collect_window`] on shard `shard`.
    #[allow(clippy::type_complexity)]
    pub(crate) fn collect_window(
        &mut self,
        shard: usize,
        key: Key,
        since: u64,
        after: Option<Timestamp>,
        limit: usize,
    ) -> (Vec<UpdateMsg<A::Update>>, bool) {
        let slot = self.slot(shard);
        self.shards[slot].suffix_window(key, since, after, limit)
    }

    /// [`Executor::set_retention`]: pin the stability floor at
    /// `cap`, or release it. No engine is visited: each drains through
    /// the floor it is handed next.
    pub(crate) fn set_retention(&mut self, cap: Option<u64>) {
        self.stability.pin(cap);
    }

    /// Attach a streaming consistency monitor, replacing any attached
    /// before. Keys that already have engines are excluded from
    /// sampling — their prefix was never observed, so judging them
    /// would only produce false positives.
    pub(crate) fn attach_monitor(&mut self, cfg: MonitorConfig) {
        let mut mon = OnlineMonitor::new(self.adt.clone(), cfg);
        mon.exclude_keys(self.keys());
        self.monitor = Some(mon);
    }

    /// What this set reports, in one read ([`Summary`]).
    pub(crate) fn summary(&self) -> Summary {
        Summary {
            keys: self.key_count(),
            live_keys: self.live_keys(),
            log_len: self.log_len(),
            log_capacity: self.sum_engines(|e| e.log().capacity() as u64) as usize,
            kept_folds: self.sum_engines(|e| u64::from(e.strategy().holds_fold())) as usize,
            slot_bytes: self.shards.iter().map(|s| s.slot_bytes()).sum(),
            index_bytes: self.shards.iter().map(|s| s.index_bytes()).sum(),
            repair_events: self.sum_engines(|e| e.repair_events()),
            repair_steps: self.sum_engines(|e| e.repair_steps()),
            floor: self.stability.floor,
            monitor: self.monitor.as_ref().map(|m| m.stats().clone()),
        }
    }

    /// Flush the storage backend of every engine that journaled or
    /// moved its clock since the last flush, one commit per shard
    /// ([`Shard::flush_backends`]). Every flush of a replica's engines
    /// is this one — the store's, the pool's job and both worker-exit
    /// paths — so the flush discipline cannot drift between them.
    pub(crate) fn flush_backends(&mut self) {
        for shard in &mut self.shards {
            shard.flush_backends();
        }
    }

    /// The keys with engines, shard by shard, each in creation order.
    fn keys(&self) -> impl Iterator<Item = Key> + '_ {
        self.shards.iter().flat_map(|s| s.keys())
    }

    /// A per-engine counter, summed over every key.
    fn sum_engines(&self, f: impl Fn(&ReplicaEngine<A, F::Strategy, P::Backend>) -> u64) -> u64 {
        self.shards.iter().flat_map(|s| s.engines()).map(f).sum()
    }

    /// Keys on a live list (see [`UcStore::live_keys`]).
    fn live_keys(&self) -> usize {
        self.shards.iter().map(|s| s.live_keys()).sum()
    }

    /// Retained log entries — a walk of the live keys only, an idle
    /// key's log being empty by definition.
    fn log_len(&self) -> usize {
        self.shards.iter().map(|s| s.live_log_len()).sum()
    }
}

/// What a replica's shards report, in one read: the counters behind
/// the `uc_store_*` gauges, and the monitor's. A store reads its one
/// shard set in place; a pool asks each worker for its own, behind
/// every job queued before, and merges the answers.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    pub(crate) keys: usize,
    pub(crate) live_keys: usize,
    pub(crate) log_len: usize,
    /// Entry slots allocated by the logs, summed over every key, idle
    /// ones included: an idle key keeps its buffer until its shard
    /// lends it to a key that wakes without one.
    pub(crate) log_capacity: usize,
    /// Keys whose strategy holds a query fold beside its log
    /// ([`RepairStrategy::holds_fold`]).
    pub(crate) kept_folds: usize,
    /// Bytes of the shards' slot arenas: keys × the size of a slot,
    /// whose engine and strategy sit inline (a kept fold is boxed
    /// apart, and counted nowhere here).
    pub(crate) slot_bytes: usize,
    /// Bytes of the shards' key index tables ([`SlotIndex`]): four per
    /// entry, empty ones included.
    pub(crate) index_bytes: usize,
    pub(crate) repair_events: u64,
    pub(crate) repair_steps: u64,
    /// The stability floor ([`Stability`]); a pool's is the lowest of
    /// its workers'.
    pub(crate) floor: u64,
    pub(crate) monitor: Option<MonitorStats>,
}

impl Summary {
    /// Two disjoint parts of one replica (two workers' shards) as one.
    pub(crate) fn merge(self, other: Summary) -> Summary {
        Summary {
            keys: self.keys + other.keys,
            live_keys: self.live_keys + other.live_keys,
            log_len: self.log_len + other.log_len,
            log_capacity: self.log_capacity + other.log_capacity,
            kept_folds: self.kept_folds + other.kept_folds,
            slot_bytes: self.slot_bytes + other.slot_bytes,
            index_bytes: self.index_bytes + other.index_bytes,
            repair_events: self.repair_events + other.repair_events,
            repair_steps: self.repair_steps + other.repair_steps,
            floor: self.floor.min(other.floor),
            monitor: match (self.monitor, other.monitor) {
                (Some(a), Some(b)) => Some(a.merge(&b)),
                (a, b) => a.or(b),
            },
        }
    }
}

/// Which shard of `shards` a key routes to (`FxHasher`, shared by
/// [`UcStore::shard_of`] and the pool's bucketing).
pub(crate) fn shard_index(key: Key, shards: usize) -> usize {
    let mut h = FxHasher::default();
    h.write_u64(key);
    (h.finish() % shards as u64) as usize
}

/// A burst split for ingest ([`split_by_shard`]): what its updates
/// bring the shards, and what its senders bring the stability floor —
/// applied in that order, after the whole burst is in.
pub(crate) struct Split<U> {
    /// Per-shard update buckets, by global shard index: the frames'
    /// updates and the heal payloads' alike.
    pub(crate) buckets: Vec<Vec<(Key, UpdateMsg<U>)>>,
    /// Each sender's highest `Update` stamp, unless a heartbeat of the
    /// same burst announces as much ([`ShardSet::delivered`]).
    pub(crate) delivered: Vec<(u32, u64)>,
    /// The heartbeats, one per pid ([`collapse_heartbeats`]).
    pub(crate) heartbeats: Vec<(u32, u64)>,
    /// The burst's maximum carried clock (callers merge it into their
    /// Lamport clock).
    pub(crate) max_clock: u64,
}

/// Split a burst into per-shard update buckets plus the clocks its
/// senders announced. One routing function for the sequential ingest
/// path and the pool's submit, so shard routing and clock accounting
/// can never drift between them.
pub(crate) fn split_by_shard<U>(
    msgs: impl IntoIterator<Item = StoreMsg<U>>,
    shards: usize,
) -> Split<U> {
    let mut buckets: Vec<Vec<(Key, UpdateMsg<U>)>> = (0..shards).map(|_| Vec::new()).collect();
    let mut delivered: Vec<(u32, u64)> = Vec::new();
    let mut heartbeats = Vec::new();
    let mut max_clock = 0u64;
    for m in msgs {
        match m {
            StoreMsg::Update { key, msg } => {
                max_clock = max_clock.max(msg.ts.clock);
                // A burst comes from a few senders: a short list.
                match delivered.iter_mut().find(|(pid, _)| *pid == msg.ts.pid) {
                    Some((_, clock)) => *clock = (*clock).max(msg.ts.clock),
                    None => delivered.push((msg.ts.pid, msg.ts.clock)),
                }
                buckets[shard_index(key, shards)].push((key, msg));
            }
            StoreMsg::Heartbeat { pid, clock } => {
                max_clock = max_clock.max(clock);
                heartbeats.push((pid, clock));
            }
            // A repair burst is just keyed updates in bulk: route each
            // through the same per-shard buckets, so heal ingest is
            // byte-identical to ordinary (deduplicating) delivery. A
            // heal *chunk* is the same thing in bounded pieces. Its
            // stamps are other replicas', out of their send order, so
            // they announce nothing.
            StoreMsg::Repair { updates } | StoreMsg::RepairChunk { updates, .. } => {
                for (key, msg) in updates {
                    max_clock = max_clock.max(msg.ts.clock);
                    buckets[shard_index(key, shards)].push((key, msg));
                }
            }
            // Pure heal-protocol control frames carry no updates and
            // need a replying context; the ingest paths drop them —
            // the protocol runtimes route them through
            // `apply_message_from` before ever batching.
            StoreMsg::DigestRequest { .. }
            | StoreMsg::DigestResponse { .. }
            | StoreMsg::RepairAck { .. } => {}
        }
    }
    let heartbeats = collapse_heartbeats(heartbeats);
    delivered.retain(|&(pid, clock)| {
        !heartbeats
            .iter()
            .any(|&(beat, announced)| beat == pid && announced >= clock)
    });
    Split {
        buckets,
        delivered,
        heartbeats,
        max_clock,
    }
}

/// How far ahead of the issued clock the persisted recovery floor is
/// pushed on a local update: one floor write buys this many local
/// timestamps before the next one.
const CLOCK_LEASE: u64 = 4096;

/// The persisted recovery clock floor, leased [`CLOCK_LEASE`] stamps
/// ahead of the issued clock, of either executor.
///
/// This is what makes crash recovery sound for *broadcast* timestamps:
/// an update is stamped, broadcast, and only durable at the next flush
/// — without the floor, a crash inside that window would reopen the
/// replica below timestamps its peers already hold, and the re-issued
/// duplicates would be silently deduplicated away (permanent
/// divergence). With it, [`UcStore::reopen`] restores the clock to at
/// least the floor, which is at least every timestamp ever issued.
///
/// A replica has one stamper, its owner, and the owner holds the
/// lease: [`ClockLease::reserve`] persists a new floor, once per
/// [`CLOCK_LEASE`] stamps, before the stamp it covers is returned, so
/// no stamp is broadcast before the write that makes it unrepeatable.
/// [`ClockLease::collapse`] brings the floor back down to the clock
/// at a flush. That is sound because the owner's read of the clock
/// bounds every stamp ever issued: every stamp was the owner's, taken
/// before the read, and other threads (a pool's readers and burst
/// submitters) only ever move the clock up.
#[derive(Clone)]
pub(crate) struct ClockLease {
    /// Highest floor persisted; `None` until the first write.
    persisted: Option<u64>,
}

impl ClockLease {
    /// A lease whose last persisted floor is `floor` (`None`: nothing
    /// persisted yet).
    pub(crate) fn new(floor: Option<u64>) -> Self {
        ClockLease { persisted: floor }
    }

    /// Ensure the persisted floor covers `issued` before it can be
    /// broadcast.
    pub(crate) fn reserve(&mut self, issued: u64, persist: impl FnOnce(u64)) {
        if self.persisted.is_none_or(|p| issued > p) {
            let floor = issued + CLOCK_LEASE;
            persist(floor);
            self.persisted = Some(floor);
        }
    }

    /// Collapse the floor to the exact clock, skipping the write when
    /// it is already there (idle ticks cost no IO).
    pub(crate) fn collapse(&mut self, clock: u64, persist: impl FnOnce(u64)) {
        if self.persisted != Some(clock) {
            persist(clock);
            self.persisted = Some(clock);
        }
    }
}

/// A sharded multi-object replica run on the caller's thread: one
/// Algorithm 1 engine per key, one Lamport clock and pid for the whole
/// store, one [`BackendFactory`] deciding where per-key logs and GC
/// bases live (default: the in-memory [`MemFactory`]). The [`Inline`]
/// instantiation of [`Node`], which holds what every replica shares;
/// see the [module docs](self) for the architecture.
pub type UcStore<A, F, P = MemFactory> = Node<Inline<A, F, P>>;

/// The inline [`Executor`]: the store's clock, its trace ring and the
/// shard set owning every shard, called directly on the caller's
/// thread — no inbox, no job, no channel. Operations run in call order
/// and cannot fail.
pub struct Inline<A: UqAdt, F: StrategyFactory<A>, P: BackendFactory<A>> {
    pub(crate) clock: LamportClock,
    pub(crate) lease: ClockLease,
    /// Ring-buffer event trace ([`UcStore::attach_trace`]); clones
    /// share the buffer, so one ring can span store and runtime.
    pub(crate) trace: Option<TraceRing>,
    /// The data plane: every shard, what builds their engines, and the
    /// streaming monitor.
    pub(crate) shards: ShardSet<A, F, P>,
}

impl<A, F, P> Clone for Inline<A, F, P>
where
    A: UqAdt + Clone,
    F: StrategyFactory<A>,
    F::Strategy: Clone,
    P: BackendFactory<A>,
    P::Backend: Clone,
{
    fn clone(&self) -> Self {
        Inline {
            clock: self.clock.clone(),
            lease: self.lease.clone(),
            trace: self.trace.clone(),
            shards: self.shards.clone(),
        }
    }
}

impl<A, F, P> Inline<A, F, P>
where
    A: UqAdt + Clone,
    F: StrategyFactory<A>,
    P: BackendFactory<A>,
{
    fn shard_of(&self, key: Key) -> usize {
        shard_index(key, self.shards.len())
    }

    fn snapshot_no_tick(&mut self, cut: u64) -> Result<StoreSnapshot<A>, CutError> {
        let states = self.shards.cut(cut)?.into_iter().collect();
        if let Some(tr) = &self.trace {
            tr.record(TraceKind::Snapshot, 0, cut);
        }
        Ok(StoreSnapshot::new(self.shards.adt.clone(), cut, states))
    }

    fn deliver_update(&mut self, key: Key, msg: UpdateMsg<A::Update>) {
        self.clock.merge(msg.ts.clock);
        self.shards.insert_remote(self.shard_of(key), key, msg);
    }

    fn ingest_burst(&mut self, msgs: impl IntoIterator<Item = StoreMsg<A::Update>>) {
        let split = split_by_shard(msgs, self.shards.len());
        // Every carried clock, the heartbeats' included.
        self.clock.merge(split.max_clock);
        let buckets = split.buckets.into_iter().enumerate();
        let taken = self.shards.ingest(buckets.filter(|(_, b)| !b.is_empty()));
        if let Some(tr) = self.trace.as_ref().filter(|_| taken > 0) {
            tr.record(TraceKind::Ingest, 0, taken);
        }
        // The senders' stamps count once the whole burst is in, as its
        // heartbeats do.
        for (pid, clock) in split.delivered {
            self.shards.delivered(pid, clock);
        }
        for (pid, clock) in split.heartbeats {
            self.shards.heartbeat(pid, clock);
        }
    }

    fn tick_maintenance(&mut self) {
        let clock = self.clock.now();
        self.shards.maintain(clock);
        if let (Some(tr), Some(_)) = (&self.trace, &self.shards.monitor) {
            tr.record(TraceKind::Tick, 0, clock);
        }
    }

    fn flush_backends(&mut self) {
        self.shards.flush_backends();
        let persist = &self.shards.persist;
        self.lease
            .collapse(self.clock.now(), |floor| persist.persist_store_clock(floor));
    }
}

impl<A, F, P> Executor for Inline<A, F, P>
where
    A: UqAdt + Clone,
    F: StrategyFactory<A>,
    P: BackendFactory<A>,
{
    type Adt = A;
    type Error = Infallible;
    const METRICS: &'static str = "uc_store";

    fn pid(&self) -> Pid {
        self.shards.pid
    }

    fn clock_now(&self) -> u64 {
        self.clock.now()
    }

    fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Tick the shared clock, stamp (reserving the clock floor — see
    /// `ClockLease`), apply to the key's engine, and return the
    /// broadcast message.
    fn update(&mut self, key: Key, u: A::Update) -> Result<StoreMsg<A::Update>, Infallible> {
        let ts = Timestamp::new(self.clock.tick(), self.shards.pid);
        let persist = &self.shards.persist;
        self.lease
            .reserve(ts.clock, |floor| persist.persist_store_clock(floor));
        if let Some(tr) = &self.trace {
            tr.record(TraceKind::Update, key, ts.clock);
        }
        let msg = self.shards.insert_local(self.shard_of(key), key, ts, u);
        Ok(StoreMsg::Update { key, msg })
    }

    fn query(&mut self, key: Key, q: &A::QueryIn) -> Result<A::QueryOut, Infallible> {
        self.clock.tick();
        Ok(self.shards.query(self.shard_of(key), key, q))
    }

    fn consistent_snapshot(&mut self) -> Result<StoreSnapshot<A>, Infallible> {
        let cut = self.clock.tick();
        Ok(self
            .snapshot_no_tick(cut)
            .expect("a cut at the current clock can never predate compaction"))
    }

    /// One frame, moved into the shards: an update or a repair's
    /// updates go to their keys' logs one by one, a heartbeat to the
    /// stability floor. An update's stamp reaches the floor before its
    /// insertion, so the insertion drains through it; a repair's
    /// stamps never do. `Node::apply_message_from` answers the heal
    /// frames itself; like `split_by_shard`, this ingests a chunk's
    /// updates and drops a control frame were one to arrive.
    fn deliver(&mut self, msg: StoreMsg<A::Update>) -> Result<(), Infallible> {
        match msg {
            StoreMsg::Update { key, msg } => {
                self.shards.delivered(msg.ts.pid, msg.ts.clock);
                self.deliver_update(key, msg);
            }
            StoreMsg::Heartbeat { pid, clock } => {
                self.clock.merge(clock);
                self.shards.heartbeat(pid, clock);
            }
            StoreMsg::Repair { updates } | StoreMsg::RepairChunk { updates, .. } => {
                let n = updates.len() as u64;
                for (key, msg) in updates {
                    self.deliver_update(key, msg);
                }
                if let Some(tr) = &self.trace {
                    tr.record(TraceKind::Heal, 0, n);
                }
            }
            StoreMsg::DigestRequest { .. }
            | StoreMsg::DigestResponse { .. }
            | StoreMsg::RepairAck { .. } => {}
        }
        Ok(())
    }

    /// The per-shard batched ingest path, moving (never cloning) the
    /// burst's messages.
    fn ingest(&mut self, burst: Vec<StoreMsg<A::Update>>) -> Result<(), Infallible> {
        if let Some(tr) = &self.trace {
            for m in &burst {
                if let StoreMsg::Repair { updates } = m {
                    tr.record(TraceKind::Heal, 0, updates.len() as u64);
                }
            }
        }
        self.ingest_burst(burst);
        Ok(())
    }

    fn maintain_and_flush(&mut self) -> Result<(), Infallible> {
        self.tick_maintenance();
        self.flush_backends();
        Ok(())
    }

    fn attach_monitor(&mut self, cfg: MonitorConfig) -> Result<(), Infallible> {
        self.shards.attach_monitor(cfg);
        Ok(())
    }

    fn summary(&self) -> Result<Summary, Infallible> {
        Ok(self.shards.summary())
    }

    fn digest_suffix(
        &mut self,
        since: u64,
        exclude: Pid,
        groups: u32,
    ) -> Result<Vec<HealDigest>, Infallible> {
        Ok(self.shards.digest_suffix(since, exclude, groups))
    }

    fn heal_candidates(&mut self, since: u64) -> Result<Vec<(usize, Key)>, Infallible> {
        Ok(self.shards.heal_candidates(since))
    }

    fn collect_window(
        &mut self,
        shard: usize,
        key: Key,
        since: u64,
        after: Option<Timestamp>,
        limit: usize,
    ) -> Result<(Vec<UpdateMsg<A::Update>>, bool), Infallible> {
        Ok(self.shards.collect_window(shard, key, since, after, limit))
    }

    fn set_retention(&mut self, cap: Option<u64>) -> Result<(), Infallible> {
        self.shards.set_retention(cap);
        Ok(())
    }
}

impl<A, F> UcStore<A, F>
where
    A: UqAdt + Clone,
    F: StrategyFactory<A>,
{
    /// A fresh in-memory store for replica `pid` with `shards` shards
    /// (≥ 1). Pinned to [`MemFactory`] so pre-refactor call sites stay
    /// inference-clean; use [`UcStore::with_persistence`] for a
    /// persistent backend.
    ///
    /// # Panics
    ///
    /// On zero shards, or on a `pid` outside the cluster the factory
    /// names ([`StrategyFactory::cluster_size`]): stability would then
    /// ignore the replica's own clock, and no log would ever compact.
    pub fn new(adt: A, pid: u32, shards: usize, factory: F) -> Self {
        Self::with_persistence(adt, pid, shards, factory, MemFactory)
    }
}

impl<A, F, P> UcStore<A, F, P>
where
    A: UqAdt + Clone,
    F: StrategyFactory<A>,
    P: BackendFactory<A>,
{
    /// A fresh store whose per-key logs live behind `persist`'s
    /// backends (engines open theirs lazily, on first touch of a key).
    ///
    /// # Panics
    ///
    /// On zero shards, on a `pid` outside the cluster the factory names
    /// ([`StrategyFactory::cluster_size`]), or when
    /// `persist` refuses the bind ([`BackendFactory::bind_replica`])
    /// — in particular, a persistent factory pointed at a root that
    /// already holds a bound store panics here: use
    /// [`UcStore::reopen`] for surviving state.
    pub fn with_persistence(adt: A, pid: u32, shards: usize, factory: F, persist: P) -> Self {
        Self::assemble(adt, pid, shards, factory, persist, true)
    }

    fn assemble(adt: A, pid: u32, shards: usize, factory: F, persist: P, fresh: bool) -> Self {
        assert!(shards >= 1, "a store needs at least one shard");
        if let Some(n) = factory.cluster_size() {
            assert!(
                (pid as usize) < n,
                "pid {pid} must be within the cluster of {n}"
            );
        }
        persist.bind_replica(pid, shards, fresh);
        Node {
            heal: Healer::default(),
            exec: Inline {
                clock: LamportClock::new(),
                lease: ClockLease::new(None),
                trace: None,
                shards: ShardSet::new(adt, pid, shards, factory, persist),
            },
        }
    }

    /// Reopen a store from its persisted state: every key `persist`
    /// knows about is rebuilt as `fold(base) + replay(tail)`
    /// ([`ReplicaEngine::recover`]), and the shared Lamport clock is
    /// restored to the maximum of the store-level watermark, every
    /// recovered engine's clock and every recovered base's bound. The
    /// replica configuration (`pid`,
    /// `shards`, strategy factory) must match the store that wrote the
    /// state — shard routing is `hash(key) % shards`, so a different
    /// shard count would look keys up in the wrong place; persistent
    /// factories record the configuration on first use and panic on a
    /// mismatch here ([`BackendFactory::bind_replica`]).
    pub fn reopen(adt: A, pid: u32, shards: usize, factory: F, persist: P) -> Self {
        let mut store = Self::assemble(adt, pid, shards, factory, persist, false);
        let inline = &mut store.exec;
        let floor = inline.shards.persist.load_store_clock();
        inline.lease = ClockLease::new(Some(floor));
        let recovered = inline.shards.recover();
        inline.clock.merge(floor.max(recovered));
        store
    }

    /// Flush the storage backend of every engine that journaled or
    /// moved its clock since the last flush — the live keys and those
    /// that went idle meanwhile — and persist the shared clock
    /// watermark: the durability point. The runtimes call this from
    /// [`Protocol::on_tick`](uc_sim::Protocol::on_tick), so segment
    /// flushing rides the event runtime's maintenance sweep with no dedicated
    /// threads; a no-op for in-memory stores. An idle key writes
    /// nothing: the clocks it has yet to hear are covered by the
    /// store-level floor, collapsed here from its lease back to the
    /// actual clock.
    pub fn flush_backends(&mut self) {
        self.exec.flush_backends();
    }

    /// Which shard a key routes to.
    pub fn shard_of(&self, key: Key) -> usize {
        self.exec.shard_of(key)
    }

    /// Perform a local update on `key`: tick the shared clock, stamp
    /// (reserving the persisted clock floor), apply to the key's
    /// engine, and return the broadcast message.
    pub fn update(&mut self, key: Key, u: A::Update) -> StoreMsg<A::Update> {
        let Ok(msg) = self.exec.update(key, u);
        msg
    }

    /// Answer a query on `key` from local knowledge. Ticks the shared
    /// clock (Algorithm 1 line 13), so updates issued afterwards — on
    /// *any* key — order after everything this query saw.
    pub fn query(&mut self, key: Key, q: &A::QueryIn) -> A::QueryOut {
        let Ok(out) = self.exec.query(key, q);
        out
    }

    /// An immutable multi-key view at cut `cut`: every instantiated
    /// key's state is the fold of exactly the delivered updates
    /// stamped `clock ≤ cut`. Ticks the shared clock (like
    /// [`UcStore::query`], Algorithm 1 line 13) so updates issued
    /// after the snapshot order after everything it could observe.
    /// Errors when `cut` predates a key's compaction bound (the
    /// prefix needed to rebuild that key's state was folded away —
    /// retry with `cut ≥` the reported bound, or take a
    /// [`UcStore::consistent_snapshot`]).
    pub fn snapshot_at(&mut self, cut: u64) -> Result<StoreSnapshot<A>, CutError> {
        self.exec.clock.tick();
        self.exec.snapshot_no_tick(cut)
    }

    /// A snapshot at the current clock — always answerable (a key's
    /// compaction bound never exceeds the clocks it has heard, and the
    /// cut is taken strictly above our own), and inclusive of every
    /// update delivered so far.
    pub fn consistent_snapshot(&mut self) -> StoreSnapshot<A> {
        let Ok(snap) = self.exec.consistent_snapshot();
        snap
    }

    /// Ingest a whole burst with per-shard batched delivery: updates
    /// are bucketed by shard, grouped by key, and moved into each
    /// key's log with a single repair
    /// ([`ReplicaEngine::on_deliver_batch`]); each sender's highest
    /// update stamp and the heartbeats reach the stability floor
    /// afterwards (processing them last can only delay stability,
    /// never violate it). The store's one burst entry point — the path
    /// a runtime's flush takes ([`Protocol::on_batch`](uc_sim::Protocol::on_batch)
    /// hands over owned messages); a single frame goes through
    /// [`Node::apply_message_from`](crate::node::Node::apply_message_from).
    pub fn apply_batch_owned(&mut self, msgs: Vec<StoreMsg<A::Update>>) {
        self.exec.ingest_burst(msgs);
    }

    /// Count the current clock as this replica's own progress and, if
    /// that raised the stability floor, compact every live engine;
    /// then the monitor's window maintenance (stability compaction plus
    /// the online EC convergence sweep over sampled keys).
    pub fn tick_maintenance(&mut self) {
        self.exec.tick_maintenance();
    }

    /// Hand the store to a persistent shard-worker ingest pool: its
    /// shards move to long-lived worker threads fed by bounded
    /// queues, and the returned [`IngestPool`](crate::pool::IngestPool)
    /// routes updates, queries, and batched peer ingest to the owning
    /// workers. The partition posture comes along: peers held down
    /// stay down, and heal like any other.
    /// [`IngestPool::finish`](crate::pool::IngestPool::finish)
    /// drains the queues and returns the store.
    pub fn into_pool(self, cfg: crate::pool::PoolConfig) -> crate::pool::IngestPool<A, F, P>
    where
        A: Send + 'static,
        A::Update: Send,
        A::QueryIn: Send,
        A::QueryOut: Send,
        A::State: Send + Sync,
        F: Send + 'static,
        F::Strategy: Send + 'static,
        P: Send + Sync + 'static,
        P::Backend: Send + 'static,
    {
        crate::pool::IngestPool::spawn(self, cfg)
    }

    /// The state `key` would converge to with no further input
    /// (initial state for untouched keys).
    pub fn materialize_key(&mut self, key: Key) -> A::State {
        let shards = &mut self.exec.shards;
        match shards.engine_mut(shard_index(key, shards.len()), key) {
            Some(engine) => engine.materialize(),
            None => shards.adt.initial(),
        }
    }

    /// All keys this store has engines for, sorted.
    pub fn keys(&self) -> Vec<Key> {
        let mut out: Vec<Key> = self.exec.shards.keys().collect();
        out.sort_unstable();
        out
    }

    /// Number of keys with instantiated engines.
    pub fn key_count(&self) -> usize {
        self.exec.shards.key_count()
    }

    /// Retained log entries summed over all keys — a walk of the
    /// live keys only, an idle key's log being empty by definition.
    pub fn total_log_len(&self) -> usize {
        self.exec.shards.log_len()
    }

    /// Repair events summed over all keys (at most one per key per
    /// batch).
    pub fn total_repair_events(&self) -> u64 {
        self.exec.shards.sum_engines(|e| e.repair_events())
    }

    /// Repair steps (state transitions spent repairing) summed over
    /// all keys — the repair-locality metric: per-key logs keep this
    /// proportional to the touched key's suffix, not the whole store.
    pub fn total_repair_steps(&self) -> u64 {
        self.exec.shards.sum_engines(|e| e.repair_steps())
    }

    /// Access one key's engine (observability, tests).
    pub fn engine(&self, key: Key) -> Option<&ReplicaEngine<A, F::Strategy, P::Backend>> {
        let shards = &self.exec.shards;
        shards.shard(self.shard_of(key)).engine(key)
    }

    /// Attach a ring-buffer event trace (clones share the buffer, so
    /// the caller keeps a handle to drain).
    pub fn attach_trace(&mut self, ring: TraceRing) {
        self.exec.trace = Some(ring);
    }

    /// The attached trace ring, if any.
    pub fn trace(&self) -> Option<&TraceRing> {
        self.exec.trace.as_ref()
    }

    /// Drive a full chunked heal of `healed` synchronously: open the
    /// session ([`UcStore::peer_up`]) and ping-pong the protocol
    /// frames between the two stores until the session completes.
    /// The direct-drive harness for tests, benches, and examples that
    /// do not run a message-passing runtime; returns the number of
    /// chunks streamed (0 when nothing diverged).
    pub fn heal_peer<F2, P2>(&mut self, healed: &mut UcStore<A, F2, P2>) -> u64
    where
        F2: StrategyFactory<A>,
        P2: BackendFactory<A>,
    {
        let peer = healed.pid();
        let me = self.pid();
        let Ok(Some(opener)) = self.peer_up(peer) else {
            return 0;
        };
        let mut chunks = 0u64;
        let mut to_peer = vec![opener];
        while !to_peer.is_empty() {
            let mut to_me = Vec::new();
            for m in to_peer.drain(..) {
                if matches!(m, StoreMsg::RepairChunk { .. }) {
                    chunks += 1;
                }
                let Ok(replies) = healed.apply_message_from(me, m);
                to_me.extend(replies.into_iter().map(|(_, m)| m));
            }
            for m in to_me {
                let Ok(replies) = self.apply_message_from(peer, m);
                to_peer.extend(replies.into_iter().map(|(_, m)| m));
            }
        }
        chunks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use crate::heal::{CHUNK, STALL_TICKS, WINDOW};
    use crate::pool::{IngestPool, PoolConfig};
    use std::collections::BTreeSet;
    use std::sync::{Arc, Mutex};
    use uc_obs::Registry;
    use uc_spec::{SetAdt, SetQuery, SetUpdate};

    #[test]
    fn a_slot_holds_no_fold_it_does_not_keep() {
        // Key, engine (pid, clock, log, strategy) and the five list
        // flags; a kept fold is boxed in the strategy.
        type GcSlot = Slot<SetAdt<u32>, StableGc<SetAdt<u32>>, MemBackend>;
        assert!(std::mem::size_of::<GcSlot>() <= 136);
    }

    type Store = UcStore<SetAdt<u32>, CheckpointFactory>;

    fn store(pid: u32, shards: usize) -> Store {
        UcStore::new(SetAdt::new(), pid, shards, CheckpointFactory { every: 4 })
    }

    #[test]
    fn keys_are_independent_objects() {
        let mut s = store(0, 4);
        s.update(1, SetUpdate::Insert(10));
        s.update(2, SetUpdate::Insert(20));
        s.update(1, SetUpdate::Delete(10));
        assert_eq!(s.query(1, &SetQuery::Read), BTreeSet::new());
        assert_eq!(s.query(2, &SetQuery::Read), BTreeSet::from([20]));
        assert_eq!(s.query(3, &SetQuery::Read), BTreeSet::new());
        assert_eq!(s.key_count(), 2, "queries alone do not materialize keys");
    }

    #[test]
    fn timestamps_are_unique_across_keys() {
        let mut s = store(0, 2);
        let mut seen = BTreeSet::new();
        for k in 0..10u64 {
            let StoreMsg::Update { msg, .. } = s.update(k, SetUpdate::Insert(k as u32)) else {
                panic!("update message expected");
            };
            assert!(seen.insert(msg.ts), "duplicate timestamp {:?}", msg.ts);
        }
        assert_eq!(s.clock(), 10, "one shared clock ticks per update");
    }

    #[test]
    fn cross_key_causality_through_the_shared_clock() {
        // p1 updates key A; p0 sees it, then updates key B: p0's
        // update must order after p1's in the shared timestamp order.
        let mut p1 = store(1, 2);
        let ma = p1.update(7, SetUpdate::Insert(1));
        let mut p0 = store(0, 2);
        let Ok(_) = p0.apply_message_from(1, ma.clone());
        let StoreMsg::Update { msg: mb, .. } = p0.update(8, SetUpdate::Insert(2)) else {
            panic!()
        };
        let StoreMsg::Update { msg: ma, .. } = ma else {
            panic!()
        };
        assert!(mb.ts > ma.ts, "cross-key causality violated");
    }

    #[test]
    fn shard_routing_is_stable_and_total() {
        let s = store(0, 8);
        for k in 0..1000u64 {
            let a = s.shard_of(k);
            assert!(a < 8);
            assert_eq!(a, s.shard_of(k));
        }
        // All shards get some keys (fx hash spreads u64 keys).
        let used: BTreeSet<usize> = (0..1000u64).map(|k| s.shard_of(k)).collect();
        assert_eq!(used.len(), 8);
    }

    #[test]
    fn convergence_across_replicas_any_delivery_order() {
        let mut a = store(0, 3);
        let mut b = store(1, 3);
        let ma: Vec<_> = (0..20u64)
            .map(|i| a.update(i % 5, SetUpdate::Insert(i as u32)))
            .collect();
        let mb: Vec<_> = (0..20u64)
            .map(|i| b.update(i % 5, SetUpdate::Delete((19 - i) as u32)))
            .collect();
        // a gets b's stream reversed, b gets a's in order.
        for m in mb.into_iter().rev() {
            let Ok(_) = a.apply_message_from(1, m);
        }
        b.apply_batch_owned(ma);
        for k in 0..5u64 {
            assert_eq!(a.materialize_key(k), b.materialize_key(k), "key {k}");
        }
    }

    #[test]
    fn batched_ingest_matches_per_message_and_repairs_once_per_key() {
        let mut producer = store(1, 1);
        let mut late = store(2, 1);
        // Old messages from `late` order before producer's history.
        let late_msgs: Vec<_> = (0..12u64)
            .map(|i| late.update(i % 3, SetUpdate::Insert(100 + i as u32)))
            .collect();
        let base: Vec<_> = (0..60u64)
            .map(|i| producer.update(i % 3, SetUpdate::Insert(i as u32)))
            .collect();

        let build = |shards: usize| {
            let mut s = store(0, shards);
            s.apply_batch_owned(base.clone());
            s
        };
        let mut per_msg = build(2);
        for m in late_msgs.clone() {
            let Ok(_) = per_msg.apply_message_from(2, m);
        }
        let mut batched = build(2);
        let before = batched.total_repair_events();
        batched.apply_batch_owned(late_msgs);
        assert!(
            batched.total_repair_events() - before <= 3,
            "at most one repair per touched key"
        );
        for k in 0..3u64 {
            assert_eq!(per_msg.materialize_key(k), batched.materialize_key(k));
        }
    }

    #[test]
    fn gc_store_compacts_per_key_after_heartbeats() {
        let mut a: UcStore<SetAdt<u32>, GcFactory> =
            UcStore::new(SetAdt::new(), 0, 2, GcFactory { n: 2 });
        let mut b: UcStore<SetAdt<u32>, GcFactory> =
            UcStore::new(SetAdt::new(), 1, 2, GcFactory { n: 2 });
        let msgs: Vec<_> = (0..30u64)
            .map(|i| a.update(i % 3, SetUpdate::Insert(i as u32)))
            .collect();
        b.apply_batch_owned(msgs);
        assert_eq!(b.total_log_len(), 30);
        // Clocks cross, then maintenance compacts every key.
        let Ok(_) = a.apply_message_from(b.pid(), b.heartbeat());
        let Ok(_) = b.apply_message_from(a.pid(), a.heartbeat());
        a.tick_maintenance();
        b.tick_maintenance();
        assert!(b.total_log_len() < 30, "retained {}", b.total_log_len());
        assert!(a.total_log_len() < 30);
        for k in 0..3u64 {
            assert_eq!(a.materialize_key(k), b.materialize_key(k));
        }
    }

    type GcStore = UcStore<SetAdt<u32>, GcFactory>;

    /// Replica 0 of 3, with key 7 compacted and idle: one entry from
    /// peer 1, folded into the base at stability bound 1.
    fn store_with_idle_key() -> (GcStore, GcStore) {
        let mut s: GcStore = UcStore::new(SetAdt::new(), 0, 2, GcFactory { n: 3 });
        let mut peer: GcStore = UcStore::new(SetAdt::new(), 1, 2, GcFactory { n: 3 });
        let Ok(_) = s.apply_message_from(peer.pid(), peer.update(7, SetUpdate::Insert(1)));
        assert_eq!(s.live_keys(), 1);
        s.tick_maintenance();
        let Ok(_) = s.apply_message_from(1, StoreMsg::Heartbeat { pid: 1, clock: 1 });
        let Ok(_) = s.apply_message_from(2, StoreMsg::Heartbeat { pid: 2, clock: 1 });
        assert_eq!((s.live_keys(), s.total_log_len()), (0, 0));
        assert_eq!(s.engine(7).unwrap().strategy().stability_bound(), 1);
        (s, peer)
    }

    #[test]
    fn an_idle_key_sits_sweeps_out_and_its_next_insertion_hands_it_the_floor() {
        for path in 0..3 {
            let (mut s, mut peer) = store_with_idle_key();
            let clock_when_idle = s.engine(7).unwrap().clock();
            let Ok(_) = s.apply_message_from(1, StoreMsg::Heartbeat { pid: 1, clock: 90 });
            let Ok(_) = s.apply_message_from(2, StoreMsg::Heartbeat { pid: 2, clock: 100 });
            let Ok(_) = s.apply_message_from(1, StoreMsg::Heartbeat { pid: 1, clock: 100 });
            s.tick_maintenance();
            s.flush_backends();
            let idle = s.engine(7).unwrap();
            assert_eq!(idle.clock(), clock_when_idle, "an idle key is not visited");
            assert_eq!(idle.strategy().stability_bound(), 1);
            // A query needs none of it: the base is the state.
            assert_eq!(s.query(7, &SetQuery::Read), BTreeSet::from([1]));
            assert_eq!(s.engine(7).unwrap().clock(), clock_when_idle, "a read");

            let Ok(_) = peer.apply_message_from(0, StoreMsg::Heartbeat { pid: 0, clock: 150 });
            let from_peer = peer.update(7, SetUpdate::Insert(2));
            let stamp = match path {
                0 => {
                    let StoreMsg::Update { msg, .. } = s.update(7, SetUpdate::Insert(2)) else {
                        unreachable!("an update")
                    };
                    msg.ts.clock
                }
                1 => {
                    let Ok(_) = s.apply_message_from(1, from_peer);
                    151
                }
                _ => {
                    s.apply_batch_owned(vec![from_peer]);
                    151
                }
            };
            assert_eq!(s.live_keys(), 1, "path {path}: the key is live again");
            // The insertion handed it the floor — the peers' 100, and
            // the tick's — and its own compaction made that the bound,
            // with no sweep; its clock moved with its entry alone.
            let woken = s.engine(7).unwrap();
            assert_eq!(woken.strategy().stability_bound(), 100, "path {path}");
            assert_eq!(woken.clock(), stamp, "path {path}");
            assert_eq!(woken.log_len(), 1, "path {path}: stamped above 100");
        }
    }

    #[test]
    fn sweeps_visit_live_keys_only_and_retire_the_compacted() {
        let mut s: GcStore = UcStore::new(SetAdt::new(), 0, 4, GcFactory { n: 2 });
        let mut peer: GcStore = UcStore::new(SetAdt::new(), 1, 1, GcFactory { n: 2 });
        let burst: Vec<_> = (0..100u64)
            .map(|k| peer.update(k, SetUpdate::Insert(k as u32)))
            .collect();
        s.apply_batch_owned(burst);
        assert_eq!((s.live_keys(), s.total_log_len()), (100, 100));
        s.tick_maintenance();
        let Ok(_) = s.apply_message_from(peer.pid(), peer.heartbeat());
        assert_eq!((s.live_keys(), s.total_log_len()), (0, 0));
        // Ten keys take one more entry each: ten are live, ninety sit
        // the next round out at the clock they went idle with.
        let idle_clock = s.engine(50).unwrap().clock();
        let more: Vec<_> = (0..10u64)
            .map(|k| peer.update(k, SetUpdate::Delete(k as u32)))
            .collect();
        s.apply_batch_owned(more);
        assert_eq!((s.live_keys(), s.total_log_len()), (10, 10));
        let reg = Registry::new();
        s.export_metrics(&reg);
        assert_eq!(reg.snapshot().gauge("uc_store_live_keys"), Some(10));
        assert_eq!(reg.snapshot().gauge("uc_store_log_len"), Some(10));
        s.tick_maintenance();
        let Ok(_) = s.apply_message_from(peer.pid(), peer.heartbeat());
        s.flush_backends();
        assert_eq!((s.live_keys(), s.total_log_len()), (0, 0));
        assert_eq!(s.engine(50).unwrap().clock(), idle_clock);
        assert!(s.engine(5).unwrap().clock() > idle_clock);
        for k in 0..10u64 {
            assert_eq!(s.materialize_key(k), BTreeSet::new(), "key {k}");
        }
    }

    #[test]
    fn duplicate_delivery_to_an_idle_key_does_not_list_it_live() {
        let (mut s, _) = store_with_idle_key();
        // The same timestamp again: at or below the log's floor.
        let mut replay: GcStore = UcStore::new(SetAdt::new(), 1, 2, GcFactory { n: 3 });
        let Ok(_) = s.apply_message_from(replay.pid(), replay.update(7, SetUpdate::Insert(1)));
        assert_eq!((s.live_keys(), s.total_log_len()), (0, 0));
    }

    #[test]
    fn an_emptied_log_keeps_its_buffer_and_the_scrape_shows_it() {
        let mut s: GcStore = UcStore::new(SetAdt::new(), 0, 2, GcFactory { n: 2 });
        let mut peer: GcStore = UcStore::new(SetAdt::new(), 1, 1, GcFactory { n: 2 });
        let burst: Vec<_> = (0..45)
            .map(|v| peer.update(7, SetUpdate::Insert(v)))
            .collect();
        s.apply_batch_owned(burst);
        s.tick_maintenance();
        let Ok(_) = s.apply_message_from(peer.pid(), peer.heartbeat());
        let reg = Registry::new();
        s.export_metrics(&reg);
        let scrape = reg.snapshot();
        assert_eq!(
            scrape.gauge("uc_store_log_len"),
            Some(0),
            "the burst is stable"
        );
        let capacity = scrape.gauge("uc_store_log_capacity").expect("exported");
        assert!(
            capacity >= 45,
            "the buffer that held the burst stays: {capacity}"
        );
        // 45 entries of 24 bytes: too large to lend, so key 7 keeps it.
        assert!(s.engine(7).unwrap().log().capacity() >= 45);
    }

    #[test]
    fn the_byte_gauges_are_slots_times_slot_size_and_entries_times_four() {
        type GcSlot = Slot<SetAdt<u32>, StableGc<SetAdt<u32>>, MemBackend>;
        for shards in [1, 4] {
            let mut s: GcStore = UcStore::new(SetAdt::new(), 0, shards, GcFactory { n: 2 });
            let mut per_shard = vec![0; shards];
            for key in 0..100 {
                s.update(key, SetUpdate::Insert(1));
                per_shard[shard_index(key, shards)] += 1;
            }
            // A table is empty, or the smallest power of two from 8 up
            // that its keys fill to at most three quarters.
            let entries: usize = per_shard
                .iter()
                .filter(|&&n| n > 0)
                .map(|&n| (3..).map(|b| 1 << b).find(|len| 4 * n <= 3 * len).unwrap())
                .sum();
            let reg = Registry::new();
            s.export_metrics(&reg);
            let scrape = reg.snapshot();
            let slot_bytes = 100 * std::mem::size_of::<GcSlot>();
            assert_eq!(scrape.gauge("uc_store_slot_bytes"), Some(slot_bytes as i64));
            assert_eq!(
                scrape.gauge("uc_store_index_bytes"),
                Some(4 * entries as i64)
            );
            if shards == 1 {
                assert_eq!(entries, 256);
            }
        }
    }

    /// `s`'s `uc_store_log_capacity` gauge.
    fn log_capacity(s: &GcStore) -> i64 {
        let reg = Registry::new();
        s.export_metrics(&reg);
        let scrape = reg.snapshot();
        scrape.gauge("uc_store_log_capacity").expect("exported")
    }

    #[test]
    fn an_idle_key_lends_its_small_buffer_to_the_next_key_that_wakes_without_one() {
        let mut s: GcStore = UcStore::new(SetAdt::new(), 0, 1, GcFactory { n: 2 });
        let mut peer: GcStore = UcStore::new(SetAdt::new(), 1, 1, GcFactory { n: 2 });
        let mut burst = |s: &mut GcStore, key: Key| {
            let burst: Vec<_> = (0..10)
                .map(|v| peer.update(key, SetUpdate::Insert(v)))
                .collect();
            s.apply_batch_owned(burst);
            peer.heartbeat()
        };
        let beat = burst(&mut s, 7);
        let held = log_capacity(&s);
        assert!(held >= 10, "the burst's buffer: {held}");
        s.tick_maintenance();
        let Ok(_) = s.apply_message_from(1, beat);
        assert_eq!(s.total_log_len(), 0, "the burst is stable");
        assert_eq!(s.engine(7).unwrap().log().capacity() as i64, held);
        burst(&mut s, 8);
        assert_eq!(s.engine(8).unwrap().log().len(), 10);
        assert_eq!(s.engine(7).unwrap().log().capacity(), 0, "key 7 lent it");
        assert_eq!(log_capacity(&s), held, "key 8 took it");
        // Key 7 wakes without a buffer and no key offers one.
        burst(&mut s, 7);
        assert!(log_capacity(&s) > held);
        check_arenas(&s, "three bursts");
    }

    #[test]
    fn pinned_outages_do_not_ratchet_the_lent_buffers_up() {
        const HOT: Key = 0;
        const COLD: u64 = 200;
        let mut a: GcStore = UcStore::new(SetAdt::new(), 0, 4, GcFactory { n: 2 });
        let mut b: GcStore = UcStore::new(SetAdt::new(), 1, 4, GcFactory { n: 2 });
        let mut gauge = Vec::new();
        for cycle in 0..12u64 {
            let (Ok(()), Ok(())) = (a.peer_down(1), b.peer_down(0));
            // While cut off, `a` writes cold key `k` `k % 20 + 1` times,
            // and both write the hot key, 160 times in all, after a
            // different number of cold keys each cycle.
            for k in 1..=COLD {
                for v in 0..=k % 20 {
                    a.update(k, SetUpdate::Insert(v as u32));
                }
                if k == 1 + cycle * 37 % COLD {
                    for v in 0..160 {
                        let side = if v % 4 == 0 { &mut b } else { &mut a };
                        side.update(HOT, SetUpdate::Insert(v));
                    }
                }
            }
            // The pin holds every log through the ticks ...
            a.tick_maintenance();
            b.tick_maintenance();
            assert_eq!(a.live_keys() as u64, 1 + COLD, "cycle {cycle}");
            // ... until both heals land and the clocks go round.
            a.heal_peer(&mut b);
            b.heal_peer(&mut a);
            for _ in 0..2 {
                a.tick_maintenance();
                b.tick_maintenance();
                let Ok(_) = a.apply_message_from(1, b.heartbeat());
                let Ok(_) = b.apply_message_from(0, a.heartbeat());
            }
            assert_eq!(a.total_log_len(), 0, "cycle {cycle}: every entry is stable");
            let hot = a.engine(HOT).unwrap().log().capacity();
            assert!(hot >= 160, "cycle {cycle}: the hot key kept {hot} slots");
            // Every spare is empty and at most `LEND_LIMIT` bytes.
            check_arenas(&a, &format!("cycle {cycle}"));
            gauge.push(log_capacity(&a));
        }
        // The first cycle sets how many buffers of each size the keys
        // need; later ones reuse them, whatever order the keys wake in.
        assert!(
            gauge[11] * 10 <= gauge[1] * 11 && gauge.iter().all(|&g| g * 10 <= gauge[0] * 11),
            "log slots after each cycle: {gauge:?}"
        );
    }

    /// [`Shard::check_invariants`] on every shard of `s`.
    fn check_arenas(s: &GcStore, when: &str) {
        for shard in &s.exec.shards.shards {
            let checked = std::panic::catch_unwind(|| shard.check_invariants());
            assert!(checked.is_ok(), "shard {} after {when}", shard.idx);
        }
    }

    /// What [`UcStore::reopen`] does with each recovered engine,
    /// without a backend to recover from: every shard is rebuilt by
    /// [`Shard::adopt`], last-created key first, so slot numbers change.
    fn readopt(s: &mut GcStore) {
        for shard in &mut s.exec.shards.shards {
            let mut back = Shard::empty(shard.idx);
            back.high_water = shard.high_water;
            for slot in shard.slots.iter().rev() {
                back.adopt(slot.key, slot.engine.clone());
            }
            *shard = back;
        }
    }

    #[test]
    fn the_key_index_and_work_lists_agree_with_the_arena_at_every_step() {
        const KEYS: u64 = 40;
        let (mut idle_reads, mut live_reads) = (0, 0);
        for seed in 0..8 {
            let mut rng = uc_sim::SplitMix64::new(seed);
            let mut s: GcStore = UcStore::new(SetAdt::new(), 0, 4, GcFactory { n: 2 });
            let mut peer: GcStore = UcStore::new(SetAdt::new(), 1, 1, GcFactory { n: 2 });
            // Every update `s` issues or ingests, folded without GC.
            let mut reference = store(2, 1);
            let mut sent: Vec<Msg> = Vec::new();
            for step in 0..300 {
                let key = rng.next_below(KEYS);
                let what = match rng.next_below(7) {
                    0 => {
                        let v = rng.next_below(20) as u32;
                        reference.apply_batch_owned(vec![s.update(key, SetUpdate::Delete(v))]);
                        "a local update"
                    }
                    1 => {
                        let fresh = rng.next_range(1, 12);
                        let mut burst: Vec<Msg> = (0..fresh)
                            .map(|_| {
                                let (k, v) = (rng.next_below(KEYS), rng.next_below(20) as u32);
                                peer.update(k, SetUpdate::Insert(v))
                            })
                            .collect();
                        sent.extend(burst.iter().cloned());
                        for _ in 0..rng.next_below(4) {
                            burst.push(sent[rng.next_below(sent.len() as u64) as usize].clone());
                        }
                        reference.apply_batch_owned(burst.clone());
                        s.apply_batch_owned(burst);
                        "a burst with duplicates"
                    }
                    2 => {
                        let Ok(_) = s.apply_message_from(peer.pid(), peer.heartbeat());
                        "a heartbeat"
                    }
                    3 => {
                        s.tick_maintenance();
                        "a tick"
                    }
                    4 => {
                        s.flush_backends();
                        "a flush"
                    }
                    5 => {
                        match s.engine(key).map(|engine| engine.log_len() > 0) {
                            Some(true) => live_reads += 1,
                            Some(false) => idle_reads += 1,
                            None => {}
                        }
                        s.query(key, &SetQuery::Read);
                        "a query"
                    }
                    _ => {
                        readopt(&mut s);
                        "a reopen"
                    }
                };
                check_arenas(&s, &format!("seed {seed} step {step}: {what}"));
            }
            for key in 0..KEYS {
                let want = reference.materialize_key(key);
                assert_eq!(s.materialize_key(key), want, "seed {seed} key {key}");
            }
        }
        assert!(
            idle_reads > 0 && live_reads > 0,
            "idle {idle_reads}, live {live_reads}"
        );
    }

    #[test]
    fn a_publishing_shard_lists_each_written_slot_once() {
        // A preload writes many bursts before its first flush; what it
        // owes publication must not grow with their length.
        let mut s = store(0, 1);
        s.update(0, SetUpdate::Insert(0));
        assert_eq!(
            s.exec.shards.unpublished(),
            0,
            "an inline store lists nothing"
        );
        s.exec.shards.shards[0].start_publishing();
        for i in 0..100_000u64 {
            s.update(i % 10, SetUpdate::Insert(i as u32));
        }
        let shard = &mut s.exec.shards.shards[0];
        shard.check_invariants();
        assert_eq!(shard.unpublished(), 10);
        // Listed in the order first written: either end is at hand.
        let oldest = shard.take_unpublished(true).map(|(at, ..)| at);
        let newest = shard.take_unpublished(false).map(|(at, ..)| at);
        assert_eq!((oldest, newest), (Some(0), Some(9)));
        let mut taken = vec![(0, 0), (9, 9)];
        while let Some((at, key, engine)) = shard.take_unpublished(false) {
            assert_eq!(
                engine.log_len(),
                10_000 + usize::from(key == 0),
                "key {key}"
            );
            taken.push((at, key));
        }
        taken.sort_unstable();
        let slots: Vec<(u32, Key)> = (0..10).map(|k| (k as u32, k)).collect();
        assert_eq!(taken, slots, "each slot once, by its number");
        shard.check_invariants();
        shard.stop_publishing();
    }

    #[test]
    fn a_pool_hands_its_shards_back_listing_nothing() {
        // The round trip through a second pool is
        // `pool_lifecycle.rs`'s; this reads the lists themselves.
        let mut pool = store(0, 4).into_pool(PoolConfig {
            workers: 2,
            queue_depth: 8,
        });
        for key in 0..16 {
            pool.query_snapshot(key, &SetQuery::Read);
            pool.update(key, SetUpdate::Insert(1)).unwrap();
        }
        pool.flush().unwrap();
        for key in 0..16 {
            pool.update(key, SetUpdate::Insert(2)).unwrap();
        }
        let mut s = pool.finish().unwrap();
        for key in 0..24 {
            s.update(key, SetUpdate::Insert(3));
        }
        assert_eq!(s.exec.shards.unpublished(), 0);
        for shard in &s.exec.shards.shards {
            shard.check_invariants();
        }
    }

    #[test]
    #[should_panic(expected = "adopted twice")]
    fn a_key_is_adopted_at_most_once() {
        let mut shard = Shard::empty(0);
        let adt = SetAdt::<u32>::new();
        let strategy = CheckpointFactory { every: 4 }.make(&adt);
        let engine = || ReplicaEngine::with_backend(adt, 0, strategy.clone(), MemBackend);
        shard.adopt(3, engine());
        shard.adopt(3, engine());
    }

    /// (shard, key, committed) per flush call, in call order.
    type FlushCalls = Arc<Mutex<Vec<(usize, Key, bool)>>>;

    /// (key, bound, base, tail length) per base handed over, in call
    /// order.
    type Bases = Arc<Mutex<Vec<(Key, u64, BTreeSet<u32>, usize)>>>;

    /// A backend that records which of the two flush calls it got, and
    /// the bases it is handed.
    struct Recording {
        at: (usize, Key),
        calls: FlushCalls,
        bases: Bases,
    }

    impl LogBackend<SetAdt<u32>> for Recording {
        fn append(&mut self, _ts: Timestamp, _u: &SetUpdate<u32>) {}

        fn truncate_to_base(
            &mut self,
            bound: u64,
            state: &BTreeSet<u32>,
            tail: &[(Timestamp, SetUpdate<u32>)],
        ) {
            let base = (self.at.1, bound, state.clone(), tail.len());
            self.bases.lock().unwrap().push(base);
        }

        fn flush(&mut self, _clock: u64) {
            let (shard, key) = self.at;
            self.calls.lock().unwrap().push((shard, key, true));
        }

        fn stage_flush(&mut self, _clock: u64) {
            let (shard, key) = self.at;
            self.calls.lock().unwrap().push((shard, key, false));
        }

        fn load_base(&mut self) -> Option<(u64, BTreeSet<u32>)> {
            None
        }

        fn scan_suffix(&mut self) -> Vec<(Timestamp, SetUpdate<u32>)> {
            Vec::new()
        }
    }

    #[derive(Clone, Default)]
    struct RecordingFactory(FlushCalls, Bases);

    impl BackendFactory<SetAdt<u32>> for RecordingFactory {
        type Backend = Recording;

        fn open(&self, shard: usize, key: Key) -> Recording {
            Recording {
                at: (shard, key),
                calls: Arc::clone(&self.0),
                bases: Arc::clone(&self.1),
            }
        }
    }

    #[test]
    fn a_key_hands_its_backend_one_base_per_flush_however_many_drains_moved_it() {
        let recorded = RecordingFactory::default();
        let mut s: UcStore<SetAdt<u32>, GcFactory, RecordingFactory> =
            UcStore::with_persistence(SetAdt::new(), 0, 1, GcFactory { n: 2 }, recorded.clone());
        s.update(7, SetUpdate::Insert(1));
        s.flush_backends();
        // Own stamps and peer 1's, alternating on key 7: each insertion
        // raises the floor to the entry before it, and drains it.
        let Ok(_) = s.apply_message_from(1, sent(7, 2, 1));
        s.update(7, SetUpdate::Insert(3));
        let Ok(_) = s.apply_message_from(1, sent(7, 4, 1));
        let engine = s.engine(7).unwrap();
        assert_eq!(engine.strategy().compacted(), 3, "three insertion drains");
        assert_eq!(engine.log_len(), 1);
        assert!(recorded.1.lock().unwrap().is_empty(), "a drain persisted");
        s.flush_backends();
        let bound = s.engine(7).unwrap().strategy().stability_bound();
        assert_eq!(bound, 3);
        let base = BTreeSet::from([1, 2, 3]);
        assert_eq!(*recorded.1.lock().unwrap(), [(7, bound, base, 1)]);
        s.flush_backends();
        assert_eq!(recorded.1.lock().unwrap().len(), 1, "no drain since");
    }

    #[test]
    fn the_flush_walk_stages_every_key_of_a_shard_and_commits_on_its_last() {
        let calls = RecordingFactory::default();
        let mut s: UcStore<SetAdt<u32>, GcFactory, RecordingFactory> =
            UcStore::with_persistence(SetAdt::new(), 0, 2, GcFactory { n: 2 }, calls.clone());
        // Flush, and check the calls: every key of `want` once, and in
        // each shard every call staged but the last.
        let flush = |s: &mut UcStore<_, _, RecordingFactory>, want: &[Key], when: &str| {
            s.flush_backends();
            let calls = std::mem::take(&mut *calls.0.lock().unwrap());
            let mut keys: Vec<Key> = calls.iter().map(|(_, key, _)| *key).collect();
            keys.sort_unstable();
            assert_eq!(keys, want, "{when}");
            for shard in 0..2 {
                let of_shard: Vec<bool> = calls
                    .iter()
                    .filter(|(at, ..)| *at == shard)
                    .map(|(.., committed)| *committed)
                    .collect();
                if let Some((last, staged)) = of_shard.split_last() {
                    assert!(*last, "{when}: shard {shard} never committed");
                    assert!(!staged.contains(&true), "{when}: shard {shard}");
                }
            }
        };
        let keys: Vec<Key> = (0..10).collect();
        for key in &keys {
            s.update(*key, SetUpdate::Insert(1));
        }
        flush(&mut s, &keys, "every key live");
        flush(&mut s, &keys, "still live: the clock may have moved");
        let clock = s.clock();
        let Ok(_) = s.apply_message_from(1, StoreMsg::Heartbeat { pid: 1, clock });
        assert_eq!(s.live_keys(), 0);
        flush(&mut s, &keys, "every key idle, owed its last flush");
        flush(&mut s, &[], "nothing owed");
        // Keys 0..4 compact again and go idle; 7 and 8 are idle when
        // their insertion begins and live at the flush.
        for key in &keys[..4] {
            s.update(*key, SetUpdate::Insert(2));
        }
        let clock = s.clock();
        let Ok(_) = s.apply_message_from(1, StoreMsg::Heartbeat { pid: 1, clock });
        s.update(7, SetUpdate::Insert(3));
        s.update(8, SetUpdate::Insert(3));
        assert_eq!(s.live_keys(), 2);
        flush(&mut s, &[0, 1, 2, 3, 7, 8], "live and idle keys");
        flush(&mut s, &[7, 8], "the live ones again");
    }

    #[test]
    fn heartbeat_from_unknown_pid_is_harmless_storewide() {
        let mut s: UcStore<SetAdt<u32>, GcFactory> =
            UcStore::new(SetAdt::new(), 0, 2, GcFactory { n: 2 });
        s.update(1, SetUpdate::Insert(1));
        let Ok(_) = s.apply_message_from(42, StoreMsg::Heartbeat { pid: 42, clock: 9 });
        assert_eq!(s.materialize_key(1), BTreeSet::from([1]));
        // Ten thousand stray pids: each still advances the clock, and
        // none is remembered, so a key going live hears the cluster's
        // two clocks and nothing else.
        for stray in 0..10_000u32 {
            let clock = 10 + u64::from(stray);
            let pid = 2 + stray;
            let Ok(_) = s.apply_message_from(pid, StoreMsg::Heartbeat { pid, clock });
        }
        assert_eq!(s.clock(), 10_009);
        let heard = &s.exec.shards.stability.heard;
        assert_eq!(heard.len(), 2, "heard keeps exactly the cluster's pids");
    }

    /// A one-key store alone in its cluster: every stamp is stable the
    /// moment it is issued, so each insertion raises the floor and
    /// folds itself into the base.
    #[test]
    fn a_cluster_of_one_compacts_at_insertion() {
        let mut s: GcStore = UcStore::new(SetAdt::new(), 0, 1, GcFactory { n: 1 });
        for i in 0..10 {
            s.update(0, SetUpdate::Insert(i));
        }
        let compacted = s.engine(0).expect("key 0 written").strategy().compacted();
        assert_eq!((floor_and_log(&s), compacted), ((10, 0), 10));
        assert_eq!(s.materialize_key(0), (0..10).collect::<BTreeSet<u32>>());
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = store(0, 0);
    }

    #[test]
    #[should_panic(expected = "within the cluster")]
    fn gc_store_rejects_out_of_cluster_pid() {
        // Without this guard the misconfiguration would not panic — it
        // would silently freeze stability cluster-wide (every replica,
        // including this one, ignores clocks from pid ≥ n).
        let _: UcStore<SetAdt<u32>, GcFactory> =
            UcStore::new(SetAdt::new(), 2, 1, GcFactory { n: 2 });
    }

    #[test]
    fn partition_tracker_minority_and_watermarks() {
        let mut t = PartitionTracker::default();
        t.mark_down(1, 10);
        t.mark_down(2, 20);
        // Repeated report keeps the earliest watermark.
        t.mark_down(1, 99);
        assert_eq!(t.down_peers().collect::<Vec<_>>(), vec![(1, 10), (2, 20)]);
        assert_eq!(t.mark_up(1), Some(10));
        assert_eq!(t.mark_up(1), None);
        assert_eq!(t.down_peers().collect::<Vec<_>>(), vec![(2, 20)]);
    }

    type Adt = SetAdt<u32>;
    type Msg = StoreMsg<SetUpdate<u32>>;
    type Chunk = Vec<(Key, UpdateMsg<SetUpdate<u32>>)>;

    /// `store(pid, shards)` behind two pool workers: the heal tests
    /// below run one body against both node kinds.
    fn pool(pid: u32, shards: usize) -> IngestPool<Adt, CheckpointFactory> {
        store(pid, shards).into_pool(PoolConfig {
            workers: 2,
            ..PoolConfig::default()
        })
    }

    fn healer<X: Executor>(n: &mut Node<X>) -> &mut Healer {
        &mut n.heal
    }

    fn down<X: Executor<Adt = Adt>>(n: &mut Node<X>, peer: Pid) {
        n.peer_down(peer).unwrap();
    }

    fn up<X: Executor<Adt = Adt>>(n: &mut Node<X>, peer: Pid) -> Option<Msg> {
        n.peer_up(peer).unwrap()
    }

    fn tick<X: Executor<Adt = Adt>>(n: &mut Node<X>) -> Vec<(Pid, Msg)> {
        n.heal_tick().unwrap()
    }

    fn frame<X: Executor<Adt = Adt>>(n: &mut Node<X>, from: Pid, m: Msg) -> Vec<(Pid, Msg)> {
        n.apply_message_from(from, m).unwrap()
    }

    fn write<X: Executor<Adt = Adt>>(n: &mut Node<X>, key: Key, v: u32) -> Msg {
        n.exec.update(key, SetUpdate::Insert(v)).unwrap()
    }

    fn read<X: Executor<Adt = Adt>>(n: &mut Node<X>, key: Key) -> BTreeSet<u32> {
        n.exec.query(key, &SetQuery::Read).unwrap()
    }

    /// Heal `healed` from `healer` (pid 0) by ping-ponging the frames
    /// until the dialogue ends; the payload of every chunk streamed.
    fn heal<X: Executor<Adt = Adt>>(healer: &mut Node<X>, healed: &mut Store) -> Vec<Chunk> {
        let peer = healed.pid();
        let mut chunks = Vec::new();
        let mut to_peer: Vec<Msg> = up(healer, peer).into_iter().collect();
        while !to_peer.is_empty() {
            let mut to_me = Vec::new();
            for m in to_peer.drain(..) {
                if let StoreMsg::RepairChunk { updates, .. } = &m {
                    chunks.push(updates.clone());
                }
                let Ok(replies) = healed.apply_message_from(0, m);
                to_me.extend(replies);
            }
            for (_, m) in to_me {
                to_peer.extend(frame(healer, peer, m).into_iter().map(|(_, m)| m));
            }
        }
        chunks
    }

    #[test]
    fn chunked_peer_up_opens_digest_session_and_heals() {
        chunked_heal(store(0, 4));
        chunked_heal(pool(0, 4));
    }

    fn chunked_heal<X: Executor<Adt = Adt>>(mut s: Node<X>) {
        let mut peer = store(1, 4);
        // Pre-outage traffic reaches the peer normally.
        let pre = write(&mut s, 1, 1);
        frame(&mut peer, 0, pre);
        down(&mut s, 1);
        let watermark = healer(&mut s).partition.down_peers().next().unwrap().1;
        // More diverging updates over several keys than a full window
        // carries: the heal must stream multiple flow-controlled
        // chunks, and refill the window.
        let n = (WINDOW * CHUNK + CHUNK / 2) as u64;
        for i in 0..n {
            write(&mut s, i % 5, 100 + i as u32);
        }
        // An update from peer 1 itself: excluded from the stream.
        let clock = watermark + n;
        frame(&mut peer, 0, StoreMsg::Heartbeat { pid: 0, clock });
        let from_peer = peer.update(3, SetUpdate::Insert(9));
        frame(&mut s, 1, from_peer);

        let chunks = heal(&mut s, &mut peer);
        let needed = (n as usize).div_ceil(CHUNK);
        assert!(
            chunks.len() >= needed,
            "{n} entries need ≥ {needed} chunks, got {}",
            chunks.len()
        );
        assert!(chunks.iter().all(|c| c.len() <= CHUNK));
        // Exactly the divergence: stamped strictly above the
        // watermark, none of the peer's own, each once, and in
        // timestamp order within a key.
        let streamed = chunks.concat();
        assert_eq!(streamed.len(), n as usize);
        assert!(streamed.iter().all(|(_, m)| m.ts.clock > watermark));
        assert!(streamed.iter().all(|(_, m)| m.ts.pid == 0));
        for k in 0..5u64 {
            let of_key: Vec<_> = streamed.iter().filter(|(key, _)| *key == k).collect();
            assert!(of_key.windows(2).all(|w| w[0].1.ts < w[1].1.ts), "key {k}");
        }
        let heal_state = healer(&mut s);
        assert_eq!(heal_state.chunks, chunks.len() as u64);
        assert!(heal_state.replay_bytes > 0);
        assert_eq!(heal_state.bytes_in_flight(), 0, "all chunks acked");
        assert!(
            heal_state.sessions().next().is_none(),
            "session completes on the last ack"
        );
        assert_eq!(heal_state.partition.down_count(), 0);
        // Convergence: the healed peer matches the healer everywhere.
        for k in 0..5u64 {
            assert_eq!(read(&mut s, k), peer.materialize_key(k), "key {k}");
        }
        let mut key3: BTreeSet<u32> = (3..n).step_by(5).map(|i| 100 + i as u32).collect();
        key3.insert(9);
        assert_eq!(
            peer.materialize_key(3),
            key3,
            "peer's own insert survives alongside the streamed run"
        );
        // Nothing diverged since: a second heal has nothing to send —
        // no session, no chunks.
        down(&mut s, 1);
        assert!(heal(&mut s, &mut peer).is_empty());
        let heal_state = healer(&mut s);
        assert_eq!(heal_state.chunks, chunks.len() as u64);
        assert!(heal_state.sessions().next().is_none());
        assert_eq!(heal_state.partition.down_count(), 0);
    }

    #[test]
    fn digest_exchange_skips_converged_slots() {
        // Both sides hold the same diverging suffix (converged via
        // another path): every slot digest matches, so the heal
        // session streams nothing but its empty final chunk.
        let mut s = store(0, 8);
        let mut peer = store(1, 8);
        s.peer_down(1);
        for i in 0..20u64 {
            let m = s.update(i, SetUpdate::Insert(i as u32));
            // The "other path": the peer already got everything.
            let Ok(_) = peer.apply_message_from(0, m);
        }
        let total_slots = 8 * RANGES as u64;
        let chunks = s.heal_peer(&mut peer);
        assert_eq!(chunks, 1, "only the empty completion chunk");
        assert_eq!(
            s.heal_digest_skips(),
            total_slots,
            "every slot agreed and was skipped"
        );
        for i in 0..20u64 {
            assert_eq!(s.materialize_key(i), peer.materialize_key(i));
        }
    }

    #[test]
    fn digest_never_skips_differing_contents_of_same_shape() {
        same_shape_differing_contents(store(0, 2));
        same_shape_differing_contents(pool(0, 2));
    }

    /// Same keys, same update *count*, different payloads: digests
    /// must mismatch (payload hash reaches the digest), so the heal
    /// streams the real suffix — the collision-resistance gate of the
    /// skip decision.
    fn same_shape_differing_contents<X: Executor<Adt = Adt>>(mut s: Node<X>) {
        let mut peer = store(1, 2);
        down(&mut s, 1);
        write(&mut s, 7, 1);
        // The peer holds a different update under an identical shape
        // (one entry on the same key, from a third replica).
        let mut other = store(2, 2);
        other.update(7, SetUpdate::Insert(999));
        let Ok(_) = peer.apply_message_from(other.pid(), other.update(7, SetUpdate::Insert(2)));
        assert!(!heal(&mut s, &mut peer).is_empty());
        assert!(
            peer.materialize_key(7).contains(&1),
            "diverged key was streamed despite equal counts"
        );
        // And the healer's own digest path never skipped that slot.
        let heal_state = healer(&mut s);
        assert!(
            heal_state.digest_skips < 2 * RANGES as u64,
            "the touched slot must not be counted skipped"
        );
    }

    #[test]
    fn flap_mid_heal_cancels_session_and_reheals_idempotently() {
        flap_mid_heal(store(0, 2));
        flap_mid_heal(pool(0, 2));
    }

    fn flap_mid_heal<X: Executor<Adt = Adt>>(mut s: Node<X>) {
        let mut peer = store(1, 2);
        down(&mut s, 1);
        // One chunk more than a full window.
        for i in 0..(WINDOW + 1) * CHUNK {
            write(&mut s, i as u64 % 3, i as u32);
        }
        // Open the session and deliver only the digest exchange plus
        // the first chunk of the window — then the peer flaps before
        // acking, with the stream's last chunk not yet sent.
        let opener = up(&mut s, 1).expect("divergence exists");
        let Ok(resp) = peer.apply_message_from(0, opener);
        assert_eq!(resp.len(), 1);
        let mut first_chunks = frame(&mut s, 1, resp.into_iter().next().unwrap().1);
        assert_eq!(first_chunks.len(), WINDOW, "the response fills the window");
        let (_, first_chunk) = first_chunks.remove(0);
        let _ack = peer.apply_message_from(0, first_chunk);
        assert!(healer(&mut s).bytes_in_flight() > 0, "chunk unacked");
        let watermark_before = healer(&mut s)
            .sessions()
            .next()
            .map(|(_, sess)| sess.since)
            .expect("session live");
        // Flap: the session cancels, the outage re-opens at the
        // session watermark, and the gauge drains.
        down(&mut s, 1);
        let heal_state = healer(&mut s);
        assert!(heal_state.sessions().next().is_none());
        assert_eq!(heal_state.bytes_in_flight(), 0);
        assert_eq!(
            heal_state.partition.down_peers().collect::<Vec<_>>(),
            vec![(1, watermark_before)],
            "re-opened outage covers the cancelled stream"
        );
        // The stale ack from the first session is ignored.
        // (peer already ingested chunk 1 — redelivery below dedups.)
        // Full re-heal: everything converges despite the overlap.
        assert!(!heal(&mut s, &mut peer).is_empty());
        for k in 0..3u64 {
            assert_eq!(read(&mut s, k), peer.materialize_key(k), "key {k}");
        }
    }

    #[test]
    fn stalled_session_resends_digest_then_expires_chunks_at_node_level() {
        stalled_session(store(0, 2));
        stalled_session(pool(0, 2));
    }

    /// A healed peer whose replies are all lost: the session re-sends
    /// its request, then trades flow control for liveness one expired
    /// chunk at a time, and ends — pin lifted — with every entry
    /// streamed once.
    fn stalled_session<X: Executor<Adt = Adt>>(mut s: Node<X>) {
        let mut peer = store(1, 2);
        down(&mut s, 1);
        // One chunk more than a full window.
        let n = (WINDOW + 1) * CHUNK;
        for i in 0..n {
            write(&mut s, i as u64 % 3, i as u32);
        }
        let opener = up(&mut s, 1).expect("divergence exists");
        // The response never arrives: quiet ticks up to the stall
        // threshold, then the same request goes out again.
        for _ in 1..STALL_TICKS {
            assert!(tick(&mut s).is_empty());
        }
        assert_eq!(tick(&mut s), vec![(1, opener.clone())]);
        // It is answered at last; a full window of chunks goes in
        // flight, and no ack ever comes back.
        let Ok(mut resp) = peer.apply_message_from(0, opener);
        let resp = resp.remove(0).1;
        let mut streamed = frame(&mut s, 1, resp);
        assert_eq!(streamed.len(), WINDOW);
        let full_window = healer(&mut s).bytes_in_flight();
        assert!(full_window > 0);
        for _ in 0..(n.div_ceil(CHUNK) + 1) * STALL_TICKS as usize {
            if healer(&mut s).sessions().next().is_none() {
                break;
            }
            streamed.extend(tick(&mut s));
            assert!(healer(&mut s).bytes_in_flight() <= full_window);
        }
        let heal_state = healer(&mut s);
        assert!(
            heal_state.sessions().next().is_none(),
            "the last expiry ends it"
        );
        assert_eq!(heal_state.bytes_in_flight(), 0);
        assert_eq!(heal_state.chunks, streamed.len() as u64);
        assert_eq!(heal_state.partition.down_count(), 0);
        let entries: usize = streamed
            .iter()
            .map(|(_, m)| match m {
                StoreMsg::RepairChunk { updates, .. } => updates.len(),
                other => panic!("a streaming session sends chunks, not {other:?}"),
            })
            .sum();
        assert_eq!(entries, n, "every entry streamed, none twice");
        // Expiry gave up on the acks, not on the data: the chunks,
        // delivered late, still converge the peer.
        for (_, chunk) in streamed {
            let Ok(_) = peer.apply_message_from(0, chunk);
        }
        for k in 0..3u64 {
            assert_eq!(read(&mut s, k), peer.materialize_key(k), "key {k}");
        }
    }

    #[test]
    fn repair_ingest_is_idempotent() {
        let mut producer = store(1, 2);
        let msgs: Vec<_> = (0..10u64)
            .map(|i| producer.update(i % 3, SetUpdate::Insert(i as u32)))
            .collect();
        let mut s = store(0, 2);
        s.apply_batch_owned(msgs.clone());
        let updates: Vec<_> = msgs
            .into_iter()
            .map(|m| {
                let StoreMsg::Update { key, msg } = m else {
                    unreachable!()
                };
                (key, msg)
            })
            .collect();
        let before: Vec<_> = (0..3u64).map(|k| s.materialize_key(k)).collect();
        let log_before = s.total_log_len();
        // A repair burst overlapping everything already delivered
        // (e.g. a heal racing retransmissions) must be a no-op.
        let Ok(_) = s.apply_message_from(
            1,
            StoreMsg::Repair {
                updates: updates.clone(),
            },
        );
        s.apply_batch_owned(vec![StoreMsg::Repair { updates }]);
        assert_eq!(s.total_log_len(), log_before);
        for k in 0..3u64 {
            assert_eq!(s.materialize_key(k), before[k as usize]);
        }
    }

    /// Replica `pid` of 3 under [`GcFactory`], over two shards: the
    /// floor tests run one body against it and against pools of it.
    fn gc_store(pid: u32) -> GcStore {
        UcStore::new(SetAdt::new(), pid, 2, GcFactory { n: 3 })
    }

    fn gc_pool(pid: u32, workers: usize) -> IngestPool<Adt, GcFactory> {
        gc_store(pid).into_pool(PoolConfig {
            workers,
            ..PoolConfig::default()
        })
    }

    /// `pid`'s update stamped `clock`.
    fn stamped(clock: u64, pid: u32) -> UpdateMsg<SetUpdate<u32>> {
        UpdateMsg {
            ts: Timestamp::new(clock, pid),
            update: SetUpdate::Insert(clock as u32),
        }
    }

    /// [`stamped`], as the frame `pid`'s link delivers.
    fn sent(key: Key, clock: u64, pid: u32) -> Msg {
        StoreMsg::Update {
            key,
            msg: stamped(clock, pid),
        }
    }

    /// `n`'s `uc_store_stability_floor` and `uc_store_log_len` gauges.
    fn floor_and_log<X: Executor<Adt = Adt>>(n: &Node<X>) -> (i64, i64) {
        let reg = Registry::new();
        n.export_metrics(&reg);
        let scrape = reg.snapshot();
        let gauge = |name| scrape.gauge(name).expect(name);
        (gauge("uc_store_stability_floor"), gauge("uc_store_log_len"))
    }

    #[test]
    fn a_key_drains_at_insertion_below_a_floor_only_deliveries_raised() {
        drains_below_a_delivered_floor(gc_store(0));
        drains_below_a_delivered_floor(gc_pool(0, 1));
    }

    /// No heartbeat, no tick: key 1 holds `(5, p1)`; key 2 takes
    /// `(9, p2)` and its own `(10, p0)`; key 1's next, `(11, p1)`,
    /// drains `(5, p1)` as it goes in. (A one-worker pool: a worker
    /// counts the stamps of its own shards only.)
    fn drains_below_a_delivered_floor<X: Executor<Adt = Adt>>(mut n: Node<X>) {
        frame(&mut n, 1, sent(1, 5, 1));
        frame(&mut n, 2, sent(2, 9, 2));
        let StoreMsg::Update { msg, .. } = write(&mut n, 2, 10) else {
            unreachable!("an update")
        };
        assert_eq!(msg.ts, Timestamp::new(10, 0));
        assert_eq!(
            floor_and_log(&n),
            (5, 3),
            "(5, p1) sits at the floor: nothing visited its key since"
        );
        frame(&mut n, 1, sent(1, 11, 1));
        assert_eq!(
            floor_and_log(&n),
            (9, 3),
            "key 1's insertion drained (5, p1)"
        );
    }

    #[test]
    fn a_repair_leaves_the_floor_where_it_was() {
        repair_leaves_the_floor(gc_store(0));
        repair_leaves_the_floor(gc_pool(0, 2));
    }

    /// The floor stands at 3; repairs carrying both peers' updates far
    /// above it, as a frame and in a burst, move it not at all.
    fn repair_leaves_the_floor<X: Executor<Adt = Adt>>(mut n: Node<X>) {
        frame(&mut n, 1, StoreMsg::Heartbeat { pid: 1, clock: 3 });
        frame(&mut n, 2, StoreMsg::Heartbeat { pid: 2, clock: 4 });
        n.exec.maintain_and_flush().unwrap();
        assert_eq!(floor_and_log(&n), (3, 0));
        let repair = |clock| vec![(1, stamped(clock, 1)), (2, stamped(clock + 1, 2))];
        frame(
            &mut n,
            1,
            StoreMsg::Repair {
                updates: repair(50),
            },
        );
        let chunk = StoreMsg::RepairChunk {
            session: 1,
            seq: 1,
            last: true,
            updates: repair(70),
        };
        n.exec
            .ingest(vec![
                StoreMsg::Repair {
                    updates: repair(60),
                },
                chunk,
            ])
            .unwrap();
        assert_eq!(
            floor_and_log(&n),
            (3, 6),
            "a heal's stamps raised the floor"
        );
    }

    #[test]
    fn a_frame_on_its_own_is_heard_before_its_insertion() {
        frame_heard_first(gc_store(0));
        frame_heard_first(gc_pool(0, 2));
    }

    /// Own progress and peer 2 stand at 100, peer 1 has not been heard:
    /// its frame `(5, p1)` raises the floor to 5 before it goes in, so
    /// its own insertion drains it. On a pool the key's worker hears it
    /// first and the other worker by the summary the gauges read.
    fn frame_heard_first<X: Executor<Adt = Adt>>(mut n: Node<X>) {
        frame(&mut n, 2, StoreMsg::Heartbeat { pid: 2, clock: 100 });
        n.exec.maintain_and_flush().unwrap();
        assert_eq!(floor_and_log(&n), (0, 0));
        frame(&mut n, 1, sent(1, 5, 1));
        assert_eq!(
            floor_and_log(&n),
            (5, 0),
            "the frame raised the floor only after its insertion"
        );
    }

    #[test]
    fn a_bursts_stamps_count_once_the_burst_is_in() {
        stamps_count_after_the_burst(gc_store(0));
        stamps_count_after_the_burst(gc_pool(0, 2));
    }

    /// Own progress and peer 2 stand at 100, peer 1 has not been heard:
    /// its burst goes in under floor 0, so nothing of it drains at
    /// insertion, and raises the floor to its last stamp behind it.
    /// The next sweep drains it.
    fn stamps_count_after_the_burst<X: Executor<Adt = Adt>>(mut n: Node<X>) {
        frame(&mut n, 2, StoreMsg::Heartbeat { pid: 2, clock: 100 });
        n.exec.maintain_and_flush().unwrap();
        assert_eq!(floor_and_log(&n), (0, 0));
        n.exec.ingest(vec![sent(1, 5, 1), sent(2, 7, 1)]).unwrap();
        assert_eq!(
            floor_and_log(&n),
            (7, 2),
            "the burst went in under floor 0 and raised it to 7 behind it"
        );
        frame(&mut n, 2, StoreMsg::Heartbeat { pid: 2, clock: 100 });
        assert_eq!(floor_and_log(&n), (7, 0), "the heartbeat's sweep drains it");
    }

    #[test]
    fn the_floor_gauge_rises_with_deliveries_and_holds_at_the_watermark() {
        floor_gauge(gc_store(0));
        floor_gauge(gc_pool(0, 2));
    }

    /// No heartbeat until the outage: the replica's own progress is a
    /// tick's, ahead of peer 2, whose deliveries alone raise the floor.
    /// While peer 2 is down the floor holds at its outage watermark,
    /// however far the clocks heard go past it.
    fn floor_gauge<X: Executor<Adt = Adt>>(mut n: Node<X>) {
        frame(&mut n, 1, sent(1, 50, 1));
        n.exec.maintain_and_flush().unwrap();
        assert_eq!(floor_and_log(&n).0, 0, "peer 2 not heard yet");
        for clock in [20, 30, 45] {
            frame(&mut n, 2, sent(2, clock, 2));
            assert_eq!(floor_and_log(&n).0, clock as i64, "a delivery from peer 2");
        }
        frame(&mut n, 1, sent(1, 60, 1));
        down(&mut n, 2);
        let watermark = healer(&mut n).partition.watermark(2).expect("down");
        assert_eq!(watermark, 60);
        frame(&mut n, 1, sent(1, 80, 1));
        write(&mut n, 3, 1);
        n.exec.maintain_and_flush().unwrap();
        assert_eq!(floor_and_log(&n).0, 45, "peer 2's last stamp");
        // Heard across a one-way cut: past the watermark, which holds.
        frame(&mut n, 2, StoreMsg::Heartbeat { pid: 2, clock: 90 });
        frame(&mut n, 2, sent(2, 95, 2));
        frame(&mut n, 1, sent(1, 99, 1));
        n.exec.maintain_and_flush().unwrap();
        assert_eq!(
            floor_and_log(&n).0,
            watermark as i64,
            "the pin holds the floor at the watermark"
        );
    }

    #[test]
    fn divergence_skips_quiet_shards() {
        // Many shards, one touched after the outage: heal must not
        // walk the quiet ones. It streams that one entry, from that
        // one shard.
        let mut s = store(0, 8);
        for k in 0..8u64 {
            s.update(k, SetUpdate::Insert(k as u32));
        }
        s.peer_down(1);
        s.update(0, SetUpdate::Insert(100));
        let touched = s.shard_of(0);
        let streamed = heal(&mut s, &mut store(1, 8)).concat();
        assert_eq!(streamed.len(), 1);
        assert_eq!(s.shard_of(streamed[0].0), touched);
    }
}
