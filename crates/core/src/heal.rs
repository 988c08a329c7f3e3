//! **O(divergence) reconciliation**: digest-guided anti-entropy with
//! chunked, flow-controlled heal streaming, and the replica's
//! partition posture.
//!
//! This module owns everything a replica does about an unreachable
//! peer, once, whoever runs the shards:
//!
//! * `Healer` — the [`PartitionTracker`], the live [`HealSession`]s
//!   and the heal counters of one replica, with
//!   the down-peer half of its health report and the `uc_*_heal_*`
//!   metric export. A replica ([`Node`](crate::node::Node)) holds one
//!   above its executor, so the posture stays put when the executor
//!   changes ([`UcStore::into_pool`](crate::store::UcStore::into_pool),
//!   [`IngestPool::finish`](crate::pool::IngestPool::finish)).
//! * `Dialogue` — a `Healer` beside the executor of its replica:
//!   `peer_down`, `peer_up`, the handlers of the heal control frames,
//!   the stall tick and the retention pin.
//! * [`ShardAccess`] — what the dialogue needs of an executor: who
//!   touches the shards. The inline executor reads its own shards
//!   (`Error = Infallible`), the workers send a job to the owning
//!   worker and wait for the reply (`Error = PoolError`).
//!
//! The dialogue, in two coordinated moves:
//!
//! 1. **Digest exchange.** On `peer_up` the healing side first sends
//!    a compact per-(group, key-range) [`HealDigest`] of everything
//!    it would stream — `(count, xor-of-hash(clock, pid, payload))`
//!    above the outage watermark. The healed peer answers with the
//!    slots whose digests differ from its own view; slots that agree
//!    are **skipped entirely**. Two peers that converged through
//!    other paths exchange O(groups) bytes, not O(suffix). A peer
//!    whose digests are all empty gets no session at all.
//! 2. **Chunked streaming with flow control.** The mismatched slots
//!    become a key-by-key streaming plan driven by a resumable
//!    [`HealSession`] state machine: one bounded
//!    [`StoreMsg::RepairChunk`] at a time, read through
//!    bounded-window engine cursors
//!    ([`ReplicaEngine::suffix_since_window`](crate::engine::ReplicaEngine::suffix_since_window)),
//!    paced by [`StoreMsg::RepairAck`]s so at most [`WINDOW`]
//!    chunks of at most [`CHUNK`] entries each are in flight per peer.
//!    A chunk is one frame on the link below, and `ReliableLink`'s
//!    `queue_cap` counts frames: a session holds at most `WINDOW` of
//!    them in its peer's retry queue, whatever the divergence.
//!
//! Chunk delivery stays idempotent (receivers ingest through the
//! deduplicating batch path), so redelivered or overlapping chunks —
//! including a whole re-heal after a crash mid-stream — are no-ops.
//!
//! While a peer is down the heal owns what it misses: the replica
//! sends it no updates and announces it no clock above its outage
//! watermark (`node::on_invoke`, `node::on_tick`). Compaction is pinned
//! on both ends of a heal: the healer at its session's watermark until
//! the last chunk is acknowledged, the healed replica at the same
//! watermark from the `DigestRequest` until the last chunk is ingested.
//!
//! # The `ShardAccess` contract
//!
//! Required of every implementation: calls on one executor take effect
//! **in the order they are made**. A `set_retention` is in force for
//! every `digest_suffix`, `collect_window` or ingest issued after it,
//! and not before. The dialogue leans on this whenever a pin is about to
//! relax: it reads under the outgoing, tighter pin and only then sets
//! the looser one, so no compaction can fold a suffix between the
//! decision to stream it and the read that streams it. Inline
//! execution orders calls trivially; the pool's per-worker inboxes are
//! FIFO.

use crate::message::UpdateMsg;
use crate::store::{Key, PartitionTracker, StoreMsg};
use crate::timestamp::Timestamp;
use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use uc_criteria::online::MonitorStats;
use uc_history::fxhash::FxHasher;
use uc_obs::{Health, Registry};
use uc_sim::{LinkCounters, Pid};
use uc_spec::UqAdt;

/// Maximum keyed updates per [`RepairChunk`]: the unit of peak heal
/// memory on both sides.
///
/// [`RepairChunk`]: crate::store::StoreMsg::RepairChunk
pub const CHUNK: usize = 512;

/// Maximum unacknowledged chunks in flight per healing peer (the
/// flow-control window). A chunk travels as one `ReliableLink` frame,
/// and the link's `queue_cap` counts frames, so a session puts at most
/// `WINDOW` frames in its peer's retry queue, carrying at most
/// `WINDOW × CHUNK` entries.
pub const WINDOW: usize = 4;

/// Ticks without protocol progress before a stalled session acts:
/// it re-sends its digest request, or expires its oldest
/// unacknowledged chunk to reopen the window (see `HealSession::on_tick`).
pub const STALL_TICKS: u32 = 8;

/// Key-range fan-out per digest group: each group (the sender's shard)
/// is split into this many independently skippable ranges, so one hot
/// key invalidates `1/RANGES` of its shard, not all of it.
pub const RANGES: u32 = 8;

/// One digest slot: how many suffix entries hash into it and the xor
/// of their entry hashes. Order-independent (xor commutes), so both
/// sides can fold in any iteration order; count is carried separately
/// so a slot with pairwise-cancelling hashes still mismatches on
/// cardinality.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct HealDigest {
    /// Number of suffix entries in this slot.
    pub count: u64,
    /// Xor of the entries' hashes over `(clock, pid, payload)`.
    pub xor: u64,
}

impl HealDigest {
    /// Fold one entry hash into the slot.
    pub fn fold(&mut self, hash: u64) {
        self.count += 1;
        self.xor ^= hash;
    }
}

impl fmt::Debug for HealDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d({},{:x})", self.count, self.xor)
    }
}

/// Hash of one log entry for digest purposes: the full identity
/// `(clock, pid, payload)`. Hashing the payload (not just the
/// timestamp) is what makes the digest collision-resistant against
/// same-shape divergence: two suffixes with identical timestamps but
/// different payloads must not compare equal.
pub(crate) fn entry_hash<U: Hash>(ts: Timestamp, update: &U) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(ts.clock);
    h.write_u32(ts.pid);
    update.hash(&mut h);
    h.finish()
}

/// The digest slot a key folds into, flattened as
/// `group * RANGES + range` ([`RANGES`]). The group coordinate is the
/// *sender's* shard (`hash % groups`); the range coordinate re-uses the
/// high bits of the same hash, so the two are independent. Both sides
/// evaluate this with the sender's `groups`, which keeps the mapping
/// agreed even when the receiver runs a different shard count.
pub(crate) fn digest_slot(key: Key, groups: u32) -> u32 {
    let mut h = FxHasher::default();
    h.write_u64(key);
    let hash = h.finish();
    let group = (hash % groups as u64) as u32;
    let range = ((hash / groups as u64) % RANGES as u64) as u32;
    group * RANGES + range
}

/// Flat slot indices where `ours` differs from `theirs` — the slots
/// the healing side must stream. Length mismatches (a misconfigured
/// peer) conservatively mark every slot.
pub(crate) fn mismatched_slots(theirs: &[HealDigest], ours: &[HealDigest]) -> Vec<u32> {
    if theirs.len() != ours.len() {
        return (0..theirs.len() as u32).collect();
    }
    theirs
        .iter()
        .zip(ours)
        .enumerate()
        .filter(|(_, (a, b))| a != b)
        .map(|(i, _)| i as u32)
        .collect()
}

/// One emitted chunk: its flow-control sequence number, whether it is
/// the final chunk of the session, and the keyed updates it carries.
/// The caller wraps it into
/// [`StoreMsg::RepairChunk`](crate::store::StoreMsg).
pub(crate) struct ChunkOut<U> {
    /// Session-local sequence number (1-based, contiguous).
    pub(crate) seq: u64,
    /// True on the session's last chunk — the receiver's ack for it
    /// completes the heal.
    pub(crate) last: bool,
    /// The chunk payload, in (shard, key, timestamp) plan order.
    pub(crate) updates: Vec<(Key, UpdateMsg<U>)>,
}

/// What a stalled session decided to do on a tick — see
/// [`HealSession::on_tick`].
pub(crate) enum HealTick {
    /// Progress is recent (or the stall threshold not reached): do
    /// nothing.
    Wait,
    /// Still awaiting the digest response: re-send the
    /// `DigestRequest` (the caller rebuilds it from the session).
    ResendDigest,
    /// Streaming but the window has been full for [`STALL_TICKS`]:
    /// the oldest unacknowledged chunk was expired to reopen the
    /// window. `complete` when that expiry drained the session
    /// entirely (last chunk emitted, nothing left in flight).
    Expired {
        /// The session finished.
        complete: bool,
    },
}

#[derive(Clone)]
enum Phase {
    /// Digest request sent, response not yet seen.
    AwaitDigest,
    /// Streaming chunks through the plan.
    Streaming {
        /// The streaming plan: every (shard, key) whose digest slot
        /// mismatched, in (shard, key) order. Only coordinates — the
        /// suffix itself is read chunk-by-chunk through bounded
        /// windows.
        plan: Vec<(usize, Key)>,
        /// Index of the key currently being streamed.
        key_idx: usize,
        /// Resume cursor within the current key: the last *raw*
        /// timestamp read (pre-exclusion-filter, so a run of the
        /// peer's own entries still advances it).
        after: Option<Timestamp>,
        /// Next chunk sequence number to assign.
        next_seq: u64,
        /// Sequence number of the final chunk, once emitted.
        last_seq: Option<u64>,
        /// Unacknowledged chunks: seq → estimated wire bytes.
        inflight: BTreeMap<u64, u64>,
    },
}

/// A resumable chunked-heal state machine for one healed peer: digest
/// exchange, then windowed chunk streaming paced by acks. The session
/// holds only coordinates and counters — never update payloads — so a
/// store's heal overhead is O(keys-planned), with payload memory
/// bounded by [`WINDOW`] × [`CHUNK`] entries in flight.
///
/// Sessions are driven by the store (or pool) that owns them; this
/// type is engine-agnostic — chunk payloads are pulled through a
/// caller-supplied bounded-window reader.
#[derive(Clone)]
pub struct HealSession {
    /// The peer being healed (chunk destination; its own entries are
    /// excluded from both digests and chunks).
    pub peer: Pid,
    /// The outage-start watermark: everything streamed or digested is
    /// stamped strictly above it. While the session lives it pins
    /// compaction exactly like a down peer's watermark.
    pub since: u64,
    /// Session id, echoed in every protocol message so stale replies
    /// from an earlier (cancelled) session are ignored.
    pub id: u64,
    /// Digest group count (the sender's shard count at start).
    pub groups: u32,
    /// The digests sent in the request, kept for stall re-sends.
    pub digests: Vec<HealDigest>,
    /// Ticks since the last protocol progress (reset on every
    /// response; see [`HealSession::on_tick`]).
    idle_ticks: u32,
    phase: Phase,
}

impl HealSession {
    /// A fresh session in the await-digest phase; the caller sends
    /// the corresponding `DigestRequest`.
    pub(crate) fn new(
        peer: Pid,
        since: u64,
        id: u64,
        groups: u32,
        digests: Vec<HealDigest>,
    ) -> Self {
        HealSession {
            peer,
            since,
            id,
            groups,
            digests,
            idle_ticks: 0,
            phase: Phase::AwaitDigest,
        }
    }

    /// The `DigestRequest` that opens this session (and is re-sent
    /// when the response stalls).
    pub(crate) fn digest_request<U>(&self) -> StoreMsg<U> {
        StoreMsg::DigestRequest {
            session: self.id,
            since: self.since,
            groups: self.groups,
            digests: self.digests.clone(),
        }
    }

    /// Estimated bytes currently in flight (unacknowledged chunks).
    pub fn inflight_bytes(&self) -> u64 {
        match &self.phase {
            Phase::AwaitDigest => 0,
            Phase::Streaming { inflight, .. } => inflight.values().sum(),
        }
    }

    /// The digest response arrived: enter the streaming phase.
    /// `candidates` is every (shard, key) the store could stream
    /// (shards above the watermark); keys whose digest slot is not in
    /// `mismatched` are dropped — those slots agreed, the peer
    /// already has their suffix. Returns how many of the session's
    /// `groups * RANGES` slots were skipped (the digest-skip count).
    ///
    /// Ignored (returns `None`) outside the await-digest phase — a
    /// duplicate response must not rebuild a plan mid-stream.
    pub(crate) fn begin_streaming(
        &mut self,
        mismatched: &[u32],
        candidates: Vec<(usize, Key)>,
    ) -> Option<u64> {
        if !matches!(self.phase, Phase::AwaitDigest) {
            return None;
        }
        let wanted: std::collections::BTreeSet<u32> = mismatched.iter().copied().collect();
        let mut plan: Vec<(usize, Key)> = candidates
            .into_iter()
            .filter(|(_, key)| wanted.contains(&digest_slot(*key, self.groups)))
            .collect();
        plan.sort_unstable();
        plan.dedup();
        let total = (self.groups as u64) * (RANGES as u64);
        let skipped = total.saturating_sub(wanted.len() as u64);
        self.idle_ticks = 0;
        self.phase = Phase::Streaming {
            plan,
            key_idx: 0,
            after: None,
            next_seq: 1,
            last_seq: None,
            inflight: BTreeMap::new(),
        };
        Some(skipped)
    }

    /// Emit as many chunks as the flow-control window allows, pulling
    /// payloads through `read(shard, key, since, after, limit) →
    /// (entries, more)` — the bounded-window engine cursor. Entries
    /// stamped by the healed peer itself are filtered out (it has its
    /// own log); the cursor still advances past them. The session's
    /// final chunk (possibly empty — e.g. an all-skipped plan) is
    /// flagged `last`; its ack completes the heal.
    ///
    /// Per chunk, `bytes_per_entry * len` is registered in flight.
    pub(crate) fn fill_chunks<U>(
        &mut self,
        bytes_per_entry: u64,
        mut read: impl FnMut(usize, Key, u64, Option<Timestamp>, usize) -> (Vec<UpdateMsg<U>>, bool),
    ) -> Vec<ChunkOut<U>> {
        let (peer, since) = (self.peer, self.since);
        let Phase::Streaming {
            plan,
            key_idx,
            after,
            next_seq,
            last_seq,
            inflight,
        } = &mut self.phase
        else {
            return Vec::new();
        };
        let mut out = Vec::new();
        while last_seq.is_none() && inflight.len() < WINDOW {
            let mut updates: Vec<(Key, UpdateMsg<U>)> = Vec::new();
            while updates.len() < CHUNK && *key_idx < plan.len() {
                let (shard, key) = plan[*key_idx];
                let want = CHUNK - updates.len();
                let (raw, more) = read(shard, key, since, *after, want);
                if let Some(m) = raw.last() {
                    *after = Some(m.ts);
                }
                let got = raw.len();
                updates.extend(
                    raw.into_iter()
                        .filter(|m| m.ts.pid != peer)
                        .map(|m| (key, m)),
                );
                if !more || got == 0 {
                    *key_idx += 1;
                    *after = None;
                }
            }
            let done = *key_idx >= plan.len();
            let seq = *next_seq;
            *next_seq += 1;
            if done {
                *last_seq = Some(seq);
            }
            inflight.insert(seq, bytes_per_entry * updates.len() as u64);
            out.push(ChunkOut {
                seq,
                last: done,
                updates,
            });
        }
        out
    }

    /// An ack for chunk `seq` arrived: release it from the window.
    /// Returns whether the session is now complete (final chunk
    /// emitted and nothing left unacknowledged). Duplicate or stale
    /// acks release nothing.
    pub(crate) fn on_ack(&mut self, seq: u64) -> bool {
        self.idle_ticks = 0;
        match &mut self.phase {
            Phase::AwaitDigest => false,
            Phase::Streaming {
                inflight, last_seq, ..
            } => {
                inflight.remove(&seq);
                last_seq.is_some() && inflight.is_empty()
            }
        }
    }

    /// One maintenance tick. Sessions making progress wait; a session
    /// idle for [`STALL_TICKS`] acts on its phase — re-sending the
    /// digest request, or expiring its oldest unacknowledged chunk so
    /// the window reopens and streaming resumes. Expiry trades flow
    /// control for liveness on a raw lossy link: the expired chunk's
    /// *data* is not lost when heal runs over `ReliableLink` (which
    /// retransmits it); without a reliable link the next heal cycle
    /// re-covers it.
    pub(crate) fn on_tick(&mut self) -> HealTick {
        self.idle_ticks += 1;
        if self.idle_ticks < STALL_TICKS {
            return HealTick::Wait;
        }
        self.idle_ticks = 0;
        match &mut self.phase {
            Phase::AwaitDigest => HealTick::ResendDigest,
            Phase::Streaming {
                inflight, last_seq, ..
            } => {
                let Some((&oldest, _)) = inflight.iter().next() else {
                    // Nothing in flight and still alive: only possible
                    // mid-drive (fill_chunks will run); wait.
                    return HealTick::Wait;
                };
                inflight.remove(&oldest);
                HealTick::Expired {
                    complete: last_seq.is_some() && inflight.is_empty(),
                }
            }
        }
    }
}

impl fmt::Debug for HealSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (phase, extra) = match &self.phase {
            Phase::AwaitDigest => ("await-digest", 0),
            Phase::Streaming { inflight, .. } => ("streaming", inflight.len()),
        };
        write!(
            f,
            "heal(p{} s{} since={} {phase} inflight={extra})",
            self.peer, self.id, self.since
        )
    }
}

/// Who touches the shards: everything the dialogue needs of the
/// replica it heals for. Calls take effect in the order they are made
/// — see the [module docs](self) for why the dialogue needs that.
pub trait ShardAccess {
    /// The replicated data type (its updates are what chunks carry).
    type Adt: UqAdt;
    /// What a shard operation can fail with.
    type Error: std::error::Error;

    /// The replica's process id.
    fn pid(&self) -> Pid;

    /// The shared Lamport clock's current value.
    fn clock_now(&self) -> u64;

    /// The digest group count of the sessions this replica opens.
    fn num_shards(&self) -> usize;

    /// Per-(group, key-range) digests of the retained suffix above
    /// `since`, excluding `exclude`'s own updates — what a
    /// [`StoreMsg::DigestRequest`] carries and what its receiver
    /// recomputes locally. Shards whose high water never passed
    /// `since` contribute nothing without touching their engines.
    fn digest_suffix(
        &mut self,
        since: u64,
        exclude: Pid,
        groups: u32,
    ) -> Result<Vec<HealDigest>, Self::Error>;

    /// Every `(shard, key)` in shards whose divergence high water
    /// passed `since` — the same pre-filter the digests use, so plan
    /// and digest always cover the same universe.
    fn heal_candidates(&mut self, since: u64) -> Result<Vec<(usize, Key)>, Self::Error>;

    /// One bounded-window suffix read of one key: O(limit) payload,
    /// never the whole tail.
    #[allow(clippy::type_complexity)]
    fn collect_window(
        &mut self,
        shard: usize,
        key: Key,
        since: u64,
        after: Option<Timestamp>,
        limit: usize,
    ) -> Result<(Vec<UpdateMsg<Update<Self>>>, bool), Self::Error>;

    /// Pin the replica's stability floor at `cap`, or release it: no
    /// key, present or future, is handed a floor above the pin.
    fn set_retention(&mut self, cap: Option<u64>) -> Result<(), Self::Error>;
}

/// A heal stream this replica receives: the healer's session id and,
/// until the session's last chunk has been ingested, the watermark it
/// streams above.
#[derive(Clone, Copy)]
struct Inbound {
    session: u64,
    pin: Option<u64>,
}

/// One replica's partition posture and heal state: which peers are
/// down since when, the sessions streaming to the ones that came
/// back, and the counters both leave behind. Every step that reads or
/// pins the shards runs as a [`Dialogue`].
#[derive(Clone, Default)]
pub(crate) struct Healer {
    pub(crate) partition: PartitionTracker,
    /// One per healing peer. A session pins compaction at its
    /// watermark exactly like a down peer.
    sessions: BTreeMap<Pid, HealSession>,
    /// The other direction: per healer, the last session it opened
    /// toward this replica, and its watermark while its stream has not
    /// landed — see [`Dialogue::pin_inbound`].
    inbound: BTreeMap<Pid, Inbound>,
    /// Ids disambiguate replies from cancelled sessions after a flap.
    next_session: u64,
    /// Heal chunks emitted (counter).
    pub(crate) chunks: u64,
    /// Digest slots skipped because both sides agreed (counter).
    pub(crate) digest_skips: u64,
    /// Estimated wire bytes of every chunk emitted (counter).
    pub(crate) replay_bytes: u64,
    /// Folded into the owning runtime's [`uc_sim::Metrics`] when
    /// attached.
    pub(crate) link_counters: Option<Arc<LinkCounters>>,
}

impl Healer {
    /// Live heal sessions, keyed by healing peer.
    pub(crate) fn sessions(&self) -> impl Iterator<Item = (&Pid, &HealSession)> {
        self.sessions.iter()
    }

    /// Estimated bytes in unacknowledged chunks (gauge): the sum of
    /// the live sessions' [`HealSession::inflight_bytes`].
    pub(crate) fn bytes_in_flight(&self) -> u64 {
        self.sessions
            .values()
            .map(HealSession::inflight_bytes)
            .sum()
    }

    /// Drop `peer`'s live session (flap); its watermark, so the caller
    /// can re-open the outage there.
    fn cancel_heal_session(&mut self, peer: Pid) -> Option<u64> {
        self.sessions.remove(&peer).map(|sess| sess.since)
    }

    /// Down-peer watermarks and the monitor verdict folded into one
    /// (unresolved) health report.
    pub(crate) fn health(&self, monitor: Option<&MonitorStats>) -> Health {
        let mut h = Health {
            down_peers: self.partition.down_peers().collect(),
            ..Health::default()
        };
        if let Some(stats) = monitor {
            h.monitor_clean = Some(stats.clean());
            h.monitor_violations = stats.total_violations();
            h.stable_bound = stats.stable_bound;
        }
        h
    }

    /// Mirror the heal counters and gauges into `reg` as
    /// `{prefix}_heal_*`.
    pub(crate) fn export_metrics(&self, prefix: &str, reg: &Registry) {
        let counter = |name: &str, v: u64| reg.counter(&format!("{prefix}_heal_{name}")).set(v);
        counter("replay_bytes_total", self.replay_bytes);
        counter("chunks_total", self.chunks);
        counter("digest_skips_total", self.digest_skips);
        let gauge = |name: &str, v: i64| reg.gauge(&format!("{prefix}_heal_{name}")).set(v);
        gauge("bytes_in_flight", self.bytes_in_flight() as i64);
        gauge("sessions", self.sessions.len() as i64);
    }
}

/// A replica's [`Healer`] beside the executor that touches its shards:
/// one step of the heal dialogue. What a step wants sent comes back
/// addressed per recipient.
pub(crate) struct Dialogue<'a, X> {
    pub(crate) heal: &'a mut Healer,
    pub(crate) shards: &'a mut X,
}

/// The update type of the replica `X` runs the shards of.
pub(crate) type Update<X> = <<X as ShardAccess>::Adt as UqAdt>::Update;

/// What a step of the dialogue returns: the messages to send.
pub(crate) type Sent<X> = Result<Vec<(Pid, StoreMsg<Update<X>>)>, <X as ShardAccess>::Error>;

impl<X: ShardAccess> Dialogue<'_, X> {
    /// `peer` became unreachable: record the outage-start watermark
    /// and pin compaction there.
    pub(crate) fn peer_down(&mut self, peer: Pid) -> Result<(), X::Error> {
        // A flap mid-heal cancels the peer's session; the outage
        // re-opens at the *session's* watermark (not the current
        // clock), so the unacknowledged remainder of the cancelled
        // stream is re-covered by the next heal — resumability through
        // idempotent chunk ingest. A stream the peer was sending us
        // hands its pin to the outage the same way.
        let now = self.shards.clock_now();
        let outgoing = self.heal.cancel_heal_session(peer);
        let inbound = self.heal.inbound.get_mut(&peer).and_then(|s| s.pin.take());
        let watermark = outgoing.into_iter().chain(inbound).fold(now, u64::min);
        self.heal.partition.mark_down(peer, watermark);
        self.apply_retention()
    }

    /// Re-derive the compaction pin from the down set, the sessions
    /// streaming out and the streams coming in: no engine may compact
    /// past the earliest watermark involved. Without the outgoing pin,
    /// an incoming heal burst (carrying the majority's high clocks)
    /// would advance stability and fold this replica's own
    /// partition-era updates into the base before they were streamed
    /// back out. Without the inbound pin, the healer's own heartbeats
    /// — which overtake its chunks — would let this replica compact
    /// past entries the stream has yet to deliver, and reject them as
    /// below the floor when they land.
    fn apply_retention(&mut self) -> Result<(), X::Error> {
        let down = self.heal.partition.down_peers().map(|(_, w)| w);
        let streaming = self.heal.sessions.values().map(|s| s.since);
        let inbound = self.heal.inbound.values().filter_map(|s| s.pin);
        self.shards
            .set_retention(down.chain(streaming).chain(inbound).min())
    }

    /// A healer opened session `session` toward this replica, above
    /// `since`: pin retention there until its last chunk has been
    /// ingested ([`Dialogue::inbound_landed`]), a newer session from
    /// the same healer replaces it, or the healer is marked down (the
    /// outage then takes the pin over). The request is the first frame
    /// a healer sends after its `PeerUp`, and per-sender FIFO delivers
    /// it before any clock the healer announces afterwards. A repeat of
    /// the current session — a stall re-send — changes nothing.
    pub(crate) fn pin_inbound(
        &mut self,
        from: Pid,
        session: u64,
        since: u64,
    ) -> Result<(), X::Error> {
        if self
            .heal
            .inbound
            .get(&from)
            .is_some_and(|s| s.session == session)
        {
            return Ok(());
        }
        let pin = Some(since);
        self.heal.inbound.insert(from, Inbound { session, pin });
        self.apply_retention()
    }

    /// The last chunk of `from`'s session `session` has been ingested:
    /// its stream has landed and its pin lifts.
    pub(crate) fn inbound_landed(&mut self, from: Pid, session: u64) -> Result<(), X::Error> {
        let Some(stream) = self.heal.inbound.get_mut(&from) else {
            return Ok(());
        };
        if stream.session != session || stream.pin.take().is_none() {
            return Ok(());
        }
        self.apply_retention()
    }

    /// `peer` is reachable again. If it was down and this replica
    /// holds anything it could stream above the outage watermark,
    /// open a session and return its [`StoreMsg::DigestRequest`];
    /// `None` when the peer was not down or every digest slot is
    /// empty (then the pin lifts if this was the last down peer).
    pub(crate) fn peer_up(&mut self, peer: Pid) -> Result<Option<StoreMsg<Update<X>>>, X::Error> {
        let Some(since) = self.heal.partition.mark_up(peer) else {
            return Ok(None);
        };
        // A session to this peer cannot exist (a session is cancelled
        // when its peer goes down), but clear defensively so a stale
        // one can never absorb the new session's replies.
        self.heal.cancel_heal_session(peer);
        let groups = self.shards.num_shards() as u32;
        // Folded under the outgoing pin; the release below is ordered
        // after it.
        let digests = self.shards.digest_suffix(since, peer, groups)?;
        let opener = if digests.iter().any(|d| d.count > 0) {
            let id = self.heal.next_session;
            self.heal.next_session += 1;
            let session = HealSession::new(peer, since, id, groups, digests);
            let opener = session.digest_request();
            self.heal.sessions.insert(peer, session);
            Some(opener)
        } else {
            None
        };
        // With a session, the pin stays at the same watermark until
        // its last chunk is acknowledged.
        self.apply_retention()?;
        Ok(opener)
    }

    /// A [`StoreMsg::DigestRequest`] arrived from a healer: pin
    /// retention for its stream ([`Dialogue::pin_inbound`]), compare
    /// its view against our own (excluding our own updates — exactly
    /// what it excluded too) and name the slots that differ.
    pub(crate) fn on_digest_request(
        &mut self,
        from: Pid,
        session: u64,
        since: u64,
        groups: u32,
        digests: &[HealDigest],
    ) -> Sent<X> {
        self.pin_inbound(from, session, since)?;
        let me = self.shards.pid();
        let ours = self.shards.digest_suffix(since, me, groups)?;
        let mismatched = mismatched_slots(digests, &ours);
        let response = StoreMsg::DigestResponse {
            session,
            since,
            mismatched,
        };
        Ok(vec![(from, response)])
    }

    /// A [`StoreMsg::DigestResponse`] arrived: build the streaming
    /// plan from the mismatched slots and emit the first window of
    /// chunks. Replies carrying a stale session id (or arriving with
    /// no session at all) are dropped.
    pub(crate) fn on_digest_response(
        &mut self,
        from: Pid,
        session: u64,
        since: u64,
        mismatched: &[u32],
    ) -> Sent<X> {
        let live = |s: &HealSession| s.id == session && s.since == since;
        if !self.heal.sessions.get(&from).is_some_and(live) {
            return Ok(Vec::new());
        }
        let candidates = self.shards.heal_candidates(since)?;
        let sess = self.heal.sessions.get_mut(&from).expect("checked above");
        if let Some(skipped) = sess.begin_streaming(mismatched, candidates) {
            self.heal.digest_skips += skipped;
        }
        self.pump_heal_session(from)
    }

    /// A [`StoreMsg::RepairAck`] arrived: release its chunk from the
    /// flow-control window and either refill the window or, when the
    /// final chunk is acknowledged, complete the session (lifting its
    /// retention pin).
    pub(crate) fn on_repair_ack(&mut self, from: Pid, session: u64, seq: u64) -> Sent<X> {
        let sessions = &mut self.heal.sessions;
        let Some(sess) = sessions.get_mut(&from).filter(|s| s.id == session) else {
            return Ok(Vec::new());
        };
        if sess.on_ack(seq) {
            sessions.remove(&from);
            self.apply_retention()?;
            return Ok(Vec::new());
        }
        self.pump_heal_session(from)
    }

    /// Emit as many chunks to `peer`'s session as its window allows,
    /// reading payloads through bounded-window cursors (O(chunk) peak
    /// memory) and accounting every emitted chunk's estimated bytes
    /// in the heal counters.
    fn pump_heal_session(&mut self, peer: Pid) -> Sent<X> {
        let Dialogue { heal, shards } = self;
        let Some(mut sess) = heal.sessions.remove(&peer) else {
            return Ok(Vec::new());
        };
        // Per entry: 8 (key) + 12 (timestamp clock+pid) + the update's
        // in-memory size. An estimate — the real encoding varies — but
        // monotone in chunk size, which is what the metric is for.
        let per_entry = 8 + 12 + std::mem::size_of::<Update<X>>() as u64;
        // The fill closure cannot return `Result`: a failed read ends
        // its key and is surfaced after the fill.
        let mut failed = None;
        let chunks = sess.fill_chunks(per_entry, |si, key, since, after, limit| {
            let read = shards.collect_window(si, key, since, after, limit);
            read.unwrap_or_else(|e| {
                failed = Some(e);
                (Vec::new(), false)
            })
        });
        let session = sess.id;
        heal.sessions.insert(peer, sess);
        if let Some(e) = failed {
            return Err(e);
        }
        let mut out = Vec::with_capacity(chunks.len());
        for c in chunks {
            let bytes = per_entry * c.updates.len() as u64;
            heal.chunks += 1;
            heal.replay_bytes += bytes;
            if let Some(cnt) = &heal.link_counters {
                LinkCounters::add(&cnt.heal_replay_bytes, bytes);
            }
            let chunk = StoreMsg::RepairChunk {
                session,
                seq: c.seq,
                last: c.last,
                updates: c.updates,
            };
            out.push((peer, chunk));
        }
        Ok(out)
    }

    /// Advance every live heal session one tick: stalled sessions
    /// re-send their digest request or expire their oldest
    /// unacknowledged chunk to reopen the window (liveness on raw
    /// lossy links — over `ReliableLink` the expired chunk's data
    /// still arrives; without one the next heal cycle re-covers it).
    pub(crate) fn heal_tick(&mut self) -> Sent<X> {
        let peers: Vec<Pid> = self.heal.sessions.keys().copied().collect();
        let mut out = Vec::new();
        for peer in peers {
            let sessions = &mut self.heal.sessions;
            let Some(sess) = sessions.get_mut(&peer) else {
                continue;
            };
            match sess.on_tick() {
                HealTick::Wait => {}
                HealTick::ResendDigest => out.push((peer, sess.digest_request())),
                HealTick::Expired { complete } => {
                    if complete {
                        sessions.remove(&peer);
                        self.apply_retention()?;
                    } else {
                        out.extend(self.pump_heal_session(peer)?);
                    }
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(clock: u64, pid: u32, v: u32) -> UpdateMsg<u32> {
        UpdateMsg {
            ts: Timestamp::new(clock, pid),
            update: v,
        }
    }

    /// The digests of a session over `groups` groups, all empty.
    fn empty_digests(groups: u32) -> Vec<HealDigest> {
        vec![HealDigest::default(); (groups * RANGES) as usize]
    }

    /// Every slot of `groups` groups, for a response that mismatches
    /// them all.
    fn all_slots(groups: u32) -> Vec<u32> {
        (0..groups * RANGES).collect()
    }

    #[test]
    fn digest_slot_is_stable_and_in_range() {
        for key in 0..500u64 {
            let s = digest_slot(key, 8);
            assert!(s < 8 * RANGES);
            assert_eq!(s, digest_slot(key, 8));
        }
        // Both coordinates are exercised: more than `groups` distinct
        // slots appear.
        let distinct: std::collections::BTreeSet<u32> =
            (0..500u64).map(|k| digest_slot(k, 8)).collect();
        assert!(distinct.len() > 8, "ranges never fan out");
    }

    #[test]
    fn digest_differs_on_payload_not_just_count() {
        // Same count, same timestamps, different payloads: the xor of
        // payload-carrying hashes must differ — this is the
        // collision-resistance the skip decision leans on.
        let ts = Timestamp::new(5, 1);
        let mut a = HealDigest::default();
        a.fold(entry_hash(ts, &10u32));
        let mut b = HealDigest::default();
        b.fold(entry_hash(ts, &11u32));
        assert_eq!(a.count, b.count);
        assert_ne!(a, b, "payloads must reach the digest");
        assert_eq!(mismatched_slots(&[a], &[b]), vec![0]);
        assert_eq!(mismatched_slots(&[a], &[a]), Vec::<u32>::new());
    }

    #[test]
    fn session_streams_in_windowed_chunks_and_completes_on_acks() {
        // Every slot mismatched, three keys whose entries together
        // overflow a full window.
        const PER_KEY: u64 = 1000;
        assert!(3 * PER_KEY as usize > WINDOW * CHUNK);
        let mut s = HealSession::new(2, 0, 7, 1, empty_digests(1));
        assert!(matches!(s.phase, Phase::AwaitDigest));
        let skipped = s
            .begin_streaming(&all_slots(1), vec![(0, 1), (0, 2), (0, 3)])
            .expect("first response enters streaming");
        assert_eq!(skipped, 0);
        let read = |_s: usize, key: u64, _since: u64, after: Option<Timestamp>, limit: usize| {
            let all: Vec<UpdateMsg<u32>> = (1..=PER_KEY)
                .map(|c| msg(c * 10 + key, 0, key as u32))
                .collect();
            let start = after.map_or(0, |a| all.iter().filter(|m| m.ts <= a).count());
            let end = (start + limit).min(all.len());
            (all[start..end].to_vec(), end < all.len())
        };
        let first = s.fill_chunks(10, read);
        // A full window of full chunks, nothing more.
        assert_eq!(first.len(), WINDOW);
        assert!(first.iter().all(|c| c.updates.len() == CHUNK && !c.last));
        assert_eq!(s.inflight_bytes(), (WINDOW * CHUNK) as u64 * 10);
        // Ack the first: its chunk leaves the window.
        assert!(!s.on_ack(first[0].seq));
        assert_eq!(s.inflight_bytes(), ((WINDOW - 1) * CHUNK) as u64 * 10);
        let mut pending: Vec<(u64, bool)> = first[1..].iter().map(|c| (c.seq, c.last)).collect();
        let mut total: Vec<_> = first.into_iter().flat_map(|c| c.updates).collect();
        loop {
            let more = s.fill_chunks(10, read);
            if more.is_empty() && pending.is_empty() {
                break;
            }
            for c in more {
                pending.push((c.seq, c.last));
                total.extend(c.updates);
            }
            let (seq, last) = pending.remove(0);
            let complete = s.on_ack(seq);
            assert_eq!(complete, last && pending.is_empty());
            if complete {
                break;
            }
        }
        // Every entry streamed exactly once, in plan order.
        let seen: Vec<(u64, u64)> = total.iter().map(|(k, m)| (*k, m.ts.clock)).collect();
        let plan: Vec<(u64, u64)> = (1..=3u64)
            .flat_map(|key| (1..=PER_KEY).map(move |c| (key, c * 10 + key)))
            .collect();
        assert_eq!(seen, plan);
        assert_eq!(s.inflight_bytes(), 0);
    }

    #[test]
    fn peer_own_entries_are_filtered_but_advance_the_cursor() {
        let mut s = HealSession::new(1, 0, 0, 1, empty_digests(1));
        s.begin_streaming(&all_slots(1), vec![(0, 7)]).unwrap();
        // A whole chunk of the peer's own entries (pid 1) first, then
        // entries alternating between pid 0 (ours) and pid 1: a cursor
        // keyed on post-filter output would stall on the first window,
        // which the filter empties.
        let n = 3 * CHUNK as u64;
        let pid_of = |c: u64| if c <= CHUNK as u64 { 1 } else { (c % 2) as u32 };
        let read = |_s: usize, _k: u64, _since: u64, after: Option<Timestamp>, limit: usize| {
            let all: Vec<UpdateMsg<u32>> = (1..=n).map(|c| msg(c, pid_of(c), c as u32)).collect();
            let start = after.map_or(0, |a| all.iter().filter(|m| m.ts <= a).count());
            let end = (start + limit).min(all.len());
            (all[start..end].to_vec(), end < all.len())
        };
        let chunks = s.fill_chunks(1, read);
        let streamed: Vec<u64> = chunks
            .iter()
            .flat_map(|c| c.updates.iter().map(|(_, m)| m.ts.clock))
            .collect();
        let ours: Vec<u64> = (1..=n).filter(|&c| pid_of(c) == 0).collect();
        assert_eq!(streamed, ours, "only pid-0 entries stream");
        assert!(chunks.last().unwrap().last);
    }

    #[test]
    fn stalled_session_resends_digest_then_expires_chunks() {
        let mut s = HealSession::new(1, 0, 0, 1, empty_digests(1));
        for _ in 1..STALL_TICKS {
            assert!(matches!(s.on_tick(), HealTick::Wait));
        }
        assert!(matches!(s.on_tick(), HealTick::ResendDigest));
        s.begin_streaming(&all_slots(1), vec![(0, 1)]).unwrap();
        let read = |_s: usize, _k: u64, _since: u64, _after: Option<Timestamp>, _limit: usize| {
            (vec![msg(1, 0, 1)], false)
        };
        let chunks = s.fill_chunks(10, read);
        assert_eq!(chunks.len(), 1);
        assert!(chunks[0].last);
        assert_eq!(s.inflight_bytes(), 10);
        // The ack never arrives; after the stall threshold the chunk
        // expires and (being the last) completes the session.
        for _ in 1..STALL_TICKS {
            assert!(matches!(s.on_tick(), HealTick::Wait));
        }
        let HealTick::Expired { complete } = s.on_tick() else {
            panic!("expected expiry");
        };
        assert!(complete);
        assert_eq!(s.inflight_bytes(), 0);
    }

    #[test]
    fn duplicate_digest_response_does_not_rebuild_the_plan() {
        let mut s = HealSession::new(1, 0, 0, 2, empty_digests(2));
        assert!(s.begin_streaming(&all_slots(2), vec![(0, 1)]).is_some());
        assert!(s.begin_streaming(&[0], vec![(0, 2)]).is_none());
    }
}
