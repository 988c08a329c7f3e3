//! The replica, written once: a [`Node`] is one replica's partition
//! posture and heal state above the [`Executor`] that runs its shards.
//! The crate's two node kinds are its two instantiations:
//!
//! | node kind | executor | its shards run |
//! |---|---|---|
//! | [`UcStore`](crate::store::UcStore) | [`Inline`](crate::store::Inline) | on the caller's thread, a direct call into one `ShardSet` |
//! | [`IngestPool`](crate::pool::IngestPool) | [`Workers`](crate::pool::Workers) | on persistent worker threads, a job per operation |
//!
//! Everything above the shards is written here, once, over any
//! executor: the partition and heal accessors, [`Node::health`],
//! [`Node::export_metrics`], and the [`Protocol`] impl — what the
//! replica does with an invocation, a frame, a burst and a tick. The
//! [`Executor`] trait is the only seam; each instantiation keeps its
//! own data operations (`update`, `query`, ingest, …), because only
//! their error types differ: a pool's fail with a poisoned worker.
//!
//! Moving a replica to the other executor
//! ([`UcStore::into_pool`](crate::store::UcStore::into_pool),
//! [`IngestPool::finish`](crate::pool::IngestPool::finish)) keeps its
//! `Healer`: a peer held down stays down, with its outage watermark,
//! and is healed at `PeerUp` like any other; the retention pin the
//! posture set moves with the shards.

use crate::heal::{Dialogue, HealDigest, HealSession, Healer, Update};
use crate::message::UpdateMsg;
use crate::store::{
    Key, PartitionTracker, StoreInput, StoreMsg, StoreOutput, StoreSnapshot, Summary,
};
use crate::timestamp::Timestamp;
use std::fmt;
use std::sync::Arc;
use uc_criteria::online::{MonitorConfig, MonitorStats};
use uc_obs::{Health, Registry};
use uc_sim::{Ctx, LinkCounters, Pid, Protocol};
use uc_spec::UqAdt;

/// Whoever runs a replica's shards: everything the protocol bodies,
/// the shared accessors of [`Node`] and the heal dialogue call.
/// [`Inline`](crate::store::Inline) reads its own shards and cannot
/// fail (`Error = Infallible`); [`Workers`](crate::pool::Workers)
/// send a call to the owning worker and wait for the answer, and fail
/// once a worker has panicked (`Error = PoolError`).
///
/// # Contract
///
/// Required of every implementation: calls on one executor take effect
/// **in the order they are made**. A `set_retention` is in force for
/// every `digest_suffix`, `collect_window` or ingest issued after it,
/// and not before. The dialogue leans on this whenever a pin is about to
/// relax: it reads under the outgoing, tighter pin and only then sets
/// the looser one, so no compaction can fold a suffix between the
/// decision to stream it and the read that streams it. Inline
/// execution orders calls trivially; the pool's per-worker inboxes are
/// FIFO.
pub trait Executor {
    /// The replicated data type (its updates are what chunks carry).
    type Adt: UqAdt;
    /// What a shard operation can fail with.
    type Error: std::error::Error;

    /// The name prefix of the replica's heal metrics
    /// (`{prefix}_heal_*`).
    const METRICS: &'static str;

    /// The replica's process id.
    fn pid(&self) -> Pid;

    /// The shared Lamport clock's current value.
    fn clock_now(&self) -> u64;

    /// The digest group count of the sessions this replica opens.
    fn num_shards(&self) -> usize;

    /// Stamp and apply a local update; the broadcast message.
    fn update(&mut self, key: Key, u: Update<Self>) -> Result<Msg<Self>, Self::Error>;

    /// Answer a query from local knowledge (read-your-writes).
    #[allow(clippy::type_complexity)]
    fn query(
        &mut self,
        key: Key,
        q: &<Self::Adt as UqAdt>::QueryIn,
    ) -> Result<<Self::Adt as UqAdt>::QueryOut, Self::Error>;

    /// An un-torn multi-key view at the current clock.
    fn consistent_snapshot(&mut self) -> Result<StoreSnapshot<Self::Adt>, Self::Error>;

    /// Ingest one frame that is not a heal control frame.
    fn deliver(&mut self, msg: Msg<Self>) -> Result<(), Self::Error>;

    /// Ingest an owned burst of such frames through the batched path.
    fn ingest(&mut self, burst: Vec<Msg<Self>>) -> Result<(), Self::Error>;

    /// The tick's own work: compaction, then the backend flush.
    fn maintain_and_flush(&mut self) -> Result<(), Self::Error>;

    /// Attach a streaming consistency monitor to every shard (see
    /// [`Node::attach_monitor`]).
    fn attach_monitor(&mut self, cfg: MonitorConfig) -> Result<(), Self::Error>;

    /// What the shards report, as of every operation issued before.
    fn summary(&self) -> Result<Summary, Self::Error>;

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

    /// Mirror the executor's own counters into `reg` (the pool's
    /// `uc_pool_*`); none by default.
    fn export_metrics(&self, reg: &Registry) {
        let _ = reg;
    }
}

/// The wire message of the replica `X` runs the shards of.
type Msg<X> = StoreMsg<Update<X>>;

/// A replica: its partition posture and heal dialogue above the
/// executor that runs its shards. Used through its two
/// instantiations, [`UcStore`](crate::store::UcStore) and
/// [`IngestPool`](crate::pool::IngestPool); see the [module
/// docs](self).
#[derive(Clone)]
pub struct Node<X> {
    /// Partition posture and the heal dialogue (see
    /// [`heal`](crate::heal)).
    pub(crate) heal: Healer,
    pub(crate) exec: X,
}

impl<X: Executor> fmt::Debug for Node<X> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Node")
            .field("pid", &self.pid())
            .field("clock", &self.clock())
            .field("shards", &self.num_shards())
            .field("partition", &self.heal.partition)
            .finish_non_exhaustive()
    }
}

impl<X: Executor> Node<X> {
    /// The heal state beside the executor it drives.
    pub(crate) fn dialogue(&mut self) -> Dialogue<'_, X> {
        Dialogue {
            heal: &mut self.heal,
            shards: &mut self.exec,
        }
    }

    /// This replica's process id.
    pub fn pid(&self) -> u32 {
        self.exec.pid()
    }

    /// The shared Lamport clock's current value.
    pub fn clock(&self) -> u64 {
        self.exec.clock_now()
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.exec.num_shards()
    }

    /// Announce the shared clock (stability heartbeat covering every
    /// key at once).
    pub fn heartbeat(&self) -> Msg<X> {
        StoreMsg::Heartbeat {
            pid: self.pid(),
            clock: self.clock(),
        }
    }

    /// Keys whose log holds un-compacted entries: the keys that are
    /// holding GC open, and the ones a sweep or flush visits. (A log
    /// emptied by its last insertion's own compaction is counted until
    /// the next sweep.) Read after every operation issued before it; 0
    /// from a pool whose workers can no longer answer ([`Node::health`]
    /// says why).
    pub fn live_keys(&self) -> usize {
        self.exec.summary().map_or(0, |s| s.live_keys)
    }

    /// The partition tracker: which peers are reported down, since
    /// which clock watermark.
    pub fn partition(&self) -> &PartitionTracker {
        &self.heal.partition
    }

    /// Attach shared link counters so heal-replay traffic is folded
    /// into the owning runtime's [`uc_sim::Metrics`].
    pub fn attach_link_counters(&mut self, counters: Arc<LinkCounters>) {
        self.heal.link_counters = Some(counters);
    }

    /// Estimated wire bytes this replica has streamed in heal chunks.
    pub fn heal_replay_bytes(&self) -> u64 {
        self.heal.replay_bytes
    }

    /// Heal chunks emitted by this replica (counter).
    pub fn heal_chunks(&self) -> u64 {
        self.heal.chunks
    }

    /// Digest slots skipped because both sides agreed (counter) —
    /// the O(divergence) win made visible.
    pub fn heal_digest_skips(&self) -> u64 {
        self.heal.digest_skips
    }

    /// Estimated bytes in unacknowledged heal chunks right now
    /// (gauge; at most [`WINDOW`](crate::heal::WINDOW) ×
    /// [`CHUNK`](crate::heal::CHUNK) entries' worth per session).
    pub fn heal_bytes_in_flight(&self) -> u64 {
        self.heal.bytes_in_flight()
    }

    /// Live heal sessions, keyed by healing peer (observability).
    pub fn heal_sessions(&self) -> impl Iterator<Item = (&Pid, &HealSession)> {
        self.heal.sessions()
    }

    /// Attach a streaming consistency monitor, replacing any attached
    /// before. Keys that already have engines are excluded from
    /// sampling — their prefix was never observed, so judging them
    /// would only produce false positives. A pool's workers each
    /// monitor their own keys; [`Node::monitor_stats`] merges them.
    pub fn attach_monitor(&mut self, cfg: MonitorConfig) -> Result<(), X::Error> {
        self.exec.attach_monitor(cfg)
    }

    /// The attached monitor's counters, as of every operation issued
    /// before the call; `None` without a monitor (or from a pool whose
    /// workers can no longer answer).
    pub fn monitor_stats(&self) -> Option<MonitorStats> {
        self.exec.summary().ok()?.monitor
    }

    /// Fold down-peer watermarks, a pool's poisoning and the monitor
    /// verdict into one health report.
    pub fn health(&self) -> Health {
        let summary = self.exec.summary();
        let monitor = summary.as_ref().ok().and_then(|s| s.monitor.as_ref());
        let mut h = self.heal.health(monitor);
        h.poisoned = summary.err().map(|e| e.to_string());
        h.resolve()
    }

    /// Mirror this replica's counters into `reg`: the shards' under
    /// `uc_store_*`, the heal's under `{prefix}_heal_*`
    /// ([`Executor::METRICS`]: `uc_store` or `uc_pool`), a pool's own
    /// under `uc_pool_*`, and the monitor's under `uc_monitor_*`.
    pub fn export_metrics(&self, reg: &Registry) {
        reg.gauge("uc_store_clock").set(self.clock() as i64);
        if let Ok(s) = self.exec.summary() {
            reg.gauge("uc_store_stability_floor").set(s.floor as i64);
            reg.gauge("uc_store_keys").set(s.keys as i64);
            reg.gauge("uc_store_log_len").set(s.log_len as i64);
            reg.gauge("uc_store_log_capacity")
                .set(s.log_capacity as i64);
            reg.gauge("uc_store_kept_folds").set(s.kept_folds as i64);
            reg.gauge("uc_store_live_keys").set(s.live_keys as i64);
            reg.counter("uc_store_repair_events_total")
                .set(s.repair_events);
            reg.counter("uc_store_repair_steps_total")
                .set(s.repair_steps);
            if let Some(stats) = &s.monitor {
                crate::observe::export_monitor_stats(stats, reg);
            }
        }
        self.exec.export_metrics(reg);
        self.heal.export_metrics(X::METRICS, reg);
    }

    /// Report `peer` unreachable. Records the outage-start watermark
    /// (the current clock): everything stamped above it while the peer
    /// stays down is, conservatively, divergence the heal must replay.
    /// Idempotent — repeated reports keep the earliest watermark.
    /// Compaction is pinned at the watermark so the missed suffix
    /// stays available for the heal.
    ///
    /// The watermark is taken at failure-*detection* time, not at the
    /// last point known delivered: updates stamped between the actual
    /// link failure and this verdict sit below the watermark and are
    /// never replayed by [`Node::peer_up`]. They are still
    /// delivered — the reliable link keeps retransmitting everything
    /// it has queued — *unless* its bounded retry queue sheds them
    /// first. That composition is a sizing contract, not an accident:
    /// `RetryConfig::queue_cap` must hold every message issued within
    /// the failure detector's detection window, so that nothing is
    /// shed before the verdict lands. After it, the protocol queues no
    /// update toward the peer (the heal delivers everything above the
    /// watermark) and one heartbeat, at the verdict, so at most one
    /// frame more waits toward the peer than at the verdict.
    /// Undersized queues are observable (`LinkStats::shed` /
    /// `gaps_skipped`, `Metrics::messages_dropped`) rather than silent.
    pub fn peer_down(&mut self, peer: Pid) -> Result<(), X::Error> {
        self.dialogue().peer_down(peer)
    }

    /// Report `peer` reachable again. If it was down and this replica
    /// holds anything it could stream above the outage-start
    /// watermark, opens a chunked heal session and returns the
    /// [`StoreMsg::DigestRequest`] to send it — the opener of the
    /// digest-guided, flow-controlled heal dialogue (see
    /// [`heal`](crate::heal)). The session then advances through
    /// [`Node::apply_message_from`] (or the `Protocol` impl) as
    /// responses and acks arrive, and keeps compaction pinned at the
    /// watermark until its final chunk is acknowledged. `None` when
    /// the peer was not down or there is nothing to stream (every
    /// digest slot is empty: nothing above the watermark, or only the
    /// peer's own updates).
    pub fn peer_up(&mut self, peer: Pid) -> Result<Option<Msg<X>>, X::Error> {
        self.dialogue().peer_up(peer)
    }

    /// Advance every live heal session one tick: stalled sessions
    /// re-send their digest request or expire their oldest
    /// unacknowledged chunk to reopen the window. Returns the messages
    /// to send, like [`Node::apply_message_from`].
    #[allow(clippy::type_complexity)]
    pub fn heal_tick(&mut self) -> Result<Vec<(Pid, Msg<X>)>, X::Error> {
        self.dialogue().heal_tick()
    }

    /// Ingest one peer message *with a reply path*: heal control
    /// frames (digest exchange, chunk delivery, flow-control acks) are
    /// answered and advanced — a chunk's payload rides the
    /// deduplicating batch path before its ack reopens the sender's
    /// window — and everything else is delivered. Returns the messages
    /// to send, addressed per recipient: the `Protocol` impl forwards
    /// them via `ctx.send`; direct-drive callers (tests, examples,
    /// [`UcStore::heal_peer`](crate::store::UcStore::heal_peer))
    /// deliver them by hand.
    #[allow(clippy::type_complexity)]
    pub fn apply_message_from(
        &mut self,
        from: Pid,
        msg: Msg<X>,
    ) -> Result<Vec<(Pid, Msg<X>)>, X::Error> {
        match msg {
            StoreMsg::Update { .. } | StoreMsg::Heartbeat { .. } | StoreMsg::Repair { .. } => {
                self.exec.deliver(msg)?;
                Ok(Vec::new())
            }
            heal => heal_frame(self, from, heal),
        }
    }
}

/// [`Node::apply_message_from`] for a heal frame. Out of line: every
/// delivered update passes through the caller, a heal frame comes a
/// few times per outage, and inlined, the dialogue doubles the
/// caller's code (on a 2-core host that cost the replicating e2e
/// workloads 1–2 % of their updates per second).
#[allow(clippy::type_complexity)]
#[inline(never)]
fn heal_frame<X: Executor>(
    node: &mut Node<X>,
    from: Pid,
    msg: Msg<X>,
) -> Result<Vec<(Pid, Msg<X>)>, X::Error> {
    match msg {
        StoreMsg::DigestRequest {
            session,
            since,
            groups,
            digests,
        } => node
            .dialogue()
            .on_digest_request(from, session, since, groups, &digests),
        StoreMsg::DigestResponse {
            session,
            since,
            mismatched,
        } => node
            .dialogue()
            .on_digest_response(from, session, since, &mismatched),
        StoreMsg::RepairChunk {
            session,
            seq,
            last,
            updates,
        } => {
            node.exec.ingest(vec![StoreMsg::Repair { updates }])?;
            if last {
                node.dialogue().inbound_landed(from, session)?;
            }
            Ok(vec![(from, StoreMsg::RepairAck { session, seq })])
        }
        StoreMsg::RepairAck { session, seq } => node.dialogue().on_repair_ack(from, session, seq),
        _ => unreachable!("apply_message_from delivers the data frames itself"),
    }
}

/// [`Protocol::on_invoke`]: every operation completes on local
/// knowledge (wait-free), on either side of a partition. Updates go to
/// every peer that is not down; membership verdicts drive the heal
/// dialogue.
///
/// A down peer's copy of an update is the heal's to deliver: it is
/// stamped above that peer's outage watermark, so the digest exchange
/// at `PeerUp` finds it. Sent into the cut, it would only sit in the
/// link's retry queue, be shed, and arrive as a duplicate of the heal.
fn on_invoke<X: Executor>(
    node: &mut Node<X>,
    input: StoreInput<X::Adt>,
    ctx: &mut Ctx<'_, Msg<X>>,
) -> Result<StoreOutput<X::Adt>, X::Error> {
    match input {
        StoreInput::Update(key, u) => {
            let m = node.exec.update(key, u)?;
            let StoreMsg::Update { msg, .. } = &m else {
                unreachable!("update produces an update message");
            };
            let ts = msg.ts;
            let partition = &node.heal.partition;
            if partition.down_count() == 0 {
                ctx.broadcast_others(m);
            } else {
                send_to_live(partition, m, ctx);
            }
            Ok(StoreOutput::Ack { key, ts })
        }
        StoreInput::Query(key, q) => {
            let out = node.exec.query(key, &q)?;
            Ok(StoreOutput::Value { key, out })
        }
        StoreInput::Snapshot(reqs) => {
            let snap = node.exec.consistent_snapshot()?;
            let outs = reqs
                .into_iter()
                .map(|(key, q)| (key, snap.query(key, &q)))
                .collect();
            let cut = snap.cut();
            Ok(StoreOutput::Snapshot { cut, outs })
        }
        StoreInput::PeerDown(peer) => membership(node, peer, true, ctx),
        StoreInput::PeerUp(peer) => membership(node, peer, false, ctx),
    }
}

/// An update for the peers `partition` does not hold down, one copy
/// each. Out of line and cold: with no peer down the caller broadcasts.
#[cold]
#[inline(never)]
fn send_to_live<M: Clone>(partition: &PartitionTracker, m: M, ctx: &mut Ctx<'_, M>) {
    let (me, n) = (ctx.pid(), ctx.n() as Pid);
    for to in (0..n).filter(|&to| to != me && !partition.is_down(to)) {
        ctx.send(to, m.clone());
    }
}

/// A failure detector's verdict on `peer`: record the outage, or open
/// the heal. Out of line, like [`heal_frame`]: every update and read
/// passes through the caller, a verdict comes a few times per outage.
///
/// A down peer is sent one heartbeat, at its outage watermark, and
/// then none until it is back ([`on_tick`]): the link below holds that
/// heartbeat and retransmits it, so a failure detector on the far side
/// of the cut hears this replica again once the cut heals, and the
/// link's retry queue holds at most that one frame more than it held
/// at the verdict. The watermark is the highest clock the peer may be
/// announced: the updates stamped above it are withheld from it
/// ([`on_invoke`]), and a clock announces that everything of ours at
/// or below it has been sent.
#[inline(never)]
fn membership<X: Executor>(
    node: &mut Node<X>,
    peer: Pid,
    down: bool,
    ctx: &mut Ctx<'_, Msg<X>>,
) -> Result<StoreOutput<X::Adt>, X::Error> {
    if down {
        node.peer_down(peer)?;
        if let Some(clock) = node.partition().watermark(peer) {
            let pid = node.pid();
            ctx.send(peer, StoreMsg::Heartbeat { pid, clock });
        }
    } else if let Some(opener) = node.peer_up(peer)? {
        ctx.send(peer, opener);
    }
    Ok(StoreOutput::Membership { peer, down })
}

/// [`Protocol::on_message`].
fn on_message<X: Executor>(
    node: &mut Node<X>,
    from: Pid,
    msg: Msg<X>,
    ctx: &mut Ctx<'_, Msg<X>>,
) -> Result<(), X::Error> {
    for (to, reply) in node.apply_message_from(from, msg)? {
        ctx.send(to, reply);
    }
    Ok(())
}

/// [`Protocol::on_batch`]: the burst's updates, heartbeats and chunk
/// payloads are ingested as one batch and the chunks' acks follow it;
/// the heal control frames are answered *after* that ingest, so a
/// digest response computed for a request sharing the burst reflects
/// the burst's own updates (maximizing skips). A request's retention
/// pin goes in *before* the ingest, though: the burst may carry the
/// same healer's heartbeats, sent after the request and announcing
/// clocks its stream has yet to deliver.
fn on_batch<X: Executor>(
    node: &mut Node<X>,
    msgs: Vec<(Pid, Msg<X>)>,
    ctx: &mut Ctx<'_, Msg<X>>,
) -> Result<(), X::Error> {
    let mut burst = Vec::with_capacity(msgs.len());
    let mut acks = Vec::new();
    let mut landed = Vec::new();
    let mut frames = Vec::new();
    for (from, m) in msgs {
        match m {
            StoreMsg::Update { .. } | StoreMsg::Heartbeat { .. } | StoreMsg::Repair { .. } => {
                burst.push(m)
            }
            StoreMsg::RepairChunk {
                session,
                seq,
                last,
                updates,
            } => {
                burst.push(StoreMsg::Repair { updates });
                acks.push((from, StoreMsg::RepairAck { session, seq }));
                if last {
                    landed.push((from, session));
                }
            }
            frame => {
                if let StoreMsg::DigestRequest { session, since, .. } = frame {
                    node.dialogue().pin_inbound(from, session, since)?;
                }
                frames.push((from, frame))
            }
        }
    }
    if !burst.is_empty() {
        node.exec.ingest(burst)?;
    }
    for (from, session) in landed {
        node.dialogue().inbound_landed(from, session)?;
    }
    for (to, ack) in acks {
        ctx.send(to, ack);
    }
    for (from, frame) in frames {
        on_message(node, from, frame, ctx)?;
    }
    Ok(())
}

/// [`Protocol::on_tick`]: announce the shared clock to the live peers,
/// advance stalled heal sessions (digest re-sends, window expiry), then
/// compact and flush. A down peer got its one heartbeat at the verdict
/// ([`membership`]); one a tick would fill its link's retry queue and
/// shed the frames sent into the cut before the verdict, which the
/// heal does not replay.
fn on_tick<X: Executor>(node: &mut Node<X>, ctx: &mut Ctx<'_, Msg<X>>) -> Result<(), X::Error> {
    let beat = node.heartbeat();
    let partition = &node.heal.partition;
    if partition.down_count() == 0 {
        ctx.broadcast_others(beat);
    } else {
        send_to_live(partition, beat, ctx);
    }
    for (to, m) in node.heal_tick()? {
        ctx.send(to, m);
    }
    node.exec.maintain_and_flush()
}

/// A replica is a wait-free [`Protocol`] node, so either kind runs
/// unchanged under the deterministic simulator and the event runtime:
/// invocations complete locally, peer traffic flows through (batched)
/// delivery, and a tick announces the clock — one heartbeat advances
/// every key's stability knowledge on every peer — advances stalled
/// heal sessions, compacts the live keys when the stability floor rose
/// and flushes the storage backends, with no dedicated heartbeat or
/// flusher thread.
///
/// # Panics
///
/// `Protocol` has no error channel; a poisoned pool panics with the
/// underlying [`PoolError`](crate::pool::PoolError) instead of
/// silently dropping traffic. The inline executor cannot fail.
impl<X: Executor> Protocol for Node<X> {
    type Msg = Msg<X>;
    type Input = StoreInput<X::Adt>;
    type Output = StoreOutput<X::Adt>;

    fn on_invoke(&mut self, input: Self::Input, ctx: &mut Ctx<'_, Self::Msg>) -> Self::Output {
        on_invoke(self, input, ctx).unwrap_or_else(|e| panic!("{e}"))
    }

    fn on_message(&mut self, from: Pid, msg: Self::Msg, ctx: &mut Ctx<'_, Self::Msg>) {
        on_message(self, from, msg, ctx).unwrap_or_else(|e| panic!("{e}"))
    }

    fn on_batch(&mut self, msgs: Vec<(Pid, Self::Msg)>, ctx: &mut Ctx<'_, Self::Msg>) {
        on_batch(self, msgs, ctx).unwrap_or_else(|e| panic!("{e}"))
    }

    fn on_tick(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        on_tick(self, ctx).unwrap_or_else(|e| panic!("{e}"))
    }
}
