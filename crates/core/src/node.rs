//! The replica as a [`Protocol`](uc_sim::Protocol) node, written once.
//!
//! [`UcStore`](crate::store::UcStore) and
//! [`IngestPool`](crate::pool::IngestPool) are the same replica run by
//! two executors, so what the replica does with an invocation, a
//! frame, a burst and a tick is written here, over the [`Node`] trait:
//! the heal [`Dialogue`] plus the six operations the bodies call. Each
//! `impl Protocol` forwards to these functions and maps its own error
//! — the orphan rule forbids a blanket impl.

use crate::heal::{Dialogue, ShardAccess};
use crate::store::{AvailabilityPolicy, Key, StoreInput, StoreMsg, StoreOutput, StoreSnapshot};
use uc_sim::{Ctx, Pid};
use uc_spec::UqAdt;

/// What the protocol bodies need of a replica, whoever runs its
/// shards.
pub(crate) trait Node<A: UqAdt> {
    /// What any operation can fail with.
    type Error;

    /// The heal state beside the executor it drives.
    fn dialogue(
        &mut self,
    ) -> Dialogue<'_, impl ShardAccess<Update = A::Update, Error = Self::Error>>;

    /// Stamp and apply a local update; the broadcast message.
    fn update(&mut self, key: Key, u: A::Update) -> Result<StoreMsg<A::Update>, Self::Error>;

    /// Answer a query from local knowledge (read-your-writes).
    fn query(&mut self, key: Key, q: &A::QueryIn) -> Result<A::QueryOut, Self::Error>;

    /// An un-torn multi-key view at the current clock.
    fn consistent_snapshot(&mut self) -> Result<StoreSnapshot<A>, Self::Error>;

    /// Ingest one frame that is not a heal control frame.
    fn deliver(&mut self, msg: StoreMsg<A::Update>) -> Result<(), Self::Error>;

    /// Ingest an owned burst of such frames through the batched path.
    fn ingest(&mut self, burst: Vec<StoreMsg<A::Update>>) -> Result<(), Self::Error>;

    /// The tick's own work: compaction, then the backend flush.
    fn maintain_and_flush(&mut self) -> Result<(), Self::Error>;
}

/// Answer a read under the active [`AvailabilityPolicy`]: in a
/// majority (or with the default `Available` policy) `answer` runs
/// as-is; in a minority, `DegradedMarked` wraps the answer and
/// `Refuse` rejects without computing it. `n` is the cluster size.
pub(crate) fn minority_read<A: UqAdt, N: Node<A>>(
    node: &mut N,
    n: usize,
    answer: impl FnOnce(&mut N) -> Result<StoreOutput<A>, N::Error>,
) -> Result<StoreOutput<A>, N::Error> {
    let (minority, policy, live) = {
        let partition = &node.dialogue().heal.partition;
        let live = n.saturating_sub(partition.down_count());
        (partition.in_minority(n), partition.policy(), live)
    };
    match policy {
        AvailabilityPolicy::DegradedMarked if minority => {
            Ok(StoreOutput::Degraded(Box::new(answer(node)?)))
        }
        AvailabilityPolicy::Refuse if minority => Ok(StoreOutput::Refused { live, cluster: n }),
        _ => answer(node),
    }
}

/// Ingest one peer message with a reply path: heal control frames are
/// answered and advanced, a chunk's payload rides the deduplicating
/// batch path (redelivery and overlap are no-ops) before its ack
/// reopens the sender's window, everything else is delivered. Returns
/// the messages to send, addressed per recipient.
#[allow(clippy::type_complexity)]
pub(crate) fn apply_message_from<A: UqAdt, N: Node<A>>(
    node: &mut N,
    from: Pid,
    msg: StoreMsg<A::Update>,
) -> Result<Vec<(Pid, StoreMsg<A::Update>)>, N::Error> {
    match msg {
        StoreMsg::DigestRequest {
            session,
            since,
            groups,
            ranges,
            digests,
        } => node
            .dialogue()
            .on_digest_request(from, session, since, groups, ranges, &digests),
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
            last: _,
            updates,
        } => {
            node.ingest(vec![StoreMsg::Repair { updates }])?;
            Ok(vec![(from, StoreMsg::RepairAck { session, seq })])
        }
        StoreMsg::RepairAck { session, seq } => node.dialogue().on_repair_ack(from, session, seq),
        other => {
            node.deliver(other)?;
            Ok(Vec::new())
        }
    }
}

/// [`Protocol::on_invoke`](uc_sim::Protocol::on_invoke): updates are
/// never refused (writes stay wait-free); reads follow the partition
/// posture; membership verdicts drive the heal dialogue.
pub(crate) fn on_invoke<A: UqAdt, N: Node<A>>(
    node: &mut N,
    input: StoreInput<A>,
    ctx: &mut Ctx<'_, StoreMsg<A::Update>>,
) -> Result<StoreOutput<A>, N::Error> {
    match input {
        StoreInput::Update(key, u) => {
            let m = node.update(key, u)?;
            let StoreMsg::Update { msg, .. } = &m else {
                unreachable!("update produces an update message");
            };
            let ts = msg.ts;
            ctx.broadcast_others(m);
            Ok(StoreOutput::Ack { key, ts })
        }
        StoreInput::Query(key, q) => minority_read(node, ctx.n(), |node| {
            let out = node.query(key, &q)?;
            Ok(StoreOutput::Value { key, out })
        }),
        StoreInput::Snapshot(reqs) => minority_read(node, ctx.n(), |node| {
            let snap = node.consistent_snapshot()?;
            let outs = reqs
                .into_iter()
                .map(|(key, q)| (key, snap.query(key, &q)))
                .collect();
            let cut = snap.cut();
            Ok(StoreOutput::Snapshot { cut, outs })
        }),
        StoreInput::PeerDown(peer) => {
            node.dialogue().peer_down(peer)?;
            Ok(StoreOutput::Membership { peer, down: true })
        }
        StoreInput::PeerUp(peer) => {
            if let Some(opener) = node.dialogue().peer_up(peer)? {
                ctx.send(peer, opener);
            }
            Ok(StoreOutput::Membership { peer, down: false })
        }
    }
}

/// [`Protocol::on_message`](uc_sim::Protocol::on_message).
pub(crate) fn on_message<A: UqAdt, N: Node<A>>(
    node: &mut N,
    from: Pid,
    msg: StoreMsg<A::Update>,
    ctx: &mut Ctx<'_, StoreMsg<A::Update>>,
) -> Result<(), N::Error> {
    for (to, reply) in apply_message_from(node, from, msg)? {
        ctx.send(to, reply);
    }
    Ok(())
}

/// [`Protocol::on_batch`](uc_sim::Protocol::on_batch): the burst's
/// updates, heartbeats and chunk payloads are ingested as one batch
/// and the chunks' acks follow it; the heal control frames are
/// answered *after* that ingest, so a digest response computed for a
/// request sharing the burst reflects the burst's own updates
/// (maximizing skips).
pub(crate) fn on_batch<A: UqAdt, N: Node<A>>(
    node: &mut N,
    msgs: Vec<(Pid, StoreMsg<A::Update>)>,
    ctx: &mut Ctx<'_, StoreMsg<A::Update>>,
) -> Result<(), N::Error> {
    let mut burst = Vec::with_capacity(msgs.len());
    let mut acks = Vec::new();
    let mut frames = Vec::new();
    for (from, m) in msgs {
        match m {
            StoreMsg::Update { .. } | StoreMsg::Heartbeat { .. } | StoreMsg::Repair { .. } => {
                burst.push(m)
            }
            StoreMsg::RepairChunk {
                session,
                seq,
                last: _,
                updates,
            } => {
                burst.push(StoreMsg::Repair { updates });
                acks.push((from, StoreMsg::RepairAck { session, seq }));
            }
            frame => frames.push((from, frame)),
        }
    }
    if !burst.is_empty() {
        node.ingest(burst)?;
    }
    for (to, ack) in acks {
        ctx.send(to, ack);
    }
    for (from, frame) in frames {
        on_message(node, from, frame, ctx)?;
    }
    Ok(())
}

/// [`Protocol::on_tick`](uc_sim::Protocol::on_tick): announce the
/// shared clock, advance stalled heal sessions (digest re-sends,
/// window expiry), then compact and flush.
pub(crate) fn on_tick<A: UqAdt, N: Node<A>>(
    node: &mut N,
    ctx: &mut Ctx<'_, StoreMsg<A::Update>>,
) -> Result<(), N::Error> {
    {
        let mut dialogue = node.dialogue();
        ctx.broadcast_others(StoreMsg::Heartbeat {
            pid: dialogue.shards.pid(),
            clock: dialogue.shards.clock_now(),
        });
        for (to, m) in dialogue.heal_tick()? {
            ctx.send(to, m);
        }
    }
    node.maintain_and_flush()
}
