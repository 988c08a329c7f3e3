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
use crate::store::{
    AvailabilityPolicy, Key, PartitionTracker, StoreInput, StoreMsg, StoreOutput, StoreSnapshot,
};
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

    /// Which peers are down, without building a dialogue: every update
    /// and every read asks.
    fn partition(&self) -> &PartitionTracker;

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
        let partition = node.partition();
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
        StoreMsg::Update { .. } | StoreMsg::Heartbeat { .. } | StoreMsg::Repair { .. } => {
            node.deliver(msg)?;
            Ok(Vec::new())
        }
        heal => heal_frame(node, from, heal),
    }
}

/// [`apply_message_from`] for a heal frame. Out of line: every
/// delivered update passes through the caller, a heal frame comes a
/// few times per outage, and inlined, the dialogue doubles the
/// caller's code (on a 2-core host that cost the replicating e2e
/// workloads 1–2 % of their updates per second).
#[allow(clippy::type_complexity)]
#[inline(never)]
fn heal_frame<A: UqAdt, N: Node<A>>(
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
            last,
            updates,
        } => {
            node.ingest(vec![StoreMsg::Repair { updates }])?;
            if last {
                node.dialogue().inbound_landed(from, session)?;
            }
            Ok(vec![(from, StoreMsg::RepairAck { session, seq })])
        }
        StoreMsg::RepairAck { session, seq } => node.dialogue().on_repair_ack(from, session, seq),
        _ => unreachable!("apply_message_from delivers the data frames itself"),
    }
}

/// [`Protocol::on_invoke`](uc_sim::Protocol::on_invoke): updates are
/// never refused (writes stay wait-free) and go to every peer that is
/// not down; reads follow the partition posture; membership verdicts
/// drive the heal dialogue.
///
/// A down peer's copy of an update is the heal's to deliver: it is
/// stamped above that peer's outage watermark, so the digest exchange
/// at `PeerUp` finds it. Sent into the cut, it would only sit in the
/// link's retry queue, be shed, and arrive as a duplicate of the heal.
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
            let partition = node.partition();
            if partition.down_count() == 0 {
                ctx.broadcast_others(m);
            } else {
                send_to_live(partition, m, ctx);
            }
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
#[inline(never)]
fn membership<A: UqAdt, N: Node<A>>(
    node: &mut N,
    peer: Pid,
    down: bool,
    ctx: &mut Ctx<'_, StoreMsg<A::Update>>,
) -> Result<StoreOutput<A>, N::Error> {
    if down {
        node.dialogue().peer_down(peer)?;
    } else if let Some(opener) = node.dialogue().peer_up(peer)? {
        ctx.send(peer, opener);
    }
    Ok(StoreOutput::Membership { peer, down })
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
/// (maximizing skips). A request's retention pin goes in *before* the
/// ingest, though: the burst may carry the same healer's heartbeats,
/// sent after the request and announcing clocks its stream has yet to
/// deliver.
pub(crate) fn on_batch<A: UqAdt, N: Node<A>>(
    node: &mut N,
    msgs: Vec<(Pid, StoreMsg<A::Update>)>,
    ctx: &mut Ctx<'_, StoreMsg<A::Update>>,
) -> Result<(), N::Error> {
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
        node.ingest(burst)?;
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

/// [`Protocol::on_tick`](uc_sim::Protocol::on_tick): announce the
/// shared clock, advance stalled heal sessions (digest re-sends,
/// window expiry), then compact and flush.
///
/// Every peer hears a heartbeat, a down one too: its link keeps
/// carrying something, so a failure detector on the far side of a cut
/// hears this replica again once the cut heals. A down peer is not
/// announced a clock above its outage watermark, though — the updates
/// stamped since are withheld from it ([`on_invoke`]), and a clock
/// announces that everything of ours at or below it has been sent.
pub(crate) fn on_tick<A: UqAdt, N: Node<A>>(
    node: &mut N,
    ctx: &mut Ctx<'_, StoreMsg<A::Update>>,
) -> Result<(), N::Error> {
    {
        let mut dialogue = node.dialogue();
        let (pid, clock) = (dialogue.shards.pid(), dialogue.shards.clock_now());
        let partition = &dialogue.heal.partition;
        if partition.down_count() == 0 {
            ctx.broadcast_others(StoreMsg::Heartbeat { pid, clock });
        } else {
            for to in (0..ctx.n() as Pid).filter(|&to| to != pid) {
                let clock = partition.watermark(to).map_or(clock, |w| w.min(clock));
                ctx.send(to, StoreMsg::Heartbeat { pid, clock });
            }
        }
        for (to, m) in dialogue.heal_tick()? {
            ctx.send(to, m);
        }
    }
    node.maintain_and_flush()
}
