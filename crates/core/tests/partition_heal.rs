//! Partition/heal differential suite: replicas separated by a network
//! partition — with updates continuing on **both** sides — must, after
//! reconciliation-on-heal, converge byte-identical to the reference
//! fold a never-partitioned run produces, under both store
//! strategies, naive replay and undo/redo, for majority and minority divergence directions, with
//! in-memory and on-disk segment backends, run by the sequential store
//! and by the worker pool, and across a crash in the middle of
//! applying a heal stream.
//!
//! The scenarios drive three replicas directly, through their
//! `Protocol` surface (delivery is explicit, so exactly which side
//! sees which message is under test control), and compare every
//! replica against per-key naive-replay references fed each update
//! exactly once — update consistency makes that fold the unique
//! converged state, independent of strategy, executor and delivery
//! order. A final simulator scenario runs the whole stack end to end:
//! [`ReliableLink`]-wrapped stores on a seeded lossy, partitioned
//! topology, with failure-detector verdicts injected as invocations
//! and retransmit/heal metrics asserted observable.

mod common;

use common::{on_every_node_kind, pooled, sequential, NaiveEngines, UndoEngines};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use uc_core::heal::{CHUNK, RANGES, WINDOW};
use uc_core::{
    BackendFactory, CheckpointFactory, CheckpointRepair, CutError, Executor, GcFactory,
    GenericReplica, IngestPool, Key, LogBackend, Node, PoolConfig, RepairStrategy, StableGc,
    StoreInput, StoreMsg, StoreOutput, StrategyFactory, UcStore, UpdateLog, UpdateMsg,
};
use uc_obs::{HealthStatus, Registry};
use uc_sim::{
    Ctx, Cut, DeliveryMode, HeartbeatDetector, LatencyModel, LinkCounters, LinkModel, Pid,
    Protocol, ReliableLink, RetryConfig, SimConfig, Simulation, SplitMix64, Topology,
};
use uc_spec::{SetAdt, SetQuery, SetUpdate};
use uc_storage::{ScratchDir, SegmentFactory};

type Adt = SetAdt<u32>;
type Msg = StoreMsg<SetUpdate<u32>>;

const KEYS: u64 = 6;
/// Cluster size of the direct-drive scenarios.
const N: usize = 3;

/// Deterministic update for step `i` issued by `pid`.
fn step_update(rng: &mut SplitMix64) -> (Key, SetUpdate<u32>) {
    let key = rng.next_u64() % KEYS;
    let v = (rng.next_u64() % 12) as u32;
    let u = if rng.next_u64().is_multiple_of(3) {
        SetUpdate::Delete(v)
    } else {
        SetUpdate::Insert(v)
    };
    (key, u)
}

/// Per-key naive references fed every update exactly once — the
/// canonical converged fold every healed replica must match.
fn references(all: &[Msg]) -> HashMap<Key, GenericReplica<Adt>> {
    let mut refs: HashMap<Key, GenericReplica<Adt>> = HashMap::new();
    for m in all {
        let StoreMsg::Update { key, msg } = m else {
            continue;
        };
        refs.entry(*key)
            .or_insert_with(|| GenericReplica::new(SetAdt::new(), 0))
            .on_deliver(msg.clone());
    }
    refs
}

/// The direct-drive scenarios run a replica of either kind — a
/// [`Node`] over either executor — through its `Protocol` surface and
/// read it through its shared accessors. All that still differs is
/// whether a maintenance tick can fail.
trait Replica {
    fn tick_maintenance(&mut self);
}

impl<F: StrategyFactory<Adt>, P: BackendFactory<Adt>> Replica for UcStore<Adt, F, P> {
    fn tick_maintenance(&mut self) {
        UcStore::tick_maintenance(self)
    }
}

impl<F: StrategyFactory<Adt>> Replica for IngestPool<Adt, F> {
    fn tick_maintenance(&mut self) {
        IngestPool::tick_maintenance(self).expect("live pool")
    }
}

/// One invocation on replica `pid`: its output and what it sent.
fn invoke<X: Executor<Adt = Adt>>(
    node: &mut Node<X>,
    pid: Pid,
    input: StoreInput<Adt>,
) -> (StoreOutput<Adt>, Vec<(Pid, Msg)>) {
    let mut sent = Vec::new();
    let out = node.on_invoke(input, &mut Ctx::new(pid, N, 0, &mut sent));
    (out, sent)
}

/// The update message an invocation of `update` was acknowledged
/// with — what every peer receives, by broadcast or by heal.
fn acked(ack: StoreOutput<Adt>, update: SetUpdate<u32>) -> Msg {
    let StoreOutput::Ack { key, ts } = ack else {
        panic!("an update is acknowledged, got {ack:?}");
    };
    StoreMsg::Update {
        key,
        msg: UpdateMsg { ts, update },
    }
}

/// Deliver `msg` from `from` to replica `pid`: what it sent back.
fn deliver<X: Executor<Adt = Adt>>(
    node: &mut Node<X>,
    pid: Pid,
    from: Pid,
    msg: Msg,
) -> Vec<(Pid, Msg)> {
    let mut sent = Vec::new();
    node.on_message(from, msg, &mut Ctx::new(pid, N, 0, &mut sent));
    sent
}

/// A strong read of `key` on replica `pid`.
fn read<X: Executor<Adt = Adt>>(node: &mut Node<X>, pid: Pid, key: Key) -> BTreeSet<u32> {
    match invoke(node, pid, StoreInput::Query(key, SetQuery::Read)).0 {
        StoreOutput::Value { out, .. } => out,
        other => panic!("an available replica answers reads, got {other:?}"),
    }
}

/// Report `peer` reachable again on `nodes[src]` and carry the heal
/// dialogue it opens between the two replicas until it ends.
fn heal<X: Executor<Adt = Adt>>(nodes: &mut [Node<X>], src: Pid, peer: Pid) {
    let (_, opener) = invoke(&mut nodes[src as usize], src, StoreInput::PeerUp(peer));
    let mut in_flight: VecDeque<(Pid, Pid, Msg)> =
        opener.into_iter().map(|(to, m)| (src, to, m)).collect();
    while let Some((from, to, m)) = in_flight.pop_front() {
        let replies = deliver(&mut nodes[to as usize], to, from, m);
        in_flight.extend(replies.into_iter().map(|(back, m)| (to, back, m)));
    }
}

fn assert_matches_reference<X: Executor<Adt = Adt>>(
    node: &mut Node<X>,
    pid: Pid,
    refs: &mut HashMap<Key, GenericReplica<Adt>>,
    label: &str,
) {
    for k in 0..KEYS {
        let expect = refs
            .get_mut(&k)
            .map(|r| r.materialize())
            .unwrap_or_default();
        assert_eq!(read(node, pid, k), expect, "{label}: key {k} diverged");
    }
}

/// The three-replica partition/heal scenario, over replicas built by
/// `make(pid, shards)`. `minority_updates` controls whether the
/// cut-off replica (pid 2) keeps issuing updates while partitioned
/// (writes stay wait-free on both sides).
fn run_heal_differential<X: Executor<Adt = Adt>>(
    make: impl Fn(Pid, usize) -> Node<X>,
    seed: u64,
    minority_updates: bool,
) where
    Node<X>: Replica,
{
    let mut rng = SplitMix64::new(seed);
    let mut nodes: Vec<Node<X>> = (0..N as Pid)
        .map(|pid| make(pid, 1 + (seed as usize % 4)))
        .collect();
    let mut all: Vec<Msg> = Vec::new();
    // An update on `p`, delivered to the replicas `reach` lets through.
    let mut step = |nodes: &mut Vec<Node<X>>, p: Pid, reach: &dyn Fn(Pid) -> bool| {
        let (key, update) = step_update(&mut rng);
        let input = StoreInput::Update(key, update);
        let (ack, sent) = invoke(&mut nodes[p as usize], p, input);
        all.push(acked(ack, update));
        for (to, m) in sent {
            if reach(to) {
                deliver(&mut nodes[to as usize], to, p, m);
            }
        }
    };

    // Phase 1: fully connected — every update reaches everyone.
    for i in 0..24u32 {
        step(&mut nodes, i % 3, &|_| true);
    }

    // Partition {0, 1} | {2}: failure detectors fire on both sides.
    for (pid, peer) in [(0, 2), (1, 2), (2, 0), (2, 1)] {
        invoke(&mut nodes[pid as usize], pid, StoreInput::PeerDown(peer));
    }

    // Phase 2: both sides keep accepting updates; delivery respects
    // the partition (pid 2 is alone; its broadcasts are lost).
    for i in 0..24u32 {
        let p = i % 3;
        if p == 2 && !minority_updates {
            continue;
        }
        step(&mut nodes, p, &|to| p != 2 && to != 2);
    }

    // Heal, through the digest-guided chunked dialogue. Both majority
    // replicas repair the minority one (the streams overlap — chunk
    // delivery must be idempotent), and the minority replica repairs
    // each majority replica with its own partition-era updates.
    for (src, peer) in [(0, 2), (1, 2), (2, 0), (2, 1)] {
        heal(&mut nodes, src, peer);
    }
    for n in &nodes {
        assert_eq!(n.partition().down_count(), 0, "heal clears the tracker");
        assert_eq!(
            n.heal_sessions().count(),
            0,
            "every dialogue ran to its last ack"
        );
    }
    if minority_updates {
        assert!(
            nodes[2].heal_replay_bytes() > 0,
            "minority-side divergence must be streamed back"
        );
    }
    assert!(nodes[0].heal_replay_bytes() > 0);

    // For the GC strategy: full stability coverage, then compaction —
    // semantics must survive compacting the healed log.
    let top = nodes.iter().map(|n| n.clock()).max().unwrap();
    for (p, node) in nodes.iter_mut().enumerate() {
        for pid in 0..N as Pid {
            deliver(node, p as Pid, pid, StoreMsg::Heartbeat { pid, clock: top });
        }
        node.tick_maintenance();
    }

    let mut refs = references(&all);
    for (p, node) in nodes.iter_mut().enumerate() {
        let label = format!("seed {seed} replica {p}");
        assert_matches_reference(node, p as Pid, &mut refs, &label);
    }
}

/// Every strategy's scenario runs on the sequential store and on the
/// worker pool: one replica algorithm, two executors.
fn heal_converges_to_reference<F>(factory: impl Fn(u64) -> F, salt: u64)
where
    F: StrategyFactory<Adt> + Send + 'static,
    F::Strategy: Send + 'static,
{
    for seed in 0..8 {
        let f = factory(seed);
        let minority_updates = seed % 2 == 0;
        run_heal_differential(
            |p, s| sequential(&Adt::new(), &f, p, s),
            salt ^ seed,
            minority_updates,
        );
        run_heal_differential(
            |p, s| pooled(&Adt::new(), &f, p, s, 2),
            salt ^ seed,
            minority_updates,
        );
    }
}

#[test]
fn heal_converges_to_reference_naive() {
    heal_converges_to_reference(|_| NaiveEngines, 0xA110);
}

#[test]
fn heal_converges_to_reference_checkpoint() {
    let spaced = |seed| CheckpointFactory {
        every: 1 + (seed as usize % 5),
    };
    heal_converges_to_reference(spaced, 0xA111);
}

#[test]
fn heal_converges_to_reference_undo() {
    heal_converges_to_reference(|_| UndoEngines, 0xA112);
}

#[test]
fn heal_converges_to_reference_gc() {
    // StableGc compacts only prefixes every peer has observed; a
    // partitioned peer's frozen clock pins the bound below the outage
    // watermark, which is exactly what keeps the heal suffix complete
    // (asserted inside: healed replicas match the reference even after
    // a full post-heal compaction round).
    heal_converges_to_reference(|_| GcFactory { n: 3 }, 0xA113);
}

/// Drift regression: a peer comes back when the only thing stamped
/// above its outage watermark is its *own* update. Both node kinds
/// must agree there is nothing to stream: no session, no chunk, and
/// the retention pin lifts (the next heartbeat round compacts).
#[test]
fn peer_up_with_only_the_peers_own_updates_opens_no_session() {
    let gc = GcFactory { n: 2 };
    own_updates_open_no_session(sequential(&Adt::new(), &gc, 0, 2));
    own_updates_open_no_session(pooled(&Adt::new(), &gc, 0, 2, 2));
}

fn own_updates_open_no_session<X: Executor<Adt = Adt>>(mut node: Node<X>)
where
    Node<X>: Replica,
{
    let mut peer = sequential(&Adt::new(), &GcFactory { n: 2 }, 1, 2);
    invoke(&mut node, 0, StoreInput::PeerDown(1));
    let (_, sent) = invoke(&mut peer, 1, StoreInput::Update(4, SetUpdate::Insert(7)));
    let own = sent.into_iter().next().expect("a broadcast").1;
    let StoreMsg::Update { msg, .. } = &own else {
        panic!("an update broadcasts an update");
    };
    let top = msg.ts.clock;
    assert!(top > node.partition().down_peers().next().unwrap().1);
    deliver(&mut node, 0, 1, own);
    // A heartbeat round while the peer is down: the pin holds the
    // entry in the log.
    let hear_everyone = |node: &mut Node<X>| {
        for pid in 0..2 {
            deliver(node, 0, pid, StoreMsg::Heartbeat { pid, clock: top });
        }
        node.tick_maintenance();
    };
    hear_everyone(&mut node);
    assert_eq!(node.live_keys(), 1, "pinned while the peer is down");

    let (_, sent) = invoke(&mut node, 0, StoreInput::PeerUp(1));
    assert!(sent.is_empty(), "nothing to stream, nothing sent: {sent:?}");
    assert_eq!(node.heal_sessions().count(), 0);
    assert_eq!(node.heal_chunks(), 0);
    assert_eq!(node.partition().down_count(), 0);
    hear_everyone(&mut node);
    assert_eq!(node.live_keys(), 0, "the pin lifted with the verdict");
    assert_eq!(read(&mut node, 0, 4), BTreeSet::from([7]));
}

/// Open a heal of `peer` on `healer` and pull its whole chunk stream,
/// acknowledging every chunk by hand; `sink` only answers the digest
/// request (which does not change it).
fn chunk_stream<F, P, Q>(
    healer: &mut UcStore<Adt, F, P>,
    sink: &mut UcStore<Adt, F, Q>,
) -> Vec<(Key, UpdateMsg<SetUpdate<u32>>)>
where
    F: StrategyFactory<Adt>,
    P: BackendFactory<Adt>,
    Q: BackendFactory<Adt>,
{
    let (me, peer) = (healer.pid(), sink.pid());
    let Ok(opener) = healer.peer_up(peer);
    let opener = opener.expect("divergence opens a session");
    let Ok(replies) = sink.apply_message_from(me, opener);
    let mut to_healer: Vec<Msg> = replies.into_iter().map(|(_, m)| m).collect();
    let mut stream = Vec::new();
    while let Some(m) = to_healer.pop() {
        let Ok(replies) = healer.apply_message_from(peer, m);
        for (_, out) in replies {
            let StoreMsg::RepairChunk {
                session,
                seq,
                updates,
                ..
            } = out
            else {
                panic!("a streaming session sends chunks, not {out:?}");
            };
            stream.extend(updates);
            to_healer.push(StoreMsg::RepairAck { session, seq });
        }
    }
    assert_eq!(healer.heal_sessions().count(), 0, "stream ran to its end");
    stream
}

/// Segment-backed heal source and sink: the chunk stream a
/// segment-backed replica sends (out of the same in-memory sorted log
/// — the journal keeps arrival order and is never read back while the
/// store lives) must be identical to the stream an in-memory replica
/// holding the same log sends — and a crash halfway through *applying*
/// a heal stream, followed by recovery from disk and a redelivered
/// (overlapping) stream, must still converge.
#[test]
fn segment_heal_stream_matches_memory_and_survives_crash_mid_heal() {
    let tmp_a = ScratchDir::new("heal-src");
    let tmp_c = ScratchDir::new("heal-dst");
    let persist_a = SegmentFactory::at(tmp_a.path()).expect("scratch");
    let persist_c = SegmentFactory::at(tmp_c.path()).expect("scratch");
    let factory = CheckpointFactory { every: 4 };
    // A (pid 0) on segments: the heal *source*. B (pid 1) in memory:
    // the differential control. C (pid 2) on segments: the heal
    // *sink*, crashed mid-stream.
    let mut a: UcStore<Adt, CheckpointFactory, SegmentFactory> =
        UcStore::with_persistence(SetAdt::new(), 0, 2, factory, persist_a.clone());
    let mut b: UcStore<Adt, CheckpointFactory> = UcStore::new(SetAdt::new(), 1, 2, factory);
    let mut c: UcStore<Adt, CheckpointFactory, SegmentFactory> =
        UcStore::with_persistence(SetAdt::new(), 2, 2, factory, persist_c.clone());

    let mut rng = SplitMix64::new(0x5E6);
    let mut all: Vec<Msg> = Vec::new();
    for _ in 0..16u64 {
        let (key, u) = step_update(&mut rng);
        let m = a.update(key, u);
        let Ok(_) = b.apply_message_from(0, m.clone());
        let Ok(_) = c.apply_message_from(0, m.clone());
        all.push(m);
    }
    c.flush_backends();

    // Partition: C drops off; A and B keep going in lockstep.
    a.peer_down(2);
    b.peer_down(2);
    for _ in 0..16u64 {
        let (key, u) = step_update(&mut rng);
        let m = a.update(key, u);
        let Ok(_) = b.apply_message_from(0, m.clone());
        all.push(m);
    }

    // Heal-source differential: the segment-backed replica's chunk
    // stream must equal the in-memory replica's, entry for entry.
    let from_seg = chunk_stream(&mut a, &mut c);
    let from_mem = chunk_stream(&mut b, &mut c);
    assert_eq!(from_seg.len(), 16, "exactly the partition-era updates");
    assert_eq!(
        from_seg, from_mem,
        "segment heal stream diverged from memory"
    );
    assert!(a.heal_replay_bytes() > 0);

    // Crash mid-heal: C applies half the stream, makes it durable, and
    // dies. Reopen from disk, then redeliver the *whole* stream (the
    // healer cannot know how far the crashed receiver got) — dedup
    // absorbs the overlap.
    let half = from_seg.len() / 2;
    let updates = from_seg[..half].to_vec();
    let Ok(_) = c.apply_message_from(0, StoreMsg::Repair { updates });
    c.flush_backends();
    drop(c); // kill
    let mut c: UcStore<Adt, CheckpointFactory, SegmentFactory> =
        UcStore::reopen(SetAdt::new(), 2, 2, factory, persist_c);
    let Ok(_) = c.apply_message_from(0, StoreMsg::Repair { updates: from_seg });

    let mut refs = references(&all);
    assert_matches_reference(&mut a, 0, &mut refs, "segment source");
    assert_matches_reference(&mut b, 1, &mut refs, "memory control");
    assert_matches_reference(&mut c, 2, &mut refs, "crashed-and-healed sink");
}

/// Crash in the middle of a *chunked* heal: the sink durably applies
/// only the first flow-controlled chunk and dies before acking; the
/// healer sees the flap, cancels its session (re-opening the outage at
/// the session watermark), and the post-reopen re-heal — whose chunks
/// overlap everything already applied — converges through idempotent
/// dedup. The resumability contract of the digest-guided heal path.
#[test]
fn chunked_heal_crash_mid_stream_reopens_and_reheals() {
    let tmp_a = ScratchDir::new("chunk-heal-src");
    let tmp_c = ScratchDir::new("chunk-heal-dst");
    let persist_a = SegmentFactory::at(tmp_a.path()).expect("scratch");
    let persist_c = SegmentFactory::at(tmp_c.path()).expect("scratch");
    let factory = CheckpointFactory { every: 4 };
    let mut a: UcStore<Adt, CheckpointFactory, SegmentFactory> =
        UcStore::with_persistence(SetAdt::new(), 0, 2, factory, persist_a);
    let mut c: UcStore<Adt, CheckpointFactory, SegmentFactory> =
        UcStore::with_persistence(SetAdt::new(), 2, 2, factory, persist_c.clone());

    let mut rng = SplitMix64::new(0xC4A5);
    let mut all: Vec<Msg> = Vec::new();
    for _ in 0..12u64 {
        let (key, u) = step_update(&mut rng);
        let m = a.update(key, u);
        let Ok(_) = c.apply_message_from(0, m.clone());
        all.push(m);
    }
    c.flush_backends();
    a.peer_down(2);
    // One chunk more than a full window: the stream pauses with its
    // last chunk unsent, so "crash after the first chunk" is a
    // reachable protocol state.
    for _ in 0..(WINDOW + 1) * CHUNK {
        let (key, u) = step_update(&mut rng);
        let m = a.update(key, u);
        all.push(m);
    }

    // Drive the dialogue by hand up to the first chunk.
    let Ok(opener) = a.peer_up(2);
    let opener = opener.expect("divergence opens a session");
    let Ok(mut resp) = c.apply_message_from(0, opener);
    assert_eq!(resp.len(), 1, "digest request answers with one response");
    let Ok(mut chunks) = a.apply_message_from(2, resp.remove(0).1);
    assert_eq!(chunks.len(), WINDOW, "the response fills the window");
    let (_, first_chunk) = chunks.remove(0);
    // C applies it durably… and crashes before its ack is delivered.
    let _lost_ack = c.apply_message_from(0, first_chunk);
    c.flush_backends();
    drop(c);
    assert!(a.heal_bytes_in_flight() > 0, "chunk still unacked");

    // The healer's detector fires again: session cancelled, outage
    // re-opened at the session watermark (not the current clock).
    let session_since = a.heal_sessions().next().map(|(_, s)| s.since).unwrap();
    a.peer_down(2);
    assert!(
        a.heal_sessions().next().is_none(),
        "flap cancels the session"
    );
    assert_eq!(a.heal_bytes_in_flight(), 0, "gauge drains on cancel");
    assert_eq!(
        a.partition().down_peers().collect::<Vec<_>>(),
        vec![(2, session_since)],
        "re-opened outage covers the cancelled stream"
    );

    // Recover the sink from disk and re-heal from scratch: the first
    // chunk is re-streamed (the healer cannot know it landed) and
    // deduplicated on arrival.
    let mut c: UcStore<Adt, CheckpointFactory, SegmentFactory> =
        UcStore::reopen(SetAdt::new(), 2, 2, factory, persist_c);
    let streamed = a.heal_peer(&mut c);
    assert!(
        streamed > WINDOW as u64,
        "re-heal streams the full chunked suffix: {streamed} chunks"
    );
    assert!(a.heal_sessions().next().is_none());
    assert_eq!(a.heal_bytes_in_flight(), 0);

    let mut refs = references(&all);
    assert_matches_reference(&mut a, 0, &mut refs, "chunked source");
    assert_matches_reference(&mut c, 2, &mut refs, "crashed-and-rehealed sink");
}

/// `UcStore::heal_peer`, sampling the healer's in-flight gauge between
/// rounds: runs the heal dialogue from `healer` to `healed` to its end
/// and returns the chunks streamed and the peak of the gauge in bytes.
/// It copies `heal_peer`'s loop because the gauge must be read while
/// frames are still in flight; a change to that loop must follow here.
fn heal_sampling_in_flight(
    healer: &mut UcStore<Adt, CheckpointFactory>,
    healed: &mut UcStore<Adt, CheckpointFactory>,
) -> (usize, u64) {
    let (me, peer) = (healer.pid(), healed.pid());
    let Ok(opener) = healer.peer_up(peer);
    let mut to_peer: Vec<Msg> = opener.into_iter().collect();
    let (mut chunks, mut peak) = (0, 0);
    while !to_peer.is_empty() {
        chunks += to_peer
            .iter()
            .filter(|m| matches!(m, StoreMsg::RepairChunk { .. }))
            .count();
        let to_me: Vec<(Pid, Msg)> = to_peer
            .drain(..)
            .flat_map(|m| {
                let Ok(replies) = healed.apply_message_from(me, m);
                replies
            })
            .collect();
        peak = peak.max(healer.heal_bytes_in_flight());
        for (_, m) in to_me {
            let Ok(replies) = healer.apply_message_from(peer, m);
            to_peer.extend(replies.into_iter().map(|(_, m)| m));
        }
        peak = peak.max(healer.heal_bytes_in_flight());
    }
    (chunks, peak)
}

/// A divergence many chunks long heals in flow-controlled chunks: the
/// stream is exactly the partition-era updates, the healed replica
/// matches the never-partitioned one key for key, and the healer fills
/// its window but never holds more than `WINDOW × CHUNK` entries
/// unacknowledged.
#[test]
fn a_chunked_heal_keeps_at_most_window_times_chunk_entries_in_flight() {
    const DIVERGENCE: usize = WINDOW * CHUNK + 3 * CHUNK / 2;
    let factory = CheckpointFactory { every: 32 };
    let mut majority = UcStore::new(SetAdt::new(), 0, 4, factory);
    let mut minority = UcStore::new(SetAdt::new(), 2, 4, factory);
    let mut rng = SplitMix64::new(0xBEA7);
    for _ in 0..2_000 {
        let (key, u) = step_update(&mut rng);
        let m = majority.update(key, u);
        let Ok(_) = minority.apply_message_from(0, m);
    }
    majority.peer_down(2);
    for _ in 0..DIVERGENCE {
        let (key, u) = step_update(&mut rng);
        majority.update(key, u);
    }

    let (chunks, peak) = heal_sampling_in_flight(&mut majority, &mut minority);
    let per_entry = (8 + 12 + std::mem::size_of::<SetUpdate<u32>>()) as u64;
    assert_eq!(
        majority.heal_replay_bytes(),
        DIVERGENCE as u64 * per_entry,
        "the stream is exactly the partition-era updates"
    );
    assert!(chunks >= DIVERGENCE.div_ceil(CHUNK), "{chunks} chunks");
    assert_eq!(
        peak / per_entry,
        (WINDOW * CHUNK) as u64,
        "peak in flight in entries: a full window, and no more"
    );
    assert_eq!(majority.heal_bytes_in_flight(), 0, "every chunk acked");
    for key in majority.keys() {
        assert_eq!(
            majority.query(key, &SetQuery::Read),
            minority.query(key, &SetQuery::Read),
            "key {key}"
        );
    }
}

/// One diverged key of 128 over 16 shards: the digest exchange skips at
/// least nine tenths of its slots, and still streams that key.
#[test]
fn one_diverged_key_of_128_skips_nine_tenths_of_the_digest_slots() {
    let factory = CheckpointFactory { every: 32 };
    let mut healer = UcStore::new(SetAdt::new(), 0, 16, factory);
    let mut healed = UcStore::new(SetAdt::new(), 2, 16, factory);
    for i in 0..512u32 {
        let m = healer.update(u64::from(i) % 128, SetUpdate::Insert(i));
        let Ok(_) = healed.apply_message_from(0, m);
    }
    healer.peer_down(2);
    for i in 0..32 {
        healer.update(7, SetUpdate::Insert(1_000 + i));
    }
    assert!(healer.heal_peer(&mut healed) > 0);
    let slots = 16 * u64::from(RANGES);
    let skipped = healer.heal_digest_skips();
    assert!(
        skipped * 10 >= slots * 9,
        "skipped {skipped} of {slots} digest slots"
    );
    assert_eq!(
        healer.query(7, &SetQuery::Read),
        healed.query(7, &SetQuery::Read),
        "the diverged key is never skipped"
    );
}

/// Regression (review): stability GC over reordering links. A
/// heartbeat carrying a high clock must not overtake a same-sender
/// in-flight update — `StableGc` would advance the compaction bound
/// (and the log's duplicate-rejection floor) past the update's clock,
/// and every insert path would then silently reject the update when
/// its retransmission finally landed: permanent divergence with no
/// peer ever marked down, so the heal retention cap never applies.
/// `ReliableLink` releases payloads in per-channel sequence order,
/// which makes the race impossible by construction; this runs full
/// `StableGc` stores over a lossy, duplicating, heavily reordering
/// topology (no partition window) with aggressive heartbeat ticks and
/// asserts convergence *after compaction genuinely advanced*. Every
/// inserted value is unique, so one silently rejected update shows up
/// as a missing element on the receiving side.
///
/// Run per message and again on a batch window: inside one
/// `ReliableLink::on_batch` a heartbeat can sit ahead of the
/// retransmission of the same sender's earlier update, and must still
/// be released after it.
#[test]
fn gc_store_survives_reordered_heartbeats_without_silent_rejection() {
    gc_store_under_reordered_heartbeats(DeliveryMode::PerMessage);
    gc_store_under_reordered_heartbeats(DeliveryMode::Batched { window: 12 });
}

fn gc_store_under_reordered_heartbeats(mode: DeliveryMode) {
    type Node = ReliableLink<UcStore<Adt, GcFactory>>;
    let n = 3;
    let mut sim: Simulation<Node> = Simulation::new(
        SimConfig {
            n,
            seed: 0x0DD5,
            latency: LatencyModel::Constant(1),
            fifo_links: false,
        },
        |pid| {
            ReliableLink::new(
                UcStore::new(SetAdt::new(), pid, 2, GcFactory { n: 3 }),
                RetryConfig {
                    base: 30,
                    max_backoff: 240,
                    jitter: 7,
                    queue_cap: 1024,
                },
                0x0DD5 ^ pid as u64,
            )
        },
    );
    sim.set_topology(Topology::uniform(
        n,
        LinkModel {
            latency: LatencyModel::Uniform(1, 30),
            // Reorder jitter swamps the base latency: arrival order is
            // rampantly non-FIFO, exactly the overtaking-heartbeat
            // setup from the review.
            reorder: 60,
            loss: 0.25,
            duplicate: 0.15,
        },
    ));
    // Frequent ticks: every one broadcasts the shared clock, so the
    // stability bound chases the in-flight updates as closely as the
    // delivery layer allows.
    sim.set_delivery_mode(mode);
    sim.schedule_ticks(20, 8_000);
    let mut rng = SplitMix64::new(0x0DD6);
    for i in 0..120u64 {
        let pid = (i % 3) as Pid;
        let key = rng.next_u64() % KEYS;
        sim.schedule_invoke(
            10 + i * 50,
            pid,
            StoreInput::Update(key, SetUpdate::Insert(i as u32)),
        );
    }
    sim.run_to_quiescence();

    // The race is only exercised if stability actually advanced.
    let compacted: u64 = (0..n as Pid)
        .map(|p| {
            let store = sim.process(p).inner();
            (0..KEYS)
                .filter_map(|k| store.engine(k))
                .map(|e| e.strategy().compacted())
                .sum::<u64>()
        })
        .sum();
    assert!(compacted > 0, "heartbeats must have driven compaction");
    assert_eq!(
        uc_sim::ClusterHarness::metrics(&sim).batches_delivered > 0,
        mode.is_batched()
    );
    for k in 0..KEYS {
        let expect = sim.process_mut(0).inner_mut().materialize_key(k);
        for p in 1..n as Pid {
            assert_eq!(
                expect,
                sim.process_mut(p).inner_mut().materialize_key(k),
                "{mode:?}: key {k} diverged on replica {p}: an update was silently rejected"
            );
        }
    }
}

/// A replica cut off from every peer still answers every operation
/// from local knowledge (wait-free), through the `Protocol` surface the
/// runtimes and ω-marking see; only its health reports the outage.
#[test]
fn protocol_minority_reads_answer() {
    on_every_node_kind!(
        cut_off_replica_answers,
        Adt::new(),
        CheckpointFactory { every: 4 },
        2
    );
}

fn cut_off_replica_answers<X: Executor<Adt = Adt>>(make: impl Fn(Pid) -> Node<X>) {
    let mut node = make(0);
    let call = |node: &mut Node<X>, input| invoke(node, 0, input);
    call(&mut node, StoreInput::Update(1, SetUpdate::Insert(7)));
    call(&mut node, StoreInput::PeerDown(1));
    call(&mut node, StoreInput::PeerDown(2));
    let (val, _) = call(&mut node, StoreInput::Query(1, SetQuery::Read));
    assert!(
        matches!(&val, StoreOutput::Value { key: 1, out } if *out == BTreeSet::from([7])),
        "got {val:?}"
    );
    let (snap, _) = call(&mut node, StoreInput::Snapshot(vec![(1, SetQuery::Read)]));
    assert!(matches!(snap, StoreOutput::Snapshot { .. }), "got {snap:?}");
    let (ack, _) = call(&mut node, StoreInput::Update(1, SetUpdate::Insert(8)));
    assert!(matches!(ack, StoreOutput::Ack { .. }), "got {ack:?}");
    let health = node.health();
    assert_eq!(health.status, HealthStatus::Degraded);
    let down: Vec<Pid> = health.down_peers.iter().map(|&(p, _)| p).collect();
    assert_eq!(down, vec![1, 2]);
    // The healed peer is sent the digest request that opens the
    // chunked heal dialogue.
    let (_, sent) = call(&mut node, StoreInput::PeerUp(1));
    assert!(
        sent.iter()
            .any(|(to, m)| *to == 1 && matches!(m, StoreMsg::DigestRequest { .. })),
        "heal must open a digest-guided session with the healed peer"
    );
}

/// End-to-end on the deterministic simulator: [`ReliableLink`]-wrapped
/// stores on a lossy topology with a partition window. Retry/backoff
/// recovers what loss drops, the repair burst redundantly covers the
/// partition window, and every replica converges per key — with the
/// injected faults observable in the harness metrics.
#[test]
fn reliable_link_store_converges_through_lossy_partition() {
    type Node = ReliableLink<UcStore<Adt, CheckpointFactory>>;
    let n = 3;
    let counters = LinkCounters::new();
    let mut topo = Topology::uniform(n, LinkModel::lossy(LatencyModel::Uniform(2, 9), 0.10));
    // Hard partition window: {0, 1} | {2}.
    topo.partition(vec![vec![0, 1], vec![2]], 2_000, 5_000, Cut::Drop);
    let mut sim: Simulation<Node> = Simulation::new(
        SimConfig {
            n,
            seed: 0xFA17,
            latency: LatencyModel::Uniform(2, 9),
            fifo_links: false,
        },
        |pid| {
            let mut store = UcStore::new(SetAdt::new(), pid, 2, CheckpointFactory { every: 8 });
            // Heal bursts accrue to the same shared counters the
            // links report through.
            store.attach_link_counters(counters.clone());
            ReliableLink::new(
                store,
                RetryConfig {
                    base: 40,
                    max_backoff: 400,
                    jitter: 9,
                    queue_cap: 256,
                },
                0xFA17 ^ pid as u64,
            )
            .with_counters(counters.clone())
        },
    );
    sim.set_topology(topo);
    sim.attach_link_counters(counters.clone());
    // Retransmit timers ride the scheduled ticks.
    sim.schedule_ticks(50, 9_000);

    let mut rng = SplitMix64::new(0xFA18);
    // Updates before, during, and after the partition — including on
    // the minority side.
    for i in 0..90u64 {
        let t = 20 + i * 80; // spans 20..7220
        let pid = (i % 3) as Pid;
        let key = rng.next_u64() % KEYS;
        let v = (rng.next_u64() % 10) as u32;
        sim.schedule_invoke(t, pid, StoreInput::Update(key, SetUpdate::Insert(v)));
    }
    // Failure-detector verdicts at partition start…
    sim.schedule_invoke(2_100, 0, StoreInput::PeerDown(2));
    sim.schedule_invoke(2_100, 1, StoreInput::PeerDown(2));
    sim.schedule_invoke(2_100, 2, StoreInput::PeerDown(0));
    sim.schedule_invoke(2_100, 2, StoreInput::PeerDown(1));
    // …and heal verdicts once the window closes: every side streams
    // the suffix its peer missed (redundant with retransmission —
    // dedup absorbs the overlap).
    sim.schedule_invoke(5_200, 0, StoreInput::PeerUp(2));
    sim.schedule_invoke(5_200, 1, StoreInput::PeerUp(2));
    sim.schedule_invoke(5_200, 2, StoreInput::PeerUp(0));
    sim.schedule_invoke(5_200, 2, StoreInput::PeerUp(1));
    sim.run_to_quiescence();

    for k in 0..KEYS {
        let expect = sim.process_mut(0).inner_mut().materialize_key(k);
        for p in 1..n as Pid {
            assert_eq!(
                expect,
                sim.process_mut(p).inner_mut().materialize_key(k),
                "key {k} diverged on replica {p}"
            );
        }
    }
    // The trait accessor folds the shared `LinkCounters` into the
    // harness metrics; the raw field would miss them.
    let m = uc_sim::ClusterHarness::metrics(&sim);
    assert!(m.messages_dropped > 0, "loss + outage must drop messages");
    assert!(m.retransmits > 0, "drops must trigger retransmission");
    assert!(
        m.heal_replay_bytes > 0,
        "the PeerUp verdicts must stream repair bursts"
    );
}

/// The heal's sizing contract with the link below it: a chunk is one
/// [`ReliableLink`] frame and the link's `queue_cap` counts frames, so
/// a session puts at most `WINDOW` frames in its peer's retry queue,
/// however many entries it streams. A divergence of more than
/// `WINDOW × CHUNK` entries — more entries than the default
/// `queue_cap` — heals over links with [`RetryConfig::default`]
/// without shedding a frame, and every replica converges.
#[test]
fn a_heal_longer_than_a_full_window_sheds_nothing_on_a_default_reliable_link() {
    type Node = ReliableLink<UcStore<Adt, CheckpointFactory>>;
    const DIVERGENCE: u64 = (WINDOW * CHUNK + CHUNK) as u64;
    assert!(DIVERGENCE as usize > RetryConfig::default().queue_cap);
    let n = 3;
    let latency = LatencyModel::Uniform(2, 9);
    let lossless = LinkModel {
        latency: latency.clone(),
        ..LinkModel::default()
    };
    let mut topo = Topology::uniform(n, lossless);
    topo.partition(vec![vec![0, 1], vec![2]], 1_000, 5_000, Cut::Drop);
    let mut sim: Simulation<Node> = Simulation::new(
        SimConfig {
            n,
            seed: 0x51ED,
            latency,
            fifo_links: false,
        },
        |pid| {
            let store = UcStore::new(SetAdt::new(), pid, 2, CheckpointFactory { every: 8 });
            ReliableLink::new(store, RetryConfig::default(), 0x51ED ^ pid as u64)
        },
    );
    sim.set_topology(topo);
    sim.schedule_ticks(50, 9_000);
    let mut rng = SplitMix64::new(0x51EE);
    let mut update = |sim: &mut Simulation<Node>, t: u64, pid: Pid| {
        let (key, u) = step_update(&mut rng);
        sim.schedule_invoke(t, pid, StoreInput::Update(key, u));
    };
    for i in 0..30u64 {
        update(&mut sim, 20 + i * 30, (i % 3) as Pid);
    }
    for (pid, peer) in [(0, 2), (1, 2), (2, 0), (2, 1)] {
        sim.schedule_invoke(1_000, pid, StoreInput::PeerDown(peer));
    }
    // The majority diverges by more than a full window; the minority
    // by a little.
    for i in 0..DIVERGENCE {
        update(&mut sim, 1_100 + i, (i % 2) as Pid);
    }
    for i in 0..8u64 {
        update(&mut sim, 1_100 + i * 300, 2);
    }
    for (pid, peer) in [(0, 2), (1, 2), (2, 0), (2, 1)] {
        sim.schedule_invoke(5_100, pid, StoreInput::PeerUp(peer));
    }
    for i in 0..30u64 {
        update(&mut sim, 5_200 + i * 30, (i % 3) as Pid);
    }
    sim.run_to_quiescence();

    let per_entry = (8 + 12 + std::mem::size_of::<SetUpdate<u32>>()) as u64;
    for healer in [0, 1] {
        let store = sim.process(healer).inner();
        assert!(
            store.heal_replay_bytes() / per_entry >= DIVERGENCE,
            "replica {healer} streamed the majority's divergence"
        );
        assert!(store.heal_chunks() > WINDOW as u64, "replica {healer}");
    }
    for p in 0..n as Pid {
        let node = sim.process(p);
        assert_eq!(node.stats().shed, 0, "replica {p}'s link shed a frame");
        assert!(node.inner().heal_sessions().next().is_none(), "replica {p}");
        assert_eq!(node.inner().partition().down_count(), 0, "replica {p}");
    }
    for k in 0..KEYS {
        let expect = sim.process_mut(0).inner_mut().materialize_key(k);
        for p in 1..n as Pid {
            let got = sim.process_mut(p).inner_mut().materialize_key(k);
            assert_eq!(expect, got, "key {k} diverged on replica {p}");
        }
    }
}

/// End-to-end with **no injected membership verdicts**: a
/// [`HeartbeatDetector`] between the reliable link and the store
/// derives `peer_down`/`peer_up` from missed heartbeats alone, over a
/// lossy topology that partitions *twice* (a flap). Detection freezes
/// the divergence watermark, recovery opens the digest-guided chunked
/// heal, and the second outage exercises cancel-and-reheal — all
/// driven by the detector, and every replica still converges.
///
/// Run per message and again on a batch window, so the link's batch
/// receive carries the detector's heartbeats and the heal dialogue.
#[test]
fn heartbeat_detector_drives_chunked_heal_through_flapping_partition() {
    detector_driven_heal_through_flapping_partition(DeliveryMode::PerMessage);
    detector_driven_heal_through_flapping_partition(DeliveryMode::Batched { window: 10 });
}

fn detector_driven_heal_through_flapping_partition(mode: DeliveryMode) {
    type Node = ReliableLink<HeartbeatDetector<UcStore<Adt, CheckpointFactory>>>;
    let n = 3;
    let counters = LinkCounters::new();
    let mut topo = Topology::uniform(n, LinkModel::lossy(LatencyModel::Uniform(2, 9), 0.08));
    // Two outage windows for {0, 1} | {2}: the second starts after the
    // first heal completes, so sessions are opened, finished, and
    // re-opened purely by detector verdicts.
    topo.partition(vec![vec![0, 1], vec![2]], 1_500, 3_500, Cut::Drop);
    topo.partition(vec![vec![0, 1], vec![2]], 5_500, 7_000, Cut::Drop);
    let mut sim: Simulation<Node> = Simulation::new(
        SimConfig {
            n,
            seed: 0xBEA7,
            latency: LatencyModel::Uniform(2, 9),
            fifo_links: false,
        },
        |pid| {
            let mut store = UcStore::new(SetAdt::new(), pid, 2, CheckpointFactory { every: 8 });
            store.attach_link_counters(counters.clone());
            // Ticks fire every 50: a miss threshold of 6 suspects a
            // peer after ~300 time units of silence — well inside
            // each 1500+-unit outage window.
            ReliableLink::new(
                HeartbeatDetector::new(store, 6),
                RetryConfig {
                    base: 40,
                    max_backoff: 400,
                    jitter: 9,
                    queue_cap: 512,
                },
                0xBEA7 ^ pid as u64,
            )
            .with_counters(counters.clone())
        },
    );
    sim.set_topology(topo);
    sim.attach_link_counters(counters.clone());
    sim.set_delivery_mode(mode);
    sim.schedule_ticks(50, 10_000);

    let mut rng = SplitMix64::new(0xBEA8);
    // Updates before, during, and between both outage windows,
    // including on the minority side.
    for i in 0..100u64 {
        let t = 20 + i * 80; // spans 20..7940
        let pid = (i % 3) as Pid;
        let key = rng.next_u64() % KEYS;
        let v = (rng.next_u64() % 10) as u32;
        sim.schedule_invoke(t, pid, StoreInput::Update(key, SetUpdate::Insert(v)));
    }
    sim.run_to_quiescence();

    // The detector did the failure detection: both sides suspected
    // across both windows and recovered — no test-injected verdicts.
    for p in 0..n as Pid {
        let det = sim.process(p).inner();
        assert!(
            det.down_verdicts() >= 2,
            "replica {p}: two outage windows must trip ≥ 2 down verdicts, got {}",
            det.down_verdicts()
        );
        assert!(
            det.up_verdicts() >= det.down_verdicts().min(2),
            "replica {p}: recoveries must be reported back up"
        );
        assert_eq!(
            det.inner().partition().down_count(),
            0,
            "replica {p}: all outages healed by the end"
        );
    }
    for k in 0..KEYS {
        let expect = sim
            .process_mut(0)
            .inner_mut()
            .inner_mut()
            .materialize_key(k);
        for p in 1..n as Pid {
            assert_eq!(
                expect,
                sim.process_mut(p)
                    .inner_mut()
                    .inner_mut()
                    .materialize_key(k),
                "key {k} diverged on replica {p}"
            );
        }
    }
    let m = uc_sim::ClusterHarness::metrics(&sim);
    assert!(
        m.heal_replay_bytes > 0,
        "detector-driven heals must stream chunks"
    );
    assert_eq!(m.batches_delivered > 0, mode.is_batched());
}

/// While a peer is down, an update goes to the live peers only, and a
/// tick still sends every peer a heartbeat: the live one the current
/// clock, the down one no clock above its outage watermark. Once the
/// peer is back, both go to everyone again.
#[test]
fn a_down_peer_is_sent_heartbeats_at_its_watermark_and_no_updates() {
    on_every_node_kind!(down_peer_sender_rules, Adt::new(), GcFactory { n: 3 }, 2);
}

fn down_peer_sender_rules<X: Executor<Adt = Adt>>(make: impl Fn(Pid) -> Node<X>) {
    let mut node = make(0);
    // The peers an update of `v` is sent to.
    let update = |node: &mut Node<X>, v: u32| -> Vec<Pid> {
        let input = StoreInput::Update(u64::from(v) % KEYS, SetUpdate::Insert(v));
        let (_, sent) = invoke(node, 0, input);
        assert!(sent
            .iter()
            .all(|(_, m)| matches!(m, StoreMsg::Update { .. })));
        sent.into_iter().map(|(to, _)| to).collect()
    };
    // The clock a tick's heartbeat announces to each peer.
    let beats = |node: &mut Node<X>| -> Vec<(Pid, u64)> {
        let mut sent = Vec::new();
        node.on_tick(&mut Ctx::new(0, N, 0, &mut sent));
        sent.into_iter()
            .filter_map(|(to, m)| match m {
                StoreMsg::Heartbeat { pid: 0, clock } => Some((to, clock)),
                _ => None,
            })
            .collect()
    };
    for v in 0..3 {
        assert_eq!(update(&mut node, v), vec![1, 2]);
    }
    invoke(&mut node, 0, StoreInput::PeerDown(2));
    let watermark = node.partition().watermark(2).expect("peer 2 is down");
    for v in 3..6 {
        assert_eq!(update(&mut node, v), vec![1], "the down peer is skipped");
    }
    let clock = node.clock();
    assert!(clock > watermark);
    assert_eq!(beats(&mut node), vec![(1, clock), (2, watermark)]);

    invoke(&mut node, 0, StoreInput::PeerUp(2));
    assert_eq!(update(&mut node, 6), vec![1, 2]);
    let clock = node.clock();
    assert_eq!(beats(&mut node), vec![(1, clock), (2, clock)]);
}

/// `uc_store_kept_folds`: a read of a short log folds it afresh and
/// keeps no second state; only the keys whose log an outage pins long
/// keep their read fold.
#[test]
fn only_keys_whose_log_is_pinned_long_keep_a_read_fold() {
    on_every_node_kind!(
        kept_folds_follow_log_length,
        Adt::new(),
        GcFactory { n: 3 },
        2
    );
}

fn kept_folds_follow_log_length<X: Executor<Adt = Adt>>(make: impl Fn(Pid) -> Node<X>) {
    let mut node = make(0);
    let kept = |node: &Node<X>| {
        let reg = Registry::new();
        node.export_metrics(&reg);
        reg.snapshot()
            .gauge("uc_store_kept_folds")
            .expect("exported")
    };
    let write = |node: &mut Node<X>, key: Key, count: u32| {
        for v in 0..count {
            invoke(node, 0, StoreInput::Update(key, SetUpdate::Insert(v)));
        }
    };
    let read_all = |node: &mut Node<X>| {
        for key in 0..KEYS {
            read(node, 0, key);
        }
    };
    // The peers are silent: three entries a key stay in its log.
    for key in 0..KEYS {
        write(&mut node, key, 3);
    }
    read_all(&mut node);
    assert_eq!(kept(&node), 0, "short logs are folded afresh");
    let clock = node.clock();
    for peer in 1..N as Pid {
        deliver(&mut node, 0, peer, StoreMsg::Heartbeat { pid: peer, clock });
    }
    assert_eq!(node.live_keys(), 0, "every key compacted");

    // Peer 2 goes down: the outage pins every entry written since.
    invoke(&mut node, 0, StoreInput::PeerDown(2));
    for key in 0..KEYS {
        write(&mut node, key, if key < 2 { 8 } else { 2 });
    }
    let clock = node.clock();
    deliver(&mut node, 0, 1, StoreMsg::Heartbeat { pid: 1, clock });
    assert_eq!(node.live_keys(), KEYS as usize, "the pin holds every log");
    read_all(&mut node);
    assert_eq!(kept(&node), 2, "keys 0 and 1 hold eight entries each");
}

/// Regression: a replica keeps its partition posture when it moves to
/// the other executor. Replica 0 holds peer 2 down and writes an update
/// the protocol withholds from 2; then it moves
/// ([`UcStore::into_pool`], [`IngestPool::finish`]) and hears
/// `PeerUp(2)`. The heal must still stream the update to 2, and once
/// every pid has announced clock 1000 a tick must compact the key: the
/// pin the outage set lifts with the heal. A replica that forgot the
/// outage in the move sent nothing at `PeerUp`, left replica 2 without
/// the update for good, and never compacted again.
#[test]
fn a_replica_keeps_its_partition_posture_across_an_executor_change() {
    let gc = GcFactory { n: N };
    let cfg = PoolConfig {
        workers: 2,
        ..PoolConfig::default()
    };
    posture_survives(sequential(&Adt::new(), &gc, 0, 2), |store| {
        store.into_pool(cfg)
    });
    posture_survives(pooled(&Adt::new(), &gc, 0, 2, 2), |pool| {
        pool.finish().expect("live pool")
    });
}

fn posture_survives<X, Y>(mut node: Node<X>, change: impl FnOnce(Node<X>) -> Node<Y>)
where
    X: Executor<Adt = Adt>,
    Y: Executor<Adt = Adt>,
{
    let gc = GcFactory { n: N };
    let (mut one, mut two) = (
        sequential(&Adt::new(), &gc, 1, 2),
        sequential(&Adt::new(), &gc, 2, 2),
    );
    invoke(&mut node, 0, StoreInput::PeerDown(2));
    let (_, sent) = invoke(&mut node, 0, StoreInput::Update(7, SetUpdate::Insert(7)));
    assert_eq!(sent.len(), 1, "the update goes to peer 1 only: {sent:?}");
    for (_, m) in sent {
        deliver(&mut one, 1, 0, m);
    }

    let mut node = change(node);
    assert_eq!(node.partition().down_count(), 1, "peer 2 is still down");
    let (_, opener) = invoke(&mut node, 0, StoreInput::PeerUp(2));
    assert_eq!(opener.len(), 1, "a digest request opens the heal");
    let mut in_flight = VecDeque::from(opener);
    while let Some((to, m)) = in_flight.pop_front() {
        in_flight.extend(match to {
            0 => deliver(&mut node, 0, 2, m),
            _ => deliver(&mut two, 2, 0, m),
        });
    }
    assert_eq!(
        read(&mut two, 2, 7),
        BTreeSet::from([7]),
        "replica 2 holds the update"
    );

    for pid in 0..N as Pid {
        deliver(&mut node, 0, pid, StoreMsg::Heartbeat { pid, clock: 1000 });
    }
    node.on_tick(&mut Ctx::new(0, N, 0, &mut Vec::new()));
    assert_eq!(node.live_keys(), 0, "the pin lifted with the heal");
}

/// Regression: a healed replica keeps its log pinned until the heal
/// streamed *to* it has landed. Replica 2 comes back with nothing of
/// its own to stream, so its own `PeerUp`s pin nothing. Each healer
/// then sends its digest request and, before its chunks, heartbeats
/// announcing a clock above entries 2 has never received — the order a
/// link delivers them in after shedding the updates that went into the
/// cut. Had those clocks let 2 compact, the chunks' entries would land
/// at or below its floor and be dropped. Each healer streams three
/// chunks, and 2 hears their clocks and compacts after every chunk, so
/// a pin lifted before the *last* chunk fails too.
#[test]
fn a_healed_replica_stays_pinned_until_its_inbound_heal_lands() {
    on_every_node_kind!(inbound_heal_stays_pinned, Adt::new(), GcFactory { n: 3 }, 2);
}

fn inbound_heal_stays_pinned<X: Executor<Adt = Adt>>(make: impl Fn(Pid) -> Node<X>)
where
    Node<X>: Replica,
{
    let mut nodes: Vec<Node<X>> = (0..N as Pid).map(make).collect();
    let mut rng = SplitMix64::new(0x1B0D);
    let mut all: Vec<Msg> = Vec::new();
    // An update on `p`, delivered to the replicas `reach` lets through.
    let mut step = |nodes: &mut [Node<X>], p: Pid, reach: &dyn Fn(Pid) -> bool| {
        let (key, update) = step_update(&mut rng);
        let input = StoreInput::Update(key, update);
        let (ack, sent) = invoke(&mut nodes[p as usize], p, input);
        all.push(acked(ack, update));
        for (to, m) in sent {
            if reach(to) {
                deliver(&mut nodes[to as usize], to, p, m);
            }
        }
    };
    for i in 0..12u32 {
        step(&mut nodes, i % 3, &|_| true);
    }
    for (pid, peer) in [(0, 2), (1, 2), (2, 0), (2, 1)] {
        invoke(&mut nodes[pid as usize], pid, StoreInput::PeerDown(peer));
    }
    // Only the majority writes while the cut lasts: three chunks'
    // worth, which each healer streams.
    for i in 0..3 * CHUNK as u32 {
        step(&mut nodes, i % 2, &|to| to != 2);
    }

    for peer in [0, 1] {
        let (_, sent) = invoke(&mut nodes[2], 2, StoreInput::PeerUp(peer));
        assert!(sent.is_empty(), "replica 2 has nothing to stream: {sent:?}");
    }
    // Each healer's digest request reaches 2; its answer waits.
    let mut in_flight: VecDeque<(Pid, Pid, Msg)> = VecDeque::new();
    for healer in [0, 1] {
        let (_, opener) = invoke(&mut nodes[healer as usize], healer, StoreInput::PeerUp(2));
        assert_eq!(opener.len(), 1, "a digest request opens the heal");
        for (_, request) in opener {
            let answers = deliver(&mut nodes[2], 2, healer, request);
            in_flight.extend(answers.into_iter().map(|(to, m)| (2, to, m)));
        }
    }
    // What the healers announce from here on, replica 2 hears and
    // compacts on before every chunk.
    let hear_healers = |nodes: &mut [Node<X>]| {
        for pid in [0, 1] {
            let clock = nodes[pid as usize].clock();
            deliver(&mut nodes[2], 2, pid, StoreMsg::Heartbeat { pid, clock });
        }
        nodes[2].tick_maintenance();
    };
    hear_healers(&mut nodes);
    let mut chunks = 0;
    while let Some((from, to, m)) = in_flight.pop_front() {
        let replies = deliver(&mut nodes[to as usize], to, from, m);
        in_flight.extend(replies.into_iter().map(|(back, m)| (to, back, m)));
        if to == 2 {
            chunks += 1;
            hear_healers(&mut nodes);
        }
    }
    assert_eq!(chunks, 6, "each healer streams three chunks");
    for n in &nodes {
        assert_eq!(
            n.heal_sessions().count(),
            0,
            "every stream ran to its last ack"
        );
    }
    let mut refs = references(&all);
    for (p, node) in nodes.iter_mut().enumerate() {
        let label = format!("replica {p}");
        assert_matches_reference(node, p as Pid, &mut refs, &label);
    }
}

/// A symmetric partition with no verdict injected: a
/// [`HeartbeatDetector`] inside each [`ReliableLink`] decides who is
/// down, on a lossless topology, with updates on both sides of the cut
/// and stability GC compacting. What crosses the cut once it heals is
/// what each side kept sending the peers it held down — heartbeats at
/// the outage watermark, and the link's retransmissions — so both
/// sides hear each other again, report `PeerUp`, heal and converge. A
/// replica and link that sent a down peer nothing at all would never
/// hear from it again.
#[test]
fn a_detector_only_symmetric_partition_reports_peer_up_on_both_sides_and_converges() {
    type Node = ReliableLink<HeartbeatDetector<UcStore<Adt, GcFactory>>>;
    let n = 3;
    let latency = LatencyModel::Uniform(2, 9);
    let lossless = LinkModel {
        latency: latency.clone(),
        ..LinkModel::default()
    };
    let mut topo = Topology::uniform(n, lossless);
    topo.partition(vec![vec![0, 1], vec![2]], 2_000, 4_000, Cut::Drop);
    let mut sim: Simulation<Node> = Simulation::new(
        SimConfig {
            n,
            seed: 0x5E7,
            latency,
            fifo_links: false,
        },
        |pid| {
            let store = UcStore::new(SetAdt::new(), pid, 2, GcFactory { n: 3 });
            // Ticks every 50: silent for six, a peer is suspected.
            let retry = RetryConfig {
                base: 40,
                max_backoff: 400,
                jitter: 9,
                queue_cap: 512,
            };
            ReliableLink::new(HeartbeatDetector::new(store, 6), retry, 0x5E7 ^ pid as u64)
        },
    );
    sim.set_topology(topo);
    sim.schedule_ticks(50, 7_000);
    let mut rng = SplitMix64::new(0x5E8);
    // Updates before, during (on both sides) and after the cut.
    for i in 0..60u64 {
        let (key, u) = step_update(&mut rng);
        sim.schedule_invoke(20 + i * 100, (i % 3) as Pid, StoreInput::Update(key, u));
    }
    sim.run_to_quiescence();

    for p in 0..n as Pid {
        let det = sim.process(p).inner();
        let (down, up) = (det.down_verdicts(), det.up_verdicts());
        assert!(down >= 1 && up >= 1, "replica {p}: {down} down, {up} up");
        let store = det.inner();
        assert_eq!(store.partition().down_count(), 0, "replica {p}");
        assert!(store.heal_sessions().next().is_none(), "replica {p}");
    }
    let compacted: u64 = (0..n as Pid)
        .map(|p| {
            let store = sim.process(p).inner().inner();
            (0..KEYS)
                .filter_map(|k| store.engine(k))
                .map(|e| e.strategy().compacted())
                .sum::<u64>()
        })
        .sum();
    assert!(compacted > 0, "stability GC ran");
    for k in 0..KEYS {
        let expect = sim
            .process_mut(0)
            .inner_mut()
            .inner_mut()
            .materialize_key(k);
        for p in 1..n as Pid {
            let got = sim
                .process_mut(p)
                .inner_mut()
                .inner_mut()
                .materialize_key(k);
            assert_eq!(expect, got, "key {k} diverged on replica {p}");
        }
    }
}

/// Compaction passes made by every [`Counted`] strategy: the passes a
/// replica's sweeps make over its live keys.
static COMPACTION_PASSES: AtomicU64 = AtomicU64::new(0);

/// [`StableGc`] for a cluster of [`N`], counting its compaction
/// passes ([`RepairStrategy::maintain`]) in [`COMPACTION_PASSES`].
struct Counted(StableGc<Adt>);

impl RepairStrategy<Adt> for Counted {
    fn on_insert<B: LogBackend<Adt>>(
        &mut self,
        adt: &Adt,
        log: &mut UpdateLog<Adt, B>,
        pos: usize,
    ) {
        self.0.on_insert(adt, log, pos);
    }

    fn raise_floor(&mut self, floor: u64) {
        self.0.raise_floor(floor);
    }

    fn persist_base<B: LogBackend<Adt>>(&mut self, adt: &Adt, log: &mut UpdateLog<Adt, B>) {
        self.0.persist_base(adt, log);
    }

    fn maintain<B: LogBackend<Adt>>(&mut self, adt: &Adt, log: &mut UpdateLog<Adt, B>) {
        COMPACTION_PASSES.fetch_add(1, Ordering::SeqCst);
        self.0.maintain(adt, log);
    }

    fn current_state<B: LogBackend<Adt>>(
        &mut self,
        adt: &Adt,
        log: &UpdateLog<Adt, B>,
    ) -> &BTreeSet<u32> {
        self.0.current_state(adt, log)
    }

    fn shared_state<B: LogBackend<Adt>>(
        &mut self,
        adt: &Adt,
        log: &UpdateLog<Adt, B>,
    ) -> (Arc<BTreeSet<u32>>, bool) {
        self.0.shared_state(adt, log)
    }

    fn state_at_cut<B: LogBackend<Adt>>(
        &mut self,
        adt: &Adt,
        log: &UpdateLog<Adt, B>,
        cut: u64,
    ) -> Result<BTreeSet<u32>, CutError> {
        self.0.state_at_cut(adt, log, cut)
    }

    fn install_base(&mut self, adt: &Adt, bound: u64, state: BTreeSet<u32>) -> bool {
        self.0.install_base(adt, bound, state)
    }
}

/// [`GcFactory`] building [`Counted`] strategies.
#[derive(Clone, Copy)]
struct CountingGc;

impl StrategyFactory<Adt> for CountingGc {
    type Strategy = Counted;

    fn make(&self, adt: &Adt) -> Counted {
        Counted(StableGc::new(adt))
    }

    fn cluster_size(&self) -> Option<usize> {
        Some(N)
    }
}

/// Regression: a heartbeat or tick that cannot raise the replica's
/// stability floor visits no key. Replica 0 holds peer 2 down — silent,
/// and pinning retention at its outage watermark — while 64 keys hold
/// entries above the watermark: peer 1's rising heartbeats and ten
/// ticks leave the floor where it was, and no live engine is visited.
/// Once the heal has landed and both peers have announced, the first
/// sweep that moves the floor catches every key up and empties its log.
#[test]
fn a_clock_that_cannot_raise_the_floor_visits_no_key() {
    on_every_node_kind!(pinned_floor_visits_no_key, Adt::new(), CountingGc, 2);
}

fn pinned_floor_visits_no_key<X: Executor<Adt = Adt>>(make: impl Fn(Pid) -> Node<X>)
where
    Node<X>: Replica,
{
    const LIVE: u64 = 64;
    let mut node = make(0);
    let mut peer = sequential(&Adt::new(), &GcFactory { n: N }, 2, 2);
    let announce = |node: &mut Node<X>, pid: Pid, clock: u64| {
        deliver(node, 0, pid, StoreMsg::Heartbeat { pid, clock });
    };
    // Everyone hears everything up to the cut, and compacts it.
    for v in 0..8u32 {
        let (_, sent) = invoke(
            &mut node,
            0,
            StoreInput::Update(u64::from(v), SetUpdate::Insert(v)),
        );
        for (to, m) in sent {
            if to == 2 {
                deliver(&mut peer, 2, 0, m);
            }
        }
    }
    let cut = node.clock();
    announce(&mut node, 1, cut);
    announce(&mut node, 2, cut);
    node.tick_maintenance();
    assert_eq!(node.live_keys(), 0, "everything before the cut is stable");
    invoke(&mut node, 0, StoreInput::PeerDown(2));
    assert_eq!(node.partition().watermark(2), Some(cut));
    for key in 0..LIVE {
        invoke(
            &mut node,
            0,
            StoreInput::Update(key, SetUpdate::Insert(100)),
        );
    }
    assert_eq!(node.live_keys() as u64, LIVE);

    let passes = COMPACTION_PASSES.load(Ordering::SeqCst);
    for round in 1..=10 {
        let clock = node.clock() + round;
        announce(&mut node, 1, clock);
        node.tick_maintenance();
    }
    assert_eq!(node.live_keys() as u64, LIVE);
    let visited = COMPACTION_PASSES.load(Ordering::SeqCst) - passes;
    assert_eq!(
        visited, 0,
        "clocks that cannot raise the floor visited live keys {visited} times"
    );

    // Heal peer 2, then hear both peers at the current clock.
    let (_, mut to_peer) = invoke(&mut node, 0, StoreInput::PeerUp(2));
    assert_eq!(to_peer.len(), 1, "a digest request opens the heal");
    while !to_peer.is_empty() {
        let replies: Vec<(Pid, Msg)> = to_peer
            .drain(..)
            .flat_map(|(_, m)| deliver(&mut peer, 2, 0, m))
            .collect();
        for (_, m) in replies {
            to_peer.extend(deliver(&mut node, 0, 2, m));
        }
    }
    assert_eq!(
        node.heal_sessions().count(),
        0,
        "the heal ran to its last ack"
    );
    let clock = node.clock();
    announce(&mut node, 1, clock);
    announce(&mut node, 2, clock);
    node.tick_maintenance();
    assert_eq!(node.live_keys(), 0, "one sweep emptied every log");
    for key in 0..LIVE {
        assert_eq!(
            read(&mut node, 0, key),
            peer.materialize_key(key),
            "key {key}"
        );
    }
}

/// Compaction passes made by every [`CountedCheckpoint`] strategy.
static CHECKPOINT_PASSES: AtomicU64 = AtomicU64::new(0);

/// [`CheckpointRepair`], counting its compaction passes
/// ([`RepairStrategy::maintain`]) in [`CHECKPOINT_PASSES`].
struct CountedCheckpoint(CheckpointRepair<Adt>);

impl RepairStrategy<Adt> for CountedCheckpoint {
    fn on_insert<B: LogBackend<Adt>>(
        &mut self,
        adt: &Adt,
        log: &mut UpdateLog<Adt, B>,
        pos: usize,
    ) {
        self.0.on_insert(adt, log, pos);
    }

    fn maintain<B: LogBackend<Adt>>(&mut self, adt: &Adt, log: &mut UpdateLog<Adt, B>) {
        CHECKPOINT_PASSES.fetch_add(1, Ordering::SeqCst);
        self.0.maintain(adt, log);
    }

    fn current_state<B: LogBackend<Adt>>(
        &mut self,
        adt: &Adt,
        log: &UpdateLog<Adt, B>,
    ) -> &BTreeSet<u32> {
        self.0.current_state(adt, log)
    }
}

/// [`CheckpointFactory`] building [`CountedCheckpoint`] strategies; it
/// names no cluster.
#[derive(Clone, Copy)]
struct CountingCheckpoint;

impl StrategyFactory<Adt> for CountingCheckpoint {
    type Strategy = CountedCheckpoint;

    fn make(&self, adt: &Adt) -> CountedCheckpoint {
        CountedCheckpoint(CheckpointRepair::with_spacing(adt, 4))
    }
}

/// A replica whose factory names no cluster keeps no stability floor,
/// so no heartbeat or tick visits a key: 64 keys hold entries while
/// both peers announce rising clocks and the replica ticks, ten rounds
/// of it, and no engine is visited, every key stays live, and every key
/// reads the fold of its updates.
#[test]
fn without_a_cluster_no_clock_visits_a_key() {
    on_every_node_kind!(
        clusterless_clocks_visit_no_key,
        Adt::new(),
        CountingCheckpoint,
        2
    );
}

fn clusterless_clocks_visit_no_key<X: Executor<Adt = Adt>>(make: impl Fn(Pid) -> Node<X>)
where
    Node<X>: Replica,
{
    const LIVE: u64 = 64;
    let mut node = make(0);
    let writes: Vec<Msg> = (0..LIVE)
        .map(|key| {
            let update = SetUpdate::Insert(key as u32);
            let (ack, _) = invoke(&mut node, 0, StoreInput::Update(key, update));
            acked(ack, update)
        })
        .collect();
    assert_eq!(node.live_keys() as u64, LIVE);

    let passes = CHECKPOINT_PASSES.load(Ordering::SeqCst);
    for round in 1..=10 {
        let clock = node.clock() + round;
        for pid in 1..N as Pid {
            deliver(&mut node, 0, pid, StoreMsg::Heartbeat { pid, clock });
        }
        node.tick_maintenance();
    }
    assert_eq!(node.live_keys() as u64, LIVE);
    let visited = CHECKPOINT_PASSES.load(Ordering::SeqCst) - passes;
    assert_eq!(
        visited, 0,
        "heartbeats and ticks with no cluster visited keys {visited} times"
    );
    let mut refs = references(&writes);
    for key in 0..LIVE {
        assert_eq!(
            read(&mut node, 0, key),
            refs.get_mut(&key).expect("written").materialize(),
            "key {key}"
        );
    }
}
