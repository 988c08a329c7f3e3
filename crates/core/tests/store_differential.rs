//! Differential tests for the sharded multi-object store: under
//! randomized out-of-order, duplicated, and batched keyed delivery,
//! every per-key state of a [`UcStore`] must equal a single-object
//! naive-replay reference fed the same key's messages — under both
//! store strategies, checkpoints and stability GC, and under naive
//! replay and undo/redo through the test-local factories in `common` —
//! and the store must converge under the deterministic simulator
//! (`uc-runtime`'s tests run it on real threads).
//!
//! Schedules come from the workspace's seeded PRNG
//! ([`uc_sim::SplitMix64`]) so failures replay exactly. As in the
//! single-object differential test, the full-log strategies are driven
//! by arbitrarily shuffled schedules with duplicates, while the GC
//! strategy (sound only under reliable broadcast) gets per-sender FIFO
//! interleaving with mid-run heartbeats.

mod common;

use common::{NaiveEngines, UndoEngines};
use std::collections::{HashMap, VecDeque};
use uc_core::{
    CachedReplica, CheckpointFactory, GcFactory, GenericReplica, Key, PoolConfig, Replica,
    StoreInput, StoreMsg, StrategyFactory, UcStore, UpdateMsg,
};
use uc_sim::{
    perturb_order, DeliveryMode, KeyedWorkloadSpec, LatencyModel, SetOpKind, SimConfig, Simulation,
    SplitMix64,
};
use uc_spec::{SetAdt, SetQuery, SetUpdate};

type Msg = StoreMsg<SetUpdate<u32>>;
type Adt = SetAdt<u32>;

const KEYS: u64 = 5;

/// Two producer stores (pids 1, 2) issue keyed updates and
/// occasionally observe each other, so timestamps interleave across
/// keys and producers. Returns one FIFO stream per producer.
fn produce_streams(rng: &mut SplitMix64, producers: usize) -> Vec<Vec<Msg>> {
    let mut peers: Vec<UcStore<Adt, CheckpointFactory>> = (0..producers)
        .map(|i| {
            UcStore::new(
                SetAdt::new(),
                i as u32 + 1,
                2,
                CheckpointFactory { every: 8 },
            )
        })
        .collect();
    let mut streams: Vec<Vec<Msg>> = vec![Vec::new(); producers];
    let total = 30 + (rng.next_u64() % 40) as usize;
    for _ in 0..total {
        let p = (rng.next_u64() % producers as u64) as usize;
        let key = rng.next_u64() % KEYS;
        let v = (rng.next_u64() % 8) as u32;
        let u = if rng.next_u64().is_multiple_of(3) {
            SetUpdate::Delete(v)
        } else {
            SetUpdate::Insert(v)
        };
        let m = peers[p].update(key, u);
        if producers > 1 && rng.next_u64().is_multiple_of(2) {
            let q = (rng.next_u64() % producers as u64) as usize;
            if q != p {
                let Ok(_) = peers[q].apply_message_from(p as u32, m.clone());
            }
        }
        streams[p].push(m);
    }
    streams
}

/// Shuffle and duplicate the flattened streams (full-log strategies
/// tolerate arbitrary reordering and redelivery).
fn shuffled_schedule(rng: &mut SplitMix64, streams: &[Vec<Msg>]) -> Vec<Msg> {
    common::shuffle_with_dups(rng, streams.iter().flatten().cloned().collect())
}

/// Per-key single-object naive references, fed every update for their
/// key exactly once (reference semantics are order-independent).
fn references(streams: &[Vec<Msg>]) -> HashMap<Key, GenericReplica<Adt>> {
    let mut refs: HashMap<Key, GenericReplica<Adt>> = HashMap::new();
    for m in streams.iter().flatten() {
        let StoreMsg::Update { key, msg } = m else {
            panic!("producers only emit updates");
        };
        refs.entry(*key)
            .or_insert_with(|| GenericReplica::new(SetAdt::new(), 0))
            .on_deliver(msg.clone());
    }
    refs
}

fn run_full_log<F>(factory: F, seed: u64)
where
    F: StrategyFactory<Adt>,
{
    let mut rng = SplitMix64::new(seed);
    let streams = produce_streams(&mut rng, 2);
    let sched = shuffled_schedule(&mut rng, &streams);
    let mut refs = references(&streams);

    let shards = 1 + (seed as usize % 4);
    let mut store = UcStore::new(SetAdt::<u32>::new(), 0, shards, factory);
    let mut i = 0;
    while i < sched.len() {
        let k = 1 + (rng.next_u64() % 7) as usize;
        let chunk = &sched[i..sched.len().min(i + k)];
        i += chunk.len();
        if rng.next_u64().is_multiple_of(2) {
            store.apply_batch_owned(chunk.to_vec());
        } else {
            for m in chunk {
                let Ok(_) = store.apply_message_from(1, m.clone());
            }
        }
        // Interim queries on a random key must match the reference's
        // fold of whatever prefix both have seen... the store may be
        // mid-schedule, so only final states are compared; here we
        // just exercise the query path for panics.
        let _ = store.query(rng.next_u64() % KEYS, &SetQuery::Read);
    }
    for k in 0..KEYS {
        let expect = refs
            .get_mut(&k)
            .map(|r| r.materialize())
            .unwrap_or_default();
        assert_eq!(
            store.materialize_key(k),
            expect,
            "key {k} diverged, seed {seed}"
        );
    }
}

#[test]
fn store_matches_per_key_reference_naive() {
    for seed in 0..25 {
        run_full_log(NaiveEngines, seed);
    }
}

#[test]
fn store_matches_per_key_reference_checkpoint() {
    for seed in 0..25 {
        run_full_log(
            CheckpointFactory {
                every: 1 + (seed as usize % 7),
            },
            seed,
        );
    }
}

#[test]
fn store_matches_per_key_reference_undo() {
    for seed in 0..25 {
        run_full_log(UndoEngines, seed);
    }
}

#[test]
fn gc_store_matches_per_key_reference_under_fifo_delivery() {
    for seed in 0..25 {
        let mut rng = SplitMix64::new(0x6C_5EED ^ seed);
        let streams = produce_streams(&mut rng, 2);
        let mut refs = references(&streams);
        let cluster = 3; // two producers + the store under test
        let mut store: UcStore<Adt, GcFactory> =
            UcStore::new(SetAdt::new(), 0, 2, GcFactory { n: cluster });
        let mut queues: Vec<VecDeque<Msg>> = streams
            .iter()
            .map(|s| s.iter().cloned().collect())
            .collect();
        while queues.iter().any(|q| !q.is_empty()) {
            let p = (rng.next_u64() % queues.len() as u64) as usize;
            let take = 1 + (rng.next_u64() % 5) as usize;
            let mut burst: Vec<Msg> = Vec::new();
            for _ in 0..take {
                match queues[p].pop_front() {
                    Some(m) => burst.push(m),
                    None => break,
                }
            }
            if burst.is_empty() {
                continue;
            }
            let StoreMsg::Update { msg, .. } = burst.last().expect("nonempty") else {
                panic!()
            };
            let clock = msg.ts.clock;
            if rng.next_u64().is_multiple_of(2) {
                store.apply_batch_owned(burst);
            } else {
                for m in burst {
                    let Ok(_) = store.apply_message_from(p as u32 + 1, m);
                }
            }
            // The producer heartbeats its delivered prefix (safe under
            // FIFO) so compaction runs concurrently with delivery.
            if rng.next_u64().is_multiple_of(3) {
                let pid = p as u32 + 1;
                let Ok(_) = store.apply_message_from(pid, StoreMsg::Heartbeat { pid, clock });
            }
        }
        // Full stability: everyone announces a final clock, then
        // maintenance compacts; semantics must survive.
        for pid in 0..cluster as u32 {
            let clock = store.clock();
            let Ok(_) = store.apply_message_from(pid, StoreMsg::Heartbeat { pid, clock });
        }
        store.tick_maintenance();
        let retained = store.total_log_len();
        let total: usize = streams.iter().map(Vec::len).sum();
        assert!(
            retained < total,
            "full heartbeat coverage must compact something, seed {seed}"
        );
        for k in 0..KEYS {
            let expect = refs
                .get_mut(&k)
                .map(|r| r.materialize())
                .unwrap_or_default();
            assert_eq!(
                store.materialize_key(k),
                expect,
                "gc key {k} diverged, seed {seed}"
            );
        }
    }
}

/// The two ingest paths — sequential [`UcStore::apply_batch_owned`] and the
/// persistent [`IngestPool`](uc_core::IngestPool) — must be
/// *indistinguishable*: identical per-key states, clock, and repair
/// event/step counters under randomized shuffled, duplicated, and
/// chunked schedules.
fn run_ingest_paths<F>(factory: F, seed: u64)
where
    F: StrategyFactory<Adt> + Send + Sync + 'static,
    F::Strategy: Send + Sync + 'static,
{
    let mut rng = SplitMix64::new(0x900C ^ seed);
    let streams = produce_streams(&mut rng, 2);
    let sched = shuffled_schedule(&mut rng, &streams);
    // Random chunking shared by both paths (batch boundaries change
    // which messages merge together, so they must match for the
    // repair counters to be comparable).
    let mut chunks: Vec<Vec<Msg>> = Vec::new();
    let mut i = 0;
    while i < sched.len() {
        let k = 1 + (rng.next_u64() % 9) as usize;
        let chunk = sched[i..sched.len().min(i + k)].to_vec();
        i += chunk.len();
        chunks.push(chunk);
    }

    let shards = 1 + (seed as usize % 4);
    let mut seq = UcStore::new(SetAdt::<u32>::new(), 0, shards, factory.clone());
    for c in &chunks {
        seq.apply_batch_owned(c.to_vec());
    }
    let workers = 1 + (seed as usize % 3);
    let mut pool = UcStore::new(SetAdt::<u32>::new(), 0, shards, factory).into_pool(PoolConfig {
        workers,
        queue_depth: 4,
    });
    for c in &chunks {
        pool.submit_batch(c.clone()).unwrap();
    }
    let mut pooled = pool.finish().unwrap();

    assert_eq!(seq.clock(), pooled.clock(), "pool clock, seed {seed}");
    assert_eq!(
        seq.total_repair_events(),
        pooled.total_repair_events(),
        "pool repair events, seed {seed}"
    );
    assert_eq!(
        seq.total_repair_steps(),
        pooled.total_repair_steps(),
        "pool repair steps, seed {seed}"
    );
    assert_eq!(seq.keys(), pooled.keys(), "pool keys, seed {seed}");
    for k in seq.keys() {
        assert_eq!(
            seq.materialize_key(k),
            pooled.materialize_key(k),
            "pool key {k}, seed {seed}"
        );
    }
}

#[test]
fn pool_ingest_matches_sequential_naive() {
    for seed in 0..15 {
        run_ingest_paths(NaiveEngines, seed);
    }
}

#[test]
fn pool_ingest_matches_sequential_checkpoint() {
    for seed in 0..15 {
        run_ingest_paths(
            CheckpointFactory {
                every: 1 + (seed as usize % 7),
            },
            seed,
        );
    }
}

#[test]
fn pool_ingest_matches_sequential_undo() {
    for seed in 0..15 {
        run_ingest_paths(UndoEngines, seed);
    }
}

#[test]
fn pool_ingest_matches_sequential_gc() {
    // GC is sound only under per-sender FIFO, so the schedule here
    // interleaves the two producers' streams chunk-wise (no shuffle,
    // no dups) and heartbeats only delivered prefixes — mid-run
    // partial stability exercises the pool's heartbeat broadcast
    // sweep, and a full heartbeat round at the end compacts.
    for seed in 0..15 {
        let mut rng = SplitMix64::new(0xD1FF ^ seed);
        let streams = produce_streams(&mut rng, 2);
        let mut queues: Vec<VecDeque<Msg>> = streams
            .iter()
            .map(|s| s.iter().cloned().collect())
            .collect();
        let mut chunks: Vec<Vec<Msg>> = Vec::new();
        let mut max_clock = 0;
        while queues.iter().any(|q| !q.is_empty()) {
            let p = (rng.next_u64() % queues.len() as u64) as usize;
            let take = 1 + (rng.next_u64() % 4) as usize;
            let mut chunk: Vec<Msg> = Vec::new();
            for _ in 0..take {
                match queues[p].pop_front() {
                    Some(m) => chunk.push(m),
                    None => break,
                }
            }
            if chunk.is_empty() {
                continue;
            }
            // Heartbeat the delivered prefix (safe under FIFO).
            let StoreMsg::Update { msg, .. } = chunk.last().expect("nonempty") else {
                panic!("producers only emit updates");
            };
            max_clock = max_clock.max(msg.ts.clock);
            if rng.next_u64().is_multiple_of(3) {
                let hb = StoreMsg::Heartbeat {
                    pid: p as u32 + 1,
                    clock: msg.ts.clock,
                };
                chunk.push(hb);
            }
            chunks.push(chunk);
        }
        // Final full-coverage heartbeat round: everyone (including
        // the consumer, pid 0) announces the top clock, so stability
        // covers the whole history and maintenance compacts.
        chunks.push(
            (0..3u32)
                .map(|pid| StoreMsg::Heartbeat {
                    pid,
                    clock: max_clock,
                })
                .collect(),
        );

        let factory = GcFactory { n: 3 };
        let mut seq = UcStore::new(SetAdt::<u32>::new(), 0, 3, factory);
        for c in &chunks {
            seq.apply_batch_owned(c.to_vec());
        }
        seq.tick_maintenance();
        let mut pool = UcStore::new(SetAdt::<u32>::new(), 0, 3, factory).into_pool(PoolConfig {
            workers: 2,
            queue_depth: 4,
        });
        for c in &chunks {
            pool.submit_batch(c.clone()).unwrap();
        }
        pool.tick_maintenance().unwrap();
        let mut pooled = pool.finish().unwrap();
        let total: usize = streams.iter().map(Vec::len).sum();
        assert!(
            pooled.total_log_len() < total,
            "full heartbeat coverage must compact, seed {seed}"
        );
        assert_eq!(
            seq.total_log_len(),
            pooled.total_log_len(),
            "gc compaction diverged, seed {seed}"
        );
        for k in 0..KEYS {
            assert_eq!(
                seq.materialize_key(k),
                pooled.materialize_key(k),
                "gc pool key {k}, seed {seed}"
            );
        }
    }
}

/// The store as a `Protocol` node under the deterministic simulator,
/// driven by the keyed zipfian workload generator, with batched
/// delivery: all replicas converge per key to the same state.
#[test]
fn store_converges_under_discrete_event_simulation() {
    let spec = KeyedWorkloadSpec {
        processes: 3,
        ops_per_process: 40,
        keys: 8,
        key_alpha: 1.0,
        update_ratio: 1.0,
        ..Default::default()
    };
    let ops = uc_sim::generate_keyed(&spec);
    type Node = UcStore<Adt, CheckpointFactory>;
    let mut sim: Simulation<Node> = Simulation::new(
        SimConfig {
            n: 3,
            seed: 77,
            latency: LatencyModel::Uniform(5, 90),
            fifo_links: false,
        },
        |pid| UcStore::new(SetAdt::new(), pid, 4, CheckpointFactory { every: 8 }),
    );
    sim.set_delivery_mode(DeliveryMode::Batched { window: 25 });
    for op in &ops {
        let input = match op.kind {
            SetOpKind::Insert(e) => StoreInput::Update(op.key, SetUpdate::Insert(e as u32)),
            SetOpKind::Delete(e) => StoreInput::Update(op.key, SetUpdate::Delete(e as u32)),
            SetOpKind::Read => StoreInput::Query(op.key, SetQuery::Read),
            SetOpKind::SnapshotRead => StoreInput::Snapshot(
                (op.key..op.key + 3)
                    .map(|k| (k % spec.keys as u64, SetQuery::Read))
                    .collect(),
            ),
        };
        sim.schedule_invoke(op.time, op.pid, input);
    }
    sim.run_to_quiescence();
    let keys: Vec<Key> = sim.process(0).keys();
    assert!(!keys.is_empty());
    for k in 0..spec.keys as u64 {
        let s0 = sim.process_mut(0).materialize_key(k);
        for p in 1..3 {
            assert_eq!(s0, sim.process_mut(p).materialize_key(k), "key {k}");
        }
    }
    assert!(
        sim.metrics.batches_delivered > 0,
        "the run must exercise per-shard batched delivery"
    );
}

/// Per-key logs localize repair. After a zipfian keyed stream, a late
/// 64-message burst on the hot key (key 0), stamped before the whole
/// history, makes the store refold that key's log alone. The same
/// stream multiplexed into one `CachedReplica` log (elements
/// re-encoded `key · universe + element`) refolds everything behind
/// the burst. Repair steps are counts, so they repeat exactly.
#[test]
fn a_late_burst_on_the_hot_key_repairs_that_key_alone() {
    const EVERY: usize = 32;
    const CHUNK: usize = 4096;
    let spec = KeyedWorkloadSpec {
        processes: 1,
        ops_per_process: 12_000,
        keys: 512,
        key_alpha: 1.1,
        universe: 64,
        zipf_alpha: 0.8,
        update_ratio: 1.0,
        insert_ratio: 0.7,
        mean_gap: 1,
        ooo_rate: 0.15,
        snapshot_rate: 0.0,
        seed: 0x570BE,
    };
    let ops: Vec<(Key, SetUpdate<u32>)> = uc_sim::generate_keyed(&spec)
        .into_iter()
        .map(|op| match op.kind {
            SetOpKind::Insert(e) => (op.key, SetUpdate::Insert(e as u32)),
            SetOpKind::Delete(e) => (op.key, SetUpdate::Delete(e as u32)),
            SetOpKind::Read | SetOpKind::SnapshotRead => unreachable!("update_ratio is 1.0"),
        })
        .collect();
    let encode = |key: Key, u: SetUpdate<u32>| {
        let at = |e: u32| key as u32 * spec.universe as u32 + e;
        match u {
            SetUpdate::Insert(e) => SetUpdate::Insert(at(e)),
            SetUpdate::Delete(e) => SetUpdate::Delete(at(e)),
        }
    };
    // One producer per shape; the same perturbation seed and length
    // displace both streams alike.
    let mut keyed_producer = UcStore::new(
        SetAdt::<u32>::new(),
        1,
        1,
        CheckpointFactory { every: EVERY },
    );
    let mut keyed_stream: Vec<Msg> = ops
        .iter()
        .map(|(key, u)| keyed_producer.update(*key, *u))
        .collect();
    let mut single_producer = CachedReplica::new(SetAdt::<u32>::new(), 1);
    let mut single_stream: Vec<UpdateMsg<SetUpdate<u32>>> = ops
        .iter()
        .map(|(key, u)| single_producer.update(encode(*key, *u)))
        .collect();
    perturb_order(&mut keyed_stream, spec.ooo_rate, spec.seed ^ 0xBAD);
    perturb_order(&mut single_stream, spec.ooo_rate, spec.seed ^ 0xBAD);

    let mut keyed = UcStore::new(
        SetAdt::<u32>::new(),
        0,
        1,
        CheckpointFactory { every: EVERY },
    );
    for chunk in keyed_stream.chunks(CHUNK) {
        keyed.apply_batch_owned(chunk.to_vec());
    }
    let mut late_producer = UcStore::new(
        SetAdt::<u32>::new(),
        2,
        1,
        CheckpointFactory { every: EVERY },
    );
    let late: Vec<Msg> = (0..64)
        .map(|i| late_producer.update(0, SetUpdate::Insert(90_000 + i)))
        .collect();
    let before = keyed.total_repair_steps();
    keyed.apply_batch_owned(late);
    let keyed_steps = keyed.total_repair_steps() - before;

    let mut single = CachedReplica::with_checkpoint_every(SetAdt::<u32>::new(), 0, EVERY);
    for chunk in single_stream.chunks(CHUNK) {
        single.on_batch(chunk.to_vec());
    }
    let mut late_producer = CachedReplica::new(SetAdt::<u32>::new(), 2);
    let late: Vec<_> = (0..64)
        .map(|i| late_producer.update(SetUpdate::Insert(900_000 + i)))
        .collect();
    let before = single.repair_steps();
    single.on_batch(late);
    let single_steps = single.repair_steps() - before;

    assert!(
        keyed_steps > 0 && keyed_steps < single_steps / 4,
        "per-key logs must localize repair: {keyed_steps} steps vs {single_steps} in one log"
    );
}

// ---------------------------------------------------------------------------
// Backend differential: `MemBackend` vs `SegmentBackend`.
//
// The storage refactor's acceptance bar: persistence must be
// *semantically invisible*. A store journaling every update into
// on-disk CRC-framed segments has to produce identical per-key
// states, clocks, and repair event/step counts to the in-memory
// default under the same shuffled/duplicated/batched schedules — and
// after a kill (flush + drop) a reopened store must report per-key
// states, per-key engine clocks, and the store clock byte-identical
// to the in-memory store that never restarted.
// ---------------------------------------------------------------------------

use uc_storage::{ScratchDir, SegmentFactory};

/// Drive the same chunked schedule into an in-memory store and a
/// segment-backed store, assert they are indistinguishable, then kill
/// (flush + drop) the persistent one, reopen it from disk, and assert
/// the recovered store still matches the never-restarted reference.
/// With `fsync` the segment store runs the `fsync` tier and is made
/// durable after every chunk; without, it writes behind and the kill's
/// flush is its only one.
fn run_backend_differential<F>(
    factory: F,
    chunks: &[Vec<Msg>],
    seed: u64,
    shards: usize,
    fsync: bool,
) where
    F: StrategyFactory<Adt>,
{
    let at = format!("seed {seed}, fsync {fsync}");
    let mut mem = UcStore::new(SetAdt::<u32>::new(), 0, shards, factory.clone());
    let tmp = ScratchDir::new(&format!("store-diff-{seed}"));
    let persist = SegmentFactory::at(tmp.path())
        .expect("scratch store")
        .fsync(fsync);
    let mut seg: UcStore<Adt, F, SegmentFactory> = UcStore::with_persistence(
        SetAdt::<u32>::new(),
        0,
        shards,
        factory.clone(),
        persist.clone(),
    );
    let mut rng = SplitMix64::new(seed ^ 0xD15C);
    for c in chunks {
        if rng.next_u64().is_multiple_of(2) {
            mem.apply_batch_owned(c.to_vec());
            seg.apply_batch_owned(c.to_vec());
        } else {
            for m in c {
                let Ok(_) = mem.apply_message_from(1, m.clone());
                let Ok(_) = seg.apply_message_from(1, m.clone());
            }
        }
        if fsync {
            seg.flush_backends();
        }
        // Queries tick the shared clock; issue them in lockstep so
        // the clock comparison stays exact.
        let k = rng.next_u64() % KEYS;
        assert_eq!(
            mem.query(k, &SetQuery::Read),
            seg.query(k, &SetQuery::Read),
            "live query diverged, {at}"
        );
    }
    mem.tick_maintenance();
    seg.tick_maintenance();

    // Live differential: states, clocks, and repair accounting.
    assert_eq!(mem.keys(), seg.keys(), "keys, {at}");
    assert_eq!(mem.clock(), seg.clock(), "store clock, {at}");
    assert_eq!(
        mem.total_repair_events(),
        seg.total_repair_events(),
        "repair events, {at}"
    );
    assert_eq!(
        mem.total_repair_steps(),
        seg.total_repair_steps(),
        "repair steps, {at}"
    );
    assert_eq!(
        mem.total_log_len(),
        seg.total_log_len(),
        "retained log length, {at}"
    );
    for k in mem.keys() {
        assert_eq!(
            mem.materialize_key(k),
            seg.materialize_key(k),
            "live key {k}, {at}"
        );
    }

    // Kill and reopen: flush is the durability point, drop is the
    // kill (nothing buffered survives except what flush persisted).
    seg.flush_backends();
    drop(seg);
    let mut back: UcStore<Adt, F, SegmentFactory> =
        UcStore::reopen(SetAdt::<u32>::new(), 0, shards, factory, persist);
    assert_eq!(mem.keys(), back.keys(), "recovered keys, {at}");
    assert_eq!(mem.clock(), back.clock(), "recovered store clock, {at}");
    for k in mem.keys() {
        assert_eq!(
            mem.materialize_key(k),
            back.materialize_key(k),
            "recovered key {k}, {at}"
        );
        assert_eq!(
            mem.engine(k).expect("materialized").clock(),
            back.engine(k).expect("recovered").clock(),
            "recovered engine clock, key {k}, {at}"
        );
    }
}

/// Shuffled + duplicated chunks for the full-log strategies.
fn full_log_chunks(seed: u64) -> (Vec<Vec<Msg>>, usize) {
    let mut rng = SplitMix64::new(seed);
    let streams = produce_streams(&mut rng, 2);
    let sched = shuffled_schedule(&mut rng, &streams);
    let mut chunks = Vec::new();
    let mut i = 0;
    while i < sched.len() {
        let k = 1 + (rng.next_u64() % 9) as usize;
        let chunk = sched[i..sched.len().min(i + k)].to_vec();
        i += chunk.len();
        chunks.push(chunk);
    }
    (chunks, 1 + (seed as usize % 4))
}

// The full-log strategies run every seed under both tiers, write-behind
// and `fsync`, so each tier sees every shard count.

#[test]
fn segment_backend_matches_mem_backend_naive() {
    for seed in 0..10 {
        let (chunks, shards) = full_log_chunks(0xBACD ^ seed);
        for fsync in [false, true] {
            run_backend_differential(NaiveEngines, &chunks, seed, shards, fsync);
        }
    }
}

#[test]
fn segment_backend_matches_mem_backend_checkpoint() {
    for seed in 0..10 {
        let (chunks, shards) = full_log_chunks(0xBACE ^ seed);
        let factory = CheckpointFactory {
            every: 1 + (seed as usize % 7),
        };
        for fsync in [false, true] {
            run_backend_differential(factory, &chunks, seed, shards, fsync);
        }
    }
}

#[test]
fn segment_backend_matches_mem_backend_undo() {
    for seed in 0..10 {
        let (chunks, shards) = full_log_chunks(0xBACF ^ seed);
        for fsync in [false, true] {
            run_backend_differential(UndoEngines, &chunks, seed, shards, fsync);
        }
    }
}

#[test]
fn segment_backend_matches_mem_backend_gc() {
    for seed in 0..10 {
        run_backend_differential(GcFactory { n: 3 }, &gc_chunks(seed), seed, 2, false);
    }
}

/// The `fsync` tier of [`segment_backend_matches_mem_backend_gc`]: a
/// flush after every chunk, and a query in between, so queries read
/// keys that are idle and already flushed. Such a read must not move
/// the key's engine clock, or the reopened key's clock trails the
/// never-restarted one's.
#[test]
fn segment_backend_matches_mem_backend_gc_flushed_per_chunk() {
    for seed in 0..10 {
        run_backend_differential(GcFactory { n: 3 }, &gc_chunks(seed), seed, 2, true);
    }
}

/// A GC schedule that compacts before the kill. GC is sound only under
/// per-sender FIFO; interleave the producer streams chunk-wise with
/// prefix heartbeats (as in the pool's GC differential), then a full
/// heartbeat round so compaction — and hence base-snapshot persistence
/// — actually runs before the kill.
fn gc_chunks(seed: u64) -> Vec<Vec<Msg>> {
    let mut rng = SplitMix64::new(0x6C0D ^ seed);
    let streams = produce_streams(&mut rng, 2);
    let total: usize = streams.iter().map(Vec::len).sum();
    let mut queues: Vec<VecDeque<Msg>> = streams
        .iter()
        .map(|s| s.iter().cloned().collect())
        .collect();
    let mut chunks: Vec<Vec<Msg>> = Vec::new();
    let mut max_clock = 0;
    while queues.iter().any(|q| !q.is_empty()) {
        let p = (rng.next_u64() % queues.len() as u64) as usize;
        let take = 1 + (rng.next_u64() % 4) as usize;
        let mut chunk: Vec<Msg> = Vec::new();
        for _ in 0..take {
            match queues[p].pop_front() {
                Some(m) => chunk.push(m),
                None => break,
            }
        }
        if chunk.is_empty() {
            continue;
        }
        let StoreMsg::Update { msg, .. } = chunk.last().expect("nonempty") else {
            panic!("producers only emit updates");
        };
        max_clock = max_clock.max(msg.ts.clock);
        if rng.next_u64().is_multiple_of(3) {
            chunk.push(StoreMsg::Heartbeat {
                pid: p as u32 + 1,
                clock: msg.ts.clock,
            });
        }
        chunks.push(chunk);
    }
    chunks.push(
        (0..3u32)
            .map(|pid| StoreMsg::Heartbeat {
                pid,
                clock: max_clock,
            })
            .collect(),
    );
    // Sanity: the schedule must actually compact (otherwise the reopen
    // path would never exercise base snapshots).
    let mut probe = UcStore::new(SetAdt::<u32>::new(), 0, 2, GcFactory { n: 3 });
    for c in &chunks {
        probe.apply_batch_owned(c.to_vec());
    }
    probe.tick_maintenance();
    assert!(
        probe.total_log_len() < total,
        "schedule must compact something, seed {seed}"
    );
    chunks
}
