//! Differential and adversarial tests for the timestamp-cut snapshot
//! path: [`UcStore::snapshot_at`] / [`UcStore::consistent_snapshot`],
//! the pool's cut barrier, and the `SnapshotConsistency` criterion.
//!
//! The gate: for both store strategies, both storage backends, and
//! shuffled/duplicated/batched schedules from concurrent producers,
//! `snapshot_at(t)` must equal a per-key sequential fold of the
//! delivered updates stamped `≤ t` — byte-identical (state equality
//! *and* digest equality), and never torn: no key ahead of the cut,
//! none behind it.

mod common;

use std::collections::VecDeque;
use uc_core::{
    state_digest, CheckpointFactory, CutError, GcFactory, Key, PoolConfig, StoreMsg, StoreSnapshot,
    StrategyFactory, Timestamp, UcStore,
};
use uc_criteria::{check_snapshot_consistency, CutUpdate, RecordedCut};
use uc_sim::SplitMix64;
use uc_spec::{
    queue::{QueueOut, QueueQuery, QueueUpdate},
    stack::{StackOut, StackQuery, StackUpdate},
    CounterAdt, CounterQuery, CounterUpdate, QueueAdt, SetAdt, SetQuery, SetUpdate, StackAdt,
    UqAdt,
};
use uc_storage::{ScratchDir, SegmentFactory};

const KEYS: u64 = 5;

/// The fold-at-cut reference: dedup the delivered updates by stamp,
/// keep `key`'s updates stamped `≤ cut`, sort by the update total
/// order, and fold sequentially.
fn expected_at_cut<A: UqAdt>(
    adt: &A,
    delivered: &[(Timestamp, Key, A::Update)],
    key: Key,
    cut: u64,
) -> A::State {
    let mut ups: Vec<(Timestamp, &A::Update)> = delivered
        .iter()
        .filter(|(ts, k, _)| *k == key && ts.clock <= cut)
        .map(|(ts, _, u)| (*ts, u))
        .collect();
    ups.sort_by_key(|(ts, _)| *ts);
    ups.dedup_by_key(|(ts, _)| *ts);
    let mut state = adt.initial();
    for (_, u) in ups {
        adt.apply(&mut state, u);
    }
    state
}

/// Assert a snapshot is exactly the per-key fold of the delivered
/// prefix `≤ cut` — the un-torn property, checked byte-identically.
fn assert_untorn<A: UqAdt>(
    adt: &A,
    snap: &StoreSnapshot<A>,
    delivered: &[(Timestamp, Key, A::Update)],
    seed: u64,
) {
    for k in 0..KEYS {
        let expect = expected_at_cut(adt, delivered, k, snap.cut());
        let got = snap.state(k).cloned().unwrap_or_else(|| adt.initial());
        assert_eq!(got, expect, "cut {} tore key {k}, seed {seed}", snap.cut());
        assert_eq!(
            state_digest(&got),
            state_digest(&expect),
            "cut {} digest mismatch on key {k}, seed {seed}",
            snap.cut()
        );
    }
}

/// Record a snapshot for the `SnapshotConsistency` criterion: every
/// key's state at the cut, untouched keys at the initial state.
fn record_cut<A: UqAdt>(adt: &A, snap: &StoreSnapshot<A>) -> RecordedCut<A::State> {
    RecordedCut {
        cut: snap.cut(),
        states: (0..KEYS)
            .map(|k| (k, snap.state(k).cloned().unwrap_or_else(|| adt.initial())))
            .collect(),
    }
}

/// Two concurrent producers (pids 1, 2) with occasional
/// cross-observation, generating ADT-generic keyed updates.
fn produce_streams<A: UqAdt + Clone>(
    adt: &A,
    rng: &mut SplitMix64,
    mut gen: impl FnMut(&mut SplitMix64) -> A::Update,
) -> Vec<Vec<StoreMsg<A::Update>>> {
    let mut peers: Vec<UcStore<A, CheckpointFactory>> = (0..2)
        .map(|i| UcStore::new(adt.clone(), i as u32 + 1, 2, CheckpointFactory { every: 8 }))
        .collect();
    let mut streams: Vec<Vec<StoreMsg<A::Update>>> = vec![Vec::new(); 2];
    let total = 40 + (rng.next_u64() % 30) as usize;
    for _ in 0..total {
        let p = (rng.next_u64() % 2) as usize;
        let key = rng.next_u64() % KEYS;
        let u = gen(rng);
        let m = peers[p].update(key, u);
        if rng.next_u64().is_multiple_of(2) {
            let Ok(_) = peers[1 - p].apply_message_from(p as u32 + 1, m.clone());
        }
        streams[p].push(m);
    }
    streams
}

/// The cut differential for full-log strategies: shuffled + duplicated
/// schedule, chunked delivery mixing batch and per-message paths, a
/// random cut checked against the fold reference after every chunk,
/// and the recorded end-of-run cuts validated by the criterion.
fn run_cut_differential<A, F, P>(
    adt: A,
    factory: F,
    persist: P,
    seed: u64,
    gen: impl FnMut(&mut SplitMix64) -> A::Update,
) where
    A: UqAdt + Clone,
    F: StrategyFactory<A>,
    P: uc_core::BackendFactory<A>,
{
    let mut rng = SplitMix64::new(seed);
    let streams = produce_streams(&adt, &mut rng, gen);
    let sched = common::shuffle_with_dups(
        &mut rng,
        streams.iter().flatten().cloned().collect::<Vec<_>>(),
    );
    let shards = 1 + (seed as usize % 4);
    let mut store = UcStore::with_persistence(adt.clone(), 0, shards, factory, persist);
    let mut delivered: Vec<(Timestamp, Key, A::Update)> = Vec::new();
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
        for m in chunk {
            let StoreMsg::Update { key, msg } = m else {
                panic!("producers only emit updates");
            };
            delivered.push((msg.ts, *key, msg.update.clone()));
        }
        // A cut anywhere in delivered history must be answerable and
        // un-torn (full-log strategies never compact).
        let cut = rng.next_u64() % (store.clock() + 1);
        let snap = store
            .snapshot_at(cut)
            .expect("full-log strategies answer every cut");
        assert_eq!(snap.cut(), cut);
        assert_untorn(&adt, &snap, &delivered, seed);
    }

    // The final consistent snapshot reflects everything delivered and
    // agrees with the store's own materialized states.
    let snap = store.consistent_snapshot();
    assert_untorn(&adt, &snap, &delivered, seed);
    for k in 0..KEYS {
        assert_eq!(
            snap.state(k).cloned().unwrap_or_else(|| adt.initial()),
            store.materialize_key(k),
            "final snapshot vs materialize, key {k}, seed {seed}"
        );
    }

    // Criterion gate: the recorded cuts validate against the full
    // delivered trace (duplicates included — the checker collapses
    // them).
    let trace: Vec<CutUpdate<A::Update>> = delivered
        .iter()
        .map(|(ts, key, u)| CutUpdate {
            key: *key,
            clock: ts.clock,
            pid: ts.pid,
            update: u.clone(),
        })
        .collect();
    let mut cuts = vec![record_cut(&adt, &snap)];
    let mid = store
        .snapshot_at(store.clock() / 2)
        .expect("mid cut answerable");
    cuts.push(record_cut(&adt, &mid));
    let verdict = check_snapshot_consistency(&adt, &trace, &cuts);
    assert!(
        verdict.holds(),
        "criterion rejected a real cut: {verdict:?}"
    );
}

#[test]
fn set_cut_differential_all_full_log_strategies_mem() {
    for seed in 0..12u64 {
        let gen = |rng: &mut SplitMix64| {
            let v = (rng.next_u64() % 8) as u32;
            if rng.next_u64().is_multiple_of(3) {
                SetUpdate::Delete(v)
            } else {
                SetUpdate::Insert(v)
            }
        };
        run_cut_differential(
            SetAdt::<u32>::new(),
            CheckpointFactory {
                every: 1 + (seed as usize % 5),
            },
            uc_core::MemFactory,
            seed ^ 0xA5,
            gen,
        );
    }
}

#[test]
fn set_cut_differential_segment_backend() {
    for seed in 0..4u64 {
        let gen = |rng: &mut SplitMix64| {
            let v = (rng.next_u64() % 8) as u32;
            if rng.next_u64().is_multiple_of(3) {
                SetUpdate::Delete(v)
            } else {
                SetUpdate::Insert(v)
            }
        };
        let tmp = ScratchDir::new(&format!("snap-diff-seg-{seed}"));
        let persist = SegmentFactory::at(tmp.path()).expect("scratch store");
        run_cut_differential(
            SetAdt::<u32>::new(),
            CheckpointFactory { every: 4 },
            persist,
            seed,
            gen,
        );
    }
}

/// Satellite: `spec::queue` through the store differential, snapshot
/// queries included — split queue semantics survive keyed cuts.
#[test]
fn queue_cut_differential() {
    for seed in 0..8u64 {
        let gen = |rng: &mut SplitMix64| {
            if rng.next_u64() % 10 < 3 {
                QueueUpdate::Pop
            } else {
                QueueUpdate::Enqueue((rng.next_u64() % 16) as u32)
            }
        };
        run_cut_differential(
            QueueAdt::<u32>::new(),
            CheckpointFactory { every: 3 },
            uc_core::MemFactory,
            seed ^ 0x11,
            gen,
        );
    }
    // One persistent run: queue states round-trip through segments.
    let tmp = ScratchDir::new("snap-diff-queue-seg");
    let persist = SegmentFactory::at(tmp.path()).expect("scratch store");
    run_cut_differential(
        QueueAdt::<u32>::new(),
        CheckpointFactory { every: 4 },
        persist,
        0x0E0E,
        |rng| {
            if rng.next_u64() % 10 < 3 {
                QueueUpdate::Pop
            } else {
                QueueUpdate::Enqueue((rng.next_u64() % 16) as u32)
            }
        },
    );
}

/// Satellite: `spec::stack` through the store differential, snapshot
/// queries included.
#[test]
fn stack_cut_differential() {
    for seed in 0..8u64 {
        let gen = |rng: &mut SplitMix64| {
            if rng.next_u64() % 10 < 3 {
                StackUpdate::DeleteTop
            } else {
                StackUpdate::Push((rng.next_u64() % 16) as u32)
            }
        };
        run_cut_differential(
            StackAdt::<u32>::new(),
            CheckpointFactory { every: 3 },
            uc_core::MemFactory,
            seed ^ 0x11,
            gen,
        );
    }
    let tmp = ScratchDir::new("snap-diff-stack-seg");
    let persist = SegmentFactory::at(tmp.path()).expect("scratch store");
    run_cut_differential(
        StackAdt::<u32>::new(),
        CheckpointFactory { every: 4 },
        persist,
        0x57AC4,
        |rng| {
            if rng.next_u64() % 10 < 3 {
                StackUpdate::DeleteTop
            } else {
                StackUpdate::Push((rng.next_u64() % 16) as u32)
            }
        },
    );
}

/// Queue/stack snapshot *queries* observe the cut state, not the
/// latest one.
#[test]
fn queue_and_stack_snapshot_queries_observe_the_cut() {
    let mut store: UcStore<QueueAdt<u32>, CheckpointFactory> =
        UcStore::new(QueueAdt::new(), 0, 2, CheckpointFactory { every: 8 });
    let m1 = store.update(0, QueueUpdate::Enqueue(7));
    let StoreMsg::Update { msg, .. } = &m1 else {
        panic!()
    };
    let t1 = msg.ts.clock;
    store.update(0, QueueUpdate::Pop);
    let early = store.snapshot_at(t1).expect("answerable");
    assert_eq!(
        early.query(0, &QueueQuery::Front),
        QueueOut::Front(Some(7)),
        "the cut predates the pop"
    );
    assert_eq!(early.query(0, &QueueQuery::Len), QueueOut::Len(1));
    let now = store.consistent_snapshot();
    assert_eq!(now.query(0, &QueueQuery::Front), QueueOut::Front(None));

    let mut store: UcStore<StackAdt<u32>, CheckpointFactory> =
        UcStore::new(StackAdt::new(), 0, 2, CheckpointFactory { every: 8 });
    store.update(1, StackUpdate::Push(3));
    let m2 = store.update(1, StackUpdate::Push(9));
    let StoreMsg::Update { msg, .. } = &m2 else {
        panic!()
    };
    let t2 = msg.ts.clock;
    store.update(1, StackUpdate::DeleteTop);
    let early = store.snapshot_at(t2).expect("answerable");
    assert_eq!(early.query(1, &StackQuery::Top), StackOut::Top(Some(9)));
    let now = store.consistent_snapshot();
    assert_eq!(now.query(1, &StackQuery::Top), StackOut::Top(Some(3)));
}

/// Satellite regression: the torn multi-key read. Two causally
/// ordered updates land on *different* keys; a naive two-query read
/// straddling their delivery observes the later update without the
/// earlier one — a causal tear no single-key consistency criterion
/// catches. `snapshot_at` makes that observation impossible: no cut
/// shows the second update without the first.
#[test]
fn torn_two_query_read_fixed_by_snapshot_at() {
    const KA: Key = 0;
    const KB: Key = 1;
    let mut producer: UcStore<SetAdt<u32>, CheckpointFactory> =
        UcStore::new(SetAdt::new(), 1, 2, CheckpointFactory { every: 8 });
    // Causally ordered: the same producer issues both, so the second
    // stamp is strictly greater.
    let m1 = producer.update(KA, SetUpdate::Insert(1));
    let m2 = producer.update(KB, SetUpdate::Insert(2));

    // First, demonstrate today's tear with naive per-key queries: the
    // reader asks KA before delivery and KB after.
    let mut reader: UcStore<SetAdt<u32>, CheckpointFactory> =
        UcStore::new(SetAdt::new(), 0, 2, CheckpointFactory { every: 8 });
    let a_before = reader.query(KA, &SetQuery::Read);
    let Ok(_) = reader.apply_message_from(1, m1.clone());
    let Ok(_) = reader.apply_message_from(1, m2.clone());
    let b_after = reader.query(KB, &SetQuery::Read);
    assert!(
        !a_before.contains(&1) && b_after.contains(&2),
        "the naive two-query read observes the causally-later update \
         without the earlier one"
    );

    // The fix: no cut of the same store can reproduce that view —
    // whenever KB shows update 2, KA shows update 1.
    for cut in 0..=reader.clock() {
        let snap = reader.snapshot_at(cut).expect("full log");
        let a = snap.query(KA, &SetQuery::Read);
        let b = snap.query(KB, &SetQuery::Read);
        assert!(
            !b.contains(&2) || a.contains(&1),
            "cut {cut} reproduced the torn view"
        );
    }
    let snap = reader.consistent_snapshot();
    assert!(snap.query(KA, &SetQuery::Read).contains(&1));
    assert!(snap.query(KB, &SetQuery::Read).contains(&2));
}

/// GC interaction: cuts that predate compacted history error cleanly
/// with the oldest answerable cut, cuts at or above the bound keep
/// matching the fold reference under FIFO delivery with heartbeats.
#[test]
fn gc_cut_differential_and_cut_error_below_compaction_bound() {
    for seed in 0..10u64 {
        let mut rng = SplitMix64::new(0x6C5EED ^ seed);
        let gen = |rng: &mut SplitMix64| {
            let v = (rng.next_u64() % 8) as u32;
            if rng.next_u64().is_multiple_of(3) {
                SetUpdate::Delete(v)
            } else {
                SetUpdate::Insert(v)
            }
        };
        let adt = SetAdt::<u32>::new();
        let streams = produce_streams(&adt, &mut rng, gen);
        let cluster = 3;
        let mut store: UcStore<SetAdt<u32>, GcFactory> =
            UcStore::new(SetAdt::new(), 0, 2, GcFactory { n: cluster });
        let mut delivered: Vec<(Timestamp, Key, SetUpdate<u32>)> = Vec::new();
        let mut queues: Vec<VecDeque<StoreMsg<SetUpdate<u32>>>> = streams
            .iter()
            .map(|s| s.iter().cloned().collect())
            .collect();
        while queues.iter().any(|q| !q.is_empty()) {
            let p = (rng.next_u64() % queues.len() as u64) as usize;
            let take = 1 + (rng.next_u64() % 5) as usize;
            let mut burst = Vec::new();
            for _ in 0..take {
                match queues[p].pop_front() {
                    Some(m) => burst.push(m),
                    None => break,
                }
            }
            if burst.is_empty() {
                continue;
            }
            for m in &burst {
                let StoreMsg::Update { key, msg } = m else {
                    panic!()
                };
                delivered.push((msg.ts, *key, msg.update));
            }
            let clock = delivered.last().expect("nonempty").0.clock;
            store.apply_batch_owned(burst);
            if rng.next_u64().is_multiple_of(3) {
                let pid = p as u32 + 1;
                let Ok(_) = store.apply_message_from(pid, StoreMsg::Heartbeat { pid, clock });
            }
            // Cuts at the current clock stay answerable mid-run even
            // as stability advances.
            let now = store.clock();
            match store.snapshot_at(now) {
                Ok(snap) => assert_untorn(&adt, &snap, &delivered, seed),
                Err(e) => panic!("cut at the clock must be answerable, got {e}"),
            }
        }
        // Full stability, then compact.
        for pid in 0..cluster as u32 {
            let clock = store.clock();
            let Ok(_) = store.apply_message_from(pid, StoreMsg::Heartbeat { pid, clock });
        }
        store.tick_maintenance();
        assert!(
            store.total_log_len() < delivered.len(),
            "full heartbeat coverage must compact, seed {seed}"
        );
        // A cut below the compaction bound errs with the bound.
        match store.snapshot_at(0) {
            Err(CutError { cut, bound }) => {
                assert_eq!(cut, 0);
                assert!(bound > 0, "compacted history must raise the bound");
            }
            Ok(_) => panic!("cut 0 must predate compacted history, seed {seed}"),
        }
        // The current clock still answers, matching the full fold.
        let snap = store.consistent_snapshot();
        assert_untorn(&adt, &snap, &delivered, seed);
    }
}

/// The criterion flags an injected torn cut: a recorded state that
/// leaked one update from beyond the cut.
#[test]
fn snapshot_consistency_criterion_flags_injected_tear() {
    let adt = SetAdt::<u32>::new();
    let mut producer: UcStore<SetAdt<u32>, CheckpointFactory> =
        UcStore::new(SetAdt::new(), 1, 2, CheckpointFactory { every: 8 });
    let mut store: UcStore<SetAdt<u32>, CheckpointFactory> =
        UcStore::new(SetAdt::new(), 0, 2, CheckpointFactory { every: 8 });
    let mut trace = Vec::new();
    for i in 0..20u32 {
        let m = producer.update(u64::from(i) % KEYS, SetUpdate::Insert(i));
        let StoreMsg::Update { key, msg } = &m else {
            panic!()
        };
        trace.push(CutUpdate {
            key: *key,
            clock: msg.ts.clock,
            pid: msg.ts.pid,
            update: msg.update,
        });
        let Ok(_) = store.apply_message_from(1, m);
    }
    let cut_ts = trace[9].clock;
    let snap = store.snapshot_at(cut_ts).expect("full log");
    let good = record_cut(&adt, &snap);
    assert!(check_snapshot_consistency(&adt, &trace, std::slice::from_ref(&good)).holds());

    // Inject the tear: graft an update stamped after the cut into one
    // recorded key.
    let mut torn = good;
    let late = trace
        .iter()
        .find(|u| u.clock > cut_ts)
        .expect("updates beyond the cut");
    for (key, state) in &mut torn.states {
        if *key == late.key {
            adt.apply(state, &late.update);
        }
    }
    let v = check_snapshot_consistency(&adt, &trace, &[torn]);
    assert!(v.fails(), "the injected tear must be flagged, got {v:?}");
}

/// Pool cut barrier under live ingest: the owner increments key 0
/// *then* key 1 in lockstep while a handle on another thread takes
/// the cuts, so any un-torn cut satisfies `count(key0) − count(key1)
/// ∈ [0, 1]` — one update at most is stamped and not yet queued when
/// a cut is taken. Workers keep ingesting throughout — the cut never
/// stops the pool.
#[test]
fn pool_cut_barrier_under_concurrent_ingest_is_untorn() {
    let store: UcStore<CounterAdt, CheckpointFactory> =
        UcStore::new(CounterAdt, 0, 8, CheckpointFactory { every: 8 });
    let mut pool = store.into_pool(PoolConfig {
        workers: 4,
        queue_depth: 32,
    });
    let handle = pool.handle();
    let cutter = std::thread::spawn(move || {
        let mut last_cut = 0;
        for _ in 0..40 {
            let snap = handle.consistent_snapshot().expect("live pool");
            assert!(snap.cut() > last_cut, "cuts advance with the clock");
            last_cut = snap.cut();
            let a = snap.query(0, &CounterQuery::Read);
            let b = snap.query(1, &CounterQuery::Read);
            assert!(
                a - b == 0 || a - b == 1,
                "torn cut at {}: key0 = {a}, key1 = {b}",
                snap.cut()
            );
        }
    });
    let mut rounds = 0u64;
    while !cutter.is_finished() {
        pool.update(0, CounterUpdate::Add(1)).unwrap();
        pool.update(1, CounterUpdate::Add(1)).unwrap();
        rounds += 1;
    }
    cutter.join().unwrap();
    assert!(rounds > 0);
    // After quiescing, the final snapshot equals the full totals.
    let snap = pool.consistent_snapshot().expect("live pool");
    assert_eq!(snap.query(0, &CounterQuery::Read), rounds as i64);
    assert_eq!(snap.query(1, &CounterQuery::Read), rounds as i64);
    let mut store = pool.finish().unwrap();
    assert_eq!(store.materialize_key(0), rounds as i64);
}

/// The pool's snapshot agrees with the sequential store's on the same
/// delivered schedule, and a cut below a pooled GC store's compaction
/// bound surfaces `SnapshotError::Cut`.
#[test]
fn pool_snapshot_matches_sequential_store() {
    let mut rng = SplitMix64::new(0x9E0);
    let adt = SetAdt::<u32>::new();
    let gen = |rng: &mut SplitMix64| {
        let v = (rng.next_u64() % 8) as u32;
        if rng.next_u64().is_multiple_of(3) {
            SetUpdate::Delete(v)
        } else {
            SetUpdate::Insert(v)
        }
    };
    let streams = produce_streams(&adt, &mut rng, gen);
    let msgs: Vec<_> = streams.iter().flatten().cloned().collect();

    let mut seq: UcStore<SetAdt<u32>, CheckpointFactory> =
        UcStore::new(SetAdt::new(), 0, 4, CheckpointFactory { every: 4 });
    for chunk in msgs.chunks(7) {
        seq.apply_batch_owned(chunk.to_vec());
    }
    let mut pool =
        UcStore::new(SetAdt::new(), 0, 4, CheckpointFactory { every: 4 }).into_pool(PoolConfig {
            workers: 3,
            ..PoolConfig::default()
        });
    for chunk in msgs.chunks(7) {
        pool.submit_batch(chunk.to_vec()).unwrap();
    }
    pool.flush().unwrap();
    // Same delivered prefix ⟹ identical cuts at every timestamp.
    let top = seq.clock();
    for cut in [0, top / 3, top / 2, top] {
        let s = seq.snapshot_at(cut).expect("full log");
        let p = pool.snapshot_at(cut).expect("flushed pool");
        assert_eq!(s.cut(), p.cut());
        for k in 0..KEYS {
            assert_eq!(
                s.state(k),
                p.state(k),
                "pool vs sequential diverged at cut {cut}, key {k}"
            );
        }
    }
    drop(pool);
}

/// Satellite: first-snapshot-query cost is per-shard, not whole-store.
/// On a 10k-key store only the armed shard backfills, bounding the
/// publication work triggered by a single cold snapshot read.
#[test]
fn first_snapshot_query_backfills_only_the_armed_shard() {
    const TOTAL_KEYS: u64 = 10_000;
    const SHARDS: usize = 64;
    let store: UcStore<SetAdt<u32>, CheckpointFactory> =
        UcStore::new(SetAdt::new(), 0, SHARDS, CheckpointFactory { every: 32 });
    let mut pool = store.into_pool(PoolConfig {
        workers: 4,
        ..PoolConfig::default()
    });
    for k in 0..TOTAL_KEYS {
        pool.update(k, SetUpdate::Insert(1)).unwrap();
    }
    pool.flush().unwrap();
    assert_eq!(
        pool.stats().total_snapshots_published(),
        0,
        "nothing armed, nothing published"
    );

    // One cold snapshot read arms exactly one shard; the next barrier
    // backfills it.
    let probe = 4321;
    let _ = pool.query_snapshot(probe, &SetQuery::Read);
    pool.flush().unwrap();
    let published = pool.stats().total_snapshots_published();
    let per_shard_budget = (TOTAL_KEYS / SHARDS as u64) * 4;
    assert!(published > 0, "the armed shard must backfill");
    assert!(
        published <= per_shard_budget,
        "backfill published {published} keys — per-shard arming should \
         bound it near {} (whole-store backfill would be {TOTAL_KEYS})",
        TOTAL_KEYS / SHARDS as u64
    );
    // And the armed key now answers from its published state.
    let out = pool.query_snapshot(probe, &SetQuery::Read);
    assert!(out.contains(&1), "backfilled key answers post-flush");

    // Wait-free reads of keys across shards arm theirs without
    // blocking; the next barrier backfills those too.
    let keys: Vec<Key> = (0..10).map(|k| k * 997).collect();
    for &key in &keys {
        let _ = pool.query_snapshot(key, &SetQuery::Read);
    }
    pool.flush().unwrap();
    for &key in &keys {
        let out = pool.query_snapshot(key, &SetQuery::Read);
        assert!(out.contains(&1), "key {key} answers post-flush");
    }
    drop(pool);
}
