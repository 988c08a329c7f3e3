//! Lifecycle edges of the persistent shard-worker ingest pool:
//! drain-on-drop, flush barriers, and panic poisoning (a panicking
//! burst, and a panicking call that answers).
//!
//! The observability trick: instrumented UQ-ADTs whose transition
//! function reports into shared state (an `Arc`), so a test can see
//! exactly which updates a worker folded even after the pool (and the
//! store inside it) is gone. Instrumentation lives in the ADT, not
//! the pool — the pool under test is the production code path.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use uc_core::{CheckpointFactory, GcFactory, PoolConfig, StoreMsg, UcStore};
use uc_obs::HealthStatus;
use uc_spec::{SetAdt, SetQuery, SetUpdate, UqAdt};

/// A set ADT that records every element it ever applies into a shared
/// journal (dedup across repair re-folds is the point: an element in
/// the journal was folded *at least once*, i.e. its update was not
/// lost).
#[derive(Clone, Debug)]
struct JournaledSet {
    inner: SetAdt<u32>,
    journal: Arc<Mutex<BTreeSet<u32>>>,
    applies: Arc<AtomicU64>,
}

impl JournaledSet {
    fn new() -> Self {
        JournaledSet {
            inner: SetAdt::new(),
            journal: Arc::new(Mutex::new(BTreeSet::new())),
            applies: Arc::new(AtomicU64::new(0)),
        }
    }
}

impl UqAdt for JournaledSet {
    type Update = SetUpdate<u32>;
    type QueryIn = SetQuery;
    type QueryOut = BTreeSet<u32>;
    type State = BTreeSet<u32>;

    fn initial(&self) -> Self::State {
        self.inner.initial()
    }

    fn apply(&self, state: &mut Self::State, update: &Self::Update) {
        let (SetUpdate::Insert(e) | SetUpdate::Delete(e)) = update;
        self.journal.lock().unwrap().insert(*e);
        self.applies.fetch_add(1, Ordering::Relaxed);
        self.inner.apply(state, update);
    }

    fn observe(&self, state: &Self::State, query: &Self::QueryIn) -> Self::QueryOut {
        self.inner.observe(state, query)
    }
}

/// A set ADT whose fold panics on one poison-pill element.
#[derive(Clone, Debug)]
struct PanickySet {
    inner: SetAdt<u32>,
    pill: u32,
}

impl UqAdt for PanickySet {
    type Update = SetUpdate<u32>;
    type QueryIn = SetQuery;
    type QueryOut = BTreeSet<u32>;
    type State = BTreeSet<u32>;

    fn initial(&self) -> Self::State {
        self.inner.initial()
    }

    fn apply(&self, state: &mut Self::State, update: &Self::Update) {
        if let SetUpdate::Insert(e) = update {
            assert!(*e != self.pill, "poison pill folded");
        }
        self.inner.apply(state, update);
    }

    fn observe(&self, state: &Self::State, query: &Self::QueryIn) -> Self::QueryOut {
        self.inner.observe(state, query)
    }
}

/// A remote producer's keyed burst: `count` inserts spread over `keys`
/// keys, elements `0..count`.
fn burst<A>(adt: A, keys: u64, count: u32) -> Vec<StoreMsg<SetUpdate<u32>>>
where
    A: UqAdt<Update = SetUpdate<u32>> + Clone,
{
    let mut producer = UcStore::new(adt, 1, 1, CheckpointFactory { every: 4 });
    (0..count)
        .map(|i| producer.update(u64::from(i) % keys, SetUpdate::Insert(i)))
        .collect()
}

#[test]
fn drop_while_queued_drains_fully() {
    // Submit many small bursts and drop the handle immediately: the
    // workers must fold every queued update before exiting — nothing
    // in a queue may be discarded.
    let adt = JournaledSet::new();
    let journal = Arc::clone(&adt.journal);
    let msgs = burst(adt.clone(), 7, 400);
    let pool_adt = JournaledSet {
        inner: SetAdt::new(),
        journal: Arc::clone(&adt.journal),
        applies: Arc::clone(&adt.applies),
    };
    journal.lock().unwrap().clear(); // forget the producer's folds
    let mut pool =
        UcStore::new(pool_adt, 0, 4, CheckpointFactory { every: 4 }).into_pool(PoolConfig {
            workers: 2,
            queue_depth: 256,
        });
    for chunk in msgs.chunks(3) {
        pool.submit_batch(chunk.to_vec()).unwrap();
    }
    drop(pool); // no flush, no finish — drop alone must drain
    let folded = journal.lock().unwrap().clone();
    let expect: BTreeSet<u32> = (0..400).collect();
    assert_eq!(folded, expect, "drop discarded queued updates");
}

#[test]
fn flush_barrier_observes_all_prior_submissions() {
    let adt = JournaledSet::new();
    let journal = Arc::clone(&adt.journal);
    let msgs = burst(adt.clone(), 5, 200);
    let pool_adt = JournaledSet {
        inner: SetAdt::new(),
        journal: Arc::clone(&adt.journal),
        applies: Arc::clone(&adt.applies),
    };
    journal.lock().unwrap().clear();
    let mut pool =
        UcStore::new(pool_adt, 0, 4, CheckpointFactory { every: 4 }).into_pool(PoolConfig {
            workers: 3,
            queue_depth: 64,
        });
    for chunk in msgs.chunks(9) {
        pool.submit_batch(chunk.to_vec()).unwrap();
    }
    pool.flush().unwrap();
    // The barrier has acked: every prior submission is applied *now*,
    // while the pool is still running.
    let folded = journal.lock().unwrap().clone();
    let expect: BTreeSet<u32> = (0..200).collect();
    assert_eq!(folded, expect, "flush acked before prior work finished");
    // And the pool is still usable afterwards.
    let q = pool.query(0, &SetQuery::Read).unwrap();
    assert!(!q.is_empty());
    pool.finish().unwrap();
}

#[test]
fn panicking_fold_poisons_with_clear_error_not_deadlock() {
    let adt = PanickySet {
        inner: SetAdt::new(),
        pill: u32::MAX,
    };
    // Producer never folds the pill (its ADT has a different pill).
    let safe = PanickySet {
        inner: SetAdt::new(),
        pill: 0xDEAD_BEEF,
    };
    let mut producer = UcStore::new(safe, 1, 1, CheckpointFactory { every: 4 });
    let mut msgs: Vec<_> = (0..40u32)
        .map(|i| producer.update(u64::from(i) % 3, SetUpdate::Insert(i)))
        .collect();
    msgs.push(producer.update(1, SetUpdate::Insert(u32::MAX))); // the pill
    let mut pool = UcStore::new(adt, 0, 2, CheckpointFactory { every: 4 }).into_pool(PoolConfig {
        workers: 2,
        queue_depth: 64,
    });
    pool.submit_batch(msgs).unwrap();
    // The worker owning the pill's shard dies mid-fold. The flush
    // barrier must surface that as an error — not hang waiting for an
    // ack that will never come.
    let err = pool.flush().expect_err("poisoned pool must fail the flush");
    assert!(
        err.to_string().contains("poison pill folded"),
        "error must carry the panic message, got: {err}"
    );
    // Every subsequent operation fails fast with the same diagnosis.
    let err2 = pool
        .submit_batch(vec![producer.update(1, SetUpdate::Insert(7))])
        .expect_err("poisoned pool must reject new submissions");
    assert!(err2.to_string().contains("ingest pool poisoned"));
    let err3 = pool
        .finish()
        .expect_err("finish must refuse corrupt shards");
    assert!(err3.to_string().contains("poison pill folded"));
}

/// A job is a call into the worker's shard set, and the channel its
/// answer goes back through lives inside the call: a call that panics
/// must still release its caller. Under `GcFactory` with no peer
/// heartbeat nothing stabilizes, so a local update of the pill is only
/// logged (the update returns `Ok`), and the pill is first folded
/// inside the strong query's call. The query fails instead of hanging,
/// and so does every later call, each with the panic's message.
#[test]
fn a_panicking_call_releases_its_caller() {
    let adt = PanickySet {
        inner: SetAdt::new(),
        pill: 7,
    };
    let store = UcStore::new(adt, 0, 2, GcFactory { n: 2 });
    let mut pool = store.into_pool(PoolConfig {
        workers: 2,
        queue_depth: 8,
    });
    pool.update(3, SetUpdate::Insert(7))
        .expect("the pill is logged, not folded");
    let pill = |what: &str, err: String| {
        assert!(
            err.contains("poison pill folded"),
            "{what} must carry the panic message, got: {err}"
        );
    };
    let err = pool
        .query(3, &SetQuery::Read)
        .expect_err("the query folds the pill");
    pill("the query", err.to_string());
    pill("flush", pool.flush().expect_err("poisoned").to_string());
    let health = pool.health();
    assert_eq!(health.status, HealthStatus::Poisoned);
    pill("health", health.poisoned.expect("a poison report"));
    pill(
        "peer_down",
        pool.peer_down(1).expect_err("poisoned").to_string(),
    );
    // The digest read goes to every worker and waits for all of them.
    pill(
        "peer_up",
        pool.peer_up(1).expect_err("poisoned").to_string(),
    );
}

#[test]
fn healthy_shards_survive_until_finish_even_under_load() {
    // Sanity companion to the poisoning test: with no pill in the
    // stream, the same configuration finishes cleanly and the
    // reassembled store holds every update.
    let adt = PanickySet {
        inner: SetAdt::new(),
        pill: u32::MAX,
    };
    let mut producer = UcStore::new(adt.clone(), 1, 1, CheckpointFactory { every: 4 });
    let msgs: Vec<_> = (0..60u32)
        .map(|i| producer.update(u64::from(i) % 5, SetUpdate::Insert(i)))
        .collect();
    let mut pool = UcStore::new(adt, 0, 2, CheckpointFactory { every: 4 }).into_pool(PoolConfig {
        workers: 2,
        queue_depth: 8,
    });
    for chunk in msgs.chunks(11) {
        pool.submit_batch(chunk.to_vec()).unwrap();
    }
    let mut store = pool.finish().unwrap();
    let total: usize = store
        .keys()
        .into_iter()
        .map(|k| store.materialize_key(k).len())
        .sum();
    assert_eq!(total, 60);
}

/// Differential under forced preemption: a second handle never lets
/// the one worker's inbox run empty, so every multi-key publication
/// pass is suspended for ingest again and again. The barriers still
/// mean what they say: after each `flush()` — and after each cut
/// barrier, which must cover as much — every key the bursts touched
/// reads, through the published snapshots, exactly what a sequential
/// store holds; and the barriers return although the producer never
/// pauses.
#[test]
fn barriers_cover_every_submission_while_a_producer_keeps_the_inbox_busy() {
    const BURST_KEYS: u64 = 192;
    const PRODUCER_KEYS: u64 = 4;
    let factory = CheckpointFactory { every: 8 };
    let mut seq = UcStore::new(SetAdt::<u32>::new(), 0, 4, factory);
    let mut pool = UcStore::new(SetAdt::<u32>::new(), 0, 4, factory).into_pool(PoolConfig {
        workers: 1,
        queue_depth: 16,
    });
    let stop = Arc::new(AtomicBool::new(false));
    let producer = {
        let handle = pool.handle();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut sent = Vec::new();
            for i in 0u64.. {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let key = BURST_KEYS + i % PRODUCER_KEYS;
                sent.push(
                    handle
                        .update(key, SetUpdate::Insert(i as u32 % 64))
                        .unwrap(),
                );
            }
            sent
        })
    };

    let mut remote = UcStore::new(SetAdt::<u32>::new(), 1, 1, factory);
    let yields = |pool: &uc_core::IngestPool<SetAdt<u32>, CheckpointFactory>| -> u64 {
        pool.stats().workers.iter().map(|w| w.publish_yields).sum()
    };
    let mut round = 0u32;
    // Keep going until the schedule has provably preempted a pass (a
    // couple of rounds in practice; the cap only bounds a failure).
    while round < 24 || (yields(&pool) == 0 && round < 2_000) {
        let msgs: Vec<_> = (0..2 * BURST_KEYS)
            .map(|i| remote.update(i % BURST_KEYS, SetUpdate::Insert(round % 16)))
            .collect();
        seq.apply_batch_owned(msgs.clone());
        pool.submit_batch(msgs).unwrap();
        // Arms every shard on the first round (the flush backfills).
        for key in 0..BURST_KEYS {
            let _ = pool.query_snapshot(key, &SetQuery::Read);
        }
        let cut = if round.is_multiple_of(2) {
            pool.flush().unwrap();
            None
        } else {
            let clock = pool.clock();
            Some(pool.snapshot_at(clock).expect("a full log answers any cut"))
        };
        // No key's published state is left behind a barrier or a cut.
        for key in 0..BURST_KEYS {
            let expected = seq.materialize_key(key);
            let out = pool.query_snapshot(key, &SetQuery::Read);
            assert_eq!(out, expected, "round {round}, key {key}: published");
            if let Some(cut) = &cut {
                assert_eq!(
                    cut.state(key),
                    Some(&expected),
                    "round {round}, key {key}: cut"
                );
            }
        }
        round += 1;
    }
    assert!(
        yields(&pool) > 0,
        "no publication pass was ever suspended in {round} rounds: the \
         producer did not preempt and this test checked nothing new"
    );

    stop.store(true, Ordering::SeqCst);
    let sent = producer.join().unwrap();
    assert!(!sent.is_empty());
    seq.apply_batch_owned(sent);
    pool.flush().unwrap();
    let stats = pool.stats();
    assert!(stats.workers.iter().all(|w| w.publish_backlog == 0));
    let reader = pool.handle();
    let mut pooled = pool.finish().unwrap();
    for key in 0..BURST_KEYS + PRODUCER_KEYS {
        let expected = seq.materialize_key(key);
        assert_eq!(pooled.materialize_key(key), expected, "key {key}: store");
        assert_eq!(
            reader.query_snapshot(key, &SetQuery::Read),
            expected,
            "key {key}: published"
        );
    }
}

/// Under [`GcFactory`] a key's published state is the strategy's kept
/// fold itself, two buffers taking turns: readers hammer a handful of
/// hot keys while bursts, ticks and flushes keep the buffers turning.
/// Each hot key only ever receives `Insert(0), Insert(1), …` in
/// timestamp order, so the state after any prefix of its updates is
/// `{0, …, m - 1}` — whatever a reader sees must be one of those (a
/// buffer written under a reader, or one that skipped what it owed,
/// shows a hole), the same epoch must read the same, and epochs and
/// prefixes only move forward.
#[test]
fn snapshot_readers_see_prefixes_while_the_published_buffers_rotate() {
    const HOT: u64 = 4;
    const PER_KEY: u32 = 3;
    const ROUNDS: u32 = 300;
    let factory = GcFactory { n: 2 };
    let store = || UcStore::new(SetAdt::<u32>::new(), 0, 2, factory);
    let mut seq = store();
    let mut pool = store().into_pool(PoolConfig {
        workers: 2,
        queue_depth: 16,
    });
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let handle = pool.handle();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut last = [(0u64, 0usize); HOT as usize];
                let mut reads = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    for key in 0..HOT {
                        let (epoch, out) = handle.query_snapshot_versioned(key, &SetQuery::Read);
                        assert!(
                            out.iter().copied().eq(0..out.len() as u32),
                            "key {key}, epoch {epoch}: not a prefix: {out:?}"
                        );
                        let (seen_epoch, seen_len) = last[key as usize];
                        assert!(epoch >= seen_epoch, "key {key}: epoch went backwards");
                        if epoch == seen_epoch {
                            assert_eq!(out.len(), seen_len, "key {key}: epoch {epoch} changed");
                        } else {
                            assert!(out.len() >= seen_len, "key {key}: prefix went backwards");
                        }
                        last[key as usize] = (epoch, out.len());
                        reads += 1;
                    }
                }
                reads
            })
        })
        .collect();

    let mut remote = UcStore::new(SetAdt::<u32>::new(), 1, 1, factory);
    for round in 0..ROUNDS {
        let mut msgs = Vec::new();
        for i in 0..PER_KEY {
            for key in 0..HOT {
                msgs.push(remote.update(key, SetUpdate::Insert(round * PER_KEY + i)));
            }
        }
        msgs.push(remote.heartbeat());
        seq.apply_batch_owned(msgs.clone());
        pool.submit_batch(msgs).unwrap();
        // A local write elsewhere and the tick move our own clock, so
        // the burst compacts under the published fold.
        let local = pool
            .update(HOT + u64::from(round) % 8, SetUpdate::Insert(round))
            .unwrap();
        seq.apply_batch_owned(vec![local]);
        pool.tick_maintenance().unwrap();
        if round % 4 == 3 {
            pool.flush().unwrap();
        }
    }
    pool.flush().unwrap();
    stop.store(true, Ordering::SeqCst);
    for r in readers {
        assert!(r.join().unwrap() > 0);
    }
    let stats = pool.stats();
    assert!(stats.total_snapshots_published() >= u64::from(ROUNDS / 4) * HOT);
    assert!(stats.total_snapshot_copies() <= stats.total_snapshots_published());
    let reader = pool.handle();
    let mut pooled = pool.finish().unwrap();
    for key in 0..HOT + 8 {
        let expected = seq.materialize_key(key);
        assert_eq!(pooled.materialize_key(key), expected, "key {key}: store");
        assert_eq!(
            reader.query_snapshot(key, &SetQuery::Read),
            expected,
            "key {key}: published"
        );
    }
    assert_eq!(seq.materialize_key(0).len() as u32, ROUNDS * PER_KEY);
}
