//! Lifecycle edges of the persistent shard-worker ingest pool:
//! drain-on-drop, flush barriers, panic poisoning (a panicking
//! burst, and a pill first folded in a call, a publication pass or an
//! arming backfill), a producer parked on a full inbox while its
//! worker dies or the pool finishes, and a handle racing the close.
//!
//! The observability trick: instrumented UQ-ADTs whose transition
//! function reports into shared state (an `Arc`), so a test can see
//! exactly which updates a worker folded even after the pool (and the
//! store inside it) is gone. Instrumentation lives in the ADT, not
//! the pool — the pool under test is the production code path.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use uc_core::{CheckpointFactory, GcFactory, IngestPool, PoolConfig, PoolError, StoreMsg, UcStore};
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
    // The worker owning the pill's shard dies mid-fold. The first call
    // to meet the poison must surface it, not hang waiting for an ack
    // that will never come: the flush barrier, or the burst's own
    // submission when the worker folds the pill before the burst's
    // stamps are broadcast behind it (the poison is checked before
    // every push).
    let err = pool
        .submit_batch(msgs)
        .and_then(|()| pool.flush())
        .expect_err("poisoned pool must fail the burst or the flush");
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

type PillPool = IngestPool<PanickySet, GcFactory>;

/// What a case does to the pool up to the pill's first fold.
type Lead = fn(&mut PillPool);

/// Run `op` on `input` on a thread of its own and give it 10 s, so a
/// caller left waiting fails the test instead of hanging it. A panic
/// in `op` is passed on as it is.
fn watched<I, T>(what: &str, input: I, op: impl FnOnce(I) -> T + Send + 'static) -> T
where
    I: Send + 'static,
    T: Send + 'static,
{
    let (done, result) = mpsc::channel();
    let thread = std::thread::spawn(move || {
        let _ = done.send(op(input));
    });
    match result.recv_timeout(Duration::from_secs(10)) {
        Ok(out) => {
            thread.join().expect("the thread sent its answer");
            out
        }
        Err(RecvTimeoutError::Timeout) => panic!("{what} still waiting after 10 s"),
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(thread.join().expect_err("no answer: it panicked"))
        }
    }
}

fn pill(what: &str, err: impl ToString) {
    let err = err.to_string();
    assert!(
        err.contains("poison pill folded"),
        "{what} must carry the panic message, got: {err}"
    );
}

/// A worker fails in one place, wherever it first folds the pill: in a
/// call, in the publication pass after a batch, or in the arming
/// backfill before a fence. Under `GcFactory` with no peer heartbeat
/// nothing stabilizes, so a local update of the pill is only logged
/// (the update returns `Ok`), and each case's lead picks the fold. The
/// call that folds it fails instead of hanging, and so does every later
/// call, each with the panic's message; `finish` refuses the shards.
#[test]
fn a_panicking_call_releases_its_caller() {
    let cases: [(&str, Lead); 3] = [
        ("a strong call", |pool| {
            pool.update(3, SetUpdate::Insert(7))
                .expect("the pill is logged, not folded");
            let err = pool
                .query(3, &SetQuery::Read)
                .expect_err("the query folds the pill");
            pill("the query", err);
        }),
        ("a publication pass after a batch", |pool| {
            pool.query_snapshot(3, &SetQuery::Read);
            pool.update(3, SetUpdate::Insert(1)).unwrap();
            pool.flush().expect("no pill yet");
            pool.update(3, SetUpdate::Insert(7))
                .expect("the pill is logged, not folded");
        }),
        ("an arming backfill", |pool| {
            pool.update(3, SetUpdate::Insert(7))
                .expect("the pill is logged, not folded");
            pool.flush().expect("nothing armed, nothing published");
            pool.query_snapshot(3, &SetQuery::Read);
        }),
    ];
    for (case, lead) in cases {
        let adt = PanickySet {
            inner: SetAdt::new(),
            pill: 7,
        };
        let pool = UcStore::new(adt, 0, 2, GcFactory { n: 2 }).into_pool(PoolConfig {
            workers: 2,
            queue_depth: 8,
        });
        let pool = watched(case, pool, move |mut pool| {
            lead(&mut pool);
            pool
        });
        let (pool, flushed) = watched(&format!("{case}: flush"), pool, |mut pool| {
            let flushed = pool.flush();
            (pool, flushed)
        });
        pill(&format!("{case}: flush"), flushed.expect_err("poisoned"));
        let (pool, health) = watched(&format!("{case}: health"), pool, |pool| {
            let health = pool.health();
            (pool, health)
        });
        assert_eq!(health.status, HealthStatus::Poisoned, "{case}");
        pill(
            &format!("{case}: health"),
            health.poisoned.expect("a poison report"),
        );
        let pool = watched(&format!("{case}: peer_down"), pool, move |mut pool| {
            let err = pool.peer_down(1).expect_err("poisoned");
            pill(&format!("{case}: peer_down"), err);
            pool
        });
        // The digest read goes to every worker and waits for all of them.
        let pool = watched(&format!("{case}: peer_up"), pool, move |mut pool| {
            let err = pool.peer_up(1).expect_err("poisoned");
            pill(&format!("{case}: peer_up"), err);
            pool
        });
        let finished = watched(&format!("{case}: finish"), pool, |pool| {
            pool.finish().map(drop)
        });
        pill(&format!("{case}: finish"), finished.expect_err("poisoned"));
    }
}

/// A set ADT whose fold of one element holds the folding thread until
/// the test lets it go, and then panics if told to: a worker held in a
/// call, with its inbox left to fill behind it.
#[derive(Clone, Debug)]
struct GatedSet {
    inner: SetAdt<u32>,
    gate: u32,
    panics: bool,
    held: Arc<AtomicBool>,
    release: Arc<AtomicBool>,
}

impl GatedSet {
    fn new(gate: u32, panics: bool) -> Self {
        GatedSet {
            inner: SetAdt::new(),
            gate,
            panics,
            held: Arc::new(AtomicBool::new(false)),
            release: Arc::new(AtomicBool::new(false)),
        }
    }
}

impl UqAdt for GatedSet {
    type Update = SetUpdate<u32>;
    type QueryIn = SetQuery;
    type QueryOut = BTreeSet<u32>;
    type State = BTreeSet<u32>;

    fn initial(&self) -> Self::State {
        self.inner.initial()
    }

    fn apply(&self, state: &mut Self::State, update: &Self::Update) {
        if *update == SetUpdate::Insert(self.gate) {
            self.held.store(true, Ordering::SeqCst);
            while !self.release.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            assert!(!self.panics, "poison pill folded");
        }
        self.inner.apply(state, update);
    }

    fn observe(&self, state: &Self::State, query: &Self::QueryIn) -> Self::QueryOut {
        self.inner.observe(state, query)
    }
}

type GatedPool = IngestPool<GatedSet, CheckpointFactory>;

/// A one-worker pool with a depth-1 inbox whose worker is held folding
/// the gate element, its inbox full behind it, and a peer update for a
/// producer to submit.
fn a_held_worker_with_a_full_inbox(
    panics: bool,
) -> (GatedPool, GatedSet, StoreMsg<SetUpdate<u32>>) {
    const GATE: u32 = 7;
    let adt = GatedSet::new(GATE, panics);
    let mut peer = UcStore::new(
        GatedSet::new(u32::MAX, false),
        1,
        1,
        CheckpointFactory { every: 4 },
    );
    let late = peer.update(4, SetUpdate::Insert(8));
    let mut pool =
        UcStore::new(adt.clone(), 0, 1, CheckpointFactory { every: 4 }).into_pool(PoolConfig {
            workers: 1,
            queue_depth: 1,
        });
    // One job each: the first holds the worker, the second fills the
    // one slot behind it.
    pool.update(3, SetUpdate::Insert(GATE)).unwrap();
    while !adt.held.load(Ordering::SeqCst) {
        std::thread::yield_now();
    }
    pool.update(5, SetUpdate::Insert(1)).unwrap();
    (pool, adt, late)
}

/// Wait until a producer has counted its job beside the held one and
/// the one queued behind it: it is parked on the full inbox, or about
/// to be.
fn await_a_parked_producer(pool: &GatedPool) {
    while pool.stats().max_queue_high_water() < 3 {
        std::thread::yield_now();
    }
}

/// A producer parked on a full inbox whose worker dies in the call it
/// is held in gets the panic, not a slot that never frees: the dying
/// worker drops its receiver before it waits out in-flight pushes.
#[test]
fn a_producer_parked_on_a_full_inbox_gets_its_workers_panic() {
    let (parked, finished) = watched("a producer parked on a full inbox", true, |panics| {
        let (pool, adt, late) = a_held_worker_with_a_full_inbox(panics);
        let handle = pool.handle();
        let producer = std::thread::spawn(move || handle.submit_batch(vec![late]));
        await_a_parked_producer(&pool);
        adt.release.store(true, Ordering::SeqCst);
        (producer.join().unwrap(), pool.finish().map(drop))
    });
    pill("the parked producer", parked.expect_err("poisoned"));
    pill("finish", finished.expect_err("poisoned"));
}

/// A producer parked on a full inbox while the owner finishes the pool
/// returns: its job was queued before the close and runs, or it meets
/// the close and is refused. The producer is a strong read, one job
/// whose answer says which.
///
/// The worker is released once the finisher thread is about to call
/// `finish`, plus 20 ms for it to reach the close gate and wait out the
/// parked push there. Nothing outside the gate shows that wait, so
/// that ordering is covered on a best-effort basis: on a loaded host
/// the close may come after the worker moves on, and the case then
/// checks a plain finish behind a full inbox.
#[test]
fn a_producer_parked_on_a_full_inbox_returns_when_the_pool_finishes() {
    let (answered, finished) = watched(
        "a producer parked on a full inbox while the pool finishes",
        false,
        |panics| {
            let (pool, adt, _) = a_held_worker_with_a_full_inbox(panics);
            let handle = pool.handle();
            let producer = std::thread::spawn(move || handle.query(3, &SetQuery::Read));
            await_a_parked_producer(&pool);
            let finishing = Arc::new(AtomicBool::new(false));
            let finisher = {
                let finishing = Arc::clone(&finishing);
                std::thread::spawn(move || {
                    finishing.store(true, Ordering::SeqCst);
                    pool.finish()
                })
            };
            while !finishing.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            std::thread::sleep(Duration::from_millis(20));
            adt.release.store(true, Ordering::SeqCst);
            (producer.join().unwrap(), finisher.join().unwrap())
        },
    );
    let mut store = finished.expect("no worker panicked");
    assert_eq!(store.materialize_key(3), BTreeSet::from([7]));
    match answered {
        Ok(read) => assert_eq!(read, BTreeSet::from([7])),
        Err(e) => assert!(e.to_string().contains("closed"), "refused: {e}"),
    }
}

/// A handle thread that keeps submitting and reading while the owner
/// finishes, or drops, the pool, and on until that returns, is answered
/// or refused as closed on every call, never left waiting; the workers
/// exit although refused pushes keep meeting their closed inboxes. The
/// finished store holds every burst the handle was told was accepted,
/// and perhaps some it was refused: a burst is an ingest job and then
/// a call to every worker, so a close between the two refuses a burst
/// whose job runs. Once the close is over, every call is refused.
#[test]
fn a_handle_racing_the_close_is_answered_or_refused() {
    fn closed(err: PoolError) {
        assert!(err.to_string().contains("closed"), "{err}");
    }
    for finish in [true, false] {
        watched("a handle racing the close", finish, |finish| {
            let adt = SetAdt::<u32>::new();
            let mut pool =
                UcStore::new(adt, 0, 4, CheckpointFactory { every: 4 }).into_pool(PoolConfig {
                    workers: 2,
                    queue_depth: 2,
                });
            let handle = pool.handle();
            let racing = Arc::new(AtomicBool::new(false));
            let over = Arc::new(AtomicBool::new(false));
            let racer = {
                let (racing, over) = (Arc::clone(&racing), Arc::clone(&over));
                std::thread::spawn(move || {
                    let mut producer = UcStore::new(adt, 1, 1, CheckpointFactory { every: 4 });
                    let (mut accepted, mut refused) = (BTreeSet::new(), BTreeSet::new());
                    for i in 0u32.. {
                        let key = u64::from(i % 8);
                        let msg = producer.update(key, SetUpdate::Insert(i));
                        match handle.submit_batch(vec![msg]) {
                            Ok(()) => accepted.insert(i),
                            Err(e) => {
                                closed(e);
                                refused.insert(i)
                            }
                        };
                        racing.store(true, Ordering::SeqCst);
                        if let Err(e) = handle.query(key, &SetQuery::Read) {
                            closed(e);
                        }
                        if over.load(Ordering::SeqCst) {
                            break;
                        }
                    }
                    closed(
                        handle
                            .query(0, &SetQuery::Read)
                            .expect_err("after the close"),
                    );
                    closed(handle.flush().expect_err("after the close"));
                    let late = producer.update(0, SetUpdate::Insert(u32::MAX - 1));
                    closed(
                        handle
                            .submit_batch(vec![late])
                            .expect_err("after the close"),
                    );
                    (accepted, refused)
                })
            };
            while !racing.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            pool.update(100, SetUpdate::Insert(u32::MAX)).unwrap();
            let store = if finish {
                Some(pool.finish().unwrap())
            } else {
                drop(pool);
                None
            };
            over.store(true, Ordering::SeqCst);
            let (accepted, refused) = racer.join().unwrap();
            if let Some(mut store) = store {
                let held: BTreeSet<u32> = (0..8).flat_map(|k| store.materialize_key(k)).collect();
                assert!(accepted.is_subset(&held), "{accepted:?} ⊄ {held:?}");
                assert!(held
                    .iter()
                    .all(|e| accepted.contains(e) || refused.contains(e)));
                assert_eq!(store.materialize_key(100), BTreeSet::from([u32::MAX]));
            }
        });
    }
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

/// Differential under forced preemption: a handle submitting a third
/// replica's frames never lets the one worker's inbox run empty, so
/// every multi-key publication pass is suspended for ingest again and
/// again. The barriers still
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
    // A third replica's frames, one burst each, submitted through a
    // handle on another thread.
    let producer = {
        let handle = pool.handle();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut third = UcStore::new(SetAdt::<u32>::new(), 2, 1, factory);
            let mut sent = Vec::new();
            for i in 0u64.. {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let key = BURST_KEYS + i % PRODUCER_KEYS;
                let msg = third.update(key, SetUpdate::Insert(i as u32 % 64));
                handle.submit_batch(vec![msg.clone()]).unwrap();
                sent.push(msg);
            }
            sent
        })
    };

    let mut remote = UcStore::new(SetAdt::<u32>::new(), 1, 1, factory);
    let yields = |pool: &IngestPool<SetAdt<u32>, CheckpointFactory>| -> u64 {
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

/// A store that comes back from a pool lists nothing for publication,
/// however much it is written inline, so the next pool it becomes
/// starts with nothing owed: its arming backfill publishes each key
/// once, and its published reads answer what its strong reads do.
#[test]
fn a_store_back_from_a_pool_owes_its_next_pool_no_publication() {
    const KEYS: u64 = 48;
    let cfg = PoolConfig {
        workers: 2,
        queue_depth: 8,
    };
    let mut pool =
        UcStore::new(SetAdt::<u32>::new(), 0, 4, CheckpointFactory { every: 4 }).into_pool(cfg);
    for key in 0..KEYS / 2 {
        pool.query_snapshot(key, &SetQuery::Read);
        pool.update(key, SetUpdate::Insert(1)).unwrap();
    }
    pool.flush().unwrap();
    for key in 0..KEYS / 2 {
        pool.update(key, SetUpdate::Insert(2)).unwrap();
    }
    let mut store = pool.finish().unwrap();
    for round in 0..8 {
        for key in 0..KEYS {
            store.update(key, SetUpdate::Insert(10 + round));
        }
    }
    let mut pool = store.into_pool(cfg);
    for key in 0..KEYS {
        pool.query_snapshot(key, &SetQuery::Read);
    }
    pool.flush().unwrap();
    let stats = pool.stats();
    assert_eq!(stats.total_snapshots_published(), KEYS, "one per key");
    assert!(stats.workers.iter().all(|w| w.publish_backlog == 0));
    for key in 0..KEYS {
        let strong = pool.query(key, &SetQuery::Read).unwrap();
        assert_eq!(strong.len(), 8 + if key < KEYS / 2 { 2 } else { 0 });
        assert_eq!(
            pool.query_snapshot(key, &SetQuery::Read),
            strong,
            "key {key}"
        );
    }
    pool.finish().unwrap();
}
