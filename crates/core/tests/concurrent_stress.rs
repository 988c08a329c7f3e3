//! Contended stress tests for the lock-free ingest path: the pool's
//! owner, the replica's one stamper, issues local updates, peer
//! heartbeats and maintenance ticks while M reader threads do
//! wait-free snapshot loads, under both store strategies and, through
//! the test-local factories in `common`, naive replay and undo/redo.
//!
//! Assertions:
//! * the finished pooled store equals a sequential store running the
//!   same operations in the same order — per-key states (and their
//!   digest), clock, and repair event/step counters;
//! * the owner's stamps rise in the order it issued them (the engine's
//!   `push_newest(...).expect(..)` would abort on one arriving late);
//! * no reader ever observes a key's snapshot epoch regress
//!   (monotonic reads for the epoch-published snapshots), while the
//!   heartbeats move the stability floor and compaction runs under
//!   the readers (under `GcFactory`);
//! * a reader's wait-free query returns while a worker is parked
//!   mid-repair (the acceptance criterion for non-blocking reads).
//!
//! Only the owner stamps: a replica is one sequential process, and a
//! second stamper could let the floor pass a stamp still on its way to
//! a worker (see the pool module docs).

mod common;

use common::{NaiveEngines, UndoEngines};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;
use uc_core::{
    state_digest, CheckpointFactory, GcFactory, PoolConfig, StoreMsg, StrategyFactory, UcStore,
};
use uc_spec::{SetAdt, SetQuery, SetUpdate, UqAdt};

const OPS: u64 = 1000;
const KEYS: u64 = 20;
/// Stamps between the peer's heartbeats, each followed by a tick.
const HEARTBEAT_EVERY: u64 = 16;
const READERS: usize = 2;
const SHARDS: usize = 8;

/// Run the contended schedule; the pooled store's retained log length.
fn contended_pool_matches_sequential<F>(factory: F) -> usize
where
    F: StrategyFactory<SetAdt<u32>> + Send + Sync + 'static,
    F::Strategy: Send + 'static,
{
    let cfg = PoolConfig {
        workers: 2,
        queue_depth: 16,
    };
    let mut pool = UcStore::new(SetAdt::<u32>::new(), 0, SHARDS, factory.clone()).into_pool(cfg);
    let mut reference = UcStore::new(SetAdt::<u32>::new(), 0, SHARDS, factory);

    // Readers: hammer wait-free snapshot loads over every key while
    // the owner stamps, asserting per-key epoch monotonicity. Each
    // reports its first full pass, so a reader the scheduler started
    // late is not stopped before it has loaded anything.
    let stop = Arc::new(AtomicBool::new(false));
    let (passed, first_passes) = mpsc::channel();
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let h = pool.handle();
            let stop = Arc::clone(&stop);
            let passed = passed.clone();
            std::thread::spawn(move || {
                let mut last: BTreeMap<u64, u64> = BTreeMap::new();
                let mut loads = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for key in 0..KEYS {
                        let (epoch, _) = h.query_snapshot_versioned(key, &SetQuery::Read);
                        let prev = last.entry(key).or_insert(0);
                        assert!(
                            epoch >= *prev,
                            "key {key}: snapshot epoch regressed {} -> {epoch}",
                            *prev
                        );
                        *prev = epoch;
                        loads += 1;
                    }
                    if loads == KEYS {
                        let _ = passed.send(());
                    }
                }
                loads
            })
        })
        .collect();

    // The owner: local updates, and every `HEARTBEAT_EVERY` of them
    // the peer's heartbeat at the owner's clock and a tick, so the
    // floor passes what was stamped and the logs compact. The
    // sequential store runs the same operations in the same order.
    let mut stamps = Vec::new();
    for i in 0..OPS {
        let (key, u) = (i % KEYS, SetUpdate::Insert(i as u32));
        match pool.update(key, u).unwrap() {
            StoreMsg::Update { msg, .. } => stamps.push(msg.ts),
            other => panic!("an update returns an update message, got {other:?}"),
        }
        reference.update(key, u);
        if i % HEARTBEAT_EVERY == HEARTBEAT_EVERY - 1 {
            let heartbeat = StoreMsg::Heartbeat {
                pid: 1,
                clock: pool.clock(),
            };
            pool.submit_batch(vec![heartbeat.clone()]).unwrap();
            pool.tick_maintenance().unwrap();
            let Ok(_) = reference.apply_message_from(1, heartbeat);
            reference.tick_maintenance();
        }
    }
    pool.flush().unwrap();
    // A reader that cannot finish one pass in ten seconds is stuck,
    // and the progress assertion below names it.
    for _ in 0..READERS {
        let _ = first_passes.recv_timeout(Duration::from_secs(10));
    }
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        assert!(r.join().unwrap() > 0, "readers must have made progress");
    }
    assert!(
        stamps.windows(2).all(|w| w[0] < w[1]),
        "the owner's stamps left program order"
    );

    let mut pooled = pool.finish().unwrap();
    assert_eq!(pooled.clock(), reference.clock(), "clock mismatch");
    assert_eq!(pooled.clock(), OPS);
    assert_eq!(
        pooled.total_repair_events(),
        reference.total_repair_events(),
        "repair event mismatch"
    );
    assert_eq!(
        pooled.total_repair_steps(),
        reference.total_repair_steps(),
        "repair step mismatch"
    );
    assert_eq!(pooled.keys(), reference.keys());
    let pooled_states: BTreeMap<u64, _> = pooled
        .keys()
        .into_iter()
        .map(|k| (k, pooled.materialize_key(k)))
        .collect();
    let reference_states: BTreeMap<u64, _> = reference
        .keys()
        .into_iter()
        .map(|k| (k, reference.materialize_key(k)))
        .collect();
    assert_eq!(pooled_states, reference_states);
    assert_eq!(
        state_digest(&pooled_states),
        state_digest(&reference_states)
    );
    assert_eq!(pooled.total_log_len(), reference.total_log_len());
    pooled.total_log_len()
}

#[test]
fn contended_naive_matches_sequential() {
    contended_pool_matches_sequential(NaiveEngines);
}

#[test]
fn contended_checkpoint_matches_sequential() {
    contended_pool_matches_sequential(CheckpointFactory { every: 4 });
}

#[test]
fn contended_undo_matches_sequential() {
    contended_pool_matches_sequential(UndoEngines);
}

#[test]
fn contended_gc_matches_sequential() {
    let retained = contended_pool_matches_sequential(GcFactory { n: 2 });
    assert!(retained < OPS as usize, "nothing compacted: {retained}");
}

/// A set ADT whose fold parks on a gate when it applies the sentinel
/// value: lets a test freeze a worker *mid-repair* deterministically.
#[derive(Clone)]
struct GatedSet {
    gate: Arc<GateInner>,
}

struct GateInner {
    /// Folding the sentinel blocks until this flips true.
    open: Mutex<bool>,
    cv: std::sync::Condvar,
    /// Signals the moment a fold reached the gate.
    reached: mpsc::Sender<()>,
}

const GATE_SENTINEL: u32 = u32::MAX;

impl GatedSet {
    fn new() -> (Self, mpsc::Receiver<()>) {
        let (reached, entered) = mpsc::channel();
        (
            GatedSet {
                gate: Arc::new(GateInner {
                    open: Mutex::new(false),
                    cv: std::sync::Condvar::new(),
                    reached,
                }),
            },
            entered,
        )
    }

    fn open(&self) {
        *self.gate.open.lock().unwrap() = true;
        self.gate.cv.notify_all();
    }
}

impl UqAdt for GatedSet {
    type Update = SetUpdate<u32>;
    type QueryIn = SetQuery;
    type QueryOut = std::collections::BTreeSet<u32>;
    type State = std::collections::BTreeSet<u32>;

    fn initial(&self) -> Self::State {
        std::collections::BTreeSet::new()
    }

    fn apply(&self, state: &mut Self::State, update: &Self::Update) {
        if let SetUpdate::Insert(GATE_SENTINEL) = update {
            let _ = self.gate.reached.send(());
            let mut open = self.gate.open.lock().unwrap();
            while !*open {
                open = self.gate.cv.wait(open).unwrap();
            }
        }
        let inner = SetAdt::<u32>::new();
        inner.apply(state, update);
    }

    fn observe(&self, state: &Self::State, query: &Self::QueryIn) -> Self::QueryOut {
        SetAdt::<u32>::new().observe(state, query)
    }
}

/// Acceptance: a reader's wait-free snapshot query completes while
/// the worker owning the key is parked inside a repair fold. With the
/// old blocking round-trip the read below would deadlock (the worker
/// can't reach the query job while stuck in the fold).
#[test]
fn snapshot_query_returns_while_repair_is_parked() {
    let (adt, entered) = GatedSet::new();
    let mut pool =
        UcStore::new(adt.clone(), 0, 1, CheckpointFactory { every: 4 }).into_pool(PoolConfig {
            workers: 1,
            queue_depth: 16,
        });
    let reader = pool.handle();

    // Arm snapshots and publish a first state for key 7.
    assert_eq!(
        reader.query_snapshot(7, &SetQuery::Read),
        std::collections::BTreeSet::new()
    );
    pool.update(7, SetUpdate::Insert(1)).unwrap();
    pool.flush().unwrap();
    let (epoch_before, seen) = reader.query_snapshot_versioned(7, &SetQuery::Read);
    assert_eq!(seen, std::collections::BTreeSet::from([1]));
    assert!(epoch_before > 0);

    // Park the worker mid-fold: the sentinel insert blocks inside
    // `apply` until the gate opens.
    pool.update(7, SetUpdate::Insert(GATE_SENTINEL)).unwrap();
    entered
        .recv_timeout(Duration::from_secs(10))
        .expect("worker reached the gated fold");

    // The worker is provably parked inside a repair. A wait-free read
    // on another thread must still return (the old round-trip query
    // would hang here, so run it with a deadline).
    let (tx, rx) = mpsc::channel();
    let h = reader.clone();
    std::thread::spawn(move || {
        let out = h.query_snapshot(7, &SetQuery::Read);
        let _ = tx.send(out);
    });
    let out = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("snapshot query must not block behind the parked repair");
    assert_eq!(
        out,
        std::collections::BTreeSet::from([1]),
        "reader sees the last published state, not the in-flight fold"
    );

    // Release the worker; the new state (including the sentinel)
    // publishes on the next drain.
    adt.open();
    pool.flush().unwrap();
    let (epoch_after, after) = reader.query_snapshot_versioned(7, &SetQuery::Read);
    assert!(epoch_after > epoch_before, "post-repair state republished");
    assert_eq!(after, std::collections::BTreeSet::from([1, GATE_SENTINEL]));
    pool.finish().unwrap();
}
