//! Contended stress tests for the lock-free ingest path: N producer
//! threads stamping through cloned [`PoolHandle`]s × M reader threads
//! doing wait-free snapshot loads, under both store strategies and,
//! through the test-local factories in `common`, naive replay and
//! undo/redo.
//!
//! Assertions:
//! * the finished pooled store equals a sequential reference that
//!   ingests the same broadcast messages in timestamp order — per-key
//!   states (and their digest), clock, and repair event/step counters;
//! * every concurrent stamp is unique (the engine's
//!   `push_newest(...).expect(..)` would abort on a duplicate);
//! * no reader ever observes a key's snapshot epoch regress
//!   (monotonic reads for the epoch-published snapshots);
//! * a reader's wait-free query returns while a worker is parked
//!   mid-repair (the acceptance criterion for non-blocking reads).
//!
//! Producers stamp **disjoint key ranges**: the GC strategy's
//! stability bookkeeping assumes per-sender FIFO delivery per key,
//! and two handles racing updates to one key through the shared clock
//! would violate that precondition (see the pool module docs).

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

const PRODUCERS: u64 = 4;
const OPS_PER_PRODUCER: u64 = 250;
const KEYS_PER_PRODUCER: u64 = 5;
const READERS: usize = 2;
const SHARDS: usize = 8;

fn contended_pool_matches_sequential<F>(factory: F)
where
    F: StrategyFactory<SetAdt<u32>> + Send + Sync + 'static,
    F::Strategy: Send + 'static,
{
    let cfg = PoolConfig {
        workers: 2,
        queue_depth: 16,
    };
    let pool = UcStore::new(SetAdt::<u32>::new(), 0, SHARDS, factory.clone()).into_pool(cfg);

    // Readers: hammer wait-free snapshot loads over every key while
    // the producers stamp, asserting per-key epoch monotonicity.
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let h = pool.handle();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let total_keys = PRODUCERS * KEYS_PER_PRODUCER;
                let mut last: BTreeMap<u64, u64> = BTreeMap::new();
                let mut loads = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for key in 0..total_keys {
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
                }
                loads
            })
        })
        .collect();

    // Producers: disjoint key ranges, every handle stamping through
    // the one shared atomic clock.
    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let h = pool.handle();
            std::thread::spawn(move || {
                let mut msgs = Vec::new();
                for i in 0..OPS_PER_PRODUCER {
                    let key = p * KEYS_PER_PRODUCER + (i % KEYS_PER_PRODUCER);
                    let value = (p * OPS_PER_PRODUCER + i) as u32;
                    msgs.push(h.update(key, SetUpdate::Insert(value)).unwrap());
                }
                msgs
            })
        })
        .collect();

    let mut msgs: Vec<StoreMsg<SetUpdate<u32>>> = Vec::new();
    for p in producers {
        msgs.extend(p.join().unwrap());
    }
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        assert!(r.join().unwrap() > 0, "readers must have made progress");
    }

    // Every concurrent stamp is unique.
    let mut stamps: Vec<_> = msgs
        .iter()
        .map(|m| match m {
            StoreMsg::Update { msg, .. } => msg.ts,
            other => panic!("producers only issue updates, got {other:?}"),
        })
        .collect();
    stamps.sort();
    let before = stamps.len();
    stamps.dedup();
    assert_eq!(stamps.len(), before, "duplicate concurrent stamps");

    let mut pooled = pool.finish().unwrap();

    // Sequential reference: same messages, delivered one at a time in
    // timestamp order — per key that is exactly the order each
    // producer issued them, which is also the order the pool's FIFO
    // inboxes applied them.
    let mut reference = UcStore::new(SetAdt::<u32>::new(), 0, SHARDS, factory);
    msgs.sort_by_key(|m| match m {
        StoreMsg::Update { msg, .. } => msg.ts,
        other => panic!("producers only issue updates, got {other:?}"),
    });
    for m in &msgs {
        reference.apply_batch_owned(vec![m.clone()]);
    }

    assert_eq!(pooled.clock(), reference.clock(), "clock mismatch");
    assert_eq!(pooled.clock(), PRODUCERS * OPS_PER_PRODUCER);
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
    contended_pool_matches_sequential(GcFactory { n: 2 });
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
