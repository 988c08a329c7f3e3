//! Crash-recovery integration tests: the whole stack (store → engine
//! → log → shard journal) killed and reopened.
//!
//! * a torn final record (the classic crash shape) is detected via
//!   CRC and dropped cleanly on reopen;
//! * reopening after `StableGc` compaction replays only the tail —
//!   `fold(base) + replay(tail)`, observable via `query_fold_steps`;
//! * the ingest pool's drain-on-drop flushes backends before joining
//!   its workers, so a dropped pool loses nothing that was queued;
//! * a heartbeat-only tick costs the keys holding un-compacted
//!   entries one small journal record each, not a file each, and the
//!   fully compacted keys nothing at all; a round that cannot raise
//!   the stability floor costs no key anything; a non-compacting
//!   strategy never earns its journal a rewrite;
//! * the pool's poison path flushes too: a panicking fold must never
//!   leave an unwritten journal buffer behind (regression for the
//!   flush-before-join fix), whichever of the shard's keys it was
//!   staged for;
//! * a flush whose store-clock write is lost (a crash after the shard
//!   journals committed) still reopens above every recovered base, so
//!   a key drained past its own entries is never stamped inside its
//!   base;
//! * a store flush commits each dirty shard's journal once — one
//!   `write`, one `fdatasync` on the fsync tier — however many keys
//!   the shard flushes, and a backend wrapper that does not forward
//!   `LogBackend::stage_flush` falls back to a commit per key with
//!   the same bytes on disk.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use uc_core::backend::{BackendFactory, LogBackend};
use uc_core::store::Key;
use uc_core::{CheckpointFactory, GcFactory, PoolConfig, StoreMsg, Timestamp, UcStore, UpdateMsg};
use uc_spec::{SetAdt, SetQuery, SetUpdate, UqAdt};
use uc_storage::{IoCounts, ScratchDir, SegmentBackend, SegmentFactory};

type Adt = SetAdt<u32>;
type Msg = StoreMsg<SetUpdate<u32>>;

fn checkpoint() -> CheckpointFactory {
    CheckpointFactory { every: 4 }
}

/// Names and sizes of every file under `dir`, sorted.
fn files_of(dir: &std::path::Path) -> Vec<(PathBuf, u64)> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir).unwrap().flatten() {
        let meta = entry.metadata().unwrap();
        if meta.is_dir() {
            out.extend(files_of(&entry.path()));
        } else {
            out.push((entry.path(), meta.len()));
        }
    }
    out.sort();
    out
}

/// The journal generations of one shard dir, sorted.
fn shard_journal(root: &std::path::Path, shard: usize) -> Vec<PathBuf> {
    files_of(&root.join(format!("shard-{shard}")))
        .into_iter()
        .map(|(path, _)| path)
        .filter(|p| p.extension().is_some_and(|ext| ext == "log"))
        .collect()
}

#[test]
fn torn_final_record_is_detected_and_dropped_on_reopen() {
    let tmp = ScratchDir::new("torn-store");
    let persist = SegmentFactory::at(tmp.path()).unwrap();
    let mut store: UcStore<Adt, CheckpointFactory, SegmentFactory> =
        UcStore::with_persistence(SetAdt::new(), 0, 1, checkpoint(), persist.clone());
    for v in 1..=3u32 {
        store.update(5, SetUpdate::Insert(v));
    }
    store.flush_backends();
    store.update(5, SetUpdate::Insert(4));
    store.flush_backends();
    drop(store);

    // Tear into the middle of the last update record (the classic
    // crash shape: a prefix of the final write persisted). The second
    // flush wrote that record and, behind it, the key's 25-byte
    // watermark record.
    let journal = shard_journal(tmp.path(), 0);
    assert_eq!(journal.len(), 1, "one generation, never rewritten");
    let bytes = fs::read(&journal[0]).unwrap();
    fs::write(&journal[0], &bytes[..bytes.len() - 25 - 20]).unwrap();

    let mut back: UcStore<Adt, CheckpointFactory, SegmentFactory> =
        UcStore::reopen(SetAdt::new(), 0, 1, checkpoint(), persist);
    assert_eq!(
        back.materialize_key(5),
        BTreeSet::from([1, 2, 3]),
        "the torn record must be dropped, everything before it kept"
    );
    assert_eq!(back.engine(5).unwrap().log_len(), 3);
}

#[test]
fn reopen_after_compaction_replays_only_the_tail() {
    let tmp = ScratchDir::new("gc-tail");
    let persist = SegmentFactory::at(tmp.path()).unwrap();
    let gc = GcFactory { n: 2 };
    let mut store: UcStore<Adt, GcFactory, SegmentFactory> =
        UcStore::with_persistence(SetAdt::new(), 0, 1, gc, persist.clone());
    for v in 1..=10u32 {
        store.update(3, SetUpdate::Insert(v));
    }
    // Peer announces clock 10: everything so far becomes stable and
    // compacts into the on-disk base snapshot.
    let Ok(_) = store.apply_message_from(1, StoreMsg::Heartbeat { pid: 1, clock: 10 });
    store.tick_maintenance();
    assert_eq!(
        store.engine(3).unwrap().log_len(),
        0,
        "full prefix compacted"
    );
    // Three more updates stay in the unstable tail.
    for v in 11..=13u32 {
        store.update(3, SetUpdate::Insert(v));
    }
    store.flush_backends();
    drop(store);

    let mut back: UcStore<Adt, GcFactory, SegmentFactory> =
        UcStore::reopen(SetAdt::new(), 0, 1, gc, persist);
    let engine = back.engine(3).expect("key recovered");
    assert_eq!(engine.log_len(), 3, "only the tail is replayed");
    let folds_before = engine.strategy().query_fold_steps();
    assert_eq!(
        back.query(3, &SetQuery::Read),
        (1..=13).collect::<BTreeSet<u32>>(),
        "base + tail reconstructs the full state"
    );
    let folds = back.engine(3).unwrap().strategy().query_fold_steps() - folds_before;
    assert_eq!(
        folds, 3,
        "the first query folds exactly the 3-entry tail over the base, not all 13 updates"
    );
}

#[test]
fn a_heartbeat_only_tick_writes_nothing() {
    // Regression: a heartbeat merged into every engine's clock, so
    // every key's flush saw a moved clock on every tick and rewrote a
    // watermark file of its own (an open, a write and a close per idle
    // key per tick); later a watermark record each. A key's clock now
    // moves with its own entries only: the replica's clock takes the
    // heartbeat, and the store-level floor covers it.
    //
    // "Idle" here means without traffic: every key holds an entry when
    // the heartbeat arrives, so all forty are on their shard's live
    // list, and the sweep visits each. What it drains is one update
    // per key, too little to be worth a base record. The keys a tick
    // does not even visit are the compacted ones:
    // `compacted_keys_cost_a_tick_nothing` below.
    const KEYS: u64 = 40;
    let tmp = ScratchDir::new("idle-tick");
    let persist = SegmentFactory::at(tmp.path()).unwrap();
    let mut store: UcStore<Adt, GcFactory, SegmentFactory> =
        UcStore::with_persistence(SetAdt::new(), 0, 2, GcFactory { n: 2 }, persist.clone());
    for key in 0..KEYS {
        store.update(key, SetUpdate::Insert(key as u32));
    }
    store.flush_backends();
    let before = files_of(tmp.path());
    let journals = before
        .iter()
        .filter(|(p, _)| p.extension().is_some_and(|e| e == "log"));
    assert_eq!(journals.count(), 2, "one journal per shard: {before:?}");

    // The peer is ahead of every update above: the tick drains every
    // key, and writes nothing for it.
    let clock = store.clock() + 10;
    let Ok(_) = store.apply_message_from(1, StoreMsg::Heartbeat { pid: 1, clock });
    store.tick_maintenance();
    assert_eq!(store.live_keys(), 0, "the sweep drained every key");
    store.flush_backends();
    let after = files_of(tmp.path());
    assert_eq!(after, before, "a heartbeat moved a key's clock");

    // No heartbeat since: no clock moved, nothing is written.
    store.tick_maintenance();
    store.flush_backends();
    assert_eq!(files_of(tmp.path()), after, "an idle tick wrote something");

    // And the watermarks are exact: every engine reopens at its clock.
    let clocks: Vec<u64> = (0..KEYS)
        .map(|k| store.engine(k).unwrap().clock())
        .collect();
    drop(store);
    let back: UcStore<Adt, GcFactory, SegmentFactory> =
        UcStore::reopen(SetAdt::new(), 0, 2, GcFactory { n: 2 }, persist);
    for (key, clock) in clocks.iter().enumerate() {
        assert_eq!(
            back.engine(key as u64).unwrap().clock(),
            *clock,
            "key {key}"
        );
    }
}

#[test]
fn compacted_keys_cost_a_tick_nothing() {
    // 4096 keys whose logs are fully compacted beside 8 that hold an
    // entry each: a heartbeat or tick that raises the stability floor,
    // and a flush, visit the 8; one that cannot raise it visits none.
    const IDLE: u64 = 4096;
    const LIVE: u64 = 8;
    let tmp = ScratchDir::new("compacted-tick");
    let persist = SegmentFactory::at(tmp.path()).unwrap();
    let gc = GcFactory { n: 3 };
    let mut store: UcStore<Adt, GcFactory, SegmentFactory> =
        UcStore::with_persistence(SetAdt::new(), 0, 4, gc, persist.clone());
    let mut peer: UcStore<Adt, CheckpointFactory> = UcStore::new(SetAdt::new(), 1, 1, checkpoint());
    let heartbeat = |pid, clock| StoreMsg::Heartbeat { pid, clock };
    let preload: Vec<Msg> = (0..IDLE)
        .map(|key| peer.update(key, SetUpdate::Insert(key as u32)))
        .collect();
    store.apply_batch_owned(preload);
    store.tick_maintenance();
    let Ok(_) = store.apply_message_from(peer.pid(), peer.heartbeat());
    let Ok(_) = store.apply_message_from(2, heartbeat(2, peer.clock()));
    assert_eq!((store.live_keys(), store.total_log_len()), (0, 0));
    // These stay unstable — and live — through both rounds below. They
    // are stamped well above the preload, so replica 2 can raise the
    // stability floor without making them stable.
    let preloaded = peer.clock();
    let Ok(_) = peer.apply_message_from(2, heartbeat(2, preloaded + 100));
    let fresh: Vec<Msg> = (IDLE..IDLE + LIVE)
        .map(|key| peer.update(key, SetUpdate::Insert(key as u32)))
        .collect();
    store.apply_batch_owned(fresh);
    assert_eq!(store.live_keys() as u64, LIVE);
    store.flush_backends();
    let idle_clock = store.engine(0).unwrap().clock();
    let live_clocks = |store: &UcStore<Adt, GcFactory, SegmentFactory>| -> Vec<u64> {
        (IDLE..IDLE + LIVE)
            .map(|k| store.engine(k).unwrap().clock())
            .collect()
    };
    // One round: `announce`, a tick and a flush; the bytes it wrote.
    let round = |store: &mut UcStore<Adt, GcFactory, SegmentFactory>, announce: Msg| {
        let before = files_of(tmp.path());
        store.apply_batch_owned(vec![announce]);
        store.tick_maintenance();
        store.flush_backends();
        let after = files_of(tmp.path());
        assert_eq!(after.len(), before.len(), "the round created a file");
        assert_eq!(store.live_keys() as u64, LIVE);
        assert_eq!(store.total_log_len() as u64, LIVE);
        assert_eq!(
            store.engine(0).unwrap().clock(),
            idle_clock,
            "a compacted key was visited"
        );
        after
            .iter()
            .zip(&before)
            .map(|(a, b)| a.1 - b.1)
            .sum::<u64>()
    };

    // Replica 1 moves on, but replica 2 is silent: the floor stays
    // where the preload put it, so no key is visited at all.
    let unswept = live_clocks(&store);
    let grown = round(&mut store, heartbeat(1, peer.clock() + 5));
    assert_eq!(
        grown, 0,
        "a round that cannot raise the floor writes nothing"
    );
    assert_eq!(live_clocks(&store), unswept, "a live key was visited");

    // Replica 2 announces too: the floor rises, short of the live
    // keys' entries. The sweep visits them and moves no clock of
    // theirs: the round writes nothing either.
    let grown = round(&mut store, heartbeat(2, preloaded + 50));
    let reg = uc_obs::Registry::new();
    store.export_metrics(&reg);
    let floor = reg.snapshot().gauge("uc_store_stability_floor");
    assert_eq!(floor, Some((preloaded + 50) as i64), "the floor rose");
    assert_eq!(
        grown, 0,
        "a sweep moved a clock, or wrote for the compacted keys"
    );
    assert_eq!(live_clocks(&store), unswept, "a live key's clock moved");

    // What the compacted keys did not write down, the store did: it
    // reopens at no less than the clock it went down with, which
    // covers every heartbeat it heard or announced.
    let clock = store.clock();
    let states: Vec<BTreeSet<u32>> = (0..IDLE + LIVE).map(|k| store.materialize_key(k)).collect();
    drop(store);
    let mut back: UcStore<Adt, GcFactory, SegmentFactory> =
        UcStore::reopen(SetAdt::new(), 0, 4, gc, persist);
    assert!(back.clock() >= clock, "{} < {clock}", back.clock());
    assert_eq!(back.key_count() as u64, IDLE + LIVE);
    // A recovered tail makes its key live (a key whose one update
    // never earned a base record recovers it as a tail), and the live
    // keys are all there is to a walk of the logs.
    let tails: Vec<usize> = (0..IDLE + LIVE)
        .map(|k| back.engine(k).unwrap().log_len())
        .collect();
    assert!(tails[IDLE as usize..].iter().all(|len| *len == 1));
    assert_eq!(
        back.live_keys(),
        tails.iter().filter(|len| **len > 0).count()
    );
    assert_eq!(back.total_log_len(), tails.iter().sum::<usize>());
    for (key, state) in states.iter().enumerate() {
        assert_eq!(&back.materialize_key(key as u64), state, "key {key}");
    }
}

#[test]
fn non_compacting_strategy_never_rewrites_its_journal() {
    // Nothing a full-log strategy journals is ever superseded except
    // its watermarks, which stay far below the live updates here: the
    // journal stays in its first generation however long it grows.
    let tmp = ScratchDir::new("no-rewrite");
    let persist = SegmentFactory::at(tmp.path()).unwrap();
    let mut store: UcStore<Adt, CheckpointFactory, SegmentFactory> =
        UcStore::with_persistence(SetAdt::new(), 0, 1, checkpoint(), persist.clone());
    for i in 0..6_000u32 {
        store.update(u64::from(i % 16), SetUpdate::Insert(i));
        if i % 50 == 0 {
            store.tick_maintenance();
            store.flush_backends();
        }
    }
    store.flush_backends();
    let journal = shard_journal(tmp.path(), 0);
    assert_eq!(journal.len(), 1);
    assert!(journal[0].ends_with("j0000000001.log"), "{journal:?}");
    assert!(fs::metadata(&journal[0]).unwrap().len() > 6_000 * 30);
    drop(store);
    let back: UcStore<Adt, CheckpointFactory, SegmentFactory> =
        UcStore::reopen(SetAdt::new(), 0, 1, checkpoint(), persist);
    assert_eq!(back.total_log_len(), 6_000);
}

/// A remote producer's keyed insert burst.
fn burst(keys: u64, count: u32) -> Vec<Msg> {
    let mut producer: UcStore<Adt, CheckpointFactory> =
        UcStore::new(SetAdt::new(), 1, 1, checkpoint());
    (0..count)
        .map(|i| producer.update(u64::from(i) % keys, SetUpdate::Insert(i)))
        .collect()
}

#[test]
fn pool_drop_drain_flushes_backends_before_join() {
    let tmp = ScratchDir::new("pool-drop");
    let persist = SegmentFactory::at(tmp.path()).unwrap();
    let msgs = burst(7, 300);
    let store: UcStore<Adt, CheckpointFactory, SegmentFactory> =
        UcStore::with_persistence(SetAdt::new(), 0, 4, checkpoint(), persist.clone());
    let mut pool = store.into_pool(PoolConfig {
        workers: 2,
        queue_depth: 256,
    });
    for chunk in msgs.chunks(9) {
        pool.submit_batch(chunk.to_vec()).unwrap();
    }
    drop(pool); // no flush, no finish — drop alone must persist

    let mut back: UcStore<Adt, CheckpointFactory, SegmentFactory> =
        UcStore::reopen(SetAdt::new(), 0, 4, checkpoint(), persist);
    let union: BTreeSet<u32> = (0..7u64).flat_map(|k| back.materialize_key(k)).collect();
    assert_eq!(
        union,
        (0..300).collect::<BTreeSet<u32>>(),
        "drop discarded queued or unflushed updates"
    );
}

/// A set ADT whose fold panics on one poison-pill element while
/// `armed` — disarming allows recovery to refold the same journal.
#[derive(Clone, Debug)]
struct ArmedSet {
    inner: SetAdt<u32>,
    pill: u32,
    armed: Arc<AtomicBool>,
}

impl UqAdt for ArmedSet {
    type Update = SetUpdate<u32>;
    type QueryIn = SetQuery;
    type QueryOut = BTreeSet<u32>;
    type State = BTreeSet<u32>;

    fn initial(&self) -> Self::State {
        self.inner.initial()
    }

    fn apply(&self, state: &mut Self::State, update: &Self::Update) {
        if let SetUpdate::Insert(e) = update {
            assert!(
                *e != self.pill || !self.armed.load(Ordering::SeqCst),
                "armed pill folded"
            );
        }
        self.inner.apply(state, update);
    }

    fn observe(&self, state: &Self::State, query: &Self::QueryIn) -> Self::QueryOut {
        self.inner.observe(state, query)
    }
}

#[test]
fn poisoned_pool_flushes_the_journal_before_dying() {
    const PILL: u32 = 999;
    let tmp = ScratchDir::new("pool-poison");
    let persist = SegmentFactory::at(tmp.path()).unwrap();
    let armed = Arc::new(AtomicBool::new(true));
    let adt = ArmedSet {
        inner: SetAdt::new(),
        pill: PILL,
        armed: Arc::clone(&armed),
    };
    // One worker, one shard, three keys: every message rides the
    // burst whose fold panics, so nothing would survive without the
    // poison-path flush. The shard ingests a burst key by key, so the
    // pill goes to the last key: keys 0 and 1 are journaled and
    // folded, key 2 is journaled when its fold panics, and the one
    // commit the poison path ends in has to carry all three.
    const KEYS: u64 = 3;
    let mut msgs = burst(KEYS, 40);
    let mut producer: UcStore<Adt, CheckpointFactory> =
        UcStore::new(SetAdt::new(), 2, 1, checkpoint());
    // Re-stamp the pill from a second producer so timestamps stay
    // unique; deliver the first producer's stream to it for causality.
    producer.apply_batch_owned(msgs.clone());
    msgs.push(producer.update(KEYS - 1, SetUpdate::Insert(PILL)));

    let store: UcStore<ArmedSet, CheckpointFactory, SegmentFactory> =
        UcStore::with_persistence(adt.clone(), 0, 1, checkpoint(), persist.clone());
    let mut pool = store.into_pool(PoolConfig {
        workers: 1,
        queue_depth: 64,
    });
    pool.submit_batch(msgs).unwrap();
    let err = pool
        .flush()
        .expect_err("the armed pill must poison the pool");
    assert!(
        err.to_string().contains("armed pill folded"),
        "unexpected poison: {err}"
    );
    drop(pool);

    // The journal survived the panic; with the pill disarmed, the
    // whole burst — including the pill — replays into the recovered
    // engine (appends precede the fold, and the poison path flushed).
    armed.store(false, Ordering::SeqCst);
    let mut back: UcStore<ArmedSet, CheckpointFactory, SegmentFactory> =
        UcStore::reopen(adt, 0, 1, checkpoint(), persist);
    for key in 0..KEYS {
        let mut expect: BTreeSet<u32> = (0..40).filter(|i| u64::from(*i) % KEYS == key).collect();
        if key == KEYS - 1 {
            expect.insert(PILL);
        }
        assert_eq!(
            back.materialize_key(key),
            expect,
            "poison path failed to flush key {key}'s journal records before the worker died"
        );
    }
}

/// `flush_backends` and the `IoCounts` it added.
fn counted_flush<F>(store: &mut UcStore<Adt, GcFactory, F>, persist: &SegmentFactory) -> IoCounts
where
    F: BackendFactory<Adt>,
{
    let before = persist.io_counts();
    store.flush_backends();
    let after = persist.io_counts();
    IoCounts {
        writes: after.writes - before.writes,
        syncs: after.syncs - before.syncs,
    }
}

/// How many shards `keys` route to.
fn shards_of(store: &UcStore<Adt, GcFactory, SegmentFactory>, keys: &[Key]) -> u64 {
    let shards: BTreeSet<usize> = keys.iter().map(|key| store.shard_of(*key)).collect();
    shards.len() as u64
}

#[test]
fn a_store_flush_commits_each_dirty_shard_once() {
    const SHARDS: usize = 8;
    let gc = GcFactory { n: 2 };
    for fsync in [false, true] {
        let tmp = ScratchDir::new(&format!("shard-commit-{fsync}"));
        let persist = SegmentFactory::at(tmp.path()).unwrap().fsync(fsync);
        let mut store: UcStore<Adt, GcFactory, SegmentFactory> =
            UcStore::with_persistence(SetAdt::new(), 0, SHARDS, gc, persist.clone());
        // 24 keys over three of the eight shards.
        let keys: Vec<Key> = (0..)
            .filter(|key| store.shard_of(*key) < 3)
            .take(24)
            .collect();
        assert_eq!(shards_of(&store, &keys), 3);
        let commits = |shards: u64| IoCounts {
            writes: shards,
            syncs: if fsync { shards } else { 0 },
        };

        // Every key live: the walk ends on a live key. Three updates
        // each, so that the base their drain makes is worth a record.
        for key in &keys {
            for v in 1..=3 {
                store.update(*key, SetUpdate::Insert(v));
            }
        }
        assert_eq!(store.live_keys(), keys.len());
        assert_eq!(
            persist.io_counts(),
            IoCounts::default(),
            "write-behind: nothing reaches a journal before the flush"
        );
        assert_eq!(counted_flush(&mut store, &persist), commits(3));
        // The store clock went out beside them, to its own file: not
        // a journal, so not in the counts.
        assert_eq!(
            BackendFactory::<Adt>::load_store_clock(&persist),
            store.clock()
        );
        assert_eq!(
            counted_flush(&mut store, &persist),
            commits(0),
            "nothing new"
        );

        // Every key compacted off the live list, owing its last flush
        // and its base: the walk ends on an idle key. (A heartbeat
        // moves no key's clock, so the bases are all there is.)
        let clock = store.clock();
        let Ok(_) = store.apply_message_from(1, StoreMsg::Heartbeat { pid: 1, clock });
        store.tick_maintenance();
        assert_eq!(store.live_keys(), 0);
        assert_eq!(counted_flush(&mut store, &persist), commits(3));

        // Live and idle keys in one shard, idle ones alone in another,
        // and keys that were idle when their insertion began and are
        // live at the flush (listed twice, flushed once).
        let (again, rest) = keys.split_at(5);
        for key in again {
            store.update(*key, SetUpdate::Insert(2));
        }
        let clock = store.clock();
        let Ok(_) = store.apply_message_from(1, StoreMsg::Heartbeat { pid: 1, clock });
        store.tick_maintenance();
        for key in &rest[..2] {
            store.update(*key, SetUpdate::Insert(3));
        }
        assert_eq!(store.live_keys(), 2);
        let touched: Vec<Key> = again.iter().chain(&rest[..2]).copied().collect();
        assert_eq!(
            counted_flush(&mut store, &persist),
            commits(shards_of(&store, &touched))
        );
        assert_eq!(counted_flush(&mut store, &persist), commits(0));

        let flushed: Vec<BTreeSet<u32>> =
            keys.iter().map(|key| store.materialize_key(*key)).collect();
        let clocks: Vec<u64> = keys
            .iter()
            .map(|key| store.engine(*key).unwrap().clock())
            .collect();
        drop(store);
        let mut back: UcStore<Adt, GcFactory, SegmentFactory> =
            UcStore::reopen(SetAdt::new(), 0, SHARDS, gc, persist);
        for (at, key) in keys.iter().enumerate() {
            assert_eq!(back.materialize_key(*key), flushed[at], "key {key}");
            assert_eq!(back.engine(*key).unwrap().clock(), clocks[at], "key {key}");
        }
    }
}

/// The shape of a tracing shim written before `LogBackend` had
/// `stage_flush`: it forwards every method the trait had then, and so
/// takes the new one's default.
struct Shim(SegmentBackend<Adt>);

impl LogBackend<Adt> for Shim {
    fn append(&mut self, ts: Timestamp, u: &SetUpdate<u32>) {
        self.0.append(ts, u);
    }

    fn append_batch(&mut self, entries: &[(Timestamp, SetUpdate<u32>)]) {
        self.0.append_batch(entries);
    }

    fn truncate_to_base(
        &mut self,
        bound: u64,
        state: &BTreeSet<u32>,
        tail: &[(Timestamp, SetUpdate<u32>)],
    ) {
        self.0.truncate_to_base(bound, state, tail);
    }

    fn flush(&mut self, clock: u64) {
        self.0.flush(clock);
    }

    fn load_base(&mut self) -> Option<(u64, BTreeSet<u32>)> {
        self.0.load_base()
    }

    fn scan_suffix(&mut self) -> Vec<(Timestamp, SetUpdate<u32>)> {
        self.0.scan_suffix()
    }

    fn clock_watermark(&self) -> u64 {
        self.0.clock_watermark()
    }
}

#[derive(Clone)]
struct ShimFactory(SegmentFactory);

impl BackendFactory<Adt> for ShimFactory {
    type Backend = Shim;

    fn open(&self, shard: usize, key: Key) -> Shim {
        Shim(self.0.open(shard, key))
    }

    fn open_all(&self, shard: usize) -> Vec<(Key, Shim)> {
        let opened: Vec<(Key, SegmentBackend<Adt>)> = self.0.open_all(shard);
        opened.into_iter().map(|(key, b)| (key, Shim(b))).collect()
    }

    fn bind_replica(&self, pid: u32, shards: usize, fresh: bool) {
        BackendFactory::<Adt>::bind_replica(&self.0, pid, shards, fresh);
    }

    fn load_store_clock(&self) -> u64 {
        BackendFactory::<Adt>::load_store_clock(&self.0)
    }

    fn persist_store_clock(&self, clock: u64) {
        BackendFactory::<Adt>::persist_store_clock(&self.0, clock);
    }
}

/// Three rounds of updates over twelve keys, each followed by a
/// heartbeat that makes the round before it stable, a tick and a
/// flush; returns what each flush added to the journals' counts.
fn run_rounds<F>(store: &mut UcStore<Adt, GcFactory, F>, persist: &SegmentFactory) -> Vec<IoCounts>
where
    F: BackendFactory<Adt>,
{
    let mut counts = Vec::new();
    let mut stable = 0;
    for round in 0..3u32 {
        for key in 0..12u64 {
            for i in 0..=key as u32 % 3 {
                store.update(key, SetUpdate::Insert(round * 10 + i));
            }
        }
        let heartbeat = StoreMsg::Heartbeat {
            pid: 1,
            clock: stable,
        };
        let Ok(_) = store.apply_message_from(1, heartbeat);
        stable = store.clock();
        store.tick_maintenance();
        counts.push(counted_flush(store, persist));
    }
    counts
}

#[test]
fn a_wrapper_that_does_not_forward_stage_flush_commits_per_key() {
    let gc = GcFactory { n: 2 };
    let (tmp_shim, tmp_direct) = (ScratchDir::new("shim"), ScratchDir::new("shim-direct"));
    let shim = ShimFactory(SegmentFactory::at(tmp_shim.path()).unwrap());
    let direct = SegmentFactory::at(tmp_direct.path()).unwrap();
    let mut wrapped: UcStore<Adt, GcFactory, ShimFactory> =
        UcStore::with_persistence(SetAdt::new(), 0, 2, gc, shim.clone());
    let mut plain: UcStore<Adt, GcFactory, SegmentFactory> =
        UcStore::with_persistence(SetAdt::new(), 0, 2, gc, direct.clone());
    let per_key = run_rounds(&mut wrapped, &shim.0);
    let per_shard = run_rounds(&mut plain, &direct);
    // Every flush visits all twelve keys, and every one of them has
    // records staged: the shim's default commits for each, the shard
    // walk once for each of the two shards.
    for (round, (shim, direct)) in per_key.iter().zip(&per_shard).enumerate() {
        assert_eq!(shim.writes, 12, "round {round}");
        assert_eq!(direct.writes, 2, "round {round}");
    }
    // The commit boundary moves writes, not bytes.
    for shard in 0..2 {
        let (a, b) = (
            shard_journal(tmp_shim.path(), shard),
            shard_journal(tmp_direct.path(), shard),
        );
        assert_eq!((a.len(), b.len()), (1, 1));
        assert!(
            fs::read(&a[0]).unwrap() == fs::read(&b[0]).unwrap(),
            "shard {shard}: the journals differ"
        );
    }

    // More updates that no flush follows: lost, as in a crash.
    let flushed: Vec<BTreeSet<u32>> = (0..12).map(|key| wrapped.materialize_key(key)).collect();
    for key in 0..12 {
        wrapped.update(key, SetUpdate::Insert(777));
    }
    drop(wrapped);
    let mut back: UcStore<Adt, GcFactory, ShimFactory> =
        UcStore::reopen(SetAdt::new(), 0, 2, gc, shim);
    assert_eq!(back.key_count(), 12);
    for (key, state) in flushed.iter().enumerate() {
        assert_eq!(&back.materialize_key(key as u64), state, "key {key}");
    }
}

#[test]
fn finish_then_reopen_round_trips_a_pooled_store() {
    let tmp = ScratchDir::new("pool-finish");
    let persist = SegmentFactory::at(tmp.path()).unwrap();
    let msgs = burst(5, 120);
    let store: UcStore<Adt, CheckpointFactory, SegmentFactory> =
        UcStore::with_persistence(SetAdt::new(), 0, 4, checkpoint(), persist.clone());
    let mut pool = store.into_pool(PoolConfig {
        workers: 3,
        queue_depth: 16,
    });
    for chunk in msgs.chunks(13) {
        pool.submit_batch(chunk.to_vec()).unwrap();
    }
    let mut live = pool.finish().unwrap();
    let live_states: Vec<BTreeSet<u32>> = (0..5u64).map(|k| live.materialize_key(k)).collect();
    let live_clock = live.clock();
    drop(live);

    let mut back: UcStore<Adt, CheckpointFactory, SegmentFactory> =
        UcStore::reopen(SetAdt::new(), 0, 4, checkpoint(), persist);
    assert_eq!(back.clock(), live_clock, "clock watermark survived");
    for (k, expect) in live_states.iter().enumerate() {
        assert_eq!(&back.materialize_key(k as u64), expect, "key {k}");
    }
}

#[test]
fn crash_before_flush_never_reissues_broadcast_timestamps() {
    // The divergence trap: an update is stamped and broadcast, the
    // process dies before the next flush, and the reopened store —
    // were its clock recovered only from flushed state — would stamp
    // a *new* update with the *same* timestamp. Peers holding the
    // original would dedup the reissue away: permanent divergence.
    // The store leases a persisted clock floor ahead of issuance
    // (`CLOCK`), so recovery restores at least every issued clock.
    let tmp = ScratchDir::new("clock-floor");
    let persist = SegmentFactory::at(tmp.path()).unwrap();
    let mut store: UcStore<Adt, CheckpointFactory, SegmentFactory> =
        UcStore::with_persistence(SetAdt::new(), 0, 2, checkpoint(), persist.clone());
    let mut issued = Vec::new();
    for i in 0..20u32 {
        let StoreMsg::Update { msg, .. } = store.update(u64::from(i % 3), SetUpdate::Insert(i))
        else {
            panic!("update returns an update message");
        };
        issued.push(msg.ts);
    }
    drop(store); // crash: NO flush ever ran — all broadcasts unflushed

    let mut back: UcStore<Adt, CheckpointFactory, SegmentFactory> =
        UcStore::reopen(SetAdt::new(), 0, 2, checkpoint(), persist);
    let max_issued = issued.iter().map(|ts| ts.clock).max().unwrap();
    assert!(
        back.clock() >= max_issued,
        "recovered clock {} regressed below issued clock {max_issued}",
        back.clock()
    );
    let StoreMsg::Update { msg, .. } = back.update(0, SetUpdate::Insert(999)) else {
        panic!("update returns an update message");
    };
    assert!(
        !issued.contains(&msg.ts),
        "post-recovery update reissued already-broadcast timestamp {:?}",
        msg.ts
    );
}

/// A [`SegmentFactory`] whose store-clock writes are all lost: what a
/// crash between a flush's shard commits and its `CLOCK` write leaves.
#[derive(Clone)]
struct LosesStoreClock(SegmentFactory);

impl BackendFactory<Adt> for LosesStoreClock {
    type Backend = SegmentBackend<Adt>;

    fn open(&self, shard: usize, key: Key) -> SegmentBackend<Adt> {
        self.0.open(shard, key)
    }

    fn open_all(&self, shard: usize) -> Vec<(Key, SegmentBackend<Adt>)> {
        self.0.open_all(shard)
    }

    fn bind_replica(&self, pid: u32, shards: usize, fresh: bool) {
        BackendFactory::<Adt>::bind_replica(&self.0, pid, shards, fresh);
    }

    fn load_store_clock(&self) -> u64 {
        BackendFactory::<Adt>::load_store_clock(&self.0)
    }

    fn persist_store_clock(&self, _clock: u64) {}
}

#[test]
fn a_lost_store_clock_write_never_stamps_below_a_recovered_base() {
    // A key's base bound is the replica's stability floor, which a
    // peer's heartbeat raises above every entry the key holds. A store
    // flush commits its shard journals, that base among them, before
    // it writes the store clock: should the process die between the
    // two, the reopened store must still stamp the key's next update
    // above the base, or the update would land inside the compacted
    // prefix.
    let tmp = ScratchDir::new("lost-store-clock");
    let persist = LosesStoreClock(SegmentFactory::at(tmp.path()).unwrap());
    let gc = GcFactory { n: 2 };
    let mut store: UcStore<Adt, GcFactory, LosesStoreClock> =
        UcStore::with_persistence(SetAdt::new(), 0, 1, gc, persist.clone());
    for clock in 1..=5u64 {
        let msg = UpdateMsg {
            ts: Timestamp { clock, pid: 1 },
            update: SetUpdate::Insert(clock as u32),
        };
        let Ok(_) = store.apply_message_from(1, StoreMsg::Update { key: 3, msg });
    }
    let Ok(_) = store.apply_message_from(1, StoreMsg::Heartbeat { pid: 1, clock: 100 });
    store.tick_maintenance();
    let engine = store.engine(3).unwrap();
    assert_eq!(
        engine.strategy().stability_bound(),
        100,
        "drained at the floor"
    );
    assert_eq!(engine.log_len(), 0);
    assert_eq!(
        engine.clock(),
        5,
        "the key's clock holds its own entries only"
    );
    store.flush_backends();
    drop(store);

    let mut back: UcStore<Adt, GcFactory, LosesStoreClock> =
        UcStore::reopen(SetAdt::new(), 0, 1, gc, persist);
    assert_eq!(
        back.engine(3).unwrap().strategy().stability_bound(),
        100,
        "the base at the floor was committed"
    );
    assert_eq!(back.engine(3).unwrap().clock(), 5, "the key's own clock");
    assert!(
        back.clock() >= 100,
        "reopened at {}, below the base",
        back.clock()
    );
    let StoreMsg::Update { msg, .. } = back.update(3, SetUpdate::Insert(6)) else {
        panic!("update returns an update message");
    };
    assert!(msg.ts.clock > 100, "stamped {:?} inside the base", msg.ts);
    assert_eq!(back.materialize_key(3), (1..=6).collect::<BTreeSet<u32>>());
}

#[test]
#[should_panic(expected = "already holds a bound store")]
fn fresh_store_over_surviving_state_is_refused() {
    // `with_persistence` on a root that already holds a bound store
    // would restart the clock and silently lose one run's updates to
    // timestamp dedup on the next reopen — it must panic instead.
    let tmp = ScratchDir::new("fresh-over-bound");
    let persist = SegmentFactory::at(tmp.path()).unwrap();
    let mut store: UcStore<Adt, CheckpointFactory, SegmentFactory> =
        UcStore::with_persistence(SetAdt::new(), 0, 2, checkpoint(), persist.clone());
    store.update(1, SetUpdate::Insert(1));
    store.flush_backends();
    drop(store);
    let _: UcStore<Adt, CheckpointFactory, SegmentFactory> =
        UcStore::with_persistence(SetAdt::new(), 0, 2, checkpoint(), persist);
}

#[test]
fn pool_stamps_stay_unique_across_crash_and_reopen() {
    // The persisted floor lease is raised *before* any covered stamp
    // can be pushed (let alone broadcast). A round makes more stamps
    // than one lease covers, so the floor is rewritten mid-round; a
    // backend flush after that collapses it to the clock, and the
    // next stamp leases it again. Even if the process dies with
    // nothing flushed since, the reopened
    // store recovers a clock at or above every stamp the pool ever
    // issued — two runs can never produce equal `(clock, pid)` pairs.
    const STAMPS: u32 = 5_000; // above one lease of 4096
    const FLUSH_AT: u32 = 4_500; // past the first rewrite
    let tmp = ScratchDir::new("pool-stamp-floor");
    let persist = SegmentFactory::at(tmp.path()).unwrap();
    let store: UcStore<Adt, CheckpointFactory, SegmentFactory> =
        UcStore::with_persistence(SetAdt::new(), 0, 4, checkpoint(), persist.clone());
    let mut pool = store.into_pool(PoolConfig {
        workers: 2,
        queue_depth: 16,
    });
    let stamp_round = |pool: &mut uc_core::IngestPool<Adt, CheckpointFactory, SegmentFactory>,
                       round: u32| {
        (0..STAMPS)
            .map(|i| {
                if i == FLUSH_AT {
                    pool.flush_backends().unwrap();
                }
                let u = SetUpdate::Insert(round * 10_000 + i);
                let Ok(StoreMsg::Update { msg, .. }) = pool.update(u64::from(i % 4), u) else {
                    panic!("update returns an update message");
                };
                msg.ts
            })
            .collect::<Vec<_>>()
    };
    let first = stamp_round(&mut pool, 1);
    // Quiesce the workers (so no journal write races the reopen
    // below), then crash: no finish, no drop — the floor lease
    // written during stamping is all recovery has.
    pool.flush().unwrap();
    std::mem::forget(pool);

    let reopened: UcStore<Adt, CheckpointFactory, SegmentFactory> =
        UcStore::reopen(SetAdt::new(), 0, 4, checkpoint(), persist);
    let max_issued = first.iter().map(|ts| ts.clock).max().unwrap();
    assert_eq!(max_issued, u64::from(STAMPS));
    assert!(
        reopened.clock() >= max_issued,
        "recovered clock {} regressed below issued clock {max_issued}",
        reopened.clock()
    );
    let mut pool = reopened.into_pool(PoolConfig {
        workers: 2,
        queue_depth: 16,
    });
    let second = stamp_round(&mut pool, 2);
    drop(pool);
    let mut all: Vec<_> = first.into_iter().chain(second).collect();
    let issued = all.len();
    all.sort();
    all.dedup();
    assert_eq!(
        all.len(),
        issued,
        "a stamp was reissued across the crash/reopen boundary"
    );
}
