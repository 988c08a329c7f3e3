//! E15 — contended ingest + reads: locked store vs lock-free pool.
//!
//! The same insert-only workload runs at 1/2/4/8 producer threads
//! with concurrent reader threads, two ways on identical stores:
//!
//! * **locked**    — the pre-pool sharing model: one
//!   `Arc<Mutex<UcStore>>`, producers lock to stamp+apply, readers
//!   lock to materialize. Every reader stalls every producer and vice
//!   versa; a reader behind an in-flight fold waits it out.
//! * **lock-free** — cloned [`IngestPool`] handles: producers stamp on
//!   the shared atomic clock and CAS-push to claim-pattern worker
//!   inboxes; readers do wait-free `query_snapshot` loads of the
//!   epoch-published post-repair states and never block anyone.
//!
//! Producers write disjoint key ranges (the GC-FIFO precondition for
//! concurrent stamping, and what a sharded front-end does anyway);
//! readers sweep all keys. Both paths must agree with a sequential
//! reference — per-key digests and final clock are asserted every rep
//! (the CI smoke step relies on this).
//!
//! Run with `cargo bench -p uc-bench --bench concurrent`. A full run
//! writes `BENCH_concurrent.json` at the workspace root; set
//! `UC_BENCH_SMOKE=1` for a CI-sized run that writes nothing.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use uc_bench::harness;
use uc_core::{state_digest, CheckpointFactory, PoolConfig, UcStore};
use uc_spec::{SetAdt, SetQuery, SetUpdate};

type Store = UcStore<SetAdt<u32>, CheckpointFactory>;

const EVERY: usize = 32;
const SHARDS: usize = 8;
const READERS: usize = 2;
const KEYS_PER_PRODUCER: u64 = 8;

fn store() -> Store {
    UcStore::new(SetAdt::new(), 0, SHARDS, CheckpointFactory { every: EVERY })
}

fn digest(store: &mut Store) -> u64 {
    let states: BTreeMap<u64, _> = store
        .keys()
        .into_iter()
        .map(|k| (k, store.materialize_key(k)))
        .collect();
    state_digest(&states)
}

/// `(producer, i)` → the one update stream both paths replay.
fn op(p: u64, i: u64, ops: u64) -> (u64, SetUpdate<u32>) {
    let key = p * KEYS_PER_PRODUCER + (i % KEYS_PER_PRODUCER);
    (key, SetUpdate::Insert((p * ops + i) as u32))
}

/// Locked sharing: every operation — stamp, apply, read — takes the
/// one store mutex.
fn run_locked(producers: u64, ops: u64, reads: u64) -> (u64, u64, Store) {
    let shared = Arc::new(Mutex::new(store()));
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for p in 0..producers {
            let shared = Arc::clone(&shared);
            s.spawn(move || {
                for i in 0..ops {
                    let (key, u) = op(p, i, ops);
                    shared.lock().unwrap().update(key, u);
                }
            });
        }
        for _ in 0..READERS {
            let shared = Arc::clone(&shared);
            s.spawn(move || {
                let total_keys = producers * KEYS_PER_PRODUCER;
                for i in 0..reads {
                    let key = i % total_keys;
                    let _ = shared.lock().unwrap().query(key, &SetQuery::Read);
                }
            });
        }
    });
    let ns = t0.elapsed().as_nanos() as u64;
    let store = Arc::into_inner(shared)
        .expect("all threads joined")
        .into_inner()
        .unwrap();
    (ns, store.clock(), store)
}

/// Lock-free sharing: producers stamp on the atomic clock and push to
/// claim inboxes; readers load epoch-published snapshots.
fn run_lockfree(producers: u64, ops: u64, reads: u64) -> (u64, u64, Store) {
    let mut pool = store().into_pool(PoolConfig {
        workers: 1,
        queue_depth: 1024,
    });
    // Arm snapshot publication before the timed region (a real
    // deployment arms once at startup).
    let _ = pool.query_snapshot(0, &SetQuery::Read);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for p in 0..producers {
            let h = pool.handle();
            s.spawn(move || {
                for i in 0..ops {
                    let (key, u) = op(p, i, ops);
                    h.update(key, u).expect("pool healthy");
                }
            });
        }
        for _ in 0..READERS {
            let h = pool.handle();
            s.spawn(move || {
                let total_keys = producers * KEYS_PER_PRODUCER;
                for i in 0..reads {
                    let key = i % total_keys;
                    let _ = h.query_snapshot(key, &SetQuery::Read);
                }
            });
        }
    });
    pool.flush().expect("pool healthy");
    let ns = t0.elapsed().as_nanos() as u64;
    let clock = pool.clock();
    (ns, clock, pool.finish().expect("pool healthy"))
}

/// Sequential reference for the digest gate: same updates, one thread.
fn run_sequential(producers: u64, ops: u64) -> Store {
    let mut s = store();
    for p in 0..producers {
        for i in 0..ops {
            let (key, u) = op(p, i, ops);
            s.update(key, u);
        }
    }
    s
}

struct Row {
    producers: u64,
    locked_ns: u64,
    lockfree_ns: u64,
}

fn main() {
    let smoke = harness::smoke();
    let reps = if smoke { 2 } else { 5 };
    let ops: u64 = if smoke { 2_000 } else { 20_000 };
    let producer_counts: &[u64] = if smoke { &[2] } else { &[1, 2, 4, 8] };
    let hw = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!(
        "concurrent bench: {ops} updates/producer, {READERS} readers doing as many \
         reads each, reps {reps}, hardware parallelism {hw}{}",
        if smoke { " (smoke)" } else { "" }
    );

    let mut rows: Vec<Row> = Vec::new();
    for &producers in producer_counts {
        let reads = ops; // each reader sweeps as many reads as one producer writes
        let mut reference = run_sequential(producers, ops);
        let want_digest = digest(&mut reference);
        let want_clock = producers * ops; // reads never tick on either path
        let mut locked_samples = Vec::new();
        let mut lockfree_samples = Vec::new();
        for _ in 0..reps {
            let (ns, clock, mut s) = run_locked(producers, ops, reads);
            // The locked path's `query` ticks the clock (blocking
            // strong reads are its only read mode).
            assert!(clock >= want_clock, "locked clock fell short");
            assert_eq!(
                digest(&mut s),
                want_digest,
                "locked diverged at {producers} producers"
            );
            locked_samples.push(ns);

            let (ns, clock, mut s) = run_lockfree(producers, ops, reads);
            assert_eq!(clock, want_clock, "lock-free clock mismatch");
            assert_eq!(
                digest(&mut s),
                want_digest,
                "lock-free diverged at {producers} producers"
            );
            lockfree_samples.push(ns);
        }
        rows.push(Row {
            producers,
            locked_ns: harness::median(locked_samples),
            lockfree_ns: harness::median(lockfree_samples),
        });
    }

    println!(
        "\n{:<10} {:>14} {:>16} {:>18}",
        "producers", "locked Mops/s", "lock-free Mops/s", "lock-free/locked"
    );
    let mut contention = Vec::new();
    for r in &rows {
        let n = r.producers * ops;
        let mops = |ns: u64| n as f64 * 1e3 / ns as f64;
        let speedup = r.locked_ns as f64 / r.lockfree_ns.max(1) as f64;
        println!(
            "{:<10} {:>14.2} {:>16.2} {:>17.2}x",
            r.producers,
            mops(r.locked_ns),
            mops(r.lockfree_ns),
            speedup
        );
        contention.push(format!(
            "{{\"producers\": {}, \"locked_ns\": {}, \"lockfree_ns\": {}, \
             \"locked_mops\": {:.3}, \"lockfree_mops\": {:.3}, \"speedup\": {speedup:.2}}}",
            r.producers,
            r.locked_ns,
            r.lockfree_ns,
            mops(r.locked_ns),
            mops(r.lockfree_ns),
        ));
    }
    println!(
        "\nnote: updates-only throughput (readers run concurrently on both paths, \
         unmetered). On 1-core hosts the win is reader non-interference: locked \
         readers serialize whole folds behind the store mutex, snapshot readers \
         cost one atomic load + Arc clone."
    );

    harness::emit(
        "concurrent",
        &[
            (
                "config",
                format!(
                    "{{\"ops_per_producer\": {ops}, \"readers\": {READERS}, \
                     \"keys_per_producer\": {KEYS_PER_PRODUCER}, \"shards\": {SHARDS}, \
                     \"reps\": {reps}}}"
                ),
            ),
            ("contention", harness::array(&contention)),
            (
                "note",
                "\"digest-verified: lock-free == locked == sequential per key every rep; \
                 speedup > 1 means atomic stamping + claim inboxes + snapshot reads beat \
                 the mutex-shared store under the same producer/reader load\""
                    .into(),
            ),
        ],
    );
}
