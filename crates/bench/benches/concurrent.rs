//! E15 — one stamper beside reader threads: locked store vs pool.
//!
//! One thread stamps an insert-only stream while 1/2/4/8 reader
//! threads read, two ways on identical stores:
//!
//! * **locked** — the pre-pool sharing model: one
//!   `Arc<Mutex<UcStore>>`; the stamper locks to stamp+apply, readers
//!   lock to materialize. Every reader stalls the stamper and vice
//!   versa; a reader behind an in-flight fold waits it out.
//! * **pool** — the [`IngestPool`]'s owner stamps on the atomic clock
//!   and sends to the worker's inbox (std's bounded channel); readers
//!   on other threads do `query_snapshot` loads of the
//!   epoch-published post-repair states through cloned handles: two
//!   short read locks each (the shard's registry, then the key's
//!   cell), never behind a fold, waiting at most for a publication's
//!   pointer replace.
//!
//! A replica has one stamper (a pool handle cannot stamp), so the axis
//! is the number of readers. Each reader makes as many reads as the
//! stamper makes updates, sweeping every key. Both paths must agree
//! with a sequential reference — per-key digests and final clock are
//! asserted every rep (the CI smoke step relies on this).
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
const KEYS: u64 = 16;

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

/// `i` → the one update stream both paths replay.
fn op(i: u64) -> (u64, SetUpdate<u32>) {
    (i % KEYS, SetUpdate::Insert(i as u32))
}

/// Locked sharing: every operation — stamp, apply, read — takes the
/// one store mutex.
fn run_locked(readers: usize, ops: u64) -> (u64, u64, Store) {
    let shared = Arc::new(Mutex::new(store()));
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..readers {
            let shared = Arc::clone(&shared);
            s.spawn(move || {
                for i in 0..ops {
                    let _ = shared.lock().unwrap().query(i % KEYS, &SetQuery::Read);
                }
            });
        }
        for i in 0..ops {
            let (key, u) = op(i);
            shared.lock().unwrap().update(key, u);
        }
    });
    let ns = t0.elapsed().as_nanos() as u64;
    let store = Arc::into_inner(shared)
        .expect("all threads joined")
        .into_inner()
        .unwrap();
    (ns, store.clock(), store)
}

/// The pool: its owner stamps and sends to the worker's inbox; readers
/// load epoch-published snapshots through handles.
fn run_pool(readers: usize, ops: u64) -> (u64, u64, Store) {
    let mut pool = store().into_pool(PoolConfig {
        workers: 1,
        queue_depth: 1024,
    });
    // Arm snapshot publication before the timed region (a real
    // deployment arms once at startup).
    let _ = pool.query_snapshot(0, &SetQuery::Read);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..readers {
            let h = pool.handle();
            s.spawn(move || {
                for i in 0..ops {
                    let _ = h.query_snapshot(i % KEYS, &SetQuery::Read);
                }
            });
        }
        for i in 0..ops {
            let (key, u) = op(i);
            pool.update(key, u).expect("pool healthy");
        }
        pool.flush().expect("pool healthy");
    });
    let ns = t0.elapsed().as_nanos() as u64;
    let clock = pool.clock();
    (ns, clock, pool.finish().expect("pool healthy"))
}

/// Sequential reference for the digest gate: same updates, one thread.
fn run_sequential(ops: u64) -> Store {
    let mut s = store();
    for i in 0..ops {
        let (key, u) = op(i);
        s.update(key, u);
    }
    s
}

struct Row {
    readers: usize,
    locked_ns: u64,
    pool_ns: u64,
}

fn main() {
    let smoke = harness::smoke();
    let reps = if smoke { 2 } else { 9 };
    let ops: u64 = if smoke { 2_000 } else { 20_000 };
    let reader_counts: &[usize] = if smoke { &[2] } else { &[1, 2, 4, 8] };
    let hw = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!(
        "concurrent bench: one stamper making {ops} updates, each reader as many reads, \
         reps {reps}, hardware parallelism {hw}{}",
        if smoke { " (smoke)" } else { "" }
    );

    let mut reference = run_sequential(ops);
    let want_digest = digest(&mut reference);
    let mut rows: Vec<Row> = Vec::new();
    for &readers in reader_counts {
        let mut locked_samples = Vec::new();
        let mut pool_samples = Vec::new();
        for _ in 0..reps {
            let (ns, clock, mut s) = run_locked(readers, ops);
            // The locked path's `query` ticks the clock (blocking
            // strong reads are its only read mode).
            assert!(clock >= ops, "locked clock fell short");
            assert_eq!(
                digest(&mut s),
                want_digest,
                "locked diverged at {readers} readers"
            );
            locked_samples.push(ns);

            let (ns, clock, mut s) = run_pool(readers, ops);
            // Snapshot reads never tick.
            assert_eq!(clock, ops, "pool clock mismatch");
            assert_eq!(
                digest(&mut s),
                want_digest,
                "pool diverged at {readers} readers"
            );
            pool_samples.push(ns);
        }
        rows.push(Row {
            readers,
            locked_ns: harness::median(locked_samples),
            pool_ns: harness::median(pool_samples),
        });
    }

    println!(
        "\n{:<8} {:>14} {:>14} {:>12}",
        "readers", "locked Mops/s", "pool Mops/s", "pool/locked"
    );
    let mut contention = Vec::new();
    for r in &rows {
        // Updates and reads: the work every thread of the run did.
        let n = ops * (1 + r.readers as u64);
        let mops = |ns: u64| n as f64 * 1e3 / ns as f64;
        let speedup = r.locked_ns as f64 / r.pool_ns.max(1) as f64;
        println!(
            "{:<8} {:>14.2} {:>14.2} {:>11.2}x",
            r.readers,
            mops(r.locked_ns),
            mops(r.pool_ns),
            speedup
        );
        contention.push(format!(
            "{{\"readers\": {}, \"locked_ns\": {}, \"pool_ns\": {}, \
             \"locked_mops\": {:.3}, \"pool_mops\": {:.3}, \"speedup\": {speedup:.2}}}",
            r.readers,
            r.locked_ns,
            r.pool_ns,
            mops(r.locked_ns),
            mops(r.pool_ns),
        ));
    }
    println!(
        "\nnote: Mops/s counts updates and reads, over the wall time until every \
         thread is done and the pool is flushed (median of {reps} reps). Locked \
         readers serialize whole folds behind the store mutex, snapshot readers \
         cost two short read locks and an Arc clone."
    );

    harness::emit(
        "concurrent",
        &[
            (
                "config",
                format!(
                    "{{\"updates\": {ops}, \"reads_per_reader\": {ops}, \"keys\": {KEYS}, \
                     \"shards\": {SHARDS}, \"reps\": {reps}}}"
                ),
            ),
            ("contention", harness::array(&contention)),
            (
                "note",
                "\"digest-verified: pool == locked == sequential per key every rep; one \
                 stamper beside R readers; mops counts updates + reads; speedup > 1 means \
                 owner stamping + bounded inboxes + snapshot reads beat the mutex-shared \
                 store under the same load\""
                    .into(),
            ),
        ],
    );
}
