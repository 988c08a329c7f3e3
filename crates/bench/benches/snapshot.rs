//! E16 — consistent cut snapshots: one `snapshot_at(t)` vs per-key
//! queries, and cold vs stable-prefix cuts.
//!
//! The same zipfian keyed update stream is ingested into two identical
//! stores, then read back three ways at 1/10/100 keys per read batch:
//!
//! * **per-key**    — K independent [`UcStore::query`] calls (the
//!   pre-snapshot read mode: each answers its own key's latest state,
//!   with no cross-key consistency — concurrent writers can tear the
//!   batch);
//! * **cut-cold**   — one [`UcStore::snapshot_at`] at a mid-log cut on
//!   a checkpoint store, then K reads against the immutable
//!   [`StoreSnapshot`]. The cut predates the caches, so every key
//!   folds its `clock ≤ t` prefix from scratch — the worst case;
//! * **cut-stable** — the same snapshot call on a GC store whose whole
//!   log is stable (heartbeats received, prefix compacted): the cut
//!   covers the retained log, so each key reuses its cached fold and
//!   the snapshot costs clones, not folds.
//!
//! The snapshot paths pay one up-front cut over *all* keys, then
//! answer reads at memory speed; the per-key path pays per read. The
//! crossover (and the cold-vs-stable gap, which is what GC stability
//! buys cut queries) is the point of the table. Every rep asserts the
//! mid-cut snapshot equals a sequential reference fed exactly the
//! `clock ≤ t` prefix, and the stable-cut snapshot equals the full
//! materialized store — the CI smoke step relies on this.
//!
//! Run with `cargo bench -p uc-bench --bench snapshot`. A full run
//! writes `BENCH_snapshot.json` at the workspace root; set
//! `UC_BENCH_SMOKE=1` for a CI-sized run that writes nothing.

use std::time::Instant;
use uc_bench::harness::{self, median};
use uc_core::{CheckpointFactory, GcFactory, StoreMsg, UcStore};
use uc_sim::{generate_keyed, KeyedWorkloadSpec};
use uc_spec::{SetAdt, SetQuery, SetUpdate};

type Adt = SetAdt<u32>;
type CkptStore = UcStore<Adt, CheckpointFactory>;
type GcStore = UcStore<Adt, GcFactory>;

const EVERY: usize = 32;
const SHARDS: usize = 4;
const CLUSTER: usize = 2;

fn spec(smoke: bool) -> KeyedWorkloadSpec {
    KeyedWorkloadSpec {
        processes: 1,
        ops_per_process: if smoke { 3_000 } else { 30_000 },
        keys: 256,
        key_alpha: 1.1,
        universe: 64,
        zipf_alpha: 0.8,
        update_ratio: 1.0,
        insert_ratio: 0.7,
        mean_gap: 1,
        ooo_rate: 0.0,
        snapshot_rate: 0.0,
        seed: 0xC07,
    }
}

/// The one local update stream every store replays: `(key, update)`
/// in stamp order (local updates tick the clock once each, so op `i`
/// carries clock `i + 1`).
fn ops(spec: &KeyedWorkloadSpec) -> Vec<(u64, SetUpdate<u32>)> {
    generate_keyed(spec)
        .into_iter()
        .map(|op| {
            let u = match op.kind {
                uc_sim::SetOpKind::Insert(e) => SetUpdate::Insert(e as u32),
                uc_sim::SetOpKind::Delete(e) => SetUpdate::Delete(e as u32),
                uc_sim::SetOpKind::Read | uc_sim::SetOpKind::SnapshotRead => {
                    unreachable!("update_ratio is 1.0")
                }
            };
            (op.key, u)
        })
        .collect()
}

fn ckpt_store() -> CkptStore {
    UcStore::new(SetAdt::new(), 0, SHARDS, CheckpointFactory { every: EVERY })
}

struct Row {
    read_keys: usize,
    perkey_ns: u64,
    cut_cold_ns: u64,
    cut_stable_ns: u64,
}

fn main() {
    let smoke = harness::smoke();
    let reps = if smoke { 2 } else { 7 };
    let spec = spec(smoke);
    let stream = ops(&spec);
    let total = stream.len() as u64;
    let mid = total / 2;
    println!(
        "snapshot bench: {total} updates over {} keys, mid cut {mid}, reps {reps}{}",
        spec.keys,
        if smoke { " (smoke)" } else { "" }
    );

    // Cold-cut store: checkpoint strategy, no stability knowledge —
    // a cut query folds each key's `clock ≤ t` prefix from scratch.
    let mut cold = ckpt_store();
    for (key, u) in &stream {
        cold.update(*key, *u);
    }

    // Stable-cut store: GC strategy in a 2-cluster. After the peer's
    // heartbeat at the top clock the whole log is stable; one read
    // sweep compacts every key and warms the cached folds, so a cut
    // at the top costs clones instead of folds.
    let mut stable: GcStore = UcStore::new(SetAdt::new(), 0, SHARDS, GcFactory { n: CLUSTER });
    for (key, u) in &stream {
        stable.update(*key, *u);
    }
    let top = stable.clock();
    stable.apply_batch_owned(vec![StoreMsg::Heartbeat { pid: 1, clock: top }]);
    for key in stable.keys() {
        let _ = stable.query(key, &SetQuery::Read);
    }

    // References for the per-rep equality gate: the mid cut must match
    // a store fed exactly the first `mid` updates (local stamps are
    // the op index + 1, so the `clock ≤ mid` prefix is the first `mid`
    // ops), and the stable cut must match the fully ingested store.
    let mut mid_ref = ckpt_store();
    for (key, u) in &stream[..mid as usize] {
        mid_ref.update(*key, *u);
    }
    let all_keys = cold.keys();
    let mid_want: Vec<_> = all_keys
        .iter()
        .map(|&k| mid_ref.query(k, &SetQuery::Read))
        .collect();
    let top_want: Vec<_> = all_keys
        .iter()
        .map(|&k| cold.query(k, &SetQuery::Read))
        .collect();

    let read_key_counts: &[usize] = &[1, 10, 100];
    let mut rows: Vec<Row> = Vec::new();
    for &read_keys in read_key_counts {
        let keys: Vec<u64> = (0..read_keys as u64).collect();
        let mut perkey_samples = Vec::new();
        let mut cold_samples = Vec::new();
        let mut stable_samples = Vec::new();
        for _ in 0..reps {
            // K independent latest-state queries (no consistency).
            let t0 = Instant::now();
            for &k in &keys {
                let _ = cold.query(k, &SetQuery::Read);
            }
            perkey_samples.push(t0.elapsed().as_nanos() as u64);

            // One cold cut + K snapshot reads.
            let t0 = Instant::now();
            let snap = cold.snapshot_at(mid).expect("mid cut above any base");
            for &k in &keys {
                let _ = snap.query(k, &SetQuery::Read);
            }
            cold_samples.push(t0.elapsed().as_nanos() as u64);
            assert_eq!(snap.cut(), mid);
            let got: Vec<_> = all_keys
                .iter()
                .map(|&k| snap.query(k, &SetQuery::Read))
                .collect();
            assert_eq!(got, mid_want, "cold cut diverged from the prefix reference");

            // One stable cut + K snapshot reads.
            let t0 = Instant::now();
            let snap = stable.snapshot_at(top).expect("top cut above the bound");
            for &k in &keys {
                let _ = snap.query(k, &SetQuery::Read);
            }
            stable_samples.push(t0.elapsed().as_nanos() as u64);
            let got: Vec<_> = all_keys
                .iter()
                .map(|&k| snap.query(k, &SetQuery::Read))
                .collect();
            assert_eq!(got, top_want, "stable cut diverged from the full store");
        }
        rows.push(Row {
            read_keys,
            perkey_ns: median(perkey_samples),
            cut_cold_ns: median(cold_samples),
            cut_stable_ns: median(stable_samples),
        });
    }

    println!(
        "\n{:<10} {:>13} {:>13} {:>14} {:>13}",
        "read keys", "per-key ns", "cut-cold ns", "cut-stable ns", "stable/cold"
    );
    for r in &rows {
        println!(
            "{:<10} {:>13} {:>13} {:>14} {:>12.2}x",
            r.read_keys,
            r.perkey_ns,
            r.cut_cold_ns,
            r.cut_stable_ns,
            r.cut_cold_ns as f64 / r.cut_stable_ns.max(1) as f64
        );
    }
    println!(
        "\nnote: the cut columns include building the full {}-key snapshot, the \
         per-key column reads only K keys and guarantees nothing across them; \
         stable/cold is what a compacted stable prefix (cached fold, zero fold \
         steps) buys the same cut query.",
        spec.keys
    );

    let reads: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"read_keys\": {}, \"perkey_ns\": {}, \"cut_cold_ns\": {}, \
                 \"cut_stable_ns\": {}, \"cold_vs_perkey\": {:.2}, \"stable_vs_cold\": {:.2}}}",
                r.read_keys,
                r.perkey_ns,
                r.cut_cold_ns,
                r.cut_stable_ns,
                r.cut_cold_ns as f64 / r.perkey_ns.max(1) as f64,
                r.cut_cold_ns as f64 / r.cut_stable_ns.max(1) as f64
            )
        })
        .collect();
    harness::emit(
        "snapshot",
        &[
            (
                "config",
                format!(
                    "{{\"updates\": {total}, \"keys\": {}, \"mid_cut\": {mid}, \
                     \"shards\": {SHARDS}, \"checkpoint_every\": {EVERY}, \"reps\": {reps}}}",
                    spec.keys
                ),
            ),
            ("reads", harness::array(&reads)),
            (
                "note",
                "\"equality-verified every rep: mid cut == sequential prefix reference per \
                 key, stable cut == fully ingested store per key; cut columns build the \
                 whole multi-key snapshot (consistent), per-key column reads K latest \
                 states (tearable); stable_vs_cold is the cached-fold win from GC \
                 stability\""
                    .into(),
            ),
        ],
    );
}
