//! E13 — sharded multi-object store: 1-shard vs N-shard ingest
//! throughput and per-key repair locality on a zipfian keyed workload.
//!
//! A producer replica issues keyed updates with zipf-skewed key
//! popularity (hot keys dominate), the stream is perturbed to model
//! out-of-order delivery, and a consumer store ingests it in bursts
//! through the per-shard batched path ([`UcStore::apply_batch`]).
//! Measured:
//!
//! * **shard scaling** — identical streams into stores with 1, 2, 4, 8
//!   shards, ingested on one thread: what splitting a burst by shard
//!   costs when nothing runs side by side, so the curve should be flat
//!   (the `pool` bench runs the shards on worker threads);
//! * **repair locality** — after ingesting the stream, a small burst
//!   of *late* messages (timestamps older than the whole history)
//!   lands on the hottest key. With the store's per-key logs the
//!   repair refolds only that key's suffix; the same workload
//!   multiplexed into a *single* Algorithm 1 log (keys erased by
//!   element re-encoding) refolds every key's updates.
//!
//! * **idle keys** — what one heartbeat + `tick_maintenance` +
//!   `flush_backends` costs a GC store with 64 keys holding
//!   un-compacted entries beside 1 k, 16 k and 128 k keys whose logs
//!   are fully compacted. The sweeps visit the 64, so the rows sit
//!   together; a store that walked every engine would grow linearly.
//!
//! Run with `cargo bench -p uc-bench --bench store`. Results are also
//! written to `BENCH_store.json` at the workspace root so successive
//! PRs accumulate a perf trajectory.

use std::fmt::Write as _;
use std::time::Instant;
use uc_core::{
    CachedReplica, CheckpointFactory, GcFactory, NaiveFactory, Replica, StoreMsg, UcStore,
    UpdateMsg,
};
use uc_sim::{generate_keyed, perturb_order, KeyedWorkloadSpec, SetOpKind};
use uc_spec::{SetAdt, SetUpdate};

type Msg = StoreMsg<SetUpdate<u32>>;

const REPS: usize = 7;
const CHUNK: usize = 4096;
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const EVERY: usize = 32;
const HOT_KEYS: u64 = 64;
const IDLE_KEY_COUNTS: [u64; 3] = [1 << 10, 1 << 14, 1 << 17];
const IDLE_REPS: usize = 31;

fn spec() -> KeyedWorkloadSpec {
    KeyedWorkloadSpec {
        processes: 1,
        ops_per_process: 60_000,
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
    }
}

fn to_update(kind: SetOpKind) -> SetUpdate<u32> {
    match kind {
        SetOpKind::Insert(e) => SetUpdate::Insert(e as u32),
        SetOpKind::Delete(e) => SetUpdate::Delete(e as u32),
        SetOpKind::Read | SetOpKind::SnapshotRead => unreachable!("update_ratio is 1.0"),
    }
}

/// The keyed stream, as a remote producer's broadcast, perturbed to
/// model out-of-order links.
fn keyed_stream(spec: &KeyedWorkloadSpec) -> Vec<Msg> {
    let mut producer: UcStore<SetAdt<u32>, NaiveFactory> =
        UcStore::new(SetAdt::new(), 1, 1, NaiveFactory);
    let mut msgs: Vec<Msg> = generate_keyed(spec)
        .into_iter()
        .map(|op| producer.update(op.key, to_update(op.kind)))
        .collect();
    perturb_order(&mut msgs, spec.ooo_rate, spec.seed ^ 0xBAD);
    msgs
}

/// The same workload collapsed into a single object: elements are
/// re-encoded `key·universe + elem` so one log carries every key's
/// updates (what a store without per-key logs would do).
fn single_log_stream(spec: &KeyedWorkloadSpec) -> Vec<UpdateMsg<SetUpdate<u32>>> {
    let mut producer: CachedReplica<SetAdt<u32>> =
        CachedReplica::with_checkpoint_every(SetAdt::new(), 1, EVERY);
    let mut msgs: Vec<UpdateMsg<SetUpdate<u32>>> = generate_keyed(spec)
        .into_iter()
        .map(|op| {
            let enc = |e: usize| (op.key as u32) * spec.universe as u32 + e as u32;
            let u = match op.kind {
                SetOpKind::Insert(e) => SetUpdate::Insert(enc(e)),
                SetOpKind::Delete(e) => SetUpdate::Delete(enc(e)),
                SetOpKind::Read | SetOpKind::SnapshotRead => unreachable!("update_ratio is 1.0"),
            };
            producer.update(u)
        })
        .collect();
    perturb_order(&mut msgs, spec.ooo_rate, spec.seed ^ 0xBAD);
    msgs
}

fn median(mut samples: Vec<u64>) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Median time of one heartbeat + maintenance tick + backend flush on
/// a two-replica GC store holding `idle` fully compacted keys, with
/// [`HOT_KEYS`] more made live (one fresh entry each) before every
/// timed round. The round compacts the hot keys again, so each
/// repetition starts from the same store.
fn idle_keys_round_ns(idle: u64) -> u64 {
    let mut peer: UcStore<SetAdt<u32>, NaiveFactory> =
        UcStore::new(SetAdt::new(), 1, 1, NaiveFactory);
    let mut store: UcStore<SetAdt<u32>, GcFactory> =
        UcStore::new(SetAdt::new(), 0, 8, GcFactory { n: 2 });
    let preload: Vec<Msg> = (0..idle + HOT_KEYS)
        .map(|key| peer.update(key, SetUpdate::Insert(key as u32)))
        .collect();
    store.apply_batch_owned(preload);
    // Own clock at the tick, the peer's by heartbeat: everything
    // delivered is stable and folds into the bases.
    store.tick_maintenance();
    store.apply_message(&peer.heartbeat());
    assert_eq!(store.total_log_len(), 0, "preload must compact away");
    assert_eq!(store.key_count() as u64, idle + HOT_KEYS);

    let mut samples = Vec::with_capacity(IDLE_REPS);
    for rep in 0..IDLE_REPS {
        let hot: Vec<Msg> = (0..HOT_KEYS)
            .map(|key| peer.update(idle + key, SetUpdate::Insert(rep as u32)))
            .collect();
        store.apply_batch_owned(hot);
        assert_eq!(store.live_keys() as u64, HOT_KEYS);
        let heartbeat = peer.heartbeat();
        let t0 = Instant::now();
        store.tick_maintenance();
        store.apply_message(&heartbeat);
        store.flush_backends();
        samples.push(t0.elapsed().as_nanos() as u64);
        assert_eq!(
            store.total_log_len(),
            0,
            "the round must compact the hot keys"
        );
    }
    median(samples)
}

fn main() {
    let spec = spec();
    let stream = keyed_stream(&spec);
    let total = stream.len();
    println!(
        "zipfian keyed workload: {total} updates over {} keys (alpha {}), ooo {}",
        spec.keys, spec.key_alpha, spec.ooo_rate
    );

    // Shard scaling.
    struct Row {
        shards: usize,
        median_ns: u64,
        throughput_mops: f64,
        repair_steps: u64,
    }
    let mut rows: Vec<Row> = Vec::new();
    let mut reference_digest: Option<Vec<(u64, u64)>> = None;
    // Round-robin over shard counts within each rep, so slow drift of
    // the host (frequency scaling, allocator state) hits every
    // configuration equally instead of penalizing whichever is
    // measured last.
    let mut samples: Vec<Vec<u64>> = vec![Vec::new(); SHARD_COUNTS.len()];
    let mut repair_steps = vec![0u64; SHARD_COUNTS.len()];
    for _rep in 0..REPS {
        for (idx, shards) in SHARD_COUNTS.into_iter().enumerate() {
            let mut store: UcStore<SetAdt<u32>, CheckpointFactory> =
                UcStore::new(SetAdt::new(), 0, shards, CheckpointFactory { every: EVERY });
            let t0 = Instant::now();
            for chunk in stream.chunks(CHUNK) {
                store.apply_batch(chunk);
            }
            samples[idx].push(t0.elapsed().as_nanos() as u64);
            repair_steps[idx] = store.total_repair_steps();
            // Shard count must not change semantics: compare a
            // per-key content hash across configurations.
            let digest: Vec<(u64, u64)> = store
                .keys()
                .into_iter()
                .map(|k| (k, uc_core::state_digest(&store.materialize_key(k))))
                .collect();
            match &reference_digest {
                None => reference_digest = Some(digest),
                Some(r) => assert_eq!(r, &digest, "{shards}-shard store diverged"),
            }
        }
    }
    for (idx, shards) in SHARD_COUNTS.into_iter().enumerate() {
        let median_ns = median(samples[idx].clone());
        rows.push(Row {
            shards,
            median_ns,
            throughput_mops: total as f64 * 1e3 / median_ns as f64,
            repair_steps: repair_steps[idx],
        });
    }

    // Repair locality: a late out-of-order burst on the hottest key
    // (key 0 under zipf), with timestamps ordering before the whole
    // ingested history. Per-key logs repair only key 0's suffix; a
    // single multiplexed log repairs everything after the burst's
    // insertion point — nearly the entire history.
    let late_burst = 64usize;
    let late_keyed: Vec<Msg> = {
        let mut old: UcStore<SetAdt<u32>, NaiveFactory> =
            UcStore::new(SetAdt::new(), 2, 1, NaiveFactory);
        (0..late_burst)
            .map(|i| old.update(0, SetUpdate::Insert(90_000 + i as u32)))
            .collect()
    };
    let mut keyed: UcStore<SetAdt<u32>, CheckpointFactory> =
        UcStore::new(SetAdt::new(), 0, 1, CheckpointFactory { every: EVERY });
    for chunk in stream.chunks(CHUNK) {
        keyed.apply_batch(chunk);
    }
    let before = keyed.total_repair_steps();
    let t0 = Instant::now();
    keyed.apply_batch(&late_keyed);
    let keyed_late_ns = t0.elapsed().as_nanos() as u64;
    let keyed_late_steps = keyed.total_repair_steps() - before;

    let single_stream = single_log_stream(&spec);
    let late_single: Vec<UpdateMsg<SetUpdate<u32>>> = {
        let mut old: CachedReplica<SetAdt<u32>> =
            CachedReplica::with_checkpoint_every(SetAdt::new(), 2, EVERY);
        (0..late_burst)
            .map(|i| old.update(SetUpdate::Insert(900_000 + i as u32)))
            .collect()
    };
    let mut single: CachedReplica<SetAdt<u32>> =
        CachedReplica::with_checkpoint_every(SetAdt::new(), 0, EVERY);
    for chunk in single_stream.chunks(CHUNK) {
        single.on_batch(chunk);
    }
    let before = single.repair_steps();
    let t0 = Instant::now();
    single.on_batch(&late_single);
    let single_late_ns = t0.elapsed().as_nanos() as u64;
    let single_late_steps = single.repair_steps() - before;

    println!(
        "\n{:<7} {:>14} {:>14} {:>14}",
        "shards", "median", "Mops/s", "repair steps"
    );
    for r in &rows {
        println!(
            "{:<7} {:>11} ns {:>14.2} {:>14}",
            r.shards, r.median_ns, r.throughput_mops, r.repair_steps
        );
    }
    let locality_factor = single_late_steps as f64 / keyed_late_steps.max(1) as f64;
    println!(
        "\nrepair locality (late {late_burst}-msg burst on the hot key): per-key log repaired \
         {keyed_late_steps} steps in {keyed_late_ns} ns; single multiplexed log repaired \
         {single_late_steps} steps in {single_late_ns} ns ({locality_factor:.1}x less repair)"
    );

    // Idle keys: the cost of a heartbeat + tick + flush must follow
    // the keys holding entries, not the key count.
    let idle_rows: Vec<(u64, u64)> = IDLE_KEY_COUNTS
        .into_iter()
        .map(|idle| (idle, idle_keys_round_ns(idle)))
        .collect();
    println!(
        "\nidle keys (one heartbeat + tick_maintenance + flush_backends, {HOT_KEYS} live keys):"
    );
    for (idle, ns) in &idle_rows {
        println!("{idle:>8} idle keys {ns:>10} ns");
    }

    // Wall-clock medians on shared runners are too noisy to gate CI
    // on; the scaling numbers are recorded in the JSON and only the
    // deterministic repair-locality property is asserted.
    assert!(
        keyed_late_steps < single_late_steps / 4,
        "per-key logs must localize repair: {keyed_late_steps} vs {single_late_steps}"
    );

    let mut json = String::from("{\n  \"bench\": \"store\",\n");
    let _ = writeln!(
        json,
        "  \"config\": {{\"updates\": {total}, \"keys\": {}, \"key_alpha\": {}, \
         \"ooo_rate\": {}, \"chunk\": {CHUNK}, \"reps\": {REPS}, \"parallelism\": {}}},",
        spec.keys,
        spec.key_alpha,
        spec.ooo_rate,
        std::thread::available_parallelism().map_or(1, |p| p.get())
    );
    json.push_str("  \"shard_scaling\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"shards\": {}, \"median_ns\": {}, \"throughput_mops\": {:.3}, \
             \"repair_steps\": {}}}",
            r.shards, r.median_ns, r.throughput_mops, r.repair_steps
        );
        json.push_str(if i + 1 == rows.len() { "\n" } else { ",\n" });
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"repair_locality\": {{\"late_burst\": {late_burst}, \
         \"per_key_log_steps\": {keyed_late_steps}, \"per_key_log_ns\": {keyed_late_ns}, \
         \"single_log_steps\": {single_late_steps}, \"single_log_ns\": {single_late_ns}, \
         \"locality_factor\": {locality_factor:.1}}},"
    );
    let _ = writeln!(
        json,
        "  \"idle_keys\": {{\"live_keys\": {HOT_KEYS}, \"reps\": {IDLE_REPS}, \"rows\": [{}]}}",
        idle_rows
            .iter()
            .map(|(idle, ns)| format!("{{\"idle_keys\": {idle}, \"round_ns\": {ns}}}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    json.push_str("}\n");

    // One-line machine-readable summary (baseline refreshes grep for
    // `^BENCH_JSON ` instead of hand-editing the checked-in file).
    println!(
        "\nBENCH_JSON {}",
        json.split_whitespace().collect::<Vec<_>>().join(" ")
    );
    let out = format!(
        "{}/../../BENCH_store.json",
        std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| ".".into())
    );
    std::fs::write(&out, json).expect("write baseline json");
    println!("wrote {out}");
}
