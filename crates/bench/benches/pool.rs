//! E14 — persistent shard-worker pool vs sequential ingest.
//!
//! The same perturbed zipfian keyed stream is ingested in chunks two
//! ways, on identical stores:
//!
//! * **sequential** — [`UcStore::apply_batch`], one thread;
//! * **pool**       — [`UcStore::into_pool`]: long-lived workers fed
//!   by bounded queues; timing covers submit + the flush barrier, so
//!   the pool gets no credit for work still queued.
//!
//! Both must produce byte-identical stores (asserted via per-key
//! digests every rep — the CI smoke step relies on this). Queue-depth
//! high-water marks from the pool are recorded alongside throughput.
//!
//! Run with `cargo bench -p uc-bench --bench pool`. Results are
//! written to `BENCH_pool.json` at the workspace root; set
//! `UC_BENCH_SMOKE=1` for a tiny CI-sized run that skips the baseline
//! write. Every run also prints a `BENCH_JSON {...}` one-liner so
//! baseline refreshes can be scripted (`grep '^BENCH_JSON '`).

use std::fmt::Write as _;
use std::time::Instant;
use uc_core::{state_digest, CheckpointFactory, NaiveFactory, PoolConfig, StoreMsg, UcStore};
use uc_sim::{generate_keyed, perturb_order, KeyedWorkloadSpec};
use uc_spec::{SetAdt, SetUpdate};

type Msg = StoreMsg<SetUpdate<u32>>;
type Store = UcStore<SetAdt<u32>, CheckpointFactory>;

const CHUNK: usize = 4096;
const EVERY: usize = 32;

fn spec(smoke: bool) -> KeyedWorkloadSpec {
    KeyedWorkloadSpec {
        processes: 1,
        ops_per_process: if smoke { 6_000 } else { 60_000 },
        keys: 512,
        key_alpha: 1.1,
        universe: 64,
        zipf_alpha: 0.8,
        update_ratio: 1.0,
        insert_ratio: 0.7,
        mean_gap: 1,
        ooo_rate: 0.15,
        snapshot_rate: 0.0,
        seed: 0x9001,
    }
}

fn keyed_stream(spec: &KeyedWorkloadSpec) -> Vec<Msg> {
    let mut producer: UcStore<SetAdt<u32>, NaiveFactory> =
        UcStore::new(SetAdt::new(), 1, 1, NaiveFactory);
    let mut msgs: Vec<Msg> = generate_keyed(spec)
        .into_iter()
        .map(|op| {
            let u = match op.kind {
                uc_sim::SetOpKind::Insert(e) => SetUpdate::Insert(e as u32),
                uc_sim::SetOpKind::Delete(e) => SetUpdate::Delete(e as u32),
                uc_sim::SetOpKind::Read | uc_sim::SetOpKind::SnapshotRead => {
                    unreachable!("update_ratio is 1.0")
                }
            };
            producer.update(op.key, u)
        })
        .collect();
    perturb_order(&mut msgs, spec.ooo_rate, spec.seed ^ 0xBAD);
    msgs
}

fn store(shards: usize) -> Store {
    UcStore::new(SetAdt::new(), 0, shards, CheckpointFactory { every: EVERY })
}

fn digest(store: &mut Store) -> Vec<(u64, u64)> {
    store
        .keys()
        .into_iter()
        .map(|k| (k, state_digest(&store.materialize_key(k))))
        .collect()
}

fn median(mut samples: Vec<u64>) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

struct Row {
    shards: usize,
    seq_ns: u64,
    pool_ns: u64,
    queue_high_water: usize,
    pool_batches: u64,
}

fn main() {
    let smoke = std::env::var("UC_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let reps = if smoke { 2 } else { 7 };
    let shard_counts: &[usize] = if smoke { &[4] } else { &[1, 2, 4, 8] };
    let spec = spec(smoke);
    let stream = keyed_stream(&spec);
    let total = stream.len();
    let hw = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!(
        "pool bench: {total} updates over {} keys, chunk {CHUNK}, reps {reps}, \
         hardware parallelism {hw}{}",
        spec.keys,
        if smoke { " (smoke)" } else { "" }
    );

    let mut rows: Vec<Row> = Vec::new();
    for &shards in shard_counts {
        let mut seq_samples = Vec::new();
        let mut pool_samples = Vec::new();
        let mut queue_high_water = 0usize;
        let mut pool_batches = 0u64;
        let mut reference: Option<Vec<(u64, u64)>> = None;
        for _ in 0..reps {
            // Sequential.
            let mut s = store(shards);
            let t0 = Instant::now();
            for chunk in stream.chunks(CHUNK) {
                s.apply_batch(chunk);
            }
            seq_samples.push(t0.elapsed().as_nanos() as u64);
            let d = digest(&mut s);
            match &reference {
                None => reference = Some(d),
                Some(r) => assert_eq!(r, &d, "sequential diverged at {shards} shards"),
            }

            // Persistent pool: spawn outside the timed region (one-off
            // cost), but the flush barrier inside it (no credit for
            // queued-not-applied work).
            let mut pool = store(shards).into_pool(PoolConfig {
                workers: 0,
                queue_depth: 64,
                ..PoolConfig::default()
            });
            let t0 = Instant::now();
            for chunk in stream.chunks(CHUNK) {
                pool.submit_batch(chunk.to_vec()).expect("pool healthy");
            }
            pool.flush().expect("pool healthy");
            pool_samples.push(t0.elapsed().as_nanos() as u64);
            let stats = pool.stats();
            queue_high_water = queue_high_water.max(stats.max_queue_high_water());
            pool_batches = stats.total_batches();
            let mut s = pool.finish().expect("pool healthy");
            assert_eq!(
                reference.as_ref().expect("set above"),
                &digest(&mut s),
                "pool ingest diverged at {shards} shards"
            );
        }
        rows.push(Row {
            shards,
            seq_ns: median(seq_samples),
            pool_ns: median(pool_samples),
            queue_high_water,
            pool_batches,
        });
    }

    let mops = |ns: u64| total as f64 * 1e3 / ns as f64;
    println!(
        "\n{:<7} {:>14} {:>14} {:>10}",
        "shards", "seq Mops/s", "pool Mops/s", "queue hwm"
    );
    for r in &rows {
        println!(
            "{:<7} {:>14.2} {:>14.2} {:>10}",
            r.shards,
            mops(r.seq_ns),
            mops(r.pool_ns),
            r.queue_high_water
        );
    }
    println!(
        "\nnote: the pool pays submit + flush-barrier coordination the sequential path \
         does not; it needs idle cores to win wall-clock (hardware parallelism here: {hw})."
    );

    // The deterministic property CI gates on: both paths agreed
    // (asserted above). Wall-clock medians on shared runners are too
    // fuzzy for a hard ratio gate, so the assert is the digest
    // equality; the timings are recorded.
    let mut json = String::from("{\n  \"bench\": \"pool\",\n");
    let _ = writeln!(
        json,
        "  \"config\": {{\"updates\": {total}, \"keys\": {}, \"chunk\": {CHUNK}, \
         \"reps\": {reps}, \"queue_depth\": 64, \"parallelism\": {hw}, \"smoke\": {smoke}}},",
        spec.keys
    );
    json.push_str("  \"ingest_paths\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"shards\": {}, \"seq_ns\": {}, \"pool_ns\": {}, \
             \"seq_mops\": {:.3}, \"pool_mops\": {:.3}, \
             \"pool_batches\": {}, \"queue_high_water\": {}}}",
            r.shards,
            r.seq_ns,
            r.pool_ns,
            mops(r.seq_ns),
            mops(r.pool_ns),
            r.pool_batches,
            r.queue_high_water
        );
        json.push_str(if i + 1 == rows.len() { "\n" } else { ",\n" });
    }
    json.push_str("  ],\n");
    json.push_str(
        "  \"note\": \"digest-verified: pool == sequential per key; the pool pays submit + \
         flush-barrier coordination the one-thread path does not, so it needs idle cores \
         to win wall-clock; what it buys otherwise is backpressure and wait-free reads\"\n",
    );
    json.push_str("}\n");

    println!(
        "\nBENCH_JSON {}",
        json.split_whitespace().collect::<Vec<_>>().join(" ")
    );
    if !smoke {
        let out = format!(
            "{}/../../BENCH_pool.json",
            std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| ".".into())
        );
        std::fs::write(&out, json).expect("write baseline json");
        println!("wrote {out}");
    }
}
