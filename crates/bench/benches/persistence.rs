//! E15 — persistence: in-memory vs segment-backed ingest, and
//! kill-and-reopen recovery latency.
//!
//! The same perturbed zipfian keyed stream is ingested in chunks on
//! identical stores three ways:
//!
//! * **mem**       — the [`MemBackend`] default (the pre-refactor
//!   baseline: journaling compiles to nothing);
//! * **seg**       — [`SegmentFactory`] with a `flush_backends` after
//!   every chunk (process-crash durable per burst: journal encode on
//!   the ingest path, one watermark record per touched key, then one
//!   write of each shard's buffer);
//! * **seg-fsync** — the same, with the factory's `fsync(true)`
//!   power-loss tier (one `fdatasync` per shard journal per flush,
//!   however many of the shard's keys were touched);
//! * **seg-lazy**  — flushed once at the end (write-behind: the
//!   ingest path only encodes into the shard buffers, which write
//!   through every 16 KiB, the way timer-driven flushing batches
//!   durability).
//!
//! After the durable ingest the store is dropped (**kill**) and
//! `UcStore::reopen` rebuilds every key as `fold(base) + replay(tail)`
//! — the timed **reopen** column, with a per-key cold-start figure.
//! All four stores (mem, seg, seg-lazy, reopened) must report
//! byte-identical per-key digests every rep — the CI smoke step
//! (`UC_BENCH_SMOKE=1`) is exactly this ingest → kill → reopen →
//! digest-assert loop under a hermetic tempdir.
//!
//! The seg-fsync store's `SegmentFactory::io_counts()` are printed per
//! `flush_backends` (`writes_per_flush`, `syncs_per_flush`). They are
//! counts, so they repeat exactly, smoke mode included, and CI gates
//! on `syncs_per_flush <= shards`: one commit per shard per flush.
//!
//! Run with `cargo bench -p uc-bench --bench persistence`. Results are
//! written to `BENCH_persistence.json` at the workspace root; every
//! run also prints a `BENCH_JSON {...}` one-liner so baseline
//! refreshes can be scripted (`grep '^BENCH_JSON '`).

use std::fmt::Write as _;
use std::time::Instant;
use uc_core::{state_digest, CheckpointFactory, NaiveFactory, StoreMsg, UcStore};
use uc_sim::{generate_keyed, perturb_order, KeyedWorkloadSpec};
use uc_spec::{SetAdt, SetUpdate};
use uc_storage::{IoCounts, ScratchDir, SegmentFactory};

type Msg = StoreMsg<SetUpdate<u32>>;
type Adt = SetAdt<u32>;
type MemStore = UcStore<Adt, CheckpointFactory>;
type SegStore = UcStore<Adt, CheckpointFactory, SegmentFactory>;

const CHUNK: usize = 2048;
const EVERY: usize = 32;
const SHARDS: usize = 4;

fn spec(smoke: bool) -> KeyedWorkloadSpec {
    KeyedWorkloadSpec {
        processes: 1,
        ops_per_process: if smoke { 4_000 } else { 40_000 },
        keys: 256,
        key_alpha: 1.1,
        universe: 64,
        zipf_alpha: 0.8,
        update_ratio: 1.0,
        insert_ratio: 0.7,
        mean_gap: 1,
        ooo_rate: 0.15,
        snapshot_rate: 0.0,
        seed: 0x5E6,
    }
}

fn keyed_stream(spec: &KeyedWorkloadSpec) -> Vec<Msg> {
    let mut producer: UcStore<Adt, NaiveFactory> = UcStore::new(SetAdt::new(), 1, 1, NaiveFactory);
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

fn digest_mem(store: &mut MemStore) -> Vec<(u64, u64)> {
    store
        .keys()
        .into_iter()
        .map(|k| (k, state_digest(&store.materialize_key(k))))
        .collect()
}

fn digest_seg(store: &mut SegStore) -> Vec<(u64, u64)> {
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

/// Total bytes under `dir`, recursively.
fn disk_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| {
            let p = e.path();
            if p.is_dir() {
                disk_bytes(&p)
            } else {
                e.metadata().map_or(0, |m| m.len())
            }
        })
        .sum()
}

fn main() {
    let smoke = std::env::var("UC_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let reps = if smoke { 2 } else { 5 };
    let spec = spec(smoke);
    let stream = keyed_stream(&spec);
    let total = stream.len();
    println!(
        "persistence bench: {total} updates over {} keys, chunk {CHUNK}, shards {SHARDS}, \
         reps {reps}{}",
        spec.keys,
        if smoke { " (smoke)" } else { "" }
    );

    let factory = CheckpointFactory { every: EVERY };
    let mut mem_samples = Vec::new();
    let mut seg_samples = Vec::new();
    let mut fsync_samples = Vec::new();
    let mut lazy_samples = Vec::new();
    let mut reopen_samples = Vec::new();
    let mut reopen_keys = 0usize;
    let mut disk = 0u64;
    let mut io = IoCounts::default();
    for rep in 0..reps {
        // In-memory baseline (and the digest reference).
        let mut mem: MemStore = UcStore::new(SetAdt::new(), 0, SHARDS, factory);
        let t0 = Instant::now();
        for chunk in stream.chunks(CHUNK) {
            mem.apply_batch(chunk);
        }
        mem_samples.push(t0.elapsed().as_nanos() as u64);
        let reference = digest_mem(&mut mem);

        // Segment-backed, durable per chunk.
        let tmp = ScratchDir::new(&format!("bench-seg-{rep}"));
        let persist = SegmentFactory::at(tmp.path()).expect("scratch store");
        let mut seg: SegStore =
            UcStore::with_persistence(SetAdt::new(), 0, SHARDS, factory, persist.clone());
        let t0 = Instant::now();
        for chunk in stream.chunks(CHUNK) {
            seg.apply_batch(chunk);
            seg.flush_backends();
        }
        seg_samples.push(t0.elapsed().as_nanos() as u64);
        assert_eq!(reference, digest_seg(&mut seg), "segment ingest diverged");
        disk = disk.max(disk_bytes(tmp.path()));

        // Kill and reopen from disk.
        drop(seg);
        let t0 = Instant::now();
        let mut back: SegStore =
            UcStore::reopen(SetAdt::new(), 0, SHARDS, factory, persist.clone());
        reopen_samples.push(t0.elapsed().as_nanos() as u64);
        reopen_keys = back.key_count();
        assert_eq!(
            reference,
            digest_seg(&mut back),
            "recovered store diverged from the never-restarted reference"
        );
        drop(back);

        // Segment-backed, fsync-per-flush (power-loss durability).
        let tmp = ScratchDir::new(&format!("bench-fsync-{rep}"));
        let persist = SegmentFactory::at(tmp.path())
            .expect("scratch store")
            .fsync(true);
        let mut synced: SegStore =
            UcStore::with_persistence(SetAdt::new(), 0, SHARDS, factory, persist.clone());
        let t0 = Instant::now();
        for chunk in stream.chunks(CHUNK) {
            synced.apply_batch(chunk);
            synced.flush_backends();
        }
        fsync_samples.push(t0.elapsed().as_nanos() as u64);
        assert_eq!(reference, digest_seg(&mut synced), "fsync ingest diverged");
        io = persist.io_counts();
        drop(synced);

        // Segment-backed, write-behind (one final flush).
        let tmp = ScratchDir::new(&format!("bench-lazy-{rep}"));
        let persist = SegmentFactory::at(tmp.path()).expect("scratch store");
        let mut lazy: SegStore =
            UcStore::with_persistence(SetAdt::new(), 0, SHARDS, factory, persist);
        let t0 = Instant::now();
        for chunk in stream.chunks(CHUNK) {
            lazy.apply_batch(chunk);
        }
        lazy.flush_backends();
        lazy_samples.push(t0.elapsed().as_nanos() as u64);
        assert_eq!(reference, digest_seg(&mut lazy), "lazy ingest diverged");
    }

    let mem_ns = median(mem_samples);
    let seg_ns = median(seg_samples);
    let fsync_ns = median(fsync_samples);
    let lazy_ns = median(lazy_samples);
    let reopen_ns = median(reopen_samples);
    let mops = |ns: u64| total as f64 * 1e3 / ns as f64;
    let us_per_key = reopen_ns as f64 / 1e3 / reopen_keys.max(1) as f64;
    println!("\n{:<10} {:>12} {:>12}", "path", "median ns", "Mops/s");
    println!("{:<10} {:>12} {:>12.2}", "mem", mem_ns, mops(mem_ns));
    println!("{:<10} {:>12} {:>12.2}", "seg", seg_ns, mops(seg_ns));
    println!(
        "{:<10} {:>12} {:>12.2}",
        "seg-fsync",
        fsync_ns,
        mops(fsync_ns)
    );
    println!("{:<10} {:>12} {:>12.2}", "seg-lazy", lazy_ns, mops(lazy_ns));
    println!(
        "\nreopen: {reopen_ns} ns for {reopen_keys} keys ({us_per_key:.1} µs/key cold), \
         {disk} bytes on disk"
    );
    let flushes = total.div_ceil(CHUNK) as f64;
    let writes_per_flush = io.writes as f64 / flushes;
    let syncs_per_flush = io.syncs as f64 / flushes;
    println!(
        "seg-fsync journal io per flush_backends: writes_per_flush={writes_per_flush} \
         syncs_per_flush={syncs_per_flush}"
    );

    let mut json = String::from("{\n  \"bench\": \"persistence\",\n");
    let _ = writeln!(
        json,
        "  \"config\": {{\"updates\": {total}, \"keys\": {}, \"chunk\": {CHUNK}, \
         \"shards\": {SHARDS}, \"checkpoint_every\": {EVERY}, \"reps\": {reps}, \
         \"parallelism\": {}, \"smoke\": {smoke}}},",
        spec.keys,
        std::thread::available_parallelism().map_or(1, |p| p.get())
    );
    let _ = writeln!(
        json,
        "  \"ingest\": {{\"mem_ns\": {mem_ns}, \"seg_ns\": {seg_ns}, \
         \"seg_fsync_ns\": {fsync_ns}, \"seg_lazy_ns\": {lazy_ns}, \
         \"mem_mops\": {:.3}, \"seg_mops\": {:.3}, \"seg_fsync_mops\": {:.3}, \
         \"seg_lazy_mops\": {:.3}, \"seg_vs_mem\": {:.2}, \"fsync_vs_mem\": {:.2}, \
         \"lazy_vs_mem\": {:.2}}},",
        mops(mem_ns),
        mops(seg_ns),
        mops(fsync_ns),
        mops(lazy_ns),
        seg_ns as f64 / mem_ns.max(1) as f64,
        fsync_ns as f64 / mem_ns.max(1) as f64,
        lazy_ns as f64 / mem_ns.max(1) as f64,
    );
    let _ = writeln!(
        json,
        "  \"reopen\": {{\"reopen_ns\": {reopen_ns}, \"keys\": {reopen_keys}, \
         \"us_per_key\": {us_per_key:.2}, \"disk_bytes\": {disk}}},"
    );
    let _ = writeln!(
        json,
        "  \"io\": {{\"writes_per_flush\": {writes_per_flush}, \
         \"syncs_per_flush\": {syncs_per_flush}}},"
    );
    json.push_str(
        "  \"note\": \"digest-verified every rep: mem == seg == seg-fsync == seg-lazy == \
         reopened; seg_vs_mem is the process-crash-durable per-burst overhead (encode, one \
         watermark record per touched key and one write per shard buffer per chunk), \
         fsync_vs_mem adds one fdatasync per shard journal per flush (power-loss tier), \
         lazy_vs_mem is pure write-behind; io is the seg-fsync store's journal writes \
         (commits plus 16 KiB write-throughs) and fdatasyncs per flush_backends, exact \
         counts; reopen scans one journal per shard and rebuilds every key as \
         fold(base) + replay(tail)\"\n",
    );
    json.push_str("}\n");

    println!(
        "\nBENCH_JSON {}",
        json.split_whitespace().collect::<Vec<_>>().join(" ")
    );
    if !smoke {
        let out = format!(
            "{}/../../BENCH_persistence.json",
            std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| ".".into())
        );
        std::fs::write(&out, json).expect("write baseline json");
        println!("wrote {out}");
    }
}
