//! E17 — reconciliation-on-heal: the digest-guided **chunked** heal
//! as the partition-era divergence grows.
//!
//! A majority replica and a partitioned (minority) replica share a
//! common prefix; the majority then ingests `D` further updates the
//! minority never sees. Heal streams exactly the suffix above the
//! outage-start watermark (shards whose divergence high water never
//! passed it are skipped), and the minority ingests each chunk through
//! the same deduplicating batch path as ordinary delivery.
//!
//! Two phases per run:
//!
//! 1. **chunked heal** — the heal driven end to end through the
//!    digest-guided, flow-controlled chunk dialogue
//!    ([`UcStore::peer_up`] and [`UcStore::apply_message_from`]).
//!    Reports wall-clock and the *peak in-flight entries* (sampled
//!    off the `heal_bytes_in_flight` gauge every protocol step),
//!    asserting it stays ≤ `window * chunk` — O(chunk) peak memory
//!    however large the divergence. Every rep asserts chunk-healed ==
//!    never-partitioned, per key.
//! 2. **digest skip** — a 16-shard pair diverging in exactly one key:
//!    the digest exchange must skip ≥ 90% of its slots (asserted),
//!    and the diverged key must still stream (equality-asserted) —
//!    the O(divergence) win and its collision-resistance gate.
//!
//! Run with `cargo bench -p uc-bench --bench partition`. Results are
//! written to `BENCH_partition.json` at the workspace root; set
//! `UC_BENCH_SMOKE=1` for a tiny CI-sized run that skips the baseline
//! write. Every run also prints a `BENCH_JSON {...}` one-liner so
//! baseline refreshes can be scripted (`grep '^BENCH_JSON '`).

use std::fmt::Write as _;
use std::time::Instant;
use uc_core::{CheckpointFactory, HealConfig, StoreMsg, UcStore};
use uc_sim::{generate_keyed, KeyedWorkloadSpec};
use uc_spec::{SetAdt, SetQuery, SetUpdate};

type Adt = SetAdt<u32>;
type Store = UcStore<Adt, CheckpointFactory>;

const EVERY: usize = 32;
const SHARDS: usize = 4;
/// Chunked-heal tuning under test: peak in-flight payload is bounded
/// by `CHUNK * WINDOW` entries regardless of divergence size.
const CHUNK: usize = 256;
const WINDOW: usize = 2;

fn spec(prefix: usize, divergence: usize, seed: u64) -> KeyedWorkloadSpec {
    KeyedWorkloadSpec {
        processes: 1,
        ops_per_process: prefix + divergence,
        keys: 256,
        key_alpha: 1.1,
        universe: 64,
        zipf_alpha: 0.8,
        update_ratio: 1.0,
        insert_ratio: 0.7,
        mean_gap: 1,
        ooo_rate: 0.0,
        snapshot_rate: 0.0,
        seed,
    }
}

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

fn store(pid: u32) -> Store {
    UcStore::new(
        SetAdt::new(),
        pid,
        SHARDS,
        CheckpointFactory { every: EVERY },
    )
}

fn median(mut samples: Vec<u64>) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Drive the full chunked-heal dialogue between two stores,
/// sampling the healer's in-flight gauge at every protocol step.
/// Returns (chunks streamed, peak in-flight bytes).
fn drive_chunked(healer: &mut Store, healed: &mut Store) -> (u64, u64) {
    let me = healer.pid();
    let peer = healed.pid();
    let Some(opener) = healer.peer_up(peer) else {
        return (0, 0);
    };
    let (mut chunks, mut peak) = (0u64, 0u64);
    let mut to_peer = vec![opener];
    while !to_peer.is_empty() {
        let mut to_me = Vec::new();
        for m in to_peer.drain(..) {
            if matches!(m, StoreMsg::RepairChunk { .. }) {
                chunks += 1;
            }
            to_me.extend(healed.apply_message_from(me, m).into_iter().map(|(_, m)| m));
        }
        peak = peak.max(healer.heal_bytes_in_flight());
        for m in to_me {
            to_peer.extend(
                healer
                    .apply_message_from(peer, m)
                    .into_iter()
                    .map(|(_, m)| m),
            );
        }
        peak = peak.max(healer.heal_bytes_in_flight());
    }
    (chunks, peak)
}

fn assert_equal_stores(a: &mut Store, b: &mut Store, label: &str) {
    for key in a.keys() {
        assert_eq!(
            a.query(key, &SetQuery::Read),
            b.query(key, &SetQuery::Read),
            "{label}: diverged on key {key}"
        );
    }
}

struct ChunkRow {
    divergence: usize,
    chunked_ns: u64,
    chunks: u64,
    peak_inflight_entries: u64,
}

fn main() {
    let smoke = std::env::var("UC_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let reps = if smoke { 2 } else { 7 };
    let prefix = if smoke { 2_000 } else { 20_000 };
    let divergences: &[usize] = if smoke {
        &[200, 800]
    } else {
        &[2_000, 8_000, 32_000]
    };
    let per_entry = (8 + 12 + std::mem::size_of::<SetUpdate<u32>>()) as u64;
    println!(
        "partition bench: prefix {prefix}, divergences {divergences:?}, reps {reps}, \
         chunk {CHUNK} x window {WINDOW}{}",
        if smoke { " (smoke)" } else { "" }
    );

    let mut chunk_rows: Vec<ChunkRow> = Vec::new();
    for (i, &divergence) in divergences.iter().enumerate() {
        let spec = spec(prefix, divergence, 0xBEA7 ^ i as u64);
        let stream = ops(&spec);

        // Majority replica (pid 0) issues every update; the minority
        // replica (pid 2) receives only the shared prefix before the
        // link drops.
        let mut majority = store(0);
        majority.set_heal_config(HealConfig {
            chunk: CHUNK,
            window: WINDOW,
            ..HealConfig::default()
        });
        let mut minority = store(2);
        for (key, u) in &stream[..prefix] {
            let m = majority.update(*key, *u);
            minority.apply_message(&m);
        }
        majority.peer_down(2);
        for (key, u) in &stream[prefix..] {
            majority.update(*key, *u);
        }

        // End to end on cloned pairs, so every rep heals the same
        // frozen divergence. The equality gate runs every rep:
        // chunk-healed == the never-partitioned majority (it saw each
        // update exactly once, locally).
        let mut chunked_samples = Vec::new();
        let mut chunks_streamed = 0u64;
        let mut peak_inflight = 0u64;
        for _ in 0..reps {
            let mut healer = majority.clone();
            let mut healed = minority.clone();
            let t0 = Instant::now();
            let (chunks, peak) = drive_chunked(&mut healer, &mut healed);
            chunked_samples.push(t0.elapsed().as_nanos() as u64);
            chunks_streamed = chunks;
            peak_inflight = peak_inflight.max(peak);
            assert_equal_stores(&mut healer, &mut healed, "chunked heal");
            assert_eq!(
                healer.heal_replay_bytes(),
                divergence as u64 * per_entry,
                "the stream must be exactly the partition-era updates"
            );
        }
        let peak_entries = peak_inflight / per_entry;
        assert!(
            peak_entries <= (CHUNK * WINDOW) as u64,
            "chunked heal peak in-flight ({peak_entries} entries) must stay \
             within window * chunk ({})",
            CHUNK * WINDOW
        );
        assert!(
            chunks_streamed >= divergence.div_ceil(CHUNK) as u64,
            "divergence {divergence} needs ≥ {} chunks of {CHUNK}",
            divergence.div_ceil(CHUNK)
        );

        chunk_rows.push(ChunkRow {
            divergence,
            chunked_ns: median(chunked_samples),
            chunks: chunks_streamed,
            peak_inflight_entries: peak_entries,
        });
    }

    // Digest-skip phase: 16 shards, fully converged pair, then exactly
    // one key diverges. The digest exchange must skip ≥ 90% of its
    // slots — and must still stream the diverged key.
    let digest_shards = 16usize;
    let mut healer = UcStore::new(
        SetAdt::new(),
        0,
        digest_shards,
        CheckpointFactory { every: EVERY },
    );
    let mut healed = UcStore::new(
        SetAdt::new(),
        2,
        digest_shards,
        CheckpointFactory { every: EVERY },
    );
    for i in 0..512u64 {
        let m = healer.update(i % 128, SetUpdate::Insert(i as u32));
        healed.apply_message(&m);
    }
    healer.peer_down(2);
    for i in 0..32u64 {
        healer.update(7, SetUpdate::Insert(1_000 + i as u32));
    }
    let t0 = Instant::now();
    let (digest_chunks, _) = drive_chunked(&mut healer, &mut healed);
    let digest_ns = t0.elapsed().as_nanos() as u64;
    let total_slots = digest_shards as u64 * healer.heal_config().ranges as u64;
    let skipped = healer.heal_digest_skips();
    let skip_ratio = skipped as f64 / total_slots as f64;
    assert!(
        skip_ratio >= 0.9,
        "one diverged key of 128 must skip ≥ 90% of {total_slots} slots, \
         skipped {skipped} ({skip_ratio:.3})"
    );
    assert_eq!(
        healer.query(7, &SetQuery::Read),
        healed.query(7, &SetQuery::Read),
        "the diverged key must never be digest-skipped"
    );

    println!(
        "\n{:<11} {:>12} {:>7} {:>14}",
        "divergence", "chunked ns", "chunks", "peak-inflight"
    );
    for r in &chunk_rows {
        println!(
            "{:<11} {:>12} {:>7} {:>14}",
            r.divergence, r.chunked_ns, r.chunks, r.peak_inflight_entries
        );
    }
    println!(
        "\ndigest skip: {skipped}/{total_slots} slots skipped ({:.1}%), {digest_chunks} \
         chunk(s) streamed for the diverged key, {digest_ns} ns end to end",
        skip_ratio * 100.0
    );
    println!(
        "\nnote: chunked = the digest-guided flow-controlled heal dialogue end to \
         end, streaming the suffix above the outage watermark (shards whose high \
         water never passed it are skipped; peak in-flight bounded by window * \
         chunk = {}); healed state is equality-verified against the \
         never-partitioned control every rep.",
        CHUNK * WINDOW
    );

    let mut json = String::from("{\n  \"bench\": \"partition\",\n");
    let _ = writeln!(
        json,
        "  \"config\": {{\"prefix\": {prefix}, \"shards\": {SHARDS}, \
         \"checkpoint_every\": {EVERY}, \"reps\": {reps}, \"chunk\": {CHUNK}, \
         \"window\": {WINDOW}, \"smoke\": {smoke}}},"
    );
    json.push_str("  \"chunked\": [\n");
    for (i, r) in chunk_rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"divergence\": {}, \"chunked_ns\": {}, \"chunks\": {}, \
             \"peak_inflight_entries\": {}}}",
            r.divergence, r.chunked_ns, r.chunks, r.peak_inflight_entries
        );
        json.push_str(if i + 1 == chunk_rows.len() {
            "\n"
        } else {
            ",\n"
        });
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"digest_skip\": {{\"shards\": {digest_shards}, \"slots\": {total_slots}, \
         \"skipped\": {skipped}, \"skip_ratio\": {skip_ratio:.3}, \
         \"chunks\": {digest_chunks}, \"heal_ns\": {digest_ns}}},"
    );
    json.push_str(
        "  \"note\": \"equality-verified every rep: chunk-healed == never-partitioned \
         majority per key; chunked drives the digest-guided flow-controlled dialogue \
         end to end, streaming exactly the suffix above the outage-start watermark, \
         with peak in-flight asserted <= window * chunk; \
         digest_skip diverges one key of 128 across 16 shards and asserts >= 90% of \
         slots skipped with the diverged key still streamed\"\n",
    );
    json.push_str("}\n");

    println!(
        "\nBENCH_JSON {}",
        json.split_whitespace().collect::<Vec<_>>().join(" ")
    );
    if !smoke {
        let out = format!(
            "{}/../../BENCH_partition.json",
            std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| ".".into())
        );
        std::fs::write(&out, json).expect("write baseline json");
        println!("wrote {out}");
    }
}
