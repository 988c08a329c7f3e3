//! `pool-mixed`: writes beside reads on one [`IngestPool`].
//!
//! A burst is 4096 peer updates (stamped as a remote replica would,
//! 15 % of them out of order within the burst, closed by that
//! replica's heartbeat) handed to `submit_batch`; beside the worker's
//! ingest the driver issues 256 local `update`s and 2048
//! `query_snapshot` reads, then the maintenance tick and `flush()`.
//! The pool has one worker, so this is the only workload with a second
//! runnable thread.

use crate::cluster::{Adt, Upd, SHARDS};
use crate::host;
use crate::input::Inputs;
use crate::layers::{self, Pass};
use crate::metrics::Outcome;
use crate::oracle::{Acked, Oracle};
use crate::wrap::{self, SpanName};
use crate::Plan;
use std::time::Instant;
use uc_core::{
    GcFactory, IngestPool, PoolConfig, PoolStats, StoreMsg, Timestamp, UcStore, UpdateMsg,
};
use uc_sim::perturb_order;
use uc_spec::{SetAdt, SetQuery};

const NAME: &str = "pool-mixed";
const KEYS: usize = 4096;
const BURST: usize = 4096;
/// A burst is an epoch (~5 ms): the shorter the epoch, the likelier
/// that some fall between a neighbour's bursts.
const BURSTS_PER_EPOCH: usize = 1;
/// Local updates and snapshot reads beside each burst, issued as
/// `SLICES` alternating blocks.
const LOCAL_UPDATES: usize = 256;
const SNAPSHOT_READS: usize = 2048;
const SLICES: usize = 8;
const OUT_OF_ORDER: f64 = 0.15;
/// The pool is replica 0 of two; bursts come from replica 1.
const REMOTE: u32 = 1;

type Pool = IngestPool<Adt, GcFactory>;

/// The remote replica as the pool sees it: a clock that has heard
/// everything the pool broadcast, stamping a burst at a time.
struct Remote {
    clock: u64,
}

impl Remote {
    /// Stamp `updates` in order, reorder 15 % of them within the
    /// burst, and close the burst with the heartbeat a tick would send.
    fn burst(
        &mut self,
        pool: &Pool,
        updates: Vec<(u64, Upd)>,
        seed: u64,
        acked: &mut Vec<Acked>,
    ) -> Vec<StoreMsg<Upd>> {
        self.clock = self.clock.max(pool.clock());
        let mut msgs: Vec<StoreMsg<Upd>> = updates
            .into_iter()
            .map(|(key, update)| {
                self.clock += 1;
                let ts = Timestamp::new(self.clock, REMOTE);
                StoreMsg::Update {
                    key,
                    msg: UpdateMsg { ts, update },
                }
            })
            .collect();
        perturb_order(&mut msgs, OUT_OF_ORDER, seed);
        for m in &msgs {
            if let StoreMsg::Update { key, msg } = m {
                acked.push((msg.ts, *key, msg.update));
            }
        }
        msgs.push(StoreMsg::Heartbeat {
            pid: REMOTE,
            clock: self.clock,
        });
        msgs
    }
}

struct Bench {
    pool: Pool,
    remote: Remote,
    oracle: Oracle,
    inputs: Inputs,
    /// The pool's one worker thread.
    worker_tid: u64,
}

/// Build the pool from nothing, preload every key, and arm the
/// published snapshots every shard serves reads from.
fn build(seed: u64) -> Bench {
    let before = host::thread_ids();
    let store: UcStore<Adt, GcFactory> = UcStore::new(SetAdt::new(), 0, SHARDS, GcFactory { n: 2 });
    let pool = store.into_pool(PoolConfig {
        workers: 1,
        queue_depth: 64,
        ..PoolConfig::default()
    });
    let worker_tid = host::thread_ids()
        .into_iter()
        .find(|t| !before.contains(t))
        .unwrap_or(0);
    let mut b = Bench {
        pool,
        remote: Remote { clock: 0 },
        oracle: Oracle::new(KEYS),
        inputs: Inputs::new(seed, KEYS),
        worker_tid,
    };
    let mut acked = Vec::new();
    let preload = b.inputs.preload();
    for chunk in preload.chunks(BURST) {
        let seed = b.inputs.split_seed();
        let msgs = b.remote.burst(&b.pool, chunk.to_vec(), seed, &mut acked);
        b.pool.submit_batch(msgs).expect("preload burst");
    }
    for key in 0..KEYS as u64 {
        std::hint::black_box(b.pool.query_snapshot(key, &SetQuery::Read));
    }
    b.pool.tick_maintenance().expect("preload tick");
    b.pool.flush().expect("preload flush");
    b.oracle.fold(&mut acked);
    b
}

/// One repetition of `setup_s` (see [`Plan::before_epoch`]).
pub fn setup(seed: u64) -> Vec<(&'static str, f64)> {
    crate::timed_setup(|| build(seed))
}

/// What the pool's own counters say a pass did.
#[derive(Default)]
struct PoolCounts {
    batches: u64,
    messages: u64,
    published: u64,
    shed: u64,
    high_water: usize,
    worker_cpu_ns: u64,
    bursts: u64,
}

fn snapshot(stats: &PoolStats) -> (u64, u64, u64, u64) {
    (
        stats.total_batches(),
        stats.total_messages(),
        stats.total_snapshots_published(),
        stats.total_shed(),
    )
}

fn measure<const TRACED: bool>(plan: &Plan, epochs: usize, b: &mut Bench) -> (Pass, PoolCounts) {
    let mut pass = Pass::default();
    let mut counts = PoolCounts::default();
    let mut acked: Vec<Acked> = Vec::with_capacity(BURSTS_PER_EPOCH * (BURST + LOCAL_UPDATES));
    let mut vis: Vec<u32> = Vec::with_capacity(BURSTS_PER_EPOCH);
    let before = snapshot(&b.pool.stats());
    let cpu_before = host::thread_cpu_ns(b.worker_tid);
    let span = |name: SpanName| wrap::section(TRACED, name);
    let close = wrap::end_section;
    for epoch in 0..epochs {
        if Instant::now() > plan.deadline {
            pass.cut_short = true;
            break;
        }
        plan.before_epoch(epoch);
        vis.clear();
        if TRACED {
            wrap::reset();
        }
        let (mut burst_ns, mut read_ns) = (0u64, 0u64);
        for _ in 0..BURSTS_PER_EPOCH {
            let seed = b.inputs.split_seed();
            let peer = b.inputs.updates(BURST);
            let msgs = b.remote.burst(&b.pool, peer, seed, &mut acked);
            let local = b.inputs.updates(LOCAL_UPDATES);
            let reads = b.inputs.keys(SNAPSHOT_READS);

            let t0 = Instant::now();
            let burst_section = span(SpanName::BenchUpdates);
            let s = span(SpanName::PoolSubmit);
            if b.pool.submit_batch(msgs).is_err() {
                pass.failed += 1;
            }
            close(s);
            for slice in 0..SLICES {
                let (ul, rl) = (LOCAL_UPDATES / SLICES, SNAPSHOT_READS / SLICES);
                for (key, u) in &local[slice * ul..(slice + 1) * ul] {
                    let s = span(SpanName::PoolLocalUpdate);
                    let sent = b.pool.update(*key, *u);
                    close(s);
                    match sent {
                        Ok(StoreMsg::Update { key, msg }) => acked.push((msg.ts, key, msg.update)),
                        _ => pass.failed += 1,
                    }
                }
                let r0 = Instant::now();
                for key in &reads[slice * rl..(slice + 1) * rl] {
                    let s = span(SpanName::PoolSnapshotRead);
                    let out = b.pool.query_snapshot(*key, &SetQuery::Read);
                    close(s);
                    std::hint::black_box(out);
                }
                read_ns += r0.elapsed().as_nanos() as u64;
            }
            if b.pool.tick_maintenance().is_err() {
                pass.failed += 1;
            }
            let s = span(SpanName::PoolFlush);
            if b.pool.flush().is_err() {
                pass.failed += 1;
            }
            close(s);
            close(burst_section);
            let burst = t0.elapsed().as_nanos() as u64;
            burst_ns += burst;
            vis.push(burst.min(u32::MAX as u64) as u32);
        }
        counts.bursts += BURSTS_PER_EPOCH as u64;
        let updates = (BURSTS_PER_EPOCH * (BURST + LOCAL_UPDATES)) as u64;
        let reads = (BURSTS_PER_EPOCH * SNAPSHOT_READS) as u64;
        // Reads run beside the ingest, inside the burst's time.
        pass.record_epoch(updates, burst_ns, reads, read_ns, &mut vis);
        pass.timed_ns += burst_ns;
        if TRACED {
            let dump = (epoch == 0).then(|| host::out_dir().join(format!("spans-{NAME}.tsv")));
            wrap::fold_into(&mut pass.totals, dump.as_deref());
        }
        b.oracle.fold(&mut acked);
    }
    let stats = b.pool.stats();
    let after = snapshot(&stats);
    counts.batches = after.0 - before.0;
    counts.messages = after.1 - before.1;
    counts.published = after.2 - before.2;
    counts.shed = after.3 - before.3;
    counts.high_water = stats.max_queue_high_water();
    counts.worker_cpu_ns = host::thread_cpu_ns(b.worker_tid) - cpu_before;
    pass.failed += counts.shed;
    (pass, counts)
}

/// Stop the pool and compare what it holds against the oracle.
fn finish(b: Bench, out: &mut Outcome) {
    let Bench {
        pool, mut oracle, ..
    } = b;
    match pool.finish() {
        Ok(mut store) => {
            let bad = oracle.mismatches("pool", |key| store.materialize_key(key));
            out.failed += bad;
            out.correct &= bad == 0;
            out.notes.push(format!(
                "oracle: {} updates folded, {} keys compared with the fold and the sequential reference, {bad} differ",
                oracle.folded,
                store.key_count()
            ));
        }
        Err(e) => {
            out.failed += 1;
            out.correct = false;
            out.notes.push(format!("pool failed: {e}"));
        }
    }
}

pub fn run(plan: &Plan) -> Outcome {
    let mut out = Outcome::new(NAME, plan.seed);
    if plan.traced {
        let mut b = build(plan.seed);
        let (plain, _) = measure::<false>(plan, plan.epochs / 4, &mut b);
        let (mut traced, counts) = measure::<true>(plan, plan.epochs / 4, &mut b);
        finish(b, &mut out);
        layers::report_bench(&plain, &traced, &mut out);
        let t = &mut traced.totals;
        out.set(
            "pool.submit_us_per_update",
            t.total_of(SpanName::PoolSubmit) as f64 / 1e3 / (counts.bursts * BURST as u64) as f64,
        );
        out.set(
            "pool.local_update_ns_p50",
            t.dur_percentile(SpanName::PoolLocalUpdate, 50.0),
        );
        out.set(
            "pool.flush_wait_us_p50",
            t.dur_percentile(SpanName::PoolFlush, 50.0) / 1e3,
        );
        out.set(
            "pool.query_snapshot_ns_p50",
            t.dur_percentile(SpanName::PoolSnapshotRead, 50.0),
        );
        out.set(
            "pool.msgs_per_batch",
            counts.messages as f64 / counts.batches.max(1) as f64,
        );
        out.set("pool.queue_high_water", counts.high_water as f64);
        out.set("pool.shed", counts.shed as f64);
        out.set(
            "pool.snapshots_published_per_burst",
            counts.published as f64 / counts.bursts.max(1) as f64,
        );
        out.set(
            "pool.worker_busy_share",
            counts.worker_cpu_ns as f64 / traced.timed_ns.max(1) as f64,
        );
    } else {
        let mut b = build(plan.seed);
        let (pass, _) = measure::<false>(plan, plan.epochs, &mut b);
        layers::report_end_to_end(&pass, &mut out);
        out.notes
            .push("visibility here is submit_batch to the return of the covering flush()".into());
        finish(b, &mut out);
        out.set("peak_rss_mb", host::peak_rss_mb());
    }
    out
}
