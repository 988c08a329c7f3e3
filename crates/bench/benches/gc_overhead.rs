//! E10 — the runtime side of stability GC: query cost over a
//! compacted log vs the full log, and the per-message overhead of
//! stability tracking. The GC side is a single object under GC, a
//! one-key store.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use uc_core::{GcFactory, GenericReplica, UcStore};
use uc_spec::{SetAdt, SetQuery, SetUpdate};

type Gc = UcStore<SetAdt<u32>, GcFactory>;

/// Replica `pid` of two: one key, 0.
fn gc(pid: u32) -> Gc {
    UcStore::new(SetAdt::new(), pid, 1, GcFactory { n: 2 })
}

/// A pair of fully-exchanged replicas after `rounds` rounds, with
/// heartbeats so stability advances.
fn gc_pair(rounds: usize) -> Gc {
    let (mut a, mut b) = (gc(0), gc(1));
    for r in 0..rounds {
        let ma = a.update(0, SetUpdate::Insert((r % 50) as u32));
        let mb = b.update(0, SetUpdate::Delete((r % 70) as u32));
        let Ok(_) = b.apply_message_from(0, ma);
        let Ok(_) = a.apply_message_from(1, mb);
        if r % 4 == 0 {
            a.tick_maintenance();
            let Ok(_) = b.apply_message_from(0, a.heartbeat());
            b.tick_maintenance();
            let Ok(_) = a.apply_message_from(1, b.heartbeat());
        }
    }
    a
}

fn full_log(rounds: usize) -> GenericReplica<SetAdt<u32>> {
    let mut a: GenericReplica<SetAdt<u32>> = GenericReplica::new(SetAdt::new(), 0);
    let mut b: GenericReplica<SetAdt<u32>> = GenericReplica::new(SetAdt::new(), 1);
    for r in 0..rounds {
        let ma = a.update(SetUpdate::Insert((r % 50) as u32));
        let mb = b.update(SetUpdate::Delete((r % 70) as u32));
        b.on_deliver(ma);
        a.on_deliver(mb);
    }
    a
}

fn bench_query_after_compaction(c: &mut Criterion) {
    let mut g = c.benchmark_group("query_after_n_rounds");
    for &rounds in &[500usize, 5_000] {
        let mut gc = gc_pair(rounds);
        let compacted = gc.engine(0).map_or(0, |e| e.strategy().compacted());
        assert!(compacted > 0, "GC must have compacted");
        g.bench_with_input(BenchmarkId::new("gc_compacted", rounds), &rounds, |b, _| {
            b.iter(|| black_box(gc.query(0, &SetQuery::Read)))
        });
        let mut full = full_log(rounds);
        g.bench_with_input(BenchmarkId::new("full_log", rounds), &rounds, |b, _| {
            b.iter(|| black_box(full.do_query(&SetQuery::Read)))
        });
    }
    g.finish();
}

fn bench_delivery_overhead(c: &mut Criterion) {
    // Per-delivery cost: a GC store additionally routes the frame to
    // its key, hears the sender's clock and runs the compaction check.
    let mut peer_gc = gc(1);
    let gc_msgs: Vec<_> = (0..1_000u32)
        .map(|i| peer_gc.update(0, SetUpdate::Insert(i % 32)))
        .collect();
    let mut peer: GenericReplica<SetAdt<u32>> = GenericReplica::new(SetAdt::new(), 1);
    let msgs: Vec<_> = (0..1_000u32)
        .map(|i| peer.update(SetUpdate::Insert(i % 32)))
        .collect();

    let mut g = c.benchmark_group("deliver_1k");
    g.bench_function("gc_store", |b| {
        b.iter_batched(
            || (gc(0), gc_msgs.clone()),
            |(mut r, msgs)| {
                for m in msgs {
                    let Ok(_) = r.apply_message_from(1, m);
                }
                black_box(r.total_log_len())
            },
            criterion::BatchSize::SmallInput,
        )
    });
    g.bench_function("plain_replica", |b| {
        b.iter_batched(
            || {
                (
                    GenericReplica::<SetAdt<u32>>::new(SetAdt::new(), 0),
                    msgs.clone(),
                )
            },
            |(mut r, msgs)| {
                for m in msgs {
                    r.on_deliver(m);
                }
                black_box(r.log_len())
            },
            criterion::BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_query_after_compaction,
    bench_delivery_overhead
);
criterion_main!(benches);
