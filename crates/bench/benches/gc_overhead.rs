//! E10 — the runtime side of stability GC: query cost over a
//! compacted log vs the full log, and the per-message overhead of
//! stability tracking.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use uc_core::{GcReplica, GenericReplica, Replica};
use uc_spec::{SetAdt, SetQuery, SetUpdate};

/// A pair of fully-exchanged replicas after `rounds` rounds, with
/// heartbeats so stability advances.
fn gc_pair(rounds: usize) -> GcReplica<SetAdt<u32>> {
    let mut a: GcReplica<SetAdt<u32>> = GcReplica::new(SetAdt::new(), 0, 2);
    let mut b: GcReplica<SetAdt<u32>> = GcReplica::new(SetAdt::new(), 1, 2);
    for r in 0..rounds {
        let ma = a.update(SetUpdate::Insert((r % 50) as u32));
        let mb = b.update(SetUpdate::Delete((r % 70) as u32));
        b.on_gc_message(ma);
        a.on_gc_message(mb);
        if r % 4 == 0 {
            for m in a.tick() {
                b.on_gc_message(m);
            }
            for m in b.tick() {
                a.on_gc_message(m);
            }
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
        assert!(gc.compacted() > 0, "GC must have compacted");
        g.bench_with_input(BenchmarkId::new("gc_compacted", rounds), &rounds, |b, _| {
            b.iter(|| black_box(gc.do_query(&SetQuery::Read)))
        });
        let mut full = full_log(rounds);
        g.bench_with_input(BenchmarkId::new("full_log", rounds), &rounds, |b, _| {
            b.iter(|| black_box(full.do_query(&SetQuery::Read)))
        });
    }
    g.finish();
}

fn bench_delivery_overhead(c: &mut Criterion) {
    // Per-delivery cost: GC replicas additionally maintain last_seen
    // and run the compaction check.
    let mut peer_gc: GcReplica<SetAdt<u32>> = GcReplica::new(SetAdt::new(), 1, 2);
    let gc_msgs: Vec<_> = (0..1_000u32)
        .map(|i| peer_gc.update(SetUpdate::Insert(i % 32)))
        .collect();
    let mut peer: GenericReplica<SetAdt<u32>> = GenericReplica::new(SetAdt::new(), 1);
    let msgs: Vec<_> = (0..1_000u32)
        .map(|i| peer.update(SetUpdate::Insert(i % 32)))
        .collect();

    let mut g = c.benchmark_group("deliver_1k");
    g.bench_function("gc_replica", |b| {
        b.iter_batched(
            || {
                (
                    GcReplica::<SetAdt<u32>>::new(SetAdt::new(), 0, 2),
                    gc_msgs.clone(),
                )
            },
            |(mut r, msgs)| {
                for m in msgs {
                    r.on_gc_message(m);
                }
                black_box(r.log_len())
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
