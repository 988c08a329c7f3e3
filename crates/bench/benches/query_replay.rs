//! E8 — §VII-C query-cost claims.
//!
//! * `naive replay` (Algorithm 1 verbatim): query cost grows linearly
//!   with the log;
//! * `cached` (checkpointed incremental state): queries are O(1);
//! * `undo` (Karsenty-style): queries are O(1);
//! * late-message integration: full-replay rebuild vs checkpoint
//!   repair vs undo/redo of the suffix.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use uc_core::{CachedReplica, GenericReplica, UndoReplica};
use uc_spec::{SetAdt, SetQuery, SetUpdate};

fn fill_generic(n: usize) -> GenericReplica<SetAdt<u32>> {
    let mut r = GenericReplica::new(SetAdt::new(), 0);
    for i in 0..n {
        r.update(if i % 3 == 0 {
            SetUpdate::Delete((i % 64) as u32)
        } else {
            SetUpdate::Insert((i % 64) as u32)
        });
    }
    r
}

fn fill_cached(n: usize) -> CachedReplica<SetAdt<u32>> {
    let mut r = CachedReplica::new(SetAdt::new(), 0);
    for i in 0..n {
        r.update(if i % 3 == 0 {
            SetUpdate::Delete((i % 64) as u32)
        } else {
            SetUpdate::Insert((i % 64) as u32)
        });
    }
    r
}

fn fill_undo(n: usize) -> UndoReplica<SetAdt<u32>> {
    let mut r = UndoReplica::new(SetAdt::new(), 0);
    for i in 0..n {
        r.update(if i % 3 == 0 {
            SetUpdate::Delete((i % 64) as u32)
        } else {
            SetUpdate::Insert((i % 64) as u32)
        });
    }
    r
}

fn bench_query_vs_log(c: &mut Criterion) {
    let mut g = c.benchmark_group("query_vs_log_len");
    for &len in &[100usize, 1_000, 10_000] {
        g.throughput(Throughput::Elements(1));
        let mut naive = fill_generic(len);
        g.bench_with_input(BenchmarkId::new("naive_replay", len), &len, |b, _| {
            b.iter(|| black_box(naive.do_query(&SetQuery::Read)))
        });
        let mut cached = fill_cached(len);
        g.bench_with_input(BenchmarkId::new("cached", len), &len, |b, _| {
            b.iter(|| black_box(cached.do_query(&SetQuery::Read)))
        });
        let mut undo = fill_undo(len);
        g.bench_with_input(BenchmarkId::new("undo", len), &len, |b, _| {
            b.iter(|| black_box(undo.do_query(&SetQuery::Read)))
        });
    }
    g.finish();
}

fn bench_late_message_integration(c: &mut Criterion) {
    // A peer message whose timestamp lands near the *front* of a
    // 10k-entry log — the worst case for incremental variants (they
    // must repair almost the whole suffix, while naive replay pays the
    // same full scan it always pays).
    let mut peer: GenericReplica<SetAdt<u32>> = GenericReplica::new(SetAdt::new(), 1);
    let late = peer.update(SetUpdate::Insert(999));

    let mut g = c.benchmark_group("late_message_integration");
    let len = 10_000usize;
    g.bench_function("naive_insert_then_query", |b| {
        // Naive: insertion is cheap, the next query pays the replay.
        let proto = fill_generic(len);
        b.iter_batched(
            || (proto.clone(), late.clone()),
            |(mut r, late)| {
                r.on_deliver(late);
                black_box(r.do_query(&SetQuery::Read))
            },
            criterion::BatchSize::LargeInput,
        )
    });
    g.bench_function("cached_repair", |b| {
        let proto = fill_cached(len);
        b.iter_batched(
            || (proto.clone(), late.clone()),
            |(mut r, late)| {
                r.on_deliver(late);
                black_box(r.do_query(&SetQuery::Read))
            },
            criterion::BatchSize::LargeInput,
        )
    });
    g.bench_function("undo_redo", |b| {
        let proto = fill_undo(len);
        b.iter_batched(
            || (proto.clone(), late.clone()),
            |(mut r, late)| {
                r.on_deliver(late);
                black_box(r.do_query(&SetQuery::Read))
            },
            criterion::BatchSize::LargeInput,
        )
    });
    g.finish();

    // The common case: the late message lands near the *tail* (slight
    // reordering). Incremental variants repair a handful of entries;
    // naive replay still rescans everything on the next query — this
    // is where the §VII-C optimisations earn their keep.
    let mut peer: GenericReplica<SetAdt<u32>> = GenericReplica::new(SetAdt::new(), 1);
    for _ in 0..(len - 2) {
        peer.update(SetUpdate::Insert(0));
    }
    let near_tail = peer.update(SetUpdate::Insert(999)); // clock ≈ len-1

    let mut g = c.benchmark_group("near_tail_message_integration");
    g.bench_function("naive_insert_then_query", |b| {
        let proto = fill_generic(len);
        b.iter_batched(
            || (proto.clone(), near_tail.clone()),
            |(mut r, near_tail)| {
                r.on_deliver(near_tail);
                black_box(r.do_query(&SetQuery::Read))
            },
            criterion::BatchSize::LargeInput,
        )
    });
    g.bench_function("cached_repair", |b| {
        let proto = fill_cached(len);
        b.iter_batched(
            || (proto.clone(), near_tail.clone()),
            |(mut r, near_tail)| {
                r.on_deliver(near_tail);
                black_box(r.do_query(&SetQuery::Read))
            },
            criterion::BatchSize::LargeInput,
        )
    });
    g.bench_function("undo_redo", |b| {
        let proto = fill_undo(len);
        b.iter_batched(
            || (proto.clone(), near_tail.clone()),
            |(mut r, near_tail)| {
                r.on_deliver(near_tail);
                black_box(r.do_query(&SetQuery::Read))
            },
            criterion::BatchSize::LargeInput,
        )
    });
    g.finish();
}

fn bench_in_order_delivery(c: &mut Criterion) {
    // The common fast path: deliveries already in timestamp order.
    let mut peer: GenericReplica<SetAdt<u32>> = GenericReplica::new(SetAdt::new(), 1);
    let msgs: Vec<_> = (0..1_000u32)
        .map(|i| peer.update(SetUpdate::Insert(i % 64)))
        .collect();
    let mut g = c.benchmark_group("in_order_delivery_1k");
    g.throughput(Throughput::Elements(1_000));
    g.bench_function("naive", |b| {
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
    g.bench_function("cached", |b| {
        b.iter_batched(
            || {
                (
                    CachedReplica::<SetAdt<u32>>::new(SetAdt::new(), 0),
                    msgs.clone(),
                )
            },
            |(mut r, msgs)| {
                for m in msgs {
                    r.on_deliver(m);
                }
                black_box(r.do_query(&SetQuery::Read))
            },
            criterion::BatchSize::SmallInput,
        )
    });
    g.bench_function("undo", |b| {
        b.iter_batched(
            || {
                (
                    UndoReplica::<SetAdt<u32>>::new(SetAdt::new(), 0),
                    msgs.clone(),
                )
            },
            |(mut r, msgs)| {
                for m in msgs {
                    r.on_deliver(m);
                }
                black_box(r.do_query(&SetQuery::Read))
            },
            criterion::BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_checkpoint_interval_ablation(c: &mut Criterion) {
    // Design-choice ablation: the checkpoint spacing K trades repair
    // cost (≤ K re-applies after rollback) against checkpointing
    // overhead and memory (one state snapshot per K entries). Measure
    // the full cycle: absorb a mid-log straggler, then query.
    let mut peer: GenericReplica<SetAdt<u32>> = GenericReplica::new(SetAdt::new(), 1);
    for _ in 0..4_999 {
        peer.update(SetUpdate::Insert(0));
    }
    let mid = peer.update(SetUpdate::Insert(77)); // lands mid-log (clock 5000)

    let mut g = c.benchmark_group("checkpoint_interval_ablation");
    for &k in &[4usize, 32, 256, 2_048] {
        let mut proto = CachedReplica::with_checkpoint_every(SetAdt::new(), 0, k);
        for i in 0..10_000usize {
            proto.update(if i % 3 == 0 {
                SetUpdate::Delete((i % 64) as u32)
            } else {
                SetUpdate::Insert((i % 64) as u32)
            });
        }
        g.bench_with_input(BenchmarkId::new("absorb_mid_straggler", k), &k, |b, _| {
            b.iter_batched(
                || (proto.clone(), mid.clone()),
                |(mut r, mid)| {
                    r.on_deliver(mid);
                    black_box(r.do_query(&SetQuery::Read))
                },
                criterion::BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_query_vs_log,
    bench_late_message_integration,
    bench_in_order_delivery,
    bench_checkpoint_interval_ablation
);
criterion_main!(benches);
