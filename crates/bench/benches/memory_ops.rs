//! E9 — Algorithm 2's cost claims: reads and writes are constant-time
//! state work regardless of history length (vs Algorithm 1's replay on
//! the same memory UQ-ADT), and retention is per-register.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use uc_core::{GenericReplica, UcMemory};
use uc_spec::{MemoryAdt, MemoryQuery, MemoryUpdate};

fn filled_mem(history: usize, registers: u32) -> UcMemory<u32, u64> {
    let mut m = UcMemory::new(0u64, 0);
    for i in 0..history {
        m.write(i as u32 % registers, i as u64);
    }
    m
}

fn filled_oracle(history: usize, registers: u32) -> GenericReplica<MemoryAdt<u32, u64>> {
    let mut m = GenericReplica::new(MemoryAdt::new(0u64), 0);
    for i in 0..history {
        m.update(MemoryUpdate {
            register: i as u32 % registers,
            value: i as u64,
        });
    }
    m
}

fn bench_read_vs_history(c: &mut Criterion) {
    let mut g = c.benchmark_group("memory_read_vs_history");
    for &history in &[100usize, 1_000, 10_000] {
        let mem = filled_mem(history, 16);
        g.bench_with_input(BenchmarkId::new("algorithm2", history), &history, |b, _| {
            b.iter(|| black_box(mem.read(&7)))
        });
        let mut oracle = filled_oracle(history, 16);
        g.bench_with_input(
            BenchmarkId::new("algorithm1_replay", history),
            &history,
            |b, _| b.iter(|| black_box(oracle.do_query(&MemoryQuery(7)))),
        );
    }
    g.finish();
}

fn bench_write(c: &mut Criterion) {
    let mut g = c.benchmark_group("memory_write");
    for &registers in &[1u32, 64, 1_024] {
        let mut mem = filled_mem(10_000, registers);
        let mut i = 0u64;
        g.bench_with_input(
            BenchmarkId::new("algorithm2", registers),
            &registers,
            |b, _| {
                b.iter(|| {
                    i += 1;
                    black_box(mem.write((i % registers as u64) as u32, i))
                })
            },
        );
    }
    g.finish();
}

fn bench_remote_absorb(c: &mut Criterion) {
    // Receiving a peer's write: one map probe + timestamp compare.
    let mut peer: UcMemory<u32, u64> = UcMemory::new(0, 1);
    let msgs: Vec<_> = (0..1_000).map(|i| peer.write(i % 64, i as u64)).collect();
    let mut g = c.benchmark_group("memory_absorb_1k_writes");
    g.bench_function("algorithm2", |b| {
        b.iter_batched(
            || (UcMemory::<u32, u64>::new(0, 0), msgs.clone()),
            |(mut m, msgs)| {
                for msg in msgs {
                    m.on_deliver(msg);
                }
                black_box(m.registers())
            },
            criterion::BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_read_vs_history,
    bench_write,
    bench_remote_absorb
);
criterion_main!(benches);
