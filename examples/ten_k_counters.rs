//! Ten thousand keyed counters on a 4-worker event runtime.
//!
//! Six replicas, each a sharded [`UcStore`] over [`CounterAdt`], run
//! as nodes of an [`EventCluster`] with exactly four worker threads —
//! no thread per replica, no thread per key. 30 000 zipfian-keyed
//! increments land on random replicas, every update broadcasts to the
//! peers, a maintenance timer sweeps `Protocol::on_tick` (heartbeats;
//! with a GC factory it would also compact), and after quiescence all
//! six replicas agree on the total of every one of the 10 000
//! counters.
//!
//! Run with: `cargo run --release --example ten_k_counters`

use std::time::{Duration, Instant};
use uc_core::{CheckpointFactory, StoreInput, StoreOutput, UcStore};
use uc_runtime::{EventCluster, RuntimeConfig};
use uc_sim::{Pid, SplitMix64, Zipf};
use uc_spec::{CounterAdt, CounterQuery, CounterUpdate};

const REPLICAS: usize = 6;
const KEYS: usize = 10_000;
const UPDATES: usize = 30_000;

fn main() {
    let cfg = RuntimeConfig {
        workers: 4,
        maintenance_interval: Some(Duration::from_millis(10)),
        ..Default::default()
    };
    let cluster = EventCluster::with_config(cfg, REPLICAS, |pid| {
        UcStore::new(CounterAdt, pid, 8, CheckpointFactory { every: 32 })
    });
    println!(
        "hosting {KEYS} keyed counters on {} replicas / {} workers",
        cluster.num_nodes(),
        cluster.num_workers()
    );

    let mut rng = SplitMix64::new(0xC0FFEE);
    let zipf = Zipf::new(KEYS, 1.05);
    let t0 = Instant::now();
    let mut expected_total: i64 = 0;
    for _ in 0..UPDATES {
        let replica = (rng.next_u64() % REPLICAS as u64) as Pid;
        let key = zipf.sample(&mut rng) as u64;
        let amount = 1 + (rng.next_u64() % 5) as i64;
        expected_total += amount;
        cluster.invoke(replica, StoreInput::Update(key, CounterUpdate::Add(amount)));
    }
    cluster.quiesce();
    let elapsed = t0.elapsed();

    // Every replica answers every counter identically; the grand total
    // equals what was poured in.
    let read = |pid: Pid, key: u64| -> i64 {
        match cluster.invoke(pid, StoreInput::Query(key, CounterQuery::Read)) {
            StoreOutput::Value { out, .. } => out,
            _ => unreachable!("queries answer with values"),
        }
    };
    let mut total: i64 = 0;
    let mut touched = 0usize;
    for key in 0..KEYS as u64 {
        let v0 = read(0, key);
        for pid in 1..REPLICAS as Pid {
            assert_eq!(v0, read(pid, key), "replicas disagree on counter {key}");
        }
        total += v0;
        if v0 != 0 {
            touched += 1;
        }
    }
    assert_eq!(total, expected_total, "mass conservation");

    let m = cluster.metrics();
    println!(
        "{UPDATES} increments over {touched} touched counters in {:.1} ms \
         ({:.0} invokes/s including broadcast fan-out)",
        elapsed.as_secs_f64() * 1e3,
        UPDATES as f64 / elapsed.as_secs_f64()
    );
    println!("converged: every replica agrees on all {KEYS} counters, grand total {total}");
    println!(
        "runtime metrics: {} sent, {} delivered in {} activations \
         (mean burst {:.2}, max {}), per-replica deliveries {:?}",
        m.messages_sent,
        m.messages_delivered,
        m.delivery_activations,
        m.mean_batch(),
        m.max_batch,
        m.per_process_delivered
    );
    cluster.shutdown();
    println!("clean shutdown: all queues drained");
}
