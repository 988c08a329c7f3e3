//! The keyed store as an `EventCluster` node under real concurrency:
//! a plain [`UcStore`], and an [`IngestPool`] whose shard workers
//! ingest beside the reactor's own worker threads. After quiescence
//! every replica holds the same state per key.

use std::collections::BTreeSet;
use uc_core::{
    CheckpointFactory, IngestPool, Key, PoolConfig, StoreInput, StoreMsg, StoreOutput, UcStore,
};
use uc_runtime::{EventCluster, RuntimeConfig};
use uc_sim::{Pid, Protocol, SplitMix64};
use uc_spec::{SetAdt, SetQuery, SetUpdate};

type Adt = SetAdt<u32>;
type Store = UcStore<Adt, CheckpointFactory>;

const N: usize = 3;

fn store(pid: Pid) -> Store {
    UcStore::new(SetAdt::new(), pid, 4, CheckpointFactory { every: 8 })
}

/// `updates` seeded keyed updates round-robin over the nodes, all in
/// flight at once, with a keyed query every `query_every` of them:
/// queries are wait-free and local, so they are answered mid-run.
fn drive<P>(cluster: &EventCluster<P>, seed: u64, updates: u32, query_every: u32)
where
    P: Protocol<Msg = StoreMsg<SetUpdate<u32>>, Input = StoreInput<Adt>, Output = StoreOutput<Adt>>
        + Send
        + 'static,
{
    let mut rng = SplitMix64::new(seed);
    for i in 0..updates {
        let pid = (i % N as u32) as Pid;
        let key = rng.next_u64() % 6;
        let v = (rng.next_u64() % 10) as u32;
        let u = if rng.next_u64().is_multiple_of(4) {
            SetUpdate::Delete(v)
        } else {
            SetUpdate::Insert(v)
        };
        let out = cluster.invoke(pid, StoreInput::Update(key, u));
        assert!(matches!(out, StoreOutput::Ack { .. }));
        if i % query_every == 0 {
            let StoreOutput::Value { .. } =
                cluster.invoke(pid, StoreInput::Query(key, SetQuery::Read))
            else {
                panic!("query answered with ack");
            };
        }
    }
}

fn assert_converged(mut stores: Vec<Store>, what: &str) {
    let keys: BTreeSet<Key> = stores.iter().flat_map(UcStore::keys).collect();
    assert!(!keys.is_empty());
    let mut rest = stores.split_off(1);
    let first = &mut stores[0];
    for k in keys {
        let expect = first.materialize_key(k);
        for (i, node) in rest.iter_mut().enumerate() {
            assert_eq!(
                expect,
                node.materialize_key(k),
                "{what}: node {} key {k}",
                i + 1
            );
        }
    }
}

#[test]
fn store_converges_on_the_event_cluster() {
    let cluster: EventCluster<Store> = EventCluster::spawn(N, store);
    drive(&cluster, 0x7EADED, 120, 31);
    assert_converged(cluster.shutdown(), "store");
}

/// Store bursts delivered *through the pool*: every cluster node is an
/// [`IngestPool`] whose shard workers ingest concurrently with the
/// reactor worker running the node's activation. A burst of any size
/// is safe: it becomes one ingest job per pool worker, and a full pool
/// queue parks its producer.
#[test]
fn pooled_store_converges_on_the_event_cluster() {
    for seed in 0..24u64 {
        let cfg = RuntimeConfig {
            workers: 2,
            ..Default::default()
        };
        let cluster: EventCluster<IngestPool<Adt, CheckpointFactory>> =
            EventCluster::with_config(cfg, N, |pid| {
                store(pid).into_pool(PoolConfig {
                    workers: 2,
                    queue_depth: 8,
                })
            });
        drive(&cluster, 0x700_1ED_F00 ^ seed, 150, 23);
        let stores = cluster
            .shutdown()
            .into_iter()
            .map(|p| p.finish().expect("no worker panicked"))
            .collect();
        assert_converged(stores, &format!("pooled, seed {seed}"));
    }
}
