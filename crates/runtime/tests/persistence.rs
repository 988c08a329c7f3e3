//! Timer-driven persistence on the event runtime: segment-backed
//! stores hosted by an [`EventCluster`] flush and compact through
//! [`Protocol::on_tick`](uc_sim::Protocol::on_tick) firings of the
//! reactor's maintenance sweep — no dedicated flusher thread, no explicit
//! `flush_backends` calls — and a killed node's store reopens from
//! disk with the states the cluster converged to.

use std::collections::BTreeSet;
use std::time::Duration;
use uc_core::{GcFactory, StoreInput, UcStore};
use uc_runtime::{EventCluster, RuntimeConfig};
use uc_sim::Pid;
use uc_spec::{SetAdt, SetUpdate};
use uc_storage::{ScratchDir, SegmentFactory};

type Adt = SetAdt<u32>;
type Node = UcStore<Adt, GcFactory, SegmentFactory>;

#[test]
fn timer_driven_flush_makes_cluster_state_recoverable() {
    const N: usize = 3;
    const KEYS: u64 = 6;
    let scratch: Vec<ScratchDir> = (0..N)
        .map(|pid| ScratchDir::new(&format!("runtime-node{pid}")))
        .collect();
    let persists: Vec<SegmentFactory> = scratch
        .iter()
        .map(|s| SegmentFactory::at(s.path()).unwrap())
        .collect();
    let cluster = EventCluster::with_config(
        RuntimeConfig {
            maintenance_interval: Some(Duration::from_millis(5)),
            ..Default::default()
        },
        N,
        |pid| {
            UcStore::with_persistence(
                SetAdt::<u32>::new(),
                pid,
                2,
                GcFactory { n: N },
                persists[pid as usize].clone(),
            )
        },
    );
    for i in 0..60u64 {
        cluster.invoke(
            (i % N as u64) as Pid,
            StoreInput::Update(i % KEYS, SetUpdate::Insert(i as u32)),
        );
    }
    cluster.quiesce();
    // Let several maintenance sweeps land: each on_tick broadcasts a
    // heartbeat, compacts stable prefixes, and flushes the segment
    // backends — durability rides the maintenance sweep.
    std::thread::sleep(Duration::from_millis(120));
    cluster.quiesce();
    let mut live: Vec<Node> = cluster.shutdown();

    // The ticks must also have compacted: base snapshots exist on
    // disk, so recovery genuinely exercises fold(base) + replay(tail).
    let retained: usize = live.iter().map(|s| s.total_log_len()).sum();
    assert!(
        retained < 60 * N,
        "timer-driven maintenance must compact (retained {retained})"
    );

    for (pid, store) in live.iter_mut().enumerate() {
        // Reopen from disk only — the store itself is dropped without
        // any explicit flush, so everything recovered below was made
        // durable by timer ticks.
        let mut back: Node = UcStore::reopen(
            SetAdt::new(),
            pid as u32,
            2,
            GcFactory { n: N },
            persists[pid].clone(),
        );
        for k in 0..KEYS {
            assert_eq!(
                back.materialize_key(k),
                store.materialize_key(k),
                "node {pid} key {k}: recovered state diverged from the live store"
            );
        }
    }

    // And the recovered states are the converged cluster states.
    let mut first: Node = UcStore::reopen(SetAdt::new(), 0, 2, GcFactory { n: N }, {
        persists[0].clone()
    });
    let expect: BTreeSet<u32> = (0..60).collect();
    let union: BTreeSet<u32> = (0..KEYS).flat_map(|k| first.materialize_key(k)).collect();
    assert_eq!(union, expect, "every update survived the kill");
}
