//! Differential test: all four repair strategies must be
//! observationally equivalent to the naive-replay reference under
//! randomized out-of-order, duplicated, and batched delivery
//! schedules.
//!
//! The engine refactor makes the four variants share everything except
//! their [`uc_core::RepairStrategy`]; this test is the fence that
//! keeps a strategy bug from silently forking semantics. Schedules are
//! generated from the workspace's own seeded PRNG
//! ([`uc_sim::SplitMix64`]), so failures replay exactly.
//!
//! The full-log strategies (naive, checkpoint, undo) are driven by a
//! single arbitrarily shuffled schedule with ~20% duplicated
//! deliveries. The GC strategy's stability tracking is only sound
//! under the paper's reliable-broadcast model (per-sender FIFO,
//! exactly-once), so it gets its own schedule: random interleaving
//! *across* senders, order preserved *within* each sender, with
//! mid-run heartbeats to force compaction concurrent with delivery —
//! checked in lockstep against a naive reference fed identically. It
//! runs as the product does, a store under `GcFactory` (one key for
//! the single object), which keeps the stability floor.

mod common;

use std::collections::VecDeque;
use uc_core::{
    state_digest, CachedReplica, GcFactory, GenericReplica, Replica, StoreMsg, UcStore,
    UndoReplica, UpdateMsg,
};
use uc_sim::SplitMix64;
use uc_spec::{SetAdt, SetQuery, SetUpdate};

type Msg = UpdateMsg<SetUpdate<u32>>;

/// Produce concurrent update streams from `producers` replicas that
/// occasionally observe each other (overlapping clocks → plenty of
/// timestamp interleaving). Returns one FIFO stream per producer.
fn produce_streams(rng: &mut SplitMix64, producers: usize) -> Vec<Vec<Msg>> {
    let mut peers: Vec<GenericReplica<SetAdt<u32>>> = (0..producers)
        .map(|i| GenericReplica::new(SetAdt::new(), i as u32 + 1))
        .collect();
    let mut streams: Vec<Vec<Msg>> = vec![Vec::new(); producers];
    let total = 20 + (rng.next_u64() % 30) as usize;
    for _ in 0..total {
        let p = (rng.next_u64() % producers as u64) as usize;
        let v = (rng.next_u64() % 8) as u32;
        let u = if rng.next_u64().is_multiple_of(3) {
            SetUpdate::Delete(v)
        } else {
            SetUpdate::Insert(v)
        };
        let m = peers[p].update(u);
        // Sometimes gossip to another producer so clocks entangle.
        if producers > 1 && rng.next_u64().is_multiple_of(2) {
            let q = (rng.next_u64() % producers as u64) as usize;
            if q != p {
                peers[q].on_deliver(m.clone());
            }
        }
        streams[p].push(m);
    }
    streams
}

/// Shuffle and duplicate the flattened streams into an arbitrary
/// delivery schedule (for the full-log strategies).
fn shuffled_schedule(rng: &mut SplitMix64, streams: &[Vec<Msg>]) -> Vec<Msg> {
    common::shuffle_with_dups(rng, streams.iter().flatten().cloned().collect())
}

fn scenario(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let producers = 2 + (rng.next_u64() % 3) as usize;
    let cluster = producers + 1; // producers plus the replicas under test
    let streams = produce_streams(&mut rng, producers);
    let sched = shuffled_schedule(&mut rng, &streams);

    // Full-log strategies: arbitrary reordering + duplicates.
    let mut reference: GenericReplica<SetAdt<u32>> = GenericReplica::new(SetAdt::new(), 0);
    let mut cached: CachedReplica<SetAdt<u32>> =
        CachedReplica::with_checkpoint_every(SetAdt::new(), 0, 1 + (seed as usize % 7));
    let mut undo: UndoReplica<SetAdt<u32>> = UndoReplica::new(SetAdt::new(), 0);

    // GC strategy: per-sender FIFO, exactly-once, with a lockstep
    // naive reference seeing the identical prefix.
    let mut gc: UcStore<SetAdt<u32>, GcFactory> =
        UcStore::new(SetAdt::new(), 0, 1, GcFactory { n: cluster });
    let frame = |m: &Msg| StoreMsg::Update {
        key: 0,
        msg: m.clone(),
    };
    let mut gc_ref: GenericReplica<SetAdt<u32>> = GenericReplica::new(SetAdt::new(), 0);
    let mut queues: Vec<VecDeque<Msg>> = streams
        .iter()
        .map(|s| s.iter().cloned().collect())
        .collect();

    // Deliver the shuffled schedule in randomly sized chunks; each
    // chunk goes per-message or through the batched path.
    let mut i = 0;
    while i < sched.len() {
        let k = 1 + (rng.next_u64() % 6) as usize;
        let chunk = &sched[i..sched.len().min(i + k)];
        i += chunk.len();
        if rng.next_u64().is_multiple_of(2) {
            Replica::<SetAdt<u32>>::on_batch(&mut reference, chunk.to_vec());
            Replica::<SetAdt<u32>>::on_batch(&mut cached, chunk.to_vec());
            Replica::<SetAdt<u32>>::on_batch(&mut undo, chunk.to_vec());
        } else {
            for m in chunk {
                reference.on_deliver(m.clone());
                cached.on_deliver(m.clone());
                undo.on_deliver(m.clone());
            }
        }
        // Interim queries must agree at every step.
        let expect = reference.do_query(&SetQuery::Read);
        assert_eq!(
            expect,
            cached.do_query(&SetQuery::Read),
            "cached diverged, seed {seed}"
        );
        assert_eq!(
            expect,
            undo.do_query(&SetQuery::Read),
            "undo diverged, seed {seed}"
        );

        // Independently advance the GC pair: a few messages from one
        // random producer, preserving that producer's send order.
        let p = (rng.next_u64() % producers as u64) as usize;
        let take = 1 + (rng.next_u64() % 4) as usize;
        let mut burst: Vec<Msg> = Vec::new();
        for _ in 0..take {
            match queues[p].pop_front() {
                Some(m) => burst.push(m),
                None => break,
            }
        }
        if !burst.is_empty() {
            let from = p as u32 + 1;
            if rng.next_u64().is_multiple_of(2) {
                gc.apply_batch_owned(burst.iter().map(frame).collect());
            } else {
                for m in &burst {
                    let Ok(_) = gc.apply_message_from(from, frame(m));
                }
            }
            for m in &burst {
                gc_ref.on_deliver(m.clone());
            }
            // Occasionally the producer heartbeats its delivered
            // prefix and the replica ticks (its own progress) — safe
            // under FIFO, and it forces compaction to happen
            // *concurrently* with the remaining deliveries.
            if rng.next_u64().is_multiple_of(3) {
                let clock = burst.last().expect("nonempty").ts.clock;
                let Ok(_) = gc.apply_message_from(from, StoreMsg::Heartbeat { pid: from, clock });
                gc.tick_maintenance();
            }
        }
        assert_eq!(
            gc.query(0, &SetQuery::Read),
            gc_ref.do_query(&SetQuery::Read),
            "gc diverged mid-run, seed {seed}"
        );
    }

    // Drain what the GC pair has not seen yet.
    for (p, q) in queues.iter_mut().enumerate() {
        while let Some(m) = q.pop_front() {
            let Ok(_) = gc.apply_message_from(p as u32 + 1, frame(&m));
            gc_ref.on_deliver(m);
        }
    }
    // Full stability: every producer announces the final clock and
    // the silent test replica ticks, then semantics must survive the
    // resulting compaction.
    for pid in 1..cluster as u32 {
        let clock = gc.clock();
        let Ok(_) = gc.apply_message_from(pid, StoreMsg::Heartbeat { pid, clock });
    }
    gc.tick_maintenance();
    assert!(
        gc.engine(0).expect("key 0 written").strategy().compacted() > 0,
        "full heartbeat coverage must compact something, seed {seed}"
    );

    // Convergence digests: identical final states everywhere.
    let expect = reference.materialize();
    let digest = state_digest(&expect);
    assert_eq!(digest, state_digest(&Replica::materialize(&mut cached)));
    assert_eq!(digest, state_digest(&Replica::materialize(&mut undo)));
    assert_eq!(digest, state_digest(&gc_ref.materialize()));
    assert_eq!(
        digest,
        state_digest(&gc.materialize_key(0)),
        "gc diverged after compaction, seed {seed}"
    );

    // The full-log replicas also agree on the visible-update set.
    assert_eq!(reference.known_timestamps(), cached.known_timestamps());
    assert_eq!(reference.known_timestamps(), undo.known_timestamps());
}

#[test]
fn strategies_agree_across_randomized_schedules() {
    for seed in 0..60 {
        scenario(seed);
    }
}

#[test]
fn strategies_agree_under_pure_batch_replay() {
    // Whole history delivered as one giant out-of-order batch.
    let mut rng = SplitMix64::new(0xBA7C);
    let streams = produce_streams(&mut rng, 3);
    let sched = shuffled_schedule(&mut rng, &streams);

    let mut reference: GenericReplica<SetAdt<u32>> = GenericReplica::new(SetAdt::new(), 0);
    for m in &sched {
        reference.on_deliver(m.clone());
    }
    let mut cached: CachedReplica<SetAdt<u32>> = CachedReplica::new(SetAdt::new(), 0);
    cached.on_deliver_batch(sched.clone());
    let mut undo: UndoReplica<SetAdt<u32>> = UndoReplica::new(SetAdt::new(), 0);
    undo.on_deliver_batch(sched);

    assert_eq!(reference.materialize(), Replica::materialize(&mut cached));
    assert_eq!(reference.materialize(), Replica::materialize(&mut undo));
    // A single batch is at most one repair event however scrambled the
    // input was.
    assert!(cached.repair_events() <= 1);
    assert!(undo.repair_events() <= 1);
}
