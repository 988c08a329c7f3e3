//! Property tests for the replica variants: observational equivalence
//! across Algorithm 1's naive/cached/undo implementations, convergence
//! under arbitrary delivery permutations, and Algorithm 2 vs a
//! sequential oracle.

use proptest::prelude::*;
use uc_core::{CachedReplica, GcFactory, GenericReplica, StoreMsg, UcMemory, UcStore, UndoReplica};
use uc_spec::{MemoryAdt, MemoryUpdate, SetAdt, SetQuery, SetUpdate, UqAdt};

#[derive(Clone, Copy, Debug)]
enum Cmd {
    Ins(u8),
    Del(u8),
}

fn cmd() -> impl Strategy<Value = Cmd> {
    prop_oneof![(0u8..6).prop_map(Cmd::Ins), (0u8..6).prop_map(Cmd::Del)]
}

fn to_update(c: Cmd) -> SetUpdate<u32> {
    match c {
        Cmd::Ins(v) => SetUpdate::Insert(v as u32),
        Cmd::Del(v) => SetUpdate::Delete(v as u32),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The three Algorithm 1 variants are observationally equivalent:
    /// same local updates + same (shuffled) remote stream → same
    /// query answers at every step.
    #[test]
    fn variants_agree_on_interleaved_streams(
        local in proptest::collection::vec(cmd(), 0..12),
        remote in proptest::collection::vec(cmd(), 0..12),
        shuffle_seed: u64,
    ) {
        // Remote peer produces a timestamped stream.
        let mut peer: GenericReplica<SetAdt<u32>> = GenericReplica::new(SetAdt::new(), 1);
        let remote_msgs: Vec<_> = remote.iter().map(|&c| peer.update(to_update(c))).collect();
        // Shuffle the delivery order deterministically.
        let mut order: Vec<usize> = (0..remote_msgs.len()).collect();
        let mut s = shuffle_seed;
        for i in (1..order.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (s >> 33) as usize % (i + 1));
        }

        let mut g: GenericReplica<SetAdt<u32>> = GenericReplica::new(SetAdt::new(), 0);
        let mut ca: CachedReplica<SetAdt<u32>> =
            CachedReplica::with_checkpoint_every(SetAdt::new(), 0, 3);
        let mut un: UndoReplica<SetAdt<u32>> = UndoReplica::new(SetAdt::new(), 0);

        // Interleave: one local update, then one remote delivery.
        let mut ri = 0;
        for &c in &local {
            let u = to_update(c);
            g.update(u);
            ca.update(u);
            un.update(u);
            if ri < order.len() {
                let m = &remote_msgs[order[ri]];
                g.on_deliver(m.clone());
                ca.on_deliver(m.clone());
                un.on_deliver(m.clone());
                ri += 1;
            }
            let qg = g.do_query(&SetQuery::Read);
            prop_assert_eq!(&qg, &ca.do_query(&SetQuery::Read));
            prop_assert_eq!(&qg, &un.do_query(&SetQuery::Read));
        }
        // Drain any remaining remote messages.
        while ri < order.len() {
            let m = &remote_msgs[order[ri]];
            g.on_deliver(m.clone());
            ca.on_deliver(m.clone());
            un.on_deliver(m.clone());
            ri += 1;
        }
        let qg = g.materialize();
        prop_assert_eq!(&qg, &ca.materialize());
        prop_assert_eq!(&qg, &un.materialize());
    }

    /// Final state is delivery-order independent (the heart of update
    /// consistency): every permutation of the same message set yields
    /// the same state on a fresh replica.
    #[test]
    fn delivery_order_independence(
        cmds in proptest::collection::vec(cmd(), 1..8),
        seed: u64,
    ) {
        let mut producer: GenericReplica<SetAdt<u32>> = GenericReplica::new(SetAdt::new(), 1);
        let msgs: Vec<_> = cmds.iter().map(|&c| producer.update(to_update(c))).collect();
        let expect = producer.materialize();

        // Try several pseudo-random permutations.
        let mut s = seed;
        for _ in 0..4 {
            let mut order: Vec<usize> = (0..msgs.len()).collect();
            for i in (1..order.len()).rev() {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(99991);
                order.swap(i, (s >> 33) as usize % (i + 1));
            }
            let mut r: GenericReplica<SetAdt<u32>> = GenericReplica::new(SetAdt::new(), 0);
            for &i in &order {
                r.on_deliver(msgs[i].clone());
            }
            prop_assert_eq!(r.materialize(), expect.clone());
        }
    }

    /// Algorithm 2 equals a sequential fold of its writes in timestamp
    /// order (single-writer case: timestamp order = program order).
    #[test]
    fn memory_single_writer_is_sequential(
        writes in proptest::collection::vec((0u32..4, 0u64..50), 0..20)
    ) {
        let mut mem: UcMemory<u32, u64> = UcMemory::new(0, 0);
        let adt: MemoryAdt<u32, u64> = MemoryAdt::new(0);
        let mut oracle = adt.initial();
        for (x, v) in &writes {
            mem.write(*x, *v);
            adt.apply(&mut oracle, &MemoryUpdate { register: *x, value: *v });
        }
        for x in 0..4u32 {
            let oracle_v = oracle.get(&x).copied().unwrap_or(0);
            prop_assert_eq!(mem.read(&x), oracle_v);
        }
    }

    /// Two-replica memory convergence under arbitrary interleaving.
    #[test]
    fn memory_two_replicas_converge(
        wa in proptest::collection::vec((0u32..3, 1u64..50), 0..10),
        wb in proptest::collection::vec((0u32..3, 51u64..99), 0..10),
    ) {
        let mut a: UcMemory<u32, u64> = UcMemory::new(0, 0);
        let mut b: UcMemory<u32, u64> = UcMemory::new(0, 1);
        let ma: Vec<_> = wa.iter().map(|(x, v)| a.write(*x, *v)).collect();
        let mb: Vec<_> = wb.iter().map(|(x, v)| b.write(*x, *v)).collect();
        for m in &mb { a.on_deliver(m.clone()); }
        for m in ma.iter().rev() { b.on_deliver(m.clone()); } // reversed order
        for x in 0..3u32 {
            prop_assert_eq!(a.read(&x), b.read(&x), "register {} diverged", x);
        }
    }

    /// Lamport clocks respect causality: any message produced after
    /// delivering m carries a strictly larger timestamp than m.
    #[test]
    fn timestamps_respect_causality(pre in 1usize..6, post in 1usize..6) {
        let mut a: GenericReplica<SetAdt<u32>> = GenericReplica::new(SetAdt::new(), 0);
        let mut b: GenericReplica<SetAdt<u32>> = GenericReplica::new(SetAdt::new(), 1);
        let mut last = None;
        for _ in 0..pre {
            last = Some(a.update(SetUpdate::Insert(1)));
        }
        let m = last.unwrap();
        b.on_deliver(m.clone());
        for _ in 0..post {
            let m2 = b.update(SetUpdate::Insert(2));
            prop_assert!(m2.ts > m.ts, "causal order violated: {:?} !> {:?}", m2.ts, m.ts);
        }
    }

    /// A single object under GC (a one-key store) agrees with the plain
    /// replica on every final state, whatever got compacted.
    #[test]
    fn gc_replica_matches_plain(cmds in proptest::collection::vec(cmd(), 1..15)) {
        let gc = |pid| UcStore::new(SetAdt::<u32>::new(), pid, 1, GcFactory { n: 2 });
        let (mut gc_a, mut gc_b) = (gc(0), gc(1));
        let mut plain = GenericReplica::new(SetAdt::<u32>::new(), 0);
        for (i, &c) in cmds.iter().enumerate() {
            let u = to_update(c);
            if i % 2 == 0 {
                let m = gc_a.update(0, u);
                let Ok(_) = gc_b.apply_message_from(0, m);
                plain.update(u);
            } else {
                let m = gc_b.update(0, u);
                if let StoreMsg::Update { msg, .. } = &m {
                    plain.on_deliver(msg.clone());
                }
                let Ok(_) = gc_a.apply_message_from(1, m);
            }
            // heartbeat exchange advances stability
            gc_a.tick_maintenance();
            let Ok(_) = gc_b.apply_message_from(0, gc_a.heartbeat());
            gc_b.tick_maintenance();
            let Ok(_) = gc_a.apply_message_from(1, gc_b.heartbeat());
        }
        prop_assert_eq!(gc_a.materialize_key(0), plain.materialize());
        prop_assert_eq!(gc_b.materialize_key(0), plain.materialize());
    }
}
