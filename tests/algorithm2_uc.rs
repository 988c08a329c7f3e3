//! Algorithm 2 (the shared memory): update consistency of the
//! last-writer-wins map, equivalence with Algorithm 1 run on the
//! memory UQ-ADT, and O(1)-retention behaviour.

use update_consistency::core::{GenericReplica, Replica, UcMemory};
use update_consistency::sim::SplitMix64;
use update_consistency::spec::{MemoryAdt, MemoryQuery, MemoryUpdate};

type Mem = UcMemory<u32, u64>;
type Oracle = GenericReplica<MemoryAdt<u32, u64>>;

fn w(x: u32, v: u64) -> MemoryUpdate<u32, u64> {
    MemoryUpdate {
        register: x,
        value: v,
    }
}

/// Run the same random write workload through Algorithm 2 replicas and
/// Algorithm 1 (on the memory ADT), delivering cross-traffic in
/// per-replica shuffled orders; all replicas of both algorithms must
/// agree on every register.
#[test]
fn algorithm2_equals_algorithm1_on_memory() {
    for seed in 0..10u64 {
        let mut rng = SplitMix64::new(seed);
        let n = 3usize;
        let mut mems: Vec<Mem> = (0..n as u32).map(|p| UcMemory::new(0, p)).collect();
        let mut oracles: Vec<Oracle> = (0..n as u32)
            .map(|p| GenericReplica::new(MemoryAdt::new(0), p))
            .collect();
        let mut mem_msgs = Vec::new();
        let mut oracle_msgs = Vec::new();
        for _ in 0..40 {
            let p = rng.next_below(n as u64) as usize;
            let x = rng.next_below(4) as u32;
            let v = rng.next_below(100);
            mem_msgs.push((p, mems[p].write(x, v)));
            oracle_msgs.push((p, oracles[p].update(w(x, v))));
        }
        for i in 0..n {
            let mut order: Vec<usize> = (0..mem_msgs.len()).collect();
            rng.shuffle(&mut order);
            for &k in &order {
                if mem_msgs[k].0 != i {
                    mems[i].on_deliver(mem_msgs[k].1.clone());
                    oracles[i].on_deliver(oracle_msgs[k].1.clone());
                }
            }
        }
        for x in 0..4u32 {
            let vals: Vec<u64> = mems.iter().map(|m| m.read(&x)).collect();
            assert!(
                vals.windows(2).all(|p| p[0] == p[1]),
                "seed {seed}: register {x} diverged across Alg.2 replicas: {vals:?}"
            );
            let oracle_val = oracles[0].do_query(&MemoryQuery(x));
            assert_eq!(
                vals[0], oracle_val,
                "seed {seed}: register {x}: Alg.2 gives {} but Alg.1 replay gives {}",
                vals[0], oracle_val
            );
        }
    }
}

#[test]
fn memory_footprint_is_per_register_not_per_operation() {
    let mut m: Mem = UcMemory::new(0, 0);
    let mut o: Oracle = GenericReplica::new(MemoryAdt::new(0), 0);
    for i in 0..5_000u64 {
        m.write(i as u32 % 8, i);
        o.update(w(i as u32 % 8, i));
    }
    assert_eq!(m.log_len(), 8, "Algorithm 2 retains one entry per register");
    assert_eq!(o.log_len(), 5_000, "Algorithm 1 retains the full history");
}

#[test]
fn reads_do_not_mutate() {
    let mut m: Mem = UcMemory::new(0, 0);
    m.write(1, 10);
    let c = m.clock();
    assert_eq!(m.read(&1), 10);
    assert_eq!(m.read(&2), 0);
    assert_eq!(m.clock(), c, "Algorithm 2 reads do not tick the clock");
}

#[test]
fn initial_value_is_respected() {
    let m: UcMemory<u32, &'static str> = UcMemory::new("empty", 0);
    assert_eq!(m.read(&99), "empty");
}

#[test]
fn concurrent_writes_resolve_identically_everywhere() {
    // Same clock, different pids: pid order decides, on all replicas.
    let mut a: Mem = UcMemory::new(0, 0);
    let mut b: Mem = UcMemory::new(0, 1);
    let wa = a.write(5, 111); // ts (1,0)
    let wb = b.write(5, 222); // ts (1,1)
    a.on_deliver(wb);
    b.on_deliver(wa);
    assert_eq!(a.read(&5), 222);
    assert_eq!(b.read(&5), 222);
}
