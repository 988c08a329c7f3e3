//! Experiment E11 — §VII-C's pure-CRDT remark: "If all the update
//! operations commute […] a naive implementation, that applies the
//! updates on a replica as soon as the notification is received,
//! achieves update consistency."

use update_consistency::core::GenericReplica;
use update_consistency::crdt::{GSet, NaiveCounter};
use update_consistency::sim::SplitMix64;
use update_consistency::spec::gset::GrowInsert;
use update_consistency::spec::{CounterAdt, CounterUpdate, GrowSetAdt};

#[test]
fn naive_counter_matches_algorithm1_counter() {
    for seed in 0..10u64 {
        let mut rng = SplitMix64::new(seed);
        let n = 4usize;
        let mut naive: Vec<NaiveCounter> = (0..n).map(|_| NaiveCounter::new()).collect();
        let mut ordered: Vec<GenericReplica<CounterAdt>> = (0..n as u32)
            .map(|p| GenericReplica::new(CounterAdt, p))
            .collect();
        let mut nmsgs = Vec::new();
        let mut omsgs = Vec::new();
        for _ in 0..30 {
            let p = rng.next_below(n as u64) as usize;
            let delta = rng.next_range(1, 9) as i64 - 5;
            nmsgs.push((p, naive[p].add(delta)));
            omsgs.push((p, ordered[p].update(CounterUpdate::Add(delta))));
        }
        // Deliver in per-replica shuffled orders.
        for i in 0..n {
            let mut order: Vec<usize> = (0..nmsgs.len()).collect();
            rng.shuffle(&mut order);
            for &k in &order {
                if nmsgs[k].0 != i {
                    naive[i].on_message(&nmsgs[k].1);
                    ordered[i].on_deliver(omsgs[k].1.clone());
                }
            }
        }
        let naive_vals: Vec<i64> = naive.iter().map(NaiveCounter::value).collect();
        let ordered_vals: Vec<i64> = ordered.iter_mut().map(|r| r.materialize()).collect();
        assert!(
            naive_vals.windows(2).all(|w| w[0] == w[1]),
            "seed {seed}: naive diverged {naive_vals:?}"
        );
        assert_eq!(
            naive_vals[0], ordered_vals[0],
            "seed {seed}: naive and ordered disagree"
        );
    }
}

#[test]
fn naive_gset_matches_algorithm1_growset() {
    for seed in 0..10u64 {
        let mut rng = SplitMix64::new(seed * 31 + 7);
        let n = 3usize;
        let mut naive: Vec<GSet<u32>> = (0..n).map(|_| GSet::new()).collect();
        let mut ordered: Vec<GenericReplica<GrowSetAdt<u32>>> = (0..n as u32)
            .map(|p| GenericReplica::new(GrowSetAdt::new(), p))
            .collect();
        let mut nmsgs = Vec::new();
        let mut omsgs = Vec::new();
        for _ in 0..25 {
            let p = rng.next_below(n as u64) as usize;
            let v = rng.next_below(12) as u32;
            nmsgs.push((p, naive[p].insert(v)));
            omsgs.push((p, ordered[p].update(GrowInsert(v))));
        }
        for i in 0..n {
            let mut order: Vec<usize> = (0..nmsgs.len()).collect();
            rng.shuffle(&mut order);
            for &k in &order {
                if nmsgs[k].0 != i {
                    naive[i].on_message(&nmsgs[k].1);
                    ordered[i].on_deliver(omsgs[k].1.clone());
                }
            }
        }
        for i in 0..n {
            assert_eq!(
                naive[i].read(),
                ordered[i].materialize(),
                "seed {seed}: replica {i} disagrees"
            );
        }
    }
}

#[test]
fn ordering_machinery_is_pure_overhead_for_commutative_objects() {
    // Algorithm 1 stores the whole log; the naive counter stores one
    // integer — the §VII-C space argument for object-specific
    // implementations.
    let mut ordered: GenericReplica<CounterAdt> = GenericReplica::new(CounterAdt, 0);
    let mut naive = NaiveCounter::new();
    for i in 0..1_000 {
        ordered.update(CounterUpdate::Add(i % 5));
        naive.add(i % 5);
    }
    assert_eq!(ordered.log_len(), 1_000);
    assert_eq!(ordered.materialize(), naive.value());
}
