//! Update consistency in partitionable systems — the companion
//! setting of the authors' DISC 2014 brief announcement, which §I/§V
//! reference ("Update consistency in partitionable systems").
//!
//! Repeated partition/heal cycles: availability never degrades (every
//! operation completes on whatever side of the split it lands), each
//! heal re-converges all replicas, and the final trace is strong
//! update consistent.

use update_consistency::core::{
    trace_to_history, GenericReplica, OmegaMarking, OpInput, ReplicaNode,
};
use update_consistency::criteria::{check_ec, verify_witness};
use update_consistency::sim::{Cut, LatencyModel, Pid, SimConfig, Simulation, SplitMix64};
use update_consistency::spec::{SetAdt, SetQuery, SetUpdate};

type Node = ReplicaNode<SetAdt<u32>, GenericReplica<SetAdt<u32>>>;

fn sim(n: usize, seed: u64) -> Simulation<Node> {
    Simulation::new(
        SimConfig {
            n,
            seed,
            latency: LatencyModel::Uniform(2, 15),
            fifo_links: false,
        },
        |pid| ReplicaNode::traced(GenericReplica::new(SetAdt::new(), pid)),
    )
}

#[test]
fn repeated_partitions_converge_after_each_heal() {
    let n = 4;
    let mut s = sim(n, 21);
    // Three partition windows with different cuts.
    let net = s.topology_mut();
    net.partition(vec![vec![0, 1], vec![2, 3]], 100, 300, Cut::Hold);
    net.partition(vec![vec![0, 2], vec![1, 3]], 500, 700, Cut::Hold);
    net.partition(vec![vec![0], vec![1, 2, 3]], 900, 1_100, Cut::Hold);

    let mut rng = SplitMix64::new(5);
    // Updates spread across all phases, including mid-partition.
    for i in 0..40u32 {
        let t = 30 * i as u64; // covers all windows
        let pid = (i % n as u32) as Pid;
        let op = if rng.next_below(3) == 0 {
            SetUpdate::Delete(rng.next_below(8) as u32)
        } else {
            SetUpdate::Insert(rng.next_below(8) as u32)
        };
        s.schedule_invoke(t, pid, OpInput::Update(op));
    }

    // After each heal + settle, all replicas agree.
    for settle in [400u64, 800, 1_300] {
        s.run_until(settle);
        // allow in-flight traffic to land: run a grace period
        s.run_until(settle + 200);
        let states: Vec<_> = (0..n as Pid)
            .map(|p| s.process_mut(p).replica.materialize())
            .collect();
        // Note: only assert convergence at the final settle, where all
        // scheduled updates have been issued; intermediate settles
        // assert *pairwise agreement among replicas that have the same
        // knowledge* is not generally checkable, so we check the trace
        // instead at the end.
        if settle == 1_300 {
            assert!(
                states.windows(2).all(|w| w[0] == w[1]),
                "diverged after final heal: {states:?}"
            );
        }
    }
    s.run_to_quiescence();

    // Post-quiescence reads, then full SUC verification of the trace.
    let end = s.now() + 1;
    for p in 0..n as Pid {
        s.schedule_invoke(end + p as u64, p, OpInput::Query(SetQuery::Read));
    }
    s.run_to_quiescence();
    let (h, w) = trace_to_history(
        SetAdt::<u32>::new(),
        n,
        s.records(),
        OmegaMarking::FinalQueries,
    )
    .unwrap();
    assert!(check_ec(&h).holds());
    assert_eq!(verify_witness(&h, &w), Ok(()));
}

#[test]
fn operations_complete_during_partitions() {
    // Availability: mid-partition invocations return immediately with
    // locally consistent answers.
    let mut s = sim(2, 9);
    s.topology_mut()
        .partition(vec![vec![0], vec![1]], 0, 1_000, Cut::Hold);
    s.schedule_invoke(10, 0, OpInput::Update(SetUpdate::Insert(1)));
    s.schedule_invoke(10, 1, OpInput::Update(SetUpdate::Insert(2)));
    s.run_until(20);
    // Both sides answer reads during the split (their own writes).
    use update_consistency::core::OpOutput;
    let Some(OpOutput::Value { out: r0, .. }) = s.invoke_now(0, OpInput::Query(SetQuery::Read))
    else {
        panic!()
    };
    let Some(OpOutput::Value { out: r1, .. }) = s.invoke_now(1, OpInput::Query(SetQuery::Read))
    else {
        panic!()
    };
    assert_eq!(r0, [1].into_iter().collect());
    assert_eq!(r1, [2].into_iter().collect());
    // Heal: both converge to {1, 2}.
    s.run_to_quiescence();
    let a = s.process_mut(0).replica.materialize();
    let b = s.process_mut(1).replica.materialize();
    assert_eq!(a, b);
    assert_eq!(a, [1, 2].into_iter().collect());
}

#[test]
fn minority_and_majority_sides_are_symmetric() {
    // No quorum logic anywhere: a 1-vs-4 split leaves the singleton
    // side fully operational.
    let n = 5;
    let mut s = sim(n, 3);
    s.topology_mut()
        .partition(vec![vec![0], vec![1, 2, 3, 4]], 0, 500, Cut::Hold);
    for i in 0..10u32 {
        s.schedule_invoke(
            10 + i as u64,
            0,
            OpInput::Update(SetUpdate::Insert(100 + i)),
        );
    }
    for i in 0..10u32 {
        let pid = 1 + (i % 4) as Pid;
        s.schedule_invoke(10 + i as u64, pid, OpInput::Update(SetUpdate::Insert(i)));
    }
    s.run_until(400);
    // The singleton side has all its own updates.
    let solo = s.process_mut(0).replica.materialize();
    assert_eq!(solo.len(), 10, "minority side must stay available");
    s.run_to_quiescence();
    let states: Vec<_> = (0..n as Pid)
        .map(|p| s.process_mut(p).replica.materialize())
        .collect();
    assert!(states.windows(2).all(|w| w[0] == w[1]));
    assert_eq!(states[0].len(), 20);
}
