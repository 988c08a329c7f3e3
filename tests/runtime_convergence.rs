//! Cross-check under real concurrency: the same replica code the
//! deterministic simulator drives, on the event runtime's worker
//! threads, converges for every object family.

use update_consistency::core::{GenericReplica, OpInput, OpOutput, Replica, ReplicaNode, UcMemory};
use update_consistency::crdt::{OrSet, SetNode, SetOp, SetReplica};
use update_consistency::runtime::EventCluster;
use update_consistency::sim::Pid;
use update_consistency::spec::{MemoryAdt, MemoryUpdate, SetAdt, SetUpdate};

type SetReplicaNode = ReplicaNode<SetAdt<u32>, GenericReplica<SetAdt<u32>>>;
type MemNode = ReplicaNode<MemoryAdt<u32, u64>, UcMemory<u32, u64>>;

#[test]
fn algorithm1_converges_on_threads() {
    let n = 4;
    let cluster: EventCluster<SetReplicaNode> = EventCluster::spawn(n, |pid| {
        ReplicaNode::untraced(GenericReplica::new(SetAdt::new(), pid))
    });
    for i in 0..100u32 {
        let pid = (i % n as u32) as Pid;
        let op = if i % 3 == 0 {
            SetUpdate::Delete(i % 8)
        } else {
            SetUpdate::Insert(i % 8)
        };
        cluster.invoke(pid, OpInput::Update(op));
    }
    let mut nodes = cluster.shutdown();
    let states: Vec<_> = nodes
        .iter_mut()
        .map(|nd| nd.replica.materialize())
        .collect();
    for w in states.windows(2) {
        assert_eq!(w[0], w[1], "replicas diverged under real concurrency");
    }
}

#[test]
fn algorithm2_converges_on_threads() {
    let n = 3;
    let cluster: EventCluster<MemNode> =
        EventCluster::spawn(n, |pid| ReplicaNode::untraced(UcMemory::new(0u64, pid)));
    for i in 0..120u64 {
        let pid = (i % n as u64) as Pid;
        cluster.invoke(
            pid,
            OpInput::Update(MemoryUpdate {
                register: (i % 6) as u32,
                value: i,
            }),
        );
    }
    let mut nodes = cluster.shutdown();
    let states: Vec<_> = nodes
        .iter_mut()
        .map(|nd| nd.replica.materialize())
        .collect();
    for w in states.windows(2) {
        assert_eq!(w[0], w[1], "memories diverged under real concurrency");
    }
}

#[test]
fn or_set_converges_on_threads() {
    let n = 3;
    let cluster: EventCluster<SetNode<u32, OrSet<u32>>> =
        EventCluster::spawn(n, |pid| SetNode::new(OrSet::new(pid)));
    for i in 0..90u32 {
        let pid = (i % n as u32) as Pid;
        let op = if i % 4 == 0 {
            SetOp::Delete(i % 6)
        } else {
            SetOp::Insert(i % 6)
        };
        cluster.invoke(pid, op);
    }
    let nodes = cluster.shutdown();
    let reads: Vec<_> = nodes.iter().map(|nd| nd.replica.read()).collect();
    for w in reads.windows(2) {
        assert_eq!(w[0], w[1], "OR-set replicas diverged");
    }
}

#[test]
fn queries_are_wait_free_even_with_inflight_traffic() {
    // Queries return immediately regardless of how much traffic is in
    // flight; no deadlock, no blocking on peers.
    let n = 3;
    let cluster: EventCluster<SetReplicaNode> = EventCluster::spawn(n, |pid| {
        ReplicaNode::untraced(GenericReplica::new(SetAdt::new(), pid))
    });
    for i in 0..50u32 {
        cluster.invoke((i % 3) as Pid, OpInput::Update(SetUpdate::Insert(i)));
        // interleave queries without quiescing
        let out = cluster.invoke(
            ((i + 1) % 3) as Pid,
            OpInput::Query(update_consistency::spec::SetQuery::Read),
        );
        assert!(matches!(out, OpOutput::Value { .. }));
    }
    cluster.shutdown();
}
