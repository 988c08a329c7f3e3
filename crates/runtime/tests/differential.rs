//! Cross-runtime differential tests: the deterministic simulator and
//! the event-driven `EventCluster` must be interchangeable executors.
//!
//! Driven in **lockstep** (quiesce after every invocation) the two
//! runtimes see identical delivery schedules, so for all four repair
//! strategies (Naive/Checkpoint/Undo/Gc) they must agree not just on
//! converged states but on the *work* performed: repair events, repair
//! steps, retained log lengths, and Lamport clocks. Driven **racy**
//! (all invocations in flight at once) interleavings — and therefore
//! timestamps — legitimately differ from run to run, but the event
//! runtime must still converge all of its replicas to a single state.
//!
//! The same pair of checks runs for the keyed sharded store under a
//! zipfian multi-key workload ([`uc_sim::KeyedWorkloadSpec`]), under
//! both of the store's strategies (Checkpoint/Gc) and, through the
//! test-local [`NaiveEngines`]/[`UndoEngines`] factories, the two
//! engine-level strategies no product store runs.

use uc_core::{
    state_digest, CachedReplica, CheckpointFactory, GcFactory, GcReplica, GenericReplica,
    NaiveReplay, OpInput, OpOutput, RepairStrategy, Replica, ReplicaEngine, ReplicaNode,
    StoreInput, StrategyFactory, TimestampedMsg, UcStore, UndoRepair, UndoReplica,
};
use uc_runtime::EventCluster;
use uc_sim::{
    generate_keyed, ClusterHarness, KeyedOp, LatencyModel, Pid, Protocol, SetOpKind, SimConfig,
    Simulation, SplitMix64, WorkloadSpec,
};
use uc_spec::{SetAdt, SetQuery, SetUpdate, UqAdt};

type Adt = SetAdt<u32>;
const N: usize = 3;

/// Per-key engines that replay their log on every query
/// ([`NaiveReplay`]).
#[derive(Clone, Copy)]
struct NaiveEngines;

impl StrategyFactory<Adt> for NaiveEngines {
    type Strategy = NaiveReplay<Adt>;

    fn make(&self, adt: &Adt) -> NaiveReplay<Adt> {
        NaiveReplay::new(adt)
    }
}

/// Per-key engines that repair by undo/redo ([`UndoRepair`]).
#[derive(Clone, Copy)]
struct UndoEngines;

impl StrategyFactory<Adt> for UndoEngines {
    type Strategy = UndoRepair<Adt>;

    fn make(&self, adt: &Adt) -> UndoRepair<Adt> {
        UndoRepair::new(adt)
    }
}

/// Uniform access to each variant's repair accounting (the engine
/// aliases expose it directly; the GC wrapper through its engine).
trait RepairCounters {
    fn repair_counters(&self) -> (u64, u64);
}

impl<A: UqAdt, S: RepairStrategy<A>> RepairCounters for ReplicaEngine<A, S> {
    fn repair_counters(&self) -> (u64, u64) {
        (self.repair_events(), self.repair_steps())
    }
}

impl<A: UqAdt> RepairCounters for GcReplica<A> {
    fn repair_counters(&self) -> (u64, u64) {
        (self.engine().repair_events(), self.engine().repair_steps())
    }
}

/// What one replica looks like after a run, reduced to comparable
/// numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Fingerprint {
    state: u64,
    repair_events: u64,
    repair_steps: u64,
    log_len: usize,
    clock: u64,
}

fn fingerprint<R>(replica: &mut R) -> Fingerprint
where
    R: Replica<Adt> + RepairCounters,
{
    let (repair_events, repair_steps) = replica.repair_counters();
    Fingerprint {
        state: state_digest(&replica.materialize()),
        repair_events,
        repair_steps,
        log_len: replica.log_len(),
        clock: replica.clock(),
    }
}

/// A deterministic single-object op sequence: mostly updates, some
/// queries, spread over the processes.
fn replica_ops(seed: u64) -> Vec<(Pid, OpInput<Adt>)> {
    let spec = WorkloadSpec {
        processes: N,
        ops_per_process: 25,
        universe: 8,
        update_ratio: 0.8,
        seed,
        ..Default::default()
    };
    uc_sim::workload::generate(&spec)
        .into_iter()
        .map(|op| {
            let input = match op.kind {
                SetOpKind::Insert(e) => OpInput::Update(SetUpdate::Insert(e as u32)),
                SetOpKind::Delete(e) => OpInput::Update(SetUpdate::Delete(e as u32)),
                // Single-object replicas have no multi-key cut; the
                // unkeyed generator never emits SnapshotRead anyway.
                SetOpKind::Read | SetOpKind::SnapshotRead => OpInput::Query(SetQuery::Read),
            };
            (op.pid, input)
        })
        .collect()
}

/// Drive `ops` through any harness; `lockstep` quiesces after every
/// invocation so both runtimes see the same delivery schedule.
fn drive<P, H>(mut h: H, ops: &[(Pid, P::Input)], lockstep: bool) -> Vec<P>
where
    P: Protocol,
    P::Input: Clone,
    H: ClusterHarness<P>,
{
    for (pid, input) in ops {
        h.invoke(*pid, input.clone());
        if lockstep {
            h.quiesce();
        }
    }
    h.quiesce();
    h.into_nodes()
}

/// Run one replica variant on both runtimes and compare.
fn check_replica_variant<R, F>(make: F, seed: u64)
where
    R: Replica<Adt> + RepairCounters + Send + 'static,
    R::Msg: TimestampedMsg + Send,
    F: Fn(Pid) -> R + Copy,
{
    let ops = replica_ops(seed);
    let node = move |pid: Pid| ReplicaNode::untraced(make(pid));

    // Lockstep: identical schedules, identical work.
    let sim = Simulation::new(
        SimConfig {
            n: N,
            seed,
            latency: LatencyModel::Uniform(1, 20),
            fifo_links: true,
        },
        node,
    );
    let fp = |nodes: Vec<ReplicaNode<Adt, R>>| -> Vec<Fingerprint> {
        nodes
            .into_iter()
            .map(|mut n| fingerprint(&mut n.replica))
            .collect()
    };
    let sim_fp = fp(drive(sim, &ops, true));
    let evt_fp = fp(drive(EventCluster::spawn(N, node), &ops, true));
    assert_eq!(sim_fp, evt_fp, "scheduler vs event diverged ({seed})");

    // Racy: within-runtime convergence must still hold.
    let states: Vec<u64> = drive(EventCluster::spawn(N, node), &ops, false)
        .into_iter()
        .map(|mut n| state_digest(&n.replica.materialize()))
        .collect();
    assert!(
        states.windows(2).all(|w| w[0] == w[1]),
        "racy run failed to converge ({seed}): {states:?}"
    );
}

#[test]
fn naive_strategy_agrees_across_runtimes() {
    for seed in [1u64, 42, 0xBEEF] {
        check_replica_variant(|pid| GenericReplica::new(SetAdt::new(), pid), seed);
    }
}

#[test]
fn checkpoint_strategy_agrees_across_runtimes() {
    for seed in [2u64, 77, 0xCAFE] {
        check_replica_variant(
            |pid| CachedReplica::with_checkpoint_every(SetAdt::new(), pid, 4),
            seed,
        );
    }
}

#[test]
fn undo_strategy_agrees_across_runtimes() {
    for seed in [3u64, 99, 0xD00D] {
        check_replica_variant(|pid| UndoReplica::new(SetAdt::new(), pid), seed);
    }
}

#[test]
fn gc_strategy_agrees_across_runtimes() {
    for seed in [4u64, 123, 0xF00D] {
        check_replica_variant(|pid| GcReplica::new(SetAdt::new(), pid, N), seed);
    }
}

/// Keyed zipfian workload for the sharded store.
fn store_ops(seed: u64) -> Vec<(Pid, StoreInput<Adt>)> {
    let spec = uc_sim::KeyedWorkloadSpec {
        processes: N,
        ops_per_process: 40,
        keys: 16,
        key_alpha: 1.1,
        universe: 8,
        zipf_alpha: 0.8,
        update_ratio: 0.85,
        insert_ratio: 0.6,
        mean_gap: 3,
        ooo_rate: 0.0,
        snapshot_rate: 0.3,
        seed,
    };
    generate_keyed(&spec)
        .into_iter()
        .map(|op: KeyedOp| {
            let input = match op.kind {
                SetOpKind::Insert(e) => StoreInput::Update(op.key, SetUpdate::Insert(e as u32)),
                SetOpKind::Delete(e) => StoreInput::Update(op.key, SetUpdate::Delete(e as u32)),
                SetOpKind::Read => StoreInput::Query(op.key, SetQuery::Read),
                // A consistent multi-key read over the anchor key and
                // its two neighbours — exercises the cut path on both
                // runtimes.
                SetOpKind::SnapshotRead => StoreInput::Snapshot(
                    (op.key..op.key + 3)
                        .map(|k| (k % spec.keys as u64, SetQuery::Read))
                        .collect(),
                ),
            };
            (op.pid, input)
        })
        .collect()
}

/// Per-key digests plus work counters for a whole store.
fn store_fingerprint<F>(store: &mut UcStore<Adt, F>) -> (Vec<(u64, u64)>, u64, u64, u64)
where
    F: uc_core::StrategyFactory<Adt>,
{
    let digests = store
        .keys()
        .into_iter()
        .map(|k| (k, state_digest(&store.materialize_key(k))))
        .collect();
    (
        digests,
        store.total_repair_events(),
        store.total_repair_steps(),
        store.clock(),
    )
}

fn check_store_variant<F>(factory: F, seed: u64)
where
    F: uc_core::StrategyFactory<Adt> + Send + Copy + 'static,
    F::Strategy: Send,
{
    let ops = store_ops(seed);
    let node = move |pid: Pid| UcStore::new(SetAdt::<u32>::new(), pid, 4, factory);
    let fp = |mut stores: Vec<UcStore<Adt, F>>| -> Vec<_> {
        stores.iter_mut().map(store_fingerprint).collect()
    };
    let sim = Simulation::new(
        SimConfig {
            n: N,
            seed,
            latency: LatencyModel::Uniform(1, 20),
            fifo_links: true,
        },
        node,
    );
    let sim_fp = fp(drive(sim, &ops, true));
    let evt_fp = fp(drive(EventCluster::spawn(N, node), &ops, true));
    assert_eq!(sim_fp, evt_fp, "store: scheduler vs event ({seed})");

    // Racy convergence on real threads: same per-key digests on every
    // replica.
    let mut stores = drive(EventCluster::spawn(N, node), &ops, false);
    let digests: Vec<Vec<(u64, u64)>> = stores
        .iter_mut()
        .map(|s| {
            s.keys()
                .into_iter()
                .map(|k| (k, state_digest(&s.materialize_key(k))))
                .collect()
        })
        .collect();
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "racy keyed run failed to converge ({seed})"
    );
}

#[test]
fn keyed_store_naive_agrees_across_runtimes() {
    check_store_variant(NaiveEngines, 11);
}

#[test]
fn keyed_store_checkpoint_agrees_across_runtimes() {
    check_store_variant(CheckpointFactory { every: 4 }, 12);
}

#[test]
fn keyed_store_undo_agrees_across_runtimes() {
    check_store_variant(UndoEngines, 13);
}

#[test]
fn keyed_store_gc_agrees_across_runtimes() {
    check_store_variant(GcFactory { n: N }, 14);
}

/// Sanity: the racy path really does race (the lockstep comparison is
/// only meaningful if the runtimes deliver differently when allowed
/// to). Seeded shuffles in the simulator stand in for that check: two
/// different seeds must produce different interleavings somewhere.
#[test]
fn simulator_seeds_change_interleavings() {
    let mut a = SplitMix64::new(7);
    let mut b = SplitMix64::new(8);
    assert_ne!(
        (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
        (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
    );
}

/// The harness also exposes comparable metrics: in lockstep both
/// runtimes deliver exactly the same number of messages.
#[test]
fn lockstep_metrics_agree_on_delivery_counts() {
    let ops = replica_ops(21);
    let node = |pid: Pid| ReplicaNode::untraced(GenericReplica::new(SetAdt::<u32>::new(), pid));
    let count = |m: uc_sim::Metrics| (m.invocations, m.messages_sent, m.messages_delivered);

    let mut sim = Simulation::new(SimConfig::default_async(N, 21), node);
    let mut evt = EventCluster::spawn(N, node);
    for (pid, input) in &ops {
        ClusterHarness::invoke(&mut sim, *pid, input.clone());
        ClusterHarness::quiesce(&mut sim);
        ClusterHarness::invoke(&mut evt, *pid, input.clone());
        ClusterHarness::quiesce(&mut evt);
    }
    assert_eq!(count(sim.metrics()), count(ClusterHarness::metrics(&evt)));
}

/// Outputs, not just end states: a query invoked after quiescence must
/// answer identically on both runtimes.
#[test]
fn post_quiescence_queries_agree() {
    let ops = replica_ops(31);
    let node = |pid: Pid| ReplicaNode::untraced(CachedReplica::new(SetAdt::<u32>::new(), pid));
    fn read_after<H: ClusterHarness<ReplicaNode<Adt, CachedReplica<Adt>>>>(
        mut h: H,
        ops: &[(Pid, OpInput<Adt>)],
    ) -> <Adt as UqAdt>::QueryOut {
        for (pid, input) in ops {
            h.invoke(*pid, input.clone());
            h.quiesce();
        }
        match h.invoke(0, OpInput::Query(SetQuery::Read)) {
            OpOutput::Value { out, .. } => out,
            OpOutput::Ack { .. } => panic!("query answered with ack"),
        }
    }
    let sim = read_after(Simulation::new(SimConfig::default_async(N, 31), node), &ops);
    let evt = read_after(EventCluster::spawn(N, node), &ops);
    assert_eq!(sim, evt, "post-quiescence reads diverged");
}
