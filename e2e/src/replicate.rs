//! `replicate-mem` and `replicate-seg`: the steady-state path an
//! update takes — stamp, local insert, link wrap, remote `on_batch`
//! merge and repair, read — closed loop, one driver.
//!
//! A round is an update burst (64 invokes round-robin over the
//! replicas, then a delivery round, and the tick when due) followed by
//! a read burst of the same size, whose first read of a key pays the
//! lazy repair. No message delay is injected: latency is processor
//! time only.

use crate::cluster::{Cluster, Node, Store, REPLICAS, SHARDS};
use crate::host::{self, ScratchRoot};
use crate::input::Inputs;
use crate::layers::{self, Pass};
use crate::metrics::Outcome;
use crate::oracle::{Acked, Oracle, State};
use crate::wrap::{self, SpanName, Spanned, SpannedFactory, Totals};
use crate::Plan;
use std::path::PathBuf;
use std::time::Instant;
use uc_core::{GcFactory, MemFactory, StoreInput, StoreOutput, UcStore};
use uc_sim::{Pid, ReliableLink};
use uc_spec::SetAdt;
use uc_storage::SegmentFactory;

pub type Plain<B> = ReliableLink<Store<B>>;
pub type Traced<B> = ReliableLink<Spanned<Store<B>>>;

/// Invokes per burst; a delivery round follows every update burst.
const BURST: usize = 64;

pub struct Shape {
    pub name: &'static str,
    pub keys: usize,
    /// Update-burst/read-burst rounds per epoch: a whole number of
    /// ticks, and short (~25 ms), so that a run has many epochs and
    /// some of them fall between a neighbour's bursts.
    pub rounds: usize,
}

pub const MEM: Shape = Shape {
    name: "replicate-mem",
    keys: 4096,
    rounds: 64,
};

/// File-per-key layout, so fewer keys; ~21 k updates/s on tmpfs.
pub const SEG: Shape = Shape {
    name: "replicate-seg",
    keys: 256,
    rounds: 8,
};

fn gc() -> GcFactory {
    GcFactory { n: REPLICAS }
}

/// Build a cluster from nothing and preload it.
pub fn build<N: Node>(
    shape: &Shape,
    seed: u64,
    persist: &dyn Fn(u32) -> N::Backend,
) -> (Cluster<N>, Oracle, Inputs) {
    let nodes = (0..REPLICAS as u32)
        .map(|pid| {
            let store = UcStore::with_persistence(SetAdt::new(), pid, SHARDS, gc(), persist(pid));
            N::build(store, seed)
        })
        .collect();
    let mut cluster = Cluster::new(nodes);
    let mut inputs = Inputs::new(seed, shape.keys);
    let mut oracle = Oracle::new(shape.keys);
    let mut acked = Vec::new();
    for (i, (key, u)) in inputs.preload().into_iter().enumerate() {
        let pid = (i % REPLICAS) as Pid;
        if let StoreOutput::Ack { key, ts } = cluster.invoke(pid, StoreInput::Update(key, u)) {
            acked.push((ts, key, u));
        }
        if i % BURST == BURST - 1 {
            cluster.step();
        }
    }
    cluster.quiesce();
    oracle.fold(&mut acked);
    (cluster, oracle, inputs)
}

/// The node that first sees `pid`'s update last: deliveries run in pid
/// order within a round.
fn last_peer(pid: Pid) -> usize {
    if pid as usize == REPLICAS - 1 {
        REPLICAS - 2
    } else {
        REPLICAS - 1
    }
}

/// Run `epochs` epochs of identical work on `cluster`.
fn measure<N: Node>(
    shape: &Shape,
    plan: &Plan,
    epochs: usize,
    cluster: &mut Cluster<N>,
    oracle: &mut Oracle,
    inputs: &mut Inputs,
) -> Pass {
    let per_epoch = shape.rounds * BURST;
    let mut pass = Pass::default();
    let mut acked: Vec<Acked> = Vec::with_capacity(per_epoch);
    let mut vis: Vec<u32> = Vec::with_capacity(per_epoch);
    layers::begin(&mut pass, cluster);
    for epoch in 0..epochs {
        if Instant::now() > plan.deadline {
            pass.cut_short = true;
            break;
        }
        plan.before_epoch(epoch);
        let updates = inputs.updates(per_epoch);
        let reads = inputs.keys(per_epoch);
        vis.clear();
        if N::TRACED {
            wrap::reset();
        }
        let (mut update_ns, mut read_ns) = (0u64, 0u64);
        for round in 0..shape.rounds {
            let slice = round * BURST..(round + 1) * BURST;
            let (u, r) = layers::round(
                cluster,
                &updates[slice.clone()],
                &reads[slice],
                |i| (i % REPLICAS) as Pid,
                |pid| Some(last_peer(pid)),
                &mut pass,
                &mut acked,
                &mut vis,
            );
            update_ns += u;
            read_ns += r;
        }
        pass.record_epoch(
            per_epoch as u64,
            update_ns,
            per_epoch as u64,
            read_ns,
            &mut vis,
        );
        pass.timed_ns += update_ns + read_ns;
        if N::TRACED {
            let dump =
                (epoch == 0).then(|| host::out_dir().join(format!("spans-{}.tsv", shape.name)));
            wrap::fold_into(&mut pass.totals, dump.as_deref());
        }
        oracle.fold(&mut acked);
    }
    layers::end(&mut pass, cluster);
    pass
}

/// Every replica against the oracle; returns the number of bad keys.
fn check<N: Node>(cluster: &mut Cluster<N>, oracle: &mut Oracle) -> u64 {
    let mut bad = 0;
    for pid in 0..cluster.n() {
        let store = cluster.nodes[pid].store();
        bad += oracle.mismatches(&format!("replica {pid}"), |key| store.materialize_key(key));
    }
    bad
}

/// Each build of a segment-backed cluster gets a directory of its own.
fn rep_dir(root: &ScratchRoot, rep: usize) -> PathBuf {
    root.path().join(format!("rep{rep}"))
}

fn segment_factory(dir: &std::path::Path, pid: u32) -> SegmentFactory {
    let dir = dir.join(format!("p{pid}"));
    SegmentFactory::at(&dir).unwrap_or_else(|e| panic!("segment root {}: {e}", dir.display()))
}

/// One repetition of `setup_s` (see [`Plan::before_epoch`]).
pub fn setup_mem(seed: u64) -> Vec<(&'static str, f64)> {
    crate::timed_setup(|| build::<Plain<MemFactory>>(&MEM, seed, &|_| MemFactory))
}

/// One repetition of `setup_s`, and of `recovery_s` on what it built.
pub fn setup_seg(seed: u64) -> Vec<(&'static str, f64)> {
    let root = ScratchRoot::new("seg-setup");
    let dir = rep_dir(&root, 0);
    let persist = |pid: u32| segment_factory(&dir, pid);
    let t0 = Instant::now();
    let (cluster, ..) = build::<Plain<SegmentFactory>>(&SEG, seed, &persist);
    let setup_s = t0.elapsed().as_secs_f64();
    let (recovery_s, _, bad) = crash_and_reopen(cluster, &persist);
    assert_eq!(bad, 0, "a reopened replica differs from its flushed state");
    vec![("setup_s", setup_s), ("recovery_s", recovery_s)]
}

pub fn run_mem(plan: &Plan) -> Outcome {
    let mut out = Outcome::new(MEM.name, plan.seed);
    out.notes
        .push("no injected delay: latency is processor time only".into());
    if plan.traced {
        let plain = {
            let (mut cluster, mut oracle, mut inputs) =
                build::<Plain<MemFactory>>(&MEM, plan.seed, &|_| MemFactory);
            measure(
                &MEM,
                plan,
                plan.epochs / 4,
                &mut cluster,
                &mut oracle,
                &mut inputs,
            )
        };
        let (mut cluster, mut oracle, mut inputs) =
            build::<Traced<MemFactory>>(&MEM, plan.seed, &|_| MemFactory);
        let mut traced = measure(
            &MEM,
            plan,
            plan.epochs / 4,
            &mut cluster,
            &mut oracle,
            &mut inputs,
        );
        finish(&mut cluster, &mut oracle, true, &traced, &mut out);
        layers::report(&plain, &mut traced, &mut out);
        crate::runtime::report(plan, &mut out);
    } else {
        let (mut cluster, mut oracle, mut inputs) =
            build::<Plain<MemFactory>>(&MEM, plan.seed, &|_| MemFactory);
        let pass = measure(
            &MEM,
            plan,
            plan.epochs,
            &mut cluster,
            &mut oracle,
            &mut inputs,
        );
        layers::report_end_to_end(&pass, &mut out);
        finish(&mut cluster, &mut oracle, true, &pass, &mut out);
        out.set("peak_rss_mb", host::peak_rss_mb());
    }
    out
}

/// The oracle verdict and the counts that go with it. Where no peer
/// is ever declared down nothing replays a frame the link sheds, so
/// `shed_fails` counts those as failed operations.
pub fn finish<N: Node>(
    cluster: &mut Cluster<N>,
    oracle: &mut Oracle,
    shed_fails: bool,
    pass: &Pass,
    out: &mut Outcome,
) {
    let bad = check(cluster, oracle);
    let shed = if shed_fails { pass.link.shed } else { 0 };
    if shed > 0 {
        out.notes.push(format!("{shed} frames shed by the link"));
    }
    out.failed += bad + shed;
    out.correct &= bad == 0;
    out.notes.push(format!(
        "oracle: {} updates folded, {} replicas x {} keys compared, {bad} differ",
        oracle.folded,
        cluster.n(),
        cluster.nodes[0].store().key_count()
    ));
}

/// Pre-crash states of every replica, key by key.
fn states_of<N: Node>(cluster: &mut Cluster<N>, keys: usize) -> Vec<Vec<State>> {
    (0..cluster.n())
        .map(|pid| {
            let store = cluster.nodes[pid].store();
            (0..keys as u64).map(|k| store.materialize_key(k)).collect()
        })
        .collect()
}

/// Recovery repetitions; `recovery_s` is their minimum.
const RECOVERY_REPS: usize = 5;

/// Flush, drop, and reopen every replica from its segment files;
/// returns (seconds, keys reopened, keys that differ from the flushed
/// pre-crash state).
fn crash_and_reopen<N: Node>(
    mut cluster: Cluster<N>,
    persist: &dyn Fn(u32) -> N::Backend,
) -> (f64, u64, u64) {
    cluster.quiesce();
    for node in &mut cluster.nodes {
        node.store().flush_backends();
    }
    let before = states_of(&mut cluster, SEG.keys);
    drop(cluster);
    let mut best = f64::INFINITY;
    let (mut keys, mut bad) = (0, 0);
    for rep in 0..RECOVERY_REPS {
        let t0 = Instant::now();
        let mut reopened: Vec<Store<N::Backend>> = (0..REPLICAS as u32)
            .map(|pid| UcStore::reopen(SetAdt::new(), pid, SHARDS, gc(), persist(pid)))
            .collect();
        best = best.min(t0.elapsed().as_secs_f64());
        if rep == 0 {
            for (pid, store) in reopened.iter_mut().enumerate() {
                keys += store.key_count() as u64;
                for (key, want) in before[pid].iter().enumerate() {
                    if &store.materialize_key(key as u64) != want {
                        bad += 1;
                    }
                }
            }
        }
    }
    (best, keys, bad)
}

/// The end of `replicate-seg`: crash, reopen, and what is on disk.
fn recover<N: Node>(
    plan: &Plan,
    cluster: Cluster<N>,
    dir: &std::path::Path,
    persist: &dyn Fn(u32) -> N::Backend,
    pass: &Pass,
    out: &mut Outcome,
) {
    let (recovery_s, keys, bad) = crash_and_reopen(cluster, persist);
    let (files, bytes) = host::dir_usage(dir);
    if plan.traced {
        // No set-up repetitions ran; this reopen is the one there is.
        plan.probe("recovery_s", recovery_s);
    }
    // Compaction keeps the directory the size of the key set, so
    // what storage costs per update is what it writes per update.
    out.set(
        "disk_bytes_per_update",
        pass.written_bytes as f64 / pass.updates.max(1) as f64,
    );
    out.notes.push(format!(
        "end of run: {keys} keys reopened in {recovery_s:.4} s, {bad} differ from the flushed state; {files} files, {bytes} bytes on disk"
    ));
    out.failed += bad;
    out.correct &= bad == 0;
}

pub fn run_seg(plan: &Plan) -> Outcome {
    let mut out = Outcome::new(SEG.name, plan.seed);
    let root = ScratchRoot::new("seg");
    out.notes.push(format!(
        "segment root {} ({}); no device latency in the timings",
        root.path().display(),
        if root.tmpfs { "tmpfs" } else { "not tmpfs" }
    ));
    out.notes
        .push("no injected delay: latency is processor time only".into());
    if plan.traced {
        let plain_dir = rep_dir(&root, 0);
        let persist = |pid: u32| segment_factory(&plain_dir, pid);
        let (mut cluster, mut oracle, mut inputs) =
            build::<Plain<SegmentFactory>>(&SEG, plan.seed, &persist);
        let plain = measure(
            &SEG,
            plan,
            plan.epochs / 4,
            &mut cluster,
            &mut oracle,
            &mut inputs,
        );
        recover(plan, cluster, &plain_dir, &persist, &plain, &mut out);

        let dir = rep_dir(&root, 1);
        let persist = |pid: u32| SpannedFactory {
            inner: segment_factory(&dir, pid),
        };
        type N = Traced<SpannedFactory<SegmentFactory>>;
        let (mut cluster, mut oracle, mut inputs) = build::<N>(&SEG, plan.seed, &persist);
        let mut traced = measure(
            &SEG,
            plan,
            plan.epochs / 4,
            &mut cluster,
            &mut oracle,
            &mut inputs,
        );
        finish(&mut cluster, &mut oracle, true, &traced, &mut out);
        traced.files_end = host::dir_usage(&dir).0;
        wrap::reset();
        let (_, keys, bad) = crash_and_reopen(cluster, &persist);
        let mut reopen = Totals::default();
        wrap::fold_into(&mut reopen, None);
        traced.reopen_ns_per_key = reopen.total_of(SpanName::BackendOpen) as f64
            / (RECOVERY_REPS as u64 * keys).max(1) as f64;
        out.failed += bad;
        out.correct &= bad == 0;
        layers::report(&plain, &mut traced, &mut out);
    } else {
        let dir = rep_dir(&root, 0);
        let persist = |pid: u32| segment_factory(&dir, pid);
        let (mut cluster, mut oracle, mut inputs) =
            build::<Plain<SegmentFactory>>(&SEG, plan.seed, &persist);
        let pass = measure(
            &SEG,
            plan,
            plan.epochs,
            &mut cluster,
            &mut oracle,
            &mut inputs,
        );
        layers::report_end_to_end(&pass, &mut out);
        finish(&mut cluster, &mut oracle, true, &pass, &mut out);
        recover(plan, cluster, &dir, &persist, &pass, &mut out);
        out.set("peak_rss_mb", host::peak_rss_mb());
    }
    out
}
