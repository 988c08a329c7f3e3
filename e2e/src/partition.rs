//! `partition-heal`: cut replica 2 off, let both sides diverge,
//! reconnect, and reconcile.
//!
//! A cycle: the stepper starts dropping frames across the cut and
//! tells both sides `PeerDown` in the same virtual millisecond (so the
//! documented shed-before-verdict hole is not exercised); 4096
//! majority and 1024 minority updates with reads on both sides;
//! restore, `PeerUp` on both sides, and step until every
//! `HealSession` has closed and every link is acknowledged; then a
//! few ticks for GC to catch up. Engine and log work differently here
//! than in `replicate-*`: GC is pinned, logs grow long, reads fold a
//! suffix, and the heal ingests in bulk, idempotently.
//!
//! The link's retry queue is smaller than a partition's traffic, so
//! it sheds toward the unreachable peer; that is what the heal is for,
//! and those frames are reported as `link.shed`, not as failures. An
//! update that is still missing somewhere after the heal is a failure.

use crate::cluster::{Cluster, Node, REPLICAS, ROUNDS_PER_TICK};
use crate::host;
use crate::input::Inputs;
use crate::layers::{self, Pass};
use crate::metrics::Outcome;
use crate::oracle::{Acked, Oracle};
use crate::replicate::{self, Plain, Shape, Traced};
use crate::stats::{estimate, percentile, Estimator};
use crate::wrap::{self, SpanName};
use crate::Plan;
use std::time::Instant;
use uc_core::{MemFactory, StoreInput};
use uc_sim::Pid;

const SHAPE: Shape = Shape {
    name: "partition-heal",
    keys: 1024,
    rounds: 64,
};
/// The replica that is cut off.
const CUT: Pid = 2;
/// Per round: 64 majority updates (alternating replicas 0 and 1) and
/// 16 minority ones, then as many reads from the same replicas.
const BURST: usize = 80;
const MAJORITY_PER_CYCLE: u64 = 4096;
const MINORITY_PER_CYCLE: u64 = 1024;
/// Ticks after the heal for stability to advance and logs to compact.
const CATCH_UP_TICKS: u64 = 3;
/// A heal that has not closed after this many rounds never will.
const HEAL_ROUND_LIMIT: u64 = 20_000;

fn replica_of(i: usize) -> Pid {
    if i % 5 == 4 {
        CUT
    } else {
        (i % 2) as Pid
    }
}

/// Tell every replica about the peers across the cut.
fn membership<N: Node>(
    cluster: &mut Cluster<N>,
    input: fn(Pid) -> StoreInput<crate::cluster::Adt>,
) {
    for pid in 0..REPLICAS as Pid {
        for peer in 0..REPLICAS as Pid {
            if (pid == CUT) != (peer == CUT) {
                cluster.invoke(pid, input(peer));
            }
        }
    }
}

#[derive(Default)]
struct HealCounts {
    cycles: u64,
    /// Processor time from `PeerUp` to every session closed, per cycle.
    heal_ms: Vec<f64>,
    rounds: u64,
    chunks: u64,
    digest_skips: u64,
    replay_bytes: u64,
    unhealed: u64,
}

fn heal_totals<N: Node>(cluster: &mut Cluster<N>) -> (u64, u64, u64) {
    cluster.nodes.iter_mut().fold((0, 0, 0), |acc, n| {
        let s = n.store();
        (
            acc.0 + s.heal_chunks(),
            acc.1 + s.heal_digest_skips(),
            acc.2 + s.heal_replay_bytes(),
        )
    })
}

fn sessions_open<N: Node>(cluster: &mut Cluster<N>) -> bool {
    cluster
        .nodes
        .iter_mut()
        .any(|n| n.store().heal_sessions().next().is_some())
}

fn measure<N: Node>(
    plan: &Plan,
    cycles: usize,
    cluster: &mut Cluster<N>,
    oracle: &mut Oracle,
    inputs: &mut Inputs,
) -> (Pass, HealCounts) {
    let per_cycle = SHAPE.rounds * BURST;
    let mut pass = Pass::default();
    let mut heal = HealCounts::default();
    let mut acked: Vec<Acked> = Vec::with_capacity(per_cycle);
    let mut vis: Vec<u32> = Vec::with_capacity(per_cycle);
    layers::begin(&mut pass, cluster);
    let before = heal_totals(cluster);
    for cycle in 0..cycles {
        if Instant::now() > plan.deadline {
            pass.cut_short = true;
            break;
        }
        plan.before_epoch(cycle);
        let updates = inputs.updates(per_cycle);
        let reads = inputs.keys(per_cycle);
        vis.clear();
        if N::TRACED {
            wrap::reset();
        }
        let r0 = Instant::now();
        let section = wrap::section(N::TRACED, SpanName::BenchRest);
        cluster.isolate(Some(CUT));
        membership(cluster, StoreInput::PeerDown);
        wrap::end_section(section);
        let mut rest_ns = r0.elapsed().as_nanos() as u64;

        let (mut update_ns, mut read_ns) = (0u64, 0u64);
        for round in 0..SHAPE.rounds {
            let slice = round * BURST..(round + 1) * BURST;
            // The last connected peer of a majority replica is the
            // other one; the minority replica has none.
            let (u, r) = layers::round(
                cluster,
                &updates[slice.clone()],
                &reads[slice],
                replica_of,
                |pid| (pid != CUT).then_some(1 - pid as usize),
                &mut pass,
                &mut acked,
                &mut vis,
            );
            update_ns += u;
            read_ns += r;
        }

        cluster.isolate(None);
        let rounds_before = cluster.rounds;
        let h0 = Instant::now();
        let section = wrap::section(N::TRACED, SpanName::BenchHeal);
        membership(cluster, StoreInput::PeerUp);
        while sessions_open(cluster) || cluster.in_flight() || cluster.unacked() {
            cluster.step();
            if cluster.rounds - rounds_before > HEAL_ROUND_LIMIT {
                heal.unhealed += 1;
                break;
            }
        }
        wrap::end_section(section);
        let heal_ns = h0.elapsed().as_nanos() as u64;
        heal.heal_ms.push(heal_ns as f64 / 1e6);
        heal.rounds += cluster.rounds - rounds_before;
        heal.cycles += 1;
        let r0 = Instant::now();
        let section = wrap::section(N::TRACED, SpanName::BenchRest);
        for _ in 0..CATCH_UP_TICKS * ROUNDS_PER_TICK {
            cluster.step();
        }
        cluster.quiesce();
        wrap::end_section(section);
        rest_ns += r0.elapsed().as_nanos() as u64;

        pass.record_epoch(
            per_cycle as u64,
            update_ns,
            per_cycle as u64,
            read_ns,
            &mut vis,
        );
        pass.timed_ns += update_ns + read_ns + heal_ns + rest_ns;
        if N::TRACED {
            let dump =
                (cycle == 0).then(|| host::out_dir().join(format!("spans-{}.tsv", SHAPE.name)));
            wrap::fold_into(&mut pass.totals, dump.as_deref());
        }
        oracle.fold(&mut acked);
    }
    layers::end(&mut pass, cluster);
    let after = heal_totals(cluster);
    heal.chunks = after.0 - before.0;
    heal.digest_skips = after.1 - before.1;
    heal.replay_bytes = after.2 - before.2;
    pass.failed += heal.unhealed;
    (pass, heal)
}

fn divergent(heal: &HealCounts) -> f64 {
    (heal.cycles * (MAJORITY_PER_CYCLE + MINORITY_PER_CYCLE)).max(1) as f64
}

/// Estimated wire bytes of one streamed entry, as the store counts
/// them: key, timestamp, update.
fn entry_bytes() -> f64 {
    (8 + 12 + std::mem::size_of::<crate::cluster::Upd>()) as f64
}

fn report_heal_end_to_end(heal: &HealCounts, out: &mut Outcome) {
    out.set_with_note("heal_ms", estimate(&heal.heal_ms, Estimator::LowEnd));
    out.set(
        "heal_bytes_per_update",
        heal.replay_bytes as f64 / divergent(heal),
    );
    out.notes.push(format!(
        "heal: {} cycles, median {:.3} ms, {} chunks, {} bytes streamed, {} cycles did not close",
        heal.cycles,
        percentile(&heal.heal_ms, 50.0),
        heal.chunks,
        heal.replay_bytes,
        heal.unhealed
    ));
}

/// One repetition of `setup_s` (see [`Plan::before_epoch`]).
pub fn setup(seed: u64) -> Vec<(&'static str, f64)> {
    crate::timed_setup(|| replicate::build::<Plain<MemFactory>>(&SHAPE, seed, &|_| MemFactory))
}

pub fn run(plan: &Plan) -> Outcome {
    let mut out = Outcome::new(SHAPE.name, plan.seed);
    out.notes
        .push("no injected delay: latency is processor time only".into());
    if plan.traced {
        let (plain, plain_heal) = {
            let (mut cluster, mut oracle, mut inputs) =
                replicate::build::<Plain<MemFactory>>(&SHAPE, plan.seed, &|_| MemFactory);
            measure(
                plan,
                plan.epochs / 4,
                &mut cluster,
                &mut oracle,
                &mut inputs,
            )
        };
        report_heal_end_to_end(&plain_heal, &mut out);
        let (mut cluster, mut oracle, mut inputs) =
            replicate::build::<Traced<MemFactory>>(&SHAPE, plan.seed, &|_| MemFactory);
        let (mut traced, heal) = measure(
            plan,
            plan.epochs / 4,
            &mut cluster,
            &mut oracle,
            &mut inputs,
        );
        replicate::finish(&mut cluster, &mut oracle, false, &traced, &mut out);
        layers::report(&plain, &mut traced, &mut out);
        let t = &traced.totals;
        let entries = heal.replay_bytes as f64 / entry_bytes();
        let us = |ns: u64| ns as f64 / 1e3;
        // Two sessions toward the minority replica and two from it.
        let sessions = (heal.cycles * 4).max(1) as f64;
        let slots = sessions * (crate::cluster::SHARDS as f64) * 8.0;
        out.set(
            "heal.digest_us_per_session",
            us(t.total_of(SpanName::HealDigest)) / sessions,
        );
        out.set(
            "heal.collect_us_per_entry",
            us(t.total_of(SpanName::HealCollect)) / entries.max(1.0),
        );
        out.set(
            "heal.chunk_apply_us_per_entry",
            us(t.total_of(SpanName::HealChunkApply)) / entries.max(1.0),
        );
        out.set(
            "heal.round_trips_per_cycle",
            heal.rounds as f64 / 2.0 / heal.cycles.max(1) as f64,
        );
        out.set(
            "heal.chunks_per_cycle",
            heal.chunks as f64 / heal.cycles.max(1) as f64,
        );
        out.set("heal.digest_skip_ratio", heal.digest_skips as f64 / slots);
        out.set(
            "heal.entries_per_divergent_update",
            entries / divergent(&heal),
        );
    } else {
        let (mut cluster, mut oracle, mut inputs) =
            replicate::build::<Plain<MemFactory>>(&SHAPE, plan.seed, &|_| MemFactory);
        let (pass, heal) = measure(plan, plan.epochs, &mut cluster, &mut oracle, &mut inputs);
        layers::report_end_to_end(&pass, &mut out);
        report_heal_end_to_end(&heal, &mut out);
        replicate::finish(&mut cluster, &mut oracle, false, &pass, &mut out);
        out.set("peak_rss_mb", host::peak_rss_mb());
    }
    out
}
