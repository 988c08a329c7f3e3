//! The event reactor and the online monitor, reported per layer only.
//!
//! The `replicate-mem` stream is replayed for two seconds through
//! `EventCluster { workers: 1 }`, closed loop from this one client,
//! and for two more with `MonitorConfig::sampled(0.01)` attached to
//! every store. On this host a closed-loop invoke through the reactor
//! is a futex ping-pong that measures the hypervisor's wake-up path
//! (rule 1 of the README), so these numbers are informational and
//! carry no bound.

use crate::cluster::{Store, REPLICAS, SHARDS};
use crate::input::Inputs;
use crate::metrics::Outcome;
use crate::replicate::{Plain, MEM};
use crate::stats::percentile_ns;
use crate::Plan;
use std::time::{Duration, Instant};
use uc_core::{GcFactory, MemFactory, StoreInput, StoreOutput, UcStore};
use uc_criteria::online::MonitorConfig;
use uc_runtime::{EventCluster, RuntimeConfig};
use uc_sim::{Pid, ReliableLink, RetryConfig};
use uc_spec::{SetAdt, SetQuery};

/// Each side runs `SLICES` slices of `SLICE`, alternating, so that a
/// slow phase of the host falls on both; a side's rate is that of its
/// fastest slice.
const SLICE: Duration = Duration::from_millis(500);
const SLICES: usize = 4;
const SMOKE_SLICE: Duration = Duration::from_millis(60);
const BURST: usize = 64;

type Reactor = EventCluster<Plain<MemFactory>>;

fn spawn(plan: &Plan, monitor: Option<MonitorConfig>) -> Reactor {
    let cfg = RuntimeConfig {
        workers: 1,
        maintenance_interval: Some(Duration::from_millis(8)),
        ..RuntimeConfig::default()
    };
    EventCluster::with_config(cfg, REPLICAS, |pid| {
        let mut store: Store<MemFactory> =
            UcStore::new(SetAdt::new(), pid, SHARDS, GcFactory { n: REPLICAS });
        if let Some(m) = &monitor {
            store.attach_monitor(m.clone().with_peers(0..REPLICAS as u32));
        }
        ReliableLink::new(store, RetryConfig::default(), plan.seed ^ pid as u64)
    })
}

/// One slice of the stream on `cluster`: updates per second of update
/// time, with every update invoke's round trip added to `roundtrips`.
fn slice(
    cluster: &Reactor,
    inputs: &mut Inputs,
    length: Duration,
    roundtrips: &mut Vec<u32>,
) -> f64 {
    let (mut updates, mut update_ns) = (0u64, 0u64);
    let start = Instant::now();
    while start.elapsed() < length {
        let burst = inputs.updates(BURST);
        let reads = inputs.keys(BURST);
        let t0 = Instant::now();
        for (i, (key, u)) in burst.into_iter().enumerate() {
            let at = Instant::now();
            let out = cluster.invoke((i % REPLICAS) as Pid, StoreInput::Update(key, u));
            roundtrips.push(at.elapsed().as_nanos().min(u32::MAX as u128) as u32);
            debug_assert!(matches!(out, StoreOutput::Ack { .. }));
        }
        cluster.quiesce();
        update_ns += t0.elapsed().as_nanos() as u64;
        updates += BURST as u64;
        for (i, key) in reads.into_iter().enumerate() {
            std::hint::black_box(cluster.invoke(
                (i % REPLICAS) as Pid,
                StoreInput::Query(key, SetQuery::Read),
            ));
        }
    }
    updates as f64 * 1e9 / update_ns.max(1) as f64
}

pub fn report(plan: &Plan, out: &mut Outcome) {
    let length = if plan.smoke { SMOKE_SLICE } else { SLICE };
    let sides = [
        spawn(plan, None),
        spawn(plan, Some(MonitorConfig::sampled(0.01))),
    ];
    let mut inputs = [
        Inputs::new(plan.seed, MEM.keys),
        Inputs::new(plan.seed, MEM.keys),
    ];
    let mut roundtrips = [Vec::new(), Vec::new()];
    let mut best = [0f64; 2];
    for _ in 0..SLICES {
        for side in 0..2 {
            let rate = slice(
                &sides[side],
                &mut inputs[side],
                length,
                &mut roundtrips[side],
            );
            best[side] = best[side].max(rate);
        }
    }
    let [bare, watched] = sides;
    let metrics = bare.metrics();
    bare.shutdown();
    let violations: u64 = watched
        .shutdown()
        .iter_mut()
        .filter_map(|n| n.inner_mut().monitor_stats().map(|s| s.total_violations()))
        .sum();
    out.set(
        "runtime.invoke_roundtrip_us_p50",
        percentile_ns(&mut roundtrips[0], 50.0) / 1e3,
    );
    out.set("runtime.updates_per_s", best[0]);
    out.set(
        "runtime.mean_batch",
        metrics.messages_delivered as f64 / metrics.delivery_activations.max(1) as f64,
    );
    out.set(
        "monitor.overhead_pct",
        100.0 * (best[0] - best[1]) / best[0],
    );
    if violations > 0 {
        out.correct = false;
        out.failed += violations;
    }
    out.notes.push(format!(
        "reactor section: {SLICES} x {:.2} s bare alternating with as much under the 1 % monitor, one worker, closed loop; monitor violations {violations}",
        length.as_secs_f64()
    ));
}
