//! What a measured pass over a [`Cluster`] collects, and the
//! per-layer metrics read off a traced pass.
//!
//! Which end-to-end metric each layer metric should move, and on which
//! workload, is written down in the README's metric table.

use crate::cluster::{Cluster, Node, Upd, REPLICAS};
use crate::host;
use crate::metrics::Outcome;
use crate::oracle::Acked;
use crate::stats::{estimate, percentile, percentile_ns, Estimator};
use crate::wrap::{self, Layer, SpanName, Totals, LAYERS};
use std::time::Instant;
use uc_core::store::Key;
use uc_core::{StoreInput, StoreOutput};
use uc_sim::{LinkStats, Pid};
use uc_spec::SetQuery;

#[derive(Default)]
pub struct Pass {
    /// Per epoch: updates per second of update-burst time.
    pub update_rates: Vec<f64>,
    /// Per epoch: reads per second of read-burst time.
    pub read_rates: Vec<f64>,
    /// Per epoch: p50 / p99 of the update-visibility samples.
    pub vis_p50_us: Vec<f64>,
    pub vis_p99_us: Vec<f64>,
    pub updates: u64,
    pub reads: u64,
    pub failed: u64,
    /// Wall time of the timed sections.
    pub timed_ns: u64,
    pub cut_short: bool,
    pub totals: Totals,
    /// Summed over the nodes, over the pass.
    pub link: LinkStats,
    pub unacked_max: usize,
    pub frames_routed: u64,
    pub repair_steps: u64,
    pub repair_events: u64,
    pub compacted: u64,
    pub write_syscalls: u64,
    pub written_bytes: u64,
    pub log_len_end: u64,
    pub key_count: u64,
    pub files_end: u64,
    pub reopen_ns_per_key: f64,
}

fn link_sum<N: Node>(cluster: &Cluster<N>) -> LinkStats {
    let mut sum = LinkStats::default();
    for node in &cluster.nodes {
        let s = node.link_stats();
        sum.retransmits += s.retransmits;
        sum.shed += s.shed;
        sum.duplicates_suppressed += s.duplicates_suppressed;
        sum.delivered += s.delivered;
        sum.gaps_skipped += s.gaps_skipped;
    }
    sum
}

/// The engines' public counters, summed over keys and replicas:
/// (repair steps, repair events, updates compacted into a base).
/// `StableGc` repairs lazily — it refolds base + log at the next
/// query — and counts that as query fold steps, not repair steps or
/// events, so those are added to the steps here.
fn repairs<N: Node>(cluster: &mut Cluster<N>) -> (u64, u64, u64) {
    let mut sum = (0, 0, 0);
    for node in &mut cluster.nodes {
        let store = node.store();
        sum.0 += store.total_repair_steps();
        sum.1 += store.total_repair_events();
        for key in store.keys() {
            let strategy = store.engine(key).expect("a listed key").strategy();
            sum.0 += strategy.query_fold_steps();
            sum.2 += strategy.compacted();
        }
    }
    sum
}

/// Note the counters a pass reports as differences.
pub fn begin<N: Node>(pass: &mut Pass, cluster: &mut Cluster<N>) {
    pass.link = link_sum(cluster);
    pass.frames_routed = cluster.frames_routed;
    (pass.repair_steps, pass.repair_events, pass.compacted) = repairs(cluster);
    pass.write_syscalls = host::write_syscalls();
    pass.written_bytes = host::written_bytes();
    cluster.unacked_max = 0;
}

pub fn end<N: Node>(pass: &mut Pass, cluster: &mut Cluster<N>) {
    let (before, now) = (pass.link, link_sum(cluster));
    pass.link = LinkStats {
        retransmits: now.retransmits - before.retransmits,
        shed: now.shed - before.shed,
        duplicates_suppressed: now.duplicates_suppressed - before.duplicates_suppressed,
        delivered: now.delivered - before.delivered,
        gaps_skipped: now.gaps_skipped - before.gaps_skipped,
    };
    pass.frames_routed = cluster.frames_routed - pass.frames_routed;
    let (steps, events, compacted) = repairs(cluster);
    pass.repair_steps = steps - pass.repair_steps;
    pass.repair_events = events - pass.repair_events;
    pass.compacted = compacted - pass.compacted;
    pass.write_syscalls = host::write_syscalls() - pass.write_syscalls;
    pass.written_bytes = host::written_bytes() - pass.written_bytes;
    pass.unacked_max = cluster.unacked_max;
    for node in &mut cluster.nodes {
        let store = node.store();
        pass.log_len_end += store.total_log_len() as u64;
        pass.key_count += store.key_count() as u64;
    }
}

/// One round of a cluster workload: an update burst (`updates[i]`
/// invoked at replica `who(i)`), a delivery round with its tick when
/// due, then a read burst of the same shape. `last_peer(pid)` is the
/// node that sees `pid`'s updates last among those connected to it,
/// if any: an update's visibility sample runs from its invoke to the
/// return of that node's `on_batch`. Returns the nanoseconds of the
/// update section and of the read section.
#[allow(clippy::too_many_arguments)]
pub fn round<N: Node>(
    cluster: &mut Cluster<N>,
    updates: &[(Key, Upd)],
    reads: &[Key],
    who: impl Fn(usize) -> Pid,
    last_peer: impl Fn(Pid) -> Option<usize>,
    pass: &mut Pass,
    acked: &mut Vec<Acked>,
    vis_ns: &mut Vec<u32>,
) -> (u64, u64) {
    let seen_from = vis_ns.len();
    let t0 = Instant::now();
    let section = wrap::section(N::TRACED, SpanName::BenchUpdates);
    for (i, (key, u)) in updates.iter().enumerate() {
        let pid = who(i);
        if last_peer(pid).is_some() {
            // Held as the offset from `t0` until the delivery below.
            vis_ns.push(t0.elapsed().as_nanos() as u32);
        }
        match cluster.invoke(pid, StoreInput::Update(*key, *u)) {
            StoreOutput::Ack { key, ts } => acked.push((ts, key, *u)),
            _ => pass.failed += 1,
        }
    }
    cluster.step();
    wrap::end_section(section);
    let t1 = Instant::now();
    let mut sample = seen_from;
    for i in 0..updates.len() {
        if let Some(peer) = last_peer(who(i)) {
            let seen = cluster.delivered_at[peer].duration_since(t0).as_nanos() as u32;
            vis_ns[sample] = seen - vis_ns[sample];
            sample += 1;
        }
    }
    let t2 = Instant::now();
    let section = wrap::section(N::TRACED, SpanName::BenchReads);
    for (i, key) in reads.iter().enumerate() {
        match cluster.invoke(who(i), StoreInput::Query(*key, SetQuery::Read)) {
            StoreOutput::Value { out, .. } => {
                std::hint::black_box(out);
            }
            _ => pass.failed += 1,
        }
    }
    wrap::end_section(section);
    let t3 = Instant::now();
    ((t1 - t0).as_nanos() as u64, (t3 - t2).as_nanos() as u64)
}

impl Pass {
    /// Close an epoch: its rates and the percentiles of its
    /// visibility samples (nanoseconds). The caller adds the epoch's
    /// timed sections to `timed_ns`.
    pub fn record_epoch(
        &mut self,
        updates: u64,
        update_ns: u64,
        reads: u64,
        read_ns: u64,
        vis_ns: &mut [u32],
    ) {
        self.updates += updates;
        self.reads += reads;
        self.update_rates
            .push(updates as f64 * 1e9 / update_ns as f64);
        self.read_rates.push(reads as f64 * 1e9 / read_ns as f64);
        self.vis_p50_us.push(percentile_ns(vis_ns, 50.0) / 1e3);
        self.vis_p99_us.push(percentile_ns(vis_ns, 99.0) / 1e3);
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The `bench.*` metrics every workload reports: `plain` and `traced`
/// are passes of the same length over the same inputs.
pub fn report_bench(plain: &Pass, traced: &Pass, out: &mut Outcome) {
    let fast = percentile(&plain.update_rates, 90.0);
    let mid = percentile(&plain.update_rates, 50.0);
    let fast_traced = percentile(&traced.update_rates, 90.0);
    out.set(
        "bench.trace_overhead_pct",
        100.0 * (fast - fast_traced) / fast,
    );
    out.set("bench.host_noise_pct", 100.0 * (fast - mid) / fast);
    out.set(
        "bench.visibility_p99_us",
        percentile(&plain.vis_p99_us, 50.0),
    );
    out.set("bench.epochs", traced.update_rates.len() as f64);
    let t = &traced.totals;
    out.set(
        "bench.span_coverage_pct",
        100.0 * ratio(t.root_ns as f64, traced.timed_ns as f64),
    );
    let shares: Vec<String> = LAYERS
        .iter()
        .map(|&l| {
            format!(
                "{l:?} {:.1}%",
                100.0 * ratio(t.layer_self_ns(l) as f64, traced.timed_ns as f64)
            )
        })
        .collect();
    out.notes.push(format!(
        "traced pass: {} spans over {:.2} s of timed work ({} dropped); self time by layer: {}; outside any span {:.1}%",
        t.spans,
        traced.timed_ns as f64 / 1e9,
        t.dropped,
        shares.join(", "),
        100.0 - 100.0 * ratio(t.root_ns as f64, traced.timed_ns as f64)
    ));
    out.attempted += plain.updates + plain.reads + traced.updates + traced.reads;
    out.failed += plain.failed + traced.failed;
}

/// Link, store, engine and storage metrics of a traced cluster pass.
pub fn report(plain: &Pass, traced: &mut Pass, out: &mut Outcome) {
    report_bench(plain, traced, out);
    let totals = &mut traced.totals;
    let updates = traced.updates as f64;
    let timed = traced.timed_ns as f64;
    let us = |ns: u64| ns as f64 / 1e3;

    out.set(
        "bench.update_p99_us",
        totals.dur_percentile(SpanName::LinkInvokeUpdate, 99.0) / 1e3,
    );

    out.set(
        "link.self_us_per_update",
        ratio(us(totals.layer_self_ns(Layer::Link)), updates),
    );
    out.set(
        "link.wire_msgs_per_update",
        ratio(traced.frames_routed as f64, updates),
    );
    out.set("link.retransmits", traced.link.retransmits as f64);
    out.set("link.shed", traced.link.shed as f64);
    out.set(
        "link.duplicates_suppressed",
        traced.link.duplicates_suppressed as f64,
    );
    out.set("link.unacked_depth_max", traced.unacked_max as f64);

    out.set(
        "store.invoke_self_us_p50",
        totals.self_percentile(SpanName::StoreInvokeUpdate, 50.0) / 1e3,
    );
    out.set(
        "store.ingest_self_us_per_update",
        ratio(us(totals.self_of(SpanName::StoreMsgUpdate)), updates),
    );
    out.set(
        "store.query_us_p50",
        totals.dur_percentile(SpanName::StoreInvokeQuery, 50.0) / 1e3,
    );
    out.set(
        "store.query_us_p99",
        totals.dur_percentile(SpanName::StoreInvokeQuery, 99.0) / 1e3,
    );
    out.set(
        "store.tick_ms_p50",
        totals.dur_percentile(SpanName::StoreTick, 50.0) / 1e6,
    );
    out.set(
        "store.tick_share",
        ratio(totals.total_of(SpanName::StoreTick) as f64, timed),
    );
    out.set("store.log_len_end", traced.log_len_end as f64);
    out.set("store.key_count", traced.key_count as f64);

    out.set(
        "engine.repair_steps_per_update",
        ratio(traced.repair_steps as f64, updates),
    );
    out.set(
        "engine.repair_events_per_update",
        ratio(traced.repair_events as f64, updates),
    );
    out.set(
        "engine.inserts_per_repair",
        ratio(updates * REPLICAS as f64, traced.repair_events as f64),
    );
    out.set(
        "engine.compacted_per_update",
        ratio(traced.compacted as f64, updates),
    );

    let node_ticks = totals.count_of(SpanName::StoreTick) as f64;
    out.set(
        "storage.append_us_per_update",
        ratio(us(totals.total_of(SpanName::BackendAppend)), updates),
    );
    out.set(
        "storage.flush_ms_per_tick",
        ratio(
            totals.total_of(SpanName::BackendFlush) as f64 / 1e6,
            node_ticks,
        ),
    );
    out.set(
        "storage.truncate_us_per_call",
        ratio(
            us(totals.total_of(SpanName::BackendTruncate)),
            totals.count_of(SpanName::BackendTruncate) as f64,
        ),
    );
    out.set(
        "storage.truncates_per_update",
        ratio(totals.count_of(SpanName::BackendTruncate) as f64, updates),
    );
    out.set(
        "storage.busy_share",
        ratio(totals.layer_self_ns(Layer::Storage) as f64, timed),
    );
    out.set(
        "storage.write_syscalls_per_update",
        ratio(traced.write_syscalls as f64, updates),
    );
    out.set("storage.files_end", traced.files_end as f64);
    out.set("storage.reopen_us_per_key", traced.reopen_ns_per_key / 1e3);
}

/// The end-to-end metrics every workload reads off its epochs.
pub fn report_end_to_end(pass: &Pass, out: &mut Outcome) {
    out.set_with_note(
        "updates_per_s",
        estimate(&pass.update_rates, Estimator::HighEnd),
    );
    out.set_with_note(
        "reads_per_s",
        estimate(&pass.read_rates, Estimator::HighEnd),
    );
    out.set_with_note(
        "visibility_p50_us",
        estimate(&pass.vis_p50_us, Estimator::LowEnd),
    );
    out.attempted += pass.updates + pass.reads;
    out.failed += pass.failed;
    if pass.cut_short {
        out.notes.push(format!(
            "run cut short at the time limit after {} epochs",
            pass.update_rates.len()
        ));
    }
}
