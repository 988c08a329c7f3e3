//! The metric table: the one place that names every metric, its unit,
//! direction and regression bound. `BENCHMARK.json` is printed from it
//! (`e2e manifest`), and `compare` / `repeat` judge with its bounds.

use std::collections::BTreeMap;

pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "replicate-mem",
        "steady-state replication in memory: store, engine, log and link do all the work, storage, pool and heal none; the baseline the others are read against",
    ),
    (
        "replicate-seg",
        "the same stream over segment files on tmpfs: storage does most of the work, so a storage change shows here and must not move replicate-mem",
    ),
    (
        "pool-mixed",
        "one ingest pool fed peer bursts beside local updates and snapshot reads: inbox, published snapshots and worker hand-off do the work, link, storage and heal none",
    ),
    (
        "partition-heal",
        "cut one replica off, diverge, reconnect, reconcile: stalled GC, long logs, bulk idempotent ingest, and the only workload where core::heal runs",
    ),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Defined by every workload; listed under `end_to_end` in
    /// `BENCHMARK.json` and printed with `--trace 0`.
    EndToEnd,
    /// End-to-end, but defined by one workload only. The driver wants
    /// every `end_to_end` metric from every workload and none that
    /// reads 0, so these are listed under `per_layer` there (value 0
    /// where undefined) and gated by `compare` / `repeat` here.
    Workload(&'static str),
    /// A single layer's metric, from the traced pass.
    Layer,
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may worsen.
    pub bound: Option<f64>,
    pub kind: Kind,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound: Some(bound),
        kind: Kind::EndToEnd,
    }
}

const fn only(
    workload: &'static str,
    name: &'static str,
    unit: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
        bound: Some(bound),
        kind: Kind::Workload(workload),
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound: None,
        kind: Kind::Layer,
    }
}

pub const METRICS: &[MetricDef] = &[
    // Bounds are set by what repeats on the sandbox (README, rule 2):
    // while a neighbour is busy for a whole run, the run reads up to a
    // third low, and no estimator sees through that.
    e2e("setup_s", "s", false, 0.25),
    e2e("updates_per_s", "1/s", true, 0.25),
    e2e("reads_per_s", "1/s", true, 0.25),
    e2e("visibility_p50_us", "us", false, 0.25),
    e2e("peak_rss_mb", "MiB", false, 0.05),
    only("replicate-seg", "recovery_s", "s", 0.25),
    only("replicate-seg", "disk_bytes_per_update", "B", 0.02),
    only("partition-heal", "heal_ms", "ms", 0.25),
    only("partition-heal", "heal_bytes_per_update", "B", 0.01),
    layer("link.self_us_per_update", "us", false),
    layer("link.wire_msgs_per_update", "count", false),
    layer("link.retransmits", "count", false),
    layer("link.shed", "count", false),
    layer("link.duplicates_suppressed", "count", false),
    layer("link.unacked_depth_max", "count", false),
    layer("store.invoke_self_us_p50", "us", false),
    layer("store.ingest_self_us_per_update", "us", false),
    layer("store.query_us_p50", "us", false),
    layer("store.query_us_p99", "us", false),
    layer("store.tick_ms_p50", "ms", false),
    layer("store.tick_share", "ratio", false),
    layer("store.log_len_end", "count", false),
    layer("store.key_count", "count", false),
    layer("engine.repair_steps_per_update", "count", false),
    layer("engine.repair_events_per_update", "count", false),
    layer("engine.inserts_per_repair", "count", true),
    layer("engine.compacted_per_update", "count", true),
    layer("pool.submit_us_per_update", "us", false),
    layer("pool.local_update_ns_p50", "ns", false),
    layer("pool.flush_wait_us_p50", "us", false),
    layer("pool.query_snapshot_ns_p50", "ns", false),
    layer("pool.msgs_per_batch", "count", true),
    layer("pool.queue_high_water", "count", false),
    layer("pool.shed", "count", false),
    layer("pool.snapshots_published_per_burst", "count", false),
    layer("pool.worker_busy_share", "ratio", false),
    layer("storage.append_us_per_update", "us", false),
    layer("storage.flush_ms_per_tick", "ms", false),
    layer("storage.truncate_us_per_call", "us", false),
    layer("storage.truncates_per_update", "count", false),
    layer("storage.busy_share", "ratio", false),
    layer("storage.write_syscalls_per_update", "count", false),
    layer("storage.files_end", "count", false),
    layer("storage.reopen_us_per_key", "us", false),
    layer("heal.digest_us_per_session", "us", false),
    layer("heal.collect_us_per_entry", "us", false),
    layer("heal.chunk_apply_us_per_entry", "us", false),
    layer("heal.round_trips_per_cycle", "count", false),
    layer("heal.chunks_per_cycle", "count", false),
    layer("heal.digest_skip_ratio", "ratio", true),
    layer("heal.entries_per_divergent_update", "count", false),
    layer("runtime.invoke_roundtrip_us_p50", "us", false),
    layer("runtime.updates_per_s", "1/s", true),
    layer("runtime.mean_batch", "count", true),
    layer("monitor.overhead_pct", "%", false),
    layer("bench.trace_overhead_pct", "%", false),
    layer("bench.span_coverage_pct", "%", true),
    layer("bench.host_noise_pct", "%", false),
    layer("bench.visibility_p99_us", "us", false),
    layer("bench.update_p99_us", "us", false),
    layer("bench.epochs", "count", true),
];

pub fn def(name: &str) -> &'static MetricDef {
    METRICS
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the table"))
}

/// Whether `workload` reports `metric` as an end-to-end number.
pub fn end_to_end_on(metric: &MetricDef, workload: &str) -> bool {
    match metric.kind {
        Kind::EndToEnd => true,
        Kind::Workload(w) => w == workload,
        Kind::Layer => false,
    }
}

/// What one run of one workload measured.
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<&'static str, f64>,
    /// Estimator spreads and workload facts, printed beside the values.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new(workload: &'static str, seed: u64) -> Self {
        Outcome {
            workload,
            seed,
            correct: true,
            attempted: 0,
            failed: 0,
            values: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        def(name);
        self.values.insert(name, value);
    }

    pub fn set_with_note(&mut self, name: &'static str, est: crate::stats::Estimate) {
        self.notes.push(format!("{name}: {}", est.note));
        self.set(name, est.value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The line the driver reads: with `traced` every `per_layer` metric
/// of `BENCHMARK.json`, without it every `end_to_end` one.
pub fn contract_line(outcome: &Outcome, traced: bool) -> String {
    let metrics: Vec<String> = METRICS
        .iter()
        .filter(|m| (m.kind == Kind::EndToEnd) != traced)
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                outcome.get(m.name),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// `BENCHMARK.json`, from the table.
pub fn manifest(command: &[&str], run_seconds: u64) -> String {
    let list = |items: Vec<String>| items.join(",\n    ");
    let better = |m: &MetricDef| {
        if m.higher_is_better {
            "higher"
        } else {
            "lower"
        }
    };
    let workloads = WORKLOADS
        .iter()
        .map(|(name, why)| {
            format!(
                "{{\"name\": {}, \"why\": {}}}",
                json_str(name),
                json_str(why)
            )
        })
        .collect();
    let end_to_end = METRICS
        .iter()
        .filter(|m| m.kind == Kind::EndToEnd)
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(better(m)),
                m.bound.expect("end-to-end metrics are bounded")
            )
        })
        .collect();
    let per_layer = METRICS
        .iter()
        .filter(|m| m.kind != Kind::EndToEnd)
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(better(m))
            )
        })
        .collect();
    let command: Vec<String> = command.iter().map(|c| json_str(c)).collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"e2e\"],\n  \"run_seconds\": {run_seconds},\n  \"workloads\": [\n    {}\n  ],\n  \"end_to_end\": [\n    {}\n  ],\n  \"per_layer\": [\n    {}\n  ]\n}}\n",
        command.join(", "),
        list(workloads),
        list(end_to_end),
        list(per_layer)
    )
}
