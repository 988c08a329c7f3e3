//! Execution accounting, for the complexity experiments (E7):
//! messages per update, delivered counts, payload-size totals.

use crate::process::Pid;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counters maintained by the runtimes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Messages handed to the network.
    pub messages_sent: u64,
    /// Messages delivered to (live) processes.
    pub messages_delivered: u64,
    /// Messages dropped because the destination had crashed.
    pub messages_dropped_crashed: u64,
    /// Messages delayed at least once by a partition.
    pub messages_delayed_by_partition: u64,
    /// Multi-message batches handed to `Protocol::on_batch` (batched
    /// delivery mode only; singleton deliveries are not counted).
    pub batches_delivered: u64,
    /// Delivery activations: every flush handed to a process, whether
    /// it carried one message or a burst (`batches_delivered` counts
    /// only the multi-message subset).
    pub delivery_activations: u64,
    /// Largest burst handed to a single `Protocol::on_batch`
    /// activation.
    pub max_batch: u64,
    /// Application invocations processed.
    pub invocations: u64,
    /// Invocations ignored because the process had crashed.
    pub invocations_on_crashed: u64,
    /// Sum of estimated payload sizes of sent messages (bytes), if a
    /// size estimator was installed.
    pub bytes_sent: u64,
    /// Messages dropped by the network itself: link loss, a link
    /// outage window, or a bounded retry queue shedding its
    /// oldest entry. Distinct from `messages_dropped_crashed` (dead
    /// destination).
    pub messages_dropped: u64,
    /// Extra copies injected by link-level duplication (each counted
    /// once per duplicate, not per original).
    pub messages_duplicated: u64,
    /// Retransmissions performed by a reliable-delivery layer
    /// (`ReliableLink`) on top of lossy links.
    pub retransmits: u64,
    /// Bytes of missed-update suffix replayed to a healed peer by
    /// anti-entropy reconciliation.
    pub heal_replay_bytes: u64,
    /// Per-process sent counts.
    pub per_process_sent: Vec<u64>,
    /// Per-process delivered counts (messages, not activations).
    pub per_process_delivered: Vec<u64>,
}

impl Metrics {
    /// Metrics sized for `n` processes.
    pub fn new(n: usize) -> Self {
        Metrics {
            per_process_sent: vec![0; n],
            per_process_delivered: vec![0; n],
            ..Default::default()
        }
    }

    /// Record one send by `from` of estimated `size` bytes.
    pub fn on_send(&mut self, from: Pid, size: u64) {
        self.messages_sent += 1;
        self.bytes_sent += size;
        if let Some(c) = self.per_process_sent.get_mut(from as usize) {
            *c += 1;
        }
    }

    /// Record one delivery activation flushing `batch` messages to
    /// `to` — the single accounting point both runtimes (deterministic,
    /// event) report through, so per-node delivery counts and the
    /// batch-size histogram stay comparable across them.
    pub fn on_delivery(&mut self, to: Pid, batch: u64) {
        self.messages_delivered += batch;
        self.delivery_activations += 1;
        self.max_batch = self.max_batch.max(batch);
        if batch > 1 {
            self.batches_delivered += 1;
        }
        if let Some(c) = self.per_process_delivered.get_mut(to as usize) {
            *c += batch;
        }
    }

    /// Mean burst size per delivery activation (1.0 when every message
    /// flushed alone; higher when the runtime coalesces).
    pub fn mean_batch(&self) -> f64 {
        if self.delivery_activations == 0 {
            0.0
        } else {
            self.messages_delivered as f64 / self.delivery_activations as f64
        }
    }

    /// Messages sent per invocation — the §VII-C claim for Algorithm 1
    /// is `n - 1` sends (one broadcast) per update and 0 per query.
    pub fn messages_per_invocation(&self) -> f64 {
        if self.invocations == 0 {
            0.0
        } else {
            self.messages_sent as f64 / self.invocations as f64
        }
    }

    /// Record one application invocation handed to a live process.
    pub fn on_invocation(&mut self) {
        self.invocations += 1;
    }

    /// Record an invocation ignored because the process had crashed.
    pub fn on_invocation_crashed(&mut self) {
        self.invocations_on_crashed += 1;
    }

    /// Record `n` messages dropped because their destination had
    /// crashed.
    pub fn on_dropped_crashed(&mut self, n: u64) {
        self.messages_dropped_crashed += n;
    }

    /// Record `n` messages dropped by the network itself (link loss,
    /// outage window, retry-queue shed).
    pub fn on_dropped(&mut self, n: u64) {
        self.messages_dropped += n;
    }

    /// Record `n` duplicate copies injected by link-level duplication.
    pub fn on_duplicated(&mut self, n: u64) {
        self.messages_duplicated += n;
    }

    /// Record `n` messages delayed at least once by a partition.
    pub fn on_delayed_partition(&mut self, n: u64) {
        self.messages_delayed_by_partition += n;
    }

    /// Mirror these counters into a [`uc_obs::Registry`] under
    /// `uc_sim_*` names, plus the derived ratios as gauges scaled by
    /// 1000 (integer registries; `uc_sim_mean_batch_milli = 2500`
    /// means 2.5 messages per activation).
    pub fn export_into(&self, reg: &uc_obs::Registry) {
        reg.counter("uc_sim_messages_sent_total")
            .set(self.messages_sent);
        reg.counter("uc_sim_messages_delivered_total")
            .set(self.messages_delivered);
        reg.counter("uc_sim_messages_dropped_crashed_total")
            .set(self.messages_dropped_crashed);
        reg.counter("uc_sim_messages_delayed_by_partition_total")
            .set(self.messages_delayed_by_partition);
        reg.counter("uc_sim_batches_delivered_total")
            .set(self.batches_delivered);
        reg.counter("uc_sim_delivery_activations_total")
            .set(self.delivery_activations);
        reg.gauge("uc_sim_max_batch").set(self.max_batch as i64);
        reg.counter("uc_sim_invocations_total")
            .set(self.invocations);
        reg.counter("uc_sim_invocations_on_crashed_total")
            .set(self.invocations_on_crashed);
        reg.counter("uc_sim_bytes_sent_total").set(self.bytes_sent);
        reg.counter("uc_sim_messages_dropped_total")
            .set(self.messages_dropped);
        reg.counter("uc_sim_messages_duplicated_total")
            .set(self.messages_duplicated);
        reg.counter("uc_sim_retransmits_total")
            .set(self.retransmits);
        reg.counter("uc_sim_heal_replay_bytes_total")
            .set(self.heal_replay_bytes);
        reg.gauge("uc_sim_mean_batch_milli")
            .set((self.mean_batch() * 1000.0) as i64);
        reg.gauge("uc_sim_messages_per_invocation_milli")
            .set((self.messages_per_invocation() * 1000.0) as i64);
    }
}

/// Wait-free counters for events that happen *inside* protocol code
/// (retransmissions, retry-queue sheds, heal replays) rather than in
/// the runtime's network layer. Protocol nodes on any thread bump the
/// atomics; each runtime's `ClusterHarness::metrics` folds an attached
/// set into the [`Metrics`] it returns, so the counters surface
/// uniformly across the deterministic and event runtimes.
#[derive(Debug, Default)]
pub struct LinkCounters {
    /// Retransmissions performed by a reliable-delivery layer.
    pub retransmits: AtomicU64,
    /// Messages dropped protocol-side (bounded retry queue shed).
    pub messages_dropped: AtomicU64,
    /// Duplicate deliveries suppressed or injected protocol-side.
    pub messages_duplicated: AtomicU64,
    /// Bytes of missed-update suffix replayed on heal.
    pub heal_replay_bytes: AtomicU64,
}

impl LinkCounters {
    /// A fresh shared counter set.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Add these counters into `m` (called by harness `metrics()`).
    pub fn fold_into(&self, m: &mut Metrics) {
        m.retransmits += self.retransmits.load(Ordering::Relaxed);
        m.messages_dropped += self.messages_dropped.load(Ordering::Relaxed);
        m.messages_duplicated += self.messages_duplicated.load(Ordering::Relaxed);
        m.heal_replay_bytes += self.heal_replay_bytes.load(Ordering::Relaxed);
    }

    /// Bump a counter by `n` (relaxed; counters are monotonic tallies).
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_accounting() {
        let mut m = Metrics::new(2);
        m.on_send(0, 16);
        m.on_send(0, 16);
        m.on_send(1, 8);
        assert_eq!(m.messages_sent, 3);
        assert_eq!(m.bytes_sent, 40);
        assert_eq!(m.per_process_sent, vec![2, 1]);
    }

    #[test]
    fn delivery_accounting_tracks_batches_per_node() {
        let mut m = Metrics::new(3);
        m.on_delivery(0, 1);
        m.on_delivery(1, 4);
        m.on_delivery(1, 2);
        assert_eq!(m.messages_delivered, 7);
        assert_eq!(m.delivery_activations, 3);
        assert_eq!(m.batches_delivered, 2, "singletons are not batches");
        assert_eq!(m.max_batch, 4);
        assert_eq!(m.per_process_delivered, vec![1, 6, 0]);
        assert!((m.mean_batch() - 7.0 / 3.0).abs() < 1e-9);
        // Out-of-range pids are tolerated (crashed-process paths).
        m.on_delivery(9, 5);
        assert_eq!(m.messages_delivered, 12);
    }

    #[test]
    fn link_counters_fold_into_metrics() {
        let c = LinkCounters::new();
        LinkCounters::add(&c.retransmits, 3);
        LinkCounters::add(&c.messages_dropped, 2);
        LinkCounters::add(&c.heal_replay_bytes, 128);
        let mut m = Metrics::new(2);
        m.messages_dropped = 5; // network-level drops already tallied
        c.fold_into(&mut m);
        assert_eq!(m.retransmits, 3);
        assert_eq!(m.messages_dropped, 7);
        assert_eq!(m.messages_duplicated, 0);
        assert_eq!(m.heal_replay_bytes, 128);
    }

    #[test]
    fn per_invocation_ratio() {
        let mut m = Metrics::new(1);
        assert_eq!(m.messages_per_invocation(), 0.0);
        m.invocations = 4;
        m.messages_sent = 12;
        assert_eq!(m.messages_per_invocation(), 3.0);
    }
}
