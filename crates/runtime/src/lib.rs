//! # uc-runtime — the event-driven async runtime
//!
//! The paper's wait-free guarantee means a replica never blocks on its
//! peers, so nothing about a replica *needs* an OS thread of its own,
//! and a thread per node tops out at a few hundred replicas per
//! process. [`EventCluster`] is the epoll-style executor: `N`
//! protocol instances (replicas, GC replicas, whole `UcStore`s,
//! pooled stores — anything implementing
//! [`Protocol`](uc_sim::Protocol)) multiplexed onto `W ≪ N` worker
//! threads, with
//!
//! * per-node bounded **mailboxes** and a shared **ready list**
//!   (cooperative scheduling; an activation greedily drains up to
//!   `batch_limit` deliveries into one `on_batch` flush),
//! * a **virtual-timer wheel** ([`timer`]) so batching flush windows
//!   and GC maintenance (`Protocol::on_tick`) fire as timer events
//!   instead of dedicated threads,
//! * ingress **backpressure** (a full mailbox parks external invokers;
//!   node-to-node deliveries are never refused), and
//! * per-node **panic isolation** surfaced as typed
//!   [`NodeError`](uc_sim::NodeError)s, mirroring the ingest pool's
//!   `PoolError`.
//!
//! The API is `spawn`, `invoke`, `quiesce`, `metrics`, `shutdown`,
//! and [`EventCluster`] implements
//! [`ClusterHarness`](uc_sim::ClusterHarness) beside the deterministic
//! simulator, so tests and benches drive either through one generic
//! harness. One process comfortably hosts thousands of replicas:
//! `tests/lifecycle.rs` runs 5 000 instances on ≤ 8 workers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod reactor;
pub mod timer;

pub use reactor::{EventCluster, RuntimeConfig};
pub use timer::{Timer, TimerKind, TimerWheel};

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::time::Duration;
    use uc_sim::{ClusterHarness, Ctx, Pid, Protocol};

    #[derive(Debug, Default)]
    struct Gossip {
        seen: BTreeSet<u32>,
        ticks: u64,
    }

    impl Protocol for Gossip {
        type Msg = u32;
        type Input = u32;
        type Output = usize;

        fn on_invoke(&mut self, x: u32, ctx: &mut Ctx<'_, u32>) -> usize {
            self.seen.insert(x);
            ctx.broadcast_others(x);
            self.seen.len()
        }

        fn on_message(&mut self, _from: Pid, x: u32, _ctx: &mut Ctx<'_, u32>) {
            self.seen.insert(x);
        }

        fn on_tick(&mut self, _ctx: &mut Ctx<'_, u32>) {
            self.ticks += 1;
        }
    }

    #[test]
    fn all_nodes_converge_after_quiesce() {
        let cluster = EventCluster::spawn(8, |_| Gossip::default());
        for i in 0..80u32 {
            cluster.invoke((i % 8) as Pid, i);
        }
        let nodes = cluster.shutdown();
        let expect: BTreeSet<u32> = (0..80).collect();
        for (pid, node) in nodes.iter().enumerate() {
            assert_eq!(node.seen, expect, "node {pid} diverged");
        }
    }

    #[test]
    fn metrics_count_messages_and_invocations() {
        let cluster = EventCluster::spawn(3, |_| Gossip::default());
        cluster.invoke(0, 7);
        cluster.quiesce();
        let m = cluster.metrics();
        assert_eq!(m.messages_sent, 2);
        assert_eq!(m.messages_delivered, 2);
        assert_eq!(m.invocations, 1);
        assert_eq!(m.per_process_delivered, vec![0, 1, 1]);
        cluster.shutdown();
    }

    #[test]
    fn invoke_returns_locally_computed_output() {
        let cluster = EventCluster::spawn(2, |_| Gossip::default());
        assert_eq!(cluster.invoke(0, 5), 1);
        assert_eq!(cluster.invoke(0, 6), 2);
        cluster.shutdown();
    }

    #[test]
    fn batch_limit_one_forbids_multi_message_flushes() {
        let cfg = RuntimeConfig {
            batch_limit: 1,
            ..Default::default()
        };
        let cluster = EventCluster::with_config(cfg, 4, |_| Gossip::default());
        for i in 0..60u32 {
            cluster.invoke((i % 4) as Pid, i);
        }
        cluster.quiesce();
        let m = cluster.metrics();
        assert_eq!(m.batches_delivered, 0, "limit 1 must forbid multi-batches");
        assert_eq!(m.max_batch, 1);
        assert_eq!(m.messages_delivered, 60 * 3);
        let nodes = cluster.shutdown();
        let expect: BTreeSet<u32> = (0..60).collect();
        for (pid, node) in nodes.iter().enumerate() {
            assert_eq!(node.seen, expect, "node {pid} diverged");
        }
    }

    #[test]
    fn flush_window_coalesces_deliveries() {
        // With a flush window, a burst of sends to an idle node parks
        // in its mailbox and lands as fewer, larger activations.
        let cfg = RuntimeConfig {
            flush_window: Some(Duration::from_millis(20)),
            timer_resolution: Duration::from_millis(1),
            ..Default::default()
        };
        let cluster = EventCluster::with_config(cfg, 2, |_| Gossip::default());
        for i in 0..50u32 {
            cluster.invoke(0, i); // 50 messages toward node 1
        }
        cluster.quiesce();
        let m = cluster.metrics();
        assert_eq!(m.messages_delivered, 50);
        assert!(
            m.max_batch > 1,
            "a flush window must coalesce some of the burst (max {})",
            m.max_batch
        );
        let nodes = cluster.shutdown();
        assert_eq!(nodes[1].seen.len(), 50);
    }

    #[test]
    fn maintenance_timer_fires_on_tick() {
        let cfg = RuntimeConfig {
            maintenance_interval: Some(Duration::from_millis(5)),
            timer_resolution: Duration::from_millis(1),
            ..Default::default()
        };
        let cluster = EventCluster::with_config(cfg, 3, |_| Gossip::default());
        cluster.invoke(0, 1);
        std::thread::sleep(Duration::from_millis(60));
        cluster.quiesce();
        let nodes = cluster.shutdown();
        for (pid, node) in nodes.iter().enumerate() {
            assert!(node.ticks >= 2, "node {pid} saw {} ticks", node.ticks);
        }
    }

    #[test]
    fn harness_trait_drives_the_event_cluster() {
        let mut h = EventCluster::spawn(3, |_| Gossip::default());
        for i in 0..9u32 {
            ClusterHarness::invoke(&mut h, (i % 3) as Pid, i);
        }
        ClusterHarness::quiesce(&mut h);
        assert_eq!(ClusterHarness::metrics(&h).invocations, 9);
        let nodes = h.into_nodes();
        let expect: BTreeSet<u32> = (0..9).collect();
        assert_eq!(nodes[2].seen, expect);
    }

    #[test]
    fn worker_pool_is_small_and_capped_by_nodes() {
        let cluster: EventCluster<Gossip> = EventCluster::spawn(2, |_| Gossip::default());
        assert!(cluster.num_workers() <= 2);
        let cluster: EventCluster<Gossip> = EventCluster::spawn(100, |_| Gossip::default());
        assert!(cluster.num_workers() <= 8, "default pool stays ≪ N");
        assert_eq!(cluster.num_nodes(), 100);
    }
}
