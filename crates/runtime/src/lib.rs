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
//!   (cooperative scheduling; an activation greedily drains every
//!   queued delivery into one `on_batch`),
//! * **one clock** of 1 ms ticks since spawn (the `Ctx::now` of every
//!   activation) with one periodic deadline on it, the **maintenance
//!   sweep**, so GC heartbeats, compaction and link retransmits
//!   (`Protocol::on_tick`) need no dedicated thread,
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

pub use reactor::{EventCluster, RuntimeConfig};

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::time::Duration;
    use uc_sim::{ClusterHarness, Ctx, Pid, Protocol};

    #[derive(Debug, Default)]
    struct Gossip {
        seen: BTreeSet<u32>,
        /// The reactor clock at every maintenance tick.
        ticks_at: Vec<u64>,
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

        fn on_tick(&mut self, ctx: &mut Ctx<'_, u32>) {
            self.ticks_at.push(ctx.now());
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

    /// Sends its input's worth of frames to node 1 in one activation.
    #[derive(Debug, Default)]
    struct Burst {
        received: usize,
    }

    impl Protocol for Burst {
        type Msg = u32;
        type Input = u32;
        type Output = ();

        fn on_invoke(&mut self, n: u32, ctx: &mut Ctx<'_, u32>) {
            for i in 0..n {
                ctx.send(1, i);
            }
        }

        fn on_message(&mut self, _from: Pid, _x: u32, _ctx: &mut Ctx<'_, u32>) {
            self.received += 1;
        }
    }

    #[test]
    fn an_activation_drains_every_queued_delivery() {
        // One worker runs node 0's invoke, which queues all 40 frames on
        // node 1 before node 1 can run: its one activation takes them all.
        let cfg = RuntimeConfig {
            workers: 1,
            ..Default::default()
        };
        let cluster = EventCluster::with_config(cfg, 2, |_| Burst::default());
        cluster.invoke(0, 40);
        cluster.quiesce();
        let m = cluster.metrics();
        assert_eq!(m.max_batch, 40);
        assert_eq!(m.batches_delivered, 1);
        assert_eq!(m.messages_delivered, 40);
        assert_eq!(cluster.shutdown()[1].received, 40);
    }

    #[test]
    fn maintenance_timer_fires_on_tick() {
        let cfg = RuntimeConfig {
            maintenance_interval: Some(Duration::from_millis(5)),
            ..Default::default()
        };
        let cluster = EventCluster::with_config(cfg, 3, |_| Gossip::default());
        cluster.invoke(0, 1);
        std::thread::sleep(Duration::from_millis(60));
        cluster.quiesce();
        let nodes = cluster.shutdown();
        for (pid, node) in nodes.iter().enumerate() {
            let at = &node.ticks_at;
            assert!(at.len() >= 2, "node {pid} saw {} ticks", at.len());
            // 1 ms ticks: the first sweep is due 5 ticks after spawn,
            // and each re-arms 5 ticks after the one before fired.
            assert!(at[0] >= 5, "node {pid}'s first tick read {}", at[0]);
            for w in at.windows(2) {
                assert!(w[1] >= w[0] + 5, "node {pid}'s ticks read {at:?}");
            }
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
