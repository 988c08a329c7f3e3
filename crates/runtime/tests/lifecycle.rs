//! `EventCluster` lifecycle: drain-on-drop, per-node panic poisoning
//! (in a message, an invocation or a maintenance tick), quiescence
//! under relayed traffic, ingress backpressure, timer-driven GC
//! maintenance, and the thousands-of-replicas smoke the runtime exists
//! for.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use uc_core::{GcFactory, StoreInput, UcStore};
use uc_runtime::{EventCluster, RuntimeConfig};
use uc_sim::{Ctx, Pid, Protocol};
use uc_spec::{SetAdt, SetUpdate};

/// Gossip protocol whose deliveries also bump a shared counter, so
/// tests can observe processing after the nodes are gone.
#[derive(Debug)]
struct Counting {
    seen: BTreeSet<u32>,
    delivered: Arc<AtomicU64>,
}

impl Protocol for Counting {
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
        self.delivered.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn drop_while_queued_drains_every_delivery() {
    // Submit a pile of broadcasts and drop the cluster immediately:
    // like the ingest pool, drop must finish the queued work before
    // the workers exit — nothing is silently discarded.
    let delivered = Arc::new(AtomicU64::new(0));
    let cluster = EventCluster::with_config(
        RuntimeConfig {
            workers: 2,
            ..Default::default()
        },
        4,
        |_| Counting {
            seen: BTreeSet::new(),
            delivered: Arc::clone(&delivered),
        },
    );
    for i in 0..100u32 {
        cluster.invoke((i % 4) as Pid, i);
    }
    drop(cluster); // no quiesce: drop itself must drain
    assert_eq!(delivered.load(Ordering::SeqCst), 100 * 3);
}

/// Panics when a peer broadcasts the magic value.
#[derive(Debug, Default)]
struct Bomb {
    seen: BTreeSet<u32>,
}

const BOOM: u32 = 13;

impl Protocol for Bomb {
    type Msg = u32;
    type Input = u32;
    type Output = usize;

    fn on_invoke(&mut self, x: u32, ctx: &mut Ctx<'_, u32>) -> usize {
        self.seen.insert(x);
        ctx.broadcast_others(x);
        self.seen.len()
    }

    fn on_message(&mut self, _from: Pid, x: u32, _ctx: &mut Ctx<'_, u32>) {
        assert!(x != BOOM, "bomb went off");
        self.seen.insert(x);
    }
}

#[test]
fn panicking_node_is_poisoned_not_the_cluster() {
    let cluster = EventCluster::with_config(
        RuntimeConfig {
            workers: 2,
            ..Default::default()
        },
        3,
        |_| Bomb::default(),
    );
    cluster.invoke(0, 1);
    cluster.quiesce();
    // Node 1 and 2 both explode on this broadcast; the cluster itself
    // must keep running.
    cluster.invoke(0, BOOM);
    let err = cluster.try_quiesce().expect_err("quiesce must not hang");
    assert!(err.node == 1 || err.node == 2, "err from a bombed node");
    assert!(err.message.contains("bomb went off"), "{}", err.message);
    // Dead nodes fail fast with the reason; the survivor still works.
    let dead = err.node;
    let err2 = cluster.try_invoke(dead, 99).expect_err("node is dead");
    assert_eq!(err2.node, dead);
    assert_eq!(cluster.try_invoke(0, 2).unwrap(), 3); // {1, BOOM, 2}
                                                      // Its broadcast to the corpse is dropped, like a send to a crashed
                                                      // process.
    assert!(cluster.metrics().messages_dropped_crashed >= 1);
    // Typed error from shutdown too (some node cannot return state).
    let err3 = cluster.try_shutdown().expect_err("shutdown reports poison");
    assert!(err3.message.contains("bomb went off"));
}

#[test]
fn panic_during_invoke_unblocks_the_caller() {
    #[derive(Debug, Default)]
    struct InvokeBomb;
    impl Protocol for InvokeBomb {
        type Msg = ();
        type Input = u32;
        type Output = u32;
        fn on_invoke(&mut self, x: u32, _ctx: &mut Ctx<'_, ()>) -> u32 {
            assert!(x != BOOM, "invoke bomb");
            x
        }
        fn on_message(&mut self, _f: Pid, _m: (), _c: &mut Ctx<'_, ()>) {}
    }
    let cluster = EventCluster::spawn(2, |_| InvokeBomb);
    assert_eq!(cluster.try_invoke(0, 7).unwrap(), 7);
    let err = cluster
        .try_invoke(0, BOOM)
        .expect_err("the panicking invoke must error, not block");
    assert_eq!(err.node, 0);
    assert!(err.message.contains("invoke bomb"), "{}", err.message);
    assert_eq!(cluster.poisoned(), Some(err));
    // The other node is untouched.
    assert_eq!(cluster.try_invoke(1, 8).unwrap(), 8);
}

#[test]
fn a_panicking_tick_poisons_its_node_only() {
    /// Node 1 panics in its first maintenance tick.
    #[derive(Debug)]
    struct TickBomb {
        armed: bool,
    }
    impl Protocol for TickBomb {
        type Msg = ();
        type Input = u32;
        type Output = u32;
        fn on_invoke(&mut self, x: u32, _ctx: &mut Ctx<'_, ()>) -> u32 {
            x
        }
        fn on_message(&mut self, _f: Pid, _m: (), _c: &mut Ctx<'_, ()>) {}
        fn on_tick(&mut self, _ctx: &mut Ctx<'_, ()>) {
            assert!(!self.armed, "tick bomb");
        }
    }
    let cluster = EventCluster::with_config(
        RuntimeConfig {
            workers: 2,
            maintenance_interval: Some(Duration::from_millis(1)),
            ..Default::default()
        },
        3,
        |pid| TickBomb { armed: pid == 1 },
    );
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let err = loop {
        if let Some(err) = cluster.poisoned() {
            break err;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no tick poisoned node 1 within 10 s"
        );
        std::thread::sleep(Duration::from_millis(1));
    };
    assert_eq!(err.node, 1);
    assert!(err.message.contains("tick bomb"), "{}", err.message);
    let err2 = cluster.try_invoke(1, 5).expect_err("node 1 is dead");
    assert_eq!(err2.node, 1);
    assert!(err2.message.contains("tick bomb"), "{}", err2.message);
    // The other nodes keep ticking and answering.
    assert_eq!(cluster.try_invoke(0, 6).unwrap(), 6);
    assert_eq!(cluster.try_invoke(2, 7).unwrap(), 7);
}

/// A protocol that *relays*: every received message below a TTL is
/// re-broadcast, so at any quiesce point there may be second-hop
/// messages a node is just about to send. `handled` counts finished
/// `on_message` calls, so a test can tell what a returned `quiesce`
/// left undone without tearing the cluster down.
#[derive(Debug)]
struct Relay {
    seen: BTreeSet<u32>,
    handled: Arc<AtomicU64>,
}

const TTL_BIT: u32 = 1 << 16;

impl Protocol for Relay {
    type Msg = u32;
    type Input = u32;
    type Output = usize;

    fn on_invoke(&mut self, x: u32, ctx: &mut Ctx<'_, u32>) -> usize {
        self.seen.insert(x);
        ctx.broadcast_others(x);
        self.seen.len()
    }

    fn on_message(&mut self, _from: Pid, x: u32, ctx: &mut Ctx<'_, u32>) {
        self.seen.insert(x & !TTL_BIT);
        if x & TTL_BIT == 0 {
            // Relay once: the window between a node deciding to send
            // and the counter increment is exactly what the
            // increment-before-send invariant protects.
            ctx.broadcast_others(x | TTL_BIT);
        }
        self.handled.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn quiesce_never_returns_while_relayed_messages_are_in_flight() {
    // `in_flight` is incremented *before* each enqueue, so a stable
    // zero is only observable when no message is queued anywhere —
    // including second-hop relays triggered inside message handlers.
    // With the increment after the enqueue a receiver can take the
    // counter to zero while the sender that fed it is between its
    // enqueue and its increment, and `quiesce` returns with messages
    // still queued. That window is a few instructions wide, so the
    // test oversubscribes the host (eight workers, so senders are
    // preempted inside it) and checks *every* `quiesce`, not only the
    // one in `shutdown`: n - 1 first-hop deliveries per invoke, each
    // relayed to n - 1 peers.
    const N: usize = 8;
    const PER_INVOKE: u64 = (N as u64 - 1) * N as u64;
    for round in 0..40u32 {
        let handled = Arc::new(AtomicU64::new(0));
        let cluster = EventCluster::with_config(
            RuntimeConfig {
                workers: 8,
                ..Default::default()
            },
            N,
            |_| Relay {
                seen: BTreeSet::new(),
                handled: Arc::clone(&handled),
            },
        );
        let invokes = N as u32 * 10;
        for i in 0..invokes {
            cluster.invoke((i % N as u32) as Pid, round * 1000 + i);
            if i % 2 == 0 {
                // Interleave quiesce with live traffic: it must block
                // until relays have drained, not deadlock and not
                // return early.
                cluster.quiesce();
                assert_eq!(
                    handled.load(Ordering::SeqCst),
                    (i as u64 + 1) * PER_INVOKE,
                    "round {round}: quiesce returned after invoke {i} with messages in flight"
                );
            }
        }
        let nodes = cluster.shutdown();
        let expect: BTreeSet<u32> = (0..invokes).map(|i| round * 1000 + i).collect();
        for (pid, node) in nodes.iter().enumerate() {
            assert_eq!(
                node.seen, expect,
                "round {round}: node {pid} missed relayed messages"
            );
        }
    }
}

#[test]
fn bounded_mailboxes_backpressure_invokers_without_loss() {
    // A one-worker cluster with tiny mailboxes: invokers park while
    // full, and every message still lands exactly once.
    let delivered = Arc::new(AtomicU64::new(0));
    let cluster = EventCluster::with_config(
        RuntimeConfig {
            workers: 1,
            mailbox_depth: 2,
            ..Default::default()
        },
        3,
        |_| Counting {
            seen: BTreeSet::new(),
            delivered: Arc::clone(&delivered),
        },
    );
    for i in 0..200u32 {
        cluster.invoke((i % 3) as Pid, i);
    }
    cluster.quiesce();
    let nodes = cluster.shutdown();
    let expect: BTreeSet<u32> = (0..200).collect();
    for (pid, node) in nodes.iter().enumerate() {
        assert_eq!(node.seen, expect, "node {pid} lost messages");
    }
}

#[test]
fn five_thousand_nodes_on_a_handful_of_workers() {
    // The acceptance bar: ≥ 5 000 protocol instances in one process on
    // ≤ 8 worker threads, converging under broadcast traffic.
    const NODES: usize = 5_000;
    let cluster = EventCluster::spawn(NODES, |_| Bomb::default());
    assert!(cluster.num_workers() <= 8, "W ≪ N is the whole point");
    assert_eq!(cluster.num_nodes(), NODES);
    let updates: Vec<u32> = (0..20).map(|i| i * 7 + 1).collect(); // never BOOM
    for (i, &x) in updates.iter().enumerate() {
        cluster.invoke(((i * 251) % NODES) as Pid, x);
    }
    cluster.quiesce();
    let m = cluster.metrics();
    assert_eq!(
        m.messages_delivered,
        updates.len() as u64 * (NODES as u64 - 1)
    );
    let nodes = cluster.shutdown();
    let expect: BTreeSet<u32> = updates.into_iter().collect();
    for pid in [0usize, 17, 999, 2500, NODES - 1] {
        assert_eq!(nodes[pid].seen, expect, "node {pid} diverged");
    }
}

#[test]
fn maintenance_timer_compacts_gc_stores_end_to_end() {
    // GC stores on the event runtime with a maintenance interval: the
    // maintenance sweep fires on_tick (heartbeat broadcast + per-key
    // compaction), so logs shrink with no dedicated heartbeat thread
    // and no explicit driver calls.
    const N: usize = 3;
    let cluster = EventCluster::with_config(
        RuntimeConfig {
            maintenance_interval: Some(Duration::from_millis(5)),
            ..Default::default()
        },
        N,
        |pid| UcStore::new(SetAdt::<u32>::new(), pid, 2, GcFactory { n: N }),
    );
    for i in 0..60u64 {
        cluster.invoke(
            (i % N as u64) as Pid,
            StoreInput::Update(i % 6, SetUpdate::Insert(i as u32)),
        );
    }
    cluster.quiesce();
    // Let a few sweeps land (heartbeats cross, then compaction), then
    // drain the heartbeat traffic they generated.
    std::thread::sleep(Duration::from_millis(120));
    cluster.quiesce();
    let mut stores = cluster.shutdown();
    let total_logs: usize = stores.iter().map(|s| s.total_log_len()).sum();
    assert!(
        total_logs < 60 * N,
        "timer-driven maintenance must compact stable prefixes (retained {total_logs})"
    );
    // Convergence is untouched by compaction.
    let digests: Vec<Vec<_>> = stores
        .iter_mut()
        .map(|s| {
            (0..6u64)
                .map(|k| uc_core::state_digest(&s.materialize_key(k)))
                .collect()
        })
        .collect();
    assert!(digests.windows(2).all(|w| w[0] == w[1]), "stores diverged");
}
