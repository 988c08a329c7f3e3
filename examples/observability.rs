//! Operating a replicated store through an outage, by its telemetry.
//!
//! Three update-consistent counter replicas gossip over a lossy link
//! (duplicated, out-of-order deliveries — the weakest channel the
//! paper assumes). Each carries the streaming consistency monitor and
//! a trace ring. Node 2 is then cut off: the majority keeps serving,
//! node 2 keeps accepting local writes (wait-freedom over strong
//! consistency), and the `health()` surface shows exactly what an
//! operator would see on a dashboard — down peers and a stalled
//! stable bound, while the cut-off node's reads still answer from what
//! it knows. On heal, each side runs the
//! digest-guided chunked heal dialogue (converged digest slots are
//! skipped, the rest stream as bounded acked chunks), every replica
//! converges to the same value, the heal counters show up in the
//! `/metrics` scrape, and the monitor confirms the whole episode
//! violated nothing.
//!
//! ```text
//! cargo run --example observability
//! ```

use update_consistency::core::{GcFactory, StoreMsg, UcStore};
use update_consistency::criteria::online::MonitorConfig;
use update_consistency::obs::{Registry, TraceRing};
use update_consistency::spec::{CounterAdt, CounterQuery, CounterUpdate};

type Node = UcStore<CounterAdt, GcFactory>;
type Msg = StoreMsg<CounterUpdate>;

const N: usize = 3;
const KEY: u64 = 7;

/// Deliver `msg` to `node` as a link hands a frame over: by value,
/// with the sender's pid (a data frame asks for no reply).
fn deliver(node: &mut Node, from: usize, msg: Msg) {
    let Ok(_replies) = node.apply_message_from(from as u32, msg);
}

/// Deliver `msg` to every node except its origin — duplicating every
/// third delivery, which the dedup floor (and the monitor's shadow)
/// must absorb without a tremor.
fn gossip(nodes: &mut [Node], from: usize, msg: &Msg, seq: &mut u64) {
    for (i, node) in nodes.iter_mut().enumerate() {
        if i == from {
            continue;
        }
        deliver(node, from, msg.clone());
        *seq += 1;
        if seq.is_multiple_of(3) {
            deliver(node, from, msg.clone()); // lossy link: duplicate delivery
        }
    }
}

fn heartbeats(nodes: &mut [Node], among: &[usize]) {
    let beats: Vec<(usize, Msg)> = among.iter().map(|&i| (i, nodes[i].heartbeat())).collect();
    for &i in among {
        for (from, b) in &beats {
            deliver(&mut nodes[i], *from, b.clone());
        }
        nodes[i].tick_maintenance();
    }
}

fn print_health(nodes: &[Node], banner: &str) {
    println!("── {banner} ──");
    for (i, node) in nodes.iter().enumerate() {
        println!("node {i}:");
        for line in node.health().render().lines() {
            println!("  {line}");
        }
    }
}

fn main() {
    let mut nodes: Vec<Node> = (0..N)
        .map(|pid| {
            let mut s = UcStore::new(CounterAdt, pid as u32, 2, GcFactory { n: N });
            s.attach_monitor(MonitorConfig::full().with_peers((0..N as u32).collect::<Vec<_>>()));
            s.attach_trace(TraceRing::new(256));
            s
        })
        .collect();

    // Phase 1: healthy traffic on the lossy link.
    let mut seq = 0u64;
    for round in 0..20i64 {
        let from = (round % N as i64) as usize;
        let msg = nodes[from].update(KEY, CounterUpdate::Add(round + 1));
        gossip(&mut nodes, from, &msg, &mut seq);
    }
    heartbeats(&mut nodes, &[0, 1, 2]);
    print_health(&nodes, "all links up, after 20 writes");

    // Phase 2: node 2 drops off the network. Both sides notice.
    nodes[0].peer_down(2);
    nodes[1].peer_down(2);
    nodes[2].peer_down(0);
    nodes[2].peer_down(1);

    // Majority-side traffic node 2 never sees — and node 2's own
    // writes the majority never sees.
    for round in 0..10i64 {
        let from = (round % 2) as usize;
        let msg = nodes[from].update(KEY, CounterUpdate::Add(100));
        let m2 = {
            let (a, b) = nodes.split_at_mut(1);
            if from == 0 {
                deliver(&mut b[0], from, msg);
            } else {
                deliver(&mut a[0], from, msg);
            }
            nodes[2].update(KEY, CounterUpdate::Add(-1))
        };
        drop(m2); // lost to the partition
    }
    heartbeats(&mut nodes, &[0, 1]);
    nodes[2].tick_maintenance();
    print_health(&nodes, "node 2 partitioned, divergent traffic");
    println!(
        "majority reads {} | minority read: {:?}",
        nodes[0].query(KEY, &CounterQuery::Read),
        nodes[2].query(KEY, &CounterQuery::Read),
    );

    // Phase 3: the link comes back. Each side opens a digest-guided
    // chunked heal session toward the peer it had marked down:
    // matching digest slots are skipped outright, the rest stream as
    // bounded, acked chunks (never more than `heal::WINDOW × heal::CHUNK` entries
    // in flight). `heal_peer` drives the whole dialogue to completion
    // and returns how many chunks it took.
    for (healer, healed) in [(0usize, 2usize), (1, 2), (2, 0), (2, 1)] {
        let (lo, hi) = nodes.split_at_mut(healer.max(healed));
        let (a, b) = if healer < healed {
            (&mut lo[healer], &mut hi[0])
        } else {
            (&mut hi[0], &mut lo[healed])
        };
        let chunks = a.heal_peer(b);
        println!(
            "heal: node {healer} -> node {healed}: {chunks} chunk(s), \
             {} digest slot(s) skipped so far",
            a.heal_digest_skips()
        );
    }
    heartbeats(&mut nodes, &[0, 1, 2]);
    print_health(&nodes, "healed");
    let values: Vec<i64> = (0..N)
        .map(|i| nodes[i].query(KEY, &CounterQuery::Read))
        .collect();
    println!("converged values: {values:?}");
    assert!(values.iter().all(|v| *v == values[0]), "replicas diverged");

    // The monitor watched every delivery, query, and tick — including
    // the duplicates, the partition, and the heal replay — and found
    // nothing to report.
    for (i, node) in nodes.iter().enumerate() {
        let stats = node.monitor_stats().expect("monitor attached");
        assert!(stats.clean(), "node {i} monitor flagged: {stats:?}");
        println!(
            "node {i} monitor: {} updates, {} queries observed, {} finalized, clean",
            stats.sampled_updates, stats.sampled_queries, stats.finalized_updates
        );
    }

    // What a scrape would return, and what the trace ring remembers.
    // The heal telemetry is part of the same surface: chunk and
    // digest-skip totals climb during the heal, and the in-flight
    // gauge is back to zero once every chunk has been acked.
    let reg = Registry::new();
    nodes[0].export_metrics(&reg);
    let scrape = reg.snapshot().render_prometheus();
    println!("\n── node 0 /metrics ──\n{scrape}");
    println!("── node 0 heal telemetry (same scrape, filtered) ──");
    for line in scrape.lines().filter(|l| l.contains("uc_store_heal")) {
        println!("  {line}");
    }
    assert!(nodes[0].heal_chunks() > 0, "chunked heal must have run");
    assert_eq!(
        nodes[0].heal_bytes_in_flight(),
        0,
        "every chunk must be acked once the heal completes"
    );
    if let Some(ring) = nodes[0].trace() {
        let events = ring.drain();
        println!(
            "── node 0 trace ring: last {} events ──",
            events.len().min(5)
        );
        for ev in events.iter().rev().take(5).rev() {
            println!(
                "  #{} {:?} key={} value={}",
                ev.seq, ev.kind, ev.key, ev.value
            );
        }
    }
}
