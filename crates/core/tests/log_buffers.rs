//! Idle keys lend their emptied log buffers.
//!
//! Garbage collection empties a key's log once its entries are stable,
//! and most keys then sit idle. An idle key offers its small emptied
//! buffer to its shard, and a key that wakes without a buffer borrows
//! one, so a replica holds about as many small buffers as it has had
//! live keys at once, not one per key it ever touched. This suite fills 512 keys one after
//! another from three replicas, the way a benchmark preload does, on a
//! store and on a two-worker pool, and reads `uc_store_log_capacity`
//! after every round.

use uc_core::{GcFactory, IngestPool, Key, PoolConfig, StoreMsg, UcStore};
use uc_obs::Registry;
use uc_sim::Pid;
use uc_spec::{SetAdt, SetUpdate};

type Adt = SetAdt<u32>;
type Msg = StoreMsg<SetUpdate<u32>>;
type Store = UcStore<Adt, GcFactory>;

const REPLICAS: usize = 3;
const SHARDS: usize = 4;
const KEYS: u64 = 512;
/// Updates per key, issued round-robin by the three replicas.
const PER_KEY: u64 = 45;
/// Updates between two delivery rounds: a key takes three.
const ROUND: u64 = 16;
/// Delivery rounds between two heartbeat rounds: about three keys.
const ROUNDS_PER_BEAT: u64 = 8;
/// Entries in the largest buffer a `SetAdt<u32>` key may lend
/// (1 KiB of 24-byte entries), rounded down to a power of two.
const SMALL: i64 = 32;

/// The replica under test, sequential or pooled.
enum Node {
    Store(Box<Store>),
    Pool(IngestPool<Adt, GcFactory>),
}

impl Node {
    fn new(pooled: bool) -> Self {
        let store = UcStore::new(SetAdt::new(), 0, SHARDS, gc());
        if pooled {
            Node::Pool(store.into_pool(PoolConfig {
                workers: 2,
                ..PoolConfig::default()
            }))
        } else {
            Node::Store(Box::new(store))
        }
    }

    fn update(&mut self, key: Key, u: SetUpdate<u32>) -> Msg {
        match self {
            Node::Store(s) => s.update(key, u),
            Node::Pool(p) => p.update(key, u).unwrap(),
        }
    }

    fn deliver(&mut self, msgs: Vec<Msg>) {
        match self {
            Node::Store(s) => s.apply_batch_owned(msgs),
            Node::Pool(p) => p.submit_batch(msgs).unwrap(),
        }
    }

    fn heartbeat(&self) -> Msg {
        match self {
            Node::Store(s) => s.heartbeat(),
            Node::Pool(p) => p.heartbeat(),
        }
    }

    fn tick(&mut self) {
        match self {
            Node::Store(s) => s.tick_maintenance(),
            Node::Pool(p) => p.tick_maintenance().unwrap(),
        }
    }

    /// `uc_store_live_keys` and `uc_store_log_capacity`.
    fn gauges(&self) -> (i64, i64) {
        let reg = Registry::new();
        match self {
            Node::Store(s) => s.export_metrics(&reg),
            Node::Pool(p) => p.export_metrics(&reg),
        }
        let scrape = reg.snapshot();
        let gauge = |name| scrape.gauge(name).expect(name);
        (gauge("uc_store_live_keys"), gauge("uc_store_log_capacity"))
    }
}

fn gc() -> GcFactory {
    GcFactory { n: REPLICAS }
}

/// Replica 0 is `node`; replicas 1 and 2 are plain stores.
fn preload(mut node: Node) {
    let mut peers: Vec<Store> = (1..REPLICAS as Pid)
        .map(|pid| UcStore::new(SetAdt::new(), pid, SHARDS, gc()))
        .collect();
    // What each replica has been sent since the last round, in the
    // order it was sent.
    let mut inbox: Vec<Vec<Msg>> = vec![Vec::new(); REPLICAS];
    let mut live_high = 0;
    let total = KEYS * PER_KEY;
    for i in 0..total {
        let (key, v) = (i / PER_KEY, (i % PER_KEY) as u32);
        let pid = (i % REPLICAS as u64) as usize;
        let msg = match pid {
            0 => node.update(key, SetUpdate::Insert(v)),
            p => peers[p - 1].update(key, SetUpdate::Insert(v)),
        };
        for (to, msgs) in inbox.iter_mut().enumerate() {
            if to != pid {
                msgs.push(msg.clone());
            }
        }
        if i % ROUND != ROUND - 1 && i + 1 != total {
            continue;
        }
        // A round: each replica takes what it was sent as one burst.
        node.deliver(std::mem::take(&mut inbox[0]));
        for (peer, msgs) in peers.iter_mut().zip(&mut inbox[1..]) {
            peer.apply_batch_owned(std::mem::take(msgs));
        }
        // Every few rounds, and at the end, everyone announces its
        // clock and ticks.
        if i % (ROUND * ROUNDS_PER_BEAT) == ROUND * ROUNDS_PER_BEAT - 1 || i + 1 == total {
            let beats: Vec<(Pid, Msg)> = std::iter::once((0, node.heartbeat()))
                .chain(peers.iter().map(|p| (p.pid(), p.heartbeat())))
                .collect();
            for (from, beat) in beats {
                if from != 0 {
                    node.deliver(vec![beat.clone()]);
                }
                for peer in peers.iter_mut().filter(|p| p.pid() != from) {
                    let Ok(_) = peer.apply_message_from(from, beat.clone());
                }
            }
            node.tick();
            peers.iter_mut().for_each(Store::tick_maintenance);
        }
        let (live, capacity) = node.gauges();
        live_high = live_high.max(live);
        assert!(
            capacity < (live_high + 2) * SMALL,
            "update {i}: {capacity} log slots held for a live-key high water of {live_high}"
        );
    }
    assert_eq!(node.gauges().0, 0, "every preloaded entry is stable");
}

#[test]
fn a_preloaded_store_keeps_a_few_small_buffers_not_one_per_key() {
    preload(Node::new(false));
}

#[test]
fn a_preloaded_pool_keeps_a_few_small_buffers_not_one_per_key() {
    preload(Node::new(true));
}
