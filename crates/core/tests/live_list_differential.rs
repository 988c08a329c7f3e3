//! Lazy-vs-eager differential for the per-shard live list.
//!
//! A store's heartbeats, ticks and flushes visit only the keys whose
//! log holds entries; a key with an empty log sits them out and is
//! handed the replica's stability floor by its next insertion, as
//! every insertion is. This suite drives the store as shipped beside a
//! **reference** that is never behind: after every heartbeat the
//! harness redelivers to each of the reference's keys the first
//! message that key ever took — a duplicate the log rejects, so nothing
//! changes except that the insertion path runs and the key is handed
//! the floor now. One seeded schedule (local updates, out-of-order
//! bursts, heartbeats, ticks, flushes, queries, cuts, a partition with
//! its retention pin, a reopen from segment files) runs against both,
//! as a [`UcStore`] and as an [`IngestPool`], and they must agree on
//! every query and every cut result, errors included, and — once every
//! key has been touched — on every key's log length, engine clock
//! (which moves with the key's own entries only, so the reference's
//! duplicates move it no more than the store's), stability bound and
//! compaction count. After every heartbeat or tick that raises the
//! replica's stability floor — which the harness computes from the
//! heartbeats it sent, the updates it delivered, the replica's own
//! stamps and ticks, and the retention pin — neither holds an entry
//! stamped at or below it.
//!
//! A duplicate's stamp is a delivered update's too, so it says what
//! its sender passed. After a reopen, which forgets what both replicas
//! heard, both are touched once, so that the reference's duplicates
//! never tell it more than the store knows.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use uc_core::{
    BackendFactory, CheckpointFactory, CutError, GcFactory, IngestPool, Key, MemFactory,
    PoolConfig, SnapshotError, StoreMsg, StoreSnapshot, UcStore,
};
use uc_sim::{Pid, SplitMix64};
use uc_spec::{SetAdt, SetQuery, SetUpdate};
use uc_storage::{ScratchDir, SegmentFactory};

type Adt = SetAdt<u32>;
type Msg = StoreMsg<SetUpdate<u32>>;
type States = BTreeMap<Key, BTreeSet<u32>>;

const KEYS: u64 = 24;
const SHARDS: usize = 3;
const PEERS: usize = 2;
const GC: GcFactory = GcFactory { n: PEERS + 1 };

/// The replica under test, sequential or pooled, behind the calls the
/// schedule makes.
enum Node<P>
where
    P: BackendFactory<Adt> + Send + Sync + 'static,
    P::Backend: Send + 'static,
{
    Store(Box<UcStore<Adt, GcFactory, P>>),
    Pool(IngestPool<Adt, GcFactory, P>),
}

fn pool_cfg() -> PoolConfig {
    PoolConfig {
        workers: 2,
        ..PoolConfig::default()
    }
}

fn states(snapshot: StoreSnapshot<Adt>) -> States {
    snapshot
        .keys()
        .map(|k| (k, snapshot.state(k).expect("a listed key").clone()))
        .collect()
}

impl<P> Node<P>
where
    P: BackendFactory<Adt> + Send + Sync + 'static,
    P::Backend: Send + 'static,
{
    fn new(persist: P, pooled: bool) -> Self {
        let store = UcStore::with_persistence(SetAdt::new(), 0, SHARDS, GC, persist);
        Self::wrap(store, pooled)
    }

    fn wrap(store: UcStore<Adt, GcFactory, P>, pooled: bool) -> Self {
        if pooled {
            Node::Pool(store.into_pool(pool_cfg()))
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

    /// Deliver a burst, as one batch or message by message.
    fn ingest(&mut self, msgs: Vec<Msg>, batched: bool) {
        match self {
            Node::Store(s) if batched => s.apply_batch_owned(msgs),
            Node::Store(s) => msgs.into_iter().for_each(|m| {
                let Ok(_) = s.apply_message_from(1, m);
            }),
            Node::Pool(p) if batched => p.submit_batch(msgs).unwrap(),
            Node::Pool(p) => msgs
                .into_iter()
                .for_each(|m| p.submit_batch(vec![m]).unwrap()),
        }
    }

    fn tick(&mut self) {
        match self {
            Node::Store(s) => s.tick_maintenance(),
            Node::Pool(p) => p.tick_maintenance().unwrap(),
        }
    }

    fn flush_backends(&mut self) {
        match self {
            Node::Store(s) => s.flush_backends(),
            Node::Pool(p) => {
                p.flush_backends().unwrap();
                p.flush().unwrap();
            }
        }
    }

    fn query(&mut self, key: Key) -> BTreeSet<u32> {
        match self {
            Node::Store(s) => s.query(key, &SetQuery::Read),
            Node::Pool(p) => p.query(key, &SetQuery::Read).unwrap(),
        }
    }

    /// A cut at `at`, or at the current clock.
    fn cut(&mut self, at: Option<u64>) -> Result<States, CutError> {
        let pooled = |r: Result<StoreSnapshot<Adt>, SnapshotError>| match r {
            Ok(snapshot) => Ok(snapshot),
            Err(SnapshotError::Cut(e)) => Err(e),
            Err(SnapshotError::Pool(e)) => panic!("{e}"),
        };
        let snapshot = match (self, at) {
            (Node::Store(s), Some(cut)) => s.snapshot_at(cut),
            (Node::Store(s), None) => Ok(s.consistent_snapshot()),
            (Node::Pool(p), Some(cut)) => pooled(p.snapshot_at(cut)),
            (Node::Pool(p), None) => pooled(p.consistent_snapshot()),
        };
        snapshot.map(states)
    }

    fn clock(&self) -> u64 {
        match self {
            Node::Store(s) => s.clock(),
            Node::Pool(p) => p.clock(),
        }
    }

    fn peer_down(&mut self, peer: Pid) {
        match self {
            Node::Store(s) => {
                let Ok(()) = s.peer_down(peer);
            }
            Node::Pool(p) => p.peer_down(peer).unwrap(),
        }
    }

    /// Lift the outage and its retention pin: the heal dialogue runs to
    /// its last ack against a throwaway sink (what the peer is repaired
    /// with is not this suite's subject).
    fn peer_up(&mut self, peer: Pid) {
        let mut sink = UcStore::new(SetAdt::new(), peer, 1, CheckpointFactory { every: 8 });
        let opener = match self {
            Node::Store(s) => {
                let Ok(opener) = s.peer_up(peer);
                opener
            }
            Node::Pool(p) => p.peer_up(peer).unwrap(),
        };
        let mut to_sink: Vec<Msg> = opener.into_iter().collect();
        while !to_sink.is_empty() {
            let replies: Vec<(Pid, Msg)> = to_sink
                .drain(..)
                .flat_map(|m| {
                    let Ok(replies) = sink.apply_message_from(0, m);
                    replies
                })
                .collect();
            for (_, m) in replies {
                let sent = match self {
                    Node::Store(s) => {
                        let Ok(sent) = s.apply_message_from(peer, m);
                        sent
                    }
                    Node::Pool(p) => p.apply_message_from(peer, m).unwrap(),
                };
                to_sink.extend(sent.into_iter().map(|(_, m)| m));
            }
        }
        let open = match self {
            Node::Store(s) => s.heal_sessions().count(),
            Node::Pool(p) => p.heal_sessions().count(),
        };
        assert_eq!(open, 0, "the session, and with it the pin, is gone");
    }

    fn live_keys(&mut self) -> usize {
        match self {
            Node::Store(s) => s.live_keys(),
            Node::Pool(p) => p.live_keys(),
        }
    }

    /// Hand the sequential store to `f`. A pool is drained into one
    /// and respawned, its partition posture with it.
    fn with_store<R>(self, f: impl FnOnce(&mut UcStore<Adt, GcFactory, P>) -> R) -> (Self, R) {
        match self {
            Node::Store(mut s) => {
                let out = f(&mut s);
                (Node::Store(s), out)
            }
            Node::Pool(p) => {
                let mut s = p.finish().unwrap();
                let out = f(&mut s);
                (Node::Pool(s.into_pool(pool_cfg())), out)
            }
        }
    }

    /// Assert that no key holds an entry stamped at or below `floor`.
    fn assert_floor(self, floor: u64, ctx: &str) -> Self {
        let (node, ()) = self.with_store(|s| {
            for key in s.keys() {
                let stable = s.engine(key).expect("a listed key").log().prefix_len(floor);
                assert_eq!(
                    stable, 0,
                    "key {key}: entries at or below floor {floor}, {ctx}"
                );
            }
        });
        node
    }

    /// Flush, kill, and reopen from what `persist` holds.
    fn reopen(self, persist: P) -> Self {
        let pooled = matches!(self, Node::Pool(_));
        let mut store = match self {
            Node::Store(s) => *s,
            Node::Pool(p) => p.finish().unwrap(),
        };
        store.flush_backends();
        let before = store.clock();
        drop(store);
        let back = UcStore::reopen(SetAdt::new(), 0, SHARDS, GC, persist);
        assert!(
            back.clock() >= before,
            "the store clock covers every clock heard or issued before the kill"
        );
        Self::wrap(back, pooled)
    }
}

/// What the schedule compares once every key has been touched.
#[derive(Debug, PartialEq)]
struct KeyFacts {
    state: BTreeSet<u32>,
    log_len: usize,
    clock: u64,
    bound: u64,
    compacted: u64,
}

fn key_facts<P: BackendFactory<Adt>>(
    store: &mut UcStore<Adt, GcFactory, P>,
) -> BTreeMap<Key, KeyFacts> {
    store
        .keys()
        .into_iter()
        .map(|k| {
            let state = store.materialize_key(k);
            let engine = store.engine(k).expect("a listed key");
            let facts = KeyFacts {
                state,
                log_len: engine.log_len(),
                clock: engine.clock(),
                bound: engine.strategy().stability_bound(),
                compacted: engine.strategy().compacted(),
            };
            (k, facts)
        })
        .collect()
}

/// Both replicas' per-key facts must agree, key by key.
fn same_facts<P>(lazy: Node<P>, eager: Node<P>, ctx: &str) -> (Node<P>, Node<P>)
where
    P: BackendFactory<Adt> + Send + Sync + 'static,
    P::Backend: Send + 'static,
{
    let (lazy, lazy_facts) = lazy.with_store(key_facts);
    let (eager, eager_facts) = eager.with_store(key_facts);
    assert_eq!(
        lazy_facts.keys().collect::<Vec<_>>(),
        eager_facts.keys().collect::<Vec<_>>(),
        "keys, {ctx}"
    );
    for (key, facts) in &lazy_facts {
        assert_eq!(facts, &eager_facts[key], "key {key}, {ctx}");
    }
    (lazy, eager)
}

/// The two peers (stamping stores that only ever produce messages),
/// what each has produced and not yet delivered, and the first message
/// every key of the replica under test ever took.
struct World {
    rng: SplitMix64,
    peers: Vec<UcStore<Adt, CheckpointFactory>>,
    undelivered: Vec<VecDeque<Msg>>,
    /// Clock of each peer's last delivered update.
    delivered_clock: Vec<u64>,
    delivered: Vec<Msg>,
    first: BTreeMap<Key, Msg>,
    down: Option<usize>,
}

fn key_of(m: &Msg) -> Key {
    match m {
        StoreMsg::Update { key, .. } => *key,
        other => panic!("peers produce updates, not {other:?}"),
    }
}

fn clock_of(m: &Msg) -> u64 {
    match m {
        StoreMsg::Update { msg, .. } => msg.ts.clock,
        other => panic!("peers produce updates, not {other:?}"),
    }
}

impl World {
    fn new(seed: u64) -> Self {
        World {
            rng: SplitMix64::new(seed),
            peers: (1..=PEERS as u32)
                .map(|pid| UcStore::new(SetAdt::new(), pid, 1, CheckpointFactory { every: 8 }))
                .collect(),
            undelivered: vec![VecDeque::new(); PEERS],
            delivered_clock: vec![0; PEERS],
            delivered: Vec::new(),
            first: BTreeMap::new(),
            down: None,
        }
    }

    fn below(&mut self, n: u64) -> u64 {
        self.rng.next_u64() % n
    }

    fn random_update(&mut self) -> (Key, SetUpdate<u32>) {
        // A few hot keys and a long tail, so that some keys are always
        // live and most sit idle between touches.
        let key = if self.below(3) == 0 {
            self.below(3)
        } else {
            self.below(KEYS)
        };
        let v = self.below(8) as u32;
        let u = if self.below(3) == 0 {
            SetUpdate::Delete(v)
        } else {
            SetUpdate::Insert(v)
        };
        (key, u)
    }

    /// A burst for delivery: a FIFO prefix of every reachable peer's
    /// undelivered stream, interleaved across senders, with the odd
    /// redelivery of something delivered before.
    fn burst(&mut self) -> Vec<Msg> {
        let mut out = Vec::new();
        let mut takes: Vec<u64> = (0..PEERS)
            .map(|p| {
                if self.down == Some(p) {
                    0
                } else {
                    let n = self.undelivered[p].len() as u64;
                    self.below(n.min(6) + 1)
                }
            })
            .collect();
        while takes.iter().any(|t| *t > 0) {
            let p = self.below(PEERS as u64) as usize;
            if takes[p] == 0 {
                continue;
            }
            takes[p] -= 1;
            let m = self.undelivered[p].pop_front().expect("counted above");
            self.delivered_clock[p] = clock_of(&m);
            self.first.entry(key_of(&m)).or_insert_with(|| m.clone());
            self.delivered.push(m.clone());
            out.push(m);
            if self.below(5) == 0 {
                let again = self.below(self.delivered.len() as u64) as usize;
                out.push(self.delivered[again].clone());
            }
        }
        out
    }

    /// Peer `p`'s heartbeat as the replica under test may hear it: no
    /// higher than the last of `p`'s updates it has been given.
    fn heartbeat(&self, p: usize) -> Msg {
        let clock = if self.undelivered[p].is_empty() {
            self.peers[p].clock()
        } else {
            self.delivered_clock[p]
        };
        StoreMsg::Heartbeat {
            pid: p as u32 + 1,
            clock,
        }
    }

    /// One duplicate per key: the harness's way of running the
    /// insertion path — and with it the catch-up — on every key.
    fn touch_all(&self) -> Vec<Msg> {
        self.first.values().cloned().collect()
    }
}

/// The replica's stability floor as the harness computes it from what
/// it did: the minimum of the clocks the peers announced or stamped on
/// the updates delivered, and of the replica's own progress, capped by
/// the retention pin while a peer is down. A reopen forgets all of it,
/// as the replica does.
#[derive(Default)]
struct Floor {
    /// Each peer's heartbeats and delivered stamps.
    heard: [u64; PEERS],
    /// The replica's own stamps and tick clocks. A pool worker counts
    /// only the stamps of its own shards, so for a pool only the ticks.
    own: u64,
    pin: Option<u64>,
    /// The floor when last looked at.
    last: u64,
    /// How often it had risen, over the whole run.
    rises: usize,
}

impl Floor {
    /// The floor, if it rose since last looked at.
    fn rose(&mut self) -> Option<u64> {
        let heard = self.heard.iter().copied().chain([self.own]).min();
        let now = heard.unwrap_or(0).min(self.pin.unwrap_or(u64::MAX));
        let rose = now > self.last;
        self.last = now;
        self.rises += usize::from(rose);
        rose.then_some(now)
    }
}

/// After a heartbeat or tick: if it raised the floor, neither replica
/// may hold an entry stamped at or below it.
fn check_floor<P>(lazy: Node<P>, eager: Node<P>, floor: &mut Floor, ctx: &str) -> (Node<P>, Node<P>)
where
    P: BackendFactory<Adt> + Send + Sync + 'static,
    P::Backend: Send + 'static,
{
    match floor.rose() {
        Some(at) => (lazy.assert_floor(at, ctx), eager.assert_floor(at, ctx)),
        None => (lazy, eager),
    }
}

fn run<P>(seed: u64, pooled: bool, persist: impl Fn() -> P, persistent: bool)
where
    P: BackendFactory<Adt> + Send + Sync + 'static,
    P::Backend: Send + 'static,
{
    let mut w = World::new(seed);
    let (lazy_persist, eager_persist) = (persist(), persist());
    let mut lazy = Node::new(lazy_persist.clone(), pooled);
    let mut eager = Node::new(eager_persist.clone(), pooled);
    // Heartbeats that found a key idle, summed over keys.
    let mut sat_out = 0;
    let mut floor = Floor::default();

    for step in 0..600 {
        let ctx = format!("seed {seed}, step {step}, pooled {pooled}");
        match w.below(24) {
            0..=3 => {
                let (key, u) = w.random_update();
                let m = lazy.update(key, u);
                assert_eq!(m, eager.update(key, u), "stamp, {ctx}");
                if !pooled {
                    floor.own = floor.own.max(clock_of(&m));
                }
                w.first.entry(key).or_insert_with(|| m.clone());
                w.delivered.push(m.clone());
                // The peers hear of it sooner or later.
                for peer in &mut w.peers {
                    let Ok(_) = peer.apply_message_from(0, m.clone());
                }
            }
            4..=7 => {
                let p = w.below(PEERS as u64) as usize;
                for _ in 0..=w.below(4) {
                    let (key, u) = w.random_update();
                    let m = w.peers[p].update(key, u);
                    w.undelivered[p].push_back(m.clone());
                    let other = &mut w.peers[1 - p];
                    let Ok(_) = other.apply_message_from(p as u32 + 1, m);
                }
            }
            8..=10 => {
                let before = w.delivered_clock.clone();
                let burst = w.burst();
                let batched = w.below(2) == 0;
                lazy.ingest(burst.clone(), batched);
                eager.ingest(burst, batched);
                // Each sender's FIFO link delivered up to its last.
                let now = w.delivered_clock.iter().zip(&before);
                for (heard, (now, before)) in floor.heard.iter_mut().zip(now) {
                    if now != before {
                        *heard = (*heard).max(*now);
                    }
                }
            }
            11..=14 => {
                // A peer held down is heard too, as across a one-way
                // cut: then the pin, not its silence, holds the floor.
                let p = w.below(PEERS as u64) as usize;
                sat_out += w.first.len() - lazy.live_keys();
                let hb = w.heartbeat(p);
                let StoreMsg::Heartbeat { clock, .. } = hb else {
                    unreachable!("a heartbeat")
                };
                floor.heard[p] = floor.heard[p].max(clock);
                lazy.ingest(vec![hb.clone()], false);
                eager.ingest(vec![hb], false);
                // The reference is never behind.
                eager.ingest(w.touch_all(), w.below(2) == 0);
                (lazy, eager) = check_floor(lazy, eager, &mut floor, &ctx);
            }
            15..=16 => {
                floor.own = floor.own.max(lazy.clock());
                lazy.tick();
                eager.tick();
                (lazy, eager) = check_floor(lazy, eager, &mut floor, &ctx);
            }
            17 => {
                lazy.flush_backends();
                eager.flush_backends();
            }
            18..=19 => {
                let key = w.below(KEYS);
                assert_eq!(lazy.query(key), eager.query(key), "query, {ctx}");
            }
            20..=21 => {
                // Now, or anywhere in the past: the latter refuses
                // when it predates some key's compaction.
                let at = match w.below(3) {
                    0 => None,
                    _ => Some(w.below(lazy.clock() + 1)),
                };
                assert_eq!(lazy.cut(at), eager.cut(at), "cut at {at:?}, {ctx}");
            }
            22 => match w.down.take() {
                Some(p) => {
                    lazy.peer_up(p as Pid + 1);
                    eager.peer_up(p as Pid + 1);
                    floor.pin = None;
                }
                None => {
                    let p = w.below(PEERS as u64) as usize;
                    floor.pin = Some(lazy.clock());
                    lazy.peer_down(p as Pid + 1);
                    eager.peer_down(p as Pid + 1);
                    w.down = Some(p);
                }
            },
            _ => {
                // The facts of every key, compared once the shipped
                // store has been made to touch them all too.
                if w.down.is_some() {
                    continue;
                }
                assert_eq!(lazy.live_keys(), eager.live_keys(), "live keys, {ctx}");
                let batched = w.below(2) == 0;
                lazy.ingest(w.touch_all(), batched);
                eager.ingest(w.touch_all(), batched);
                (lazy, eager) = same_facts(lazy, eager, &ctx);
                if persistent && w.below(3) == 0 {
                    // Every key was just touched, so both sides go
                    // down with the same clocks on disk; what a key
                    // had heard is not persisted, and both start
                    // hearing again from here.
                    lazy = lazy.reopen(lazy_persist.clone());
                    eager = eager.reopen(eager_persist.clone());
                    (lazy, eager) = same_facts(lazy, eager, &format!("recovered, {ctx}"));
                    lazy.ingest(w.touch_all(), true);
                    eager.ingest(w.touch_all(), true);
                    floor = Floor {
                        rises: floor.rises,
                        ..Floor::default()
                    };
                }
            }
        }
    }
    assert!(
        sat_out > 100,
        "seed {seed}: keys sat out {sat_out} heartbeats — the schedule tests too little"
    );
    assert!(
        floor.rises > 8,
        "seed {seed}: the floor rose {} times — the schedule tests too little",
        floor.rises
    );
}

#[test]
fn store_catches_idle_keys_up_exactly() {
    for seed in 0..12 {
        run(seed, false, || MemFactory, false);
    }
}

#[test]
fn pool_catches_idle_keys_up_exactly() {
    for seed in 0..6 {
        run(seed, true, || MemFactory, false);
    }
}

#[test]
fn store_catches_idle_keys_up_exactly_across_reopens() {
    for seed in 0..6 {
        let roots = std::cell::RefCell::new(Vec::new());
        let persist = || {
            let tmp = ScratchDir::new(&format!("live-diff-{seed}"));
            let factory = SegmentFactory::at(tmp.path()).expect("scratch store");
            roots.borrow_mut().push(tmp);
            factory
        };
        run(seed, false, persist, true);
    }
}

#[test]
fn pool_catches_idle_keys_up_exactly_across_reopens() {
    for seed in 0..3 {
        let roots = std::cell::RefCell::new(Vec::new());
        let persist = || {
            let tmp = ScratchDir::new(&format!("live-diff-pool-{seed}"));
            let factory = SegmentFactory::at(tmp.path()).expect("scratch store");
            roots.borrow_mut().push(tmp);
            factory
        };
        run(seed, true, persist, true);
    }
}
