//! Violation-detection tests for the streaming consistency monitor
//! riding the store and pool hot paths.
//!
//! Each detection test injects a *specific* defect through a custom
//! [`RepairStrategy`] (or a hand-built wire message) and asserts the
//! monitor flags it in its very next check — while the clean
//! differentials prove zero false positives under both store
//! strategies, naive replay and undo/redo (the test-local factories in
//! `common`), and perturbed, duplicated, compacted delivery.
//!
//! The monitor rides the shard set both executors share, so the clean
//! differential and every injected fault run as one body over each
//! node kind ([`Replica`]): the sequential store, and the pool on one
//! and on two workers.

mod common;

use common::{on_every_node_kind, pooled, sequential, NaiveEngines, UndoEngines};
use uc_core::backend::LogBackend;
use uc_core::engine::{CutError, RepairStrategy};
use uc_core::pool::{IngestPool, PoolConfig};
use uc_core::store::{CheckpointFactory, GcFactory, StoreMsg, StrategyFactory, UcStore};
use uc_core::{Executor, Node, Timestamp, UpdateLog, UpdateMsg};
use uc_criteria::online::MonitorConfig;
use uc_obs::{HealthStatus, Registry};
use uc_spec::{CounterAdt, CounterQuery, CounterUpdate, UqAdt};

const KEYS: u64 = 8;

type Msg = StoreMsg<CounterUpdate>;

fn monitored_cfg() -> MonitorConfig {
    MonitorConfig::full().with_peers([0, 1])
}

/// The monitor scenarios run a replica of either kind — a [`Node`]
/// over either executor — and read its monitor and health through the
/// accessors both share, each read behind every operation issued
/// before it. What still differs is the data path: a pool's can fail.
trait Replica {
    fn update(&mut self, key: u64, u: CounterUpdate) -> Msg;
    /// One peer data frame, as a link hands it over.
    fn deliver(&mut self, m: Msg);
    fn read(&mut self, key: u64) -> i64;
    /// Take (and drop) a snapshot at `cut`.
    fn cut(&mut self, cut: u64);
    fn tick_maintenance(&mut self);
}

impl<F: StrategyFactory<CounterAdt>> Replica for UcStore<CounterAdt, F> {
    fn update(&mut self, key: u64, u: CounterUpdate) -> Msg {
        UcStore::update(self, key, u)
    }
    fn deliver(&mut self, m: Msg) {
        // The sender is read by heal frames only, and none comes here.
        let Ok(_) = self.apply_message_from(0, m);
    }
    fn read(&mut self, key: u64) -> i64 {
        self.query(key, &CounterQuery::Read)
    }
    fn cut(&mut self, cut: u64) {
        self.snapshot_at(cut).expect("cut is answerable");
    }
    fn tick_maintenance(&mut self) {
        UcStore::tick_maintenance(self)
    }
}

impl<F: StrategyFactory<CounterAdt>> Replica for IngestPool<CounterAdt, F> {
    fn update(&mut self, key: u64, u: CounterUpdate) -> Msg {
        IngestPool::update(self, key, u).expect("live pool")
    }
    fn deliver(&mut self, m: Msg) {
        self.submit_batch(vec![m]).expect("live pool")
    }
    fn read(&mut self, key: u64) -> i64 {
        self.query(key, &CounterQuery::Read).expect("live pool")
    }
    fn cut(&mut self, cut: u64) {
        self.snapshot_at(cut).expect("cut is answerable");
    }
    fn tick_maintenance(&mut self) {
        IngestPool::tick_maintenance(self).expect("live pool")
    }
}

/// Drive two monitored replicas (plus an unmonitored twin of the
/// first) through a perturbed full exchange — reordered delivery,
/// duplicates, heartbeats, maintenance — and require convergence,
/// twin equality (the monitor never perturbs results), and a clean
/// monitor on both ends. `fifo` keeps per-link order: stability-based
/// GC requires it (the reliable link provides it in production), so
/// its differential perturbs with duplicates only.
fn clean_differential<X: Executor<Adt = CounterAdt>>(make: impl Fn(u32) -> Node<X>, fifo: bool)
where
    Node<X>: Replica,
{
    let mut a = make(0);
    let mut twin = make(0);
    let mut b = make(1);
    a.attach_monitor(monitored_cfg()).unwrap();
    b.attach_monitor(monitored_cfg()).unwrap();

    let mut msgs_a = Vec::new();
    for i in 0..20u64 {
        let m = a.update(i % KEYS, CounterUpdate::Add(i as i64 + 1));
        twin.deliver(m.clone());
        msgs_a.push(m);
    }
    let mut msgs_b = Vec::new();
    for i in 0..20u64 {
        msgs_b.push(b.update(i % KEYS, CounterUpdate::Add(-(i as i64) - 100)));
    }

    // Deliver b's stream to a (and the twin) — reversed unless the
    // strategy needs FIFO — with every third message duplicated; a's
    // stream to b in submitted order.
    if !fifo {
        msgs_b.reverse();
    }
    for (i, m) in msgs_b.into_iter().enumerate() {
        a.deliver(m.clone());
        twin.deliver(m.clone());
        if i % 3 == 0 {
            a.deliver(m.clone());
            twin.deliver(m);
        }
    }
    for m in msgs_a {
        b.deliver(m);
    }

    // Stability: exchange heartbeats, then let both ends compact.
    let hb_a = a.heartbeat();
    let hb_b = b.heartbeat();
    a.deliver(hb_b.clone());
    twin.deliver(hb_b);
    b.deliver(hb_a);
    a.tick_maintenance();
    twin.tick_maintenance();
    b.tick_maintenance();

    for k in 0..KEYS {
        let va = a.read(k);
        let vt = twin.read(k);
        let vb = b.read(k);
        assert_eq!(
            va, vt,
            "monitored and unmonitored twins diverged on key {k}"
        );
        assert_eq!(va, vb, "replicas did not converge on key {k}");
    }

    let sa = a.monitor_stats().expect("monitor attached");
    assert!(
        sa.clean(),
        "false positive on a clean run: {sa:?} ({})",
        std::any::type_name::<X>()
    );
    assert!(sa.sampled_updates >= 40, "both streams observed");
    assert!(sa.sampled_queries >= KEYS, "every query checked");
    let sb = b.monitor_stats().expect("monitor attached");
    assert!(sb.clean(), "false positive on replica b: {sb:?}");
}

#[test]
fn clean_run_is_clean_under_naive() {
    on_every_node_kind!(clean_differential, CounterAdt, NaiveEngines, 4, false);
}

#[test]
fn clean_run_is_clean_under_checkpoint() {
    on_every_node_kind!(
        clean_differential,
        CounterAdt,
        CheckpointFactory { every: 4 },
        4,
        false
    );
}

#[test]
fn clean_run_is_clean_under_undo() {
    on_every_node_kind!(clean_differential, CounterAdt, UndoEngines, 4, false);
}

#[test]
fn clean_run_is_clean_under_gc() {
    on_every_node_kind!(clean_differential, CounterAdt, GcFactory { n: 2 }, 4, true);
}

/// A strategy with an injected fold bug: the log's first update is
/// applied twice. Queries answer from the corrupt fold.
#[derive(Clone, Copy, Debug)]
struct DoubleFoldFactory;

struct DoubleFold {
    state: i64,
}

impl RepairStrategy<CounterAdt> for DoubleFold {
    fn on_insert<B: LogBackend<CounterAdt>>(
        &mut self,
        _adt: &CounterAdt,
        _log: &mut UpdateLog<CounterAdt, B>,
        _pos: usize,
    ) {
    }

    fn current_state<B: LogBackend<CounterAdt>>(
        &mut self,
        adt: &CounterAdt,
        log: &UpdateLog<CounterAdt, B>,
    ) -> &i64 {
        let mut st = adt.initial();
        for (i, (_, u)) in log.iter().enumerate() {
            adt.apply(&mut st, u);
            if i == 0 {
                // The injected defect under test.
                adt.apply(&mut st, u);
            }
        }
        self.state = st;
        &self.state
    }
}

impl StrategyFactory<CounterAdt> for DoubleFoldFactory {
    type Strategy = DoubleFold;

    fn make(&self, _adt: &CounterAdt) -> DoubleFold {
        DoubleFold { state: 0 }
    }
}

fn double_fold_is_caught<X: Executor<Adt = CounterAdt>>(make: impl Fn(u32) -> Node<X>)
where
    Node<X>: Replica,
{
    let mut s = make(0);
    s.attach_monitor(MonitorConfig::full()).unwrap();
    s.update(7, CounterUpdate::Add(5));
    let v = s.read(7);
    assert_eq!(v, 10, "the injected bug double-folds the first update");
    let stats = s.monitor_stats().expect("monitor attached");
    assert_eq!(stats.uc_violations, 1, "flagged on the very first check");
    assert_eq!(stats.snap_violations, 0);
    assert_eq!(stats.sec_violations, 0);
    assert_eq!(s.health().status, HealthStatus::Degraded);
}

#[test]
fn double_fold_is_caught_by_the_first_query_check() {
    on_every_node_kind!(double_fold_is_caught, CounterAdt, DoubleFoldFactory, 4);
}

/// A strategy whose snapshot path ignores the cut: every cut answers
/// with the *full* fold, tearing multi-key snapshots.
#[derive(Clone, Copy, Debug)]
struct TornCutFactory;

struct TornCut {
    state: i64,
}

impl RepairStrategy<CounterAdt> for TornCut {
    fn on_insert<B: LogBackend<CounterAdt>>(
        &mut self,
        _adt: &CounterAdt,
        _log: &mut UpdateLog<CounterAdt, B>,
        _pos: usize,
    ) {
    }

    fn current_state<B: LogBackend<CounterAdt>>(
        &mut self,
        adt: &CounterAdt,
        log: &UpdateLog<CounterAdt, B>,
    ) -> &i64 {
        self.state = adt.run_updates(log.iter().map(|(_, u)| u));
        &self.state
    }

    fn state_at_cut<B: LogBackend<CounterAdt>>(
        &mut self,
        adt: &CounterAdt,
        log: &UpdateLog<CounterAdt, B>,
        _cut: u64,
    ) -> Result<i64, CutError> {
        // The injected defect: the cut is ignored, so updates stamped
        // above it leak into the "snapshot".
        Ok(adt.run_updates(log.iter().map(|(_, u)| u)))
    }
}

impl StrategyFactory<CounterAdt> for TornCutFactory {
    type Strategy = TornCut;

    fn make(&self, _adt: &CounterAdt) -> TornCut {
        TornCut { state: 0 }
    }
}

fn torn_cut_is_caught<X: Executor<Adt = CounterAdt>>(make: impl Fn(u32) -> Node<X>)
where
    Node<X>: Replica,
{
    let mut s = make(0);
    s.attach_monitor(MonitorConfig::full()).unwrap();
    s.update(1, CounterUpdate::Add(1)); // clock 1
    s.update(1, CounterUpdate::Add(2)); // clock 2
    s.update(1, CounterUpdate::Add(4)); // clock 3
    s.cut(1);
    let stats = s.monitor_stats().expect("monitor attached");
    assert!(
        stats.snap_violations >= 1,
        "cut 1 must fold only the first update: {stats:?}"
    );
    assert_eq!(stats.uc_violations, 0, "no spurious query-side flags");
}

#[test]
fn torn_cut_is_caught_by_the_first_snapshot() {
    on_every_node_kind!(torn_cut_is_caught, CounterAdt, TornCutFactory, 4);
}

#[test]
fn replay_below_the_dedup_floor_is_informational_not_a_violation() {
    let mut s = UcStore::new(CounterAdt, 0, 2, GcFactory { n: 2 });
    s.attach_monitor(monitored_cfg());
    let m1 = s.update(3, CounterUpdate::Add(1));
    s.update(3, CounterUpdate::Add(2));
    // Peer 1 announces a clock past both updates: stability advances,
    // the engine compacts, and the monitor finalizes its window.
    let Ok(_) = s.apply_message_from(1, StoreMsg::Heartbeat { pid: 1, clock: 10 });
    s.tick_maintenance();
    let stats = s.monitor_stats().unwrap();
    assert!(
        stats.finalized_updates >= 2,
        "the stable prefix folded into the shadow base: {stats:?}"
    );
    // A straggler replays an already-finalized update. The engine
    // drops it at its dedup floor; the monitor must count it as
    // informational rather than manufacture a violation.
    let Ok(_) = s.apply_message_from(1, m1);
    let stats = s.monitor_stats().unwrap();
    assert!(stats.below_floor_arrivals >= 1, "{stats:?}");
    assert!(stats.clean(), "a below-floor replay is not a violation");
    assert_eq!(s.query(3, &CounterQuery::Read), 3);
    assert!(s.monitor_stats().unwrap().clean());
}

fn stamp_reuse_is_flagged<X: Executor<Adt = CounterAdt>>(make: impl Fn(u32) -> Node<X>)
where
    Node<X>: Replica,
{
    let mut s = make(0);
    s.attach_monitor(MonitorConfig::full()).unwrap();
    let ts = Timestamp::new(5, 9);
    s.deliver(StoreMsg::Update {
        key: 2,
        msg: UpdateMsg {
            ts,
            update: CounterUpdate::Add(1),
        },
    });
    s.deliver(StoreMsg::Update {
        key: 2,
        msg: UpdateMsg {
            ts,
            update: CounterUpdate::Add(2),
        },
    });
    let stats = s.monitor_stats().expect("monitor attached");
    assert!(stats.sec_violations >= 1, "{stats:?}");
    assert_eq!(s.health().status, HealthStatus::Degraded);
}

#[test]
fn stamp_reuse_with_diverging_payloads_is_a_sec_violation() {
    on_every_node_kind!(
        stamp_reuse_is_flagged,
        CounterAdt,
        CheckpointFactory { every: 4 },
        4
    );
}

/// One schedule — local updates, a peer burst out of order with a
/// duplicate, per-frame deliveries, reads of touched and untouched
/// keys, a cut, heartbeats and two maintenance ticks — fed identically
/// to a monitored store and a monitored one-worker pool. Both run the
/// same shard set over the same keys, so every monitor counter agrees.
#[test]
fn a_store_and_a_one_worker_pool_report_the_same_monitor_stats() {
    let factory = GcFactory { n: 2 };
    let mut store = sequential(&CounterAdt, &factory, 0, 4);
    let mut pool = pooled(&CounterAdt, &factory, 0, 4, 1);
    let mut peer = sequential(&CounterAdt, &factory, 1, 4);
    store.attach_monitor(monitored_cfg());
    pool.attach_monitor(monitored_cfg()).unwrap();

    let burst: Vec<Msg> = (0..12u64)
        .map(|i| peer.update(i % KEYS, CounterUpdate::Add(i as i64 + 1)))
        .collect();
    let frames: Vec<Msg> = (0..4u64)
        .map(|i| peer.update(i, CounterUpdate::Add(-7)))
        .collect();
    let peer_clock = peer.heartbeat();

    for i in 0..10u64 {
        let u = CounterUpdate::Add(100 + i as i64);
        let a = Replica::update(&mut store, i % 5, u);
        let b = Replica::update(&mut pool, i % 5, u);
        assert_eq!(a, b, "one clock, one schedule: the same stamps");
    }
    let mut batch = burst.clone();
    batch.push(burst[3].clone());
    store.apply_batch_owned(batch.clone());
    pool.submit_batch(batch).unwrap();
    Replica::tick_maintenance(&mut store);
    Replica::tick_maintenance(&mut pool);
    for m in frames.into_iter().chain([peer_clock]) {
        store.deliver(m.clone());
        pool.deliver(m);
    }
    for key in 0..KEYS + 2 {
        assert_eq!(store.read(key), pool.read(key), "key {key}");
    }
    let cut = store.clock();
    assert_eq!(cut, pool.clock());
    store.cut(cut);
    pool.cut(cut);
    Replica::tick_maintenance(&mut store);
    Replica::tick_maintenance(&mut pool);

    let inline = store.monitor_stats().expect("monitor attached");
    assert!(inline.clean(), "{inline:?}");
    assert!(inline.sampled_cuts > 0 && inline.finalized_updates > 0 && inline.ticks == 2);
    assert_eq!(Some(inline), pool.monitor_stats());
}

/// A pool's monitor read is one more job per worker, behind every job
/// queued before it: straight after a burst is submitted, with no
/// flush, it has seen every update of that burst.
#[test]
fn a_pool_monitor_read_right_after_a_burst_sees_the_burst() {
    for workers in [1, 2] {
        let mut pool = pooled(&CounterAdt, &CheckpointFactory { every: 4 }, 0, 4, workers);
        pool.attach_monitor(MonitorConfig::full()).unwrap();
        let burst: Vec<Msg> = (0..40u64)
            .map(|i| StoreMsg::Update {
                key: i % KEYS,
                msg: UpdateMsg {
                    ts: Timestamp::new(1 + i, 1),
                    update: CounterUpdate::Add(1),
                },
            })
            .collect();
        pool.submit_batch(burst).unwrap();
        let stats = pool.monitor_stats().expect("monitor attached");
        assert_eq!(stats.sampled_updates, 40, "{workers} worker(s): {stats:?}");
        assert!(stats.clean(), "{stats:?}");
        pool.finish().unwrap();
    }
}

#[test]
fn pool_monitor_stays_clean_then_flags_injected_stamp_reuse() {
    let store: UcStore<CounterAdt, CheckpointFactory> =
        UcStore::new(CounterAdt, 0, 4, CheckpointFactory { every: 4 });
    let mut pool = IngestPool::spawn(
        store,
        PoolConfig {
            workers: 2,
            queue_depth: 64,
        },
    );
    pool.attach_monitor(MonitorConfig::full()).unwrap();

    for i in 0..10u64 {
        pool.update(i % 4, CounterUpdate::Add(i as i64 + 1))
            .unwrap();
    }
    let burst: Vec<_> = (0..10u64)
        .map(|i| StoreMsg::Update {
            key: i % 4,
            msg: UpdateMsg {
                ts: Timestamp::new(100 + i, 1),
                update: CounterUpdate::Add(1),
            },
        })
        .collect();
    pool.submit_batch(burst).unwrap();
    // Queries route through the owning workers, exercising the pooled
    // query-side check.
    for k in 0..4u64 {
        pool.query(k, &CounterQuery::Read).unwrap();
    }
    pool.tick_maintenance().unwrap();
    pool.flush().unwrap();

    let stats = pool.monitor_stats().expect("monitor attached");
    assert!(stats.clean(), "clean pooled run flagged: {stats:?}");
    assert!(stats.sampled_updates >= 20);
    assert!(stats.sampled_queries >= 4);
    assert_eq!(pool.health().status, HealthStatus::Healthy);

    // Same stamp as an earlier burst entry, different payload.
    pool.submit_batch(vec![StoreMsg::Update {
        key: 0,
        msg: UpdateMsg {
            ts: Timestamp::new(100, 1),
            update: CounterUpdate::Add(7),
        },
    }])
    .unwrap();
    pool.flush().unwrap();
    let stats = pool.monitor_stats().unwrap();
    assert!(stats.sec_violations >= 1, "{stats:?}");
    let health = pool.health();
    assert_eq!(health.status, HealthStatus::Degraded);
    assert_eq!(health.monitor_clean, Some(false));
    pool.finish().unwrap();
}

/// Sampling never perturbs: one perturbed keyed stream, ingested with
/// the monitor detached and attached at rates 0, 0.01, 0.1 and 1,
/// leaves every key's state the same. At full rate the monitor counts
/// every update and flags none, and the store's scrape and health say
/// so.
#[test]
fn a_sampled_monitor_never_perturbs_the_store_and_exports_what_it_saw() {
    let mut producer = sequential(&CounterAdt, &CheckpointFactory { every: 32 }, 1, 4);
    let mut stream: Vec<Msg> = (0..2_000i64)
        .map(|i| producer.update(i as u64 * 7 % 64, CounterUpdate::Add(i)))
        .collect();
    uc_sim::perturb_order(&mut stream, 0.15, 0x0B5ED);
    let ingest = |rate: Option<f64>| {
        let mut s = sequential(&CounterAdt, &CheckpointFactory { every: 32 }, 0, 4);
        if let Some(rate) = rate {
            s.attach_monitor(MonitorConfig::sampled(rate).with_peers([0, 1]));
        }
        for chunk in stream.chunks(256) {
            s.apply_batch_owned(chunk.to_vec());
        }
        s
    };
    let states = |s: &mut UcStore<CounterAdt, CheckpointFactory>| -> Vec<(u64, i64)> {
        s.keys()
            .into_iter()
            .map(|k| (k, s.materialize_key(k)))
            .collect()
    };
    let want = states(&mut ingest(None));
    for rate in [0.0, 0.01, 0.1] {
        assert_eq!(states(&mut ingest(Some(rate))), want, "rate {rate}");
    }
    let mut full = ingest(Some(1.0));
    assert_eq!(states(&mut full), want, "rate 1");

    let clock = full.clock();
    let Ok(_) = full.apply_message_from(1, StoreMsg::Heartbeat { pid: 1, clock });
    full.tick_maintenance();
    let stats = full.monitor_stats().expect("monitor attached").clone();
    assert!(stats.clean(), "false positive on a clean stream: {stats:?}");
    assert_eq!(stats.sampled_updates, stream.len() as u64);
    assert!(stats.finalized_updates > 0, "{stats:?}");
    let reg = Registry::new();
    full.export_metrics(&reg);
    let scrape = reg.snapshot().render_prometheus();
    for metric in [
        "uc_store_keys ",
        "uc_store_live_keys ",
        "uc_monitor_sampled_updates_total ",
        "uc_monitor_uc_violations_total 0",
    ] {
        assert!(
            scrape.lines().any(|line| line.starts_with(metric)),
            "no `{metric}` in the scrape:\n{scrape}"
        );
    }
    assert!(full.health().render().contains("status: healthy"));
}

#[test]
fn attach_after_traffic_never_judges_unseen_history() {
    let mut s = UcStore::new(CounterAdt, 0, 2, CheckpointFactory { every: 4 });
    s.update(4, CounterUpdate::Add(9));
    s.attach_monitor(MonitorConfig::full());
    // Key 4's history predates the monitor: its query must not be
    // compared against an (empty) shadow.
    assert_eq!(s.query(4, &CounterQuery::Read), 9);
    // Fresh keys are watched from their first update.
    s.update(5, CounterUpdate::Add(2));
    assert_eq!(s.query(5, &CounterQuery::Read), 2);
    let stats = s.monitor_stats().unwrap();
    assert!(stats.clean(), "{stats:?}");
    assert!(stats.sampled_updates >= 1);
}
