//! A frame the runtime hands over by value moves into the log and is
//! never cloned: Algorithm 1's receive rule (lines 8–11) inserts the
//! delivered update itself. An ADT whose update counts its clones
//! watches a replica ingest fresh frames one by one
//! (`Protocol::on_message`), a burst (`Protocol::on_batch`) and a
//! duplicate of each, on the store and on one- and two-worker pools,
//! under a strategy that cuts small bursts over to per-message inserts
//! (naive replay) and two that repair a burst once (checkpoints, undo).
//!
//! The clone counter is a process-wide static, so this file is a test
//! binary of its own with a single test: nothing else clones an
//! update while it counts.

use std::sync::atomic::{AtomicU64, Ordering};
use uc_core::{
    CheckpointFactory, NaiveFactory, PoolConfig, StoreInput, StoreMsg, StoreOutput,
    StrategyFactory, UcStore, UndoFactory,
};
use uc_sim::{Ctx, Pid, Protocol};
use uc_spec::{UndoableUqAdt, UqAdt};

/// Every `Add` clone, on any thread of the process.
static CLONES: AtomicU64 = AtomicU64::new(0);

/// An update that counts its clones.
#[derive(Debug, PartialEq, Eq, Hash)]
struct Add(i64);

impl Clone for Add {
    fn clone(&self) -> Self {
        CLONES.fetch_add(1, Ordering::SeqCst);
        Add(self.0)
    }
}

/// A counter over [`Add`]s.
#[derive(Clone, Debug)]
struct Sum;

impl UqAdt for Sum {
    type Update = Add;
    type QueryIn = ();
    type QueryOut = i64;
    type State = i64;

    fn initial(&self) -> i64 {
        0
    }

    fn apply(&self, state: &mut i64, update: &Add) {
        *state += update.0;
    }

    fn observe(&self, state: &i64, _query: &()) -> i64 {
        *state
    }
}

impl UndoableUqAdt for Sum {
    type UndoToken = i64;

    fn apply_with_undo(&self, state: &mut i64, update: &Add) -> i64 {
        *state += update.0;
        update.0
    }

    fn undo(&self, state: &mut i64, token: &i64) {
        *state -= token;
    }
}

type Msg = StoreMsg<Add>;

const KEYS: u64 = 6;
const ME: Pid = 0;
const PEER: Pid = 1;

/// Every key's value, read through the protocol. On a pool each read
/// is a job behind everything submitted before it (the inboxes are
/// FIFO), so the reads are also a barrier.
fn read_all<P>(node: &mut P, ctx: &mut Ctx<'_, Msg>) -> Vec<i64>
where
    P: Protocol<Msg = Msg, Input = StoreInput<Sum>, Output = StoreOutput<Sum>>,
{
    (0..KEYS)
        .map(
            |key| match node.on_invoke(StoreInput::Query(key, ()), ctx) {
                StoreOutput::Value { out, .. } => out,
                other => panic!("a read answers a value, got {other:?}"),
            },
        )
        .collect()
}

/// Feed `node` the peer's traffic and count the update clones it makes.
fn frames_move_into_the_log<P>(mut node: P, kind: &str)
where
    P: Protocol<Msg = Msg, Input = StoreInput<Sum>, Output = StoreOutput<Sum>>,
{
    let mut sent = Vec::new();
    let mut ctx = Ctx::new(ME, 2, 0, &mut sent);
    let mut expect = vec![0i64; KEYS as usize];
    // A local history for the peer's frames to land inside of: the
    // log keeps a copy of each local update (the caller broadcasts
    // the original), so it is written before the count starts.
    for i in 0..24u64 {
        let v = 1_000 + i as i64;
        expect[(i % KEYS) as usize] += v;
        node.on_invoke(StoreInput::Update(i % KEYS, Add(v)), &mut ctx);
    }
    let mut peer = UcStore::new(Sum, PEER, 4, NaiveFactory);
    let mut send = |i: u64| {
        expect[(i % KEYS) as usize] += i as i64;
        peer.update(i % KEYS, Add(i as i64))
    };
    let frames: Vec<Msg> = (0..16).map(&mut send).collect();
    let mut burst: Vec<Msg> = (16..64).map(&mut send).collect();
    burst.push(peer.heartbeat());
    let (frames_again, burst_again) = (frames.clone(), burst.clone());
    read_all(&mut node, &mut ctx);

    let before = CLONES.load(Ordering::SeqCst);
    for m in frames.into_iter().chain(frames_again) {
        node.on_message(PEER, m, &mut ctx);
    }
    for burst in [burst, burst_again] {
        node.on_batch(burst.into_iter().map(|m| (PEER, m)).collect(), &mut ctx);
    }
    let states = read_all(&mut node, &mut ctx);
    let cloned = CLONES.load(Ordering::SeqCst) - before;

    assert_eq!(cloned, 0, "{kind}: the receiving replica cloned updates");
    assert_eq!(states, expect, "{kind}: states differ from the reference");
}

/// The store, and the same replica on one and on two pool workers.
fn on_every_node_kind<F>(factory: F, strategy: &str)
where
    F: StrategyFactory<Sum> + Send + 'static,
    F::Strategy: Send + 'static,
{
    let store = || UcStore::new(Sum, ME, 4, factory.clone());
    frames_move_into_the_log(store(), &format!("store, {strategy}"));
    for workers in [1, 2] {
        let pool = store().into_pool(PoolConfig {
            workers,
            ..PoolConfig::default()
        });
        frames_move_into_the_log(pool, &format!("pool×{workers}, {strategy}"));
    }
}

#[test]
fn a_delivered_frame_moves_into_the_log_and_is_never_cloned() {
    on_every_node_kind(NaiveFactory, "naive");
    on_every_node_kind(CheckpointFactory { every: 4 }, "checkpoint");
    on_every_node_kind(UndoFactory, "undo");
}
