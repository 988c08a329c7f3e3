//! Differential test of [`StableGc`]'s kept fold: whatever happens
//! between two reads — in-order and late insertions, heartbeats and
//! maintenance ticks compacting under the cache, a retention cap going
//! on and off, cut reads, an engine `Clone`, a crash and
//! [`ReplicaEngine::recover`] — the next read must equal a naive
//! replay of the full log.
//!
//! The schedules also *share* the fold ([`ReplicaEngine::shared_state`],
//! what a pool worker publishes): into a one-place ring that lets go
//! of the previous share as a `Published` cell does, to readers that
//! hold what they got for a few steps, and from an engine `Clone`.
//! After every step every `Arc` still held must equal the naive
//! replica's state of the moment it was taken — the two buffers behind
//! a shared fold take turns, and neither may be written while somebody
//! holds it.
//!
//! `strategy_differential` reads after every delivery, which keeps the
//! cache warm and current and so never lets compaction overtake it.
//! Here every step is checked too, but half of the checks read a
//! *clone* of the engine, so the original's cache stays as far behind
//! its log as the schedule left it. Half of the checks materialize,
//! which always takes the kept fold; the other half query
//! ([`ReplicaEngine::do_query`]), which folds a log shorter than
//! `CUTOVER` afresh and keeps nothing. The schedules must query logs on
//! both sides of it.
//!
//! The base is checked after every step as well, not only through a
//! recovery: every step ends with a flush, which hands the backend the
//! base the step's drains moved, and it must be the naive replica's
//! state at the stability bound. A shared fold's base is mostly a view
//! of its two buffers, and the drains that take it apply nothing — the
//! schedules must produce some of those, or the view path went
//! unchecked.
//!
//! The engine keeps no stability knowledge: the harness keeps it
//! ([`Heard`]) and hands the engine the floor wherever a replica would
//! — before every insertion, at every heartbeat, query and tick, and
//! when the retention cap moves.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeSet, VecDeque};
use std::rc::Rc;
use std::sync::Arc;
use uc_core::{
    GenericReplica, LogBackend, RepairStrategy, ReplicaEngine, StableGc, Timestamp, UpdateMsg,
};
use uc_sim::SplitMix64;
use uc_spec::{SetAdt, SetQuery, SetUpdate, UqAdt};

type Upd = SetUpdate<u32>;
type Msg = UpdateMsg<Upd>;
type Gc = ReplicaEngine<Counting, StableGc<Counting>, Disk>;
type Naive = GenericReplica<SetAdt<u32>>;

/// The retained log length from which a query of a cold fold builds
/// the kept fold instead of folding afresh.
const CUTOVER: usize = 8;

thread_local! {
    /// Updates the engine under test applied, to any state.
    static APPLIES: Cell<u64> = const { Cell::new(0) };
}

fn applies() -> u64 {
    APPLIES.with(Cell::get)
}

/// The set, counting what it applies.
#[derive(Clone, Copy, Debug, Default)]
struct Counting(SetAdt<u32>);

impl UqAdt for Counting {
    type Update = Upd;
    type QueryIn = SetQuery;
    type QueryOut = BTreeSet<u32>;
    type State = BTreeSet<u32>;

    fn initial(&self) -> BTreeSet<u32> {
        self.0.initial()
    }

    fn apply(&self, state: &mut BTreeSet<u32>, update: &Upd) {
        APPLIES.with(|c| c.set(c.get() + 1));
        self.0.apply(state, update);
    }

    fn observe(&self, state: &BTreeSet<u32>, query: &SetQuery) -> BTreeSet<u32> {
        self.0.observe(state, query)
    }

    fn observe_owned(&self, state: BTreeSet<u32>, query: &SetQuery) -> BTreeSet<u32> {
        self.0.observe_owned(state, query)
    }
}

/// What a persistent backend keeps, held outside the engine so that a
/// "crash" can drop the engine and recover from it.
#[derive(Default)]
struct DiskState {
    base: Option<(u64, BTreeSet<u32>)>,
    /// Bases handed over so far.
    bases: u64,
    journal: Vec<(Timestamp, Upd)>,
    watermark: u64,
}

#[derive(Clone, Default)]
struct Disk(Rc<RefCell<DiskState>>);

impl LogBackend<Counting> for Disk {
    fn append(&mut self, ts: Timestamp, u: &Upd) {
        self.0.borrow_mut().journal.push((ts, *u));
    }

    fn truncate_to_base(&mut self, bound: u64, state: &BTreeSet<u32>, tail: &[(Timestamp, Upd)]) {
        let mut disk = self.0.borrow_mut();
        disk.base = Some((bound, state.clone()));
        disk.bases += 1;
        disk.journal = tail.to_vec();
    }

    fn flush(&mut self, clock: u64) {
        self.0.borrow_mut().watermark = clock;
    }

    fn load_base(&mut self) -> Option<(u64, BTreeSet<u32>)> {
        self.0.borrow().base.clone()
    }

    fn scan_suffix(&mut self) -> Vec<(Timestamp, Upd)> {
        self.0.borrow().journal.clone()
    }

    fn clock_watermark(&self) -> u64 {
        self.0.borrow().watermark
    }
}

fn random_update(rng: &mut SplitMix64) -> Upd {
    let v = (rng.next_u64() % 8) as u32;
    if rng.next_u64().is_multiple_of(3) {
        SetUpdate::Delete(v)
    } else {
        SetUpdate::Insert(v)
    }
}

/// One FIFO stream per producer (pids `1..=producers`), with gossip
/// between producers so that their clocks interleave and a delivery
/// from one lands below what another already delivered.
fn produce_streams(rng: &mut SplitMix64, producers: usize) -> Vec<VecDeque<Msg>> {
    let mut peers: Vec<Naive> = (0..producers)
        .map(|i| GenericReplica::new(SetAdt::new(), i as u32 + 1))
        .collect();
    let mut streams = vec![VecDeque::new(); producers];
    for _ in 0..40 + rng.next_u64() % 40 {
        let p = (rng.next_u64() % producers as u64) as usize;
        let m = peers[p].update(random_update(rng));
        let q = (rng.next_u64() % producers as u64) as usize;
        if q != p && rng.next_u64().is_multiple_of(2) {
            peers[q].on_deliver(m.clone());
        }
        streams[p].push_back(m);
    }
    streams
}

/// Read `gc`, or a clone of it when `how` is even; by
/// `materialize`, or by a query when `how / 2` is odd.
fn check(gc: &mut Gc, naive: &mut Naive, how: u64, what: &str, seed: u64, tally: &mut Tally) {
    let expect = naive.materialize();
    let mut clone;
    let read = if how.is_multiple_of(2) {
        clone = gc.clone();
        &mut clone
    } else {
        gc
    };
    let got = if (how / 2).is_multiple_of(2) {
        read.materialize()
    } else {
        match read.log_len() {
            0 => {}
            len if len < CUTOVER && !read.strategy().holds_fold() => tally.fresh_queries += 1,
            _ => tally.kept_queries += 1,
        }
        read.do_query(&SetQuery::Read)
    };
    assert_eq!(got, expect, "after {what}, seed {seed}");
}

/// What a replica knows of stability, for the engine that keeps none:
/// the highest clock heard from each process (the engine's own pid 0
/// included) and the retention cap.
struct Heard {
    clocks: Vec<u64>,
    cap: Option<u64>,
}

impl Heard {
    fn new(cluster: usize) -> Self {
        Heard {
            clocks: vec![0; cluster],
            cap: None,
        }
    }

    /// The floor: every clock's minimum, capped.
    fn floor(&self) -> u64 {
        let heard = self.clocks.iter().copied().min().unwrap_or(0);
        heard.min(self.cap.unwrap_or(u64::MAX))
    }

    /// `pid` was heard at `clock`; the floor to hand the engine.
    fn hear(&mut self, pid: u32, clock: u64) -> u64 {
        let seen = &mut self.clocks[pid as usize];
        *seen = (*seen).max(clock);
        self.floor()
    }
}

/// A shared state and what the naive replica said when it was taken.
struct Held {
    state: Arc<BTreeSet<u32>>,
    expect: BTreeSet<u32>,
    /// Steps until the reader lets go.
    steps: u64,
}

/// What the schedules of all seeds did, summed.
#[derive(Default)]
struct Tally {
    compacted: u64,
    shares: u64,
    /// Shares the strategy served without copying a state.
    uncopied: u64,
    /// Steps that compacted and applied nothing: the drain took a base
    /// the buffers already held.
    free_drains: u64,
    /// Queries of a nonempty log that folded it afresh, and that read
    /// the kept fold.
    fresh_queries: u64,
    kept_queries: u64,
}

fn scenario(seed: u64, tally: &mut Tally) {
    let mut rng = SplitMix64::new(seed);
    let producers = 2 + (rng.next_u64() % 3) as usize;
    let cluster = producers + 1;
    let mut queues = produce_streams(&mut rng, producers);
    // Highest clock delivered from each producer: what its heartbeat
    // may announce without overtaking its own undelivered updates.
    let mut delivered = vec![0u64; producers];

    let adt = Counting::default();
    let disk = Disk::default();
    let mut gc: Gc = ReplicaEngine::with_backend(adt, 0, StableGc::new(&adt), disk.clone());
    let mut heard = Heard::new(cluster);
    let mut naive: Naive = GenericReplica::new(SetAdt::new(), 0);
    // The newest share, as a snapshot cell keeps it, and the readers.
    let mut ring: Option<Held> = None;
    let mut readers: Vec<Held> = Vec::new();

    let mut idle_steps = 0;
    while idle_steps < 24 {
        let bases = disk.0.borrow().bases;
        let (compacted, applied) = (gc.strategy().compacted(), applies());
        let p = (rng.next_u64() % producers as u64) as usize;
        let what = match rng.next_u64() % 16 {
            0..=3 => {
                let take = 1 + (rng.next_u64() % 4) as usize;
                let burst: Vec<Msg> = (0..take).filter_map(|_| queues[p].pop_front()).collect();
                if let Some(last) = burst.last() {
                    delivered[p] = last.ts.clock;
                }
                for m in &burst {
                    naive.on_deliver(m.clone());
                }
                if rng.next_u64().is_multiple_of(2) {
                    for m in &burst {
                        heard.hear(m.ts.pid, m.ts.clock);
                    }
                    gc.raise_floor(heard.floor());
                    gc.on_deliver_batch(burst);
                    "a batched delivery"
                } else {
                    for m in &burst {
                        gc.raise_floor(heard.hear(m.ts.pid, m.ts.clock));
                        gc.on_deliver(m.clone());
                    }
                    "a per-message delivery"
                }
            }
            4 => {
                gc.raise_floor(heard.hear(0, gc.clock() + 1));
                let m = gc.update(random_update(&mut rng));
                naive.on_deliver(m);
                "a local update"
            }
            5 => {
                let _ = gc.do_query(&SetQuery::Read);
                gc.raise_floor(heard.hear(0, gc.clock()));
                "a query"
            }
            6 => {
                gc.raise_floor(heard.hear(p as u32 + 1, delivered[p]));
                gc.tick_maintenance();
                "a heartbeat"
            }
            7 => {
                gc.raise_floor(heard.hear(0, gc.clock()));
                gc.tick_maintenance();
                "a maintenance tick"
            }
            8 => {
                heard.cap = rng
                    .next_u64()
                    .is_multiple_of(2)
                    .then(|| rng.next_u64() % (gc.clock() + 1));
                gc.raise_floor(heard.floor());
                "a retention cap change"
            }
            9 => {
                let cut = rng.next_u64() % (gc.clock() + 2);
                let expect = naive
                    .state_at_cut(cut)
                    .expect("the full log answers any cut");
                match gc.state_at_cut(cut) {
                    Ok(state) => assert_eq!(state, expect, "cut {cut}, seed {seed}"),
                    Err(e) => assert!(
                        cut < e.bound && e.bound == gc.strategy().stability_bound(),
                        "cut {cut} refused at bound {}, seed {seed}",
                        e.bound
                    ),
                }
                "a cut read"
            }
            10 => {
                gc = gc.clone();
                "an engine clone"
            }
            11..=14 => {
                let from_clone = rng.next_u64().is_multiple_of(4);
                let to_ring = !rng.next_u64().is_multiple_of(3);
                let (state, copied) = if from_clone {
                    gc.clone().shared_state()
                } else {
                    gc.shared_state()
                };
                tally.shares += 1;
                tally.uncopied += u64::from(!copied);
                let held = Held {
                    state,
                    expect: naive.materialize(),
                    steps: 1 + rng.next_u64() % 6,
                };
                if to_ring {
                    ring = Some(held);
                } else {
                    readers.push(held);
                }
                match (from_clone, to_ring) {
                    (false, true) => "a publication",
                    (false, false) => "a share a reader holds",
                    (true, _) => "a share from an engine clone",
                }
            }
            _ => {
                // Crash after a flush: everything but the disk is
                // lost, stability knowledge and retention cap included.
                gc.flush_backend();
                tally.compacted += gc.strategy().compacted();
                gc = ReplicaEngine::recover(adt, 0, StableGc::new(&adt), disk.clone());
                heard = Heard::new(cluster);
                "a recovery"
            }
        };
        if gc.strategy().compacted() > compacted && applies() == applied {
            tally.free_drains += 1;
        }
        gc.flush_backend();
        let written = disk.0.borrow();
        if let (true, Some((bound, base))) = (written.bases > bases, &written.base) {
            let expect = naive.state_at_cut(*bound).expect("the full log");
            assert_eq!(
                *base, expect,
                "the base at {bound} after {what}, seed {seed}"
            );
        }
        drop(written);
        check(&mut gc, &mut naive, rng.next_u64(), what, seed, tally);
        for held in ring.iter().chain(&readers) {
            assert_eq!(
                *held.state, held.expect,
                "a held state changed after {what}, seed {seed}"
            );
        }
        readers.retain_mut(|held| {
            held.steps -= 1;
            held.steps > 0
        });
        if queues.iter().all(VecDeque::is_empty) {
            idle_steps += 1;
        }
    }

    // Full stability, then the log must be gone and the answer intact.
    heard.cap = None;
    let clock = gc.clock();
    for pid in 0..cluster as u32 {
        heard.hear(pid, clock);
    }
    gc.raise_floor(heard.floor());
    gc.tick_maintenance();
    assert_eq!(gc.log_len(), 0, "seed {seed}");
    check(&mut gc, &mut naive, 1, "full stability", seed, tally);
    let (state, _) = gc.shared_state();
    assert_eq!(*state, naive.materialize(), "the last share, seed {seed}");
    tally.compacted += gc.strategy().compacted();
}

#[test]
fn kept_fold_matches_naive_replay_after_every_step() {
    let mut tally = Tally::default();
    for seed in 0..200 {
        scenario(seed, &mut tally);
    }
    assert!(
        tally.compacted > 0,
        "the schedules must compact under the cache"
    );
    assert!(
        tally.uncopied * 2 > tally.shares,
        "the schedules must swap buffers, not copy: {} of {} shares uncopied",
        tally.uncopied,
        tally.shares
    );
    assert!(
        tally.free_drains > 0,
        "some drains must take a base the buffers hold, applying nothing"
    );
    assert!(
        tally.fresh_queries > 0 && tally.kept_queries > 0,
        "the queries must take both sides of the cutover: {} fresh, {} kept",
        tally.fresh_queries,
        tally.kept_queries
    );
}
