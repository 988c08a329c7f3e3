//! The event-driven reactor: [`EventCluster`] multiplexes `N`
//! [`Protocol`] instances onto `W ≪ N` worker threads.
//!
//! ```text
//!                 EventCluster<P> handle
//!    invoke(pid, input) ──┐            (parks while pid's mailbox is
//!                         ▼             full: ingress backpressure)
//!   ┌──────────────────────────────────────────────────────────────┐
//!   │ node 0   node 1   node 2  …  node N-1      (NodeSlot each:   │
//!   │ [mailbox][mailbox][mailbox]  [mailbox]      bounded VecDeque, │
//!   │     │        │       │           │          scheduled flag,   │
//!   │     └────────┴───┬───┴───────────┘          poison record)    │
//!   │                  ▼                                            │
//!   │            ready list (FIFO)   ◀── timer wheel (flush windows,│
//!   │                  │                  maintenance sweeps)       │
//!   │      ┌───────────┼───────────┐                                │
//!   │      ▼           ▼           ▼                                │
//!   │  worker 0    worker 1 …  worker W-1     (cooperative: drain   │
//!   │                                          ≤ batch_limit msgs   │
//!   └──────────────────────────────────────── into one on_batch) ──┘
//! ```
//!
//! * **Scheduling** — a node with pending envelopes is pushed onto the
//!   ready list exactly once (its `scheduled` flag makes enqueueing
//!   idempotent); a free worker pops it, drains up to
//!   [`RuntimeConfig::batch_limit`] queued deliveries into **one**
//!   [`Protocol::on_batch`] activation (a greedy drain, so
//!   batching-aware replicas repair once per burst), runs it, and
//!   re-queues the node if more arrived meanwhile. Nodes never block
//!   each other: an activation runs to completion and yields.
//! * **Timers** — a virtual-timer wheel (ticks of
//!   [`RuntimeConfig::timer_resolution`]) turns two things that would
//!   otherwise need dedicated threads into events: *flush windows*
//!   ([`RuntimeConfig::flush_window`] — a delivery to an idle node
//!   parks in the mailbox until the window expires or the mailbox
//!   reaches `batch_limit`, making the simulator's `DeliveryMode::
//!   Batched { window }` a real I/O boundary) and *maintenance sweeps*
//!   ([`RuntimeConfig::maintenance_interval`] — fires
//!   [`Protocol::on_tick`] on every node: GC heartbeats, per-key
//!   compaction). Idle workers park until the next deadline, so an
//!   idle cluster burns no CPU.
//! * **Bounded mailboxes** — external invokers
//!   ([`EventCluster::invoke`]) park at
//!   [`RuntimeConfig::mailbox_depth`]; protocol traffic is never
//!   refused. Parking a *worker* on a peer's full mailbox could
//!   deadlock the pool (all W workers parked on mailboxes only they
//!   could drain), exactly the hazard wait-freedom exists to avoid,
//!   and dropping a delivery would lose an update nothing resends.
//! * **Panic isolation** — a panicking activation poisons **its node
//!   only**: the panic is caught, the node's state dropped, its
//!   mailbox purged, and every later call that touches it returns the
//!   typed [`NodeError`] (the contract of the ingest pool's
//!   `PoolError`). Other nodes keep running; messages to the corpse
//!   count as dropped-on-crashed.
//!
//! The API is `spawn`, `invoke`, `quiesce`, `metrics`, `shutdown`;
//! every [`Protocol`] — single replicas, GC replicas, whole
//! `UcStore`s, pooled stores — runs on it unchanged, and it
//! implements the runtime-generic
//! [`ClusterHarness`](uc_sim::ClusterHarness) beside the simulator.

use crate::timer::{Timer, TimerKind, TimerWheel};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use uc_obs::{Counter, Registry};
use uc_sim::harness::{panic_message, quiesce_spin, PoisonTable};
use uc_sim::{ClusterHarness, Ctx, Metrics, NodeError, Pid, Protocol};

/// Reactor sizing and policy.
#[derive(Clone, Copy, Debug)]
pub struct RuntimeConfig {
    /// Worker threads; `0` means `min(available_parallelism, 8)`
    /// (a small pool is the point: `W ≪ N`). Always capped at the
    /// node count.
    pub workers: usize,
    /// Bounded mailbox depth per node; external `invoke` producers
    /// park while a mailbox is at the bound. Node-to-node deliveries
    /// are never refused.
    pub mailbox_depth: usize,
    /// Most deliveries one activation may drain into a single
    /// [`Protocol::on_batch`] flush.
    pub batch_limit: usize,
    /// `Some(w)`: a delivery to an idle node parks in its mailbox
    /// until `w` elapses (or the mailbox reaches `batch_limit`),
    /// coalescing bursts into fewer, larger flushes — the real-time
    /// version of the simulator's `DeliveryMode::Batched { window }`.
    /// `None`: deliveries schedule their node immediately.
    pub flush_window: Option<Duration>,
    /// `Some(i)`: fire [`Protocol::on_tick`] on every node each `i`
    /// (GC heartbeats + compaction, with no dedicated thread).
    pub maintenance_interval: Option<Duration>,
    /// Virtual-clock granularity of the timer wheel.
    pub timer_resolution: Duration,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            workers: 0,
            mailbox_depth: 1024,
            batch_limit: usize::MAX,
            flush_window: None,
            maintenance_interval: None,
            timer_resolution: Duration::from_millis(1),
        }
    }
}

enum Envelope<P: Protocol> {
    Deliver(Pid, P::Msg),
    Invoke(P::Input, Sender<P::Output>),
    Tick,
}

/// Everything one node owns.
struct NodeSlot<P: Protocol> {
    mailbox: Mutex<VecDeque<Envelope<P>>>,
    /// Signalled when the mailbox drains (parked invokers re-check).
    space: Condvar,
    /// True while the node sits on the ready list or runs; makes
    /// scheduling idempotent.
    scheduled: AtomicBool,
    /// True while a flush timer for this node is armed.
    flush_armed: AtomicBool,
    /// True while a maintenance tick sits unprocessed in the mailbox —
    /// a backlogged node gets at most one outstanding tick, not one
    /// per sweep (ticks bypass the mailbox bound, so without this an
    /// overloaded node would accumulate them without limit and then
    /// run them back-to-back, amplifying the overload with heartbeat
    /// broadcasts).
    tick_pending: AtomicBool,
    /// Set (with a record in the shared poison table) when an
    /// activation panicked.
    dead: AtomicBool,
    /// The protocol instance; taken on poisoning and at shutdown.
    state: Mutex<Option<P>>,
}

/// One activation's worth of work, taken from a mailbox.
enum Activation<P: Protocol> {
    Nothing,
    Invoke(P::Input, Sender<P::Output>),
    Tick,
    Batch(Vec<(Pid, P::Msg)>),
}

/// Hot-path tallies kept *off* the [`Metrics`] mutex. `deliver` runs
/// once per node-to-node message on every worker, so a mutex bump on
/// its dead-drop exit serialized the whole pool exactly when it was
/// busiest; these are single relaxed `fetch_add`s instead.
/// [`EventCluster::metrics`] folds them back into the cloned
/// [`Metrics`], and [`EventCluster::obs_registry`] exposes the
/// underlying registry for exporters.
struct HotCounters {
    registry: Registry,
    messages_dropped_crashed: Counter,
    invocations: Counter,
}

impl HotCounters {
    fn new() -> Self {
        let registry = Registry::new();
        // Resolve the handles once: the name lookup locks, the
        // handles' `inc`/`add` never do.
        let messages_dropped_crashed =
            registry.counter("uc_reactor_messages_dropped_crashed_total");
        let invocations = registry.counter("uc_reactor_invocations_total");
        HotCounters {
            registry,
            messages_dropped_crashed,
            invocations,
        }
    }
}

struct Shared<P: Protocol> {
    nodes: Vec<NodeSlot<P>>,
    ready: Mutex<VecDeque<Pid>>,
    ready_cv: Condvar,
    timers: Mutex<TimerWheel>,
    /// Messages sent but not yet processed (incremented before every
    /// enqueue, drained after the receiving activation finishes —
    /// the increment-before-send invariant, so a stable zero really
    /// is quiescence).
    in_flight: AtomicI64,
    metrics: Mutex<Metrics>,
    /// Lock-free counters for the per-message hot paths; folded into
    /// `metrics` on read.
    hot: HotCounters,
    /// Per-node panic records (`uc_sim::harness`).
    poison: PoisonTable,
    stop: AtomicBool,
    epoch: Instant,
    resolution: Duration,
    mailbox_depth: usize,
    batch_limit: usize,
    flush_ticks: Option<u64>,
    maintenance_ticks: Option<u64>,
    /// Statically known from the config: when false, workers skip the
    /// timer wheel (and its mutex) entirely.
    has_timers: bool,
}

impl<P: Protocol> Shared<P> {
    /// Current virtual tick.
    fn now_ticks(&self) -> u64 {
        (self.epoch.elapsed().as_nanos() / self.resolution.as_nanos().max(1)) as u64
    }

    fn node_error(&self, pid: Pid) -> NodeError {
        self.poison.error_of(pid)
    }

    fn poisoned(&self) -> Option<NodeError> {
        self.poison.first()
    }

    /// Put `idx` on the ready list unless it is already there (or
    /// running, in which case its activation epilogue re-checks).
    fn schedule(&self, idx: Pid) {
        let slot = &self.nodes[idx as usize];
        if slot.dead.load(Ordering::Acquire) {
            return;
        }
        if !slot.scheduled.swap(true, Ordering::AcqRel) {
            self.ready.lock().unwrap().push_back(idx);
            self.ready_cv.notify_one();
        }
    }

    /// Purge a dead node's mailbox: queued deliveries count as dropped
    /// on a crashed process, queued invokes fail their callers by
    /// dropping the reply sender. Idempotent — also used to close the
    /// enqueue-vs-poison race.
    fn purge_mailbox(&self, idx: Pid) {
        let slot = &self.nodes[idx as usize];
        let mut drained = Vec::new();
        {
            let mut mb = slot.mailbox.lock().unwrap();
            while let Some(env) = mb.pop_front() {
                drained.push(env);
            }
        }
        let dropped = drained
            .iter()
            .filter(|e| matches!(e, Envelope::Deliver(..)))
            .count() as i64;
        drop(drained);
        if dropped > 0 {
            self.in_flight.fetch_sub(dropped, Ordering::SeqCst);
            self.hot.messages_dropped_crashed.add(dropped as u64);
        }
        slot.space.notify_all();
    }

    /// Kill `idx`: record the panic, drop the (possibly corrupt)
    /// state, purge the mailbox. Callers must not hold the node's
    /// state lock.
    fn poison_node(&self, idx: Pid, message: String) {
        let slot = &self.nodes[idx as usize];
        self.poison.record(idx, message);
        slot.dead.store(true, Ordering::Release);
        let state = slot.state.lock().unwrap().take();
        // The state may be mid-repair garbage; a panicking Drop must
        // not take the worker down with it.
        let _ = catch_unwind(AssertUnwindSafe(move || drop(state)));
        self.purge_mailbox(idx);
    }

    /// Route one protocol message to `to`'s mailbox. The caller has
    /// already incremented `in_flight` for it.
    fn deliver(&self, from: Pid, to: Pid, msg: P::Msg) {
        let slot = &self.nodes[to as usize];
        if slot.dead.load(Ordering::Acquire) {
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
            self.hot.messages_dropped_crashed.inc();
            return;
        }
        let len = {
            let mut mb = slot.mailbox.lock().unwrap();
            mb.push_back(Envelope::Deliver(from, msg));
            mb.len()
        };
        if slot.dead.load(Ordering::Acquire) {
            // Poisoned between the check and the push: the purge may
            // have run before our message landed, so run it again.
            self.purge_mailbox(to);
            return;
        }
        match self.flush_ticks {
            None => self.schedule(to),
            Some(window) => {
                if len >= self.batch_limit || slot.scheduled.load(Ordering::Acquire) {
                    // Full enough to flush now, or the node is already
                    // queued/running and its epilogue will drain this
                    // message — either way a timer would only fire on
                    // an empty mailbox later.
                    self.schedule(to);
                } else if !slot.flush_armed.swap(true, Ordering::AcqRel) {
                    self.timers.lock().unwrap().insert(Timer {
                        deadline: self.now_ticks() + window,
                        kind: TimerKind::Flush(to),
                    });
                    // A parked worker may need to shorten its sleep.
                    self.ready_cv.notify_one();
                }
            }
        }
    }

    /// Send an activation's outbox: count, then route. Incrementing
    /// `in_flight` *before* each enqueue keeps the quiesce invariant.
    fn dispatch(&self, from: Pid, outbox: Vec<(Pid, P::Msg)>) {
        if outbox.is_empty() {
            return;
        }
        {
            let mut m = self.metrics.lock().unwrap();
            for _ in &outbox {
                m.on_send(from, 0);
            }
        }
        for (to, msg) in outbox {
            self.in_flight.fetch_add(1, Ordering::SeqCst);
            self.deliver(from, to, msg);
        }
    }

    /// Advance the wheel and act on everything that fired.
    fn fire_due_timers(&self) {
        let mut fired = Vec::new();
        {
            let mut w = self.timers.lock().unwrap();
            if w.is_empty() {
                return;
            }
            w.advance(self.now_ticks(), &mut fired);
        }
        for t in fired {
            match t.kind {
                TimerKind::Flush(pid) => {
                    self.nodes[pid as usize]
                        .flush_armed
                        .store(false, Ordering::Release);
                    self.schedule(pid);
                }
                TimerKind::MaintenanceSweep => {
                    for idx in 0..self.nodes.len() {
                        let slot = &self.nodes[idx];
                        if slot.dead.load(Ordering::Acquire)
                            || slot.tick_pending.swap(true, Ordering::AcqRel)
                        {
                            continue; // dead, or last tick still queued
                        }
                        slot.mailbox.lock().unwrap().push_back(Envelope::Tick);
                        self.schedule(idx as Pid);
                    }
                    if let Some(every) = self.maintenance_ticks {
                        self.timers.lock().unwrap().insert(Timer {
                            deadline: self.now_ticks() + every,
                            kind: TimerKind::MaintenanceSweep,
                        });
                    }
                }
            }
        }
    }

    /// How long an idle worker may park before the next timer is due.
    fn park_timeout(&self) -> Option<Duration> {
        let next = self.timers.lock().unwrap().next_deadline()?;
        let ticks = next.saturating_sub(self.now_ticks()).max(1);
        Some(
            self.resolution
                .checked_mul(ticks.min(u32::MAX as u64) as u32)
                .unwrap_or(Duration::from_secs(3600)),
        )
    }

    /// Take one activation's worth of envelopes off `idx`'s mailbox:
    /// an invoke or a tick alone, or up to `batch_limit` contiguous
    /// deliveries as one burst (mailbox order, so per-link FIFO is
    /// preserved).
    fn take_activation(&self, idx: Pid) -> Activation<P> {
        let slot = &self.nodes[idx as usize];
        let act = {
            let mut mb = slot.mailbox.lock().unwrap();
            match mb.pop_front() {
                None => Activation::Nothing,
                Some(Envelope::Invoke(input, reply)) => Activation::Invoke(input, reply),
                Some(Envelope::Tick) => {
                    slot.tick_pending.store(false, Ordering::Release);
                    Activation::Tick
                }
                Some(Envelope::Deliver(from, msg)) => {
                    let mut batch = vec![(from, msg)];
                    while batch.len() < self.batch_limit {
                        match mb.front() {
                            Some(Envelope::Deliver(..)) => {
                                let Some(Envelope::Deliver(f, m)) = mb.pop_front() else {
                                    unreachable!("front was a delivery");
                                };
                                batch.push((f, m));
                            }
                            _ => break,
                        }
                    }
                    Activation::Batch(batch)
                }
            }
        };
        // Space freed: wake invokers parked on the bound.
        slot.space.notify_all();
        act
    }

    /// Run one cooperative activation of node `idx`.
    fn run_node(&self, idx: Pid) {
        let slot = &self.nodes[idx as usize];
        if slot.dead.load(Ordering::Acquire) {
            return; // leave `scheduled` set: a corpse is never re-queued
        }
        let n = self.nodes.len();
        let now = self.now_ticks();
        match self.take_activation(idx) {
            Activation::Nothing => {}
            Activation::Invoke(input, reply) => {
                let mut outbox = Vec::new();
                let mut state = slot.state.lock().unwrap();
                let outcome = state.as_mut().map(|node| {
                    catch_unwind(AssertUnwindSafe(|| {
                        let mut ctx = Ctx::new(idx, n, now, &mut outbox);
                        node.on_invoke(input, &mut ctx)
                    }))
                });
                drop(state);
                match outcome {
                    Some(Ok(output)) => {
                        self.hot.invocations.inc();
                        self.dispatch(idx, outbox);
                        let _ = reply.send(output);
                    }
                    Some(Err(payload)) => {
                        // Poison before `reply` drops, so the blocked
                        // invoker finds the reason immediately.
                        self.poison_node(idx, panic_message(payload.as_ref()));
                        drop(reply);
                        return;
                    }
                    None => return, // racing shutdown took the state
                }
            }
            Activation::Tick => {
                let mut outbox = Vec::new();
                let mut state = slot.state.lock().unwrap();
                let outcome = state.as_mut().map(|node| {
                    catch_unwind(AssertUnwindSafe(|| {
                        let mut ctx = Ctx::new(idx, n, now, &mut outbox);
                        node.on_tick(&mut ctx);
                    }))
                });
                drop(state);
                match outcome {
                    Some(Ok(())) => self.dispatch(idx, outbox),
                    Some(Err(payload)) => {
                        self.poison_node(idx, panic_message(payload.as_ref()));
                        return;
                    }
                    None => return,
                }
            }
            Activation::Batch(batch) => {
                let k = batch.len() as i64;
                let mut outbox = Vec::new();
                let mut state = slot.state.lock().unwrap();
                let outcome = state.as_mut().map(|node| {
                    catch_unwind(AssertUnwindSafe(|| {
                        let mut ctx = Ctx::new(idx, n, now, &mut outbox);
                        node.on_batch(batch, &mut ctx);
                    }))
                });
                drop(state);
                match outcome {
                    Some(Ok(())) => {
                        self.metrics.lock().unwrap().on_delivery(idx, k as u64);
                        self.dispatch(idx, outbox);
                        self.in_flight.fetch_sub(k, Ordering::SeqCst);
                    }
                    Some(Err(payload)) => {
                        // Poison first, then drain the burst from the
                        // counter (quiesce re-checks poison after a
                        // stable zero).
                        self.poison_node(idx, panic_message(payload.as_ref()));
                        self.in_flight.fetch_sub(k, Ordering::SeqCst);
                        return;
                    }
                    None => {
                        self.in_flight.fetch_sub(k, Ordering::SeqCst);
                        return;
                    }
                }
            }
        }
        // Activation epilogue: yield the node, then re-queue it if
        // envelopes arrived while it ran (their `schedule` calls saw
        // `scheduled == true` and did nothing).
        slot.scheduled.store(false, Ordering::Release);
        if !slot.mailbox.lock().unwrap().is_empty() {
            self.schedule(idx);
        }
    }
}

fn worker_loop<P: Protocol>(shared: Arc<Shared<P>>) {
    loop {
        if shared.has_timers {
            shared.fire_due_timers();
        }
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        let next = shared.ready.lock().unwrap().pop_front();
        match next {
            Some(idx) => shared.run_node(idx),
            None => {
                // Park until work arrives or the next timer is due; an
                // idle cluster burns no CPU because every wake source —
                // schedule, flush-timer arming, stop — notifies the
                // condvar, so an untimed wait is safe when nothing is
                // armed.
                let deadline = if shared.has_timers {
                    shared.park_timeout()
                } else {
                    None
                };
                let guard = shared.ready.lock().unwrap();
                if shared.stop.load(Ordering::Acquire) {
                    return;
                }
                if guard.is_empty() {
                    // The returned guards drop immediately: the loop
                    // re-takes the lock to pop after any wakeup.
                    match deadline {
                        Some(d) => {
                            drop(shared.ready_cv.wait_timeout(guard, d).unwrap());
                        }
                        None => {
                            drop(shared.ready_cv.wait(guard).unwrap());
                        }
                    }
                }
            }
        }
    }
}

/// An event-driven cluster of `n` protocol instances on a small worker
/// pool. See the [module docs](self) for the architecture.
pub struct EventCluster<P>
where
    P: Protocol + Send + 'static,
    P::Msg: Send,
    P::Input: Send,
    P::Output: Send,
{
    shared: Arc<Shared<P>>,
    workers: Vec<JoinHandle<()>>,
    /// Protocol-side counters folded into [`EventCluster::metrics`].
    link_counters: Option<Arc<uc_sim::LinkCounters>>,
}

impl<P> EventCluster<P>
where
    P: Protocol + Send + 'static,
    P::Msg: Send,
    P::Input: Send,
    P::Output: Send,
{
    /// Spawn `n` nodes built by `make(pid)` with the default
    /// [`RuntimeConfig`] (eager flushes, unbounded drains, parked
    /// ingress, no maintenance timer).
    pub fn spawn(n: usize, make: impl FnMut(Pid) -> P) -> Self {
        Self::with_config(RuntimeConfig::default(), n, make)
    }

    /// Spawn `n` nodes under an explicit [`RuntimeConfig`].
    ///
    /// # Panics
    ///
    /// On `n == 0`, a zero `mailbox_depth`/`batch_limit`, or a zero
    /// `timer_resolution` when any timer is configured.
    pub fn with_config(cfg: RuntimeConfig, n: usize, mut make: impl FnMut(Pid) -> P) -> Self {
        assert!(n >= 1, "a cluster needs at least one node");
        assert!(cfg.mailbox_depth >= 1, "a mailbox must hold something");
        assert!(cfg.batch_limit >= 1, "a drain must deliver something");
        let needs_timers = cfg.flush_window.is_some() || cfg.maintenance_interval.is_some();
        assert!(
            !needs_timers || cfg.timer_resolution > Duration::ZERO,
            "timers need a positive resolution"
        );
        let hw = std::thread::available_parallelism().map_or(1, |p| p.get());
        let workers = if cfg.workers == 0 {
            hw.min(8)
        } else {
            cfg.workers
        }
        .min(n)
        .max(1);
        let to_ticks = |d: Duration| {
            (d.as_nanos() / cfg.timer_resolution.as_nanos().max(1))
                .max(1)
                .min(u64::MAX as u128) as u64
        };
        let shared = Arc::new(Shared {
            nodes: (0..n)
                .map(|pid| NodeSlot {
                    mailbox: Mutex::new(VecDeque::new()),
                    space: Condvar::new(),
                    scheduled: AtomicBool::new(false),
                    flush_armed: AtomicBool::new(false),
                    tick_pending: AtomicBool::new(false),
                    dead: AtomicBool::new(false),
                    state: Mutex::new(Some(make(pid as Pid))),
                })
                .collect(),
            ready: Mutex::new(VecDeque::new()),
            ready_cv: Condvar::new(),
            timers: Mutex::new(TimerWheel::new()),
            in_flight: AtomicI64::new(0),
            metrics: Mutex::new(Metrics::new(n)),
            hot: HotCounters::new(),
            poison: PoisonTable::new(n),
            stop: AtomicBool::new(false),
            epoch: Instant::now(),
            resolution: cfg.timer_resolution,
            mailbox_depth: cfg.mailbox_depth,
            batch_limit: cfg.batch_limit,
            flush_ticks: cfg.flush_window.map(to_ticks),
            maintenance_ticks: cfg.maintenance_interval.map(to_ticks),
            has_timers: needs_timers,
        });
        if let Some(every) = shared.maintenance_ticks {
            shared.timers.lock().unwrap().insert(Timer {
                deadline: every,
                kind: TimerKind::MaintenanceSweep,
            });
        }
        let workers = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(shared))
            })
            .collect();
        EventCluster {
            shared,
            workers,
            link_counters: None,
        }
    }

    /// Attach shared [`uc_sim::LinkCounters`] (the same `Arc` handed
    /// to the protocol nodes, e.g. via `ReliableLink::with_counters`)
    /// so protocol-side retransmit/shed/heal tallies appear in
    /// [`EventCluster::metrics`].
    pub fn attach_link_counters(&mut self, counters: Arc<uc_sim::LinkCounters>) {
        self.link_counters = Some(counters);
    }

    /// Number of nodes hosted.
    pub fn num_nodes(&self) -> usize {
        self.shared.nodes.len()
    }

    /// Number of worker threads.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// The first poisoned node's error, if any activation has panicked.
    pub fn poisoned(&self) -> Option<NodeError> {
        self.shared.poisoned()
    }

    /// Invoke an operation on `pid` and wait for its (local,
    /// wait-free) response; propagation is asynchronous. Parks while
    /// the node's mailbox is at the bound (ingress backpressure).
    ///
    /// # Panics
    ///
    /// If the node is poisoned; [`EventCluster::try_invoke`] returns
    /// the typed error instead.
    pub fn invoke(&self, pid: Pid, input: P::Input) -> P::Output {
        self.try_invoke(pid, input)
            .unwrap_or_else(|e| panic!("EventCluster::invoke: {e}"))
    }

    /// [`EventCluster::invoke`], surfacing a dead node as a
    /// [`NodeError`] instead of panicking.
    pub fn try_invoke(&self, pid: Pid, input: P::Input) -> Result<P::Output, NodeError> {
        let slot = &self.shared.nodes[pid as usize];
        if slot.dead.load(Ordering::Acquire) {
            return Err(self.shared.node_error(pid));
        }
        let (tx, rx) = channel();
        {
            let mut mb = slot.mailbox.lock().unwrap();
            while mb.len() >= self.shared.mailbox_depth {
                if slot.dead.load(Ordering::Acquire) {
                    return Err(self.shared.node_error(pid));
                }
                // Timed wait so a node poisoned while we park cannot
                // strand us (its purge notifies, but belt-and-braces).
                let (guard, _) = slot
                    .space
                    .wait_timeout(mb, Duration::from_millis(10))
                    .unwrap();
                mb = guard;
            }
            mb.push_back(Envelope::Invoke(input, tx));
        }
        if slot.dead.load(Ordering::Acquire) {
            self.shared.purge_mailbox(pid); // close the race; drops tx
        } else {
            self.shared.schedule(pid);
        }
        rx.recv().map_err(|_| self.shared.node_error(pid))
    }

    /// Block until every sent message has been processed (flush-window
    /// parked deliveries included — idle workers wake on the window's
    /// timer). A configured maintenance sweep may fire again after
    /// quiescence; quiescence is about *messages*, not timers.
    ///
    /// # Panics
    ///
    /// If any node is poisoned; [`EventCluster::try_quiesce`] returns
    /// the typed error instead.
    pub fn quiesce(&self) {
        self.try_quiesce()
            .unwrap_or_else(|e| panic!("EventCluster::quiesce: {e}"))
    }

    /// [`EventCluster::quiesce`], returning a [`NodeError`] instead of
    /// blocking forever when a node has panicked.
    pub fn try_quiesce(&self) -> Result<(), NodeError> {
        quiesce_spin(&self.shared.in_flight, || self.shared.poisoned())
    }

    /// Snapshot the shared metrics (plus any attached link counters
    /// and the lock-free hot-path tallies).
    pub fn metrics(&self) -> Metrics {
        let mut m = self.shared.metrics.lock().unwrap().clone();
        let hot = &self.shared.hot;
        m.messages_dropped_crashed += hot.messages_dropped_crashed.get();
        m.invocations += hot.invocations.get();
        if let Some(c) = &self.link_counters {
            c.fold_into(&mut m);
        }
        m
    }

    /// The cluster's lock-free counter registry (`uc_reactor_*`
    /// names). Cloning shares the underlying map, so callers can hand
    /// the same registry to an exporter, or register their own
    /// counters alongside the reactor's.
    pub fn obs_registry(&self) -> Registry {
        self.shared.hot.registry.clone()
    }

    /// Mirror this cluster's full [`Metrics`] (folded as in
    /// [`EventCluster::metrics`]) into `reg` under `uc_sim_*` names.
    pub fn export_metrics(&self, reg: &Registry) {
        self.metrics().export_into(reg);
    }

    /// Quiesce, stop the workers, and return the final node states.
    ///
    /// # Panics
    ///
    /// If any node is poisoned; [`EventCluster::try_shutdown`] returns
    /// the typed error instead.
    pub fn shutdown(self) -> Vec<P> {
        self.try_shutdown()
            .unwrap_or_else(|e| panic!("EventCluster::shutdown: {e}"))
    }

    /// [`EventCluster::shutdown`] with the typed error.
    pub fn try_shutdown(mut self) -> Result<Vec<P>, NodeError> {
        self.try_quiesce()?;
        self.stop_and_join();
        let mut out = Vec::with_capacity(self.shared.nodes.len());
        for (pid, slot) in self.shared.nodes.iter().enumerate() {
            match slot.state.lock().unwrap().take() {
                Some(node) => out.push(node),
                None => return Err(self.shared.node_error(pid as Pid)),
            }
        }
        Ok(out)
    }

    fn stop_and_join(&mut self) {
        // Under the ready lock: a worker reads `stop` under it just
        // before it parks, so the wake below cannot fall between that
        // read and the wait and leave the worker parked for good.
        {
            let _ready = self.shared.ready.lock().unwrap();
            self.shared.stop.store(true, Ordering::Release);
        }
        self.shared.ready_cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Drain-on-drop: queued deliveries are processed before the workers
/// exit (unless a poisoned node makes that impossible), mirroring the
/// ingest pool. After an explicit shutdown this is a no-op.
impl<P> Drop for EventCluster<P>
where
    P: Protocol + Send + 'static,
    P::Msg: Send,
    P::Input: Send,
    P::Output: Send,
{
    fn drop(&mut self) {
        if self.workers.is_empty() {
            return;
        }
        // Same stable-zero spin as try_quiesce; a poisoned node just
        // ends the drain early instead of erroring out of Drop.
        let _ = quiesce_spin(&self.shared.in_flight, || self.shared.poisoned());
        self.stop_and_join();
    }
}

impl<P> ClusterHarness<P> for EventCluster<P>
where
    P: Protocol + Send + 'static,
    P::Msg: Send,
    P::Input: Send,
    P::Output: Send,
{
    fn invoke(&mut self, pid: Pid, input: P::Input) -> P::Output {
        EventCluster::invoke(self, pid, input)
    }

    fn quiesce(&mut self) {
        EventCluster::quiesce(self);
    }

    fn metrics(&self) -> Metrics {
        EventCluster::metrics(self)
    }

    fn into_nodes(self) -> Vec<P> {
        self.shutdown()
    }
}
