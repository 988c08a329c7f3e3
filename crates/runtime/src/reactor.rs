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
//!   │            ready list (FIFO)   ◀── maintenance sweep (one     │
//!   │                  │                  periodic deadline)        │
//!   │      ┌───────────┼───────────┐                                │
//!   │      ▼           ▼           ▼                                │
//!   │  worker 0    worker 1 …  worker W-1     (cooperative: drain   │
//!   │                                          every queued message │
//!   └──────────────────────────────────────── into one on_batch) ──┘
//! ```
//!
//! * **Scheduling** — a delivery or invoke puts its node on the ready
//!   list exactly once (its `scheduled` flag makes enqueueing
//!   idempotent); a free worker pops it, drains every contiguous
//!   queued delivery into **one** [`Protocol::on_batch`] activation (a
//!   greedy drain, so batching-aware replicas repair once per burst),
//!   runs it, and re-queues the node if more arrived meanwhile. Nodes
//!   never block each other: an activation runs to completion and
//!   yields.
//! * **Clock and maintenance** — the reactor's clock counts 1 ms ticks
//!   since spawn; it is the [`Ctx::now`] an activation reads (a
//!   maintenance tick reads the tick its sweep fired at). With
//!   [`RuntimeConfig::maintenance_interval`] set, one periodic
//!   deadline on that clock fires a *maintenance sweep*: a
//!   [`Protocol::on_tick`] on every node (GC heartbeats, per-key
//!   compaction, link retransmits) with no dedicated thread. Idle
//!   workers park until the next sweep, so an idle cluster burns no
//!   CPU.
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
//! [`ClusterHarness`] beside the simulator.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use uc_obs::{Counter, Registry};
use uc_sim::harness::{panic_message, quiesce_spin, PoisonTable};
use uc_sim::{ClusterHarness, Ctx, Metrics, NodeError, Pid, Protocol};

/// Length of one tick of the reactor's clock, the unit of
/// [`Ctx::now`] on an [`EventCluster`].
const TICK: Duration = Duration::from_millis(1);

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
    /// `Some(i)`: fire [`Protocol::on_tick`] on every node each `i`
    /// (GC heartbeats + compaction, with no dedicated thread),
    /// rounded down to whole 1 ms ticks, at least one.
    pub maintenance_interval: Option<Duration>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            workers: 0,
            mailbox_depth: 1024,
            maintenance_interval: None,
        }
    }
}

enum Envelope<P: Protocol> {
    Deliver(Pid, P::Msg),
    Invoke(P::Input, Sender<P::Output>),
    /// A maintenance tick, carrying the tick its sweep fired at.
    Tick(u64),
}

/// Everything one node owns.
struct NodeSlot<P: Protocol> {
    mailbox: Mutex<VecDeque<Envelope<P>>>,
    /// Signalled when the mailbox drains (parked invokers re-check).
    space: Condvar,
    /// True while the node sits on the ready list or runs; makes
    /// scheduling idempotent.
    scheduled: AtomicBool,
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
    Tick(u64),
    Batch(Vec<(Pid, P::Msg)>),
}

/// Hot-path tallies kept *off* the [`Metrics`] mutex. `deliver` runs
/// once per node-to-node message on every worker, so a mutex bump on
/// its dead-drop exit serialized the whole pool exactly when it was
/// busiest; these are single relaxed `fetch_add`s instead.
/// [`EventCluster::metrics`] folds them back into the cloned
/// [`Metrics`].
struct HotCounters {
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
            messages_dropped_crashed,
            invocations,
        }
    }
}

struct Shared<P: Protocol> {
    nodes: Vec<NodeSlot<P>>,
    ready: Mutex<VecDeque<Pid>>,
    ready_cv: Condvar,
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
    mailbox_depth: usize,
    /// Ticks between maintenance sweeps; `None` when none are
    /// configured, and workers never look at `next_sweep`.
    sweep_every: Option<u64>,
    /// Tick at which the next sweep is due. The worker whose
    /// compare-exchange moves it on is the one that fires the sweep.
    /// It guards no other data (the ticks travel through the mailbox
    /// locks), so every access is `Relaxed`.
    next_sweep: AtomicU64,
}

impl<P: Protocol> Shared<P> {
    /// Current tick of the reactor's clock.
    fn now_ticks(&self) -> u64 {
        (self.epoch.elapsed().as_nanos() / TICK.as_nanos()) as u64
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
        slot.mailbox
            .lock()
            .unwrap()
            .push_back(Envelope::Deliver(from, msg));
        if slot.dead.load(Ordering::Acquire) {
            // Poisoned between the check and the push: the purge may
            // have run before our message landed, so run it again.
            self.purge_mailbox(to);
            return;
        }
        self.schedule(to);
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

    /// Fire the maintenance sweep if it is due: re-arm it `every` ticks
    /// from now, then queue a tick on every live node that has none
    /// pending. Of the workers that find it due, only the one whose
    /// compare-exchange moves the deadline fires it.
    fn fire_due_sweep(&self, every: u64) {
        let now = self.now_ticks();
        let due = self.next_sweep.load(Ordering::Relaxed);
        if now < due {
            return;
        }
        let next = now.saturating_add(every);
        let claim =
            self.next_sweep
                .compare_exchange(due, next, Ordering::Relaxed, Ordering::Relaxed);
        if claim.is_err() {
            return; // another worker fired this sweep
        }
        for idx in 0..self.nodes.len() {
            let slot = &self.nodes[idx];
            if slot.dead.load(Ordering::Acquire) || slot.tick_pending.swap(true, Ordering::AcqRel) {
                continue; // dead, or last tick still queued
            }
            slot.mailbox.lock().unwrap().push_back(Envelope::Tick(now));
            self.schedule(idx as Pid);
        }
    }

    /// How long an idle worker may park before the next sweep is due.
    fn park_timeout(&self) -> Duration {
        let ticks = self
            .next_sweep
            .load(Ordering::Relaxed)
            .saturating_sub(self.now_ticks())
            .clamp(1, u32::MAX as u64);
        TICK * ticks as u32
    }

    /// Take one activation's worth of envelopes off `idx`'s mailbox:
    /// an invoke or a tick alone, or every contiguous delivery as one
    /// burst (mailbox order, so per-link FIFO is preserved).
    fn take_activation(&self, idx: Pid) -> Activation<P> {
        let slot = &self.nodes[idx as usize];
        let act = {
            let mut mb = slot.mailbox.lock().unwrap();
            match mb.pop_front() {
                None => Activation::Nothing,
                Some(Envelope::Invoke(input, reply)) => Activation::Invoke(input, reply),
                Some(Envelope::Tick(at)) => {
                    slot.tick_pending.store(false, Ordering::Release);
                    Activation::Tick(at)
                }
                Some(Envelope::Deliver(from, msg)) => {
                    let mut batch = vec![(from, msg)];
                    while let Some(Envelope::Deliver(..)) = mb.front() {
                        let Some(Envelope::Deliver(f, m)) = mb.pop_front() else {
                            unreachable!("front was a delivery");
                        };
                        batch.push((f, m));
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
            Activation::Tick(at) => {
                // A tick reads the tick its sweep fired at, so one
                // node's ticks are at least one interval apart.
                let mut outbox = Vec::new();
                let mut state = slot.state.lock().unwrap();
                let outcome = state.as_mut().map(|node| {
                    catch_unwind(AssertUnwindSafe(|| {
                        let mut ctx = Ctx::new(idx, n, at, &mut outbox);
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
        if let Some(every) = shared.sweep_every {
            shared.fire_due_sweep(every);
        }
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        let next = shared.ready.lock().unwrap().pop_front();
        match next {
            Some(idx) => shared.run_node(idx),
            None => {
                // Park until work arrives or the next sweep is due; an
                // idle cluster burns no CPU because every wake source —
                // schedule, stop — notifies the condvar, so an untimed
                // wait is safe when no sweep is configured.
                let guard = shared.ready.lock().unwrap();
                if shared.stop.load(Ordering::Acquire) {
                    return;
                }
                if guard.is_empty() {
                    // The returned guards drop immediately: the loop
                    // re-takes the lock to pop after any wakeup.
                    if shared.sweep_every.is_some() {
                        let timeout = shared.park_timeout();
                        drop(shared.ready_cv.wait_timeout(guard, timeout).unwrap());
                    } else {
                        drop(shared.ready_cv.wait(guard).unwrap());
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
    /// [`RuntimeConfig`] (a worker per available core up to 8,
    /// mailboxes of 1024, no maintenance sweep).
    pub fn spawn(n: usize, make: impl FnMut(Pid) -> P) -> Self {
        Self::with_config(RuntimeConfig::default(), n, make)
    }

    /// Spawn `n` nodes under an explicit [`RuntimeConfig`].
    ///
    /// # Panics
    ///
    /// On `n == 0` or a zero `mailbox_depth`.
    pub fn with_config(cfg: RuntimeConfig, n: usize, mut make: impl FnMut(Pid) -> P) -> Self {
        assert!(n >= 1, "a cluster needs at least one node");
        assert!(cfg.mailbox_depth >= 1, "a mailbox must hold something");
        let hw = std::thread::available_parallelism().map_or(1, |p| p.get());
        let workers = if cfg.workers == 0 {
            hw.min(8)
        } else {
            cfg.workers
        }
        .min(n)
        .max(1);
        let sweep_every = cfg
            .maintenance_interval
            .map(|d| (d.as_nanos() / TICK.as_nanos()).clamp(1, u64::MAX as u128) as u64);
        let shared = Arc::new(Shared {
            nodes: (0..n)
                .map(|pid| NodeSlot {
                    mailbox: Mutex::new(VecDeque::new()),
                    space: Condvar::new(),
                    scheduled: AtomicBool::new(false),
                    tick_pending: AtomicBool::new(false),
                    dead: AtomicBool::new(false),
                    state: Mutex::new(Some(make(pid as Pid))),
                })
                .collect(),
            ready: Mutex::new(VecDeque::new()),
            ready_cv: Condvar::new(),
            in_flight: AtomicI64::new(0),
            metrics: Mutex::new(Metrics::new(n)),
            hot: HotCounters::new(),
            poison: PoisonTable::new(n),
            stop: AtomicBool::new(false),
            epoch: Instant::now(),
            mailbox_depth: cfg.mailbox_depth,
            sweep_every,
            next_sweep: AtomicU64::new(sweep_every.unwrap_or(u64::MAX)),
        });
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

    /// Block until every sent message has been processed. A configured
    /// maintenance sweep may fire again after quiescence; quiescence is
    /// about *messages*, not the clock.
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
