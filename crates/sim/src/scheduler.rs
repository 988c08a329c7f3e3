//! The deterministic discrete-event simulator.
//!
//! Executions are driven by a priority queue of `(time, seq)`-ordered
//! events: application invocations, message deliveries, and crashes.
//! Identical seeds and schedules replay identically, which is what
//! lets failing adversarial interleavings be turned into regression
//! tests.
//!
//! Faithfulness to §VII-A's model:
//! * **asynchrony** — latency models put no useful bound on delays;
//! * **reliability** — the network [`Simulation::new`] builds never
//!   drops a message between live processes, and a [`Cut::Hold`]
//!   outage only delays it until the heal time. A [`Cut::Drop`]
//!   outage, or a [`Topology`] with lossy links, deliberately *breaks*
//!   this guarantee (the partitionable-systems model); the `reliable`
//!   module restores eventual delivery on top via retransmission;
//! * **crash faults** — a crashed process silently stops processing
//!   invocations and deliveries; messages it sent before crashing are
//!   still delivered ("a faulty process simply stops operating");
//! * **wait-freedom** — invocations complete synchronously at the
//!   invoking process; nothing ever blocks on another process.
//!
//! [`Cut::Hold`]: crate::topology::Cut::Hold
//! [`Cut::Drop`]: crate::topology::Cut::Drop

use crate::metrics::{LinkCounters, Metrics};
use crate::network::{DeliveryMode, LatencyModel};
use crate::process::{Ctx, Pid, Protocol};
use crate::rng::SplitMix64;
use crate::topology::{LinkModel, Topology};
use crate::trace::InvocationRecord;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Payload-size estimator installed via [`Simulation::set_msg_size`].
type MsgSizer<M> = Box<dyn Fn(&M) -> u64>;

/// Simulator configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Number of processes.
    pub n: usize,
    /// RNG seed; equal seeds replay equal executions.
    pub seed: u64,
    /// Latency of every link of the network [`Simulation::new`]
    /// builds.
    pub latency: LatencyModel,
    /// Enforce per-link FIFO delivery on every link, including those
    /// of a [`Simulation::set_topology`] network: no copy is delivered
    /// before one sent earlier on its link. Best-effort across held
    /// cuts; Algorithm 1 never needs it, pipelined-consistency
    /// experiments do and run without partitions.
    pub fifo_links: bool,
}

impl SimConfig {
    /// A convenient asynchronous default: uniform 5–50 time-unit
    /// latency, FIFO links.
    pub fn default_async(n: usize, seed: u64) -> Self {
        SimConfig {
            n,
            seed,
            latency: LatencyModel::Uniform(5, 50),
            fifo_links: true,
        }
    }
}

enum Action<P: Protocol> {
    Invoke(P::Input),
    Deliver { from: Pid, msg: P::Msg },
    Crash,
    Tick,
}

struct Scheduled<P: Protocol> {
    time: u64,
    seq: u64,
    pid: Pid,
    action: Action<P>,
}

impl<P: Protocol> PartialEq for Scheduled<P> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<P: Protocol> Eq for Scheduled<P> {}
impl<P: Protocol> PartialOrd for Scheduled<P> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<P: Protocol> Ord for Scheduled<P> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A deterministic simulation of `n` processes running protocol `P`.
pub struct Simulation<P: Protocol> {
    cfg: SimConfig,
    procs: Vec<P>,
    crashed: Vec<bool>,
    heap: BinaryHeap<Scheduled<P>>,
    seq: u64,
    now: u64,
    rng: SplitMix64,
    /// Execution accounting.
    pub metrics: Metrics,
    records: Vec<InvocationRecord<P>>,
    /// Last scheduled delivery time per directed link (FIFO).
    link_last: Vec<u64>,
    msg_size: Option<MsgSizer<P::Msg>>,
    delivery: DeliveryMode,
    /// The network: link models and outage windows.
    topology: Topology,
    /// Protocol-side counters folded into harness metrics.
    link_counters: Option<std::sync::Arc<LinkCounters>>,
}

impl<P: Protocol> Simulation<P> {
    /// Create a simulation; `make(pid)` builds each process.
    pub fn new(cfg: SimConfig, mut make: impl FnMut(Pid) -> P) -> Self {
        let n = cfg.n;
        Simulation {
            procs: (0..n as Pid).map(&mut make).collect(),
            crashed: vec![false; n],
            heap: BinaryHeap::new(),
            seq: 0,
            now: 0,
            rng: SplitMix64::new(cfg.seed),
            metrics: Metrics::new(n),
            records: Vec::new(),
            link_last: vec![0; n * n],
            msg_size: None,
            delivery: DeliveryMode::PerMessage,
            topology: Topology::uniform(
                n,
                LinkModel {
                    latency: cfg.latency.clone(),
                    ..LinkModel::default()
                },
            ),
            link_counters: None,
            cfg,
        }
    }

    /// Attach shared [`LinkCounters`] (the same `Arc` handed to
    /// protocol nodes, e.g. via `ReliableLink::with_counters`) so
    /// protocol-side retransmit/shed/heal tallies appear in
    /// [`ClusterHarness::metrics`](crate::harness::ClusterHarness::metrics).
    pub fn attach_link_counters(&mut self, counters: std::sync::Arc<LinkCounters>) {
        self.link_counters = Some(counters);
    }

    /// Attached link counters, if any (used by the harness impl).
    pub(crate) fn link_counters(&self) -> Option<&std::sync::Arc<LinkCounters>> {
        self.link_counters.as_ref()
    }

    /// Replace the network whole, its outages included. Loss draws and
    /// [`Cut::Drop`] outages **drop** messages (counted in
    /// `metrics.messages_dropped`), duplication schedules extra copies
    /// (`messages_duplicated`), and [`Cut::Hold`] outages delay them
    /// (`messages_delayed_by_partition`). `fifo_links` still governs
    /// every link.
    ///
    /// [`Cut::Hold`]: crate::topology::Cut::Hold
    /// [`Cut::Drop`]: crate::topology::Cut::Drop
    ///
    /// # Panics
    ///
    /// If the topology was built for a different cluster size.
    pub fn set_topology(&mut self, topology: Topology) {
        assert_eq!(
            topology.n(),
            self.cfg.n,
            "topology size must match the cluster"
        );
        self.topology = topology;
    }

    /// The network, to add outages or override links in place.
    pub fn topology_mut(&mut self) -> &mut Topology {
        &mut self.topology
    }

    /// Choose how deliveries reach processes: per message (default) or
    /// coalesced into [`Protocol::on_batch`] flushes on a time grid
    /// (see [`DeliveryMode`]). Batching aligns delivery times, so set
    /// it before scheduling work.
    ///
    /// # Panics
    ///
    /// If the mode is `Batched` with a zero window — rejected here so
    /// the error points at the misconfiguration, not at the first
    /// message send.
    pub fn set_delivery_mode(&mut self, mode: DeliveryMode) {
        if let DeliveryMode::Batched { window } = mode {
            assert!(window > 0, "batch window must be positive");
        }
        self.delivery = mode;
    }

    /// Install a payload-size estimator for byte accounting (E7).
    pub fn set_msg_size(&mut self, f: impl Fn(&P::Msg) -> u64 + 'static) {
        self.msg_size = Some(Box::new(f));
    }

    /// Current simulated time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Immutable process access.
    pub fn process(&self, pid: Pid) -> &P {
        &self.procs[pid as usize]
    }

    /// Mutable process access (e.g. to query replica state directly).
    pub fn process_mut(&mut self, pid: Pid) -> &mut P {
        &mut self.procs[pid as usize]
    }

    /// Has `pid` crashed?
    pub fn is_crashed(&self, pid: Pid) -> bool {
        self.crashed[pid as usize]
    }

    /// The recorded invocations (time, pid, input, output).
    pub fn records(&self) -> &[InvocationRecord<P>] {
        &self.records
    }

    /// Consume the simulation, returning the processes.
    pub fn into_processes(self) -> Vec<P> {
        self.procs
    }

    fn push(&mut self, time: u64, pid: Pid, action: Action<P>) {
        let seq = self.seq;
        self.seq += 1;
        self.push_with_seq(time, pid, action, seq);
    }

    /// Re-enqueue with an already-assigned sequence number. Used by
    /// partition retries: keeping the message's *original* seq keeps
    /// same-instant tie-breaking in send order, so a delayed message
    /// that ends up colliding with a later one on the same link is
    /// still handed over first.
    fn push_with_seq(&mut self, time: u64, pid: Pid, action: Action<P>, seq: u64) {
        self.heap.push(Scheduled {
            time,
            seq,
            pid,
            action,
        });
    }

    /// Schedule an application invocation at absolute time `t`.
    pub fn schedule_invoke(&mut self, t: u64, pid: Pid, input: P::Input) {
        assert!(t >= self.now, "cannot schedule in the past");
        self.push(t, pid, Action::Invoke(input));
    }

    /// Schedule a crash at absolute time `t`.
    pub fn schedule_crash(&mut self, t: u64, pid: Pid) {
        assert!(t >= self.now, "cannot schedule in the past");
        self.push(t, pid, Action::Crash);
    }

    /// Schedule periodic ticks for **every** process at `interval`,
    /// `2*interval`, … up to and including `until`.
    pub fn schedule_ticks(&mut self, interval: u64, until: u64) {
        assert!(interval > 0, "tick interval must be positive");
        let mut t = self.now.max(1).next_multiple_of(interval);
        while t <= until {
            for pid in 0..self.cfg.n as Pid {
                self.push(t, pid, Action::Tick);
            }
            t += interval;
        }
    }

    /// Invoke `pid` synchronously at the current time, returning the
    /// output (or `None` if the process has crashed).
    pub fn invoke_now(&mut self, pid: Pid, input: P::Input) -> Option<P::Output> {
        if self.crashed[pid as usize] {
            self.metrics.on_invocation_crashed();
            return None;
        }
        Some(self.do_invoke(pid, input))
    }

    fn do_invoke(&mut self, pid: Pid, input: P::Input) -> P::Output {
        let mut outbox = Vec::new();
        let output = {
            let mut ctx = Ctx::new(pid, self.cfg.n, self.now, &mut outbox);
            self.procs[pid as usize].on_invoke(input.clone(), &mut ctx)
        };
        self.metrics.on_invocation();
        self.records.push(InvocationRecord {
            time: self.now,
            pid,
            input,
            output: output.clone(),
        });
        self.dispatch(pid, outbox);
        output
    }

    fn do_tick(&mut self, pid: Pid) {
        let mut outbox = Vec::new();
        {
            let mut ctx = Ctx::new(pid, self.cfg.n, self.now, &mut outbox);
            self.procs[pid as usize].on_tick(&mut ctx);
        }
        self.dispatch(pid, outbox);
    }

    fn dispatch(&mut self, from: Pid, outbox: Vec<(Pid, P::Msg)>) {
        for (to, msg) in outbox {
            let size = self.msg_size.as_ref().map_or(0, |f| f(&msg));
            self.metrics.on_send(from, size);
            let Some((mut delay, duplicate)) =
                self.topology.plan(from, to, self.now, &mut self.rng)
            else {
                self.metrics.on_dropped(1);
                continue;
            };
            if let Some(d) = duplicate {
                self.metrics.on_duplicated(1);
                let t = self.arrival(from, to, delay);
                let copy = msg.clone();
                self.push(t, to, Action::Deliver { from, msg: copy });
                delay = d;
            }
            let t = self.arrival(from, to, delay);
            self.push(t, to, Action::Deliver { from, msg });
        }
    }

    /// Delivery time of a copy sent now on `from → to` after `delay`:
    /// no earlier than the link's last copy when `fifo_links` is on,
    /// then aligned to the flush grid (alignment is monotone, so FIFO
    /// order survives it).
    fn arrival(&mut self, from: Pid, to: Pid, delay: u64) -> u64 {
        let mut t = self.now + delay;
        if self.cfg.fifo_links {
            let link = from as usize * self.cfg.n + to as usize;
            t = t.max(self.link_last[link]);
            self.link_last[link] = t;
        }
        self.delivery.align(t)
    }

    /// Run until no events remain; returns the final time. Because held
    /// cuts heal and dropped messages are gone, quiescence is reached
    /// once all scheduled invocations and the messages they triggered
    /// have been processed.
    pub fn run_to_quiescence(&mut self) -> u64 {
        while self.step() {}
        self.now
    }

    /// Run while events at time ≤ `deadline` exist.
    pub fn run_until(&mut self, deadline: u64) {
        while let Some(head) = self.heap.peek() {
            if head.time > deadline {
                break;
            }
            self.step();
        }
        self.now = self.now.max(deadline);
    }

    /// Process one event; `false` when the queue is empty. In batched
    /// delivery mode, one step drains an entire flush instant instead.
    pub fn step(&mut self) -> bool {
        if self.delivery.is_batched() {
            return self.step_batched();
        }
        let Some(ev) = self.heap.pop() else {
            return false;
        };
        debug_assert!(ev.time >= self.now, "time went backwards");
        self.now = ev.time;
        match ev.action {
            Action::Crash => {
                self.crashed[ev.pid as usize] = true;
            }
            Action::Invoke(input) => {
                if self.crashed[ev.pid as usize] {
                    self.metrics.on_invocation_crashed();
                } else {
                    self.do_invoke(ev.pid, input);
                }
            }
            Action::Tick => {
                if !self.crashed[ev.pid as usize] {
                    self.do_tick(ev.pid);
                }
            }
            Action::Deliver { from, msg } => {
                if self.crashed[ev.pid as usize] {
                    self.metrics.on_dropped_crashed(1);
                } else if let Some(open) = self.topology.next_open(from, ev.pid, self.now) {
                    // A held cut delays, never drops.
                    self.metrics.on_delayed_partition(1);
                    self.push_with_seq(open, ev.pid, Action::Deliver { from, msg }, ev.seq);
                } else {
                    let mut outbox = Vec::new();
                    {
                        let mut ctx = Ctx::new(ev.pid, self.cfg.n, self.now, &mut outbox);
                        self.procs[ev.pid as usize].on_message(from, msg, &mut ctx);
                    }
                    self.metrics.on_delivery(ev.pid, 1);
                    self.dispatch(ev.pid, outbox);
                }
            }
        }
        true
    }

    /// Batched step: drain every event scheduled at the head instant,
    /// run control events (crashes, invocations) in schedule order,
    /// then flush each process's accumulated messages as **one**
    /// [`Protocol::on_batch`] activation. Delivery times were aligned
    /// to the flush grid at dispatch, so a burst of in-flight traffic
    /// to a process lands in a single activation — the condition under
    /// which batching-aware replicas repair their state once per
    /// flush instead of once per message.
    fn step_batched(&mut self) -> bool {
        let Some(head) = self.heap.peek() else {
            return false;
        };
        let t = head.time;
        debug_assert!(t >= self.now, "time went backwards");
        self.now = t;
        let n = self.cfg.n;
        // One flat buffer of (seq, dest, from, msg) instead of n
        // per-destination vecs: a single-message instant costs one
        // small allocation, not n. `control` stays empty (and
        // allocation-free) unless the instant carries crashes or
        // invocations.
        let mut control: Vec<(Pid, Action<P>)> = Vec::new();
        let mut delivers: Vec<(u64, Pid, Pid, P::Msg)> = Vec::new();
        while self.heap.peek().is_some_and(|h| h.time == t) {
            let ev = self.heap.pop().expect("peeked");
            match ev.action {
                Action::Deliver { from, msg } => {
                    if self.crashed[ev.pid as usize] {
                        self.metrics.on_dropped_crashed(1);
                    } else if let Some(open) = self.topology.next_open(from, ev.pid, t) {
                        // A held cut delays, never drops; the retry
                        // keeps to the flush grid and keeps its
                        // original seq so send order still breaks
                        // same-instant ties after the heal.
                        self.metrics.on_delayed_partition(1);
                        let open = self.delivery.align(open);
                        self.push_with_seq(open, ev.pid, Action::Deliver { from, msg }, ev.seq);
                    } else {
                        delivers.push((ev.seq, ev.pid, from, msg));
                    }
                }
                action => control.push((ev.pid, action)),
            }
        }
        for (pid, action) in control {
            match action {
                Action::Crash => self.crashed[pid as usize] = true,
                Action::Invoke(input) => {
                    if self.crashed[pid as usize] {
                        self.metrics.on_invocation_crashed();
                    } else {
                        self.do_invoke(pid, input);
                    }
                }
                Action::Tick => {
                    if !self.crashed[pid as usize] {
                        self.do_tick(pid);
                    }
                }
                Action::Deliver { .. } => unreachable!("delivers routed to the flush buffer"),
            }
        }
        // Group by destination; within a destination, hand messages
        // over in send (seq) order so per-link FIFO survives flushing.
        delivers.sort_unstable_by_key(|(seq, dest, _, _)| (*dest, *seq));
        let mut iter = delivers.into_iter().peekable();
        while let Some((_, dest, from, msg)) = iter.next() {
            let mut batch = vec![(from, msg)];
            while let Some((_, _, f, m)) = iter.next_if(|(_, d, _, _)| *d == dest) {
                batch.push((f, m));
            }
            let run = batch.len() as u64;
            if self.crashed[dest as usize] {
                // Crashed by a same-instant control event.
                self.metrics.on_dropped_crashed(run);
                continue;
            }
            let mut outbox = Vec::new();
            {
                let mut ctx = Ctx::new(dest, n, self.now, &mut outbox);
                self.procs[dest as usize].on_batch(batch, &mut ctx);
            }
            self.metrics.on_delivery(dest, run);
            self.dispatch(dest, outbox);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Cut;

    /// A toy protocol: every invocation broadcasts a ping; processes
    /// count pings received.
    #[derive(Debug, Default)]
    struct Ping {
        received: Vec<Pid>,
    }

    impl Protocol for Ping {
        type Msg = ();
        type Input = ();
        type Output = usize;

        fn on_invoke(&mut self, _input: (), ctx: &mut Ctx<'_, ()>) -> usize {
            ctx.broadcast_others(());
            self.received.len()
        }

        fn on_message(&mut self, from: Pid, _msg: (), _ctx: &mut Ctx<'_, ()>) {
            self.received.push(from);
        }
    }

    fn cfg(n: usize) -> SimConfig {
        SimConfig {
            n,
            seed: 1,
            latency: LatencyModel::Uniform(1, 10),
            fifo_links: true,
        }
    }

    #[test]
    fn broadcast_reaches_all_live_processes() {
        let mut sim = Simulation::new(cfg(4), |_| Ping::default());
        sim.schedule_invoke(0, 0, ());
        sim.run_to_quiescence();
        for pid in 1..4 {
            assert_eq!(sim.process(pid).received, vec![0]);
        }
        assert_eq!(sim.metrics.messages_sent, 3);
        assert_eq!(sim.metrics.messages_delivered, 3);
    }

    #[test]
    fn identical_seeds_replay_identically() {
        let run = |seed: u64| {
            let mut c = cfg(3);
            c.seed = seed;
            let mut sim = Simulation::new(c, |_| Ping::default());
            for t in 0..10 {
                sim.schedule_invoke(t * 3, (t % 3) as Pid, ());
            }
            sim.run_to_quiescence();
            (
                sim.now(),
                sim.metrics.clone(),
                (0..3)
                    .map(|p| sim.process(p).received.clone())
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).2, run(8).2); // different interleavings
    }

    #[test]
    fn crashed_process_goes_silent() {
        let mut sim = Simulation::new(cfg(3), |_| Ping::default());
        sim.schedule_crash(5, 2);
        sim.schedule_invoke(10, 0, ()); // after the crash
        sim.run_to_quiescence();
        assert!(sim.is_crashed(2));
        assert_eq!(sim.process(2).received.len(), 0);
        assert_eq!(sim.metrics.messages_dropped_crashed, 1);
        // Invocations on the crashed process are ignored.
        sim.schedule_invoke(sim.now(), 2, ());
        sim.run_to_quiescence();
        assert_eq!(sim.metrics.invocations_on_crashed, 1);
    }

    #[test]
    fn messages_sent_before_crash_still_delivered() {
        let mut sim = Simulation::new(cfg(2), |_| Ping::default());
        sim.schedule_invoke(0, 0, ());
        sim.schedule_crash(0, 0); // crash scheduled same instant, after invoke (seq order)
        sim.run_to_quiescence();
        assert_eq!(sim.process(1).received, vec![0]);
    }

    #[test]
    fn partitions_delay_but_never_drop() {
        let mut c = cfg(2);
        c.latency = LatencyModel::Constant(1);
        let mut sim = Simulation::new(c, |_| Ping::default());
        sim.topology_mut()
            .partition(vec![vec![0], vec![1]], 0, 100, Cut::Hold);
        sim.schedule_invoke(0, 0, ());
        sim.run_to_quiescence();
        assert_eq!(sim.process(1).received, vec![0]);
        assert!(sim.now() >= 100, "delivered only after heal");
        assert_eq!(sim.metrics.messages_delayed_by_partition, 1);
    }

    #[test]
    fn invoke_now_returns_output() {
        let mut sim = Simulation::new(cfg(2), |_| Ping::default());
        assert_eq!(sim.invoke_now(0, ()), Some(0));
        sim.run_to_quiescence();
        assert_eq!(sim.invoke_now(1, ()), Some(1)); // received one ping
        sim.schedule_crash(sim.now(), 1);
        sim.run_to_quiescence();
        assert_eq!(sim.invoke_now(1, ()), None);
    }

    #[test]
    fn records_capture_invocations() {
        let mut sim = Simulation::new(cfg(2), |_| Ping::default());
        sim.schedule_invoke(4, 1, ());
        sim.run_to_quiescence();
        let recs = sim.records();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].pid, 1);
        assert_eq!(recs[0].time, 4);
    }

    /// Like `Ping`, but also counts activations, so tests can tell one
    /// batch of k messages from k single deliveries.
    #[derive(Debug, Default)]
    struct BatchPing {
        received: Vec<Pid>,
        activations: u64,
    }

    impl Protocol for BatchPing {
        type Msg = ();
        type Input = ();
        type Output = usize;

        fn on_invoke(&mut self, _input: (), ctx: &mut Ctx<'_, ()>) -> usize {
            ctx.broadcast_others(());
            self.received.len()
        }

        fn on_message(&mut self, from: Pid, _msg: (), _ctx: &mut Ctx<'_, ()>) {
            self.received.push(from);
        }

        fn on_batch(&mut self, msgs: Vec<(Pid, ())>, ctx: &mut Ctx<'_, ()>) {
            self.activations += 1;
            for (from, msg) in msgs {
                self.on_message(from, msg, ctx);
            }
        }
    }

    #[test]
    fn batched_mode_coalesces_same_window_deliveries() {
        let mut c = cfg(3);
        c.latency = LatencyModel::Uniform(1, 9);
        let mut sim = Simulation::new(c, |_| BatchPing::default());
        sim.set_delivery_mode(crate::network::DeliveryMode::Batched { window: 10 });
        // Two broadcasts in the same window: both messages to each
        // peer land at t=10 and must flush as one activation.
        sim.schedule_invoke(0, 0, ());
        sim.schedule_invoke(1, 0, ());
        sim.run_to_quiescence();
        for pid in 1..3 {
            assert_eq!(sim.process(pid).received, vec![0, 0]);
            assert_eq!(sim.process(pid).activations, 1, "pid {pid}");
        }
        assert_eq!(sim.metrics.messages_delivered, 4);
        assert_eq!(sim.metrics.batches_delivered, 2);
        assert_eq!(sim.now(), 10);
    }

    #[test]
    fn batched_mode_delivers_everything_per_message_mode_does() {
        let run = |mode: Option<u64>| {
            let mut c = cfg(4);
            c.seed = 11;
            let mut sim = Simulation::new(c, |_| BatchPing::default());
            if let Some(window) = mode {
                sim.set_delivery_mode(crate::network::DeliveryMode::Batched { window });
            }
            for t in 0..20 {
                sim.schedule_invoke(t, (t % 4) as Pid, ());
            }
            sim.run_to_quiescence();
            (0..4)
                .map(|p| {
                    let mut r = sim.process(p).received.clone();
                    r.sort_unstable();
                    r
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(None), run(Some(25)));
    }

    #[test]
    fn batched_mode_respects_partitions_and_crashes() {
        let mut c = cfg(2);
        c.latency = LatencyModel::Constant(1);
        let mut sim = Simulation::new(c, |_| BatchPing::default());
        sim.set_delivery_mode(crate::network::DeliveryMode::Batched { window: 5 });
        sim.topology_mut()
            .partition(vec![vec![0], vec![1]], 0, 17, Cut::Hold);
        sim.schedule_invoke(0, 0, ());
        sim.run_to_quiescence();
        // Held until the heal at 17, then flushed on the grid at 20.
        assert_eq!(sim.process(1).received, vec![0]);
        assert_eq!(sim.now(), 20);
        assert_eq!(sim.metrics.messages_delayed_by_partition, 1);

        // A crash scheduled in the same window silences the victim.
        let mut c = cfg(2);
        c.latency = LatencyModel::Constant(1);
        let mut sim = Simulation::new(c, |_| BatchPing::default());
        sim.set_delivery_mode(crate::network::DeliveryMode::Batched { window: 5 });
        sim.schedule_invoke(0, 0, ());
        sim.schedule_crash(5, 1); // same instant as the flush
        sim.run_to_quiescence();
        assert_eq!(sim.process(1).received, Vec::<Pid>::new());
        assert_eq!(sim.metrics.messages_dropped_crashed, 1);
    }

    /// Records message payloads in arrival order (to observe FIFO).
    #[derive(Debug, Default)]
    struct Recorder {
        received: Vec<u32>,
    }

    impl Protocol for Recorder {
        type Msg = u32;
        type Input = u32;
        type Output = ();

        fn on_invoke(&mut self, x: u32, ctx: &mut Ctx<'_, u32>) {
            ctx.broadcast_others(x);
        }

        fn on_message(&mut self, _from: Pid, x: u32, _ctx: &mut Ctx<'_, u32>) {
            self.received.push(x);
        }
    }

    #[test]
    fn fifo_links_preserve_send_order() {
        // Uniform(1, 100) latency on twenty sends one unit apart would
        // reorder most of them; FIFO links must not, on the network
        // `Simulation::new` builds or on an installed topology.
        let run = |topology: bool| {
            let mut c = cfg(2);
            c.latency = LatencyModel::Uniform(1, 100);
            c.seed = 3;
            let mut sim = Simulation::new(c, |_| Recorder::default());
            if topology {
                let link = LinkModel {
                    latency: LatencyModel::Uniform(1, 100),
                    reorder: 0,
                    ..LinkModel::default()
                };
                sim.set_topology(Topology::uniform(2, link));
            }
            for x in 0..20 {
                sim.schedule_invoke(u64::from(x), 0, x);
            }
            sim.run_to_quiescence();
            sim.process(1).received.clone()
        };
        let sent: Vec<u32> = (0..20).collect();
        assert_eq!(run(false), sent);
        assert_eq!(run(true), sent);
    }

    #[test]
    fn batched_flush_preserves_fifo_across_partition_retry() {
        // m1 (sent t=0) is blocked by a partition and heals onto the
        // same flush instant as m2 (sent t=8): the batch must still
        // unbundle in send order [1, 2], exactly as per-message mode
        // delivers them.
        let run = |batched: bool| {
            let mut c = cfg(2);
            c.latency = LatencyModel::Constant(5);
            let mut sim = Simulation::new(c, |_| Recorder::default());
            if batched {
                sim.set_delivery_mode(crate::network::DeliveryMode::Batched { window: 10 });
            }
            sim.topology_mut()
                .partition(vec![vec![0], vec![1]], 0, 17, Cut::Hold);
            sim.schedule_invoke(0, 0, 1);
            sim.schedule_invoke(8, 0, 2);
            sim.run_to_quiescence();
            sim.process(1).received.clone()
        };
        assert_eq!(run(false), vec![1, 2]);
        assert_eq!(run(true), vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "batch window must be positive")]
    fn zero_batch_window_rejected_at_configuration() {
        let mut sim = Simulation::new(cfg(2), |_| Ping::default());
        sim.set_delivery_mode(crate::network::DeliveryMode::Batched { window: 0 });
    }

    #[test]
    fn byte_accounting_uses_estimator() {
        let mut sim = Simulation::new(cfg(3), |_| Ping::default());
        sim.set_msg_size(|_| 21);
        sim.schedule_invoke(0, 0, ());
        sim.run_to_quiescence();
        assert_eq!(sim.metrics.bytes_sent, 42);
    }

    /// Counts on_tick activations.
    #[derive(Debug, Default)]
    struct Ticker {
        ticks: Vec<u64>,
    }

    impl Protocol for Ticker {
        type Msg = ();
        type Input = ();
        type Output = ();

        fn on_invoke(&mut self, _input: (), _ctx: &mut Ctx<'_, ()>) {}

        fn on_message(&mut self, _from: Pid, _msg: (), _ctx: &mut Ctx<'_, ()>) {}

        fn on_tick(&mut self, ctx: &mut Ctx<'_, ()>) {
            self.ticks.push(ctx.now());
        }
    }

    #[test]
    fn scheduled_ticks_fire_on_the_grid_and_skip_crashed() {
        let mut sim = Simulation::new(cfg(2), |_| Ticker::default());
        sim.schedule_ticks(10, 35);
        sim.schedule_crash(15, 1);
        sim.run_to_quiescence();
        assert_eq!(sim.process(0).ticks, vec![10, 20, 30]);
        assert_eq!(sim.process(1).ticks, vec![10], "crashed at 15");
    }

    #[test]
    fn ticks_fire_in_batched_mode_too() {
        let mut sim = Simulation::new(cfg(2), |_| Ticker::default());
        sim.set_delivery_mode(crate::network::DeliveryMode::Batched { window: 7 });
        sim.schedule_ticks(10, 20);
        sim.run_to_quiescence();
        assert_eq!(sim.process(0).ticks, vec![10, 20]);
    }

    #[test]
    fn topology_loss_drops_and_counts() {
        let mut sim = Simulation::new(cfg(2), |_| Ping::default());
        sim.set_topology(Topology::uniform(
            2,
            LinkModel::lossy(LatencyModel::Constant(1), 1.0),
        ));
        sim.schedule_invoke(0, 0, ());
        sim.run_to_quiescence();
        assert_eq!(sim.process(1).received.len(), 0, "total loss");
        assert_eq!(sim.metrics.messages_sent, 1);
        assert_eq!(sim.metrics.messages_dropped, 1);
        assert_eq!(sim.metrics.messages_delivered, 0);
    }

    #[test]
    fn topology_duplication_delivers_twice_and_counts() {
        let mut sim = Simulation::new(cfg(2), |_| Ping::default());
        let model = LinkModel {
            duplicate: 1.0,
            ..LinkModel::default()
        };
        sim.set_topology(Topology::uniform(2, model));
        sim.schedule_invoke(0, 0, ());
        sim.run_to_quiescence();
        assert_eq!(sim.process(1).received, vec![0, 0]);
        assert_eq!(sim.metrics.messages_duplicated, 1);
    }

    #[test]
    fn topology_outage_drops_until_heal() {
        let mut c = cfg(2);
        c.latency = LatencyModel::Constant(1);
        let mut sim = Simulation::new(c, |_| Ping::default());
        // `set_topology` replaces the network whole: this hold goes.
        sim.topology_mut()
            .partition(vec![vec![0], vec![1]], 0, 1_000, Cut::Hold);
        let mut topo = Topology::uniform(2, LinkModel::default());
        topo.partition(vec![vec![0], vec![1]], 0, 100, Cut::Drop);
        sim.set_topology(topo);
        sim.schedule_invoke(10, 0, ()); // inside the outage: dropped
        sim.schedule_invoke(150, 0, ()); // after heal: delivered
        sim.run_to_quiescence();
        assert_eq!(sim.process(1).received, vec![0]);
        assert_eq!(sim.metrics.messages_dropped, 1);
        assert_eq!(sim.metrics.messages_delayed_by_partition, 0);
        assert_eq!(sim.now(), 151);
    }

    #[test]
    fn topology_replays_identically_per_seed() {
        let run = |seed: u64| {
            let mut c = cfg(3);
            c.seed = seed;
            c.fifo_links = false;
            let mut sim = Simulation::new(c, |_| Ping::default());
            let model = LinkModel {
                latency: LatencyModel::Uniform(1, 20),
                loss: 0.3,
                duplicate: 0.2,
                reorder: 15,
            };
            sim.set_topology(Topology::uniform(3, model));
            for t in 0..30 {
                sim.schedule_invoke(t, (t % 3) as Pid, ());
            }
            sim.run_to_quiescence();
            (sim.metrics.clone(), sim.now())
        };
        assert_eq!(run(9), run(9));
    }
}
