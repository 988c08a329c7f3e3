//! Reliable delivery over lossy links: sequence-numbered per-peer
//! channels with retransmit timers, exponential backoff + jitter,
//! dedup on receive, and bounded retry queues that shed.
//!
//! [`ReliableLink<P>`] wraps any [`Protocol`] and restores the
//! eventual-delivery guarantee the paper assumes on top of a lossy
//! [`Topology`](crate::topology::Topology): every inner send is
//! wrapped in a [`LinkMsg::Data`] with a per-`(sender, peer)` sequence
//! number and kept in a bounded retry queue until the peer's
//! cumulative [`LinkMsg::Ack`] covers it. Retransmissions ride
//! [`Protocol::on_tick`] — the deterministic simulator's scheduled
//! ticks or `uc-runtime`'s maintenance sweep — so there are no
//! threads or timers of its own, and a seeded run replays exactly.
//!
//! Delivery to the inner protocol is **exactly-once and in sequence
//! order** per `(sender, peer)` channel: the receive side keeps a
//! contiguous floor plus a buffer of out-of-order arrivals and only
//! releases the contiguous run. Per-link FIFO is load-bearing, not a
//! nicety — stability tracking (`uc-core`'s `StableGc`) assumes a
//! sender's messages arrive in send order, so a heartbeat carrying a
//! high clock must not overtake a still-in-flight update with a lower
//! one (the compaction floor would silently reject the update on
//! arrival, diverging the replica forever).
//!
//! A receive activation — [`Protocol::on_batch`] with a delivery
//! round's frames, or [`Protocol::on_message`] with one; both run the
//! same routine — is taken in **one pass**. `Ack`s pop the acked
//! prefix of their retry queue as they are met. A `Data` that is next
//! in sequence, with nothing buffered behind it and no new shed
//! advertisement, only bumps the floor and releases its payload: that
//! is nearly every frame of a healthy link, and it never touches the
//! out-of-order buffer. Every other `Data` (a gap, a duplicate, a
//! `skip` that raises the floor, a frame that fills a gap) goes
//! through the buffer exactly as before, because that path is where
//! the ordering argument above lives and it is not the hot one. The
//! released payloads are handed to the inner protocol in arrival order
//! (sequence order per sender) inside one inner activation, one
//! `on_message` each — not the inner `on_batch`, which for `UcStore` is
//! the slower path on a round's scattered frames: a round of ~43
//! frames over many keys pays for `split_by_shard`'s per-shard bucket
//! vectors (~7 % slower), and the burst merge leaves each touched
//! log's buffer at its run's length, which took the peak RSS of the
//! end-to-end benchmark's `replicate-mem` workload from 30.4 to
//! 35.3 MiB. Then **one cumulative ack per sender** that contributed
//! a `Data` goes out, carrying that channel's floor: acks are per
//! activation, not per frame. A sender whose frames were all
//! duplicates is still acked, since a duplicate means its previous ack
//! was lost. A frame from a pid outside the cluster is dropped.
//!
//! The retry queue is bounded: when full, the *oldest* unacked entry
//! is shed and counted — delivery degrades observably instead of
//! memory growing without bound. A shed leaves a permanent gap in the
//! sequence space, so the sender advertises its highest shed sequence
//! (`LinkMsg::Data::skip`) on every subsequent transmission; the
//! receiver raises its floor past the abandoned gap (releasing any
//! buffered later arrivals, counting the skip in
//! [`LinkStats::gaps_skipped`]) and cumulative acks resume — both
//! sides stay bounded. Payloads lost to a shed are only recovered by
//! the store's reconciliation-on-heal layer, and only if the shed
//! window is covered by a `peer_down` watermark: **size `queue_cap`
//! to hold every message issued within the failure detector's
//! detection window**, because entries shed before the `PeerDown`
//! verdict fall outside the recorded watermark and neither layer
//! replays them. That window is all the contract covers: once the
//! verdict is in, the store sends a down peer no updates (its heal
//! delivers them) and one heartbeat, at the verdict, so at most one
//! frame more waits toward it than at the verdict.

use crate::metrics::LinkCounters;
use crate::process::{Ctx, Pid, Protocol};
use crate::rng::SplitMix64;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Retransmission policy. Every timeout is in the unit of
/// [`Ctx::now`]: virtual time in the simulator, 1 ms ticks on the
/// event runtime.
#[derive(Clone, Copy, Debug)]
pub struct RetryConfig {
    /// Initial retransmit timeout.
    pub base: u64,
    /// Backoff cap: timeout for attempt `a` is
    /// `min(base << a, max_backoff) + jitter`.
    pub max_backoff: u64,
    /// Maximum deterministic jitter added to each timeout (drawn from
    /// the link's own seeded RNG).
    pub jitter: u64,
    /// Per-peer unacked-entry bound; a send past the bound sheds the
    /// oldest pending entry (counted in `messages_dropped`).
    pub queue_cap: usize,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            base: 16,
            max_backoff: 1024,
            jitter: 7,
            queue_cap: 1024,
        }
    }
}

/// Wire format of the reliable layer.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum LinkMsg<M> {
    /// A sequence-numbered payload on the `(sender → receiver)`
    /// channel.
    Data {
        /// Channel sequence number, starting at 1.
        seq: u64,
        /// Shed advertisement: every sequence number `≤ skip` has been
        /// abandoned by the sender's bounded retry queue and will
        /// never be (re)transmitted again. The receiver may raise its
        /// contiguous floor to `skip` instead of waiting forever on
        /// the gap. `0` when nothing was ever shed.
        skip: u64,
        /// The inner protocol's message.
        payload: M,
    },
    /// Cumulative acknowledgement: every `Data` with `seq <= cum` on
    /// the reverse channel has been received.
    Ack {
        /// Highest contiguously received sequence number.
        cum: u64,
    },
}

/// Observable per-node tallies (mirrored into shared
/// [`LinkCounters`] when attached).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Retransmissions performed.
    pub retransmits: u64,
    /// Pending entries shed by the bounded retry queue.
    pub shed: u64,
    /// Duplicate payloads suppressed before the inner protocol.
    pub duplicates_suppressed: u64,
    /// Payloads handed to the inner protocol.
    pub delivered: u64,
    /// Sequence numbers this receiver skipped over because the peer
    /// shed them — payloads permanently lost to this channel (only
    /// reconciliation-on-heal can recover them).
    pub gaps_skipped: u64,
}

#[derive(Clone, Debug)]
struct Pending<M> {
    seq: u64,
    payload: M,
    next_retry: u64,
    attempt: u32,
}

#[derive(Clone, Debug)]
struct SendChannel<M> {
    next_seq: u64,
    /// Highest sequence number ever shed on this channel. Entries
    /// still queued all carry higher seqs (shedding pops the oldest),
    /// so advertising it on every `Data` tells the receiver the gap
    /// below is permanent.
    shed_floor: u64,
    unacked: VecDeque<Pending<M>>,
}

impl<M> Default for SendChannel<M> {
    fn default() -> Self {
        SendChannel {
            next_seq: 0,
            shed_floor: 0,
            unacked: VecDeque::new(),
        }
    }
}

#[derive(Clone, Debug)]
struct RecvChannel<M> {
    /// Every seq ≤ floor has been received (or abandoned by a shed
    /// advertisement) and released to the inner protocol.
    floor: u64,
    /// Out-of-order arrivals buffered above the floor, payload and
    /// all: they are released only once the run below them is
    /// contiguous, which is what makes delivery per-channel FIFO.
    ahead: BTreeMap<u64, M>,
}

impl<M> Default for RecvChannel<M> {
    fn default() -> Self {
        RecvChannel {
            floor: 0,
            ahead: BTreeMap::new(),
        }
    }
}

impl<M> RecvChannel<M> {
    /// Apply a shed advertisement: nothing at or below `skip` will
    /// ever be (re)transmitted again, so waiting on that gap would
    /// stall the channel forever. Buffered arrivals at or below the
    /// skip point are released in order first, then the floor jumps
    /// the gap and the contiguous run above it drains. Returns how
    /// many sequence numbers were abandoned without ever arriving.
    fn skip_to(&mut self, skip: u64, from: Pid, ready: &mut Vec<(Pid, M)>) -> u64 {
        if skip <= self.floor {
            return 0;
        }
        let mut buffered = 0u64;
        while let Some(e) = self.ahead.first_entry() {
            if *e.key() > skip {
                break;
            }
            buffered += 1;
            ready.push((from, e.remove()));
        }
        let skipped = (skip - self.floor) - buffered;
        self.floor = skip;
        self.drain_run(from, ready);
        skipped
    }

    /// Record receipt of `seq`, releasing every payload that became
    /// contiguously deliverable (in sequence order) into `ready`.
    /// `false` if `seq` is a duplicate.
    fn admit(&mut self, seq: u64, payload: M, from: Pid, ready: &mut Vec<(Pid, M)>) -> bool {
        if seq <= self.floor || self.ahead.contains_key(&seq) {
            return false;
        }
        self.ahead.insert(seq, payload);
        self.drain_run(from, ready);
        true
    }

    fn drain_run(&mut self, from: Pid, ready: &mut Vec<(Pid, M)>) {
        while let Some(p) = self.ahead.remove(&(self.floor + 1)) {
            ready.push((from, p));
            self.floor += 1;
        }
    }
}

/// Largest released-payload buffer a link keeps between receive
/// activations, in entries.
const READY_KEEP: usize = 256;

/// A reliable-delivery wrapper around an inner [`Protocol`]. See the
/// [module docs](self).
pub struct ReliableLink<P: Protocol> {
    inner: P,
    cfg: RetryConfig,
    out: Vec<SendChannel<P::Msg>>,
    rin: Vec<RecvChannel<P::Msg>>,
    /// Scratch of one receive activation, kept for its capacity (up
    /// to [`READY_KEEP`]): the payloads released, in arrival order,
    /// and the senders owed an ack (at most one entry per peer), in
    /// order of their first `Data`.
    ready: Vec<(Pid, P::Msg)>,
    ack_to: Vec<Pid>,
    rng: SplitMix64,
    counters: Option<Arc<LinkCounters>>,
    stats: LinkStats,
}

impl<P: Protocol> ReliableLink<P> {
    /// Wrap `inner`. `seed` drives backoff jitter — derive it from the
    /// pid (e.g. `seed ^ pid`) so replicas don't retransmit in
    /// lockstep yet runs stay deterministic.
    pub fn new(inner: P, cfg: RetryConfig, seed: u64) -> Self {
        ReliableLink {
            inner,
            cfg,
            out: Vec::new(),
            rin: Vec::new(),
            ready: Vec::new(),
            ack_to: Vec::new(),
            rng: SplitMix64::new(seed),
            counters: None,
            stats: LinkStats::default(),
        }
    }

    /// Attach shared counters so retransmits/sheds surface in the
    /// harness's [`Metrics`](crate::metrics::Metrics).
    pub fn with_counters(mut self, counters: Arc<LinkCounters>) -> Self {
        self.counters = Some(counters);
        self
    }

    /// The wrapped protocol.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Mutable access to the wrapped protocol.
    pub fn inner_mut(&mut self) -> &mut P {
        &mut self.inner
    }

    /// Unwrap, discarding link state.
    pub fn into_inner(self) -> P {
        self.inner
    }

    /// This node's delivery/retransmission tallies.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// Unacked entries currently queued toward `peer`.
    pub fn pending_to(&self, peer: Pid) -> usize {
        self.out.get(peer as usize).map_or(0, |ch| ch.unacked.len())
    }

    /// Out-of-order payloads buffered from `peer`, waiting for their
    /// gap to fill (or be skipped by a shed advertisement).
    pub fn ahead_len(&self, peer: Pid) -> usize {
        self.rin.get(peer as usize).map_or(0, |ch| ch.ahead.len())
    }

    fn ensure(&mut self, n: usize) {
        if self.out.len() < n {
            self.out.resize_with(n, SendChannel::default);
            self.rin.resize_with(n, RecvChannel::default);
        }
    }

    /// Retransmit timeout for `attempt`: capped exponential backoff
    /// plus one jitter draw. Takes the config and the RNG apart from
    /// `self` so a caller can hold a send channel borrowed meanwhile.
    fn rto(cfg: &RetryConfig, rng: &mut SplitMix64, attempt: u32) -> u64 {
        let factor = 1u64.checked_shl(attempt).unwrap_or(u64::MAX);
        let backoff = cfg.base.saturating_mul(factor).min(cfg.max_backoff);
        backoff + rng.next_below(cfg.jitter + 1)
    }

    /// Queue and transmit one inner message toward `to`. A queue
    /// overflow sheds the oldest pending entry and raises the
    /// channel's shed floor, which every subsequent `Data` advertises
    /// so the receiver skips the permanent gap instead of stalling.
    fn send_data(&mut self, ctx: &mut Ctx<'_, LinkMsg<P::Msg>>, to: Pid, payload: P::Msg) {
        self.ensure(ctx.n());
        let now = ctx.now();
        let rto = Self::rto(&self.cfg, &mut self.rng, 0);
        let ch = &mut self.out[to as usize];
        ch.next_seq += 1;
        let seq = ch.next_seq;
        if ch.unacked.len() >= self.cfg.queue_cap {
            if let Some(dead) = ch.unacked.pop_front() {
                ch.shed_floor = ch.shed_floor.max(dead.seq);
            }
            self.stats.shed += 1;
            if let Some(c) = &self.counters {
                LinkCounters::add(&c.messages_dropped, 1);
            }
        }
        let ch = &mut self.out[to as usize];
        let skip = ch.shed_floor;
        ch.unacked.push_back(Pending {
            seq,
            payload: payload.clone(),
            next_retry: now + rto,
            attempt: 0,
        });
        ctx.send(to, LinkMsg::Data { seq, skip, payload });
    }

    /// Run `f` against the inner protocol with a fresh inner outbox,
    /// then wrap every message it sent.
    fn with_inner(
        &mut self,
        ctx: &mut Ctx<'_, LinkMsg<P::Msg>>,
        f: impl FnOnce(&mut P, &mut Ctx<'_, P::Msg>),
    ) {
        let mut inner_out = Vec::new();
        {
            let mut ictx = Ctx::new(ctx.pid(), ctx.n(), ctx.now(), &mut inner_out);
            f(&mut self.inner, &mut ictx);
        }
        for (to, m) in inner_out {
            self.send_data(ctx, to, m);
        }
    }

    /// The link's one receive path, for a delivery round's batch or a
    /// single message: one pass over the frames, one inner activation
    /// for everything they release, then one cumulative ack to each
    /// sender of a `Data` — duplicates included, in case the previous
    /// ack was lost (see the module docs).
    fn receive(
        &mut self,
        msgs: impl IntoIterator<Item = (Pid, LinkMsg<P::Msg>)>,
        ctx: &mut Ctx<'_, LinkMsg<P::Msg>>,
    ) {
        self.ensure(ctx.n());
        let mut ready = std::mem::take(&mut self.ready);
        for (from, msg) in msgs {
            // A pid outside the cluster has no channel here.
            if from as usize >= ctx.n() {
                continue;
            }
            match msg {
                LinkMsg::Ack { cum } => {
                    // The queue is in sequence order: what a
                    // cumulative ack covers is a prefix.
                    let unacked = &mut self.out[from as usize].unacked;
                    while unacked.front().is_some_and(|p| p.seq <= cum) {
                        unacked.pop_front();
                    }
                }
                LinkMsg::Data { seq, skip, payload } => {
                    if !self.ack_to.contains(&from) {
                        self.ack_to.push(from);
                    }
                    let ch = &mut self.rin[from as usize];
                    if skip <= ch.floor && seq == ch.floor + 1 && ch.ahead.is_empty() {
                        // Next in sequence with nothing waiting behind
                        // it: no reason to pass through the buffer.
                        ch.floor = seq;
                        ready.push((from, payload));
                    } else {
                        self.stats.gaps_skipped += ch.skip_to(skip, from, &mut ready);
                        if !ch.admit(seq, payload, from, &mut ready) {
                            self.stats.duplicates_suppressed += 1;
                        }
                    }
                }
            }
        }
        // Per-channel FIFO is what the store's stability tracking
        // relies on (see the module docs).
        self.stats.delivered += ready.len() as u64;
        if !ready.is_empty() {
            self.with_inner(ctx, |inner, ictx| {
                for (from, p) in ready.drain(..) {
                    inner.on_message(from, p, ictx);
                }
            });
        }
        // A round's buffer stays warm for the next round; a burst's
        // (a heal stream) is given back rather than pinned for good.
        if ready.capacity() <= READY_KEEP {
            self.ready = ready;
        }
        for from in self.ack_to.drain(..) {
            let cum = self.rin[from as usize].floor;
            ctx.send(from, LinkMsg::Ack { cum });
        }
    }
}

impl<P: Protocol> Protocol for ReliableLink<P> {
    type Msg = LinkMsg<P::Msg>;
    type Input = P::Input;
    type Output = P::Output;

    fn on_invoke(&mut self, input: P::Input, ctx: &mut Ctx<'_, Self::Msg>) -> P::Output {
        self.ensure(ctx.n());
        let mut inner_out = Vec::new();
        let output = {
            let mut ictx = Ctx::new(ctx.pid(), ctx.n(), ctx.now(), &mut inner_out);
            self.inner.on_invoke(input, &mut ictx)
        };
        for (to, m) in inner_out {
            self.send_data(ctx, to, m);
        }
        output
    }

    fn on_message(&mut self, from: Pid, msg: Self::Msg, ctx: &mut Ctx<'_, Self::Msg>) {
        self.receive(std::iter::once((from, msg)), ctx);
    }

    fn on_batch(&mut self, msgs: Vec<(Pid, Self::Msg)>, ctx: &mut Ctx<'_, Self::Msg>) {
        self.receive(msgs, ctx);
    }

    fn on_tick(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        self.ensure(ctx.n());
        let now = ctx.now();
        let mut due = 0u64;
        for (peer, ch) in self.out.iter_mut().enumerate() {
            let skip = ch.shed_floor;
            // One pass per queue: retransmit and re-arm each due entry
            // where it lies, drawing jitter in queue order.
            for p in ch.unacked.iter_mut().filter(|p| p.next_retry <= now) {
                p.attempt += 1;
                p.next_retry = now + Self::rto(&self.cfg, &mut self.rng, p.attempt);
                due += 1;
                let (seq, payload) = (p.seq, p.payload.clone());
                ctx.send(peer as Pid, LinkMsg::Data { seq, skip, payload });
            }
        }
        if due > 0 {
            self.stats.retransmits += due;
            if let Some(c) = &self.counters {
                LinkCounters::add(&c.retransmits, due);
            }
        }
        // The inner protocol gets its tick too (heartbeats, GC, …).
        self.with_inner(ctx, |inner, ictx| inner.on_tick(ictx));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{DeliveryMode, LatencyModel};
    use crate::scheduler::{SimConfig, Simulation};
    use crate::topology::{LinkModel, Topology};

    /// Counts distinct payloads received (dedup makes this exact).
    #[derive(Debug, Default)]
    struct Collector {
        got: Vec<u32>,
    }

    impl Protocol for Collector {
        type Msg = u32;
        type Input = u32;
        type Output = ();

        fn on_invoke(&mut self, x: u32, ctx: &mut Ctx<'_, u32>) {
            ctx.broadcast_others(x);
        }

        fn on_message(&mut self, _from: Pid, x: u32, _ctx: &mut Ctx<'_, u32>) {
            self.got.push(x);
        }
    }

    fn lossy_sim(
        n: usize,
        seed: u64,
        loss: f64,
        cfg: RetryConfig,
    ) -> Simulation<ReliableLink<Collector>> {
        let mut c = SimConfig::default_async(n, seed);
        c.latency = LatencyModel::Constant(1); // topology governs delay
        c.fifo_links = false; // reorder jitter is the point
        let mut sim = Simulation::new(c, |pid| {
            ReliableLink::new(
                Collector::default(),
                cfg,
                seed ^ (pid as u64).wrapping_mul(0x9E37),
            )
        });
        let model = LinkModel {
            latency: LatencyModel::Uniform(1, 5),
            loss,
            duplicate: 0.1,
            reorder: 10,
        };
        sim.set_topology(Topology::uniform(n, model));
        sim
    }

    /// Per message, then again with the simulator flushing on a batch
    /// window, so `on_batch` meets loss, duplication and reorder too.
    #[test]
    fn recovers_every_message_under_heavy_loss() {
        recovers_every_message(DeliveryMode::PerMessage);
        recovers_every_message(DeliveryMode::Batched { window: 8 });
    }

    fn recovers_every_message(mode: DeliveryMode) {
        let cfg = RetryConfig {
            base: 8,
            max_backoff: 64,
            jitter: 3,
            queue_cap: 1024,
        };
        let mut sim = lossy_sim(3, 42, 0.4, cfg);
        sim.set_delivery_mode(mode);
        for i in 0..50u32 {
            sim.schedule_invoke(i as u64 * 3, (i % 3) as Pid, i);
        }
        sim.schedule_ticks(8, 20_000);
        sim.run_to_quiescence();
        let mut retransmits = 0;
        for pid in 0..3 {
            let node = sim.process(pid);
            // Per-channel FIFO: each sender's values are issued in
            // increasing order, so the received subsequence from any
            // one sender must be increasing even under loss, reorder,
            // and duplication.
            for sender in 0..3u32 {
                let from_sender: Vec<u32> = node
                    .inner()
                    .got
                    .iter()
                    .copied()
                    .filter(|v| v % 3 == sender)
                    .collect();
                assert!(
                    from_sender.windows(2).all(|w| w[0] < w[1]),
                    "pid {pid}: out-of-order delivery from {sender}: {from_sender:?}"
                );
            }
            // Each node must have every payload the other two sent,
            // exactly once (dedup suppressed duplicates).
            let mut got = node.inner().got.clone();
            got.sort_unstable();
            let want: Vec<u32> = (0..50).filter(|i| i % 3 != pid).collect();
            assert_eq!(got, want, "pid {pid}");
            retransmits += node.stats().retransmits;
        }
        assert!(retransmits > 0, "40% loss must force retransmissions");
        assert!(sim.metrics.messages_dropped > 0);
        assert_eq!(sim.metrics.batches_delivered > 0, mode.is_batched());
    }

    #[test]
    fn dedup_suppresses_network_duplicates() {
        let cfg = RetryConfig::default();
        let mut sim = lossy_sim(2, 7, 0.0, cfg);
        for i in 0..20u32 {
            sim.schedule_invoke(i as u64, 0, i);
        }
        sim.schedule_ticks(16, 2_000);
        sim.run_to_quiescence();
        let node = sim.process(1);
        assert_eq!(node.inner().got.len(), 20, "each payload exactly once");
        assert!(
            node.stats().duplicates_suppressed > 0 || sim.metrics.messages_duplicated == 0,
            "injected duplicates must be suppressed"
        );
    }

    #[test]
    fn bounded_queue_sheds_oldest_and_counts() {
        let cfg = RetryConfig {
            base: 1 << 40, // never retransmit inside the horizon
            max_backoff: 1 << 41,
            jitter: 0,
            queue_cap: 4,
        };
        // Total loss: nothing is ever acked, so the queue must shed.
        let mut sim = lossy_sim(2, 5, 1.0, cfg);
        for i in 0..10u32 {
            sim.schedule_invoke(i as u64, 0, i);
        }
        sim.run_to_quiescence();
        let node = sim.process(0);
        assert_eq!(node.pending_to(1), 4, "bounded at queue_cap");
        assert_eq!(node.stats().shed, 6, "overflow shed oldest entries");
    }

    #[test]
    fn acks_clear_the_retry_queue() {
        let cfg = RetryConfig::default();
        let mut sim = lossy_sim(2, 11, 0.0, cfg);
        sim.schedule_invoke(0, 0, 1);
        sim.schedule_invoke(1, 0, 2);
        sim.schedule_ticks(16, 500);
        sim.run_to_quiescence();
        assert_eq!(sim.process(0).pending_to(1), 0, "all acked");
        assert_eq!(
            sim.process(1).inner().got,
            vec![1, 2],
            "delivery is exactly-once, in send order"
        );
    }

    /// Regression (review): after a shed, the receiver's contiguous
    /// floor used to stall below the gap forever — cumulative acks
    /// froze, every later entry retransmitted until it too was shed,
    /// and the ahead buffer grew without bound. The shed advertisement
    /// (`Data::skip`) must let the receiver jump the permanent gap,
    /// release buffered arrivals in order, and resume acks so the
    /// sender's queue drains.
    #[test]
    fn shed_gap_is_skipped_and_acks_resume() {
        shed_gap_is_skipped(false);
        shed_gap_is_skipped(true);
    }

    /// Each burst frame by frame, or as one batch.
    fn shed_gap_is_skipped(batched: bool) {
        let deliver = |link: &mut ReliableLink<Collector>,
                       from: Pid,
                       frames: Vec<(Pid, LinkMsg<u32>)>,
                       ctx: &mut Ctx<'_, LinkMsg<u32>>| {
            let frames: Vec<_> = frames.into_iter().map(|(_, m)| (from, m)).collect();
            if batched {
                link.on_batch(frames, ctx);
            } else {
                for (from, m) in frames {
                    link.on_message(from, m, ctx);
                }
            }
        };
        let cfg = RetryConfig {
            base: 4,
            max_backoff: 8,
            jitter: 0,
            queue_cap: 4,
        };
        let mut tx: ReliableLink<Collector> = ReliableLink::new(Collector::default(), cfg, 1);
        let mut rx: ReliableLink<Collector> = ReliableLink::new(Collector::default(), cfg, 2);

        // Six sends into a cap-4 queue: seqs 1 and 2 are shed.
        let mut wire = Vec::new();
        for i in 0..6u32 {
            let mut ctx = Ctx::new(0, 2, 0, &mut wire);
            tx.on_invoke(i, &mut ctx);
        }
        assert_eq!(tx.stats().shed, 2);
        assert_eq!(tx.pending_to(1), 4);

        // The network loses everything except the last transmission
        // (seq 6, advertising skip = 2): the receiver must jump the
        // shed gap but still hold seq 6 back — seqs 3..5 were not
        // shed and are still coming.
        let last = wire.pop().expect("six transmissions");
        let mut rx_out = Vec::new();
        {
            let mut ctx = Ctx::new(1, 2, 0, &mut rx_out);
            deliver(&mut rx, 0, vec![last], &mut ctx);
        }
        assert_eq!(rx.stats().gaps_skipped, 2, "seqs 1 and 2 abandoned");
        assert!(rx.inner().got.is_empty(), "seq 6 buffered behind 3..5");

        // Retransmission fills the rest; delivery is in order and
        // skips exactly the shed payloads.
        let mut retrans = Vec::new();
        {
            let mut ctx = Ctx::new(0, 2, 1_000, &mut retrans);
            tx.on_tick(&mut ctx);
        }
        {
            let mut ctx = Ctx::new(1, 2, 1_000, &mut rx_out);
            deliver(&mut rx, 0, retrans, &mut ctx);
        }
        assert_eq!(rx.inner().got, vec![2, 3, 4, 5], "in order, gap skipped");
        assert!(rx.ahead_len(0) == 0, "ahead buffer fully drained");

        // Feed the acks back: the cumulative ack now covers the gap,
        // so the sender's retry queue empties (this is what used to
        // stall forever).
        let mut sink = Vec::new();
        let mut ctx = Ctx::new(0, 2, 1_001, &mut sink);
        deliver(&mut tx, 1, rx_out, &mut ctx);
        assert_eq!(tx.pending_to(1), 0, "acks resumed past the shed gap");
    }

    /// The retransmit schedule is part of what a seeded simulation
    /// replays: which entries are due at a tick, and the jitter each
    /// one draws when re-armed, in queue order, peer by peer. The
    /// expected values were recorded from the two-pass `on_tick`
    /// (collect the due entries, then `find` each one again to re-arm
    /// it) that the single pass replaced.
    #[test]
    fn retransmit_schedule_replays_bit_for_bit() {
        let cfg = RetryConfig {
            base: 4,
            max_backoff: 64,
            jitter: 7,
            queue_cap: 6,
        };
        let mut tx: ReliableLink<Collector> =
            ReliableLink::new(Collector::default(), cfg, 0xC0FFEE);
        let mut wire = Vec::new();
        // FNV-1a over every (tick, peer, seq, next_retry, attempt).
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |x: u64| {
            for b in x.to_le_bytes() {
                digest = (digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        let mut last = Vec::new();
        for tick in 0..50u64 {
            let now = tick * 3;
            // Sends keep arriving for a while (the cap-6 queues shed),
            // and peer 1 acknowledges a prefix now and then.
            if tick < 12 {
                let mut ctx = Ctx::new(0, 3, now, &mut wire);
                tx.on_invoke(tick as u32, &mut ctx);
            }
            if tick % 9 == 4 {
                let mut ctx = Ctx::new(0, 3, now, &mut wire);
                tx.on_message(1, LinkMsg::Ack { cum: tick / 3 }, &mut ctx);
            }
            let mut ctx = Ctx::new(0, 3, now, &mut wire);
            tx.on_tick(&mut ctx);
            last.clear();
            for (peer, ch) in tx.out.iter().enumerate() {
                for p in &ch.unacked {
                    for x in [tick, peer as u64, p.seq, p.next_retry, u64::from(p.attempt)] {
                        fold(x);
                    }
                    last.push((peer, p.seq, p.next_retry, p.attempt));
                }
            }
        }
        assert_eq!(tx.stats().retransmits, 56);
        assert_eq!(wire.len(), 80, "first transmissions and retransmissions");
        let still_owed_to_peer_2 = vec![
            (2, 7, 161, 4),
            (2, 8, 164, 4),
            (2, 9, 176, 4),
            (2, 10, 172, 4),
            (2, 11, 180, 4),
            (2, 12, 175, 4),
        ];
        assert_eq!(last, still_owed_to_peer_2, "after the last tick");
        assert_eq!(digest, 0x198a_0b69_e6bb_53fa, "over all 50 ticks");
    }

    /// A frame claiming a sender outside the cluster has no channel to
    /// land on; it used to index past the channel table and panic the
    /// node. It is dropped, and the rest of its batch is unaffected.
    #[test]
    fn frame_from_a_stray_pid_is_dropped_and_the_batch_goes_on() {
        let mut rx: ReliableLink<Collector> =
            ReliableLink::new(Collector::default(), RetryConfig::default(), 1);
        let data = |seq: u64, payload: u32| LinkMsg::Data {
            seq,
            skip: 0,
            payload,
        };
        let mut out = Vec::new();
        let mut ctx = Ctx::new(1, 2, 0, &mut out);
        rx.on_batch(
            vec![
                (0, data(1, 10)),
                (2, data(1, 99)),
                (7, LinkMsg::Ack { cum: 5 }),
                (0, data(2, 11)),
            ],
            &mut ctx,
        );
        rx.on_message(2, data(2, 98), &mut ctx);
        assert_eq!(rx.inner().got, vec![10, 11]);
        assert_eq!(out, vec![(0, LinkMsg::Ack { cum: 2 })]);
        assert_eq!(rx.stats().delivered, 2);
    }

    /// One sender's side of a differential run: seqs issued in order,
    /// some held back and released late (reorder), some abandoned for
    /// good and advertised as a `skip`, earlier ones repeated, `Ack`s
    /// for the reverse channel in between.
    fn sender_stream(from: Pid, rng: &mut SplitMix64, reverse_depth: u64) -> Vec<LinkMsg<u32>> {
        let data = |seq: u64, skip: u64| LinkMsg::Data {
            seq,
            skip,
            payload: from * 1_000 + seq as u32,
        };
        let (mut seq, mut skip, mut cum) = (0u64, 0u64, 0u64);
        let mut frames = Vec::new();
        let mut held = Vec::new();
        while seq < 150 {
            match rng.next_below(12) {
                0 => {
                    // Now and then a stale frame from inside the gap
                    // follows the advertisement that abandoned it.
                    let stale = seq + 1;
                    seq += 1 + rng.next_below(3);
                    skip = seq;
                    if rng.next_below(2) == 0 {
                        frames.push(data(stale, skip));
                    }
                }
                1 => {
                    seq += 1;
                    held.push(data(seq, skip));
                }
                2 if !held.is_empty() => {
                    let at = rng.next_below(held.len() as u64) as usize;
                    frames.push(held.swap_remove(at));
                }
                3 if seq > 0 => frames.push(data(1 + rng.next_below(seq), skip)),
                4 => {
                    cum = (cum + rng.next_below(4)).min(reverse_depth);
                    frames.push(LinkMsg::Ack { cum });
                }
                _ => {
                    seq += 1;
                    frames.push(data(seq, skip));
                }
            }
        }
        frames.extend(held);
        frames
    }

    /// `on_batch` against `on_message`, frame for frame: the same
    /// seeded traffic from four senders — two with the full mix of
    /// [`sender_stream`], one that only repeats what it already
    /// delivered, one that only acknowledges — goes through one link in
    /// slices of random length and through another a frame at a time.
    /// After every slice both must have delivered the same sequence
    /// and hold the same channel state, and the batched link must have
    /// answered the slice with exactly one cumulative ack per sender
    /// of a `Data`. Both share the in-order fast path, so the sequence
    /// is also checked against receive channels that put every frame
    /// through the buffer.
    #[test]
    fn batch_receive_equals_frame_by_frame_receive() {
        const N: usize = 5;
        const RX: Pid = 0;
        const DUPS_ONLY: Pid = 3;
        const ACKS_ONLY: Pid = 4;
        const REVERSE_DEPTH: u64 = 40;
        for seed in 0..20u64 {
            let mut rng = SplitMix64::new(0xD1FF ^ seed);
            let mut streams: Vec<Vec<LinkMsg<u32>>> = vec![Vec::new(); N];
            for from in [1, 2] {
                streams[from as usize] = sender_stream(from, &mut rng, REVERSE_DEPTH);
            }
            for _ in 0..60 {
                streams[DUPS_ONLY as usize].push(LinkMsg::Data {
                    seq: 1 + rng.next_below(10),
                    skip: 0,
                    payload: 0,
                });
                let cum = rng.next_below(REVERSE_DEPTH + 1);
                streams[ACKS_ONLY as usize].push(LinkMsg::Ack { cum });
            }
            // Interleave the senders, each stream in its own order.
            let mut streams: Vec<_> = streams.into_iter().map(Vec::into_iter).collect();
            let mut left: Vec<Pid> = (1..N as Pid).collect();
            let mut traffic = Vec::new();
            while !left.is_empty() {
                let at = rng.next_below(left.len() as u64) as usize;
                match streams[left[at] as usize].next() {
                    Some(m) => traffic.push((left[at], m)),
                    None => {
                        left.swap_remove(at);
                    }
                }
            }

            let mut links: [ReliableLink<Collector>; 2] = std::array::from_fn(|_| {
                ReliableLink::new(Collector::default(), RetryConfig::default(), seed)
            });
            let mut sink = Vec::new();
            for link in &mut links {
                let mut ctx = Ctx::new(RX, N, 0, &mut sink);
                // Something for the `Ack`s to pop, and ten payloads
                // for the duplicates to repeat.
                for i in 0..REVERSE_DEPTH {
                    link.on_invoke(i as u32, &mut ctx);
                }
                for seq in 1..=10 {
                    let first = LinkMsg::Data {
                        seq,
                        skip: 0,
                        payload: DUPS_ONLY * 1_000 + seq as u32,
                    };
                    link.on_message(DUPS_ONLY, first, &mut ctx);
                }
            }
            let [by_frame, by_batch] = &mut links;
            let mut buffered: Vec<RecvChannel<u32>> = Vec::new();
            buffered.resize_with(N, RecvChannel::default);
            buffered[DUPS_ONLY as usize].floor = 10;
            let mut want: Vec<(Pid, u32)> = Vec::new();

            let mut traffic = traffic.into_iter().peekable();
            while traffic.peek().is_some() {
                let len = 1 + rng.next_below(24) as usize;
                let slice: Vec<_> = traffic.by_ref().take(len).collect();
                let mut data_from = [false; N];
                for &(from, ref m) in &slice {
                    if let LinkMsg::Data { seq, skip, payload } = *m {
                        data_from[from as usize] = true;
                        let ch = &mut buffered[from as usize];
                        ch.skip_to(skip, from, &mut want);
                        ch.admit(seq, payload, from, &mut want);
                    }
                }
                let mut ctx = Ctx::new(RX, N, 0, &mut sink);
                for (from, m) in slice.clone() {
                    by_frame.on_message(from, m, &mut ctx);
                }
                let mut acks = Vec::new();
                let mut ctx = Ctx::new(RX, N, 0, &mut acks);
                by_batch.on_batch(slice, &mut ctx);

                assert_eq!(by_batch.inner().got, by_frame.inner().got, "seed {seed}");
                let want = want.iter().map(|(_, payload)| *payload);
                assert!(
                    by_batch.inner().got[10..].iter().copied().eq(want),
                    "seed {seed}"
                );
                assert_eq!(by_batch.stats(), by_frame.stats(), "seed {seed}");
                for peer in 0..N as Pid {
                    assert_eq!(by_batch.ahead_len(peer), by_frame.ahead_len(peer));
                    assert_eq!(
                        by_batch.ahead_len(peer),
                        buffered[peer as usize].ahead.len()
                    );
                    assert_eq!(by_batch.pending_to(peer), by_frame.pending_to(peer));
                }
                acks.sort_unstable_by_key(|(to, _)| *to);
                let want: Vec<_> = (0..N as Pid)
                    .filter(|from| data_from[*from as usize])
                    .map(|from| {
                        let cum = buffered[from as usize].floor;
                        (from, LinkMsg::Ack { cum })
                    })
                    .collect();
                assert_eq!(acks, want, "seed {seed}: one ack per sender of a Data");
                assert!(!data_from[ACKS_ONLY as usize]);
            }

            // Exactly once and FIFO per sender, and the run met every
            // kind of frame it set out to.
            let got = &by_batch.inner().got;
            for from in 1..N as u32 {
                let of_sender: Vec<u32> =
                    got.iter().copied().filter(|v| v / 1_000 == from).collect();
                assert!(of_sender.windows(2).all(|w| w[0] < w[1]), "seed {seed}");
            }
            let stats = by_batch.stats();
            assert!(stats.gaps_skipped > 0 && stats.duplicates_suppressed >= 60);
            assert!(by_batch.pending_to(1) < REVERSE_DEPTH as usize);
        }
    }

    #[test]
    fn counters_surface_retransmits_in_metrics() {
        use crate::harness::ClusterHarness;
        let counters = LinkCounters::new();
        let cfg = RetryConfig {
            base: 8,
            max_backoff: 64,
            jitter: 0,
            queue_cap: 64,
        };
        let mut c = SimConfig::default_async(2, 3);
        c.latency = LatencyModel::Constant(1);
        let mut sim = Simulation::new(c, |pid| {
            ReliableLink::new(Collector::default(), cfg, pid as u64)
                .with_counters(Arc::clone(&counters))
        });
        sim.set_topology(Topology::uniform(
            2,
            LinkModel::lossy(LatencyModel::Constant(2), 0.5),
        ));
        sim.attach_link_counters(Arc::clone(&counters));
        for i in 0..30u32 {
            sim.schedule_invoke(i as u64 * 2, 0, i);
        }
        sim.schedule_ticks(8, 10_000);
        sim.run_to_quiescence();
        let m = sim.metrics();
        assert!(m.retransmits > 0, "folded from LinkCounters");
        assert_eq!(
            m.retransmits,
            sim.process(0).stats().retransmits + sim.process(1).stats().retransmits
        );
    }
}
