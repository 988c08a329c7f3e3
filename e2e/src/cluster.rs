//! The bench-owned single-threaded stepper (rule 1 of the README).
//!
//! N protocol instances in a `Vec`, driven by exactly the calls the
//! event reactor makes — `on_invoke` with a [`Ctx`] outbox,
//! per-destination queues, one `on_batch` per node per delivery
//! round, `on_tick` on a virtual millisecond clock — with no mailbox,
//! thread or timer between them. One delivery round is one virtual
//! millisecond; frames sent in a round arrive in the next one.

use crate::wrap::{self, SpanName, Spanned};
use std::time::Instant;
use uc_core::{BackendFactory, GcFactory, StoreInput, StoreMsg, StoreOutput, UcStore};
use uc_sim::{Ctx, LinkMsg, LinkStats, Pid, Protocol, ReliableLink, RetryConfig};
use uc_spec::{SetAdt, SetUpdate};

pub type Adt = SetAdt<u32>;
pub type Upd = SetUpdate<u32>;
pub type Store<B> = UcStore<Adt, GcFactory, B>;
pub type Wire = LinkMsg<StoreMsg<Upd>>;

/// Replicas per cluster.
pub const REPLICAS: usize = 3;
/// Shards per store.
pub const SHARDS: usize = 8;
/// Delivery rounds between maintenance ticks (a tick every 8 virtual
/// milliseconds).
pub const ROUNDS_PER_TICK: u64 = 8;

/// A replica as the stepper drives it: a store behind a reliable
/// link, bare in the untraced pass and with [`Spanned`] between link
/// and store in the traced one.
pub trait Node:
    Protocol<Msg = Wire, Input = StoreInput<Adt>, Output = StoreOutput<Adt>> + Sized
{
    type Backend: BackendFactory<Adt>;
    /// Whether the stepper records its outer spans (a constant of the
    /// type, so the untraced pass carries no test for it).
    const TRACED: bool;

    fn build(store: Store<Self::Backend>, seed: u64) -> Self;
    fn store(&mut self) -> &mut Store<Self::Backend>;
    fn link_stats(&self) -> LinkStats;
    /// Unacknowledged frames queued toward `peer`.
    fn unacked_to(&self, peer: Pid) -> usize;
}

fn link_seed(store_pid: u32, seed: u64) -> u64 {
    seed ^ (store_pid as u64).wrapping_mul(0x9E37)
}

impl<B: BackendFactory<Adt>> Node for ReliableLink<Store<B>> {
    type Backend = B;
    const TRACED: bool = false;

    fn build(store: Store<B>, seed: u64) -> Self {
        let seed = link_seed(store.pid(), seed);
        ReliableLink::new(store, RetryConfig::default(), seed)
    }
    fn store(&mut self) -> &mut Store<B> {
        self.inner_mut()
    }
    fn link_stats(&self) -> LinkStats {
        self.stats()
    }
    fn unacked_to(&self, peer: Pid) -> usize {
        self.pending_to(peer)
    }
}

impl<B: BackendFactory<Adt>> Node for ReliableLink<Spanned<Store<B>>> {
    type Backend = B;
    const TRACED: bool = true;

    fn build(store: Store<B>, seed: u64) -> Self {
        let seed = link_seed(store.pid(), seed);
        ReliableLink::new(Spanned::new(store), RetryConfig::default(), seed)
    }
    fn store(&mut self) -> &mut Store<B> {
        self.inner_mut().inner_mut()
    }
    fn link_stats(&self) -> LinkStats {
        self.stats()
    }
    fn unacked_to(&self, peer: Pid) -> usize {
        self.pending_to(peer)
    }
}

pub struct Cluster<N: Node> {
    pub nodes: Vec<N>,
    /// Frames waiting for each destination, in send order.
    queues: Vec<Vec<(Pid, Wire)>>,
    outbox: Vec<(Pid, Wire)>,
    /// Virtual milliseconds (= delivery rounds) since the start.
    now: u64,
    /// The replica cut off from the others, if any: the stepper drops
    /// frames that cross the cut, as a dead link would.
    isolated: Option<Pid>,
    /// When each node's last `on_batch` returned.
    pub delivered_at: Vec<Instant>,
    pub frames_routed: u64,
    pub rounds: u64,
    /// Deepest retry queue seen at the start of a delivery round.
    pub unacked_max: usize,
}

impl<N: Node> Cluster<N> {
    pub fn new(nodes: Vec<N>) -> Self {
        let n = nodes.len();
        Cluster {
            nodes,
            queues: (0..n).map(|_| Vec::new()).collect(),
            outbox: Vec::new(),
            now: 0,
            isolated: None,
            delivered_at: vec![Instant::now(); n],
            frames_routed: 0,
            rounds: 0,
            unacked_max: 0,
        }
    }

    pub fn n(&self) -> usize {
        self.nodes.len()
    }

    pub fn isolate(&mut self, pid: Option<Pid>) {
        self.isolated = pid;
    }

    fn route(&mut self, from: Pid) {
        for (to, frame) in self.outbox.drain(..) {
            let crosses = self.isolated.is_some_and(|p| (p == from) != (p == to));
            if !crosses {
                self.frames_routed += 1;
                self.queues[to as usize].push((from, frame));
            }
        }
    }

    /// One application invocation at `pid`; completes locally.
    #[inline]
    pub fn invoke(&mut self, pid: Pid, input: StoreInput<Adt>) -> StoreOutput<Adt> {
        let span = N::TRACED.then(|| {
            wrap::enter(match &input {
                StoreInput::Update(..) => SpanName::LinkInvokeUpdate,
                StoreInput::Query(..) | StoreInput::Snapshot(..) => SpanName::LinkInvokeQuery,
                StoreInput::PeerDown(..) | StoreInput::PeerUp(..) => SpanName::LinkInvokeMember,
            })
        });
        let n = self.nodes.len();
        let out = {
            let mut ctx = Ctx::new(pid, n, self.now, &mut self.outbox);
            self.nodes[pid as usize].on_invoke(input, &mut ctx)
        };
        if let Some(span) = span {
            let id = match &out {
                StoreOutput::Ack { ts, .. } => Some(*ts),
                _ => None,
            };
            wrap::exit(span, id);
        }
        self.route(pid);
        out
    }

    /// One delivery round: every node receives what was queued for it
    /// when the round began, in one `on_batch`.
    pub fn deliver_round(&mut self) {
        self.now += 1;
        self.rounds += 1;
        let n = self.nodes.len();
        for node in &self.nodes {
            for peer in 0..n as Pid {
                self.unacked_max = self.unacked_max.max(node.unacked_to(peer));
            }
        }
        let mut batches: Vec<Vec<(Pid, Wire)>> =
            self.queues.iter_mut().map(std::mem::take).collect();
        for (pid, batch) in batches.iter_mut().enumerate() {
            if !batch.is_empty() {
                let span = wrap::section(N::TRACED, SpanName::LinkBatch);
                {
                    let mut ctx = Ctx::new(pid as Pid, n, self.now, &mut self.outbox);
                    self.nodes[pid].on_batch(std::mem::take(batch), &mut ctx);
                }
                wrap::end_section(span);
                self.route(pid as Pid);
            }
            self.delivered_at[pid] = Instant::now();
        }
    }

    /// The maintenance timer fires on every node.
    pub fn tick(&mut self) {
        let n = self.nodes.len();
        for pid in 0..n {
            let span = wrap::section(N::TRACED, SpanName::LinkTick);
            {
                let mut ctx = Ctx::new(pid as Pid, n, self.now, &mut self.outbox);
                self.nodes[pid].on_tick(&mut ctx);
            }
            wrap::end_section(span);
            self.route(pid as Pid);
        }
    }

    /// A delivery round, and the tick when one is due.
    pub fn step(&mut self) {
        self.deliver_round();
        if self.now.is_multiple_of(ROUNDS_PER_TICK) {
            self.tick();
        }
    }

    pub fn in_flight(&self) -> bool {
        self.queues.iter().any(|q| !q.is_empty())
    }

    pub fn unacked(&self) -> bool {
        let n = self.nodes.len() as Pid;
        self.nodes
            .iter()
            .any(|node| (0..n).any(|peer| node.unacked_to(peer) > 0))
    }

    /// Step until no frame is queued and every link has its
    /// acknowledgements.
    pub fn quiesce(&mut self) {
        while self.in_flight() || self.unacked() {
            self.step();
        }
    }
}
