//! Spans for the traced pass, recorded from the benchmark's own files
//! around calls into public functions of the layers.
//!
//! [`Spanned`] wraps a protocol *inside* the link
//! (`ReliableLink<Spanned<UcStore>>`), so link self time is the
//! stepper's outer span minus the span recorded here, and
//! [`SpannedFactory`] wraps a backend factory, so store self time is
//! this span minus the backend spans below it. The untraced pass is
//! built from the bare types: there is no runtime flag to test.

use crate::cluster::{Adt, Upd};
use std::cell::RefCell;
use std::io::Write;
use std::time::Instant;
use uc_core::store::Key;
use uc_core::{BackendFactory, LogBackend, StoreInput, StoreMsg, StoreOutput, Timestamp};
use uc_sim::{Ctx, Pid, Protocol};
use uc_spec::UqAdt;

/// Where a span was taken. The prefix is the layer whose self time
/// the span's own time counts toward.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanName {
    LinkInvokeUpdate,
    LinkInvokeQuery,
    LinkInvokeMember,
    LinkBatch,
    LinkTick,
    StoreInvokeUpdate,
    StoreInvokeQuery,
    StoreInvokeMember,
    StoreMsgUpdate,
    StoreMsgHeartbeat,
    StoreTick,
    HealDigest,
    HealCollect,
    HealChunkApply,
    BackendAppend,
    BackendFlush,
    BackendTruncate,
    BackendOpen,
    PoolSubmit,
    PoolLocalUpdate,
    PoolSnapshotRead,
    PoolFlush,
    /// The benchmark's own timed sections: the roots of every other
    /// span, so their self time is the stepper's.
    BenchUpdates,
    BenchReads,
    BenchHeal,
    /// The rest of a `partition-heal` cycle: the verdicts at the cut
    /// and the ticks after the heal.
    BenchRest,
}

/// Every name, in declaration order (`ALL[name as usize] == name`).
pub const ALL: [SpanName; 26] = {
    use SpanName::*;
    [
        LinkInvokeUpdate,
        LinkInvokeQuery,
        LinkInvokeMember,
        LinkBatch,
        LinkTick,
        StoreInvokeUpdate,
        StoreInvokeQuery,
        StoreInvokeMember,
        StoreMsgUpdate,
        StoreMsgHeartbeat,
        StoreTick,
        HealDigest,
        HealCollect,
        HealChunkApply,
        BackendAppend,
        BackendFlush,
        BackendTruncate,
        BackendOpen,
        PoolSubmit,
        PoolLocalUpdate,
        PoolSnapshotRead,
        PoolFlush,
        BenchUpdates,
        BenchReads,
        BenchHeal,
        BenchRest,
    ]
};

pub const SPAN_NAMES: usize = ALL.len();

impl SpanName {
    pub fn layer(self) -> Layer {
        use SpanName::*;
        match self {
            LinkInvokeUpdate | LinkInvokeQuery | LinkInvokeMember | LinkBatch | LinkTick => {
                Layer::Link
            }
            StoreInvokeUpdate | StoreInvokeQuery | StoreInvokeMember | StoreMsgUpdate
            | StoreMsgHeartbeat | StoreTick => Layer::Store,
            HealDigest | HealCollect | HealChunkApply => Layer::Heal,
            BackendAppend | BackendFlush | BackendTruncate | BackendOpen => Layer::Storage,
            PoolSubmit | PoolLocalUpdate | PoolSnapshotRead | PoolFlush => Layer::Pool,
            BenchUpdates | BenchReads | BenchHeal | BenchRest => Layer::Bench,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Link,
    Store,
    Heal,
    Storage,
    Pool,
    Bench,
}

pub const LAYERS: [Layer; 6] = [
    Layer::Link,
    Layer::Store,
    Layer::Heal,
    Layer::Storage,
    Layer::Pool,
    Layer::Bench,
];

const NO_PARENT: u32 = u32::MAX;

/// One timed call: name, start, end, the span that caused it, and the
/// `(clock, pid)` of the update it carried (0, 0 when it carried
/// none or several).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: SpanName,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub clock: u64,
    pub pid: u32,
}

/// Spans of the current epoch, in a buffer allocated once. Folded
/// into [`Totals`] and cleared between epochs, outside timed code.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    dropped: u64,
}

/// An epoch of `replicate-mem` records ~7 spans per update/read pair.
const SPAN_CAPACITY: usize = 1 << 19;

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        origin: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        dropped: 0,
    });
}

/// A timed section of the benchmark itself, when `traced`.
#[inline]
pub fn section(traced: bool, name: SpanName) -> Option<u32> {
    traced.then(|| enter(name))
}

#[inline]
pub fn end_section(span: Option<u32>) {
    if let Some(span) = span {
        exit(span, None);
    }
}

/// Open a span; pass the result to [`exit`].
#[inline]
pub fn enter(name: SpanName) -> u32 {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if t.spans.len() == t.spans.capacity() {
            if t.spans.capacity() == 0 {
                t.spans.reserve_exact(SPAN_CAPACITY);
                t.open.reserve(16);
            } else {
                t.dropped += 1;
                return NO_PARENT;
            }
        }
        let parent = t.open.last().copied().unwrap_or(NO_PARENT);
        let idx = t.spans.len() as u32;
        let start_ns = t.origin.elapsed().as_nanos() as u64;
        t.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            clock: 0,
            pid: 0,
        });
        t.open.push(idx);
        idx
    })
}

/// Close the span `idx`, tagging it with the update it carried.
#[inline]
pub fn exit(idx: u32, id: Option<Timestamp>) {
    if idx == NO_PARENT {
        return;
    }
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let end_ns = t.origin.elapsed().as_nanos() as u64;
        let popped = t.open.pop();
        debug_assert_eq!(popped, Some(idx), "spans close in LIFO order");
        let span = &mut t.spans[idx as usize];
        span.end_ns = end_ns;
        if let Some(ts) = id {
            span.clock = ts.clock;
            span.pid = ts.pid;
        }
    })
}

/// Per-name sums over every folded epoch, plus per-call samples for
/// the percentiles the per-layer metrics need.
pub struct Totals {
    pub count: [u64; SPAN_NAMES],
    /// Σ duration per name.
    pub total_ns: [u64; SPAN_NAMES],
    /// Σ (duration − children) per name.
    pub self_ns: [u64; SPAN_NAMES],
    /// Per-call self time, per name.
    self_samples: Vec<Vec<u32>>,
    /// Per-call duration, per name.
    dur_samples: Vec<Vec<u32>>,
    /// Σ duration of spans with no parent: what the stepper's calls
    /// into the layers cover of the traced wall time.
    pub root_ns: u64,
    pub spans: u64,
    pub dropped: u64,
}

impl Default for Totals {
    fn default() -> Self {
        Totals {
            count: [0; SPAN_NAMES],
            total_ns: [0; SPAN_NAMES],
            self_ns: [0; SPAN_NAMES],
            self_samples: vec![Vec::new(); SPAN_NAMES],
            dur_samples: vec![Vec::new(); SPAN_NAMES],
            root_ns: 0,
            spans: 0,
            dropped: 0,
        }
    }
}

impl Totals {
    pub fn layer_self_ns(&self, layer: Layer) -> u64 {
        (0..SPAN_NAMES)
            .filter(|&i| ALL[i].layer() == layer)
            .map(|i| self.self_ns[i])
            .sum()
    }

    pub fn self_of(&self, name: SpanName) -> u64 {
        self.self_ns[name as usize]
    }

    pub fn total_of(&self, name: SpanName) -> u64 {
        self.total_ns[name as usize]
    }

    pub fn count_of(&self, name: SpanName) -> u64 {
        self.count[name as usize]
    }

    /// Percentile of `name`'s per-call self times, in nanoseconds.
    pub fn self_percentile(&mut self, name: SpanName, p: f64) -> f64 {
        crate::stats::percentile_ns(&mut self.self_samples[name as usize], p)
    }

    /// Percentile of `name`'s per-call durations, in nanoseconds.
    pub fn dur_percentile(&mut self, name: SpanName, p: f64) -> f64 {
        crate::stats::percentile_ns(&mut self.dur_samples[name as usize], p)
    }
}

/// Drop what was recorded so far (set-up and preload run through the
/// wrapped nodes too).
pub fn reset() {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.spans.clear();
        t.open.clear();
        t.dropped = 0;
    })
}

/// Fold the epoch's spans into `totals` and clear the buffer. When
/// `dump` is given the raw spans are also written there as TSV.
pub fn fold_into(totals: &mut Totals, dump: Option<&std::path::Path>) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        debug_assert!(t.open.is_empty(), "fold between activations only");
        let mut child_ns = vec![0u64; t.spans.len()];
        // Children sit after their parent, so one reverse pass has
        // every span's children summed before the span is read.
        for i in (0..t.spans.len()).rev() {
            let s = t.spans[i];
            let dur = s.end_ns - s.start_ns;
            let own = dur.saturating_sub(child_ns[i]);
            let n = s.name as usize;
            totals.count[n] += 1;
            totals.total_ns[n] += dur;
            totals.self_ns[n] += own;
            totals.self_samples[n].push(own.min(u32::MAX as u64) as u32);
            totals.dur_samples[n].push(dur.min(u32::MAX as u64) as u32);
            if s.parent == NO_PARENT {
                totals.root_ns += dur;
            } else {
                child_ns[s.parent as usize] += dur;
            }
        }
        totals.spans += t.spans.len() as u64;
        totals.dropped += t.dropped;
        t.dropped = 0;
        if let Some(path) = dump {
            write_spans(path, &t.spans);
        }
        t.spans.clear();
    })
}

fn write_spans(path: &std::path::Path, spans: &[Span]) {
    let file =
        std::fs::File::create(path).unwrap_or_else(|e| panic!("creating {}: {e}", path.display()));
    let mut out = std::io::BufWriter::new(file);
    let mut write = || -> std::io::Result<()> {
        writeln!(out, "index\tname\tstart_ns\tend_ns\tparent\tclock\tpid")?;
        for (i, s) in spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                s.parent as i64
            };
            writeln!(
                out,
                "{i}\t{:?}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, s.clock, s.pid
            )?;
        }
        out.flush()
    };
    write().unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
}

/// A store-shaped protocol with a span around every activation,
/// named by what the activation carried.
pub struct Spanned<P> {
    inner: P,
}

impl<P> Spanned<P> {
    pub fn new(inner: P) -> Self {
        Spanned { inner }
    }

    pub fn inner_mut(&mut self) -> &mut P {
        &mut self.inner
    }
}

impl<P> Protocol for Spanned<P>
where
    P: Protocol<Msg = StoreMsg<Upd>, Input = StoreInput<Adt>, Output = StoreOutput<Adt>>,
{
    type Msg = P::Msg;
    type Input = P::Input;
    type Output = P::Output;

    fn on_invoke(&mut self, input: Self::Input, ctx: &mut Ctx<'_, Self::Msg>) -> Self::Output {
        let name = match &input {
            StoreInput::Update(..) => SpanName::StoreInvokeUpdate,
            StoreInput::Query(..) | StoreInput::Snapshot(..) => SpanName::StoreInvokeQuery,
            // `PeerUp` folds the digests of the missed suffix.
            StoreInput::PeerUp(..) => SpanName::HealDigest,
            StoreInput::PeerDown(..) => SpanName::StoreInvokeMember,
        };
        let span = enter(name);
        let out = self.inner.on_invoke(input, ctx);
        let id = match &out {
            StoreOutput::Ack { ts, .. } => Some(*ts),
            _ => None,
        };
        exit(span, id);
        out
    }

    fn on_message(&mut self, from: Pid, msg: Self::Msg, ctx: &mut Ctx<'_, Self::Msg>) {
        // Heal frames are told apart by the public wire variants.
        let (name, id) = match &msg {
            StoreMsg::Update { msg, .. } => (SpanName::StoreMsgUpdate, Some(msg.ts)),
            StoreMsg::Heartbeat { .. } => (SpanName::StoreMsgHeartbeat, None),
            StoreMsg::DigestRequest { .. } => (SpanName::HealDigest, None),
            StoreMsg::DigestResponse { .. } | StoreMsg::RepairAck { .. } => {
                (SpanName::HealCollect, None)
            }
            StoreMsg::Repair { .. } | StoreMsg::RepairChunk { .. } => {
                (SpanName::HealChunkApply, None)
            }
        };
        let span = enter(name);
        self.inner.on_message(from, msg, ctx);
        exit(span, id);
    }

    fn on_tick(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        let span = enter(SpanName::StoreTick);
        self.inner.on_tick(ctx);
        exit(span, None);
    }
}

/// A backend factory whose backends record a span per call.
#[derive(Clone)]
pub struct SpannedFactory<F> {
    pub inner: F,
}

pub struct SpannedBackend<B> {
    inner: B,
}

impl<A: UqAdt, F: BackendFactory<A>> BackendFactory<A> for SpannedFactory<F> {
    type Backend = SpannedBackend<F::Backend>;

    fn open(&self, shard: usize, key: Key) -> Self::Backend {
        let span = enter(SpanName::BackendOpen);
        let inner = self.inner.open(shard, key);
        exit(span, None);
        SpannedBackend { inner }
    }

    fn list_keys(&self, shard: usize) -> Vec<Key> {
        self.inner.list_keys(shard)
    }

    fn open_all(&self, shard: usize) -> Vec<(Key, Self::Backend)> {
        let span = enter(SpanName::BackendOpen);
        let all = self.inner.open_all(shard);
        exit(span, None);
        all.into_iter()
            .map(|(key, inner)| (key, SpannedBackend { inner }))
            .collect()
    }

    fn bind_replica(&self, pid: u32, shards: usize, fresh: bool) {
        self.inner.bind_replica(pid, shards, fresh)
    }

    fn load_store_clock(&self) -> u64 {
        self.inner.load_store_clock()
    }

    fn persist_store_clock(&self, clock: u64) {
        self.inner.persist_store_clock(clock)
    }
}

impl<A: UqAdt, B: LogBackend<A>> LogBackend<A> for SpannedBackend<B> {
    fn append(&mut self, ts: Timestamp, u: &A::Update) {
        let span = enter(SpanName::BackendAppend);
        self.inner.append(ts, u);
        exit(span, Some(ts));
    }

    fn append_batch(&mut self, entries: &[(Timestamp, A::Update)]) {
        let span = enter(SpanName::BackendAppend);
        self.inner.append_batch(entries);
        exit(span, None);
    }

    fn truncate_to_base(&mut self, bound: u64, state: &A::State, tail: &[(Timestamp, A::Update)]) {
        let span = enter(SpanName::BackendTruncate);
        self.inner.truncate_to_base(bound, state, tail);
        exit(span, None);
    }

    fn flush(&mut self, clock: u64) {
        let span = enter(SpanName::BackendFlush);
        self.inner.flush(clock);
        exit(span, None);
    }

    fn load_base(&mut self) -> Option<(u64, A::State)> {
        self.inner.load_base()
    }

    fn scan_suffix(&mut self) -> Vec<(Timestamp, A::Update)> {
        self.inner.scan_suffix()
    }

    fn clock_watermark(&self) -> u64 {
        self.inner.clock_watermark()
    }

    fn stream_suffix(&mut self, since: u64) -> Option<Vec<(Timestamp, A::Update)>> {
        self.inner.stream_suffix(since)
    }

    fn stream_suffix_window(
        &mut self,
        since: u64,
        after: Option<Timestamp>,
        limit: usize,
    ) -> Option<(Vec<(Timestamp, A::Update)>, bool)> {
        self.inner.stream_suffix_window(since, after, limit)
    }
}
