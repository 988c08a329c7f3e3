//! Glue between [`Replica`]s and the `uc-sim` runtimes, plus the
//! trace-to-history pipeline that turns a simulated execution into a
//! checkable [`History`] with a strong-update-consistency witness
//! (the Proposition 4 experiment, E5).

use crate::message::UpdateMsg;
use crate::replica::Replica;
use crate::timestamp::Timestamp;
use std::fmt;
use std::marker::PhantomData;
use uc_criteria::SucWitness;
use uc_history::builder::BuildError;
use uc_history::{EventId, History, HistoryBuilder, ProcessId};
use uc_sim::{Ctx, InvocationRecord, Pid, Protocol};
use uc_spec::UqAdt;

/// Application-level invocation: an update or a query of the ADT.
pub enum OpInput<A: UqAdt> {
    /// Perform an update.
    Update(A::Update),
    /// Ask a query.
    Query(A::QueryIn),
}

impl<A: UqAdt> Clone for OpInput<A> {
    fn clone(&self) -> Self {
        match self {
            OpInput::Update(u) => OpInput::Update(u.clone()),
            OpInput::Query(q) => OpInput::Query(q.clone()),
        }
    }
}

impl<A: UqAdt> fmt::Debug for OpInput<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpInput::Update(u) => write!(f, "{u:?}"),
            OpInput::Query(q) => write!(f, "{q:?}?"),
        }
    }
}

/// Application-level response.
pub enum OpOutput<A: UqAdt> {
    /// Update acknowledged; carries the timestamp the replica assigned
    /// (to correlate trace events with log entries) and the replica's
    /// known-update set right after applying it (the visibility the
    /// growth condition constrains), populated when tracing.
    Ack {
        /// Timestamp assigned to the update.
        ts: Timestamp,
        /// Timestamps visible at this update (including itself).
        seen: Vec<Timestamp>,
    },
    /// Query answered; `seen` is the replica's known-update set at
    /// query time (the visibility witness), populated when tracing.
    Value {
        /// The query output.
        out: A::QueryOut,
        /// Timestamps visible to the query.
        seen: Vec<Timestamp>,
    },
}

impl<A: UqAdt> Clone for OpOutput<A> {
    fn clone(&self) -> Self {
        match self {
            OpOutput::Ack { ts, seen } => OpOutput::Ack {
                ts: *ts,
                seen: seen.clone(),
            },
            OpOutput::Value { out, seen } => OpOutput::Value {
                out: out.clone(),
                seen: seen.clone(),
            },
        }
    }
}

impl<A: UqAdt> fmt::Debug for OpOutput<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpOutput::Ack { ts, .. } => write!(f, "ack{ts:?}"),
            OpOutput::Value { out, .. } => write!(f, "{out:?}"),
        }
    }
}

/// Wraps a [`Replica`] as a [`Protocol`] node for either runtime.
pub struct ReplicaNode<A: UqAdt, R: Replica<A>> {
    /// The wrapped replica.
    pub replica: R,
    /// Record visibility sets in query outputs (needed for witness
    /// extraction; costs O(log) per query).
    pub record_visibility: bool,
    _ph: PhantomData<fn() -> A>,
}

impl<A: UqAdt, R: Replica<A>> ReplicaNode<A, R> {
    /// Wrap a replica, with visibility recording enabled.
    pub fn traced(replica: R) -> Self {
        ReplicaNode {
            replica,
            record_visibility: true,
            _ph: PhantomData,
        }
    }

    /// Wrap a replica without visibility recording (benchmarks).
    pub fn untraced(replica: R) -> Self {
        ReplicaNode {
            replica,
            record_visibility: false,
            _ph: PhantomData,
        }
    }
}

impl<A: UqAdt, R: Replica<A>> Protocol for ReplicaNode<A, R> {
    type Msg = UpdateMsg<A::Update>;
    type Input = OpInput<A>;
    type Output = OpOutput<A>;

    fn on_invoke(&mut self, input: Self::Input, ctx: &mut Ctx<'_, Self::Msg>) -> Self::Output {
        match input {
            OpInput::Update(u) => {
                let msg = self.replica.local_update(u);
                let ts = msg.ts;
                let seen = if self.record_visibility {
                    self.replica.known_timestamps()
                } else {
                    Vec::new()
                };
                ctx.broadcast_others(msg);
                OpOutput::Ack { ts, seen }
            }
            OpInput::Query(q) => {
                let seen = if self.record_visibility {
                    self.replica.known_timestamps()
                } else {
                    Vec::new()
                };
                let out = self.replica.query(&q);
                OpOutput::Value { out, seen }
            }
        }
    }

    fn on_message(&mut self, _from: Pid, msg: Self::Msg, _ctx: &mut Ctx<'_, Self::Msg>) {
        self.replica.on_message(msg);
    }

    /// Runtime flushes land on the replica's batched ingest path: one
    /// rollback + refold per burst for engine-backed replicas, with
    /// the flushed messages moved (never cloned) into the log.
    fn on_batch(&mut self, msgs: Vec<(Pid, Self::Msg)>, _ctx: &mut Ctx<'_, Self::Msg>) {
        let msgs: Vec<Self::Msg> = msgs.into_iter().map(|(_, m)| m).collect();
        self.replica.on_batch(msgs);
    }

    /// Timer-driven maintenance: the replica's [`Replica::tick`];
    /// nothing is sent.
    fn on_tick(&mut self, _ctx: &mut Ctx<'_, Self::Msg>) {
        self.replica.tick();
    }
}

/// Failure modes of trace conversion.
#[derive(Debug)]
pub enum TraceError {
    /// The underlying history failed to build.
    Build(BuildError),
    /// A query record referenced a timestamp with no matching update
    /// event.
    UnknownTimestamp(Timestamp),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Build(e) => write!(f, "history build failed: {e}"),
            TraceError::UnknownTimestamp(ts) => {
                write!(f, "query saw unknown update timestamp {ts:?}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// How to ω-flag trace events (the "repeated forever" reading of
/// post-quiescence reads).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OmegaMarking<'a> {
    /// No ω events: the trace is a plain finite history.
    #[default]
    None,
    /// Flag the **final query** of every process — appropriate when
    /// every process ends with a post-quiescence read. A process whose
    /// trace ends with updates still contributes its last query as the
    /// ω event (the "repeated forever" reading places the repeated
    /// instances after those trailing updates, so the query is emitted
    /// at the end of its process chain to keep ω events program-order
    /// maximal).
    ///
    /// Note what that ω claim asserts for an update-terminated
    /// process: its *recorded* output must still hold in the converged
    /// state, i.e. the trailing updates must not change the query's
    /// answer. If they do, the UC check correctly fails the history —
    /// the trace simply contains no post-quiescence read for that
    /// process, so its mid-run output is not a convergence witness.
    /// End every process with a read (or use
    /// [`OmegaMarking::FinalQueriesOf`] to exclude it) when that claim
    /// is not intended.
    FinalQueries,
    /// Flag final queries only for the listed (surviving) processes.
    /// A crashed process's history simply ends: the paper places no
    /// delivery obligation on its finitely many events, so ω-marking
    /// it would wrongly demand eventual delivery.
    FinalQueriesOf(&'a [Pid]),
}

/// Convert a simulation trace into a [`History`] plus the SUC witness
/// Algorithm 1's replicas imply: `≤` is the timestamp order, and each
/// query's visible set is the log it replayed.
///
/// # Panics
///
/// On a record [`ReplicaNode`] does not produce: an update answered
/// with a value, a query with an ack, a pid outside `0..n`.
pub fn trace_to_history<A, P>(
    adt: A,
    n: usize,
    records: &[InvocationRecord<P>],
    omega: OmegaMarking<'_>,
) -> Result<(History<A>, SucWitness), TraceError>
where
    A: UqAdt + Clone,
    P: Protocol<Input = OpInput<A>, Output = OpOutput<A>>,
{
    // ω-eligibility: the final *query* record of each eligible
    // process. Tracking the last record of any kind here was a
    // paper-semantics bug — a process whose trace ended with an update
    // contributed no ω-query at all, so Definition 4's "all but
    // finitely many queries" check ran on a history with too few (or
    // zero) ω events.
    let mut last_query_of_pid: Vec<Option<usize>> = vec![None; n];
    let mut last_record_of_pid: Vec<Option<usize>> = vec![None; n];
    for (i, r) in records.iter().enumerate() {
        let eligible = match omega {
            OmegaMarking::None => false,
            OmegaMarking::FinalQueries => true,
            OmegaMarking::FinalQueriesOf(pids) => pids.contains(&r.pid),
        };
        if eligible {
            if matches!(r.input, OpInput::Query(_)) {
                last_query_of_pid[r.pid as usize] = Some(i);
            }
            last_record_of_pid[r.pid as usize] = Some(i);
        }
    }

    let mut b = HistoryBuilder::new(adt);
    let procs: Vec<ProcessId> = (0..n).map(|_| b.process()).collect();
    let mut ts_to_event: Vec<(Timestamp, EventId)> = Vec::new();
    let mut pending_queries: Vec<(EventId, Vec<Timestamp>)> = Vec::new();
    let mut pending_updates: Vec<(EventId, Vec<Timestamp>)> = Vec::new();
    // ω queries followed by same-process updates in the trace: the
    // "repeated forever" instances happen after those updates, so the
    // event is emitted once all of its process's records are in (ω
    // events must be program-order maximal).
    type Deferred<A> = (
        ProcessId,
        <A as UqAdt>::QueryIn,
        <A as UqAdt>::QueryOut,
        Vec<Timestamp>,
    );
    let mut deferred: Vec<Deferred<A>> = Vec::new();

    for (i, r) in records.iter().enumerate() {
        let p = procs[r.pid as usize];
        match (&r.input, &r.output) {
            (OpInput::Update(u), OpOutput::Ack { ts, seen }) => {
                let e = b.update(p, u.clone());
                ts_to_event.push((*ts, e));
                if !seen.is_empty() {
                    pending_updates.push((e, seen.clone()));
                }
            }
            (OpInput::Query(qi), OpOutput::Value { out, seen }) => {
                let omega = last_query_of_pid[r.pid as usize] == Some(i);
                if omega && last_record_of_pid[r.pid as usize] != Some(i) {
                    deferred.push((p, qi.clone(), out.clone(), seen.clone()));
                    continue;
                }
                let e = if omega {
                    b.omega_query(p, qi.clone(), out.clone())
                } else {
                    b.query(p, qi.clone(), out.clone())
                };
                pending_queries.push((e, seen.clone()));
            }
            (_, output) => panic!("record #{i} answered with {output:?}: not a ReplicaNode's"),
        }
    }
    for (p, qi, out, seen) in deferred {
        let e = b.omega_query(p, qi, out);
        pending_queries.push((e, seen));
    }

    let h = b.build().map_err(TraceError::Build)?;
    ts_to_event.sort_by_key(|(ts, _)| *ts);
    let update_order: Vec<EventId> = ts_to_event.iter().map(|(_, e)| *e).collect();
    let lookup = |ts: &Timestamp| -> Result<EventId, TraceError> {
        ts_to_event
            .binary_search_by(|(t, _)| t.cmp(ts))
            .map(|i| ts_to_event[i].1)
            .map_err(|_| TraceError::UnknownTimestamp(*ts))
    };
    let mut visible = Vec::with_capacity(pending_queries.len() + pending_updates.len());
    for (e, seen) in pending_queries.into_iter().chain(pending_updates) {
        let mut v = Vec::with_capacity(seen.len());
        for ts in &seen {
            v.push(lookup(ts)?);
        }
        visible.push((e, v));
    }
    Ok((
        h,
        SucWitness {
            update_order,
            visible,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generic::GenericReplica;
    use std::collections::BTreeSet;
    use uc_criteria::verify_witness;
    use uc_sim::{LatencyModel, SimConfig, Simulation};
    use uc_spec::{SetAdt, SetQuery, SetUpdate};

    type Node = ReplicaNode<SetAdt<u32>, GenericReplica<SetAdt<u32>>>;

    fn sim(n: usize, seed: u64) -> Simulation<Node> {
        Simulation::new(
            SimConfig {
                n,
                seed,
                latency: LatencyModel::Uniform(5, 80),
                fifo_links: false,
            },
            |pid| ReplicaNode::traced(GenericReplica::new(SetAdt::new(), pid)),
        )
    }

    #[test]
    fn simulated_run_produces_verifiable_suc_witness() {
        let mut s = sim(3, 42);
        // Concurrent conflicting updates plus mid-run queries.
        s.schedule_invoke(0, 0, OpInput::Update(SetUpdate::Insert(1)));
        s.schedule_invoke(0, 1, OpInput::Update(SetUpdate::Delete(1)));
        s.schedule_invoke(2, 2, OpInput::Update(SetUpdate::Insert(2)));
        s.schedule_invoke(10, 0, OpInput::Query(SetQuery::Read));
        s.schedule_invoke(12, 1, OpInput::Query(SetQuery::Read));
        s.run_to_quiescence();
        // Post-quiescence reads on every process.
        let t = s.now() + 1;
        for p in 0..3 {
            s.schedule_invoke(t + p as u64, p, OpInput::Query(SetQuery::Read));
        }
        s.run_to_quiescence();
        let (h, w) = trace_to_history(
            SetAdt::<u32>::new(),
            3,
            s.records(),
            OmegaMarking::FinalQueries,
        )
        .unwrap();
        assert_eq!(verify_witness(&h, &w), Ok(()));
    }

    #[test]
    fn update_terminated_trace_still_omega_marks_the_final_query() {
        // Regression: ω-marking used to track each process's last
        // *record*, so a process whose trace ended with an update
        // contributed no ω-query and the UC verdict was computed on a
        // history with a missing ω event.
        let mut s = sim(2, 21);
        s.schedule_invoke(0, 0, OpInput::Update(SetUpdate::Insert(1)));
        s.schedule_invoke(5, 0, OpInput::Query(SetQuery::Read));
        // p0's trace ends with an update (idempotent re-insert).
        s.schedule_invoke(10, 0, OpInput::Update(SetUpdate::Insert(1)));
        s.run_to_quiescence();
        let t = s.now() + 1;
        s.schedule_invoke(t, 1, OpInput::Query(SetQuery::Read));
        s.run_to_quiescence();

        let (h, _w) = trace_to_history(
            SetAdt::<u32>::new(),
            2,
            s.records(),
            OmegaMarking::FinalQueries,
        )
        .unwrap();
        // Both processes contribute an ω query; p0's is its mid-trace
        // read, emitted at the end of its chain (after the trailing
        // update) per the "repeated forever" reading.
        for p in 0..2u32 {
            let chain = h.chain(ProcessId(p));
            let last = *chain.last().expect("nonempty chain");
            assert!(
                h.event(last).omega && h.event(last).is_query(),
                "process {p} must end with an ω query"
            );
        }
        assert_eq!(h.chain(ProcessId(0)).len(), 3);
        // The history is update consistent: every linearization of the
        // three inserts converges to {1}, which answers both ω reads.
        assert!(uc_criteria::check_uc(&h).holds());
    }

    #[test]
    fn omega_marking_none_and_final_queries_of_unchanged() {
        // FinalQueriesOf must also mark the listed pids' final
        // queries, and None must mark nothing.
        let mut s = sim(2, 3);
        s.schedule_invoke(0, 0, OpInput::Update(SetUpdate::Insert(2)));
        s.schedule_invoke(1, 0, OpInput::Query(SetQuery::Read));
        s.schedule_invoke(2, 0, OpInput::Update(SetUpdate::Insert(3)));
        s.schedule_invoke(3, 1, OpInput::Query(SetQuery::Read));
        s.run_to_quiescence();
        let (h, _) =
            trace_to_history(SetAdt::<u32>::new(), 2, s.records(), OmegaMarking::None).unwrap();
        assert_eq!(h.omegas_mask(), 0);
        let (h, _) = trace_to_history(
            SetAdt::<u32>::new(),
            2,
            s.records(),
            OmegaMarking::FinalQueriesOf(&[0]),
        )
        .unwrap();
        let last0 = *h.chain(ProcessId(0)).last().unwrap();
        assert!(h.event(last0).omega, "listed pid's final query marked");
        let last1 = *h.chain(ProcessId(1)).last().unwrap();
        assert!(!h.event(last1).omega, "unlisted pid unmarked");
    }

    #[test]
    fn mid_run_queries_record_partial_visibility() {
        let mut s = sim(2, 7);
        s.schedule_invoke(0, 0, OpInput::Update(SetUpdate::Insert(5)));
        // Query on p1 before the message can arrive (latency ≥ 5).
        s.schedule_invoke(1, 1, OpInput::Query(SetQuery::Read));
        s.run_to_quiescence();
        let recs = s.records();
        let OpOutput::Value { out, seen } = &recs[1].output else {
            panic!("second record must be the query");
        };
        assert!(out.is_empty());
        assert!(seen.is_empty(), "p1 cannot have seen the update yet");
    }

    #[test]
    fn replicas_converge_in_simulation() {
        let mut s = sim(3, 1234);
        for i in 0..30u32 {
            let pid = (i % 3) as Pid;
            let op = if i % 4 == 0 {
                SetUpdate::Delete(i % 6)
            } else {
                SetUpdate::Insert(i % 6)
            };
            s.schedule_invoke((i * 3) as u64, pid, OpInput::Update(op));
        }
        s.run_to_quiescence();
        let states: Vec<BTreeSet<u32>> = (0..3)
            .map(|p| s.process_mut(p).replica.materialize())
            .collect();
        assert_eq!(states[0], states[1]);
        assert_eq!(states[1], states[2]);
    }

    #[test]
    fn batched_delivery_converges_identically_with_fewer_repairs() {
        use crate::cached::CachedReplica;
        use uc_sim::DeliveryMode;
        type CNode = ReplicaNode<SetAdt<u32>, CachedReplica<SetAdt<u32>>>;
        let run = |batched: bool| {
            let mut s: Simulation<CNode> = Simulation::new(
                SimConfig {
                    n: 3,
                    seed: 9,
                    latency: LatencyModel::Uniform(5, 80),
                    fifo_links: false,
                },
                |pid| {
                    ReplicaNode::untraced(CachedReplica::with_checkpoint_every(
                        SetAdt::new(),
                        pid,
                        8,
                    ))
                },
            );
            if batched {
                s.set_delivery_mode(DeliveryMode::Batched { window: 40 });
            }
            for i in 0..60u32 {
                let pid = (i % 3) as Pid;
                s.schedule_invoke(i as u64, pid, OpInput::Update(SetUpdate::Insert(i)));
            }
            s.run_to_quiescence();
            let batches = s.metrics.batches_delivered;
            let mut states = Vec::new();
            let mut repairs = 0;
            for p in 0..3 {
                let node = s.process_mut(p);
                states.push(node.replica.materialize());
                repairs += node.replica.repair_events();
            }
            (states, repairs, batches)
        };
        let (seq_states, seq_repairs, _) = run(false);
        let (bat_states, bat_repairs, bat_batches) = run(true);
        assert_eq!(seq_states[0], seq_states[1]);
        assert_eq!(seq_states[1], seq_states[2]);
        assert_eq!(seq_states, bat_states, "batching must not change outcomes");
        assert!(
            bat_batches > 0,
            "the workload must actually exercise batching"
        );
        assert!(
            bat_repairs <= seq_repairs,
            "batched repairs {bat_repairs} vs per-message {seq_repairs}"
        );
    }

    #[test]
    fn crash_does_not_block_survivors() {
        let mut s = sim(3, 5);
        s.schedule_crash(1, 2);
        for i in 0..10u32 {
            s.schedule_invoke(
                2 + i as u64,
                (i % 2) as Pid,
                OpInput::Update(SetUpdate::Insert(i)),
            );
        }
        s.run_to_quiescence();
        let a = s.process_mut(0).replica.materialize();
        let b = s.process_mut(1).replica.materialize();
        assert_eq!(a, b);
        assert_eq!(a.len(), 10, "survivors see all updates");
    }
}
