//! # uc-core — the paper's algorithms
//!
//! The constructive half of *Update Consistency for Wait-free
//! Concurrent Objects*: every UQ-ADT has a strong-update-consistent
//! implementation in a wait-free asynchronous crash-prone system
//! (Proposition 4), realised by **Algorithm 1** and specialised by
//! **Algorithm 2** for shared memory.
//!
//! | module | contents | paper |
//! |--------|----------|-------|
//! | [`timestamp`] | `(clock, pid)` Lamport timestamps, the total order on updates | §VII-B |
//! | [`log`] | the timestamp-sorted update log `updates_i`, with batched merge | Alg. 1 |
//! | [`backend`] | [`LogBackend`]/[`BackendFactory`] — pluggable log + GC-base storage ([`MemBackend`] default; on-disk segments live in `uc-storage`) | persistence |
//! | [`engine`] | [`ReplicaEngine`] — Algorithm 1's shared core (pid, clock, log) + the [`RepairStrategy`] hook trait + batched delivery | Alg. 1, §VII-C |
//! | [`generic`] | [`NaiveReplay`] strategy; [`GenericReplica`] — Algorithm 1 verbatim (naive query replay) | Alg. 1 |
//! | [`cached`] | [`CheckpointRepair`] strategy; [`CachedReplica`] — checkpointed incremental state | §VII-C |
//! | [`undo`] | [`UndoRepair`] strategy; [`UndoReplica`] — Karsenty/Beaudouin-Lafon undo repositioning | §VII-C |
//! | [`gc`] | [`StableGc`] strategy; [`GcReplica`] — stability-based log compaction | §VII-C |
//! | [`memory`] | [`UcMemory`] — Algorithm 2, LWW shared memory | Alg. 2 |
//! | [`replica`] | the wait-free replica trait all variants share (incl. [`Replica::on_batch`]) | §VII-A |
//! | [`store`] | [`UcStore`] — sharded multi-object store: one engine per key, one clock per replica; the [`Node`] run by the inline executor ([`store::Inline`]: a direct call into its crate-private `ShardSet`, the data plane — every shard-level operation and monitor hook, written once) | partitionable follow-up |
//! | [`inbox`] | [`Inbox`] — lock-free bounded MPSC claim-pattern inbox (Treiber push, swap-claim drain) | perf engineering |
//! | [`snapshot`] | [`Published`] — single-writer epoch-published snapshot cell for wait-free reads | perf engineering |
//! | [`pool`] | [`IngestPool`]/[`PoolHandle`] — the same [`Node`] run by persistent workers ([`pool::Workers`]), each owning a stride of the shards as its own `ShardSet`, fed by claim inboxes; wait-free snapshot reads, flush barriers, drain-on-drop | perf engineering |
//! | [`node`] | [`Node`] — the replica written once over an [`Executor`]: partition posture and heal dialogue, health, metrics, and the `Protocol` impl both node kinds share | partitionable follow-up |
//! | [`observe`] | shared telemetry glue: streaming-monitor counters → `uc-obs` registry | observability |
//! | [`sim_adapter`] | run replicas on `uc-sim`; turn traces into checkable histories + SUC witnesses | Prop. 4 |
//! | [`convergence`] | cross-replica convergence checks | Defs. 5/8 |
//!
//! All variants are the *same* Algorithm 1 — one [`ReplicaEngine`]
//! parameterised by a [`RepairStrategy`] — and produce identical
//! observable behaviour (the same update order, hence the same
//! converged states); they differ only in the cost profile measured by
//! experiments E8–E10. The engine also owns the batching hot path:
//! [`ReplicaEngine::on_deliver_batch`] ingests a burst of messages
//! with a single rollback + refold.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod cached;
pub mod convergence;
pub mod engine;
pub mod gc;
pub mod generic;
pub mod heal;
pub mod inbox;
pub mod log;
pub mod memory;
pub mod message;
pub mod node;
pub mod observe;
pub mod pool;
pub mod replica;
pub mod sim_adapter;
pub mod snapshot;
pub mod store;
pub mod timestamp;
pub mod undo;

pub use backend::{BackendFactory, LogBackend, MemBackend, MemFactory};
pub use cached::{CachedReplica, CheckpointRepair};
pub use engine::{CutError, RepairStrategy, ReplicaEngine};
pub use gc::{GcReplica, StableGc};
pub use generic::{GenericReplica, NaiveReplay};
pub use heal::{digest_slot, entry_hash, mismatched_slots, HealConfig, HealDigest, HealSession};
pub use inbox::{Inbox, PushError};
pub use log::UpdateLog;
pub use memory::{MemWrite, UcMemory};
pub use message::{GcMsg, UpdateMsg};
pub use node::{Executor, Node};
pub use observe::export_monitor_stats;
pub use pool::{
    IngestPool, PoolConfig, PoolError, PoolHandle, PoolStats, SnapshotError, WorkerStats,
};
pub use replica::{state_digest, Replica};
pub use sim_adapter::{
    trace_to_history, OmegaMarking, OpInput, OpOutput, ReplicaNode, TimestampedMsg,
};
pub use snapshot::Published;
pub use store::{
    CheckpointFactory, GcFactory, Key, PartitionTracker, StoreInput, StoreMsg, StoreOutput,
    StoreSnapshot, StrategyFactory, UcStore,
};
pub use timestamp::{LamportClock, Timestamp};
pub use undo::{UndoRepair, UndoReplica};
