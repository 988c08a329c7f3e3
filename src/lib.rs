//! # update-consistency
//!
//! A reproduction of *Update Consistency for Wait-free Concurrent
//! Objects* (Perrin, Mostéfaoui, Jard — IPDPS 2015) as a Rust
//! workspace. This facade crate re-exports the public API of every
//! workspace crate; see the README for the architecture overview and
//! the `uc-bench` crate docs for the index of experiment binaries.
//!
//! * [`spec`] — UQ-ADT formalism and sequential specifications;
//! * [`history`] — distributed histories as labelled partial orders;
//! * [`criteria`] — decision procedures for EC / SEC / PC / UC / SUC;
//! * [`sim`] — wait-free asynchronous message-passing substrate: the
//!   deterministic simulator, with batched message flushing, and the
//!   [`ClusterHarness`](sim::ClusterHarness) trait it shares with the
//!   event runtime;
//! * [`runtime`] — the event-driven async runtime:
//!   [`EventCluster`](runtime::EventCluster) multiplexes thousands of
//!   protocol instances onto a small worker pool, with a periodic
//!   maintenance sweep for GC heartbeats and compaction;
//! * [`core`] — the paper's Algorithm 1 & 2: one
//!   [`ReplicaEngine`](core::ReplicaEngine) parameterised by a
//!   [`RepairStrategy`](core::RepairStrategy), with the §VII-C
//!   optimisations as swappable strategies and a batched-delivery
//!   hot path; per-key logs and GC bases live behind the pluggable
//!   [`LogBackend`](core::LogBackend) storage abstraction;
//! * [`storage`] — the persistent backend:
//!   [`SegmentFactory`](storage::SegmentFactory) keeps CRC-framed
//!   on-disk log segments plus compacted base snapshots, so stores
//!   survive `kill` + [`UcStore::reopen`](core::UcStore::reopen);
//! * [`crdt`] — the eventually consistent baselines of §VI;
//! * [`obs`] — dependency-free telemetry: lock-free metric
//!   registries, per-node trace rings, Prometheus/JSON exporters, and
//!   the [`Health`](obs::Health) surface fed by the streaming
//!   consistency monitor
//!   ([`OnlineMonitor`](criteria::online::OnlineMonitor)).
//!
//! ## Quickstart
//!
//! ```
//! use update_consistency::core::{GenericReplica, Replica};
//! use update_consistency::spec::{SetAdt, SetUpdate, SetQuery};
//!
//! // Two replicas of the paper's replicated set (Example 1).
//! let mut a = GenericReplica::new(SetAdt::<u32>::new(), 0);
//! let mut b = GenericReplica::new(SetAdt::<u32>::new(), 1);
//!
//! // Concurrent conflicting updates, each applied locally without
//! // waiting (wait-freedom).
//! let ma = a.update(SetUpdate::Insert(1));
//! let mb = b.update(SetUpdate::Delete(1));
//!
//! // Cross-delivery in any order (a message is handed over by value,
//! // as a network delivers it)...
//! a.on_deliver(mb);
//! b.on_deliver(ma);
//!
//! // ...converges both replicas onto the same linearization of the
//! // updates (update consistency).
//! assert_eq!(a.query(&SetQuery::Read), b.query(&SetQuery::Read));
//! ```
//!
//! ## Batched delivery
//!
//! Replicas ingest whole message bursts with a single state repair —
//! the difference is invisible semantically and large operationally
//! (see `BENCH_batching.json`):
//!
//! ```
//! use update_consistency::core::{CachedReplica, GenericReplica};
//! use update_consistency::spec::{SetAdt, SetUpdate};
//!
//! let mut peer = GenericReplica::new(SetAdt::<u32>::new(), 1);
//! let burst: Vec<_> = (0..64).map(|i| peer.update(SetUpdate::Insert(i))).collect();
//!
//! let mut r = CachedReplica::new(SetAdt::<u32>::new(), 0);
//! for i in 100..200 {
//!     r.update(SetUpdate::Insert(i)); // long local history
//! }
//! r.on_deliver_batch(burst);          // one rollback + one refold
//! assert!(r.repair_events() <= 1);
//! assert_eq!(r.materialize().len(), 164);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use uc_core as core;
pub use uc_crdt as crdt;
pub use uc_criteria as criteria;
pub use uc_history as history;
pub use uc_obs as obs;
pub use uc_runtime as runtime;
pub use uc_sim as sim;
pub use uc_spec as spec;
pub use uc_storage as storage;
