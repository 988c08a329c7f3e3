//! # uc-storage — persistent journal backend for the update log
//!
//! The disk half of the storage refactor: `uc-core` defines the
//! [`LogBackend`](uc_core::backend::LogBackend) /
//! [`BackendFactory`](uc_core::backend::BackendFactory) traits (with
//! the no-op in-memory defaults); this crate provides the
//! **persistent** implementation —
//!
//! * [`codec`] — a dependency-free binary codec for update and state
//!   types ([`Codec`]);
//! * [`frame`] — CRC-32 record framing (torn final records fail
//!   closed), in memory ([`FrameScanner`]) and streamed from a file
//!   ([`FrameReader`]);
//! * [`segment`] — one append-only journal per shard, group-committed
//!   on flush: key-tagged update records, base records staged by the
//!   flush after `StableGc` advanced its stable prefix, clock watermarks,
//!   generation rewrites once dead records outweigh live ones, and
//!   crash recovery as `fold(base) + replay(tail)`.
//!   [`SegmentBackend`] is one key's handle on its shard's journal;
//!   [`SegmentFactory`] is the per-store factory a
//!   [`UcStore`](uc_core::UcStore) plugs in via
//!   `UcStore::with_persistence` / `UcStore::reopen`;
//! * [`scratch`] — [`ScratchDir`], hermetic temp directories for
//!   tests and CI.
//!
//! ```no_run
//! use uc_core::{CheckpointFactory, UcStore};
//! use uc_spec::{SetAdt, SetUpdate};
//! use uc_storage::SegmentFactory;
//!
//! let factory = CheckpointFactory { every: 16 };
//! let persist = SegmentFactory::at("/var/lib/uc/replica-0").unwrap();
//! let mut store: UcStore<SetAdt<u32>, CheckpointFactory, SegmentFactory> =
//!     UcStore::with_persistence(SetAdt::new(), 0, 4, factory, persist.clone());
//! store.update(7, SetUpdate::Insert(1));
//! store.flush_backends(); // durability point
//! drop(store); // "kill"
//! let mut back: UcStore<SetAdt<u32>, CheckpointFactory, SegmentFactory> =
//!     UcStore::reopen(SetAdt::new(), 0, 4, factory, persist);
//! assert_eq!(back.materialize_key(7).len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod frame;
pub mod scratch;
pub mod segment;

pub use codec::{Codec, Reader};
pub use frame::{crc32, FrameReader, FrameScanner};
pub use scratch::ScratchDir;
pub use segment::{IoCounts, SegmentBackend, SegmentFactory};
