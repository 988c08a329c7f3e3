//! # uc-obs — the telemetry substrate
//!
//! A dependency-free observability layer the rest of the workspace
//! leans on instead of growing ad-hoc counter structs per crate:
//!
//! * [`registry`] — a lock-free atomic metrics registry. Named
//!   [`Counter`]/[`Gauge`]/[`Histogram`] handles are created (or
//!   looked up) once through a [`Registry`] and then bumped with plain
//!   relaxed atomics — registration takes a short mutex, the hot path
//!   never does. [`Registry::snapshot`] freezes everything into a
//!   [`MetricsSnapshot`] with [`MetricsSnapshot::render_prometheus`]
//!   and [`MetricsSnapshot::to_json`] exporters (hand-rolled text;
//!   this crate depends on nothing).
//! * [`trace`] — [`TraceRing`], a bounded ring buffer of fixed-size
//!   [`TraceEvent`]s (delivery → repair → publish spans) cheap enough
//!   to leave on in production, with a [`TraceRing::drain`] API and an
//!   overflow counter instead of silent loss.
//! * [`health`] — [`Health`], the one-glance surface a store, pool, or
//!   cluster folds its down-peer watermarks, poison state, and
//!   online-monitor verdict into.
//!
//! The crate is a leaf on purpose: `uc-sim`, `uc-core`, and
//! `uc-runtime` all depend on it (their `Metrics`, store/pool stats,
//! and reactor counters export into a shared [`Registry`]), so it may
//! depend on none of them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod health;
pub mod registry;
pub mod trace;

pub use health::{Health, HealthStatus};
pub use registry::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, Registry};
pub use trace::{TraceEvent, TraceKind, TraceRing};
