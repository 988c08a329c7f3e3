//! # uc-sim — the wait-free asynchronous message-passing substrate
//!
//! The paper's system model (§VII-A): a finite set of sequential
//! processes over a complete, reliable, asynchronous network, where
//! any number of processes may crash and every operation must complete
//! on local knowledge alone (wait-freedom). We do not have a cluster;
//! this crate provides the executor that exercises exactly the
//! behaviours the algorithms depend on, and that every other executor
//! is checked against:
//!
//! * [`scheduler::Simulation`] — a **deterministic discrete-event
//!   simulator**: seeded latency models ([`network::LatencyModel`],
//!   whose `Adversarial` variant is the Proposition 1 adversary),
//!   per-link FIFO or reordering delivery, crash injection, invocation
//!   traces ([`trace`]) and accounting ([`metrics`], experiment E7).
//!   Its network is one [`topology::Topology`]: per-link latency,
//!   loss, duplication and reorder, and outage windows that either
//!   **hold** messages until the heal (the paper's reliable network)
//!   or **drop** them (the partitionable-systems model).
//!   [`reliable::ReliableLink`] restores eventual delivery over a
//!   dropping network via sequence-numbered retransmission with
//!   backoff.
//!
//! Protocols implement [`process::Protocol`] once and run unchanged
//! here and on the event-driven `EventCluster` of the `uc-runtime`
//! crate, which multiplexes thousands of instances onto a small pool
//! of real threads. The [`harness::ClusterHarness`] trait is the
//! runtime-generic driving surface (invoke/quiesce/metrics/teardown)
//! both implement, and [`harness::NodeError`] the typed error a
//! thread-backed runtime reports when a node's activation panics.
//! [`workload`] generates the random and conflict workloads of the
//! §VI/§VII experiments; [`rng`] provides the seeded PRNG and Zipf
//! sampler everything shares.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod detector;
pub mod harness;
pub mod metrics;
pub mod network;
pub mod process;
pub mod reliable;
pub mod rng;
pub mod scheduler;
pub mod topology;
pub mod trace;
pub mod workload;

pub use detector::{HeartbeatDetector, MembershipInput};
pub use harness::{ClusterHarness, NodeError};
pub use metrics::{LinkCounters, Metrics};
pub use network::{DeliveryMode, LatencyModel};
pub use process::{Ctx, Pid, Protocol};
pub use reliable::{LinkMsg, LinkStats, ReliableLink, RetryConfig};
pub use rng::{SplitMix64, Zipf};
pub use scheduler::{SimConfig, Simulation};
pub use topology::{Cut, LinkModel, LinkOutage, Topology};
pub use trace::InvocationRecord;
pub use workload::{
    generate_keyed, perturb_order, KeyedOp, KeyedWorkloadSpec, ScheduledOp, SetOpKind, WorkloadSpec,
};
