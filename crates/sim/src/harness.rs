//! The runtime-generic harness for driving [`Protocol`] state
//! machines, plus the typed node-failure error a thread-backed
//! runtime reports.
//!
//! Two runtimes execute the same protocols: the deterministic
//! [`Simulation`](crate::scheduler::Simulation) and the event-driven
//! `EventCluster` (crate `uc-runtime`). Tests and benches that only
//! need *invoke → quiesce → inspect* semantics are written once
//! against [`ClusterHarness`] and run on both — which is what makes
//! the cross-runtime differential tests possible: the same driver
//! function produces states from each runtime and asserts them
//! identical.

use crate::metrics::Metrics;
use crate::process::{Pid, Protocol};
use crate::scheduler::Simulation;
use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// A node died mid-protocol (its activation panicked); the runtime
/// surfaces this from every later call that touches the node instead
/// of blocking forever. Mirrors `uc-core`'s `PoolError` for shard
/// workers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeError {
    /// The node whose activation panicked.
    pub node: Pid,
    /// The panic payload, if it was a string.
    pub message: String,
}

impl fmt::Display for NodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "node {} poisoned: activation panicked: {}",
            self.node, self.message
        )
    }
}

impl std::error::Error for NodeError {}

/// Extract a printable message from a caught panic payload (for a
/// runtime that turns node panics into [`NodeError`]s).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Per-node panic records shared between a runtime handle and its
/// workers. A record is written exactly once per node, *before* the
/// runtime tears down whatever channel the caller is blocked on, so
/// any caller that observes the dead node can read the reason
/// immediately. The poison count keeps the common no-poison probe
/// O(1) — quiesce spin loops call [`PoisonTable::first`] every few
/// microseconds, and scanning thousands of node slots on each probe
/// would steal real CPU from the workers draining the cluster.
#[derive(Debug)]
pub struct PoisonTable {
    slots: Vec<OnceLock<String>>,
    count: AtomicUsize,
}

impl PoisonTable {
    /// A clean table for `n` nodes.
    pub fn new(n: usize) -> Self {
        PoisonTable {
            slots: (0..n).map(|_| OnceLock::new()).collect(),
            count: AtomicUsize::new(0),
        }
    }

    /// Record `node`'s panic message (first writer wins).
    pub fn record(&self, node: Pid, message: String) {
        if self.slots[node as usize].set(message).is_ok() {
            self.count.fetch_add(1, Ordering::Release);
        }
    }

    /// The error for a node whose channel went dead. A missing record
    /// means the node exited some other way (never expected outside a
    /// clean shutdown).
    pub fn error_of(&self, node: Pid) -> NodeError {
        NodeError {
            node,
            message: self.slots[node as usize]
                .get()
                .cloned()
                .unwrap_or_else(|| "node exited unexpectedly".into()),
        }
    }

    /// The first poisoned node's error, if any node has panicked.
    pub fn first(&self) -> Option<NodeError> {
        if self.count.load(Ordering::Acquire) == 0 {
            return None;
        }
        self.slots.iter().enumerate().find_map(|(pid, slot)| {
            slot.get().map(|message| NodeError {
                node: pid as Pid,
                message: message.clone(),
            })
        })
    }
}

/// The quiescence spin of a thread-backed runtime: wait for the
/// in-flight counter to drain, surfacing a poisoned node instead of
/// waiting on messages a corpse can never process. The ordering is
/// load-bearing: a panicking activation drains its batch from the
/// counter only *after* recording its poison, so the re-check after a
/// stable zero can never miss a record and return a false `Ok`.
pub fn quiesce_spin(
    in_flight: &AtomicI64,
    poisoned: impl Fn() -> Option<NodeError>,
) -> Result<(), NodeError> {
    loop {
        if let Some(err) = poisoned() {
            return Err(err);
        }
        if in_flight.load(Ordering::SeqCst) == 0 {
            // Double-check after a yield: a node may be between
            // increment and send only while holding an invoke the
            // caller already returned from, so a stable zero is
            // genuine.
            std::thread::yield_now();
            if in_flight.load(Ordering::SeqCst) == 0 {
                return match poisoned() {
                    Some(err) => Err(err),
                    None => Ok(()),
                };
            }
        }
        std::thread::sleep(std::time::Duration::from_micros(50));
    }
}

/// A cluster of `n` protocol instances that can be invoked, drained,
/// observed, and torn down — the common surface of every runtime.
///
/// `invoke` takes `&mut self` so the deterministic simulator (whose
/// invocations mutate the event queue) can implement it; a
/// thread-backed runtime simply delegates to its `&self` entry
/// points.
pub trait ClusterHarness<P: Protocol> {
    /// Invoke an operation on `pid` and return its (local, wait-free)
    /// response; propagation to peers is asynchronous.
    ///
    /// # Panics
    ///
    /// If the node is dead (crashed in the simulator, poisoned in a
    /// thread-backed runtime). Runtimes expose `try_invoke` variants
    /// for callers that want the typed error.
    fn invoke(&mut self, pid: Pid, input: P::Input) -> P::Output;

    /// Block (or, deterministically, run) until every sent message has
    /// been processed.
    fn quiesce(&mut self);

    /// Snapshot the execution accounting.
    fn metrics(&self) -> Metrics;

    /// Tear the cluster down and return the final node states,
    /// quiescing first.
    fn into_nodes(self) -> Vec<P>
    where
        Self: Sized;
}

impl<P: Protocol> ClusterHarness<P> for Simulation<P> {
    fn invoke(&mut self, pid: Pid, input: P::Input) -> P::Output {
        self.invoke_now(pid, input)
            .expect("harness invoke on a crashed process")
    }

    fn quiesce(&mut self) {
        self.run_to_quiescence();
    }

    fn metrics(&self) -> Metrics {
        let mut m = self.metrics.clone();
        if let Some(c) = self.link_counters() {
            c.fold_into(&mut m);
        }
        m
    }

    fn into_nodes(mut self) -> Vec<P> {
        self.run_to_quiescence();
        self.into_processes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::Ctx;
    use crate::scheduler::SimConfig;

    #[derive(Debug, Default)]
    struct Gossip {
        seen: std::collections::BTreeSet<u32>,
    }

    impl Protocol for Gossip {
        type Msg = u32;
        type Input = u32;
        type Output = usize;

        fn on_invoke(&mut self, x: u32, ctx: &mut Ctx<'_, u32>) -> usize {
            self.seen.insert(x);
            ctx.broadcast_others(x);
            self.seen.len()
        }

        fn on_message(&mut self, _from: Pid, x: u32, _ctx: &mut Ctx<'_, u32>) {
            self.seen.insert(x);
        }
    }

    /// Written against the trait alone: `uc-runtime`'s tests run the
    /// same shape of driver on `EventCluster`.
    fn drive<H: ClusterHarness<Gossip>>(mut h: H) -> Vec<std::collections::BTreeSet<u32>> {
        for i in 0..12u32 {
            h.invoke((i % 3) as Pid, i);
        }
        h.quiesce();
        let m = h.metrics();
        assert_eq!(m.invocations, 12);
        assert_eq!(m.messages_delivered, 24);
        h.into_nodes().into_iter().map(|n| n.seen).collect()
    }

    #[test]
    fn the_simulation_runs_through_the_harness() {
        let sim = Simulation::new(SimConfig::default_async(3, 7), |_| Gossip::default());
        let a = drive(sim);
        let expect: std::collections::BTreeSet<u32> = (0..12).collect();
        assert_eq!(a, vec![expect.clone(), expect.clone(), expect]);
    }

    #[test]
    fn node_error_displays_node_and_payload() {
        let e = NodeError {
            node: 3,
            message: "boom".into(),
        };
        assert_eq!(format!("{e}"), "node 3 poisoned: activation panicked: boom");
    }
}
