//! The process/protocol abstraction of the system model (§VII-A).
//!
//! Processes are sequential, communicate only by message passing, and
//! must complete every operation **without waiting** for any other
//! process ([`Protocol::on_invoke`] returns the output synchronously —
//! wait-freedom is structural, not a liveness proof obligation). A
//! crashed process simply stops being scheduled.

use std::fmt::Debug;

/// Process identifier (dense, `0..n`).
pub type Pid = u32;

/// A replicated-object protocol: the state machine one process runs.
pub trait Protocol {
    /// Messages exchanged between processes.
    type Msg: Clone + Debug;
    /// Operation invocations arriving from the application.
    type Input: Clone + Debug;
    /// Operation responses returned to the application.
    type Output: Clone + Debug;

    /// Handle an application invocation. Must complete locally — the
    /// only effects besides the returned output are messages pushed to
    /// `ctx` (this is the wait-free contract).
    fn on_invoke(&mut self, input: Self::Input, ctx: &mut Ctx<'_, Self::Msg>) -> Self::Output;

    /// Handle a message from `from`.
    fn on_message(&mut self, from: Pid, msg: Self::Msg, ctx: &mut Ctx<'_, Self::Msg>);

    /// Handle a burst of messages flushed to this process together.
    ///
    /// Both runtimes coalesce deliveries when batching is enabled (the
    /// simulator aligns delivery times to a flush window, the event
    /// runtime drains a node's mailbox greedily) and hand the burst
    /// here in one activation. The default unbundles the batch into
    /// [`Protocol::on_message`] calls; protocols with a cheaper bulk
    /// ingest path (e.g. replicas that repair their state once per
    /// batch instead of once per message) override it.
    fn on_batch(&mut self, msgs: Vec<(Pid, Self::Msg)>, ctx: &mut Ctx<'_, Self::Msg>) {
        for (from, msg) in msgs {
            self.on_message(from, msg, ctx);
        }
    }

    /// Periodic maintenance fired by a timer-driven runtime (the event
    /// runtime fires one sweep over every node per configured
    /// interval). Protocols use it for work that must happen even when
    /// no traffic arrives — stability heartbeats, per-key log
    /// compaction — and may push messages to `ctx` like any other
    /// activation. The default does nothing, so protocols without
    /// background work run unchanged on timer-driven runtimes.
    fn on_tick(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        let _ = ctx;
    }
}

/// Per-activation context: identity, cluster size, current time, and
/// the outbox.
pub struct Ctx<'a, M> {
    pid: Pid,
    n: usize,
    now: u64,
    outbox: &'a mut Vec<(Pid, M)>,
}

impl<'a, M: Clone> Ctx<'a, M> {
    /// Build a context (used by the runtimes).
    pub fn new(pid: Pid, n: usize, now: u64, outbox: &'a mut Vec<(Pid, M)>) -> Self {
        Ctx {
            pid,
            n,
            now,
            outbox,
        }
    }

    /// This process's id.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// Number of processes in the system.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Current time, in the executor's unit: virtual time in the
    /// simulator, 1 ms ticks since spawn on `uc-runtime`'s
    /// `EventCluster` (where a maintenance tick reads the tick its
    /// sweep fired at). Replicas order updates by Lamport clocks, not
    /// by `now`; [`ReliableLink`](crate::ReliableLink) schedules every
    /// retransmit from it, so [`RetryConfig`](crate::RetryConfig)'s
    /// `base` and `max_backoff` are in this unit.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Send `msg` to process `to`.
    pub fn send(&mut self, to: Pid, msg: M) {
        self.outbox.push((to, msg));
    }

    /// Send `msg` to every *other* process (the paper's broadcast
    /// includes the sender, whose copy is received instantaneously —
    /// protocols model that by applying locally inside `on_invoke`).
    pub fn broadcast_others(&mut self, msg: M) {
        for to in 0..self.n as Pid {
            if to != self.pid {
                self.outbox.push((to, msg.clone()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_excludes_self() {
        let mut outbox = Vec::new();
        let mut ctx: Ctx<'_, &str> = Ctx::new(1, 4, 0, &mut outbox);
        ctx.broadcast_others("m");
        let dests: Vec<Pid> = outbox.iter().map(|(to, _)| *to).collect();
        assert_eq!(dests, vec![0, 2, 3]);
    }

    #[test]
    fn send_targets_one() {
        let mut outbox = Vec::new();
        {
            let mut ctx: Ctx<'_, u32> = Ctx::new(0, 2, 5, &mut outbox);
            ctx.send(1, 9);
            assert_eq!(ctx.now(), 5);
            assert_eq!(ctx.n(), 2);
            assert_eq!(ctx.pid(), 0);
        }
        assert_eq!(outbox, vec![(1, 9)]);
    }
}
