//! Network model: latency distributions and delivery modes. Links,
//! their loss and reordering, and partitions are described by the
//! simulation's [`Topology`](crate::topology::Topology).
//!
//! The paper's system model is a complete, reliable, asynchronous
//! network: no bound on transfer delays, but every message between
//! correct processes is eventually received. The latency models here
//! all preserve reliability; [`LatencyModel::Adversarial`] realises
//! "unbounded but finite" delays by stretching chosen links until a
//! configured release time — the device used in Proposition 1's proof
//! ("it is impossible for p1 to distinguish a crashed p2 from delayed
//! messages").

use crate::rng::SplitMix64;

/// Message latency distribution.
#[derive(Clone, Debug)]
pub enum LatencyModel {
    /// Every message takes exactly this long.
    Constant(u64),
    /// Uniform in `[lo, hi]` — the default asynchronous-ish model.
    Uniform(u64, u64),
    /// Cross-process messages are withheld until `release`, then
    /// behave as `Uniform(lo, hi)` — the Prop. 1 adversary.
    Adversarial {
        /// Time before which every cross-process message is held.
        release: u64,
        /// Post-release uniform latency low bound.
        lo: u64,
        /// Post-release uniform latency high bound.
        hi: u64,
    },
}

impl LatencyModel {
    /// Delay for a message sent at `now`, drawn with `rng`.
    pub fn sample(&self, now: u64, rng: &mut SplitMix64) -> u64 {
        match *self {
            LatencyModel::Constant(d) => d,
            LatencyModel::Uniform(lo, hi) => rng.next_range(lo, hi),
            LatencyModel::Adversarial { release, lo, hi } => {
                let base = rng.next_range(lo, hi);
                if now < release {
                    (release - now) + base
                } else {
                    base
                }
            }
        }
    }
}

/// When the network hands messages to a process.
///
/// Batching models real transports that flush receive buffers on a
/// timer or readiness notification (Nagle, epoll wakeups, gRPC stream
/// frames): several messages arrive in one activation. It never
/// delays a message by more than the window, and FIFO links keep
/// their per-link send order through a flush: alignment is monotone,
/// and messages colliding on the same flush instant are handed over
/// in send order. (As in per-message mode, FIFO across *partition*
/// delays is best-effort — a held message can heal onto a later
/// instant than an unblocked successor.)
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DeliveryMode {
    /// Every message is its own `Protocol::on_message` activation.
    #[default]
    PerMessage,
    /// Delivery times are rounded up to the next multiple of `window`
    /// (> 0) and same-instant deliveries to a process are flushed as
    /// one `Protocol::on_batch`.
    Batched {
        /// Flush interval, in simulated time units.
        window: u64,
    },
}

impl DeliveryMode {
    /// Align a tentative delivery time to this mode's flush grid.
    pub fn align(&self, t: u64) -> u64 {
        match *self {
            DeliveryMode::PerMessage => t,
            DeliveryMode::Batched { window } => {
                assert!(window > 0, "batch window must be positive");
                t.div_ceil(window) * window
            }
        }
    }

    /// Is batched flushing enabled?
    pub fn is_batched(&self) -> bool {
        matches!(self, DeliveryMode::Batched { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{Cut, LinkModel, Topology};

    /// `n` processes on default links, cut into `groups` by a holding
    /// partition for each `[start, end)` window.
    fn held(n: usize, cuts: &[(&[&[u32]], u64, u64)]) -> Topology {
        let mut t = Topology::uniform(n, LinkModel::default());
        for (groups, start, end) in cuts {
            let groups = groups.iter().map(|g| g.to_vec()).collect();
            t.partition(groups, *start, *end, Cut::Hold);
        }
        t
    }

    #[test]
    fn constant_latency() {
        let mut rng = SplitMix64::new(1);
        assert_eq!(LatencyModel::Constant(5).sample(100, &mut rng), 5);
    }

    #[test]
    fn uniform_latency_in_bounds() {
        let mut rng = SplitMix64::new(1);
        for _ in 0..100 {
            let d = LatencyModel::Uniform(3, 9).sample(0, &mut rng);
            assert!((3..=9).contains(&d));
        }
    }

    #[test]
    fn adversarial_holds_until_release() {
        let mut rng = SplitMix64::new(1);
        let m = LatencyModel::Adversarial {
            release: 1000,
            lo: 1,
            hi: 2,
        };
        let d = m.sample(10, &mut rng);
        assert!(d >= 990, "delay {d} must reach past the release point");
        let d2 = m.sample(2000, &mut rng);
        assert!((1..=2).contains(&d2));
    }

    #[test]
    fn delivery_mode_alignment() {
        let per = DeliveryMode::PerMessage;
        assert_eq!(per.align(17), 17);
        assert!(!per.is_batched());
        let b = DeliveryMode::Batched { window: 10 };
        assert!(b.is_batched());
        assert_eq!(b.align(1), 10);
        assert_eq!(b.align(10), 10);
        assert_eq!(b.align(11), 20);
        assert_eq!(b.align(0), 0);
    }

    #[test]
    fn partition_blocks_across_groups() {
        let t = held(3, &[(&[&[0, 1], &[2]], 10, 20)]);
        assert_eq!(t.next_open(0, 2, 9), None);
        assert_eq!(t.next_open(0, 2, 10), Some(20));
        assert_eq!(t.next_open(2, 1, 19), Some(20));
        assert_eq!(t.next_open(0, 2, 20), None);
        assert_eq!(t.next_open(0, 1, 15), None, "same group");
        assert_eq!(t.next_open(2, 2, 15), None, "self-loops always connect");
    }

    #[test]
    fn unlisted_processes_are_isolated() {
        let t = held(5, &[(&[&[0, 1]], 0, 10)]);
        // grouped ↔ ungrouped: blocked in both directions
        assert_eq!(t.next_open(0, 3, 0), Some(10));
        assert_eq!(t.next_open(3, 0, 0), Some(10));
        // ungrouped ↔ ungrouped: isolated from each other too
        assert_eq!(t.next_open(3, 4, 0), Some(10));
        // self-loops always connect
        assert_eq!(t.next_open(3, 3, 0), None);
    }

    #[test]
    #[should_panic(expected = "more than one partition group")]
    fn duplicate_membership_rejected() {
        let _ = held(3, &[(&[&[0, 1], &[1, 2]], 0, 10)]);
    }

    #[test]
    fn next_open_chains_through_staggered_overlaps() {
        // Three windows where each starts inside the previous one:
        // next_open must walk the whole chain, and a link not affected
        // by a window must not be held by it.
        let t = held(
            4,
            &[
                (&[&[0], &[1, 2]], 0, 10),
                (&[&[0, 2], &[1]], 8, 16),
                (&[&[0], &[1, 2]], 15, 40),
            ],
        );
        assert_eq!(t.next_open(0, 1, 0), Some(40));
        assert_eq!(t.next_open(1, 0, 5), Some(40));
        // 1 → 2 is only blocked by the middle window.
        assert_eq!(t.next_open(1, 2, 9), Some(16));
        assert_eq!(t.next_open(1, 2, 16), None);
        // Unlisted pid 3 is isolated for every covering window.
        assert_eq!(t.next_open(3, 1, 0), Some(40));
    }

    #[test]
    fn next_open_finds_heal_time() {
        let mut t = held(2, &[(&[&[0], &[1]], 10, 20)]);
        assert_eq!(t.next_open(0, 1, 15), Some(20));
        assert_eq!(t.next_open(0, 1, 5), None);
        // overlapping windows chain
        t.partition(vec![vec![0], vec![1]], 18, 30, Cut::Hold);
        assert_eq!(t.next_open(0, 1, 15), Some(30));
    }
}
