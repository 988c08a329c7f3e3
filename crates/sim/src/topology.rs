//! Network-realistic topology: per-link latency/loss/duplication/
//! reorder models and outage windows.
//!
//! The base simulator models the paper's network — reliable and
//! asynchronous, where partitions only *delay* traffic. Installing a
//! [`Topology`] (via `Simulation::set_topology`) switches the network
//! to the partitionable-systems model of arXiv 1501.02175: a link that
//! is down or lossy **drops** messages, duplication injects
//! extra copies, and reorder jitter breaks FIFO. On such a network a
//! bare protocol loses updates; the `reliable` module layers
//! sequence-numbered retransmission on top, and the store layers
//! reconciliation-on-heal above that.
//!
//! All randomness is drawn from the simulation's own `SplitMix64`, so
//! a seeded lossy run replays identically.

use crate::network::{LatencyModel, Partition};
use crate::process::Pid;
use crate::rng::SplitMix64;
use std::collections::HashMap;

/// Behavior of one directed link.
#[derive(Clone, Debug)]
pub struct LinkModel {
    /// Propagation delay distribution.
    pub latency: LatencyModel,
    /// Probability in `[0, 1]` that a transmission is silently lost.
    pub loss: f64,
    /// Probability in `[0, 1]` that a surviving transmission is
    /// delivered twice (each copy with its own delay draw).
    pub duplicate: f64,
    /// Extra per-copy jitter drawn uniformly from `[0, reorder]`,
    /// independent of the base latency — deliberately breaks per-link
    /// FIFO so reordering is exercised.
    pub reorder: u64,
}

impl Default for LinkModel {
    fn default() -> Self {
        LinkModel {
            latency: LatencyModel::Constant(1),
            loss: 0.0,
            duplicate: 0.0,
            reorder: 0,
        }
    }
}

impl LinkModel {
    /// A lossy link: `latency` plus i.i.d. loss probability `loss`.
    pub fn lossy(latency: LatencyModel, loss: f64) -> Self {
        assert!((0.0..=1.0).contains(&loss), "loss must be a probability");
        LinkModel {
            latency,
            loss,
            ..LinkModel::default()
        }
    }

    /// Delivery delays for one transmission at `now`: empty if lost,
    /// one entry normally, two if duplicated.
    fn draw(&self, now: u64, rng: &mut SplitMix64) -> SendPlan {
        if self.loss > 0.0 && rng.next_f64() < self.loss {
            return SendPlan { delays: Vec::new() };
        }
        let copies = if self.duplicate > 0.0 && rng.next_f64() < self.duplicate {
            2
        } else {
            1
        };
        let mut delays = Vec::with_capacity(copies);
        for _ in 0..copies {
            let mut d = self.latency.sample(now, rng);
            if self.reorder > 0 {
                d += rng.next_range(0, self.reorder);
            }
            delays.push(d);
        }
        SendPlan { delays }
    }
}

/// What happens to one transmission: each entry is the delay of one
/// delivered copy. Empty = dropped (lost or link down).
#[derive(Clone, Debug)]
pub struct SendPlan {
    /// Per-copy delivery delays.
    pub delays: Vec<u64>,
}

/// A scheduled outage of one directed link during `[start, end)`.
#[derive(Clone, Debug)]
pub struct LinkOutage {
    /// Sending endpoint.
    pub from: Pid,
    /// Receiving endpoint.
    pub to: Pid,
    /// Outage start (inclusive).
    pub start: u64,
    /// Outage end (exclusive) — the heal time.
    pub end: u64,
}

/// The full network: a default link model, per-link overrides, and
/// outage windows.
#[derive(Clone, Debug, Default)]
pub struct Topology {
    n: usize,
    default_link: LinkModel,
    overrides: HashMap<(Pid, Pid), LinkModel>,
    outages: Vec<LinkOutage>,
}

impl Topology {
    /// A topology of `n` processes where every link uses `default_link`.
    pub fn uniform(n: usize, default_link: LinkModel) -> Self {
        Topology {
            n,
            default_link,
            ..Topology::default()
        }
    }

    /// Number of processes this topology spans.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Override one directed link's model.
    pub fn set_link(&mut self, from: Pid, to: Pid, model: LinkModel) {
        self.overrides.insert((from, to), model);
    }

    /// The model governing `from → to`.
    pub fn link(&self, from: Pid, to: Pid) -> &LinkModel {
        self.overrides
            .get(&(from, to))
            .unwrap_or(&self.default_link)
    }

    /// Schedule a one-directional outage window.
    pub fn add_outage(&mut self, outage: LinkOutage) {
        assert!(outage.start <= outage.end);
        self.outages.push(outage);
    }

    /// Schedule symmetric outages for both directions of `a ↔ b`.
    pub fn add_outage_pair(&mut self, a: Pid, b: Pid, start: u64, end: u64) {
        self.add_outage(LinkOutage {
            from: a,
            to: b,
            start,
            end,
        });
        self.add_outage(LinkOutage {
            from: b,
            to: a,
            start,
            end,
        });
    }

    /// Partition the cluster into `groups` during `[start, end)` by
    /// expanding every blocked ordered pair into a link outage —
    /// unlisted pids are isolated, exactly as [`Partition::connected`]
    /// defines. Unlike the legacy `PartitionSchedule` (delay, never
    /// drop), messages sent into a topology outage are **dropped**.
    pub fn partition(&mut self, groups: Vec<Vec<Pid>>, start: u64, end: u64) {
        let p = Partition::new(groups, start, end);
        for from in 0..self.n as Pid {
            for to in 0..self.n as Pid {
                if from != to && !p.connected(from, to) {
                    self.add_outage(LinkOutage {
                        from,
                        to,
                        start,
                        end,
                    });
                }
            }
        }
    }

    /// Is `from → to` down (inside an outage window) at time `t`?
    pub fn is_down(&self, from: Pid, to: Pid, t: u64) -> bool {
        if from == to {
            return false;
        }
        self.outages
            .iter()
            .any(|o| o.from == from && o.to == to && t >= o.start && t < o.end)
    }

    /// Plan one transmission: `None`-like empty plan when the link is
    /// down, otherwise the link model's loss/duplication/delay draws.
    pub fn plan(&self, from: Pid, to: Pid, now: u64, rng: &mut SplitMix64) -> SendPlan {
        if self.is_down(from, to, now) {
            return SendPlan { delays: Vec::new() };
        }
        self.link(from, to).draw(now, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_link_is_reliable_and_instant_ish() {
        let t = Topology::uniform(2, LinkModel::default());
        let mut rng = SplitMix64::new(1);
        for _ in 0..50 {
            let plan = t.plan(0, 1, 0, &mut rng);
            assert_eq!(plan.delays, vec![1]);
        }
    }

    #[test]
    fn loss_drops_roughly_at_rate() {
        let t = Topology::uniform(2, LinkModel::lossy(LatencyModel::Constant(1), 0.5));
        let mut rng = SplitMix64::new(7);
        let lost = (0..1000)
            .filter(|_| t.plan(0, 1, 0, &mut rng).delays.is_empty())
            .count();
        assert!((350..650).contains(&lost), "lost {lost} of 1000 at p=0.5");
    }

    #[test]
    fn duplication_yields_two_copies() {
        let model = LinkModel {
            duplicate: 1.0,
            ..LinkModel::default()
        };
        let t = Topology::uniform(2, model);
        let mut rng = SplitMix64::new(1);
        assert_eq!(t.plan(0, 1, 0, &mut rng).delays.len(), 2);
    }

    #[test]
    fn outage_windows_drop_then_heal() {
        let mut t = Topology::uniform(3, LinkModel::default());
        t.add_outage_pair(0, 1, 10, 20);
        assert!(!t.is_down(0, 1, 9));
        assert!(t.is_down(0, 1, 10));
        assert!(t.is_down(1, 0, 19));
        assert!(!t.is_down(0, 1, 20));
        assert!(!t.is_down(0, 2, 15), "other links unaffected");
        let mut rng = SplitMix64::new(1);
        assert!(t.plan(0, 1, 15, &mut rng).delays.is_empty());
        assert!(!t.plan(0, 1, 25, &mut rng).delays.is_empty());
    }

    #[test]
    fn partition_expands_to_per_link_outages() {
        let mut t = Topology::uniform(4, LinkModel::default());
        // {0,1} vs {2}; pid 3 unlisted → isolated.
        t.partition(vec![vec![0, 1], vec![2]], 10, 20);
        assert!(!t.is_down(0, 1, 15));
        assert!(t.is_down(0, 2, 15));
        assert!(t.is_down(2, 1, 15));
        assert!(t.is_down(3, 0, 15));
        assert!(t.is_down(0, 3, 15));
        assert!(!t.is_down(0, 2, 20), "healed");
    }

    #[test]
    fn per_link_overrides_take_precedence() {
        let mut t = Topology::uniform(2, LinkModel::default());
        t.set_link(
            0,
            1,
            LinkModel {
                latency: LatencyModel::Constant(42),
                ..LinkModel::default()
            },
        );
        let mut rng = SplitMix64::new(1);
        assert_eq!(t.plan(0, 1, 0, &mut rng).delays, vec![42]);
        assert_eq!(t.plan(1, 0, 0, &mut rng).delays, vec![1]);
    }
}
