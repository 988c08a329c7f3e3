//! The simulated network: per-link latency/loss/duplication/reorder
//! models and outage windows.
//!
//! Every [`Simulation`](crate::scheduler::Simulation) runs over one
//! [`Topology`]. The one it builds carries the configured latency on
//! every link and nothing else: the paper's reliable asynchronous
//! network. An outage window describes both kinds of cut:
//!
//! * [`Cut::Hold`] — the paper's model (§VII-A): a partition only
//!   *delays* traffic, and a held message is delivered when the window
//!   ends;
//! * [`Cut::Drop`] — the partitionable-systems model of arXiv
//!   1501.02175: a message sent into the window is lost.
//!
//! Loss and duplication draws, and reorder jitter, go further from the
//! paper's network. On a dropping network a bare protocol loses
//! updates; the `reliable` module layers sequence-numbered
//! retransmission on top, and the store layers reconciliation-on-heal
//! above that.
//!
//! All randomness is drawn from the simulation's own `SplitMix64`, so
//! a seeded lossy run replays identically.

use crate::network::LatencyModel;
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
    /// independent of the base latency. It reorders a link only where
    /// `SimConfig::fifo_links` is off.
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

    /// Delays for one transmission at `now`: `None` if lost, else the
    /// first copy's delay and, if duplicated, the second copy's.
    fn draw(&self, now: u64, rng: &mut SplitMix64) -> Option<(u64, Option<u64>)> {
        if self.loss > 0.0 && rng.next_f64() < self.loss {
            return None;
        }
        let duplicated = self.duplicate > 0.0 && rng.next_f64() < self.duplicate;
        let mut delay = || {
            let d = self.latency.sample(now, rng);
            if self.reorder > 0 {
                d + rng.next_range(0, self.reorder)
            } else {
                d
            }
        };
        let first = delay();
        Some((first, duplicated.then(delay)))
    }
}

/// What an outage does to the traffic it cuts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cut {
    /// Checked at delivery: a message arriving inside the window waits
    /// for its end (counted in `messages_delayed_by_partition`).
    /// Overlapping windows chain.
    Hold,
    /// Checked at send: a message sent inside the window is lost
    /// (counted in `messages_dropped`).
    Drop,
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
    /// Whether the outage holds or drops what it cuts.
    pub cut: Cut,
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

    /// Partition the cluster into `groups` during `[start, end)`: every
    /// ordered pair not inside one group gets an outage of kind `cut`.
    /// A pid listed in no group is isolated, from the other unlisted
    /// pids too.
    ///
    /// # Panics
    ///
    /// If a pid is outside the cluster, or is listed twice: membership
    /// must be unambiguous, or a mistyped group would silently cut off
    /// the pid it left out.
    pub fn partition(&mut self, groups: Vec<Vec<Pid>>, start: u64, end: u64, cut: Cut) {
        let mut group_of = vec![None; self.n];
        for (g, members) in groups.iter().enumerate() {
            for &p in members {
                let slot = group_of
                    .get_mut(p as usize)
                    .unwrap_or_else(|| panic!("pid {p} is outside the cluster of {}", self.n));
                assert!(
                    slot.replace(g).is_none(),
                    "pid {p} appears in more than one partition group"
                );
            }
        }
        for from in 0..self.n {
            for to in 0..self.n {
                if from != to && (group_of[from].is_none() || group_of[from] != group_of[to]) {
                    self.add_outage(LinkOutage {
                        from: from as Pid,
                        to: to as Pid,
                        start,
                        end,
                        cut,
                    });
                }
            }
        }
    }

    /// The ends of the `cut` outages of `from → to` in force at `t`.
    fn covering(&self, from: Pid, to: Pid, t: u64, cut: Cut) -> impl Iterator<Item = u64> + '_ {
        self.outages
            .iter()
            .filter(move |o| {
                o.cut == cut
                    && o.from == from
                    && o.to == to
                    && from != to
                    && (o.start..o.end).contains(&t)
            })
            .map(|o| o.end)
    }

    /// Plan one transmission sent at `now`: `None` when a dropping
    /// outage or a loss draw takes it, else the first copy's delay and
    /// a duplicate's, if any.
    pub fn plan(
        &self,
        from: Pid,
        to: Pid,
        now: u64,
        rng: &mut SplitMix64,
    ) -> Option<(u64, Option<u64>)> {
        if self.covering(from, to, now, Cut::Drop).next().is_some() {
            return None;
        }
        self.link(from, to).draw(now, rng)
    }

    /// Earliest time ≥ `t` at which no holding outage covers
    /// `from → to`; `None` if none covers it at `t`. Overlapping
    /// windows chain: each step leaves the latest-ending window in
    /// force.
    pub(crate) fn next_open(&self, from: Pid, to: Pid, t: u64) -> Option<u64> {
        let mut open = self.covering(from, to, t, Cut::Hold).max()?;
        while let Some(end) = self.covering(from, to, open, Cut::Hold).max() {
            open = end;
        }
        Some(open)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Is `from → to` inside a `cut` outage at `t`?
    fn down(t: &Topology, from: Pid, to: Pid, at: u64, cut: Cut) -> bool {
        t.covering(from, to, at, cut).next().is_some()
    }

    #[test]
    fn default_link_is_reliable_and_instant_ish() {
        let t = Topology::uniform(2, LinkModel::default());
        let mut rng = SplitMix64::new(1);
        for _ in 0..50 {
            assert_eq!(t.plan(0, 1, 0, &mut rng), Some((1, None)));
        }
    }

    #[test]
    fn loss_drops_roughly_at_rate() {
        let t = Topology::uniform(2, LinkModel::lossy(LatencyModel::Constant(1), 0.5));
        let mut rng = SplitMix64::new(7);
        let lost = (0..1000)
            .filter(|_| t.plan(0, 1, 0, &mut rng).is_none())
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
        assert_eq!(t.plan(0, 1, 0, &mut rng), Some((1, Some(1))));
    }

    #[test]
    fn outage_windows_drop_then_heal() {
        let mut t = Topology::uniform(3, LinkModel::default());
        for (from, to) in [(0, 1), (1, 0)] {
            t.add_outage(LinkOutage {
                from,
                to,
                start: 10,
                end: 20,
                cut: Cut::Drop,
            });
        }
        let mut rng = SplitMix64::new(1);
        assert!(t.plan(0, 1, 9, &mut rng).is_some());
        assert!(t.plan(0, 1, 10, &mut rng).is_none());
        assert!(t.plan(1, 0, 19, &mut rng).is_none());
        assert!(t.plan(0, 1, 20, &mut rng).is_some());
        assert!(
            t.plan(0, 2, 15, &mut rng).is_some(),
            "other links unaffected"
        );
        assert_eq!(
            t.next_open(0, 1, 15),
            None,
            "a dropping outage holds nothing"
        );
    }

    #[test]
    fn partition_expands_to_per_link_outages() {
        let mut t = Topology::uniform(4, LinkModel::default());
        // {0,1} vs {2}; pid 3 unlisted → isolated.
        t.partition(vec![vec![0, 1], vec![2]], 10, 20, Cut::Drop);
        assert!(!down(&t, 0, 1, 15, Cut::Drop));
        assert!(down(&t, 0, 2, 15, Cut::Drop));
        assert!(down(&t, 2, 1, 15, Cut::Drop));
        assert!(down(&t, 3, 0, 15, Cut::Drop));
        assert!(down(&t, 0, 3, 15, Cut::Drop));
        assert!(!down(&t, 0, 2, 20, Cut::Drop), "healed");
        assert!(!down(&t, 0, 2, 15, Cut::Hold), "the cut is a drop");
        assert_eq!(t.outages.len(), 4 * 3 - 2, "every ordered pair but 0↔1");
    }

    #[test]
    #[should_panic(expected = "pid 4 is outside the cluster of 4")]
    fn a_pid_outside_the_cluster_is_rejected() {
        // A mistyped 4 for 3 would otherwise leave pid 3 unlisted, and
        // so silently isolated.
        let mut t = Topology::uniform(4, LinkModel::default());
        t.partition(vec![vec![0, 1], vec![2, 4]], 0, 10, Cut::Hold);
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
        assert_eq!(t.plan(0, 1, 0, &mut rng), Some((42, None)));
        assert_eq!(t.plan(1, 0, 0, &mut rng), Some((1, None)));
    }
}
