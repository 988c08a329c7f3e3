//! The one-glance health surface.
//!
//! A store, pool, or cluster folds its partition view, poison state,
//! and (when attached) online-monitor verdict into a [`Health`] value.
//! The overall [`HealthStatus`] is the worst of its inputs, so an
//! operator reads one field before anything else.

/// Overall condition, worst-of of every folded signal.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthStatus {
    /// Every peer reachable, no poison, monitor (if any) clean.
    #[default]
    Healthy,
    /// Serving, but something needs attention: down peers or
    /// consistency-monitor violations.
    Degraded,
    /// An internal invariant broke (worker panic, poisoned pool);
    /// results can no longer be trusted.
    Poisoned,
}

impl std::fmt::Display for HealthStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            HealthStatus::Healthy => "healthy",
            HealthStatus::Degraded => "degraded",
            HealthStatus::Poisoned => "poisoned",
        };
        f.write_str(s)
    }
}

/// A point-in-time health report. [`Health::default`] is the healthy
/// baseline; callers fold degradations in and then call
/// [`Health::resolve`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Health {
    /// Worst-of summary of everything below.
    pub status: HealthStatus,
    /// `(pid, last_seen_clock)` for every peer currently marked down.
    pub down_peers: Vec<(u32, u64)>,
    /// The poison report, if an internal invariant broke.
    pub poisoned: Option<String>,
    /// Online-monitor verdict: `Some(true)` clean, `Some(false)`
    /// violations observed, `None` when no monitor is attached.
    pub monitor_clean: Option<bool>,
    /// Total consistency violations the monitor has counted.
    pub monitor_violations: u64,
    /// The stability watermark below which verdicts are final.
    pub stable_bound: u64,
}

impl Health {
    /// Recompute `status` as the worst implied by the folded fields.
    /// Explicitly raised statuses are kept (worst-of, never lowered).
    pub fn resolve(mut self) -> Self {
        let mut status = self.status;
        if !self.down_peers.is_empty() || self.monitor_clean == Some(false) {
            status = status.max(HealthStatus::Degraded);
        }
        if self.poisoned.is_some() {
            status = status.max(HealthStatus::Poisoned);
        }
        self.status = status;
        self
    }

    /// A compact multi-line text report for logs and examples.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "status: {}", self.status);
        if self.down_peers.is_empty() {
            let _ = writeln!(out, "down_peers: none");
        } else {
            let peers: Vec<String> = self
                .down_peers
                .iter()
                .map(|(p, c)| format!("p{p}@{c}"))
                .collect();
            let _ = writeln!(out, "down_peers: {}", peers.join(" "));
        }
        if let Some(p) = &self.poisoned {
            let _ = writeln!(out, "poisoned: {p}");
        }
        match self.monitor_clean {
            Some(true) => {
                let _ = writeln!(out, "monitor: clean (stable_bound {})", self.stable_bound);
            }
            Some(false) => {
                let _ = writeln!(
                    out,
                    "monitor: {} violation(s) (stable_bound {})",
                    self.monitor_violations, self.stable_bound
                );
            }
            None => {
                let _ = writeln!(out, "monitor: not attached");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_baseline() {
        let h = Health::default().resolve();
        assert_eq!(h.status, HealthStatus::Healthy);
        assert!(h.render().contains("status: healthy"));
        assert!(h.render().contains("monitor: not attached"));
    }

    #[test]
    fn down_peers_degrade() {
        let mut h = Health::default();
        h.down_peers.push((2, 17));
        let h = h.resolve();
        assert_eq!(h.status, HealthStatus::Degraded);
        assert!(h.render().contains("down_peers: p2@17"));
    }

    #[test]
    fn poison_beats_all() {
        let mut h = Health {
            down_peers: vec![(1, 3)],
            monitor_clean: Some(false),
            ..Health::default()
        };
        assert_eq!(h.clone().resolve().status, HealthStatus::Degraded);
        h.poisoned = Some("worker panic".into());
        let h = h.resolve();
        assert_eq!(h.status, HealthStatus::Poisoned);
        assert!(h.render().contains("poisoned: worker panic"));
    }

    #[test]
    fn monitor_violations_degrade() {
        let h = Health {
            monitor_clean: Some(false),
            monitor_violations: 2,
            ..Health::default()
        }
        .resolve();
        assert_eq!(h.status, HealthStatus::Degraded);
        assert!(h.render().contains("2 violation(s)"));
    }

    #[test]
    fn explicit_status_is_never_lowered() {
        let h = Health {
            status: HealthStatus::Degraded,
            ..Health::default()
        };
        assert_eq!(h.resolve().status, HealthStatus::Degraded);
    }
}
