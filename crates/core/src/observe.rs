//! Shared observability glue: exporting monitor counters into a
//! metrics registry.
//!
//! A replica of either kind streams [`MonitorStats`] as metrics
//! ([`Node::export_metrics`](crate::node::Node::export_metrics)); one
//! derivation point here keeps the metric names identical on every
//! runtime (the test
//! `online_monitor::a_sampled_monitor_never_perturbs_the_store_and_exports_what_it_saw`
//! checks them).

use uc_criteria::online::MonitorStats;
use uc_obs::Registry;

/// Mirror a monitor's counters into `reg` under `uc_monitor_*`
/// names. Counters use absolute mirroring ([`uc_obs::Counter::set`])
/// — the monitor's own counts are the source of truth.
pub fn export_monitor_stats(stats: &MonitorStats, reg: &Registry) {
    reg.gauge("uc_monitor_sampled_keys")
        .set(stats.sampled_keys as i64);
    reg.counter("uc_monitor_sampled_updates_total")
        .set(stats.sampled_updates);
    reg.counter("uc_monitor_sampled_queries_total")
        .set(stats.sampled_queries);
    reg.counter("uc_monitor_sampled_cuts_total")
        .set(stats.sampled_cuts);
    reg.counter("uc_monitor_uc_violations_total")
        .set(stats.uc_violations);
    reg.counter("uc_monitor_ec_violations_total")
        .set(stats.ec_violations);
    reg.counter("uc_monitor_sec_violations_total")
        .set(stats.sec_violations);
    reg.counter("uc_monitor_snap_violations_total")
        .set(stats.snap_violations);
    reg.counter("uc_monitor_below_floor_arrivals_total")
        .set(stats.below_floor_arrivals);
    reg.counter("uc_monitor_window_evictions_total")
        .set(stats.window_evictions);
    reg.gauge("uc_monitor_lossy_keys")
        .set(stats.lossy_keys as i64);
    reg.counter("uc_monitor_skipped_checks_total")
        .set(stats.skipped_checks);
    reg.counter("uc_monitor_finalized_updates_total")
        .set(stats.finalized_updates);
    reg.gauge("uc_monitor_stable_bound")
        .set(stats.stable_bound as i64);
    reg.counter("uc_monitor_ticks_total").set(stats.ticks);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exports_every_monitor_counter() {
        let stats = MonitorStats {
            sampled_keys: 3,
            sampled_updates: 10,
            uc_violations: 1,
            stable_bound: 42,
            ..MonitorStats::default()
        };
        let reg = Registry::new();
        export_monitor_stats(&stats, &reg);
        let snap = reg.snapshot();
        assert_eq!(snap.gauge("uc_monitor_sampled_keys"), Some(3));
        assert_eq!(snap.counter("uc_monitor_sampled_updates_total"), Some(10));
        assert_eq!(snap.counter("uc_monitor_uc_violations_total"), Some(1));
        assert_eq!(snap.gauge("uc_monitor_stable_bound"), Some(42));
        let text = snap.render_prometheus();
        assert!(text.contains("uc_monitor_sec_violations_total 0"));
        assert!(text.contains("uc_monitor_ticks_total 0"));
    }
}
