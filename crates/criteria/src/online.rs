//! Streaming consistency monitoring: the offline checkers' folds in
//! incremental, windowed form.
//!
//! The offline procedures in this crate answer "was this trace
//! consistent?" after the fact. [`OnlineMonitor`] answers it *while
//! the system runs*: a store (or each pool worker) feeds it a sampled
//! fraction of its update/query/snapshot traffic, and the monitor
//! maintains, per sampled key, a shadow fold of the update total
//! order — a compacted `base` state plus a sliding window of updates
//! not yet below the stability watermark. Divergence between what the
//! replica serves and what the arbitration order says it should serve
//! surfaces as a violation counter within one tick window instead of
//! at trace end.
//!
//! ## Sampling
//!
//! Sampling is **by key**, not by event: a deterministic hash of
//! `key ^ SEED` (a fixed constant) against `sample_rate` decides
//! whether a key is shadowed, and a shadowed key's *entire* update
//! stream is observed. Per-event sampling would leave holes in the
//! fold and make every comparison a false positive; per-key sampling
//! keeps each shadow complete while still touching only
//! ~`sample_rate` of traffic.
//! Keys that existed before the monitor attached are excluded for the
//! same reason (their prefix was never observed).
//!
//! ## Windows and the stability watermark
//!
//! Each shadow's window is bounded by the stability watermark: the
//! minimum Lamport clock observed across the configured peer set
//! (the same bound `StableGc` compacts under — an update stamped at
//! or below the minimum peer clock can never be preceded by a
//! yet-unseen one, Proposition 4's argument). At every
//! [`OnlineMonitor::tick`], window entries at or below the watermark
//! fold into `base` and their verdicts become final. A window that
//! outgrows `MAX_WINDOW` (4096) entries before stability advances is
//! force-compacted and the shadow marked *lossy*: its checks are
//! skipped (and counted) rather than risk a false positive from an
//! incomplete window. The cap bounds a shadow's memory.
//!
//! ## What maps to which criterion
//!
//! * **UC** — a sampled query's served state must equal the shadow
//!   fold ([`OnlineMonitor::check_query_state`]).
//! * **EC** — at tick time, a sampled key's materialized state must
//!   equal the shadow fold ([`OnlineMonitor::check_tick_state`]):
//!   convergence to the fold of what was delivered.
//! * **SEC** — two different updates arriving under one stamp break
//!   arbitration uniqueness ([`OnlineMonitor::observe_update`]).
//! * **SNAP** — a recorded cut's per-key state must equal the shadow
//!   fold of the prefix `≤ cut` ([`OnlineMonitor::observe_cut`]).

use crate::fold::apply_ordered;
use crate::verdict::{Verdict, Witness};
use std::collections::{BTreeMap, HashMap, HashSet};
use uc_spec::UqAdt;

/// Seed for the key-sampling hash: every monitor at one rate shadows
/// the same key set.
const SEED: u64 = 0x5eed_0b5e;

/// Per-key window cap, a memory bound. A window forced past this
/// before stability advances is compacted and the shadow marked lossy.
const MAX_WINDOW: usize = 4096;

/// Configuration for an [`OnlineMonitor`].
#[derive(Clone, Debug, PartialEq)]
pub struct MonitorConfig {
    /// Fraction of keys to shadow in `[0, 1]`. `1.0` shadows every
    /// key; `0.0` disables observation entirely.
    pub sample_rate: f64,
    /// The pids (normally the whole cluster, own pid included) whose
    /// minimum observed clock is the stability watermark. Leave empty
    /// to never advance stability (windows then only compact lossily,
    /// once one outgrows the per-key cap of 4096 entries).
    pub peers: Vec<u32>,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            sample_rate: 1.0,
            peers: Vec::new(),
        }
    }
}

impl MonitorConfig {
    /// Shadow every key (the test/differential configuration).
    pub fn full() -> Self {
        MonitorConfig::default()
    }

    /// Shadow a `rate` fraction of keys.
    pub fn sampled(rate: f64) -> Self {
        MonitorConfig {
            sample_rate: rate,
            ..MonitorConfig::default()
        }
    }

    /// Replace the stability peer set.
    pub fn with_peers(mut self, peers: impl IntoIterator<Item = u32>) -> Self {
        self.peers = peers.into_iter().collect();
        self
    }
}

/// Counters a monitor streams out as metrics. All monotone except
/// `stable_bound`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MonitorStats {
    /// Distinct keys currently shadowed.
    pub sampled_keys: u64,
    /// Updates observed into shadow windows (duplicates excluded).
    pub sampled_updates: u64,
    /// Query states compared against shadow folds.
    pub sampled_queries: u64,
    /// Cut states compared against shadow prefix folds.
    pub sampled_cuts: u64,
    /// Query state ≠ shadow fold (update consistency broken).
    pub uc_violations: u64,
    /// Tick-time state ≠ shadow fold (convergence broken).
    pub ec_violations: u64,
    /// One stamp carried two different updates (arbitration broken).
    pub sec_violations: u64,
    /// Cut state ≠ shadow prefix fold (snapshot torn).
    pub snap_violations: u64,
    /// Updates that arrived stamped at or below an already-final
    /// bound. Informational: the engine's dedup floor rejects these
    /// identically, so they are not counted as violations.
    pub below_floor_arrivals: u64,
    /// Window entries force-compacted before stability covered them.
    pub window_evictions: u64,
    /// Shadows marked lossy (checks skipped) by forced compaction.
    pub lossy_keys: u64,
    /// Checks skipped because the shadow was lossy.
    pub skipped_checks: u64,
    /// Window entries whose verdicts became final under the
    /// stability watermark.
    pub finalized_updates: u64,
    /// The current stability watermark.
    pub stable_bound: u64,
    /// Maintenance ticks observed.
    pub ticks: u64,
}

impl MonitorStats {
    /// Sum of all violation classes.
    pub fn total_violations(&self) -> u64 {
        self.uc_violations + self.ec_violations + self.sec_violations + self.snap_violations
    }

    /// True when no violation of any class has been observed.
    pub fn clean(&self) -> bool {
        self.total_violations() == 0
    }

    /// The counters of two monitors watching disjoint keys of one
    /// replica (a pool's workers) as one: counts add, the stability
    /// watermark is the lower of the two, and `ticks` the higher (one
    /// maintenance round ticks every part once).
    pub fn merge(&self, other: &MonitorStats) -> MonitorStats {
        MonitorStats {
            sampled_keys: self.sampled_keys + other.sampled_keys,
            sampled_updates: self.sampled_updates + other.sampled_updates,
            sampled_queries: self.sampled_queries + other.sampled_queries,
            sampled_cuts: self.sampled_cuts + other.sampled_cuts,
            uc_violations: self.uc_violations + other.uc_violations,
            ec_violations: self.ec_violations + other.ec_violations,
            sec_violations: self.sec_violations + other.sec_violations,
            snap_violations: self.snap_violations + other.snap_violations,
            below_floor_arrivals: self.below_floor_arrivals + other.below_floor_arrivals,
            window_evictions: self.window_evictions + other.window_evictions,
            lossy_keys: self.lossy_keys + other.lossy_keys,
            skipped_checks: self.skipped_checks + other.skipped_checks,
            finalized_updates: self.finalized_updates + other.finalized_updates,
            stable_bound: self.stable_bound.min(other.stable_bound),
            ticks: self.ticks.max(other.ticks),
        }
    }
}

/// One sampled key's shadow of the update total order.
#[derive(Clone, Debug)]
struct Shadow<A: UqAdt> {
    /// Fold of every update stamped `clock ≤ base_bound`.
    base: A::State,
    /// The bound below which verdicts are final.
    base_bound: u64,
    /// Updates above the bound, keyed by stamp — `BTreeMap` iteration
    /// is the arbitration order.
    window: BTreeMap<(u64, u32), A::Update>,
    /// Forced compaction happened: the window may be incomplete, so
    /// equality checks are skipped for this key.
    lossy: bool,
}

/// The streaming monitor. See the module docs for the model.
#[derive(Clone, Debug)]
pub struct OnlineMonitor<A: UqAdt> {
    adt: A,
    cfg: MonitorConfig,
    /// `sample_rate` mapped onto the `u64` hash range.
    threshold: u64,
    shadows: HashMap<u64, Shadow<A>>,
    /// Keys that pre-date attachment; never shadowed.
    excluded: HashSet<u64>,
    /// Highest clock observed per peer; min over `cfg.peers` is the
    /// stability watermark.
    peer_clocks: HashMap<u32, u64>,
    stats: MonitorStats,
}

/// splitmix64: the sampling hash. Deterministic, seed-mixed, and good
/// enough to make "rate of keys" hold for clustered key spaces.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl<A: UqAdt> OnlineMonitor<A> {
    /// A monitor for `adt` under `cfg`.
    pub fn new(adt: A, cfg: MonitorConfig) -> Self {
        let rate = cfg.sample_rate.clamp(0.0, 1.0);
        let threshold = if rate >= 1.0 {
            u64::MAX
        } else {
            (rate * u64::MAX as f64) as u64
        };
        OnlineMonitor {
            adt,
            cfg,
            threshold,
            shadows: HashMap::new(),
            excluded: HashSet::new(),
            peer_clocks: HashMap::new(),
            stats: MonitorStats::default(),
        }
    }

    /// Is `key` in the sampled set (and not excluded)? The threshold
    /// test goes first: at low sampling rates it rejects almost every
    /// key with one multiply-xor round, so the hot ingest path only
    /// pays the `excluded` hash lookup for keys actually in the
    /// sample.
    pub fn sampled(&self, key: u64) -> bool {
        if self.threshold == 0 {
            return false;
        }
        if self.threshold != u64::MAX && splitmix64(key ^ SEED) > self.threshold {
            return false;
        }
        !self.excluded.contains(&key)
    }

    /// Exclude a key that existed before the monitor attached: its
    /// prefix was never observed, so any comparison would be a false
    /// positive.
    pub fn exclude_key(&mut self, key: u64) {
        self.shadows.remove(&key);
        self.excluded.insert(key);
    }

    /// Exclude many pre-existing keys at once.
    pub fn exclude_keys(&mut self, keys: impl IntoIterator<Item = u64>) {
        for k in keys {
            self.exclude_key(k);
        }
    }

    /// Observe one stamped update for `key` (local or remote, before
    /// or after the engine applies it — the shadow collapses
    /// duplicates by stamp exactly like the offline checker).
    pub fn observe_update(&mut self, key: u64, clock: u64, pid: u32, update: &A::Update) {
        if !self.sampled(key) {
            return;
        }
        self.observe_own_clock(pid, clock);
        let adt = &self.adt;
        let stats = &mut self.stats;
        let shadow = self.shadows.entry(key).or_insert_with(|| {
            stats.sampled_keys += 1;
            Shadow {
                base: adt.initial(),
                base_bound: 0,
                window: BTreeMap::new(),
                lossy: false,
            }
        });
        if clock <= shadow.base_bound {
            // At or below a final bound. A genuinely new update here
            // is impossible under Lamport stability (it would have to
            // precede an already-stable one), so this is a redelivery
            // the engine's dedup floor drops identically.
            stats.below_floor_arrivals += 1;
            return;
        }
        let overflow = match shadow.window.get(&(clock, pid)) {
            Some(prev) if prev == update => false, // duplicate delivery; idempotent
            Some(_) => {
                // Same stamp, different update: arbitration broken.
                stats.sec_violations += 1;
                false
            }
            None => {
                shadow.window.insert((clock, pid), update.clone());
                stats.sampled_updates += 1;
                shadow.window.len() > MAX_WINDOW
            }
        };
        if overflow {
            self.force_compact(key);
        }
    }

    /// Compare the state a query served against the shadow fold.
    /// Returns false (and counts a UC violation) on divergence.
    pub fn check_query_state(&mut self, key: u64, state: &A::State) -> bool {
        self.check_state(key, state, false)
    }

    /// Tick-time convergence check: compare a sampled key's
    /// materialized state against the shadow fold. Divergence counts
    /// as an EC violation (the replica did not converge to the fold
    /// of what it was delivered).
    pub fn check_tick_state(&mut self, key: u64, state: &A::State) -> bool {
        self.check_state(key, state, true)
    }

    fn check_state(&mut self, key: u64, state: &A::State, tick: bool) -> bool {
        if !self.sampled(key) {
            return true;
        }
        self.stats.sampled_queries += 1;
        let Some(shadow) = self.shadows.get(&key) else {
            // Untouched sampled key: must serve the initial state.
            let ok = *state == self.adt.initial();
            if !ok {
                self.count_violation(tick);
            }
            return ok;
        };
        if shadow.lossy {
            self.stats.skipped_checks += 1;
            return true;
        }
        let mut expected = shadow.base.clone();
        apply_ordered(&self.adt, &mut expected, shadow.window.values());
        let ok = expected == *state;
        if !ok {
            self.count_violation(tick);
        }
        ok
    }

    fn count_violation(&mut self, tick: bool) {
        if tick {
            self.stats.ec_violations += 1;
        } else {
            self.stats.uc_violations += 1;
        }
    }

    /// Compare one key's recorded state at a snapshot cut against the
    /// shadow fold of the prefix `≤ cut`. Returns false (and counts a
    /// SNAP violation) on a torn cut.
    pub fn observe_cut(&mut self, cut: u64, key: u64, state: &A::State) -> bool {
        if !self.sampled(key) {
            return true;
        }
        self.stats.sampled_cuts += 1;
        let Some(shadow) = self.shadows.get(&key) else {
            let ok = *state == self.adt.initial();
            if !ok {
                self.stats.snap_violations += 1;
            }
            return ok;
        };
        if shadow.lossy || cut < shadow.base_bound {
            // Lossy window, or a cut below the compacted bound: the
            // prefix can no longer be reconstructed exactly.
            self.stats.skipped_checks += 1;
            return true;
        }
        let mut expected = shadow.base.clone();
        apply_ordered(
            &self.adt,
            &mut expected,
            shadow.window.range(..=(cut, u32::MAX)).map(|(_, u)| u),
        );
        let ok = expected == *state;
        if !ok {
            self.stats.snap_violations += 1;
        }
        ok
    }

    /// Record a peer's advertised clock (heartbeats, message stamps).
    /// The stability watermark is the minimum over the configured
    /// peer set.
    pub fn observe_heartbeat(&mut self, pid: u32, clock: u64) {
        let entry = self.peer_clocks.entry(pid).or_insert(0);
        *entry = (*entry).max(clock);
    }

    fn observe_own_clock(&mut self, pid: u32, clock: u64) {
        if self.cfg.peers.contains(&pid) {
            self.observe_heartbeat(pid, clock);
        }
    }

    /// The stability watermark: the minimum clock observed across the
    /// configured peer set (0 until every peer has been heard from).
    pub fn stable_bound(&self) -> u64 {
        if self.cfg.peers.is_empty() {
            return 0;
        }
        self.cfg
            .peers
            .iter()
            .map(|p| self.peer_clocks.get(p).copied().unwrap_or(0))
            .min()
            .unwrap_or(0)
    }

    /// Maintenance tick: advance the stability watermark, fold every
    /// window's now-stable prefix into its base, and finalize those
    /// verdicts. Ride this on `Protocol::on_tick`.
    pub fn tick(&mut self) {
        self.stats.ticks += 1;
        let bound = self.stable_bound();
        self.stats.stable_bound = bound;
        if bound == 0 {
            return;
        }
        let adt = &self.adt;
        let mut finalized = 0u64;
        for shadow in self.shadows.values_mut() {
            if bound <= shadow.base_bound {
                continue;
            }
            let rest = shadow.window.split_off(&(bound, u32::MAX));
            let stable = std::mem::replace(&mut shadow.window, rest);
            finalized += stable.len() as u64;
            apply_ordered(adt, &mut shadow.base, stable.values());
            shadow.base_bound = bound;
        }
        self.stats.finalized_updates += finalized;
    }

    /// Force-compact one key's window after it outgrew `MAX_WINDOW`.
    /// The shadow is marked lossy: later equality checks are skipped
    /// (and counted) because a late arrival below the forced bound
    /// would now be unrepresentable.
    fn force_compact(&mut self, key: u64) {
        let Some(shadow) = self.shadows.get_mut(&key) else {
            return;
        };
        let drop = shadow.window.len() / 2;
        let adt = &self.adt;
        let mut bound = shadow.base_bound;
        for _ in 0..drop {
            let Some((&(clock, _), _)) = shadow.window.iter().next() else {
                break;
            };
            let ((c, _), u) = shadow.window.pop_first().expect("non-empty");
            debug_assert_eq!(c, clock);
            adt.apply(&mut shadow.base, &u);
            bound = c;
        }
        shadow.base_bound = bound;
        if !shadow.lossy {
            shadow.lossy = true;
            self.stats.lossy_keys += 1;
        }
        self.stats.window_evictions += drop as u64;
    }

    /// The current counters.
    pub fn stats(&self) -> &MonitorStats {
        &self.stats
    }

    /// True when no violation of any class has been observed.
    pub fn clean(&self) -> bool {
        self.stats.clean()
    }

    /// Per-criterion verdicts from the streamed counters, in the
    /// offline checkers' vocabulary: `(criterion, verdict)` for
    /// `"uc"`, `"ec"`, `"sec"`, `"snap"`.
    pub fn verdicts(&self) -> Vec<(&'static str, Verdict)> {
        let s = &self.stats;
        let one = |name: &str, violations: u64, checked: u64| {
            if violations > 0 {
                Verdict::Fails(format!("{violations} online {name} violation(s)"))
            } else {
                Verdict::Holds(Witness::Trivial(format!(
                    "{checked} online {name} check(s) clean (stable bound {})",
                    s.stable_bound
                )))
            }
        };
        vec![
            ("uc", one("uc", s.uc_violations, s.sampled_queries)),
            ("ec", one("ec", s.ec_violations, s.sampled_queries)),
            ("sec", one("sec", s.sec_violations, s.sampled_updates)),
            ("snap", one("snap", s.snap_violations, s.sampled_cuts)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uc_spec::{CounterAdt, CounterUpdate};

    fn full_monitor() -> OnlineMonitor<CounterAdt> {
        OnlineMonitor::new(CounterAdt, MonitorConfig::full().with_peers([0, 1]))
    }

    #[test]
    fn clean_stream_stays_clean() {
        let mut m = full_monitor();
        m.observe_update(7, 1, 0, &CounterUpdate::Add(5));
        m.observe_update(7, 2, 1, &CounterUpdate::Add(3));
        // Duplicate delivery collapses.
        m.observe_update(7, 1, 0, &CounterUpdate::Add(5));
        assert!(m.check_query_state(7, &8));
        assert!(m.check_tick_state(7, &8));
        assert!(m.clean());
        assert_eq!(m.stats().sampled_updates, 2);
        assert_eq!(m.stats().sampled_keys, 1);
        assert!(m.verdicts().iter().all(|(_, v)| v.holds()));
    }

    #[test]
    fn untouched_key_must_be_initial() {
        let mut m = full_monitor();
        assert!(m.check_query_state(9, &0));
        assert!(!m.check_query_state(9, &4));
        assert_eq!(m.stats().uc_violations, 1);
    }

    #[test]
    fn divergence_counts_uc_and_ec_separately() {
        let mut m = full_monitor();
        m.observe_update(1, 1, 0, &CounterUpdate::Add(5));
        assert!(!m.check_query_state(1, &10));
        assert!(!m.check_tick_state(1, &10));
        assert_eq!(m.stats().uc_violations, 1);
        assert_eq!(m.stats().ec_violations, 1);
        assert!(m
            .verdicts()
            .iter()
            .all(|(_, v)| matches!(*v, Verdict::Fails(_) | Verdict::Holds(_))));
        assert!(m.verdicts()[0].1.fails());
    }

    #[test]
    fn stamp_reuse_is_a_sec_violation() {
        let mut m = full_monitor();
        m.observe_update(1, 3, 0, &CounterUpdate::Add(1));
        m.observe_update(1, 3, 0, &CounterUpdate::Add(2));
        assert_eq!(m.stats().sec_violations, 1);
    }

    #[test]
    fn cut_checks_fold_the_prefix() {
        let mut m = full_monitor();
        m.observe_update(1, 1, 0, &CounterUpdate::Add(5));
        m.observe_update(1, 3, 1, &CounterUpdate::Add(2));
        assert!(m.observe_cut(2, 1, &5));
        assert!(m.observe_cut(3, 1, &7));
        // Torn: cut 2 must not include the clock-3 update.
        assert!(!m.observe_cut(2, 1, &7));
        assert_eq!(m.stats().snap_violations, 1);
    }

    #[test]
    fn stability_compacts_windows_and_finalizes() {
        let mut m = full_monitor();
        m.observe_update(1, 1, 0, &CounterUpdate::Add(5));
        m.observe_update(1, 4, 0, &CounterUpdate::Add(2));
        m.observe_heartbeat(0, 4);
        m.observe_heartbeat(1, 2);
        m.tick();
        // Bound = min(4, 2) = 2: the clock-1 update is final.
        assert_eq!(m.stable_bound(), 2);
        assert_eq!(m.stats().finalized_updates, 1);
        // A redelivery below the bound is informational, not a
        // violation.
        m.observe_update(1, 1, 0, &CounterUpdate::Add(5));
        assert_eq!(m.stats().below_floor_arrivals, 1);
        assert!(m.clean());
        // The fold still covers base + window.
        assert!(m.check_query_state(1, &7));
    }

    #[test]
    fn forced_compaction_goes_lossy_not_false_positive() {
        let mut m = OnlineMonitor::new(CounterAdt, MonitorConfig::full());
        for c in 1..=MAX_WINDOW as u64 + 1 {
            m.observe_update(1, c, 0, &CounterUpdate::Add(1));
        }
        assert_eq!(m.stats().lossy_keys, 1);
        assert!(m.stats().window_evictions > 0);
        // Checks are skipped, never failed, for a lossy shadow.
        assert!(m.check_query_state(1, &999));
        assert!(m.stats().skipped_checks > 0);
        assert!(m.clean());
    }

    #[test]
    fn sampling_is_deterministic_and_partial() {
        let m = OnlineMonitor::new(CounterAdt, MonitorConfig::sampled(0.1));
        let sampled: Vec<u64> = (0..10_000).filter(|&k| m.sampled(k)).collect();
        // ~10% of keys, exactly reproducible.
        assert!((500..2000).contains(&sampled.len()), "{}", sampled.len());
        let m2 = OnlineMonitor::new(CounterAdt, MonitorConfig::sampled(0.1));
        assert!(sampled.iter().all(|&k| m2.sampled(k)));
        let off = OnlineMonitor::new(CounterAdt, MonitorConfig::sampled(0.0));
        assert!((0..1000).all(|k| !off.sampled(k)));
    }

    #[test]
    fn excluded_keys_are_never_observed() {
        let mut m = full_monitor();
        m.observe_update(5, 1, 0, &CounterUpdate::Add(1));
        m.exclude_key(6);
        m.observe_update(6, 2, 0, &CounterUpdate::Add(1));
        // Key 6 pre-dated attachment: a "wrong" state is not judged.
        assert!(m.check_query_state(6, &42));
        assert_eq!(m.stats().sampled_keys, 1);
        assert!(m.clean());
    }
}
