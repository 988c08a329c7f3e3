//! E12 — batched vs per-message out-of-order delivery.
//!
//! The unified engine's `on_deliver_batch` merges a burst of K
//! messages into the log and repairs **once** from the earliest
//! insertion position; delivering the same burst message-by-message
//! repairs up to K times. This bench quantifies that win for each
//! repair strategy under two arrival patterns:
//!
//! * `head`   — the whole burst orders before the local history
//!   (clocks 1..=K): the worst case, every per-message delivery
//!   refolds nearly the entire log;
//! * `spread` — burst timestamps scattered uniformly across the
//!   history: the average out-of-order case.
//!
//! Run with `cargo bench -p uc-bench --bench batching`. A full run
//! writes `BENCH_batching.json` at the workspace root; set
//! `UC_BENCH_SMOKE=1` for a CI-sized run that writes nothing.

use std::time::Instant;
use uc_bench::harness;
use uc_core::{CachedReplica, GenericReplica, Replica, Timestamp, UndoReplica, UpdateMsg};
use uc_sim::SplitMix64;
use uc_spec::{SetAdt, SetUpdate};

type Msg = UpdateMsg<SetUpdate<u32>>;

const KS: [usize; 3] = [16, 64, 256];

fn burst(rng: &mut SplitMix64, k: usize, pattern: &str, log_len: u64) -> Vec<Msg> {
    let mut clocks: Vec<u64> = match pattern {
        // Orders entirely before the local history.
        "head" => (1..=k as u64).collect(),
        // Scattered across the whole history; pid 1 breaks ties, so
        // clashes with local clocks are fine and need no dedup.
        "spread" => (0..k)
            .map(|_| 1 + rng.next_u64() % log_len)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect(),
        other => panic!("unknown pattern {other}"),
    };
    // Arrival order is scrambled either way.
    for i in (1..clocks.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        clocks.swap(i, j);
    }
    clocks
        .into_iter()
        .map(|c| UpdateMsg {
            ts: Timestamp::new(c, 1),
            update: SetUpdate::Insert(100_000 + c as u32),
        })
        .collect()
}

/// Median wall time of `reps` runs of `f` on fresh clones of `base`
/// and of the burst `msgs`. Both clones are taken before the clock
/// starts, so a run times the ingest of a burst it owns, nothing else.
fn median_ns<R: Clone>(
    reps: usize,
    base: &R,
    msgs: &[Msg],
    mut f: impl FnMut(&mut R, Vec<Msg>),
) -> u64 {
    harness::median(
        (0..reps)
            .map(|_| {
                let (mut r, msgs) = (base.clone(), msgs.to_vec());
                let t0 = Instant::now();
                f(&mut r, msgs);
                t0.elapsed().as_nanos() as u64
            })
            .collect(),
    )
}

struct Row {
    strategy: &'static str,
    pattern: &'static str,
    k: usize,
    per_message_ns: u64,
    batched_ns: u64,
}

fn bench_strategy<R>(
    rows: &mut Vec<Row>,
    strategy: &'static str,
    base: &R,
    rng: &mut SplitMix64,
    log_len: u64,
    reps: usize,
) where
    R: Replica<SetAdt<u32>> + Clone,
{
    for pattern in ["head", "spread"] {
        for k in KS {
            let msgs = burst(rng, k, pattern, log_len);
            let per_message_ns = median_ns(reps, base, &msgs, |r, msgs| {
                for m in msgs {
                    r.on_message(m);
                }
            });
            let batched_ns = median_ns(reps, base, &msgs, |r, msgs| r.on_batch(msgs));
            rows.push(Row {
                strategy,
                pattern,
                k,
                per_message_ns,
                batched_ns,
            });
        }
    }
}

fn main() {
    let smoke = harness::smoke();
    let (log_len, reps) = if smoke { (1024, 3) } else { (8192, 15) };
    let mut rng = SplitMix64::new(0xBA7C4);

    let mut cached: CachedReplica<SetAdt<u32>> = CachedReplica::new(SetAdt::new(), 0);
    let mut undo: UndoReplica<SetAdt<u32>> = UndoReplica::new(SetAdt::new(), 0);
    let mut naive: GenericReplica<SetAdt<u32>> = GenericReplica::new(SetAdt::new(), 0);
    for i in 0..log_len {
        let u = SetUpdate::Insert((i % 512) as u32);
        cached.update(u);
        undo.update(u);
        naive.update(u);
    }

    let mut rows = Vec::new();
    bench_strategy(&mut rows, "cached", &cached, &mut rng, log_len, reps);
    bench_strategy(&mut rows, "undo", &undo, &mut rng, log_len, reps);
    bench_strategy(&mut rows, "naive", &naive, &mut rng, log_len, reps);

    println!(
        "{:<8} {:<8} {:>5} {:>16} {:>16} {:>9}",
        "strategy", "pattern", "K", "per-message", "batched", "speedup"
    );
    let mut results = Vec::new();
    for r in &rows {
        let speedup = r.per_message_ns as f64 / r.batched_ns.max(1) as f64;
        println!(
            "{:<8} {:<8} {:>5} {:>13} ns {:>13} ns {:>8.1}x",
            r.strategy, r.pattern, r.k, r.per_message_ns, r.batched_ns, speedup
        );
        results.push(format!(
            "{{\"strategy\": \"{}\", \"pattern\": \"{}\", \"k\": {}, \
             \"per_message_ns\": {}, \"batched_ns\": {}, \"speedup\": {:.2}}}",
            r.strategy, r.pattern, r.k, r.per_message_ns, r.batched_ns, speedup
        ));
    }

    // Repair strategies must show a real win on out-of-order bursts.
    let repairing = rows.iter().filter(|r| r.strategy != "naive" && r.k >= 64);
    for r in repairing {
        assert!(
            r.batched_ns < r.per_message_ns,
            "{}/{} K={} regressed: batch {} ns vs per-message {} ns",
            r.strategy,
            r.pattern,
            r.k,
            r.batched_ns,
            r.per_message_ns
        );
    }

    harness::emit(
        "batching",
        &[
            (
                "config",
                format!("{{\"log_len\": {log_len}, \"reps\": {reps}}}"),
            ),
            ("results", harness::array(&results)),
        ],
    );
}
