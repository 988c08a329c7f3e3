//! E10 — §VII-C's storage claim: the full-history log grows linearly,
//! the stability-GC'd log stays bounded while everyone participates,
//! and a single silent process freezes collection (the honest price of
//! stability in a wait-free system).
//!
//! ```text
//! cargo run -p uc-bench --bin gc_table
//! ```

use uc_bench::render_table;
use uc_core::{GcReplica, GenericReplica, Replica};
use uc_spec::{SetAdt, SetUpdate};

/// Run `rounds` rounds: every *updating* participant performs one
/// update and all messages are cross-delivered. `readonly` processes
/// never update; they advance peers' stability only if `heartbeats`
/// is on (they then broadcast clock announcements each round).
fn run(n: usize, rounds: usize, readonly: usize, heartbeats: bool) -> (usize, usize, u64) {
    let mut gcs: Vec<GcReplica<SetAdt<u32>>> = (0..n as u32)
        .map(|p| GcReplica::new(SetAdt::new(), p, n))
        .collect();
    let mut full: GenericReplica<SetAdt<u32>> = GenericReplica::new(SetAdt::new(), 0);
    for r in 0..rounds {
        let mut msgs = Vec::new();
        for (i, gc) in gcs.iter_mut().enumerate() {
            if i < n - readonly {
                let u = if r % 3 == 0 {
                    SetUpdate::Delete((r % 10) as u32)
                } else {
                    SetUpdate::Insert((r % 10) as u32)
                };
                msgs.push((i, gc.update(u)));
            }
        }
        for (src, m) in &msgs {
            if let uc_core::GcMsg::Update(um) = m {
                if *src != 0 {
                    full.on_deliver(um.clone());
                } else {
                    // already applied locally by gcs[0]; mirror into the
                    // oracle which plays replica 0's role
                }
            }
            for (j, gc) in gcs.iter_mut().enumerate() {
                if j != *src {
                    gc.on_gc_message(m.clone());
                }
            }
        }
        // replica 0's own updates also go to the oracle
        if let Some((src, uc_core::GcMsg::Update(um))) = msgs
            .iter()
            .find(|(s, _)| *s == 0)
            .map(|(s, m)| (*s, m.clone()))
        {
            let _ = src;
            full.on_deliver(um);
        }
        if heartbeats {
            // Everyone heartbeats — crucially including the read-only
            // processes, whose silence would otherwise freeze
            // stability for the whole cluster.
            let mut hbs = Vec::new();
            for (i, gc) in gcs.iter_mut().enumerate() {
                hbs.push((i, gc.tick()));
            }
            for (src, batch) in hbs {
                for m in batch {
                    for (j, gc) in gcs.iter_mut().enumerate() {
                        if j != src {
                            gc.on_gc_message(m.clone());
                        }
                    }
                }
            }
        }
    }
    let retained = gcs[0].log_len();
    let compacted = gcs[0].compacted() as usize;
    (retained, full.log_len(), compacted as u64)
}

fn main() {
    println!("Stability-based log compaction (Algorithm 1 + §VII-C GC):\n");
    let n = 4;
    let mut rows = Vec::new();
    for rounds in [25usize, 100, 400] {
        let (gc_len, full_len, compacted) = run(n, rounds, 0, false);
        let (rescued_len, _, rescued_compacted) = run(n, rounds, 1, true);
        let (frozen_len, _, frozen_compacted) = run(n, rounds, 1, false);
        rows.push(vec![
            rounds.to_string(),
            full_len.to_string(),
            format!("{gc_len} (+{compacted} folded)"),
            format!("{rescued_len} (+{rescued_compacted})"),
            format!("{frozen_len} (+{frozen_compacted})"),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "rounds",
                "no GC (entries)",
                "GC, all updating",
                "GC, 1 read-only + heartbeats",
                "GC, 1 read-only, no heartbeats"
            ],
            &rows
        )
    );
    println!("Shape: without GC the log grows linearly with updates. With GC, a");
    println!("fully-updating cluster compacts on its own (update messages carry");
    println!("the clocks). A read-only process freezes stability *unless* it");
    println!("heartbeats — §VII-C's 'after some time old messages can be garbage");
    println!("collected' needs every process to keep announcing its clock.");
}
