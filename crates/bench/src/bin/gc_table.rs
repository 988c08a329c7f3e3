//! E10 — §VII-C's storage claim: the full-history log grows linearly,
//! the stability-GC'd log stays bounded while everyone participates,
//! and a single silent process freezes collection (the honest price of
//! stability in a wait-free system).
//!
//! ```text
//! cargo run -p uc-bench --bin gc_table
//! ```

use uc_bench::render_table;
use uc_core::{GcFactory, GenericReplica, StoreMsg, UcStore};
use uc_spec::{SetAdt, SetUpdate};

type Gc = UcStore<SetAdt<u32>, GcFactory>;
type Msg = StoreMsg<SetUpdate<u32>>;

/// Deliver each `(sender, message)` to every other participant, and
/// the updates to the full-history oracle.
fn broadcast(gcs: &mut [Gc], full: &mut GenericReplica<SetAdt<u32>>, msgs: Vec<(usize, Msg)>) {
    for (src, m) in msgs {
        if let StoreMsg::Update { msg, .. } = &m {
            full.on_deliver(msg.clone());
        }
        for (j, gc) in gcs.iter_mut().enumerate() {
            if j != src {
                let Ok(_) = gc.apply_message_from(src as u32, m.clone());
            }
        }
    }
}

/// Run `rounds` rounds: every *updating* participant performs one
/// update and all messages are cross-delivered. `readonly` processes
/// never update; they advance peers' stability only if `heartbeats`
/// is on (every process then ticks and broadcasts its clock each
/// round). Each participant is a single object under GC: a one-key
/// store.
fn run(n: usize, rounds: usize, readonly: usize, heartbeats: bool) -> (usize, usize, u64) {
    let mut gcs: Vec<Gc> = (0..n as u32)
        .map(|p| UcStore::new(SetAdt::new(), p, 1, GcFactory { n }))
        .collect();
    // The full-history oracle, playing replica 0's role.
    let mut full: GenericReplica<SetAdt<u32>> = GenericReplica::new(SetAdt::new(), 0);
    for r in 0..rounds {
        let mut msgs = Vec::new();
        for (i, gc) in gcs.iter_mut().enumerate().take(n - readonly) {
            let u = if r % 3 == 0 {
                SetUpdate::Delete((r % 10) as u32)
            } else {
                SetUpdate::Insert((r % 10) as u32)
            };
            msgs.push((i, gc.update(0, u)));
        }
        broadcast(&mut gcs, &mut full, msgs);
        if heartbeats {
            // Everyone heartbeats — crucially including the read-only
            // processes, whose silence would otherwise freeze
            // stability for the whole cluster.
            let mut hbs = Vec::new();
            for (i, gc) in gcs.iter_mut().enumerate() {
                gc.tick_maintenance();
                hbs.push((i, gc.heartbeat()));
            }
            broadcast(&mut gcs, &mut full, hbs);
        }
    }
    let retained = gcs[0].total_log_len();
    let compacted = gcs[0].engine(0).map_or(0, |e| e.strategy().compacted());
    (retained, full.log_len(), compacted)
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
