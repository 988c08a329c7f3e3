//! §VII-C's storage argument, played straight: "banks keep track of
//! all the operations made on an account for years" — an append-only
//! audit log plus a balance counter, replicated wait-free across
//! branches, with stability-based GC compacting the counter's log
//! while the audit log (deliberately) keeps everything. The counter is
//! a single object under GC: a store holding one key.
//!
//! ```text
//! cargo run --example bank_log
//! ```

use update_consistency::core::{GcFactory, GenericReplica, UcStore};
use update_consistency::spec::log::{Append, LogAdt, LogQuery};
use update_consistency::spec::{CounterAdt, CounterUpdate};

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Tx {
    branch: u32,
    amount: i64,
    memo: &'static str,
}

fn main() {
    let n = 2;
    // The audit log: full-history replica (never GC'd — the point of
    // an audit log).
    let mut audit0: GenericReplica<LogAdt<Tx>> = GenericReplica::new(LogAdt::new(), 0);
    let mut audit1: GenericReplica<LogAdt<Tx>> = GenericReplica::new(LogAdt::new(), 1);
    // The balance: a commutative counter with stability GC — old
    // deltas fold into the base. Key 0 is the account.
    let mut bal0: UcStore<CounterAdt, GcFactory> = UcStore::new(CounterAdt, 0, 1, GcFactory { n });
    let mut bal1: UcStore<CounterAdt, GcFactory> = UcStore::new(CounterAdt, 1, 1, GcFactory { n });

    let txs = [
        (0u32, 500i64, "payroll"),
        (1, -120, "groceries"),
        (0, -60, "utilities"),
        (1, 1_000, "bonus"),
        (0, -250, "rent share"),
        (1, -45, "dinner"),
    ];

    for (branch, amount, memo) in txs {
        let tx = Tx {
            branch,
            amount,
            memo,
        };
        // Each branch appends to the audit log and bumps the balance;
        // messages cross-deliver (here immediately; any order works).
        if branch == 0 {
            let m = audit0.update(Append(tx.clone()));
            audit1.on_deliver(m);
            let m = bal0.update(0, CounterUpdate::Add(amount));
            let Ok(_) = bal1.apply_message_from(0, m);
        } else {
            let m = audit1.update(Append(tx.clone()));
            audit0.on_deliver(m);
            let m = bal1.update(0, CounterUpdate::Add(amount));
            let Ok(_) = bal0.apply_message_from(1, m);
        }
        // Periodic heartbeats let stability advance.
        bal0.tick_maintenance();
        let Ok(_) = bal1.apply_message_from(0, bal0.heartbeat());
        bal1.tick_maintenance();
        let Ok(_) = bal0.apply_message_from(1, bal1.heartbeat());
    }

    // Both branches agree on the full, ordered statement...
    let s0 = audit0.materialize();
    let s1 = audit1.materialize();
    assert_eq!(s0, s1);
    println!(
        "statement ({} entries, identical at both branches):",
        s0.len()
    );
    for tx in &s0 {
        println!("  branch {} {:>6} {}", tx.branch, tx.amount, tx.memo);
    }
    // ...and on the balance.
    let b0 = bal0.materialize_key(0);
    let b1 = bal1.materialize_key(0);
    assert_eq!(b0, b1);
    println!("\nbalance: {b0}");
    assert_eq!(b0, txs.iter().map(|t| t.1).sum::<i64>());

    // The audit replica retains everything; the balance replica's log
    // was compacted by stability (only unstable suffix retained).
    println!(
        "audit log retains {} entries (forever, by design);",
        audit0.log_len()
    );
    println!(
        "balance log retains {} entries ({} folded into the base by GC).",
        bal0.total_log_len(),
        bal0.engine(0).map_or(0, |e| e.strategy().compacted())
    );
    // The Len query on the log ADT works too:
    let len = audit0.do_query(&LogQuery::Len);
    println!("audit0 len query answers: {len:?}");
}
