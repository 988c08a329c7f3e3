//! Quickstart: replicate the paper's set (Example 1) with the generic
//! strong-update-consistent construction (Algorithm 1), watch two
//! replicas disagree transiently and converge to a state explainable
//! by a single sequence of the updates.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use update_consistency::core::GenericReplica;
use update_consistency::spec::{SetAdt, SetQuery, SetUpdate};

fn main() {
    // Two replicas of a shared set of u32, one per process.
    let mut alice = GenericReplica::new(SetAdt::<u32>::new(), 0);
    let mut bob = GenericReplica::new(SetAdt::<u32>::new(), 1);

    // Wait-free updates: each call completes locally and returns the
    // message to broadcast — no coordination, no waiting.
    let m1 = alice.update(SetUpdate::Insert(1));
    let m2 = bob.update(SetUpdate::Delete(1)); // concurrent conflict!
    let m3 = bob.update(SetUpdate::Insert(2));

    // Before delivery, reads are transiently divergent — allowed: only
    // *updates* are globally ordered, queries may read stale state.
    println!(
        "alice reads (pre-delivery): {:?}",
        alice.do_query(&SetQuery::Read)
    );
    println!(
        "bob   reads (pre-delivery): {:?}",
        bob.do_query(&SetQuery::Read)
    );

    // Deliver cross-traffic in any order (the network may reorder).
    alice.on_deliver(m3);
    alice.on_deliver(m2);
    bob.on_deliver(m1);

    // Converged: both replicas replay the same Lamport-ordered
    // sequence of updates.
    let a = alice.do_query(&SetQuery::Read);
    let b = bob.do_query(&SetQuery::Read);
    println!("alice reads (converged):    {a:?}");
    println!("bob   reads (converged):    {b:?}");
    assert_eq!(a, b, "update consistency: all replicas converge");

    // The converged state is explained by a *linearization* of the
    // updates — here the timestamp order:
    println!("\nupdate order (the linearization all replicas agree on):");
    for ts in alice.known_timestamps() {
        println!("  {ts:?}");
    }
    // I(1) and D(1) were concurrent (same clock); the process id broke
    // the tie, so D(1) ordered after I(1) and element 1 is absent.
    assert!(!a.contains(&1));
    assert!(a.contains(&2));
}
