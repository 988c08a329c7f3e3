//! Collaborative tagging (the paper's motivating large-scale-app
//! shape): three users add/remove tags on a shared document over an
//! asynchronous network, with one user going through a partition.
//!
//! Shows the behavioural difference §VI dwells on: the
//! update-consistent set lands on a state explainable by one global
//! sequence of the edits, while an OR-set run of the same schedule may
//! resurrect a concurrently deleted tag (insert-wins).
//!
//! ```text
//! cargo run --example collaborative_tags
//! ```

use update_consistency::core::{GenericReplica, OpInput, ReplicaNode};
use update_consistency::crdt::{OrSet, SetNode, SetOp, SetReplica};
use update_consistency::sim::{Cut, LatencyModel, Pid, SimConfig, Simulation};
use update_consistency::spec::{SetAdt, SetUpdate};

const ALICE: Pid = 0;
const BOB: Pid = 1;
const CAROL: Pid = 2;

/// tag ids: 0 = "rust", 1 = "draft", 2 = "urgent"
const TAG_NAMES: [&str; 3] = ["rust", "draft", "urgent"];

fn show(label: &str, tags: &std::collections::BTreeSet<u32>) {
    let names: Vec<&str> = tags.iter().map(|&t| TAG_NAMES[t as usize]).collect();
    println!("  {label}: {names:?}");
}

fn main() {
    let cfg = |seed| SimConfig {
        n: 3,
        seed,
        latency: LatencyModel::Uniform(5, 40),
        fifo_links: false,
    };

    // ---------- update-consistent set (Algorithm 1) ----------
    let mut sim = Simulation::new(cfg(42), |pid| {
        ReplicaNode::untraced(GenericReplica::new(SetAdt::<u32>::new(), pid))
    });
    // Carol is partitioned away for a while.
    sim.topology_mut()
        .partition(vec![vec![ALICE, BOB], vec![CAROL]], 0, 300, Cut::Hold);

    // Alice tags "rust" and "draft"; Bob removes "draft" as he
    // finalises; Carol (partitioned) tags "urgent" and also removes
    // "draft" concurrently.
    sim.schedule_invoke(10, ALICE, OpInput::Update(SetUpdate::Insert(0)));
    sim.schedule_invoke(20, ALICE, OpInput::Update(SetUpdate::Insert(1)));
    sim.schedule_invoke(100, BOB, OpInput::Update(SetUpdate::Delete(1)));
    sim.schedule_invoke(50, CAROL, OpInput::Update(SetUpdate::Insert(2)));
    sim.schedule_invoke(60, CAROL, OpInput::Update(SetUpdate::Insert(1)));
    sim.run_to_quiescence(); // partition heals at t=300, traffic flushes

    println!("update-consistent set (Algorithm 1):");
    let states: Vec<_> = (0..3)
        .map(|p| sim.process_mut(p).replica.materialize())
        .collect();
    show("alice", &states[0]);
    show("bob  ", &states[1]);
    show("carol", &states[2]);
    assert_eq!(states[0], states[1]);
    assert_eq!(states[1], states[2]);
    println!("  → all replicas agree, and the state is the result of one");
    println!("    Lamport-ordered sequence of everyone's edits\n");

    // ---------- OR-set baseline on the same schedule ----------
    let mut sim = Simulation::new(cfg(42), |pid| SetNode::new(OrSet::<u32>::new(pid)));
    sim.topology_mut()
        .partition(vec![vec![ALICE, BOB], vec![CAROL]], 0, 300, Cut::Hold);
    sim.schedule_invoke(10, ALICE, SetOp::Insert(0));
    sim.schedule_invoke(20, ALICE, SetOp::Insert(1));
    sim.schedule_invoke(100, BOB, SetOp::Delete(1));
    sim.schedule_invoke(50, CAROL, SetOp::Insert(2));
    sim.schedule_invoke(60, CAROL, SetOp::Insert(1));
    sim.run_to_quiescence();

    println!("OR-set (insert-wins baseline):");
    let or_states: Vec<_> = (0..3).map(|p| sim.process(p).replica.read()).collect();
    show("alice", &or_states[0]);
    show("bob  ", &or_states[1]);
    show("carol", &or_states[2]);
    assert_eq!(or_states[0], or_states[1]);
    assert_eq!(or_states[1], or_states[2]);
    println!("  → converged too, but by the insert-wins policy: Bob's delete");
    println!("    only removed the tag instances he had *observed*, so");
    println!("    Carol's concurrent \"draft\" tag survives the removal.");

    // The two objects are both eventually consistent — and genuinely
    // different. That under-determination is the paper's case for
    // update consistency as the stronger, sequentially-explicable
    // criterion.
    if states[0] != or_states[0] {
        println!(
            "\nfinal states differ: UC {:?} vs OR {:?}",
            states[0], or_states[0]
        );
    }
}
