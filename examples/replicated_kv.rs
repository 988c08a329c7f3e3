//! A wait-free replicated key-value store on Algorithm 2 (the paper's
//! update-consistent shared memory): constant-time reads and writes,
//! one broadcast per write, per-register memory — and availability
//! through a split-brain partition, converging on heal.
//!
//! ```text
//! cargo run --example replicated_kv
//! ```

use update_consistency::core::{OpInput, OpOutput, ReplicaNode, UcMemory};
use update_consistency::sim::{Cut, LatencyModel, Pid, SimConfig, Simulation};
use update_consistency::spec::{MemoryAdt, MemoryQuery, MemoryUpdate};

type Store =
    ReplicaNode<MemoryAdt<&'static str, &'static str>, UcMemory<&'static str, &'static str>>;

fn write(k: &'static str, v: &'static str) -> OpInput<MemoryAdt<&'static str, &'static str>> {
    OpInput::Update(MemoryUpdate {
        register: k,
        value: v,
    })
}

fn read(k: &'static str) -> OpInput<MemoryAdt<&'static str, &'static str>> {
    OpInput::Query(MemoryQuery(k))
}

fn main() {
    let n = 4;
    let mut sim: Simulation<Store> = Simulation::new(
        SimConfig {
            n,
            seed: 7,
            latency: LatencyModel::Uniform(5, 30),
            fifo_links: false,
        },
        |pid| ReplicaNode::untraced(UcMemory::new("", pid)),
    );

    // Split-brain: {0,1} vs {2,3} between t=50 and t=400.
    sim.topology_mut()
        .partition(vec![vec![0, 1], vec![2, 3]], 50, 400, Cut::Hold);

    // Both sides of the partition keep accepting writes — availability
    // is never sacrificed (the paper's CAP stance: wait-freedom over
    // strong consistency).
    sim.schedule_invoke(10, 0, write("motd", "hello"));
    sim.schedule_invoke(100, 0, write("motd", "hello from side A"));
    sim.schedule_invoke(110, 1, write("theme", "dark"));
    sim.schedule_invoke(120, 2, write("motd", "hello from side B"));
    sim.schedule_invoke(130, 3, write("theme", "light"));

    // Mid-partition reads: each side sees its own writes (stale but
    // available).
    sim.run_until(200);
    for p in 0..n as Pid {
        if let Some(OpOutput::Value { out, .. }) = sim.invoke_now(p, read("motd")) {
            println!("t=200 p{p} reads motd = {out:?}");
        }
    }

    // Heal, flush, converge: last writer (by Lamport (clock, pid))
    // wins per register, identically everywhere.
    sim.run_to_quiescence();
    println!("\nafter heal + quiescence:");
    let mut finals = Vec::new();
    for p in 0..n as Pid {
        let motd = sim.process(p).replica.read(&"motd");
        let theme = sim.process(p).replica.read(&"theme");
        println!("p{p}: motd={motd:?} theme={theme:?}");
        finals.push((motd, theme));
    }
    assert!(
        finals.windows(2).all(|w| w[0] == w[1]),
        "all replicas must converge per register"
    );

    // Memory stays proportional to the number of registers, not the
    // number of writes (E9's claim).
    let mut p0 = sim.process_mut(0);
    let _ = &mut p0;
    println!(
        "\nregisters retained on p0: {} (after {} total messages)",
        sim.process(0).replica.registers(),
        sim.metrics.messages_sent
    );
}
