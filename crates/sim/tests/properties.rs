//! Property tests for the simulator: determinism in the seed, FIFO
//! link ordering, partition reliability, and crash silence.

use proptest::prelude::*;
use uc_sim::{Ctx, Cut, LatencyModel, Pid, Protocol, SimConfig, Simulation};

/// A protocol that records every delivery with a sequence number so
/// tests can interrogate delivery order.
#[derive(Debug, Default)]
struct Recorder {
    deliveries: Vec<(Pid, u32)>,
}

impl Protocol for Recorder {
    type Msg = u32;
    type Input = u32;
    type Output = ();

    fn on_invoke(&mut self, x: u32, ctx: &mut Ctx<'_, u32>) {
        ctx.broadcast_others(x);
    }

    fn on_message(&mut self, from: Pid, x: u32, _ctx: &mut Ctx<'_, u32>) {
        self.deliveries.push((from, x));
    }
}

fn run(
    seed: u64,
    n: usize,
    fifo: bool,
    schedule: &[(u64, u8, u32)],
    partition_window: Option<(u64, u64)>,
) -> Vec<Vec<(Pid, u32)>> {
    let mut sim = Simulation::new(
        SimConfig {
            n,
            seed,
            latency: LatencyModel::Uniform(1, 30),
            fifo_links: fifo,
        },
        |_| Recorder::default(),
    );
    if let Some((s, e)) = partition_window {
        let groups = (0..n as Pid).map(|p| vec![p]).collect();
        sim.topology_mut().partition(groups, s, e, Cut::Hold);
    }
    for (t, pid, x) in schedule {
        sim.schedule_invoke(*t, (*pid as usize % n) as Pid, *x);
    }
    sim.run_to_quiescence();
    (0..n as Pid)
        .map(|p| sim.process(p).deliveries.clone())
        .collect()
}

fn schedule_strategy() -> impl Strategy<Value = Vec<(u64, u8, u32)>> {
    proptest::collection::vec((0u64..200, any::<u8>(), any::<u32>()), 0..25)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Same seed + same schedule → byte-identical delivery traces.
    #[test]
    fn deterministic_in_seed(seed: u64, sched in schedule_strategy()) {
        let a = run(seed, 3, false, &sched, None);
        let b = run(seed, 3, false, &sched, None);
        prop_assert_eq!(a, b);
    }

    /// With FIFO links, the messages one sender issues arrive at each
    /// receiver in send order.
    #[test]
    fn fifo_preserves_per_sender_order(seed: u64, k in 1usize..20) {
        // All invocations from pid 0 with increasing payloads.
        let sched: Vec<(u64, u8, u32)> =
            (0..k).map(|i| (i as u64, 0u8, i as u32)).collect();
        let out = run(seed, 2, true, &sched, None);
        let payloads: Vec<u32> = out[1].iter().map(|(_, x)| *x).collect();
        let mut sorted = payloads.clone();
        sorted.sort_unstable();
        prop_assert_eq!(payloads, sorted, "FIFO violated");
    }

    /// Partitions never lose messages: every broadcast is delivered to
    /// every live process eventually, whatever the window.
    #[test]
    fn partitions_are_reliable(
        seed: u64,
        sched in schedule_strategy(),
        start in 0u64..100,
        len in 1u64..200,
    ) {
        let n = 3;
        let out = run(seed, n, false, &sched, Some((start, start + len)));
        let sent = sched.len();
        for (p, deliveries) in out.iter().enumerate() {
            // Each process receives everything that others sent.
            let expected: usize = sched
                .iter()
                .filter(|(_, pid, _)| (*pid as usize % n) != p)
                .count();
            prop_assert_eq!(
                deliveries.len(),
                expected,
                "process {} missing deliveries ({} sent total)",
                p,
                sent
            );
        }
    }

    /// Crashed processes receive nothing after the crash instant, and
    /// the survivors still receive everything sent by live processes.
    #[test]
    fn crash_silences_only_the_victim(seed: u64, k in 1usize..15) {
        let n = 3;
        let mut sim = Simulation::new(
            SimConfig {
                n,
                seed,
                latency: LatencyModel::Constant(5),
                fifo_links: false,
            },
            |_| Recorder::default(),
        );
        sim.schedule_crash(0, 2); // pid 2 dead from the start
        for i in 0..k {
            sim.schedule_invoke(1 + i as u64, 0, i as u32);
        }
        sim.run_to_quiescence();
        prop_assert_eq!(sim.process(2).deliveries.len(), 0);
        prop_assert_eq!(sim.process(1).deliveries.len(), k);
        prop_assert_eq!(sim.metrics.messages_dropped_crashed, k as u64);
    }
}
