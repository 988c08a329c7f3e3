//! Pinned replay: seeded runs over held cuts, dropped cuts and a
//! `ReliableLink` over a lossy cut must reproduce the exact simulated
//! time, metrics and per-process delivery lists recorded below.
//!
//! `identical_seeds_replay_identically` (scheduler unit tests) compares
//! two runs of one build; these constants compare builds, so a change
//! to the network layer that moves a single RNG draw, delivery time or
//! tie-break shows here. Each scenario runs per message and with a
//! batch window of 8.

use uc_sim::{
    Ctx, Cut, DeliveryMode, LatencyModel, LinkModel, Pid, Protocol, ReliableLink, RetryConfig,
    SimConfig, Simulation, Topology,
};

/// Records `(sender, payload)` per delivery, in arrival order.
#[derive(Debug, Default)]
struct Recorder {
    got: Vec<(Pid, u32)>,
}

impl Protocol for Recorder {
    type Msg = u32;
    type Input = u32;
    type Output = ();

    fn on_invoke(&mut self, x: u32, ctx: &mut Ctx<'_, u32>) {
        ctx.broadcast_others(x);
    }

    fn on_message(&mut self, from: Pid, x: u32, _ctx: &mut Ctx<'_, u32>) {
        self.got.push((from, x));
    }
}

/// FNV-1a over a byte string: stable across builds and platforms.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `now`, the counters a cut moves, and one digest over the whole
/// `Metrics` and every process's delivery list.
fn fingerprint<P: Protocol>(sim: &Simulation<P>, got: impl Fn(&P) -> &[(Pid, u32)]) -> String {
    let m = &sim.metrics;
    let n = m.per_process_sent.len() as Pid;
    let deliveries: Vec<&[(Pid, u32)]> = (0..n).map(|p| got(sim.process(p))).collect();
    let digest = fnv(format!("{m:?}{deliveries:?}").as_bytes());
    format!(
        "now={} sent={} delivered={} dropped={} duplicated={} delayed={} digest={digest:016x}",
        sim.now(),
        m.messages_sent,
        m.messages_delivered,
        m.messages_dropped,
        m.messages_duplicated,
        m.messages_delayed_by_partition,
    )
}

fn config(n: usize, seed: u64, latency: LatencyModel, fifo_links: bool) -> SimConfig {
    SimConfig {
        n,
        seed,
        latency,
        fifo_links,
    }
}

fn modes() -> [DeliveryMode; 2] {
    [
        DeliveryMode::PerMessage,
        DeliveryMode::Batched { window: 8 },
    ]
}

/// A cut that holds traffic until `end`.
fn hold<P: Protocol>(sim: &mut Simulation<P>, groups: Vec<Vec<Pid>>, start: u64, end: u64) {
    sim.topology_mut().partition(groups, start, end, Cut::Hold);
}

/// A cut that drops traffic sent into `[start, end)`.
fn drop_cut(topo: &mut Topology, groups: Vec<Vec<Pid>>, start: u64, end: u64) {
    topo.partition(groups, start, end, Cut::Drop);
}

fn lossy_link() -> LinkModel {
    LinkModel {
        latency: LatencyModel::Uniform(1, 20),
        loss: 0.2,
        duplicate: 0.1,
        reorder: 5,
    }
}

/// Sixty broadcasts, one every 4 time units, round-robin over `n`.
fn broadcasts<P: Protocol<Input = u32>>(sim: &mut Simulation<P>, n: usize) {
    for i in 0..60u32 {
        sim.schedule_invoke(u64::from(i) * 4, (i as usize % n) as Pid, i);
    }
}

/// Four processes on the reliable network, two overlapping held cuts.
fn held(fifo: bool, mode: DeliveryMode) -> String {
    let mut sim = Simulation::new(config(4, 11, LatencyModel::Uniform(1, 30), fifo), |_| {
        Recorder::default()
    });
    sim.set_delivery_mode(mode);
    hold(&mut sim, vec![vec![0, 1], vec![2, 3]], 50, 150);
    hold(&mut sim, vec![vec![0], vec![1, 2, 3]], 120, 260);
    broadcasts(&mut sim, 4);
    sim.run_to_quiescence();
    fingerprint(&sim, |p| &p.got)
}

/// Three processes on a lossy topology with a dropping cut, and
/// optionally a held cut on top of it.
fn dropped(with_hold: bool, mode: DeliveryMode) -> String {
    let mut sim = Simulation::new(config(3, 23, LatencyModel::Constant(1), false), |_| {
        Recorder::default()
    });
    sim.set_delivery_mode(mode);
    let mut topo = Topology::uniform(3, lossy_link());
    drop_cut(&mut topo, vec![vec![0, 1], vec![2]], 40, 120);
    sim.set_topology(topo);
    if with_hold {
        hold(&mut sim, vec![vec![0], vec![1, 2]], 80, 200);
    }
    broadcasts(&mut sim, 3);
    sim.run_to_quiescence();
    fingerprint(&sim, |p| &p.got)
}

/// `ReliableLink` over the lossy topology and its dropping cut,
/// retransmitting on scheduled ticks.
fn reliable(mode: DeliveryMode) -> String {
    let retry = RetryConfig {
        base: 8,
        max_backoff: 64,
        jitter: 3,
        queue_cap: 1024,
    };
    let mut sim = Simulation::new(config(3, 37, LatencyModel::Constant(1), false), |pid| {
        ReliableLink::new(Recorder::default(), retry, 0x5EED ^ u64::from(pid))
    });
    sim.set_delivery_mode(mode);
    let mut topo = Topology::uniform(3, lossy_link());
    drop_cut(&mut topo, vec![vec![0, 1], vec![2]], 40, 120);
    sim.set_topology(topo);
    broadcasts(&mut sim, 3);
    sim.schedule_ticks(10, 2_000);
    sim.run_to_quiescence();
    fingerprint(&sim, |p| &p.inner().got)
}

#[test]
fn held_cuts_replay_with_fifo_links() {
    let expected = [
        "now=260 sent=180 delivered=180 dropped=0 duplicated=0 delayed=93 digest=aceab3338ae67c66",
        "now=264 sent=180 delivered=180 dropped=0 duplicated=0 delayed=92 digest=0ffdf10860ae49dd",
    ];
    for (i, mode) in modes().into_iter().enumerate() {
        assert_eq!(held(true, mode), expected[i], "{mode:?}");
    }
}

#[test]
fn held_cuts_replay_without_fifo_links() {
    let expected = [
        "now=260 sent=180 delivered=180 dropped=0 duplicated=0 delayed=93 digest=dabae79fce1ad0e2",
        "now=264 sent=180 delivered=180 dropped=0 duplicated=0 delayed=92 digest=7ad9cfe7c69ed453",
    ];
    for (i, mode) in modes().into_iter().enumerate() {
        assert_eq!(held(false, mode), expected[i], "{mode:?}");
    }
}

#[test]
fn dropped_cuts_replay_on_a_lossy_topology() {
    let expected = [
        "now=252 sent=120 delivered=91 dropped=37 duplicated=8 delayed=0 digest=f90c8d100fa482ef",
        "now=256 sent=120 delivered=91 dropped=37 duplicated=8 delayed=0 digest=6e527dc91961bca3",
    ];
    for (i, mode) in modes().into_iter().enumerate() {
        assert_eq!(dropped(false, mode), expected[i], "{mode:?}");
    }
}

#[test]
fn a_held_cut_replays_over_a_dropped_one() {
    let expected = [
        "now=252 sent=120 delivered=91 dropped=37 duplicated=8 delayed=31 digest=c35a409c63278ee7",
        "now=256 sent=120 delivered=91 dropped=37 duplicated=8 delayed=29 digest=97f433e17197d79a",
    ];
    for (i, mode) in modes().into_iter().enumerate() {
        assert_eq!(dropped(true, mode), expected[i], "{mode:?}");
    }
}

#[test]
fn a_reliable_link_replays_over_a_lossy_cut() {
    let expected = [
        "now=2000 sent=628 delivered=484 dropped=187 duplicated=43 delayed=0 digest=21d5a49668e1c090",
        "now=2000 sent=527 delivered=385 dropped=175 duplicated=33 delayed=0 digest=62225a7e9ab358ca",
    ];
    for (i, mode) in modes().into_iter().enumerate() {
        assert_eq!(reliable(mode), expected[i], "{mode:?}");
    }
}
