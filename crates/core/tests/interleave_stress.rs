//! Schedule-perturbation stress for the concurrent primitives, driven
//! by the `interleave` shim (a pragmatic loom stand-in — see
//! `crates/shims/README.md`): the real inbox and clock code runs on
//! real threads while seeded yield/spin/sleep injection at the racy
//! seams pushes the OS scheduler into interleavings an unperturbed
//! run rarely exposes.
//!
//! Covered seams:
//! * **inbox push/claim/close** — producers pushing into std's bounded
//!   channel against a consumer claiming, through full-inbox parking
//!   and the close gate's handoff: nothing lost, nothing duplicated,
//!   per-producer FIFO preserved, every accepted push claimed after a
//!   close;
//! * **clock CAS** — concurrent `tick` (fetch_add) and `merge`
//!   (fetch_max running max): stamps stay unique, the clock never
//!   regresses, and merges are monotone.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use uc_core::inbox;
use uc_core::LamportClock;

const SEEDS: u64 = 6;
const PRODUCERS: u64 = 3;
const ITEMS_PER_PRODUCER: u64 = 400;

/// A pool worker's claim loop without the work: claim what is queued,
/// block in `recv` when idle, and stop when `recv` reports the close,
/// which it does only once every accepted push has been taken.
/// Everything claimed, in order.
fn consume<T>(rx: &Receiver<T>, sched: &mut interleave::Schedule) -> Vec<T> {
    let mut got = Vec::new();
    loop {
        sched.point(); // race the claim against pushes and the close
        got.extend(rx.try_iter());
        match rx.recv() {
            Ok(item) => got.push(item),
            Err(_) => return got,
        }
    }
}

#[test]
fn perturbed_inbox_loses_nothing_and_keeps_fifo() {
    interleave::explore(SEEDS, |run| {
        let (inbox, rx) = inbox::bounded::<(u64, u64)>(8);
        let inbox = Arc::new(inbox);
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let inbox = Arc::clone(&inbox);
                let mut sched = run.schedule(p + 1);
                std::thread::spawn(move || {
                    for i in 0..ITEMS_PER_PRODUCER {
                        sched.point(); // race the sends, full or not
                        if inbox.push((p, i)).is_err() {
                            panic!("inbox closed under a live producer");
                        }
                    }
                })
            })
            .collect();

        let consumer = {
            let mut sched = run.schedule(0);
            std::thread::spawn(move || consume(&rx, &mut sched))
        };

        for p in producers {
            p.join().unwrap();
        }
        inbox.close();
        let mut got: Vec<Vec<u64>> = (0..PRODUCERS).map(|_| Vec::new()).collect();
        for (p, i) in consumer.join().unwrap() {
            got[p as usize].push(i);
        }
        for (p, seq) in got.iter().enumerate() {
            assert_eq!(
                seq.len() as u64,
                ITEMS_PER_PRODUCER,
                "seed {}: producer {p} lost items",
                run.seed()
            );
            assert!(
                seq.windows(2).all(|w| w[0] < w[1]),
                "seed {}: producer {p} order broken (per-producer FIFO)",
                run.seed()
            );
        }
    });
}

#[test]
fn perturbed_close_drains_every_accepted_push() {
    // The close gate: producers race `close()` itself, some of them
    // parked on a full inbox; every push that reported Ok must be
    // claimed afterwards, every push after close must be refused.
    interleave::explore(SEEDS, |run| {
        let (inbox, rx) = inbox::bounded::<u64>(4);
        let inbox = Arc::new(inbox);
        let accepted = Arc::new(AtomicU64::new(0));
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let inbox = Arc::clone(&inbox);
                let accepted = Arc::clone(&accepted);
                let mut sched = run.schedule(p + 1);
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        sched.point();
                        if inbox.push(p * 1000 + i).is_err() {
                            return;
                        }
                        accepted.fetch_add(1, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        let consumer = {
            let mut sched = run.schedule(0);
            std::thread::spawn(move || consume(&rx, &mut sched))
        };
        // Close midway through the contention window.
        let mut sched = run.schedule(99);
        for _ in 0..32 {
            sched.point();
        }
        inbox.close();
        for p in producers {
            p.join().unwrap();
        }
        let drained = consumer.join().unwrap();
        assert_eq!(
            drained.len() as u64,
            accepted.load(Ordering::SeqCst),
            "seed {}: accepted pushes must all drain after close",
            run.seed()
        );
    });
}

#[test]
fn perturbed_clock_ticks_stay_unique_and_monotone() {
    interleave::explore(SEEDS, |run| {
        let clock = Arc::new(LamportClock::new());
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let clock = Arc::clone(&clock);
                let mut sched = run.schedule(t);
                std::thread::spawn(move || {
                    let mut stamps = Vec::new();
                    let mut last_seen = 0;
                    for _ in 0..500 {
                        sched.point(); // race fetch_add against fetch_max
                        match sched.choose(4) {
                            // Mostly tick; stamps must be unique and
                            // each thread's stamps strictly increase.
                            0..=2 => {
                                let v = clock.tick();
                                assert!(v > last_seen, "tick regressed");
                                last_seen = v;
                                stamps.push(v);
                            }
                            // Sometimes merge a peer clock ahead of
                            // everything seen; now() must cover it.
                            _ => {
                                let peer = last_seen + sched.choose(3);
                                clock.merge(peer);
                                let now = clock.now();
                                assert!(now >= peer, "merge lost: {now} < {peer}");
                                last_seen = last_seen.max(now);
                            }
                        }
                    }
                    stamps
                })
            })
            .collect();
        let mut all: Vec<u64> = threads
            .into_iter()
            .flat_map(|t| t.join().unwrap())
            .collect();
        let issued = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(
            all.len(),
            issued,
            "seed {}: concurrent ticks produced a duplicate stamp",
            run.seed()
        );
    });
}
