//! A replica that only receives still compacts under `GcFactory`: its
//! own pid is heard at its tick's clock, so the floor is the sender's
//! heartbeat even when the replica never stamps or announces a clock.

use uc_core::{GcFactory, StoreMsg, UcStore};
use uc_spec::{SetAdt, SetUpdate};

type Store = UcStore<SetAdt<u32>, GcFactory>;

/// Every one of keys 0..3 drained its ten entries at bound 30, and no
/// log holds an entry.
fn assert_compacted_at_30(name: &str, store: &Store) {
    for k in 0..3u64 {
        let e = store.engine(k).unwrap();
        let got = (e.strategy().stability_bound(), e.strategy().compacted());
        assert_eq!(got, (30, 10), "{name} key {k}: (bound, compacted)");
    }
    assert_eq!(store.total_log_len(), 0, "{name}: retained log");
}

#[test]
fn a_receiver_compacts_at_the_senders_heartbeat_even_if_it_never_stamps() {
    let mut a: Store = UcStore::new(SetAdt::new(), 0, 2, GcFactory { n: 2 });
    let mut b: Store = UcStore::new(SetAdt::new(), 1, 2, GcFactory { n: 2 });
    let msgs: Vec<_> = (0..30u64)
        .map(|i| a.update(i % 3, SetUpdate::Insert(i as u32)))
        .collect();
    // b receives, and the two exchange heartbeats before their ticks.
    b.apply_batch_owned(msgs.clone());
    let Ok(_) = a.apply_message_from(b.pid(), b.heartbeat());
    let Ok(_) = b.apply_message_from(a.pid(), a.heartbeat());
    a.tick_maintenance();
    b.tick_maintenance();
    assert_compacted_at_30("b", &b);

    // c never stamps and never announces its clock: its tick hears its
    // own pid at the clock it merged from the updates, 30.
    let mut c: Store = UcStore::new(SetAdt::new(), 1, 2, GcFactory { n: 2 });
    c.apply_batch_owned(msgs);
    let Ok(_) = c.apply_message_from(0, StoreMsg::Heartbeat { pid: 0, clock: 30 });
    c.tick_maintenance();
    assert_compacted_at_30("c", &c);
}
