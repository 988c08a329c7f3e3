use uc_core::{GcFactory, StoreMsg, UcStore};
use uc_spec::{SetAdt, SetUpdate};

#[test]
fn probe_receiver_only_gc() {
    let mut a: UcStore<SetAdt<u32>, GcFactory> =
        UcStore::new(SetAdt::new(), 0, 2, GcFactory { n: 2 });
    let mut b: UcStore<SetAdt<u32>, GcFactory> =
        UcStore::new(SetAdt::new(), 1, 2, GcFactory { n: 2 });
    let msgs: Vec<_> = (0..30u64)
        .map(|i| a.update(i % 3, SetUpdate::Insert(i as u32)))
        .collect();
    b.apply_batch_owned(msgs.clone());
    let Ok(_) = a.apply_message_from(b.pid(), b.heartbeat());
    let Ok(_) = b.apply_message_from(a.pid(), a.heartbeat());
    a.tick_maintenance();
    b.tick_maintenance();
    for k in 0..3u64 {
        let e = b.engine(k).unwrap();
        println!(
            "b key {k}: bound={} compacted={}",
            e.strategy().stability_bound(),
            e.strategy().compacted()
        );
    }
    println!("b total_log_len = {}", b.total_log_len());
    // What if b NEVER heartbeats (pure receiver, no local activity)?
    let mut c: UcStore<SetAdt<u32>, GcFactory> =
        UcStore::new(SetAdt::new(), 1, 2, GcFactory { n: 2 });
    c.apply_batch_owned(msgs);
    let Ok(_) = c.apply_message_from(0, StoreMsg::Heartbeat { pid: 0, clock: 30 });
    c.tick_maintenance();
    println!(
        "c (never announced own clock) total_log_len = {}",
        c.total_log_len()
    );
    for k in 0..3u64 {
        let e = c.engine(k).unwrap();
        println!(
            "c key {k}: bound={} compacted={}",
            e.strategy().stability_bound(),
            e.strategy().compacted()
        );
    }
}
