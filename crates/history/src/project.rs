//! History projections (Definition 2): `H_F` keeps only the events of
//! `F` with the induced order.

use crate::downset::{self, Mask};
use crate::event::EventId;
use crate::history::History;
use uc_spec::UqAdt;

/// `H_F`: the sub-history induced by the events in `keep`.
///
/// Events are re-indexed densely (preserving relative id order); the
/// program order is the restriction of the closure, so transitivity
/// through removed events is preserved (e.g. `a ↦ q ↦ b` keeps
/// `a ↦ b` after `q` is dropped — exactly what update-consistency
/// checking relies on when it removes the finite query set `Q'`).
pub fn restrict<A: UqAdt + Clone>(h: &History<A>, keep: Mask) -> History<A> {
    let kept: Vec<EventId> = downset::iter(keep).map(|i| EventId(i as u32)).collect();
    let mut new_index = vec![u32::MAX; h.len()];
    for (ni, &old) in kept.iter().enumerate() {
        new_index[old.idx()] = ni as u32;
    }
    let remap = |m: Mask| -> Mask {
        downset::iter(m & keep).fold(0, |acc, i| acc | downset::bit(new_index[i] as usize))
    };

    let mut events = Vec::with_capacity(kept.len());
    let mut before = Vec::with_capacity(kept.len());
    let mut after = Vec::with_capacity(kept.len());
    let mut updates: Mask = 0;
    let mut queries: Mask = 0;
    let mut omegas: Mask = 0;
    let mut chains: Vec<Vec<EventId>> = vec![Vec::new(); h.n_processes()];
    for (ni, &old) in kept.iter().enumerate() {
        let ev = h.event(old);
        let mut ev2 = ev.clone();
        ev2.index_in_process = chains[ev.process.idx()].len() as u32;
        chains[ev.process.idx()].push(EventId(ni as u32));
        if ev2.is_update() {
            updates |= downset::bit(ni);
        } else {
            queries |= downset::bit(ni);
        }
        if ev2.omega {
            omegas |= downset::bit(ni);
        }
        events.push(ev2);
        before.push(remap(h.before_mask(old)));
        after.push(remap(h.after_mask(old)));
    }
    // Extra edges: record the full induced covering relation so the
    // debug rendering stays meaningful; correctness only needs the
    // closure masks computed above.
    let mut extra_edges = Vec::new();
    for &(a, b) in h.extra_edges() {
        if downset::contains(keep, a.idx()) && downset::contains(keep, b.idx()) {
            extra_edges.push((EventId(new_index[a.idx()]), EventId(new_index[b.idx()])));
        }
    }
    History {
        adt: h.adt().clone(),
        events,
        chains,
        extra_edges,
        before,
        after,
        updates,
        queries,
        omegas,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::HistoryBuilder;
    use std::collections::BTreeSet;
    use uc_spec::{SetAdt, SetQuery, SetUpdate};

    type S = SetAdt<u32>;

    fn sample() -> History<S> {
        let mut b = HistoryBuilder::new(S::new());
        let [p0, p1] = b.processes();
        b.update(p0, SetUpdate::Insert(1)); // e0
        b.query(p0, SetQuery::Read, BTreeSet::from([1])); // e1
        b.update(p0, SetUpdate::Insert(2)); // e2
        b.update(p1, SetUpdate::Insert(3)); // e3
        b.build().unwrap()
    }

    #[test]
    fn restrict_keeps_transitive_order_through_dropped_events() {
        let h = sample();
        // Drop the query e1; e0 ↦ e2 must survive.
        let keep = h.all_mask() & !downset::bit(1);
        let r = restrict(&h, keep);
        assert_eq!(r.len(), 3);
        // new ids: e0→0, e2→1, e3→2
        assert!(r.is_before(EventId(0), EventId(1)));
        assert!(r.concurrent(EventId(0), EventId(2)));
        assert!(r.validate().is_ok());
    }

    #[test]
    fn restrict_updates_masks() {
        let h = sample();
        let keep = downset::bit(1) | downset::bit(3);
        let r = restrict(&h, keep);
        assert_eq!(r.queries_mask(), 0b01);
        assert_eq!(r.updates_mask(), 0b10);
    }

    #[test]
    fn restrict_reindexes_chains() {
        let h = sample();
        let keep = h.all_mask() & !downset::bit(0);
        let r = restrict(&h, keep);
        assert_eq!(r.chain(crate::ProcessId(0)).len(), 2);
        assert_eq!(r.chain(crate::ProcessId(1)).len(), 1);
        assert_eq!(r.event(EventId(0)).index_in_process, 0);
    }

    #[test]
    fn restrict_full_mask_is_identity_shaped() {
        let h = sample();
        let r = restrict(&h, h.all_mask());
        assert_eq!(r.len(), h.len());
        for e in h.ids() {
            assert_eq!(r.before_mask(e), h.before_mask(e));
        }
    }
}
