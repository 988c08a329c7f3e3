//! The correctness check, made from outside the program.
//!
//! The paper's criterion: every replica converges to the state of one
//! total order of the updates. So every acknowledged `(ts, key,
//! update)` is collected, folded per key in timestamp order through
//! the sequential specification (`uc-spec`), and each replica's
//! `materialize_key` must equal that fold. Epochs end quiescent, which
//! puts every later stamp above every earlier one: the fold advances
//! epoch by epoch and keeps O(keys) state, not the run's inputs.
//!
//! A second, library-level reference rides along on a sample of the
//! keys: a sequential `UcStore` that ingests the same messages through
//! `apply_batch` in arrival order and never sees a pool or a partition.

use crate::cluster::{Adt, Upd};
use std::collections::BTreeSet;
use uc_core::store::Key;
use uc_core::{CheckpointFactory, StoreMsg, Timestamp, UcStore, UpdateMsg};
use uc_spec::{SetAdt, UqAdt};

pub type Acked = (Timestamp, Key, Upd);
pub type State = BTreeSet<u32>;

/// Every `REFERENCE_STRIDE`-th key is also held by the sequential
/// reference store (which keeps its whole log, hence the sample).
const REFERENCE_STRIDE: u64 = 64;

fn sampled(key: Key) -> bool {
    key % REFERENCE_STRIDE == REFERENCE_STRIDE - 1
}

pub struct Oracle {
    adt: Adt,
    states: Vec<State>,
    reference: UcStore<Adt, CheckpointFactory>,
    last_clock: u64,
    pub folded: u64,
}

impl Oracle {
    pub fn new(keys: usize) -> Self {
        Oracle {
            adt: SetAdt::new(),
            states: vec![State::new(); keys],
            reference: UcStore::new(SetAdt::new(), 0, 1, CheckpointFactory { every: 64 }),
            last_clock: 0,
            folded: 0,
        }
    }

    /// Fold an epoch's acknowledged updates (given in arrival order)
    /// and empty the list.
    pub fn fold(&mut self, acked: &mut Vec<Acked>) {
        let sample: Vec<StoreMsg<Upd>> = acked
            .iter()
            .filter(|(_, key, _)| sampled(*key))
            .map(|(ts, key, u)| StoreMsg::Update {
                key: *key,
                msg: UpdateMsg {
                    ts: *ts,
                    update: *u,
                },
            })
            .collect();
        self.reference.apply_batch_owned(sample);

        acked.sort_unstable_by_key(|(ts, _, _)| *ts);
        if let Some((first, _, _)) = acked.first() {
            assert!(
                first.clock > self.last_clock,
                "an epoch must end quiescent: stamp {first:?} is not above {}",
                self.last_clock
            );
        }
        for pair in acked.windows(2) {
            assert!(pair[0].0 < pair[1].0, "timestamps are unique");
        }
        for (ts, key, u) in acked.drain(..) {
            self.adt.apply(&mut self.states[key as usize], &u);
            self.last_clock = ts.clock;
            self.folded += 1;
        }
    }

    /// Keys on which `materialize` (a replica's `materialize_key`)
    /// differs from the fold or from the sequential reference.
    pub fn mismatches(&mut self, who: &str, mut materialize: impl FnMut(Key) -> State) -> u64 {
        let mut bad = 0;
        for key in 0..self.states.len() as Key {
            let got = materialize(key);
            let spec_ok = got == self.states[key as usize];
            let reference_ok = !sampled(key) || got == self.reference.materialize_key(key);
            if !(spec_ok && reference_ok) {
                if bad < 3 {
                    eprintln!(
                        "oracle: {who} key {key}: replica {got:?}, spec fold {:?}{}",
                        self.states[key as usize],
                        if reference_ok {
                            ""
                        } else {
                            ", sequential reference differs too"
                        }
                    );
                }
                bad += 1;
            }
        }
        bad
    }
}
