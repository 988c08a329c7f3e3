//! Messages of the generic construction.

use crate::timestamp::Timestamp;
use std::fmt::Debug;

/// The broadcast of Algorithm 1, line 6: `(clock_i, i, u)`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct UpdateMsg<U> {
    /// The `(clock, pid)` timestamp.
    pub ts: Timestamp,
    /// The update payload.
    pub update: U,
}

impl<U: Debug> Debug for UpdateMsg<U> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "msg{:?} {:?}", self.ts, self.update)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn debug_renderings() {
        let m = UpdateMsg {
            ts: Timestamp::new(4, 1),
            update: "I(1)",
        };
        assert_eq!(format!("{m:?}"), "msg(4,1) \"I(1)\"");
    }
}
