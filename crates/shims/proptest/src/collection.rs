//! Collection strategies (`proptest::collection::vec`).

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use std::ops::{Range, RangeInclusive};

/// An inclusive length range for collection strategies.
#[derive(Clone, Copy, Debug)]
pub struct SizeRange {
    lo: usize,
    hi: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            lo: r.start,
            hi: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty size range");
        SizeRange {
            lo: *r.start(),
            hi: *r.end(),
        }
    }
}

/// The strategy returned by [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let span = (self.size.hi - self.size.lo) as u64 + 1;
        let len = self.size.lo + rng.below(span) as usize;
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

/// A strategy for `Vec`s whose length lies in `size` and whose
/// elements come from `element`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lengths_respect_bounds() {
        let s = vec(0u8..10, 2..5);
        let mut rng = TestRng::from_seed(1);
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!((2..5).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 10));
        }
    }

    #[test]
    fn exact_and_inclusive_sizes() {
        let mut rng = TestRng::from_seed(2);
        assert_eq!(vec(0u8..2, 3usize).generate(&mut rng).len(), 3);
        assert_eq!(vec(0u8..2, 4..=4).generate(&mut rng).len(), 4);
    }
}
