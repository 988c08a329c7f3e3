//! Convergence checks across replicas — the observable half of
//! eventual/update consistency in simulated executions.

use crate::replica::{state_digest, Replica};
use uc_spec::UqAdt;

/// Materialize every replica's state.
pub fn states<A: UqAdt, R: Replica<A>>(replicas: &mut [R]) -> Vec<A::State> {
    replicas.iter_mut().map(|r| r.materialize()).collect()
}

/// Are all states equal?
pub fn converged<S: PartialEq>(states: &[S]) -> bool {
    states.windows(2).all(|w| w[0] == w[1])
}

/// Digest every replica's state (cheap divergence fingerprinting for
/// benches).
pub fn digests<A, R>(replicas: &mut [R]) -> Vec<u64>
where
    A: UqAdt,
    R: Replica<A>,
{
    replicas
        .iter_mut()
        .map(|r| state_digest(&r.materialize()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generic::GenericReplica;
    use uc_spec::{SetAdt, SetUpdate};

    #[test]
    fn detects_divergence_and_convergence() {
        let mut rs: Vec<GenericReplica<SetAdt<u32>>> = (0..3)
            .map(|p| GenericReplica::new(SetAdt::new(), p))
            .collect();
        let m0 = rs[0].update(SetUpdate::Insert(1));
        let m1 = rs[1].update(SetUpdate::Delete(1));
        assert!(!converged(&states(&mut rs)));
        for (i, r) in rs.iter_mut().enumerate() {
            if i != 0 {
                r.on_deliver(m0.clone());
            }
            if i != 1 {
                r.on_deliver(m1.clone());
            }
        }
        let ss = states(&mut rs);
        assert!(converged(&ss));
        let ds = digests(&mut rs);
        assert!(ds.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn empty_and_singleton_are_converged() {
        let empty: Vec<u32> = vec![];
        assert!(converged(&empty));
        assert!(converged(&[42]));
    }
}
