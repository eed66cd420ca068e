//! The Hierarchy module (paper Fig. 2): reflexive-transitive subtype
//! closure of the `extend` relation.

use crate::facts::Facts;
use crate::{naive_closure, persist};
use jedd_core::{JeddError, Relation, Strategy};

/// The computed hierarchy relations.
pub struct Hierarchy {
    /// `(subtype, supertype)` — reflexive-transitive subtyping.
    pub subtype_of: Relation,
}

/// Computes the subtype closure with the default [`Strategy`]
/// (semi-naive):
/// `subtypeOf = identity ∪ extend ∪ (subtypeOf ∘ extend)` to fixpoint.
///
/// # Errors
///
/// Propagates relational-layer errors.
pub fn compute(f: &Facts) -> Result<Hierarchy, JeddError> {
    compute_with(f, Strategy::default())
}

/// [`compute`] under an explicit evaluation strategy.
///
/// # Errors
///
/// Propagates relational-layer errors.
pub fn compute_with(f: &Facts, strategy: Strategy) -> Result<Hierarchy, JeddError> {
    match strategy {
        Strategy::Naive => {
            f.u.set_site("hierarchy");
            let subtype_of = naive_closure(&f.u, "hierarchy", initial(f)?, |c| hop(f, c))?;
            Ok(Hierarchy { subtype_of })
        }
        Strategy::SemiNaive => persist::run_hierarchy(f, None).map_err(persist::into_jedd),
    }
}

/// One closure step, shared by the naive oracle and the semi-naive loop
/// in [`crate::persist`]: `step(subtype, supertype) = ∃m. c(subtype, m)
/// ∧ extend(m, supertype)`. The middle moves onto T3 so the composition
/// has three distinct domains (the standard closure layout).
pub(crate) fn hop(f: &Facts, c: &Relation) -> Result<Relation, JeddError> {
    let mid = c
        .rename(f.supertype, f.tgttype)?
        .with_assignment(&[(f.tgttype, f.t3)])?;
    let ext_mid = f.extend.rename(f.subtype, f.tgttype)?;
    mid.compose(&[f.tgttype], &ext_mid, &[f.tgttype])
}

/// The closure seed, `identity ∪ extend`, shared by the naive oracle and
/// the semi-naive loop in [`crate::persist`].
pub(crate) fn initial(f: &Facts) -> Result<Relation, JeddError> {
    f.type_identity()?.union(&f.extend)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Program;
    use crate::synth::Benchmark;

    fn chain_program(n: u32) -> Program {
        Program {
            types: n as usize,
            sigs: 1,
            methods: 1,
            fields: 1,
            vars: 1,
            allocs: 1,
            call_sites: 0,
            extend: (1..n).map(|t| (t, t - 1)).collect(),
            declares: vec![(0, 0, 0)],
            alloc_type: vec![(0, 0)],
            method_this: vec![(0, 0)],
            entry_points: vec![0],
            ..Program::default()
        }
    }

    #[test]
    fn chain_closure_is_triangular() {
        let p = chain_program(6);
        let f = Facts::load(&p).unwrap();
        let h = compute(&f).unwrap();
        // Chain 0 <- 1 <- ... <- 5: closure size = 6 + 5 + ... + 1 = 21.
        assert_eq!(h.subtype_of.size(), 21);
        assert!(h.subtype_of.contains(&[5, 0]));
        assert!(h.subtype_of.contains(&[3, 3]));
        assert!(!h.subtype_of.contains(&[0, 5]));
    }

    #[test]
    fn strategies_agree_bit_identically() {
        let p = Benchmark::Compress.generate();
        let f = Facts::load(&p).unwrap();
        let naive = compute_with(&f, Strategy::Naive).unwrap();
        let semi = compute_with(&f, Strategy::SemiNaive).unwrap();
        assert!(semi.subtype_of.equals(&naive.subtype_of).unwrap());
    }

    #[test]
    fn closure_matches_reference_on_benchmark() {
        let p = Benchmark::Tiny.generate();
        let f = Facts::load(&p).unwrap();
        let h = compute(&f).unwrap();
        for t in 0..p.types as u32 {
            for sup in p.supertype_chain(t) {
                assert!(
                    h.subtype_of.contains(&[t as u64, sup as u64]),
                    "{t} <: {sup} missing"
                );
            }
        }
        // Count must equal the sum of chain lengths (trees have unique
        // paths).
        let expect: usize = (0..p.types as u32)
            .map(|t| p.supertype_chain(t).len())
            .sum();
        assert_eq!(h.subtype_of.size() as usize, expect);
    }
}
