//! The Call Graph module (paper Fig. 2): method-level call edges and
//! reachability, derived from the points-to result and virtual call
//! resolution.

use crate::facts::Facts;
use crate::{naive_closure, persist};
use jedd_core::{JeddError, Relation, Strategy};

/// The computed call graph.
pub struct CallGraph {
    /// `(site, method)` — resolved call targets.
    pub site_targets: Relation,
    /// `(caller, method)` — method-level call edges.
    pub edges: Relation,
    /// `(method)` — methods reachable from the entry points.
    pub reachable: Relation,
}

/// Builds the call graph from `(site, method)` targets with the default
/// [`Strategy`] (semi-naive).
///
/// # Errors
///
/// Propagates relational-layer errors.
pub fn build(f: &Facts, site_targets: &Relation) -> Result<CallGraph, JeddError> {
    build_with(f, site_targets, Strategy::default())
}

/// [`build`] under an explicit evaluation strategy.
///
/// # Errors
///
/// Propagates relational-layer errors.
pub fn build_with(
    f: &Facts,
    site_targets: &Relation,
    strategy: Strategy,
) -> Result<CallGraph, JeddError> {
    match strategy {
        Strategy::Naive => {
            f.u.set_site("callgraph");
            let edges = derive_edges(f, site_targets)?;
            // reachable = entry ∪ targets of reachable callers, to fixpoint.
            let reachable = naive_closure(&f.u, "callgraph", f.entry.clone(), |r| {
                callees(f, &edges, r)
            })?;
            Ok(CallGraph {
                site_targets: site_targets.clone(),
                edges,
                reachable,
            })
        }
        Strategy::SemiNaive => {
            persist::run_callgraph(f, site_targets, None).map_err(persist::into_jedd)
        }
    }
}

/// `edges(caller, method) = ∃site. site_caller(site, caller) ∧
/// site_targets(site, method)` — shared by the naive oracle and the
/// semi-naive loop in [`crate::persist`].
pub(crate) fn derive_edges(f: &Facts, site_targets: &Relation) -> Result<Relation, JeddError> {
    f.site_caller.compose(&[f.site], site_targets, &[f.site])
}

/// Callees of the methods in `r`: rename the method to caller, compose
/// with edges over caller. The reachability step, shared by the naive
/// oracle and the semi-naive loop in [`crate::persist`].
pub(crate) fn callees(f: &Facts, edges: &Relation, r: &Relation) -> Result<Relation, JeddError> {
    let as_caller = r
        .rename(f.method, f.caller)?
        .with_assignment(&[(f.caller, f.m2)])?;
    as_caller.compose(&[f.caller], edges, &[f.caller])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pointsto::{analyze, CallGraphMode};
    use crate::synth::Benchmark;
    use crate::{baseline_sets, facts::Facts};
    use std::collections::BTreeSet;

    #[test]
    fn edges_match_set_baseline() {
        let p = Benchmark::Tiny.generate();
        let f = Facts::load(&p).unwrap();
        let ptres = analyze(&f, CallGraphMode::OnTheFly).unwrap();
        let cg = build(&f, &ptres.cg).unwrap();

        let sets = baseline_sets::points_to(&p);
        // edges column order is (method, caller) — attribute-registration
        // order; normalise to (caller, callee).
        let mut expect: BTreeSet<(u64, u64)> = BTreeSet::new();
        for &(site, m) in &sets.cg {
            let caller = p.calls.iter().find(|c| c.site == site).unwrap().caller;
            expect.insert((caller as u64, m as u64));
        }
        let got: BTreeSet<(u64, u64)> = cg
            .edges
            .tuples()
            .into_iter()
            .map(|t| (t[1], t[0]))
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn strategies_agree_bit_identically() {
        let p = Benchmark::Compress.generate();
        let f = Facts::load(&p).unwrap();
        let ptres = analyze(&f, CallGraphMode::OnTheFly).unwrap();
        let naive = build_with(&f, &ptres.cg, Strategy::Naive).unwrap();
        let semi = build_with(&f, &ptres.cg, Strategy::SemiNaive).unwrap();
        assert!(semi.reachable.equals(&naive.reachable).unwrap());
        assert!(semi.edges.equals(&naive.edges).unwrap());
    }

    #[test]
    fn reachable_contains_entries_and_grows_along_edges() {
        let p = Benchmark::Compress.generate();
        let f = Facts::load(&p).unwrap();
        let ptres = analyze(&f, CallGraphMode::OnTheFly).unwrap();
        let cg = build(&f, &ptres.cg).unwrap();
        for &m in &p.entry_points {
            assert!(cg.reachable.contains(&[m as u64]));
        }
        // Closure property: a callee of a reachable method is reachable.
        for t in cg.edges.tuples() {
            let (callee, caller) = (t[0], t[1]);
            if cg.reachable.contains(&[caller]) {
                assert!(cg.reachable.contains(&[callee]));
            }
        }
    }
}
