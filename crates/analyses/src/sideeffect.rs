//! The Side-effect Analysis module (paper Fig. 2): read and write sets of
//! `(object, field)` pairs per method, directly and transitively through
//! the call graph. This is the analysis whose Jedd version is 124 lines
//! against 803 lines of set-manipulating Java (paper §5).

use crate::facts::Facts;
use crate::{naive_closure, persist};
use jedd_core::{JeddError, Relation, Strategy};

/// The computed side-effect relations, each `(method, baseobj, field)`.
pub struct SideEffects {
    /// Fields read directly by each method.
    pub reads: Relation,
    /// Fields written directly by each method.
    pub writes: Relation,
    /// Reads including those of transitive callees.
    pub reads_star: Relation,
    /// Writes including those of transitive callees.
    pub writes_star: Relation,
}

/// Computes direct and transitive side effects with the default
/// [`Strategy`] (semi-naive), given the points-to relation `pt`
/// (`(var, obj)`) and method-level call `edges` (`(caller, method)`).
///
/// # Errors
///
/// Propagates relational-layer errors.
pub fn compute(f: &Facts, pt: &Relation, edges: &Relation) -> Result<SideEffects, JeddError> {
    compute_with(f, pt, edges, Strategy::default())
}

/// [`compute`] under an explicit evaluation strategy.
///
/// # Errors
///
/// Propagates relational-layer errors.
pub fn compute_with(
    f: &Facts,
    pt: &Relation,
    edges: &Relation,
    strategy: Strategy,
) -> Result<SideEffects, JeddError> {
    match strategy {
        Strategy::Naive => {
            f.u.set_site("sideeffect");
            let (reads, writes) = direct_effects(f, pt)?;
            // Transitive closure over the call graph: rw*(caller) ⊇ rw*(callee).
            let close = |direct: &Relation| {
                naive_closure(&f.u, "sideeffect", direct.clone(), |rw| lift(f, edges, rw))
            };
            let reads_star = close(&reads)?;
            let writes_star = close(&writes)?;
            Ok(SideEffects {
                reads,
                writes,
                reads_star,
                writes_star,
            })
        }
        Strategy::SemiNaive => {
            persist::run_sideeffect(f, pt, edges, None).map_err(persist::into_jedd)
        }
    }
}

/// Direct effects: resolve the base variable of each access through `pt`.
/// `load_in`/`store_in` are `(method, base, field)`. Returns
/// `(reads, writes)`. Shared by the naive oracle and the semi-naive loop
/// in [`crate::persist`].
pub(crate) fn direct_effects(f: &Facts, pt: &Relation) -> Result<(Relation, Relation), JeddError> {
    let pt_base = pt
        .rename(f.obj, f.baseobj)?
        .with_assignment(&[(f.baseobj, f.h2)])?;
    let reads = f.load_in.compose(&[f.base], &pt_base, &[f.var])?;
    let writes = f.store_in.compose(&[f.base], &pt_base, &[f.var])?;
    Ok((reads, writes))
}

/// `(caller, baseobj, field) = edges{method} ∘ rw{method}`: effects of
/// callees lifted to their callers. The closure step of both phases,
/// shared by the naive oracle and the semi-naive loop in
/// [`crate::persist`].
pub(crate) fn lift(f: &Facts, edges: &Relation, rw: &Relation) -> Result<Relation, JeddError> {
    edges
        .compose(&[f.method], rw, &[f.method])?
        .rename(f.caller, f.method)?
        .with_assignment(&[(f.method, f.m1)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph;
    use crate::pointsto::{analyze, CallGraphMode};
    use crate::synth::Benchmark;
    use crate::{baseline_sets, facts::Facts};
    use std::collections::BTreeSet;

    fn as_set(r: &Relation) -> BTreeSet<(u64, u64, u64)> {
        r.tuples().into_iter().map(|t| (t[0], t[1], t[2])).collect()
    }

    #[test]
    fn matches_set_baseline() {
        let p = Benchmark::Tiny.generate();
        let f = Facts::load(&p).unwrap();
        let ptres = analyze(&f, CallGraphMode::OnTheFly).unwrap();
        let cg = callgraph::build(&f, &ptres.cg).unwrap();
        let se = compute(&f, &ptres.pt, &cg.edges).unwrap();

        let sets_pt = baseline_sets::points_to(&p);
        let sets_se = baseline_sets::side_effects(&p, &sets_pt);
        // Tuple order: (method, baseobj, field) — attribute ids sort as
        // method < field < baseobj? Verify via schema order below.
        // Relation tuples are in sorted-AttrId order: method, field,
        // baseobj (declaration order: method, field before baseobj? we
        // declared: method(5), field(7), baseobj(13)) — i.e. (method,
        // field, baseobj).
        let expect_reads: BTreeSet<(u64, u64, u64)> = sets_se
            .reads
            .iter()
            .map(|&(m, o, ff)| (m as u64, ff as u64, o as u64))
            .collect();
        assert_eq!(as_set(&se.reads), expect_reads);
        let expect_writes_star: BTreeSet<(u64, u64, u64)> = sets_se
            .writes_star
            .iter()
            .map(|&(m, o, ff)| (m as u64, ff as u64, o as u64))
            .collect();
        assert_eq!(as_set(&se.writes_star), expect_writes_star);
    }

    #[test]
    fn strategies_agree_bit_identically() {
        let p = Benchmark::Compress.generate();
        let f = Facts::load(&p).unwrap();
        let ptres = analyze(&f, CallGraphMode::OnTheFly).unwrap();
        let cg = callgraph::build(&f, &ptres.cg).unwrap();
        let naive = compute_with(&f, &ptres.pt, &cg.edges, Strategy::Naive).unwrap();
        let semi = compute_with(&f, &ptres.pt, &cg.edges, Strategy::SemiNaive).unwrap();
        assert!(semi.reads_star.equals(&naive.reads_star).unwrap());
        assert!(semi.writes_star.equals(&naive.writes_star).unwrap());
    }

    #[test]
    fn star_is_superset_of_direct() {
        let p = Benchmark::Compress.generate();
        let f = Facts::load(&p).unwrap();
        let ptres = analyze(&f, CallGraphMode::OnTheFly).unwrap();
        let cg = callgraph::build(&f, &ptres.cg).unwrap();
        let se = compute(&f, &ptres.pt, &cg.edges).unwrap();
        assert!(se.reads_star.size() >= se.reads.size());
        assert!(se.writes_star.size() >= se.writes.size());
        // Direct ⊆ star as relations.
        assert!(se.reads.minus(&se.reads_star).unwrap().is_empty());
    }
}
