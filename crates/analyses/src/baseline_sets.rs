//! Explicit set-based reference implementations of the five analyses.
//!
//! These are the "pure Java" versions the paper compares against for code
//! size (§5: 803 lines of Java vs 124 of Jedd for the side-effect
//! analysis): straightforward worklist algorithms over hash sets. They
//! serve as ground truth for the BDD versions and as the explicit-set
//! baseline in the benches.

use crate::ir::Program;
use std::collections::{BTreeMap, BTreeSet};

/// Set-based subtype closure: `(subtype, supertype)` pairs, reflexive and
/// transitive.
pub fn hierarchy(p: &Program) -> BTreeSet<(u32, u32)> {
    let mut out = BTreeSet::new();
    for t in 0..p.types as u32 {
        for sup in p.supertype_chain(t) {
            out.insert((t, sup));
        }
    }
    out
}

/// Set-based virtual call resolution for explicit `(site, type)` pairs.
pub fn resolve_calls(p: &Program, site_types: &BTreeSet<(u32, u32)>) -> BTreeSet<(u32, u32)> {
    let mut out = BTreeSet::new();
    for &(site, t) in site_types {
        let sig = p.calls.iter().find(|c| c.site == site).map(|c| c.sig);
        if let Some(sig) = sig {
            if let Some(m) = p.dispatch(t, sig) {
                out.insert((site, m));
            }
        }
    }
    out
}

/// The result of the set-based points-to analysis.
#[derive(Clone, Debug, Default)]
pub struct SetPointsTo {
    /// `(var, obj)` pairs.
    pub pt: BTreeSet<(u32, u32)>,
    /// `(baseobj, field, obj)` pairs.
    pub field_pt: BTreeSet<(u32, u32, u32)>,
    /// `(site, method)` call edges.
    pub cg: BTreeSet<(u32, u32)>,
}

/// Set-based flow-insensitive points-to analysis with an on-the-fly call
/// graph; mirrors [`crate::pointsto::analyze`] exactly.
pub fn points_to(p: &Program) -> SetPointsTo {
    points_to_impl(p, false)
}

/// Type-filtered variant, mirroring [`crate::pointsto::analyze_typed`]:
/// `(var, obj)` is admitted only when the object's class is a subtype of
/// the variable's declared type (unlisted variables default to the root).
pub fn points_to_typed(p: &Program) -> SetPointsTo {
    points_to_impl(p, true)
}

fn points_to_impl(p: &Program, typed: bool) -> SetPointsTo {
    let declared: BTreeMap<u32, u32> = p.var_type.iter().copied().collect();
    let alloc_type_map: BTreeMap<u32, u32> = p.alloc_type.iter().copied().collect();
    let admit = |v: u32, o: u32| -> bool {
        if !typed {
            return true;
        }
        let decl = declared.get(&v).copied().unwrap_or(0);
        let obj_ty = alloc_type_map[&o];
        p.supertype_chain(obj_ty).contains(&decl)
    };
    let mut pt: BTreeSet<(u32, u32)> = p
        .news
        .iter()
        .filter(|&&(_, v, a)| admit(v, a))
        .map(|&(_, v, a)| (v, a))
        .collect();
    let mut field_pt: BTreeSet<(u32, u32, u32)> = BTreeSet::new();
    let mut cg: BTreeSet<(u32, u32)> = BTreeSet::new();
    let mut edges: BTreeSet<(u32, u32)> = p.assigns.iter().map(|&(_, d, s)| (d, s)).collect();
    let alloc_type: BTreeMap<u32, u32> = p.alloc_type.iter().copied().collect();

    loop {
        let mut changed = false;
        // Copy propagation.
        loop {
            let mut grew = false;
            let mut add = Vec::new();
            for &(d, s) in &edges {
                for &(v, o) in pt.iter().filter(|&&(v, _)| v == s) {
                    let _ = v;
                    if !pt.contains(&(d, o)) && admit(d, o) {
                        add.push((d, o));
                    }
                }
            }
            for x in add {
                grew |= pt.insert(x);
            }
            if !grew {
                break;
            }
            changed = true;
        }
        // Stores.
        for &(_, b, f, s) in &p.stores {
            let bases: Vec<u32> = pt
                .iter()
                .filter(|&&(v, _)| v == b)
                .map(|&(_, o)| o)
                .collect();
            let vals: Vec<u32> = pt
                .iter()
                .filter(|&&(v, _)| v == s)
                .map(|&(_, o)| o)
                .collect();
            for &ob in &bases {
                for &o in &vals {
                    changed |= field_pt.insert((ob, f, o));
                }
            }
        }
        // Loads.
        for &(_, d, b, f) in &p.loads {
            let bases: Vec<u32> = pt
                .iter()
                .filter(|&&(v, _)| v == b)
                .map(|&(_, o)| o)
                .collect();
            for &ob in &bases {
                let objs: Vec<u32> = field_pt
                    .iter()
                    .filter(|&&(bo, ff, _)| bo == ob && ff == f)
                    .map(|&(_, _, o)| o)
                    .collect();
                for o in objs {
                    if admit(d, o) {
                        changed |= pt.insert((d, o));
                    }
                }
            }
        }
        // Call graph from receiver points-to sets.
        for c in &p.calls {
            let objs: Vec<u32> = pt
                .iter()
                .filter(|&&(v, _)| v == c.recv)
                .map(|&(_, o)| o)
                .collect();
            for o in objs {
                let t = alloc_type[&o];
                if let Some(m) = p.dispatch(t, c.sig) {
                    changed |= cg.insert((c.site, m));
                }
            }
        }
        // Interprocedural edges.
        let mut new_edges = Vec::new();
        for &(site, m) in &cg {
            let c = p.calls.iter().find(|c| c.site == site).expect("site");
            if let Some(&(_, this_var)) = p.method_this.iter().find(|&&(mm, _)| mm == m) {
                new_edges.push((this_var, c.recv));
            }
            for &(mm, i, pv) in &p.method_params {
                if mm == m {
                    if let Some(&av) = c.args.get(i as usize) {
                        new_edges.push((pv, av));
                    }
                }
            }
            if let Some(rv) = c.ret {
                if let Some(&(_, mrv)) = p.method_ret.iter().find(|&&(mm, _)| mm == m) {
                    new_edges.push((rv, mrv));
                }
            }
        }
        for e in new_edges {
            changed |= edges.insert(e);
        }
        if !changed {
            return SetPointsTo { pt, field_pt, cg };
        }
    }
}

/// The result of the set-based side-effect analysis.
#[derive(Clone, Debug, Default)]
pub struct SetSideEffects {
    /// Direct reads: `(method, baseobj, field)`.
    pub reads: BTreeSet<(u32, u32, u32)>,
    /// Direct writes: `(method, baseobj, field)`.
    pub writes: BTreeSet<(u32, u32, u32)>,
    /// Transitive reads (including callees).
    pub reads_star: BTreeSet<(u32, u32, u32)>,
    /// Transitive writes (including callees).
    pub writes_star: BTreeSet<(u32, u32, u32)>,
}

/// Set-based side-effect analysis given a points-to result.
pub fn side_effects(p: &Program, ptres: &SetPointsTo) -> SetSideEffects {
    let mut out = SetSideEffects::default();
    for &(m, _, b, f) in &p.loads {
        for &(v, o) in ptres.pt.iter().filter(|&&(v, _)| v == b) {
            let _ = v;
            out.reads.insert((m, o, f));
        }
    }
    for &(m, b, f, _) in &p.stores {
        for &(v, o) in ptres.pt.iter().filter(|&&(v, _)| v == b) {
            let _ = v;
            out.writes.insert((m, o, f));
        }
    }
    // Caller -> callee edges.
    let mut call_edges: BTreeSet<(u32, u32)> = BTreeSet::new();
    for &(site, callee) in &ptres.cg {
        let caller = p
            .calls
            .iter()
            .find(|c| c.site == site)
            .expect("site")
            .caller;
        call_edges.insert((caller, callee));
    }
    out.reads_star = out.reads.clone();
    out.writes_star = out.writes.clone();
    loop {
        let mut changed = false;
        let mut add_r = Vec::new();
        let mut add_w = Vec::new();
        for &(caller, callee) in &call_edges {
            for &(m, o, f) in out.reads_star.iter().filter(|&&(m, _, _)| m == callee) {
                let _ = m;
                add_r.push((caller, o, f));
            }
            for &(m, o, f) in out.writes_star.iter().filter(|&&(m, _, _)| m == callee) {
                let _ = m;
                add_w.push((caller, o, f));
            }
        }
        for x in add_r {
            changed |= out.reads_star.insert(x);
        }
        for x in add_w {
            changed |= out.writes_star.insert(x);
        }
        if !changed {
            return out;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::Benchmark;

    #[test]
    fn hierarchy_reflexive() {
        let p = Benchmark::Tiny.generate();
        let h = hierarchy(&p);
        for t in 0..p.types as u32 {
            assert!(h.contains(&(t, t)));
            assert!(h.contains(&(t, 0)), "everything reaches the root");
        }
    }

    #[test]
    fn points_to_is_monotone_in_edges() {
        let mut p = Benchmark::Tiny.generate();
        let base = points_to(&p);
        // Adding a copy edge can only grow the solution.
        if p.vars >= 2 {
            p.assigns.push((0, 1, 0));
            let more = points_to(&p);
            assert!(more
                .pt
                .is_superset(&base.pt.iter().copied().filter(|&(v, _)| v != 1).collect()));
        }
        let _ = base;
    }

    #[test]
    fn side_effects_transitive_superset() {
        let p = Benchmark::Tiny.generate();
        let ptres = points_to(&p);
        let se = side_effects(&p, &ptres);
        assert!(se.reads_star.is_superset(&se.reads));
        assert!(se.writes_star.is_superset(&se.writes));
    }

    #[test]
    fn resolve_calls_matches_dispatch() {
        let p = Benchmark::Tiny.generate();
        let mut st = BTreeSet::new();
        for c in &p.calls {
            for t in 0..p.types as u32 {
                st.insert((c.site, t));
            }
        }
        let r = resolve_calls(&p, &st);
        for &(site, m) in &r {
            let c = p.calls.iter().find(|c| c.site == site).unwrap();
            assert!((0..p.types as u32).any(|t| p.dispatch(t, c.sig) == Some(m)));
        }
    }
}
