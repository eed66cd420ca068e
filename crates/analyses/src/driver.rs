//! Whole-program drivers: run the five analyses together, either through
//! the Rust relational implementations or through the mini-Jedd sources
//! executed by `jeddc` — the full system of the paper, end to end.

use crate::facts::Facts;
use crate::ir::Program;
use crate::{baseline_sets, callgraph, hierarchy, jedd_src, pointsto, sideeffect};
use jedd_core::{BddError, Budget, JeddError, OpEvent, Relation, Strategy};
use jeddc::{ExecError, Executor};
use std::collections::BTreeSet;

/// The combined results of the five analyses (Rust relational versions).
pub struct WholeProgram {
    /// The fact base and universe.
    pub facts: Facts,
    /// Hierarchy closure.
    pub hierarchy: hierarchy::Hierarchy,
    /// Points-to result (includes the call-site targets).
    pub points_to: pointsto::PointsTo,
    /// Call graph.
    pub call_graph: callgraph::CallGraph,
    /// Side effects.
    pub side_effects: sideeffect::SideEffects,
    /// Phases that exhausted the resource budget and were recomputed on
    /// the explicit-set fallback (empty when everything ran on BDDs).
    pub degraded_phases: Vec<&'static str>,
}

/// Runs all five analyses on a program.
///
/// # Errors
///
/// Propagates relational-layer errors.
pub fn run(p: &Program) -> Result<WholeProgram, JeddError> {
    run_with_budget(p, Budget::unlimited())
}

/// Runs all five analyses under a resource [`Budget`], degrading
/// gracefully: a phase that exhausts the budget — even after the BDD
/// manager's GC-and-reorder recovery ladder — is logged through the
/// profiler and recomputed on the [`baseline_sets`] explicit-set
/// implementation (with the budget lifted only while materialising the
/// fallback's result relations). The run still produces whole-program
/// results; [`WholeProgram::degraded_phases`] records which phases fell
/// back.
///
/// # Errors
///
/// Propagates relational-layer errors other than budget exhaustion;
/// cancellation ([`BddError::Cancelled`]) always aborts the run rather
/// than degrading.
pub fn run_with_budget(p: &Program, budget: Budget) -> Result<WholeProgram, JeddError> {
    let facts = Facts::load(p)?;
    facts.u.set_budget(budget);
    let mut degraded: Vec<&'static str> = Vec::new();
    // The set-based points-to result, computed at most once, shared by
    // every fallback that needs it.
    let mut sets_cache: Option<baseline_sets::SetPointsTo> = None;
    let sets = |cache: &mut Option<baseline_sets::SetPointsTo>| -> baseline_sets::SetPointsTo {
        cache
            .get_or_insert_with(|| baseline_sets::points_to(p))
            .clone()
    };

    let hierarchy = match hierarchy::compute(&facts) {
        Ok(h) => h,
        Err(e) if degradable(&e) => {
            record_degrade(&facts, "hierarchy", &e);
            degraded.push("hierarchy");
            lifted(&facts, || fallback_hierarchy(&facts, p))?
        }
        Err(e) => return Err(e),
    };
    let points_to = match pointsto::analyze(&facts, pointsto::CallGraphMode::OnTheFly) {
        Ok(r) => r,
        Err(e) if degradable(&e) => {
            record_degrade(&facts, "pointsto", &e);
            degraded.push("pointsto");
            let s = sets(&mut sets_cache);
            lifted(&facts, || fallback_points_to(&facts, &s))?
        }
        Err(e) => return Err(e),
    };
    let call_graph = match callgraph::build(&facts, &points_to.cg) {
        Ok(r) => r,
        Err(e) if degradable(&e) => {
            record_degrade(&facts, "callgraph", &e);
            degraded.push("callgraph");
            let s = sets(&mut sets_cache);
            lifted(&facts, || fallback_call_graph(&facts, p, &s.cg))?
        }
        Err(e) => return Err(e),
    };
    let side_effects = match sideeffect::compute(&facts, &points_to.pt, &call_graph.edges) {
        Ok(r) => r,
        Err(e) if degradable(&e) => {
            record_degrade(&facts, "sideeffect", &e);
            degraded.push("sideeffect");
            let s = sets(&mut sets_cache);
            lifted(&facts, || fallback_side_effects(&facts, p, &s))?
        }
        Err(e) => return Err(e),
    };
    Ok(WholeProgram {
        facts,
        hierarchy,
        points_to,
        call_graph,
        side_effects,
        degraded_phases: degraded,
    })
}

/// Budget exhaustion is recoverable; explicit cancellation is not, and
/// every non-budget error is a real failure.
fn degradable(e: &JeddError) -> bool {
    matches!(
        e,
        JeddError::ResourceExhausted { cause, .. } if !matches!(cause, BddError::Cancelled)
    )
}

/// Logs a fallback through the profiler, so a degraded phase shows up in
/// the same event stream as the operations that led to it.
fn record_degrade(facts: &Facts, phase: &'static str, e: &JeddError) {
    facts.u.profile(OpEvent {
        op: "degrade",
        site: format!("{phase}: {e}"),
        nanos: 0,
        operand_nodes: 0,
        result_nodes: 0,
        shape: None,
    });
}

/// Runs `f` with the budget lifted, restoring it afterwards: fallback
/// results must materialise even though the BDD path just ran out of
/// resources.
fn lifted<T>(facts: &Facts, f: impl FnOnce() -> Result<T, JeddError>) -> Result<T, JeddError> {
    let saved = facts.u.budget();
    facts.u.set_budget(Budget::unlimited());
    let r = f();
    facts.u.set_budget(saved);
    r
}

fn pairs_to_tuples(pairs: &BTreeSet<(u32, u32)>) -> Vec<Vec<u64>> {
    pairs
        .iter()
        .map(|&(a, b)| vec![a as u64, b as u64])
        .collect()
}

fn fallback_hierarchy(facts: &Facts, p: &Program) -> Result<hierarchy::Hierarchy, JeddError> {
    let tuples = pairs_to_tuples(&baseline_sets::hierarchy(p));
    let subtype_of = Relation::from_tuples(&facts.u, facts.extend.schema(), &tuples)?;
    Ok(hierarchy::Hierarchy { subtype_of })
}

fn fallback_points_to(
    facts: &Facts,
    sets: &baseline_sets::SetPointsTo,
) -> Result<pointsto::PointsTo, JeddError> {
    let pt = Relation::from_tuples(&facts.u, facts.news.schema(), &pairs_to_tuples(&sets.pt))?;
    let fp_tuples: Vec<Vec<u64>> = sets
        .field_pt
        .iter()
        .map(|&(bo, ff, o)| vec![bo as u64, ff as u64, o as u64])
        .collect();
    let field_pt = Relation::from_tuples(
        &facts.u,
        &[
            (facts.baseobj, facts.h2),
            (facts.field, facts.f1),
            (facts.obj, facts.h1),
        ],
        &fp_tuples,
    )?;
    let cg = Relation::from_tuples(
        &facts.u,
        &[(facts.site, facts.c1), (facts.method, facts.m1)],
        &pairs_to_tuples(&sets.cg),
    )?;
    Ok(pointsto::PointsTo {
        pt,
        field_pt,
        cg,
        iterations: 0,
    })
}

fn fallback_call_graph(
    facts: &Facts,
    p: &Program,
    cg: &BTreeSet<(u32, u32)>,
) -> Result<callgraph::CallGraph, JeddError> {
    let site_targets = Relation::from_tuples(
        &facts.u,
        &[(facts.site, facts.c1), (facts.method, facts.m1)],
        &pairs_to_tuples(cg),
    )?;
    // (caller, callee) method edges through the call-site map.
    let mut edge_set: BTreeSet<(u32, u32)> = BTreeSet::new();
    for &(site, m) in cg {
        if let Some(c) = p.calls.iter().find(|c| c.site == site) {
            edge_set.insert((c.caller, m));
        }
    }
    let edges = Relation::from_tuples(
        &facts.u,
        &[(facts.caller, facts.m2), (facts.method, facts.m1)],
        &pairs_to_tuples(&edge_set),
    )?;
    // Reachability closure from the entry points.
    let mut reach: BTreeSet<u32> = p.entry_points.iter().copied().collect();
    loop {
        let mut changed = false;
        for &(caller, callee) in &edge_set {
            if reach.contains(&caller) {
                changed |= reach.insert(callee);
            }
        }
        if !changed {
            break;
        }
    }
    let reach_tuples: Vec<Vec<u64>> = reach.iter().map(|&m| vec![m as u64]).collect();
    let reachable = Relation::from_tuples(&facts.u, facts.entry.schema(), &reach_tuples)?;
    Ok(callgraph::CallGraph {
        site_targets,
        edges,
        reachable,
    })
}

fn fallback_side_effects(
    facts: &Facts,
    p: &Program,
    sets: &baseline_sets::SetPointsTo,
) -> Result<sideeffect::SideEffects, JeddError> {
    let se = baseline_sets::side_effects(p, sets);
    let materialise = |set: &BTreeSet<(u32, u32, u32)>| -> Result<Relation, JeddError> {
        let tuples: Vec<Vec<u64>> = set
            .iter()
            .map(|&(m, o, ff)| vec![m as u64, o as u64, ff as u64])
            .collect();
        Relation::from_tuples(
            &facts.u,
            &[
                (facts.method, facts.m1),
                (facts.baseobj, facts.h1),
                (facts.field, facts.f1),
            ],
            &tuples,
        )
    };
    Ok(sideeffect::SideEffects {
        reads: materialise(&se.reads)?,
        writes: materialise(&se.writes)?,
        reads_star: materialise(&se.reads_star)?,
        writes_star: materialise(&se.writes_star)?,
    })
}

/// Runs the combined **mini-Jedd** program on `p` through the jeddc
/// executor: loads the fact relations, then iterates the module rules
/// (`ptInit`, then `ptStep`/`mkSiteTypes`/`vcr`/`cgBuild`/`cgParamEdges`
/// to mutual fixpoint, then `hierarchy` and `sideEffects`).
///
/// Returns the executor with all result relations populated.
///
/// # Errors
///
/// Returns compile or runtime errors from the jeddc pipeline.
pub fn run_jedd(p: &Program) -> Result<Executor, Box<dyn std::error::Error>> {
    run_jedd_with(p, false, Strategy::default())
}

/// Like [`run_jedd`], with declared-type filtering enabled (the `ptFilter`
/// rules of the points-to module, fed by the hierarchy closure).
///
/// # Errors
///
/// Same conditions as [`run_jedd`].
pub fn run_jedd_typed(p: &Program) -> Result<Executor, Box<dyn std::error::Error>> {
    run_jedd_with(p, true, Strategy::default())
}

/// [`run_jedd`] (`typed = false`) or [`run_jedd_typed`] (`typed = true`)
/// with the executor's statements run under `strategy`;
/// [`Strategy::Naive`] is the oracle for the default semi-naive
/// statements.
///
/// # Errors
///
/// Same conditions as [`run_jedd`].
pub fn run_jedd_with(
    p: &Program,
    typed: bool,
    strategy: Strategy,
) -> Result<Executor, Box<dyn std::error::Error>> {
    let mut exec = load_jedd(p)?;
    exec.set_strategy(strategy);
    // Run the modules: hierarchy once, then the points-to / call-graph
    // fixpoint, then side effects.
    exec.run("hierarchy")?;
    exec.run("ptInit")?;
    if typed {
        exec.run("ptFilterInit")?;
        exec.run("ptFilter")?;
    }
    let mut rounds = 0usize;
    loop {
        rounds += 1;
        let before = (
            exec.relation("pt")?.size(),
            exec.relation("edges")?.size(),
            exec.relation("siteTarget")?.size(),
        );
        if typed {
            exec.run("ptStepTyped")?;
        } else {
            exec.run("ptStep")?;
        }
        exec.run("mkSiteTypes")?;
        exec.run("vcr")?;
        exec.run("cgBuild")?;
        exec.run("cgParamEdges")?;
        let after = (
            exec.relation("pt")?.size(),
            exec.relation("edges")?.size(),
            exec.relation("siteTarget")?.size(),
        );
        if before == after {
            break;
        }
        if rounds > 1000 {
            return Err(Box::new(ExecError {
                message: "whole-program fixpoint failed to converge".into(),
            }));
        }
    }
    exec.run("sideEffects")?;
    Ok(exec)
}

/// Compiles the combined mini-Jedd program, binds its domains to `p`'s
/// sizes and loads `p`'s facts — everything [`run_jedd`] does before the
/// first rule runs.
///
/// # Errors
///
/// Returns compile or loading errors from the jeddc pipeline.
pub fn load_jedd(p: &Program) -> Result<Executor, Box<dyn std::error::Error>> {
    let compiled = jeddc::compile(&jedd_src::combined())?;
    let mut exec = Executor::new(&compiled)?;
    exec.bind_domain_size("Type", p.types.max(1) as u64)?;
    exec.bind_domain_size("Signature", p.sigs.max(1) as u64)?;
    exec.bind_domain_size("Method", p.methods.max(1) as u64)?;
    exec.bind_domain_size("Field", p.fields.max(1) as u64)?;
    exec.bind_domain_size("Var", p.vars.max(1) as u64)?;
    exec.bind_domain_size("Obj", p.allocs.max(1) as u64)?;
    exec.bind_domain_size("Site", p.call_sites.max(1) as u64)?;
    let max_idx = p
        .method_params
        .iter()
        .map(|&(_, i, _)| i + 1)
        .max()
        .unwrap_or(1);
    exec.bind_domain_size("ParamIdx", max_idx.max(1) as u64)?;

    let t2 = |v: &[(u32, u32)]| -> Vec<Vec<u64>> {
        v.iter().map(|&(a, b)| vec![a as u64, b as u64]).collect()
    };
    exec.set_input("extend", &t2(&p.extend))?;
    exec.set_input(
        "declaresMethod",
        &p.declares
            .iter()
            .map(|&(t, s, m)| vec![t as u64, s as u64, m as u64])
            .collect::<Vec<_>>(),
    )?;
    exec.set_input("objType", &t2(&p.alloc_type))?;
    exec.set_input(
        "news",
        &p.news
            .iter()
            .map(|&(_, v, a)| vec![v as u64, a as u64])
            .collect::<Vec<_>>(),
    )?;
    exec.set_input(
        "assigns",
        &p.assigns
            .iter()
            .map(|&(_, d, s)| vec![d as u64, s as u64])
            .collect::<Vec<_>>(),
    )?;
    exec.set_input(
        "loads",
        &p.loads
            .iter()
            .map(|&(_, d, b, f)| vec![d as u64, b as u64, f as u64])
            .collect::<Vec<_>>(),
    )?;
    exec.set_input(
        "stores",
        &p.stores
            .iter()
            .map(|&(_, b, f, s)| vec![b as u64, f as u64, s as u64])
            .collect::<Vec<_>>(),
    )?;
    exec.set_input(
        "siteCaller",
        &p.calls
            .iter()
            .map(|c| vec![c.site as u64, c.caller as u64])
            .collect::<Vec<_>>(),
    )?;
    exec.set_input(
        "siteRecv",
        &p.calls
            .iter()
            .map(|c| vec![c.site as u64, c.recv as u64])
            .collect::<Vec<_>>(),
    )?;
    exec.set_input(
        "siteSig",
        &p.calls
            .iter()
            .map(|c| vec![c.site as u64, c.sig as u64])
            .collect::<Vec<_>>(),
    )?;
    let mut args = Vec::new();
    for c in &p.calls {
        for (i, &a) in c.args.iter().enumerate() {
            args.push(vec![c.site as u64, i as u64, a as u64]);
        }
    }
    exec.set_input("siteArg", &args)?;
    exec.set_input(
        "siteRet",
        &p.calls
            .iter()
            .filter_map(|c| c.ret.map(|r| vec![c.site as u64, r as u64]))
            .collect::<Vec<_>>(),
    )?;
    exec.set_input("methodThis", &t2(&p.method_this))?;
    exec.set_input(
        "methodParam",
        &p.method_params
            .iter()
            .map(|&(m, i, v)| vec![m as u64, i as u64, v as u64])
            .collect::<Vec<_>>(),
    )?;
    exec.set_input("methodRet", &t2(&p.method_ret))?;
    exec.set_input(
        "entry",
        &p.entry_points
            .iter()
            .map(|&m| vec![m as u64])
            .collect::<Vec<_>>(),
    )?;
    exec.set_input(
        "loadIn",
        &p.loads
            .iter()
            .map(|&(m, _, b, f)| vec![m as u64, b as u64, f as u64])
            .collect::<Vec<_>>(),
    )?;
    exec.set_input(
        "storeIn",
        &p.stores
            .iter()
            .map(|&(m, b, f, _)| vec![m as u64, b as u64, f as u64])
            .collect::<Vec<_>>(),
    )?;
    exec.set_input(
        "typeIdentity",
        &(0..p.types as u64).map(|t| vec![t, t]).collect::<Vec<_>>(),
    )?;
    // Declared types; unlisted variables default to the root.
    let mut vt: Vec<Vec<u64>> = p
        .var_type
        .iter()
        .map(|&(v, t)| vec![v as u64, t as u64])
        .collect();
    let listed: std::collections::BTreeSet<u32> = p.var_type.iter().map(|&(v, _)| v).collect();
    for v in 0..p.vars as u32 {
        if !listed.contains(&v) {
            vt.push(vec![v as u64, 0]);
        }
    }
    exec.set_input("varType", &vt)?;
    Ok(exec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline_sets;
    use crate::synth::Benchmark;
    use std::collections::BTreeSet;

    #[test]
    fn rust_driver_runs_all_five() {
        let p = Benchmark::Tiny.generate();
        let r = run(&p).unwrap();
        assert!(r.hierarchy.subtype_of.size() >= p.types as u64);
        assert!(r.points_to.pt.size() > 0);
        assert!(r.side_effects.reads_star.size() >= r.side_effects.reads.size());
        let _ = (&r.call_graph.reachable, &r.facts);
    }

    #[test]
    fn jedd_language_driver_matches_set_baseline() {
        let p = Benchmark::Tiny.generate();
        let exec = run_jedd(&p).expect("mini-Jedd whole-program run");
        let sets = baseline_sets::points_to(&p);

        // pt column order is (var, obj).
        let got_pt: BTreeSet<(u64, u64)> = exec
            .tuples("pt")
            .unwrap()
            .into_iter()
            .map(|t| (t[0], t[1]))
            .collect();
        let expect_pt: BTreeSet<(u64, u64)> =
            sets.pt.iter().map(|&(v, o)| (v as u64, o as u64)).collect();
        assert_eq!(got_pt, expect_pt, "pt through the Jedd language");

        // siteTarget columns are (site, method) as declared.
        let got_cg: BTreeSet<(u64, u64)> = exec
            .tuples("siteTarget")
            .unwrap()
            .into_iter()
            .map(|t| (t[0], t[1]))
            .collect();
        let expect_cg: BTreeSet<(u64, u64)> =
            sets.cg.iter().map(|&(s, m)| (s as u64, m as u64)).collect();
        assert_eq!(got_cg, expect_cg, "call graph through the Jedd language");
    }

    #[test]
    fn jedd_language_hierarchy_matches() {
        let p = Benchmark::Tiny.generate();
        let exec = run_jedd(&p).unwrap();
        let expect = baseline_sets::hierarchy(&p);
        let got: BTreeSet<(u32, u32)> = exec
            .tuples("subtypeOf")
            .unwrap()
            .into_iter()
            .map(|t| (t[0] as u32, t[1] as u32))
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn jedd_language_side_effects_match() {
        let p = Benchmark::Tiny.generate();
        let exec = run_jedd(&p).unwrap();
        let sets_pt = baseline_sets::points_to(&p);
        let sets_se = baseline_sets::side_effects(&p, &sets_pt);
        // readsStar columns are (method, baseobj, field) as declared.
        let got: BTreeSet<(u32, u32, u32)> = exec
            .tuples("readsStar")
            .unwrap()
            .into_iter()
            .map(|t| (t[0] as u32, t[1] as u32, t[2] as u32))
            .collect();
        let expect: BTreeSet<(u32, u32, u32)> = sets_se.reads_star.iter().copied().collect();
        assert_eq!(got, expect, "transitive reads through the Jedd language");
    }
}

#[cfg(test)]
mod typed_driver_tests {
    use super::*;
    use crate::baseline_sets;
    use crate::synth::Benchmark;
    use std::collections::BTreeSet;

    #[test]
    fn jedd_language_typed_driver_matches_typed_baseline() {
        let p = Benchmark::Tiny.generate();
        let exec = run_jedd_typed(&p).expect("typed mini-Jedd run");
        let sets = baseline_sets::points_to_typed(&p);
        let got: BTreeSet<(u64, u64)> = exec
            .tuples("pt")
            .unwrap()
            .into_iter()
            .map(|t| (t[0], t[1]))
            .collect();
        let expect: BTreeSet<(u64, u64)> =
            sets.pt.iter().map(|&(v, o)| (v as u64, o as u64)).collect();
        assert_eq!(got, expect, "typed pt through the Jedd language");
    }
}
